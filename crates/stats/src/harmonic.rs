//! Harmonic numbers and related elementary asymptotics.
//!
//! Matthews' theorem (Theorem 1 of the paper) bounds the cover time by
//! `hmin·Hn ≤ C(G) ≤ hmax·Hn` where `Hn` is the n-th harmonic number, and
//! the Baby Matthews theorem (Theorem 13) divides the upper bound by `k`.
//! These small closed forms are used all over the bounds module.

/// Euler–Mascheroni constant γ.
pub const EULER_MASCHERONI: f64 = 0.577_215_664_901_532_9;

/// Exact n-th harmonic number `H_n = Σ_{i=1..n} 1/i`, summed smallest-first
/// for accuracy. `H_0 = 0`.
pub fn harmonic(n: u64) -> f64 {
    let mut acc = 0.0;
    for i in (1..=n).rev() {
        acc += 1.0 / i as f64;
    }
    acc
}

/// Asymptotic approximation `H_n ≈ ln n + γ + 1/(2n) − 1/(12n²)`.
///
/// Accurate to about 1e-8 already for `n ≥ 10`.
pub fn harmonic_approx(n: u64) -> f64 {
    assert!(n > 0, "harmonic_approx needs n ≥ 1");
    let nf = n as f64;
    nf.ln() + EULER_MASCHERONI + 1.0 / (2.0 * nf) - 1.0 / (12.0 * nf * nf)
}

/// `H_n`, exact below a threshold and asymptotic above, so it is cheap for
/// the large `n` used in bounds.
pub fn harmonic_fast(n: u64) -> f64 {
    if n <= 1024 {
        harmonic(n)
    } else {
        harmonic_approx(n)
    }
}

/// Base-2 logarithm of `n` rounded down (position of highest set bit).
pub fn log2_floor(n: u64) -> u32 {
    assert!(n > 0, "log2 of zero");
    63 - n.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_exact() {
        assert_eq!(harmonic(0), 0.0);
        assert_eq!(harmonic(1), 1.0);
        assert!((harmonic(2) - 1.5).abs() < 1e-15);
        assert!((harmonic(4) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-15);
    }

    #[test]
    fn approx_matches_exact() {
        for n in [10u64, 100, 1000, 10_000] {
            let exact = harmonic(n);
            let approx = harmonic_approx(n);
            assert!(
                (exact - approx).abs() < 1e-6,
                "n={n}: exact={exact} approx={approx}"
            );
        }
    }

    #[test]
    fn fast_is_continuous_at_threshold() {
        let below = harmonic_fast(1024);
        let above = harmonic_fast(1025);
        assert!(above > below);
        assert!((above - below) < 0.01);
    }

    #[test]
    fn harmonic_is_increasing() {
        let mut prev = 0.0;
        for n in 1..100 {
            let h = harmonic(n);
            assert!(h > prev);
            prev = h;
        }
    }

    #[test]
    fn log2_helpers() {
        assert_eq!(log2_floor(1), 0);
        assert_eq!(log2_floor(2), 1);
        assert_eq!(log2_floor(3), 1);
        assert_eq!(log2_floor(1024), 10);
    }
}
