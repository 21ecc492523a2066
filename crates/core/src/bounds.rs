//! Every closed-form bound stated in the paper, as checked functions.
//!
//! These are the *theoretical* curves that the experiments overlay on the
//! Monte-Carlo measurements. Each function documents the theorem it
//! implements; asymptotic `o(1)` terms are dropped (stated in each doc),
//! which is the right comparison at finite `n`. The experiments print
//! measured-vs-bound for every family.

use mrw_stats::harmonic::harmonic_fast;

/// Matthews' upper bound (Theorem 1): `C(G) ≤ h_max · H_n`.
pub fn matthews_upper(hmax: f64, n: u64) -> f64 {
    assert!(hmax >= 0.0 && n >= 1);
    hmax * harmonic_fast(n)
}

/// Matthews' lower bound (Theorem 1): `C(G) ≥ h_min · H_{n−1}`.
///
/// The paper writes `H_n`, which is false at finite `n`: on the complete
/// graph `h_min = n − 1` and `C = (n − 1)·H_{n−1} < (n − 1)·H_n`.
pub fn matthews_lower(hmin: f64, n: u64) -> f64 {
    assert!(hmin >= 0.0 && n >= 1);
    hmin * harmonic_fast(n - 1)
}

/// The Baby Matthews upper bound (Theorem 13):
/// `C^k(G) ≤ (e + o(1))/k · h_max · H_n` for `k ≤ log n`.
/// The `o(1)` term is dropped.
pub fn baby_matthews_upper(hmax: f64, n: u64, k: u64) -> f64 {
    assert!(k >= 1, "k must be ≥ 1");
    std::f64::consts::E / k as f64 * hmax * harmonic_fast(n)
}

/// The largest `k` for which Theorem 13 is stated: `k ≤ log n`
/// (natural log, floored, at least 1).
pub fn baby_matthews_k_limit(n: u64) -> u64 {
    ((n as f64).ln().floor() as u64).max(1)
}

/// The Theorem 14 upper bound with the `o(1)` terms dropped and `f(n)`
/// supplied by the caller (any `ω(1)` function; Theorem 5 instantiates
/// `f = log g(n)`):
/// `C^k ≤ C/k + (3 log k + 2 f(n)) · h_max`.
pub fn thm14_upper(c: f64, hmax: f64, k: u64, f_n: f64) -> f64 {
    assert!(k >= 1, "k must be ≥ 1");
    c / k as f64 + (3.0 * (k as f64).ln() + 2.0 * f_n) * hmax
}

/// The cover-time/hitting-time gap `g(n) = C/h_max` of Theorem 5.
pub fn gap(c: f64, hmax: f64) -> f64 {
    assert!(hmax > 0.0, "h_max must be positive");
    c / hmax
}

/// Theorem 5's `k` range: `k ≤ g(n)^{1−ε}`.
pub fn thm5_k_limit(gap: f64, epsilon: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&epsilon),
        "ε must be in (0,1), got {epsilon}"
    );
    gap.powf(1.0 - epsilon)
}

/// Exact single-walk cover time of the cycle `L_n`: `n(n−1)/2`
/// (gambler's ruin; the paper's Table 1 rounds this to `n²/2`).
pub fn cycle_cover_exact(n: u64) -> f64 {
    (n * (n - 1)) as f64 / 2.0
}

/// Lemma 22's upper bound for the cycle: `C^k ≤ 2n²/ln k` for
/// `3 ≤ k ≤ e^{n/4}` ("k large enough").
pub fn cycle_kwalk_upper(n: u64, k: u64) -> f64 {
    assert!(k >= 3, "Lemma 22 needs k ≥ 3 (ln k bounded away from 0)");
    2.0 * (n as f64).powi(2) / (k as f64).ln()
}

/// Lemma 21 rearranged: if `C^k ≤ n²/s` on the cycle then
/// `k ≥ e^{s/16}/8`; equivalently, achieving speed-up `s/2` (against
/// `C = n²/2`) needs at least this many walks.
pub fn cycle_walks_needed(s: f64) -> f64 {
    assert!(s > 1.0, "Lemma 21 needs s > 1");
    (s / 16.0).exp() / 8.0
}

/// Theorem 6's asymptotic speed-up on the cycle: `S^k = Θ(log k)`.
/// Returns the `log k` reference curve (unit constant).
pub fn cycle_speedup_reference(k: u64) -> f64 {
    assert!(k >= 1);
    (k as f64).ln().max(1.0)
}

/// Corollary 20's per-walk length on an `(n,d,λ)`-expander:
/// `t = 16(b+1) n ln n / k` with `b = λ/(d−λ)`; k walks of this length
/// cover with probability ≥ 1 − 1/n.
pub fn expander_walk_length(n: u64, b: f64, k: u64) -> f64 {
    assert!(k >= 1 && n >= 2);
    assert!(b > 0.0, "b = λ/(d−λ) must be positive");
    16.0 * (b + 1.0) * n as f64 * (n as f64).ln() / k as f64
}

/// Lemma 19's sub-walk length `2s` with `s = log(2n)/log(d/λ)`.
pub fn expander_subwalk_length(n: u64, d: f64, lambda: f64) -> f64 {
    assert!(lambda > 0.0 && d > lambda, "need 0 < λ < d");
    2.0 * (2.0 * n as f64).ln() / (d / lambda).ln()
}

/// Theorem 9's speed-up lower bound on a d-regular graph with mixing time
/// `t_m`: `S^k = Ω(k / (t_m ln n))`. Returns the reference curve with unit
/// constant.
pub fn thm9_speedup_reference(k: u64, t_m: f64, n: u64) -> f64 {
    assert!(k >= 1 && n >= 2 && t_m >= 1.0);
    k as f64 / (t_m * (n as f64).ln())
}

/// The coupon-collector expectation `n·H_n` — the exact cover time of the
/// complete graph with self-loops (Lemma 12's chain).
pub fn coupon_collector(n: u64) -> f64 {
    n as f64 * harmonic_fast(n)
}

/// Lemma 12: the clique speed-up is exactly `k` (up to rounding) for
/// `k ≤ n`: `C^k(K_n) ≈ n·H_n / k`.
pub fn clique_kwalk_cover(n: u64, k: u64) -> f64 {
    assert!(k >= 1 && k <= n, "Lemma 12 needs 1 ≤ k ≤ n");
    coupon_collector(n) / k as f64
}

/// Theorem 26's walk count for the barbell: `k = 20 ln n`.
pub fn barbell_k(n: u64) -> u64 {
    (20.0 * (n as f64).ln()).ceil() as u64
}

/// Theorem 24's lower bound for the d-dimensional torus:
/// `C^k ≥ Ω(n^{2/d} / log k)`. Reference curve with unit constant.
pub fn torus_kwalk_lower_reference(n: u64, d: u32, k: u64) -> f64 {
    assert!(d >= 1 && k >= 2);
    (n as f64).powf(2.0 / d as f64) / (k as f64).ln()
}

/// Theorem 8's spectrum thresholds on the 2-d torus: linear speed-up for
/// `k ≤ log n`, sub-linear for `k ≥ log³ n`. Returns `(log n, log³ n)`.
pub fn torus_spectrum_thresholds(n: u64) -> (f64, f64) {
    let l = (n as f64).ln();
    (l, l.powi(3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrw_stats::harmonic::harmonic;

    #[test]
    fn matthews_sandwich_ordering() {
        // hmin ≤ hmax ⇒ lower ≤ upper.
        let n = 100;
        assert!(matthews_lower(50.0, n) <= matthews_upper(99.0, n));
        // H_100 ≈ 5.187
        assert!((matthews_upper(1.0, 100) - harmonic(100)).abs() < 1e-9);
    }

    #[test]
    fn matthews_lower_is_exact_on_the_complete_graph() {
        // K_n: h(u,v) = n − 1 for every pair and C = (n − 1)·H_{n−1}
        // (coupon collector over the other n − 1 vertices).
        for n in [2u64, 5, 32, 128] {
            let hmin = (n - 1) as f64;
            let cover = (n - 1) as f64 * harmonic(n - 1);
            let lower = matthews_lower(hmin, n);
            assert!(
                (lower - cover).abs() < 1e-9 * cover,
                "K_{n}: lower {lower} vs C {cover}"
            );
            assert!(lower <= matthews_upper(hmin, n));
        }
    }

    #[test]
    fn baby_matthews_divides_by_k() {
        let n = 1000;
        let hmax = 500.0;
        let b1 = baby_matthews_upper(hmax, n, 1);
        let b4 = baby_matthews_upper(hmax, n, 4);
        assert!((b1 / b4 - 4.0).abs() < 1e-9);
        // At k=1 the bound is e·hmax·Hn — e times looser than Matthews.
        assert!((b1 / matthews_upper(hmax, n) - std::f64::consts::E).abs() < 1e-9);
    }

    #[test]
    fn k_limit_is_ln() {
        assert_eq!(baby_matthews_k_limit(1024), 6); // ln 1024 ≈ 6.93
        assert_eq!(baby_matthews_k_limit(2), 1);
    }

    #[test]
    fn thm14_reduces_to_c_over_k_for_small_hmax() {
        let bound = thm14_upper(1_000_000.0, 1.0, 10, 5.0);
        assert!((bound - 100_000.0).abs() < 100.0);
    }

    #[test]
    fn cycle_forms() {
        assert_eq!(cycle_cover_exact(10), 45.0);
        // Lemma 22 at k = e^s: bound 2n²/s.
        let b = cycle_kwalk_upper(100, 8);
        assert!((b - 2.0 * 10_000.0 / 8f64.ln()).abs() < 1e-9);
        // Lemma 21: s = 16 ln(8k) inverse relationship.
        let k = cycle_walks_needed(32.0);
        assert!((k - (2.0f64.exp() / 8.0)).abs() < 1e-12);
    }

    #[test]
    fn expander_length_shrinks_linearly_in_k() {
        let t1 = expander_walk_length(1000, 1.0, 1);
        let t10 = expander_walk_length(1000, 1.0, 10);
        assert!((t1 / t10 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn subwalk_length_monotone_in_lambda() {
        // Larger λ (worse expander) ⇒ longer sub-walks needed.
        let good = expander_subwalk_length(1000, 8.0, 3.0);
        let bad = expander_subwalk_length(1000, 8.0, 6.0);
        assert!(bad > good);
    }

    #[test]
    fn coupon_collector_value() {
        assert!((coupon_collector(10) - 10.0 * harmonic(10)).abs() < 1e-9);
        assert!((clique_kwalk_cover(10, 5) - 2.0 * harmonic(10)).abs() < 1e-9);
    }

    #[test]
    fn barbell_k_grows_logarithmically() {
        assert_eq!(barbell_k(101), (20.0 * 101f64.ln()).ceil() as u64);
        assert!(barbell_k(1001) > barbell_k(101));
        assert!(barbell_k(1001) < 2 * barbell_k(101)); // log growth
    }

    #[test]
    fn torus_thresholds_ordered() {
        let (lo, hi) = torus_spectrum_thresholds(4096);
        assert!(lo < hi);
        assert!((lo - 4096f64.ln()).abs() < 1e-12);
        assert!((hi - lo.powi(3)).abs() < 1e-9);
    }

    #[test]
    fn thm9_reference_linear_in_k() {
        let a = thm9_speedup_reference(10, 50.0, 1000);
        let b = thm9_speedup_reference(20, 50.0, 1000);
        assert!((b / a - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "k ≥ 3")]
    fn lemma22_needs_k_at_least_3() {
        cycle_kwalk_upper(100, 2);
    }

    #[test]
    #[should_panic(expected = "1 ≤ k ≤ n")]
    fn lemma12_range_enforced() {
        clique_kwalk_cover(10, 11);
    }
}
