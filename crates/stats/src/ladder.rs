//! Geometric parameter ladders for experiment sweeps.
//!
//! Asymptotic laws are checked over geometric (not arithmetic) ladders of
//! the problem size `n` and the walk count `k`, so that a log–log fit has
//! evenly spaced abscissae.

/// Geometric ladder of `points` values from `lo` to `hi` inclusive,
/// deduplicated after rounding to integers.
pub fn geometric(lo: u64, hi: u64, points: usize) -> Vec<u64> {
    assert!(lo >= 1 && hi >= lo, "invalid range {lo}..={hi}");
    assert!(points >= 2 || lo == hi, "need at least 2 points");
    if lo == hi {
        return vec![lo];
    }
    let llo = (lo as f64).ln();
    let lhi = (hi as f64).ln();
    let mut v: Vec<u64> = (0..points)
        .map(|i| {
            let t = i as f64 / (points - 1) as f64;
            (llo + t * (lhi - llo)).exp().round() as u64
        })
        .collect();
    v.dedup();
    v
}

/// Ladder of `k` values for a speed-up sweep on a graph with `n` vertices:
/// powers of two from 1 up to `k_max`, always including 1.
pub fn k_ladder(k_max: u64) -> Vec<u64> {
    assert!(k_max >= 1);
    let mut v = vec![1u64];
    let mut x = 2u64;
    while x <= k_max {
        v.push(x);
        if x > k_max / 2 {
            break;
        }
        x <<= 1;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_endpoints() {
        let v = geometric(10, 1000, 5);
        assert_eq!(*v.first().unwrap(), 10);
        assert_eq!(*v.last().unwrap(), 1000);
        for w in v.windows(2) {
            assert!(w[1] > w[0], "not strictly increasing: {v:?}");
        }
    }

    #[test]
    fn geometric_degenerate() {
        assert_eq!(geometric(7, 7, 5), vec![7]);
    }

    #[test]
    fn k_ladder_contains_one_and_is_sorted() {
        let v = k_ladder(100);
        assert_eq!(v[0], 1);
        assert_eq!(*v.last().unwrap(), 64);
        for w in v.windows(2) {
            assert!(w[1] == w[0] * 2);
        }
        assert_eq!(k_ladder(1), vec![1]);
    }
}
