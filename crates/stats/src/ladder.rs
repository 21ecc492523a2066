//! Geometric parameter ladders for experiment sweeps.
//!
//! Speed-up laws are checked over a geometric (not arithmetic) ladder of
//! the walk count `k`, so that a fit in `log k` has evenly spaced
//! abscissae.

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
