//! Seeded randomness, digests and order statistics — the arithmetic every
//! number the benchmark prints goes through.

/// SplitMix64 (Steele, Lea & Flood 2014). `rand` is only a dev-dependency
/// of the bench crate, and the request stream must be a pure function of
/// `--seed` on every toolchain, so the bin carries its own generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for the
    /// small `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a, 64 bit: digests of documents, results and request streams.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xCBF2_9CE4_8422_2325, bytes)
}

/// Continues an FNV-1a digest over more bytes.
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. `values` need not be sorted.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median with the midpoint rule for even counts (Python's
/// `statistics.median`).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them — the rule the acceptance protocol applies to ten runs.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let v = sorted(values);
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Quartile distance as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_sort_oracle() {
        let mut rng = SplitMix64::new(7);
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
            let values: Vec<f64> = (0..n).map(|_| rng.below(10_000) as f64).collect();
            let oracle = sorted(&values);
            for p in [50.0, 90.0, 95.0, 99.0, 100.0] {
                let got = percentile(&values, p);
                // Oracle: count of samples <= got covers p percent, and no
                // smaller sample does.
                let at_or_below = oracle.iter().filter(|&&x| x <= got).count();
                assert!(at_or_below as f64 >= p / 100.0 * n as f64, "n={n} p={p}");
                let below = oracle.iter().filter(|&&x| x < got).count();
                assert!((below as f64) < p / 100.0 * n as f64, "n={n} p={p}");
            }
            let mid = median(&values);
            let lower = oracle.iter().filter(|&&x| x <= mid).count();
            let upper = oracle.iter().filter(|&&x| x >= mid).count();
            assert!(lower * 2 >= n && upper * 2 >= n, "median n={n}");
        }
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
        assert_eq!(
            quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]),
            (1.25, 5.75)
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(spread(&ten), 1.0);
    }

    #[test]
    fn splitmix_is_seeded_and_fnv_known_answer() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut r = SplitMix64::new(42);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(a[0], SplitMix64::new(43).next_u64());
        // Reference value from the SplitMix64 paper's test vector, seed 0.
        assert_eq!(SplitMix64::new(0).next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
