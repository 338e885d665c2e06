//! Order statistics, the seeded generator and a hash.

/// Median of `xs` (mean of the middle pair for an even count), as
/// Python's `statistics.median` computes it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile of `xs`, by the rule of
/// Python's `statistics.quantiles(xs, n=4)` (method `exclusive`), so a
/// spread computed here matches one computed from the printed results.
/// A single sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n == 1 {
        return (s[0], s[0], s[0]);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), median(&s), q(3))
}

/// The nearest-rank `p`-quantile of `xs` (`0 < p < 1`), reported only
/// when at least ten samples lie beyond it: a tail figure resting on
/// fewer samples is noise. With 100 samples that allows p90, with 20
/// the median.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    // The epsilon keeps `0.9 * 100` from rounding up to rank 91.
    let rank = (p * n as f64 - 1e-9).ceil() as usize;
    if rank == 0 || n - rank.min(n) < 10 {
        return None;
    }
    Some(sorted(xs)[rank - 1])
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// SplitMix64: a tiny deterministic generator, so one `--seed` always
/// yields the same job order on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// FNV-1a over `bytes`, continuing from `hash`.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(median(&[1.0, 4.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(percentile(&hundred, 0.5), Some(50.0));
        assert_eq!(percentile(&hundred[..99], 0.9), None, "9 beyond p90");
        assert_eq!(percentile(&hundred[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&hundred[..19], 0.5), None, "9 beyond p50");
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn shuffles_repeat_per_seed() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..20).collect();
        Rng::new(8).shuffle(&mut c);
        assert_ne!(a, c);
        c.sort_unstable();
        assert_eq!(c, (0..20).collect::<Vec<_>>());
    }
}
