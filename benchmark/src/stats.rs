//! Order statistics, the sample-count rule for tail percentiles, and the
//! FNV-1a digest every answer is folded into.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(q · n)` (1-based). Empty input reads 0.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    match sorted.len() {
        0 => 0,
        n => sorted[rank(n, q) - 1],
    }
}

/// Samples strictly beyond the `q`-percentile's rank among `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(rank(n, q))
}

/// Whether `n` samples support reporting the `q`-percentile: at least
/// [`MIN_TAIL_SAMPLES`] of them lie beyond it.
pub fn tail_supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_TAIL_SAMPLES
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Sorts a copy and returns `(p50, p95)`.
pub fn p50_p95(samples: &[u64]) -> (u64, u64) {
    let mut s = samples.to_vec();
    s.sort_unstable();
    (percentile(&s, 0.50), percentile(&s, 0.95))
}

/// Median of a float sample (mean of the middle two when even).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<u64>() as f64 / samples.len() as f64
    }
}

/// Incremental FNV-1a over 64-bit words and byte strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// A digest as a JSON-safe number: the low 52 bits, which an `f64`
/// holds exactly.
pub fn digest_as_f64(digest: u64) -> f64 {
    (digest & ((1 << 52) - 1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.50), 50);
        assert_eq!(percentile(&s, 0.95), 95);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[7], 0.95), 7);
        assert_eq!(percentile(&[], 0.95), 0);
        assert_eq!(percentile(&[1, 2, 3], 0.5), 2);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p95 of 200 samples sits at rank 190: exactly ten beyond.
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert!(tail_supported(200, 0.95));
        assert!(!tail_supported(199, 0.95));
        // p50 needs only twenty samples.
        assert!(tail_supported(20, 0.50));
        assert!(!tail_supported(19, 0.50));
        assert_eq!(samples_beyond(0, 0.95), 0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_f64(&[]), 0.0);
        assert_eq!(mean(&[1, 2, 3, 6]), 3.0);
    }

    #[test]
    fn fnv_matches_known_vector_and_digest_is_exact_in_f64() {
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let d = digest_as_f64(u64::MAX);
        assert_eq!(d as u64, (1 << 52) - 1);
    }
}
