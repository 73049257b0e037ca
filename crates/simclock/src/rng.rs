//! Deterministic random-number utilities for behavior models.
//!
//! The behavior models in `ids-workload` and the jitter processes in
//! `ids-devices` need a handful of continuous distributions (normal,
//! log-normal, exponential) and weighted categorical draws over one
//! seeded keystream. Both live here: a private ChaCha12 generator and
//! the transforms on top of it (Box–Muller for normals, inverse CDF for
//! exponentials).
//!
//! Streams are *splittable*: [`SimRng::split`] derives an independent child
//! generator from a label, so per-user / per-device substreams stay stable
//! when unrelated code consumes randomness. The workspace's property
//! tests draw their inputs from it too, through [`check`]. The
//! workspace's one copy of each hash lives here as well: [`splitmix64`],
//! [`fnv1a`] and [`label_hash`].
//!
//! Every calibrated number, golden fixture and simtest repro in this
//! repository is a function of this keystream, so it is pinned twice in
//! the tests below: the 12-round block against a published test vector,
//! and whole `SimRng` streams against values captured from the
//! `rand`-0.8-shaped generator this module replaced. The construction
//! follows `rand` 0.8's `StdRng` (ChaCha12, `rand_core` 0.6's PCG32
//! `seed_from_u64`, four-block refills, `Standard`'s 53-bit float,
//! `UniformInt::sample_single`); that the *seed expansion* equals
//! upstream's cannot be checked offline and is not claimed.

/// Keystream words buffered per refill: four 64-byte ChaCha blocks.
const BUF_WORDS: usize = 32;

/// ChaCha12 with a 64-bit block counter and stream id 0, read 64 bits
/// at a time.
///
/// The buffer holds little-endian pairs of the cipher's 32-bit output
/// words: [`SimRng`] only ever takes 64-bit draws, so no draw can
/// straddle a refill.
#[derive(Debug, Clone)]
struct ChaCha12 {
    key: [u32; 8],
    /// Block counter of the next refill's first block.
    counter: u64,
    buf: [u64; BUF_WORDS],
    /// Next unread word of `buf`; `BUF_WORDS` means empty.
    index: usize,
}

impl ChaCha12 {
    fn from_key(key: [u32; 8]) -> ChaCha12 {
        ChaCha12 {
            key,
            counter: 0,
            buf: [0; BUF_WORDS],
            index: BUF_WORDS,
        }
    }

    /// Expands a 64-bit seed into the key with eight PCG-XSH-RR outputs
    /// (`rand_core` 0.6's `seed_from_u64`).
    fn seed_from_u64(mut state: u64) -> ChaCha12 {
        ChaCha12::from_key(std::array::from_fn(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(11634580027462260723);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            xorshifted.rotate_right((state >> 59) as u32)
        }))
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.index == BUF_WORDS {
            self.refill();
        }
        let word = self.buf[self.index];
        self.index += 1;
        word
    }

    /// Generates the blocks at `counter + 0..3` into the buffer.
    // Never inlined: this is the 1-in-32 path, and its 24 double rounds
    // copied into every draw site cost a prototype of this generator
    // 1.6 ns on a 9.7 ns `unit()`. The attribute takes that choice away
    // from the inliner.
    #[inline(never)]
    fn refill(&mut self) {
        for (i, out) in self.buf.chunks_exact_mut(8).enumerate() {
            let words = block(&self.key, self.counter.wrapping_add(i as u64));
            for (pair, word) in words.chunks_exact(2).zip(out) {
                *word = u64::from(pair[1]) << 32 | u64::from(pair[0]);
            }
        }
        self.counter = self.counter.wrapping_add(4);
        self.index = 0;
    }
}

/// One ChaCha12 block with stream id 0: the input state plus its
/// 12-round permutation.
fn block(key: &[u32; 8], counter: u64) -> [u32; 16] {
    // "expand 32-byte k", the key, the counter; words 14–15 (the stream
    // id) stay zero.
    let mut input = [0u32; 16];
    input[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
    input[4..12].copy_from_slice(key);
    input[12] = counter as u32;
    input[13] = (counter >> 32) as u32;
    let mut s = input;
    for _ in 0..6 {
        double_round(&mut s);
    }
    for (word, initial) in s.iter_mut().zip(input) {
        *word = word.wrapping_add(initial);
    }
    s
}

/// A column round followed by a diagonal round.
#[inline]
fn double_round(s: &mut [u32; 16]) {
    quarter_round(s, 0, 4, 8, 12);
    quarter_round(s, 1, 5, 9, 13);
    quarter_round(s, 2, 6, 10, 14);
    quarter_round(s, 3, 7, 11, 15);
    quarter_round(s, 0, 5, 10, 15);
    quarter_round(s, 1, 6, 11, 12);
    quarter_round(s, 2, 7, 8, 13);
    quarter_round(s, 3, 4, 9, 14);
}

#[inline]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// A seeded random source with the distribution helpers used across the
/// workspace.
///
/// ```
/// use ids_simclock::rng::SimRng;
///
/// let mut a = SimRng::seed(7).split("user/0");
/// let mut b = SimRng::seed(7).split("user/0");
/// assert_eq!(a.normal(0.0, 1.0).to_bits(), b.normal(0.0, 1.0).to_bits());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaCha12,
    /// Cached second Box–Muller variate.
    spare_normal: Option<f64>,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        SimRng {
            inner: ChaCha12::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// Derives an independent child stream from a textual label.
    ///
    /// The child's seed mixes this generator's *seed-derived* state with a
    /// hash of the label, so splitting is order-independent with respect to
    /// other labels but deterministic per `(seed, label)` pair.
    pub fn split(&self, label: &str) -> SimRng {
        // Mixed with fresh output from a clone so the parent stream
        // itself is not consumed.
        let mut probe = self.inner.clone();
        let base = probe.next_u64();
        SimRng::seed(base ^ label_hash(label.bytes()).rotate_left(17))
    }

    /// Uniform draw in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`; returns `lo` when the range is empty.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + self.unit() * (hi - lo)
    }

    /// Uniform integer in `[lo, hi)`; returns `lo` when the range is empty.
    pub fn uniform_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.uniform_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform integer in `[lo, hi)`; returns `lo` when the range is empty.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        // Widening multiply with rejection: a draw is kept when the
        // product's low half is below `range << lz`, a multiple of
        // `range`, so every result is equally likely.
        let range = hi - lo;
        let zone = (range << range.leading_zeros()).wrapping_sub(1);
        loop {
            let m = u128::from(self.inner.next_u64()) * u128::from(range);
            if m as u64 <= zone {
                return lo + (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Standard normal via Box–Muller (with spare caching).
    fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Draw u1 in (0, 1] to keep ln() finite.
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal draw with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev.max(0.0) * self.standard_normal()
    }

    /// Normal draw truncated to `[lo, hi]` by rejection (falls back to
    /// clamping after 64 rejections so pathological bounds still terminate).
    pub fn normal_clamped(&mut self, mean: f64, std_dev: f64, lo: f64, hi: f64) -> f64 {
        for _ in 0..64 {
            let x = self.normal(mean, std_dev);
            if x >= lo && x <= hi {
                return x;
            }
        }
        self.normal(mean, std_dev).clamp(lo, hi)
    }

    /// Log-normal draw: `exp(N(mu, sigma))`.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Exponential draw with the given mean (inverse-CDF method).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.unit(); // in (0, 1]
        -mean.max(0.0) * u.ln()
    }

    /// Weighted categorical draw; returns the index of the chosen weight.
    ///
    /// Zero or negative weights are treated as zero. Returns 0 when all
    /// weights vanish; an empty slice panics, since a widget-choice model
    /// with no options is a programming error.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(
            !weights.is_empty(),
            "weighted_index requires at least one weight"
        );
        let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
        if total <= 0.0 {
            return 0;
        }
        let mut target = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            let w = w.max(0.0);
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.uniform_usize(0, i + 1);
            items.swap(i, j);
        }
    }
}

/// Runs a property test: `property` once per case in `cases`, each on
/// its own generator seeded from `(name, case)`, so a case draws the same
/// inputs on every run and machine. A panicking case is reported with
/// the range that reruns it alone (`case..case + 1`) before the panic
/// resumes.
pub fn check(name: &str, cases: std::ops::Range<u32>, mut property: impl FnMut(&mut SimRng)) {
    for case in cases {
        let mut rng = SimRng::seed(u64::from(case)).split(name);
        let run = std::panic::AssertUnwindSafe(|| property(&mut rng));
        if let Err(panic) = std::panic::catch_unwind(run) {
            eprintln!(
                "property `{name}` failed at case {case}; rerun it alone with cases {case}..{}",
                case + 1
            );
            std::panic::resume_unwind(panic);
        }
    }
}

/// SplitMix64's finalizer: a bijective bit mix, behind hash-key shard
/// routing (`ids-shard`), fault decisions (`ids-chaos`) and scenario
/// seed derivation (`ids-simtest`).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a: string shard keys, result checksums and run digests.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    fnv_fold(bytes, 0x0000_0100_0000_01b3)
}

/// The FNV-1a-shaped fold behind [`SimRng::split`] and query
/// fingerprints. Its multiplier is not the FNV prime and must not be
/// corrected: every split stream, fault decision and golden depends on
/// it.
pub fn label_hash(bytes: impl IntoIterator<Item = u8>) -> u64 {
    fnv_fold(bytes, 0x1000_0000_01b3)
}

fn fnv_fold(bytes: impl IntoIterator<Item = u8>, multiplier: u64) -> u64 {
    bytes.into_iter().fold(FNV_OFFSET_BASIS, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(multiplier)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// draft-strombergson-chacha-test-vectors-01, TC1 (all-zero 256-bit
    /// key and IV), 12 rounds, first keystream block.
    #[test]
    fn chacha12_block_matches_the_published_vector() {
        const TC1_BLOCK_0: [u8; 64] = [
            0x9b, 0xf4, 0x9a, 0x6a, 0x07, 0x55, 0xf9, 0x53, 0x81, 0x1f, 0xce, 0x12, 0x5f, 0x26,
            0x83, 0xd5, 0x04, 0x29, 0xc3, 0xbb, 0x49, 0xe0, 0x74, 0x14, 0x7e, 0x00, 0x89, 0xa5,
            0x2e, 0xae, 0x15, 0x5f, 0x05, 0x64, 0xf8, 0x79, 0xd2, 0x7a, 0xe3, 0xc0, 0x2c, 0xe8,
            0x28, 0x34, 0xac, 0xfa, 0x8c, 0x79, 0x3a, 0x62, 0x9f, 0x2c, 0xa0, 0xde, 0x69, 0x19,
            0x61, 0x0b, 0xe8, 0x2f, 0x41, 0x13, 0x26, 0xbe,
        ];
        let mut rng = ChaCha12::from_key([0; 8]);
        let block: Vec<u8> = (0..8).flat_map(|_| rng.next_u64().to_le_bytes()).collect();
        assert_eq!(block, TC1_BLOCK_0);
    }

    /// RFC 7539 §2.3.2: the same double round run ten times (ChaCha20)
    /// over the RFC's key/counter/nonce state gives its keystream block,
    /// which starts "10 f1 e7 e4 d1 3b 59 15" on the wire.
    #[test]
    fn double_round_matches_rfc7539_at_20_rounds() {
        let input: [u32; 16] = [
            0x61707865, 0x3320646e, 0x79622d32, 0x6b206574, 0x03020100, 0x07060504, 0x0b0a0908,
            0x0f0e0d0c, 0x13121110, 0x17161514, 0x1b1a1918, 0x1f1e1d1c, 0x00000001, 0x09000000,
            0x4a000000, 0x00000000,
        ];
        let mut s = input;
        for _ in 0..10 {
            double_round(&mut s);
        }
        assert_eq!(s[0].wrapping_add(input[0]), 0xe4e7f110);
        assert_eq!(s[1].wrapping_add(input[1]), 0x15593bd1);
    }

    /// Streams captured from the `rand`-0.8-shaped `StdRng` this module's
    /// generator replaced, at the commit before it was deleted. One
    /// stream per seed, in this order: 200 `unit` draws (the first three
    /// kept, all folded — six refills), five small bounded draws, one
    /// full-width bounded draw, one normal; then a split child's first
    /// draw, which also pins `split`'s label-hash multiplier.
    #[test]
    fn streams_match_the_generator_this_replaced() {
        struct Captured {
            seed: u64,
            units: [u64; 3],
            fold: u64,
            bounded: [usize; 5],
            big: u64,
            normal: u64,
            split: u64,
        }
        let captured = [
            Captured {
                seed: 0,
                units: [0x3fe76547f659a58d, 0x3fe8c02f9291c4ed, 0x3f9a77040b3cc420],
                fold: 0xf344c13b7c267f27,
                bounded: [883, 160, 411, 831, 177],
                big: 13329047955837907036,
                normal: 0xbff6d0947469aefb,
                split: 0x3fe20e4237603557,
            },
            Captured {
                seed: 1,
                units: [0x3fef2d034c9a6603, 0x3fe61e9a24b981ad, 0x3fdb63f0568c9232],
                fold: 0xa44e8f9db8e963a6,
                bounded: [548, 373, 670, 144, 41],
                big: 17090130448020603058,
                normal: 0xbfe573e610deaeef,
                split: 0x3fe1e5e425b49aee,
            },
            Captured {
                seed: 42,
                units: [0x3fe0d98eec6444e4, 0x3fe15e014267f5aa, 0x3fe45dec0e3bca26],
                fold: 0xb1fb6de74e78e423,
                bounded: [822, 721, 57, 125, 693],
                big: 16227502978097162366,
                normal: 0xbfd65c63ebfd1e68,
                split: 0x3fe0126e693086a9,
            },
            Captured {
                seed: u64::MAX,
                units: [0x3faf4f30905c7ab0, 0x3fa466e168822480, 0x3fb2a43d6f65c610],
                fold: 0x4f8862a77cfa7013,
                bounded: [185, 254, 959, 640, 355],
                big: 12811249435384502652,
                normal: 0x3fe64f21f9aeca70,
                split: 0x3febf930b37c3b13,
            },
        ];
        for c in &captured {
            let mut rng = SimRng::seed(c.seed);
            let mut fold = 0u64;
            for i in 0..200 {
                let bits = rng.unit().to_bits();
                if i < 3 {
                    assert_eq!(bits, c.units[i], "seed {} unit {i}", c.seed);
                }
                fold = (fold.rotate_left(5) ^ bits).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            }
            assert_eq!(fold, c.fold, "seed {} fold", c.seed);
            let bounded: [usize; 5] = std::array::from_fn(|_| rng.uniform_usize(0, 1000));
            assert_eq!(bounded, c.bounded, "seed {}", c.seed);
            assert_eq!(rng.uniform_usize(0, usize::MAX) as u64, c.big);
            assert_eq!(rng.normal(0.0, 1.0).to_bits(), c.normal, "seed {}", c.seed);
            let split = SimRng::seed(c.seed).split("user/0").unit().to_bits();
            assert_eq!(split, c.split, "seed {} split", c.seed);
        }
    }

    #[test]
    fn uniform_usize_stays_in_bounds_and_is_roughly_uniform() {
        let mut rng = SimRng::seed(5);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            let x = rng.uniform_usize(10, 18);
            assert!((10..18).contains(&x));
            counts[x - 10] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn seeding_is_deterministic() {
        let mut a = SimRng::seed(42);
        let mut b = SimRng::seed(42);
        for _ in 0..16 {
            assert_eq!(a.unit().to_bits(), b.unit().to_bits());
        }
    }

    #[test]
    fn split_streams_are_stable_and_distinct() {
        let root = SimRng::seed(1);
        let mut u0 = root.split("user/0");
        let mut u0_again = root.split("user/0");
        let mut u1 = root.split("user/1");
        let x = u0.unit();
        assert_eq!(x.to_bits(), u0_again.unit().to_bits());
        assert_ne!(x.to_bits(), u1.unit().to_bits());
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = SimRng::seed(3);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn exponential_mean_is_plausible() {
        let mut rng = SimRng::seed(4);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn exponential_is_nonnegative() {
        let mut rng = SimRng::seed(5);
        assert!((0..1000).all(|_| rng.exponential(0.5) >= 0.0));
    }

    #[test]
    fn normal_clamped_respects_bounds() {
        let mut rng = SimRng::seed(6);
        for _ in 0..1000 {
            let x = rng.normal_clamped(0.0, 10.0, -1.0, 1.0);
            assert!((-1.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn weighted_index_matches_weights() {
        let mut rng = SimRng::seed(7);
        let weights = [0.0, 1.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..8_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = f64::from(counts[2]) / f64::from(counts[1]);
        assert!((ratio - 3.0).abs() < 0.4, "ratio {ratio}");
    }

    #[test]
    fn weighted_index_all_zero_falls_back() {
        let mut rng = SimRng::seed(8);
        assert_eq!(rng.weighted_index(&[0.0, 0.0]), 0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed(9);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn check_replays_a_case_alone_and_stops_at_the_first_failure() {
        let mut draws = Vec::new();
        check("draws", 0..3, |rng| draws.push(rng.unit().to_bits()));
        let mut alone = Vec::new();
        check("draws", 1..2, |rng| alone.push(rng.unit().to_bits()));
        assert_eq!(alone, draws[1..2], "case 1 draws the same inputs alone");
        assert_ne!(draws[0], draws[1], "cases draw different inputs");

        let mut ran = 0;
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            check("fails", 0..10, |_| {
                ran += 1;
                assert!(ran < 4, "case 3 fails");
            })
        }));
        assert!(failed.is_err(), "the case's panic resumes");
        assert_eq!(ran, 4, "no case runs after the failing one");
    }

    /// The published FNV-1a 64 test vectors.
    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(*b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(*b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed(10);
        assert!((0..100).all(|_| rng.chance(1.1)));
        assert!((0..100).all(|_| !rng.chance(-0.5)));
    }
}
