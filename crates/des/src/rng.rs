//! Deterministic, splittable random-number streams.
//!
//! Every stochastic component of a model should draw from its own
//! substream so that (a) a simulation is exactly reproducible from a
//! single master seed, and (b) changing how often one component samples
//! does not perturb the sequence seen by any other component (common
//! random numbers across configurations).

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::fmt;

/// Identifies an independent random-number substream.
///
/// Streams are identified by a string label (hashed with a stable 64-bit
/// FNV-1a) plus an integer index so that replications of the same
/// component get distinct substreams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId {
    label_hash: u64,
    index: u64,
}

impl StreamId {
    /// Constructs a stream id from a component label and an index
    /// (e.g. the replication number).
    #[must_use]
    pub fn new(label: &str, index: u64) -> StreamId {
        StreamId {
            label_hash: fnv1a(label.as_bytes()),
            index,
        }
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream({:016x},{})", self.label_hash, self.index)
    }
}

/// Stable 64-bit FNV-1a hash (independent of `std`'s randomized hasher,
/// so stream assignment never changes across runs or Rust versions).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// SplitMix64 — used only to derive seeds; guarantees well-distributed
/// seeds even for adjacent stream ids.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Factory deriving independent [`SimRng`] streams from one master seed.
///
/// # Example
///
/// ```
/// use ckpt_des::{RngFactory, StreamId};
/// use rand::Rng;
///
/// let factory = RngFactory::new(42);
/// let mut failures = factory.stream(StreamId::new("failures", 0));
/// let mut quiesce = factory.stream(StreamId::new("quiesce", 0));
///
/// // Streams are independent but reproducible:
/// let again = factory.stream(StreamId::new("failures", 0)).gen::<u64>();
/// assert_eq!(failures.gen::<u64>(), again);
/// let _ = quiesce.gen::<f64>();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngFactory {
    master_seed: u64,
}

impl RngFactory {
    /// Creates a factory for the given master seed.
    #[must_use]
    pub fn new(master_seed: u64) -> RngFactory {
        RngFactory { master_seed }
    }

    /// The master seed this factory derives all streams from.
    #[must_use]
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Derives the substream for `id`. Calling this twice with the same
    /// id yields generators producing identical sequences.
    #[must_use]
    pub fn stream(&self, id: StreamId) -> SimRng {
        let mut state = self
            .master_seed
            .wrapping_add(id.label_hash.rotate_left(17))
            .wrapping_add(id.index.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let mut seed = [0u8; 32];
        for chunk in seed.chunks_exact_mut(8) {
            chunk.copy_from_slice(&splitmix64(&mut state).to_le_bytes());
        }
        SimRng::from_inner(SmallRng::from_seed(seed))
    }
}

/// Number of raw 64-bit words buffered per refill of a [`SimRng`].
const RNG_BLOCK: usize = 8;

/// A deterministic random-number generator for one model component.
///
/// Wraps a fast non-cryptographic PRNG and adds the samplers most used
/// by the simulators. Raw 64-bit words are drawn through a small
/// refill block (8 words) so the underlying generator advances in
/// unrolled batches; consumption order is unchanged, so every sampler
/// returns exactly the same sequence as an unbuffered generator
/// (pinned by tests).
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
    /// Buffered raw words; `buf[pos..]` are not yet consumed.
    buf: [u64; RNG_BLOCK],
    pos: usize,
}

impl SimRng {
    fn from_inner(inner: SmallRng) -> SimRng {
        SimRng {
            inner,
            buf: [0; RNG_BLOCK],
            pos: RNG_BLOCK,
        }
    }

    /// Creates a standalone generator from an explicit seed (mostly for
    /// tests; models should go through [`RngFactory`]).
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> SimRng {
        SimRng::from_inner(SmallRng::seed_from_u64(seed))
    }

    /// Next buffered raw word, refilling the block when exhausted.
    #[inline]
    fn next_raw(&mut self) -> u64 {
        // Every sampler and the `RngCore` impl funnel through here, so
        // this one probe counts all consumed words (free when the
        // `telemetry` feature is off).
        crate::telem::note_rng_draw();
        if self.pos == RNG_BLOCK {
            for slot in &mut self.buf {
                *slot = self.inner.next_u64();
            }
            self.pos = 0;
        }
        let v = self.buf[self.pos];
        self.pos += 1;
        v
    }

    /// Uniform in `[0, 1)` with 53 bits of precision — the same mapping
    /// as the `rand` crate's `Standard` distribution for `f64`.
    #[inline]
    fn unit_f64(&mut self) -> f64 {
        (self.next_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `(0, 1)` — never exactly 0 or 1, so it is safe
    /// to take logarithms of either `u` or `1 - u`.
    pub fn open_unit(&mut self) -> f64 {
        loop {
            let u = self.unit_f64();
            if u > 0.0 && u < 1.0 {
                return u;
            }
        }
    }

    /// Exponential sample with the given rate (mean `1/rate`) by the
    /// inverse-CDF transform `-ln(U) / rate`: one uniform, one `ln`.
    /// Every exponential draw in the workspace funnels through here,
    /// and its sequence is pinned by tests.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "exponential rate must be positive and finite, got {rate}"
        );
        -self.open_unit().ln() / rate
    }

    /// Bernoulli trial with success probability `p` (clamped to [0, 1]).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.unit_f64() < p
    }

    /// Standard normal sample (Marsaglia polar method).
    pub fn standard_normal(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.open_unit() - 1.0;
            let v = 2.0 * self.open_unit() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        // The underlying `SmallRng` derives `next_u32` from `next_u64`,
        // so routing through the block preserves the exact stream.
        self.next_raw() as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_raw().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn streams_are_reproducible() {
        let f = RngFactory::new(7);
        let a: Vec<u64> = {
            let mut r = f.stream(StreamId::new("x", 0));
            (0..8).map(|_| r.gen()).collect()
        };
        let b: Vec<u64> = {
            let mut r = f.stream(StreamId::new("x", 0));
            (0..8).map(|_| r.gen()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn streams_differ_by_label_and_index() {
        let f = RngFactory::new(7);
        let a: u64 = f.stream(StreamId::new("x", 0)).gen();
        let b: u64 = f.stream(StreamId::new("y", 0)).gen();
        let c: u64 = f.stream(StreamId::new("x", 1)).gen();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn different_master_seeds_differ() {
        let a: u64 = RngFactory::new(1).stream(StreamId::new("x", 0)).gen();
        let b: u64 = RngFactory::new(2).stream(StreamId::new("x", 0)).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SimRng::seed_from_u64(11);
        let n = 200_000;
        let rate = 0.25;
        let mean: f64 = (0..n).map(|_| r.exponential(rate)).sum::<f64>() / f64::from(n);
        assert!(
            (mean - 4.0).abs() < 0.05,
            "sample mean {mean} too far from 4.0"
        );
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_rejects_zero_rate() {
        let mut r = SimRng::seed_from_u64(1);
        let _ = r.exponential(0.0);
    }

    #[test]
    fn open_unit_is_strictly_interior() {
        let mut r = SimRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let u = r.open_unit();
            assert!(u > 0.0 && u < 1.0);
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = SimRng::seed_from_u64(5);
        assert!(!r.bernoulli(0.0));
        assert!(r.bernoulli(1.0));
        // Out-of-range probabilities are clamped rather than panicking.
        assert!(r.bernoulli(2.0));
        assert!(!r.bernoulli(-1.0));
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = SimRng::seed_from_u64(13);
        let n = 200_000;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.standard_normal();
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / f64::from(n);
        let var = sum2 / f64::from(n) - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
    }

    #[test]
    fn bernoulli_frequency() {
        let mut r = SimRng::seed_from_u64(9);
        let hits = (0..100_000).filter(|_| r.bernoulli(0.3)).count();
        let freq = hits as f64 / 100_000.0;
        assert!((freq - 0.3).abs() < 0.01, "frequency {freq}");
    }

    /// Pinned oracle stream: these exact values were produced by the
    /// pre-buffering implementation (one `next_u64` per draw, straight
    /// from `SmallRng`). The block refill must never change them —
    /// this is the bit-identity contract of `SimRng::exponential`.
    #[test]
    fn inverse_cdf_stream_is_pinned() {
        let mut r = SimRng::seed_from_u64(42);
        assert_eq!(r.open_unit(), 0.8143051451229099);
        assert_eq!(r.open_unit(), 0.3188210400616611);
        assert_eq!(r.open_unit(), 0.9838941681774888);
        assert_eq!(r.open_unit(), 0.7011355981347556);
        assert_eq!(r.exponential(0.5), 0.4625921618901303);
        assert_eq!(r.next_u64(), 10848501901068131965);
        assert_eq!(r.next_u32(), 572142934);
        assert!(!r.bernoulli(0.5));
        assert_eq!(r.standard_normal(), 0.1962265296745266);
        let mut b = [0u8; 11];
        r.fill_bytes(&mut b);
        assert_eq!(b, [152, 155, 53, 84, 112, 231, 20, 174, 189, 13, 89]);
        assert_eq!(r.open_unit(), 0.40307330082561377);
    }

    #[test]
    fn buffered_raw_draws_match_unbuffered_smallrng() {
        use rand::rngs::SmallRng;
        let mut raw = SmallRng::seed_from_u64(99);
        let mut sim = SimRng::seed_from_u64(99);
        // Interleave word sizes to cross refill boundaries.
        for k in 0..100 {
            if k % 3 == 0 {
                assert_eq!(sim.next_u32(), raw.next_u64() as u32);
            } else {
                assert_eq!(sim.next_u64(), raw.next_u64());
            }
        }
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned reference value: stream assignment must never change
        // across builds (FNV-1a of the empty string is the offset basis).
        assert_eq!(super::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(super::fnv1a(b"abc"), super::fnv1a(b"abc"));
        assert_ne!(super::fnv1a(b"abc"), super::fnv1a(b"abd"));
    }
}
