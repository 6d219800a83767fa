//! Offline drop-in replacement for the subset of the `rand` crate API this
//! workspace uses.
//!
//! The build environment for this repository has no access to crates.io, so
//! the workspace vendors a minimal, self-contained implementation of the
//! `rand 0.8` surface it needs: [`RngCore`], [`SeedableRng`], [`Rng`]
//! (with `gen`, `gen_bool`, `gen_range`), [`rngs::StdRng`], and
//! [`seq::SliceRandom`] (`shuffle`, `choose`).
//!
//! [`rngs::StdRng`] here is xoshiro256++ seeded through SplitMix64 rather
//! than ChaCha12, so the *streams differ from upstream `rand`*, but every
//! property the workspace relies on holds: seeding is deterministic, distinct
//! seeds give independent-looking streams, and all distributions are
//! uniform. Determinism regression tests in this repository pin golden values
//! produced by this generator.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// The core of a random number generator: raw word output.
pub trait RngCore {
    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest);
    }
}

/// A generator that can be instantiated from a fixed-size seed.
pub trait SeedableRng: Sized {
    /// The seed type (a byte array).
    type Seed: Default + AsMut<[u8]>;

    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64`, expanding it with SplitMix64 — the
    /// standard way this workspace derives per-node streams from one master
    /// seed.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = SplitMix64 { state };
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = sm.next().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Types samplable uniformly from raw generator output (the shim's analogue
/// of `Standard: Distribution<T>`).
pub trait StandardSample {
    /// Draws one uniform value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl StandardSample for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl StandardSample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl StandardSample for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A half-open or inclusive range from which a uniform sample can be drawn.
pub trait SampleRange<T> {
    /// Draws one uniform value from the range. Panics if the range is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform `u64` in `[0, span)` by widening multiplication with rejection
/// (Lemire's method), bias-free.
///
/// The rejection threshold `2^64 mod span` is always below `span`, so a low
/// word of at least `span` is accepted without computing it; the division
/// runs only when `low < span` (Lemire, "Fast Random Integer Generation in
/// an Interval", ACM TOMACS 2019). Outputs and generator words consumed are
/// exactly those of always taking the modulo.
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    loop {
        let x = rng.next_u64();
        let m = u128::from(x) * u128::from(span);
        let low = m as u64;
        if low >= span || low >= span.wrapping_neg() % span {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + uniform_below(rng, span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample from empty range");
                let span = (end as u64).wrapping_sub(start as u64).wrapping_add(1);
                if span == 0 {
                    // Full u64 domain.
                    return rng.next_u64() as $t;
                }
                start + uniform_below(rng, span) as $t
            }
        }
    )*};
}

impl_sample_range!(usize, u64, u32, u16, u8);

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample from empty range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

/// Convenience sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a uniform value of type `T`.
    fn gen<T: StandardSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability out of range: {p}"
        );
        f64::sample(self) < p
    }

    /// Draws a uniform value from `range`. Panics on an empty range.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Named generator types.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++.
    ///
    /// Not stream-compatible with upstream `rand::rngs::StdRng` (ChaCha12),
    /// but deterministic, seedable, fast, and of more than sufficient quality
    /// for simulation workloads.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, word) in s.iter_mut().enumerate() {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&seed[i * 8..(i + 1) * 8]);
                *word = u64::from_le_bytes(bytes);
            }
            if s == [0; 4] {
                // xoshiro must not start from the all-zero state.
                s = [
                    0x9E37_79B9_7F4A_7C15,
                    0xBF58_476D_1CE4_E5B9,
                    0x94D0_49BB_1331_11EB,
                    1,
                ];
            }
            StdRng { s }
        }
    }
}

/// Sequence-related helpers.
pub mod seq {
    use super::{uniform_below, Rng};

    /// Shuffling and random selection on slices.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        /// Returns a uniformly random element, or `None` if empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = uniform_below(rng, i as u64 + 1) as usize;
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get(uniform_below(rng, self.len() as u64) as usize)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{uniform_below, Rng, RngCore, SeedableRng};

    #[test]
    fn seeding_is_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_below_matches_the_modulo_reference() {
        // The early accept must change nothing: the same values and the
        // same generator words consumed as computing `2^64 mod span` on
        // every draw.
        fn reference(rng: &mut StdRng, span: u64, retries: &mut u64) -> u64 {
            loop {
                let m = u128::from(rng.next_u64()) * u128::from(span);
                if m as u64 >= span.wrapping_neg() % span {
                    return (m >> 64) as u64;
                }
                *retries += 1;
            }
        }
        let spans = [
            1,
            2,
            3,
            10,
            (1 << 32) + 1,
            (1 << 63) - 1,
            1 << 63,
            (1 << 63) + 1,
            u64::MAX,
        ];
        for span in spans {
            let mut fast = StdRng::seed_from_u64(29);
            let mut slow = fast.clone();
            let mut retries = 0;
            for draw in 0..10_000 {
                let expected = reference(&mut slow, span, &mut retries);
                assert_eq!(
                    uniform_below(&mut fast, span),
                    expected,
                    "span {span}, draw {draw}"
                );
                assert_eq!(fast, slow, "span {span}, draw {draw}: generator state");
            }
            if span == (1 << 63) + 1 {
                // About half of these draws are rejected, so the retry path
                // ran too.
                assert!(retries > 2_000, "span {span}: {retries} retries");
            }
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..1000 {
            let x = rng.gen_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(5u64..=9);
            assert!((5..=9).contains(&y));
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[rng.gen_range(0usize..10)] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "counts = {counts:?}");
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(17);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2700..3300).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(19);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 50-element shuffle should not be the identity");
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut rng = StdRng::seed_from_u64(23);
        let items = [1, 2, 3, 4];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(*items.choose(&mut rng).unwrap());
        }
        assert_eq!(seen.len(), 4);
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }

    #[test]
    fn fill_bytes_fills_everything() {
        let mut rng = StdRng::seed_from_u64(29);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
