//! Seedable, splittable random-number streams.
//!
//! Every stochastic element of the simulation (arrival processes, service
//! times, interference jitter, noise events) draws from its own [`SimRng`]
//! stream derived from a single experiment seed. Splitting streams by label
//! keeps components statistically independent *and* insulates each stream
//! from changes elsewhere in the simulation: adding a draw to one component
//! does not perturb any other component's sequence.

/// A deterministic random stream.
///
/// The generator is xoshiro256++, its state seeded by SplitMix64
/// expansion of a `(seed, label)` pair.
///
/// # Examples
///
/// ```
/// use rhythm_sim::SimRng;
///
/// let mut a = SimRng::from_seed(42);
/// let mut b = SimRng::from_seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// let mut s1 = SimRng::from_seed(42).split("arrivals");
/// let mut s2 = SimRng::from_seed(42).split("service");
/// assert_ne!(s1.next_u64(), s2.next_u64());
/// ```
pub struct SimRng {
    seed: u64,
    s: [u64; 4],
}

/// SplitMix64 step: a high-quality 64-bit mixer used to derive stream seeds.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ must not start from the all-zero state; remap it to a
/// fixed SplitMix64 expansion.
fn nonzero_state(s: [u64; 4]) -> [u64; 4] {
    if s != [0; 4] {
        return s;
    }
    let mut state = 0x9E37_79B9_7F4A_7C15;
    [(); 4].map(|_| splitmix64(&mut state))
}

/// FNV-1a hash of a label string, used to key split streams.
fn fnv1a(label: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl SimRng {
    /// Creates a stream from a bare 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut state = seed;
        let s = [(); 4].map(|_| splitmix64(&mut state));
        SimRng {
            seed,
            s: nonzero_state(s),
        }
    }

    /// Derives an independent child stream keyed by `label`.
    ///
    /// Children of the same parent with distinct labels are independent;
    /// the same `(seed, label)` pair always yields the same stream.
    pub fn split(&self, label: &str) -> SimRng {
        SimRng::from_seed(self.seed ^ fnv1a(label).rotate_left(17))
    }

    /// Derives an independent child stream keyed by an index (e.g. a
    /// machine or component id).
    pub fn split_idx(&self, label: &str, idx: u64) -> SimRng {
        SimRng::from_seed(self.seed ^ fnv1a(label).rotate_left(17) ^ splitmix64(&mut idx.clone()))
    }

    /// The seed this stream was constructed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The next raw 64-bit output (one xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform sample in `[0, 1)`: 53 uniform mantissa bits.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform sample in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "intentional: Lemire's method compares the low 64 bits of the product"
    )]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "SimRng::below(0)");
        // Lemire's unbiased multiply-and-reject.
        let mut m = u128::from(self.next_u64()) * u128::from(n);
        if (m as u64) < n {
            let threshold = n.wrapping_neg() % n;
            while (m as u64) < threshold {
                m = u128::from(self.next_u64()) * u128::from(n);
            }
        }
        (m >> 64) as u64
    }

    /// A Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// A standard normal sample (Marsaglia polar method).
    pub fn standard_normal(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.uniform() - 1.0;
            let v = 2.0 * self.uniform() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

impl rhythm_snapshot::Snapshot for SimRng {
    fn encode(&self, w: &mut rhythm_snapshot::Writer) {
        let SimRng { seed, s } = *self;
        w.u64(seed);
        for word in s {
            w.u64(word);
        }
    }

    fn decode(r: &mut rhythm_snapshot::Reader<'_>) -> Result<Self, rhythm_snapshot::SnapshotError> {
        let seed = r.u64()?;
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = r.u64()?;
        }
        Ok(SimRng {
            seed,
            s: nonzero_state(s),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::from_seed(7);
        let mut b = SimRng::from_seed(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::from_seed(1);
        let mut b = SimRng::from_seed(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_is_deterministic_and_independent() {
        let root = SimRng::from_seed(99);
        let mut x1 = root.split("arrivals");
        let mut x2 = root.split("arrivals");
        assert_eq!(x1.next_u64(), x2.next_u64());
        let mut y = root.split("service");
        let mut x = root.split("arrivals");
        assert_ne!(x.next_u64(), y.next_u64());
    }

    #[test]
    fn split_idx_distinguishes_indices() {
        let root = SimRng::from_seed(5);
        let mut a = root.split_idx("machine", 0);
        let mut b = root.split_idx("machine", 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = SimRng::from_seed(3);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut rng = SimRng::from_seed(11);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = SimRng::from_seed(13);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = xs.iter().sum::<f64>() / f64::from(n);
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / f64::from(n);
        assert!(mean.abs() < 0.03, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::from_seed(17);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-5.0));
        assert!(rng.chance(5.0));
    }

    #[test]
    fn snapshot_resumes_mid_stream() {
        use rhythm_snapshot::{Reader, Snapshot, Writer};
        let mut rng = SimRng::from_seed(23);
        for _ in 0..1000 {
            rng.next_u64();
        }
        let mut w = Writer::new();
        rng.encode(&mut w);
        let bytes = w.into_bytes();
        let mut restored = SimRng::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(restored.seed(), rng.seed());
        for _ in 0..256 {
            assert_eq!(restored.next_u64(), rng.next_u64());
        }
        // Splitting the restored stream matches splitting the original.
        let mut sa = rng.split("tail");
        let mut sb = restored.split("tail");
        assert_eq!(sa.next_u64(), sb.next_u64());
    }

    /// Known-answer values recorded from the generator before it was
    /// inlined; every golden fixture depends on these streams.
    #[test]
    fn streams_match_known_answers() {
        fn first4(rng: &mut SimRng) -> [u64; 4] {
            [
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
            ]
        }
        let root = SimRng::from_seed(42);
        assert_eq!(
            first4(&mut SimRng::from_seed(42)),
            [
                0xD0764D4F4476689F,
                0x519E4174576F3791,
                0xFBE07CFB0C24ED8C,
                0xB37D9F600CD835B8
            ]
        );
        assert_eq!(
            first4(&mut root.split("arrivals")),
            [
                0x92D363F0EFFEE889,
                0x2588172215C4C7EE,
                0x6EC1BDC94D13E7F4,
                0x3D326CD1F500FC2A
            ]
        );
        assert_eq!(
            first4(&mut root.split_idx("machine", 3)),
            [
                0xA188001C45A7815D,
                0xC44D4780F3308E86,
                0xE91E82CB0DE85737,
                0xCD1DCED7BA883B23
            ]
        );
        let mut u = SimRng::from_seed(42);
        let bits: Vec<u64> = (0..4).map(|_| u.uniform().to_bits()).collect();
        assert_eq!(
            bits,
            [
                0x3FEA0EC9A9E88ECD,
                0x3FD467905D15DBCC,
                0x3FEF7C0F9F61849D,
                0x3FE66FB3EC019B06
            ]
        );
        let mut b = SimRng::from_seed(42);
        let small: Vec<u64> = (0..4).map(|_| b.below(7)).collect();
        assert_eq!(small, [5, 2, 6, 4]);
        // A span just above 2^63 rejects about half the draws (the first
        // one here), so this pins the rejection loop too.
        let mut b = SimRng::from_seed(42);
        let big: Vec<u64> = (0..4).map(|_| b.below((1 << 63) + 1)).collect();
        assert_eq!(
            big,
            [
                0x28CF20BA2BB79BC8,
                0x7DF03E7D861276C6,
                0x59BECFB0066C1ADC,
                0x4D74A703876C65A3
            ]
        );
    }

    #[test]
    fn all_zero_snapshot_state_is_remapped() {
        use rhythm_snapshot::{Reader, Snapshot};
        let mut rng = SimRng::decode(&mut Reader::new(&[0u8; 40])).unwrap();
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            [
                0x58F24F57E97E3F07,
                0x5F9A9D6F9A653406,
                0x6534EE33D1FD29D7,
                0x2E89656C364E9184
            ]
        );
    }

    #[test]
    fn below_bounds() {
        let mut rng = SimRng::from_seed(19);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
        assert_eq!(rng.below(1), 0);
    }
}
