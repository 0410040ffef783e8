//! The benchmark's own seeded randomness.
//!
//! Request streams, the CSV and the corpus come from here rather than
//! from `cogsdk_sim::rng`, so a change to the program's RNG can never
//! change the benchmark's inputs.

/// SplitMix64: tiny, fast, and every seed gives a full-period stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent generator for element `index` of stream `stream`
    /// under `seed`: element `i` of a request stream is a pure function of
    /// `(seed, stream, i)`, so clients can pull indices in any order.
    pub fn at(seed: u64, stream: u64, index: u64) -> Rng {
        let mut r = Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.0 ^= index.wrapping_mul(0xA076_1D64_78BD_642F);
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (multiply-shift; `n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Zipf over ranks `0..n` with exponent `s`: `P(k) ∝ 1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precomputes the cumulative distribution.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        let cdf = (0..n)
            .map(|k| {
                total += 1.0 / ((k + 1) as f64).powf(s);
                total
            })
            .collect::<Vec<_>>();
        Zipf {
            cdf: cdf.into_iter().map(|c| c / total).collect(),
        }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}
