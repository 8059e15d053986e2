//! Seeded input generation. Every input a workload diagnoses is a pure
//! function of `--seed`, so two runs with the same seed feed the program
//! bit-identical syndromes and timelines.

use mmdiag::syndrome::TesterBehavior;
use mmdiag::topology::NodeId;

/// SplitMix64: a tiny, well-mixed, dependency-free generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of a run: the same
    /// `(seed, stream)` pair always yields the same sequence, and
    /// different streams of one seed do not overlap in practice.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5EED))))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `count` distinct nodes of `0..n`, ascending — a planted fault set.
pub fn scatter(n: usize, count: usize, rng: &mut Rng) -> Vec<NodeId> {
    assert!(count <= n, "cannot plant {count} faults among {n} nodes");
    let mut picked = Vec::with_capacity(count);
    while picked.len() < count {
        let v = rng.below(n);
        if !picked.contains(&v) {
            picked.push(v);
        }
    }
    picked.sort_unstable();
    picked
}

/// The tester behaviour of the `index`-th syndrome of an instance:
/// AllZero on even indices, seeded Random on odd ones, so every list is
/// an even mix of the two.
pub fn behavior(index: usize, rng: &mut Rng) -> TesterBehavior {
    if index % 2 == 0 {
        TesterBehavior::AllZero
    } else {
        TesterBehavior::Random {
            seed: rng.next_u64(),
        }
    }
}

/// A fixed sample of `count` nodes of `0..n` (with repeats allowed), for
/// the per-layer micro-measurements.
pub fn node_sample(n: usize, count: usize, rng: &mut Rng) -> Vec<NodeId> {
    (0..count).map(|_| rng.below(n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = scatter(1000, 10, &mut Rng::new(7, 1));
        let b = scatter(1000, 10, &mut Rng::new(7, 1));
        let c = scatter(1000, 10, &mut Rng::new(8, 1));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }
}
