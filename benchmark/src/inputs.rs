//! Seeded input generation. Everything the program under test is given —
//! keys, operation kinds, per-worker RNG streams, the arrival schedule — is
//! a pure function of `--seed`, and its digest is printed with every result
//! so two runs can be shown to have had the same inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over a stream of words: the `input_digest`.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The RNG of stream `lane` (a worker, or a generator) under `seed`. Lanes
/// of one seed and equal lanes of different seeds are all distinct streams.
pub fn lane_rng(seed: u64, lane: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(lane.wrapping_mul(0xd1b5_4a32_d192_ed03)),
    )
}

/// One red-black-tree operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeOp {
    Get(u64),
    Insert(u64),
    Remove(u64),
}

/// Operations per worker ring. Workers cycle through their ring; 65536
/// packed operations are 256 KiB per thread and stream through the cache.
pub const RING_LEN: usize = 1 << 16;

const KIND_SHIFT: u32 = 30;
const KEY_MASK: u32 = (1 << KIND_SHIFT) - 1;

/// A worker's pre-generated operation stream, packed as `kind << 30 | key`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeOps(Vec<u32>);

impl TreeOps {
    /// The same draw order as `RbTreeWorkload::step`: a uniform key, then a
    /// permille roll deciding lookup versus update, its parity deciding
    /// insert versus remove.
    pub fn generate(seed: u64, lane: u64, key_range: u64, update_permille: u32) -> TreeOps {
        assert!(
            key_range > 0 && key_range <= u64::from(KEY_MASK),
            "key range must fit 30 bits"
        );
        let mut rng = lane_rng(seed, lane);
        let ops = (0..RING_LEN)
            .map(|_| {
                let key = rng.random_range(0..key_range) as u32;
                let roll: u32 = rng.random_range(0..1000);
                let kind = if roll >= update_permille {
                    0
                } else if roll % 2 == 0 {
                    1
                } else {
                    2
                };
                kind << KIND_SHIFT | key
            })
            .collect();
        TreeOps(ops)
    }

    #[inline]
    pub fn get(&self, i: u64) -> TreeOp {
        let packed = self.0[i as usize & (RING_LEN - 1)];
        let key = u64::from(packed & KEY_MASK);
        match packed >> KIND_SHIFT {
            0 => TreeOp::Get(key),
            1 => TreeOp::Insert(key),
            _ => TreeOp::Remove(key),
        }
    }

    pub fn digest_into(&self, digest: &mut Digest) {
        for &op in &self.0 {
            digest.push(u64::from(op));
        }
    }
}

/// Digests the head of an RNG stream handed to the program under test
/// (STMBench7 draws its operations from the worker's RNG itself).
pub fn digest_rng_head(rng: &StdRng, digest: &mut Digest) {
    let mut head = rng.clone();
    for _ in 0..64 {
        digest.push(head.random::<u64>());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_digest(seed: u64) -> String {
        let mut d = Digest::default();
        for lane in 0..2 {
            TreeOps::generate(seed, lane, 16384, 200).digest_into(&mut d);
        }
        d.hex()
    }

    #[test]
    fn same_seed_same_digest_different_seed_different_digest() {
        assert_eq!(tree_digest(1), tree_digest(1));
        assert_ne!(tree_digest(1), tree_digest(2));
        let mut a = Digest::default();
        let mut b = Digest::default();
        digest_rng_head(&lane_rng(7, 0), &mut a);
        digest_rng_head(&lane_rng(7, 1), &mut b);
        assert_ne!(a.hex(), b.hex(), "lanes of one seed are distinct streams");
    }

    #[test]
    fn op_mix_follows_the_update_share() {
        let ops = TreeOps::generate(3, 0, 16384, 200);
        let mut counts = [0usize; 3];
        for i in 0..RING_LEN as u64 {
            match ops.get(i) {
                TreeOp::Get(k) => {
                    assert!(k < 16384);
                    counts[0] += 1;
                }
                TreeOp::Insert(_) => counts[1] += 1,
                TreeOp::Remove(_) => counts[2] += 1,
            }
        }
        let share = |n: usize| n as f64 / RING_LEN as f64;
        assert!((share(counts[0]) - 0.8).abs() < 0.02);
        assert!((share(counts[1]) - 0.1).abs() < 0.01);
        assert!((share(counts[2]) - 0.1).abs() < 0.01);
        assert_eq!(ops.get(5), ops.get(5 + RING_LEN as u64), "the ring cycles");
        let all_updates = TreeOps::generate(3, 0, 64, 1000);
        assert!((0..1000).all(|i| !matches!(all_updates.get(i), TreeOp::Get(_))));
    }
}
