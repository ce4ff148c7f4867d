//! The 64-lane block loop shared by power and timing characterization.
//!
//! Both characterizations simulate one weight code's stimulus stream on
//! a [`BitSim`], 64 stimuli per block. A lane's results depend only on
//! that lane's own `(from, to)` stimulus (the per-lane equivalence
//! argument of [`gatesim::bitsim`]), so which lane or block a stimulus
//! lands in cannot change its result. [`run_clustered`] uses that
//! freedom: it packs the stimuli in an order that puts samples with
//! the same activation transition into the same block. Lanes whose
//! stimuli drive identical input edges schedule identical gate events
//! at identical times, and the engine merges those into one word event
//! instead of one per lane. Results are scattered back per sample index, so
//! callers fold them in sample order and stay bit-identical to the
//! scalar references.

use gatesim::{BitSim, BitTransitionView};

/// Reusable buffers of [`run_clustered`], one set per worker thread.
#[derive(Debug, Default)]
pub(crate) struct BlockScratch {
    order: Vec<u32>,
    from_bits: Vec<bool>,
    to_bits: Vec<bool>,
    from_words: Vec<u64>,
    to_words: Vec<u64>,
}

/// The cluster key of sample `index`, whose bus makes the transition
/// `from → to`: the toggled bits, then the start value, then the index,
/// packed into one `u64` so the sort compares plain integers instead of
/// recomputing keys. Stimuli with equal toggled bits and start value
/// apply identical input edges; stimuli with equal toggled bits at least
/// edge the same input nets. The toggled bits sort by their rank in the
/// reflected Gray sequence, so neighbouring groups differ in one toggled
/// bit and a block spanning two groups still shares most edges.
fn cluster_key(from: u32, to: u32, index: u32) -> u64 {
    assert!(from | to < 1 << 16, "clustered bus wider than 16 bits");
    let mut rank = from ^ to;
    let mut shift = rank >> 1;
    while shift != 0 {
        rank ^= shift;
        shift >>= 1;
    }
    u64::from(rank) << 48 | u64::from(from) << 32 | u64::from(index)
}

/// Fills `order` with the sample indices `0 .. count` sorted by the
/// [`cluster_key`] of each sample's clustered bus transition
/// `transition(i)`, ties kept in index order (a stable permutation).
///
/// # Panics
///
/// Panics if a transition value does not fit in 16 bits.
pub(crate) fn cluster_order(
    count: usize,
    transition: impl Fn(usize) -> (u32, u32),
    order: &mut Vec<u32>,
) {
    let mut keys: Vec<u64> = (0..count as u32)
        .map(|i| {
            let (from, to) = transition(i as usize);
            cluster_key(from, to, i)
        })
        .collect();
    keys.sort_unstable();
    order.clear();
    order.extend(keys.iter().map(|&key| key as u32));
}

/// Simulates `count` stimuli on `sim` in blocks of up to 64 lanes,
/// packed in [`cluster_order`] by `transition`.
///
/// `encode(sample, from, to)` writes the `from` and `to` input vectors
/// of one sample; `scatter(view, lane, sample)` reads one lane's
/// results right after its block's transition. The final partial block
/// relies on the engine's tail masking.
pub(crate) fn run_clustered(
    sim: &mut BitSim<'_>,
    scratch: &mut BlockScratch,
    count: usize,
    transition: impl Fn(usize) -> (u32, u32),
    mut encode: impl FnMut(usize, &mut Vec<bool>, &mut Vec<bool>),
    mut scatter: impl FnMut(&BitTransitionView<'_>, usize, usize),
) {
    let BlockScratch {
        order,
        from_bits,
        to_bits,
        from_words,
        to_words,
    } = scratch;
    let inputs = sim.netlist().inputs().len();
    from_words.resize(inputs, 0);
    to_words.resize(inputs, 0);
    cluster_order(count, transition, order);
    for block in order.chunks(64) {
        from_words.fill(0);
        to_words.fill(0);
        for (lane, &sample) in block.iter().enumerate() {
            encode(sample as usize, from_bits, to_bits);
            for (word, &bit) in from_words.iter_mut().zip(from_bits.iter()) {
                *word |= u64::from(bit) << lane;
            }
            for (word, &bit) in to_words.iter_mut().zip(to_bits.iter()) {
                *word |= u64::from(bit) << lane;
            }
        }
        sim.settle(from_words, block.len());
        let view = sim.transition(to_words);
        for (lane, &sample) in block.iter().enumerate() {
            scatter(&view, lane, sample as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn cluster_order_is_a_stable_sort_by_gray_rank_then_start() {
        let gray_rank = |mut g: u32| {
            let mut shift = g >> 1;
            while shift != 0 {
                g ^= shift;
                shift >>= 1;
            }
            g
        };
        let mut rng = StdRng::seed_from_u64(7);
        for (count, levels) in [(0, 4), (1, 4), (300, 4), (5000, 256), (700, 1 << 16)] {
            let pairs: Vec<(u32, u32)> = (0..count)
                .map(|_| (rng.random_range(0..levels), rng.random_range(0..levels)))
                .collect();
            let mut order = Vec::new();
            cluster_order(count, |i| pairs[i], &mut order);
            let mut expected: Vec<u32> = (0..count as u32).collect();
            expected.sort_by_key(|&i| {
                let (from, to) = pairs[i as usize];
                (gray_rank(from ^ to), from)
            });
            assert_eq!(order, expected, "{count} samples over {levels} levels");
        }
    }
}
