//! Partial-sum transition-space reduction by bit-similarity binning.
//!
//! The 22-bit partial sum has ~1.8·10^13 possible transitions — far too
//! many to simulate or even to estimate a distribution from traces
//! (paper §III-A2). The paper's remedy, reproduced here: partition the
//! observed partial-sum values into a small number of bins (50 in the
//! experiments) such that values within a bin have similar bit
//! patterns, then model the transition distribution *between bins*.
//!
//! Binning follows the paper's procedure: a seed value is assigned to
//! each bin, then remaining values are iteratively assigned to the bin
//! with the smallest **average Hamming distance** to its current
//! members (tracked incrementally with per-bit population counters).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A partition of partial-sum values into bit-similarity bins, plus the
/// observed bin-to-bin transition distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PsumBinning {
    bits: usize,
    /// Members per bin (sorted).
    bins: Vec<Vec<i32>>,
    /// Bin transition counts: `counts[from * bins + to]`.
    counts: Vec<u64>,
    total: u64,
}

fn to_pattern(value: i32, bits: usize) -> u32 {
    (value as u32) & ((1u32 << bits) - 1)
}

/// Calls `f` with the index of every set bit of `p`, lowest first.
fn for_each_set_bit(mut p: u32, mut f: impl FnMut(usize)) {
    while p != 0 {
        f(p.trailing_zeros() as usize);
        p &= p - 1;
    }
}

/// The summed Hamming distance from pattern `p` to the `size` members
/// of a bin with per-bit one counts `ones` (summing to `ones_total`):
/// each member costs one per bit where it differs from `p`.
fn hamming_sum(ones: &[u64], ones_total: u64, size: u64, p: u32) -> u64 {
    // Set bits of `p` cost `size - ones[bit]`, clear bits `ones[bit]`:
    // Σ_set (size - ones) + (ones_total - Σ_set ones).
    let mut set_ones = 0u64;
    for_each_set_bit(p, |bit| set_ones += ones[bit]);
    u64::from(p.count_ones()) * size + ones_total - 2 * set_ones
}

impl PsumBinning {
    /// Builds a binning from sampled partial-sum transitions.
    ///
    /// `num_bins` is the target bin count (50 in the paper);
    /// `bits` is the accumulator width. Deterministic for a fixed seed.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or `num_bins` is zero.
    #[must_use]
    pub fn from_samples(samples: &[(i32, i32)], num_bins: usize, bits: usize, seed: u64) -> Self {
        assert!(!samples.is_empty(), "need partial-sum samples to bin");
        assert!(num_bins > 0, "need at least one bin");
        let mut rng = StdRng::seed_from_u64(seed);

        // Distinct observed values.
        let mut values: Vec<i32> = samples.iter().flat_map(|&(a, b)| [a, b]).collect();
        values.sort_unstable();
        values.dedup();
        let num_bins = num_bins.min(values.len());

        // Seed each bin with a random distinct value.
        let mut shuffled = values.clone();
        shuffled.shuffle(&mut rng);
        let mut bins: Vec<Vec<i32>> = shuffled[..num_bins].iter().map(|&v| vec![v]).collect();

        // Per-bin, per-bit population counters (and their sum) for
        // O(set bits) average Hamming distance queries.
        let mut ones: Vec<Vec<u64>> = vec![vec![0u64; bits]; num_bins];
        let mut ones_total: Vec<u64> = vec![0; num_bins];
        let mut sizes: Vec<u64> = vec![1; num_bins];
        let add = |ones: &mut [u64], total: &mut u64, p: u32| {
            for_each_set_bit(p, |bit| ones[bit] += 1);
            *total += u64::from(p.count_ones());
        };
        for (b, bin) in bins.iter().enumerate() {
            add(&mut ones[b], &mut ones_total[b], to_pattern(bin[0], bits));
        }

        for &v in &shuffled[num_bins..] {
            let p = to_pattern(v, bits);
            let mut best = 0usize;
            let mut best_cost = f64::INFINITY;
            for (b, o) in ones.iter().enumerate() {
                // The summed distance is an integer; dividing it once
                // gives the same f64 as summing per-bit terms in f64.
                let cost = hamming_sum(o, ones_total[b], sizes[b], p) as f64 / sizes[b] as f64;
                if cost < best_cost {
                    best_cost = cost;
                    best = b;
                }
            }
            bins[best].push(v);
            sizes[best] += 1;
            add(&mut ones[best], &mut ones_total[best], p);
        }

        // Every sampled value is one of `values`: look its bin up by
        // binary search instead of scanning the bins.
        let mut bin_of_value = vec![0usize; values.len()];
        for (b, members) in bins.iter_mut().enumerate() {
            members.sort_unstable();
            for v in members.iter() {
                bin_of_value[values.binary_search(v).expect("binned value observed")] = b;
            }
        }
        let home = |v: i32| bin_of_value[values.binary_search(&v).expect("sampled value binned")];
        let mut counts = vec![0; num_bins * num_bins];
        for &(from, to) in samples {
            counts[home(from) * num_bins + home(to)] += 1;
        }
        PsumBinning {
            bits,
            bins,
            counts,
            total: samples.len() as u64,
        }
    }

    /// Number of bins.
    #[must_use]
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// Members of a bin.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is out of range.
    #[must_use]
    pub fn members(&self, bin: usize) -> &[i32] {
        &self.bins[bin]
    }

    /// The bin a value belongs to: its home bin if it was observed,
    /// otherwise the bin with the nearest average bit pattern.
    #[must_use]
    pub fn bin_of(&self, value: i32) -> usize {
        // Exact membership first.
        for (i, b) in self.bins.iter().enumerate() {
            if b.binary_search(&value).is_ok() {
                return i;
            }
        }
        // Fall back to nearest representative (first member) by Hamming
        // distance.
        let p = to_pattern(value, self.bits);
        let mut best = 0;
        let mut best_d = u32::MAX;
        for (i, b) in self.bins.iter().enumerate() {
            let d = (to_pattern(b[0], self.bits) ^ p).count_ones();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    /// Probability of the bin transition `from → to`.
    #[must_use]
    pub fn transition_probability(&self, from: usize, to: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.counts[from * self.num_bins() + to] as f64 / self.total as f64
    }

    /// The raw bin-transition count matrix (`counts[from * bins + to]`).
    #[must_use]
    pub fn transition_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Draws `count` concrete partial-sum transitions: a bin pair
    /// according to the bin-transition distribution, then uniform
    /// members within each bin.
    ///
    /// # Panics
    ///
    /// Panics if no transitions were recorded.
    #[must_use]
    pub fn sample_transitions(&self, count: usize, rng: &mut StdRng) -> Vec<(i32, i32)> {
        assert!(self.total > 0, "no bin transitions recorded");
        let nb = self.num_bins();
        let mut cumulative: Vec<(u64, usize)> = Vec::new();
        let mut acc = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                acc += c;
                cumulative.push((acc, idx));
            }
        }
        (0..count)
            .map(|_| {
                let r = rng.random_range(0..acc);
                let pos = cumulative.partition_point(|&(cum, _)| cum <= r);
                let idx = cumulative[pos.min(cumulative.len() - 1)].1;
                let (bf, bt) = (idx / nb, idx % nb);
                let from = self.bins[bf][rng.random_range(0..self.bins[bf].len())];
                let to = self.bins[bt][rng.random_range(0..self.bins[bt].len())];
                (from, to)
            })
            .collect()
    }

    /// Serializes the binning bit-exactly for the charstore container.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        use charstore::wire;
        wire::put_usize(out, self.bits);
        wire::put_usize(out, self.bins.len());
        for bin in &self.bins {
            wire::put_usize(out, bin.len());
            for &v in bin {
                wire::put_i32(out, v);
            }
        }
        wire::put_usize(out, self.counts.len());
        for &c in &self.counts {
            wire::put_u64(out, c);
        }
        wire::put_u64(out, self.total);
    }

    /// Deserializes a binning written by [`PsumBinning::write_to`].
    ///
    /// # Errors
    ///
    /// `InvalidData` on truncation, an implausible bin/count length, or
    /// a count matrix that is not `bins × bins`.
    pub fn read_from(r: &mut charstore::wire::Reader<'_>) -> std::io::Result<Self> {
        use charstore::wire;
        let bits = r.u64()? as usize;
        if bits > 32 {
            return Err(wire::invalid(format!("implausible bit width {bits}")));
        }
        let num_bins = r.bounded_len(8)?;
        let mut bins = Vec::with_capacity(num_bins);
        for _ in 0..num_bins {
            let len = r.bounded_len(4)?;
            let mut bin = Vec::with_capacity(len);
            for _ in 0..len {
                bin.push(r.i32()?);
            }
            bins.push(bin);
        }
        let counts_len = r.bounded_len(8)?;
        if counts_len != num_bins * num_bins {
            return Err(wire::invalid(format!(
                "count matrix has {counts_len} entries for {num_bins} bins"
            )));
        }
        let mut counts = Vec::with_capacity(counts_len);
        for _ in 0..counts_len {
            counts.push(r.u64()?);
        }
        Ok(PsumBinning {
            bits,
            bins,
            counts,
            total: r.u64()?,
        })
    }

    /// Checks the partition invariant: every observed value is in
    /// exactly one bin.
    #[must_use]
    pub fn is_partition(&self) -> bool {
        let mut all: Vec<i32> = self.bins.iter().flatten().copied().collect();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        before == all.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data() -> Vec<(i32, i32)> {
        let mut x: u64 = 99;
        (0..2000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let a = ((x & 0x3fffff) as i64 - (1 << 21)) as i32;
                let b = (((x >> 22) & 0x3fffff) as i64 - (1 << 21)) as i32;
                (a, b)
            })
            .collect()
    }

    /// The straightforward binning: per-bit `f64` cost sums and a
    /// `bin_of` scan per sampled value. `from_samples` must match it
    /// exactly.
    fn reference_from_samples(
        samples: &[(i32, i32)],
        num_bins: usize,
        bits: usize,
        seed: u64,
    ) -> PsumBinning {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut values: Vec<i32> = samples.iter().flat_map(|&(a, b)| [a, b]).collect();
        values.sort_unstable();
        values.dedup();
        let num_bins = num_bins.min(values.len());
        let mut shuffled = values.clone();
        shuffled.shuffle(&mut rng);
        let mut bins: Vec<Vec<i32>> = shuffled[..num_bins].iter().map(|&v| vec![v]).collect();
        let mut ones: Vec<Vec<u64>> = bins
            .iter()
            .map(|b| {
                let p = to_pattern(b[0], bits);
                (0..bits).map(|bit| u64::from((p >> bit) & 1)).collect()
            })
            .collect();
        let mut sizes: Vec<u64> = vec![1; num_bins];
        for &v in &shuffled[num_bins..] {
            let p = to_pattern(v, bits);
            let mut best = 0usize;
            let mut best_cost = f64::INFINITY;
            for (b, o) in ones.iter().enumerate() {
                let mut cost = 0.0;
                for (bit, &count) in o.iter().enumerate() {
                    cost += if (p >> bit) & 1 == 1 {
                        (sizes[b] - count) as f64
                    } else {
                        count as f64
                    };
                }
                cost /= sizes[b] as f64;
                if cost < best_cost {
                    best_cost = cost;
                    best = b;
                }
            }
            bins[best].push(v);
            sizes[best] += 1;
            for (bit, slot) in ones[best].iter_mut().enumerate() {
                *slot += u64::from((p >> bit) & 1);
            }
        }
        for b in &mut bins {
            b.sort_unstable();
        }
        let mut binning = PsumBinning {
            bits,
            bins,
            counts: vec![0; num_bins * num_bins],
            total: 0,
        };
        for &(from, to) in samples {
            let (bf, bt) = (binning.bin_of(from), binning.bin_of(to));
            binning.counts[bf * num_bins + bt] += 1;
            binning.total += 1;
        }
        binning
    }

    /// Random transitions drawn from a pool of `distinct` values, so
    /// values repeat and bin pairs collect real counts.
    fn random_samples(n: usize, distinct: usize, seed: u64) -> Vec<(i32, i32)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool: Vec<i32> = (0..distinct)
            .map(|_| rng.random_range(-(1 << 21)..(1 << 21)))
            .collect();
        (0..n)
            .map(|_| {
                (
                    pool[rng.random_range(0..distinct)],
                    pool[rng.random_range(0..distinct)],
                )
            })
            .collect()
    }

    #[test]
    fn fast_binning_matches_the_reference() {
        for (n, distinct, num_bins, seed) in [
            (2000, 300, 50, 1),
            (5000, 4000, 50, 2),
            (800, 40, 10, 3),
            (300, 7, 50, 4),
        ] {
            let samples = random_samples(n, distinct, seed);
            let fast = PsumBinning::from_samples(&samples, num_bins, 22, seed);
            let reference = reference_from_samples(&samples, num_bins, 22, seed);
            assert_eq!(fast, reference, "n={n} distinct={distinct} bins={num_bins}");
        }
        let samples = sample_data();
        assert_eq!(
            PsumBinning::from_samples(&samples, 50, 22, 1),
            reference_from_samples(&samples, 50, 22, 1)
        );
    }

    #[test]
    fn transition_counts_match_a_bin_of_recount() {
        let samples = random_samples(4000, 500, 11);
        let binning = PsumBinning::from_samples(&samples, 50, 22, 12);
        let nb = binning.num_bins();
        let mut recount = vec![0u64; nb * nb];
        for &(from, to) in &samples {
            recount[binning.bin_of(from) * nb + binning.bin_of(to)] += 1;
        }
        assert_eq!(binning.transition_counts(), recount.as_slice());
        assert_eq!(recount.iter().sum::<u64>(), samples.len() as u64);
    }

    #[test]
    fn integer_hamming_sum_matches_per_bit_sum() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..200 {
            let size = rng.random_range(1..1000u64);
            let ones: Vec<u64> = (0..22).map(|_| rng.random_range(0..=size)).collect();
            let total = ones.iter().sum();
            let p = to_pattern(rng.random_range(-(1 << 21)..(1 << 21)), 22);
            let per_bit: u64 = (0..22)
                .map(|bit| {
                    if (p >> bit) & 1 == 1 {
                        size - ones[bit]
                    } else {
                        ones[bit]
                    }
                })
                .sum();
            assert_eq!(hamming_sum(&ones, total, size, p), per_bit);
        }
    }

    #[test]
    fn binning_is_a_partition() {
        let binning = PsumBinning::from_samples(&sample_data(), 50, 22, 1);
        assert!(binning.is_partition());
        assert_eq!(binning.num_bins(), 50);
    }

    #[test]
    fn every_observed_value_maps_to_its_bin() {
        let samples = sample_data();
        let binning = PsumBinning::from_samples(&samples, 20, 22, 2);
        for &(a, _) in samples.iter().take(100) {
            let bin = binning.bin_of(a);
            assert!(binning.members(bin).binary_search(&a).is_ok());
        }
    }

    #[test]
    fn transition_probabilities_sum_to_one() {
        let binning = PsumBinning::from_samples(&sample_data(), 10, 22, 3);
        let total: f64 = (0..10)
            .flat_map(|f| (0..10).map(move |t| (f, t)))
            .map(|(f, t)| binning.transition_probability(f, t))
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_returns_observed_values() {
        let samples = sample_data();
        let binning = PsumBinning::from_samples(&samples, 10, 22, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let draws = binning.sample_transitions(50, &mut rng);
        assert_eq!(draws.len(), 50);
        let mut observed: Vec<i32> = samples.iter().flat_map(|&(a, b)| [a, b]).collect();
        observed.sort_unstable();
        for (a, b) in draws {
            assert!(observed.binary_search(&a).is_ok());
            assert!(observed.binary_search(&b).is_ok());
        }
    }

    #[test]
    fn binning_is_deterministic_per_seed() {
        let samples = sample_data();
        let a = PsumBinning::from_samples(&samples, 10, 22, 7);
        let b = PsumBinning::from_samples(&samples, 10, 22, 7);
        for i in 0..10 {
            assert_eq!(a.members(i), b.members(i));
        }
    }

    #[test]
    fn similar_values_tend_to_share_bins() {
        // Values with nearly identical bit patterns should mostly land
        // together: craft clusters around two very different patterns.
        let mut samples = Vec::new();
        for i in 0..200 {
            let base1 = 0b10_1010_1010_1010_1010_1010_i64 as i32;
            let base2 = 0b01_0101_0101_0101_0101_0101_i64 as i32;
            samples.push((base1 ^ (i & 3), base2 ^ ((i >> 2) & 3)));
        }
        let binning = PsumBinning::from_samples(&samples, 2, 22, 9);
        // The two clusters should dominate different bins.
        let b1 = binning.bin_of(samples[0].0);
        let b2 = binning.bin_of(samples[0].1);
        assert_ne!(b1, b2, "clusters should separate");
    }

    #[test]
    #[should_panic(expected = "need partial-sum samples")]
    fn empty_samples_rejected() {
        let _ = PsumBinning::from_samples(&[], 10, 22, 0);
    }

    #[test]
    fn more_bins_than_values_is_clamped() {
        let samples = vec![(1, 2), (2, 3)];
        let binning = PsumBinning::from_samples(&samples, 50, 22, 0);
        assert!(binning.num_bins() <= 3);
        assert!(binning.is_partition());
    }
}
