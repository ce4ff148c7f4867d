//! Radix-4 Booth-encoded signed multiplier.
//!
//! An alternative multiplier micro-architecture to the Baugh-Wooley
//! array of [`crate::circuits::multiplier`]: the weight operand is
//! Booth-encoded into ⌈(n+1)/2⌉ digits in {−2,−1,0,+1,+2}, halving the
//! partial-product count. Because the recoding changes *which* weight
//! values cause switching (e.g. runs of ones become cheap), it is the
//! natural hardware ablation for PowerPruning: the per-weight power
//! ranking is architecture-dependent, and the method re-derives it from
//! characterization instead of assuming it.
//!
//! The generated netlist computes signed(weight) × unsigned(activation)
//! like [`crate::circuits::MultiplierCircuit`], with the same port
//! order, so the two are drop-in interchangeable.

use crate::builder::NetlistBuilder;
use crate::netlist::{from_bits_signed, to_bits_into, NetId, Netlist};

/// Emits one Booth partial product row for digit `i` (weight bits
/// `w[2i-1], w[2i], w[2i+1]`), returning the row bits (LSB first, width
/// `m + 2`) *before* shifting, plus the "negate" signal used for the
/// two's complement correction (+1 at the row's LSB position).
fn booth_row(
    b: &mut NetlistBuilder,
    w_minus: NetId, // w[2i-1] (const0 for i = 0)
    w_mid: NetId,   // w[2i]
    w_plus: NetId,  // w[2i+1] (sign-extended for the top digit)
    act: &[NetId],  // multiplicand, zero-extended unsigned
) -> (Vec<NetId>, NetId) {
    let m = act.len();
    // Digit decoding:
    //   single = w_minus XOR w_mid        (digit is ±1)
    //   double = (w_minus == w_mid) AND (w_plus != w_mid) (digit is ±2)
    //   neg    = w_plus                   (digit sign)
    let single = b.xor2(w_minus, w_mid);
    let eq_lo = b.xnor2(w_minus, w_mid);
    let ne_hi = b.xor2(w_plus, w_mid);
    let double = b.and2(eq_lo, ne_hi);
    let neg = w_plus;

    // Row value before negation: single ? A : (double ? 2A : 0), built
    // bitwise: bit j = (single & a_j) | (double & a_{j-1}).
    let zero = b.const0();
    let mut row = Vec::with_capacity(m + 2);
    for j in 0..m + 2 {
        let a_j = if j < m { act[j] } else { zero };
        let a_jm1 = if j >= 1 && j - 1 < m {
            act[j - 1]
        } else {
            zero
        };
        let s_term = b.and2(single, a_j);
        let d_term = b.and2(double, a_jm1);
        let val = b.or2(s_term, d_term);
        // Conditional inversion for negative digits (two's complement
        // completed by adding `neg` at the row LSB).
        let bit = b.xor2(val, neg);
        row.push(bit);
    }
    (row, neg)
}

/// Emits a radix-4 Booth multiplier for signed `w_bits` × unsigned
/// `a_bits`; returns the product bus (`w_bits + a_bits + 1` bits, two's
/// complement).
///
/// # Panics
///
/// Panics if either operand is narrower than 2 bits.
pub fn booth_multiplier(
    b: &mut NetlistBuilder,
    w_bits: &[NetId],
    a_unsigned: &[NetId],
) -> Vec<NetId> {
    assert!(
        w_bits.len() >= 2 && a_unsigned.len() >= 2,
        "operands must be >= 2 bits"
    );
    let n = w_bits.len();
    let m = a_unsigned.len();
    let width = n + m + 1;
    let zero = b.const0();
    let sign = *w_bits.last().expect("non-empty weight");

    let digits = n.div_ceil(2);
    let mut columns: Vec<Vec<NetId>> = vec![Vec::new(); width];

    for i in 0..digits {
        let idx = |k: isize| -> NetId {
            if k < 0 {
                zero
            } else if (k as usize) < n {
                w_bits[k as usize]
            } else {
                sign // sign extension of the weight
            }
        };
        let w_minus = idx(2 * i as isize - 1);
        let w_mid = idx(2 * i as isize);
        let w_plus = idx(2 * i as isize + 1);
        let (row, neg) = booth_row(b, w_minus, w_mid, w_plus, a_unsigned);
        let shift = 2 * i;
        // Row bits (sign-extended to the top of the product).
        let row_sign = *row.last().expect("non-empty row");
        for pos in shift..width {
            let j = pos - shift;
            let bit = if j < row.len() { row[j] } else { row_sign };
            columns[pos].push(bit);
        }
        // +1 correction at the row LSB for negative digits.
        if shift < width {
            columns[shift].push(neg);
        }
    }

    super::multiplier::reduce_columns_public(b, columns)
}

/// A standalone Booth multiplier netlist, drop-in compatible with
/// [`crate::circuits::MultiplierCircuit`].
///
/// # Examples
///
/// ```
/// use gatesim::circuits::booth::BoothMultiplierCircuit;
///
/// let mult = BoothMultiplierCircuit::new(8, 8);
/// assert_eq!(mult.compute(-105, 213), -105 * 213);
/// ```
#[derive(Debug, Clone)]
pub struct BoothMultiplierCircuit {
    netlist: Netlist,
    weight_bits: usize,
    act_bits: usize,
}

impl BoothMultiplierCircuit {
    /// Builds a Booth multiplier for `weight_bits`-bit signed weights ×
    /// `act_bits`-bit unsigned activations.
    ///
    /// # Panics
    ///
    /// Panics if either width is below 2.
    #[must_use]
    pub fn new(weight_bits: usize, act_bits: usize) -> Self {
        assert!(
            weight_bits >= 2 && act_bits >= 2,
            "operand widths must be >= 2"
        );
        let mut b = NetlistBuilder::new(format!("booth_mult_{weight_bits}x{act_bits}"));
        let w = b.input_bus("w", weight_bits);
        let a = b.input_bus("a", act_bits);
        let product = booth_multiplier(&mut b, &w, &a);
        for p in &product {
            b.output(*p);
        }
        BoothMultiplierCircuit {
            netlist: b.finish(),
            weight_bits,
            act_bits,
        }
    }

    /// The underlying netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Width of the signed weight operand.
    #[must_use]
    pub fn weight_bits(&self) -> usize {
        self.weight_bits
    }

    /// Width of the unsigned activation operand.
    #[must_use]
    pub fn act_bits(&self) -> usize {
        self.act_bits
    }

    /// Packs `(weight, activation)` into the input vector.
    #[must_use]
    pub fn encode(&self, weight: i64, act: u64) -> Vec<bool> {
        let mut v = Vec::with_capacity(self.weight_bits + self.act_bits);
        self.encode_into(weight, act, &mut v);
        v
    }

    /// Packs `(weight, activation)` into a reused buffer — the
    /// allocation-free companion of [`BoothMultiplierCircuit::encode`] used
    /// by the characterization loops.
    pub fn encode_into(&self, weight: i64, act: u64, out: &mut Vec<bool>) {
        out.clear();
        to_bits_into(weight, self.weight_bits, out);
        to_bits_into(act as i64, self.act_bits, out);
    }

    /// Evaluates the multiplier functionally.
    #[must_use]
    pub fn compute(&self, weight: i64, act: u64) -> i64 {
        let out = self.netlist.evaluate_outputs(&self.encode(weight, act));
        from_bits_signed(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn booth_4x4_exhaustive() {
        let mult = BoothMultiplierCircuit::new(4, 4);
        for w in -8i64..8 {
            for a in 0u64..16 {
                assert_eq!(mult.compute(w, a), w * a as i64, "failed {w}*{a}");
            }
        }
    }

    #[test]
    fn booth_5x3_exhaustive_odd_widths() {
        let mult = BoothMultiplierCircuit::new(5, 3);
        for w in -16i64..16 {
            for a in 0u64..8 {
                assert_eq!(mult.compute(w, a), w * a as i64, "failed {w}*{a}");
            }
        }
    }

    #[test]
    fn booth_8x8_sampled() {
        let mult = BoothMultiplierCircuit::new(8, 8);
        let mut x: u64 = 0xabcdef;
        for _ in 0..600 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let w = ((x & 0xff) as i64) - 128;
            let a = (x >> 8) & 0xff;
            assert_eq!(mult.compute(w, a), w * a as i64, "failed {w}*{a}");
        }
    }

    #[test]
    fn booth_8x8_extremes() {
        let mult = BoothMultiplierCircuit::new(8, 8);
        for w in [-128i64, -127, -105, -1, 0, 1, 64, 127] {
            for a in [0u64, 1, 127, 128, 255] {
                assert_eq!(mult.compute(w, a), w * a as i64, "failed {w}*{a}");
            }
        }
    }

    #[test]
    fn booth_has_fewer_partial_product_rows_than_array() {
        use crate::circuits::MultiplierCircuit;
        let booth = BoothMultiplierCircuit::new(8, 8);
        let array = MultiplierCircuit::new(8, 8);
        // Booth halves the rows; with the row-select logic the total
        // gate count should still come out smaller or comparable.
        assert!(
            booth.netlist().gate_count() < array.netlist().gate_count() * 3 / 2,
            "booth {} vs array {}",
            booth.netlist().gate_count(),
            array.netlist().gate_count()
        );
    }
}
