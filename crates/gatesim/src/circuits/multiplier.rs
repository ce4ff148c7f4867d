//! Baugh-Wooley signed array multiplier.
//!
//! The partial-product array uses the Baugh-Wooley two's complement
//! formulation: for A (n bits, signed) × B (m bits, signed), product
//! width W = n+m,
//!
//! ```text
//! P =   Σ_{i<n-1, j<m-1} AND(a_i, b_j)  · 2^(i+j)
//!     + Σ_{j<m-1}        NAND(a_{n-1}, b_j) · 2^(j+n-1)
//!     + Σ_{i<n-1}        NAND(a_i, b_{m-1}) · 2^(i+m-1)
//!     + AND(a_{n-1}, b_{m-1}) · 2^(n+m-2)
//!     + 2^(n-1) + 2^(m-1) + 2^(n+m-1)                (mod 2^W)
//! ```
//!
//! The array is reduced with carry-save full/half adder stages and a
//! final ripple stage, the classic array-multiplier structure whose
//! value-dependent glitching is exactly what PowerPruning exploits.
//!
//! The MAC variant multiplies a **signed** weight by an **unsigned**
//! activation (TensorFlow-style int8 weights × uint8 activations); this
//! is realized by zero-extending the activation to m+1 signed bits.

use crate::builder::NetlistBuilder;
use crate::netlist::{from_bits_signed, to_bits_into, NetId, Netlist};

/// Emits the Baugh-Wooley partial-product columns for signed `a` ×
/// signed `b` into `columns[pos]` lists (LSB-first positions).
fn baugh_wooley_columns(
    b: &mut NetlistBuilder,
    a_bits: &[NetId],
    b_bits: &[NetId],
) -> Vec<Vec<NetId>> {
    let n = a_bits.len();
    let m = b_bits.len();
    let width = n + m;
    let mut columns: Vec<Vec<NetId>> = vec![Vec::new(); width];
    for (i, &ai) in a_bits.iter().enumerate() {
        for (j, &bj) in b_bits.iter().enumerate() {
            let sign_row = i == n - 1;
            let sign_col = j == m - 1;
            let pp = if sign_row ^ sign_col {
                b.nand2(ai, bj)
            } else {
                b.and2(ai, bj)
            };
            columns[i + j].push(pp);
        }
    }
    // Correction constants: +2^(n-1) + 2^(m-1) + 2^(n+m-1).
    let one = b.const1();
    columns[n - 1].push(one);
    columns[m - 1].push(one);
    columns[width - 1].push(one);
    columns
}

/// Carry-save reduction shared with the Booth multiplier.
pub(crate) fn reduce_columns_public(
    b: &mut NetlistBuilder,
    columns: Vec<Vec<NetId>>,
) -> Vec<NetId> {
    reduce_columns(b, columns)
}

/// Carry-save reduction of arbitrary column populations down to two rows,
/// then a final ripple-carry combine. Result wraps modulo 2^width.
fn reduce_columns(b: &mut NetlistBuilder, mut columns: Vec<Vec<NetId>>) -> Vec<NetId> {
    let width = columns.len();
    while columns.iter().any(|c| c.len() > 2) {
        let mut next: Vec<Vec<NetId>> = vec![Vec::new(); width];
        for pos in 0..width {
            let col = std::mem::take(&mut columns[pos]);
            let mut idx = 0;
            while col.len() - idx >= 3 {
                let (s, c) = b.full_adder(col[idx], col[idx + 1], col[idx + 2]);
                next[pos].push(s);
                if pos + 1 < width {
                    next[pos + 1].push(c);
                }
                idx += 3;
            }
            if col.len() - idx == 2 && col.len() > 2 {
                // Compress stragglers of a tall column with a half adder
                // so progress is guaranteed.
                let (s, c) = b.half_adder(col[idx], col[idx + 1]);
                next[pos].push(s);
                if pos + 1 < width {
                    next[pos + 1].push(c);
                }
            } else {
                for &leftover in &col[idx..] {
                    next[pos].push(leftover);
                }
            }
        }
        columns = next;
    }
    // Final carry-propagate stage over the remaining (≤2)-entry columns.
    let zero = b.const0();
    let mut sums = Vec::with_capacity(width);
    let mut carry = zero;
    for col in columns.iter().take(width) {
        let x = *col.first().unwrap_or(&zero);
        let y = *col.get(1).unwrap_or(&zero);
        let (s, c) = b.full_adder(x, y, carry);
        sums.push(s);
        carry = c;
    }
    sums
}

/// Emits a full signed×signed Baugh-Wooley multiplier; returns the
/// product bus (n+m bits, two's complement).
pub fn signed_multiplier(b: &mut NetlistBuilder, a_bits: &[NetId], b_bits: &[NetId]) -> Vec<NetId> {
    assert!(
        a_bits.len() >= 2 && b_bits.len() >= 2,
        "multiplier operands must be at least 2 bits"
    );
    let columns = baugh_wooley_columns(b, a_bits, b_bits);
    reduce_columns(b, columns)
}

/// Emits a signed×unsigned multiplier (weight × activation) by
/// zero-extending the unsigned operand; returns the product bus
/// (`a.len() + b.len() + 1` bits, two's complement).
pub fn signed_unsigned_multiplier(
    b: &mut NetlistBuilder,
    a_bits: &[NetId],
    b_unsigned: &[NetId],
) -> Vec<NetId> {
    let zero = b.const0();
    let mut b_ext = b_unsigned.to_vec();
    b_ext.push(zero);
    signed_multiplier(b, a_bits, &b_ext)
}

/// A standalone multiplier netlist for a **signed** weight times an
/// **unsigned** activation, the MAC operand types of the paper.
///
/// Input port order is weight bus then activation bus, both LSB first.
///
/// # Examples
///
/// ```
/// use gatesim::circuits::MultiplierCircuit;
///
/// let mult = MultiplierCircuit::new(8, 8);
/// assert_eq!(mult.compute(-105, 213), -105 * 213);
/// assert_eq!(mult.compute(64, 255), 64 * 255);
/// ```
#[derive(Debug, Clone)]
pub struct MultiplierCircuit {
    netlist: Netlist,
    weight_bits: usize,
    act_bits: usize,
}

impl MultiplierCircuit {
    /// Builds a multiplier for `weight_bits`-bit signed weights times
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
        let mut b = NetlistBuilder::new(format!("bw_mult_{weight_bits}x{act_bits}"));
        let w = b.input_bus("w", weight_bits);
        let a = b.input_bus("a", act_bits);
        let product = signed_unsigned_multiplier(&mut b, &w, &a);
        for p in &product {
            b.output(*p);
        }
        MultiplierCircuit {
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

    /// Width of the product bus.
    #[must_use]
    pub fn product_bits(&self) -> usize {
        self.weight_bits + self.act_bits + 1
    }

    /// Packs `(weight, activation)` into the netlist's input vector.
    #[must_use]
    pub fn encode(&self, weight: i64, act: u64) -> Vec<bool> {
        let mut v = Vec::with_capacity(self.weight_bits + self.act_bits);
        self.encode_into(weight, act, &mut v);
        v
    }

    /// Packs `(weight, activation)` into a reused buffer — the
    /// allocation-free companion of [`MultiplierCircuit::encode`] used
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
    use crate::netlist::{from_bits_signed, to_bits};

    #[test]
    fn signed_signed_4x4_exhaustive() {
        let mut b = NetlistBuilder::new("bw4x4");
        let x = b.input_bus("x", 4);
        let y = b.input_bus("y", 4);
        let p = signed_multiplier(&mut b, &x, &y);
        for net in &p {
            b.output(*net);
        }
        let nl = b.finish();
        for a in -8i64..8 {
            for c in -8i64..8 {
                let mut inputs = to_bits(a, 4);
                inputs.extend(to_bits(c, 4));
                let out = nl.evaluate_outputs(&inputs);
                assert_eq!(from_bits_signed(&out), a * c, "failed {a}*{c}");
            }
        }
    }

    #[test]
    fn signed_signed_asymmetric_3x5_exhaustive() {
        let mut b = NetlistBuilder::new("bw3x5");
        let x = b.input_bus("x", 3);
        let y = b.input_bus("y", 5);
        let p = signed_multiplier(&mut b, &x, &y);
        for net in &p {
            b.output(*net);
        }
        let nl = b.finish();
        for a in -4i64..4 {
            for c in -16i64..16 {
                let mut inputs = to_bits(a, 3);
                inputs.extend(to_bits(c, 5));
                let out = nl.evaluate_outputs(&inputs);
                assert_eq!(from_bits_signed(&out), a * c, "failed {a}*{c}");
            }
        }
    }

    #[test]
    fn signed_unsigned_4x4_exhaustive() {
        let mult = MultiplierCircuit::new(4, 4);
        for w in -8i64..8 {
            for a in 0u64..16 {
                assert_eq!(mult.compute(w, a), w * a as i64, "failed {w}*{a}");
            }
        }
    }

    #[test]
    fn full_8x8_sampled() {
        let mult = MultiplierCircuit::new(8, 8);
        let mut x: u64 = 0xdeadbeef;
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let w = ((x & 0xff) as i64) - 128;
            let a = (x >> 8) & 0xff;
            assert_eq!(mult.compute(w, a), w * a as i64, "failed {w}*{a}");
        }
    }

    #[test]
    fn full_8x8_extremes() {
        let mult = MultiplierCircuit::new(8, 8);
        for w in [-128i64, -127, -105, -2, -1, 0, 1, 2, 64, 127] {
            for a in [0u64, 1, 2, 127, 128, 254, 255] {
                assert_eq!(mult.compute(w, a), w * a as i64, "failed {w}*{a}");
            }
        }
    }

    #[test]
    fn gate_count_is_plausible_for_an_array_multiplier() {
        let mult = MultiplierCircuit::new(8, 8);
        let gates = mult.netlist().gate_count();
        assert!(
            (150..3000).contains(&gates),
            "unexpected gate count {gates}"
        );
    }
}
