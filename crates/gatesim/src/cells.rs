//! Standard-cell library model.
//!
//! Each combinational cell kind carries a propagation delay (ps), a
//! switching energy charged per *output* toggle (fJ) and a static leakage
//! power (nW). The default library, [`CellLibrary::nangate15_like`], is
//! calibrated so that the complete 8×8 MAC unit of
//! [`crate::circuits::MacCircuit`] has a critical path close to the
//! ~180 ps the paper reports after synthesis with the NanGate 15 nm
//! library, and per-MAC average power lands in the same hundreds-of-µW
//! range at 5 GHz.

use std::fmt;

/// The kinds of combinational cells supported by the simulator.
///
/// The set intentionally mirrors the workhorse cells of a standard-cell
/// library: inverter/buffer, 2-input NAND/NOR/AND/OR/XOR/XNOR, a 2:1 mux
/// and 3-input AOI/OAI compound gates commonly produced by synthesis for
/// adder carry logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellKind {
    /// Logic inverter, 1 input.
    Inv,
    /// Non-inverting buffer, 1 input.
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 2:1 multiplexer; inputs are `(a, b, sel)`, output `sel ? b : a`.
    Mux2,
    /// AND-OR-invert: `!((a & b) | c)`.
    Aoi21,
    /// OR-AND-invert: `!((a | b) & c)`.
    Oai21,
    /// 3-input majority gate (carry logic): `ab | ac | bc`.
    Maj3,
    /// 3-input XOR (sum logic).
    Xor3,
}

impl CellKind {
    /// Number of input pins of this cell kind.
    #[must_use]
    pub fn arity(self) -> usize {
        match self {
            CellKind::Inv | CellKind::Buf => 1,
            CellKind::Nand2
            | CellKind::Nor2
            | CellKind::And2
            | CellKind::Or2
            | CellKind::Xor2
            | CellKind::Xnor2 => 2,
            CellKind::Mux2
            | CellKind::Aoi21
            | CellKind::Oai21
            | CellKind::Maj3
            | CellKind::Xor3 => 3,
        }
    }

    /// Evaluates the cell's boolean function.
    ///
    /// Unused trailing inputs are ignored. For example an [`CellKind::Inv`]
    /// only reads `a`.
    #[must_use]
    pub fn eval(self, a: bool, b: bool, c: bool) -> bool {
        match self {
            CellKind::Inv => !a,
            CellKind::Buf => a,
            CellKind::Nand2 => !(a && b),
            CellKind::Nor2 => !(a || b),
            CellKind::And2 => a && b,
            CellKind::Or2 => a || b,
            CellKind::Xor2 => a ^ b,
            CellKind::Xnor2 => !(a ^ b),
            CellKind::Mux2 => {
                if c {
                    b
                } else {
                    a
                }
            }
            CellKind::Aoi21 => !((a && b) || c),
            CellKind::Oai21 => !((a || b) && c),
            CellKind::Maj3 => (a && (b || c)) || (b && c),
            CellKind::Xor3 => a ^ b ^ c,
        }
    }

    /// The cell's boolean function as an 8-entry truth table: bit
    /// `a | b << 1 | c << 2` holds `eval(a, b, c)`.
    ///
    /// This is the representation the simulation engines compile gates
    /// to — [`crate::Simulator`] indexes it one minterm at a time, while
    /// [`crate::BitSim`] expands it into word-wide boolean formulas.
    #[must_use]
    pub fn truth_table(self) -> u8 {
        let mut tt = 0u8;
        for idx in 0..8u8 {
            if self.eval(idx & 1 != 0, idx & 2 != 0, idx & 4 != 0) {
                tt |= 1 << idx;
            }
        }
        tt
    }

    /// All cell kinds, in a stable order.
    #[must_use]
    pub fn all() -> &'static [CellKind] {
        &[
            CellKind::Inv,
            CellKind::Buf,
            CellKind::Nand2,
            CellKind::Nor2,
            CellKind::And2,
            CellKind::Or2,
            CellKind::Xor2,
            CellKind::Xnor2,
            CellKind::Mux2,
            CellKind::Aoi21,
            CellKind::Oai21,
            CellKind::Maj3,
            CellKind::Xor3,
        ]
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CellKind::Inv => "INV",
            CellKind::Buf => "BUF",
            CellKind::Nand2 => "NAND2",
            CellKind::Nor2 => "NOR2",
            CellKind::And2 => "AND2",
            CellKind::Or2 => "OR2",
            CellKind::Xor2 => "XOR2",
            CellKind::Xnor2 => "XNOR2",
            CellKind::Mux2 => "MUX2",
            CellKind::Aoi21 => "AOI21",
            CellKind::Oai21 => "OAI21",
            CellKind::Maj3 => "MAJ3",
            CellKind::Xor3 => "XOR3",
        };
        f.write_str(name)
    }
}

/// Electrical parameters of one cell kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellParams {
    /// Propagation delay from any input to the output, in picoseconds.
    pub delay_ps: f64,
    /// Energy charged per output transition, in femtojoules.
    pub energy_fj: f64,
    /// Static leakage power, in nanowatts.
    pub leakage_nw: f64,
}

/// A complete cell library: parameters for every [`CellKind`].
///
/// # Examples
///
/// ```
/// use gatesim::{CellKind, CellLibrary};
///
/// let lib = CellLibrary::nangate15_like();
/// assert!(lib.params(CellKind::Xor2).delay_ps > lib.params(CellKind::Inv).delay_ps);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CellLibrary {
    params: [CellParams; 13],
}

/// Largest legal `delay_ps`: the femtosecond representation
/// (`delay_ps * 1000`, rounded) must fit the engines' `u32` delay
/// fields without truncation.
const MAX_DELAY_PS: f64 = u32::MAX as f64 / 1000.0;

/// Panics unless `delay_ps` is finite, non-negative and within the
/// engines' femtosecond range. Every constructor and mutator of
/// [`CellLibrary`] funnels through this, so a library in hand always
/// holds simulatable delays.
fn validate_delay_ps(delay_ps: f64) {
    assert!(
        delay_ps.is_finite() && delay_ps >= 0.0,
        "cell delay must be finite and non-negative, got {delay_ps} ps"
    );
    assert!(
        delay_ps <= MAX_DELAY_PS,
        "cell delay {delay_ps} ps overflows the femtosecond range (max {MAX_DELAY_PS} ps)"
    );
}

impl CellLibrary {
    /// A library with uniform parameters — useful in tests.
    ///
    /// # Panics
    ///
    /// Panics if `delay_ps` is NaN, infinite, negative, or too large
    /// for the engines' femtosecond representation.
    #[must_use]
    pub fn uniform(delay_ps: f64, energy_fj: f64, leakage_nw: f64) -> Self {
        validate_delay_ps(delay_ps);
        CellLibrary {
            params: [CellParams {
                delay_ps,
                energy_fj,
                leakage_nw,
            }; 13],
        }
    }

    /// The default library, loosely calibrated against published NanGate
    /// 15 nm figures so that the 8×8 MAC critical path is ~180 ps and MAC
    /// power at 5 GHz is in the hundreds of µW, matching the magnitudes
    /// of the paper's Figures 2–3.
    #[must_use]
    pub fn nangate15_like() -> Self {
        let mut lib = CellLibrary::uniform(1.0, 0.1, 1.0);
        // Delays are calibrated so the complete 8×8/22-bit MAC unit of
        // `circuits::MacCircuit` synthesizes to a ~180 ps critical path
        // (the paper's post-synthesis value at NanGate 15 nm, 5 GHz);
        // energies so that per-weight MAC power lands in the same
        // 400–1500 µW band as the paper's Fig. 2.
        let entries = [
            (CellKind::Inv, 2.3, 0.09, 0.9),
            (CellKind::Buf, 3.4, 0.13, 1.1),
            (CellKind::Nand2, 3.6, 0.16, 1.3),
            (CellKind::Nor2, 4.1, 0.17, 1.3),
            (CellKind::And2, 4.9, 0.20, 1.6),
            (CellKind::Or2, 4.9, 0.20, 1.6),
            (CellKind::Xor2, 6.1, 0.31, 2.2),
            (CellKind::Xnor2, 6.1, 0.31, 2.2),
            (CellKind::Mux2, 6.6, 0.29, 2.4),
            (CellKind::Aoi21, 4.5, 0.21, 1.8),
            (CellKind::Oai21, 4.5, 0.21, 1.8),
            (CellKind::Maj3, 5.8, 0.28, 2.6),
            (CellKind::Xor3, 8.7, 0.48, 3.4),
        ];
        for (kind, delay_ps, energy_fj, leakage_nw) in entries {
            lib.set(
                kind,
                CellParams {
                    delay_ps,
                    energy_fj,
                    leakage_nw,
                },
            );
        }
        lib
    }

    /// Parameters of a cell kind.
    #[must_use]
    pub fn params(&self, kind: CellKind) -> CellParams {
        self.params[Self::index(kind)]
    }

    /// Overrides the parameters of a cell kind.
    ///
    /// # Panics
    ///
    /// Panics if `params.delay_ps` is NaN, infinite, negative, or too
    /// large for the engines' femtosecond representation.
    pub fn set(&mut self, kind: CellKind, params: CellParams) {
        validate_delay_ps(params.delay_ps);
        self.params[Self::index(kind)] = params;
    }

    /// Returns a copy of this library with every delay scaled by `factor`.
    ///
    /// Used by the voltage-scaling model: lowering VDD slows every cell by
    /// the same first-order factor.
    ///
    /// # Panics
    ///
    /// Panics if any scaled delay leaves the legal range (e.g. a NaN,
    /// negative or overflow-inducing `factor`).
    #[must_use]
    pub fn with_delay_scaled(&self, factor: f64) -> Self {
        let mut out = self.clone();
        for p in &mut out.params {
            p.delay_ps *= factor;
            validate_delay_ps(p.delay_ps);
        }
        out
    }

    fn index(kind: CellKind) -> usize {
        match kind {
            CellKind::Inv => 0,
            CellKind::Buf => 1,
            CellKind::Nand2 => 2,
            CellKind::Nor2 => 3,
            CellKind::And2 => 4,
            CellKind::Or2 => 5,
            CellKind::Xor2 => 6,
            CellKind::Xnor2 => 7,
            CellKind::Mux2 => 8,
            CellKind::Aoi21 => 9,
            CellKind::Oai21 => 10,
            CellKind::Maj3 => 11,
            CellKind::Xor3 => 12,
        }
    }
}

impl Default for CellLibrary {
    fn default() -> Self {
        CellLibrary::nangate15_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_eval_usage() {
        for &kind in CellKind::all() {
            assert!((1..=3).contains(&kind.arity()), "{kind} arity out of range");
        }
    }

    #[test]
    fn inv_truth_table() {
        assert!(CellKind::Inv.eval(false, false, false));
        assert!(!CellKind::Inv.eval(true, false, false));
    }

    #[test]
    fn nand_truth_table() {
        assert!(CellKind::Nand2.eval(false, false, false));
        assert!(CellKind::Nand2.eval(true, false, false));
        assert!(CellKind::Nand2.eval(false, true, false));
        assert!(!CellKind::Nand2.eval(true, true, false));
    }

    #[test]
    fn xor3_is_parity() {
        for bits in 0..8u8 {
            let a = bits & 1 != 0;
            let b = bits & 2 != 0;
            let c = bits & 4 != 0;
            assert_eq!(CellKind::Xor3.eval(a, b, c), a ^ b ^ c);
        }
    }

    #[test]
    fn maj3_is_majority() {
        for bits in 0..8u8 {
            let a = bits & 1 != 0;
            let b = bits & 2 != 0;
            let c = bits & 4 != 0;
            let expected = (a as u8 + b as u8 + c as u8) >= 2;
            assert_eq!(CellKind::Maj3.eval(a, b, c), expected);
        }
    }

    #[test]
    fn mux_selects() {
        assert!(!CellKind::Mux2.eval(false, true, false));
        assert!(CellKind::Mux2.eval(false, true, true));
    }

    #[test]
    fn aoi_oai_truth_tables() {
        for bits in 0..8u8 {
            let a = bits & 1 != 0;
            let b = bits & 2 != 0;
            let c = bits & 4 != 0;
            assert_eq!(CellKind::Aoi21.eval(a, b, c), !((a && b) || c));
            assert_eq!(CellKind::Oai21.eval(a, b, c), !((a || b) && c));
        }
    }

    #[test]
    fn truth_table_matches_eval_for_every_kind() {
        for &kind in CellKind::all() {
            let tt = kind.truth_table();
            for idx in 0..8u8 {
                let (a, b, c) = (idx & 1 != 0, idx & 2 != 0, idx & 4 != 0);
                assert_eq!(
                    tt >> idx & 1 == 1,
                    kind.eval(a, b, c),
                    "{kind} minterm {idx}"
                );
            }
        }
    }

    #[test]
    fn default_library_is_nangate_like() {
        assert_eq!(CellLibrary::default(), CellLibrary::nangate15_like());
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn uniform_rejects_negative_delay() {
        let _ = CellLibrary::uniform(-1.0, 0.1, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn uniform_rejects_nan_delay() {
        let _ = CellLibrary::uniform(f64::NAN, 0.1, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn set_rejects_infinite_delay() {
        let mut lib = CellLibrary::nangate15_like();
        lib.set(
            CellKind::Inv,
            CellParams {
                delay_ps: f64::INFINITY,
                energy_fj: 0.1,
                leakage_nw: 1.0,
            },
        );
    }

    #[test]
    #[should_panic(expected = "overflows the femtosecond range")]
    fn set_rejects_delay_beyond_fs_range() {
        let mut lib = CellLibrary::nangate15_like();
        lib.set(
            CellKind::Inv,
            CellParams {
                delay_ps: 5.0e6, // 5e9 fs > u32::MAX
                energy_fj: 0.1,
                leakage_nw: 1.0,
            },
        );
    }

    #[test]
    #[should_panic(expected = "overflows the femtosecond range")]
    fn scaling_rejects_overflowing_factor() {
        let _ = CellLibrary::nangate15_like().with_delay_scaled(1.0e9);
    }

    #[test]
    fn zero_delay_is_legal() {
        let lib = CellLibrary::uniform(0.0, 0.1, 1.0);
        assert_eq!(lib.params(CellKind::Inv).delay_ps, 0.0);
    }

    #[test]
    fn delay_scaling_scales_all_cells() {
        let lib = CellLibrary::nangate15_like();
        let slow = lib.with_delay_scaled(2.0);
        for &kind in CellKind::all() {
            let base = lib.params(kind);
            let scaled = slow.params(kind);
            assert!((scaled.delay_ps - 2.0 * base.delay_ps).abs() < 1e-12);
            assert_eq!(scaled.energy_fj, base.energy_fj);
        }
    }
}
