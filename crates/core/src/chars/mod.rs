//! Characterization of MAC power and timing per weight value.
//!
//! * [`bins`] — partial-sum transition-space reduction (paper §III-A2).
//! * [`CharConfigError`] — shared validation errors for the power and
//!   timing configurations.
//! * [`power`] — average power per weight value from sampled realistic
//!   transitions (paper §III-A, Fig. 2).
//! * [`timing`] — per-weight dynamic timing of the multiplier composed
//!   with static timing of the adder (paper §III-B, Figs. 3 and 5).

pub mod bins;
mod blocks;
pub mod power;
pub mod timing;

pub use bins::PsumBinning;
pub use power::{
    characterize_power, characterize_power_scalar, characterize_power_unpruned,
    characterize_power_unpruned_with_threads, characterize_power_with_threads, strided_codes,
    PowerConfig, WeightPowerProfile,
};
pub use timing::{
    characterize_timing, characterize_timing_scalar, characterize_timing_with_threads,
    sta_bound_per_weight, TimingConfig, WeightTiming, WeightTimingProfile,
};

use gatesim::circuits::{
    AdderKind, BoothMultiplierCircuit, MacCircuit, MultiplierCircuit, MultiplierKind,
};
use gatesim::netlist::to_bits_into;
use gatesim::{CellLibrary, Netlist};
use std::error::Error;
use std::fmt;

/// A rejected characterization configuration.
///
/// Both [`PowerConfig`] and [`TimingConfig`] validate before any work
/// starts, so a zeroed field fails fast with a clear message instead of
/// a downstream panic (or, for `weight_stride`, a silently coerced
/// stride).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CharConfigError {
    /// The sample budget is zero, so no transition would ever be
    /// simulated and every energy/delay would be a 0/0 artifact.
    ZeroSamples,
    /// The weight stride is zero, which selects no codes to simulate.
    ZeroStride,
}

impl fmt::Display for CharConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CharConfigError::ZeroSamples => {
                write!(f, "samples per weight must be at least 1, got 0")
            }
            CharConfigError::ZeroStride => {
                write!(f, "weight_stride must be at least 1, got 0")
            }
        }
    }
}

impl Error for CharConfigError {}

/// The characterized hardware: a MAC unit netlist, the standalone
/// multiplier netlist (identical structure to the one embedded in the
/// MAC — both come from the same generator), and the cell library.
#[derive(Debug, Clone)]
pub struct MacHardware {
    mac: MacCircuit,
    mult_netlist: Netlist,
    lib: CellLibrary,
    weight_bits: usize,
    act_bits: usize,
    acc_bits: usize,
    multiplier: MultiplierKind,
}

impl MacHardware {
    /// Builds the paper's 8-bit MAC with a 22-bit accumulator under the
    /// default 15 nm-like library.
    #[must_use]
    pub fn paper_default() -> Self {
        MacHardware::new(8, 8, 22, CellLibrary::nangate15_like())
    }

    /// A reduced-width MAC for fast tests.
    #[must_use]
    pub fn small() -> Self {
        MacHardware::new(4, 4, 12, CellLibrary::nangate15_like())
    }

    /// Builds a MAC of arbitrary widths with the default multiplier.
    ///
    /// The default is the **Booth** multiplier: commercial synthesis
    /// (Synopsys DesignWare, as used by the paper) Booth-recodes
    /// multipliers, and only the Booth MAC reproduces the paper's Fig. 2
    /// shape where power tracks the weight *magnitude* on both signs
    /// (−2 cheap, −105 expensive). A plain partial-product array makes
    /// power track the two's complement *ones count* instead, which
    /// skews the cheap-value set asymmetric — see the
    /// `ablation_multiplier` bench.
    ///
    /// # Panics
    ///
    /// Panics on invalid widths (see [`MacCircuit::new`]).
    #[must_use]
    pub fn new(weight_bits: usize, act_bits: usize, acc_bits: usize, lib: CellLibrary) -> Self {
        MacHardware::with_multiplier(weight_bits, act_bits, acc_bits, lib, MultiplierKind::Booth)
    }

    /// Builds a MAC with an explicit multiplier micro-architecture
    /// (the hardware ablation of DESIGN.md §7).
    ///
    /// # Panics
    ///
    /// Panics on invalid widths (see [`MacCircuit::new`]).
    #[must_use]
    pub fn with_multiplier(
        weight_bits: usize,
        act_bits: usize,
        acc_bits: usize,
        lib: CellLibrary,
        multiplier: MultiplierKind,
    ) -> Self {
        let mult_netlist = match multiplier {
            MultiplierKind::BaughWooley => MultiplierCircuit::new(weight_bits, act_bits)
                .netlist()
                .clone(),
            MultiplierKind::Booth => BoothMultiplierCircuit::new(weight_bits, act_bits)
                .netlist()
                .clone(),
        };
        MacHardware {
            mac: MacCircuit::with_architecture(
                weight_bits,
                act_bits,
                acc_bits,
                AdderKind::Cla4,
                multiplier,
            ),
            mult_netlist,
            lib,
            weight_bits,
            act_bits,
            acc_bits,
            multiplier,
        }
    }

    /// The full MAC netlist wrapper.
    #[must_use]
    pub fn mac(&self) -> &MacCircuit {
        &self.mac
    }

    /// The standalone multiplier netlist (same structure as the one
    /// embedded in the MAC).
    #[must_use]
    pub fn mult_netlist(&self) -> &Netlist {
        &self.mult_netlist
    }

    /// The multiplier micro-architecture.
    #[must_use]
    pub fn multiplier_kind(&self) -> MultiplierKind {
        self.multiplier
    }

    /// Packs `(weight, activation)` into the standalone multiplier's
    /// input vector (weight bus then activation bus, LSB first).
    #[must_use]
    pub fn encode_mult(&self, weight: i64, act: u64) -> Vec<bool> {
        let mut v = Vec::with_capacity(self.weight_bits + self.act_bits);
        self.encode_mult_into(weight, act, &mut v);
        v
    }

    /// Packs `(weight, activation)` into a reused buffer — the
    /// allocation-free companion of [`MacHardware::encode_mult`] used by
    /// the bit-parallel timing characterization.
    pub fn encode_mult_into(&self, weight: i64, act: u64, out: &mut Vec<bool>) {
        out.clear();
        to_bits_into(weight, self.weight_bits, out);
        to_bits_into(act as i64, self.act_bits, out);
    }

    /// The cell library.
    #[must_use]
    pub fn lib(&self) -> &CellLibrary {
        &self.lib
    }

    /// Pin mask for [`gatesim::PrunePlan`] over the full MAC netlist:
    /// the weight bus held at `code`, activation and partial-sum inputs
    /// free. The MAC's input ports are weight, activation, partial sum
    /// (LSB first), so the mask covers the first `weight_bits` ports —
    /// exactly the bits [`MacCircuit::encode`] derives from the weight.
    #[must_use]
    pub fn mac_weight_pins(&self, code: i32) -> Vec<Option<bool>> {
        self.weight_pins(code, self.mac.netlist().inputs().len())
    }

    /// Pin mask for the standalone multiplier netlist: the weight bus
    /// held at `code`, the activation bus free (port layout per
    /// [`MacHardware::encode_mult`]).
    #[must_use]
    pub fn mult_weight_pins(&self, code: i32) -> Vec<Option<bool>> {
        self.weight_pins(code, self.mult_netlist.inputs().len())
    }

    fn weight_pins(&self, code: i32, input_count: usize) -> Vec<Option<bool>> {
        let mut bits = Vec::with_capacity(self.weight_bits);
        to_bits_into(code as i64, self.weight_bits, &mut bits);
        let mut pins = vec![None; input_count];
        for (pos, &bit) in bits.iter().enumerate() {
            pins[pos] = Some(bit);
        }
        pins
    }

    /// Weight operand width in bits.
    #[must_use]
    pub fn weight_bits(&self) -> usize {
        self.weight_bits
    }

    /// Activation operand width in bits.
    #[must_use]
    pub fn act_bits(&self) -> usize {
        self.act_bits
    }

    /// Accumulator width in bits.
    #[must_use]
    pub fn acc_bits(&self) -> usize {
        self.acc_bits
    }

    /// All representable weight codes: `-(2^(n-1)-1) ..= 2^(n-1)-1`
    /// (symmetric; 255 codes for 8 bits, matching TensorFlow-style
    /// symmetric int8).
    #[must_use]
    pub fn weight_codes(&self) -> Vec<i32> {
        let lim = (1i32 << (self.weight_bits - 1)) - 1;
        (-lim..=lim).collect()
    }

    /// Number of activation codes (`2^act_bits`).
    #[must_use]
    pub fn act_levels(&self) -> usize {
        1 << self.act_bits
    }
}
