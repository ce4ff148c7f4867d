//! Combinational netlist representation.
//!
//! A [`Netlist`] is a DAG of [`Gate`]s over numbered nets. Gates are
//! stored in topological order by construction (the builder only lets a
//! gate reference nets that already exist), which makes combinational
//! evaluation, event-driven simulation and static timing analysis simple
//! linear passes.

use crate::cells::{CellKind, CellLibrary};
use std::fmt;

/// Identifier of a net (a wire) in a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// The raw index of this net.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a gate instance in a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// The raw index of this gate.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// One gate instance: a cell kind, up to three input nets and one output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate {
    /// The standard cell implementing this gate.
    pub kind: CellKind,
    /// Input nets; only the first [`CellKind::arity`] entries are used,
    /// the rest alias the first input.
    pub inputs: [NetId; 3],
    /// Output net, driven exclusively by this gate.
    pub output: NetId,
}

impl Gate {
    /// The input nets actually read by this gate.
    #[must_use]
    pub fn active_inputs(&self) -> &[NetId] {
        &self.inputs[..self.kind.arity()]
    }
}

/// How a net originates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetSource {
    /// Primary input; its value is supplied by the testbench.
    Input,
    /// Tied to constant logic 0.
    Const0,
    /// Tied to constant logic 1.
    Const1,
    /// Driven by the gate with this id.
    Gate(GateId),
}

/// A topologically ordered combinational netlist.
///
/// Create one through [`crate::NetlistBuilder`] or the circuit generators
/// in [`crate::circuits`].
#[derive(Debug, Clone)]
pub struct Netlist {
    pub(crate) gates: Vec<Gate>,
    pub(crate) sources: Vec<NetSource>,
    pub(crate) inputs: Vec<NetId>,
    pub(crate) outputs: Vec<NetId>,
    /// Fanout in compressed-sparse-row form: the gates reading net `n`
    /// are `fanout_edges[fanout_offsets[n] .. fanout_offsets[n + 1]]`.
    /// One contiguous allocation instead of a `Vec<GateId>` per net
    /// keeps the event-propagation hot loop on one cache stream.
    pub(crate) fanout_offsets: Vec<u32>,
    pub(crate) fanout_edges: Vec<GateId>,
    pub(crate) name: String,
}

impl Netlist {
    /// Human-readable netlist name (e.g. `"bw_mult_8x9"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All gates, in topological order.
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Primary input nets, in port order.
    #[must_use]
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary output nets, in port order.
    #[must_use]
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Total number of nets (inputs, constants and gate outputs).
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.sources.len()
    }

    /// Total number of gate instances.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// All net ids, `0 .. net_count()` — inputs, constants and gate
    /// outputs alike. Handy for exhaustive per-net property checks
    /// (external code cannot construct a [`NetId`] directly).
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> {
        (0..self.net_count() as u32).map(NetId)
    }

    /// Source of a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` does not belong to this netlist.
    #[must_use]
    pub fn source(&self, net: NetId) -> NetSource {
        self.sources[net.index()]
    }

    /// Sources of all nets, indexed by net id.
    #[must_use]
    pub fn sources(&self) -> &[NetSource] {
        &self.sources
    }

    /// Gates that read `net`.
    #[must_use]
    pub fn fanout(&self, net: NetId) -> &[GateId] {
        let start = self.fanout_offsets[net.index()] as usize;
        let end = self.fanout_offsets[net.index() + 1] as usize;
        &self.fanout_edges[start..end]
    }

    /// Total number of net → gate fanout edges.
    #[must_use]
    pub fn fanout_edge_count(&self) -> usize {
        self.fanout_edges.len()
    }

    /// Number of instances of each cell kind, in [`CellKind::all`] order.
    #[must_use]
    pub fn cell_histogram(&self) -> Vec<(CellKind, usize)> {
        CellKind::all()
            .iter()
            .map(|&kind| (kind, self.gates.iter().filter(|g| g.kind == kind).count()))
            .collect()
    }

    /// Total static leakage of the netlist under `lib`, in nanowatts.
    #[must_use]
    pub fn leakage_nw(&self, lib: &CellLibrary) -> f64 {
        self.gates
            .iter()
            .map(|g| lib.params(g.kind).leakage_nw)
            .sum()
    }

    /// A stable 128-bit digest of the netlist *structure*: a
    /// deterministic walk over net sources, gates (cell kind plus
    /// active input/output net ids) and the primary input/output port
    /// lists. Two netlists built the same way digest identically;
    /// changing a single gate, connection or port changes the digest.
    ///
    /// The human-readable [`Netlist::name`] is deliberately excluded —
    /// the digest commits to what the circuit *is*, not what it is
    /// called — so renaming a generator cannot fork the artifact cache,
    /// and two structurally identical circuits share cached
    /// characterizations. Gates are hashed in their (canonical,
    /// builder-assigned) topological order.
    #[must_use]
    pub fn structural_digest(&self) -> charstore::Digest128 {
        let mut h = charstore::Hasher128::new("gatesim.netlist.v1");
        h.write_usize(self.sources.len());
        for src in &self.sources {
            h.write_u8(match src {
                NetSource::Input => 0,
                NetSource::Const0 => 1,
                NetSource::Const1 => 2,
                NetSource::Gate(_) => 3,
            });
            // The driving gate id is implied by gate order; hashing the
            // tag alone keeps source and gate walks independent.
        }
        h.write_usize(self.gates.len());
        for gate in &self.gates {
            h.write_u8(gate.kind as u8);
            for net in gate.active_inputs() {
                h.write_u32(net.0);
            }
            h.write_u32(gate.output.0);
        }
        h.write_usize(self.inputs.len());
        for net in &self.inputs {
            h.write_u32(net.0);
        }
        h.write_usize(self.outputs.len());
        for net in &self.outputs {
            h.write_u32(net.0);
        }
        h.finalize()
    }

    /// Evaluates the netlist combinationally for the given input values.
    ///
    /// Returns the value of every net. This is the zero-delay functional
    /// model; use [`crate::Simulator`] for timed simulation.
    ///
    /// # Panics
    ///
    /// Panics if `input_values.len()` differs from the number of primary
    /// inputs.
    #[must_use]
    pub fn evaluate(&self, input_values: &[bool]) -> Vec<bool> {
        assert_eq!(
            input_values.len(),
            self.inputs.len(),
            "input vector length mismatch"
        );
        let mut values = vec![false; self.net_count()];
        for (net, &v) in self.inputs.iter().zip(input_values) {
            values[net.index()] = v;
        }
        for (idx, src) in self.sources.iter().enumerate() {
            match src {
                NetSource::Const0 => values[idx] = false,
                NetSource::Const1 => values[idx] = true,
                _ => {}
            }
        }
        for gate in &self.gates {
            let a = values[gate.inputs[0].index()];
            let b = values[gate.inputs[1].index()];
            let c = values[gate.inputs[2].index()];
            values[gate.output.index()] = gate.kind.eval(a, b, c);
        }
        values
    }

    /// Evaluates the netlist and returns only the primary output values.
    ///
    /// # Panics
    ///
    /// Panics if `input_values.len()` differs from the number of primary
    /// inputs.
    #[must_use]
    pub fn evaluate_outputs(&self, input_values: &[bool]) -> Vec<bool> {
        let values = self.evaluate(input_values);
        self.outputs.iter().map(|n| values[n.index()]).collect()
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "netlist `{}`: {} gates, {} nets, {} inputs, {} outputs",
            self.name,
            self.gate_count(),
            self.net_count(),
            self.inputs.len(),
            self.outputs.len()
        )
    }
}

/// Packs an integer into a little-endian bit vector of the given width.
///
/// The value is truncated to `width` bits (two's complement semantics for
/// negative values).
///
/// # Examples
///
/// ```
/// use gatesim::netlist::to_bits;
///
/// assert_eq!(to_bits(5, 4), vec![true, false, true, false]);
/// assert_eq!(to_bits(-1, 3), vec![true, true, true]);
/// ```
#[must_use]
pub fn to_bits(value: i64, width: usize) -> Vec<bool> {
    (0..width).map(|i| (value >> i) & 1 == 1).collect()
}

/// Appends the little-endian bits of `value` to `out` — the
/// allocation-free companion of [`to_bits`] used by the
/// simulation hot paths.
pub fn to_bits_into(value: i64, width: usize, out: &mut Vec<bool>) {
    out.extend((0..width).map(|i| (value >> i) & 1 == 1));
}

/// Interprets a little-endian bit slice as an unsigned integer.
///
/// # Examples
///
/// ```
/// use gatesim::netlist::{from_bits_unsigned, to_bits};
///
/// assert_eq!(from_bits_unsigned(&to_bits(200, 8)), 200);
/// ```
#[must_use]
pub fn from_bits_unsigned(bits: &[bool]) -> u64 {
    bits.iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i))
}

/// Interprets a little-endian bit slice as a two's complement integer.
///
/// # Examples
///
/// ```
/// use gatesim::netlist::{from_bits_signed, to_bits};
///
/// assert_eq!(from_bits_signed(&to_bits(-105, 8)), -105);
/// ```
#[must_use]
pub fn from_bits_signed(bits: &[bool]) -> i64 {
    let raw = from_bits_unsigned(bits);
    let width = bits.len();
    if width == 0 || width >= 64 {
        return raw as i64;
    }
    let sign = 1u64 << (width - 1);
    if raw & sign != 0 {
        (raw as i64) - (1i64 << width)
    } else {
        raw as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    fn tiny_netlist() -> Netlist {
        // out = (a NAND b) XOR c
        let mut b = NetlistBuilder::new("tiny");
        let a = b.input("a");
        let bb = b.input("b");
        let c = b.input("c");
        let n = b.nand2(a, bb);
        let o = b.xor2(n, c);
        b.output(o);
        b.finish()
    }

    #[test]
    fn evaluate_matches_boolean_function() {
        let nl = tiny_netlist();
        for bits in 0..8u8 {
            let a = bits & 1 != 0;
            let b = bits & 2 != 0;
            let c = bits & 4 != 0;
            let out = nl.evaluate_outputs(&[a, b, c]);
            assert_eq!(out, vec![!(a && b) ^ c]);
        }
    }

    #[test]
    fn display_reports_counts() {
        let nl = tiny_netlist();
        let text = nl.to_string();
        assert!(text.contains("tiny"));
        assert!(text.contains("2 gates"));
    }

    #[test]
    fn cell_histogram_counts_gates() {
        let nl = tiny_netlist();
        let hist = nl.cell_histogram();
        let nand = hist.iter().find(|(k, _)| *k == CellKind::Nand2).unwrap();
        assert_eq!(nand.1, 1);
    }

    #[test]
    fn leakage_is_additive() {
        let nl = tiny_netlist();
        let lib = CellLibrary::uniform(1.0, 1.0, 3.0);
        assert!((nl.leakage_nw(&lib) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn bit_round_trips() {
        for v in -128..=127i64 {
            assert_eq!(from_bits_signed(&to_bits(v, 8)), v);
        }
        for v in 0..=255i64 {
            assert_eq!(from_bits_unsigned(&to_bits(v, 8)) as i64, v);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn evaluate_rejects_bad_input_length() {
        let nl = tiny_netlist();
        let _ = nl.evaluate(&[true]);
    }

    #[test]
    fn structural_digest_is_stable_across_builds() {
        assert_eq!(
            tiny_netlist().structural_digest(),
            tiny_netlist().structural_digest()
        );
    }

    #[test]
    fn structural_digest_ignores_the_name() {
        let mut b = NetlistBuilder::new("other-name");
        let a = b.input("a");
        let bb = b.input("b");
        let c = b.input("c");
        let n = b.nand2(a, bb);
        let o = b.xor2(n, c);
        b.output(o);
        assert_eq!(
            b.finish().structural_digest(),
            tiny_netlist().structural_digest()
        );
    }

    #[test]
    fn structural_digest_sees_one_changed_gate() {
        // Same shape as tiny_netlist but with NOR2 in place of NAND2.
        let mut b = NetlistBuilder::new("tiny");
        let a = b.input("a");
        let bb = b.input("b");
        let c = b.input("c");
        let n = b.nor2(a, bb);
        let o = b.xor2(n, c);
        b.output(o);
        assert_ne!(
            b.finish().structural_digest(),
            tiny_netlist().structural_digest()
        );
    }

    #[test]
    fn structural_digest_sees_rewired_inputs() {
        // Same gates, same kinds, swapped operand order on the XOR.
        let mut b = NetlistBuilder::new("tiny");
        let a = b.input("a");
        let bb = b.input("b");
        let c = b.input("c");
        let n = b.nand2(a, bb);
        let o = b.xor2(c, n);
        b.output(o);
        assert_ne!(
            b.finish().structural_digest(),
            tiny_netlist().structural_digest()
        );
    }
}
