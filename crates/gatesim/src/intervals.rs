//! STA arrival intervals and provable cone pruning.
//!
//! This module is the shared *build layer* behind all three simulation
//! engines. Given a netlist and an optional set of **pinned** primary
//! inputs (inputs a characterization sweep holds at a known constant —
//! e.g. the weight bus while sweeping activations), it computes, in one
//! topological pass:
//!
//! * **Constant propagation**: the exact set of nets whose value is
//!   implied by the constants and pins. A gate output is proven constant
//!   by enumerating the 8 truth-table minterms consistent with the known
//!   input values; if every consistent minterm yields the same output
//!   bit, the gate can *never* toggle under any stimulus that respects
//!   the pins. Such gates are **pruned**: the engines bake their output
//!   value at settle time and never schedule events through them, so a
//!   restricted sweep simulates only its live cone while staying exactly
//!   bit-identical (a pruned gate's events in the unpruned engines are
//!   always filtered — they re-apply the current value — and therefore
//!   contribute zero toggles and zero energy).
//! * **Arrival intervals**: a closed `[min, max]` static-timing window
//!   per live net in the filament-style `max`/`+` (and `min`/`+`)
//!   algebra — a live gate's output interval is
//!   `[min over live inputs (lo + d), max over live inputs (hi + d)]`,
//!   free inputs start at `[0, 0]`, and pinned/constant/pruned nets have
//!   no interval at all. Every toggle the event-driven engines produce
//!   at time *t* satisfies `lo ≤ t ≤ hi` for its net — a standing
//!   property the equivalence suite checks on every run.
//!
//! Interval arithmetic is integer femtoseconds with the same rounding
//! as the engines' event times ([`crate::sim`]'s `FS_PER_PS`), so the
//! containment property is exact, not tolerance-based.
//!
//! The pass itself is cheap (linear in gates); its cost and yield are
//! exported as `gatesim_prune_plan_seconds` / `gatesim_gates_pruned_total`
//! through [`crate::counters`].

use std::time::Instant;

use crate::cells::CellLibrary;
use crate::netlist::{GateId, NetId, NetSource, Netlist};
use crate::sim::FS_PER_PS;

/// Closed `[min, max]` STA arrival window of one net, in integer
/// femtoseconds (the engines' event-time unit).
///
/// `lo` is the earliest time any toggle of the net can arrive (shortest
/// structural path from any free input), `hi` the latest (longest
/// path). A net with no interval (see [`PrunePlan::interval`]) is
/// proven silent and can never toggle at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetInterval {
    lo_fs: u64,
    hi_fs: u64,
}

impl NetInterval {
    /// Earliest possible toggle arrival, femtoseconds.
    #[must_use]
    pub fn lo_fs(self) -> u64 {
        self.lo_fs
    }

    /// Latest possible toggle arrival, femtoseconds.
    #[must_use]
    pub fn hi_fs(self) -> u64 {
        self.hi_fs
    }

    /// Earliest possible toggle arrival, picoseconds.
    #[must_use]
    pub fn lo_ps(self) -> f64 {
        self.lo_fs as f64 / FS_PER_PS
    }

    /// Latest possible toggle arrival, picoseconds.
    #[must_use]
    pub fn hi_ps(self) -> f64 {
        self.hi_fs as f64 / FS_PER_PS
    }

    /// Whether an arrival in picoseconds falls inside the window.
    ///
    /// Exact for times produced by the engines: they divide the same
    /// integer-femtosecond values by the same constant, and f64 division
    /// by a positive constant is monotone.
    #[must_use]
    pub fn contains_ps(self, t_ps: f64) -> bool {
        self.lo_ps() <= t_ps && t_ps <= self.hi_ps()
    }
}

/// The result of one structural pruning pass: constant-propagated net
/// values, the provably-silent gate set and per-net arrival intervals.
///
/// Produced once per (netlist, library, pins) by [`PrunePlan::new`] and
/// consumed by every engine's `with_plan` constructor
/// ([`crate::Simulator::with_plan`], [`crate::BitSim::with_plan`]). The engines assert on every
/// settle/transition that the pinned inputs actually hold their pinned
/// values — the plan's proofs are conditional on exactly that.
///
/// # Examples
///
/// ```
/// use gatesim::{CellLibrary, NetlistBuilder, PrunePlan};
///
/// let mut b = NetlistBuilder::new("gated");
/// let en = b.input("en");
/// let d = b.input("d");
/// let g = b.and2(en, d);
/// b.output(g);
/// let nl = b.finish();
///
/// // Pin the enable low: the AND can never toggle.
/// let plan = PrunePlan::new(&nl, &CellLibrary::nangate15_like(), &[Some(false), None]);
/// assert_eq!(plan.pruned_gate_count(), 1);
/// assert_eq!(plan.const_value(g), Some(false));
/// assert!(plan.interval(g).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct PrunePlan {
    /// Per-net proven-constant value (`None` = can vary).
    const_value: Vec<Option<bool>>,
    /// Per-net arrival interval (`None` = proven silent).
    interval: Vec<Option<NetInterval>>,
    /// Per-gate liveness; a dead gate's output is in `const_value`.
    gate_live: Vec<bool>,
    /// The pinned-input mask this plan was built for, in port order.
    pins: Vec<Option<bool>>,
    pruned_gates: usize,
}

impl PrunePlan {
    /// Runs the pruning pass for `netlist` under `lib` with the given
    /// pinned-input mask (`pins[i]` pins input port *i*; `None` leaves
    /// it free).
    ///
    /// # Panics
    ///
    /// Panics if `pins.len()` differs from the netlist's input count.
    #[must_use]
    pub fn new(netlist: &Netlist, lib: &CellLibrary, pins: &[Option<bool>]) -> Self {
        let start = Instant::now();
        assert_eq!(
            pins.len(),
            netlist.inputs().len(),
            "pin mask length mismatch"
        );
        let nets = netlist.net_count();
        let mut const_value: Vec<Option<bool>> = vec![None; nets];
        let mut interval: Vec<Option<NetInterval>> = vec![None; nets];
        for (idx, src) in netlist.sources().iter().enumerate() {
            match src {
                NetSource::Const0 => const_value[idx] = Some(false),
                NetSource::Const1 => const_value[idx] = Some(true),
                _ => {}
            }
        }
        for (pos, &net) in netlist.inputs().iter().enumerate() {
            match pins[pos] {
                Some(v) => const_value[net.index()] = Some(v),
                None => interval[net.index()] = Some(NetInterval { lo_fs: 0, hi_fs: 0 }),
            }
        }
        let mut gate_live = vec![false; netlist.gate_count()];
        let mut pruned_gates = 0usize;
        // Gates are topologically ordered, so one forward pass settles
        // both lattices (constants strengthen monotonically, intervals
        // only read already-finalized inputs).
        for (gid, gate) in netlist.gates().iter().enumerate() {
            let known = [
                const_value[gate.inputs[0].index()],
                const_value[gate.inputs[1].index()],
                const_value[gate.inputs[2].index()],
            ];
            let lut = gate.kind.truth_table();
            // Output values reachable over the minterms consistent with
            // the known input values. (Minterms that are unreachable for
            // other reasons — e.g. aliased unused input slots taking
            // different values — only make the proof conservative, never
            // unsound.)
            let mut can = [false; 2];
            for m in 0..8u8 {
                let consistent = (0..3).all(|i| known[i].is_none_or(|v| ((m >> i) & 1 == 1) == v));
                if consistent {
                    can[usize::from(lut >> m & 1)] = true;
                }
            }
            let out = gate.output.index();
            if can[0] != can[1] {
                // Every consistent minterm agrees: the output is a
                // constant and the gate can never toggle.
                const_value[out] = Some(can[1]);
                pruned_gates += 1;
            } else {
                gate_live[gid] = true;
                let delay_fs = (lib.params(gate.kind).delay_ps * FS_PER_PS).round() as u64;
                let mut lo = u64::MAX;
                let mut hi = 0u64;
                for &input in gate.active_inputs() {
                    if let Some(iv) = interval[input.index()] {
                        lo = lo.min(iv.lo_fs + delay_fs);
                        hi = hi.max(iv.hi_fs + delay_fs);
                    }
                }
                // A live gate always has at least one live input: were
                // every input known, exactly one minterm would be
                // consistent and the output would have been constant.
                debug_assert!(lo <= hi, "live gate {gid} has no live input");
                interval[out] = Some(NetInterval {
                    lo_fs: lo,
                    hi_fs: hi,
                });
            }
        }
        let plan = PrunePlan {
            const_value,
            interval,
            gate_live,
            pins: pins.to_vec(),
            pruned_gates,
        };
        crate::counters::record_prune_plan(pruned_gates as u64, start.elapsed().as_secs_f64());
        plan
    }

    /// The pruning pass with no pinned inputs: only constant-fed cones
    /// are pruned. This is what every engine's plain `new` uses, so the
    /// interval property net covers unrestricted simulation too.
    #[must_use]
    pub fn unpinned(netlist: &Netlist, lib: &CellLibrary) -> Self {
        let pins: Vec<Option<bool>> = vec![None; netlist.inputs().len()];
        Self::new(netlist, lib, &pins)
    }

    /// The net's STA arrival interval, or `None` if the net is proven
    /// silent (constant, pinned or pruned).
    #[must_use]
    pub fn interval(&self, net: NetId) -> Option<NetInterval> {
        self.interval[net.index()]
    }

    /// The net's proven-constant value, or `None` if it can vary.
    #[must_use]
    pub fn const_value(&self, net: NetId) -> Option<bool> {
        self.const_value[net.index()]
    }

    /// Whether the gate survived pruning (can toggle its output).
    #[must_use]
    pub fn is_gate_live(&self, gate: GateId) -> bool {
        self.gate_live[gate.index()]
    }

    /// Number of gates proven silent and excluded from simulation.
    #[must_use]
    pub fn pruned_gate_count(&self) -> usize {
        self.pruned_gates
    }

    /// Number of gates that remain simulated.
    #[must_use]
    pub fn live_gate_count(&self) -> usize {
        self.gate_live.len() - self.pruned_gates
    }

    /// The pinned-input mask this plan was built for, in port order.
    #[must_use]
    pub fn pins(&self) -> &[Option<bool>] {
        &self.pins
    }
}

/// Flattened per-gate record shared by all three engines: inputs,
/// output, delay, truth table and event-queue lane in one 24-byte row
/// so every hot loop streams a single cache line per gate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GateRow {
    pub(crate) in0: u32,
    pub(crate) in1: u32,
    pub(crate) in2: u32,
    pub(crate) out: u32,
    pub(crate) delay_fs: u32,
    /// Truth table over `a | b << 1 | c << 2`.
    pub(crate) lut: u8,
    /// Event-queue lane index for this gate's delay (live gates only).
    pub(crate) lane: u8,
}

/// Everything an engine constructor derives from (netlist, library,
/// plan): gate rows, the live gate order, baked constants, pin
/// assertions, the live-filtered fanout CSR and per-net energies.
///
/// Built identically by `Simulator` and `BitSim`, so the two engines
/// cannot drift in how they compile a netlist.
#[derive(Debug)]
pub(crate) struct EngineBuild {
    /// One row per gate, indexed by `GateId` (`lane` is only meaningful
    /// for live gates).
    pub(crate) rows: Vec<GateRow>,
    /// Live gate ids in topological order — the settle sweep.
    pub(crate) live_rows: Vec<u32>,
    /// Gate-output nets proven constant, with their values.
    pub(crate) pruned_values: Vec<(u32, bool)>,
    /// `(input port position, pinned value)` assertions.
    pub(crate) pins: Vec<(u32, bool)>,
    /// Live-filtered fanout CSR: the live gates reading net `n` are
    /// `fanout_gate_ids[fanout_offsets[n] .. fanout_offsets[n + 1]]`.
    pub(crate) fanout_offsets: Vec<u32>,
    pub(crate) fanout_gate_ids: Vec<u32>,
    /// Switching energy (fJ) charged when a net toggles: the driving
    /// gate's energy, or 0 for inputs and constants.
    pub(crate) net_energy_fj: Vec<f64>,
    /// Number of distinct live-gate delays (event-queue lanes).
    pub(crate) lane_count: usize,
}

impl EngineBuild {
    pub(crate) fn new(netlist: &Netlist, lib: &CellLibrary, plan: &PrunePlan) -> Self {
        assert_eq!(
            plan.gate_live.len(),
            netlist.gate_count(),
            "prune plan was built for a different netlist"
        );
        assert_eq!(
            plan.const_value.len(),
            netlist.net_count(),
            "prune plan was built for a different netlist"
        );
        let mut rows: Vec<GateRow> = netlist
            .gates()
            .iter()
            .map(|g| GateRow {
                in0: g.inputs[0].0,
                in1: g.inputs[1].0,
                in2: g.inputs[2].0,
                out: g.output.0,
                delay_fs: (lib.params(g.kind).delay_ps * FS_PER_PS).round() as u32,
                lut: g.kind.truth_table(),
                lane: 0,
            })
            .collect();
        // Queue lanes are deduplicated over *live* gates only, so a
        // pruned cone full of exotic delays costs no pop-scan width.
        let mut delays: Vec<u32> = Vec::new();
        let mut live_rows = Vec::with_capacity(plan.live_gate_count());
        for (gid, row) in rows.iter_mut().enumerate() {
            if !plan.gate_live[gid] {
                continue;
            }
            let lane = delays
                .iter()
                .position(|&d| d == row.delay_fs)
                .unwrap_or_else(|| {
                    delays.push(row.delay_fs);
                    delays.len() - 1
                });
            row.lane = u8::try_from(lane).expect("more than 255 distinct gate delays");
            live_rows.push(gid as u32);
        }
        let mut pruned_values = Vec::with_capacity(plan.pruned_gates);
        for (gid, gate) in netlist.gates().iter().enumerate() {
            if !plan.gate_live[gid] {
                let v = plan.const_value[gate.output.index()]
                    .expect("pruned gate output must be constant");
                pruned_values.push((gate.output.0, v));
            }
        }
        let pins = plan
            .pins
            .iter()
            .enumerate()
            .filter_map(|(pos, &p)| p.map(|v| (pos as u32, v)))
            .collect();
        let mut net_energy_fj = vec![0.0f64; netlist.net_count()];
        for gate in netlist.gates() {
            net_energy_fj[gate.output.index()] = lib.params(gate.kind).energy_fj;
        }
        let mut fanout_offsets = Vec::with_capacity(netlist.net_count() + 1);
        let mut fanout_gate_ids = Vec::with_capacity(netlist.fanout_edge_count());
        fanout_offsets.push(0);
        for net in 0..netlist.net_count() {
            for gid in netlist.fanout(NetId(net as u32)) {
                if plan.gate_live[gid.index()] {
                    fanout_gate_ids.push(gid.0);
                }
            }
            fanout_offsets.push(fanout_gate_ids.len() as u32);
        }
        EngineBuild {
            rows,
            live_rows,
            pruned_values,
            pins,
            fanout_offsets,
            fanout_gate_ids,
            net_energy_fj,
            lane_count: delays.len(),
        }
    }

    /// The live fanout of a net, as gate ids.
    #[inline]
    pub(crate) fn fanout(&self, net: usize) -> &[u32] {
        let start = self.fanout_offsets[net] as usize;
        let end = self.fanout_offsets[net + 1] as usize;
        &self.fanout_gate_ids[start..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::circuits::MacCircuit;

    fn lib() -> CellLibrary {
        CellLibrary::nangate15_like()
    }

    #[test]
    fn free_inputs_have_zero_intervals() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let x = b.inv(a);
        b.output(x);
        let nl = b.finish();
        let plan = PrunePlan::unpinned(&nl, &lib());
        let iv = plan.interval(a).expect("free input has an interval");
        assert_eq!((iv.lo_fs(), iv.hi_fs()), (0, 0));
        assert_eq!(plan.pruned_gate_count(), 0);
    }

    #[test]
    fn interval_algebra_is_min_max_plus() {
        // a -> inv -> inv -> y, plus a direct xor(a, y): the xor's
        // window spans [d_xor, 2*d_inv + d_xor].
        let l = CellLibrary::uniform(3.0, 0.0, 0.0);
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let x = b.inv(a);
        let y = b.inv(x);
        let z = b.xor2(a, y);
        b.output(z);
        let nl = b.finish();
        let plan = PrunePlan::unpinned(&nl, &l);
        let iv = plan.interval(z).expect("live net");
        assert_eq!(iv.lo_fs(), 3_000);
        assert_eq!(iv.hi_fs(), 9_000);
        assert!((iv.lo_ps() - 3.0).abs() < 1e-12);
        assert!((iv.hi_ps() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn constant_fed_cone_is_pruned_without_pins() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c1 = b.const1();
        let dead = b.xor2(c1, c1); // always 0
        let dead2 = b.inv(dead); // always 1
        let live = b.and2(a, dead2); // follows a
        b.output(live);
        let nl = b.finish();
        let plan = PrunePlan::unpinned(&nl, &lib());
        assert_eq!(plan.const_value(dead), Some(false));
        assert_eq!(plan.const_value(dead2), Some(true));
        assert!(plan.interval(dead).is_none());
        assert_eq!(plan.pruned_gate_count(), 2);
        assert!(plan.interval(live).is_some());
        assert_eq!(plan.const_value(live), None);
    }

    #[test]
    fn pinned_input_prunes_its_cone() {
        let mut b = NetlistBuilder::new("t");
        let en = b.input("en");
        let d = b.input("d");
        let g = b.and2(en, d);
        let o = b.or2(g, d);
        b.output(o);
        let nl = b.finish();
        // en = 0 kills the AND; the OR then follows d alone but stays
        // live.
        let plan = PrunePlan::new(&nl, &lib(), &[Some(false), None]);
        assert_eq!(plan.const_value(g), Some(false));
        assert!(!plan.is_gate_live(GateId(0)));
        assert!(plan.is_gate_live(GateId(1)));
        assert_eq!(plan.pruned_gate_count(), 1);
        assert_eq!(plan.live_gate_count(), 1);
    }

    #[test]
    fn fully_pinned_netlist_prunes_everything() {
        let mac = MacCircuit::new(4, 4, 10);
        let nl = mac.netlist();
        let pins: Vec<Option<bool>> = nl.inputs().iter().map(|_| Some(false)).collect();
        let plan = PrunePlan::new(nl, &lib(), &pins);
        assert_eq!(plan.pruned_gate_count(), nl.gate_count());
        assert_eq!(plan.live_gate_count(), 0);
        for net in nl.net_ids() {
            assert!(plan.interval(net).is_none(), "net {net} still live");
            assert!(plan.const_value(net).is_some(), "net {net} not constant");
        }
    }

    #[test]
    fn mux_with_pinned_select_prunes_dead_leg_fanin_dependence() {
        // sel pinned to 0: the mux output follows `a` only; it stays
        // live (a is free) but `b`'s inverter feeding the dead leg is
        // *not* prunable (its output still varies) — only gates whose
        // output is provably constant are pruned.
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let bb = b.input("b");
        let sel = b.input("sel");
        let nb = b.inv(bb);
        let m = b.mux2(a, nb, sel);
        b.output(m);
        let nl = b.finish();
        let plan = PrunePlan::new(&nl, &lib(), &[None, None, Some(false)]);
        assert_eq!(plan.const_value(m), None);
        assert!(plan.interval(m).is_some());
        assert!(plan.interval(nb).is_some());
        assert_eq!(plan.pruned_gate_count(), 0);
    }

    #[test]
    fn unpinned_mac_plan_keeps_input_fanin_live() {
        let mac = MacCircuit::new(4, 4, 10);
        let nl = mac.netlist();
        let plan = PrunePlan::unpinned(nl, &lib());
        // Every primary output must still be reachable: the MAC's
        // outputs depend on its inputs.
        for &out in nl.outputs() {
            assert!(
                plan.interval(out).is_some(),
                "output {out} pruned by an unpinned plan"
            );
        }
    }

    #[test]
    fn engine_build_filters_fanout_to_live_gates() {
        let mut b = NetlistBuilder::new("t");
        let en = b.input("en");
        let d = b.input("d");
        let g = b.and2(en, d); // pruned under en=0
        let o = b.xor2(d, g);
        b.output(o);
        let nl = b.finish();
        let plan = PrunePlan::new(&nl, &lib(), &[Some(false), None]);
        let build = EngineBuild::new(&nl, &lib(), &plan);
        assert_eq!(build.live_rows, vec![1]);
        assert_eq!(build.pruned_values, vec![(g.0, false)]);
        assert_eq!(build.pins, vec![(0, false)]);
        // d's fanout keeps only the xor; the pruned AND is gone.
        assert_eq!(build.fanout(d.index()), &[1]);
        assert_eq!(build.fanout(en.index()), &[0u32; 0]);
    }

    #[test]
    #[should_panic(expected = "pin mask length mismatch")]
    fn pin_mask_length_is_checked() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let x = b.inv(a);
        b.output(x);
        let nl = b.finish();
        let _ = PrunePlan::new(&nl, &lib(), &[None, None]);
    }
}
