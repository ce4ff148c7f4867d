//! Prune-plan and interval property suite across both engines.
//!
//! [`gatesim::PrunePlan`] proves gates silent before simulation; these
//! tests pin down the degenerate shapes of that proof — a fully pinned
//! netlist (everything pruned, zero transitions), zero-delay gates
//! (every interval collapses to `[0, 0]`), constant-fed subgraphs —
//! and the standing guarantees: pruned runs are bit-identical to
//! unpruned runs for any pin-respecting stimulus, every settle time
//! falls inside its STA interval, pin violations panic loudly, and the
//! observability counters record how much work the prover saved.

use gatesim::{BitSim, CellLibrary, NetId, Netlist, NetlistBuilder, PrunePlan, Simulator};
use powerpruning::chars::MacHardware;

/// Packs one bool vector per lane into one `u64` word per input bit.
fn pack(vectors: &[Vec<bool>]) -> Vec<u64> {
    let bits = vectors[0].len();
    let mut words = vec![0u64; bits];
    for (lane, v) in vectors.iter().enumerate() {
        for (i, &b) in v.iter().enumerate() {
            words[i] |= u64::from(b) << lane;
        }
    }
    words
}

/// A deterministic LCG stream.
fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed;
    move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 16
    }
}

/// A small reconvergent netlist: two inputs, an inverter chain and an
/// XOR/AND mix, all live under free inputs.
fn small_netlist() -> Netlist {
    let mut b = NetlistBuilder::new("small");
    let a = b.input("a");
    let c = b.input("c");
    let x = b.inv(a);
    let y = b.xor2(x, c);
    let z = b.and2(y, a);
    b.output(z);
    b.finish()
}

#[test]
fn fully_pinned_netlist_prunes_everything_and_never_toggles() {
    let hw = MacHardware::small();
    let nl = hw.mac().netlist();
    let lib = hw.lib();
    // Pin every input: the whole MAC is one dead cone.
    let stim = hw.mac().encode(3, 9, -17);
    let pins: Vec<Option<bool>> = stim.iter().map(|&b| Some(b)).collect();
    let plan = PrunePlan::new(nl, lib, &pins);
    assert_eq!(plan.pruned_gate_count(), nl.gate_count());
    assert_eq!(plan.live_gate_count(), 0);
    // Every gate output is a proven constant equal to the settled value.
    let mut reference = Simulator::new(nl, lib);
    reference.settle(&stim);
    for net in nl.net_ids() {
        if let Some(v) = plan.const_value(net) {
            assert_eq!(v, reference.value(net), "constant mismatch on {net}");
        }
    }

    // Both engines: re-applying the same vector costs nothing.
    let mut scalar = Simulator::with_plan(nl, lib, &plan);
    scalar.settle(&stim);
    let stats = scalar.transition(&stim);
    assert_eq!(stats.toggles, 0);
    assert_eq!(stats.energy_fj, 0.0);
    assert_eq!(stats.delay_ps, 0.0);

    let mut bits = BitSim::with_plan(nl, lib, &plan);
    let words = pack(&[stim.clone(), stim.clone()]);
    bits.settle(&words, 2);
    let bview = bits.transition(&words);
    assert_eq!(bview.total_toggles(), 0);
    assert_eq!(bview.total_energy_fj(), 0.0);
}

#[test]
fn zero_delay_gates_collapse_every_interval_to_zero() {
    let nl = small_netlist();
    let lib = CellLibrary::uniform(0.0, 0.25, 0.0);
    let plan = PrunePlan::unpinned(&nl, &lib);
    for gate in nl.gates() {
        let iv = plan
            .interval(gate.output)
            .expect("live gate output has an interval");
        assert_eq!(iv.lo_fs(), 0);
        assert_eq!(iv.hi_fs(), 0);
        assert!(iv.contains_ps(0.0));
    }
    // Both engines still agree on toggles, energy and (zero) arrivals
    // at delay 0.
    let mut scalar = Simulator::new(&nl, &lib);
    let mut bits = BitSim::new(&nl, &lib);
    bits.observe(nl.outputs());
    let from = vec![false, false];
    let to = vec![true, true];
    scalar.settle(&from);
    bits.settle(&pack(std::slice::from_ref(&from)), 1);
    let s = scalar.transition(&to);
    assert_eq!(s.delay_ps, 0.0);
    let w = bits.transition(&pack(std::slice::from_ref(&to)));
    assert_eq!(w.lane_toggles(0), s.toggles);
    assert_eq!(w.lane_energy_fj(0), s.energy_fj);
    assert_eq!(w.observed_arrival_ps(0, 0), 0.0);
}

#[test]
fn constant_fed_subgraph_is_pruned_by_every_engine_constructor() {
    let mut b = NetlistBuilder::new("const_fed");
    let a = b.input("a");
    let c1 = b.const1();
    let c0 = b.const0();
    let dead = b.xor2(c1, c0); // constant 1
    let dead2 = b.inv(dead); // constant 0
    let live = b.or2(a, dead2); // reads the dead cone, still live
    b.output(live);
    let nl = b.finish();
    let lib = CellLibrary::nangate15_like();
    let plan = PrunePlan::unpinned(&nl, &lib);
    assert_eq!(plan.pruned_gate_count(), 2);
    assert_eq!(plan.const_value(dead), Some(true));
    assert_eq!(plan.const_value(dead2), Some(false));
    assert_eq!(plan.const_value(live), None);

    // `::new` routes through the unpinned plan in every engine; the
    // baked constants must make functional results come out right.
    let mut scalar = Simulator::new(&nl, &lib);
    scalar.settle(&[false]);
    assert_eq!(scalar.output_values(), vec![false]);
    assert!(scalar.value(dead));
    assert!(!scalar.value(dead2));
    let mut bits = BitSim::new(&nl, &lib);
    bits.settle(&[0b01], 2);
    // Baked constants fill every lane, active or not.
    assert_eq!(bits.value(dead), !0);
    assert_eq!(bits.value(dead2), 0);
    let view = bits.transition(&[0b10]);
    // Lanes 0 and 1 swap the input; the dead cone never toggles.
    assert_eq!(view.lane_toggles(0), 2); // input + OR output
    assert_eq!(view.lane_toggles(1), 2);
    assert!(!bits.net_ever_toggled(dead));
    assert!(!bits.net_ever_toggled(dead2));
}

#[test]
fn pinned_engines_match_unpruned_references_bit_exactly() {
    let hw = MacHardware::small();
    let nl = hw.mac().netlist();
    let lib = hw.lib();
    let mut next = lcg(0x5eed);
    for code in [-7i64, -1, 0, 3, 7] {
        let plan = PrunePlan::new(nl, lib, &hw.mac_weight_pins(code as i32));
        assert!(
            plan.pruned_gate_count() > 0,
            "pinning the weight bus should prune part of the MAC"
        );
        let mut scalar_p = Simulator::with_plan(nl, lib, &plan);
        let mut scalar_u = Simulator::new(nl, lib);
        let mut bits_p = BitSim::with_plan(nl, lib, &plan);
        let mut bits_u = BitSim::new(nl, lib);
        bits_p.observe(nl.outputs());
        bits_u.observe(nl.outputs());
        let stims: Vec<Vec<bool>> = (0..24)
            .map(|_| {
                hw.mac()
                    .encode(code, next() & 0xf, (next() & 0xfff) as i64 - 2048)
            })
            .collect();
        for pair in stims.windows(2) {
            let (from, to) = (&pair[0], &pair[1]);
            scalar_p.settle(from);
            scalar_u.settle(from);
            let sp = scalar_p.transition(to);
            let su = scalar_u.transition(to);
            assert_eq!(sp, su, "scalar diverged under pruning, code {code}");
        }
        let words: Vec<Vec<u64>> = stims.windows(2).map(|p| pack(&[p[1].clone()])).collect();
        bits_p.settle(&pack(&[stims[0].clone()]), 1);
        bits_u.settle(&pack(&[stims[0].clone()]), 1);
        let outputs = nl.outputs().len();
        for w in &words {
            let vp = bits_p.transition(w);
            let (vp_e, vp_t) = (vp.lane_energy_fj(0), vp.lane_toggles(0));
            let vp_a: Vec<f64> = (0..outputs).map(|o| vp.observed_arrival_ps(o, 0)).collect();
            let vu = bits_u.transition(w);
            let vu_a: Vec<f64> = (0..outputs).map(|o| vu.observed_arrival_ps(o, 0)).collect();
            assert_eq!(vp_e, vu.lane_energy_fj(0), "bitsim energy, code {code}");
            assert_eq!(vp_t, vu.lane_toggles(0), "bitsim toggles, code {code}");
            assert_eq!(vp_a, vu_a, "bitsim arrivals, code {code}");
        }
    }
}

#[test]
fn pruned_settle_times_stay_inside_their_intervals() {
    // The interval property under a *pinned* plan: every per-lane
    // settle time the pruned bit-parallel engine reports falls inside
    // the net's [min, max] STA arrival interval computed over the live
    // cone. One 40-lane block per code, each lane a chained step of an
    // activation walk (repeats included: a silent lane must report 0).
    let hw = MacHardware::small();
    let mult = hw.mult_netlist();
    let lib = hw.lib();
    let all_nets: Vec<NetId> = mult.net_ids().collect();
    let mut next = lcg(0xca11);
    for code in [-5i64, 2, 6] {
        let plan = PrunePlan::new(mult, lib, &hw.mult_weight_pins(code as i32));
        let mut sim = BitSim::with_plan(mult, lib, &plan);
        sim.observe(&all_nets);
        let walk: Vec<Vec<bool>> = (0..41)
            .map(|_| hw.encode_mult(code, next() & 0xf))
            .collect();
        let lanes = walk.len() - 1;
        sim.settle(&pack(&walk[..lanes]), lanes);
        let view = sim.transition(&pack(&walk[1..]));
        let mut toggled = false;
        for lane in 0..lanes {
            for (slot, &net) in all_nets.iter().enumerate() {
                let t_ps = view.observed_arrival_ps(slot, lane);
                if walk[lane] == walk[lane + 1] {
                    assert_eq!(t_ps, 0.0, "net {net} toggled in a silent lane");
                }
                if t_ps > 0.0 {
                    toggled = true;
                    let iv = plan
                        .interval(net)
                        .unwrap_or_else(|| panic!("net {net} toggled without an interval"));
                    assert!(
                        iv.contains_ps(t_ps),
                        "net {net} settled at {t_ps} ps outside [{}, {}] ps \
                         (code {code}, lane {lane})",
                        iv.lo_ps(),
                        iv.hi_ps()
                    );
                }
            }
        }
        assert!(toggled, "code {code}: the walk sensitized nothing");
    }
}

#[test]
#[should_panic(expected = "pinned input")]
fn scalar_settle_rejects_pin_violations() {
    let hw = MacHardware::small();
    let plan = PrunePlan::new(hw.mac().netlist(), hw.lib(), &hw.mac_weight_pins(5));
    let mut sim = Simulator::with_plan(hw.mac().netlist(), hw.lib(), &plan);
    sim.settle(&hw.mac().encode(6, 0, 0)); // wrong weight
}

#[test]
#[should_panic(expected = "pinned input")]
fn batch_transition_rejects_pin_violations() {
    // The 64-lane block transition re-checks the pins: lane 0 keeps the
    // weight, lane 1 lets it drift after a clean settle.
    let hw = MacHardware::small();
    let plan = PrunePlan::new(hw.mac().netlist(), hw.lib(), &hw.mac_weight_pins(5));
    let mut sim = BitSim::with_plan(hw.mac().netlist(), hw.lib(), &plan);
    let from = hw.mac().encode(5, 0, 0);
    sim.settle(&pack(&[from.clone(), from]), 2);
    let _ = sim.transition(&pack(&[
        hw.mac().encode(5, 1, 0),
        hw.mac().encode(-5, 1, 0),
    ]));
}

#[test]
#[should_panic(expected = "pinned input")]
fn bitsim_settle_rejects_pin_violations_in_any_lane() {
    let hw = MacHardware::small();
    let plan = PrunePlan::new(hw.mac().netlist(), hw.lib(), &hw.mac_weight_pins(5));
    let mut sim = BitSim::with_plan(hw.mac().netlist(), hw.lib(), &plan);
    // Lane 0 honors the pins, lane 1 flips the weight's low bit.
    let ok = hw.mac().encode(5, 3, 0);
    let bad = hw.mac().encode(4, 3, 0);
    sim.settle(&pack(&[ok, bad]), 2);
}

#[test]
fn prune_metrics_record_saved_work() {
    let before = obs::metrics::counter_value("gatesim_gates_pruned_total").unwrap_or(0);
    let hw = MacHardware::small();
    let plan = PrunePlan::new(hw.mac().netlist(), hw.lib(), &hw.mac_weight_pins(0));
    let pruned = plan.pruned_gate_count() as u64;
    assert!(pruned > 0);
    // Other tests in this binary also build plans concurrently; the
    // global counter only ever grows, so a lower bound is exact enough.
    let after = obs::metrics::counter_value("gatesim_gates_pruned_total").unwrap_or(0);
    assert!(
        after >= before + pruned,
        "gates_pruned counter did not advance: {before} -> {after} (expected +{pruned})"
    );
}
