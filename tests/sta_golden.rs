//! Golden STA arrivals.
//!
//! Every net's propagated event (edge, start, transition and arrival bits),
//! its logic levels and its load, plus the critical path and the sink
//! slacks, are hashed with FNV-1a and pinned. The library is the `fast`
//! NAND2 model, whose own bytes `tests/stop_rule.rs` pins, so a change to
//! these hashes means the timing engine changed its answers. The error
//! cases pin which gate or net each `StaError` names.

use proxim::cells::{Cell, Technology};
use proxim::model::characterize::CharacterizeOptions;
use proxim::model::persist::fnv1a_64;
use proxim::model::ProximityModel;
use proxim::numeric::pwl::Edge;
use proxim::sta::circuits::{c17, ripple_carry_adder};
use proxim::sta::netlist::{GateNetlist, NetId};
use proxim::sta::parse::parse_bench;
use proxim::sta::timing::{DelayMode, PiAssignment, Sta, StaError, TimingReport};
use proxim::sta::{CellId, TimingLibrary};
use std::sync::LazyLock;

static LIBRARY: LazyLock<(TimingLibrary, CellId)> = LazyLock::new(|| {
    let model = ProximityModel::characterize(
        &Cell::nand(2),
        &Technology::demo_5v(),
        &CharacterizeOptions::fast(),
    )
    .expect("characterization succeeds");
    let mut library = TimingLibrary::new();
    let nand2 = library.add(model);
    (library, nand2)
});

/// Required time the sink slacks are taken against.
const REQUIRED: f64 = 12e-9;

/// SplitMix64, so the vectors depend on nothing but the seed.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn chance(&mut self) -> bool {
        self.unit() < 0.5
    }

    fn edge(&mut self) -> Edge {
        if self.chance() {
            Edge::Rising
        } else {
            Edge::Falling
        }
    }

    /// A start time 3 ns out, moved within ±150 ps (near) or by 1.5–3 ns
    /// (far) of `t`.
    fn near_or_far(&mut self, t: f64) -> f64 {
        if self.chance() {
            t + self.range(-150e-12, 150e-12)
        } else {
            let far = self.range(1.5e-9, 3e-9);
            if self.chance() {
                t + far
            } else {
                t - far
            }
        }
    }
}

/// Vectors for an adder whose inputs are `a0.., b0.., cin`: per bit, both
/// inputs switch together (near or far apart), one switches, or neither.
fn adder_vectors(inputs: &[NetId], bits: usize, count: usize, seed: u64) -> Vec<Vec<PiAssignment>> {
    let mut rng = Rng(seed);
    (0..count)
        .map(|_| {
            let mut v: Vec<PiAssignment> = Vec::with_capacity(inputs.len());
            let mut b = Vec::with_capacity(bits);
            for i in 0..bits {
                let (a_net, b_net) = (inputs[i], inputs[bits + i]);
                let edge = rng.edge();
                let t_a = 3e-9 + rng.range(0.0, 200e-12);
                let tt_a = rng.range(100e-12, 1000e-12);
                let tt_b = rng.range(100e-12, 1000e-12);
                let mode = rng.unit();
                if mode < 0.45 {
                    let t_b = rng.near_or_far(t_a);
                    v.push(PiAssignment::switching(a_net, edge, t_a, tt_a));
                    b.push(PiAssignment::switching(b_net, edge, t_b, tt_b));
                } else if mode < 0.75 {
                    let level = rng.chance();
                    if rng.chance() {
                        v.push(PiAssignment::switching(a_net, edge, t_a, tt_a));
                        b.push(PiAssignment::stable(b_net, level));
                    } else {
                        v.push(PiAssignment::stable(a_net, level));
                        b.push(PiAssignment::switching(b_net, edge, t_a, tt_b));
                    }
                } else {
                    v.push(PiAssignment::stable(a_net, rng.chance()));
                    b.push(PiAssignment::stable(b_net, rng.chance()));
                }
            }
            v.extend(b);
            let cin = inputs[2 * bits];
            v.push(if rng.chance() {
                PiAssignment::stable(cin, rng.chance())
            } else {
                let edge = rng.edge();
                PiAssignment::switching(cin, edge, 3e-9, rng.range(100e-12, 1000e-12))
            });
            v
        })
        .collect()
}

/// Vectors over arbitrary inputs: each input switches (near or far from
/// the others) or holds a level.
fn free_vectors(inputs: &[NetId], count: usize, seed: u64) -> Vec<Vec<PiAssignment>> {
    let mut rng = Rng(seed);
    (0..count)
        .map(|_| {
            inputs
                .iter()
                .map(|&net| {
                    if rng.unit() < 0.6 {
                        let edge = rng.edge();
                        let t = rng.near_or_far(4e-9);
                        PiAssignment::switching(net, edge, t, rng.range(100e-12, 1000e-12))
                    } else {
                        PiAssignment::stable(net, rng.chance())
                    }
                })
                .collect()
        })
        .collect()
}

/// Every net a gate or a primary input touches, in index order.
fn nets(netlist: &GateNetlist) -> Vec<NetId> {
    let mut nets: Vec<NetId> = netlist.primary_inputs().to_vec();
    for g in netlist.gates() {
        nets.extend_from_slice(&g.inputs);
        nets.push(g.output);
    }
    nets.sort_unstable();
    nets.dedup();
    nets
}

/// Appends everything a report says about `netlist` to `out`.
fn digest_report(out: &mut Vec<u8>, netlist: &GateNetlist, report: &TimingReport) {
    for net in nets(netlist) {
        match report.net_event(net) {
            Some(e) => {
                out.push(1 + u8::from(e.edge == Edge::Rising));
                for x in [e.t_start, e.transition, e.arrival] {
                    out.extend_from_slice(&x.to_bits().to_le_bytes());
                }
            }
            None => out.push(0),
        }
        out.push(match report.net_levels(net) {
            Some((i, f)) => 1 + 2 * u8::from(i) + 4 * u8::from(f),
            None => 0,
        });
    }
    for net in report.critical_path() {
        out.extend_from_slice(&(net.index() as u64).to_le_bytes());
    }
    out.push(0xff);
    for (net, slack) in report.sink_slacks(REQUIRED) {
        out.extend_from_slice(&(net.index() as u64).to_le_bytes());
        out.extend_from_slice(&slack.to_bits().to_le_bytes());
    }
    out.push(0xfe);
}

/// Hashes every net's load and every report over `vectors` in `mode`.
fn golden(netlist: &GateNetlist, vectors: &[Vec<PiAssignment>], mode: DelayMode) -> u64 {
    let (library, _) = &*LIBRARY;
    let sta = Sta::new(library, netlist);
    let mut out = Vec::new();
    for net in nets(netlist) {
        out.extend_from_slice(&sta.net_load(net).to_bits().to_le_bytes());
    }
    for v in vectors {
        let report = sta.run(v, mode).expect("the run succeeds");
        digest_report(&mut out, netlist, &report);
    }
    fnv1a_64(&out)
}

fn check(name: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{name}: golden hash {got:#018x} changed");
}

#[test]
fn adder_64_bit_arrivals_are_pinned() {
    let (_, nand2) = &*LIBRARY;
    let bits = 64;
    let (netlist, inputs, _) = ripple_carry_adder(*nand2, bits);
    let vectors = adder_vectors(&inputs, bits, 128, 0x5eed_0016);
    check(
        "adder/proximity",
        golden(&netlist, &vectors, DelayMode::Proximity),
        0x1483_759d_7199_279b,
    );
    check(
        "adder/single-input",
        golden(&netlist, &vectors, DelayMode::SingleInput),
        0xe8e5_7cc8_a663_2977,
    );
}

#[test]
fn c17_arrivals_are_pinned() {
    let (_, nand2) = &*LIBRARY;
    let (netlist, inputs, _) = c17(*nand2);
    let vectors = free_vectors(&inputs, 64, 17);
    check(
        "c17/proximity",
        golden(&netlist, &vectors, DelayMode::Proximity),
        0x6cdc_79fc_3fc2_73c3,
    );
    check(
        "c17/single-input",
        golden(&netlist, &vectors, DelayMode::SingleInput),
        0xa6df_d236_a440_cfa8,
    );
}

/// Reconvergent fan-out, a net used twice by one gate, and a primary input
/// that is also an output.
const SMALL_BENCH: &str = "\
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
OUTPUT(z)
OUTPUT(d)
n1 = NAND(a, b)
n2 = NAND(c, d)
n3 = NAND(n1, n2)
n4 = NAND(n3, n3)
y = NAND(n4, a)
z = NAND(n3, n2)
";

#[test]
fn parsed_bench_arrivals_are_pinned() {
    let (_, nand2) = &*LIBRARY;
    let parsed = parse_bench(SMALL_BENCH, |ty, fanin| {
        (ty == "NAND" && fanin == 2).then_some(*nand2)
    })
    .expect("bench parses");
    let vectors = free_vectors(&parsed.inputs, 64, 4);
    check(
        "bench/proximity",
        golden(&parsed.netlist, &vectors, DelayMode::Proximity),
        0xec00_6144_dfb9_c250,
    );
    check(
        "bench/single-input",
        golden(&parsed.netlist, &vectors, DelayMode::SingleInput),
        0x3225_c68f_1f17_10df,
    );
}

fn run_err(netlist: &GateNetlist, assignments: &[PiAssignment]) -> StaError {
    let (library, _) = &*LIBRARY;
    Sta::new(library, netlist)
        .run(assignments, DelayMode::Proximity)
        .expect_err("the run fails")
}

#[test]
fn invalid_netlists_fail_the_run_with_the_same_message() {
    let (_, nand2) = &*LIBRARY;
    let nand2 = *nand2;

    let mut cycle = GateNetlist::new();
    let a = cycle.net("a");
    let x = cycle.net("x");
    let y = cycle.net("y");
    cycle.mark_primary_input(a);
    cycle.add_gate("g1", nand2, &[y, a], x);
    cycle.add_gate("g2", nand2, &[x, a], y);

    let mut double = GateNetlist::new();
    let a = double.net("a");
    let out = double.net("out");
    double.mark_primary_input(a);
    double.add_gate("g1", nand2, &[a, a], out);
    double.add_gate("g2", nand2, &[a, a], out);

    let mut driven_pi = GateNetlist::new();
    let a = driven_pi.net("a");
    let b = driven_pi.net("b");
    driven_pi.mark_primary_input(a);
    driven_pi.mark_primary_input(b);
    driven_pi.add_gate("g1", nand2, &[a, a], b);

    let mut undriven = GateNetlist::new();
    let a = undriven.net("a");
    let ghost = undriven.net("ghost");
    let out = undriven.net("out");
    undriven.mark_primary_input(a);
    undriven.add_gate("g1", nand2, &[a, ghost], out);

    // An undriven input on the first gate, a second driver on a later one:
    // the badly driven output is what the netlist reports.
    let mut both = GateNetlist::new();
    let a = both.net("a");
    let ghost = both.net("ghost");
    let n1 = both.net("n1");
    let out = both.net("out");
    both.mark_primary_input(a);
    both.add_gate("g1", nand2, &[a, ghost], n1);
    both.add_gate("g2", nand2, &[a, n1], out);
    both.add_gate("g3", nand2, &[a, a], out);

    for (netlist, want) in [
        (&cycle, "invalid netlist: combinational cycle detected"),
        (&double, "invalid netlist: net out driven more than once"),
        (
            &driven_pi,
            "invalid netlist: primary input b is driven by a gate",
        ),
        (
            &undriven,
            "invalid netlist: gate g1 input ghost is neither driven nor a primary input",
        ),
        (&both, "invalid netlist: net out driven more than once"),
    ] {
        let pis: Vec<PiAssignment> = netlist
            .primary_inputs()
            .iter()
            .map(|&n| PiAssignment::stable(n, true))
            .collect();
        match run_err(netlist, &pis) {
            StaError::Netlist(e) => assert_eq!(e.to_string(), want),
            other => panic!("expected a netlist error, got {other:?}"),
        }
        assert_eq!(netlist.topo_order().expect_err("invalid").to_string(), want);
    }
}

#[test]
fn unassigned_and_pin_mismatch_name_the_same_net_and_gate() {
    let (_, nand2) = &*LIBRARY;
    let (netlist, inputs, _) = ripple_carry_adder(*nand2, 4);
    // Only a0 and b0 assigned: the first gate in topological order with an
    // unassigned input names it (the order visits the last bit first).
    let partial = [
        PiAssignment::switching(inputs[0], Edge::Rising, 0.0, 300e-12),
        PiAssignment::stable(inputs[4], true),
    ];
    assert_eq!(
        run_err(&netlist, &partial),
        StaError::Unassigned { net: "a3".into() }
    );

    // A three-input instance of the two-input cell between two well-formed
    // gates.
    let mut nl = GateNetlist::new();
    let a = nl.net("a");
    let b = nl.net("b");
    let c = nl.net("c");
    let n1 = nl.net("n1");
    let n2 = nl.net("n2");
    let y = nl.net("y");
    for pi in [a, b, c] {
        nl.mark_primary_input(pi);
    }
    nl.add_gate("ok", *nand2, &[a, b], n1);
    nl.add_gate("wide", *nand2, &[n1, b, c], n2);
    nl.add_gate("tail", *nand2, &[n2, c], y);
    let stable_all: Vec<PiAssignment> = [a, b, c]
        .iter()
        .map(|&n| PiAssignment::stable(n, true))
        .collect();
    assert_eq!(
        run_err(&nl, &stable_all),
        StaError::PinMismatch {
            gate: "wide".into()
        }
    );
    // With `c` unassigned the mismatch still fires: a gate's pin count is
    // checked before its inputs are read.
    assert_eq!(
        run_err(&nl, &stable_all[..2]),
        StaError::PinMismatch {
            gate: "wide".into()
        }
    );
    // With `b` unassigned, `ok` reads it before `wide` is reached.
    assert_eq!(
        run_err(&nl, &[stable_all[0], stable_all[2]]),
        StaError::Unassigned { net: "b".into() }
    );
}
