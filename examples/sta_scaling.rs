//! How the timing engine's cost grows with netlist size: nanoseconds per
//! gate to build a NAND2 ripple-carry adder, to compile it into a timing
//! graph (`Sta::new`), and to time one input vector over it (`Sta::run`,
//! proximity mode), from 144 to 65 538 gates. Linear cost shows as a flat
//! ns/gate column.
//!
//! Run with `cargo run --release --example sta_scaling [-- max_gates]`;
//! `max_gates` (default: all sizes) drops the larger adders. Every size is
//! timed once per round, rounds interleaved, and the table shows each
//! size's median over the rounds, so a change in host speed during the run
//! moves all sizes alike. The numbers are wall-clock and vary with the
//! host; the example checks only that every run succeeds and that every
//! vector switches some output.

use proxim::cells::{Cell, Technology};
use proxim::model::characterize::CharacterizeOptions;
use proxim::model::ProximityModel;
use proxim::numeric::pwl::Edge;
use proxim::sta::circuits::ripple_carry_adder;
use proxim::sta::netlist::{GateNetlist, NetId};
use proxim::sta::timing::{DelayMode, PiAssignment, Sta};
use proxim::sta::{CellId, TimingLibrary};
use std::hint::black_box;
use std::time::Instant;

/// Adder widths: 9 NAND2 gates per bit, so 144, 576, 2 304, 9 216 and
/// 65 538 gates.
const BITS: [usize; 5] = [16, 64, 256, 1024, 7282];
/// Distinct vectors per adder; a timed run covers all of them.
const VECTORS: usize = 16;
/// Interleaved rounds; each size's median over them is reported.
const ROUNDS: usize = 7;
/// Gates each timed sample covers at least, so that small adders are
/// timed over many repetitions.
const MIN_SAMPLE_GATES: usize = 500_000;

/// SplitMix64, so the vectors depend only on the seed.
struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Per bit, `a` and `b` rise or fall together (within 150 ps of each
/// other), or hold; `cin` holds low.
fn vectors(inputs: &[NetId], bits: usize, seed: u64) -> Vec<Vec<PiAssignment>> {
    let mut rng = Rng(seed);
    (0..VECTORS)
        .map(|_| {
            let mut v = vec![PiAssignment::stable(inputs[2 * bits], false); inputs.len()];
            for i in 0..bits {
                if rng.unit() < 0.6 {
                    let edge = if rng.unit() < 0.5 {
                        Edge::Rising
                    } else {
                        Edge::Falling
                    };
                    let t_a = 1e-9 + 200e-12 * rng.unit();
                    let t_b = t_a + 300e-12 * (rng.unit() - 0.5);
                    let tt = 100e-12 + 900e-12 * rng.unit();
                    v[i] = PiAssignment::switching(inputs[i], edge, t_a, tt);
                    v[bits + i] = PiAssignment::switching(inputs[bits + i], edge, t_b, tt);
                } else {
                    v[i] = PiAssignment::stable(inputs[i], rng.unit() < 0.5);
                    v[bits + i] = PiAssignment::stable(inputs[bits + i], rng.unit() < 0.5);
                }
            }
            v
        })
        .collect()
}

/// Nanoseconds per gate of `f`, which covers `gates` gates per call,
/// repeated until the sample covers [`MIN_SAMPLE_GATES`].
fn ns_per_gate(gates: usize, mut f: impl FnMut()) -> f64 {
    let reps = MIN_SAMPLE_GATES.div_ceil(gates);
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e9 / (gates * reps) as f64
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// One adder and its timing samples.
struct Size {
    bits: usize,
    netlist: GateNetlist,
    vectors: Vec<Vec<PiAssignment>>,
    /// Share of gates whose output switches, over the vectors.
    switching: f64,
    build: Vec<f64>,
    compile: Vec<f64>,
    run: Vec<f64>,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let max_gates: usize = match std::env::args().nth(1) {
        Some(a) => a.parse()?,
        None => usize::MAX,
    };
    println!("characterizing the NAND2 library cell...");
    let model = ProximityModel::characterize(
        &Cell::nand(2),
        &Technology::demo_5v(),
        &CharacterizeOptions::fast(),
    )?;
    let mut library = TimingLibrary::new();
    let nand2: CellId = library.add(model);

    let mut sizes = Vec::new();
    for bits in BITS.into_iter().filter(|&b| 9 * b <= max_gates) {
        let (netlist, inputs, outputs) = ripple_carry_adder(nand2, bits);
        let vectors = vectors(&inputs, bits, bits as u64);
        let sta = Sta::new(&library, &netlist);
        let mut switched = 0;
        for v in &vectors {
            let report = sta.run(v, DelayMode::Proximity)?;
            if outputs.iter().all(|&po| report.net_event(po).is_none()) {
                return Err(format!("a {bits}-bit vector switched no output").into());
            }
            switched += netlist
                .gates()
                .iter()
                .filter(|g| report.net_event(g.output).is_some())
                .count();
        }
        let switching = switched as f64 / (netlist.gates().len() * VECTORS) as f64;
        sizes.push(Size {
            bits,
            netlist,
            vectors,
            switching,
            build: Vec::new(),
            compile: Vec::new(),
            run: Vec::new(),
        });
    }

    for _ in 0..ROUNDS {
        for size in &mut sizes {
            let gates = size.netlist.gates().len();
            size.build.push(ns_per_gate(gates, || {
                black_box(ripple_carry_adder(nand2, size.bits));
            }));
            size.compile.push(ns_per_gate(gates, || {
                black_box(Sta::new(&library, &size.netlist));
            }));
            let sta = Sta::new(&library, &size.netlist);
            size.run.push(ns_per_gate(gates * VECTORS, || {
                for v in &size.vectors {
                    black_box(sta.run(v, DelayMode::Proximity).ok());
                }
            }));
        }
    }

    println!(
        "{:>6} {:>7} {:>10} {:>14} {:>16} {:>12}",
        "bits", "gates", "switching", "build ns/gate", "compile ns/gate", "run ns/gate"
    );
    for size in sizes {
        println!(
            "{:>6} {:>7} {:>9.1}% {:>14.1} {:>16.1} {:>12.1}",
            size.bits,
            size.netlist.gates().len(),
            100.0 * size.switching,
            median(size.build),
            median(size.compile),
            median(size.run),
        );
    }
    Ok(())
}
