//! Every input the benchmark feeds the program, generated from `--seed`
//! alone: the Table 5-1 scoring population, the STA input vectors, and the
//! serving workload's request bytes. The program sees only these values.

use crate::rng::Rng;
use proxim_model::InputEvent;
use proxim_numeric::pwl::Edge;

/// Stream ids keep the inputs independent of each other under one seed.
const POPULATION_STREAM: u64 = 1;
const STA_STREAM: u64 = 2;
const REQUEST_STREAM: u64 = 3;

/// One Table 5-1 configuration (§5): three falling NAND3 inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    /// Transition times of a, b, c, in seconds (uniform 50–2000 ps).
    pub tau: [f64; 3],
    /// Separation of b from a, in seconds (uniform ±500 ps).
    pub s_ab: f64,
    /// Separation of c from a, in seconds (uniform ±500 ps).
    pub s_ac: f64,
}

/// The Table 5-1 population of `count` configurations, in seeded order.
///
/// The set is fixed: the first `count` points of the 5-D Halton sequence
/// (bases 2, 3, 5, 7, 11) mapped onto the §5 ranges, an even cover of the
/// paper's distribution. Like the paper's one table, the accuracy metrics
/// computed over it are then identical on every run of a commit and
/// comparable across commits; over independent draws the model's narrow
/// high-error region (slow a and b, a fast late c) makes the worst error
/// swing 29–80 % from seed to seed. The seed sets the order in which the
/// configurations are scored, which no statistic depends on.
pub fn population(seed: u64, count: usize) -> Vec<Config> {
    const BASES: [u64; 5] = [2, 3, 5, 7, 11];
    let tau = |x: f64| 50e-12 + x * 1950e-12;
    let s = |x: f64| -500e-12 + x * 1000e-12;
    let mut pop: Vec<Config> = (1..=count as u64)
        .map(|i| {
            let u: [f64; 5] = std::array::from_fn(|d| radical_inverse(i, BASES[d]));
            Config {
                tau: [tau(u[0]), tau(u[1]), tau(u[2])],
                s_ab: s(u[3]),
                s_ac: s(u[4]),
            }
        })
        .collect();
    let mut rng = Rng::new(seed, POPULATION_STREAM);
    for i in (1..pop.len()).rev() {
        pop.swap(i, rng.below(i + 1));
    }
    pop
}

/// The van der Corput radical inverse of `i` in `base`.
fn radical_inverse(mut i: u64, base: u64) -> f64 {
    let mut inv = 0.0;
    let mut scale = 1.0 / base as f64;
    while i > 0 {
        inv += (i % base) as f64 * scale;
        i /= base;
        scale /= base as f64;
    }
    inv
}

/// One primary-input assignment of an STA vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pi {
    /// Held at a level.
    Stable(bool),
    /// One ramp: direction, start time and transition time in seconds.
    Switch(Edge, f64, f64),
}

/// Separations inside this bound put an adder bit's two inputs inside the
/// proximity window; the far draws (1.5–3 ns) put them well outside it.
const NEAR_S: f64 = 150e-12;

/// `count` seeded input vectors for a `bits`-bit ripple-carry adder, in
/// the adder's input order (`a0.., b0.., cin`). Per bit, both inputs switch
/// together (half of those inside the proximity window, half far apart),
/// one switches, or neither does — so gates see dual-input and
/// single-input events alike.
pub fn sta_vectors(seed: u64, bits: usize, count: usize) -> Vec<Vec<Pi>> {
    let mut rng = Rng::new(seed, STA_STREAM);
    (0..count)
        .map(|_| {
            let mut a = Vec::with_capacity(bits);
            let mut b = Vec::with_capacity(bits);
            for _ in 0..bits {
                let edge = if rng.chance(0.5) {
                    Edge::Rising
                } else {
                    Edge::Falling
                };
                // Every ramp starts after a 3 ns lead so far separations
                // never push a start time below zero.
                let t_a = 3e-9 + rng.range(0.0, 200e-12);
                let tt_a = rng.range(100e-12, 1000e-12);
                let tt_b = rng.range(100e-12, 1000e-12);
                let mode = rng.unit();
                if mode < 0.45 {
                    let s = if rng.chance(0.5) {
                        rng.range(-NEAR_S, NEAR_S)
                    } else {
                        let far = rng.range(1.5e-9, 3e-9);
                        if rng.chance(0.5) {
                            far
                        } else {
                            -far
                        }
                    };
                    a.push(Pi::Switch(edge, t_a, tt_a));
                    b.push(Pi::Switch(edge, t_a + s, tt_b));
                } else if mode < 0.75 {
                    let level = rng.chance(0.5);
                    if rng.chance(0.5) {
                        a.push(Pi::Switch(edge, t_a, tt_a));
                        b.push(Pi::Stable(level));
                    } else {
                        a.push(Pi::Stable(level));
                        b.push(Pi::Switch(edge, t_a, tt_b));
                    }
                } else {
                    a.push(Pi::Stable(rng.chance(0.5)));
                    b.push(Pi::Stable(rng.chance(0.5)));
                }
            }
            let cin = if rng.chance(0.5) {
                Pi::Stable(rng.chance(0.5))
            } else {
                let edge = if rng.chance(0.5) {
                    Edge::Rising
                } else {
                    Edge::Falling
                };
                Pi::Switch(edge, 3e-9, rng.range(100e-12, 1000e-12))
            };
            a.into_iter().chain(b).chain(std::iter::once(cin)).collect()
        })
        .collect()
}

/// One planned request: which model, which queries, and whether it goes
/// out as a `batch` op.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// Index into the served model list.
    pub model: usize,
    /// The queries; one for a `query` op, [`BATCH_LEN`] for a `batch` op.
    pub queries: Vec<Vec<InputEvent>>,
    /// Whether this is a `batch` op.
    pub batch: bool,
}

/// Queries per `batch` op.
pub const BATCH_LEN: usize = 16;
/// Share of requests sent as single `query` ops; the rest are batches.
/// The share is exact in every plan.
pub const SINGLE_SHARE: f64 = 0.8;

/// How a connection's requests pick their models and ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// A random model per request; exactly [`SINGLE_SHARE`] single
    /// `query` ops, the rest [`BATCH_LEN`]-query batches.
    Warm,
    /// The models in round-robin order (every request a different model
    /// than the last), single `query` ops only, so every request pays one
    /// cold load and the latencies form one population.
    Cold,
}

/// `count` seeded requests for connection `conn` against models with the
/// given input counts.
pub fn request_plan(
    seed: u64,
    conn: u64,
    model_inputs: &[usize],
    count: usize,
    mix: Mix,
) -> Vec<Planned> {
    let mut rng = Rng::new(seed, REQUEST_STREAM + 16 * conn);
    // Exactly the planned share of batches, at seeded positions, so the
    // answers per request do not drift with the seed.
    let batches = match mix {
        Mix::Warm => ((1.0 - SINGLE_SHARE) * count as f64).round() as usize,
        Mix::Cold => 0,
    };
    let mut is_batch: Vec<bool> = (0..count).map(|i| i < batches).collect();
    for i in (1..count).rev() {
        is_batch.swap(i, rng.below(i + 1));
    }
    (0..count)
        .map(|i| {
            let model = match mix {
                Mix::Warm => rng.below(model_inputs.len()),
                Mix::Cold => i % model_inputs.len(),
            };
            let batch = is_batch[i];
            let n = if batch { BATCH_LEN } else { 1 };
            let queries = (0..n)
                .map(|_| query(&mut rng, model_inputs[model]))
                .collect();
            Planned {
                model,
                queries,
                batch,
            }
        })
        .collect()
}

/// One query: 1..=`inputs` pins switching in the same direction, with
/// transition times uniform in 50–2000 ps and arrivals within ±500 ps of
/// the first.
fn query(rng: &mut Rng, inputs: usize) -> Vec<InputEvent> {
    let k = 1 + rng.below(inputs);
    let mut pins: Vec<usize> = (0..inputs).collect();
    for i in (1..pins.len()).rev() {
        pins.swap(i, rng.below(i + 1));
    }
    let edge = if rng.chance(0.5) {
        Edge::Rising
    } else {
        Edge::Falling
    };
    pins[..k]
        .iter()
        .enumerate()
        .map(|(j, &pin)| {
            let t = if j == 0 {
                0.0
            } else {
                rng.range(-500e-12, 500e-12)
            };
            InputEvent::new(pin, edge, t, rng.range(50e-12, 2000e-12))
        })
        .collect()
}

/// Renders a planned request as its wire JSON. Floats are written in
/// shortest round-trip form, so the server parses back the exact bits the
/// in-process check evaluates.
pub fn render(p: &Planned, model_name: &str) -> String {
    let mut out = String::with_capacity(128 * p.queries.len());
    if p.batch {
        out.push_str(&format!(
            "{{\"op\":\"batch\",\"model\":\"{model_name}\",\"queries\":["
        ));
        for (i, q) in p.queries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"events\":");
            push_events(&mut out, q);
            out.push('}');
        }
        out.push_str("]}");
    } else {
        out.push_str(&format!(
            "{{\"op\":\"query\",\"model\":\"{model_name}\",\"events\":"
        ));
        push_events(&mut out, &p.queries[0]);
        out.push('}');
    }
    out
}

fn push_events(out: &mut String, events: &[InputEvent]) {
    out.push('[');
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let edge = match e.edge() {
            Edge::Rising => "rise",
            Edge::Falling => "fall",
        };
        out.push_str(&format!(
            "{{\"pin\":{},\"edge\":\"{edge}\",\"t\":{:e},\"tt\":{:e}}}",
            e.pin, e.ramp.t_start, e.ramp.transition_time
        ));
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests(seed: u64) -> String {
        let names = ["nand2", "nand3", "nor2"];
        request_plan(seed, 0, &[2, 3, 2], 64, Mix::Warm)
            .iter()
            .map(|p| render(p, names[p.model]))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(requests(7), requests(7));
        assert_eq!(
            format!("{:?}", sta_vectors(7, 64, 8)),
            format!("{:?}", sta_vectors(7, 64, 8))
        );
        assert_eq!(
            format!("{:?}", population(7, 50)),
            format!("{:?}", population(7, 50))
        );
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(requests(7), requests(8));
        assert_ne!(sta_vectors(7, 64, 8), sta_vectors(8, 64, 8));
        assert_ne!(population(7, 50), population(8, 50));
    }

    #[test]
    fn rendered_requests_parse_back_to_the_planned_bits() {
        for p in request_plan(3, 1, &[2, 3], 200, Mix::Warm) {
            let wire = render(&p, "m");
            let parsed = proxim_serve::proto::parse_request(wire.as_bytes()).expect("parses");
            let queries: Vec<Vec<InputEvent>> = match parsed {
                proxim_serve::Request::Query { query, .. } => vec![query.events],
                proxim_serve::Request::Batch { queries, .. } => {
                    queries.into_iter().map(|q| q.events).collect()
                }
                other => panic!("unexpected request {other:?}"),
            };
            assert_eq!(queries, p.queries);
        }
    }

    #[test]
    fn population_is_one_fixed_set_in_seeded_order() {
        let key = |mut p: Vec<Config>| {
            p.sort_by(|a, b| a.tau[0].total_cmp(&b.tau[0]));
            format!("{p:?}")
        };
        assert_eq!(key(population(7, 200)), key(population(8, 200)));
    }

    #[test]
    fn population_follows_the_table_5_1_protocol() {
        for c in population(11, 500) {
            assert!(c.tau.iter().all(|t| (50e-12..2000e-12).contains(t)));
            assert!((-500e-12..500e-12).contains(&c.s_ab));
            assert!((-500e-12..500e-12).contains(&c.s_ac));
        }
    }

    #[test]
    fn sta_vectors_mix_near_and_far_pairs() {
        let (mut near, mut far) = (0, 0);
        for v in sta_vectors(5, 64, 16) {
            assert_eq!(v.len(), 129);
            for i in 0..64 {
                if let (Pi::Switch(_, ta, _), Pi::Switch(_, tb, _)) = (v[i], v[64 + i]) {
                    if (ta - tb).abs() <= NEAR_S {
                        near += 1;
                    } else {
                        far += 1;
                    }
                }
            }
        }
        assert!(near > 50 && far > 50, "near {near}, far {far}");
    }
}
