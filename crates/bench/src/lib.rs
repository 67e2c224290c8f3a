//! Experiment harness for the proxim suite.
//!
//! Every table and figure in the paper's evaluation maps to one module here
//! (see DESIGN.md §4 for the index); the `experiments` binary dispatches on
//! experiment ids and prints the regenerated rows/series. The
//! `bench_characterize` and `bench_serve` binaries gate the characterization
//! pipeline and the serving daemon.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod baselines;
pub mod env;
pub mod fanin;
pub mod fig1_2;
pub mod fig2_1;
pub mod fig3_3;
pub mod fig4_2;
pub mod fig6_1;
pub mod path_validation;
pub mod table5_1;

pub use env::ExperimentEnv;

use std::ffi::OsStr;

/// Whether the benches' regression gates run: yes unless
/// `PROXIM_BENCH_NO_GATE` is set to something other than empty or `0`.
pub fn gates_enabled() -> bool {
    gates_enabled_for(std::env::var_os("PROXIM_BENCH_NO_GATE").as_deref())
}

fn gates_enabled_for(value: Option<&OsStr>) -> bool {
    value.is_none_or(|v| v.is_empty() || v == "0")
}

/// Process CPU time so far (user + system, all threads including reaped
/// ones), from `/proc/self/stat`, in 10 ms ticks. On a fully loaded box
/// throughput is the inverse of CPU per operation, and unlike wall clock
/// this is immune to preemption by whatever else the host is running —
/// which is what lets a few-percent gate hold on a shared machine. Returns
/// 0.0 when the file is unreadable (non-Linux), which disables CPU-based
/// ratios and gates.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // comm (field 2) may contain spaces; fields are stable after the ')'.
    let after = match stat.rsplit_once(')') {
        Some((_, rest)) => rest,
        None => return 0.0,
    };
    let mut it = after.split_ascii_whitespace();
    let utime = it.nth(11).and_then(|v| v.parse::<u64>().ok());
    let stime = it.next().and_then(|v| v.parse::<u64>().ok());
    match (utime, stime) {
        // USER_HZ is 100 on every Linux ABI std supports.
        (Some(u), Some(s)) => (u + s) as f64 / 100.0,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_run_unless_the_variable_asks_otherwise() {
        assert!(gates_enabled_for(None));
        assert!(gates_enabled_for(Some(OsStr::new(""))));
        assert!(gates_enabled_for(Some(OsStr::new("0"))));
        assert!(!gates_enabled_for(Some(OsStr::new("1"))));
        assert!(!gates_enabled_for(Some(OsStr::new("yes"))));
        assert!(!gates_enabled_for(Some(OsStr::new("00"))));
    }
}
