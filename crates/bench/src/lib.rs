//! Experiment harness for the proxim suite.
//!
//! Every table and figure in the paper's evaluation maps to one module here
//! (see DESIGN.md §4 for the index); the `experiments` binary dispatches on
//! experiment ids and prints the regenerated rows/series. The Criterion
//! benches under `benches/` exercise the same code paths at reduced sizes.

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
