//! A parser for ISCAS-style `.bench` netlists.
//!
//! The accepted grammar (case-insensitive keywords, `#` comments):
//!
//! ```text
//! # c17
//! INPUT(1)
//! OUTPUT(22)
//! 10 = NAND(1, 3)
//! 22 = NAND(10, 16)
//! ```
//!
//! Gate types are resolved to library cells through a caller-provided
//! resolver, so the parser stays independent of which cells were
//! characterized. `NOT`/`INV`, `NAND`, `NOR`, `AOI21`, `OAI21` are the
//! type names the bundled resolver in [`crate::library`] users typically
//! map.

use crate::library::CellId;
use crate::netlist::{GateNetlist, NetId};
use std::fmt;

/// The error returned by [`parse_bench`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBenchError {
    /// 1-based line number; `0` for whole-design problems (cycles,
    /// undriven outputs, an input over the size limit) with no single
    /// offending line.
    pub line: usize,
    /// 1-based column (in characters) of the offending token within its
    /// line; `1` when the error has no sharper position.
    pub column: usize,
    what: String,
}

impl fmt::Display for ParseBenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "bench parse error: {}", self.what)
        } else {
            write!(
                f,
                "bench parse error at line {}, column {}: {}",
                self.line, self.column, self.what
            )
        }
    }
}

impl std::error::Error for ParseBenchError {}

/// Upper bound on accepted `.bench` text. The largest ISCAS/ITC designs
/// are well under a megabyte; bounding the input keeps an adversarial file
/// from committing the parser to gigabytes of net-name allocations.
pub const MAX_BENCH_BYTES: usize = 4 * 1024 * 1024;

/// Upper bound on a single net-name or gate-type identifier.
pub const MAX_NAME_LEN: usize = 256;

/// The parsed design.
#[derive(Debug, Clone)]
pub struct ParsedBench {
    /// The structural netlist.
    pub netlist: GateNetlist,
    /// Primary inputs, in declaration order.
    pub inputs: Vec<NetId>,
    /// Primary outputs, in declaration order.
    pub outputs: Vec<NetId>,
}

fn err(line: usize, what: impl Into<String>) -> ParseBenchError {
    ParseBenchError {
        line,
        column: 1,
        what: what.into(),
    }
}

fn err_at(line: usize, column: usize, what: impl Into<String>) -> ParseBenchError {
    ParseBenchError {
        line,
        column,
        what: what.into(),
    }
}

/// 1-based character column of `token` within `raw`, for tokens that are
/// subslices of `raw` (plain pointer arithmetic on the slice bounds — no
/// `unsafe`). Falls back to column 1 when `token` is not a subslice.
fn col_in(raw: &str, token: &str) -> usize {
    let off = (token.as_ptr() as usize).wrapping_sub(raw.as_ptr() as usize);
    if off <= raw.len() && raw.is_char_boundary(off) {
        raw[..off].chars().count() + 1
    } else {
        1
    }
}

/// Enforces [`MAX_NAME_LEN`] on one identifier, pointing at its column.
fn check_name(name: &str, raw: &str, line: usize) -> Result<(), ParseBenchError> {
    if name.len() > MAX_NAME_LEN {
        return Err(err_at(
            line,
            col_in(raw, name),
            format!(
                "identifier of {} bytes exceeds the {MAX_NAME_LEN}-byte limit",
                name.len()
            ),
        ));
    }
    Ok(())
}

/// Parses a `.bench` netlist. `resolve(gate_type, fan_in)` maps a gate
/// keyword (upper-cased, e.g. `"NAND"`) and its fan-in to a library cell.
///
/// # Errors
///
/// Returns [`ParseBenchError`] on malformed lines, unknown gate types, or
/// structural problems (validated via [`GateNetlist::topo_order`]).
pub fn parse_bench(
    text: &str,
    mut resolve: impl FnMut(&str, usize) -> Option<CellId>,
) -> Result<ParsedBench, ParseBenchError> {
    if text.len() > MAX_BENCH_BYTES {
        return Err(err(
            0,
            format!(
                "input is {} bytes, over the {MAX_BENCH_BYTES}-byte limit",
                text.len()
            ),
        ));
    }
    let mut netlist = GateNetlist::new();
    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    let mut gate_count = 0usize;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let upper = line.to_ascii_uppercase();
        if upper.starts_with("INPUT") {
            let name = paren_arg(&line["INPUT".len()..], line, raw, line_no)?;
            check_name(name, raw, line_no)?;
            let net = netlist.net(name);
            netlist.mark_primary_input(net);
            inputs.push(net);
            continue;
        }
        if upper.starts_with("OUTPUT") {
            let name = paren_arg(&line["OUTPUT".len()..], line, raw, line_no)?;
            check_name(name, raw, line_no)?;
            outputs.push(netlist.net(name));
            continue;
        }
        // `lhs = TYPE(arg, ...)`
        let Some((lhs, rhs)) = line.split_once('=') else {
            return Err(err_at(
                line_no,
                col_in(raw, line),
                format!("expected `net = GATE(...)`, got {line:?}"),
            ));
        };
        let out_name = lhs.trim();
        if out_name.is_empty() {
            return Err(err_at(line_no, col_in(raw, line), "empty output net name"));
        }
        check_name(out_name, raw, line_no)?;
        let rhs = rhs.trim();
        let Some(open) = rhs.find('(') else {
            return Err(err_at(
                line_no,
                col_in(raw, rhs),
                "missing `(` in gate expression",
            ));
        };
        if !rhs.ends_with(')') {
            return Err(err_at(
                line_no,
                col_in(raw, rhs) + rhs.chars().count().saturating_sub(1),
                "missing `)` in gate expression",
            ));
        }
        let type_token = rhs[..open].trim();
        check_name(type_token, raw, line_no)?;
        let gate_type = type_token.to_ascii_uppercase();
        let args: Vec<&str> = rhs[open + 1..rhs.len() - 1]
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        if args.is_empty() {
            return Err(err_at(
                line_no,
                col_in(raw, &rhs[open..]),
                "gate has no inputs",
            ));
        }
        let Some(cell) = resolve(&gate_type, args.len()) else {
            return Err(err_at(
                line_no,
                col_in(raw, type_token),
                format!("no library cell for {gate_type}/{}", args.len()),
            ));
        };
        let mut input_nets = Vec::with_capacity(args.len());
        for a in &args {
            check_name(a, raw, line_no)?;
            input_nets.push(netlist.net(a));
        }
        let out_net = netlist.net(out_name);
        gate_count += 1;
        netlist.add_gate(
            &format!("g{gate_count}_{out_name}"),
            cell,
            &input_nets,
            out_net,
        );
    }

    netlist.topo_order().map_err(|e| err(0, e.to_string()))?;
    for &po in &outputs {
        if netlist.driver_of(po).is_none() && !netlist.is_primary_input(po) {
            return Err(err(
                0,
                format!("output {} is undriven", netlist.net_name(po)),
            ));
        }
    }
    Ok(ParsedBench {
        netlist,
        inputs,
        outputs,
    })
}

fn paren_arg<'a>(
    rest: &'a str,
    original: &str,
    raw: &str,
    line: usize,
) -> Result<&'a str, ParseBenchError> {
    let rest = rest.trim();
    let inner = rest
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| {
            err_at(
                line,
                col_in(raw, rest),
                format!("expected `(name)` in {original:?}"),
            )
        })?;
    let name = inner.trim();
    if name.is_empty() {
        return Err(err_at(line, col_in(raw, inner), "empty net name"));
    }
    Ok(name)
}

/// The ISCAS-85 C17 benchmark in bench format, for tests and demos.
pub const C17_BENCH: &str = "\
# c17 (ISCAS-85)
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
";

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn nand_only(ty: &str, fanin: usize) -> Option<CellId> {
        (ty == "NAND" && fanin == 2).then_some(CellId(0))
    }

    #[test]
    fn parses_c17() {
        let p = parse_bench(C17_BENCH, nand_only).unwrap();
        assert_eq!(p.inputs.len(), 5);
        assert_eq!(p.outputs.len(), 2);
        assert_eq!(p.netlist.gates().len(), 6);
        assert!(p.netlist.topo_order().is_ok());
        // Same structure as the programmatic builder.
        let (built, pis, pos) = crate::circuits::c17(CellId(0));
        assert_eq!(p.netlist.gates().len(), built.gates().len());
        assert_eq!(p.inputs.len(), pis.len());
        assert_eq!(p.outputs.len(), pos.len());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "
# a comment
INPUT(a)   # trailing comment

OUTPUT(y)
y = NAND(a, a)
";
        let p = parse_bench(text, nand_only).unwrap();
        assert_eq!(p.inputs.len(), 1);
        assert_eq!(p.netlist.gates().len(), 1);
    }

    #[test]
    fn mixed_case_keywords_accepted() {
        let text = "input(x)\noutput(y)\ny = nand(x, x)\n";
        let p = parse_bench(text, nand_only).unwrap();
        assert_eq!(p.netlist.net_name(p.inputs[0]), "x");
    }

    #[test]
    fn unknown_gate_type_reports_line() {
        let text = "INPUT(a)\ny = XOR(a, a)\n";
        let e = parse_bench(text, nand_only).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("XOR"));
    }

    #[test]
    fn errors_carry_column_of_offending_token() {
        // The unknown gate type starts at column 5 of `y = XOR(a, a)`.
        let e = parse_bench("INPUT(a)\ny = XOR(a, a)\n", nand_only).unwrap_err();
        assert_eq!((e.line, e.column), (2, 5), "{e}");
        assert!(e.to_string().contains("line 2, column 5"), "{e}");

        // A missing `)` points at the last character of the expression.
        let e = parse_bench("INPUT(a)\ny = NAND(a, a\n", nand_only).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.column > 1, "{e}");

        // Indentation shifts the reported column accordingly.
        let e = parse_bench("INPUT(a)\n   y = XOR(a, a)\n", nand_only).unwrap_err();
        assert_eq!((e.line, e.column), (2, 8), "{e}");
    }

    #[test]
    fn oversized_input_rejected_without_parsing() {
        let text = "#".repeat(MAX_BENCH_BYTES + 1);
        let e = parse_bench(&text, nand_only).unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.to_string().contains("limit"), "{e}");
    }

    #[test]
    fn overlong_identifier_rejected() {
        let long = "n".repeat(MAX_NAME_LEN + 1);
        for text in [
            format!("INPUT({long})\n"),
            format!("INPUT(a)\n{long} = NAND(a, a)\n"),
            format!("INPUT(a)\ny = NAND(a, {long})\n"),
        ] {
            let e = parse_bench(&text, nand_only).unwrap_err();
            assert!(e.to_string().contains("limit"), "{e}");
        }
        // Exactly at the limit is fine.
        let ok = "o".repeat(MAX_NAME_LEN);
        let text = format!("INPUT({ok})\ny = NAND({ok}, {ok})\n");
        parse_bench(&text, nand_only).unwrap();
    }

    #[test]
    fn malformed_lines_rejected() {
        for bad in [
            "INPUT a",
            "y = NAND(a, b",
            "y NAND(a)",
            "= NAND(a)",
            "y = NAND()",
        ] {
            let text = format!("INPUT(a)\nINPUT(b)\n{bad}\n");
            assert!(parse_bench(&text, nand_only).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn undriven_output_rejected() {
        let text = "INPUT(a)\nOUTPUT(ghost)\ny = NAND(a, a)\n";
        assert!(parse_bench(text, nand_only).is_err());
    }

    #[test]
    fn cyclic_bench_rejected() {
        let text = "INPUT(a)\nx = NAND(y, a)\ny = NAND(x, a)\n";
        assert!(parse_bench(text, nand_only).is_err());
    }
}
