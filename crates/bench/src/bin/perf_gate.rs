//! The CI perf gate: turn the criterion harness's estimates into one
//! committed-comparable JSON artifact and fail on regressions.
//!
//! Two subcommands:
//!
//! * `perf_gate collect --input <estimates.jsonl> --output <BENCH.json>` —
//!   fold the per-benchmark JSON lines the (vendored) criterion harness
//!   appends under `CRITERION_OUTPUT_DIR` into one canonical, sorted JSON
//!   object (later lines win, so re-runs overwrite).
//! * `perf_gate compare --current <BENCH.json> --baseline <BENCH.json>
//!   [--threshold 0.25]` — fail (exit 1) when any benchmark present in the
//!   baseline regressed by more than the threshold (mean estimate), or
//!   disappeared from the current run. New benchmarks are reported but never
//!   fail the gate. The threshold can also be set via the
//!   `PERF_GATE_THRESHOLD` environment variable (CI hardware differs from
//!   the machine that seeded the baseline; widen the gate there rather than
//!   deleting it).
//!
//! Both files use one flat shape this tool both writes and parses — no JSON
//! dependency needed:
//!
//! ```json
//! {
//!   "schema": 1,
//!   "benches": {
//!     "streaming/producers_experiment_scale/pipeline/1": {"mean_ns": 12, "min_ns": 10}
//!   }
//! }
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// One benchmark's point estimates, in nanoseconds per iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Estimate {
    mean_ns: u128,
    min_ns: u128,
}

/// Extract the first double-quoted string of a line.
fn quoted(line: &str) -> Option<&str> {
    let start = line.find('"')? + 1;
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

/// The benchmark id a line describes: the value of an explicit `"id"` key
/// (harness JSONL), or the line's leading quoted string (this tool's own
/// output, where the id is the object key).
fn bench_id(line: &str) -> Option<&str> {
    match line.find("\"id\":") {
        Some(at) => quoted(&line[at + 5..]),
        None => quoted(line),
    }
}

/// Extract the integer following `"<key>":` on a line.
fn field(line: &str, key: &str) -> Option<u128> {
    let tag = format!("\"{key}\":");
    let at = line.find(&tag)? + tag.len();
    let digits: String = line[at..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Parse either format — the harness's JSONL or this tool's own output —
/// by scanning for lines that carry a `mean_ns` field. Later entries win.
fn parse_estimates(text: &str) -> BTreeMap<String, Estimate> {
    let mut benches = BTreeMap::new();
    for line in text.lines() {
        let (Some(id), Some(mean_ns)) = (bench_id(line), field(line, "mean_ns")) else {
            continue;
        };
        if id == "schema" || id == "benches" {
            continue;
        }
        let min_ns = field(line, "min_ns").unwrap_or(mean_ns);
        benches.insert(id.to_string(), Estimate { mean_ns, min_ns });
    }
    benches
}

/// Render the canonical artifact: sorted ids, one benchmark per line.
fn render(benches: &BTreeMap<String, Estimate>) -> String {
    let mut out = String::from("{\n  \"schema\": 1,\n  \"benches\": {\n");
    for (i, (id, est)) in benches.iter().enumerate() {
        let comma = if i + 1 == benches.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    \"{id}\": {{\"mean_ns\": {}, \"min_ns\": {}}}{comma}",
            est.mean_ns, est.min_ns
        );
    }
    out.push_str("  }\n}\n");
    out
}

/// Pull the value following a `--flag` out of the argument list.
fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn collect(args: &[String]) -> Result<(), String> {
    let input = arg_value(args, "--input").ok_or("collect needs --input <estimates.jsonl>")?;
    let output = arg_value(args, "--output").ok_or("collect needs --output <BENCH.json>")?;
    let text = std::fs::read_to_string(&input).map_err(|e| format!("reading {input}: {e}"))?;
    let benches = parse_estimates(&text);
    if benches.is_empty() {
        return Err(format!("{input} contains no benchmark estimates"));
    }
    std::fs::write(&output, render(&benches)).map_err(|e| format!("writing {output}: {e}"))?;
    println!(
        "collected {} benchmark estimates into {output}",
        benches.len()
    );
    Ok(())
}

fn compare(args: &[String]) -> Result<(), String> {
    let current_path =
        arg_value(args, "--current").ok_or("compare needs --current <BENCH.json>")?;
    let baseline_path =
        arg_value(args, "--baseline").ok_or("compare needs --baseline <BENCH.json>")?;
    let threshold: f64 = arg_value(args, "--threshold")
        .or_else(|| std::env::var("PERF_GATE_THRESHOLD").ok())
        .map(|v| v.parse().map_err(|e| format!("bad threshold {v}: {e}")))
        .transpose()?
        .unwrap_or(0.25);
    let current = parse_estimates(
        &std::fs::read_to_string(&current_path)
            .map_err(|e| format!("reading {current_path}: {e}"))?,
    );
    let baseline = parse_estimates(
        &std::fs::read_to_string(&baseline_path)
            .map_err(|e| format!("reading {baseline_path}: {e}"))?,
    );
    if baseline.is_empty() {
        return Err(format!("{baseline_path} contains no benchmark estimates"));
    }

    let mut failures = Vec::new();
    for (id, base) in &baseline {
        match current.get(id) {
            None => failures.push(format!("{id}: present in baseline but not measured")),
            Some(cur) => {
                let ratio = cur.mean_ns as f64 / base.mean_ns.max(1) as f64;
                let verdict = if ratio > 1.0 + threshold {
                    failures.push(format!(
                        "{id}: {:.2}x baseline mean ({} ns vs {} ns)",
                        ratio, cur.mean_ns, base.mean_ns
                    ));
                    "REGRESSED"
                } else {
                    "ok"
                };
                println!(
                    "{id}: {:.2}x baseline ({} ns vs {} ns) {verdict}",
                    ratio, cur.mean_ns, base.mean_ns
                );
            }
        }
    }
    for id in current.keys().filter(|id| !baseline.contains_key(*id)) {
        println!("{id}: new benchmark (no baseline yet)");
    }
    if failures.is_empty() {
        println!(
            "perf gate passed: {} benchmarks within {:.0}% of baseline",
            baseline.len(),
            threshold * 100.0
        );
        Ok(())
    } else {
        Err(format!(
            "perf gate failed (threshold {:.0}%):\n  {}",
            threshold * 100.0,
            failures.join("\n  ")
        ))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("collect") => collect(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => Err(
            "usage: perf_gate collect --input <jsonl> --output <json> | \
                  perf_gate compare --current <json> --baseline <json> [--threshold 0.25]"
                .into(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perf_gate: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_harness_jsonl_and_own_output() {
        let jsonl = "{\"id\":\"g/a\",\"mean_ns\":100,\"min_ns\":90}\n\
                     {\"id\":\"g/b\",\"mean_ns\":200,\"min_ns\":180}\n\
                     {\"id\":\"g/a\",\"mean_ns\":110,\"min_ns\":95}\n";
        let parsed = parse_estimates(jsonl);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed["g/a"].mean_ns, 110, "later lines win");
        let roundtrip = parse_estimates(&render(&parsed));
        assert_eq!(parsed, roundtrip, "own output parses back identically");
    }

    #[test]
    fn field_extraction_is_line_local() {
        assert_eq!(field("{\"mean_ns\": 42}", "mean_ns"), Some(42));
        assert_eq!(field("no fields here", "mean_ns"), None);
        assert_eq!(quoted("  \"hello\": 1"), Some("hello"));
        assert_eq!(quoted("nothing"), None);
        assert_eq!(bench_id("{\"id\":\"g/a\",\"mean_ns\":1}"), Some("g/a"));
        assert_eq!(bench_id("    \"g/a\": {\"mean_ns\": 1}"), Some("g/a"));
    }
}
