//! `e2ebench` command line. See `README.md`.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one pass of
//!   one workload in this process; the last line of standard output is the
//!   result object.
//! * no `--workload` — the suite: every workload, both passes, one child
//!   process each; prints every metric by name with its unit.
//! * `--aa` — the suite's untraced pass as two interleaved sets, compared
//!   against the bounds in `BENCHMARK.json`.
//!
//! `--smoke` shrinks every count (a check of the plumbing, not a measurement).

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use e2ebench::json::{self, Value};
use e2ebench::metrics::{Effort, END_TO_END, PER_LAYER};
use e2ebench::stats::{median, quartiles};
use e2ebench::workloads::WORKLOADS;
use e2ebench::{os, traced, untraced};

#[global_allocator]
static ALLOC: e2ebench::alloc::Counting = e2ebench::alloc::Counting;

/// `--seconds` of a suite or `--aa` child, as `BENCHMARK.json` sets it.
const RUN_SECONDS: f64 = 25.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    aa: bool,
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        aa: false,
        runs: 5,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--runs" => args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--smoke" => args.smoke = true,
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.smoke {
        args.seconds = 0.0;
    }
    Ok(args)
}

/// The result object the contract asks for, on one line.
fn result_line(failed: u64, attempted: u64, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// One pass of one workload, in this process, pinned to one CPU.
fn run_one(workload: &str, args: &Args) -> Result<bool, String> {
    let cpu = os::pin_to_last_cpu().map_err(|e| format!("pinning: {e}"))?;
    let effort = if args.smoke {
        Effort::SMOKE
    } else {
        Effort::FULL
    };
    println!(
        "workload={workload} seed={} trace={} pinned_cpu={cpu} available_parallelism={}",
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    if args.trace {
        let run = traced::run(workload, args.seed, args.seconds, effort)?;
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target");
        let path = dir.join(format!("spans-{workload}.json"));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, run.spans.to_json()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "ops={} failed_ops={} spans={} span_file={}",
            run.ops,
            run.failed_ops,
            run.spans.spans().len(),
            path.display()
        );
        let metrics: Vec<_> = PER_LAYER
            .iter()
            .zip(&run.metrics)
            .map(|(&(name, unit), &(measured, value))| {
                assert_eq!(
                    name, measured,
                    "metrics.rs and traced.rs list the same names"
                );
                (name, value, unit)
            })
            .collect();
        println!("{}", result_line(run.failed_ops, run.ops, &metrics));
    } else {
        let run = untraced::run(workload, args.seed, args.seconds, effort)?;
        println!("ops={} failed_ops={}", run.ops, run.failed_ops);
        for (name, value, unit) in &run.raw {
            println!("{name}={value} {unit} (ungated)");
        }
        let values = [
            run.setup_s,
            run.obs_per_ref_s,
            run.alloc_bytes_per_obs,
            run.peak_heap_mb,
        ];
        let metrics: Vec<_> = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect();
        println!("{}", result_line(run.failed_ops, run.ops, &metrics));
    }
    // A printed result is a finished run: `correct` carries the verdict.
    Ok(true)
}

/// Run this program again as a child for one pass of one workload — a fresh
/// heap and allocator for every workload — and parse its result line.
fn child(workload: &str, seed: u64, trace: bool, args: &Args) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() && stdout.trim().is_empty() {
        return Err(format!(
            "{workload} trace={trace}: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    json::parse(stdout.lines().last().unwrap_or_default())
        .map_err(|e| format!("{workload} trace={trace}: {e}"))
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Every workload, both passes: every metric by name with its unit.
fn suite(args: &Args) -> Result<bool, String> {
    let mut clean = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            let result = child(workload, args.seed, trace, args)?;
            let count = |key| result.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
            println!(
                "{workload} trace={} ops={} failed_ops={}",
                u8::from(trace),
                count("attempted"),
                count("failed")
            );
            clean &= count("failed") == 0.0;
            for (name, m) in result.get("metrics").map_or(&[][..], Value::members) {
                let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or("?");
                println!("  {workload} {name} = {value} {unit}");
            }
        }
    }
    Ok(clean)
}

/// The untraced pass as two interleaved sets of `--runs` invocations per
/// workload (A B A B …, another seed every invocation, as the acceptance
/// driver does): per metric × workload both medians, quartiles and the gap;
/// fails if a gap — or, `setup_s` aside, a set's own spread — exceeds the
/// metric's bound.
fn aa(args: &Args) -> Result<bool, String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let benchmark = json::parse(&text)?;
    let mut clean = true;
    println!("workload metric | A median [q1 q3] spread | B median [q1 q3] spread | gap bound");
    for workload in WORKLOADS {
        let mut sets: [Vec<Value>; 2] = [Vec::new(), Vec::new()];
        for run in 0..2 * args.runs.max(2) {
            let seed = args.seed + run as u64;
            sets[run % 2].push(child(workload, seed, false, args)?);
        }
        for spec in benchmark.get("end_to_end").map_or(&[][..], Value::items) {
            let name = spec
                .get("name")
                .and_then(Value::as_str)
                .ok_or("a metric without a name")?;
            let bound = spec
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("a metric without a bound")?;
            let higher = spec.get("better").and_then(Value::as_str) == Some("higher");
            let mut summary = Vec::new();
            for set in &sets {
                let values: Vec<f64> = set.iter().filter_map(|r| metric(r, name)).collect();
                if values.len() != set.len() {
                    return Err(format!("{workload}: a run without {name}"));
                }
                let (q1, q3) = quartiles(&values);
                summary.push((median(&values), q1, q3));
            }
            let [(a, a1, a3), (b, b1, b3)] = summary[..] else {
                unreachable!("two sets")
            };
            let worse = if higher { (a - b) / a } else { (b - a) / a };
            let spreads = [(a3 - a1) / a, (b3 - b1) / b];
            let ok =
                worse.abs() <= bound && (name == "setup_s" || spreads.iter().all(|s| *s <= bound));
            clean &= ok;
            println!(
                "{workload} {name} | {a:.6} [{a1:.6} {a3:.6}] {:.4} | {b:.6} [{b1:.6} {b3:.6}] {:.4} | {:+.4} {bound} {}",
                spreads[0],
                spreads[1],
                worse,
                if ok { "ok" } else { "FAIL" }
            );
        }
        let failed: f64 = sets
            .iter()
            .flatten()
            .filter_map(|r| r.get("failed").and_then(Value::as_f64))
            .sum();
        println!("{workload} failed_ops={failed}");
        clean &= failed == 0.0;
    }
    Ok(clean)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match &args.workload {
        Some(workload) => run_one(workload, &args),
        None if args.aa => aa(&args),
        None => suite(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(error) => {
            eprintln!("e2ebench: {error}");
            ExitCode::from(2)
        }
    }
}
