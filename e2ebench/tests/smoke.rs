//! `--smoke`: the whole suite at tiny counts. Every workload must print
//! exactly the metric names `BENCHMARK.json` declares — end-to-end names from
//! the untraced pass, per-layer names from the traced pass — and fail no op.

use std::collections::BTreeSet;
use std::process::Command;
use std::time::Instant;

use e2ebench::json::{self, Value};

fn names(benchmark: &Value, key: &str) -> BTreeSet<String> {
    benchmark
        .get(key)
        .expect("BENCHMARK.json has the key")
        .items()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

#[test]
fn smoke_run_emits_every_declared_metric_and_nothing_else() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let benchmark = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let workloads = names(&benchmark, "workloads");
    let declared: BTreeSet<String> = names(&benchmark, "end_to_end")
        .union(&names(&benchmark, "per_layer"))
        .cloned()
        .collect();

    let started = Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .arg("--smoke")
        .output()
        .unwrap();
    let stdout = String::from_utf8(output.stdout).unwrap();
    println!("{stdout}");
    println!("smoke suite took {:.1} s", started.elapsed().as_secs_f64());
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    for workload in &workloads {
        // "<workload> trace=<0|1> ops=<n> failed_ops=<n>", then one
        // "  <workload> <name> = <value> <unit>" per metric.
        let passes: Vec<&str> = stdout
            .lines()
            .filter(|l| l.starts_with(&format!("{workload} trace=")))
            .collect();
        assert_eq!(passes.len(), 2, "{workload}: an untraced and a traced pass");
        for pass in passes {
            assert!(pass.ends_with(" failed_ops=0"), "{pass}");
            assert!(!pass.contains(" ops=0 "), "{pass}");
        }
        let prefix = format!("  {workload} ");
        let printed: Vec<&str> = stdout
            .lines()
            .filter_map(|l| l.strip_prefix(&prefix))
            .map(|l| l.split(' ').next().unwrap())
            .collect();
        let unique: BTreeSet<String> = printed.iter().map(|n| n.to_string()).collect();
        assert_eq!(
            unique.len(),
            printed.len(),
            "{workload}: a name printed twice"
        );
        assert_eq!(
            unique, declared,
            "{workload}: printed names vs BENCHMARK.json"
        );
    }
}

#[test]
fn declared_units_match_the_printed_ones() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let benchmark = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let declared = |key: &str| -> Vec<(String, String)> {
        benchmark
            .get(key)
            .unwrap()
            .items()
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), own(&e2ebench::metrics::END_TO_END));
    assert_eq!(declared("per_layer"), own(&e2ebench::metrics::PER_LAYER));
}
