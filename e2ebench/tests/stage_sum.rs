//! The per-layer stage sum must account for the traced op: on `steady_watch`
//! and `full_scan` the replayed stage costs times the op's counts land within
//! 20 % of the traced op time. The residual is printed, not hidden.

use std::process::Command;

use e2ebench::json::{self, Value};

#[test]
fn stage_sum_is_within_a_fifth_of_the_traced_op() {
    // One after the other: both pin themselves to the same CPU.
    for workload in ["steady_watch", "full_scan"] {
        let output = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
            .args([
                "--workload",
                workload,
                "--seed",
                "11",
                "--seconds",
                "6",
                "--trace",
                "1",
            ])
            .output()
            .unwrap();
        assert!(
            output.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8(output.stdout).unwrap();
        let result = json::parse(stdout.lines().last().unwrap()).unwrap();
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{stdout}");
        let metric = |name: &str| {
            result
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        let ratio = metric("stream.stage_sum_ratio");
        println!(
            "{workload}: stage sum / traced op = {ratio:.3}, unattributed {:.1} ns/obs",
            metric("stream.unattributed_ns_per_obs")
        );
        assert!((0.8..=1.2).contains(&ratio), "{workload}: ratio {ratio}");
    }
}
