//! Smoke tests of the ledger benchmark at tiny size: every named metric is
//! reported with its unit, the consistency audit repeats exactly for a
//! seed, and a tampered block fails the run.

use std::path::PathBuf;
use std::process::Command;

use ledgerbench::pass::{run_pass, PassOptions};
use ledgerbench::workload::{Size, Workload};
use ledgerbench::{run, Options, END_TO_END, PER_LAYER};

/// A per-test data directory under Cargo's scratch space.
fn data_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("ledgerbench-{test}"))
}

/// Enough tiny blocks for 1000 inclusions, so every p99 qualifies.
fn tiny_blocks(workload: Workload) -> u64 {
    match workload {
        Workload::MarketRu => 200,
        _ => 64,
    }
}

fn tiny(workload: Workload, trace: bool, test: &str) -> Options {
    Options {
        workload,
        size: Size::Tiny,
        seed: 7,
        seconds: 120.0,
        trace,
        max_blocks: Some(tiny_blocks(workload)),
        tamper_block: None,
        data_dir: data_dir(test),
    }
}

fn assert_reports(names: &[&str], options: &Options) {
    let report = run(options).unwrap_or_else(|e| panic!("{}: {e}", options.workload.name()));
    let reported: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(reported, names, "{}", options.workload.name());
    for metric in &report.metrics {
        assert!(!metric.unit.is_empty(), "{} has no unit", metric.name);
        assert!(metric.value.is_finite(), "{} is not finite", metric.name);
        let line = format!("metric {} = {} {} (n=", metric.name, metric.value, metric.unit);
        assert!(report.text.iter().any(|l| l.starts_with(&line)), "{} is not printed", metric.name);
    }
    assert_eq!(report.failed, 0, "{}: no operation fails at tiny size", options.workload.name());
    let json = report.json();
    assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
    for name in names {
        assert!(json.contains(&format!("\"{name}\": {{\"value\": ")), "{name} missing from {json}");
    }
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    for workload in Workload::ALL {
        assert_reports(&END_TO_END, &tiny(workload, false, "e2e"));
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    for workload in Workload::ALL {
        assert_reports(&PER_LAYER, &tiny(workload, true, "layers"));
    }
}

#[test]
fn workload_specific_metrics_are_printed() {
    let market = run(&tiny(Workload::MarketRu, false, "specific-market")).expect("market runs");
    assert!(market.text.iter().any(|l| l.starts_with("metric read_us_p50 = ") && l.ends_with(" us (n=800)")));
    assert!(market.text.iter().any(|l| l.starts_with("metric read_us_p98 = ")));
    let transfers =
        run(&tiny(Workload::TransfersLargeState, false, "specific-transfers")).expect("transfers run");
    assert!(transfers.text.iter().any(|l| l.starts_with("metric recovery_s = ") && l.ends_with(" s (n=1)")));
}

#[test]
fn consistency_audit_repeats_exactly_for_a_seed() {
    let options = |seed: u64, test: &str| PassOptions {
        workload: Workload::MarketRu,
        size: Size::Tiny,
        seed,
        seconds: 120.0,
        max_blocks: Some(40),
        traced: false,
        tamper_block: None,
        data_dir: data_dir(test),
    };
    let first = run_pass(&options(3, "iso-a")).expect("first pass");
    let second = run_pass(&options(3, "iso-b")).expect("second pass");
    let other = run_pass(&options(4, "iso-c")).expect("other seed");
    let iso = first.iso.expect("the market is audited");
    assert!(iso.dirty_reads > 0, "READ-UNCOMMITTED reads see pending sets");
    assert_eq!(iso.anomalies, 0, "the committed chain stays clean");
    assert_eq!(first.iso, second.iso);
    assert_eq!(first.head, second.head, "block bytes are a function of the seed");
    assert_ne!(first.head, other.head);
}

#[test]
fn a_flipped_state_root_fails_the_run() {
    for workload in Workload::ALL {
        let mut options = tiny(workload, false, "tamper");
        options.tamper_block = Some(3);
        let error = run(&options).expect_err("the follower must reject the block");
        assert!(error.contains("Rejected"), "{error}");
    }
}

#[test]
fn the_command_fails_without_a_result_line_on_a_failed_gate() {
    let out = Command::new(env!("CARGO_BIN_EXE_ledgerbench"))
        .args(["--workload", "vm_calls", "--seed", "1", "--seconds", "60", "--trace", "0"])
        .args(["--size", "tiny", "--blocks", "8", "--tamper-block", "2"])
        .arg("--data-dir")
        .arg(data_dir("cli-tamper"))
        .output()
        .expect("the binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}

#[test]
fn the_command_ends_with_the_result_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_ledgerbench"))
        .args(["--workload", "vm_calls", "--seed", "1", "--seconds", "60", "--trace", "0"])
        .args(["--size", "tiny", "--blocks", "64"])
        .arg("--data-dir")
        .arg(data_dir("cli-ok"))
        .output()
        .expect("the binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("output");
    assert!(last.starts_with("{\"correct\": true"), "{last}");
    assert!(stdout.contains("seed=1"), "the seed is printed");
}

#[test]
fn bad_arguments_exit_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_ledgerbench"))
        .args(["--workload", "no_such_workload", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("the binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    let section = |key: &str, next: &str| -> String {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let end = text[start..].find(&format!("\"{next}\"")).map_or(text.len(), |end| start + end);
        text[start..end].to_string()
    };
    for (names, section) in [
        (&END_TO_END[..], section("end_to_end", "per_layer")),
        (&PER_LAYER[..], section("per_layer", "\u{0}")),
    ] {
        assert_eq!(section.matches("\"name\"").count(), names.len());
        for name in names {
            assert!(section.contains(&format!("\"name\": \"{name}\"")), "{name} is not listed");
        }
    }
}
