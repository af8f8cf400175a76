//! The end-to-end ledger benchmark of the sereth node: a client submits
//! transactions (and, on `market_ru`, reads the READ-UNCOMMITTED view
//! first), a miner seals, and a follower imports, on three workloads.
//!
//! An untraced run reports the end-to-end metrics. A traced run repeats
//! the untraced pass, then runs a traced pass for the per-layer metrics,
//! so the tracing overhead is measured in the same process. Every pass
//! checks its correctness gates; a failed gate fails the run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pass;
pub mod reference;
pub mod stats;
pub mod trace;
pub mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;

use pass::{run_pass, PassOptions, PassResult};
use stats::{median, median_and_tail, Metric};
use workload::{Size, Workload};

/// The end-to-end metrics an untraced run reports, as `BENCHMARK.json`
/// lists them.
pub const END_TO_END: [&str; 6] =
    ["state_tps", "inclusion_ms_p50", "block_ms_p50", "submit_us_p50", "setup_s", "rss_peak_mb"];

/// The per-layer metrics a traced run reports, as `BENCHMARK.json` lists
/// them. The last four are end-to-end figures of the run's untraced pass
/// that either never vary (`eta`, `failed_frac`) or vary too much between
/// runs to carry a bound (the p99 tails).
pub const PER_LAYER: [&str; 35] = [
    "node.mine_ms",
    "node.import_ms",
    "node.mine_unattributed_ms",
    "node.import_unattributed_ms",
    "node.lock_hold_us",
    "miner.order_us",
    "miner.candidates",
    "txpool.admission_us",
    "txpool.rescans",
    "txpool.index_rebuilds",
    "crypto.verify_us",
    "raa.hits",
    "raa.rebuilds",
    "raa.hit_rate",
    "exec.build_ms",
    "exec.fallbacks",
    "exec.fast_commits",
    "exec.useful_ratio",
    "validation.miner_ms",
    "validation.follower_ms",
    "validation.replay_ms",
    "state.root_ms",
    "state.first_write_ms",
    "state.accounts",
    "seal.ms",
    "chain.import_us",
    "store.bytes_per_block",
    "store.snapshots",
    "iso.dirty_reads",
    "iso.anomalies",
    "trace.overhead_pct",
    "eta",
    "failed_frac",
    "inclusion_ms_p99",
    "submit_us_p99",
];

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Its scale.
    pub size: Size,
    /// Seed of every generated input.
    pub seed: u64,
    /// Timed-phase budget of each pass, seconds.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Optional cap on client blocks per pass.
    pub max_blocks: Option<u64>,
    /// Hand the follower this block with a flipped state root.
    pub tamper_block: Option<u64>,
    /// Directory for durable stores and span files.
    pub data_dir: PathBuf,
}

/// A finished run: every measured metric, and which of them the result
/// line carries.
#[derive(Debug, Clone)]
pub struct Report {
    /// Human-readable lines: run facts, then every metric with its unit
    /// and sample count.
    pub text: Vec<String>,
    /// The metrics of the result line, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Transactions submitted.
    pub attempted: u64,
    /// Submissions that did not succeed: refused, never included, or
    /// included without effect.
    pub failed: u64,
}

impl Report {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, metric) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                metric.name, metric.value, metric.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Every end-to-end metric of an untraced pass, the workload-specific
/// ones included.
fn end_to_end(pass: &PassResult, workload: Workload) -> Vec<Metric> {
    let mut out = vec![
        Metric::new("state_tps", pass.succeeded as f64 / pass.timed_s, "1/s", pass.succeeded as usize),
        Metric::new("eta", pass.succeeded as f64 / pass.included as f64, "ratio", pass.included as usize),
        Metric::new(
            "failed_frac",
            (pass.submitted - pass.succeeded) as f64 / pass.submitted as f64,
            "ratio",
            pass.submitted as usize,
        ),
    ];
    out.extend(median_and_tail("inclusion_ms", &pass.inclusion_ms, "ms"));
    out.extend(median_and_tail("block_ms", &pass.block_ms, "ms"));
    out.extend(median_and_tail("submit_us", &pass.submit_us, "us"));
    if workload.reads() {
        out.extend(median_and_tail("read_us", &pass.read_us, "us"));
    }
    out.push(Metric::new("setup_s", median(&pass.setup_s), "s", pass.setup_s.len()));
    if let Some(recovery_s) = pass.recovery_s {
        out.push(Metric::new("recovery_s", recovery_s, "s", 1));
    }
    out
}

fn facts(label: &str, pass: &PassResult) -> Vec<String> {
    vec![
        format!(
            "# {label}: blocks={} submitted={} included={} succeeded={} refused={} never_included={} head={}@{}",
            pass.blocks,
            pass.submitted,
            pass.included,
            pass.succeeded,
            pass.refused,
            pass.never_included,
            pass.head.1.to_hex(),
            pass.head.0,
        ),
        format!(
            "# {label}: host reference median {:.0} ns over {} samples (nominal {:.0} ns); \
             time scale median {:.4}; raw timed_s={:.3}, raw block_ms_p50={:.4}",
            median(&pass.reference_ns),
            pass.reference_ns.len(),
            reference::REFERENCE_NOMINAL_NS,
            median(&pass.host_factor),
            pass.raw_timed_s,
            median(&pass.raw_block_ms),
        ),
    ]
}

fn metric_line(metric: &Metric) -> String {
    format!("metric {} = {} {} (n={})", metric.name, metric.value, metric.unit, metric.samples)
}

/// Picks `names` out of `measured`, in order.
///
/// # Errors
///
/// Names a metric the run could not measure (too few samples for its
/// percentile).
fn select(names: &[&str], measured: &[Metric]) -> Result<Vec<Metric>, String> {
    names
        .iter()
        .map(|name| {
            measured
                .iter()
                .find(|metric| metric.name == *name)
                .cloned()
                .ok_or_else(|| format!("metric {name} was not measured (too few samples?)"))
        })
        .collect()
}

/// Runs the benchmark.
///
/// # Errors
///
/// The first failed correctness gate, or a metric the run could not
/// measure.
pub fn run(options: &Options) -> Result<Report, String> {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut text = vec![format!(
        "# ledgerbench workload={} seed={} seconds={} trace={} size={:?} host_cpus={host_cpus}",
        options.workload.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace),
        options.size,
    )];
    let pass_options = |traced: bool| PassOptions {
        workload: options.workload,
        size: options.size,
        seed: options.seed,
        seconds: options.seconds,
        max_blocks: options.max_blocks,
        traced,
        tamper_block: options.tamper_block,
        data_dir: options.data_dir.clone(),
    };
    let untraced = run_pass(&pass_options(false))?;
    text.extend(facts("untraced pass", &untraced));
    let mut measured = end_to_end(&untraced, options.workload);
    let mut attempted = untraced.submitted;
    let mut failed = untraced.submitted - untraced.succeeded;
    let iso_of = |pass: &PassResult| pass.iso.map_or((0, 0), |iso| (iso.dirty_reads, iso.anomalies));
    if let Some(iso) = untraced.iso {
        text.push(format!(
            "# consistency audit: first {} blocks, {} reads: {} dirty reads, {} other anomalies",
            iso.blocks, iso.reads, iso.dirty_reads, iso.anomalies
        ));
    }

    let names: &[&str] = if options.trace {
        let traced = run_pass(&pass_options(true))?;
        text.extend(facts("traced pass", &traced));
        attempted += traced.submitted;
        failed += traced.submitted - traced.succeeded;
        let same_window = traced.iso.map(|iso| iso.blocks) == untraced.iso.map(|iso| iso.blocks);
        if same_window && iso_of(&traced) != iso_of(&untraced) {
            return Err("the consistency audit differs between two passes of one seed".into());
        }
        let report = traced.trace.as_ref().expect("a traced pass carries its report");
        measured.extend(report.metrics.iter().cloned());
        let (dirty_reads, anomalies) = iso_of(&traced);
        let audited = traced.iso.map_or(0, |iso| iso.reads as usize);
        measured.push(Metric::new("iso.dirty_reads", dirty_reads as f64, "count", audited));
        measured.push(Metric::new("iso.anomalies", anomalies as f64, "count", audited));
        let untraced_tps = untraced.succeeded as f64 / untraced.timed_s;
        let traced_tps = traced.succeeded as f64 / traced.timed_s;
        measured.push(Metric::new("trace.overhead_pct", 100.0 * (1.0 - traced_tps / untraced_tps), "%", 2));
        text.push("# self time per block (mean), share of block_ms:".into());
        for (layer, ms, share) in &report.self_time {
            text.push(format!("#   {layer:<58} {ms:>10.4} ms {:>6.1}%", share * 100.0));
        }
        text.push(format!("# design: {}", report.design));
        text.push(format!("# spans: {}", report.spans_path.display()));
        &PER_LAYER
    } else {
        measured.push(Metric::new("rss_peak_mb", untraced.rss_mb, "MiB", 1));
        &END_TO_END
    };
    text.extend(measured.iter().map(metric_line));
    Ok(Report { text, metrics: select(names, &measured)?, attempted, failed })
}
