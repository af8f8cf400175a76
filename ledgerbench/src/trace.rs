//! The traced pass: spans around every `NodeHandle` call, per-block deltas
//! of each node's `telemetry_snapshot()` and `*_stats()`, and the probes
//! run afterwards on the pass's own blocks.
//!
//! Spans stay in memory and are written out once, as JSON lines, when the
//! pass ends. A transaction's span id is its hash and its parent is the
//! span of the block that included it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use sereth_chain::builder::build_block_with_mode;
use sereth_chain::parallel::ExecStats;
use sereth_chain::state::StateDb;
use sereth_chain::txpool::PoolStats;
use sereth_chain::validation::validate_block_with_mode;
use sereth_crypto::hash::H256;
use sereth_node::node::NodeHandle;
use sereth_telemetry::{Phase, TelemetrySnapshot};
use sereth_types::block::{Block, BlockHeader};
use sereth_types::transaction::Transaction;
use sereth_types::u256::U256;

use crate::stats::{mean, median, Metric};
use crate::workload::Workload;

/// Blocks the probes replay (the first ones of the pass).
const PROBE_BLOCKS: usize = 48;

#[derive(Debug, Clone, Copy)]
enum SpanId {
    Block(u64),
    Tx(H256),
    Seq(u64),
}

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpanId::Block(number) => write!(f, "block:{number}"),
            SpanId::Tx(hash) => write!(f, "tx:{}", hash.to_hex()),
            SpanId::Seq(seq) => write!(f, "op:{seq}"),
        }
    }
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    id: SpanId,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// Per-node telemetry readings at one instant.
struct Reading {
    miner: TelemetrySnapshot,
    follower: TelemetrySnapshot,
}

/// What one block cost, layer by layer.
#[derive(Debug, Clone, Default)]
struct BlockSample {
    txs: usize,
    mine_ns: u64,
    import_ns: u64,
    /// The miner's phase time during `mine`, by [`Phase::ALL`] index.
    miner_phase_ns: [u64; 8],
    /// The follower's phase time during `receive_block`.
    follower_phase_ns: [u64; 8],
    admission_ns: u64,
    admissions: u64,
    lock_hold_ns: u64,
    client_ns: u64,
    store_bytes: u64,
    snapshot_written: bool,
}

/// One block the probes rebuild and replay on its parent.
struct ProbeInput {
    parent: BlockHeader,
    parent_state: StateDb,
    block: Block,
}

/// What the probes measured, per probed block.
#[derive(Default)]
struct Probes {
    build_ms: Vec<f64>,
    replay_ms: Vec<f64>,
    root_ms: Vec<f64>,
    first_write_ms: Vec<f64>,
    accounts: usize,
}

/// Node counters at the start of the timed phase.
struct Counters {
    pool: [PoolStats; 2],
    raa: (u64, u64),
    exec: ExecStats,
}

fn counters(miner: &NodeHandle, follower: &NodeHandle) -> Counters {
    let raa = [miner, follower]
        .iter()
        .filter_map(|node| node.raa_metrics())
        .fold((0, 0), |(hits, rebuilds), m| (hits + m.hits, rebuilds + m.rebuilds));
    Counters { pool: [miner.pool_stats(), follower.pool_stats()], raa, exec: miner.exec_stats() }
}

fn phase_ns(snapshot: &TelemetrySnapshot, phase: Phase) -> (u64, u64) {
    snapshot.histograms.get(&format!("phase.{}", phase.name())).map_or((0, 0), |h| (h.sum_ns, h.count()))
}

fn phases(before: &TelemetrySnapshot, after: &TelemetrySnapshot) -> [u64; 8] {
    Phase::ALL.map(|phase| phase_ns(after, phase).0.saturating_sub(phase_ns(before, phase).0))
}

fn lock_hold_ns(snapshot: &TelemetrySnapshot) -> u64 {
    snapshot.histograms.get("node.lock_hold").map_or(0, |h| h.sum_ns)
}

fn phase_index(phase: Phase) -> usize {
    Phase::ALL.iter().position(|p| *p == phase).expect("phase listed")
}

/// Size of every file in the durable directory.
fn scan_store(dir: &Path) -> BTreeMap<String, u64> {
    let Ok(entries) = std::fs::read_dir(dir) else { return BTreeMap::new() };
    entries
        .filter_map(Result::ok)
        .filter_map(|entry| {
            let size = entry.metadata().ok()?.len();
            Some((entry.file_name().to_string_lossy().into_owned(), size))
        })
        .collect()
}

/// Records one traced pass.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    seq: u64,
    samples: Vec<BlockSample>,
    block_start: Option<Reading>,
    before_mine: Option<Reading>,
    after_mine: Option<TelemetrySnapshot>,
    client_ns: u64,
    probes: Vec<ProbeInput>,
    pending_probe: Option<(BlockHeader, StateDb)>,
    txs: Vec<Transaction>,
    store_dir: Option<PathBuf>,
    store_files: BTreeMap<String, u64>,
    start: Counters,
}

/// Per-layer results of a traced pass.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// The per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Self time per block by layer: (layer, mean ms, share of block_ms).
    pub self_time: Vec<(String, f64, f64)>,
    /// Whether the workload does the work it was chosen for.
    pub design: String,
    /// Where the spans were written.
    pub spans_path: PathBuf,
}

impl Tracer {
    /// Starts tracing; `store_dir` is the follower's durable directory.
    pub fn new(miner: &NodeHandle, follower: &NodeHandle, store_dir: Option<PathBuf>) -> Self {
        let store_files = store_dir.as_deref().map(scan_store).unwrap_or_default();
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            seq: 0,
            samples: Vec::new(),
            block_start: None,
            before_mine: None,
            after_mine: None,
            client_ns: 0,
            probes: Vec::new(),
            pending_probe: None,
            txs: Vec::new(),
            store_dir,
            store_files,
            start: counters(miner, follower),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, id: SpanId, parent: Option<SpanId>, start: Instant, end: Instant) {
        let span = Span { name, id, parent, start_ns: self.ns(start), end_ns: self.ns(end) };
        self.spans.push(span);
    }

    fn next_seq(&mut self) -> SpanId {
        self.seq += 1;
        SpanId::Seq(self.seq)
    }

    /// A block's client phase begins.
    pub fn block_start(&mut self, miner: &NodeHandle, follower: &NodeHandle) {
        self.client_ns = 0;
        self.block_start =
            Some(Reading { miner: miner.telemetry_snapshot(), follower: follower.telemetry_snapshot() });
    }

    /// A READ-UNCOMMITTED read served while block `number` was collected.
    pub fn read_span(&mut self, number: u64, start: Instant, end: Instant) {
        let id = self.next_seq();
        self.client_ns += (end - start).as_nanos() as u64;
        self.push("query_observed", id, Some(SpanId::Block(number)), start, end);
    }

    /// A submission; returns the span index so inclusion can set its parent.
    pub fn submit_span(&mut self, tx: &Transaction, start: Instant, end: Instant) -> usize {
        self.client_ns += (end - start).as_nanos() as u64;
        self.txs.push(tx.clone());
        self.push("receive_tx", SpanId::Tx(tx.hash()), None, start, end);
        self.spans.len() - 1
    }

    /// The client's relay of a submission to the miner, collected for
    /// block `number`.
    pub fn relay_span(&mut self, number: u64, start: Instant, end: Instant) {
        let id = self.next_seq();
        self.client_ns += (end - start).as_nanos() as u64;
        self.push("relay_receive_tx", id, Some(SpanId::Block(number)), start, end);
    }

    /// The submission at span `index` landed in block `number`.
    pub fn include(&mut self, index: usize, number: u64) {
        self.spans[index].parent = Some(SpanId::Block(number));
    }

    /// The client phase is over; `mine` is next.
    pub fn before_mine(&mut self, miner: &NodeHandle, follower: &NodeHandle) {
        if self.probes.len() + usize::from(self.pending_probe.is_some()) < PROBE_BLOCKS {
            self.pending_probe = Some(miner.with_inner(|inner| {
                (inner.chain.head_block().header.clone(), inner.chain.head_state().clone())
            }));
        }
        self.before_mine =
            Some(Reading { miner: miner.telemetry_snapshot(), follower: follower.telemetry_snapshot() });
    }

    /// `mine` returned.
    pub fn after_mine(&mut self, miner: &NodeHandle) {
        self.after_mine = Some(miner.telemetry_snapshot());
    }

    /// The follower imported `block`; closes the block's sample and spans.
    pub fn after_import(
        &mut self,
        miner: &NodeHandle,
        follower: &NodeHandle,
        block: &Block,
        start: Instant,
        mine: (Instant, Instant),
        import: (Instant, Instant),
    ) {
        let end = Reading { miner: miner.telemetry_snapshot(), follower: follower.telemetry_snapshot() };
        let first = self.block_start.take().expect("block_start ran");
        let before = self.before_mine.take().expect("before_mine ran");
        let mined = self.after_mine.take().expect("after_mine ran");
        let admission = |a: &TelemetrySnapshot, b: &TelemetrySnapshot| {
            let (a_ns, a_n) = phase_ns(a, Phase::Admission);
            let (b_ns, b_n) = phase_ns(b, Phase::Admission);
            (b_ns.saturating_sub(a_ns), b_n.saturating_sub(a_n))
        };
        let (miner_adm_ns, miner_adm) = admission(&first.miner, &before.miner);
        let (follower_adm_ns, follower_adm) = admission(&first.follower, &before.follower);
        let mut sample = BlockSample {
            txs: block.transactions.len(),
            mine_ns: (mine.1 - mine.0).as_nanos() as u64,
            import_ns: (import.1 - import.0).as_nanos() as u64,
            miner_phase_ns: phases(&before.miner, &mined),
            follower_phase_ns: phases(&before.follower, &end.follower),
            admission_ns: miner_adm_ns + follower_adm_ns,
            admissions: miner_adm + follower_adm,
            lock_hold_ns: lock_hold_ns(&end.miner) + lock_hold_ns(&end.follower)
                - lock_hold_ns(&first.miner)
                - lock_hold_ns(&first.follower),
            client_ns: self.client_ns,
            ..BlockSample::default()
        };
        if let Some(dir) = &self.store_dir {
            let files = scan_store(dir);
            for (name, size) in &files {
                let before = self.store_files.get(name).copied();
                sample.store_bytes += size.saturating_sub(before.unwrap_or(0));
                if before.is_none() && name.starts_with("snapshot-") && name.ends_with(".snap") {
                    sample.snapshot_written = true;
                }
            }
            self.store_files = files;
        }
        self.samples.push(sample);

        let number = block.number();
        let (block_id, mine_id, import_id) = (SpanId::Block(number), self.next_seq(), self.next_seq());
        self.push("block", block_id, None, start, import.1);
        self.push("mine", mine_id, Some(block_id), mine.0, mine.1);
        self.push("receive_block", import_id, Some(block_id), import.0, import.1);
        if let Some((parent, parent_state)) = self.pending_probe.take() {
            self.probes.push(ProbeInput { parent, parent_state, block: block.clone() });
        }
    }

    /// Runs the probes, reads the counter deltas, writes the spans, and
    /// derives every per-layer metric.
    ///
    /// # Errors
    ///
    /// A probe that does not reproduce a sealed block, a replay the
    /// follower's mode rejects, a signature that fails, or an unwritable
    /// span file.
    pub fn finish(
        self,
        miner: &NodeHandle,
        follower: &NodeHandle,
        workload: Workload,
        seed: u64,
        data_dir: &Path,
    ) -> Result<TraceReport, String> {
        let probes = self.run_probes(miner, follower)?;
        let verify_start = Instant::now();
        if !self.txs.iter().all(Transaction::verify_signature) {
            return Err("a submitted transaction failed signature verification".into());
        }
        let verify_us = verify_start.elapsed().as_secs_f64() * 1e6 / self.txs.len().max(1) as f64;
        let end = counters(miner, follower);
        let spans_path = self.write_spans(data_dir, workload, seed)?;

        let samples = &self.samples;
        let per_block = |f: &dyn Fn(&BlockSample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
        let miner_phase = |s: &BlockSample, p: Phase| s.miner_phase_ns[phase_index(p)] as f64;
        let follower_phase = |s: &BlockSample, p: Phase| s.follower_phase_ns[phase_index(p)] as f64;
        // Top-level phases only: speculate/merge waves nest inside a
        // replay's `validate`, and a wave build's land in the unattributed
        // remainder beside the sequential loop, so nothing counts twice.
        let mine_attributed = |s: &BlockSample| {
            [Phase::OrderCandidates, Phase::Seal, Phase::Validate, Phase::Import]
                .iter()
                .map(|&p| miner_phase(s, p))
                .sum::<f64>()
        };
        let import_attributed =
            |s: &BlockSample| follower_phase(s, Phase::Validate) + follower_phase(s, Phase::Import);
        let mine_unattributed = |s: &BlockSample| (s.mine_ns as f64 - mine_attributed(s)).max(0.0);
        let import_unattributed = |s: &BlockSample| (s.import_ns as f64 - import_attributed(s)).max(0.0);
        let ms = |ns: f64| ns / 1e6;
        let us = |ns: f64| ns / 1e3;
        let n = samples.len();
        let probed = probes.build_ms.len();

        let pool_delta = |f: fn(&PoolStats) -> u64| -> f64 {
            (0..2).map(|i| f(&end.pool[i]).saturating_sub(f(&self.start.pool[i]))).sum::<u64>() as f64
        };
        let raa_hits = end.raa.0.saturating_sub(self.start.raa.0) as f64;
        let raa_rebuilds = end.raa.1.saturating_sub(self.start.raa.1) as f64;
        let speculated = end.exec.speculated.saturating_sub(self.start.exec.speculated) as f64;
        let fast_commits = end.exec.fast_commits.saturating_sub(self.start.exec.fast_commits) as f64;
        let admissions: u64 = samples.iter().map(|s| s.admissions).sum();
        let admission_ns: u64 = samples.iter().map(|s| s.admission_ns).sum();
        let store_bytes: u64 = samples.iter().map(|s| s.store_bytes).sum();
        let snapshots = samples.iter().filter(|s| s.snapshot_written).count();

        let mut metrics = vec![
            Metric::new("node.mine_ms", median(&per_block(&|s| ms(s.mine_ns as f64))), "ms", n),
            Metric::new("node.import_ms", median(&per_block(&|s| ms(s.import_ns as f64))), "ms", n),
            Metric::new(
                "node.mine_unattributed_ms",
                median(&per_block(&|s| ms(mine_unattributed(s)))),
                "ms",
                n,
            ),
            Metric::new(
                "node.import_unattributed_ms",
                median(&per_block(&|s| ms(import_unattributed(s)))),
                "ms",
                n,
            ),
            Metric::new("node.lock_hold_us", median(&per_block(&|s| us(s.lock_hold_ns as f64))), "us", n),
            Metric::new(
                "miner.order_us",
                median(&per_block(&|s| us(miner_phase(s, Phase::OrderCandidates)))),
                "us",
                n,
            ),
            Metric::new("miner.candidates", median(&per_block(&|s| s.txs as f64)), "count", n),
            Metric::new(
                "txpool.admission_us",
                us(admission_ns as f64) / admissions.max(1) as f64,
                "us",
                admissions as usize,
            ),
            Metric::new("txpool.rescans", pool_delta(|p| p.rescans), "count", 1),
            Metric::new("txpool.index_rebuilds", pool_delta(|p| p.index_rebuilds), "count", 1),
            Metric::new("crypto.verify_us", verify_us, "us", self.txs.len()),
            Metric::new("raa.hits", raa_hits, "count", 1),
            Metric::new("raa.rebuilds", raa_rebuilds, "count", 1),
            Metric::new("raa.hit_rate", raa_hits / (raa_hits + raa_rebuilds), "ratio", 1),
            Metric::new("exec.build_ms", median(&probes.build_ms), "ms", probed),
            Metric::new(
                "exec.fallbacks",
                end.exec.fallbacks.saturating_sub(self.start.exec.fallbacks) as f64,
                "count",
                1,
            ),
            Metric::new("exec.fast_commits", fast_commits, "count", 1),
            Metric::new("exec.useful_ratio", fast_commits / speculated, "ratio", 1),
            Metric::new(
                "validation.miner_ms",
                median(&per_block(&|s| ms(miner_phase(s, Phase::Validate)))),
                "ms",
                n,
            ),
            Metric::new(
                "validation.follower_ms",
                median(&per_block(&|s| ms(follower_phase(s, Phase::Validate)))),
                "ms",
                n,
            ),
            Metric::new("validation.replay_ms", median(&probes.replay_ms), "ms", probed),
            Metric::new("state.root_ms", median(&probes.root_ms), "ms", probed),
            Metric::new("state.first_write_ms", median(&probes.first_write_ms), "ms", probed),
            Metric::new("state.accounts", probes.accounts as f64, "count", 1),
            Metric::new("seal.ms", median(&per_block(&|s| ms(miner_phase(s, Phase::Seal)))), "ms", n),
            Metric::new(
                "chain.import_us",
                median(&per_block(&|s| us(miner_phase(s, Phase::Import) + follower_phase(s, Phase::Import)))),
                "us",
                n,
            ),
            Metric::new("store.bytes_per_block", store_bytes as f64 / n.max(1) as f64, "bytes", n),
            Metric::new("store.snapshots", snapshots as f64, "count", n),
        ];
        if self.store_dir.is_some() {
            // Follower import of the blocks that wrote a snapshot, beyond
            // the median block; a durable-only figure, so it is printed
            // but not part of the result line.
            let import_ms = |snapshot: bool| -> Vec<f64> {
                samples
                    .iter()
                    .filter(|s| s.snapshot_written == snapshot)
                    .map(|s| ms(s.import_ns as f64))
                    .collect()
            };
            metrics.push(Metric::new(
                "store.snapshot_block_ms",
                median(&import_ms(true)) - median(&import_ms(false)),
                "ms",
                snapshots,
            ));
        }

        let block_mean = mean(&per_block(&|s| (s.mine_ns + s.import_ns) as f64));
        let rows: Vec<(&str, f64)> = vec![
            ("miner: order candidates", mean(&per_block(&|s| miner_phase(s, Phase::OrderCandidates)))),
            ("miner: execute, persist, locks (unattributed)", mean(&per_block(&|s| mine_unattributed(s)))),
            ("miner: seal (roots, header)", mean(&per_block(&|s| miner_phase(s, Phase::Seal)))),
            ("miner: validate own block", mean(&per_block(&|s| miner_phase(s, Phase::Validate)))),
            ("miner: store import", mean(&per_block(&|s| miner_phase(s, Phase::Import)))),
            ("follower: validate (replay, roots)", mean(&per_block(&|s| follower_phase(s, Phase::Validate)))),
            ("follower: store import", mean(&per_block(&|s| follower_phase(s, Phase::Import)))),
            (
                "follower: persist, pool upkeep, locks (unattributed)",
                mean(&per_block(&|s| import_unattributed(s))),
            ),
        ];
        let mut self_time: Vec<(String, f64, f64)> =
            rows.into_iter().map(|(name, ns)| (name.to_string(), ms(ns), ns / block_mean.max(1.0))).collect();
        let client_mean = mean(&per_block(&|s| s.client_ns as f64));
        self_time.push((
            "client: receive_tx, relay, query_observed (outside block_ms)".to_string(),
            ms(client_mean),
            client_mean / block_mean.max(1.0),
        ));

        let root_ms = median(&probes.root_ms);
        let block_ms = ms(median(&per_block(&|s| (s.mine_ns + s.import_ns) as f64)));
        let design = match workload {
            Workload::TransfersLargeState => {
                let share = 3.0 * root_ms / block_ms;
                format!(
                    "three state roots per block take {:.0}% of block_ms (dominant: {})",
                    share * 100.0,
                    share > 0.5
                )
            }
            Workload::VmCalls => {
                let work = mean(&per_block(&|s| {
                    mine_unattributed(s)
                        + miner_phase(s, Phase::Validate)
                        + follower_phase(s, Phase::Validate)
                }));
                let share = work / block_mean.max(1.0);
                format!(
                    "execution plus validation take {:.0}% of block_ms (dominant: {})",
                    share * 100.0,
                    share > 0.5
                )
            }
            Workload::MarketRu => {
                let reads_and_order =
                    mean(&per_block(&|s| s.client_ns as f64 + miner_phase(s, Phase::OrderCandidates)));
                let share = reads_and_order / (block_mean + client_mean).max(1.0);
                format!(
                    "ordering plus client reads and submits take {:.0}% of the block round (visible: {})",
                    share * 100.0,
                    share > 0.1
                )
            }
        };
        Ok(TraceReport { metrics, self_time, design, spans_path })
    }

    fn run_probes(&self, miner: &NodeHandle, follower: &NodeHandle) -> Result<Probes, String> {
        let (exec_mode, limits) =
            miner.with_inner(|inner| (inner.config.exec_mode, inner.config.limits.clone()));
        let validation_mode = follower.with_inner(|inner| inner.config.validation_mode);
        let mut probes = Probes::default();
        let ms = |start: Instant| start.elapsed().as_secs_f64() * 1e3;
        for ProbeInput { parent, parent_state, block } in &self.probes {
            let number = block.number();
            let start = Instant::now();
            let built = build_block_with_mode(
                parent,
                parent_state,
                &block.transactions,
                block.header.miner,
                block.header.timestamp_ms,
                &limits,
                &exec_mode,
            );
            probes.build_ms.push(ms(start));
            if built.block.hash() != block.hash() {
                return Err(format!("probe: rebuilding block {number} gives a different block"));
            }
            let start = Instant::now();
            let validated = validate_block_with_mode(parent, parent_state, block, &validation_mode)
                .map_err(|e| format!("probe: replaying block {number} fails: {e:?}"))?;
            probes.replay_ms.push(ms(start));
            let start = Instant::now();
            let root = validated.post_state.state_root();
            probes.root_ms.push(ms(start));
            if root != block.header.state_root {
                return Err(format!("probe: block {number}'s recomputed state root differs"));
            }
            let mut post = validated.post_state;
            let shared = post.view();
            let start = Instant::now();
            post.credit(&block.header.miner, U256::from(1u64));
            probes.first_write_ms.push(ms(start));
            drop(shared);
            probes.accounts = post.len();
        }
        Ok(probes)
    }

    fn write_spans(&self, data_dir: &Path, workload: Workload, seed: u64) -> Result<PathBuf, String> {
        let dir = data_dir.join("trace");
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}-seed{seed}.jsonl", workload.name()));
        let mut out = String::with_capacity(self.spans.len() * 120);
        for span in &self.spans {
            let parent = span.parent.map_or_else(|| "null".to_string(), |p| format!("\"{p}\""));
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.id, span.start_ns, span.end_ns
            );
        }
        std::fs::write(&path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(path)
    }
}
