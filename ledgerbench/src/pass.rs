//! One pass of the ledger: set up both nodes, drive blocks until the time
//! budget is spent, drain the pool, and check every correctness gate.
//!
//! Per block the client submits that block's transactions with
//! `receive_tx` at the follower (the node its users attach to) and relays
//! each accepted one to the miner; a `market_ru` buyer first reads the
//! READ-UNCOMMITTED view with `query_observed`. The miner then runs `mine`
//! and the follower `receive_block`. The simulated clock moves 15 s per
//! block, so block bytes depend on the seed alone.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sereth_chain::genesis::Genesis;
use sereth_consistency::{Checker, FullChecker, History, ReadRecord};
use sereth_crypto::hash::H256;
use sereth_node::contract::{buy_ok_topic, set_ok_topic};
use sereth_node::node::{BlockReceipt, NodeConfig, NodeHandle};
use sereth_sim::audit::market_spec;
use sereth_types::block::Block;
use sereth_types::receipt::{Receipt, TxStatus};
use sereth_types::SimTime;

use crate::reference::HostSpeed;
use crate::trace::{TraceReport, Tracer};
use crate::workload::{Generator, Size, Step, Workload, INITIAL_PRICE};

/// Simulated time between blocks.
const BLOCK_INTERVAL_MS: SimTime = 15_000;
/// Set-ups per pass; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Blocks mined after the last client block before unsettled
/// transactions count as never included.
const DRAIN_LIMIT: usize = 16;
/// Client blocks after which the pass reads its peak resident memory, so
/// the figure covers the same work whatever the host speed.
fn rss_blocks(workload: Workload) -> u64 {
    match workload {
        Workload::MarketRu => 1_000,
        Workload::VmCalls => 32,
        Workload::TransfersLargeState => 8,
    }
}

/// Peak resident set of this process so far, MiB (0 without `/proc`).
fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The consistency audit covers the first this many blocks, so its
/// counts depend on the seed and not on how fast the host ran.
pub const ISO_WINDOW: u64 = 256;

/// What one pass runs.
#[derive(Debug, Clone)]
pub struct PassOptions {
    /// The workload.
    pub workload: Workload,
    /// Its scale.
    pub size: Size,
    /// Seed of every generated input.
    pub seed: u64,
    /// Timed-phase budget.
    pub seconds: f64,
    /// Optional cap on client blocks (tests use it for exact repeats).
    pub max_blocks: Option<u64>,
    /// Record spans and per-layer counters, then run the probes.
    pub traced: bool,
    /// Hand the follower block `n` with its state root flipped.
    pub tamper_block: Option<u64>,
    /// Directory for durable stores and trace files.
    pub data_dir: PathBuf,
}

/// Offline consistency audit of the market's reads and committed chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IsoCounts {
    /// Reads of state that was not committed at the height served.
    pub dirty_reads: u64,
    /// Every other violation (dirty writes, lost updates, program order,
    /// serialization).
    pub anomalies: u64,
    /// Reads audited.
    pub reads: u64,
    /// Blocks audited.
    pub blocks: u64,
}

/// Everything one pass measured.
#[derive(Debug)]
pub struct PassResult {
    /// Blocks mined, drain included.
    pub blocks: u64,
    /// The timed phase at nominal host speed, seconds.
    pub timed_s: f64,
    /// The timed phase in raw wall time, seconds.
    pub raw_timed_s: f64,
    /// Transactions the client generated and submitted.
    pub submitted: u64,
    /// Submissions the follower refused.
    pub refused: u64,
    /// Submissions that landed in a block.
    pub included: u64,
    /// Included transactions that made their state change.
    pub succeeded: u64,
    /// Accepted submissions still unsettled after the drain.
    pub never_included: u64,
    /// Per included transaction: `receive_tx` call to follower import.
    pub inclusion_ms: Vec<f64>,
    /// Per block: the miner's `mine` plus the follower's `receive_block`.
    pub block_ms: Vec<f64>,
    /// `block_ms` before host-speed scaling.
    pub raw_block_ms: Vec<f64>,
    /// Per submission: the follower's `receive_tx`.
    pub submit_us: Vec<f64>,
    /// Per READ-UNCOMMITTED read: `query_observed`.
    pub read_us: Vec<f64>,
    /// Per set-up: genesis plus both nodes' construction.
    pub setup_s: Vec<f64>,
    /// Per block: the host-speed factor its times were scaled by.
    pub host_factor: Vec<f64>,
    /// Peak resident memory through set-up and the first
    /// [`rss_blocks`] client blocks (or the whole pass, if shorter), MiB.
    pub rss_mb: f64,
    /// Every host-speed reference sample of the pass, nanoseconds.
    pub reference_ns: Vec<f64>,
    /// Reopening the durable follower, when the workload persists.
    pub recovery_s: Option<f64>,
    /// The market audit.
    pub iso: Option<IsoCounts>,
    /// Final canonical head.
    pub head: (u64, H256),
    /// Per-layer results of a traced pass.
    pub trace: Option<TraceReport>,
}

/// A directory removed again when the pass ends, however it ends.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(path: PathBuf) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(Self(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The two nodes of a pass and what reopening the follower needs.
struct Ledger {
    miner: NodeHandle,
    follower: NodeHandle,
    genesis: Genesis,
    follower_config: NodeConfig,
    /// Declared last so it is removed after the nodes close.
    dir: ScratchDir,
}

fn open(generator: &Generator, dir: ScratchDir) -> Result<Ledger, String> {
    let genesis = generator.genesis();
    let (miner_config, follower_config) = generator.node_configs(&dir.0);
    let miner = NodeHandle::open(genesis.clone(), miner_config).map_err(|e| format!("miner open: {e}"))?;
    let follower = NodeHandle::open(genesis.clone(), follower_config.clone())
        .map_err(|e| format!("follower open: {e}"))?;
    Ok(Ledger { miner, follower, genesis, follower_config, dir })
}

/// Sets up [`SETUP_REPS`] times, timing each at nominal host speed, and
/// keeps the last ledger.
fn set_up(generator: &Generator, root: &Path, speed: &mut HostSpeed) -> Result<(Ledger, Vec<f64>), String> {
    let mut raw = Vec::with_capacity(SETUP_REPS);
    let mut ledger = None;
    for rep in 0..SETUP_REPS {
        drop(ledger.take());
        let dir = ScratchDir::create(root.join(format!("setup{rep}")))?;
        let bracket = speed.sample();
        let start = Instant::now();
        let opened = open(generator, dir)?;
        raw.push((start.elapsed().as_secs_f64(), bracket));
        ledger = Some(opened);
    }
    speed.sample();
    let times = raw.into_iter().map(|(s, bracket)| s * speed.factor(bracket)).collect();
    Ok((ledger.expect("at least one set-up"), times))
}

/// Did an included transaction make its state change?
fn succeeded(workload: Workload, receipt: &Receipt) -> bool {
    match workload {
        Workload::MarketRu => receipt.has_event(set_ok_topic()) || receipt.has_event(buy_ok_topic()),
        _ => receipt.status == TxStatus::Success,
    }
}

/// Runs one pass.
///
/// # Errors
///
/// A description of the first correctness gate that failed, or of a
/// node or file-system error.
pub fn run_pass(options: &PassOptions) -> Result<PassResult, String> {
    let workload = options.workload;
    let mut generator = Generator::new(workload, options.size, options.seed);
    let label = if options.traced { "traced" } else { "untraced" };
    let scratch = ScratchDir::create(options.data_dir.join(format!(
        "{}-{}-{}",
        workload.name(),
        label,
        std::process::id()
    )))?;
    let mut speed = HostSpeed::new();
    let (ledger, setup_s) = set_up(&generator, &scratch.0, &mut speed)?;
    let Ledger { miner, follower, .. } = &ledger;
    let store_dir = workload.durable().then(|| ledger.dir.0.join("follower"));
    let mut tracer = options.traced.then(|| Tracer::new(miner, follower, store_dir));

    let budget = Duration::from_secs_f64(options.seconds);
    let mut timed = Duration::ZERO;
    let mut blocks = 0u64;
    let mut client_blocks = 0u64;
    let mut submitted = 0u64;
    let mut refused = 0u64;
    let mut included = 0u64;
    let mut succeeded_txs = 0u64;
    // Accepted submissions awaiting inclusion: submit instant, trace span.
    let mut pending: HashMap<H256, (Instant, Option<usize>)> = HashMap::new();
    let mut inclusion_ms: Vec<(f64, usize)> = Vec::new();
    let mut block_ms: Vec<f64> = Vec::new();
    let mut submit_us: Vec<(f64, usize)> = Vec::new();
    let mut read_us: Vec<(f64, usize)> = Vec::new();
    let mut reads: Vec<ReadRecord> = Vec::new();
    let mut audited: Vec<(Block, Vec<Receipt>)> = Vec::new();
    let mut drained = 0usize;
    let mut rss_mb = None;
    // Raw samples tagged with the block they belong to; each block
    // records its host-speed bracket and its timed round.
    let mut brackets: Vec<usize> = Vec::new();
    let mut rounds: Vec<Duration> = Vec::new();

    loop {
        let client_block = timed < budget && options.max_blocks.is_none_or(|max| client_blocks < max);
        if !client_block && (miner.pool_len() == 0 || drained == DRAIN_LIMIT) {
            break;
        }
        let number = blocks + 1;
        let sim_now = number * BLOCK_INTERVAL_MS;
        let steps = if client_block { generator.next_block() } else { Vec::new() };
        if !client_block {
            drained += 1;
        }
        let ordinal = brackets.len();
        brackets.push(speed.bracket());
        let start = Instant::now();
        // Buy signing depends on the read, so it happens in the loop; it
        // is generation, not system work, and leaves the clock.
        let mut signing = Duration::ZERO;
        if let Some(tracer) = tracer.as_mut() {
            tracer.block_start(miner, follower);
        }
        for (i, step) in steps.into_iter().enumerate() {
            let tx = match step {
                Step::Submit(tx) => tx,
                Step::ReadThenBuy(index) => {
                    let caller = generator.buyer(index).address();
                    let read_start = Instant::now();
                    let seen = follower.query_observed(caller).ok_or("the follower served no market view")?;
                    let read_end = Instant::now();
                    read_us.push(((read_end - read_start).as_secs_f64() * 1e6, ordinal));
                    if let Some(tracer) = tracer.as_mut() {
                        tracer.read_span(number, read_start, read_end);
                    }
                    reads.push(ReadRecord {
                        reader: caller,
                        at_height: seen.height,
                        observed_mark: seen.mark,
                        observed_value: seen.value,
                    });
                    let sign_start = Instant::now();
                    let tx = generator.buyer(index).next_buy_at(seen.mark, seen.value);
                    signing += sign_start.elapsed();
                    tx
                }
            };
            let hash = tx.hash();
            let at = sim_now - BLOCK_INTERVAL_MS + i as SimTime;
            let submit_start = Instant::now();
            let accepted = follower.receive_tx(tx.clone(), at);
            let submit_end = Instant::now();
            submit_us.push(((submit_end - submit_start).as_secs_f64() * 1e6, ordinal));
            submitted += 1;
            let span = tracer.as_mut().map(|tracer| tracer.submit_span(&tx, submit_start, submit_end));
            if accepted {
                let relay_start = Instant::now();
                miner.receive_tx(tx, at);
                if let Some(tracer) = tracer.as_mut() {
                    tracer.relay_span(number, relay_start, Instant::now());
                }
                pending.insert(hash, (submit_start, span));
            } else {
                refused += 1;
            }
        }

        if let Some(tracer) = tracer.as_mut() {
            tracer.before_mine(miner, follower);
        }
        let mine_start = Instant::now();
        let block = miner.mine(sim_now).ok_or("the miner sealed no block")?;
        let mine_end = Instant::now();
        if let Some(tracer) = tracer.as_mut() {
            tracer.after_mine(miner);
        }
        let mut handed = block.clone();
        if options.tamper_block == Some(block.number()) {
            handed.header.state_root.0[0] ^= 0xff;
        }
        let import_start = Instant::now();
        let receipt = follower.receive_block(handed);
        let import_end = Instant::now();
        if receipt != BlockReceipt::Imported {
            return Err(format!("the follower answered {receipt:?} for block {}", block.number()));
        }
        if let Some(tracer) = tracer.as_mut() {
            tracer.after_import(
                miner,
                follower,
                &block,
                start,
                (mine_start, mine_end),
                (import_start, import_end),
            );
        }
        let round = import_end - start - signing;
        timed += round;
        rounds.push(round);
        blocks += 1;
        client_blocks += u64::from(client_block);
        if client_blocks == rss_blocks(workload) && rss_mb.is_none() {
            rss_mb = Some(rss_peak_mb());
        }
        block_ms.push(((mine_end - mine_start) + (import_end - import_start)).as_secs_f64() * 1e3);

        // Gate: both nodes hold the same head, and the follower's replay
        // re-derived the same state root the miner sealed.
        let miner_head = miner.with_inner(|inner| inner.chain.head_block().header.clone());
        let follower_head = follower.with_inner(|inner| inner.chain.head_block().header.clone());
        if miner_head.hash() != follower_head.hash() || miner_head.state_root != follower_head.state_root {
            return Err(format!("block {}: follower head differs from the miner's", block.number()));
        }
        let receipts = follower
            .with_inner(|inner| inner.chain.get(&block.hash()).map(|stored| stored.receipts.clone()))
            .ok_or("the follower lost the block it imported")?;
        for (tx, receipt) in block.transactions.iter().zip(&receipts) {
            let (submitted_at, span) = pending
                .remove(&tx.hash())
                .ok_or("a block included a transaction the client did not submit, or included it twice")?;
            inclusion_ms.push(((import_end - submitted_at).as_secs_f64() * 1e3, ordinal));
            if let (Some(tracer), Some(span)) = (tracer.as_mut(), span) {
                tracer.include(span, block.number());
            }
            included += 1;
            succeeded_txs += u64::from(succeeded(workload, receipt));
        }
        if workload.reads() && block.number() <= ISO_WINDOW {
            audited.push((block, receipts));
        }
        // Sampled after the block's bookkeeping, so that the next block's
        // generation, not the reference task, precedes its submissions.
        speed.sample_if_due();
    }

    speed.sample();
    let host_factor: Vec<f64> = brackets.iter().map(|&bracket| speed.factor(bracket)).collect();
    let scaled = |samples: Vec<(f64, usize)>| -> Vec<f64> {
        samples.into_iter().map(|(value, ordinal)| value * host_factor[ordinal]).collect()
    };
    let raw_block_ms = block_ms.clone();
    let block_ms: Vec<f64> = block_ms.iter().zip(&host_factor).map(|(ms, f)| ms * f).collect();
    let timed_s: f64 = rounds.iter().zip(&host_factor).map(|(round, f)| round.as_secs_f64() * f).sum();
    let never_included = pending.len() as u64;
    if submitted != included + refused + never_included {
        return Err(format!(
            "accounting: {submitted} submitted != {included} included + {refused} refused + {never_included} never included"
        ));
    }
    // Gate: the full state roots, recomputed on both nodes, agree.
    let root = miner.head_state_root();
    if follower.head_state_root() != root {
        return Err("the follower's state root differs from the miner's".into());
    }
    let head = miner.head_id();
    let iso = workload.reads().then(|| iso_counts(&audited, &reads));
    let trace = match tracer {
        Some(tracer) => Some(tracer.finish(miner, follower, workload, options.seed, &options.data_dir)?),
        None => None,
    };
    let recovery_s = if workload.durable() { Some(recover(ledger, head, root, &mut speed)?) } else { None };
    Ok(PassResult {
        blocks,
        timed_s,
        raw_timed_s: timed.as_secs_f64(),
        submitted,
        refused,
        included,
        succeeded: succeeded_txs,
        never_included,
        inclusion_ms: scaled(inclusion_ms),
        block_ms,
        raw_block_ms,
        submit_us: scaled(submit_us),
        read_us: scaled(read_us),
        setup_s,
        host_factor,
        rss_mb: rss_mb.unwrap_or_else(rss_peak_mb),
        reference_ns: speed.samples().to_vec(),
        recovery_s,
        iso,
        head,
        trace,
    })
}

/// Drops the durable follower, reopens its directory, and checks the
/// recovered head and state root byte-equal to the live ones. Returns the
/// reopen time in seconds at nominal host speed.
fn recover(ledger: Ledger, head: (u64, H256), root: H256, speed: &mut HostSpeed) -> Result<f64, String> {
    let Ledger { miner, follower, genesis, follower_config, dir } = ledger;
    drop(follower);
    let bracket = speed.sample();
    let start = Instant::now();
    let reopened = NodeHandle::open(genesis, follower_config).map_err(|e| format!("follower reopen: {e}"))?;
    let raw = start.elapsed().as_secs_f64();
    speed.sample();
    let recovery_s = raw * speed.factor(bracket);
    if reopened.head_id() != head || reopened.head_state_root() != root {
        return Err("the reopened follower differs from the live state".into());
    }
    drop((reopened, miner, dir));
    Ok(recovery_s)
}

/// Runs the unified checker over the audited blocks and the reads served
/// before the last of them.
fn iso_counts(blocks: &[(Block, Vec<Receipt>)], reads: &[ReadRecord]) -> IsoCounts {
    let last = blocks.last().map_or(0, |(block, _)| block.number());
    let reads: Vec<ReadRecord> = reads.iter().filter(|read| read.at_height < last).cloned().collect();
    let history = History::from_blocks(
        &market_spec(INITIAL_PRICE),
        blocks.iter().map(|(block, receipts)| (block, receipts.as_slice())),
    )
    .with_reads(reads.clone());
    let report = FullChecker { spec: market_spec(INITIAL_PRICE) }.check(&history);
    let dirty_reads = report.violations.iter().filter(|v| v.anomaly.class() == "dirty-read").count() as u64;
    IsoCounts {
        dirty_reads,
        anomalies: report.violations.len() as u64 - dirty_reads,
        reads: reads.len() as u64,
        blocks: last,
    }
}
