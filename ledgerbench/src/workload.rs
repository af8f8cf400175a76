//! The three workloads: the genesis and node presets that serve each one,
//! and the client's per-block transactions, drawn from the seed.
//!
//! Keys are derived and every transaction whose contents are known in
//! advance is signed here, before the timed phase. The one exception is a
//! `market_ru` buy: its offer is whatever the buyer's READ-UNCOMMITTED
//! read returns, so the pass reads, then signs through [`Generator::buyer`].

use std::path::Path;

use bytes::Bytes;
use sereth_chain::genesis::{Genesis, GenesisBuilder};
use sereth_chain::store::StateBackendConfig;
use sereth_chain::DurableOptions;
use sereth_core::fpv::{Flag, Fpv};
use sereth_core::hms::HmsConfig;
use sereth_core::mark::{compute_mark, genesis_mark};
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::sig::SecretKey;
use sereth_node::client::{Buyer, SERETH_TX_GAS};
use sereth_node::contract::{
    default_contract_address, sereth_code, sereth_genesis_slots, set_selector, ContractForm,
};
use sereth_node::miner::MinerPolicy;
use sereth_node::node::{ClientKind, NodeConfig};
use sereth_types::transaction::{Transaction, TxPayload};
use sereth_types::u256::U256;
use sereth_vm::asm::assemble;
use sereth_vm::exec::ContractCode;

/// Which traffic the client sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Listing 1 market: owner sets and buyers that read the
    /// READ-UNCOMMITTED view before each buy, on a semantic miner.
    MarketRu,
    /// Independent VM-bound contract calls on a small state.
    VmCalls,
    /// Value transfers on a large state, durable store on both nodes.
    TransfersLargeState,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [Workload::MarketRu, Workload::VmCalls, Workload::TransfersLargeState];

    /// The name the command line and the report use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MarketRu => "market_ru",
            Workload::VmCalls => "vm_calls",
            Workload::TransfersLargeState => "transfers_large_state",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|workload| workload.name() == name)
    }

    /// `true` when both nodes persist through the durable store.
    pub fn durable(self) -> bool {
        self == Workload::TransfersLargeState
    }

    /// `true` when the client reads before it writes.
    pub fn reads(self) -> bool {
        self == Workload::MarketRu
    }
}

/// Workload scale: `Full` is what the benchmark measures, `Tiny` is for
/// the benchmark's own smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few accounts and transactions per block.
    Tiny,
}

impl Size {
    /// Parses `full` or `tiny`.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "full" => Some(Size::Full),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }
}

/// A small deterministic generator (SplitMix64): the same seed gives the
/// same draws on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5eed_1ed9_e7be_4c11)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct indices from `0..n`, in draw order.
    pub fn distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }

    /// Shuffles `items` in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One client action within a block, in submission order.
#[derive(Debug)]
// Steps live for one block only; boxing every transaction would add an
// allocation per submission for nothing.
#[allow(clippy::large_enum_variant)]
pub enum Step {
    /// Submit a transaction signed before the timed phase.
    Submit(Transaction),
    /// Buyer `index` reads the READ-UNCOMMITTED view, then signs and
    /// submits a buy at what it saw.
    ReadThenBuy(usize),
}

/// The market's opening price.
pub const INITIAL_PRICE: u64 = 50;
/// Generous balance for every funded account.
const FUNDS: u64 = 1_000_000_000_000;
/// First address of the `vm_calls` contracts (one per sender).
const CALLS_CONTRACT_BASE: u64 = 0x00ca_0000;
/// Keccak rounds each `vm_calls` call runs.
const CALL_ROUNDS: u8 = 64;
/// Gas per `vm_calls` transaction: intrinsic, 64 rounds and one store.
const CALL_GAS: u64 = 120_000;
/// Block gas limit for `vm_calls` so a block holds every call of a round.
const CALLS_BLOCK_GAS: u64 = 30_000_000;

struct Market {
    owner: SecretKey,
    owner_nonce: u64,
    last_mark: H256,
    sets_per_block: usize,
    buyers: Vec<Buyer>,
}

struct Calls {
    senders: Vec<SecretKey>,
    nonces: Vec<u64>,
    per_block: usize,
}

struct Transfers {
    accounts: Vec<SecretKey>,
    nonces: Vec<u64>,
    per_block: usize,
    snapshot_every: u64,
}

enum Kind {
    Market(Market),
    Calls(Calls),
    Transfers(Transfers),
}

/// The seeded client of one workload.
pub struct Generator {
    workload: Workload,
    rng: Rng,
    kind: Kind,
}

impl Generator {
    /// Derives every key of `workload` at `size` from `seed`.
    pub fn new(workload: Workload, size: Size, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        // Key labels come from the seed too, so two seeds share no keys.
        let label_base = 1 + (rng.next_u64() >> 24);
        let keys = |n: usize, offset: u64| -> Vec<SecretKey> {
            (0..n as u64).map(|i| SecretKey::from_label(label_base + offset + i)).collect()
        };
        let tiny = size == Size::Tiny;
        let kind = match workload {
            Workload::MarketRu => {
                let buyers = if tiny { 4 } else { 16 };
                let contract = default_contract_address();
                Kind::Market(Market {
                    owner: keys(1, 0).remove(0),
                    owner_nonce: 0,
                    last_mark: genesis_mark(),
                    sets_per_block: if tiny { 1 } else { 4 },
                    buyers: keys(buyers, 1)
                        .into_iter()
                        .map(|key| Buyer::new(key, contract, ClientKind::Sereth, 1))
                        .collect(),
                })
            }
            Workload::VmCalls => {
                let senders = if tiny { 32 } else { 512 };
                Kind::Calls(Calls {
                    senders: keys(senders, 0),
                    nonces: vec![0; senders],
                    per_block: if tiny { 16 } else { 256 },
                })
            }
            Workload::TransfersLargeState => {
                let accounts = if tiny { 512 } else { 32_768 };
                Kind::Transfers(Transfers {
                    accounts: keys(accounts, 0),
                    nonces: vec![0; accounts],
                    per_block: if tiny { 16 } else { 256 },
                    snapshot_every: if tiny { 2 } else { 4 },
                })
            }
        };
        Self { workload, rng, kind }
    }

    /// The workload this generator drives.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The genesis both nodes start from.
    pub fn genesis(&self) -> Genesis {
        let mut builder = GenesisBuilder::new();
        match &self.kind {
            Kind::Market(market) => {
                builder = builder.fund(market.owner.address(), U256::from(FUNDS));
                for buyer in &market.buyers {
                    builder = builder.fund(buyer.address(), U256::from(FUNDS));
                }
                builder = builder.contract_with_storage(
                    default_contract_address(),
                    sereth_code(ContractForm::Native),
                    sereth_genesis_slots(&market.owner.address(), H256::from_low_u64(INITIAL_PRICE)),
                );
            }
            Kind::Calls(calls) => {
                let code = ContractCode::Bytecode(call_code());
                builder = builder.gas_limit(CALLS_BLOCK_GAS);
                for (i, key) in calls.senders.iter().enumerate() {
                    builder = builder
                        .fund(key.address(), U256::from(FUNDS))
                        .contract(call_contract(i), code.clone());
                }
            }
            Kind::Transfers(transfers) => {
                for key in &transfers.accounts {
                    builder = builder.fund(key.address(), U256::from(FUNDS));
                }
            }
        }
        builder.build()
    }

    /// The miner's and the follower's configuration, through the public
    /// presets. Execution and validation modes stay at the product
    /// defaults. `store_dir` roots the durable stores when the workload
    /// persists.
    pub fn node_configs(&self, store_dir: &Path) -> (NodeConfig, NodeConfig) {
        let contract = default_contract_address();
        match &self.kind {
            Kind::Market(_) => (
                NodeConfig::miner(contract, MinerPolicy::Semantic(HmsConfig::default())).build(),
                NodeConfig::sereth(contract).build(),
            ),
            Kind::Calls(_) => (
                NodeConfig::miner(contract, MinerPolicy::Standard).gas_limit(CALLS_BLOCK_GAS).build(),
                NodeConfig::geth(contract).gas_limit(CALLS_BLOCK_GAS).build(),
            ),
            Kind::Transfers(transfers) => {
                let durable = |name: &str| StateBackendConfig::Durable {
                    dir: store_dir.join(name),
                    options: DurableOptions {
                        snapshot_every: transfers.snapshot_every,
                        history: transfers.snapshot_every,
                        ..DurableOptions::default()
                    },
                };
                (
                    NodeConfig::miner(contract, MinerPolicy::Standard).store(durable("miner")).build(),
                    NodeConfig::geth(contract).store(durable("follower")).build(),
                )
            }
        }
    }

    /// The client's actions for the next block.
    pub fn next_block(&mut self) -> Vec<Step> {
        let rng = &mut self.rng;
        match &mut self.kind {
            Kind::Market(market) => {
                let mut steps: Vec<Step> = (0..market.buyers.len()).map(Step::ReadThenBuy).collect();
                // Set slots are drawn among the buys; the sets themselves
                // keep the owner's nonce order.
                let mut slots: Vec<bool> =
                    (0..market.sets_per_block + steps.len()).map(|i| i < market.sets_per_block).collect();
                rng.shuffle(&mut slots);
                rng.shuffle(&mut steps);
                let mut buys = steps.into_iter();
                let mut out = Vec::with_capacity(slots.len());
                let mut first_set = true;
                for is_set in slots {
                    if is_set {
                        // The previous block committed every earlier set,
                        // so the block's first set is a head candidate
                        // and the rest chain on it (Algorithm 2).
                        let flag = if first_set { Flag::Head } else { Flag::Success };
                        first_set = false;
                        let value = H256::from_low_u64(1 + rng.next_u64() % 1_000_000);
                        let fpv = Fpv::new(flag, market.last_mark, value);
                        market.last_mark = compute_mark(&market.last_mark, &value);
                        out.push(Step::Submit(Transaction::sign(
                            TxPayload {
                                nonce: market.owner_nonce,
                                gas_price: 1,
                                gas_limit: SERETH_TX_GAS,
                                to: Some(default_contract_address()),
                                value: U256::ZERO,
                                input: fpv.to_calldata(set_selector()),
                            },
                            &market.owner,
                        )));
                        market.owner_nonce += 1;
                    } else {
                        out.push(buys.next().expect("one slot per buy"));
                    }
                }
                out
            }
            Kind::Calls(calls) => rng
                .distinct(calls.senders.len(), calls.per_block)
                .into_iter()
                .map(|i| {
                    let mut word = [0u8; 32];
                    word[24..].copy_from_slice(&rng.next_u64().to_be_bytes());
                    let tx = Transaction::sign(
                        TxPayload {
                            nonce: calls.nonces[i],
                            gas_price: 1,
                            gas_limit: CALL_GAS,
                            to: Some(call_contract(i)),
                            value: U256::ZERO,
                            input: Bytes::from(word.to_vec()),
                        },
                        &calls.senders[i],
                    );
                    calls.nonces[i] += 1;
                    Step::Submit(tx)
                })
                .collect(),
            Kind::Transfers(transfers) => {
                let n = transfers.accounts.len();
                rng.distinct(n, transfers.per_block)
                    .into_iter()
                    .map(|i| {
                        let to = (i + 1 + rng.below(n - 1)) % n;
                        let tx = Transaction::sign(
                            TxPayload {
                                nonce: transfers.nonces[i],
                                gas_price: 1,
                                gas_limit: 21_000,
                                to: Some(transfers.accounts[to].address()),
                                value: U256::from(1 + rng.next_u64() % 1_000),
                                input: Bytes::new(),
                            },
                            &transfers.accounts[i],
                        );
                        transfers.nonces[i] += 1;
                        Step::Submit(tx)
                    })
                    .collect()
            }
        }
    }

    /// Buyer `index` of the market workload.
    ///
    /// # Panics
    ///
    /// On any other workload: only the market plans
    /// [`Step::ReadThenBuy`].
    pub fn buyer(&mut self, index: usize) -> &mut Buyer {
        match &mut self.kind {
            Kind::Market(market) => &mut market.buyers[index],
            _ => panic!("only market_ru has buyers"),
        }
    }
}

/// Address of the `vm_calls` contract that sender `i` calls.
fn call_contract(i: usize) -> Address {
    Address::from_low_u64(CALLS_CONTRACT_BASE + i as u64)
}

/// The `vm_calls` contract: hashes its 32-byte calldata word
/// [`CALL_ROUNDS`] times and stores the result in its own slot 0.
fn call_code() -> Bytes {
    let source = format!(
        "PUSH1 0x00\nCALLDATALOAD\nPUSH1 0x00\nMSTORE\nPUSH1 {CALL_ROUNDS:#04x}\n\
         round:\nJUMPDEST\n\
         PUSH1 0x20\nPUSH1 0x00\nSHA3\nPUSH1 0x00\nMSTORE\n\
         PUSH1 0x01\nSWAP1\nSUB\nDUP1\nPUSH @round\nJUMPI\n\
         POP\nPUSH1 0x00\nMLOAD\nPUSH1 0x00\nSSTORE\nSTOP"
    );
    Bytes::from(assemble(&source).expect("the call contract assembles"))
}
