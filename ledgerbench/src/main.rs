//! Command line of the ledger benchmark.
//!
//! ```text
//! cargo run --release --manifest-path ledgerbench/Cargo.toml -- \
//!     --workload market_ru --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints run facts and every metric with its unit and sample count, then
//! one JSON result line. Exits 1 when a correctness gate fails and 2 on a
//! bad argument, printing no result line in either case.

use std::path::PathBuf;
use std::process::ExitCode;

use ledgerbench::workload::{Size, Workload};
use ledgerbench::{run, Options};

const USAGE: &str = "usage: ledgerbench --workload <market_ru|vm_calls|transfers_large_state> --seed <n> \
--seconds <s> --trace <0|1> [--size full|tiny] [--blocks <n>] [--tamper-block <n>] [--data-dir <dir>]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: Workload::MarketRu,
        size: Size::Full,
        seed: 1,
        seconds: 10.0,
        trace: false,
        max_blocks: None,
        tamper_block: None,
        data_dir: PathBuf::from(".bench_data"),
    };
    let mut workload = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return Err(format!("{} needs a value", pair[0])) };
        let number = |what: &str| value.parse::<u64>().map_err(|_| format!("{what}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => options.seed = number("--seed")?,
            "--seconds" => {
                options.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds: not a positive number: {value}"))?;
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            "--size" => options.size = Size::parse(value).ok_or(format!("unknown size {value}"))?,
            "--blocks" => options.max_blocks = Some(number("--blocks")?),
            "--tamper-block" => options.tamper_block = Some(number("--tamper-block")?),
            "--data-dir" => options.data_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    options.workload = workload.ok_or("--workload is required")?;
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(error) => {
            eprintln!("ledgerbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(report) => {
            for line in &report.text {
                println!("{line}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("ledgerbench: FAILED: {error}");
            ExitCode::from(1)
        }
    }
}
