//! The repo benchmark. See `README.md` beside this crate.
//!
//! ```text
//! umzi-benchmark --workload W --seed N --seconds S --trace 0|1   one run (what BENCHMARK.json's command runs)
//! umzi-benchmark [--seed N] [--seconds S] [--smoke] [--repeat N]  all four workloads, untraced then traced
//! umzi-benchmark compare BASE.json NEW.json                       verdict per workload × metric
//! ```

mod affinity;
mod gen;
mod htap;
mod json;
mod metrics;
mod oracle;
mod pipeline;
mod probe;
mod reads;
mod report;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::Params;

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const DEFAULT_SECONDS: f64 = 20.0;
const SMOKE_SECONDS: f64 = 2.0;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
    corrupt_oracle: bool,
    out_dir: PathBuf,
}

fn usage() -> String {
    "usage: umzi-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
     [--smoke] [--repeat N] [--out-dir DIR] [--corrupt-oracle]\n       \
     umzi-benchmark compare BASE.json NEW.json"
        .to_owned()
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    // Results land beside the crate whether the command runs from the repo
    // root (as BENCHMARK.json's does) or from inside `benchmark/`.
    let default_out = if std::path::Path::new("benchmark/Cargo.toml").exists() {
        "benchmark/out"
    } else {
        "out"
    };
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
        corrupt_oracle: false,
        out_dir: PathBuf::from(default_out),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        let bad = |what: &str, v: &str| format!("{flag}: {v:?} is not {what}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                cli.seed = v.parse().map_err(|_| bad("a whole number", v))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad("a number", v))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("between 0 and 600", v));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                let v = value()?;
                cli.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1", v)),
                };
            }
            "--repeat" => {
                let v = value()?;
                cli.repeat = v.parse().map_err(|_| bad("a whole number", v))?;
                if cli.repeat == 0 {
                    return Err(bad("at least 1", v));
                }
            }
            "--out-dir" => cli.out_dir = PathBuf::from(value()?),
            "--smoke" => cli.smoke = true,
            "--corrupt-oracle" => cli.corrupt_oracle = true,
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("umzi-benchmark: built with debug assertions; build with --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [base, new] => report::compare(base.as_ref(), new.as_ref()),
            _ => Err(usage()),
        },
        Some("-h" | "--help") => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        _ => parse_cli(&args).and_then(|cli| {
            let seconds = cli.seconds.unwrap_or(if cli.smoke {
                SMOKE_SECONDS
            } else {
                DEFAULT_SECONDS
            });
            match cli.workload {
                Some(workload) => report::run_one(&Params {
                    workload,
                    seed: cli.seed,
                    seconds,
                    trace: cli.trace,
                    smoke: cli.smoke,
                    corrupt_oracle: cli.corrupt_oracle,
                    out_dir: cli.out_dir,
                }),
                None => report::run_all(&report::Suite {
                    seed: cli.seed,
                    seconds,
                    smoke: cli.smoke,
                    repeat: cli.repeat,
                    corrupt_oracle: cli.corrupt_oracle,
                    out_dir: cli.out_dir,
                }),
            }
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("umzi-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
