//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload sweep|ingest|socket|attack --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a header, the simulation digest and (traced runs) the per-layer
//! table, then, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Spans of a traced run go to
//! standard error as JSON lines. Exits 0 when every check passed, 1 when a
//! check failed, 2 on a usage error or a pinned environment knob.

use std::io::Write;
use std::process::ExitCode;

use perfbench::{run_named, Size, PINNED_ENV, SHARD_THREADS, WORKERS, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(parse_seed(&value).ok_or_else(|| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let pinned: Vec<&str> = PINNED_ENV
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !pinned.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: each changes the measured code path",
            pinned.join(", ")
        );
        return ExitCode::from(2);
    }

    let outcome = run_named(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Size::Full,
    )
    .expect("workload names are validated by parse");
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} host.available_cpus={cpus} \
         workers={WORKERS} shard_threads={SHARD_THREADS}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("# digest {:016x}", outcome.digest);
    for failure in &outcome.failures {
        println!("# check failed: {failure}");
    }
    if args.trace {
        println!("# {:<44} {:>18}  unit", "layer metric", "value");
        for m in &outcome.metrics {
            println!("# {:<44} {:>18.4}  {}", m.name, m.value, m.unit);
        }
        let mut err = std::io::stderr().lock();
        if let Err(e) = outcome.tracer.write_jsonl(&mut err) {
            eprintln!("perfbench: writing spans failed: {e}");
        }
        let _ = err.flush();
    }
    println!("{}", outcome.json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
