//! Command line:
//!
//! ```text
//! e2ebench --workload <cached-read|origin-query|replicated-write> \
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one line per metric and check, then a JSON summary as the last
//! line. Exits 1 when a correctness check fails, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use e2ebench::{run, Args, Scale, Workload};

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| e.to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scale: Scale::full(),
        root: PathBuf::from(".bench_data").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
        exe: std::env::current_exe().map_err(|e| format!("own executable: {e}"))?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if let [_, flag, dir] = argv.as_slice() {
        if flag == "--recover" {
            // One timed restart, run by the benchmark itself in a fresh
            // process: print the recovery seconds.
            return match e2ebench::reopen(std::path::Path::new(dir)) {
                Ok((_, secs)) => {
                    println!("{secs}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("e2ebench: {e}");
                    ExitCode::from(1)
                }
            };
        }
    }
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# e2ebench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    match run(&args) {
        Ok(outcome) => {
            print!("{}", outcome.render());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(1)
        }
    }
}
