//! The repository benchmark: one batch MultiEM workload and two traffic
//! mixes against the embedded `MatchServer`, reported end to end or, with
//! `--trace 1`, layer by layer. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload match-open --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is the JSON result; the lines before it
//! are the human-readable report.

#![forbid(unsafe_code)]

mod load;
mod replay;
mod report;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use workloads::{Args, WORKLOADS};

const USAGE: &str =
    "usage: multiem-perfbench --workload <batch-shopee|match-open|ingest-cross> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Output of a command, trimmed, or `unknown`. Git looks for a repository
/// in the working directory only, never in the directories above it.
fn command_line(program: &str, args: &[&str]) -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Run-time files (WALs, spans) stay inside the working directory.
    let scratch =
        PathBuf::from(".perfbench").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(1);
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "provenance git_rev={} nproc={nproc} rustc=\"{}\" workload={} seed={} seconds={} trace={}",
        command_line("git", &["rev-parse", "HEAD"]),
        command_line("rustc", &["-V"]),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let (started, steal_started) = (Instant::now(), load::steal_seconds());
    let mut report = workloads::run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    // Wall-clock figures move with the CPU time a hypervisor takes from
    // this machine; say how much it took during the run.
    let stolen =
        (load::steal_seconds() - steal_started) / (started.elapsed().as_secs_f64() * nproc as f64);
    report.notes.push(format!(
        "hypervisor steal {:.1}% of CPU time during the run",
        stolen * 100.0
    ));
    for line in report.human_lines() {
        println!("{line}");
    }
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}
