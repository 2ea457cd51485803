//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload scan_100k --seed 1 --seconds 12 --trace 0
//! ```
//!
//! A run makes one untraced pass of the workload for `--seconds` and
//! checks its outputs against the library's own write-through campaign.
//! With `--trace 1` it then repeats exactly the same work with every
//! engine instrumented and prints the per-layer table. The last line of
//! standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Any failed check
//! exits with status 1 and prints no result. See `perfbench/README.md`.

mod check;
mod metrics;
mod pipeline;
mod serve_trace;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use httpsrr::ecosystem::World;
use pipeline::Budget;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::Workload;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(at + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|_| format!("{flag} must be a whole number"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

/// The commit the checkout was made from, read from `.git` in the
/// working directory only (never from a parent directory).
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown".into() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn print_context(w: &Workload, args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# context workload={} seed={} seconds={} trace={} nproc={nproc} threads={} git_rev={}",
        w.name,
        w.seed,
        args.seconds,
        args.trace as u8,
        w.threads,
        git_rev()
    );
    println!("# EcosystemConfig {:?}", w.ecosystem);
    for v in &w.vantages {
        println!("# VantagePoint {v:?}");
    }
    match &w.link {
        Some(link) => println!("# LinkModel {link:?}"),
        None => println!("# LinkModel zero"),
    }
    println!("# ServeConfig {:?} rates_kqps={:?}", w.serve, w.serve_rates_kqps);
    println!("# Stages days={:?} extra_builds={}", w.days, w.extra_builds);
}

fn run(args: &Args, work: &Path) -> Result<String, String> {
    let w = workloads::workload(&args.workload, args.seed).ok_or(format!(
        "unknown workload {:?}; expected one of {:?}",
        args.workload,
        workloads::NAMES
    ))?;
    print_context(&w, args);
    // The reference runs first, so the process's peak resident set
    // right after it is the library pipeline's with one world alive.
    let reference = check::reference(&w, &work.join("reference"))?;
    let peak_rss_mb = metrics::peak_rss_mb();

    let dir = work.join("pass");
    let untraced = pipeline::run(&w, &reference, Budget::Seconds(args.seconds), false, &dir)?;
    check::verify_pass(&reference, &untraced.digests, &dir)?;
    let mut builds = vec![reference.build];
    builds.extend(untraced.spans.durations("ecosystem.build"));
    // Set-up samples beyond the reference's and the pass's: worlds built
    // and dropped after every timed stage, because a dropped world slows
    // the work that follows it in the same process.
    if !args.trace {
        for _ in 0..w.extra_builds {
            let start = Instant::now();
            drop(World::build(w.ecosystem.clone()));
            builds.push(start.elapsed());
        }
    }
    println!(
        "# check vantage_days={} obs_digest={:016x} report_digest={:016x} serve_digest={:016x}",
        untraced.digests.len(),
        check::fnv1a(format!("{:?}", untraced.digests).as_bytes()),
        check::fnv1a(reference.report_text.as_bytes()),
        check::fnv1a(reference.serve_text.as_bytes()),
    );
    let attempted = untraced.days.len() * w.vantages.len() + 2 * untraced.schedule.len();
    let result = if args.trace {
        let dir = work.join("traced");
        let traced = pipeline::run(&w, &reference, Budget::Replay(&untraced.schedule), true, &dir)?;
        check::verify_pass(&reference, &traced.digests, &dir)?;
        check::compare_digests("traced pass", &untraced.digests, &traced.digests)?;
        print!("{}", metrics::layer_table(&w, &untraced, &traced));
        metrics::per_layer(&untraced, &traced)
    } else {
        let builds: Vec<f64> = builds.iter().map(Duration::as_secs_f64).collect();
        let e2e = metrics::end_to_end(&untraced, &builds, peak_rss_mb);
        print!("{}", metrics::summary(&untraced, &builds, &e2e));
        e2e
    };
    Ok(metrics::result_json(attempted, &result))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    // Stores live under the working directory (the checkout) and are
    // removed when the run ends, whatever its outcome.
    let work = PathBuf::from(".perfbench-work").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench-work");
    match outcome {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
