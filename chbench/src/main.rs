//! `chbench`: the repository benchmark. One command runs a CH-benCHmark
//! workload through SQL, checks every answer, and prints each metric with
//! its unit; the last line of standard output is one JSON object.
//!
//! ```text
//! cargo run --release --offline --manifest-path chbench/Cargo.toml -- \
//!     --workload ch_olap|ch_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the
//! workload twice, untraced then traced, re-times the stages of each layer
//! afterwards, and prints the per-layer metrics plus the tracing overhead
//! (traced − untraced) of every end-to-end metric. Files go under
//! `.chbench/` in the working directory; the run's database files are
//! removed at exit, the trace stays.

mod attrib;
mod check;
mod gen;
mod stats;
mod terminal;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use workload::{Metric, Sizes, Workload};

/// Spans written to the trace file (the self-time table covers all).
const MAX_WRITTEN_SPANS: usize = 100_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 5, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            val.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {val}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?,
            "--trace" => trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn print_run(label: &str, out: &workload::RunOut) {
    println!("[{label}]");
    for n in &out.notes {
        println!("  {n}");
    }
}

fn json(metrics: &[Metric], attempted: u64, failed: u64, correct: bool) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            // JSON has no NaN or infinity; such a value is a benchmark bug.
            let v = if v.is_finite() {
                v.to_string()
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args, dir: &Path) -> oltap_common::Result<bool> {
    let w = args.workload;
    let sizes = Sizes::of(w, args.seconds);
    println!(
        "chbench {} seed {} seconds {} trace {} ({} CPUs)",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let base = workload::run(w, args.seed, &sizes, &dir.join("untraced"), false)?;
    print_run("untraced", &base);
    let mut problems = base.problems.clone();
    let mut attempted = base.attempted;
    let mut failed = base.failures.total();
    let metrics = if !args.trace {
        base.e2e.clone()
    } else {
        std::fs::remove_dir_all(dir.join("untraced"))?;
        let traced = workload::run(w, args.seed, &sizes, &dir.join("traced"), true)?;
        print_run("traced", &traced);
        problems.extend(traced.problems.iter().cloned());
        attempted += traced.attempted;
        failed += traced.failures.total();
        let mut layers = traced.layers.clone();
        for ((name, b, unit), (_, t, _)) in base.e2e.iter().zip(&traced.e2e) {
            // Peak RSS is a process-wide maximum and cannot be split
            // between the two passes; the span buffer size stands in.
            if name != "peak_rss_mb" {
                layers.push((format!("trace.overhead.{name}"), t - b, unit));
            }
        }
        let span_mb = (traced.spans.len() * std::mem::size_of::<trace::Span>()) as f64 / 1e6;
        layers.push(("trace.span_mb".into(), span_mb, "MB"));
        println!("  span self time by name (count, total ms, self ms):");
        for (name, (n, total, own)) in trace::by_name(&traced.spans) {
            println!(
                "    {name:<22} {n:>9} {:>12.1} {:>12.1}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let path = dir.parent().expect("run dir has a parent").join(format!(
            "trace-{}-seed{}.jsonl",
            w.name(),
            args.seed
        ));
        let kept = traced.spans.len().min(MAX_WRITTEN_SPANS);
        trace::write_jsonl(&path, &traced.spans[..kept])?;
        println!(
            "  wrote {kept} of {} spans to {}",
            traced.spans.len(),
            path.display()
        );
        layers
    };
    for (name, v, unit) in &metrics {
        println!("{name:<36} {v:>16.4} {unit}");
    }
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = problems.is_empty();
    println!("{}", json(&metrics, attempted, failed, correct));
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("chbench: {e}");
            eprintln!(
                "usage: chbench --workload ch_olap|ch_mixed --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    // Every file the engine writes, temp files included, stays under the
    // working directory.
    let dir = PathBuf::from(".chbench").join(format!("run-{}", std::process::id()));
    let setup = std::fs::create_dir_all(&dir).and_then(|_| std::path::absolute(&dir));
    let abs = match setup {
        Ok(p) => p,
        Err(e) => {
            eprintln!("chbench: cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    };
    std::env::set_var("TMPDIR", &abs);
    let code = match run(&args, &abs) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("chbench: {e}");
            1
        }
    };
    let _ = std::fs::remove_dir_all(&abs);
    std::process::exit(code);
}
