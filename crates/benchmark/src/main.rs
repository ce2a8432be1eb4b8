//! The repository benchmark: six workloads, six end-to-end metrics each,
//! and a per-layer ladder. See README.md beside this crate.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` measures
//! one workload in this process and ends with one JSON result line.
//! Without `--workload` every workload runs, each pass in a fresh child
//! process of this binary, and a summary is printed; `--calibrate` does
//! that twice and compares the two sets against the bounds.

mod child;
mod probes;
mod report;
mod stats;
mod suite;
mod sys;
mod workloads;

use std::time::Duration;

/// Command-line options shared by a single run and the suite.
pub struct Options {
    pub seed: u64,
    /// measured window of the end-to-end pass, seconds; the traced pass
    /// measures a quarter of it untraced and a quarter traced
    pub seconds: f64,
    pub quick: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: benchmark [--workload <name> [--trace 0|1]] [--seed N] [--seconds S] \
         [--quick] [--calibrate] [--catalogue]\n--quick: 1 s windows (unless --seconds \
         follows it), one set-up repetition, ten samples per probe, bounds not enforced\n\
         workloads: {}",
        workloads::SPECS.map(|s| s.name).join(" ")
    );
    std::process::exit(2);
}

fn main() {
    // apex_tcp's worker process is this binary re-executed
    rlgraph_net::maybe_run_child();

    let (mut workload, mut trace, mut calibrate) = (None, false, false);
    let mut opts = Options { seed: 11, seconds: 15.0, quick: false };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => opts.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = value() == "1",
            "--quick" => (opts.quick, opts.seconds) = (true, 1.0),
            "--catalogue" => {
                report::print_catalogue();
                return;
            }
            "--calibrate" => calibrate = true,
            _ => usage(),
        }
    }
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        usage();
    }

    let ok = match workload {
        Some(name) => {
            let spec = workloads::spec(&name).unwrap_or_else(|| usage());
            run_one(spec, trace, &opts)
        }
        None if calibrate => suite::calibrate(&opts),
        None => suite::run(&opts),
    };
    std::process::exit(if ok { 0 } else { 1 });
}

/// One workload, one pass, in this process.
fn run_one(spec: &workloads::Spec, trace: bool, opts: &Options) -> bool {
    let pinned = sys::pin_to(spec.cpus);
    let window = Duration::from_secs_f64(opts.seconds);
    println!(
        "workload {}: seed {}, window {:.1}s, {} pass, cpus {:?} pinned={pinned}, one op = one {}",
        spec.name,
        opts.seed,
        opts.seconds,
        if trace { "traced" } else { "end-to-end" },
        spec.cpus,
        spec.op,
    );
    let effort = if opts.quick { &child::QUICK } else { &child::FULL };
    let outcome = match trace {
        false => child::end_to_end(spec, opts.seed, window, effort),
        true => child::traced(spec, opts.seed, window, effort),
    };
    match outcome {
        Ok(result) => {
            for (name, value) in &result.metrics {
                println!("  {name} = {value:.4} {}", report::unit_of(name));
            }
            println!("{}", result.json_line());
            result.failed == 0
        }
        Err(e) => {
            // no result line: the run did not produce a measurement
            eprintln!("workload {} failed: {e}", spec.name);
            false
        }
    }
}
