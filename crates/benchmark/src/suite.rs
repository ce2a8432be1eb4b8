//! The whole benchmark: every workload, each pass in a fresh child
//! process of this binary (so no run inherits another's heap, threads
//! or page cache state), then the summary tables.

use crate::report::{ladder_line, RunResult, END_TO_END, IN_RUN, PROBED};
use crate::stats::median;
use crate::workloads::{Spec, SPECS};
use crate::{sys, Options};
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

fn print_manifest(opts: &Options) {
    let (model, flags) = sys::cpu_model_and_flags();
    let isa: Vec<&str> = flags
        .split_whitespace()
        .filter(|f| ["sse4_2", "avx", "avx2", "fma", "bmi2"].contains(f) || f.starts_with("avx512"))
        .collect();
    let compiled: Vec<&str> = [
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect();
    println!("== run manifest");
    println!("nproc: {}", std::thread::available_parallelism().map_or(0, |n| n.get()));
    println!("cpu: {model}");
    println!("isa: {}", isa.join(" "));
    println!("rustc: {}", command_line("rustc", &["--version"]));
    println!(
        "rustflags: env RUSTFLAGS={:?}, plus .cargo/config.toml; compiled-in features: {}",
        std::env::var("RUSTFLAGS").unwrap_or_default(),
        compiled.join(" ")
    );
    println!("git: {}", command_line("git", &["rev-parse", "HEAD"]));
    println!(
        "seed {}, end-to-end window {}s, traced pass {}s untraced then {}s traced{}",
        opts.seed,
        opts.seconds,
        opts.seconds / 4.0,
        opts.seconds / 4.0,
        if opts.quick { ", quick" } else { "" }
    );
}

/// Runs one pass of one workload in a child process, forwarding what it
/// prints except the metric listing the summary repeats.
fn child(spec: &Spec, trace: bool, opts: &Options) -> Option<RunResult> {
    let exe = std::env::current_exe().expect("path of this binary");
    let mut cmd = Command::new(exe);
    if opts.quick {
        // first, so that the window given below outlives it
        cmd.arg("--quick");
    }
    cmd.args(["--workload", spec.name, "--trace", if trace { "1" } else { "0" }]).args([
        "--seed",
        &opts.seed.to_string(),
        "--seconds",
        &opts.seconds.to_string(),
    ]);
    let out = cmd.output().expect("spawn workload child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let mut result = None;
    for line in stdout.lines() {
        if line.starts_with('{') {
            result = RunResult::parse(line);
        } else if !(line.starts_with("  ") && line.contains(" = ")) {
            println!("{line}");
        }
    }
    if result.is_none() {
        println!("FAILED: {} produced no result ({})", spec.name, out.status);
    }
    result
}

/// One pass over the workloads in the given order; results come back in
/// `SPECS` order. `None` when a child produced no result.
fn pass(order: &[usize], trace: bool, opts: &Options) -> Option<Vec<RunResult>> {
    let mut results = vec![None; SPECS.len()];
    for &i in order {
        if !trace {
            println!("why {}: {}", SPECS[i].name, SPECS[i].why);
        }
        results[i] = child(&SPECS[i], trace, opts);
    }
    results.into_iter().collect()
}

fn cell(v: f64) -> String {
    match v.abs() {
        0.0 => "0".into(),
        a if a >= 1000.0 => format!("{v:.0}"),
        a if a >= 1.0 => format!("{v:.2}"),
        _ => format!("{v:.4}"),
    }
}

/// The probes time the same calls in every traced run, so the six runs
/// are six repeats: their median, and their range as the probe's own
/// run-to-run spread.
fn print_probes(results: &[RunResult]) {
    println!("\n== layer probes: median and range over the {} traced runs", results.len());
    for (name, unit) in PROBED {
        let mut values: Vec<f64> = results.iter().map(|r| r.get(name)).collect();
        let mid = median(&mut values);
        println!(
            "{:38} {:>12}   {:>12} .. {}",
            format!("{name} [{unit}]"),
            cell(mid),
            cell(values[0]),
            cell(values[values.len() - 1])
        );
    }
}

fn print_table(
    title: &str,
    names: impl Iterator<Item = (&'static str, &'static str)>,
    results: &[RunResult],
) {
    println!("\n== {title}");
    print!("{:34}", "");
    for spec in &SPECS {
        print!(" {:>14}", spec.name);
    }
    println!();
    for (name, unit) in names {
        print!("{:34}", format!("{name} [{unit}]"));
        for r in results {
            print!(" {:>14}", cell(r.get(name)));
        }
        println!();
    }
}

fn failed_share(pass: &str, results: &[RunResult]) -> bool {
    println!("\n== failed operations, {pass} (failed / attempted)");
    for (spec, r) in SPECS.iter().zip(results) {
        println!("{:16} {} / {}", spec.name, r.failed, r.attempted);
    }
    results.iter().all(|r| r.failed == 0)
}

/// The result of the workload called `name` in a pass's results.
fn of<'a>(results: &'a [RunResult], name: &str) -> &'a RunResult {
    &results[SPECS.iter().position(|s| s.name == name).expect("known workload")]
}

/// `a` beside `b` with the ratio `b / a`.
fn beside(what: &str, metric: &str, a: &RunResult, b: &RunResult) {
    let (x, y) = (a.get(metric), b.get(metric));
    println!("  {what:28} in-process {x:12.2}   tcp {y:12.2}   tcp/in-process {:.3}", y / x);
}

fn print_tcp_cost(e2e: &[RunResult]) {
    println!("\n== the TCP cost: the same work in-process and over TCP");
    let (a, b) = (of(e2e, "apex_inproc"), of(e2e, "apex_tcp"));
    beside("apex updates/s", "ops_per_s", a, b);
    beside("apex env frames/s", "env_frames_per_s", a, b);
    let (a, b) = (of(e2e, "serve_inproc"), of(e2e, "serve_tcp"));
    beside("serve requests/s", "ops_per_s", a, b);
    beside("serve latency p50 us", "latency_p50_us", a, b);
    beside("serve latency p95 us", "latency_p95_us", a, b);
}

fn print_ladder(layers: &[RunResult]) {
    println!("\n== ladder");
    for (spec, r) in SPECS.iter().zip(layers) {
        println!("  {}", ladder_line(spec.name, r.get("ladder.coverage")));
    }
}

/// Every workload, both passes, all tables. `true` when nothing failed.
pub fn run(opts: &Options) -> bool {
    print_manifest(opts);
    let order: Vec<usize> = (0..SPECS.len()).collect();
    println!("\n== end-to-end pass (tracing off)");
    let Some(e2e) = pass(&order, false, opts) else { return false };
    println!("\n== traced pass and layer probes");
    let Some(layers) = pass(&order, true, opts) else { return false };

    print_table("end-to-end metrics", END_TO_END.iter().map(|m| (m.name, m.unit)), &e2e);
    print_tcp_cost(&e2e);
    print_probes(&layers);
    print_table("per-layer metrics read in the traced windows", IN_RUN.into_iter(), &layers);
    print_ladder(&layers);
    let clean = failed_share("end-to-end pass", &e2e) & failed_share("traced pass", &layers);
    println!("\n{}", if clean { "all output checks passed" } else { "OUTPUT CHECKS FAILED" });
    clean
}

/// A/A: the end-to-end pass twice over the same code, the second time
/// in reverse workload order, every metric's gap held to its bound.
pub fn calibrate(opts: &Options) -> bool {
    print_manifest(opts);
    let forward: Vec<usize> = (0..SPECS.len()).collect();
    let backward: Vec<usize> = forward.iter().rev().copied().collect();
    println!("\n== calibration set 1");
    let Some(first) = pass(&forward, false, opts) else { return false };
    println!("\n== calibration set 2 (reverse order)");
    let Some(second) = pass(&backward, false, opts) else { return false };

    println!(
        "\n== A/A gaps: by how much of set 1 set 2 is worse (negative: better), against the bounds"
    );
    let mut within = true;
    for (i, spec) in SPECS.iter().enumerate() {
        for m in &END_TO_END {
            let (a, b) = (first[i].get(m.name), second[i].get(m.name));
            let gap = if m.higher_is_better { (a - b) / a } else { (b - a) / a };
            // the same code ran twice, so a gap in either direction is noise
            let over = gap.abs() > m.bound;
            within &= !over;
            println!(
                "{:16} {:18} {a:14.4} {b:14.4} {:>4}  gap {gap:+.4}  bound {:.2}{}",
                spec.name,
                m.name,
                m.unit,
                m.bound,
                if over { "  <-- EXCEEDS BOUND" } else { "" }
            );
        }
    }
    let clean = failed_share("set 1", &first) & failed_share("set 2", &second);
    if opts.quick {
        println!("quick windows: bounds are reported, not enforced");
    }
    clean && (within || opts.quick)
}
