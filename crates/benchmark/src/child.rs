//! One workload run in this process: pin, time the set-up, measure the
//! window with tracing off — or, for the traced pass, measure a quarter
//! of the window with tracing off and a quarter with it on, then run
//! the probes.

use crate::probes::{self, Readings};
use crate::report::{per_layer, RunResult, END_TO_END};
use crate::stats::median;
use crate::sys::{self, TreeUsage};
use crate::workloads::{self, Spec, Window};
use rlgraph_obs::Recorder;
use rlgraph_tensor::kernels::observe::install_recorder as install_kernel_sink;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How much work a run does around its measured window.
pub struct Effort {
    /// timed set-up repetitions (at least; cheap set-ups repeat until
    /// `setup_budget` is spent so their median is steady too)
    pub setup_reps: usize,
    pub setup_budget: Duration,
    pub warmup: Duration,
    /// timed samples per probe
    pub probe_samples: usize,
}

pub const FULL: Effort = Effort {
    setup_reps: 5,
    setup_budget: Duration::from_millis(500),
    warmup: Duration::from_secs(1),
    probe_samples: 200,
};
pub const QUICK: Effort = Effort {
    setup_reps: 1,
    setup_budget: Duration::ZERO,
    warmup: Duration::from_millis(100),
    probe_samples: 10,
};

/// The tail percentile reported end to end. Ten runs of `serve_tcp`
/// put p99 anywhere from 113 to 301 us while p95 stayed within a tenth,
/// and the harness refuses a benchmark whose spread exceeds its bound
/// (README, noise findings).
const TAIL: f64 = 0.95;
/// Each of the traced pass's two windows as a share of `--seconds`:
/// 3.75 s of the 15 s the end-to-end pass measures.
const TRACED_SHARE: u32 = 4;
/// Tracing overhead below this share is inside the spread between two
/// windows of the same untraced run (see the README's A/A table).
const OVERHEAD_RESOLUTION: f64 = 0.03;

fn setup_s(workload: &str, seed: u64, effort: &Effort) -> Result<f64, String> {
    let mut times = Vec::new();
    let begun = Instant::now();
    while times.len() < effort.setup_reps || begun.elapsed() < effort.setup_budget {
        let t0 = Instant::now();
        workloads::first_op(workload, seed)?;
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok(median(&mut times))
}

fn ops_per_s(win: &Window) -> f64 {
    win.ops as f64 / win.wall_s
}

fn result(win: &Window, metrics: Readings) -> RunResult {
    let mut failed = win.failures.len() as u64;
    for (name, value) in &metrics {
        if !value.is_finite() {
            println!("FAILED: {name} is not a finite number");
            failed += 1;
        }
    }
    for f in win.failures.iter().take(5) {
        println!("FAILED: {f}");
    }
    RunResult {
        attempted: win.ops + failed,
        failed,
        metrics: metrics.into_iter().map(|(n, v)| (n.to_string(), v)).collect(),
    }
}

/// The end-to-end pass: the whole window with tracing off.
pub fn end_to_end(
    spec: &Spec,
    seed: u64,
    window: Duration,
    effort: &Effort,
) -> Result<RunResult, String> {
    let setup = setup_s(spec.name, seed, effort)?;
    let mut win = workloads::run(spec.name, seed, effort.warmup, window, &Recorder::disabled())?;
    if win.ops == 0 {
        return Err("no operation completed in the window".into());
    }
    let latencies = &mut win.latencies;
    let (p50, tail) = match (latencies.quantile_us(0.5), latencies.quantile_us(TAIL)) {
        (Some(p50), Some(tail)) => {
            let beyond = [0.99, 0.999].map(|q| latencies.quantile_us(q).unwrap_or(f64::NAN));
            println!(
                "latency: {} caller-observed samples, every one counted; beyond the metrics \
                 (printed, not gated: see the README) p99 {:.1} us, p99.9 {:.1} us",
                latencies.len(),
                beyond[0],
                beyond[1]
            );
            (p50, tail)
        }
        _ => {
            println!(
                "latency: the driver returns totals only, no single {}, so both percentiles \
                 read the mean time per operation",
                spec.op
            );
            let mean = win.wall_s * 1e6 / win.ops as f64;
            (mean, mean)
        }
    };
    let values = [
        setup,
        ops_per_s(&win),
        win.env_frames as f64 / win.wall_s,
        p50,
        tail,
        win.rss_mb_at_fixed_work.unwrap_or_else(|| sys::tree_usage().peak_rss_mb),
    ];
    Ok(result(&win, END_TO_END.iter().map(|m| m.name).zip(values).collect()))
}

/// Samples the process's thread count until told to stop, and keeps
/// the kernel sink installed: it is process-wide, and every executor
/// built with a disabled recorder — which the drivers do for each agent
/// at run start — uninstalls it. Kernel counts therefore miss up to one
/// sampling interval after each agent build.
fn watch(stop: &AtomicBool, rec: &Recorder) -> usize {
    let mut peak = 0;
    while !stop.load(Ordering::Relaxed) {
        install_kernel_sink(rec);
        // the watcher itself is one of the threads
        peak = peak.max(sys::thread_count().saturating_sub(1));
        std::thread::sleep(Duration::from_millis(20));
    }
    install_kernel_sink(&Recorder::disabled());
    peak
}

/// Stops the watcher when the traced window ends — by a panic too, or
/// the scope would wait for the watcher forever.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// What the traced window's recorder and `/proc` say about the layers
/// this workload went through.
fn in_run(rec: &Recorder, win: &Window, used: TreeUsage, threads_peak: usize) -> Readings {
    let ops = win.ops as f64;
    let wall_us = win.wall_s * 1e6;
    let counter = |name| rec.counter(name).value() as f64;
    let busy_us = |name| rec.histogram(name).sum();
    let calls = |name| rec.histogram(name).count() as f64;
    let request_us = rec.histogram("serve.request_us").mean();
    vec![
        ("kernel.flops_per_op", rec.gauge("kernel.flops_total").value() / ops),
        ("kernel.gemm_calls_per_op", counter("kernel.gemm.calls") / ops),
        ("frag.learn.step_share", busy_us("frag.learn.step_us") / wall_us),
        ("frag.learn.wait_share", busy_us("frag.learn.sample_wait_us") / wall_us),
        (
            "frag.rollout.busy_share",
            (busy_us("frag.rollout.task_us") + busy_us("frag.rollout.rollout_us")) / wall_us,
        ),
        ("weight_sync.per_op", calls("weight_sync.latency_us") / ops),
        ("net.wire_bytes_per_op", (counter("net.bytes_tx") + counter("net.bytes_rx")) / ops),
        ("net.rpc_calls_per_op", calls("net.rpc_us") / ops),
        ("net.rpc_share", busy_us("net.rpc_us") / wall_us),
        ("net.reconnects", counter("net.reconnects")),
        ("serve.batch_size_mean", rec.histogram("serve.batch_size").mean()),
        ("serve.exec_share", busy_us("serve.exec_us") / wall_us),
        (
            "serve.wait_share",
            if request_us > 0.0 {
                1.0 - rec.histogram("serve.exec_us").mean() / request_us
            } else {
                0.0
            },
        ),
        ("serve.weight_swaps", counter("serve.weight_swaps")),
        ("proc.cpu_ms_per_op", used.cpu_ms / ops),
        ("proc.vol_ctx_switches_per_op", used.vol_ctx_switches / ops),
        ("proc.threads_peak", threads_peak as f64),
    ]
}

/// Prints every canonical histogram the traced window filled, in the
/// units the system records them in.
fn print_histograms(rec: &Recorder) {
    const CANONICAL: [&str; 5] = ["frag.", "net.", "serve.", "kernel.", "weight_sync."];
    for (name, h) in rec.metrics_snapshot().histograms {
        if h.count > 0 && CANONICAL.iter().any(|p| name.starts_with(p)) {
            println!(
                "  in-run {name}: n={} mean={:.1} p50={:.1} p99={:.1} max={:.1}",
                h.count, h.mean, h.p50, h.p99, h.max
            );
        }
    }
}

/// The probed cost, in microseconds, of the layers one operation of
/// `workload` goes through in-process. The TCP workloads take their
/// in-process twin's ladder, so what the wire adds shows as residual.
fn ladder_us(workload: &str, readings: &Readings) -> f64 {
    let p = |name: &str| readings.iter().find(|(n, _)| *n == name).expect("reading taken").1;
    match workload {
        // one collect task: a policy call and a vector step per env
        // step, then one batched TD-error call for the priorities
        "worker_collect" => {
            let steps = (workloads::COLLECT_TASK / workloads::COLLECT_ENVS) as f64;
            steps * (p("core.dbr_act_us") + p("envs.step_pong_us")) + p("agents.td_error_us")
        }
        // one learner update: sample, learn, push priorities back, and
        // a weight export every sync interval
        "apex_inproc" | "apex_tcp" => {
            p("memory.sample_us")
                + p("agents.update_us")
                + p("memory.update_priorities_us")
                + p("agents.get_weights_us") / workloads::APEX_SYNC_EVERY as f64
        }
        // one learner update; the actor's rollout for the next one runs
        // beside it on the other CPU
        "impala_inproc" => p("agents.impala_learn_us").max(p("agents.impala_rollout_us")),
        // one served request, on the one CPU everything shares: its
        // share of a batched replica call (for this net a call costs
        // the same at batch 1 and 2)
        "serve_inproc" | "serve_tcp" => {
            p("serve.replica_act_us") / p("serve.batch_size_mean").max(1.0)
        }
        other => unreachable!("{other} has run, so it is a known workload"),
    }
}

/// The traced pass: a window with tracing off, the same again with a
/// wall recorder handed to the workload, then the probes.
pub fn traced(
    spec: &Spec,
    seed: u64,
    window: Duration,
    effort: &Effort,
) -> Result<RunResult, String> {
    // untimed: the end-to-end pass owns `setup_s`, here it only warms up
    workloads::first_op(spec.name, seed)?;
    let part = window / TRACED_SHARE;
    let plain = workloads::run(spec.name, seed, effort.warmup, part, &Recorder::disabled())?;

    let rec = Recorder::wall();
    let stop = AtomicBool::new(false);
    let (win, used, threads_peak) = std::thread::scope(|s| {
        let watcher = s.spawn(|| watch(&stop, &rec));
        let (win, used) = {
            let _stop = StopOnDrop(&stop);
            let before = sys::tree_usage();
            // no warm-up: the untraced window just ran, and the recorder
            // must see exactly the operations the window counts
            let win = workloads::run(spec.name, seed, Duration::ZERO, part, &rec);
            let after = sys::tree_usage();
            let used = TreeUsage {
                cpu_ms: after.cpu_ms - before.cpu_ms,
                vol_ctx_switches: after.vol_ctx_switches - before.vol_ctx_switches,
                peak_rss_mb: after.peak_rss_mb,
            };
            (win, used)
        };
        (win, used, watcher.join().expect("watcher thread"))
    });
    let win = win?;
    if plain.ops == 0 || win.ops == 0 {
        return Err("no operation completed in the window".into());
    }

    let mut readings = probes::run_all(seed, effort.probe_samples);
    readings.extend(in_run(&rec, &win, used, threads_peak));
    print_histograms(&rec);
    let (plain_rate, traced_rate) = (ops_per_s(&plain), ops_per_s(&win));
    let overhead = 1.0 - traced_rate / plain_rate;
    println!(
        "tracing overhead: {plain_rate:.1} ops/s untraced, {traced_rate:.1} traced: {}",
        if overhead < OVERHEAD_RESOLUTION {
            format!("unresolved ({overhead:+.3} is below the {OVERHEAD_RESOLUTION} that two windows resolve)")
        } else {
            format!("{overhead:.3} of throughput")
        }
    );
    // never a negative overhead: a traced window that ran faster is noise
    readings.push(("obs.trace_overhead_share", overhead.max(0.0)));
    let coverage = ladder_us(spec.name, &readings) * plain_rate / 1e6;
    println!("{}", crate::report::ladder_line(spec.name, coverage));
    readings.push(("ladder.coverage", coverage));
    let metrics = per_layer()
        .map(|(name, _)| match readings.iter().find(|(n, _)| *n == name) {
            Some(&(_, value)) => (name, value),
            None => panic!("{name} is in the catalogue but was not measured"),
        })
        .collect();
    Ok(result(&win, metrics))
}
