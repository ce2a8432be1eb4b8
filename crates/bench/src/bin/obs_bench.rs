//! Telemetry-plane overhead benchmark: the multi-worker Ape-X TCP
//! runtime with the recorder disabled vs fully enabled (spans, metric
//! shipping on heartbeats, clock-offset estimation, flight ring).
//!
//! Writes `BENCH_obs.json` at the repo root with:
//!
//! 1. **Throughput overhead** — learner updates/sec with telemetry off
//!    and on, medians over [`RUNS`] paired runs at the same update
//!    budget; the enabled run must stay within [`MAX_OVERHEAD`] of the
//!    disabled one. Disabled means *disabled*, not absent: every call
//!    site still runs, so this prices the one-branch-per-call contract.
//! 2. **Telemetry volume** — spans retained, snapshot folds, and the
//!    cluster registry's own wire cost (`net.svc.coord.bytes_rx`), so a
//!    regression in piggyback size shows up in review.
//!
//! `--smoke` runs one tiny pair, skips the overhead threshold (a loaded
//! CI box makes single-digit-percent wall-clock asserts flaky), writes
//! nothing — but still asserts the telemetry plane produced a cluster
//! report with the per-worker gauges and a merged multi-process trace.

use rlgraph_agents::{Backend, DqnConfig};
use rlgraph_net::{maybe_run_child, run_apex_net, EnvSpec, LaunchMode, NetApexConfig, Transport};
use rlgraph_nn::{Activation, NetworkSpec};
use rlgraph_obs::Recorder;
use std::time::Duration;

/// Telemetry-on may cost at most this fraction of telemetry-off
/// throughput (medians over [`RUNS`] paired runs).
const MAX_OVERHEAD: f64 = 0.05;

/// Paired runs per mode in full mode; medians tame scheduler noise.
const RUNS: usize = 5;

struct Budget {
    num_workers: usize,
    envs_per_worker: usize,
    task_size: usize,
    num_shards: usize,
    max_updates: u64,
    runs: usize,
}

const FULL: Budget = Budget {
    num_workers: 2,
    envs_per_worker: 2,
    task_size: 32,
    num_shards: 2,
    max_updates: 60,
    runs: RUNS,
};
const SMOKE: Budget = Budget {
    num_workers: 2,
    envs_per_worker: 2,
    task_size: 16,
    num_shards: 2,
    max_updates: 8,
    runs: 1,
};

fn agent_config() -> DqnConfig {
    DqnConfig {
        backend: Backend::Static,
        network: NetworkSpec::mlp(&[64], Activation::Tanh),
        memory_capacity: 8192,
        batch_size: 32,
        n_step: 3,
        target_sync_every: 100,
        seed: 7,
        ..DqnConfig::default()
    }
}

fn config(budget: &Budget, recorder: Recorder) -> NetApexConfig {
    NetApexConfig {
        agent: agent_config(),
        env: EnvSpec::Random { shape: vec![4], actions: 2, episode_len: 20 },
        num_workers: budget.num_workers,
        envs_per_worker: budget.envs_per_worker,
        task_size: budget.task_size,
        num_shards: budget.num_shards,
        weight_sync_interval: 16,
        run_duration: Duration::from_secs(600),
        max_updates: Some(budget.max_updates),
        rpc_deadline: Duration::from_secs(10),
        // Thread mode keeps the pair comparable (no process fork noise)
        // while every byte still crosses the TCP wire codec and the
        // telemetry plane runs its full path: heartbeat piggybacks,
        // offset estimation, PUSH_TRACE, GET_TELEMETRY.
        launch: LaunchMode::Thread,
        shard_proxy: None,
        transport: Transport::default(),
        compression: false,
        elastic: None,
        recorder,
    }
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

fn main() {
    // Worker re-entry point, in case this binary is ever run in
    // process mode.
    maybe_run_child();

    let smoke = std::env::args().any(|a| a == "--smoke");
    let budget = if smoke { &SMOKE } else { &FULL };
    println!(
        "obs bench: {} workers x {} envs, {} shards, {} updates x {} runs per mode{}",
        budget.num_workers,
        budget.envs_per_worker,
        budget.num_shards,
        budget.max_updates,
        budget.runs,
        if smoke { " (smoke)" } else { "" }
    );

    let mut off_ups = Vec::with_capacity(budget.runs);
    let mut on_ups = Vec::with_capacity(budget.runs);
    let mut last_report = None;
    let mut last_trace = None;
    let mut coord_rx = 0u64;
    let mut span_count = 0usize;
    // Interleave off/on pairs so drift (thermal, cache, background
    // load) hits both modes evenly.
    for run in 0..budget.runs {
        let off = run_apex_net(config(budget, Recorder::disabled())).expect("telemetry-off run");
        assert_eq!(off.updates, budget.max_updates);
        off_ups.push(off.updates as f64 / off.wall_time.as_secs_f64().max(1e-9));

        let recorder = Recorder::wall();
        let on = run_apex_net(config(budget, recorder.clone())).expect("telemetry-on run");
        assert_eq!(on.updates, budget.max_updates);
        on_ups.push(on.updates as f64 / on.wall_time.as_secs_f64().max(1e-9));
        coord_rx = recorder.counter("net.svc.coord.bytes_rx").value();
        span_count = recorder.event_count();
        last_report = on.telemetry_dump;
        last_trace = on.merged_trace;
        println!(
            "  pair {}: off {:.1} updates/s | on {:.1} updates/s",
            run, off_ups[run], on_ups[run]
        );
    }

    let off_med = median(&mut off_ups);
    let on_med = median(&mut on_ups);
    let overhead = (off_med - on_med) / off_med.max(1e-9);
    println!(
        "medians: off {:.1} updates/s, on {:.1} updates/s -> overhead {:.1}%",
        off_med,
        on_med,
        overhead * 100.0
    );
    println!(
        "telemetry volume: {} parent spans, coord heartbeat+telemetry rx {} bytes",
        span_count, coord_rx
    );

    // The enabled run must actually have produced the telemetry plane's
    // artifacts — a benchmark of a silently dead feature is worthless.
    let report = last_report.expect("telemetry-on run returned a cluster report");
    assert!(report.contains("worker-0"), "cluster report lost worker sections:\n{}", report);
    assert!(report.contains("frag.rollout.mailbox_depth"), "mailbox gauge missing:\n{}", report);
    assert!(report.contains("frag.learn.update_rate"), "update-rate gauge missing:\n{}", report);
    let trace = last_trace.expect("telemetry-on run returned a merged trace");
    assert!(
        trace.contains("\"worker-0\"") && trace.contains("\"coordinator\""),
        "merged trace lost its process rows"
    );
    println!("telemetry artifacts present ✓");

    if smoke {
        println!("smoke mode: skipping overhead threshold and BENCH_obs.json");
        return;
    }

    assert!(
        overhead <= MAX_OVERHEAD,
        "telemetry costs {:.1}% throughput (budget {:.0}%)",
        overhead * 100.0,
        MAX_OVERHEAD * 100.0
    );
    println!("overhead within {:.0}% budget ✓", MAX_OVERHEAD * 100.0);

    let json = format!(
        concat!(
            "{{\n",
            "  \"budget\": {{\"workers\": {}, \"envs_per_worker\": {}, \"shards\": {}, ",
            "\"task_size\": {}, \"updates\": {}, \"runs\": {}}},\n",
            "  \"updates_per_s\": {{\"telemetry_off_median\": {}, \"telemetry_on_median\": {}}},\n",
            "  \"overhead\": {{\"fraction\": {}, \"budget\": {}}},\n",
            "  \"telemetry_volume\": {{\"parent_spans\": {}, \"coord_rx_bytes\": {}}}\n",
            "}}\n"
        ),
        budget.num_workers,
        budget.envs_per_worker,
        budget.num_shards,
        budget.task_size,
        budget.max_updates,
        budget.runs,
        json_f(off_med),
        json_f(on_med),
        json_f(overhead),
        json_f(MAX_OVERHEAD),
        span_count,
        coord_rx,
    );
    std::fs::write("BENCH_obs.json", &json).expect("write BENCH_obs.json");
    println!("wrote BENCH_obs.json");
}
