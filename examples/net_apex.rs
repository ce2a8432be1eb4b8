//! Ape-X across real OS processes on localhost TCP.
//!
//! ```text
//! cargo run --release --example net_apex [-- --trace cluster-trace.json]
//! ```
//!
//! The parent process hosts the replay shards, the coordinator, and the
//! learner loop; each worker is a **separate OS process** launched by
//! re-invoking this executable (`maybe_run_child` is the re-entry
//! point). Trajectories, replay batches, priority updates and versioned
//! weight snapshots all cross loopback TCP through the rlgraph-net wire
//! codec — the same sockets a multi-host deployment would use.
//!
//! With `--trace <path>`, the run writes one merged Chrome trace
//! covering every process (open in `chrome://tracing` or Perfetto):
//! worker rows sit next to the coordinator's on a common clock, and RPC
//! flow arrows connect each client call span to its server handler
//! span. The cluster telemetry report prints to stdout.

use rlgraph::prelude::*;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Worker re-entry: when the runtime re-invokes this binary with a
    // worker spec in the environment, run the worker loop and exit.
    maybe_run_child();

    let args: Vec<String> = std::env::args().collect();
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .map(|i| args.get(i + 1).cloned().unwrap_or_else(|| "cluster-trace.json".to_string()));

    let recorder = Recorder::wall();
    let config = NetApexConfig {
        agent: DqnConfig {
            backend: Backend::Static,
            network: NetworkSpec::mlp(&[32], Activation::Tanh),
            memory_capacity: 4096,
            batch_size: 16,
            n_step: 3,
            target_sync_every: 100,
            seed: 7,
            ..DqnConfig::default()
        },
        env: EnvSpec::CartPole { max_steps: 200 },
        num_workers: 2,
        envs_per_worker: 2,
        task_size: 32,
        num_shards: 2,
        weight_sync_interval: 8,
        run_duration: Duration::from_secs(120),
        max_updates: Some(40),
        rpc_deadline: Duration::from_secs(10),
        launch: LaunchMode::Process,
        shard_proxy: None,
        transport: Transport::default(),
        compression: true,
        elastic: None,
        recorder: recorder.clone(),
    };
    let workers = config.num_workers;

    println!("launching {} worker processes against 2 TCP replay shards...", workers);
    let stats = run_apex_net(config)?;

    println!(
        "done: {} learner updates in {:.2}s, {} env frames ({:.0} frames/s)",
        stats.updates,
        stats.wall_time.as_secs_f64(),
        stats.env_frames,
        stats.frames_per_second
    );
    println!(
        "workers clean: {}/{}; heartbeats: {}; shard watermarks: {:?}",
        stats.workers_clean, workers, stats.heartbeats, stats.shard_watermarks
    );
    println!(
        "wire: {} bytes tx, {} bytes rx, {} reconnects",
        recorder.counter("net.bytes_tx").value(),
        recorder.counter("net.bytes_rx").value(),
        recorder.counter("net.reconnects").value()
    );
    assert_eq!(stats.updates, 40, "run should hit its update budget");
    assert_eq!(stats.workers_clean, workers, "worker processes should exit cleanly");
    assert!(stats.losses.iter().all(|l| l.is_finite()), "non-finite loss over TCP");

    if let Some(report) = &stats.telemetry_dump {
        println!("\n{}", report);
    }
    if let Some(path) = trace_path {
        let trace = stats.merged_trace.as_deref().expect("recorder enabled, trace rendered");
        assert!(
            trace.contains("\"worker-0\"") && trace.contains("\"worker-1\""),
            "merged trace should carry one row per worker process"
        );
        assert!(
            trace.contains("\"ph\":\"s\"") && trace.contains("\"ph\":\"f\""),
            "merged trace should stitch RPC spans with flow events"
        );
        std::fs::write(&path, trace)?;
        println!("merged cluster trace ({} processes) written to {}", 1 + workers, path);
    }
    println!("net_apex: multi-process Ape-X over TCP completed ✓");
    Ok(())
}
