//! Integration tests for the elastic cluster plane (DESIGN.md §16):
//! a scripted scale-up/down through the real net runtime, and the
//! crash path — a worker killed mid-run is evicted by missed-beat
//! timeout, its replacement rejoins at a bumped generation, the zombie
//! generation is rejected over the wire, and no transition is lost.

use rlgraph_agents::{Backend, DqnConfig};
use rlgraph_core::RlError;
use rlgraph_dist::sync::WeightHub;
use rlgraph_dist::ShardCore;
use rlgraph_dist::{DriverConfigBuilder, RunBudget};
use rlgraph_net::{
    run_apex_net, CoordClient, CoordService, ElasticConfig, EnvSpec, Heartbeat, LaunchMode,
    NetApexConfig, RpcServer, ShardService, WorkerSpec,
};
use rlgraph_nn::{Activation, NetworkSpec};
use rlgraph_obs::Recorder;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tiny_agent() -> DqnConfig {
    DqnConfig {
        backend: Backend::Static,
        network: NetworkSpec::mlp(&[8], Activation::Tanh),
        memory_capacity: 512,
        batch_size: 8,
        n_step: 2,
        target_sync_every: 50,
        seed: 11,
        ..DqnConfig::default()
    }
}

/// Scripted elasticity through the full runtime: the fleet starts at
/// 2, grows to 4, shrinks back to 2 — all mid-run, with membership
/// tracked and retires clean — and every sample a worker ever reported
/// is present in a shard (zero lost transitions).
#[test]
fn scripted_schedule_resizes_the_fleet_without_losing_transitions() {
    let config = NetApexConfig::builder()
        .agent(tiny_agent())
        .env(EnvSpec::Random { shape: vec![4], actions: 2, episode_len: 20 })
        .parallelism(2)
        .envs_per_worker(2)
        .task_size(32)
        .num_shards(2)
        .sync_every(4)
        .budget(RunBudget::wall(Duration::from_secs(6)))
        .rpc_deadline(Duration::from_secs(5))
        .launch(LaunchMode::Thread)
        .elastic(Some(ElasticConfig {
            min_workers: 1,
            max_workers: 4,
            schedule: vec![(Duration::from_millis(700), 4), (Duration::from_millis(2500), 2)],
            ..ElasticConfig::default()
        }))
        .try_build()
        .unwrap();
    let stats = run_apex_net(config).unwrap();

    assert!(stats.updates > 0, "learner never trained");
    assert!(stats.samples_collected > 0);
    // The schedule actually moved the pool: up to 4 and back to 2.
    let peaks: Vec<usize> = stats.scale_events.iter().map(|&(_, n)| n).collect();
    assert!(peaks.contains(&4), "fleet never reached 4 workers: {:?}", stats.scale_events);
    assert_eq!(*peaks.last().unwrap(), 2, "fleet did not shrink back: {:?}", stats.scale_events);
    // Membership churned: 4 joins + 2 retires at minimum.
    assert!(stats.cluster_epoch >= 6, "epoch {} too low", stats.cluster_epoch);
    assert_eq!(stats.evictions, 0, "clean retires must not count as evictions");
    // The trace sampled throughout the run and saw the wide fleet.
    assert!(!stats.throughput_trace.is_empty());
    assert!(stats.throughput_trace.iter().any(|p| p.workers == 4));
    // Zero lost transitions: everything workers reported via
    // heartbeats landed in a shard first (insert precedes beat).
    let inserted: u64 = stats.shard_watermarks.iter().sum();
    assert!(
        inserted >= stats.samples_collected,
        "lost transitions: {} inserted < {} reported",
        inserted,
        stats.samples_collected
    );
}

/// The crash path against real services: a worker that dies between
/// insert and heartbeat is evicted by missed-beat timeout, a
/// replacement at a bumped generation rejoins, a zombie beat from the
/// dead incarnation is rejected over the wire with the typed
/// [`RlError::StaleGeneration`], and the shard watermarks still cover
/// every coordinator-reported sample.
#[test]
fn killed_worker_is_evicted_and_a_zombie_generation_is_rejected() {
    let recorder = Recorder::disabled();
    let hub = Arc::new(WeightHub::new());
    let stop = Arc::new(AtomicBool::new(false));
    let coord_service = Arc::new(
        CoordService::new(hub, stop.clone()).with_beat_timeout(Duration::from_millis(300)),
    );
    let coord = RpcServer::spawn("coord", coord_service.clone(), recorder.clone()).unwrap();
    let mut services = Vec::new();
    let mut shards = Vec::new();
    for i in 0..2 {
        let service = Arc::new(ShardService::new(ShardCore::new(4096, 0.6, i), &recorder));
        services.push(service.clone());
        shards.push(RpcServer::spawn(&format!("shard-{}", i), service, recorder.clone()).unwrap());
    }
    let watermarks = || services.iter().map(|s| s.shard().watermark()).sum::<u64>();
    let spec = WorkerSpec {
        worker: 0,
        num_workers: 2,
        agent: tiny_agent(),
        env: EnvSpec::Random { shape: vec![4], actions: 2, episode_len: 20 },
        envs_per_worker: 2,
        task_size: 16,
        coord_addr: coord.addr().to_string(),
        shard_addrs: shards.iter().map(|s| s.addr().to_string()).collect(),
        rpc_deadline_ms: 5000,
        telemetry: false,
        compression: false,
        generation: 1,
        die_after_tasks: Some(2),
        task_throttle_ms: 0,
    };

    // Incarnation 1: joins, completes 2 tasks, dies after the second
    // insert *without* beating for it and without a LEAVE.
    let doomed = spec.clone();
    let crash = std::thread::spawn(move || rlgraph_net::run_worker(&doomed));
    assert!(
        matches!(crash.join().unwrap(), Err(RlError::ActorCrashed { .. })),
        "worker must die via the crash hook"
    );
    assert_eq!(coord_service.membership_view().alive, vec![0], "join must have registered");

    // Liveness: the sweep alone must discover the death. The 10 s bound
    // only turns a hang into a failure: eviction waits on the beat
    // timeout's clock, which no event of the test can stand in for.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let evicted = coord_service.sweep_membership();
        if evicted == vec![0] {
            break;
        }
        assert!(evicted.is_empty(), "unexpected evictions: {:?}", evicted);
        assert!(Instant::now() < deadline, "worker 0 was never evicted");
        std::thread::sleep(Duration::from_millis(20));
    }
    let epoch_after_evict = coord_service.membership_view().epoch;
    assert!(coord_service.membership_view().alive.is_empty());

    // Zero loss across the crash: the un-beaten task is *extra* data
    // in the shards, never missing data.
    let inserted = watermarks();
    let progress = coord_service.progress();
    assert!(
        inserted >= progress.samples,
        "lost transitions: {} inserted < {} reported",
        inserted,
        progress.samples
    );
    assert!(inserted > 0, "the crashed worker inserted nothing");

    // Incarnation 2 rejoins at the same slot with a bumped generation
    // and runs until told to stop.
    let mut respawned = spec;
    respawned.generation = 2;
    respawned.die_after_tasks = None;
    let replacement = std::thread::spawn(move || rlgraph_net::run_worker(&respawned));
    // a hang guard, as above: the rejoin is the worker thread's own doing
    let deadline = Instant::now() + Duration::from_secs(10);
    while coord_service.membership_view().generations != vec![(0, 2)] {
        assert!(Instant::now() < deadline, "replacement never rejoined");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(coord_service.membership_view().epoch > epoch_after_evict);

    // The zombie speaks: a beat from dead incarnation 1 must come back
    // as the typed StaleGeneration error, not fold into the successor.
    let mut zombie = CoordClient::connect(coord.addr(), &recorder).unwrap();
    let beat =
        Heartbeat { worker: 0, frames: 640, samples: 640, generation: 1, ..Heartbeat::default() };
    match zombie.heartbeat(&beat).unwrap_err() {
        RlError::StaleGeneration { member, held, presented } => {
            assert_eq!((member, held, presented), (0, 2, 1));
        }
        other => panic!("expected StaleGeneration over the wire, got {:?}", other),
    }
    // ... and its numbers were NOT folded into progress.
    assert!(coord_service.progress().env_frames < 640 + progress.env_frames);

    stop.store(true, Ordering::Relaxed);
    assert!(replacement.join().unwrap().is_ok(), "replacement must exit cleanly on stop");
    let final_progress = coord_service.progress();
    assert!(watermarks() >= final_progress.samples);
    for s in shards {
        s.shutdown();
    }
    coord.shutdown();
}
