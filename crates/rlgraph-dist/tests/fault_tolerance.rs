//! Integration tests for the fault-tolerance subsystem: recovery
//! determinism as a property over fault-plan seeds and rates, learner
//! checkpoint round-trips through a real agent, scheduled injections,
//! and quorum degradation — all through the public `rlgraph-dist` API.

use proptest::prelude::*;
use rlgraph_agents::{Backend, DqnAgent, DqnConfig};
use rlgraph_dist::{
    run_apex_chaos, ChaosApexConfig, DriverConfigBuilder, FaultKind, FaultPlan, LearnerCheckpoint,
    RunBudget,
};
use rlgraph_envs::{Env, RandomEnv};
use rlgraph_nn::{Activation, NetworkSpec};

fn tiny_agent() -> DqnConfig {
    DqnConfig {
        backend: Backend::Static,
        network: NetworkSpec::mlp(&[8], Activation::Tanh),
        memory_capacity: 256,
        batch_size: 8,
        n_step: 2,
        target_sync_every: 50,
        seed: 7,
        ..DqnConfig::default()
    }
}

fn env_factory(w: usize, e: usize) -> Box<dyn Env> {
    Box::new(RandomEnv::new(&[4], 2, 20, (w * 10 + e) as u64))
}

fn chaos_config(plan: FaultPlan, steps: u64) -> ChaosApexConfig {
    ChaosApexConfig::builder()
        .agent(tiny_agent())
        .parallelism(2)
        .envs_per_worker(2)
        .task_size(24)
        .num_shards(2)
        .budget(RunBudget::steps(steps))
        .sync_every(4)
        .checkpoint_every(Some(4))
        .fault_plan(plan)
        .try_build()
        .expect("chaos config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any fault-plan seed and any (reasonable) rate combination gives
    /// bit-identical fault schedules and run statistics across repeats.
    #[test]
    fn recovery_is_deterministic_for_any_seed(
        seed in any::<u64>(),
        crash in 0.05f64..0.4,
        stall in 0.0f64..0.2,
        drop in 0.0f64..0.3,
    ) {
        let plan = || {
            FaultPlan::builder(seed)
                .worker_crash_rate(crash)
                .shard_stall(stall, 3)
                .weight_drop_rate(drop)
                .build()
                .unwrap()
        };
        let (s1, r1) = run_apex_chaos(chaos_config(plan(), 10), env_factory).unwrap();
        let (s2, r2) = run_apex_chaos(chaos_config(plan(), 10), env_factory).unwrap();
        prop_assert_eq!(&r1.events, &r2.events);
        prop_assert_eq!(r1, r2);
        prop_assert_eq!(s1.env_frames, s2.env_frames);
        prop_assert_eq!(s1.updates, s2.updates);
        prop_assert_eq!(s1.losses, s2.losses);
        prop_assert_eq!(s1.reward_timeline, s2.reward_timeline);
    }
}

/// A checkpoint captured from a run restores into a fresh agent with the
/// full variable set — policy, target, optimizer slots — intact, and
/// survives the JSON serialization round trip unchanged.
#[test]
fn checkpoint_round_trips_through_agent_and_json() {
    let (_, report) = run_apex_chaos(chaos_config(FaultPlan::disabled(), 12), env_factory).unwrap();
    let ckpt = report.final_checkpoint.expect("run banks a final checkpoint");
    assert!(ckpt.updates > 0, "learner should have updated");
    assert!(ckpt.payload_elems() > 0);
    assert_eq!(ckpt.shard_watermarks.len(), 2);

    // restore into a fresh agent: every variable must match the snapshot
    let probe = env_factory(0, 0);
    let mut fresh =
        DqnAgent::new(tiny_agent(), &probe.state_space(), &probe.action_space()).unwrap();
    ckpt.restore(&mut fresh).unwrap();
    assert_eq!(fresh.num_updates(), ckpt.updates);
    assert_eq!(fresh.export_variables(), ckpt.variables);

    // text round trip is lossless
    let reparsed = LearnerCheckpoint::from_json(&ckpt.to_json()).unwrap();
    assert_eq!(reparsed, ckpt);
}

/// `FaultPlanBuilder::inject_at` fires exactly once, at the scheduled
/// coordinates, and shows up in the run's event log.
#[test]
fn scheduled_faults_fire_at_their_step() {
    let plan = FaultPlan::builder(0)
        .inject_at(5, FaultKind::WorkerCrash, 1)
        .shard_stall(0.0, 2)
        .inject_at(7, FaultKind::ShardStall, 0)
        .build()
        .unwrap();
    let (_, report) = run_apex_chaos(chaos_config(plan, 12), env_factory).unwrap();
    assert_eq!(report.worker_crashes, 1);
    assert_eq!(report.worker_restarts, 1);
    assert_eq!(report.shard_stalls, 1);
    let crash = report.events.iter().find(|e| e.kind == FaultKind::WorkerCrash).unwrap();
    assert_eq!((crash.step, crash.target), (5, 1));
    let stall = report.events.iter().find(|e| e.kind == FaultKind::ShardStall).unwrap();
    assert_eq!((stall.step, stall.target), (7, 0));
}

/// Losing a shard within quorum degrades gracefully (learning continues);
/// losing quorum halts updates without erroring the run.
#[test]
fn quorum_loss_degrades_without_erroring() {
    let in_quorum = ChaosApexConfig::builder()
        .agent(tiny_agent())
        .parallelism(1)
        .envs_per_worker(2)
        .task_size(32)
        .num_shards(3)
        .shard_quorum(2)
        .budget(RunBudget::steps(12))
        .kill_shards(vec![2])
        .try_build()
        .unwrap();
    let (stats, report) = run_apex_chaos(in_quorum, env_factory).unwrap();
    assert!(stats.updates > 0, "two healthy shards meet quorum");
    assert_eq!(report.degraded_steps, 0);

    let below_quorum = ChaosApexConfig::builder()
        .agent(tiny_agent())
        .parallelism(1)
        .envs_per_worker(2)
        .task_size(32)
        .num_shards(3)
        .shard_quorum(2)
        .budget(RunBudget::steps(8))
        .kill_shards(vec![0, 1])
        .try_build()
        .unwrap();
    let (stats, report) = run_apex_chaos(below_quorum, env_factory).unwrap();
    assert_eq!(stats.updates, 0, "below quorum the learner must pause");
    assert_eq!(report.degraded_steps, 8);
}

#[test]
fn supervisor_panic_dumps_flight_recorder() {
    use rlgraph_dist::{RetryPolicy, Supervisor};
    use rlgraph_obs::Recorder;
    use std::time::Duration;

    let recorder = Recorder::wall();
    recorder.enable_flight(256);
    let path = std::env::temp_dir().join(format!("rlgraph-flight-{}.txt", std::process::id()));
    let policy = RetryPolicy::builder()
        .max_attempts(2)
        .base_delay(Duration::from_micros(100))
        .max_delay(Duration::from_millis(1))
        .build()
        .unwrap();
    let mut sup = Supervisor::with_recorder(policy, recorder.clone()).with_flight_dump(&path);
    let rec = recorder.clone();
    sup.spawn("doomed", move |_stop| {
        {
            let _span = rec.span("doomed.work");
        }
        rec.flight_note("doomed.state", "about to blow");
        panic!("kaboom");
    });
    let report = sup.join();
    assert_eq!(report.total_panics(), 2, "both attempts panicked");
    let dump = std::fs::read_to_string(&path).expect("flight dump written on panic");
    let _ = std::fs::remove_file(&path);
    assert!(dump.contains("flight recorder dump"), "header missing:\n{}", dump);
    assert!(dump.contains("doomed.work"), "span missing:\n{}", dump);
    assert!(dump.contains("about to blow"), "note missing:\n{}", dump);
    assert!(dump.contains("kaboom"), "panic reason missing:\n{}", dump);
}
