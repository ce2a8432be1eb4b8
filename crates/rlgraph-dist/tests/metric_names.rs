//! One name per metric: every counter, gauge and histogram a driver
//! registers lives under a canonical namespace (`frag.<stage>.*`,
//! `train.*`, `weight_sync.*`, `supervisor.*`), and the spellings retired
//! with the hand-woven drivers (DESIGN.md §15 has the translation table)
//! do not come back.

use rlgraph_agents::{Backend, DqnConfig, ImpalaConfig};
use rlgraph_dist::{
    default_apex_placement, default_impala_placement, run_apex_chaos, run_apex_fragments,
    run_impala_fragments, ApexRunConfig, ChaosApexConfig, DriverConfigBuilder, FaultPlan,
    ImpalaDriverConfig, RunBudget,
};
use rlgraph_envs::{Env, RandomEnv};
use rlgraph_nn::{Activation, NetworkSpec};
use rlgraph_obs::Recorder;
use std::time::Duration;

const RETIRED_PREFIXES: [&str; 6] = ["shard.", "worker.", "learner.", "actor.", "queue.", "chaos."];

fn env_factory(w: usize, e: usize) -> Box<dyn Env> {
    Box::new(RandomEnv::new(&[4], 2, 20, (w * 10 + e) as u64))
}

fn tiny_dqn() -> DqnConfig {
    DqnConfig {
        backend: Backend::Static,
        network: NetworkSpec::mlp(&[8], Activation::Tanh),
        memory_capacity: 256,
        batch_size: 8,
        n_step: 2,
        seed: 3,
        ..DqnConfig::default()
    }
}

/// Fails if any metric name `recorder` has registered carries a retired
/// prefix.
fn assert_canonical_names(recorder: &Recorder, driver: &str) {
    let snap = recorder.metrics_snapshot();
    let names: Vec<&String> = (snap.counters.iter().map(|(n, _)| n))
        .chain(snap.gauges.iter().map(|(n, _)| n))
        .chain(snap.histograms.iter().map(|(n, _)| n))
        .collect();
    assert!(!names.is_empty(), "{driver}: the traced run registered no metrics");
    for name in names {
        let retired = RETIRED_PREFIXES.iter().any(|p| name.starts_with(p));
        assert!(!retired, "{driver} registers retired metric name {name}");
    }
}

#[test]
fn traced_drivers_emit_only_canonical_metric_names() {
    let apex_rec = Recorder::wall();
    let apex = ApexRunConfig::builder()
        .agent(tiny_dqn())
        .parallelism(1)
        .envs_per_worker(2)
        .task_size(32)
        .num_shards(1)
        .sync_every(2)
        .budget(RunBudget::wall_or_updates(Duration::from_secs(30), 6))
        // a fixed task budget ends the run with the last update instead
        // of draining the wall budget
        .max_tasks_per_worker(Some(4))
        .observe_with(apex_rec.clone())
        .try_build()
        .unwrap();
    run_apex_fragments(apex, default_apex_placement(), env_factory).unwrap();
    assert_canonical_names(&apex_rec, "run_apex_fragments");
    assert!(apex_rec.counter("frag.learn.updates").value() > 0);
    assert!(apex_rec.counter("frag.rollout.frames").value() > 0);
    assert!(apex_rec.histogram("frag.replay.insert_us").count() > 0);

    let impala_rec = Recorder::wall();
    let impala = ImpalaDriverConfig::builder()
        .agent(ImpalaConfig {
            backend: Backend::Static,
            network: NetworkSpec::mlp(&[8], Activation::Tanh),
            rollout_len: 4,
            queue_capacity: 4,
            seed: 5,
            ..ImpalaConfig::default()
        })
        .parallelism(1)
        .envs_per_actor(2)
        .sync_every(2)
        .budget(RunBudget::wall_or_updates(Duration::from_secs(30), 6))
        .observe_with(impala_rec.clone())
        .try_build()
        .unwrap();
    run_impala_fragments(impala, default_impala_placement(), env_factory).unwrap();
    assert_canonical_names(&impala_rec, "run_impala_fragments");
    assert!(impala_rec.counter("frag.learn.updates").value() > 0);
    assert!(impala_rec.counter("frag.rollout.frames").value() > 0);

    let chaos_rec = Recorder::wall();
    let chaos = ChaosApexConfig::builder()
        .agent(tiny_dqn())
        .parallelism(2)
        .envs_per_worker(2)
        .task_size(24)
        .num_shards(2)
        .sync_every(4)
        .budget(RunBudget::steps(12))
        .fault_plan(
            FaultPlan::builder(9).worker_crash_rate(0.3).shard_stall(0.2, 2).build().unwrap(),
        )
        .observe_with(chaos_rec.clone())
        .try_build()
        .unwrap();
    run_apex_chaos(chaos, env_factory).unwrap();
    assert_canonical_names(&chaos_rec, "run_apex_chaos");
    assert!(chaos_rec.counter("frag.rollout.crashes").value() > 0);
}
