//! Same-seed parity: the fragment-built drivers must reproduce a frozen
//! reference, and neither a re-run nor a placement may change behavior.
//!
//! The contract: with a fixed per-worker task budget and weight sync
//! disabled, a run's collected trajectory stream is a pure function of
//! the seed — so update counts, frame and sample totals and the
//! recorded returns are fixed numbers. For IMPALA the learner consumes
//! exactly one queue record per update, so a rollout budget equal to
//! the update budget drains exactly and the loss sequence itself is
//! fixed.
//!
//! The `*_REF_*` constants are what the hand-woven drivers that the
//! fragment drivers replaced returned for these same configs, captured
//! at commit 6509b5df8f3cfd08e2dad1711718833caaad7516 — the last one
//! that carried them — identically in debug and release builds. Integer
//! totals and the `RandomEnv` return sequence are compared exactly;
//! losses within 1e-5 relative, because libm `tanh` is not pinned
//! across hosts. Bit-identity is held live instead: the same config run
//! twice, and the default placement against a swapped one, must agree
//! by `to_bits`.

use rlgraph_agents::{Backend, DqnConfig, ImpalaConfig};
use rlgraph_dist::fragment::{
    default_apex_placement, default_impala_placement, run_apex_fragments, run_impala_fragments,
    Placement, PlacementMap,
};
use rlgraph_dist::{
    ApexRunConfig, ApexRunStats, DriverConfigBuilder, ImpalaDriverConfig, ImpalaRunStats, RunBudget,
};
use rlgraph_envs::{Env, RandomEnv};
use rlgraph_nn::{Activation, NetworkSpec};
use std::time::Duration;

const APEX_REF_UPDATES: u64 = 12;
const APEX_REF_ENV_FRAMES: u64 = 258;
const APEX_REF_SAMPLES: u64 = 256;
const APEX_REF_RETURNS: [f32; 12] = [
    -2.3346634,
    0.1812563,
    -3.0093808,
    -0.60997534,
    1.8362561,
    2.297313,
    1.8086318,
    8.559254,
    0.8900149,
    -1.6919671,
    5.548219,
    3.3472176,
];

const IMPALA_REF_UPDATES: u64 = 10;
const IMPALA_REF_ENV_FRAMES: u64 = 100;
const IMPALA_REF_LOSSES: [f32; 10] = [
    0.092372164,
    0.08290267,
    -0.42914727,
    0.20926015,
    -0.0074395803,
    0.13501763,
    0.095356844,
    0.31100884,
    -0.4451072,
    -0.16701749,
];

fn env_factory(w: usize, e: usize) -> Box<dyn Env> {
    Box::new(RandomEnv::new(&[4], 2, 20, (w * 10 + e) as u64))
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn apex_parity_config() -> ApexRunConfig {
    ApexRunConfig::builder()
        .agent(DqnConfig {
            backend: Backend::Static,
            network: NetworkSpec::mlp(&[8], Activation::Tanh),
            memory_capacity: 512,
            batch_size: 8,
            n_step: 2,
            target_sync_every: 50,
            seed: 17,
            ..DqnConfig::default()
        })
        // One worker, no weight syncs within budget: the trajectory
        // stream is a pure function of the seed.
        .parallelism(1)
        .envs_per_worker(2)
        .task_size(64)
        .num_shards(1)
        .sync_every(1_000_000)
        .budget(RunBudget::wall_or_updates(Duration::from_secs(30), 12))
        .max_tasks_per_worker(Some(4))
        .try_build()
        .unwrap()
}

fn run_apex(placement: PlacementMap) -> ApexRunStats {
    run_apex_fragments(apex_parity_config(), placement, env_factory).unwrap()
}

fn returns_of(stats: &ApexRunStats) -> Vec<f32> {
    // Timestamps are wall-clock and differ run to run; the return
    // sequence itself is the determinism contract.
    stats.reward_timeline.iter().map(|(_, r)| *r).collect()
}

fn assert_apex_bit_identical(a: &ApexRunStats, b: &ApexRunStats) {
    assert_eq!(a.updates, b.updates);
    assert_eq!(a.env_frames, b.env_frames);
    assert_eq!(a.samples_collected, b.samples_collected);
    assert_eq!(bits(&returns_of(a)), bits(&returns_of(b)), "returns must be bit-identical");
}

#[test]
fn apex_fragment_path_matches_frozen_reference() {
    let first = run_apex(default_apex_placement());

    assert_eq!(first.updates, APEX_REF_UPDATES, "update budget must bind");
    assert_eq!(first.env_frames, APEX_REF_ENV_FRAMES);
    assert_eq!(first.samples_collected, APEX_REF_SAMPLES);
    assert_eq!(returns_of(&first), APEX_REF_RETURNS, "recorded returns must match exactly");

    assert_apex_bit_identical(&run_apex(default_apex_placement()), &first);
}

#[test]
fn apex_placement_swap_preserves_behavior_per_seed() {
    // Same declaration, replay moved onto the caller thread: behavioral
    // equality is what makes placement a pure physical concern.
    let threaded = run_apex(default_apex_placement());
    let inline_replay = run_apex(default_apex_placement().place("replay", Placement::InThread));
    assert_apex_bit_identical(&inline_replay, &threaded);
}

#[test]
fn apex_fragment_runs_under_explicit_placement_map() {
    // The same config also runs when every stage is spelled out — the
    // map API, not just the default, is part of the contract.
    let placement = PlacementMap::new()
        .place("rollout", Placement::ActorThread)
        .place("replay", Placement::InThread)
        .place("learn", Placement::InThread)
        .place("broadcast", Placement::InThread);
    assert_eq!(run_apex(placement).updates, 12);
}

fn impala_parity_config() -> ImpalaDriverConfig {
    ImpalaDriverConfig::builder()
        .agent(ImpalaConfig {
            backend: Backend::Static,
            network: NetworkSpec::mlp(&[8], Activation::Tanh),
            rollout_len: 5,
            queue_capacity: 4,
            seed: 23,
            ..ImpalaConfig::default()
        })
        .parallelism(1)
        .envs_per_actor(2)
        // Rollout budget == update budget: the learner consumes exactly
        // one queue record per update, so the run drains exactly.
        .max_rollouts_per_actor(Some(10))
        .budget(RunBudget::wall_or_updates(Duration::from_secs(30), 10))
        .sync_every(1_000_000)
        .max_weight_lag(1_000_000)
        .try_build()
        .unwrap()
}

fn run_impala(placement: PlacementMap) -> ImpalaRunStats {
    run_impala_fragments(impala_parity_config(), placement, env_factory).unwrap()
}

fn assert_impala_bit_identical(a: &ImpalaRunStats, b: &ImpalaRunStats) {
    assert_eq!(a.updates, b.updates);
    assert_eq!(a.env_frames, b.env_frames);
    assert_eq!(bits(&a.losses), bits(&b.losses), "loss sequence must be bit-identical");
}

#[test]
fn impala_fragment_path_matches_frozen_reference() {
    let first = run_impala(default_impala_placement());

    assert_eq!(first.updates, IMPALA_REF_UPDATES, "update budget must bind");
    assert_eq!(first.env_frames, IMPALA_REF_ENV_FRAMES);
    assert_eq!(first.losses.len(), IMPALA_REF_LOSSES.len());
    for (i, (got, want)) in first.losses.iter().zip(IMPALA_REF_LOSSES).enumerate() {
        let tolerance = 1e-5 * want.abs().max(got.abs());
        assert!((got - want).abs() <= tolerance, "loss {i}: {got} vs reference {want}");
    }

    assert_impala_bit_identical(&run_impala(default_impala_placement()), &first);
}

#[test]
fn impala_placement_swap_preserves_behavior_per_seed() {
    // The broadcast fragment is the passive weight hub, the one IMPALA
    // stage either placement accepts: moving it off the caller thread
    // must not change a bit.
    let inline = run_impala(default_impala_placement());
    let threaded_broadcast =
        run_impala(default_impala_placement().place("broadcast", Placement::ActorThread));
    assert_impala_bit_identical(&threaded_broadcast, &inline);
}
