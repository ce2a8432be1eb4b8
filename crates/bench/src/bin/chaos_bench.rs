//! Chaos benchmark: the deterministic Ape-X chaos engine under 20%
//! worker-crash injection plus stalling shards, against a fault-free run
//! of the identical configuration and step budget.
//!
//! Checks three properties and writes `BENCH_chaos.json` at the repo
//! root:
//!
//! 1. **Determinism** — two runs with the same [`FaultPlan`] seed produce
//!    a bit-identical fault schedule and identical post-recovery stats.
//! 2. **Recovery** — greedy evaluation of the faulted run's best banked
//!    checkpoint on clean environments lands within 10% of the
//!    fault-free run's, at the same step budget.
//! 3. **Accounting** — crash/restart counts and recovery-latency
//!    p50/p99 are recorded for the report.
//!
//! `--smoke` runs a tiny budget, keeps the determinism check, skips the
//! recovery threshold (too few episodes to compare), and writes nothing —
//! tier-1 uses it as a does-it-run gate.

use rlgraph_agents::{Backend, DqnAgent, DqnConfig, EpsilonSchedule};
use rlgraph_dist::{
    run_apex_chaos, ChaosApexConfig, ChaosReport, DriverConfigBuilder, FaultKind, FaultPlan,
    LearnerCheckpoint, RunBudget,
};
use rlgraph_envs::{CartPole, Env};
use rlgraph_nn::{Activation, NetworkSpec};
use rlgraph_tensor::Tensor;

const SEED: u64 = 2024;
const RECENT_WINDOW: usize = 50;
const RECOVERY_TOLERANCE: f64 = 0.10;
const EVAL_EPISODES: usize = 30;

struct Budget {
    num_workers: usize,
    envs_per_worker: usize,
    task_size: usize,
    num_shards: usize,
    steps: u64,
}

const FULL: Budget =
    Budget { num_workers: 4, envs_per_worker: 2, task_size: 48, num_shards: 3, steps: 2500 };
const SMOKE: Budget =
    Budget { num_workers: 2, envs_per_worker: 2, task_size: 16, num_shards: 2, steps: 12 };

fn agent_config() -> DqnConfig {
    DqnConfig {
        backend: Backend::Static,
        network: NetworkSpec::mlp(&[64], Activation::Tanh),
        memory_capacity: 65_536,
        batch_size: 32,
        n_step: 3,
        // conservative step size + slow target sync keep the late curve
        // stable, so the recovery comparison measures fault handling, not
        // which run diverges first
        optimizer: rlgraph_nn::OptimizerSpec::adam(3e-4),
        target_sync_every: 200,
        gamma: 0.97,
        epsilon: EpsilonSchedule { start: 1.0, end: 0.05, decay_steps: 3000 },
        seed: 7,
        ..DqnConfig::default()
    }
}

fn env_factory(w: usize, e: usize) -> Box<dyn Env> {
    Box::new(CartPole::new((w * 100 + e) as u64, 200))
}

fn config(budget: &Budget, plan: FaultPlan) -> ChaosApexConfig {
    ChaosApexConfig::builder()
        .agent(agent_config())
        .parallelism(budget.num_workers)
        .envs_per_worker(budget.envs_per_worker)
        .task_size(budget.task_size)
        .num_shards(budget.num_shards)
        .budget(RunBudget::steps(budget.steps))
        .sync_every(4)
        .checkpoint_every(Some(16))
        .fault_plan(plan)
        .try_build()
        .expect("chaos config")
}

/// The ISSUE's chaos recipe: 20% injected worker crashes plus one shard
/// stall. Each crash costs a worker its in-flight task plus the restart
/// delay (2 ticks), so a per-task crash rate of 1/15 loses ≈20% of
/// worker time to crash injection; the stall is scheduled explicitly —
/// exactly one, mid-run, on shard 1.
fn fault_plan() -> FaultPlan {
    FaultPlan::builder(SEED)
        .worker_crash_rate(1.0 / 15.0)
        .shard_stall(0.0, 6)
        .inject_at(1200, FaultKind::ShardStall, 1)
        .weight_drop_rate(0.1)
        .build()
        .expect("fault plan")
}

/// Best mean over any `window` consecutive episode returns — the "did it
/// learn the task" statistic. Tiny-DQN tail returns swing with late-run
/// luck; the peak window is stable, so the fault-free vs chaos comparison
/// measures fault handling rather than which run's curve wobbled last.
fn peak_window_return(timeline: &[(f64, f32)], window: usize) -> f64 {
    if timeline.is_empty() {
        return 0.0;
    }
    let w = window.min(timeline.len());
    let mut sum: f64 = timeline[..w].iter().map(|(_, r)| *r as f64).sum();
    let mut best = sum;
    for i in w..timeline.len() {
        sum += timeline[i].1 as f64 - timeline[i - w].1 as f64;
        best = best.max(sum);
    }
    best / w as f64
}

/// Greedy rollout of a banked checkpoint on clean environments. This is
/// the recovery statistic: crashes truncate episodes before they
/// complete and interrupted episodes are never recorded, so the faulted
/// run's *recorded* returns understate its policy. Restoring each run's
/// best banked checkpoint and evaluating both on identical fault-free
/// envs compares what the runs actually learned.
fn eval_checkpoint(ckpt: &LearnerCheckpoint, episodes: usize) -> f64 {
    let probe = CartPole::new(0, 200);
    let mut agent = DqnAgent::new(agent_config(), &probe.state_space(), &probe.action_space())
        .expect("eval agent");
    ckpt.restore(&mut agent).expect("restore banked checkpoint");
    let mut total = 0.0f64;
    for ep in 0..episodes {
        let mut env = CartPole::new(9000 + ep as u64, 200);
        let mut obs = env.reset();
        loop {
            let batched = Tensor::stack(std::slice::from_ref(&obs)).expect("stack obs");
            let actions = agent.get_actions(batched, false).expect("greedy act");
            let action = actions.unstack().expect("unstack action").remove(0);
            let step = env.step(&action).expect("env step");
            total += step.reward as f64;
            if step.terminal {
                break;
            }
            obs = step.obs;
        }
    }
    total / episodes as f64
}

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

fn report_json(report: &ChaosReport) -> String {
    format!(
        concat!(
            "{{\"injected_events\": {}, \"worker_crashes\": {}, \"worker_restarts\": {}, ",
            "\"shard_stalls\": {}, \"learner_slowdowns\": {}, \"dropped_syncs\": {}, ",
            "\"forced_syncs\": {}, \"max_weight_lag_seen\": {}, \"degraded_steps\": {}, ",
            "\"sample_retries\": {}, \"checkpoints\": {}, \"restores\": {}, ",
            "\"recovery_p50_us\": {}, \"recovery_p99_us\": {}}}"
        ),
        report.events.len(),
        report.worker_crashes,
        report.worker_restarts,
        report.shard_stalls,
        report.learner_slowdowns,
        report.dropped_syncs,
        report.forced_syncs,
        report.max_weight_lag_seen,
        report.degraded_steps,
        report.sample_retries,
        report.checkpoints,
        report.restores,
        report.recovery_p50_us(),
        report.recovery_p99_us(),
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let budget = if smoke { &SMOKE } else { &FULL };

    println!(
        "chaos bench: {} workers x {} envs, {} shards, {} steps{}",
        budget.num_workers,
        budget.envs_per_worker,
        budget.num_shards,
        budget.steps,
        if smoke { " (smoke)" } else { "" }
    );

    // Fault-free baseline at the identical step budget.
    let (free_stats, free_report) =
        run_apex_chaos(config(budget, FaultPlan::disabled()), env_factory).expect("fault-free run");
    assert_eq!(free_report.events.len(), 0, "disabled plan must inject nothing");

    // Chaos run, twice with the same seed for the determinism contract.
    let (chaos_stats, chaos_report) =
        run_apex_chaos(config(budget, fault_plan()), env_factory).expect("chaos run");
    let (rerun_stats, rerun_report) =
        run_apex_chaos(config(budget, fault_plan()), env_factory).expect("chaos rerun");
    assert_eq!(
        chaos_report, rerun_report,
        "same FaultPlan seed must give a bit-identical fault schedule and recovery accounting"
    );
    assert_eq!(chaos_stats.env_frames, rerun_stats.env_frames, "determinism: frames");
    assert_eq!(chaos_stats.updates, rerun_stats.updates, "determinism: updates");
    assert_eq!(chaos_stats.losses, rerun_stats.losses, "determinism: losses");
    assert_eq!(
        chaos_stats.reward_timeline, rerun_stats.reward_timeline,
        "determinism: reward timeline"
    );
    println!("determinism: two same-seed runs bit-identical ✓");

    let free_peak = peak_window_return(&free_stats.reward_timeline, RECENT_WINDOW);
    let chaos_peak = peak_window_return(&chaos_stats.reward_timeline, RECENT_WINDOW);
    // Evaluate each run's best *banked* checkpoint — the snapshot a
    // deployment would restore. The endpoint checkpoint is a lottery
    // (tiny-DQN curves oscillate late); the best-banked artifact is the
    // stable measure of what the run achieved.
    let free_ckpt = free_report
        .best_checkpoint
        .as_ref()
        .or(free_report.final_checkpoint.as_ref())
        .expect("fault-free checkpoint");
    let chaos_ckpt = chaos_report
        .best_checkpoint
        .as_ref()
        .or(chaos_report.final_checkpoint.as_ref())
        .expect("chaos checkpoint");
    let free_return = eval_checkpoint(free_ckpt, EVAL_EPISODES);
    let chaos_return = eval_checkpoint(chaos_ckpt, EVAL_EPISODES);
    let retention = if free_return.abs() > f64::EPSILON { chaos_return / free_return } else { 1.0 };
    println!(
        "fault-free: {} updates, {} frames, eval return {:.3} (recorded peak {:.3})",
        free_stats.updates, free_stats.env_frames, free_return, free_peak
    );
    println!(
        "chaos:      {} updates, {} frames, eval return {:.3} (recorded peak {:.3}, retention {:.3})",
        chaos_stats.updates, chaos_stats.env_frames, chaos_return, chaos_peak, retention
    );
    println!(
        "faults: {} crashes, {} restarts, {} stalls, {} dropped syncs; recovery p50 {}us p99 {}us",
        chaos_report.worker_crashes,
        chaos_report.worker_restarts,
        chaos_report.shard_stalls,
        chaos_report.dropped_syncs,
        chaos_report.recovery_p50_us(),
        chaos_report.recovery_p99_us()
    );

    if !smoke {
        assert!(chaos_report.worker_crashes > 0, "plan should inject worker crashes");
        assert!(chaos_report.shard_stalls > 0, "plan should inject at least one shard stall");
        assert!(
            chaos_return >= free_return * (1.0 - RECOVERY_TOLERANCE),
            "recovery failed: chaos eval return {chaos_return:.3} is more than {:.0}% below \
             fault-free {free_return:.3}",
            RECOVERY_TOLERANCE * 100.0
        );
        println!("recovery: within {:.0}% of fault-free ✓", RECOVERY_TOLERANCE * 100.0);
    }

    if smoke {
        println!("smoke mode: skipping BENCH_chaos.json");
        return;
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"seed\": {},\n",
            "  \"budget\": {{\"workers\": {}, \"envs_per_worker\": {}, \"shards\": {}, ",
            "\"task_size\": {}, \"steps\": {}}},\n",
            "  \"fault_plan\": {{\"worker_crash_rate\": 0.0667, ",
            "\"scheduled_shard_stall\": {{\"step\": 1200, \"shard\": 1, \"stall_steps\": 6}}, ",
            "\"weight_drop_rate\": 0.1}},\n",
            "  \"fault_free\": {{\"updates\": {}, \"env_frames\": {}, ",
            "\"eval_return\": {}, \"peak_window_return\": {}}},\n",
            "  \"chaos\": {{\"updates\": {}, \"env_frames\": {}, ",
            "\"eval_return\": {}, \"peak_window_return\": {}, \"retention\": {}}},\n",
            "  \"faults\": {},\n",
            "  \"determinism\": {{\"same_seed_bit_identical\": true}}\n",
            "}}\n"
        ),
        SEED,
        budget.num_workers,
        budget.envs_per_worker,
        budget.num_shards,
        budget.task_size,
        budget.steps,
        free_stats.updates,
        free_stats.env_frames,
        json_f(free_return),
        json_f(free_peak),
        chaos_stats.updates,
        chaos_stats.env_frames,
        json_f(chaos_return),
        json_f(chaos_peak),
        json_f(retention),
        report_json(&chaos_report),
    );
    std::fs::write("BENCH_chaos.json", json).expect("write BENCH_chaos.json");
    println!("wrote BENCH_chaos.json");
}
