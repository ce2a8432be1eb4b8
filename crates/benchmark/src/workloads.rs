//! The six workloads. Each is a closed loop: actors, learners and
//! clients wait for their reply before issuing the next operation.
//!
//! Only API that ROADMAP items 2–3 keep is called here: the fragment
//! drivers, the `DriverConfigBuilder` vocabulary, `NetApexConfig` with
//! its default server stack, and the canonical metric names.

use crate::stats::{Latencies, SplitMix};
use crate::sys;
use rlgraph_agents::apex::ApexWorker;
use rlgraph_agents::{Backend, DqnConfig, EpsilonSchedule, ImpalaConfig};
use rlgraph_dist::{
    default_apex_placement, default_impala_placement, run_apex_fragments, run_impala_fragments,
    ApexRunConfig, DriverConfigBuilder, ImpalaDriverConfig, RunBudget,
};
use rlgraph_envs::{Env, GridPong, GridPongConfig, RandomEnv, VectorEnv};
use rlgraph_net::{run_apex_net, EnvSpec, NetApexConfig, NetPolicyClient, ServeTcpFrontend};
use rlgraph_nn::{Activation, LayerSpec, NetworkSpec};
use rlgraph_obs::Recorder;
use rlgraph_serve::{
    greedy_policy_replica, ExecutorReplica, PolicyReplica, PolicyServer, ServeConfig,
};
use rlgraph_spaces::Space;
use rlgraph_tensor::Tensor;
use std::time::{Duration, Instant};

/// Static description of one workload.
pub struct Spec {
    pub name: &'static str,
    /// CPUs the workload child pins itself to (see the README's noise
    /// findings for why the collector and serving get one CPU and the
    /// drivers two)
    pub cpus: &'static [usize],
    /// what one closed-loop operation is
    pub op: &'static str,
    pub why: &'static str,
}

pub const SPECS: [Spec; 6] = [
    Spec {
        name: "worker_collect",
        cpus: &[0],
        op: "collect task",
        why: "Paper fig 5b/7a: tiny net, so define-by-run dispatch, env stepping and n-step \
              post-processing do the work; kernels, dist and wire do none.",
    },
    Spec {
        name: "apex_inproc",
        cpus: &[0, 1],
        op: "learner update",
        why: "Ape-X through the fragment driver: static Session, agent update, replay \
              insert/sample/priority-update, fragment edges; no codec, frame or syscall.",
    },
    Spec {
        name: "apex_tcp",
        cpus: &[0, 1],
        op: "learner update",
        why: "Same agent and env over run_apex_net with one worker OS process: adds codec v2, \
              frames, RPC and syscalls. Pair with apex_inproc for the TCP cost.",
    },
    Spec {
        name: "impala_inproc",
        cpus: &[0, 1],
        op: "learner update",
        why: "Kernel-bound (conv GEMMs in act and learn) and on-policy: actor and learner are \
              coupled through a blocking edge, the opposite of Ape-X's decoupled replay.",
    },
    Spec {
        name: "serve_inproc",
        cpus: &[0],
        op: "act request",
        why: "Queue, micro-batcher and contracted replica with hot weight swaps beside reads; \
              no wire. The control for serve_tcp.",
    },
    Spec {
        name: "serve_tcp",
        cpus: &[0],
        op: "act request",
        why: "The same server behind the TCP front-end: codec, frame, RPC wake-ups and \
              syscalls on every request.",
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// What one measured window produced.
#[derive(Debug, Default)]
pub struct Window {
    pub wall_s: f64,
    /// completed closed-loop operations (updates, tasks or requests)
    pub ops: u64,
    /// env frames incl. frame skip; for serving, observations acted on
    pub env_frames: u64,
    /// caller-observed latency of every operation, where the benchmark
    /// issues single operations (collect tasks, act requests); empty
    /// for the drivers, which return only totals
    pub latencies: Latencies,
    /// operations and output checks that failed, described
    pub failures: Vec<String>,
    /// peak RSS of the process tree read when a fixed amount of work
    /// was done, where memory grows with the work ([`COLLECT_RSS_AT`])
    pub rss_mb_at_fixed_work: Option<f64>,
}

impl Window {
    /// A driver run: the driver reports totals over its own wall time.
    fn of_driver(wall: Duration, ops: u64, env_frames: u64) -> Window {
        Window { wall_s: wall.as_secs_f64(), ops, env_frames, ..Window::default() }
    }
}

type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

// ---------------------------------------------------------------- collect

pub const COLLECT_ENVS: usize = 8;
pub const COLLECT_TASK: usize = 400;
const COLLECT_N_STEP: usize = 3;
/// The define-by-run act path keeps about 150 KiB per task (README,
/// findings), so over a fixed window this workload's peak RSS follows
/// its throughput: a faster collector, or a faster hour on the box,
/// would read as a memory regression. `peak_rss_mb` is therefore read
/// after this many measured tasks, which every full window reaches
/// (the slowest seen did 1 545).
const COLLECT_RSS_AT: u64 = 1500;

pub fn collect_agent(seed: u64) -> DqnConfig {
    DqnConfig {
        backend: Backend::DefineByRun,
        network: NetworkSpec::mlp(&[64, 64], Activation::Tanh),
        memory_capacity: 64,
        batch_size: 8,
        n_step: COLLECT_N_STEP,
        epsilon: EpsilonSchedule { start: 0.1, end: 0.1, decay_steps: 1 },
        seed,
        ..DqnConfig::default()
    }
}

pub fn pong_vector_envs(seed: u64) -> VectorEnv {
    VectorEnv::from_factory(COLLECT_ENVS, |i| {
        Box::new(GridPong::new(GridPongConfig::learnable(seed * 1000 + i as u64))) as Box<dyn Env>
    })
    .expect("homogeneous envs")
}

pub fn collect_worker(seed: u64, rec: &Recorder) -> Res<ApexWorker> {
    let mut worker = ApexWorker::new(collect_agent(seed), pong_vector_envs(seed))
        .map_err(err("build worker"))?;
    if rec.is_enabled() {
        worker.agent_mut().set_recorder(rec);
    }
    Ok(worker)
}

fn run_collect(seed: u64, warm: Duration, dur: Duration, rec: &Recorder) -> Res<Window> {
    let mut worker = collect_worker(seed, rec)?;
    let warm_until = Instant::now() + warm;
    while Instant::now() < warm_until {
        worker.collect(COLLECT_TASK).map_err(err("collect"))?;
    }
    let task_us = rec.histogram("frag.rollout.task_us");
    let mut win = Window::default();
    let begun = Instant::now();
    let mut t0 = begun;
    while t0 - begun < dur {
        let batch = worker.collect(COLLECT_TASK).map_err(err("collect"))?;
        let done = Instant::now();
        task_us.record_duration(done - t0);
        win.latencies.record(done - t0);
        t0 = done;
        win.ops += 1;
        win.env_frames += batch.env_frames;
        if win.ops == COLLECT_RSS_AT {
            win.rss_mb_at_fixed_work = Some(sys::tree_usage().peak_rss_mb);
        }
        // collect() stops at the first vector step that reaches the
        // task size; on that step each env emits at most its whole
        // n-step window (an episode end flushes it)
        let n = batch.len();
        if !(COLLECT_TASK..COLLECT_TASK + COLLECT_ENVS * COLLECT_N_STEP).contains(&n)
            || batch.priorities.len() != n
            || batch.priorities.iter().any(|p| !p.is_finite())
        {
            win.failures.push(format!("a task returned {n} transitions"));
        }
    }
    // whole tasks over exactly the time they took
    win.wall_s = (t0 - begun).as_secs_f64();
    Ok(win)
}

// ------------------------------------------------------------------- apex

pub const APEX_OBS: usize = 256;
pub const APEX_ENVS: usize = 4;
pub const APEX_TASK: usize = 32;
pub const APEX_BATCH: usize = 32;
pub const APEX_SYNC_EVERY: u64 = 16;
pub const APEX_REPLAY: usize = 16 * 1024;

pub fn apex_agent(seed: u64) -> DqnConfig {
    DqnConfig {
        backend: Backend::Static,
        network: NetworkSpec::mlp(&[64], Activation::Tanh),
        memory_capacity: APEX_REPLAY,
        batch_size: APEX_BATCH,
        n_step: 3,
        target_sync_every: 100,
        seed,
        ..DqnConfig::default()
    }
}

pub fn apex_env(seed: u64) -> RandomEnv {
    RandomEnv::new(&[APEX_OBS], 2, 20, seed)
}

fn check_losses(win: &mut Window, losses: &[f32]) {
    if losses.is_empty() {
        win.failures.push("learner never updated".into());
    }
    let bad = losses.iter().filter(|l| !l.is_finite()).count();
    if bad > 0 {
        win.failures.push(format!("{bad} non-finite losses"));
    }
}

/// `first_op` runs to the first learner update with a one-task worker,
/// so the driver returns without draining its wall budget.
fn run_apex_inproc(seed: u64, budget: RunBudget, first_op: bool, rec: &Recorder) -> Res<Window> {
    let config = ApexRunConfig::builder()
        .agent(apex_agent(seed))
        .envs_per_worker(APEX_ENVS)
        .task_size(APEX_TASK)
        .num_shards(1)
        .max_tasks_per_worker(first_op.then_some(1))
        .parallelism(1)
        .sync_every(APEX_SYNC_EVERY)
        .budget(budget)
        .observe_with(rec.clone())
        .try_build()
        .map_err(err("apex config"))?;
    let stats = run_apex_fragments(config, default_apex_placement(), move |w, e| {
        Box::new(apex_env(seed * 1000 + (w * 10 + e) as u64))
    })
    .map_err(err("run_apex_fragments"))?;
    let mut win = Window::of_driver(stats.wall_time, stats.updates, stats.env_frames);
    check_losses(&mut win, &stats.losses);
    Ok(win)
}

fn run_apex_tcp(seed: u64, budget: RunBudget, rec: &Recorder) -> Res<Window> {
    let config = NetApexConfig::builder()
        .agent(apex_agent(seed))
        .env(EnvSpec::Random { shape: vec![APEX_OBS], actions: 2, episode_len: 20 })
        .envs_per_worker(APEX_ENVS)
        .task_size(APEX_TASK)
        .num_shards(1)
        .compression(true)
        .parallelism(1)
        .sync_every(APEX_SYNC_EVERY)
        .budget(budget)
        .observe_with(rec.clone())
        .try_build()
        .map_err(err("net apex config"))?;
    let stats = run_apex_net(config).map_err(err("run_apex_net"))?;
    let mut win = Window::of_driver(stats.wall_time, stats.updates, stats.env_frames);
    check_losses(&mut win, &stats.losses);
    if stats.workers_clean != 1 {
        win.failures.push("worker process did not exit cleanly".into());
    }
    let inserted: u64 = stats.shard_watermarks.iter().sum();
    if inserted < stats.samples_collected {
        win.failures.push(format!(
            "{} transitions lost: shards hold {inserted}, workers reported {}",
            stats.samples_collected - inserted,
            stats.samples_collected
        ));
    }
    Ok(win)
}

// ----------------------------------------------------------------- impala

pub const IMPALA_ENVS: usize = 4;
pub const IMPALA_ROLLOUT: usize = 20;

pub fn impala_agent(seed: u64) -> ImpalaConfig {
    let conv = |filters, stride| LayerSpec::Conv2d {
        filters,
        kernel: 3,
        stride,
        padding: 1,
        activation: Activation::Relu,
    };
    ImpalaConfig {
        backend: Backend::Static,
        network: NetworkSpec::new(vec![
            conv(16, 2),
            conv(32, 2),
            conv(32, 1),
            LayerSpec::Flatten,
            LayerSpec::Dense { units: 64, activation: Activation::Relu },
        ]),
        rollout_len: IMPALA_ROLLOUT,
        queue_capacity: 4,
        seed,
        ..ImpalaConfig::default()
    }
}

pub fn pong_pixel_env(seed: u64) -> GridPong {
    GridPong::new(GridPongConfig { seed, ..GridPongConfig::default() })
}

fn run_impala(seed: u64, budget: RunBudget, rec: &Recorder) -> Res<Window> {
    let config = ImpalaDriverConfig::builder()
        .agent(impala_agent(seed))
        .envs_per_actor(IMPALA_ENVS)
        .parallelism(1)
        .budget(budget)
        .observe_with(rec.clone())
        .try_build()
        .map_err(err("impala config"))?;
    let stats = run_impala_fragments(config, default_impala_placement(), move |a, e| {
        Box::new(pong_pixel_env(seed * 1000 + (a * 10 + e) as u64))
    })
    .map_err(err("run_impala_fragments"))?;
    let mut win = Window::of_driver(stats.wall_time, stats.updates, stats.env_frames);
    check_losses(&mut win, &stats.losses);
    Ok(win)
}

// ------------------------------------------------------------------ serve

pub const SERVE_OBS: usize = 32;
pub const SERVE_ACTIONS: usize = 4;
pub const SERVE_CLIENTS: usize = 2;
pub const SERVE_BATCH: usize = 2;
const SERVE_PUBLISH_EVERY: Duration = Duration::from_millis(100);
/// Replies per client checked against a local replica (256 in total).
const SERVE_CHECKED: usize = 128;
/// One reply in this many is kept for the check, from the start of the
/// window; at the measured rates the stride spans the first ~100 ms.
const SERVE_CHECK_STRIDE: u64 = 16;

pub fn serve_space() -> Space {
    Space::float_box_bounded(&[SERVE_OBS], -1.0, 1.0)
}

pub fn serve_replica(seed: u64) -> rlgraph_core::Result<ExecutorReplica> {
    let network = NetworkSpec::mlp(&[64, 64], Activation::Tanh);
    greedy_policy_replica(&network, &serve_space(), SERVE_ACTIONS, false, seed)
}

fn serve_server(seed: u64, rec: &Recorder) -> Res<PolicyServer> {
    let config = ServeConfig::builder()
        .num_replicas(1)
        .max_batch(SERVE_BATCH)
        .max_delay(Duration::from_micros(200))
        .queue_capacity(64)
        .build()
        .map_err(err("serve config"))?;
    PolicyServer::spawn(config, serve_space(), rec.clone(), move |_| {
        Ok(Box::new(serve_replica(seed)?))
    })
    .map_err(err("spawn policy server"))
}

pub fn serve_obs(rng: &mut SplitMix) -> Tensor {
    Tensor::from_vec(rng.vec_f32(SERVE_OBS), &[SERVE_OBS]).expect("observation shape")
}

/// What one closed-loop client saw.
struct ClientLog {
    win: Window,
    /// `(observation, served action)` pairs kept for the replica check
    kept: Vec<(Tensor, i64)>,
}

/// One client: generate, time the act call, validate the action.
fn client_loop(
    client: usize,
    seed: u64,
    (measure_from, dur): (Instant, Duration),
    mut act: impl FnMut(&Tensor) -> Result<Tensor, String>,
) -> ClientLog {
    let mut rng = SplitMix(seed.wrapping_mul(31).wrapping_add(client as u64));
    let mut log = ClientLog { win: Window::default(), kept: Vec::new() };
    let deadline = measure_from + dur;
    loop {
        let obs = serve_obs(&mut rng);
        let t0 = Instant::now();
        if t0 >= deadline {
            return log;
        }
        let reply = act(&obs);
        let done = Instant::now();
        if done < measure_from || done >= deadline {
            continue; // warm-up, or the request the window's end cut off
        }
        let win = &mut log.win;
        match reply.and_then(|a| a.as_i64().map(|v| v.to_vec()).map_err(|e| e.to_string())) {
            Ok(a) if a.len() == 1 && (0..SERVE_ACTIONS as i64).contains(&a[0]) => {
                if win.ops.is_multiple_of(SERVE_CHECK_STRIDE) && log.kept.len() < SERVE_CHECKED {
                    log.kept.push((obs, a[0]));
                }
                win.latencies.record(done - t0);
                win.ops += 1;
                win.env_frames += 1;
            }
            Ok(other) => win.failures.push(format!("action {other:?} outside the action space")),
            Err(e) => win.failures.push(e),
        }
    }
}

/// `publish`: the in-process workload hot-swaps weights beside reads;
/// `tcp`: clients go through the TCP front-end, one connection each.
fn run_serve(
    seed: u64,
    (warm, dur): (Duration, Duration),
    tcp: bool,
    publish: bool,
    rec: &Recorder,
) -> Res<Window> {
    let mut reference = serve_replica(seed).map_err(err("build replica"))?;
    let weights = reference.export_weights();
    let server = serve_server(seed, rec)?;
    let frontend = match tcp {
        true => Some(
            ServeTcpFrontend::spawn(server.client(), rec.clone())
                .map_err(err("spawn front-end"))?,
        ),
        false => None,
    };
    let span = (Instant::now() + warm, dur);
    let logs: Vec<Res<ClientLog>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SERVE_CLIENTS)
            .map(|c| {
                let (server, frontend) = (&server, &frontend);
                s.spawn(move || match frontend {
                    Some(f) => {
                        let mut client = NetPolicyClient::connect(f.addr(), rec)
                            .map_err(err("connect client"))?;
                        Ok(client_loop(c, seed, span, |o| client.act(o).map_err(|e| e.to_string())))
                    }
                    None => {
                        let client = server.client();
                        Ok(client_loop(c, seed, span, |o| {
                            client.act(o.clone()).map_err(|e| e.to_string())
                        }))
                    }
                })
            })
            .collect();
        // The same weights every time: each publish bumps the hub
        // version and makes the replica import a snapshot between
        // batches, while served actions stay checkable.
        while publish && Instant::now() + SERVE_PUBLISH_EVERY < span.0 + dur {
            std::thread::sleep(SERVE_PUBLISH_EVERY);
            server.publish_weights(weights.clone());
        }
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    if let Some(f) = frontend {
        f.shutdown();
    }
    server.shutdown();

    let mut win = Window { wall_s: dur.as_secs_f64(), ..Window::default() };
    for log in logs {
        let log = log?;
        win.ops += log.win.ops;
        win.env_frames += log.win.env_frames;
        win.latencies.merge(&log.win.latencies);
        win.failures.extend(log.win.failures);
        for (obs, served) in log.kept {
            let batch = Tensor::stack(&[obs]).map_err(err("stack"))?;
            let local = reference.act_batch(&batch).map_err(err("reference act"))?;
            if local.as_i64().map_err(err("reference action"))? != [served] {
                win.failures.push("served action differs from the local replica's".into());
            }
        }
    }
    Ok(win)
}

// --------------------------------------------------------------- dispatch

/// Runs `workload` and returns what the measured window of length
/// `dur` produced. Where the benchmark issues the operations itself it
/// first runs the same loop for `warm`, unmeasured. The drivers get no
/// warm-up run: the timed set-up repetitions have already exercised
/// every code path, and a second full run in the same process left its
/// replay memory behind in another allocator arena, which made peak
/// RSS flip between two values from seed to seed.
pub fn run(
    workload: &str,
    seed: u64,
    warm: Duration,
    dur: Duration,
    rec: &Recorder,
) -> Res<Window> {
    let budget = RunBudget::wall(dur);
    match workload {
        "worker_collect" => run_collect(seed, warm, dur, rec),
        "apex_inproc" => run_apex_inproc(seed, budget, false, rec),
        "apex_tcp" => run_apex_tcp(seed, budget, rec),
        "impala_inproc" => run_impala(seed, budget, rec),
        "serve_inproc" => run_serve(seed, (warm, dur), false, true, rec),
        "serve_tcp" => run_serve(seed, (warm, dur), true, false, rec),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Builds everything `workload` needs, completes its first operation
/// and tears down again: graph build, thread and process launch,
/// connect. Timed from outside as the set-up cost.
pub fn first_op(workload: &str, seed: u64) -> Res<()> {
    let rec = Recorder::disabled();
    let one_update = RunBudget::wall_or_updates(Duration::from_secs(60), 1);
    let win = match workload {
        "worker_collect" => {
            collect_worker(seed, &rec)?.collect(COLLECT_TASK).map_err(err("collect"))?;
            return Ok(());
        }
        "apex_inproc" => run_apex_inproc(seed, one_update, true, &rec)?,
        "apex_tcp" => run_apex_tcp(seed, one_update, &rec)?,
        "impala_inproc" => run_impala(seed, one_update, &rec)?,
        "serve_inproc" | "serve_tcp" => {
            let server = serve_server(seed, &rec)?;
            let obs = serve_obs(&mut SplitMix(seed));
            if workload == "serve_tcp" {
                let frontend = ServeTcpFrontend::spawn(server.client(), rec.clone())
                    .map_err(err("spawn front-end"))?;
                let mut client =
                    NetPolicyClient::connect(frontend.addr(), &rec).map_err(err("connect"))?;
                client.act(&obs).map_err(err("first act"))?;
                frontend.shutdown();
            } else {
                server.client().act(obs).map_err(err("first act"))?;
            }
            server.shutdown();
            return Ok(());
        }
        other => return Err(format!("unknown workload {other}")),
    };
    match win.failures.first() {
        Some(f) => Err(f.clone()),
        None => Ok(()),
    }
}
