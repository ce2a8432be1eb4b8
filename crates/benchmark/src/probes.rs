//! Single-thread layer probes: each times public calls of one layer
//! from outside, on inputs with the shapes its workload uses. They
//! price the rungs of the ladder; the in-run numbers say how often each
//! rung is climbed.

use crate::stats::{median, SplitMix};
use crate::workloads as wl;
use rlgraph_agents::apex::ApexWorker;
use rlgraph_agents::impala::{ImpalaActor, ImpalaLearner};
use rlgraph_agents::DqnAgent;
use rlgraph_dist::fragment::{EdgeLane, FragmentGraph, StageKind};
use rlgraph_dist::{ShardCore, WeightHub, WeightsSnapshot};
use rlgraph_envs::{Env, VectorEnv};
use rlgraph_graph::TensorQueue;
use rlgraph_memory::Transition;
use rlgraph_net::codec::{self, CodecProfile};
use rlgraph_net::frame::{encode_frame, FrameDecoder, FrameKind};
use rlgraph_net::ByteWriter;
use rlgraph_obs::Recorder;
use rlgraph_serve::PolicyReplica;
use rlgraph_tensor::{forward, OpKind, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// `(metric name, value)` in the order measured.
pub type Readings = Vec<(&'static str, f64)>;

/// Median time per call in nanoseconds: `samples` timed samples of
/// `inner` back-to-back calls each, after a tenth as many untimed.
fn ns_per_call(samples: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..(samples / 10 + 1) * inner {
        f();
    }
    let mut per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..inner {
                f();
            }
            t0.elapsed().as_nanos() as f64 / inner as f64
        })
        .collect();
    median(&mut per_call)
}

fn us_per_call(samples: usize, f: impl FnMut()) -> f64 {
    ns_per_call(samples, 1, f) / 1e3
}

fn random_tensor(rng: &mut SplitMix, shape: &[usize]) -> Tensor {
    Tensor::from_vec(rng.vec_f32(shape.iter().product()), shape).expect("shape matches data")
}

fn apex_transitions(rng: &mut SplitMix, n: usize) -> (Vec<Transition>, Vec<f32>) {
    let transitions = (0..n)
        .map(|i| {
            Transition::new(
                random_tensor(rng, &[wl::APEX_OBS]),
                Tensor::scalar_i64((i % 2) as i64),
                rng.next_f32(),
                random_tensor(rng, &[wl::APEX_OBS]),
                i % 20 == 19,
            )
        })
        .collect();
    (transitions, (0..n).map(|_| rng.next_f32().abs() + 0.01).collect())
}

fn zero_actions(n: usize) -> Vec<Tensor> {
    vec![Tensor::scalar_i64(0); n]
}

/// Runs every probe. `samples` is the number of timed samples per
/// probe (200 in a full run); the three probes that cost tens of
/// milliseconds per call take a tenth of it.
pub fn run_all(seed: u64, samples: usize) -> Readings {
    let mut out = Readings::new();
    let mut rng = SplitMix(seed);
    let few = (samples / 10).max(3);

    // tensor: the GEMM of one Ape-X update's first layer, and IMPALA's
    // first conv at the learner's batch (rollout x envs frames)
    let (a, b) = (
        random_tensor(&mut rng, &[wl::APEX_BATCH, wl::APEX_OBS]),
        random_tensor(&mut rng, &[wl::APEX_OBS, 64]),
    );
    out.push((
        "tensor.matmul_apex_us",
        us_per_call(samples, || {
            black_box(forward(&OpKind::MatMul, &[&a, &b]).expect("matmul"));
        }),
    ));
    let frames = random_tensor(&mut rng, &[wl::IMPALA_ROLLOUT * wl::IMPALA_ENVS, 2, 16, 16]);
    let filters = random_tensor(&mut rng, &[16, 2, 3, 3]);
    out.push((
        "tensor.conv2d_impala_us",
        us_per_call(samples, || {
            let conv = OpKind::Conv2d { stride: 2, padding: 1 };
            black_box(forward(&conv, &[&frames, &filters]).expect("conv2d"));
        }),
    ));

    // graph / core: the exploring act API the workers call, through each
    // backend's executor, and the contracted serving replica
    let apex_env = wl::apex_env(seed);
    let (state_space, action_space) = (apex_env.state_space(), apex_env.action_space());
    let mut apex =
        DqnAgent::new(wl::apex_agent(seed), &state_space, &action_space).expect("apex agent");
    let apex_obs = random_tensor(&mut rng, &[wl::APEX_ENVS, wl::APEX_OBS]);
    out.push((
        "graph.session_act_us",
        us_per_call(samples, || {
            let obs = std::slice::from_ref(&apex_obs);
            black_box(apex.executor_mut().execute("get_actions", obs).expect("act"));
        }),
    ));
    let mut pong = wl::pong_vector_envs(seed);
    let mut dbr = DqnAgent::new(wl::collect_agent(seed), &pong.state_space(), &pong.action_space())
        .expect("collect agent");
    let pong_obs = pong.reset_all();
    out.push((
        "core.dbr_act_us",
        us_per_call(samples, || {
            let obs = std::slice::from_ref(&pong_obs);
            black_box(dbr.executor_mut().execute("get_actions", obs).expect("act"));
        }),
    ));
    let mut replica = wl::serve_replica(seed).expect("replica");
    let serve_obs = random_tensor(&mut rng, &[wl::SERVE_BATCH, wl::SERVE_OBS]);
    out.push((
        "serve.replica_act_us",
        us_per_call(samples, || {
            black_box(replica.act_batch(&serve_obs).expect("act"));
        }),
    ));

    // memory: one shard filled to capacity; insert is one collect
    // task's worth, sample and priority update one learner batch's
    let mut shard = ShardCore::new(wl::APEX_REPLAY, 0.6, seed);
    while shard.len() < wl::APEX_REPLAY {
        let (t, p) = apex_transitions(&mut rng, 512);
        shard.insert(t, p);
    }
    let mut tasks: Vec<_> = (0..samples + samples / 10 + 1)
        .map(|_| apex_transitions(&mut rng, wl::APEX_TASK))
        .collect();
    out.push((
        "memory.insert_us",
        us_per_call(samples, || {
            let (t, p) = tasks.pop().expect("one prepared task per call");
            shard.insert(t, p);
        }),
    ));
    out.push((
        "memory.sample_us",
        us_per_call(samples, || {
            black_box(shard.sample(wl::APEX_BATCH, 0.4).expect("filled shard"));
        }),
    ));
    let batch = shard.sample(wl::APEX_BATCH, 0.4).expect("filled shard");
    let priorities: Vec<f32> = (0..wl::APEX_BATCH).map(|_| rng.next_f32().abs() + 0.01).collect();
    out.push((
        "memory.update_priorities_us",
        us_per_call(samples, || shard.update_priorities(batch.indices.clone(), priorities.clone())),
    ));

    // agents
    out.push((
        "agents.get_actions_us",
        us_per_call(samples, || {
            black_box(apex.get_actions(apex_obs.clone(), true).expect("act"));
        }),
    ));
    let before = WeightsSnapshot { version: 1, weights: apex.get_weights() };
    let learn_batch = || {
        let [s, a, r, s2, t] = batch.tensors.clone();
        [s, a, r, s2, t, batch.weights.clone()]
    };
    out.push((
        "agents.update_us",
        us_per_call(samples, || {
            black_box(apex.update_from_batch(learn_batch()).expect("update"));
        }),
    ));
    out.push((
        "agents.get_weights_us",
        us_per_call(samples, || {
            black_box(apex.get_weights());
        }),
    ));
    let after = WeightsSnapshot { version: 2, weights: apex.get_weights() };
    out.push((
        "agents.set_weights_us",
        us_per_call(samples, || apex.set_weights(&after.weights).expect("set weights")),
    ));
    let apex_envs = VectorEnv::from_factory(wl::APEX_ENVS, |i| {
        Box::new(wl::apex_env(seed * 1000 + i as u64)) as Box<dyn Env>
    })
    .expect("envs");
    let mut worker = ApexWorker::new(wl::apex_agent(seed), apex_envs).expect("apex worker");
    out.push((
        "agents.collect_task_us",
        us_per_call(samples, || {
            black_box(worker.collect(wl::APEX_TASK).expect("collect"));
        }),
    ));
    // the worker-side prioritisation of one worker_collect task
    let mut collector = wl::collect_worker(seed, &Recorder::disabled()).expect("collect worker");
    let task = collector.collect(wl::COLLECT_TASK).expect("collect");
    let task_batch = rlgraph_agents::components::memory::transitions_to_batch(&task.transitions)
        .expect("homogeneous transitions");
    out.push((
        "agents.td_error_us",
        us_per_call(samples, || {
            black_box(collector.agent_mut().td_error(task_batch.clone()).expect("td error"));
        }),
    ));
    let pixel_envs = || {
        VectorEnv::from_factory(wl::IMPALA_ENVS, |i| {
            Box::new(wl::pong_pixel_env(seed * 1000 + i as u64)) as Box<dyn Env>
        })
        .expect("envs")
    };
    let impala = wl::impala_agent(seed);
    // the queue holds every rollout the actor probe produces, so the
    // actor never blocks and the learner probe never waits
    let rollouts = few + few / 10 + 1;
    let queue = TensorQueue::new("probe-rollouts", rollouts);
    let envs = pixel_envs();
    let (pixel_space, pixel_actions) = (envs.state_space(), envs.action_space());
    let mut actor = ImpalaActor::new(&impala, envs, queue.clone()).expect("impala actor");
    out.push(("agents.impala_rollout_us", us_per_call(few, || actor.rollout().expect("rollout"))));
    let num_actions = pixel_actions.num_categories().expect("discrete actions");
    let mut learner = ImpalaLearner::new(&impala, pixel_space, num_actions, wl::IMPALA_ENVS, queue)
        .expect("impala learner");
    out.push((
        "agents.impala_learn_us",
        us_per_call(few, || {
            black_box(learner.learn().expect("learn"));
        }),
    ));

    // envs: one vector step, auto-resetting at episode ends
    let mut step_probe = |name, mut envs: VectorEnv| {
        envs.reset_all();
        let actions = zero_actions(envs.len());
        out.push((
            name,
            us_per_call(samples, || {
                black_box(envs.step(&actions).expect("step"));
            }),
        ));
    };
    step_probe(
        "envs.step_random_us",
        VectorEnv::from_factory(wl::APEX_ENVS, |i| {
            Box::new(wl::apex_env(seed + i as u64)) as Box<dyn Env>
        })
        .expect("envs"),
    );
    step_probe("envs.step_pong_us", pong);
    step_probe("envs.step_pixels_us", pixel_envs());

    // dist: fragment edges of both policies and the weight hub
    let graph = FragmentGraph::builder()
        .stage("a", StageKind::Rollout, 1)
        .stage("b", StageKind::Replay, 1)
        .edge("a", "b", 4)
        .latest_edge("b", "a")
        .build()
        .expect("probe graph");
    let lane = |from, to| {
        EdgeLane::<u64>::materialize(&graph, from, to, &Recorder::disabled())
            .expect("declared edge")
            .remove(0)
    };
    let (block, latest) = (lane("a", "b"), lane("b", "a"));
    out.push((
        "dist.edge_block_us",
        ns_per_call(samples, 100, || {
            block.send(1).expect("open edge");
            black_box(block.recv());
        }) / 1e3,
    ));
    out.push((
        "dist.edge_latest_us",
        ns_per_call(samples, 100, || {
            latest.offer(1).expect("open edge");
            black_box(latest.try_recv());
        }) / 1e3,
    ));
    let hub = WeightHub::new();
    let mut snapshots: Vec<_> =
        (0..samples + samples / 10 + 1).map(|_| after.weights.clone()).collect();
    out.push((
        "dist.hub_publish_us",
        us_per_call(samples, || {
            hub.publish(snapshots.pop().expect("one prepared snapshot per call"));
        }),
    ));
    let stale = hub.version() - 1;
    out.push((
        "dist.hub_poll_us",
        ns_per_call(samples, 100, || {
            black_box(hub.poll(stale));
        }) / 1e3,
    ));

    // net.codec: one task-sized trajectory batch and one weight
    // snapshot, plain and under the compressed profile; the delta is
    // the change `samples` learner updates made
    let profile = CodecProfile::COMPRESSED;
    let (traj, traj_priorities) = apex_transitions(&mut rng, wl::APEX_TASK);
    let encode = |f: &dyn Fn(&mut ByteWriter)| {
        let mut w = ByteWriter::new();
        f(&mut w);
        w.into_bytes()
    };
    let put_traj = |w: &mut ByteWriter| {
        codec::put_trajectory_v2(w, &traj, &traj_priorities, profile.states).expect("columnar")
    };
    let put_traj_plain = |w: &mut ByteWriter| codec::put_trajectory(w, &traj, &traj_priorities);
    let put_weights = |w: &mut ByteWriter| codec::put_snapshot_enc(w, &after, profile.weights);
    let held = codec::dequantized_snapshot(&before, profile.weights);
    let put_delta = |w: &mut ByteWriter| {
        codec::put_snapshot_delta(w, &held, &after, profile.weights).expect("same variables")
    };
    let traj_bytes = encode(&put_traj);
    let weight_bytes = encode(&put_weights);
    out.push((
        "net.codec.traj_encode_us",
        us_per_call(samples, || drop(black_box(encode(&put_traj)))),
    ));
    out.push((
        "net.codec.traj_decode_us",
        us_per_call(samples, || {
            let mut r = rlgraph_net::ByteReader::new(&traj_bytes);
            black_box(codec::get_trajectory_v2(&mut r).expect("decode"));
        }),
    ));
    out.push(("net.codec.traj_bytes", traj_bytes.len() as f64));
    out.push((
        "net.codec.traj_plain_encode_us",
        us_per_call(samples, || drop(black_box(encode(&put_traj_plain)))),
    ));
    out.push(("net.codec.traj_plain_bytes", encode(&put_traj_plain).len() as f64));
    out.push((
        "net.codec.weights_encode_us",
        us_per_call(samples, || drop(black_box(encode(&put_weights)))),
    ));
    out.push((
        "net.codec.weights_decode_us",
        us_per_call(samples, || {
            let mut r = rlgraph_net::ByteReader::new(&weight_bytes);
            black_box(codec::get_snapshot(&mut r).expect("decode"));
        }),
    ));
    out.push(("net.codec.weights_bytes", weight_bytes.len() as f64));
    out.push((
        "net.codec.delta_encode_us",
        us_per_call(samples, || drop(black_box(encode(&put_delta)))),
    ));
    out.push(("net.codec.delta_bytes", encode(&put_delta).len() as f64));

    // reactor: framing and LZ over the compressed trajectory payload,
    // which is what an insert RPC puts on the wire
    let framed = encode_frame(FrameKind::Request, &traj_bytes).expect("frame");
    out.push((
        "reactor.frame_encode_us",
        us_per_call(samples, || {
            black_box(encode_frame(FrameKind::Request, &traj_bytes).expect("frame"));
        }),
    ));
    out.push((
        "reactor.frame_decode_us",
        us_per_call(samples, || {
            let mut decoder = FrameDecoder::new();
            decoder.feed(&framed);
            black_box(decoder.next().expect("valid frame"));
        }),
    ));
    let packed = codec::compress(&traj_bytes);
    out.push((
        "reactor.lz_compress_ns_per_byte",
        ns_per_call(samples, 1, || {
            black_box(codec::compress(&traj_bytes));
        }) / traj_bytes.len() as f64,
    ));
    out.push((
        "reactor.lz_decompress_ns_per_byte",
        ns_per_call(samples, 1, || {
            black_box(codec::decompress(&packed, traj_bytes.len()).expect("decompress"));
        }) / traj_bytes.len() as f64,
    ));

    // obs: the cost of looking, enabled and disabled. The enabled span
    // probe stays far below the trace buffer's capacity, so every span
    // is recorded, none dropped.
    let enabled = Recorder::wall();
    let disabled = Recorder::disabled();
    out.push(("obs.span_ns", ns_per_call(samples, 20, || drop(enabled.span("probe")))));
    out.push(("obs.span_disabled_ns", ns_per_call(samples, 1000, || drop(disabled.span("probe")))));
    let counter = enabled.counter("probe.counter");
    out.push(("obs.counter_ns", ns_per_call(samples, 1000, || counter.inc())));
    let histogram = enabled.histogram("probe.histogram");
    let mut v = 0.0;
    out.push((
        "obs.histogram_ns",
        ns_per_call(samples, 1000, || {
            v += 1.0;
            histogram.record(v);
        }),
    ));
    out
}
