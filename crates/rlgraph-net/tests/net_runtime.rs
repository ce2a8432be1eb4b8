//! End-to-end tests of the networked runtime: shard/coordinator
//! services over loopback TCP, the Ape-X net run in thread mode (real
//! sockets, in-process workers), deterministic fault-proxy draws, and
//! checkpoint transfer over the wire.

use rlgraph_agents::{Backend, DqnConfig};
use rlgraph_core::RlError;
use rlgraph_dist::checkpoint::LearnerCheckpoint;
use rlgraph_dist::sync::WeightHub;
use rlgraph_net::proxy::Direction;
use rlgraph_net::{
    run_apex_net, CoordClient, CoordService, EnvSpec, FaultProxy, FaultProxyConfig, LaunchMode,
    NetApexConfig, RpcClient, RpcServer, RpcService, ShardClient, ShardService, Transport,
};
use rlgraph_nn::{Activation, NetworkSpec};
use rlgraph_obs::Recorder;
use rlgraph_tensor::Tensor;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

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

#[test]
fn shard_service_over_tcp_serves_the_replay_path() {
    let recorder = Recorder::disabled();
    let server =
        RpcServer::spawn("shard", Arc::new(ShardService::new(64, 0.6, 0)), recorder.clone())
            .unwrap();
    let mut client = ShardClient::connect("shard", server.addr(), &recorder).unwrap();

    // Under-filled: sample declines rather than errors.
    assert!(client.sample(8, 0.4).unwrap().is_none());

    let transitions: Vec<_> = (0..16)
        .map(|i| {
            rlgraph_memory::Transition::new(
                Tensor::full(&[3], i as f32),
                Tensor::scalar_i64(0),
                1.0,
                Tensor::full(&[3], i as f32 + 1.0),
                false,
            )
        })
        .collect();
    client.insert(&transitions, &[1.0; 16]).unwrap();
    assert_eq!(client.watermark().unwrap(), 16);

    let batch = client.sample(8, 0.4).unwrap().expect("filled");
    assert_eq!(batch.tensors[0].shape(), &[8, 3]);
    assert_eq!(batch.indices.len(), 8);
    client.update_priorities(&batch.indices, &[2.0; 8]).unwrap();
    assert!(client.sample(8, 0.4).unwrap().is_some());
    server.shutdown();
}

/// A typed `Protocol` reply is one failed call, not a verdict on the
/// peer: the client surfaces it and keeps speaking its profile's
/// dialect (columnar inserts, LZ frames) on the next call.
#[test]
fn shard_client_keeps_its_codec_profile_after_a_protocol_reply() {
    use rlgraph_net::codec::CodecProfile;
    use rlgraph_net::services::shard_method;
    use std::sync::Mutex;

    /// A shard that records every method id and rejects its first
    /// request with a typed protocol error.
    struct RejectFirst {
        shard: ShardService,
        seen: Mutex<Vec<u16>>,
    }
    impl RpcService for RejectFirst {
        fn call(&self, method: u16, body: &[u8]) -> Result<Vec<u8>, RlError> {
            let mut seen = self.seen.lock().unwrap();
            seen.push(method);
            if seen.len() == 1 {
                return Err(RlError::Protocol("injected".into()));
            }
            self.shard.call(method, body)
        }
        fn method_name(&self, method: u16) -> &'static str {
            self.shard.method_name(method)
        }
    }

    let service = Arc::new(RejectFirst {
        shard: ShardService::new(64, 0.6, 0),
        seen: Mutex::new(Vec::new()),
    });
    let server = RpcServer::spawn("shard", service.clone(), Recorder::disabled()).unwrap();
    let recorder = Recorder::wall();
    let mut client = ShardClient::connect("shard", server.addr(), &recorder).unwrap();
    client.set_codec(CodecProfile::COMPRESSED);

    let transitions: Vec<_> = (0..64)
        .map(|i| {
            rlgraph_memory::Transition::new(
                Tensor::full(&[32], i as f32),
                Tensor::scalar_i64(0),
                1.0,
                Tensor::full(&[32], i as f32 + 1.0),
                false,
            )
        })
        .collect();
    let err = client.insert(&transitions, &[1.0; 64]).unwrap_err();
    assert!(matches!(err, RlError::Protocol(_)), "got {err}");
    client.insert(&transitions, &[1.0; 64]).unwrap();
    assert_eq!(
        *service.seen.lock().unwrap(),
        vec![shard_method::INSERT_COLUMNAR, shard_method::INSERT_COLUMNAR]
    );
    assert_eq!(client.watermark().unwrap(), 64);
    // Both inserts crossed the wire columnar, i8-quantized and LZ'd:
    // far below one exact row-wise copy (64 × 2 × 32 f32 = 16 KiB).
    let tx = recorder.counter("net.bytes_tx").value();
    assert!(tx < 8192, "inserts shipped {} bytes", tx);
    server.shutdown();
}

#[test]
fn coordinator_distributes_weights_and_checkpoints_over_tcp() {
    let recorder = Recorder::disabled();
    let hub = Arc::new(WeightHub::new());
    let stop = Arc::new(AtomicBool::new(false));
    let service = Arc::new(CoordService::new(hub.clone(), stop.clone()));
    let server = RpcServer::spawn("coord", service.clone(), recorder.clone()).unwrap();
    let mut client = CoordClient::connect(server.addr(), &recorder).unwrap();

    // Nothing published yet: quiet poll, typed checkpoint miss.
    assert!(client.get_weights(0).unwrap().is_none());
    assert!(matches!(client.get_checkpoint().unwrap_err(), RlError::Checkpoint(_)));

    hub.publish(vec![("w".into(), Tensor::full(&[2, 3], 1.5))]);
    let snap = client.get_weights(0).unwrap().expect("published");
    assert_eq!(snap.version, 1);
    assert_eq!(snap.weights[0].1.shape(), &[2, 3]);
    // Already seen: the poll stays quiet.
    assert!(client.get_weights(snap.version).unwrap().is_none());

    service.set_checkpoint(LearnerCheckpoint {
        updates: 42,
        weight_version: 1,
        variables: vec![("v".into(), Tensor::full(&[4], -0.25))],
        shard_watermarks: vec![10, 20],
    });
    let ck = client.get_checkpoint().unwrap();
    assert_eq!(ck.updates, 42);
    assert_eq!(ck.shard_watermarks, vec![10, 20]);
    assert_eq!(ck.variables[0].1.as_f32().unwrap(), &[-0.25; 4]);

    // Heartbeats aggregate and relay the stop flag.
    let beat = rlgraph_net::Heartbeat {
        worker: 0,
        frames: 100,
        samples: 32,
        returns: vec![1.0],
        ..Default::default()
    };
    assert!(!client.heartbeat(&beat).unwrap().stop);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    assert!(client.heartbeat(&beat).unwrap().stop);
    let progress = service.progress();
    assert_eq!(progress.env_frames, 200);
    assert_eq!(progress.heartbeats, 2);
    server.shutdown();
}

#[test]
fn apex_over_tcp_trains_end_to_end() {
    let config = NetApexConfig {
        agent: tiny_agent(),
        env: EnvSpec::Random { shape: vec![4], actions: 2, episode_len: 20 },
        num_workers: 2,
        envs_per_worker: 2,
        task_size: 32,
        num_shards: 2,
        weight_sync_interval: 4,
        run_duration: Duration::from_secs(30),
        max_updates: Some(12),
        rpc_deadline: Duration::from_secs(5),
        launch: LaunchMode::Thread,
        shard_proxy: None,
        transport: Transport::default(),
        compression: false,
        elastic: None,
        recorder: Recorder::disabled(),
    };
    let stats = run_apex_net(config).unwrap();
    assert_eq!(stats.updates, 12);
    assert!(stats.env_frames > 0, "no heartbeats reached the coordinator");
    assert!(stats.samples_collected > 0);
    assert_eq!(stats.workers_clean, 2, "workers did not stop cleanly");
    assert!(stats.losses.iter().all(|l| l.is_finite()));
    assert!(stats.shard_watermarks.iter().sum::<u64>() > 0);
}

/// The same end-to-end run with every shard and the coordinator fronted
/// by the epoll reactor ([`Transport::Reactor`]) and the v2 compressed
/// codec on (DESIGN.md §14): unchanged workers and learner clients,
/// identical training outcome.
#[test]
fn apex_over_reactor_transport_trains_end_to_end() {
    let config = NetApexConfig {
        agent: tiny_agent(),
        env: EnvSpec::Random { shape: vec![4], actions: 2, episode_len: 20 },
        num_workers: 2,
        envs_per_worker: 2,
        task_size: 32,
        num_shards: 2,
        weight_sync_interval: 4,
        run_duration: Duration::from_secs(30),
        max_updates: Some(12),
        rpc_deadline: Duration::from_secs(5),
        launch: LaunchMode::Thread,
        shard_proxy: None,
        transport: Transport::Reactor,
        compression: true,
        elastic: None,
        recorder: Recorder::disabled(),
    };
    let stats = run_apex_net(config).unwrap();
    assert_eq!(stats.updates, 12);
    assert!(stats.env_frames > 0, "no heartbeats reached the coordinator");
    assert!(stats.samples_collected > 0);
    assert_eq!(stats.workers_clean, 2, "workers did not stop cleanly");
    assert!(stats.losses.iter().all(|l| l.is_finite()));
    assert!(stats.shard_watermarks.iter().sum::<u64>() > 0);
}

/// The full telemetry plane over real sockets (thread-mode workers run
/// the exact process-mode loop): worker snapshots fold into the cluster
/// registry, GET_TELEMETRY serves the report, worker trace dumps arrive
/// via PUSH_TRACE, and the merged Chrome trace stitches the processes.
#[test]
fn telemetry_plane_folds_workers_and_merges_traces() {
    let config = NetApexConfig {
        agent: tiny_agent(),
        env: EnvSpec::Random { shape: vec![4], actions: 2, episode_len: 20 },
        num_workers: 2,
        envs_per_worker: 2,
        task_size: 32,
        num_shards: 2,
        weight_sync_interval: 4,
        run_duration: Duration::from_secs(30),
        max_updates: Some(12),
        rpc_deadline: Duration::from_secs(5),
        launch: LaunchMode::Thread,
        shard_proxy: None,
        transport: Transport::default(),
        compression: false,
        elastic: None,
        recorder: Recorder::wall(),
    };
    let stats = run_apex_net(config).unwrap();
    assert_eq!(stats.updates, 12);
    assert_eq!(stats.workers_clean, 2);

    let report = stats.telemetry_dump.expect("GET_TELEMETRY answered");
    assert!(report.contains("worker-0"), "missing worker section:\n{}", report);
    assert!(report.contains("worker-1"), "missing worker section:\n{}", report);
    assert!(report.contains("learner"), "missing learner section:\n{}", report);
    // Report lines read `<kind> <name> <stats…>`; every signal has one
    // name, under `frag.<stage>.*`, and the retired spellings are gone.
    let names: Vec<&str> = report
        .lines()
        .filter_map(|line| {
            let mut tokens = line.split_whitespace();
            match tokens.next() {
                Some("counter" | "series" | "hist") => tokens.next(),
                _ => None,
            }
        })
        .collect();
    for present in [
        "frag.rollout.mailbox_depth",
        "frag.learn.update_rate",
        "frag.learn.updates",
        "frag.learn.step_us",
        "net.bytes_tx",
    ] {
        assert!(names.contains(&present), "missing {}:\n{}", present, report);
    }
    for retired in ["shard.", "worker.", "learner.", "actor.", "queue.", "chaos."] {
        let stale: Vec<_> = names.iter().filter(|n| n.starts_with(retired)).collect();
        assert!(stale.is_empty(), "retired metric names {:?} in:\n{}", stale, report);
    }

    let trace = stats.merged_trace.expect("merged trace rendered");
    assert!(trace.contains("\"coordinator\""), "missing parent row:\n{}", &trace[..500]);
    assert!(trace.contains("\"worker-0\""), "missing worker row");
    assert!(trace.contains("\"worker-1\""), "missing worker row");
    assert!(trace.contains("worker.collect"), "missing worker-side span");
    assert!(trace.contains("rpc.serve.heartbeat"), "missing server handler span");
    // Flow events stitch client call spans to server handler spans.
    assert!(trace.contains("\"ph\":\"s\""), "missing flow start events");
    assert!(trace.contains("\"ph\":\"f\""), "missing flow finish events");
}

#[test]
fn proxy_draws_are_pure_and_seed_sensitive() {
    let a = FaultProxyConfig { seed: 9, drop_rate: 0.3, ..FaultProxyConfig::default() };
    let b = FaultProxyConfig { seed: 9, drop_rate: 0.3, ..FaultProxyConfig::default() };
    let c = FaultProxyConfig { seed: 10, drop_rate: 0.3, ..FaultProxyConfig::default() };
    let mut same = 0;
    let mut diff = 0;
    let mut hits = 0;
    for conn in 0..20u64 {
        for chunk in 0..50u64 {
            for dir in [Direction::Up, Direction::Down] {
                let da = a.draw(a.drop_rate, dir, conn, chunk);
                assert_eq!(da, b.draw(b.drop_rate, dir, conn, chunk), "same seed, same draw");
                // Repeated evaluation is stateless.
                assert_eq!(da, a.draw(a.drop_rate, dir, conn, chunk));
                if da == c.draw(c.drop_rate, dir, conn, chunk) {
                    same += 1
                } else {
                    diff += 1
                }
                if da {
                    hits += 1
                }
            }
        }
    }
    assert!(hits > 0, "a 30% rate never fired in 2000 draws");
    assert!(diff > 0, "different seeds produced identical fault patterns");
    assert!(same > 0);
}

const ECHO: u16 = 1;

struct Echo;
impl RpcService for Echo {
    fn call(&self, _method: u16, body: &[u8]) -> Result<Vec<u8>, RlError> {
        Ok(body.to_vec())
    }
}

#[test]
fn severed_proxy_connection_exercises_reconnect() {
    let recorder = Recorder::wall();
    let server = RpcServer::spawn("echo", Arc::new(Echo), recorder.clone()).unwrap();
    // Connection serial 0 is cut outright (a scheduled partition);
    // serial 1 passes cleanly.
    let proxy = FaultProxy::spawn(
        server.addr(),
        FaultProxyConfig { seed: 1, cut_connections: vec![0], ..FaultProxyConfig::default() },
        recorder.clone(),
    )
    .unwrap();
    let mut client = RpcClient::connect("echo-via-proxy", proxy.addr(), &recorder).unwrap();
    let err = client.call(ECHO, b"cut", Some(Duration::from_secs(2))).unwrap_err();
    assert!(
        matches!(err, RlError::Io { .. } | RlError::DeadlineExpired { .. }),
        "partitioned call must fail, got {err}"
    );
    assert_eq!(proxy.drops(), 1);
    // Next call reconnects through the healed proxy and succeeds.
    let reply = client.call(ECHO, b"healed", Some(Duration::from_secs(2))).unwrap();
    assert_eq!(reply, b"healed");
    assert_eq!(recorder.counter("net.reconnects").value(), 1);
    proxy.shutdown();
    server.shutdown();
}

#[test]
fn delaying_proxy_slows_calls_without_corrupting_them() {
    let recorder = Recorder::wall();
    let server = RpcServer::spawn("echo", Arc::new(Echo), recorder.clone()).unwrap();
    let proxy = FaultProxy::spawn(
        server.addr(),
        FaultProxyConfig {
            seed: 2,
            delay_rate: 1.0,
            delay: Duration::from_millis(40),
            ..FaultProxyConfig::default()
        },
        recorder.clone(),
    )
    .unwrap();
    let mut client = RpcClient::connect("echo-delayed", proxy.addr(), &recorder).unwrap();
    let t0 = std::time::Instant::now();
    let reply = client.call(ECHO, b"slow but intact", None).unwrap();
    assert_eq!(reply, b"slow but intact");
    assert!(t0.elapsed() >= Duration::from_millis(40), "delay was not applied");
    assert!(proxy.delays() >= 1);
    proxy.shutdown();
    server.shutdown();
}

/// Idle eviction of coordinator delta state forces a clean
/// full-snapshot resync: the subscriber keeps getting correct weights,
/// the coordinator's memory stays bounded, and the post-eviction
/// response is a full snapshot (visibly larger on the wire than the
/// delta it replaces).
#[test]
fn idle_eviction_forces_full_snapshot_resync() {
    use rlgraph_net::codec::{dequantized_snapshot, CodecProfile, TensorEnc};

    let recorder = Recorder::wall();
    let hub = Arc::new(WeightHub::new());
    let stop = Arc::new(AtomicBool::new(false));
    let service = Arc::new(
        CoordService::new(hub.clone(), stop.clone())
            .with_delta_idle_window(Duration::from_millis(40))
            .with_recorder(&recorder),
    );
    let server = RpcServer::spawn("coord", service, recorder.clone()).unwrap();
    let mut client = CoordClient::connect(server.addr(), &recorder).unwrap();
    client.set_codec(CodecProfile::COMPRESSED);

    // Varied weights so LZ cannot collapse a full snapshot to delta
    // size (the wire-size comparison below depends on it).
    let mut seed = 9u64;
    let mut vals: Vec<f32> = (0..256)
        .map(|_| {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        })
        .collect();
    let weights =
        |vals: &[f32]| vec![("w".to_string(), Tensor::from_vec(vals.to_vec(), &[256]).unwrap())];

    let rx = recorder.counter("net.bytes_rx");

    // First contact: full snapshot, subscriber tracked.
    hub.publish(weights(&vals));
    let snap1 = client.get_weights(0).unwrap().expect("published");
    assert_eq!(snap1.version, 1);
    let tracked = recorder.gauge("net.coord.delta_state_bytes").value();
    assert!(tracked > 0.0, "subscriber state not tracked: {} bytes", tracked);

    // Small move while tracked: the delta path serves it.
    vals[3] += 1.0;
    hub.publish(weights(&vals));
    let before = rx.value();
    let snap2 = client.get_weights(snap1.version).unwrap().expect("moved");
    let delta_wire = rx.value() - before;
    assert_eq!(snap2.version, 2);
    let want = dequantized_snapshot(
        &rlgraph_dist::WeightsSnapshot { version: 2, weights: weights(&vals) },
        TensorEnc::F16,
    );
    assert_eq!(snap2.weights, want.weights, "delta-applied weights diverge");

    // Idle past the window, then the same small move: the sweep on the
    // next serve has evicted this subscriber, so it must get a clean
    // full snapshot — correct values, and full-size on the wire.
    std::thread::sleep(Duration::from_millis(90));
    vals[200] += 1.0;
    hub.publish(weights(&vals));
    let before = rx.value();
    let snap3 = client.get_weights(snap2.version).unwrap().expect("moved");
    let full_wire = rx.value() - before;
    assert_eq!(snap3.version, 3);
    let want = dequantized_snapshot(
        &rlgraph_dist::WeightsSnapshot { version: 3, weights: weights(&vals) },
        TensorEnc::F16,
    );
    assert_eq!(snap3.weights, want.weights, "post-eviction resync diverges");
    assert!(
        full_wire > delta_wire + 100,
        "expected a full snapshot after eviction, but the response ({} wire bytes) \
         is delta-sized (delta was {})",
        full_wire,
        delta_wire
    );

    // The resync re-tracked the subscriber: the next move deltas again.
    vals[7] += 1.0;
    hub.publish(weights(&vals));
    let before = rx.value();
    let snap4 = client.get_weights(snap3.version).unwrap().expect("moved");
    let redelta_wire = rx.value() - before;
    assert_eq!(snap4.version, 4);
    assert!(
        redelta_wire < full_wire,
        "subscriber was not re-tracked after the full resync ({} vs {})",
        redelta_wire,
        full_wire
    );
    server.shutdown();
}
