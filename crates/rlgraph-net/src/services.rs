//! The RPC services of the multi-process Ape-X runtime: replay shards
//! and the learner-side coordinator, each with a typed client.
//!
//! A [`ShardService`] exposes one [`ShardCore`] — the exact replay state
//! machine the in-process executor drives through channels — over the
//! wire, so the TCP runtime exercises the production replay path rather
//! than a re-implementation. A [`CoordService`] is the parameter-server
//! face of the learner: workers poll versioned weight snapshots out of
//! the shared [`WeightHub`] and report progress through heartbeats whose
//! replies double as the shutdown signal.

use crate::codec::{
    dequantized_snapshot, get_checkpoint, get_membership, get_metrics_snapshot, get_snapshot,
    get_snapshot_delta, get_tensor, get_trace_dump, get_trajectory, get_trajectory_v2,
    put_checkpoint, put_membership, put_metrics_snapshot, put_snapshot_delta, put_snapshot_enc,
    put_tensor, put_tensor_enc, put_trace_dump, put_trajectory, put_trajectory_v2, CodecProfile,
    TensorEnc,
};
use crate::rpc::{RpcClient, RpcService};
use crate::wire::{ByteReader, ByteWriter};
use parking_lot::Mutex;
use rlgraph_core::{RlError, RlResult};
use rlgraph_dist::checkpoint::LearnerCheckpoint;
use rlgraph_dist::cluster::{MembershipTable, MembershipView};
use rlgraph_dist::shard::{ShardBatch, ShardCore};
use rlgraph_dist::sync::{WeightHub, WeightsSnapshot};
use rlgraph_memory::Transition;
use rlgraph_obs::{ClusterRegistry, MetricsSnapshot, Recorder, TraceDump};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Method ids of the replay-shard service.
pub mod shard_method {
    /// `Insert { transitions, priorities }` → `()`
    pub const INSERT: u16 = 1;
    /// `Sample { batch, beta, state enc }` → `Option<ShardBatch>`
    pub const SAMPLE: u16 = 2;
    /// `UpdatePriorities { indices, priorities }` → `()`
    pub const UPDATE_PRIORITIES: u16 = 3;
    /// `Watermark` → `u64`
    pub const WATERMARK: u16 = 4;
    /// `InsertColumnar { columnar trajectory }` → `()` — the columnar,
    /// optionally quantized form of [`INSERT`] (homogeneous batches
    /// only; the client picks per batch).
    pub const INSERT_COLUMNAR: u16 = 5;
}

/// Method ids of the learner coordinator service.
pub mod coord_method {
    /// `GetWeights { seen, sub_id, enc, delta }` → `Option<WeightsSnapshot>`
    /// (full or delta against what the subscriber holds)
    pub const GET_WEIGHTS: u16 = 1;
    /// `Heartbeat { … }` → [`crate::services::HeartbeatReply`]
    pub const HEARTBEAT: u16 = 2;
    /// `GetCheckpoint` → `LearnerCheckpoint`
    pub const GET_CHECKPOINT: u16 = 3;
    /// `GetTelemetry` → plain-text cluster registry dump
    pub const GET_TELEMETRY: u16 = 4;
    /// `PushTrace { process, dump }` → `()` (workers ship their span
    /// buffers before exiting, for the merged cluster trace)
    pub const PUSH_TRACE: u16 = 5;
    /// `Join { worker, generation }` → `epoch u64` (membership admit;
    /// stale generations rejected with a typed error)
    pub const JOIN: u16 = 6;
    /// `Leave { worker }` → `()` (clean departure)
    pub const LEAVE: u16 = 7;
    /// `GetMembership` → [`rlgraph_dist::MembershipView`]
    pub const GET_MEMBERSHIP: u16 = 8;
}

/// Method-name table of [`shard_method`], for telemetry labels.
pub fn shard_method_name(method: u16) -> &'static str {
    match method {
        shard_method::INSERT => "insert",
        shard_method::SAMPLE => "sample",
        shard_method::UPDATE_PRIORITIES => "update_priorities",
        shard_method::WATERMARK => "watermark",
        shard_method::INSERT_COLUMNAR => "insert_columnar",
        _ => "other",
    }
}

/// Method-name table of [`coord_method`], for telemetry labels.
pub fn coord_method_name(method: u16) -> &'static str {
    match method {
        coord_method::GET_WEIGHTS => "get_weights",
        coord_method::HEARTBEAT => "heartbeat",
        coord_method::GET_CHECKPOINT => "get_checkpoint",
        coord_method::GET_TELEMETRY => "get_telemetry",
        coord_method::PUSH_TRACE => "push_trace",
        coord_method::JOIN => "join",
        coord_method::LEAVE => "leave",
        coord_method::GET_MEMBERSHIP => "get_membership",
        _ => "other",
    }
}

/// One replay shard behind an RPC server.
///
/// Requests from all connections serialize on an internal mutex — the
/// same total-order guarantee the channel-mailbox actor gives, so the
/// shard's determinism-per-seed property carries over to the wire.
pub struct ShardService {
    core: Mutex<ShardCore>,
}

impl ShardService {
    /// Wraps a fresh [`ShardCore`] with the given capacity, priority
    /// exponent, and sampling seed.
    pub fn new(capacity: usize, alpha: f32, seed: u64) -> Self {
        Self::serving(ShardCore::new(capacity, alpha, seed))
    }

    /// Serves an already-built core (a run's [`apex_shard`]).
    ///
    /// [`apex_shard`]: rlgraph_dist::fragment::apex_shard
    pub fn serving(core: ShardCore) -> Self {
        ShardService { core: Mutex::new(core) }
    }
}

impl RpcService for ShardService {
    fn method_name(&self, method: u16) -> &'static str {
        shard_method_name(method)
    }

    fn call(&self, method: u16, body: &[u8]) -> RlResult<Vec<u8>> {
        let mut r = ByteReader::new(body);
        let mut out = ByteWriter::new();
        match method {
            shard_method::INSERT => {
                let (transitions, priorities) = get_trajectory(&mut r)?;
                r.expect_end()?;
                self.core.lock().insert(transitions, priorities);
            }
            shard_method::INSERT_COLUMNAR => {
                let (transitions, priorities) = get_trajectory_v2(&mut r)?;
                r.expect_end()?;
                self.core.lock().insert(transitions, priorities);
            }
            shard_method::SAMPLE => {
                let batch = r.get_u32()? as usize;
                let beta = r.get_f32()?;
                let enc = state_enc_from_tag(r.get_u8()?)?;
                r.expect_end()?;
                match self.core.lock().sample(batch, beta) {
                    None => out.put_u8(0),
                    Some(b) => {
                        out.put_u8(1);
                        put_shard_batch(&mut out, &b, enc);
                    }
                }
            }
            shard_method::UPDATE_PRIORITIES => {
                let n = r.get_u32()? as usize;
                let mut indices = Vec::with_capacity(n);
                for _ in 0..n {
                    indices.push(r.get_u64()? as usize);
                }
                let priorities = r.get_f32_vec()?;
                r.expect_end()?;
                self.core.lock().update_priorities(indices, priorities);
            }
            shard_method::WATERMARK => {
                r.expect_end()?;
                out.put_u64(self.core.lock().watermark());
            }
            other => {
                return Err(RlError::Protocol(format!("shard service: unknown method {}", other)))
            }
        }
        Ok(out.into_bytes())
    }
}

fn state_enc_from_tag(tag: u8) -> RlResult<TensorEnc> {
    if tag == 0 {
        return Ok(TensorEnc::F32);
    }
    TensorEnc::from_quant_tag(tag)
        .ok_or_else(|| RlError::Protocol(format!("unknown dtype tag {}", tag)))
}

fn put_shard_batch(w: &mut ByteWriter, b: &ShardBatch, enc: TensorEnc) {
    // Only the state tensors (s at 0, s2 at 3) are quantized; actions,
    // rewards, terminals, and importance weights ship exact.
    for (i, t) in b.tensors.iter().enumerate() {
        if i == 0 || i == 3 {
            put_tensor_enc(w, t, enc);
        } else {
            put_tensor(w, t);
        }
    }
    put_tensor(w, &b.weights);
    w.put_u32(b.indices.len() as u32);
    for &i in &b.indices {
        w.put_u64(i as u64);
    }
}

fn get_shard_batch(r: &mut ByteReader<'_>) -> RlResult<ShardBatch> {
    let tensors = [get_tensor(r)?, get_tensor(r)?, get_tensor(r)?, get_tensor(r)?, get_tensor(r)?];
    let weights = get_tensor(r)?;
    let n = r.get_u32()? as usize;
    let mut indices = Vec::with_capacity(n);
    for _ in 0..n {
        indices.push(r.get_u64()? as usize);
    }
    Ok(ShardBatch { tensors, weights, indices })
}

fn sample_request(batch: usize, beta: f32, enc: TensorEnc) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(batch as u32);
    w.put_f32(beta);
    w.put_u8(enc.tag());
    w.into_bytes()
}

fn decode_sample(resp: &[u8]) -> RlResult<Option<ShardBatch>> {
    let mut r = ByteReader::new(resp);
    let out = match r.get_u8()? {
        0 => None,
        1 => Some(get_shard_batch(&mut r)?),
        other => return Err(RlError::Protocol(format!("bad sample flag {}", other))),
    };
    r.expect_end()?;
    Ok(out)
}

/// Typed client of one remote replay shard.
pub struct ShardClient {
    rpc: RpcClient,
    deadline: Option<Duration>,
    codec: CodecProfile,
}

impl ShardClient {
    /// Connects to a shard server.
    ///
    /// # Errors
    ///
    /// `RlError::Io` when the connection fails.
    pub fn connect(name: &str, addr: SocketAddr, recorder: &Recorder) -> RlResult<Self> {
        let mut rpc = RpcClient::connect(name, addr, recorder)?;
        rpc.set_method_names(shard_method_name);
        let mut client = ShardClient { rpc, deadline: None, codec: CodecProfile::PLAIN };
        // Through the setter, so the frame layer follows the profile too.
        client.set_codec(CodecProfile::PLAIN);
        Ok(client)
    }

    /// Applies a per-call deadline to every subsequent request.
    pub fn set_deadline(&mut self, d: Option<Duration>) {
        self.deadline = d;
    }

    /// Selects the wire encodings for inserts and sample replies, and
    /// with them the frame layer: every profile but
    /// [`CodecProfile::PLAIN`] also LZ-compresses frames.
    pub fn set_codec(&mut self, codec: CodecProfile) {
        self.codec = codec;
        self.rpc.set_lz(!codec.is_plain());
    }

    /// Ships transitions with worker-side priorities.
    ///
    /// # Errors
    ///
    /// Transport/deadline/protocol errors from the RPC layer.
    pub fn insert(&mut self, transitions: &[Transition], priorities: &[f32]) -> RlResult<()> {
        if self.codec.columnar {
            let mut w = ByteWriter::new();
            // A heterogeneous batch refuses before writing; ship it
            // row-wise and exact.
            if put_trajectory_v2(&mut w, transitions, priorities, self.codec.states).is_ok() {
                self.rpc.call(shard_method::INSERT_COLUMNAR, &w.into_bytes(), self.deadline)?;
                return Ok(());
            }
        }
        let mut w = ByteWriter::new();
        put_trajectory(&mut w, transitions, priorities);
        self.rpc.call(shard_method::INSERT, &w.into_bytes(), self.deadline)?;
        Ok(())
    }

    /// Samples a batch; `None` while the shard is under-filled.
    ///
    /// # Errors
    ///
    /// Transport/deadline/protocol errors from the RPC layer.
    pub fn sample(&mut self, batch: usize, beta: f32) -> RlResult<Option<ShardBatch>> {
        let req = sample_request(batch, beta, self.codec.states);
        decode_sample(&self.rpc.call(shard_method::SAMPLE, &req, self.deadline)?)
    }

    /// Requests a batch without waiting for it: the pipelined form of
    /// [`ShardClient::sample`]. The shard selects, gathers, and encodes
    /// the batch while the caller does local work (typically the learn
    /// step on the *previous* batch); [`ShardClient::sample_collect`]
    /// then blocks only for whatever the overlap did not cover.
    ///
    /// # Errors
    ///
    /// Transport/deadline/protocol errors from the RPC layer.
    pub fn sample_prefetch(&mut self, batch: usize, beta: f32) -> RlResult<()> {
        let req = sample_request(batch, beta, self.codec.states);
        self.rpc.call_prefetch(shard_method::SAMPLE, &req, self.deadline)
    }

    /// Collects the batch of the outstanding
    /// [`ShardClient::sample_prefetch`]; `None` while the shard is
    /// under-filled.
    ///
    /// # Errors
    ///
    /// Transport/deadline/protocol errors from the RPC layer, or
    /// [`RlError::Protocol`] when no prefetch is outstanding.
    pub fn sample_collect(&mut self) -> RlResult<Option<ShardBatch>> {
        decode_sample(&self.rpc.take_prefetched()?)
    }

    /// Applies the learner's post-step priority updates. Pipelined: the
    /// request is sent immediately and its ack drained just before the
    /// next call on this client, keeping the round-trip off the
    /// learner's critical path. Priorities are advisory, so a typed
    /// error in the dropped ack costs one stale priority, nothing more.
    ///
    /// # Errors
    ///
    /// Transport/deadline/protocol errors from the RPC layer.
    pub fn update_priorities(&mut self, indices: &[usize], priorities: &[f32]) -> RlResult<()> {
        let mut w = ByteWriter::new();
        w.put_u32(indices.len() as u32);
        for &i in indices {
            w.put_u64(i as u64);
        }
        w.put_f32_slice(priorities);
        self.rpc.call_deferred(shard_method::UPDATE_PRIORITIES, &w.into_bytes(), self.deadline)
    }

    /// The shard's high-water mark (total records ever inserted).
    ///
    /// # Errors
    ///
    /// Transport/deadline/protocol errors from the RPC layer.
    pub fn watermark(&mut self) -> RlResult<u64> {
        let resp = self.rpc.call(shard_method::WATERMARK, &[], self.deadline)?;
        let mut r = ByteReader::new(&resp);
        let v = r.get_u64()?;
        r.expect_end()?;
        Ok(v)
    }
}

/// A worker's heartbeat: cumulative-progress deltas since its last beat,
/// plus the telemetry piggyback (metric deltas and the worker's current
/// clock-offset estimate, both optional).
#[derive(Debug, Clone, Default)]
pub struct Heartbeat {
    /// worker index
    pub worker: u32,
    /// env frames consumed since the last beat
    pub frames: u64,
    /// post-processed samples shipped since the last beat
    pub samples: u64,
    /// episode returns completed since the last beat
    pub returns: Vec<f32>,
    /// the worker's estimate of (coordinator clock − its own clock),
    /// in microseconds; only meaningful when `rtt_us > 0`
    pub offset_us: i64,
    /// round-trip time of the beat that produced `offset_us`; `0`
    /// means "no estimate yet" and the coordinator ignores the pair
    pub rtt_us: u64,
    /// metric deltas since the last beat, stamped with the worker's
    /// own capture clock (`taken_at_us`), not coordinator receive time
    pub snapshot: Option<MetricsSnapshot>,
    /// the worker's incarnation (see DESIGN.md §16); `0` means "not
    /// membership-tracked" (fixed-fleet runs) and the coordinator then
    /// skips liveness accounting for the beat
    pub generation: u64,
}

/// The coordinator's reply to a [`Heartbeat`].
#[derive(Debug, Clone, Copy, Default)]
pub struct HeartbeatReply {
    /// whether the run is over and the worker should exit
    pub stop: bool,
    /// the coordinator's clock at reply time, in microseconds; `0`
    /// when telemetry is disabled (workers then skip offset estimation)
    pub coord_now_us: u64,
    /// whether *this worker* should retire: finish cleanly (leave, then
    /// exit) while the run continues — the scale-down path
    pub retire: bool,
}

/// Aggregated worker progress, folded from heartbeats.
#[derive(Debug, Clone, Default)]
pub struct CoordProgress {
    /// total env frames across workers
    pub env_frames: u64,
    /// total samples shipped to shards
    pub samples: u64,
    /// episode returns in arrival order
    pub returns: Vec<f32>,
    /// heartbeats received
    pub heartbeats: u64,
}

/// The learner coordinator: weight distribution + progress aggregation
/// + shutdown propagation, behind one RPC server.
pub struct CoordService {
    hub: Arc<WeightHub>,
    stop: Arc<AtomicBool>,
    progress: Mutex<CoordProgress>,
    checkpoint: Mutex<Option<LearnerCheckpoint>>,
    recorder: Recorder,
    cluster: Arc<ClusterRegistry>,
    traces: Mutex<Vec<(String, TraceDump)>>,
    /// What each delta subscriber holds (bounded by idle eviction).
    subs: Mutex<rlgraph_dist::SubscriberTable>,
    /// Dequantized images of the current version, one per encoding —
    /// computed once per publish, `Arc`-shared into the subscriber
    /// table. Keyed `(version, enc tag)`; stale versions are dropped.
    deq_cache: Mutex<DeqCache>,
    /// Elastic membership (DESIGN.md §16): joins, generation-checked
    /// beats, and missed-beat eviction, all riding the existing RPCs.
    membership: Mutex<MembershipTable>,
    /// Anchor for membership timestamps — the recorder may be disabled
    /// (its clock then reads 0), liveness still needs real time.
    epoch0: Instant,
    /// Workers flagged for clean retirement; their next heartbeat
    /// reply carries `retire = true` (flag cleared when they leave).
    retiring: Mutex<HashSet<u32>>,
}

/// Cache entries of dequantized snapshot images, keyed `(version, enc)`.
type DeqCache = Vec<((u64, u8), Arc<WeightsSnapshot>)>;

/// Default idle window after which a delta subscriber's state is
/// evicted (it then gets one full snapshot and is re-tracked).
pub const DELTA_IDLE_WINDOW: Duration = Duration::from_secs(60);

/// Default beat-silence threshold before the membership sweep evicts a
/// worker. Generous: worker task loops run well under a second.
pub const DEFAULT_BEAT_TIMEOUT: Duration = Duration::from_secs(5);

impl CoordService {
    /// Creates a coordinator bridging the given hub and stop flag.
    pub fn new(hub: Arc<WeightHub>, stop: Arc<AtomicBool>) -> Self {
        CoordService {
            hub,
            stop,
            progress: Mutex::new(CoordProgress::default()),
            checkpoint: Mutex::new(None),
            recorder: Recorder::disabled(),
            cluster: Arc::new(ClusterRegistry::new(256)),
            traces: Mutex::new(Vec::new()),
            subs: Mutex::new(rlgraph_dist::SubscriberTable::new(DELTA_IDLE_WINDOW)),
            deq_cache: Mutex::new(Vec::new()),
            membership: Mutex::new(MembershipTable::new(DEFAULT_BEAT_TIMEOUT.as_micros() as u64)),
            epoch0: Instant::now(),
            retiring: Mutex::new(HashSet::new()),
        }
    }

    /// Overrides the missed-beat eviction timeout (the elastic runtime
    /// derives it from its heartbeat cadence).
    #[must_use]
    pub fn with_beat_timeout(self, timeout: Duration) -> Self {
        *self.membership.lock() = MembershipTable::new(timeout.as_micros() as u64);
        self
    }

    /// Microseconds since this coordinator started — the membership
    /// table's time base.
    pub fn now_us(&self) -> u64 {
        self.epoch0.elapsed().as_micros() as u64
    }

    /// Snapshot of the membership table.
    pub fn membership_view(&self) -> MembershipView {
        self.membership.lock().view()
    }

    /// Evicts every member whose last beat is older than the timeout;
    /// returns the evicted worker ids and updates `cluster.*` metrics.
    /// Evicted workers' telemetry is dropped from the registry so fleet
    /// aggregates track the live fleet.
    pub fn sweep_membership(&self) -> Vec<u32> {
        let evicted = {
            let mut m = self.membership.lock();
            let evicted = m.sweep(self.now_us());
            self.recorder.gauge("cluster.members").set(m.alive_count() as f64);
            self.recorder.gauge("cluster.epoch").set(m.epoch() as f64);
            evicted
        };
        for &w in &evicted {
            self.recorder.counter("cluster.evictions").inc();
            self.cluster.forget(&format!("worker-{}", w));
        }
        evicted
    }

    /// Flags a worker for clean retirement: its next heartbeat reply
    /// says `retire`, it finishes the task, leaves, and exits.
    pub fn flag_retire(&self, worker: u32) {
        self.retiring.lock().insert(worker);
    }

    /// Overrides the delta-state idle window (tests use tiny windows to
    /// force eviction).
    #[must_use]
    pub fn with_delta_idle_window(self, window: Duration) -> Self {
        *self.subs.lock() = rlgraph_dist::SubscriberTable::new(window);
        self
    }

    /// The dequantized image of `snap` under `enc` — what a subscriber
    /// holds after decoding it. Cached per `(version, enc)`.
    fn deq_image(&self, snap: &Arc<WeightsSnapshot>, enc: TensorEnc) -> Arc<WeightsSnapshot> {
        if enc == TensorEnc::F32 {
            return snap.clone();
        }
        let key = (snap.version, enc.tag());
        let mut cache = self.deq_cache.lock();
        if let Some((_, deq)) = cache.iter().find(|(k, _)| *k == key) {
            return deq.clone();
        }
        let deq = Arc::new(dequantized_snapshot(snap, enc));
        cache.retain(|((v, _), _)| *v == snap.version);
        cache.push((key, deq.clone()));
        deq
    }

    /// Enables the telemetry plane: heartbeat replies carry the
    /// coordinator's clock (so workers can estimate offsets) and
    /// shipped snapshots fold into the cluster registry.
    #[must_use]
    pub fn with_recorder(mut self, recorder: &Recorder) -> Self {
        self.recorder = recorder.clone();
        self
    }

    /// Takes the progress aggregated so far.
    pub fn progress(&self) -> CoordProgress {
        self.progress.lock().clone()
    }

    /// Publishes the checkpoint served to `GET_CHECKPOINT` callers.
    pub fn set_checkpoint(&self, c: LearnerCheckpoint) {
        *self.checkpoint.lock() = Some(c);
    }

    /// The cluster-wide metric registry heartbeat snapshots fold into.
    pub fn cluster(&self) -> &Arc<ClusterRegistry> {
        &self.cluster
    }

    /// Takes the trace dumps workers pushed before exiting, as
    /// `(process name, dump)` pairs in arrival order.
    pub fn take_traces(&self) -> Vec<(String, TraceDump)> {
        std::mem::take(&mut *self.traces.lock())
    }
}

impl RpcService for CoordService {
    fn method_name(&self, method: u16) -> &'static str {
        coord_method_name(method)
    }

    fn call(&self, method: u16, body: &[u8]) -> RlResult<Vec<u8>> {
        let mut r = ByteReader::new(body);
        let mut out = ByteWriter::new();
        match method {
            coord_method::GET_WEIGHTS => {
                // [seen u64][sub_id u64][enc u8][flags u8]
                let seen = r.get_u64()?;
                let sub_id = r.get_u64()?;
                let enc = state_enc_from_tag(r.get_u8()?)?;
                let want_delta = r.get_u8()? & 1 != 0;
                r.expect_end()?;
                match self.hub.poll(seen) {
                    None => {
                        out.put_u8(0);
                        if want_delta {
                            self.subs.lock().touch(sub_id);
                        }
                    }
                    Some(snap) => {
                        let mut subs = self.subs.lock();
                        subs.sweep();
                        // Delta only against exactly what the peer
                        // says it holds; anything else (first
                        // contact, version gap, eviction) gets a
                        // full snapshot and is re-tracked.
                        let held = if want_delta { subs.touch(sub_id) } else { None };
                        let held = held.filter(|h| {
                            h.version == seen
                                && h.weights.len() == snap.weights.len()
                                && h.weights
                                    .iter()
                                    .zip(&snap.weights)
                                    .all(|((a, _), (b, _))| a == b)
                        });
                        match held {
                            Some(held) => {
                                out.put_u8(3);
                                put_snapshot_delta(&mut out, &held, &snap, enc)
                                    .expect("structure prechecked");
                            }
                            None => {
                                out.put_u8(1);
                                put_snapshot_enc(&mut out, &snap, enc);
                            }
                        }
                        if want_delta {
                            subs.record(sub_id, self.deq_image(&snap, enc));
                            self.recorder
                                .gauge("net.coord.delta_state_bytes")
                                .set(subs.approx_bytes() as f64);
                        }
                    }
                }
            }
            coord_method::HEARTBEAT => {
                let worker = r.get_u32()?;
                let frames = r.get_u64()?;
                let samples = r.get_u64()?;
                let returns = r.get_f32_vec()?;
                let offset_us = r.get_u64()? as i64;
                let rtt_us = r.get_u64()?;
                let snapshot = match r.get_u8()? {
                    0 => None,
                    _ => Some(get_metrics_snapshot(&mut r)?),
                };
                // 0 when the worker is not membership-tracked.
                let generation = r.get_u64()?;
                r.expect_end()?;
                if generation > 0 {
                    // Liveness piggybacks here: a stale-generation beat
                    // is rejected *before* its progress is folded, so a
                    // zombie's numbers never pollute its successor's.
                    let mut m = self.membership.lock();
                    match m.beat(worker, generation, self.now_us()) {
                        Ok(()) => {
                            self.recorder.gauge("cluster.members").set(m.alive_count() as f64);
                            self.recorder.gauge("cluster.epoch").set(m.epoch() as f64);
                        }
                        Err(e) => {
                            self.recorder.counter("cluster.stale_beats").inc();
                            return Err(e);
                        }
                    }
                }
                {
                    let mut p = self.progress.lock();
                    p.env_frames += frames;
                    p.samples += samples;
                    p.returns.extend(returns);
                    p.heartbeats += 1;
                }
                let name = format!("worker-{}", worker);
                if rtt_us > 0 {
                    self.cluster.set_offset(&name, offset_us, rtt_us);
                }
                if let Some(snap) = snapshot {
                    self.cluster.fold(&name, &snap);
                }
                out.put_u8(u8::from(self.stop.load(Ordering::Relaxed)));
                out.put_u64(if self.recorder.is_enabled() {
                    self.recorder.now_micros()
                } else {
                    0
                });
                out.put_u8(u8::from(self.retiring.lock().contains(&worker)));
            }
            coord_method::GET_CHECKPOINT => {
                r.expect_end()?;
                match self.checkpoint.lock().as_ref() {
                    None => return Err(RlError::Checkpoint("no checkpoint published yet".into())),
                    Some(c) => put_checkpoint(&mut out, c),
                }
            }
            coord_method::GET_TELEMETRY => {
                r.expect_end()?;
                out.put_str(&self.cluster.dump());
            }
            coord_method::PUSH_TRACE => {
                let process = r.get_str()?;
                let dump = get_trace_dump(&mut r)?;
                r.expect_end()?;
                self.traces.lock().push((process, dump));
            }
            coord_method::JOIN => {
                let worker = r.get_u32()?;
                let generation = r.get_u64()?;
                r.expect_end()?;
                let mut m = self.membership.lock();
                let epoch = m.join(worker, generation, self.now_us())?;
                self.recorder.gauge("cluster.members").set(m.alive_count() as f64);
                self.recorder.gauge("cluster.epoch").set(m.epoch() as f64);
                out.put_u64(epoch);
            }
            coord_method::LEAVE => {
                let worker = r.get_u32()?;
                r.expect_end()?;
                let mut m = self.membership.lock();
                m.leave(worker, self.now_us());
                self.recorder.gauge("cluster.members").set(m.alive_count() as f64);
                self.recorder.gauge("cluster.epoch").set(m.epoch() as f64);
                drop(m);
                self.retiring.lock().remove(&worker);
                self.cluster.forget(&format!("worker-{}", worker));
            }
            coord_method::GET_MEMBERSHIP => {
                r.expect_end()?;
                put_membership(&mut out, &self.membership.lock().view());
            }
            other => {
                return Err(RlError::Protocol(format!("coord service: unknown method {}", other)))
            }
        }
        Ok(out.into_bytes())
    }
}

/// Typed client of the coordinator service (held by worker processes).
pub struct CoordClient {
    rpc: RpcClient,
    deadline: Option<Duration>,
    codec: CodecProfile,
    /// Unique subscriber id for delta sync (process id + local counter).
    sub_id: u64,
    /// The snapshot this client currently holds, the base deltas apply
    /// to. Only kept while the profile asks for deltas.
    held: Option<WeightsSnapshot>,
}

impl CoordClient {
    /// Connects to the coordinator.
    ///
    /// # Errors
    ///
    /// `RlError::Io` when the connection fails.
    pub fn connect(addr: SocketAddr, recorder: &Recorder) -> RlResult<Self> {
        static NEXT_SUB: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        let mut rpc = RpcClient::connect("coordinator", addr, recorder)?;
        rpc.set_method_names(coord_method_name);
        let sub_id = ((std::process::id() as u64) << 32) | NEXT_SUB.fetch_add(1, Ordering::Relaxed);
        let mut client =
            CoordClient { rpc, deadline: None, codec: CodecProfile::PLAIN, sub_id, held: None };
        // Through the setter, so the frame layer follows the profile too.
        client.set_codec(CodecProfile::PLAIN);
        Ok(client)
    }

    /// Applies a per-call deadline to every subsequent request.
    pub fn set_deadline(&mut self, d: Option<Duration>) {
        self.deadline = d;
    }

    /// Selects the wire encodings for weight sync, and with them the
    /// frame layer: every profile but [`CodecProfile::PLAIN`] also
    /// LZ-compresses frames.
    pub fn set_codec(&mut self, codec: CodecProfile) {
        self.codec = codec;
        self.rpc.set_lz(!codec.is_plain());
        self.held = None;
    }

    /// Fetches a weight snapshot newer than `seen`, if one exists.
    /// With a compressed [`CodecProfile`] the reply may be quantized
    /// and/or a delta against the last fetch; this decodes either form
    /// transparently and self-heals version gaps by re-requesting a
    /// full snapshot.
    ///
    /// # Errors
    ///
    /// Transport/deadline/protocol errors from the RPC layer.
    pub fn get_weights(&mut self, seen: u64) -> RlResult<Option<WeightsSnapshot>> {
        // At most one self-healing retry: a failed delta apply clears
        // the held base, and the server (which just recorded us at the
        // new version ≠ `seen`) answers the retry with a full snapshot.
        for _ in 0..2 {
            let mut w = ByteWriter::new();
            w.put_u64(seen);
            w.put_u64(self.sub_id);
            w.put_u8(self.codec.weights.tag());
            w.put_u8(u8::from(self.codec.delta));
            let resp = self.rpc.call(coord_method::GET_WEIGHTS, &w.into_bytes(), self.deadline)?;
            let mut r = ByteReader::new(&resp);
            match r.get_u8()? {
                0 => {
                    r.expect_end()?;
                    return Ok(None);
                }
                1 => {
                    let snap = get_snapshot(&mut r)?;
                    r.expect_end()?;
                    if self.codec.delta {
                        self.held = Some(snap.clone());
                    }
                    return Ok(Some(snap));
                }
                3 => {
                    let Some(held) = self.held.as_ref() else {
                        continue; // lost our base (restart?): re-request
                    };
                    match get_snapshot_delta(&mut r, held) {
                        Ok(snap) => {
                            r.expect_end()?;
                            self.held = Some(snap.clone());
                            return Ok(Some(snap));
                        }
                        Err(RlError::Protocol(_)) => {
                            self.held = None;
                            continue;
                        }
                        Err(e) => return Err(e),
                    }
                }
                other => {
                    return Err(RlError::Protocol(format!("bad weights flag {}", other)));
                }
            }
        }
        Err(RlError::Protocol("delta weight sync failed to converge".into()))
    }

    /// Reports progress; the reply says whether the run is over and
    /// carries the coordinator's clock for offset estimation.
    ///
    /// # Errors
    ///
    /// Transport/deadline/protocol errors from the RPC layer.
    pub fn heartbeat(&mut self, beat: &Heartbeat) -> RlResult<HeartbeatReply> {
        let mut w = ByteWriter::new();
        w.put_u32(beat.worker);
        w.put_u64(beat.frames);
        w.put_u64(beat.samples);
        w.put_f32_slice(&beat.returns);
        w.put_u64(beat.offset_us as u64);
        w.put_u64(beat.rtt_us);
        match beat.snapshot.as_ref() {
            None => w.put_u8(0),
            Some(snap) => {
                w.put_u8(1);
                put_metrics_snapshot(&mut w, snap);
            }
        }
        w.put_u64(beat.generation);
        let resp = self.rpc.call(coord_method::HEARTBEAT, &w.into_bytes(), self.deadline)?;
        let mut r = ByteReader::new(&resp);
        let stop = r.get_u8()? != 0;
        let coord_now_us = r.get_u64()?;
        let retire = r.get_u8()? != 0;
        r.expect_end()?;
        Ok(HeartbeatReply { stop, coord_now_us, retire })
    }

    /// Joins the cluster at `generation`; returns the membership epoch.
    ///
    /// # Errors
    ///
    /// [`RlError::StaleGeneration`] when the coordinator holds a newer
    /// incarnation for this worker; transport errors from the RPC layer.
    pub fn join(&mut self, worker: u32, generation: u64) -> RlResult<u64> {
        let mut w = ByteWriter::new();
        w.put_u32(worker);
        w.put_u64(generation);
        let resp = self.rpc.call(coord_method::JOIN, &w.into_bytes(), self.deadline)?;
        let mut r = ByteReader::new(&resp);
        let epoch = r.get_u64()?;
        r.expect_end()?;
        Ok(epoch)
    }

    /// Announces a clean departure.
    ///
    /// # Errors
    ///
    /// Transport/deadline/protocol errors from the RPC layer.
    pub fn leave(&mut self, worker: u32) -> RlResult<()> {
        let mut w = ByteWriter::new();
        w.put_u32(worker);
        self.rpc.call(coord_method::LEAVE, &w.into_bytes(), self.deadline)?;
        Ok(())
    }

    /// Fetches the coordinator's current membership view.
    ///
    /// # Errors
    ///
    /// Transport/deadline/protocol errors from the RPC layer.
    pub fn get_membership(&mut self) -> RlResult<MembershipView> {
        let resp = self.rpc.call(coord_method::GET_MEMBERSHIP, &[], self.deadline)?;
        let mut r = ByteReader::new(&resp);
        let view = get_membership(&mut r)?;
        r.expect_end()?;
        Ok(view)
    }

    /// Fetches the coordinator's plain-text cluster telemetry report.
    ///
    /// # Errors
    ///
    /// Transport/deadline/protocol errors from the RPC layer.
    pub fn get_telemetry(&mut self) -> RlResult<String> {
        let resp = self.rpc.call(coord_method::GET_TELEMETRY, &[], self.deadline)?;
        let mut r = ByteReader::new(&resp);
        let text = r.get_str()?;
        r.expect_end()?;
        Ok(text)
    }

    /// Ships this process's span buffer to the coordinator for the
    /// merged cluster trace.
    ///
    /// # Errors
    ///
    /// Transport/deadline/protocol errors from the RPC layer.
    pub fn push_trace(&mut self, process: &str, dump: &TraceDump) -> RlResult<()> {
        let mut w = ByteWriter::new();
        w.put_str(process);
        put_trace_dump(&mut w, dump);
        self.rpc.call(coord_method::PUSH_TRACE, &w.into_bytes(), self.deadline)?;
        Ok(())
    }

    /// Fetches the learner's latest checkpoint over the wire.
    ///
    /// # Errors
    ///
    /// [`RlError::Checkpoint`] before
    /// the first publish; transport errors from the RPC layer.
    pub fn get_checkpoint(&mut self) -> RlResult<LearnerCheckpoint> {
        let resp = self.rpc.call(coord_method::GET_CHECKPOINT, &[], self.deadline)?;
        let mut r = ByteReader::new(&resp);
        let c = get_checkpoint(&mut r)?;
        r.expect_end()?;
        Ok(c)
    }
}
