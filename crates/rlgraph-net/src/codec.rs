//! Binary encodings for the values rlgraph ships across processes:
//! tensors, spaces, transitions/sample batches, weight snapshots, learner
//! checkpoints, and the unified error taxonomy.
//!
//! Encodings are little-endian, fixed-layout element streams with no
//! per-element tags or escaping — on little-endian hosts the element
//! loops compile down to straight buffer copies, so a tensor's trip
//! through the codec costs two memcpy-shaped passes and no intermediate
//! text. Every decoder is bounds-checked and returns
//! [`RlError::Protocol`] on malformed input; decoders never panic on
//! attacker-controlled bytes.

use crate::wire::{ByteReader, ByteWriter};
use rlgraph_core::RlError;
use rlgraph_core::RlResult;
use rlgraph_dist::LearnerCheckpoint;
use rlgraph_dist::WeightsSnapshot;
use rlgraph_memory::Transition;
use rlgraph_spaces::{Space, SpaceKind};
use rlgraph_tensor::{DType, Tensor};

pub mod quant;
pub mod v2;

pub use quant::{
    bf16_bits_to_f32, f16_bits_to_f32, f32_to_bf16_bits, f32_to_f16_bits, get_f32_column,
    i8_scale_for, put_f32_column, TensorEnc,
};
pub use v2::{
    dequantized_snapshot, get_snapshot_delta, get_trajectory_v2, put_snapshot_delta,
    put_snapshot_enc, put_tensor_enc, put_trajectory_v2, DELTA_CHUNK_ELEMS,
};

// The byte-level compression stage lives beside the frame codec in
// `rlgraph-reactor` (one home shared by both RPC stacks, like the wire
// and frame modules); re-exported here so all three compression stages
// — quantize, delta, LZ — compose from one import path.
pub use rlgraph_reactor::compress::{compress, decompress, LzEncoder, COMPRESS_OVERHEAD};

/// Which v2 encodings (DESIGN.md §14) a client asks its peers to apply
/// on top of the v1 wire forms. The learner always keeps f32 master
/// weights; encodings only change what crosses the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecProfile {
    /// Encoding for weight-snapshot tensors.
    pub weights: TensorEnc,
    /// Delta weight sync against the last-acked snapshot.
    pub delta: bool,
    /// Encoding for state tensors in trajectory inserts and sampled
    /// batches (actions/rewards/priorities always ship exact).
    pub states: TensorEnc,
    /// Columnar (v2) trajectory inserts.
    pub columnar: bool,
}

impl CodecProfile {
    /// Exact and uncompressed: no quantization, no deltas, no columns,
    /// no frame-layer LZ.
    pub const PLAIN: CodecProfile = CodecProfile {
        weights: TensorEnc::F32,
        delta: false,
        states: TensorEnc::F32,
        columnar: false,
    };

    /// The default compressed profile: f16 weights with delta sync,
    /// i8+scale state columns, columnar inserts. Weights stay f16
    /// because quantization error compounds through the optimizer;
    /// observations tolerate 1/255 resolution (Ape-X ships u8 frames),
    /// so states take the 4x encoding. Actions, rewards and priorities
    /// always ship exact.
    pub const COMPRESSED: CodecProfile = CodecProfile {
        weights: TensorEnc::F16,
        delta: true,
        states: TensorEnc::I8Scale,
        columnar: true,
    };

    /// Whether this is [`CodecProfile::PLAIN`].
    pub fn is_plain(self) -> bool {
        self == Self::PLAIN
    }
}

impl Default for CodecProfile {
    fn default() -> Self {
        Self::PLAIN
    }
}

// ----- dtype -----

fn dtype_tag(d: DType) -> u8 {
    match d {
        DType::F32 => 0,
        DType::I64 => 1,
        DType::Bool => 2,
    }
}

fn dtype_from_tag(t: u8) -> RlResult<DType> {
    match t {
        0 => Ok(DType::F32),
        1 => Ok(DType::I64),
        2 => Ok(DType::Bool),
        other => Err(RlError::Protocol(format!("unknown dtype tag {}", other))),
    }
}

// ----- tensor -----

/// Appends a tensor: `[dtype u8][rank u8][dim u32 …][raw elements]`.
pub fn put_tensor(w: &mut ByteWriter, t: &Tensor) {
    w.put_u8(dtype_tag(t.dtype()));
    w.put_u8(t.rank() as u8);
    for &d in t.shape() {
        w.put_u32(d as u32);
    }
    match t.dtype() {
        DType::F32 => {
            for &v in t.as_f32().expect("dtype checked") {
                w.put_f32(v);
            }
        }
        DType::I64 => {
            for &v in t.as_i64().expect("dtype checked") {
                w.put_i64(v);
            }
        }
        DType::Bool => {
            for &v in t.as_bool().expect("dtype checked") {
                w.put_u8(v as u8);
            }
        }
    }
}

/// Reads a tensor written by [`put_tensor`] or [`put_tensor_enc`];
/// quantized forms (tags 3–5) dequantize to f32.
///
/// # Errors
///
/// [`RlError::Protocol`] on truncation, an unknown dtype tag, or a
/// boolean byte that is neither 0 nor 1.
pub fn get_tensor(r: &mut ByteReader<'_>) -> RlResult<Tensor> {
    let tag = r.get_u8()?;
    let rank = r.get_u8()? as usize;
    let mut shape = Vec::with_capacity(rank);
    for _ in 0..rank {
        shape.push(r.get_u32()? as usize);
    }
    let n = shape.iter().try_fold(1usize, |a, &d| a.checked_mul(d)).ok_or_else(|| {
        RlError::Protocol(format!("tensor shape {:?} overflows element count", shape))
    })?;
    if let Some(enc) = TensorEnc::from_quant_tag(tag) {
        let vals = get_f32_column(r, n, enc)?;
        return Tensor::from_vec(vals, &shape)
            .map_err(|e| RlError::Protocol(format!("tensor rebuild failed: {}", e.message())));
    }
    let dtype = dtype_from_tag(tag)?;
    let bytes = r.get_bytes(n.checked_mul(dtype.size_bytes()).ok_or_else(|| {
        RlError::Protocol(format!("tensor payload of {} elements overflows", n))
    })?)?;
    let tensor = match dtype {
        DType::F32 => Tensor::from_vec(
            bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().expect("4"))).collect(),
            &shape,
        ),
        DType::I64 => Tensor::from_vec_i64(
            bytes.chunks_exact(8).map(|c| i64::from_le_bytes(c.try_into().expect("8"))).collect(),
            &shape,
        ),
        DType::Bool => {
            let mut vals = Vec::with_capacity(n);
            for &b in bytes {
                match b {
                    0 => vals.push(false),
                    1 => vals.push(true),
                    other => {
                        return Err(RlError::Protocol(format!("bool byte 0x{:02x}", other)));
                    }
                }
            }
            Tensor::from_vec_bool(vals, &shape)
        }
    };
    tensor.map_err(|e| RlError::Protocol(format!("tensor rebuild failed: {}", e.message())))
}

// ----- space -----

/// Appends a space: recursive `[tag u8]…` plus the batch/time rank flags
/// on the outermost space.
pub fn put_space(w: &mut ByteWriter, s: &Space) {
    w.put_u8(s.has_batch_rank() as u8);
    w.put_u8(s.has_time_rank() as u8);
    put_space_kind(w, s);
}

fn put_space_kind(w: &mut ByteWriter, s: &Space) {
    match s.kind() {
        SpaceKind::Float { shape, low, high } => {
            w.put_u8(0);
            put_shape(w, shape);
            w.put_f32(*low);
            w.put_f32(*high);
        }
        SpaceKind::Int { shape, num_categories } => {
            w.put_u8(1);
            put_shape(w, shape);
            w.put_i64(*num_categories);
        }
        SpaceKind::Bool { shape } => {
            w.put_u8(2);
            put_shape(w, shape);
        }
        SpaceKind::Dict(entries) => {
            w.put_u8(3);
            w.put_u32(entries.len() as u32);
            for (name, sub) in entries {
                w.put_str(name);
                put_space_kind(w, sub);
            }
        }
        SpaceKind::Tuple(entries) => {
            w.put_u8(4);
            w.put_u32(entries.len() as u32);
            for sub in entries {
                put_space_kind(w, sub);
            }
        }
    }
}

fn put_shape(w: &mut ByteWriter, shape: &[usize]) {
    w.put_u8(shape.len() as u8);
    for &d in shape {
        w.put_u32(d as u32);
    }
}

/// Reads a space written by [`put_space`].
///
/// # Errors
///
/// [`RlError::Protocol`] on truncation or an unknown structure tag.
pub fn get_space(r: &mut ByteReader<'_>) -> RlResult<Space> {
    let batch = r.get_u8()? != 0;
    let time = r.get_u8()? != 0;
    let mut s = get_space_kind(r, 0)?;
    if batch {
        s = s.with_batch_rank();
    }
    if time {
        s = s.with_time_rank();
    }
    Ok(s)
}

fn get_space_kind(r: &mut ByteReader<'_>, depth: u8) -> RlResult<Space> {
    if depth > 16 {
        return Err(RlError::Protocol("space nesting deeper than 16".into()));
    }
    match r.get_u8()? {
        0 => {
            let shape = get_shape(r)?;
            let low = r.get_f32()?;
            let high = r.get_f32()?;
            Ok(Space::float_box_bounded(&shape, low, high))
        }
        1 => {
            let shape = get_shape(r)?;
            let n = r.get_i64()?;
            Ok(Space::int_box_shaped(&shape, n))
        }
        2 => Ok(Space::bool_box_shaped(&get_shape(r)?)),
        3 => {
            let n = r.get_u32()? as usize;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let name = r.get_str()?;
                entries.push((name, get_space_kind(r, depth + 1)?));
            }
            Ok(Space::dict(entries))
        }
        4 => {
            let n = r.get_u32()? as usize;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push(get_space_kind(r, depth + 1)?);
            }
            Ok(Space::tuple(entries))
        }
        other => Err(RlError::Protocol(format!("unknown space tag {}", other))),
    }
}

fn get_shape(r: &mut ByteReader<'_>) -> RlResult<Vec<usize>> {
    let rank = r.get_u8()? as usize;
    let mut shape = Vec::with_capacity(rank);
    for _ in 0..rank {
        shape.push(r.get_u32()? as usize);
    }
    Ok(shape)
}

// ----- transitions / sample batches -----

/// Appends one transition record.
pub fn put_transition(w: &mut ByteWriter, t: &Transition) {
    put_tensor(w, &t.state);
    put_tensor(w, &t.action);
    w.put_f32(t.reward);
    put_tensor(w, &t.next_state);
    w.put_u8(t.terminal as u8);
}

/// Reads a transition written by [`put_transition`].
///
/// # Errors
///
/// [`RlError::Protocol`] on malformed input.
pub fn get_transition(r: &mut ByteReader<'_>) -> RlResult<Transition> {
    let state = get_tensor(r)?;
    let action = get_tensor(r)?;
    let reward = r.get_f32()?;
    let next_state = get_tensor(r)?;
    let terminal = r.get_u8()? != 0;
    Ok(Transition::new(state, action, reward, next_state, terminal))
}

/// Appends a trajectory batch: transitions plus worker-side priorities,
/// the payload of a replay-shard insert.
pub fn put_trajectory(w: &mut ByteWriter, transitions: &[Transition], priorities: &[f32]) {
    w.put_u32(transitions.len() as u32);
    for t in transitions {
        put_transition(w, t);
    }
    w.put_f32_slice(priorities);
}

/// Reads a trajectory batch written by [`put_trajectory`].
///
/// # Errors
///
/// [`RlError::Protocol`] on malformed input or a priority count that
/// does not match the transition count.
pub fn get_trajectory(r: &mut ByteReader<'_>) -> RlResult<(Vec<Transition>, Vec<f32>)> {
    let n = r.get_u32()? as usize;
    let mut transitions = Vec::with_capacity(n.min(65_536));
    for _ in 0..n {
        transitions.push(get_transition(r)?);
    }
    let priorities = r.get_f32_vec()?;
    if priorities.len() != transitions.len() {
        return Err(RlError::Protocol(format!(
            "{} priorities for {} transitions",
            priorities.len(),
            transitions.len()
        )));
    }
    Ok((transitions, priorities))
}

// ----- named weights / snapshots -----

/// Appends a named weight list (`export_weights` output).
pub fn put_weights(w: &mut ByteWriter, weights: &[(String, Tensor)]) {
    w.put_u32(weights.len() as u32);
    for (name, t) in weights {
        w.put_str(name);
        put_tensor(w, t);
    }
}

/// Reads a named weight list written by [`put_weights`].
///
/// # Errors
///
/// [`RlError::Protocol`] on malformed input.
pub fn get_weights(r: &mut ByteReader<'_>) -> RlResult<Vec<(String, Tensor)>> {
    let n = r.get_u32()? as usize;
    let mut weights = Vec::with_capacity(n.min(65_536));
    for _ in 0..n {
        let name = r.get_str()?;
        weights.push((name, get_tensor(r)?));
    }
    Ok(weights)
}

/// Appends a versioned weight snapshot (the parameter-server payload).
pub fn put_snapshot(w: &mut ByteWriter, snap: &WeightsSnapshot) {
    w.put_u64(snap.version);
    put_weights(w, &snap.weights);
}

/// Reads a snapshot written by [`put_snapshot`].
///
/// # Errors
///
/// [`RlError::Protocol`] on malformed input.
pub fn get_snapshot(r: &mut ByteReader<'_>) -> RlResult<WeightsSnapshot> {
    let version = r.get_u64()?;
    let weights = get_weights(r)?;
    Ok(WeightsSnapshot { version, weights })
}

// ----- learner checkpoints -----

/// Appends a learner checkpoint in binary form (an order of magnitude
/// denser than its JSON document; the JSON path remains for on-disk
/// artifacts).
pub fn put_checkpoint(w: &mut ByteWriter, c: &LearnerCheckpoint) {
    w.put_u64(c.updates);
    w.put_u64(c.weight_version);
    put_weights(w, &c.variables);
    w.put_u32(c.shard_watermarks.len() as u32);
    for &m in &c.shard_watermarks {
        w.put_u64(m);
    }
}

/// Reads a checkpoint written by [`put_checkpoint`].
///
/// # Errors
///
/// [`RlError::Protocol`] on malformed input.
pub fn get_checkpoint(r: &mut ByteReader<'_>) -> RlResult<LearnerCheckpoint> {
    let updates = r.get_u64()?;
    let weight_version = r.get_u64()?;
    let variables = get_weights(r)?;
    let n = r.get_u32()? as usize;
    let mut shard_watermarks = Vec::with_capacity(n.min(65_536));
    for _ in 0..n {
        shard_watermarks.push(r.get_u64()?);
    }
    Ok(LearnerCheckpoint { updates, weight_version, variables, shard_watermarks })
}

// ----- telemetry: trace context, metric snapshots, trace dumps -----

// The trace-context and error codecs moved down into
// `rlgraph-reactor::codec` so the mux protocol can carry traces and
// typed failures without depending on the tensor stack; re-exported to
// keep `rlgraph_net::codec::...` paths working.
pub use rlgraph_reactor::codec::{get_trace_context, put_trace_context};

fn put_f64(w: &mut ByteWriter, v: f64) {
    w.put_u64(v.to_bits());
}

fn get_f64(r: &mut ByteReader<'_>) -> RlResult<f64> {
    Ok(f64::from_bits(r.get_u64()?))
}

/// Appends a metrics snapshot (the heartbeat-piggybacked telemetry
/// payload): capture timestamp, counters, gauges, and histogram
/// summaries, each as length-prefixed `(name, value)` lists.
pub fn put_metrics_snapshot(w: &mut ByteWriter, s: &rlgraph_obs::MetricsSnapshot) {
    w.put_u64(s.taken_at_us);
    w.put_u32(s.counters.len() as u32);
    for (name, v) in &s.counters {
        w.put_str(name);
        w.put_u64(*v);
    }
    w.put_u32(s.gauges.len() as u32);
    for (name, v) in &s.gauges {
        w.put_str(name);
        put_f64(w, *v);
    }
    w.put_u32(s.histograms.len() as u32);
    for (name, h) in &s.histograms {
        w.put_str(name);
        w.put_u64(h.count);
        put_f64(w, h.mean);
        put_f64(w, h.p50);
        put_f64(w, h.p95);
        put_f64(w, h.p99);
        put_f64(w, h.max);
    }
}

/// Reads a snapshot written by [`put_metrics_snapshot`].
///
/// # Errors
///
/// [`RlError::Protocol`] on malformed input.
pub fn get_metrics_snapshot(r: &mut ByteReader<'_>) -> RlResult<rlgraph_obs::MetricsSnapshot> {
    let taken_at_us = r.get_u64()?;
    let n = r.get_u32()? as usize;
    let mut counters = Vec::with_capacity(n.min(65_536));
    for _ in 0..n {
        let name = r.get_str()?;
        counters.push((name, r.get_u64()?));
    }
    let n = r.get_u32()? as usize;
    let mut gauges = Vec::with_capacity(n.min(65_536));
    for _ in 0..n {
        let name = r.get_str()?;
        gauges.push((name, get_f64(r)?));
    }
    let n = r.get_u32()? as usize;
    let mut histograms = Vec::with_capacity(n.min(65_536));
    for _ in 0..n {
        let name = r.get_str()?;
        histograms.push((
            name,
            rlgraph_obs::HistogramSummary {
                count: r.get_u64()?,
                mean: get_f64(r)?,
                p50: get_f64(r)?,
                p95: get_f64(r)?,
                p99: get_f64(r)?,
                max: get_f64(r)?,
            },
        ));
    }
    Ok(rlgraph_obs::MetricsSnapshot { taken_at_us, counters, gauges, histograms })
}

/// Appends a trace dump (a worker's whole span buffer, shipped to the
/// coordinator for the merged cluster trace).
pub fn put_trace_dump(w: &mut ByteWriter, d: &rlgraph_obs::TraceDump) {
    w.put_u32(d.tracks.len() as u32);
    for t in &d.tracks {
        w.put_str(t);
    }
    w.put_u32(d.events.len() as u32);
    for ev in &d.events {
        w.put_str(&ev.name);
        w.put_u32(ev.track);
        w.put_u64(ev.ts_us);
        match &ev.kind {
            rlgraph_obs::DumpKind::Complete { dur_us } => {
                w.put_u8(0);
                w.put_u64(*dur_us);
            }
            rlgraph_obs::DumpKind::Instant => w.put_u8(1),
            rlgraph_obs::DumpKind::Counter { value } => {
                w.put_u8(2);
                put_f64(w, *value);
            }
        }
        w.put_u64(ev.flow_in);
        w.put_u64(ev.flow_out);
    }
    w.put_u64(d.dropped);
}

/// Reads a dump written by [`put_trace_dump`].
///
/// # Errors
///
/// [`RlError::Protocol`] on malformed input.
pub fn get_trace_dump(r: &mut ByteReader<'_>) -> RlResult<rlgraph_obs::TraceDump> {
    let n = r.get_u32()? as usize;
    let mut tracks = Vec::with_capacity(n.min(65_536));
    for _ in 0..n {
        tracks.push(r.get_str()?);
    }
    let n = r.get_u32()? as usize;
    let mut events = Vec::with_capacity(n.min(65_536));
    for _ in 0..n {
        let name = r.get_str()?;
        let track = r.get_u32()?;
        let ts_us = r.get_u64()?;
        let kind = match r.get_u8()? {
            0 => rlgraph_obs::DumpKind::Complete { dur_us: r.get_u64()? },
            1 => rlgraph_obs::DumpKind::Instant,
            2 => rlgraph_obs::DumpKind::Counter { value: get_f64(r)? },
            other => return Err(RlError::Protocol(format!("unknown dump-event tag {}", other))),
        };
        let flow_in = r.get_u64()?;
        let flow_out = r.get_u64()?;
        events.push(rlgraph_obs::DumpEvent { name, track, ts_us, kind, flow_in, flow_out });
    }
    let dropped = r.get_u64()?;
    Ok(rlgraph_obs::TraceDump { tracks, events, dropped })
}

/// Appends a [`MembershipView`](rlgraph_dist::MembershipView): the
/// epoch followed by `(member, generation)` pairs for every alive
/// member. `alive` is reconstructed from the pairs on read.
pub fn put_membership(w: &mut ByteWriter, view: &rlgraph_dist::MembershipView) {
    w.put_u64(view.epoch);
    w.put_u32(view.generations.len() as u32);
    for &(id, generation) in &view.generations {
        w.put_u32(id);
        w.put_u64(generation);
    }
}

/// Reads a view written by [`put_membership`].
///
/// # Errors
///
/// [`RlError::Protocol`] on malformed input.
pub fn get_membership(r: &mut ByteReader<'_>) -> RlResult<rlgraph_dist::MembershipView> {
    let epoch = r.get_u64()?;
    let n = r.get_u32()? as usize;
    let mut generations = Vec::with_capacity(n.min(65_536));
    for _ in 0..n {
        generations.push((r.get_u32()?, r.get_u64()?));
    }
    let alive = generations.iter().map(|&(id, _)| id).collect();
    Ok(rlgraph_dist::MembershipView { epoch, alive, generations })
}

// ----- errors -----

// Moved to `rlgraph-reactor::codec` (see note above); re-exported here.
pub use rlgraph_reactor::codec::{get_rl_error, put_rl_error};

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_tensor(t: &Tensor) -> Tensor {
        let mut w = ByteWriter::new();
        put_tensor(&mut w, t);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = get_tensor(&mut r).unwrap();
        r.expect_end().unwrap();
        back
    }

    #[test]
    fn tensor_roundtrips_all_dtypes() {
        let f = Tensor::from_vec(vec![1.0, -2.5, f32::MIN_POSITIVE, 0.0], &[2, 2]).unwrap();
        assert_eq!(roundtrip_tensor(&f), f);
        let i = Tensor::from_vec_i64(vec![i64::MIN, -1, 0, i64::MAX], &[4]).unwrap();
        assert_eq!(roundtrip_tensor(&i), i);
        let b = Tensor::from_vec_bool(vec![true, false, true], &[3]).unwrap();
        assert_eq!(roundtrip_tensor(&b), b);
        let scalar = Tensor::scalar(4.25);
        assert_eq!(roundtrip_tensor(&scalar), scalar);
    }

    #[test]
    fn nan_payloads_survive_bitwise() {
        let t = Tensor::from_vec(vec![f32::NAN, f32::INFINITY, -0.0], &[3]).unwrap();
        let back = roundtrip_tensor(&t);
        let (a, b) = (t.as_f32().unwrap(), back.as_f32().unwrap());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn space_roundtrips_nested_containers() {
        let space = Space::dict([
            ("obs", Space::float_box_bounded(&[3, 4], -1.0, 1.0)),
            ("meta", Space::tuple([Space::int_box(6), Space::bool_box()])),
        ])
        .with_batch_rank();
        let mut w = ByteWriter::new();
        put_space(&mut w, &space);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(get_space(&mut r).unwrap(), space);
        r.expect_end().unwrap();
    }

    #[test]
    fn trajectory_roundtrip_and_mismatch_rejection() {
        let ts: Vec<Transition> = (0..3)
            .map(|i| {
                Transition::new(
                    Tensor::full(&[2], i as f32),
                    Tensor::scalar_i64(i),
                    0.5 * i as f32,
                    Tensor::full(&[2], i as f32 + 1.0),
                    i == 2,
                )
            })
            .collect();
        let mut w = ByteWriter::new();
        put_trajectory(&mut w, &ts, &[1.0, 2.0, 3.0]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let (back_ts, back_ps) = get_trajectory(&mut r).unwrap();
        assert_eq!(back_ts, ts);
        assert_eq!(back_ps, vec![1.0, 2.0, 3.0]);

        let mut w = ByteWriter::new();
        put_trajectory(&mut w, &ts, &[1.0]); // wrong count
        let bytes = w.into_bytes();
        assert!(matches!(get_trajectory(&mut ByteReader::new(&bytes)), Err(RlError::Protocol(_))));
    }

    #[test]
    fn checkpoint_roundtrip() {
        let ckpt = LearnerCheckpoint {
            updates: 31,
            weight_version: 4,
            variables: vec![
                ("policy/w".into(), Tensor::from_vec(vec![0.25; 6], &[2, 3]).unwrap()),
                ("adam/m".into(), Tensor::from_vec(vec![-1.0, 1.0], &[2]).unwrap()),
            ],
            shard_watermarks: vec![10, 20, 30],
        };
        let mut w = ByteWriter::new();
        put_checkpoint(&mut w, &ckpt);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(get_checkpoint(&mut r).unwrap(), ckpt);
        r.expect_end().unwrap();
    }

    #[test]
    fn membership_roundtrips() {
        let view = rlgraph_dist::MembershipView {
            epoch: 42,
            alive: vec![0, 2, 5],
            generations: vec![(0, 1), (2, 3), (5, 1)],
        };
        let mut w = ByteWriter::new();
        put_membership(&mut w, &view);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = get_membership(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back.epoch, view.epoch);
        assert_eq!(back.alive, view.alive);
        assert_eq!(back.generations, view.generations);
    }

    #[test]
    fn errors_roundtrip_with_severity_preserved() {
        let cases = [
            RlError::deadline("shard.sample"),
            RlError::MailboxFull { capacity: 256 },
            RlError::QueueFull { capacity: 64 },
            RlError::Shed,
            RlError::Shutdown,
            RlError::disconnected("learner"),
            RlError::Exec("nan loss".into()),
            RlError::Checkpoint("short read".into()),
            RlError::QuorumLost { healthy: 1, required: 2 },
            RlError::ActorCrashed { actor: "w3".into(), reason: "panic".into() },
            RlError::Io { kind: std::io::ErrorKind::TimedOut, message: "slow".into() },
            RlError::Protocol("bad magic".into()),
            RlError::RetriesExhausted {
                attempts: 4,
                last: Box::new(RlError::MailboxFull { capacity: 8 }),
            },
            RlError::Core(rlgraph_core::CoreError::new("build failed")),
            RlError::StaleGeneration { member: 3, held: 7, presented: 2 },
        ];
        for e in cases {
            let mut w = ByteWriter::new();
            put_rl_error(&mut w, &e);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let back = get_rl_error(&mut r).unwrap();
            r.expect_end().unwrap();
            assert_eq!(back, e);
            assert_eq!(back.severity(), e.severity());
        }
    }

    #[test]
    fn trace_context_roundtrips_and_tolerates_newer_writers() {
        let ctx = rlgraph_obs::TraceContext { trace_id: 0xDEAD_BEEF, span_id: 7, flags: 1 };
        let mut w = ByteWriter::new();
        put_trace_context(&mut w, &ctx);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(get_trace_context(&mut r).unwrap(), ctx);
        r.expect_end().unwrap();

        // A "newer" writer appends extra fields inside the blob: the
        // decoder must skip them and keep the stream aligned.
        let mut w = ByteWriter::new();
        w.put_u8(1 + 8 + 8 + 1 + 4); // len includes 4 unknown bytes
        w.put_u8(1); // version
        w.put_u64(ctx.trace_id);
        w.put_u64(ctx.span_id);
        w.put_u8(ctx.flags);
        w.put_u32(0xAAAA_AAAA); // future field
        w.put_u16(0x1234); // unrelated trailing stream data
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(get_trace_context(&mut r).unwrap(), ctx);
        assert_eq!(r.get_u16().unwrap(), 0x1234, "stream stays aligned past the blob");
    }

    #[test]
    fn metrics_snapshot_roundtrips() {
        let snap = rlgraph_obs::MetricsSnapshot {
            taken_at_us: 123_456,
            counters: vec![("frames".into(), 99), ("net.bytes_tx".into(), u64::MAX)],
            gauges: vec![("depth".into(), -2.5), ("nanish".into(), f64::NAN)],
            histograms: vec![(
                "rpc_us".into(),
                rlgraph_obs::HistogramSummary {
                    count: 10,
                    mean: 5.5,
                    p50: 5.0,
                    p95: 9.0,
                    p99: 9.9,
                    max: 10.0,
                },
            )],
        };
        let mut w = ByteWriter::new();
        put_metrics_snapshot(&mut w, &snap);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = get_metrics_snapshot(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back.taken_at_us, snap.taken_at_us);
        assert_eq!(back.counters, snap.counters);
        assert_eq!(back.histograms, snap.histograms);
        // NaN survives bitwise, so compare gauges by bits.
        for ((n1, v1), (n2, v2)) in back.gauges.iter().zip(&snap.gauges) {
            assert_eq!(n1, n2);
            assert_eq!(v1.to_bits(), v2.to_bits());
        }
    }

    #[test]
    fn trace_dump_roundtrips_all_event_kinds() {
        let dump = rlgraph_obs::TraceDump {
            tracks: vec!["worker-0".into(), "rpc".into()],
            events: vec![
                rlgraph_obs::DumpEvent {
                    name: "collect".into(),
                    track: 0,
                    ts_us: 10,
                    kind: rlgraph_obs::DumpKind::Complete { dur_us: 400 },
                    flow_in: 0,
                    flow_out: 7,
                },
                rlgraph_obs::DumpEvent {
                    name: "mark".into(),
                    track: 1,
                    ts_us: 20,
                    kind: rlgraph_obs::DumpKind::Instant,
                    flow_in: 7,
                    flow_out: 0,
                },
                rlgraph_obs::DumpEvent {
                    name: "depth".into(),
                    track: 1,
                    ts_us: 30,
                    kind: rlgraph_obs::DumpKind::Counter { value: 3.25 },
                    flow_in: 0,
                    flow_out: 0,
                },
            ],
            dropped: 5,
        };
        let mut w = ByteWriter::new();
        put_trace_dump(&mut w, &dump);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(get_trace_dump(&mut r).unwrap(), dump);
        r.expect_end().unwrap();
    }

    #[test]
    fn unknown_io_kind_collapses_but_stays_fatal() {
        let e =
            RlError::Io { kind: std::io::ErrorKind::PermissionDenied, message: "denied".into() };
        let mut w = ByteWriter::new();
        put_rl_error(&mut w, &e);
        let bytes = w.into_bytes();
        let back = get_rl_error(&mut ByteReader::new(&bytes)).unwrap();
        assert!(matches!(back, RlError::Io { kind: std::io::ErrorKind::Other, .. }));
        assert!(back.is_fatal());
    }
}
