//! v2 wire forms: quantized tensors, columnar trajectories, and delta
//! weight snapshots (DESIGN.md §14).
//!
//! Which form crosses the wire is the client's choice, stated in each
//! request from its [`CodecProfile`](super::CodecProfile) — every peer
//! is this build and decodes all of them — and every decoder here
//! returns a typed [`RlError::Protocol`] on malformed input: bytes from
//! a socket are never trusted.
//!
//! # Columnar trajectories
//!
//! The v1 trajectory form repeats a full tensor header (dtype, rank,
//! dims) per field per transition and interleaves unrelated streams,
//! which both wastes bytes and destroys the similarity the LZ stage
//! feeds on. The v2 form writes the shape headers once and then each
//! field as one contiguous column (`states`, `next_states`, `actions`,
//! `rewards`, `terminals` as a bitset, `priorities`), with the f32
//! state columns optionally quantized. `next_state[i]` is usually
//! `state[i+1]`, so the two state columns are near-copies — exactly the
//! long-range redundancy the frame-level LZ matcher collapses.
//!
//! # Delta snapshots
//!
//! The coordinator knows (per subscriber) the exact weights a worker
//! holds: the *dequantized image* of the last snapshot it acked. A
//! delta ships, per variable, only the chunks of `DELTA_CHUNK_ELEMS`
//! elements whose dequantized values changed (changed-chunk bitmap +
//! packed payload). The scheme is drift-free by construction: the
//! payload bytes are produced by the same deterministic conversions
//! that define the dequantized image, so after applying a delta the
//! worker holds bit-for-bit the snapshot the coordinator recorded for
//! it. Any mismatch a peer *can* detect (base-version gap, structural
//! change) is a typed error, and the caller falls back to a full
//! snapshot.

use super::quant::{f32_to_bf16_bits, f32_to_f16_bits, get_f32_column, i8_scale_for, TensorEnc};
use super::{get_tensor, put_tensor};
use crate::wire::{ByteReader, ByteWriter};
use rlgraph_core::{RlError, RlResult};
use rlgraph_dist::WeightsSnapshot;
use rlgraph_memory::Transition;
use rlgraph_tensor::{DType, Tensor};

// ----- encoded tensors -----

/// Appends a tensor under `enc`, extending the [`put_tensor`] tag
/// namespace (f16 = 3, bf16 = 4, i8-with-scale = 5). Non-f32 tensors —
/// and, for [`TensorEnc::I8Scale`], tensors with non-finite values
/// (an infinite max poisons the scale) — ship verbatim as v1 forms.
/// [`get_tensor`] decodes every tag, dequantizing to f32.
pub fn put_tensor_enc(w: &mut ByteWriter, t: &Tensor, enc: TensorEnc) {
    let vals = match t.as_f32() {
        Ok(v) if enc != TensorEnc::F32 => v,
        _ => return put_tensor(w, t),
    };
    if enc == TensorEnc::I8Scale && !vals.iter().all(|v| v.is_finite()) {
        return put_tensor(w, t);
    }
    w.put_u8(enc.tag());
    w.put_u8(t.rank() as u8);
    for &d in t.shape() {
        w.put_u32(d as u32);
    }
    super::quant::put_f32_column(w, vals, enc);
}

/// The f32 values a peer reconstructs when it decodes `vals` encoded
/// under `enc` — i.e. `decode(encode(vals))` without the wire trip.
/// Mirrors [`put_tensor_enc`]'s non-finite i8 fallback.
fn dequantize_vals(vals: &[f32], enc: TensorEnc) -> Vec<f32> {
    match enc {
        TensorEnc::F32 => vals.to_vec(),
        TensorEnc::F16 => {
            vals.iter().map(|&v| super::quant::f16_bits_to_f32(f32_to_f16_bits(v))).collect()
        }
        TensorEnc::Bf16 => {
            vals.iter().map(|&v| super::quant::bf16_bits_to_f32(f32_to_bf16_bits(v))).collect()
        }
        TensorEnc::I8Scale => {
            if !vals.iter().all(|v| v.is_finite()) {
                return vals.to_vec();
            }
            let scale = i8_scale_for(vals);
            let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
            vals.iter().map(|&v| ((v * inv).round_ties_even() as i8) as f32 * scale).collect()
        }
    }
}

/// The dequantized image of `snap` under `enc`: exactly the weights a
/// peer holds after decoding the encoded wire form of `snap`. The
/// coordinator records this per subscriber and diffs against it.
pub fn dequantized_snapshot(snap: &WeightsSnapshot, enc: TensorEnc) -> WeightsSnapshot {
    let weights = snap
        .weights
        .iter()
        .map(|(name, t)| {
            let deq = match t.as_f32() {
                Ok(vals) if enc != TensorEnc::F32 => {
                    Tensor::from_vec(dequantize_vals(vals, enc), t.shape())
                        .expect("same shape as source tensor")
                }
                _ => t.clone(),
            };
            (name.clone(), deq)
        })
        .collect();
    WeightsSnapshot { version: snap.version, weights }
}

/// Appends a full snapshot with every f32 variable encoded under `enc`.
/// Decodable by the plain [`get_snapshot`](super::get_snapshot).
pub fn put_snapshot_enc(w: &mut ByteWriter, snap: &WeightsSnapshot, enc: TensorEnc) {
    w.put_u64(snap.version);
    w.put_u32(snap.weights.len() as u32);
    for (name, t) in &snap.weights {
        w.put_str(name);
        put_tensor_enc(w, t, enc);
    }
}

// ----- delta snapshots -----

/// Elements per delta chunk: the granularity of the changed-chunk
/// bitmap. 64 f32 elements = 256 bytes of payload per bitmap bit.
pub const DELTA_CHUNK_ELEMS: usize = 64;

const DELTA_UNCHANGED: u8 = 0;
const DELTA_FULL: u8 = 1;
const DELTA_CHUNKS: u8 = 2;

fn vals_equal_bitwise(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Appends a delta from `base` (the subscriber's current holdings — a
/// previously dequantized snapshot) to `snap`, encoding changed data
/// under `enc`:
/// `[base_version u64][version u64][enc u8][count u32]` then per
/// variable `[name][mode u8]` with mode 0 = unchanged, 1 = full tensor
/// ([`put_tensor_enc`] form), 2 = changed-chunk bitmap + packed payload.
///
/// # Errors
///
/// [`RlError::Protocol`] (before anything is written) if the variable
/// names don't line up between `base` and `snap` — the caller should
/// send a full snapshot instead.
pub fn put_snapshot_delta(
    w: &mut ByteWriter,
    base: &WeightsSnapshot,
    snap: &WeightsSnapshot,
    enc: TensorEnc,
) -> RlResult<()> {
    if base.weights.len() != snap.weights.len()
        || base.weights.iter().zip(&snap.weights).any(|((a, _), (b, _))| a != b)
    {
        return Err(RlError::Protocol("delta base has different variables".into()));
    }
    w.put_u64(base.version);
    w.put_u64(snap.version);
    w.put_u8(enc.tag());
    w.put_u32(snap.weights.len() as u32);
    for ((name, new), (_, held)) in snap.weights.iter().zip(&base.weights) {
        w.put_str(name);
        let (vals, held_vals) = match (new.as_f32(), held.as_f32()) {
            (Ok(v), Ok(h)) if new.shape() == held.shape() => (v, h),
            _ => {
                // Non-f32 or reshaped variable: full form (or nothing,
                // if it is verbatim-identical).
                if new == held {
                    w.put_u8(DELTA_UNCHANGED);
                } else {
                    w.put_u8(DELTA_FULL);
                    put_tensor_enc(w, new, enc);
                }
                continue;
            }
        };
        // The per-variable effective encoding (i8 refuses non-finite
        // tensors); a downgraded variable ships as a full v1 tensor so
        // the mode-2 payload stays uniformly `enc`.
        if enc == TensorEnc::I8Scale && !vals.iter().all(|v| v.is_finite()) {
            w.put_u8(DELTA_FULL);
            put_tensor_enc(w, new, enc);
            continue;
        }
        let deq = dequantize_vals(vals, enc);
        if vals_equal_bitwise(&deq, held_vals) {
            w.put_u8(DELTA_UNCHANGED);
            continue;
        }
        let chunks = deq.len().div_ceil(DELTA_CHUNK_ELEMS).max(1);
        let mut bitmap = vec![0u8; chunks.div_ceil(8)];
        let mut changed = 0usize;
        for (i, (d, h)) in
            deq.chunks(DELTA_CHUNK_ELEMS).zip(held_vals.chunks(DELTA_CHUNK_ELEMS)).enumerate()
        {
            if !vals_equal_bitwise(d, h) {
                bitmap[i / 8] |= 1 << (i % 8);
                changed += d.len();
            }
        }
        if changed == deq.len() {
            // Everything moved: the bitmap is pure overhead.
            w.put_u8(DELTA_FULL);
            put_tensor_enc(w, new, enc);
            continue;
        }
        w.put_u8(DELTA_CHUNKS);
        w.put_u8(new.rank() as u8);
        for &d in new.shape() {
            w.put_u32(d as u32);
        }
        for &b in &bitmap {
            w.put_u8(b);
        }
        // Payload: the encoded form of every changed chunk, in order.
        // i8 uses the *per-tensor* scale (written once) so the payload
        // dequantizes to exactly the values in `deq`.
        let scale = if enc == TensorEnc::I8Scale { i8_scale_for(vals) } else { 0.0 };
        if enc == TensorEnc::I8Scale {
            w.put_f32(scale);
        }
        let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
        for (i, chunk) in vals.chunks(DELTA_CHUNK_ELEMS).enumerate() {
            if bitmap[i / 8] & (1 << (i % 8)) == 0 {
                continue;
            }
            match enc {
                TensorEnc::F32 => {
                    for &v in chunk {
                        w.put_f32(v);
                    }
                }
                TensorEnc::F16 => {
                    for &v in chunk {
                        w.put_u16(f32_to_f16_bits(v));
                    }
                }
                TensorEnc::Bf16 => {
                    for &v in chunk {
                        w.put_u16(f32_to_bf16_bits(v));
                    }
                }
                TensorEnc::I8Scale => {
                    for &v in chunk {
                        w.put_u8((v * inv).round_ties_even() as i8 as u8);
                    }
                }
            }
        }
    }
    Ok(())
}

/// Applies a delta written by [`put_snapshot_delta`] to `base` (the
/// peer's current holdings), producing the new snapshot.
///
/// # Errors
///
/// [`RlError::Protocol`] if the delta's base version is not
/// `base.version` (a version gap — request a full snapshot), on any
/// structural mismatch, or on malformed input. Never panics.
pub fn get_snapshot_delta(
    r: &mut ByteReader<'_>,
    base: &WeightsSnapshot,
) -> RlResult<WeightsSnapshot> {
    let base_version = r.get_u64()?;
    if base_version != base.version {
        return Err(RlError::Protocol(format!(
            "delta against version {} but peer holds {}",
            base_version, base.version
        )));
    }
    let version = r.get_u64()?;
    let enc_tag = r.get_u8()?;
    let enc = TensorEnc::from_quant_tag(enc_tag)
        .or(if enc_tag == 0 { Some(TensorEnc::F32) } else { None })
        .ok_or_else(|| RlError::Protocol(format!("unknown dtype tag {}", enc_tag)))?;
    let count = r.get_u32()? as usize;
    if count != base.weights.len() {
        return Err(RlError::Protocol(format!(
            "delta carries {} variables, base has {}",
            count,
            base.weights.len()
        )));
    }
    let mut weights = Vec::with_capacity(count.min(65_536));
    for (held_name, held) in &base.weights {
        let name = r.get_str()?;
        if name != *held_name {
            return Err(RlError::Protocol(format!(
                "delta variable {:?} does not match held {:?}",
                name, held_name
            )));
        }
        let tensor = match r.get_u8()? {
            DELTA_UNCHANGED => held.clone(),
            DELTA_FULL => get_tensor(r)?,
            DELTA_CHUNKS => {
                let rank = r.get_u8()? as usize;
                let mut shape = Vec::with_capacity(rank.min(8));
                for _ in 0..rank {
                    shape.push(r.get_u32()? as usize);
                }
                if shape != held.shape() {
                    return Err(RlError::Protocol(format!(
                        "delta chunk shape {:?} does not match held {:?}",
                        shape,
                        held.shape()
                    )));
                }
                let held_vals = held.as_f32().map_err(|_| {
                    RlError::Protocol(format!("chunk delta for non-f32 variable {:?}", name))
                })?;
                let chunks = held_vals.len().div_ceil(DELTA_CHUNK_ELEMS).max(1);
                let mut bitmap = Vec::with_capacity(chunks.div_ceil(8));
                for _ in 0..chunks.div_ceil(8) {
                    bitmap.push(r.get_u8()?);
                }
                let changed: usize = held_vals
                    .chunks(DELTA_CHUNK_ELEMS)
                    .enumerate()
                    .filter(|(i, _)| bitmap[i / 8] & (1 << (i % 8)) != 0)
                    .map(|(_, c)| c.len())
                    .sum();
                let payload = get_f32_column(r, changed, enc)?;
                let mut vals = held_vals.to_vec();
                let mut off = 0usize;
                for (i, chunk) in vals.chunks_mut(DELTA_CHUNK_ELEMS).enumerate() {
                    if bitmap[i / 8] & (1 << (i % 8)) == 0 {
                        continue;
                    }
                    chunk.copy_from_slice(&payload[off..off + chunk.len()]);
                    off += chunk.len();
                }
                Tensor::from_vec(vals, &shape)
                    .map_err(|e| RlError::Protocol(format!("delta rebuild: {}", e.message())))?
            }
            other => {
                return Err(RlError::Protocol(format!("unknown delta mode {}", other)));
            }
        };
        weights.push((name, tensor));
    }
    Ok(WeightsSnapshot { version, weights })
}

// ----- columnar trajectories -----

/// Appends a trajectory batch in columnar form:
/// `[n u32][state shape][action dtype+shape][enc u8]` followed by the
/// `states`, `next_states`, `actions`, `rewards`, `terminals` (bitset),
/// and `priorities` columns. State columns are encoded under `enc`.
///
/// # Errors
///
/// [`RlError::Protocol`] (before anything is written) if the batch is
/// heterogeneous — states/next-states not all f32 of one shape, actions
/// not all one dtype and shape, or a priority-count mismatch. Callers
/// fall back to the v1 [`put_trajectory`](super::put_trajectory).
pub fn put_trajectory_v2(
    w: &mut ByteWriter,
    transitions: &[Transition],
    priorities: &[f32],
    enc: TensorEnc,
) -> RlResult<()> {
    let hetero = |what: &str| RlError::Protocol(format!("batch not columnar: {}", what));
    if priorities.len() != transitions.len() {
        return Err(hetero("priority count mismatch"));
    }
    let first = transitions.first().ok_or_else(|| hetero("empty batch"))?;
    let sshape = first.state.shape();
    let (adtype, ashape) = (first.action.dtype(), first.action.shape());
    for t in transitions {
        if t.state.dtype() != DType::F32
            || t.next_state.dtype() != DType::F32
            || t.state.shape() != sshape
            || t.next_state.shape() != sshape
        {
            return Err(hetero("state shapes or dtypes differ"));
        }
        if t.action.dtype() != adtype || t.action.shape() != ashape {
            return Err(hetero("action shapes or dtypes differ"));
        }
    }
    let n = transitions.len();
    w.put_u32(n as u32);
    w.put_u8(sshape.len() as u8);
    for &d in sshape {
        w.put_u32(d as u32);
    }
    w.put_u8(super::dtype_tag(adtype));
    w.put_u8(ashape.len() as u8);
    for &d in ashape {
        w.put_u32(d as u32);
    }
    w.put_u8(enc.tag());
    for get_state in
        [(|t: &Transition| &t.state) as fn(&Transition) -> &Tensor, |t: &Transition| &t.next_state]
    {
        let col: Vec<f32> = transitions
            .iter()
            .flat_map(|t| get_state(t).as_f32().expect("checked above").iter().copied())
            .collect();
        super::quant::put_f32_column(w, &col, enc);
    }
    match adtype {
        DType::F32 => {
            for t in transitions {
                for &v in t.action.as_f32().expect("checked above") {
                    w.put_f32(v);
                }
            }
        }
        DType::I64 => {
            for t in transitions {
                for &v in t.action.as_i64().expect("checked above") {
                    w.put_i64(v);
                }
            }
        }
        DType::Bool => {
            for t in transitions {
                for &v in t.action.as_bool().expect("checked above") {
                    w.put_u8(v as u8);
                }
            }
        }
    }
    for t in transitions {
        w.put_f32(t.reward);
    }
    let mut bits = vec![0u8; n.div_ceil(8)];
    for (i, t) in transitions.iter().enumerate() {
        if t.terminal {
            bits[i / 8] |= 1 << (i % 8);
        }
    }
    for &b in &bits {
        w.put_u8(b);
    }
    for &p in priorities {
        w.put_f32(p);
    }
    Ok(())
}

/// Reads a trajectory batch written by [`put_trajectory_v2`].
///
/// # Errors
///
/// [`RlError::Protocol`] on malformed input. Never panics.
pub fn get_trajectory_v2(r: &mut ByteReader<'_>) -> RlResult<(Vec<Transition>, Vec<f32>)> {
    let n = r.get_u32()? as usize;
    if n == 0 {
        return Err(RlError::Protocol("empty columnar batch".into()));
    }
    let sshape = read_shape(r)?;
    let adtype = super::dtype_from_tag(r.get_u8()?)?;
    let ashape = read_shape(r)?;
    let enc_tag = r.get_u8()?;
    let enc = TensorEnc::from_quant_tag(enc_tag)
        .or(if enc_tag == 0 { Some(TensorEnc::F32) } else { None })
        .ok_or_else(|| RlError::Protocol(format!("unknown dtype tag {}", enc_tag)))?;
    let selems = shape_elems(&sshape)?;
    let aelems = shape_elems(&ashape)?;
    let scount =
        n.checked_mul(selems).ok_or_else(|| RlError::Protocol("state column overflows".into()))?;
    let acount =
        n.checked_mul(aelems).ok_or_else(|| RlError::Protocol("action column overflows".into()))?;
    let states = get_f32_column(r, scount, enc)?;
    let next_states = get_f32_column(r, scount, enc)?;
    let actions: Vec<Tensor> = match adtype {
        DType::F32 => {
            let col = get_f32_column(r, acount, TensorEnc::F32)?;
            col.chunks(aelems.max(1))
                .take(n)
                .map(|c| Tensor::from_vec(c.to_vec(), &ashape))
                .collect::<Result<_, _>>()
                .map_err(|e| RlError::Protocol(format!("action rebuild: {}", e.message())))?
        }
        DType::I64 => {
            let bytes = r.get_bytes(
                acount
                    .checked_mul(8)
                    .ok_or_else(|| RlError::Protocol("action column overflows".into()))?,
            )?;
            let col: Vec<i64> = bytes
                .chunks_exact(8)
                .map(|c| i64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect();
            col.chunks(aelems.max(1))
                .take(n)
                .map(|c| Tensor::from_vec_i64(c.to_vec(), &ashape))
                .collect::<Result<_, _>>()
                .map_err(|e| RlError::Protocol(format!("action rebuild: {}", e.message())))?
        }
        DType::Bool => {
            let bytes = r.get_bytes(acount)?;
            let mut col = Vec::with_capacity(acount.min(1 << 20));
            for &b in bytes {
                match b {
                    0 => col.push(false),
                    1 => col.push(true),
                    other => {
                        return Err(RlError::Protocol(format!("bool byte 0x{:02x}", other)));
                    }
                }
            }
            col.chunks(aelems.max(1))
                .take(n)
                .map(|c| Tensor::from_vec_bool(c.to_vec(), &ashape))
                .collect::<Result<_, _>>()
                .map_err(|e| RlError::Protocol(format!("action rebuild: {}", e.message())))?
        }
    };
    if aelems == 0 && actions.len() != n {
        // chunks() can't split an empty column; synthesize the repeats.
        return Err(RlError::Protocol("zero-element action space".into()));
    }
    let mut rewards = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        rewards.push(r.get_f32()?);
    }
    let mut bits = Vec::with_capacity(n.div_ceil(8));
    for _ in 0..n.div_ceil(8) {
        bits.push(r.get_u8()?);
    }
    let mut priorities = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        priorities.push(r.get_f32()?);
    }
    let mk_err = |e: rlgraph_tensor::TensorError| {
        RlError::Protocol(format!("state rebuild: {}", e.message()))
    };
    let mut transitions = Vec::with_capacity(n.min(65_536));
    for i in 0..n {
        let s = Tensor::from_vec(states[i * selems..(i + 1) * selems].to_vec(), &sshape)
            .map_err(mk_err)?;
        let ns = Tensor::from_vec(next_states[i * selems..(i + 1) * selems].to_vec(), &sshape)
            .map_err(mk_err)?;
        transitions.push(Transition::new(
            s,
            actions[i].clone(),
            rewards[i],
            ns,
            bits[i / 8] & (1 << (i % 8)) != 0,
        ));
    }
    Ok((transitions, priorities))
}

fn read_shape(r: &mut ByteReader<'_>) -> RlResult<Vec<usize>> {
    let rank = r.get_u8()? as usize;
    let mut shape = Vec::with_capacity(rank.min(8));
    for _ in 0..rank {
        shape.push(r.get_u32()? as usize);
    }
    Ok(shape)
}

fn shape_elems(shape: &[usize]) -> RlResult<usize> {
    shape
        .iter()
        .try_fold(1usize, |a, &d| a.checked_mul(d))
        .ok_or_else(|| RlError::Protocol(format!("shape {:?} overflows element count", shape)))
}

#[cfg(test)]
mod tests {
    use super::super::{get_snapshot, put_trajectory};
    use super::*;

    fn snap(version: u64, vals: &[(&str, Vec<f32>)]) -> WeightsSnapshot {
        WeightsSnapshot {
            version,
            weights: vals
                .iter()
                .map(|(n, v)| {
                    let shape = [v.len()];
                    (n.to_string(), Tensor::from_vec(v.clone(), &shape).unwrap())
                })
                .collect(),
        }
    }

    #[test]
    fn encoded_tensor_decodes_with_bounded_error() {
        let vals: Vec<f32> = (0..300).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        let t = Tensor::from_vec(vals.clone(), &[300]).unwrap();
        for enc in [TensorEnc::F16, TensorEnc::Bf16, TensorEnc::I8Scale] {
            let mut w = ByteWriter::new();
            put_tensor_enc(&mut w, &t, enc);
            let bytes = w.into_bytes();
            let back = get_tensor(&mut ByteReader::new(&bytes)).unwrap();
            assert_eq!(back.shape(), t.shape());
            let tol = match enc {
                TensorEnc::F16 => 3.0 * (1.0 / 2048.0),
                TensorEnc::Bf16 => 3.0 * (1.0 / 256.0),
                TensorEnc::I8Scale => i8_scale_for(&vals) / 2.0 + f32::EPSILON,
                TensorEnc::F32 => 0.0,
            };
            for (a, b) in vals.iter().zip(back.as_f32().unwrap()) {
                assert!((a - b).abs() <= tol, "{:?}: {} vs {}", enc, a, b);
            }
            // Idempotence: re-encoding the decoded tensor is byte-stable.
            let mut w2 = ByteWriter::new();
            put_tensor_enc(&mut w2, &back, enc);
            assert_eq!(w2.into_bytes(), bytes, "{:?} re-encode drifted", enc);
        }
    }

    #[test]
    fn non_f32_and_nonfinite_tensors_ship_verbatim() {
        let i = Tensor::from_vec_i64(vec![1, -2, 3], &[3]).unwrap();
        let mut w = ByteWriter::new();
        put_tensor_enc(&mut w, &i, TensorEnc::F16);
        let bytes = w.into_bytes();
        assert_eq!(get_tensor(&mut ByteReader::new(&bytes)).unwrap(), i);

        let inf = Tensor::from_vec(vec![1.0, f32::INFINITY], &[2]).unwrap();
        let mut w = ByteWriter::new();
        put_tensor_enc(&mut w, &inf, TensorEnc::I8Scale);
        let bytes = w.into_bytes();
        assert_eq!(bytes[0], 0, "non-finite i8 input falls back to plain f32");
        let back = get_tensor(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back.as_f32().unwrap()[1], f32::INFINITY);
    }

    fn batch(n: usize) -> (Vec<Transition>, Vec<f32>) {
        let ts: Vec<Transition> = (0..n)
            .map(|i| {
                let s: Vec<f32> = (0..4).map(|j| (i * 4 + j) as f32 * 0.01).collect();
                let ns: Vec<f32> = (0..4).map(|j| ((i + 1) * 4 + j) as f32 * 0.01).collect();
                Transition::new(
                    Tensor::from_vec(s, &[4]).unwrap(),
                    Tensor::scalar_i64((i % 3) as i64),
                    i as f32 * 0.5,
                    Tensor::from_vec(ns, &[4]).unwrap(),
                    i % 5 == 4,
                )
            })
            .collect();
        let ps: Vec<f32> = (0..n).map(|i| 1.0 + i as f32).collect();
        (ts, ps)
    }

    #[test]
    fn columnar_trajectory_roundtrips_exactly_under_f32() {
        let (ts, ps) = batch(17);
        let mut w = ByteWriter::new();
        put_trajectory_v2(&mut w, &ts, &ps, TensorEnc::F32).unwrap();
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let (bts, bps) = get_trajectory_v2(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(bts, ts);
        assert_eq!(bps, ps);

        // And it is smaller than the v1 form even before quantization
        // (per-transition tensor headers collapse to one).
        let mut w1 = ByteWriter::new();
        put_trajectory(&mut w1, &ts, &ps);
        let v1_len = w1.into_bytes().len();
        assert!(bytes.len() < v1_len, "columnar {} vs v1 {}", bytes.len(), v1_len);

        // With f16 states it saves more than a third.
        let mut wq = ByteWriter::new();
        put_trajectory_v2(&mut wq, &ts, &ps, TensorEnc::F16).unwrap();
        let q_len = wq.into_bytes().len();
        assert!(q_len * 3 < v1_len * 2, "f16 columnar {} vs v1 {}", q_len, v1_len);
    }

    #[test]
    fn columnar_trajectory_quantized_states_within_f16_error() {
        let (ts, ps) = batch(9);
        let mut w = ByteWriter::new();
        put_trajectory_v2(&mut w, &ts, &ps, TensorEnc::F16).unwrap();
        let bytes = w.into_bytes();
        let (bts, bps) = get_trajectory_v2(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(bps, ps);
        for (a, b) in ts.iter().zip(&bts) {
            assert_eq!(a.action, b.action);
            assert_eq!(a.reward, b.reward);
            assert_eq!(a.terminal, b.terminal);
            for (x, y) in a.state.as_f32().unwrap().iter().zip(b.state.as_f32().unwrap()) {
                assert!((x - y).abs() <= x.abs() / 1024.0 + 1e-4, "{} vs {}", x, y);
            }
        }
    }

    #[test]
    fn heterogeneous_batch_is_rejected_before_writing() {
        let (mut ts, ps) = batch(3);
        ts[1] = Transition::new(
            Tensor::from_vec(vec![0.0; 5], &[5]).unwrap(), // different state shape
            Tensor::scalar_i64(0),
            0.0,
            Tensor::from_vec(vec![0.0; 5], &[5]).unwrap(),
            false,
        );
        let mut w = ByteWriter::new();
        let err = put_trajectory_v2(&mut w, &ts, &ps, TensorEnc::F32).unwrap_err();
        assert!(matches!(err, RlError::Protocol(_)));
        assert!(w.is_empty(), "nothing may be written on fallback");
        // Priority mismatch too.
        let (ts, _) = batch(3);
        assert!(put_trajectory_v2(&mut w, &ts, &[1.0], TensorEnc::F32).is_err());
        assert!(put_trajectory_v2(&mut w, &[], &[], TensorEnc::F32).is_err());
    }

    #[test]
    fn corrupt_columnar_batch_is_a_typed_error() {
        let (ts, ps) = batch(4);
        let mut w = ByteWriter::new();
        put_trajectory_v2(&mut w, &ts, &ps, TensorEnc::F32).unwrap();
        let bytes = w.into_bytes();
        // Truncations at every prefix length must error, never panic.
        for cut in 0..bytes.len() {
            let r = get_trajectory_v2(&mut ByteReader::new(&bytes[..cut]));
            assert!(matches!(r, Err(RlError::Protocol(_))), "cut at {}", cut);
        }
        // An unknown encoding tag is a typed error.
        let mut bad = bytes.clone();
        let enc_off = 4 + 1 + 4 + 1 + 1; // n, srank, sdim, adtype, arank (scalar action)
        bad[enc_off] = 9;
        assert!(matches!(get_trajectory_v2(&mut ByteReader::new(&bad)), Err(RlError::Protocol(_))));
    }

    #[test]
    fn snapshot_enc_decodes_with_plain_get_snapshot() {
        let s = snap(7, &[("w", (0..100).map(|i| i as f32 * 0.03).collect())]);
        let mut w = ByteWriter::new();
        put_snapshot_enc(&mut w, &s, TensorEnc::F16);
        let bytes = w.into_bytes();
        let back = get_snapshot(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back.version, 7);
        let expect = dequantized_snapshot(&s, TensorEnc::F16);
        assert_eq!(back.weights, expect.weights);
    }

    #[test]
    fn delta_apply_reproduces_dequantized_snapshot_bitwise() {
        for enc in [TensorEnc::F32, TensorEnc::F16, TensorEnc::Bf16, TensorEnc::I8Scale] {
            let v1 = snap(
                1,
                &[("a", (0..200).map(|i| (i as f32 * 0.11).cos()).collect()), ("b", vec![0.5; 96])],
            );
            // The subscriber holds the dequantized image of v1.
            let held = dequantized_snapshot(&v1, enc);
            // v2 changes one chunk of "a" and nothing in "b".
            let mut a2: Vec<f32> = v1.weights[0].1.as_f32().unwrap().to_vec();
            for v in a2[64..128].iter_mut() {
                *v += 0.25;
            }
            let v2 = snap(2, &[("a", a2), ("b", vec![0.5; 96])]);
            let mut w = ByteWriter::new();
            put_snapshot_delta(&mut w, &held, &v2, enc).unwrap();
            let delta_bytes = w.into_bytes();
            let applied = get_snapshot_delta(&mut ByteReader::new(&delta_bytes), &held).unwrap();
            let expect = dequantized_snapshot(&v2, enc);
            assert_eq!(applied.version, 2);
            for ((n1, t1), (n2, t2)) in applied.weights.iter().zip(&expect.weights) {
                assert_eq!(n1, n2);
                for (x, y) in t1.as_f32().unwrap().iter().zip(t2.as_f32().unwrap()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{:?} var {} drifted", enc, n1);
                }
            }
            // The delta is smaller than the full encoded snapshot.
            let mut wf = ByteWriter::new();
            put_snapshot_enc(&mut wf, &v2, enc);
            assert!(
                delta_bytes.len() < wf.into_bytes().len(),
                "{:?}: delta {} bytes not smaller",
                enc,
                delta_bytes.len()
            );
        }
    }

    #[test]
    fn delta_version_gap_and_structure_mismatch_are_typed_errors() {
        let held = snap(3, &[("a", vec![1.0; 64])]);
        let next = snap(4, &[("a", vec![2.0; 64])]);
        let mut w = ByteWriter::new();
        put_snapshot_delta(&mut w, &held, &next, TensorEnc::F32).unwrap();
        let bytes = w.into_bytes();
        // Peer actually holds version 2 → version-gap error → full resync.
        let stale = snap(2, &[("a", vec![1.0; 64])]);
        let err = get_snapshot_delta(&mut ByteReader::new(&bytes), &stale).unwrap_err();
        assert!(matches!(err, RlError::Protocol(ref m) if m.contains("version")), "{}", err);
        // Renamed variable on the encode side refuses up front.
        let renamed = snap(3, &[("zzz", vec![1.0; 64])]);
        let mut w2 = ByteWriter::new();
        assert!(put_snapshot_delta(&mut w2, &renamed, &next, TensorEnc::F32).is_err());
        assert!(w2.is_empty());
        // Renamed variable on the decode side is a typed error.
        let err = get_snapshot_delta(&mut ByteReader::new(&bytes), &renamed).unwrap_err();
        assert!(matches!(err, RlError::Protocol(_)), "{}", err);
    }

    #[test]
    fn unchanged_snapshot_delta_is_tiny() {
        let held = snap(5, &[("a", vec![0.25; 1024]), ("b", vec![-1.0; 512])]);
        let next = snap(6, &[("a", vec![0.25; 1024]), ("b", vec![-1.0; 512])]);
        let mut w = ByteWriter::new();
        put_snapshot_delta(&mut w, &held, &next, TensorEnc::F32).unwrap();
        let bytes = w.into_bytes();
        assert!(bytes.len() < 64, "all-unchanged delta is {} bytes", bytes.len());
        let applied = get_snapshot_delta(&mut ByteReader::new(&bytes), &held).unwrap();
        assert_eq!(applied.weights, held.weights);
        assert_eq!(applied.version, 6);
    }
}
