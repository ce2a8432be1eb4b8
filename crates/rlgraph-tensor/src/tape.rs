//! Eager reverse-mode autodiff for the define-by-run backend.

use crate::grad::{emit_grad, OpEmitter};
use crate::kernels::{forward, OpKind};
use crate::{tensor_err, Result, Tensor};
use std::collections::HashMap;

/// Handle to a value recorded on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValId(usize);

impl ValId {
    /// The raw index (for diagnostics).
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
struct Entry {
    kind: OpKind,
    inputs: Vec<ValId>,
    output: ValId,
}

/// Records eager op applications so that [`Tape::backward`] can replay them
/// in reverse, evaluating the shared gradient rules eagerly.
///
/// # Example
///
/// ```
/// use rlgraph_tensor::{Tape, Tensor, OpKind};
///
/// # fn main() -> Result<(), rlgraph_tensor::TensorError> {
/// let mut tape = Tape::new();
/// let w = tape.leaf(Tensor::scalar(3.0), true);
/// let x = tape.leaf(Tensor::scalar(2.0), false);
/// let y = tape.apply(OpKind::Mul, &[w, x])?;
/// let grads = tape.backward(y)?;
/// assert_eq!(grads[&w].scalar_value()?, 2.0);
/// assert!(!grads.contains_key(&x));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Tape {
    values: Vec<Tensor>,
    requires_grad: Vec<bool>,
    entries: Vec<Entry>,
    recording: bool,
}

impl Tape {
    /// Creates an empty, recording tape.
    pub fn new() -> Self {
        Tape { values: Vec::new(), requires_grad: Vec::new(), entries: Vec::new(), recording: true }
    }

    /// Registers an input value. `requires_grad` marks it as a
    /// differentiation target for [`Tape::backward`].
    pub fn leaf(&mut self, value: Tensor, requires_grad: bool) -> ValId {
        self.values.push(value);
        self.requires_grad.push(requires_grad);
        ValId(self.values.len() - 1)
    }

    /// The tensor behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this tape.
    pub fn value(&self, id: ValId) -> &Tensor {
        &self.values[id.0]
    }

    /// Takes the tensor behind a handle by cloning it out.
    pub fn take(&self, id: ValId) -> Tensor {
        self.values[id.0].clone()
    }

    /// Number of recorded values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Whether ops are currently recorded for backward.
    pub fn is_recording(&self) -> bool {
        self.recording
    }

    /// Enables/disables recording (inference mode when disabled).
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Applies `kind` eagerly, recording the application when recording is
    /// enabled and any input requires grad.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn apply(&mut self, kind: OpKind, inputs: &[ValId]) -> Result<ValId> {
        let tensors: Vec<&Tensor> = inputs.iter().map(|&i| &self.values[i.0]).collect();
        let out = forward(&kind, &tensors)?;
        let needs = self.recording
            && !matches!(kind, OpKind::StopGradient)
            && inputs.iter().any(|&i| self.requires_grad[i.0]);
        self.values.push(out);
        self.requires_grad.push(needs);
        let output = ValId(self.values.len() - 1);
        if needs {
            self.entries.push(Entry { kind, inputs: inputs.to_vec(), output });
        }
        Ok(output)
    }

    /// Runs reverse-mode accumulation from `loss` (which must be a scalar or
    /// will be seeded with ones) and returns gradients for every leaf marked
    /// `requires_grad` that `loss` depends on.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors raised while evaluating gradient rules.
    pub fn backward(&mut self, loss: ValId) -> Result<HashMap<ValId, Tensor>> {
        if loss.0 >= self.values.len() {
            return Err(tensor_err!("unknown value id {} in backward", loss.0));
        }
        let mut grads: HashMap<ValId, Tensor> = HashMap::new();
        grads.insert(loss, Tensor::ones(self.values[loss.0].shape()));
        // Entries are recorded in execution order; walk them backwards.
        // Disable recording so gradient evaluation does not grow `entries`
        // while we iterate.
        let entries = std::mem::take(&mut self.entries);
        let was_recording = self.recording;
        self.recording = false;
        let mut result: Result<()> = Ok(());
        for entry in entries.iter().rev() {
            let Some(gout) = grads.get(&entry.output).cloned() else {
                continue;
            };
            let gid = self.leaf(gout, false);
            let in_grads = match emit_grad(self, &entry.kind, &entry.inputs, entry.output, gid) {
                Ok(gs) => gs,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            };
            for (input, gref) in entry.inputs.iter().zip(in_grads) {
                let Some(gref) = gref else { continue };
                let g = self.values[gref.0].clone();
                match grads.entry(*input) {
                    std::collections::hash_map::Entry::Occupied(mut o) => {
                        let sum = forward(&OpKind::Add, &[o.get(), &g])?;
                        o.insert(sum);
                    }
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(g);
                    }
                }
            }
        }
        self.entries = entries;
        self.recording = was_recording;
        result?;
        grads.retain(|id, _| self.requires_grad.get(id.0).copied().unwrap_or(false) || *id == loss);
        Ok(grads)
    }
}

impl OpEmitter for Tape {
    type Ref = ValId;

    fn emit(&mut self, kind: OpKind, inputs: &[ValId]) -> Result<ValId> {
        self.apply(kind, inputs)
    }

    fn scalar_const(&mut self, v: f32) -> ValId {
        self.leaf(Tensor::scalar(v), false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(tape: &mut Tape, data: &[f32], shape: &[usize]) -> ValId {
        tape.leaf(Tensor::from_vec(data.to_vec(), shape).unwrap(), true)
    }

    #[test]
    fn linear_gradient() {
        // loss = sum(w * x), dw = x
        let mut tape = Tape::new();
        let w = leaf(&mut tape, &[1.0, 2.0], &[2]);
        let x = tape.leaf(Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap(), false);
        let y = tape.apply(OpKind::Mul, &[w, x]).unwrap();
        let loss = tape.apply(OpKind::Sum { axes: None, keep_dims: false }, &[y]).unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(grads[&w].as_f32().unwrap(), &[3.0, 4.0]);
        assert!(!grads.contains_key(&x));
    }

    #[test]
    fn chain_rule_through_nonlinearity() {
        // loss = sum(relu(x)^2), grad = 2x for x > 0 else 0
        let mut tape = Tape::new();
        let x = leaf(&mut tape, &[-1.0, 2.0, 3.0], &[3]);
        let r = tape.apply(OpKind::Relu, &[x]).unwrap();
        let s = tape.apply(OpKind::Square, &[r]).unwrap();
        let loss = tape.apply(OpKind::Sum { axes: None, keep_dims: false }, &[s]).unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(grads[&x].as_f32().unwrap(), &[0.0, 4.0, 6.0]);
    }

    #[test]
    fn matmul_gradients() {
        let mut tape = Tape::new();
        let a = leaf(&mut tape, &[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = leaf(&mut tape, &[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let y = tape.apply(OpKind::MatMul, &[a, b]).unwrap();
        let loss = tape.apply(OpKind::Sum { axes: None, keep_dims: false }, &[y]).unwrap();
        let grads = tape.backward(loss).unwrap();
        // dA = ones @ B^T
        assert_eq!(grads[&a].as_f32().unwrap(), &[11.0, 15.0, 11.0, 15.0]);
        // dB = A^T @ ones
        assert_eq!(grads[&b].as_f32().unwrap(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn gradient_accumulates_over_fanout() {
        // loss = sum(x * x) recorded as Mul(x, x): grad = 2x
        let mut tape = Tape::new();
        let x = leaf(&mut tape, &[3.0], &[1]);
        let y = tape.apply(OpKind::Mul, &[x, x]).unwrap();
        let loss = tape.apply(OpKind::Sum { axes: None, keep_dims: false }, &[y]).unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(grads[&x].as_f32().unwrap(), &[6.0]);
    }

    #[test]
    fn stop_gradient_blocks_path() {
        let mut tape = Tape::new();
        let x = leaf(&mut tape, &[2.0], &[1]);
        let sg = tape.apply(OpKind::StopGradient, &[x]).unwrap();
        let y = tape.apply(OpKind::Mul, &[sg, sg]).unwrap();
        let loss = tape.apply(OpKind::Sum { axes: None, keep_dims: false }, &[y]).unwrap();
        let grads = tape.backward(loss).unwrap();
        assert!(!grads.contains_key(&x));
    }

    #[test]
    fn broadcast_bias_gradient() {
        // y = x + b with x [2,3], b [3]: db = column sums of ones = [2,2,2]
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(&[2, 3], crate::DType::F32), false);
        let b = leaf(&mut tape, &[0.0, 0.0, 0.0], &[3]);
        let y = tape.apply(OpKind::Add, &[x, b]).unwrap();
        let loss = tape.apply(OpKind::Sum { axes: None, keep_dims: false }, &[y]).unwrap();
        let grads = tape.backward(loss).unwrap();
        assert_eq!(grads[&b].as_f32().unwrap(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn softmax_grad_sums_to_zero() {
        let mut tape = Tape::new();
        let x = leaf(&mut tape, &[1.0, 2.0, 3.0], &[3]);
        let s = tape.apply(OpKind::Softmax { axis: 0 }, &[x]).unwrap();
        // loss = first element of softmax
        let idx = tape.leaf(Tensor::scalar_i64(0), false);
        let loss = tape.apply(OpKind::Gather, &[s, idx]).unwrap();
        let grads = tape.backward(loss).unwrap();
        let gx = grads[&x].as_f32().unwrap();
        let total: f32 = gx.iter().sum();
        assert!(total.abs() < 1e-5, "softmax grad should sum to ~0, got {}", total);
    }

    #[test]
    fn recording_toggle_skips_backward() {
        let mut tape = Tape::new();
        tape.set_recording(false);
        assert!(!tape.is_recording());
        let x = leaf(&mut tape, &[2.0], &[1]);
        let y = tape.apply(OpKind::Square, &[x]).unwrap();
        let grads = tape.backward(y).unwrap();
        assert!(!grads.contains_key(&x));
    }

    #[test]
    fn finite_difference_composite() {
        // f(x) = mean(sigmoid(x) * tanh(x))
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let x0 = Tensor::rand_uniform(&[5], -2.0, 2.0, &mut rng);
        let f = |x: &Tensor| -> f32 {
            let mut t = Tape::new();
            let xi = t.leaf(x.clone(), false);
            let s = t.apply(OpKind::Sigmoid, &[xi]).unwrap();
            let h = t.apply(OpKind::Tanh, &[xi]).unwrap();
            let m = t.apply(OpKind::Mul, &[s, h]).unwrap();
            let l = t.apply(OpKind::Mean { axes: None, keep_dims: false }, &[m]).unwrap();
            t.value(l).scalar_value().unwrap()
        };
        let mut tape = Tape::new();
        let xi = tape.leaf(x0.clone(), true);
        let s = tape.apply(OpKind::Sigmoid, &[xi]).unwrap();
        let h = tape.apply(OpKind::Tanh, &[xi]).unwrap();
        let m = tape.apply(OpKind::Mul, &[s, h]).unwrap();
        let l = tape.apply(OpKind::Mean { axes: None, keep_dims: false }, &[m]).unwrap();
        let grads = tape.backward(l).unwrap();
        let ana = grads[&xi].as_f32().unwrap().to_vec();
        let eps = 1e-3f32;
        for (i, &a) in ana.iter().enumerate().take(5) {
            let mut xp = x0.clone();
            xp.as_f32_mut().unwrap()[i] += eps;
            let num = (f(&xp) - f(&x0)) / eps;
            assert!((num - a).abs() < 1e-2, "index {}: {} vs {}", i, num, a);
        }
    }

    #[test]
    fn backward_unknown_id_errors() {
        let mut tape = Tape::new();
        assert!(tape.backward(ValId(42)).is_err());
    }
}
