//! Replay-shard actors: each hosts one prioritized replay buffer and
//! serves inserts, samples, and priority updates over channels (the
//! paper's "4 instances of replay memories to feed the learner").

use crossbeam::channel::{Receiver, Sender};
use rlgraph_agents::components::memory::transitions_to_batch;
use rlgraph_memory::{PrioritizedReplay, Transition};
use rlgraph_obs::{Gauge, Histogram, Recorder};
use rlgraph_tensor::Tensor;

/// Bound of a replay shard's request mailbox.
pub const DEFAULT_MAILBOX_CAPACITY: usize = 256;

/// The storage + sampling state of one replay shard, detached from any
/// actor/thread: a prioritized buffer and its seeded sampling RNG.
///
/// [`serve_shard`] (the threaded replay stage) and the deterministic
/// chaos engine (`chaos` module) both drive this same core, so
/// fault-injection runs exercise the production replay path rather than
/// a model of it.
pub struct ShardCore {
    mem: PrioritizedReplay<Transition>,
    rng: rand::rngs::StdRng,
}

impl ShardCore {
    /// Creates a shard core with the given buffer capacity, priority
    /// exponent, and RNG seed.
    pub fn new(capacity: usize, alpha: f32, seed: u64) -> Self {
        use rand::SeedableRng;
        ShardCore {
            mem: PrioritizedReplay::new(capacity, alpha),
            rng: rand::rngs::StdRng::seed_from_u64(seed),
        }
    }

    /// Inserts transitions with worker-side initial priorities.
    pub fn insert(&mut self, transitions: Vec<Transition>, priorities: Vec<f32>) {
        for (t, p) in transitions.into_iter().zip(priorities) {
            self.mem.insert_with_priority(t, p);
        }
    }

    /// Samples a batch, or `None` while under-filled (or on a batching
    /// failure).
    pub fn sample(&mut self, batch: usize, beta: f32) -> Option<ShardBatch> {
        if self.mem.len() < batch {
            return None;
        }
        let sample = self.mem.sample(batch, beta, &mut self.rng);
        let tensors = transitions_to_batch(&sample.records).ok()?;
        let weights = Tensor::from_vec(sample.weights, &[batch]).expect("batch shape");
        Some(ShardBatch { tensors, weights, indices: sample.indices })
    }

    /// Applies a learner's post-step priority updates; stale indices
    /// (overwritten slots after wrap-around) are dropped defensively.
    pub fn update_priorities(&mut self, indices: Vec<usize>, priorities: Vec<f32>) {
        let pairs: Vec<(usize, f32)> =
            indices.into_iter().zip(priorities).filter(|(i, _)| *i < self.mem.len()).collect();
        let (idx, pr): (Vec<usize>, Vec<f32>) = pairs.into_iter().unzip();
        self.mem.update_priorities(&idx, &pr);
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.mem.len()
    }

    /// Whether the buffer holds no records.
    pub fn is_empty(&self) -> bool {
        self.mem.len() == 0
    }

    /// The shard's high-water mark: total records ever inserted. This is
    /// what learner checkpoints persist per shard.
    pub fn watermark(&self) -> u64 {
        self.mem.total_inserted()
    }
}

/// A batch served by a shard, with the shard-local slot indices.
#[derive(Debug, Clone)]
pub struct ShardBatch {
    /// `(s, a, r, s2, t)` stacked tensors
    pub tensors: [Tensor; 5],
    /// importance weights `[b]`
    pub weights: Tensor,
    /// shard-local slot indices
    pub indices: Vec<usize>,
}

/// Requests a shard actor serves.
pub enum ShardRequest {
    /// insert post-processed transitions with worker-side priorities
    Insert {
        /// the transitions
        transitions: Vec<Transition>,
        /// per-transition initial priorities
        priorities: Vec<f32>,
    },
    /// sample a batch; replies on the provided channel (None while the
    /// shard holds fewer than `batch` records)
    Sample {
        /// batch size
        batch: usize,
        /// IS exponent
        beta: f32,
        /// reply channel
        reply: Sender<Option<ShardBatch>>,
    },
    /// update priorities after a learner step
    UpdatePriorities {
        /// shard-local indices
        indices: Vec<usize>,
        /// new priorities
        priorities: Vec<f32>,
    },
    /// report the shard's high-water mark (total records ever inserted);
    /// used by learner checkpoints
    Watermark {
        /// reply channel
        reply: Sender<u64>,
    },
    /// stop the actor
    Shutdown,
}

impl std::fmt::Debug for ShardRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardRequest::Insert { transitions, .. } => {
                write!(f, "Insert({} transitions)", transitions.len())
            }
            ShardRequest::Sample { batch, beta, .. } => {
                write!(f, "Sample(batch={}, beta={})", batch, beta)
            }
            ShardRequest::UpdatePriorities { indices, .. } => {
                write!(f, "UpdatePriorities({} indices)", indices.len())
            }
            ShardRequest::Watermark { .. } => write!(f, "Watermark"),
            ShardRequest::Shutdown => write!(f, "Shutdown"),
        }
    }
}

/// Metric handles for one shard serving loop under the fragment
/// executor's `frag.<stage>.*` scheme. Resolved once (all no-ops under a
/// disabled recorder).
#[derive(Clone)]
pub struct ShardServeMetrics {
    /// insert service time (µs)
    pub insert_us: Histogram,
    /// sample service time (µs)
    pub sample_us: Histogram,
    /// priority-update service time (µs)
    pub update_us: Histogram,
    /// pending requests after each dequeue
    pub mailbox_depth: Gauge,
    /// records currently held
    pub fill: Gauge,
}

impl ShardServeMetrics {
    /// Handles under `frag.<stage>.*`.
    pub fn fragment(recorder: &Recorder, stage: &str) -> Self {
        let name = |metric: &str| format!("frag.{}.{}", stage, metric);
        ShardServeMetrics {
            insert_us: recorder.histogram(&name("insert_us")),
            sample_us: recorder.histogram(&name("sample_us")),
            update_us: recorder.histogram(&name("update_priorities_us")),
            mailbox_depth: recorder.gauge(&name("mailbox_depth")),
            fill: recorder.gauge(&name("size")),
        }
    }
}

/// Serves shard requests from `rx` over `core` until `Shutdown` arrives
/// or every sender is gone, then returns the shard's final watermark.
///
/// This is the one replay serving loop: every threaded replay stage
/// body runs it, so placement changes never change request semantics —
/// only the thread the loop runs on.
pub fn serve_shard(
    rx: &Receiver<ShardRequest>,
    mut core: ShardCore,
    recorder: &Recorder,
    m: &ShardServeMetrics,
) -> u64 {
    let (insert_us, sample_us, update_us) = (&m.insert_us, &m.sample_us, &m.update_us);
    let (mailbox_depth, fill) = (&m.mailbox_depth, &m.fill);
    while let Ok(req) = rx.recv() {
        // Depth of the actor's mailbox *after* taking this request: how far
        // producers are running ahead of this shard.
        mailbox_depth.set(rx.len() as f64);
        match req {
            ShardRequest::Insert { transitions, priorities } => {
                let _span = recorder.span("shard.insert");
                let t0 = std::time::Instant::now();
                core.insert(transitions, priorities);
                insert_us.record_duration(t0.elapsed());
                fill.set(core.len() as f64);
            }
            ShardRequest::Sample { batch, beta, reply } => {
                let _span = recorder.span("shard.sample");
                let t0 = std::time::Instant::now();
                let _ = reply.send(core.sample(batch, beta));
                sample_us.record_duration(t0.elapsed());
            }
            ShardRequest::UpdatePriorities { indices, priorities } => {
                let _span = recorder.span("shard.update_priorities");
                let t0 = std::time::Instant::now();
                core.update_priorities(indices, priorities);
                update_us.record_duration(t0.elapsed());
            }
            ShardRequest::Watermark { reply } => {
                let _ = reply.send(core.watermark());
            }
            ShardRequest::Shutdown => break,
        }
    }
    core.watermark()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;
    use rlgraph_tensor::DType;

    fn transitions(n: usize) -> (Vec<Transition>, Vec<f32>) {
        let ts = (0..n)
            .map(|i| {
                Transition::new(
                    Tensor::full(&[3], i as f32),
                    Tensor::scalar_i64(0),
                    1.0,
                    Tensor::full(&[3], i as f32 + 1.0),
                    false,
                )
            })
            .collect();
        (ts, vec![1.0; n])
    }

    /// Runs [`serve_shard`] to completion over `requests` followed by a
    /// `Shutdown`, on this thread, and returns the final watermark.
    fn serve(capacity: usize, alpha: f32, requests: Vec<ShardRequest>) -> u64 {
        let (tx, rx) = bounded(requests.len() + 1);
        for request in requests {
            tx.send(request).unwrap();
        }
        tx.send(ShardRequest::Shutdown).unwrap();
        let rec = Recorder::disabled();
        let metrics = ShardServeMetrics::fragment(&rec, "replay");
        serve_shard(&rx, ShardCore::new(capacity, alpha, 0), &rec, &metrics)
    }

    #[test]
    fn insert_then_sample_roundtrip() {
        let (ts, ps) = transitions(16);
        let (reply_tx, reply_rx) = bounded(1);
        let watermark = serve(
            64,
            0.6,
            vec![
                ShardRequest::Insert { transitions: ts, priorities: ps },
                ShardRequest::Sample { batch: 8, beta: 0.4, reply: reply_tx },
            ],
        );
        let batch = reply_rx.recv().unwrap().expect("enough data");
        assert_eq!(batch.tensors[0].shape(), &[8, 3]);
        assert_eq!(batch.tensors[4].dtype(), DType::Bool);
        assert_eq!(batch.indices.len(), 8);
        assert_eq!(watermark, 16);
    }

    #[test]
    fn sample_underfilled_returns_none() {
        let (reply_tx, reply_rx) = bounded(1);
        serve(64, 0.6, vec![ShardRequest::Sample { batch: 4, beta: 0.4, reply: reply_tx }]);
        assert!(reply_rx.recv().unwrap().is_none());
    }

    #[test]
    fn watermark_tracks_total_inserts() {
        let (ts, ps) = transitions(12); // capacity 8: wraps, watermark keeps counting
        let (reply_tx, reply_rx) = bounded(1);
        let watermark = serve(
            8,
            0.6,
            vec![
                ShardRequest::Insert { transitions: ts, priorities: ps },
                ShardRequest::Watermark { reply: reply_tx },
            ],
        );
        assert_eq!(reply_rx.recv().unwrap(), 12);
        assert_eq!(watermark, 12);
    }

    #[test]
    fn shard_core_is_deterministic_per_seed() {
        let mut a = ShardCore::new(32, 0.6, 9);
        let mut b = ShardCore::new(32, 0.6, 9);
        for core in [&mut a, &mut b] {
            let (ts, ps) = transitions(16);
            core.insert(ts, ps);
        }
        let sa = a.sample(8, 0.4).unwrap();
        let sb = b.sample(8, 0.4).unwrap();
        assert_eq!(sa.indices, sb.indices);
        assert_eq!(a.watermark(), 16);
    }

    #[test]
    fn priority_updates_accepted() {
        let (ts, ps) = transitions(8);
        // still serving after an update containing a stale index
        let (reply_tx, reply_rx) = bounded(1);
        serve(
            32,
            1.0,
            vec![
                ShardRequest::Insert { transitions: ts, priorities: ps },
                ShardRequest::UpdatePriorities {
                    indices: vec![0, 1, 99],
                    priorities: vec![10.0, 0.1, 5.0],
                },
                ShardRequest::Sample { batch: 4, beta: 0.0, reply: reply_tx },
            ],
        );
        assert!(reply_rx.recv().unwrap().is_some());
    }
}
