//! Discrete-event simulation of the IMPALA actor–queue–learner pipeline.

use crate::sim::EventQueue;
use rlgraph_obs::{seconds_to_micros, Recorder, VirtualTime};
use std::collections::VecDeque;

/// Measured costs and topology of an IMPALA deployment.
#[derive(Debug, Clone)]
pub struct ImpalaSimParams {
    /// number of actor processes
    pub num_actors: usize,
    /// environment frames per rollout (rollout_len × envs × frame_skip)
    pub frames_per_rollout: f64,
    /// seconds per fused rollout (measured per implementation)
    pub rollout_time: f64,
    /// learner step time per rollout (dequeue + v-trace + optimize)
    pub train_time: f64,
    /// rollout queue capacity
    pub queue_capacity: usize,
    /// simulated duration in seconds
    pub duration: f64,
}

impl Default for ImpalaSimParams {
    fn default() -> Self {
        ImpalaSimParams {
            num_actors: 16,
            frames_per_rollout: 400.0,
            rollout_time: 0.25,
            train_time: 0.05,
            queue_capacity: 1,
            duration: 60.0,
        }
    }
}

/// Output of an IMPALA simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImpalaSimResult {
    /// frames per second *consumed by the learner* (the paper's metric:
    /// throughput is learner-bound once updates saturate)
    pub frames_per_second: f64,
    /// learner updates per second
    pub updates_per_second: f64,
    /// fraction of time actors spent blocked on the full queue
    pub actor_blocked_fraction: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    ActorDone(usize),
    LearnerDone,
}

/// Runs the discrete-event IMPALA model: actors produce rollouts into a
/// bounded blocking queue; the learner consumes one rollout per step.
/// Throughput grows with actors until `1 / train_time` updates saturate —
/// the paper's "until both implementations are limited by updates"
/// (Fig. 9).
///
/// # Panics
///
/// Panics when `num_actors` or `queue_capacity` is zero.
pub fn simulate_impala(params: &ImpalaSimParams) -> ImpalaSimResult {
    simulate_impala_traced(params, &Recorder::disabled(), None)
}

/// [`simulate_impala`] with span tracing: rollouts, blocking intervals, and
/// learner steps become explicit-timestamp spans on `actor-i` / `learner`
/// tracks, plus a `queue_depth` counter series, all in virtual simulated
/// time. A supplied [`VirtualTime`] clock is advanced to each event. The
/// traced run is bit-identical to the untraced one.
pub fn simulate_impala_traced(
    params: &ImpalaSimParams,
    recorder: &Recorder,
    clock: Option<&VirtualTime>,
) -> ImpalaSimResult {
    assert!(params.num_actors > 0, "need at least one actor");
    assert!(params.queue_capacity > 0, "queue capacity must be positive");
    let traced = recorder.is_enabled();
    let actor_tracks: Vec<_> =
        (0..params.num_actors).map(|a| recorder.track(&format!("actor-{a}"))).collect();
    let learner_track = recorder.track("learner");
    let queue_track = recorder.track("queue");
    let us = seconds_to_micros;
    let mut queue: EventQueue<Event> = EventQueue::new();

    let mut queued = 0usize;
    let mut waiting: VecDeque<(usize, f64)> = VecDeque::new(); // blocked actors
    let mut learner_busy = false;
    let mut consumed = 0u64;
    let mut blocked_time = 0.0f64;

    for a in 0..params.num_actors {
        let jitter = params.rollout_time * (a as f64 / params.num_actors as f64) * 0.1;
        queue.push(params.rollout_time + jitter, Event::ActorDone(a));
    }

    while let Some((time, event)) = queue.pop() {
        if time > params.duration {
            break;
        }
        if let Some(vt) = clock {
            vt.set_micros(us(time));
        }
        match event {
            Event::ActorDone(a) => {
                if traced {
                    recorder.complete(
                        actor_tracks[a],
                        "rollout",
                        us(time - params.rollout_time),
                        us(time),
                    );
                }
                if queued < params.queue_capacity {
                    queued += 1;
                    queue.push(time + params.rollout_time, Event::ActorDone(a));
                    if !learner_busy {
                        learner_busy = true;
                        queued -= 1;
                        queue.push(time + params.train_time, Event::LearnerDone);
                    }
                } else {
                    waiting.push_back((a, time));
                }
            }
            Event::LearnerDone => {
                consumed += 1;
                if traced {
                    recorder.complete(
                        learner_track,
                        "train",
                        us(time - params.train_time),
                        us(time),
                    );
                }
                // wake one blocked actor (its rollout enters the queue)
                if let Some((a, since)) = waiting.pop_front() {
                    blocked_time += time - since;
                    if traced {
                        recorder.complete(actor_tracks[a], "blocked", us(since), us(time));
                    }
                    queued += 1;
                    queue.push(time + params.rollout_time, Event::ActorDone(a));
                }
                if queued > 0 {
                    queued -= 1;
                    queue.push(time + params.train_time, Event::LearnerDone);
                } else {
                    learner_busy = false;
                }
            }
        }
        if traced {
            recorder.sample_at(queue_track, "queue_depth", us(time), queued as f64);
        }
    }

    let total_actor_time = params.duration * params.num_actors as f64;
    ImpalaSimResult {
        frames_per_second: consumed as f64 * params.frames_per_rollout / params.duration,
        updates_per_second: consumed as f64 / params.duration,
        actor_blocked_fraction: (blocked_time / total_actor_time).clamp(0.0, 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_until_learner_bound() {
        // per-actor production 4 rollouts/s; learner ceiling 100/s
        let base = ImpalaSimParams {
            duration: 30.0,
            rollout_time: 0.25,
            train_time: 0.01,
            ..Default::default()
        };
        let fps = |a: usize| {
            simulate_impala(&ImpalaSimParams { num_actors: a, ..base.clone() }).frames_per_second
        };
        let f8 = fps(8);
        let f16 = fps(16);
        let f128 = fps(128);
        let f256 = fps(256);
        assert!(f16 > f8 * 1.5, "early scaling: {} vs {}", f8, f16);
        // train_time = 0.01 → ceiling = 100 updates/s * 400 = 40000 fps
        assert!(f128 <= 40_000.0 * 1.05);
        assert!((f256 - f128).abs() < f128 * 0.1, "plateau: {} vs {}", f128, f256);
    }

    #[test]
    fn faster_rollouts_raise_pre_saturation_throughput() {
        let slow = simulate_impala(&ImpalaSimParams {
            num_actors: 4,
            rollout_time: 0.5,
            train_time: 0.001,
            duration: 30.0,
            ..Default::default()
        });
        let fast = simulate_impala(&ImpalaSimParams {
            num_actors: 4,
            rollout_time: 0.25,
            train_time: 0.001,
            duration: 30.0,
            ..Default::default()
        });
        assert!(fast.frames_per_second > slow.frames_per_second * 1.7);
    }

    #[test]
    fn actors_block_when_learner_slow() {
        let r = simulate_impala(&ImpalaSimParams {
            num_actors: 64,
            rollout_time: 0.1,
            train_time: 0.2,
            queue_capacity: 2,
            duration: 30.0,
            ..Default::default()
        });
        assert!(r.actor_blocked_fraction > 0.5, "blocked: {}", r.actor_blocked_fraction);
        // learner-bound: ~5 updates/sec
        assert!((r.updates_per_second - 5.0).abs() < 0.5);
    }

    #[test]
    fn conservation_learner_consumes_at_most_production() {
        let r = simulate_impala(&ImpalaSimParams {
            num_actors: 3,
            rollout_time: 0.2,
            train_time: 0.01,
            duration: 20.0,
            ..Default::default()
        });
        // 3 actors * 5 rollouts/s = 15/s production ceiling
        assert!(r.updates_per_second <= 15.5);
        assert!(r.updates_per_second > 10.0);
    }

    #[test]
    #[should_panic(expected = "queue capacity")]
    fn zero_capacity_panics() {
        simulate_impala(&ImpalaSimParams { queue_capacity: 0, ..Default::default() });
    }

    #[test]
    fn traced_run_matches_untraced_with_exact_span_durations() {
        let params = ImpalaSimParams {
            num_actors: 8,
            rollout_time: 0.2,
            train_time: 0.05,
            duration: 10.0,
            ..Default::default()
        };
        let plain = simulate_impala(&params);
        let (rec, vt) = Recorder::virtual_time();
        let traced = simulate_impala_traced(&params, &rec, Some(&vt));
        assert_eq!(plain, traced);
        assert!(vt.now_seconds() > 0.0 && vt.now_seconds() <= params.duration + 1e-9);
        let totals = rec.span_totals();
        let get = |name: &str| {
            totals
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing span {name}"))
                .1
        };
        let rollout = get("rollout");
        assert_eq!(rollout.total_us, rollout.count * seconds_to_micros(params.rollout_time));
        let train = get("train");
        assert_eq!(train.total_us, train.count * seconds_to_micros(params.train_time));
        // one train span per consumed rollout
        assert_eq!(train.count, (traced.updates_per_second * params.duration).round() as u64);
    }
}
