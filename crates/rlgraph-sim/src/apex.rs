//! Discrete-event simulation of the Ape-X coordination loop.

use crate::sim::EventQueue;
use rlgraph_obs::{seconds_to_micros, Recorder, VirtualTime};

/// Measured per-task costs and topology of an Ape-X deployment.
#[derive(Debug, Clone)]
pub struct ApexSimParams {
    /// number of worker actors
    pub num_workers: usize,
    /// environment frames produced per collection task
    pub frames_per_task: f64,
    /// seconds per collection task (measured per implementation)
    pub task_time: f64,
    /// shard service time per insert request
    pub insert_time: f64,
    /// shard service time per sample request
    pub sample_time: f64,
    /// shard service time per priority update
    pub priority_update_time: f64,
    /// learner training-step time
    pub train_time: f64,
    /// number of replay shards
    pub num_shards: usize,
    /// seconds of queued shard work tolerated before workers block
    /// (object-store backpressure)
    pub max_shard_backlog: f64,
    /// whether a learner competes for the shards (the paper notes RLlib's
    /// early numbers excluded updating)
    pub learner_enabled: bool,
    /// simulated duration in seconds
    pub duration: f64,
}

impl Default for ApexSimParams {
    fn default() -> Self {
        ApexSimParams {
            num_workers: 16,
            frames_per_task: 800.0,
            task_time: 0.5,
            insert_time: 0.002,
            sample_time: 0.002,
            priority_update_time: 0.001,
            train_time: 0.02,
            num_shards: 4,
            max_shard_backlog: 0.5,
            learner_enabled: true,
            duration: 60.0,
        }
    }
}

/// Output of an Ape-X simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApexSimResult {
    /// aggregate environment frames per second
    pub frames_per_second: f64,
    /// learner updates per second
    pub updates_per_second: f64,
    /// fraction of time the average worker spent collecting (vs blocked)
    pub worker_utilisation: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// worker finished a collection task
    WorkerDone(usize),
    /// learner finished its current phase
    LearnerDone(LearnerPhase),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum LearnerPhase {
    Sampled,
    Trained,
}

/// Runs the discrete-event Ape-X model.
///
/// Mechanics: each worker cyclically spends `task_time` collecting, then
/// posts an insert to a round-robin shard (FCFS server). When a shard's
/// backlog exceeds `max_shard_backlog` seconds, the worker blocks until its
/// insert completes. The learner (once any shard holds data) cycles
/// sample-on-shard → train → priority-update-on-shard. Throughput flattens
/// exactly when shard/learner service rates saturate, which is the
/// mechanism behind the paper's Fig. 6 plateau.
///
/// # Panics
///
/// Panics when `num_workers` or `num_shards` is zero.
pub fn simulate_apex(params: &ApexSimParams) -> ApexSimResult {
    simulate_apex_traced(params, &Recorder::disabled(), None)
}

/// [`simulate_apex`] with span tracing: every collection task, shard
/// request, and learner phase is recorded as an explicit-timestamp span on
/// a per-entity track (`worker-i` / `shard-j` / `learner`), in *virtual*
/// simulated time. If a [`VirtualTime`] clock is supplied (pair it with the
/// recorder via [`Recorder::virtual_time`]) it is advanced to each event's
/// timestamp, so instants and RAII spans taken elsewhere against the same
/// recorder line up with the simulation. The traced run is bit-identical
/// to the untraced one.
pub fn simulate_apex_traced(
    params: &ApexSimParams,
    recorder: &Recorder,
    clock: Option<&VirtualTime>,
) -> ApexSimResult {
    assert!(params.num_workers > 0, "need at least one worker");
    assert!(params.num_shards > 0, "need at least one shard");
    let traced = recorder.is_enabled();
    let worker_tracks: Vec<_> =
        (0..params.num_workers).map(|w| recorder.track(&format!("worker-{w}"))).collect();
    let shard_tracks: Vec<_> =
        (0..params.num_shards).map(|s| recorder.track(&format!("shard-{s}"))).collect();
    let learner_track = recorder.track("learner");
    let us = seconds_to_micros;
    let mut queue: EventQueue<Event> = EventQueue::new();

    let mut shard_free = vec![0.0f64; params.num_shards];
    let mut shard_rr = 0usize;
    let mut learner_rr = 0usize;
    let mut frames = 0.0f64;
    let mut tasks_done = 0u64;
    let mut updates = 0u64;
    let mut learner_started = false;
    let mut blocked_time = 0.0f64;

    for w in 0..params.num_workers {
        // small stagger so the first wave does not collide artificially
        let jitter = params.task_time * (w as f64 / params.num_workers as f64) * 0.1;
        queue.push(params.task_time + jitter, Event::WorkerDone(w));
    }

    while let Some((time, event)) = queue.pop() {
        if time > params.duration {
            break;
        }
        if let Some(vt) = clock {
            vt.set_micros(us(time));
        }
        match event {
            Event::WorkerDone(w) => {
                frames += params.frames_per_task;
                tasks_done += 1;
                let s = shard_rr % params.num_shards;
                shard_rr += 1;
                let start = shard_free[s].max(time);
                let backlog = start - time;
                shard_free[s] = start + params.insert_time;
                let resume = if backlog > params.max_shard_backlog {
                    // backpressure: wait for the insert to finish
                    blocked_time += shard_free[s] - time;
                    shard_free[s]
                } else {
                    time
                };
                if traced {
                    recorder.complete(
                        worker_tracks[w],
                        "collect",
                        us(time - params.task_time),
                        us(time),
                    );
                    recorder.complete(shard_tracks[s], "insert", us(start), us(shard_free[s]));
                    if resume > time {
                        recorder.complete(worker_tracks[w], "blocked", us(time), us(resume));
                    }
                    recorder.sample_at(learner_track, "frames_total", us(time), frames);
                }
                queue.push(resume + params.task_time, Event::WorkerDone(w));
                if params.learner_enabled && !learner_started && tasks_done >= 1 {
                    learner_started = true;
                    // first sample request
                    let s = learner_rr % params.num_shards;
                    learner_rr += 1;
                    let start = shard_free[s].max(time);
                    shard_free[s] = start + params.sample_time;
                    if traced {
                        recorder.complete(shard_tracks[s], "sample", us(start), us(shard_free[s]));
                    }
                    queue.push(shard_free[s], Event::LearnerDone(LearnerPhase::Sampled));
                }
            }
            Event::LearnerDone(LearnerPhase::Sampled) => {
                if traced {
                    recorder.complete(
                        learner_track,
                        "train",
                        us(time),
                        us(time + params.train_time),
                    );
                }
                queue.push(time + params.train_time, Event::LearnerDone(LearnerPhase::Trained));
            }
            Event::LearnerDone(LearnerPhase::Trained) => {
                updates += 1;
                // post the priority update, then request the next sample
                let s_upd = learner_rr % params.num_shards;
                let start_upd = shard_free[s_upd].max(time);
                shard_free[s_upd] = start_upd + params.priority_update_time;
                let s = (learner_rr + 1) % params.num_shards;
                learner_rr += 2;
                let start = shard_free[s].max(time);
                shard_free[s] = start + params.sample_time;
                if traced {
                    recorder.complete(
                        shard_tracks[s_upd],
                        "update_priorities",
                        us(start_upd),
                        us(start_upd + params.priority_update_time),
                    );
                    recorder.complete(shard_tracks[s], "sample", us(start), us(shard_free[s]));
                    recorder.sample_at(learner_track, "updates", us(time), updates as f64);
                }
                queue.push(shard_free[s], Event::LearnerDone(LearnerPhase::Sampled));
            }
        }
    }

    let total_worker_time = params.duration * params.num_workers as f64;
    ApexSimResult {
        frames_per_second: frames / params.duration,
        updates_per_second: updates as f64 / params.duration,
        worker_utilisation: 1.0 - (blocked_time / total_worker_time).clamp(0.0, 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_scales_then_saturates() {
        let base = ApexSimParams { duration: 30.0, ..Default::default() };
        let fps = |w: usize| {
            simulate_apex(&ApexSimParams { num_workers: w, ..base.clone() }).frames_per_second
        };
        let f16 = fps(16);
        let f64w = fps(64);
        let f256 = fps(256);
        // linear-ish early scaling
        assert!(f64w > f16 * 2.5, "16→64 should scale: {} vs {}", f16, f64w);
        // saturation: 4x more workers gives < 4x frames
        assert!(f256 < f64w * 4.0, "should saturate: {} vs {}", f64w, f256);
        assert!(f256 >= f64w * 0.9, "more workers shouldn't collapse throughput");
    }

    #[test]
    fn faster_tasks_give_more_throughput() {
        let slow = simulate_apex(&ApexSimParams { task_time: 1.0, ..Default::default() });
        let fast = simulate_apex(&ApexSimParams { task_time: 0.35, ..Default::default() });
        assert!(fast.frames_per_second > slow.frames_per_second * 2.0);
    }

    #[test]
    fn more_shards_relieve_backpressure() {
        let congested = ApexSimParams {
            num_workers: 256,
            insert_time: 0.01,
            num_shards: 1,
            max_shard_backlog: 0.05,
            duration: 30.0,
            ..Default::default()
        };
        let relieved = ApexSimParams { num_shards: 8, ..congested.clone() };
        let a = simulate_apex(&congested);
        let b = simulate_apex(&relieved);
        assert!(b.frames_per_second > a.frames_per_second);
        assert!(b.worker_utilisation >= a.worker_utilisation);
    }

    #[test]
    fn learner_updates_bounded_by_train_time() {
        let r = simulate_apex(&ApexSimParams {
            train_time: 0.05,
            duration: 20.0,
            ..Default::default()
        });
        assert!(r.updates_per_second <= 1.0 / 0.05 + 1.0);
        assert!(r.updates_per_second > 5.0);
    }

    #[test]
    fn disabling_learner_frees_shards() {
        let with = simulate_apex(&ApexSimParams {
            num_workers: 128,
            sample_time: 0.02,
            num_shards: 1,
            max_shard_backlog: 0.01,
            duration: 20.0,
            ..Default::default()
        });
        let without = simulate_apex(&ApexSimParams {
            learner_enabled: false,
            num_workers: 128,
            sample_time: 0.02,
            num_shards: 1,
            max_shard_backlog: 0.01,
            duration: 20.0,
            ..Default::default()
        });
        assert!(without.frames_per_second >= with.frames_per_second);
        assert_eq!(without.updates_per_second, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        simulate_apex(&ApexSimParams { num_workers: 0, ..Default::default() });
    }

    #[test]
    fn traced_run_matches_untraced_and_advances_virtual_clock() {
        let params =
            ApexSimParams { num_workers: 4, num_shards: 2, duration: 10.0, ..Default::default() };
        let plain = simulate_apex(&params);
        let (rec, vt) = Recorder::virtual_time();
        let traced = simulate_apex_traced(&params, &rec, Some(&vt));
        // tracing must not perturb the simulation
        assert_eq!(plain, traced);
        // the virtual clock sits at the last processed event, within horizon
        assert!(vt.now_seconds() > 0.0);
        assert!(vt.now_seconds() <= params.duration + 1e-9);
        assert!(rec.event_count() > 0);
    }

    #[test]
    fn traced_spans_agree_with_sim_event_times() {
        let params = ApexSimParams {
            num_workers: 2,
            num_shards: 1,
            task_time: 0.5,
            duration: 4.0,
            ..Default::default()
        };
        let (rec, vt) = Recorder::virtual_time();
        simulate_apex_traced(&params, &rec, Some(&vt));
        let totals = rec.span_totals();
        let get = |name: &str| {
            totals
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing span {name}"))
                .1
        };
        // every collect span lasts exactly task_time in virtual micros
        let collect = get("collect");
        assert_eq!(collect.total_us, collect.count * seconds_to_micros(params.task_time));
        // every train span lasts exactly train_time
        let train = get("train");
        assert_eq!(train.total_us, train.count * seconds_to_micros(params.train_time));
        let insert = get("insert");
        assert_eq!(insert.total_us, insert.count * seconds_to_micros(params.insert_time));
        // instants stamped after the run are recorded at the final virtual time
        let before = rec.event_count();
        rec.instant("run-end");
        assert_eq!(rec.event_count(), before + 1);
    }
}
