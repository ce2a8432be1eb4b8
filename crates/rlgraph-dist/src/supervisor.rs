//! Actor supervision: restart-on-failure with bounded backoff.
//!
//! A [`Supervisor`] owns a set of named actors (worker threads). Each
//! actor's body runs inside an in-thread restart loop: a panic or a
//! retryable error triggers a backoff-delayed restart (fresh invocation
//! of the body closure), a fatal error or exhausted restart budget stops
//! the actor for good, and a clean `Ok(())` return ends it normally.
//! This is the one-for-one supervision strategy of Erlang/OTP scoped to
//! the distributed-RL actors here (Ape-X workers, IMPALA actors, policy
//! replicas): restarts are per-actor, never cascading.
//!
//! The restart loop runs *inside* the actor's own thread so a restart
//! costs no thread spawn and the supervisor never blocks on a crashed
//! child; all coordination is a shared stop flag plus per-actor atomics
//! that [`Supervisor::join`] folds into a [`SupervisionReport`].

use crate::retry::{RetryPolicy, Sleep, ThreadSleeper};
use rlgraph_core::{RlError, RlResult};
use rlgraph_obs::Recorder;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// How a supervised actor ultimately ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActorOutcome {
    /// The body returned `Ok(())`.
    Completed,
    /// The supervisor's stop flag was raised while the actor waited for
    /// a restart.
    Stopped,
    /// The body kept failing past `max_restarts`; last failure attached.
    GaveUp(String),
    /// A fatal error made restarting pointless.
    Fatal(String),
    /// Still running (only visible in a snapshot before `join`).
    Running,
}

/// Final per-actor accounting.
#[derive(Debug, Clone)]
pub struct ActorReport {
    /// the actor's name
    pub name: String,
    /// completed body invocations beyond the first (i.e. recoveries)
    pub restarts: u64,
    /// failures that were panics rather than typed errors
    pub panics: u64,
    /// how the actor ended
    pub outcome: ActorOutcome,
}

/// Aggregated result of a supervision run.
#[derive(Debug, Clone)]
pub struct SupervisionReport {
    /// per-actor reports, in spawn order
    pub actors: Vec<ActorReport>,
}

impl SupervisionReport {
    /// Total restarts across all actors.
    pub fn total_restarts(&self) -> u64 {
        self.actors.iter().map(|a| a.restarts).sum()
    }

    /// Total panics across all actors.
    pub fn total_panics(&self) -> u64 {
        self.actors.iter().map(|a| a.panics).sum()
    }

    /// Whether every actor either completed or was stopped cleanly.
    pub fn all_healthy(&self) -> bool {
        self.actors
            .iter()
            .all(|a| matches!(a.outcome, ActorOutcome::Completed | ActorOutcome::Stopped))
    }
}

struct ActorSlot {
    name: String,
    restarts: Arc<AtomicU64>,
    panics: Arc<AtomicU64>,
    handle: JoinHandle<ActorOutcome>,
}

/// Supervises a set of actor threads with restart-on-failure semantics.
///
/// ```
/// use rlgraph_dist::{RetryPolicy, Supervisor};
/// use std::sync::atomic::{AtomicU32, Ordering};
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// let mut sup = Supervisor::new(RetryPolicy::builder()
///     .max_attempts(3)
///     .base_delay(Duration::from_micros(100))
///     .build()
///     .unwrap());
/// let tries = Arc::new(AtomicU32::new(0));
/// let t = tries.clone();
/// sup.spawn("flaky-worker", move |_stop| {
///     // fail twice, then succeed — the supervisor restarts us
///     if t.fetch_add(1, Ordering::SeqCst) < 2 {
///         Err(rlgraph_dist::RlError::MailboxFull { capacity: 8 })
///     } else {
///         Ok(())
///     }
/// });
/// let report = sup.join();
/// assert!(report.all_healthy());
/// assert_eq!(report.actors[0].restarts, 2);
/// ```
pub struct Supervisor {
    policy: RetryPolicy,
    stop: Arc<AtomicBool>,
    recorder: Recorder,
    flight_dump: Option<std::path::PathBuf>,
    slots: Vec<ActorSlot>,
}

impl Supervisor {
    /// Creates a supervisor whose restart backoff/budget follows `policy`
    /// (`max_attempts` bounds body invocations per actor, the delays pace
    /// restarts).
    pub fn new(policy: RetryPolicy) -> Self {
        Self::with_recorder(policy, Recorder::disabled())
    }

    /// Like [`Supervisor::new`], recording `supervisor.restarts`,
    /// `supervisor.panics`, `supervisor.gave_up` counters and a
    /// `supervisor.recovery_us` histogram (time from failure to the
    /// restarted body running).
    pub fn with_recorder(policy: RetryPolicy, recorder: Recorder) -> Self {
        Supervisor {
            policy,
            stop: Arc::new(AtomicBool::new(false)),
            recorder,
            flight_dump: None,
            slots: Vec::new(),
        }
    }

    /// Writes the recorder's flight-ring post-mortem to `path` whenever
    /// an actor panics (latest crash wins). Without a path, the dump
    /// goes to stderr. Either way it only fires when the recorder's
    /// flight ring is enabled ([`Recorder::enable_flight`]).
    #[must_use]
    pub fn with_flight_dump(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.flight_dump = Some(path.into());
        self
    }

    /// The shared stop flag; raise it (or call [`Supervisor::stop`]) to
    /// ask all actors to wind down.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        self.stop.clone()
    }

    /// Asks every actor to stop at its next flag check.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Spawns a supervised actor. The body runs until it returns; on
    /// `Err(retryable/degraded)` or panic it is re-invoked after backoff,
    /// up to the policy's attempt budget. The body receives the stop flag
    /// and should poll it in its work loop.
    ///
    /// A spawned actor is owed one run: the supervisor invokes the body
    /// once even when the stop flag is already up (the body sees the flag
    /// and decides), so the outcome is always the body's own. Only
    /// *restarts* are suppressed by the flag, in which case the outcome
    /// is [`ActorOutcome::Stopped`].
    pub fn spawn<F>(&mut self, name: &str, mut body: F)
    where
        F: FnMut(&AtomicBool) -> RlResult<()> + Send + 'static,
    {
        let restarts = Arc::new(AtomicU64::new(0));
        let panics = Arc::new(AtomicU64::new(0));
        let slot_restarts = restarts.clone();
        let slot_panics = panics.clone();
        let stop = self.stop.clone();
        let policy = self.policy.clone();
        let actor_name = name.to_string();
        let restarts_ctr = self.recorder.counter("supervisor.restarts");
        let panics_ctr = self.recorder.counter("supervisor.panics");
        let gave_up_ctr = self.recorder.counter("supervisor.gave_up");
        let recovery_us = self.recorder.histogram("supervisor.recovery_us");
        let recorder = self.recorder.clone();
        let flight_path = self.flight_dump.clone();
        let handle = std::thread::Builder::new()
            .name(format!("sup-{}", name))
            .spawn(move || {
                let sleeper = ThreadSleeper::new();
                let mut attempt: u32 = 0;
                loop {
                    let result = catch_unwind(AssertUnwindSafe(|| body(&stop)));
                    let err = match result {
                        Ok(Ok(())) => return ActorOutcome::Completed,
                        Ok(Err(e)) => e,
                        Err(payload) => {
                            slot_panics.fetch_add(1, Ordering::SeqCst);
                            panics_ctr.inc();
                            let reason = panic_message(payload.as_ref());
                            // Post-mortem: everything the flight ring
                            // retained at the moment of the crash.
                            if let Some(dump) = recorder.flight_render(&format!(
                                "actor '{}' panicked: {}",
                                actor_name, reason
                            )) {
                                match &flight_path {
                                    Some(p) => {
                                        let _ = std::fs::write(p, &dump);
                                    }
                                    None => eprintln!("{}", dump),
                                }
                            }
                            RlError::ActorCrashed { actor: actor_name.clone(), reason }
                        }
                    };
                    // A fatal *typed* error means restarting cannot help;
                    // a panic is treated as restartable (crash-only style).
                    let restartable =
                        !err.is_fatal() || matches!(err, RlError::ActorCrashed { .. });
                    if !restartable {
                        return ActorOutcome::Fatal(err.to_string());
                    }
                    attempt += 1;
                    if attempt >= policy.max_attempts {
                        gave_up_ctr.inc();
                        return ActorOutcome::GaveUp(err.to_string());
                    }
                    let wait = policy.backoff(attempt - 1);
                    let failed_at = sleeper.now();
                    sleeper.sleep(wait);
                    if stop.load(Ordering::SeqCst) {
                        return ActorOutcome::Stopped;
                    }
                    slot_restarts.fetch_add(1, Ordering::SeqCst);
                    restarts_ctr.inc();
                    recovery_us.record((sleeper.now() - failed_at).as_micros() as f64);
                }
            })
            .expect("spawn supervised actor");
        self.slots.push(ActorSlot { name: name.to_string(), restarts, panics, handle });
    }

    /// Snapshot of per-actor restart counts so far (spawn order).
    pub fn restart_counts(&self) -> Vec<(String, u64)> {
        self.slots.iter().map(|s| (s.name.clone(), s.restarts.load(Ordering::SeqCst))).collect()
    }

    /// Waits for all actors to end and returns the final report.
    pub fn join(self) -> SupervisionReport {
        let actors = self
            .slots
            .into_iter()
            .map(|slot| {
                let outcome = slot.handle.join().unwrap_or_else(|payload| {
                    // the restart loop itself panicked (it shouldn't)
                    ActorOutcome::GaveUp(panic_message(payload.as_ref()))
                });
                ActorReport {
                    name: slot.name,
                    restarts: slot.restarts.load(Ordering::SeqCst),
                    panics: slot.panics.load(Ordering::SeqCst),
                    outcome,
                }
            })
            .collect();
        SupervisionReport { actors }
    }

    /// Raises the stop flag, then joins.
    pub fn stop_and_join(self) -> SupervisionReport {
        self.stop();
        self.join()
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::time::Duration;

    fn fast_policy(max_attempts: u32) -> RetryPolicy {
        RetryPolicy::builder()
            .max_attempts(max_attempts)
            .base_delay(Duration::from_micros(100))
            .max_delay(Duration::from_millis(1))
            .build()
            .unwrap()
    }

    #[test]
    fn clean_completion_no_restarts() {
        let mut sup = Supervisor::new(fast_policy(4));
        sup.spawn("ok", |_| Ok(()));
        let report = sup.join();
        assert!(report.all_healthy());
        assert_eq!(report.actors[0].outcome, ActorOutcome::Completed);
        assert_eq!(report.total_restarts(), 0);
    }

    #[test]
    fn retryable_failures_restart_until_success() {
        let mut sup = Supervisor::new(fast_policy(5));
        let tries = Arc::new(AtomicU32::new(0));
        let t = tries.clone();
        sup.spawn("flaky", move |_| {
            if t.fetch_add(1, Ordering::SeqCst) < 3 {
                Err(RlError::MailboxFull { capacity: 2 })
            } else {
                Ok(())
            }
        });
        let report = sup.join();
        assert_eq!(report.actors[0].outcome, ActorOutcome::Completed);
        assert_eq!(report.actors[0].restarts, 3);
        assert_eq!(report.actors[0].panics, 0);
        assert_eq!(tries.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn panics_are_caught_and_restarted() {
        let mut sup = Supervisor::new(fast_policy(4));
        let tries = Arc::new(AtomicU32::new(0));
        let t = tries.clone();
        sup.spawn("crashy", move |_| {
            if t.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("injected crash");
            }
            Ok(())
        });
        let report = sup.join();
        assert_eq!(report.actors[0].outcome, ActorOutcome::Completed);
        assert_eq!(report.actors[0].panics, 2);
        assert_eq!(report.actors[0].restarts, 2);
    }

    #[test]
    fn fatal_error_stops_without_restart() {
        let mut sup = Supervisor::new(fast_policy(8));
        sup.spawn("doomed", |_| Err(RlError::Shutdown));
        let report = sup.join();
        assert!(matches!(report.actors[0].outcome, ActorOutcome::Fatal(_)));
        assert_eq!(report.total_restarts(), 0);
    }

    #[test]
    fn restart_budget_exhaustion_gives_up() {
        let mut sup = Supervisor::new(fast_policy(3));
        sup.spawn("hopeless", |_| Err(RlError::MailboxFull { capacity: 1 }));
        let report = sup.join();
        match &report.actors[0].outcome {
            ActorOutcome::GaveUp(msg) => assert!(msg.contains("mailbox full")),
            other => panic!("expected GaveUp, got {:?}", other),
        }
        // 3 attempts = initial run + 2 restarts
        assert_eq!(report.actors[0].restarts, 2);
        assert!(!report.all_healthy());
    }

    #[test]
    fn stop_raised_before_spawn_still_runs_the_body_once() {
        let mut sup = Supervisor::new(fast_policy(4));
        sup.stop();
        let runs = Arc::new(AtomicU32::new(0));
        let r = runs.clone();
        sup.spawn("late", move |stop| {
            assert!(stop.load(Ordering::SeqCst), "the body sees the raised flag");
            r.fetch_add(1, Ordering::SeqCst);
            Err(RlError::Shutdown)
        });
        let report = sup.join();
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert!(matches!(report.actors[0].outcome, ActorOutcome::Fatal(_)), "{:?}", report);
    }

    #[test]
    fn stop_flag_reaches_actors() {
        let mut sup = Supervisor::new(fast_policy(4));
        sup.spawn("looper", move |stop| {
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_micros(200));
            }
            Ok(())
        });
        std::thread::sleep(Duration::from_millis(2));
        let report = sup.stop_and_join();
        assert!(report.all_healthy());
    }
}
