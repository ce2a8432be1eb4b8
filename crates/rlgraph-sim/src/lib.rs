//! Calibrated discrete-event simulation of distributed RL coordination.
//!
//! The paper's scaling experiments (Figs. 6 and 9) run up to 256 workers
//! on a GCP cluster. This reproduction executes on a single CPU core, so
//! wall-clock scaling cannot be measured natively. Instead, the benchmark
//! harness *measures* the real per-task costs of each implementation
//! (collection-task time, shard insert, learner step, rollout time …) on
//! this machine, then replays the coordination pattern at scale on these
//! simulators. Relative shapes — who wins, where curves flatten — emerge
//! from the same mechanisms the paper identifies (per-call overheads,
//! shard/learner saturation), not from assumed numbers. See DESIGN.md §2.
//!
//! * [`apex::simulate_apex`] — workers → replay shards → learner loop.
//! * [`impala::simulate_impala`] — actors → bounded queue → learner.
//! * [`clock::VirtualClock`] — virtual-time accounting for learning-curve
//!   experiments (Figs. 7b and 8).

pub mod apex;
pub mod clock;
pub mod impala;
mod sim;

pub use apex::{simulate_apex, simulate_apex_traced, ApexSimParams, ApexSimResult};
pub use clock::VirtualClock;
pub use impala::{simulate_impala, simulate_impala_traced, ImpalaSimParams, ImpalaSimResult};
