//! Batched, multi-replica policy serving for rlgraph.
//!
//! The same component graph that trains a policy can serve it: this crate
//! compiles an act-only graph into N executor replicas (one per worker
//! thread), puts a bounded admission queue with configurable backpressure
//! in front of them, and coalesces concurrent single-observation requests
//! into micro-batches along the observation space's batch rank. A shared
//! [`WeightHub`](rlgraph_dist::WeightHub) gives all replicas versioned
//! hot weight swap, so a learner can publish snapshots while the fleet
//! keeps serving.
//!
//! ```
//! use rlgraph_nn::{Activation, NetworkSpec};
//! use rlgraph_serve::{greedy_policy_replica, PolicyServer, ServeConfig};
//! use rlgraph_spaces::Space;
//! use rlgraph_tensor::{DType, Tensor};
//!
//! let space = Space::float_box_bounded(&[4], -1.0, 1.0);
//! let network = NetworkSpec::mlp(&[16], Activation::Tanh);
//! let replica_space = space.clone();
//! let server = PolicyServer::spawn(
//!     ServeConfig { num_replicas: 2, ..ServeConfig::default() },
//!     space,
//!     rlgraph_obs::Recorder::wall(),
//!     move |_i| Ok(Box::new(greedy_policy_replica(&network, &replica_space, 3, false, 7)?)),
//! )
//! .unwrap();
//! let client = server.client();
//! let action = client.act(Tensor::zeros(&[4], DType::F32)).unwrap();
//! assert_eq!(action.shape(), &[] as &[usize]);
//! server.shutdown();
//! ```

mod config;
mod error;
mod queue;
mod replica;
mod server;

pub use config::{BackpressurePolicy, ServeConfig, ServeConfigBuilder};
pub use error::ServeError;
pub use replica::{greedy_policy_replica, ExecutorReplica, PolicyReplica};
pub use server::{PolicyClient, PolicyServer};
