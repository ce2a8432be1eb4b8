//! rlgraph-net: a from-scratch TCP transport, RPC layer, and
//! multi-process runtime for rlgraph's distributed execution and
//! serving (DESIGN.md §11).
//!
//! Everything is built on `std::net` — no async runtime, no external
//! networking crates — mirroring how the rest of the workspace builds
//! its machinery from the ground up:
//!
//! * [`wire`] — little-endian scalar encode/decode and CRC32.
//! * [`frame`] — length-prefixed frames with magic/version header and
//!   CRC trailer; corrupt or truncated input is a typed error, never a
//!   panic or an OOM.
//! * [`codec`] — binary encodings for the workspace's core types:
//!   tensors, spaces, transitions/trajectories, weight snapshots,
//!   learner checkpoints, and the full [`RlError`](rlgraph_core::RlError)
//!   taxonomy (errors cross the wire with their severity class intact).
//! * [`rpc`] — thread-per-connection request/response RPC with request
//!   ids, per-call deadlines, and retry/backoff via
//!   [`RetryPolicy`](rlgraph_dist::RetryPolicy): the blocking schedule
//!   over `rlgraph_reactor::call`, where the call protocol lives.
//! * [`services`] — replay shards and the learner coordinator as RPC
//!   services with typed clients.
//! * [`proc`] — worker specs and the re-exec child launcher.
//! * [`apex_net`] — Ape-X as real OS processes on localhost.
//! * [`serve_tcp`] — a TCP front-end feeding the policy server's
//!   admission queue, so remote clients coalesce in the micro-batcher.
//! * [`proxy`] — deterministic seeded fault injection (delay / drop /
//!   partition) between any client and server.

#![warn(missing_docs)]

pub mod apex_net;
pub mod codec;
pub mod fragment_remote;
pub mod proc;
pub mod proxy;
pub mod rpc;
pub mod serve_tcp;
pub mod services;
pub mod transport;

// The byte-level layers (wire primitives, frame format, trace/error
// codecs, the `RpcService` trait) moved down into `rlgraph-reactor` so
// the blocking and readiness-driven stacks share one codec; the module
// re-exports keep every `rlgraph_net::frame::...` path working.
pub use rlgraph_reactor::{frame, wire};

pub use apex_net::{
    run_apex_net, ElasticConfig, LaunchMode, NetApexConfig, NetApexConfigBuilder, NetApexStats,
    ThroughputPoint,
};
pub use fragment_remote::{net_apex_placement, validate_net_apex};
pub use frame::{
    read_frame, write_frame, FrameKind, FRAME_OVERHEAD, MAGIC, MAX_FRAME_LEN, VERSION,
};
pub use proc::{maybe_run_child, run_worker, spawn_worker, EnvSpec, WorkerSpec, WORKER_ENV_VAR};
pub use proxy::{Direction, FaultProxy, FaultProxyConfig};
pub use rpc::{RpcClient, RpcServer, RpcService};
pub use serve_tcp::{NetPolicyClient, ServeTcpFrontend};
pub use services::{
    CoordClient, CoordProgress, CoordService, Heartbeat, ShardClient, ShardService,
};
pub use transport::{ServerHandle, Transport};
pub use wire::{crc32, ByteReader, ByteWriter};
