//! rlgraph-reactor: a std-only, readiness-driven network runtime for
//! rlgraph (DESIGN.md §13) — serve 10k connections, not 10k threads.
//!
//! The blocking transport in `rlgraph-net` pays one OS thread (and one
//! full stack) per connection, which caps concurrency at thread-spawn
//! limits long before socket limits. This crate replaces that model
//! with a single event-loop thread per server multiplexing every
//! connection through `epoll`, built from scratch on `std` plus a thin
//! FFI shim over the handful of syscalls `std::net` does not expose:
//!
//! * [`sys`] — the FFI shim: `epoll_create1`/`epoll_ctl`/`epoll_wait`,
//!   `eventfd` (the cross-thread waker), `fcntl` (`O_NONBLOCK`),
//!   `poll` (single-fd readiness waits for the blocking stack), and
//!   `clock_gettime`/`setrlimit` for the bench/CPU accounting paths.
//! * [`poll`] — [`Poller`] (an epoll instance with
//!   registration tokens and interest sets) and
//!   [`Waker`] (an eventfd any thread can ring to pull
//!   the event loop out of `epoll_wait`).
//! * [`timer`] — a hierarchical [`TimerWheel`]
//!   (1 ms ticks, 4 levels × 64 slots) driving per-request deadlines,
//!   heartbeats, and idle-connection reaping without per-timer threads.
//! * [`wire`] / [`frame`] — the little-endian primitives, CRC32, and
//!   length-prefixed frame format shared with the blocking stack
//!   (moved here so both stacks literally run the same codec), plus
//!   the **incremental** [`FrameDecoder`] and the
//!   partial-write-safe [`WriteQueue`] the state
//!   machines are built from.
//! * [`mod@compress`] — the LZ77-style byte compressor frames opt into
//!   per payload (DESIGN.md §14): greedy hash-chain matcher, bounded
//!   window, raw passthrough for incompressible data.
//! * [`codec`] — the wire forms of [`TraceContext`](rlgraph_obs::TraceContext)
//!   and the [`RlError`](rlgraph_core::RlError) taxonomy, so telemetry
//!   and typed failures cross the mux protocol exactly as they cross
//!   the blocking one.
//! * [`service`] — the [`RpcService`] dispatch
//!   trait; `rlgraph-net`'s services plug into either stack unchanged.
//! * [`call`] — the RPC call protocol, written once for both stacks:
//!   request/response payloads, the client's trace edge, latency
//!   histograms, and serving one request into an [`RpcService`].
//! * [`mux`] — the multiplexed RPC stack, an event-loop schedule over
//!   [`call`]:
//!   [`MuxServer`] (event loop + handler pool, many
//!   in-flight request ids per connection, out-of-order completion)
//!   and [`MuxClient`] (shareable, callback-based,
//!   per-request deadlines, transparent reconnect).
//!
//! The mux protocol is the blocking RPC stack's protocol — one frame
//! format, one version word (checked, never negotiated: every peer is
//! this build), the same `[req_id][method][body]` /
//! `[req_id][status][body|error]` payloads out of the same [`call`]
//! functions — so a blocking
//! `RpcClient` can talk to a [`MuxServer`] and a
//! [`MuxClient`] can talk to a blocking server (one
//! request at a time). What changes is concurrency: the mux peers keep
//! many request ids in flight per connection and complete them in
//! whatever order the handlers finish.

#![warn(missing_docs)]

pub mod call;
pub mod codec;
pub mod compress;
pub mod conn;
pub mod frame;
pub mod mux;
pub mod poll;
pub mod service;
pub mod sys;
pub mod timer;
pub mod wire;

pub use compress::{compress, decompress, LzEncoder, COMPRESS_OVERHEAD};
pub use conn::WriteQueue;
pub use frame::{
    encode_frame_lz, read_frame, write_frame, Frame, FrameDecoder, FrameKind, CAP_LZ,
    COMPRESS_MIN_LEN, FLAG_COMPRESSED, FRAME_OVERHEAD, MAGIC, MAX_FRAME_LEN, VERSION,
};
pub use mux::{MuxClient, MuxClientConfig, MuxServer, MuxServerConfig, ReplyHandle};
pub use poll::{Event, Interest, Poller, Token, Waker};
pub use service::RpcService;
pub use timer::{TimerKey, TimerWheel};
pub use wire::{crc32, ByteReader, ByteWriter};
