//! Error types for component-graph construction, execution, and the
//! distributed/serving layers built on top of them.
//!
//! Two surfaces live here:
//!
//! * [`CoreError`] — the original build/execution error. Still what the
//!   builder and executors produce internally (its *input-incomplete*
//!   flag drives the builder's defer-and-retry fixpoint).
//! * [`RlError`] — the unified, workspace-wide taxonomy. Every failure a
//!   cross-actor call can produce (mailbox saturation, disconnects,
//!   deadlines, shed load, quorum loss, checkpoint corruption, crashed
//!   actors) is a variant, and every variant has a [`Severity`] class
//!   that retry/supervision policies dispatch on. `ServeError`
//!   (rlgraph-serve) converts into `RlError` via `From`.

use std::fmt;

/// Error produced while assembling, building, or executing a component
/// graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreError {
    message: String,
    input_incomplete: bool,
}

impl CoreError {
    /// Creates a new error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        CoreError { message: message.into(), input_incomplete: false }
    }

    /// Creates an *input-incomplete* error: the paper's build constraint
    /// "component computations and internal variables are only created once
    /// its input spaces are known". The builder treats these as *defer and
    /// retry* rather than hard failures (its breadth-first fixpoint).
    pub fn input_incomplete(message: impl Into<String>) -> Self {
        CoreError { message: message.into(), input_incomplete: true }
    }

    /// Whether the builder should defer and retry this method.
    pub fn is_input_incomplete(&self) -> bool {
        self.input_incomplete
    }

    /// The human-readable message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CoreError {}

impl From<rlgraph_tensor::TensorError> for CoreError {
    fn from(e: rlgraph_tensor::TensorError) -> Self {
        CoreError::new(e.message())
    }
}

impl From<rlgraph_graph::GraphError> for CoreError {
    fn from(e: rlgraph_graph::GraphError) -> Self {
        CoreError::new(e.message())
    }
}

impl From<rlgraph_spaces::SpaceError> for CoreError {
    fn from(e: rlgraph_spaces::SpaceError) -> Self {
        CoreError::new(e.message())
    }
}

/// How a failure should be handled by retry and supervision policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// Transient: the same call may succeed if repeated (saturated
    /// mailbox, expired deadline, shed request, exhausted quorum wait).
    /// Retry policies back off and re-issue these.
    Retryable,
    /// The subsystem keeps operating with reduced guarantees (quorum of
    /// replay shards instead of all, acting on stale weights within the
    /// configured lag bound). Callers proceed but should surface it.
    Degraded,
    /// Permanent for this call or actor: retrying cannot help (build
    /// errors, disconnected channels, corrupt checkpoints, shutdown).
    /// Supervisors restart the owning actor instead of retrying the call.
    Fatal,
}

/// The unified error for everything above the tensor/graph layer: one
/// enum, one [`Severity`] classification, `From` conversions from every
/// legacy error so `?` keeps working at existing call sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RlError {
    /// Component-graph build or execution failure (wraps [`CoreError`]).
    Core(CoreError),
    /// An actor's bounded mailbox is at capacity (`capacity` pending
    /// requests); the submission was rejected, not lost.
    MailboxFull {
        /// the mailbox bound
        capacity: usize,
    },
    /// A channel peer (actor, reply slot) has shut down and will never
    /// answer.
    Disconnected {
        /// which actor/channel, for diagnostics
        actor: String,
    },
    /// A deadline passed before the call completed.
    DeadlineExpired {
        /// what timed out (API method, request kind)
        what: String,
    },
    /// The admission queue is full and the backpressure policy rejects.
    QueueFull {
        /// the admission-queue bound
        capacity: usize,
    },
    /// The request was evicted to admit newer work (shed-oldest).
    Shed,
    /// The subsystem is shutting down (or shut down mid-request).
    Shutdown,
    /// Execution failed inside a replica/worker with a backend message.
    Exec(String),
    /// A retry policy gave up: `attempts` tries, last failure attached.
    RetriesExhausted {
        /// attempts performed (including the first)
        attempts: u32,
        /// the final error
        last: Box<RlError>,
    },
    /// Fewer healthy replay shards than the configured quorum.
    QuorumLost {
        /// shards currently serving
        healthy: usize,
        /// minimum required
        required: usize,
    },
    /// A checkpoint failed to serialize, deserialize, or validate.
    Checkpoint(String),
    /// A supervised actor crashed (panic or fatal error) and is being
    /// (or can no longer be) restarted.
    ActorCrashed {
        /// actor name
        actor: String,
        /// panic payload / error message
        reason: String,
    },
    /// An OS-level I/O failure (socket, pipe, file), classified by its
    /// [`std::io::ErrorKind`]: `WouldBlock`/`TimedOut`/`ConnectionReset`
    /// are [`Severity::Retryable`] (re-issue, possibly after a
    /// reconnect), every other kind is [`Severity::Fatal`].
    Io {
        /// the OS error kind driving severity classification
        kind: std::io::ErrorKind,
        /// the OS error message
        message: String,
    },
    /// A peer violated the wire protocol: bad magic, unsupported
    /// version, a corrupt checksum, an over-long frame, or a payload
    /// that does not decode. The connection cannot be trusted further.
    Protocol(String),
    /// A cluster member presented an incarnation older than the one the
    /// membership table holds — a restarted or re-joined member must
    /// not alias the stale entry's liveness. The superseded process has
    /// to stop, not retry: its slot belongs to a newer incarnation.
    StaleGeneration {
        /// member id (worker index) the beat or join was for
        member: u32,
        /// generation the membership table currently holds
        held: u64,
        /// the stale generation the caller presented
        presented: u64,
    },
}

impl RlError {
    /// The severity class retry/supervision policies dispatch on.
    pub fn severity(&self) -> Severity {
        use std::io::ErrorKind;
        match self {
            RlError::MailboxFull { .. }
            | RlError::DeadlineExpired { .. }
            | RlError::Shed
            | RlError::QueueFull { .. } => Severity::Retryable,
            RlError::Io { kind, .. } => match kind {
                ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::ConnectionReset => {
                    Severity::Retryable
                }
                _ => Severity::Fatal,
            },
            RlError::QuorumLost { .. } => Severity::Degraded,
            RlError::Core(_)
            | RlError::Disconnected { .. }
            | RlError::Shutdown
            | RlError::Exec(_)
            | RlError::RetriesExhausted { .. }
            | RlError::Checkpoint(_)
            | RlError::ActorCrashed { .. }
            | RlError::Protocol(_)
            | RlError::StaleGeneration { .. } => Severity::Fatal,
        }
    }

    /// Whether a retry policy should re-issue the failed call.
    pub fn is_retryable(&self) -> bool {
        self.severity() == Severity::Retryable
    }

    /// Whether the caller may proceed with reduced guarantees.
    pub fn is_degraded(&self) -> bool {
        self.severity() == Severity::Degraded
    }

    /// Whether retrying the same call is pointless.
    pub fn is_fatal(&self) -> bool {
        self.severity() == Severity::Fatal
    }

    /// Convenience constructor for deadline failures.
    pub fn deadline(what: impl Into<String>) -> Self {
        RlError::DeadlineExpired { what: what.into() }
    }

    /// Convenience constructor for disconnected peers.
    pub fn disconnected(actor: impl Into<String>) -> Self {
        RlError::Disconnected { actor: actor.into() }
    }
}

impl fmt::Display for RlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RlError::Core(e) => write!(f, "{}", e),
            RlError::MailboxFull { capacity } => {
                write!(f, "mailbox full ({} pending requests)", capacity)
            }
            RlError::Disconnected { actor } => write!(f, "'{}' disconnected", actor),
            RlError::DeadlineExpired { what } => write!(f, "deadline expired on '{}'", what),
            RlError::QueueFull { capacity } => {
                write!(f, "admission queue full ({} pending requests)", capacity)
            }
            RlError::Shed => write!(f, "request shed to admit newer work"),
            RlError::Shutdown => write!(f, "shutting down"),
            RlError::Exec(msg) => write!(f, "execution failed: {}", msg),
            RlError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {} attempts: {}", attempts, last)
            }
            RlError::QuorumLost { healthy, required } => {
                write!(f, "shard quorum lost: {} healthy, {} required", healthy, required)
            }
            RlError::Checkpoint(msg) => write!(f, "checkpoint error: {}", msg),
            RlError::ActorCrashed { actor, reason } => {
                write!(f, "actor '{}' crashed: {}", actor, reason)
            }
            RlError::Io { kind, message } => write!(f, "i/o error ({:?}): {}", kind, message),
            RlError::Protocol(msg) => write!(f, "protocol violation: {}", msg),
            RlError::StaleGeneration { member, held, presented } => write!(
                f,
                "stale generation for member {}: table holds {}, caller presented {}",
                member, held, presented
            ),
        }
    }
}

impl std::error::Error for RlError {}

impl From<CoreError> for RlError {
    fn from(e: CoreError) -> Self {
        RlError::Core(e)
    }
}

/// Collapses the taxonomy back into a message-carrying [`CoreError`] so
/// legacy `rlgraph_core::Result` call sites can `?` an [`RlError`].
impl From<RlError> for CoreError {
    fn from(e: RlError) -> Self {
        match e {
            RlError::Core(c) => c,
            other => CoreError::new(other.to_string()),
        }
    }
}

/// Classifies an OS I/O failure into the taxonomy so network and file
/// code needs no ad-hoc error mapping: `WouldBlock`, `TimedOut`, and
/// `ConnectionReset` become retryable, everything else is fatal.
impl From<std::io::Error> for RlError {
    fn from(e: std::io::Error) -> Self {
        RlError::Io { kind: e.kind(), message: e.to_string() }
    }
}

impl From<rlgraph_tensor::TensorError> for RlError {
    fn from(e: rlgraph_tensor::TensorError) -> Self {
        RlError::Core(CoreError::from(e))
    }
}

impl From<rlgraph_graph::GraphError> for RlError {
    fn from(e: rlgraph_graph::GraphError) -> Self {
        RlError::Core(CoreError::from(e))
    }
}

impl From<rlgraph_spaces::SpaceError> for RlError {
    fn from(e: rlgraph_spaces::SpaceError) -> Self {
        RlError::Core(CoreError::from(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incomplete_flag() {
        assert!(!CoreError::new("x").is_input_incomplete());
        assert!(CoreError::input_incomplete("y").is_input_incomplete());
    }

    #[test]
    fn conversions() {
        let e: CoreError = rlgraph_tensor::TensorError::new("t").into();
        assert_eq!(e.message(), "t");
        let e: CoreError = rlgraph_graph::GraphError::new("g").into();
        assert_eq!(e.message(), "g");
        let e: CoreError = rlgraph_spaces::SpaceError::new("s").into();
        assert_eq!(e.to_string(), "s");
    }

    #[test]
    fn severity_classes() {
        assert_eq!(RlError::MailboxFull { capacity: 4 }.severity(), Severity::Retryable);
        assert_eq!(RlError::deadline("act").severity(), Severity::Retryable);
        assert_eq!(RlError::Shed.severity(), Severity::Retryable);
        assert_eq!(RlError::QuorumLost { healthy: 1, required: 2 }.severity(), Severity::Degraded);
        assert!(RlError::Shutdown.is_fatal());
        assert!(RlError::disconnected("shard-0").is_fatal());
        assert!(RlError::Core(CoreError::new("bad build")).is_fatal());
        assert!(RlError::Checkpoint("truncated".into()).is_fatal());
        assert!(RlError::StaleGeneration { member: 0, held: 2, presented: 1 }.is_fatal());
    }

    #[test]
    fn io_errors_classify_by_kind() {
        use std::io::{Error, ErrorKind};
        for kind in [ErrorKind::WouldBlock, ErrorKind::TimedOut, ErrorKind::ConnectionReset] {
            let e: RlError = Error::new(kind, "transient").into();
            assert!(e.is_retryable(), "{:?} should be retryable", kind);
        }
        for kind in [
            ErrorKind::NotFound,
            ErrorKind::PermissionDenied,
            ErrorKind::BrokenPipe,
            ErrorKind::ConnectionRefused,
            ErrorKind::UnexpectedEof,
        ] {
            let e: RlError = Error::new(kind, "permanent").into();
            assert!(e.is_fatal(), "{:?} should be fatal", kind);
        }
        let e: RlError = Error::new(ErrorKind::TimedOut, "slow peer").into();
        assert!(e.to_string().contains("slow peer"));
    }

    #[test]
    fn protocol_violations_are_fatal() {
        let e = RlError::Protocol("bad magic 0xdeadbeef".into());
        assert!(e.is_fatal());
        assert!(e.to_string().contains("bad magic"));
    }

    #[test]
    fn retries_exhausted_wraps_last_error() {
        let last = RlError::MailboxFull { capacity: 8 };
        let e = RlError::RetriesExhausted { attempts: 3, last: Box::new(last.clone()) };
        assert!(e.is_fatal());
        assert!(e.to_string().contains("3 attempts"));
        assert!(e.to_string().contains("8 pending"));
        match e {
            RlError::RetriesExhausted { last: l, .. } => assert_eq!(*l, last),
            _ => unreachable!(),
        }
    }

    #[test]
    fn core_roundtrip_preserves_message() {
        let rl = RlError::deadline("sample");
        let core: CoreError = rl.clone().into();
        assert_eq!(core.message(), rl.to_string());
        let back: RlError = core.into();
        assert!(matches!(back, RlError::Core(_)));
    }
}
