//! Workspace error type.
//!
//! Every service in the workspace returns [`PpcError`] so that the framework
//! layers (Classic Cloud, MapReduce, Dryad) can handle storage/queue/compute
//! failures uniformly, the way a cloud client SDK surfaces HTTP error codes.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, PpcError>;

/// Unified error for all `ppc` services and frameworks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PpcError {
    /// A storage object, queue, file, or task was not found.
    NotFound(String),
    /// The named entity already exists (bucket, queue, path).
    AlreadyExists(String),
    /// The request was understood but is not valid in the current state
    /// (e.g. deleting a message whose receipt handle has expired).
    InvalidState(String),
    /// Bad input from the caller (malformed key, empty task set, ...).
    InvalidArgument(String),
    /// A service was asked to do something after shutdown.
    ServiceStopped(String),
    /// Injected or modeled infrastructure failure (worker death, datanode
    /// loss, transient service error a client is expected to retry).
    Transient(String),
    /// A task's user code failed; carries the task's own message.
    TaskFailed(String),
    /// Capacity exhausted (no instances available, quota hit).
    CapacityExceeded(String),
    /// Serialization / deserialization problems for messages and manifests.
    Codec(String),
    /// The runtime cancelled this attempt (e.g. another attempt of the same
    /// task already committed). Never retryable: the work is not wanted.
    Cancelled(String),
}

impl PpcError {
    /// Whether a client is expected to retry the operation, matching the
    /// retry guidance real cloud SDKs attach to error codes.
    pub fn is_retryable(&self) -> bool {
        matches!(self, PpcError::Transient(_))
    }

    /// Short machine-readable code, handy in logs and test assertions.
    pub fn code(&self) -> &'static str {
        match self {
            PpcError::NotFound(_) => "NotFound",
            PpcError::AlreadyExists(_) => "AlreadyExists",
            PpcError::InvalidState(_) => "InvalidState",
            PpcError::InvalidArgument(_) => "InvalidArgument",
            PpcError::ServiceStopped(_) => "ServiceStopped",
            PpcError::Transient(_) => "Transient",
            PpcError::TaskFailed(_) => "TaskFailed",
            PpcError::CapacityExceeded(_) => "CapacityExceeded",
            PpcError::Codec(_) => "Codec",
            PpcError::Cancelled(_) => "Cancelled",
        }
    }
}

impl fmt::Display for PpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            PpcError::NotFound(m)
            | PpcError::AlreadyExists(m)
            | PpcError::InvalidState(m)
            | PpcError::InvalidArgument(m)
            | PpcError::ServiceStopped(m)
            | PpcError::Transient(m)
            | PpcError::TaskFailed(m)
            | PpcError::CapacityExceeded(m)
            | PpcError::Codec(m)
            | PpcError::Cancelled(m) => m,
        };
        write!(f, "{}: {}", self.code(), msg)
    }
}

impl std::error::Error for PpcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_code_and_message() {
        let e = PpcError::NotFound("bucket 'b'".into());
        assert_eq!(e.to_string(), "NotFound: bucket 'b'");
    }

    #[test]
    fn only_transient_is_retryable() {
        assert!(PpcError::Transient("x".into()).is_retryable());
        assert!(!PpcError::NotFound("x".into()).is_retryable());
        assert!(!PpcError::TaskFailed("x".into()).is_retryable());
        assert!(!PpcError::Cancelled("x".into()).is_retryable());
    }

    #[test]
    fn codes_are_stable() {
        assert_eq!(PpcError::Codec("x".into()).code(), "Codec");
        assert_eq!(
            PpcError::CapacityExceeded("x".into()).code(),
            "CapacityExceeded"
        );
    }
}
