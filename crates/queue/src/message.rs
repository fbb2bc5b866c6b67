//! Message identity and receipt handles.

use std::fmt;

/// Stable identity of a message, assigned at send time. The same id is seen
/// by every receiver of every redelivery of the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageId(pub u64);

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "msg-{}", self.0)
    }
}

/// A single-use token proving a particular *receive* of a message. Deletion
/// requires the receipt of the most recent receive — once the visibility
/// timeout lapses and the message reappears, old receipts are dead, exactly
/// as with SQS receipt handles. Receipts are issued in increasing order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReceiptHandle(pub u64);

impl fmt::Display for ReceiptHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rcpt-{}", self.0)
    }
}

/// A received message as handed to a consumer.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    pub id: MessageId,
    /// Opaque body; the Classic Cloud framework stores a serialized
    /// `TaskSpec` here ("every message in the queue describes a single task").
    pub body: String,
    /// Receipt for this receive; required to delete the message.
    pub receipt: ReceiptHandle,
    /// How many times this message has been received, including this one.
    /// First delivery is 1; anything higher means a redelivery (a prior
    /// consumer died, stalled past the timeout, or chaos duplicated it).
    pub receive_count: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(MessageId(4).to_string(), "msg-4");
        assert_eq!(ReceiptHandle(9).to_string(), "rcpt-9");
    }
}
