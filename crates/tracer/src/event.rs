//! System-event records and identifiers.

use rhythm_sim::SimTime;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The four event types the tracer records in each Servpod (§3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// `syscall_accept`: acceptance of a request.
    Accept,
    /// `tcp_rcvmsg`: receiving a data package.
    Recv,
    /// `tcp_sendmsg`: sending a data package.
    Send,
    /// `syscall_close`: close of a request call.
    Close,
}

/// Context identifier: `<hostIP, programName, processID, threadID>`.
///
/// Used to filter noise from unrelated processes and to establish
/// intra-Servpod causality (a RECV happens-before a SEND sharing the same
/// context). Hashes as two packed `u64` words.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ContextId {
    /// Host (machine) address; one Servpod per host in this deployment.
    pub host_ip: u32,
    /// Program name, interned as an id (e.g. 1 = "mysqld").
    pub program: u32,
    /// Process id.
    pub process_id: u32,
    /// Thread id.
    pub thread_id: u32,
}

/// Message identifier:
/// `<senderIP, senderPort, receiverIP, receiverPort, messageSize>`.
///
/// Used to establish inter-Servpod causality (a SEND happens-before the
/// RECV with the same identifier on the neighbour Servpod). Hashes as
/// two packed `u64` words.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MessageId {
    /// Sender host address.
    pub sender_ip: u32,
    /// Sender TCP port (ephemeral per request-hop, or fixed under
    /// persistent connections).
    pub sender_port: u16,
    /// Receiver host address.
    pub receiver_ip: u32,
    /// Receiver TCP port.
    pub receiver_port: u16,
    /// Message size in bytes.
    pub message_size: u32,
}

/// One captured system event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SysEvent {
    /// Event type.
    pub kind: EventKind,
    /// Capture timestamp.
    pub timestamp: SimTime,
    /// Context identifier of the capturing process.
    pub ctx: ContextId,
    /// Message identifier of the packet (zeroed for ACCEPT/CLOSE).
    pub msg: MessageId,
}

impl Hash for ContextId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64((u64::from(self.host_ip) << 32) | u64::from(self.program));
        state.write_u64((u64::from(self.process_id) << 32) | u64::from(self.thread_id));
    }
}

impl Hash for MessageId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64((u64::from(self.sender_ip) << 32) | u64::from(self.receiver_ip));
        state.write_u64(
            (u64::from(self.sender_port) << 48)
                | (u64::from(self.receiver_port) << 32)
                | u64::from(self.message_size),
        );
    }
}

impl MessageId {
    /// The all-zero identifier used for ACCEPT/CLOSE events.
    pub const NONE: MessageId = MessageId {
        sender_ip: 0,
        sender_port: 0,
        receiver_ip: 0,
        receiver_port: 0,
        message_size: 0,
    };

    /// The identifier of the reverse direction (reply on the same
    /// connection).
    pub fn reversed(&self, size: u32) -> MessageId {
        MessageId {
            sender_ip: self.receiver_ip,
            sender_port: self.receiver_port,
            receiver_ip: self.sender_ip,
            receiver_port: self.sender_port,
            message_size: size,
        }
    }

    /// The connection 4-tuple, ignoring message size (two messages on the
    /// same persistent connection share this).
    pub fn connection(&self) -> (u32, u16, u32, u16) {
        (
            self.sender_ip,
            self.sender_port,
            self.receiver_ip,
            self.receiver_port,
        )
    }
}

impl fmt::Display for SysEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?}@{} host{} prog{} pid{} tid{} [{}:{}->{}:{} {}B]",
            self.kind,
            self.timestamp,
            self.ctx.host_ip,
            self.ctx.program,
            self.ctx.process_id,
            self.ctx.thread_id,
            self.msg.sender_ip,
            self.msg.sender_port,
            self.msg.receiver_ip,
            self.msg.receiver_port,
            self.msg.message_size
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reversed_swaps_endpoints() {
        let m = MessageId {
            sender_ip: 1,
            sender_port: 100,
            receiver_ip: 2,
            receiver_port: 200,
            message_size: 64,
        };
        let r = m.reversed(128);
        assert_eq!(r.sender_ip, 2);
        assert_eq!(r.sender_port, 200);
        assert_eq!(r.receiver_ip, 1);
        assert_eq!(r.receiver_port, 100);
        assert_eq!(r.message_size, 128);
    }

    #[test]
    fn connection_ignores_size() {
        let a = MessageId {
            sender_ip: 1,
            sender_port: 2,
            receiver_ip: 3,
            receiver_port: 4,
            message_size: 10,
        };
        let b = MessageId {
            message_size: 999,
            ..a
        };
        assert_eq!(a.connection(), b.connection());
    }

    #[test]
    fn display_is_readable() {
        let e = SysEvent {
            kind: EventKind::Recv,
            timestamp: SimTime::from_millis(5),
            ctx: ContextId {
                host_ip: 7,
                program: 1,
                process_id: 42,
                thread_id: 3,
            },
            msg: MessageId::NONE,
        };
        let s = format!("{e}");
        assert!(s.contains("Recv"));
        assert!(s.contains("host7"));
    }
}
