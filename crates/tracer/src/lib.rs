//! Non-intrusive request tracer (paper §3.3).
//!
//! An LC request traverses several Servpods; the tracer reconstructs its
//! causal path and the time it spent *locally* in each Servpod without
//! instrumenting the application. The paper does this by capturing four
//! kernel events per Servpod via SystemTap:
//!
//! * `syscall_accept` (ACCEPT) — acceptance of a request,
//! * `tcp_rcvmsg` (RECV) — receiving a data package,
//! * `tcp_sendmsg` (SEND) — sending a data package,
//! * `syscall_close` (CLOSE) — close of a request call,
//!
//! each tagged with a **context identifier** `<hostIP, programName,
//! processID, threadID>` and a **message identifier** `<senderIP,
//! senderPort, receiverIP, receiverPort, messageSize>`.
//!
//! This crate implements the full pipeline against simulated event
//! streams:
//!
//! * [`event`] — the event record and identifiers.
//! * [`capture`] — event-stream synthesis from ground-truth request
//!   timelines (what the kernel probe would have produced), including
//!   unrelated-process noise, non-blocking thread interleaving and
//!   persistent-TCP port reuse; the stream leaves in time order, whole
//!   or in pieces released under a watermark while requests are still
//!   being recorded.
//! * [`pairing`] — intra-Servpod causality: FIFO RECV→SEND matching per
//!   context, yielding per-Servpod residence segments and per-request
//!   sojourn times, over a whole trace or fed one event at a time.
//! * [`cpg`] — the causal path graph (Figure 4) from inter-Servpod
//!   message matching.
//!
//! The mismatching hazards the paper analyzes are reproduced faithfully:
//! with non-blocking threads or persistent connections, *individual*
//! sojourn times may be attributed to the wrong request, but the
//! *mean* sojourn per Servpod is invariant (§3.3, Figure 5) — the
//! property tests in this crate verify that identity.
// The workspace is unsafe-free; lock that in at the crate root. If a
// crate ever genuinely needs `unsafe`, downgrade its forbid to
// `#![deny(unsafe_op_in_unsafe_fn)]` and justify every block with a
// `// SAFETY:` comment (clippy's `undocumented_unsafe_blocks` enforces it).
#![forbid(unsafe_code)]

pub mod capture;
pub mod cpg;
pub mod event;
pub mod pairing;

pub use capture::{CaptureConfig, EventCapture, FlatRequest, FlatVisit, VisitLog, VisitNode};
pub use cpg::Cpg;
pub use event::{ContextId, EventKind, MessageId, SysEvent};
pub use pairing::{Pairer, PairingOutput, PairingStream};
