//! Dependency-free readiness-driven I/O primitives.
//!
//! The workspace's external dependencies are vendored shims; this crate
//! extends the same discipline to the operating system: instead of
//! `libc`/`mio` it issues the handful of Linux syscalls the daemon needs
//! directly (see [`sys`]), and wraps them in safe types:
//!
//! * [`Poller`] / [`Waker`] — an edge-triggered epoll event loop with
//!   cross-thread wake-up (eventfd);
//! * [`TimerWheel`] — hashed-wheel connection timeouts with O(1) lazy
//!   cancellation;
//! * [`TokenBucket`] — a caller-clocked token bucket for request
//!   admission (pure state machine, deterministic under test);
//! * [`LineReader`] / [`WriteBuf`] — per-connection buffers for
//!   newline framing with a line-length cap under nonblocking reads and
//!   partial writes.
//!
//! All `unsafe` in the workspace's service stack lives behind this
//! crate's [`sys`] module; everything above it (including the epoll
//! front end in `lalr-service`) stays `#![forbid(unsafe_code)]`.

#![warn(missing_docs)]

pub mod bucket;
pub mod buf;
pub mod poll;
pub mod sys;
pub mod timer;

pub use bucket::TokenBucket;
pub use buf::{LineEvent, LineReader, WriteBuf};
pub use poll::{Event, Interest, PollStats, Poller, Waker};
pub use timer::{Expired, TimerWheel};

/// `true` when the raw epoll/eventfd backend is available on this
/// target (x86-64 Linux).
pub fn supported() -> bool {
    sys::supported()
}
