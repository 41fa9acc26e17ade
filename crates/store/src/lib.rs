//! Content-addressed, versioned on-disk artifact store.
//!
//! DeRemer & Pennello's economics are compile-once/reuse-forever; this
//! crate extends "forever" across process restarts. A [`Store`] is a
//! directory of [`ArtifactRecord`] files keyed by the service's content
//! fingerprint, serialized in a sectioned binary format (see
//! [`format`](mod@format)): a fixed 64-byte header (magic, format
//! version, total length, fingerprint, word-lane checksum), a section
//! directory of `(kind, offset, len)` triples, and 8-byte-aligned
//! section bodies. The ACTION and GOTO tables are stored as sparse
//! sorted rows — an LALR table is almost all error entries — and a load
//! decodes them back into the same dense in-memory
//! [`lalr_tables::ParseTable`], checking every index before it is
//! written.
//!
//! Durability is rename-based: publishes write a process-unique temp
//! file, `fsync`, then atomically rename over the final name. A crash
//! at any point leaves either the old artifact or a stale temp file
//! (swept by [`Store::gc`]) — never a half-written file under the
//! final name. Every load re-verifies the checksum, so even bytes torn
//! *after* a successful publish (bit rot, lost sectors, chaos
//! injection) degrade to [`Loaded::Corrupt`] and a recompile, never to
//! a garbage parse table.
//!
//! Failpoints `store.write` (clean error / torn / truncated / garbage
//! publishes) and `store.read` (checksum corruption on the read path,
//! or a panic inside the load) make both failure families
//! deterministically injectable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
mod store;

pub use format::{ArtifactRecord, FormatError, FORMAT_VERSION, MAGIC};
pub use store::{GcReport, Loaded, Store, StoreEntry, VerifyReport};
