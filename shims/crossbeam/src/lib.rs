//! Offline stand-in for the subset of `crossbeam` this workspace uses.
//!
//! The build is fully offline, so the real `crossbeam` cannot be fetched.
//! The one call site is `gaasx_core::ShardedEngine`, whose shard workers
//! run under `crossbeam::thread::scope`; this shim maps that name (and
//! `crossbeam::scope`) onto std's scoped-thread API.

#![warn(missing_docs)]

/// Scoped thread support mirroring `crossbeam::thread` on top of std.
pub mod thread {
    pub use std::thread::{scope, Scope, ScopedJoinHandle};
}

/// Re-export matching `crossbeam::scope` (std's scoped threads).
pub use std::thread::scope;
