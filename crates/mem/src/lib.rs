//! The MultiTitan memory hierarchy (Fig. 1 of the paper).
//!
//! One processor board carries a 64 KB direct-mapped data cache with 16-byte
//! lines and a 14-cycle miss penalty, shared by the CPU and FPU chips; a
//! 64 KB external instruction cache; and a 2 KB on-chip instruction buffer.
//! This crate provides:
//!
//! * [`Memory`] — byte-addressed main memory with typed accessors, backed
//!   by pages allocated on first write;
//! * [`Cache`] — a parametric direct-mapped write-back cache model with
//!   hit/miss statistics;
//! * [`MemorySystem`] — the assembled hierarchy with the paper's parameters
//!   ([`MemConfig::multititan`]) and cold/warm reset for the §3.2
//!   experiments.
//!
//! Only timing and residency are modelled in the caches — data always lives
//! in [`Memory`], which is the correct fidelity level for a processor whose
//! caches are never incoherent with memory in a uniprocessor run.

pub mod cache;
pub mod memory;
pub mod system;

pub use cache::{AccessKind, Cache, CacheConfig, CacheStats};
pub use memory::{MemError, Memory};
pub use system::{Journal, MemConfig, MemorySystem};
