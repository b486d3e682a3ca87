#![warn(missing_docs)]
//! # boolsubst-sim — word-parallel simulation signatures
//!
//! Bit-parallel simulation of a [`boolsubst_network::Network`] over a
//! seeded, deterministic pattern pool: every node carries a *signature* of
//! `64 × words` sampled output bits, computed 64 patterns at a time with
//! plain `u64` logic ops. The substitution engine uses the signatures as a
//! **refute-only** pre-filter for division candidates:
//!
//! - a universally quantified claim ("cube `c` of the dividend is
//!   contained in some cube of the divisor `d`") is *refuted* by a single
//!   witness pattern with `c = 1 ∧ d = 0`;
//! - no sampled witness proves nothing, so every pair that survives the
//!   screen still runs the full implication/ATPG proof.
//!
//! Because a refutation is an exact evaluation of both functions on a
//! concrete assignment, the screen is sound for *any* pattern pool: the
//! pool's quality only affects how many incompatible pairs are caught
//! early, never correctness.
//!
//! The pool is fixed for the life of a filter: signatures change only
//! when [`SimTable::patch`] follows a network edit, so every screen
//! verdict is a pure function of the network and the seed — the same
//! whichever thread takes it, in whatever order.
//!
//! The signature table is maintained incrementally across engine edits
//! with the same version-checked patch protocol as
//! [`boolsubst_network::SideTables`] (see [`SimTable::patch`]): stale
//! queries panic instead of returning wrong bits.

mod filter;
mod pool;
mod table;

pub use filter::{CoverScreen, SimFilter};
pub use pool::PatternPool;
pub use table::SimTable;

/// Configuration for the simulation filter's pattern pool. The engine
/// builds its filter from [`SimConfig::default`]; the other shapes are
/// for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Signature width in 64-bit words: `64 × words` seeded patterns.
    pub words: usize,
    /// Seed for the deterministic pattern pool.
    pub seed: u64,
    /// Ignore `words` and enumerate all `2^n` input minterms (networks
    /// with at most 16 inputs). Intended for tests: an exhaustive pool
    /// makes the refute-only screen *exact*.
    pub exhaustive: bool,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            words: 3,
            seed: 0x5EED_B001_0001,
            exhaustive: false,
        }
    }
}

impl SimConfig {
    /// An exhaustive configuration: all `2^n` minterms.
    #[must_use]
    pub fn exhaustive() -> SimConfig {
        SimConfig {
            exhaustive: true,
            ..SimConfig::default()
        }
    }
}
