#![warn(missing_docs)]
//! # boolsubst-atpg — implication engine and redundancy machinery
//!
//! The ATPG-flavoured substrate of the paper: a gate-level circuit view
//! ([`Circuit`]), an event-driven three-valued implication engine with
//! optional recursive learning ([`Implier`]), stuck-at fault analysis with
//! dominator-based mandatory assignments ([`FaultChecker`], built once per
//! circuit and reused for every check; [`check_fault`] is its one-shot
//! form), and the greedy redundancy-removal loop
//! ([`remove_redundant_wires`]) that performs the actual minimization in
//! Boolean division.
//!
//! The untestability check is *sound but incomplete*: a wire is removed
//! only when implications prove its stuck-at fault untestable, so every
//! removal preserves the observed functions exactly. On circuits with at
//! most ten inputs the removal loop first re-simulates exhaustive truth
//! tables (up to 16 `u64` words per gate) with the candidate wire dropped:
//! if an output changes, the wire is testable, the sound check could not
//! have removed it, and the check is skipped. Wires the simulation cannot
//! rule out still need the implication proof, so the removals, the check
//! counts and the budgets are exactly those of the implication-only loop.
//!
//! ```
//! use boolsubst_atpg::{Circuit, Fault, Wire, check_fault, ImplyOptions};
//!
//! // f = ab + ab' : the literal b is redundant.
//! let mut c = Circuit::new();
//! let a = c.add_input();
//! let b = c.add_input();
//! let nb = c.add_not(b);
//! let ab = c.add_and(vec![a, b]);
//! let abn = c.add_and(vec![a, nb]);
//! let f = c.add_or(vec![ab, abn]);
//! c.add_output(f);
//! let fault = Fault::sa1(Wire { gate: ab, pin: 1 });
//! assert!(check_fault(&c, fault, ImplyOptions::default()).is_untestable());
//! ```

mod checker;
mod circuit;
mod coverage;
mod fault;
mod imply;
mod rar;
mod redundancy;
#[cfg(test)]
mod reference;
mod screen;
mod search;

pub use checker::FaultChecker;
pub use circuit::{Circuit, GateId, GateKind, Wire};
pub use coverage::{enumerate_faults, fault_coverage, CoverageReport, FaultClass};
pub use fault::{check_fault, is_testable_exhaustive, Fault, FaultStatus, UntestableReason};
pub use imply::{Conflict, Implier, ImplyOptions, Value};
pub use rar::{rar_optimize, RarOptions, RarStats};
pub use redundancy::{
    remove_redundant_wires, remove_redundant_wires_with, CandidateWire, RemovalOptions,
    RemovalOutcome,
};
pub use screen::input_word;
pub use search::{check_fault_exact, find_test, TestSearch};
