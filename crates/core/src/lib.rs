#![warn(missing_docs)]
//! # boolsubst-core — Boolean division and substitution via RAR
//!
//! The paper's primary contribution (Chang & Cheng, DAC'98 / TCAD'99):
//!
//! * [`sos`] — the SOS/POS notions and Lemmas 1–2 that make the added
//!   division gates redundant *a priori*;
//! * [`division`] — basic Boolean division `f = d·q + r` (SOP and POS
//!   forms) through redundancy addition and removal;
//! * [`extended`] — extended division: implication voting, the vote table
//!   (Table I), clique-based core-divisor selection (Fig. 4), divisor
//!   decomposition;
//! * [`subst`] — the network-level substitution driver with the paper's
//!   three configurations (`basic`, `ext`, `ext-GDC`);
//! * [`session`] — the [`Session`] builder, the one entry point for
//!   running a sweep (tracing, thread count, options), over the crate's
//!   incremental engine: cached side tables, support-overlap candidate
//!   enumeration (a target's divisor candidates are the fanouts of its
//!   fanins), shadow circuits, stage stats; one run is one pass;
//! * [`netcircuit`] — whole-network gate materialization for the global
//!   don't-care mode;
//! * [`txn`] — transactional snapshots powering the checked-apply mode's
//!   O(changed nodes) rollback;
//! * [`verify`] — the BDD equivalence oracle every test leans on.
//!
//! ```
//! use boolsubst_cube::parse_sop;
//! use boolsubst_core::{basic_divide_covers, DivisionOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's Section I example: f = ab + ac + bc', d = ab + c.
//! let f = parse_sop(3, "ab + ac + bc'")?;
//! let d = parse_sop(3, "ab + c")?;
//! let r = basic_divide_covers(&f, &d, &DivisionOptions::paper_default());
//! assert!(r.verify(&f, &d));        // f == d·q + r, exactly
//! assert!(r.sop_cost() <= 4);       // Boolean division beats algebraic
//! # Ok(())
//! # }
//! ```

pub mod division;
pub mod dontcare;
mod engine;
pub mod extended;
mod metrics;
pub mod netcircuit;
pub mod paper;
mod parallel;
pub mod session;
pub mod sos;
pub mod subst;
pub mod txn;
pub mod verify;

#[cfg(feature = "chaos")]
pub mod chaos;

pub use division::{
    basic_divide_covers, forced_literal_bound, pos_divide_covers, pos_divide_precomplemented,
    split_remainder, DivisionOptions, DivisionResult, PosDivisionResult, LOCAL_BOUND_MAX_VARS,
};
pub use dontcare::{full_simplify, odc_cover, sdc_space_and_cover, DontCareOptions, DontCareStats};
pub use extended::{
    compute_vote_table, compute_vote_tables_pooled, enumerate_cliques, extended_divide_covers,
    extended_divide_covers_pos, extended_divide_covers_with, extended_divide_pooled, CliqueChoice,
    CoreSelection, DividendWire, ExtendedDivision, VoteRow, VoteTable, CLIQUE_LIMIT,
};
pub use netcircuit::{network_from_circuit, NetCircuit, ShadowBase};
pub use session::Session;
pub use sos::{is_pos_of_compl, is_sos_of, lemma1_holds, lemma2_holds};
pub use subst::{
    all_configs, boolean_substitute_legacy, Acceptance, SubstMode, SubstOptions, SubstStats,
};
pub use txn::TxnSnapshot;
pub use verify::{network_bdds, networks_equivalent, networks_equivalent_modulo_dc};
