#![warn(missing_docs)]
//! # boolsubst — Boolean division and substitution via RAR
//!
//! Umbrella crate re-exporting the `boolsubst` workspace: a reproduction of
//! Chang & Cheng, *"Efficient Boolean Division and Substitution"* (DAC'98 /
//! TCAD'99). See the workspace `README.md` for the architecture overview
//! and `DESIGN.md` for the per-experiment index.
//!
//! ```
//! use boolsubst::cube::parse_sop;
//! use boolsubst::core::{basic_divide_covers, DivisionOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's Section I example: f = ab + ac + bc', d = ab + c.
//! let f = parse_sop(3, "ab + ac + bc'")?;
//! let d = parse_sop(3, "ab + c")?;
//! let div = basic_divide_covers(&f, &d, &DivisionOptions::default());
//! // Boolean division finds f = (a + b)·d + ... with 4 literals total.
//! assert!(div.verify(&f, &d));
//! # Ok(())
//! # }
//! ```

//! The blessed substitution surface is re-exported at the crate root:
//! [`Session`] is the one entry point for running a sweep, configured by
//! [`SubstOptions`]' builder methods.

pub use boolsubst_aig as aig;
pub use boolsubst_algebraic as algebraic;
pub use boolsubst_atpg as atpg;
pub use boolsubst_bdd as bdd;
pub use boolsubst_core as core;
pub use boolsubst_cube as cube;
pub use boolsubst_guard as guard;
pub use boolsubst_metrics as metrics;
pub use boolsubst_network as network;
pub use boolsubst_sat as sat;
pub use boolsubst_serve as serve;
pub use boolsubst_sim as sim;
pub use boolsubst_trace as trace;
pub use boolsubst_workloads as workloads;

pub use boolsubst_core::{all_configs, Acceptance, Session, SubstMode, SubstOptions, SubstStats};
pub use boolsubst_metrics::MetricsHandle;
pub use boolsubst_network::{egress, ingest, parse_blif, write_blif, Format, Network};
pub use boolsubst_trace::Tracer;
