#![warn(missing_docs)]
//! # boolsubst-algebraic — algebraic synthesis baseline
//!
//! The classical algebraic machinery the paper compares against and builds
//! its scripts from: weak division, kernels, quick factoring (the
//! factored-form literal metric), SIS-style `resub -d` resubstitution, and
//! the `gcx`/`gkx` extraction passes.
//!
//! ```
//! use boolsubst_cube::parse_sop;
//! use boolsubst_algebraic::{weak_divide, factored_literals};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let f = parse_sop(5, "ac + ad + bc + bd + e")?;
//! let d = parse_sop(5, "a + b")?;
//! let div = weak_divide(&f, &d);
//! assert_eq!(div.quotient.to_string(), "c + d");
//! assert_eq!(div.remainder.to_string(), "e");
//! assert_eq!(factored_literals(&f), 5); // (a + b)(c + d) + e
//! # Ok(())
//! # }
//! ```

mod division;
mod extract;
mod factor;
mod fx;
mod kernels;
mod resub;
mod space;

pub use division::{common_cube, divide_by_cube, make_cube_free, weak_divide, AlgebraicDivision};
pub use extract::{gcx, gkx, ExtractOptions, ExtractStats};
pub use factor::{factor, factored_literals, factored_literals_lower_bound, FactorTree};
pub use fx::{fx, FxOptions, FxStats};
pub use kernels::{kernels, Kernel};
pub use resub::{
    algebraic_resub, apply_substitution, network_factored_literals, try_algebraic_substitution,
    ResubOptions, ResubStats, SubstitutionPlan,
};
pub use space::JointSpace;
