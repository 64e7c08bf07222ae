//! Aggregation functions, operators, and operator bundles (paper Section
//! 2.2 and Section 4.2).
//!
//! The *operator* abstraction is what lets Desis share partial results
//! between windows with **different aggregation functions**: functions are
//! lowered to a small set of basic operators (Table 1), the query-group
//! executes the union of required operators once per event, and each
//! function is finalized from the shared intermediate results.

mod bundle;
mod function;
mod operator;

pub use bundle::OperatorBundle;
pub use function::AggFunction;
pub use operator::{OperatorKind, OperatorSet};
