//! Reproduction harness library for the ChameleonDB paper.
//!
//! Each `experiments::*` module regenerates one table or figure of the
//! paper's evaluation section on the simulated Optane device. The `repro`
//! binary dispatches to them.

pub mod experiments;
pub mod stores;
pub mod util;
