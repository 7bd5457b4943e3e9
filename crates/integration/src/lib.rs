//! Integration-test host crate.
//!
//! Unit/integration tests live in `tests/`. The library part hosts the
//! [`history`] checker, the one model of what a store may return given
//! what was acknowledged (every campaign that audits reads, scans or
//! recovered images uses it), and the [`crashmat`] crash-matrix
//! fault-injection harness, shared between the integration tests and
//! the `repro crash` bench command.

pub mod crashmat;
pub mod history;
