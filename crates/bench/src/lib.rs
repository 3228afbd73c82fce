//! Benchmark harness regenerating the paper's evaluation artifacts.
//!
//! The paper's evaluation (§4) consists of Table 1 (18 benchmarks × race
//! counts and analysis times for WCP, HB and RVPredict, plus WCP queue
//! occupancy) and Figure 7 (RVPredict race counts across a window-size ×
//! solver-timeout grid for three benchmarks).  This crate contains the
//! harness code shared by:
//!
//! * the `table1` binary — prints the reproduced Table 1;
//! * the `figure7` binary — prints the reproduced Figure 7 series.
//!
//! The workloads are the deterministic benchmark models from `rapid-gen`
//! (see `DESIGN.md` §4 for the substitution rationale); absolute timings are
//! machine-dependent, but the qualitative shape of the paper's results —
//! which detector finds which races, how the queue occupancy stays tiny, and
//! how windowed analyses degrade — is reproduced.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figure7;
pub mod table1;

pub use figure7::{figure7, Figure7Cell, Figure7Report};
pub use table1::{table1, table1_jobs, table1_row, Table1Report, Table1Row};
