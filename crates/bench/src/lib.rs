//! # encompass-bench
//!
//! The experiment harness: one function per entry in EXPERIMENTS.md
//! (figures F1–F4 and claims T1–T8 of the paper), each regenerating its
//! table/series, plus shared scripted drivers, table rendering, and the
//! one shape of a sweep (its columns, rows, table and JSON).
//!
//! Run a single experiment:
//! ```text
//! cargo run -p encompass-bench --release --bin exp -- t1
//! ```
//! Run everything:
//! ```text
//! cargo run -p encompass-bench --release --bin exp -- all
//! ```

pub mod driver;
pub mod experiments;
pub mod sweep;
pub mod table;

pub use table::Table;
