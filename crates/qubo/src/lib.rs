//! # nck-qubo
//!
//! Quadratic unconstrained binary optimization (QUBO) and Ising-model
//! types: the intermediate representation the NchooseK compiler targets
//! and both quantum backends consume (§V of the paper).
//!
//! * [`Qubo`] — sparse quadratic pseudo-Boolean function; compositional
//!   under addition, closed under positive scaling, with variable
//!   remapping for summing per-constraint QUBOs into a program QUBO.
//! * [`Ising`] — the ±1-spin form used by the annealer and the QAOA
//!   phase separator, with exact conversions in both directions.
//! * [`exhaustive`] — single-threaded brute-force minimization, the
//!   ground-truth oracle for tests and optimality classification.

#![warn(missing_docs)]

pub mod exhaustive;
pub mod io;
pub mod ising;
pub mod poly;
pub mod qubo;

pub use exhaustive::{max_energy, solve_exhaustive, ExhaustiveResult, ENERGY_EPS};
pub use io::{from_qubo_file, to_qubo_file, QuboIoError, TokenKind};
pub use ising::Ising;
pub use poly::Poly;
pub use qubo::Qubo;
