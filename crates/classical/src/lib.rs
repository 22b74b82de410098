//! # nck-classical
//!
//! Classical exact solvers — the substitute for Z3's role as (a) the
//! paper's classical baseline (§VIII-C) and (b) the optimality oracle
//! behind Definition 8 classification (§VII).
//!
//! * [`solver`] — branch-and-bound over NchooseK programs *directly*:
//!   cardinality propagation, soft-violation bounding. Fast, like Z3 on
//!   the original constraints.
//! * [`qubo_bb`] — branch-and-bound over *translated QUBOs*: exact but
//!   much slower on dense instances, reproducing the paper's
//!   observation that classical solvers handle the QUBO form poorly.
//! * [`brute`] — single-threaded exhaustive ground truth for tests.
//! * [`classify`] — optimal / suboptimal / incorrect classification of
//!   backend samples.
//! * [`tabu`] — tabu-search QUBO heuristic (the Ocean `TabuSampler`
//!   role): strong incumbents without hardware.

#![warn(missing_docs)]

pub mod brute;
pub mod classify;
pub mod qubo_bb;
pub mod solver;
pub mod tabu;

pub use brute::{solve_brute, BruteResult};
pub use classify::OptimalityOracle;
pub use qubo_bb::{minimize, QuboBbOptions, QuboBbResult, QuboBbStats};
pub use solver::{
    max_soft_satisfiable, solve, solve_cancellable, solve_resumable, Incumbent, SolveOutcome,
    SolveStats, SolverOptions,
};
pub use tabu::{tabu_search, TabuOptions, TabuResult};
