//! # nck-anneal
//!
//! A simulated quantum annealer standing in for the D-Wave Advantage
//! 4.1 system of the paper's evaluation. The full Ocean-style pipeline
//! is reproduced:
//!
//! * [`topology`] — Chimera and Pegasus-like hardware graphs (5,640
//!   qubits at the Advantage preset, degree 15, K4 cliques).
//! * [`embed`] — heuristic minor embedding: logical variables become
//!   *chains* of physical qubits, the effect behind the paper's
//!   physical-qubits ≫ variables observations (§VIII-A).
//! * [`chain`] — chain strength, field/coupling splitting, and
//!   majority-vote chain-break repair.
//! * [`sampler`] — simulated annealing, one read after another on the
//!   calling thread, with an ICE-style analog noise model.
//! * [`timing`] — the §VIII-C QPU access-time model (15 ms programming,
//!   20 µs anneals, ≈30 ms per 100-sample job).
//! * [`device`] — the assembled [`AnnealerDevice`] with the
//!   `advantage_4_1()` preset.
//!
//! ```
//! use nck_anneal::AnnealerDevice;
//! use nck_qubo::Qubo;
//!
//! // f(a, b) = ab − a − b: minimized when at least one variable is 1.
//! let mut q = Qubo::new(2);
//! q.add_quadratic(0, 1, 1.0);
//! q.add_linear(0, -1.0);
//! q.add_linear(1, -1.0);
//!
//! let device = AnnealerDevice::advantage_4_1();
//! let result = device.sample_qubo(&q, 100, 42).unwrap();
//! assert_eq!(result.best().energy, -1.0);
//! ```

#![warn(missing_docs)]

pub mod chain;
pub mod device;
pub mod embed;
pub mod gauge;
pub mod postprocess;
pub mod sampler;
pub mod timing;
pub mod topology;

pub use chain::{embed_ising, suggested_chain_strength, EmbeddedIsing};
pub use device::{AnnealError, AnnealResult, AnnealSample, AnnealerDevice};
pub use embed::{find_embedding, Embedding};
pub use gauge::Gauge;
pub use postprocess::steepest_descent;
pub use sampler::{
    sample_ising, sample_ising_clustered, sample_ising_clustered_cancellable,
    sample_ising_clustered_range, NoiseModel, SaParams,
};
pub use timing::TimingModel;
pub use topology::Topology;
