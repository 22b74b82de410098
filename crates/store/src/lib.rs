//! Crash-safe run persistence for the constraint-satisfaction stack.
//!
//! `nck-store` is a dependency-free durability layer: an append-only,
//! CRC32-framed write-ahead log plus atomic-rename snapshots, kept in a
//! single run directory. The execution layer appends opaque records
//! (journal events, supervisor progress, solver checkpoints) and
//! periodically snapshots consolidated state; after a crash, reopening
//! the directory recovers by snapshot-load + log-replay, truncating
//! torn tails and rejecting corrupt files with typed errors — never a
//! panic, whatever the bytes on disk.
//!
//! For the recovery harness the store can simulate crashes at
//! deterministic [`KillPoint`]s: the partial on-disk effect is
//! produced, the handle goes permanently dead, and the harness reopens
//! to assert that recovery holds.

#![warn(missing_docs)]

mod error;
pub mod frame;
mod killpoint;
mod snapshot;
mod store;
mod wal;

pub use error::{StoreError, StoreOp};
pub use frame::{crc32, encode_frame, scan_frames, FrameScan, ScanStop, MAX_FRAME_LEN};
pub use killpoint::{KillPoint, KillSpec};
pub use snapshot::{load_snapshot, save_snapshot, SNAP_FILE, SNAP_TMP_FILE};
pub use store::{Recovered, RunStore, WAL_FILE};
pub use wal::WAL_MAGIC;
