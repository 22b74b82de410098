//! Typed store failures.
//!
//! Everything the store can report is `Clone + PartialEq` so the
//! execution layer can embed a [`StoreError`] inside its own error
//! enum and tests can match on exact failure shapes. I/O errors are
//! captured as (operation, path, kind) rather than carrying
//! `std::io::Error` (which is neither `Clone` nor `PartialEq`).

use crate::killpoint::KillPoint;
use std::fmt;

/// The file-system operations the store performs, as named in
/// [`StoreError::Io`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreOp {
    /// Creating the run directory.
    Mkdir,
    /// Opening a WAL or snapshot file.
    Open,
    /// Opening the run directory to sync it.
    OpenDir,
    /// Reading a file's contents.
    Read,
    /// Writing bytes.
    Write,
    /// Positioning the WAL for a write.
    Seek,
    /// Cutting the WAL to a length.
    Truncate,
    /// Flushing a file to stable storage.
    Fsync,
    /// Flushing the run directory's entries to stable storage.
    SyncDir,
    /// Moving a snapshot into place.
    Rename,
    /// Deleting a stale temporary snapshot.
    Remove,
}

impl StoreOp {
    /// Every store operation, in declaration order.
    pub const ALL: [StoreOp; 11] = [
        StoreOp::Mkdir,
        StoreOp::Open,
        StoreOp::OpenDir,
        StoreOp::Read,
        StoreOp::Write,
        StoreOp::Seek,
        StoreOp::Truncate,
        StoreOp::Fsync,
        StoreOp::SyncDir,
        StoreOp::Rename,
        StoreOp::Remove,
    ];
}

impl fmt::Display for StoreOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            StoreOp::Mkdir => "mkdir",
            StoreOp::Open => "open",
            StoreOp::OpenDir => "open-dir",
            StoreOp::Read => "read",
            StoreOp::Write => "write",
            StoreOp::Seek => "seek",
            StoreOp::Truncate => "truncate",
            StoreOp::Fsync => "fsync",
            StoreOp::SyncDir => "sync-dir",
            StoreOp::Rename => "rename",
            StoreOp::Remove => "remove",
        })
    }
}

/// Errors from the durable run store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// An operating-system I/O failure.
    Io {
        /// The store operation that failed.
        op: StoreOp,
        /// File or directory involved.
        path: String,
        /// `std::io::ErrorKind` of the failure, stringified.
        kind: String,
    },
    /// A store file failed validation: bad magic, bad CRC, an
    /// impossible frame length. Recovery *rejects* corrupt snapshots
    /// and *truncates* corrupt WAL tails; it never panics.
    Corrupt {
        /// File that failed validation.
        path: String,
        /// Byte offset of the first invalid content.
        offset: u64,
        /// What was wrong.
        reason: String,
    },
    /// A deterministic kill-point fired: the store simulated a process
    /// crash at this operation and is now permanently dead.
    Killed {
        /// Which kill-point fired.
        point: KillPoint,
    },
    /// The store was used after it died (a kill-point or an I/O
    /// failure); no further operation can succeed.
    Dead,
    /// A fresh run was requested on a directory that already holds one.
    NotEmpty {
        /// The offending run directory.
        path: String,
    },
    /// A resume was requested on a directory with no run in it.
    NoRun {
        /// The empty run directory.
        path: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, kind } => {
                write!(f, "store {op} failed on {path}: {kind}")
            }
            StoreError::Corrupt { path, offset, reason } => {
                write!(f, "corrupt store file {path} at byte {offset}: {reason}")
            }
            StoreError::Killed { point } => {
                write!(f, "store killed at deterministic crash point: {}", point.name())
            }
            StoreError::Dead => write!(f, "store is dead (crashed earlier); reopen to recover"),
            StoreError::NotEmpty { path } => {
                write!(f, "run directory {path} already holds a run (use resume)")
            }
            StoreError::NoRun { path } => {
                write!(f, "run directory {path} holds no run to resume")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl StoreError {
    /// Capture an `std::io::Error` as a cloneable, comparable record.
    pub fn io(op: StoreOp, path: &std::path::Path, e: &std::io::Error) -> Self {
        StoreError::Io { op, path: path.display().to_string(), kind: e.kind().to_string() }
    }
}
