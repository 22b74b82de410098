//! The append-only write-ahead log file.
//!
//! Layout: an 8-byte magic (`NCKWAL02`) followed by CRC32 frames
//! ([`frame`](crate::frame)). Opening an existing log replays it:
//! every fully valid frame is returned, and anything after the last
//! valid frame — a torn header, a torn payload, a failed checksum —
//! is truncated away, exactly once, so the next append lands on a
//! clean boundary. A file that does not start with the magic is
//! rejected as corrupt rather than silently overwritten.

use crate::error::{StoreError, StoreOp};
use crate::frame::{encode_frame, scan_frames, ScanStop};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"NCKWAL02";

/// Fsync a directory so a file creation or rename inside it is
/// durable (the metadata half of the usual fsync dance).
pub fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    let d = File::open(dir).map_err(|e| StoreError::io(StoreOp::OpenDir, dir, &e))?;
    d.sync_all().map_err(|e| StoreError::io(StoreOp::SyncDir, dir, &e))
}

/// An open, replayed WAL.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    /// Durable length of the file (magic + valid frames).
    len: u64,
}

/// Result of opening a WAL: the log handle, every valid record
/// payload in append order, and whether a torn tail was truncated.
#[derive(Debug)]
pub struct WalReplay {
    /// The open log, positioned for appending.
    pub wal: Wal,
    /// Valid record payloads, oldest first.
    pub records: Vec<Vec<u8>>,
    /// True when recovery truncated a torn or corrupt tail.
    pub recovered_tail: bool,
}

impl Wal {
    /// Open (or create) the WAL at `path`, replaying existing records
    /// and truncating any torn tail.
    pub fn open(path: &Path) -> Result<WalReplay, StoreError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| StoreError::io(StoreOp::Open, path, &e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(|e| StoreError::io(StoreOp::Read, path, &e))?;
        let mut recovered_tail = false;
        if bytes.len() < WAL_MAGIC.len() {
            // Brand new, or a crash tore the header write before any
            // record could exist: (re)initialize.
            recovered_tail = !bytes.is_empty();
            file.set_len(0).map_err(|e| StoreError::io(StoreOp::Truncate, path, &e))?;
            file.seek(SeekFrom::Start(0)).map_err(|e| StoreError::io(StoreOp::Seek, path, &e))?;
            file.write_all(WAL_MAGIC).map_err(|e| StoreError::io(StoreOp::Write, path, &e))?;
            file.sync_data().map_err(|e| StoreError::io(StoreOp::Fsync, path, &e))?;
            if let Some(dir) = path.parent() {
                sync_dir(dir)?;
            }
            let len = WAL_MAGIC.len() as u64;
            return Ok(WalReplay {
                wal: Wal { path: path.to_path_buf(), file, len },
                records: Vec::new(),
                recovered_tail,
            });
        }
        if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
            return Err(StoreError::Corrupt {
                path: path.display().to_string(),
                offset: 0,
                reason: "bad WAL magic (not an nck-store log)".to_string(),
            });
        }
        let scan = scan_frames(&bytes[WAL_MAGIC.len()..]);
        let valid = (WAL_MAGIC.len() + scan.valid_len) as u64;
        if scan.stop != ScanStop::Clean {
            // Torn or corrupt tail: truncate to the last valid frame.
            file.set_len(valid).map_err(|e| StoreError::io(StoreOp::Truncate, path, &e))?;
            file.sync_data().map_err(|e| StoreError::io(StoreOp::Fsync, path, &e))?;
            recovered_tail = true;
        }
        Ok(WalReplay {
            wal: Wal { path: path.to_path_buf(), file, len: valid },
            records: scan.payloads,
            recovered_tail,
        })
    }

    /// Append one framed record and fsync it durable.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        let frame = encode_frame(payload);
        self.write_at_end(&frame)?;
        self.sync()?;
        self.len += frame.len() as u64;
        Ok(())
    }

    /// Write the full frame but roll the file back before "fsync" — the
    /// `CrashBeforeFsync` kill-point: the OS never made the write
    /// durable, so after the simulated crash the record is gone.
    pub fn append_lost(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        let frame = encode_frame(payload);
        self.write_at_end(&frame)?;
        self.file
            .set_len(self.len)
            .map_err(|e| StoreError::io(StoreOp::Truncate, &self.path, &e))?;
        self.file.sync_data().map_err(|e| StoreError::io(StoreOp::Fsync, &self.path, &e))?;
        Ok(())
    }

    /// Write only a prefix of the frame and make *that* durable — the
    /// `CrashMidFrame` kill-point: recovery must truncate this torn
    /// tail.
    pub fn append_torn(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        let frame = encode_frame(payload);
        let keep = (frame.len() / 2).max(1);
        self.write_at_end(&frame[..keep])?;
        self.sync()?;
        // Deliberately do not advance len: the store is dead after
        // this, so the bookkeeping no longer matters.
        Ok(())
    }

    /// Drop every record (after a snapshot has made them redundant).
    pub fn truncate_all(&mut self) -> Result<(), StoreError> {
        self.file
            .set_len(WAL_MAGIC.len() as u64)
            .map_err(|e| StoreError::io(StoreOp::Truncate, &self.path, &e))?;
        self.file.sync_data().map_err(|e| StoreError::io(StoreOp::Fsync, &self.path, &e))?;
        self.len = WAL_MAGIC.len() as u64;
        Ok(())
    }

    fn write_at_end(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.file
            .seek(SeekFrom::Start(self.len))
            .map_err(|e| StoreError::io(StoreOp::Seek, &self.path, &e))?;
        self.file.write_all(bytes).map_err(|e| StoreError::io(StoreOp::Write, &self.path, &e))
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        self.file.sync_data().map_err(|e| StoreError::io(StoreOp::Fsync, &self.path, &e))
    }
}
