//! Atomic-rename snapshots.
//!
//! A snapshot collapses the WAL: it records the caller's state bytes
//! together with `covered_seq`, the highest WAL sequence number the
//! state already incorporates. The file is a `NCKSNAP2` magic followed
//! by exactly one CRC32 frame whose payload is
//! `[covered_seq: u64 LE][state bytes]`.
//!
//! Durability dance: write `snapshot.tmp` → fsync it → rename over
//! `snapshot.bin` → fsync the directory. A crash anywhere in that
//! sequence leaves either the old snapshot or the new one, never a
//! half-written file under the final name. A stale `snapshot.tmp`
//! found on open is removed.

use crate::error::{StoreError, StoreOp};
use crate::frame::{encode_frame, scan_frames, ScanStop};
use crate::wal::sync_dir;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

/// Magic bytes opening every snapshot file.
pub const SNAP_MAGIC: &[u8; 8] = b"NCKSNAP2";

/// Final snapshot filename inside a run directory.
pub const SNAP_FILE: &str = "snapshot.bin";

/// Scratch name used for the atomic-rename dance.
pub const SNAP_TMP_FILE: &str = "snapshot.tmp";

/// Write a snapshot durably via the tmp-fsync-rename-fsync sequence.
pub fn save_snapshot(dir: &Path, covered_seq: u64, state: &[u8]) -> Result<(), StoreError> {
    let tmp = dir.join(SNAP_TMP_FILE);
    let fin = dir.join(SNAP_FILE);
    let mut payload = Vec::with_capacity(8 + state.len());
    payload.extend_from_slice(&covered_seq.to_le_bytes());
    payload.extend_from_slice(state);
    let mut bytes = Vec::with_capacity(SNAP_MAGIC.len() + payload.len() + 8);
    bytes.extend_from_slice(SNAP_MAGIC);
    bytes.extend_from_slice(&encode_frame(&payload));
    let mut f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)
        .map_err(|e| StoreError::io(StoreOp::Open, &tmp, &e))?;
    f.write_all(&bytes).map_err(|e| StoreError::io(StoreOp::Write, &tmp, &e))?;
    f.sync_all().map_err(|e| StoreError::io(StoreOp::Fsync, &tmp, &e))?;
    drop(f);
    fs::rename(&tmp, &fin).map_err(|e| StoreError::io(StoreOp::Rename, &fin, &e))?;
    sync_dir(dir)
}

/// Load the snapshot, if any. Removes a stale `snapshot.tmp` left by a
/// crash mid-dance. A snapshot that fails validation is rejected with
/// [`StoreError::Corrupt`] — it is the *only* copy of compacted state,
/// so silently dropping it would lose acknowledged work.
pub fn load_snapshot(dir: &Path) -> Result<Option<(u64, Vec<u8>)>, StoreError> {
    let tmp = dir.join(SNAP_TMP_FILE);
    if tmp.exists() {
        fs::remove_file(&tmp).map_err(|e| StoreError::io(StoreOp::Remove, &tmp, &e))?;
    }
    let fin = dir.join(SNAP_FILE);
    let mut f = match File::open(&fin) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::io(StoreOp::Open, &fin, &e)),
    };
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes).map_err(|e| StoreError::io(StoreOp::Read, &fin, &e))?;
    let corrupt = |offset: u64, reason: &str| StoreError::Corrupt {
        path: fin.display().to_string(),
        offset,
        reason: reason.to_string(),
    };
    if bytes.len() < SNAP_MAGIC.len() || &bytes[..SNAP_MAGIC.len()] != SNAP_MAGIC {
        return Err(corrupt(0, "bad snapshot magic"));
    }
    let scan = scan_frames(&bytes[SNAP_MAGIC.len()..]);
    if scan.stop != ScanStop::Clean || scan.payloads.len() != 1 {
        return Err(corrupt(
            (SNAP_MAGIC.len() + scan.valid_len) as u64,
            "snapshot must hold exactly one valid frame",
        ));
    }
    let payload = &scan.payloads[0];
    if payload.len() < 8 {
        return Err(corrupt(SNAP_MAGIC.len() as u64, "snapshot payload shorter than header"));
    }
    let covered = u64::from_le_bytes([
        payload[0], payload[1], payload[2], payload[3], payload[4], payload[5], payload[6],
        payload[7],
    ]);
    Ok(Some((covered, payload[8..].to_vec())))
}
