//! The durable run store: one directory, one WAL, one snapshot.
//!
//! Records are opaque byte strings to this crate; the execution layer
//! gives them meaning. Each appended record is stamped with a
//! monotonically increasing sequence number that never resets — a
//! snapshot stores the highest sequence it *covers*, and recovery
//! replays only the WAL records beyond it. That makes the
//! snapshot-then-truncate pair crash-safe in any interleaving: if the
//! process dies between the two, the leftover WAL records are simply
//! recognized as already covered and skipped.

use crate::error::{StoreError, StoreOp};
use crate::killpoint::{KillPoint, KillSpec};
use crate::snapshot::{load_snapshot, save_snapshot, SNAP_FILE};
use crate::wal::{Wal, WAL_MAGIC};
use std::fs;
use std::path::{Path, PathBuf};

/// Filename of the write-ahead log inside a run directory.
pub const WAL_FILE: &str = "wal.log";

/// State recovered from a run directory on open.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Recovered {
    /// The latest snapshot's state bytes, if a snapshot exists.
    pub snapshot: Option<Vec<u8>>,
    /// WAL records not covered by the snapshot, oldest first, with the
    /// sequence prefix stripped.
    pub records: Vec<Vec<u8>>,
    /// True when open truncated a torn or corrupt WAL tail.
    pub recovered_tail: bool,
}

impl Recovered {
    /// True when the directory held no prior state at all.
    pub fn is_empty(&self) -> bool {
        self.snapshot.is_none() && self.records.is_empty()
    }
}

/// A crash-safe, append-only run store.
#[derive(Debug)]
pub struct RunStore {
    dir: PathBuf,
    wal: Wal,
    next_seq: u64,
    kill: Option<KillSpec>,
    append_ops: u64,
    snapshot_ops: u64,
    dead: bool,
}

impl RunStore {
    /// Open the store in `dir` (creating the directory if needed),
    /// recovering any prior state: load the snapshot, replay the WAL,
    /// truncate torn tails, and skip records the snapshot covers.
    pub fn open(dir: &Path) -> Result<(RunStore, Recovered), StoreError> {
        fs::create_dir_all(dir).map_err(|e| StoreError::io(StoreOp::Mkdir, dir, &e))?;
        let snap = load_snapshot(dir)?;
        let (covered, snapshot) = match snap {
            Some((c, s)) => (c, Some(s)),
            None => (0, None),
        };
        let wal_path = dir.join(WAL_FILE);
        let replay = Wal::open(&wal_path)?;
        let mut records = Vec::with_capacity(replay.records.len());
        let mut max_seq = covered;
        for (i, rec) in replay.records.into_iter().enumerate() {
            if rec.len() < 8 {
                return Err(StoreError::Corrupt {
                    path: wal_path.display().to_string(),
                    offset: WAL_MAGIC.len() as u64,
                    reason: format!("record {i} shorter than its sequence header"),
                });
            }
            let seq = u64::from_le_bytes([
                rec[0], rec[1], rec[2], rec[3], rec[4], rec[5], rec[6], rec[7],
            ]);
            if seq > max_seq {
                max_seq = seq;
            }
            if seq > covered {
                records.push(rec[8..].to_vec());
            }
        }
        let store = RunStore {
            dir: dir.to_path_buf(),
            wal: replay.wal,
            next_seq: max_seq + 1,
            kill: None,
            append_ops: 0,
            snapshot_ops: 0,
            dead: false,
        };
        Ok((store, Recovered { snapshot, records, recovered_tail: replay.recovered_tail }))
    }

    /// True when `dir` already holds a run (a WAL or a snapshot).
    pub fn has_run(dir: &Path) -> bool {
        dir.join(WAL_FILE).exists() || dir.join(SNAP_FILE).exists()
    }

    /// Open `dir` for a brand-new run; reject a directory that already
    /// holds one so a typo cannot silently interleave two runs.
    pub fn open_fresh(dir: &Path) -> Result<RunStore, StoreError> {
        if Self::has_run(dir) {
            return Err(StoreError::NotEmpty { path: dir.display().to_string() });
        }
        Ok(Self::open(dir)?.0)
    }

    /// Open `dir` to resume a prior run; reject a directory without one.
    pub fn open_resume(dir: &Path) -> Result<(RunStore, Recovered), StoreError> {
        if !Self::has_run(dir) {
            return Err(StoreError::NoRun { path: dir.display().to_string() });
        }
        Self::open(dir)
    }

    /// The run directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Arm a deterministic kill-point. The store simulates the crash
    /// when the spec's operation counter is reached, then refuses all
    /// further work until reopened.
    pub fn arm_kill(&mut self, spec: KillSpec) {
        self.kill = Some(spec);
    }

    /// True once a kill-point or I/O failure has "crashed" this handle.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Append one record durably (fsync before returning). Returns the
    /// record's sequence number.
    pub fn append(&mut self, record: &[u8]) -> Result<u64, StoreError> {
        self.check_alive()?;
        self.append_ops += 1;
        let seq = self.next_seq;
        let mut payload = Vec::with_capacity(8 + record.len());
        payload.extend_from_slice(&seq.to_le_bytes());
        payload.extend_from_slice(record);
        if let Some(spec) = self.kill {
            if spec.at_op == self.append_ops {
                match spec.point {
                    KillPoint::CrashBeforeFsync => {
                        self.wal.append_lost(&payload)?;
                        return Err(self.die(spec.point));
                    }
                    KillPoint::CrashMidFrame => {
                        self.wal.append_torn(&payload)?;
                        return Err(self.die(spec.point));
                    }
                    KillPoint::CrashBetweenSnapshotAndTruncate => {}
                }
            }
        }
        if let Err(e) = self.wal.append(&payload) {
            self.dead = true;
            return Err(e);
        }
        self.next_seq += 1;
        Ok(seq)
    }

    /// Snapshot the caller's full state, then truncate the WAL. The
    /// snapshot covers every sequence appended so far; a crash between
    /// the two steps is harmless because recovery skips covered
    /// records.
    pub fn snapshot(&mut self, state: &[u8]) -> Result<(), StoreError> {
        self.check_alive()?;
        self.snapshot_ops += 1;
        let covered = self.next_seq.saturating_sub(1);
        if let Err(e) = save_snapshot(&self.dir, covered, state) {
            self.dead = true;
            return Err(e);
        }
        if let Some(spec) = self.kill {
            if spec.point == KillPoint::CrashBetweenSnapshotAndTruncate
                && spec.at_op == self.snapshot_ops
            {
                // The snapshot is durable; the crash lands before the
                // WAL truncation, leaving covered records behind.
                return Err(self.die(spec.point));
            }
        }
        if let Err(e) = self.wal.truncate_all() {
            self.dead = true;
            return Err(e);
        }
        Ok(())
    }

    fn check_alive(&self) -> Result<(), StoreError> {
        if self.dead {
            return Err(StoreError::Dead);
        }
        Ok(())
    }

    fn die(&mut self, point: KillPoint) -> StoreError {
        self.dead = true;
        StoreError::Killed { point }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;
    use crate::killpoint::{KillPoint, KillSpec};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "nck-store-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fresh_open_append_reopen_replays() {
        let dir = tmp_dir("fresh");
        let (mut store, rec) = RunStore::open(&dir).unwrap();
        assert!(rec.is_empty());
        assert_eq!(store.append(b"one").unwrap(), 1);
        assert_eq!(store.append(b"two").unwrap(), 2);
        drop(store);
        let (_, rec) = RunStore::open(&dir).unwrap();
        assert_eq!(rec.records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert!(rec.snapshot.is_none());
        assert!(!rec.recovered_tail);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_collapses_wal_and_new_records_follow() {
        let dir = tmp_dir("snap");
        let (mut store, _) = RunStore::open(&dir).unwrap();
        store.append(b"a").unwrap();
        store.append(b"b").unwrap();
        store.snapshot(b"STATE").unwrap();
        store.append(b"c").unwrap();
        drop(store);
        let (mut store, rec) = RunStore::open(&dir).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"STATE"[..]));
        assert_eq!(rec.records, vec![b"c".to_vec()]);
        // Sequence numbers never reset.
        assert_eq!(store.append(b"d").unwrap(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_before_fsync_loses_exactly_the_unacked_record() {
        let dir = tmp_dir("kill-fsync");
        let (mut store, _) = RunStore::open(&dir).unwrap();
        store.arm_kill(KillSpec { point: KillPoint::CrashBeforeFsync, at_op: 2 });
        store.append(b"acked").unwrap();
        let err = store.append(b"lost").unwrap_err();
        assert_eq!(err, StoreError::Killed { point: KillPoint::CrashBeforeFsync });
        assert_eq!(store.append(b"after-death").unwrap_err(), StoreError::Dead);
        let (_, rec) = RunStore::open(&dir).unwrap();
        assert_eq!(rec.records, vec![b"acked".to_vec()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_mid_frame_recovers_by_truncation() {
        let dir = tmp_dir("kill-torn");
        let (mut store, _) = RunStore::open(&dir).unwrap();
        store.arm_kill(KillSpec { point: KillPoint::CrashMidFrame, at_op: 2 });
        store.append(b"acked").unwrap();
        let err = store.append(b"torn-record-payload").unwrap_err();
        assert_eq!(err, StoreError::Killed { point: KillPoint::CrashMidFrame });
        let (mut store, rec) = RunStore::open(&dir).unwrap();
        assert!(rec.recovered_tail);
        assert_eq!(rec.records, vec![b"acked".to_vec()]);
        // The truncated tail must leave a clean append point.
        store.append(b"next").unwrap();
        drop(store);
        let (_, rec) = RunStore::open(&dir).unwrap();
        assert_eq!(rec.records, vec![b"acked".to_vec(), b"next".to_vec()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_between_snapshot_and_truncate_skips_covered_records() {
        let dir = tmp_dir("kill-snap");
        let (mut store, _) = RunStore::open(&dir).unwrap();
        store.append(b"a").unwrap();
        store.append(b"b").unwrap();
        store.arm_kill(KillSpec { point: KillPoint::CrashBetweenSnapshotAndTruncate, at_op: 1 });
        let err = store.snapshot(b"STATE").unwrap_err();
        assert_eq!(err, StoreError::Killed { point: KillPoint::CrashBetweenSnapshotAndTruncate });
        // The WAL still physically holds a and b; recovery must not
        // replay them on top of the snapshot that covers them.
        let (mut store, rec) = RunStore::open(&dir).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"STATE"[..]));
        assert!(rec.records.is_empty());
        assert_eq!(store.append(b"c").unwrap(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_and_resume_guards() {
        let dir = tmp_dir("guards");
        assert_eq!(
            RunStore::open_resume(&dir).unwrap_err(),
            StoreError::NoRun { path: dir.display().to_string() }
        );
        let mut store = RunStore::open_fresh(&dir).unwrap();
        store.append(b"x").unwrap();
        drop(store);
        assert_eq!(
            RunStore::open_fresh(&dir).unwrap_err(),
            StoreError::NotEmpty { path: dir.display().to_string() }
        );
        let (_, rec) = RunStore::open_resume(&dir).unwrap();
        assert_eq!(rec.records, vec![b"x".to_vec()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_file_rejected_not_destroyed() {
        // A foreign file, and files of the previous record format
        // (whose bytes this build would misdecode), are all rejected.
        let old_wal = [&b"NCKWAL01"[..], &encode_frame(&[1u8; 12])].concat();
        let old_snap = [&b"NCKSNAP1"[..], &encode_frame(&[0u8; 8])].concat();
        for (file, bytes) in [
            (WAL_FILE, &b"not a wal file at all"[..]),
            (WAL_FILE, &old_wal[..]),
            (SNAP_FILE, &old_snap[..]),
        ] {
            let dir = tmp_dir("foreign");
            fs::create_dir_all(&dir).unwrap();
            fs::write(dir.join(file), bytes).unwrap();
            let err = RunStore::open(&dir).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt { .. }), "{file}: got {err:?}");
            // The rejected file must be untouched.
            assert_eq!(fs::read(dir.join(file)).unwrap(), bytes);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn corrupt_snapshot_rejected_with_typed_error() {
        let dir = tmp_dir("badsnap");
        let (mut store, _) = RunStore::open(&dir).unwrap();
        store.append(b"a").unwrap();
        store.snapshot(b"STATE").unwrap();
        drop(store);
        let path = dir.join(SNAP_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let err = RunStore::open(&dir).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "got {err:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_snapshot_tmp_is_swept() {
        let dir = tmp_dir("staletmp");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(crate::snapshot::SNAP_TMP_FILE), b"half-written").unwrap();
        let (_, rec) = RunStore::open(&dir).unwrap();
        assert!(rec.is_empty());
        assert!(!dir.join(crate::snapshot::SNAP_TMP_FILE).exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
