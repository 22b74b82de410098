//! Durable execution: the wire format and live sink that persist a
//! supervised run into an [`nck_store::RunStore`].
//!
//! Everything a resumed run needs crosses this module as one of two
//! byte shapes:
//!
//! * **WAL records** — a [`Record`] per journal event, budget-progress
//!   mark, rung completion, mid-solve checkpoint, and terminal event,
//!   appended (and fsynced) as the run proceeds;
//! * **snapshots** — a serialized [`RecoveredRun`] written at rung
//!   boundaries and at the end of the run, collapsing the WAL.
//!
//! The codec is hand-rolled little-endian (the workspace is
//! dependency-free by policy): each wire type implements one private
//! encode/decode trait. It is *exact*: journal timestamps are
//! monotonic offsets serialized as whole seconds plus subsecond
//! nanoseconds, so a decoded journal compares equal — `Duration` and
//! all — to the one that was encoded. Floats travel as raw IEEE-754
//! bits for the same reason. Closed vocabularies (backends, stages,
//! fallbacks, budget dimensions, fault kinds, store operations,
//! kill-points, `.qubo` token kinds) travel as one tag byte each; a
//! tag past the last variant is corruption. Decoding is an
//! untrusted-input path (the file may be truncated or bit-flipped in
//! ways the store's CRC already rejects, but defense in depth is
//! cheap): every decoder returns a typed error or `None`, never
//! panics, and never allocates more than the input's own length.

use crate::backend::BackendId;
use crate::budget::BudgetDim;
use crate::error::{ExecError, FaultKind};
use crate::journal::{Fallback, JournalEvent, JournalKind, RunJournal};
use crate::stage::Stage;
use nck_anneal::{AnnealError, AnnealSample};
use nck_cancel::{CancelToken, Checkpointer};
use nck_circuit::{NmState, QaoaError};
use nck_classical::Incumbent;
use nck_compile::CompileError;
use nck_qubo::{QuboIoError, TokenKind};
use nck_store::{KillPoint, Recovered, RunStore, StoreError, StoreOp};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::time::Duration;

/// Default solver work units (annealer reads, optimizer iterations,
/// Grover guesses) between mid-solve checkpoints.
pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = 16;

// ---------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------

/// One wire shape per type: `put` appends the encoding, `read`
/// decodes it from untrusted bytes.
pub(crate) trait Codec: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn read(r: &mut Reader<'_>) -> Result<Self, StoreError>;

    /// The elements of a sequence, after its length prefix. Bytes
    /// override the pair with one copy: checkpoint payloads are tens
    /// of kilobytes, and a byte-at-a-time loop is ~30× slower.
    fn put_items(items: &[Self], out: &mut Vec<u8>) {
        for x in items {
            x.put(out);
        }
    }
    fn read_items(n: usize, r: &mut Reader<'_>) -> Result<Vec<Self>, StoreError> {
        (0..n).map(|_| r.get()).collect()
    }
}

/// Append each value's encoding, in order.
macro_rules! put {
    ($out:expr; $($v:expr),+ $(,)?) => {{
        $( $v.put($out); )+
    }};
}

/// Encode one value.
pub(crate) fn encode<T: Codec>(v: &T) -> Vec<u8> {
    let mut out = Vec::new();
    v.put(&mut out);
    out
}

/// Decode one value that must span all of `buf`.
fn decode_exact<T: Codec>(buf: &[u8]) -> Result<T, StoreError> {
    let mut r = Reader { buf, pos: 0 };
    let v = T::read(&mut r)?;
    r.finish()?;
    Ok(v)
}

/// Decode a backend checkpoint payload; `None` on any malformed
/// payload (the backend then starts the job from scratch).
pub(crate) fn decode<T: Codec>(buf: &[u8]) -> Option<T> {
    decode_exact(buf).ok()
}

/// Bounded reader over an untrusted byte slice. Every read is
/// range-checked; a short or malformed buffer yields a typed
/// [`StoreError::Corrupt`], never a panic.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn corrupt(&self, reason: &str) -> StoreError {
        StoreError::Corrupt {
            path: "<record>".to_string(),
            offset: self.pos as u64,
            reason: reason.to_string(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.corrupt("length overflow"))?;
        if end > self.buf.len() {
            return Err(self.corrupt("record truncated"));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], StoreError> {
        let mut a = [0; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    fn get<T: Codec>(&mut self) -> Result<T, StoreError> {
        T::read(self)
    }

    fn finish(&self) -> Result<(), StoreError> {
        if self.pos != self.buf.len() {
            return Err(self.corrupt("trailing bytes after record"));
        }
        Ok(())
    }
}

impl Codec for u8 {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(r.take(1)?[0])
    }
    fn put_items(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
    fn read_items(n: usize, r: &mut Reader<'_>) -> Result<Vec<u8>, StoreError> {
        Ok(r.take(n)?.to_vec())
    }
}

impl Codec for u32 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(u32::from_le_bytes(r.array()?))
    }
}

impl Codec for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(u64::from_le_bytes(r.array()?))
    }
}

impl Codec for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        usize::try_from(r.get::<u64>()?).map_err(|_| r.corrupt("count exceeds usize"))
    }
}

impl Codec for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(f64::from_bits(r.get()?))
    }
}

impl Codec for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        match r.get::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(r.corrupt("flag out of range")),
        }
    }
}

impl Codec for Duration {
    fn put(&self, out: &mut Vec<u8>) {
        put!(out; self.as_secs(), self.subsec_nanos());
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let secs = r.get()?;
        let nanos = r.get()?;
        if nanos >= 1_000_000_000 {
            return Err(r.corrupt("subsecond nanoseconds out of range"));
        }
        Ok(Duration::new(secs, nanos))
    }
}

impl Codec for String {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let n = r.get()?;
        let b = r.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| r.corrupt("invalid utf-8"))
    }
}

/// A length-prefixed sequence: the wire shape of `Vec<T>`.
fn put_slice<T: Codec>(items: &[T], out: &mut Vec<u8>) {
    items.len().put(out);
    T::put_items(items, out);
}

impl<T: Codec> Codec for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_slice(self, out);
    }
    /// Every element takes at least one byte, so a length prefix
    /// beyond the bytes left is rejected before anything is allocated.
    fn read(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let n: usize = r.get()?;
        if n > r.buf.len().saturating_sub(r.pos) {
            return Err(r.corrupt("length prefix exceeds record"));
        }
        T::read_items(n, r)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => put!(out; 0u8),
            Some(v) => put!(out; 1u8, v),
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        match r.get::<u8>()? {
            0 => Ok(None),
            1 => Ok(Some(r.get()?)),
            _ => Err(r.corrupt("option tag out of range")),
        }
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        put!(out; self.0, self.1);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok((r.get()?, r.get()?))
    }
}

/// Closed vocabularies travel as one tag byte: the variant's
/// discriminant, which is its index in the type's list of variants.
macro_rules! tag_codec {
    ($($ty:ident = $all:expr),+ $(,)?) => {$(
        impl Codec for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                out.push(*self as u8);
            }
            fn read(r: &mut Reader<'_>) -> Result<Self, StoreError> {
                let tag = usize::from(r.get::<u8>()?);
                $all.get(tag)
                    .copied()
                    .ok_or_else(|| r.corrupt(concat!("unknown ", stringify!($ty), " tag")))
            }
        }
    )+};
}

tag_codec! {
    BackendId = BackendId::ALL,
    Stage = Stage::ALL,
    Fallback = Fallback::ALL,
    BudgetDim = BudgetDim::ALL,
    FaultKind = FaultKind::ALL,
    StoreOp = StoreOp::ALL,
    KillPoint = KillPoint::all(),
    TokenKind = TokenKind::ALL,
}

// ---------------------------------------------------------------------
// Error codecs (exact round trip, so replayed journals compare equal)
// ---------------------------------------------------------------------

impl Codec for ExecError {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            ExecError::Compile(e) => put!(out; 0u8, e),
            ExecError::Anneal(e) => put!(out; 1u8, e),
            ExecError::Qaoa(e) => put!(out; 2u8, e),
            ExecError::Unsatisfiable => put!(out; 3u8),
            ExecError::SoftUnsupported { num_soft } => put!(out; 4u8, num_soft),
            ExecError::TooLarge { vars, limit } => put!(out; 5u8, vars, limit),
            ExecError::NoCandidates => put!(out; 6u8),
            ExecError::Cancelled { backend, stage } => put!(out; 7u8, backend, stage),
            ExecError::Transient { backend, stage, kind, attempt } => {
                put!(out; 8u8, backend, stage, kind, attempt)
            }
            ExecError::BreakerOpen { backend } => put!(out; 9u8, backend),
            ExecError::BudgetExhausted { what } => put!(out; 10u8, what),
            ExecError::Store(e) => put!(out; 11u8, e),
            ExecError::QuboIo(e) => put!(out; 12u8, e),
            ExecError::AlreadyFinished { dir } => put!(out; 13u8, dir),
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(match r.get::<u8>()? {
            0 => ExecError::Compile(r.get()?),
            1 => ExecError::Anneal(r.get()?),
            2 => ExecError::Qaoa(r.get()?),
            3 => ExecError::Unsatisfiable,
            4 => ExecError::SoftUnsupported { num_soft: r.get()? },
            5 => ExecError::TooLarge { vars: r.get()?, limit: r.get()? },
            6 => ExecError::NoCandidates,
            7 => ExecError::Cancelled { backend: r.get()?, stage: r.get()? },
            8 => ExecError::Transient {
                backend: r.get()?,
                stage: r.get()?,
                kind: r.get()?,
                attempt: r.get()?,
            },
            9 => ExecError::BreakerOpen { backend: r.get()? },
            10 => ExecError::BudgetExhausted { what: r.get()? },
            11 => ExecError::Store(r.get()?),
            12 => ExecError::QuboIo(r.get()?),
            13 => ExecError::AlreadyFinished { dir: r.get()? },
            _ => return Err(r.corrupt("unknown exec error tag")),
        })
    }
}

impl Codec for CompileError {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            CompileError::Unsatisfiable(what) => put!(out; 0u8, what),
            CompileError::NoQuboFound { ancillas_tried, shape } => {
                put!(out; 1u8, ancillas_tried, shape)
            }
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(match r.get::<u8>()? {
            0 => CompileError::Unsatisfiable(r.get()?),
            1 => CompileError::NoQuboFound { ancillas_tried: r.get()?, shape: r.get()? },
            _ => return Err(r.corrupt("unknown compile error tag")),
        })
    }
}

impl Codec for AnnealError {
    fn put(&self, out: &mut Vec<u8>) {
        let AnnealError::EmbeddingFailed { logical_vars, device_qubits } = self;
        put!(out; logical_vars, device_qubits);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(AnnealError::EmbeddingFailed { logical_vars: r.get()?, device_qubits: r.get()? })
    }
}

impl Codec for QaoaError {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            QaoaError::TooManyQubits { needed, available } => put!(out; 0u8, needed, available),
            QaoaError::TooLargeToSimulate { needed, sim_limit } => {
                put!(out; 1u8, needed, sim_limit)
            }
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(match r.get::<u8>()? {
            0 => QaoaError::TooManyQubits { needed: r.get()?, available: r.get()? },
            1 => QaoaError::TooLargeToSimulate { needed: r.get()?, sim_limit: r.get()? },
            _ => return Err(r.corrupt("unknown qaoa error tag")),
        })
    }
}

impl Codec for StoreError {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            StoreError::Io { op, path, kind } => put!(out; 0u8, op, path, kind),
            StoreError::Corrupt { path, offset, reason } => put!(out; 1u8, path, offset, reason),
            StoreError::Killed { point } => put!(out; 2u8, point),
            StoreError::Dead => put!(out; 3u8),
            StoreError::NotEmpty { path } => put!(out; 4u8, path),
            StoreError::NoRun { path } => put!(out; 5u8, path),
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(match r.get::<u8>()? {
            0 => StoreError::Io { op: r.get()?, path: r.get()?, kind: r.get()? },
            1 => StoreError::Corrupt { path: r.get()?, offset: r.get()?, reason: r.get()? },
            2 => StoreError::Killed { point: r.get()? },
            3 => StoreError::Dead,
            4 => StoreError::NotEmpty { path: r.get()? },
            5 => StoreError::NoRun { path: r.get()? },
            _ => return Err(r.corrupt("unknown store error tag")),
        })
    }
}

impl Codec for QuboIoError {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            QuboIoError::MissingHeader => put!(out; 0u8),
            QuboIoError::MalformedHeader { line } => put!(out; 1u8, line),
            QuboIoError::BadNumber { line, what, token } => put!(out; 2u8, line, what, token),
            QuboIoError::TermBeforeHeader { line } => put!(out; 3u8, line),
            QuboIoError::MalformedTerm { line } => put!(out; 4u8, line),
            QuboIoError::IndexOutOfRange { line, index, declared } => {
                put!(out; 5u8, line, index, declared)
            }
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(match r.get::<u8>()? {
            0 => QuboIoError::MissingHeader,
            1 => QuboIoError::MalformedHeader { line: r.get()? },
            2 => QuboIoError::BadNumber { line: r.get()?, what: r.get()?, token: r.get()? },
            3 => QuboIoError::TermBeforeHeader { line: r.get()? },
            4 => QuboIoError::MalformedTerm { line: r.get()? },
            5 => {
                QuboIoError::IndexOutOfRange { line: r.get()?, index: r.get()?, declared: r.get()? }
            }
            _ => return Err(r.corrupt("unknown qubo io error tag")),
        })
    }
}

// ---------------------------------------------------------------------
// Journal event codec
// ---------------------------------------------------------------------

impl Codec for JournalEvent {
    fn put(&self, out: &mut Vec<u8>) {
        put!(out; self.at, self.backend, self.attempt, self.kind);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(JournalEvent { at: r.get()?, backend: r.get()?, attempt: r.get()?, kind: r.get()? })
    }
}

impl Codec for JournalKind {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            JournalKind::AttemptStarted => put!(out; 0u8),
            JournalKind::StageFailed { stage, error, suppressed } => {
                put!(out; 1u8, stage, error, suppressed)
            }
            JournalKind::FallbackTaken { what } => put!(out; 2u8, what),
            JournalKind::Retry { backoff } => put!(out; 3u8, backoff),
            JournalKind::BreakerOpened => put!(out; 4u8),
            JournalKind::BreakerShortCircuit => put!(out; 5u8),
            JournalKind::BreakerProbe => put!(out; 6u8),
            JournalKind::RungExhausted { reason } => put!(out; 7u8, reason),
            JournalKind::LadderStep { from, to } => put!(out; 8u8, from, to),
            JournalKind::PartialResult { candidates } => put!(out; 9u8, candidates),
            JournalKind::Succeeded => put!(out; 10u8),
            JournalKind::Failed { error } => put!(out; 11u8, error),
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(match r.get::<u8>()? {
            0 => JournalKind::AttemptStarted,
            1 => {
                JournalKind::StageFailed { stage: r.get()?, error: r.get()?, suppressed: r.get()? }
            }
            2 => JournalKind::FallbackTaken { what: r.get()? },
            3 => JournalKind::Retry { backoff: r.get()? },
            4 => JournalKind::BreakerOpened,
            5 => JournalKind::BreakerShortCircuit,
            6 => JournalKind::BreakerProbe,
            7 => JournalKind::RungExhausted { reason: r.get()? },
            8 => JournalKind::LadderStep { from: r.get()?, to: r.get()? },
            9 => JournalKind::PartialResult { candidates: r.get()? },
            10 => JournalKind::Succeeded,
            11 => JournalKind::Failed { error: r.get()? },
            _ => return Err(r.corrupt("unknown journal kind tag")),
        })
    }
}

// ---------------------------------------------------------------------
// WAL records
// ---------------------------------------------------------------------

/// One durable WAL record of a supervised run.
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// A journal event, persisted as it is journaled.
    Journal(JournalEvent),
    /// Budget position at the *start* of an attempt. A crash mid-attempt
    /// resumes with the same counters, hence the same derived attempt
    /// seed — which is what makes mid-solve checkpoints replayable.
    Progress {
        /// Ladder rung index the attempt runs on.
        rung: u32,
        /// Attempt index within the rung.
        rung_attempt: u32,
        /// Attempt index across the whole run (seeds derive from this).
        global_attempt: u32,
        /// Samples consumed by earlier attempts.
        samples_used: u64,
    },
    /// A ladder rung finished and the run stepped past it; resume never
    /// re-enters rungs recorded here.
    RungCompleted {
        /// The completed rung's index.
        rung: u32,
    },
    /// A mid-solve checkpoint from a backend hot loop (annealer reads,
    /// optimizer simplex, branch-and-bound incumbent, Grover schedule).
    Checkpoint {
        /// The backend's checkpoint tag.
        tag: String,
        /// Opaque payload; the backend's codec gives it meaning.
        payload: Vec<u8>,
    },
    /// The run reached a terminal event; resuming is now an error.
    Finished {
        /// True when the run produced a report.
        success: bool,
    },
}

impl Codec for Record {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Record::Journal(e) => put!(out; 1u8, e),
            Record::Progress { rung, rung_attempt, global_attempt, samples_used } => {
                put!(out; 2u8, rung, rung_attempt, global_attempt, samples_used)
            }
            Record::RungCompleted { rung } => put!(out; 3u8, rung),
            Record::Checkpoint { tag, payload } => put!(out; 4u8, tag, payload),
            Record::Finished { success } => put!(out; 5u8, success),
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(match r.get::<u8>()? {
            1 => Record::Journal(r.get()?),
            2 => Record::Progress {
                rung: r.get()?,
                rung_attempt: r.get()?,
                global_attempt: r.get()?,
                samples_used: r.get()?,
            },
            3 => Record::RungCompleted { rung: r.get()? },
            4 => Record::Checkpoint { tag: r.get()?, payload: r.get()? },
            5 => Record::Finished { success: r.get()? },
            _ => return Err(r.corrupt("unknown record tag")),
        })
    }
}

/// Encode one [`Record`] for the WAL.
pub fn encode_record(rec: &Record) -> Vec<u8> {
    encode(rec)
}

/// Decode one WAL record. Typed error — never a panic — on any
/// malformed input.
pub fn decode_record(buf: &[u8]) -> Result<Record, StoreError> {
    decode_exact(buf)
}

// ---------------------------------------------------------------------
// Recovered run state
// ---------------------------------------------------------------------

/// Everything a resumed supervised run restores: the journal so far,
/// its monotonic timebase offset, the ladder/budget position, and the
/// latest mid-solve checkpoint per backend tag.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveredRun {
    /// The journal as persisted — an exact prefix of what the crashed
    /// run held in memory.
    pub journal: RunJournal,
    /// The journal's timebase offset: the resumed run's clock starts
    /// here so journal offsets stay monotonic across the crash.
    pub elapsed: Duration,
    /// Ladder rungs fully completed; resume starts at this rung index.
    pub completed_rungs: u32,
    /// Attempt index within the interrupted rung.
    pub rung_attempt: u32,
    /// Attempt index across the whole run (attempt seeds derive from
    /// this, so the resumed attempt replays the crashed one exactly).
    pub global_attempt: u32,
    /// Samples consumed before the crash.
    pub samples_used: u64,
    /// Latest mid-solve checkpoint per backend tag.
    pub checkpoints: HashMap<String, Vec<u8>>,
    /// Terminal state, if the run finished before the crash — resuming
    /// a finished run is a typed error, not a re-execution.
    pub finished: Option<bool>,
}

impl RecoveredRun {
    /// Fold one WAL record into the recovered state.
    pub fn apply(&mut self, rec: Record) {
        match rec {
            Record::Journal(e) => {
                if e.at > self.elapsed {
                    self.elapsed = e.at;
                }
                self.journal.events.push(e);
            }
            Record::Progress { rung_attempt, global_attempt, samples_used, .. } => {
                self.rung_attempt = rung_attempt;
                self.global_attempt = global_attempt;
                self.samples_used = samples_used;
            }
            Record::RungCompleted { rung } => {
                self.completed_rungs = self.completed_rungs.max(rung + 1);
                // Checkpoints and attempt position belong to the rung
                // that just closed; the next rung starts fresh.
                self.rung_attempt = 0;
                self.checkpoints.clear();
            }
            Record::Checkpoint { tag, payload } => {
                self.checkpoints.insert(tag, payload);
            }
            Record::Finished { success } => {
                self.finished = Some(success);
            }
        }
    }

    /// Serialize for a snapshot. Mid-solve checkpoints are *not*
    /// snapshotted: snapshots are taken at rung boundaries and at the
    /// end of the run, where in-rung solver state is dead weight.
    pub fn encode(&self) -> Vec<u8> {
        encode(self)
    }

    /// Decode a snapshot produced by [`encode`](RecoveredRun::encode).
    pub fn decode(buf: &[u8]) -> Result<RecoveredRun, StoreError> {
        decode_exact(buf)
    }

    /// Rebuild the run state from what the store recovered on open:
    /// decode the snapshot (if any), then fold every WAL record beyond
    /// it, in order.
    pub fn recover(recovered: &Recovered) -> Result<RecoveredRun, StoreError> {
        let mut run = match &recovered.snapshot {
            Some(bytes) => RecoveredRun::decode(bytes)?,
            None => RecoveredRun::default(),
        };
        for rec in &recovered.records {
            run.apply(decode_record(rec)?);
        }
        Ok(run)
    }
}

impl Codec for RecoveredRun {
    fn put(&self, out: &mut Vec<u8>) {
        put!(out;
            self.elapsed,
            self.completed_rungs,
            self.rung_attempt,
            self.global_attempt,
            self.samples_used,
            self.finished,
            self.journal.events,
        );
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(RecoveredRun {
            elapsed: r.get()?,
            completed_rungs: r.get()?,
            rung_attempt: r.get()?,
            global_attempt: r.get()?,
            samples_used: r.get()?,
            finished: r.get()?,
            journal: RunJournal { events: r.get()? },
            checkpoints: HashMap::new(),
        })
    }
}

// ---------------------------------------------------------------------
// The live sink
// ---------------------------------------------------------------------

/// The live persistence sink for one supervised run: owns the
/// [`RunStore`], serializes [`Record`]s into it, and doubles as the
/// [`Checkpointer`] every backend hot loop sees.
///
/// Persistence failures are deliberately *soft* from the solver's
/// perspective ([`Checkpointer::save`] is infallible): the first store
/// failure is latched, the run's [`CancelToken`] is cancelled so the
/// run winds down cooperatively, and [`death`](DurableRun::death)
/// exposes the typed error for the caller and the chaos harness.
pub struct DurableRun {
    store: Mutex<RunStore>,
    restored: Mutex<HashMap<String, Vec<u8>>>,
    cancel: Mutex<Option<CancelToken>>,
    death: Mutex<Option<StoreError>>,
    interval: u64,
}

impl DurableRun {
    /// A sink over a fresh store.
    pub fn new(store: RunStore) -> Self {
        Self::with_restored(store, HashMap::new())
    }

    /// A sink over a resumed store, pre-loaded with the recovered
    /// mid-solve checkpoints. Each checkpoint is handed out exactly
    /// once ([`Checkpointer::load`] consumes), so a later attempt with
    /// a different seed can never restore stale solver state.
    pub fn with_restored(store: RunStore, checkpoints: HashMap<String, Vec<u8>>) -> Self {
        DurableRun {
            store: Mutex::new(store),
            restored: Mutex::new(checkpoints),
            cancel: Mutex::new(None),
            death: Mutex::new(None),
            interval: DEFAULT_CHECKPOINT_INTERVAL,
        }
    }

    /// Override the mid-solve checkpoint interval (work units between
    /// checkpoints; 0 disables mid-solve checkpoints but keeps journal
    /// and rung durability).
    pub fn with_interval(mut self, interval: u64) -> Self {
        self.interval = interval;
        self
    }

    /// Bind the run's cancellation token; a store failure cancels it so
    /// the run winds down instead of computing results that can no
    /// longer be persisted.
    pub fn bind_cancel(&self, token: CancelToken) {
        *self.cancel.lock() = Some(token);
    }

    /// The first store failure, if the store died mid-run.
    pub fn death(&self) -> Option<StoreError> {
        self.death.lock().clone()
    }

    /// Append one record durably. Failures are latched, not returned.
    pub fn record(&self, rec: &Record) {
        let bytes = encode_record(rec);
        let result = self.store.lock().append(&bytes);
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// Write a snapshot (collapsing the WAL). Failures are latched.
    pub fn snapshot(&self, state: &[u8]) {
        let result = self.store.lock().snapshot(state);
        if let Err(e) = result {
            self.fail(e);
        }
    }

    fn fail(&self, e: StoreError) {
        // Using a dead store reports `Dead` on every call; keep the
        // original failure, which names the kill-point or I/O error.
        let mut death = self.death.lock();
        if death.is_none() {
            *death = Some(e);
        }
        drop(death);
        if let Some(t) = &*self.cancel.lock() {
            t.cancel();
        }
    }
}

impl Checkpointer for DurableRun {
    fn save(&self, tag: &str, payload: &[u8]) {
        self.record(&Record::Checkpoint { tag: tag.to_string(), payload: payload.to_vec() });
    }

    fn load(&self, tag: &str) -> Option<Vec<u8>> {
        self.restored.lock().remove(tag)
    }

    fn interval(&self) -> u64 {
        self.interval
    }
}

// ---------------------------------------------------------------------
// Backend checkpoint payloads
// ---------------------------------------------------------------------

impl Codec for AnnealSample {
    fn put(&self, out: &mut Vec<u8>) {
        put!(out; self.assignment, self.energy, self.broken_chains);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(AnnealSample { assignment: r.get()?, energy: r.get()?, broken_chains: r.get()? })
    }
}

/// Encode annealer progress — reads completed plus every decoded
/// sample so far, in generation order — as the wire shape of
/// `(usize, Vec<AnnealSample>)`, without copying the samples into a
/// vector first.
pub(crate) fn encode_anneal_progress(reads_done: usize, samples: &[AnnealSample]) -> Vec<u8> {
    let mut out = encode(&reads_done);
    put_slice(samples, &mut out);
    out
}

impl Codec for NmState {
    fn put(&self, out: &mut Vec<u8>) {
        put!(out; self.simplex, self.evaluations, self.iterations);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(NmState { simplex: r.get()?, evaluations: r.get()?, iterations: r.get()? })
    }
}

impl Codec for Incumbent {
    fn put(&self, out: &mut Vec<u8>) {
        put!(out; self.assignment, self.soft_satisfied, self.soft_weight, self.violated_weight);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(Incumbent {
            assignment: r.get()?,
            soft_satisfied: r.get()?,
            soft_weight: r.get()?,
            violated_weight: r.get()?,
        })
    }
}

/// Progress of the Grover backend's BBHT schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GroverProgress {
    /// Next BBHT guess index to run.
    pub next_guess: u64,
    /// Measurements taken so far.
    pub measurements: u64,
    /// Grover iterations accumulated so far.
    pub total_iterations: u64,
    /// The current BBHT iteration-count estimate `m`.
    pub m: f64,
    /// Success probability reported by the last measurement.
    pub success_probability: f64,
}

impl Codec for GroverProgress {
    fn put(&self, out: &mut Vec<u8>) {
        put!(out; self.next_guess, self.measurements, self.total_iterations, self.m,
            self.success_probability);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(GroverProgress {
            next_guess: r.get()?,
            measurements: r.get()?,
            total_iterations: r.get()?,
            m: r.get()?,
            success_probability: r.get()?,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<JournalEvent> {
        vec![
            JournalEvent {
                at: Duration::new(3, 999_999_999),
                backend: BackendId::Annealer,
                attempt: 0,
                kind: JournalKind::AttemptStarted,
            },
            JournalEvent {
                at: Duration::from_micros(1),
                backend: BackendId::Gate,
                attempt: 2,
                kind: JournalKind::StageFailed {
                    stage: Stage::Sample,
                    error: ExecError::Transient {
                        backend: BackendId::Gate,
                        stage: Stage::Sample,
                        kind: FaultKind::ChainBreakStorm,
                        attempt: 2,
                    },
                    suppressed: true,
                },
            },
            JournalEvent {
                at: Duration::ZERO,
                backend: BackendId::Supervisor,
                attempt: 7,
                kind: JournalKind::Failed {
                    error: ExecError::Store(StoreError::Corrupt {
                        path: "wal.log".into(),
                        offset: 99,
                        reason: "bad crc".into(),
                    }),
                },
            },
            JournalEvent {
                at: Duration::from_millis(5),
                backend: BackendId::Classical,
                attempt: 1,
                kind: JournalKind::RungExhausted { reason: "permanent error: x".into() },
            },
            JournalEvent {
                at: Duration::from_secs(1),
                backend: BackendId::Grover,
                attempt: 0,
                kind: JournalKind::LadderStep { from: BackendId::Grover, to: BackendId::Classical },
            },
        ]
    }

    #[test]
    fn records_round_trip_exactly() {
        let mut recs: Vec<Record> = sample_events().into_iter().map(Record::Journal).collect();
        recs.push(Record::Progress {
            rung: 1,
            rung_attempt: 3,
            global_attempt: 9,
            samples_used: 1234,
        });
        recs.push(Record::RungCompleted { rung: 2 });
        recs.push(Record::Checkpoint { tag: "annealer".into(), payload: vec![1, 2, 3] });
        recs.push(Record::Finished { success: true });
        recs.push(Record::Finished { success: false });
        for rec in recs {
            let bytes = encode_record(&rec);
            assert_eq!(decode_record(&bytes).unwrap(), rec, "{rec:?}");
        }
    }

    #[test]
    fn every_exec_error_round_trips() {
        let errors = vec![
            ExecError::Compile(CompileError::Unsatisfiable("c1".into())),
            ExecError::Compile(CompileError::NoQuboFound { ancillas_tried: 4, shape: "s".into() }),
            ExecError::Anneal(AnnealError::EmbeddingFailed { logical_vars: 9, device_qubits: 5 }),
            ExecError::Qaoa(QaoaError::TooManyQubits { needed: 70, available: 65 }),
            ExecError::Qaoa(QaoaError::TooLargeToSimulate { needed: 30, sim_limit: 24 }),
            ExecError::Unsatisfiable,
            ExecError::SoftUnsupported { num_soft: 3 },
            ExecError::TooLarge { vars: 30, limit: 20 },
            ExecError::NoCandidates,
            ExecError::Cancelled { backend: BackendId::Annealer, stage: Stage::Embed },
            ExecError::Transient {
                backend: BackendId::Classical,
                stage: Stage::Sample,
                kind: FaultKind::Injected,
                attempt: 5,
            },
            ExecError::BreakerOpen { backend: BackendId::Gate },
            ExecError::BudgetExhausted { what: BudgetDim::Deadline },
            ExecError::Store(StoreError::Io {
                op: StoreOp::Fsync,
                path: "/x/wal.log".into(),
                kind: "permission denied".into(),
            }),
            ExecError::Store(StoreError::Killed { point: KillPoint::CrashMidFrame }),
            ExecError::Store(StoreError::Dead),
            ExecError::Store(StoreError::NotEmpty { path: "/x".into() }),
            ExecError::Store(StoreError::NoRun { path: "/y".into() }),
            ExecError::QuboIo(QuboIoError::MissingHeader),
            ExecError::QuboIo(QuboIoError::BadNumber {
                line: 3,
                what: TokenKind::Value,
                token: "zzz".into(),
            }),
            ExecError::QuboIo(QuboIoError::IndexOutOfRange { line: 2, index: 9, declared: 4 }),
            ExecError::AlreadyFinished { dir: "/runs/a".into() },
        ];
        for e in errors {
            assert_eq!(decode_exact::<ExecError>(&encode(&e)).unwrap(), e, "{e:?}");
        }
    }

    /// Round-trips `wrap(v)` for each of `variants` (listed in
    /// declaration order) through the WAL record codec, then checks
    /// that the tag byte one past the last variant is corruption.
    fn check_closed_set<T: Copy>(variants: &[T], wrap: impl Fn(T) -> Record) {
        let bytes: Vec<Vec<u8>> = variants
            .iter()
            .map(|&v| {
                let rec = wrap(v);
                let b = encode_record(&rec);
                assert_eq!(decode_record(&b).unwrap(), rec, "{rec:?}");
                b
            })
            .collect();
        let (first, last) = (&bytes[0], &bytes[variants.len() - 1]);
        let tag = (0..last.len()).find(|&i| first[i] != last[i]).unwrap();
        assert_eq!(usize::from(last[tag]), variants.len() - 1);
        let mut past = last.clone();
        past[tag] += 1;
        let err = decode_record(&past).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn every_closed_set_variant_round_trips_and_one_past_is_corrupt() {
        let ev = |backend, kind| {
            Record::Journal(JournalEvent {
                at: Duration::from_millis(3),
                backend,
                attempt: 1,
                kind,
            })
        };
        let failed = |error| ev(BackendId::Supervisor, JournalKind::Failed { error });
        check_closed_set(
            &[
                BackendId::Annealer,
                BackendId::Gate,
                BackendId::Grover,
                BackendId::Classical,
                BackendId::Supervisor,
            ],
            |b| ev(b, JournalKind::AttemptStarted),
        );
        check_closed_set(
            &[
                Stage::Compile,
                Stage::Embed,
                Stage::Sample,
                Stage::Decode,
                Stage::Classify,
                Stage::Breaker,
                Stage::Budget,
                Stage::Ladder,
                Stage::Store,
            ],
            |stage| {
                let error = ExecError::NoCandidates;
                ev(BackendId::Gate, JournalKind::StageFailed { stage, error, suppressed: false })
            },
        );
        check_closed_set(&[Fallback::CliqueEmbedding, Fallback::AnalyticP1], |what| {
            ev(BackendId::Annealer, JournalKind::FallbackTaken { what })
        });
        check_closed_set(
            &[BudgetDim::Attempts, BudgetDim::Samples, BudgetDim::Deadline, BudgetDim::Nodes],
            |what| failed(ExecError::BudgetExhausted { what }),
        );
        check_closed_set(&[FaultKind::Injected, FaultKind::ChainBreakStorm], |kind| {
            let (backend, stage) = (BackendId::Gate, Stage::Sample);
            failed(ExecError::Transient { backend, stage, kind, attempt: 0 })
        });
        // Every operation the store emits, each a real I/O error path.
        check_closed_set(
            &[
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
            ],
            |op| {
                let (path, kind) = ("/x/wal.log".to_string(), "permission denied".to_string());
                failed(ExecError::Store(StoreError::Io { op, path, kind }))
            },
        );
        check_closed_set(
            &[
                KillPoint::CrashBeforeFsync,
                KillPoint::CrashMidFrame,
                KillPoint::CrashBetweenSnapshotAndTruncate,
            ],
            |point| failed(ExecError::Store(StoreError::Killed { point })),
        );
        check_closed_set(
            &[TokenKind::Offset, TokenKind::NodeCount, TokenKind::Index, TokenKind::Value],
            |what| {
                let token = "zzz".to_string();
                failed(ExecError::QuboIo(QuboIoError::BadNumber { line: 3, what, token }))
            },
        );
    }

    #[test]
    fn journal_timebase_round_trips_bit_exactly() {
        // The satellite bugfix: journal offsets are monotonic
        // durations serialized exactly (secs + subsec nanos), never
        // wall-clock, so a replayed journal compares equal.
        for e in sample_events() {
            let mut bytes = Vec::new();
            e.put(&mut bytes);
            let mut r = Reader { buf: &bytes, pos: 0 };
            let back = JournalEvent::read(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(back, e);
            assert_eq!(back.at.as_nanos(), e.at.as_nanos());
        }
    }

    #[test]
    fn snapshot_state_round_trips() {
        let mut run = RecoveredRun {
            elapsed: Duration::new(12, 345_678_901),
            completed_rungs: 2,
            rung_attempt: 1,
            global_attempt: 6,
            samples_used: 5000,
            finished: None,
            ..RecoveredRun::default()
        };
        run.journal.events = sample_events();
        let back = RecoveredRun::decode(&run.encode()).unwrap();
        assert_eq!(back, run);
        let finished = RecoveredRun { finished: Some(true), ..run.clone() };
        assert_eq!(RecoveredRun::decode(&finished.encode()).unwrap().finished, Some(true));
    }

    #[test]
    fn recovery_folds_snapshot_then_records() {
        let mut snap = RecoveredRun { completed_rungs: 1, global_attempt: 2, ..Default::default() };
        snap.journal.events.push(sample_events().remove(0));
        let records = vec![
            encode_record(&Record::Progress {
                rung: 1,
                rung_attempt: 0,
                global_attempt: 3,
                samples_used: 100,
            }),
            encode_record(&Record::Checkpoint { tag: "classical".into(), payload: vec![9] }),
            encode_record(&Record::Journal(JournalEvent {
                at: Duration::from_secs(5),
                backend: BackendId::Classical,
                attempt: 0,
                kind: JournalKind::AttemptStarted,
            })),
        ];
        let recovered = Recovered { snapshot: Some(snap.encode()), records, recovered_tail: false };
        let run = RecoveredRun::recover(&recovered).unwrap();
        assert_eq!(run.completed_rungs, 1);
        assert_eq!(run.global_attempt, 3);
        assert_eq!(run.samples_used, 100);
        assert_eq!(run.journal.events.len(), 2);
        assert_eq!(run.elapsed, Duration::from_secs(5), "elapsed tracks the latest event");
        assert_eq!(run.checkpoints.get("classical"), Some(&vec![9]));
    }

    #[test]
    fn rung_completion_discards_in_rung_state() {
        let mut run = RecoveredRun::default();
        run.apply(Record::Progress {
            rung: 0,
            rung_attempt: 4,
            global_attempt: 5,
            samples_used: 7,
        });
        run.apply(Record::Checkpoint { tag: "annealer".into(), payload: vec![1] });
        run.apply(Record::RungCompleted { rung: 0 });
        assert_eq!(run.completed_rungs, 1);
        assert_eq!(run.rung_attempt, 0, "next rung starts at attempt 0");
        assert!(run.checkpoints.is_empty(), "checkpoints die with their rung");
        assert_eq!(run.global_attempt, 5, "global counters survive");
    }

    #[test]
    fn corrupt_records_are_typed_errors_never_panics() {
        // Every truncation of a valid record must fail cleanly.
        let rec = Record::Journal(sample_events().remove(1));
        let bytes = encode_record(&rec);
        for cut in 0..bytes.len() {
            assert!(decode_record(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
        // Unknown tags, hostile lengths, bad utf-8.
        assert!(decode_record(&[]).is_err());
        assert!(decode_record(&[99]).is_err());
        let mut hostile = vec![4u8];
        u64::MAX.put(&mut hostile); // tag length far beyond the buffer
        hostile.extend_from_slice(b"xx");
        assert!(decode_record(&hostile).is_err());
        let mut bad_utf8 = vec![4u8];
        vec![0xffu8, 0xfe].put(&mut bad_utf8);
        Vec::<u8>::new().put(&mut bad_utf8);
        assert!(decode_record(&bad_utf8).is_err());
        // Snapshots too.
        let snap = RecoveredRun { completed_rungs: 3, ..Default::default() }.encode();
        for cut in 0..snap.len() {
            assert!(RecoveredRun::decode(&snap[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn backend_checkpoint_payloads_round_trip() {
        let samples = vec![
            AnnealSample { assignment: vec![true, false, true], energy: -1.25, broken_chains: 2 },
            AnnealSample { assignment: vec![false], energy: f64::MIN_POSITIVE, broken_chains: 0 },
        ];
        let (done, back): (usize, Vec<AnnealSample>) =
            decode(&encode_anneal_progress(17, &samples)).unwrap();
        assert_eq!(done, 17);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].assignment, samples[0].assignment);
        assert_eq!(back[0].energy.to_bits(), samples[0].energy.to_bits());
        assert_eq!(back[1].broken_chains, 0);

        let nm = NmState {
            simplex: vec![(vec![0.1, -0.2], 3.5), (vec![1.0, 2.0], -0.5), (vec![0.0, 0.0], 9.0)],
            evaluations: 41,
            iterations: 12,
        };
        assert_eq!(decode::<NmState>(&encode(&nm)).unwrap(), nm);

        let inc = Incumbent {
            assignment: vec![true, true, false],
            soft_satisfied: 2,
            soft_weight: 5,
            violated_weight: 1,
        };
        assert_eq!(decode::<Incumbent>(&encode(&inc)).unwrap(), inc);

        let g = GroverProgress {
            next_guess: 9,
            measurements: 9,
            total_iterations: 140,
            m: 10.6044,
            success_probability: 0.82,
        };
        assert_eq!(decode::<GroverProgress>(&encode(&g)).unwrap(), g);

        // Malformed payloads decode to None, never panic.
        for buf in [&b""[..], &[0xff; 7][..], &[0xff; 64][..]] {
            assert!(decode::<(usize, Vec<AnnealSample>)>(buf).is_none());
            assert!(decode::<NmState>(buf).is_none());
            assert!(decode::<Incumbent>(buf).is_none());
            assert!(decode::<GroverProgress>(buf).is_none());
        }
    }
}
