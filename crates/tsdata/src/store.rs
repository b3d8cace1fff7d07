//! Contiguous, optionally out-of-core series storage: the workspace's
//! scale data plane.
//!
//! [`SeriesStore`] keeps an n×m collection row-major in **one** contiguous
//! buffer (`f64` or `f32` elements, [`ElemType`]) instead of the
//! one-allocation-per-series `Vec<Vec<f64>>` the rest of the stack grew up
//! on. For collections larger than RAM it adds a zero-dependency
//! file-backed **spill tier**: rows accumulate in an in-memory tail
//! segment, full segments are sealed to disk (atomic tmp+rename, checksum
//! trailer), and reads go through a small LRU-pinned resident window so
//! peak RSS stays bounded by `O(window + tail)` regardless of n.
//!
//! Consumers access rows through the [`SeriesView`] trait, whose
//! borrow-or-copy contract lets resident `f64` stores hand out direct
//! `&[f64]` slices (zero copies, zero allocations) while `f32` and
//! spilled stores decode into a caller-owned scratch buffer. A blanket
//! impl for `[Vec<f64>]` keeps every existing nested-Vec call site
//! working unchanged — and bit-identical, since the slice path returns
//! the very same `&[f64]` the old code indexed.
//!
//! Invariants (see DESIGN.md §10 "Data plane"):
//!
//! * every row pushed is validated (length + finiteness) **once**, at
//!   [`SeriesStore::push_row`]; readers may assume clean data;
//! * sealed segments are immutable except through
//!   [`SeriesStore::z_normalize_in_place`], which rewrites them with the
//!   same atomic tmp+rename protocol `CheckpointStore` uses;
//! * a torn, bit-flipped, or otherwise invalid segment file surfaces as
//!   [`TsError::CorruptData`] — never a decode panic, never silent
//!   garbage rows (an FNV-1a checksum over header+payload guards the
//!   whole file);
//! * the resident window never holds more than the configured number of
//!   decoded segments ([`SpillConfig::resident_segments`]), verified by
//!   [`SpillStats::max_resident`].

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use tserror::{ensure_finite, TsError, TsResult};

use crate::normalize::{std_dev, z_normalize_in_place};

/// Element width of a [`SeriesStore`] buffer.
///
/// `F32` halves memory and disk traffic at the cost of ~7 significant
/// decimal digits per sample. After z-normalization samples live in a
/// few-units range where `f32` keeps ~1e-7 absolute error — far below
/// generator noise — so cluster *labels* on well-separated data are
/// unaffected (see DESIGN.md §10 for when `f32` is safe). Distances and
/// centroids are always *computed* in `f64`; only storage narrows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemType {
    /// 8-byte IEEE-754 double precision (lossless round-trip).
    F64,
    /// 4-byte IEEE-754 single precision (storage-only narrowing).
    F32,
}

impl ElemType {
    /// Bytes per stored sample.
    #[must_use]
    pub fn bytes(self) -> usize {
        match self {
            ElemType::F64 => 8,
            ElemType::F32 => 4,
        }
    }

    /// Stable lowercase name (`"f64"` / `"f32"`), used in config tags.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ElemType::F64 => "f64",
            ElemType::F32 => "f32",
        }
    }

    /// Wire tag for segment headers.
    fn tag(self) -> u8 {
        match self {
            ElemType::F64 => 0,
            ElemType::F32 => 1,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(ElemType::F64),
            1 => Some(ElemType::F32),
            _ => None,
        }
    }
}

/// Shape of one row of a [`SeriesView`]: channel count and per-channel
/// length.
///
/// A row with `channels = c` and `len = l` occupies `c · l` contiguous
/// samples in **channel-major** order: all `l` samples of channel 0,
/// then all of channel 1, and so on. Univariate fixed-length views
/// report `channels = 1, len = series_len()` for every row, which makes
/// the layout contract degenerate to the original flat-row one — the
/// compatibility guarantee every pre-redesign consumer relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowShape {
    /// Number of channels (≥ 1).
    pub channels: usize,
    /// Samples per channel for this row.
    pub len: usize,
}

impl RowShape {
    /// Total samples the row occupies (`channels · len`) — the length of
    /// the slice [`SeriesView::try_row`] returns for it.
    #[must_use]
    pub fn samples(self) -> usize {
        self.channels * self.len
    }
}

/// Read access to an n-row collection of series.
///
/// The one method that matters, [`try_row`](SeriesView::try_row), has a
/// borrow-*or*-copy contract: implementations return a slice borrowed
/// either from themselves (resident `f64` storage — the zero-copy fast
/// path) or from the caller's `scratch` buffer (decoded `f32` rows,
/// spilled segments copied out from under the window lock). Callers must
/// therefore treat the returned slice as invalidated by the next
/// `try_row` call with the same scratch.
///
/// # Shape contract
///
/// Views are shape-aware: [`row_shape`](SeriesView::row_shape) reports
/// each row's [`RowShape`] and [`channels`](SeriesView::channels) the
/// collection-wide channel count. The returned `try_row` slice always
/// holds `row_shape(i).samples()` values in channel-major order (see
/// [`RowShape`]). The defaults report `channels = 1, len = series_len()`
/// — exactly the pre-redesign flat layout — so univariate fixed-length
/// impls (`[Vec<f64>]`, [`SeriesStore`]) need no code and stay
/// bit-identical.
///
/// `Sync` is a supertrait so engines can fan row reads across
/// `std::thread::scope` workers, each with its own scratch.
pub trait SeriesView: Sync {
    /// Number of series.
    fn n_series(&self) -> usize;

    /// Per-channel series length m (0 only for empty views). For ragged
    /// views this is the plan-sizing bound: the maximum row length.
    fn series_len(&self) -> usize;

    /// Collection-wide channel count (default 1). Rows of a `c`-channel
    /// view hold `c · series_len()` samples, channel-major.
    fn channels(&self) -> usize {
        1
    }

    /// Whether rows may differ in length. `false` (the default) promises
    /// every row has `len == series_len()`, which lets engines cache one
    /// FFT plan and skip per-row length dispatch.
    fn is_ragged(&self) -> bool {
        false
    }

    /// Shape of row `i`. The default reports the fixed collection shape;
    /// ragged views override it with the row's true length.
    fn row_shape(&self, i: usize) -> RowShape {
        let _ = i;
        RowShape {
            channels: self.channels(),
            len: self.series_len(),
        }
    }

    /// Returns row `i`, either borrowed from storage or staged into
    /// `scratch`. The slice holds `row_shape(i).samples()` values,
    /// channel-major.
    ///
    /// # Errors
    ///
    /// [`TsError::CorruptData`] when backing storage fails validation
    /// (spilled tiers only — in-memory views are infallible).
    ///
    /// # Panics
    ///
    /// Implementations may panic on `i >= n_series()` — an
    /// out-of-bounds index is a caller bug, not a data fault.
    fn try_row<'s>(&'s self, i: usize, scratch: &'s mut Vec<f64>) -> TsResult<&'s [f64]>;
}

/// Channel-major reinterpretation of a fixed-length univariate view.
///
/// Wraps any [`SeriesView`] whose rows hold `c · m` samples and exposes
/// them as `c`-channel rows of per-channel length `m`: `try_row` passes
/// the underlying flat slice through untouched (channel-major by
/// construction), while [`channels`](SeriesView::channels) and
/// [`series_len`](SeriesView::series_len) report the reinterpreted
/// shape. This is how multichannel collections ride the existing
/// storage tiers — a 3-channel [`SeriesStore`] is just a store with
/// `m = 3·len` wrapped in a `ChannelView`, spill segments and all.
#[derive(Debug)]
pub struct ChannelView<'a, V: SeriesView + ?Sized> {
    inner: &'a V,
    channels: usize,
}

impl<'a, V: SeriesView + ?Sized> ChannelView<'a, V> {
    /// Reinterprets `inner` as `channels`-channel rows.
    ///
    /// # Errors
    ///
    /// [`TsError::LengthMismatch`] when `channels == 0` or the inner
    /// row length is not a multiple of `channels`, or when `inner` is
    /// itself multichannel or ragged (reinterpretation needs the flat
    /// univariate layout).
    pub fn new(inner: &'a V, channels: usize) -> TsResult<Self> {
        let flat = inner.series_len();
        if channels == 0
            || inner.channels() != 1
            || inner.is_ragged()
            || !flat.is_multiple_of(channels)
        {
            return Err(TsError::LengthMismatch {
                expected: channels.max(1),
                found: flat,
                series: 0,
            });
        }
        Ok(ChannelView { inner, channels })
    }
}

impl<'a, V: SeriesView + ?Sized> SeriesView for ChannelView<'a, V> {
    fn n_series(&self) -> usize {
        self.inner.n_series()
    }

    fn series_len(&self) -> usize {
        self.inner.series_len() / self.channels
    }

    fn channels(&self) -> usize {
        self.channels
    }

    fn try_row<'s>(&'s self, i: usize, scratch: &'s mut Vec<f64>) -> TsResult<&'s [f64]> {
        self.inner.try_row(i, scratch)
    }
}

impl SeriesView for [Vec<f64>] {
    fn n_series(&self) -> usize {
        self.len()
    }

    fn series_len(&self) -> usize {
        self.first().map_or(0, Vec::len)
    }

    fn try_row<'s>(&'s self, i: usize, _scratch: &'s mut Vec<f64>) -> TsResult<&'s [f64]> {
        Ok(&self[i])
    }
}

/// Spill-tier tuning for [`SeriesStore::spilled`].
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Directory for segment files (created if absent). The store owns
    /// the segment files it writes and removes them on drop.
    pub dir: PathBuf,
    /// Rows per sealed segment (the spill granularity). Default 1024.
    pub rows_per_segment: usize,
    /// Decoded segments the LRU window may pin in memory at once.
    /// Default 2 — one being read, one lookahead.
    pub resident_segments: usize,
}

impl SpillConfig {
    /// Config with default segment size (1024 rows) and window (2).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SpillConfig {
            dir: dir.into(),
            rows_per_segment: 1024,
            resident_segments: 2,
        }
    }

    /// Sets the rows-per-segment granularity (min 1).
    #[must_use]
    pub fn rows_per_segment(mut self, rows: usize) -> Self {
        self.rows_per_segment = rows.max(1);
        self
    }

    /// Sets the resident-window capacity in segments (min 1).
    #[must_use]
    pub fn resident_segments(mut self, segments: usize) -> Self {
        self.resident_segments = segments.max(1);
        self
    }
}

/// Counters proving the resident window actually bounds memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpillStats {
    /// Segment decodes from disk (window misses).
    pub loads: u64,
    /// Row reads served from an already-resident segment.
    pub hits: u64,
    /// Segments dropped from the window to respect the cap.
    pub evictions: u64,
    /// High-water mark of simultaneously resident decoded segments.
    pub max_resident: usize,
    /// Sealed segments currently on disk.
    pub sealed_segments: usize,
}

/// LRU window over decoded segments, front = most recent.
struct WindowState {
    /// `(segment index, decoded rows)`, at most `cap` entries.
    slots: Vec<(usize, Vec<f64>)>,
    cap: usize,
    loads: u64,
    hits: u64,
    evictions: u64,
    max_resident: usize,
}

impl WindowState {
    fn new(cap: usize) -> Self {
        WindowState {
            slots: Vec::with_capacity(cap),
            cap,
            loads: 0,
            hits: 0,
            evictions: 0,
            max_resident: 0,
        }
    }

    fn clear(&mut self) {
        self.slots.clear();
    }
}

/// File-backed storage tier: sealed immutable segments plus an open
/// in-memory tail (always staged as `f64`; narrowed on seal when the
/// store is `f32`).
struct SpillTier {
    cfg: SpillConfig,
    elem: ElemType,
    m: usize,
    /// Number of sealed segments on disk (`seg_000000.bin` …).
    sealed: usize,
    /// Open tail rows, row-major `f64`.
    tail: Vec<f64>,
    window: Mutex<WindowState>,
}

const SEGMENT_MAGIC: &[u8; 4] = b"TSSG";
const SEGMENT_VERSION: u8 = 1;
/// magic(4) + version(1) + elem(1) + reserved(2) + m(8) + rows(8)
const SEGMENT_HEADER: usize = 24;
const SEGMENT_TRAILER: usize = 8; // FNV-1a checksum

/// FNV-1a 64-bit over `bytes` — the segment integrity check. Not
/// cryptographic; catches torn writes, truncation, and bit flips.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn corrupt(path: &Path, what: impl std::fmt::Display) -> TsError {
    TsError::CorruptData {
        context: format!("spill segment {}: {what}", path.display()),
    }
}

impl SpillTier {
    fn new(m: usize, elem: ElemType, cfg: SpillConfig) -> TsResult<Self> {
        fs::create_dir_all(&cfg.dir).map_err(|e| corrupt(&cfg.dir, format!("mkdir: {e}")))?;
        let window = Mutex::new(WindowState::new(cfg.resident_segments));
        Ok(SpillTier {
            elem,
            m,
            sealed: 0,
            tail: Vec::new(),
            window,
            cfg,
        })
    }

    fn segment_path(&self, seg: usize) -> PathBuf {
        self.cfg.dir.join(format!("seg_{seg:06}.bin"))
    }

    fn tail_rows(&self) -> usize {
        self.tail.len() / self.m
    }

    fn push_row(&mut self, row: &[f64]) -> TsResult<()> {
        self.tail.extend_from_slice(row);
        if self.tail_rows() == self.cfg.rows_per_segment {
            self.seal_tail()?;
        }
        Ok(())
    }

    /// Encodes the tail into the next sealed segment (tmp+rename, like
    /// `CheckpointStore`) and clears it.
    fn seal_tail(&mut self) -> TsResult<()> {
        let rows = self.tail_rows();
        debug_assert!(rows > 0);
        let bytes = encode_segment(&self.tail, rows, self.m, self.elem);
        let path = self.segment_path(self.sealed);
        let tmp = path.with_extension("bin.tmp");
        let write = || -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_data()?;
            drop(f);
            fs::rename(&tmp, &path)
        };
        write().map_err(|e| corrupt(&path, format!("write: {e}")))?;
        self.sealed += 1;
        self.tail.clear();
        Ok(())
    }

    /// Copies row `i` of a sealed segment into `scratch` through the LRU
    /// window. The copy is what lets the borrow escape the window lock.
    fn fetch_sealed<'s>(&self, i: usize, scratch: &'s mut Vec<f64>) -> TsResult<&'s [f64]> {
        let seg = i / self.cfg.rows_per_segment;
        let off = (i % self.cfg.rows_per_segment) * self.m;
        let mut w = self
            .window
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let pos = w.slots.iter().position(|(s, _)| *s == seg);
        let slot = match pos {
            Some(p) => {
                w.hits += 1;
                // Move-to-front keeps eviction order LRU.
                let entry = w.slots.remove(p);
                w.slots.insert(0, entry);
                0
            }
            None => {
                let decoded = decode_segment(
                    &self.segment_path(seg),
                    self.m,
                    self.elem,
                    self.cfg.rows_per_segment,
                )?;
                w.loads += 1;
                w.slots.insert(0, (seg, decoded));
                while w.slots.len() > w.cap {
                    w.slots.pop();
                    w.evictions += 1;
                }
                w.max_resident = w.max_resident.max(w.slots.len());
                0
            }
        };
        scratch.clear();
        scratch.extend_from_slice(&w.slots[slot].1[off..off + self.m]);
        Ok(&scratch[..])
    }

    /// Rewrites every sealed segment with z-normalized rows (atomic
    /// per-segment), normalizes the tail, and drops the now-stale window.
    fn z_normalize(&mut self) -> TsResult<crate::dataset::NormalizeReport> {
        let mut report = crate::dataset::NormalizeReport::default();
        for seg in 0..self.sealed {
            let path = self.segment_path(seg);
            let mut rows = decode_segment(&path, self.m, self.elem, self.cfg.rows_per_segment)?;
            normalize_rows(&mut rows, self.m, &mut report);
            let n_rows = rows.len() / self.m;
            let bytes = encode_segment(&rows, n_rows, self.m, self.elem);
            let tmp = path.with_extension("bin.tmp");
            let write = || -> std::io::Result<()> {
                let mut f = fs::File::create(&tmp)?;
                f.write_all(&bytes)?;
                f.sync_data()?;
                drop(f);
                fs::rename(&tmp, &path)
            };
            write().map_err(|e| corrupt(&path, format!("rewrite: {e}")))?;
        }
        let m = self.m;
        normalize_rows(&mut self.tail, m, &mut report);
        self.window
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
        Ok(report)
    }

    fn stats(&self) -> SpillStats {
        let w = self
            .window
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        SpillStats {
            loads: w.loads,
            hits: w.hits,
            evictions: w.evictions,
            max_resident: w.max_resident,
            sealed_segments: self.sealed,
        }
    }
}

impl Drop for SpillTier {
    /// Spill segments are scratch data (regenerable from the generator
    /// seed), so the tier removes its own files on drop. A `kill -9`
    /// leaks them; sweep coordinators wipe their spill directories
    /// before reuse.
    fn drop(&mut self) {
        for seg in 0..self.sealed {
            let _ = fs::remove_file(self.segment_path(seg));
        }
        let _ = fs::remove_dir(&self.cfg.dir);
    }
}

/// Z-normalizes each m-length row of `rows` in place with the same
/// semantics as [`Dataset::try_z_normalize`]: constant rows zero-fill
/// and count as `constant`, everything else normalizes cleanly.
///
/// [`Dataset::try_z_normalize`]: crate::dataset::Dataset::try_z_normalize
fn normalize_rows(rows: &mut [f64], m: usize, report: &mut crate::dataset::NormalizeReport) {
    for row in rows.chunks_mut(m) {
        if std_dev(row) > 0.0 {
            report.normalized += 1;
        } else {
            report.constant += 1;
        }
        z_normalize_in_place(row);
    }
}

/// Serializes `rows` (row-major f64 staging) into the segment wire
/// format, narrowing to the store's element type.
fn encode_segment(rows: &[f64], n_rows: usize, m: usize, elem: ElemType) -> Vec<u8> {
    let payload = n_rows * m * elem.bytes();
    let mut bytes = Vec::with_capacity(SEGMENT_HEADER + payload + SEGMENT_TRAILER);
    bytes.extend_from_slice(SEGMENT_MAGIC);
    bytes.push(SEGMENT_VERSION);
    bytes.push(elem.tag());
    bytes.extend_from_slice(&[0u8; 2]);
    bytes.extend_from_slice(&(m as u64).to_le_bytes());
    bytes.extend_from_slice(&(n_rows as u64).to_le_bytes());
    match elem {
        ElemType::F64 => {
            for v in rows {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        ElemType::F32 => {
            for v in rows {
                bytes.extend_from_slice(&(*v as f32).to_le_bytes());
            }
        }
    }
    let sum = fnv1a64(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

/// Reads and validates one sealed segment, widening to `f64`.
///
/// Every structural property is checked before any sample is
/// interpreted: magic, version, element tag, m, the exact expected row
/// count, total length, and the FNV-1a checksum over header+payload.
/// Any violation — torn write, bit flip, garbage prefix, wrong file —
/// is a typed [`TsError::CorruptData`].
fn decode_segment(path: &Path, m: usize, elem: ElemType, expect_rows: usize) -> TsResult<Vec<f64>> {
    let bytes = fs::read(path).map_err(|e| corrupt(path, format!("read: {e}")))?;
    if bytes.len() < SEGMENT_HEADER + SEGMENT_TRAILER {
        return Err(corrupt(path, "shorter than header+trailer"));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - SEGMENT_TRAILER);
    let stored_sum = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    if fnv1a64(body) != stored_sum {
        return Err(corrupt(path, "checksum mismatch"));
    }
    if &body[0..4] != SEGMENT_MAGIC {
        return Err(corrupt(path, "bad magic"));
    }
    if body[4] != SEGMENT_VERSION {
        return Err(corrupt(path, format!("unknown version {}", body[4])));
    }
    let file_elem = ElemType::from_tag(body[5]).ok_or_else(|| corrupt(path, "bad element tag"))?;
    if file_elem != elem {
        return Err(corrupt(
            path,
            format!("element type {} != store {}", file_elem.name(), elem.name()),
        ));
    }
    let file_m = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes")) as usize;
    if file_m != m {
        return Err(corrupt(
            path,
            format!("series length {file_m} != store {m}"),
        ));
    }
    let rows = u64::from_le_bytes(body[16..24].try_into().expect("8 bytes")) as usize;
    if rows != expect_rows {
        return Err(corrupt(
            path,
            format!("row count {rows} != expected {expect_rows}"),
        ));
    }
    let payload = &body[SEGMENT_HEADER..];
    if payload.len() != rows * m * elem.bytes() {
        return Err(corrupt(path, "payload length mismatch"));
    }
    let mut out = Vec::with_capacity(rows * m);
    match elem {
        ElemType::F64 => {
            for chunk in payload.chunks_exact(8) {
                out.push(f64::from_le_bytes(chunk.try_into().expect("8 bytes")));
            }
        }
        ElemType::F32 => {
            for chunk in payload.chunks_exact(4) {
                out.push(f64::from(f32::from_le_bytes(
                    chunk.try_into().expect("4 bytes"),
                )));
            }
        }
    }
    // Checksummed payloads can still smuggle non-finite bit patterns
    // only if the *writer* produced them — push_row forbids that, so a
    // non-finite decode means the checksum collided on a corruption.
    // Cheap to re-verify, so do: silent garbage is the one failure mode
    // the contract rules out absolutely.
    if let Some(idx) = out.iter().position(|v| !v.is_finite()) {
        return Err(corrupt(path, format!("non-finite sample at offset {idx}")));
    }
    Ok(out)
}

const RAGGED_MAGIC: &[u8; 4] = b"TSRG";

/// Serializes a ragged batch into the segment wire format: the same
/// header/checksum container as [`encode_segment`] (magic `TSRG`, the
/// `m` slot holding total samples) plus a per-row length table between
/// header and payload.
fn encode_ragged_segment(data: &[f64], lens: &[usize], elem: ElemType) -> Vec<u8> {
    let samples: usize = lens.iter().sum();
    debug_assert_eq!(samples, data.len());
    let payload = samples * elem.bytes();
    let mut bytes = Vec::with_capacity(SEGMENT_HEADER + lens.len() * 8 + payload + SEGMENT_TRAILER);
    bytes.extend_from_slice(RAGGED_MAGIC);
    bytes.push(SEGMENT_VERSION);
    bytes.push(elem.tag());
    bytes.extend_from_slice(&[0u8; 2]);
    bytes.extend_from_slice(&(samples as u64).to_le_bytes());
    bytes.extend_from_slice(&(lens.len() as u64).to_le_bytes());
    for &l in lens {
        bytes.extend_from_slice(&(l as u64).to_le_bytes());
    }
    match elem {
        ElemType::F64 => {
            for v in data {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        ElemType::F32 => {
            for v in data {
                bytes.extend_from_slice(&(*v as f32).to_le_bytes());
            }
        }
    }
    let sum = fnv1a64(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

/// Reads and validates one sealed ragged segment, widening to `f64`.
///
/// The same checks as [`decode_segment`] — checksum first, then every
/// structural field — plus the per-row length table, which must match
/// the store's in-memory table entry for entry. Any violation is a
/// typed [`TsError::CorruptData`], never a panic.
fn decode_ragged_segment(path: &Path, elem: ElemType, expect_lens: &[usize]) -> TsResult<Vec<f64>> {
    let bytes = fs::read(path).map_err(|e| corrupt(path, format!("read: {e}")))?;
    if bytes.len() < SEGMENT_HEADER + SEGMENT_TRAILER {
        return Err(corrupt(path, "shorter than header+trailer"));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - SEGMENT_TRAILER);
    let stored_sum = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    if fnv1a64(body) != stored_sum {
        return Err(corrupt(path, "checksum mismatch"));
    }
    if &body[0..4] != RAGGED_MAGIC {
        return Err(corrupt(path, "bad magic"));
    }
    if body[4] != SEGMENT_VERSION {
        return Err(corrupt(path, format!("unknown version {}", body[4])));
    }
    let file_elem = ElemType::from_tag(body[5]).ok_or_else(|| corrupt(path, "bad element tag"))?;
    if file_elem != elem {
        return Err(corrupt(
            path,
            format!("element type {} != store {}", file_elem.name(), elem.name()),
        ));
    }
    let samples = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes")) as usize;
    let expect_samples: usize = expect_lens.iter().sum();
    if samples != expect_samples {
        return Err(corrupt(
            path,
            format!("sample count {samples} != expected {expect_samples}"),
        ));
    }
    let rows = u64::from_le_bytes(body[16..24].try_into().expect("8 bytes")) as usize;
    if rows != expect_lens.len() {
        return Err(corrupt(
            path,
            format!("row count {rows} != expected {}", expect_lens.len()),
        ));
    }
    let table_end = SEGMENT_HEADER + rows * 8;
    if body.len() < table_end {
        return Err(corrupt(path, "length table truncated"));
    }
    for (r, &want) in expect_lens.iter().enumerate() {
        let off = SEGMENT_HEADER + r * 8;
        let got = u64::from_le_bytes(body[off..off + 8].try_into().expect("8 bytes")) as usize;
        if got != want {
            return Err(corrupt(
                path,
                format!("row {r} length {got} != expected {want}"),
            ));
        }
    }
    let payload = &body[table_end..];
    if payload.len() != samples * elem.bytes() {
        return Err(corrupt(path, "payload length mismatch"));
    }
    let mut out = Vec::with_capacity(samples);
    match elem {
        ElemType::F64 => {
            for chunk in payload.chunks_exact(8) {
                out.push(f64::from_le_bytes(chunk.try_into().expect("8 bytes")));
            }
        }
        ElemType::F32 => {
            for chunk in payload.chunks_exact(4) {
                out.push(f64::from(f32::from_le_bytes(
                    chunk.try_into().expect("4 bytes"),
                )));
            }
        }
    }
    if let Some(idx) = out.iter().position(|v| !v.is_finite()) {
        return Err(corrupt(path, format!("non-finite sample at offset {idx}")));
    }
    Ok(out)
}

/// Writes a sealed segment with the tmp+rename protocol shared by the
/// fixed and ragged spill tiers.
fn write_segment_atomic(path: &Path, bytes: &[u8], what: &str) -> TsResult<()> {
    let tmp = path.with_extension("bin.tmp");
    let write = || -> std::io::Result<()> {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
        drop(f);
        fs::rename(&tmp, path)
    };
    write().map_err(|e| corrupt(path, format!("{what}: {e}")))
}

/// Backing storage variants of a [`SeriesStore`].
enum Backing {
    /// Fully resident, contiguous `f64` — the zero-copy fast path.
    Resident64(Vec<f64>),
    /// Fully resident, contiguous `f32` — half the footprint, rows
    /// widened into scratch on read.
    Resident32(Vec<f32>),
    /// Larger-than-RAM tier: sealed disk segments + LRU window.
    Spilled(SpillTier),
}

/// An n×m row-major series collection in one contiguous buffer, with
/// optional `f32` narrowing and an optional file-backed spill tier.
///
/// See the [module docs](self) for the layout contract. Construction
/// picks the tier: [`SeriesStore::new`] / [`with_capacity`] for
/// resident buffers, [`spilled`] for the out-of-core tier. Rows enter
/// through [`push_row`] (validated once) and leave through the
/// [`SeriesView`] borrow-or-copy contract.
///
/// [`with_capacity`]: SeriesStore::with_capacity
/// [`spilled`]: SeriesStore::spilled
/// [`push_row`]: SeriesStore::push_row
pub struct SeriesStore {
    m: usize,
    elem: ElemType,
    n: usize,
    backing: Backing,
}

impl std::fmt::Debug for SeriesStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tier = match &self.backing {
            Backing::Resident64(_) | Backing::Resident32(_) => "resident",
            Backing::Spilled(_) => "spilled",
        };
        f.debug_struct("SeriesStore")
            .field("n", &self.n)
            .field("m", &self.m)
            .field("elem", &self.elem.name())
            .field("tier", &tier)
            .finish()
    }
}

impl SeriesStore {
    /// Empty resident store for series of length `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    #[must_use]
    pub fn new(m: usize, elem: ElemType) -> Self {
        Self::with_capacity(0, m, elem)
    }

    /// Empty resident store pre-allocating room for `n` series.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    #[must_use]
    pub fn with_capacity(n: usize, m: usize, elem: ElemType) -> Self {
        assert!(m > 0, "series length must be positive");
        let backing = match elem {
            ElemType::F64 => Backing::Resident64(Vec::with_capacity(n * m)),
            ElemType::F32 => Backing::Resident32(Vec::with_capacity(n * m)),
        };
        SeriesStore {
            m,
            elem,
            n: 0,
            backing,
        }
    }

    /// Empty spilled store: rows stream to chunked segment files under
    /// `cfg.dir`, reads come back through an LRU resident window.
    ///
    /// # Errors
    ///
    /// [`TsError::CorruptData`] if the spill directory cannot be
    /// created.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn spilled(m: usize, elem: ElemType, cfg: SpillConfig) -> TsResult<Self> {
        assert!(m > 0, "series length must be positive");
        Ok(SeriesStore {
            m,
            elem,
            n: 0,
            backing: Backing::Spilled(SpillTier::new(m, elem, cfg)?),
        })
    }

    /// Number of series.
    #[must_use]
    pub fn n_series(&self) -> usize {
        self.n
    }

    /// Whether the store holds no series yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Common series length m.
    #[must_use]
    pub fn series_len(&self) -> usize {
        self.m
    }

    /// Element type of the backing buffer.
    #[must_use]
    pub fn elem(&self) -> ElemType {
        self.elem
    }

    /// Appends one series, validating length and finiteness — the single
    /// validation point of the data plane.
    ///
    /// # Errors
    ///
    /// [`TsError::LengthMismatch`] / [`TsError::NonFinite`] on a bad
    /// row (reported at this row's index), [`TsError::CorruptData`] if a
    /// spill segment fails to write.
    pub fn push_row(&mut self, row: &[f64]) -> TsResult<()> {
        if row.len() != self.m {
            return Err(TsError::LengthMismatch {
                expected: self.m,
                found: row.len(),
                series: self.n,
            });
        }
        ensure_finite(row, self.n)?;
        match &mut self.backing {
            Backing::Resident64(buf) => buf.extend_from_slice(row),
            Backing::Resident32(buf) => buf.extend(row.iter().map(|&v| v as f32)),
            Backing::Spilled(tier) => tier.push_row(row)?,
        }
        self.n += 1;
        Ok(())
    }

    /// Direct row view — the cheap path the contiguous layout exists
    /// for. Only resident `f64` stores can hand out direct borrows; use
    /// [`SeriesView::try_row`] for tier-generic access.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds `i`, or when the store is `f32` or
    /// spilled (those rows must be staged through scratch).
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        match &self.backing {
            Backing::Resident64(buf) => &buf[i * self.m..(i + 1) * self.m],
            _ => panic!("row(): direct &[f64] views require a resident f64 store; use try_row"),
        }
    }

    /// The whole resident `f64` buffer as one contiguous slice (`None`
    /// for `f32` or spilled stores).
    #[must_use]
    pub fn as_f64_slice(&self) -> Option<&[f64]> {
        match &self.backing {
            Backing::Resident64(buf) => Some(buf),
            _ => None,
        }
    }

    /// Z-normalizes every series in place with [`Dataset`] semantics
    /// (constant rows zero-fill and are tallied, not errors). Spilled
    /// stores rewrite each sealed segment atomically.
    ///
    /// # Errors
    ///
    /// [`TsError::CorruptData`] if a sealed segment fails validation or
    /// rewrite.
    ///
    /// [`Dataset`]: crate::dataset::Dataset
    pub fn z_normalize_in_place(&mut self) -> TsResult<crate::dataset::NormalizeReport> {
        let m = self.m;
        let mut report = crate::dataset::NormalizeReport::default();
        match &mut self.backing {
            Backing::Resident64(buf) => normalize_rows(buf, m, &mut report),
            Backing::Resident32(buf) => {
                let mut staged = vec![0.0f64; m];
                for row in buf.chunks_mut(m) {
                    for (d, s) in staged.iter_mut().zip(row.iter()) {
                        *d = f64::from(*s);
                    }
                    normalize_rows(&mut staged, m, &mut report);
                    for (d, s) in row.iter_mut().zip(staged.iter()) {
                        *d = *s as f32;
                    }
                }
            }
            Backing::Spilled(tier) => report = tier.z_normalize()?,
        }
        Ok(report)
    }

    /// Builds a resident or spilled store from nested rows (the legacy
    /// layout), validating every row.
    ///
    /// # Errors
    ///
    /// Everything [`SeriesStore::push_row`] reports, plus
    /// [`TsError::EmptyInput`] for an empty collection or zero-length
    /// rows.
    pub fn from_rows(rows: &[Vec<f64>], elem: ElemType) -> TsResult<Self> {
        let m = rows.first().map_or(0, Vec::len);
        if m == 0 {
            return Err(TsError::EmptyInput);
        }
        let mut store = SeriesStore::with_capacity(rows.len(), m, elem);
        for row in rows {
            store.push_row(row)?;
        }
        Ok(store)
    }

    /// Materializes every row as nested `Vec<Vec<f64>>` (the legacy
    /// layout). Lossless for `f64` stores; `f32` stores widen their
    /// narrowed samples.
    ///
    /// # Errors
    ///
    /// [`TsError::CorruptData`] if a spilled segment fails validation.
    pub fn to_rows(&self) -> TsResult<Vec<Vec<f64>>> {
        let mut out = Vec::with_capacity(self.n);
        let mut scratch = Vec::with_capacity(self.m);
        for i in 0..self.n {
            out.push(self.try_row(i, &mut scratch)?.to_vec());
        }
        Ok(out)
    }

    /// Spill-tier counters ([`None`] for resident stores).
    #[must_use]
    pub fn spill_stats(&self) -> Option<SpillStats> {
        match &self.backing {
            Backing::Spilled(tier) => Some(tier.stats()),
            _ => None,
        }
    }

    /// Paths of the sealed segment files (empty for resident stores).
    /// Exposed for corruption drills and tooling; mutating these files
    /// outside [`z_normalize_in_place`](Self::z_normalize_in_place)
    /// must surface as [`TsError::CorruptData`] on the next read.
    #[must_use]
    pub fn spill_segment_paths(&self) -> Vec<PathBuf> {
        match &self.backing {
            Backing::Spilled(tier) => (0..tier.sealed).map(|s| tier.segment_path(s)).collect(),
            _ => Vec::new(),
        }
    }

    /// Approximate resident-memory footprint in bytes: the contiguous
    /// buffer for resident tiers; tail + window for spilled tiers.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        match &self.backing {
            Backing::Resident64(buf) => buf.capacity() * 8,
            Backing::Resident32(buf) => buf.capacity() * 4,
            Backing::Spilled(tier) => {
                let window = tier
                    .window
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .slots
                    .iter()
                    .map(|(_, rows)| rows.capacity() * 8)
                    .sum::<usize>();
                tier.tail.capacity() * 8 + window
            }
        }
    }
}

impl SeriesView for SeriesStore {
    fn n_series(&self) -> usize {
        self.n
    }

    fn series_len(&self) -> usize {
        self.m
    }

    fn try_row<'s>(&'s self, i: usize, scratch: &'s mut Vec<f64>) -> TsResult<&'s [f64]> {
        assert!(i < self.n, "row index {i} out of bounds (n = {})", self.n);
        match &self.backing {
            Backing::Resident64(buf) => Ok(&buf[i * self.m..(i + 1) * self.m]),
            Backing::Resident32(buf) => {
                scratch.clear();
                scratch.extend(
                    buf[i * self.m..(i + 1) * self.m]
                        .iter()
                        .map(|&v| f64::from(v)),
                );
                Ok(&scratch[..])
            }
            Backing::Spilled(tier) => {
                let sealed_rows = tier.sealed * tier.cfg.rows_per_segment;
                if i >= sealed_rows {
                    let off = (i - sealed_rows) * self.m;
                    Ok(&tier.tail[off..off + self.m])
                } else {
                    tier.fetch_sealed(i, scratch)
                }
            }
        }
    }
}

/// Ragged spill tier: count-sealed segments like [`SpillTier`], plus
/// per-segment row-length tables so rows can be located without a fixed
/// stride.
struct RaggedSpillTier {
    cfg: SpillConfig,
    elem: ElemType,
    sealed: usize,
    /// Per-row lengths of each sealed segment.
    seg_lens: Vec<Vec<usize>>,
    /// Row start offsets within each sealed segment (prefix sums).
    seg_offsets: Vec<Vec<usize>>,
    /// Open tail rows, concatenated `f64`.
    tail: Vec<f64>,
    tail_lens: Vec<usize>,
    tail_offsets: Vec<usize>,
    window: Mutex<WindowState>,
}

impl RaggedSpillTier {
    fn new(elem: ElemType, cfg: SpillConfig) -> TsResult<Self> {
        fs::create_dir_all(&cfg.dir).map_err(|e| corrupt(&cfg.dir, format!("mkdir: {e}")))?;
        let window = Mutex::new(WindowState::new(cfg.resident_segments));
        Ok(RaggedSpillTier {
            elem,
            sealed: 0,
            seg_lens: Vec::new(),
            seg_offsets: Vec::new(),
            tail: Vec::new(),
            tail_lens: Vec::new(),
            tail_offsets: Vec::new(),
            window,
            cfg,
        })
    }

    fn segment_path(&self, seg: usize) -> PathBuf {
        self.cfg.dir.join(format!("seg_{seg:06}.bin"))
    }

    fn push_row(&mut self, row: &[f64]) -> TsResult<()> {
        self.tail_offsets.push(self.tail.len());
        self.tail_lens.push(row.len());
        self.tail.extend_from_slice(row);
        if self.tail_lens.len() == self.cfg.rows_per_segment {
            self.seal_tail()?;
        }
        Ok(())
    }

    fn seal_tail(&mut self) -> TsResult<()> {
        debug_assert!(!self.tail_lens.is_empty());
        let bytes = encode_ragged_segment(&self.tail, &self.tail_lens, self.elem);
        let path = self.segment_path(self.sealed);
        write_segment_atomic(&path, &bytes, "write")?;
        self.sealed += 1;
        self.seg_lens.push(std::mem::take(&mut self.tail_lens));
        self.seg_offsets
            .push(std::mem::take(&mut self.tail_offsets));
        self.tail.clear();
        Ok(())
    }

    /// Copies sealed row `i` into `scratch` through the LRU window.
    fn fetch_sealed<'s>(&self, i: usize, scratch: &'s mut Vec<f64>) -> TsResult<&'s [f64]> {
        let seg = i / self.cfg.rows_per_segment;
        let r = i % self.cfg.rows_per_segment;
        let (off, len) = (self.seg_offsets[seg][r], self.seg_lens[seg][r]);
        let mut w = self
            .window
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let pos = w.slots.iter().position(|(s, _)| *s == seg);
        let slot = match pos {
            Some(p) => {
                w.hits += 1;
                let entry = w.slots.remove(p);
                w.slots.insert(0, entry);
                0
            }
            None => {
                let decoded =
                    decode_ragged_segment(&self.segment_path(seg), self.elem, &self.seg_lens[seg])?;
                w.loads += 1;
                w.slots.insert(0, (seg, decoded));
                while w.slots.len() > w.cap {
                    w.slots.pop();
                    w.evictions += 1;
                }
                w.max_resident = w.max_resident.max(w.slots.len());
                0
            }
        };
        scratch.clear();
        scratch.extend_from_slice(&w.slots[slot].1[off..off + len]);
        Ok(&scratch[..])
    }

    fn z_normalize(&mut self) -> TsResult<crate::dataset::NormalizeReport> {
        let mut report = crate::dataset::NormalizeReport::default();
        for seg in 0..self.sealed {
            let path = self.segment_path(seg);
            let mut data = decode_ragged_segment(&path, self.elem, &self.seg_lens[seg])?;
            normalize_ragged_rows(&mut data, &self.seg_lens[seg], &mut report);
            let bytes = encode_ragged_segment(&data, &self.seg_lens[seg], self.elem);
            write_segment_atomic(&path, &bytes, "rewrite")?;
        }
        let lens = self.tail_lens.clone();
        normalize_ragged_rows(&mut self.tail, &lens, &mut report);
        self.window
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
        Ok(report)
    }

    fn stats(&self) -> SpillStats {
        let w = self
            .window
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        SpillStats {
            loads: w.loads,
            hits: w.hits,
            evictions: w.evictions,
            max_resident: w.max_resident,
            sealed_segments: self.sealed,
        }
    }
}

impl Drop for RaggedSpillTier {
    fn drop(&mut self) {
        for seg in 0..self.sealed {
            let _ = fs::remove_file(self.segment_path(seg));
        }
        let _ = fs::remove_dir(&self.cfg.dir);
    }
}

/// Z-normalizes concatenated variable-length rows in place, tallying
/// with the same semantics as [`normalize_rows`].
fn normalize_ragged_rows(
    data: &mut [f64],
    lens: &[usize],
    report: &mut crate::dataset::NormalizeReport,
) {
    let mut off = 0;
    for &l in lens {
        let row = &mut data[off..off + l];
        if std_dev(row) > 0.0 {
            report.normalized += 1;
        } else {
            report.constant += 1;
        }
        z_normalize_in_place(row);
        off += l;
    }
}

enum RaggedBacking {
    /// Fully resident: one concatenated `f64` buffer plus row offsets.
    Resident { data: Vec<f64>, offsets: Vec<usize> },
    /// Out-of-core tier with per-segment length tables.
    Spilled(RaggedSpillTier),
}

/// A variable-length (ragged) univariate series collection: rows of
/// differing lengths stored contiguously with a row-offset/length
/// table, resident or spilled.
///
/// Through [`SeriesView`] the store reports
/// [`is_ragged`](SeriesView::is_ragged)` = true`,
/// [`series_len`](SeriesView::series_len) as the **maximum** row length
/// (the FFT-plan-sizing bound consumers use for padded unequal-length
/// SBD), and each row's true length via
/// [`row_shape`](SeriesView::row_shape). Spilled tiers reuse the
/// checksummed tmp+rename segment protocol of [`SeriesStore`] with a
/// per-row length table in each segment; a torn or bit-flipped segment
/// surfaces as [`TsError::CorruptData`], never a panic.
pub struct RaggedStore {
    lens: Vec<usize>,
    max_len: usize,
    backing: RaggedBacking,
}

impl std::fmt::Debug for RaggedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tier = match &self.backing {
            RaggedBacking::Resident { .. } => "resident",
            RaggedBacking::Spilled(_) => "spilled",
        };
        f.debug_struct("RaggedStore")
            .field("n", &self.lens.len())
            .field("max_len", &self.max_len)
            .field("tier", &tier)
            .finish()
    }
}

impl Default for RaggedStore {
    fn default() -> Self {
        Self::new()
    }
}

impl RaggedStore {
    /// Empty resident ragged store (`f64` staging).
    #[must_use]
    pub fn new() -> Self {
        RaggedStore {
            lens: Vec::new(),
            max_len: 0,
            backing: RaggedBacking::Resident {
                data: Vec::new(),
                offsets: Vec::new(),
            },
        }
    }

    /// Empty spilled ragged store: rows stream to segment files under
    /// `cfg.dir` (sealed every `cfg.rows_per_segment` rows), narrowed to
    /// `elem` on disk.
    ///
    /// # Errors
    ///
    /// [`TsError::CorruptData`] if the spill directory cannot be
    /// created.
    pub fn spilled(elem: ElemType, cfg: SpillConfig) -> TsResult<Self> {
        Ok(RaggedStore {
            lens: Vec::new(),
            max_len: 0,
            backing: RaggedBacking::Spilled(RaggedSpillTier::new(elem, cfg)?),
        })
    }

    /// Appends one series of any positive length, validating finiteness
    /// — the single validation point, like [`SeriesStore::push_row`].
    ///
    /// # Errors
    ///
    /// [`TsError::EmptyInput`] for an empty row, [`TsError::NonFinite`]
    /// on bad samples, [`TsError::CorruptData`] if a spill segment
    /// fails to write.
    pub fn push_row(&mut self, row: &[f64]) -> TsResult<()> {
        if row.is_empty() {
            return Err(TsError::EmptyInput);
        }
        ensure_finite(row, self.lens.len())?;
        match &mut self.backing {
            RaggedBacking::Resident { data, offsets } => {
                offsets.push(data.len());
                data.extend_from_slice(row);
            }
            RaggedBacking::Spilled(tier) => tier.push_row(row)?,
        }
        self.lens.push(row.len());
        self.max_len = self.max_len.max(row.len());
        Ok(())
    }

    /// Number of series.
    #[must_use]
    pub fn n_series(&self) -> usize {
        self.lens.len()
    }

    /// Whether the store holds no series yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// Maximum row length seen so far (0 when empty).
    #[must_use]
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Length of row `i`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds `i`.
    #[must_use]
    pub fn row_len(&self, i: usize) -> usize {
        self.lens[i]
    }

    /// Per-row lengths in insertion order.
    #[must_use]
    pub fn row_lens(&self) -> &[usize] {
        &self.lens
    }

    /// Builds a resident ragged store from nested rows.
    ///
    /// # Errors
    ///
    /// Everything [`RaggedStore::push_row`] reports, plus
    /// [`TsError::EmptyInput`] for an empty collection.
    pub fn from_rows(rows: &[Vec<f64>]) -> TsResult<Self> {
        if rows.is_empty() {
            return Err(TsError::EmptyInput);
        }
        let mut store = RaggedStore::new();
        for row in rows {
            store.push_row(row)?;
        }
        Ok(store)
    }

    /// Materializes every row as nested `Vec<Vec<f64>>`.
    ///
    /// # Errors
    ///
    /// [`TsError::CorruptData`] if a spilled segment fails validation.
    pub fn to_rows(&self) -> TsResult<Vec<Vec<f64>>> {
        let mut out = Vec::with_capacity(self.lens.len());
        let mut scratch = Vec::with_capacity(self.max_len);
        for i in 0..self.lens.len() {
            out.push(self.try_row(i, &mut scratch)?.to_vec());
        }
        Ok(out)
    }

    /// Z-normalizes every series in place (constant rows zero-fill and
    /// are tallied). Spilled tiers rewrite each segment atomically.
    ///
    /// # Errors
    ///
    /// [`TsError::CorruptData`] if a sealed segment fails validation or
    /// rewrite.
    pub fn z_normalize_in_place(&mut self) -> TsResult<crate::dataset::NormalizeReport> {
        match &mut self.backing {
            RaggedBacking::Resident { data, .. } => {
                let mut report = crate::dataset::NormalizeReport::default();
                normalize_ragged_rows(data, &self.lens, &mut report);
                Ok(report)
            }
            RaggedBacking::Spilled(tier) => tier.z_normalize(),
        }
    }

    /// Spill-tier counters ([`None`] for resident stores).
    #[must_use]
    pub fn spill_stats(&self) -> Option<SpillStats> {
        match &self.backing {
            RaggedBacking::Spilled(tier) => Some(tier.stats()),
            RaggedBacking::Resident { .. } => None,
        }
    }

    /// Paths of the sealed segment files (empty for resident stores).
    #[must_use]
    pub fn spill_segment_paths(&self) -> Vec<PathBuf> {
        match &self.backing {
            RaggedBacking::Spilled(tier) => {
                (0..tier.sealed).map(|s| tier.segment_path(s)).collect()
            }
            RaggedBacking::Resident { .. } => Vec::new(),
        }
    }
}

impl SeriesView for RaggedStore {
    fn n_series(&self) -> usize {
        self.lens.len()
    }

    fn series_len(&self) -> usize {
        self.max_len
    }

    fn is_ragged(&self) -> bool {
        true
    }

    fn row_shape(&self, i: usize) -> RowShape {
        RowShape {
            channels: 1,
            len: self.lens[i],
        }
    }

    fn try_row<'s>(&'s self, i: usize, scratch: &'s mut Vec<f64>) -> TsResult<&'s [f64]> {
        assert!(
            i < self.lens.len(),
            "row index {i} out of bounds (n = {})",
            self.lens.len()
        );
        match &self.backing {
            RaggedBacking::Resident { data, offsets } => {
                Ok(&data[offsets[i]..offsets[i] + self.lens[i]])
            }
            RaggedBacking::Spilled(tier) => {
                let sealed_rows = tier.sealed * tier.cfg.rows_per_segment;
                if i >= sealed_rows {
                    let r = i - sealed_rows;
                    let off = tier.tail_offsets[r];
                    Ok(&tier.tail[off..off + tier.tail_lens[r]])
                } else {
                    tier.fetch_sealed(i, scratch)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize, m: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..m)
                    .map(|j| ((i * 31 + j) as f64).sin() + i as f64)
                    .collect()
            })
            .collect()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tsstore-test-{tag}-{}", std::process::id()))
    }

    #[test]
    fn f64_roundtrip_is_bit_identical() {
        let data = rows(7, 5);
        let store = SeriesStore::from_rows(&data, ElemType::F64).unwrap();
        assert_eq!(store.n_series(), 7);
        assert_eq!(store.series_len(), 5);
        assert_eq!(store.to_rows().unwrap(), data);
        // Direct views hit the same memory.
        for (i, r) in data.iter().enumerate() {
            assert_eq!(store.row(i), &r[..]);
        }
        assert_eq!(store.as_f64_slice().unwrap().len(), 35);
    }

    #[test]
    fn f32_roundtrip_is_close_not_exact() {
        let data = rows(4, 9);
        let store = SeriesStore::from_rows(&data, ElemType::F32).unwrap();
        let back = store.to_rows().unwrap();
        for (a, b) in data.iter().flatten().zip(back.iter().flatten()) {
            assert!((a - b).abs() <= a.abs() * 1e-6 + 1e-6, "{a} vs {b}");
        }
        assert!(store.as_f64_slice().is_none());
    }

    #[test]
    fn push_row_validates_once() {
        let mut store = SeriesStore::new(4, ElemType::F64);
        assert!(matches!(
            store.push_row(&[1.0, 2.0]),
            Err(TsError::LengthMismatch {
                expected: 4,
                found: 2,
                series: 0
            })
        ));
        assert!(matches!(
            store.push_row(&[1.0, f64::NAN, 0.0, 0.0]),
            Err(TsError::NonFinite {
                series: 0,
                index: 1
            })
        ));
        store.push_row(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(store.n_series(), 1);
    }

    #[test]
    fn spilled_store_roundtrips_and_bounds_window() {
        let dir = tmp_dir("roundtrip");
        let cfg = SpillConfig::new(&dir)
            .rows_per_segment(3)
            .resident_segments(2);
        let data = rows(11, 6);
        let mut store = SeriesStore::spilled(6, ElemType::F64, cfg).unwrap();
        for r in &data {
            store.push_row(r).unwrap();
        }
        // 11 rows / 3 per segment = 3 sealed + 2-row tail.
        assert_eq!(store.spill_stats().unwrap().sealed_segments, 3);
        assert_eq!(store.to_rows().unwrap(), data);
        // Random access sweeps twice; the window must never exceed cap.
        let mut scratch = Vec::new();
        for pass in 0..2 {
            for i in (0..11).rev() {
                let got = store.try_row(i, &mut scratch).unwrap().to_vec();
                assert_eq!(got, data[i], "pass {pass} row {i}");
            }
        }
        let stats = store.spill_stats().unwrap();
        assert!(stats.max_resident <= 2, "{stats:?}");
        assert!(stats.loads > 0 && stats.hits > 0, "{stats:?}");
        drop(store);
        assert!(!dir.exists(), "spill dir should be cleaned up on drop");
    }

    #[test]
    fn spilled_f32_narrow_widen() {
        let dir = tmp_dir("f32");
        let cfg = SpillConfig::new(&dir).rows_per_segment(2);
        let data = rows(5, 4);
        let mut store = SeriesStore::spilled(4, ElemType::F32, cfg).unwrap();
        for r in &data {
            store.push_row(r).unwrap();
        }
        let back = store.to_rows().unwrap();
        for (a, b) in data.iter().flatten().zip(back.iter().flatten()) {
            assert!((a - b).abs() <= a.abs() * 1e-6 + 1e-6);
        }
    }

    #[test]
    fn z_normalize_matches_dataset_semantics_across_tiers() {
        let mut data = rows(7, 8);
        data[3] = vec![2.5; 8]; // constant row: zero-filled, tallied
        let mut expected = crate::dataset::Dataset::new("t", data.clone(), vec![0; 7]);
        let expected_report = expected.try_z_normalize().unwrap();

        for elem in [ElemType::F64, ElemType::F32] {
            // Resident.
            let mut store = SeriesStore::from_rows(&data, elem).unwrap();
            let report = store.z_normalize_in_place().unwrap();
            assert_eq!(report, expected_report);
            // Spilled.
            let dir = tmp_dir(&format!("znorm-{}", elem.name()));
            let cfg = SpillConfig::new(&dir).rows_per_segment(2);
            let mut spilled = SeriesStore::spilled(8, elem, cfg).unwrap();
            for r in &data {
                spilled.push_row(r).unwrap();
            }
            let report = spilled.z_normalize_in_place().unwrap();
            assert_eq!(report, expected_report);
            let back = spilled.to_rows().unwrap();
            let tol = if elem == ElemType::F64 { 0.0 } else { 1e-6 };
            for (want, got) in expected.series.iter().zip(back.iter()) {
                for (a, b) in want.iter().zip(got.iter()) {
                    assert!((a - b).abs() <= tol, "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn slice_view_is_zero_copy() {
        // Exercised through a generic seam, the way SpectraEngine
        // consumes views ([Vec<f64>] is unsized, so no trait objects).
        fn first_ptr<V: SeriesView + ?Sized>(view: &V) -> (usize, usize, *const f64) {
            let mut scratch = Vec::new();
            let row = view.try_row(1, &mut scratch).unwrap();
            (view.n_series(), view.series_len(), row.as_ptr())
        }
        let data = rows(3, 4);
        let (n, m, ptr) = first_ptr(&data[..]);
        assert_eq!((n, m), (3, 4));
        assert_eq!(ptr, data[1].as_ptr(), "must borrow, not copy");
    }

    #[test]
    fn corrupt_segment_is_typed_error_not_panic() {
        let dir = tmp_dir("corrupt");
        let cfg = SpillConfig::new(&dir)
            .rows_per_segment(2)
            .resident_segments(1);
        let data = rows(6, 4);
        let mut store = SeriesStore::spilled(4, ElemType::F64, cfg).unwrap();
        for r in &data {
            store.push_row(r).unwrap();
        }
        let seg = &store.spill_segment_paths()[1];
        let mut bytes = fs::read(seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(seg, &bytes).unwrap();
        let mut scratch = Vec::new();
        // Rows in segments 0 and the tail still read fine.
        assert!(store.try_row(0, &mut scratch).is_ok());
        assert!(store.try_row(4, &mut scratch).is_ok());
        // The flipped segment is a typed error.
        match store.try_row(2, &mut scratch) {
            Err(TsError::CorruptData { context }) => {
                assert!(context.contains("seg_000001"), "{context}");
            }
            other => panic!("expected CorruptData, got {other:?}"),
        }
    }

    #[test]
    fn univariate_views_report_degenerate_shape() {
        let data = rows(3, 4);
        let slice_shape = data[..].row_shape(2);
        assert_eq!(
            slice_shape,
            RowShape {
                channels: 1,
                len: 4
            }
        );
        assert_eq!(slice_shape.samples(), 4);
        let store = SeriesStore::from_rows(&data, ElemType::F64).unwrap();
        assert_eq!(store.channels(), 1);
        assert!(!SeriesView::is_ragged(&store));
        assert_eq!(
            store.row_shape(0),
            RowShape {
                channels: 1,
                len: 4
            }
        );
    }

    #[test]
    fn channel_view_reinterprets_flat_rows() {
        // 2 rows of 6 samples = 3 channels × length 2, channel-major.
        let data = rows(2, 6);
        let view = ChannelView::new(&data[..], 3).unwrap();
        assert_eq!(view.n_series(), 2);
        assert_eq!(view.series_len(), 2);
        assert_eq!(view.channels(), 3);
        assert_eq!(
            view.row_shape(1),
            RowShape {
                channels: 3,
                len: 2
            }
        );
        assert_eq!(view.row_shape(1).samples(), 6);
        let mut scratch = Vec::new();
        // The flat slice passes through untouched (zero-copy).
        let row = view.try_row(1, &mut scratch).unwrap();
        assert_eq!(row.as_ptr(), data[1].as_ptr());
        // Non-divisible or zero channel counts are typed errors.
        assert!(matches!(
            ChannelView::new(&data[..], 4),
            Err(TsError::LengthMismatch { .. })
        ));
        assert!(matches!(
            ChannelView::new(&data[..], 0),
            Err(TsError::LengthMismatch { .. })
        ));
    }

    fn ragged_rows(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let len = 4 + (i * 3) % 7;
                (0..len)
                    .map(|j| ((i * 17 + j) as f64).cos() + i as f64 * 0.1)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn ragged_resident_roundtrip_and_shape() {
        let data = ragged_rows(9);
        let store = RaggedStore::from_rows(&data).unwrap();
        assert_eq!(store.n_series(), 9);
        assert!(SeriesView::is_ragged(&store));
        let max = data.iter().map(Vec::len).max().unwrap();
        assert_eq!(store.series_len(), max);
        assert_eq!(store.max_len(), max);
        for (i, r) in data.iter().enumerate() {
            assert_eq!(
                store.row_shape(i),
                RowShape {
                    channels: 1,
                    len: r.len()
                }
            );
        }
        assert_eq!(store.to_rows().unwrap(), data);
    }

    #[test]
    fn ragged_spilled_roundtrip_bounds_window() {
        let dir = tmp_dir("ragged");
        let cfg = SpillConfig::new(&dir)
            .rows_per_segment(3)
            .resident_segments(1);
        let data = ragged_rows(11);
        let mut store = RaggedStore::spilled(ElemType::F64, cfg).unwrap();
        for r in &data {
            store.push_row(r).unwrap();
        }
        assert_eq!(store.spill_stats().unwrap().sealed_segments, 3);
        let mut scratch = Vec::new();
        for pass in 0..2 {
            for i in (0..11).rev() {
                let got = store.try_row(i, &mut scratch).unwrap().to_vec();
                assert_eq!(got, data[i], "pass {pass} row {i}");
            }
        }
        let stats = store.spill_stats().unwrap();
        assert!(stats.max_resident <= 1, "{stats:?}");
        drop(store);
        assert!(!dir.exists(), "ragged spill dir should be cleaned up");
    }

    #[test]
    fn ragged_corrupt_segment_is_typed_error() {
        let dir = tmp_dir("ragged-corrupt");
        let cfg = SpillConfig::new(&dir)
            .rows_per_segment(2)
            .resident_segments(1);
        let data = ragged_rows(6);
        let mut store = RaggedStore::spilled(ElemType::F64, cfg).unwrap();
        for r in &data {
            store.push_row(r).unwrap();
        }
        let seg = &store.spill_segment_paths()[1];
        let mut bytes = fs::read(seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        fs::write(seg, &bytes).unwrap();
        let mut scratch = Vec::new();
        assert!(store.try_row(0, &mut scratch).is_ok());
        match store.try_row(2, &mut scratch) {
            Err(TsError::CorruptData { context }) => {
                assert!(context.contains("seg_000001"), "{context}");
            }
            other => panic!("expected CorruptData, got {other:?}"),
        }
    }

    #[test]
    fn ragged_z_normalize_across_tiers() {
        let mut data = ragged_rows(7);
        data[2] = vec![3.0; 5]; // constant row
        let mut resident = RaggedStore::from_rows(&data).unwrap();
        let report = resident.z_normalize_in_place().unwrap();
        assert_eq!(report.normalized, 6);
        assert_eq!(report.constant, 1);
        let dir = tmp_dir("ragged-znorm");
        let cfg = SpillConfig::new(&dir).rows_per_segment(2);
        let mut spilled = RaggedStore::spilled(ElemType::F64, cfg).unwrap();
        for r in &data {
            spilled.push_row(r).unwrap();
        }
        let report2 = spilled.z_normalize_in_place().unwrap();
        assert_eq!(report2, report);
        assert_eq!(spilled.to_rows().unwrap(), resident.to_rows().unwrap());
    }

    #[test]
    fn ragged_rejects_bad_rows() {
        let mut store = RaggedStore::new();
        assert!(matches!(store.push_row(&[]), Err(TsError::EmptyInput)));
        assert!(matches!(
            store.push_row(&[1.0, f64::NAN]),
            Err(TsError::NonFinite {
                series: 0,
                index: 1
            })
        ));
    }

    #[test]
    fn row_panics_on_non_resident_f64() {
        let data = rows(2, 3);
        let store = SeriesStore::from_rows(&data, ElemType::F32).unwrap();
        let err = std::panic::catch_unwind(|| store.row(0)).unwrap_err();
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap();
        assert!(msg.contains("resident f64"), "{msg}");
    }
}
