//! The shape-based distance SBD (Equation 9, Algorithm 1).
//!
//! `SBD(x, y) = 1 − max_w NCCc_w(x, y)`, taking values in `[0, 2]` with 0
//! meaning identical shape. Alongside the distance, Algorithm 1 returns the
//! copy of `y` optimally aligned (shifted with zero padding) toward `x`,
//! which shape extraction relies on.
//!
//! Three computation strategies mirror the Table 2 ablation:
//!
//! * [`CorrMethod::FftPow2`] — FFT padded to the next power of two after
//!   `2m − 1` (the production `SBD`),
//! * [`CorrMethod::FftExact`] — Bluestein FFT at exactly `2m − 1`
//!   (`SBD-NoPow2`),
//! * [`CorrMethod::Naive`] — direct O(m²) correlation (`SBD-NoFFT`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use tsdist::Distance;
use tserror::{validate_nonempty_pair, TsError, TsResult};
use tsfft::bluestein::BluesteinFft;
use tsfft::correlate::{
    autocorr0, cross_correlate_bluestein, cross_correlate_fft, cross_correlate_naive,
};
use tsfft::next_pow2;
use tsfft::real::pad_to_complex;
use tsfft::real_plan::RealFftPlan;
use tsfft::Complex;

/// Cross-correlation computation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CorrMethod {
    /// Power-of-two padded FFT (Algorithm 1; the fast default).
    #[default]
    FftPow2,
    /// Bluestein FFT at exact length `2m − 1` (`SBD-NoPow2`).
    FftExact,
    /// Direct O(m²) summation (`SBD-NoFFT`).
    Naive,
}

impl CorrMethod {
    /// The paper's name for the resulting SBD variant.
    #[must_use]
    pub fn sbd_name(self) -> &'static str {
        match self {
            CorrMethod::FftPow2 => "SBD",
            CorrMethod::FftExact => "SBD-NoPow2",
            CorrMethod::Naive => "SBD-NoFFT",
        }
    }
}

/// Output of one SBD computation (Algorithm 1).
#[derive(Debug, Clone)]
pub struct SbdResult {
    /// `1 − max NCCc`, in `[0, 2]`.
    pub dist: f64,
    /// Optimal lag of `y` relative to `x` (positive = `y` delayed).
    pub shift: isize,
    /// `y` shifted by `shift` with zero padding (Equation 5).
    pub aligned: Vec<f64>,
}

/// Computes SBD with the default power-of-two FFT strategy.
///
/// # Example
///
/// ```
/// use kshape::sbd::sbd;
///
/// let x = [0.0, 1.0, 0.0, 0.0, 0.0, 0.0];
/// let y = [0.0, 0.0, 0.0, 1.0, 0.0, 0.0]; // same spike, delayed by 2
/// let r = sbd(&x, &y);
/// assert!(r.dist < 1e-9);      // identical shape …
/// assert_eq!(r.shift, -2);     // … y must be advanced by 2 to match x
/// assert_eq!(r.aligned, x);    // y realigned onto x
/// ```
///
/// # Panics
///
/// Panics if the lengths differ, the inputs are empty, or a sample is
/// non-finite. See [`try_sbd`] for the fallible variant.
#[must_use]
pub fn sbd(x: &[f64], y: &[f64]) -> SbdResult {
    sbd_with(x, y, CorrMethod::FftPow2)
}

/// Fallible SBD with the default power-of-two FFT strategy.
///
/// # Errors
///
/// [`TsError::EmptyInput`], [`TsError::LengthMismatch`], or
/// [`TsError::NonFinite`] describing the first violation.
pub fn try_sbd(x: &[f64], y: &[f64]) -> TsResult<SbdResult> {
    try_sbd_with(x, y, CorrMethod::FftPow2)
}

/// Computes SBD with an explicit correlation strategy.
///
/// Zero-energy edge cases: if both inputs are all-zero the distance is 0
/// (identical); if exactly one is all-zero the distance is 1 (the NCCc
/// sequence is identically zero).
///
/// # Panics
///
/// Panics if the lengths differ, the inputs are empty, or a sample is
/// non-finite. See [`try_sbd_with`] for the fallible variant.
#[must_use]
pub fn sbd_with(x: &[f64], y: &[f64], method: CorrMethod) -> SbdResult {
    assert_eq!(x.len(), y.len(), "SBD requires equal-length sequences");
    assert!(!x.is_empty(), "SBD requires non-empty sequences");
    try_sbd_with(x, y, method).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible SBD with an explicit correlation strategy: validates once up
/// front and never panics.
///
/// # Errors
///
/// [`TsError::EmptyInput`], [`TsError::LengthMismatch`], or
/// [`TsError::NonFinite`] describing the first violation.
pub fn try_sbd_with(x: &[f64], y: &[f64], method: CorrMethod) -> TsResult<SbdResult> {
    validate_nonempty_pair(x, y)?;
    let denom = (autocorr0(x) * autocorr0(y)).sqrt();
    if denom == 0.0 {
        let both_zero = autocorr0(x) == 0.0 && autocorr0(y) == 0.0;
        return Ok(SbdResult {
            dist: if both_zero { 0.0 } else { 1.0 },
            shift: 0,
            aligned: y.to_vec(),
        });
    }
    let cc = match method {
        CorrMethod::FftPow2 => cross_correlate_fft(x, y),
        CorrMethod::FftExact => cross_correlate_bluestein(x, y),
        CorrMethod::Naive => cross_correlate_naive(x, y),
    };
    Ok(finish(x.len(), y, &cc, denom))
}

/// Shared tail of Algorithm 1: normalize, find the peak, align `y`.
fn finish(m: usize, y: &[f64], cc: &[f64], denom: f64) -> SbdResult {
    let mut best_idx = 0usize;
    let mut best = f64::NEG_INFINITY;
    for (i, &v) in cc.iter().enumerate() {
        if v > best {
            best = v;
            best_idx = i;
        }
    }
    let value = best / denom;
    let shift = best_idx as isize - (m as isize - 1);
    SbdResult {
        dist: 1.0 - value,
        shift,
        aligned: tsdata::distort::shift_zero_pad(y, shift),
    }
}

/// A reusable SBD computation plan for a fixed series length.
///
/// Caches the real-input FFT plan ([`RealFftPlan`]) so that comparing one
/// reference against many candidates (the k-Shape assignment step, 1-NN
/// search) pays the planning and one of the two forward transforms only
/// once. Spectra are stored as packed half-spectra (`padded/2 + 1` bins):
/// real inputs have conjugate-symmetric spectra, and the conjugate product
/// of two such spectra stays conjugate symmetric, so the whole SBD pipeline
/// is closed over half-spectra at half the transform cost.
#[derive(Debug)]
pub struct SbdPlan {
    m: usize,
    padded: usize,
    plan: RealFftPlan,
}

/// Reusable buffers for the allocation-free pair kernel
/// [`SbdPlan::sbd_spectra`].
///
/// One scratch per worker thread; the shared [`SbdPlan`] stays immutable.
#[derive(Debug, Default, Clone)]
pub struct SbdScratch {
    corr: Vec<f64>,
    fft: Vec<Complex>,
    /// Cross-channel correlation accumulator for
    /// [`SbdPlan::sbd_spectra_multi`].
    acc: Vec<f64>,
    /// Raw-row preparation for [`crate::bank::CentroidBank::nearest`]:
    /// one reusable spectrum slot per channel, the forward-FFT staging
    /// buffer, and the unequal-length lag sequence.
    pub(crate) rows: Vec<PreparedSeries>,
    pub(crate) rfft: Vec<Complex>,
    pub(crate) lags: Vec<f64>,
}

impl SbdPlan {
    /// Creates a plan for series of length `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    #[must_use]
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "SBD plan requires a positive length");
        // `2 * m - 1` correlation lags; `max(2)` keeps the m = 1 edge case
        // on a valid (trivial) real-FFT size.
        let padded = next_pow2(2 * m - 1).max(2);
        SbdPlan {
            m,
            padded,
            plan: RealFftPlan::new(padded),
        }
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// [`TsError::EmptyInput`] when `m == 0`.
    pub fn try_new(m: usize) -> TsResult<Self> {
        if m == 0 {
            return Err(TsError::EmptyInput);
        }
        Ok(SbdPlan::new(m))
    }

    /// The series length this plan serves.
    #[inline]
    #[must_use]
    pub fn series_len(&self) -> usize {
        self.m
    }

    /// The padded FFT length backing this plan.
    #[inline]
    #[must_use]
    pub fn padded_len(&self) -> usize {
        self.padded
    }

    /// Precomputes the half-spectrum and energy of a reference series.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the plan length.
    #[must_use]
    pub fn prepare(&self, x: &[f64]) -> PreparedSeries {
        let mut scratch = Vec::new();
        self.prepare_with(x, &mut scratch)
    }

    /// [`Self::prepare`] with a caller-supplied FFT scratch buffer, for
    /// batch spectrum-cache construction without per-series allocation
    /// beyond the cached spectrum itself.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the plan length.
    #[must_use]
    pub fn prepare_with(&self, x: &[f64], scratch: &mut Vec<Complex>) -> PreparedSeries {
        assert_eq!(x.len(), self.m, "series length must match plan");
        let mut spectrum = vec![Complex::ZERO; self.plan.spectrum_len()];
        self.plan.rfft_into(x, &mut spectrum, scratch);
        PreparedSeries {
            spectrum,
            energy: autocorr0(x),
        }
    }

    /// [`Self::prepare_with`] into a caller-owned [`PreparedSeries`] slot —
    /// the fully allocation-free variant for streaming sweeps that prepare
    /// one row at a time from an out-of-core store, where a per-row
    /// spectrum allocation would dominate the pass. The slot's spectrum
    /// buffer is resized once and reused forever after.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the plan length.
    pub fn prepare_into(&self, x: &[f64], slot: &mut PreparedSeries, scratch: &mut Vec<Complex>) {
        assert_eq!(x.len(), self.m, "series length must match plan");
        self.fill_slot(x, slot, scratch);
    }

    /// Precomputes the half-spectrum of a series *no longer than* the plan
    /// length, zero-padded on the right — the unequal-length counterpart
    /// of [`Self::prepare`].
    ///
    /// A plan for the longer of two lengths always has enough padding for
    /// their full linear cross-correlation (`padded ≥ 2·m − 1 ≥ nx + ny − 1`
    /// whenever both lengths are at most `m`), so mixed-length workloads
    /// share plans — and the spectrum cache — with the equal-length hot
    /// path at the reference length.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or longer than the plan length.
    #[must_use]
    pub fn prepare_padded(&self, x: &[f64]) -> PreparedSeries {
        let mut slot = PreparedSeries::empty();
        self.prepare_padded_into(x, &mut slot, &mut Vec::new());
        slot
    }

    /// [`Self::prepare_padded`] into a reused slot — the allocation-free
    /// form the ragged assignment sweep prepares each row with.
    pub(crate) fn prepare_padded_into(
        &self,
        x: &[f64],
        slot: &mut PreparedSeries,
        scratch: &mut Vec<Complex>,
    ) {
        assert!(
            !x.is_empty() && x.len() <= self.m,
            "series length {} outside plan range 1..={}",
            x.len(),
            self.m
        );
        self.fill_slot(x, slot, scratch);
    }

    fn fill_slot(&self, x: &[f64], slot: &mut PreparedSeries, scratch: &mut Vec<Complex>) {
        slot.spectrum.clear();
        slot.spectrum
            .resize(self.plan.spectrum_len(), Complex::ZERO);
        self.plan.rfft_into(x, &mut slot.spectrum, scratch);
        slot.energy = autocorr0(x);
    }

    /// Cross-correlation of two padded-prepared series of original lengths
    /// `nx` and `ny`, written to `out` in lag order `−(ny−1)..=(nx−1)`
    /// (`nx + ny − 1` values) — the unequal-length counterpart of
    /// [`Self::cross_correlate_prepared`], sharing the plan's FFT and
    /// both cached spectra.
    ///
    /// # Panics
    ///
    /// Panics if either length is zero or exceeds the plan length.
    pub fn cross_correlate_padded(
        &self,
        x: &PreparedSeries,
        nx: usize,
        y: &PreparedSeries,
        ny: usize,
        out: &mut Vec<f64>,
        scratch: &mut SbdScratch,
    ) {
        assert!(
            (1..=self.m).contains(&nx) && (1..=self.m).contains(&ny),
            "series lengths ({nx}, {ny}) outside plan range 1..={}",
            self.m
        );
        scratch.corr.resize(self.padded, 0.0);
        self.plan.correlate_spectra_into(
            &x.spectrum,
            &y.spectrum,
            &mut scratch.corr,
            &mut scratch.fft,
        );
        let n = self.padded;
        out.clear();
        out.reserve(nx + ny - 1);
        out.extend((1..ny).rev().map(|k| scratch.corr[n - k]));
        out.extend_from_slice(&scratch.corr[..nx]);
    }

    /// SBD between a prepared reference `x` and a raw candidate `y`.
    ///
    /// # Panics
    ///
    /// Panics if `y.len()` differs from the plan length.
    #[must_use]
    pub fn sbd_prepared(&self, x: &PreparedSeries, y: &[f64]) -> SbdResult {
        assert_eq!(y.len(), self.m, "series length must match plan");
        let prepared_y = self.prepare(y);
        let mut scratch = SbdScratch::default();
        let (dist, shift) = self.sbd_spectra(x, &prepared_y, &mut scratch);
        SbdResult {
            dist,
            shift,
            aligned: tsdata::distort::shift_zero_pad(y, shift),
        }
    }

    /// Distance and optimal shift between two *prepared* series — the
    /// allocation-free kernel of the batched frequency-domain sweep.
    ///
    /// The cost per call is one conjugate multiply over `padded/2 + 1`
    /// bins, one half-size inverse FFT, and one peak scan; neither forward
    /// transform is repeated. Results are bit-identical to
    /// [`Self::sbd_prepared`] on the same inputs.
    #[must_use]
    pub fn sbd_spectra(
        &self,
        x: &PreparedSeries,
        y: &PreparedSeries,
        scratch: &mut SbdScratch,
    ) -> (f64, isize) {
        let denom = (x.energy * y.energy).sqrt();
        if denom == 0.0 {
            let both_zero = x.energy == 0.0 && y.energy == 0.0;
            return (if both_zero { 0.0 } else { 1.0 }, 0);
        }
        scratch.corr.resize(self.padded, 0.0);
        self.plan.correlate_spectra_into(
            &x.spectrum,
            &y.spectrum,
            &mut scratch.corr,
            &mut scratch.fft,
        );
        // Peak scan in unwrapped lag order −(m−1)..=(m−1), i.e. the
        // circular tail `corr[n−(m−1)..]` followed by the head
        // `corr[..m]`, with the same first-maximum tie-breaking as the
        // unplanned path.
        let (m, n) = (self.m, self.padded);
        let mut best = f64::NEG_INFINITY;
        let mut best_idx = 0usize;
        for (i, &v) in scratch.corr[n - (m - 1)..].iter().enumerate() {
            if v > best {
                best = v;
                best_idx = i;
            }
        }
        for (i, &v) in scratch.corr[..m].iter().enumerate() {
            if v > best {
                best = v;
                best_idx = i + (m - 1);
            }
        }
        let shift = best_idx as isize - (m as isize - 1);
        (1.0 - best / denom, shift)
    }

    /// Multichannel SBD over per-channel cached spectra: the distance is
    /// `1 − max_w Σ_ch CC_w(x_ch, y_ch) / √(Σ_ch R₀(x_ch) · Σ_ch R₀(y_ch))`
    /// — summed per-channel cross-correlation under one shared shift,
    /// normalized by the summed channel energies.
    ///
    /// `x` and `y` are per-channel [`PreparedSeries`] slices of equal
    /// length (one entry per channel, every channel at the plan length).
    /// With a single channel this dispatches to [`Self::sbd_spectra`], so
    /// the univariate result is **bit-identical** — the compatibility
    /// guarantee the shape-aware engines rely on.
    ///
    /// # Panics
    ///
    /// Panics if the channel counts differ or are zero.
    #[must_use]
    pub fn sbd_spectra_multi(
        &self,
        x: &[PreparedSeries],
        y: &[PreparedSeries],
        scratch: &mut SbdScratch,
    ) -> (f64, isize) {
        assert_eq!(x.len(), y.len(), "channel counts must match");
        assert!(!x.is_empty(), "at least one channel required");
        if x.len() == 1 {
            return self.sbd_spectra(&x[0], &y[0], scratch);
        }
        let ex: f64 = x.iter().map(PreparedSeries::energy).sum();
        let ey: f64 = y.iter().map(PreparedSeries::energy).sum();
        let denom = (ex * ey).sqrt();
        if denom == 0.0 {
            let both_zero = ex == 0.0 && ey == 0.0;
            return (if both_zero { 0.0 } else { 1.0 }, 0);
        }
        scratch.acc.clear();
        scratch.acc.resize(self.padded, 0.0);
        for (cx, cy) in x.iter().zip(y.iter()) {
            scratch.corr.resize(self.padded, 0.0);
            self.plan.correlate_spectra_into(
                &cx.spectrum,
                &cy.spectrum,
                &mut scratch.corr,
                &mut scratch.fft,
            );
            for (a, &c) in scratch.acc.iter_mut().zip(scratch.corr.iter()) {
                *a += c;
            }
        }
        // Same unwrapped-lag peak scan and tie-breaking as sbd_spectra,
        // over the channel-summed correlation.
        let (m, n) = (self.m, self.padded);
        let mut best = f64::NEG_INFINITY;
        let mut best_idx = 0usize;
        for (i, &v) in scratch.acc[n - (m - 1)..].iter().enumerate() {
            if v > best {
                best = v;
                best_idx = i;
            }
        }
        for (i, &v) in scratch.acc[..m].iter().enumerate() {
            if v > best {
                best = v;
                best_idx = i + (m - 1);
            }
        }
        let shift = best_idx as isize - (m as isize - 1);
        (1.0 - best / denom, shift)
    }

    /// Raw cross-correlation sequence `CC_w(x, y)` of two prepared series,
    /// written to `out` in unwrapped lag order `−(m−1)..=(m−1)` (length
    /// `2m − 1`) — the batched counterpart of
    /// [`tsfft::correlate::cross_correlate_fft`], sharing both forward
    /// transforms through the spectrum cache. Backs [`crate::ncc`]'s
    /// `*_prepared` entry points.
    pub fn cross_correlate_prepared(
        &self,
        x: &PreparedSeries,
        y: &PreparedSeries,
        out: &mut Vec<f64>,
        scratch: &mut SbdScratch,
    ) {
        scratch.corr.resize(self.padded, 0.0);
        self.plan.correlate_spectra_into(
            &x.spectrum,
            &y.spectrum,
            &mut scratch.corr,
            &mut scratch.fft,
        );
        let (m, n) = (self.m, self.padded);
        out.clear();
        out.reserve(2 * m - 1);
        out.extend_from_slice(&scratch.corr[n - (m - 1)..]);
        out.extend_from_slice(&scratch.corr[..m]);
    }
}

/// A reference series preprocessed by [`SbdPlan::prepare`]: the packed
/// half-spectrum of the zero-padded series plus its energy `R₀(x, x)`.
#[derive(Debug, Clone)]
pub struct PreparedSeries {
    spectrum: Vec<Complex>,
    energy: f64,
}

impl PreparedSeries {
    /// An empty slot for [`SbdPlan::prepare_into`]: no spectrum buffer
    /// yet (allocated to the plan's size on first use), zero energy.
    #[must_use]
    pub fn empty() -> Self {
        PreparedSeries {
            spectrum: Vec::new(),
            energy: 0.0,
        }
    }

    /// The series energy `R₀(x, x) = Σ x_i²` captured at preparation time.
    #[inline]
    #[must_use]
    pub fn energy(&self) -> f64 {
        self.energy
    }
}

/// Maximum number of per-length FFT plans each [`Sbd`] instance keeps.
///
/// Multi-length workloads (the unequal-length SBD paths, mixed-archive
/// sweeps) would otherwise grow the plan cache without bound — one
/// `Radix2Fft` per distinct length, each holding O(padded) twiddle
/// tables. Eight lengths cover every workload in the evaluation while
/// bounding worst-case memory; eviction is most-recently-used-first, so
/// the lengths a clustering loop is actively cycling through stay warm.
pub const SBD_PLAN_CACHE_CAP: usize = 8;

/// A bounded most-recently-used plan cache keyed by length.
///
/// Entry 0 is the most recently used; inserts beyond
/// [`SBD_PLAN_CACHE_CAP`] evict from the tail (the least recently used
/// length). Plans are handed out as `Arc`s so the lock is released before
/// any FFT work and concurrent dissimilarity-matrix workers are never
/// serialized on the cache.
#[derive(Debug)]
struct PlanCache<T> {
    entries: Mutex<Vec<(usize, Arc<T>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<T> Default for PlanCache<T> {
    fn default() -> Self {
        PlanCache {
            entries: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }
}

impl<T> PlanCache<T> {
    /// Fetches the plan for `key`, building and installing it on a miss.
    fn get_or_insert(&self, key: usize, build: impl FnOnce() -> T) -> Arc<T> {
        let mut guard = lock_plan_cache(&self.entries);
        if let Some(pos) = guard.iter().position(|(k, _)| *k == key) {
            let entry = guard.remove(pos);
            let plan = Arc::clone(&entry.1);
            guard.insert(0, entry);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return plan;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(build());
        guard.insert(0, (key, Arc::clone(&plan)));
        if guard.len() > SBD_PLAN_CACHE_CAP {
            let evicted = guard.len() - SBD_PLAN_CACHE_CAP;
            guard.truncate(SBD_PLAN_CACHE_CAP);
            self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
        }
        plan
    }

    /// Number of cached plans (test/diagnostic hook).
    fn len(&self) -> usize {
        lock_plan_cache(&self.entries).len()
    }

    /// Whether `key` currently has a cached plan (test/diagnostic hook).
    fn contains(&self, key: usize) -> bool {
        lock_plan_cache(&self.entries)
            .iter()
            .any(|(k, _)| *k == key)
    }

    /// Snapshot of the cache's lifetime counters and current size.
    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: self.len(),
        }
    }
}

/// Lifetime statistics of a bounded-MRU plan cache, exposed via
/// [`Sbd::cache_stats`].
///
/// Before this accessor existed, the PR 3 cache behaviour (bounded size,
/// MRU retention) was only testable through timing side effects; these
/// counters make hit rates a first-class, assertable quantity and feed
/// the `sbd.cache.*` telemetry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build a new plan.
    pub misses: u64,
    /// Plans evicted by the bounded-MRU policy.
    pub evictions: u64,
    /// Plans currently resident.
    pub len: usize,
}

impl CacheStats {
    /// Folds another snapshot into this one (summing counters and sizes).
    #[must_use]
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            len: self.len + other.len,
        }
    }

    /// Hit fraction of all lookups so far (0 when none happened).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Emits the snapshot as `sbd.cache.{hits,misses,evictions,len}`
    /// telemetry counters. Counters are monotonic, so call this once per
    /// distinct `Sbd` instance (e.g. after a matrix build), not per
    /// lookup.
    pub fn emit(&self, obs: tsobs::Obs<'_>) {
        obs.counter("sbd.cache.hits", self.hits);
        obs.counter("sbd.cache.misses", self.misses);
        obs.counter("sbd.cache.evictions", self.evictions);
        obs.counter("sbd.cache.len", self.len as u64);
    }
}

/// Shape options for the unified [`Sbd::distance`] entry point, following
/// the workspace's borrowed-options-object convention
/// (`KShapeOptions`-style): one struct carries every shape knob, and the
/// entry dispatches equal-length, unequal-length, rescaled, and
/// multichannel SBD internally.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SbdOptions {
    /// Channel count both inputs are interpreted with (channel-major
    /// layout, see `tsdata::store::RowShape`). Default 1 — univariate.
    pub channels: usize,
    /// For univariate inputs of *different* lengths: `true` stretches the
    /// shorter to the longer with linear interpolation first (the paper's
    /// Section 2.2 uniform-scaling invariance), `false` (default)
    /// compares them directly over the padded `nx + ny − 1` lag range.
    /// Irrelevant when the lengths match.
    pub rescale: bool,
}

impl Default for SbdOptions {
    fn default() -> Self {
        SbdOptions {
            channels: 1,
            rescale: false,
        }
    }
}

impl SbdOptions {
    /// Univariate defaults (`channels = 1`, no rescaling).
    #[must_use]
    pub fn new() -> Self {
        SbdOptions::default()
    }

    /// Sets the channel count.
    #[must_use]
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.channels = channels;
        self
    }

    /// Enables uniform-scaling rescaling for unequal univariate lengths.
    #[must_use]
    pub fn with_rescale(mut self, rescale: bool) -> Self {
        self.rescale = rescale;
        self
    }
}

/// SBD as a [`Distance`] implementation, pluggable into the generic 1-NN
/// and clustering machinery.
///
/// Internally caches FFT plans per observed length behind a mutex; plan
/// construction is cheap relative to a transform but not free, and the
/// clustering hot paths reuse lengths heavily. The Bluestein variant
/// caches its chirp plans the same way — without it, per-call plan setup
/// would dominate and distort the Table 2 runtime ratios. Both caches are
/// bounded to [`SBD_PLAN_CACHE_CAP`] distinct lengths with
/// most-recently-used retention.
#[derive(Debug, Default)]
pub struct Sbd {
    method: CorrMethod,
    cached: PlanCache<SbdPlan>,
    cached_bluestein: PlanCache<BluesteinFft>,
}

/// Locks a plan-cache mutex, recovering from poisoning.
///
/// A panic in another thread while it held the cache lock (e.g. an
/// assertion inside plan construction) poisons the mutex. The cached plans
/// are pure performance artifacts — they can always be rebuilt from
/// scratch — so instead of propagating the poison panic we clear the
/// poison flag, drop whatever half-installed plans the dead writer left
/// behind, and let the caller rebuild. Deterministic and lossless: the
/// next access pays one extra plan construction.
fn lock_plan_cache<T>(cache: &Mutex<Vec<T>>) -> MutexGuard<'_, Vec<T>> {
    match cache.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            cache.clear_poison();
            let mut guard = poisoned.into_inner();
            guard.clear();
            guard
        }
    }
}

impl Sbd {
    /// SBD with the default power-of-two FFT strategy.
    #[must_use]
    pub fn new() -> Self {
        Sbd::default()
    }

    /// SBD with an explicit correlation strategy (for the Table 2
    /// ablations).
    #[must_use]
    pub fn with_method(method: CorrMethod) -> Self {
        Sbd {
            method,
            ..Sbd::default()
        }
    }

    /// Number of distinct series lengths with a cached plan (across both
    /// the power-of-two and Bluestein caches). Never exceeds
    /// `2 * SBD_PLAN_CACHE_CAP`.
    #[must_use]
    pub fn cached_plan_count(&self) -> usize {
        self.cached.len() + self.cached_bluestein.len()
    }

    /// Whether series length `m` currently has a cached plan.
    #[must_use]
    pub fn has_cached_plan_for(&self, m: usize) -> bool {
        self.cached.contains(m) || (m > 0 && self.cached_bluestein.contains(2 * m - 1))
    }

    /// Combined hit/miss/eviction statistics of the power-of-two and
    /// Bluestein plan caches since this `Sbd` was created.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cached.stats().merged(self.cached_bluestein.stats())
    }

    /// Unequal-length SBD through the bounded plan cache.
    ///
    /// Plans are keyed by the *longer* input's length (whose padding
    /// covers the full `nx + ny − 1` lag range), so repeated queries
    /// against a fixed-length reference set — 1-NN over a mixed archive,
    /// sub-sequence search — hit the same cached plans as the
    /// equal-length hot path. Always uses the power-of-two real-FFT
    /// pipeline regardless of the configured [`CorrMethod`].
    ///
    /// # Errors
    ///
    /// [`TsError::EmptyInput`] when either sequence is empty,
    /// [`TsError::NonFinite`] on NaN/infinite samples.
    pub fn try_sbd_unequal(&self, x: &[f64], y: &[f64]) -> TsResult<SbdResult> {
        if x.is_empty() || y.is_empty() {
            return Err(TsError::EmptyInput);
        }
        tserror::ensure_finite(x, 0)?;
        tserror::ensure_finite(y, 1)?;
        let m = x.len().max(y.len());
        let plan = self.cached.get_or_insert(m, || SbdPlan::new(m));
        if x.len() == y.len() {
            return Ok(plan.sbd_prepared(&plan.prepare(x), y));
        }
        Ok(crate::sbd_unequal::unequal_with_plan(&plan, x, y))
    }

    /// The unified shape-aware SBD entry point: dispatches equal-length,
    /// unequal-length (padded lags or uniform-scaling rescale), and
    /// multichannel SBD from one call, all through the bounded plan
    /// cache.
    ///
    /// With the default [`SbdOptions`] this is exactly the cached
    /// univariate kernel (bit-identical to [`Sbd::try_sbd_unequal`]).
    /// With `channels = c > 1`, both inputs are read channel-major
    /// (`c · m` samples), the distance is the summed per-channel NCC of
    /// [`SbdPlan::sbd_spectra_multi`], and `aligned` holds `y` with every
    /// channel shifted by the shared optimal lag.
    ///
    /// # Errors
    ///
    /// [`TsError::EmptyInput`] when either input is empty,
    /// [`TsError::NonFinite`] on bad samples,
    /// [`TsError::LengthMismatch`] when a length is not a multiple of
    /// `channels` or multichannel inputs differ in length, and
    /// [`TsError::NumericalFailure`] for `channels == 0`.
    pub fn distance(&self, x: &[f64], y: &[f64], opts: &SbdOptions) -> TsResult<SbdResult> {
        if opts.channels == 0 {
            return Err(TsError::NumericalFailure {
                context: "SbdOptions.channels must be at least 1".into(),
            });
        }
        if x.is_empty() || y.is_empty() {
            return Err(TsError::EmptyInput);
        }
        tserror::ensure_finite(x, 0)?;
        tserror::ensure_finite(y, 1)?;
        let c = opts.channels;
        if c == 1 {
            if opts.rescale && x.len() != y.len() {
                // Uniform-scaling invariance: stretch the shorter input,
                // then compare at equal length through the cached plan.
                let target = x.len().max(y.len());
                let stretched;
                let (xr, yr): (&[f64], &[f64]) = if x.len() == target {
                    stretched = tsdata::distort::resample(y, target);
                    (x, &stretched)
                } else {
                    stretched = tsdata::distort::resample(x, target);
                    (&stretched, y)
                };
                let plan = self.cached.get_or_insert(target, || SbdPlan::new(target));
                return Ok(plan.sbd_prepared(&plan.prepare(xr), yr));
            }
            let m = x.len().max(y.len());
            let plan = self.cached.get_or_insert(m, || SbdPlan::new(m));
            if x.len() == y.len() {
                return Ok(plan.sbd_prepared(&plan.prepare(x), y));
            }
            return Ok(crate::sbd_unequal::unequal_with_plan(&plan, x, y));
        }
        if !x.len().is_multiple_of(c) {
            return Err(TsError::LengthMismatch {
                expected: c,
                found: x.len(),
                series: 0,
            });
        }
        if y.len() != x.len() {
            return Err(TsError::LengthMismatch {
                expected: x.len(),
                found: y.len(),
                series: 1,
            });
        }
        let m = x.len() / c;
        let plan = self.cached.get_or_insert(m, || SbdPlan::new(m));
        let mut fft_scratch = Vec::new();
        let px: Vec<PreparedSeries> = x
            .chunks_exact(m)
            .map(|ch| plan.prepare_with(ch, &mut fft_scratch))
            .collect();
        let py: Vec<PreparedSeries> = y
            .chunks_exact(m)
            .map(|ch| plan.prepare_with(ch, &mut fft_scratch))
            .collect();
        let mut scratch = SbdScratch::default();
        let (dist, shift) = plan.sbd_spectra_multi(&px, &py, &mut scratch);
        let mut aligned = Vec::with_capacity(x.len());
        for ch in y.chunks_exact(m) {
            aligned.extend_from_slice(&tsdata::distort::shift_zero_pad(ch, shift));
        }
        Ok(SbdResult {
            dist,
            shift,
            aligned,
        })
    }

    /// Bluestein-based SBD with a cached chirp plan (the `SBD-NoPow2`
    /// hot path).
    fn dist_bluestein(&self, x: &[f64], y: &[f64]) -> f64 {
        let m = x.len();
        let denom = (autocorr0(x) * autocorr0(y)).sqrt();
        if denom == 0.0 || m == 0 {
            return sbd_with(x, y, CorrMethod::FftExact).dist;
        }
        let n = 2 * m - 1;
        let plan = self
            .cached_bluestein
            .get_or_insert(n, || BluesteinFft::new(n));
        let fx = plan.forward(&pad_to_complex(x, n));
        let fy = plan.forward(&pad_to_complex(y, n));
        let prod: Vec<tsfft::Complex> = fx
            .iter()
            .zip(fy.iter())
            .map(|(a, b)| *a * b.conj())
            .collect();
        let c = plan.inverse(&prod);
        let mut cc = Vec::with_capacity(2 * m - 1);
        cc.extend((1..m).rev().map(|k| c[n - k].re));
        cc.extend(c[..m].iter().map(|z| z.re));
        finish(m, y, &cc, denom).dist
    }
}

impl Distance for Sbd {
    fn name(&self) -> String {
        self.method.sbd_name().into()
    }

    fn dist(&self, x: &[f64], y: &[f64]) -> f64 {
        match self.method {
            CorrMethod::FftPow2 => {
                // The cache hands back an Arc with the lock already
                // released, so concurrent dissimilarity-matrix workers are
                // not serialized on the plan cache during FFT work.
                let plan = self.cached.get_or_insert(x.len(), || SbdPlan::new(x.len()));
                let prepared = plan.prepare(x);
                plan.sbd_prepared(&prepared, y).dist
            }
            CorrMethod::FftExact => self.dist_bluestein(x, y),
            CorrMethod::Naive => sbd_with(x, y, CorrMethod::Naive).dist,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{sbd, sbd_with, CorrMethod, Sbd, SbdPlan};
    use tsdata::normalize::z_normalize;
    use tsdist::Distance;

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        }
    }

    #[test]
    fn identical_series_distance_zero() {
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.2).sin()).collect();
        let r = sbd(&x, &x);
        assert!(r.dist.abs() < 1e-9);
        assert_eq!(r.shift, 0);
        assert_eq!(r.aligned, x);
    }

    #[test]
    fn distance_in_range_zero_two() {
        let mut next = lcg(3);
        for _ in 0..30 {
            let x: Vec<f64> = (0..40).map(|_| next()).collect();
            let y: Vec<f64> = (0..40).map(|_| next()).collect();
            let d = sbd(&x, &y).dist;
            assert!((0.0..=2.0 + 1e-12).contains(&d), "{d}");
        }
    }

    #[test]
    fn negation_increases_distance() {
        // Negating a shape can never look *more* similar than the shape
        // itself, and the worst case (m = 1, where no shift can help)
        // reaches the upper bound of 2.
        let bump: Vec<f64> = (0..32)
            .map(|i| (-((i as f64 - 16.0) / 2.0).powi(2)).exp())
            .collect();
        let centered = z_normalize(&bump);
        let neg: Vec<f64> = centered.iter().map(|v| -v).collect();
        let d_self = sbd(&centered, &centered).dist;
        let d_neg = sbd(&centered, &neg).dist;
        assert!(d_neg > d_self + 0.5, "self {d_self}, negated {d_neg}");
        // Single-sample worst case: NCC has one lag with value −1.
        assert!((sbd(&[1.0], &[-1.0]).dist - 2.0).abs() < 1e-12);
    }

    #[test]
    fn scale_invariance() {
        let x: Vec<f64> = (0..50).map(|i| (i as f64 * 0.17).sin()).collect();
        let y: Vec<f64> = (0..50).map(|i| (i as f64 * 0.17 + 0.4).cos()).collect();
        let y5: Vec<f64> = y.iter().map(|v| 5.0 * v).collect();
        assert!((sbd(&x, &y).dist - sbd(&x, &y5).dist).abs() < 1e-10);
    }

    #[test]
    fn shift_recovery_and_alignment() {
        let m = 64;
        let base: Vec<f64> = (0..m)
            .map(|i| (-((i as f64 - 25.0) / 4.0).powi(2)).exp())
            .collect();
        let delayed = tsdata::distort::shift_zero_pad(&base, 7);
        // Aligning `delayed` toward `base` must undo the delay.
        let r = sbd(&base, &delayed);
        assert_eq!(r.shift, -7);
        assert!(r.dist < 0.05, "dist {}", r.dist);
        // The aligned copy should now be very close to base.
        let resid: f64 = r
            .aligned
            .iter()
            .zip(base.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(resid < 1e-6, "resid {resid}");
    }

    #[test]
    fn all_methods_agree() {
        let mut next = lcg(12);
        for &m in &[3usize, 8, 17, 33, 64] {
            let x: Vec<f64> = (0..m).map(|_| next()).collect();
            let y: Vec<f64> = (0..m).map(|_| next()).collect();
            let a = sbd_with(&x, &y, CorrMethod::FftPow2);
            let b = sbd_with(&x, &y, CorrMethod::FftExact);
            let c = sbd_with(&x, &y, CorrMethod::Naive);
            assert!((a.dist - b.dist).abs() < 1e-8, "m={m}");
            assert!((a.dist - c.dist).abs() < 1e-8, "m={m}");
            assert_eq!(a.shift, c.shift, "m={m}");
        }
    }

    #[test]
    fn plan_matches_direct_computation() {
        let mut next = lcg(9);
        let m = 48;
        let plan = SbdPlan::new(m);
        let x: Vec<f64> = (0..m).map(|_| next()).collect();
        let prepared = plan.prepare(&x);
        for _ in 0..10 {
            let y: Vec<f64> = (0..m).map(|_| next()).collect();
            let fast = plan.sbd_prepared(&prepared, &y);
            let slow = sbd(&x, &y);
            assert!((fast.dist - slow.dist).abs() < 1e-9);
            assert_eq!(fast.shift, slow.shift);
        }
    }

    #[test]
    fn zero_energy_edge_cases() {
        let z = vec![0.0; 8];
        let x = vec![1.0; 8];
        assert_eq!(sbd(&z, &z).dist, 0.0);
        assert_eq!(sbd(&z, &x).dist, 1.0);
        assert_eq!(sbd(&x, &z).dist, 1.0);
    }

    #[test]
    fn symmetry_of_distance() {
        let mut next = lcg(77);
        for _ in 0..10 {
            let x: Vec<f64> = (0..30).map(|_| next()).collect();
            let y: Vec<f64> = (0..30).map(|_| next()).collect();
            assert!((sbd(&x, &y).dist - sbd(&y, &x).dist).abs() < 1e-9);
        }
    }

    #[test]
    fn distance_trait_caches_plan_across_lengths() {
        let d = Sbd::new();
        let x: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..16).map(|i| (16 - i) as f64).collect();
        let d1 = d.dist(&x, &y);
        // Different length invalidates the cache and must still work.
        let a: Vec<f64> = (0..24).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = (0..24).map(|i| (i as f64).cos()).collect();
        let d2 = d.dist(&a, &b);
        assert!((0.0..=2.0).contains(&d1));
        assert!((0.0..=2.0).contains(&d2));
        // And back to the original length.
        let d3 = d.dist(&x, &y);
        assert!((d1 - d3).abs() < 1e-12);
        assert_eq!(d.name(), "SBD");
        assert_eq!(Sbd::with_method(CorrMethod::Naive).name(), "SBD-NoFFT");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty() {
        let _ = sbd(&[], &[]);
    }

    #[test]
    fn try_sbd_reports_typed_errors_and_matches_sbd() {
        use super::{try_sbd, try_sbd_with, SbdPlan};
        use tserror::TsError;
        assert!(matches!(try_sbd(&[], &[]), Err(TsError::EmptyInput)));
        assert!(matches!(
            try_sbd(&[1.0], &[1.0, 2.0]),
            Err(TsError::LengthMismatch {
                expected: 1,
                found: 2,
                series: 1
            })
        ));
        assert!(matches!(
            try_sbd(&[f64::NAN, 1.0], &[1.0, 2.0]),
            Err(TsError::NonFinite {
                series: 0,
                index: 0
            })
        ));
        assert!(matches!(SbdPlan::try_new(0), Err(TsError::EmptyInput)));
        assert_eq!(SbdPlan::try_new(5).map(|p| p.series_len()), Ok(5));
        let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.2).sin()).collect();
        let y: Vec<f64> = (0..32).map(|i| (i as f64 * 0.2 + 0.7).cos()).collect();
        let a = sbd(&x, &y);
        let b = try_sbd(&x, &y).expect("clean data");
        assert!((a.dist - b.dist).abs() < 1e-15);
        assert_eq!(a.shift, b.shift);
        for method in [CorrMethod::FftPow2, CorrMethod::FftExact, CorrMethod::Naive] {
            let c = try_sbd_with(&x, &y, method).expect("clean data");
            assert!((a.dist - c.dist).abs() < 1e-8);
        }
    }

    /// Regression test for the cached-plan lock poisoning: a thread that
    /// panics while holding the cache lock must not take every future
    /// `Sbd::dist` call down with it — the cache is rebuilt instead.
    #[test]
    fn recovers_from_poisoned_plan_caches() {
        use std::sync::Arc;

        let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.3).sin()).collect();
        let y: Vec<f64> = (0..16).map(|i| (i as f64 * 0.3 + 0.5).cos()).collect();

        // Pow2 plan cache.
        let d = Arc::new(Sbd::new());
        let before = d.dist(&x, &y); // install a plan
        let d2 = Arc::clone(&d);
        let handle = std::thread::spawn(move || {
            let _guard = d2.cached.entries.lock().unwrap();
            panic!("poisoning the SBD plan lock on purpose");
        });
        assert!(handle.join().is_err(), "the poisoner must have panicked");
        assert!(d.cached.entries.is_poisoned(), "lock should be poisoned");
        let after = d.dist(&x, &y);
        assert!(
            (before - after).abs() < 1e-15,
            "distance must survive poisoning"
        );
        assert!(
            !d.cached.entries.is_poisoned(),
            "poison flag should be cleared"
        );

        // Bluestein chirp-plan cache.
        let b = Arc::new(Sbd::with_method(CorrMethod::FftExact));
        let before = b.dist(&x, &y);
        let b2 = Arc::clone(&b);
        let handle = std::thread::spawn(move || {
            let _guard = b2.cached_bluestein.entries.lock().unwrap();
            panic!("poisoning the Bluestein plan lock on purpose");
        });
        assert!(handle.join().is_err());
        assert!(b.cached_bluestein.entries.is_poisoned());
        let after = b.dist(&x, &y);
        assert!((before - after).abs() < 1e-15);
        assert!(!b.cached_bluestein.entries.is_poisoned());
    }

    /// Regression test for the bounded plan cache: feeding many distinct
    /// lengths through one `Sbd` must never grow the cache past
    /// [`super::SBD_PLAN_CACHE_CAP`], and the most recently used lengths
    /// must be the ones retained.
    #[test]
    fn plan_cache_is_bounded_with_mru_retention() {
        use super::SBD_PLAN_CACHE_CAP;

        let d = Sbd::new();
        let lengths: Vec<usize> = (4..4 + 3 * SBD_PLAN_CACHE_CAP).collect();
        for &m in &lengths {
            let x: Vec<f64> = (0..m).map(|i| (i as f64 * 0.31).sin()).collect();
            let y: Vec<f64> = (0..m).map(|i| (i as f64 * 0.31 + 0.4).cos()).collect();
            let dist = d.dist(&x, &y);
            assert!((0.0..=2.0 + 1e-12).contains(&dist));
            assert!(
                d.cached_plan_count() <= SBD_PLAN_CACHE_CAP,
                "cache grew to {} (cap {})",
                d.cached_plan_count(),
                SBD_PLAN_CACHE_CAP
            );
        }
        // The last CAP lengths are exactly the retained ones.
        for &m in &lengths[lengths.len() - SBD_PLAN_CACHE_CAP..] {
            assert!(d.has_cached_plan_for(m), "recent length {m} evicted");
        }
        assert!(!d.has_cached_plan_for(lengths[0]), "oldest length retained");

        // Re-touching an old length reinstalls it at the front …
        let m0 = lengths[0];
        let x: Vec<f64> = (0..m0).map(|i| i as f64).collect();
        let _ = d.dist(&x, &x);
        assert!(d.has_cached_plan_for(m0));
        assert!(d.cached_plan_count() <= SBD_PLAN_CACHE_CAP);

        // … and the Bluestein cache obeys the same cap.
        let b = Sbd::with_method(CorrMethod::FftExact);
        for &m in &lengths {
            let x: Vec<f64> = (0..m).map(|i| (i as f64 * 0.17).sin()).collect();
            let _ = b.dist(&x, &x);
            assert!(b.cached_plan_count() <= SBD_PLAN_CACHE_CAP);
        }
    }

    #[test]
    fn distance_univariate_is_bit_identical_to_cached_kernel() {
        use super::SbdOptions;
        let d = Sbd::new();
        let x: Vec<f64> = (0..48).map(|i| (i as f64 * 0.23).sin()).collect();
        let y: Vec<f64> = (0..48).map(|i| (i as f64 * 0.23 + 0.9).cos()).collect();
        let short: Vec<f64> = y[10..31].to_vec();
        let opts = SbdOptions::new();
        // Equal lengths.
        let a = d.distance(&x, &y, &opts).unwrap();
        let b = d.try_sbd_unequal(&x, &y).unwrap();
        assert_eq!(a.dist.to_bits(), b.dist.to_bits());
        assert_eq!(a.shift, b.shift);
        assert_eq!(a.aligned, b.aligned);
        // Unequal lengths route through the padded-plan path.
        let a = d.distance(&x, &short, &opts).unwrap();
        let b = d.try_sbd_unequal(&x, &short).unwrap();
        assert_eq!(a.dist.to_bits(), b.dist.to_bits());
        assert_eq!(a.shift, b.shift);
        // Rescale stretches the shorter input first.
        let r = d
            .distance(&x, &short, &SbdOptions::new().with_rescale(true))
            .unwrap();
        assert_eq!(r.aligned.len(), 48);
        assert!((0.0..=2.0 + 1e-9).contains(&r.dist));
    }

    #[test]
    fn distance_multichannel_is_summed_per_channel_ncc() {
        use super::SbdOptions;
        use tsfft::correlate::cross_correlate_naive;
        let mut next = lcg(41);
        let (c, m) = (3usize, 24usize);
        let x: Vec<f64> = (0..c * m).map(|_| next()).collect();
        let y: Vec<f64> = (0..c * m).map(|_| next()).collect();
        let d = Sbd::new();
        let got = d
            .distance(&x, &y, &SbdOptions::new().with_channels(c))
            .unwrap();
        // Reference: naive per-channel cross-correlation, summed across
        // channels, normalized by summed energies.
        let mut summed = vec![0.0f64; 2 * m - 1];
        let (mut ex, mut ey) = (0.0f64, 0.0f64);
        for ch in 0..c {
            let xc = &x[ch * m..(ch + 1) * m];
            let yc = &y[ch * m..(ch + 1) * m];
            ex += super::autocorr0(xc);
            ey += super::autocorr0(yc);
            for (s, v) in summed.iter_mut().zip(cross_correlate_naive(xc, yc)) {
                *s += v;
            }
        }
        let denom = (ex * ey).sqrt();
        let (best_idx, best) = summed
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        let want_dist = 1.0 - best / denom;
        let want_shift = best_idx as isize - (m as isize - 1);
        assert!(
            (got.dist - want_dist).abs() < 1e-9,
            "{} vs {want_dist}",
            got.dist
        );
        assert_eq!(got.shift, want_shift);
        // Symmetric in its arguments.
        let rev = d
            .distance(&y, &x, &SbdOptions::new().with_channels(c))
            .unwrap();
        assert!((got.dist - rev.dist).abs() < 1e-9);
        // Aligned output shifts every channel by the shared lag.
        assert_eq!(got.aligned.len(), c * m);
        for ch in 0..c {
            let want = tsdata::distort::shift_zero_pad(&y[ch * m..(ch + 1) * m], got.shift);
            assert_eq!(&got.aligned[ch * m..(ch + 1) * m], &want[..]);
        }
    }

    #[test]
    fn distance_single_channel_multi_kernel_is_bit_identical() {
        use super::{SbdOptions, SbdScratch};
        let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.19).sin()).collect();
        let y: Vec<f64> = (0..32).map(|i| (i as f64 * 0.19 + 0.3).cos()).collect();
        let plan = SbdPlan::new(32);
        let (px, py) = (plan.prepare(&x), plan.prepare(&y));
        let mut scratch = SbdScratch::default();
        let uni = plan.sbd_spectra(&px, &py, &mut scratch);
        let multi = plan.sbd_spectra_multi(
            std::slice::from_ref(&px),
            std::slice::from_ref(&py),
            &mut scratch,
        );
        assert_eq!(uni.0.to_bits(), multi.0.to_bits());
        assert_eq!(uni.1, multi.1);
        // And through the options entry with channels = 1.
        let d = Sbd::new();
        let a = d.distance(&x, &y, &SbdOptions::new()).unwrap();
        assert_eq!(a.dist.to_bits(), uni.0.to_bits());
    }

    #[test]
    fn distance_rejects_bad_shapes() {
        use super::SbdOptions;
        use tserror::TsError;
        let d = Sbd::new();
        let x = vec![1.0; 6];
        assert!(matches!(
            d.distance(&x, &x, &SbdOptions::new().with_channels(0)),
            Err(TsError::NumericalFailure { .. })
        ));
        assert!(matches!(
            d.distance(&[], &x, &SbdOptions::new()),
            Err(TsError::EmptyInput)
        ));
        // Length not divisible by the channel count.
        assert!(matches!(
            d.distance(&x[..5], &x[..5], &SbdOptions::new().with_channels(2)),
            Err(TsError::LengthMismatch { .. })
        ));
        // Multichannel inputs must agree in total length.
        assert!(matches!(
            d.distance(&x, &x[..4], &SbdOptions::new().with_channels(2)),
            Err(TsError::LengthMismatch { .. })
        ));
        assert!(matches!(
            d.distance(&[1.0, f64::NAN], &[1.0, 2.0], &SbdOptions::new()),
            Err(TsError::NonFinite { .. })
        ));
    }

    /// The `CacheStats` accessor makes hit/miss/eviction behaviour
    /// directly assertable instead of inferable from timing.
    #[test]
    fn cache_stats_count_hits_misses_and_evictions() {
        use super::{CacheStats, SBD_PLAN_CACHE_CAP};

        let d = Sbd::new();
        assert_eq!(d.cache_stats(), CacheStats::default());
        assert_eq!(d.cache_stats().hit_rate(), 0.0);

        let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.3).sin()).collect();
        let y: Vec<f64> = (0..16).map(|i| (i as f64 * 0.3 + 0.5).cos()).collect();

        // First call on a fresh length: one miss, no hit, no eviction.
        let _ = d.dist(&x, &y);
        let s = d.cache_stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.len), (0, 1, 0, 1));

        // Same length again: pure hits from here on.
        let _ = d.dist(&x, &y);
        let _ = d.dist(&y, &x);
        let s = d.cache_stats();
        assert_eq!((s.hits, s.misses, s.len), (2, 1, 1));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);

        // Overflow the cache: evictions become observable.
        for m in 4..(4 + 2 * SBD_PLAN_CACHE_CAP) {
            let z: Vec<f64> = (0..m).map(|i| (i as f64 * 0.21).sin()).collect();
            let _ = d.dist(&z, &z);
        }
        let s = d.cache_stats();
        assert!(s.evictions > 0, "expected evictions, got {s:?}");
        assert!(s.len <= SBD_PLAN_CACHE_CAP);

        // Stats emit as telemetry counters under the sbd.cache.* names.
        let sink = tsobs::MemorySink::new();
        s.emit(tsobs::Obs::new(&sink));
        assert_eq!(sink.counter_total("sbd.cache.hits"), s.hits);
        assert_eq!(sink.counter_total("sbd.cache.misses"), s.misses);
        assert_eq!(sink.counter_total("sbd.cache.evictions"), s.evictions);
        assert_eq!(sink.counter_total("sbd.cache.len"), s.len as u64);
    }
}
