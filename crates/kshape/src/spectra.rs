//! The batched frequency-domain engine behind the k-Shape hot path.
//!
//! Every SBD evaluation factors into three parts: two forward FFTs (one
//! per series) and one conjugate-multiply + inverse FFT + peak scan per
//! *pair*. The pairwise [`crate::sbd::sbd`] entry point pays all three on
//! every call; a k-Shape fit, however, compares the same `n` series
//! against the same `k` centroids over and over. This module restructures
//! that work around the [`SbdPlan`] spectrum cache:
//!
//! * each input series is transformed **once per fit** ([`SpectraEngine::new`]),
//! * each centroid is transformed **once per iteration**, into a
//!   [`CentroidBank`],
//! * assignment asks the bank for every series' nearest centroid
//!   ([`CentroidBank::nearest_prepared`]) — one conjugate multiply and
//!   one half-size inverse real FFT per (series, centroid) pair — over
//!   the cached spectra.
//!
//! # Determinism contract
//!
//! All batched sweeps are embarrassingly parallel over *disjoint output
//! slots*: series `i`'s label/distance/shift (assignment) or row `i`
//! (matrix build) is computed from immutable inputs by exactly one
//! worker, with a per-worker scratch buffer and no shared accumulator.
//! Work is distributed by fixed contiguous chunking (assignment) or fixed
//! round-robin striping (matrix rows), and reductions (changed-count
//! sums, stop-reason merging, row mirroring) happen on the calling thread
//! in index order after the join. Results are therefore **bit-identical
//! for every thread count**, including the serial path. The only
//! thread-count-visible behaviour is execution-control granularity: with
//! more than one worker a budget trip can leave a different partial
//! prefix computed, exactly as in `tscluster::matrix`.

use tsdata::store::SeriesView;
use tserror::{ensure_finite, validate_series_set, StopReason, TsError, TsResult};
use tsrun::RunControl;

use crate::bank::CentroidBank;
use crate::sbd::{PreparedSeries, SbdPlan, SbdScratch};

/// Below this many independent work items the engine stays serial even
/// when more threads were requested: spawn cost would dominate.
const MIN_PARALLEL_ITEMS: usize = 32;

/// Resolves a requested worker count to an effective one.
///
/// `0` means *auto*: the `KSHAPE_THREADS` environment variable if set to
/// a positive integer, otherwise [`std::thread::available_parallelism`].
/// Any positive request is taken literally.
#[must_use]
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(v) = std::env::var("KSHAPE_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Per-fit spectrum cache plus the batched sweeps that consume it.
///
/// Borrowing the series keeps the engine allocation-light: the only owned
/// state is one packed half-spectrum ([`PreparedSeries`]) per series and
/// the shared [`SbdPlan`].
///
/// The engine is generic over its row source: any
/// [`SeriesView`] — the legacy `[Vec<f64>]` slice (the default type
/// parameter, so existing `SpectraEngine<'_>` signatures are unchanged
/// and bit-identical), or a contiguous
/// [`SeriesStore`](tsdata::store::SeriesStore) via
/// [`SpectraEngine::from_view`]. Rows are only read during construction;
/// every sweep afterwards runs on the cached spectra.
pub struct SpectraEngine<'a, V: SeriesView + ?Sized = [Vec<f64>]> {
    plan: SbdPlan,
    view: &'a V,
    n: usize,
    /// Collection-wide channel count; spectra are stored channel-major
    /// per series (`spectra[i·channels + ch]`).
    channels: usize,
    spectra: Vec<PreparedSeries>,
    threads: usize,
}

impl<'a, V: SeriesView + ?Sized> std::fmt::Debug for SpectraEngine<'a, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpectraEngine")
            .field("n", &self.n)
            .field("m", &self.plan.series_len())
            .field("channels", &self.channels)
            .field("threads", &self.threads)
            .finish()
    }
}

impl<'a> SpectraEngine<'a> {
    /// Validates `series` and builds the cache with `threads` workers
    /// (`0` = auto, see [`resolve_threads`]).
    ///
    /// # Errors
    ///
    /// [`tserror::TsError::EmptyInput`], [`tserror::TsError::LengthMismatch`],
    /// or [`tserror::TsError::NonFinite`] for malformed `series`.
    pub fn new(series: &'a [Vec<f64>], threads: usize) -> TsResult<Self> {
        let m = validate_series_set(series)?;
        Ok(Self::from_validated(series, m, resolve_threads(threads)))
    }

    /// Builds the cache for already-validated series of length `m`,
    /// transforming every series exactly once.
    pub(crate) fn from_validated(series: &'a [Vec<f64>], m: usize, threads: usize) -> Self {
        let plan = SbdPlan::new(m);
        let n = series.len();
        let workers = worker_count(threads, n);
        let mut spectra = Vec::with_capacity(n);
        if workers <= 1 {
            let mut scratch = Vec::new();
            spectra.extend(series.iter().map(|s| plan.prepare_with(s, &mut scratch)));
        } else {
            // Fixed contiguous chunks, joined back in chunk order: the
            // cache layout is independent of the worker count.
            let chunk = n.div_ceil(workers);
            let plan_ref = &plan;
            std::thread::scope(|scope| {
                let handles: Vec<_> = series
                    .chunks(chunk)
                    .map(|part| {
                        scope.spawn(move || {
                            let mut scratch = Vec::new();
                            part.iter()
                                .map(|s| plan_ref.prepare_with(s, &mut scratch))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for h in handles {
                    spectra.extend(h.join().expect("spectrum worker panicked"));
                }
            });
        }
        SpectraEngine {
            plan,
            view: series,
            n,
            channels: 1,
            spectra,
            threads,
        }
    }
}

impl<'a, V: SeriesView + ?Sized> SpectraEngine<'a, V> {
    /// Builds the cache over any [`SeriesView`] — the row-borrowing
    /// seam that lets contiguous and spilled [`SeriesStore`] tiers feed
    /// the same batched sweeps as nested `Vec<Vec<f64>>`.
    ///
    /// Rows are fetched through the view's borrow-or-copy contract
    /// (resident `f64` stores hand out direct slices; `f32`/spilled rows
    /// stage through a per-worker scratch) and validated for finiteness
    /// as they are transformed. Parallel preparation uses the same fixed
    /// contiguous chunking as the slice path, so spectra are
    /// bit-identical for every thread count and — for views that expose
    /// the same `f64` rows — bit-identical to [`SpectraEngine::new`].
    ///
    /// Multichannel views cache one half-spectrum **per channel** per
    /// series (channel-major, `n · channels` entries); every sweep then
    /// scores pairs with the summed per-channel NCC kernel
    /// ([`SbdPlan::sbd_spectra_multi`]), which dispatches to the plain
    /// univariate kernel when `channels = 1` — so single-channel views
    /// remain bit-identical to the pre-shape-redesign engine.
    ///
    /// # Errors
    ///
    /// [`tserror::TsError::EmptyInput`] for an empty view,
    /// [`tserror::TsError::NonFinite`] for a bad row,
    /// [`tserror::TsError::CorruptData`] from a spilled tier, or
    /// [`tserror::TsError::NumericalFailure`] for a ragged view (the
    /// cached-spectrum sweep needs one fixed length; ragged collections
    /// route through `kshape::fit_store`'s padded-plan path).
    ///
    /// [`SeriesStore`]: tsdata::store::SeriesStore
    pub fn from_view(view: &'a V, threads: usize) -> TsResult<Self> {
        let n = view.n_series();
        let m = view.series_len();
        let channels = view.channels();
        if n == 0 || m == 0 {
            return Err(TsError::EmptyInput);
        }
        if view.is_ragged() {
            return Err(TsError::NumericalFailure {
                context: "SpectraEngine requires fixed-length rows; \
                          ragged views route through fit_store"
                    .into(),
            });
        }
        let threads = resolve_threads(threads);
        let plan = SbdPlan::new(m);
        let workers = worker_count(threads, n);
        let prep_range = |lo: usize, hi: usize| -> TsResult<Vec<PreparedSeries>> {
            let mut rows = Vec::new();
            let mut scratch = Vec::new();
            let mut out = Vec::with_capacity((hi - lo) * channels);
            for i in lo..hi {
                let row = view.try_row(i, &mut rows)?;
                ensure_finite(row, i)?;
                for ch in row.chunks_exact(m) {
                    out.push(plan.prepare_with(ch, &mut scratch));
                }
            }
            Ok(out)
        };
        let mut spectra = Vec::with_capacity(n * channels);
        if workers <= 1 {
            spectra = prep_range(0, n)?;
        } else {
            let chunk = n.div_ceil(workers);
            let mut parts: Vec<TsResult<Vec<PreparedSeries>>> = Vec::with_capacity(workers);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n)
                    .step_by(chunk)
                    .map(|lo| {
                        let prep = &prep_range;
                        scope.spawn(move || prep(lo, (lo + chunk).min(n)))
                    })
                    .collect();
                for h in handles {
                    parts.push(h.join().expect("spectrum worker panicked"));
                }
            });
            // First error in chunk order wins, like serial validation.
            for part in parts {
                spectra.extend(part?);
            }
        }
        Ok(SpectraEngine {
            plan,
            view,
            n,
            channels,
            spectra,
            threads,
        })
    }

    /// The underlying row source.
    #[must_use]
    pub fn view(&self) -> &'a V {
        self.view
    }

    /// Number of cached series.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no series are cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The shared SBD plan (series length, padded FFT size).
    #[must_use]
    pub fn plan(&self) -> &SbdPlan {
        &self.plan
    }

    /// The effective worker count this engine was built with.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Worker chunks an `n`-item assignment sweep is split into (1 on the
    /// serial path) — telemetry material for `kshape.parallel.chunks`.
    #[must_use]
    pub fn chunk_count(&self) -> usize {
        worker_count(self.threads, self.n)
    }

    /// Collection-wide channel count the engine was built with.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The cached half-spectrum of series `i` (its first channel when
    /// the view is multichannel — see [`Self::spectra_of`]).
    #[must_use]
    pub fn spectrum(&self, i: usize) -> &PreparedSeries {
        &self.spectra[i * self.channels]
    }

    /// The per-channel cached half-spectra of series `i`
    /// (`channels` entries, channel-major).
    #[must_use]
    pub fn spectra_of(&self, i: usize) -> &[PreparedSeries] {
        &self.spectra[i * self.channels..(i + 1) * self.channels]
    }

    /// Batched assignment sweep: for every series, the SBD-nearest
    /// centroid of `bank` (built for this engine's length and channels).
    /// Writes each series' label, distance, and alignment shift to its
    /// slot and returns how many labels changed.
    ///
    /// Charges `ctrl` one `k·channels·m` unit per series, like the
    /// pairwise loop it replaces.
    ///
    /// # Errors
    ///
    /// The [`StopReason`] when the control trips mid-sweep (cancellation
    /// wins over other reasons when workers trip concurrently); the slots
    /// already written stay written.
    pub fn assign(
        &self,
        bank: &CentroidBank,
        labels: &mut [usize],
        dists: &mut [f64],
        shifts: &mut [isize],
        ctrl: &RunControl,
    ) -> Result<usize, StopReason> {
        let n = self.n;
        let pair_cost = bank.row_cost();
        let workers = worker_count(self.threads, n);
        if workers <= 1 {
            let mut scratch = SbdScratch::default();
            let mut changed = 0usize;
            for i in 0..n {
                let (best_j, best, best_shift) =
                    bank.nearest_prepared(self.spectra_of(i), &mut scratch);
                dists[i] = best;
                shifts[i] = best_shift;
                if best_j != labels[i] {
                    labels[i] = best_j;
                    changed += 1;
                }
                ctrl.charge(pair_cost)?;
            }
            return Ok(changed);
        }
        let chunk = n.div_ceil(workers);
        let mut changed_total = 0usize;
        let mut tripped: Vec<Option<StopReason>> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            let parts = labels
                .chunks_mut(chunk)
                .zip(dists.chunks_mut(chunk))
                .zip(shifts.chunks_mut(chunk));
            for (t, ((lc, dc), sc)) in parts.enumerate() {
                handles.push(scope.spawn(move || {
                    let mut scratch = SbdScratch::default();
                    let mut changed = 0usize;
                    for (o, ((lab, d), sh)) in lc
                        .iter_mut()
                        .zip(dc.iter_mut())
                        .zip(sc.iter_mut())
                        .enumerate()
                    {
                        let (best_j, best, best_shift) =
                            bank.nearest_prepared(self.spectra_of(t * chunk + o), &mut scratch);
                        *d = best;
                        *sh = best_shift;
                        if best_j != *lab {
                            *lab = best_j;
                            changed += 1;
                        }
                        if let Err(reason) = ctrl.charge(pair_cost) {
                            return (changed, Some(reason));
                        }
                    }
                    (changed, None)
                }));
            }
            for h in handles {
                let (c, r) = h.join().expect("assignment worker panicked");
                changed_total += c;
                tripped.push(r);
            }
        });
        match merge_reasons(&tripped) {
            Some(reason) => Err(reason),
            None => Ok(changed_total),
        }
    }

    /// Distances of every series to one prepared reference, written to
    /// `out` — the k-shape++ seeding sweep over cached spectra.
    /// Univariate only (seeding runs on the slice path, which always has
    /// `channels = 1`).
    pub(crate) fn distances_to(&self, reference: &PreparedSeries, out: &mut [f64]) {
        debug_assert_eq!(self.channels, 1, "seeding sweep is univariate");
        let n = self.n;
        let workers = worker_count(self.threads, n);
        if workers <= 1 {
            let mut scratch = SbdScratch::default();
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = self
                    .plan
                    .sbd_spectra(reference, &self.spectra[i], &mut scratch)
                    .0;
            }
            return;
        }
        let chunk = n.div_ceil(workers);
        std::thread::scope(|scope| {
            for (t, part) in out.chunks_mut(chunk).enumerate() {
                scope.spawn(move || {
                    let mut scratch = SbdScratch::default();
                    for (o, slot) in part.iter_mut().enumerate() {
                        *slot = self
                            .plan
                            .sbd_spectra(reference, &self.spectra[t * chunk + o], &mut scratch)
                            .0;
                    }
                });
            }
        });
    }

    /// Full pairwise SBD matrix (row-major `n × n`, symmetric, zero
    /// diagonal) over the cached spectra: each of the `n(n−1)/2` pairs
    /// costs one batched kernel instead of a fresh pair of FFTs.
    ///
    /// Rows are round-robin striped over workers (early rows hold more
    /// pairs); the lower triangle is mirrored on the calling thread, so
    /// the matrix is bit-identical for every thread count. Charges `ctrl`
    /// one `m` unit per pair, matching the [`tsdist::Distance::cost_hint`]
    /// of the pairwise SBD it replaces.
    ///
    /// # Errors
    ///
    /// [`tserror::TsError::Stopped`] when the control trips, with
    /// `iterations` = pairs completed (empty labels: a partial matrix has
    /// no labeling).
    pub fn try_matrix_with_control(&self, ctrl: &RunControl) -> TsResult<Vec<f64>> {
        let n = self.n;
        let pair_cost = self.plan.series_len() as u64;
        let mut data = vec![0.0f64; n * n];
        let workers = worker_count(self.threads, n);
        let mut done = 0usize;
        let mut tripped: Vec<Option<StopReason>> = Vec::with_capacity(workers.max(1));
        if workers <= 1 {
            let mut scratch = SbdScratch::default();
            for i in 0..n {
                for j in i + 1..n {
                    if let Err(reason) = ctrl.charge(pair_cost) {
                        return Err(RunControl::stop_error(Vec::new(), done, reason));
                    }
                    data[i * n + j] = self
                        .plan
                        .sbd_spectra_multi(self.spectra_of(i), self.spectra_of(j), &mut scratch)
                        .0;
                    done += 1;
                }
            }
        } else {
            let rows: Vec<&mut [f64]> = data.chunks_mut(n).collect();
            let counted = std::sync::atomic::AtomicUsize::new(0);
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(workers);
                for stripe in stripes(rows, workers) {
                    let counted = &counted;
                    handles.push(scope.spawn(move || -> Option<StopReason> {
                        let mut scratch = SbdScratch::default();
                        for (i, row) in stripe {
                            for (j, slot) in row.iter_mut().enumerate().skip(i + 1) {
                                if let Err(reason) = ctrl.charge(pair_cost) {
                                    return Some(reason);
                                }
                                *slot = self
                                    .plan
                                    .sbd_spectra_multi(
                                        self.spectra_of(i),
                                        self.spectra_of(j),
                                        &mut scratch,
                                    )
                                    .0;
                                counted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                        }
                        None
                    }));
                }
                for h in handles {
                    tripped.push(h.join().expect("matrix worker panicked"));
                }
            });
            done = counted.load(std::sync::atomic::Ordering::Relaxed);
        }
        if let Some(reason) = merge_reasons(&tripped) {
            return Err(RunControl::stop_error(Vec::new(), done, reason));
        }
        for i in 0..n {
            for j in i + 1..n {
                data[j * n + i] = data[i * n + j];
            }
        }
        Ok(data)
    }

    /// [`Self::try_matrix_with_control`] without execution control.
    #[must_use]
    pub fn matrix(&self) -> Vec<f64> {
        self.try_matrix_with_control(&RunControl::unlimited())
            .expect("unlimited control cannot trip")
    }
}

/// Convenience wrapper for callers without a standing engine (the
/// `tscluster` SBD-medoid ladder rung): builds the spectrum cache once
/// and returns the pairwise SBD matrix as a row-major `n × n` buffer.
///
/// # Errors
///
/// Input-validation errors from [`SpectraEngine::new`] plus
/// [`tserror::TsError::Stopped`] when `ctrl` trips.
pub fn try_sbd_matrix_with_control(
    series: &[Vec<f64>],
    threads: usize,
    ctrl: &RunControl,
) -> TsResult<Vec<f64>> {
    SpectraEngine::new(series, threads)?.try_matrix_with_control(ctrl)
}

/// Effective worker count for `items` independent slots.
fn worker_count(threads: usize, items: usize) -> usize {
    if threads <= 1 || items < MIN_PARALLEL_ITEMS {
        1
    } else {
        threads.min(items)
    }
}

/// First tripped reason in worker order, with cancellation dominating —
/// the same merge rule as the `tscluster` parallel matrix build.
fn merge_reasons(tripped: &[Option<StopReason>]) -> Option<StopReason> {
    tripped
        .iter()
        .flatten()
        .copied()
        .fold(None, |acc, r| match (acc, r) {
            (_, StopReason::Cancelled) => Some(StopReason::Cancelled),
            (None, r) => Some(r),
            (acc, _) => acc,
        })
}

/// Distributes `(index, row)` pairs round-robin over `k` stripes.
fn stripes<T>(rows: Vec<T>, k: usize) -> Vec<Vec<(usize, T)>> {
    let mut out: Vec<Vec<(usize, T)>> = (0..k).map(|_| Vec::new()).collect();
    for (i, r) in rows.into_iter().enumerate() {
        out[i % k].push((i, r));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::{resolve_threads, SpectraEngine};
    use crate::bank::CentroidBank;
    use crate::sbd::sbd;
    use tsrun::RunControl;

    fn bank(centroids: &[Vec<f64>]) -> CentroidBank {
        let mut bank = CentroidBank::fixed(centroids[0].len(), 1).unwrap();
        bank.load(centroids).unwrap();
        bank
    }

    fn toy_series(n: usize, m: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..m)
                    .map(|t| ((i * 7 + t) as f64 * 0.37).sin() + (i as f64) * 0.01)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn engine_matrix_matches_pairwise_sbd() {
        let series = toy_series(12, 24);
        let engine = SpectraEngine::new(&series, 1).expect("clean series");
        let mat = engine.matrix();
        for i in 0..12 {
            for j in 0..12 {
                let expect = if i == j {
                    0.0
                } else {
                    sbd(&series[i], &series[j]).dist
                };
                assert!(
                    (mat[i * 12 + j] - expect).abs() < 1e-12,
                    "({i},{j}): {} vs {expect}",
                    mat[i * 12 + j]
                );
            }
        }
    }

    #[test]
    fn matrix_is_bit_identical_across_thread_counts() {
        let series = toy_series(40, 32);
        let serial = SpectraEngine::new(&series, 1).unwrap().matrix();
        for threads in [2, 4, 7] {
            let par = SpectraEngine::new(&series, threads).unwrap().matrix();
            let a: Vec<u64> = serial.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = par.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "threads={threads}");
        }
    }

    /// Snapshot of one assignment sweep: labels, distance bits, shifts,
    /// and the changed count.
    type AssignSnapshot = (Vec<usize>, Vec<u64>, Vec<isize>, usize);

    #[test]
    fn assignment_is_bit_identical_across_thread_counts() {
        let series = toy_series(50, 32);
        let centroids = vec![series[0].clone(), series[25].clone(), series[49].clone()];
        let ctrl = RunControl::unlimited();
        let mut reference: Option<AssignSnapshot> = None;
        for threads in [1usize, 2, 4, 8] {
            let engine = SpectraEngine::new(&series, threads).unwrap();
            let cents = bank(&centroids);
            let mut labels = vec![0usize; 50];
            let mut dists = vec![0.0f64; 50];
            let mut shifts = vec![0isize; 50];
            let changed = engine
                .assign(&cents, &mut labels, &mut dists, &mut shifts, &ctrl)
                .expect("unlimited control");
            let bits: Vec<u64> = dists.iter().map(|v| v.to_bits()).collect();
            match &reference {
                None => reference = Some((labels, bits, shifts, changed)),
                Some((l, d, s, c)) => {
                    assert_eq!(&labels, l, "threads={threads}");
                    assert_eq!(&bits, d, "threads={threads}");
                    assert_eq!(&shifts, s, "threads={threads}");
                    assert_eq!(&changed, c, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn assignment_matches_pairwise_nearest() {
        let series = toy_series(20, 24);
        let centroids = vec![series[3].clone(), series[17].clone()];
        let engine = SpectraEngine::new(&series, 1).unwrap();
        let cents = bank(&centroids);
        let mut labels = vec![0usize; 20];
        let mut dists = vec![0.0f64; 20];
        let mut shifts = vec![0isize; 20];
        engine
            .assign(
                &cents,
                &mut labels,
                &mut dists,
                &mut shifts,
                &RunControl::unlimited(),
            )
            .unwrap();
        for i in 0..20 {
            let d0 = sbd(&centroids[0], &series[i]);
            let d1 = sbd(&centroids[1], &series[i]);
            let (expect_l, expect_d, expect_s) = if d1.dist < d0.dist {
                (1, d1.dist, d1.shift)
            } else {
                (0, d0.dist, d0.shift)
            };
            assert_eq!(labels[i], expect_l, "series {i}");
            assert!((dists[i] - expect_d).abs() < 1e-12, "series {i}");
            assert_eq!(shifts[i], expect_s, "series {i}");
        }
    }

    #[test]
    fn matrix_build_respects_cost_cap() {
        use tsrun::Budget;
        let series = toy_series(20, 16);
        let engine = SpectraEngine::new(&series, 1).unwrap();
        // Enough for a handful of pairs only.
        let ctrl = RunControl::from_parts(Some(Budget::unlimited().with_cost_cap(5 * 16)), None);
        let err = engine
            .try_matrix_with_control(&ctrl)
            .expect_err("cap must trip");
        assert!(matches!(err, tserror::TsError::Stopped { .. }), "{err:?}");
    }

    #[test]
    fn engine_validates_input() {
        use tserror::TsError;
        assert!(matches!(
            SpectraEngine::new(&[], 1),
            Err(TsError::EmptyInput)
        ));
        let ragged = vec![vec![1.0, 2.0], vec![1.0]];
        assert!(matches!(
            SpectraEngine::new(&ragged, 1),
            Err(TsError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn resolve_threads_honours_explicit_request() {
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(1), 1);
        // 0 = auto: positive, whatever the host reports.
        assert!(resolve_threads(0) >= 1);
    }
}
