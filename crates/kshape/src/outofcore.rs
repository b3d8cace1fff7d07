//! Out-of-core k-Shape: the Algorithm 3 refinement loop streamed over a
//! [`SeriesView`] row source — a spilled
//! [`SeriesStore`](tsdata::store::SeriesStore), an in-memory store, or a
//! plain `[Vec<f64>]` slice — with working memory independent of `n`.
//!
//! The in-memory fit ([`crate::KShape::fit_with`]) caches one packed
//! half-spectrum per series, so its footprint grows with the dataset. At
//! Figure-12 scale (`n` up to 10⁵–10⁶) that cache is exactly what no
//! longer fits, so this module trades the cache for recomputation and
//! *fuses* the two halves of each iteration:
//!
//! * the **assignment sweep** reads each row once (through the view's
//!   borrow-or-stage contract) and asks the iteration's [`CentroidBank`]
//!   for its SBD-nearest centroid — the bank FFTs the row on the fly into
//!   reused scratch slots — and, in the same touch, folds the row
//!   (aligned by the winning shift) into the new cluster's
//!   [`GramAccumulator`];
//! * the next **refinement** then extracts every centroid from those
//!   O(k·m²) accumulated Grams without revisiting a single row.
//!
//! One row pass per iteration, `O(k·m² + m)` working state, and the
//! spill window is the only thing standing between the fit and a dataset
//! bigger than RAM. Fixed-length, multichannel and ragged views share
//! this one loop: the bank hides how a row is prepared, compared and
//! aligned (a ragged row is compared with the max-length centroid frame
//! by the unequal-length SBD and placed into it at the winning offset).
//!
//! # Divergences from the in-memory fit
//!
//! The member sets, alignment shifts, and accumulation order match the
//! in-memory refinement exactly, so on clusters with at least `m`
//! members the extracted centroids are floating-point-identical to the
//! primal path. Three deliberate differences remain (see `DESIGN.md`
//! §10):
//!
//! * clusters with fewer than `m` members still use the primal `m×m`
//!   Gram here (the in-memory path switches to the `n×n` dual — same
//!   eigenvector, different rounding);
//! * a degenerate extraction keeps the previous centroid instead of
//!   falling back to the SBD-medoid (the medoid needs a full extra pass
//!   over the members);
//! * an empty cluster reseeds from the worst-served row, but the Grams
//!   of the *current* iteration were accumulated before the reseed, so
//!   the moved row is re-attributed one iteration later.
//!
//! All three are unreachable or benign on well-separated data; the
//! cross-checks in `tests/scale.rs` hold both paths to the same labels
//! there.

use tsdata::normalize::z_normalize;
use tsdata::store::SeriesView;
use tserror::{ensure_k, TsError, TsResult};
use tsobs::IterationEvent;
use tsrand::StdRng;
use tsrun::RunControl;

use crate::algorithm::{l2_delta_sq, KShapeOptions, KShapeResult};
use crate::bank::CentroidBank;
use crate::extraction::GramAccumulator;
use crate::init::{random_assignment, InitStrategy};
use crate::sbd::SbdScratch;

/// Clusters the rows of `view` into `k` groups with working memory
/// independent of the row count — the out-of-core counterpart of
/// [`crate::KShape::fit_with`].
///
/// Accepts any [`SeriesView`]: a resident or spilled
/// [`SeriesStore`](tsdata::store::SeriesStore) (either element width), a
/// `[Vec<f64>]` slice, a multichannel
/// [`ChannelView`](tsdata::store::ChannelView) (rows clustered under
/// summed per-channel NCC with one shared shift), or a variable-length
/// [`RaggedStore`](tsdata::store::RaggedStore) (rows compared to the
/// max-length centroid frame through the unequal-length SBD of paper
/// footnote 3). Budget, cancellation, and telemetry ride on the same
/// [`KShapeOptions`] as the in-memory fit; cost is charged at the same
/// `k·channels·m` rate per row so a deadline trips mid-sweep.
///
/// # Errors
///
/// * [`TsError::EmptyInput`] when the view holds no rows;
/// * [`TsError::InvalidK`] unless `1 <= k <= n`;
/// * [`TsError::NumericalFailure`] for
///   [`InitStrategy::PlusPlus`] — the k-shape++ seeding needs the full
///   in-memory spectrum cache, which is the one thing this path exists
///   to avoid — and for views reporting zero channels or combining
///   ragged rows with multiple channels;
/// * [`TsError::Stopped`] when the budget trips or the token cancels
///   (carrying the best labeling so far);
/// * [`TsError::CorruptData`] if a spilled segment fails validation
///   mid-stream.
pub fn fit_store<V: SeriesView + ?Sized>(
    view: &V,
    opts: &KShapeOptions<'_>,
) -> TsResult<KShapeResult> {
    let ctrl = opts.control();
    let obs = opts.obs();
    let cfg = &opts.config;
    let n = view.n_series();
    let m = view.series_len();
    if n == 0 || m == 0 {
        return Err(TsError::EmptyInput);
    }
    ensure_k(cfg.k, n)?;
    if !matches!(cfg.init, InitStrategy::Random) {
        return Err(TsError::NumericalFailure {
            context: "out-of-core k-Shape supports InitStrategy::Random only: \
                      k-shape++ seeding requires the in-memory spectrum cache"
                .into(),
        });
    }
    let mut bank = CentroidBank::for_view(view)?;
    let c = view.channels();
    let k = cfg.k;
    let fit_span = obs.span("kshape.ooc.fit");

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut labels = random_assignment(n, k, &mut rng);
    // Centroids are channel-major (`c·m` samples; a ragged frame is the
    // view's maximum length); each (cluster, channel) pair accumulates
    // its own `m×m` Gram because the shared winning shift aligns every
    // channel but the Rayleigh extraction is per channel.
    let mut centroids: Vec<Vec<f64>> = vec![vec![0.0; c * m]; k];
    let mut grams: Vec<GramAccumulator> = (0..k * c).map(|_| GramAccumulator::new(m)).collect();
    let mut dists = vec![0.0f64; n];

    // Every per-row buffer is hoisted out of the sweep: the row staging
    // area, the bank's scratch (which holds the row's prepared spectra),
    // and the aligned copy. The assignment loop below allocates nothing.
    let mut row_scratch: Vec<f64> = Vec::new();
    let mut sbd_scratch = SbdScratch::default();
    let mut aligned = vec![0.0f64; c * m];

    // Pass 0: fold every row, unaligned (a ragged row left-anchored in
    // the frame), into its initial cluster's Gram. The initial centroids
    // are all-zero, which skips alignment — the same rule the in-memory
    // first refinement applies.
    for (i, &label) in labels.iter().enumerate() {
        let row = view.try_row(i, &mut row_scratch)?;
        bank.align_into(row, 0, &mut aligned);
        for (ch, chunk) in aligned.chunks_exact(m).enumerate() {
            grams[label * c + ch].push_aligned(chunk);
        }
    }

    let mut iterations = 0usize;
    let mut converged = false;
    // Armed-only per-cluster squared centroid movement (see the
    // in-memory loop for the write-site accounting rationale).
    let mut deltas = if obs.is_armed() {
        Some(vec![0.0f64; k])
    } else {
        None
    };
    while iterations < cfg.max_iter {
        if let Err(reason) = ctrl.check_iteration(iterations) {
            return Err(RunControl::stop_error(labels, iterations, reason));
        }
        iterations += 1;
        if let Some(d) = deltas.as_deref_mut() {
            d.fill(0.0);
        }

        // ----- Refinement: extract centroids from the Grams. -----
        let refine_span = obs.span("kshape.ooc.refinement");
        for j in 0..k {
            if let Err(reason) = ctrl.poll() {
                return Err(RunControl::stop_error(labels, iterations - 1, reason));
            }
            let next = if grams[j * c].count() == 0 {
                // Re-seed an empty cluster with the row currently
                // worst-served by its own centroid.
                let worst = dists
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map_or(0, |(i, _)| i);
                labels[worst] = j;
                obs.counter("kshape.empty_cluster_reseeds", 1);
                let row = view.try_row(worst, &mut row_scratch)?;
                let z: Vec<f64> = row
                    .chunks_exact(row.len() / c)
                    .flat_map(z_normalize)
                    .collect();
                let mut seeded = vec![0.0; c * m];
                bank.align_into(&z, 0, &mut seeded);
                Some(seeded)
            } else {
                let mut parts: Vec<f64> = Vec::with_capacity(c * m);
                let mut complete = true;
                for gram in &grams[j * c..(j + 1) * c] {
                    let part = gram.extract(cfg.eigen);
                    if let Err(reason) = ctrl.charge((gram.count() * m + m * m) as u64) {
                        return Err(RunControl::stop_error(labels, iterations - 1, reason));
                    }
                    match part {
                        Some(v) => parts.extend_from_slice(&v),
                        None => complete = false,
                    }
                }
                // None = degenerate eigenvector (in any channel): keep
                // the previous centroid (the documented divergence from
                // the in-memory SBD-medoid fallback).
                complete.then_some(parts)
            };
            if let Some(next) = next {
                if let Some(d) = deltas.as_deref_mut() {
                    d[j] = l2_delta_sq(&centroids[j], &next);
                }
                centroids[j] = next;
            }
        }
        refine_span.end();

        // ----- Fused assignment sweep: one streaming row pass. -----
        let assign_span = obs.span("kshape.ooc.assignment");
        bank.load(&centroids)?;
        obs.counter("sbd.spectra.centroid_ffts", (k * c) as u64);
        for gram in &mut grams {
            gram.clear();
        }
        let mut changed = 0usize;
        for i in 0..n {
            if let Err(reason) = ctrl.charge(bank.row_cost()) {
                return Err(RunControl::stop_error(labels, iterations - 1, reason));
            }
            let row = view.try_row(i, &mut row_scratch)?;
            let (best_j, best, best_shift) = bank.nearest(row, &mut sbd_scratch);
            if labels[i] != best_j {
                changed += 1;
                labels[i] = best_j;
            }
            dists[i] = best;
            // The shift aligns the row toward the centroid, which is
            // exactly what the Gram it is about to join needs.
            bank.align_into(row, best_shift, &mut aligned);
            for (ch, chunk) in aligned.chunks_exact(m).enumerate() {
                grams[best_j * c + ch].push_aligned(chunk);
            }
        }
        obs.counter("sbd.spectra.series_ffts", (n * c) as u64);
        obs.counter("sbd.spectra.pair_sweeps", (n * k) as u64);
        assign_span.end();
        if obs.is_armed() {
            let inertia_now: f64 = dists.iter().map(|d| d * d).sum();
            let shift = deltas
                .as_deref()
                .map_or(f64::NAN, |d| d.iter().sum::<f64>().sqrt());
            obs.iteration(&IterationEvent {
                algorithm: "kshape-ooc",
                iter: iterations - 1,
                inertia: inertia_now,
                moved: changed,
                centroid_shift: shift,
            });
        }
        if changed == 0 {
            converged = true;
            break;
        }
    }
    obs.counter("kshape.iterations", iterations as u64);
    fit_span.end();
    ctrl.report_cost(obs);

    let inertia = dists.iter().map(|d| d * d).sum();
    Ok(KShapeResult {
        labels,
        centroids,
        iterations,
        converged,
        inertia,
    })
}

/// One streaming assignment sweep over `view`: per row, the SBD-nearest
/// of `centroids`, written to `labels[i]` / `dists[i]`. Returns how many
/// labels changed.
///
/// This is the standalone counterpart of the sweep inside [`fit_store`]
/// (no Gram accumulation) and the measured kernel of the `scale` bench
/// group: it never materializes a spectrum cache, so its footprint is
/// one prepared row regardless of `n`. Results are bit-identical to
/// [`crate::SpectraEngine`]'s cached `assign` on the same rows and
/// centroids.
///
/// Multichannel views dispatch through the summed per-channel NCC
/// (centroids must hold `channels·m` channel-major samples); ragged
/// views compare each native-length row to the max-length centroid
/// frame through the unequal-length SBD.
///
/// # Errors
///
/// * [`TsError::EmptyInput`] for no rows or no centroids;
/// * [`TsError::LengthMismatch`] when `labels`/`dists` lengths differ
///   from the row count, or a centroid's sample count differs from the
///   view's `channels·m`;
/// * [`TsError::NumericalFailure`] for views reporting zero channels or
///   combining ragged rows with multiple channels;
/// * [`TsError::CorruptData`] if a spilled segment fails validation
///   mid-stream.
pub fn assign_store<V: SeriesView + ?Sized>(
    view: &V,
    centroids: &[Vec<f64>],
    labels: &mut [usize],
    dists: &mut [f64],
) -> TsResult<usize> {
    let n = view.n_series();
    if n == 0 || view.series_len() == 0 || centroids.is_empty() {
        return Err(TsError::EmptyInput);
    }
    let mut bank = CentroidBank::for_view(view)?;
    for found in [labels.len(), dists.len()] {
        if found != n {
            return Err(TsError::LengthMismatch {
                expected: n,
                found,
                series: 0,
            });
        }
    }
    bank.load(centroids)?;
    let mut sbd_scratch = SbdScratch::default();
    let mut row_scratch: Vec<f64> = Vec::new();
    let mut changed = 0usize;
    for i in 0..n {
        let row = view.try_row(i, &mut row_scratch)?;
        let (best_j, best, _) = bank.nearest(row, &mut sbd_scratch);
        if labels[i] != best_j {
            changed += 1;
            labels[i] = best_j;
        }
        dists[i] = best;
    }
    Ok(changed)
}

#[cfg(test)]
mod tests {
    use super::{assign_store, fit_store};
    use crate::algorithm::{KShape, KShapeOptions};
    use crate::bank::CentroidBank;
    use crate::init::InitStrategy;
    use crate::spectra::SpectraEngine;
    use tsdata::normalize::z_normalize;
    use tsdata::store::{ChannelView, ElemType, RaggedStore, SeriesStore, SpillConfig};
    use tserror::TsError;
    use tsrun::RunControl;

    fn bump(m: usize, center: f64, width: f64) -> Vec<f64> {
        (0..m)
            .map(|i| (-((i as f64 - center) / width).powi(2)).exp())
            .collect()
    }

    /// Two clearly separated shape classes with per-member phase jitter
    /// (the same family as the in-memory algorithm tests).
    fn two_class_data() -> (Vec<Vec<f64>>, Vec<usize>) {
        let m = 64;
        let mut series = Vec::new();
        let mut truth = Vec::new();
        for j in 0..8 {
            let shift = j as f64 * 1.5 - 5.0;
            let a: Vec<f64> = (0..m)
                .map(|i| (-((i as f64 - 20.0 - shift) / 2.5).powi(2)).exp())
                .collect();
            let b: Vec<f64> = bump(m, 18.0 + shift, 6.0)
                .iter()
                .zip(bump(m, 42.0 + shift, 6.0).iter())
                .map(|(x, y)| x - y)
                .collect();
            series.push(z_normalize(&a));
            truth.push(0);
            series.push(z_normalize(&b));
            truth.push(1);
        }
        (series, truth)
    }

    fn agrees(labels: &[usize], truth: &[usize]) -> bool {
        let direct = labels.iter().zip(truth.iter()).all(|(a, b)| a == b);
        let flipped = labels.iter().zip(truth.iter()).all(|(a, b)| *a == 1 - *b);
        direct || flipped
    }

    #[test]
    fn recovers_two_shape_classes_from_a_slice_view() {
        let (series, truth) = two_class_data();
        let fit = fit_store(&series[..], &KShapeOptions::new(2).with_seed(7)).expect("clean");
        assert!(fit.converged);
        assert!(agrees(&fit.labels, &truth), "labels {:?}", fit.labels);
        assert!(fit.inertia.is_finite());
        for c in &fit.centroids {
            assert_eq!(c.len(), 64);
        }
    }

    #[test]
    fn resident_and_spilled_stores_produce_identical_fits() {
        let (series, _) = two_class_data();
        let resident = SeriesStore::from_rows(&series, ElemType::F64).expect("build");
        let dir = std::env::temp_dir().join(format!("ooc_fit_spill_{}", std::process::id()));
        let mut spilled = SeriesStore::spilled(
            64,
            ElemType::F64,
            SpillConfig::new(&dir)
                .rows_per_segment(3)
                .resident_segments(1),
        )
        .expect("spill tier");
        for row in &series {
            spilled.push_row(row).expect("push");
        }
        let opts = KShapeOptions::new(2).with_seed(7);
        let a = fit_store(&resident, &opts).expect("resident fit");
        let b = fit_store(&spilled, &opts).expect("spilled fit");
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.inertia.to_bits(), b.inertia.to_bits());
        assert_eq!(a.centroids, b.centroids);
        assert!(spilled.spill_stats().expect("stats").sealed_segments > 0);
    }

    #[test]
    fn matches_in_memory_truth_on_separable_data() {
        let (series, truth) = two_class_data();
        let opts = KShapeOptions::new(2).with_seed(7);
        let in_mem = KShape::fit_with(&series, &opts).expect("in-memory");
        let ooc = fit_store(&series[..], &opts).expect("out-of-core");
        assert!(agrees(&in_mem.labels, &truth));
        assert!(agrees(&ooc.labels, &truth));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (series, _) = two_class_data();
        let opts = KShapeOptions::new(2).with_seed(3);
        let a = fit_store(&series[..], &opts).expect("fit");
        let b = fit_store(&series[..], &opts).expect("fit");
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.inertia.to_bits(), b.inertia.to_bits());
    }

    #[test]
    fn k_equals_one_converges_trivially() {
        let (series, _) = two_class_data();
        let fit = fit_store(&series[..], &KShapeOptions::new(1).with_seed(1)).expect("fit");
        assert!(fit.labels.iter().all(|&l| l == 0));
        assert!(fit.converged);
    }

    #[test]
    fn typed_errors_for_bad_input() {
        let empty: Vec<Vec<f64>> = Vec::new();
        assert!(matches!(
            fit_store(&empty[..], &KShapeOptions::new(1)),
            Err(TsError::EmptyInput)
        ));
        let (series, _) = two_class_data();
        assert!(matches!(
            fit_store(&series[..], &KShapeOptions::new(series.len() + 1)),
            Err(TsError::InvalidK { .. })
        ));
        let pp = KShapeOptions::new(2).with_init(InitStrategy::PlusPlus);
        assert!(matches!(
            fit_store(&series[..], &pp),
            Err(TsError::NumericalFailure { .. })
        ));
    }

    #[test]
    fn stops_on_cancellation_with_best_labels() {
        use tsrun::CancelToken;
        let (series, _) = two_class_data();
        let token = CancelToken::new();
        token.cancel();
        let opts = KShapeOptions::new(2).with_cancel(token);
        let err = fit_store(&series[..], &opts).expect_err("cancelled");
        assert!(matches!(err, TsError::Stopped { .. }), "{err:?}");
    }

    #[test]
    fn assign_store_is_bit_identical_to_the_cached_engine_sweep() {
        let (series, _) = two_class_data();
        let centroids = vec![
            z_normalize(&series[0]),
            z_normalize(&series[1]),
            z_normalize(&series[5]),
        ];
        let n = series.len();

        let engine = SpectraEngine::new(&series, 1).expect("engine");
        let mut bank = CentroidBank::fixed(64, 1).expect("bank");
        bank.load(&centroids).expect("centroids");
        let mut labels_a = vec![0usize; n];
        let mut dists_a = vec![0.0f64; n];
        let mut shifts_a = vec![0isize; n];
        engine
            .assign(
                &bank,
                &mut labels_a,
                &mut dists_a,
                &mut shifts_a,
                &RunControl::unlimited(),
            )
            .expect("engine assign");

        let mut labels_b = vec![0usize; n];
        let mut dists_b = vec![0.0f64; n];
        let changed = assign_store(&series[..], &centroids, &mut labels_b, &mut dists_b)
            .expect("streaming assign");
        assert_eq!(labels_a, labels_b);
        for (a, b) in dists_a.iter().zip(dists_b.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(changed > 0);
    }

    #[test]
    fn one_channel_view_is_bit_identical_to_the_slice_path() {
        let (series, _) = two_class_data();
        let opts = KShapeOptions::new(2).with_seed(7);
        let a = fit_store(&series[..], &opts).expect("slice fit");
        let view = ChannelView::new(&series[..], 1).expect("view");
        let b = fit_store(&view, &opts).expect("channel-view fit");
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.inertia.to_bits(), b.inertia.to_bits());
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn three_channel_rows_cluster_end_to_end() {
        let (series, truth) = two_class_data();
        // Each row stacks its class shape three times channel-major, so
        // the summed per-channel NCC sees three consistent votes for
        // the same alignment.
        let rows: Vec<Vec<f64>> = series.iter().map(|s| s.repeat(3)).collect();
        let view = ChannelView::new(&rows[..], 3).expect("view");
        let opts = KShapeOptions::new(2).with_seed(7);
        let fit = fit_store(&view, &opts).expect("multichannel fit");
        assert!(agrees(&fit.labels, &truth), "labels {:?}", fit.labels);
        for c in &fit.centroids {
            assert_eq!(c.len(), 3 * 64);
        }
        // A fresh assignment sweep over the fitted centroids is a fixed
        // point of the converged fit.
        let mut labels = fit.labels.clone();
        let mut dists = vec![0.0f64; rows.len()];
        let changed = assign_store(&view, &fit.centroids, &mut labels, &mut dists).expect("assign");
        assert_eq!(changed, 0);
        assert_eq!(labels, fit.labels);
    }

    /// Two shape classes at native lengths 48..=62: a narrow bump versus
    /// a two-period sine, both z-normalized per row.
    fn ragged_two_class_data() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        for j in 0..8usize {
            let len = 48 + 2 * j;
            let a: Vec<f64> = (0..len)
                .map(|i| (-((i as f64 - 14.0 - 1.5 * j as f64) / 2.5).powi(2)).exp())
                .collect();
            let b: Vec<f64> = (0..len)
                .map(|i| (i as f64 * std::f64::consts::TAU * 2.0 / len as f64).sin())
                .collect();
            rows.push(z_normalize(&a));
            truth.push(0);
            rows.push(z_normalize(&b));
            truth.push(1);
        }
        (rows, truth)
    }

    #[test]
    fn ragged_rows_cluster_end_to_end() {
        let (rows, truth) = ragged_two_class_data();
        let store = RaggedStore::from_rows(&rows).expect("store");
        let opts = KShapeOptions::new(2).with_seed(7);
        let fit = fit_store(&store, &opts).expect("ragged fit");
        assert!(fit.converged);
        assert!(agrees(&fit.labels, &truth), "labels {:?}", fit.labels);
        for c in &fit.centroids {
            assert_eq!(c.len(), store.max_len());
        }
        let mut labels = fit.labels.clone();
        let mut dists = vec![0.0f64; rows.len()];
        let changed =
            assign_store(&store, &fit.centroids, &mut labels, &mut dists).expect("assign");
        assert_eq!(changed, 0);
    }

    #[test]
    fn ragged_resident_and_spilled_fits_are_bit_identical() {
        let (rows, _) = ragged_two_class_data();
        let resident = RaggedStore::from_rows(&rows).expect("resident");
        let dir = std::env::temp_dir().join(format!("ooc_ragged_spill_{}", std::process::id()));
        let mut spilled = RaggedStore::spilled(
            ElemType::F64,
            SpillConfig::new(&dir)
                .rows_per_segment(3)
                .resident_segments(1),
        )
        .expect("spill tier");
        for row in &rows {
            spilled.push_row(row).expect("push");
        }
        let opts = KShapeOptions::new(2).with_seed(7);
        let a = fit_store(&resident, &opts).expect("resident fit");
        let b = fit_store(&spilled, &opts).expect("spilled fit");
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.inertia.to_bits(), b.inertia.to_bits());
        assert_eq!(a.centroids, b.centroids);
        assert!(spilled.spill_stats().expect("stats").sealed_segments > 0);
    }

    #[test]
    fn assign_store_rejects_mismatched_buffers() {
        let (series, _) = two_class_data();
        let cents = vec![z_normalize(&series[0])];
        let mut labels = vec![0usize; 3];
        let mut dists = vec![0.0f64; series.len()];
        assert!(matches!(
            assign_store(&series[..], &cents, &mut labels, &mut dists),
            Err(TsError::LengthMismatch { .. })
        ));
        let mut labels = vec![0usize; series.len()];
        let bad_cents = vec![vec![0.0; 7]];
        assert!(matches!(
            assign_store(&series[..], &bad_cents, &mut labels, &mut dists),
            Err(TsError::LengthMismatch { .. })
        ));
    }
}
