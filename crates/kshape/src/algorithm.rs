//! The k-Shape clustering algorithm (Section 3.3, Algorithm 3).
//!
//! k-Shape is an iterative refinement procedure in the mold of k-means but
//! with SBD as the distance and shape extraction as the centroid method.
//! Every iteration:
//!
//! 1. **refinement** — each cluster centroid is recomputed with
//!    [`crate::extraction::shape_extraction`] against the previous
//!    centroid,
//! 2. **assignment** — every series moves to the cluster of its
//!    SBD-nearest centroid.
//!
//! Iteration stops when memberships stop changing or `max_iter` (100 in the
//! paper) is reached. Complexity per iteration is
//! `O(max{n·k·m·log m, n·m², k·m³})`, linear in the number of series `n`.

use tserror::{ensure_k, validate_series_set, StopReason, TsResult};
use tsobs::{IterationEvent, Obs, Recorder};
use tsrand::StdRng;
use tsrun::{Budget, CancelToken, RunControl};

use crate::bank::CentroidBank;
use crate::extraction::{extract_aligned, EigenMethod};
use crate::init::{plus_plus_assignment_spectra, random_assignment, InitStrategy};
use crate::spectra::{resolve_threads, SpectraEngine};

/// Configuration for a k-Shape run.
#[derive(Debug, Clone, Copy)]
pub struct KShapeConfig {
    /// Number of clusters to produce.
    pub k: usize,
    /// Maximum refinement iterations (the paper uses 100).
    pub max_iter: usize,
    /// RNG seed for the initial assignment.
    pub seed: u64,
    /// Initialization strategy.
    pub init: InitStrategy,
    /// Dominant-eigenvector method for shape extraction.
    pub eigen: EigenMethod,
    /// Worker threads for the batched sweeps: `0` = auto (the
    /// `KSHAPE_THREADS` environment variable, else the host parallelism).
    /// Results are bit-identical for every value — see
    /// [`crate::spectra`] for the determinism contract.
    pub threads: usize,
    /// Channels per series sample frame. `1` (the default) is the
    /// classic univariate fit. For `channels > 1` each input row holds
    /// `channels · m` samples channel-major (all of channel 0, then
    /// channel 1, …) and SBD becomes the summed per-channel NCC with one
    /// shared alignment shift; the fit routes through the shape-aware
    /// [`crate::outofcore::fit_store`] engine, which supports
    /// [`InitStrategy::Random`] only.
    pub channels: usize,
}

impl Default for KShapeConfig {
    fn default() -> Self {
        KShapeConfig {
            k: 2,
            max_iter: 100,
            seed: 0,
            init: InitStrategy::Random,
            eigen: EigenMethod::Full,
            threads: 0,
            channels: 1,
        }
    }
}

/// Unified options for [`KShape::fit_with`] — the single entry point
/// (the historical `fit` / `try_fit` / `try_fit_with_control` triplet
/// has been removed).
///
/// Algorithm knobs mirror [`KShapeConfig`]; execution control
/// ([`Budget`], [`CancelToken`]) and telemetry ([`Recorder`]) ride along
/// so call sites no longer choose between three function variants:
///
/// ```
/// use kshape::{KShape, KShapeOptions};
/// let series = vec![vec![0.0, 1.0, 0.0, -1.0], vec![1.0, 0.0, -1.0, 0.0]];
/// let opts = KShapeOptions::new(2).with_seed(7);
/// let fit = KShape::fit_with(&series, &opts).expect("clean input");
/// assert_eq!(fit.labels.len(), 2);
/// ```
#[derive(Clone, Default)]
pub struct KShapeOptions<'a> {
    /// Algorithm configuration (k, seed, iteration cap, init, eigen).
    pub config: KShapeConfig,
    /// Optional execution budget (deadline / iteration cap / cost cap).
    pub budget: Option<Budget>,
    /// Optional cooperative cancellation token.
    pub cancel: Option<CancelToken>,
    /// Optional telemetry recorder; `None` keeps the hot loop disarmed.
    pub recorder: Option<&'a dyn Recorder>,
}

impl std::fmt::Debug for KShapeOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KShapeOptions")
            .field("config", &self.config)
            .field("budget", &self.budget)
            .field("cancel", &self.cancel)
            .field("recorder", &self.recorder.is_some())
            .finish()
    }
}

impl From<KShapeConfig> for KShapeOptions<'_> {
    fn from(config: KShapeConfig) -> Self {
        KShapeOptions {
            config,
            ..KShapeOptions::default()
        }
    }
}

impl<'a> KShapeOptions<'a> {
    /// Default options for `k` clusters.
    #[must_use]
    pub fn new(k: usize) -> Self {
        KShapeOptions::from(KShapeConfig {
            k,
            ..KShapeConfig::default()
        })
    }

    /// Sets the RNG seed for the initial assignment.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the refinement iteration cap.
    #[must_use]
    pub fn with_max_iter(mut self, max_iter: usize) -> Self {
        self.config.max_iter = max_iter;
        self
    }

    /// Sets the initialization strategy.
    #[must_use]
    pub fn with_init(mut self, init: InitStrategy) -> Self {
        self.config.init = init;
        self
    }

    /// Sets the dominant-eigenvector method for shape extraction.
    #[must_use]
    pub fn with_eigen(mut self, eigen: EigenMethod) -> Self {
        self.config.eigen = eigen;
        self
    }

    /// Sets the worker-thread count for the batched sweeps (`0` = auto).
    /// The fit is bit-identical for every value.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Sets the channel count per series (see
    /// [`KShapeConfig::channels`]). Rows must hold `channels · m`
    /// channel-major samples.
    #[must_use]
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.config.channels = channels;
        self
    }

    /// Attaches an execution budget.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Attaches a cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Attaches a telemetry recorder.
    #[must_use]
    pub fn with_recorder(mut self, recorder: &'a dyn Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Arms a [`RunControl`] from the budget/cancel fields.
    #[must_use]
    pub fn control(&self) -> RunControl {
        RunControl::from_parts(self.budget, self.cancel.clone())
    }

    /// The observability handle for this run.
    #[must_use]
    pub fn obs(&self) -> Obs<'a> {
        Obs::from_option(self.recorder)
    }
}

/// The outcome of a k-Shape run.
#[derive(Debug, Clone)]
pub struct KShapeResult {
    /// Cluster index per input series.
    pub labels: Vec<usize>,
    /// One z-normalized centroid per cluster.
    pub centroids: Vec<Vec<f64>>,
    /// Iterations executed before convergence or the cap.
    pub iterations: usize,
    /// Whether memberships converged before `max_iter`.
    pub converged: bool,
    /// Final sum of squared SBD distances of members to their centroids
    /// (the Equation 1 objective under SBD).
    pub inertia: f64,
}

/// The k-Shape clustering algorithm.
#[derive(Debug, Clone)]
pub struct KShape {
    config: KShapeConfig,
}

impl KShape {
    /// Creates a k-Shape instance with the given configuration.
    #[must_use]
    pub fn new(config: KShapeConfig) -> Self {
        KShape { config }
    }

    /// Convenience constructor with default settings.
    #[must_use]
    pub fn with_k(k: usize) -> Self {
        KShape::new(KShapeConfig {
            k,
            ..Default::default()
        })
    }

    /// Borrow the configuration.
    #[must_use]
    pub fn config(&self) -> &KShapeConfig {
        &self.config
    }

    /// Clusters `series` under a unified options object (Algorithm 3) —
    /// the single entry point (the historical `fit` / `try_fit` /
    /// `try_fit_with_control` triplet has been removed).
    ///
    /// Hitting the iteration cap is *not* an error: the returned
    /// [`KShapeResult`] carries `converged: false` and the best-effort
    /// labeling.
    ///
    /// With [`KShapeConfig::channels`]` > 1` each row holds
    /// `channels · m` channel-major samples and the fit runs through the
    /// shape-aware out-of-core engine under the summed per-channel NCC.
    ///
    /// # Errors
    ///
    /// * [`TsError::EmptyInput`], [`TsError::LengthMismatch`], or
    ///   [`TsError::NonFinite`] for malformed `series` (for multichannel
    ///   fits, a row length not divisible by `channels` is a
    ///   [`TsError::LengthMismatch`]);
    /// * [`TsError::InvalidK`] unless `1 <= k <= series.len()`;
    /// * [`TsError::NumericalFailure`] for a multichannel fit with an
    ///   initialization other than [`InitStrategy::Random`];
    /// * [`TsError::Stopped`] when the options' budget trips or the
    ///   token is cancelled (carrying the best labeling so far).
    pub fn fit_with(series: &[Vec<f64>], opts: &KShapeOptions<'_>) -> TsResult<KShapeResult> {
        if opts.config.channels != 1 {
            validate_series_set(series)?;
            let view = tsdata::store::ChannelView::new(series, opts.config.channels)?;
            return crate::outofcore::fit_store(&view, opts);
        }
        let ctrl = opts.control();
        let obs = opts.obs();
        let (result, _shifted) = KShape::new(opts.config).fit_core(series, &ctrl, obs)?;
        ctrl.report_cost(obs);
        Ok(result)
    }

    /// Validated k-Shape refinement loop behind [`KShape::fit_with`].
    /// Returns the result plus the number of series that changed cluster
    /// in the final iteration (0 when converged).
    ///
    /// Telemetry contract: everything recorded through `obs` is
    /// read-only — an armed recorder never changes labels, centroids, or
    /// iteration counts (`tests/observability.rs` enforces this against
    /// the golden hashes).
    pub(crate) fn fit_core(
        &self,
        series: &[Vec<f64>],
        ctrl: &RunControl,
        obs: Obs<'_>,
    ) -> TsResult<(KShapeResult, usize)> {
        let cfg = &self.config;
        let n = series.len();
        let m = validate_series_set(series)?;
        ensure_k(cfg.k, n)?;
        let fit_span = obs.span("kshape.fit");

        // Spectrum cache: every series is FFT'd exactly once per fit; all
        // SBD work below consumes the cached half-spectra.
        let threads = resolve_threads(cfg.threads);
        let engine = SpectraEngine::from_validated(series, m, threads);
        obs.counter("sbd.spectra.series_ffts", n as u64);
        obs.counter("kshape.parallel.threads", threads as u64);
        obs.counter("kshape.parallel.chunks", engine.chunk_count() as u64);

        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut labels = match cfg.init {
            InitStrategy::Random => random_assignment(n, cfg.k, &mut rng),
            InitStrategy::PlusPlus => plus_plus_assignment_spectra(&engine, cfg.k, &mut rng),
        };
        let mut centroids: Vec<Vec<f64>> = vec![vec![0.0; m]; cfg.k];
        let mut bank = CentroidBank::fixed(m, 1)?;

        let mut iterations = 0;
        let mut converged = false;
        let mut dists = vec![0.0f64; n];
        // Per-series alignment shift toward its nearest centroid, written
        // by the assignment sweep. The next refinement reuses it instead
        // of re-running SBD per member: the shift was computed against
        // exactly the centroid that refinement aligns the member to.
        let mut shifts = vec![0isize; n];
        let mut shifted = 0usize;
        // Armed-only: per-cluster squared centroid movement, filled in at
        // each centroid write so the iteration event can report how far
        // the centroids moved without snapshotting (cloning) the full set.
        let mut deltas = if obs.is_armed() {
            Some(vec![0.0f64; cfg.k])
        } else {
            None
        };
        while iterations < cfg.max_iter {
            // Outer-loop poll point: cancellation, deadline, and the
            // budget's own iteration cap (independent of cfg.max_iter).
            if let Err(reason) = ctrl.check_iteration(iterations) {
                return Err(RunControl::stop_error(labels, iterations, reason));
            }
            iterations += 1;

            // ----- Refinement step: recompute centroids. -----
            let refine_span = obs.span("kshape.refinement");
            if let Err(reason) = self.refine(
                &engine,
                series,
                &mut labels,
                &mut centroids,
                &dists,
                &shifts,
                deltas.as_deref_mut(),
                ctrl,
                obs,
            ) {
                return Err(RunControl::stop_error(labels, iterations - 1, reason));
            }
            refine_span.end();

            // ----- Assignment step: move to nearest centroid. -----
            // One conjugate-multiply + inverse rFFT per (series, centroid)
            // pair over the cached spectra; each centroid is transformed
            // exactly once per iteration.
            let assign_span = obs.span("kshape.assignment");
            bank.load(&centroids)?;
            obs.counter("sbd.spectra.centroid_ffts", cfg.k as u64);
            let changed = match engine.assign(&bank, &mut labels, &mut dists, &mut shifts, ctrl) {
                Ok(changed) => changed,
                Err(reason) => return Err(RunControl::stop_error(labels, iterations - 1, reason)),
            };
            obs.counter("sbd.spectra.pair_sweeps", (n * cfg.k) as u64);
            assign_span.end();
            shifted = changed;
            if obs.is_armed() {
                // All armed-only reads: nothing here feeds back into the
                // refinement state.
                let inertia_now: f64 = dists.iter().map(|d| d * d).sum();
                // Summing the per-cluster write-site deltas in ascending
                // cluster order reproduces the historical clone-and-diff
                // telemetry bit for bit.
                let shift = deltas
                    .as_deref()
                    .map_or(f64::NAN, |d| d.iter().sum::<f64>().sqrt());
                obs.iteration(&IterationEvent {
                    algorithm: "kshape",
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

        let inertia = dists.iter().map(|d| d * d).sum();
        Ok((
            KShapeResult {
                labels,
                centroids,
                iterations,
                converged,
                inertia,
            },
            shifted,
        ))
    }

    /// One refinement pass: recompute every cluster centroid via shape
    /// extraction, reusing the alignment shifts found by the previous
    /// assignment sweep, and reseed empty clusters.
    ///
    /// The serial path keeps the historical interleaving (poll → members →
    /// reseed-or-extract → charge, cluster by cluster). The parallel path
    /// splits it in two: a sequential pass snapshots member lists and
    /// performs reseeds in ascending cluster order (reseeds only touch
    /// *empty* clusters, disjoint from every extraction target, so the
    /// snapshots equal the serial path's), then extractions run on worker
    /// threads writing disjoint `centroids[j]` slots, and costs are
    /// charged in cluster order after the join. Non-tripped runs are
    /// bit-identical across thread counts; only the budget-trip
    /// granularity is coarser in parallel.
    #[allow(clippy::too_many_arguments)]
    fn refine(
        &self,
        engine: &SpectraEngine<'_>,
        series: &[Vec<f64>],
        labels: &mut [usize],
        centroids: &mut [Vec<f64>],
        dists: &[f64],
        shifts: &[isize],
        mut deltas: Option<&mut [f64]>,
        ctrl: &RunControl,
        obs: Obs<'_>,
    ) -> Result<(), StopReason> {
        let cfg = &self.config;
        let m = series[0].len();
        let k = cfg.k;
        // Shape extraction builds and decomposes a Gram matrix — an
        // expensive indivisible step, so poll before each cluster and
        // charge its O(m)-per-member + O(m²) cost after.
        if engine.threads() <= 1 || k < 2 {
            for j in 0..k {
                ctrl.poll()?;
                match refinement_task(
                    j,
                    series,
                    labels,
                    centroids,
                    dists,
                    shifts,
                    deltas.as_deref_mut(),
                    obs,
                ) {
                    None => continue,
                    Some((members, member_shifts)) => {
                        let members_len = members.len();
                        let next = extract_aligned(
                            &members,
                            member_shifts.as_deref(),
                            cfg.eigen,
                            engine.plan(),
                        );
                        if let Some(d) = deltas.as_deref_mut() {
                            d[j] = l2_delta_sq(&centroids[j], &next);
                        }
                        centroids[j] = next;
                        ctrl.charge((members_len * m + m * m) as u64)?;
                    }
                }
            }
            return Ok(());
        }
        // Pass A (sequential): reseeds and member-list snapshots, in the
        // exact order the serial path would visit them.
        let mut tasks: Vec<(usize, RefinementTask<'_>)> = Vec::with_capacity(k);
        for j in 0..k {
            ctrl.poll()?;
            if let Some(task) = refinement_task(
                j,
                series,
                labels,
                centroids,
                dists,
                shifts,
                deltas.as_deref_mut(),
                obs,
            ) {
                tasks.push((j, task));
            }
        }
        // Pass B (parallel): extractions striped round-robin over workers,
        // each writing its own cluster's centroid; collected in task order.
        let workers = engine.threads().min(tasks.len().max(1));
        let mut extracted: Vec<Vec<(usize, usize, Vec<f64>)>> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let tasks = &tasks;
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        tasks
                            .iter()
                            .skip(w)
                            .step_by(workers)
                            .map(|(j, (members, member_shifts))| {
                                let c = extract_aligned(
                                    members,
                                    member_shifts.as_deref(),
                                    cfg.eigen,
                                    engine.plan(),
                                );
                                (*j, members.len(), c)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                extracted.push(h.join().expect("refinement worker panicked"));
            }
        });
        let mut charges: Vec<(usize, u64)> = Vec::with_capacity(tasks.len());
        for (j, members_len, centroid) in extracted.into_iter().flatten() {
            if let Some(d) = deltas.as_deref_mut() {
                d[j] = l2_delta_sq(&centroids[j], &centroid);
            }
            centroids[j] = centroid;
            charges.push((j, (members_len * m + m * m) as u64));
        }
        charges.sort_unstable_by_key(|&(j, _)| j);
        for (_, cost) in charges {
            ctrl.charge(cost)?;
        }
        Ok(())
    }
}

/// One cluster's pending extraction: the member slices plus their cached
/// alignment shifts (`None` for an all-zero centroid, which skips
/// alignment).
type RefinementTask<'s> = (Vec<&'s [f64]>, Option<Vec<isize>>);

/// The refinement work for cluster `j`: `None` when the cluster was empty
/// (reseeded in place, historical side effects preserved), otherwise the
/// member snapshot plus their cached alignment shifts (`None` shifts for an
/// all-zero centroid — the initial state — which skips alignment).
#[allow(clippy::too_many_arguments)]
fn refinement_task<'s>(
    j: usize,
    series: &'s [Vec<f64>],
    labels: &mut [usize],
    centroids: &mut [Vec<f64>],
    dists: &[f64],
    shifts: &[isize],
    deltas: Option<&mut [f64]>,
    obs: Obs<'_>,
) -> Option<RefinementTask<'s>> {
    let idx: Vec<usize> = labels
        .iter()
        .enumerate()
        .filter(|&(_, &l)| l == j)
        .map(|(i, _)| i)
        .collect();
    if idx.is_empty() {
        // Re-seed an empty cluster with the series that is currently
        // worst-served by its own centroid.
        let worst = dists
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(i, _)| i);
        labels[worst] = j;
        let next = tsdata::normalize::z_normalize(&series[worst]);
        if let Some(d) = deltas {
            d[j] = l2_delta_sq(&centroids[j], &next);
        }
        centroids[j] = next;
        obs.counter("kshape.empty_cluster_reseeds", 1);
        return None;
    }
    let members: Vec<&[f64]> = idx.iter().map(|&i| series[i].as_slice()).collect();
    // An all-zero centroid (the k-Shape initial state, or a degenerate
    // z-normalization) skips alignment, as the reference implementation
    // does; otherwise the assignment sweep's shifts align members toward
    // exactly this centroid.
    let member_shifts = centroids[j]
        .iter()
        .any(|&v| v != 0.0)
        .then(|| idx.iter().map(|&i| shifts[i]).collect::<Vec<isize>>());
    Some((members, member_shifts))
}

/// Squared L2 distance between one cluster's outgoing and incoming
/// centroid — telemetry only, computed exclusively on the armed path at
/// each centroid write. Each cluster is written exactly once per
/// refinement pass, so summing these per-cluster values in ascending
/// cluster order and taking the square root reproduces the historical
/// clone-the-whole-set-and-diff shift value bit for bit.
pub(crate) fn l2_delta_sq(prev: &[f64], next: &[f64]) -> f64 {
    prev.iter()
        .zip(next.iter())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::{KShape, KShapeConfig, KShapeOptions, KShapeResult};
    use crate::extraction::EigenMethod;
    use crate::init::InitStrategy;
    use tsdata::normalize::z_normalize;

    fn bump(m: usize, center: f64, width: f64) -> Vec<f64> {
        (0..m)
            .map(|i| (-((i as f64 - center) / width).powi(2)).exp())
            .collect()
    }

    /// Two shape classes — a narrow early bump and a wide double bump —
    /// with per-member phase jitter.
    fn two_class_data() -> (Vec<Vec<f64>>, Vec<usize>) {
        let m = 64;
        let mut series = Vec::new();
        let mut truth = Vec::new();
        for j in 0..6 {
            let shift = j as f64 * 2.0 - 5.0;
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

    fn fit(cfg: KShapeConfig, series: &[Vec<f64>]) -> KShapeResult {
        KShape::fit_with(series, &KShapeOptions::from(cfg)).expect("clean input")
    }

    fn fit_k(k: usize, series: &[Vec<f64>]) -> KShapeResult {
        KShape::fit_with(series, &KShapeOptions::new(k)).expect("clean input")
    }

    fn cluster_agreement(result: &KShapeResult, truth: &[usize]) -> bool {
        // Check whether labels equal truth up to cluster renaming (k=2).
        let direct = result.labels.iter().zip(truth.iter()).all(|(a, b)| a == b);
        let flipped = result
            .labels
            .iter()
            .zip(truth.iter())
            .all(|(a, b)| *a == 1 - *b);
        direct || flipped
    }

    #[test]
    fn recovers_two_shape_classes() {
        let (series, truth) = two_class_data();
        let result = fit(
            KShapeConfig {
                k: 2,
                seed: 7,
                ..Default::default()
            },
            &series,
        );
        assert!(result.converged, "did not converge");
        assert!(
            cluster_agreement(&result, &truth),
            "labels {:?} vs truth {truth:?}",
            result.labels
        );
    }

    #[test]
    fn result_invariants() {
        let (series, _) = two_class_data();
        let result = fit_k(2, &series);
        assert_eq!(result.labels.len(), series.len());
        assert_eq!(result.centroids.len(), 2);
        assert!(result.labels.iter().all(|&l| l < 2));
        assert!(result.inertia >= 0.0);
        assert!(result.iterations >= 1);
        for c in &result.centroids {
            assert_eq!(c.len(), 64);
            let mean: f64 = c.iter().sum::<f64>() / 64.0;
            assert!(mean.abs() < 1e-9, "centroid not centered");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (series, _) = two_class_data();
        let a = fit(
            KShapeConfig {
                k: 2,
                seed: 3,
                ..Default::default()
            },
            &series,
        );
        let b = fit(
            KShapeConfig {
                k: 2,
                seed: 3,
                ..Default::default()
            },
            &series,
        );
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn k_equals_n_puts_every_series_alone() {
        let (series, _) = two_class_data();
        let n = series.len();
        let result = fit(
            KShapeConfig {
                k: n,
                seed: 1,
                ..Default::default()
            },
            &series,
        );
        let mut sorted = result.labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), n, "expected n singleton clusters");
        assert!(result.inertia < 1e-9);
    }

    #[test]
    fn k_equals_one_is_single_cluster() {
        let (series, _) = two_class_data();
        let result = fit_k(1, &series);
        assert!(result.labels.iter().all(|&l| l == 0));
        assert!(result.converged);
    }

    #[test]
    fn plus_plus_init_also_recovers_classes() {
        let (series, truth) = two_class_data();
        let result = fit(
            KShapeConfig {
                k: 2,
                seed: 11,
                init: InitStrategy::PlusPlus,
                ..Default::default()
            },
            &series,
        );
        assert!(cluster_agreement(&result, &truth));
    }

    #[test]
    fn power_eigen_matches_full_on_easy_data() {
        let (series, truth) = two_class_data();
        let result = fit(
            KShapeConfig {
                k: 2,
                seed: 7,
                eigen: EigenMethod::Power,
                ..Default::default()
            },
            &series,
        );
        assert!(cluster_agreement(&result, &truth));
    }

    #[test]
    fn max_iter_one_terminates_unconverged_or_lucky() {
        let (series, _) = two_class_data();
        let result = fit(
            KShapeConfig {
                k: 2,
                seed: 5,
                max_iter: 1,
                ..Default::default()
            },
            &series,
        );
        assert_eq!(result.iterations, 1);
    }

    #[test]
    fn fit_with_is_deterministic_for_fixed_seed() {
        let (series, _) = two_class_data();
        let cfg = KShapeConfig {
            k: 2,
            seed: 7,
            ..Default::default()
        };
        let a = fit(cfg, &series);
        let b = fit(cfg, &series);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.inertia.to_bits(), b.inertia.to_bits());
    }

    #[test]
    fn fit_with_returns_unconverged_result_instead_of_error() {
        let (series, _) = two_class_data();
        let opts = KShapeOptions::new(2).with_seed(5).with_max_iter(0);
        let fit = KShape::fit_with(&series, &opts).expect("cap is not an error");
        assert!(!fit.converged);
        assert_eq!(fit.iterations, 0);
        assert_eq!(fit.labels.len(), series.len());
    }

    #[test]
    fn fit_with_reports_typed_errors() {
        use tserror::TsError;
        let opts = KShapeOptions::new(3);
        assert!(matches!(
            KShape::fit_with(&[], &opts),
            Err(TsError::EmptyInput)
        ));
        assert!(matches!(
            KShape::fit_with(&[vec![1.0, 2.0], vec![2.0, 1.0]], &opts),
            Err(TsError::InvalidK { k: 3, n: 2 })
        ));
        assert!(matches!(
            KShape::fit_with(&[vec![1.0, 2.0], vec![1.0]], &KShapeOptions::new(1)),
            Err(TsError::LengthMismatch {
                expected: 2,
                found: 1,
                series: 1
            })
        ));
        assert!(matches!(
            KShape::fit_with(&[vec![1.0, f64::NAN]], &KShapeOptions::new(1)),
            Err(TsError::NonFinite {
                series: 0,
                index: 1
            })
        ));
    }

    #[test]
    fn fit_with_channels_clusters_channel_major_rows() {
        let (series, truth) = two_class_data();
        let rows: Vec<Vec<f64>> = series.iter().map(|s| s.repeat(2)).collect();
        let opts = KShapeOptions::new(2).with_seed(7).with_channels(2);
        let fit = KShape::fit_with(&rows, &opts).expect("multichannel fit");
        let direct = fit.labels.iter().zip(truth.iter()).all(|(a, b)| a == b);
        let flipped = fit
            .labels
            .iter()
            .zip(truth.iter())
            .all(|(a, b)| *a == 1 - *b);
        assert!(direct || flipped, "labels {:?}", fit.labels);
        for c in &fit.centroids {
            assert_eq!(c.len(), 2 * 64);
        }
        // A row length not divisible by the channel count is a typed error.
        let bad = vec![vec![0.0; 63]; 4];
        assert!(matches!(
            KShape::fit_with(&bad, &KShapeOptions::new(2).with_channels(2)),
            Err(tserror::TsError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn fit_with_stops_on_cancellation() {
        use tsrun::CancelToken;
        let (series, _) = two_class_data();
        let token = CancelToken::new();
        token.cancel();
        let opts = KShapeOptions::new(2).with_cancel(token);
        let err = KShape::fit_with(&series, &opts).expect_err("cancelled up front");
        assert!(matches!(err, tserror::TsError::Stopped { .. }), "{err:?}");
    }

    #[test]
    fn fit_with_emits_convergence_telemetry() {
        let (series, _) = two_class_data();
        let sink = tsobs::MemorySink::new();
        // A (huge) cost cap arms the control's cost accounting; a fully
        // passive control skips the counter entirely.
        let opts = KShapeOptions::new(2)
            .with_seed(7)
            .with_budget(tsrun::Budget::unlimited().with_cost_cap(u64::MAX))
            .with_recorder(&sink);
        let fit = KShape::fit_with(&series, &opts).expect("clean data");

        let iters = sink.iteration_events();
        assert_eq!(iters.len(), fit.iterations);
        assert!(iters.iter().all(|e| e.algorithm == "kshape"));
        assert!(iters.iter().all(|e| e.inertia.is_finite()));
        assert!(iters.iter().all(|e| e.centroid_shift.is_finite()));
        // Converged: the last iteration moved nothing and its inertia is
        // the result's inertia.
        let last = iters.last().expect("at least one iteration");
        assert_eq!(last.moved, 0);
        assert_eq!(last.inertia.to_bits(), fit.inertia.to_bits());

        assert_eq!(sink.span_count("kshape.fit"), 1);
        assert_eq!(sink.span_count("kshape.refinement"), fit.iterations);
        assert_eq!(sink.span_count("kshape.assignment"), fit.iterations);
        assert_eq!(
            sink.counter_total("kshape.iterations"),
            fit.iterations as u64
        );
        assert!(sink.counter_total(tsrun::COST_COUNTER) > 0);
    }

    #[test]
    fn armed_recorder_never_changes_the_fit() {
        let (series, _) = two_class_data();
        let plain = KShape::fit_with(&series, &KShapeOptions::new(2).with_seed(3)).expect("clean");
        let sink = tsobs::MemorySink::new();
        let armed = KShape::fit_with(
            &series,
            &KShapeOptions::new(2).with_seed(3).with_recorder(&sink),
        )
        .expect("clean");
        assert_eq!(plain.labels, armed.labels);
        assert_eq!(plain.iterations, armed.iterations);
        assert_eq!(plain.centroids, armed.centroids);
        assert_eq!(plain.inertia.to_bits(), armed.inertia.to_bits());
        assert!(!sink.is_empty());
    }
}
