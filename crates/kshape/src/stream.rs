//! Online k-Shape over an unbounded, dirty, drifting feed.
//!
//! The paper's shape extraction (§3.2) builds each centroid from the
//! matrix `M = Qᵀ S Q` where `S = Σᵣ xᵣ xᵣᵀ` accumulates **additively**
//! over the cluster's aligned members — exactly the sufficient statistic
//! an online variant needs. [`StreamKShape`] exploits that:
//!
//! * **Assign immediately.** Each arrival is z-normalized and assigned to
//!   its nearest centroid by the engine's [`CentroidBank`] — one FFT per
//!   arrival channel into reused scratch, centroid spectra cached across
//!   arrivals and re-prepared only when a centroid changes.
//! * **Fold into sufficient statistics.** The aligned arrival is folded
//!   into its cluster's `S` matrix by a rank-one update, under one of
//!   three [`Decay`] variants: append-only (all history, equal weight),
//!   exponential (recent history dominates), or windowed (exact sliding
//!   window, old rows subtracted back out).
//! * **Refresh on a mini-batch cadence.** Every `refresh_every` accepted
//!   arrivals the centroids are re-extracted from the accumulated
//!   statistics — the dominant eigenvector of each cluster's `S` (already
//!   row-centered, so `M` itself) — under an optional [`Budget`]; a
//!   tripped budget keeps the previous centroids rather than erroring.
//! * **Detect drift, self-heal.** The squared assignment distances feed a
//!   short/long trend ring; when the short-window median exceeds
//!   `threshold ×` the long-window median at a refresh point, the engine
//!   arms an evidence countdown and — once the recent window is
//!   post-change — re-fits through a pluggable [`Reseeder`] (default:
//!   best-of-3 batch k-Shape under [`tsrun::retry_with_reseed`];
//!   `tscluster` provides a degradation-ladder implementation), then
//!   rebuilds statistics and baseline so one drift event triggers
//!   exactly one reseed.
//!
//! # Robustness contract
//!
//! Corrupt arrivals — NaN runs, missing-value gaps, truncations, byte
//! faults decoded into wrong-length series — are **quarantined** with a
//! typed [`QuarantineReason`] and never touch a centroid, a statistic, or
//! the drift ring. Valid-but-degraded arrivals (flatlines → constant
//! series) quarantine as [`QuarantineReason::Constant`]. [`push`] never
//! panics on any input and never returns NaN centroids.
//!
//! Memory is bounded: the engine keeps `k` `m×m` statistic matrices, at
//! most `window_capacity` recent series (the reseed window), the drift
//! ring, and — for [`Decay::Windowed`] — the per-cluster member window.
//! Nothing grows with stream length.
//!
//! # Checkpointing
//!
//! [`StreamKShape::to_json`] serializes every result-affecting field with
//! shortest-round-trip float formatting; [`StreamKShape::from_json`]
//! restores a byte-identical engine (proven by the chaos suite's
//! kill→resume→diff property). Wall-clock budgets and the reseeder are
//! runtime-only and deliberately not serialized — determinism across a
//! resume must not depend on a clock.
//!
//! [`push`]: StreamKShape::push

use std::collections::VecDeque;
use std::fmt;

use tsdata::normalize::{try_z_normalize_series, z_normalize_in_place};
use tserror::{TsError, TsResult};
use tslinalg::dominant::try_dominant_symmetric_eigen;
use tslinalg::power::power_iteration;
use tslinalg::Matrix;
use tsobs::{IterationEvent, JsonValue, Obs};
use tsrun::{default_retryable, derive_seed, retry_with_reseed, Budget, RunControl};

use crate::algorithm::{KShape, KShapeOptions};
use crate::bank::CentroidBank;
use crate::extraction::EigenMethod;
use crate::sbd::SbdScratch;

/// Salt separating the stream's fit-seed sequence from any batch run
/// sharing the same base seed.
const STREAM_SEED_SALT: u64 = 0x5EED_57AE_A12B_0CAD;

/// Floor below which a long-window mean is considered "already perfect"
/// and drift detection stays quiet (distances this small cannot drift
/// *worse* in any meaningful sense without tripping the ratio anyway).
const DRIFT_EPSILON: f64 = 1e-12;

/// How per-cluster sufficient statistics forget (or don't).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decay {
    /// Accumulate forever, every member weighted equally. The centroid
    /// converges to the all-history shape; drift shows up only in the
    /// inertia trend (and is healed by reseeding, not by forgetting).
    AppendOnly,
    /// Exponential forgetting: before each fold the statistics are scaled
    /// by `lambda ∈ (0, 1)`, so a member `t` arrivals ago carries weight
    /// `lambda^t`. Effective memory ≈ `1 / (1 − lambda)` arrivals.
    Exponential {
        /// Retention factor per arrival, strictly inside `(0, 1)`.
        lambda: f64,
    },
    /// Exact sliding window of the last `window` members per cluster:
    /// when the window overflows, the oldest aligned row is subtracted
    /// back out of `S` (rank-one downdate). Costs `O(window · m)` memory
    /// per cluster. Add-then-subtract does not cancel in floating point
    /// bit-exactly, but the operation sequence is deterministic, so
    /// checkpoint resume remains byte-identical.
    Windowed {
        /// Per-cluster member window length, at least 1.
        window: usize,
    },
}

impl Decay {
    fn kind_name(self) -> &'static str {
        match self {
            Decay::AppendOnly => "append_only",
            Decay::Exponential { .. } => "exponential",
            Decay::Windowed { .. } => "windowed",
        }
    }
}

/// Drift detection over the squared-assignment-distance trend.
///
/// The ring holds the last `long_window` squared distances; drift fires
/// when the *median* of the newest `short_window` exceeds `threshold ×`
/// the median of the whole ring (checked at refresh points only, so the
/// signal tracks the same inertia trend emitted as `IterationEvent`
/// telemetry). Medians keep the detector quiet under a minority of
/// accepted-but-degraded arrivals — see
/// [`StreamKShape`]'s drift internals for the rationale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Newest-arrivals window whose median is the "now" signal.
    pub short_window: usize,
    /// Full ring length whose median is the baseline. Must be ≥ `short_window`.
    pub long_window: usize,
    /// Ratio of short-median to long-median that declares drift (> 1).
    pub threshold: f64,
    /// Accepted arrivals to wait after a reseed before drift may fire
    /// again — gives the new centroids time to own the baseline.
    pub cooldown: usize,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            // A genuine regime change moves the squared-distance median
            // by 50–100×, while sampling noise on a 32-entry median can
            // reach 2–3×: threshold 4 keeps full sensitivity to real
            // drift with headroom against false reseeds.
            short_window: 32,
            long_window: 256,
            threshold: 4.0,
            cooldown: 256,
        }
    }
}

/// Configuration of [`StreamKShape`]. Every field here is
/// result-affecting and rides along in checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Number of clusters.
    pub k: usize,
    /// Per-channel series length every arrival must have.
    pub m: usize,
    /// Channels per arrival (default 1). An arrival is `m * channels`
    /// samples in channel-major order (all of channel 0, then channel 1,
    /// …); its declared shape comes from this configuration, never from
    /// whatever happened to arrive first.
    pub channels: usize,
    /// Base RNG seed; all fit seeds derive deterministically from it.
    pub seed: u64,
    /// Forgetting policy for the sufficient statistics.
    pub decay: Decay,
    /// Centroid refresh cadence, in accepted arrivals (≥ 1).
    pub refresh_every: usize,
    /// Accepted arrivals buffered before the bootstrap fit (≥ k).
    pub warmup: usize,
    /// Bound on the recent-arrivals ring backing bootstrap and reseeds
    /// (≥ `warmup`). This is the engine's memory ceiling.
    pub window_capacity: usize,
    /// Iteration cap for bootstrap/reseed fits.
    pub max_iter: usize,
    /// Eigen solver for the streaming shape extraction.
    pub eigen: EigenMethod,
    /// Drift detection parameters.
    pub drift: DriftConfig,
    /// Attempts granted to a bootstrap/reseed fit under
    /// [`tsrun::retry_with_reseed`] (≥ 1).
    pub reseed_attempts: u32,
}

impl StreamConfig {
    /// A conservative default configuration for `k` clusters of length-`m`
    /// series.
    #[must_use]
    pub fn new(k: usize, m: usize) -> Self {
        StreamConfig {
            k,
            m,
            channels: 1,
            seed: 42,
            decay: Decay::AppendOnly,
            refresh_every: 32,
            warmup: (4 * k).max(k + 1),
            window_capacity: (64 * k).max(256),
            max_iter: 30,
            eigen: EigenMethod::Full,
            drift: DriftConfig::default(),
            reseed_attempts: 3,
        }
    }

    /// Sets the channel count (channel-major arrivals of
    /// `m * channels` samples).
    #[must_use]
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.channels = channels;
        self
    }

    /// Samples per arrival: `m * channels`.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.m * self.channels
    }

    /// Sets the base seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the decay variant.
    #[must_use]
    pub fn with_decay(mut self, decay: Decay) -> Self {
        self.decay = decay;
        self
    }

    /// Sets the refresh cadence.
    #[must_use]
    pub fn with_refresh_every(mut self, refresh_every: usize) -> Self {
        self.refresh_every = refresh_every;
        self
    }

    /// Sets warmup size and (if currently smaller) the window capacity.
    #[must_use]
    pub fn with_warmup(mut self, warmup: usize) -> Self {
        self.warmup = warmup;
        self.window_capacity = self.window_capacity.max(warmup);
        self
    }

    /// Sets the recent-window capacity.
    #[must_use]
    pub fn with_window_capacity(mut self, capacity: usize) -> Self {
        self.window_capacity = capacity;
        self
    }

    /// Sets the drift detector.
    #[must_use]
    pub fn with_drift(mut self, drift: DriftConfig) -> Self {
        self.drift = drift;
        self
    }

    /// Sets the eigen solver.
    #[must_use]
    pub fn with_eigen(mut self, eigen: EigenMethod) -> Self {
        self.eigen = eigen;
        self
    }

    /// Sets the fit iteration cap.
    #[must_use]
    pub fn with_max_iter(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`TsError::InvalidK`] for an impossible `k`/`warmup` pair, and
    /// [`TsError::NumericalFailure`] (with context) for every other
    /// out-of-range knob.
    pub fn validate(&self) -> TsResult<()> {
        let bad = |context: String| Err(TsError::NumericalFailure { context });
        if self.k == 0 {
            return Err(TsError::InvalidK {
                k: 0,
                n: self.warmup,
            });
        }
        if self.m < 2 {
            return bad(format!("stream config: series length m={} < 2", self.m));
        }
        if self.channels == 0 {
            return bad("stream config: channels must be >= 1".to_string());
        }
        if self.warmup < self.k {
            return Err(TsError::InvalidK {
                k: self.k,
                n: self.warmup,
            });
        }
        if self.window_capacity < self.warmup {
            return bad(format!(
                "stream config: window_capacity={} < warmup={}",
                self.window_capacity, self.warmup
            ));
        }
        if self.refresh_every == 0 {
            return bad("stream config: refresh_every must be >= 1".to_string());
        }
        if self.max_iter == 0 {
            return bad("stream config: max_iter must be >= 1".to_string());
        }
        if self.reseed_attempts == 0 {
            return bad("stream config: reseed_attempts must be >= 1".to_string());
        }
        let d = &self.drift;
        if d.short_window == 0 || d.long_window < d.short_window {
            return bad(format!(
                "stream config: drift windows short={} long={} (need 1 <= short <= long)",
                d.short_window, d.long_window
            ));
        }
        if !(d.threshold.is_finite() && d.threshold > 1.0) {
            return bad(format!(
                "stream config: drift threshold {} must be finite and > 1",
                d.threshold
            ));
        }
        match self.decay {
            Decay::Exponential { lambda } if !(lambda > 0.0 && lambda < 1.0) => bad(format!(
                "stream config: exponential lambda {lambda} must be in (0, 1)"
            )),
            Decay::Windowed { window: 0 } => {
                bad("stream config: windowed decay needs window >= 1".to_string())
            }
            _ => Ok(()),
        }
    }
}

/// Why an arrival was quarantined instead of assigned.
///
/// Quarantined arrivals never touch centroids, statistics, or the drift
/// ring — the typed-error half of the robustness contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The arrival had no samples.
    Empty,
    /// The arrival's length disagrees with the configured `m`.
    WrongLength {
        /// Configured series length.
        expected: usize,
        /// Length actually received.
        found: usize,
    },
    /// The arrival's sample count is a whole number of channels of the
    /// configured length `m`, but not the *configured* number of
    /// channels. Counts are channels, not samples.
    WrongChannels {
        /// Configured channel count.
        expected: usize,
        /// Channel count actually received (`len / m`).
        found: usize,
    },
    /// A sample was NaN or infinite.
    NonFinite {
        /// Index of the first offending sample.
        index: usize,
    },
    /// The arrival has zero variance — no shape information.
    Constant,
}

impl QuarantineReason {
    /// Stable name for counters and wire responses.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            QuarantineReason::Empty => "empty",
            QuarantineReason::WrongLength { .. } => "wrong_length",
            QuarantineReason::WrongChannels { .. } => "wrong_channels",
            QuarantineReason::NonFinite { .. } => "non_finite",
            QuarantineReason::Constant => "constant",
        }
    }

    /// The equivalent typed [`TsError`], for callers that propagate.
    #[must_use]
    pub fn to_error(self, series: usize) -> TsError {
        match self {
            QuarantineReason::Empty => TsError::EmptyInput,
            QuarantineReason::WrongLength { expected, found } => TsError::LengthMismatch {
                expected,
                found,
                series,
            },
            // Channel counts ride the length-mismatch shape; the unit is
            // channels instead of samples.
            QuarantineReason::WrongChannels { expected, found } => TsError::LengthMismatch {
                expected,
                found,
                series,
            },
            QuarantineReason::NonFinite { index } => TsError::NonFinite { series, index },
            QuarantineReason::Constant => TsError::ConstantSeries { series },
        }
    }
}

/// One accepted assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assignment {
    /// Cluster the arrival joined.
    pub label: usize,
    /// SBD distance to that cluster's centroid.
    pub dist: f64,
    /// Alignment shift applied before folding into the statistics.
    pub shift: isize,
    /// Whether this arrival triggered a centroid refresh.
    pub refreshed: bool,
    /// Whether this arrival triggered a drift reseed.
    pub reseeded: bool,
}

/// Outcome of one [`StreamKShape::push`].
#[derive(Debug, Clone, PartialEq)]
pub enum PushOutcome {
    /// Pre-bootstrap: the arrival was buffered; `pending` counts the
    /// warmup buffer so far.
    Buffered {
        /// Accepted arrivals waiting for the bootstrap fit.
        pending: usize,
    },
    /// This arrival completed warmup and the bootstrap fit ran; `labels`
    /// covers every buffered arrival, oldest first (this arrival last).
    Bootstrapped {
        /// Labels of the whole warmup buffer, in arrival order.
        labels: Vec<usize>,
    },
    /// Assigned to a cluster (the steady-state outcome).
    Assigned(Assignment),
    /// Rejected with a typed reason; the engine state is untouched
    /// except for the quarantine counters.
    Quarantined(QuarantineReason),
}

/// Summary counters, cheap to copy out for telemetry and wire responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Total arrivals pushed (accepted + quarantined).
    pub arrivals: u64,
    /// Arrivals accepted (buffered or assigned).
    pub accepted: u64,
    /// Arrivals quarantined.
    pub quarantined: u64,
    /// Successful fits (bootstrap + reseeds).
    pub fits: u64,
    /// Drift-triggered reseeds.
    pub reseeds: u64,
    /// Centroid refreshes from sufficient statistics.
    pub refreshes: u64,
    /// Refreshes where a cluster's extraction degenerated and the
    /// previous centroid was kept.
    pub degenerate_refreshes: u64,
    /// Whether the bootstrap fit has run.
    pub bootstrapped: bool,
    /// Arrivals currently buffered toward warmup (0 once bootstrapped).
    pub pending: usize,
}

/// Everything a [`Reseeder`] gets to work with.
#[derive(Debug)]
pub struct ReseedRequest<'a> {
    /// The engine's recent z-normalized arrivals, oldest first.
    pub window: &'a [Vec<f64>],
    /// Number of clusters to fit.
    pub k: usize,
    /// Channels per window row (rows are `channels * m` samples,
    /// channel-major). Reseeders that only understand flat rows may
    /// ignore this; the engine re-normalizes per channel on install.
    pub channels: usize,
    /// Deterministically derived seed for this fit.
    pub seed: u64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Optional budget (the engine's refresh budget, when set).
    pub budget: Option<Budget>,
}

/// A successful reseed fit.
#[derive(Debug, Clone)]
pub struct ReseedFit {
    /// Label per window member, in window order.
    pub labels: Vec<usize>,
    /// `k` centroids (z-normalized by the engine on installation, so raw
    /// medoid series are acceptable).
    pub centroids: Vec<Vec<f64>>,
}

/// Pluggable bootstrap/reseed strategy.
///
/// The default is [`KShapeReseeder`]; `tscluster` provides a
/// degradation-ladder implementation that can descend to cheaper
/// algorithms under pressure.
pub trait Reseeder: Send {
    /// Fits `req.k` clusters over `req.window`.
    ///
    /// # Errors
    ///
    /// Any [`TsError`] from the underlying fit; the engine keeps its
    /// previous state and retries at the next trigger point.
    fn reseed(&mut self, req: &ReseedRequest<'_>) -> TsResult<ReseedFit>;

    /// Stable name for telemetry.
    fn name(&self) -> &'static str {
        "reseeder"
    }
}

/// Batch k-Shape under [`retry_with_reseed`] — the default [`Reseeder`].
#[derive(Debug, Clone, Copy)]
pub struct KShapeReseeder;

impl Reseeder for KShapeReseeder {
    fn reseed(&mut self, req: &ReseedRequest<'_>) -> TsResult<ReseedFit> {
        let attempts = 3; // engine multiplies determinism through req.seed
        let report = retry_with_reseed(req.seed, attempts, default_retryable, |seed| {
            // Best-of-3 restarts by inertia: a reseed window is small and
            // a single random init can merge well-separated shapes into
            // one cluster, which leaves the post-reseed inertia high and
            // the drift detector thrashing. Errors only surface when no
            // restart produced a fit (a tripped budget keeps the best
            // fit found before the trip).
            let mut best: Option<crate::KShapeResult> = None;
            let mut first_err = None;
            for restart in 0u64..3 {
                let mut opts = KShapeOptions::new(req.k)
                    .with_channels(req.channels)
                    .with_seed(seed.wrapping_add(restart.wrapping_mul(0x9E37_79B9)))
                    .with_max_iter(req.max_iter);
                if let Some(b) = req.budget {
                    opts = opts.with_budget(b);
                }
                match KShape::fit_with(req.window, &opts) {
                    Ok(fit) => {
                        if best.as_ref().is_none_or(|b| fit.inertia < b.inertia) {
                            best = Some(fit);
                        }
                    }
                    Err(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                        break;
                    }
                }
            }
            match best {
                Some(fit) => Ok(fit),
                None => Err(first_err.expect("no fit and no error is impossible")),
            }
        });
        report.outcome.map(|r| ReseedFit {
            labels: r.labels,
            centroids: r.centroids,
        })
    }

    fn name(&self) -> &'static str {
        "kshape"
    }
}

/// Per-cluster sufficient statistics: `S` (aligned, row-centered Gram
/// accumulator, i.e. the paper's `M` built incrementally), the sum of
/// uncentered aligned rows (sign orientation), the accumulated weight,
/// and — for [`Decay::Windowed`] — the member window itself.
#[derive(Debug, Clone)]
struct ClusterStats {
    weight: f64,
    s: Matrix,
    aligned_sum: Vec<f64>,
    members: VecDeque<Vec<f64>>,
}

impl ClusterStats {
    fn empty(m: usize) -> Self {
        ClusterStats {
            weight: 0.0,
            s: Matrix::zeros(m, m),
            aligned_sum: vec![0.0; m],
            members: VecDeque::new(),
        }
    }

    fn scale(&mut self, lambda: f64) {
        let m = self.aligned_sum.len();
        for r in 0..m {
            for v in self.s.row_mut(r) {
                *v *= lambda;
            }
        }
        for v in &mut self.aligned_sum {
            *v *= lambda;
        }
        self.weight *= lambda;
    }

    /// Adds (`sign = 1.0`) or subtracts (`sign = -1.0`) one *uncentered*
    /// aligned row.
    fn apply_row(&mut self, aligned: &[f64], sign: f64) {
        let m = aligned.len();
        let mean = aligned.iter().sum::<f64>() / m as f64;
        let centered: Vec<f64> = aligned.iter().map(|v| v - mean).collect();
        self.s.rank_one_update(&centered, sign);
        for (acc, v) in self.aligned_sum.iter_mut().zip(aligned) {
            *acc += sign * v;
        }
        self.weight += sign;
    }

    /// Folds one aligned arrival under the given decay policy.
    fn fold(&mut self, aligned: &[f64], decay: Decay) {
        match decay {
            Decay::AppendOnly => self.apply_row(aligned, 1.0),
            Decay::Exponential { lambda } => {
                self.scale(lambda);
                self.apply_row(aligned, 1.0);
            }
            Decay::Windowed { window } => {
                self.apply_row(aligned, 1.0);
                self.members.push_back(aligned.to_vec());
                while self.members.len() > window {
                    let old = self.members.pop_front().expect("non-empty window");
                    self.apply_row(&old, -1.0);
                }
            }
        }
    }

    /// Extracts the streaming shape centroid: dominant eigenvector of
    /// `S`, sign-oriented toward the aligned sum, z-normalized. Returns
    /// `None` when the statistics are degenerate (empty cluster, solver
    /// failure, all-zero vector) — the caller keeps the old centroid.
    fn extract(&self, eigen: EigenMethod) -> Option<Vec<f64>> {
        if self.weight < 0.5 {
            return None;
        }
        let mut centroid = match eigen {
            EigenMethod::Full => try_dominant_symmetric_eigen(&self.s).ok()?.vector,
            EigenMethod::Power => power_iteration(&self.s, 200, 1e-12).vector,
        };
        if centroid.iter().any(|v| !v.is_finite()) || centroid.iter().all(|&v| v == 0.0) {
            return None;
        }
        let orient: f64 = centroid
            .iter()
            .zip(&self.aligned_sum)
            .map(|(c, s)| c * s)
            .sum();
        if orient < 0.0 {
            for v in &mut centroid {
                *v = -*v;
            }
        }
        z_normalize_in_place(&mut centroid);
        if centroid.iter().any(|v| !v.is_finite()) || centroid.iter().all(|&v| v == 0.0) {
            return None;
        }
        Some(centroid)
    }
}

/// The online k-Shape engine. See the module docs for the full contract.
pub struct StreamKShape {
    config: StreamConfig,
    reseeder: Box<dyn Reseeder>,
    refresh_budget: Option<Budget>,

    bootstrapped: bool,
    centroids: Vec<Vec<f64>>,
    clusters: Vec<ClusterStats>,
    recent: VecDeque<Vec<f64>>,
    drift_ring: VecDeque<f64>,

    arrivals: u64,
    accepted: u64,
    quarantined: u64,
    fits: u64,
    reseeds: u64,
    refreshes: u64,
    degenerate_refreshes: u64,
    since_refresh: usize,
    cooldown_left: usize,
    // Accepted arrivals still to gather before a detected drift is
    // answered with a reseed (0 = no drift pending). Deferring the refit
    // by `drift.short_window` arrivals guarantees the reseed window is
    // post-change evidence, not the stale regime that was still filling
    // the recent ring when the detector fired.
    reseed_pending: usize,

    // Runtime-only caches, rebuilt on construction and resume: the
    // bank holds the current centroids' spectra.
    bank: CentroidBank,
    scratch: SbdScratch,
    aligned: Vec<f64>,
}

impl fmt::Debug for StreamKShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamKShape")
            .field("config", &self.config)
            .field("bootstrapped", &self.bootstrapped)
            .field("arrivals", &self.arrivals)
            .field("accepted", &self.accepted)
            .field("quarantined", &self.quarantined)
            .field("fits", &self.fits)
            .field("reseeds", &self.reseeds)
            .field("refreshes", &self.refreshes)
            .field("reseeder", &self.reseeder.name())
            .finish_non_exhaustive()
    }
}

impl StreamKShape {
    /// Creates an engine from a validated configuration.
    ///
    /// # Errors
    ///
    /// Whatever [`StreamConfig::validate`] reports.
    pub fn new(config: StreamConfig) -> TsResult<StreamKShape> {
        config.validate()?;
        Ok(StreamKShape {
            bank: CentroidBank::fixed(config.m, config.channels)?,
            reseeder: Box::new(KShapeReseeder),
            refresh_budget: None,
            bootstrapped: false,
            centroids: Vec::new(),
            clusters: Vec::new(),
            recent: VecDeque::with_capacity(config.window_capacity),
            drift_ring: VecDeque::with_capacity(config.drift.long_window),
            arrivals: 0,
            accepted: 0,
            quarantined: 0,
            fits: 0,
            reseeds: 0,
            refreshes: 0,
            degenerate_refreshes: 0,
            since_refresh: 0,
            cooldown_left: 0,
            reseed_pending: 0,
            scratch: SbdScratch::default(),
            aligned: vec![0.0; config.samples()],
            config,
        })
    }

    /// Replaces the bootstrap/reseed strategy (runtime-only; a resumed
    /// engine starts back on the default [`KShapeReseeder`]).
    pub fn set_reseeder(&mut self, reseeder: Box<dyn Reseeder>) {
        self.reseeder = reseeder;
    }

    /// Sets the budget applied to centroid refreshes and reseed fits
    /// (runtime-only, never serialized — wall clocks are not
    /// deterministic).
    pub fn set_refresh_budget(&mut self, budget: Option<Budget>) {
        self.refresh_budget = budget;
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Current centroids (empty before bootstrap).
    #[must_use]
    pub fn centroids(&self) -> &[Vec<f64>] {
        &self.centroids
    }

    /// Summary counters.
    #[must_use]
    pub fn stats(&self) -> StreamStats {
        StreamStats {
            arrivals: self.arrivals,
            accepted: self.accepted,
            quarantined: self.quarantined,
            fits: self.fits,
            reseeds: self.reseeds,
            refreshes: self.refreshes,
            degenerate_refreshes: self.degenerate_refreshes,
            bootstrapped: self.bootstrapped,
            pending: if self.bootstrapped {
                0
            } else {
                self.recent.len()
            },
        }
    }

    /// Pushes one arrival without telemetry.
    pub fn push(&mut self, series: &[f64]) -> PushOutcome {
        self.push_with(series, Obs::none())
    }

    /// Pushes one arrival, recording counters and refresh
    /// `IterationEvent`s through `obs` when armed.
    ///
    /// Never panics and never errors: invalid input comes back as
    /// [`PushOutcome::Quarantined`]; internal fit failures leave the
    /// engine on its previous state (retried at the next trigger).
    pub fn push_with(&mut self, series: &[f64], obs: Obs<'_>) -> PushOutcome {
        self.arrivals += 1;
        let z = match self.admit(series) {
            Ok(z) => z,
            Err(reason) => {
                self.quarantined += 1;
                obs.counter("stream.quarantine", 1);
                obs.counter(&format!("stream.quarantine.{}", reason.name()), 1);
                return PushOutcome::Quarantined(reason);
            }
        };
        self.accepted += 1;
        self.recent.push_back(z.clone());
        while self.recent.len() > self.config.window_capacity {
            self.recent.pop_front();
        }

        if !self.bootstrapped {
            if self.recent.len() < self.config.warmup {
                return PushOutcome::Buffered {
                    pending: self.recent.len(),
                };
            }
            return match self.refit(obs) {
                Ok(labels) => {
                    self.bootstrapped = true;
                    obs.counter("stream.bootstrap", 1);
                    PushOutcome::Bootstrapped { labels }
                }
                // Fit failed (degenerate warmup buffer, tripped budget…):
                // stay pre-bootstrap and retry when the next arrival has
                // refreshed the window.
                Err(_) => PushOutcome::Buffered {
                    pending: self.recent.len(),
                },
            };
        }

        // Steady state: assign through the bank's cached spectra.
        let (label, dist, shift) = self.bank.nearest(&z, &mut self.scratch);
        self.fold_aligned(label, &z, shift);
        self.drift_ring.push_back(dist * dist);
        while self.drift_ring.len() > self.config.drift.long_window {
            self.drift_ring.pop_front();
        }
        self.cooldown_left = self.cooldown_left.saturating_sub(1);
        self.since_refresh += 1;

        let mut refreshed = false;
        let mut reseeded = false;
        if self.since_refresh >= self.config.refresh_every {
            self.refresh_centroids(obs);
            refreshed = true;
            if self.reseed_pending == 0 && self.drift_detected() {
                // Detection and response are decoupled: gather
                // `short_window` fresh arrivals first so the refit sees
                // the new regime, then reseed (see `reseed_now`).
                self.reseed_pending = self.config.drift.short_window;
                obs.counter("stream.drift", 1);
            }
        }
        if self.reseed_pending > 0 {
            self.reseed_pending -= 1;
            if self.reseed_pending == 0 {
                reseeded = self.reseed_now(obs);
            }
        }
        PushOutcome::Assigned(Assignment {
            label,
            dist,
            shift,
            refreshed,
            reseeded,
        })
    }

    /// Validates and z-normalizes one arrival (per channel).
    ///
    /// The expected shape is always the *configured* `m * channels` —
    /// never inferred from earlier arrivals — so one malformed first
    /// push can never redefine what the stream accepts.
    fn admit(&self, series: &[f64]) -> Result<Vec<f64>, QuarantineReason> {
        if series.is_empty() {
            return Err(QuarantineReason::Empty);
        }
        let expected = self.config.samples();
        if series.len() != expected {
            if self.config.channels > 1 && series.len().is_multiple_of(self.config.m) {
                return Err(QuarantineReason::WrongChannels {
                    expected: self.config.channels,
                    found: series.len() / self.config.m,
                });
            }
            return Err(QuarantineReason::WrongLength {
                expected,
                found: series.len(),
            });
        }
        let mut z = Vec::with_capacity(expected);
        for (ch, chunk) in series.chunks_exact(self.config.m).enumerate() {
            match try_z_normalize_series(chunk, 0) {
                Ok(zc) => z.extend_from_slice(&zc),
                Err(TsError::NonFinite { index, .. }) => {
                    return Err(QuarantineReason::NonFinite {
                        index: ch * self.config.m + index,
                    })
                }
                Err(TsError::ConstantSeries { .. }) => return Err(QuarantineReason::Constant),
                Err(_) => return Err(QuarantineReason::Empty),
            }
        }
        Ok(z)
    }

    /// Mean of the newest `n` ring entries (`None` when fewer exist).
    fn ring_mean(&self, n: usize) -> Option<f64> {
        if n == 0 || self.drift_ring.len() < n {
            return None;
        }
        let sum: f64 = self.drift_ring.iter().rev().take(n).sum();
        Some(sum / n as f64)
    }

    /// Median of the newest `n` ring entries.
    fn ring_median(&self, n: usize) -> f64 {
        let mut vals: Vec<f64> = self.drift_ring.iter().rev().take(n).copied().collect();
        vals.sort_by(|a, b| a.partial_cmp(b).expect("ring values are finite"));
        let mid = vals.len() / 2;
        if vals.len() % 2 == 1 {
            vals[mid]
        } else {
            0.5 * (vals[mid - 1] + vals[mid])
        }
    }

    /// Whether the inertia trend currently signals drift.
    ///
    /// The signal compares *medians*, not means: accepted-but-degraded
    /// arrivals (amplitude spikes, partial flatlines) put heavy tails on
    /// the squared-distance stream, and a mean-ratio detector false-fires
    /// on two or three spikes landing in the short window. Medians are
    /// blind to a minority of outliers in either window.
    ///
    /// Detection re-arms once the ring holds `2 × short_window` entries
    /// (the long baseline truncates to whatever is available, up to
    /// `long_window`). Requiring a full long window instead would blind
    /// the detector for `long_window` arrivals after every reseed — long
    /// enough for a real regime change to fill the ring uniformly and
    /// erase its own contrast.
    fn drift_detected(&self) -> bool {
        let short = self.config.drift.short_window;
        if self.cooldown_left > 0 || self.drift_ring.len() < 2 * short {
            return false;
        }
        let long = self.config.drift.long_window.min(self.drift_ring.len());
        let short_med = self.ring_median(short);
        let long_med = self.ring_median(long);
        long_med > DRIFT_EPSILON && short_med > self.config.drift.threshold * long_med
    }

    /// Re-extracts every centroid from its sufficient statistics under
    /// the refresh budget. A tripped budget abandons the remaining
    /// clusters (keeping their previous centroids); a degenerate
    /// extraction keeps that cluster's previous centroid.
    fn refresh_centroids(&mut self, obs: Obs<'_>) {
        let ctrl = RunControl::from_parts(self.refresh_budget, None);
        let m = self.config.m;
        let old = if obs.is_armed() {
            Some(self.centroids.clone())
        } else {
            None
        };
        let c = self.config.channels;
        let mut spectra_dirty = false;
        for j in 0..self.config.k {
            if ctrl.poll().is_err() || ctrl.charge((c * m * m) as u64).is_err() {
                obs.counter("stream.refresh.budget_stop", 1);
                break;
            }
            // All channels must extract cleanly; a degenerate channel
            // keeps the cluster's whole previous centroid so channels
            // never desynchronize.
            let parts: Option<Vec<Vec<f64>>> = (0..c)
                .map(|ch| self.clusters[j * c + ch].extract(self.config.eigen))
                .collect();
            if let Some(parts) = parts {
                let centroid = parts.concat();
                if centroid != self.centroids[j] {
                    self.centroids[j] = centroid;
                    spectra_dirty = true;
                }
            } else {
                self.degenerate_refreshes += 1;
                obs.counter("stream.refresh.degenerate", 1);
            }
        }
        if spectra_dirty {
            self.bank
                .load(&self.centroids)
                .expect("refreshed centroids keep the configured shape");
        }
        self.refreshes += 1;
        let moved = self.since_refresh;
        self.since_refresh = 0;
        if obs.is_armed() {
            let short = self
                .ring_mean(self.config.drift.short_window.min(self.drift_ring.len()))
                .unwrap_or(f64::NAN);
            let shift = old
                .map(|old| {
                    old.iter()
                        .zip(&self.centroids)
                        .flat_map(|(a, b)| a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)))
                        .sum::<f64>()
                        .sqrt()
                })
                .unwrap_or(f64::NAN);
            obs.iteration(&IterationEvent {
                algorithm: "kshape.stream",
                iter: (self.refreshes - 1) as usize,
                inertia: short,
                moved,
                centroid_shift: shift,
            });
        }
    }

    /// Drift response: refit over the newest arrivals — the post-change
    /// evidence gathered since detection, widened to `warmup` when the
    /// detector's window is smaller — rebuild statistics and the drift
    /// baseline, arm the cooldown. A failed fit keeps the previous state
    /// and re-arms the evidence countdown, so the reseed retries on a
    /// fresher window instead of going silent.
    fn reseed_now(&mut self, obs: Obs<'_>) -> bool {
        let take = self
            .config
            .drift
            .short_window
            .max(self.config.warmup)
            .min(self.recent.len());
        match self.refit_newest(take, obs) {
            Ok(_) => {
                self.reseeds += 1;
                self.cooldown_left = self.config.drift.cooldown;
                obs.counter("stream.reseed", 1);
                true
            }
            Err(_) => {
                self.reseed_pending = self.config.drift.short_window;
                obs.counter("stream.reseed.failed", 1);
                false
            }
        }
    }

    /// Runs a full fit over the recent window and installs it: centroids
    /// (defensively z-normalized — ladder medoid rungs return raw
    /// series), fresh per-cluster statistics folded in window order, and
    /// a rebuilt drift baseline. The fit seed derives deterministically
    /// from `(config.seed, fits)`, so resume replays identically without
    /// serializing RNG state.
    fn refit(&mut self, obs: Obs<'_>) -> TsResult<Vec<usize>> {
        self.refit_newest(self.recent.len(), obs)
    }

    /// [`refit`](Self::refit) restricted to the newest `take` window
    /// members (the whole window when `take` covers it).
    fn refit_newest(&mut self, take: usize, obs: Obs<'_>) -> TsResult<Vec<usize>> {
        let skip = self.recent.len().saturating_sub(take);
        let window: Vec<Vec<f64>> = self.recent.iter().skip(skip).cloned().collect();
        let seed = derive_seed(self.config.seed ^ STREAM_SEED_SALT, self.fits as u32);
        let req = ReseedRequest {
            window: &window,
            k: self.config.k,
            channels: self.config.channels,
            seed,
            max_iter: self.config.max_iter,
            budget: self.refresh_budget,
        };
        let fit = self.reseeder.reseed(&req)?;
        if fit.centroids.len() != self.config.k
            || fit.labels.len() != window.len()
            || fit
                .centroids
                .iter()
                .any(|c| c.len() != self.config.samples())
            || fit.labels.iter().any(|&l| l >= self.config.k)
            || fit
                .centroids
                .iter()
                .any(|c| c.iter().any(|v| !v.is_finite()))
        {
            return Err(TsError::NumericalFailure {
                context: format!(
                    "stream reseed: fit from {:?} returned a malformed result",
                    self.reseeder.name()
                ),
            });
        }
        self.fits += 1;
        let mut centroids = fit.centroids;
        for cent in &mut centroids {
            for chunk in cent.chunks_exact_mut(self.config.m) {
                z_normalize_in_place(chunk);
            }
        }
        self.bank.load(&centroids)?;
        self.centroids = centroids;
        self.clusters = (0..self.config.k * self.config.channels)
            .map(|_| ClusterStats::empty(self.config.m))
            .collect();
        // The drift ring restarts EMPTY: seeding it with the window's
        // fitted distances would mix in-sample residuals (near zero —
        // the centroids were fit on these very series) into the
        // long-window baseline, dragging its median low enough that
        // ordinary out-of-sample residue trips the ratio test right
        // after a fit. The detector re-arms once 2×short_window genuine
        // out-of-sample distances have accumulated.
        self.drift_ring.clear();
        for (x, &label) in window.iter().zip(&fit.labels) {
            let shift = self.bank.shift_to(label, x, &mut self.scratch);
            self.fold_aligned(label, x, shift);
        }
        self.since_refresh = 0;
        obs.counter("stream.fit", 1);
        Ok(fit.labels)
    }

    /// Folds `row`, aligned by `shift`, into cluster `label`'s per-channel
    /// statistics.
    fn fold_aligned(&mut self, label: usize, row: &[f64], shift: isize) {
        let c = self.config.channels;
        self.bank.align_into(row, shift, &mut self.aligned);
        for (ch, chunk) in self.aligned.chunks_exact(self.config.m).enumerate() {
            self.clusters[label * c + ch].fold(chunk, self.config.decay);
        }
    }

    // ---- checkpoint serialization ------------------------------------

    /// Serializes the engine to JSON with shortest-round-trip floats:
    /// [`from_json`](StreamKShape::from_json) restores a byte-identical
    /// engine (same future outputs, same future checkpoints).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"v\":1,\"config\":");
        self.push_config_json(&mut out);
        out.push_str(&format!(
            ",\"bootstrapped\":{},\"arrivals\":{},\"accepted\":{},\"quarantined\":{},\"fits\":{},\"reseeds\":{},\"refreshes\":{},\"degenerate_refreshes\":{},\"since_refresh\":{},\"cooldown_left\":{},\"reseed_pending\":{}",
            self.bootstrapped,
            self.arrivals,
            self.accepted,
            self.quarantined,
            self.fits,
            self.reseeds,
            self.refreshes,
            self.degenerate_refreshes,
            self.since_refresh,
            self.cooldown_left,
            self.reseed_pending,
        ));
        out.push_str(",\"centroids\":");
        push_rows(&mut out, self.centroids.iter());
        out.push_str(",\"clusters\":[");
        for (i, c) in self.clusters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"weight\":{}", fmt_f64(c.weight)));
            out.push_str(",\"aligned_sum\":");
            push_row(&mut out, &c.aligned_sum);
            out.push_str(",\"s\":");
            push_row(&mut out, c.s.as_slice());
            out.push_str(",\"members\":");
            push_rows(&mut out, c.members.iter());
            out.push('}');
        }
        out.push_str("],\"recent\":");
        push_rows(&mut out, self.recent.iter());
        out.push_str(",\"drift_ring\":");
        push_row_iter(&mut out, self.drift_ring.iter().copied());
        out.push('}');
        out
    }

    fn push_config_json(&self, out: &mut String) {
        let c = &self.config;
        out.push_str(&format!("{{\"k\":{},\"m\":{}", c.k, c.m));
        // Emitted only when multichannel so univariate checkpoints stay
        // byte-identical to the pre-channels format (and old checkpoints
        // keep loading: the parser defaults a missing key to 1).
        if c.channels != 1 {
            out.push_str(&format!(",\"channels\":{}", c.channels));
        }
        out.push_str(&format!(
            ",\"seed\":\"{}\",\"decay\":{{\"kind\":\"{}\"",
            c.seed,
            c.decay.kind_name()
        ));
        match c.decay {
            Decay::AppendOnly => {}
            Decay::Exponential { lambda } => {
                out.push_str(&format!(",\"lambda\":{}", fmt_f64(lambda)));
            }
            Decay::Windowed { window } => out.push_str(&format!(",\"window\":{window}")),
        }
        out.push_str(&format!(
            "}},\"refresh_every\":{},\"warmup\":{},\"window_capacity\":{},\"max_iter\":{},\"eigen\":\"{}\",\"drift\":{{\"short_window\":{},\"long_window\":{},\"threshold\":{},\"cooldown\":{}}},\"reseed_attempts\":{}}}",
            c.refresh_every,
            c.warmup,
            c.window_capacity,
            c.max_iter,
            match c.eigen {
                EigenMethod::Full => "full",
                EigenMethod::Power => "power",
            },
            c.drift.short_window,
            c.drift.long_window,
            fmt_f64(c.drift.threshold),
            c.drift.cooldown,
            c.reseed_attempts,
        ));
    }

    /// Restores an engine from [`to_json`](StreamKShape::to_json) output.
    /// Returns `None` on any structural, dimensional, or finiteness
    /// violation — the shape `CheckpointStore::load_named` expects from
    /// its parser (a corrupt artifact quarantines instead of loading).
    #[must_use]
    pub fn from_json(text: &str) -> Option<StreamKShape> {
        let v = tsobs::parse_json(text).ok()?;
        if v.get("v")?.as_uint()? != 1 {
            return None;
        }
        let config = parse_config(v.get("config")?)?;
        config.validate().ok()?;
        let m = config.m;
        let k = config.k;
        // Rows span all channels; per-channel statistics stay m-sized.
        let samples = config.samples();
        let stat_count = k * config.channels;

        let bootstrapped = match v.get("bootstrapped")? {
            JsonValue::Bool(b) => *b,
            _ => return None,
        };
        let centroids = parse_rows(v.get("centroids")?, Some(samples))?;
        if bootstrapped && centroids.len() != k {
            return None;
        }
        if !bootstrapped && !centroids.is_empty() {
            return None;
        }
        let JsonValue::Arr(cluster_vals) = v.get("clusters")? else {
            return None;
        };
        if bootstrapped && cluster_vals.len() != stat_count {
            return None;
        }
        let mut clusters = Vec::with_capacity(cluster_vals.len());
        for cv in cluster_vals {
            let weight = cv.get("weight")?.as_num()?;
            if !weight.is_finite() {
                return None;
            }
            let aligned_sum = parse_row(cv.get("aligned_sum")?, Some(m))?;
            let s_flat = parse_row(cv.get("s")?, Some(m * m))?;
            let members: VecDeque<Vec<f64>> = parse_rows(cv.get("members")?, Some(m))?
                .into_iter()
                .collect();
            clusters.push(ClusterStats {
                weight,
                s: Matrix::from_vec(m, m, s_flat),
                aligned_sum,
                members,
            });
        }
        let recent: VecDeque<Vec<f64>> = parse_rows(v.get("recent")?, Some(samples))?
            .into_iter()
            .collect();
        if recent.len() > config.window_capacity {
            return None;
        }
        let drift_ring: VecDeque<f64> =
            parse_row(v.get("drift_ring")?, None)?.into_iter().collect();
        if drift_ring.len() > config.drift.long_window {
            return None;
        }

        let mut engine = StreamKShape::new(config).ok()?;
        engine.bootstrapped = bootstrapped;
        engine.centroids = centroids;
        engine.clusters = clusters;
        engine.recent = recent;
        engine.drift_ring = drift_ring;
        engine.arrivals = v.get("arrivals")?.as_uint()?;
        engine.accepted = v.get("accepted")?.as_uint()?;
        engine.quarantined = v.get("quarantined")?.as_uint()?;
        engine.fits = v.get("fits")?.as_uint()?;
        engine.reseeds = v.get("reseeds")?.as_uint()?;
        engine.refreshes = v.get("refreshes")?.as_uint()?;
        engine.degenerate_refreshes = v.get("degenerate_refreshes")?.as_uint()?;
        engine.since_refresh = v.get("since_refresh")?.as_uint()? as usize;
        engine.cooldown_left = v.get("cooldown_left")?.as_uint()? as usize;
        engine.reseed_pending = v.get("reseed_pending")?.as_uint()? as usize;
        engine.bank.load(&engine.centroids).ok()?;
        Some(engine)
    }
}

fn fmt_f64(v: f64) -> String {
    // Checkpointed values are finite by construction (quarantine keeps
    // NaN out), but a defensive `null` beats emitting invalid JSON.
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn push_row(out: &mut String, row: &[f64]) {
    push_row_iter(out, row.iter().copied());
}

fn push_row_iter(out: &mut String, row: impl Iterator<Item = f64>) {
    out.push('[');
    for (i, v) in row.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&fmt_f64(v));
    }
    out.push(']');
}

fn push_rows<'a>(out: &mut String, rows: impl Iterator<Item = &'a Vec<f64>>) {
    out.push('[');
    for (i, row) in rows.enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_row(out, row);
    }
    out.push(']');
}

fn parse_row(v: &JsonValue, expect_len: Option<usize>) -> Option<Vec<f64>> {
    let JsonValue::Arr(vals) = v else {
        return None;
    };
    if let Some(n) = expect_len {
        if vals.len() != n {
            return None;
        }
    }
    let mut out = Vec::with_capacity(vals.len());
    for v in vals {
        let x = v.as_num()?;
        if !x.is_finite() {
            return None;
        }
        out.push(x);
    }
    Some(out)
}

fn parse_rows(v: &JsonValue, row_len: Option<usize>) -> Option<Vec<Vec<f64>>> {
    let JsonValue::Arr(rows) = v else {
        return None;
    };
    rows.iter().map(|r| parse_row(r, row_len)).collect()
}

fn parse_config(v: &JsonValue) -> Option<StreamConfig> {
    let seed: u64 = v.get("seed")?.as_str()?.parse().ok()?;
    let decay_v = v.get("decay")?;
    let decay = match decay_v.get("kind")?.as_str()? {
        "append_only" => Decay::AppendOnly,
        "exponential" => Decay::Exponential {
            lambda: decay_v.get("lambda")?.as_num()?,
        },
        "windowed" => Decay::Windowed {
            window: decay_v.get("window")?.as_uint()? as usize,
        },
        _ => return None,
    };
    let eigen = match v.get("eigen")?.as_str()? {
        "full" => EigenMethod::Full,
        "power" => EigenMethod::Power,
        _ => return None,
    };
    let drift_v = v.get("drift")?;
    Some(StreamConfig {
        k: v.get("k")?.as_uint()? as usize,
        m: v.get("m")?.as_uint()? as usize,
        channels: match v.get("channels") {
            Some(cv) => cv.as_uint()? as usize,
            None => 1,
        },
        seed,
        decay,
        refresh_every: v.get("refresh_every")?.as_uint()? as usize,
        warmup: v.get("warmup")?.as_uint()? as usize,
        window_capacity: v.get("window_capacity")?.as_uint()? as usize,
        max_iter: v.get("max_iter")?.as_uint()? as usize,
        eigen,
        drift: DriftConfig {
            short_window: drift_v.get("short_window")?.as_uint()? as usize,
            long_window: drift_v.get("long_window")?.as_uint()? as usize,
            threshold: drift_v.get("threshold")?.as_num()?,
            cooldown: drift_v.get("cooldown")?.as_uint()? as usize,
        },
        reseed_attempts: v.get("reseed_attempts")?.as_uint()? as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsrand::{Rng, StdRng};

    fn sine(m: usize, phase: f64, noise: f64, rng: &mut StdRng) -> Vec<f64> {
        (0..m)
            .map(|t| {
                let x = t as f64 / m as f64 * std::f64::consts::TAU;
                (x * 2.0 + phase).sin() + noise * (rng.gen_range(-1.0..1.0))
            })
            .collect()
    }

    fn square(m: usize, noise: f64, rng: &mut StdRng) -> Vec<f64> {
        (0..m)
            .map(|t| {
                let v = if (t / (m / 4)).is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                };
                v + noise * rng.gen_range(-1.0..1.0)
            })
            .collect()
    }

    fn small_config() -> StreamConfig {
        StreamConfig::new(2, 32)
            .with_warmup(12)
            .with_window_capacity(64)
            .with_refresh_every(8)
    }

    fn feed(engine: &mut StreamKShape, n: usize, seed: u64) -> Vec<PushOutcome> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x = if i % 2 == 0 {
                    sine(32, 0.0, 0.1, &mut rng)
                } else {
                    square(32, 0.1, &mut rng)
                };
                engine.push(&x)
            })
            .collect()
    }

    #[test]
    fn config_validation_rejects_bad_knobs() {
        assert!(StreamConfig::new(2, 32).validate().is_ok());
        assert!(StreamConfig::new(0, 32).validate().is_err());
        assert!(StreamConfig::new(2, 1).validate().is_err());
        assert!(StreamConfig::new(2, 32).with_warmup(1).validate().is_err());
        assert!(StreamConfig::new(2, 32)
            .with_refresh_every(0)
            .validate()
            .is_err());
        assert!(StreamConfig::new(2, 32)
            .with_decay(Decay::Exponential { lambda: 1.0 })
            .validate()
            .is_err());
        assert!(StreamConfig::new(2, 32)
            .with_decay(Decay::Windowed { window: 0 })
            .validate()
            .is_err());
        let mut bad_drift = StreamConfig::new(2, 32);
        bad_drift.drift.threshold = 0.5;
        assert!(bad_drift.validate().is_err());
    }

    #[test]
    fn bootstraps_then_assigns_two_shape_classes() {
        let mut engine = StreamKShape::new(small_config()).unwrap();
        let outcomes = feed(&mut engine, 120, 7);
        let bootstrapped_at = outcomes
            .iter()
            .position(|o| matches!(o, PushOutcome::Bootstrapped { .. }))
            .expect("bootstrap happened");
        assert_eq!(bootstrapped_at, 11, "warmup is 12 arrivals");
        // After bootstrap every arrival is assigned, never quarantined.
        for o in &outcomes[bootstrapped_at + 1..] {
            assert!(matches!(o, PushOutcome::Assigned(_)), "{o:?}");
        }
        // The two interleaved shape classes land in different clusters.
        let labels: Vec<usize> = outcomes[bootstrapped_at + 1..]
            .iter()
            .filter_map(|o| match o {
                PushOutcome::Assigned(a) => Some(a.label),
                _ => None,
            })
            .collect();
        let even: Vec<usize> = labels.iter().step_by(2).copied().collect();
        let odd: Vec<usize> = labels.iter().skip(1).step_by(2).copied().collect();
        let purity = |v: &[usize]| {
            let ones = v.iter().filter(|&&l| l == 1).count();
            ones.max(v.len() - ones) as f64 / v.len() as f64
        };
        assert!(purity(&even) > 0.9, "even purity {}", purity(&even));
        assert!(purity(&odd) > 0.9, "odd purity {}", purity(&odd));
        assert_ne!(even[0], odd[0], "classes separated");
        // Centroids stay finite and normalized through refreshes.
        let stats = engine.stats();
        assert!(stats.refreshes > 0);
        for c in engine.centroids() {
            assert!(c.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn quarantines_every_invalid_shape_without_state_change() {
        let mut engine = StreamKShape::new(small_config()).unwrap();
        feed(&mut engine, 60, 3);
        let before = engine.to_json();
        let nan = {
            let mut x = vec![1.0; 32];
            x[5] = f64::NAN;
            x
        };
        let cases: Vec<(Vec<f64>, &str)> = vec![
            (vec![], "empty"),
            (vec![1.0; 7], "wrong_length"),
            (nan, "non_finite"),
            (vec![3.25; 32], "constant"),
        ];
        for (x, name) in cases {
            match engine.push(&x) {
                PushOutcome::Quarantined(reason) => assert_eq!(reason.name(), name),
                other => panic!("expected quarantine {name}, got {other:?}"),
            }
        }
        // Quarantine must not touch clustering state: only the arrival
        // and quarantine counters may differ.
        let after = engine.to_json();
        let renumber = |s: &str| {
            s.replace(
                &format!("\"arrivals\":{},\"accepted\"", engine.stats().arrivals),
                "\"arrivals\":A,\"accepted\"",
            )
            .replace(
                &format!("\"quarantined\":{},\"fits\"", engine.stats().quarantined),
                "\"quarantined\":Q,\"fits\"",
            )
        };
        assert_eq!(
            renumber(&before)
                .replace(
                    "\"arrivals\":60,\"accepted\"",
                    "\"arrivals\":A,\"accepted\""
                )
                .replace("\"quarantined\":0,\"fits\"", "\"quarantined\":Q,\"fits\""),
            renumber(&after)
        );
        assert_eq!(engine.stats().quarantined, 4);
        assert_eq!(engine.stats().arrivals, 64);
        assert_eq!(engine.stats().accepted, 60);
    }

    #[test]
    fn checkpoint_round_trips_byte_identically() {
        for decay in [
            Decay::AppendOnly,
            Decay::Exponential { lambda: 0.97 },
            Decay::Windowed { window: 20 },
        ] {
            let mut engine =
                StreamKShape::new(small_config().with_decay(decay).with_seed(11)).unwrap();
            feed(&mut engine, 90, 5);
            let snap = engine.to_json();
            let mut resumed = StreamKShape::from_json(&snap).expect("parse back");
            assert_eq!(resumed.to_json(), snap, "{decay:?}: snapshot stable");
            // Continuing both engines produces identical outcomes and
            // identical next checkpoints.
            let a = feed(&mut engine, 40, 99);
            let b = feed(&mut resumed, 40, 99);
            assert_eq!(a, b, "{decay:?}: outcomes diverged after resume");
            assert_eq!(engine.to_json(), resumed.to_json(), "{decay:?}");
        }
    }

    #[test]
    fn from_json_rejects_corrupt_snapshots() {
        let mut engine = StreamKShape::new(small_config()).unwrap();
        feed(&mut engine, 40, 2);
        let snap = engine.to_json();
        assert!(StreamKShape::from_json(&snap).is_some());
        assert!(StreamKShape::from_json("").is_none());
        assert!(StreamKShape::from_json("{}").is_none());
        assert!(StreamKShape::from_json(&snap[..snap.len() / 2]).is_none());
        assert!(StreamKShape::from_json(&snap.replace("\"v\":1", "\"v\":2")).is_none());
        // Dimensional corruption: a centroid row of the wrong length.
        let broken = snap.replacen("[", "[[0.0],", 1);
        assert!(StreamKShape::from_json(&broken).is_none());
    }

    #[test]
    fn windowed_decay_bounds_member_memory() {
        let window = 10;
        let mut engine =
            StreamKShape::new(small_config().with_decay(Decay::Windowed { window })).unwrap();
        feed(&mut engine, 200, 13);
        for c in &engine.clusters {
            assert!(c.members.len() <= window);
            assert!(c.weight <= window as f64 + 0.5);
        }
        assert!(engine.recent.len() <= engine.config.window_capacity);
        assert!(engine.drift_ring.len() <= engine.config.drift.long_window);
    }

    #[test]
    fn exponential_decay_keeps_bounded_weight() {
        let lambda = 0.9;
        let mut engine =
            StreamKShape::new(small_config().with_decay(Decay::Exponential { lambda })).unwrap();
        feed(&mut engine, 300, 17);
        let bound = 1.0 / (1.0 - lambda) + 1.0;
        for c in &engine.clusters {
            assert!(c.weight <= bound, "weight {} > {}", c.weight, bound);
            assert!(c.members.is_empty(), "exponential keeps no member rows");
        }
    }

    #[test]
    fn drift_triggers_exactly_one_reseed_per_event() {
        let mut config = StreamConfig::new(2, 32)
            .with_warmup(16)
            .with_window_capacity(128)
            .with_refresh_every(8)
            .with_seed(23);
        config.drift = DriftConfig {
            short_window: 16,
            long_window: 64,
            threshold: 1.8,
            cooldown: 200,
        };
        let mut engine = StreamKShape::new(config).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        // Stable regime: two clean shape classes.
        for i in 0..200 {
            let x = if i % 2 == 0 {
                sine(32, 0.0, 0.05, &mut rng)
            } else {
                square(32, 0.05, &mut rng)
            };
            engine.push(&x);
        }
        assert_eq!(engine.stats().reseeds, 0, "no drift yet");
        // Regime change: both classes replaced by shifted shapes.
        let mut reseed_events = 0;
        for i in 0..200 {
            let x = if i % 2 == 0 {
                sine(32, std::f64::consts::FRAC_PI_2 * 1.3, 0.05, &mut rng)
            } else {
                sine(32, std::f64::consts::PI * 1.2, 0.05, &mut rng)
            };
            if let PushOutcome::Assigned(a) = engine.push(&x) {
                if a.reseeded {
                    reseed_events += 1;
                }
            }
        }
        assert_eq!(reseed_events, 1, "one drift event, one reseed");
        assert_eq!(engine.stats().reseeds, 1);
        for c in engine.centroids() {
            assert!(c.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn telemetry_reports_refreshes_and_quarantines() {
        let sink = tsobs::MemorySink::new();
        let mut engine = StreamKShape::new(small_config()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..60 {
            let x = if i % 10 == 9 {
                vec![f64::NAN; 32]
            } else if i % 2 == 0 {
                sine(32, 0.0, 0.1, &mut rng)
            } else {
                square(32, 0.1, &mut rng)
            };
            engine.push_with(&x, Obs::from_option(Some(&sink)));
        }
        assert!(sink.counter_total("stream.quarantine") > 0);
        assert!(sink.counter_total("stream.quarantine.non_finite") > 0);
        assert_eq!(sink.counter_total("stream.bootstrap"), 1);
        let events = sink.iteration_events();
        assert!(!events.is_empty(), "refresh emits IterationEvent");
        assert!(events.iter().all(|e| e.algorithm == "kshape.stream"));
    }

    #[test]
    fn refresh_budget_trip_keeps_previous_centroids() {
        let mut engine = StreamKShape::new(small_config()).unwrap();
        feed(&mut engine, 40, 7);
        let before = engine.centroids().to_vec();
        // A zero-cost budget trips immediately: refresh keeps centroids.
        engine.set_refresh_budget(Some(Budget::unlimited().with_cost_cap(1)));
        let sink = tsobs::MemorySink::new();
        let mut rng = StdRng::seed_from_u64(70);
        for i in 0..16 {
            let x = if i % 2 == 0 {
                sine(32, 0.0, 0.1, &mut rng)
            } else {
                square(32, 0.1, &mut rng)
            };
            engine.push_with(&x, Obs::from_option(Some(&sink)));
        }
        assert_eq!(
            engine.centroids(),
            &before[..],
            "budget stop froze centroids"
        );
        assert!(sink.counter_total("stream.refresh.budget_stop") > 0);
    }

    #[test]
    fn quarantine_shape_comes_from_config_not_first_arrival() {
        // The declared shape is the configuration's, permanently: a
        // malformed *first* arrival must not redefine what the stream
        // accepts, and `expected` always reports the configured shape.
        let mut engine = StreamKShape::new(small_config()).unwrap();
        for _ in 0..2 {
            match engine.push(&vec![1.0; 40]) {
                PushOutcome::Quarantined(QuarantineReason::WrongLength { expected, found }) => {
                    assert_eq!(
                        expected, 32,
                        "expected length is config.m, not a prior arrival"
                    );
                    assert_eq!(found, 40);
                }
                other => panic!("expected wrong_length, got {other:?}"),
            }
        }

        let mut mc = StreamKShape::new(small_config().with_channels(2)).unwrap();
        // First arrival carries 3 channels of the right per-channel
        // length; later pushes must still be judged against the
        // configured 2 channels (64 samples).
        match mc.push(&vec![1.0; 96]) {
            PushOutcome::Quarantined(QuarantineReason::WrongChannels { expected, found }) => {
                assert_eq!((expected, found), (2, 3));
            }
            other => panic!("expected wrong_channels, got {other:?}"),
        }
        match mc.push(&vec![1.0; 96]) {
            PushOutcome::Quarantined(QuarantineReason::WrongChannels { expected, .. }) => {
                assert_eq!(
                    expected, 2,
                    "declared channels survive a malformed first arrival"
                );
            }
            other => panic!("expected wrong_channels, got {other:?}"),
        }
        // Not a whole number of channels: reported as a sample-count
        // mismatch against the full configured frame.
        match mc.push(&vec![1.0; 70]) {
            PushOutcome::Quarantined(QuarantineReason::WrongLength { expected, found }) => {
                assert_eq!((expected, found), (64, 70));
            }
            other => panic!("expected wrong_length, got {other:?}"),
        }
        assert_eq!(mc.stats().quarantined, 3);
        assert_eq!(mc.stats().accepted, 0);
    }

    fn feed_mc(engine: &mut StreamKShape, n: usize, seed: u64) -> Vec<PushOutcome> {
        // Channel-major two-channel arrivals: channel 0 is the class
        // shape, channel 1 the same shape phase-shifted, so both
        // channels carry consistent class evidence.
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let mut x = if i % 2 == 0 {
                    sine(32, 0.0, 0.1, &mut rng)
                } else {
                    square(32, 0.1, &mut rng)
                };
                let ch1 = if i % 2 == 0 {
                    sine(32, 0.7, 0.1, &mut rng)
                } else {
                    square(32, 0.1, &mut rng)
                };
                x.extend_from_slice(&ch1);
                engine.push(&x)
            })
            .collect()
    }

    #[test]
    fn multichannel_stream_bootstraps_and_separates_classes() {
        let mut engine = StreamKShape::new(small_config().with_channels(2)).unwrap();
        let outcomes = feed_mc(&mut engine, 80, 11);
        assert!(outcomes
            .iter()
            .any(|o| matches!(o, PushOutcome::Bootstrapped { .. })));
        for c in engine.centroids() {
            assert_eq!(c.len(), 64, "centroids span both channels");
            assert!(c.iter().all(|v| v.is_finite()));
        }
        // Steady-state labels must separate the two classes.
        let mut labels = [Vec::new(), Vec::new()];
        let mut rng = StdRng::seed_from_u64(99);
        for i in 0..20 {
            let mut x = if i % 2 == 0 {
                sine(32, 0.0, 0.05, &mut rng)
            } else {
                square(32, 0.05, &mut rng)
            };
            let ch1 = if i % 2 == 0 {
                sine(32, 0.7, 0.05, &mut rng)
            } else {
                square(32, 0.05, &mut rng)
            };
            x.extend_from_slice(&ch1);
            match engine.push(&x) {
                PushOutcome::Assigned(a) => labels[i % 2].push(a.label),
                other => panic!("expected assignment, got {other:?}"),
            }
        }
        assert!(labels[0].windows(2).all(|w| w[0] == w[1]));
        assert!(labels[1].windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            labels[0][0], labels[1][0],
            "classes land in different clusters"
        );
    }

    #[test]
    fn multichannel_checkpoint_round_trips_and_univariate_format_is_unchanged() {
        // Univariate checkpoints never mention channels — the
        // pre-redesign byte format is preserved exactly.
        let mut uni = StreamKShape::new(small_config()).unwrap();
        feed(&mut uni, 40, 3);
        assert!(!uni.to_json().contains("\"channels\""));

        let mut engine = StreamKShape::new(small_config().with_channels(2)).unwrap();
        feed_mc(&mut engine, 50, 11);
        let snap = engine.to_json();
        assert!(snap.contains("\"channels\":2"));
        let mut resumed = StreamKShape::from_json(&snap).expect("well-formed checkpoint");
        assert_eq!(resumed.config().channels, 2);
        let a = feed_mc(&mut engine, 10, 55);
        let b = feed_mc(&mut resumed, 10, 55);
        assert_eq!(a, b, "resumed engine replays identically");
        assert_eq!(engine.to_json(), resumed.to_json());
    }
}
