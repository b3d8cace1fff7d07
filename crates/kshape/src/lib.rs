//! # k-Shape: Efficient and Accurate Clustering of Time Series
//!
//! A faithful Rust implementation of the paper's contribution
//! (Paparrizos & Gravano, SIGMOD 2015):
//!
//! * [`ncc`] — the cross-correlation normalizations `NCCb`, `NCCu`, `NCCc`
//!   (Equation 8, Figure 3, Appendix A),
//! * [`sbd`] — the **shape-based distance** (Equation 9, Algorithm 1),
//!   computed with a power-of-two-padded FFT, plus the `NoFFT` and
//!   `NoPow2` ablation variants of Table 2,
//! * [`extraction`] — **shape extraction** (Algorithm 2): the cluster
//!   centroid as the maximizer of the Rayleigh quotient of `M = QᵀSQ`,
//! * [`algorithm`] — the **k-Shape** clustering algorithm (Algorithm 3),
//! * [`bank`] — its assignment rule, the SBD-nearest centroid with its
//!   shift, behind every fit, the stream engine and the server,
//! * [`outofcore`] — the same refinement loop streamed over a
//!   [`tsdata::store::SeriesView`] row source with working memory
//!   independent of `n` (Figure 12 scale),
//! * [`init`] — random and k-shape++-style initializations,
//! * [`multi`] — best-of-restarts driver selecting the run by objective,
//! * [`sbd_unequal`] — the kernels behind SBD across different lengths
//!   (footnote 3),
//! * [`validity`] — selecting the number of clusters k with intrinsic
//!   criteria (paper footnote 2): silhouette under SBD plus the inertia
//!   elbow curve.
//!
//! # Quickstart
//!
//! ```
//! use kshape::{KShape, KShapeOptions};
//!
//! // Two obvious shape classes: rising and falling ramps, with phase jitter.
//! let mut series = Vec::new();
//! for s in 0..4 {
//!     let up: Vec<f64> = (0..32).map(|i| ((i + s) % 32) as f64).collect();
//!     let down: Vec<f64> = (0..32).map(|i| (31 - (i + s) % 32) as f64).collect();
//!     series.push(up);
//!     series.push(down);
//! }
//! let result = KShape::fit_with(&series, &KShapeOptions::new(2).with_seed(42))
//!     .expect("clean input");
//! assert_eq!(result.labels.len(), 8);
//! // Members 0,2,4,... share one cluster and 1,3,5,... the other.
//! assert_eq!(result.labels[0], result.labels[2]);
//! assert_ne!(result.labels[0], result.labels[1]);
//! ```
//!
//! Budgets, cancellation, and telemetry all ride on the same options
//! object (see [`KShapeOptions`]), which is the only fit entry point —
//! the legacy `fit` / `try_fit` / `try_fit_with_control` triplet has
//! been removed. Distances follow the same convention through
//! [`Sbd::distance`] with [`SbdOptions`], which dispatches equal-length,
//! unequal-length, rescaled, and multichannel (summed per-channel NCC)
//! SBD from one call.

#![warn(missing_docs)]

pub mod algorithm;
pub mod bank;
pub mod extraction;
pub mod init;
pub mod multi;
pub mod ncc;
pub mod outofcore;
pub mod sbd;
pub mod sbd_unequal;
pub mod spectra;
pub mod stream;
pub mod validity;

pub use algorithm::{KShape, KShapeConfig, KShapeOptions, KShapeResult};
pub use extraction::{shape_extraction, try_shape_extraction, GramAccumulator};
pub use outofcore::{assign_store, fit_store};
pub use sbd::{sbd, try_sbd, CacheStats, Sbd, SbdOptions, SbdResult};
pub use spectra::SpectraEngine;
pub use stream::{
    Assignment, Decay, DriftConfig, PushOutcome, QuarantineReason, ReseedFit, ReseedRequest,
    Reseeder, StreamConfig, StreamKShape, StreamStats,
};
pub use tserror::{TsError, TsResult};
