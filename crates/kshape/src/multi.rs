//! Best-of-restarts driver for k-Shape.
//!
//! k-Shape, like k-means, converges to a local optimum that depends on the
//! random initialization. The paper reports the average Rand index over 10
//! random runs; practical users usually want the *best* run instead.
//! [`try_fit_best`] runs `n_restarts` independent fits and keeps the one
//! with the lowest inertia.

use tserror::{TsError, TsResult};
use tsrun::RunControl;

use crate::algorithm::{KShape, KShapeConfig, KShapeResult};

/// Runs k-Shape `n_restarts` times with seeds `base_seed..base_seed + r`
/// and keeps the fit with the lowest inertia (the Equation 1 objective
/// under SBD); the first such fit wins a tie.
///
/// Restarts that stop at `max_iter` without converging are *not* an
/// error here — the `converged` flag reports them — so the sweep can
/// still pick the best local optimum.
///
/// # Errors
///
/// [`TsError::EmptyInput`] when `n_restarts == 0`, plus every validation
/// error of [`KShape::fit_with`].
pub fn try_fit_best(
    config: &KShapeConfig,
    series: &[Vec<f64>],
    n_restarts: usize,
) -> TsResult<KShapeResult> {
    let ctrl = RunControl::unlimited();
    let mut best: Option<KShapeResult> = None;
    for r in 0..n_restarts {
        let cfg = KShapeConfig {
            seed: config.seed.wrapping_add(r as u64),
            ..*config
        };
        let (fit, _) = KShape::new(cfg).fit_core(series, &ctrl, tsobs::Obs::none())?;
        if best
            .as_ref()
            .is_none_or(|b| fit.inertia.total_cmp(&b.inertia).is_lt())
        {
            best = Some(fit);
        }
    }
    best.ok_or(TsError::EmptyInput)
}

#[cfg(test)]
mod tests {
    use super::try_fit_best;
    use crate::algorithm::{KShape, KShapeConfig, KShapeOptions};
    use tsdata::normalize::z_normalize;
    use tserror::TsError;

    fn data() -> Vec<Vec<f64>> {
        let m = 48;
        let mut out = Vec::new();
        for j in 0..5 {
            let c = 12.0 + j as f64;
            out.push(z_normalize(
                &(0..m)
                    .map(|i| (-((i as f64 - c) / 2.0).powi(2)).exp())
                    .collect::<Vec<_>>(),
            ));
            let c = 34.0 + j as f64;
            out.push(z_normalize(
                &(0..m)
                    .map(|i| -(-((i as f64 - c) / 5.0).powi(2)).exp())
                    .collect::<Vec<_>>(),
            ));
        }
        out
    }

    #[test]
    fn best_is_the_lowest_inertia_fit_over_consecutive_seeds() {
        let cfg = KShapeConfig {
            k: 3,
            seed: 100,
            ..Default::default()
        };
        let series = data();
        let best = try_fit_best(&cfg, &series, 5).expect("clean data");
        let runs: Vec<_> = (0..5u64)
            .map(|r| {
                let seeded = KShapeConfig {
                    seed: 100 + r,
                    ..cfg
                };
                KShape::fit_with(&series, &KShapeOptions::from(seeded)).expect("clean data")
            })
            .collect();
        let min = runs
            .iter()
            .min_by(|a, b| a.inertia.total_cmp(&b.inertia))
            .unwrap();
        assert_eq!(best.labels, min.labels);
        assert_eq!(best.inertia.to_bits(), min.inertia.to_bits());
    }

    #[test]
    fn rejects_zero_restarts_and_bad_input_with_typed_errors() {
        let cfg = KShapeConfig {
            k: 2,
            seed: 1,
            ..Default::default()
        };
        assert!(matches!(
            try_fit_best(&cfg, &data(), 0),
            Err(TsError::EmptyInput)
        ));
        assert!(matches!(
            try_fit_best(&cfg, &[], 2),
            Err(TsError::EmptyInput)
        ));
    }
}
