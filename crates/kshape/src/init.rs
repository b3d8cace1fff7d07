//! Cluster initialization strategies for k-Shape.
//!
//! The paper initializes by assigning every series to a random cluster
//! (Algorithm 3's `IDX` "initialized randomly"). As an extension (flagged
//! in DESIGN.md and exercised by the ablation bench), a k-means++-style
//! seeding over SBD is also provided: it picks spread-out series as initial
//! centroids and assigns members to the nearest one, which typically
//! reduces the restarts needed.

use tsrand::Rng;
use tsrun::RunControl;

use crate::bank::CentroidBank;
use crate::spectra::SpectraEngine;

/// Initialization strategy for [`crate::algorithm::KShape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitStrategy {
    /// Uniform random assignment of series to clusters (the paper's
    /// default).
    #[default]
    Random,
    /// k-means++-style seeding under SBD (extension).
    PlusPlus,
}

/// Randomly assigns `n` series to `k` clusters, guaranteeing every cluster
/// receives at least one member when `n >= k`.
///
/// # Panics
///
/// Panics if `k == 0`.
#[must_use]
pub fn random_assignment<R: Rng>(n: usize, k: usize, rng: &mut R) -> Vec<usize> {
    assert!(k > 0, "k must be positive");
    let mut labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..k)).collect();
    if n >= k {
        // Patch any empty cluster by stealing a random member.
        loop {
            let mut counts = vec![0usize; k];
            for &l in &labels {
                counts[l] += 1;
            }
            let Some(empty) = counts.iter().position(|&c| c == 0) else {
                break;
            };
            // Steal from a cluster with at least two members.
            let donor_positions: Vec<usize> = labels
                .iter()
                .enumerate()
                .filter(|&(_, &l)| counts[l] > 1)
                .map(|(i, _)| i)
                .collect();
            let victim = donor_positions[rng.gen_range(0..donor_positions.len())];
            labels[victim] = empty;
        }
    }
    labels
}

/// k-means++-style assignment under SBD: seeds `k` spread-out centroids,
/// then assigns every series to the nearest seed.
///
/// # Panics
///
/// Panics if `k == 0` or `series` is empty or ragged.
#[must_use]
pub fn plus_plus_assignment<R: Rng>(series: &[Vec<f64>], k: usize, rng: &mut R) -> Vec<usize> {
    assert!(k > 0, "k must be positive");
    assert!(!series.is_empty(), "need at least one series");
    let engine = SpectraEngine::from_validated(series, series[0].len(), 1);
    plus_plus_assignment_spectra(&engine, k, rng)
}

/// [`plus_plus_assignment`] over an existing spectrum cache: every seeding
/// sweep is a batched kernel pass, with no per-pair FFTs. Distances come
/// from the same kernel as the pairwise path, so the sampled seeds — and
/// the RNG stream — are bit-identical to [`plus_plus_assignment`].
pub(crate) fn plus_plus_assignment_spectra<R: Rng>(
    engine: &SpectraEngine<'_>,
    k: usize,
    rng: &mut R,
) -> Vec<usize> {
    assert!(k > 0, "k must be positive");
    let n = engine.len();
    assert!(n > 0, "need at least one series");

    let mut seeds: Vec<usize> = Vec::with_capacity(k);
    seeds.push(rng.gen_range(0..n));
    // min squared SBD to the chosen seeds so far.
    let mut min_d2 = vec![f64::INFINITY; n];
    let mut d = vec![0.0f64; n];
    while seeds.len() < k {
        let last = *seeds.last().expect("non-empty");
        engine.distances_to(engine.spectrum(last), &mut d);
        for (acc, &di) in min_d2.iter_mut().zip(d.iter()) {
            *acc = acc.min(di * di);
        }
        // Sample proportionally to min_d2 (the ++ rule); when all
        // remaining distances are zero (duplicate-heavy data) fall back
        // to a uniform pick.
        let next = rng
            .choose_weighted_index(&min_d2)
            .unwrap_or_else(|| rng.gen_range(0..n));
        seeds.push(next);
    }

    // Assign to the nearest seed.
    let rows: Vec<Vec<f64>> = seeds.iter().map(|&s| engine.view()[s].clone()).collect();
    let mut bank = CentroidBank::fixed(engine.plan().series_len(), 1).expect("rows are non-empty");
    bank.load(&rows).expect("seeds are rows of the engine");
    let mut labels = vec![0usize; n];
    let (mut dists, mut shifts) = (vec![0.0f64; n], vec![0isize; n]);
    engine
        .assign(
            &bank,
            &mut labels,
            &mut dists,
            &mut shifts,
            &RunControl::unlimited(),
        )
        .expect("unlimited control cannot trip");
    labels
}

#[cfg(test)]
mod tests {
    use super::{plus_plus_assignment, random_assignment, InitStrategy};
    use tsrand::StdRng;

    #[test]
    fn random_assignment_covers_all_clusters() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let labels = random_assignment(10, 4, &mut rng);
            assert_eq!(labels.len(), 10);
            for j in 0..4 {
                assert!(labels.contains(&j), "cluster {j} empty: {labels:?}");
            }
        }
    }

    #[test]
    fn random_assignment_fewer_series_than_clusters() {
        let mut rng = StdRng::seed_from_u64(2);
        let labels = random_assignment(2, 5, &mut rng);
        assert_eq!(labels.len(), 2);
        assert!(labels.iter().all(|&l| l < 5));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn random_assignment_rejects_zero_k() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = random_assignment(5, 0, &mut rng);
    }

    #[test]
    fn plus_plus_separates_obvious_groups() {
        // Two clearly distinct shapes.
        let up: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let down: Vec<f64> = (0..16).map(|i| (15 - i) as f64).collect();
        let series = vec![up.clone(), up.clone(), down.clone(), down.clone()];
        let mut rng = StdRng::seed_from_u64(3);
        let labels = plus_plus_assignment(&series, 2, &mut rng);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn plus_plus_handles_identical_series() {
        let s = vec![vec![1.0, 2.0, 3.0]; 5];
        let mut rng = StdRng::seed_from_u64(4);
        let labels = plus_plus_assignment(&s, 2, &mut rng);
        assert_eq!(labels.len(), 5);
        assert!(labels.iter().all(|&l| l < 2));
    }

    #[test]
    fn default_strategy_is_random() {
        assert_eq!(InitStrategy::default(), InitStrategy::Random);
    }
}
