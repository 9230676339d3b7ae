//! Pure random sampling of the solution space (paper §4.3.1, Figure 2).
//!
//! "We estimate solution quality by randomly sampling a large collection
//! of solutions and evaluating their overall costs ... the quality of the
//! heuristics' solutions [is expressed] in terms of where they reside in
//! the empirical distribution of solutions."

use rand::Rng;

use crate::env::Environment;
use crate::heuristics::random::random_design;

/// Summary of a random sampling run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SampleSummary {
    /// Total cost of each feasible sampled design, in dollars.
    pub costs: Vec<f64>,
    /// For each feasible sample, how many applications have *no
    /// point-in-time copy* (no snapshot/backup chain): mirrors replicate
    /// corruption, so these applications are unprotected against data
    /// object failures. This is the dominant design-tradeoff behind the
    /// distribution's modes (§4.3.1 — "higher-cost solutions provide
    /// inadequate protection for workloads with stringent requirements";
    /// §4.3.2 — every good design "employ\[s\] some form of tape backup").
    pub underprotected: Vec<usize>,
    /// Number of attempted samples that were infeasible.
    pub infeasible: usize,
}

impl SampleSummary {
    /// Minimum sampled cost.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        self.costs.iter().copied().reduce(f64::min)
    }

    /// Maximum sampled cost.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        self.costs.iter().copied().reduce(f64::max)
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of the sampled costs by the
    /// nearest-rank method.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]: {q}");
        if self.costs.is_empty() {
            return None;
        }
        let mut sorted = self.costs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite costs"));
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }

    /// Pearson correlation between a sample's cost and its count of
    /// under-protected stringent applications. The paper's reading of
    /// Figure 2 predicts a strongly positive value.
    #[must_use]
    pub fn underprotection_correlation(&self) -> Option<f64> {
        let n = self.costs.len();
        if n < 2 || self.underprotected.len() != n {
            return None;
        }
        let xs = &self.costs;
        let ys: Vec<f64> = self.underprotected.iter().map(|&u| u as f64).collect();
        let mx = xs.iter().sum::<f64>() / n as f64;
        let my = ys.iter().sum::<f64>() / n as f64;
        let mut cov = 0.0;
        let mut vx = 0.0;
        let mut vy = 0.0;
        for i in 0..n {
            cov += (xs[i] - mx) * (ys[i] - my);
            vx += (xs[i] - mx).powi(2);
            vy += (ys[i] - my).powi(2);
        }
        if vx <= 0.0 || vy <= 0.0 {
            return None;
        }
        Some(cov / (vx * vy).sqrt())
    }

    /// Fraction of samples with cost at or below `cost` — where a
    /// heuristic's solution "resides in the empirical distribution".
    #[must_use]
    pub fn percentile_of(&self, cost: f64) -> Option<f64> {
        if self.costs.is_empty() {
            return None;
        }
        let below = self.costs.iter().filter(|&&c| c <= cost).count();
        Some(below as f64 / self.costs.len() as f64)
    }
}

/// One bin of a cost histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramBin {
    /// Inclusive lower edge.
    pub lo: f64,
    /// Exclusive upper edge (inclusive for the last bin).
    pub hi: f64,
    /// Samples falling in the bin.
    pub count: usize,
}

/// Builds an equal-width histogram of `values` with `bins` bins over
/// `[min, max]`. Returns an empty vector for empty input.
///
/// # Panics
///
/// Panics if `bins` is zero.
#[must_use]
pub fn histogram(values: &[f64], bins: usize) -> Vec<HistogramBin> {
    assert!(bins > 0, "histogram needs at least one bin");
    if values.is_empty() {
        return Vec::new();
    }
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let width = if max > min { (max - min) / bins as f64 } else { 1.0 };
    let mut out: Vec<HistogramBin> = (0..bins)
        .map(|i| HistogramBin {
            lo: min + width * i as f64,
            hi: min + width * (i + 1) as f64,
            count: 0,
        })
        .collect();
    for &v in values {
        let idx = (((v - min) / width) as usize).min(bins - 1);
        out[idx].count += 1;
    }
    out
}

/// Random solution-space sampler.
#[derive(Debug, Clone, Copy)]
pub struct RandomSampler<'e> {
    env: &'e Environment,
    tries_per_app: usize,
}

impl<'e> RandomSampler<'e> {
    /// Creates the sampler for an environment.
    #[must_use]
    pub fn new(env: &'e Environment) -> Self {
        RandomSampler { env, tries_per_app: 10 }
    }

    /// Attempts `n` random designs and records every feasible design's
    /// total cost (no configuration optimization — raw solution-space
    /// points, as in Figure 2).
    pub fn sample<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> SampleSummary {
        let mut summary = SampleSummary::default();
        for _ in 0..n {
            match random_design(self.env, self.tries_per_app, rng) {
                Some(mut c) => {
                    let cost = c.evaluate(self.env).total().as_f64();
                    if cost.is_finite() {
                        let underprotected = c
                            .assignments()
                            .values()
                            .filter(|a| !self.env.catalog[a.technique].has_backup())
                            .count();
                        summary.costs.push(cost);
                        summary.underprotected.push(underprotected);
                    } else {
                        summary.infeasible += 1;
                    }
                }
                None => summary.infeasible += 1,
            }
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsd_failure::{FailureModel, FailureRates};
    use dsd_protection::TechniqueCatalog;
    use dsd_resources::{DeviceSpec, NetworkSpec, Site, Topology};
    use dsd_workload::WorkloadSet;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::Arc;

    fn env() -> Environment {
        let mk = |i: usize| {
            Site::new(i, format!("P{i}"))
                .with_array_slot(DeviceSpec::xp1200())
                .with_array_slot(DeviceSpec::msa1500())
                .with_tape_library(DeviceSpec::tape_library_high())
                .with_compute(8)
        };
        Environment::new(
            WorkloadSet::scaled_paper_mix(4),
            Arc::new(Topology::fully_connected(vec![mk(0), mk(1)], NetworkSpec::high())),
            TechniqueCatalog::table2(),
            FailureModel::new(FailureRates::case_study()),
        )
    }

    #[test]
    fn sampling_produces_a_spread() {
        let e = env();
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let s = RandomSampler::new(&e).sample(60, &mut rng);
        assert!(s.costs.len() > 10, "most random designs are feasible here");
        let (min, max) = (s.min().unwrap(), s.max().unwrap());
        assert!(max > min * 1.5, "solution costs vary widely: {min}..{max}");
    }

    #[test]
    fn underprotection_drives_cost() {
        let e = env();
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let s = RandomSampler::new(&e).sample(120, &mut rng);
        let r = s.underprotection_correlation().expect("enough samples");
        assert!(
            r > 0.5,
            "cost should correlate strongly with under-protecting stringent apps: r={r:.2}"
        );
    }

    #[test]
    fn quantiles_are_ordered() {
        let e = env();
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let s = RandomSampler::new(&e).sample(50, &mut rng);
        let q10 = s.quantile(0.1).unwrap();
        let q50 = s.quantile(0.5).unwrap();
        let q90 = s.quantile(0.9).unwrap();
        assert!(q10 <= q50 && q50 <= q90);
        assert_eq!(s.quantile(0.0).unwrap(), s.min().unwrap());
        assert_eq!(s.quantile(1.0).unwrap(), s.max().unwrap());
    }

    #[test]
    fn percentile_of_extremes() {
        let s = SampleSummary {
            costs: vec![1.0, 2.0, 3.0, 4.0],
            underprotected: vec![0, 0, 1, 2],
            infeasible: 0,
        };
        assert_eq!(s.percentile_of(0.5), Some(0.0));
        assert_eq!(s.percentile_of(2.5), Some(0.5));
        assert_eq!(s.percentile_of(10.0), Some(1.0));
        assert_eq!(SampleSummary::default().percentile_of(1.0), None);
    }

    #[test]
    fn histogram_covers_all_samples() {
        let values = [1.0, 1.5, 2.0, 2.5, 9.9, 10.0];
        let bins = histogram(&values, 3);
        assert_eq!(bins.len(), 3);
        let total: usize = bins.iter().map(|b| b.count).sum();
        assert_eq!(total, values.len());
        assert_eq!(bins[0].lo, 1.0);
        assert_eq!(bins[2].hi, 10.0);
    }

    #[test]
    fn histogram_of_identical_values() {
        let bins = histogram(&[5.0; 7], 4);
        let total: usize = bins.iter().map(|b| b.count).sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn histogram_of_empty_is_empty() {
        assert!(histogram(&[], 5).is_empty());
    }
}
