//! Failure rates and scenario enumeration.

use std::fmt;

use serde::{Deserialize, Serialize};

use dsd_resources::ArrayRef;
use dsd_units::PerYear;
use dsd_workload::AppId;

use crate::scope::FailureScope;

/// Annualized failure likelihoods for the three scope kinds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureRates {
    /// Data object failure rate, per application.
    pub data_object: PerYear,
    /// Disk array failure rate, per array.
    pub disk_array: PerYear,
    /// Site disaster rate, per site.
    pub site_disaster: PerYear,
}

impl FailureRates {
    /// The case-study rates (paper §4.2): data object and disk array
    /// failures once in three years, site disasters once in five years.
    #[must_use]
    pub fn case_study() -> Self {
        FailureRates {
            data_object: PerYear::once_every_years(3.0),
            disk_array: PerYear::once_every_years(3.0),
            site_disaster: PerYear::once_every_years(5.0),
        }
    }

    /// The sensitivity-study baseline (paper §4.5): data object failures
    /// twice a year, disk failures once in five years, site disasters
    /// once in twenty years.
    #[must_use]
    pub fn sensitivity_baseline() -> Self {
        FailureRates {
            data_object: PerYear::new(2.0),
            disk_array: PerYear::once_every_years(5.0),
            site_disaster: PerYear::once_every_years(20.0),
        }
    }

    /// Copy with a different data-object rate (builder style, for the
    /// Figure 5 sweep).
    #[must_use]
    pub fn with_data_object(mut self, rate: PerYear) -> Self {
        self.data_object = rate;
        self
    }

    /// Copy with a different disk-array rate (Figure 6 sweep).
    #[must_use]
    pub fn with_disk_array(mut self, rate: PerYear) -> Self {
        self.disk_array = rate;
        self
    }

    /// Copy with a different site-disaster rate (Figure 7 sweep).
    #[must_use]
    pub fn with_site_disaster(mut self, rate: PerYear) -> Self {
        self.site_disaster = rate;
        self
    }
}

impl fmt::Display for FailureRates {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "object {}, array {}, site {}",
            self.data_object, self.disk_array, self.site_disaster
        )
    }
}

/// One concrete failure scenario: a scope plus its annual likelihood.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureScenario {
    /// What fails.
    pub scope: FailureScope,
    /// Expected occurrences per year.
    pub likelihood: PerYear,
}

impl fmt::Display for FailureScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.scope, self.likelihood)
    }
}

/// Enumerates the failure scenarios relevant to a design (paper §2.4–2.5:
/// penalties are summed over all failure scenarios, weighted by
/// likelihood).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureModel {
    rates: FailureRates,
}

impl FailureModel {
    /// Creates a model with the given rates.
    #[must_use]
    pub fn new(rates: FailureRates) -> Self {
        FailureModel { rates }
    }

    /// The configured rates.
    #[must_use]
    pub fn rates(&self) -> FailureRates {
        self.rates
    }

    /// Enumerates scenarios for a design given each application's primary
    /// placement:
    ///
    /// * one [`FailureScope::DataObject`] per application,
    /// * one [`FailureScope::DiskArray`] per distinct primary-hosting
    ///   array,
    /// * one [`FailureScope::SiteDisaster`] per distinct primary-hosting
    ///   site.
    ///
    /// Scenarios whose configured rate is [`PerYear::NEVER`] are skipped.
    /// Data-object scenarios come in `primaries` order; arrays and sites
    /// in ascending order.
    #[must_use]
    pub fn enumerate(
        &self,
        primaries: impl IntoIterator<Item = (AppId, ArrayRef)>,
    ) -> Vec<FailureScenario> {
        let primaries = primaries.into_iter();
        let objects = !self.rates.data_object.is_never();
        let mut out = Vec::with_capacity(if objects { primaries.size_hint().0 } else { 0 });
        let mut arrays = Vec::with_capacity(primaries.size_hint().0);
        for (app, primary) in primaries {
            if objects {
                out.push(FailureScenario {
                    scope: FailureScope::DataObject { app },
                    likelihood: self.rates.data_object,
                });
            }
            arrays.push(primary);
        }
        // Sorted by (site, slot), the distinct arrays list each
        // primary-hosting site in one ascending run.
        arrays.sort_unstable();
        arrays.dedup();
        let sites = || {
            let mut last = None;
            arrays.iter().map(|a| a.site).filter(move |&site| last.replace(site) != Some(site))
        };
        let arrays_listed = !self.rates.disk_array.is_never();
        let sites_listed = !self.rates.site_disaster.is_never();
        out.reserve_exact(
            if arrays_listed { arrays.len() } else { 0 }
                + if sites_listed { sites().count() } else { 0 },
        );
        if arrays_listed {
            out.extend(arrays.iter().map(|&array| FailureScenario {
                scope: FailureScope::DiskArray { array },
                likelihood: self.rates.disk_array,
            }));
        }
        if sites_listed {
            out.extend(sites().map(|site| FailureScenario {
                scope: FailureScope::SiteDisaster { site },
                likelihood: self.rates.site_disaster,
            }));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsd_resources::SiteId;

    fn placements() -> Vec<(AppId, ArrayRef)> {
        vec![
            (AppId(0), ArrayRef { site: SiteId(0), slot: 0 }),
            (AppId(1), ArrayRef { site: SiteId(0), slot: 0 }),
            (AppId(2), ArrayRef { site: SiteId(0), slot: 1 }),
            (AppId(3), ArrayRef { site: SiteId(1), slot: 0 }),
        ]
    }

    #[test]
    fn enumeration_counts_scopes_correctly() {
        let model = FailureModel::new(FailureRates::case_study());
        let scenarios = model.enumerate(placements());
        let objects =
            scenarios.iter().filter(|s| matches!(s.scope, FailureScope::DataObject { .. })).count();
        let arrays =
            scenarios.iter().filter(|s| matches!(s.scope, FailureScope::DiskArray { .. })).count();
        let sites = scenarios
            .iter()
            .filter(|s| matches!(s.scope, FailureScope::SiteDisaster { .. }))
            .count();
        assert_eq!((objects, arrays, sites), (4, 3, 2));
    }

    #[test]
    fn likelihoods_match_rates() {
        let rates = FailureRates::case_study();
        let model = FailureModel::new(rates);
        for s in model.enumerate(placements()) {
            let expected = match s.scope {
                FailureScope::DataObject { .. } => rates.data_object,
                FailureScope::DiskArray { .. } => rates.disk_array,
                FailureScope::SiteDisaster { .. } => rates.site_disaster,
            };
            assert_eq!(s.likelihood, expected);
        }
    }

    #[test]
    fn never_rates_drop_scenarios() {
        let rates = FailureRates::case_study()
            .with_disk_array(PerYear::NEVER)
            .with_site_disaster(PerYear::NEVER);
        let scenarios = FailureModel::new(rates).enumerate(placements());
        assert_eq!(scenarios.len(), 4, "only the per-app data object scenarios remain");
    }

    #[test]
    fn empty_design_has_no_scenarios() {
        let model = FailureModel::new(FailureRates::case_study());
        assert!(model.enumerate(Vec::new()).is_empty());
    }

    #[test]
    fn paper_rate_presets() {
        let cs = FailureRates::case_study();
        assert_eq!(cs.data_object.mean_interval_years(), Some(3.0));
        assert_eq!(cs.disk_array.mean_interval_years(), Some(3.0));
        assert_eq!(cs.site_disaster.mean_interval_years(), Some(5.0));
        let sb = FailureRates::sensitivity_baseline();
        assert_eq!(sb.data_object.as_f64(), 2.0);
        assert_eq!(sb.disk_array.mean_interval_years(), Some(5.0));
        assert_eq!(sb.site_disaster.mean_interval_years(), Some(20.0));
    }

    #[test]
    fn builders_replace_single_rate() {
        let r = FailureRates::case_study().with_data_object(PerYear::new(4.0));
        assert_eq!(r.data_object.as_f64(), 4.0);
        assert_eq!(r.disk_array, FailureRates::case_study().disk_array);
    }

    #[test]
    fn display_mentions_all_rates() {
        let text = FailureRates::case_study().to_string();
        assert!(text.contains("object") && text.contains("array") && text.contains("site"));
        let s = FailureScenario {
            scope: FailureScope::DataObject { app: AppId(0) },
            likelihood: PerYear::new(2.0),
        };
        assert!(s.to_string().contains("2.0/yr"));
    }
}
