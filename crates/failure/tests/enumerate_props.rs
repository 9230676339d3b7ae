//! Scenario enumeration against its set-based reference: the scenarios
//! and their order do not depend on how the distinct arrays and sites
//! are found.

use std::collections::BTreeSet;

use proptest::prelude::*;

use dsd_failure::{FailureModel, FailureRates, FailureScenario, FailureScope};
use dsd_resources::{ArrayRef, SiteId};
use dsd_units::PerYear;
use dsd_workload::AppId;

/// The enumeration rule written with ordered sets: one data-object
/// scenario per application in input order, then one disk-array
/// scenario per distinct primary array and one site-disaster scenario
/// per distinct primary site, both ascending, each kind skipped when its
/// rate is never.
fn reference(rates: FailureRates, primaries: &[(AppId, ArrayRef)]) -> Vec<FailureScenario> {
    let arrays: BTreeSet<ArrayRef> = primaries.iter().map(|&(_, a)| a).collect();
    let sites: BTreeSet<SiteId> = arrays.iter().map(|a| a.site).collect();
    let mut out = Vec::new();
    if !rates.data_object.is_never() {
        out.extend(primaries.iter().map(|&(app, _)| FailureScenario {
            scope: FailureScope::DataObject { app },
            likelihood: rates.data_object,
        }));
    }
    if !rates.disk_array.is_never() {
        out.extend(arrays.into_iter().map(|array| FailureScenario {
            scope: FailureScope::DiskArray { array },
            likelihood: rates.disk_array,
        }));
    }
    if !rates.site_disaster.is_never() {
        out.extend(sites.into_iter().map(|site| FailureScenario {
            scope: FailureScope::SiteDisaster { site },
            likelihood: rates.site_disaster,
        }));
    }
    out
}

fn primaries_strategy() -> impl Strategy<Value = Vec<(AppId, ArrayRef)>> {
    prop::collection::vec((0usize..64, 0usize..5, 0usize..3), 0..24).prop_map(|cells| {
        cells
            .into_iter()
            .map(|(app, site, slot)| (AppId(app), ArrayRef { site: SiteId(site), slot }))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn enumeration_matches_the_set_reference_under_every_never_combination(
        primaries in primaries_strategy(),
    ) {
        let case_study = FailureRates::case_study();
        for mask in 0..8u8 {
            let rate = |bit: u8, rate: PerYear| if mask & bit == 0 { rate } else { PerYear::NEVER };
            let rates = FailureRates {
                data_object: rate(1, case_study.data_object),
                disk_array: rate(2, case_study.disk_array),
                site_disaster: rate(4, case_study.site_disaster),
            };
            let model = FailureModel::new(rates);
            prop_assert_eq!(
                model.enumerate(primaries.iter().copied()),
                reference(rates, &primaries),
                "never mask {:03b}", mask
            );
        }
    }
}
