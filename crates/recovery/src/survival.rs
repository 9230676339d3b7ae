//! Which copies survive which failure scopes.

use dsd_failure::FailureScope;
use dsd_protection::CopyKind;

use crate::protection::AppProtection;

/// The copies of `protection.app` that are still consistent and accessible
/// after `scope` (paper §3.2.1: "from these consistent secondary copies
/// that are still accessible after the failure scenario, the solver
/// chooses the copy that provides the minimum recent data loss").
///
/// Rules (see DESIGN.md §3):
///
/// * A **mirror** survives hardware failures that spare the mirror array,
///   but never a data-object failure of its own application — corruption
///   propagates through the mirror.
/// * A **snapshot** lives on the primary array: it survives data-object
///   failures (point-in-time isolation) but dies with the primary array.
/// * A **tape backup** lives in its tape library and dies only when that
///   library's site does.
/// * A **vault** copy is offsite and always survives the modeled scopes.
///
/// Returned in increasing staleness order (mirror, snapshot, backup,
/// vault).
#[must_use]
pub fn surviving_copies(protection: &AppProtection, scope: &FailureScope) -> Vec<CopyKind> {
    Survivors::of(protection, scope).iter().collect()
}

/// The rule behind [`surviving_copies`], as a set that needs no heap:
/// the scenario evaluator asks it once per affected application.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Survivors([bool; 4]);

impl Survivors {
    /// The copy kinds in increasing staleness order, one per flag.
    const ORDER: [CopyKind; 4] =
        [CopyKind::Mirror, CopyKind::Snapshot, CopyKind::Backup, CopyKind::Vault];

    /// The copies of `protection.app` that survive `scope`.
    pub(crate) fn of(protection: &AppProtection, scope: &FailureScope) -> Self {
        let placement = &protection.placement;
        let technique = &protection.technique;
        let mirror = placement.mirror.is_some_and(|mirror| {
            technique.has_mirror()
                && !scope.fails_array(mirror)
                && !scope.corrupts_data_of(protection.app)
        });
        let snapshot = technique.has_backup() && !scope.fails_array(placement.primary);
        let backup =
            placement.tape.is_some_and(|tape| technique.has_backup() && !scope.fails_tape(tape));
        Survivors([mirror, snapshot, backup, technique.has_vault()])
    }

    /// The surviving copies, in increasing staleness order.
    pub(crate) fn iter(self) -> impl Iterator<Item = CopyKind> {
        Self::ORDER.into_iter().zip(self.0).filter_map(|(copy, survives)| survives.then_some(copy))
    }

    /// True if no copy survives.
    pub(crate) fn is_empty(self) -> bool {
        !self.0.contains(&true)
    }

    /// True if `copy` survives.
    pub(crate) fn contains(self, copy: CopyKind) -> bool {
        self.iter().any(|c| c == copy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protection::Placement;
    use dsd_protection::TechniqueCatalog;
    use dsd_resources::{ArrayRef, RouteId, SiteId, TapeRef};
    use dsd_workload::AppId;

    const P: ArrayRef = ArrayRef { site: SiteId(0), slot: 0 };
    const M: ArrayRef = ArrayRef { site: SiteId(1), slot: 0 };

    fn protected(name: &str) -> AppProtection {
        let c = TechniqueCatalog::table2();
        let technique = c[c.find(name).unwrap()].clone();
        let placement = Placement {
            primary: P,
            mirror: technique.has_mirror().then_some(M),
            tape: technique.has_backup().then_some(TapeRef::first(SiteId(0))),
            route: technique.has_mirror().then_some(RouteId(0)),
            failover_site: technique.is_failover().then_some(SiteId(1)),
        };
        let config = technique.default_config();
        AppProtection { app: AppId(0), technique, config, placement }
    }

    #[test]
    fn data_object_failure_kills_mirror_keeps_pit_copies() {
        let p = protected("sync mirror (F) with backup");
        let scope = FailureScope::DataObject { app: AppId(0) };
        assert_eq!(
            surviving_copies(&p, &scope),
            vec![CopyKind::Snapshot, CopyKind::Backup, CopyKind::Vault]
        );
    }

    #[test]
    fn other_apps_object_failure_does_not_corrupt_this_mirror() {
        let p = protected("sync mirror (F) with backup");
        let scope = FailureScope::DataObject { app: AppId(5) };
        assert!(surviving_copies(&p, &scope).contains(&CopyKind::Mirror));
    }

    #[test]
    fn primary_array_failure_kills_snapshot_keeps_mirror_and_tape() {
        let p = protected("async mirror (R) with backup");
        let scope = FailureScope::DiskArray { array: P };
        assert_eq!(
            surviving_copies(&p, &scope),
            vec![CopyKind::Mirror, CopyKind::Backup, CopyKind::Vault]
        );
    }

    #[test]
    fn mirror_array_failure_spares_everything_else() {
        let p = protected("async mirror (R) with backup");
        let scope = FailureScope::DiskArray { array: M };
        assert_eq!(
            surviving_copies(&p, &scope),
            vec![CopyKind::Snapshot, CopyKind::Backup, CopyKind::Vault]
        );
    }

    #[test]
    fn primary_site_disaster_leaves_mirror_and_vault() {
        let p = protected("sync mirror (R) with backup");
        let scope = FailureScope::SiteDisaster { site: SiteId(0) };
        assert_eq!(surviving_copies(&p, &scope), vec![CopyKind::Mirror, CopyKind::Vault]);
    }

    #[test]
    fn mirror_only_design_has_nothing_after_object_failure() {
        let p = protected("sync mirror (F)");
        let scope = FailureScope::DataObject { app: AppId(0) };
        assert!(surviving_copies(&p, &scope).is_empty());
    }

    #[test]
    fn backup_only_design_survives_site_disaster_via_vault() {
        let p = protected("tape backup");
        let scope = FailureScope::SiteDisaster { site: SiteId(0) };
        assert_eq!(surviving_copies(&p, &scope), vec![CopyKind::Vault]);
    }
}
