//! Techniques: mirrors, backup chains, recovery kinds, staleness algebra.

use std::fmt;

use serde::{Deserialize, Serialize};

use dsd_units::TimeSpan;
use dsd_workload::AppClass;

/// How a failed application is brought back (paper §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RecoveryKind {
    /// Fail over to the secondary mirror and resume computation there;
    /// requires spare compute at the mirror site. Fail-back runs in the
    /// background and does not extend the outage.
    Failover,
    /// Restore a secondary copy onto (repaired) primary resources.
    Reconstruct,
}

impl fmt::Display for RecoveryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryKind::Failover => f.write_str("failover"),
            RecoveryKind::Reconstruct => f.write_str("reconstruct"),
        }
    }
}

/// Remote inter-array mirroring (Table 2, level 1 "M" rows).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MirrorSpec {
    /// Synchronous (writes acknowledged at both sites) or asynchronous
    /// (updates batched and shipped every `acc_win`).
    pub sync: bool,
    /// Accumulation window: 0.5 min for sync, 10 min for async in Table 2.
    pub acc_win: TimeSpan,
}

impl MirrorSpec {
    /// Table 2 synchronous mirror (0.5 min accumulation window).
    #[must_use]
    pub fn synchronous() -> Self {
        MirrorSpec { sync: true, acc_win: TimeSpan::from_mins(0.5) }
    }

    /// Table 2 asynchronous mirror (10 min accumulation window).
    #[must_use]
    pub fn asynchronous() -> Self {
        MirrorSpec { sync: false, acc_win: TimeSpan::from_mins(10.0) }
    }
}

/// What a backup cycle writes to tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BackupMode {
    /// A full copy every backup cycle (the paper's Table 2 scheme).
    #[default]
    FullOnly,
    /// A full copy every backup cycle plus an incremental of the unique
    /// updates at every snapshot interval — an extension of the Table 2
    /// scheme (cf. Chervenak et al.'s backup-technique survey, paper
    /// ref \[5\]). Tape copies are much fresher, at the cost of extra tape
    /// bandwidth/capacity and a slower restore (the full must be
    /// replayed with its incrementals).
    FullPlusIncrementals,
}

impl fmt::Display for BackupMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackupMode::FullOnly => f.write_str("full"),
            BackupMode::FullPlusIncrementals => f.write_str("full+incremental"),
        }
    }
}

/// Snapshot → tape backup → offsite vault chain (Table 2 "S"/tape/vault
/// levels). Windows are the *defaults*; the configuration solver explores
/// discrete alternatives via [`Technique::config_space`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackupChain {
    /// Snapshot accumulation window (12 h in Table 2). Snapshots are
    /// array-internal and propagate instantly.
    pub snapshot_interval: TimeSpan,
    /// Tape backup accumulation window (7 days in Table 2); propagation is
    /// the tape transfer time of a full copy.
    pub backup_cycle: TimeSpan,
    /// Vault accumulation window (28 days in Table 2).
    pub vault_cycle: TimeSpan,
    /// Vault propagation window (1 day in Table 2: shipping tapes offsite).
    pub vault_prop: TimeSpan,
    /// Whether the chain includes the offsite vault level.
    pub vault: bool,
    /// Full-only (Table 2) or full-plus-incremental backups.
    pub mode: BackupMode,
}

impl BackupChain {
    /// The Table 2 chain: 12 h snapshots, 7 d full tape backups, 28 d
    /// vault with 1 d shipping.
    #[must_use]
    pub fn table2() -> Self {
        BackupChain {
            snapshot_interval: TimeSpan::from_hours(12.0),
            backup_cycle: TimeSpan::from_days(7.0),
            vault_cycle: TimeSpan::from_days(28.0),
            vault_prop: TimeSpan::from_days(1.0),
            vault: true,
            mode: BackupMode::FullOnly,
        }
    }

    /// The Table 2 chain with incremental backups shipped to tape at
    /// every snapshot interval (extension).
    #[must_use]
    pub fn table2_incremental() -> Self {
        BackupChain { mode: BackupMode::FullPlusIncrementals, ..BackupChain::table2() }
    }

    /// True if the chain ships incrementals.
    #[must_use]
    pub fn is_incremental(&self) -> bool {
        self.mode == BackupMode::FullPlusIncrementals
    }
}

/// Tunable configuration parameters of a technique — the knobs the
/// configuration solver optimizes (paper §3.2: "exhaustive search over a
/// discretized range of values").
#[derive(Debug, Clone, Copy, PartialEq, Hash, Serialize, Deserialize)]
pub struct TechniqueConfig {
    /// Chosen snapshot accumulation window (policy: 12-hour increments).
    pub snapshot_interval: TimeSpan,
    /// Chosen tape backup cycle (policy: multiples of the 7-day base).
    pub backup_cycle: TimeSpan,
}

impl TechniqueConfig {
    /// Returns true if both windows are positive and finite and
    /// snapshot ≤ backup.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        let window = |t: TimeSpan| t.as_secs() > 0.0 && t.as_secs().is_finite();
        window(self.snapshot_interval)
            && window(self.backup_cycle)
            && self.snapshot_interval <= self.backup_cycle
    }
}

impl fmt::Display for TechniqueConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snap {} / backup {}", self.snapshot_interval, self.backup_cycle)
    }
}

/// The kinds of data copies a technique maintains, in increasing staleness
/// order. Which copies survive which failures is decided by the failure
/// model; which copy is *used* for a recovery is the accessible one with
/// minimum staleness (paper §3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CopyKind {
    /// Remote mirror on a peer disk array.
    Mirror,
    /// Array-internal point-in-time snapshot (same array as the primary).
    Snapshot,
    /// Full backup in a tape library at the primary site.
    Backup,
    /// Offsite vault copy.
    Vault,
}

impl CopyKind {
    /// All copy kinds in increasing-staleness order.
    pub const ALL: [CopyKind; 4] =
        [CopyKind::Mirror, CopyKind::Snapshot, CopyKind::Backup, CopyKind::Vault];
}

impl fmt::Display for CopyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CopyKind::Mirror => "mirror",
            CopyKind::Snapshot => "snapshot",
            CopyKind::Backup => "tape backup",
            CopyKind::Vault => "vault",
        };
        f.write_str(s)
    }
}

/// Propagation delays that depend on provisioned resources rather than on
/// the technique itself (Table 2 marks these "n/w" and "tape"): the time
/// for an update batch to cross the inter-site network and the time for a
/// full backup to stream to tape.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PropagationDelays {
    /// Network propagation of an async mirror batch.
    pub network: TimeSpan,
    /// Tape transfer time of one full backup.
    pub tape: TimeSpan,
}

/// A data protection and recovery technique — one row of Table 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Technique {
    /// Descriptive name, e.g. `"async mirror (F) with backup"`.
    pub name: String,
    /// Protection category (paper §3.1.3): failover-mirror techniques are
    /// gold, reconstruct-mirror techniques silver, backup-only bronze.
    pub category: AppClass,
    /// How recovery is performed.
    pub recovery: RecoveryKind,
    /// Remote mirroring level, if any.
    pub mirror: Option<MirrorSpec>,
    /// Snapshot/backup/vault chain, if any.
    pub backup: Option<BackupChain>,
}

impl Technique {
    /// Creates a technique, validating that it protects *something* and
    /// that failover recovery has a mirror to fail over to.
    ///
    /// # Panics
    ///
    /// Panics if neither a mirror nor a backup chain is present, or if
    /// `recovery` is [`RecoveryKind::Failover`] without a mirror.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        category: AppClass,
        recovery: RecoveryKind,
        mirror: Option<MirrorSpec>,
        backup: Option<BackupChain>,
    ) -> Self {
        assert!(
            mirror.is_some() || backup.is_some(),
            "a technique must maintain at least one secondary copy"
        );
        assert!(
            !(recovery == RecoveryKind::Failover && mirror.is_none()),
            "failover recovery requires a mirror"
        );
        Technique { name: name.into(), category, recovery, mirror, backup }
    }

    /// True if the technique maintains a remote mirror.
    #[must_use]
    pub fn has_mirror(&self) -> bool {
        self.mirror.is_some()
    }

    /// True if the mirror, if any, is synchronous.
    #[must_use]
    pub fn has_sync_mirror(&self) -> bool {
        self.mirror.is_some_and(|m| m.sync)
    }

    /// True if the technique maintains a snapshot/backup chain.
    #[must_use]
    pub fn has_backup(&self) -> bool {
        self.backup.is_some()
    }

    /// True if the backup chain ships copies to an offsite vault.
    #[must_use]
    pub fn has_vault(&self) -> bool {
        self.backup.is_some_and(|b| b.vault)
    }

    /// True if recovery is by failover (needs spare compute at the mirror
    /// site).
    #[must_use]
    pub fn is_failover(&self) -> bool {
        self.recovery == RecoveryKind::Failover
    }

    /// The copies this technique maintains, in increasing staleness order.
    #[must_use]
    pub fn copies(&self) -> Vec<CopyKind> {
        let mut out = Vec::with_capacity(4);
        if self.mirror.is_some() {
            out.push(CopyKind::Mirror);
        }
        if let Some(chain) = self.backup {
            out.push(CopyKind::Snapshot);
            out.push(CopyKind::Backup);
            if chain.vault {
                out.push(CopyKind::Vault);
            }
        }
        out
    }

    /// True if this technique maintains the given copy.
    #[must_use]
    pub fn has_copy(&self, copy: CopyKind) -> bool {
        match copy {
            CopyKind::Mirror => self.mirror.is_some(),
            CopyKind::Snapshot | CopyKind::Backup => self.backup.is_some(),
            CopyKind::Vault => self.has_vault(),
        }
    }

    /// The default configuration: the Table 2 windows as printed.
    #[must_use]
    pub fn default_config(&self) -> TechniqueConfig {
        let chain = self.backup.unwrap_or_else(BackupChain::table2);
        TechniqueConfig {
            snapshot_interval: chain.snapshot_interval,
            backup_cycle: chain.backup_cycle,
        }
    }

    /// The discretized configuration space the configuration solver
    /// explores (paper §3.2: e.g. "the period between successive backups
    /// must be in 12-hour increments"). Snapshot intervals of 12/24/48 h
    /// crossed with backup cycles of 7/14/28 d, filtered to valid
    /// combinations; techniques without a backup chain have a single
    /// (default) configuration.
    #[must_use]
    pub fn config_space(&self) -> Vec<TechniqueConfig> {
        if self.backup.is_none() {
            return vec![self.default_config()];
        }
        let mut out = Vec::new();
        for snap_hours in [12.0, 24.0, 48.0] {
            for backup_days in [7.0, 14.0, 28.0] {
                let config = TechniqueConfig {
                    snapshot_interval: TimeSpan::from_hours(snap_hours),
                    backup_cycle: TimeSpan::from_days(backup_days),
                };
                if config.is_valid() {
                    out.push(config);
                }
            }
        }
        out
    }

    /// Worst-case staleness of `copy` under `config`: the recent data loss
    /// if that copy is used for recovery (paper §3.2.1, the sum of
    /// accumulation and propagation windows along the hierarchy path —
    /// Keeton & Merchant's bound).
    ///
    /// Returns [`TimeSpan::INFINITE`] if the technique does not maintain
    /// the copy.
    #[must_use]
    pub fn staleness(
        &self,
        copy: CopyKind,
        config: &TechniqueConfig,
        delays: &PropagationDelays,
    ) -> TimeSpan {
        match copy {
            CopyKind::Mirror => match self.mirror {
                None => TimeSpan::INFINITE,
                Some(m) if m.sync => m.acc_win,
                Some(m) => m.acc_win + delays.network,
            },
            CopyKind::Snapshot => match self.backup {
                None => TimeSpan::INFINITE,
                Some(_) => config.snapshot_interval,
            },
            CopyKind::Backup => match self.backup {
                None => TimeSpan::INFINITE,
                // Incrementals reach tape every snapshot interval, so the
                // tape copy is at most two snapshot windows stale (plus
                // the transfer), instead of a whole backup cycle.
                Some(chain) if chain.is_incremental() => {
                    config.snapshot_interval * 2.0 + delays.tape
                }
                Some(_) => config.snapshot_interval + config.backup_cycle + delays.tape,
            },
            CopyKind::Vault => match self.backup {
                Some(chain) if chain.vault => {
                    config.snapshot_interval
                        + config.backup_cycle
                        + delays.tape
                        + chain.vault_cycle
                        + chain.vault_prop
                }
                _ => TimeSpan::INFINITE,
            },
        }
    }
}

/// Restore slow-down when a full backup must be replayed together with
/// its incrementals.
pub const INCREMENTAL_RESTORE_AMPLIFICATION: f64 = 1.25;

impl Technique {
    /// Multiplier on the restore transfer volume for recovering from the
    /// given copy: 1.0 except for incremental-mode tape backups, which
    /// replay the last full plus its incrementals
    /// ([`INCREMENTAL_RESTORE_AMPLIFICATION`]).
    #[must_use]
    pub fn restore_amplification(&self, copy: CopyKind) -> f64 {
        match (copy, self.backup) {
            (CopyKind::Backup, Some(chain)) if chain.is_incremental() => {
                INCREMENTAL_RESTORE_AMPLIFICATION
            }
            _ => 1.0,
        }
    }
}

impl fmt::Display for Technique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.name, self.category)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gold_full() -> Technique {
        Technique::new(
            "sync mirror (F) with backup",
            AppClass::Gold,
            RecoveryKind::Failover,
            Some(MirrorSpec::synchronous()),
            Some(BackupChain::table2()),
        )
    }

    fn bronze_backup() -> Technique {
        Technique::new(
            "tape backup",
            AppClass::Bronze,
            RecoveryKind::Reconstruct,
            None,
            Some(BackupChain::table2()),
        )
    }

    #[test]
    fn copies_listed_in_staleness_order() {
        assert_eq!(
            gold_full().copies(),
            vec![CopyKind::Mirror, CopyKind::Snapshot, CopyKind::Backup, CopyKind::Vault]
        );
        assert_eq!(
            bronze_backup().copies(),
            vec![CopyKind::Snapshot, CopyKind::Backup, CopyKind::Vault]
        );
    }

    #[test]
    fn staleness_increases_up_the_hierarchy() {
        let t = gold_full();
        let config = t.default_config();
        let delays = PropagationDelays {
            network: TimeSpan::from_mins(5.0),
            tape: TimeSpan::from_hours(2.0),
        };
        let values: Vec<TimeSpan> =
            t.copies().iter().map(|&c| t.staleness(c, &config, &delays)).collect();
        for pair in values.windows(2) {
            assert!(pair[0] <= pair[1], "staleness must be monotone: {pair:?}");
        }
    }

    #[test]
    fn sync_mirror_ignores_network_delay() {
        let t = gold_full();
        let config = t.default_config();
        let slow = PropagationDelays { network: TimeSpan::from_hours(5.0), tape: TimeSpan::ZERO };
        assert_eq!(t.staleness(CopyKind::Mirror, &config, &slow).as_mins(), 0.5);
    }

    #[test]
    fn async_mirror_adds_network_delay() {
        let t = Technique::new(
            "async mirror (R)",
            AppClass::Silver,
            RecoveryKind::Reconstruct,
            Some(MirrorSpec::asynchronous()),
            None,
        );
        let delays = PropagationDelays { network: TimeSpan::from_mins(20.0), tape: TimeSpan::ZERO };
        let loss = t.staleness(CopyKind::Mirror, &t.default_config(), &delays);
        assert_eq!(loss.as_mins(), 30.0);
    }

    #[test]
    fn missing_copies_have_infinite_staleness() {
        let t = bronze_backup();
        let config = t.default_config();
        let delays = PropagationDelays::default();
        assert!(t.staleness(CopyKind::Mirror, &config, &delays).is_infinite());
        let mirror_only = Technique::new(
            "sync mirror (F)",
            AppClass::Gold,
            RecoveryKind::Failover,
            Some(MirrorSpec::synchronous()),
            None,
        );
        assert!(mirror_only
            .staleness(CopyKind::Snapshot, &mirror_only.default_config(), &delays)
            .is_infinite());
        assert!(mirror_only
            .staleness(CopyKind::Vault, &mirror_only.default_config(), &delays)
            .is_infinite());
    }

    #[test]
    fn backup_staleness_matches_table2_defaults() {
        let t = bronze_backup();
        let config = t.default_config();
        let delays = PropagationDelays { network: TimeSpan::ZERO, tape: TimeSpan::from_hours(1.0) };
        let backup = t.staleness(CopyKind::Backup, &config, &delays);
        assert_eq!(backup.as_hours(), 12.0 + 7.0 * 24.0 + 1.0);
        let vault = t.staleness(CopyKind::Vault, &config, &delays);
        assert_eq!(vault.as_hours(), backup.as_hours() + 28.0 * 24.0 + 24.0);
    }

    #[test]
    fn incremental_backup_is_much_fresher_but_slower_to_restore() {
        let full = bronze_backup();
        let inc = Technique::new(
            "incremental tape backup",
            AppClass::Bronze,
            RecoveryKind::Reconstruct,
            None,
            Some(BackupChain::table2_incremental()),
        );
        let config = full.default_config();
        let delays = PropagationDelays { network: TimeSpan::ZERO, tape: TimeSpan::from_hours(1.0) };
        let full_staleness = full.staleness(CopyKind::Backup, &config, &delays);
        let inc_staleness = inc.staleness(CopyKind::Backup, &config, &delays);
        assert_eq!(inc_staleness.as_hours(), 2.0 * 12.0 + 1.0);
        assert!(inc_staleness < full_staleness / 5.0, "days fresher");
        // Vault staleness is mode-independent (fulls are shipped).
        assert_eq!(
            full.staleness(CopyKind::Vault, &config, &delays),
            inc.staleness(CopyKind::Vault, &config, &delays)
        );
        // Restores are amplified only for the incremental tape copy.
        assert_eq!(full.restore_amplification(CopyKind::Backup), 1.0);
        assert_eq!(inc.restore_amplification(CopyKind::Backup), INCREMENTAL_RESTORE_AMPLIFICATION);
        assert_eq!(inc.restore_amplification(CopyKind::Snapshot), 1.0);
        assert_eq!(inc.restore_amplification(CopyKind::Vault), 1.0);
    }

    #[test]
    fn backup_mode_display() {
        assert_eq!(BackupMode::FullOnly.to_string(), "full");
        assert_eq!(BackupMode::FullPlusIncrementals.to_string(), "full+incremental");
        assert!(BackupChain::table2_incremental().is_incremental());
        assert!(!BackupChain::table2().is_incremental());
    }

    #[test]
    fn config_space_is_valid_and_nonempty() {
        let t = gold_full();
        let space = t.config_space();
        assert_eq!(space.len(), 9, "3 snapshot x 3 backup options, all valid");
        assert!(space.iter().all(TechniqueConfig::is_valid));
        let mirror_only = Technique::new(
            "sync mirror (R)",
            AppClass::Silver,
            RecoveryKind::Reconstruct,
            Some(MirrorSpec::synchronous()),
            None,
        );
        assert_eq!(mirror_only.config_space().len(), 1);
    }

    #[test]
    fn invalid_config_detected() {
        let bad = TechniqueConfig {
            snapshot_interval: TimeSpan::from_days(10.0),
            backup_cycle: TimeSpan::from_days(7.0),
        };
        assert!(!bad.is_valid());
        for window in [TimeSpan::ZERO, TimeSpan::INFINITE] {
            let config = TechniqueConfig { snapshot_interval: window, backup_cycle: window };
            assert!(!config.is_valid(), "{window}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one secondary copy")]
    fn empty_technique_rejected() {
        let _ = Technique::new("nothing", AppClass::Bronze, RecoveryKind::Reconstruct, None, None);
    }

    #[test]
    #[should_panic(expected = "failover recovery requires a mirror")]
    fn failover_without_mirror_rejected() {
        let _ = Technique::new(
            "bad",
            AppClass::Gold,
            RecoveryKind::Failover,
            None,
            Some(BackupChain::table2()),
        );
    }

    #[test]
    fn has_copy_agrees_with_copies() {
        for t in [gold_full(), bronze_backup()] {
            let listed = t.copies();
            for kind in CopyKind::ALL {
                assert_eq!(listed.contains(&kind), t.has_copy(kind));
            }
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(RecoveryKind::Failover.to_string(), "failover");
        assert_eq!(CopyKind::Vault.to_string(), "vault");
        assert!(gold_full().to_string().contains("gold"));
    }
}
