//! Priority-serialized recovery scheduling.
//!
//! The paper (§3.2.2) assumes: "If multiple recovery operations compete
//! for the same resource, their execution is serialized according to a
//! priority (the sum of each application's penalty rates). Recovery tasks
//! for applications with higher penalty rates get higher priority, thus
//! delaying the execution of lower-priority recovery tasks."
//!
//! [`schedule_jobs_with`] implements this as deterministic list scheduling:
//! jobs are considered in descending priority order; each job starts at
//! the later of its lead time (hardware repair, vault retrieval) and the
//! time its devices become free, holds its devices exclusively for its
//! transfer duration, and finishes after a fixed tail (application
//! reconfiguration). Jobs touching disjoint device sets run in parallel.
//!
//! One scheduling routine serves [`schedule_jobs_with`] and the
//! evaluator, which reuses one job buffer and one device table across
//! every scenario of a penalty fold: a job holds its at most three
//! devices inline ([`JobDevices`]), and exclusive scheduling keeps each
//! device's free time in a flat table instead of a map.

use std::collections::BTreeMap;
use std::ops::Deref;

use serde::{Deserialize, Serialize};

use dsd_resources::{DeviceRef, RouteId};
use dsd_units::{DollarsPerHour, TimeSpan};
use dsd_workload::AppId;

/// How contending recovery operations share devices.
///
/// The paper assumes priority serialization (§3.2.2); the alternatives
/// implement the recovery-scheduling directions of the authors' follow-on
/// work (Keeton et al., EuroSys 2006) and are exposed for ablation
/// studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SchedulingPolicy {
    /// Jobs sharing a device run one at a time, highest priority first
    /// (the paper's assumption).
    #[default]
    PriorityExclusive,
    /// Jobs sharing a device run one at a time, shortest transfer first
    /// (minimizes mean completion time, ignores business priority).
    ShortestFirst,
    /// All jobs on a device run concurrently, each receiving an equal
    /// share of the device; shares are recomputed as jobs finish
    /// (processor-sharing fluid model).
    FairShare,
}

impl SchedulingPolicy {
    /// Stable short name, used in trace events.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SchedulingPolicy::PriorityExclusive => "priority-exclusive",
            SchedulingPolicy::ShortestFirst => "shortest-first",
            SchedulingPolicy::FairShare => "fair-share",
        }
    }
}

/// The devices one recovery job holds, kept inline: at most
/// [`JobDevices::MAX`] of them (the restored copy's device, the primary
/// array, and the route a mirror copy crosses). Dereferences to the
/// slice of devices held, in the order they were added.
#[derive(Debug, Clone, Copy)]
pub struct JobDevices {
    len: u8,
    slots: [DeviceRef; JobDevices::MAX],
}

impl JobDevices {
    /// Most devices one job holds.
    pub const MAX: usize = 3;

    /// A job holding no device (a mirror promotion).
    pub const NONE: JobDevices =
        JobDevices { len: 0, slots: [DeviceRef::Route(RouteId(0)); JobDevices::MAX] };

    /// The devices of `devices`, in order.
    ///
    /// # Panics
    ///
    /// If `devices` holds more than [`JobDevices::MAX`] devices.
    #[must_use]
    pub fn new(devices: &[DeviceRef]) -> Self {
        let mut out = JobDevices::NONE;
        for &d in devices {
            out.push(d);
        }
        out
    }

    /// Adds one more device.
    ///
    /// # Panics
    ///
    /// If the job already holds [`JobDevices::MAX`] devices.
    pub fn push(&mut self, device: DeviceRef) {
        let len = usize::from(self.len);
        assert!(len < JobDevices::MAX, "a recovery job holds at most {} devices", JobDevices::MAX);
        self.slots[len] = device;
        self.len += 1;
    }
}

impl Deref for JobDevices {
    type Target = [DeviceRef];

    fn deref(&self) -> &[DeviceRef] {
        &self.slots[..usize::from(self.len)]
    }
}

impl PartialEq for JobDevices {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for JobDevices {}

/// One application's recovery work for a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryJob {
    /// The recovering application.
    pub app: AppId,
    /// Scheduling priority: the sum of the application's penalty rates.
    pub priority: DollarsPerHour,
    /// Time before the job may start (hardware repair, tape retrieval).
    pub lead_time: TimeSpan,
    /// Devices held exclusively while the data transfer runs.
    pub devices: JobDevices,
    /// Data transfer duration (with the devices held exclusively).
    pub transfer: TimeSpan,
    /// Fixed tail after the transfer (application reconfiguration); does
    /// not hold devices.
    pub tail: TimeSpan,
}

impl AsRef<RecoveryJob> for RecoveryJob {
    fn as_ref(&self) -> &RecoveryJob {
        self
    }
}

/// The computed completion times of a set of recovery jobs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schedule {
    /// Per-application recovery time (from failure instant to application
    /// back online).
    completions: BTreeMap<AppId, TimeSpan>,
}

impl Schedule {
    /// Recovery time of `app`, if it was scheduled.
    #[must_use]
    pub fn recovery_time(&self, app: AppId) -> Option<TimeSpan> {
        self.completions.get(&app).copied()
    }

    /// Iterates over `(app, recovery_time)` pairs in app order.
    pub fn iter(&self) -> impl Iterator<Item = (AppId, TimeSpan)> + '_ {
        self.completions.iter().map(|(&a, &t)| (a, t))
    }

    /// The latest completion, or zero when no jobs ran.
    #[must_use]
    pub fn makespan(&self) -> TimeSpan {
        self.completions.values().copied().fold(TimeSpan::ZERO, TimeSpan::max)
    }
}

/// Schedules `jobs` under the given device-sharing policy and returns
/// each application's recovery time. Under the paper's
/// [`SchedulingPolicy::PriorityExclusive`], ties in priority are broken
/// by application id so the schedule is deterministic.
#[must_use]
pub fn schedule_jobs_with(mut jobs: Vec<RecoveryJob>, policy: SchedulingPolicy) -> Schedule {
    let mut schedule = Schedule::default();
    schedule_into(&mut jobs, policy, &mut DeviceTable::default(), |job, done| {
        schedule.completions.insert(job.app, done);
    });
    schedule
}

/// Device-free times of exclusive scheduling: one entry per device some
/// scheduled job has held, in first-use order. A scenario's jobs hold a
/// handful of devices, so a linear scan beats a map and the table's
/// buffer is reused across scenarios.
#[derive(Debug, Default)]
pub(crate) struct DeviceTable(Vec<(DeviceRef, TimeSpan)>);

impl DeviceTable {
    /// When `device` is next free, if a scheduled job has held it.
    fn free_at(&self, device: DeviceRef) -> Option<TimeSpan> {
        self.0.iter().find(|(d, _)| *d == device).map(|&(_, free)| free)
    }

    /// `device`'s free time, entered as zero on first use.
    fn entry(&mut self, device: DeviceRef) -> &mut TimeSpan {
        let i = match self.0.iter().position(|(d, _)| *d == device) {
            Some(i) => i,
            None => {
                self.0.push((device, TimeSpan::ZERO));
                self.0.len() - 1
            }
        };
        &mut self.0[i].1
    }
}

/// The one scheduling routine: schedules `jobs` (each a [`RecoveryJob`]
/// plus whatever the caller keeps beside it) under `policy`, hands each
/// job's recovery time to `done`, and records the schedule's
/// observations. Exclusive policies reorder `jobs` in place;
/// `device_free` is scratch, cleared first.
pub(crate) fn schedule_into<J: AsRef<RecoveryJob>>(
    jobs: &mut [J],
    policy: SchedulingPolicy,
    device_free: &mut DeviceTable,
    mut done: impl FnMut(&J, TimeSpan),
) {
    let mut makespan = TimeSpan::ZERO;
    let mut finish = |job: &J, at: TimeSpan| {
        makespan = makespan.max(at);
        done(job, at);
    };
    match policy {
        SchedulingPolicy::PriorityExclusive => exclusive(
            jobs,
            |a, b| {
                b.priority
                    .as_f64()
                    .partial_cmp(&a.priority.as_f64())
                    .expect("penalty rates are finite")
                    .then(a.app.cmp(&b.app))
            },
            device_free,
            &mut finish,
        ),
        SchedulingPolicy::ShortestFirst => exclusive(
            jobs,
            |a, b| {
                a.transfer
                    .as_secs()
                    .partial_cmp(&b.transfer.as_secs())
                    .expect("transfers are comparable")
                    .then(a.app.cmp(&b.app))
            },
            device_free,
            &mut finish,
        ),
        SchedulingPolicy::FairShare => fair_share(jobs, &mut finish),
    }
    let n_jobs = jobs.len();
    dsd_obs::observe("recovery.schedule_len", n_jobs as f64);
    dsd_obs::observe("recovery.makespan_hours", makespan.as_hours());
    // Single-job schedules are trivially contention-free; only emit
    // trace events where serialization decisions could actually occur,
    // keeping traces of large runs manageable.
    if n_jobs >= 2 && dsd_obs::enabled() {
        dsd_obs::instant_with(
            "recovery.schedule",
            "recovery",
            vec![
                ("policy", policy.name().into()),
                ("jobs", n_jobs.into()),
                ("makespan_hours", makespan.as_hours().into()),
            ],
        );
    }
}

/// Deterministic list scheduling with exclusive device holds, in the
/// order induced by `cmp`.
fn exclusive<J: AsRef<RecoveryJob>>(
    jobs: &mut [J],
    cmp: impl Fn(&RecoveryJob, &RecoveryJob) -> std::cmp::Ordering,
    device_free: &mut DeviceTable,
    finish: &mut impl FnMut(&J, TimeSpan),
) {
    jobs.sort_by(|a, b| cmp(a.as_ref(), b.as_ref()));
    device_free.0.clear();
    for entry in jobs.iter() {
        let job = entry.as_ref();
        let devices_ready = job
            .devices
            .iter()
            .filter_map(|&d| device_free.free_at(d))
            .fold(TimeSpan::ZERO, TimeSpan::max);
        let start = job.lead_time.max(devices_ready);
        let end = start + job.transfer;
        if end.is_finite() {
            for &d in job.devices.iter() {
                let slot = device_free.entry(d);
                *slot = (*slot).max(end);
            }
        } else {
            // A job that never completes would otherwise poison every
            // shared device; it alone is charged the infinite time.
            for &d in job.devices.iter() {
                device_free.entry(d);
            }
        }
        finish(entry, end + job.tail);
    }
}

/// Processor-sharing fluid simulation: every active job on a device gets
/// an equal share; a job's progress rate is set by its most contended
/// device. Event-driven over arrivals (lead times) and completions.
fn fair_share<J: AsRef<RecoveryJob>>(entries: &[J], finish: &mut impl FnMut(&J, TimeSpan)) {
    #[derive(Debug)]
    struct Active {
        idx: usize,
        /// Remaining work in exclusive-seconds (f64::INFINITY for jobs
        /// that never complete).
        remaining: f64,
    }

    let jobs = |i: usize| entries[i].as_ref();
    let mut pending: Vec<usize> = (0..entries.len()).collect();
    pending.sort_by(|&a, &b| {
        jobs(a)
            .lead_time
            .as_secs()
            .partial_cmp(&jobs(b).lead_time.as_secs())
            .expect("lead times are comparable")
            .then(jobs(a).app.cmp(&jobs(b).app))
    });
    let mut pending = std::collections::VecDeque::from(pending);
    let mut active: Vec<Active> = Vec::new();
    let mut now = 0.0_f64;

    loop {
        // Progress rate of each active job under equal sharing.
        let mut load: BTreeMap<DeviceRef, usize> = BTreeMap::new();
        for a in &active {
            for d in jobs(a.idx).devices.iter() {
                *load.entry(*d).or_insert(0) += 1;
            }
        }
        let rate = |job: &RecoveryJob| -> f64 {
            job.devices.iter().map(|d| load[d]).max().map_or(1.0, |n| 1.0 / n as f64)
        };

        let next_completion = active
            .iter()
            .filter(|a| a.remaining.is_finite())
            .map(|a| now + a.remaining / rate(jobs(a.idx)))
            .fold(f64::INFINITY, f64::min);
        let next_arrival =
            pending.front().map_or(f64::INFINITY, |&i| jobs(i).lead_time.as_secs().max(now));

        if !next_completion.is_finite() && !next_arrival.is_finite() {
            // Only never-completing jobs remain active.
            for a in active {
                finish(&entries[a.idx], TimeSpan::INFINITE);
            }
            break;
        }

        let t_next = next_completion.min(next_arrival);
        // Advance all active jobs to t_next.
        for a in &mut active {
            if a.remaining.is_finite() {
                a.remaining -= rate(jobs(a.idx)) * (t_next - now);
            }
        }
        now = t_next;

        if next_completion <= next_arrival {
            // Retire every job that just finished (remaining ~ 0).
            let mut finished = Vec::new();
            active.retain(|a| {
                if a.remaining <= 1e-6 {
                    finished.push(a.idx);
                    false
                } else {
                    true
                }
            });
            for idx in finished {
                finish(&entries[idx], TimeSpan::from_secs(now) + jobs(idx).tail);
            }
        } else {
            // Admit every job whose lead time has arrived.
            while let Some(&i) = pending.front() {
                if jobs(i).lead_time.as_secs() <= now + 1e-9 {
                    pending.pop_front();
                    active.push(Active { idx: i, remaining: jobs(i).transfer.as_secs() });
                } else {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsd_resources::{ArrayRef, SiteId, TapeRef};

    fn dev_a() -> DeviceRef {
        DeviceRef::Array(ArrayRef { site: SiteId(0), slot: 0 })
    }
    fn dev_b() -> DeviceRef {
        DeviceRef::Tape(TapeRef::first(SiteId(0)))
    }

    fn job(app: usize, priority: f64, devices: &[DeviceRef], transfer_h: f64) -> RecoveryJob {
        RecoveryJob {
            app: AppId(app),
            priority: DollarsPerHour::new(priority),
            lead_time: TimeSpan::ZERO,
            devices: JobDevices::new(devices),
            transfer: TimeSpan::from_hours(transfer_h),
            tail: TimeSpan::ZERO,
        }
    }

    #[test]
    fn shared_device_serializes_by_priority() {
        let jobs = vec![
            job(0, 10.0, &[dev_a()], 2.0),  // low priority
            job(1, 100.0, &[dev_a()], 3.0), // high priority
        ];
        let s = schedule_jobs_with(jobs, SchedulingPolicy::PriorityExclusive);
        assert_eq!(s.recovery_time(AppId(1)).unwrap().as_hours(), 3.0, "high goes first");
        assert_eq!(s.recovery_time(AppId(0)).unwrap().as_hours(), 5.0, "low waits");
    }

    #[test]
    fn disjoint_devices_run_in_parallel() {
        let jobs = vec![job(0, 10.0, &[dev_a()], 2.0), job(1, 100.0, &[dev_b()], 3.0)];
        let s = schedule_jobs_with(jobs, SchedulingPolicy::PriorityExclusive);
        assert_eq!(s.recovery_time(AppId(0)).unwrap().as_hours(), 2.0);
        assert_eq!(s.recovery_time(AppId(1)).unwrap().as_hours(), 3.0);
        assert_eq!(s.makespan().as_hours(), 3.0);
    }

    #[test]
    fn lead_time_delays_start_but_not_device_holds() {
        let mut high = job(1, 100.0, &[dev_a()], 2.0);
        high.lead_time = TimeSpan::from_hours(12.0);
        let low = job(0, 10.0, &[dev_a()], 1.0);
        let s = schedule_jobs_with(vec![high, low], SchedulingPolicy::PriorityExclusive);
        // High priority starts at 12h (repair), ends 14h; low then runs
        // 14h..15h (serialized after the higher-priority job).
        assert_eq!(s.recovery_time(AppId(1)).unwrap().as_hours(), 14.0);
        assert_eq!(s.recovery_time(AppId(0)).unwrap().as_hours(), 15.0);
    }

    #[test]
    fn tail_extends_completion_without_holding_devices() {
        let mut first = job(1, 100.0, &[dev_a()], 2.0);
        first.tail = TimeSpan::from_hours(1.0);
        let second = job(0, 10.0, &[dev_a()], 1.0);
        let s = schedule_jobs_with(vec![first, second], SchedulingPolicy::PriorityExclusive);
        assert_eq!(s.recovery_time(AppId(1)).unwrap().as_hours(), 3.0);
        assert_eq!(
            s.recovery_time(AppId(0)).unwrap().as_hours(),
            3.0,
            "device freed at transfer end (2h), so 2h+1h transfer"
        );
    }

    #[test]
    fn priority_ties_broken_by_app_id() {
        let jobs = vec![job(7, 10.0, &[dev_a()], 1.0), job(3, 10.0, &[dev_a()], 1.0)];
        let s = schedule_jobs_with(jobs, SchedulingPolicy::PriorityExclusive);
        assert_eq!(s.recovery_time(AppId(3)).unwrap().as_hours(), 1.0);
        assert_eq!(s.recovery_time(AppId(7)).unwrap().as_hours(), 2.0);
    }

    #[test]
    fn infinite_transfer_does_not_poison_other_jobs() {
        let mut stuck = job(1, 100.0, &[dev_a()], 1.0);
        stuck.transfer = TimeSpan::INFINITE;
        let other = job(0, 10.0, &[dev_a()], 1.0);
        let s = schedule_jobs_with(vec![stuck, other], SchedulingPolicy::PriorityExclusive);
        assert!(s.recovery_time(AppId(1)).unwrap().is_infinite());
        assert!(
            s.recovery_time(AppId(0)).unwrap().is_finite(),
            "unrecoverable app must not block others forever"
        );
    }

    #[test]
    fn empty_schedule() {
        let s = schedule_jobs_with(Vec::new(), SchedulingPolicy::PriorityExclusive);
        assert_eq!(s.makespan(), TimeSpan::ZERO);
        assert!(s.recovery_time(AppId(0)).is_none());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn shortest_first_ignores_priority() {
        let jobs = vec![
            job(0, 1.0, &[dev_a()], 1.0),   // short, low priority
            job(1, 100.0, &[dev_a()], 3.0), // long, high priority
        ];
        let s = schedule_jobs_with(jobs, SchedulingPolicy::ShortestFirst);
        assert_eq!(s.recovery_time(AppId(0)).unwrap().as_hours(), 1.0, "short goes first");
        assert_eq!(s.recovery_time(AppId(1)).unwrap().as_hours(), 4.0);
    }

    #[test]
    fn fair_share_splits_a_device_equally() {
        // Two equal 2h jobs sharing one device: both finish at 4h under
        // processor sharing (each progresses at half speed).
        let jobs = vec![job(0, 10.0, &[dev_a()], 2.0), job(1, 20.0, &[dev_a()], 2.0)];
        let s = schedule_jobs_with(jobs, SchedulingPolicy::FairShare);
        assert!((s.recovery_time(AppId(0)).unwrap().as_hours() - 4.0).abs() < 1e-6);
        assert!((s.recovery_time(AppId(1)).unwrap().as_hours() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn fair_share_speeds_up_after_a_completion() {
        // A 1h job and a 3h job share a device. Phase 1: both at half
        // speed until the short one finishes at t=2h; the long one then
        // has 2h of work left at full speed -> finishes at 4h.
        let jobs = vec![job(0, 10.0, &[dev_a()], 1.0), job(1, 20.0, &[dev_a()], 3.0)];
        let s = schedule_jobs_with(jobs, SchedulingPolicy::FairShare);
        assert!((s.recovery_time(AppId(0)).unwrap().as_hours() - 2.0).abs() < 1e-6);
        assert!((s.recovery_time(AppId(1)).unwrap().as_hours() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn fair_share_respects_lead_times_and_disjoint_devices() {
        let mut late = job(1, 1.0, &[dev_b()], 1.0);
        late.lead_time = TimeSpan::from_hours(5.0);
        let early = job(0, 1.0, &[dev_a()], 2.0);
        let s = schedule_jobs_with(vec![late, early], SchedulingPolicy::FairShare);
        assert!((s.recovery_time(AppId(0)).unwrap().as_hours() - 2.0).abs() < 1e-6);
        assert!((s.recovery_time(AppId(1)).unwrap().as_hours() - 6.0).abs() < 1e-6);
    }

    #[test]
    fn fair_share_handles_infinite_jobs() {
        let mut stuck = job(1, 1.0, &[dev_a()], 1.0);
        stuck.transfer = TimeSpan::INFINITE;
        let other = job(0, 1.0, &[dev_a()], 1.0);
        let s = schedule_jobs_with(vec![stuck, other], SchedulingPolicy::FairShare);
        assert!(s.recovery_time(AppId(1)).unwrap().is_infinite());
        // The finite job shares the device with the stuck one forever:
        // half speed, 1h of work -> 2h.
        assert!((s.recovery_time(AppId(0)).unwrap().as_hours() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn fair_share_makespan_never_beats_exclusive_for_identical_shared_jobs() {
        let mk = || (0..4).map(|i| job(i, 1.0, &[dev_a()], 2.0)).collect::<Vec<_>>();
        let excl = schedule_jobs_with(mk(), SchedulingPolicy::PriorityExclusive);
        let fair = schedule_jobs_with(mk(), SchedulingPolicy::FairShare);
        // Total device work is identical, so the makespans agree...
        assert!((excl.makespan().as_hours() - fair.makespan().as_hours()).abs() < 1e-6);
        // ...but fair sharing finishes everything at the makespan while
        // exclusive staggers completions.
        let first_excl = excl.iter().map(|(_, t)| t).fold(TimeSpan::INFINITE, TimeSpan::min);
        let first_fair = fair.iter().map(|(_, t)| t).fold(TimeSpan::INFINITE, TimeSpan::min);
        assert!(first_excl < first_fair);
    }

    #[test]
    fn job_devices_hold_up_to_three_in_order() {
        let route = DeviceRef::Route(RouteId(4));
        let mut held = JobDevices::new(&[dev_b(), dev_a()]);
        held.push(route);
        assert_eq!(&*held, &[dev_b(), dev_a(), route]);
        assert!(JobDevices::NONE.is_empty());
        // Equality compares the devices held, not the unused slots.
        let mut a = JobDevices::new(&[dev_a(), route]);
        let b = JobDevices::new(&[dev_a()]);
        assert_ne!(a, b);
        a.len = 1;
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at most 3 devices")]
    fn a_fourth_device_is_refused() {
        let mut held = JobDevices::new(&[dev_a(), dev_b(), DeviceRef::Route(RouteId(0))]);
        held.push(dev_a());
    }

    #[test]
    fn policy_default_is_the_papers() {
        assert_eq!(SchedulingPolicy::default(), SchedulingPolicy::PriorityExclusive);
    }
}
