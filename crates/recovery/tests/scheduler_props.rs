//! Property tests on the recovery schedulers: conservation and bound
//! invariants that must hold for arbitrary job sets under every policy.

use proptest::prelude::*;

use dsd_recovery::{schedule_jobs_with, JobDevices, RecoveryJob, SchedulingPolicy};
use dsd_resources::{ArrayRef, DeviceRef, SiteId, TapeRef};
use dsd_units::{DollarsPerHour, TimeSpan};
use dsd_workload::AppId;

fn device(ix: u8) -> DeviceRef {
    match ix % 3 {
        0 => DeviceRef::Array(ArrayRef { site: SiteId(usize::from(ix / 3)), slot: 0 }),
        1 => DeviceRef::Array(ArrayRef { site: SiteId(usize::from(ix / 3)), slot: 1 }),
        _ => DeviceRef::Tape(TapeRef::first(SiteId(usize::from(ix / 3)))),
    }
}

#[derive(Debug, Clone)]
struct JobSpec {
    priority: f64,
    lead_h: f64,
    transfer_h: f64,
    tail_h: f64,
    devices: Vec<u8>,
}

fn job_strategy() -> impl Strategy<Value = JobSpec> {
    (0.0..1e7f64, 0.0..48.0f64, 0.01..24.0f64, 0.0..2.0f64, prop::collection::vec(0u8..6, 0..3))
        .prop_map(|(priority, lead_h, transfer_h, tail_h, devices)| JobSpec {
            priority,
            lead_h,
            transfer_h,
            tail_h,
            devices,
        })
}

fn build(specs: &[JobSpec]) -> Vec<RecoveryJob> {
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut devices: Vec<DeviceRef> = s.devices.iter().map(|&d| device(d)).collect();
            devices.sort();
            devices.dedup();
            RecoveryJob {
                app: AppId(i),
                priority: DollarsPerHour::new(s.priority),
                lead_time: TimeSpan::from_hours(s.lead_h),
                devices: JobDevices::new(&devices),
                transfer: TimeSpan::from_hours(s.transfer_h),
                tail: TimeSpan::from_hours(s.tail_h),
            }
        })
        .collect()
}

const POLICIES: [SchedulingPolicy; 3] = [
    SchedulingPolicy::PriorityExclusive,
    SchedulingPolicy::ShortestFirst,
    SchedulingPolicy::FairShare,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_policy_schedules_every_job_above_its_lower_bound(
        specs in prop::collection::vec(job_strategy(), 1..12)
    ) {
        let jobs = build(&specs);
        for policy in POLICIES {
            let schedule = schedule_jobs_with(jobs.clone(), policy);
            prop_assert_eq!(schedule.iter().count(), jobs.len(), "{:?}", policy);
            for job in &jobs {
                let done = schedule.recovery_time(job.app).expect("scheduled");
                // Nothing can finish before its own lead + transfer + tail,
                // no matter the policy.
                let bound = job.lead_time + job.transfer + job.tail;
                prop_assert!(
                    done.as_secs() >= bound.as_secs() - 1e-3,
                    "{:?}: {} finished at {} before bound {}",
                    policy, job.app, done, bound
                );
                prop_assert!(done.is_finite());
            }
        }
    }

    #[test]
    fn makespan_at_least_total_work_on_the_busiest_device(
        specs in prop::collection::vec(job_strategy(), 1..12)
    ) {
        let jobs = build(&specs);
        // Per-device conservation: a device processes at most one
        // exclusive-job-second per second, so the makespan (ignoring
        // tails) is at least the total transfer demand on any device.
        let mut per_device: std::collections::BTreeMap<DeviceRef, f64> = Default::default();
        for job in &jobs {
            for d in job.devices.iter() {
                *per_device.entry(*d).or_insert(0.0) += job.transfer.as_secs();
            }
        }
        let busiest = per_device.values().copied().fold(0.0f64, f64::max);
        for policy in POLICIES {
            let schedule = schedule_jobs_with(jobs.clone(), policy);
            let last_transfer_end = jobs
                .iter()
                .map(|j| schedule.recovery_time(j.app).unwrap().as_secs() - j.tail.as_secs())
                .fold(0.0f64, f64::max);
            prop_assert!(
                last_transfer_end >= busiest - 1e-3,
                "{:?}: transfers end at {last_transfer_end} but busiest device needs {busiest}",
                policy
            );
        }
    }

    #[test]
    fn fair_share_never_beats_running_alone(
        specs in prop::collection::vec(job_strategy(), 1..10)
    ) {
        let jobs = build(&specs);
        let fair = schedule_jobs_with(jobs.clone(), SchedulingPolicy::FairShare);
        for job in &jobs {
            // Alone, the job would finish at lead + transfer + tail; with
            // sharing it can only be later or equal.
            let alone = job.lead_time + job.transfer + job.tail;
            let shared = fair.recovery_time(job.app).unwrap();
            prop_assert!(shared.as_secs() >= alone.as_secs() - 1e-3);
        }
    }

    #[test]
    fn deviceless_jobs_are_immune_to_contention(
        specs in prop::collection::vec(job_strategy(), 1..10),
        lead_h in 0.0..10.0f64,
        transfer_h in 0.01..5.0f64,
    ) {
        let mut jobs = build(&specs);
        let marker = AppId(999);
        jobs.push(RecoveryJob {
            app: marker,
            priority: DollarsPerHour::ZERO, // worst priority
            lead_time: TimeSpan::from_hours(lead_h),
            devices: JobDevices::NONE,
            transfer: TimeSpan::from_hours(transfer_h),
            tail: TimeSpan::ZERO,
        });
        let expected = lead_h + transfer_h;
        for policy in POLICIES {
            let schedule = schedule_jobs_with(jobs.clone(), policy);
            let done = schedule.recovery_time(marker).unwrap().as_hours();
            prop_assert!(
                (done - expected).abs() < 1e-6,
                "{:?}: deviceless job finished at {done}, expected {expected}",
                policy
            );
        }
    }

    #[test]
    fn exclusive_policies_serialize_shared_devices_exactly(
        transfers in prop::collection::vec(0.01..10.0f64, 2..8)
    ) {
        // All jobs share one device, no leads/tails: completions must be
        // the prefix sums of the execution order, whatever that order is.
        let jobs: Vec<RecoveryJob> = transfers
            .iter()
            .enumerate()
            .map(|(i, &t)| RecoveryJob {
                app: AppId(i),
                priority: DollarsPerHour::new(1000.0 * i as f64),
                lead_time: TimeSpan::ZERO,
                devices: JobDevices::new(&[device(0)]),
                transfer: TimeSpan::from_hours(t),
                tail: TimeSpan::ZERO,
            })
            .collect();
        let total: f64 = transfers.iter().sum();
        for policy in [SchedulingPolicy::PriorityExclusive, SchedulingPolicy::ShortestFirst] {
            let schedule = schedule_jobs_with(jobs.clone(), policy);
            let mut completions: Vec<f64> =
                jobs.iter().map(|j| schedule.recovery_time(j.app).unwrap().as_hours()).collect();
            completions.sort_by(|a, b| a.partial_cmp(b).unwrap());
            // The last completion is the total work; each completion is a
            // distinct prefix sum.
            prop_assert!((completions.last().unwrap() - total).abs() < 1e-6);
            for pair in completions.windows(2) {
                prop_assert!(pair[1] > pair[0] - 1e-9);
            }
        }
    }
}
