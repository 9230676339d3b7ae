//! Exact allocation counts. The counter is process-wide, so these checks
//! run sequentially in a process of their own (`harness = false`):
//! nothing else allocates while they count.

use std::hint::black_box;

use dsd_benchmark::alloc::counted;
use dsd_benchmark::{run, Scale, Workload};

fn one_vec_allocation_counts_as_one() {
    let ((), none) = counted(|| ());
    assert_eq!(none, 0, "an empty window counts nothing");
    let (vec, one) = counted(|| black_box(Vec::<u64>::with_capacity(16)));
    assert_eq!(one, 1, "one Vec allocation");
    drop(vec);
    let (_, outside) = counted(|| ());
    assert_eq!(outside, 0, "the drop outside the window is not counted");
}

fn single_thread_replays_repeat_exactly() {
    let allocation_metrics = || {
        let report = run(Workload::PeerSites, Scale::Tiny, 11, 0.0, true);
        assert!(report.correct());
        report
            .names()
            .filter(|name| name.contains("allocs_per"))
            .map(|name| (name.to_string(), report.value(name).expect("listed metric")))
            .collect::<Vec<_>>()
    };
    let first = allocation_metrics();
    assert!(first.len() > 10, "{first:?}");
    assert_eq!(first, allocation_metrics(), "allocation counts differ between replays");
}

fn main() {
    one_vec_allocation_counts_as_one();
    single_thread_replays_repeat_exactly();
    println!("alloc_counts: 2 checks passed");
}
