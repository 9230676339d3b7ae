//! Concurrency guarantees of the metrics registry: parallel counter
//! increments are never lost, and per-thread histogram buffers merge
//! losslessly — a multi-thread run produces the exact snapshot a
//! single-thread run over the same observations would.
//!
//! Observed values are quarter-integers, which sum exactly in `f64`, so
//! snapshots compare bit-for-bit regardless of merge order.

use std::thread;

use dsd_obs::{Histogram, MetricsRegistry, Recorder};
use proptest::prelude::*;

/// An exact-in-f64 positive value derived from an index.
fn exact_value(i: usize) -> f64 {
    0.25 * ((i % 97) + 1) as f64
}

#[test]
fn parallel_counter_increments_are_never_lost() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let recorder = Recorder::new();
    thread::scope(|s| {
        for t in 0..THREADS {
            let recorder = recorder.clone();
            s.spawn(move || {
                let _guard = recorder.install();
                for i in 0..PER_THREAD {
                    dsd_obs::add("conc.total", 1);
                    if i % 2 == 0 {
                        dsd_obs::add("conc.even", 1);
                    }
                }
                dsd_obs::gauge("conc.last_thread", t as f64);
            });
        }
    });
    let snap = recorder.metrics_snapshot();
    assert_eq!(snap.counter("conc.total"), Some(THREADS as u64 * PER_THREAD));
    assert_eq!(snap.counter("conc.even"), Some(THREADS as u64 * PER_THREAD / 2));
    let last = snap.gauges.get("conc.last_thread").copied().expect("gauge recorded");
    assert!(
        last.fract() == 0.0 && last >= 0.0 && last < THREADS as f64,
        "gauge must hold exactly one thread's write, got {last}"
    );
}

#[test]
fn threaded_histogram_observations_merge_losslessly() {
    const THREADS: usize = 6;
    // Above the recorder's flush threshold, so mid-run flushes interleave
    // with other threads' merges rather than everything arriving at drop.
    const PER_THREAD: usize = 5_000;
    let recorder = Recorder::new();
    thread::scope(|s| {
        for t in 0..THREADS {
            let recorder = recorder.clone();
            s.spawn(move || {
                let _guard = recorder.install();
                for i in 0..PER_THREAD {
                    dsd_obs::observe("conc.latency", exact_value(t * PER_THREAD + i));
                }
            });
        }
    });
    let mut reference = Histogram::new();
    for i in 0..THREADS * PER_THREAD {
        reference.observe(exact_value(i));
    }
    let snap = recorder.metrics_snapshot();
    let got = snap.histogram("conc.latency").expect("histogram recorded");
    assert_eq!(*got, reference.snapshot(), "threaded merge must equal the sequential reference");
}

#[test]
fn registry_cells_are_safe_to_share_across_threads() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 2_000;
    let registry = MetricsRegistry::new();
    thread::scope(|s| {
        for _ in 0..THREADS {
            let registry = &registry;
            s.spawn(move || {
                let hits = registry.counter("direct.hits");
                let mut local = Histogram::new();
                for i in 0..PER_THREAD {
                    hits.add(1);
                    local.observe(exact_value(i));
                }
                registry.merge_histogram("direct.lat", &local);
            });
        }
    });
    let mut reference = Histogram::new();
    for _ in 0..THREADS {
        for i in 0..PER_THREAD {
            reference.observe(exact_value(i));
        }
    }
    let snap = registry.snapshot();
    assert_eq!(snap.counter("direct.hits"), Some((THREADS * PER_THREAD) as u64));
    assert_eq!(*snap.histogram("direct.lat").expect("histogram present"), reference.snapshot());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Merging any partition of an observation stream, in any part
    /// order, reproduces the all-at-once histogram exactly.
    #[test]
    fn histogram_merge_is_exact_for_any_partition(
        assignments in prop::collection::vec((0usize..4000, 0usize..5), 1..200),
    ) {
        let mut all = Histogram::new();
        let mut parts = vec![Histogram::new(); 5];
        for &(i, p) in &assignments {
            let v = exact_value(i);
            all.observe(v);
            parts[p].observe(v);
        }
        let mut merged = Histogram::new();
        for part in &parts {
            merged.merge(part);
        }
        prop_assert_eq!(&merged, &all);
        prop_assert_eq!(merged.snapshot(), all.snapshot());
    }

    /// Underflow (non-positive / non-finite) observations survive merges
    /// with exact counts, never leaking into the positive buckets.
    #[test]
    fn merge_preserves_underflow_counts(
        raw in prop::collection::vec(-2000i32..2000, 1..150),
    ) {
        let mut all = Histogram::new();
        let mut even = Histogram::new();
        let mut odd = Histogram::new();
        for (i, &x) in raw.iter().enumerate() {
            let v = 0.25 * f64::from(x);
            all.observe(v);
            if i % 2 == 0 { even.observe(v) } else { odd.observe(v) }
        }
        let mut merged = Histogram::new();
        merged.merge(&even);
        merged.merge(&odd);
        let positives = raw.iter().filter(|&&x| x > 0).count() as u64;
        prop_assert_eq!(merged.count(), positives);
        prop_assert_eq!(merged.snapshot().underflow, raw.len() as u64 - positives);
        prop_assert_eq!(&merged, &all);
    }
}
