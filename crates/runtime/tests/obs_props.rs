//! Property-based tests for the observability layer.
//!
//! The three guarantees the pipeline instrumentation leans on:
//! histogram merging is a commutative monoid (so per-shard snapshots can
//! combine in any order), counter totals are independent of how
//! concurrent threads interleave the increments, and a `Report` survives
//! a round trip through the in-tree `json` layer bit-for-bit.

use ivn_runtime::json::{FromJson, Json, ToJson};
use ivn_runtime::obs::{self, HistogramSnapshot, Report};
use ivn_runtime::prop::{vec, Just, Strategy};
use ivn_runtime::{prop_assert, prop_assert_eq, prop_oneof, props};
use std::sync::atomic::{AtomicU64, Ordering};

/// Fresh metric name per property case: the registry is process-global,
/// so every case records into its own counter.
fn unique_name(prefix: &str) -> String {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    format!("{prefix}.{}", NEXT.fetch_add(1, Ordering::Relaxed))
}

/// Calls `f` on every item from `threads` fresh OS threads at once
/// (thread `t` takes items `t`, `t + threads`, …), so recording really
/// races across threads.
fn on_threads<T: Sync>(threads: usize, items: &[T], f: impl Fn(&T) + Sync) {
    std::thread::scope(|scope| {
        for t in 0..threads {
            let f = &f;
            scope.spawn(move || items.iter().skip(t).step_by(threads).for_each(f));
        }
    });
}

/// Sample values spanning every histogram bucket from 0 up to 2^40.
fn values() -> impl Strategy<Value = Vec<u64>> {
    vec(
        prop_oneof![
            Just(0u64),
            1u64..16,
            16u64..4096,
            4096u64..(1 << 20),
            (1u64 << 20)..(1 << 40),
        ],
        0..48,
    )
}

/// A structurally arbitrary report whose numbers all survive the f64
/// bridge the JSON layer uses (counters < 2^50, sums < 2^53).
fn report_strategy() -> impl Strategy<Value = Report> {
    (
        vec(0u64..(1 << 50), 0..5),
        vec(-1e12f64..1e12, 0..5),
        vec(values(), 0..4),
    )
        .prop_map(|(counters, gauges, hists)| Report {
            counters: counters
                .into_iter()
                .enumerate()
                .map(|(i, v)| (format!("c{i}"), v))
                .collect(),
            gauges: gauges
                .into_iter()
                .enumerate()
                .map(|(i, v)| (format!("g{i}"), v))
                .collect(),
            histograms: hists
                .into_iter()
                .enumerate()
                .map(|(i, vs)| (format!("h{i}"), HistogramSnapshot::from_values(&vs)))
                .collect(),
        })
}

props! {
    cases = 64;

    fn histogram_merge_is_commutative(a in values(), b in values()) {
        let (sa, sb) = (HistogramSnapshot::from_values(&a), HistogramSnapshot::from_values(&b));
        prop_assert_eq!(sa.merge(&sb), sb.merge(&sa));
    }

    fn histogram_merge_is_associative(a in values(), b in values(), c in values()) {
        let sa = HistogramSnapshot::from_values(&a);
        let sb = HistogramSnapshot::from_values(&b);
        let sc = HistogramSnapshot::from_values(&c);
        prop_assert_eq!(sa.merge(&sb).merge(&sc), sa.merge(&sb.merge(&sc)));
    }

    fn histogram_merge_matches_concatenation(a in values(), b in values()) {
        let merged = HistogramSnapshot::from_values(&a)
            .merge(&HistogramSnapshot::from_values(&b));
        let concat: Vec<u64> = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(merged, HistogramSnapshot::from_values(&concat));
        // Count and sum are exactly the concatenation's.
        prop_assert_eq!(
            HistogramSnapshot::from_values(&concat).count,
            (a.len() + b.len()) as u64
        );
    }

    fn counter_total_scheduling_independent(
        increments in vec(0u64..1_000_000, 0..64),
        threads in prop_oneof![Just(1usize), Just(2usize), Just(8usize)]
    ) {
        obs::set_enabled(true);
        let c = obs::counter(&unique_name("prop.counter"));
        on_threads(threads, &increments, |&n| c.add(n));
        prop_assert_eq!(c.total(), increments.iter().sum::<u64>());
    }

    fn span_count_scheduling_independent(
        n_spans in 0usize..64,
        threads in prop_oneof![Just(1usize), Just(2usize), Just(8usize)]
    ) {
        obs::set_enabled(true);
        let h = obs::histogram(&unique_name("prop.hist"));
        let items: Vec<usize> = (0..n_spans).collect();
        on_threads(threads, &items, |&i| h.record(i as u64));
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, n_spans as u64);
        prop_assert_eq!(snap.sum, items.iter().map(|&i| i as u64).sum::<u64>());
    }

    fn report_round_trips_through_json(r in report_strategy()) {
        // JSON carries the pruned view (zero counters and empty
        // histograms dropped); everything that ever fired survives the
        // round trip bit-for-bit, and pruning is idempotent.
        let text = r.to_json().dump();
        let parsed = Json::parse(&text).expect("parse emitted JSON");
        let back = Report::from_json(&parsed).expect("decode report");
        prop_assert_eq!(&back, &r.pruned());
        prop_assert_eq!(back.pruned(), back);
    }

    fn pruning_preserves_merge(a in report_strategy(), b in report_strategy()) {
        // The entries pruning drops are merge identities, so merging the
        // pruned view back into any report that names the same metrics
        // gives the same totals as merging the full view.
        let full = a.merge(&b);
        let via_pruned = a.pruned().merge(&b);
        for (name, v) in &full.counters {
            if b.counter(name).is_some() || a.counter(name).unwrap_or(0) > 0 {
                prop_assert_eq!(via_pruned.counter(name), Some(*v));
            }
        }
        for (name, s) in &full.histograms {
            let survived = b.histogram(name).is_some()
                || a.histogram(name).map(|h| h.count > 0).unwrap_or(false);
            if survived {
                prop_assert_eq!(via_pruned.histogram(name), Some(s));
            }
        }
    }

    fn delta_merge_identity(prev in report_strategy(), extra in report_strategy()) {
        // Build `cur` as a later snapshot of `prev` (same or grown name
        // set, monotone counters/histograms), then check the flight
        // recorder's core identity: prev ⊎ (cur − prev) == cur, and the
        // delta never goes negative (saturating arithmetic).
        let cur = prev.merge(&extra);
        let d = cur.delta(&prev);
        prop_assert_eq!(prev.merge(&d), cur);
        for (name, v) in &d.counters {
            let (p, c) = (prev.counter(name).unwrap_or(0), cur.counter(name).unwrap_or(0));
            prop_assert_eq!(*v, c - p);
        }
        // Reversed-order delta saturates to zero instead of wrapping.
        for (name, v) in &prev.delta(&cur).counters {
            let (p, c) = (prev.counter(name).unwrap_or(0), cur.counter(name).unwrap_or(0));
            prop_assert_eq!(*v, p.saturating_sub(c));
        }
    }

    fn delta_scheduling_independent(
        increments in vec(1u64..1_000_000, 1..48),
        threads in prop_oneof![Just(1usize), Just(2usize), Just(8usize)]
    ) {
        // The interval delta a heartbeat reports depends only on what was
        // recorded, not on which worker recorded it.
        obs::set_enabled(true);
        let name = unique_name("prop.delta");
        let c = obs::counter(&name);
        let prev = obs::report();
        on_threads(threads, &increments, |&n| c.add(n));
        let d = obs::report().delta(&prev);
        prop_assert_eq!(d.counter(&name), Some(increments.iter().sum::<u64>()));
    }

    fn snapshot_mean_sits_inside_bucket_range(vs in values()) {
        let s = HistogramSnapshot::from_values(&vs);
        if let Some(mean) = s.mean() {
            let lo = vs.iter().min().copied().unwrap_or(0) as f64;
            let hi = vs.iter().max().copied().unwrap_or(0) as f64;
            prop_assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9, "mean {mean} outside [{lo}, {hi}]");
        } else {
            prop_assert!(vs.is_empty());
        }
    }
}
