//! `inventory`: the adaptive, fixed and Schoute anti-collision arms over
//! a fleet of bodies carrying [`TAGS`] tags each, through
//! `bench::inventory::run_fleet` on two workers (after Dumphart et al.'s
//! high-density in-body populations). Protocol-dominated: no channel
//! draws, no harvester transients and no plan search.

use crate::ledger::{
    counter_metrics, end_to_end, fnv1a, median, pool_metrics, setup, timed_calls, Ledger, Outcome,
};
use ivn_bench::inventory::{fleet_experiment, run_fleet, BodyStats, FleetStats};
use ivn_core::inventory::InventoryExperiment;
use ivn_core::scenario::PolicySpec;
use ivn_runtime::pool::WorkerPool;
use ivn_runtime::rng::StdRng;
use std::time::Instant;

/// Tags per body.
const TAGS: usize = 512;
/// Bodies per policy arm.
const BODIES: usize = 2048;
/// Pool width of the fleet (`nproc` on the reference box).
const WIDTH: usize = 2;

/// The three arms, with the ledger row each books to.
fn arms() -> [(PolicySpec, &'static str); 3] {
    [
        (
            PolicySpec::Adaptive { q0: 6, c: 0.3 },
            "inventory.adaptive.busy_s",
        ),
        (PolicySpec::Fixed { q: 9 }, "inventory.fixed.busy_s"),
        (PolicySpec::Schoute { q0: 6 }, "inventory.schoute.busy_s"),
    ]
}

fn run_arms(exp: &InventoryExperiment, seed: u64, width: usize) -> Vec<FleetStats> {
    arms()
        .into_iter()
        .map(|(policy, _)| run_fleet(exp, policy, BODIES, seed, width))
        .collect()
}

/// Checks every body of every arm: it terminated with all its tags read
/// and, when `want` is given, equals that earlier run's body.
fn check(out: &mut Outcome, got: &[FleetStats], want: Option<&[FleetStats]>) {
    for (a, stats) in got.iter().enumerate() {
        for (b, body) in stats.per_body.iter().enumerate() {
            let ok = body.terminated
                && body.inventoried as usize == TAGS
                && want.is_none_or(|w| w[a].per_body.get(b) == Some(body));
            out.check(ok, || format!("inventory arm {a} body {b}: {body:?}"));
        }
    }
}

fn digest(fleets: &[FleetStats]) -> u64 {
    let bodies: Vec<&[BodyStats]> = fleets.iter().map(|f| &f.per_body[..]).collect();
    fnv1a(format!("{bodies:?}").as_bytes())
}

/// Timed run: set-up is `fleet_experiment` (median of 15); each call
/// runs all three arms.
pub fn timed(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, exp) = setup(|| fleet_experiment(TAGS));
    let mut first: Option<Vec<FleetStats>> = None;
    let calls = timed_calls(
        seconds,
        3,
        || run_arms(&exp, seed, WIDTH),
        |fleets| {
            check(&mut out, &fleets, first.as_deref());
            first.get_or_insert(fleets);
        },
    );
    out.digest = first.as_deref().map_or(0, digest);
    end_to_end(&mut out, setup_s, &calls, (3 * BODIES * TAGS) as f64);
    out.notes.push(format!(
        "inventory tag_sessions_per_s = {:.0} 1/s (reference host)",
        out.metrics[0].1
    ));
    out
}

/// Traced run: the driver at the workload's width (pool counts), the
/// driver on one worker (the untraced reference wall time), then the
/// one-worker replay of each body's trial, timed per arm.
pub fn traced(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let exp = fleet_experiment(TAGS);
    out.metric("inventory.prepare_s", t0.elapsed().as_secs_f64(), "s");

    let pool_before = WorkerPool::global().stats();
    let wide = run_arms(&exp, seed, WIDTH);
    pool_metrics(&mut out, &pool_before, &WorkerPool::global().stats());
    check(&mut out, &wide, None);

    let t0 = Instant::now();
    let serial = run_arms(&exp, seed, 1);
    let ref_wall = t0.elapsed().as_secs_f64();
    check(&mut out, &serial, Some(&wide));

    ivn_runtime::obs::set_enabled(true);
    let before = ivn_runtime::obs::report();
    let mut ledger = Ledger::default();
    let root = StdRng::seed_from_u64(seed);
    let t0 = Instant::now();
    let replayed: Vec<FleetStats> = arms()
        .into_iter()
        .zip(&wide)
        .map(|((policy, row), want)| {
            let arm = exp.with_policy(policy);
            let per_body: Vec<BodyStats> = (0..BODIES)
                .map(|b| {
                    let run = ledger.time(row, || arm.run_trial_nominal(&root.fork(b as u64)));
                    BodyStats {
                        inventoried: run.inventoried as u32,
                        rounds: run.rounds as u32,
                        terminated: run.terminated,
                        slots: run.slots as u64,
                        collisions: run.collisions as u64,
                        captures: run.captures as u64,
                    }
                })
                .collect();
            FleetStats {
                per_body,
                ..want.clone()
            }
        })
        .collect();
    let wall = t0.elapsed().as_secs_f64();
    let counters = ivn_runtime::obs::report().delta(&before);
    ivn_runtime::obs::set_enabled(false);
    check(&mut out, &replayed, Some(&wide));
    out.digest = digest(&wide);

    let bodies = wide.iter().flat_map(|f| &f.per_body);
    let sum = |f: fn(&BodyStats) -> u64| bodies.clone().map(f).sum::<u64>() as f64;
    let slots = sum(|b| b.slots);
    out.metric("rfid.slots", slots, "count");
    out.metric("rfid.collisions", sum(|b| b.collisions), "count");
    out.metric("rfid.captures", sum(|b| b.captures), "count");
    out.metric(
        "rfid.reads_per_slot",
        sum(|b| b.inventoried as u64) / slots,
        "ratio",
    );
    let rounds: Vec<f64> = bodies
        .clone()
        .filter(|b| b.terminated)
        .map(|b| b.rounds as f64)
        .collect();
    out.metric("rfid.rounds_to_full_median", median(&rounds), "count");
    ledger.report(&mut out, wall, ref_wall);
    counter_metrics(&mut out, &counters);
    out
}
