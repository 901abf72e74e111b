//! Property-based tests for the anti-collision seam: every policy must
//! converge with slot spend proportional to the tag count, the capture
//! model must be bit-deterministic under fork-per-trial RNG at any
//! thread count, and collision pressure must grow with the population.

use ivn_rfid::anticollision::{AdaptiveQ, AntiCollision, CaptureModel, FixedQ, SchouteQ};
use ivn_rfid::population::inventory_population;
use ivn_rfid::reader::QAlgorithm;
use ivn_rfid::tag::Tag;
use ivn_runtime::pool;
use ivn_runtime::rng::{Rng, StdRng};
use ivn_runtime::{prop_assert, prop_assert_eq, props};

/// A powered single-read population of `n` tags seeded from `rng`.
fn population(n: usize, rng: &mut StdRng) -> Vec<Tag> {
    (0..n)
        .map(|i| {
            let mut t = Tag::with_epc96(0x7000_0000 + i as u128, rng.random());
            t.set_powered(true);
            t.set_single_read(true);
            t
        })
        .collect()
}

/// The three policy arms, with the fixed arm sized to the population.
fn arms(n: usize) -> Vec<Box<dyn AntiCollision>> {
    let q_fit = (n.max(2) as f64).log2().ceil() as u8;
    vec![
        Box::new(QAlgorithm::default().policy()),
        Box::new(FixedQ::new(q_fit)),
        Box::new(SchouteQ::new(4)),
    ]
}

props! {
    cases = 16;

    // Q convergence: whatever the arm, an inventory of n tags finishes
    // within the round budget and spends slots proportional to n — the
    // frame size tracks the backlog instead of wandering off.
    fn every_policy_converges_with_linear_slot_spend(
        n in 4usize..64, seed in 0u64..1 << 48) {
        let root = StdRng::seed_from_u64(seed);
        for mut policy in arms(n) {
            let mut rng = root.fork(0);
            let mut tags = population(n, &mut rng);
            let out = inventory_population(policy.as_mut(), None, &mut tags, 256);
            prop_assert!(out.terminated, "{} left {} of {} tags unread",
                         policy.name(), n - out.epcs.len(), n);
            prop_assert_eq!(out.epcs.len(), n);
            let slots = out.total_slots();
            prop_assert!(slots >= n, "{}: {} slots for {} tags", policy.name(), slots, n);
            prop_assert!(slots <= 32 * n + 64,
                         "{}: {} slots for {} tags", policy.name(), slots, n);
        }
    }

    // Capture determinism: a trial consumes only forks of its stream,
    // so an ensemble is bit-identical at 1, 2, and 8 threads.
    fn capture_trials_thread_invariant(
        n in 2usize..24, seed in 0u64..1 << 48,
        threshold_db in 1.0f64..9.0, fade_db in 0.0f64..6.0) {
        let run = |threads: usize| {
            pool::ensemble(threads, 6, seed, move |rng, _| {
                let mut tags = population(n, rng);
                let powers: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
                let mut capture =
                    CaptureModel::new(powers, threshold_db, fade_db, rng.fork(n as u64));
                let mut policy = AdaptiveQ::new(QAlgorithm::default());
                let out =
                    inventory_population(&mut policy, Some(&mut capture), &mut tags, 64);
                (out.total_slots(), out.total_captures(), out.epcs)
            })
        };
        let serial = run(1);
        prop_assert_eq!(&run(2), &serial);
        prop_assert_eq!(&run(8), &serial);
    }

    // Collision pressure is monotone in population size: at a fixed
    // frame size, four times the tags never produce fewer collisions
    // (summed over an ensemble to wash out per-trial noise).
    fn collisions_grow_with_population(
        n in 2usize..16, q in 3u8..6, seed in 0u64..1 << 48) {
        let collisions = |count: usize| -> usize {
            pool::ensemble(1, 12, seed, move |rng, _| {
                let mut tags = population(count, rng);
                let mut policy = FixedQ::new(q);
                inventory_population(&mut policy, None, &mut tags, 128)
                    .total_collisions()
            })
            .into_iter()
            .sum()
        };
        let small = collisions(n);
        let large = collisions(4 * n + 8);
        prop_assert!(large >= small,
                     "collisions fell from {small} to {large} when {n} tags became {}",
                     4 * n + 8);
    }
}
