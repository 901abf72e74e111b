//! Equivalence witness for the population driver's occupied-slot walk.
//!
//! `inventory_population` sorts the active tags by `(slot, tag index)`,
//! visits only occupied slots and accounts each run of empty slots with
//! one `AntiCollision::on_empty_slots` call; a read copies `Tag::epc()`.
//! The reference below is the walk it replaced: a stable counting sort
//! over all `2^Q` slots, one `on_slot_outcome(&Empty)` per empty slot,
//! and the EPC sliced out of the full PC + EPC + CRC-16 reply. Both must
//! return `assert_eq!`-identical outcomes — EPCs, every `RoundStats`,
//! `terminated` — and leave every tag and the capture RNG in the same
//! state. The second half pins the hook contract itself: for every
//! policy, `on_empty_slots(k)` equals `k` per-slot empty calls.

use ivn_rfid::anticollision::{AdaptiveQ, AntiCollision, CaptureModel, FixedQ, SchouteQ};
use ivn_rfid::population::inventory_population;
use ivn_rfid::reader::{InventoryOutcome, QAlgorithm, RoundStats, SlotOutcome};
use ivn_rfid::tag::Tag;
use ivn_runtime::prop::{any, vec as pvec, Just};
use ivn_runtime::rng::{Rng, StdRng};
use ivn_runtime::{prop_assert_eq, prop_oneof, props};

/// The full-frame counting-sort walk, one slot at a time.
fn reference_inventory(
    policy: &mut dyn AntiCollision,
    mut capture: Option<&mut CaptureModel>,
    tags: &mut [Tag],
    max_rounds: usize,
) -> InventoryOutcome {
    let target = tags.iter().filter(|t| t.fast_active()).count();
    let mut out = InventoryOutcome {
        epcs: Vec::new(),
        rounds: Vec::new(),
        terminated: target == 0,
    };
    for _ in 0..max_rounds {
        if out.terminated {
            break;
        }
        let q = policy.choose_q();
        let n_slots = 1usize << q;
        let active: Vec<usize> = (0..tags.len()).filter(|&i| tags[i].fast_active()).collect();
        let slots: Vec<u32> = active.iter().map(|&i| tags[i].fast_draw_slot(q)).collect();

        // Stable counting sort of active tags by slot.
        let mut starts = vec![0usize; n_slots + 1];
        for &s in &slots {
            starts[s as usize + 1] += 1;
        }
        for s in 0..n_slots {
            starts[s + 1] += starts[s];
        }
        let mut cursor = starts[..n_slots].to_vec();
        let mut order = vec![0usize; active.len()];
        for (k, &s) in slots.iter().enumerate() {
            order[cursor[s as usize]] = active[k];
            cursor[s as usize] += 1;
        }

        let mut stats = RoundStats::default();
        for s in 0..n_slots {
            let repliers = &order[starts[s]..starts[s + 1]];
            let outcome = match repliers {
                [] => SlotOutcome::Empty,
                [idx] => {
                    tags[*idx].fast_draw_rn16();
                    reference_read(tags, *idx)
                }
                _ => {
                    for &ti in repliers {
                        tags[ti].fast_draw_rn16();
                    }
                    match capture
                        .as_deref_mut()
                        .and_then(|cap| cap.arbitrate(repliers))
                    {
                        Some(k) => {
                            stats.captures += 1;
                            reference_read(tags, repliers[k])
                        }
                        None => SlotOutcome::Collision,
                    }
                }
            };
            policy.on_slot_outcome(&outcome);
            match &outcome {
                SlotOutcome::Empty => stats.empty += 1,
                SlotOutcome::Inventoried(_) => stats.singles += 1,
                SlotOutcome::Collision => stats.collisions += 1,
            }
            if let SlotOutcome::Inventoried(epc) = outcome {
                out.epcs.push(epc);
            }
        }
        policy.on_round_end(&stats);
        out.rounds.push(stats);
        if out.epcs.len() == target {
            out.terminated = true;
        }
    }
    out
}

/// The EPC sliced out of the full reply, as the broadcast reader does.
fn reference_read(tags: &mut [Tag], idx: usize) -> SlotOutcome {
    let bits = tags[idx].epc_reply_bits();
    assert!(ivn_rfid::crc::check_crc16(&bits));
    tags[idx].fast_mark_inventoried();
    SlotOutcome::Inventoried(bits[16..bits.len() - 16].to_vec())
}

/// A single-read population seeded from `seed`; tags whose bit is set
/// in `unpowered` stay dark. EPC lengths vary (96 bits or shorter), so
/// the PC word and CRC slicing are exercised at more than one length.
fn population(n: usize, seed: u64, unpowered: u64) -> Vec<Tag> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let mut t = if i % 3 == 2 {
                let bits = 16 * (1 + i % 5);
                let epc: Vec<bool> = (0..bits).map(|_| rng.random()).collect();
                Tag::new(epc, rng.random())
            } else {
                Tag::with_epc96(rng.random::<u128>() >> 32, rng.random())
            };
            t.set_powered(i >= 64 || unpowered >> i & 1 == 0);
            t.set_single_read(true);
            t
        })
        .collect()
}

/// One of the three policy arms, all started at `q0`.
fn arm(which: u8, q0: u8, c: f64) -> Box<dyn AntiCollision> {
    match which % 3 {
        0 => Box::new(AdaptiveQ::new(QAlgorithm { q0, c })),
        1 => Box::new(FixedQ::new(q0)),
        _ => Box::new(SchouteQ::new(q0)),
    }
}

/// Runs both walks on identical inputs and checks every output and the
/// state they leave behind.
fn check_equivalent(
    policy: &dyn Fn() -> Box<dyn AntiCollision>,
    n: usize,
    unpowered: u64,
    capture: bool,
    seed: u64,
    max_rounds: usize,
) -> Result<(), String> {
    let run = |walk: fn(
        &mut dyn AntiCollision,
        Option<&mut CaptureModel>,
        &mut [Tag],
        usize,
    ) -> InventoryOutcome| {
        let mut tags = population(n, seed, unpowered);
        let mut policy = policy();
        let powers: Vec<f64> = (0..n).map(|i| 1.0 + (i * 7 % 11) as f64).collect();
        let mut cap = CaptureModel::new(powers, 3.0, 6.0, StdRng::seed_from_u64(seed ^ 0xCA9));
        let out = walk(
            policy.as_mut(),
            capture.then_some(&mut cap),
            &mut tags,
            max_rounds,
        );
        // Continuations expose any divergence in tag, policy or capture
        // RNG state that the outcome alone would not show.
        let next_draws: Vec<(bool, u32, u16)> = tags
            .iter_mut()
            .map(|t| (t.fast_active(), t.fast_draw_slot(15), t.fast_draw_rn16()))
            .collect();
        let next_capture = cap.arbitrate(&(0..n).collect::<Vec<_>>());
        (out, policy.choose_q(), next_draws, next_capture)
    };
    let fast = run(inventory_population);
    let reference = run(reference_inventory);
    prop_assert_eq!(fast, reference);
    Ok(())
}

props! {
    cases = 64;

    // Any policy, any starting Q, populations from empty to dense,
    // capture on or off, some tags unpowered.
    fn occupied_slot_walk_matches_full_frame_walk(
        which in 0u8..3,
        q0 in 0u8..16,
        c in prop_oneof![Just(0.0), Just(0.5), 0.0f64..1.0],
        n in 0usize..48,
        unpowered in prop_oneof![Just(0u64), any::<u64>()],
        capture in any::<bool>(),
        seed in 0u64..1 << 48) {
        check_equivalent(&|| arm(which, q0, c), n, unpowered, capture, seed, 24)?;
    }

    // Frames far larger than the population: Q=15 for 1–8 tags.
    fn sparse_giant_frames_match_full_frame_walk(
        which in 0u8..3,
        n in 1usize..9,
        c in prop_oneof![Just(0.0), 0.0f64..1.0],
        unpowered in prop_oneof![Just(0u64), any::<u64>()],
        capture in any::<bool>(),
        seed in 0u64..1 << 48) {
        check_equivalent(&|| arm(which, 15, c), n, unpowered, capture, seed, 8)?;
    }
}

#[test]
fn every_policy_and_q_matches_full_frame_walk() {
    for which in 0..3 {
        for q0 in 0..=15 {
            for capture in [false, true] {
                for (n, unpowered) in [(1, 0), (6, 0b10_0100), (40, 0xF0F0)] {
                    let seed = u64::from(which) << 8 | u64::from(q0);
                    check_equivalent(&|| arm(which, q0, 0.3), n, unpowered, capture, seed, 12)
                        .unwrap_or_else(|e| {
                            panic!("policy {which} q0={q0} capture={capture} n={n}: {e}")
                        });
                }
            }
        }
    }
}

/// A random run of per-slot outcomes to move a policy's state around
/// before the hook is compared.
fn outcomes(seq: &[u8]) -> Vec<SlotOutcome> {
    seq.iter()
        .map(|b| match b % 3 {
            0 => SlotOutcome::Empty,
            1 => SlotOutcome::Collision,
            _ => SlotOutcome::Inventoried(vec![true; 16]),
        })
        .collect()
}

/// Moves `policy` through `warmup` (and a round end tallying it), then
/// returns it after `on_empty_slots(k)` and after `k` per-slot empties.
fn bulk_and_stepwise<P: AntiCollision + Clone>(
    mut policy: P,
    warmup: &[SlotOutcome],
    k: usize,
) -> (P, P) {
    let mut stats = RoundStats::default();
    for o in warmup {
        policy.on_slot_outcome(o);
        match o {
            SlotOutcome::Empty => stats.empty += 1,
            SlotOutcome::Inventoried(_) => stats.singles += 1,
            SlotOutcome::Collision => stats.collisions += 1,
        }
    }
    policy.on_round_end(&stats);
    let (mut bulk, mut stepwise) = (policy.clone(), policy);
    bulk.on_empty_slots(k);
    for _ in 0..k {
        stepwise.on_slot_outcome(&SlotOutcome::Empty);
    }
    (bulk, stepwise)
}

/// Checks the hook contract for every policy from the state `warmup`
/// leaves: equal `choose_q`, equal Qfp bits (adaptive), equal state
/// (fixed, Schoute).
fn check_hook(q0: u8, c: f64, warmup: &[SlotOutcome], k: usize) -> Result<(), String> {
    let (bulk, stepwise) = bulk_and_stepwise(AdaptiveQ::new(QAlgorithm { q0, c }), warmup, k);
    prop_assert_eq!(bulk.qfp().to_bits(), stepwise.qfp().to_bits());
    prop_assert_eq!(bulk.choose_q(), stepwise.choose_q());
    let (bulk, stepwise) = bulk_and_stepwise(FixedQ::new(q0), warmup, k);
    prop_assert_eq!(bulk, stepwise);
    prop_assert_eq!(bulk.choose_q(), stepwise.choose_q());
    let (bulk, stepwise) = bulk_and_stepwise(SchouteQ::new(q0), warmup, k);
    prop_assert_eq!(bulk, stepwise);
    prop_assert_eq!(bulk.choose_q(), stepwise.choose_q());
    Ok(())
}

props! {
    cases = 128;

    fn empty_run_hook_equals_per_slot_empties(
        q0 in prop_oneof![Just(0u8), Just(1u8), Just(14u8), Just(15u8), 0u8..16],
        c in prop_oneof![Just(0.0), Just(0.1), Just(1.0 / 3.0), 0.0f64..1.5, -1.0f64..0.0],
        warmup in pvec(0u8..3, 0..40),
        k in prop_oneof![Just(0usize), Just(1usize), 0usize..64, Just(100_000usize)]) {
        check_hook(q0, c, &outcomes(&warmup), k)?;
    }
}

#[test]
fn empty_run_hook_edge_cases() {
    let collide = |n| vec![SlotOutcome::Collision; n];
    let cases: [(u8, f64, Vec<SlotOutcome>, usize); 8] = [
        // Qfp exactly on the floor, with and without a step.
        (0, 0.3, vec![], 5),
        (0, 0.0, vec![], 5),
        // Just above the floor: the run crosses it part-way.
        (1, 0.3, vec![], 4),
        // Clamped at the ceiling, then drained far past the floor.
        (15, 0.3, collide(3), 100_000),
        (14, 0.7, collide(2), 21),
        // A zero-length run is a no-op.
        (7, 0.3, collide(1), 0),
        // A zero step never moves Qfp.
        (9, 0.0, collide(4), 1000),
        // A negative step climbs off the floor (no early stop).
        (0, -0.25, vec![], 1000),
    ];
    for (q0, c, warmup, k) in cases {
        check_hook(q0, c, &warmup, k).unwrap_or_else(|e| panic!("q0={q0} c={c} k={k}: {e}"));
    }
}

/// A policy relying on the trait's default `on_empty_slots`.
#[derive(Debug, Default)]
struct CountingPolicy {
    empties: usize,
}

impl AntiCollision for CountingPolicy {
    fn choose_q(&self) -> u8 {
        0
    }

    fn on_slot_outcome(&mut self, outcome: &SlotOutcome) {
        if *outcome == SlotOutcome::Empty {
            self.empties += 1;
        }
    }

    fn on_round_end(&mut self, _stats: &RoundStats) {}

    fn name(&self) -> &'static str {
        "counting"
    }
}

#[test]
fn default_empty_run_hook_replays_per_slot_empties() {
    let mut p = CountingPolicy::default();
    p.on_empty_slots(0);
    assert_eq!(p.empties, 0);
    p.on_empty_slots(37);
    assert_eq!(p.empties, 37);
}
