//! Population-scale inventory driver: O(active · log active) per round,
//! independent of the frame size `2^Q`.
//!
//! [`crate::reader::Reader::run_round`] broadcasts every command to every
//! tag, which is O(tags × slots) per round — faithful, but hopeless for
//! populations of thousands. This module exploits a structural fact of
//! the protocol: each eligible tag's observable behaviour in a round is
//! fully determined by two private RNG draws — the slot it picks at the
//! Query (no draw when q = 0) and the RN16 it generates when that slot
//! arrives. Tag RNGs are private, so any schedule that preserves each
//! tag's own draw order is bit-identical to the broadcast loop.
//!
//! [`inventory_population`] therefore draws every active tag's slot up
//! front and sorts the active tags by `(slot, tag index)`: repliers in a
//! slot stay in ascending tag order, which is the order the broadcast
//! loop would have them reply in — this is what keeps the *reader-side*
//! capture RNG byte-identical too. It then visits only the occupied
//! slots, in ascending order: single (ACK + EPC) or collision
//! (optionally arbitrated by the [`CaptureModel`]). Each run of `k`
//! empty slots between them is accounted in one step — `k` more empty
//! slots in the round's tallies and one
//! [`AntiCollision::on_empty_slots`]`(k)` call, which every policy must
//! treat exactly like `k` calls of `on_slot_outcome(&Empty)`. The
//! policy therefore ends each round in the same state as it would under
//! the broadcast reader, while a round costs a sort of its active tags
//! however large the frame (one collision-heavy round can push the
//! adaptive Q to 15: a 32 768-slot frame for a few hundred tags).
//!
//! A read costs one EPC copy. The broadcast reader slices the EPC back
//! out of the tag's PC + EPC + CRC-16 reply after checking the CRC;
//! that reply is built from [`Tag::epc`] and is CRC-valid by
//! construction, so the slice *is* `Tag::epc()` and the fast path never
//! builds the reply.
//!
//! The driver requires single-read tags
//! ([`Tag::set_single_read`](crate::tag::Tag::set_single_read)): without
//! the inventoried flag a dense population never converges, and the
//! O(reads²) EPC dedup the naive reader performs would dominate the
//! round cost. Termination is reported against the *readable* population
//! (powered, not parked), so fleets with unpowered tags still finish.

use crate::anticollision::{AntiCollision, CaptureModel};
use crate::reader::{InventoryOutcome, RoundStats, SlotOutcome};
use crate::tag::Tag;

/// Runs inventory rounds over a tag population until every readable tag
/// is inventoried or `max_rounds` expires.
///
/// Bit-identical to driving [`crate::reader::Reader`] (with the same
/// policy and capture state) over the same tags, provided the tags are
/// in single-read mode — see the module docs for why.
pub fn inventory_population(
    policy: &mut dyn AntiCollision,
    mut capture: Option<&mut CaptureModel>,
    tags: &mut [Tag],
    max_rounds: usize,
) -> InventoryOutcome {
    assert!(
        u32::try_from(tags.len()).is_ok(),
        "tag indices must fit the low half of a sort key"
    );
    let target = tags.iter().filter(|t| t.fast_active()).count();
    let mut out = InventoryOutcome {
        epcs: Vec::new(),
        rounds: Vec::new(),
        terminated: target == 0,
    };

    // Scratch reused across rounds: one `slot << 32 | tag index` key per
    // active tag, and a multi-reply slot's tag indices.
    let mut keys: Vec<u64> = Vec::new();
    let mut repliers: Vec<usize> = Vec::new();

    for _ in 0..max_rounds {
        if out.terminated {
            break;
        }
        let q = policy.choose_q();
        let n_slots = 1u64 << q;

        keys.clear();
        for (i, t) in tags.iter_mut().enumerate() {
            if t.fast_active() {
                keys.push(u64::from(t.fast_draw_slot(q)) << 32 | i as u64);
            }
        }
        keys.sort_unstable();

        let mut stats = RoundStats::default();
        // First slot not yet accounted for.
        let mut next = 0u64;
        let mut lo = 0;
        while lo < keys.len() {
            let slot = keys[lo] >> 32;
            let mut hi = lo + 1;
            while hi < keys.len() && keys[hi] >> 32 == slot {
                hi += 1;
            }
            skip_empty(policy, &mut stats, slot - next);
            next = slot + 1;
            let outcome = if hi - lo == 1 {
                let idx = tag_index(keys[lo]);
                tags[idx].fast_draw_rn16();
                read_tag(tags, idx)
            } else {
                // Every replier in the slot draws its RN16 (index order —
                // their RNGs are private, but this mirrors the broadcast
                // schedule exactly).
                repliers.clear();
                repliers.extend(keys[lo..hi].iter().map(|&k| tag_index(k)));
                for &ti in &repliers {
                    tags[ti].fast_draw_rn16();
                }
                match capture
                    .as_deref_mut()
                    .and_then(|cap| cap.arbitrate(&repliers))
                {
                    Some(k) => {
                        stats.captures += 1;
                        read_tag(tags, repliers[k])
                    }
                    None => SlotOutcome::Collision,
                }
            };
            policy.on_slot_outcome(&outcome);
            stats.tally(&outcome);
            if let SlotOutcome::Inventoried(epc) = outcome {
                out.epcs.push(epc);
            }
            lo = hi;
        }
        skip_empty(policy, &mut stats, n_slots - next);
        policy.on_round_end(&stats);
        out.rounds.push(stats);
        if out.epcs.len() == target {
            out.terminated = true;
        }
    }
    out
}

/// The tag index packed into the low half of a sort key.
fn tag_index(key: u64) -> usize {
    (key & 0xFFFF_FFFF) as usize
}

/// Accounts a run of `k` empty slots (no-op for `k == 0`).
fn skip_empty(policy: &mut dyn AntiCollision, stats: &mut RoundStats, k: u64) {
    if k > 0 {
        stats.empty += k as usize;
        policy.on_empty_slots(k as usize);
    }
}

/// ACKs a replier: the Inventoried arm of the broadcast reader's
/// `resolve_slot`. Its EPC reply is CRC-valid by construction, and the
/// EPC sliced out of it is [`Tag::epc`] — see the module docs.
fn read_tag(tags: &mut [Tag], idx: usize) -> SlotOutcome {
    tags[idx].fast_mark_inventoried();
    SlotOutcome::Inventoried(tags[idx].epc().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anticollision::{AdaptiveQ, FixedQ, SchouteQ};
    use crate::commands::Session;
    use crate::reader::{QAlgorithm, Reader};
    use ivn_runtime::rng::StdRng;

    fn pop(n: usize) -> Vec<Tag> {
        (0..n)
            .map(|i| {
                let mut t = Tag::with_epc96(0x2000 + i as u128, 500 + i as u64);
                t.set_powered(true);
                t.set_single_read(true);
                t
            })
            .collect()
    }

    #[test]
    fn fast_path_matches_broadcast_reader() {
        let arms: [fn() -> Box<dyn AntiCollision>; 3] = [
            || Box::new(AdaptiveQ::new(QAlgorithm { q0: 4, c: 0.3 })),
            || Box::new(FixedQ::new(3)),
            || Box::new(SchouteQ::new(4)),
        ];
        for arm in arms {
            for &n in &[1usize, 2, 5, 8, 17, 33] {
                let mut naive_tags = pop(n);
                let mut reader = Reader::with_policy(Session::S0, arm());
                let naive = reader.inventory_all(&mut naive_tags, 64);

                let mut fast_tags = pop(n);
                let mut policy = arm();
                let fast = inventory_population(policy.as_mut(), None, &mut fast_tags, 64);
                assert_eq!(naive, fast, "{} population {n} diverged", policy.name());
            }
        }
    }

    #[test]
    fn fast_path_matches_broadcast_reader_with_capture() {
        for &n in &[2usize, 8, 17] {
            let powers: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
            let cap =
                |seed| CaptureModel::new(powers.clone(), 3.0, 6.0, StdRng::seed_from_u64(seed));

            let mut naive_tags = pop(n);
            let mut reader = Reader::new(Session::S0, QAlgorithm { q0: 3, c: 0.3 });
            reader.set_capture(cap(42));
            let naive = reader.inventory_all(&mut naive_tags, 64);

            let mut fast_tags = pop(n);
            let mut policy = AdaptiveQ::new(QAlgorithm { q0: 3, c: 0.3 });
            let mut capture = cap(42);
            let fast = inventory_population(&mut policy, Some(&mut capture), &mut fast_tags, 64);
            assert_eq!(naive, fast, "capture population {n} diverged");
            assert!(naive.terminated);
        }
    }

    #[test]
    fn all_policies_complete_a_small_inventory() {
        let policies: Vec<Box<dyn AntiCollision>> = vec![
            Box::new(AdaptiveQ::new(QAlgorithm { q0: 4, c: 0.3 })),
            Box::new(FixedQ::new(5)),
            Box::new(SchouteQ::new(4)),
        ];
        for mut p in policies {
            let mut tags = pop(20);
            let out = inventory_population(p.as_mut(), None, &mut tags, 256);
            assert!(out.terminated, "{} never finished", p.name());
            assert_eq!(out.epcs.len(), 20);
        }
    }

    #[test]
    fn unpowered_tags_excluded_from_target() {
        let mut tags = pop(6);
        tags[1].set_powered(false);
        tags[4].set_powered(false);
        let mut policy = AdaptiveQ::new(QAlgorithm::default());
        let out = inventory_population(&mut policy, None, &mut tags, 128);
        assert!(out.terminated);
        assert_eq!(out.epcs.len(), 4);
    }

    #[test]
    fn empty_population_terminates_immediately() {
        let mut tags: Vec<Tag> = Vec::new();
        let mut policy = AdaptiveQ::new(QAlgorithm::default());
        let out = inventory_population(&mut policy, None, &mut tags, 16);
        assert!(out.terminated);
        assert!(out.rounds.is_empty());
    }
}
