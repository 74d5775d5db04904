//! Property-based tests for the simulation kernel invariants.

use ars_simcore::{EventId, EventQueue, SharedResource, SimRng, SimTime};
use proptest::prelude::*;
use proptest::sample::Index;
use std::collections::BTreeMap;

/// One step of a random queue interleaving.
#[derive(Debug, Clone)]
enum QueueStep {
    Push(u64),
    Pop,
    Peek,
    /// Cancel one of the ids issued so far: pending, cancelled, fired or
    /// skipped, and possibly naming a slot that now holds a later event.
    Cancel(Index),
}

/// Weighted 4 push : 3 pop : 1 peek : 3 cancel, so the queue both grows
/// and drains and most cancels name an id whose slot has been recycled.
fn queue_step() -> impl Strategy<Value = QueueStep> {
    (0u8..11, 0u64..40, any::<Index>()).prop_map(|(kind, t, ix)| match kind {
        0..=3 => QueueStep::Push(t),
        4..=6 => QueueStep::Pop,
        7 => QueueStep::Peek,
        _ => QueueStep::Cancel(ix),
    })
}

proptest! {
    /// The event queue always pops in non-decreasing (time, insertion) order.
    #[test]
    fn queue_pops_sorted(times in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t > lt || (t == lt && i > li), "order violated");
            }
            last = Some((t, i));
        }
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn queue_cancellation_exact(
        times in proptest::collection::vec(0u64..1000, 1..100),
        mask in proptest::collection::vec(any::<bool>(), 100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.push(SimTime::from_micros(t), i))
            .collect();
        let mut expect: Vec<usize> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if mask[i % mask.len()] {
                q.cancel(*id);
            } else {
                expect.push(i);
            }
        }
        let mut popped: Vec<usize> = Vec::new();
        while let Some((_, i)) = q.pop() {
            popped.push(i);
        }
        popped.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(popped, expect);
    }

    /// Random push / pop / peek / cancel interleavings behave exactly like a
    /// reference ordered map of the heap's contents, where a cancelled entry
    /// stays until a pop or peek skips it. Pops match the reference, `len()`
    /// is exact after every step, and the slot table never grows past the
    /// most entries ever queued at once.
    #[test]
    fn queue_matches_reference_model(
        steps in proptest::collection::vec(queue_step(), 1..400),
    ) {
        let mut q = EventQueue::new();
        // (time, seq) -> (payload, cancelled), mirroring the heap.
        let mut model: BTreeMap<(SimTime, u64), (usize, bool)> = BTreeMap::new();
        let mut issued: Vec<(EventId, (SimTime, u64))> = Vec::new();
        let mut live = 0usize;
        let mut peak = 0usize;
        let skip_cancelled = |model: &mut BTreeMap<(SimTime, u64), (usize, bool)>| {
            while let Some(entry) = model.first_entry() {
                if !entry.get().1 {
                    break;
                }
                entry.remove();
            }
        };
        for step in steps {
            match step {
                QueueStep::Push(t) => {
                    let at = SimTime::from_micros(t);
                    let seq = issued.len() as u64;
                    let id = q.push(at, seq as usize);
                    model.insert((at, seq), (seq as usize, false));
                    issued.push((id, (at, seq)));
                    live += 1;
                    peak = peak.max(model.len());
                }
                QueueStep::Pop => {
                    skip_cancelled(&mut model);
                    let expect = model.pop_first().map(|((at, _), (v, _))| (at, v));
                    if expect.is_some() {
                        live -= 1;
                    }
                    prop_assert_eq!(q.pop(), expect);
                }
                QueueStep::Peek => {
                    skip_cancelled(&mut model);
                    let expect = model.first_key_value().map(|(&(at, _), _)| at);
                    prop_assert_eq!(q.peek_time(), expect);
                }
                QueueStep::Cancel(ix) => {
                    if issued.is_empty() {
                        continue;
                    }
                    let (id, key) = issued[ix.index(issued.len())];
                    if let Some((_, cancelled)) = model.get_mut(&key) {
                        if !*cancelled {
                            *cancelled = true;
                            live -= 1;
                        }
                    }
                    q.cancel(id);
                }
            }
            prop_assert_eq!(q.len(), live);
            prop_assert!(q.slot_capacity() <= peak,
                "slot table {} > peak occupancy {}", q.slot_capacity(), peak);
        }
        // Drain: the remaining live events come out in reference order.
        skip_cancelled(&mut model);
        let rest: Vec<_> = model
            .into_iter()
            .filter(|(_, (_, cancelled))| !cancelled)
            .map(|((at, _), (v, _))| (at, v))
            .collect();
        let mut drained = Vec::new();
        while let Some(ev) = q.pop() {
            drained.push(ev);
        }
        prop_assert_eq!(drained, rest);
        prop_assert!(q.is_empty());
    }

    /// Work conservation: after arbitrary arrivals and settlements, the total
    /// service delivered equals capacity x busy time (within float noise).
    #[test]
    fn resource_conserves_work(
        capacity in 0.1f64..100.0,
        arrivals in proptest::collection::vec((0u64..100_000_000, 0.01f64..50.0), 1..40),
    ) {
        let mut r = SharedResource::new(capacity);
        let mut evs: Vec<(u64, f64)> = arrivals;
        evs.sort_by_key(|&(t, _)| t);
        for &(t, amount) in &evs {
            r.add_job(SimTime::from_micros(t), Some(amount), 1.0);
        }
        let end = SimTime::from_micros(200_000_000);
        r.advance(end);
        let served = r.served_total();
        let cap_busy = capacity * r.busy_secs();
        prop_assert!((served - cap_busy).abs() < 1e-6 * (1.0 + cap_busy),
            "served {} vs capacity*busy {}", served, cap_busy);
    }

    /// No job is served more than its requested amount.
    #[test]
    fn resource_never_overserves(
        amounts in proptest::collection::vec(0.01f64..20.0, 1..20),
    ) {
        let mut r = SharedResource::new(1.0);
        let ids: Vec<_> = amounts
            .iter()
            .map(|&a| r.add_job(SimTime::ZERO, Some(a), 1.0))
            .collect();
        // Advance far enough that all jobs are done.
        let total: f64 = amounts.iter().sum();
        r.advance(SimTime::from_secs_f64(total + 1.0));
        for (id, &a) in ids.iter().zip(&amounts) {
            let served = r.remove_job(SimTime::from_secs_f64(total + 1.0), *id).unwrap();
            prop_assert!(served <= a + 1e-6, "served {} > amount {}", served, a);
        }
    }

    /// RNG stream depends only on the seed.
    #[test]
    fn rng_reproducible(seed in any::<u64>()) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..64 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// `below(n)` is always within range for any n, seed.
    #[test]
    fn rng_below_in_range(seed in any::<u64>(), n in 1u64..u64::MAX) {
        let mut r = SimRng::new(seed);
        for _ in 0..32 {
            prop_assert!(r.below(n) < n);
        }
    }
}
