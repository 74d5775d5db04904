//! Deterministic future-event queue.
//!
//! A binary-heap priority queue keyed by [`SimTime`] with a monotonically
//! increasing sequence number breaking ties, so two events scheduled for the
//! same instant always fire in scheduling order regardless of heap internals.
//! Events can be cancelled lazily via the [`EventId`] returned at push time.
//!
//! Cancellation state lives in a table of recycled slots, one per entry in
//! the heap: a slot returns to a free list when its entry leaves the heap,
//! so the table is bounded by the most entries ever queued at once, not by
//! the number of events ever scheduled. Each slot carries a generation that
//! advances on release, and an [`EventId`] names a slot *and* a generation,
//! so cancelling an event that already fired stays a no-op even after its
//! slot has been handed to a later event.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Handle identifying a scheduled event, usable for cancellation: the slot
/// index in the low 32 bits, the slot's generation in the high 32.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

impl EventId {
    fn new(slot: u32, generation: u32) -> Self {
        EventId(u64::from(generation) << 32 | u64::from(slot))
    }

    fn slot(self) -> usize {
        self.0 as u32 as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

struct Entry<E> {
    at: SimTime,
    seq: u64,
    slot: u32,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so that the earliest (time, seq) pops first from a max-heap.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Cancellation state of one heap entry. A free slot keeps the generation
/// its next occupant will be issued, so no outstanding id matches it (a
/// stale id could alias only after its slot is reused 2^32 times).
#[derive(Clone, Copy)]
struct Slot {
    generation: u32,
    cancelled: bool,
}

// Heap sifting moves whole entries: an entry around a 24-byte event (the
// simulator's) must stay within 48 bytes.
const _: () = assert!(std::mem::size_of::<Entry<[u64; 3]>>() <= 48);

/// The future-event list of the simulation.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// One slot per heap entry, recycled through `free`.
    slots: Vec<Slot>,
    /// Indices of slots whose entry has left the heap.
    free: Vec<u32>,
    /// Sequence number of the next push (the tie-break among equal times).
    next_seq: u64,
    /// Entries in the heap whose slot is cancelled.
    n_cancelled: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            n_cancelled: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: E) -> EventId {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.slots.len()).expect("more than 2^32 queued events");
                self.slots.push(Slot {
                    generation: 0,
                    cancelled: false,
                });
                slot
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            at,
            seq,
            slot,
            event,
        });
        EventId::new(slot, self.slots[slot as usize].generation)
    }

    /// Cancel a previously scheduled event. Cancelling an already-fired or
    /// already-cancelled event is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        let slot = &mut self.slots[id.slot()];
        if slot.generation == id.generation() && !slot.cancelled {
            slot.cancelled = true;
            self.n_cancelled += 1;
        }
    }

    /// Free the slot of an entry that just left the heap; returns whether
    /// the entry was cancelled.
    fn release(&mut self, slot: u32) -> bool {
        let s = &mut self.slots[slot as usize];
        let cancelled = s.cancelled;
        s.generation = s.generation.wrapping_add(1);
        s.cancelled = false;
        self.free.push(slot);
        if cancelled {
            self.n_cancelled -= 1;
        }
        cancelled
    }

    /// Remove and return the earliest pending event with its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if self.release(entry.slot) {
                continue;
            }
            return Some((entry.at, entry.event));
        }
        None
    }

    /// Firing time of the earliest pending event, skipping cancelled ones.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(entry) = self.heap.peek() {
            if self.slots[entry.slot as usize].cancelled {
                let e = self.heap.pop().expect("peeked entry exists");
                self.release(e.slot);
                continue;
            }
            return Some(entry.at);
        }
        None
    }

    /// Number of live (not cancelled) events still to fire.
    #[allow(clippy::len_without_is_empty)] // is_empty needs &mut self (below)
    pub fn len(&self) -> usize {
        self.heap.len() - self.n_cancelled
    }

    /// True if no live events remain. Takes `&mut self` because checking
    /// must skip (and drop) lazily cancelled entries at the heap top.
    #[allow(clippy::wrong_self_convention)]
    pub fn is_empty(&mut self) -> bool {
        self.peek_time().is_none()
    }

    /// Size of the slot table: the most entries (live or lazily cancelled)
    /// the heap has ever held at once.
    pub fn slot_capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(3), "c");
        q.push(t(1), "a");
        q.push(t(2), "b");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert_eq!(q.pop(), Some((t(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(7), i)));
        }
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.push(t(2), "b");
        let c = q.push(t(3), "c");
        q.cancel(a);
        q.cancel(c);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.push(t(5), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(5)));
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_pop_is_noop() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        assert_eq!(q.pop(), Some((t(1), "a")));
        q.cancel(a); // fired already; must not affect later events
        q.push(t(2), "b");
        assert_eq!(q.pop(), Some((t(2), "b")));
    }

    #[test]
    fn stale_cancel_after_slot_reuse_is_noop() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        assert_eq!(q.pop(), Some((t(1), "a")));
        let b = q.push(t(2), "b"); // reuses a's slot
        assert_ne!(a, b);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert_eq!(q.slot_capacity(), 1);
    }

    #[test]
    fn slots_bounded_by_peak_occupancy() {
        let mut q = EventQueue::new();
        for round in 0..1000 {
            let x = q.push(t(round), round);
            let y = q.push(t(round), round + 1);
            q.cancel(x);
            assert_eq!(q.pop(), Some((t(round), round + 1)));
            q.cancel(y); // already fired
        }
        assert!(q.is_empty());
        assert_eq!(q.slot_capacity(), 2);
    }
}
