//! The virtual-time event queue both simulators run on.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A min-heap of `(time, event)` pairs; events scheduled for the same
/// instant pop in the order they were pushed, so a run is a pure
/// function of its parameters.
pub(crate) struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
}

struct Scheduled<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // reversed for a min-heap
        other.time.total_cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> EventQueue<E> {
    pub(crate) fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0 }
    }

    pub(crate) fn push(&mut self, time: f64, event: E) {
        self.heap.push(Scheduled { time, seq: self.seq, event });
        self.seq += 1;
    }

    /// The earliest event and its time.
    pub(crate) fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }
}
