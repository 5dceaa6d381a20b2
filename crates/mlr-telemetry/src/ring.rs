//! The bounded ring under the span journal: preallocated once, overwriting the oldest record when full and counting
//! what it overwrote. Memory use is `capacity × size_of::<T>()`, fixed at
//! construction.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

struct Slots<T> {
    records: Vec<T>,
    /// Index of the oldest record once the ring is full; 0 until then.
    head: usize,
}

/// A bounded ring of `Copy` records. Allocation-free after construction.
pub(crate) struct Ring<T> {
    capacity: usize,
    dropped: AtomicU64,
    slots: Mutex<Slots<T>>,
}

impl<T: Copy> Ring<T> {
    /// A ring holding at most `capacity` records (minimum 1).
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            dropped: AtomicU64::new(0),
            slots: Mutex::new(Slots {
                records: Vec::with_capacity(capacity),
                head: 0,
            }),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.lock().records.len()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Appends the record `make` builds, overwriting the oldest when full.
    /// `make` runs under the ring's lock, so a sequence number it draws
    /// orders the ring.
    pub(crate) fn push_with(&self, make: impl FnOnce() -> T) {
        let mut slots = self.slots.lock();
        let record = make();
        if slots.records.len() < self.capacity {
            slots.records.push(record);
        } else {
            let head = slots.head;
            slots.records[head] = record;
            slots.head = (head + 1) % self.capacity;
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Copies the retained records out, oldest first.
    pub(crate) fn snapshot(&self) -> Vec<T> {
        let slots = self.slots.lock();
        let (newer, older) = slots.records.split_at(slots.head);
        older.iter().chain(newer).copied().collect()
    }
}
