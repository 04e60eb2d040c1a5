//! Pooled batch allocator.
//!
//! §4 notes that CJOIN "reduce\[s\] the cost of memory management synchronization by
//! using a specialized allocator for fact tuples": all in-flight tuple structures are
//! preallocated and recycled. The pool implements that in two layers:
//!
//! 1. **Batch recycling** — the Distributor returns spent batches to a lock-free
//!    pool and the Preprocessor reuses them, so the backing vectors circulate
//!    instead of being reallocated.
//! 2. **Tuple recycling** — a recycled batch keeps its [`InFlightTuple`](crate::tuple::InFlightTuple)s as
//!    *spares* (see [`Batch::recycle`]): their per-tuple bit-vector words and
//!    dimension-slot vectors stay allocated and are reinitialised in place by
//!    [`InFlightTuple::reset`](crate::tuple::InFlightTuple::reset) on the next
//!    fill. After warm-up the steady-state scan path performs **zero per-tuple heap
//!    allocations** — the pool hit rate (see [`BatchPool::hits`]) and the engine's
//!    `tuples_allocated` / `tuples_recycled` counters make this observable.
//!
//! The pool is bounded by the number of batches that can be in flight at once,
//! which is itself bounded by the queue capacities.
//!
//! Concurrency: the pool is a lock-free MPMC queue; a batch is owned by exactly one
//! thread at any time (Preprocessor while filling, one shard while filtering and
//! draining it), so its spare tuples need no
//! synchronisation — recycling only moves the batch's live watermark.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::queue::ArrayQueue;

use crate::tuple::Batch;

/// A lock-free pool of reusable tuple batches.
#[derive(Debug)]
pub struct BatchPool {
    slots: ArrayQueue<Batch>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BatchPool {
    /// Creates a pool holding at most `capacity` spare batches.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            slots: ArrayQueue::new(capacity.max(1)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Takes an empty batch from the pool (with its spare tuples ready for in-place
    /// reuse), or allocates a new one.
    pub fn take(&self, capacity_hint: usize) -> Batch {
        if let Some(mut batch) = self.slots.pop() {
            batch.recycle();
            self.hits.fetch_add(1, Ordering::Relaxed);
            return batch;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        Batch::with_capacity(capacity_hint)
    }

    /// Returns a spent batch to the pool (dropped if the pool is full).
    /// The batch's tuples are retained as spares, not deallocated.
    pub fn put(&self, mut batch: Batch) {
        batch.recycle();
        // If the pool is full the batch is simply dropped.
        let _ = self.slots.push(batch);
    }

    /// Number of takes served from the pool.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of takes that had to allocate.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::InFlightTuple;
    use cjoin_common::QuerySet;
    use cjoin_storage::{Row, RowId, Value};

    #[test]
    fn reuses_returned_batches() {
        let pool = BatchPool::new(4);
        let mut b = pool.take(16);
        assert_eq!(pool.misses(), 1);
        b.push(InFlightTuple::new(
            RowId(0),
            Row::new(vec![Value::int(1)]),
            QuerySet::new(4),
            0,
        ));
        let cap = b.capacity();
        pool.put(b);
        let mut b2 = pool.take(16);
        assert_eq!(pool.hits(), 1);
        assert!(b2.is_empty(), "recycled batches are empty");
        assert!(b2.capacity() >= cap.min(1), "capacity is retained");
        assert_eq!(
            b2.spare_tuples(),
            1,
            "the tuple survives the round-trip as a recyclable spare"
        );
        let (_, recycled) = b2.next_slot(4);
        assert!(recycled, "refilling reuses the spare without allocating");
    }

    #[test]
    fn overflow_is_dropped_not_an_error() {
        let pool = BatchPool::new(1);
        pool.put(Batch::new());
        pool.put(Batch::new()); // exceeds capacity; silently dropped
        assert_eq!(pool.hits(), 0);
        let _ = pool.take(1);
        let _ = pool.take(1);
        assert_eq!(pool.hits(), 1);
        assert_eq!(pool.misses(), 1);
    }

    #[test]
    fn concurrent_take_put() {
        let pool = BatchPool::new(16);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        let b = pool.take(4);
                        pool.put(b);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.hits() + pool.misses(), 4000);
    }
}
