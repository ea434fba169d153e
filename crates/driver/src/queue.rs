//! The one executor: a bounded FIFO admission queue and the worker loop
//! that drains it.
//!
//! Batch and service scheduling are the same thing seen from two ends.
//! [`run_batch`](crate::run_batch) offers every job up front and closes
//! admission; `irlt-serve` offers requests as they arrive and closes
//! admission on shutdown. Either way, [`run_workers`] starts the
//! workers, each pulls one item at a time with [`Admission::next`], and
//! the caller's work function runs it.
//!
//! * [`Admission::offer`] either enqueues an item (and reports the
//!   resulting depth) or rejects it with a typed [`Rejection`] —
//!   **backpressure** above the high-water mark, **draining** once
//!   shutdown has begun. Nothing ever blocks on admission, so a full
//!   server answers instantly instead of letting clients time out in an
//!   invisible queue.
//! * [`Admission::next`] blocks workers until work, drain, or kill.
//! * Once an item is admitted it is never silently dropped: a drain
//!   finishes the whole queue, and a kill hands the unstarted remainder
//!   back to the caller so each one can be rejected *explicitly*.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Why [`Admission::offer`] refused an item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rejection {
    /// Queue at or above the high-water mark; retry later.
    Backpressure,
    /// Admission is closed (draining or killed); no new work.
    Draining,
}

#[derive(Debug)]
struct State<T> {
    queue: VecDeque<T>,
    in_flight: usize,
    draining: bool,
    killed: bool,
}

/// A bounded FIFO shared by producers and workers.
#[derive(Debug)]
pub struct Admission<T> {
    state: Mutex<State<T>>,
    /// Wakes workers parked in [`Admission::next`].
    takers: Condvar,
    /// Wakes the drain waiter in [`Admission::await_drained`].
    drained: Condvar,
    high_water: usize,
}

impl<T> Admission<T> {
    /// An empty queue that rejects (with backpressure) above
    /// `high_water` queued-but-unstarted items.
    pub fn new(high_water: usize) -> Admission<T> {
        Admission {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                in_flight: 0,
                draining: false,
                killed: false,
            }),
            takers: Condvar::new(),
            drained: Condvar::new(),
            high_water: high_water.max(1),
        }
    }

    /// A poisoned lock only means a worker panicked while holding it;
    /// the queue is still valid, and draining it beats deadlocking the
    /// other workers.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Admits `item` or rejects it; on admission returns the queue depth
    /// including the new item. Never blocks.
    pub fn offer(&self, item: T) -> Result<usize, Rejection> {
        let mut s = self.lock();
        if s.draining || s.killed {
            return Err(Rejection::Draining);
        }
        if s.queue.len() >= self.high_water {
            return Err(Rejection::Backpressure);
        }
        s.queue.push_back(item);
        let depth = s.queue.len();
        self.takers.notify_one();
        Ok(depth)
    }

    /// Blocks until an item is available (marking it in flight) or the
    /// queue is finished: `None` means drain-complete or killed, and
    /// the worker should exit.
    pub fn next(&self) -> Option<T> {
        let mut s = self.lock();
        loop {
            if s.killed {
                return None;
            }
            if let Some(item) = s.queue.pop_front() {
                s.in_flight += 1;
                return Some(item);
            }
            if s.draining {
                return None;
            }
            s = self.takers.wait(s).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Marks one in-flight item finished.
    pub fn finish(&self) {
        let mut s = self.lock();
        s.in_flight = s.in_flight.saturating_sub(1);
        if s.queue.is_empty() && s.in_flight == 0 {
            self.drained.notify_all();
        }
    }

    /// Starts a graceful drain: admission closes, queued and in-flight
    /// work still completes, idle workers wake up to exit. Idempotent.
    pub fn drain(&self) {
        let mut s = self.lock();
        s.draining = true;
        self.takers.notify_all();
        if s.queue.is_empty() && s.in_flight == 0 {
            self.drained.notify_all();
        }
    }

    /// Hard stop: admission closes, workers exit at the next poll, and
    /// the **unstarted** queue is handed back so every admitted item
    /// can be rejected explicitly — admitted work is never silently
    /// dropped, even on kill.
    pub fn kill(&self) -> Vec<T> {
        let mut s = self.lock();
        s.killed = true;
        s.draining = true;
        let orphans = std::mem::take(&mut s.queue).into();
        self.takers.notify_all();
        self.drained.notify_all();
        orphans
    }

    /// Blocks until the queue is empty **and** nothing is in flight.
    /// Call [`Admission::drain`] first or this can wait forever.
    pub fn await_drained(&self) {
        let mut s = self.lock();
        while !s.killed && (!s.queue.is_empty() || s.in_flight > 0) {
            s = self.drained.wait(s).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Items queued but not yet started.
    pub fn depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Items queued plus in flight.
    pub fn pending(&self) -> usize {
        let s = self.lock();
        s.queue.len() + s.in_flight
    }

    /// Whether drain (or kill) has begun.
    pub fn is_draining(&self) -> bool {
        self.lock().draining
    }
}

/// Runs `workers` threads over `queue` while `front` runs on the
/// calling thread, and returns `front`'s result once every worker has
/// joined.
///
/// Each worker loops `while let Some(item) = queue.next() { work(w,
/// item); queue.finish() }`, where `w` is its index. `front` is the
/// producer: when it returns (or unwinds), admission closes with
/// [`Admission::drain`], so the workers finish what was admitted and
/// exit. A batch offers everything before calling this and passes an
/// empty `front`; a server's `front` is its accept or read loop. The
/// workers live in [`std::thread::scope`], so none outlives the call.
pub fn run_workers<T: Send, R>(
    workers: usize,
    queue: &Admission<T>,
    work: impl Fn(usize, T) + Sync,
    front: impl FnOnce() -> R,
) -> R {
    /// Closes admission even if `front` panics, so the scope can join.
    struct DrainOnDrop<'a, T>(&'a Admission<T>);
    impl<T> Drop for DrainOnDrop<'_, T> {
        fn drop(&mut self) {
            self.0.drain();
        }
    }
    let work = &work;
    std::thread::scope(|scope| {
        for w in 0..workers.max(1) {
            scope.spawn(move || {
                while let Some(item) = queue.next() {
                    work(w, item);
                    queue.finish();
                }
            });
        }
        let _close = DrainOnDrop(queue);
        front()
    })
}

/// Worker threads for a requested count: `0` means one per available
/// core, anything else is taken as given.
pub fn resolve_workers(requested: usize) -> usize {
    match requested {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn high_water_mark_rejects_with_backpressure() {
        let q = Admission::new(2);
        assert_eq!(q.offer("a").unwrap(), 1);
        assert_eq!(q.offer("b").unwrap(), 2);
        assert_eq!(q.offer("c").unwrap_err(), Rejection::Backpressure);
        // Popping one frees a slot.
        assert_eq!(q.next(), Some("a"));
        assert_eq!(q.offer("c").unwrap(), 2);
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pending(), 3);
    }

    #[test]
    fn drain_rejects_new_work_but_finishes_the_queue() {
        let q = Admission::new(8);
        q.offer("a").unwrap();
        q.drain();
        assert!(q.is_draining());
        assert_eq!(q.offer("b").unwrap_err(), Rejection::Draining);
        // The queued item still comes out; then workers see None.
        assert_eq!(q.next(), Some("a"));
        q.finish();
        assert_eq!(q.next(), None);
        q.await_drained();
    }

    #[test]
    fn kill_returns_the_unstarted_remainder() {
        let q = Admission::new(8);
        q.offer("a").unwrap();
        q.offer("b").unwrap();
        assert_eq!(q.next(), Some("a")); // in flight
        assert_eq!(q.kill(), ["b"]);
        assert_eq!(q.next(), None);
        assert_eq!(q.offer("c").unwrap_err(), Rejection::Draining);
    }

    #[test]
    fn drain_wakes_parked_workers() {
        let q = Admission::new(4);
        let served = AtomicUsize::new(0);
        run_workers(
            1,
            &q,
            |_, _: &str| {
                served.fetch_add(1, Ordering::Relaxed);
            },
            || {
                q.offer("a").unwrap();
                q.offer("b").unwrap();
                q.drain();
                q.await_drained();
            },
        );
        assert_eq!(served.into_inner(), 2);
    }

    #[test]
    fn workers_run_every_admitted_item_once_in_fifo_order() {
        let q = Admission::new(64);
        for k in 0..64 {
            q.offer(k).unwrap();
        }
        let taken = Mutex::new(Vec::new());
        run_workers(1, &q, |_, k| taken.lock().unwrap().push(k), || ());
        assert_eq!(taken.into_inner().unwrap(), (0..64).collect::<Vec<_>>());
        assert_eq!(q.pending(), 0);
    }
}
