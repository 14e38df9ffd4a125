//! A bounded job queue with per-client round-robin fairness.
//!
//! One client posting a thousand jobs must not starve another posting
//! one: jobs are queued per client and workers drain clients in
//! round-robin order, one job per turn. The total bound covers all
//! clients together; a full queue rejects immediately (the server turns
//! that into `429 Retry-After`) instead of blocking the accept path.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

#[derive(Debug)]
struct Inner<T> {
    /// Per-client FIFO lanes (`BTreeMap` for deterministic iteration).
    lanes: BTreeMap<String, VecDeque<T>>,
    /// Round-robin rotation of clients with queued jobs.
    rotation: VecDeque<String>,
    /// Total queued jobs across all lanes.
    len: usize,
    capacity: usize,
    closed: bool,
}

impl<T> Inner<T> {
    /// Takes the next job in round-robin client order, if any.
    fn take(&mut self) -> Option<T> {
        let client = self.rotation.pop_front()?;
        let lane = self.lanes.get_mut(&client).expect("rotation tracks lanes");
        let job = lane.pop_front().expect("lanes in rotation are non-empty");
        if lane.is_empty() {
            self.lanes.remove(&client);
        } else {
            self.rotation.push_back(client);
        }
        self.len -= 1;
        Some(job)
    }
}

/// The queue. `push` never blocks; `pop` blocks until a job or close.
#[derive(Debug)]
pub struct JobQueue<T> {
    inner: Mutex<Inner<T>>,
    available: Condvar,
}

impl<T> JobQueue<T> {
    /// A queue bounded at `capacity` jobs total.
    pub fn new(capacity: usize) -> JobQueue<T> {
        JobQueue {
            inner: Mutex::new(Inner {
                lanes: BTreeMap::new(),
                rotation: VecDeque::new(),
                len: 0,
                capacity,
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Every update leaves the queue whole, so a poisoned lock is safe to
    /// take back.
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues a job for `client`. Returns the job back when the queue
    /// is full or closed — the caller owes the client a `429`/`503`.
    pub fn push(&self, client: &str, job: T) -> Result<(), T> {
        let mut q = self.lock();
        if q.closed || q.len >= q.capacity {
            return Err(job);
        }
        q.len += 1;
        match q.lanes.get_mut(client) {
            Some(lane) => lane.push_back(job),
            None => {
                q.lanes.insert(client.to_string(), VecDeque::from([job]));
                q.rotation.push_back(client.to_string());
            }
        }
        drop(q);
        self.available.notify_one();
        Ok(())
    }

    /// Dequeues the next job in round-robin client order, blocking while
    /// the queue is empty. Returns `None` once the queue is closed and
    /// drained.
    pub fn pop(&self) -> Option<T> {
        let mut q = self.lock();
        loop {
            if let Some(job) = q.take() {
                return Some(job);
            }
            if q.closed {
                return None;
            }
            q = self
                .available
                .wait(q)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: pending jobs still drain, new pushes fail, and
    /// blocked `pop`s wake with `None` once empty.
    pub fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }

    /// Closes the queue *and* takes every pending job, in the same
    /// round-robin order `pop` would have delivered them. This is the
    /// hard-drain path: after the shutdown budget expires, the server
    /// owes each orphaned job a structured 503 instead of silently
    /// dropping it (the accounting invariant counts them as shed).
    /// Blocked `pop`s wake with `None`; subsequent pushes fail.
    pub fn close_and_take(&self) -> Vec<T> {
        let mut q = self.lock();
        q.closed = true;
        let orphans: Vec<T> = std::iter::from_fn(|| q.take()).collect();
        debug_assert_eq!(q.len, 0);
        drop(q);
        self.available.notify_all();
        orphans
    }

    /// Jobs currently queued (not counting those being executed).
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// The total bound `push` enforces.
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }

    /// True when no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rejects_when_full_without_blocking() {
        let q = JobQueue::new(2);
        assert!(q.push("a", 1).is_ok());
        assert!(q.push("a", 2).is_ok());
        assert_eq!(q.push("a", 3), Err(3), "bounded: third job bounces");
        assert_eq!(q.push("b", 4), Err(4), "bound is global, not per client");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn round_robin_interleaves_clients() {
        let q = JobQueue::new(16);
        // Client `a` floods first; `b` and `c` each queue one job.
        for i in 0..4 {
            q.push("a", format!("a{i}")).unwrap();
        }
        q.push("b", "b0".to_string()).unwrap();
        q.push("c", "c0".to_string()).unwrap();
        let order: Vec<String> =
            std::iter::from_fn(|| if q.is_empty() { None } else { q.pop() }).collect();
        assert_eq!(order, ["a0", "b0", "c0", "a1", "a2", "a3"]);
    }

    #[test]
    fn close_wakes_blocked_pop() {
        let q = Arc::new(JobQueue::<u32>::new(4));
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        // Give the waiter time to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(waiter.join().unwrap(), None);
        assert_eq!(q.push("a", 1), Err(1), "closed queue rejects");
    }

    #[test]
    fn close_drains_pending_jobs_first() {
        let q = JobQueue::new(4);
        q.push("a", 1).unwrap();
        q.push("a", 2).unwrap();
        q.close();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_and_take_returns_orphans_in_pop_order() {
        let q = JobQueue::new(8);
        for i in 0..3 {
            q.push("a", format!("a{i}")).unwrap();
        }
        q.push("b", "b0".to_string()).unwrap();
        let orphans = q.close_and_take();
        assert_eq!(orphans, ["a0", "b0", "a1", "a2"]);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None, "closed and drained");
        assert_eq!(q.push("a", "late".to_string()), Err("late".to_string()));
    }

    #[test]
    fn poisoned_queue_still_pushes_pops_and_closes() {
        let q = JobQueue::new(4);
        q.push("a", 1).unwrap();
        // A thread that panics holding the lock poisons it.
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _guard = q.inner.lock();
                panic!("poisoning the queue lock on purpose");
            });
            assert!(holder.join().is_err());
        });
        assert!(q.inner.is_poisoned());
        q.push("b", 2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.capacity(), 4);
        assert_eq!(q.pop(), Some(1));
        q.push("a", 3).unwrap();
        q.close();
        assert_eq!(q.push("a", 4), Err(4), "closed queue rejects");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.close_and_take(), [3]);
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Close racing concurrent pushers and a draining popper: every
        /// job is either delivered exactly once (via `pop` or the
        /// `close_and_take` orphan list) or its push failed — no job is
        /// lost, none is duplicated. This is the conservation law the
        /// server's accounting invariant (`accepted == completed +
        /// rejected + shed + failed`) rests on during shutdown.
        #[test]
        fn close_under_concurrent_pushers_conserves_jobs(
            pushers in 1usize..5,
            per_pusher in 1usize..24,
            hard_drain in any::<bool>(),
            close_after_micros in 0u64..400,
        ) {
            // Capacity covers every job, so the only push failure mode
            // in this test is the close race itself.
            let q = Arc::new(JobQueue::new(pushers * per_pusher));
            let accepted = Arc::new(Mutex::new(Vec::new()));
            let failed = Arc::new(Mutex::new(Vec::new()));
            let delivered = Arc::new(Mutex::new(Vec::new()));

            let popper = {
                let (q, delivered) = (Arc::clone(&q), Arc::clone(&delivered));
                std::thread::spawn(move || {
                    while let Some(job) = q.pop() {
                        delivered.lock().unwrap().push(job);
                    }
                })
            };
            let threads: Vec<_> = (0..pushers)
                .map(|p| {
                    let q = Arc::clone(&q);
                    let accepted = Arc::clone(&accepted);
                    let failed = Arc::clone(&failed);
                    std::thread::spawn(move || {
                        for i in 0..per_pusher {
                            let job = (p, i);
                            match q.push(&format!("client-{p}"), job) {
                                Ok(()) => accepted.lock().unwrap().push(job),
                                Err(job) => failed.lock().unwrap().push(job),
                            }
                        }
                    })
                })
                .collect();

            std::thread::sleep(std::time::Duration::from_micros(close_after_micros));
            let orphans = if hard_drain { q.close_and_take() } else { q.close(); Vec::new() };
            for t in threads {
                t.join().unwrap();
            }
            popper.join().unwrap();
            let mut seen: Vec<(usize, usize)> = delivered.lock().unwrap().clone();
            seen.extend(orphans);
            let mut accepted = Arc::try_unwrap(accepted).unwrap().into_inner().unwrap();
            let failed = Arc::try_unwrap(failed).unwrap().into_inner().unwrap();

            prop_assert_eq!(
                seen.len() + failed.len(),
                pushers * per_pusher,
                "every job accounted for exactly once"
            );
            seen.sort_unstable();
            accepted.sort_unstable();
            prop_assert_eq!(&seen, &accepted, "delivered set == accepted set");
            for job in &failed {
                prop_assert!(!seen.contains(job), "failed push also delivered: {:?}", job);
            }
        }
    }
}
