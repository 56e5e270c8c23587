//! A bounded MPMC queue — the daemon's admission-control point.
//!
//! The acceptor thread [`BoundedQueue::try_push`]es accepted connections;
//! worker threads block in [`BoundedQueue::pop`]. The queue never blocks
//! the producer: when it is full, `try_push` hands the connection back so
//! the acceptor can shed it with an immediate `503` instead of queueing
//! unbounded work (which is how a daemon turns an overload into a latency
//! collapse). [`BoundedQueue::close`] starts the drain: producers are
//! refused, but consumers keep draining already-admitted items — an
//! accepted connection is a promise, so a drain never drops one.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// See the module docs.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    cap: usize,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `cap` queued items (minimum 1).
    pub fn new(cap: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                cap: cap.max(1),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // A poisoning panic can only come from a crashed producer or
        // consumer mid-push/pop; the VecDeque itself is still sound.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admit `item`, or hand it back when the queue is full or closed
    /// (the caller sheds it).
    ///
    /// # Errors
    ///
    /// Returns `Err(item)` when the queue is at capacity or closed.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut s = self.lock();
        if s.closed || s.items.len() >= s.cap {
            return Err(item);
        }
        s.items.push_back(item);
        drop(s);
        self.ready.notify_one();
        Ok(())
    }

    /// Take the next item, blocking while the queue is empty and open.
    /// Returns `None` only once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.lock();
        loop {
            if let Some(item) = s.items.pop_front() {
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self.ready.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Close the queue: refuse new items, wake all blocked consumers.
    /// Queued items remain poppable (drain semantics).
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn full_queue_refuses_and_hands_the_item_back() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok(), "space freed by pop");
    }

    #[test]
    fn close_refuses_producers_but_drains_consumers() {
        let q = BoundedQueue::new(4);
        q.try_push(1).ok();
        q.try_push(2).ok();
        q.close();
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "stays closed");
    }

    #[test]
    fn blocked_consumers_wake_on_push_and_close() {
        let q = Arc::new(BoundedQueue::new(4));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        // Give one item to one consumer, then close; the other two must
        // wake with None rather than hang.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.try_push(7).ok();
        q.close();
        let mut got: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        got.sort();
        assert_eq!(got, vec![None, None, Some(7)]);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let q = BoundedQueue::new(0);
        assert!(q.try_push(1).is_ok());
        assert_eq!(q.try_push(2), Err(2));
    }

    /// Regression: a consumer that panics while holding the state mutex
    /// poisons it; `lock()` must recover the inner state so the daemon
    /// keeps admitting and draining instead of wedging every worker and
    /// the acceptor on the first handler bug.
    #[test]
    fn poisoned_mutex_recovers_without_losing_items() {
        let q = Arc::new(BoundedQueue::new(4));
        q.try_push(1).ok();
        let poisoner = Arc::clone(&q);
        let result = std::thread::spawn(move || {
            let _guard = poisoner.state.lock().unwrap();
            panic!("poison the queue mutex");
        })
        .join();
        assert!(result.is_err(), "the poisoning thread must have panicked");
        assert!(q.state.lock().is_err(), "mutex really is poisoned");

        // Every operation still works on the recovered state.
        assert_eq!(q.len(), 1);
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        q.close();
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.pop(), None);
    }
}
