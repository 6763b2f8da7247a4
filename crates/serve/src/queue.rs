//! Bounded, priority-laned, closable MPMC queue built on `Mutex`/`Condvar`.
//!
//! The admission queue is the service's backpressure mechanism: capacity is
//! shared across the three [`Priority`](crate::Priority) lanes, `try_push`
//! fails fast when full (open-loop producers observe rejections), `push`
//! blocks (closed-loop producers observe latency). Consumers always drain
//! the highest-priority non-empty lane; within a lane order is FIFO.
//! Closing the queue rejects further pushes while letting consumers drain
//! what was already admitted — the graceful-shutdown half of the service.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Number of priority lanes ([`Priority`](crate::Priority) variants).
pub const LANES: usize = 3;

/// Why a push was refused. The rejected item is handed back so callers can
/// roll back admission state without cloning.
pub enum PushError<T> {
    /// The queue was at capacity (only from [`BoundedQueue::try_push`]).
    Full(T),
    /// The queue was closed.
    Closed(T),
}

struct State<T> {
    lanes: [VecDeque<T>; LANES],
    len: usize,
    closed: bool,
}

/// A bounded multi-producer/multi-consumer queue with priority lanes.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` items across all lanes.
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        assert!(capacity >= 1, "queue capacity must be >= 1");
        BoundedQueue {
            state: Mutex::new(State {
                lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                len: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Total capacity across lanes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued (all lanes).
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking push into `lane`: fails fast with [`PushError::Full`]
    /// under backpressure instead of waiting.
    pub fn try_push(&self, item: T, lane: usize) -> Result<(), PushError<T>> {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return Err(PushError::Closed(item));
        }
        if st.len >= self.capacity {
            return Err(PushError::Full(item));
        }
        st.lanes[lane].push_back(item);
        st.len += 1;
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking push into `lane`: waits for capacity (backpressure) and only
    /// fails if the queue closes while waiting.
    pub fn push(&self, item: T, lane: usize) -> Result<(), PushError<T>> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.closed {
                return Err(PushError::Closed(item));
            }
            if st.len < self.capacity {
                st.lanes[lane].push_back(item);
                st.len += 1;
                drop(st);
                self.not_empty.notify_one();
                return Ok(());
            }
            st = self.not_full.wait(st).unwrap();
        }
    }

    /// Blocking pop: the front of the highest-priority non-empty lane.
    /// Returns `None` only once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.len > 0 {
                let item = st
                    .lanes
                    .iter_mut()
                    .find_map(VecDeque::pop_front)
                    .expect("len > 0 implies a non-empty lane");
                st.len -= 1;
                drop(st);
                self.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).unwrap();
        }
    }

    /// Close the queue: further pushes fail, blocked pushers wake with
    /// [`PushError::Closed`], and consumers drain the remaining items before
    /// seeing `None`.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn pops_highest_priority_lane_first_fifo_within_lane() {
        let q = BoundedQueue::new(8);
        q.try_push("low-1", 2).ok().unwrap();
        q.try_push("norm-1", 1).ok().unwrap();
        q.try_push("high-1", 0).ok().unwrap();
        q.try_push("high-2", 0).ok().unwrap();
        q.try_push("norm-2", 1).ok().unwrap();
        let order: Vec<_> = (0..5).map(|_| q.pop().unwrap()).collect();
        assert_eq!(order, ["high-1", "high-2", "norm-1", "norm-2", "low-1"]);
    }

    #[test]
    fn try_push_fails_fast_at_capacity() {
        let q = BoundedQueue::new(2);
        q.try_push(1, 1).ok().unwrap();
        q.try_push(2, 1).ok().unwrap();
        match q.try_push(3, 1) {
            Err(PushError::Full(item)) => assert_eq!(item, 3),
            _ => panic!("push beyond capacity must report Full"),
        }
        q.pop().unwrap();
        q.try_push(3, 1).ok().unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_rejects_pushes_but_drains_consumers() {
        let q = BoundedQueue::new(4);
        q.try_push(1, 1).ok().unwrap();
        q.try_push(2, 0).ok().unwrap();
        q.close();
        assert!(matches!(q.try_push(3, 1), Err(PushError::Closed(3))));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocking_push_waits_for_capacity() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(1u32, 1).ok().unwrap();
        let producer = {
            let q = q.clone();
            std::thread::spawn(move || q.push(2, 1).is_ok())
        };
        // the producer is blocked on a full queue; popping frees a slot
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.pop(), Some(1));
        assert!(producer.join().unwrap(), "blocked push must complete after a pop");
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn blocked_push_wakes_on_close() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(1u32, 1).ok().unwrap();
        let producer = {
            let q = q.clone();
            std::thread::spawn(move || matches!(q.push(2, 1), Err(PushError::Closed(2))))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(producer.join().unwrap(), "blocked push must fail Closed after close()");
    }
}
