//! Ordered streaming results.
//!
//! [`OrderedResults`] is the consumer half of
//! [`crate::WorkerPool::map_streamed`]: tasks finish in whatever order
//! the pool schedules them, but the stream re-sequences arrivals and
//! yields strictly in submission order. A sweep driver can therefore
//! emit cell 0's verdict the moment it is ready — while cell 40 is
//! still running — and the concatenated output is byte-identical to a
//! sequential run.

use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use crate::pool::Shared;

/// How long a consumer blocks on the channel before looking for pool
/// tasks to help with again.
const HELP_POLL: Duration = Duration::from_millis(2);

/// A stream of task results delivered **in submission order**.
///
/// Obtained from [`crate::WorkerPool::map_streamed`]. Iterating blocks
/// until the next in-order result is ready; while blocked, the consumer
/// helps the pool by executing pending tasks inline, so a stream
/// consumed from inside another pool task cannot deadlock the pool.
///
/// If the task at the head of the sequence panicked, the panic is
/// re-raised here, on the consumer — the same contract as
/// [`crate::WorkerPool::map`].
pub struct OrderedResults<T> {
    rx: Receiver<(usize, std::thread::Result<T>)>,
    /// Out-of-order arrivals parked until their turn.
    pending: BTreeMap<usize, std::thread::Result<T>>,
    next: usize,
    total: usize,
    /// The pool to help while blocked.
    shared: Arc<Shared>,
}

impl<T> OrderedResults<T> {
    pub(crate) fn new(
        rx: Receiver<(usize, std::thread::Result<T>)>,
        total: usize,
        shared: Arc<Shared>,
    ) -> Self {
        OrderedResults {
            rx,
            pending: BTreeMap::new(),
            next: 0,
            total,
            shared,
        }
    }

    /// Total number of tasks in the batch.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the batch was empty to begin with.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Index of the next result the stream will yield (also the number
    /// of results yielded so far).
    pub fn yielded(&self) -> usize {
        self.next
    }

    /// Block until the next in-submission-order result is available and
    /// return it; `None` once the whole batch has been yielded. If the
    /// task at the head of the sequence panicked, the payload is
    /// re-raised here — use [`OrderedResults::next_outcome`] to receive
    /// it as a value instead.
    pub fn next_result(&mut self) -> Option<T> {
        self.next_outcome()
            .map(|r| r.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
    }

    /// Like [`OrderedResults::next_result`], but a panicked task yields
    /// `Err(payload)` in its slot instead of re-raising on the consumer.
    ///
    /// This is the failure model a long-lived driver (the `tp-serve`
    /// daemon) needs: one poisoned cell becomes one error record while
    /// every other slot still delivers, and the consumer thread — which
    /// owns the connection, the job bookkeeping, the cache — never
    /// unwinds. [`panic_message`] extracts a printable message from the
    /// payload.
    pub fn next_outcome(&mut self) -> Option<std::thread::Result<T>> {
        if self.next >= self.total {
            return None;
        }
        loop {
            if let Some(r) = self.pending.remove(&self.next) {
                self.next += 1;
                return Some(r);
            }
            match self.rx.recv_timeout(HELP_POLL) {
                Ok((i, r)) => {
                    self.pending.insert(i, r);
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Nothing arrived: put this thread to work on a
                    // pending pool task (ours or anyone's) instead of
                    // parking. Keeps nested consumption deadlock-free.
                    // Contained like a worker would run it: a stolen
                    // fire-and-forget task's panic must not unwind into
                    // this unrelated consumer (map tasks re-route their
                    // panics through the result channel regardless).
                    if let Some(task) = self.shared.try_pop_any(None) {
                        tp_telemetry::count(tp_telemetry::Counter::PoolHelpingWaits);
                        crate::pool::run_task(task);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // Every sender hung up without delivering `next`:
                    // only possible if the pool dropped queued tasks
                    // during shutdown. Surfacing a panic beats hanging.
                    panic!(
                        "result stream severed at {}/{} (pool shut down with tasks queued?)",
                        self.next, self.total
                    );
                }
            }
        }
    }
}

/// A printable rendering of a panic payload: the `&str` or `String`
/// message virtually every panic carries, or a fixed fallback for
/// exotic `panic_any` payloads. This is what turns a contained task
/// panic into a loggable per-task error record.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

impl<T> Iterator for OrderedResults<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.next_result()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.total - self.next;
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use crate::WorkerPool;

    #[test]
    fn stream_yields_in_submission_order_despite_scrambled_completion() {
        let pool = WorkerPool::new(4);
        // Early items are the slowest, so completion order is roughly
        // reversed; the stream must still yield 0, 1, 2, ...
        let mut stream = pool.map_streamed((0..40u64).collect(), |_, x| {
            std::thread::sleep(std::time::Duration::from_micros((40 - x) * 50));
            x
        });
        assert_eq!(stream.len(), 40);
        let mut seen = Vec::new();
        while let Some(x) = stream.next_result() {
            seen.push(x);
        }
        assert_eq!(seen, (0..40).collect::<Vec<u64>>());
        assert_eq!(stream.yielded(), 40);
        assert_eq!(stream.next_result(), None, "stream is exhausted");
    }

    #[test]
    fn stream_can_be_consumed_while_tail_is_still_running() {
        let pool = WorkerPool::new(2);
        let mut stream = pool.map_streamed((0..20u64).collect(), |_, x| {
            if x >= 10 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            x
        });
        // The first result must be obtainable without waiting for the
        // slow tail: total stream time well under 10 × 3 ms would do,
        // but the functional check is simply that early yields happen.
        assert_eq!(stream.next_result(), Some(0));
        assert!(stream.yielded() == 1);
        assert_eq!(stream.by_ref().count(), 19);
    }

    /// A fire-and-forget task's panic must stay contained even when a
    /// *helping consumer* — not a worker — is the thread that runs it.
    #[test]
    fn background_submit_panic_does_not_unwind_into_a_stream_consumer() {
        let pool = WorkerPool::new(1);
        // Occupy the lone worker so the consumer's help path has to
        // pick up the queued panicking tasks itself.
        pool.submit(|| std::thread::sleep(std::time::Duration::from_millis(40)));
        for _ in 0..4 {
            pool.submit(|| panic!("fire-and-forget failure"));
        }
        let out: Vec<u32> = pool
            .map_streamed((0..6u32).collect(), |_, x| x * 2)
            .collect();
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10]);
    }

    #[test]
    fn empty_stream_is_immediately_exhausted() {
        let pool = WorkerPool::new(2);
        let mut stream = pool.map_streamed(Vec::<u8>::new(), |_, x| x);
        assert!(stream.is_empty());
        assert_eq!(stream.next_result(), None);
    }

    /// A task panic re-raises on the consumer exactly at its slot:
    /// every earlier result is still yielded first, even when the
    /// panicking task finishes before them.
    #[test]
    fn stream_reraises_a_task_panic_at_its_slot() {
        let pool = WorkerPool::new(2);
        let mut stream = pool.map_streamed(vec![0u64, 1, 2], |_, x| {
            if x == 1 {
                panic!("boom");
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
            x * 7
        });
        assert_eq!(stream.next_result(), Some(0));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| stream.next_result()));
        assert!(r.is_err(), "task panic must re-raise on the consumer");
        assert_eq!(stream.next_result(), Some(14));
    }
}
