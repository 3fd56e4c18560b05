//! The workspace's one parallel executor: independent items fanned out
//! over every core on [`std::thread::scope`].
//!
//! * **Workers.** [`workers`] threads (`available_parallelism()`),
//!   capped at the item count. The calling thread is one of them, so
//!   zero or one item spawns no thread. There is no configuration knob.
//! * **Dynamic claiming.** Workers claim the next unclaimed item from a
//!   shared queue, so a slow item (per-state simulation cost varies by
//!   ~30% at depth 5) holds back only the worker that drew it.
//! * **Input order.** Every result is delivered with its input index and
//!   [`map`] returns them in input order, so which worker ran an item,
//!   and when, never reaches the output: each caller is bitwise
//!   identical to a serial loop over the same items.
//! * **No nesting.** A call made from inside a worker runs inline on
//!   that worker; fanning out again would only oversubscribe the cores.
//! * **Panics.** A panic in a helper reaches the caller with its
//!   original payload once the remaining items have run.

use std::cell::Cell;
use std::panic;
use std::sync::{mpsc, Mutex, PoisonError};
use std::thread;

thread_local! {
    /// Set while this thread runs executor items.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a worker until dropped (also on unwind).
struct WorkerMark(bool);

impl WorkerMark {
    fn set() -> Self {
        WorkerMark(IN_WORKER.replace(true))
    }
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        IN_WORKER.set(self.0);
    }
}

/// Number of threads a top-level call fans out to on this machine.
pub fn workers() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `work` on every item across the machine's cores and hands each
/// result to `take` on the calling thread as soon as it is done, with
/// the item's input index. `take` sees results in completion order; a
/// caller that places them by index gets an order-independent output.
///
/// Helpers never hold a finished result: each one is sent to the
/// calling thread straight away, and the caller drains them between its
/// own items.
pub fn stream<I, R, W, T>(items: I, work: W, mut take: T)
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    R: Send,
    W: Fn(I::Item) -> R + Sync,
    T: FnMut(usize, R),
{
    let items = items.into_iter();
    let threads = if IN_WORKER.get() {
        1
    } else {
        workers().min(items.len())
    };
    let _mark = WorkerMark::set();
    if threads <= 1 {
        for (i, item) in items.enumerate() {
            take(i, work(item));
        }
        return;
    }
    let queue = Mutex::new(items.enumerate());
    // The queue is only locked around `next()`, which cannot panic, so a
    // poisoned lock still holds a consistent iterator.
    let claim = || queue.lock().unwrap_or_else(PoisonError::into_inner).next();
    let (claim, work) = (&claim, &work);
    thread::scope(|s| {
        let (tx, rx) = mpsc::channel();
        let helpers: Vec<_> = (1..threads)
            .map(|_| {
                let tx = tx.clone();
                s.spawn(move || {
                    let _mark = WorkerMark::set();
                    while let Some((i, item)) = claim() {
                        if tx.send((i, work(item))).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();
        drop(tx);
        while let Some((i, item)) = claim() {
            take(i, work(item));
            for (i, r) in rx.try_iter() {
                take(i, r);
            }
        }
        // Ends once every helper has dropped its sender: finished or
        // unwound.
        for (i, r) in rx {
            take(i, r);
        }
        for h in helpers {
            if let Err(payload) = h.join() {
                panic::resume_unwind(payload);
            }
        }
    });
}

/// `items.map(f).collect()`, run across the machine's cores. The result
/// is in input order.
pub fn map<I, R, F>(items: I, f: F) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    let items = items.into_iter();
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    stream(items, f, |i, r| out[i] = Some(r));
    out.into_iter()
        .map(|r| r.expect("the executor yields one result per item"))
        .collect()
}

/// Runs `f` on every item across the machine's cores; typically the
/// items are disjoint `&mut` chunks of one output buffer.
pub fn for_each<I, F>(items: I, f: F)
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    F: Fn(I::Item) + Sync,
{
    stream(items, f, |_, ()| ());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;

    /// Uneven per-item cost, so completion order differs from input order.
    fn spin(i: usize) -> u64 {
        let rounds = if i.is_multiple_of(3) { 20_000 } else { 200 };
        (0..rounds as u64).fold(i as u64, |a, x| a.wrapping_mul(31).wrapping_add(x))
    }

    #[test]
    fn map_keeps_input_order() {
        for n in [0usize, 1, 2, 3, 4 * workers() + 5] {
            let items: Vec<usize> = (0..n).collect();
            let par = map(&items, |&i| (i, spin(i)));
            let ser: Vec<_> = items.iter().map(|&i| (i, spin(i))).collect();
            assert_eq!(par, ser, "n = {n}");
        }
    }

    #[test]
    fn stream_delivers_every_index_once() {
        let n = 3 * workers() + 2;
        let mut seen = vec![0usize; n];
        stream(0..n, spin, |i, r| {
            assert_eq!(r, spin(i));
            seen[i] += 1;
        });
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }

    #[test]
    fn for_each_fills_disjoint_chunks() {
        let mut out = vec![0usize; 37];
        for_each(out.chunks_mut(5).enumerate(), |(c, chunk)| {
            for (k, slot) in chunk.iter_mut().enumerate() {
                *slot = c * 5 + k;
            }
        });
        assert_eq!(out, (0..37).collect::<Vec<_>>());
    }

    fn threads_used(n: usize) -> Vec<ThreadId> {
        let ids = Mutex::new(Vec::new());
        for_each(0..n, |_| {
            let id = thread::current().id();
            let mut ids = ids.lock().unwrap();
            if !ids.contains(&id) {
                ids.push(id);
            }
        });
        ids.into_inner().unwrap()
    }

    #[test]
    fn zero_or_one_item_runs_on_the_caller() {
        assert!(threads_used(0).is_empty());
        assert_eq!(threads_used(1), vec![thread::current().id()]);
    }

    #[test]
    fn nested_calls_run_inline() {
        for_each(0..2 * workers(), |_| {
            assert_eq!(threads_used(4 * workers()), vec![thread::current().id()]);
        });
    }

    #[test]
    fn helper_panic_reaches_the_caller() {
        // Only helpers panic. The caller's first item waits until a helper
        // has claimed an item, so a helper panic is certain on a
        // multi-core host.
        let caller = thread::current().id();
        let (signal, helper_ran) = mpsc::channel();
        let helper_ran = Mutex::new(helper_ran);
        let caller_waited = std::sync::atomic::AtomicBool::new(false);
        let caught = panic::catch_unwind(|| {
            for_each(0..4 * workers(), |i| {
                if thread::current().id() != caller {
                    signal.send(()).expect("the test holds the receiver");
                    panic!("helper item {i} failed");
                }
                if !caller_waited.swap(true, std::sync::atomic::Ordering::Relaxed) {
                    helper_ran.lock().unwrap().recv().unwrap();
                }
            })
        });
        if workers() == 1 {
            assert!(caught.is_ok(), "a single-core host has no helpers");
            return;
        }
        let payload = caught.expect_err("a panicking helper must fail the call");
        let msg = payload
            .downcast_ref::<String>()
            .expect("the helper's own panic payload");
        assert!(msg.starts_with("helper item "), "{msg}");
        // The caller is not left marked as a worker.
        assert!(!IN_WORKER.get());
    }
}
