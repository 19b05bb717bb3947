//! A small work-stealing executor with deterministic result ordering.
//!
//! Workers pull task indices from a shared atomic counter — the
//! degenerate (and contention-free) form of work stealing where every
//! thread steals from one global queue — so a slow shard never idles
//! the other threads. Results stream back over a channel and are
//! re-sequenced into task order before they reach the caller, which is
//! what makes campaign output *byte-identical regardless of thread
//! count*: the consumer observes results in task order whether one
//! thread or sixteen produced them.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};

/// Fixed-size pool of worker threads pulling from a shared task queue.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    threads: usize,
    window: usize,
}

impl Executor {
    /// An executor with `threads` workers; `0` means one per available
    /// hardware thread. The streaming window starts unbounded — see
    /// [`Executor::stream_window`].
    pub fn new(threads: usize) -> Executor {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
        } else {
            threads
        };
        Executor { threads, window: 0 }
    }

    /// Bounds how far ahead of the consumed prefix workers may run
    /// (`0` = unbounded): a worker does not *start* item `i` until
    /// fewer than `window` items past the consumed watermark are in
    /// flight or buffered. This is the backpressure knob for streaming
    /// consumers: without it, one slow early shard lets every later
    /// shard's full result (records plus `--trace`/`--sample` payloads)
    /// pile up in the re-sequencing buffer, so peak memory is O(items);
    /// with it, at most `window` results are ever held. Output bytes
    /// are unchanged — only the schedule is throttled. `meek-serve`
    /// applies the same bound to its per-job streaming path.
    #[must_use]
    pub fn stream_window(mut self, window: usize) -> Executor {
        self.window = window;
        self
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `work` over every item on the pool and hands each result to
    /// `consume` **in item order**, streaming: result `i` is consumed as
    /// soon as results `0..=i` all exist, while later items are still
    /// running. With a non-zero [`Executor::stream_window`], at most
    /// `window` results ever sit completed-but-unconsumed. A panicking
    /// task propagates to the caller.
    pub fn map_ordered<I, T, F, C>(&self, items: &[I], work: F, mut consume: C)
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
        C: FnMut(usize, T),
    {
        if items.is_empty() {
            return;
        }
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        let workers = self.threads.min(items.len());
        let gate = Gate::new();
        let window = self.window;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let tx = tx.clone();
                    let next = &next;
                    let work = &work;
                    let gate = &gate;
                    s.spawn(move || {
                        // If this worker panics inside `work`, wake any
                        // siblings parked on the gate so they can exit
                        // (dropping their senders) instead of waiting
                        // for a watermark that will never advance.
                        let _poison = PoisonOnPanic(gate);
                        loop {
                            let idx = next.fetch_add(1, Ordering::Relaxed);
                            if idx >= items.len() {
                                break;
                            }
                            if window > 0 && !gate.wait_until_open(idx, window) {
                                break; // a sibling panicked while we waited
                            }
                            let out = work(idx, &items[idx]);
                            if tx.send((idx, out)).is_err() {
                                break; // receiver gone: a sibling panicked
                            }
                        }
                    })
                })
                .collect();
            drop(tx);
            // Re-sequence: emit the contiguous prefix as it completes.
            let mut pending = BTreeMap::new();
            let mut emitted = 0usize;
            for (idx, out) in rx {
                pending.insert(idx, out);
                while let Some(out) = pending.remove(&emitted) {
                    consume(emitted, out);
                    emitted += 1;
                }
                if window > 0 {
                    gate.advance(emitted);
                }
            }
            // Join explicitly so a worker's panic payload (not the
            // scope's generic message) reaches the caller.
            for h in handles {
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
    }

    /// Generalises [`Executor::map_ordered`] from a fixed grid to
    /// feedback-driven work: `next_round` produces each round's items
    /// *after* seeing every previous round's consumed results, so later
    /// work can depend on earlier outcomes (the coverage-guided fuzzer's
    /// mutate → evaluate → corpus-update loop). Within a round, items
    /// run work-stealing in parallel and are consumed in item order;
    /// rounds are strictly sequential. An empty round ends the loop.
    ///
    /// Because round boundaries and consumption order are independent
    /// of the thread count, any state threaded through `next_round` /
    /// `consume` evolves identically at `--threads 1` and `--threads
    /// 16` — the same determinism contract as the grid API, extended to
    /// dynamically generated work.
    pub fn map_rounds<I, T, F, G, C>(&self, mut next_round: G, work: F, mut consume: C)
    where
        I: Sync,
        T: Send,
        G: FnMut(usize) -> Vec<I>,
        F: Fn(usize, &I) -> T + Sync,
        C: FnMut(usize, &I, T),
    {
        let mut round = 0usize;
        let mut base = 0usize; // global index of this round's first item
        loop {
            let items = next_round(round);
            if items.is_empty() {
                return;
            }
            self.map_ordered(
                &items,
                |i, item| work(base + i, item),
                |i, out| consume(base + i, &items[i], out),
            );
            base += items.len();
            round += 1;
        }
    }

    /// Runs `work` over every item and returns the results in item
    /// order. A panicking task propagates to the caller.
    pub fn map<I, T, F>(&self, items: &[I], work: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        let mut out = Vec::with_capacity(items.len());
        self.map_ordered(items, work, |_idx, v| out.push(v));
        out
    }
}

/// The streaming-window gate: workers park here until their claimed
/// index falls inside `consumed watermark + window`. Deadlock-free
/// because index claims are dense and the watermark is contiguous:
/// whichever worker holds the lowest unfinished index always satisfies
/// `idx < emitted + window` (window ≥ 1), so some thread can make
/// progress until everything is consumed.
struct Gate {
    emitted: Mutex<usize>,
    advanced: Condvar,
    poisoned: AtomicBool,
}

impl Gate {
    fn new() -> Gate {
        Gate { emitted: Mutex::new(0), advanced: Condvar::new(), poisoned: AtomicBool::new(false) }
    }

    /// Blocks until `idx` is within `window` of the consumed watermark.
    /// Returns `false` if a sibling panicked while we waited.
    fn wait_until_open(&self, idx: usize, window: usize) -> bool {
        let mut emitted = self.emitted.lock().expect("gate lock");
        while idx >= *emitted + window {
            if self.poisoned.load(Ordering::Acquire) {
                return false;
            }
            emitted = self.advanced.wait(emitted).expect("gate lock");
        }
        true
    }

    fn advance(&self, emitted: usize) {
        *self.emitted.lock().expect("gate lock") = emitted;
        self.advanced.notify_all();
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        drop(self.emitted.lock().expect("gate lock"));
        self.advanced.notify_all();
    }
}

/// Poisons the gate when dropped during a panic unwind.
struct PoisonOnPanic<'a>(&'a Gate);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn results_arrive_in_item_order() {
        let items: Vec<u64> = (0..50).collect();
        for threads in [1, 2, 8] {
            let ex = Executor::new(threads);
            let out = ex.map(&items, |i, &x| {
                // Reverse the natural completion order.
                std::thread::sleep(Duration::from_micros(200 - 2 * i as u64));
                x * 10
            });
            assert_eq!(out, items.iter().map(|x| x * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn consume_sees_contiguous_prefix() {
        let items: Vec<usize> = (0..20).collect();
        let mut seen = Vec::new();
        Executor::new(4).map_ordered(
            &items,
            |_, &x| x,
            |idx, v| {
                assert_eq!(idx, v);
                seen.push(idx);
            },
        );
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let runs = AtomicUsize::new(0);
        let items = vec![(); 113];
        let out = Executor::new(7).map(&items, |i, _| {
            runs.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(runs.load(Ordering::Relaxed), 113);
        assert_eq!(out.len(), 113);
    }

    #[test]
    fn map_rounds_feeds_results_forward_deterministically() {
        // Each round's items derive from consumed results so far; the
        // evolution must not depend on the thread count.
        let run_with = |threads: usize| {
            let sum = std::cell::Cell::new(0u64);
            let mut trace: Vec<(usize, u64)> = Vec::new();
            Executor::new(threads).map_rounds(
                |round| {
                    if round == 4 {
                        return Vec::new();
                    }
                    // Round contents depend on everything consumed so far.
                    (0..3 + sum.get() % 5).map(|i| sum.get() + i).collect::<Vec<u64>>()
                },
                |_global, &x| x * 2 + 1,
                |global, &item, out| {
                    assert_eq!(out, item * 2 + 1);
                    sum.set(sum.get() + out);
                    trace.push((global, out));
                },
            );
            (sum.get(), trace)
        };
        let one = run_with(1);
        assert_eq!(one, run_with(4));
        assert_eq!(one, run_with(8));
        // Global indices are dense across rounds.
        assert!(one.1.iter().enumerate().all(|(i, &(g, _))| g == i));
    }

    #[test]
    fn zero_threads_means_hardware_parallelism() {
        assert!(Executor::new(0).threads() >= 1);
        assert_eq!(Executor::new(3).threads(), 3);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u8> = Executor::new(4).map(&[] as &[u8], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "task 3 exploded")]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..8).collect();
        Executor::new(2).map(&items, |i, _| {
            if i == 3 {
                panic!("task 3 exploded");
            }
            i
        });
    }

    #[test]
    fn stream_window_bounds_run_ahead_without_changing_output() {
        let items: Vec<u64> = (0..60).collect();
        for (threads, window) in [(4, 1), (4, 3), (8, 2), (2, 5)] {
            let consumed = AtomicUsize::new(0);
            let mut out = Vec::new();
            Executor::new(threads).stream_window(window).map_ordered(
                &items,
                |i, &x| {
                    // The gate admitted `i`, so the consumed watermark
                    // had already reached past `i - window` — and the
                    // snapshot read here can only be newer (larger).
                    let watermark = consumed.load(Ordering::SeqCst);
                    assert!(
                        i < watermark + window,
                        "item {i} started with watermark {watermark}, window {window}"
                    );
                    if i == 0 {
                        // Stall the prefix so later items would race far
                        // ahead if the window were not enforced.
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    x * 7
                },
                |_idx, v| {
                    out.push(v);
                    consumed.fetch_add(1, Ordering::SeqCst);
                },
            );
            assert_eq!(out, items.iter().map(|x| x * 7).collect::<Vec<_>>());
        }
    }

    #[test]
    fn stream_window_output_matches_unbounded() {
        let items: Vec<u64> = (0..40).collect();
        let unbounded = Executor::new(8).map(&items, |i, &x| x.wrapping_mul(i as u64 + 3));
        for window in [1, 2, 7] {
            let bounded = Executor::new(8)
                .stream_window(window)
                .map(&items, |i, &x| x.wrapping_mul(i as u64 + 3));
            assert_eq!(bounded, unbounded);
        }
    }

    #[test]
    #[should_panic(expected = "task 1 exploded")]
    fn worker_panic_does_not_deadlock_windowed_siblings() {
        // Task 1 panics while siblings may be parked on the gate; the
        // poison path must wake them so the panic still propagates.
        let items: Vec<usize> = (0..32).collect();
        Executor::new(4).stream_window(2).map(&items, |i, _| {
            if i == 1 {
                std::thread::sleep(Duration::from_millis(5));
                panic!("task 1 exploded");
            }
            i
        });
    }
}
