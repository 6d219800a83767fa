//! A persistent worker pool with scoped execution of borrowed closures.
//!
//! The pool is the one place in the workspace's offline shims that uses
//! `unsafe`: scoped execution hands worker threads raw pointers to closures
//! living on the caller's stack, exactly like upstream `rayon` does. The
//! soundness argument is short and local:
//!
//! * [`ThreadPool::scope_execute_batch`] **never returns before every task
//!   of its batch has completed** — including when a task (or the inline task)
//!   panics — so the erased `&mut` borrows cannot outlive the frame that
//!   owns them.
//! * Each task pointer is derived from a distinct `&mut` in the caller's
//!   slice, so no two threads ever alias the same closure.
//! * Workers touch a batch's `Latch` only *before* releasing its mutex in
//!   `Latch::complete`; the caller cannot observe `remaining == 0` (and
//!   thus free the latch) until that mutex is released.
//!
//! Waiting callers *help*: while their batch is outstanding they pop and run
//! queued tasks instead of blocking, so nested scopes (a task that itself
//! calls [`ThreadPool::scope_execute_batch`]) cannot deadlock even when
//! every worker is busy — the 200 µs re-check below bounds the window in
//! which a queued task can sit unnoticed.
//!
//! Workers are spawned once, on first use, and live for the process
//! lifetime; per-batch dispatch is a queue push + condvar notify, so a
//! caller pays no thread-spawn cost per batch.

#![allow(unsafe_code)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// Completion latch for one `scope_execute_batch` batch. Lives on the
/// caller's stack; workers reach it through a raw pointer that stays valid
/// because the caller never returns before the count reaches zero.
struct Latch {
    state: Mutex<LatchState>,
    completed: Condvar,
}

struct LatchState {
    remaining: usize,
    panic: Option<PanicPayload>,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            state: Mutex::new(LatchState {
                remaining: count,
                panic: None,
            }),
            completed: Condvar::new(),
        }
    }

    /// Marks one task of the batch as finished (recording the first panic,
    /// if any). The condvar is notified while the lock is still held: the
    /// caller can only observe `remaining == 0` after this thread has
    /// released the mutex, at which point the latch is never touched again.
    fn complete(&self, panic: Option<PanicPayload>) {
        let mut state = self.state.lock().expect("latch poisoned");
        state.remaining -= 1;
        if state.panic.is_none() {
            state.panic = panic;
        }
        if state.remaining == 0 {
            self.completed.notify_all();
        }
    }
}

/// A lifetime-erased task: a pointer to a closure in some live
/// `scope_execute_batch` frame, plus the latch that frame is waiting on.
struct Task {
    func: *mut (dyn FnMut() + Send),
    latch: *const Latch,
}

// SAFETY: the pointee closure is `Send` (enforced by the public signatures),
// each pointer is consumed by exactly one thread, and `scope_execute_batch`
// keeps both pointees alive until the latch reports completion.
unsafe impl Send for Task {}

struct Shared {
    queue: Mutex<VecDeque<Task>>,
    available: Condvar,
}

/// Runs one task and reports its completion (and any panic) to its latch.
fn execute(task: Task) {
    // SAFETY: `func` points into a live `scope_execute_batch` frame (that
    // frame is blocked in `wait_helping` until we call `complete`), and this
    // thread is the only one holding this pointer.
    let func = unsafe { &mut *task.func };
    let result = catch_unwind(AssertUnwindSafe(func));
    // SAFETY: same frame-liveness argument as above.
    let latch = unsafe { &*task.latch };
    latch.complete(result.err());
}

fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(task) = queue.pop_front() {
                    break task;
                }
                queue = shared.available.wait(queue).expect("pool queue poisoned");
            }
        };
        execute(task);
    }
}

/// A persistent pool of worker threads executing scoped task batches.
pub struct ThreadPool {
    shared: Arc<Shared>,
    threads: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ThreadPool {
    fn new() -> Self {
        let threads = std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&t| t > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            });
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        });
        for i in 0..threads {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("rayon-shim-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("failed to spawn rayon shim worker");
        }
        ThreadPool { shared, threads }
    }

    /// Number of worker threads in this pool.
    #[must_use]
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// Runs every closure in `tasks` to completion, distributing them over
    /// the pool's workers, and returns only once all of them have finished.
    /// The first closure runs inline on the calling thread (so a singleton
    /// batch costs nothing); the rest are queued for workers, and the caller
    /// helps drain the queue while it waits. Panics from any task are
    /// re-raised here after the whole batch has completed.
    ///
    /// Taking a slice of concrete closures (trait-object erasure happens
    /// internally) means callers dispatch a `Vec` of closures directly —
    /// no per-call `Vec<&mut dyn FnMut>` staging; a heterogeneous batch is
    /// a slice of boxed closures.
    pub fn scope_execute_batch<F: FnMut() + Send>(&self, tasks: &mut [F]) {
        let Some((first, rest)) = tasks.split_first_mut() else {
            return;
        };
        if rest.is_empty() {
            first();
            return;
        }
        let latch = Latch::new(rest.len());
        {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            for task in rest.iter_mut() {
                let task: &mut (dyn FnMut() + Send) = task;
                // SAFETY (lifetime erasure): the pointer is only dereferenced
                // by `execute`, and `wait_helping` below does not return until
                // every task of this batch has called `Latch::complete` — so
                // the borrow cannot outlive this frame even on panic.
                let func = unsafe {
                    std::mem::transmute::<
                        &mut (dyn FnMut() + Send),
                        &'static mut (dyn FnMut() + Send),
                    >(task)
                };
                queue.push_back(Task {
                    func,
                    latch: &latch,
                });
            }
        }
        self.shared.available.notify_all();
        let inline = catch_unwind(AssertUnwindSafe(first));
        self.wait_helping(&latch);
        let queued_panic = latch.state.lock().expect("latch poisoned").panic.take();
        if let Err(payload) = inline {
            resume_unwind(payload);
        }
        if let Some(payload) = queued_panic {
            resume_unwind(payload);
        }
    }

    /// Blocks until `latch` reports completion, executing queued tasks (of
    /// any batch) in the meantime so that nested scopes make progress even
    /// with every worker occupied.
    fn wait_helping(&self, latch: &Latch) {
        loop {
            if latch.state.lock().expect("latch poisoned").remaining == 0 {
                return;
            }
            let stolen = self
                .shared
                .queue
                .lock()
                .expect("pool queue poisoned")
                .pop_front();
            if let Some(task) = stolen {
                execute(task);
                continue;
            }
            let state = latch.state.lock().expect("latch poisoned");
            if state.remaining != 0 {
                // Re-check the queue periodically: a nested scope may have
                // enqueued work between our steal attempt and this wait.
                let _ = latch
                    .completed
                    .wait_timeout(state, Duration::from_micros(200));
            }
        }
    }
}

/// The process-wide pool, spawned lazily on first use. Thread count is
/// `RAYON_NUM_THREADS` if set (matching upstream rayon), otherwise the
/// available parallelism.
pub fn global() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(ThreadPool::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_execute_batch_runs_every_task_with_borrows() {
        let mut slots = vec![0u64; 16];
        {
            let mut tasks: Vec<_> = slots
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| move || *slot = i as u64 + 1)
                .collect();
            global().scope_execute_batch(&mut tasks);
        }
        assert_eq!(slots, (1..=16).collect::<Vec<u64>>());
    }

    #[test]
    fn nested_scopes_complete() {
        let counter = AtomicUsize::new(0);
        let counter_ref = &counter;
        let mut outer: Vec<_> = (0..4)
            .map(|_| {
                move || {
                    let mut inner: Vec<_> = (0..2)
                        .map(|_| {
                            || {
                                counter_ref.fetch_add(1, Ordering::Relaxed);
                            }
                        })
                        .collect();
                    global().scope_execute_batch(&mut inner);
                }
            })
            .collect();
        global().scope_execute_batch(&mut outer);
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn panics_propagate_after_batch_completes() {
        let finished = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let ok = || {
                finished.fetch_add(1, Ordering::Relaxed);
            };
            let mut batch: [Box<dyn FnMut() + Send>; 3] = [
                Box::new(ok),
                Box::new(|| panic!("task panic")),
                Box::new(ok),
            ];
            global().scope_execute_batch(&mut batch);
        }));
        assert!(result.is_err());
        assert_eq!(finished.load(Ordering::Relaxed), 2);
    }
}
