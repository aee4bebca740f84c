//! The one process-wide executor every fan-out in the workspace shares.
//!
//! Before this module existed, every Monte-Carlo trial wave, splitting
//! stage, and experiment cell spun up its own `std::thread::scope`: a
//! 100-cell sweep paid 100 rounds of thread churn and got zero
//! cell-level parallelism. The executor replaces all of those scopes
//! with **one** long-lived pool of workers (plain `std` only) that
//! outlives any individual job. Trial waves, splitting stages and
//! whole experiment cells are all submitted as jobs to the same pool,
//! so independent sweep cells pipeline across the same workers and
//! grid wall-clock approaches `max(cell)` instead of `sum(cell)` on a
//! multi-core host.
//!
//! # Scheduling
//!
//! A job of `total` units occupies at most `width` slots: it queues
//! one task per slot, and each task pulls unit indices from the job's
//! atomic counter until the job is exhausted. Every task goes to **one
//! FIFO queue**. Workers take the oldest queued task and sleep on the
//! queue's condvar when it is empty. Because a job queues at most one
//! task per slot, not one per unit, the queue stays short (a few
//! hundred tasks over a whole sweep grid) and one lock serves it.
//!
//! A pool of width `N` is `N` threads **counting the caller**: it
//! spawns `N − 1` workers, and the thread that joins a job runs that
//! job's tasks as the `N`-th (see below). So `--jobs N` lets at most
//! `N` threads compute and allocate at once.
//!
//! # Determinism contract
//!
//! The executor never touches a random stream and never influences
//! *what* a unit of work computes — only *where* it runs. A job is a
//! contiguous range of unit indices `0..total`; each unit's inputs
//! (its jump-seeded RNG stream, its config) are derived from the unit
//! index alone by the caller, or handed to unit `i` by value as the
//! caller's `i`-th input ([`run_owned_with`]), and results are reduced
//! **in unit-index order** at the join. Scheduling therefore cannot
//! perturb any aggregate: outputs are bit-identical for every pool
//! width, job width, and task interleaving, which is exactly the
//! contract the old scoped fan-outs had (see METHODOLOGY.md, "Executor
//! determinism").
//!
//! # Task kinds and deadlock freedom
//!
//! Tasks come in two kinds. [`TaskKind::Leaf`] tasks (trial-wave
//! slots, splitting-stage slots) never join anything. A
//! [`TaskKind::Composite`] task (an experiment cell) may itself submit
//! leaf jobs and join them. A join never blocks idly while work is
//! queued: it *helps*, taking the oldest queued task it may run — leaf
//! tasks always, and composite tasks only when the job being joined is
//! itself composite (i.e. the joiner sits at the top of the
//! hierarchy). This bounds the execution stack to
//! `grid join → cell → wave join → wave slot` and lets every job
//! complete even when every pool thread is inside a composite task,
//! because each joiner can run its own outstanding slots inline.
//!
//! # One pool per process
//!
//! The pool is created on the first job that needs more than one slot.
//! Its width defaults to [`std::thread::available_parallelism`] and
//! can be fixed *before first use* with [`configure_global_width`]
//! (the `--jobs` CLI flag), the one parallelism knob in the workspace.
//! The width counts the joining caller, so the pool spawns one worker
//! fewer than its width.
//! Every trial and splitting-stage fan-out asks for [`global_width`]
//! slots, so concurrent [`crate::spec::ExperimentPlan`]s cannot
//! oversubscribe the host: the pool owns every worker thread in the
//! process.
//!
//! Jobs with one slot (width 1, or a single unit) run inline on the
//! caller thread without touching — or even creating — the pool, so
//! single-threaded runs keep their exact pre-executor performance
//! profile.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, ThreadId};
use std::time::Duration;

/// Which scheduling class a job's tasks belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Never joins another job; safe for anyone to help-execute.
    Leaf,
    /// May submit and join leaf jobs (an experiment cell). Only joiners
    /// of composite jobs help-execute these.
    Composite,
}

struct Task {
    kind: TaskKind,
    /// The thread that queued the task: a task run by another thread
    /// counts as a steal.
    submitter: ThreadId,
    run: Box<dyn FnOnce() + Send>,
}

/// Monotonic process-wide counters describing pool activity, for
/// `--verbose` diagnostics and the one-pool-per-process regression
/// tests. None of these values ever feeds a simulation result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Worker threads the pool has spawned: its width minus one once it
    /// exists, because the joining caller is the width's last thread.
    /// It never grows per job.
    pub threads_spawned: u64,
    /// Jobs that went through the queue.
    pub jobs_submitted: u64,
    /// Jobs that ran entirely inline on the caller thread.
    pub jobs_inline: u64,
    /// Tasks executed by workers and helping joiners.
    pub tasks_executed: u64,
    /// Tasks run by a thread other than the one that queued them.
    pub steals: u64,
}

static THREADS_SPAWNED: AtomicU64 = AtomicU64::new(0);
static JOBS_SUBMITTED: AtomicU64 = AtomicU64::new(0);
static JOBS_INLINE: AtomicU64 = AtomicU64::new(0);
static TASKS_EXECUTED: AtomicU64 = AtomicU64::new(0);
static STEALS: AtomicU64 = AtomicU64::new(0);

/// The one task queue, oldest task first.
static QUEUE: Mutex<VecDeque<Task>> = Mutex::new(VecDeque::new());
/// Idle workers sleep here; every submit wakes them.
static QUEUED: Condvar = Condvar::new();
/// The pool's width, set once its workers are spawned.
static POOL_WIDTH: OnceLock<usize> = OnceLock::new();
static CONFIGURED_WIDTH: AtomicU64 = AtomicU64::new(0);
static POOLS_CREATED: AtomicU64 = AtomicU64::new(0);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Removes the oldest queued task a joiner of a `joining` job may run:
/// any task under a composite join, leaf tasks only under a leaf join.
/// Workers join nothing and take any task.
fn take(queue: &mut VecDeque<Task>, joining: TaskKind) -> Option<Task> {
    let i = queue
        .iter()
        .position(|t| joining == TaskKind::Composite || t.kind == TaskKind::Leaf)?;
    queue.remove(i)
}

fn run_task(task: Task) {
    TASKS_EXECUTED.fetch_add(1, Ordering::Relaxed);
    if task.submitter != thread::current().id() {
        STEALS.fetch_add(1, Ordering::Relaxed);
    }
    (task.run)();
}

fn worker_loop() {
    let mut queue = lock(&QUEUE);
    loop {
        match take(&mut queue, TaskKind::Composite) {
            Some(task) => {
                drop(queue);
                run_task(task);
                queue = lock(&QUEUE);
            }
            None => queue = QUEUED.wait(queue).unwrap_or_else(PoisonError::into_inner),
        }
    }
}

/// The width `configure_global_width` fixed, or the host's parallelism.
fn configured_width() -> usize {
    match usize::try_from(CONFIGURED_WIDTH.load(Ordering::SeqCst)).unwrap_or(0) {
        0 => thread::available_parallelism().map_or(1, usize::from),
        width => width,
    }
}

/// Spawns the pool's `width − 1` workers on first call; the joining
/// caller is the width's last thread. They are detached: they live for
/// the remainder of the process.
fn ensure_pool() {
    POOL_WIDTH.get_or_init(|| {
        POOLS_CREATED.fetch_add(1, Ordering::SeqCst);
        let width = configured_width();
        for me in 1..width {
            THREADS_SPAWNED.fetch_add(1, Ordering::Relaxed);
            thread::Builder::new()
                .name(format!("sim-exec-{me}"))
                .spawn(worker_loop)
                .expect("executor: spawning a worker thread failed"); // detlint: allow(panic-expect) -- OS thread exhaustion at pool creation is unrecoverable for the process
        }
        width
    });
}

/// Fix the global pool's width (0 = auto-detect) **before first use**.
/// Returns `false` if the pool already exists, in which case the call
/// had no effect. Wired to the bench CLI `--jobs` flag.
pub fn configure_global_width(width: usize) -> bool {
    CONFIGURED_WIDTH.store(width as u64, Ordering::SeqCst);
    POOL_WIDTH.get().is_none()
}

#[cfg(test)]
thread_local! {
    /// Unit-test stand-in for `--jobs`: while set, [`global_width`]
    /// reports this width on the current thread.
    static TEST_WIDTH: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Runs `f` with [`global_width`] reporting `width` on this thread, so
/// every fan-out `f` starts occupies up to `width` slots of the one
/// pool. Lets a unit test run a plan at several job widths inside one
/// process, where the pool's own width is fixed.
#[cfg(test)]
pub(crate) fn with_test_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
    let previous = TEST_WIDTH.replace(Some(width));
    let result = f();
    TEST_WIDTH.set(previous);
    result
}

/// The width the global pool has — or would have, if it has not been
/// created yet. Never creates the pool.
pub fn global_width() -> usize {
    #[cfg(test)]
    if let Some(width) = TEST_WIDTH.get() {
        return width;
    }
    POOL_WIDTH.get().copied().unwrap_or_else(configured_width)
}

/// A snapshot of the process-wide [`ExecutorStats`]. Inline jobs count
/// even before the pool exists.
pub fn global_stats() -> ExecutorStats {
    ExecutorStats {
        threads_spawned: THREADS_SPAWNED.load(Ordering::Relaxed),
        jobs_submitted: JOBS_SUBMITTED.load(Ordering::Relaxed),
        jobs_inline: JOBS_INLINE.load(Ordering::Relaxed),
        tasks_executed: TASKS_EXECUTED.load(Ordering::Relaxed),
        steals: STEALS.load(Ordering::Relaxed),
    }
}

/// How many times the global pool has been created. At most 1 per
/// process by construction; the one-pool regression tests assert it.
pub fn global_pools_created() -> u64 {
    POOLS_CREATED.load(Ordering::SeqCst)
}

/// [`run_ordered_with`] without a completion callback.
pub fn run_ordered<T, F>(total: u64, width: usize, kind: TaskKind, run_unit: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(u64) -> T + Send + Sync + 'static,
{
    run_ordered_with(total, width, kind, run_unit, |_, _| {})
}

/// [`run_ordered_with`] over owned inputs: unit `i` takes `inputs[i]`
/// by value, so a unit consumes its input, and frees what it does not
/// hand back, where it runs, instead of cloning it out of storage the
/// units share. Results come back in unit order, as there.
pub fn run_owned_with<I, T, F, C>(
    inputs: Vec<I>,
    width: usize,
    kind: TaskKind,
    run_unit: F,
    on_complete: C,
) -> Vec<T>
where
    I: Send + 'static,
    T: Send + 'static,
    F: Fn(I) -> T + Send + Sync + 'static,
    C: FnMut(u64, &T),
{
    let total = inputs.len() as u64;
    // `map(Some)` collects in place (an `Option` of a type with a niche,
    // such as one holding a `Vec`, is the same size), so the inputs are
    // not copied into a second buffer; the lock is held only to take one.
    let inputs = Mutex::new(inputs.into_iter().map(Some).collect::<Vec<_>>());
    run_ordered_with(
        total,
        width,
        kind,
        move |i| {
            let input = lock(&inputs)
                .get_mut(usize::try_from(i).unwrap_or(usize::MAX))
                .and_then(Option::take);
            match input {
                Some(input) => run_unit(input),
                None => panic!("executor: unit {i} ran twice"), // detlint: allow(panic-macro) -- the job's counter hands out each unit index exactly once
            }
        },
        on_complete,
    )
}

/// The state a job shares between its slot tasks and its joiner.
struct JobCore<T> {
    next: AtomicU64,
    total: u64,
    /// Units whose result is in `results` or already drained from it.
    finished: AtomicU64,
    results: Mutex<Vec<(u64, T)>>,
    /// Signalled once, by the slot that finishes the job's last unit.
    done: Condvar,
}

/// Run units `0..total` of a job on the global pool, occupying at most
/// `width` slots, and return the results **in unit-index order** —
/// bit-identical for every pool width and task interleaving.
///
/// `on_complete(i, &result)` fires on the calling thread once per
/// unit, in **completion order** (useful for streaming progress); the
/// returned `Vec` is always in unit order. Only the job's last unit
/// wakes a waiting caller, so earlier results reach `on_complete` on
/// the caller's next bounded (1 ms) wait. A job with one slot (width
/// 1, or a single unit) runs inline on the caller without creating the
/// pool; otherwise the caller helps run queued tasks until every unit
/// is done (see the module docs).
pub fn run_ordered_with<T, F, C>(
    total: u64,
    width: usize,
    kind: TaskKind,
    run_unit: F,
    mut on_complete: C,
) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(u64) -> T + Send + Sync + 'static,
    C: FnMut(u64, &T),
{
    if total == 0 {
        return Vec::new();
    }
    let slots = width.min(usize::try_from(total).unwrap_or(usize::MAX));
    if slots <= 1 {
        JOBS_INLINE.fetch_add(1, Ordering::Relaxed);
        return (0..total)
            .map(|i| {
                let result = run_unit(i);
                on_complete(i, &result);
                result
            })
            .collect();
    }
    ensure_pool();
    JOBS_SUBMITTED.fetch_add(1, Ordering::Relaxed);
    let core = Arc::new(JobCore {
        next: AtomicU64::new(0),
        total,
        finished: AtomicU64::new(0),
        results: Mutex::new(Vec::new()),
        done: Condvar::new(),
    });
    let run_unit = Arc::new(run_unit);
    let submitter = thread::current().id();
    lock(&QUEUE).extend((0..slots).map(|_| {
        let core = Arc::clone(&core);
        let run_unit = Arc::clone(&run_unit);
        Task {
            kind,
            submitter,
            // Each slot pulls unit indices until the job is exhausted.
            run: Box::new(move || loop {
                let i = core.next.fetch_add(1, Ordering::Relaxed);
                if i >= core.total {
                    break;
                }
                let result = run_unit(i);
                lock(&core.results).push((i, result));
                // Only the job's last unit wakes the joiner: each wake
                // is a system call, and the joiner's bounded wait below
                // already picks up earlier results. AcqRel: each slot's
                // push is released with its count, and the slot that
                // counts the last unit acquires every earlier push, so
                // the joiner it wakes finds every result.
                if core.finished.fetch_add(1, Ordering::AcqRel) + 1 == core.total {
                    core.done.notify_all();
                }
            }),
        }
    }));
    QUEUED.notify_all();

    // Join: drain finished units, help run queued tasks while any may
    // run here, and otherwise wait briefly for results. The wait is
    // bounded so the joiner rechecks the queue for tasks queued
    // meanwhile and drains the results of units before the last, which
    // do not wake it; every outstanding slot of this job is already
    // running elsewhere, so the job completes without it.
    let mut out: Vec<Option<T>> = (0..total).map(|_| None).collect();
    let mut collected: u64 = 0;
    while collected < total {
        let drained = std::mem::take(&mut *lock(&core.results));
        if !drained.is_empty() {
            for (i, result) in drained {
                on_complete(i, &result);
                out[usize::try_from(i).unwrap_or(usize::MAX)] = Some(result);
                collected += 1;
            }
            continue;
        }
        let task = take(&mut lock(&QUEUE), kind);
        if let Some(task) = task {
            run_task(task);
            continue;
        }
        let results = lock(&core.results);
        if results.is_empty() {
            let _ = core
                .done
                .wait_timeout(results, Duration::from_millis(1))
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
    // `map` (unlike `flatten`) collects in place, reusing the buffer.
    out.into_iter()
        .map(|slot| match slot {
            Some(result) => result,
            None => panic!("executor: a unit index produced no result"), // detlint: allow(panic-macro) -- the join loop counts exactly one deposited result per unit index before exiting
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_results_match_inline_for_every_width() {
        let expected: Vec<u64> = (0..97).map(|i| i * i + 1).collect();
        for width in [1, 2, 4, 8] {
            let got = run_ordered(97, width, TaskKind::Leaf, |i| i * i + 1);
            assert_eq!(got, expected, "width {width}");
        }
    }

    /// A one-slot job runs every unit on the caller's thread: width 1,
    /// and a one-unit job at width 8.
    #[test]
    fn single_width_jobs_run_inline_without_touching_workers() {
        let caller = thread::current().id();
        let got = run_ordered_with(
            50,
            1,
            TaskKind::Leaf,
            |i| (i + 7, thread::current().id()),
            |_, &(_, id)| assert_eq!(id, caller),
        );
        assert_eq!(
            got.iter().map(|&(v, _)| v).collect::<Vec<u64>>(),
            (7..57).collect::<Vec<u64>>()
        );
        assert!(got.iter().all(|&(_, id)| id == caller));
        let got = run_ordered(1, 8, TaskKind::Leaf, |i| (i, thread::current().id()));
        assert_eq!(got, vec![(0, caller)]);
    }

    #[test]
    fn streaming_callback_sees_every_unit_exactly_once() {
        let mut seen = vec![0u32; 40];
        let got = run_ordered_with(
            40,
            4,
            TaskKind::Leaf,
            |i| i * 3,
            |i, r| {
                assert_eq!(*r, i * 3);
                seen[usize::try_from(i).unwrap()] += 1;
            },
        );
        assert_eq!(got, (0..40).map(|i| i * 3).collect::<Vec<u64>>());
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }

    /// The deadlock regression the helping join exists for, as on a
    /// width-2 pool whose one worker runs a joining cell: a composite
    /// job with more slots than the pool has threads, whose every unit
    /// joins a nested leaf job, so every pool thread can be inside a
    /// composite at once. Hangs if helping breaks.
    #[test]
    fn nested_leaf_jobs_inside_composites_complete_on_a_width_1_pool() {
        let width = global_width() + 2;
        let cells = 2 * width as u64;
        let got = run_ordered(cells, width, TaskKind::Composite, move |cell| {
            run_ordered(8, width, TaskKind::Leaf, move |i| cell * 100 + i)
                .iter()
                .sum::<u64>()
        });
        let expected: Vec<u64> = (0..cells)
            .map(|cell| (0..8).map(|i| cell * 100 + i).sum())
            .collect();
        assert_eq!(got, expected);
    }

    /// Only the slot that finishes a job's last unit wakes its joiner;
    /// the joiner drains earlier results on its bounded wait. Many
    /// near-empty units at several widths, and a composite job whose
    /// every unit joins a leaf job, must still come back in unit order
    /// with exactly one `on_complete` per unit.
    #[test]
    fn every_unit_completes_once_when_only_the_last_wakes_the_joiner() {
        const UNITS: u64 = 10_000;
        for width in [2, 4, 8] {
            let mut seen = vec![0u32; UNITS as usize];
            let got = run_ordered_with(
                UNITS,
                width,
                TaskKind::Leaf,
                |i| i,
                |i, &r| {
                    assert_eq!(r, i);
                    seen[usize::try_from(i).unwrap()] += 1;
                },
            );
            assert_eq!(got, (0..UNITS).collect::<Vec<u64>>(), "width {width}");
            assert!(seen.iter().all(|&c| c == 1), "width {width}");
        }
        const CELLS: u64 = 32;
        let mut seen = vec![0u32; CELLS as usize];
        let got = run_ordered_with(
            CELLS,
            4,
            TaskKind::Composite,
            |cell| {
                run_ordered(64, 4, TaskKind::Leaf, move |i| cell * 64 + i)
                    .iter()
                    .sum::<u64>()
            },
            |cell, _| seen[usize::try_from(cell).unwrap()] += 1,
        );
        let expected: Vec<u64> = (0..CELLS)
            .map(|cell| (0..64).map(|i| cell * 64 + i).sum())
            .collect();
        assert_eq!(got, expected);
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }

    /// Each owned input reaches exactly its own unit, and the results
    /// come back in unit order at every width.
    #[test]
    fn owned_inputs_are_each_consumed_by_their_unit() {
        for width in [1, 2, 4, 8] {
            let inputs: Vec<String> = (0..57).map(|i| format!("cell {i}")).collect();
            let mut seen = 0;
            let got = run_owned_with(
                inputs,
                width,
                TaskKind::Leaf,
                |input| input + " ran",
                |_, _| seen += 1,
            );
            let expected: Vec<String> = (0..57).map(|i| format!("cell {i} ran")).collect();
            assert_eq!(got, expected, "width {width}");
            assert_eq!(seen, 57, "width {width}");
        }
    }

    #[test]
    fn empty_jobs_return_empty() {
        let got: Vec<u64> = run_ordered(0, 4, TaskKind::Leaf, |i| i);
        assert!(got.is_empty());
    }

    #[test]
    fn work_is_pulled_not_preassigned() {
        // All units claimed through one shared counter: every unit
        // index is claimed exactly once.
        let claims = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&claims);
        let got = run_ordered(100, 2, TaskKind::Leaf, move |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(got, (0..100).collect::<Vec<u64>>());
        assert_eq!(claims.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn global_pool_is_created_at_most_once() {
        let _ = run_ordered(16, 2, TaskKind::Leaf, |i| i);
        let _ = run_ordered(16, 4, TaskKind::Leaf, |i| i);
        assert_eq!(global_pools_created(), 1);
        let stats = global_stats();
        assert_eq!(stats.threads_spawned, global_width() as u64 - 1);
    }
}
