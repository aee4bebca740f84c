//! A persistent work-stealing executor shared by every fan-out in the
//! workspace.
//!
//! Before this module existed, every Monte-Carlo trial wave, splitting
//! stage, and experiment cell spun up its own `std::thread::scope`: a
//! 100-cell sweep paid 100 rounds of thread churn and got zero
//! cell-level parallelism. The executor replaces all of those scopes
//! with **one** long-lived pool of workers (per-worker deques plus a
//! shared injector, plain `std` only) that outlives any individual
//! job. Trial waves, splitting stages, exact solves, and whole
//! experiment cells are all submitted as jobs to the same pool, so
//! independent sweep cells pipeline across the same workers and grid
//! wall-clock approaches `max(cell)` instead of `sum(cell)` on a
//! multi-core host.
//!
//! # Determinism contract
//!
//! The executor never touches a random stream and never influences
//! *what* a unit of work computes — only *where* it runs. A job is a
//! contiguous range of unit indices `0..total`; each unit's inputs
//! (its jump-seeded RNG stream, its config) are derived from the unit
//! index alone by the caller, and results are reduced **in unit-index
//! order** at the join. Scheduling therefore cannot perturb any
//! aggregate: outputs are bit-identical for every pool width, job
//! width, and steal interleaving, which is exactly the contract the
//! old scoped fan-outs had (see METHODOLOGY.md, "Executor
//! determinism").
//!
//! # Task kinds and deadlock freedom
//!
//! Tasks come in two kinds. [`TaskKind::Leaf`] tasks (trial-wave
//! slots, splitting-stage slots) never join anything. A
//! [`TaskKind::Composite`] task (an experiment cell) may itself submit
//! leaf jobs and join them. A join never blocks idly while work is
//! queued: it *helps*, executing queued tasks — leaf tasks always, and
//! composite tasks only when the job being joined is itself composite
//! (i.e. the joiner sits at the top of the hierarchy). This bounds the
//! execution stack to `grid join → cell → wave join → wave slot` and
//! makes a width-1 pool — or even a pool whose only worker is busy
//! running the joining cell — complete every job without deadlock,
//! because the joiner can always run its own outstanding slots inline.
//!
//! # One pool per process
//!
//! [`global()`] lazily creates the process-wide pool; its width
//! defaults to [`std::thread::available_parallelism`] and can be fixed
//! *before first use* with [`configure_global_width`] (the `--jobs`
//! CLI flag), the one parallelism knob in the workspace. Every trial
//! and splitting-stage fan-out asks for [`global_width`] slots, so
//! concurrent [`crate::spec::ExperimentPlan`]s cannot oversubscribe
//! the host: the pool owns every worker thread in the process.
//!
//! Jobs whose effective width is 1 (and single-unit jobs) run inline
//! on the caller thread without touching — or even creating — the
//! pool, so single-threaded runs keep their exact pre-executor
//! performance profile.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
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

type TaskFn = Box<dyn FnOnce() + Send + 'static>;

struct Task {
    composite: bool,
    run: TaskFn,
}

/// Monotonic counters describing pool activity, for `--verbose`
/// diagnostics and the one-pool-per-process regression tests. None of
/// these values ever feeds a simulation result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Worker threads this pool has ever spawned (== width once the
    /// pool exists; it never grows per job).
    pub threads_spawned: u64,
    /// Jobs that went through the queues (excludes inline jobs).
    pub jobs_submitted: u64,
    /// Jobs that ran entirely inline on the caller thread.
    pub jobs_inline: u64,
    /// Tasks executed by workers and helping joiners.
    pub tasks_executed: u64,
    /// Tasks taken from another worker's deque or from the injector by
    /// a thread that did not enqueue them.
    pub steals: u64,
}

#[derive(Default)]
struct Stats {
    threads_spawned: AtomicU64,
    jobs_submitted: AtomicU64,
    jobs_inline: AtomicU64,
    tasks_executed: AtomicU64,
    steals: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Shared {
    /// Pool identity for the thread-local worker tag (distinguishes
    /// pools when unit tests create local ones next to the global).
    id: u64,
    injector: Mutex<VecDeque<Task>>,
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Queued-but-unclaimed task count; lets sleepy workers re-check
    /// for work under the sleep lock without scanning every queue.
    pending: AtomicU64,
    sleep: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    stats: Stats,
}

thread_local! {
    /// `(pool id, worker index)` of the pool this thread works for, or
    /// `(0, usize::MAX)` for non-worker threads.
    static WORKER: Cell<(u64, usize)> = const { Cell::new((0, usize::MAX)) };
}

static POOL_IDS: AtomicU64 = AtomicU64::new(1);

impl Shared {
    /// The calling thread's worker index in *this* pool, if any.
    fn worker_index(&self) -> Option<usize> {
        let (pool, idx) = WORKER.get();
        (pool == self.id && idx != usize::MAX).then_some(idx)
    }

    fn submit(&self, task: Task) {
        match self.worker_index() {
            Some(me) => lock(&self.deques[me]).push_back(task),
            None => lock(&self.injector).push_back(task),
        }
        self.pending.fetch_add(1, Ordering::SeqCst);
        // Notify under the sleep lock so a worker that just found the
        // queues empty cannot miss the wakeup.
        let _guard = lock(&self.sleep);
        self.wake.notify_all();
    }

    /// Pop the newest task from `deque` if its kind is allowed.
    fn pop_back_if(&self, deque: &Mutex<VecDeque<Task>>, allow_composite: bool) -> Option<Task> {
        let mut guard = lock(deque);
        let ok = guard
            .back()
            .is_some_and(|t| allow_composite || !t.composite);
        if !ok {
            return None;
        }
        let task = guard.pop_back();
        drop(guard);
        self.pending.fetch_sub(1, Ordering::SeqCst);
        task
    }

    /// Pop the oldest task from `deque` if its kind is allowed.
    fn pop_front_if(&self, deque: &Mutex<VecDeque<Task>>, allow_composite: bool) -> Option<Task> {
        let mut guard = lock(deque);
        let ok = guard
            .front()
            .is_some_and(|t| allow_composite || !t.composite);
        if !ok {
            return None;
        }
        let task = guard.pop_front();
        drop(guard);
        self.pending.fetch_sub(1, Ordering::SeqCst);
        task
    }

    /// Find a runnable task: own deque (LIFO), then the injector, then
    /// steal from the other workers (FIFO).
    fn find_task(&self, allow_composite: bool) -> Option<Task> {
        let me = self.worker_index();
        if let Some(i) = me {
            if let Some(t) = self.pop_back_if(&self.deques[i], allow_composite) {
                return Some(t);
            }
        }
        if let Some(t) = self.pop_front_if(&self.injector, allow_composite) {
            if me.is_some() {
                self.stats.steals.fetch_add(1, Ordering::Relaxed);
            }
            return Some(t);
        }
        let n = self.deques.len();
        let start = me.map_or(0, |i| i + 1);
        for k in 0..n {
            let victim = (start + k) % n;
            if Some(victim) == me {
                continue;
            }
            if let Some(t) = self.pop_front_if(&self.deques[victim], allow_composite) {
                self.stats.steals.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        None
    }

    fn run_task(&self, task: Task) {
        self.stats.tasks_executed.fetch_add(1, Ordering::Relaxed);
        (task.run)();
    }
}

fn worker_loop(shared: Arc<Shared>, me: usize) {
    WORKER.set((shared.id, me));
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if let Some(task) = shared.find_task(true) {
            shared.run_task(task);
            continue;
        }
        let guard = lock(&shared.sleep);
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if shared.pending.load(Ordering::SeqCst) > 0 {
            continue; // a submit raced our scan; rescan
        }
        // The timeout is a belt-and-braces liveness bound; the submit
        // path always notifies under the sleep lock.
        let _ = shared
            .wake
            .wait_timeout(guard, Duration::from_millis(50))
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// The state a job shares between its slot tasks and its joiner.
struct JobCore<T> {
    next: AtomicU64,
    total: u64,
    results: Mutex<Vec<(u64, T)>>,
    done: Condvar,
}

/// A work-stealing pool. Most code wants the process-wide [`global()`]
/// pool (via the free [`run_ordered`] / [`run_ordered_with`]
/// functions); constructing a local pool is for tests.
pub struct Executor {
    shared: Arc<Shared>,
    width: usize,
    /// Join handles for locally owned workers; empty for the detached
    /// global pool.
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Executor {
    /// A local pool with `width` workers (min 1), shut down on drop.
    pub fn new(width: usize) -> Executor {
        Executor::build(width, false)
    }

    fn build(width: usize, detached: bool) -> Executor {
        let width = width.max(1);
        let shared = Arc::new(Shared {
            id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
            injector: Mutex::new(VecDeque::new()),
            deques: (0..width).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicU64::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stats: Stats::default(),
        });
        let mut handles = Vec::new();
        for me in 0..width {
            let shared = Arc::clone(&shared);
            shared.stats.threads_spawned.fetch_add(1, Ordering::Relaxed);
            let handle = std::thread::Builder::new()
                .name(format!("sim-exec-{me}"))
                .spawn(move || worker_loop(shared, me))
                .expect("executor: spawning a worker thread failed"); // detlint: allow(panic-expect) -- OS thread exhaustion at pool creation is unrecoverable for the process
            if !detached {
                handles.push(handle);
            }
        }
        Executor {
            shared,
            width,
            handles,
        }
    }

    /// The number of worker threads this pool owns.
    pub fn width(&self) -> usize {
        self.width
    }

    /// A snapshot of this pool's activity counters.
    pub fn stats(&self) -> ExecutorStats {
        let s = &self.shared.stats;
        ExecutorStats {
            threads_spawned: s.threads_spawned.load(Ordering::Relaxed),
            jobs_submitted: s.jobs_submitted.load(Ordering::Relaxed),
            jobs_inline: s.jobs_inline.load(Ordering::Relaxed),
            tasks_executed: s.tasks_executed.load(Ordering::Relaxed),
            steals: s.steals.load(Ordering::Relaxed),
        }
    }

    /// Run `total` units through the pool and return results in unit
    /// order. See [`run_ordered_with`] for the full contract.
    pub fn run_ordered<T, F>(&self, total: u64, width: usize, kind: TaskKind, run_unit: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(u64) -> T + Send + Sync + 'static,
    {
        self.run_ordered_with(total, width, kind, run_unit, |_, _| {})
    }

    /// Run units `0..total` of a job, occupying at most `width` pool
    /// slots, and return the results **in unit-index order** —
    /// bit-identical for every pool width and steal interleaving.
    ///
    /// `on_complete(i, &result)` fires on the calling thread once per
    /// unit, in **completion order** (useful for streaming progress);
    /// the returned `Vec` is always in unit order. Jobs with an
    /// effective width of one run inline on the caller without
    /// touching the pool.
    pub fn run_ordered_with<T, F, C>(
        &self,
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
        let slots = width
            .min(usize::try_from(total).unwrap_or(usize::MAX))
            .max(1);
        if slots == 1 {
            self.shared
                .stats
                .jobs_inline
                .fetch_add(1, Ordering::Relaxed);
            return run_inline(total, &run_unit, &mut on_complete);
        }
        self.shared
            .stats
            .jobs_submitted
            .fetch_add(1, Ordering::Relaxed);
        let core = Arc::new(JobCore {
            next: AtomicU64::new(0),
            total,
            results: Mutex::new(Vec::new()),
            done: Condvar::new(),
        });
        let runner = Arc::new(run_unit);
        for _ in 0..slots {
            let core = Arc::clone(&core);
            let runner = Arc::clone(&runner);
            self.shared.submit(Task {
                composite: kind == TaskKind::Composite,
                // Each slot pulls unit indices until the job is
                // exhausted — the same pull loop the scoped fan-outs
                // used, so work distribution semantics are unchanged.
                run: Box::new(move || loop {
                    let i = core.next.fetch_add(1, Ordering::Relaxed);
                    if i >= core.total {
                        break;
                    }
                    let result = runner(i);
                    let mut results = lock(&core.results);
                    results.push((i, result));
                    core.done.notify_all();
                }),
            });
        }
        // Join: drain finished units, help-execute queued tasks while
        // any remain, park briefly otherwise. Helping is what makes a
        // narrow pool deadlock-free (see module docs).
        let allow_composite = kind == TaskKind::Composite;
        let mut out: Vec<Option<T>> = (0..total).map(|_| None).collect();
        let mut collected: u64 = 0;
        while collected < total {
            let drained: Vec<(u64, T)> = {
                let mut results = lock(&core.results);
                std::mem::take(&mut *results)
            };
            if !drained.is_empty() {
                for (i, result) in drained {
                    on_complete(i, &result);
                    out[usize::try_from(i).unwrap_or(usize::MAX)] = Some(result);
                    collected += 1;
                }
                continue;
            }
            if let Some(task) = self.shared.find_task(allow_composite) {
                self.shared.run_task(task);
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
        out.into_iter()
            .map(|slot| match slot {
                Some(result) => result,
                None => panic!("executor: a unit index produced no result"), // detlint: allow(panic-macro) -- the join loop counts exactly one pushed result per unit index before exiting
            })
            .collect()
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        if self.handles.is_empty() {
            return; // detached (global) pool: workers live for the process
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _guard = lock(&self.shared.sleep);
            self.shared.wake.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn run_inline<T, F, C>(total: u64, run_unit: &F, on_complete: &mut C) -> Vec<T>
where
    F: Fn(u64) -> T,
    C: FnMut(u64, &T),
{
    (0..total)
        .map(|i| {
            let result = run_unit(i);
            on_complete(i, &result);
            result
        })
        .collect()
}

static GLOBAL: OnceLock<Executor> = OnceLock::new();
static CONFIGURED_WIDTH: AtomicU64 = AtomicU64::new(0);
static GLOBAL_POOLS_CREATED: AtomicU64 = AtomicU64::new(0);

fn default_width() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Fix the global pool's width (0 = auto-detect) **before first use**.
/// Returns `false` if the pool already exists, in which case the call
/// had no effect. Wired to the bench CLI `--jobs` flag.
pub fn configure_global_width(width: usize) -> bool {
    CONFIGURED_WIDTH.store(width as u64, Ordering::SeqCst);
    GLOBAL.get().is_none()
}

/// The process-wide pool, created on first call. Its worker threads
/// are detached: they live for the remainder of the process.
pub fn global() -> &'static Executor {
    GLOBAL.get_or_init(|| {
        GLOBAL_POOLS_CREATED.fetch_add(1, Ordering::SeqCst);
        let configured = usize::try_from(CONFIGURED_WIDTH.load(Ordering::SeqCst)).unwrap_or(0);
        let width = if configured == 0 {
            default_width()
        } else {
            configured
        };
        Executor::build(width, true)
    })
}

#[cfg(test)]
thread_local! {
    /// Unit-test stand-in for `--jobs`: while set, [`global_width`]
    /// reports this width on the current thread.
    static TEST_WIDTH: Cell<Option<usize>> = const { Cell::new(None) };
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
    if let Some(pool) = GLOBAL.get() {
        return pool.width();
    }
    let configured = usize::try_from(CONFIGURED_WIDTH.load(Ordering::SeqCst)).unwrap_or(0);
    if configured == 0 {
        default_width()
    } else {
        configured
    }
}

/// [`ExecutorStats`] for the global pool; all-zero if it has never
/// been created (every job so far ran inline).
pub fn global_stats() -> ExecutorStats {
    GLOBAL.get().map(Executor::stats).unwrap_or_default()
}

/// How many times [`global()`] has constructed a pool. At most 1 per
/// process by construction; the one-pool regression tests assert it.
pub fn global_pools_created() -> u64 {
    GLOBAL_POOLS_CREATED.load(Ordering::SeqCst)
}

/// [`Executor::run_ordered`] on the global pool. Width-1 and
/// single-unit jobs run inline without creating the pool.
pub fn run_ordered<T, F>(total: u64, width: usize, kind: TaskKind, run_unit: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(u64) -> T + Send + Sync + 'static,
{
    run_ordered_with(total, width, kind, run_unit, |_, _| {})
}

/// [`Executor::run_ordered_with`] on the global pool. Width-1 and
/// single-unit jobs run inline without creating the pool.
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
    let slots = width
        .min(usize::try_from(total).unwrap_or(usize::MAX))
        .max(1);
    if slots == 1 {
        return run_inline(total, &run_unit, &mut on_complete);
    }
    global().run_ordered_with(total, width, kind, run_unit, on_complete)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn ordered_results_match_inline_for_every_width() {
        let expected: Vec<u64> = (0..97).map(|i| i * i + 1).collect();
        for width in [1, 2, 4, 8] {
            let pool = Executor::new(2);
            let got = pool.run_ordered(97, width, TaskKind::Leaf, |i| i * i + 1);
            assert_eq!(got, expected, "width {width}");
        }
    }

    #[test]
    fn single_width_jobs_run_inline_without_touching_workers() {
        let pool = Executor::new(3);
        let got = pool.run_ordered(50, 1, TaskKind::Leaf, |i| i + 7);
        assert_eq!(got, (7..57).collect::<Vec<u64>>());
        let stats = pool.stats();
        assert_eq!(stats.jobs_inline, 1);
        assert_eq!(stats.jobs_submitted, 0);
        assert_eq!(stats.tasks_executed, 0);
    }

    #[test]
    fn pool_threads_are_spawned_once_not_per_job() {
        let pool = Executor::new(3);
        for _ in 0..5 {
            let _ = pool.run_ordered(32, 4, TaskKind::Leaf, |i| i);
        }
        let stats = pool.stats();
        assert_eq!(stats.threads_spawned, 3, "{stats:?}");
        assert_eq!(stats.jobs_submitted, 5, "{stats:?}");
    }

    #[test]
    fn streaming_callback_sees_every_unit_exactly_once() {
        let pool = Executor::new(2);
        let mut seen = vec![0u32; 40];
        let got = pool.run_ordered_with(
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

    /// The deadlock regression the helping join exists for: a width-1
    /// pool runs composite tasks that each submit and join a nested
    /// leaf job on the same pool.
    #[test]
    fn nested_leaf_jobs_inside_composites_complete_on_a_width_1_pool() {
        let pool = Arc::new(Executor::new(1));
        let inner = Arc::clone(&pool);
        let got = pool.run_ordered(4, 4, TaskKind::Composite, move |cell| {
            inner
                .run_ordered(8, 4, TaskKind::Leaf, move |i| cell * 100 + i)
                .iter()
                .sum::<u64>()
        });
        let expected: Vec<u64> = (0..4)
            .map(|cell| (0..8).map(|i| cell * 100 + i).sum())
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn empty_jobs_return_empty() {
        let pool = Executor::new(2);
        let got: Vec<u64> = pool.run_ordered(0, 4, TaskKind::Leaf, |i| i);
        assert!(got.is_empty());
    }

    #[test]
    fn work_is_pulled_not_preassigned() {
        // All units claimed through one shared counter: the number of
        // distinct executing threads never exceeds the slot count, and
        // every unit index is claimed exactly once.
        let pool = Executor::new(4);
        let claims = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&claims);
        let got = pool.run_ordered(100, 2, TaskKind::Leaf, move |i| {
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
        assert!(global_pools_created() <= 1);
        let stats = global_stats();
        assert_eq!(stats.threads_spawned, global().width() as u64);
    }
}
