//! The pool's width counts the caller: at `--jobs 2`, a job and every
//! job nested in it compute on at most two threads, the joining caller
//! and one worker. It lives alone in its own integration-test binary,
//! because every joiner in a process helps run queued leaf tasks, so a
//! sibling test's thread could run this test's units.

use std::sync::{Arc, Mutex};
use std::thread;

use nakamoto_sim::executor::{self, TaskKind};

#[test]
fn a_width_2_job_computes_on_at_most_2_threads() {
    assert!(
        executor::configure_global_width(2),
        "this test owns the process: the pool must not pre-exist"
    );
    let threads = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::clone(&threads);
    let got = executor::run_ordered(16, 2, TaskKind::Composite, move |cell| {
        seen.lock().unwrap().push(thread::current().id());
        let seen = Arc::clone(&seen);
        executor::run_ordered(8, 2, TaskKind::Leaf, move |i| {
            seen.lock().unwrap().push(thread::current().id());
            cell * 8 + i
        })
        .iter()
        .sum::<u64>()
    });
    let expected: Vec<u64> = (0..16)
        .map(|cell| (0..8).map(|i| cell * 8 + i).sum())
        .collect();
    assert_eq!(got, expected);
    let ids = threads.lock().unwrap();
    assert_eq!(ids.len(), 16 + 16 * 8, "one record per unit");
    let mut distinct = Vec::new();
    for id in ids.iter() {
        if !distinct.contains(id) {
            distinct.push(*id);
        }
    }
    assert!(
        distinct.len() <= 2,
        "{} threads ran the units of a width-2 job",
        distinct.len()
    );
    assert_eq!(executor::global_stats().threads_spawned, 1);
}
