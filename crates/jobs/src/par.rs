//! Scoped-thread work pool for the harness: sweep combinations, oracle
//! configurations and experiment rows are independent simulations (each
//! owns its heap and engine), so they fan out across `std::thread::scope`
//! workers — no external dependency, no unsafe.
//!
//! Parallelism is controlled by the `HWGC_JOBS` environment variable:
//!
//! * unset, `0`, or unparseable → the machine's available parallelism,
//! * `1` → serial execution on the calling thread (deterministic
//!   debugging order),
//! * `N ≥ 2` → that many workers.
//!
//! Results are always collected in input order, regardless of completion
//! order, so every caller is deterministic modulo wall-clock.
//!
//! The sibling knob `HWGC_WORKERS` ([`workers`]) sizes the *process*
//! fleet of the multi-process sweep executor (`crate::exec`); its
//! default is 0 — no fleet, run in-process on this pool.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The worker count requested by `HWGC_JOBS` (see the module docs for the
/// exact unset/zero/garbage semantics).
pub fn jobs() -> usize {
    jobs_from(std::env::var("HWGC_JOBS").ok().as_deref())
}

/// [`jobs`] on an explicit value — separable for tests, since the process
/// environment is shared mutable state.
pub fn jobs_from(var: Option<&str>) -> usize {
    match var.and_then(|s| s.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        // 0 or garbage falls through to the default, like unset.
        _ => default_parallelism(),
    }
}

fn default_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The worker-*process* count requested by `HWGC_WORKERS` for the
/// multi-process sweep executor. Unlike [`jobs`] there is no machine
/// default: `0` (and unset, and garbage) means "no worker fleet" — the
/// executor runs in-process on the [`par_map`] pool. `N ≥ 1` spawns
/// that many persistent `sweep_worker` children.
pub fn workers() -> usize {
    workers_from(std::env::var("HWGC_WORKERS").ok().as_deref())
}

/// [`workers`] on an explicit value — separable for tests, since the
/// process environment is shared mutable state.
pub fn workers_from(var: Option<&str>) -> usize {
    match var.and_then(|s| s.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        // 0 or garbage falls through to "in-process", like unset.
        _ => 0,
    }
}

/// Apply `f` to every item, using up to [`jobs`] scoped worker threads,
/// and return the results in input order. `f` receives the item index and
/// the item. With one worker (or one item) everything runs inline on the
/// calling thread. A panic in any worker propagates to the caller with
/// its original payload once the scope joins.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = jobs().min(n);
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i, &items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_from_documents_every_input_class() {
        let default = default_parallelism();
        assert!(default >= 1);
        // Unset → default.
        assert_eq!(jobs_from(None), default);
        // Zero → default (a zero-worker pool is meaningless).
        assert_eq!(jobs_from(Some("0")), default);
        // Garbage → default.
        assert_eq!(jobs_from(Some("lots")), default);
        assert_eq!(jobs_from(Some("")), default);
        assert_eq!(jobs_from(Some("-3")), default);
        assert_eq!(jobs_from(Some("2.5")), default);
        // Explicit counts are honored, including serial mode.
        assert_eq!(jobs_from(Some("1")), 1);
        assert_eq!(jobs_from(Some("7")), 7);
        assert_eq!(jobs_from(Some(" 4 ")), 4, "whitespace is trimmed");
    }

    #[test]
    fn workers_from_documents_every_input_class() {
        // Unset → no worker fleet (in-process execution).
        assert_eq!(workers_from(None), 0);
        // Zero → in-process, explicitly.
        assert_eq!(workers_from(Some("0")), 0);
        // Garbage → in-process (never a surprise fleet).
        assert_eq!(workers_from(Some("lots")), 0);
        assert_eq!(workers_from(Some("")), 0);
        assert_eq!(workers_from(Some("-3")), 0);
        assert_eq!(workers_from(Some("2.5")), 0);
        // Explicit counts are honored, including a single worker.
        assert_eq!(workers_from(Some("1")), 1);
        assert_eq!(workers_from(Some("4")), 4);
        assert_eq!(workers_from(Some(" 2 ")), 2, "whitespace is trimmed");
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = par_map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * x
        });
        assert_eq!(out.len(), items.len());
        for (i, &r) in out.iter().enumerate() {
            assert_eq!(r, (i * i) as u64);
        }
    }

    #[test]
    fn par_map_empty_and_singleton() {
        let none: Vec<u32> = par_map(&[], |_, &x: &u32| x);
        assert!(none.is_empty());
        assert_eq!(par_map(&[9u32], |i, &x| (i, x)), vec![(0, 9)]);
    }

    #[test]
    fn par_map_propagates_worker_panics() {
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            par_map(&items, |_, &x| {
                assert!(x != 13, "combo 13 diverged");
                x
            })
        });
        assert!(result.is_err(), "worker panic must reach the caller");
    }
}
