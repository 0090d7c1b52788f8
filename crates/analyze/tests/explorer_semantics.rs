//! The explorer's synchronization semantics on small hand-written
//! models: which shim operations order plain memory, which lose
//! updates, and how the preemption budget, replay seeds and the step
//! bound behave.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use paraconv_analyze::shim::{self, AtomicBool, AtomicU64, Cell, Condvar, Mutex};
use paraconv_analyze::{explore, replay, ExploreOpts, FailureKind};

fn opts() -> ExploreOpts {
    ExploreOpts::default()
}

fn with_budget(preemption_budget: usize) -> ExploreOpts {
    ExploreOpts {
        preemption_budget,
        ..opts()
    }
}

/// Two threads each read a shared atomic and write back one more —
/// a read-modify-write split into two operations.
fn split_increment() {
    let n = Arc::new(AtomicU64::new("counter", 0));
    let t = {
        let n = Arc::clone(&n);
        shim::spawn(move || {
            let v = n.load(Ordering::SeqCst);
            n.store(v + 1, Ordering::SeqCst);
        })
    };
    let v = n.load(Ordering::SeqCst);
    n.store(v + 1, Ordering::SeqCst);
    t.join();
    assert_eq!(n.load(Ordering::SeqCst), 2, "an increment was lost");
}

#[test]
fn a_single_threaded_model_has_exactly_one_schedule() {
    let explored = explore(&opts(), || {
        let c = Cell::new("x", 1);
        c.set(c.get() + 1);
        assert_eq!(c.get(), 2);
    })
    .unwrap();
    assert_eq!(explored.schedules, 1);
    assert!(explored.complete);
    assert_eq!(explored.preemption_budget, 2);
    assert!(explored.max_steps >= 3, "{explored:?}");
}

#[test]
fn join_orders_a_childs_plain_writes_before_the_parents_reads() {
    let explored = explore(&opts(), || {
        let c = Arc::new(Cell::new("data", 0));
        let t = {
            let c = Arc::clone(&c);
            shim::spawn(move || c.set(7))
        };
        t.join();
        assert_eq!(c.get(), 7);
    })
    .unwrap();
    assert!(explored.complete);
}

#[test]
fn reading_a_childs_plain_write_before_join_is_a_data_race() {
    let failure = explore(&opts(), || {
        let c = Arc::new(Cell::new("data", 0));
        let t = {
            let c = Arc::clone(&c);
            shim::spawn(move || c.set(7))
        };
        let _ = c.get();
        t.join();
    })
    .expect_err("an unordered read of a plain write must race");
    assert_eq!(failure.kind, FailureKind::DataRace);
    assert!(failure.message.contains("data"), "{}", failure.message);
}

#[test]
fn a_split_read_modify_write_loses_an_update_that_replays() {
    let failure = explore(&opts(), split_increment).expect_err("some schedule loses an update");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(failure.message.contains("lost"), "{}", failure.message);
    let replayed = replay(&opts(), &failure.schedule, split_increment)
        .unwrap()
        .expect("the printed seed reproduces the lost update");
    assert_eq!(replayed.kind, FailureKind::Panic);
    assert_eq!(replayed.schedule, failure.schedule);
}

#[test]
fn without_preemptions_the_lost_update_stays_hidden() {
    // Budget 0 only switches threads when one blocks or exits, so the
    // two halves of each increment are never separated.
    let explored = explore(&with_budget(0), split_increment).unwrap();
    assert!(explored.complete);
}

#[test]
fn fetch_add_and_a_mutex_never_lose_an_update() {
    let explored = explore(&opts(), || {
        let atomic = Arc::new(AtomicU64::new("hits", 0));
        let locked = Arc::new(Mutex::new("total", 0u64));
        let t = {
            let atomic = Arc::clone(&atomic);
            let locked = Arc::clone(&locked);
            shim::spawn(move || {
                atomic.fetch_add(1, Ordering::Relaxed);
                *locked.lock() += 1;
            })
        };
        assert!(atomic.fetch_add(1, Ordering::Relaxed) <= 1);
        *locked.lock() += 1;
        t.join();
        assert_eq!(atomic.load(Ordering::Relaxed), 2);
        assert_eq!(*locked.lock(), 2);
    })
    .unwrap();
    assert!(explored.complete);
    assert!(explored.schedules > 1, "{explored:?}");
}

#[test]
fn a_release_acquire_flag_publishes_plain_data() {
    let explored = explore(&opts(), || {
        let data = Arc::new(Cell::new("payload", 0));
        let ready = Arc::new(AtomicBool::new("ready", false));
        let t = {
            let data = Arc::clone(&data);
            let ready = Arc::clone(&ready);
            shim::spawn(move || {
                data.set(42);
                ready.store(true, Ordering::Release);
            })
        };
        if ready.load(Ordering::Acquire) {
            assert_eq!(data.get(), 42);
        }
        t.join();
    })
    .unwrap();
    assert!(explored.complete);
    assert!(explored.schedules > 1, "{explored:?}");
}

#[test]
fn a_condvar_wait_loop_is_woken_under_every_schedule() {
    let explored = explore(&opts(), || {
        let state = Arc::new(Mutex::new("state", false));
        let cv = Arc::new(Condvar::new("changed"));
        let t = {
            let state = Arc::clone(&state);
            let cv = Arc::clone(&cv);
            shim::spawn(move || {
                *state.lock() = true;
                cv.notify_all();
            })
        };
        let mut guard = state.lock();
        while !*guard {
            guard = cv.wait(guard);
        }
        drop(guard);
        t.join();
    })
    .unwrap();
    assert!(explored.complete);
}

#[test]
fn a_larger_preemption_budget_explores_at_least_as_much() {
    let counts: Vec<usize> = (0..3)
        .map(|budget| {
            explore(&with_budget(budget), || {
                let n = Arc::new(AtomicU64::new("n", 0));
                let t = {
                    let n = Arc::clone(&n);
                    shim::spawn(move || {
                        n.fetch_add(1, Ordering::SeqCst);
                        n.fetch_add(1, Ordering::SeqCst);
                    })
                };
                n.fetch_add(1, Ordering::SeqCst);
                n.fetch_add(1, Ordering::SeqCst);
                t.join();
            })
            .unwrap()
            .schedules
        })
        .collect();
    assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
    assert!(counts[0] < counts[2], "{counts:?}");
}

#[test]
fn replay_runs_a_passing_seed_clean_and_flags_a_foreign_one() {
    // The empty seed is the default schedule: no preemptions, passing.
    assert!(replay(&opts(), "", split_increment).unwrap().is_none());
    // A seed naming a thread the model never spawns cannot be followed.
    let diverged = replay(&opts(), "0.5", split_increment)
        .unwrap()
        .expect("a non-runnable choice is reported");
    assert_eq!(diverged.kind, FailureKind::Divergence);
    assert!(diverged.message.contains("T5"), "{}", diverged.message);
}

#[test]
fn a_model_that_never_converges_is_a_runaway() {
    let failure = explore(&opts(), || {
        let flag = AtomicBool::new("never-set", false);
        while !flag.load(Ordering::SeqCst) {}
    })
    .expect_err("a spin on a flag nobody sets must hit the step bound");
    assert_eq!(failure.kind, FailureKind::Runaway);
    assert_eq!(failure.kind.to_string(), "runaway");
}
