//! Differential test of the simulator's two passes.
//!
//! [`simulate`] accepts plans through its streaming pass and hands
//! everything else to the per-event reference pass, which names the
//! canonical error. Both must return the identical
//! `Result<SimReport, SimError>` that [`simulate_reference`] computes
//! alone, on:
//!
//! * every Table 1 benchmark × {16, 32, 64} PEs × both schedulers, at
//!   two iteration counts — and the streaming pass must accept every
//!   one of these plans itself, so its speed-up cannot silently turn
//!   into a fallback;
//! * a seeded corpus of single-field mutations of those plans: a start
//!   shifted, a duration changed, a destination rerouted, a placement
//!   flipped, an iteration moved, an entry dropped or duplicated, a
//!   start set to overflow;
//! * the unmutated plans on squeezed architectures — one cache unit per
//!   PE, a one-deep iFIFO, a one-port vault limit, a failed PE — so
//!   every lane's limit decides some verdict.

use std::sync::OnceLock;

use paraconv::graph::{Placement, TaskGraph};
use paraconv::pim::{
    simulate, simulate_reference, simulate_streaming, ExecutionPlan, PeId, PimConfig, PlannedTask,
    PlannedTransfer,
};
use paraconv::sched::{ParaConvScheduler, SpartaScheduler};
use paraconv::synth::benchmarks;

const PE_COUNTS: [usize; 3] = [16, 32, 64];
const ITERATIONS: [u64; 2] = [5, 12];

type Case = (String, TaskGraph, PimConfig, ExecutionPlan);

/// Every scheduler plan of the corpus, labelled for failure messages,
/// scheduled once for all tests.
fn corpus() -> &'static [Case] {
    static CORPUS: OnceLock<Vec<Case>> = OnceLock::new();
    CORPUS.get_or_init(schedule_corpus)
}

fn schedule_corpus() -> Vec<Case> {
    let mut out = Vec::new();
    for bench in benchmarks::all() {
        let graph = bench.graph().expect("benchmark graph");
        for pes in PE_COUNTS {
            let config = PimConfig::neurocube(pes).expect("preset");
            for iterations in ITERATIONS {
                let label =
                    |sched: &str| format!("{} {pes} PEs {iterations} it {sched}", bench.name());
                let paraconv = ParaConvScheduler::new(config.clone())
                    .schedule(&graph, iterations)
                    .expect("Para-CONV schedules")
                    .plan;
                let sparta = SpartaScheduler::new(config.clone())
                    .schedule(&graph, iterations)
                    .expect("SPARTA schedules")
                    .plan;
                out.push((label("Para-CONV"), graph.clone(), config.clone(), paraconv));
                out.push((label("SPARTA"), graph.clone(), config.clone(), sparta));
            }
        }
    }
    out
}

/// SplitMix64: a seeded, dependency-free stream for the corpus.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One plan entry, task or transfer, by kind and index.
#[derive(Clone, Copy, Debug)]
enum Entry {
    Task(usize),
    Transfer(usize),
}

/// Rebuilds `plan` with `entry` replaced by `with` (dropped when
/// `None`), appending `extra` copies of it at the end.
fn rebuild(plan: &ExecutionPlan, entry: Entry, with: Option<Edit>, extra: usize) -> ExecutionPlan {
    let mut out = ExecutionPlan::new(plan.iterations());
    for (i, &t) in plan.tasks().iter().enumerate() {
        match (entry, with) {
            (Entry::Task(j), Some(Edit::Task(new))) if i == j => out.push_task(new),
            (Entry::Task(j), None) if i == j => {}
            _ => out.push_task(t),
        }
    }
    for (i, &x) in plan.transfers().iter().enumerate() {
        match (entry, with) {
            (Entry::Transfer(j), Some(Edit::Transfer(new))) if i == j => out.push_transfer(new),
            (Entry::Transfer(j), None) if i == j => {}
            _ => out.push_transfer(x),
        }
    }
    for _ in 0..extra {
        match entry {
            Entry::Task(j) => out.push_task(plan.tasks()[j]),
            Entry::Transfer(j) => out.push_transfer(plan.transfers()[j]),
        }
    }
    out
}

#[derive(Clone, Copy, Debug)]
enum Edit {
    Task(PlannedTask),
    Transfer(PlannedTransfer),
}

/// The seeded single-field mutations of one plan, with a description
/// each.
fn mutations(plan: &ExecutionPlan, pes: usize, rng: &mut Rng) -> Vec<(String, ExecutionPlan)> {
    let tasks = plan.tasks();
    let transfers = plan.transfers();
    let mut out = Vec::new();
    let ti = rng.below(tasks.len());
    let xi = rng.below(transfers.len());
    let t = tasks[ti];
    let x = transfers[xi];
    let shift = 1 + rng.below(3) as u64;
    let early = rng.next().is_multiple_of(2);
    let shifted = |start: u64| {
        if early {
            start.saturating_sub(shift)
        } else {
            start + shift
        }
    };

    let edit_task = |f: &dyn Fn(&mut PlannedTask)| {
        let mut m = t;
        f(&mut m);
        rebuild(plan, Entry::Task(ti), Some(Edit::Task(m)), 0)
    };
    let edit_transfer = |f: &dyn Fn(&mut PlannedTransfer)| {
        let mut m = x;
        f(&mut m);
        rebuild(plan, Entry::Transfer(xi), Some(Edit::Transfer(m)), 0)
    };

    out.push((
        format!("task {ti} start shifted by {shift} (earlier: {early})"),
        edit_task(&|m| m.start = shifted(m.start)),
    ));
    out.push((
        format!("transfer {xi} start shifted by {shift} (earlier: {early})"),
        edit_transfer(&|m| m.start = shifted(m.start)),
    ));
    out.push((
        format!("task {ti} duration changed"),
        edit_task(&|m| {
            m.duration = if early {
                m.duration.saturating_sub(1)
            } else {
                m.duration + 1
            }
        }),
    ));
    out.push((
        format!("transfer {xi} duration changed"),
        edit_transfer(&|m| {
            m.duration = if early {
                m.duration.saturating_sub(1)
            } else {
                m.duration + 1
            }
        }),
    ));
    let hop = 1 + rng.below(pes - 1) as u32;
    out.push((
        format!("transfer {xi} rerouted by {hop}"),
        edit_transfer(&|m| m.dst_pe = PeId::new((m.dst_pe.index() as u32 + hop) % pes as u32)),
    ));
    out.push((
        format!("transfer {xi} placement flipped"),
        edit_transfer(&|m| {
            m.placement = match m.placement {
                Placement::Cache => Placement::Edram,
                Placement::Edram => Placement::Cache,
            };
        }),
    ));
    out.push((
        format!("task {ti} dropped"),
        rebuild(plan, Entry::Task(ti), None, 0),
    ));
    out.push((
        format!("transfer {xi} dropped"),
        rebuild(plan, Entry::Transfer(xi), None, 0),
    ));
    out.push((
        format!("task {ti} duplicated"),
        rebuild(plan, Entry::Task(ti), Some(Edit::Task(t)), 1),
    ));
    out.push((
        format!("transfer {xi} duplicated"),
        rebuild(plan, Entry::Transfer(xi), Some(Edit::Transfer(x)), 1),
    ));
    let moved = |iteration: u64| {
        if iteration > 1 {
            iteration - 1
        } else {
            iteration + 1
        }
    };
    out.push((
        format!("task {ti} iteration moved"),
        edit_task(&|m| m.iteration = moved(m.iteration)),
    ));
    out.push((
        format!("transfer {xi} iteration moved"),
        edit_transfer(&|m| m.iteration = moved(m.iteration)),
    ));
    let back = rng.below(2) as u64;
    out.push((
        format!("task {ti} start overflows"),
        edit_task(&|m| m.start = u64::MAX - back),
    ));
    out.push((
        format!("transfer {xi} start overflows"),
        edit_transfer(&|m| m.start = u64::MAX - back),
    ));
    out
}

#[test]
fn streaming_pass_accepts_every_scheduler_plan_with_the_reference_report() {
    for (label, graph, config, plan) in corpus() {
        let reference = simulate_reference(graph, plan, config);
        assert!(reference.is_ok(), "{label}: {reference:?}");
        let streamed = simulate_streaming(graph, plan, config);
        assert!(streamed.is_some(), "{label}: the streaming pass fell back");
        assert_eq!(streamed.map(Ok), Some(reference.clone()), "{label}");
        assert_eq!(simulate(graph, plan, config), reference, "{label}");
    }
}

#[test]
fn mutated_plans_get_the_reference_verdict() {
    let mut rng = Rng(0x5EED_0F5E_ED0F);
    let (mut accepted, mut rejected) = (0usize, 0usize);
    for (label, graph, config, plan) in corpus() {
        for (what, mutated) in mutations(plan, config.num_pes(), &mut rng) {
            let reference = simulate_reference(graph, &mutated, config);
            assert_eq!(
                simulate(graph, &mutated, config),
                reference,
                "{label}: {what}"
            );
            if reference.is_ok() {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
    }
    // The corpus must exercise both verdicts.
    assert!(
        accepted > 0 && rejected > 0,
        "{accepted} accepted, {rejected} rejected"
    );
}

#[test]
fn squeezed_architectures_get_the_reference_verdict() {
    let mut rejected = [0usize; 4];
    for (label, graph, config, plan) in corpus() {
        let pes = config.num_pes();
        let squeezed = [
            (
                "one cache unit per PE",
                PimConfig::builder(pes).per_pe_cache_units(1).build(),
            ),
            (
                "one-deep iFIFO",
                PimConfig::builder(pes).pfifo_depth(1).build(),
            ),
            (
                "one vault port",
                PimConfig::builder(pes).max_vault_concurrency(1).build(),
            ),
            (
                "first task's PE failed",
                config.degrade(&[plan.tasks()[0].pe.index() as u32]),
            ),
        ];
        for (count, (what, squeezed)) in rejected.iter_mut().zip(squeezed) {
            let squeezed = squeezed.expect("valid squeezed configuration");
            let reference = simulate_reference(graph, plan, &squeezed);
            assert_eq!(
                simulate(graph, plan, &squeezed),
                reference,
                "{label}: {what}"
            );
            *count += usize::from(reference.is_err());
        }
    }
    // Every squeeze must reject some plan, or its lane went untested.
    assert!(
        rejected.iter().all(|&n| n > 0),
        "rejections per squeeze: {rejected:?}"
    );
}
