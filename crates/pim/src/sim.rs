//! The execution-plan simulator.
//!
//! [`simulate`] replays a fully concrete [`ExecutionPlan`] on the
//! architecture described by a [`PimConfig`], validating every
//! architectural constraint and producing a [`SimReport`]:
//!
//! * every `(node, iteration)` instance planned exactly once, with the
//!   node's execution time;
//! * every task and transfer ends at a representable time
//!   (`start + duration` fits a `u64`);
//! * no processing engine executes two instances at once;
//! * every data dependency `I_{i,j}^ℓ` is realized by a transfer that
//!   starts after the producer finishes, completes before the consumer
//!   starts, is routed to the consumer's PE, and is no shorter than the
//!   latency of its placement;
//! * cache-resident IPRs never exceed the aggregate on-chip capacity;
//! * in-flight transfers to one PE never exceed its iFIFO depth.
//!
//! Replay is one streaming pass. It walks the plan once, in plan
//! order, checking every task and transfer with O(1) array lookups:
//! an iteration-major instance index, a per-PE failed mask, per-node
//! execution times and per-edge sizes and costs. Each occupancy delta
//! goes straight into a per-lane time bucket, and one scan over the
//! buckets checks every lane and yields the peaks. The lanes are PE
//! exclusivity (≤ 1), cache (≤ capacity), iFIFO (≤ depth) and vault
//! (≤ the configured port limit, if any).
//!
//! The streaming pass only ever accepts a plan. When it finds a
//! violation, or the plan falls outside what it covers (an instance
//! outside `1..=iterations`, a bucket outside the `i16` range, buckets
//! that would need more memory than the reference pass's event lanes),
//! the plan goes to the per-event reference pass instead. That pass
//! records every task interval on its PE, sorts `(time, delta)` event
//! lanes, and names the canonical first [`SimError`] in plan order.
//! [`simulate_reference`] runs it on its own, so tests can hold the two
//! passes to identical results.
//!
//! The simulator is the ground truth for the evaluation: both SPARTA
//! and Para-CONV plans are replayed here, so reported improvements are
//! measured under identical architectural rules.

use std::collections::HashMap;

use paraconv_graph::{Placement, TaskGraph, TaskNode};

use crate::pe::RecordError;
use crate::{CostModel, ExecutionPlan, Pe, PeId, PimConfig, SimError, SimReport, VaultArray};

/// Cap on the dense instance-index footprint. Real plans are far
/// below this (the largest benchmark is ~546 nodes × 51 iteration
/// slots ≈ 28k entries); an adversarial plan declaring a huge
/// iteration count falls back to hash-map indexing instead of
/// allocating `keys × iterations` slots.
const MAX_DENSE_INDEX: u128 = 1 << 26;

/// Bytes the reference pass's event lanes take per transfer: four
/// packed `u128` events (iFIFO in and out, cache or vault in and out).
/// The streaming pass's buckets may use as much.
const EVENT_BYTES_PER_TRANSFER: usize = 4 * 16;

/// Bucket memory any plan may use whatever its transfer count, so that
/// small plans stream too.
const BUCKET_FLOOR_BYTES: usize = 1 << 16;

/// Positional index over `(dense key, iteration)` instance pairs.
///
/// The simulator previously used `HashMap<(NodeId, u64), usize>` /
/// `HashMap<(EdgeId, u64), usize>` here; since node and edge ids are
/// dense and plans cover iterations `1..=iterations`, a flat
/// `Vec<usize>` keyed `key * (iterations + 1) + iteration` answers
/// the same lookups without hashing. Iterations outside the declared
/// range (or any iteration, when the declared range is implausibly
/// large) spill to a small `HashMap` so behaviour is unchanged for
/// malformed plans.
struct InstanceIndex {
    /// Dense stride (`iterations + 1`); 0 disables the dense lane.
    stride: usize,
    dense: Vec<usize>,
    spill: HashMap<(usize, u64), usize>,
}

impl InstanceIndex {
    const ABSENT: usize = usize::MAX;

    fn new(keys: usize, iterations: u64) -> Self {
        let stride = iterations.saturating_add(1);
        if (stride as u128) * (keys as u128) <= MAX_DENSE_INDEX {
            InstanceIndex {
                stride: stride as usize,
                dense: vec![Self::ABSENT; keys * stride as usize],
                spill: HashMap::new(),
            }
        } else {
            InstanceIndex {
                stride: 0,
                dense: Vec::new(),
                spill: HashMap::new(),
            }
        }
    }

    fn slot(&self, key: usize, iteration: u64) -> Option<usize> {
        if iteration < self.stride as u64 {
            Some(key * self.stride + iteration as usize)
        } else {
            None
        }
    }

    /// Inserts `value` for the instance, returning the previous value
    /// if the instance was already present (a duplicate plan entry).
    fn insert(&mut self, key: usize, iteration: u64, value: usize) -> Option<usize> {
        match self.slot(key, iteration) {
            Some(slot) => {
                // lint: allow(unchecked-index) — ids are validated against the plan before the event loop starts
                let prev = self.dense[slot];
                // lint: allow(unchecked-index) — ids are validated against the plan before the event loop starts
                self.dense[slot] = value;
                (prev != Self::ABSENT).then_some(prev)
            }
            None => self.spill.insert((key, iteration), value),
        }
    }

    fn get(&self, key: usize, iteration: u64) -> Option<usize> {
        match self.slot(key, iteration) {
            Some(slot) => {
                // lint: allow(unchecked-index) — ids are validated against the plan before the event loop starts
                let v = self.dense[slot];
                (v != Self::ABSENT).then_some(v)
            }
            None => self.spill.get(&(key, iteration)).copied(),
        }
    }

    fn contains(&self, key: usize, iteration: u64) -> bool {
        self.get(key, iteration).is_some()
    }
}

/// A sorted struct-of-arrays event lane of the reference pass.
///
/// Packing `(time, delta)` into one `u128` key — time in the high 64
/// bits, the delta sign-flipped below it — keeps the exact order of
/// `sort_by_key` on `(t, delta)` (the sign flip is order-preserving
/// for `i64`) while sorting a flat scalar array.
struct EventLane {
    keys: Vec<u128>,
}

impl EventLane {
    /// XOR-ing an `i64` delta with this bit maps the signed order onto
    /// the unsigned order of the low key half.
    const SIGN_FLIP: u64 = 1 << 63;

    fn new() -> Self {
        EventLane { keys: Vec::new() }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    fn push(&mut self, time: u64, delta: i64) {
        self.keys
            .push((u128::from(time) << 64) | u128::from((delta as u64) ^ Self::SIGN_FLIP));
    }

    fn into_sorted(mut self) -> Vec<u128> {
        self.keys.sort_unstable();
        self.keys
    }

    fn decode(key: u128) -> (u64, i64) {
        ((key >> 64) as u64, ((key as u64) ^ Self::SIGN_FLIP) as i64)
    }
}

/// Replays `plan` for `graph` on the architecture `config`.
///
/// # Errors
///
/// Returns the first [`SimError`] describing why the plan is invalid;
/// see the module docs for the validated constraints.
///
/// # Examples
///
/// ```
/// use paraconv_graph::examples;
/// use paraconv_pim::{simulate, ExecutionPlan, PimConfig, PlannedTask, PeId};
///
/// // A single-node graph needs one planned instance and no transfers.
/// let g = examples::chain(1);
/// let cfg = PimConfig::neurocube(16)?;
/// let mut plan = ExecutionPlan::new(1);
/// plan.push_task(PlannedTask {
///     node: g.node_ids().next().unwrap(),
///     iteration: 1,
///     pe: PeId::new(0),
///     start: 0,
///     duration: 1,
/// });
/// let report = simulate(&g, &plan, &cfg)?;
/// assert_eq!(report.total_time, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn simulate(
    graph: &TaskGraph,
    plan: &ExecutionPlan,
    config: &PimConfig,
) -> Result<SimReport, SimError> {
    let _span = paraconv_obs::span("pim.simulate", "pim");
    simulate_streaming(graph, plan, config)
        .map_or_else(|| simulate_reference(graph, plan, config), Ok)
}

/// What a replay pass measured: everything [`report`] needs besides
/// the plan and the configuration.
struct Tally {
    /// Per-PE busy time.
    busy: Vec<u64>,
    makespan: u64,
    transfer_energy: u64,
    offchip_fetches: u64,
    onchip_hits: u64,
    offchip_units: u64,
    onchip_units: u64,
    peak_cache: u64,
    peak_fifo: usize,
    peak_vault_concurrency: usize,
    peak_vault_fetches: u64,
}

// ---- streaming pass ------------------------------------------------------

/// Per-edge constants the streaming pass looks up for every transfer.
struct EdgeFacts {
    src: usize,
    dst: usize,
    /// Execution time of the producer, for its finish time.
    src_exec: u64,
    size: u64,
    vault: usize,
}

/// Occupancy deltas per lane and time unit. Count lanes live in rows
/// of `width` (time-major, so plan-order writes stay local): one
/// exclusivity lane per PE, one iFIFO lane per PE, one lane per vault.
/// The cache lane holds capacity units and has its own column.
struct Buckets {
    width: usize,
    counts: Vec<i16>,
    cache: Vec<i64>,
    /// Rows the memory budget allows.
    max_rows: usize,
}

impl Buckets {
    /// Buckets for times `0..rows` (zeroed lazily by the allocator), and
    /// a budget of `max_rows`.
    fn new(width: usize, rows: usize, max_rows: usize) -> Self {
        Buckets {
            width,
            counts: vec![0; rows * width],
            cache: vec![0; rows],
            max_rows,
        }
    }

    /// Makes time `t` addressable, growing by whole rows. `None` past
    /// the memory budget.
    fn reach(&mut self, t: u64) -> Option<()> {
        let rows = usize::try_from(t).ok()?.checked_add(1)?;
        if rows > self.cache.len() {
            if rows > self.max_rows {
                return None;
            }
            self.cache.resize(rows, 0);
            self.counts.resize(rows * self.width, 0);
        }
        Some(())
    }

    /// Adds `delta` to count lane `lane` at time `t` (already reached).
    /// `None` if the bucket would leave the `i16` range.
    fn add(&mut self, t: u64, lane: usize, delta: i16) -> Option<()> {
        let slot = self.counts.get_mut(t as usize * self.width + lane)?;
        *slot = slot.checked_add(delta)?;
        Some(())
    }

    /// Adds `delta` capacity units to the cache lane at time `t`.
    fn add_cache(&mut self, t: u64, delta: i64) -> Option<()> {
        let slot = self.cache.get_mut(t as usize)?;
        *slot = slot.checked_add(delta)?;
        Some(())
    }

    /// Scans every count lane once: the per-lane peaks, or `None` if a
    /// running occupancy ever exceeds its lane's limit. Within one time
    /// unit the per-event sweep applies releases before acquisitions,
    /// so its running value there never exceeds the larger of the
    /// values before and after the unit — the two this scan checks.
    fn count_peaks(&self, limits: &[i32]) -> Option<Vec<i32>> {
        let mut running = vec![0i32; self.width];
        let mut peaks = vec![0i32; self.width];
        for row in self.counts.chunks_exact(self.width) {
            let mut over = false;
            for (((run, peak), &delta), &limit) in
                running.iter_mut().zip(&mut peaks).zip(row).zip(limits)
            {
                *run += i32::from(delta);
                *peak = (*peak).max(*run);
                over |= *run > limit;
            }
            if over {
                return None;
            }
        }
        Some(peaks)
    }

    /// Scans the cache lane once: its peak, or `None` above `capacity`.
    fn cache_peak(&self, capacity: i64) -> Option<i64> {
        let mut occupancy = 0i64;
        let mut peak = 0i64;
        for &delta in &self.cache {
            occupancy = occupancy.checked_add(delta)?;
            if occupancy > capacity {
                return None;
            }
            peak = peak.max(occupancy);
        }
        Some(peak)
    }
}

/// Index of `iteration` in `1..=iterations`, zero-based.
fn iteration_row(iteration: u64, iterations: usize) -> Option<usize> {
    usize::try_from(iteration.checked_sub(1)?)
        .ok()
        .filter(|&row| row < iterations)
}

/// The streaming pass alone, without the reference pass: the report
/// when it accepts `plan`, `None` on any violation or any plan it does
/// not cover, leaving the diagnosis to the reference pass. Emits
/// nothing to the obs layer until it accepts. Exposed for differential
/// tests.
#[doc(hidden)]
#[must_use]
pub fn simulate_streaming(
    graph: &TaskGraph,
    plan: &ExecutionPlan,
    config: &PimConfig,
) -> Option<SimReport> {
    let cost = CostModel::new(config, graph.edge_count());
    let tasks = plan.tasks();
    let transfers = plan.transfers();
    let nodes = graph.node_count();
    let edges = graph.edge_count();
    let num_pes = config.num_pes();
    let vaults = config.vaults();

    // One entry per instance of `1..=iterations`: with every entry
    // unique and in range, coverage of tasks and of every consumer's
    // inputs follows from the counts alone.
    let iterations = usize::try_from(plan.iterations()).ok()?;
    if nodes.checked_mul(iterations)? != tasks.len()
        || edges.checked_mul(iterations)? != transfers.len()
        || i32::try_from(tasks.len().max(transfers.len())).is_err()
    {
        return None;
    }

    let exec: Vec<u64> = graph.nodes().map(TaskNode::exec_time).collect();
    let mut failed = vec![false; num_pes];
    for &pe in config.failed_pes() {
        *failed.get_mut(pe as usize)? = true;
    }
    let mut facts = Vec::with_capacity(edges);
    for ipr in graph.edges() {
        facts.push(EdgeFacts {
            src: ipr.src().index(),
            dst: ipr.dst().index(),
            src_exec: *exec.get(ipr.src().index())?,
            size: ipr.size(),
            vault: ipr.id().index() % vaults,
        });
    }

    let width = 2 * num_pes + vaults;
    let row_bytes = width * std::mem::size_of::<i16>() + std::mem::size_of::<i64>();
    let max_rows = transfers
        .len()
        .saturating_mul(EVENT_BYTES_PER_TRANSFER)
        .saturating_add(BUCKET_FLOOR_BYTES)
        / row_bytes;
    // Plans end roughly where their last entries do: allocating that far
    // up front spares most of the incremental growth.
    let end = |start: u64, duration: u64| start.checked_add(duration);
    let hint = tasks.last().and_then(|t| end(t.start, t.duration));
    let hint = hint.max(transfers.last().and_then(|x| end(x.start, x.duration)));
    let rows = hint.map_or(0, |t| {
        usize::try_from(t).map_or(usize::MAX, |t| t.saturating_add(1))
    });
    let mut buckets = Buckets::new(width, rows.min(max_rows), max_rows);

    // ---- tasks: (start, PE) per instance, iteration-major ------------------
    const ABSENT: u64 = u64::MAX;
    let mut instances: Vec<(u64, u32)> = vec![(ABSENT, 0); tasks.len()];
    let mut busy = vec![0u64; num_pes];
    let mut makespan = 0u64;
    for t in tasks {
        let node = t.node.index();
        let pe = t.pe.index();
        if *exec.get(node)? != t.duration || t.duration == 0 || *failed.get(pe)? {
            return None;
        }
        let finish = t.start.checked_add(t.duration)?;
        let slot = instances.get_mut(iteration_row(t.iteration, iterations)? * nodes + node)?;
        if slot.0 != ABSENT {
            return None;
        }
        *slot = (t.start, pe as u32);
        buckets.reach(finish)?;
        buckets.add(t.start, pe, 1)?;
        buckets.add(finish, pe, -1)?;
        *busy.get_mut(pe)? += t.duration;
        makespan = makespan.max(finish);
    }

    // ---- transfers ---------------------------------------------------------
    let mut seen = vec![false; transfers.len()];
    let mut vault_fetches = vec![0u64; vaults];
    let mut transfer_energy = 0u64;
    let (mut onchip_hits, mut onchip_units) = (0u64, 0u64);
    let (mut offchip_fetches, mut offchip_units) = (0u64, 0u64);
    for x in transfers {
        let edge = x.edge.index();
        let f = facts.get(edge)?;
        let dst = x.dst_pe.index();
        // A zero-length transfer's release and acquisition would share a
        // time unit, where the per-event sweep dips below zero in
        // flight. Positive sizes and cache costs make such a transfer
        // too short anyway; refusing it here keeps the buckets exact
        // without leaning on that.
        if dst >= num_pes || x.duration == 0 {
            return None;
        }
        let finish = x.start.checked_add(x.duration)?;
        let row = iteration_row(x.iteration, iterations)?;
        let seen = seen.get_mut(row * edges + edge)?;
        if *seen {
            return None;
        }
        *seen = true;
        // Every instance slot is filled: the task count matched and no
        // task was a duplicate or out of range.
        let (producer_start, _) = *instances.get(row * nodes + f.src)?;
        let produced = producer_start + f.src_exec;
        let (consumer_start, consumer_pe) = *instances.get(row * nodes + f.dst)?;
        if x.start < produced || finish > consumer_start || consumer_pe as usize != dst {
            return None;
        }
        buckets.reach(finish)?;
        buckets.add(x.start, num_pes + dst, 1)?;
        buckets.add(finish, num_pes + dst, -1)?;
        if x.duration < cost.transfer_time(f.size, x.placement) {
            return None;
        }
        transfer_energy += cost.transfer_energy(f.size, x.placement);
        match x.placement {
            Placement::Cache => {
                let units = i64::try_from(f.size).ok()?;
                onchip_hits += 1;
                onchip_units += f.size;
                buckets.add_cache(produced, units)?;
                buckets.add_cache(finish, -units)?;
            }
            Placement::Edram => {
                offchip_fetches += 1;
                offchip_units += f.size;
                *vault_fetches.get_mut(f.vault)? += 1;
                buckets.add(x.start, 2 * num_pes + f.vault, 1)?;
                buckets.add(finish, 2 * num_pes + f.vault, -1)?;
            }
        }
        makespan = makespan.max(finish);
    }

    // ---- one scan per lane -------------------------------------------------
    let clamp = |limit: usize| i32::try_from(limit).unwrap_or(i32::MAX);
    let mut limits = vec![1; num_pes];
    limits.resize(2 * num_pes, clamp(config.pfifo_depth()));
    limits.resize(
        width,
        config.max_vault_concurrency().map_or(i32::MAX, clamp),
    );
    let peaks = buckets.count_peaks(&limits)?;
    let peak_cache = buckets.cache_peak(i64::try_from(config.total_cache_units()).ok()?)?;
    let lane_peak = |lanes: &[i32]| lanes.iter().copied().max().unwrap_or(0) as usize;

    // Accepted: the obs totals the reference pass would have emitted
    // event by event.
    if !tasks.is_empty() {
        paraconv_obs::counter_add("pe.tasks_recorded", tasks.len() as u64);
    }
    let peak_vault_fetches = vault_fetches.iter().copied().max().unwrap_or(0);
    if offchip_fetches > 0 {
        paraconv_obs::counter_add("vault.fetches", offchip_fetches);
        paraconv_obs::counter_add("vault.units_moved", offchip_units);
        paraconv_obs::gauge_max("vault.peak_fetches", peak_vault_fetches);
    }
    if paraconv_obs::enabled() {
        for x in transfers {
            paraconv_obs::observe("sim.transfer.latency", x.duration);
        }
    }
    record_lane_events(
        2 * onchip_hits as usize,
        2 * transfers.len(),
        2 * offchip_fetches as usize,
    );

    let tally = Tally {
        busy,
        makespan,
        transfer_energy,
        offchip_fetches,
        onchip_hits,
        offchip_units,
        onchip_units,
        peak_cache: peak_cache as u64,
        peak_fifo: lane_peak(peaks.get(num_pes..2 * num_pes)?),
        peak_vault_concurrency: lane_peak(peaks.get(2 * num_pes..)?),
        peak_vault_fetches,
    };
    Some(report(plan, config, tally))
}

// ---- reference pass ------------------------------------------------------

/// Everything the reference pass accumulates before its sweeps.
struct ReplayState {
    /// Per-PE busy time.
    busy: Vec<u64>,
    vaults: VaultArray,
    transfer_energy: u64,
    offchip_fetches: u64,
    onchip_hits: u64,
    offchip_units: u64,
    onchip_units: u64,
    /// Cache-occupancy sweep events: +size at producer finish, -size
    /// at transfer completion.
    cache_lane: EventLane,
    /// Per-PE in-flight transfer events for the iFIFO check.
    fifo_lanes: Vec<EventLane>,
    /// Per-vault in-flight transfer events for the contention stat.
    vault_lanes: Vec<EventLane>,
}

impl ReplayState {
    fn new(config: &PimConfig) -> Self {
        ReplayState {
            busy: vec![0; config.num_pes()],
            vaults: VaultArray::new(config.vaults()),
            transfer_energy: 0,
            offchip_fetches: 0,
            onchip_hits: 0,
            offchip_units: 0,
            onchip_units: 0,
            cache_lane: EventLane::new(),
            fifo_lanes: (0..config.num_pes()).map(|_| EventLane::new()).collect(),
            vault_lanes: (0..config.vaults()).map(|_| EventLane::new()).collect(),
        }
    }
}

/// The per-event reference pass alone, without the streaming pass:
/// the pass that names every [`SimError`] [`simulate`]
/// returns. Exposed for differential tests.
///
/// # Errors
///
/// Exactly the errors [`simulate`] reports for a fault-free replay.
#[doc(hidden)]
pub fn simulate_reference(
    graph: &TaskGraph,
    plan: &ExecutionPlan,
    config: &PimConfig,
) -> Result<SimReport, SimError> {
    let cost = CostModel::new(config, graph.edge_count());
    let mut state = ReplayState::new(config);
    replay_exact(graph, plan, config, &cost, &mut state)?;
    let tally = sweep(plan, config, state)?;
    Ok(report(plan, config, tally))
}

/// The exact per-event pass: every task and transfer walks the full
/// check sequence individually, in plan order.
fn replay_exact(
    graph: &TaskGraph,
    plan: &ExecutionPlan,
    config: &PimConfig,
    cost: &CostModel,
    state: &mut ReplayState,
) -> Result<(), SimError> {
    let mut pes: Vec<Pe> = (0..config.num_pes())
        .map(|i| Pe::new(PeId::new(i as u32)))
        .collect();

    // ---- index and validate tasks -------------------------------------
    let mut task_index = InstanceIndex::new(graph.node_count(), plan.iterations());
    for (idx, t) in plan.tasks().iter().enumerate() {
        if t.start.checked_add(t.duration).is_none() {
            return Err(SimError::TimeOverflow {
                start: t.start,
                duration: t.duration,
            });
        }
        let node = graph
            .node(t.node)
            .map_err(|_| SimError::UnknownNode(t.node))?;
        if t.pe.index() >= config.num_pes() {
            return Err(SimError::UnknownPe(t.pe));
        }
        if config.is_pe_failed(t.pe.index() as u32) {
            return Err(SimError::TaskOnFailedPe {
                pe: t.pe,
                node: t.node,
                iteration: t.iteration,
            });
        }
        if t.duration != node.exec_time() {
            return Err(SimError::WrongTaskDuration {
                node: t.node,
                planned: t.duration,
                expected: node.exec_time(),
            });
        }
        if task_index
            .insert(t.node.index(), t.iteration, idx)
            .is_some()
        {
            return Err(SimError::DuplicateTask(t.node, t.iteration));
        }
        // lint: allow(unchecked-index) — ids are validated against the plan before the event loop starts
        match pes[t.pe.index()].record_task(t.start, t.finish()) {
            Ok(()) => {}
            Err(RecordError::EmptyInterval) => {
                return Err(SimError::EmptyTaskInterval {
                    node: t.node,
                    iteration: t.iteration,
                });
            }
            Err(RecordError::Overlap) => {
                return Err(SimError::PeConflict {
                    pe: t.pe,
                    node: t.node,
                    iteration: t.iteration,
                });
            }
        }
    }

    // ---- index and validate transfers ----------------------------------
    let mut transfer_index = InstanceIndex::new(graph.edge_count(), plan.iterations());
    for (idx, x) in plan.transfers().iter().enumerate() {
        if x.start.checked_add(x.duration).is_none() {
            return Err(SimError::TimeOverflow {
                start: x.start,
                duration: x.duration,
            });
        }
        let ipr = graph
            .edge(x.edge)
            .map_err(|_| SimError::UnknownEdge(x.edge))?;
        if x.dst_pe.index() >= config.num_pes() {
            return Err(SimError::UnknownPe(x.dst_pe));
        }
        if transfer_index
            .insert(x.edge.index(), x.iteration, idx)
            .is_some()
        {
            return Err(SimError::DuplicateTransfer(x.edge, x.iteration));
        }
        let required = cost.transfer_time(ipr.size(), x.placement);
        if x.duration < required {
            return Err(SimError::TransferTooShort {
                edge: x.edge,
                planned: x.duration,
                required,
            });
        }
        // Producer must exist and finish before the transfer starts.
        let producer = task_index
            .get(ipr.src().index(), x.iteration)
            // lint: allow(unchecked-index) — ids are validated against the plan before the event loop starts
            .map(|i| &plan.tasks()[i])
            .ok_or(SimError::MissingProducer(ipr.src(), x.iteration))?;
        if x.start < producer.finish() {
            return Err(SimError::TransferBeforeProduction(x.edge, x.iteration));
        }

        state.transfer_energy += cost.transfer_energy(ipr.size(), x.placement);
        paraconv_obs::observe("sim.transfer.latency", x.duration);
        match x.placement {
            Placement::Cache => {
                state.onchip_hits += 1;
                state.onchip_units += ipr.size();
                // Cache residency: production until the transfer drains.
                state.cache_lane.push(producer.finish(), ipr.size() as i64);
                state.cache_lane.push(x.finish(), -(ipr.size() as i64));
            }
            Placement::Edram => {
                state.offchip_fetches += 1;
                state.offchip_units += ipr.size();
                state.vaults.record_fetch(x.edge, ipr.size(), x.duration);
                let v = state.vaults.vault_of(x.edge);
                // lint: allow(unchecked-index) — ids are validated against the plan before the event loop starts
                state.vault_lanes[v].push(x.start, 1);
                // lint: allow(unchecked-index) — ids are validated against the plan before the event loop starts
                state.vault_lanes[v].push(x.finish(), -1);
            }
        }
        // lint: allow(unchecked-index) — ids are validated against the plan before the event loop starts
        state.fifo_lanes[x.dst_pe.index()].push(x.start, 1);
        // lint: allow(unchecked-index) — ids are validated against the plan before the event loop starts
        state.fifo_lanes[x.dst_pe.index()].push(x.finish(), -1);
    }

    // ---- dependency coverage -------------------------------------------
    for t in plan.tasks() {
        for &e in graph
            .in_edges(t.node)
            .map_err(|_| SimError::UnknownNode(t.node))?
        {
            let x = transfer_index
                .get(e.index(), t.iteration)
                // lint: allow(unchecked-index) — ids are validated against the plan before the event loop starts
                .map(|i| &plan.transfers()[i])
                .ok_or(SimError::MissingTransfer(e, t.iteration))?;
            if x.finish() > t.start {
                return Err(SimError::ConsumerBeforeTransfer(e, t.iteration));
            }
            if x.dst_pe != t.pe {
                return Err(SimError::WrongDestination {
                    edge: e,
                    iteration: t.iteration,
                    routed: x.dst_pe,
                    consumer: t.pe,
                });
            }
        }
    }

    // ---- completeness ------------------------------------------------------
    // The plan declares coverage of `iterations` iterations; every
    // `(node, iteration)` instance must therefore be present.
    for iter in 1..=plan.iterations() {
        for id in graph.node_ids() {
            if !task_index.contains(id.index(), iter) {
                return Err(SimError::MissingTask(id, iter));
            }
        }
    }

    for (i, pe) in pes.iter().enumerate() {
        // lint: allow(unchecked-index) — busy was sized to num_pes alongside pes
        state.busy[i] = pe.busy_time();
    }
    Ok(())
}

/// The reference pass's sorted sweeps (cache capacity, per-PE iFIFO,
/// per-vault contention), each owning its canonical error: the first
/// violating event in `(time, delta)` order.
fn sweep(plan: &ExecutionPlan, config: &PimConfig, state: ReplayState) -> Result<Tally, SimError> {
    let ReplayState {
        busy,
        vaults,
        transfer_energy,
        offchip_fetches,
        onchip_hits,
        offchip_units,
        onchip_units,
        cache_lane,
        fifo_lanes,
        vault_lanes,
    } = state;

    record_lane_events(
        cache_lane.len(),
        fifo_lanes.iter().map(EventLane::len).sum(),
        vault_lanes.iter().map(EventLane::len).sum(),
    );

    // ---- cache capacity sweep --------------------------------------------
    // Releases (-) sort before acquisitions (+) at equal times: a slot
    // freed at t is available to data produced at t.
    let capacity = config.total_cache_units();
    let mut occupancy = 0i64;
    let mut peak_cache = 0i64;
    for key in cache_lane.into_sorted() {
        let (time, delta) = EventLane::decode(key);
        occupancy += delta;
        peak_cache = peak_cache.max(occupancy);
        if occupancy > capacity as i64 {
            return Err(SimError::CacheOverflow {
                time,
                occupancy: occupancy as u64,
                capacity,
            });
        }
    }

    // ---- iFIFO sweep -------------------------------------------------------
    // The `in_flight as usize` comparison deliberately maps a dip
    // below zero to a huge in-flight count (an overflow report).
    let mut peak_fifo = 0usize;
    for (pe_index, lane) in fifo_lanes.into_iter().enumerate() {
        let depth = config.pfifo_depth();
        let mut in_flight = 0i64;
        for key in lane.into_sorted() {
            let (_, delta) = EventLane::decode(key);
            in_flight += delta;
            peak_fifo = peak_fifo.max(in_flight as usize);
            if in_flight as usize > depth {
                return Err(SimError::FifoOverflow {
                    pe: PeId::new(pe_index as u32),
                    in_flight: in_flight as usize,
                    depth,
                });
            }
        }
    }

    // ---- vault contention sweep (statistic; enforced when the
    // configuration sets a port limit) ----------------------------------------
    let mut peak_vault_concurrency = 0usize;
    for (vault, lane) in vault_lanes.into_iter().enumerate() {
        let limit = config.max_vault_concurrency();
        let mut in_flight = 0i64;
        for key in lane.into_sorted() {
            let (_, delta) = EventLane::decode(key);
            in_flight += delta;
            peak_vault_concurrency = peak_vault_concurrency.max(in_flight as usize);
            if let Some(limit) = limit {
                if in_flight as usize > limit {
                    return Err(SimError::VaultOverload {
                        vault,
                        in_flight: in_flight as usize,
                        limit,
                    });
                }
            }
        }
    }

    Ok(Tally {
        busy,
        makespan: plan.makespan(),
        transfer_energy,
        offchip_fetches,
        onchip_hits,
        offchip_units,
        onchip_units,
        peak_cache: peak_cache.max(0) as u64,
        peak_fifo,
        peak_vault_concurrency,
        peak_vault_fetches: vaults.peak_fetches(),
    })
}

// ---- shared tail ---------------------------------------------------------

/// Event-lane depths: how much sweep state the plan generates (the
/// reference pass's lane lengths; the streaming pass's counts of the
/// same events).
fn record_lane_events(cache: usize, fifo: usize, vault: usize) {
    if paraconv_obs::enabled() {
        paraconv_obs::gauge_max("sim.lane.cache_events", cache as u64);
        paraconv_obs::gauge_max("sim.lane.fifo_events", fifo as u64);
        paraconv_obs::gauge_max("sim.lane.vault_events", vault as u64);
        paraconv_obs::counter_add("sim.events", (cache + fifo + vault) as u64);
    }
}

/// Statistics, obs totals and the report of an accepted plan.
fn report(plan: &ExecutionPlan, config: &PimConfig, tally: Tally) -> SimReport {
    let Tally {
        busy,
        makespan: total_time,
        transfer_energy,
        offchip_fetches,
        onchip_hits,
        offchip_units,
        onchip_units,
        peak_cache,
        peak_fifo,
        peak_vault_concurrency,
        peak_vault_fetches,
    } = tally;
    let compute_energy: u64 = busy.iter().sum();
    let avg_pe_utilization = if config.num_pes() == 0 {
        0.0
    } else {
        busy.iter()
            .map(|&b| {
                if total_time == 0 {
                    0.0
                } else {
                    b as f64 / total_time as f64
                }
            })
            .sum::<f64>()
            / config.num_pes() as f64
    };
    let time_per_iteration = if plan.iterations() == 0 {
        0.0
    } else {
        total_time as f64 / plan.iterations() as f64
    };

    paraconv_obs::counter_add("sim.runs", 1);
    paraconv_obs::counter_add("sim.tasks", plan.tasks().len() as u64);
    paraconv_obs::counter_add("sim.transfers", plan.transfers().len() as u64);
    paraconv_obs::counter_add("sim.onchip_hits", onchip_hits);
    paraconv_obs::counter_add("sim.offchip_fetches", offchip_fetches);
    paraconv_obs::gauge_max("sim.cache.peak_occupancy", peak_cache);
    paraconv_obs::gauge_max("sim.fifo.peak_occupancy", peak_fifo as u64);
    paraconv_obs::gauge_max("sim.vault.peak_concurrency", peak_vault_concurrency as u64);
    paraconv_obs::flight_record("sim", "replay.done", total_time, plan.tasks().len() as u64);

    SimReport {
        total_time,
        iterations: plan.iterations(),
        time_per_iteration,
        offchip_fetches,
        onchip_hits,
        offchip_units_moved: offchip_units,
        onchip_units_moved: onchip_units,
        transfer_energy,
        compute_energy,
        avg_pe_utilization,
        peak_cache_occupancy: peak_cache,
        cache_capacity: config.total_cache_units(),
        peak_fifo_occupancy: peak_fifo,
        peak_vault_fetches,
        peak_vault_concurrency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PlannedTask, PlannedTransfer};
    use paraconv_graph::{EdgeId, NodeId, OpKind, TaskGraphBuilder};

    /// a -> b with an IPR of size 1.
    fn two_node_graph() -> TaskGraph {
        let mut b = TaskGraphBuilder::new("two");
        let a = b.add_node("a", OpKind::Convolution, 2);
        let z = b.add_node("z", OpKind::Convolution, 1);
        b.add_edge(a, z, 1).unwrap();
        b.build().unwrap()
    }

    fn config() -> PimConfig {
        PimConfig::neurocube(4).unwrap()
    }

    fn task(node: u32, iter: u64, pe: u32, start: u64, dur: u64) -> PlannedTask {
        PlannedTask {
            node: NodeId::new(node),
            iteration: iter,
            pe: PeId::new(pe),
            start,
            duration: dur,
        }
    }

    fn xfer(
        edge: u32,
        iter: u64,
        placement: Placement,
        start: u64,
        dur: u64,
        dst: u32,
    ) -> PlannedTransfer {
        PlannedTransfer {
            edge: EdgeId::new(edge),
            iteration: iter,
            placement,
            start,
            duration: dur,
            dst_pe: PeId::new(dst),
        }
    }

    /// A valid plan for the two-node graph: a on PE0 [0,2), transfer
    /// via cache [2,3), b on PE1 [3,4).
    fn valid_plan() -> ExecutionPlan {
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 2));
        plan.push_transfer(xfer(0, 1, Placement::Cache, 2, 1, 1));
        plan.push_task(task(1, 1, 1, 3, 1));
        plan
    }

    /// `iters` repetitions of `valid_plan`'s block, each shifted
    /// `period` later: the shape every retimed schedule has.
    fn periodic_plan(iters: u64, period: u64) -> ExecutionPlan {
        let mut plan = ExecutionPlan::new(iters);
        for i in 0..iters {
            let s = i * period;
            plan.push_task(task(0, i + 1, 0, s, 2));
            plan.push_transfer(xfer(0, i + 1, Placement::Cache, s + 2, 1, 1));
            plan.push_task(task(1, i + 1, 1, s + 3, 1));
        }
        plan
    }

    #[test]
    fn valid_plan_simulates() {
        let report = simulate(&two_node_graph(), &valid_plan(), &config()).unwrap();
        assert_eq!(report.total_time, 4);
        assert_eq!(report.onchip_hits, 1);
        assert_eq!(report.offchip_fetches, 0);
        assert_eq!(report.compute_energy, 3);
        assert_eq!(report.peak_cache_occupancy, 1);
    }

    #[test]
    fn edram_transfer_counts_offchip() {
        let g = two_node_graph();
        let cfg = config();
        let edram_time = CostModel::new(&cfg, g.edge_count()).edram_transfer_time(1);
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 2));
        plan.push_transfer(xfer(0, 1, Placement::Edram, 2, edram_time, 1));
        plan.push_task(task(1, 1, 1, 2 + edram_time, 1));
        let report = simulate(&g, &plan, &cfg).unwrap();
        assert_eq!(report.offchip_fetches, 1);
        assert_eq!(report.onchip_hits, 0);
        assert_eq!(report.peak_vault_fetches, 1);
        assert!(report.transfer_energy >= cfg.edram_penalty());
    }

    #[test]
    fn detects_pe_conflict() {
        let g = two_node_graph();
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 2));
        plan.push_transfer(xfer(0, 1, Placement::Cache, 2, 1, 0));
        // b overlaps a on the same PE.
        plan.push_task(task(1, 1, 0, 1, 1));
        assert!(matches!(
            simulate(&g, &plan, &config()).unwrap_err(),
            SimError::PeConflict { .. }
        ));
    }

    #[test]
    fn detects_missing_transfer() {
        let g = two_node_graph();
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 2));
        plan.push_task(task(1, 1, 1, 3, 1));
        assert_eq!(
            simulate(&g, &plan, &config()).unwrap_err(),
            SimError::MissingTransfer(EdgeId::new(0), 1)
        );
    }

    #[test]
    fn detects_missing_producer() {
        let g = two_node_graph();
        let mut plan = ExecutionPlan::new(1);
        plan.push_transfer(xfer(0, 1, Placement::Cache, 2, 1, 1));
        plan.push_task(task(1, 1, 1, 3, 1));
        assert_eq!(
            simulate(&g, &plan, &config()).unwrap_err(),
            SimError::MissingProducer(NodeId::new(0), 1)
        );
    }

    #[test]
    fn detects_transfer_before_production() {
        let g = two_node_graph();
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 2));
        plan.push_transfer(xfer(0, 1, Placement::Cache, 1, 1, 1));
        plan.push_task(task(1, 1, 1, 3, 1));
        assert_eq!(
            simulate(&g, &plan, &config()).unwrap_err(),
            SimError::TransferBeforeProduction(EdgeId::new(0), 1)
        );
    }

    #[test]
    fn detects_consumer_before_transfer() {
        let g = two_node_graph();
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 2));
        plan.push_transfer(xfer(0, 1, Placement::Cache, 2, 1, 1));
        plan.push_task(task(1, 1, 1, 2, 1));
        assert_eq!(
            simulate(&g, &plan, &config()).unwrap_err(),
            SimError::ConsumerBeforeTransfer(EdgeId::new(0), 1)
        );
    }

    #[test]
    fn detects_wrong_destination() {
        let g = two_node_graph();
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 2));
        plan.push_transfer(xfer(0, 1, Placement::Cache, 2, 1, 3));
        plan.push_task(task(1, 1, 1, 3, 1));
        assert!(matches!(
            simulate(&g, &plan, &config()).unwrap_err(),
            SimError::WrongDestination { .. }
        ));
    }

    #[test]
    fn detects_wrong_task_duration() {
        let g = two_node_graph();
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 5));
        assert_eq!(
            simulate(&g, &plan, &config()).unwrap_err(),
            SimError::WrongTaskDuration {
                node: NodeId::new(0),
                planned: 5,
                expected: 2
            }
        );
    }

    #[test]
    fn detects_short_transfer() {
        let g = two_node_graph();
        let cfg = config();
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 2));
        plan.push_transfer(xfer(0, 1, Placement::Edram, 2, 1, 1)); // needs 4
        plan.push_task(task(1, 1, 1, 10, 1));
        assert!(matches!(
            simulate(&g, &plan, &cfg).unwrap_err(),
            SimError::TransferTooShort { .. }
        ));
    }

    #[test]
    fn detects_duplicate_task() {
        let g = two_node_graph();
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 2));
        plan.push_task(task(0, 1, 1, 5, 2));
        assert_eq!(
            simulate(&g, &plan, &config()).unwrap_err(),
            SimError::DuplicateTask(NodeId::new(0), 1)
        );
    }

    #[test]
    fn detects_unknown_pe() {
        let g = two_node_graph();
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 99, 0, 2));
        assert_eq!(
            simulate(&g, &plan, &config()).unwrap_err(),
            SimError::UnknownPe(PeId::new(99))
        );
    }

    #[test]
    fn detects_cache_overflow() {
        // One producer feeding many cached consumers concurrently, with
        // a tiny cache.
        let mut b = TaskGraphBuilder::new("fanout");
        let src = b.add_node("s", OpKind::Convolution, 1);
        let sinks: Vec<NodeId> = (0..3)
            .map(|i| b.add_node(format!("k{i}"), OpKind::Convolution, 1))
            .collect();
        for &k in &sinks {
            b.add_edge(src, k, 2).unwrap();
        }
        let g = b.build().unwrap();
        let cfg = PimConfig::builder(4).per_pe_cache_units(1).build().unwrap(); // capacity 4 < 6
        let mut plan = ExecutionPlan::new(1);
        plan.push_task(task(0, 1, 0, 0, 1));
        for (i, &k) in sinks.iter().enumerate() {
            plan.push_transfer(xfer(i as u32, 1, Placement::Cache, 1, 2, (i + 1) as u32));
            plan.push_task(PlannedTask {
                node: k,
                iteration: 1,
                pe: PeId::new((i + 1) as u32),
                start: 3,
                duration: 1,
            });
        }
        assert!(matches!(
            simulate(&g, &plan, &cfg).unwrap_err(),
            SimError::CacheOverflow { .. }
        ));
    }

    #[test]
    fn vault_port_limit_enforced_when_configured() {
        // Two eDRAM transfers of the same edge class overlapping on
        // one vault: fine by default, rejected with a limit of 1.
        let mut b = TaskGraphBuilder::new("two-sinks");
        let src = b.add_node("s", OpKind::Convolution, 1);
        let k0 = b.add_node("k0", OpKind::Convolution, 1);
        let k1 = b.add_node("k1", OpKind::Convolution, 1);
        // One vault so both transfers share it.
        b.add_edge(src, k0, 1).unwrap();
        b.add_edge(src, k1, 1).unwrap();
        let g = b.build().unwrap();
        let mk = |limit: Option<usize>| {
            let builder = PimConfig::builder(4).vaults(1);
            match limit {
                Some(l) => builder.max_vault_concurrency(l).build().unwrap(),
                None => builder.build().unwrap(),
            }
        };
        let plan = {
            let mut plan = ExecutionPlan::new(1);
            plan.push_task(task(0, 1, 0, 0, 1));
            plan.push_transfer(xfer(0, 1, Placement::Edram, 1, 4, 1));
            plan.push_transfer(xfer(1, 1, Placement::Edram, 1, 4, 2));
            plan.push_task(task(1, 1, 1, 5, 1));
            plan.push_task(task(2, 1, 2, 5, 1));
            plan
        };
        let relaxed = simulate(&g, &plan, &mk(None)).unwrap();
        assert_eq!(relaxed.peak_vault_concurrency, 2);
        assert!(matches!(
            simulate(&g, &plan, &mk(Some(1))).unwrap_err(),
            SimError::VaultOverload {
                in_flight: 2,
                limit: 1,
                ..
            }
        ));
        assert!(simulate(&g, &plan, &mk(Some(2))).is_ok());
    }

    #[test]
    fn rejects_tasks_on_failed_pes() {
        let g = two_node_graph();
        let cfg = PimConfig::builder(4).failed_pes(vec![0]).build().unwrap();
        // valid_plan places the producer on PE0, now marked dead.
        assert!(matches!(
            simulate(&g, &valid_plan(), &cfg).unwrap_err(),
            SimError::TaskOnFailedPe { .. }
        ));
        // The same plan on a machine where only PE3 failed is fine.
        let cfg = PimConfig::builder(4).failed_pes(vec![3]).build().unwrap();
        assert!(simulate(&g, &valid_plan(), &cfg).is_ok());
    }

    #[test]
    fn utilization_and_throughput_reported() {
        let report = simulate(&two_node_graph(), &valid_plan(), &config()).unwrap();
        // 3 busy units over 4 PEs × 4 time units.
        assert!((report.avg_pe_utilization - 3.0 / 16.0).abs() < 1e-9);
        assert!((report.throughput() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn streaming_replay_matches_per_event_replay() {
        let g = two_node_graph();
        let cfg = config();
        let periodic = periodic_plan(4, 10);
        // The same instances pushed in reverse iteration order. Valid
        // plans are order-insensitive, so the streaming pass on either
        // order and the reference pass must agree field for field.
        let mut scrambled = ExecutionPlan::new(4);
        for i in (0..4u64).rev() {
            let s = i * 10;
            scrambled.push_task(task(0, i + 1, 0, s, 2));
            scrambled.push_transfer(xfer(0, i + 1, Placement::Cache, s + 2, 1, 1));
            scrambled.push_task(task(1, i + 1, 1, s + 3, 1));
        }
        let streamed = simulate_streaming(&g, &periodic, &cfg).unwrap();
        assert_eq!(
            simulate_streaming(&g, &scrambled, &cfg),
            Some(streamed.clone())
        );
        assert_eq!(
            simulate_reference(&g, &scrambled, &cfg),
            Ok(streamed.clone())
        );
        assert_eq!(simulate(&g, &periodic, &cfg), Ok(streamed.clone()));
        assert_eq!(streamed.onchip_hits, 4);
        assert_eq!(streamed.compute_energy, 12);
    }

    #[test]
    fn streaming_edram_plan_matches_per_event_replay() {
        let g = two_node_graph();
        let cfg = config();
        let edram_time = CostModel::new(&cfg, g.edge_count()).edram_transfer_time(1);
        let period = edram_time + 4;
        let build = |rev: bool| {
            let mut plan = ExecutionPlan::new(3);
            let order: Vec<u64> = if rev {
                (0..3).rev().collect()
            } else {
                (0..3).collect()
            };
            for i in order {
                let s = i * period;
                plan.push_task(task(0, i + 1, 0, s, 2));
                plan.push_transfer(xfer(0, i + 1, Placement::Edram, s + 2, edram_time, 1));
                plan.push_task(task(1, i + 1, 1, s + 2 + edram_time, 1));
            }
            plan
        };
        let streamed = simulate_streaming(&g, &build(false), &cfg).unwrap();
        let exact = simulate_reference(&g, &build(true), &cfg).unwrap();
        assert_eq!(streamed, exact);
        assert_eq!(streamed.offchip_fetches, 3);
        assert_eq!(streamed.peak_vault_fetches, 3);
    }

    #[test]
    fn overlap_in_repeated_blocks_reports_the_first_conflict() {
        // Period 1 < the producer's duration 2: blocks repeat exactly,
        // yet consecutive producer instances overlap on PE0. The
        // streaming pass rejects the plan and the canonical first
        // error (plan order) must come back.
        let err = simulate(&two_node_graph(), &periodic_plan(4, 1), &config()).unwrap_err();
        assert_eq!(
            err,
            SimError::PeConflict {
                pe: PeId::new(0),
                node: NodeId::new(0),
                iteration: 2,
            }
        );
    }

    #[test]
    fn mutated_block_in_a_periodic_plan_is_revalidated() {
        // Break one instance deep into the plan: wrong duration at
        // iteration 3. The streaming pass rejects it and the reference
        // pass must name the structural error.
        let g = two_node_graph();
        let mut plan = ExecutionPlan::new(4);
        for i in 0..4u64 {
            let s = i * 10;
            let dur = if i == 2 { 5 } else { 2 };
            plan.push_task(task(0, i + 1, 0, s, dur));
            plan.push_transfer(xfer(0, i + 1, Placement::Cache, s + 2, 1, 1));
            plan.push_task(task(1, i + 1, 1, s + 3, 1));
        }
        assert_eq!(
            simulate(&g, &plan, &config()).unwrap_err(),
            SimError::WrongTaskDuration {
                node: NodeId::new(0),
                planned: 5,
                expected: 2
            }
        );
    }

    #[test]
    fn mutated_transfer_block_is_revalidated() {
        // Tasks stay periodic but iteration 3's transfer routes to the
        // wrong PE: the dependency pass must still flag it.
        let g = two_node_graph();
        let mut plan = ExecutionPlan::new(4);
        for i in 0..4u64 {
            let s = i * 10;
            let dst = if i == 2 { 2 } else { 1 };
            plan.push_task(task(0, i + 1, 0, s, 2));
            plan.push_transfer(xfer(0, i + 1, Placement::Cache, s + 2, 1, dst));
            plan.push_task(task(1, i + 1, 1, s + 3, 1));
        }
        assert_eq!(
            simulate(&g, &plan, &config()).unwrap_err(),
            SimError::WrongDestination {
                edge: EdgeId::new(0),
                iteration: 3,
                routed: PeId::new(2),
                consumer: PeId::new(1),
            }
        );
    }

    #[test]
    fn repeated_blocks_accumulate_cache_occupancy() {
        // Long cache residency windows from repeated blocks stack up:
        // with period 2 and residency length 10, five windows overlap,
        // exceeding a capacity-4 cache: the streaming pass's cache
        // lane must see the overflow and leave it to the reference.
        let g = two_node_graph();
        let cfg = PimConfig::builder(4).per_pe_cache_units(1).build().unwrap();
        let mut plan = ExecutionPlan::new(6);
        for i in 0..6u64 {
            let s = i * 2;
            plan.push_task(task(0, i + 1, 0, s, 2));
            plan.push_transfer(xfer(0, i + 1, Placement::Cache, s + 2, 10, 1));
            plan.push_task(task(1, i + 1, 1, s + 13, 1));
        }
        assert!(simulate_streaming(&g, &plan, &cfg).is_none());
        assert!(matches!(
            simulate(&g, &plan, &cfg).unwrap_err(),
            SimError::CacheOverflow { .. }
        ));
    }
}
