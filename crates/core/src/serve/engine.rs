//! Deterministic discrete-event serving engine.
//!
//! [`EventEngine`] replaces the eager per-job simulation of
//! [`super::Server::submit`] with an event loop over a virtual clock.
//! Five event kinds — arrival, rebalance, dispatch, compile-finish,
//! launch-finish (plus optional checkpoint ticks) — are totally ordered
//! by the key `(virtual_time, tenant, seq)`, so two runs over the same
//! trace pop the queue in exactly the same order and the whole run is
//! bit-reproducible regardless of wall-clock thread scheduling.
//!
//! **Overlap.** The eager server pays every cache-miss compilation
//! inline: while the degradation ladder runs, nothing else is served.
//! The engine instead claims the cache key with a *reservation*
//! ([`super::cache::Lookup::Miss`]), hands the ladder to a bounded
//! worker pool, and keeps processing events — cache-hit tenants launch
//! while the miss compiles. Each worker's search carries an armed
//! [`SearchInterrupt`], so a compile the engine must give up on (the
//! trace errored out) collapses to the serial rung instead of holding a
//! thread hostage.
//!
//! **Equivalence.** Per-job results are byte-identical to the eager
//! path, by construction rather than by luck:
//!
//! * Arrivals are processed in `(time, tenant, seq)` order — exactly
//!   the order the differential tests feed the eager server.
//! * Compile options and run placement come from the same helpers
//!   ([`super::pipeline_options_for`], [`super::run_artifact`]) on both
//!   paths, so the cache addresses identical content.
//! * Virtual-time bookkeeping (`start = max(arrival, busy_until)`,
//!   `finish = start + compile_penalty + exec`) uses the same formulas;
//!   a pending compile's job is *completed* — inflight entry pushed,
//!   busy horizon advanced — before any later same-tenant dispatch
//!   reads that state, which is when the eager path would have had it.
//! * All metric accumulation is order-insensitive (sums, plus
//!   percentiles over sorted copies), so late completions cannot skew
//!   the report.
//!
//! The one intentional divergence: the engine records EWMA arrival
//! observations at arrival-event dequeue with the event's own
//! timestamp, where the eager server clamps out-of-order arrivals to
//! its monotone clock. For sorted traces the two coincide (the
//! differential guarantee); for out-of-order submission the engine is
//! the correct one (see
//! `partition::tests::recut_log_locks_the_sequence_...`).
//!
//! The trace of processed events is exposed via
//! [`EventEngine::trace`]; the report adds
//! [`ServeMetrics::compile_overlap_secs`] — the intersection of each
//! compile-penalty window with the union of *other* tenants' execution
//! intervals — and a queue-wait p99 per tenant.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::thread::JoinHandle;

use serde::Serialize;

use crate::pipeline::{FaultPolicy, PipelineOptions, ResilientCompiled, ResilientPipeline};
use crate::schedule::SearchInterrupt;
use crate::serve::cache::{verify_artifact, CacheStats, CompilationCache, Lookup};
use crate::serve::metrics::{ServeMetrics, ServeReport, TenantReport};
use crate::serve::partition::{Partitioner, Slice};
use crate::serve::resilience::{BrownoutSpec, ControllerDecision, FaultController};
use crate::serve::{
    pipeline_options_for, run_artifact, AdmissionController, Decision, Job, JobResult, Pressure,
    QosClass, ServeOptions, TenantState, Verdict,
};
use crate::{Error, Result};
use streamir::graph::FlatGraph;

/// The kind of a processed event, for the audit trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum EventKind {
    /// A job arrived: demand recorded, rebalance/dispatch scheduled.
    Arrival,
    /// The partition was recut from the current demand estimates.
    Rebalance,
    /// Admission decided and the job was served (or rejected).
    Dispatch,
    /// A cache-miss compilation's virtual penalty window closed.
    CompileFinish,
    /// A job's service finished (virtual time).
    LaunchFinish,
    /// A periodic observability tick (when enabled).
    Checkpoint,
    /// The resilience controller switched a tenant's fault policy and
    /// the recompile was pre-spawned on the worker pool.
    PolicySwitch,
    /// A device brownout shrank (or restored) the usable SM range and
    /// forced a partition recut.
    Brownout,
}

/// One processed event, in processing order.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceEvent {
    /// The event's own virtual timestamp. Launch/compile-finish events
    /// are scheduled once their instant is known, which can be after
    /// the clock passed it; the processing order (this log's order)
    /// stays total because their handlers are order-insensitive.
    pub time_secs: f64,
    /// The tenant the event belongs to (empty for checkpoints).
    pub tenant: String,
    /// Tie-break sequence within `(time, tenant)`.
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// Human-readable detail (admission verdict, cache outcome, ...).
    pub detail: String,
}

/// Events are strided 8 apart per arrival so an arrival's children
/// (rebalance at `+1`, dispatch at `+2`, finishes at `+3`/`+4`) sort
/// between it and the next same-instant arrival.
const SEQ_STRIDE: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvKind {
    Arrival(usize),
    Rebalance,
    Dispatch(usize),
    CompileFinish,
    LaunchFinish,
    Checkpoint,
    /// Carries the index of the job whose completion triggered the
    /// switch — its graph is what gets recompiled under the new policy.
    PolicySwitch(usize),
    /// Carries the post-brownout device capacity in SMs.
    Brownout(u32),
}

#[derive(Debug, Clone)]
struct Ev {
    time: f64,
    tenant: String,
    seq: u64,
    kind: EvKind,
}

impl Ev {
    /// The total order key: virtual time, then tenant name, then
    /// sequence number. `total_cmp` keeps NaN-free floats totally
    /// ordered without panics.
    fn key_cmp(&self, other: &Ev) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.tenant.cmp(&other.tenant))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

impl PartialEq for Ev {
    fn eq(&self, other: &Ev) -> bool {
        self.key_cmp(other) == Ordering::Equal
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Ev) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    // Reversed: BinaryHeap is a max-heap and we pop the smallest key.
    fn cmp(&self, other: &Ev) -> Ordering {
        other.key_cmp(self)
    }
}

/// A ladder compile in flight on the worker pool.
struct PendingCompile {
    key: u64,
    interrupt: SearchInterrupt,
    handle: JoinHandle<Result<ResilientCompiled>>,
}

impl PendingCompile {
    fn join(self) -> Result<ResilientCompiled> {
        self.handle
            .join()
            .unwrap_or_else(|_| Err(Error::Api("compile worker panicked".into())))
    }
}

/// A dispatched cache-miss job awaiting its compile.
struct PendingJob {
    key: u64,
    /// The options the job's compile was reserved under (for the
    /// content guard in [`EventEngine::compiled_for`]).
    popts: PipelineOptions,
    slice: Slice,
    /// The job's clamped arrival instant — `start` is computed against
    /// *this*, not against the clock at resolution time.
    arrival: f64,
}

/// One completed job's virtual service record, for overlap accounting.
struct CompletedJob {
    tenant: String,
    start: f64,
    compile_cost: f64,
    finish: f64,
}

/// Per-trace transient state: the event queue, the worker pool, and the
/// resolution bookkeeping.
struct RunState {
    jobs: Vec<Job>,
    results: Vec<Option<Verdict>>,
    heap: BinaryHeap<Ev>,
    /// Compiles in flight, in spawn order (the pool bound joins the
    /// oldest first — deterministic, unlike completion order).
    pending: Vec<PendingCompile>,
    /// Cache-miss jobs awaiting completion, FIFO per tenant.
    tenant_queue: BTreeMap<String, VecDeque<usize>>,
    job_meta: HashMap<usize, PendingJob>,
    /// Artifacts already joined and fulfilled, by cache key.
    ready: HashMap<u64, ResilientCompiled>,
    /// Sequence counter for events scheduled after the arrival block.
    aux_seq: u64,
}

impl RunState {
    fn next_seq(&mut self) -> u64 {
        self.aux_seq += 1;
        self.aux_seq
    }
}

/// The deterministic discrete-event serving engine.
pub struct EventEngine {
    opts: ServeOptions,
    /// The one device this engine schedules onto, as a value.
    device: gpusim::Device,
    cache: CompilationCache,
    partitioner: Partitioner,
    admission: AdmissionController,
    tenants: BTreeMap<String, TenantState>,
    now: f64,
    first_arrival: Option<f64>,
    last_finish: f64,
    workers: usize,
    checkpoint_period_secs: f64,
    trace: Vec<TraceEvent>,
    completed: Vec<CompletedJob>,
    controller: FaultController,
    brownouts: Vec<BrownoutSpec>,
    /// Artifacts dispatched, and the subset carrying a verified
    /// isolation certificate (see [`super::run_artifact`]).
    artifacts: u64,
    certified: u64,
}

impl EventEngine {
    /// A fresh engine over `opts.device` with a default 4-worker
    /// compile pool and no checkpoint ticks.
    #[must_use]
    pub fn new(opts: ServeOptions) -> EventEngine {
        let device = opts.device_value();
        let cache = CompilationCache::new(opts.cache.clone());
        let partitioner = Partitioner::new(device.config.num_sms, opts.rate_alpha);
        let admission = AdmissionController::new(opts.max_queue);
        let controller = FaultController::new(
            opts.resilience.clone(),
            opts.timing.clone(),
            opts.retry_warn_threshold,
        );
        EventEngine {
            opts,
            device,
            cache,
            partitioner,
            admission,
            tenants: BTreeMap::new(),
            now: 0.0,
            first_arrival: None,
            last_finish: 0.0,
            workers: 4,
            checkpoint_period_secs: 0.0,
            trace: Vec::new(),
            completed: Vec::new(),
            controller,
            brownouts: Vec::new(),
            artifacts: 0,
            certified: 0,
        }
    }

    /// Bounds the compile worker pool at `n` concurrent ladders
    /// (floored at 1). Spawning past the bound joins the *oldest*
    /// in-flight compile — a deterministic choice, unlike waiting on
    /// whichever thread happens to finish first.
    #[must_use]
    pub fn with_workers(mut self, n: usize) -> EventEngine {
        self.workers = n.max(1);
        self
    }

    /// Pre-compiles `graphs` into this engine's cache at every
    /// plausible slice width for up to `max_tenants` tenants, under
    /// both fault policies (see [`super::warm::warm_cache`]). Call
    /// before [`EventEngine::serve_trace`] to take first-submission
    /// compiles off the serving path; statistics are reset so the
    /// subsequent trace reports its own hit rate.
    pub fn warm(&mut self, graphs: &[FlatGraph], max_tenants: usize) -> super::warm::WarmReport {
        super::warm::warm_cache(&mut self.cache, &self.opts, graphs, max_tenants)
    }

    /// Enables periodic checkpoint events every `secs` of virtual time
    /// (disabled when `secs <= 0`). Checkpoints are observability
    /// ticks: they snapshot the completed-job count into the trace and
    /// never touch serving state.
    #[must_use]
    pub fn with_checkpoint_period(mut self, secs: f64) -> EventEngine {
        self.checkpoint_period_secs = secs;
        self
    }

    /// Schedules a device brownout: at `spec.at_secs` of virtual time
    /// the usable SM range shrinks to `spec.total_sms` and the
    /// partition is recut into it. Later dispatches see the smaller
    /// slices, so their compiles are content-addressed at the new
    /// widths. May be called several times (e.g. brownout then
    /// recovery).
    #[must_use]
    pub fn with_brownout(mut self, spec: BrownoutSpec) -> EventEngine {
        self.brownouts.push(spec);
        self
    }

    /// Serves a whole arrival trace and returns one verdict per input
    /// job, in input order. The trace need not be sorted: events are
    /// ordered by `(arrival, tenant, input index)` internally, which is
    /// also where the engine fixes the eager server's simulation-time
    /// EWMA distortion for out-of-order submission.
    ///
    /// # Errors
    ///
    /// Compilation or execution errors, and [`crate::Error::Api`] when
    /// the tenant population would exceed one tenant per SM. On error,
    /// in-flight compiles are interrupted (collapsing them to the
    /// serial rung), joined, and their cache reservations abandoned, so
    /// the cache never dangles a pending entry.
    pub fn serve_trace(&mut self, trace: &[(Job, f64)]) -> Result<Vec<Verdict>> {
        let mut run = RunState {
            jobs: trace.iter().map(|(j, _)| j.clone()).collect(),
            results: trace.iter().map(|_| None).collect(),
            heap: BinaryHeap::new(),
            pending: Vec::new(),
            tenant_queue: BTreeMap::new(),
            job_meta: HashMap::new(),
            ready: HashMap::new(),
            aux_seq: trace.len() as u64 * SEQ_STRIDE,
        };
        for (i, (job, arrival)) in trace.iter().enumerate() {
            run.heap.push(Ev {
                time: *arrival,
                tenant: job.tenant.clone(),
                seq: i as u64 * SEQ_STRIDE,
                kind: EvKind::Arrival(i),
            });
        }
        for spec in self.brownouts.clone() {
            let seq = run.next_seq();
            run.heap.push(Ev {
                time: spec.at_secs,
                tenant: String::new(),
                seq,
                kind: EvKind::Brownout(spec.total_sms),
            });
        }
        if self.checkpoint_period_secs > 0.0 {
            if let Some(first) = trace
                .iter()
                .map(|(_, t)| *t)
                .min_by(f64::total_cmp)
                .map(|t| t + self.checkpoint_period_secs)
            {
                let seq = run.next_seq();
                run.heap.push(Ev {
                    time: first,
                    tenant: String::new(),
                    seq,
                    kind: EvKind::Checkpoint,
                });
            }
        }

        let outcome = self.run_events(&mut run);
        if let Err(e) = outcome {
            // Preempt every in-flight ladder so workers collapse to the
            // serial rung promptly, then drop their reservations: the
            // failed trace must not leave pending cache entries behind.
            for p in &run.pending {
                p.interrupt.raise();
            }
            for p in run.pending.drain(..) {
                let key = p.key;
                let _ = p.join();
                self.cache.abandon(key);
            }
            return Err(e);
        }
        Ok(run
            .results
            .into_iter()
            .map(|r| r.expect("every arrival was dispatched"))
            .collect())
    }

    /// The full event loop: drain the queue, then resolve leftover
    /// pending compiles in deterministic tenant-name order (which can
    /// schedule more finish events), until both are empty.
    fn run_events(&mut self, run: &mut RunState) -> Result<()> {
        loop {
            while let Some(ev) = run.heap.pop() {
                self.handle(run, ev)?;
            }
            let waiting: Vec<String> = run
                .tenant_queue
                .iter()
                .filter(|(_, q)| !q.is_empty())
                .map(|(t, _)| t.clone())
                .collect();
            if waiting.is_empty() {
                // Pre-spawned policy-switch recompiles may outlive every
                // dispatch; join them (oldest first) so their cache
                // reservations are fulfilled before the trace returns.
                while !run.pending.is_empty() {
                    let oldest = run.pending.remove(0);
                    self.join_and_fulfill(run, oldest)?;
                }
                return Ok(());
            }
            for tenant in waiting {
                self.resolve_tenant(run, &tenant)?;
            }
        }
    }

    fn log(&mut self, ev: &Ev, kind: EventKind, detail: String) {
        self.trace.push(TraceEvent {
            time_secs: ev.time,
            tenant: ev.tenant.clone(),
            seq: ev.seq,
            kind,
            detail,
        });
    }

    fn handle(&mut self, run: &mut RunState, ev: Ev) -> Result<()> {
        self.now = self.now.max(ev.time);
        match ev.kind {
            EvKind::Arrival(i) => self.on_arrival(run, &ev, i),
            EvKind::Rebalance => {
                self.partitioner.recut_at(ev.time);
                let widths = self
                    .partitioner
                    .slices()
                    .iter()
                    .map(|(t, s)| format!("{t}:{}", s.num_sms))
                    .collect::<Vec<_>>()
                    .join(",");
                self.log(&ev, EventKind::Rebalance, widths);
                Ok(())
            }
            EvKind::Dispatch(i) => self.on_dispatch(run, &ev, i),
            EvKind::CompileFinish => {
                self.log(&ev, EventKind::CompileFinish, String::new());
                Ok(())
            }
            EvKind::LaunchFinish => {
                self.log(&ev, EventKind::LaunchFinish, String::new());
                Ok(())
            }
            EvKind::Checkpoint => {
                let done = run.results.iter().filter(|r| r.is_some()).count();
                self.log(&ev, EventKind::Checkpoint, format!("jobs_done={done}"));
                if !run.heap.is_empty() {
                    let seq = run.next_seq();
                    run.heap.push(Ev {
                        time: ev.time + self.checkpoint_period_secs,
                        tenant: String::new(),
                        seq,
                        kind: EvKind::Checkpoint,
                    });
                }
                Ok(())
            }
            EvKind::PolicySwitch(i) => self.on_policy_switch(run, &ev, i),
            EvKind::Brownout(total_sms) => {
                self.partitioner.set_capacity(total_sms, ev.time)?;
                let widths = self
                    .partitioner
                    .slices()
                    .iter()
                    .map(|(t, s)| format!("{t}:{}", s.num_sms))
                    .collect::<Vec<_>>()
                    .join(",");
                self.log(
                    &ev,
                    EventKind::Brownout,
                    format!("sms={total_sms} {widths}"),
                );
                Ok(())
            }
        }
    }

    /// Applies a controller-ordered policy switch: re-addresses the
    /// triggering job's graph under the new policy and, on a cache
    /// miss, pre-spawns the recompile on the worker pool so the new
    /// artifact is (being) built before the tenant's next dispatch asks
    /// for it — the switch overlaps serving instead of stalling it.
    /// Both policies' artifacts stay cached under distinct keys.
    /// Pre-warming uses nominal budgets; a dispatch under elevated
    /// pressure addresses a different key and simply compiles then.
    fn on_policy_switch(&mut self, run: &mut RunState, ev: &Ev, i: usize) -> Result<()> {
        let Some(slice) = self.partitioner.slice(&ev.tenant) else {
            self.log(ev, EventKind::PolicySwitch, format!("job={i} no-slice"));
            return Ok(());
        };
        let job = run.jobs[i].clone();
        let policy = self.controller.policy_for(&ev.tenant, job.qos.policy());
        let popts = pipeline_options_for(&self.opts, slice.num_sms, Pressure::Nominal, policy);
        let outcome = match self.cache.lookup_or_reserve(&job.graph, &popts)? {
            Lookup::Hit(_) => "cached",
            Lookup::PendingHit(_) => "compiling",
            Lookup::Miss(key) => {
                self.spawn_compile(run, key, &job.graph, &popts)?;
                "recompile"
            }
        };
        self.log(
            ev,
            EventKind::PolicySwitch,
            format!("job={i} policy={policy} {outcome}"),
        );
        Ok(())
    }

    fn on_arrival(&mut self, run: &mut RunState, ev: &Ev, i: usize) -> Result<()> {
        self.first_arrival.get_or_insert(self.now);
        // Demand is recorded at the event's own timestamp — true
        // arrival order and true arrival time, never clamped to the
        // simulation clock.
        let needs_recut = self.partitioner.record_arrival(&ev.tenant, ev.time)?;
        if needs_recut {
            run.heap.push(Ev {
                time: ev.time,
                tenant: ev.tenant.clone(),
                seq: ev.seq + 1,
                kind: EvKind::Rebalance,
            });
        }
        run.heap.push(Ev {
            time: ev.time,
            tenant: ev.tenant.clone(),
            seq: ev.seq + 2,
            kind: EvKind::Dispatch(i),
        });
        self.log(ev, EventKind::Arrival, format!("job={i}"));
        Ok(())
    }

    fn on_dispatch(&mut self, run: &mut RunState, ev: &Ev, i: usize) -> Result<()> {
        // Everything this tenant has pending completed before the eager
        // path would have reached this arrival — resolve it first so
        // admission and the busy horizon read the same state.
        self.resolve_tenant(run, &ev.tenant)?;
        let now = ev.time;
        let slice = self
            .partitioner
            .slice(&ev.tenant)
            .expect("observed tenant has a slice");
        let qos = run.jobs[i].qos;
        let state = self.tenants.entry(ev.tenant.clone()).or_default();
        state.qos = Some(qos);
        state.inflight.retain(|&f| f > now);
        let pressure = match self.admission.decide_event(&state.inflight, now) {
            Decision::Reject { retry_after_secs } => {
                state.metrics.jobs_rejected += 1;
                run.results[i] = Some(Verdict::Rejected { retry_after_secs });
                self.log(ev, EventKind::Dispatch, format!("job={i} rejected"));
                return Ok(());
            }
            Decision::Admit(p) => p,
        };

        // The compile policy is the controller's effective choice for
        // this tenant — the job's own QoS policy unless an adaptive
        // switch is in force.
        let policy = self.controller.policy_for(&ev.tenant, qos.policy());
        let popts = pipeline_options_for(&self.opts, slice.num_sms, pressure, policy);
        match self.cache.lookup_or_reserve(&run.jobs[i].graph, &popts)? {
            Lookup::Hit(artifact) => {
                self.complete_job(run, i, &artifact, true, slice, now)?;
                self.log(ev, EventKind::Dispatch, format!("job={i} hit"));
            }
            Lookup::PendingHit(key) => {
                // Another dispatch reserved this key; the eager path
                // would have had the artifact by now. Join it (the
                // owner's job stays queued until its own resolution
                // point) and serve verified, like any other hit.
                let artifact = self.artifact_for(run, key)?;
                let artifact = self.compiled_for(artifact, &run.jobs[i].graph, &popts)?;
                verify_artifact(&artifact)?;
                self.complete_job(run, i, &artifact, true, slice, now)?;
                self.log(ev, EventKind::Dispatch, format!("job={i} pending-hit"));
            }
            Lookup::Miss(key) => {
                self.spawn_compile(run, key, &run.jobs[i].graph.clone(), &popts)?;
                run.tenant_queue
                    .entry(ev.tenant.clone())
                    .or_default()
                    .push_back(i);
                run.job_meta.insert(
                    i,
                    PendingJob {
                        key,
                        popts,
                        slice,
                        arrival: now,
                    },
                );
                self.log(ev, EventKind::Dispatch, format!("job={i} miss"));
            }
        }
        Ok(())
    }

    /// Hands a ladder compile to the worker pool, joining the oldest
    /// in-flight compile first when the pool is at its bound.
    fn spawn_compile(
        &mut self,
        run: &mut RunState,
        key: u64,
        graph: &FlatGraph,
        popts: &PipelineOptions,
    ) -> Result<()> {
        while run.pending.len() >= self.workers {
            let oldest = run.pending.remove(0);
            self.join_and_fulfill(run, oldest)?;
        }
        // A key joined earlier may be compiled again (its slot was
        // evicted, or it held another program with the same key): later
        // joins of this key must wait for the new compile.
        run.ready.remove(&key);
        let interrupt = SearchInterrupt::armed();
        let mut copts = popts.clone();
        copts.compile.search.interrupt = interrupt.clone();
        let graph = graph.clone();
        let memo = self.cache.profile_memo().clone();
        let handle = std::thread::spawn(move || {
            ResilientPipeline::new(copts)
                .with_memo(memo)
                .compile(&graph)
        });
        run.pending.push(PendingCompile {
            key,
            interrupt,
            handle,
        });
        Ok(())
    }

    fn join_and_fulfill(&mut self, run: &mut RunState, p: PendingCompile) -> Result<()> {
        let key = p.key;
        match p.join() {
            Ok(artifact) => {
                self.cache.fulfill(key, &artifact);
                run.ready.insert(key, artifact);
                Ok(())
            }
            Err(e) => {
                self.cache.abandon(key);
                Err(e)
            }
        }
    }

    /// The artifact for a reserved key: already joined, or joined now.
    fn artifact_for(&mut self, run: &mut RunState, key: u64) -> Result<ResilientCompiled> {
        if let Some(a) = run.ready.get(&key) {
            return Ok(a.clone());
        }
        let pos = run
            .pending
            .iter()
            .position(|p| p.key == key)
            .ok_or_else(|| Error::Api(format!("no compile in flight for cache key {key:016x}")))?;
        let p = run.pending.remove(pos);
        self.join_and_fulfill(run, p)?;
        Ok(run.ready[&key].clone())
    }

    /// Content guard for joined compiles: two programs can share a cache
    /// key ([`crate::serve::cache_key`] omits table values), so an
    /// artifact joined by key is served only if it was compiled for
    /// `graph`; otherwise `graph` is compiled on the spot.
    fn compiled_for(
        &self,
        artifact: ResilientCompiled,
        graph: &FlatGraph,
        popts: &PipelineOptions,
    ) -> Result<ResilientCompiled> {
        if artifact.compiled.graph == *graph {
            return Ok(artifact);
        }
        ResilientPipeline::new(popts.clone())
            .with_memo(self.cache.profile_memo().clone())
            .compile(graph)
    }

    /// Completes every pending cache-miss job of `tenant`, oldest
    /// first. Called before any same-tenant dispatch (and at drain), so
    /// per-tenant completion order equals arrival order — the invariant
    /// the busy-horizon and admission math share with the eager path.
    fn resolve_tenant(&mut self, run: &mut RunState, tenant: &str) -> Result<()> {
        while let Some(&i) = run.tenant_queue.get(tenant).and_then(VecDeque::front) {
            run.tenant_queue
                .get_mut(tenant)
                .expect("queue exists")
                .pop_front();
            let meta = run.job_meta.remove(&i).expect("pending job has metadata");
            let artifact = self.artifact_for(run, meta.key)?;
            let artifact = self.compiled_for(artifact, &run.jobs[i].graph, &meta.popts)?;
            self.complete_job(run, i, &artifact, false, meta.slice, meta.arrival)?;
        }
        Ok(())
    }

    /// Executes one admitted job and applies the same virtual-time and
    /// metric bookkeeping as the eager path, keyed off the job's own
    /// arrival instant.
    fn complete_job(
        &mut self,
        run: &mut RunState,
        i: usize,
        artifact: &ResilientCompiled,
        cache_hit: bool,
        slice: Slice,
        arrival: f64,
    ) -> Result<()> {
        let job = &run.jobs[i];
        let default_policy = job.qos.policy();
        self.artifacts += 1;
        if artifact.isolation.is_some() {
            self.certified += 1;
        }
        let gpu_run = run_artifact(
            artifact,
            job,
            &self.device.config,
            slice.base_sm,
            self.controller.interval_for(&job.tenant),
            self.controller.max_attempts_override(),
        )?;
        let compile_cost = if cache_hit {
            0.0
        } else {
            self.opts.compile_penalty_secs
        };
        let state = self
            .tenants
            .get_mut(&job.tenant)
            .expect("tenant state exists");
        let start = arrival.max(state.busy_until);
        let finish = start + compile_cost + gpu_run.time_secs;
        state.busy_until = finish;
        state.inflight.push(finish);
        self.last_finish = self.last_finish.max(finish);

        let m = &mut state.metrics;
        m.jobs_accepted += 1;
        m.tokens_out += gpu_run.outputs.len() as u64;
        m.busy_secs += compile_cost + gpu_run.time_secs;
        m.launches += gpu_run.launches;
        m.retries += gpu_run.retries;
        m.cycles += gpu_run.stats.cycles.round() as u64;
        m.fault_overhead_cycles += gpu_run.stats.fault_overhead_cycles.round() as u64;
        m.launch_path_cycles += gpu_run.stats.launch_path_cycles.round() as u64;
        m.graph_replays += gpu_run.stats.graph_replays;
        m.graph_captures += gpu_run.stats.graph_captures;
        m.graph_capture_cycles += gpu_run.stats.graph_capture_cycles.round() as u64;
        m.latencies.push(finish - arrival);
        m.queue_waits.push(start - arrival);
        if cache_hit {
            m.compile_hits += 1;
        } else {
            m.compile_misses += 1;
            m.search_invocations += artifact.report.search_invocations();
        }

        let tenant = job.tenant.clone();
        self.completed.push(CompletedJob {
            tenant: tenant.clone(),
            start,
            compile_cost,
            finish,
        });
        // Close the control loop: feed the run's observed retry rate
        // and launch cost into the controller at the job's finish
        // instant. A switch decision becomes an explicit engine event
        // (at `finish`, with an aux sequence number) so the recompile
        // is pre-spawned in deterministic event order.
        let switched = self.controller.observe_job(
            &tenant,
            finish,
            gpu_run.launches,
            gpu_run.retries,
            gpu_run.stats.productive_cycles(),
            &artifact.report.checkpoint,
            default_policy,
        );
        if switched.is_some() {
            let seq = run.next_seq();
            run.heap.push(Ev {
                time: finish,
                tenant: tenant.clone(),
                seq,
                kind: EvKind::PolicySwitch(i),
            });
        }
        if !cache_hit {
            let seq = run.next_seq();
            run.heap.push(Ev {
                time: start + compile_cost,
                tenant: tenant.clone(),
                seq,
                kind: EvKind::CompileFinish,
            });
        }
        let seq = run.next_seq();
        run.heap.push(Ev {
            time: finish,
            tenant,
            seq,
            kind: EvKind::LaunchFinish,
        });

        run.results[i] = Some(Verdict::Completed(Box::new(JobResult {
            outputs: gpu_run.outputs,
            arrival_secs: arrival,
            start_secs: start,
            finish_secs: finish,
            latency_secs: finish - arrival,
            exec_secs: gpu_run.time_secs,
            cache_hit,
            shipped: artifact.report.shipped,
            slice,
            retries: gpu_run.retries,
        })));
        Ok(())
    }

    /// Virtual seconds of `[w0, w1)` covered by the union of *other*
    /// tenants' execution intervals.
    fn overlap_with_others(&self, tenant: &str, w0: f64, w1: f64) -> f64 {
        let mut clipped: Vec<(f64, f64)> = self
            .completed
            .iter()
            .filter(|c| c.tenant != tenant)
            .map(|c| (c.start + c.compile_cost, c.finish))
            .filter(|&(s, e)| e > w0 && s < w1)
            .map(|(s, e)| (s.max(w0), e.min(w1)))
            .collect();
        clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut cursor = w0;
        for (s, e) in clipped {
            let s = s.max(cursor);
            if e > s {
                covered += e - s;
                cursor = e;
            }
        }
        covered
    }

    /// Per-tenant compile-overlap totals: each cache-miss job's penalty
    /// window intersected with other tenants' execution.
    fn overlap_totals(&self) -> BTreeMap<String, f64> {
        let mut totals = BTreeMap::new();
        for c in self.completed.iter().filter(|c| c.compile_cost > 0.0) {
            let overlap = self.overlap_with_others(&c.tenant, c.start, c.start + c.compile_cost);
            *totals.entry(c.tenant.clone()).or_insert(0.0) += overlap;
        }
        totals
    }

    /// Compilation-cache counters.
    #[must_use]
    pub fn cache_stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// The tenant's current SM slice.
    #[must_use]
    pub fn slice(&self, tenant: &str) -> Option<Slice> {
        self.partitioner.slice(tenant)
    }

    /// The processed-event audit trace, in processing order.
    #[must_use]
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// The partition recut audit log.
    #[must_use]
    pub fn recut_log(&self) -> &[crate::serve::partition::RecutRecord] {
        &self.partitioner.recut_log
    }

    /// The resilience controller's decision log, in virtual-time order.
    /// Empty when the controller is disabled. Deterministic: the same
    /// trace and fault seed always produce a byte-identical log.
    #[must_use]
    pub fn decisions(&self) -> &[ControllerDecision] {
        self.controller.decisions()
    }

    /// Snapshots the serving run into a serializable report. Identical
    /// to the eager server's report over the same trace except for the
    /// overlap and queue-wait observables the event model adds.
    #[must_use]
    pub fn report(&self) -> ServeReport {
        let makespan = (self.last_finish - self.first_arrival.unwrap_or(0.0)).max(0.0);
        let overlaps = self.overlap_totals();
        let tenants: Vec<TenantReport> = self
            .tenants
            .iter()
            .map(|(name, state)| {
                let slice = self.partitioner.slice(name).unwrap_or(Slice {
                    base_sm: 0,
                    num_sms: 0,
                });
                // The row reports the controller's *effective* policy:
                // a recommendation the controller already acted on is
                // resolved, not re-issued.
                let default = state.qos.map_or(FaultPolicy::Throughput, QosClass::policy);
                let policy = self.controller.policy_for(name, default);
                let mut metrics: ServeMetrics = state.metrics.clone();
                metrics.compile_overlap_secs = overlaps.get(name).copied().unwrap_or(0.0);
                let mut row = TenantReport::of(
                    name,
                    &metrics,
                    slice,
                    makespan,
                    policy,
                    self.opts.retry_warn_threshold,
                );
                row.policy_switches = self.controller.switches_for(name);
                row.checkpoint_interval = self.controller.interval_for(name);
                row
            })
            .collect();
        ServeReport {
            makespan_secs: makespan,
            cache: self.cache.stats().clone(),
            cache_hit_rate: self.cache.stats().hit_rate(),
            rebalances: self.partitioner.rebalances,
            policy_switches: tenants.iter().map(|t| t.policy_switches).sum(),
            artifacts: self.artifacts,
            certified: self.certified,
            compile_overlap_secs: tenants.iter().map(|t| t.compile_overlap_secs).sum(),
            launch_path_cycles: tenants.iter().map(|t| t.launch_path_cycles).sum(),
            graph_replays: tenants.iter().map(|t| t.graph_replays).sum(),
            tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::ServeOptions;
    use streamir::graph::{FilterSpec, StreamSpec};
    use streamir::ir::{ElemTy, Expr, FnBuilder, Scalar};

    fn map_filter(name: &str, k: i32) -> StreamSpec {
        let mut b = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let x = b.local(ElemTy::I32);
        b.pop_into(0, x);
        b.push(0, Expr::local(x).mul(Expr::i32(k)));
        StreamSpec::filter(FilterSpec::new(name, b.build().unwrap()))
    }

    fn job(tenant: &str, k: i32) -> Job {
        Job {
            tenant: tenant.into(),
            graph: StreamSpec::pipeline(vec![map_filter("a", k), map_filter("b", k + 1)])
                .flatten()
                .unwrap(),
            input: |n| (0..n).map(|i| Scalar::I32(i as i32)).collect(),
            iterations: 2,
            qos: QosClass::Batch,
        }
    }

    #[test]
    fn event_key_orders_time_then_tenant_then_seq() {
        let ev = |time, tenant: &str, seq| Ev {
            time,
            tenant: tenant.into(),
            seq,
            kind: EvKind::Rebalance,
        };
        let a = ev(1.0, "a", 5);
        let b = ev(1.0, "b", 0);
        let c = ev(0.5, "z", 9);
        let d = ev(1.0, "a", 6);
        // key_cmp is the natural order; Ord is reversed for the heap.
        assert_eq!(c.key_cmp(&a), Ordering::Less);
        assert_eq!(a.key_cmp(&b), Ordering::Less);
        assert_eq!(a.key_cmp(&d), Ordering::Less);
        let mut heap = BinaryHeap::from(vec![a.clone(), b, c, d]);
        let first = heap.pop().unwrap();
        assert_eq!(first.time, 0.5, "heap must pop the smallest key");
        assert_eq!(heap.pop().unwrap().key_cmp(&a), Ordering::Equal);
    }

    #[test]
    fn engine_serves_a_trace_and_traces_every_event_kind() {
        let mut engine = EventEngine::new(ServeOptions {
            device: gpusim::DeviceConfig {
                num_sms: 8,
                ..gpusim::DeviceConfig::gts512()
            },
            ..ServeOptions::default()
        })
        .with_checkpoint_period(0.25);
        let trace = vec![
            (job("a", 2), 0.0),
            (job("b", 5), 0.1),
            (job("a", 2), 0.2), // same content: cache hit at equal slice
        ];
        let verdicts = engine.serve_trace(&trace).unwrap();
        assert_eq!(verdicts.len(), 3);
        for v in &verdicts {
            match v {
                Verdict::Completed(r) => assert!(!r.outputs.is_empty()),
                Verdict::Rejected { .. } => panic!("nothing should be rejected"),
            }
        }
        let kinds: Vec<EventKind> = engine.trace().iter().map(|e| e.kind).collect();
        for kind in [
            EventKind::Arrival,
            EventKind::Rebalance,
            EventKind::Dispatch,
            EventKind::CompileFinish,
            EventKind::LaunchFinish,
            EventKind::Checkpoint,
        ] {
            assert!(kinds.contains(&kind), "missing {kind:?} in {kinds:?}");
        }
        let report = engine.report();
        assert_eq!(report.tenants.len(), 2);
        assert!(report.makespan_secs > 0.0);
    }

    #[test]
    fn overlap_union_does_not_double_count() {
        let mut engine = EventEngine::new(ServeOptions::default());
        engine.completed = vec![
            CompletedJob {
                tenant: "other".into(),
                start: 0.0,
                compile_cost: 0.0,
                finish: 0.4,
            },
            CompletedJob {
                tenant: "other2".into(),
                start: 0.2,
                compile_cost: 0.0,
                finish: 0.6,
            },
            CompletedJob {
                tenant: "me".into(),
                start: 0.0,
                compile_cost: 0.0,
                finish: 10.0,
            },
        ];
        // Window [0.1, 0.7): covered by the union [0.0,0.6) → 0.5, not
        // the 0.3+0.4 a per-interval sum would claim; "me"'s own run is
        // excluded.
        let overlap = engine.overlap_with_others("me", 0.1, 0.7);
        assert!((overlap - 0.5).abs() < 1e-12, "overlap = {overlap}");
    }
}
