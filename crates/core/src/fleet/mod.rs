//! Fault-tolerant fleet serving: N simulated devices behind one
//! deterministic router in a single discrete-event loop.
//!
//! The single-device serving stack ([`crate::serve`]) treats its device
//! as a value ([`gpusim::Device`]); this module stamps out N of them and
//! coordinates:
//!
//! * **Routing** ([`router`]): rendezvous-hashed tenant homes, health
//!   bookkeeping (loss is permanent, partitions heal), and an
//!   append-only decision log that same-seed runs reproduce
//!   byte-identically.
//! * **Replicated artifacts** ([`store`]): the content-addressed disk
//!   tier generalised to a fleet-wide store with replication factor R
//!   and lazy read-repair, so failover never recompiles what any
//!   reachable replica already holds.
//! * **Checkpoint-shipping failover**: when a device dies mid-run, each
//!   in-flight job resumes on a healthy replica from its last k-launch
//!   commit — the `CommitWindow` state words ship through the router at
//!   modeled host-transfer cost, the launches past the commit replay,
//!   and the overhead is billed truthfully into the disjoint
//!   [`gpusim::LaunchStats::failover_cycles`] component. Outputs are
//!   byte-identical to an undisturbed run by construction of the
//!   commit-window protocol.
//! * **Hedged dispatch**: Interactive (TailLatency) jobs whose primary
//!   is projected past the tenant's p99 get a backup launch on a second
//!   device; the first finisher wins and the loser's burn is billed
//!   into the winner's [`gpusim::LaunchStats::hedge_cycles`].
//! * **Chaos** ([`storm`]): seeded rolling device kills, correlated
//!   rack brownouts, and partition trains, expressed as a
//!   [`gpusim::DeviceFaultPlan`].
//!
//! Everything runs in virtual time. Events are totally ordered by
//! `(virtual_time, device, tenant, seq)`, so a fleet trace replays
//! bit-identically: same seed, same router log, same counters.

pub mod router;
pub mod store;
pub mod storm;

pub use router::{Health, Router, RouterDecision};
pub use store::{ArtifactStore, Fetch, StoreStats};
pub use storm::{FleetStorm, RackBrownout};

use std::collections::{BTreeMap, BinaryHeap};

use serde::Serialize;

use gpusim::{Device, DeviceFaultKind, DeviceFaultPlan, DeviceId};
use streamir::ir::Scalar;

use crate::exec::GpuRun;
use crate::pipeline::{ResilientCompiled, ResilientPipeline};
use crate::profile::ProfileMemo;
use crate::serve::metrics::percentile_of;
use crate::serve::{
    cache_key, pipeline_options_for, run_artifact, AdmissionController, Decision, Job, Partitioner,
    QosClass, RouteDecision, ServeOptions,
};
use crate::Result;

/// Hedged-dispatch configuration (applies to Interactive jobs only).
#[derive(Debug, Clone, PartialEq)]
pub struct HedgeOptions {
    /// Whether hedging is on at all.
    pub enabled: bool,
    /// The latency quantile of the tenant's history that arms a hedge:
    /// a primary projected to finish later than this gets a backup.
    pub percentile: f64,
    /// Floor on the hedge delay, so cold tenants (no history) don't
    /// hedge instantly.
    pub min_delay_secs: f64,
}

impl Default for HedgeOptions {
    fn default() -> Self {
        HedgeOptions {
            enabled: true,
            percentile: 0.99,
            min_delay_secs: 0.25,
        }
    }
}

/// Fleet configuration.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Number of simulated devices (identical hardware, distinct ids).
    pub devices: u32,
    /// The per-device serving configuration (hardware, budgets, queue
    /// bound, compile penalty).
    pub base: ServeOptions,
    /// Artifact-store replication factor R.
    pub replication: u32,
    /// Virtual seconds to ship an artifact between devices on a remote
    /// store hit (small next to a compile, which is the point).
    pub fetch_penalty_secs: f64,
    /// Commit interval k for the k-launch checkpoint protocol; failover
    /// replays at most `k − 1` launches.
    pub checkpoint_interval: u32,
    /// Hedged-dispatch policy.
    pub hedge: HedgeOptions,
    /// Device-grain fault schedule.
    pub device_faults: DeviceFaultPlan,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            devices: 2,
            base: ServeOptions::default(),
            replication: 2,
            fetch_penalty_secs: 0.05,
            checkpoint_interval: 4,
            hedge: HedgeOptions::default(),
            device_faults: DeviceFaultPlan::new(),
        }
    }
}

/// What happened to one submitted job.
#[derive(Debug)]
pub enum FleetVerdict {
    /// Admitted somewhere and executed to completion (possibly after
    /// reroutes, failovers, or a hedge).
    Completed(Box<FleetJobResult>),
    /// Rejected — by admission control, or abandoned because no usable
    /// device remained to fail over to. Never silently lost.
    Rejected {
        /// Virtual seconds until retry is worthwhile.
        retry_after_secs: f64,
    },
}

/// The record of one completed fleet job.
#[derive(Debug)]
pub struct FleetJobResult {
    /// The program's output stream — byte-identical to a fault-free
    /// single-device run of the same job.
    pub outputs: Vec<Scalar>,
    /// The submitting tenant.
    pub tenant: String,
    /// Arrival instant.
    pub arrival_secs: f64,
    /// When execution began on the device that ultimately finished it.
    pub start_secs: f64,
    /// When service finished.
    pub finish_secs: f64,
    /// `finish - arrival`.
    pub latency_secs: f64,
    /// The tenant's static home device.
    pub home: u32,
    /// The device that finished the job.
    pub device: u32,
    /// Whether admission sent it somewhere other than home.
    pub rerouted: bool,
    /// Device losses this job survived via checkpoint-shipping.
    pub failed_over: u32,
    /// Whether a hedge backup was launched.
    pub hedged: bool,
    /// Whether the hedge backup won.
    pub hedge_won: bool,
    /// How the artifact store served the (final) dispatch.
    pub fetch: Fetch,
    /// Merged launch statistics, including the disjoint
    /// `failover_cycles` / `hedge_cycles` components. The billing
    /// invariant holds: overhead components sum exactly to
    /// `fault_overhead_cycles ≤ cycles`.
    pub stats: gpusim::LaunchStats,
}

/// Per-device row of the fleet report.
#[derive(Debug, Clone, Serialize)]
pub struct DeviceReport {
    /// Device id.
    pub device: u32,
    /// Whether it survived the run.
    pub alive: bool,
    /// Jobs it finished (winner of record for hedges).
    pub jobs_completed: u64,
    /// Virtual seconds of service it delivered.
    pub busy_secs: f64,
    /// Scheduler searches its store-miss compiles paid for.
    pub search_invocations: u64,
}

/// Aggregate fleet counters, serialized into `BENCH_fleet.json`.
#[derive(Debug, Clone, Serialize)]
pub struct FleetReport {
    /// Fleet size.
    pub devices: u32,
    /// Devices still alive at the end.
    pub devices_alive: u32,
    /// Last finish minus first arrival.
    pub makespan_secs: f64,
    /// Jobs submitted.
    pub jobs_submitted: u64,
    /// Jobs completed.
    pub jobs_completed: u64,
    /// Jobs rejected (admission) or abandoned (no usable device).
    pub jobs_rejected: u64,
    /// Jobs neither completed nor rejected — zero by construction; the
    /// chaos tests assert it stays zero.
    pub jobs_lost: u64,
    /// Output tokens per virtual second across the fleet.
    pub throughput_tokens_per_sec: f64,
    /// Median completed-job latency.
    pub p50_latency_secs: f64,
    /// Tail completed-job latency.
    pub p99_latency_secs: f64,
    /// Checkpoint-shipping failovers performed.
    pub failovers: u64,
    /// Median added latency per failover (new finish − old finish).
    pub failover_p50_secs: f64,
    /// Tail added latency per failover.
    pub failover_p99_secs: f64,
    /// Hedge backups launched.
    pub hedges: u64,
    /// Hedge backups that won.
    pub hedge_wins: u64,
    /// Total billed cycles.
    pub cycles: u64,
    /// Total fault-overhead cycles (all disjoint components).
    pub fault_overhead_cycles: u64,
    /// The failover share of the overhead.
    pub failover_cycles: u64,
    /// The hedge share of the overhead.
    pub hedge_cycles: u64,
    /// Launch-path cycles across completed jobs: host launch overhead
    /// for host-launched rounds, replay doorbells for captured-graph
    /// rounds. Graph dispatch shrinks this; compare against a
    /// host-launched run of the same trace for the savings.
    pub launch_path_cycles: u64,
    /// Steady-state rounds dispatched as captured-graph replays.
    pub graph_replays: u64,
    /// Graph captures paid for (one per graph-dispatched run, plus
    /// re-captures billed into `failover_cycles` when a device dies
    /// mid-replay and the survivor must rebuild the capture).
    pub graph_captures: u64,
    /// Cycles spent building captured graphs.
    pub graph_capture_cycles: u64,
    /// Artifacts dispatched across the fleet.
    pub artifacts: u64,
    /// The subset of `artifacts` carrying a verified tenant-isolation
    /// certificate; dispatch refuses the rest, so this equals
    /// `artifacts` on any completed run.
    pub certified: u64,
    /// Scheduler searches paid for across the fleet's store-miss
    /// compiles (sum of the per-device rows). Warming pushes this
    /// toward zero for a covered trace.
    pub search_invocations: u64,
    /// Artifact-store counters (hit rates, read-repairs, losses).
    pub store: StoreStats,
    /// Router decision-log length (the full log is available via
    /// [`FleetEngine::router_log`]).
    pub router_decisions: u64,
    /// Per-device rows.
    pub per_device: Vec<DeviceReport>,
}

/// One fleet member's mutable state.
struct DeviceState {
    device: Device,
    /// The device's own demand partitioner. It keeps running even after
    /// the device dies: home-slice *widths* are read off it so a
    /// tenant's compile width is a pure function of the arrival trace,
    /// independent of where the job physically runs — the property the
    /// differential failover test leans on.
    partitioner: Partitioner,
    alive: bool,
    /// Per-tenant busy horizon on this device.
    busy: BTreeMap<String, f64>,
    jobs_completed: u64,
    busy_secs: f64,
    /// Scheduler searches this device paid for on its serving path
    /// (summed [`DegradationReport::search_invocations`] over its
    /// store-miss compiles; warming compiles are offline and excluded).
    ///
    /// [`DegradationReport::search_invocations`]:
    /// crate::pipeline::DegradationReport::search_invocations
    search_invocations: u64,
}

/// One in-flight (already simulated, not yet finished in virtual time)
/// job. Failover rewrites `device`, the time fields, and the billed
/// stats; the outputs never change.
struct Running {
    job_idx: usize,
    tenant: String,
    qos: QosClass,
    device: u32,
    home: u32,
    arrival: f64,
    /// When execution proper began (after queueing and fetch/compile).
    exec_start: f64,
    finish: f64,
    /// The undisturbed modeled execution time.
    base_exec_secs: f64,
    /// Absolute launch index the current execution started from (0
    /// originally; the committed index after a failover).
    trace_base: usize,
    key: u64,
    state_words: u64,
    artifact: ResilientCompiled,
    run: GpuRun,
    fetch: Fetch,
    rerouted: bool,
    failed_over: u32,
    hedged: bool,
    hedge_won: bool,
}

#[derive(Debug, Clone, PartialEq)]
enum EvKind {
    /// Job `trace[i]` arrives.
    Arrival(usize),
    /// Device fault `plan.events()[i]` strikes.
    Fault(usize),
    /// A link partition heals.
    PartitionHeal,
    /// A brownout restores capacity.
    BrownoutHeal { restore_sms: u32 },
}

/// One event, totally ordered by `(time, device, tenant, seq)` so the
/// loop pops in a replayable order.
#[derive(Debug, Clone, PartialEq)]
struct Ev {
    time: f64,
    device: u32,
    tenant: String,
    seq: u64,
    kind: EvKind,
}

impl Eq for Ev {}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap and we want the earliest
        // (time, device, tenant, seq) first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.device.cmp(&self.device))
            .then_with(|| other.tenant.cmp(&self.tenant))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The fleet discrete-event engine.
pub struct FleetEngine {
    opts: FleetOptions,
    router: Router,
    store: ArtifactStore,
    admission: AdmissionController,
    devices: Vec<DeviceState>,
    /// Per-tenant completed-latency history, feeding hedge delays.
    history: BTreeMap<String, Vec<f64>>,
    inflight: Vec<Running>,
    failover_latencies: Vec<f64>,
    hedges: u64,
    hedge_wins: u64,
    seq: u64,
    first_arrival: Option<f64>,
    last_finish: f64,
    // Aggregates filled in when `run` finalizes.
    jobs_submitted: u64,
    jobs_completed: u64,
    jobs_rejected: u64,
    tokens_out: u64,
    latencies: Vec<f64>,
    cycles: f64,
    fault_overhead_cycles: f64,
    failover_cycles: f64,
    hedge_cycles: f64,
    launch_path_cycles: f64,
    graph_replays: u64,
    graph_captures: u64,
    graph_capture_cycles: f64,
    /// Artifacts dispatched, and the subset carrying a verified
    /// isolation certificate (see [`crate::serve::run_artifact`]).
    artifacts: u64,
    certified: u64,
    /// Profiling memo shared by every compile this fleet runs (organic
    /// store misses and [`FleetEngine::warm`]).
    memo: ProfileMemo,
}

impl FleetEngine {
    /// A fresh fleet of `opts.devices` identical devices.
    #[must_use]
    pub fn new(opts: FleetOptions) -> FleetEngine {
        let n = opts.devices.max(1);
        let devices = (0..n)
            .map(|d| {
                let device = Device::new(
                    DeviceId(d),
                    opts.base.device.clone(),
                    opts.base.timing.clone(),
                );
                let partitioner = Partitioner::new(device.config.num_sms, opts.base.rate_alpha);
                DeviceState {
                    device,
                    partitioner,
                    alive: true,
                    busy: BTreeMap::new(),
                    jobs_completed: 0,
                    busy_secs: 0.0,
                    search_invocations: 0,
                }
            })
            .collect();
        FleetEngine {
            router: Router::new(n),
            store: ArtifactStore::new(opts.replication),
            admission: AdmissionController::new(opts.base.max_queue),
            devices,
            history: BTreeMap::new(),
            inflight: Vec::new(),
            failover_latencies: Vec::new(),
            hedges: 0,
            hedge_wins: 0,
            seq: 0,
            first_arrival: None,
            last_finish: 0.0,
            jobs_submitted: 0,
            jobs_completed: 0,
            jobs_rejected: 0,
            tokens_out: 0,
            latencies: Vec::new(),
            cycles: 0.0,
            fault_overhead_cycles: 0.0,
            failover_cycles: 0.0,
            hedge_cycles: 0.0,
            launch_path_cycles: 0.0,
            graph_replays: 0,
            graph_captures: 0,
            graph_capture_cycles: 0.0,
            artifacts: 0,
            certified: 0,
            memo: ProfileMemo::default(),
            opts,
        }
    }

    /// The router's append-only decision log — the determinism witness
    /// the chaos CI job uploads.
    #[must_use]
    pub fn router_log(&self) -> &[RouterDecision] {
        self.router.log()
    }

    /// Artifact-store counters.
    #[must_use]
    pub fn store_stats(&self) -> &StoreStats {
        self.store.stats()
    }

    /// Pre-compiles `graphs` into the artifact store at every plausible
    /// slice width for up to `max_tenants` tenants per device, under
    /// both fault policies — the fleet counterpart of
    /// [`crate::serve::warm_cache`]. Each warmed artifact is inserted
    /// as if compiled on its top rendezvous-scored usable device, so
    /// replica placement matches what an organic miss would produce.
    /// Warming is offline: it charges no device's
    /// `search_invocations`, and the store's lookup counters are left
    /// untouched ([`ArtifactStore::contains`] does not count).
    pub fn warm(
        &mut self,
        graphs: &[streamir::graph::FlatGraph],
        max_tenants: usize,
    ) -> crate::serve::WarmReport {
        let widths =
            crate::serve::partition::plausible_widths(self.opts.base.device.num_sms, max_tenants);
        // The artifact store is unbounded (replication, not LRU, governs
        // residency), so fleet warming can never evict itself.
        let mut report = crate::serve::WarmReport {
            widths: widths.clone(),
            compiled: 0,
            already_cached: 0,
            failed: 0,
            evictions: 0,
        };
        for graph in graphs {
            for &width in &widths {
                for policy in [
                    crate::pipeline::FaultPolicy::Throughput,
                    crate::pipeline::FaultPolicy::TailLatency,
                ] {
                    let popts = pipeline_options_for(
                        &self.opts.base,
                        width,
                        crate::serve::Pressure::Nominal,
                        policy,
                    );
                    let key = cache_key(graph, &popts);
                    if self.store.contains(key) {
                        report.already_cached += 1;
                        continue;
                    }
                    let usable = self.router.usable_devices();
                    let Some(&home) = usable
                        .iter()
                        .max_by_key(|&&d| (router::score(key, d), std::cmp::Reverse(d)))
                    else {
                        report.failed += 1;
                        continue;
                    };
                    match ResilientPipeline::new(popts)
                        .with_memo(self.memo.clone())
                        .compile(graph)
                    {
                        Ok(a) => {
                            self.store.insert(key, a, DeviceId(home), &usable);
                            report.compiled += 1;
                        }
                        Err(_) => report.failed += 1,
                    }
                }
            }
        }
        report
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Serves an arrival trace to completion and returns one verdict per
    /// job, in submission order. Every job completes or is rejected —
    /// never silently lost — no matter what the device-fault plan does.
    ///
    /// # Errors
    ///
    /// Compilation or execution errors, and [`crate::Error::Api`] when a
    /// home device's tenant population would exceed one tenant per SM.
    pub fn run(&mut self, trace: &[(Job, f64)]) -> Result<Vec<FleetVerdict>> {
        let mut heap = BinaryHeap::new();
        for (i, (job, at)) in trace.iter().enumerate() {
            let home = self.router.home(&job.tenant);
            let seq = self.next_seq();
            heap.push(Ev {
                time: *at,
                device: home.0,
                tenant: job.tenant.clone(),
                seq,
                kind: EvKind::Arrival(i),
            });
        }
        let faults = self.opts.device_faults.clone();
        for (i, ev) in faults.events().iter().enumerate() {
            let seq = self.next_seq();
            heap.push(Ev {
                time: ev.at_secs,
                device: ev.device.0,
                tenant: String::new(),
                seq,
                kind: EvKind::Fault(i),
            });
        }

        let mut verdicts: Vec<Option<FleetVerdict>> = Vec::new();
        verdicts.resize_with(trace.len(), || None);
        self.jobs_submitted = trace.len() as u64;

        while let Some(ev) = heap.pop() {
            match ev.kind {
                EvKind::Arrival(i) => {
                    let (job, at) = &trace[i];
                    if let Some(v) = self.on_arrival(i, job, (*at).max(ev.time))? {
                        verdicts[i] = Some(v);
                    }
                }
                EvKind::Fault(i) => {
                    let fault = faults.events()[i].clone();
                    self.on_fault(&fault, &mut heap, &mut verdicts);
                }
                EvKind::PartitionHeal => {
                    self.router.heal(DeviceId(ev.device));
                    self.router.log_decision(
                        ev.time,
                        "",
                        None,
                        "partition-heal",
                        Some(DeviceId(ev.device)),
                        String::new(),
                    );
                }
                EvKind::BrownoutHeal { restore_sms } => {
                    if self.devices[ev.device as usize].alive {
                        let d = &mut self.devices[ev.device as usize];
                        let floor = (d.partitioner.slices().len() as u32).max(1);
                        d.partitioner
                            .set_capacity(restore_sms.max(floor), ev.time)?;
                        self.router.log_decision(
                            ev.time,
                            "",
                            None,
                            "brownout-heal",
                            Some(DeviceId(ev.device)),
                            format!("restored to {restore_sms} SMs"),
                        );
                    }
                }
            }
        }

        // Finalize: everything still in flight has (virtually) finished.
        for r in self.inflight.drain(..) {
            self.jobs_completed += 1;
            self.tokens_out += r.run.outputs.len() as u64;
            self.latencies.push(r.finish - r.arrival);
            self.cycles += r.run.stats.cycles;
            self.fault_overhead_cycles += r.run.stats.fault_overhead_cycles;
            self.failover_cycles += r.run.stats.failover_cycles;
            self.hedge_cycles += r.run.stats.hedge_cycles;
            self.launch_path_cycles += r.run.stats.launch_path_cycles;
            self.graph_replays += r.run.stats.graph_replays;
            self.graph_captures += r.run.stats.graph_captures;
            self.graph_capture_cycles += r.run.stats.graph_capture_cycles;
            let d = &mut self.devices[r.device as usize];
            d.jobs_completed += 1;
            d.busy_secs += r.finish - r.exec_start;
            verdicts[r.job_idx] = Some(FleetVerdict::Completed(Box::new(FleetJobResult {
                outputs: r.run.outputs,
                tenant: r.tenant,
                arrival_secs: r.arrival,
                start_secs: r.exec_start,
                finish_secs: r.finish,
                latency_secs: r.finish - r.arrival,
                home: r.home,
                device: r.device,
                rerouted: r.rerouted,
                failed_over: r.failed_over,
                hedged: r.hedged,
                hedge_won: r.hedge_won,
                fetch: r.fetch,
                stats: r.run.stats,
            })));
        }

        Ok(verdicts
            .into_iter()
            .map(|v| v.expect("every job completes or is rejected"))
            .collect())
    }

    /// Handles one arrival: admission (reject vs reroute), home or
    /// guest dispatch, then optionally a hedge.
    fn on_arrival(&mut self, i: usize, job: &Job, t: f64) -> Result<Option<FleetVerdict>> {
        self.first_arrival.get_or_insert(t);
        let tenant = job.tenant.clone();
        let home = self.router.home(&tenant);

        // The home partitioner observes every arrival — dead or alive —
        // so slice widths are a pure function of the trace.
        self.devices[home.0 as usize]
            .partitioner
            .observe(&tenant, t)?;
        let slice = self.devices[home.0 as usize]
            .partitioner
            .slice(&tenant)
            .expect("observed tenant has a slice");

        let home_usable = self.router.usable(home);
        let home_finishes = self.tenant_finishes(&tenant, home.0, t);
        let alternates = self
            .router
            .usable_devices()
            .iter()
            .filter(|&&d| d != home.0)
            .count();
        let heal_hint = self.router.heal_hint_secs(t);

        let routed =
            self.admission
                .decide_routed(home_usable, &home_finishes, t, alternates, heal_hint);
        let (dev, base_sm, pressure, rerouted) = match routed {
            RouteDecision::Admit(p) => {
                self.router
                    .log_decision(t, &tenant, Some(i), "home", Some(home), String::new());
                (home, slice.base_sm, p, false)
            }
            RouteDecision::Reject { retry_after_secs } => {
                self.jobs_rejected += 1;
                self.router.log_decision(
                    t,
                    &tenant,
                    Some(i),
                    "reject",
                    Some(home),
                    format!("retry after {retry_after_secs:.3}s"),
                );
                return Ok(Some(FleetVerdict::Rejected { retry_after_secs }));
            }
            RouteDecision::Reroute => {
                let target = self
                    .router
                    .route(&tenant, Some(home))
                    .expect("Reroute implies a usable alternate");
                let finishes = self.tenant_finishes(&tenant, target.0, t);
                match self.admission.decide_event(&finishes, t) {
                    Decision::Admit(p) => {
                        self.router.log_decision(
                            t,
                            &tenant,
                            Some(i),
                            "reroute",
                            Some(target),
                            format!("home dev{} unusable or full", home.0),
                        );
                        // Guests run at the home width from base SM 0:
                        // placement is semantics-preserving, so the
                        // artifact and outputs match the home run.
                        (target, 0, p, true)
                    }
                    Decision::Reject { retry_after_secs } => {
                        self.jobs_rejected += 1;
                        self.router.log_decision(
                            t,
                            &tenant,
                            Some(i),
                            "reject",
                            Some(target),
                            "alternate also saturated".to_string(),
                        );
                        return Ok(Some(FleetVerdict::Rejected { retry_after_secs }));
                    }
                }
            }
        };

        let popts =
            pipeline_options_for(&self.opts.base, slice.num_sms, pressure, job.qos.policy());
        let key = cache_key(&job.graph, &popts);
        let usable = self.router.usable_devices();
        let (fetch, fetched) = self.store.fetch(key, &job.graph, dev, &usable)?;
        let (artifact, fetch_cost) = match (fetch, fetched) {
            (Fetch::LocalHit, Some(a)) => (a, 0.0),
            (Fetch::RemoteHit, Some(a)) => (a, self.opts.fetch_penalty_secs),
            _ => {
                let a = ResilientPipeline::new(popts)
                    .with_memo(self.memo.clone())
                    .compile(&job.graph)?;
                self.devices[dev.0 as usize].search_invocations += a.report.search_invocations();
                self.store.insert(key, a.clone(), dev, &usable);
                (a, self.opts.base.compile_penalty_secs)
            }
        };
        self.artifacts += 1;
        if artifact.isolation.is_some() {
            self.certified += 1;
        }
        let run = run_artifact(
            &artifact,
            job,
            &self.devices[dev.0 as usize].device.config,
            base_sm,
            self.opts.checkpoint_interval,
            None,
        )?;

        let busy = self.devices[dev.0 as usize]
            .busy
            .get(&tenant)
            .copied()
            .unwrap_or(0.0);
        let exec_start = t.max(busy) + fetch_cost;
        let finish = exec_start + run.time_secs;
        self.devices[dev.0 as usize]
            .busy
            .insert(tenant.clone(), finish);

        let state_words = artifact.report.checkpoint.state_words;
        let mut rec = Running {
            job_idx: i,
            tenant: tenant.clone(),
            qos: job.qos,
            device: dev.0,
            home: home.0,
            arrival: t,
            exec_start,
            finish,
            base_exec_secs: run.time_secs,
            trace_base: 0,
            key,
            state_words,
            artifact,
            run,
            fetch,
            rerouted,
            failed_over: 0,
            hedged: false,
            hedge_won: false,
        };

        if self.opts.hedge.enabled && rec.qos == QosClass::Interactive {
            self.maybe_hedge(&mut rec, t, fetch_cost)?;
        }

        self.last_finish = self.last_finish.max(rec.finish);
        self.history
            .entry(tenant)
            .or_default()
            .push(rec.finish - rec.arrival);
        self.inflight.push(rec);
        Ok(None)
    }

    /// Launches a hedge backup when the primary is projected past the
    /// tenant's p99, and resolves the race eagerly: the earlier virtual
    /// finish wins, and everything the loser burned — fetch or compile
    /// time included, measured from its service start to the cancel —
    /// is billed into the winner's disjoint `hedge_cycles`.
    fn maybe_hedge(&mut self, rec: &mut Running, t: f64, primary_fetch_cost: f64) -> Result<()> {
        let Some(backup) = self.router.route(&rec.tenant, Some(DeviceId(rec.device))) else {
            return Ok(());
        };
        let samples = self.history.get(&rec.tenant).map_or(&[][..], Vec::as_slice);
        let delay =
            percentile_of(samples, self.opts.hedge.percentile).max(self.opts.hedge.min_delay_secs);
        if rec.finish <= t + delay {
            return Ok(());
        }

        // The backup fetches from the store (the primary's device holds
        // a replica by now, so this is at worst a remote hit) and runs
        // the same deterministic execution.
        let usable = self.router.usable_devices();
        let (bfetch, _) =
            self.store
                .fetch(rec.key, &rec.artifact.compiled.graph, backup, &usable)?;
        let bcost = match bfetch {
            Fetch::LocalHit => 0.0,
            Fetch::RemoteHit => self.opts.fetch_penalty_secs,
            Fetch::Miss => self.opts.base.compile_penalty_secs,
        };
        let bbusy = self.devices[backup.0 as usize]
            .busy
            .get(&rec.tenant)
            .copied()
            .unwrap_or(0.0);
        let bstart = (t + delay).max(bbusy) + bcost;
        let bfinish = bstart + rec.base_exec_secs;

        self.hedges += 1;
        rec.hedged = true;
        self.router.log_decision(
            t,
            &rec.tenant,
            Some(rec.job_idx),
            "hedge",
            Some(backup),
            format!("delay {delay:.3}s, primary dev{}", rec.device),
        );

        let clock = self.opts.base.timing.clock_hz;
        if bfinish < rec.finish {
            // Backup wins. The primary burned from its service start
            // (compile/fetch included) until the cancel at the
            // backup's finish.
            self.hedge_wins += 1;
            let service_start = rec.exec_start - primary_fetch_cost;
            let burn_secs =
                (bfinish - service_start).clamp(0.0, primary_fetch_cost + rec.base_exec_secs);
            let burn = burn_secs * clock;
            rec.run.stats.cycles += burn;
            rec.run.stats.fault_overhead_cycles += burn;
            rec.run.stats.hedge_cycles += burn;
            rec.run.stats.assert_billing();
            self.devices[rec.device as usize]
                .busy
                .insert(rec.tenant.clone(), bfinish.min(rec.finish));
            rec.device = backup.0;
            rec.exec_start = bstart;
            rec.finish = bfinish;
            rec.hedge_won = true;
            self.devices[backup.0 as usize]
                .busy
                .insert(rec.tenant.clone(), bfinish);
        } else {
            // Primary wins. The backup burned from its service start
            // (if it started at all) until the primary's finish
            // cancelled it.
            let burn_secs = (rec.finish - (bstart - bcost)).clamp(0.0, bcost + rec.base_exec_secs);
            if burn_secs > 0.0 {
                let burn = burn_secs * clock;
                rec.run.stats.cycles += burn;
                rec.run.stats.fault_overhead_cycles += burn;
                rec.run.stats.hedge_cycles += burn;
                rec.run.stats.assert_billing();
                self.devices[backup.0 as usize]
                    .busy
                    .insert(rec.tenant.clone(), rec.finish.min(bfinish));
            }
        }
        Ok(())
    }

    /// Applies one device-grain fault event.
    fn on_fault(
        &mut self,
        fault: &gpusim::DeviceFaultEvent,
        heap: &mut BinaryHeap<Ev>,
        verdicts: &mut [Option<FleetVerdict>],
    ) {
        let d = fault.device;
        let t = fault.at_secs;
        if !self.router.alive(d) {
            return;
        }
        match fault.kind {
            DeviceFaultKind::Loss => {
                self.router.mark_dead(d);
                self.devices[d.0 as usize].alive = false;
                self.store.drop_device(d);
                self.router
                    .log_decision(t, "", None, "kill", Some(d), String::new());
                self.failover_sweep(d, t, verdicts);
            }
            DeviceFaultKind::Brownout {
                total_sms,
                heal_secs,
            } => {
                let ds = &mut self.devices[d.0 as usize];
                let restore_sms = ds.partitioner.capacity();
                let floor = (ds.partitioner.slices().len() as u32).max(1);
                let target = total_sms.max(floor);
                // Capacity changes can only fail when shrinking below
                // one SM per tenant, which the floor prevents.
                ds.partitioner
                    .set_capacity(target, t)
                    .expect("brownout capacity floored at tenant count");
                self.router.log_decision(
                    t,
                    "",
                    None,
                    "brownout",
                    Some(d),
                    format!("{restore_sms} -> {target} SMs"),
                );
                if let Some(heal) = heal_secs {
                    let seq = self.next_seq();
                    heap.push(Ev {
                        time: t + heal,
                        device: d.0,
                        tenant: String::new(),
                        seq,
                        kind: EvKind::BrownoutHeal { restore_sms },
                    });
                }
            }
            DeviceFaultKind::LinkPartition { heal_secs } => {
                self.router.mark_partitioned(d, t + heal_secs);
                self.router.log_decision(
                    t,
                    "",
                    None,
                    "partition",
                    Some(d),
                    format!("heals at {:.3}s", t + heal_secs),
                );
                let seq = self.next_seq();
                heap.push(Ev {
                    time: t + heal_secs,
                    device: d.0,
                    tenant: String::new(),
                    seq,
                    kind: EvKind::PartitionHeal,
                });
            }
        }
    }

    /// Fails every job in flight on a lost device over to a healthy
    /// replica: ship the last k-launch commit's state words, replay the
    /// launches past the commit, bill the overhead into the disjoint
    /// `failover_cycles` component. Jobs with no usable target are
    /// rejected (never lost).
    fn failover_sweep(&mut self, dead: DeviceId, t: f64, verdicts: &mut [Option<FleetVerdict>]) {
        let timing = self.opts.base.timing.clone();
        let mut survivors = Vec::with_capacity(self.inflight.len());
        for mut r in std::mem::take(&mut self.inflight) {
            if r.device != dead.0 || r.finish <= t {
                survivors.push(r);
                continue;
            }
            let Some(target) = self.router.route(&r.tenant, None) else {
                self.jobs_rejected += 1;
                let hint = self.router.heal_hint_secs(t);
                self.router.log_decision(
                    t,
                    &r.tenant,
                    Some(r.job_idx),
                    "abandon",
                    None,
                    "no usable device to fail over to".to_string(),
                );
                verdicts[r.job_idx] = Some(FleetVerdict::Rejected {
                    retry_after_secs: hint,
                });
                continue;
            };

            let usable = self.router.usable_devices();
            let (fetch, _) = self
                .store
                .fetch(r.key, &r.artifact.compiled.graph, target, &usable)
                .expect("artifact verified at insert");
            let fetch_cost = match fetch {
                Fetch::LocalHit => 0.0,
                Fetch::RemoteHit => self.opts.fetch_penalty_secs,
                Fetch::Miss => {
                    // Every replica died with the fleet's losses: pay a
                    // recompile and restore the store from the job's own
                    // copy of the artifact.
                    self.store
                        .insert(r.key, r.artifact.clone(), target, &usable);
                    self.opts.base.compile_penalty_secs
                }
            };

            let old_finish = r.finish;
            let tbusy = self.devices[target.0 as usize]
                .busy
                .get(&r.tenant)
                .copied()
                .unwrap_or(0.0);

            if r.exec_start >= t {
                // Never started executing: pure re-dispatch, no state to
                // ship, no launches to replay.
                let prefix: f64 = r.run.launch_cycles[..r.trace_base].iter().sum();
                let remaining = r.base_exec_secs - timing.secs(prefix);
                r.exec_start = t.max(tbusy) + fetch_cost;
                r.finish = r.exec_start + remaining;
            } else {
                let elapsed = (t - r.exec_start) * timing.clock_hz;
                let k = r.run.checkpoint_interval.max(1) as usize;
                let mut completed = r.trace_base;
                let mut cum = 0.0;
                for &lc in &r.run.launch_cycles[r.trace_base..] {
                    if cum + lc <= elapsed {
                        cum += lc;
                        completed += 1;
                    } else {
                        break;
                    }
                }
                let committed = r.trace_base.max(completed - completed % k);
                let replay: f64 = r.run.launch_cycles[committed..completed].iter().sum();
                let ship = timing.host_transfer_latency_cycles
                    + r.state_words as f64 * timing.host_transfer_cycles_per_word;
                // A graph-dispatched run re-enters its captured graph at
                // the committed node, but the capture itself was
                // device-resident state the dead device took with it:
                // re-entry on the replacement pays one fresh capture,
                // billed as failover overhead (the original capture
                // stays billed as productive cycles). The per-launch
                // trace already carries replay-path costs for steady
                // launches, so the window replay below re-enters at
                // doorbell cost, exactly as the original run paid.
                let recapture = if r.run.stats.graph_captures > 0 {
                    r.run.stats.graph_capture_cycles / r.run.stats.graph_captures as f64
                } else {
                    0.0
                };
                let overhead = ship + replay + recapture;
                r.run.stats.cycles += overhead;
                r.run.stats.fault_overhead_cycles += overhead;
                r.run.stats.failover_cycles += overhead;
                r.run.stats.assert_billing();

                let prefix: f64 = r.run.launch_cycles[..committed].iter().sum();
                let remaining = r.base_exec_secs - timing.secs(prefix);
                r.exec_start = t.max(tbusy) + fetch_cost + timing.secs(ship);
                r.finish = r.exec_start + timing.secs(replay) + remaining;
                r.trace_base = committed;
            }

            self.devices[target.0 as usize]
                .busy
                .insert(r.tenant.clone(), r.finish);
            r.device = target.0;
            r.failed_over += 1;
            self.failover_latencies
                .push((r.finish - old_finish).max(0.0));
            self.last_finish = self.last_finish.max(r.finish);
            self.router.log_decision(
                t,
                &r.tenant,
                Some(r.job_idx),
                "failover",
                Some(target),
                format!("{fetch:?} fetch, resumed from launch {}", r.trace_base),
            );
            survivors.push(r);
        }
        self.inflight = survivors;
    }

    /// Finish times of the tenant's jobs in flight on `device` after
    /// `now` — the admission controller's per-(tenant, device) backlog.
    fn tenant_finishes(&self, tenant: &str, device: u32, now: f64) -> Vec<f64> {
        self.inflight
            .iter()
            .filter(|r| r.tenant == tenant && r.device == device && r.finish > now)
            .map(|r| r.finish)
            .collect()
    }

    /// Snapshots the run into a serializable report. Call after
    /// [`FleetEngine::run`].
    #[must_use]
    pub fn report(&self) -> FleetReport {
        let makespan = (self.last_finish - self.first_arrival.unwrap_or(0.0)).max(0.0);
        FleetReport {
            devices: self.opts.devices.max(1),
            devices_alive: self.devices.iter().filter(|d| d.alive).count() as u32,
            makespan_secs: makespan,
            jobs_submitted: self.jobs_submitted,
            jobs_completed: self.jobs_completed,
            jobs_rejected: self.jobs_rejected,
            jobs_lost: self.jobs_submitted - self.jobs_completed - self.jobs_rejected,
            throughput_tokens_per_sec: if makespan > 0.0 {
                self.tokens_out as f64 / makespan
            } else {
                0.0
            },
            p50_latency_secs: percentile_of(&self.latencies, 0.50),
            p99_latency_secs: percentile_of(&self.latencies, 0.99),
            failovers: self.failover_latencies.len() as u64,
            failover_p50_secs: percentile_of(&self.failover_latencies, 0.50),
            failover_p99_secs: percentile_of(&self.failover_latencies, 0.99),
            hedges: self.hedges,
            hedge_wins: self.hedge_wins,
            cycles: self.cycles.round() as u64,
            fault_overhead_cycles: self.fault_overhead_cycles.round() as u64,
            failover_cycles: self.failover_cycles.round() as u64,
            hedge_cycles: self.hedge_cycles.round() as u64,
            launch_path_cycles: self.launch_path_cycles.round() as u64,
            graph_replays: self.graph_replays,
            graph_captures: self.graph_captures,
            graph_capture_cycles: self.graph_capture_cycles.round() as u64,
            artifacts: self.artifacts,
            certified: self.certified,
            search_invocations: self.devices.iter().map(|d| d.search_invocations).sum(),
            store: self.store.stats().clone(),
            router_decisions: self.router.log().len() as u64,
            per_device: self
                .devices
                .iter()
                .enumerate()
                .map(|(d, s)| DeviceReport {
                    device: d as u32,
                    alive: s.alive,
                    jobs_completed: s.jobs_completed,
                    busy_secs: s.busy_secs,
                    search_invocations: s.search_invocations,
                })
                .collect(),
        }
    }
}
