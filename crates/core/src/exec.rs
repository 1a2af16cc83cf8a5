//! The three GPU execution schemes: SWP, SWPNC, and Serial.
//!
//! [`compile`] runs the paper's whole trajectory — profile, select,
//! instance model, II search — producing a [`Compiled`] program.
//! [`execute`] then runs a scheme over the simulator:
//!
//! * [`Scheme::Swp`] — the software-pipelined kernel with the coalescing
//!   buffer layout; one launch per coarsened iteration; instances gated by
//!   staging predicates during pipeline fill and drain.
//! * [`Scheme::SwpNc`] — identical schedule over the natural FIFO layout;
//!   filters whose working set fits in shared memory stage through it.
//! * [`Scheme::Serial`] — one kernel per filter per batch in a SAS
//!   schedule, fully data-parallel within the filter, coalesced layout,
//!   buffers constrained to a single batch in flight.

use gpusim::{
    BlockWork, CheckpointMode, DeviceConfig, Dispatch, FaultPlan, Gpu, InstanceExec, Launch,
    LaunchStats, TimingModel,
};
use streamir::graph::{FlatGraph, NodeId};
use streamir::ir::Scalar;

use crate::codegen::{self, ProgramBuffers};
use crate::config::{self, Selection};
use crate::instances::{self, ExecConfig, InstanceGraph};
use crate::plan::{self, LayoutKind};
use crate::profile::{self, staging_fits, ProfileOptions};
use crate::schedule::{self, Schedule, SearchOptions, SearchReport};
use crate::{Error, Result};

/// Everything [`compile`] needs to know.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// The simulated device.
    pub device: DeviceConfig,
    /// Its timing calibration.
    pub timing: TimingModel,
    /// The profiling grid.
    pub profile: ProfileOptions,
    /// The II search configuration.
    pub search: SearchOptions,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            device: DeviceConfig::gts512(),
            timing: TimingModel::gts512(),
            profile: ProfileOptions::paper(),
            search: SearchOptions::default(),
        }
    }
}

impl CompileOptions {
    /// A small configuration for tests and examples: few threads, the
    /// heuristic scheduler, a small device.
    #[must_use]
    pub fn small_test() -> CompileOptions {
        CompileOptions {
            device: DeviceConfig::small_test(),
            timing: TimingModel::gts512(),
            profile: ProfileOptions::small(&[16, 32]),
            search: SearchOptions {
                scheduler: crate::schedule::SchedulerKind::Heuristic,
                ..SearchOptions::default()
            },
        }
    }
}

/// A fully scheduled stream program, ready to execute under any scheme.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The flattened graph.
    pub graph: FlatGraph,
    /// The selected execution configuration.
    pub exec_cfg: ExecConfig,
    /// Full selection diagnostics (candidate table).
    pub selection: Selection,
    /// The instance-level model.
    pub ig: InstanceGraph,
    /// The software-pipelined schedule.
    pub schedule: Schedule,
    /// How the schedule was found.
    pub report: SearchReport,
    /// Device shape used for compilation and execution.
    pub device: DeviceConfig,
    /// Timing model used for execution.
    pub timing: TimingModel,
}

/// The front half of the trajectory (profile → select → instance model),
/// shared between [`compile`] and the resilient pipeline driver
/// ([`crate::pipeline::ResilientPipeline`]), which tries several
/// scheduling rungs over the same front-end result.
pub(crate) struct FrontEnd {
    pub selection: Selection,
    pub exec_cfg: ExecConfig,
    pub ig: InstanceGraph,
    /// The search options with the coarsening cap already applied.
    pub search: SearchOptions,
}

pub(crate) fn compile_front(
    graph: &FlatGraph,
    opts: &CompileOptions,
    memo: &profile::ProfileMemo,
) -> Result<FrontEnd> {
    // Feedback graphs may need thread counts below the grid's smallest
    // entry (capped by the loop's initial-token depth): extend the grid.
    let mut profile_opts = opts.profile.clone();
    if let Some(cap) = graph
        .edges()
        .iter()
        .filter(|e| !e.initial.is_empty())
        .map(|e| e.initial.len() as u32)
        .min()
    {
        if !profile_opts.thread_counts.iter().any(|&t| t <= cap) {
            profile_opts.thread_counts.push(cap.max(1));
        }
    }
    let table = profile::profile_memoized(graph, &profile_opts, &opts.device, &opts.timing, memo)?;
    let selection = config::select(graph, &table)?;
    let exec_cfg = selection.exec.clone();
    let ig = instances::build(graph, &exec_cfg)?;
    // Stateful filters and feedback loops cannot be coarsened (sub-firing
    // interleaving would break their cross-iteration serial chains), so
    // the schedule only needs C = 1.
    let mut search = opts.search.clone();
    if instances::requires_serial_iterations(graph) {
        search.coarsening_max = 1;
    }
    Ok(FrontEnd {
        selection,
        exec_cfg,
        ig,
        search,
    })
}

/// Compiles a graph end-to-end (Figure 5 of the paper).
///
/// # Errors
///
/// Any stage can fail: infeasible configuration grid, inconsistent rates,
/// schedule search exhaustion. Errors carry the failing stage's context.
pub fn compile(graph: &FlatGraph, opts: &CompileOptions) -> Result<Compiled> {
    let fe = compile_front(graph, opts, &profile::ProfileMemo::default())?;
    let (schedule, report) = schedule::find(&fe.ig, &fe.exec_cfg, opts.device.num_sms, &fe.search)?;
    Ok(Compiled {
        graph: graph.clone(),
        exec_cfg: fe.exec_cfg,
        selection: fe.selection,
        ig: fe.ig,
        schedule,
        report,
        device: opts.device.clone(),
        timing: opts.timing.clone(),
    })
}

/// Which execution scheme to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Optimized software pipelining; `coarsening` basic iterations per
    /// kernel launch (the paper's SWP / SWP4 / SWP8 / SWP16).
    Swp {
        /// Basic iterations per launch.
        coarsening: u32,
    },
    /// Software pipelining without coalescing (natural FIFO layout;
    /// shared-memory staging where the working set fits).
    SwpNc {
        /// Basic iterations per launch.
        coarsening: u32,
    },
    /// Serialized SAS execution: one kernel per filter per batch.
    Serial {
        /// Basic iterations per batch (buffer-constrained to match SWP8).
        batch: u32,
    },
    /// Ablation variant: software pipelining on the natural FIFO layout
    /// with shared-memory staging disabled — isolates the buffer-layout
    /// contribution from the staging fallback.
    SwpRaw {
        /// Basic iterations per launch.
        coarsening: u32,
    },
}

/// Bounded retry policy for transient device faults (injected launch
/// failures, detected memory corruptions, watchdog kills).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per launch, including the first (1 = no retry).
    /// A launch still faulted after this many attempts propagates its
    /// error.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3 }
    }
}

/// How the executor picks the checkpoint protocol protecting stateful
/// filter state across retried launches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointSpec {
    /// Let the cost model decide ([`crate::plan::checkpoint_plan`]): the
    /// cheaper of the two modes for this program's state footprint and
    /// the fault plan's expected restore rate.
    #[default]
    Auto,
    /// Force a specific mode (experiments and A/B tests).
    Force(CheckpointMode),
}

/// Pins a compiled program onto a contiguous SM slice of a larger
/// physical device: a program compiled for `k` SMs executes its `k`
/// blocks on SMs `[base_sm, base_sm + k)` of `device`. The multi-tenant
/// runtime uses this to co-schedule tenants on disjoint slices; because
/// both the functional semantics and the launch timing bound are
/// placement-invariant, a sliced run is byte- and cycle-identical to a
/// solo run on a `k`-SM device.
#[derive(Debug, Clone)]
pub struct SmPlacement {
    /// The physical device executed on (its SM count may exceed the
    /// compiled device's).
    pub device: DeviceConfig,
    /// First SM of this program's slice.
    pub base_sm: u32,
}

/// Execution-time options: fault injection and the retry policy.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Fault plan installed on the device before the first launch.
    pub fault_plan: Option<FaultPlan>,
    /// How many times a transiently-faulted launch is re-attempted.
    pub retry: RetryPolicy,
    /// Checkpoint-protocol selection. Only billed (and, for the
    /// double-buffered mode, only materialized on the device) when a
    /// fault plan is armed; fault-free runs are byte-identical across
    /// all settings.
    pub checkpoint: CheckpointSpec,
    /// Execute on an SM slice of a larger device instead of the compiled
    /// device (multi-tenant co-scheduling). `None` runs on the compiled
    /// device at offset 0.
    pub placement: Option<SmPlacement>,
    /// Commit the stateful-state checkpoint every `k` launches instead of
    /// every launch (`0` and `1` both mean every launch). Recovery from a
    /// transient fault then restores the last committed snapshot and
    /// *replays* the up-to-`k − 1` launches completed since it, with the
    /// replays truthfully billed into [`LaunchStats::replay_cycles`].
    /// Channel buffers gain `k − 1` extra live windows per channel
    /// ([`crate::plan::plan_with_replay_slack`]) so replayed launches
    /// never read overwritten regions. Only takes effect when a fault
    /// plan is armed; fault-free and scaled-measurement runs always
    /// commit per launch and plan canonical buffers.
    pub checkpoint_interval: u32,
    /// Adaptive hang-detection margin (the tail-latency watchdog). When
    /// set, each successful launch tightens the device's watchdog
    /// instruction budget to `margin ×` the largest instruction count
    /// any successful launch has issued, so a hang is killed after a
    /// small multiple of a legitimate launch instead of burning the
    /// full display-watchdog interval
    /// ([`gpusim::timing::WATCHDOG_SECS`]). A kill that was the
    /// tightened budget's own fault — a later launch legitimately
    /// bigger than everything seen so far — self-corrects: every kill
    /// at a tightened budget doubles the armed budget before the retry
    /// and is billed but *not* counted against
    /// [`RetryPolicy::max_attempts`], so a wrongly-killed launch always
    /// makes progress and only kills at the device's true budget can
    /// exhaust the retry bound. Only takes effect when a fault plan is
    /// armed; fault-free and scaled-measurement runs keep the device
    /// default. `None` (the default) never tightens.
    pub watchdog_margin: Option<u32>,
    /// Dispatch the steady-state window of SWP-family schemes as replays
    /// of a captured graph instead of host-driven launches. The capture
    /// ([`crate::codegen::capture_graph`]) is billed once at steady
    /// entry; every steady launch then pays the doorbell
    /// ([`gpusim::TimingModel::graph_replay_overhead_cycles`]) instead of
    /// the host launch overhead. Prologue (fill) and epilogue (drain)
    /// launches stay host-launched — their staging predicates differ per
    /// iteration. Checkpoint-window recovery re-enters the captured
    /// graph for steady ordinals: a replayed steady launch is replayed
    /// *as a graph replay*, billed into the same disjoint fault buckets.
    /// Functionally inert — per-job outputs are byte-identical to
    /// host-launch mode — and ignored by the serial scheme, which has no
    /// fixed steady-state graph to capture.
    pub graph_dispatch: bool,
}

/// The outcome of a GPU execution.
#[derive(Debug, Clone)]
pub struct GpuRun {
    /// The graph-output stream: init-phase tokens followed by
    /// `iterations` steady iterations' worth.
    pub outputs: Vec<Scalar>,
    /// Merged statistics over every launch.
    pub stats: LaunchStats,
    /// Total modeled time in seconds.
    pub time_secs: f64,
    /// Kernel launches issued.
    pub launches: u64,
    /// Launch attempts that faulted transiently and were re-run from the
    /// last consistent buffer state (their cost is billed into
    /// [`LaunchStats::fault_overhead_cycles`] and the total time).
    pub retries: u64,
    /// Total channel-buffer bytes of the plan (Table II's quantity).
    pub buffer_bytes: u64,
    /// The checkpoint mode the run protected stateful state with
    /// (cost-model choice under [`CheckpointSpec::Auto`]).
    pub checkpoint_mode: CheckpointMode,
    /// The commit interval the run actually used: state committed every
    /// this-many launches (1 unless a fault plan was armed and
    /// [`RunOptions::checkpoint_interval`] asked for more).
    pub checkpoint_interval: u32,
    /// Modeled cycles of each completed launch, in issue order — the
    /// per-launch trace makespan-variance experiments need. Empty for
    /// scaled measurement runs ([`measure`]), where most launches are
    /// extrapolated rather than simulated.
    pub launch_cycles: Vec<f64>,
}

/// Input tokens an execution of `iterations` basic steady iterations
/// consumes (initialization phase + iterations, plus the entry filter's
/// peek slack). Returns 0 for graphs without an external input.
#[must_use]
pub fn required_input(c: &Compiled, iterations: u64) -> u64 {
    let Some(entry) = c.graph.input() else {
        return 0;
    };
    let work = &c.graph.node(entry).work;
    let pop = work.pop_rate(0);
    let peek = work.peek_rate(0);
    let t = c.exec_cfg.threads[entry.0 as usize];
    let per_inst = u64::from(pop) * u64::from(t);
    let per_iter = u64::from(c.ig.reps[entry.0 as usize]) * per_inst;
    let init = u64::from(c.ig.init[entry.0 as usize]) * per_inst;
    init + iterations * per_iter + u64::from(peek - pop)
}

/// Executes `iterations` basic steady iterations under `scheme`.
///
/// `input` must supply the initialization phase plus all iterations
/// (`init + iterations × per-iteration` tokens).
///
/// # Errors
///
/// * [`Error::Api`] if `iterations` is not a multiple of the scheme's
///   coarsening/batch factor.
/// * [`Error::Stream`] for insufficient input.
/// * [`Error::Sim`] for device faults.
pub fn execute(c: &Compiled, scheme: Scheme, iterations: u64, input: &[Scalar]) -> Result<GpuRun> {
    execute_inner(c, scheme, iterations, input, false, &RunOptions::default())
}

/// [`execute`] with explicit [`RunOptions`]: install a fault plan on the
/// device and/or bound the retry policy. With an exhausting fault plan
/// (more consecutive transient faults on one launch than
/// [`RetryPolicy::max_attempts`]) the transient error propagates as
/// [`Error::Sim`].
///
/// # Errors
///
/// As for [`execute`].
pub fn execute_with(
    c: &Compiled,
    scheme: Scheme,
    iterations: u64,
    input: &[Scalar],
    opts: &RunOptions,
) -> Result<GpuRun> {
    execute_inner(c, scheme, iterations, input, false, opts)
}

/// The (iteration granule, buffer layout) shape of a scheme. Shared by
/// the executor and the static verifier so both plan identical buffers.
pub(crate) fn scheme_shape(scheme: Scheme) -> (u32, LayoutKind) {
    match scheme {
        Scheme::Swp { coarsening } => (coarsening.max(1), LayoutKind::Optimized),
        Scheme::SwpNc { coarsening } | Scheme::SwpRaw { coarsening } => {
            (coarsening.max(1), LayoutKind::Sequential)
        }
        Scheme::Serial { batch } => (batch.max(1), LayoutKind::Optimized),
    }
}

fn execute_inner(
    c: &Compiled,
    scheme: Scheme,
    iterations: u64,
    input: &[Scalar],
    scaled: bool,
    opts: &RunOptions,
) -> Result<GpuRun> {
    let (granule, kind) = scheme_shape(scheme);
    if iterations == 0 || !iterations.is_multiple_of(u64::from(granule)) {
        return Err(Error::Api(format!(
            "iterations ({iterations}) must be a positive multiple of the \
             coarsening/batch factor ({granule})"
        )));
    }
    if granule > 1
        && !matches!(scheme, Scheme::Serial { .. })
        && instances::requires_serial_iterations(&c.graph)
    {
        return Err(Error::Api(
            "stateful filters and feedback loops cannot be coarsened: \
             sub-firing interleaving would break their cross-iteration \
             serial order (run with coarsening 1)"
                .into(),
        ));
    }
    let sched = match scheme {
        Scheme::Serial { .. } => None,
        _ => Some(&c.schedule),
    };
    // k-launch checkpointing only matters (and is only billed) under an
    // armed fault plan; scaled measurement extrapolates merged steady
    // launches, so it always commits per launch over canonical buffers.
    let interval = if opts.fault_plan.is_some() && !scaled {
        opts.checkpoint_interval.max(1)
    } else {
        1
    };
    // The adaptive watchdog has the same gate: fault-free runs must be
    // byte- and cycle-identical across all settings, and scaled
    // measurement merges steady launches into outsized composites the
    // tightened budget would wrongly kill.
    let watchdog_margin = if opts.fault_plan.is_some() && !scaled {
        u64::from(opts.watchdog_margin.unwrap_or(0))
    } else {
        0
    };
    let plan = plan::plan_with_replay_slack(&c.graph, &c.ig, sched, granule, kind, interval - 1);

    // In scaled mode only a bounded window of launches is simulated, so
    // buffers (and the required input) cover just that window; addresses
    // of far-future iterations wrap harmlessly (their data is not used).
    let alloc_iters = if scaled {
        iterations.min((c.schedule.max_stage() + 4) * u64::from(granule))
    } else {
        iterations
    };
    let (exec_device, sm_offset) = match &opts.placement {
        Some(p) => {
            if p.base_sm + c.device.num_sms > p.device.num_sms {
                return Err(Error::Api(format!(
                    "SM slice [{}, {}) does not fit the {}-SM execution device",
                    p.base_sm,
                    p.base_sm + c.device.num_sms,
                    p.device.num_sms
                )));
            }
            (p.device.clone(), p.base_sm)
        }
        None => (c.device.clone(), 0),
    };
    let mut gpu = Gpu::with_timing(exec_device, c.timing.clone());
    if let Some(fault_plan) = &opts.fault_plan {
        gpu.inject_faults(fault_plan.clone());
    }
    let buffers = codegen::allocate(&mut gpu, &c.graph, &c.ig, &c.exec_cfg, &plan, alloc_iters)?;
    check_input_len(c, &buffers, input)?;
    let init_out = buffers.seed_init_state(&mut gpu, &c.graph, &c.ig, &c.exec_cfg, input)?;
    if buffers.input.is_some() {
        buffers.write_input(&mut gpu, input);
    }

    let ckpt_plan = plan::checkpoint_plan(&c.graph, &c.timing, opts.fault_plan.as_ref());
    let mode = match opts.checkpoint {
        CheckpointSpec::Auto => ckpt_plan.mode,
        CheckpointSpec::Force(m) => m,
    };
    let mut ckpt = Checkpointer::new(&mut gpu, c, &buffers, mode, opts.fault_plan.is_some())?;

    let mut totals = LaunchStats::default();
    let mut launches = 0u64;
    let mut retries = 0u64;
    let mut trace = Vec::new();
    match scheme {
        Scheme::Swp { .. } | Scheme::SwpNc { .. } | Scheme::SwpRaw { .. } => {
            // Both optimized and no-coalesce schemes stage fitting working
            // sets through shared memory (the raw ablation variant does
            // not); the layouts differ for everything that does not fit.
            let staged = !matches!(scheme, Scheme::SwpRaw { .. });
            run_swp(
                c,
                &buffers,
                granule,
                iterations,
                staged,
                scaled,
                sm_offset,
                opts.graph_dispatch,
                &mut gpu,
                &mut totals,
                &mut launches,
                opts.retry,
                &mut retries,
                &mut ckpt,
                interval,
                watchdog_margin,
                &mut trace,
            )?;
        }
        Scheme::Serial { .. } => {
            run_serial(
                c,
                &buffers,
                granule,
                iterations,
                scaled,
                sm_offset,
                &mut gpu,
                &mut totals,
                &mut launches,
                opts.retry,
                &mut retries,
                &mut ckpt,
                interval,
                watchdog_margin,
                &mut trace,
            )?;
        }
    }

    // The simulated-retry counter is exact even in scaled mode (where
    // merged steady-window stats are extrapolated, not re-simulated).
    totals.retries = retries;
    // Fault billing must account: the disjoint overhead components sum
    // to the fault overhead, which never exceeds the wall cycles.
    totals.assert_billing();

    let outputs = if scaled {
        Vec::new()
    } else {
        collect_output(c, &buffers, &gpu, iterations, init_out)
    };
    Ok(GpuRun {
        outputs,
        time_secs: totals.time_secs,
        launches,
        retries,
        buffer_bytes: plan.total_bytes(),
        checkpoint_mode: mode,
        checkpoint_interval: interval,
        launch_cycles: if scaled { Vec::new() } else { trace },
        stats: totals,
    })
}

/// Measures `iterations` steady iterations under `scheme` without full
/// functional execution: the pipeline fill and drain launches are
/// simulated exactly, two steady-window launches are simulated and
/// verified to have identical counters (true whenever control flow is
/// data-independent, as in the whole benchmark suite), and the steady
/// window is scaled to the requested length. This matches how the paper
/// measures long runs, at simulation cost independent of `iterations`.
///
/// The returned [`GpuRun::outputs`] is empty (skipped iterations leave
/// the output buffer undefined); use [`execute`] when outputs matter.
///
/// # Errors
///
/// As for [`execute`].
pub fn measure(c: &Compiled, scheme: Scheme, iterations: u64, input: &[Scalar]) -> Result<GpuRun> {
    execute_inner(c, scheme, iterations, input, true, &RunOptions::default())
}

/// Input tokens [`measure`] needs: enough for the initialization phase
/// plus the simulated window (fill + verification launches).
#[must_use]
pub fn measure_input(c: &Compiled, scheme: Scheme) -> u64 {
    let granule = match scheme {
        Scheme::Swp { coarsening }
        | Scheme::SwpNc { coarsening }
        | Scheme::SwpRaw { coarsening } => coarsening.max(1),
        Scheme::Serial { batch } => batch.max(1),
    };
    let window = (c.schedule.max_stage() + 4) * u64::from(granule);
    required_input(c, window)
}

fn check_input_len(c: &Compiled, buffers: &ProgramBuffers, input: &[Scalar]) -> Result<()> {
    if let Some(io) = &buffers.input {
        // The allocation already covers init + iterations (+ peek slack);
        // require the caller to fill everything but the slack.
        let needed = io.tokens;
        if (input.len() as u64) < needed {
            return Err(Error::Stream(streamir::Error::InsufficientInput {
                needed: needed as usize,
                got: input.len(),
            }));
        }
    }
    let _ = c;
    Ok(())
}

/// The retry protocol's checkpoint of the only device state a launch
/// mutates *in place*: the stateful filters' state words. Every other
/// word a launch writes (channel tokens, outputs) is a deterministic
/// function of inputs the launch does not overwrite — and within one
/// launch each block's producer→consumer instance order re-runs
/// identically — so relaunching after a partial execution recomputes
/// those words bit-identically. Restoring the committed snapshot
/// therefore returns the device to the last consistent buffer state.
///
/// Two protocols, priced by the timing model's checkpoint cost model:
///
/// * [`CheckpointMode::HostRoundTrip`] — capture copies the state words
///   to the host before each launch; a restore copies them back. Both
///   directions pay the host-transfer latency plus per-word cost.
/// * [`CheckpointMode::DeviceDoubleBuffered`] — the state words are
///   additionally mirrored into one of two on-device shadow buffers
///   (alternating per launch); commit and restore are device-to-device
///   copies at the much cheaper per-word commit cost, with no host
///   latency. A host mirror is still kept so recovery can be *validated*
///   bit-identical against the committed snapshot — the mirror is a
///   correctness check, not a billed mechanism.
///
/// When no fault plan is armed the protocol is unbilled and the shadow
/// buffers are never allocated, so fault-free runs are byte-identical to
/// the pre-checkpointing executor.
struct Checkpointer {
    /// `(live state base, word count)` per stateful filter.
    regions: Vec<(u32, u32)>,
    /// Host copy of the last committed snapshot, regions concatenated.
    committed: Vec<u32>,
    mode: CheckpointMode,
    /// The two on-device shadow buffers (double-buffered mode, armed).
    shadow: Option<[u32; 2]>,
    /// Which shadow buffer holds the last committed snapshot.
    current: usize,
    /// Whether a fault plan is armed (enables billing + shadow writes).
    armed: bool,
}

impl Checkpointer {
    fn new(
        gpu: &mut Gpu,
        c: &Compiled,
        buffers: &ProgramBuffers,
        mode: CheckpointMode,
        armed: bool,
    ) -> Result<Checkpointer> {
        let mut regions = Vec::new();
        for (node, base) in c.graph.nodes().iter().zip(&buffers.state_base) {
            if let Some(base) = *base {
                regions.push((base, node.work.states().len().max(1) as u32));
            }
        }
        let words: u32 = regions.iter().map(|&(_, len)| len).sum();
        let shadow = if armed && mode == CheckpointMode::DeviceDoubleBuffered && words > 0 {
            Some([gpu.try_alloc_tokens(words)?, gpu.try_alloc_tokens(words)?])
        } else {
            None
        };
        Ok(Checkpointer {
            regions,
            committed: Vec::new(),
            mode,
            shadow,
            current: 0,
            armed,
        })
    }

    fn words(&self) -> u64 {
        self.regions.iter().map(|&(_, len)| u64::from(len)).sum()
    }

    /// Snapshots the live state words before a launch. Returns the billed
    /// checkpoint cycles (0 when unarmed or stateless).
    fn commit(&mut self, gpu: &mut Gpu) -> Result<f64> {
        let mut snap = Vec::with_capacity(self.committed.len());
        for &(base, len) in &self.regions {
            for i in 0..len {
                snap.push(gpu.memory().read(u64::from(base + i))?);
            }
        }
        self.committed = snap;
        let words = self.words();
        if !self.armed || words == 0 {
            return Ok(0.0);
        }
        match self.mode {
            CheckpointMode::HostRoundTrip => Ok(gpu.timing().checkpoint_capture_cycles(words)),
            CheckpointMode::DeviceDoubleBuffered => {
                // One extra on-device state write per launch: mirror the
                // snapshot into the alternate shadow buffer and flip.
                let cost = gpu.timing().state_copy_cycles(words);
                let next = 1 - self.current;
                if let Some(shadow) = self.shadow {
                    for (i, &w) in self.committed.iter().enumerate() {
                        gpu.memory_mut()
                            .write(u64::from(shadow[next]) + i as u64, w)?;
                    }
                }
                self.current = next;
                Ok(cost)
            }
        }
    }

    /// Restores the last committed snapshot after a transient fault.
    /// Returns the billed restore cycles (0 when unarmed or stateless).
    fn restore(&self, gpu: &mut Gpu) -> Result<f64> {
        let words = self.words();
        let mut cost = 0.0;
        if self.armed && words > 0 {
            cost = match self.mode {
                CheckpointMode::HostRoundTrip => gpu.timing().checkpoint_restore_cycles(words),
                CheckpointMode::DeviceDoubleBuffered => gpu.timing().state_copy_cycles(words),
            };
        }
        // Double-buffered recovery reads the committed on-device shadow;
        // validate it bit-identical against the host mirror before
        // trusting it.
        if let Some(shadow) = self.shadow {
            for (i, &expect) in self.committed.iter().enumerate() {
                let got = gpu
                    .memory()
                    .read(u64::from(shadow[self.current]) + i as u64)?;
                if got != expect {
                    return Err(Error::Api(format!(
                        "double-buffered checkpoint corrupt: shadow word {i} \
                         is {got:#x}, committed mirror says {expect:#x}"
                    )));
                }
            }
        }
        let mut it = self.committed.iter();
        for &(base, len) in &self.regions {
            for i in 0..len {
                let w = *it.next().expect("committed snapshot covers all regions");
                gpu.memory_mut().write(u64::from(base + i), w)?;
            }
        }
        Ok(cost)
    }
}

/// The adaptive hang-detection tuner behind
/// [`RunOptions::watchdog_margin`]: tracks the largest instruction count
/// any successful launch has issued and keeps the device's watchdog
/// budget at `margin ×` that evidence. Inert at margin 0.
struct WatchdogTuner {
    /// Tightening factor (0 = disabled, the device default stands).
    margin: u64,
    /// The device's true (display-interval) watchdog budget.
    default_budget: u64,
    /// Largest warp-instruction count a successful launch has issued.
    max_insts: u64,
}

impl WatchdogTuner {
    fn new(margin: u64, default_budget: u64) -> WatchdogTuner {
        WatchdogTuner {
            margin,
            default_budget,
            max_insts: 0,
        }
    }

    /// Re-tightens the budget from a successful launch's true size.
    fn observe_success(&mut self, gpu: &mut Gpu, stats: &LaunchStats) {
        if self.margin == 0 {
            return;
        }
        self.max_insts = self.max_insts.max(stats.warp_instructions);
        let tight = self
            .max_insts
            .saturating_mul(self.margin)
            .clamp(1, self.default_budget);
        gpu.set_watchdog_budget(Some(tight));
    }

    /// Reacts to a transient fault. Returns whether the failure counts
    /// against the retry budget: a watchdog kill at a *tightened* budget
    /// may be the tuner's own false positive (a launch legitimately
    /// bigger than `margin ×` everything seen so far), so the armed
    /// budget doubles and the attempt is billed but not counted —
    /// progress is guaranteed because the budget reaches the device
    /// default after finitely many doublings, where kills count again.
    fn absorb_fault(&mut self, gpu: &mut Gpu, err: &gpusim::SimError) -> bool {
        if self.margin == 0 || !matches!(err, gpusim::SimError::WatchdogTimeout { .. }) {
            return true;
        }
        let armed = gpu.watchdog_budget();
        if armed >= self.default_budget {
            return true;
        }
        gpu.set_watchdog_budget(Some(armed.saturating_mul(2).min(self.default_budget)));
        false
    }
}

/// The k-launch commit window: which launch ordinals have completed since
/// the last checkpoint commit. At `interval == 1` the window drains after
/// every launch and the sequencer degenerates exactly to per-launch
/// commit-and-retry; at `interval == k > 1` the checkpoint commits every
/// k launches and recovery replays the window.
struct CommitWindow {
    interval: u32,
    pending: Vec<u64>,
}

impl CommitWindow {
    fn new(interval: u32) -> CommitWindow {
        CommitWindow {
            interval: interval.max(1),
            pending: Vec::new(),
        }
    }
}

/// Runs one launch with bounded retry-with-replay: on a transient fault
/// ([`gpusim::SimError::is_transient`]) the stateful-state checkpoint is
/// restored, the failed attempt's true cost is accumulated (billed via
/// [`TimingModel::failed_attempt_cycles`] into the successful attempt's
/// stats), every launch completed since the last commit is *replayed*
/// from its (still-live, replay-slack-planned) inputs, and the faulted
/// launch is re-run. The fault plan draws per lifetime attempt ordinal,
/// so every retry and every replay gets a fresh, independent draw; a
/// fault during replay restarts the window replay under the same bounded
/// attempts budget.
///
/// Billing is truthful and disjoint: failed attempts into
/// [`LaunchStats::failed_attempt_cycles`], commit/restore copies into
/// [`LaunchStats::checkpoint_cycles`], replayed launches' full cost into
/// [`LaunchStats::replay_cycles`] — all folded into
/// `fault_overhead_cycles` and the wall cycles.
#[allow(clippy::too_many_arguments)] // one internal dispatch point
fn run_launch_windowed<'a, F, D>(
    gpu: &mut Gpu,
    ordinal: u64,
    build: &F,
    dispatch_of: &D,
    retry: RetryPolicy,
    retries: &mut u64,
    ckpt: &mut Checkpointer,
    window: &mut CommitWindow,
    tuner: &mut WatchdogTuner,
) -> Result<LaunchStats>
where
    F: Fn(u64) -> Result<Launch<'a>>,
    D: Fn(u64) -> Dispatch,
{
    // A faulted attempt's sunk cost depends on the path it took: a
    // rejected replay burned a doorbell, not a host launch.
    let failed_cycles = |gpu: &Gpu, ordinal: u64, e: &gpusim::SimError| match dispatch_of(ordinal) {
        Dispatch::HostLaunch => gpu.timing().failed_attempt_cycles(e),
        Dispatch::GraphReplay => gpu.timing().failed_replay_attempt_cycles(e),
    };
    // The checkpoint commits only at window boundaries: every k-th
    // launch opens a fresh window over a just-committed snapshot.
    let mut ckpt_cycles = if window.pending.is_empty() {
        ckpt.commit(gpu)?
    } else {
        0.0
    };
    let mut fault_cycles = 0.0f64;
    let mut replay_cycles = 0.0f64;
    // Attempts counted against the retry budget; kills at a tightened
    // watchdog budget retry for free (see [`WatchdogTuner`]) but still
    // show up in `tries` (and the retry counters and the billing).
    let mut attempt = 0u32;
    let mut tries = 0u64;
    let max_attempts = retry.max_attempts.max(1);
    let launch = build(ordinal)?;
    let give_up = |e: gpusim::SimError, attempts: u32| {
        Error::sim_while(
            e,
            format!(
                "relaunching a faulted steady-state launch \
                 (gave up after {attempts} attempts)"
            ),
        )
    };
    loop {
        match gpu.run_dispatched(&launch, dispatch_of(ordinal)) {
            Ok(mut stats) => {
                tuner.observe_success(gpu, &stats);
                stats.retries = tries;
                let overhead = fault_cycles + ckpt_cycles + replay_cycles;
                if overhead > 0.0 {
                    stats.fault_overhead_cycles += overhead;
                    stats.failed_attempt_cycles += fault_cycles;
                    stats.checkpoint_cycles += ckpt_cycles;
                    stats.replay_cycles += replay_cycles;
                    stats.cycles += overhead;
                    stats.time_secs = gpu.timing().secs(stats.cycles);
                }
                window.pending.push(ordinal);
                if window.pending.len() >= window.interval as usize {
                    window.pending.clear();
                }
                return Ok(stats);
            }
            Err(e) if e.is_transient() => {
                let counted = tuner.absorb_fault(gpu, &e);
                if counted && attempt + 1 >= max_attempts {
                    return Err(give_up(e, attempt + 1));
                }
                if counted {
                    attempt += 1;
                }
                tries += 1;
                *retries += 1;
                fault_cycles += failed_cycles(gpu, ordinal, &e);
                ckpt_cycles += ckpt.restore(gpu)?;
                // Replay the window from the restored snapshot before
                // retrying the faulted launch. A replay that itself
                // faults restores again and restarts the whole window,
                // spending the same bounded attempts budget. Window
                // entries re-enter the captured graph when their ordinal
                // was graph-dispatched: recovery replays the same path
                // the original launch took, at the same cost.
                let mut i = 0usize;
                while i < window.pending.len() {
                    let replay = build(window.pending[i])?;
                    match gpu.run_dispatched(&replay, dispatch_of(window.pending[i])) {
                        Ok(s) => {
                            tuner.observe_success(gpu, &s);
                            replay_cycles += s.cycles;
                            i += 1;
                        }
                        Err(e2) if e2.is_transient() => {
                            let counted = tuner.absorb_fault(gpu, &e2);
                            if counted && attempt + 1 >= max_attempts {
                                return Err(give_up(e2, attempt + 1));
                            }
                            if counted {
                                attempt += 1;
                            }
                            tries += 1;
                            *retries += 1;
                            fault_cycles += failed_cycles(gpu, window.pending[i], &e2);
                            ckpt_cycles += ckpt.restore(gpu)?;
                            i = 0;
                        }
                        Err(e2) => return Err(e2.into()),
                    }
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// The software-pipelined kernel: one launch per coarsened iteration,
/// per-SM instance lists ordered by offset, staging predicates for fill
/// and drain.
#[allow(clippy::too_many_arguments)]
fn run_swp(
    c: &Compiled,
    buffers: &ProgramBuffers,
    coarsening: u32,
    iterations: u64,
    staged: bool,
    scaled: bool,
    sm_offset: u32,
    graph_dispatch: bool,
    gpu: &mut Gpu,
    totals: &mut LaunchStats,
    launches: &mut u64,
    retry: RetryPolicy,
    retries: &mut u64,
    ckpt: &mut Checkpointer,
    interval: u32,
    watchdog_margin: u64,
    trace: &mut Vec<f64>,
) -> Result<()> {
    let sched = &c.schedule;
    let num_sms = c.device.num_sms;
    let kernel_iters = iterations / u64::from(coarsening);
    let stages = sched.max_stage();
    let order = swp_sm_order(sched, num_sms, c.ig.len());

    // The steady window [stages, kernel_iters) is the only region where
    // every instance's staging predicate holds, i.e. where launches are a
    // fixed graph. Capture it once (billed as productive cycles, not
    // fault overhead) and replay it; fill and drain stay host-launched.
    let graph = graph_dispatch && kernel_iters > stages;
    if graph {
        let cap = codegen::capture_graph(&c.ig, sched, coarsening);
        let cost = gpu
            .timing()
            .graph_capture_cycles(cap.node_count(), cap.edge_count());
        totals.graph_captures += 1;
        totals.graph_capture_cycles += cost;
        totals.cycles += cost;
        totals.time_secs += gpu.timing().secs(cost);
    }
    let dispatch_of = move |r: u64| -> Dispatch {
        if graph && r >= stages && r < kernel_iters {
            Dispatch::GraphReplay
        } else {
            Dispatch::HostLaunch
        }
    };

    let build = |r: u64| -> Result<Launch<'_>> {
        Ok(Launch {
            threads_per_block: c.exec_cfg.threads_per_block,
            regs_per_thread: c.exec_cfg.regs_per_thread,
            blocks: swp_blocks(c, buffers, &order, r, coarsening, kernel_iters, staged)?,
            sm_offset,
        })
    };
    let mut window = CommitWindow::new(interval);
    let mut tuner = WatchdogTuner::new(watchdog_margin, gpu.watchdog_budget());
    let mut run_one = |r: u64,
                       gpu: &mut Gpu,
                       retries: &mut u64,
                       ckpt: &mut Checkpointer|
     -> Result<LaunchStats> {
        run_launch_windowed(
            gpu,
            r,
            &build,
            &dispatch_of,
            retry,
            retries,
            ckpt,
            &mut window,
            &mut tuner,
        )
        .map_err(|e| e.in_context(format!("software-pipelined kernel iteration {r}")))
    };

    if !scaled || kernel_iters <= stages + 4 {
        for r in 0..kernel_iters + stages {
            let stats = run_one(r, gpu, retries, ckpt)?;
            trace.push(stats.cycles);
            totals.merge(&stats);
            *launches += 1;
        }
        return Ok(());
    }

    // Scaled measurement: fill exactly, two steady launches (verified
    // identical), the rest of the steady window by scaling, drain exactly.
    for r in 0..stages {
        let stats = run_one(r, gpu, retries, ckpt)?;
        totals.merge(&stats);
    }
    let steady1 = run_one(stages, gpu, retries, ckpt)?;
    let steady2 = run_one(stages + 1, gpu, retries, ckpt)?;
    debug_assert_eq!(
        steady1.warp_instructions, steady2.warp_instructions,
        "steady launches must be counter-identical (data-independent control flow)"
    );
    totals.merge(&steady1);
    totals.merge(&steady2);
    let steady_count = kernel_iters - stages; // launches in the steady window
    for _ in 2..steady_count {
        totals.merge(&steady1);
    }
    for r in kernel_iters..kernel_iters + stages {
        let stats = run_one(r, gpu, retries, ckpt)?;
        totals.merge(&stats);
    }
    *launches += kernel_iters + stages;
    Ok(())
}

/// The serial SAS scheme: per batch, one launch per node in topological
/// order, instances distributed round-robin over all blocks.
#[allow(clippy::too_many_arguments)]
fn run_serial(
    c: &Compiled,
    buffers: &ProgramBuffers,
    batch: u32,
    iterations: u64,
    scaled: bool,
    sm_offset: u32,
    gpu: &mut Gpu,
    totals: &mut LaunchStats,
    launches: &mut u64,
    retry: RetryPolicy,
    retries: &mut u64,
    ckpt: &mut Checkpointer,
    interval: u32,
    watchdog_margin: u64,
    trace: &mut Vec<f64>,
) -> Result<()> {
    let topo = c.graph.topo_order()?;
    let batches = iterations / u64::from(batch);
    // The serial scheme's launch ordinal enumerates (batch, node) pairs
    // in issue order, so a replay window can rebuild any launch.
    let build = |ordinal: u64| -> Result<Launch<'_>> {
        let batch_no = ordinal / topo.len() as u64;
        let node = topo[(ordinal % topo.len() as u64) as usize];
        Ok(Launch {
            threads_per_block: c.exec_cfg.threads[node.0 as usize],
            regs_per_thread: c.exec_cfg.regs_per_thread,
            blocks: serial_blocks(c, buffers, node, batch, batch_no)?,
            sm_offset,
        })
    };
    let mut window = CommitWindow::new(interval);
    let mut tuner = WatchdogTuner::new(watchdog_margin, gpu.watchdog_budget());
    // Every batch is counter-identical (one kernel per filter over the
    // same shapes); in scaled mode simulate the first and scale.
    let sim_batches = if scaled { batches.min(1) } else { batches };
    for batch_no in 0..sim_batches {
        for (step, &node) in topo.iter().enumerate() {
            let ordinal = batch_no * topo.len() as u64 + step as u64;
            let stats = run_launch_windowed(
                gpu,
                ordinal,
                &build,
                &|_| Dispatch::HostLaunch,
                retry,
                retries,
                ckpt,
                &mut window,
                &mut tuner,
            )
            .map_err(|e| {
                e.in_context(format!(
                    "serial kernel for filter '{}' (batch {batch_no})",
                    c.graph.node(node).name
                ))
            })?;
            if !scaled {
                trace.push(stats.cycles);
            }
            totals.merge(&stats);
            *launches += 1;
        }
    }
    if scaled && batches > 1 {
        let snapshot = totals.clone();
        for _ in 1..batches {
            totals.merge(&snapshot);
        }
        *launches *= batches;
    }
    Ok(())
}

/// Per-SM instance order for the software-pipelined kernel: by offset,
/// ties by instance id (the paper: "ties are broken arbitrarily").
/// Shared by the executor and the static verifier so both enumerate
/// identical launches.
pub(crate) fn swp_sm_order(sched: &Schedule, num_sms: u32, n: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<Vec<usize>> = vec![Vec::new(); num_sms as usize];
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by_key(|&i| (sched.offset[i], i));
    for i in idx {
        order[sched.sm_of[i] as usize].push(i);
    }
    order
}

/// The block list of software-pipelined kernel iteration `r`: per-SM
/// instance lists with the fill/drain staging predicate applied and one
/// [`InstanceExec`] per coarsened sub-iteration.
pub(crate) fn swp_blocks<'a>(
    c: &'a Compiled,
    buffers: &ProgramBuffers,
    order: &[Vec<usize>],
    r: u64,
    coarsening: u32,
    kernel_iters: u64,
    staged: bool,
) -> Result<Vec<BlockWork<'a>>> {
    let sched = &c.schedule;
    let mut blocks = Vec::with_capacity(order.len());
    for sm_items in order {
        let mut items = Vec::new();
        for &i in sm_items {
            let f = sched.stage[i];
            if r < f || r - f >= kernel_iters {
                continue; // staging predicate: filling or draining
            }
            let (v, k) = c.ig.list[i];
            for sub in 0..u64::from(coarsening) {
                let b = (r - f) * u64::from(coarsening) + sub;
                items.push(instance_exec(c, buffers, v, k, b, staged)?);
            }
        }
        blocks.push(BlockWork { items });
    }
    Ok(blocks)
}

/// The block list of one serial (SAS) kernel: every instance of `node`
/// over one batch, distributed round-robin over the SMs. The serial
/// baseline is coalesced too (paper Sec. V): fitting working sets stage
/// through shared memory.
pub(crate) fn serial_blocks<'a>(
    c: &'a Compiled,
    buffers: &ProgramBuffers,
    node: NodeId,
    batch: u32,
    batch_no: u64,
) -> Result<Vec<BlockWork<'a>>> {
    let num_sms = c.device.num_sms as usize;
    let kv = c.ig.reps[node.0 as usize];
    let mut blocks: Vec<BlockWork> = (0..num_sms).map(|_| BlockWork::default()).collect();
    let mut slot = 0usize;
    for sub in 0..u64::from(batch) {
        let b = batch_no * u64::from(batch) + sub;
        for k in 0..kv {
            blocks[slot % num_sms]
                .items
                .push(instance_exec(c, buffers, node, k, b, true)?);
            slot += 1;
        }
    }
    Ok(blocks)
}

/// Builds one instance execution: bindings for every port at basic
/// iteration `b`.
pub(crate) fn instance_exec<'a>(
    c: &'a Compiled,
    buffers: &ProgramBuffers,
    node: NodeId,
    k: u32,
    b: u64,
    staged: bool,
) -> Result<InstanceExec<'a>> {
    let work = &c.graph.node(node).work;
    let mut inputs = vec![None; work.input_ports().len()];
    for e in c.graph.in_edges(node) {
        let edge = c.graph.edge(e);
        inputs[edge.dst_port as usize] = Some(buffers.consumer_binding(&c.ig, e.0 as usize, b, k));
    }
    let mut outputs = vec![None; work.output_ports().len()];
    for e in c.graph.out_edges(node) {
        let edge = c.graph.edge(e);
        outputs[edge.src_port as usize] = Some(buffers.producer_binding(&c.ig, e.0 as usize, b, k));
    }
    if c.graph.input() == Some(node) {
        inputs[0] = Some(buffers.input_binding(b, k));
    }
    if c.graph.output() == Some(node) {
        outputs[0] = Some(buffers.output_binding(b, k));
    }
    let inputs: Vec<_> = inputs
        .into_iter()
        .map(|b| b.ok_or_else(|| Error::Api("unbound input port".into())))
        .collect::<Result<_>>()?;
    let outputs: Vec<_> = outputs
        .into_iter()
        .map(|b| b.ok_or_else(|| Error::Api("unbound output port".into())))
        .collect::<Result<_>>()?;
    let threads = c.exec_cfg.threads[node.0 as usize];
    Ok(InstanceExec {
        work,
        active_threads: threads,
        inputs,
        outputs,
        shared_staging: staged && staging_fits(work, threads, &c.device),
        state_base: buffers.state_base[node.0 as usize],
        label: Some(format!("{}[{k}]@{b}", c.graph.node(node).name)),
    })
}

fn collect_output(
    c: &Compiled,
    buffers: &ProgramBuffers,
    gpu: &Gpu,
    iterations: u64,
    init_out: Vec<Scalar>,
) -> Vec<Scalar> {
    let Some(io) = &buffers.output else {
        return init_out;
    };
    let steady = iterations * u64::from(io.reps) * io.per_inst;
    let mut out = init_out;
    out.extend(buffers.read_output(gpu, &c.graph, io.init_tokens, steady));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamir::cpu::{self, CpuCostModel};
    use streamir::graph::{FilterSpec, SplitterKind, StreamSpec};
    use streamir::ir::{ElemTy, Expr, FnBuilder};

    fn map_filter(name: &str, f: impl FnOnce(Expr) -> Expr) -> StreamSpec {
        let mut b = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let x = b.local(ElemTy::I32);
        b.pop_into(0, x);
        b.push(0, f(Expr::local(x)));
        StreamSpec::filter(FilterSpec::new(name, b.build().unwrap()))
    }

    /// Compiles, runs CPU + the given scheme for `iters` iterations, and
    /// asserts bit-identical output streams.
    fn assert_gpu_matches_cpu(spec: &StreamSpec, scheme: Scheme, iters: u64) -> GpuRun {
        let graph = spec.flatten().unwrap();
        let opts = CompileOptions::small_test();
        let c = compile(&graph, &opts).unwrap();

        let steady = streamir::sdf::solve(&graph).unwrap();
        // Input sized for the GPU's instance-level init + iterations.
        let per_iter = c
            .graph
            .input()
            .map(|e| {
                u64::from(c.ig.reps[e.0 as usize])
                    * u64::from(c.graph.node(e).work.pop_rate(0))
                    * u64::from(c.exec_cfg.threads[e.0 as usize])
            })
            .unwrap_or(0);
        let init_in = c
            .graph
            .input()
            .map(|e| {
                u64::from(c.ig.init[e.0 as usize])
                    * u64::from(c.graph.node(e).work.pop_rate(0))
                    * u64::from(c.exec_cfg.threads[e.0 as usize])
            })
            .unwrap_or(0);
        let entry_peek_slack = c
            .graph
            .input()
            .map(|e| {
                let w = &c.graph.node(e).work;
                u64::from(w.peek_rate(0) - w.pop_rate(0))
            })
            .unwrap_or(0);
        let total_in = init_in + iters * per_iter + entry_peek_slack;
        let cpu_per_iter = steady.input_tokens_per_iteration(&c.graph).max(1);
        let input_full: Vec<Scalar> = (0..total_in + 2 * cpu_per_iter)
            .map(|i| Scalar::I32(i as i32 % 101 - 50))
            .collect();

        let run = execute(&c, scheme, iters, &input_full[..total_in as usize]).unwrap();

        // CPU reference: both executors emit prefixes of the same output
        // stream; run the CPU long enough to cover the GPU's emission and
        // compare the common prefix.
        let gpu_consumed = init_in + iters * per_iter;
        let cpu_init = steady.input_tokens_for_init(&c.graph);
        let cpu_iters = (gpu_consumed.saturating_sub(cpu_init)).div_ceil(cpu_per_iter) + 1;
        let cpu_run = cpu::run(
            &c.graph,
            &steady,
            cpu_iters,
            &input_full,
            &CpuCostModel::default(),
        )
        .unwrap();
        assert!(!run.outputs.is_empty(), "the GPU run must produce output");
        assert!(
            run.outputs.len() <= cpu_run.outputs.len(),
            "CPU run covers the GPU emission"
        );
        assert_eq!(
            run.outputs,
            cpu_run.outputs[..run.outputs.len()],
            "GPU and CPU output streams must agree bit-for-bit"
        );
        run
    }

    #[test]
    fn swp_pipeline_matches_cpu() {
        let spec = StreamSpec::pipeline(vec![
            map_filter("dbl", |x| x.mul(Expr::i32(2))),
            map_filter("inc", |x| x.add(Expr::i32(1))),
            map_filter("sq", |x| x.clone().mul(x)),
        ]);
        let run = assert_gpu_matches_cpu(&spec, Scheme::Swp { coarsening: 1 }, 4);
        assert!(run.time_secs > 0.0);
        assert!(run.launches >= 4);
    }

    #[test]
    fn swp_coarsening_reduces_launches() {
        let spec = StreamSpec::pipeline(vec![
            map_filter("a", |x| x.add(Expr::i32(3))),
            map_filter("b", |x| x.mul(Expr::i32(5))),
        ]);
        let r1 = assert_gpu_matches_cpu(&spec, Scheme::Swp { coarsening: 1 }, 8);
        let r4 = assert_gpu_matches_cpu(&spec, Scheme::Swp { coarsening: 4 }, 8);
        assert!(r4.launches < r1.launches);
        assert!(r4.time_secs < r1.time_secs, "coarsening amortizes launches");
    }

    #[test]
    fn swpnc_stages_through_shared_when_window_fits() {
        // Small working set: SWPNC brings it into shared memory with
        // coalesced bulk copies — the paper's Filterbank/FMRadio regime,
        // where SWPNC stays competitive.
        let mut b = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let acc = b.local(ElemTy::I32);
        let x = b.local(ElemTy::I32);
        b.assign(acc, Expr::i32(0));
        for _ in 0..4 {
            b.pop_into(0, x);
            b.assign(acc, Expr::local(acc).add(Expr::local(x)));
        }
        for _ in 0..4 {
            b.push(0, Expr::local(acc));
        }
        let spec = StreamSpec::pipeline(vec![
            StreamSpec::filter(FilterSpec::new("sum4", b.build().unwrap())),
            map_filter("dec", |x| x.sub(Expr::i32(1))),
        ]);
        let nc = assert_gpu_matches_cpu(&spec, Scheme::SwpNc { coarsening: 2 }, 4);
        assert!(
            nc.stats.shared_accesses > 0,
            "fitting working set must be staged through shared memory"
        );
    }

    #[test]
    fn swpnc_serializes_when_window_exceeds_shared() {
        // A 1024-token window per thread: 4 threads x 2048 tokens x 4 B =
        // 32 KB > 16 KB shared memory, so SWPNC must hit device memory
        // with strided (serialized) accesses — the regime where the paper
        // reports SWPNC collapsing to ~1.2x.
        let wide = || {
            let mut b = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
            let acc = b.local(ElemTy::I32);
            b.assign(acc, Expr::i32(0));
            b.for_loop(0, 1024, |f, _| {
                let x = f.local(ElemTy::I32);
                vec![
                    streamir::ir::Stmt::Pop {
                        port: 0,
                        dst: Some(x),
                    },
                    streamir::ir::Stmt::Assign(acc, Expr::local(acc).add(Expr::local(x))),
                ]
            });
            b.for_loop(0, 1024, |_, i| {
                vec![streamir::ir::Stmt::Push {
                    port: 0,
                    value: Expr::local(acc).add(Expr::local(i)),
                }]
            });
            b.build().unwrap()
        };
        let spec = StreamSpec::pipeline(vec![
            StreamSpec::filter(FilterSpec::new("wide", wide())),
            StreamSpec::filter(FilterSpec::new("wide2", wide())),
        ]);
        let swp = assert_gpu_matches_cpu(&spec, Scheme::Swp { coarsening: 1 }, 2);
        let nc = assert_gpu_matches_cpu(&spec, Scheme::SwpNc { coarsening: 1 }, 2);
        assert_eq!(nc.stats.shared_accesses, 0, "window cannot be staged");
        assert!(
            nc.stats.mem_transactions > 2 * swp.stats.mem_transactions,
            "uncoalesced SWPNC must serialize (nc={} vs swp={})",
            nc.stats.mem_transactions,
            swp.stats.mem_transactions
        );
        // At this reduced scale (a single warp per SM) both schemes are
        // latency-bound, so modeled *time* can tie; the full-scale
        // benchmark harness exercises the bandwidth-bound regime where
        // the transaction gap becomes the Figure 10 speedup gap.
    }

    #[test]
    fn serial_matches_cpu_with_more_launches() {
        let spec = StreamSpec::pipeline(vec![
            map_filter("p", |x| x.add(Expr::i32(7))),
            map_filter("q", |x| x.mul(Expr::i32(3))),
            map_filter("r", |x| x.sub(Expr::i32(2))),
        ]);
        let swp = assert_gpu_matches_cpu(&spec, Scheme::Swp { coarsening: 4 }, 8);
        let serial = assert_gpu_matches_cpu(&spec, Scheme::Serial { batch: 4 }, 8);
        assert!(
            serial.launches > swp.launches,
            "serial launches one kernel per filter"
        );
    }

    #[test]
    fn split_join_executes_correctly_on_gpu() {
        let spec = StreamSpec::pipeline(vec![
            map_filter("pre", |x| x.add(Expr::i32(1))),
            StreamSpec::split_join(
                SplitterKind::RoundRobin(vec![1, 1]),
                vec![
                    map_filter("evens", |x| x.mul(Expr::i32(10))),
                    map_filter("odds", |x| x.neg()),
                ],
                vec![1, 1],
            ),
            map_filter("post", |x| x.sub(Expr::i32(5))),
        ]);
        assert_gpu_matches_cpu(&spec, Scheme::Swp { coarsening: 2 }, 4);
    }

    #[test]
    fn peeking_filter_executes_correctly_on_gpu() {
        let mut b = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        b.push(
            0,
            Expr::peek(0, Expr::i32(0))
                .add(Expr::peek(0, Expr::i32(1)))
                .add(Expr::peek(0, Expr::i32(2))),
        );
        b.pop(0);
        let spec = StreamSpec::pipeline(vec![
            map_filter("gen", |x| x.mul(Expr::i32(3))),
            StreamSpec::filter(FilterSpec::new("ma3", b.build().unwrap())),
        ]);
        assert_gpu_matches_cpu(&spec, Scheme::Swp { coarsening: 1 }, 4);
    }

    #[test]
    fn multirate_graph_executes_correctly_on_gpu() {
        // up: 1 -> 3; down: 2 -> 1 (instances rescale).
        let mut up = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let x = up.local(ElemTy::I32);
        up.pop_into(0, x);
        for i in 0..3 {
            up.push(0, Expr::local(x).add(Expr::i32(i)));
        }
        let mut down = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let a = down.local(ElemTy::I32);
        let b2 = down.local(ElemTy::I32);
        down.pop_into(0, a);
        down.pop_into(0, b2);
        down.push(0, Expr::local(a).add(Expr::local(b2)));
        let spec = StreamSpec::pipeline(vec![
            StreamSpec::filter(FilterSpec::new("up", up.build().unwrap())),
            StreamSpec::filter(FilterSpec::new("down", down.build().unwrap())),
        ]);
        assert_gpu_matches_cpu(&spec, Scheme::Swp { coarsening: 2 }, 4);
    }

    #[test]
    fn iteration_granularity_is_enforced() {
        let spec = map_filter("id", |x| x);
        let graph = spec.flatten().unwrap();
        let c = compile(&graph, &CompileOptions::small_test()).unwrap();
        let e = execute(&c, Scheme::Swp { coarsening: 4 }, 6, &[]).unwrap_err();
        assert!(matches!(e, Error::Api(_)));
    }

    fn compiled_three_stage() -> (Compiled, Vec<Scalar>, u64) {
        let spec = StreamSpec::pipeline(vec![
            map_filter("dbl", |x| x.mul(Expr::i32(2))),
            map_filter("inc", |x| x.add(Expr::i32(1))),
            map_filter("sq", |x| x.clone().mul(x)),
        ]);
        let graph = spec.flatten().unwrap();
        let c = compile(&graph, &CompileOptions::small_test()).unwrap();
        let iters = 4u64;
        let input: Vec<Scalar> = (0..required_input(&c, iters))
            .map(|i| Scalar::I32(i as i32 % 53 - 26))
            .collect();
        (c, input, iters)
    }

    #[test]
    fn graph_dispatch_is_byte_identical_and_cheaper() {
        let (c, input, iters) = compiled_three_stage();
        let scheme = Scheme::Swp { coarsening: 1 };
        let host = execute(&c, scheme, iters, &input).unwrap();
        let opts = RunOptions {
            graph_dispatch: true,
            ..RunOptions::default()
        };
        let replayed = execute_with(&c, scheme, iters, &input, &opts).unwrap();
        assert_eq!(host.outputs, replayed.outputs);
        assert_eq!(host.launches, replayed.launches);
        assert_eq!(replayed.stats.graph_captures, 1);
        let kernel_iters = iters; // coarsening 1
        let steady = kernel_iters - c.schedule.max_stage();
        assert_eq!(replayed.stats.graph_replays, steady);
        assert_eq!(host.stats.graph_replays, 0);
        // Every steady launch trades the host launch overhead for the
        // replay doorbell; the fixed launch tax shrinks by exactly the
        // per-replay savings (the capture cost is billed separately).
        let saved = steady as f64 * c.timing.replay_savings_cycles();
        assert!(
            (host.stats.launch_path_cycles - replayed.stats.launch_path_cycles - saved).abs()
                < 1e-6,
            "host tax {} replay tax {} expected saving {saved}",
            host.stats.launch_path_cycles,
            replayed.stats.launch_path_cycles
        );
        assert!(
            replayed.stats.cycles + 1e-9
                < host.stats.cycles - saved + replayed.stats.graph_capture_cycles + 1e-6,
            "replay run must be cheaper by the savings minus the capture"
        );
        replayed.stats.assert_billing();
        // Serial has no steady-state graph: the flag is inert.
        let serial_host = execute(&c, Scheme::Serial { batch: 1 }, iters, &input).unwrap();
        let serial_graph =
            execute_with(&c, Scheme::Serial { batch: 1 }, iters, &input, &opts).unwrap();
        assert_eq!(serial_host.outputs, serial_graph.outputs);
        assert_eq!(serial_graph.stats.graph_replays, 0);
        assert_eq!(serial_graph.stats.graph_captures, 0);
        assert_eq!(
            serial_host.stats.launch_path_cycles,
            serial_graph.stats.launch_path_cycles
        );
    }

    #[test]
    fn graph_dispatch_recovers_faults_byte_identically() {
        let (c, input, iters) = compiled_three_stage();
        let scheme = Scheme::Swp { coarsening: 1 };
        let clean = execute(&c, scheme, iters, &input).unwrap();
        for k in [1u32, 3] {
            let mk = |graph_dispatch: bool| RunOptions {
                fault_plan: Some(
                    FaultPlan::new(0xFA117)
                        .with_launch_failures(120)
                        .with_mem_corruptions(80)
                        .with_hangs(40),
                ),
                retry: RetryPolicy { max_attempts: 12 },
                checkpoint_interval: k,
                graph_dispatch,
                ..RunOptions::default()
            };
            let host = execute_with(&c, scheme, iters, &input, &mk(false)).unwrap();
            let graph = execute_with(&c, scheme, iters, &input, &mk(true)).unwrap();
            // The fault plan draws per lifetime attempt ordinal and both
            // modes issue attempts in the same order, so recovery behaves
            // identically and outputs match the fault-free run.
            assert_eq!(clean.outputs, host.outputs, "k={k}");
            assert_eq!(clean.outputs, graph.outputs, "k={k}");
            assert_eq!(host.retries, graph.retries, "k={k}");
            host.stats.assert_billing();
            graph.stats.assert_billing();
        }
    }

    #[test]
    fn transient_faults_retry_bit_identically_with_truthful_billing() {
        let (c, input, iters) = compiled_three_stage();
        let scheme = Scheme::Swp { coarsening: 1 };
        let clean = execute(&c, scheme, iters, &input).unwrap();
        let opts = RunOptions {
            fault_plan: Some(
                FaultPlan::new(0xFA117)
                    .with_launch_failures(120)
                    .with_mem_corruptions(80)
                    .with_hangs(40)
                    .with_overhead_spikes(60, 6.0),
            ),
            retry: RetryPolicy { max_attempts: 8 },
            checkpoint: CheckpointSpec::Auto,
            placement: None,
            checkpoint_interval: 1,
            watchdog_margin: None,
            graph_dispatch: false,
        };
        let faulted = execute_with(&c, scheme, iters, &input, &opts).unwrap();
        assert_eq!(
            clean.outputs, faulted.outputs,
            "retried execution must be bit-identical to the fault-free run"
        );
        assert!(
            faulted.retries > 0,
            "the plan's rates must actually exercise the retry path"
        );
        assert!(faulted.stats.fault_overhead_cycles > 0.0);
        assert!(
            faulted.time_secs > clean.time_secs,
            "failed attempts and spikes must be billed into the total time"
        );
        assert_eq!(clean.retries, 0);
    }

    #[test]
    fn exhausted_retries_propagate_the_transient_error() {
        let (c, input, iters) = compiled_three_stage();
        // Three consecutive pinned failures on the first launch exhaust a
        // 3-attempt policy.
        let plan = FaultPlan::new(1)
            .at_launch(0, gpusim::FaultKind::LaunchFailure)
            .at_launch(1, gpusim::FaultKind::LaunchFailure)
            .at_launch(2, gpusim::FaultKind::LaunchFailure);
        let opts = RunOptions {
            fault_plan: Some(plan.clone()),
            retry: RetryPolicy { max_attempts: 3 },
            checkpoint: CheckpointSpec::Auto,
            placement: None,
            checkpoint_interval: 1,
            watchdog_margin: None,
            graph_dispatch: false,
        };
        let e = execute_with(&c, Scheme::Swp { coarsening: 1 }, iters, &input, &opts).unwrap_err();
        match e {
            Error::Sim { source, .. } => assert!(source.is_transient()),
            other => panic!("expected a simulator error, got {other}"),
        }
        // One more attempt allowed: the fourth draw is unpinned and clean.
        let opts = RunOptions {
            fault_plan: Some(plan),
            retry: RetryPolicy { max_attempts: 4 },
            checkpoint: CheckpointSpec::Auto,
            placement: None,
            checkpoint_interval: 1,
            watchdog_margin: None,
            graph_dispatch: false,
        };
        let run = execute_with(&c, Scheme::Swp { coarsening: 1 }, iters, &input, &opts).unwrap();
        assert_eq!(run.retries, 3);
    }

    #[test]
    fn serial_scheme_retries_too() {
        let (c, input, iters) = compiled_three_stage();
        let scheme = Scheme::Serial { batch: 1 };
        let clean = execute(&c, scheme, iters, &input).unwrap();
        let opts = RunOptions {
            fault_plan: Some(FaultPlan::new(77).with_launch_failures(200)),
            retry: RetryPolicy { max_attempts: 8 },
            checkpoint: CheckpointSpec::Auto,
            placement: None,
            checkpoint_interval: 1,
            watchdog_margin: None,
            graph_dispatch: false,
        };
        let faulted = execute_with(&c, scheme, iters, &input, &opts).unwrap();
        assert_eq!(clean.outputs, faulted.outputs);
        assert!(faulted.retries > 0);
    }

    #[test]
    fn k_launch_replay_is_byte_identical_across_intervals() {
        let (c, input, iters) = compiled_three_stage();
        for scheme in [Scheme::Swp { coarsening: 1 }, Scheme::Serial { batch: 1 }] {
            let clean = execute(&c, scheme, iters, &input).unwrap();
            for k in 1..=4u32 {
                let opts = RunOptions {
                    fault_plan: Some(
                        FaultPlan::new(0xFA117)
                            .with_launch_failures(120)
                            .with_mem_corruptions(80)
                            .with_hangs(40),
                    ),
                    retry: RetryPolicy { max_attempts: 12 },
                    checkpoint: CheckpointSpec::Auto,
                    placement: None,
                    checkpoint_interval: k,
                    watchdog_margin: None,
                    graph_dispatch: false,
                };
                let run = execute_with(&c, scheme, iters, &input, &opts)
                    .unwrap_or_else(|e| panic!("{scheme:?} k={k}: {e}"));
                assert_eq!(
                    clean.outputs, run.outputs,
                    "{scheme:?}: k={k} replay must be byte-identical to fault-free"
                );
                assert_eq!(run.checkpoint_interval, k);
                run.stats.assert_billing();
                if k == 1 {
                    assert_eq!(run.stats.replay_cycles, 0.0, "k=1 never replays");
                }
            }
        }
    }

    #[test]
    fn replay_after_in_window_fault_is_billed_and_exact() {
        let (c, input, iters) = compiled_three_stage();
        let scheme = Scheme::Swp { coarsening: 1 };
        let clean = execute(&c, scheme, iters, &input).unwrap();
        // One pinned failure on the second lifetime attempt: launch 0
        // succeeds (window of one committed launch), launch 1 faults, so
        // a k=4 window must restore and replay launch 0 before retrying.
        let opts = RunOptions {
            fault_plan: Some(FaultPlan::new(9).at_launch(1, gpusim::FaultKind::LaunchFailure)),
            retry: RetryPolicy { max_attempts: 4 },
            checkpoint: CheckpointSpec::Auto,
            placement: None,
            checkpoint_interval: 4,
            watchdog_margin: None,
            graph_dispatch: false,
        };
        let run = execute_with(&c, scheme, iters, &input, &opts).unwrap();
        assert_eq!(clean.outputs, run.outputs);
        assert_eq!(run.retries, 1);
        assert!(
            run.stats.replay_cycles > 0.0,
            "the committed in-window launch must be replayed and billed"
        );
        assert!(
            run.stats.failed_attempt_cycles > 0.0,
            "the pinned failure must be billed as a failed attempt"
        );
        run.stats.assert_billing();
    }

    #[test]
    fn watchdog_tuner_tightens_doubles_on_false_kill_and_saturates() {
        let (c, _, _) = compiled_three_stage();
        let mut gpu = Gpu::with_timing(c.device.clone(), c.timing.clone());
        let default = gpu.watchdog_budget();
        let mut tuner = WatchdogTuner::new(4, default);

        // A success with 100 warp instructions tightens the budget to
        // margin × max observed.
        let stats = gpusim::LaunchStats {
            warp_instructions: 100,
            ..gpusim::LaunchStats::default()
        };
        tuner.observe_success(&mut gpu, &stats);
        assert_eq!(gpu.watchdog_budget(), 400);

        // A larger success re-tightens upward; a smaller one does not
        // loosen (max is sticky).
        let bigger = gpusim::LaunchStats {
            warp_instructions: 150,
            ..gpusim::LaunchStats::default()
        };
        tuner.observe_success(&mut gpu, &bigger);
        assert_eq!(gpu.watchdog_budget(), 600);
        tuner.observe_success(&mut gpu, &stats);
        assert_eq!(gpu.watchdog_budget(), 600);

        // A watchdog kill below the default budget may be a false
        // positive: the attempt is uncounted and the budget doubles.
        let kill = gpusim::SimError::WatchdogTimeout {
            budget: 600,
            launch: 0,
        };
        assert!(!tuner.absorb_fault(&mut gpu, &kill));
        assert_eq!(gpu.watchdog_budget(), 1200);

        // Doubling saturates at the default budget, where kills count
        // against the retry bound again — guaranteed progress.
        for _ in 0..64 {
            tuner.absorb_fault(&mut gpu, &kill);
        }
        assert_eq!(gpu.watchdog_budget(), default);
        assert!(tuner.absorb_fault(&mut gpu, &kill));

        // Non-watchdog transients always count.
        assert!(tuner.absorb_fault(&mut gpu, &gpusim::SimError::LaunchFailed { launch: 0 }));

        // A disarmed tuner (margin 0) never touches the budget.
        gpu.set_watchdog_budget(None);
        let mut off = WatchdogTuner::new(0, gpu.watchdog_budget());
        off.observe_success(&mut gpu, &stats);
        assert_eq!(gpu.watchdog_budget(), default);
        assert!(off.absorb_fault(&mut gpu, &kill));
    }

    #[test]
    fn tightened_watchdog_detects_hangs_cheaper_with_identical_outputs() {
        let (c, input, iters) = compiled_three_stage();
        let scheme = Scheme::Swp { coarsening: 1 };
        let clean = execute(&c, scheme, iters, &input).unwrap();
        // Hangs pinned after the first success, so the tuner has armed a
        // tightened budget by the time each one fires.
        let plan = FaultPlan::new(3)
            .at_launch(2, gpusim::FaultKind::Hang)
            .at_launch(5, gpusim::FaultKind::Hang);
        let run_with = |margin: Option<u32>| {
            execute_with(
                &c,
                scheme,
                iters,
                &input,
                &RunOptions {
                    fault_plan: Some(plan.clone()),
                    retry: RetryPolicy { max_attempts: 8 },
                    checkpoint: CheckpointSpec::Auto,
                    placement: None,
                    checkpoint_interval: 1,
                    watchdog_margin: margin,
                    graph_dispatch: false,
                },
            )
            .unwrap()
        };
        let loose = run_with(None);
        let tight = run_with(Some(4));
        assert_eq!(loose.outputs, clean.outputs);
        assert_eq!(tight.outputs, clean.outputs);
        assert!(loose.retries >= 2 && tight.retries >= 2);
        assert!(
            tight.stats.failed_attempt_cycles < loose.stats.failed_attempt_cycles,
            "a tightened watchdog must bill hangs cheaper: {} vs {}",
            tight.stats.failed_attempt_cycles,
            loose.stats.failed_attempt_cycles
        );
        assert!(tight.stats.cycles < loose.stats.cycles);
        tight.stats.assert_billing();
    }
}
