//! The profiling phase (Figure 6 of the paper).
//!
//! Every node of the flattened graph is executed standalone on the
//! simulated GPU once per `(register limit, thread count)` grid point,
//! against synthetic channel buffers laid out exactly as the final code
//! will lay them out. Infeasible points (register file exhausted) are
//! recorded as such; feasible points record the per-instance execution
//! time the ILP will use as `d(v)`.
//!
//! A grid point's time depends only on the node's work function and the
//! point itself, never on the node's place in the graph or on the
//! device's SM count (one instance runs on one SM). [`ProfileMemo`]
//! exploits that: it content-addresses every measured point, so a work
//! function repeated across a graph — or across the slice widths and
//! fault policies one serving cache compiles — is simulated once.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use gpusim::{
    BlockWork, BufferBinding, DeviceConfig, Gpu, InstanceExec, Launch, Layout, SimError,
    TimingModel,
};
use streamir::graph::{FlatGraph, NodeId};
use streamir::ir::{ElemTy, Scalar, WorkFunction};

use crate::hash::Fnv;
use crate::Result;

/// Cycles per integer scheduling time unit: delays handed to the ILP are
/// `ceil(cycles / TIME_UNIT_CYCLES)`, keeping II magnitudes tractable.
pub const TIME_UNIT_CYCLES: f64 = 64.0;

/// The profiling grid and buffer regime.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileOptions {
    /// Register limits to compile for (paper: 16, 20, 32, 64).
    pub reg_limits: Vec<u32>,
    /// Thread counts to execute with (paper: 128, 256, 384, 512).
    pub thread_counts: Vec<u32>,
    /// Buffer layout the profiled kernels use ([`Layout::Transposed`] for
    /// the coalesced scheme, [`Layout::Sequential`] for SWPNC — "the
    /// profile runs are also executed without memory access coalescing").
    pub layout: Layout,
    /// Stage the working set through shared memory when it fits (the
    /// SWPNC fallback).
    pub shared_staging: bool,
}

impl ProfileOptions {
    /// The paper's grid with the coalesced layout. Staging through shared
    /// memory applies whenever a filter's working set fits — part of the
    /// optimized code generation: sliding peek windows shift the warp base
    /// off the 64-byte alignment the G80 coalescing rule demands, so
    /// peek-heavy filters only coalesce via a bulk copy into shared memory
    /// (the paper's Filterbank/FMRadio discussion).
    #[must_use]
    pub fn paper() -> ProfileOptions {
        ProfileOptions {
            reg_limits: vec![16, 20, 32, 64],
            thread_counts: vec![128, 256, 384, 512],
            layout: Layout::Transposed { group: 128 },
            shared_staging: true,
        }
    }

    /// The paper's grid in SWPNC mode.
    #[must_use]
    pub fn paper_no_coalesce() -> ProfileOptions {
        ProfileOptions {
            layout: Layout::Sequential,
            shared_staging: true,
            ..ProfileOptions::paper()
        }
    }

    /// A reduced grid for unit tests and examples.
    #[must_use]
    pub fn small(threads: &[u32]) -> ProfileOptions {
        ProfileOptions {
            reg_limits: vec![16, 32],
            thread_counts: threads.to_vec(),
            layout: Layout::Transposed { group: 128 },
            shared_staging: true,
        }
    }
}

/// Measured per-instance execution times: `times[node][reg_idx][thread_idx]`
/// in cycles, `None` where the configuration is infeasible.
#[derive(Debug, Clone)]
pub struct ProfileTable {
    /// The register limits profiled (row axis).
    pub reg_limits: Vec<u32>,
    /// The thread counts profiled (column axis).
    pub thread_counts: Vec<u32>,
    /// `times[node][r][t]`.
    pub times: Vec<Vec<Vec<Option<f64>>>>,
}

impl ProfileTable {
    /// The measured cycles for `(node, reg index, thread index)`.
    #[must_use]
    pub fn cycles(&self, node: NodeId, reg_idx: usize, thr_idx: usize) -> Option<f64> {
        self.times[node.0 as usize][reg_idx][thr_idx]
    }

    /// The best thread index for a node at a register limit, considering
    /// only thread counts `<= max_threads`: minimal cycles *per firing*
    /// (an instance with `t` threads performs `t` firings), ties broken
    /// toward the higher SMT degree. On latency-bound filters the
    /// per-instance time is flat in the thread count, so the per-firing
    /// normalisation is what actually drives the paper's preference for
    /// high thread counts — until register pressure (spills) pushes back.
    #[must_use]
    pub fn best_thread_idx(&self, node: NodeId, reg_idx: usize, max_threads: u32) -> Option<usize> {
        (0..self.thread_counts.len())
            .filter(|&ti| self.thread_counts[ti] <= max_threads)
            .filter_map(|ti| {
                self.cycles(node, reg_idx, ti)
                    .map(|c| (ti, c / f64::from(self.thread_counts[ti])))
            })
            .min_by(|a, b| {
                a.1.total_cmp(&b.1)
                    .then(self.thread_counts[b.0].cmp(&self.thread_counts[a.0]))
            })
            .map(|(ti, _)| ti)
    }
}

/// Deterministic synthetic token for profiling input (never zero, so
/// filters that divide by inputs cannot trap on profile data).
#[must_use]
pub fn synthetic_token(ty: ElemTy, i: u64) -> Scalar {
    let v = (i % 17 + 1) as i32;
    match ty {
        ElemTy::I32 => Scalar::I32(v),
        ElemTy::F32 => Scalar::F32(v as f32 * 0.5),
    }
}

/// Profiles every node of `graph` over the grid (the paper's Figure 6
/// loop). Nodes with identical work functions are simulated once.
///
/// # Errors
///
/// Propagates device traps (a filter faulting on synthetic data indicates
/// a non-total work function). Infeasible launch configurations are *not*
/// errors — they become `None` entries, as in the paper.
pub fn profile(
    graph: &FlatGraph,
    opts: &ProfileOptions,
    device: &DeviceConfig,
    timing: &TimingModel,
) -> Result<ProfileTable> {
    profile_memoized(graph, opts, device, timing, &ProfileMemo::default())
}

/// [`profile`] through a caller-owned memo: grid points already measured
/// by any earlier call on the same memo are looked up, not simulated.
/// The table is bit-identical to a fresh [`profile`] call.
///
/// # Errors
///
/// As for [`profile`]. A point whose simulation errors is not memoized.
pub fn profile_memoized(
    graph: &FlatGraph,
    opts: &ProfileOptions,
    device: &DeviceConfig,
    timing: &TimingModel,
    memo: &ProfileMemo,
) -> Result<ProfileTable> {
    let context = context_digest(opts, device, timing);
    let mut times = Vec::with_capacity(graph.len());
    for node_idx in 0..graph.len() {
        let node = NodeId(node_idx as u32);
        let work = work_digest(&graph.node(node).work);
        let mut per_reg = Vec::with_capacity(opts.reg_limits.len());
        for &regs in &opts.reg_limits {
            let mut per_thr = Vec::with_capacity(opts.thread_counts.len());
            for &threads in &opts.thread_counts {
                let key = combine(context, work, regs, threads);
                let cycles = match memo.get(key) {
                    Some(cycles) => cycles,
                    None => {
                        let cycles =
                            profile_point(graph, node, regs, threads, opts, device, timing)?;
                        memo.insert(key, cycles);
                        cycles
                    }
                };
                per_thr.push(cycles);
            }
            per_reg.push(per_thr);
        }
        times.push(per_reg);
    }
    Ok(ProfileTable {
        reg_limits: opts.reg_limits.clone(),
        thread_counts: opts.thread_counts.clone(),
        times,
    })
}

/// A content-addressed memo of profiled grid points: point key →
/// measured cycles (`None` for an infeasible point, which is memoized
/// too). Clones share one map, so a cache or engine hands the same memo
/// to every compile it runs, worker threads included; values are pure
/// functions of their keys, so sharing cannot change any result.
///
/// There is deliberately no process-wide instance: a memo lives exactly
/// as long as its owner, and a fresh owner starts cold.
#[derive(Clone, Default)]
pub struct ProfileMemo(Arc<Mutex<HashMap<u64, Option<f64>>>>);

impl ProfileMemo {
    /// Points memoized so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// `true` when nothing has been memoized yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map().is_empty()
    }

    fn get(&self, key: u64) -> Option<Option<f64>> {
        self.map().get(&key).copied()
    }

    fn insert(&self, key: u64, cycles: Option<f64>) {
        self.map().insert(key, cycles);
    }

    fn map(&self) -> MutexGuard<'_, HashMap<u64, Option<f64>>> {
        // A panic elsewhere cannot leave a half-written entry behind
        // (every insert is one map operation), so a poisoned lock is
        // still consistent.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl fmt::Debug for ProfileMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ProfileMemo({} points)", self.len())
    }
}

/// The memo key of one grid point: a hash over everything
/// [`profile_point`] reads — the work function's full content, the point,
/// the buffer regime, the device shape minus the SM count, and the
/// timing model.
#[must_use]
pub fn point_key(
    work: &WorkFunction,
    regs: u32,
    threads: u32,
    opts: &ProfileOptions,
    device: &DeviceConfig,
    timing: &TimingModel,
) -> u64 {
    combine(
        context_digest(opts, device, timing),
        work_digest(work),
        regs,
        threads,
    )
}

fn combine(context: u64, work: u64, regs: u32, threads: u32) -> u64 {
    let mut h = Fnv::new();
    h.u64(context);
    h.u64(work);
    h.u64(u64::from(regs));
    h.u64(u64::from(threads));
    h.finish()
}

/// The per-call part of a point key. `profile_point` runs one instance on
/// one SM of a device whose memory it resizes itself, so neither
/// `num_sms` nor `device_mem_words` can change a measurement; both are
/// normalized out so every slice width shares its points.
fn context_digest(opts: &ProfileOptions, device: &DeviceConfig, timing: &TimingModel) -> u64 {
    let device = DeviceConfig {
        num_sms: 0,
        device_mem_words: 0,
        ..device.clone()
    };
    let mut h = Fnv::new();
    let _ = write!(
        h,
        "{:?}/{}/{device:?}/{timing:?}",
        opts.layout, opts.shared_staging
    );
    h.finish()
}

/// The content digest of a work function: its full `Debug` rendering
/// (ports, locals, arrays, tables, states, body), plus the raw bits of
/// every table value and state initializer so even float payloads the
/// rendering cannot tell apart (NaNs) key separately. Unlike
/// `to_pretty`, which prints a table as `[ty; len]`, this sees values.
fn work_digest(work: &WorkFunction) -> u64 {
    let mut h = Fnv::new();
    let _ = write!(h, "{work:?}");
    let values = work.tables().iter().flat_map(|t| &t.values);
    for &v in values.chain(work.states().iter().map(|s| &s.init)) {
        h.u64(scalar_bits(v));
    }
    h.finish()
}

fn scalar_bits(v: Scalar) -> u64 {
    match v {
        Scalar::I32(x) => u64::from(x as u32),
        Scalar::F32(x) => (1 << 32) | u64::from(x.to_bits()),
    }
}

/// One grid point, always simulated (never memoized): run a single
/// instance of `node` (one thread-block-wide firing) and return its
/// SM-busy cycles, or `None` when infeasible.
///
/// # Errors
///
/// As for [`profile`].
pub fn profile_point(
    graph: &FlatGraph,
    node: NodeId,
    regs: u32,
    threads: u32,
    opts: &ProfileOptions,
    device: &DeviceConfig,
    timing: &TimingModel,
) -> Result<Option<f64>> {
    let work = &graph.node(node).work;
    // A reduced-memory device is plenty for one instance's buffers and
    // keeps per-point setup cheap.
    let mut config = device.clone();
    config.device_mem_words = 4 * 1024 * 1024;
    let mut gpu = Gpu::with_timing(config, timing.clone());

    let firings = if work.is_stateful() { 1 } else { threads };
    let mut inputs = Vec::new();
    for port in 0..work.input_ports().len() as u8 {
        let pop = work.pop_rate(port);
        let peek = work.peek_rate(port);
        let tokens = firings * pop + (peek - pop);
        let tokens = tokens.max(1);
        let base = gpu.try_alloc_tokens(tokens)?;
        let ty = work.input_ports()[port as usize];
        let binding = BufferBinding {
            base_word: base,
            region_tokens: u64::from(tokens),
            regions: 1,
            layout: opts.layout,
            consumer_rate: pop.max(1),
            endpoint_rate: pop,
            abs_start: 0,
        };
        for i in 0..u64::from(tokens) {
            let slot = binding.layout.slot(i, pop.max(1), u64::from(tokens));
            gpu.memory_mut()
                .write_token(base + slot as u32, synthetic_token(ty, i));
        }
        inputs.push(binding);
    }
    let mut outputs = Vec::new();
    for port in 0..work.output_ports().len() as u8 {
        let push = work.push_rate(port);
        let tokens = (firings * push).max(1);
        let base = gpu.try_alloc_tokens(tokens)?;
        outputs.push(BufferBinding {
            base_word: base,
            region_tokens: u64::from(tokens),
            regions: 1,
            layout: opts.layout,
            consumer_rate: push.max(1),
            endpoint_rate: push,
            abs_start: 0,
        });
    }

    // Stateful filters execute single-threaded with device-resident state.
    let active = if work.is_stateful() { 1 } else { threads };
    let state_base = if work.is_stateful() {
        let base = gpu.try_alloc_tokens(work.states().len().max(1) as u32)?;
        for (i, st) in work.states().iter().enumerate() {
            gpu.memory_mut().write_token(base + i as u32, st.init);
        }
        Some(base)
    } else {
        None
    };
    let staging = opts.shared_staging && staging_fits(work, active, device);
    let launch = Launch {
        threads_per_block: threads,
        regs_per_thread: regs,
        blocks: vec![BlockWork {
            items: vec![InstanceExec {
                work,
                active_threads: active,
                inputs,
                outputs,
                shared_staging: staging,
                state_base,
                label: Some(format!("profile:{}", graph.node(node).name)),
            }],
        }],
        sm_offset: 0,
    };
    match gpu.run(&launch) {
        Ok(stats) => Ok(Some(
            stats.per_sm_cycles.iter().copied().fold(0.0f64, f64::max),
        )),
        Err(SimError::LaunchConfig(_)) => Ok(None),
        Err(e) => Err(crate::Error::sim_while(
            e,
            format!(
                "profiling filter '{}' at {regs} regs x {threads} threads",
                graph.node(node).name
            ),
        )),
    }
}

/// Whether a node's working set fits in shared memory at this thread
/// count (the SWPNC staging criterion).
#[must_use]
pub fn staging_fits(
    work: &streamir::ir::WorkFunction,
    threads: u32,
    device: &DeviceConfig,
) -> bool {
    let t = u64::from(threads);
    let in_tokens: u64 = (0..work.input_ports().len() as u8)
        .map(|p| t * u64::from(work.peek_rate(p)))
        .sum();
    let out_tokens: u64 = (0..work.output_ports().len() as u8)
        .map(|p| t * u64::from(work.push_rate(p)))
        .sum();
    (in_tokens + out_tokens) * 4 <= u64::from(device.shared_mem_per_sm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamir::graph::{FilterSpec, StreamSpec};
    use streamir::ir::{Expr, FnBuilder};

    fn simple_graph() -> FlatGraph {
        let mut f = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let x = f.local(ElemTy::I32);
        f.pop_into(0, x);
        f.push(0, Expr::local(x).mul(Expr::i32(3)));
        StreamSpec::filter(FilterSpec::new("triple", f.build().unwrap()))
            .flatten()
            .unwrap()
    }

    #[test]
    fn paper_grid_marks_big_configs_infeasible() {
        let g = simple_graph();
        let table = profile(
            &g,
            &ProfileOptions::paper(),
            &DeviceConfig::gts512(),
            &TimingModel::gts512(),
        )
        .unwrap();
        // 64 regs x 512 threads = 32768 > 8192: infeasible (paper Sec IV-A).
        let r64 = table.reg_limits.iter().position(|&r| r == 64).unwrap();
        let t512 = table.thread_counts.iter().position(|&t| t == 512).unwrap();
        assert_eq!(table.cycles(NodeId(0), r64, t512), None);
        // 16 regs x 512 threads = 8192: feasible.
        let r16 = table.reg_limits.iter().position(|&r| r == 16).unwrap();
        assert!(table.cycles(NodeId(0), r16, t512).is_some());
    }

    #[test]
    fn more_threads_do_more_work_per_instance() {
        let g = simple_graph();
        let table = profile(
            &g,
            &ProfileOptions::paper(),
            &DeviceConfig::gts512(),
            &TimingModel::gts512(),
        )
        .unwrap();
        let t128 = table.thread_counts.iter().position(|&t| t == 128).unwrap();
        let t512 = table.thread_counts.iter().position(|&t| t == 512).unwrap();
        let c128 = table.cycles(NodeId(0), 0, t128).unwrap();
        let c512 = table.cycles(NodeId(0), 0, t512).unwrap();
        // 4x the firings should not cost 4x the time (SMT hides latency) —
        // that asymmetry is what configuration selection exploits.
        assert!(c512 < 4.0 * c128, "c512={c512} c128={c128}");
        // With full latency hiding the per-instance time can even be flat.
        assert!(c512 >= c128, "c512={c512} c128={c128}");
    }

    #[test]
    fn best_thread_idx_respects_cap() {
        let g = simple_graph();
        let table = profile(
            &g,
            &ProfileOptions::paper(),
            &DeviceConfig::gts512(),
            &TimingModel::gts512(),
        )
        .unwrap();
        let best = table.best_thread_idx(NodeId(0), 0, 256).unwrap();
        assert!(table.thread_counts[best] <= 256);
    }

    #[test]
    fn synthetic_tokens_are_never_zero() {
        for i in 0..100 {
            match synthetic_token(ElemTy::I32, i) {
                Scalar::I32(v) => assert!(v != 0),
                Scalar::F32(_) => unreachable!(),
            }
            match synthetic_token(ElemTy::F32, i) {
                Scalar::F32(v) => assert!(v != 0.0),
                Scalar::I32(_) => unreachable!(),
            }
        }
    }
}
