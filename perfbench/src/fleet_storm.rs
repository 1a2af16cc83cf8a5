//! fleet-storm: the fleet serving loop under a seeded device storm.
//!
//! A [`FleetEngine`] with 8 devices, replication 2, hedging, and
//! captured-graph dispatch, under the storm `fleet_bench::chaos_options`
//! derives from the seed (rolling kills, a partition train, a rack
//! brownout). It serves an open-loop arrival trace in virtual time:
//! 12 rounds × 8 tenants, 50 ms apart within a round, 1 s between rounds,
//! 16 steady iterations per job — 96 jobs over about 10 virtual seconds.

use std::collections::BTreeMap;
use std::time::Instant;

use stream_gpu::fleet_bench;
use streamir::cpu::{self, CpuCostModel};
use streamir::ir::Scalar;
use swpipe::fleet::{FleetEngine, FleetOptions, FleetReport, FleetVerdict};
use swpipe::schedule;
use swpipe::serve::Job;

use crate::metrics::Report;
use crate::trace::Tracer;
use crate::{stats, timed_phase, timed_setup, traced_pair, Args};

/// Fleet size.
const DEVICES: u32 = 8;
/// Arrival rounds; each round submits every benchmark once.
const ROUNDS: usize = 12;
/// Steady iterations per job.
const ITERATIONS: u64 = 16;

struct Setup {
    opts: FleetOptions,
    trace: Vec<(Job, f64)>,
}

fn setup(seed: u64) -> Setup {
    Setup {
        opts: fleet_bench::chaos_options(DEVICES, seed),
        trace: fleet_bench::fleet_trace(ROUNDS, ITERATIONS),
    }
}

struct PassOut {
    verdicts: Result<Vec<FleetVerdict>, String>,
    report: FleetReport,
    /// Host seconds of `FleetEngine::run`.
    run_s: f64,
    searches: u64,
}

fn pass(s: &Setup, tracer: &mut Tracer) -> PassOut {
    let root = tracer.enter("fleet_storm.pass");
    let mut engine = tracer.time("fleet.new", || FleetEngine::new(s.opts.clone()));
    let searches_before = schedule::search_invocations();
    let t = Instant::now();
    let verdicts = tracer.time("fleet.run", || engine.run(&s.trace));
    let run_s = t.elapsed().as_secs_f64();
    let searches = schedule::search_invocations() - searches_before;
    let report = tracer.time("fleet.report", || engine.report());
    tracer.exit(root);
    PassOut {
        verdicts: verdicts.map_err(|e| e.to_string()),
        report,
        run_s,
        searches,
    }
}

/// CPU reference streams, one per tenant, grown on demand to cover the
/// longest output checked against them.
#[derive(Default)]
struct References(BTreeMap<String, Vec<Scalar>>);

impl References {
    fn covering(&mut self, job: &Job, len: usize) -> Result<&[Scalar], String> {
        let have = self.0.get(&job.tenant).map_or(0, Vec::len);
        if have < len {
            let g = &job.graph;
            let steady = streamir::sdf::solve(g).map_err(|e| e.to_string())?;
            let mut iters = 1u64;
            let outputs = loop {
                let need = steady.input_tokens_for_init(g)
                    + iters * steady.input_tokens_per_iteration(g)
                    + 64;
                let input = (job.input)(need as usize);
                let out = cpu::run(g, &steady, iters, &input, &CpuCostModel::default())
                    .map_err(|e| e.to_string())?
                    .outputs;
                if out.len() >= len {
                    break out;
                }
                if iters > 1 << 20 {
                    return Err(format!("no CPU output covers {len} tokens"));
                }
                iters *= 2;
            };
            self.0.insert(job.tenant.clone(), outputs);
        }
        Ok(&self.0[&job.tenant])
    }
}

/// The virtual-time record of one verdict; it must repeat exactly.
fn virtual_key(v: &FleetVerdict) -> Option<(u64, u64, u32)> {
    match v {
        FleetVerdict::Completed(r) => {
            Some((r.latency_secs.to_bits(), r.finish_secs.to_bits(), r.device))
        }
        FleetVerdict::Rejected { .. } => None,
    }
}

/// Gates one pass: one operation per job plus one for the pass-wide
/// checks (no job lost, one verdict per job).
fn gate(
    s: &Setup,
    out: &PassOut,
    refs: &mut References,
    first: Option<&PassOut>,
    report: &mut Report,
) {
    let jobs = s.trace.len() as u64;
    let verdicts = match &out.verdicts {
        Ok(v) => v,
        Err(e) => {
            eprintln!("fleet-storm: run failed: {e}");
            report.count(jobs + 1, jobs + 1);
            return;
        }
    };
    let mut failed = 0;
    if out.report.jobs_lost != 0 || verdicts.len() != s.trace.len() {
        eprintln!(
            "fleet-storm: {} jobs lost, {} verdicts for {} jobs",
            out.report.jobs_lost,
            verdicts.len(),
            jobs
        );
        failed += 1;
    }
    let earlier = first.and_then(|f| f.verdicts.as_ref().ok());
    for (i, ((job, _), verdict)) in s.trace.iter().zip(verdicts).enumerate() {
        let problem = match verdict {
            FleetVerdict::Rejected { .. } => Some("rejected".to_string()),
            FleetVerdict::Completed(r) => match refs.covering(job, r.outputs.len()) {
                Err(e) => Some(format!("CPU reference: {e}")),
                Ok(cpu) if r.outputs.is_empty() || r.outputs[..] != cpu[..r.outputs.len()] => {
                    Some("output differs from the CPU reference".into())
                }
                Ok(_) => None,
            },
        };
        let repeated =
            earlier.is_none_or(|e| e.get(i).map(virtual_key) == Some(virtual_key(verdict)));
        let problem = problem.or((!repeated).then(|| "virtual times differ between passes".into()));
        if let Some(p) = problem {
            eprintln!("fleet-storm: job {i} ({}): {p}", job.tenant);
            failed += 1;
        }
    }
    report.count(jobs + 1, failed);
}

fn record_layers(plain: &PassOut, traced: &PassOut, tracer: &Tracer, report: &mut Report) {
    let r = &traced.report;
    let done: Vec<_> = traced
        .verdicts
        .iter()
        .flatten()
        .filter_map(|v| match v {
            FleetVerdict::Completed(j) => Some(j),
            FleetVerdict::Rejected { .. } => None,
        })
        .collect();
    let latencies: Vec<f64> = done.iter().map(|j| j.latency_secs).collect();
    report.set(
        "jobs_per_s",
        plain.report.jobs_completed as f64 / plain.run_s,
    );
    report.set("latency_p50_vs", stats::median(&latencies).unwrap_or(0.0));
    if let Some(t) = stats::tail(&latencies) {
        report.set("latency_tail_vs", t.value);
        report.set("latency_tail_pct", t.percentile);
    }
    report.set("latency_n", latencies.len() as f64);
    report.set("throughput_tok_per_vs", r.throughput_tokens_per_sec);
    report.set("fleet.run_s", tracer.total_secs("fleet.run"));
    report.set("fleet.router_decisions", r.router_decisions as f64);
    report.set("fleet.failovers", r.failovers as f64);
    report.set("fleet.hedges", r.hedges as f64);
    report.set("fleet.hedge_wins", r.hedge_wins as f64);
    report.set("store.local_hits", r.store.local_hits as f64);
    report.set("store.remote_hits", r.store.remote_hits as f64);
    report.set("store.misses", r.store.misses as f64);
    report.set("store.read_repairs", r.store.read_repairs as f64);
    report.set("schedule.searches", traced.searches as f64);

    let winstr: u64 = done.iter().map(|j| j.stats.warp_instructions).sum();
    report.set("gpusim.winstr", winstr as f64);
    // Bookkeeping versus simulation: compare with paper-suite's
    // `sim_winstr_per_s`. Host time from the untraced pass.
    report.set("fleet.winstr_per_s", winstr as f64 / plain.run_s);
    report.set(
        "gpusim.graph_replays",
        done.iter().map(|j| j.stats.graph_replays).sum::<u64>() as f64,
    );
    let cycles = |f: fn(&gpusim::LaunchStats) -> f64| done.iter().map(|j| f(&j.stats)).sum::<f64>();
    report.set(
        "gpusim.launch_path_cycles",
        cycles(|s| s.launch_path_cycles),
    );
    report.set(
        "gpusim.fault_overhead_cycles",
        cycles(|s| s.fault_overhead_cycles),
    );
    report.set("gpusim.failover_cycles", cycles(|s| s.failover_cycles));
}

pub fn run(args: &Args, report: &mut Report, tracer: &mut Tracer) {
    let (s, setup_s) = timed_setup(|| setup(args.seed));
    let mut refs = References::default();
    if !args.traced {
        timed_phase(
            args,
            report,
            setup_s,
            |t| pass(&s, t),
            |out, first, r| gate(&s, out, &mut refs, first, r),
        );
        return;
    }

    let (plain, traced) = traced_pair(report, tracer, |t| pass(&s, t));
    gate(&s, &plain, &mut refs, None, report);
    gate(&s, &traced, &mut refs, Some(&plain), report);
    record_layers(&plain, &traced, tracer, report);
}
