//! compile-sweep: the serving compile path.
//!
//! A cold [`CompilationCache::get_or_compile`] of the eight-benchmark
//! suite at every plausible slice width of the default 16-SM device
//! (`plausible_widths(16, 12)` = widths 1–5) under both fault policies:
//! 80 ladder compiles, each verified and isolation-certified. A hot
//! re-sweep of the same 80 keys follows: the read path, which re-verifies
//! every artifact on every hit. The seed only permutes the point order.

use std::time::Instant;

use streamir::graph::FlatGraph;
use swpipe::codegen;
use swpipe::exec::{Compiled, Scheme};
use swpipe::pipeline::{
    FaultPolicy, LadderRung, PipelineOptions, ResilientCompiled, ResilientPipeline,
};
use swpipe::plan::{self, LayoutKind};
use swpipe::schedule::{self, SchedulerKind, SearchOptions};
use swpipe::serve::{self, CacheOptions, CacheStats, CompilationCache, Pressure, ServeOptions};
use swpipe::verify::{self, Severity};
use swpipe::{config, instances, profile};

use crate::metrics::Report;
use crate::trace::Tracer;
use crate::{stats, timed_phase, timed_setup, traced_pair, Args};

/// Tenants per device the slice widths are planned for.
const MAX_TENANTS: usize = 12;

/// One compile request of the sweep.
struct Point {
    bench: usize,
    opts: PipelineOptions,
}

/// The sweep's inputs: the flattened suite and the seeded point order.
struct Sweep {
    serve: ServeOptions,
    graphs: Vec<FlatGraph>,
    points: Vec<Point>,
}

/// The pipeline options the serving layer compiles a tenant's slice
/// with at nominal queue pressure (the same derivation as the serving
/// path; the gate checks the keys agree with `serve::warm_cache`).
fn serving_options(serve: &ServeOptions, width: u32, policy: FaultPolicy) -> PipelineOptions {
    let mut compile = swpipe::exec::CompileOptions {
        device: serve.device.clone(),
        timing: serve.timing.clone(),
        profile: serve.profile.clone(),
        search: serve.search.clone(),
    };
    compile.device.num_sms = width;
    PipelineOptions {
        compile,
        budgets: serve::budgets_for(Pressure::Nominal, &serve.budgets),
        fault_plan: serve.fault_plan.clone(),
        policy,
        graph_dispatch: serve.graph_dispatch,
    }
}

fn setup(seed: u64) -> Sweep {
    let serve = ServeOptions::default();
    let graphs: Vec<FlatGraph> = streambench::suite()
        .iter()
        .map(|b| b.spec.flatten().expect("suite benchmarks flatten"))
        .collect();
    let widths = serve::partition::plausible_widths(serve.device.num_sms, MAX_TENANTS);
    let mut points = Vec::new();
    for bench in 0..graphs.len() {
        for &width in &widths {
            for policy in [FaultPolicy::Throughput, FaultPolicy::TailLatency] {
                points.push(Point {
                    bench,
                    opts: serving_options(&serve, width, policy),
                });
            }
        }
    }
    shuffle(&mut points, seed);
    Sweep {
        serve,
        graphs,
        points,
    }
}

/// Seeded Fisher–Yates shuffle (splitmix64 stream).
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        items.swap(i, (z % (i as u64 + 1)) as usize);
    }
}

/// What one cold + hot sweep produced.
struct PassOut {
    cold_ms: Vec<f64>,
    /// Per point: the cold artifact (must be a miss) or the error.
    cold: Vec<Result<(ResilientCompiled, bool), String>>,
    /// Per point: whether the hot lookup was a verified hit.
    hot_hit: Vec<bool>,
    stats: CacheStats,
    searches: u64,
    cache: CompilationCache,
}

fn pass(sweep: &Sweep, tracer: &mut Tracer) -> PassOut {
    let n = sweep.points.len();
    let mut cache = CompilationCache::new(CacheOptions {
        capacity: n,
        disk_dir: None,
    });
    let searches_before = schedule::search_invocations();
    let root = tracer.enter("compile_sweep.pass");
    let mut cold_ms = Vec::with_capacity(n);
    let mut cold = Vec::with_capacity(n);
    for p in &sweep.points {
        let t = Instant::now();
        let span = tracer.enter("cache.get_or_compile");
        let r = cache.get_or_compile(&sweep.graphs[p.bench], &p.opts);
        tracer.exit_as(span, Some(lookup_name(&r)));
        cold_ms.push(t.elapsed().as_secs_f64() * 1e3);
        cold.push(r.map_err(|e| e.to_string()));
    }
    let searches = schedule::search_invocations() - searches_before;
    let mut hot_hit = Vec::with_capacity(n);
    for p in &sweep.points {
        let span = tracer.enter("cache.get_or_compile");
        let r = cache.get_or_compile(&sweep.graphs[p.bench], &p.opts);
        tracer.exit_as(span, Some(lookup_name(&r)));
        hot_hit.push(matches!(r, Ok((_, true))));
    }
    tracer.exit(root);
    PassOut {
        cold_ms,
        cold,
        hot_hit,
        stats: cache.stats().clone(),
        searches,
        cache,
    }
}

fn lookup_name<T>(r: &swpipe::Result<(T, bool)>) -> &'static str {
    match r {
        Ok((_, true)) => "cache.hit",
        _ => "cache.miss",
    }
}

/// Error-severity findings of the independent acceptance checks the
/// serving cache runs on every hit: dependence timing, capture
/// soundness for pipelined artifacts, and buffer bounds.
fn error_findings(a: &ResilientCompiled) -> usize {
    let c = &a.compiled;
    let serial = matches!(a.scheme, Scheme::Serial { .. });
    let num_sms = if serial { 1 } else { c.device.num_sms };
    let mut diags = verify::check_schedule(&c.graph, &c.ig, &c.exec_cfg, &c.schedule, num_sms, 1);
    if !serial {
        let cap = codegen::capture_graph(&c.ig, &c.schedule, 1);
        diags.extend(verify::check_capture(&c.graph, &c.ig, &c.schedule, 1, &cap));
    }
    let plan_sched = if serial { None } else { Some(&c.schedule) };
    let plan = plan::plan(&c.graph, &c.ig, plan_sched, 1, LayoutKind::Optimized);
    diags.extend(verify::check_plan(&c.graph, &c.ig, plan_sched, &plan));
    diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count()
}

/// The correctness gate of one pass, run outside the timed phase.
/// Counts one operation per point plus one for the sweep-wide checks,
/// and returns the error findings seen.
fn gate(sweep: &Sweep, out: &mut PassOut, reference: Option<&PassOut>, report: &mut Report) -> u64 {
    let n = sweep.points.len();
    let mut failed = 0;
    let mut errors = 0;
    for i in 0..n {
        let ok = match &out.cold[i] {
            Ok((a, hit)) => {
                let findings = error_findings(a);
                errors += findings as u64;
                let certified = a.isolation.as_ref().is_some_and(|cert| {
                    verify::verify_certificate(&a.compiled, a.scheme, cert).is_ok()
                });
                // A compiled artifact is a pure function of (graph,
                // options): every pass must ship the same schedule.
                let repeatable = reference.is_none_or(|r| match &r.cold[i] {
                    Ok((b, _)) => b.compiled.schedule == a.compiled.schedule,
                    Err(_) => false,
                });
                !hit && findings == 0 && certified && out.hot_hit[i] && repeatable
            }
            Err(e) => {
                eprintln!("compile-sweep: point {i} failed to compile: {e}");
                false
            }
        };
        if !ok {
            failed += 1;
        }
    }
    // Sweep-wide: every cold lookup missed and every hot one hit, nothing
    // was evicted, and the serving layer's own warming sweep finds all
    // 80 keys already resident (so these are the keys serving uses).
    let s = &out.stats;
    let warm = serve::warm_cache(&mut out.cache, &sweep.serve, &sweep.graphs, MAX_TENANTS);
    let sweep_ok = s.misses == n as u64
        && s.hits == n as u64
        && s.evictions == 0
        && warm.points() == n as u64
        && warm.already_cached == n as u64;
    if !sweep_ok {
        eprintln!("compile-sweep: sweep-wide check failed: {s:?}, warm {warm:?}");
        failed += 1;
    }
    report.count(n as u64 + 1, failed);
    errors
}

/// The heuristic rung of [`ResilientPipeline::compile`], called phase by
/// phase from outside with a span around each call, next to one span
/// around the whole ladder compile of the same point.
struct Decomposition {
    instances: u64,
    event_edges: u64,
    mismatches: u64,
}

fn decompose(sweep: &Sweep, tracer: &mut Tracer) -> Decomposition {
    let mut d = Decomposition {
        instances: 0,
        event_edges: 0,
        mismatches: 0,
    };
    let root = tracer.enter("compile_sweep.decompose");
    for p in &sweep.points {
        let g = &sweep.graphs[p.bench];
        let opts = &p.opts.compile;
        let point = tracer.enter("compile_sweep.point");
        let shipped = tracer.time("pipeline.compile", || {
            ResilientPipeline::new(p.opts.clone()).compile(g)
        });
        let popts = profile_options_for(g, &opts.profile);
        let phases = (|| -> swpipe::Result<Compiled> {
            let table = tracer.time("profile.profile", || {
                profile::profile(g, &popts, &opts.device, &opts.timing)
            })?;
            let selection = tracer.time("config.select", || config::select(g, &table))?;
            let ig = tracer.time("instances.build", || instances::build(g, &selection.exec))?;
            let mut search = SearchOptions {
                scheduler: SchedulerKind::Heuristic,
                fault_reserve: 0,
                ..opts.search.clone()
            };
            if instances::requires_serial_iterations(g) {
                search.coarsening_max = 1;
            }
            let num_sms = opts.device.num_sms;
            let (sched, report) = tracer.time("schedule.find", || {
                schedule::find(&ig, &selection.exec, num_sms, &search)
            })?;
            let cap = tracer.time("codegen.capture_graph", || {
                codegen::capture_graph(&ig, &sched, 1)
            });
            d.instances += ig.len() as u64;
            d.event_edges += cap.edge_count();
            let mut diags = tracer.time("verify.check_schedule", || {
                verify::check_schedule(g, &ig, &selection.exec, &sched, num_sms, 1)
            });
            diags.extend(tracer.time("verify.check_capture", || {
                verify::check_capture(g, &ig, &sched, 1, &cap)
            }));
            let plan = tracer.time("plan.plan", || {
                plan::plan(g, &ig, Some(&sched), 1, LayoutKind::Optimized)
            });
            diags.extend(tracer.time("verify.check_plan", || {
                verify::check_plan(g, &ig, Some(&sched), &plan)
            }));
            if !verify::passes(&diags) {
                return Err(swpipe::Error::verification(diags));
            }
            Ok(Compiled {
                graph: g.clone(),
                exec_cfg: selection.exec.clone(),
                selection,
                ig,
                schedule: sched,
                report,
                device: opts.device.clone(),
                timing: opts.timing.clone(),
            })
        })();
        // The outside-in decomposition must reproduce the artifact the
        // ladder shipped, certificate included.
        let same = match (&shipped, &phases) {
            (Ok(a), Ok(c)) => {
                let cert = tracer.time("verify.isolate.certify", || {
                    verify::isolate::certify(c, Scheme::Swp { coarsening: 1 })
                });
                a.report.shipped == LadderRung::Heuristic
                    && a.compiled.schedule == c.schedule
                    && matches!(
                        (&cert, &a.isolation),
                        (Ok(iso), Some(shipped_cert))
                            if iso.certificate.as_ref().map(|x| x.digest) == Some(shipped_cert.digest)
                    )
            }
            _ => false,
        };
        if !same {
            d.mismatches += 1;
        }
        tracer.exit(point);
    }
    tracer.exit(root);
    d
}

/// The profiling grid `exec::compile` uses for `graph`: feedback loops
/// may need a thread count below the grid's smallest (capped by the
/// loop's initial-token depth), so the grid is extended with it.
fn profile_options_for(
    graph: &FlatGraph,
    base: &profile::ProfileOptions,
) -> profile::ProfileOptions {
    let mut opts = base.clone();
    if let Some(cap) = graph
        .edges()
        .iter()
        .filter(|e| !e.initial.is_empty())
        .map(|e| e.initial.len() as u32)
        .min()
    {
        if !opts.thread_counts.iter().any(|&t| t <= cap) {
            opts.thread_counts.push(cap.max(1));
        }
    }
    opts
}

pub fn run(args: &Args, report: &mut Report, tracer: &mut Tracer) {
    let (sweep, setup_s) = timed_setup(|| setup(args.seed));
    if !args.traced {
        timed_phase(
            args,
            report,
            setup_s,
            |t| pass(&sweep, t),
            |out, first, r| {
                gate(&sweep, out, first, r);
            },
        );
        return;
    }

    // Traced run: one untraced pass, the same pass traced, then the
    // phase-by-phase decomposition.
    let (mut plain, mut traced) = traced_pair(report, tracer, |t| pass(&sweep, t));
    let errors = gate(&sweep, &mut plain, None, report);
    gate(&sweep, &mut traced, Some(&plain), report);

    let d = decompose(&sweep, tracer);
    report.count(sweep.points.len() as u64, d.mismatches);

    let tail = stats::tail(&plain.cold_ms).expect("80 points have a tail");
    report.set(
        "compile_p50_ms",
        stats::median(&plain.cold_ms).unwrap_or(0.0),
    );
    report.set("compile_tail_ms", tail.value);
    report.set("compile_tail_pct", tail.percentile);
    report.set("compile_n", tail.n as f64);

    for (metric, span) in [
        ("profile.busy_s", "profile.profile"),
        ("config.busy_s", "config.select"),
        ("instances.busy_s", "instances.build"),
        ("schedule.busy_s", "schedule.find"),
        ("codegen.busy_s", "codegen.capture_graph"),
        ("plan.busy_s", "plan.plan"),
        ("verify.deps_s", "verify.check_schedule"),
        ("verify.events_s", "verify.check_capture"),
        ("verify.bounds_s", "verify.check_plan"),
        ("verify.isolate_s", "verify.isolate.certify"),
        ("pipeline.compile_s", "pipeline.compile"),
    ] {
        report.set(metric, tracer.total_secs(span));
    }
    let phases: f64 = [
        "profile.profile",
        "config.select",
        "instances.build",
        "schedule.find",
        "codegen.capture_graph",
        "verify.check_schedule",
        "verify.check_capture",
        "plan.plan",
        "verify.check_plan",
        "verify.isolate.certify",
    ]
    .iter()
    .map(|s| tracer.total_secs(s))
    .sum();
    report.set(
        "pipeline.ladder_self_s",
        tracer.total_secs("pipeline.compile") - phases,
    );
    report.set(
        "profile.calls",
        tracer.durations("profile.profile").len() as f64,
    );
    report.set("instances.count", d.instances as f64);
    report.set("codegen.event_edges", d.event_edges as f64);
    report.set("schedule.searches", traced.searches as f64);
    let ii_sum: u64 = traced
        .cold
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|(a, _)| a.compiled.schedule.ii)
        .sum();
    report.set("schedule.ii_sum", ii_sum as f64);
    report.set("verify.errors", errors as f64);

    let miss_ms: Vec<f64> = tracer
        .durations("cache.miss")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    let hit_us: Vec<f64> = tracer
        .durations("cache.hit")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    report.set("cache.miss_p50_ms", stats::median(&miss_ms).unwrap_or(0.0));
    report.set("cache.hit_p50_us", stats::median(&hit_us).unwrap_or(0.0));
    report.set("cache.hits", traced.stats.hits as f64);
    report.set("cache.misses", traced.stats.misses as f64);
    report.set("cache.evictions", traced.stats.evictions as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..80).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..80).collect();
        shuffle(&mut c, 8);
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, (0..80).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_covers_eighty_points() {
        let sweep = setup(1);
        assert_eq!(sweep.points.len(), 80);
        assert!(sweep.serve.fault_plan.is_none());
    }
}
