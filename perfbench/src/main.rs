//! The repository benchmark: three single-process, single-threaded
//! workloads against the public API, each printing its metrics by name
//! with their units and checking that the program's outputs are correct.
//!
//! ```text
//! perfbench --workload <compile-sweep|paper-suite|fleet-storm>
//!           --seed <n> --seconds <n> --trace <0|1>
//! perfbench --paper-check
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A failed correctness
//! check makes the command exit with code 1. See `perfbench/README.md`
//! for the workloads, the metrics and the layer each one measures.

mod compile_sweep;
mod fleet_storm;
mod metrics;
mod paper_check;
mod paper_suite;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use metrics::Report;
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["compile-sweep", "paper-suite", "fleet-storm"];

/// Times set-up is repeated in one run; `setup_s` is their median.
const SETUP_REPEATS: usize = 25;

/// Passes every timed phase measures, however long they take. One pass
/// of paper-suite takes longer than the whole `--seconds` budget, and a
/// single pass is at the mercy of one slow stretch of the host.
const MIN_PASSES: usize = 2;

/// What one invocation was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload.
    pub workload: String,
    /// Seed the workload derives its inputs from.
    pub seed: u64,
    /// Measurement budget of the timed phase, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub traced: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w:?}; expected one of {WORKLOADS:?}"
                    ));
                }
                workload = Some(w);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse::<u64>().map_err(|e| format!("--seed {v:?}: {e}"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s = v
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds {v:?}: {e}"))?;
                if s == 0 || s > 600 {
                    return Err(format!("--seconds {s} must be within 1..=600"));
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?} must be 0 or 1")),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
    })
}

/// Runs `setup` [`SETUP_REPEATS`] times and returns the last result with
/// the median set-up time in seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        last = Some(std::hint::black_box(setup()));
        times.push(t.elapsed().as_secs_f64());
    }
    let median = stats::median(&times).expect("set-up ran at least once");
    (last.expect("set-up ran at least once"), median)
}

/// Repeats `pass` while another pass is expected to finish within
/// `seconds` of measured time, and at least [`MIN_PASSES`] times. Each
/// pass's output goes to `check` outside the timed region. Returns the
/// pass durations in seconds.
pub fn timed_passes<T>(
    seconds: f64,
    mut pass: impl FnMut() -> T,
    mut check: impl FnMut(T),
) -> Vec<f64> {
    let mut walls = Vec::new();
    loop {
        let t = Instant::now();
        let value = std::hint::black_box(pass());
        let secs = t.elapsed().as_secs_f64();
        eprintln!("pass {}: {secs:.3} s", walls.len() + 1);
        walls.push(secs);
        check(value);
        let total: f64 = walls.iter().sum();
        let typical = stats::median(&walls).expect("at least one pass");
        if walls.len() >= MIN_PASSES && total + typical > seconds {
            return walls;
        }
    }
}

/// The timed phase of an untraced run: records `setup_s`, `wall_s` (the
/// median pass time) and `peak_rss_mb`. Each pass is gated as soon as it
/// ends, outside the timed region, against the first pass, the only one
/// kept. Peak memory is read after the [`MIN_PASSES`]-th pass, which every
/// run reaches, so it does not depend on how many passes the host's
/// speed lets fit.
pub fn timed_phase<T>(
    args: &Args,
    report: &mut Report,
    setup_s: f64,
    mut pass: impl FnMut(&mut Tracer) -> T,
    mut gate: impl FnMut(&mut T, Option<&T>, &mut Report),
) {
    report.set("setup_s", setup_s);
    let mut first: Option<T> = None;
    let mut passes = 0;
    let walls = timed_passes(
        args.seconds,
        || pass(&mut Tracer::new(false)),
        |mut out| {
            gate(&mut out, first.as_ref(), report);
            first.get_or_insert(out);
            passes += 1;
            if passes == MIN_PASSES {
                report.set("peak_rss_mb", peak_rss_mb());
            }
        },
    );
    report.set("wall_s", stats::median(&walls).expect("at least one pass"));
}

/// The traced run's two passes of the same work, untraced and then
/// traced; records their wall times and the difference, the tracing
/// overhead.
pub fn traced_pair<T>(
    report: &mut Report,
    tracer: &mut Tracer,
    mut pass: impl FnMut(&mut Tracer) -> T,
) -> (T, T) {
    let t = Instant::now();
    let plain = pass(&mut Tracer::new(false));
    let untraced_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let traced = pass(tracer);
    let traced_s = t.elapsed().as_secs_f64();
    report.set("trace.wall_untraced_s", untraced_s);
    report.set("trace.wall_traced_s", traced_s);
    report.set("trace.overhead_s", traced_s - untraced_s);
    (plain, traced)
}

/// Peak resident set size of this process in MiB.
fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` matches the layout of `struct rusage` on 64-bit
    // Linux (two `timeval`s followed by fourteen `long`s), the pointer is
    // to a live, writable value, and `RUSAGE_SELF` (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    // Linux reports ru_maxrss in KiB.
    usage.maxrss as f64 / 1024.0
}

/// Where the traced run writes its Chrome trace-event file.
fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}-seed{}.trace.json", args.workload, args.seed))
}

fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new(args.traced);
    match args.workload.as_str() {
        "compile-sweep" => compile_sweep::run(args, &mut report, &mut tracer),
        "paper-suite" => paper_suite::run(args, &mut report, &mut tracer),
        "fleet-storm" => fleet_storm::run(args, &mut report, &mut tracer),
        other => unreachable!("workload {other} passed argument validation"),
    }
    if args.traced {
        report.set("trace.spans", tracer.spans().len() as f64);
        report.set(
            "failed_share",
            stats::failed_share(report.failed, report.attempted),
        );
        let path = trace_path(args);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, tracer.chrome_json(&args.workload)));
        match written {
            Ok(()) => eprintln!(
                "trace: {} spans -> {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("trace: cannot write {}: {e}", path.display());
                report.count(1, 1);
            }
        }
    } else {
        let ok = 1.0 - stats::failed_share(report.failed, report.attempted);
        report.set("ok_share", ok);
    }
    report
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() == 1 && argv[0] == "--paper-check" {
        return paper_check::main();
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>\n       \
                 perfbench --paper-check",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = run(&args);
    for (name, unit, value) in report.printed(args.traced) {
        eprintln!("{name:>32} = {value:<14.6} {unit}");
    }
    eprintln!(
        "{:>32} = {} of {} operations failed",
        "outcome", report.failed, report.attempted
    );
    println!("{}", report.json(args.traced));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload fleet-storm --seed 7 --seconds 20 --trace 1",
        ))
        .expect("valid arguments");
        assert_eq!(
            a,
            Args {
                workload: "fleet-storm".into(),
                seed: 7,
                seconds: 20.0,
                traced: true,
            }
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload paper-suite --seed -1 --seconds 1 --trace 0",
            "--workload paper-suite --seed 1 --seconds 0 --trace 0",
            "--workload paper-suite --seed 1 --seconds 1 --trace 2",
            "--workload paper-suite --seed 1 --seconds 1",
            "--workload paper-suite --seed 1 --seconds 1 --trace 0 --extra",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn passes_stop_within_the_budget() {
        let (mut ran, mut checked) = (0, 0);
        let walls = timed_passes(
            0.1,
            || {
                ran += 1;
                std::thread::sleep(std::time::Duration::from_millis(20));
            },
            |()| checked += 1,
        );
        assert_eq!((walls.len(), checked), (ran, ran));
        assert!(
            (MIN_PASSES..=5).contains(&ran),
            "{ran} passes of 20 ms in 100 ms"
        );
        let short = timed_passes(
            0.001,
            || std::thread::sleep(std::time::Duration::from_millis(5)),
            |()| {},
        );
        assert_eq!(short.len(), MIN_PASSES);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
