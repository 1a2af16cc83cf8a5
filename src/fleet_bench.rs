//! The fleet serving benchmark behind `cargo run --bin fleet_bench`.
//!
//! Serves the eight StreamIt benchmarks as eight tenants of a
//! [`swpipe::fleet::FleetEngine`] under three configurations:
//!
//! 1. **solo** — one device, hedging off, replication 1: the
//!    single-device disk-tier baseline the fleet's cross-device hit
//!    rate is judged against;
//! 2. **fleet** — N devices, hedging on, replication 2, no faults:
//!    the nominal fleet;
//! 3. **storm** — the same fleet under a seeded [`FleetStorm`]
//!    (rolling device kills, a rack brownout, a partition train),
//!    proving completion-or-rejection: zero jobs lost.
//!
//! Writes `BENCH_fleet.json` with all three reports, and in `--chaos`
//! mode writes `FLEET_chaos.json` carrying the router's full decision
//! log — the determinism witness the CI chaos job uploads.

use serde::Serialize;
use swpipe::fleet::{
    FleetEngine, FleetOptions, FleetReport, FleetStorm, FleetVerdict, HedgeOptions, RackBrownout,
    RouterDecision,
};
use swpipe::serve::{Job, QosClass, ServeOptions};

/// Arrival rounds of the full benchmark (each round submits all eight
/// benchmarks once).
pub const FULL_ROUNDS: usize = 6;
/// Steady-state iterations per job in the full benchmark.
pub const FULL_ITERATIONS: u64 = 4;
/// Fleet size of the full benchmark. Eight devices give the eight
/// benchmark tenants one-to-two-tenant homes, so slice widths settle
/// fast and the replicated store's cross-device hits dominate; smaller
/// fleets (more tenants per home) see more width churn from demand
/// rebalancing and correspondingly more honest compile misses.
pub const FULL_DEVICES: u32 = 8;
/// Default storm seed. Chosen so the rolling kills land on devices
/// with jobs in flight — the storm run must actually exercise
/// checkpoint-shipping failover, not just kill idle fleet members.
pub const FULL_SEED: u64 = 0xF1EE_700B;
/// Default iterations per job in `--chaos` mode. Deeper than
/// [`FULL_ITERATIONS`] so every benchmark's modulo schedule has a
/// steady window to capture — the chaos run dispatches steady states
/// as graph replays, and a device kill must be able to land mid-replay.
pub const CHAOS_ITERATIONS: u64 = 48;

/// The deterministic arrival trace: `rounds` round-robin rounds over
/// the benchmark suite, 50 ms apart within a round, 1 s between rounds,
/// QoS alternating across the suite so both fault policies serve.
#[must_use]
pub fn fleet_trace(rounds: usize, iterations: u64) -> Vec<(Job, f64)> {
    let suite = streambench::suite();
    let mut trace = Vec::new();
    let mut now = 0.0;
    for _round in 0..rounds {
        for (i, b) in suite.iter().enumerate() {
            trace.push((
                Job {
                    tenant: b.name.to_string(),
                    graph: b.spec.flatten().expect("benchmark flattens"),
                    input: b.input,
                    iterations,
                    qos: if i % 2 == 0 {
                        QosClass::Batch
                    } else {
                        QosClass::Interactive
                    },
                },
                now,
            ));
            now += 0.05;
        }
        now += 1.0;
    }
    trace
}

/// The per-device serving configuration all three runs share. No
/// launch-grain fault plan: device-grain faults are the fleet's own
/// axis, and keeping launches fault-free makes the solo run a clean
/// byte-identical reference for the differential tests.
#[must_use]
pub fn base_serve_options() -> ServeOptions {
    ServeOptions::default()
}

/// The single-device baseline: no replication to lean on, no second
/// device to hedge to.
#[must_use]
pub fn solo_options() -> FleetOptions {
    FleetOptions {
        devices: 1,
        base: base_serve_options(),
        replication: 1,
        hedge: HedgeOptions {
            enabled: false,
            ..HedgeOptions::default()
        },
        ..FleetOptions::default()
    }
}

/// The nominal fleet: `devices` members, replication 2, hedging on.
#[must_use]
pub fn fleet_options(devices: u32) -> FleetOptions {
    FleetOptions {
        devices,
        base: base_serve_options(),
        replication: 2,
        ..FleetOptions::default()
    }
}

/// The seeded storm the chaos configuration runs under: two rolling
/// kills (never below two live devices), a partition train, and a
/// one-device rack brownout mid-trace.
#[must_use]
pub fn bench_storm(seed: u64) -> FleetStorm {
    FleetStorm {
        seed,
        kills: 2,
        // Land the kills inside the arrival bursts (rounds start at
        // 0.0, 1.4, 2.8, …; cache-miss jobs stay in flight for the
        // 0.5 s compile penalty) so in-flight jobs actually fail over
        // instead of the storm only hitting idle devices.
        kill_start_secs: 0.25,
        kill_every_secs: 1.4,
        min_alive: 2,
        partitions: 2,
        partition_start_secs: 2.9,
        partition_every_secs: 1.4,
        partition_heal_secs: 0.6,
        rack: Some(RackBrownout {
            at_secs: 4.3,
            devices: 1,
            total_sms: 8,
            heal_secs: 1.0,
        }),
    }
}

/// The storm configuration: the nominal fleet plus `bench_storm(seed)`.
#[must_use]
pub fn storm_options(devices: u32, seed: u64) -> FleetOptions {
    FleetOptions {
        device_faults: bench_storm(seed).device_fault_plan(devices),
        ..fleet_options(devices)
    }
}

/// The `--chaos` configuration: the storm fleet with graph dispatch
/// on, so rolling kills and the brownout land on jobs whose steady
/// states run as captured-graph replays — failover must re-enter the
/// captured graph from the shipped checkpoint, with the re-capture
/// billed into the failover bucket.
#[must_use]
pub fn chaos_options(devices: u32, seed: u64) -> FleetOptions {
    let mut opts = storm_options(devices, seed);
    opts.base.graph_dispatch = true;
    opts
}

/// Runs one fleet configuration over a trace, returning the report,
/// the router's decision log, and the verdicts.
///
/// # Panics
///
/// Panics when compilation or execution fails — the trace is paced
/// below saturation, so a hard error is a runtime bug.
#[must_use]
pub fn run_fleet(
    opts: FleetOptions,
    trace: &[(Job, f64)],
) -> (FleetReport, Vec<RouterDecision>, Vec<FleetVerdict>) {
    let mut engine = FleetEngine::new(opts);
    let verdicts = engine.run(trace).expect("fleet trace serves");
    (engine.report(), engine.router_log().to_vec(), verdicts)
}

/// The three-configuration benchmark artifact (`BENCH_fleet.json`).
#[derive(Debug, Clone, Serialize)]
pub struct FleetBenchReport {
    /// Arrival rounds served.
    pub rounds: u64,
    /// Iterations per job.
    pub iterations: u64,
    /// Fleet size of the fleet/storm configurations.
    pub devices: u32,
    /// Storm seed.
    pub storm_seed: u64,
    /// Single-device baseline.
    pub solo: FleetReport,
    /// Nominal fleet.
    pub fleet: FleetReport,
    /// Fleet under the storm.
    pub storm: FleetReport,
}

/// Runs all three configurations and checks the fleet acceptance
/// criteria.
///
/// # Panics
///
/// Panics when the fleet's cross-device artifact-store hit rate fails
/// to beat the solo disk-tier hit rate, or when the storm loses a job.
#[must_use]
pub fn run_bench(rounds: usize, iterations: u64, devices: u32, seed: u64) -> FleetBenchReport {
    let trace = fleet_trace(rounds, iterations);

    let (solo, _, _) = run_fleet(solo_options(), &trace);
    let (fleet, _, _) = run_fleet(fleet_options(devices), &trace);
    let (storm, _, _) = run_fleet(storm_options(devices, seed), &trace);

    assert!(
        fleet.store.hit_rate() > solo.store.hit_rate(),
        "cross-device hit rate {:.3} must beat solo disk tier {:.3}",
        fleet.store.hit_rate(),
        solo.store.hit_rate()
    );
    assert_eq!(
        storm.jobs_lost, 0,
        "storm lost jobs: every job must complete or be rejected"
    );
    assert!(
        storm.failovers > 0,
        "the storm must catch at least one in-flight job (failover path unexercised)"
    );
    for (name, r) in [("solo", &solo), ("fleet", &fleet), ("storm", &storm)] {
        assert!(r.artifacts > 0, "{name}: no artifacts dispatched");
        assert_eq!(
            r.certified, r.artifacts,
            "{name}: every dispatched artifact must carry a verified isolation certificate"
        );
    }

    FleetBenchReport {
        rounds: rounds as u64,
        iterations,
        devices,
        storm_seed: seed,
        solo,
        fleet,
        storm,
    }
}

/// The chaos artifact (`FLEET_chaos.json`): the storm report plus the
/// router's full decision log.
#[derive(Debug, Clone, Serialize)]
pub struct FleetChaosArtifact {
    /// Storm seed.
    pub seed: u64,
    /// Fleet size.
    pub devices: u32,
    /// Whether the storm run dispatched steady states as captured-graph
    /// replays (the default for `--chaos`).
    pub graph_dispatch: bool,
    /// Launch-path cycles of a host-launched run of the same storm —
    /// the baseline the graph run's `report.launch_path_cycles` is
    /// judged against.
    pub host_launch_path_cycles: u64,
    /// `host_launch_path_cycles - report.launch_path_cycles`: the
    /// launch-overhead cycles graph dispatch eliminated under the storm.
    pub saved_launch_cycles: u64,
    /// The storm-run report.
    pub report: FleetReport,
    /// Every router decision, in order — byte-identical across
    /// same-seed replays.
    pub decisions: Vec<RouterDecision>,
}

/// Compares the committed `BENCH_fleet.json` against a fresh
/// three-configuration run — the fleet counterpart of
/// `serve_bench --check`. Drift is **schema drift** (recursive key
/// structure differs) or **headline-counter drift**: job accounting,
/// artifact-store hits/misses, failovers, and scheduler
/// `search_invocations` are all deterministic in virtual time, so they
/// must reproduce exactly per configuration.
///
/// # Errors
///
/// Returns every drift found, one human-readable line each.
pub fn check_drift(fresh: &FleetBenchReport, committed: &str) -> Result<(), Vec<String>> {
    use crate::serve_bench::{lookup, schema_paths};
    let fresh_v =
        serde_json::from_str(&serde_json::to_string(fresh)).expect("fresh report renders as JSON");
    let committed_v = match serde_json::from_str(committed) {
        Ok(v) => v,
        Err(e) => return Err(vec![format!("committed artifact is not valid JSON: {e}")]),
    };
    let mut drifts = Vec::new();

    let mut want = Vec::new();
    schema_paths(&fresh_v, "", &mut want);
    let mut have = Vec::new();
    schema_paths(&committed_v, "", &mut have);
    want.sort();
    want.dedup();
    have.sort();
    have.dedup();
    for p in want.iter().filter(|p| !have.contains(p)) {
        drifts.push(format!("schema: committed file is missing key {p}"));
    }
    for p in have.iter().filter(|p| !want.contains(p)) {
        drifts.push(format!("schema: committed file has stale key {p}"));
    }

    for config in ["solo", "fleet", "storm"] {
        for counter in [
            "jobs_submitted",
            "jobs_completed",
            "jobs_rejected",
            "jobs_lost",
            "failovers",
            "artifacts",
            "certified",
            "search_invocations",
            "store.lookups",
            "store.local_hits",
            "store.remote_hits",
            "store.misses",
        ] {
            let path = format!("{config}.{counter}");
            let f = lookup(&fresh_v, &path).and_then(serde_json::Value::as_f64);
            let c = lookup(&committed_v, &path).and_then(serde_json::Value::as_f64);
            match (f, c) {
                (Some(f), Some(c)) if (f - c).abs() > 1e-9 * (1.0 + f.abs()) => {
                    drifts.push(format!("counter {path}: committed {c} != fresh {f}"));
                }
                (Some(f), None) => drifts.push(format!("counter {path}: missing (fresh has {f})")),
                _ => {}
            }
        }
    }

    if drifts.is_empty() {
        Ok(())
    } else {
        Err(drifts)
    }
}

/// Serializes any report to `path` as pretty JSON.
///
/// # Panics
///
/// Panics when the file cannot be written.
pub fn write_json<T: Serialize>(value: &T, path: &str) {
    let json = serde_json::to_string_pretty(value);
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

fn print_report(name: &str, r: &FleetReport) {
    println!(
        "{name:>6}: {} dev ({} alive)  {} done / {} rejected / {} lost  \
         {:>8.1} tok/s  p99 {:.4}s  store hit {:.3} (remote {:.3})  \
         failovers {} (p99 +{:.4}s)  hedges {}/{}",
        r.devices,
        r.devices_alive,
        r.jobs_completed,
        r.jobs_rejected,
        r.jobs_lost,
        r.throughput_tokens_per_sec,
        r.p99_latency_secs,
        r.store.hit_rate(),
        r.store.remote_hit_rate(),
        r.failovers,
        r.failover_p99_secs,
        r.hedge_wins,
        r.hedges,
    );
}

/// A parsed `fleet_bench` command line.
#[derive(Debug)]
struct Cli {
    chaos: bool,
    check: Option<String>,
    seed: u64,
    devices: u32,
    rounds: usize,
    iterations: u64,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        chaos: false,
        check: None,
        seed: FULL_SEED,
        devices: FULL_DEVICES,
        rounds: FULL_ROUNDS,
        iterations: FULL_ITERATIONS,
    };
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--chaos" => cli.chaos = true,
            "--check" => cli.check = Some(args.next().ok_or("--check needs a path")?),
            "--seed" => cli.seed = number(&mut args, "--seed")?,
            "--devices" => cli.devices = number(&mut args, "--devices")?,
            "--rounds" => cli.rounds = number(&mut args, "--rounds")?,
            "--iterations" => cli.iterations = number(&mut args, "--iterations")?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(cli)
}

/// The value after flag `name`, parsed into the flag's own type (so an
/// out-of-range value is an error, not a truncation).
fn number<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    name: &str,
) -> Result<T, String> {
    let v = args
        .next()
        .ok_or_else(|| format!("{name} needs a number"))?;
    v.parse()
        .map_err(|_| format!("{name} needs a number, got '{v}'"))
}

/// Prints `msg` and the usage text to stderr and exits with code 2.
fn usage_error(msg: &str) -> ! {
    eprint!(
        "fleet_bench: {msg}\n\n\
         USAGE:\n    fleet_bench [--chaos] [--check <path>] [--seed N] [--devices N] \
         [--rounds N] [--iterations N]\n"
    );
    std::process::exit(2);
}

/// Entry point for the `fleet_bench` binary.
///
/// Flags: `--chaos` (write `FLEET_chaos.json` with the decision log),
/// `--check <path>` (exit non-zero if the committed artifact at `path`
/// has drifted from a fresh run — the CI gate mirroring
/// `serve_bench --check`), `--seed N`, `--devices N`, `--rounds N`,
/// `--iterations N`. A malformed flag or an unreadable `--check` path
/// prints a usage error and exits with code 2 before any benchmark work.
///
/// # Panics
///
/// Panics when an acceptance assertion fails.
pub fn main() {
    let Cli {
        chaos,
        check,
        seed,
        devices,
        rounds,
        iterations,
    } = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| usage_error(&e));

    if let Some(path) = check {
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| usage_error(&format!("cannot read {path}: {e}")));
        let fresh = run_bench(rounds, iterations, devices, seed);
        match check_drift(&fresh, &committed) {
            Ok(()) => println!("{path}: no drift against a fresh run"),
            Err(drifts) => {
                eprintln!("{path} has drifted from a fresh run:");
                for d in &drifts {
                    eprintln!("  - {d}");
                }
                eprintln!("regenerate with: cargo run --release --bin fleet_bench");
                std::process::exit(1);
            }
        }
        return;
    }

    if chaos {
        // Chaos runs default deeper than the bench trace so every
        // benchmark has a steady window to capture; an explicit
        // --iterations still overrides.
        let iters = if iterations == FULL_ITERATIONS {
            CHAOS_ITERATIONS
        } else {
            iterations
        };
        let trace = fleet_trace(rounds, iters);
        // The same storm host-launched: the launch-overhead baseline
        // and the byte-identity reference for the graph-dispatched run.
        let (host, _, host_verdicts) = run_fleet(storm_options(devices, seed), &trace);
        let (report, decisions, verdicts) = run_fleet(chaos_options(devices, seed), &trace);
        assert_eq!(host.jobs_lost, 0, "host-launched chaos run lost jobs");
        assert_eq!(report.jobs_lost, 0, "chaos run lost jobs");
        assert!(
            report.graph_replays > 0,
            "the chaos fleet replayed nothing: graph dispatch was not exercised"
        );
        assert!(
            report.failovers > 0,
            "the storm must catch an in-flight graph-dispatched job \
             (mid-replay failover unexercised)"
        );
        assert!(
            report.launch_path_cycles < host.launch_path_cycles,
            "graph dispatch must cut the storm's launch-path cycles ({} vs {})",
            report.launch_path_cycles,
            host.launch_path_cycles
        );
        // Dispatch mode may change when things finish, never what jobs
        // compute: every job completed under both modes with
        // byte-identical outputs.
        for (i, (h, g)) in host_verdicts.iter().zip(&verdicts).enumerate() {
            match (h, g) {
                (FleetVerdict::Completed(h), FleetVerdict::Completed(g)) => {
                    assert_eq!(
                        h.outputs, g.outputs,
                        "job {i}: graph-dispatched output diverged from host-launched"
                    );
                }
                _ => panic!("job {i}: completion pattern diverged across dispatch modes"),
            }
        }
        print_report("storm", &report);
        let artifact = FleetChaosArtifact {
            seed,
            devices,
            graph_dispatch: true,
            host_launch_path_cycles: host.launch_path_cycles,
            saved_launch_cycles: host.launch_path_cycles - report.launch_path_cycles,
            report,
            decisions,
        };
        println!(
            "graph dispatch under storm: launch path {} -> {} cycles ({} replays, {} failovers)",
            artifact.host_launch_path_cycles,
            artifact.report.launch_path_cycles,
            artifact.report.graph_replays,
            artifact.report.failovers,
        );
        write_json(&artifact, "FLEET_chaos.json");
        println!(
            "wrote FLEET_chaos.json ({} decisions)",
            artifact.decisions.len()
        );
        return;
    }

    let report = run_bench(rounds, iterations, devices, seed);
    print_report("solo", &report.solo);
    print_report("fleet", &report.fleet);
    print_report("storm", &report.storm);
    write_json(&report, "BENCH_fleet.json");
    println!("wrote BENCH_fleet.json");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_or_report_usage_errors() {
        let parse = |a: &[&str]| parse_args(a.iter().map(|s| (*s).to_string()));
        let cli = parse(&["--chaos", "--seed", "7", "--devices", "4"]).unwrap();
        assert!(cli.chaos);
        assert_eq!((cli.seed, cli.devices), (7, 4));
        assert_eq!(parse(&[]).unwrap().rounds, FULL_ROUNDS);
        assert!(parse(&["--seed", "seven"]).unwrap_err().contains("seven"));
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--devices", "4294967297"]).is_err());
        assert!(parse(&["--check"]).is_err());
        assert!(parse(&["--bogus"]).unwrap_err().contains("--bogus"));
    }

    /// A cheap report for drift-gate tests: one tiny solo run stands in
    /// for all three configurations (the gate compares JSON trees; it
    /// does not care that the configurations coincide).
    fn tiny_report() -> FleetBenchReport {
        let trace = fleet_trace(1, 1);
        let (solo, _, _) = run_fleet(solo_options(), &trace);
        FleetBenchReport {
            rounds: 1,
            iterations: 1,
            devices: 1,
            storm_seed: 0,
            fleet: solo.clone(),
            storm: solo.clone(),
            solo,
        }
    }

    #[test]
    fn drift_check_accepts_a_faithful_artifact_and_catches_drift() {
        let report = tiny_report();
        let json = serde_json::to_string_pretty(&report);
        assert_eq!(check_drift(&report, &json), Ok(()));

        let renamed = json.replacen("\"search_invocations\"", "\"search_invocs\"", 1);
        let drifts = check_drift(&report, &renamed).unwrap_err();
        assert!(
            drifts.iter().any(|d| d.contains("schema")),
            "renamed key must read as schema drift: {drifts:?}"
        );

        let mut stale = report.clone();
        stale.fleet.jobs_completed += 1;
        let drifts = check_drift(&stale, &json).unwrap_err();
        assert!(
            drifts.iter().any(|d| d.contains("fleet.jobs_completed")),
            "stale counter must be flagged: {drifts:?}"
        );

        assert!(check_drift(&report, "{not json").is_err());
    }
}
