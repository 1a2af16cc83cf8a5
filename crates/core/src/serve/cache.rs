//! Content-addressed compilation cache.
//!
//! A cache key is a seedless FNV-1a hash over everything that determines
//! the compiled artifact: the canonical encoding of the stream graph
//! (names, roles, pretty-printed work functions, edge topology with
//! initial tokens), the device shape, the timing calibration, the
//! profiling grid, the search options, the ladder budgets, and the fault
//! policy/plan. Seedless hashing makes keys stable across processes, so
//! a disk-persisted entry written by one serving process is a valid hit
//! for any other.
//!
//! Hits never invoke the scheduler ([`crate::schedule::find`] /
//! [`crate::schedule::heuristic::schedule`] — observable through
//! [`crate::schedule::search_invocations`]); they re-run the *static
//! verifier* instead, so a served artifact is checked on every hit, not
//! just when first compiled. Disk entries store the execution
//! configuration and the schedule; reload rebuilds the instance graph
//! from the stored configuration and passes the same verifier before the
//! entry is trusted.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;

use serde::Serialize;
use serde_json::Value;
use streamir::graph::FlatGraph;

use crate::config::Selection;
use crate::exec::{Compiled, Scheme};
use crate::hash::Fnv;
use crate::instances::{self, ExecConfig};
use crate::pipeline::{
    DegradationReport, LadderRung, PipelineOptions, ResilientCompiled, ResilientPipeline,
};
use crate::plan::{self, LayoutKind};
use crate::profile::ProfileMemo;
use crate::schedule::{Schedule, SearchReport};
use crate::{verify, Error, Result};

/// The stable content hash of a compilation request: graph + device +
/// timing + profiling grid + search options + ladder budgets + fault
/// policy/plan. Identical inputs hash identically in every process.
#[must_use]
pub fn cache_key(graph: &FlatGraph, opts: &PipelineOptions) -> u64 {
    let mut h = Fnv::new();
    for node in graph.nodes() {
        h.str(&node.name);
        h.str(&format!("{:?}", node.role));
        h.str(&node.work.to_pretty());
    }
    for edge in graph.edges() {
        h.str(&format!(
            "{}:{}->{}:{} {:?} {:?}",
            edge.src.0, edge.src_port, edge.dst.0, edge.dst_port, edge.elem, edge.initial
        ));
    }
    h.str(&format!("{:?}/{:?}", graph.input(), graph.output()));
    h.str(&format!("{:?}", opts.compile.device));
    h.str(&format!("{:?}", opts.compile.timing));
    h.str(&format!("{:?}", opts.compile.profile));
    h.str(&format!("{:?}", opts.compile.search));
    h.str(&format!("{:?}", opts.budgets));
    h.str(&format!("{:?}", opts.policy));
    h.str(&format!("{:?}", opts.fault_plan));
    // Dispatch mode is part of the artifact's identity: its run options
    // differ, so graph-dispatched and host-launched artifacts of the same
    // program must occupy distinct cache slots.
    h.str(&format!("graph_dispatch={}", opts.graph_dispatch));
    h.finish()
}

/// Cache sizing and persistence options.
#[derive(Debug, Clone)]
pub struct CacheOptions {
    /// In-memory entries kept; the least-recently-used entry is evicted
    /// beyond this.
    pub capacity: usize,
    /// Persist artifacts as JSON under this directory and consult it on
    /// memory misses. `None` keeps the cache memory-only.
    pub disk_dir: Option<PathBuf>,
}

impl Default for CacheOptions {
    fn default() -> Self {
        CacheOptions {
            capacity: 32,
            disk_dir: None,
        }
    }
}

/// Hit/miss/eviction counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Lookups served from memory or disk without invoking the scheduler.
    pub hits: u64,
    /// Lookups that compiled from scratch.
    pub misses: u64,
    /// In-memory entries displaced by the LRU bound.
    pub evictions: u64,
    /// The subset of `hits` reloaded from the disk tier.
    pub disk_loads: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`; 0 when no lookups happened.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What an in-memory cache slot holds. `Reserved` is the asynchronous
/// compile protocol's placeholder: the key has been claimed by a compile
/// in flight (the event engine's worker pool), it participates in LRU
/// accounting exactly as a ready entry would, and a lookup that lands on
/// it is a *hit* — the artifact is deterministic, only its wall-clock
/// availability lags.
enum Slot {
    Ready(Box<ResilientCompiled>),
    Reserved,
}

struct Entry {
    slot: Slot,
    last_used: u64,
}

/// The outcome of [`CompilationCache::lookup_or_reserve`].
pub enum Lookup {
    /// A ready artifact, already re-verified — serve it.
    Hit(Box<ResilientCompiled>),
    /// The key is reserved by a compile still in flight: a hit for
    /// accounting purposes, but the caller must wait for the compile it
    /// (or another tenant) dispatched earlier and re-verify the artifact
    /// before serving it.
    PendingHit(u64),
    /// A miss. The key is now reserved: the caller must compile and then
    /// [`CompilationCache::fulfill`] (or [`CompilationCache::abandon`]
    /// on failure).
    Miss(u64),
}

/// The content-addressed, LRU-bounded compilation cache.
pub struct CompilationCache {
    opts: CacheOptions,
    entries: HashMap<u64, Entry>,
    tick: u64,
    stats: CacheStats,
    memo: ProfileMemo,
}

impl CompilationCache {
    /// An empty cache.
    #[must_use]
    pub fn new(opts: CacheOptions) -> CompilationCache {
        CompilationCache {
            opts,
            entries: HashMap::new(),
            tick: 0,
            stats: CacheStats::default(),
            memo: ProfileMemo::default(),
        }
    }

    /// The profiling memo every compile this cache runs shares: a filter
    /// is profiled once per grid point, not once per slice width × fault
    /// policy (profiles do not depend on either). Asynchronous compiles
    /// ([`super::EventEngine`]'s workers) take a clone.
    #[must_use]
    pub(crate) fn profile_memo(&self) -> &ProfileMemo {
        &self.memo
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Zeroes the hit/miss/eviction counters while keeping every entry
    /// resident. Cache warming uses this so its own deliberate misses do
    /// not pollute the serving-phase hit rate the reports publish.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// In-memory entries currently resident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the key is resident in memory (does not touch LRU order
    /// or counters).
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        self.entries.contains_key(&key)
    }

    /// Returns the artifact for `graph` under `opts`, compiling on a
    /// miss. The `bool` is `true` for a cache hit (memory or disk). Every
    /// hit re-runs the static verifier on the stored schedule before the
    /// artifact is served; the scheduler itself is never invoked on a
    /// hit.
    ///
    /// # Errors
    ///
    /// Compilation errors on a miss; [`Error::Verification`] when a
    /// stored artifact no longer passes the verifier.
    pub fn get_or_compile(
        &mut self,
        graph: &FlatGraph,
        opts: &PipelineOptions,
    ) -> Result<(ResilientCompiled, bool)> {
        match self.lookup_or_reserve(graph, opts)? {
            Lookup::Hit(artifact) => Ok((*artifact, true)),
            Lookup::PendingHit(key) => Err(Error::Api(format!(
                "cache entry {key:016x} is reserved by an in-flight compile; \
                 synchronous get_or_compile cannot wait on it"
            ))),
            Lookup::Miss(key) => {
                let artifact = match ResilientPipeline::new(opts.clone())
                    .with_memo(self.memo.clone())
                    .compile(graph)
                {
                    Ok(a) => a,
                    Err(e) => {
                        self.abandon(key);
                        return Err(e);
                    }
                };
                self.fulfill(key, &artifact);
                Ok((artifact, false))
            }
        }
    }

    /// One cache transaction of the asynchronous compile protocol: a
    /// ready entry (memory or disk) is returned verified; a reserved
    /// entry reports a pending hit; a miss reserves the key — claiming
    /// its LRU slot *now*, so the eviction sequence is identical to the
    /// synchronous path's — and obliges the caller to compile and
    /// [`CompilationCache::fulfill`].
    ///
    /// Hit/miss counters are charged here (a miss at reservation time,
    /// not at compile completion), which is what makes the event-driven
    /// engine's cache statistics bit-identical to the eager server's.
    ///
    /// # Errors
    ///
    /// [`Error::Verification`] when a stored artifact no longer passes
    /// the verifier; corrupt disk entries as for `get_or_compile`.
    pub fn lookup_or_reserve(
        &mut self,
        graph: &FlatGraph,
        opts: &PipelineOptions,
    ) -> Result<Lookup> {
        let key = cache_key(graph, opts);
        self.tick += 1;
        if let Some(e) = self.entries.get_mut(&key) {
            e.last_used = self.tick;
            match &e.slot {
                // Content guard: the key hashes the graph's printed form,
                // which omits table values, so two programs can share a
                // key. A stored artifact compiled for a different graph
                // is a miss; the recompile takes over the slot.
                Slot::Ready(artifact) if artifact.compiled.graph != *graph => {
                    e.slot = Slot::Reserved;
                    self.stats.misses += 1;
                    return Ok(Lookup::Miss(key));
                }
                Slot::Ready(artifact) => {
                    let artifact = artifact.clone();
                    verify_artifact(&artifact)?;
                    self.stats.hits += 1;
                    return Ok(Lookup::Hit(artifact));
                }
                Slot::Reserved => {
                    self.stats.hits += 1;
                    return Ok(Lookup::PendingHit(key));
                }
            }
        }
        if let Some(artifact) = self.try_disk_load(key, graph, opts)? {
            verify_artifact(&artifact)?;
            self.stats.hits += 1;
            self.stats.disk_loads += 1;
            self.insert(key, Slot::Ready(Box::new(artifact.clone())));
            return Ok(Lookup::Hit(Box::new(artifact)));
        }
        self.stats.misses += 1;
        self.insert(key, Slot::Reserved);
        Ok(Lookup::Miss(key))
    }

    /// Completes a reservation: persists the artifact to the disk tier
    /// and makes the slot servable. A reservation that was evicted in
    /// the meantime still persists (matching the synchronous path, which
    /// wrote the disk entry before the eviction could have happened) but
    /// is not re-inserted.
    pub fn fulfill(&mut self, key: u64, artifact: &ResilientCompiled) {
        self.persist(key, artifact);
        if let Some(e) = self.entries.get_mut(&key) {
            if matches!(e.slot, Slot::Reserved) {
                e.slot = Slot::Ready(Box::new(artifact.clone()));
            }
        }
    }

    /// Drops a reservation whose compile failed, so the key misses (and
    /// recompiles) instead of dangling as a permanent pending hit.
    pub fn abandon(&mut self, key: u64) {
        if let Some(e) = self.entries.get(&key) {
            if matches!(e.slot, Slot::Reserved) {
                self.entries.remove(&key);
            }
        }
    }

    fn insert(&mut self, key: u64, slot: Slot) {
        if self.opts.capacity == 0 {
            return;
        }
        while self.entries.len() >= self.opts.capacity {
            if let Some(&lru) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                self.entries.remove(&lru);
                self.stats.evictions += 1;
            } else {
                break;
            }
        }
        self.entries.insert(
            key,
            Entry {
                slot,
                last_used: self.tick,
            },
        );
    }

    fn disk_path(&self, key: u64) -> Option<PathBuf> {
        self.opts
            .disk_dir
            .as_ref()
            .map(|d| d.join(format!("{key:016x}.json")))
    }

    fn persist(&self, key: u64, artifact: &ResilientCompiled) {
        let Some(path) = self.disk_path(key) else {
            return;
        };
        if let Some(dir) = path.parent() {
            // Persistence is best-effort: a read-only disk tier degrades
            // to memory-only caching rather than failing the compile.
            let _ = std::fs::create_dir_all(dir);
        }
        let _ = std::fs::write(
            &path,
            serde_json::to_string_pretty(&DiskEntry::of(artifact)),
        );
    }

    fn try_disk_load(
        &self,
        key: u64,
        graph: &FlatGraph,
        opts: &PipelineOptions,
    ) -> Result<Option<ResilientCompiled>> {
        let Some(path) = self.disk_path(key) else {
            return Ok(None);
        };
        let Ok(text) = std::fs::read_to_string(&path) else {
            return Ok(None);
        };
        let value = serde_json::from_str(&text)
            .map_err(|e| Error::Api(format!("corrupt cache entry {}: {e}", path.display())))?;
        rebuild(&value, graph, opts).map(Some)
    }
}

/// The acceptance gate a cached artifact must clear before it is served:
/// the same schedule- and plan-level static checks the pipeline runs on
/// a freshly compiled rung. The event engine also runs it on artifacts
/// joined from pending reservations, so a hit is verified-on-serve on
/// both serving paths.
pub(crate) fn verify_artifact(artifact: &ResilientCompiled) -> Result<()> {
    let c = &artifact.compiled;
    let serial = matches!(artifact.scheme, Scheme::Serial { .. });
    let num_sms = if serial { 1 } else { c.device.num_sms };
    let mut diags = verify::check_schedule(&c.graph, &c.ig, &c.exec_cfg, &c.schedule, num_sms, 1);
    let plan_sched = if serial { None } else { Some(&c.schedule) };
    let plan = plan::plan(&c.graph, &c.ig, plan_sched, 1, LayoutKind::Optimized);
    diags.extend(verify::check_plan(&c.graph, &c.ig, plan_sched, &plan));
    if !verify::passes(&diags) {
        return Err(Error::verification(diags));
    }
    // A served artifact must additionally carry a valid tenant-isolation
    // certificate: serving multiplexes tenants onto shared devices, and
    // the cheap digest re-check here stands in for re-running the full
    // isolation proof on every hit.
    match &artifact.isolation {
        Some(cert) => verify::verify_certificate(c, artifact.scheme, cert),
        None => Err(Error::Api(
            "artifact carries no tenant-isolation certificate; \
             refusing to serve it onto a shared device"
                .into(),
        )),
    }
}

/// What the disk tier stores: the products of the scheduler that cannot
/// be rederived without invoking it. The instance graph, buffer plan,
/// and checkpoint plan are deterministic functions of (graph, exec_cfg,
/// options) and are rebuilt on load.
#[derive(Serialize)]
struct DiskEntry {
    exec_cfg: ExecConfig,
    schedule: Schedule,
    report: SearchReport,
    shipped: LadderRung,
    normalized_ii: f64,
}

impl DiskEntry {
    fn of(artifact: &ResilientCompiled) -> DiskEntry {
        DiskEntry {
            exec_cfg: artifact.compiled.exec_cfg.clone(),
            schedule: artifact.compiled.schedule.clone(),
            report: artifact.compiled.report.clone(),
            shipped: artifact.report.shipped,
            normalized_ii: artifact.compiled.selection.normalized_ii,
        }
    }
}

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value> {
    v.get(key)
        .ok_or_else(|| Error::Api(format!("cache entry missing field '{key}'")))
}

fn u64_field(v: &Value, key: &str) -> Result<u64> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| Error::Api(format!("cache entry field '{key}' is not an integer")))
}

fn f64_field(v: &Value, key: &str) -> Result<f64> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| Error::Api(format!("cache entry field '{key}' is not a number")))
}

fn u64_list(v: &Value, key: &str) -> Result<Vec<u64>> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| Error::Api(format!("cache entry field '{key}' is not an array")))?
        .iter()
        .map(|x| {
            x.as_u64()
                .ok_or_else(|| Error::Api(format!("non-integer in cache field '{key}'")))
        })
        .collect()
}

fn duration_field(v: &Value, key: &str) -> Result<Duration> {
    let d = field(v, key)?;
    Ok(Duration::new(
        u64_field(d, "secs")?,
        u64_field(d, "nanos")? as u32,
    ))
}

fn rung_from_str(s: &str) -> Result<LadderRung> {
    match s {
        "Beam" => Ok(LadderRung::Beam),
        "ExactIlp" => Ok(LadderRung::ExactIlp),
        "RelaxedIlp" => Ok(LadderRung::RelaxedIlp),
        "Heuristic" => Ok(LadderRung::Heuristic),
        "SerialSas" => Ok(LadderRung::SerialSas),
        other => Err(Error::Api(format!("unknown ladder rung '{other}'"))),
    }
}

/// Rebuilds a full artifact from a disk entry: instance graph from the
/// stored execution configuration, checkpoint plan from the request's
/// fault assumptions, schedule and reports verbatim. The caller verifies
/// the result before serving it.
fn rebuild(value: &Value, graph: &FlatGraph, opts: &PipelineOptions) -> Result<ResilientCompiled> {
    let ec = field(value, "exec_cfg")?;
    let exec_cfg = ExecConfig {
        regs_per_thread: u64_field(ec, "regs_per_thread")? as u32,
        threads_per_block: u64_field(ec, "threads_per_block")? as u32,
        threads: u64_list(ec, "threads")?.iter().map(|&t| t as u32).collect(),
        delay: u64_list(ec, "delay")?,
    };
    let sc = field(value, "schedule")?;
    let schedule = Schedule {
        ii: u64_field(sc, "ii")?,
        sm_of: u64_list(sc, "sm_of")?.iter().map(|&s| s as u32).collect(),
        offset: u64_list(sc, "offset")?,
        stage: u64_list(sc, "stage")?,
    };
    let rp = field(value, "report")?;
    let report = SearchReport {
        lower_bound: u64_field(rp, "lower_bound")?,
        final_ii: u64_field(rp, "final_ii")?,
        nominal_ii: u64_field(rp, "nominal_ii")?,
        fault_reserve: u64_field(rp, "fault_reserve")?,
        relaxation_pct: f64_field(rp, "relaxation_pct")?,
        attempts: u64_field(rp, "attempts")? as u32,
        solve_time: duration_field(rp, "solve_time")?,
        used_ilp: matches!(field(rp, "used_ilp")?, Value::Bool(true)),
        ilp_vars: u64_field(rp, "ilp_vars")? as usize,
        ilp_constraints: u64_field(rp, "ilp_constraints")? as usize,
    };
    let shipped = rung_from_str(
        field(value, "shipped")?
            .as_str()
            .ok_or_else(|| Error::Api("cache entry 'shipped' is not a string".into()))?,
    )?;
    let normalized_ii = f64_field(value, "normalized_ii")?;

    let ig = instances::build(graph, &exec_cfg)?;
    let scheme = match shipped {
        LadderRung::SerialSas => Scheme::Serial { batch: 1 },
        _ => Scheme::Swp { coarsening: 1 },
    };
    let checkpoint = plan::checkpoint_plan(graph, &opts.compile.timing, opts.fault_plan.as_ref());
    let compiled = Compiled {
        graph: graph.clone(),
        selection: Selection {
            exec: exec_cfg.clone(),
            normalized_ii,
            candidates: Vec::new(),
        },
        exec_cfg,
        ig,
        schedule,
        report,
        device: opts.compile.device.clone(),
        timing: opts.compile.timing.clone(),
    };
    // Disk entries never store the certificate: the isolation proof is a
    // deterministic function of (graph, exec_cfg, scheme) and is re-run
    // on load, so a tampered entry cannot smuggle in a stale proof.
    let isolation = verify::isolate::certify(&compiled, scheme)
        .ok()
        .and_then(|iso| iso.certificate);
    Ok(ResilientCompiled {
        compiled,
        report: DegradationReport {
            shipped,
            // Disk entries do not replay the original ladder walk; an
            // empty attempt list marks a reloaded artifact.
            attempts: Vec::new(),
            policy: opts.policy,
            checkpoint,
        },
        scheme,
        run_options: crate::pipeline::run_options_for(
            opts.policy,
            opts.fault_plan.clone(),
            opts.graph_dispatch,
        ),
        isolation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::CompileOptions;
    use crate::schedule;
    use streamir::graph::{FilterSpec, StreamSpec};
    use streamir::ir::{ElemTy, Expr, FnBuilder};

    fn map_filter(name: &str, k: i32) -> StreamSpec {
        let mut b = FnBuilder::new(&[ElemTy::I32], &[ElemTy::I32]);
        let x = b.local(ElemTy::I32);
        b.pop_into(0, x);
        b.push(0, Expr::local(x).mul(Expr::i32(k)));
        StreamSpec::filter(FilterSpec::new(name, b.build().unwrap()))
    }

    fn chain(names: &[(&str, i32)]) -> FlatGraph {
        StreamSpec::pipeline(
            names
                .iter()
                .map(|&(n, k)| map_filter(n, k))
                .collect::<Vec<_>>(),
        )
        .flatten()
        .unwrap()
    }

    fn small_opts() -> PipelineOptions {
        PipelineOptions {
            compile: CompileOptions::small_test(),
            ..PipelineOptions::default()
        }
    }

    #[test]
    fn key_is_deterministic_and_content_sensitive() {
        let g1 = chain(&[("a", 2), ("b", 3)]);
        let g2 = chain(&[("a", 2), ("b", 3)]);
        let g3 = chain(&[("a", 2), ("b", 5)]);
        let opts = small_opts();
        assert_eq!(cache_key(&g1, &opts), cache_key(&g2, &opts));
        assert_ne!(cache_key(&g1, &opts), cache_key(&g3, &opts));
        let mut other = small_opts();
        other.policy = crate::pipeline::FaultPolicy::TailLatency;
        assert_ne!(
            cache_key(&g1, &opts),
            cache_key(&g1, &other),
            "fault policy must distinguish compilations"
        );
        let mut narrower = small_opts();
        narrower.compile.device.num_sms = 2;
        assert_ne!(
            cache_key(&g1, &opts),
            cache_key(&g1, &narrower),
            "device shape must distinguish compilations"
        );
    }

    #[test]
    fn hit_skips_the_scheduler_and_matches_the_fresh_artifact() {
        let g = chain(&[("a", 2), ("b", 3)]);
        let opts = small_opts();
        let mut cache = CompilationCache::new(CacheOptions::default());
        let (fresh, hit) = cache.get_or_compile(&g, &opts).unwrap();
        assert!(!hit);
        let before = schedule::thread_search_invocations();
        let (cached, hit) = cache.get_or_compile(&g, &opts).unwrap();
        assert!(hit);
        assert_eq!(
            schedule::thread_search_invocations(),
            before,
            "a cache hit must not invoke the scheduler"
        );
        assert_eq!(cached.compiled.schedule, fresh.compiled.schedule);
        assert_eq!(cached.report.shipped, fresh.report.shipped);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let g1 = chain(&[("a", 2)]);
        let g2 = chain(&[("b", 3)]);
        let g3 = chain(&[("c", 5)]);
        let opts = small_opts();
        let mut cache = CompilationCache::new(CacheOptions {
            capacity: 2,
            disk_dir: None,
        });
        cache.get_or_compile(&g1, &opts).unwrap();
        cache.get_or_compile(&g2, &opts).unwrap();
        // Touch g1 so g2 becomes least recently used.
        cache.get_or_compile(&g1, &opts).unwrap();
        cache.get_or_compile(&g3, &opts).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(cache_key(&g1, &opts)));
        assert!(!cache.contains(cache_key(&g2, &opts)));
        assert!(cache.contains(cache_key(&g3, &opts)));
    }

    #[test]
    fn reservation_protocol_mirrors_the_synchronous_path() {
        let g = chain(&[("a", 2), ("b", 3)]);
        let opts = small_opts();
        let mut cache = CompilationCache::new(CacheOptions::default());

        // First lookup misses and reserves the key.
        let key = match cache.lookup_or_reserve(&g, &opts).unwrap() {
            Lookup::Miss(k) => k,
            _ => panic!("fresh cache must miss"),
        };
        assert_eq!(cache.stats().misses, 1);
        assert!(cache.contains(key), "reservation claims the slot");

        // A second lookup before the compile lands is a pending hit —
        // the artifact is deterministic, only wall-clock availability
        // lags — and is charged as a hit.
        assert!(matches!(
            cache.lookup_or_reserve(&g, &opts).unwrap(),
            Lookup::PendingHit(k) if k == key
        ));
        assert_eq!(cache.stats().hits, 1);

        // Fulfilling makes the slot servable.
        let artifact = ResilientPipeline::new(opts.clone()).compile(&g).unwrap();
        cache.fulfill(key, &artifact);
        match cache.lookup_or_reserve(&g, &opts).unwrap() {
            Lookup::Hit(got) => assert_eq!(got.compiled.schedule, artifact.compiled.schedule),
            _ => panic!("fulfilled reservation must hit"),
        }

        // An abandoned reservation misses (and re-reserves) instead of
        // dangling as a permanent pending hit.
        let g2 = chain(&[("c", 5)]);
        let key2 = match cache.lookup_or_reserve(&g2, &opts).unwrap() {
            Lookup::Miss(k) => k,
            _ => panic!("new graph must miss"),
        };
        cache.abandon(key2);
        assert!(!cache.contains(key2));
        assert!(matches!(
            cache.lookup_or_reserve(&g2, &opts).unwrap(),
            Lookup::Miss(k) if k == key2
        ));
    }

    #[test]
    fn disk_tier_reloads_across_cache_instances() {
        let dir =
            std::env::temp_dir().join(format!("swpipe-serve-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = chain(&[("a", 2), ("b", 3)]);
        let opts = small_opts();
        let copts = CacheOptions {
            capacity: 8,
            disk_dir: Some(dir.clone()),
        };
        let mut first = CompilationCache::new(copts.clone());
        let (fresh, hit) = first.get_or_compile(&g, &opts).unwrap();
        assert!(!hit);
        // A brand-new cache (fresh process, in effect) must hit via disk
        // without invoking the scheduler.
        let mut second = CompilationCache::new(copts);
        let before = schedule::thread_search_invocations();
        let (reloaded, hit) = second.get_or_compile(&g, &opts).unwrap();
        assert!(hit, "disk entry must be a hit");
        assert_eq!(schedule::thread_search_invocations(), before);
        assert_eq!(second.stats().disk_loads, 1);
        assert_eq!(reloaded.compiled.schedule, fresh.compiled.schedule);
        assert_eq!(reloaded.compiled.exec_cfg, fresh.compiled.exec_cfg);
        assert_eq!(reloaded.report.shipped, fresh.report.shipped);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
