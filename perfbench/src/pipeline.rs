//! One pass of a workload: a world build, then rounds that each
//! regenerate the report from the reference store and run one serving
//! sweep on the reference world, with the campaign's days scanned in
//! rounds spaced evenly over the pass. Every call into the library is
//! timed as a span.
//!
//! Interleaving the stages spreads each stage's samples over the whole
//! pass, so a slow stretch of a shared host lands on all of them a
//! little instead of on one of them a lot.
//!
//! The campaign loop is the one `Campaign::run_to_store` runs (step the
//! world, scan every vantage, append each vantage-day), driven here so
//! each step can be timed; the caller checks that it wrote the same rows
//! as the library's own loop.

use crate::check::{self, Digests, Reference};
use crate::serve_trace;
use crate::trace::Spans;
use crate::workloads::Workload;
use httpsrr::analysis;
use httpsrr::ecosystem::World;
use httpsrr::netsim::TrafficStats;
use httpsrr::resolver::{CacheStats, QueryEngine};
use httpsrr::scanner::{
    flags, open_store, scan_one_day, OpenStore, OrgId, OrgInterner, StoreMeta, StoreWriter,
};
use httpsrr::serve::load_sweep;
use httpsrr::telemetry::MetricsRegistry;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What bounds a pass: keep adding rounds, scanning day `i` once
/// `i / days` of the seconds have passed, until the campaign is done and
/// the seconds are spent; or replay an earlier pass's schedule (which
/// rounds scanned a day), so a traced pass repeats its work exactly.
#[derive(Debug, Clone, Copy)]
pub enum Budget<'a> {
    Seconds(f64),
    Replay(&'a [bool]),
}

/// Fewest rounds: two, so every pass repeats the report and the sweep.
const MIN_ROUNDS: usize = 2;

/// The scanner's three query waves, whose wall-clock histograms sum the
/// time a scan spends inside `QueryEngine::resolve_batch`.
const WAVES: [&str; 3] =
    ["scan.wave1_https_us", "scan.wave2_followups_us", "scan.wave3_nshosts_us"];

/// Counts the library exposes, gathered only by an instrumented pass.
#[derive(Debug, Default)]
pub struct Counters {
    /// Registry counters summed over every engine of the pass.
    pub registry: BTreeMap<String, u64>,
    /// Cache statistics merged over every engine of the pass.
    pub cache: CacheStats,
    /// Network traffic of the campaign.
    pub net: TrafficStats,
}

/// Everything one pass measured and produced.
#[derive(Debug, Default)]
pub struct Pass {
    pub spans: Spans,
    pub wall: Duration,
    /// Per round: whether it scanned a campaign day.
    pub schedule: Vec<bool>,
    pub days: Vec<u64>,
    pub day_walls: Vec<Duration>,
    pub report_walls: Vec<Duration>,
    pub serve_walls: Vec<Duration>,
    /// Digest of each vantage-day as scanned, before it was stored.
    pub digests: Digests,
    pub targets: u64,
    pub failed: u64,
    pub timeouts: u64,
    pub store_bytes: u64,
    /// Rows one streaming pass over the store reads.
    pub store_rows: u64,
    /// Sums over every sweep of the pass.
    pub serve_queries: u64,
    pub serve_hits: u64,
    pub serve_failures: u64,
    pub counters: Option<Counters>,
}

/// The campaign's org interner and name → id map, interned in the order
/// the library's campaign uses (the world's catalog, then the BYOIP
/// sentinel), so stored org ids match a `Campaign` run's.
fn canonical_orgs(world: &World) -> (OrgInterner, HashMap<String, OrgId>) {
    let mut orgs = OrgInterner::default();
    let mut ids = HashMap::new();
    let names = world.catalog.all().iter().map(|infra| infra.spec.org);
    for name in names.chain(["BYOIP Customer Org"]) {
        ids.insert(name.to_string(), orgs.intern(name));
    }
    (orgs, ids)
}

/// One plain streaming pass over every vantage of a store, every column
/// decoded; returns the rows read.
fn stream_rows(store: &OpenStore) -> u64 {
    let mut rows = 0u64;
    for source in store.sources() {
        source.for_each_day(&mut |_, obs| rows += obs.len() as u64);
    }
    rows
}

fn wave_micros(engine: &QueryEngine) -> u64 {
    engine.metrics().map_or(0, |m| WAVES.iter().map(|w| m.histogram(w).snapshot().sum).sum())
}

fn add_registry(into: &mut BTreeMap<String, u64>, registry: &MetricsRegistry) {
    for (name, value) in registry.counter_snapshot() {
        *into.entry(name).or_default() += value;
    }
}

fn traffic_since(before: TrafficStats, after: TrafficStats) -> TrafficStats {
    TrafficStats {
        datagrams_sent: after.datagrams_sent - before.datagrams_sent,
        datagrams_answered: after.datagrams_answered - before.datagrams_answered,
        datagrams_dropped: after.datagrams_dropped - before.datagrams_dropped,
        streams_opened: after.streams_opened - before.streams_opened,
        streams_completed: after.streams_completed - before.streams_completed,
        connect_failures: after.connect_failures - before.connect_failures,
    }
}

/// Run one pass of `w` with its store in `dir` (which must not hold a
/// store yet), reporting from and serving on `reference`.
/// `instrumented` attaches metrics registries to every engine and
/// records the library-measured child spans.
pub fn run(
    w: &Workload,
    reference: &Reference,
    budget: Budget<'_>,
    instrumented: bool,
    dir: &Path,
) -> Result<Pass, String> {
    let mut spans = Spans::default();
    let mut pass = Pass::default();
    let start = Instant::now();

    let (mut world, build) = w.prepare_world();
    spans.record("ecosystem.build", build);

    let days = w.scan_days();
    let meta = StoreMeta {
        vantages: w.vantages.iter().map(|v| v.name.clone()).collect(),
        sample_days: days.clone(),
        scan_www: true,
        world_seed: w.ecosystem.seed,
        population: w.ecosystem.population as u64,
        list_size: w.ecosystem.list_size as u64,
    };
    let io = |e: std::io::Error| format!("store {}: {e}", dir.display());
    let mut writer = spans.time("store.append", || StoreWriter::create(dir, meta)).map_err(io)?;
    let registries: Vec<Arc<MetricsRegistry>> =
        w.vantages.iter().map(|v| Arc::new(MetricsRegistry::new(&v.name))).collect();
    let (engines, (orgs, org_ids)) = spans.time("scanner.setup", || {
        let engines: Vec<QueryEngine> = w
            .vantages
            .iter()
            .zip(&registries)
            .map(|(v, registry)| {
                let engine = v.engine(world.network.clone(), world.registry.clone());
                if instrumented {
                    engine.with_metrics(registry.clone())
                } else {
                    engine
                }
            })
            .collect();
        (engines, canonical_orgs(&world))
    });
    let net_before = world.network.stats();
    let mut counters = Counters::default();
    let rounds_start = Instant::now();

    loop {
        let round = pass.schedule.len();
        let next_day = days.get(pass.days.len()).copied();
        let scan = match budget {
            Budget::Replay(schedule) if round == schedule.len() => break,
            Budget::Replay(schedule) => schedule[round],
            Budget::Seconds(s) => {
                let elapsed = rounds_start.elapsed().as_secs_f64();
                if next_day.is_none() && round >= MIN_ROUNDS && elapsed >= s {
                    break;
                }
                next_day.is_some() && elapsed >= s * pass.days.len() as f64 / days.len() as f64
            }
        };
        pass.schedule.push(scan);

        // Campaign: one day, every vantage, written through.
        if let Some(day) = next_day.filter(|_| scan) {
            let day_start = Instant::now();
            spans.time("ecosystem.step", || world.step_to_day(day));
            let mut scanned = Vec::with_capacity(engines.len());
            for (vi, engine) in engines.iter().enumerate() {
                let before = wave_micros(engine);
                let (id, obs) = spans.time_in("scanner.scan", Some(vi), || {
                    scan_one_day(&world, engine, &org_ids, true, w.threads)
                });
                if instrumented {
                    let batch = Duration::from_micros(wave_micros(engine) - before);
                    spans.child("resolver.batch", id, batch);
                }
                let (_, appended) = spans.time_in("store.append", Some(vi), || {
                    writer.append_chunk(vi, day as u32, &obs, &orgs)
                });
                appended.map_err(io)?;
                scanned.push(obs);
            }
            pass.day_walls.push(day_start.elapsed());
            spans.time("bench.digest", || {
                for (vi, obs) in scanned.iter().enumerate() {
                    pass.digests.insert((vi, day as u32), check::day_digest(obs));
                    pass.targets += obs.len() as u64;
                    let count = |flag| obs.iter().filter(|o| o.has(flag)).count() as u64;
                    pass.failed += count(flags::RESOLUTION_FAILED);
                    pass.timeouts += count(flags::RESOLUTION_TIMEOUT);
                }
            });
            pass.days.push(day);
        }

        // Report: reopen the reference store, stream it, regenerate
        // every figure and the cross-vantage diff.
        let rep_start = Instant::now();
        let store = spans.time("store.open", || open_store(&reference.dir)).map_err(io)?;
        let rows = spans.time("store.scan", || stream_rows(&store));
        let sources = store.sources();
        let mut text = spans
            .time("analysis.figures", || check::figures_text(sources[0], &w.ecosystem.landmarks));
        let diff = spans.time("analysis.diff", || analysis::vantage_diff_parallel(&sources));
        pass.report_walls.push(rep_start.elapsed());
        text.push_str(&diff.to_string());
        if rows != reference.rows {
            return Err(format!("store stream read {rows} rows, expected {}", reference.rows));
        }
        if text != reference.report_text {
            return Err("parallel-diff report differs from the sequential one".into());
        }
        pass.store_rows = rows;

        // Serve: one stub-client sweep on the reference world.
        let (id, report) = if instrumented {
            let registry = Arc::new(MetricsRegistry::new("serve"));
            let (id, (report, cache)) = spans.time_in("serve.sweep", None, || {
                serve_trace::sweep(
                    &reference.world,
                    &w.serve,
                    &w.serve_rates_kqps,
                    registry.clone(),
                )
            });
            let single = registry.histogram("engine.single_us").snapshot().sum;
            spans.child("resolver.single", id, Duration::from_micros(single));
            counters.cache.merge(cache);
            add_registry(&mut counters.registry, &registry);
            (id, report)
        } else {
            spans.time_in("serve.sweep", None, || {
                load_sweep(&reference.world, &w.serve, &w.serve_rates_kqps, None)
            })
        };
        pass.serve_walls.push(spans.spans()[id].dur);
        for phase in &report.phases {
            pass.serve_queries += phase.queries;
            pass.serve_hits += (phase.hit_rate * phase.queries as f64).round() as u64;
            pass.serve_failures += phase.failures;
        }
        if report.canonical_text() != reference.serve_text {
            return Err(format!("round {round}: serve sweep differs from the reference sweep"));
        }
    }

    pass.store_bytes = writer.bytes_written();
    spans.time("store.append", || drop(writer));
    counters.net = traffic_since(net_before, world.network.stats());
    for (engine, registry) in engines.iter().zip(&registries) {
        counters.cache.merge(engine.cache().stats());
        add_registry(&mut counters.registry, registry);
    }
    // Dropping an engine joins its worker pool.
    spans.time("scanner.setup", || drop(engines));
    pass.wall = start.elapsed();
    drop(world);

    pass.counters = instrumented.then_some(counters);
    pass.spans = spans;
    Ok(pass)
}
