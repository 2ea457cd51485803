//! The traced twin of `serve::load_sweep`.
//!
//! `load_sweep` builds its engine internally, so the time its arrivals
//! spend in `QueryEngine::resolve` cannot be read from outside. The
//! traced run replays the same sweep here on an engine that carries a
//! metrics registry (whose `engine.single_us` histogram sums the
//! single-query path), then rebuilds the `ServeReport`; the run fails
//! unless its canonical text equals `load_sweep`'s byte for byte, so the
//! replay cannot drift from the code it stands in for.

use httpsrr::ecosystem::World;
use httpsrr::netsim::TimeMs;
use httpsrr::resolver::{CacheStats, QueryEngine, ResolverConfig};
use httpsrr::serve::{PhaseReport, ServeConfig, ServeReport, StubPopulation};
use httpsrr::telemetry::MetricsRegistry;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Hit-rate windows per phase, as in the serve driver.
const SERIES_WINDOWS: usize = 8;

/// Replay `load_sweep(world, cfg, rates_kqps, _)` with `metrics`
/// attached to the engine; returns the report and the cache's stats.
pub fn sweep(
    world: &World,
    cfg: &ServeConfig,
    rates_kqps: &[f64],
    metrics: Arc<MetricsRegistry>,
) -> (ServeReport, CacheStats) {
    let engine = QueryEngine::new(
        world.network.clone(),
        world.registry.clone(),
        ResolverConfig {
            validate: false,
            cache_shards: cfg.cache_shards,
            cache_capacity_per_shard: cfg.capacity_per_shard,
            cache_eviction: cfg.policy,
            ..ResolverConfig::default()
        },
    )
    .with_metrics(metrics);
    let population = StubPopulation::new(world.today_list_shared(), cfg.workload.clone());
    let phases = rates_kqps
        .iter()
        .enumerate()
        .map(|(i, &kqps)| phase(world, &engine, &population, cfg, i as u64, kqps * 1_000.0))
        .collect();
    let report = ServeReport {
        policy: cfg.policy,
        capacity_per_shard: cfg.capacity_per_shard,
        clients: cfg.workload.clients.max(1),
        workers: cfg.workers.max(1),
        phases,
    };
    (report, engine.cache().stats())
}

fn phase(
    world: &World,
    engine: &QueryEngine,
    population: &StubPopulation,
    cfg: &ServeConfig,
    phase: u64,
    offered_qps: f64,
) -> PhaseReport {
    let clock = world.clock.clone();
    let start_ms = (clock.now_ms().0 / 1_000 + 1) * 1_000;
    clock.set_ms(TimeMs(start_ms));
    let start_us = start_ms * 1_000;
    let duration_us = cfg.phase_ms.max(1) * 1_000;
    let arrivals = population.arrivals(world, phase, offered_qps, start_us, duration_us);

    let before = engine.cache().stats();
    let workers = cfg.workers.max(1);
    let mut free: BinaryHeap<Reverse<u64>> = (0..workers).map(|_| Reverse(start_us)).collect();
    let mut latencies: Vec<u64> = Vec::with_capacity(arrivals.len());
    let (mut hits, mut failures) = (0u64, 0u64);
    let mut last_done_us = start_us;
    let window_us = (duration_us / SERIES_WINDOWS as u64).max(1);
    let mut windows = [(0u64, 0u64); SERIES_WINDOWS];
    for arrival in &arrivals {
        let at_ms = arrival.at_us / 1_000;
        if at_ms > clock.now_ms().0 {
            clock.set_ms(TimeMs(at_ms));
        }
        let hit = match engine.resolve(&arrival.query.name, arrival.query.rtype) {
            Ok(resolution) => resolution.from_cache,
            Err(_) => {
                failures += 1;
                false
            }
        };
        hits += hit as u64;
        let service = if hit { cfg.hit_service_us } else { cfg.miss_service_us };
        let Reverse(free_at) = free.pop().expect("at least one worker");
        let done = free_at.max(arrival.at_us) + service;
        free.push(Reverse(done));
        last_done_us = last_done_us.max(done);
        latencies.push(done - arrival.at_us + if hit { 0 } else { cfg.miss_penalty_us });
        let w = (((arrival.at_us - start_us) / window_us) as usize).min(SERIES_WINDOWS - 1);
        windows[w].1 += 1;
        windows[w].0 += hit as u64;
    }
    let end_ms = (start_us + duration_us).max(last_done_us).div_ceil(1_000);
    if end_ms > clock.now_ms().0 {
        clock.set_ms(TimeMs(end_ms));
    }

    latencies.sort_unstable();
    let quantile = |q: f64| -> u64 {
        if latencies.is_empty() {
            0
        } else {
            latencies[((latencies.len() - 1) as f64 * q) as usize]
        }
    };
    let queries = arrivals.len() as u64;
    let busy_us = (last_done_us - start_us).max(1);
    let after = engine.cache().stats();
    PhaseReport {
        offered_kqps: offered_qps / 1_000.0,
        queries,
        arrived_kqps: queries as f64 * 1_000.0 / duration_us as f64,
        achieved_kqps: queries as f64 * 1_000.0 / busy_us as f64,
        hit_rate: if queries == 0 { 0.0 } else { hits as f64 / queries as f64 },
        p50_us: quantile(0.50),
        p99_us: quantile(0.99),
        p999_us: quantile(0.999),
        failures,
        evictions: after.evictions - before.evictions,
        swept: after.swept - before.swept,
        hit_series: windows
            .iter()
            .map(|(h, t)| if *t == 0 { 0.0 } else { *h as f64 / *t as f64 })
            .collect(),
    }
}
