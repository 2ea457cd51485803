//! The benchmark's workloads: which world, which resolvers, which link,
//! which days, and which serving mix.
//!
//! Every workload runs the same three stages (campaign, report, serve),
//! so every end-to-end metric exists on every workload; what differs is
//! the input shape and so which layer dominates. The reasons each
//! workload exists are in `perfbench/README.md`.

use httpsrr::ecosystem::{EcosystemConfig, World};
use httpsrr::netsim::LinkModel;
use httpsrr::resolver::{EngineBackend, VantagePoint};
use httpsrr::serve::{ServeConfig, WorkloadConfig};
use std::time::{Duration, Instant};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["scan_100k", "timeline_6k", "serve_100k"];

/// Which days a campaign scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Days {
    /// Days `0..count`, one after another.
    Consecutive(usize),
    /// Every `stride`-th day of the whole study.
    Strided(u64),
}

/// One fully specified workload. Every field that shapes the work is
/// printed (Debug) with each run, so a changed library default shows up
/// as workload drift rather than as a speed-up.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub seed: u64,
    /// Worker threads: the pooled scan fan-out and list scoring.
    pub threads: usize,
    /// World builds beyond the reference's and the pass's, made after the
    /// untraced pass only to sample set-up time.
    pub extra_builds: usize,
    pub ecosystem: EcosystemConfig,
    pub vantages: Vec<VantagePoint>,
    /// Installed on the world's network before the campaign (`None`
    /// keeps the zero-latency default).
    pub link: Option<LinkModel>,
    pub days: Days,
    pub serve: ServeConfig,
    /// Offered load per sweep phase, thousand queries per virtual second.
    pub serve_rates_kqps: Vec<f64>,
}

/// Worker threads: two, or fewer on a smaller host.
fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// The serving mix of BENCH_8 (256 stub clients, TTL-sweep LRU cache)
/// with 4 s virtual phases instead of 1 s, and 1 024 entries per cache
/// shard instead of 4 096, so the longer phases' working set overflows
/// the cache and the eviction path runs.
fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        workload: WorkloadConfig { seed, ..WorkloadConfig::default() },
        phase_ms: 4_000,
        capacity_per_shard: Some(1_024),
        ..ServeConfig::default()
    }
}

/// The workload named `name` on inputs derived from `seed`.
pub fn workload(name: &str, seed: u64) -> Option<Workload> {
    let threads = default_threads();
    let ecosystem = |population: usize, list_size: usize| EcosystemConfig {
        seed,
        population,
        list_size,
        score_threads: threads,
        ..EcosystemConfig::default()
    };
    let w = match name {
        "scan_100k" => Workload {
            name: "scan_100k",
            seed,
            threads,
            extra_builds: 1,
            ecosystem: ecosystem(100_000, 10_000),
            vantages: VantagePoint::presets(),
            link: None,
            days: Days::Consecutive(5),
            serve: serve_config(seed),
            serve_rates_kqps: vec![2.0, 8.0],
        },
        "timeline_6k" => Workload {
            name: "timeline_6k",
            seed,
            threads,
            extra_builds: 15,
            ecosystem: ecosystem(6_000, 4_000),
            vantages: vec![VantagePoint::google_public().with_backend(EngineBackend::EventLoop)],
            link: Some(LinkModel::new(seed).with_rtt_ms(20).with_loss_permille(10)),
            days: Days::Strided(25),
            serve: serve_config(seed),
            serve_rates_kqps: vec![2.0, 8.0],
        },
        "serve_100k" => Workload {
            name: "serve_100k",
            seed,
            threads,
            extra_builds: 1,
            ecosystem: ecosystem(100_000, 10_000),
            vantages: vec![VantagePoint::google_public()],
            link: None,
            days: Days::Consecutive(6),
            serve: serve_config(seed),
            serve_rates_kqps: vec![2.0, 4.0, 8.0, 16.0, 32.0],
        },
        _ => return None,
    };
    Some(w)
}

impl Workload {
    /// The days the campaign scans, ascending.
    pub fn scan_days(&self) -> Vec<u64> {
        match self.days {
            Days::Consecutive(count) => (0..count as u64).collect(),
            Days::Strided(stride) => {
                (0..self.ecosystem.study_days()).step_by(stride as usize).collect()
            }
        }
    }

    /// Build the world (timed: the set-up sample) and install the link
    /// model.
    pub fn prepare_world(&self) -> (World, Duration) {
        let start = Instant::now();
        let world = World::build(self.ecosystem.clone());
        let build = start.elapsed();
        if let Some(link) = &self.link {
            world.network.set_latency_model(link.clone());
        }
        (world, build)
    }
}
