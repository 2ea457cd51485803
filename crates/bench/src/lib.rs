//! Shared setup for the benchmark/regeneration harness.
//!
//! Every bench binary regenerates its paper tables/figures by printing
//! them at startup (so the `cargo bench` output doubles as an experiment
//! log), then benchmarks the pipeline stages that produce them. The
//! end-to-end benchmark is `perfbench/` (see `perfbench/README.md`).

use httpsrr::ecosystem::EcosystemConfig;
use httpsrr::Study;
use std::sync::OnceLock;

/// The benchmark world size. `HTTPSRR_BENCH_SCALE=full` runs the default
/// (6 k domain) configuration; anything else runs a 2 k-domain world so
/// `cargo bench` completes quickly.
pub fn bench_config() -> EcosystemConfig {
    if std::env::var("HTTPSRR_BENCH_SCALE").as_deref() == Ok("full") {
        EcosystemConfig::default()
    } else {
        EcosystemConfig {
            population: 2_000,
            list_size: 1_400,
            toggling_domains: 14,
            migrating_domains: 5,
            mixed_ns_domains: 5,
            undelegated_domains: 2,
            permanent_mismatch_domains: 3,
            ..EcosystemConfig::default()
        }
    }
}

/// The shared longitudinal study used by the server-side benches
/// (built once per bench binary).
pub fn bench_study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| {
        eprintln!("[bench setup] running longitudinal campaign …");
        Study::run(bench_config(), 14)
    })
}
