//! The benchmark's own tests: metric names, and that every workload
//! emits exactly the metrics `BENCHMARK.json` lists.

use crate::check;
use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::pipeline::{self, Budget};
use crate::workloads::{self, Days, NAMES};
use std::collections::BTreeSet;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `"name"` values inside the top-level array `key` of
/// `BENCHMARK.json` (a flat scan; the file has no nested arrays there).
fn listed_names(key: &str) -> Vec<String> {
    let start = BENCHMARK_JSON.find(&format!("\"{key}\"")).expect("key present");
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\":")
        .skip(1)
        .map(|rest| {
            rest.trim_start().trim_start_matches('"').split('"').next().unwrap().to_string()
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().next().unwrap().is_ascii_alphanumeric()
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn every_name_is_well_formed() {
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_name(name), "metric name {name:?}");
        assert!(!unit.is_empty() && unit.len() <= 16, "unit of {name}");
    }
    for name in NAMES {
        assert!(valid_name(name), "workload name {name:?}");
    }
}

#[test]
fn benchmark_json_lists_the_same_workloads_and_metrics() {
    assert_eq!(listed_names("workloads"), NAMES.to_vec());
    let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(listed_names("end_to_end"), e2e);
    let layers: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(listed_names("per_layer"), layers);
}

/// Each workload, shrunk to a tiny world, emits every end-to-end metric
/// untraced and every per-layer metric traced, by exactly the listed
/// names, and passes its checks.
#[test]
fn each_workload_emits_every_listed_metric() {
    let e2e: BTreeSet<String> = listed_names("end_to_end").into_iter().collect();
    let layers: BTreeSet<String> = listed_names("per_layer").into_iter().collect();
    let work = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
    for name in NAMES {
        let mut w = workloads::workload(name, 7).expect("known workload");
        w.ecosystem.population = 600;
        w.ecosystem.list_size = 300;
        w.days = match w.days {
            Days::Consecutive(_) => Days::Consecutive(2),
            Days::Strided(_) => Days::Strided(120),
        };
        w.serve_rates_kqps = vec![1.0];
        w.serve.phase_ms = 200;
        let dir = work.join(name);
        let reference = check::reference(&w, &dir.join("reference")).expect("reference campaign");
        let untraced =
            pipeline::run(&w, &reference, Budget::Seconds(0.0), false, &dir.join("pass")).unwrap();
        check::verify_pass(&reference, &untraced.digests, &dir.join("pass")).unwrap();
        let traced = pipeline::run(
            &w,
            &reference,
            Budget::Replay(&untraced.schedule),
            true,
            &dir.join("traced"),
        )
        .unwrap();
        assert_eq!(traced.digests, untraced.digests, "{name}");

        let got: BTreeSet<String> = metrics::end_to_end(&untraced, &[0.1], 1.0)
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
        assert_eq!(got, e2e, "{name}: end-to-end metrics");
        let got: BTreeSet<String> =
            metrics::per_layer(&untraced, &traced).iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(got, layers, "{name}: per-layer metrics");
        let line = metrics::result_json(1, &metrics::per_layer(&untraced, &traced));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
    }
    let _ = std::fs::remove_dir_all(&work);
}
