//! Metric names, how each is computed from a pass, and the printed
//! output: the summary, the per-layer table, and the result line.

use crate::pipeline::Pass;
use crate::workloads::Workload;
use std::fmt::Write;
use std::time::Duration;

/// End-to-end metrics (`--trace 0`), with units, as `BENCHMARK.json`
/// lists them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("campaign_obs_per_s", "1/s"),
    ("day_p50_s", "s"),
    ("report_s", "s"),
    ("store_bytes_per_obs", "B"),
    ("serve_qps", "1/s"),
    ("serve_hit_rate", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units, as `BENCHMARK.json`
/// lists them. Times are seconds summed over the traced pass.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("ecosystem.build_s", "s"),
    ("ecosystem.step_s", "s"),
    ("scanner.scan_s", "s"),
    ("scanner.self_s", "s"),
    ("scanner.targets", "count"),
    ("scanner.failed", "count"),
    ("scanner.timeouts", "count"),
    ("resolver.batch_s", "s"),
    ("resolver.single_s", "s"),
    ("resolver.queries", "count"),
    ("resolver.distinct", "count"),
    ("resolver.coalesced", "count"),
    ("resolver.from_cache", "count"),
    ("resolver.failures", "count"),
    ("resolver.timeouts", "count"),
    ("resolver.retransmits", "count"),
    ("resolver.ns_fallbacks", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.insertions", "count"),
    ("cache.evictions", "count"),
    ("cache.lock_contended", "count"),
    ("netsim.datagrams_sent", "count"),
    ("netsim.datagrams_dropped", "count"),
    ("netsim.datagrams_per_obs", "ratio"),
    ("store.append_s", "s"),
    ("store.bytes", "B"),
    ("store.open_s", "s"),
    ("store.scan_rows_per_s", "1/s"),
    ("analysis.figures_s", "s"),
    ("analysis.diff_s", "s"),
    ("serve.sweep_s", "s"),
    ("serve.queries", "count"),
    ("serve.misses", "count"),
    ("unattributed_s", "s"),
    ("trace_overhead_s", "s"),
    ("traced_wall_s", "s"),
];

/// Named values in emission order.
pub type Metrics = Vec<(&'static str, f64)>;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Median of the samples (the mean of the middle two for an even count).
fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kib / 1024.0
}

/// The end-to-end metrics of an untraced pass; `builds_s` are the run's
/// world-build samples, and `peak_rss_mb` was read right after the
/// reference pipeline.
pub fn end_to_end(p: &Pass, builds_s: &[f64], peak_rss_mb: f64) -> Metrics {
    let day_s: Vec<f64> = p.day_walls.iter().copied().map(secs).collect();
    let report_s: Vec<f64> = p.report_walls.iter().copied().map(secs).collect();
    let serve_wall: f64 = p.serve_walls.iter().copied().map(secs).sum();
    vec![
        ("setup_s", median(builds_s)),
        ("campaign_obs_per_s", ratio(p.targets as f64, day_s.iter().sum())),
        ("day_p50_s", median(&day_s)),
        ("report_s", median(&report_s)),
        ("store_bytes_per_obs", ratio(p.store_bytes as f64, p.targets as f64)),
        ("serve_qps", ratio(p.serve_queries as f64, serve_wall)),
        ("serve_hit_rate", ratio(p.serve_hits as f64, p.serve_queries as f64)),
        ("peak_rss_mb", peak_rss_mb),
    ]
}

/// Human-readable lines for the end-to-end run: each metric with the
/// samples behind it.
pub fn summary(p: &Pass, builds_s: &[f64], e2e: &Metrics) -> String {
    let mut out = String::new();
    let day_s: Vec<f64> = p.day_walls.iter().copied().map(secs).collect();
    let _ = writeln!(out, "# samples days={:?} day_s={day_s:.4?} setup_s={builds_s:.4?}", p.days);
    for (name, walls) in
        [("day", &p.day_walls), ("report", &p.report_walls), ("sweep", &p.serve_walls)]
    {
        let mut s: Vec<f64> = walls.iter().copied().map(secs).collect();
        s.sort_by(f64::total_cmp);
        let at = |q: f64| s[((s.len() - 1) as f64 * q).round() as usize];
        let _ = writeln!(
            out,
            "# {name:<6} n={:<3} min={:.4} p25={:.4} p50={:.4} p75={:.4} max={:.4} s",
            s.len(),
            at(0.0),
            at(0.25),
            at(0.5),
            at(0.75),
            at(1.0)
        );
    }
    let _ = writeln!(
        out,
        "# failures: scan {} failed / {} attempted resolutions ({} timed out); \
         serve {} failed / {} stub queries",
        p.failed, p.targets, p.timeouts, p.serve_failures, p.serve_queries
    );
    for (name, value) in e2e {
        let _ = writeln!(out, "# {name:<22} {value:.6}");
    }
    out
}

/// The traced pass's per-layer metrics; `untraced` gives the overhead.
pub fn per_layer(untraced: &Pass, t: &Pass) -> Metrics {
    let c = t.counters.as_ref().expect("a traced pass gathers counters");
    let reg = |name: &str| c.registry.get(name).copied().unwrap_or(0) as f64;
    let total = |name: &str| secs(t.spans.total(name));
    let scan_s = total("scanner.scan");
    let batch_s = total("resolver.batch");
    let sweeps = t.serve_walls.len().max(1) as f64;
    let scans = t.report_walls.len() as f64;
    vec![
        ("ecosystem.build_s", total("ecosystem.build")),
        ("ecosystem.step_s", total("ecosystem.step")),
        ("scanner.scan_s", scan_s),
        ("scanner.self_s", scan_s - batch_s),
        ("scanner.targets", t.targets as f64),
        ("scanner.failed", t.failed as f64),
        ("scanner.timeouts", t.timeouts as f64),
        ("resolver.batch_s", batch_s),
        ("resolver.single_s", total("resolver.single")),
        ("resolver.queries", reg("engine.queries") + reg("engine.single_queries")),
        ("resolver.distinct", reg("engine.distinct")),
        ("resolver.coalesced", reg("engine.coalesced")),
        ("resolver.from_cache", reg("engine.from_cache") + reg("engine.single_from_cache")),
        ("resolver.failures", reg("engine.failures") + reg("engine.single_failures")),
        ("resolver.timeouts", reg("engine.timeouts")),
        ("resolver.retransmits", reg("engine.retransmits")),
        ("resolver.ns_fallbacks", reg("engine.ns_fallbacks")),
        ("cache.hit_rate", c.cache.hit_rate()),
        ("cache.insertions", c.cache.insertions as f64),
        ("cache.evictions", c.cache.evictions as f64),
        ("cache.lock_contended", c.cache.lock_contended as f64),
        ("netsim.datagrams_sent", c.net.datagrams_sent as f64),
        ("netsim.datagrams_dropped", c.net.datagrams_dropped as f64),
        ("netsim.datagrams_per_obs", ratio(c.net.datagrams_sent as f64, t.targets as f64)),
        ("store.append_s", total("store.append")),
        ("store.bytes", t.store_bytes as f64),
        ("store.open_s", total("store.open")),
        ("store.scan_rows_per_s", ratio(t.store_rows as f64 * scans, total("store.scan"))),
        ("analysis.figures_s", total("analysis.figures")),
        ("analysis.diff_s", total("analysis.diff")),
        ("serve.sweep_s", total("serve.sweep")),
        ("serve.queries", t.serve_queries as f64 / sweeps),
        ("serve.misses", (t.serve_queries - t.serve_hits) as f64 / sweeps),
        ("unattributed_s", secs(t.wall.saturating_sub(t.spans.top_level()))),
        ("trace_overhead_s", secs(t.wall) - secs(untraced.wall)),
        ("traced_wall_s", secs(t.wall)),
    ]
}

/// The per-layer table of a traced pass: self time per span name and
/// per scanned vantage, the unattributed rest, the tracing overhead,
/// and the library's counts.
pub fn layer_table(w: &Workload, untraced: &Pass, t: &Pass) -> String {
    let wall = secs(t.wall);
    let share = |s: f64| 100.0 * ratio(s, wall);
    let mut out = String::new();
    let _ = writeln!(out, "# layer table: {} (traced pass, {} rounds)", w.name, t.schedule.len());
    let _ = writeln!(out, "# {:<22} {:>10} {:>7}", "span (self time)", "seconds", "% wall");
    let mut attributed = 0.0;
    for (name, d) in t.spans.self_times() {
        attributed += secs(d);
        let _ = writeln!(out, "# {name:<22} {:>10.4} {:>6.1}%", secs(d), share(secs(d)));
    }
    let unattributed = wall - attributed;
    let _ = writeln!(
        out,
        "# {:<22} {unattributed:>10.4} {:>6.1}%",
        "unattributed_s",
        share(unattributed)
    );
    let _ = writeln!(out, "# {:<22} {wall:>10.4} {:>6.1}%", "wall", 100.0);
    let untraced_wall = secs(untraced.wall);
    let _ = writeln!(
        out,
        "# tracing overhead {:.4} s (traced {wall:.4} s - untraced {untraced_wall:.4} s)",
        wall - untraced_wall
    );
    for (vi, v) in w.vantages.iter().enumerate() {
        let of = |name: &str| -> f64 {
            let spans = t.spans.spans();
            spans
                .iter()
                .filter(|s| s.name == name && s.vantage == Some(vi))
                .map(|s| secs(s.dur))
                .sum()
        };
        let _ = writeln!(
            out,
            "# scanner.scan_s.{:<12} {:>10.4} (resolver.batch_s {:.4}, store.append_s {:.4})",
            v.name,
            of("scanner.scan"),
            of("resolver.batch"),
            of("store.append"),
        );
    }
    if let Some(c) = &t.counters {
        for (name, value) in &c.registry {
            if !name.starts_with("scan.day") {
                let _ = writeln!(out, "# count {name} {value}");
            }
        }
        let _ = writeln!(out, "# cache {}", c.cache);
        let _ = writeln!(out, "# netsim {:?}", c.net);
    }
    out
}

/// The result line: one JSON object.
pub fn result_json(attempted: usize, metrics: &Metrics) -> String {
    let unit = |name: &str| {
        END_TO_END.iter().chain(&PER_LAYER).find(|(n, _)| *n == name).map_or("", |(_, u)| u)
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}", unit(name))
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
