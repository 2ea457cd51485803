//! Output checks: per-vantage-day observation digests, the reference
//! campaign they must match, and the report and serve texts the passes
//! must reproduce.

use crate::workloads::Workload;
use httpsrr::analysis;
use httpsrr::ecosystem::{Landmarks, World};
use httpsrr::scanner::{open_store, Campaign, Observation, ObservationSource, OpenStore};
use httpsrr::serve::load_sweep;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Digest of every observation a vantage recorded on a day, keyed by
/// (vantage index, day).
pub type Digests = BTreeMap<(usize, u32), u64>;

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Digest of one vantage-day: every field of every row, in row order.
pub fn day_digest(obs: &[Observation]) -> u64 {
    let mut bytes = Vec::with_capacity(obs.len() * 23);
    for o in obs {
        bytes.extend_from_slice(&o.day.to_le_bytes());
        bytes.extend_from_slice(&o.domain_id.to_le_bytes());
        bytes.extend_from_slice(&o.rank.to_le_bytes());
        bytes.extend_from_slice(&o.flags.to_le_bytes());
        bytes.push(o.ns_category);
        bytes.extend_from_slice(&o.org.0.to_le_bytes());
        bytes.extend_from_slice(&o.min_priority.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Stream every vantage-day of a store and digest it; returns the
/// digests and the number of rows read.
pub fn store_digests(store: &OpenStore) -> (Digests, u64) {
    let mut digests = Digests::new();
    let mut rows = 0u64;
    for (vi, source) in store.sources().into_iter().enumerate() {
        source.for_each_day(&mut |day, obs| {
            rows += obs.len() as u64;
            digests.insert((vi, day), day_digest(obs));
        });
    }
    (digests, rows)
}

/// `Err` naming the first vantage-day where `got` differs from `want`.
pub fn compare_digests(what: &str, want: &Digests, got: &Digests) -> Result<(), String> {
    for (key, w) in want {
        match got.get(key) {
            Some(g) if g == w => {}
            Some(g) => {
                return Err(format!(
                    "{what}: vantage {} day {} digest {g:016x}, expected {w:016x}",
                    key.0, key.1
                ))
            }
            None => return Err(format!("{what}: vantage {} day {} is missing", key.0, key.1)),
        }
    }
    if let Some(key) = got.keys().find(|k| !want.contains_key(k)) {
        return Err(format!("{what}: unexpected vantage {} day {}", key.0, key.1));
    }
    Ok(())
}

/// Every server-side table and figure the paper regenerates from a
/// scan store, rendered from one vantage's source.
pub fn figures_text(source: &dyn ObservationSource, lm: &Landmarks) -> String {
    let mut out = String::new();
    let days = source.days();
    let _ = writeln!(out, "{}", analysis::fig2_adoption(source, lm.source_change as u32));
    let _ = writeln!(out, "{}", analysis::fig3_noncf_provider_count(source));
    let _ = writeln!(out, "{}", analysis::fig5_dnssec_trend(source));
    let _ = writeln!(out, "{}", analysis::fig8_rank_distribution(source, &days, None));
    let _ = writeln!(out, "{}", analysis::fig10_noncf_domains(source));
    let _ = writeln!(out, "{}", analysis::fig11_iphints(source));
    let _ = writeln!(out, "{}", analysis::fig12_mismatch_durations(source));
    let _ = writeln!(out, "{}", analysis::fig13_ech_share(source));
    let _ = writeln!(out, "{}", analysis::tab2_ns_category(source));
    let _ = writeln!(out, "{}", analysis::tab3_top_noncf(source));
    let _ = writeln!(out, "{}", analysis::tab4_cf_config(source));
    let _ = writeln!(out, "{}", analysis::tab5_other_providers(source));
    let _ = writeln!(out, "{}", analysis::tab8_alpn(source, lm.h3_29_sunset as u32));
    let _ = writeln!(out, "{}", analysis::sec423_intermittent(source));
    let _ = writeln!(out, "{}", analysis::sec433_anomalies(source));
    out
}

/// What the library's own pipeline produces for a workload's config and
/// seed: the write-through campaign, the report from its store, and one
/// serving sweep on the world the campaign ends on.
pub struct Reference {
    /// The world after the campaign's last day (the passes serve on it).
    pub world: World,
    /// The store `Campaign::run_to_store` wrote.
    pub dir: PathBuf,
    pub digests: Digests,
    /// Rows in the store.
    pub rows: u64,
    /// Figures plus the sequential cross-vantage diff.
    pub report_text: String,
    /// `load_sweep`'s canonical report.
    pub serve_text: String,
    /// Wall time of the world's build (a set-up sample).
    pub build: Duration,
}

/// Build a fresh world, run `Campaign::run_to_store` over the workload's
/// days on one worker thread into `dir`, report from the store, and run
/// one serving sweep.
pub fn reference(w: &Workload, dir: &Path) -> Result<Reference, String> {
    let (mut world, build) = w.prepare_world();
    let campaign = Campaign {
        sample_days: w.scan_days(),
        scan_www: true,
        threads: 1,
        vantages: w.vantages.clone(),
    };
    let io = |e: std::io::Error| format!("reference store {}: {e}", dir.display());
    let mut writer = campaign.create_store(&world, dir).map_err(io)?;
    campaign.run_to_store(&mut world, &mut writer).map_err(io)?;
    drop(writer);
    let store = open_store(dir).map_err(io)?;
    let (digests, rows) = store_digests(&store);
    let sources = store.sources();
    let mut report_text = figures_text(sources[0], &w.ecosystem.landmarks);
    report_text.push_str(&analysis::vantage_diff_sources(&sources).to_string());
    let serve_text = load_sweep(&world, &w.serve, &w.serve_rates_kqps, None).canonical_text();
    Ok(Reference { world, dir: dir.to_path_buf(), digests, rows, report_text, serve_text, build })
}

/// Check that a pass scanned, and wrote to `dir`, exactly the rows the
/// reference campaign wrote.
pub fn verify_pass(reference: &Reference, scanned: &Digests, dir: &Path) -> Result<(), String> {
    compare_digests("scanned vs Campaign::run_to_store", &reference.digests, scanned)?;
    let store = open_store(dir).map_err(|e| format!("store {}: {e}", dir.display()))?;
    compare_digests(
        "stored vs Campaign::run_to_store",
        &reference.digests,
        &store_digests(&store).0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use httpsrr::scanner::OrgId;

    fn row(domain_id: u32, flags: u32) -> Observation {
        Observation {
            day: 3,
            domain_id,
            rank: domain_id + 1,
            flags,
            ns_category: 1,
            org: OrgId(7),
            min_priority: 1,
        }
    }

    #[test]
    fn digest_check_fails_on_an_altered_row() {
        let rows: Vec<Observation> = (0..50).map(|i| row(i, 0)).collect();
        let want: Digests = [((0, 3), day_digest(&rows))].into();
        assert!(compare_digests("same", &want, &want.clone()).is_ok());

        let mut altered = rows.clone();
        altered[17].flags |= 1;
        let got: Digests = [((0, 3), day_digest(&altered))].into();
        let err = compare_digests("altered", &want, &got).unwrap_err();
        assert!(err.contains("vantage 0 day 3"), "{err}");

        let mut reordered = rows;
        reordered.swap(0, 1);
        assert_ne!(day_digest(&reordered), want[&(0, 3)]);
        assert!(compare_digests("missing", &want, &Digests::new()).is_err());
        assert!(compare_digests("extra", &Digests::new(), &want).is_err());
    }
}
