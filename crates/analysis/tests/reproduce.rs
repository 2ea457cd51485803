//! Shape assertions: run a compressed campaign over a tiny world and
//! check that every analysis reproduces the *direction* of the paper's
//! findings. The tiny world is too small to pin the paper's magnitudes,
//! so none are asserted here.

use analysis::*;
use ecosystem::{EcosystemConfig, World};
use scanner::{connectivity_probe, hourly_ech_scan, Campaign};

fn campaign_store() -> (World, scanner::SnapshotStore) {
    let mut world = World::build(EcosystemConfig::tiny());
    let days: Vec<u64> = (0..=328).step_by(24).collect();
    let campaign = Campaign { sample_days: days, scan_www: true, threads: 4, vantages: vec![] };
    let store = campaign.run(&mut world);
    (world, store)
}

#[test]
fn full_pipeline_shapes() {
    let (world, store) = campaign_store();
    let lm = world.config.landmarks;

    // ---- Fig 2: adoption ~20-30%, dynamic trend not decreasing ----
    let adoption = fig2_adoption(&store, lm.source_change as u32);
    let first = adoption.dynamic_apex.first().unwrap();
    let last = adoption.dynamic_apex.last().unwrap();
    assert!((8.0..40.0).contains(&first), "day-0 adoption {first}%");
    assert!(last >= first - 2.0, "dynamic adoption should not fall: {first} -> {last}");

    // ---- Table 2: full-Cloudflare dominates ----
    let tab2 = tab2_ns_category(&store);
    assert!(tab2.full_mean > 80.0, "full-CF mean {}", tab2.full_mean);
    assert!(tab2.none_mean < 20.0);
    assert!(tab2.partial_mean < 10.0);

    // ---- Table 3 / Fig 3: non-CF providers present ----
    let tab3 = tab3_top_noncf(&store);
    assert!(!tab3.providers.is_empty(), "non-CF providers must appear");
    let fig3 = fig3_noncf_provider_count(&store);
    assert!(
        fig3.provider_count.last().unwrap() >= fig3.provider_count.first().unwrap(),
        "non-CF provider count should trend up"
    );

    // ---- §4.2.3: intermittent domains, mostly same-NS Cloudflare ----
    let inter = sec423_intermittent(&store);
    assert!(inter.intermittent_total > 0);
    assert!(
        inter.same_ns_cloudflare * 2 >= inter.same_ns,
        "most same-NS intermittents should be Cloudflare: {inter:?}"
    );

    // ---- Table 4: default >> customized ----
    let tab4 = tab4_cf_config(&store);
    assert!(tab4.default_pct > 60.0, "default {}%", tab4.default_pct);
    assert!(tab4.default_pct < 95.0, "customized share must exist");

    // ---- Table 8: h2 ≈ 100%, h3 high, h3-29 only before sunset ----
    let tab8 = tab8_alpn(&store, lm.h3_29_sunset as u32);
    let h2 = &tab8.rows[1];
    assert!(h2.1 > 90.0, "h2 apex share {}", h2.1);
    assert!(tab8.h3_29_before > tab8.h3_29_after, "h3-29 sunset shape");
    assert!(tab8.h3_29_after < 1.0);

    // ---- Fig 11: hints nearly universal, match rate high but <100% ----
    let fig11 = fig11_iphints(&store);
    assert!(fig11.apex_utilization.mean() > 60.0);
    let match_mean = fig11.apex_match.mean();
    assert!((80.0..=100.0).contains(&match_mean), "match {match_mean}%");

    // ---- Fig 12: permanent mismatchers detected ----
    let fig12 = fig12_mismatch_durations(&store);
    assert!(fig12.always_mismatched > 0, "cf-ns style domains");

    // ---- Fig 13: ECH high before kill switch, zero after ----
    let fig13 = fig13_ech_share(&store);
    let before: Vec<f64> = fig13
        .apex
        .points
        .iter()
        .filter(|(d, _)| (*d as u64) < lm.ech_disable)
        .map(|(_, v)| *v)
        .collect();
    let after: Vec<f64> = fig13
        .apex
        .points
        .iter()
        .filter(|(d, _)| (*d as u64) >= lm.ech_disable)
        .map(|(_, v)| *v)
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    assert!(mean(&before) > 45.0, "pre-kill ECH share {}", mean(&before));
    assert!(mean(&after) < 0.5, "post-kill ECH share {}", mean(&after));

    // ---- Fig 5: signed share < 15%, validated < signed ----
    let fig5 = fig5_dnssec_trend(&store);
    let signed = fig5.signed_apex.mean();
    let validated = fig5.validated_apex.mean();
    assert!((1.0..20.0).contains(&signed), "signed {signed}%");
    assert!(validated < signed, "validated {validated} < signed {signed}");
    assert!(validated > 0.0);
}

#[test]
fn fig4_rotation_statistics() {
    let mut world = World::build(EcosystemConfig::tiny());
    let obs = hourly_ech_scan(&mut world, 24, 8);
    let stats = fig4_rotation(&obs);
    assert!(stats.distinct_configs >= 15, "configs {}", stats.distinct_configs);
    // Rotation ≈1.25h and hourly sampling → most configs seen 1-2 hours.
    assert!((1.0..=2.0).contains(&stats.mean_hours), "mean {}h", stats.mean_hours);
    let max_span = stats.duration_histogram.keys().max().copied().unwrap_or(0);
    assert!(max_span <= 3, "no config should live ≥4 hourly scans: {max_span}");
}

#[test]
fn sec435_connectivity_probe_shape() {
    let mut world = World::build(EcosystemConfig::tiny());
    // Probe a few days in the early (high-churn) window.
    let mut reports = Vec::new();
    for day in [5u64, 10, 15, 20, 25, 30] {
        world.step_to_day(day);
        reports.extend(connectivity_probe(&world));
    }
    let summary = sec435_connectivity(&reports);
    assert!(summary.occurrences > 0);
    assert!(summary.distinct_domains <= summary.occurrences);
    assert!(summary.any_unreachable <= summary.occurrences);
}

#[test]
fn tab9_chain_audit_shape() {
    // A larger sample than tiny() so the secure/insecure split is
    // statistically stable.
    let cfg = EcosystemConfig { population: 1_500, list_size: 1_200, ..EcosystemConfig::tiny() };
    let mut world = World::build(cfg);
    world.step_to_day(1);
    let audit = tab9_chain_audit(&world);
    // Some signed domains on both sides of the HTTPS split.
    assert!(audit.without_https.0 > 0, "{audit:?}");
    assert!(audit.with_https.0 > 0, "{audit:?}");
    // The paper's key claim: HTTPS-publishing (Cloudflare-heavy) domains
    // have a much higher insecure ratio than non-publishing domains.
    assert!(audit.insecure_pct_with_https() > audit.insecure_pct_without_https(), "{audit}");
}

#[test]
fn rank_distribution_shapes() {
    let (_world, store) = campaign_store();
    let days = store.days();
    let phase1: Vec<u32> = days.iter().copied().filter(|d| *d < 85).collect();
    let fig8 = fig8_rank_distribution(&store, &phase1, None);
    // Overlapping domains skew toward better ranks: their first-bucket
    // share should beat their last-bucket share.
    let first_bucket = fig8.set_a.first().copied().unwrap_or(0);
    let last_bucket = fig8.set_a.last().copied().unwrap_or(0);
    assert!(first_bucket >= last_bucket, "fig8 shape: {fig8}");

    let noncf = analysis::adoption::noncf_adopter_ids(&store);
    let fig9 = fig8_rank_distribution(&store, &phase1, Some(&noncf));
    let total: usize = fig9.set_a.iter().sum();
    assert!(total > 0, "non-CF adopters must be bucketed");
}
