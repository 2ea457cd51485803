//! # httpsrr
//!
//! An end-to-end reproduction of *"Exploring the Ecosystem of DNS HTTPS
//! Resource Records"* (IMC 2024) as a Rust library: the DNS substrate
//! (wire format, SVCB/HTTPS records, DNSSEC), a deterministic simulated
//! Internet with provider policies, a recursive resolver, a TLS/ECH
//! handshake layer, behavioural browser models, the paper's scanning
//! framework, and per-table/figure analyses.
//!
//! ## Quickstart
//!
//! ```
//! use httpsrr::Study;
//!
//! // A small, fast study: tiny world, monthly snapshots.
//! let study = Study::quick();
//! let adoption = httpsrr::analysis::fig2_adoption(
//!     &study.store,
//!     study.world.config.landmarks.source_change as u32,
//! );
//! assert!(adoption.dynamic_apex.mean() > 5.0);
//! ```
//!
//! The module tree mirrors the system layers; README.md maps the crates
//! and gives the commands that run each surface.

#![warn(missing_docs)]

pub mod automation;

pub use analysis;
pub use authserver;
pub use browser;
pub use dns_wire;
pub use dnssec;
pub use ecosystem;
pub use netsim;
pub use resolver;
pub use scanner;
pub use serve;
pub use simcrypto;
pub use telemetry;
pub use tlsech;

use ecosystem::{EcosystemConfig, World};
use scanner::{Campaign, SnapshotStore};

/// A completed longitudinal study: the evolved world plus the scanner's
/// dataset, ready for analysis.
pub struct Study {
    /// The simulated world, advanced to the end of the campaign.
    pub world: World,
    /// The longitudinal scan dataset.
    pub store: SnapshotStore,
}

impl Study {
    /// Run a study with the given ecosystem config and day stride.
    pub fn run(config: EcosystemConfig, stride: u64) -> Study {
        let days = config.study_days();
        let mut world = World::build(config);
        let campaign = Campaign::strided(days, stride);
        let store = campaign.run(&mut world);
        Study { world, store }
    }

    /// A tiny, fast study (≈1 s): 400-domain universe, monthly snapshots.
    pub fn quick() -> Study {
        Study::run(EcosystemConfig::tiny(), 28)
    }

    /// The paper-shaped study at the default scaled population
    /// (6 k domains, weekly snapshots; ≈ a minute).
    pub fn paper_scaled() -> Study {
        Study::run(EcosystemConfig::default(), 7)
    }
}

/// Render the full server-side report: every §4 table and figure.
pub fn server_side_report(study: &Study) -> String {
    use std::fmt::Write;
    let lm = study.world.config.landmarks;
    let mut out = String::new();
    let adoption = analysis::fig2_adoption(&study.store, lm.source_change as u32);
    let _ = writeln!(
        out,
        "Fig 2: adoption (dynamic apex {:.1}% -> {:.1}%; overlapping apex mean {:.1}%)",
        adoption.dynamic_apex.first().unwrap_or(0.0),
        adoption.dynamic_apex.last().unwrap_or(0.0),
        adoption.overlapping_apex.mean(),
    );
    let _ = writeln!(out, "{}", analysis::tab2_ns_category(&study.store));
    let _ = writeln!(out, "{}", analysis::tab3_top_noncf(&study.store));
    let fig3 = analysis::fig3_noncf_provider_count(&study.store);
    let _ = writeln!(
        out,
        "Fig 3: distinct non-CF providers {:.0} -> {:.0}",
        fig3.provider_count.first().unwrap_or(0.0),
        fig3.provider_count.last().unwrap_or(0.0)
    );
    let _ = writeln!(
        out,
        "Fig 10: non-CF HTTPS domains {:.0} -> {:.0}",
        fig3.domain_count.first().unwrap_or(0.0),
        fig3.domain_count.last().unwrap_or(0.0)
    );
    let _ = writeln!(out, "{}", analysis::sec423_intermittent(&study.store));
    let _ = writeln!(out, "{}", analysis::tab4_cf_config(&study.store));
    let _ = writeln!(out, "{}", analysis::tab5_other_providers(&study.store));
    let _ = writeln!(out, "{}", analysis::sec433_anomalies(&study.store));
    let _ = writeln!(out, "{}", analysis::tab8_alpn(&study.store, lm.h3_29_sunset as u32));
    let fig11 = analysis::fig11_iphints(&study.store);
    let _ = writeln!(
        out,
        "Fig 11: apex hint utilization {:.1}%, match {:.1}%",
        fig11.apex_utilization.mean(),
        fig11.apex_match.mean()
    );
    let _ = writeln!(out, "{}", analysis::fig12_mismatch_durations(&study.store));
    let fig13 = analysis::fig13_ech_share(&study.store);
    let _ = writeln!(
        out,
        "Fig 13: ECH share apex first {:.1}% last {:.1}%",
        fig13.apex.first().unwrap_or(0.0),
        fig13.apex.last().unwrap_or(0.0)
    );
    let fig5 = analysis::fig5_dnssec_trend(&study.store);
    let _ = writeln!(
        out,
        "Fig 5: signed apex mean {:.1}%, validated {:.1}%  |  Fig 14: signed-ECH {:.2}%",
        fig5.signed_apex.mean(),
        fig5.validated_apex.mean(),
        fig5.signed_ech.mean(),
    );
    out
}

/// Render the client-side report: Tables 6 and 7 for the four measured
/// browsers (runs the full testbed battery; ≈ a second).
pub fn client_side_report() -> String {
    use browser::{table6_row, table7_row, BrowserProfile};
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "Table 6: HTTPS RR support matrix");
    let _ = writeln!(
        out,
        "  {:<14} {:>5} {:>5} {:>6} {:>6} {:>7} {:>5} {:>5} {:>6}",
        "browser", "bare", "http", "https", "alias", "target", "port", "alpn", "hints"
    );
    for p in BrowserProfile::all_measured() {
        let r = table6_row(&p);
        let _ = writeln!(
            out,
            "  {:<14} {:>5} {:>5} {:>6} {:>6} {:>7} {:>5} {:>5} {:>6}",
            r.browser,
            r.utilization.bare.to_string(),
            r.utilization.http.to_string(),
            r.utilization.https.to_string(),
            r.alias_target.to_string(),
            r.service_target.to_string(),
            r.port.to_string(),
            r.alpn.to_string(),
            r.ip_hints.to_string(),
        );
    }
    let _ = writeln!(out, "Table 7: ECH support matrix");
    let _ = writeln!(
        out,
        "  {:<14} {:>7} {:>10} {:>9} {:>9} {:>6}",
        "browser", "shared", "unilateral", "malformed", "mismatch", "split"
    );
    for p in BrowserProfile::all_measured() {
        if !p.supports_ech {
            let _ = writeln!(out, "  {:<14} (no ECH support)", p.name);
            continue;
        }
        let r = table7_row(&p);
        let _ = writeln!(
            out,
            "  {:<14} {:>7} {:>10} {:>9} {:>9} {:>6}",
            r.browser,
            r.shared_mode.to_string(),
            r.unilateral.to_string(),
            r.malformed.to_string(),
            r.mismatched_key.to_string(),
            r.split_mode.to_string(),
        );
    }
    out
}
