//! The virtual-time event-loop backend's contract, pinned from three
//! directions:
//!
//! 1. **WorkerPool equivalence** — on the zero-latency model the event
//!    loop returns byte-identical results to the pooled backend, for
//!    every selection strategy and thread count (per-zone serialization,
//!    see `resolver::eventloop`'s module docs).
//! 2. **Virtual-time determinism** — with a latency/loss model installed
//!    the batch's results, outcome counters, and per-query virtual
//!    timeline are a pure function of the seed: invariant across the
//!    `RESOLVER_TEST_THREADS` axis and exactly repeatable.
//! 3. **The timeout ladder** — a lame (mute) endpoint burns the full
//!    retransmit budget in virtual time, then NS fallback recovers the
//!    answer from the healthy endpoint.
//!
//! CI runs this suite under the same thread matrix as `engine_batch`:
//! `RESOLVER_TEST_THREADS` extends the default `{1, 2, 4, 8}` axis.

use authserver::{AuthoritativeServer, DelegationRegistry, NsEndpoint, Zone, ZoneSet};
use dns_wire::{DnsName, RData, Record, RecordType};
use ecosystem::{EcosystemConfig, World};
use netsim::{LinkModel, Network, SimClock};
use resolver::{
    EngineBackend, Query, QueryEngine, RecursiveResolver, Resolution, ResolveError, ResolverConfig,
    SelectionStrategy,
};
use std::net::IpAddr;
use std::sync::Arc;
use telemetry::MetricsRegistry;

fn name(s: &str) -> DnsName {
    DnsName::parse(s).unwrap()
}

fn ip(s: &str) -> IpAddr {
    s.parse().unwrap()
}

/// Thread counts to exercise (the CI matrix hook, same as engine_batch).
fn thread_axis() -> Vec<usize> {
    let mut axis = vec![1, 2, 4, 8];
    if let Ok(extra) = std::env::var("RESOLVER_TEST_THREADS") {
        for tok in extra.split(',') {
            if let Ok(n) = tok.trim().parse::<usize>() {
                if n > 0 && !axis.contains(&n) {
                    axis.push(n);
                }
            }
        }
    }
    axis
}

fn engine_with(world: &World, strategy: SelectionStrategy, backend: EngineBackend) -> QueryEngine {
    QueryEngine::new(
        world.network.clone(),
        world.registry.clone(),
        ResolverConfig { validate: true, strategy, seed: 0xBEEF, backend, ..Default::default() },
    )
}

/// The scanner's wave-1 query shape over the world's day-0 list.
fn scan_queries(world: &World) -> Vec<Query> {
    let mut queries = Vec::new();
    for &id in world.today_list().ranked() {
        let apex = world.domain(id).apex.clone();
        queries.push(Query::new(apex.clone(), RecordType::Https));
        queries.push(Query::new(apex.clone(), RecordType::A));
        queries.push(Query::new(apex.clone(), RecordType::Ns));
        if let Ok(www) = apex.prepend("www") {
            queries.push(Query::new(www, RecordType::Https));
        }
    }
    queries
}

#[test]
fn event_backend_matches_pooled_on_zero_latency() {
    // The tentpole equivalence pin: same world, same queries, and the
    // event loop returns exactly what the pooled backend returns — for
    // stateful selection strategies included, because both backends
    // consume per-zone selection state in batch input order.
    let world = World::build(EcosystemConfig::tiny());
    let queries = scan_queries(&world);
    assert!(queries.len() > 100, "world too small to be meaningful");

    for strategy in
        [SelectionStrategy::RoundRobin, SelectionStrategy::Random, SelectionStrategy::First]
    {
        let pooled: Vec<Result<Resolution, ResolveError>> =
            engine_with(&world, strategy, EngineBackend::Pooled).resolve_batch(&queries, 4);
        for threads in thread_axis() {
            let engine = engine_with(&world, strategy, EngineBackend::EventLoop);
            assert_eq!(engine.backend(), EngineBackend::EventLoop);
            let (batch, timing) = engine.resolve_batch_timed(&queries, threads);
            assert_eq!(batch.len(), pooled.len());
            for (i, (b, p)) in batch.iter().zip(&pooled).enumerate() {
                assert_eq!(
                    b, p,
                    "query #{i} ({:?}) diverged from pooled at threads={threads} ({strategy:?})",
                    queries[i]
                );
            }
            // Zero latency: the whole batch happens in one virtual
            // instant, with no timeout machinery engaged.
            let timing = timing.expect("event backend reports timing");
            assert_eq!(timing.started_ms, timing.finished_ms);
            assert_eq!(timing.stats, resolver::EventLoopStats::default());
        }
    }
}

#[test]
fn event_backend_duplicates_share_one_resolution() {
    let world = World::build(EcosystemConfig::tiny());
    let mut queries = scan_queries(&world);
    queries.truncate(40);
    let doubled: Vec<Query> = queries.iter().chain(queries.iter()).cloned().collect();
    let batch = engine_with(&world, SelectionStrategy::RoundRobin, EngineBackend::EventLoop)
        .resolve_batch(&doubled, 4);
    let n = queries.len();
    for i in 0..n {
        assert_eq!(batch[i], batch[i + n], "position {i} vs its duplicate");
    }
}

/// A ~1200-apex world: big enough that a batch holds >1000 zones in
/// flight at once, small enough to build in test time.
fn wide_world() -> World {
    World::build(EcosystemConfig {
        population: 1_500,
        list_size: 1_200,
        noncf_adopters: vec![(4, "eName"), (3, "Google"), (2, "GoDaddy"), (1, "NSONE")],
        toggling_domains: 8,
        migrating_domains: 4,
        mixed_ns_domains: 6,
        undelegated_domains: 2,
        permanent_mismatch_domains: 2,
        ..EcosystemConfig::default()
    })
}

/// The acceptance workload: HTTPS/A/NS for 1200 apexes = 3600 queries.
fn wide_queries(world: &World) -> Vec<Query> {
    let mut queries = Vec::new();
    for &id in world.today_list().ranked() {
        let apex = world.domain(id).apex.clone();
        queries.push(Query::new(apex.clone(), RecordType::Https));
        queries.push(Query::new(apex.clone(), RecordType::A));
        queries.push(Query::new(apex, RecordType::Ns));
    }
    queries
}

fn lossy_model() -> LinkModel {
    LinkModel::new(0x1055).with_rtt_ms(20).with_loss_permille(10) // 20 ms RTT, 1% loss
}

#[test]
fn lossy_batch_is_thread_count_invariant_and_deeply_concurrent() {
    // The ISSUE's acceptance workload: a 3600-query batch over a
    // 20 ms-RTT, 1%-loss link. Results, the telemetry counter snapshot
    // (timeout/retransmit/drop/fallback counters plus the virtual-time
    // latency histogram), and the virtual timeline must be identical for
    // every worker-thread setting, and one event-loop worker must hold
    // ≥1000 queries in flight at once.
    type Baseline = (Vec<Result<Resolution, ResolveError>>, Vec<(u64, u64)>, String);
    let mut baseline: Option<Baseline> = None;
    for threads in thread_axis() {
        let world = wide_world();
        world.network.set_latency_model(lossy_model());
        let queries = wide_queries(&world);
        assert_eq!(queries.len(), 3_600);
        let metrics = Arc::new(MetricsRegistry::new("lossy"));
        let engine = QueryEngine::new(
            world.network.clone(),
            world.registry.clone(),
            ResolverConfig {
                validate: false,
                strategy: SelectionStrategy::RoundRobin,
                seed: 0xBEEF,
                backend: EngineBackend::EventLoop,
                ..Default::default()
            },
        )
        .with_metrics(metrics.clone());
        let (results, timing) = engine.resolve_batch_timed(&queries, threads);
        let timing = timing.expect("event backend reports timing");
        assert!(
            timing.max_in_flight >= 1_000,
            "one worker must sustain >=1000 in-flight queries, got {}",
            timing.max_in_flight
        );
        // The loss model engaged the timeout machinery (~1% of ~3600+
        // exchanges) and everything still resolved by fallback/retry.
        assert!(timing.stats.drops > 0, "1% loss over 3600 queries must drop something");
        assert_eq!(timing.stats.drops + timing.stats.ns_fallbacks, timing.stats.timeouts);
        assert!(timing.finished_ms > timing.started_ms);
        let snapshot = metrics.counters_text();
        assert!(snapshot.contains("counter engine.drops"));
        assert!(snapshot.contains("det_histogram engine.vt_query_ms"));
        match &baseline {
            None => baseline = Some((results, timing.per_query_ms, snapshot)),
            Some((expected, spans, text)) => {
                assert_eq!(&results, expected, "results diverged at threads={threads}");
                assert_eq!(&timing.per_query_ms, spans, "timeline diverged at threads={threads}");
                assert_eq!(&snapshot, text, "counter snapshot diverged at threads={threads}");
            }
        }
    }
}

#[test]
fn virtual_timeline_is_seeded_and_repeatable() {
    // Two identically-seeded worlds produce byte-identical batches *and*
    // identical per-query completion instants: the virtual clock is part
    // of the determinism contract, not just the results.
    let mut runs = Vec::new();
    for _ in 0..2 {
        let world = wide_world();
        world.network.set_latency_model(lossy_model());
        let queries = wide_queries(&world);
        let engine = QueryEngine::new(
            world.network.clone(),
            world.registry.clone(),
            ResolverConfig {
                validate: false,
                seed: 0xBEEF,
                backend: EngineBackend::EventLoop,
                ..Default::default()
            },
        );
        runs.push(engine.resolve_batch_timed(&queries, 4));
    }
    let (a_results, a_timing) = runs.remove(0);
    let (b_results, b_timing) = runs.remove(0);
    assert_eq!(a_results, b_results);
    let (a_timing, b_timing) = (a_timing.unwrap(), b_timing.unwrap());
    assert_eq!(a_timing.per_query_ms, b_timing.per_query_ms);
    assert_eq!(a_timing.stats, b_timing.stats);
    assert_eq!(
        (a_timing.started_ms, a_timing.finished_ms),
        (b_timing.started_ms, b_timing.finished_ms)
    );
}

/// Two healthy authoritatives for `a.com`; the link model decides which
/// of them actually answers.
fn two_server_world() -> (Network, DelegationRegistry) {
    let net = Network::new(SimClock::new());
    let reg = DelegationRegistry::new();
    for addr in ["10.0.0.1", "10.0.0.2"] {
        let zones = ZoneSet::new();
        let mut z = Zone::new(name("a.com"));
        z.add(Record::new(name("a.com"), 60, RData::A("1.2.3.4".parse().unwrap())));
        zones.insert(z);
        net.bind_datagram(ip(addr), 53, Arc::new(AuthoritativeServer::new(zones)));
    }
    reg.delegate(
        &name("a.com"),
        vec![
            NsEndpoint { name: name("ns1.x.net"), ip: ip("10.0.0.1") },
            NsEndpoint { name: name("ns2.x.net"), ip: ip("10.0.0.2") },
        ],
    );
    (net, reg)
}

#[test]
fn lame_delegation_recovers_via_retransmits_then_fallback() {
    // ns1 is mute (the paper's lame-delegation shape). A `First`-pinned
    // resolver burns the full retransmit budget against it in virtual
    // time, falls back to ns2, and still recovers the answer.
    let (net, reg) = two_server_world();
    net.set_latency_model(LinkModel::new(3).with_rtt_ms(20).with_lame_endpoint(ip("10.0.0.1")));
    let config = ResolverConfig {
        strategy: SelectionStrategy::First,
        validate: false,
        backend: EngineBackend::EventLoop,
        ..Default::default()
    };
    let (attempt_timeout_ms, retransmits) = (config.attempt_timeout_ms, config.retransmits);
    let engine = QueryEngine::new(net.clone(), reg, config);
    let queries = vec![Query::new(name("a.com"), RecordType::A)];
    let (results, timing) = engine.resolve_batch_timed(&queries, 1);
    let res = results[0].as_ref().expect("fallback must recover the answer");
    assert_eq!(res.records.len(), 1);

    let timing = timing.unwrap();
    let attempts = u64::from(retransmits) + 1;
    assert_eq!(timing.stats.drops, attempts, "every attempt against the mute NS is dropped");
    assert_eq!(timing.stats.timeouts, attempts);
    assert_eq!(timing.stats.retransmits, attempts - 1);
    assert_eq!(timing.stats.ns_fallbacks, 1);
    // The virtual cost is exactly the burned budget plus one healthy RTT.
    assert_eq!(timing.finished_ms - timing.started_ms, attempts * attempt_timeout_ms + 20);
    // The shared clock advanced with the batch.
    assert_eq!(net.clock().now_ms().0, timing.finished_ms);
}

#[test]
fn all_endpoints_lame_surfaces_a_timeout_error() {
    // Both NS mute: the query exhausts every ladder rung and reports the
    // distinct timeout failure (`is_timeout`), not a generic lameness —
    // this is what the scanner's RESOLUTION_TIMEOUT flag keys on.
    let (net, reg) = two_server_world();
    net.set_latency_model(
        LinkModel::new(3)
            .with_rtt_ms(20)
            .with_lame_endpoint(ip("10.0.0.1"))
            .with_lame_endpoint(ip("10.0.0.2")),
    );
    let config = ResolverConfig {
        strategy: SelectionStrategy::First,
        validate: false,
        backend: EngineBackend::EventLoop,
        ..Default::default()
    };
    let retransmits = config.retransmits;
    let engine = QueryEngine::new(net, reg, config);
    let queries = vec![Query::new(name("a.com"), RecordType::A)];
    let (results, timing) = engine.resolve_batch_timed(&queries, 1);
    match &results[0] {
        Err(e @ ResolveError::Timeout { attempts, .. }) => {
            assert!(e.is_timeout());
            assert_eq!(*attempts, 2 * (retransmits + 1), "both ladders burned");
        }
        other => panic!("expected a timeout error, got {other:?}"),
    }
    assert_eq!(timing.unwrap().stats.ns_fallbacks, 1);
}

#[test]
fn slow_endpoint_times_out_but_fast_fallback_wins() {
    // ns1 answers — slower than the attempt budget, so its replies are
    // discarded at the deadline exactly like losses. The resolver never
    // sees the late bytes and recovers via ns2.
    let (net, reg) = two_server_world();
    let config = ResolverConfig {
        strategy: SelectionStrategy::First,
        validate: false,
        backend: EngineBackend::EventLoop,
        ..Default::default()
    };
    net.set_latency_model(
        LinkModel::new(3)
            .with_rtt_ms(20)
            .with_slow_endpoint(ip("10.0.0.1"), config.attempt_timeout_ms * 2),
    );
    let retransmits = config.retransmits;
    let engine = QueryEngine::new(net, reg, config);
    let queries = vec![Query::new(name("a.com"), RecordType::A)];
    let (results, timing) = engine.resolve_batch_timed(&queries, 1);
    assert!(results[0].is_ok(), "the fast second NS must win");
    let stats = timing.unwrap().stats;
    // Late replies are timeouts, not drops.
    assert_eq!(stats.drops, 0);
    assert_eq!(stats.timeouts, u64::from(retransmits) + 1);
    assert_eq!(stats.ns_fallbacks, 1);
}

#[test]
fn sync_resolve_never_reaches_the_link_model() {
    // The only NS is mute on the link model. `RecursiveResolver::resolve`
    // runs the shared core over the lossless synchronous exchange, so it
    // still answers, in zero virtual time and with nothing dropped; the
    // event loop on the same network climbs the whole ladder and times out.
    let (net, reg) = two_server_world();
    reg.delegate(&name("a.com"), vec![NsEndpoint { name: name("ns1.x.net"), ip: ip("10.0.0.1") }]);
    net.set_latency_model(LinkModel::new(3).with_rtt_ms(20).with_lame_endpoint(ip("10.0.0.1")));
    let config = ResolverConfig { validate: false, ..Default::default() };
    let retransmits = config.retransmits;

    let sync = RecursiveResolver::new(net.clone(), reg.clone(), config.clone());
    let res =
        sync.resolve(&name("a.com"), RecordType::A).expect("sync path ignores the link model");
    assert_eq!(res.records.len(), 1);
    assert_eq!(net.clock().now_ms().0, 0);
    assert_eq!(net.stats().datagrams_dropped, 0);

    let engine = QueryEngine::new(
        net.clone(),
        reg,
        ResolverConfig { backend: EngineBackend::EventLoop, ..config },
    );
    let queries = vec![Query::new(name("a.com"), RecordType::A)];
    let (results, timing) = engine.resolve_batch_timed(&queries, 1);
    match &results[0] {
        Err(ResolveError::Timeout { zone, attempts }) => {
            assert_eq!(zone, &name("a.com"));
            assert_eq!(*attempts, retransmits + 1);
        }
        other => panic!("expected a timeout on the event loop, got {other:?}"),
    }
    assert_eq!(timing.unwrap().stats.ns_fallbacks, 0);
    assert!(net.stats().datagrams_dropped > 0);
}
