//! End-to-end resolver tests against a three-level signed hierarchy
//! (root → com → a.com) on the simulated network.

use authserver::{AuthoritativeServer, DelegationRegistry, NsEndpoint, Zone, ZoneSet};
use dns_wire::{DnsName, RData, Rcode, Record, RecordType, SvcParam, SvcbRdata};
use dnssec::{ValidationState, ZoneKeys};
use netsim::{Network, SimClock};
use resolver::{RecursiveResolver, ResolveError, ResolverConfig, SelectionStrategy};
use std::net::IpAddr;
use std::sync::Arc;

fn name(s: &str) -> DnsName {
    DnsName::parse(s).unwrap()
}

fn ip(s: &str) -> IpAddr {
    s.parse().unwrap()
}

/// Build a world: root + com + a.com zones, a.com signed with DS
/// linked per `link_ds`. Returns (network, registry, zoneset of a.com).
fn world(link_ds: bool) -> (Network, DelegationRegistry, ZoneSet) {
    let clock = SimClock::new();
    clock.advance(1000);
    let net = Network::new(clock);
    let registry = DelegationRegistry::new();

    let root_keys = ZoneKeys::derive(&DnsName::root(), 0);
    let com_keys = ZoneKeys::derive(&name("com"), 0);
    let a_keys = ZoneKeys::derive(&name("a.com"), 0);

    // Root zone (trust anchor) serving DS for com.
    let root_set = ZoneSet::new();
    let mut root_zone = Zone::new(DnsName::root());
    root_zone.enable_signing(root_keys, 0, u32::MAX - 1);
    root_zone.add(com_keys.ds_record(300));
    root_set.insert(root_zone);
    net.bind_datagram(ip("198.41.0.4"), 53, Arc::new(AuthoritativeServer::new(root_set)));
    registry.delegate(
        &DnsName::root(),
        vec![NsEndpoint { name: name("a.root-servers.net"), ip: ip("198.41.0.4") }],
    );

    // com zone serving DS for a.com (when linked).
    let com_set = ZoneSet::new();
    let mut com_zone = Zone::new(name("com"));
    com_zone.enable_signing(com_keys, 0, u32::MAX - 1);
    if link_ds {
        com_zone.add(a_keys.ds_record(300));
    }
    com_set.insert(com_zone);
    net.bind_datagram(ip("192.5.6.30"), 53, Arc::new(AuthoritativeServer::new(com_set)));
    registry.delegate(
        &name("com"),
        vec![NsEndpoint { name: name("a.gtld-servers.net"), ip: ip("192.5.6.30") }],
    );

    // a.com zone, signed.
    let a_set = ZoneSet::new();
    let mut a_zone = Zone::new(name("a.com"));
    a_zone.enable_signing(a_keys, 0, u32::MAX - 1);
    a_zone.add(Record::new(name("a.com"), 300, RData::A("1.2.3.4".parse().unwrap())));
    a_zone.add(Record::new(
        name("a.com"),
        300,
        RData::Https(SvcbRdata::service_self(vec![SvcParam::Alpn(vec![b"h2".to_vec()])])),
    ));
    a_zone.add(Record::new(name("www.a.com"), 300, RData::Cname(name("a.com"))));
    a_set.insert(a_zone);
    net.bind_datagram(ip("173.245.58.1"), 53, Arc::new(AuthoritativeServer::new(a_set.clone())));
    registry.delegate(
        &name("a.com"),
        vec![NsEndpoint { name: name("ns1.cloudflare.com"), ip: ip("173.245.58.1") }],
    );

    (net, registry, a_set)
}

fn resolver_of(net: &Network, reg: &DelegationRegistry) -> RecursiveResolver {
    RecursiveResolver::new(net.clone(), reg.clone(), ResolverConfig::default())
}

#[test]
fn resolves_https_with_secure_validation() {
    let (net, reg, _) = world(true);
    let r = resolver_of(&net, &reg);
    let res = r.resolve(&name("a.com"), RecordType::Https).unwrap();
    assert_eq!(res.rcode, Rcode::NoError);
    assert_eq!(res.records.len(), 1);
    assert_eq!(res.rrsigs.len(), 1);
    assert_eq!(res.validation, Some(ValidationState::Secure));
    assert!(res.ad());
    assert!(!res.from_cache);
}

#[test]
fn missing_ds_gives_insecure_no_ad() {
    let (net, reg, _) = world(false);
    let r = resolver_of(&net, &reg);
    let res = r.resolve(&name("a.com"), RecordType::Https).unwrap();
    assert_eq!(res.validation, Some(ValidationState::Insecure));
    assert!(!res.ad());
    assert_eq!(res.rrsigs.len(), 1); // signed but not validatable
}

#[test]
fn second_resolve_hits_cache() {
    let (net, reg, _) = world(true);
    let r = resolver_of(&net, &reg);
    let _ = r.resolve(&name("a.com"), RecordType::Https).unwrap();
    let sent_before = net.stats().datagrams_sent;
    let res = r.resolve(&name("a.com"), RecordType::Https).unwrap();
    assert!(res.from_cache);
    // Validation uses cached DNSKEY/DS too: no new traffic at all.
    assert_eq!(net.stats().datagrams_sent, sent_before);
}

#[test]
fn cache_expires_with_virtual_time() {
    let (net, reg, a_set) = world(true);
    let r = resolver_of(&net, &reg);
    let _ = r.resolve(&name("a.com"), RecordType::Https).unwrap();
    // Mutate the zone while the cache is warm.
    a_set.with_zone(&name("a.com"), |z| {
        z.set(
            name("a.com"),
            RecordType::Https,
            vec![Record::new(
                name("a.com"),
                300,
                RData::Https(SvcbRdata::service_self(vec![SvcParam::Alpn(vec![b"h3".to_vec()])])),
            )],
        );
    });
    // Warm cache still serves the old record.
    let res = r.resolve(&name("a.com"), RecordType::Https).unwrap();
    assert!(res.from_cache);
    match &res.records[0].rdata {
        RData::Https(rd) => assert_eq!(rd.alpn().unwrap(), vec!["h2"]),
        other => panic!("{other:?}"),
    }
    // After TTL expiry the new record is fetched.
    net.clock().advance(301);
    let res = r.resolve(&name("a.com"), RecordType::Https).unwrap();
    assert!(!res.from_cache);
    match &res.records[0].rdata {
        RData::Https(rd) => assert_eq!(rd.alpn().unwrap(), vec!["h3"]),
        other => panic!("{other:?}"),
    }
}

#[test]
fn chases_cname_for_https() {
    let (net, reg, _) = world(true);
    let r = resolver_of(&net, &reg);
    let res = r.resolve(&name("www.a.com"), RecordType::Https).unwrap();
    assert_eq!(res.chain.len(), 1);
    assert_eq!(res.records.len(), 1);
    assert_eq!(res.records[0].name, name("a.com"));
}

#[test]
fn nxdomain_and_negative_cache() {
    let (net, reg, _) = world(true);
    let r = resolver_of(&net, &reg);
    let res = r.resolve(&name("missing.a.com"), RecordType::A).unwrap();
    assert_eq!(res.rcode, Rcode::NxDomain);
    let sent = net.stats().datagrams_sent;
    let res2 = r.resolve(&name("missing.a.com"), RecordType::A).unwrap();
    assert_eq!(res2.rcode, Rcode::NxDomain);
    assert!(res2.from_cache);
    assert_eq!(net.stats().datagrams_sent, sent);
}

#[test]
fn nodata_is_noerror_empty() {
    let (net, reg, _) = world(true);
    let r = resolver_of(&net, &reg);
    let res = r.resolve(&name("a.com"), RecordType::Aaaa).unwrap();
    assert_eq!(res.rcode, Rcode::NoError);
    assert!(res.records.is_empty());
}

#[test]
fn failover_to_second_ns() {
    let (net, reg, _) = world(true);
    // Put a dead endpoint first in the list.
    reg.delegate(
        &name("a.com"),
        vec![
            NsEndpoint { name: name("ns-dead.x.net"), ip: ip("10.99.99.99") },
            NsEndpoint { name: name("ns1.cloudflare.com"), ip: ip("173.245.58.1") },
        ],
    );
    let r = RecursiveResolver::new(
        net.clone(),
        reg.clone(),
        ResolverConfig { strategy: SelectionStrategy::First, ..Default::default() },
    );
    let res = r.resolve(&name("a.com"), RecordType::Https).unwrap();
    assert_eq!(res.records.len(), 1);
}

#[test]
fn no_authority_error() {
    let clock = SimClock::new();
    let net = Network::new(clock);
    let reg = DelegationRegistry::new();
    let r = resolver_of(&net, &reg);
    assert!(matches!(r.resolve(&name("x.test"), RecordType::A), Err(ResolveError::NoAuthority(_))));
}

#[test]
fn resolver_as_datagram_service_sets_ad() {
    let (net, reg, _) = world(true);
    let r = Arc::new(resolver_of(&net, &reg));
    net.bind_datagram(ip("8.8.8.8"), 53, r);
    let q = dns_wire::Message::query_dnssec(77, name("a.com"), RecordType::Https);
    let resp_bytes = net.send_datagram(ip("8.8.8.8"), 53, &q.encode()).unwrap();
    let resp = dns_wire::Message::decode(&resp_bytes).unwrap();
    assert_eq!(resp.id, 77);
    assert!(resp.flags.ad);
    assert_eq!(resp.answers_of(RecordType::Https).len(), 1);
    assert_eq!(resp.answers_of(RecordType::Rrsig).len(), 1);
}

#[test]
fn unsigned_zone_resolves_without_ad() {
    let (net, reg, a_set) = world(true);
    a_set.with_zone(&name("a.com"), |z| z.disable_signing());
    let r = resolver_of(&net, &reg);
    let res = r.resolve(&name("a.com"), RecordType::Https).unwrap();
    assert_eq!(res.validation, Some(ValidationState::Unsigned));
    assert!(!res.ad());
    assert!(res.rrsigs.is_empty());
}

#[test]
fn mixed_provider_ns_set_yields_intermittent_https() {
    // §4.2.3: a domain delegates to two providers; only one serves the
    // HTTPS record. Whether a resolver sees it depends on NS selection.
    let (net, reg, _) = world(true);

    // Second provider: same A record, no HTTPS record.
    let other_set = ZoneSet::new();
    let mut other_zone = Zone::new(name("a.com"));
    other_zone.add(Record::new(name("a.com"), 300, RData::A("1.2.3.4".parse().unwrap())));
    other_set.insert(other_zone);
    net.bind_datagram(ip("10.7.7.7"), 53, Arc::new(AuthoritativeServer::new(other_set)));
    reg.delegate(
        &name("a.com"),
        vec![
            NsEndpoint { name: name("ns1.cloudflare.com"), ip: ip("173.245.58.1") },
            NsEndpoint { name: name("ns1.other.net"), ip: ip("10.7.7.7") },
        ],
    );

    let r = RecursiveResolver::new(
        net.clone(),
        reg.clone(),
        ResolverConfig {
            strategy: SelectionStrategy::RoundRobin,
            validate: false,
            ..Default::default()
        },
    );
    let mut seen = Vec::new();
    for _ in 0..4 {
        let res = r.resolve(&name("a.com"), RecordType::Https).unwrap();
        seen.push(res.is_positive());
        net.clock().advance(301); // expire cache between observations
    }
    // Round-robin alternates between the providers: both outcomes occur.
    assert!(seen.contains(&true), "HTTPS record never observed: {seen:?}");
    assert!(seen.contains(&false), "HTTPS record always observed: {seen:?}");
}

#[test]
fn dnssec_fetches_fail_over_past_dead_parent_and_lame_zone_endpoints() {
    // The DS fetch (parent `com` endpoints under its own `ds:` selection
    // key) and the DNSKEY fetches (each zone's own endpoints) run the same
    // authority round as the query: a dead first `com` endpoint and a
    // lame (REFUSED) first `a.com` NS are skipped, and the chain still
    // validates through the second endpoints.
    for strategy in [SelectionStrategy::First, SelectionStrategy::RoundRobin] {
        let (net, reg, _) = world(true);
        net.set_unreachable(ip("10.99.0.1"));
        reg.delegate(
            &name("com"),
            vec![
                NsEndpoint { name: name("dead.gtld-servers.net"), ip: ip("10.99.0.1") },
                NsEndpoint { name: name("a.gtld-servers.net"), ip: ip("192.5.6.30") },
            ],
        );
        // A server with no zones answers REFUSED: a lame delegation.
        net.bind_datagram(ip("10.99.0.2"), 53, Arc::new(AuthoritativeServer::new(ZoneSet::new())));
        reg.delegate(
            &name("a.com"),
            vec![
                NsEndpoint { name: name("ns-lame.x.net"), ip: ip("10.99.0.2") },
                NsEndpoint { name: name("ns1.cloudflare.com"), ip: ip("173.245.58.1") },
            ],
        );
        let r = RecursiveResolver::new(
            net.clone(),
            reg.clone(),
            ResolverConfig { strategy, ..Default::default() },
        );
        let res = r.resolve(&name("a.com"), RecordType::Https).unwrap();
        assert_eq!(res.records.len(), 1, "{strategy:?}");
        assert_eq!(res.validation, Some(ValidationState::Secure), "{strategy:?}");
        assert!(res.ad());
        // Both `com` fetches (DS a.com under `ds:a.com`, DNSKEY com under
        // `com`) start at the dead endpoint under either strategy.
        assert_eq!(net.stats().connect_failures, 2, "{strategy:?}");
        let now = net.clock().now();
        for (zone, rtype) in [("a.com", RecordType::Ds), ("a.com", RecordType::Dnskey)] {
            assert!(
                matches!(
                    r.cache().get(&name(zone), rtype, now),
                    Some(resolver::CachedAnswer::Positive { .. })
                ),
                "{zone} {rtype} not fetched ({strategy:?})"
            );
        }
    }
}
