//! The shared query engine: one resolution front-end for every consumer.
//!
//! The scanner, the browser testbed, and the benches all used to
//! hand-roll their own query loops against a [`RecursiveResolver`]. The
//! [`QueryEngine`] replaces those loops with one object that owns the
//! resolver (and through it the sharded [`RecordCache`]) and exposes two
//! paths:
//!
//! - [`QueryEngine::resolve`] — the existing single-query path,
//!   unchanged semantics;
//! - [`QueryEngine::resolve_batch`] — resolve many queries with a
//!   deterministic worker fan-out over the simulated network.
//!
//! ## The persistent worker pool
//!
//! Multi-threaded batches run on a [`WorkerPool`](crate::pool): `threads`
//! long-lived workers (with per-worker FIFO queues) that the engine
//! starts lazily on the first batch that needs them and then reuses for
//! every subsequent wave, day, and vantage. The previous implementation
//! spawned and joined scoped OS threads per batch, which cost 25–35% of
//! batch latency on a single-CPU host; a campaign pays the thread-spawn
//! tax at most once per engine now. Two supporting structures keep the
//! hot path allocation-light:
//!
//! - deduplication and partitioning borrow the input queries (no
//!   per-query key `String`s); the zone-affinity walk renders each name
//!   into one reused buffer and matches delegated apexes as borrowed
//!   suffix slices of it;
//! - because pool workers outlive the batch (the workspace forbids the
//!   `unsafe` lifetime juggling scoped threads rely on), jobs must own
//!   their queries; a cross-batch intern table hands out `Arc<Query>`
//!   clones so each distinct query is deep-copied at most once per
//!   engine, not once per batch.
//!
//! A panicking job is caught inside its worker's loop: the submitting
//! batch observes the dropped result channel and propagates the panic,
//! while the worker itself survives to serve the next batch — one
//! poisoned query cannot wedge a campaign.
//!
//! ## Batch semantics and the determinism contract
//!
//! Every distinct query of a batch runs the one resolution core
//! (`RecursiveResolver::resolve_with`), driven one of two ways by the
//! config's [`EngineBackend`]: the pooled backend calls
//! [`RecursiveResolver::resolve`] on its workers, which completes the
//! core in one poll over the lossless synchronous exchange; the event
//! loop ([`crate::eventloop`]) suspends the core on scheduled,
//! possibly lost or late, exchanges in virtual time. The backends
//! differ only in transport, so on the zero-latency model they agree
//! byte for byte.
//!
//! `resolve_batch(queries, threads)` returns one result per input query,
//! **in input order**, and is deterministic in the following sense:
//!
//! 1. **Deduplication.** Queries are deduplicated on `(owner name,
//!    record type)` before the fan-out; each distinct query is resolved
//!    exactly once per batch and duplicate positions receive a clone of
//!    that single resolution. Whether a duplicate "would have" hit the
//!    cache therefore does not depend on scheduling.
//! 2. **Zone-affinity assignment.** Distinct queries are assigned to
//!    pool workers by a stable hash of their authoritative zone apex
//!    (from the delegation registry), and each worker's FIFO queue
//!    resolves its queries in input order. There is no work stealing.
//!    All queries against one zone therefore resolve on one worker, in
//!    input order, and both
//!    stateful selection strategies keep their state **per zone**:
//!    [`SelectionStrategy::RoundRobin`](crate::SelectionStrategy) uses
//!    per-zone rotation counters, and
//!    [`SelectionStrategy::Random`](crate::SelectionStrategy) draws
//!    from a per-zone RNG seeded from `(seed, zone key)`. Each zone
//!    consumes its selection state in the same sequence for **every
//!    thread count**; this is what keeps the paper's §4.2.3
//!    mixed-provider flapping reproducible under a parallel scanner,
//!    including randomized-selection vantage points.
//! 3. **Time is frozen.** The simulated clock does not advance during a
//!    batch, so every query sees the same `now` and cache-expiry
//!    decisions are interleaving-independent. Cache entries written by
//!    concurrent workers for the same RRset are byte-identical, so
//!    last-writer-wins races cannot change any answer.
//!
//! Under those rules a batch's results match a sequential resolution of
//! the same distinct queries, independent of thread count. The residual
//! caveat: a query whose resolution *crosses* zones (a CNAME chase, or
//! the DS/DNSKEY walk into an ancestor zone) can consume another
//! worker's zone selection state concurrently; this only matters when
//! that other zone's endpoints serve divergent data for the same name,
//! which does not occur in the modelled ecosystem (divergence is
//! confined to apex zones with mixed NS sets, and every query for an
//! apex zone shares a worker — shared ancestor zones serve identical
//! data from every endpoint, so pick order cannot change an answer).
//!
//! ## Telemetry
//!
//! An engine can carry a [`telemetry::MetricsRegistry`]
//! ([`QueryEngine::with_metrics`]); resolution behaviour is identical
//! with or without one — instrumentation observes batch *outcomes*,
//! never steers them. Per the telemetry crate's determinism split:
//!
//! - **Counters** (`engine.queries`, `engine.distinct`,
//!   `engine.coalesced`, `engine.from_cache`, `engine.answers_*`,
//!   `engine.failures`, …) are derived from results, which the batch
//!   contract makes thread-count-invariant — so counter snapshots are
//!   byte-identical across thread counts (pinned in the determinism
//!   suite).
//! - **Histograms** (`engine.batch_us`, `engine.query_us`,
//!   `engine.queue_depth`, `engine.authority_datagrams`) are
//!   wall-clock/scheduling observations for perf work only.

use crate::cache::{fnv1a, RecordCache};
use crate::eventloop::{self, EventLoopStats};
use crate::pool::WorkerPool;
use crate::resolver::{RecursiveResolver, Resolution, ResolveError, ResolverConfig};
use authserver::DelegationRegistry;
use dns_wire::{DnsName, RecordType};
use netsim::Network;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::{mpsc, Arc};
use std::time::Instant;
use telemetry::MetricsRegistry;

/// One query in a batch: an owner name and a record type.
///
/// Equality and hashing fold ASCII case in the owner name (via
/// [`DnsName`]'s RFC 1035 semantics), so batch deduplication coalesces
/// `A.Example`/`a.example` without rendering key strings.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Query {
    /// Owner name to resolve.
    pub name: DnsName,
    /// Record type to resolve.
    pub rtype: RecordType,
}

impl Query {
    /// Construct a query.
    pub fn new(name: DnsName, rtype: RecordType) -> Query {
        Query { name, rtype }
    }
}

/// Which machinery `resolve_batch` uses for the distinct queries. Both
/// backends honour the same determinism contract and return identical
/// results on the zero-latency network model (pinned by the
/// `event_backend` suite); they differ in what they can express.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineBackend {
    /// The persistent [`WorkerPool`]: `threads` OS workers with
    /// zone-affinity FIFO queues. Real parallelism, but each query is a
    /// synchronous call — the network must be zero-latency.
    #[default]
    Pooled,
    /// The virtual-time event loop ([`crate::eventloop`]): one worker
    /// drives every query as a state machine over the timer queue, so
    /// latency/loss models, timeouts, retransmits, and NS fallback all
    /// work — and `threads` is ignored (determinism by construction).
    EventLoop,
}

/// Virtual-time accounting for one event-loop batch (`None` from the
/// pooled backend, which does not run in virtual time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchTiming {
    /// Virtual ms when the batch started.
    pub started_ms: u64,
    /// Virtual ms when the last query completed.
    pub finished_ms: u64,
    /// Peak number of concurrently in-flight queries.
    pub max_in_flight: usize,
    /// Aggregated timeout/retransmit/drop/fallback counters.
    pub stats: EventLoopStats,
    /// Per input query: virtual `(start, completion)` instants in ms
    /// (duplicates share their distinct query's span).
    pub per_query_ms: Vec<(u64, u64)>,
}

/// Instrument handles for the single-query path, resolved from the
/// registry once at attach time so each `resolve()` records through
/// held `Arc`s instead of re-locking the registry's name maps.
struct SingleQueryMetrics {
    latency: Arc<telemetry::Histogram>,
    queries: Arc<telemetry::Counter>,
    from_cache: Arc<telemetry::Counter>,
    failures: Arc<telemetry::Counter>,
}

/// The shared, batch-capable resolution engine.
pub struct QueryEngine {
    resolver: Arc<RecursiveResolver>,
    metrics: Option<Arc<MetricsRegistry>>,
    single: Option<SingleQueryMetrics>,
    /// The persistent batch workers (module docs): empty until the first
    /// multi-threaded batch, then reused for the engine's lifetime. The
    /// lock is held only while growing the pool and enqueuing jobs —
    /// result collection happens outside it.
    pool: Mutex<WorkerPool>,
    /// Cross-batch `Arc<Query>` intern table: pool jobs must own their
    /// queries, and a campaign re-resolves the same names every day, so
    /// each distinct query is deep-copied once per engine rather than
    /// once per batch. Bounded by the distinct queries the engine ever
    /// sees (the scanner's shape: a few per listed domain).
    interned: Mutex<HashSet<Arc<Query>>>,
}

impl QueryEngine {
    /// Build an engine with its own resolver on `network`/`registry`.
    pub fn new(
        network: Network,
        registry: DelegationRegistry,
        config: ResolverConfig,
    ) -> QueryEngine {
        QueryEngine::from_resolver(Arc::new(RecursiveResolver::new(network, registry, config)))
    }

    /// Wrap an existing shared resolver (e.g. one also bound to the
    /// network as a public-resolver datagram service).
    pub fn from_resolver(resolver: Arc<RecursiveResolver>) -> QueryEngine {
        QueryEngine {
            resolver,
            metrics: None,
            single: None,
            pool: Mutex::new(WorkerPool::new()),
            interned: Mutex::new(HashSet::new()),
        }
    }

    /// The batch backend this engine dispatches to (the resolver
    /// config's [`ResolverConfig::backend`]).
    pub fn backend(&self) -> EngineBackend {
        self.resolver.config().backend
    }

    /// Number of live pool workers (0 until the first multi-threaded
    /// batch; grows to the largest thread count any batch has used).
    pub fn pool_size(&self) -> usize {
        self.pool.lock().size()
    }

    /// Attach a metrics registry (builder style). Resolution results are
    /// bit-identical with or without one; see the module docs.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> QueryEngine {
        self.single = Some(SingleQueryMetrics {
            latency: metrics.histogram("engine.single_us"),
            queries: metrics.counter("engine.single_queries"),
            from_cache: metrics.counter("engine.single_from_cache"),
            failures: metrics.counter("engine.single_failures"),
        });
        self.metrics = Some(metrics);
        self
    }

    /// The attached metrics registry, if any.
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
    }

    /// The underlying resolver.
    pub fn resolver(&self) -> &Arc<RecursiveResolver> {
        &self.resolver
    }

    /// The resolver's sharded cache.
    pub fn cache(&self) -> &RecordCache {
        self.resolver.cache()
    }

    /// The simulated network handle.
    pub fn network(&self) -> &Network {
        self.resolver.network()
    }

    /// Resolve one query at the current simulated time.
    pub fn resolve(&self, name: &DnsName, rtype: RecordType) -> Result<Resolution, ResolveError> {
        let Some(single) = &self.single else {
            return self.resolver.resolve(name, rtype);
        };
        let start = Instant::now();
        let result = self.resolver.resolve(name, rtype);
        single.latency.record_duration(start.elapsed());
        single.queries.inc();
        match &result {
            Ok(res) if res.from_cache => single.from_cache.inc(),
            Ok(_) => {}
            Err(_) => single.failures.inc(),
        }
        result
    }

    /// Resolve a batch of queries with `threads` workers, returning one
    /// result per query in input order. See the module docs for the
    /// determinism contract. On the [`EngineBackend::EventLoop`] backend
    /// `threads` is ignored (one worker drives everything in virtual
    /// time and is thread-count invariant by construction).
    pub fn resolve_batch(
        &self,
        queries: &[Query],
        threads: usize,
    ) -> Vec<Result<Resolution, ResolveError>> {
        self.resolve_batch_timed(queries, threads).0
    }

    /// [`resolve_batch`](Self::resolve_batch), additionally returning
    /// the batch's virtual-time accounting when the event-loop backend
    /// ran it (`None` from the pooled backend).
    pub fn resolve_batch_timed(
        &self,
        queries: &[Query],
        threads: usize,
    ) -> (Vec<Result<Resolution, ResolveError>>, Option<BatchTiming>) {
        // An empty batch does no work: no assignment maps, no thread
        // scaffolding, no metrics traffic.
        if queries.is_empty() {
            return (Vec::new(), None);
        }
        let batch_start = self.metrics.as_ref().map(|_| Instant::now());
        let datagrams_before = self.metrics.as_ref().map(|_| self.network().stats().datagrams_sent);
        let query_us = self.metrics.as_ref().map(|m| m.histogram("engine.query_us"));

        // Deduplicate, preserving first-occurrence order. The map
        // borrows the input queries — `Query`'s case-folding `Hash`/`Eq`
        // replaces the `(String, u16)` key this used to allocate per
        // input.
        let mut index_of: HashMap<&Query, usize> = HashMap::with_capacity(queries.len());
        let mut distinct: Vec<&Query> = Vec::new();
        let mut positions: Vec<usize> = Vec::with_capacity(queries.len());
        for q in queries {
            let next = distinct.len();
            let idx = *index_of.entry(q).or_insert_with(|| {
                distinct.push(q);
                next
            });
            positions.push(idx);
        }

        let threads = threads.clamp(1, distinct.len());
        let mut resolved: Vec<Option<Result<Resolution, ResolveError>>> =
            vec![None; distinct.len()];
        let mut timing: Option<BatchTiming> = None;

        if self.backend() == EngineBackend::EventLoop {
            // Per-zone serialization groups: the same partition key the
            // pooled path buckets on (authoritative apex of each name),
            // interned to dense ids in first-appearance order.
            let registry = self.resolver.registry();
            let mut zone_ids: HashMap<String, usize> = HashMap::new();
            let mut zone_index = Vec::with_capacity(distinct.len());
            let mut key_buf = String::new();
            for q in &distinct {
                key_buf.clear();
                q.name.write_key(&mut key_buf);
                let apex = registry.authority_apex_of_key(&key_buf).unwrap_or(key_buf.as_str());
                let next = zone_ids.len();
                let id = match zone_ids.get(apex) {
                    Some(&id) => id,
                    None => {
                        zone_ids.insert(apex.to_string(), next);
                        next
                    }
                };
                zone_index.push(id);
            }
            let zone_count = zone_ids.len();
            let outcome = eventloop::drive(&self.resolver, &distinct, &zone_index, zone_count);
            if let Some(m) = &self.metrics {
                // All four counters and the virtual-time latency
                // histogram are outcome-derived (seeded virtual time),
                // so they live on the byte-identical side of the
                // determinism split alongside the batch counters.
                m.counter("engine.timeouts").add(outcome.stats.timeouts);
                m.counter("engine.retransmits").add(outcome.stats.retransmits);
                m.counter("engine.drops").add(outcome.stats.drops);
                m.counter("engine.ns_fallbacks").add(outcome.stats.ns_fallbacks);
                let vt = m.det_histogram("engine.vt_query_ms");
                for &(start, end) in &outcome.spans {
                    vt.record(end - start);
                }
                m.histogram("engine.queue_depth").record(distinct.len() as u64);
            }
            timing = Some(BatchTiming {
                started_ms: outcome.started_ms,
                finished_ms: outcome.finished_ms,
                max_in_flight: outcome.max_in_flight,
                stats: outcome.stats,
                per_query_ms: positions.iter().map(|&i| outcome.spans[i]).collect(),
            });
            for (slot, result) in outcome.results.into_iter().enumerate() {
                resolved[slot] = Some(result);
            }
        } else if threads == 1 {
            if let Some(m) = &self.metrics {
                m.histogram("engine.queue_depth").record(distinct.len() as u64);
            }
            for (slot, q) in resolved.iter_mut().zip(&distinct) {
                *slot = Some(timed_resolve(&self.resolver, q, query_us.as_deref()));
            }
        } else {
            // Zone-affinity partition: every query for one zone lands on
            // one worker (see the module docs). Each name is rendered
            // into one reused buffer and its delegated apex matched as a
            // borrowed suffix slice — no per-query key `String`. The
            // intern table hands each work item an `Arc<Query>` so pool
            // jobs own their queries without a per-batch deep copy.
            let mut buckets: Vec<Vec<(usize, Arc<Query>)>> = vec![Vec::new(); threads];
            {
                let mut interned = self.interned.lock();
                let registry = self.resolver.registry();
                let mut key_buf = String::new();
                for (i, q) in distinct.iter().enumerate() {
                    key_buf.clear();
                    q.name.write_key(&mut key_buf);
                    let apex = registry.authority_apex_of_key(&key_buf).unwrap_or(key_buf.as_str());
                    let bucket = (fnv1a(apex) % threads as u64) as usize;
                    let query = match interned.get(*q) {
                        Some(a) => Arc::clone(a),
                        None => {
                            let a = Arc::new((*q).clone());
                            interned.insert(Arc::clone(&a));
                            a
                        }
                    };
                    buckets[bucket].push((i, query));
                }
            }
            if let Some(m) = &self.metrics {
                let depth = m.histogram("engine.queue_depth");
                for bucket in buckets.iter().filter(|bucket| !bucket.is_empty()) {
                    depth.record(bucket.len() as u64);
                }
            }
            // Submit one job per non-empty bucket to its worker's FIFO
            // queue (empty hash-mod buckets get no job at all), then
            // collect chunks outside the pool lock. A worker that dies
            // mid-batch drops its result sender, which surfaces here as
            // a disconnect before every chunk arrived.
            let (results_tx, results_rx) =
                mpsc::channel::<Vec<(usize, Result<Resolution, ResolveError>)>>();
            let mut jobs = 0usize;
            {
                let mut pool = self.pool.lock();
                pool.ensure(threads);
                for (worker, bucket) in buckets.into_iter().enumerate() {
                    if bucket.is_empty() {
                        continue;
                    }
                    jobs += 1;
                    let resolver = Arc::clone(&self.resolver);
                    let query_us = query_us.clone();
                    let results = results_tx.clone();
                    pool.submit(
                        worker,
                        Box::new(move || {
                            let mut chunk = Vec::with_capacity(bucket.len());
                            for (slot, q) in &bucket {
                                chunk.push((
                                    *slot,
                                    timed_resolve(&resolver, q, query_us.as_deref()),
                                ));
                            }
                            let _ = results.send(chunk);
                        }),
                    );
                }
            }
            drop(results_tx);
            for _ in 0..jobs {
                let chunk = results_rx.recv().unwrap_or_else(|_| panic!("batch worker panicked"));
                for (i, result) in chunk {
                    resolved[i] = Some(result);
                }
            }
        }

        if let Some(metrics) = &self.metrics {
            self.record_batch_outcomes(metrics, queries.len(), &resolved);
            if let Some(start) = batch_start {
                metrics.histogram("engine.batch_us").record_duration(start.elapsed());
            }
            if let Some(before) = datagrams_before {
                // Approximate under concurrently batching engines on one
                // shared network; exact for the (sequential) campaigns.
                let sent = self.network().stats().datagrams_sent.saturating_sub(before);
                metrics.histogram("engine.authority_datagrams").record(sent);
            }
        }

        // Hand each resolution to its consumers, cloning only for true
        // duplicates: the common all-distinct batch moves every result.
        let mut remaining = vec![0usize; resolved.len()];
        for &idx in &positions {
            remaining[idx] += 1;
        }
        let results = positions
            .into_iter()
            .map(|idx| {
                remaining[idx] -= 1;
                let slot = &mut resolved[idx];
                if remaining[idx] == 0 { slot.take() } else { slot.clone() }
                    .expect("every distinct query resolved")
            })
            .collect();
        (results, timing)
    }

    /// Record the deterministic counter class for one finished batch.
    /// Everything here is derived from the batch's *outcomes* — input
    /// size, dedup shape, and per-distinct-query results — all of which
    /// the determinism contract makes thread-count-invariant, so the
    /// registry's counter snapshot is too (pinned by the determinism
    /// suite).
    fn record_batch_outcomes(
        &self,
        metrics: &MetricsRegistry,
        inputs: usize,
        resolved: &[Option<Result<Resolution, ResolveError>>],
    ) {
        metrics.counter("engine.batches").inc();
        metrics.counter("engine.queries").add(inputs as u64);
        metrics.counter("engine.distinct").add(resolved.len() as u64);
        metrics.counter("engine.coalesced").add((inputs - resolved.len()) as u64);
        let (mut from_cache, mut positive, mut negative, mut failures) = (0u64, 0u64, 0u64, 0u64);
        for result in resolved.iter().flatten() {
            match result {
                Ok(res) => {
                    if res.from_cache {
                        from_cache += 1;
                    }
                    if res.is_positive() {
                        positive += 1;
                    } else {
                        negative += 1;
                    }
                }
                Err(_) => failures += 1,
            }
        }
        metrics.counter("engine.from_cache").add(from_cache);
        metrics.counter("engine.answers_positive").add(positive);
        metrics.counter("engine.answers_negative").add(negative);
        metrics.counter("engine.failures").add(failures);
    }
}

/// Resolve one distinct query, recording its wall-clock latency when a
/// histogram is attached (the observational class: never compared for
/// determinism).
fn timed_resolve(
    resolver: &RecursiveResolver,
    q: &Query,
    latency: Option<&telemetry::Histogram>,
) -> Result<Resolution, ResolveError> {
    match latency {
        Some(hist) => {
            let start = Instant::now();
            let result = resolver.resolve(&q.name, q.rtype);
            hist.record_duration(start.elapsed());
            result
        }
        None => resolver.resolve(&q.name, q.rtype),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_eq_and_hash_fold_case() {
        // Dedup now keys maps on borrowed `&Query`, so the case-folding
        // the old `(String, u16)` key provided must live in `Eq`/`Hash`.
        let a = Query::new(DnsName::parse("A.Example").unwrap(), RecordType::Https);
        let b = Query::new(DnsName::parse("a.example").unwrap(), RecordType::Https);
        assert_eq!(a, b);
        let mut dedup: HashMap<&Query, usize> = HashMap::new();
        dedup.insert(&a, 0);
        assert_eq!(dedup.get(&b), Some(&0));
        let c = Query::new(DnsName::parse("a.example").unwrap(), RecordType::A);
        assert_ne!(a, c);
        assert!(!dedup.contains_key(&c));
    }
}
