//! The simulated internet: endpoints keyed by `(IpAddr, port)`, a
//! datagram service abstraction (DNS), a connection service abstraction
//! (TLS/HTTP), per-IP reachability control, and traffic accounting.
//!
//! Everything is synchronous and deterministic: a "packet" is a method
//! call. Components hold an [`Network`] handle (cheaply clonable) and
//! address each other by IP, exactly as the paper's testbed components
//! address each other over AWS.

use crate::clock::{SimClock, TimeMs, Timestamp};
use crate::latency::{LinkFate, LinkModel};
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Errors surfaced by simulated network operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// No route to the host (the §4.3.5 "unreachable network" case).
    Unreachable(IpAddr),
    /// Host reachable but nothing listens on the port.
    ConnectionRefused(IpAddr, u16),
    /// The peer accepted and then failed the exchange.
    Reset,
    /// The query was dropped (simulated loss/timeout).
    Timeout,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Unreachable(ip) => write!(f, "network unreachable: {ip}"),
            NetError::ConnectionRefused(ip, port) => write!(f, "connection refused: {ip}:{port}"),
            NetError::Reset => write!(f, "connection reset by peer"),
            NetError::Timeout => write!(f, "timed out"),
        }
    }
}

impl std::error::Error for NetError {}

/// A datagram (DNS-shaped) service bound to an address.
pub trait DatagramService: Send + Sync {
    /// Handle one request datagram, producing a response datagram.
    fn handle(&self, request: &[u8], now: Timestamp) -> Result<Vec<u8>, NetError>;
}

/// A byte-oriented connection handler (TLS-shaped): the caller opens a
/// session and exchanges discrete application messages.
pub trait StreamService: Send + Sync {
    /// Handle one application message within a fresh session, returning
    /// the peer's reply. Session state for the simulated TLS handshake is
    /// carried inside the message types of higher layers.
    fn exchange(&self, message: &[u8], now: Timestamp) -> Result<Vec<u8>, NetError>;
}

/// Services bound by `(IpAddr, port)`.
type Bindings<S> = HashMap<(IpAddr, u16), Arc<S>>;

#[derive(Default)]
struct NetworkState {
    datagram: Bindings<dyn DatagramService>,
    stream: Bindings<dyn StreamService>,
    unreachable: HashSet<IpAddr>,
}

/// Lock-free traffic counters: sends are the hottest path in a batched
/// scan, and counting through the topology `RwLock` would serialize
/// every parallel worker on a write lock just to bump a statistic.
#[derive(Default)]
struct TrafficCounters {
    datagrams_sent: AtomicU64,
    datagrams_answered: AtomicU64,
    datagrams_dropped: AtomicU64,
    streams_opened: AtomicU64,
    streams_completed: AtomicU64,
    connect_failures: AtomicU64,
}

impl TrafficCounters {
    fn snapshot(&self) -> TrafficStats {
        TrafficStats {
            datagrams_sent: self.datagrams_sent.load(Ordering::Relaxed),
            datagrams_answered: self.datagrams_answered.load(Ordering::Relaxed),
            datagrams_dropped: self.datagrams_dropped.load(Ordering::Relaxed),
            streams_opened: self.streams_opened.load(Ordering::Relaxed),
            streams_completed: self.streams_completed.load(Ordering::Relaxed),
            connect_failures: self.connect_failures.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.datagrams_sent.store(0, Ordering::Relaxed);
        self.datagrams_answered.store(0, Ordering::Relaxed);
        self.datagrams_dropped.store(0, Ordering::Relaxed);
        self.streams_opened.store(0, Ordering::Relaxed);
        self.streams_completed.store(0, Ordering::Relaxed);
        self.connect_failures.store(0, Ordering::Relaxed);
    }
}

/// Counters of simulated traffic, for benches and pacing assertions
/// (the paper's ethics section commits to a controlled scan pace; our
/// scanner asserts its per-target budget using these counters).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TrafficStats {
    /// Datagram requests attempted.
    pub datagrams_sent: u64,
    /// Datagram requests that produced a response.
    pub datagrams_answered: u64,
    /// Datagram exchanges lost in flight by the link model (scheduled
    /// path only; the synchronous path never drops).
    pub datagrams_dropped: u64,
    /// Stream exchanges attempted.
    pub streams_opened: u64,
    /// Stream exchanges that succeeded.
    pub streams_completed: u64,
    /// Attempts that failed with unreachable/refused.
    pub connect_failures: u64,
}

/// The outcome of a scheduled (virtual-time) datagram send: the network
/// decides everything at send time, but the reply only becomes *visible*
/// to the caller at the delivery instant — the caller's event loop owns
/// the timer queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduledDelivery {
    /// The exchange succeeds; `bytes` arrive at virtual time `at`.
    Reply {
        /// Virtual delivery instant (send time + round-trip draw).
        at: TimeMs,
        /// The response datagram.
        bytes: Vec<u8>,
    },
    /// The request or reply was lost; nothing will ever arrive.
    Dropped,
    /// Immediate failure (unreachable, refused, or the service errored).
    Failed(NetError),
}

/// Handle to the shared simulated network.
#[derive(Clone)]
pub struct Network {
    state: Arc<RwLock<NetworkState>>,
    stats: Arc<TrafficCounters>,
    latency: Arc<RwLock<Arc<LinkModel>>>,
    clock: SimClock,
}

impl Network {
    /// Create an empty network driven by `clock`.
    pub fn new(clock: SimClock) -> Self {
        Network {
            state: Arc::new(RwLock::new(NetworkState::default())),
            stats: Arc::new(TrafficCounters::default()),
            latency: Arc::new(RwLock::new(Arc::new(LinkModel::zero()))),
            clock,
        }
    }

    /// Install a latency/loss model. Only the scheduled datagram path
    /// consults it; [`send_datagram`](Self::send_datagram) stays
    /// synchronous and lossless regardless.
    pub fn set_latency_model(&self, model: LinkModel) {
        *self.latency.write() = Arc::new(model);
    }

    /// The currently installed latency/loss model.
    pub fn latency_model(&self) -> Arc<LinkModel> {
        Arc::clone(&self.latency.read())
    }

    /// The clock driving this network.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Bind a datagram service (e.g. a DNS server) to `ip:port`,
    /// replacing any previous binding.
    pub fn bind_datagram(&self, ip: IpAddr, port: u16, svc: Arc<dyn DatagramService>) {
        self.state.write().datagram.insert((ip, port), svc);
    }

    /// Bind a stream service (e.g. a web server) to `ip:port`.
    pub fn bind_stream(&self, ip: IpAddr, port: u16, svc: Arc<dyn StreamService>) {
        self.state.write().stream.insert((ip, port), svc);
    }

    /// Remove a datagram binding.
    pub fn unbind_datagram(&self, ip: IpAddr, port: u16) {
        self.state.write().datagram.remove(&(ip, port));
    }

    /// Remove a stream binding.
    pub fn unbind_stream(&self, ip: IpAddr, port: u16) {
        self.state.write().stream.remove(&(ip, port));
    }

    /// Mark an IP as unreachable (blackhole). Used by the §4.3.5
    /// connectivity experiments.
    pub fn set_unreachable(&self, ip: IpAddr) {
        self.state.write().unreachable.insert(ip);
    }

    /// Restore reachability of an IP.
    pub fn set_reachable(&self, ip: IpAddr) {
        self.state.write().unreachable.remove(&ip);
    }

    /// Whether an IP is currently blackholed.
    pub fn is_unreachable(&self, ip: IpAddr) -> bool {
        self.state.read().unreachable.contains(&ip)
    }

    /// The service bound at `dst:port` in the `bindings` table, under a
    /// read lock. A blackholed IP or an unbound port counts one connect
    /// failure and yields its error.
    fn endpoint<S: ?Sized>(
        &self,
        dst: IpAddr,
        port: u16,
        bindings: fn(&NetworkState) -> &Bindings<S>,
    ) -> Result<Arc<S>, NetError> {
        let st = self.state.read();
        let found = if st.unreachable.contains(&dst) {
            Err(NetError::Unreachable(dst))
        } else {
            bindings(&st).get(&(dst, port)).cloned().ok_or(NetError::ConnectionRefused(dst, port))
        };
        if found.is_err() {
            self.stats.connect_failures.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Send one datagram and wait for the response. Only takes a read
    /// lock on the topology, so parallel senders do not serialize.
    pub fn send_datagram(
        &self,
        dst: IpAddr,
        port: u16,
        payload: &[u8],
    ) -> Result<Vec<u8>, NetError> {
        self.stats.datagrams_sent.fetch_add(1, Ordering::Relaxed);
        let svc = self.endpoint(dst, port, |st| &st.datagram)?;
        let now = self.clock.now();
        let resp = svc.handle(payload, now)?;
        self.stats.datagrams_answered.fetch_add(1, Ordering::Relaxed);
        Ok(resp)
    }

    /// Send one datagram through the installed [`LinkModel`], returning
    /// *when* (in virtual time) the reply arrives rather than blocking.
    ///
    /// Because simulated services are pure synchronous functions, the
    /// response can be computed eagerly and merely time-stamped for
    /// delivery; the caller (the event-loop resolution backend) must not
    /// look at the bytes before advancing its clock to `at`. `attempt`
    /// distinguishes retransmissions of the same payload so each one
    /// re-draws fate and RTT.
    pub fn send_datagram_scheduled(
        &self,
        dst: IpAddr,
        port: u16,
        payload: &[u8],
        attempt: u32,
    ) -> ScheduledDelivery {
        self.stats.datagrams_sent.fetch_add(1, Ordering::Relaxed);
        let svc = match self.endpoint(dst, port, |st| &st.datagram) {
            Ok(svc) => svc,
            Err(e) => return ScheduledDelivery::Failed(e),
        };
        let model = self.latency_model();
        match model.fate(dst, payload, attempt) {
            LinkFate::Drop => {
                self.stats.datagrams_dropped.fetch_add(1, Ordering::Relaxed);
                ScheduledDelivery::Dropped
            }
            LinkFate::Deliver { rtt_ms } => {
                let now = self.clock.now();
                match svc.handle(payload, now) {
                    Ok(bytes) => {
                        self.stats.datagrams_answered.fetch_add(1, Ordering::Relaxed);
                        ScheduledDelivery::Reply { at: self.clock.now_ms().plus(rtt_ms), bytes }
                    }
                    Err(e) => ScheduledDelivery::Failed(e),
                }
            }
        }
    }

    /// Open a stream to `dst:port` and perform one message exchange.
    pub fn stream_exchange(
        &self,
        dst: IpAddr,
        port: u16,
        message: &[u8],
    ) -> Result<Vec<u8>, NetError> {
        self.stats.streams_opened.fetch_add(1, Ordering::Relaxed);
        let svc = self.endpoint(dst, port, |st| &st.stream)?;
        let now = self.clock.now();
        let resp = svc.exchange(message, now)?;
        self.stats.streams_completed.fetch_add(1, Ordering::Relaxed);
        Ok(resp)
    }

    /// Probe TCP-style reachability of `dst:port` without sending data.
    pub fn can_connect(&self, dst: IpAddr, port: u16) -> Result<(), NetError> {
        let st = self.state.read();
        if st.unreachable.contains(&dst) {
            return Err(NetError::Unreachable(dst));
        }
        if st.stream.contains_key(&(dst, port)) || st.datagram.contains_key(&(dst, port)) {
            Ok(())
        } else {
            Err(NetError::ConnectionRefused(dst, port))
        }
    }

    /// Snapshot of traffic counters.
    pub fn stats(&self) -> TrafficStats {
        self.stats.snapshot()
    }

    /// Reset traffic counters (between bench iterations).
    pub fn reset_stats(&self) {
        self.stats.reset();
    }
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.read();
        f.debug_struct("Network")
            .field("datagram_bindings", &st.datagram.len())
            .field("stream_bindings", &st.stream.len())
            .field("unreachable", &st.unreachable.len())
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl DatagramService for Echo {
        fn handle(&self, request: &[u8], _now: Timestamp) -> Result<Vec<u8>, NetError> {
            let mut v = request.to_vec();
            v.reverse();
            Ok(v)
        }
    }
    impl StreamService for Echo {
        fn exchange(&self, message: &[u8], _now: Timestamp) -> Result<Vec<u8>, NetError> {
            Ok(message.to_vec())
        }
    }

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    #[test]
    fn datagram_round_trip() {
        let net = Network::new(SimClock::new());
        net.bind_datagram(ip("10.0.0.1"), 53, Arc::new(Echo));
        let resp = net.send_datagram(ip("10.0.0.1"), 53, b"abc").unwrap();
        assert_eq!(resp, b"cba");
        assert_eq!(net.stats().datagrams_sent, 1);
        assert_eq!(net.stats().datagrams_answered, 1);
    }

    #[test]
    fn refused_when_no_listener() {
        let net = Network::new(SimClock::new());
        let err = net.send_datagram(ip("10.0.0.1"), 53, b"x").unwrap_err();
        assert_eq!(err, NetError::ConnectionRefused(ip("10.0.0.1"), 53));
        assert_eq!(net.stats().connect_failures, 1);
    }

    #[test]
    fn unreachable_blackhole_and_restore() {
        let net = Network::new(SimClock::new());
        net.bind_stream(ip("1.2.3.4"), 443, Arc::new(Echo));
        net.set_unreachable(ip("1.2.3.4"));
        assert!(matches!(
            net.stream_exchange(ip("1.2.3.4"), 443, b"hello"),
            Err(NetError::Unreachable(_))
        ));
        assert!(net.can_connect(ip("1.2.3.4"), 443).is_err());
        net.set_reachable(ip("1.2.3.4"));
        assert_eq!(net.stream_exchange(ip("1.2.3.4"), 443, b"hello").unwrap(), b"hello");
        assert!(net.can_connect(ip("1.2.3.4"), 443).is_ok());
    }

    #[test]
    fn ports_are_distinct() {
        let net = Network::new(SimClock::new());
        net.bind_stream(ip("1.1.1.1"), 443, Arc::new(Echo));
        assert!(net.stream_exchange(ip("1.1.1.1"), 8443, b"x").is_err());
        assert!(net.stream_exchange(ip("1.1.1.1"), 443, b"x").is_ok());
    }

    #[test]
    fn unbind_removes_service() {
        let net = Network::new(SimClock::new());
        net.bind_datagram(ip("9.9.9.9"), 53, Arc::new(Echo));
        net.unbind_datagram(ip("9.9.9.9"), 53);
        assert!(net.send_datagram(ip("9.9.9.9"), 53, b"x").is_err());
    }

    #[test]
    fn clock_shared_with_network() {
        let clock = SimClock::new();
        let net = Network::new(clock.clone());
        clock.advance(42);
        assert_eq!(net.clock().now(), Timestamp(42));
    }

    #[test]
    fn scheduled_send_with_zero_model_matches_sync_path() {
        let net = Network::new(SimClock::new());
        net.bind_datagram(ip("10.0.0.1"), 53, Arc::new(Echo));
        let sched = net.send_datagram_scheduled(ip("10.0.0.1"), 53, b"abc", 0);
        assert_eq!(sched, ScheduledDelivery::Reply { at: TimeMs(0), bytes: b"cba".to_vec() });
        assert_eq!(
            net.send_datagram_scheduled(ip("10.0.0.2"), 53, b"abc", 0),
            ScheduledDelivery::Failed(NetError::ConnectionRefused(ip("10.0.0.2"), 53))
        );
        let stats = net.stats();
        assert_eq!(stats.datagrams_sent, 2);
        assert_eq!(stats.datagrams_answered, 1);
        assert_eq!(stats.datagrams_dropped, 0);
        assert_eq!(stats.connect_failures, 1);
    }

    #[test]
    fn scheduled_send_applies_latency_and_loss() {
        let clock = SimClock::new();
        clock.advance_ms(500);
        let net = Network::new(clock);
        net.bind_datagram(ip("10.0.0.1"), 53, Arc::new(Echo));
        net.bind_datagram(ip("10.0.0.7"), 53, Arc::new(Echo));
        net.set_latency_model(LinkModel::new(9).with_rtt_ms(20).with_lame_endpoint(ip("10.0.0.7")));
        match net.send_datagram_scheduled(ip("10.0.0.1"), 53, b"abc", 0) {
            ScheduledDelivery::Reply { at, bytes } => {
                assert_eq!(at, TimeMs(520), "delivery = send instant + RTT");
                assert_eq!(bytes, b"cba");
            }
            other => panic!("expected a scheduled reply, got {other:?}"),
        }
        assert_eq!(
            net.send_datagram_scheduled(ip("10.0.0.7"), 53, b"abc", 0),
            ScheduledDelivery::Dropped
        );
        assert_eq!(net.stats().datagrams_dropped, 1);
        // The synchronous path ignores the model entirely: the lame
        // endpoint still answers instantly there.
        assert_eq!(net.send_datagram(ip("10.0.0.7"), 53, b"abc").unwrap(), b"cba");
    }
}
