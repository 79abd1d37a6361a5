//! The threaded node runtime: a real UDP socket driving one [`StableNode`].
//!
//! Two threads run the protocol loop the engine documentation describes:
//!
//! * the **socket thread** receives datagrams, answers incoming
//!   [`ProbeRequest`]s from the engine with [`StableNode::respond_into`]
//!   (into one response it reuses), and stamps incoming responses with the
//!   measured round trip (the [`Instant`] the probe left, kept per
//!   outstanding probe) before handing them to
//!   [`StableNode::handle_response_into`];
//! * the **tick thread** walks a [`TimerWheel`] that fires the recurring
//!   deadlines — send the next round-robin probe, sweep the pending table
//!   through [`StableNode::expire_pending_into`], print a stats line.
//!
//! The engine itself lives behind one mutex; both threads take it briefly
//! per datagram/tick, which at probing rates (tens of probes per second per
//! node) is nowhere near contention.
//!
//! Shutdown is graceful: [`NodeRuntime::shutdown`] parks both threads,
//! persists the engine's [`NodeSnapshot`] when a snapshot path is
//! configured, and returns the snapshot. Starting a runtime with the same
//! path restores the node — coordinate, filter windows, membership, probe
//! schedule — and the node rejoins the overlay where it left off.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nc_proto::{BinaryMessage, Event, NodeSnapshot, Packet, ProbeRequest, ProbeResponse};
use nc_query::{CoordinateIndex, QueryConfig, QueryHandle, QueryPublisher};
use nc_vivaldi::Coordinate;
use stable_nc::{NodeConfig, StableNode};

use crate::clock::MonoClock;
use crate::persist::{load_snapshot, save_snapshot};
use crate::wheel::TimerWheel;

/// How a [`NodeRuntime`] drives its engine.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// The engine configuration (filter, heuristic, Vivaldi constants).
    pub node: NodeConfig,
    /// Peers probed from the start (the overlay's bootstrap addresses).
    pub seeds: Vec<SocketAddr>,
    /// The address this node advertises as its identity — the address peers
    /// can reach it at. Defaults to the socket's local address; must be
    /// overridden when the node is reachable through a proxy or NAT (the
    /// loopback harness does exactly this).
    pub advertised_addr: Option<SocketAddr>,
    /// Milliseconds between outgoing probes (one peer per probe,
    /// round-robin).
    pub probe_interval_ms: u64,
    /// Milliseconds after which an unanswered probe is declared lost.
    pub probe_timeout_ms: u64,
    /// Milliseconds between stats lines on stdout; `0` disables them.
    pub stats_interval_ms: u64,
    /// When set, the engine snapshot is loaded from this file at start (if
    /// it exists) and written back on shutdown.
    pub snapshot_path: Option<PathBuf>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            node: NodeConfig::paper_defaults(),
            seeds: Vec::new(),
            advertised_addr: None,
            probe_interval_ms: 500,
            probe_timeout_ms: 2_000,
            stats_interval_ms: 0,
            snapshot_path: None,
        }
    }
}

/// Counters the runtime maintains; every field is cumulative since start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Probes sent.
    pub probes_sent: u64,
    /// Probe responses received (correlated or not).
    pub responses_received: u64,
    /// Responses the engine dropped as uncorrelated — late arrivals after
    /// their timeout, duplicated datagrams, unsolicited replies.
    pub responses_ignored: u64,
    /// Incoming probes answered.
    pub requests_answered: u64,
    /// Probes that expired without a reply.
    pub probes_lost: u64,
    /// Peers evicted after consecutive losses.
    pub neighbors_evicted: u64,
    /// Datagrams that failed to decode.
    pub malformed_datagrams: u64,
}

#[derive(Default)]
struct AtomicStats {
    probes_sent: AtomicU64,
    responses_received: AtomicU64,
    responses_ignored: AtomicU64,
    requests_answered: AtomicU64,
    probes_lost: AtomicU64,
    neighbors_evicted: AtomicU64,
    malformed_datagrams: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> RuntimeStats {
        RuntimeStats {
            probes_sent: self.probes_sent.load(Ordering::Relaxed),
            responses_received: self.responses_received.load(Ordering::Relaxed),
            responses_ignored: self.responses_ignored.load(Ordering::Relaxed),
            requests_answered: self.requests_answered.load(Ordering::Relaxed),
            probes_lost: self.probes_lost.load(Ordering::Relaxed),
            neighbors_evicted: self.neighbors_evicted.load(Ordering::Relaxed),
            malformed_datagrams: self.malformed_datagrams.load(Ordering::Relaxed),
        }
    }
}

/// The engine plus the per-probe departure instants used for RTT stamping.
struct EngineCore {
    node: StableNode<SocketAddr>,
    /// `(peer, seq)` → the instant the probe left. Entries are removed when
    /// the reply arrives or the probe expires; an entry with no match left
    /// means the reply will be uncorrelated anyway.
    departures: HashMap<(SocketAddr, u64), Instant>,
}

struct Shared {
    engine: Mutex<EngineCore>,
    stats: AtomicStats,
    shutdown: AtomicBool,
    clock: MonoClock,
    config: RuntimeConfig,
    local_addr: SocketAddr,
    advertised: SocketAddr,
    /// Publisher side of the coordinate query snapshots: rebuilt from the
    /// engine's [`stable_nc::NodeView`] whenever the application coordinate
    /// moves (and on the expire tick, so peer refreshes flow too), consumed
    /// lock-free through [`NodeRuntime::query_handle`].
    query: QueryPublisher<SocketAddr>,
}

/// A running UDP coordinate node. See the [module docs](self).
pub struct NodeRuntime {
    shared: Arc<Shared>,
    socket: UdpSocket,
    threads: Vec<JoinHandle<()>>,
}

impl NodeRuntime {
    /// Binds a fresh socket on `bind` and starts the runtime on it.
    pub fn bind(bind: SocketAddr, config: RuntimeConfig) -> io::Result<Self> {
        Self::start(UdpSocket::bind(bind)?, config)
    }

    /// Starts the runtime on an already-bound socket.
    ///
    /// When `config.snapshot_path` names an existing file, the engine is
    /// restored from it: the node keeps its coordinate and membership, and
    /// the probes that were in flight at snapshot time are expired as lost
    /// (their replies, if they ever arrive, are ignored as uncorrelated).
    pub fn start(socket: UdpSocket, config: RuntimeConfig) -> io::Result<Self> {
        let local_addr = socket.local_addr()?;
        let advertised = config.advertised_addr.unwrap_or(local_addr);

        let mut node = match &config.snapshot_path {
            Some(path) if path.exists() => {
                let snapshot = load_snapshot(path)?;
                StableNode::restore(config.node.clone(), &snapshot)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
            }
            _ => StableNode::new(config.node.clone()),
        };
        node.set_identity(advertised);
        // In-flight probes from a previous life can never be answered on
        // this one's clock; expire them before the first tick.
        let mut stale = Vec::new();
        node.expire_pending_into(u64::MAX, 0, &mut stale);
        for seed in &config.seeds {
            if *seed != advertised {
                node.seed_neighbor(*seed);
            }
        }

        let query = QueryPublisher::new(
            empty_query_index(&config)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?,
        );
        let shared = Arc::new(Shared {
            engine: Mutex::new(EngineCore {
                node,
                departures: HashMap::new(),
            }),
            stats: AtomicStats::default(),
            shutdown: AtomicBool::new(false),
            clock: MonoClock::new(),
            config,
            local_addr,
            advertised,
            query,
        });
        // A restored node already owns a coordinate; make it queryable
        // before the first exchange.
        publish_query_snapshot(&shared);

        let mut threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            let socket = socket.try_clone()?;
            socket.set_read_timeout(Some(Duration::from_millis(20)))?;
            threads.push(
                std::thread::Builder::new()
                    .name("nc-socket".into())
                    .spawn(move || socket_loop(&shared, &socket))?,
            );
        }
        {
            let shared = Arc::clone(&shared);
            let socket = socket.try_clone()?;
            threads.push(
                std::thread::Builder::new()
                    .name("nc-tick".into())
                    .spawn(move || tick_loop(&shared, &socket))?,
            );
        }

        Ok(NodeRuntime {
            shared,
            socket,
            threads,
        })
    }

    /// The socket's actual local address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The identity this node advertises to peers.
    pub fn advertised_addr(&self) -> SocketAddr {
        self.shared.advertised
    }

    /// A snapshot of the runtime counters.
    pub fn stats(&self) -> RuntimeStats {
        self.shared.stats.snapshot()
    }

    /// The engine's current system-level coordinate and error estimate.
    pub fn coordinate(&self) -> (Coordinate, f64) {
        let engine = self.shared.engine.lock().expect("engine lock");
        (
            engine.node.system_coordinate().clone(),
            engine.node.error_estimate(),
        )
    }

    /// Number of peers currently in the probe schedule.
    pub fn membership_len(&self) -> usize {
        self.view().membership.len()
    }

    /// A read-only snapshot of the engine's externally observable state.
    pub fn view(&self) -> stable_nc::NodeView<SocketAddr> {
        let engine = self.shared.engine.lock().expect("engine lock");
        engine.node.view()
    }

    /// One human-readable status line (what the stats tick prints).
    pub fn stats_line(&self) -> String {
        runtime_stats_line(&self.shared)
    }

    /// A cheap, cloneable handle onto this node's coordinate query
    /// snapshots. Each [`QueryHandle::snapshot`] call returns an immutable
    /// [`CoordinateIndex`] over the node's own application coordinate and
    /// every peer coordinate it has heard, refreshed by the runtime's
    /// threads — answering k-nearest or closest-replica queries from it
    /// never takes the engine lock.
    pub fn query_handle(&self) -> QueryHandle<SocketAddr> {
        self.shared.query.handle()
    }

    /// Stops both threads, persists the snapshot when configured, and
    /// returns the engine's final state.
    pub fn shutdown(mut self) -> io::Result<NodeSnapshot<SocketAddr>> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        let snapshot = {
            let engine = self.shared.engine.lock().expect("engine lock");
            engine.node.snapshot()
        };
        if let Some(path) = &self.shared.config.snapshot_path {
            save_snapshot(path, &snapshot)?;
        }
        drop(self.socket);
        Ok(snapshot)
    }
}

/// Builds an empty query index sized to the runtime's coordinate space.
fn empty_query_index(
    config: &RuntimeConfig,
) -> Result<CoordinateIndex<SocketAddr>, nc_query::QueryError> {
    CoordinateIndex::new(QueryConfig {
        dimensions: config.node.vivaldi.dimensions(),
        ..QueryConfig::default()
    })
}

/// Rebuilds the published query snapshot from the engine's current view.
/// Rebuilding (rather than mutating a shared index) keeps reader snapshots
/// immutable; the population is one node's membership, so the cost is
/// trivial next to a datagram digest.
fn publish_query_snapshot(shared: &Shared) {
    let view = {
        let engine = shared.engine.lock().expect("engine lock");
        engine.node.view()
    };
    let Ok(mut index) = empty_query_index(&shared.config) else {
        return;
    };
    // The engine's view only holds validated coordinates of its own
    // dimensionality, so absorbing it cannot fail.
    let _ = index.absorb_view(Some(&shared.advertised), &view);
    shared.query.publish(index);
}

fn socket_loop(shared: &Shared, socket: &UdpSocket) {
    let mut buffer = [0u8; 64 * 1024];
    let mut events: Vec<Event<SocketAddr>> = Vec::new();
    // Every probe is answered into this one response, which `respond_into`
    // overwrites field by field.
    let placeholder = ProbeRequest::new(shared.advertised, 0, 0);
    let origin = Coordinate::origin(shared.config.node.vivaldi.dimensions());
    let mut reply = ProbeResponse::new(shared.advertised, &placeholder, origin, 1.0);
    while !shared.shutdown.load(Ordering::Relaxed) {
        let (length, source) = match socket.recv_from(&mut buffer) {
            Ok(received) => received,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => continue,
        };
        match Packet::decode(&buffer[..length]) {
            Ok(Packet::Request(request)) => {
                let bytes = {
                    let mut engine = shared.engine.lock().expect("engine lock");
                    engine.node.respond_into(&request, &mut reply);
                    reply.encode_binary()
                };
                let _ = socket.send_to(&bytes, source);
                shared
                    .stats
                    .requests_answered
                    .fetch_add(1, Ordering::Relaxed);
            }
            Ok(Packet::Response(mut response)) => {
                let received_at = Instant::now();
                shared
                    .stats
                    .responses_received
                    .fetch_add(1, Ordering::Relaxed);
                let mut engine = shared.engine.lock().expect("engine lock");
                // Stamp the measured round trip from the probe's recorded
                // departure. A response with no departure entry (late after
                // its timeout, or a duplicate) gets a nominal stamp and is
                // rejected by the engine's correlation check anyway.
                let rtt_ms = match engine
                    .departures
                    .remove(&(response.responder, response.seq))
                {
                    Some(departure) => received_at.duration_since(departure).as_secs_f64() * 1e3,
                    None => shared.clock.now_ms().saturating_sub(response.sent_at_ms) as f64,
                };
                response.rtt_ms = rtt_ms.max(0.01);
                events.clear();
                engine.node.handle_response_into(&response, &mut events);
                drop(engine);
                // A published application coordinate is the one event class
                // query snapshots must not lag behind.
                if events
                    .iter()
                    .any(|event| matches!(event, Event::ApplicationUpdated { .. }))
                {
                    publish_query_snapshot(shared);
                }
                for event in &events {
                    match event {
                        Event::ResponseIgnored { .. } => {
                            shared
                                .stats
                                .responses_ignored
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        Event::NeighborEvicted { .. } => {
                            shared
                                .stats
                                .neighbors_evicted
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        _ => {}
                    }
                }
            }
            Err(_) => {
                shared
                    .stats
                    .malformed_datagrams
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// The recurring deadlines the tick thread serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tick {
    Probe,
    Expire,
    Stats,
}

fn tick_loop(shared: &Shared, socket: &UdpSocket) {
    let granularity_ms = 1;
    let mut wheel: TimerWheel<Tick> = TimerWheel::new(256, granularity_ms);
    let mut due: Vec<Tick> = Vec::new();
    let mut events: Vec<Event<SocketAddr>> = Vec::new();
    let expire_interval_ms = (shared.config.probe_timeout_ms / 4).max(granularity_ms);

    wheel.schedule(0, Tick::Probe);
    wheel.schedule(0, Tick::Expire);
    if shared.config.stats_interval_ms > 0 {
        wheel.schedule(shared.config.stats_interval_ms, Tick::Stats);
    }

    while !shared.shutdown.load(Ordering::Relaxed) {
        // Sleep until the next scheduled deadline instead of spinning at
        // wheel granularity: a daemon probing every 500 ms has no business
        // waking a thousand times a second. The 25 ms cap keeps shutdown
        // responsive.
        let sleep_ms = wheel
            .next_deadline_ms()
            .map(|deadline| deadline.saturating_sub(shared.clock.now_ms()))
            .unwrap_or(granularity_ms)
            .clamp(granularity_ms, 25);
        std::thread::sleep(Duration::from_millis(sleep_ms));
        let now_ms = shared.clock.now_ms();
        due.clear();
        wheel.advance(now_ms, &mut due);
        for tick in &due {
            match tick {
                Tick::Probe => {
                    let request = {
                        let mut engine = shared.engine.lock().expect("engine lock");
                        let request = engine.node.next_probe(now_ms);
                        if let Some(request) = &request {
                            engine
                                .departures
                                .insert((request.target, request.seq), Instant::now());
                        }
                        request
                    };
                    if let Some(request) = request {
                        let target = request.target;
                        let _ = socket.send_to(&request.encode_binary(), target);
                        shared.stats.probes_sent.fetch_add(1, Ordering::Relaxed);
                    }
                    wheel.schedule(now_ms + shared.config.probe_interval_ms, Tick::Probe);
                }
                Tick::Expire => {
                    events.clear();
                    {
                        let mut engine = shared.engine.lock().expect("engine lock");
                        let EngineCore { node, departures } = &mut *engine;
                        node.expire_pending_into(
                            now_ms,
                            shared.config.probe_timeout_ms,
                            &mut events,
                        );
                        for event in &events {
                            match event {
                                Event::ProbeLost { id, seq } => {
                                    departures.remove(&(*id, *seq));
                                }
                                // Eviction silently drops the peer's *other*
                                // in-flight probes from the pending table
                                // (no ProbeLost for them); purge their
                                // departure stamps too or a long-lived
                                // daemon leaks one entry per swallowed
                                // probe.
                                Event::NeighborEvicted { id } => {
                                    departures.retain(|(peer, _), _| peer != id);
                                }
                                _ => {}
                            }
                        }
                    }
                    for event in &events {
                        match event {
                            Event::ProbeLost { .. } => {
                                shared.stats.probes_lost.fetch_add(1, Ordering::Relaxed);
                            }
                            Event::NeighborEvicted { .. } => {
                                shared
                                    .stats
                                    .neighbors_evicted
                                    .fetch_add(1, Ordering::Relaxed);
                            }
                            _ => {}
                        }
                    }
                    // Peer coordinates refresh with every digested reply;
                    // republishing on the expire cadence keeps query
                    // snapshots current without an extra timer.
                    publish_query_snapshot(shared);
                    wheel.schedule(now_ms + expire_interval_ms, Tick::Expire);
                }
                Tick::Stats => {
                    println!("[{}] {}", shared.advertised, runtime_stats_line(shared));
                    wheel.schedule(now_ms + shared.config.stats_interval_ms, Tick::Stats);
                }
            }
        }
    }
}

/// Builds the status line from shared state (the tick thread has no
/// `NodeRuntime` handle).
fn runtime_stats_line(shared: &Shared) -> String {
    let view = {
        let engine = shared.engine.lock().expect("engine lock");
        engine.node.view()
    };
    let stats = shared.stats.snapshot();
    let elapsed = shared.clock.now_ms() as f64 / 1e3;
    let components: Vec<String> = view
        .system
        .components()
        .iter()
        .map(|c| format!("{c:.1}"))
        .collect();
    format!(
        "t={elapsed:.1}s coord=[{}] h={:.1} err={:.3} peers={} sent={} recv={} answered={} ignored={} lost={} evicted={}",
        components.join(","),
        view.system.height(),
        view.error_estimate,
        view.membership.len(),
        stats.probes_sent,
        stats.responses_received,
        stats.requests_answered,
        stats.responses_ignored,
        stats.probes_lost,
        stats.neighbors_evicted,
    )
}
