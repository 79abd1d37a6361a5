//! A delay-injecting loopback harness: real UDP sockets, emulated network.
//!
//! Loopback delivers datagrams in microseconds, loses nothing and never
//! reorders — none of which is true of the networks the paper deployed on.
//! The harness puts an emulated network between real node runtimes without
//! touching their code: every node is known to its peers by a **public
//! address** owned by the harness, and the harness relays each datagram to
//! the node's real socket after holding it for the link's one-way delay,
//! dropping it with the link's loss probability, or delivering it twice.
//! Jitter makes closely spaced datagrams overtake each other, so
//! reordering falls out for free.
//!
//! The address plumbing is the whole trick. For nodes `A` and `B` with real
//! sockets `Ra`/`Rb` and public sockets `Pa`/`Pb`:
//!
//! 1. `A` (advertising `Pa`, seeded with `Pb`) sends a probe from `Ra` to
//!    `Pb`;
//! 2. the harness receives it on `Pb` from `Ra`, holds it for the `A → B`
//!    one-way delay, then forwards it to `Rb` **from `Pa`** — so `B` sees a
//!    probe from `Pa`;
//! 3. `B` replies from `Rb` to `Pa`; the harness receives it on `Pa`,
//!    holds it for `B → A`, and forwards it to `Ra` from `Pb`.
//!
//! Every address any node ever sees is a public address, which is also what
//! each node advertises as its identity — so gossip spreads reachable
//! addresses and the engines' correlation logic works unchanged. Restarting
//! a node behind the same public address is just
//! [`DelayHarness::update_real_addr`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The emulated behaviour of one *directed* link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Base one-way delay applied to every datagram (milliseconds).
    pub one_way_delay_ms: f64,
    /// Uniform extra delay in `[0, jitter_ms)` drawn per datagram. Jitter
    /// larger than the spacing between datagrams reorders them.
    pub jitter_ms: f64,
    /// Probability a datagram is dropped outright.
    pub loss_probability: f64,
    /// Probability a datagram is delivered twice (the copy draws its own
    /// delay and jitter).
    pub duplicate_probability: f64,
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec {
            one_way_delay_ms: 1.0,
            jitter_ms: 0.0,
            loss_probability: 0.0,
            duplicate_probability: 0.0,
        }
    }
}

impl LinkSpec {
    /// A symmetric link whose round trip is `rtt_ms` (half each way).
    pub fn from_rtt(rtt_ms: f64) -> Self {
        LinkSpec {
            one_way_delay_ms: rtt_ms / 2.0,
            ..LinkSpec::default()
        }
    }

    /// Sets the per-datagram jitter bound.
    pub fn with_jitter(mut self, jitter_ms: f64) -> Self {
        self.jitter_ms = jitter_ms;
        self
    }

    /// Sets the loss probability.
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability in [0, 1]");
        self.loss_probability = p;
        self
    }

    /// Sets the duplication probability.
    pub fn with_duplication(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplication probability in [0, 1]"
        );
        self.duplicate_probability = p;
        self
    }
}

/// Builds a [`DelayHarness`]. See [`DelayHarness::builder`].
pub struct HarnessBuilder {
    node_count: usize,
    default_link: LinkSpec,
    links: HashMap<(usize, usize), LinkSpec>,
    seed: u64,
}

impl HarnessBuilder {
    /// Sets the link used for every pair without an explicit spec.
    pub fn default_link(mut self, spec: LinkSpec) -> Self {
        self.default_link = spec;
        self
    }

    /// Sets both directions of the `a ↔ b` link.
    pub fn link(mut self, a: usize, b: usize, spec: LinkSpec) -> Self {
        self.links.insert((a, b), spec);
        self.links.insert((b, a), spec);
        self
    }

    /// Seeds the harness's loss/jitter/duplication draws.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Binds one public socket per node on `127.0.0.1` and starts the relay
    /// threads. `real_addrs[i]` is node `i`'s real socket address (bind the
    /// node sockets first, start the runtimes after — the harness only
    /// needs the addresses).
    pub fn start(self, real_addrs: &[SocketAddr]) -> io::Result<DelayHarness> {
        assert_eq!(
            real_addrs.len(),
            self.node_count,
            "one real address per node"
        );
        let mut publics = Vec::with_capacity(self.node_count);
        for _ in 0..self.node_count {
            let socket = UdpSocket::bind("127.0.0.1:0")?;
            socket.set_read_timeout(Some(Duration::from_millis(20)))?;
            publics.push(socket);
        }
        let public_addrs: Vec<SocketAddr> = publics
            .iter()
            .map(|socket| socket.local_addr())
            .collect::<io::Result<_>>()?;

        let mut real_to_index = HashMap::new();
        for (index, addr) in real_addrs.iter().enumerate() {
            real_to_index.insert(*addr, index);
        }

        let shared = Arc::new(HarnessShared {
            queue: Mutex::new(BinaryHeap::new()),
            wakeup: Condvar::new(),
            routing: Mutex::new(Routing {
                real_addrs: real_addrs.to_vec(),
                real_to_index,
            }),
            rng: Mutex::new(StdRng::seed_from_u64(self.seed)),
            links: self.links,
            default_link: self.default_link,
            shutdown: AtomicBool::new(false),
            next_delivery: AtomicU64::new(0),
            forwarded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
        });

        let mut threads = Vec::new();
        for (index, socket) in publics.iter().enumerate() {
            let shared = Arc::clone(&shared);
            let socket = socket.try_clone()?;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("harness-recv-{index}"))
                    .spawn(move || receive_loop(&shared, &socket, index))?,
            );
        }
        {
            let shared = Arc::clone(&shared);
            let senders: Vec<UdpSocket> = publics
                .iter()
                .map(|socket| socket.try_clone())
                .collect::<io::Result<_>>()?;
            threads.push(
                std::thread::Builder::new()
                    .name("harness-dispatch".into())
                    .spawn(move || dispatch_loop(&shared, &senders))?,
            );
        }

        Ok(DelayHarness {
            shared,
            public_addrs,
            threads,
        })
    }
}

/// One datagram held by the harness until its delivery instant.
struct Delivery {
    due: Instant,
    /// FIFO tie-break so equal instants keep arrival order.
    sequence: u64,
    /// Node whose *public* socket the datagram leaves from.
    via: usize,
    /// The destination's real socket.
    to: SocketAddr,
    payload: Vec<u8>,
}

impl PartialEq for Delivery {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.sequence == other.sequence
    }
}
impl Eq for Delivery {}
impl PartialOrd for Delivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.sequence).cmp(&(other.due, other.sequence))
    }
}

struct Routing {
    real_addrs: Vec<SocketAddr>,
    real_to_index: HashMap<SocketAddr, usize>,
}

struct HarnessShared {
    queue: Mutex<BinaryHeap<Reverse<Delivery>>>,
    wakeup: Condvar,
    routing: Mutex<Routing>,
    rng: Mutex<StdRng>,
    links: HashMap<(usize, usize), LinkSpec>,
    default_link: LinkSpec,
    shutdown: AtomicBool,
    next_delivery: AtomicU64,
    forwarded: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
}

impl HarnessShared {
    fn link(&self, from: usize, to: usize) -> LinkSpec {
        self.links
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default_link)
    }
}

/// The running emulated network. Dropping it stops the relay threads.
pub struct DelayHarness {
    shared: Arc<HarnessShared>,
    public_addrs: Vec<SocketAddr>,
    threads: Vec<JoinHandle<()>>,
}

impl DelayHarness {
    /// Starts building a harness for `node_count` nodes.
    pub fn builder(node_count: usize) -> HarnessBuilder {
        HarnessBuilder {
            node_count,
            default_link: LinkSpec::default(),
            links: HashMap::new(),
            seed: 0,
        }
    }

    /// Node `i`'s public address — what peers (and `i` itself, as its
    /// advertised identity) should use.
    pub fn public_addr(&self, index: usize) -> SocketAddr {
        self.public_addrs[index]
    }

    /// The emulated round trip between two nodes: both directed one-way
    /// delays, jitter excluded.
    pub fn emulated_rtt_ms(&self, a: usize, b: usize) -> f64 {
        self.shared.link(a, b).one_way_delay_ms + self.shared.link(b, a).one_way_delay_ms
    }

    /// Points node `index`'s public address at a new real socket — how a
    /// restarted node (fresh socket, same identity) rejoins the emulated
    /// network.
    pub fn update_real_addr(&self, index: usize, addr: SocketAddr) {
        let mut routing = self.shared.routing.lock().expect("routing lock");
        let old = routing.real_addrs[index];
        routing.real_to_index.remove(&old);
        routing.real_addrs[index] = addr;
        routing.real_to_index.insert(addr, index);
    }

    /// Datagrams forwarded (original deliveries plus duplicates).
    pub fn forwarded(&self) -> u64 {
        self.shared.forwarded.load(Ordering::Relaxed)
    }

    /// Datagrams dropped by the loss draw.
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Datagrams the duplication draw scheduled twice.
    pub fn duplicated(&self) -> u64 {
        self.shared.duplicated.load(Ordering::Relaxed)
    }
}

impl Drop for DelayHarness {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wakeup.notify_all();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Receives on node `to`'s public socket and schedules deliveries.
fn receive_loop(shared: &HarnessShared, socket: &UdpSocket, to: usize) {
    let mut buffer = [0u8; 64 * 1024];
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
        let (from, to_real) = {
            let routing = shared.routing.lock().expect("routing lock");
            match routing.real_to_index.get(&source) {
                // A datagram from an unknown real socket has no link to
                // emulate (a stale socket of a killed node, or a stray
                // process); drop it like a network with no route would.
                None => {
                    shared.dropped.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                Some(&from) => (from, routing.real_addrs[to]),
            }
        };
        let spec = shared.link(from, to);
        let (lost, delays) = {
            let mut rng = shared.rng.lock().expect("rng lock");
            let lost = spec.loss_probability > 0.0 && rng.gen_bool(spec.loss_probability);
            let mut delays = [0.0f64; 2];
            let mut count = 0;
            if !lost {
                delays[count] = draw_delay(&mut rng, &spec);
                count += 1;
                if spec.duplicate_probability > 0.0 && rng.gen_bool(spec.duplicate_probability) {
                    delays[count] = draw_delay(&mut rng, &spec);
                    count += 1;
                }
            }
            (lost, delays[..count].to_vec())
        };
        if lost {
            shared.dropped.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        if delays.len() > 1 {
            shared.duplicated.fetch_add(1, Ordering::Relaxed);
        }
        let now = Instant::now();
        let mut queue = shared.queue.lock().expect("queue lock");
        for delay_ms in delays {
            let sequence = shared.next_delivery.fetch_add(1, Ordering::Relaxed);
            queue.push(Reverse(Delivery {
                due: now + Duration::from_secs_f64(delay_ms / 1e3),
                sequence,
                via: from,
                to: to_real,
                payload: buffer[..length].to_vec(),
            }));
        }
        drop(queue);
        shared.wakeup.notify_all();
    }
}

fn draw_delay(rng: &mut StdRng, spec: &LinkSpec) -> f64 {
    let jitter = if spec.jitter_ms > 0.0 {
        rng.gen_range(0.0..spec.jitter_ms)
    } else {
        0.0
    };
    spec.one_way_delay_ms + jitter
}

/// Pops due deliveries and sends each from the right public socket.
fn dispatch_loop(shared: &HarnessShared, senders: &[UdpSocket]) {
    let mut queue = shared.queue.lock().expect("queue lock");
    while !shared.shutdown.load(Ordering::Relaxed) {
        let now = Instant::now();
        match queue.peek() {
            Some(Reverse(next)) if next.due <= now => {
                let Reverse(delivery) = queue.pop().expect("peeked entry");
                drop(queue);
                let _ = senders[delivery.via].send_to(&delivery.payload, delivery.to);
                shared.forwarded.fetch_add(1, Ordering::Relaxed);
                queue = shared.queue.lock().expect("queue lock");
            }
            Some(Reverse(next)) => {
                let wait = next.due.duration_since(now).min(Duration::from_millis(20));
                let (returned, _) = shared
                    .wakeup
                    .wait_timeout(queue, wait)
                    .expect("queue lock poisoned");
                queue = returned;
            }
            None => {
                let (returned, _) = shared
                    .wakeup
                    .wait_timeout(queue, Duration::from_millis(20))
                    .expect("queue lock poisoned");
                queue = returned;
            }
        }
    }
}
