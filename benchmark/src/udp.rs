//! `udp-answer`: one real `NodeRuntime` on loopback, driven by a closed loop
//! of correlated probe datagrams from the benchmark's main thread.
//!
//! The generator owns one `UdpSocket`. It keeps a fixed number of
//! `ProbeRequest`s outstanding, fully decodes and sequence-correlates every
//! reply, and answers the runtime's own probes inline from its own engine,
//! so the runtime's tick thread, timer wheel and RTT stamping run for real.
//! Loopback, not a link: wire latency and link rate are not measured here.

use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

use nc_proto::{BinaryMessage, Packet, ProbeRequest, ProbeResponse};
use nc_transport::{NodeRuntime, RuntimeConfig, RuntimeStats};
use serde::Value;
use stable_nc::{Coordinate, NodeConfig, StableNode};

use crate::alloc::allocations;
use crate::clock::{now_ns, seconds, thread_cpu_ns};
use crate::metrics::Outcome;
use crate::spans::{Tracer, ROOT};
use crate::{host, micro, sim, stats, Options};

/// A request unanswered for this long is a failure.
const REPLY_TIMEOUT_MS: u64 = 200;
/// Requests of the warm-up that ends every set-up.
const WARMUP_REQUESTS: u64 = 5_000;
/// Runtimes started per run; `setup_s` is the median over them.
const SETUPS: usize = 7;
/// Requests per measured slice (≈ 70 ms at 290k replies/s).
const SLICE_REQUESTS: u64 = 20_000;
/// Slots of the per-request ring; more than any outstanding window.
const RING: usize = 64;
/// Names the runtime gives its two threads.
const SOCKET_THREAD: &str = "nc-socket";
const TICK_THREAD: &str = "nc-tick";
/// Name the kernel gives the main thread: the executable's.
const MAIN_THREAD: &str = "ncbench";

/// Tallies of one closed-loop slice.
#[derive(Default)]
struct Slice {
    requests: u64,
    replies: u64,
    timed_out: u64,
    undecodable: u64,
    wall_s: f64,
    /// Reply latencies in µs (only when the slice was timed per request).
    latencies_us: Vec<f64>,
}

/// A tracer with the generator loop's operations registered.
struct LoopTrace<'a> {
    tracer: &'a mut Tracer,
    request: u16,
    encode: u16,
    send: u16,
    recv: u16,
    decode: u16,
    respond: u16,
}

impl<'a> LoopTrace<'a> {
    fn new(tracer: &'a mut Tracer) -> Self {
        LoopTrace {
            request: tracer.op("udp.request"),
            encode: tracer.op("proto.encode_request"),
            send: tracer.op("transport.send_to"),
            recv: tracer.op("transport.recv_from"),
            decode: tracer.op("proto.decode"),
            respond: tracer.op("core.respond_into"),
            tracer,
        }
    }
}

struct Generator {
    socket: UdpSocket,
    addr: SocketAddr,
    /// Answers the runtime's probes of the generator.
    node: StableNode<SocketAddr>,
    response: ProbeResponse<SocketAddr>,
    target: SocketAddr,
    next_seq: u64,
    /// Per outstanding request: its seq (or `u64::MAX`), send time, span id.
    ring: [(u64, u64, u32); RING],
    buffer: Vec<u8>,
    /// The last request and reply seen, for the codec stages.
    last_request: Option<ProbeRequest<SocketAddr>>,
    last_reply: Option<ProbeResponse<SocketAddr>>,
}

impl Generator {
    fn new() -> std::io::Result<Self> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        socket.set_read_timeout(Some(Duration::from_millis(REPLY_TIMEOUT_MS)))?;
        let addr = socket.local_addr()?;
        let mut node = StableNode::new(NodeConfig::paper_defaults());
        node.set_identity(addr);
        let placeholder = ProbeRequest::new(addr, 0, 0);
        Ok(Generator {
            socket,
            addr,
            node,
            response: ProbeResponse::new(addr, &placeholder, Coordinate::origin(3), 1.0),
            target: addr,
            next_seq: 0,
            ring: [(u64::MAX, 0, ROOT); RING],
            buffer: vec![0u8; 64 * 1024],
            last_request: None,
            last_reply: None,
        })
    }

    /// Sends `requests` probes keeping `window` outstanding and waits for
    /// every reply. With a tracer, every call into a layer gets a span under
    /// the request's span and every reply a latency sample.
    fn closed_loop(&mut self, requests: u64, window: usize, tracer: Option<&mut Tracer>) -> Slice {
        let mut trace = tracer.map(LoopTrace::new);
        let traced = trace.is_some();
        // Clock reads only where a span will use them.
        let stamp = || if traced { now_ns() } else { 0 };
        let mut slice = Slice::default();
        let mut outstanding = 0usize;
        let start = now_ns();
        while slice.replies + slice.timed_out < requests {
            while outstanding < window && slice.requests < requests {
                let seq = self.next_seq;
                self.next_seq += 1;
                let request = ProbeRequest::new(self.target, seq, 0).from_source(self.addr);
                let parent = trace
                    .as_mut()
                    .map_or(ROOT, |t| t.tracer.open(t.request, ROOT, seq as u32));
                let t0 = stamp();
                let bytes = request.encode_binary();
                let t1 = stamp();
                let _ = self.socket.send_to(&bytes, self.target);
                if let Some(t) = trace.as_mut() {
                    t.tracer.span(t.encode, parent, seq as u32, t0, t1);
                    t.tracer.span(t.send, parent, seq as u32, t1, now_ns());
                }
                self.ring[(seq % RING as u64) as usize] = (seq, t0, parent);
                self.last_request = Some(request);
                slice.requests += 1;
                outstanding += 1;
            }
            let t0 = stamp();
            let (length, source) = match self.socket.recv_from(&mut self.buffer) {
                Ok(received) => received,
                Err(_) => {
                    // The loop has been blocked for the whole read timeout,
                    // so every outstanding request is that old: all failed.
                    slice.timed_out += outstanding as u64;
                    outstanding = 0;
                    self.ring = [(u64::MAX, 0, ROOT); RING];
                    continue;
                }
            };
            let t1 = stamp();
            let packet = Packet::<SocketAddr>::decode(&self.buffer[..length]);
            let t2 = stamp();
            match packet {
                Ok(Packet::Response(reply)) => {
                    let slot = (reply.seq % RING as u64) as usize;
                    let (seq, sent_ns, parent) = self.ring[slot];
                    if seq != reply.seq || reply.responder != self.target || source != self.target {
                        slice.undecodable += 1;
                        continue;
                    }
                    self.ring[slot] = (u64::MAX, 0, ROOT);
                    outstanding -= 1;
                    slice.replies += 1;
                    if let Some(t) = trace.as_mut() {
                        t.tracer.span(t.recv, parent, seq as u32, t0, t1);
                        t.tracer.span(t.decode, parent, seq as u32, t1, t2);
                        t.tracer.close(parent);
                        slice.latencies_us.push((t2 - sent_ns) as f64 / 1e3);
                    }
                    self.last_reply = Some(reply);
                }
                Ok(Packet::Request(probe)) => {
                    let t3 = stamp();
                    self.node.respond_into(&probe, &mut self.response);
                    if let Some(t) = trace.as_mut() {
                        t.tracer
                            .span(t.respond, ROOT, probe.seq as u32, t3, now_ns());
                    }
                    let _ = self.socket.send_to(&self.response.encode_binary(), source);
                }
                Err(_) => slice.undecodable += 1,
            }
        }
        slice.wall_s = seconds(start, now_ns());
        slice
    }

    /// Answers the runtime's probes for `duration_s` without sending any
    /// request, calling `poll` about every 100 ms.
    fn answer_only(&mut self, duration_s: f64, mut poll: impl FnMut()) {
        let _ = self
            .socket
            .set_read_timeout(Some(Duration::from_millis(100)));
        let start = now_ns();
        let mut next_poll_s = 0.1;
        while seconds(start, now_ns()) < duration_s {
            if let Ok((length, source)) = self.socket.recv_from(&mut self.buffer) {
                if let Ok(Packet::Request(probe)) =
                    Packet::<SocketAddr>::decode(&self.buffer[..length])
                {
                    self.node.respond_into(&probe, &mut self.response);
                    let _ = self.socket.send_to(&self.response.encode_binary(), source);
                }
            }
            if seconds(start, now_ns()) >= next_poll_s {
                poll();
                next_poll_s += 0.1;
            }
        }
        let _ = self
            .socket
            .set_read_timeout(Some(Duration::from_millis(REPLY_TIMEOUT_MS)));
    }
}

fn runtime_config(generator: SocketAddr) -> RuntimeConfig {
    RuntimeConfig {
        node: NodeConfig::paper_defaults(),
        seeds: vec![generator],
        probe_interval_ms: 1,
        probe_timeout_ms: REPLY_TIMEOUT_MS,
        ..RuntimeConfig::default()
    }
}

/// The runtime's filtered RTT to the generator in µs, as `view()` shows it.
fn rtt_stamp_us(runtime: &NodeRuntime, generator: SocketAddr) -> Option<f64> {
    runtime
        .view()
        .neighbors
        .iter()
        .find(|peer| peer.id == generator)
        .and_then(|peer| peer.filtered_rtt_ms)
        .map(|ms| ms * 1e3)
}

/// Tallies across every slice of the run, for `attempted` / `failed`.
#[derive(Default)]
struct Totals {
    requests: u64,
    timed_out: u64,
    undecodable: u64,
}

impl Totals {
    fn add(&mut self, slice: &Slice) {
        self.requests += slice.requests;
        self.timed_out += slice.timed_out;
        self.undecodable += slice.undecodable;
    }
}

/// Starts a runtime seeded with the generator and warms it up; the timed
/// interval is what a user waits for between `bind` and a node that answers.
fn set_up(generator: &mut Generator, totals: &mut Totals) -> std::io::Result<(NodeRuntime, f64)> {
    let start = now_ns();
    let bind: SocketAddr = ([127, 0, 0, 1], 0).into();
    let runtime = NodeRuntime::bind(bind, runtime_config(generator.addr))?;
    generator.target = runtime.local_addr();
    totals.add(&generator.closed_loop(WARMUP_REQUESTS, 16, None));
    Ok((runtime, seconds(start, now_ns())))
}

/// Runs the workload; a socket error is a failed check, not a panic.
pub fn run(options: &Options, out: &mut Outcome) {
    if let Err(error) = run_inner(options, out) {
        out.problem(format!("socket error: {error}"));
    }
}

fn run_inner(options: &Options, out: &mut Outcome) -> std::io::Result<()> {
    let cpus = host::allowed_cpus();
    let pinned = host::pin_to_one_cpu();
    out.note(
        "pinned_cpu",
        pinned.map_or(Value::Null, |cpu| Value::UInt(cpu as u64)),
    );
    let mut generator = Generator::new()?;
    let mut totals = Totals::default();

    let mut setup_samples = Vec::new();
    let mut current: Option<NodeRuntime> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = current.take() {
            previous.shutdown()?;
        }
        let (runtime, setup_s) = set_up(&mut generator, &mut totals)?;
        setup_samples.push(setup_s);
        current = Some(runtime);
    }
    let Some(runtime) = current else {
        return Ok(());
    };
    let stats_start = runtime.stats();

    if options.trace {
        traced(options, &mut generator, &runtime, &mut totals, &cpus, out)?;
    } else {
        end_to_end(options, &mut generator, &runtime, &mut totals, out);
        out.set_median("setup_s", &setup_samples);
        out.set("peak_rss_mb", host::peak_rss_mib());
    }

    let stats_end = runtime.stats();
    let snapshot = runtime.shutdown()?;
    let malformed = stats_end.malformed_datagrams - stats_start.malformed_datagrams;
    let ignored = stats_end.responses_ignored - stats_start.responses_ignored;
    out.attempted = totals.requests;
    out.failed = totals.timed_out + totals.undecodable + malformed + ignored;
    out.check(out.failed == 0, || {
        format!(
            "{} requests timed out, {} datagrams undecodable or uncorrelated, runtime saw {malformed} malformed and ignored {ignored}",
            totals.timed_out, totals.undecodable
        )
    });
    if options.trace {
        micro::snapshot_codec(&snapshot, out);
    } else {
        sim::reference_accuracy(options, out);
    }
    Ok(())
}

fn stats_delta(after: &RuntimeStats, before: &RuntimeStats) -> RuntimeStats {
    RuntimeStats {
        probes_sent: after.probes_sent - before.probes_sent,
        responses_received: after.responses_received - before.responses_received,
        responses_ignored: after.responses_ignored - before.responses_ignored,
        requests_answered: after.requests_answered - before.requests_answered,
        probes_lost: after.probes_lost - before.probes_lost,
        neighbors_evicted: after.neighbors_evicted - before.neighbors_evicted,
        malformed_datagrams: after.malformed_datagrams - before.malformed_datagrams,
    }
}

/// `--trace 0`: phase `w16` for the whole budget, in slices.
fn end_to_end(
    options: &Options,
    generator: &mut Generator,
    runtime: &NodeRuntime,
    totals: &mut Totals,
    out: &mut Outcome,
) {
    let slice_requests = (SLICE_REQUESTS / options.scale as u64).max(1_000);
    let mut rates = Vec::new();
    let mut cpu_per_reply = Vec::new();
    let before = runtime.stats();
    let start = now_ns();
    while seconds(start, now_ns()) < options.seconds {
        let cpu_start = thread_cpu_ns(&[SOCKET_THREAD, TICK_THREAD]);
        let slice = generator.closed_loop(slice_requests, 16, None);
        let cpu_ns = thread_cpu_ns(&[SOCKET_THREAD, TICK_THREAD]) - cpu_start;
        totals.add(&slice);
        if slice.replies > 0 {
            rates.push(slice.replies as f64 / slice.wall_s);
            cpu_per_reply.push(cpu_ns as f64 / 1e3 / slice.replies as f64);
        }
    }
    let wall_s = seconds(start, now_ns());
    let delta = stats_delta(&runtime.stats(), &before);
    out.set_median("ops_per_s", &rates);
    out.set_median("cpu_us_per_op", &cpu_per_reply);
    out.set(
        "updates_per_s",
        (delta.responses_received - delta.responses_ignored) as f64 / wall_s,
    );
    out.note("replies", Value::UInt(delta.requests_answered));
    out.note("runtime_probes", Value::UInt(delta.probes_sent));
}

/// `--trace 1`: phases `w16` (alternating spanned and plain slices), `w1`,
/// `idle`, then the informational unpinned phase and the component stages.
fn traced(
    options: &Options,
    generator: &mut Generator,
    runtime: &NodeRuntime,
    totals: &mut Totals,
    cpus: &[usize],
    out: &mut Outcome,
) -> std::io::Result<()> {
    let clock_ns = crate::clock::calibrate_clock_ns(10_000);
    let slice_requests = (SLICE_REQUESTS / options.scale as u64).max(1_000);
    let mut tracer = Tracer::new("udp-answer");
    let phase_start = runtime.stats();

    // w16: plain slices give the rates, spanned slices the trace.
    let (mut plain_rates, mut spanned_rates, mut loaded_stamps) =
        (Vec::new(), Vec::new(), Vec::new());
    let (mut w16_latencies, mut plain_replies) = (Vec::new(), 0u64);
    let (mut socket_cpu, mut generator_cpu, mut allocs) = (0u64, 0u64, 0u64);
    let before = runtime.stats();
    let start = now_ns();
    let mut spanned = false;
    while seconds(start, now_ns()) < options.seconds * 0.4 {
        let cpu = (
            thread_cpu_ns(&[SOCKET_THREAD]),
            thread_cpu_ns(&[MAIN_THREAD]),
        );
        let allocs_start = allocations();
        let slice = generator.closed_loop(slice_requests, 16, spanned.then_some(&mut tracer));
        totals.add(&slice);
        let rate = slice.replies as f64 / slice.wall_s;
        if spanned {
            spanned_rates.push(rate);
            w16_latencies.extend(slice.latencies_us);
        } else {
            plain_rates.push(rate);
            plain_replies += slice.replies;
            allocs += allocations() - allocs_start;
            socket_cpu += thread_cpu_ns(&[SOCKET_THREAD]) - cpu.0;
            generator_cpu += thread_cpu_ns(&[MAIN_THREAD]) - cpu.1;
        }
        loaded_stamps.extend(rtt_stamp_us(runtime, generator.addr));
        spanned = !spanned;
    }
    let w16 = stats_delta(&runtime.stats(), &before);
    let plain_rate = stats::median_of(&plain_rates);
    out.set(
        "transport.reply_us_p50.w16",
        stats::median(&mut w16_latencies),
    );
    out.set(
        "transport.rtt_stamp_us.loaded",
        stats::median(&mut loaded_stamps),
    );
    let per_reply = |ns: u64| ns as f64 / 1e3 / plain_replies.max(1) as f64;
    out.set("transport.socket_cpu_us_per_reply", per_reply(socket_cpu));
    out.set(
        "transport.generator_cpu_us_per_reply",
        per_reply(generator_cpu),
    );
    out.set(
        "transport.allocs_per_reply",
        allocs as f64 / plain_replies.max(1) as f64,
    );
    if !spanned_rates.is_empty() {
        out.set(
            "bench.trace_overhead_share",
            plain_rate / stats::median_of(&spanned_rates) - 1.0,
        );
    }
    out.note("w16.replies_per_s", Value::Float(plain_rate));
    out.note("w16.runtime_probes", Value::UInt(w16.probes_sent));

    // w1: one outstanding request, every reply timed.
    let mut w1_latencies = Vec::new();
    let start = now_ns();
    while seconds(start, now_ns()) < options.seconds * 0.3 {
        let slice = generator.closed_loop(slice_requests / 10, 1, Some(&mut tracer));
        totals.add(&slice);
        w1_latencies.extend(slice.latencies_us);
    }
    out.samples
        .insert("transport.reply_us_p50.w1", w1_latencies.len());
    out.set(
        "transport.reply_us_p50.w1",
        stats::percentile(&mut w1_latencies, 50.0),
    );
    out.set(
        "transport.reply_us_p99.w1",
        stats::percentile(&mut w1_latencies, 99.0),
    );
    out.set(
        "transport.reply_us_p99.9.w1",
        stats::percentile(&mut w1_latencies, 99.9),
    );

    // idle: the runtime probes at its own pace, the generator only answers.
    let mut idle_stamps = Vec::new();
    let before = runtime.stats();
    let tick_cpu = thread_cpu_ns(&[TICK_THREAD]);
    let start = now_ns();
    let generator_address = generator.addr;
    generator.answer_only(options.seconds * 0.2, || {
        idle_stamps.extend(rtt_stamp_us(runtime, generator_address));
    });
    let idle_s = seconds(start, now_ns());
    let idle = stats_delta(&runtime.stats(), &before);
    let tick_cpu = thread_cpu_ns(&[TICK_THREAD]) - tick_cpu;
    out.set(
        "transport.rtt_stamp_us.idle",
        stats::median(&mut idle_stamps),
    );
    out.set("transport.probe_rate_hz", idle.probes_sent as f64 / idle_s);
    out.set(
        "transport.tick_cpu_us_per_probe",
        tick_cpu as f64 / 1e3 / idle.probes_sent.max(1) as f64,
    );

    let whole = stats_delta(&runtime.stats(), &phase_start);
    out.set(
        "transport.requests_answered",
        whole.requests_answered as f64,
    );
    out.set("transport.probes_sent", whole.probes_sent as f64);
    out.set(
        "transport.responses_received",
        whole.responses_received as f64,
    );
    out.set("transport.probes_lost", whole.probes_lost as f64);
    out.set(
        "transport.responses_ignored",
        whole.responses_ignored as f64,
    );
    out.set(
        "transport.malformed_datagrams",
        whole.malformed_datagrams as f64,
    );

    // Informational: the same loop with every thread free to migrate.
    host::unpin_all_threads(cpus);
    let mut unpinned_rates = Vec::new();
    let start = now_ns();
    while seconds(start, now_ns()) < options.seconds * 0.1 {
        let slice = generator.closed_loop(slice_requests, 16, None);
        totals.add(&slice);
        unpinned_rates.push(slice.replies as f64 / slice.wall_s);
    }
    out.set(
        "transport.replies_per_s.unpinned",
        stats::median(&mut unpinned_rates),
    );

    if let (Some(request), Some(reply)) = (&generator.last_request, &generator.last_reply) {
        micro::codec(request, reply, out);
    }
    micro::loopback_floor(out)?;
    micro::timer_wheel(out);
    micro::harness(clock_ns, options.scale, out);

    let (recorded, dropped) = tracer.span_totals();
    out.note("spans", Value::UInt(recorded as u64));
    out.note("spans_dropped", Value::UInt(dropped));
    out.note("self_times", crate::replay::self_time_table(&tracer));
    tracer.write_jsonl(&crate::out_dir().join("trace-udp-answer.jsonl"))
}
