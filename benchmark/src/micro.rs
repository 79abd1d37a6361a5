//! Single-layer stages that need no workload around them: each times one
//! public function of one crate, a batch of calls per clock pair, on inputs
//! shaped like the workload's.

use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

use nc_netsim::linkmodel::LinkModel;
use nc_netsim::sim::EventQueue;
use nc_proto::{BinaryMessage, NodeSnapshot, ProbeRequest, ProbeResponse};
use nc_query::{CoordinateIndex, QueryPublisher};
use nc_transport::{load_snapshot, save_snapshot, TimerWheel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::alloc::allocations;
use crate::clock::{now_ns, spin_mops};
use crate::metrics::Outcome;
use crate::sim::SimSpec;
use crate::spans::BATCH;
use crate::stats;

/// Calls per stage.
const CALLS: usize = 200_000;

/// Median ns per call of `call(0..calls)`, one clock pair per [`BATCH`].
fn batched_ns(calls: usize, mut call: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::with_capacity(calls / BATCH + 1);
    let mut next = 0;
    while next < calls {
        let end = (next + BATCH).min(calls);
        let start_ns = now_ns();
        for k in next..end {
            call(k);
        }
        samples.push((now_ns() - start_ns) as f64 / (end - next) as f64);
        next = end;
    }
    stats::median(&mut samples)
}

/// `bench.clock_ns` and `bench.spin_mops`: the harness's own price and the
/// host's speed on a fixed integer loop.
pub fn harness(clock_ns: f64, scale: usize, out: &mut Outcome) {
    out.set("bench.clock_ns", clock_ns);
    out.set("bench.spin_mops", spin_mops(1.0 / scale as f64));
}

/// `EventQueue::schedule` + `pop` at a steady depth of two events per node.
pub fn event_queue(nodes: usize, out: &mut Outcome) {
    let mut rng = StdRng::seed_from_u64(nodes as u64);
    let mut queue: EventQueue<usize> = EventQueue::new();
    for item in 0..2 * nodes {
        queue.schedule(rng.gen_range(0.0..5.0), item);
    }
    let delays: Vec<f64> = (0..CALLS).map(|_| rng.gen_range(0.0..5.0)).collect();
    let ns = batched_ns(CALLS, |k| {
        if let Some((time_s, item)) = queue.pop() {
            queue.schedule(time_s + delays[k], item);
        }
    });
    out.set("netsim.queue_ns_per_event", ns);
}

/// `LinkModel::sample` + two `sample_loss` + `one_way_split` over as many
/// links as the workload has nodes, under the workload's link configuration.
pub fn link_model(spec: &SimSpec, out: &mut Outcome) {
    let topology = spec.workload.build_topology();
    let n = spec.nodes;
    let mut links: Vec<LinkModel> = (0..n)
        .map(|i| {
            LinkModel::new(
                topology.base_rtt_ms(i, (i + n / 2) % n),
                spec.workload.link_config().clone(),
                spec.schedule.duration_s,
                i as u64,
            )
        })
        .collect();
    let step_s = spec.schedule.duration_s / CALLS as f64;
    let ns = batched_ns(CALLS, |k| {
        let link = &mut links[k % n];
        let rtt_ms = link.sample(k as f64 * step_s);
        let lost = link.sample_loss() | link.sample_loss();
        std::hint::black_box((link.one_way_split(rtt_ms), lost));
    });
    out.set("netsim.link_ns_per_sample", ns);
}

/// The binary codec on the datagrams the workload actually exchanged.
pub fn codec(
    request: &ProbeRequest<SocketAddr>,
    reply: &ProbeResponse<SocketAddr>,
    out: &mut Outcome,
) {
    let request_bytes = request.encode_binary();
    let reply_bytes = reply.encode_binary();
    out.set("proto.request_bytes", request_bytes.len() as f64);
    out.set("proto.response_bytes", reply_bytes.len() as f64);
    let allocs_start = allocations();
    out.set(
        "proto.encode_request_ns",
        batched_ns(CALLS, |_| {
            std::hint::black_box(std::hint::black_box(request).encode_binary());
        }),
    );
    out.set(
        "proto.decode_request_ns",
        batched_ns(CALLS, |_| {
            let decoded =
                ProbeRequest::<SocketAddr>::decode_binary(std::hint::black_box(&request_bytes));
            std::hint::black_box(decoded.is_ok());
        }),
    );
    out.set(
        "proto.encode_response_ns",
        batched_ns(CALLS, |_| {
            std::hint::black_box(std::hint::black_box(reply).encode_binary());
        }),
    );
    out.set(
        "proto.decode_response_ns",
        batched_ns(CALLS, |_| {
            let decoded =
                ProbeResponse::<SocketAddr>::decode_binary(std::hint::black_box(&reply_bytes));
            std::hint::black_box(decoded.is_ok());
        }),
    );
    // The four stages above made one request/response round trip per index;
    // the sample vectors of `batched_ns` are the only other allocations.
    out.set(
        "proto.allocs_per_roundtrip",
        (allocations() - allocs_start) as f64 / CALLS as f64,
    );
    out.check(
        ProbeResponse::<SocketAddr>::decode_binary(&reply_bytes)
            .is_ok_and(|decoded| decoded == *reply),
        || "a reply does not survive an encode/decode round trip".to_string(),
    );
}

/// Snapshot encode/decode and the save/load round trip through a file.
pub fn snapshot_codec(snapshot: &NodeSnapshot<SocketAddr>, out: &mut Outcome) {
    let bytes = snapshot.encode_binary();
    out.set("proto.snapshot_bytes", bytes.len() as f64);
    out.set(
        "proto.snapshot_encode_us",
        batched_ns(2_000, |_| {
            std::hint::black_box(std::hint::black_box(snapshot).encode_binary());
        }) / 1e3,
    );
    out.set(
        "proto.snapshot_decode_us",
        batched_ns(2_000, |_| {
            let decoded = NodeSnapshot::<SocketAddr>::decode_binary(std::hint::black_box(&bytes));
            std::hint::black_box(decoded.is_ok());
        }) / 1e3,
    );
    let path = crate::out_dir().join("persist-roundtrip.snap");
    if std::fs::create_dir_all(crate::out_dir()).is_err() {
        out.problem("cannot create the output directory");
        return;
    }
    let mut samples = Vec::new();
    for _ in 0..50 {
        let start_ns = now_ns();
        let restored = save_snapshot(&path, snapshot).and_then(|()| load_snapshot(&path));
        samples.push((now_ns() - start_ns) as f64 / 1e3);
        out.check(restored.is_ok(), || {
            "a snapshot does not survive the save/load round trip".to_string()
        });
    }
    let _ = std::fs::remove_file(&path);
    out.set(
        "transport.persist_roundtrip_us",
        stats::median(&mut samples),
    );
}

/// A bare `send_to` + `recv_from` of one small datagram to the same socket:
/// what the loopback path costs with nothing of this repo on it.
pub fn loopback_floor(out: &mut Outcome) -> std::io::Result<()> {
    let socket = UdpSocket::bind("127.0.0.1:0")?;
    socket.set_read_timeout(Some(Duration::from_millis(200)))?;
    let addr = socket.local_addr()?;
    let payload = [0u8; 32];
    let mut buffer = [0u8; 64];
    let mut failures = 0u64;
    let ns = batched_ns(20_000, |_| {
        let sent = socket.send_to(&payload, addr);
        let received = socket.recv_from(&mut buffer);
        failures += (sent.is_err() || received.is_err()) as u64;
    });
    out.check(failures == 0, || {
        format!("{failures} bare loopback datagrams were lost")
    });
    out.set("transport.loopback_floor_us", ns / 1e3);
    Ok(())
}

/// The runtime's three recurring deadlines (probe every 1 ms, expire every
/// 50 ms, stats every 1 s) walked through a `TimerWheel` a millisecond at a
/// time; the cost is per timer fired and rescheduled.
pub fn timer_wheel(out: &mut Outcome) {
    let mut wheel: TimerWheel<u64> = TimerWheel::new(256, 1);
    for interval_ms in [1u64, 50, 1_000] {
        wheel.schedule(interval_ms, interval_ms);
    }
    let mut due = Vec::new();
    let mut fired = 0u64;
    let ticks = CALLS;
    let per_tick_ns = batched_ns(ticks, |now_ms| {
        due.clear();
        wheel.advance(now_ms as u64, &mut due);
        for interval_ms in &due {
            wheel.schedule(now_ms as u64 + interval_ms, *interval_ms);
        }
        fired += due.len() as u64;
    });
    out.set(
        "transport.wheel_ns_per_timer",
        per_tick_ns * ticks as f64 / fired.max(1) as f64,
    );
}

/// `QueryHandle::snapshot`: what a reader pays to get the current index.
pub fn query_publish(index: CoordinateIndex<u64>, out: &mut Outcome) {
    let publisher = QueryPublisher::new(index);
    let handle = publisher.handle();
    let ns = batched_ns(CALLS, |_| {
        std::hint::black_box(handle.snapshot().len());
    });
    out.set("query.handle_snapshot_ns", ns);
}
