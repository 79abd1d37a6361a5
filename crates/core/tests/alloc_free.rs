//! Counting-allocator proof of the allocation-free observation path.
//!
//! The acceptance criterion for the hot-path work is *zero heap allocations
//! per steady-state observation*: once a link's filter exists, its window is
//! full, the peer is registered and the reusable buffers have grown to their
//! working size, digesting one more observation must not touch the
//! allocator. A counting `GlobalAlloc` wrapper makes that an assertion
//! instead of a benchmark eyeball: the counter is thread-local, so the other
//! tests in this binary (and the harness itself) cannot pollute the count.

#![allow(
    unsafe_code,
    reason = "a `GlobalAlloc` is an `unsafe impl`; each use below has its SAFETY note"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use stable_nc::{Event, GossipEntry, NodeConfig, ProbeResponse, StableNode};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the only addition is a
// thread-local counter bump, which itself never allocates (const-initialised
// TLS slot).
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the counter bump cannot allocate or unwind; allocation itself
    // is `System`'s, under the caller's (valid) layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        // SAFETY: `layout` is the caller's obligation, forwarded verbatim.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: pure delegation; `ptr`/`layout` validity is the caller's
    // obligation, forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: see the function-level note.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the counter bump cannot allocate or unwind; reallocation
    // itself is `System`'s, under the caller's (valid) pointer and layout.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        // SAFETY: `ptr`/`layout`/`new_size` are the caller's obligation,
        // forwarded verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `body` and returns how many heap allocations it performed on this
/// thread.
fn allocations_during<R>(body: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = body();
    let after = ALLOCATIONS.with(Cell::get);
    (after - before, result)
}

#[test]
fn steady_state_response_digest_performs_zero_allocations() {
    // The prober-side half of the loop in isolation: one response message is
    // built up front and re-stamped per step, so the only code under the
    // counter is `probe_request_for` plus the full observation pipeline
    // behind `handle_response_into` (filter, gate, Vivaldi, heuristic).
    let mut node: StableNode<usize> = StableNode::new(NodeConfig::paper_defaults());
    let remote = nc_vivaldi::Coordinate::new(vec![30.0, 40.0, 10.0]).unwrap();
    let mut events: Vec<Event<usize>> = Vec::with_capacity(32);

    let request = node.probe_request_for(7, 0);
    let mut response = ProbeResponse::new(7, &request, remote, 0.4);

    // Warm up: register the peer, fill the filter window, fill both ENERGY
    // windows (32 each) and let every table and scratch buffer reach its
    // working size.
    for step in 0..512u64 {
        let request = node.probe_request_for(7, step);
        response.seq = request.seq;
        response.rtt_ms = 60.0 + (step % 9) as f64;
        events.clear();
        node.handle_response_into(&response, &mut events);
    }

    let (allocations, _) = allocations_during(|| {
        for step in 512..1_512u64 {
            let request = node.probe_request_for(7, step);
            response.seq = request.seq;
            response.rtt_ms = 60.0 + (step % 9) as f64;
            events.clear();
            node.handle_response_into(&response, &mut events);
            std::hint::black_box(&events);
        }
    });
    assert_eq!(
        allocations, 0,
        "steady-state response digestion must not allocate"
    );
}

#[test]
fn gossip_about_an_already_known_id_performs_zero_allocations() {
    // Most gossip a node hears names a peer it already has an entry for —
    // measured (7 gossips about 8 and 8 about 7) or gossip-only (9). Such
    // an entry must be found and left alone: no table growth, no link
    // record, no membership push.
    let mut node: StableNode<usize> = StableNode::new(NodeConfig::paper_defaults());
    let remote = nc_vivaldi::Coordinate::new(vec![30.0, 40.0, 10.0]).unwrap();
    let mut events: Vec<Event<usize>> = Vec::with_capacity(32);
    let request = node.probe_request_for(7, 0);
    let mut response = ProbeResponse::new(7, &request, remote.clone(), 0.4);
    response.gossip.push(GossipEntry {
        id: 9,
        coordinate: remote,
        error_estimate: 0.6,
    });

    let mut exchange = |node: &mut StableNode<usize>, step: u64| {
        let (responder, gossiped) = [(7, 8), (8, 7), (7, 9)][step as usize % 3];
        let request = node.probe_request_for(responder, step);
        response.responder = responder;
        response.seq = request.seq;
        response.rtt_ms = 60.0 + (step % 9) as f64;
        response.gossip[0].id = gossiped;
        events.clear();
        node.handle_response_into(&response, &mut events);
        std::hint::black_box(&events);
    };
    for step in 0..512 {
        exchange(&mut node, step);
    }
    let (allocations, _) = allocations_during(|| {
        for step in 512..1_512 {
            exchange(&mut node, step);
        }
    });
    assert_eq!(
        allocations, 0,
        "gossip about a known id must not touch the allocator"
    );
    let view = node.view();
    assert_eq!(view.membership, vec![7, 8, 9]);
    assert_eq!(view.neighbors[2].observations, 0, "9 stays gossip-only");
}

#[test]
fn refreshing_a_measured_peers_snapshot_performs_zero_allocations() {
    // Every reply carries a coordinate that has moved since the last one;
    // the peer's record in the snapshot store is overwritten where it sits,
    // and reading it back out for gossip builds the coordinate on the stack.
    let mut node: StableNode<usize> = StableNode::new(NodeConfig::paper_defaults());
    let mut events: Vec<Event<usize>> = Vec::with_capacity(32);
    let at = |step: u64| {
        nc_vivaldi::Coordinate::with_height([30.0 + step as f64, 40.0, -10.0], 1.0 + step as f64)
            .unwrap()
    };
    let request = node.probe_request_for(7, 0);
    let mut response = ProbeResponse::new(7, &request, at(0), 0.4);
    let mut gossip = response.clone();
    node.respond_into(&request, &mut gossip);

    let mut exchange = |node: &mut StableNode<usize>, step: u64| {
        let request = node.probe_request_for(7, step);
        response.seq = request.seq;
        response.rtt_ms = 60.0 + (step % 9) as f64;
        response.coordinate = at(step);
        response.error_estimate = 1.0 / (1.0 + step as f64);
        events.clear();
        node.handle_response_into(&response, &mut events);
        node.respond_into(&request, &mut gossip);
        std::hint::black_box(&events);
    };
    for step in 0..512 {
        exchange(&mut node, step);
    }
    let (allocations, _) = allocations_during(|| {
        for step in 512..1_512 {
            exchange(&mut node, step);
        }
    });
    assert_eq!(
        allocations, 0,
        "refreshing a measured peer's snapshot must not allocate"
    );
    assert_eq!(gossip.gossip[0].coordinate, at(1_511), "the last refresh");
    assert_eq!(gossip.gossip[0].error_estimate, 1.0 / 1_512.0);
}

#[test]
fn steady_state_vivaldi_update_performs_zero_allocations() {
    let mut state = nc_vivaldi::VivaldiState::new(nc_vivaldi::VivaldiConfig::paper_defaults());
    let remote = nc_vivaldi::Coordinate::new(vec![12.0, -9.0, 4.0]).unwrap();
    for _ in 0..64 {
        state.observe(&nc_vivaldi::RemoteObservation::new(
            remote.clone(),
            0.4,
            55.0,
        ));
    }
    let (allocations, _) = allocations_during(|| {
        for step in 0..1_000u64 {
            let observation =
                nc_vivaldi::RemoteObservation::new(remote.clone(), 0.4, 55.0 + (step % 13) as f64);
            std::hint::black_box(state.observe(&observation));
        }
    });
    assert_eq!(
        allocations, 0,
        "the Vivaldi spring update must run entirely on the stack"
    );
}

#[test]
fn energy_update_performs_zero_allocations_across_slides_anchor_and_change_point() {
    use nc_change::{EnergyHeuristic, UpdateContext, UpdateHeuristic};
    use nc_vivaldi::Coordinate;

    let window = 32u64;
    let mut heuristic = EnergyHeuristic::paper_defaults();
    let application = Coordinate::origin(3);
    let ctx = UpdateContext::default();
    // Jitter around a centre that leaps 500 ms at push 100: the windows are
    // ready from push 32, slide from push 33, re-anchor at pushes 64 and 96,
    // declare a change point shortly after the leap, refill, anchor afresh
    // and slide on.
    let stream = |push: u64| {
        let centre = if push < 100 { 20.0 } else { 520.0 };
        Coordinate::new([centre + (push % 7) as f64 * 0.1, -4.0, 9.0]).unwrap()
    };
    for push in 1..=window + 1 {
        heuristic.on_system_update(&stream(push), &application, &ctx);
    }

    let (allocations, publishes) = allocations_during(|| {
        (window + 2..=6 * window)
            .filter(|&push| {
                heuristic
                    .on_system_update(&stream(push), &application, &ctx)
                    .is_publish()
            })
            .count()
    });
    assert_eq!(publishes, 1, "the leap is one change point");
    assert_eq!(
        allocations, 0,
        "sliding, anchoring and restarting the ENERGY windows must not allocate"
    );
}

#[test]
fn steady_state_filter_observe_performs_zero_allocations() {
    use nc_filters::LatencyFilter;
    let mut filter = nc_filters::MovingPercentileFilter::new(128, 25.0).unwrap();
    for step in 0..256u64 {
        filter.observe(80.0 + (step % 17) as f64);
    }
    let (allocations, _) = allocations_during(|| {
        for step in 0..1_000u64 {
            std::hint::black_box(filter.observe(80.0 + (step % 17) as f64));
        }
    });
    assert_eq!(
        allocations, 0,
        "a full moving-percentile window must update without allocating"
    );
}

#[test]
fn steady_state_expire_pending_performs_zero_allocations() {
    // The transport's timer wheel calls `expire_pending_into` every few
    // milliseconds; almost every call finds nothing due. Neither the empty
    // scan nor an actual expiry (with warmed buffers and an existing streak
    // entry) may touch the allocator.
    let mut node: StableNode<usize> = StableNode::new(NodeConfig::paper_defaults());
    let mut events: Vec<Event<usize>> = Vec::with_capacity(32);

    // Warm up: register the peer, create its loss-streak entry via one real
    // timeout, and let the pending table reach its working size.
    for step in 0..16u64 {
        let request = node.probe_request_for(7, step);
        node.expire_pending_into(request.sent_at_ms, 0, &mut events);
    }
    events.clear();
    for step in 0..4u64 {
        node.probe_request_for(7, 1_000 + step);
    }

    let (allocations, _) = allocations_during(|| {
        // The common case: nothing is due.
        for tick in 0..1_000u64 {
            node.expire_pending_into(1_500 + tick, 10_000, &mut events);
            std::hint::black_box(&events);
        }
        assert!(events.is_empty());
        // An actual expiry sweep over the warmed table.
        node.expire_pending_into(1_000_000, 1_000, &mut events);
        std::hint::black_box(&events);
    });
    assert_eq!(events.len(), 4, "all four pending probes expired");
    assert_eq!(
        allocations, 0,
        "steady-state expire_pending_into must not allocate"
    );
}

#[test]
fn steady_state_wire_exchange_performs_zero_allocations() {
    // The driver-facing form the simulator uses: probe → respond_into →
    // handle_response_into with reused buffers end to end.
    let mut prober: StableNode<usize> = StableNode::new(NodeConfig::paper_defaults());
    let mut responder: StableNode<usize> = StableNode::new(NodeConfig::paper_defaults());
    let mut events: Vec<Event<usize>> = Vec::new();

    // Prime one exchange to build the reusable response message.
    let request = prober.probe_request_for(1, 0);
    let mut response = ProbeResponse::new(1, &request, responder.system_coordinate().clone(), 0.5);
    responder.respond_into(&request, &mut response);
    response.rtt_ms = 60.0;
    prober.handle_response_into(&response, &mut events);

    // Warm the rest of the stacks (filter windows, heuristic windows).
    for step in 1..512u64 {
        let request = prober.probe_request_for(1, step);
        responder.respond_into(&request, &mut response);
        response.rtt_ms = 60.0 + (step % 9) as f64;
        events.clear();
        prober.handle_response_into(&response, &mut events);
    }

    let (allocations, _) = allocations_during(|| {
        for step in 512..1_512u64 {
            let request = prober.probe_request_for(1, step);
            responder.respond_into(&request, &mut response);
            response.rtt_ms = 60.0 + (step % 9) as f64;
            events.clear();
            prober.handle_response_into(&response, &mut events);
            std::hint::black_box(&events);
        }
    });
    assert_eq!(
        allocations, 0,
        "a steady-state wire exchange with reused buffers must not allocate"
    );
}
