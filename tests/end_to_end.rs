//! Cross-crate integration tests: the full pipeline from synthetic workload
//! through the wire protocol, filters, Vivaldi, change detection and metric
//! collection.

use nc_netsim::linkmodel::LinkModelConfig;
use nc_netsim::planetlab::PlanetLabConfig;
use nc_netsim::scenario::Scenario;
use nc_netsim::sim::{SimConfig, Simulator};
use nc_netsim::trace::{TraceConfig, TraceGenerator, TraceRecord};
use stable_network_coordinates::{
    Coordinate, Event, FilterConfig, HeuristicConfig, NodeConfig, NodeSnapshot, ProbeRequest,
    ProbeResponse, StableNode, WireError, WireMessage, PROTOCOL_VERSION,
};

fn quick_workload() -> PlanetLabConfig {
    PlanetLabConfig::small(16).with_seed(99)
}

fn quick_schedule() -> SimConfig {
    SimConfig::new(1_500.0, 5.0)
        .with_measurement_start(900.0)
        .with_initial_neighbors(6)
}

/// `node`'s answer to `request`, filled into a fresh response.
fn answer<Id: Clone + Eq + std::hash::Hash>(
    node: &mut StableNode<Id>,
    request: &ProbeRequest<Id>,
) -> ProbeResponse<Id> {
    let mut response =
        ProbeResponse::new(request.target.clone(), request, Coordinate::origin(3), 1.0);
    node.respond_into(request, &mut response);
    response
}

/// The events `node` reports for digesting `response`.
fn digest<Id: Clone + Eq + std::hash::Hash>(
    node: &mut StableNode<Id>,
    response: &ProbeResponse<Id>,
) -> Vec<Event<Id>> {
    let mut events = Vec::new();
    node.handle_response_into(response, &mut events);
    events
}

/// Drives one trace record through the full wire exchange.
fn exchange(nodes: &mut [StableNode<usize>], record: &TraceRecord) -> Vec<Event<usize>> {
    let now_ms = (record.time_s * 1_000.0) as u64;
    let request = nodes[record.src].probe_request_for(record.dst, now_ms);
    let mut response = answer(&mut nodes[record.dst], &request);
    response.rtt_ms = record.rtt_ms;
    digest(&mut nodes[record.src], &response)
}

#[test]
fn full_stack_embeds_a_synthetic_planetlab_mesh() {
    let report = Simulator::new(
        quick_workload(),
        quick_schedule(),
        vec![("paper".to_string(), NodeConfig::paper_defaults())],
    )
    .run();
    let metrics = report.config("paper").expect("configuration ran");
    // Every node took part and the embedding is far better than random:
    // median relative error well below 1.0.
    assert_eq!(metrics.nodes.len(), 16);
    let median_error = metrics.median_of_median_relative_error();
    assert!(
        median_error < 0.5,
        "median of per-node median relative error is {median_error:.3}"
    );
}

#[test]
fn paper_stack_dominates_original_vivaldi_on_identical_streams() {
    let report = Simulator::new(
        quick_workload(),
        quick_schedule(),
        vec![
            ("enhanced".to_string(), NodeConfig::paper_defaults()),
            ("original".to_string(), NodeConfig::original_vivaldi()),
        ],
    )
    .run();
    let enhanced = report.config("enhanced").unwrap();
    let original = report.config("original").unwrap();
    assert!(
        enhanced.aggregate_application_instability() < original.aggregate_application_instability(),
        "application-level stability: enhanced {:.1} vs original {:.1}",
        enhanced.aggregate_application_instability(),
        original.aggregate_application_instability()
    );
    assert!(
        enhanced.median_of_application_p95_relative_error()
            <= original.median_of_application_p95_relative_error() * 1.05,
        "tail accuracy must not regress: enhanced {:.3} vs original {:.3}",
        enhanced.median_of_application_p95_relative_error(),
        original.median_of_application_p95_relative_error()
    );
}

#[test]
fn stable_node_consumes_a_generated_trace_through_the_wire_api() {
    // The library is usable without the simulator: drive StableNodes from a
    // materialised trace via request/response exchanges, as a real
    // deployment would from its own probes.
    let mut generator = TraceGenerator::new(TraceConfig::new(quick_workload(), 600.0, 1.0));
    let node_count = generator.topology().len();
    let mut nodes: Vec<StableNode<usize>> = (0..node_count)
        .map(|_| StableNode::new(NodeConfig::paper_defaults()))
        .collect();
    for record in generator.generate() {
        exchange(&mut nodes, &record);
    }
    // Estimates between converged nodes correlate with ground truth: closer
    // pairs get smaller estimates on average.
    let topology = generator.topology();
    let mut correct_orderings = 0;
    let mut comparisons = 0;
    for a in 0..node_count {
        for b in (a + 1)..node_count {
            for c in (b + 1)..node_count {
                let truth_ab = topology.base_rtt_ms(a, b);
                let truth_ac = topology.base_rtt_ms(a, c);
                if (truth_ab - truth_ac).abs() < 20.0 {
                    continue; // too close to call
                }
                let est_ab = nodes[a].estimate_rtt_ms(nodes[b].system_coordinate());
                let est_ac = nodes[a].estimate_rtt_ms(nodes[c].system_coordinate());
                comparisons += 1;
                if (truth_ab < truth_ac) == (est_ab < est_ac) {
                    correct_orderings += 1;
                }
            }
        }
    }
    assert!(comparisons > 50);
    let accuracy = correct_orderings as f64 / comparisons as f64;
    assert!(
        accuracy > 0.7,
        "coordinates should order {comparisons} distinguishable pairs correctly most of the time, got {accuracy:.2}"
    );
}

#[test]
fn every_filter_and_heuristic_combination_runs() {
    let filters = [
        FilterConfig::Raw,
        FilterConfig::paper_mp(),
        FilterConfig::MovingMedian { history: 4 },
        FilterConfig::Ewma { alpha: 0.1 },
        FilterConfig::Threshold { cutoff_ms: 1_000.0 },
    ];
    let heuristics = [
        HeuristicConfig::FollowSystem,
        HeuristicConfig::System { threshold_ms: 16.0 },
        HeuristicConfig::Application { threshold_ms: 16.0 },
        HeuristicConfig::Relative {
            threshold: 0.3,
            window: 8,
        },
        HeuristicConfig::Energy {
            threshold: 8.0,
            window: 8,
        },
        HeuristicConfig::ApplicationCentroid {
            threshold_ms: 16.0,
            window: 8,
        },
    ];
    let remote = Coordinate::new(vec![30.0, 40.0, 0.0]).unwrap();
    for filter in &filters {
        for heuristic in &heuristics {
            let config = NodeConfig::builder()
                .filter(filter.clone())
                .heuristic(heuristic.clone())
                .build();
            let mut node: StableNode<u32> = StableNode::new(config);
            for i in 0..200u64 {
                let rtt = if i % 37 == 0 {
                    4_000.0
                } else {
                    60.0 + (i % 7) as f64
                };
                let request = node.probe_request_for(1, i);
                let mut response = ProbeResponse::new(1, &request, remote.clone(), 0.4);
                response.rtt_ms = rtt;
                digest(&mut node, &response);
            }
            assert!(
                node.view().observations == 200,
                "{filter:?} + {heuristic:?}"
            );
            assert!(
                node.system_coordinate()
                    .components()
                    .iter()
                    .all(|c| c.is_finite()),
                "{filter:?} + {heuristic:?} produced a non-finite coordinate"
            );
        }
    }
}

#[test]
fn warmup_protects_against_first_sample_outliers_end_to_end() {
    // §VI: the largest disruptions came from links whose first sample was an
    // extreme outlier. With warm-up enabled the displacement caused by such a
    // link is bounded by later, sane samples.
    let run = |warmup: u64| -> f64 {
        let mut node: StableNode<u32> =
            StableNode::new(NodeConfig::builder().warmup_samples(warmup).build());
        let remote = Coordinate::new(vec![10.0, 10.0, 10.0]).unwrap();
        // First contact with peer 7 is a 30-second outlier, then normal.
        let send = |node: &mut StableNode<u32>, rtt: f64| {
            let request = node.probe_request_for(7, 0);
            let mut response = ProbeResponse::new(7, &request, remote.clone(), 0.4);
            response.rtt_ms = rtt;
            digest(node, &response);
        };
        send(&mut node, 30_000.0);
        for _ in 0..20 {
            send(&mut node, 35.0);
        }
        node.view().system_displacement_ms
    };
    let without = run(0);
    let with = run(2);
    assert!(
        with < without,
        "warm-up should reduce the displacement caused by a first-sample outlier ({with:.1} vs {without:.1})"
    );
}

#[test]
fn wire_messages_round_trip_across_crate_boundaries() {
    // Serde round trips at the integration level: request, response and
    // snapshot all survive encode → decode bit-exactly.
    let request: ProbeRequest<usize> = ProbeRequest::new(3, 17, 123_456);
    assert_eq!(
        ProbeRequest::<usize>::decode(&request.encode()).unwrap(),
        request
    );

    let mut node: StableNode<usize> = StableNode::new(NodeConfig::paper_defaults());
    let mut peer: StableNode<usize> = StableNode::new(NodeConfig::paper_defaults());
    let response = {
        let mut response = answer(&mut peer, &node.probe_request_for(0, 9));
        response.rtt_ms = 55.5;
        response
    };
    assert_eq!(
        ProbeResponse::<usize>::decode(&response.encode()).unwrap(),
        response
    );

    digest(&mut node, &response);
    let snapshot = node.snapshot();
    assert_eq!(
        NodeSnapshot::<usize>::decode(&snapshot.encode()).unwrap(),
        snapshot
    );
}

#[test]
fn wire_version_mismatches_are_rejected_not_misread() {
    let mut request: ProbeRequest<usize> = ProbeRequest::new(1, 1, 1);
    request.version = PROTOCOL_VERSION + 1;
    assert!(matches!(
        ProbeRequest::<usize>::decode(&request.encode()),
        Err(WireError::VersionMismatch { found, .. }) if found == PROTOCOL_VERSION + 1
    ));

    let node: StableNode<usize> = StableNode::new(NodeConfig::paper_defaults());
    let mut snapshot = node.snapshot();
    snapshot.version = PROTOCOL_VERSION + 2;
    assert!(matches!(
        NodeSnapshot::<usize>::decode(&snapshot.encode()),
        Err(WireError::VersionMismatch { found, .. }) if found == PROTOCOL_VERSION + 2
    ));
}

#[test]
fn node_snapshotted_mid_run_replays_to_identical_coordinates() {
    // The acceptance scenario: run a real workload, persist one node
    // halfway through, restore it, and replay the remaining trace into both
    // — coordinates and event streams must match exactly.
    let mut generator = TraceGenerator::new(TraceConfig::new(quick_workload(), 400.0, 1.0));
    let node_count = generator.topology().len();
    let mut nodes: Vec<StableNode<usize>> = (0..node_count)
        .map(|_| StableNode::new(NodeConfig::paper_defaults()))
        .collect();

    let records = generator.generate();
    let half = records.len() / 2;
    for record in &records[..half] {
        exchange(&mut nodes, record);
    }

    // Persist node 0 through the serialized wire form.
    let blob = nodes[0].snapshot().encode();
    let snapshot = NodeSnapshot::<usize>::decode(&blob).expect("snapshot decodes");
    let mut restored =
        StableNode::restore(NodeConfig::paper_defaults(), &snapshot).expect("same config restores");

    // Replay the second half into the live mesh; mirror every response that
    // node 0 digests into the restored copy.
    for record in &records[half..] {
        if record.src == 0 {
            let now_ms = (record.time_s * 1_000.0) as u64;
            let request_live = nodes[0].probe_request_for(record.dst, now_ms);
            let request_restored = restored.probe_request_for(record.dst, now_ms);
            assert_eq!(
                request_live, request_restored,
                "probe schedules in lockstep"
            );
            let mut response = answer(&mut nodes[record.dst], &request_live);
            response.rtt_ms = record.rtt_ms;
            let events_live = digest(&mut nodes[0], &response);
            let events_restored = digest(&mut restored, &response);
            assert_eq!(events_live, events_restored);
        } else {
            exchange(&mut nodes, record);
        }
    }

    assert_eq!(restored.system_coordinate(), nodes[0].system_coordinate());
    assert_eq!(
        restored.application_coordinate(),
        nodes[0].application_coordinate()
    );
    assert_eq!(
        restored.view().application_updates,
        nodes[0].view().application_updates
    );
}

#[test]
fn quarter_of_the_mesh_crash_restarts_and_reconverges() {
    // The churn acceptance scenario: 25% of the nodes crash at t = 1800 s,
    // restart from the snapshots taken at the instant of the crash at
    // t = 2100 s, and by the end of the run the mesh's accuracy is back to
    // within 10% of its pre-crash value.
    let workload = PlanetLabConfig::small(16).with_seed(99);
    let sim_config = SimConfig::new(3_000.0, 5.0)
        .with_measurement_start(0.0)
        .with_initial_neighbors(6);
    let crashed: Vec<usize> = vec![0, 1, 2, 3]; // 4 of 16 = 25%
    let scenario = Scenario::crash_restart(crashed.clone(), 1_800.0, 2_100.0);
    let report = Simulator::new(
        workload,
        sim_config,
        vec![("paper".to_string(), NodeConfig::paper_defaults())],
    )
    .with_scenario(scenario)
    .run();
    let metrics = report.config("paper").expect("configuration ran");

    let pre_crash = metrics
        .pooled_median_relative_error_between(1_500.0, 1_800.0)
        .expect("pre-crash samples exist");
    let end_of_run = metrics
        .pooled_median_relative_error_between(2_700.0, 3_000.0)
        .expect("post-restart samples exist");
    assert!(
        end_of_run <= pre_crash * 1.10,
        "median relative error must re-converge to within 10% of its \
         pre-crash value: pre {pre_crash:.4}, end {end_of_run:.4}"
    );

    // The restarted nodes really went down and really came back.
    for &node in &crashed {
        let times: Vec<f64> = metrics.nodes[node]
            .system_errors
            .iter()
            .map(|(t, _)| *t)
            .collect();
        assert!(
            !times.iter().any(|&t| (1_800.0..2_100.0).contains(&t)),
            "node {node} observed while down"
        );
        assert!(
            times.iter().filter(|&&t| t > 2_100.0).count() > 20,
            "node {node} resumed probing after its restart"
        );
    }
    // Survivors' probes of the dead quarter timed out and were reported.
    assert!(metrics.total_probes_lost() > 0);
}

#[test]
fn lossy_mesh_completes_with_probe_losses_reported() {
    // 5% per-direction packet loss: the run completes, ProbeLost counts
    // appear in the report, and the schedule never stalls — the embedding
    // still converges to a useful accuracy.
    let workload =
        quick_workload().with_link_config(LinkModelConfig::default().with_loss_probability(0.05));
    let report = Simulator::new(
        workload,
        quick_schedule(),
        vec![("paper".to_string(), NodeConfig::paper_defaults())],
    )
    .run();
    let metrics = report.config("paper").expect("configuration ran");
    assert!(
        metrics.total_probes_lost() > 0,
        "5% loss must surface as ProbeLost counts in the report"
    );
    let observed: u64 = metrics.nodes.iter().map(|n| n.observations).sum();
    assert!(
        observed > 1_000,
        "the schedule must keep advancing through losses, got {observed} observations"
    );
    let median_error = metrics.median_of_median_relative_error();
    assert!(
        median_error < 0.6,
        "the embedding still converges under loss, got {median_error:.3}"
    );
}

#[test]
fn identical_seeds_give_byte_identical_reports_even_under_churn() {
    // Determinism acceptance: the same protocol seed and workload seed must
    // reproduce the serialized SimReport byte for byte — with loss, delay
    // asymmetry and a churn scenario all active.
    let run = || {
        let workload = PlanetLabConfig::small(12).with_seed(7).with_link_config(
            LinkModelConfig::default()
                .with_loss_probability(0.03)
                .with_delay_asymmetry(0.2),
        );
        let sim_config = SimConfig::new(1_000.0, 5.0)
            .with_measurement_start(0.0)
            .with_initial_neighbors(4)
            .with_protocol_seed(0xBEEF);
        let scenario = Scenario::crash_restart(vec![1, 2, 3], 400.0, 550.0);
        let report = Simulator::new(
            workload,
            sim_config,
            vec![
                ("paper".to_string(), NodeConfig::paper_defaults()),
                ("raw".to_string(), NodeConfig::original_vivaldi()),
            ],
        )
        .with_scenario(scenario)
        .run();
        serde::json::to_string(&report)
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "serialized reports diverged between runs");
    assert!(!first.is_empty());
}
