//! The metric catalogue and the record one workload run produces.
//!
//! `BENCHMARK.json` lists the same names, units, directions and bounds;
//! `ncbench manifest` prints this catalogue in that file's shape and
//! `ncbench smoke` fails when the two disagree, so they cannot drift.

use std::collections::BTreeMap;

use serde::Value;

use crate::stats;

/// The five workloads, in the order every report lists them.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "sim-steady",
        "1024-node simulated hour on clean links: event queue, link model, MP filter, Vivaldi, ENERGY and the metric fold do all the work, far beyond cache; loss, codec, sockets and index do none",
    ),
    (
        "sim-hostile",
        "same size under 5 % loss, drifting links, 10 % lying peers, a crash/restart and a partition: timeouts, expiry, eviction, snapshot/restore and the MAD gate all fire; a cost moved to the loss path shows",
    ),
    (
        "sim-compare",
        "the paper's experiment: 256 nodes, 4 h, raw Vivaldi beside the full stack on two workers; cache-resident N, long metric series, the per-configuration executor, and the headline gains checked",
    ),
    (
        "udp-answer",
        "one real NodeRuntime on loopback answering a closed loop of probe datagrams at 16 outstanding, pinned to one CPU: socket, codec and engine mutex per smallest packet; simulator and index bypassed",
    ),
    (
        "query-drift",
        "100,000-node coordinate index with rounds of 256 drifting updates then 1024 exact k-NN reads (k = 8) on one thread: reads beside writes on the same shards; engine and simulator do nothing",
    ),
];

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogued metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen; per-layer metrics carry none.
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; every workload reports every one.
///
/// The timing bounds are as wide as the contract allows because the host
/// this was written on is that noisy: the same binary's rate moves ±5 %
/// from minute to minute and 25 % in bad ones, and a bound narrower than
/// the spread between ten runs gets the whole benchmark refused. The
/// accuracy bounds cover the spread between seeds (≤ 8 %); on one seed both
/// numbers repeat exactly. `ncbench agree` applies the same bounds.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("updates_per_s", "1/s", Higher, 0.25),
    e2e("cpu_us_per_op", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
    e2e("rel_error_p50", "ratio", Lower, 0.15),
    e2e("instability_ms_per_s", "ms/s", Lower, 0.25),
];

/// Single-layer metrics from the traced run. A metric reads 0 on a workload
/// that does not load its layer: that is the prediction "no work here".
pub const PER_LAYER: &[MetricDef] = &[
    layer("netsim.run_s", "s", Lower),
    layer("netsim.run_s.iqr", "ratio", Lower),
    layer("netsim.ns_per_exchange", "ns", Lower),
    layer("netsim.probes_sent", "count", Lower),
    layer("netsim.responses_received", "count", Higher),
    layer("netsim.probes_lost", "count", Lower),
    layer("netsim.responses_ignored", "count", Lower),
    layer("netsim.observations_rejected", "count", Lower),
    layer("netsim.neighbors_evicted", "count", Lower),
    layer("netsim.scenario_ops", "count", Lower),
    layer("netsim.app_updates", "count", Lower),
    layer("netsim.useful_ratio", "ratio", Higher),
    layer("netsim.queue_ns_per_event", "ns", Lower),
    layer("netsim.link_ns_per_sample", "ns", Lower),
    layer("netsim.topology_build_s", "s", Lower),
    layer("netsim.rss_growth_mb", "MiB", Lower),
    layer("netsim.accuracy_gain_x", "ratio", Higher),
    layer("netsim.stability_gain_x", "ratio", Higher),
    layer("core.next_probe_ns", "ns", Lower),
    layer("core.respond_ns", "ns", Lower),
    layer("core.handle_response_ns", "ns", Lower),
    layer("core.expire_pending_ns", "ns", Lower),
    layer("core.snapshot_restore_us", "us", Lower),
    layer("core.events_per_response", "ratio", Lower),
    layer("core.allocs_per_exchange", "ratio", Lower),
    layer("core.glue_share", "ratio", Lower),
    layer("filters.mp_observe_ns", "ns", Lower),
    layer("vivaldi.observe_ns", "ns", Lower),
    layer("vivaldi.gate_ns", "ns", Lower),
    layer("change.energy_ns", "ns", Lower),
    layer("change.relative_ns", "ns", Lower),
    layer("change.publish_share", "ratio", Lower),
    layer("proto.encode_request_ns", "ns", Lower),
    layer("proto.decode_request_ns", "ns", Lower),
    layer("proto.encode_response_ns", "ns", Lower),
    layer("proto.decode_response_ns", "ns", Lower),
    layer("proto.request_bytes", "B", Lower),
    layer("proto.response_bytes", "B", Lower),
    layer("proto.allocs_per_roundtrip", "ratio", Lower),
    layer("proto.snapshot_encode_us", "us", Lower),
    layer("proto.snapshot_decode_us", "us", Lower),
    layer("proto.snapshot_bytes", "B", Lower),
    layer("transport.requests_answered", "count", Higher),
    layer("transport.probes_sent", "count", Higher),
    layer("transport.responses_received", "count", Higher),
    layer("transport.probes_lost", "count", Lower),
    layer("transport.responses_ignored", "count", Lower),
    layer("transport.malformed_datagrams", "count", Lower),
    layer("transport.socket_cpu_us_per_reply", "us", Lower),
    layer("transport.tick_cpu_us_per_probe", "us", Lower),
    layer("transport.generator_cpu_us_per_reply", "us", Lower),
    layer("transport.allocs_per_reply", "ratio", Lower),
    layer("transport.loopback_floor_us", "us", Lower),
    layer("transport.reply_us_p50.w1", "us", Lower),
    layer("transport.reply_us_p99.w1", "us", Lower),
    layer("transport.reply_us_p99.9.w1", "us", Lower),
    layer("transport.reply_us_p50.w16", "us", Lower),
    layer("transport.rtt_stamp_us.idle", "us", Lower),
    layer("transport.rtt_stamp_us.loaded", "us", Lower),
    layer("transport.probe_rate_hz", "1/s", Higher),
    layer("transport.wheel_ns_per_timer", "ns", Lower),
    layer("transport.persist_roundtrip_us", "us", Lower),
    layer("transport.replies_per_s.unpinned", "1/s", Higher),
    layer("query.knn_us_p50", "us", Lower),
    layer("query.knn_us_p99", "us", Lower),
    layer("query.update_ns", "ns", Lower),
    layer("query.build_s", "s", Lower),
    layer("query.shards", "count", Lower),
    layer("query.splits", "count", Lower),
    layer("query.merges", "count", Lower),
    layer("query.allocs_per_knn", "ratio", Lower),
    layer("query.handle_snapshot_ns", "ns", Lower),
    layer("query.oracle_checked", "count", Higher),
    layer("query.oracle_mismatches", "count", Lower),
    layer("bench.clock_ns", "ns", Lower),
    layer("bench.spin_mops", "1/us", Higher),
    layer("bench.trace_overhead_share", "ratio", Lower),
];

/// The catalogue a run with the given `--trace` flag must fill.
pub fn catalogue(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Looks a metric up in both catalogues.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|def| def.name == name)
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Metric values by catalogue name.
    pub values: BTreeMap<&'static str, f64>,
    /// Operations attempted (exact count).
    pub attempted: u64,
    /// Operations whose outcome was wrong (exact count).
    pub failed: u64,
    /// Failed checks, in words; empty means the outputs were correct.
    pub problems: Vec<String>,
    /// Sample count behind each reported median.
    pub samples: BTreeMap<&'static str, usize>,
    /// Metrics whose repetition IQR ÷ median exceeded their bound.
    pub noisy: Vec<&'static str>,
    /// Free-form facts a reader needs next to the numbers (digests, counts).
    pub notes: Vec<(String, Value)>,
}

impl Outcome {
    /// Sets a metric to a directly measured value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sets a metric to the median of `samples`, records the sample count,
    /// and marks the metric noisy when the spread of the samples is wider
    /// than the metric's own regression bound.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        self.values.insert(name, stats::median_of(samples));
        self.samples.insert(name, samples.len());
        let bound = find(name).and_then(|def| def.bound);
        if bound.is_some_and(|bound| stats::relative_iqr(samples) > bound) {
            self.noisy.push(name);
        }
    }

    /// Records a failed check.
    pub fn problem(&mut self, text: impl Into<String>) {
        self.problems.push(text.into());
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, text: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(text());
        }
    }

    /// Attaches a note.
    pub fn note(&mut self, key: &str, value: Value) {
        self.notes.push((key.to_string(), value));
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The contract's result object: `correct`, `attempted`, `failed` and
    /// one `{value, unit}` per catalogued metric. A metric the run did not
    /// produce, or produced as a non-finite number, is a failed check.
    pub fn result_line(&mut self, trace: bool) -> String {
        let mut metrics = Vec::new();
        for def in catalogue(trace) {
            let value = match self.values.get(def.name) {
                Some(value) if value.is_finite() => *value,
                Some(value) => {
                    self.problems
                        .push(format!("metric {} is not finite: {value}", def.name));
                    0.0
                }
                None if trace => 0.0,
                None => {
                    self.problems
                        .push(format!("metric {} was not measured", def.name));
                    0.0
                }
            };
            metrics.push((
                def.name.to_string(),
                Value::Map(vec![
                    ("value".to_string(), Value::Float(value)),
                    ("unit".to_string(), Value::Str(def.unit.to_string())),
                ]),
            ));
        }
        serde::json::to_string_value(&Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::UInt(self.attempted.max(1))),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("metrics".to_string(), Value::Map(metrics)),
        ]))
    }

    /// Everything beside the contract's result object, as one JSON object.
    pub fn detail_line(&self, workload: &str, seed: u64) -> String {
        let strings =
            |items: &[String]| Value::Seq(items.iter().cloned().map(Value::Str).collect());
        let mut entries = vec![
            ("workload".to_string(), Value::Str(workload.to_string())),
            ("seed".to_string(), Value::UInt(seed)),
            ("problems".to_string(), strings(&self.problems)),
            (
                "noisy".to_string(),
                Value::Seq(
                    self.noisy
                        .iter()
                        .map(|name| Value::Str(name.to_string()))
                        .collect(),
                ),
            ),
            (
                "samples".to_string(),
                Value::Map(
                    self.samples
                        .iter()
                        .map(|(name, count)| (name.to_string(), Value::UInt(*count as u64)))
                        .collect(),
                ),
            ),
        ];
        entries.extend(self.notes.iter().cloned());
        serde::json::to_string_value(&Value::Map(vec![(
            "detail".to_string(),
            Value::Map(entries),
        )]))
    }
}

/// A JSON number of any flavour as `f64`.
pub fn number(value: &Value) -> Option<f64> {
    match value {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

/// The `workloads`, `end_to_end` and `per_layer` arrays of `BENCHMARK.json`
/// as this catalogue defines them.
pub fn manifest_sections() -> Vec<(String, Value)> {
    let metric = |def: &MetricDef| {
        let mut entry = vec![
            ("name".to_string(), Value::Str(def.name.to_string())),
            ("unit".to_string(), Value::Str(def.unit.to_string())),
            (
                "better".to_string(),
                Value::Str(def.better.as_str().to_string()),
            ),
        ];
        if let Some(bound) = def.bound {
            entry.push(("bound".to_string(), Value::Float(bound)));
        }
        Value::Map(entry)
    };
    vec![
        (
            "workloads".to_string(),
            Value::Seq(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Value::Map(vec![
                            ("name".to_string(), Value::Str(name.to_string())),
                            ("why".to_string(), Value::Str(why.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".to_string(),
            Value::Seq(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer".to_string(),
            Value::Seq(PER_LAYER.iter().map(metric).collect()),
        ),
    ]
}
