//! The metric names, units, directions and bounds — the part of the
//! benchmark every later performance claim refers to. `BENCHMARK.json`
//! lists the same tables; a test holds the two together.

use crate::stats::Better;

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Relative worsening that counts as a regression.
    pub bound: f64,
}

/// The six end-to-end metrics; every workload reports all of them.
///
/// The five timed metrics carry the widest bound the benchmark contract
/// allows. Runs of the same code on the 2-vCPU box this was defined on
/// differ by 8–15% (interquartile range over ten runs) because the box
/// itself changes speed by ~10% for minutes at a time, all metrics
/// moving together; see `README.md`, *Noise*.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "seq_events_per_s",
        unit: "events/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "sharded_events_per_s",
        unit: "events/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cluster_cpu_ns_per_event",
        unit: "ns/event",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cluster_latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wire_bytes_per_event",
        unit: "bytes/event",
        better: Better::Lower,
        bound: 0.005,
    },
];

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<EndToEnd> {
    END_TO_END.iter().copied().find(|m| m.name == name)
}

/// The per-layer metrics of the traced run: `(name, unit, better)`.
/// Layer = module; prefix = module name.
pub const PER_LAYER: [(&str, &str, Better); 45] = [
    ("analyzer.us_per_query", "us", Better::Lower),
    ("analyzer.groups", "count", Better::Lower),
    ("reorder.ns_per_event", "ns", Better::Lower),
    ("reorder.buffered_max", "count", Better::Lower),
    ("reorder.late_dropped", "count", Better::Lower),
    ("slicer.ns_per_event", "ns", Better::Lower),
    ("slicer.calculations_per_event", "count", Better::Lower),
    ("slicer.events_per_slice", "count", Better::Higher),
    ("slicer.slices", "count", Better::Lower),
    ("aggregate.update_ns_per_value", "ns", Better::Lower),
    ("aggregate.seal_ns_per_bundle", "ns", Better::Lower),
    ("aggregate.merge_ns_per_bundle", "ns", Better::Lower),
    ("aggregate.finalize_ns_per_result", "ns", Better::Lower),
    ("assembler.ns_per_slice", "ns", Better::Lower),
    ("assembler.ns_per_result", "ns", Better::Lower),
    ("assembler.merges_per_result", "count", Better::Lower),
    ("assembler.retained_slices_max", "count", Better::Lower),
    ("parallel.inlet_ns_per_event", "ns", Better::Lower),
    ("parallel.barrier_us_per_watermark", "us", Better::Lower),
    ("parallel.fixed_assembler_ns_per_slice", "ns", Better::Lower),
    ("parallel.fixed_merges_per_result", "count", Better::Lower),
    ("parallel.unfixed_merge_ns_per_slice", "ns", Better::Lower),
    (
        "parallel.shard_imbalance_permille",
        "permille",
        Better::Lower,
    ),
    ("codec.encode_ns_per_frame", "ns", Better::Lower),
    ("codec.decode_ns_per_frame", "ns", Better::Lower),
    ("codec.bytes_per_frame", "bytes", Better::Lower),
    ("link.send_recv_ns_per_frame", "ns", Better::Lower),
    ("merge.aligned_ns_per_slice", "ns", Better::Lower),
    ("merge.time_assembler_ns_per_slice", "ns", Better::Lower),
    ("merge.time_assembler_ns_per_result", "ns", Better::Lower),
    ("merge.time_assembler_retained_max", "count", Better::Lower),
    ("merge.unfixed_ns_per_slice", "ns", Better::Lower),
    ("merge.event_merger_ns_per_event", "ns", Better::Lower),
    ("node.local_ns_per_event", "ns", Better::Lower),
    ("node.intermediate_ns_per_message", "ns", Better::Lower),
    ("node.root_ns_per_message", "ns", Better::Lower),
    ("cluster.frames_per_kevent", "count", Better::Lower),
    ("cluster.root_raw_event_share", "ratio", Better::Lower),
    ("cluster.saturated_events_per_s", "events/s", Better::Higher),
    ("cluster.latency_p99_ms", "ms", Better::Lower),
    ("cluster.pace_overrun_ratio", "ratio", Better::Lower),
    ("recovery.nacks", "count", Better::Lower),
    ("trace.overhead_ratio", "ratio", Better::Lower),
    ("trace.layer_coverage", "ratio", Better::Higher),
    ("trace.spans", "count", Better::Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap_or("")
    }

    /// `BENCHMARK.json` at the repo root is the contract the driver reads;
    /// the tables above are what the harness prints. They must not drift.
    #[test]
    fn benchmark_json_lists_exactly_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let bench = Json::parse(&text).expect("valid JSON");
        let keys: Vec<&str> = bench.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let Some(Json::Arr(listed)) = bench.get("end_to_end") else {
            panic!("end_to_end missing");
        };
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, metric) in listed.iter().zip(END_TO_END) {
            assert_eq!(field(entry, "name"), metric.name);
            assert_eq!(field(entry, "unit"), metric.unit);
            assert_eq!(field(entry, "better"), metric.better.label());
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                Some(metric.bound)
            );
            assert!(metric.bound <= 0.25);
        }

        let Some(Json::Arr(listed)) = bench.get("per_layer") else {
            panic!("per_layer missing");
        };
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, (name, unit, better)) in listed.iter().zip(PER_LAYER) {
            assert_eq!(field(entry, "name"), name);
            assert_eq!(field(entry, "unit"), unit);
            assert_eq!(field(entry, "better"), better.label());
            assert!(name.len() <= 64 && unit.len() <= 16);
        }

        let Some(Json::Arr(workloads)) = bench.get("workloads") else {
            panic!("workloads missing");
        };
        let names: Vec<&str> = workloads.iter().map(|w| field(w, "name")).collect();
        assert_eq!(names, crate::workload::NAMES);
        assert!(workloads.iter().all(|w| {
            let why = field(w, "why");
            !why.is_empty() && why.len() <= 200 && !why.contains('\n')
        }));

        assert_eq!(
            bench.get("run_seconds").and_then(Json::as_f64),
            Some(crate::run::DEFAULT_SECONDS)
        );
        assert!(text.len() <= 64 * 1024);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|(name, _, _)| *name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(end_to_end("setup_s").is_some());
        assert!(end_to_end("nope").is_none());
    }
}
