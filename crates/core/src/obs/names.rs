//! Canonical metric and trace instrument names.
//!
//! Every counter, gauge, or histogram name emitted anywhere in the
//! workspace is declared here — either as a `const` (fixed names) or as a
//! builder function (names parameterized by node id, role, query, or
//! stage). `desis-lint`'s `metric-name-constants` rule rejects inline
//! string literals that look like metric names anywhere else, so an
//! emitter and the dashboard/test code that reads its snapshot can never
//! drift apart: both must reference this module.
//!
//! Naming scheme (dotted paths, lowercase with underscores):
//!
//! * `net.recovery.*` — recovery-protocol transitions ([`crate::obs`]).
//! * `net.fault.*` — injected faults.
//! * `net.<role>.*` — per-pump ingress instrumentation (`role` is
//!   `root` / `intermediate`).
//! * `net.node<id>.*` — per-node egress link counters.
//! * `engine.*` — engine-side counters and latency histograms.
//! * `trace.*` — causal-tracing stage histograms and drop counters.
//! * `prof.*` — profiler per-lane per-stage self-time counters
//!   ([`crate::obs::prof`]).
//! * `cluster.*` — whole-run aggregates published by the cluster driver.

// --- net.recovery.* ---------------------------------------------------

/// Sequence gaps detected by receiving pumps.
pub const RECOVERY_GAPS: &str = "net.recovery.gaps";
/// NACKs sent, including re-sends.
pub const RECOVERY_NACKS: &str = "net.recovery.nacks";
/// Redelivered frames discarded.
pub const RECOVERY_DUPLICATES_DROPPED: &str = "net.recovery.duplicates_dropped";
/// Gaps closed by retransmission.
pub const RECOVERY_RECOVERED: &str = "net.recovery.recovered";
/// Children lost for good and flushed on their behalf.
pub const RECOVERY_LOST: &str = "net.recovery.lost";
/// Healthy→Suspect transitions.
pub const RECOVERY_SUSPECTS: &str = "net.recovery.suspects";
/// Suspect→Healthy transitions.
pub const RECOVERY_SUSPECT_CLEARED: &str = "net.recovery.suspect_cleared";

// --- net.fault.* ------------------------------------------------------

/// Frames dropped by injection.
pub const FAULT_DROPPED: &str = "net.fault.dropped";
/// Frames duplicated by injection.
pub const FAULT_DUPLICATED: &str = "net.fault.duplicated";
/// Frames corrupted by injection.
pub const FAULT_CORRUPTED: &str = "net.fault.corrupted";
/// Frames delayed by injection.
pub const FAULT_DELAYED: &str = "net.fault.delayed";
/// Frames dropped by a partition window.
pub const FAULT_PARTITIONED: &str = "net.fault.partitioned";
/// Nodes crashed by the plan.
pub const FAULT_CRASHES: &str = "net.fault.crashes";
/// Nodes stalled by the plan.
pub const FAULT_STALLS: &str = "net.fault.stalls";

// --- message tags (shared by the wire layer and per-tag counters) -----

/// Tag of raw event batches.
pub const TAG_EVENTS: &str = "events";
/// Tag of per-slice partials.
pub const TAG_SLICE: &str = "slice";
/// Tag of per-window partials (Disco protocol).
pub const TAG_WINDOW_PARTIALS: &str = "window-partials";
/// Tag of watermark control messages.
pub const TAG_WATERMARK: &str = "watermark";
/// Tag of end-of-stream control messages.
pub const TAG_FLUSH: &str = "flush";
/// Every known message tag, in wire-enum order. Per-tag pump counters
/// iterate this list, so a tag added to the wire enum without a counter
/// shows up as `other` in snapshots rather than silently drifting.
pub const MSG_TAGS: [&str; 5] = [
    TAG_EVENTS,
    TAG_SLICE,
    TAG_WINDOW_PARTIALS,
    TAG_WATERMARK,
    TAG_FLUSH,
];
/// Catch-all tag for messages without a dedicated per-tag counter.
pub const TAG_OTHER: &str = "other";

// --- net.<role>.* (per-pump ingress) ----------------------------------

/// Payload bytes received by `role`'s pump.
pub fn ingress_bytes(role: &str) -> String {
    format!("net.{role}.ingress_bytes")
}

/// Messages of `tag` received by `role`'s pump.
pub fn ingress_msgs(role: &str, tag: &str) -> String {
    format!("net.{role}.msgs.{tag}")
}

/// High-water inbound queue depth of `role`'s pump.
pub fn queue_depth_max(role: &str) -> String {
    format!("net.{role}.queue_depth_max")
}

/// Live inbound queue depth of `role`'s pump (sampled by the flight
/// recorder; `queue_depth_max` keeps the high water).
pub fn queue_depth(role: &str) -> String {
    format!("net.{role}.queue_depth")
}

/// Undecodable frames seen by `role`'s pump.
pub fn decode_errors(role: &str) -> String {
    format!("net.{role}.decode_errors")
}

/// High-water pending-merge count at `role`.
pub fn merge_pending_max(role: &str) -> String {
    format!("net.{role}.merge_pending_max")
}

/// Watermark advances that left merges waiting for sibling streams.
pub fn merge_stalls(role: &str) -> String {
    format!("net.{role}.merge_stalls")
}

/// Checksum-valid messages `role` dropped because nothing routes them:
/// a slice of a group, or a window partial of a query, nobody installed,
/// or a message of another system's protocol.
pub fn unroutable_msgs(role: &str) -> String {
    format!("net.{role}.unroutable_msgs")
}

// --- net.node<id>.* (per-node egress and progress) --------------------

/// Payload bytes sent on `node`'s uplink.
pub fn egress_bytes(node: u32) -> String {
    format!("net.node{node}.egress_bytes")
}

/// Messages sent on `node`'s uplink.
pub fn egress_msgs(node: u32) -> String {
    format!("net.node{node}.egress_msgs")
}

/// Watermarks the paced local `node` sent without data, one for every
/// pending punctuation and grid point an idle gap of its feed passed.
pub fn heartbeats(node: u32) -> String {
    format!("net.node{node}.heartbeats")
}

/// CPU time of `node`'s thread over its whole life, nanoseconds: one
/// thread-CPU clock read when the thread starts and one when it ends
/// (Linux only; absent elsewhere).
pub fn node_cpu_ns(node: u32) -> String {
    format!("net.node{node}.cpu_ns")
}

// --- engine.* ---------------------------------------------------------

/// Shard workers of the parallel engine that panicked and were degraded
/// (their in-flight contributions are force-released without the shard).
pub const ENGINE_SHARD_PANICS: &str = "engine.shard_panics";

/// Events routed to one shard worker of the parallel engine.
pub fn engine_shard_events(shard: usize) -> String {
    format!("engine.shard{shard}.events")
}

/// Event batches sent to one shard worker of the parallel engine.
pub fn engine_shard_batches(shard: usize) -> String {
    format!("engine.shard{shard}.batches")
}

/// High-water inbox depth (queued collector items) of one shard worker.
pub fn engine_shard_inbox_depth_max(shard: usize) -> String {
    format!("engine.shard{shard}.inbox_depth_max")
}

/// Shard-balance ratio in permille: `(max - min) * 1000 / max` over
/// per-shard routed event counts (0 = perfectly balanced).
pub const ENGINE_SHARD_IMBALANCE_PERMILLE: &str = "engine.shard_imbalance_permille";

/// Slice partials the engine's assemblers (and, sharded, the collector's
/// unfixed mergers) retain for open windows.
pub const ENGINE_ASSEMBLER_RETAINED_SLICES: &str = "engine.assembler.retained_slices";
/// Bundles held by the suffix caches over those slices: per selection
/// with overlapping windows at most (slices of its longest such window
/// + 1) × live keys.
pub const ENGINE_ASSEMBLER_CACHED_BUNDLES: &str = "engine.assembler.cached_bundles";

/// Open sessions retained by the cross-shard unfixed merger.
pub const ENGINE_UNFIXED_PENDING_SESSIONS: &str = "engine.unfixed.pending_sessions";
/// User-defined window slices queued in the cross-shard unfixed merger.
pub const ENGINE_UNFIXED_QUEUED_UD_SLICES: &str = "engine.unfixed.queued_ud_slices";
/// Count-query predicate survivors the inlet holds for their groups.
pub const ENGINE_UNFIXED_COUNT_SURVIVORS: &str = "engine.unfixed.count_survivors";

/// Events the parallel engine's inlet reorder buffer dropped as later
/// than the lateness bound, each counted once.
pub const ENGINE_LATE_DROPPED: &str = "engine.late_dropped";
/// High-water level of the inlet reorder buffer: the events within the
/// lateness bound of the newest released timestamp.
pub const ENGINE_REORDER_BUFFERED_MAX: &str = "engine.reorder_buffered_max";

// --- trace.* ----------------------------------------------------------

/// Trace events overwritten by ring-buffer drop-oldest.
pub const TRACE_DROPPED_EVENTS: &str = "trace.dropped_events";

/// Per-query per-stage latency histogram fed from stitched trace chains.
pub fn trace_stage_us(query: u64, stage: &str) -> String {
    format!("trace.q{query}.{stage}_us")
}

// --- prof.* (pipeline profiler) ---------------------------------------

/// Cumulative self-time of one profiler (lane, stage) cell, nanoseconds.
pub fn prof_stage_ns(lane: &str, stage: &str) -> String {
    format!("prof.{lane}.{stage}_ns")
}

/// Scopes entered on one profiler (lane, stage) cell.
pub fn prof_stage_calls(lane: &str, stage: &str) -> String {
    format!("prof.{lane}.{stage}_calls")
}

/// The inverse of [`prof_stage_ns`] / [`prof_stage_calls`], under any
/// prefix a merge put in front: `(lane, stage, is the _ns counter)`.
pub fn parse_prof_stage(name: &str) -> Option<(&str, &str, bool)> {
    let mut parts = name.rsplitn(3, '.');
    let (cell, lane, head) = (parts.next()?, parts.next()?, parts.next()?);
    if head != "prof" && !head.ends_with(".prof") {
        return None;
    }
    match cell.strip_suffix("_ns") {
        Some(stage) => Some((lane, stage, true)),
        None => Some((lane, cell.strip_suffix("_calls")?, false)),
    }
}

// --- cluster.* (whole-run aggregates) ---------------------------------

/// Result latency (generation to emission) histogram of a cluster run.
pub const CLUSTER_RESULT_LATENCY_US: &str = "cluster.result_latency_us";
/// [`heartbeats`] summed over the run's locals.
pub const CLUSTER_HEARTBEATS: &str = "cluster.heartbeats";
/// CPU time of the thread that called `run_cluster`, nanoseconds: its
/// set-up before the node threads start and its report assembly after
/// they end (Linux only; absent elsewhere).
pub const CLUSTER_DRIVER_CPU_NS: &str = "cluster.driver_cpu_ns";
/// Prefix under which summed local-engine counters are published.
pub const CLUSTER_LOCAL_ENGINE_PREFIX: &str = "cluster.local_engine";
/// Raw events that reached the root (centralized baseline traffic).
pub const NET_ROOT_RAW_EVENTS: &str = "net.root.raw_events";
/// High-water count of slice partials the root's assemblers and unfixed
/// mergers retained for open windows.
pub const NET_ROOT_RETAINED_SLICES_MAX: &str = "net.root.retained_slices_max";
/// High-water count of bundles held by the suffix caches over them
/// (bound: [`ENGINE_ASSEMBLER_CACHED_BUNDLES`]).
pub const NET_ROOT_CACHED_BUNDLES_MAX: &str = "net.root.cached_bundles_max";

/// Prefix under which a harness merges one cluster run's snapshot into
/// its own registry, keyed by the system label (`desis`, `disco`, ...).
pub fn cluster_system_prefix(system_label: &str) -> String {
    format!("cluster.{system_label}.")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose_dotted_paths() {
        assert_eq!(ingress_bytes("root"), "net.root.ingress_bytes");
        assert_eq!(ingress_msgs("root", TAG_SLICE), "net.root.msgs.slice");
        assert_eq!(egress_bytes(7), "net.node7.egress_bytes");
        assert_eq!(heartbeats(7), "net.node7.heartbeats");
        assert_eq!(node_cpu_ns(7), "net.node7.cpu_ns");
        assert_eq!(trace_stage_us(3, "merge"), "trace.q3.merge_us");
        assert_eq!(engine_shard_events(2), "engine.shard2.events");
        assert_eq!(engine_shard_batches(0), "engine.shard0.batches");
        assert_eq!(
            engine_shard_inbox_depth_max(3),
            "engine.shard3.inbox_depth_max"
        );
        assert_eq!(queue_depth("root"), "net.root.queue_depth");
        assert_eq!(prof_stage_ns("shard0", "slicer"), "prof.shard0.slicer_ns");
        assert_eq!(
            prof_stage_calls("driver", "barrier"),
            "prof.driver.barrier_calls"
        );
        assert_eq!(cluster_system_prefix("desis"), "cluster.desis.");
    }

    #[test]
    fn prof_stage_names_parse_back_under_any_prefix() {
        let ns = prof_stage_ns("driver", "shard_merge");
        assert_eq!(parse_prof_stage(&ns), Some(("driver", "shard_merge", true)));
        let calls = format!("cluster.Desis.{}", prof_stage_calls("node1", "pace"));
        assert_eq!(parse_prof_stage(&calls), Some(("node1", "pace", false)));
        for other in ["engine.shard0.events", "prof.seq", "xprof.seq.drain_ns"] {
            assert_eq!(parse_prof_stage(other), None, "{other}");
        }
        assert_eq!(parse_prof_stage("prof.seq.drain_us"), None);
    }

    #[test]
    fn tag_list_is_exhaustive_and_distinct() {
        let mut tags = MSG_TAGS.to_vec();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), MSG_TAGS.len());
        assert!(!MSG_TAGS.contains(&TAG_OTHER));
    }
}
