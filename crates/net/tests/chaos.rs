//! Chaos regression suite: the fig6a topology (a root and one local,
//! single 1 s tumbling average) run under every fault class of the
//! deterministic fault-injection layer.
//!
//! The contract under test (DESIGN.md §2.9):
//!
//! * **recoverable** plans — drops, duplicates, corruption, and delays
//!   within the retry budget on any single link — produce results
//!   *byte-identical* to the fault-free run, with no lost children;
//! * **unrecoverable** plans — a node crash — still complete: the child
//!   lands in `lost_children`, is flushed exactly once, and the
//!   `net.fault.*` / `net.recovery.*` counters match the plan;
//! * the same `--fault-seed` and plan place exactly the same faults
//!   (`ClusterReport::faults_injected` is reproducible).

use desis_core::aggregate::AggFunction;
use desis_core::event::{Event, Marker, MarkerKind};
use desis_core::predicate::Predicate;
use desis_core::query::Query;
use desis_core::window::WindowSpec;
use desis_net::fault::NodeFaultKind;
use desis_net::prelude::*;

/// The fig6a cluster: `Topology::star(1)` (root 0, local 1), one 1 s
/// tumbling average over 10 keys. Unpaced — chaos runs care about
/// results, not latency.
fn fig6a_cfg() -> ClusterConfig {
    let queries = vec![Query::new(
        1,
        WindowSpec::tumbling_time(1_000).expect("valid window"),
        AggFunction::Average,
    )];
    let mut cfg = ClusterConfig::new(DistributedSystem::Desis, queries, Topology::star(1));
    // Tight grace keeps the retransmit round-trips short in tests.
    cfg.recovery.nack_grace = std::time::Duration::from_millis(30);
    cfg
}

/// A deterministic feed spanning `seconds` seconds of event time.
fn feed(seconds: u64) -> Vec<Event> {
    (0..seconds * 100)
        .map(|i| Event::new(i * 10, (i % 10) as u32, (i % 7) as f64))
        .collect()
}

/// Byte-comparable fingerprint of the query results.
fn fingerprint(report: &desis_net::cluster::ClusterReport) -> String {
    format!("{:?}", report.results)
}

fn run_with(plan: Option<FaultPlan>) -> desis_net::cluster::ClusterReport {
    let mut cfg = fig6a_cfg();
    cfg.faults = plan;
    run_cluster(cfg, vec![feed(20)]).expect("cluster run completes")
}

#[test]
fn recoverable_drop_matches_fault_free_run() {
    let clean = run_with(None);
    assert!(!clean.results.is_empty());
    let plan = FaultPlan::new(11).with_link_fault(1, LinkFaultKind::Drop, 2, 4);
    let faulty = run_with(Some(plan));
    assert_eq!(
        fingerprint(&faulty),
        fingerprint(&clean),
        "drops within the retry budget must not change results"
    );
    assert!(faulty.lost_children.is_empty());
    assert_eq!(faulty.metrics.counters["net.fault.dropped"], 3);
    assert!(faulty.metrics.counters["net.recovery.gaps"] >= 1);
    assert!(faulty.metrics.counters["net.recovery.recovered"] >= 1);
    assert_eq!(faulty.metrics.counters["net.recovery.lost"], 0);
}

#[test]
fn recoverable_corruption_matches_fault_free_run() {
    let clean = run_with(None);
    let plan = FaultPlan::new(5).with_link_fault(1, LinkFaultKind::Corrupt, 3, 3);
    let faulty = run_with(Some(plan));
    assert_eq!(fingerprint(&faulty), fingerprint(&clean));
    assert!(faulty.lost_children.is_empty());
    assert_eq!(faulty.metrics.counters["net.fault.corrupted"], 1);
    assert_eq!(faulty.metrics.counters["net.root.decode_errors"], 1);
    assert!(faulty.metrics.counters["net.recovery.recovered"] >= 1);
    assert_eq!(faulty.metrics.counters["net.recovery.lost"], 0);
}

#[test]
fn recoverable_duplicates_match_fault_free_run() {
    let clean = run_with(None);
    let plan = FaultPlan::new(3).with_link_fault(1, LinkFaultKind::Duplicate, 0, 5);
    let faulty = run_with(Some(plan));
    assert_eq!(
        fingerprint(&faulty),
        fingerprint(&clean),
        "duplicates must be delivered exactly once"
    );
    assert!(faulty.lost_children.is_empty());
    assert_eq!(faulty.metrics.counters["net.fault.duplicated"], 6);
    assert_eq!(
        faulty.metrics.counters["net.recovery.duplicates_dropped"],
        6
    );
    assert_eq!(faulty.metrics.counters["net.recovery.lost"], 0);
}

#[test]
fn recoverable_delays_match_fault_free_run() {
    let clean = run_with(None);
    let plan = FaultPlan::new(9).with_link_fault(1, LinkFaultKind::Delay { ms: 15 }, 0, 3);
    let faulty = run_with(Some(plan));
    assert_eq!(fingerprint(&faulty), fingerprint(&clean));
    assert!(faulty.lost_children.is_empty());
    assert_eq!(faulty.metrics.counters["net.fault.delayed"], 4);
    assert_eq!(faulty.metrics.counters["net.recovery.gaps"], 0);
    assert_eq!(faulty.metrics.counters["net.recovery.lost"], 0);
}

#[test]
fn node_crash_is_reported_and_flushed_exactly_once() {
    let plan = FaultPlan::new(1).with_node_fault(1, NodeFaultKind::Crash, 10_000);
    let report = run_with(Some(plan));
    assert_eq!(
        report.lost_children,
        vec![1],
        "the crashed local must be reported lost"
    );
    assert_eq!(report.metrics.counters["net.fault.crashes"], 1);
    assert_eq!(
        report.metrics.counters["net.recovery.lost"], 1,
        "lost exactly once — the on-behalf flush is not repeated"
    );
    // The run still completed and emitted the windows that closed before
    // the crash (degraded, documented behavior — not byte-identical).
    assert!(!report.results.is_empty());
    let clean = run_with(None);
    assert_ne!(fingerprint(&report), fingerprint(&clean));
}

#[test]
fn same_seed_places_identical_faults() {
    let plan = |seed: u64| {
        let mut p = FaultPlan::new(seed).with_link_fault(1, LinkFaultKind::Drop, 0, 30);
        p.links[0].prob = 0.4;
        p
    };
    let a = run_with(Some(plan(42)));
    let b = run_with(Some(plan(42)));
    assert!(
        !a.faults_injected.is_empty(),
        "p=0.4 over 31 frames should fire at least once"
    );
    assert_eq!(
        a.faults_injected, b.faults_injected,
        "same seed + same plan must place exactly the same faults"
    );
    let c = run_with(Some(plan(43)));
    assert_ne!(
        a.faults_injected, c.faults_injected,
        "a different seed must move probabilistic faults"
    );
}

#[test]
fn json_plan_files_drive_runs() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../plans");
    let recoverable = std::fs::read_to_string(format!("{dir}/recoverable_drop.json"))
        .expect("plans/recoverable_drop.json exists");
    let clean = run_with(None);
    let faulty = run_with(Some(
        FaultPlan::from_json(&recoverable).expect("valid plan"),
    ));
    assert_eq!(fingerprint(&faulty), fingerprint(&clean));
    assert!(faulty.lost_children.is_empty());

    let crash = std::fs::read_to_string(format!("{dir}/crash_local.json"))
        .expect("plans/crash_local.json exists");
    let lost = run_with(Some(FaultPlan::from_json(&crash).expect("valid plan")));
    assert_eq!(lost.lost_children, vec![1]);
}

#[test]
fn invalid_plans_are_rejected_before_the_run() {
    // The root (node 0 in a star) has no uplink to fault.
    let mut cfg = fig6a_cfg();
    cfg.faults = Some(FaultPlan::new(0).with_link_fault(0, LinkFaultKind::Drop, 0, 1));
    let err = run_cluster(cfg, vec![feed(1)]).expect_err("plan must be rejected");
    assert!(err.to_string().contains("fault plan"), "got: {err}");
}

#[test]
fn stalled_local_goes_suspect_and_clears() {
    // Two locals; one stalls for 300 ms mid-stream. The healthy sibling
    // races ahead in event time, so the stalled child's watermark lags
    // past the suspect threshold, then catches up when it resumes.
    let queries = vec![Query::new(
        1,
        WindowSpec::tumbling_time(1_000).expect("valid window"),
        AggFunction::Average,
    )];
    let mut cfg = ClusterConfig::new(DistributedSystem::Desis, queries, Topology::star(2));
    cfg.recovery.nack_grace = std::time::Duration::from_millis(30);
    cfg.faults =
        Some(FaultPlan::new(0).with_node_fault(1, NodeFaultKind::Stall { ms: 300 }, 1_500));
    let report = run_cluster(cfg, vec![feed(30), feed(30)]).expect("cluster run completes");
    assert!(report.lost_children.is_empty(), "a stall is not a loss");
    assert_eq!(report.metrics.counters["net.fault.stalls"], 1);
    assert!(
        report.metrics.counters["net.recovery.suspects"] >= 1,
        "the stalled child's watermark lag must trip suspicion"
    );
    // Results match a stall-free run: a stall only delays, never loses.
    let mut clean_cfg = ClusterConfig::new(
        DistributedSystem::Desis,
        vec![Query::new(
            1,
            WindowSpec::tumbling_time(1_000).expect("valid window"),
            AggFunction::Average,
        )],
        Topology::star(2),
    );
    clean_cfg.recovery.nack_grace = std::time::Duration::from_millis(30);
    let clean = run_cluster(clean_cfg, vec![feed(30), feed(30)]).expect("clean run");
    assert_eq!(fingerprint(&report), fingerprint(&clean));
}

/// A mixed-workload fig6a cluster: one query of every window class —
/// fixed tumbling average, session max, predicate-filtered count sum,
/// and a user-defined count — so every window class crosses the faulty
/// link.
fn mixed_cfg() -> ClusterConfig {
    let queries = vec![
        Query::new(
            1,
            WindowSpec::tumbling_time(1_000).expect("valid window"),
            AggFunction::Average,
        ),
        Query::new(
            2,
            WindowSpec::session(250).expect("valid window"),
            AggFunction::Max,
        ),
        Query::new(
            3,
            WindowSpec::tumbling_count(64).expect("valid window"),
            AggFunction::Sum,
        )
        .filtered(Predicate::ValueAbove(2.0)),
        Query::new(4, WindowSpec::user_defined(3), AggFunction::Count),
    ];
    let mut cfg = ClusterConfig::new(DistributedSystem::Desis, queries, Topology::star(1));
    cfg.recovery.nack_grace = std::time::Duration::from_millis(30);
    cfg
}

/// `feed`, with session gaps (a 500 ms jump every 150 events, so the
/// 250 ms session gap closes spans mid-stream) and Start/End markers on
/// channel 3 so the user-defined windows open and close repeatedly.
fn marked_feed(seconds: u64) -> Vec<Event> {
    (0..seconds * 100)
        .map(|i| {
            let ts = i * 10 + (i / 150) * 500;
            let key = (i % 10) as u32;
            let value = (i % 7) as f64;
            match i % 400 {
                50 => Event::with_marker(
                    ts,
                    key,
                    value,
                    Marker {
                        channel: 3,
                        kind: MarkerKind::Start,
                    },
                ),
                250 => Event::with_marker(
                    ts,
                    key,
                    value,
                    Marker {
                        channel: 3,
                        kind: MarkerKind::End,
                    },
                ),
                _ => Event::new(ts, key, value),
            }
        })
        .collect()
}

fn run_mixed(plan: Option<FaultPlan>) -> desis_net::cluster::ClusterReport {
    let mut cfg = mixed_cfg();
    cfg.faults = plan;
    run_cluster(cfg, vec![marked_feed(20)]).expect("cluster run completes")
}

#[test]
fn mixed_workload_survives_recoverable_faults() {
    let clean = run_mixed(None);
    for query in 1..=4u64 {
        assert!(
            clean.results.iter().any(|r| r.query == query),
            "query {query} must emit results in the mixed run"
        );
    }
    for (name, plan) in [
        (
            "drop",
            FaultPlan::new(11).with_link_fault(1, LinkFaultKind::Drop, 2, 4),
        ),
        (
            "duplicate",
            FaultPlan::new(3).with_link_fault(1, LinkFaultKind::Duplicate, 0, 5),
        ),
        (
            "corrupt",
            FaultPlan::new(5).with_link_fault(1, LinkFaultKind::Corrupt, 3, 3),
        ),
    ] {
        let faulty = run_mixed(Some(plan));
        assert_eq!(
            fingerprint(&faulty),
            fingerprint(&clean),
            "recoverable {name} must not change mixed results"
        );
        assert!(faulty.lost_children.is_empty());
        assert_eq!(faulty.metrics.counters["net.recovery.lost"], 0);
    }
}
