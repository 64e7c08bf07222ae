//! Cross-crate integration tests for the decentralized substrate: every
//! distributed deployment must agree with a single-node reference, and
//! the paper's network-efficiency claims must hold end to end.

use desis::prelude::*;

fn canon(mut results: Vec<QueryResult>) -> Vec<QueryResult> {
    results.sort_by(|a, b| {
        (a.query, a.window_start, a.window_end, a.key).cmp(&(
            b.query,
            b.window_start,
            b.window_end,
            b.key,
        ))
    });
    results
}

fn assert_close(a: &[QueryResult], b: &[QueryResult], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            (x.query, x.key, x.window_start, x.window_end),
            (y.query, y.key, y.window_start, y.window_end),
            "{context}"
        );
        for (v, w) in x.values.iter().zip(&y.values) {
            match (v, w) {
                (Some(v), Some(w)) => {
                    assert!(
                        (v - w).abs() <= 1e-6 * (1.0 + v.abs()),
                        "{context}: {v} vs {w}"
                    )
                }
                (v, w) => assert_eq!(v, w, "{context}"),
            }
        }
    }
}

fn single_node_reference(queries: Vec<Query>, feeds: &[Vec<Event>]) -> Vec<QueryResult> {
    let mut all: Vec<Event> = feeds.iter().flatten().copied().collect();
    all.sort_by_key(|e| e.ts);
    let mut engine = AggregationEngine::new(queries).unwrap();
    let mut last = 0;
    for ev in &all {
        engine.on_event(ev);
        last = ev.ts;
    }
    engine.on_watermark(last + 60_000);
    canon(engine.drain_results())
}

fn feeds(locals: usize, n: usize) -> Vec<Vec<Event>> {
    (0..locals)
        .map(|i| {
            DataGenerator::new(DataGenConfig {
                keys: 5,
                events_per_second: 2_000,
                seed: 100 + i as u64,
                ..Default::default()
            })
            .take(n)
            .collect()
        })
        .collect()
}

fn mixed_queries() -> Vec<Query> {
    vec![
        Query::new(
            1,
            WindowSpec::tumbling_time(1_000).unwrap(),
            AggFunction::Average,
        ),
        Query::new(
            2,
            WindowSpec::sliding_time(2_000, 500).unwrap(),
            AggFunction::Max,
        ),
        Query::new(
            3,
            WindowSpec::tumbling_time(2_000).unwrap(),
            AggFunction::Median,
        ),
        Query::new(
            4,
            WindowSpec::tumbling_count(700).unwrap(),
            AggFunction::Sum,
        ),
    ]
}

/// Every distributed system over every topology shape must match the
/// single-node reference, including the holistic and count-based groups.
#[test]
fn all_deployments_match_single_node_reference() {
    let queries = mixed_queries();
    for topology in [
        Topology::star(3),
        Topology::three_tier(1, 3),
        Topology::three_tier(3, 1),
        Topology::chain(2),
    ] {
        let locals = topology.nodes_with_role(NodeRole::Local).len();
        let f = feeds(locals, 10_000);
        let reference = single_node_reference(queries.clone(), &f);
        assert!(!reference.is_empty());
        for system in [
            DistributedSystem::Desis,
            DistributedSystem::Disco,
            DistributedSystem::Centralized(SystemKind::Scotty),
            DistributedSystem::Centralized(SystemKind::CeBuffer),
        ] {
            let cfg = ClusterConfig::new(system, queries.clone(), topology.clone());
            let report = run_cluster(cfg, f.clone()).unwrap();
            assert_close(
                &canon(report.results),
                &reference,
                &format!("{} on {} nodes", system.label(), topology.len()),
            );
        }
    }
}

/// Session windows merged across decentralized streams (Section 5.1.2)
/// must match the single-node session over the merged stream.
#[test]
fn decentralized_sessions_match_reference() {
    let queries = vec![Query::new(
        1,
        WindowSpec::session(500).unwrap(),
        AggFunction::Count,
    )];
    let f: Vec<Vec<Event>> = (0..2)
        .map(|i| {
            DataGenerator::new(DataGenConfig {
                keys: 2,
                events_per_second: 1_000,
                bursts: Some(desis::gen::BurstConfig {
                    burst_ms: 1_200,
                    gap_ms: 900,
                }),
                seed: 55 + i as u64,
                ..Default::default()
            })
            .take(8_000)
            .collect()
        })
        .collect();
    let reference = single_node_reference(queries.clone(), &f);
    let cfg = ClusterConfig::new(
        DistributedSystem::Desis,
        queries,
        Topology::three_tier(1, 2),
    );
    let report = run_cluster(cfg, f).unwrap();
    assert_close(&canon(report.results), &reference, "decentralized sessions");
}

/// The Figure 11a headline: decomposable decentralized aggregation saves
/// ~99% of network traffic against a centralized deployment.
#[test]
fn decomposable_aggregation_saves_99_percent_traffic() {
    let queries = vec![Query::new(
        1,
        WindowSpec::tumbling_time(1_000).unwrap(),
        AggFunction::Average,
    )];
    let f: Vec<Vec<Event>> = (0..2)
        .map(|i| {
            (0..200_000u64)
                .map(|j| Event::new(j / 50, (j % 10) as u32, j as f64 * 0.37))
                .map(move |mut e| {
                    e.ts += i as u64;
                    e
                })
                .collect()
        })
        .collect();
    let topo = Topology::three_tier(1, 2);
    let desis = run_cluster(
        ClusterConfig::new(DistributedSystem::Desis, queries.clone(), topo.clone()),
        f.clone(),
    )
    .unwrap();
    let central = run_cluster(
        ClusterConfig::new(
            DistributedSystem::Centralized(SystemKind::Scotty),
            queries,
            topo,
        ),
        f,
    )
    .unwrap();
    let saving = 1.0 - desis.total_bytes() as f64 / central.total_bytes() as f64;
    assert!(
        saving > 0.99,
        "expected >99% saving, got {:.3}% ({} vs {})",
        saving * 100.0,
        desis.total_bytes(),
        central.total_bytes()
    );
}

/// Deep chains multiply centralized traffic (every hop re-sends all
/// events) but barely affect Desis (Section 6.4.1).
#[test]
fn chain_topology_multiplies_centralized_traffic_only() {
    let queries = vec![Query::new(
        1,
        WindowSpec::tumbling_time(1_000).unwrap(),
        AggFunction::Sum,
    )];
    let feed: Vec<Event> = (0..50_000u64)
        .map(|i| Event::new(i / 10, (i % 5) as u32, i as f64))
        .collect();
    let measure = |system, hops| {
        let cfg = ClusterConfig::new(system, queries.clone(), Topology::chain(hops));
        run_cluster(cfg, vec![feed.clone()]).unwrap().total_bytes()
    };
    let central_1 = measure(DistributedSystem::Centralized(SystemKind::Scotty), 1);
    let central_3 = measure(DistributedSystem::Centralized(SystemKind::Scotty), 3);
    // chain(h) has h+1 links, each carrying every event: 4 links vs 2.
    assert!(central_3 as f64 > central_1 as f64 * 1.8);
    let desis_3 = measure(DistributedSystem::Desis, 3);
    assert!(desis_3 * 100 < central_3, "{desis_3} vs {central_3}");
}

/// Latency and throughput reporting are populated.
#[test]
fn cluster_report_metrics_populated() {
    let queries = vec![Query::new(
        1,
        WindowSpec::tumbling_time(500).unwrap(),
        AggFunction::Average,
    )];
    let cfg = ClusterConfig::new(DistributedSystem::Desis, queries, Topology::star(2));
    let report = run_cluster(cfg, feeds(2, 20_000)).unwrap();
    assert_eq!(report.events, 40_000);
    assert!(report.throughput() > 0.0);
    assert!(!report.latencies_ms.is_empty());
    assert!(report.bytes_for_role(NodeRole::Local) > 0);
    assert_eq!(report.local_metrics.events, 40_000);
}

/// A sharded local's shard instruments reach the report: the run's
/// registry, not a private one, is what its `ShardedSlicer` counts into
/// and publishes to.
#[test]
fn sharded_locals_report_their_shard_instruments() {
    use desis::core::obs::names;
    let mut cfg = ClusterConfig::new(DistributedSystem::Desis, mixed_queries(), Topology::star(2));
    cfg.shards = 2;
    let report = run_cluster(cfg, feeds(2, 10_000)).unwrap();
    assert_eq!(report.events, 20_000);
    let counters = &report.metrics.counters;
    let sent: u64 = (0..2)
        .map(|s| counters[&names::engine_shard_events(s)])
        .sum();
    assert_eq!(sent, 20_000, "both locals' shards add up to the events");
    assert!(counters[&names::engine_shard_batches(0)] > 0);
    assert_eq!(counters[names::ENGINE_SHARD_PANICS], 0);
    let gauges = &report.metrics.gauges;
    assert!(gauges.contains_key(names::ENGINE_SHARD_IMBALANCE_PERMILLE));
}

/// Two runs in one process share nothing: profiling is a property of the
/// registry a run is handed, so a profiled and an unprofiled run of the
/// same input — engine or cluster — give the same results, only the
/// profiled one holds `prof.*` instruments, and those hold its own lanes.
#[test]
fn profiled_and_unprofiled_runs_share_nothing() {
    use desis::core::obs::prof::ProfClock;
    use std::sync::Arc;
    let has_prof = |snap: &MetricsSnapshot| snap.counters.keys().any(|k| k.starts_with("prof."));

    let events = feeds(1, 5_000).remove(0);
    let run_engine = |registry: Arc<MetricsRegistry>| {
        let analyzer = QueryAnalyzer::default();
        let mut engine =
            AggregationEngine::with_registry(mixed_queries(), analyzer, registry).unwrap();
        for ev in &events {
            engine.on_event(ev);
        }
        engine.on_watermark(events.last().unwrap().ts + 60_000);
        let results = engine.drain_results();
        engine.metrics();
        (results, engine.registry().snapshot())
    };
    let (plain, plain_snap) = run_engine(Arc::new(MetricsRegistry::new()));
    let (timed, timed_snap) = run_engine(Arc::new(MetricsRegistry::profiled(ProfClock::wall())));
    assert_eq!(timed, plain, "profiling must not perturb results");
    assert!(!has_prof(&plain_snap));
    assert!(timed_snap.counters["prof.seq.slicer_ns"] > 0);
    assert_eq!(
        timed_snap.counters["prof.seq.slicer_calls"],
        events.len() as u64 + 1,
        "one slicer span per event and one for the watermark"
    );

    let run = |profile: Option<ProfClock>| {
        let mut cfg =
            ClusterConfig::new(DistributedSystem::Desis, mixed_queries(), Topology::star(2));
        cfg.profile = profile;
        run_cluster(cfg, feeds(2, 5_000)).unwrap()
    };
    let (plain, timed) = (run(None), run(Some(ProfClock::wall())));
    assert_eq!(timed.results, plain.results);
    assert_eq!(timed.bytes_by_node, plain.bytes_by_node);
    assert!(!has_prof(&plain.metrics));
    for name in [
        "prof.node1.ingest_ns",
        "prof.node2.ingest_ns",
        "prof.root.handler_ns",
    ] {
        assert!(timed.metrics.counters[name] > 0, "{name}");
    }
    assert_eq!(timed.metrics.counters["prof.node1.ingest_calls"], 5_000);
}

/// Checks the causal trace of one traced cluster run: every chain is
/// time-monotone, and every chain that emitted a result is a complete
/// `SliceCreated → … → ResultEmitted` provenance chain carrying every
/// span kind of the journey, having crossed at least `links` links and
/// been recorded on at least `nodes` nodes. Returns the queries that
/// emitted through such a chain.
fn assert_result_chains_complete(
    timeline: &TraceTimeline,
    links: usize,
    nodes: usize,
) -> std::collections::BTreeSet<u64> {
    assert_eq!(timeline.dropped, 0);
    let mut emitted = std::collections::BTreeSet::new();
    for chain in &timeline.chains {
        for pair in chain.events.windows(2) {
            assert!(
                pair[0].at <= pair[1].at,
                "non-monotone timestamps in chain {}",
                chain.trace
            );
        }
        let Some(query) = chain.result_query() else {
            // Slices that only rode along inside a merge (the merged
            // window carries one representative id) end mid-journey.
            continue;
        };
        emitted.insert(query);
        let names: Vec<&str> = chain.events.iter().map(|e| e.kind.name()).collect();
        assert!(
            chain.is_complete(),
            "incomplete result chain {} of query {query}: {names:?}",
            chain.trace
        );
        for required in [
            "SliceCreated",
            "SliceSealed",
            "SliceEncoded",
            "LinkSend",
            "LinkRecv",
            "MergeStart",
            "MergeDone",
            "WindowAssembled",
            "ResultEmitted",
        ] {
            assert!(
                names.contains(&required),
                "chain {} missing {required}: {names:?}",
                chain.trace
            );
        }
        let recvs = names.iter().filter(|n| **n == "LinkRecv").count();
        assert!(
            recvs >= links,
            "chain {} crossed {recvs} links",
            chain.trace
        );
        let on: std::collections::BTreeSet<u32> = chain.events.iter().map(|e| e.node).collect();
        assert!(on.len() >= nodes, "chain {} nodes: {on:?}", chain.trace);
    }
    emitted
}

/// Causal slice tracing with 1/1 sampling: every emitted result's trace
/// id resolves to a complete provenance chain — for a tumbling query
/// through a leaf → intermediate → root cluster (aligned merge, both
/// link levels), and for a session and a user-defined query through the
/// root's unfixed merge on a star, the same bar the sharded path sets
/// for the merger it shares.
#[test]
fn trace_chains_are_complete_across_cluster_levels() {
    let queries = vec![Query::new(
        1,
        WindowSpec::tumbling_time(500).unwrap(),
        AggFunction::Average,
    )];
    let collector = TraceCollector::new(1, 1 << 16);
    let mut cfg = ClusterConfig::new(
        DistributedSystem::Desis,
        queries,
        Topology::three_tier(1, 2),
    );
    cfg.trace = Some(collector.clone());
    let mk = |offset: u64| -> Vec<Event> {
        (0..2_000u64)
            .map(|i| Event::new(i * 5 + offset, (i % 3) as u32, i as f64))
            .collect()
    };
    let report = run_cluster(cfg, vec![mk(0), mk(1)]).unwrap();
    assert!(!report.results.is_empty());
    let timeline = collector.drain_timeline();
    let emitted = assert_result_chains_complete(&timeline, 2, 3);
    assert!(emitted.contains(&1), "no result-bearing chains");

    // Stage breakdowns land in per-query latency histograms.
    let registry = MetricsRegistry::new();
    timeline.publish(&registry);
    let snap = registry.snapshot();
    assert!(snap.histograms["trace.q1.total_us"].count > 0);
    assert_eq!(snap.counters["trace.dropped_events"], 0);

    let queries = vec![
        Query::new(1, WindowSpec::session(200).unwrap(), AggFunction::Max),
        Query::new(2, WindowSpec::user_defined(0), AggFunction::Sum),
    ];
    let collector = TraceCollector::new(1, 1 << 16);
    let mut cfg = ClusterConfig::new(DistributedSystem::Desis, queries, Topology::star(2));
    cfg.trace = Some(collector.clone());
    let report = run_cluster(
        cfg,
        vec![marked_gapped_feed(0, 900), marked_gapped_feed(1, 900)],
    )
    .unwrap();
    for query in [1, 2] {
        assert!(
            report.results.iter().any(|r| r.query == query),
            "query {query} emitted nothing"
        );
    }
    let emitted = assert_result_chains_complete(&collector.drain_timeline(), 1, 2);
    assert_eq!(emitted.into_iter().collect::<Vec<_>>(), vec![1, 2]);
}

/// Local `local`'s stream of `n` events, 10 ms apart on its own 5 ms
/// phase, with a 500 ms silence every 150 events (closing sessions of a
/// shorter gap mid-stream) and Start/End markers on channel 0 every 400
/// events. Both locals place their markers at the *same* instants, and
/// local 1 carries them on extra zero-valued events: merged by
/// timestamp, the union stream then opens and closes the same
/// user-defined windows, with the same sums, as the root's merge of each
/// local's k-th window.
fn marked_gapped_feed(local: u64, n: u64) -> Vec<Event> {
    let mut events = Vec::new();
    for i in 0..n {
        let base = i * 10 + (i / 150) * 500;
        let key = (i % 10) as u32;
        let kind = match i % 400 {
            50 => Some(MarkerKind::Start),
            250 => Some(MarkerKind::End),
            _ => None,
        };
        let marker = kind.map(|kind| Marker { channel: 0, kind });
        let value = (i % 7) as f64;
        match (marker, local) {
            (Some(marker), 0) => events.push(Event::with_marker(base, key, value, marker)),
            (Some(marker), _) => {
                events.push(Event::with_marker(base, key, 0.0, marker));
                events.push(Event::new(base + 5, key, value));
            }
            (None, _) => events.push(Event::new(base + 5 * local, key, value)),
        }
    }
    events
}

/// The tier-1 command reaches the fault path of the net crate: fixed,
/// session and user-defined queries (one mixed group at the root) under
/// a recoverable drop + duplicate plan on a local's uplink produce the
/// fault-free results byte for byte, which in turn match the single-node
/// engine over the merged stream — on a star and through an
/// intermediate, with sequential and 4-shard locals.
#[test]
fn recoverable_faults_leave_mixed_results_unchanged() {
    let queries = vec![
        Query::new(
            1,
            WindowSpec::tumbling_time(1_000).unwrap(),
            AggFunction::Sum,
        ),
        Query::new(2, WindowSpec::session(250).unwrap(), AggFunction::Max),
        Query::new(3, WindowSpec::user_defined(0), AggFunction::Sum),
    ];
    let f = vec![marked_gapped_feed(0, 900), marked_gapped_feed(1, 900)];
    let reference = single_node_reference(queries.clone(), &f);
    for query in 1..=3 {
        assert!(reference.iter().any(|r| r.query == query), "query {query}");
    }
    for topology in [Topology::star(2), Topology::three_tier(1, 2)] {
        let local = topology.nodes_with_role(NodeRole::Local)[0];
        for shards in [1, 4] {
            let run = |faults: Option<FaultPlan>| {
                let mut cfg =
                    ClusterConfig::new(DistributedSystem::Desis, queries.clone(), topology.clone());
                cfg.recovery.nack_grace = std::time::Duration::from_millis(30);
                cfg.shards = shards;
                cfg.faults = faults;
                run_cluster(cfg, f.clone()).unwrap()
            };
            let context = format!("{} nodes, {shards} shards", topology.len());
            let clean = run(None);
            assert_eq!(canon(clean.results.clone()), reference, "{context}");
            let plan = FaultPlan::new(7)
                .with_link_fault(local, LinkFaultKind::Drop, 2, 3)
                .with_link_fault(local, LinkFaultKind::Duplicate, 5, 8);
            let faulty = run(Some(plan));
            assert!(
                !faulty.faults_injected.is_empty(),
                "{context}: no fault fired"
            );
            assert!(faulty.lost_children.is_empty(), "{context}");
            assert_eq!(faulty.results, clean.results, "{context}");
        }
    }
}

/// [`marked_gapped_feed`] with seeded small-integer noise added to every
/// value the union-stream equivalence allows to vary (local 1's marker
/// carriers stay zero-valued).
fn seeded_marked_feed(local: u64, n: u64, seed: u64) -> Vec<Event> {
    let mut state = seed ^ (local + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut events = marked_gapped_feed(local, n);
    for ev in &mut events {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        if local == 0 || ev.marker.is_none() {
            ev.value += (state % 16) as f64;
        }
    }
    events
}

fn fnv1a64(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One link of the wire transcript: everything its sender put on the
/// wire, as `(frames, bytes, FNV-1a-64 over the concatenated frames)`.
struct TappedLink {
    tx: desis::net::link::LinkSender,
    rx: desis::net::link::LinkReceiver,
    stats: std::sync::Arc<desis::net::link::LinkStats>,
    codec: CodecKind,
    frames: u64,
    bytes: u64,
    hash: u64,
}

impl TappedLink {
    fn new(codec: CodecKind) -> Self {
        let (tx, rx, stats) = desis::net::link::link(codec, 1 << 12, None);
        Self {
            tx,
            rx,
            stats,
            codec,
            frames: 0,
            bytes: 0,
            hash: FNV_OFFSET,
        }
    }

    /// The next frame the sender queued, if any. The receiver hands out
    /// decoded messages only, so the frame is rebuilt from the message
    /// and its sequence number (frames are a pure function of the two);
    /// [`Self::transcript`] checks the rebuilt bytes against the link's
    /// own byte counter.
    fn next(&mut self) -> Option<Message> {
        if self.frames == self.stats.messages() {
            return None;
        }
        let msg = self.rx.recv().expect("sender alive").expect("clean frame");
        let frame = self.codec.encode_seq(&msg, self.frames);
        self.frames += 1;
        self.bytes += frame.len() as u64;
        fnv1a64(&mut self.hash, &frame);
        Some(msg)
    }

    fn transcript(&self) -> (u64, u64, u64) {
        assert_eq!(self.frames, self.stats.messages());
        assert_eq!(self.bytes, self.stats.bytes(), "rebuilt frames differ");
        (self.frames, self.bytes, self.hash)
    }
}

/// `(results, FNV-1a-64 over their canonical rendering)`.
fn results_digest(results: &[QueryResult]) -> (usize, u64) {
    let mut hash = FNV_OFFSET;
    for r in results {
        let values: Vec<Option<u64>> = r.values.iter().map(|v| v.map(f64::to_bits)).collect();
        let line = format!(
            "{} {} {} {} {values:?}\n",
            r.query, r.key, r.window_start, r.window_end
        );
        fnv1a64(&mut hash, line.as_bytes());
    }
    (results.len(), hash)
}

/// Pins the wire: `LocalWorker` ×2 → `IntermediateWorker` → `RootWorker`
/// on `three_tier(1, 2)`, driven on one thread (every link drained after
/// every event, so the schedule is fixed), must put exactly the recorded
/// frames on each of the three links and produce exactly the recorded
/// results — for Desis, Disco and the centralized Scotty baseline. The
/// constants were recorded from this test on the code of PR 14; a change
/// to them is a change of the wire protocol or of results. (The three
/// `intermediate` links were re-recorded in PR 24, 4 `Events` frames more
/// each: both locals carry their markers at the same instants, five of
/// which local 0 also sends its grid watermark *at*, and the
/// intermediate's `EventMerger` no longer forwards local 1's event of
/// such an instant while local 0 may still add to it. Same events, same
/// order, same results; the locals' links did not move.)
#[test]
fn worker_wire_transcript_is_pinned() {
    use desis::net::node::{analyze_for, IntermediateWorker, LocalWorker, RootWorker};

    type Link = (u64, u64, u64);
    struct Pinned {
        system: DistributedSystem,
        queries: Vec<Query>,
        locals: [Link; 2],
        intermediate: Link,
        results: (usize, u64),
    }
    let fixed = mixed_queries();
    let mut all = fixed.clone();
    all.push(Query::new(
        5,
        WindowSpec::session(250).unwrap(),
        AggFunction::Max,
    ));
    all.push(Query::new(6, WindowSpec::user_defined(0), AggFunction::Sum));
    let pinned = [
        Pinned {
            system: DistributedSystem::Desis,
            queries: all.clone(),
            locals: [
                (123, 30_219, 12305459716169122039),
                (123, 30_318, 8777263300021641076),
            ],
            intermediate: (233, 60_466, 1304290562843795239),
            results: (870, 8758588666651438953),
        },
        // Disco ships per-window partials keyed by window range, which
        // cannot merge data-driven windows across streams: fixed only.
        Pinned {
            system: DistributedSystem::Disco,
            queries: fixed,
            locals: [
                (135, 35_259, 8490938443825535600),
                (135, 35_378, 5075666609732361505),
            ],
            intermediate: (173, 57_880, 9936669114250244467),
            results: (730, 13551523760188392771),
        },
        Pinned {
            system: DistributedSystem::Centralized(SystemKind::Scotty),
            queries: all,
            locals: [
                (51, 18_942, 1644316457697413408),
                (51, 19_041, 7266580636548109149),
            ],
            intermediate: (89, 37_807, 6823332382532674370),
            results: (870, 8758588666651438953),
        },
    ];

    let topology = Topology::three_tier(1, 2);
    let local_ids = topology.nodes_with_role(NodeRole::Local);
    let inter_id = topology.nodes_with_role(NodeRole::Intermediate)[0];
    let feeds: Vec<Vec<Event>> = (0..2).map(|l| seeded_marked_feed(l, 1_500, 42)).collect();
    for pin in pinned {
        let label = pin.system.label();
        let codec = match pin.system {
            DistributedSystem::Disco => CodecKind::Text,
            _ => CodecKind::Binary,
        };
        let groups = analyze_for(pin.system, pin.queries.clone()).unwrap();
        let mut locals: Vec<(LocalWorker, TappedLink)> = local_ids
            .iter()
            .map(|id| {
                (
                    LocalWorker::new(*id, pin.system, &groups, 64, 1_000),
                    TappedLink::new(codec),
                )
            })
            .collect();
        let mut inter =
            IntermediateWorker::new(inter_id, pin.system, &groups, 2, local_ids.clone());
        let mut uplink = TappedLink::new(codec);
        let mut root =
            RootWorker::new(pin.system, &groups, &pin.queries, 2, vec![inter_id]).unwrap();
        let mut results = Vec::new();

        let longest = feeds.iter().map(Vec::len).max().unwrap();
        for step in 0..=longest {
            for (l, feed) in feeds.iter().enumerate() {
                let (worker, link) = &mut locals[l];
                match feed.get(step) {
                    Some(ev) => assert!(worker.on_event(ev, &mut link.tx)),
                    None if step == feed.len() => assert!(worker.finish(10_000, &mut link.tx)),
                    None => {}
                }
                while let Some(msg) = link.next() {
                    assert!(inter.on_message(local_ids[l], msg, &mut uplink.tx));
                    while let Some(msg) = uplink.next() {
                        root.on_message(inter_id, msg);
                        results.append(&mut root.drain_results());
                    }
                }
            }
        }
        assert!(inter.finished() && root.finished(), "{label}");
        let results = canon(results);
        let reference = single_node_reference(pin.queries.clone(), &feeds);
        assert_close(&results, &reference, label);

        let got_locals = [locals[0].1.transcript(), locals[1].1.transcript()];
        assert_eq!(got_locals, pin.locals, "{label}: local uplinks");
        assert_eq!(
            uplink.transcript(),
            pin.intermediate,
            "{label}: intermediate uplink"
        );
        assert_eq!(results_digest(&results), pin.results, "{label}: results");
    }
}
