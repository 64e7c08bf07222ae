//! Cluster simulation: one OS thread per node, channel links with real
//! serialization, per-node byte accounting, and event-time latency
//! sampling (paper Section 6.1).
//!
//! The cluster runs to completion over finite per-local event feeds and
//! returns a [`ClusterReport`] with the measurements the paper's
//! decentralized experiments plot: throughput, per-node network bytes,
//! and event-time latency.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rustc_hash::FxHashMap;

use desis_core::engine::{GroupId, QueryGroup};
use desis_core::error::DesisError;
use desis_core::event::Event;
use desis_core::metrics::EngineMetrics;
use desis_core::obs::prof::{self, ProfClock, Stage};
use desis_core::obs::trace::TraceCollector;
use desis_core::obs::{names, MetricsRegistry, MetricsSnapshot};
use desis_core::query::{Query, QueryId, QueryResult, ResultRuns};
use desis_core::time::{DurationMs, Timestamp};
use desis_core::window::WindowKind;

use crate::codec::CodecKind;
use crate::fault::{fault_log, FaultPlan, FaultStats, InjectedFault};
use crate::link::{link_with_stats, LinkReceiver, LinkSender, LinkStats};
use crate::message::Message;
use crate::node::{analyze_for, DistributedSystem, IntermediateWorker, LocalWorker, RootWorker};
use crate::recovery::{pump_children, PumpObs, RecoveryConfig, RecoveryCtx, RecoveryStats};
use crate::topology::{NodeId, NodeRole, Topology};

/// A runtime reconfiguration command (Section 3.2), applied when event
/// time passes the scheduled instant.
#[derive(Debug, Clone)]
pub enum ClusterCommand {
    /// Installs a new query on every node.
    AddQuery(Query),
    /// Removes a running query; `immediate` drops its open windows,
    /// otherwise they drain ("wait for the last window to end").
    RemoveQuery {
        /// The query to remove.
        id: QueryId,
        /// Drop open windows instead of draining them.
        immediate: bool,
    },
}

/// Link queue capacity in messages (bounded channels give backpressure,
/// i.e. sustainable throughput).
const CHANNEL_CAPACITY: usize = 256;

/// Locals record one latency sample every this many events.
const LATENCY_SAMPLE_EVERY: u64 = 256;

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// System under test.
    pub system: DistributedSystem,
    /// The query workload (installed on the root, pushed down as window
    /// attributes — Section 5.1.3).
    pub queries: Vec<Query>,
    /// Node tree.
    pub topology: Topology,
    /// Raw-event batch size for forwarding links.
    pub batch_size: usize,
    /// Optional per-link bandwidth cap in bytes/second (the Raspberry Pi
    /// experiment, Figure 13).
    pub bandwidth: Option<u64>,
    /// Locals emit a watermark every this much event time.
    pub watermark_every: DurationMs,
    /// Scheduled runtime reconfigurations: `(event time, command)`
    /// (Section 3.2). Only supported for [`DistributedSystem::Desis`].
    pub script: Vec<(Timestamp, ClusterCommand)>,
    /// When set, locals pace ingestion so one unit of event time takes
    /// one unit of wall time (divided by this speed-up factor). The paper
    /// measures latency at a sustainable rate rather than at saturation.
    pub pace_speedup: Option<f64>,
    /// Causal slice tracing: when set, every node records provenance
    /// spans into this collector; `None` records nothing. The caller
    /// owns draining the stitched timeline after the run.
    pub trace: Option<TraceCollector>,
    /// Deterministic fault schedule for this run; `None` runs
    /// fault-free.
    pub faults: Option<FaultPlan>,
    /// Stage-time profiling: when set, the run's registry is
    /// [`MetricsRegistry::profiled`] with this clock, so every node loop
    /// and pump times its stages into [`ClusterReport::metrics`] as
    /// `prof.*` counters; `None` times nothing.
    pub profile: Option<ProfClock>,
    /// Tunables of the recovery protocol (NACK budget, grace period).
    pub recovery: RecoveryConfig,
}

impl ClusterConfig {
    /// A configuration with the paper-ish defaults.
    pub fn new(system: DistributedSystem, queries: Vec<Query>, topology: Topology) -> Self {
        Self {
            system,
            queries,
            topology,
            batch_size: 512,
            bandwidth: None,
            watermark_every: 1_000,
            script: Vec::new(),
            pace_speedup: None,
            trace: None,
            faults: None,
            profile: None,
            recovery: RecoveryConfig::default(),
        }
    }

    /// The system's wire format: text for Disco, binary otherwise
    /// (Section 6.4.1).
    fn effective_codec(&self) -> CodecKind {
        match self.system {
            DistributedSystem::Disco => CodecKind::Text,
            _ => CodecKind::Binary,
        }
    }

    /// The initial queries and every query the script adds.
    fn all_queries(&self) -> impl Iterator<Item = &Query> {
        let added = self.script.iter().filter_map(|(_, c)| match c {
            ClusterCommand::AddQuery(q) => Some(q),
            ClusterCommand::RemoveQuery { .. } => None,
        });
        self.queries.iter().chain(added)
    }

    /// Extra event time appended at end-of-stream to fire pending
    /// windows, derived from the largest window.
    fn effective_flush_horizon(&self) -> DurationMs {
        let mut horizon = self.watermark_every;
        for q in self.all_queries() {
            let h = match q.window.measure {
                desis_core::window::Measure::Time => open_span(q),
                desis_core::window::Measure::Count => 0,
            };
            horizon = horizon.max(h + 1);
        }
        horizon + self.watermark_every
    }
}

/// The window length or session gap of `q`: how much event time one of
/// its windows can stay open past the event that opened it.
fn open_span(q: &Query) -> DurationMs {
    match q.window.kind {
        WindowKind::Tumbling { length } | WindowKind::Sliding { length, .. } => length,
        WindowKind::Session { gap } => gap,
        WindowKind::UserDefined { .. } => 0,
    }
}

/// Poison-tolerant lock: a panicked node thread must not take the
/// report down with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// CPU time the calling thread has used so far, nanoseconds
/// (`CLOCK_THREAD_CPUTIME_ID`); `None` where the platform cannot tell.
/// One read costs about as much as a slicer event, so a thread reads it
/// when it starts and when it ends, never per span.
fn thread_cpu_ns() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        use std::ffi::c_long;
        #[repr(C)]
        struct Timespec {
            tv_sec: c_long,
            tv_nsec: c_long,
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        extern "C" {
            fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
        }
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `struct timespec` (two C
        // longs on Linux) for the duration of the call, and the clock id
        // is one the kernel defines.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// The calling thread's CPU time since `start` (a [`thread_cpu_ns`]
/// read), nanoseconds.
fn thread_cpu_since(start: Option<u64>) -> Option<u64> {
    Some(thread_cpu_ns()?.saturating_sub(start?))
}

/// The wall ↔ event-time map of a paced source: event time `base` is due
/// at `start`, and event time runs `speedup` × wall time from there.
#[derive(Debug, Clone, Copy)]
struct Pace {
    base: Timestamp,
    start: Instant,
    speedup: f64,
}

impl Pace {
    /// The wall-clock instant at which event time `ts` is due.
    fn due(&self, ts: Timestamp) -> Instant {
        let delta = ts.saturating_sub(self.base) as f64 / 1e3 / self.speedup;
        self.start + Duration::from_secs_f64(delta)
    }

    /// Sleeps until event time `ts` is due, on `lane`'s [`Stage::Pace`];
    /// a source that runs late does not wait.
    fn wait_for(&self, ts: Timestamp, lane: &mut Option<prof::ProfHandle>) {
        let wait = self.due(ts).saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            let _pace = prof::scope(lane, Stage::Pace);
            std::thread::sleep(wait);
        }
    }
}

/// Wall-clock samples of event-time progress, shared by locals (writers)
/// and the measurement of result latency (reader).
#[derive(Debug, Default)]
pub struct LatencyTable {
    samples: Mutex<BTreeMap<Timestamp, Instant>>,
    /// When ingestion is paced, generation time is analytic.
    pace: Mutex<Option<Pace>>,
}

impl LatencyTable {
    /// Records that event time `ts` was generated "now" (first writer
    /// wins, so the sample reflects the earliest stream reaching `ts`).
    pub fn record(&self, ts: Timestamp) {
        lock(&self.samples).entry(ts).or_insert_with(Instant::now);
    }

    /// Registers a paced run: event time `first_ts` maps to `start`, and
    /// event time advances at `speedup` × wall time.
    pub fn record_pace(&self, first_ts: Timestamp, start: Instant, speedup: f64) {
        lock(&self.pace).get_or_insert(Pace {
            base: first_ts,
            start,
            speedup,
        });
    }

    /// Wall-clock instant at which event time first advanced to `>= ts`.
    pub fn lookup(&self, ts: Timestamp) -> Option<Instant> {
        if let Some(pace) = *lock(&self.pace) {
            return Some(pace.due(ts));
        }
        lock(&self.samples).range(ts..).next().map(|(_, i)| *i)
    }
}

/// Observability snapshot of one cluster run: per-node egress counters
/// (`net.node{id}.egress_bytes` / `egress_msgs`), per-role ingress bytes
/// and message counts by kind (`net.{role}.ingress_bytes`,
/// `net.{role}.msgs.{tag}`), queue depths and merge stalls, summed local
/// engine counters (`cluster.local_engine.*`), and the end-to-end result
/// latency histogram (`cluster.result_latency_us`).
pub type ClusterMetrics = MetricsSnapshot;

/// Measurements of one cluster run.
#[derive(Debug)]
pub struct ClusterReport {
    /// Final query results collected at the root.
    pub results: Vec<QueryResult>,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Total events ingested across locals.
    pub events: u64,
    /// Uplink bytes sent per node (local and intermediate nodes have
    /// uplinks; the root has none). Ordered by node id so report
    /// iteration is deterministic.
    pub bytes_by_node: BTreeMap<NodeId, u64>,
    /// Engine metrics summed over local nodes.
    pub local_metrics: EngineMetrics,
    /// Event-time latency samples (ms) of emitted results.
    pub latencies_ms: Vec<f64>,
    /// Raw events the root had to process itself.
    pub root_raw_events: u64,
    /// Nodes anywhere in the tree that their parent gave up on — they
    /// disconnected without flushing or exhausted the recovery protocol's
    /// retry budget (crashed / removed nodes, Section 3.2) — sorted by
    /// node id.
    pub lost_children: Vec<NodeId>,
    /// The topology, for per-role breakdowns.
    pub topology: Topology,
    /// Unified observability snapshot of the run (see [`ClusterMetrics`]).
    pub metrics: ClusterMetrics,
    /// Every fault the plan's injectors actually fired, sorted by
    /// `(link, frame, kind)` — a deterministic placement record: two runs
    /// with the same plan and seed produce identical logs.
    pub faults_injected: Vec<InjectedFault>,
}

impl ClusterReport {
    /// Events per second over the whole run.
    pub fn throughput(&self) -> f64 {
        self.events as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Total bytes over all links.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_by_node.values().sum()
    }

    /// Bytes sent by nodes of one role.
    pub fn bytes_for_role(&self, role: NodeRole) -> u64 {
        self.bytes_by_node
            .iter()
            .filter(|(node, _)| self.topology.role(**node) == role)
            .map(|(_, b)| *b)
            .sum()
    }

    /// Mean latency in milliseconds (`None` without samples).
    pub fn mean_latency_ms(&self) -> Option<f64> {
        if self.latencies_ms.is_empty() {
            return None;
        }
        Some(self.latencies_ms.iter().sum::<f64>() / self.latencies_ms.len() as f64)
    }

    /// Latency percentile in milliseconds (`q` in 0..=1).
    pub fn latency_percentile_ms(&self, q: f64) -> Option<f64> {
        if self.latencies_ms.is_empty() {
            return None;
        }
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        Some(sorted[idx])
    }
}

/// A compiled runtime command.
#[derive(Debug, Clone)]
enum CompiledCommand {
    Add(QueryGroup),
    Remove { id: QueryId, immediate: bool },
}

/// Compiles the runtime script: added queries get fresh group ids
/// (from `first_gid`) that locals and root agree on. A query id is
/// installed once per run: an add of an id the initial set or an earlier
/// add installed, removed since or not, is a duplicate, as it is to the
/// engines' `add_query`.
fn compile_script(
    cfg: &ClusterConfig,
    first_gid: GroupId,
) -> Result<Vec<(Timestamp, CompiledCommand)>, DesisError> {
    if !cfg.script.is_empty() && cfg.system != DistributedSystem::Desis {
        return Err(DesisError::UnsupportedInRole(
            "runtime query scripts require the Desis system",
        ));
    }
    let mut next_gid = first_gid;
    let mut installed: BTreeSet<QueryId> = cfg.queries.iter().map(|q| q.id).collect();
    let mut compiled = Vec::with_capacity(cfg.script.len());
    for (ts, cmd) in &cfg.script {
        compiled.push((
            *ts,
            match cmd {
                ClusterCommand::AddQuery(q) => {
                    if !installed.insert(q.id) {
                        return Err(DesisError::InvalidQuery(format!(
                            "duplicate query id {}",
                            q.id
                        )));
                    }
                    let mut group = analyze_for(cfg.system, vec![q.clone()])?.remove(0);
                    group.id = next_gid;
                    next_gid += 1;
                    CompiledCommand::Add(group)
                }
                ClusterCommand::RemoveQuery { id, immediate } => CompiledCommand::Remove {
                    id: *id,
                    immediate: *immediate,
                },
            },
        ));
    }
    compiled.sort_by_key(|(ts, _)| *ts);
    Ok(compiled)
}

/// What every node thread of one run borrows.
struct Run<'a> {
    cfg: &'a ClusterConfig,
    groups: &'a [QueryGroup],
    script: &'a [(Timestamp, CompiledCommand)],
    /// Every run gets a fresh registry ([`ClusterConfig::profile`] makes
    /// it a profiled one); its snapshot lands in the report.
    registry: &'a Arc<MetricsRegistry>,
    /// Causal tracing ([`ClusterConfig::trace`]); `None` keeps every
    /// hot-path hook on its no-recorder branch.
    tracing: Option<&'a TraceCollector>,
    /// Fault injection ([`ClusterConfig::faults`]).
    plan: Option<&'a FaultPlan>,
    fault_stats: Arc<FaultStats>,
    recovery_stats: Arc<RecoveryStats>,
    latency: LatencyTable,
    local_metrics: Mutex<EngineMetrics>,
    /// Children some parent gave up on, anywhere in the tree.
    lost: Mutex<Vec<NodeId>>,
}

/// `n` results the root drained after one message, contiguous and of one
/// window end: they share one emission instant, so one latency sample
/// stands for all of them.
#[derive(Debug, Clone, Copy)]
struct Stamp {
    window_end: Timestamp,
    emitted: Instant,
    n: usize,
}

/// What the root thread hands back: every result, filed per query as it
/// drained; one [`Stamp`] per window end and message, in emission order;
/// and the raw events the root processed itself.
type RootOutput = (ResultRuns, Vec<Stamp>, u64);

impl Run<'_> {
    /// Runs `body` as the thread of `node`, and publishes the thread's CPU
    /// time as `net.node<id>.cpu_ns`.
    fn on_node_thread<T>(&self, node: NodeId, body: impl FnOnce() -> T) -> T {
        let start = thread_cpu_ns();
        let out = body();
        if let Some(spent) = thread_cpu_since(start) {
            self.registry.counter(&names::node_cpu_ns(node)).add(spent);
        }
        out
    }

    /// Pumps `receivers` into `handle` under the recovery protocol until
    /// every child is done, keeping `role`'s merge-stall bookkeeping.
    /// `handle` returns the partials its node still holds back for
    /// sibling streams.
    fn pump(
        &self,
        role: &str,
        node: NodeId,
        receivers: &[(NodeId, LinkReceiver)],
        mut handle: impl FnMut(NodeId, Message) -> usize,
    ) {
        let obs = PumpObs::new(self.registry, role);
        let pending_max = self.registry.gauge(&names::merge_pending_max(role));
        let stalls = self.registry.counter(&names::merge_stalls(role));
        let ctx = RecoveryCtx::new(
            self.cfg.recovery.clone(),
            Arc::clone(&self.recovery_stats),
            self.tracing.map(|tc| tc.recorder(node)),
        );
        let lost = pump_children(receivers, &obs, ctx, |child, msg| {
            let is_watermark = msg.tag() == names::TAG_WATERMARK;
            let pending = handle(child, msg);
            pending_max.set_max(pending as i64);
            if is_watermark && pending > 0 {
                // A watermark advanced but merges still wait for sibling
                // streams: the merger is stalled.
                stalls.inc();
            }
        });
        lock(&self.lost).extend(lost);
    }

    /// Serves the parent's retransmit requests until it acknowledges our
    /// Flush; dropping the uplink afterwards disconnects it.
    fn linger(&self, mut uplink: LinkSender) {
        uplink.linger(self.cfg.recovery.nack_grace, self.cfg.recovery.retry_budget);
    }

    /// A local node: feeds its events through a [`LocalWorker`], applying
    /// scheduled faults, the runtime script and ingestion pacing.
    fn local_node(&self, node: NodeId, feed: Vec<Event>, mut uplink: LinkSender) {
        let cfg = self.cfg;
        let mut worker = LocalWorker::new(
            node,
            cfg.system,
            self.groups,
            cfg.batch_size,
            cfg.watermark_every,
        );
        if let Some(tc) = self.tracing {
            worker.install_tracing(tc);
            uplink.set_recorder(tc.recorder(node));
        }
        let crash_at = self.plan.and_then(|p| p.crash_at(node));
        let mut stall_at = self.plan.and_then(|p| p.stall_at(node));
        let mut since_sample = 0u64;
        let mut script = self.script.iter().peekable();
        let pace_start = Instant::now();
        // A paced source is a live source: its clock starts with its
        // first event and runs through the gaps between events.
        let mut pace: Option<Pace> = None;
        let heartbeats = [
            self.registry.counter(&names::heartbeats(node)),
            self.registry.counter(names::CLUSTER_HEARTBEATS),
        ];
        // Leaf-lane stage attribution: pace sleeps vs. actual ingest
        // work, so a profile distinguishes "replaying in real time" from
        // "saturated".
        let mut lane = self.registry.lane(&format!("node{node}"));
        let mut last_ts: Option<Timestamp> = None;
        'feed: for ev in feed {
            if crash_at.is_some_and(|at| ev.ts >= at) {
                // Crash: exit without finish or Flush. Dropping the
                // uplink is the disconnect the parent sees.
                self.fault_stats.crashes.inc();
                lock(&self.local_metrics).absorb(&worker.metrics());
                return;
            }
            if let Some((_, ms)) = stall_at.take_if(|(at, _)| ev.ts >= *at) {
                self.fault_stats.stalls.inc();
                std::thread::sleep(Duration::from_millis(ms));
            }
            // An event at the previous event's instant skips this: that
            // event's ingest vouched for the instant, so no heartbeat lies
            // below it, the commands at or below it have run, and the
            // instant is already due — the clock is read once per instant.
            if last_ts.replace(ev.ts) != Some(ev.ts) {
                // What event time passes on its way to `ev`, in event-time
                // order: the scripted commands at or below `ev.ts` and, paced,
                // every heartbeat below it — each when it is due, late or
                // not, so the frames sent are a function of the feed alone.
                loop {
                    let command = script.peek().map(|(at, _)| *at).filter(|at| *at <= ev.ts);
                    let until = command.unwrap_or(ev.ts);
                    // (Unpaced, the per-event path does not even ask.)
                    let beat = pace.and_then(|pace| {
                        let t = worker.next_heartbeat().filter(|t| *t < until)?;
                        Some((pace, t))
                    });
                    if let Some((pace, t)) = beat {
                        pace.wait_for(t, &mut lane);
                        heartbeats.iter().for_each(|c| c.inc());
                        if !worker.on_watermark(t, &mut uplink) {
                            break 'feed;
                        }
                        continue;
                    }
                    let Some((at, cmd)) = script.next_if(|_| command.is_some()) else {
                        break;
                    };
                    match cmd {
                        CompiledCommand::Add(group) => worker.add_group(group),
                        CompiledCommand::Remove { id, immediate } => {
                            // The removal takes effect at the same event time
                            // on every node — the last instant before the
                            // script's — whatever this stream saw last.
                            let at = at.saturating_sub(1);
                            if let Some(pace) = pace {
                                pace.wait_for(at, &mut lane);
                            }
                            if !worker.on_watermark(at, &mut uplink) {
                                break 'feed;
                            }
                            worker.remove_query(*id, *immediate);
                        }
                    }
                }
                if let Some(speedup) = cfg.pace_speedup {
                    let pace = *pace.get_or_insert_with(|| {
                        self.latency.record_pace(ev.ts, pace_start, speedup);
                        Pace {
                            base: ev.ts,
                            start: pace_start,
                            speedup,
                        }
                    });
                    pace.wait_for(ev.ts, &mut lane);
                }
            }
            if since_sample == 0 {
                self.latency.record(ev.ts);
            }
            since_sample = (since_sample + 1) % LATENCY_SAMPLE_EVERY;
            let _ingest = prof::scope(&mut lane, Stage::Ingest);
            if !worker.on_event(&ev, &mut uplink) {
                break;
            }
        }
        {
            let _drain = prof::scope(&mut lane, Stage::Drain);
            let _ = worker.finish(cfg.effective_flush_horizon(), &mut uplink);
        }
        drop(lane);
        lock(&self.local_metrics).absorb(&worker.metrics());
        self.linger(uplink);
    }

    /// An intermediate node: pumps its children through an
    /// [`IntermediateWorker`] onto its uplink.
    fn intermediate_node(
        &self,
        node: NodeId,
        receivers: Vec<(NodeId, LinkReceiver)>,
        mut uplink: LinkSender,
    ) {
        let mut worker = IntermediateWorker::new(
            node,
            self.cfg.system,
            self.groups,
            self.cfg.topology.leaves_below(node).len() as u32,
            receivers.iter().map(|(c, _)| *c).collect(),
        );
        if let Some(tc) = self.tracing {
            worker.install_tracing(tc);
            uplink.set_recorder(tc.recorder(node));
        }
        self.pump("intermediate", node, &receivers, |child, msg| {
            let _ = worker.on_message(child, msg, &mut uplink);
            worker.pending_merges()
        });
        self.registry
            .counter(&names::unroutable_msgs("intermediate"))
            .add(worker.unroutable());
        self.linger(uplink);
    }

    /// The root node: pumps its children through a [`RootWorker`], filing
    /// each message's results into their queries' runs as they drain and
    /// stamping them with the instant they left.
    ///
    /// If the root cannot even be built (e.g. the centralized baseline
    /// rejects a query), the error propagates instead of panicking:
    /// dropping the receivers closes the uplinks, which the other node
    /// threads observe as failed sends and exit.
    fn root_node(
        &self,
        node: NodeId,
        receivers: Vec<(NodeId, LinkReceiver)>,
    ) -> Result<RootOutput, DesisError> {
        let cfg = self.cfg;
        let n_leaves = cfg.topology.nodes_with_role(NodeRole::Local).len();
        let child_ids = receivers.iter().map(|(c, _)| *c).collect();
        let mut worker = RootWorker::with_registry(
            cfg.system,
            self.groups,
            &cfg.queries,
            n_leaves,
            child_ids,
            self.registry,
        )?;
        if let Some(tc) = self.tracing {
            worker.install_tracing(tc, node);
        }
        // The script is registered up front: added groups so that their
        // partials are never dropped, removals because the root applies
        // them by event time, not by when it hears of them (at 0, before
        // the first event: outright, as the locals' slicers drop it).
        for (at, cmd) in self.script {
            match cmd {
                CompiledCommand::Add(group) => worker.add_group(cfg.system, group, n_leaves),
                CompiledCommand::Remove { id, immediate } => match at.checked_sub(1) {
                    Some(at) => worker.remove_query(*id, at, *immediate),
                    None => worker.remove_query(*id, 0, true),
                },
            }
        }
        let mut runs = ResultRuns::default();
        let mut stamps = Vec::new();
        let retained_max = self.registry.gauge(names::NET_ROOT_RETAINED_SLICES_MAX);
        let cached_max = self.registry.gauge(names::NET_ROOT_CACHED_BUNDLES_MAX);
        self.pump("root", node, &receivers, |child, msg| {
            worker.on_message(child, msg);
            let (retained, cached) = worker.retained_state();
            retained_max.set_max(retained as i64);
            cached_max.set_max(cached as i64);
            let results = worker.drain_results();
            if !results.is_empty() {
                let emitted = Instant::now();
                let windows = results.chunk_by(|a, b| a.window_end == b.window_end);
                stamps.extend(windows.map(|window| Stamp {
                    window_end: window[0].window_end,
                    emitted,
                    n: window.len(),
                }));
                runs.extend(results);
            }
            worker.pending_merges()
        });
        self.registry
            .counter(&names::unroutable_msgs("root"))
            .add(worker.unroutable());
        Ok((runs, stamps, worker.raw_events_processed()))
    }
}

/// Runs a cluster over one finite event feed per local node.
///
/// `feeds.len()` must equal the number of local nodes in the topology;
/// feeds are assigned to locals in ascending node-id order.
pub fn run_cluster(
    cfg: ClusterConfig,
    feeds: Vec<Vec<Event>>,
) -> Result<ClusterReport, DesisError> {
    let driver_cpu = thread_cpu_ns();
    let topology = &cfg.topology;
    let locals = topology.nodes_with_role(NodeRole::Local);
    if feeds.len() != locals.len() {
        return Err(DesisError::Cluster(
            "one event feed per local node required",
        ));
    }
    let groups = analyze_for(cfg.system, cfg.queries.clone())?;
    let script = compile_script(&cfg, groups.len() as GroupId)?;
    let plan = cfg.faults.as_ref();
    if let Some(plan) = plan {
        plan.validate(topology).map_err(DesisError::FaultPlan)?;
    }
    let profile = cfg.profile.clone();
    let registry = Arc::new(profile.map_or_else(MetricsRegistry::new, MetricsRegistry::profiled));
    let run = Run {
        cfg: &cfg,
        groups: &groups,
        script: &script,
        registry: &registry,
        tracing: cfg.trace.as_ref(),
        plan,
        fault_stats: FaultStats::registered(&registry),
        recovery_stats: RecoveryStats::registered(&registry),
        latency: LatencyTable::default(),
        local_metrics: Mutex::new(EngineMetrics::default()),
        lost: Mutex::new(Vec::new()),
    };
    let injected = fault_log();

    // Create the uplink of every non-root node; the link counters live in
    // the registry as `net.node{id}.egress_*`.
    let mut senders: FxHashMap<NodeId, LinkSender> = FxHashMap::default();
    let mut stats: Vec<(NodeId, Arc<LinkStats>)> = Vec::new();
    let mut receivers_by_parent: FxHashMap<NodeId, Vec<(NodeId, LinkReceiver)>> =
        FxHashMap::default();
    for node in 0..topology.len() as NodeId {
        let Some(parent) = topology.parent(node) else {
            continue;
        };
        let (mut tx, rx, st) = link_with_stats(
            cfg.effective_codec(),
            CHANNEL_CAPACITY,
            cfg.bandwidth,
            Arc::new(LinkStats::registered(&registry, node)),
        );
        let injector = plan.and_then(|p| {
            p.injector_for(node, Arc::clone(&run.fault_stats), Arc::clone(&injected))
        });
        if let Some(injector) = injector {
            tx.set_injector(injector);
        }
        senders.insert(node, tx);
        stats.push((node, st));
        receivers_by_parent
            .entry(parent)
            .or_default()
            .push((node, rx));
    }

    let started = Instant::now();
    let run = &run;
    let root_result = std::thread::scope(|scope| {
        // Lengths were validated above, so zipping pairs every local
        // with exactly one feed.
        for (&node, feed) in locals.iter().zip(feeds) {
            let Some(uplink) = senders.remove(&node) else {
                return Err(DesisError::Cluster("local node has no uplink"));
            };
            scope.spawn(move || run.on_node_thread(node, || run.local_node(node, feed, uplink)));
        }
        for node in topology.nodes_with_role(NodeRole::Intermediate) {
            let Some(receivers) = receivers_by_parent.remove(&node) else {
                return Err(DesisError::Cluster("intermediate node has no children"));
            };
            let Some(uplink) = senders.remove(&node) else {
                return Err(DesisError::Cluster("intermediate node has no uplink"));
            };
            scope.spawn(move || {
                run.on_node_thread(node, || run.intermediate_node(node, receivers, uplink));
            });
        }
        let root = topology.root();
        let Some(receivers) = receivers_by_parent.remove(&root) else {
            return Err(DesisError::Cluster("root node has no children"));
        };
        // A panicking root worker must surface as an error, not tear the
        // whole process down with it.
        scope
            .spawn(move || run.on_node_thread(root, || run.root_node(root, receivers)))
            .join()
            .unwrap_or(Err(DesisError::Cluster("root worker thread panicked")))
    });
    let (mut runs, stamps, root_raw_events) = root_result?;
    let wall = started.elapsed();
    let mut lost_children = std::mem::take(&mut *lock(&run.lost));
    lost_children.sort_unstable();

    // One latency sample per result, booked once per stamp: the results
    // of one stamp share their window end and emission instant.
    let latency_hist = registry.histogram(names::CLUSTER_RESULT_LATENCY_US);
    let mut latencies_ms = Vec::with_capacity(stamps.iter().map(|s| s.n).sum());
    for Stamp {
        window_end,
        emitted,
        n,
    } in stamps
    {
        if let Some(generated) = run.latency.lookup(window_end) {
            if emitted > generated {
                let ms = emitted.duration_since(generated).as_secs_f64() * 1e3;
                latency_hist.record_secs_n(ms / 1e3, n as u64);
                latencies_ms.extend(std::iter::repeat_n(ms, n));
            }
        }
    }
    // Canonical (query, window-end, key) order by construction: shard
    // counts, merge timing, and link interleavings must not change the
    // report byte-for-byte.
    let results = runs.drain();

    let bytes_by_node: BTreeMap<NodeId, u64> =
        stats.iter().map(|(node, st)| (*node, st.bytes())).collect();
    let local_metrics = lock(&run.local_metrics).clone();
    local_metrics.publish(&registry, names::CLUSTER_LOCAL_ENGINE_PREFIX);
    registry
        .counter(names::NET_ROOT_RAW_EVENTS)
        .raise_to(root_raw_events);
    if let Some(spent) = thread_cpu_since(driver_cpu) {
        registry.counter(names::CLUSTER_DRIVER_CPU_NS).add(spent);
    }
    let metrics = registry.snapshot();
    let mut faults_injected = lock(&injected).clone();
    faults_injected.sort_by(|a, b| (a.link, a.frame, a.kind).cmp(&(b.link, b.frame, b.kind)));
    Ok(ClusterReport {
        results,
        wall,
        events: local_metrics.events,
        bytes_by_node,
        local_metrics,
        latencies_ms,
        root_raw_events,
        lost_children,
        topology: cfg.topology,
        metrics,
        faults_injected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use desis_baselines::SystemKind;
    use desis_core::aggregate::AggFunction;
    use desis_core::window::WindowSpec;

    fn avg_query(len: DurationMs) -> Query {
        Query::new(
            1,
            WindowSpec::tumbling_time(len).unwrap(),
            AggFunction::Average,
        )
    }

    fn feed(n: u64, key_mod: u32, offset: u64) -> Vec<Event> {
        (0..n)
            .map(|i| Event::new(i * 10 + offset, (i % key_mod as u64) as u32, i as f64))
            .collect()
    }

    fn sorted(mut results: Vec<QueryResult>) -> Vec<QueryResult> {
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

    /// Reference: single engine over the time-merged streams.
    fn reference(
        queries: Vec<Query>,
        feeds: &[Vec<Event>],
        horizon: DurationMs,
    ) -> Vec<QueryResult> {
        let mut all: Vec<Event> = feeds.iter().flatten().copied().collect();
        all.sort_by_key(|e| e.ts);
        let mut engine = desis_core::engine::AggregationEngine::new(queries).unwrap();
        let mut last = 0;
        for ev in &all {
            engine.on_event(ev);
            last = ev.ts;
        }
        engine.on_watermark(last + horizon);
        sorted(engine.drain_results())
    }

    /// Two runs in one process share nothing: the collector and fault
    /// plan of the first reach only the run they were configured on.
    #[test]
    fn a_run_sees_only_its_own_trace_and_faults() {
        let topology = Topology::star(1);
        let local = topology.nodes_with_role(NodeRole::Local)[0];
        let config = || {
            ClusterConfig::new(
                DistributedSystem::Desis,
                vec![avg_query(100)],
                topology.clone(),
            )
        };

        let collector = TraceCollector::new(1, 1 << 12);
        let mut first = config();
        first.trace = Some(collector.clone());
        first.faults =
            Some(FaultPlan::new(7).with_link_fault(local, crate::fault::LinkFaultKind::Drop, 2, 3));
        let faulty = run_cluster(first, vec![feed(500, 3, 0)]).unwrap();
        assert_eq!(faulty.metrics.counters[names::FAULT_DROPPED], 2);
        assert!(!collector.drain_timeline().chains.is_empty());

        let clean = run_cluster(config(), vec![feed(500, 3, 0)]).unwrap();
        assert!(clean.faults_injected.is_empty());
        assert_eq!(clean.metrics.counters[names::FAULT_DROPPED], 0);
        assert!(collector.drain_timeline().chains.is_empty());
        assert_eq!(sorted(clean.results), sorted(faulty.results));
    }

    /// Every node thread and the calling thread book their CPU time, and
    /// only theirs: the three node counters and the driver's are there
    /// and non-zero.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_run_books_the_cpu_time_of_every_node_and_the_driver() {
        let topology = Topology::star(2);
        let cfg = ClusterConfig::new(
            DistributedSystem::Desis,
            vec![avg_query(100)],
            topology.clone(),
        );
        let report = run_cluster(cfg, vec![feed(2_000, 3, 0), feed(2_000, 3, 5)]).unwrap();
        let counters = &report.metrics.counters;
        for node in 0..topology.len() as NodeId {
            let cpu = counters.get(&names::node_cpu_ns(node)).copied();
            assert!(cpu.is_some_and(|ns| ns > 0), "node {node}: {cpu:?}");
        }
        let driver = counters.get(names::CLUSTER_DRIVER_CPU_NS).copied();
        assert!(driver.is_some_and(|ns| ns > 0), "driver: {driver:?}");
        let cpu_counters = counters.keys().filter(|k| k.ends_with("cpu_ns")).count();
        assert_eq!(cpu_counters, topology.len() + 1);
    }

    #[test]
    fn desis_three_tier_matches_single_node() {
        let queries = vec![
            avg_query(500),
            Query::new(
                2,
                WindowSpec::sliding_time(1_000, 500).unwrap(),
                AggFunction::Max,
            ),
        ];
        let feeds = vec![feed(500, 3, 0), feed(500, 3, 5)];
        let cfg = ClusterConfig::new(
            DistributedSystem::Desis,
            queries.clone(),
            Topology::three_tier(1, 2),
        );
        let report = run_cluster(cfg, feeds.clone()).unwrap();
        assert_eq!(report.events, 1_000);
        assert_eq!(sorted(report.results), reference(queries, &feeds, 2_000));
    }

    #[test]
    fn desis_quantile_and_session_median_match_reference() {
        // Fixed-time windows (incl. a non-decomposable quantile) beside a
        // session query, merged through an intermediate.
        let queries = vec![
            avg_query(500),
            Query::new(
                2,
                WindowSpec::sliding_time(1_000, 500).unwrap(),
                AggFunction::Quantile(0.9),
            ),
            Query::new(3, WindowSpec::session(300).unwrap(), AggFunction::Median),
        ];
        let feeds = vec![feed(600, 5, 0), feed(600, 5, 7)];
        let cfg = ClusterConfig::new(
            DistributedSystem::Desis,
            queries.clone(),
            Topology::three_tier(1, 2),
        );
        let report = run_cluster(cfg, feeds.clone()).unwrap();
        assert_eq!(sorted(report.results), reference(queries, &feeds, 2_000));
    }

    #[test]
    fn centralized_scotty_matches_single_node() {
        let queries = vec![avg_query(500)];
        let feeds = vec![feed(300, 2, 0), feed(300, 2, 3)];
        let cfg = ClusterConfig::new(
            DistributedSystem::Centralized(SystemKind::Scotty),
            queries.clone(),
            Topology::three_tier(1, 2),
        );
        let report = run_cluster(cfg, feeds.clone()).unwrap();
        assert_eq!(
            sorted(report.results.clone()),
            reference(queries, &feeds, 2_000)
        );
        // All events crossed both the local and intermediate uplinks.
        let local_bytes = report.bytes_for_role(NodeRole::Local);
        let inter_bytes = report.bytes_for_role(NodeRole::Intermediate);
        assert!(local_bytes > 0 && inter_bytes > 0);
    }

    #[test]
    fn desis_saves_network_traffic_vs_centralized() {
        let queries = vec![avg_query(1_000)];
        // Dense streams: ~5000 events per 1 s window, as in the paper's
        // high-rate workloads.
        let dense = |offset: u64| -> Vec<Event> {
            (0..10_000u64)
                .map(|i| Event::new(i / 5 + offset, (i % 10) as u32, i as f64 * 0.730001))
                .collect()
        };
        let feeds = vec![dense(0), dense(1)];
        let topo = Topology::three_tier(1, 2);
        let desis = run_cluster(
            ClusterConfig::new(DistributedSystem::Desis, queries.clone(), topo.clone()),
            feeds.clone(),
        )
        .unwrap();
        let central = run_cluster(
            ClusterConfig::new(
                DistributedSystem::Centralized(SystemKind::Scotty),
                queries,
                topo,
            ),
            feeds,
        )
        .unwrap();
        // The headline Figure 11a claim: partial results save ~99%.
        assert!(
            desis.total_bytes() * 20 < central.total_bytes(),
            "desis {} vs central {}",
            desis.total_bytes(),
            central.total_bytes()
        );
    }

    #[test]
    fn disco_matches_desis_results_on_decomposable_windows() {
        let queries = vec![
            avg_query(500),
            Query::new(
                2,
                WindowSpec::sliding_time(1_000, 250).unwrap(),
                AggFunction::Average,
            ),
        ];
        let feeds = vec![feed(1_000, 5, 0), feed(1_000, 5, 5)];
        let topo = Topology::three_tier(1, 2);
        let desis = run_cluster(
            ClusterConfig::new(DistributedSystem::Desis, queries.clone(), topo.clone()),
            feeds.clone(),
        )
        .unwrap();
        let disco = run_cluster(
            ClusterConfig::new(DistributedSystem::Disco, queries.clone(), topo),
            feeds.clone(),
        )
        .unwrap();
        assert_eq!(sorted(desis.results.clone()), sorted(disco.results.clone()));
    }

    #[test]
    fn desis_bytes_stay_constant_with_concurrent_windows_unlike_disco() {
        // Figure 11d: Desis ships slices, so adding overlapping windows
        // barely changes its traffic; Disco ships per-window partials, so
        // its traffic grows with the number of concurrent windows.
        let one = vec![avg_query(500)];
        let many: Vec<Query> = (1..=6)
            .map(|i| {
                Query::new(
                    i,
                    WindowSpec::sliding_time(i * 500, 500).unwrap(),
                    AggFunction::Average,
                )
            })
            .collect();
        let feeds = || vec![feed(2_000, 1, 0), feed(2_000, 1, 5)];
        let topo = Topology::three_tier(1, 2);
        let run = |sys, queries: Vec<Query>| {
            run_cluster(ClusterConfig::new(sys, queries, topo.clone()), feeds()).unwrap()
        };
        let desis_one = run(DistributedSystem::Desis, one.clone());
        let desis_many = run(DistributedSystem::Desis, many.clone());
        let disco_one = run(DistributedSystem::Disco, one);
        let disco_many = run(DistributedSystem::Disco, many);
        let desis_growth = desis_many.total_bytes() as f64 / desis_one.total_bytes() as f64;
        let disco_growth = disco_many.total_bytes() as f64 / disco_one.total_bytes() as f64;
        assert!(
            desis_growth < 2.0,
            "desis traffic should stay near-constant, grew {desis_growth:.2}x"
        );
        assert!(
            disco_growth > desis_growth * 1.5,
            "disco {disco_growth:.2}x vs desis {desis_growth:.2}x"
        );
    }

    #[test]
    fn disco_string_events_cost_more_than_desis_sorted_batches() {
        // Figure 11b: for a median, Disco ships raw events as strings;
        // Desis ships binary sorted slice batches.
        let queries = vec![Query::new(
            1,
            WindowSpec::tumbling_time(500).unwrap(),
            AggFunction::Median,
        )];
        let mk = |offset: u64| -> Vec<Event> {
            (0..2_000u64)
                .map(|i| Event::new(i * 5 + offset, 0, i as f64 * 0.730001))
                .collect()
        };
        let topo = Topology::three_tier(1, 2);
        let desis = run_cluster(
            ClusterConfig::new(DistributedSystem::Desis, queries.clone(), topo.clone()),
            vec![mk(0), mk(1)],
        )
        .unwrap();
        let disco = run_cluster(
            ClusterConfig::new(DistributedSystem::Disco, queries, topo),
            vec![mk(0), mk(1)],
        )
        .unwrap();
        assert_eq!(sorted(desis.results.clone()), sorted(disco.results.clone()));
        assert!(
            disco.total_bytes() > desis.total_bytes(),
            "disco {} <= desis {}",
            disco.total_bytes(),
            desis.total_bytes()
        );
    }

    #[test]
    fn median_group_ships_sorted_batches_to_root() {
        let queries = vec![Query::new(
            1,
            WindowSpec::tumbling_time(500).unwrap(),
            AggFunction::Median,
        )];
        let feeds = vec![feed(400, 1, 0), feed(400, 1, 5)];
        let cfg = ClusterConfig::new(
            DistributedSystem::Desis,
            queries.clone(),
            Topology::three_tier(1, 2),
        );
        let report = run_cluster(cfg, feeds.clone()).unwrap();
        assert_eq!(sorted(report.results), reference(queries, &feeds, 2_000));
        // No raw events at the root: sorted slice batches only.
        assert_eq!(report.root_raw_events, 0);
    }

    #[test]
    fn count_windows_processed_at_root() {
        let queries = vec![Query::new(
            1,
            WindowSpec::tumbling_count(100).unwrap(),
            AggFunction::Sum,
        )];
        let feeds = vec![feed(500, 1, 0), feed(500, 1, 5)];
        let cfg = ClusterConfig::new(
            DistributedSystem::Desis,
            queries.clone(),
            Topology::three_tier(1, 2),
        );
        let report = run_cluster(cfg, feeds.clone()).unwrap();
        assert_eq!(report.root_raw_events, 1_000);
        assert_eq!(sorted(report.results), reference(queries, &feeds, 2_000));
    }

    #[test]
    fn sessions_merge_across_decentralized_streams() {
        let queries = vec![Query::new(
            1,
            WindowSpec::session(200).unwrap(),
            AggFunction::Count,
        )];
        // Two bursts on both streams with a long common gap.
        let mk = |offset: u64| -> Vec<Event> {
            let mut v = Vec::new();
            for i in 0..50u64 {
                v.push(Event::new(i * 2 + offset, 0, 1.0));
            }
            for i in 0..50u64 {
                v.push(Event::new(5_000 + i * 2 + offset, 0, 1.0));
            }
            v
        };
        let cfg = ClusterConfig::new(
            DistributedSystem::Desis,
            queries,
            Topology::three_tier(1, 2),
        );
        let report = run_cluster(cfg, vec![mk(0), mk(1)]).unwrap();
        let results = sorted(report.results);
        assert_eq!(results.len(), 2, "{results:?}");
        assert_eq!(results[0].values, vec![Some(100.0)]);
        assert_eq!(results[1].values, vec![Some(100.0)]);
    }

    #[test]
    fn report_metrics_cover_nodes_messages_and_latency() {
        let sliding = WindowSpec::sliding_time(400, 100).unwrap();
        let queries = vec![avg_query(100), Query::new(2, sliding, AggFunction::Max)];
        let cfg = ClusterConfig::new(DistributedSystem::Desis, queries, Topology::star(2));
        let report = run_cluster(cfg, vec![feed(2_000, 1, 0), feed(2_000, 1, 5)]).unwrap();
        let m = &report.metrics;
        // Per-node egress counters agree with the report's byte map.
        for (node, bytes) in &report.bytes_by_node {
            assert_eq!(m.counters[&format!("net.node{node}.egress_bytes")], *bytes);
            assert!(m.counters[&format!("net.node{node}.egress_msgs")] > 0);
        }
        // Role-level ingress accounting saw the slices and watermarks.
        assert!(m.counters["net.root.ingress_bytes"] > 0);
        assert!(m.counters["net.root.msgs.slice"] > 0);
        assert!(m.counters["net.root.msgs.watermark"] > 0);
        assert_eq!(m.counters["net.root.decode_errors"], 0);
        assert_eq!(m.counters["net.root.unroutable_msgs"], 0);
        // The root's retained state: four slices per sliding window, one
        // key, so a suffix stack of at most 4 + 1 bundles.
        assert_eq!(m.gauges[names::NET_ROOT_RETAINED_SLICES_MAX], 3);
        assert!((1..=5).contains(&m.gauges[names::NET_ROOT_CACHED_BUNDLES_MAX]));
        // Local engine counters were published under the cluster prefix.
        assert_eq!(m.counters["cluster.local_engine.events"], report.events);
        // The latency histogram matches the sampled latency vector.
        let hist = &m.histograms["cluster.result_latency_us"];
        assert_eq!(hist.count, report.latencies_ms.len() as u64);
        assert!(m.to_json().contains("cluster.result_latency_us"));
    }

    #[test]
    fn undecodable_frame_marks_child_lost() {
        let (raw_tx, rx) = crate::link::raw_link(CodecKind::Binary, 8);
        raw_tx.send(vec![0xFF, 0x13, 0x37]).unwrap();
        drop(raw_tx);
        let registry = Arc::new(MetricsRegistry::new());
        let obs = PumpObs::new(&registry, "root");
        let receivers = vec![(3, rx)];
        let mut flushes = 0;
        let lost = pump_children(&receivers, &obs, RecoveryCtx::detached(), |child, msg| {
            assert_eq!(child, 3);
            if matches!(msg, Message::Flush) {
                flushes += 1;
            }
        });
        assert_eq!(lost, vec![3]);
        assert_eq!(flushes, 1, "lost child must be flushed exactly once");
        assert_eq!(registry.snapshot().counters["net.root.decode_errors"], 1);
    }

    #[test]
    fn trailing_garbage_frame_marks_child_lost() {
        // A frame that decodes fine but carries extra bytes is a protocol
        // violation: the child is flushed and reported lost, not trusted.
        let (raw_tx, rx) = crate::link::raw_link(CodecKind::Binary, 8);
        let mut frame = CodecKind::Binary.encode(&Message::Watermark(42));
        frame.push(0xAB);
        raw_tx.send(frame).unwrap();
        drop(raw_tx);
        let registry = Arc::new(MetricsRegistry::new());
        let obs = PumpObs::new(&registry, "root");
        let receivers = vec![(5, rx)];
        let mut flushes = 0;
        let lost = pump_children(&receivers, &obs, RecoveryCtx::detached(), |child, msg| {
            assert_eq!(child, 5);
            if matches!(msg, Message::Flush) {
                flushes += 1;
            }
        });
        assert_eq!(lost, vec![5]);
        assert_eq!(flushes, 1);
        assert_eq!(registry.snapshot().counters["net.root.decode_errors"], 1);
    }

    #[test]
    fn latency_is_measured() {
        let queries = vec![avg_query(100)];
        let cfg = ClusterConfig::new(DistributedSystem::Desis, queries, Topology::star(2));
        let report = run_cluster(cfg, vec![feed(2_000, 1, 0), feed(2_000, 1, 5)]).unwrap();
        assert!(!report.latencies_ms.is_empty());
        assert!(report.mean_latency_ms().unwrap() >= 0.0);
        assert!(report.latency_percentile_ms(0.99).unwrap() >= 0.0);
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn bandwidth_cap_slows_centralized_more_than_desis() {
        let queries = vec![avg_query(1_000)];
        let feeds = || vec![feed(3_000, 1, 0)];
        let topo = Topology::three_tier(1, 1);
        let cap = Some(200_000u64); // 200 KB/s links
        let mut desis_cfg =
            ClusterConfig::new(DistributedSystem::Desis, queries.clone(), topo.clone());
        desis_cfg.bandwidth = cap;
        let mut central_cfg = ClusterConfig::new(
            DistributedSystem::Centralized(SystemKind::Scotty),
            queries,
            topo,
        );
        central_cfg.bandwidth = cap;
        let desis = run_cluster(desis_cfg, feeds()).unwrap();
        let central = run_cluster(central_cfg, feeds()).unwrap();
        assert!(
            desis.throughput() > central.throughput() * 2.0,
            "desis {:.0} vs central {:.0}",
            desis.throughput(),
            central.throughput()
        );
    }
}

#[cfg(test)]
mod debug_bytes {
    use super::*;
    use desis_core::aggregate::AggFunction;
    use desis_core::window::WindowSpec;

    #[test]
    #[ignore]
    fn print_bytes() {
        let queries = vec![
            Query::new(
                1,
                WindowSpec::tumbling_time(500).unwrap(),
                AggFunction::Average,
            ),
            Query::new(
                2,
                WindowSpec::sliding_time(1_000, 250).unwrap(),
                AggFunction::Average,
            ),
            Query::new(
                3,
                WindowSpec::sliding_time(2_000, 500).unwrap(),
                AggFunction::Average,
            ),
        ];
        let feed = |offset: u64| -> Vec<Event> {
            (0..1_000u64)
                .map(|i| Event::new(i * 10 + offset, (i % 5) as u32, i as f64))
                .collect()
        };
        let topo = Topology::three_tier(1, 2);
        for sys in [DistributedSystem::Desis, DistributedSystem::Disco] {
            let r = run_cluster(
                ClusterConfig::new(sys, queries.clone(), topo.clone()),
                vec![feed(0), feed(5)],
            )
            .unwrap();
            let mut by: Vec<_> = r.bytes_by_node.iter().collect();
            by.sort();
            println!(
                "{}: total={} per-node={:?} results={}",
                sys.label(),
                r.total_bytes(),
                by,
                r.results.len()
            );
        }
    }
}

#[cfg(test)]
mod runtime_reconfig_tests {
    use super::*;
    use desis_core::aggregate::AggFunction;
    use desis_core::window::WindowSpec;

    fn feed(n: u64, step: u64, offset: u64) -> Vec<Event> {
        (0..n)
            .map(|i| Event::new(i * step + offset, 0, 1.0))
            .collect()
    }

    /// Section 3.2: a query added mid-run produces results only from its
    /// installation onward; a drained removal finishes its open window.
    #[test]
    fn scripted_query_add_and_remove() {
        let queries = vec![Query::new(
            1,
            WindowSpec::tumbling_time(1_000).unwrap(),
            AggFunction::Average,
        )];
        let mut cfg = ClusterConfig::new(
            DistributedSystem::Desis,
            queries,
            Topology::three_tier(1, 2),
        );
        cfg.script = vec![
            (
                3_000,
                ClusterCommand::AddQuery(Query::new(
                    2,
                    WindowSpec::tumbling_time(500).unwrap(),
                    AggFunction::Count,
                )),
            ),
            (
                7_000,
                ClusterCommand::RemoveQuery {
                    id: 2,
                    immediate: false,
                },
            ),
        ];
        // 10 s of events on both locals.
        let report = run_cluster(cfg, vec![feed(1_000, 10, 0), feed(1_000, 10, 5)]).unwrap();
        let q1: Vec<_> = report.results.iter().filter(|r| r.query == 1).collect();
        let q2: Vec<_> = report.results.iter().filter(|r| r.query == 2).collect();
        assert_eq!(q1.len(), 10, "query 1 runs for the whole stream");
        assert!(!q2.is_empty());
        // Query 2 only exists between its installation and removal: the
        // drained removal at 7000 lets the window that had started by
        // 6999 finish, and nothing later.
        assert!(q2.iter().all(|r| r.window_start >= 3_000), "{q2:?}");
        assert_eq!(q2.iter().map(|r| r.window_end).max(), Some(7_000));
        // Both locals contributed to the added query's windows.
        let full = q2
            .iter()
            .find(|r| r.window_start == 4_000)
            .expect("mid-run window");
        assert_eq!(full.values, vec![Some(100.0)]); // 2 locals x 50 events
    }

    /// A scripted removal lands at one event time for every plan: the
    /// raw-event terminal of a count group stops the query in the ordered
    /// event stream right there, and an unfixed group's merger is purged
    /// when the root's watermark gets there. One local, so the root's
    /// merged stream is the sequential engine's.
    #[test]
    fn scripted_removal_of_count_and_session_queries_matches_sequential() {
        const T: Timestamp = 4_321;
        let queries = vec![
            Query::new(
                1,
                WindowSpec::tumbling_time(1_000).unwrap(),
                AggFunction::Sum,
            ),
            Query::new(
                2,
                WindowSpec::sliding_count(50, 20).unwrap(),
                AggFunction::Sum,
            ),
            Query::new(3, WindowSpec::session(150).unwrap(), AggFunction::Count),
        ];
        // Bursts of 300 ms with 300 ms of silence between them; the
        // removal falls inside a burst.
        let events: Vec<Event> = (0..9_000u64)
            .filter(|ts| ts % 600 < 300)
            .map(|ts| Event::new(ts, (ts % 3) as u32, (ts % 7) as f64))
            .collect();
        for immediate in [true, false] {
            let mut oracle = desis_core::engine::AggregationEngine::new(queries.clone()).unwrap();
            let (before, after) = events.split_at(events.partition_point(|ev| ev.ts < T));
            before.iter().for_each(|ev| oracle.on_event(ev));
            oracle.on_watermark(T - 1);
            oracle.remove_query(2, immediate).unwrap();
            oracle.remove_query(3, immediate).unwrap();
            after.iter().for_each(|ev| oracle.on_event(ev));
            oracle.on_watermark(20_000);
            let expected = oracle.drain_results();
            for id in [2, 3] {
                assert!(expected.iter().any(|r| r.query == id), "query {id} emits");
            }

            let mut cfg =
                ClusterConfig::new(DistributedSystem::Desis, queries.clone(), Topology::star(1));
            cfg.script = [2, 3]
                .map(|id| (T, ClusterCommand::RemoveQuery { id, immediate }))
                .to_vec();
            let report = run_cluster(cfg, vec![events.clone()]).unwrap();
            assert_eq!(report.results, expected, "immediate={immediate}");
        }
    }

    /// The root merges a mixed unfixed group (`tumbling(1000)` Sum and
    /// `session(150)` Count) from two locals: A bursts 300 ms of every
    /// 600 over keys 0–2, B sends key 5 for 100 ms of every 2 s. The
    /// oracle is the sequential engine over the ts-sorted union, told
    /// `on_watermark(T - 1)` before the removal.
    #[test]
    fn scripted_removal_from_a_two_source_unfixed_group_matches_sequential() {
        const T: Timestamp = 4_321;
        let queries = vec![
            Query::new(
                1,
                WindowSpec::tumbling_time(1_000).unwrap(),
                AggFunction::Sum,
            ),
            Query::new(3, WindowSpec::session(150).unwrap(), AggFunction::Count),
        ];
        let a: Vec<Event> = (0..9_000u64)
            .filter(|ts| ts % 600 < 300)
            .map(|ts| Event::new(ts, (ts % 3) as u32, (ts % 7) as f64))
            .collect();
        let b: Vec<Event> = (0..9_000u64)
            .filter(|ts| (1_000..1_100).contains(&(ts % 2_000)))
            .map(|ts| Event::new(ts, 5, 2.0))
            .collect();
        let mut union = [a.clone(), b.clone()].concat();
        union.sort_by_key(|ev| ev.ts);
        let sequential = |removal: Option<(QueryId, bool)>| {
            let mut oracle = desis_core::engine::AggregationEngine::new(queries.clone()).unwrap();
            let (before, after) = union.split_at(union.partition_point(|ev| ev.ts < T));
            before.iter().for_each(|ev| oracle.on_event(ev));
            oracle.on_watermark(T - 1);
            if let Some((id, immediate)) = removal {
                oracle.remove_query(id, immediate).unwrap();
            }
            after.iter().for_each(|ev| oracle.on_event(ev));
            oracle.on_watermark(20_000);
            oracle.drain_results()
        };
        // An immediate removal of the session query loses the sessions
        // that closed before `T` but were still held at the root behind
        // B's clear frontier when the removal purged its merger: locals
        // report no clear frontiers (ROADMAP item 6(e)). Pinned as it stands.
        let lost = |r: &QueryResult| {
            r.query == 3
                && matches!(
                    (r.window_start, r.window_end, r.key),
                    (3_000, 3_449, 0 | 1 | 2 | 5) | (3_600, 4_049, 0..=2)
                )
        };
        let cases = [
            (None, 74),
            (Some((1, true)), 57),
            (Some((1, false)), 60),
            (Some((3, false)), 54),
            (Some((3, true)), 51),
        ];
        for (removal, want) in cases {
            let mut expected = sequential(removal);
            assert_eq!(expected.len(), want, "{removal:?}");
            if removal == Some((3, true)) {
                expected.retain(|r| !lost(r));
                assert_eq!(expected.len(), 44);
            }
            for topology in [Topology::star(2), Topology::three_tier(1, 2)] {
                let mut cfg =
                    ClusterConfig::new(DistributedSystem::Desis, queries.clone(), topology);
                cfg.script = removal
                    .map(|(id, immediate)| (T, ClusterCommand::RemoveQuery { id, immediate }))
                    .into_iter()
                    .collect();
                let report = run_cluster(cfg, vec![a.clone(), b.clone()]).unwrap();
                assert_eq!(report.results, expected, "{removal:?}");
            }
        }
    }

    /// Scripts are rejected for systems that cannot reconfigure at
    /// runtime.
    #[test]
    fn scripts_require_desis() {
        let mut cfg = ClusterConfig::new(
            DistributedSystem::Centralized(desis_baselines::SystemKind::Scotty),
            vec![Query::new(
                1,
                WindowSpec::tumbling_time(1_000).unwrap(),
                AggFunction::Sum,
            )],
            Topology::star(1),
        );
        cfg.script = vec![(
            100,
            ClusterCommand::RemoveQuery {
                id: 1,
                immediate: true,
            },
        )];
        assert!(run_cluster(cfg, vec![feed(10, 1, 0)]).is_err());
    }

    /// Section 3.2 node loss: a child that disconnects without flushing is
    /// flushed on its behalf so the cluster still terminates and reports
    /// the loss.
    #[test]
    fn lost_child_is_flushed_and_reported() {
        use crate::link::link;
        use crate::node::RootWorker;
        let queries = vec![Query::new(
            1,
            WindowSpec::tumbling_time(100).unwrap(),
            AggFunction::Sum,
        )];
        let groups = analyze_for(DistributedSystem::Desis, queries.clone()).unwrap();
        let gid = groups[0].id;
        let (mut tx_a, rx_a, _) = link(CodecKind::Binary, 64, None);
        let (mut tx_b, rx_b, _) = link(CodecKind::Binary, 64, None);
        // Child 7 delivers one slice and a watermark, then flushes; child
        // 9 delivers one slice and then dies (drop without Flush).
        let mk_partial = |value: f64| {
            let mut slicer = desis_core::engine::GroupSlicer::new(groups[0].clone());
            let mut out = Vec::new();
            slicer.on_event(&Event::new(0, 0, value), &mut out);
            slicer.on_watermark(100, &mut out);
            out.remove(0)
        };
        assert!(tx_a.send(&Message::Slice {
            group: gid,
            origin: 7,
            coverage: 1,
            partial: mk_partial(2.0),
        }));
        assert!(tx_a.send(&Message::Watermark(100)));
        assert!(tx_a.send(&Message::Flush));
        drop(tx_a);
        assert!(tx_b.send(&Message::Slice {
            group: gid,
            origin: 9,
            coverage: 1,
            partial: mk_partial(3.0),
        }));
        drop(tx_b); // crash: no Flush

        let mut worker =
            RootWorker::new(DistributedSystem::Desis, &groups, &queries, 2, vec![7, 9]).unwrap();
        let mut results = Vec::new();
        let receivers = vec![(7, rx_a), (9, rx_b)];
        let registry = Arc::new(MetricsRegistry::new());
        let obs = PumpObs::new(&registry, "root");
        let lost = pump_children(&receivers, &obs, RecoveryCtx::detached(), |child, msg| {
            worker.on_message(child, msg);
            results.extend(worker.drain_results());
        });
        assert_eq!(lost, vec![9]);
        assert!(worker.finished());
        assert_eq!(results.len(), 1);
        // Both children's data made it into the window before the loss.
        assert_eq!(results[0].values, vec![Some(5.0)]);
    }
}

#[cfg(test)]
mod latency_table_tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn sampled_lookup_finds_first_at_or_after() {
        let table = LatencyTable::default();
        table.record(100);
        table.record(300);
        assert!(table.lookup(50).is_some());
        assert!(table.lookup(100).is_some());
        assert!(table.lookup(200).is_some()); // falls through to 300
        assert!(table.lookup(301).is_none());
    }

    #[test]
    fn paced_lookup_is_analytic() {
        let table = LatencyTable::default();
        let start = Instant::now();
        table.record_pace(1_000, start, 2.0);
        // Event time 3_000 is 2 s after first_ts at 2x speed => 1 s wall.
        let at = table.lookup(3_000).expect("paced lookup");
        let expected = start + Duration::from_secs(1);
        let delta = if at > expected {
            at - expected
        } else {
            expected - at
        };
        assert!(delta < Duration::from_millis(1), "{delta:?}");
        // A second registration does not overwrite the first.
        table.record_pace(0, Instant::now(), 50.0);
        assert_eq!(table.lookup(3_000), Some(expected));
    }
}

/// Shards one ordered event stream by key into `shards` ordered streams.
///
/// Feeding the shards to a [`Topology::star`] cluster turns it into a
/// multi-core scale-up engine (the paper's evaluation machine has 36
/// cores): group-by-key aggregation over fixed time windows partitions
/// cleanly by key, every shard slices its keys in parallel, and the root
/// merges per-key partials. Session, user-defined, and count windows
/// define boundaries over the *whole* stream and must not be sharded.
pub fn shard_by_key(events: &[Event], shards: usize) -> Vec<Vec<Event>> {
    assert!(shards >= 1);
    let mut out = vec![Vec::with_capacity(events.len() / shards + 1); shards];
    for ev in events {
        out[ev.key as usize % shards].push(*ev);
    }
    out
}

#[cfg(test)]
mod shard_tests {
    use super::*;
    use desis_core::aggregate::AggFunction;
    use desis_core::window::WindowSpec;

    #[test]
    fn sharded_star_matches_single_engine() {
        let queries = vec![
            Query::new(
                1,
                WindowSpec::tumbling_time(500).unwrap(),
                AggFunction::Average,
            ),
            Query::new(
                2,
                WindowSpec::sliding_time(1_000, 500).unwrap(),
                AggFunction::Max,
            ),
        ];
        let events: Vec<Event> = (0..50_000u64)
            .map(|i| Event::new(i / 10, (i % 8) as u32, (i % 101) as f64))
            .collect();

        let mut engine = desis_core::engine::AggregationEngine::new(queries.clone()).unwrap();
        for ev in &events {
            engine.on_event(ev);
        }
        engine.on_watermark(10_000);
        let mut expected = engine.drain_results();

        let feeds = shard_by_key(&events, 4);
        assert!(feeds
            .iter()
            .all(|f| f.windows(2).all(|p| p[0].ts <= p[1].ts)));
        let cfg = ClusterConfig::new(DistributedSystem::Desis, queries, Topology::star(4));
        let report = run_cluster(cfg, feeds).unwrap();
        let mut actual = report.results;

        let key = |r: &QueryResult| (r.query, r.window_start, r.key);
        expected.sort_by_key(key);
        actual.sort_by_key(key);
        assert_eq!(expected, actual);
    }
}
