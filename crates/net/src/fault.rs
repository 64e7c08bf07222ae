//! Seeded, deterministic fault injection for the decentralized substrate.
//!
//! A [`FaultPlan`] schedules faults against a cluster run: per-link frame
//! faults (drop / duplicate / corrupt / delay / partition over an
//! inclusive frame-index range) and per-node faults (crash or stall a
//! local node at an event-time instant). The plan is threaded through
//! [`crate::cluster::ClusterConfig::faults`] into every uplink's
//! [`FaultInjector`], which consults a per-link [`SmallRng`] seeded from
//! `(plan seed, link id)` — so the same plan and seed place exactly the
//! same faults on the same frames in every run, regardless of thread
//! scheduling.
//!
//! Determinism invariants:
//!
//! * frame indices count *original* sends on a link (retransmissions are
//!   not re-faulted and do not advance the index), and each link has a
//!   single sender thread, so the index sequence is reproducible;
//! * the per-link RNG is consulted once per matching probabilistic fault
//!   per frame, in plan order, so draw order is reproducible;
//! * every fired fault is appended to a shared [`FaultLog`] that the run
//!   report exposes, so tests can assert identical placement.
//!
//! Injected faults surface as `net.fault.*` counters (see
//! [`FaultStats`]); what the receiver does about them is the recovery
//! protocol in [`crate::recovery`].

use std::sync::{Arc, Mutex};

use desis_core::obs::{names, Counter, MetricsRegistry};
use desis_core::time::Timestamp;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::topology::{NodeId, NodeRole, Topology};

/// What a link fault does to frames in its range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkFaultKind {
    /// The frame is silently discarded (recoverable via retransmit).
    Drop,
    /// The frame is delivered twice (the receiver drops the duplicate).
    Duplicate,
    /// One byte of the frame is flipped in flight (the v3 checksum turns
    /// this into a decode error, recoverable via retransmit).
    Corrupt,
    /// Delivery of this and all later frames is delayed by `ms`
    /// wall-clock milliseconds (head-of-line blocking; order preserved).
    Delay {
        /// Added latency in milliseconds.
        ms: u64,
    },
    /// The link is down for the frame span: like [`LinkFaultKind::Drop`],
    /// but counted separately. Heals via retransmission once a frame past
    /// the span gets through — unless the retry budget runs out first.
    Partition,
}

impl LinkFaultKind {
    /// Stable name used in fault logs, JSON plans, and counters.
    pub fn name(&self) -> &'static str {
        match self {
            LinkFaultKind::Drop => "drop",
            LinkFaultKind::Duplicate => "duplicate",
            LinkFaultKind::Corrupt => "corrupt",
            LinkFaultKind::Delay { .. } => "delay",
            LinkFaultKind::Partition => "partition",
        }
    }
}

/// One scheduled fault on a link (the uplink of node `link`), applied to
/// original frames with index in `from_frame..=to_frame`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFault {
    /// The uplink this fault applies to, addressed by its sending node
    /// (every non-root node has exactly one uplink).
    pub link: NodeId,
    /// What happens to matching frames.
    pub kind: LinkFaultKind,
    /// First affected frame index (0-based, counting original sends).
    pub from_frame: u64,
    /// Last affected frame index (inclusive).
    pub to_frame: u64,
    /// Probability that a matching frame is actually faulted; `1.0`
    /// faults every frame in range, lower values consult the per-link
    /// seeded RNG.
    pub prob: f64,
}

/// What a node fault does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeFaultKind {
    /// The node's thread exits without flushing — an unrecoverable loss;
    /// the parent flushes on its behalf and reports it lost.
    Crash,
    /// The node stops processing for `ms` wall-clock milliseconds, then
    /// resumes (drives the watermark-lag `Suspect` detection).
    Stall {
        /// Stall duration in milliseconds.
        ms: u64,
    },
}

/// One scheduled fault on a (local) node, firing when the node's event
/// time reaches `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFault {
    /// The local node to fault.
    pub node: NodeId,
    /// Event-time instant at which the fault fires.
    pub at: Timestamp,
    /// What happens.
    pub kind: NodeFaultKind,
}

/// A deterministic fault schedule for one cluster run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the per-link RNGs (probabilistic faults and corrupt-byte
    /// positions). Same seed + same plan ⇒ identical placement.
    pub seed: u64,
    /// Scheduled link faults.
    pub links: Vec<LinkFault>,
    /// Scheduled node faults.
    pub nodes: Vec<NodeFault>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            links: Vec::new(),
            nodes: Vec::new(),
        }
    }

    /// Adds a link fault over `from..=to` with probability 1 (builder
    /// style, mostly for tests).
    pub fn with_link_fault(
        mut self,
        link: NodeId,
        kind: LinkFaultKind,
        from: u64,
        to: u64,
    ) -> Self {
        self.links.push(LinkFault {
            link,
            kind,
            from_frame: from,
            to_frame: to,
            prob: 1.0,
        });
        self
    }

    /// Adds a node fault (builder style, mostly for tests).
    pub fn with_node_fault(mut self, node: NodeId, kind: NodeFaultKind, at: Timestamp) -> Self {
        self.nodes.push(NodeFault { node, at, kind });
        self
    }

    /// Event time at which `node` crashes, if the plan crashes it.
    pub fn crash_at(&self, node: NodeId) -> Option<Timestamp> {
        self.nodes
            .iter()
            .find(|f| f.node == node && matches!(f.kind, NodeFaultKind::Crash))
            .map(|f| f.at)
    }

    /// `(event time, stall ms)` at which `node` stalls, if scheduled.
    pub fn stall_at(&self, node: NodeId) -> Option<(Timestamp, u64)> {
        self.nodes.iter().find_map(|f| match f.kind {
            NodeFaultKind::Stall { ms } if f.node == node => Some((f.at, ms)),
            _ => None,
        })
    }

    /// Builds the injector for the uplink of `link`, or `None` when the
    /// plan schedules nothing there (keeping the fault-free send path
    /// branchless).
    pub fn injector_for(
        &self,
        link: NodeId,
        stats: Arc<FaultStats>,
        log: FaultLog,
    ) -> Option<FaultInjector> {
        let faults: Vec<LinkFault> = self
            .links
            .iter()
            .filter(|f| f.link == link)
            .cloned()
            .collect();
        if faults.is_empty() {
            return None;
        }
        Some(FaultInjector {
            link,
            faults,
            rng: SmallRng::seed_from_u64(
                self.seed ^ (u64::from(link) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            next_frame: 0,
            stats,
            log,
        })
    }

    /// Checks the plan against a topology: link faults must target nodes
    /// that have an uplink (non-root), node faults must target local
    /// (leaf) nodes, probabilities must lie in `[0, 1]`, and frame ranges
    /// must be non-empty.
    pub fn validate(&self, topology: &Topology) -> Result<(), String> {
        for f in &self.links {
            if (f.link as usize) >= topology.len() || topology.parent(f.link).is_none() {
                return Err(format!(
                    "link fault targets node {} without an uplink",
                    f.link
                ));
            }
            if !(0.0..=1.0).contains(&f.prob) {
                return Err(format!("fault probability {} outside [0, 1]", f.prob));
            }
            if f.from_frame > f.to_frame {
                return Err(format!(
                    "empty frame range {}..={} on link {}",
                    f.from_frame, f.to_frame, f.link
                ));
            }
        }
        for f in &self.nodes {
            if (f.node as usize) >= topology.len() || topology.role(f.node) != NodeRole::Local {
                return Err(format!(
                    "node fault targets node {}, which is not a local (leaf) node",
                    f.node
                ));
            }
        }
        Ok(())
    }

    /// Parses a plan from its JSON description (see `EXPERIMENTS.md`
    /// "Chaos runs" for the schema):
    ///
    /// ```json
    /// {
    ///   "seed": 7,
    ///   "links": [
    ///     {"link": 1, "fault": "drop", "frames": [2, 4]},
    ///     {"link": 1, "fault": "delay", "frames": [0, 9], "ms": 40, "prob": 0.5}
    ///   ],
    ///   "nodes": [
    ///     {"node": 0, "fault": "crash", "at": 5000},
    ///     {"node": 0, "fault": "stall", "at": 1000, "ms": 30}
    ///   ]
    /// }
    /// ```
    pub fn from_json(input: &str) -> Result<FaultPlan, String> {
        let value = json::parse(input)?;
        let obj = value.as_obj("plan")?;
        let mut plan = FaultPlan::new(0);
        for (key, val) in obj {
            match key.as_str() {
                "seed" => plan.seed = val.as_u64("seed")?,
                "links" => {
                    for entry in val.as_arr("links")? {
                        plan.links.push(parse_link_fault(entry)?);
                    }
                }
                "nodes" => {
                    for entry in val.as_arr("nodes")? {
                        plan.nodes.push(parse_node_fault(entry)?);
                    }
                }
                other => return Err(format!("unknown plan key {other:?}")),
            }
        }
        Ok(plan)
    }
}

fn parse_link_fault(value: &json::Value) -> Result<LinkFault, String> {
    let obj = value.as_obj("link fault")?;
    let mut link = None;
    let mut fault = None;
    let mut frames = None;
    let mut ms = None;
    let mut prob = 1.0f64;
    for (key, val) in obj {
        match key.as_str() {
            "link" => link = Some(val.as_u64("link")? as NodeId),
            "fault" => fault = Some(val.as_str("fault")?.to_string()),
            "frames" => {
                let arr = val.as_arr("frames")?;
                if arr.len() != 2 {
                    return Err("\"frames\" must be [from, to]".into());
                }
                frames = Some((arr[0].as_u64("frames[0]")?, arr[1].as_u64("frames[1]")?));
            }
            "ms" => ms = Some(val.as_u64("ms")?),
            "prob" => prob = val.as_f64("prob")?,
            other => return Err(format!("unknown link fault key {other:?}")),
        }
    }
    let link = link.ok_or("link fault missing \"link\"")?;
    let fault = fault.ok_or("link fault missing \"fault\"")?;
    let (from_frame, to_frame) = frames.ok_or("link fault missing \"frames\"")?;
    let kind = match fault.as_str() {
        "drop" => LinkFaultKind::Drop,
        "duplicate" => LinkFaultKind::Duplicate,
        "corrupt" => LinkFaultKind::Corrupt,
        "delay" => LinkFaultKind::Delay {
            ms: ms.ok_or("delay fault missing \"ms\"")?,
        },
        "partition" => LinkFaultKind::Partition,
        other => return Err(format!("unknown link fault kind {other:?}")),
    };
    Ok(LinkFault {
        link,
        kind,
        from_frame,
        to_frame,
        prob,
    })
}

fn parse_node_fault(value: &json::Value) -> Result<NodeFault, String> {
    let obj = value.as_obj("node fault")?;
    let mut node = None;
    let mut fault = None;
    let mut at = None;
    let mut ms = None;
    for (key, val) in obj {
        match key.as_str() {
            "node" => node = Some(val.as_u64("node")? as NodeId),
            "fault" => fault = Some(val.as_str("fault")?.to_string()),
            "at" => at = Some(val.as_u64("at")?),
            "ms" => ms = Some(val.as_u64("ms")?),
            other => return Err(format!("unknown node fault key {other:?}")),
        }
    }
    let node = node.ok_or("node fault missing \"node\"")?;
    let fault = fault.ok_or("node fault missing \"fault\"")?;
    let at = at.ok_or("node fault missing \"at\"")?;
    let kind = match fault.as_str() {
        "crash" => NodeFaultKind::Crash,
        "stall" => NodeFaultKind::Stall {
            ms: ms.ok_or("stall fault missing \"ms\"")?,
        },
        other => return Err(format!("unknown node fault kind {other:?}")),
    };
    Ok(NodeFault { node, at, kind })
}

/// `net.fault.*` counters: how many faults the injectors actually fired,
/// by class. Registered per cluster run so chaos tests can assert the
/// counts match the injected plan.
#[derive(Debug)]
pub struct FaultStats {
    /// Frames silently discarded (`net.fault.dropped`).
    pub dropped: Arc<Counter>,
    /// Frames delivered twice (`net.fault.duplicated`).
    pub duplicated: Arc<Counter>,
    /// Frames with a byte flipped in flight (`net.fault.corrupted`).
    pub corrupted: Arc<Counter>,
    /// Frames held back by a delay fault (`net.fault.delayed`).
    pub delayed: Arc<Counter>,
    /// Frames eaten by a partition span (`net.fault.partitioned`).
    pub partitioned: Arc<Counter>,
    /// Local nodes crashed by the plan (`net.fault.crashes`).
    pub crashes: Arc<Counter>,
    /// Local nodes stalled by the plan (`net.fault.stalls`).
    pub stalls: Arc<Counter>,
}

impl FaultStats {
    /// Counters registered in `registry` under `net.fault.*`.
    pub fn registered(registry: &MetricsRegistry) -> Arc<Self> {
        Arc::new(FaultStats {
            dropped: registry.counter(names::FAULT_DROPPED),
            duplicated: registry.counter(names::FAULT_DUPLICATED),
            corrupted: registry.counter(names::FAULT_CORRUPTED),
            delayed: registry.counter(names::FAULT_DELAYED),
            partitioned: registry.counter(names::FAULT_PARTITIONED),
            crashes: registry.counter(names::FAULT_CRASHES),
            stalls: registry.counter(names::FAULT_STALLS),
        })
    }

    /// Detached counters (not visible in any registry), for tests.
    pub fn detached() -> Arc<Self> {
        Arc::new(FaultStats {
            dropped: Arc::new(Counter::default()),
            duplicated: Arc::new(Counter::default()),
            corrupted: Arc::new(Counter::default()),
            delayed: Arc::new(Counter::default()),
            partitioned: Arc::new(Counter::default()),
            crashes: Arc::new(Counter::default()),
            stalls: Arc::new(Counter::default()),
        })
    }
}

/// One fault an injector actually fired, for the run report's placement
/// log ([`crate::cluster::ClusterReport::faults_injected`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// The uplink the fault fired on (sending node id).
    pub link: NodeId,
    /// The original-send frame index that was faulted.
    pub frame: u64,
    /// Fault class name (see [`LinkFaultKind::name`]).
    pub kind: &'static str,
}

/// Shared append-only log of fired faults, one per cluster run.
pub type FaultLog = Arc<Mutex<Vec<InjectedFault>>>;

/// Creates an empty shared fault log.
pub fn fault_log() -> FaultLog {
    Arc::new(Mutex::new(Vec::new()))
}

/// What the injector decided to do with one frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameFate {
    /// Discard the frame instead of sending it.
    pub drop: bool,
    /// Send the frame twice.
    pub duplicate: bool,
    /// Flip the byte at this offset before sending.
    pub corrupt_at: Option<usize>,
    /// Sleep this many milliseconds before sending.
    pub delay_ms: u64,
}

/// Per-link fault decider, owned by the sending half of a link. Consulted
/// once per original frame; see the module docs for the determinism
/// rules.
#[derive(Debug)]
pub struct FaultInjector {
    link: NodeId,
    faults: Vec<LinkFault>,
    rng: SmallRng,
    next_frame: u64,
    stats: Arc<FaultStats>,
    log: FaultLog,
}

impl FaultInjector {
    /// Decides the fate of the next original frame (of `frame_len`
    /// bytes), advancing the frame index and recording fired faults in
    /// the stats and the placement log.
    pub fn on_frame(&mut self, frame_len: usize) -> FrameFate {
        let frame = self.next_frame;
        self.next_frame += 1;
        let mut fate = FrameFate::default();
        let mut fired: Vec<&'static str> = Vec::new();
        for f in &self.faults {
            if frame < f.from_frame || frame > f.to_frame {
                continue;
            }
            if f.prob < 1.0 && !self.rng.gen_bool(f.prob) {
                continue;
            }
            match f.kind {
                LinkFaultKind::Drop => {
                    fate.drop = true;
                    self.stats.dropped.inc();
                }
                LinkFaultKind::Partition => {
                    fate.drop = true;
                    self.stats.partitioned.inc();
                }
                LinkFaultKind::Duplicate => {
                    fate.duplicate = true;
                    self.stats.duplicated.inc();
                }
                LinkFaultKind::Corrupt => {
                    if frame_len > 0 {
                        fate.corrupt_at = Some((self.rng.gen_range(0..frame_len as u64)) as usize);
                    }
                    self.stats.corrupted.inc();
                }
                LinkFaultKind::Delay { ms } => {
                    fate.delay_ms += ms;
                    self.stats.delayed.inc();
                }
            }
            fired.push(f.kind.name());
        }
        if !fired.is_empty() {
            let mut log = self.log.lock().unwrap_or_else(|e| e.into_inner());
            for kind in fired {
                log.push(InjectedFault {
                    link: self.link,
                    frame,
                    kind,
                });
            }
        }
        fate
    }
}

/// Minimal hand-rolled JSON parser (the workspace has no serde): just
/// enough for fault-plan files — objects, arrays, numbers, strings,
/// booleans, null.
mod json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// Object, insertion-ordered.
        Obj(Vec<(String, Value)>),
        /// Array.
        Arr(Vec<Value>),
        /// Number, with the exact integer kept when representable.
        Num {
            /// Exact value when the literal is a non-negative integer.
            int: Option<u64>,
            /// The value as a double.
            float: f64,
        },
        /// String.
        Str(String),
        /// Boolean.
        Bool(bool),
        /// Null.
        Null,
    }

    impl Value {
        pub fn as_obj(&self, what: &str) -> Result<&[(String, Value)], String> {
            match self {
                Value::Obj(fields) => Ok(fields),
                other => Err(format!("{what}: expected object, got {other:?}")),
            }
        }
        pub fn as_arr(&self, what: &str) -> Result<&[Value], String> {
            match self {
                Value::Arr(items) => Ok(items),
                other => Err(format!("{what}: expected array, got {other:?}")),
            }
        }
        pub fn as_str(&self, what: &str) -> Result<&str, String> {
            match self {
                Value::Str(s) => Ok(s),
                other => Err(format!("{what}: expected string, got {other:?}")),
            }
        }
        pub fn as_u64(&self, what: &str) -> Result<u64, String> {
            match self {
                Value::Num { int: Some(v), .. } => Ok(*v),
                other => Err(format!(
                    "{what}: expected non-negative integer, got {other:?}"
                )),
            }
        }
        pub fn as_f64(&self, what: &str) -> Result<f64, String> {
            match self {
                Value::Num { float, .. } => Ok(*float),
                other => Err(format!("{what}: expected number, got {other:?}")),
            }
        }
    }

    pub fn parse(input: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| b.is_ascii_whitespace())
            {
                self.pos += 1;
            }
        }

        fn peek(&mut self) -> Result<u8, String> {
            self.skip_ws();
            self.bytes
                .get(self.pos)
                .copied()
                .ok_or_else(|| "unexpected end of input".to_string())
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek()? == b {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
            }
        }

        fn literal(&mut self, lit: &str, value: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(value)
            } else {
                Err(format!("bad literal at byte {}", self.pos))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek()? {
                b'{' => self.object(),
                b'[' => self.array(),
                b'"' => Ok(Value::Str(self.string()?)),
                b't' => self.literal("true", Value::Bool(true)),
                b'f' => self.literal("false", Value::Bool(false)),
                b'n' => self.literal("null", Value::Null),
                b'-' | b'0'..=b'9' => self.number(),
                other => Err(format!(
                    "unexpected {:?} at byte {}",
                    char::from(other),
                    self.pos
                )),
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            if self.peek()? == b'}' {
                self.pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.expect(b':')?;
                fields.push((key, self.value()?));
                match self.peek()? {
                    b',' => self.pos += 1,
                    b'}' => {
                        self.pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    other => {
                        return Err(format!(
                            "expected ',' or '}}', got {:?} at byte {}",
                            char::from(other),
                            self.pos
                        ))
                    }
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            if self.peek()? == b']' {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(self.value()?);
                match self.peek()? {
                    b',' => self.pos += 1,
                    b']' => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    other => {
                        return Err(format!(
                            "expected ',' or ']', got {:?} at byte {}",
                            char::from(other),
                            self.pos
                        ))
                    }
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self
                    .bytes
                    .get(self.pos)
                    .copied()
                    .ok_or("unterminated string")?
                {
                    b'"' => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    b'\\' => {
                        self.pos += 1;
                        let esc = self
                            .bytes
                            .get(self.pos)
                            .copied()
                            .ok_or("unterminated escape")?;
                        self.pos += 1;
                        out.push(match esc {
                            b'"' => '"',
                            b'\\' => '\\',
                            b'/' => '/',
                            b'n' => '\n',
                            b't' => '\t',
                            b'r' => '\r',
                            other => {
                                return Err(format!("unsupported escape \\{}", char::from(other)))
                            }
                        });
                    }
                    byte => {
                        // Copy UTF-8 continuation bytes through verbatim.
                        out.push(char::from(byte));
                        self.pos += 1;
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            if self.bytes.get(self.pos) == Some(&b'-') {
                self.pos += 1;
            }
            while self.bytes.get(self.pos).is_some_and(|b| {
                b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-')
            }) {
                self.pos += 1;
            }
            let text =
                std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number literal");
            let float: f64 = text
                .parse()
                .map_err(|_| format!("bad number {text:?} at byte {start}"))?;
            Ok(Value::Num {
                int: text.parse::<u64>().ok(),
                float,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
        "seed": 42,
        "links": [
            {"link": 1, "fault": "drop", "frames": [2, 4]},
            {"link": 1, "fault": "delay", "frames": [0, 9], "ms": 40, "prob": 0.5},
            {"link": 2, "fault": "corrupt", "frames": [3, 3]},
            {"link": 2, "fault": "duplicate", "frames": [5, 6]},
            {"link": 3, "fault": "partition", "frames": [0, 100]}
        ],
        "nodes": [
            {"node": 0, "fault": "crash", "at": 5000},
            {"node": 1, "fault": "stall", "at": 1000, "ms": 30}
        ]
    }"#;

    #[test]
    fn parses_full_plan_json() {
        let plan = FaultPlan::from_json(SAMPLE).expect("parse");
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.links.len(), 5);
        assert_eq!(plan.nodes.len(), 2);
        assert_eq!(plan.links[0].kind, LinkFaultKind::Drop);
        assert_eq!((plan.links[0].from_frame, plan.links[0].to_frame), (2, 4));
        assert_eq!(plan.links[1].kind, LinkFaultKind::Delay { ms: 40 });
        assert!((plan.links[1].prob - 0.5).abs() < 1e-12);
        assert_eq!(plan.links[4].kind, LinkFaultKind::Partition);
        assert_eq!(plan.crash_at(0), Some(5000));
        assert_eq!(plan.stall_at(1), Some((1000, 30)));
        assert_eq!(plan.crash_at(1), None);
    }

    #[test]
    fn rejects_malformed_plans() {
        assert!(FaultPlan::from_json("").is_err());
        assert!(FaultPlan::from_json("{\"seed\": -1}").is_err());
        assert!(FaultPlan::from_json("{\"bogus\": 1}").is_err());
        assert!(FaultPlan::from_json(
            "{\"links\": [{\"link\": 1, \"fault\": \"melt\", \"frames\": [0, 1]}]}"
        )
        .is_err());
        assert!(
            FaultPlan::from_json(
                "{\"links\": [{\"link\": 1, \"fault\": \"delay\", \"frames\": [0, 1]}]}"
            )
            .is_err(),
            "delay without ms must fail"
        );
        assert!(FaultPlan::from_json("{\"seed\": 1} trailing").is_err());
    }

    #[test]
    fn validate_checks_topology_roles() {
        let topo = Topology::three_tier(1, 2); // root 0, intermediate, locals
        let root = topo.root();
        let local = topo.nodes_with_role(NodeRole::Local)[0];
        let inter = topo.nodes_with_role(NodeRole::Intermediate)[0];
        let ok = FaultPlan::new(1)
            .with_link_fault(local, LinkFaultKind::Drop, 0, 1)
            .with_link_fault(inter, LinkFaultKind::Delay { ms: 5 }, 0, 1)
            .with_node_fault(local, NodeFaultKind::Crash, 100);
        assert!(ok.validate(&topo).is_ok());
        // The root has no uplink.
        let bad = FaultPlan::new(1).with_link_fault(root, LinkFaultKind::Drop, 0, 1);
        assert!(bad.validate(&topo).is_err());
        // Node faults only apply to leaves.
        let bad = FaultPlan::new(1).with_node_fault(inter, NodeFaultKind::Crash, 100);
        assert!(bad.validate(&topo).is_err());
        // Probabilities outside [0, 1] are rejected.
        let mut bad = FaultPlan::new(1).with_link_fault(local, LinkFaultKind::Drop, 0, 1);
        bad.links[0].prob = 1.5;
        assert!(bad.validate(&topo).is_err());
    }

    #[test]
    fn injector_is_deterministic_per_seed() {
        let plan = FaultPlan::from_json(SAMPLE).expect("parse");
        let run = |seed: u64| {
            let mut plan = plan.clone();
            plan.seed = seed;
            let log = fault_log();
            let mut inj = plan
                .injector_for(1, FaultStats::detached(), Arc::clone(&log))
                .expect("link 1 has faults");
            let fates: Vec<FrameFate> = (0..12).map(|_| inj.on_frame(100)).collect();
            let log = log.lock().unwrap().clone();
            (fates, log)
        };
        let (fates_a, log_a) = run(7);
        let (fates_b, log_b) = run(7);
        assert_eq!(fates_a, fates_b, "same seed must place identical faults");
        assert_eq!(log_a, log_b);
        // Frames 2..=4 are always dropped (prob 1).
        assert!(fates_a[2].drop && fates_a[3].drop && fates_a[4].drop);
        assert!(!fates_a[5].drop && !fates_a[11].drop);
        // A different seed moves the probabilistic delays.
        let (fates_c, _) = run(8);
        assert_ne!(
            fates_a, fates_c,
            "different seed should differ (p=0.5 x 10 frames)"
        );
    }

    #[test]
    fn injector_skips_links_without_faults() {
        let plan = FaultPlan::from_json(SAMPLE).expect("parse");
        assert!(plan
            .injector_for(99, FaultStats::detached(), fault_log())
            .is_none());
    }

    #[test]
    fn injector_counts_into_stats() {
        let plan = FaultPlan::new(0)
            .with_link_fault(1, LinkFaultKind::Drop, 0, 1)
            .with_link_fault(1, LinkFaultKind::Duplicate, 2, 2)
            .with_link_fault(1, LinkFaultKind::Corrupt, 3, 3)
            .with_link_fault(1, LinkFaultKind::Delay { ms: 5 }, 4, 4)
            .with_link_fault(1, LinkFaultKind::Partition, 5, 5);
        let stats = FaultStats::detached();
        let log = fault_log();
        let mut inj = plan
            .injector_for(1, Arc::clone(&stats), Arc::clone(&log))
            .unwrap();
        let fates: Vec<FrameFate> = (0..6).map(|_| inj.on_frame(64)).collect();
        assert_eq!(stats.dropped.get(), 2);
        assert_eq!(stats.duplicated.get(), 1);
        assert_eq!(stats.corrupted.get(), 1);
        assert_eq!(stats.delayed.get(), 1);
        assert_eq!(stats.partitioned.get(), 1);
        assert!(fates[3].corrupt_at.is_some_and(|p| p < 64));
        assert_eq!(fates[4].delay_ms, 5);
        assert!(fates[5].drop, "partition drops the frame");
        assert_eq!(log.lock().unwrap().len(), 6);
    }
}
