//! Wire codecs with real, measurable encodings.
//!
//! Every message that crosses a link is actually serialized to bytes and
//! deserialized on the receiving node, so the per-link byte counters of
//! Figure 11 measure genuine wire sizes. Two formats implement one shared
//! encoding walk:
//!
//! * [`CodecKind::Binary`] — compact little-endian fixed-width fields
//!   ("all other systems send bytes directly", Section 6.4.1);
//! * [`CodecKind::Text`] — decimal strings joined by `;`, modelling
//!   Disco's string-based messaging, which the paper blames for Disco's
//!   higher network overhead in Figure 11b.

use bytes::{Buf, BufMut};

use desis_core::aggregate::{OperatorBundle, OperatorKind, OperatorSet, OperatorState};
use desis_core::engine::{SealedSlice, SessionGap, SliceData, WindowEnd};
use desis_core::event::{Event, Key, Marker, MarkerKind};
use desis_core::obs::trace::TraceId;
use rustc_hash::FxHashMap;

use crate::message::{Message, WindowPartial};

/// Which wire format a link uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CodecKind {
    /// Compact binary.
    #[default]
    Binary,
    /// Decimal text (Disco-style).
    Text,
}

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

type Result<T> = std::result::Result<T, CodecError>;

// ---------------------------------------------------------------------
// Sink / Source abstraction shared by both formats.
// ---------------------------------------------------------------------

trait Sink {
    fn u8(&mut self, v: u8);
    /// Variable-length unsigned integer (LEB128 in binary, decimal in
    /// text). Used for ids, timestamps, lengths, and keys, which are
    /// usually small.
    fn vu64(&mut self, v: u64);
    fn f64(&mut self, v: f64);
}

trait Source {
    fn u8(&mut self) -> Result<u8>;
    fn vu64(&mut self) -> Result<u64>;
    fn f64(&mut self) -> Result<f64>;
}

struct BinarySink(Vec<u8>);

impl Sink for BinarySink {
    fn u8(&mut self, v: u8) {
        self.0.put_u8(v);
    }
    fn vu64(&mut self, mut v: u64) {
        // LEB128.
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.0.put_u8(byte);
                break;
            }
            self.0.put_u8(byte | 0x80);
        }
    }
    fn f64(&mut self, v: f64) {
        self.0.put_f64_le(v);
    }
}

struct BinarySource<'a>(&'a [u8]);

impl BinarySource<'_> {
    fn need(&self, n: usize) -> Result<()> {
        if self.0.remaining() < n {
            Err(CodecError(format!(
                "truncated frame: need {n} bytes, have {}",
                self.0.remaining()
            )))
        } else {
            Ok(())
        }
    }
}

impl Source for BinarySource<'_> {
    fn u8(&mut self) -> Result<u8> {
        self.need(1)?;
        Ok(self.0.get_u8())
    }
    fn vu64(&mut self) -> Result<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            self.need(1)?;
            let byte = self.0.get_u8();
            if shift >= 64 {
                return Err(CodecError("varint overflow".into()));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }
    fn f64(&mut self) -> Result<f64> {
        self.need(8)?;
        Ok(self.0.get_f64_le())
    }
}

/// Text format: each field rendered in decimal and terminated by `;`.
struct TextSink(String);

impl TextSink {
    fn push(&mut self, args: std::fmt::Arguments<'_>) {
        use std::fmt::Write;
        self.0.write_fmt(args).expect("string write");
        self.0.push(';');
    }
}

impl Sink for TextSink {
    fn u8(&mut self, v: u8) {
        self.push(format_args!("{v}"));
    }
    fn vu64(&mut self, v: u64) {
        self.push(format_args!("{v}"));
    }
    fn f64(&mut self, v: f64) {
        // `{:?}` prints the shortest representation that round-trips.
        self.push(format_args!("{v:?}"));
    }
}

struct TextSource<'a> {
    fields: std::str::Split<'a, char>,
}

impl TextSource<'_> {
    fn next_field(&mut self) -> Result<&str> {
        self.fields
            .next()
            .ok_or_else(|| CodecError("truncated text frame".into()))
    }
    fn parse<T: std::str::FromStr>(&mut self) -> Result<T> {
        let field = self.next_field()?;
        field
            .parse()
            .map_err(|_| CodecError(format!("bad field {field:?}")))
    }
}

impl Source for TextSource<'_> {
    fn u8(&mut self) -> Result<u8> {
        self.parse()
    }
    fn vu64(&mut self) -> Result<u64> {
        self.parse()
    }
    fn f64(&mut self) -> Result<f64> {
        self.parse()
    }
}

// ---------------------------------------------------------------------
// The encoding walk (format-independent).
// ---------------------------------------------------------------------

/// Wire frame format version, the first field of every frame.
///
/// Version 3 (current) wraps the message body in a reliability envelope:
/// after the version field comes a sequence-presence flag, the optional
/// per-link sequence number (see `desis_net::recovery`), then the message
/// body, and finally an FNV-1a-64 checksum over everything before it
/// (eight little-endian bytes in binary frames, one decimal field in text
/// frames). The checksum turns in-flight corruption into a detectable
/// [`CodecError`] so the receiver can request a retransmit instead of
/// silently aggregating garbage.
///
/// No other version decodes: version 2 had neither sequence number nor
/// checksum and version 1 no version field at all, and nothing sends
/// either any more, so a version mismatch — like any other protocol
/// violation — is a decode error.
pub const WIRE_VERSION: u8 = 3;

/// A decoded wire frame: the message plus its reliability envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Per-link sequence number; `None` for frames sent without
    /// sequencing (e.g. standalone links outside a cluster).
    pub seq: Option<u64>,
    /// The decoded message body.
    pub msg: Message,
}

/// FNV-1a 64-bit hash, the v3 frame checksum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const TAG_EVENTS: u8 = 1;
const TAG_SLICE: u8 = 2;
const TAG_WINDOW_PARTIALS: u8 = 3;
const TAG_WATERMARK: u8 = 4;
const TAG_FLUSH: u8 = 5;

fn put_event<S: Sink>(s: &mut S, ev: &Event) {
    s.vu64(ev.ts);
    s.vu64(u64::from(ev.key));
    s.f64(ev.value);
    match ev.marker {
        None => s.u8(0),
        Some(m) => {
            s.u8(match m.kind {
                MarkerKind::Start => 1,
                MarkerKind::End => 2,
            });
            s.vu64(u64::from(m.channel));
        }
    }
}

fn get_event<S: Source>(s: &mut S) -> Result<Event> {
    let ts = s.vu64()?;
    let key = s.vu64()? as u32;
    let value = s.f64()?;
    let marker = match s.u8()? {
        0 => None,
        tag @ (1 | 2) => Some(Marker {
            kind: if tag == 1 {
                MarkerKind::Start
            } else {
                MarkerKind::End
            },
            channel: s.vu64()? as u32,
        }),
        other => return Err(CodecError(format!("bad marker tag {other}"))),
    };
    Ok(Event {
        ts,
        key,
        value,
        marker,
    })
}

fn put_state<S: Sink>(s: &mut S, state: &OperatorState) {
    match state {
        OperatorState::Sum(v) => s.f64(*v),
        OperatorState::Count(c) => s.vu64(*c),
        OperatorState::Mult(v) => s.f64(*v),
        OperatorState::DSort(extremes) => match extremes {
            None => s.u8(0),
            Some((min, max)) => {
                s.u8(1);
                s.f64(*min);
                s.f64(*max);
            }
        },
        OperatorState::NSort { values, sorted } => {
            s.u8(u8::from(*sorted));
            s.vu64(values.len() as u64);
            for v in values {
                s.f64(*v);
            }
        }
        OperatorState::SumSq(v) => s.f64(*v),
    }
}

fn get_state<S: Source>(s: &mut S, kind: OperatorKind) -> Result<OperatorState> {
    Ok(match kind {
        OperatorKind::Sum => OperatorState::Sum(s.f64()?),
        OperatorKind::Count => OperatorState::Count(s.vu64()?),
        OperatorKind::Mult => OperatorState::Mult(s.f64()?),
        OperatorKind::DecomposableSort => match s.u8()? {
            0 => OperatorState::DSort(None),
            1 => OperatorState::DSort(Some((s.f64()?, s.f64()?))),
            other => return Err(CodecError(format!("bad dsort tag {other}"))),
        },
        OperatorKind::NonDecomposableSort => {
            let sorted = s.u8()? != 0;
            let len = s.vu64()? as usize;
            let mut values = Vec::with_capacity(len.min(1 << 20));
            for _ in 0..len {
                values.push(s.f64()?);
            }
            OperatorState::NSort { values, sorted }
        }
        OperatorKind::SumSquares => OperatorState::SumSq(s.f64()?),
    })
}

fn put_bundle<S: Sink>(s: &mut S, bundle: &OperatorBundle) {
    let set = bundle.operator_set();
    let mut mask = 0u8;
    for kind in set.iter() {
        mask |= 1 << kind as u8;
    }
    s.u8(mask);
    for kind in set.iter() {
        put_state(s, bundle.get(kind).expect("kind in set"));
    }
}

fn get_bundle<S: Source>(s: &mut S) -> Result<OperatorBundle> {
    let mask = s.u8()?;
    let mut set = OperatorSet::EMPTY;
    for kind in OperatorKind::ALL {
        if mask & (1 << kind as u8) != 0 {
            set = set.with(kind);
        }
    }
    let mut bundle = OperatorBundle::new(OperatorSet::EMPTY);
    for kind in set.iter() {
        bundle.adopt(get_state(s, kind)?);
    }
    Ok(bundle)
}

fn put_slice_data<S: Sink>(s: &mut S, data: &SliceData) {
    s.vu64(data.per_selection.len() as u64);
    for map in &data.per_selection {
        s.vu64(map.len() as u64);
        // Encode in key order: frame bytes (and thus per-node byte
        // counts and fault placement) must not vary with hash order.
        let mut keys: Vec<Key> = map.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            s.vu64(u64::from(key));
            put_bundle(s, &map[&key]);
        }
    }
}

fn get_slice_data<S: Source>(s: &mut S) -> Result<SliceData> {
    let selections = s.vu64()? as usize;
    // Length fields come off the wire: bound allocations before trusting
    // them (a corrupted frame must fail, not exhaust memory).
    if selections > 1 << 12 {
        return Err(CodecError(format!(
            "implausible selection count {selections}"
        )));
    }
    let mut data = SliceData::new(selections);
    for sel in 0..selections {
        let entries = s.vu64()? as usize;
        let map: &mut FxHashMap<_, _> = &mut data.per_selection[sel];
        map.reserve(entries.min(1 << 16));
        for _ in 0..entries {
            let key = s.vu64()? as u32;
            map.insert(key, get_bundle(s)?);
        }
    }
    Ok(data)
}

fn put_slice<S: Sink>(s: &mut S, slice: &SealedSlice) {
    s.vu64(slice.id);
    s.vu64(slice.start_ts);
    // Everything after this point clusters around the slice boundary, so
    // it is delta-encoded against the slice's end/id: an `ep` mark costs
    // a handful of bytes, keeping Desis' traffic flat in the number of
    // concurrent windows (Figure 11d).
    s.vu64(slice.end_ts - slice.start_ts);
    s.vu64(slice.id - slice.low_watermark.min(slice.id));
    s.vu64(slice.end_ts - slice.low_watermark_ts.min(slice.end_ts));
    // Optional provenance trace id (wire version 2): presence flag, then
    // the raw id. Untraced slices cost one byte.
    match slice.trace {
        None => s.u8(0),
        Some(id) => {
            s.u8(1);
            s.vu64(id.as_u64());
        }
    }
    s.vu64(slice.ends.len() as u64);
    for end in &slice.ends {
        s.vu64(end.query);
        let delta_form = end.last_slice <= slice.id
            && end.first_slice <= end.last_slice
            && end.end_ts <= slice.end_ts
            && end.start_ts <= end.end_ts;
        if delta_form {
            s.u8(0);
            s.vu64(slice.id - end.last_slice);
            s.vu64(end.last_slice - end.first_slice);
            s.vu64(slice.end_ts - end.end_ts);
            s.vu64(end.end_ts - end.start_ts);
        } else {
            // Count-domain windows can exceed the slice's time range.
            s.u8(1);
            s.vu64(end.first_slice);
            s.vu64(end.last_slice);
            s.vu64(end.start_ts);
            s.vu64(end.end_ts);
        }
    }
    s.vu64(slice.session_gaps.len() as u64);
    for gap in &slice.session_gaps {
        s.vu64(gap.query);
        s.vu64(slice.end_ts - gap.gap_end.min(slice.end_ts));
        s.vu64(gap.gap_end - gap.gap_start);
    }
    put_slice_data(s, &slice.data);
}

fn get_slice<S: Source>(s: &mut S) -> Result<SealedSlice> {
    let id = s.vu64()?;
    let start_ts = s.vu64()?;
    // The end timestamp is delta-encoded; an adversarial delta must fail
    // the decode rather than overflow (a panic in debug builds).
    let end_ts = start_ts
        .checked_add(s.vu64()?)
        .ok_or_else(|| CodecError("slice end_ts delta overflows u64".into()))?;
    let low_watermark = id - s.vu64()?.min(id);
    let low_watermark_ts = end_ts - s.vu64()?.min(end_ts);
    let trace = match s.u8()? {
        0 => None,
        1 => Some(TraceId::from_u64(s.vu64()?)),
        other => return Err(CodecError(format!("bad trace tag {other}"))),
    };
    let n_ends = s.vu64()? as usize;
    let mut ends = Vec::with_capacity(n_ends.min(1 << 16));
    for _ in 0..n_ends {
        let query = s.vu64()?;
        let end = match s.u8()? {
            0 => {
                let last_slice = id - s.vu64()?.min(id);
                let first_slice = last_slice - s.vu64()?.min(last_slice);
                let w_end = end_ts - s.vu64()?.min(end_ts);
                let w_start = w_end - s.vu64()?.min(w_end);
                WindowEnd {
                    query,
                    first_slice,
                    last_slice,
                    start_ts: w_start,
                    end_ts: w_end,
                }
            }
            1 => WindowEnd {
                query,
                first_slice: s.vu64()?,
                last_slice: s.vu64()?,
                start_ts: s.vu64()?,
                end_ts: s.vu64()?,
            },
            other => return Err(CodecError(format!("bad window-end tag {other}"))),
        };
        ends.push(end);
    }
    let n_gaps = s.vu64()? as usize;
    let mut session_gaps = Vec::with_capacity(n_gaps.min(1 << 16));
    for _ in 0..n_gaps {
        let query = s.vu64()?;
        let gap_end = end_ts - s.vu64()?.min(end_ts);
        let gap_start = gap_end - s.vu64()?.min(gap_end);
        session_gaps.push(SessionGap {
            query,
            gap_start,
            gap_end,
        });
    }
    let data = get_slice_data(s)?;
    Ok(SealedSlice {
        id,
        start_ts,
        end_ts,
        data,
        ends,
        session_gaps,
        low_watermark,
        low_watermark_ts,
        trace,
    })
}

fn put_message<S: Sink>(s: &mut S, msg: &Message) {
    match msg {
        Message::Events(events) => {
            s.u8(TAG_EVENTS);
            s.vu64(events.len() as u64);
            for ev in events {
                put_event(s, ev);
            }
        }
        Message::Slice {
            group,
            origin,
            coverage,
            partial,
        } => {
            s.u8(TAG_SLICE);
            s.vu64(u64::from(*group));
            s.vu64(u64::from(*origin));
            s.vu64(u64::from(*coverage));
            put_slice(s, partial);
        }
        Message::WindowPartials {
            origin,
            coverage,
            partials,
        } => {
            s.u8(TAG_WINDOW_PARTIALS);
            s.vu64(u64::from(*origin));
            s.vu64(u64::from(*coverage));
            s.vu64(partials.len() as u64);
            for p in partials {
                s.vu64(p.query);
                s.vu64(p.start_ts);
                s.vu64(p.end_ts);
                s.vu64(p.data.len() as u64);
                for (key, bundle) in &p.data {
                    s.vu64(u64::from(*key));
                    put_bundle(s, bundle);
                }
            }
        }
        Message::Watermark(ts) => {
            s.u8(TAG_WATERMARK);
            s.vu64(*ts);
        }
        Message::Flush => s.u8(TAG_FLUSH),
    }
}

fn get_message<S: Source>(s: &mut S) -> Result<Message> {
    Ok(match s.u8()? {
        TAG_EVENTS => {
            let n = s.vu64()? as usize;
            let mut events = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                events.push(get_event(s)?);
            }
            Message::Events(events)
        }
        TAG_SLICE => Message::Slice {
            group: s.vu64()? as u32,
            origin: s.vu64()? as u32,
            coverage: s.vu64()? as u32,
            partial: get_slice(s)?,
        },
        TAG_WINDOW_PARTIALS => {
            let origin = s.vu64()? as u32;
            let coverage = s.vu64()? as u32;
            let n = s.vu64()? as usize;
            let mut partials = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let query = s.vu64()?;
                let start_ts = s.vu64()?;
                let end_ts = s.vu64()?;
                let entries = s.vu64()? as usize;
                let mut data = Vec::with_capacity(entries.min(1 << 16));
                for _ in 0..entries {
                    let key = s.vu64()? as u32;
                    data.push((key, get_bundle(s)?));
                }
                partials.push(WindowPartial {
                    query,
                    start_ts,
                    end_ts,
                    data,
                });
            }
            Message::WindowPartials {
                origin,
                coverage,
                partials,
            }
        }
        TAG_WATERMARK => Message::Watermark(s.vu64()?),
        TAG_FLUSH => Message::Flush,
        other => return Err(CodecError(format!("bad message tag {other}"))),
    })
}

/// Reads the optional sequence field of a v3 envelope.
fn get_seq<S: Source>(s: &mut S) -> Result<Option<u64>> {
    match s.u8()? {
        0 => Ok(None),
        1 => Ok(Some(s.vu64()?)),
        other => Err(CodecError(format!("bad seq-presence flag {other}"))),
    }
}

impl CodecKind {
    /// Serializes a message to a v3 wire frame without a sequence number.
    pub fn encode(self, msg: &Message) -> Vec<u8> {
        self.encode_envelope(msg, None)
    }

    /// Serializes a message to a v3 wire frame carrying sequence number
    /// `seq` (gap detection and retransmission, see
    /// `desis_net::recovery`).
    pub fn encode_seq(self, msg: &Message, seq: u64) -> Vec<u8> {
        self.encode_envelope(msg, Some(seq))
    }

    fn encode_envelope(self, msg: &Message, seq: Option<u64>) -> Vec<u8> {
        match self {
            CodecKind::Binary => {
                let mut sink = BinarySink(Vec::with_capacity(64));
                sink.u8(WIRE_VERSION);
                match seq {
                    None => sink.u8(0),
                    Some(n) => {
                        sink.u8(1);
                        sink.vu64(n);
                    }
                }
                put_message(&mut sink, msg);
                let checksum = fnv1a64(&sink.0);
                sink.0.extend_from_slice(&checksum.to_le_bytes());
                sink.0
            }
            CodecKind::Text => {
                let mut sink = TextSink(String::with_capacity(64));
                sink.u8(WIRE_VERSION);
                match seq {
                    None => sink.u8(0),
                    Some(n) => {
                        sink.u8(1);
                        sink.vu64(n);
                    }
                }
                put_message(&mut sink, msg);
                let checksum = fnv1a64(sink.0.as_bytes());
                sink.push(format_args!("{checksum}"));
                sink.0.into_bytes()
            }
        }
    }

    /// Parses a wire frame back into a message, discarding the envelope.
    ///
    /// Shorthand for [`Self::decode_framed`] when the caller does not
    /// track sequence numbers.
    pub fn decode(self, frame: &[u8]) -> Result<Message> {
        self.decode_framed(frame).map(|f| f.msg)
    }

    /// Parses a wire frame into its message plus reliability envelope.
    ///
    /// Accepts the v3 framing only (sequence field + checksum). A frame
    /// must contain exactly one message: another version, a failed
    /// checksum, trailing bytes after the decoded message, or any field
    /// overrunning the buffer are protocol violations and fail the
    /// decode — the cluster then enters recovery for the sending child.
    pub fn decode_framed(self, frame: &[u8]) -> Result<Frame> {
        let check_version = |version: u8| match version {
            WIRE_VERSION => Ok(()),
            other => Err(CodecError(format!(
                "unsupported frame version {other} (expected {WIRE_VERSION})"
            ))),
        };
        let check_sum = |declared: u64, covered: &[u8]| match fnv1a64(covered) {
            actual if actual == declared => Ok(()),
            actual => Err(CodecError(format!(
                "checksum mismatch: frame says {declared:#x}, computed {actual:#x}"
            ))),
        };
        match self {
            CodecKind::Binary => {
                let version = *frame
                    .first()
                    .ok_or_else(|| CodecError("empty frame".into()))?;
                check_version(version)?;
                if frame.len() < 1 + 8 {
                    return Err(CodecError("v3 frame too short for checksum".into()));
                }
                let (payload, tail) = frame.split_at(frame.len() - 8);
                check_sum(
                    u64::from_le_bytes(tail.try_into().expect("8 bytes")),
                    payload,
                )?;
                let mut src = BinarySource(&payload[1..]);
                let seq = get_seq(&mut src)?;
                let msg = get_message(&mut src)?;
                if !src.0.is_empty() {
                    return Err(CodecError(format!(
                        "{} trailing bytes after frame",
                        src.0.len()
                    )));
                }
                Ok(Frame { seq, msg })
            }
            CodecKind::Text => {
                let text = std::str::from_utf8(frame)
                    .map_err(|e| CodecError(format!("invalid utf-8: {e}")))?;
                let field = text
                    .split(';')
                    .next()
                    .ok_or_else(|| CodecError("empty frame".into()))?;
                let version = field
                    .parse()
                    .map_err(|_| CodecError(format!("bad version field {field:?}")))?;
                check_version(version)?;
                // The checksum is the last `;`-terminated field, covering
                // every byte before it (trailer included in neither).
                let trimmed = text
                    .strip_suffix(';')
                    .ok_or_else(|| CodecError("v3 text frame not ';'-terminated".into()))?;
                let pos = trimmed
                    .rfind(';')
                    .ok_or_else(|| CodecError("v3 text frame missing checksum".into()))?;
                let (body, chk_str) = (&text[..=pos], &trimmed[pos + 1..]);
                let declared = chk_str
                    .parse()
                    .map_err(|_| CodecError(format!("bad checksum field {chk_str:?}")))?;
                check_sum(declared, body.as_bytes())?;
                let mut src = TextSource {
                    fields: body.split(';'),
                };
                let _version = src.u8()?;
                let seq = get_seq(&mut src)?;
                let msg = get_message(&mut src)?;
                // Every field is `;`-terminated, so splitting a complete
                // frame leaves exactly one empty remainder.
                let leftover: Vec<&str> = src.fields.filter(|f| !f.is_empty()).collect();
                if !leftover.is_empty() {
                    return Err(CodecError(format!(
                        "{} trailing fields after frame",
                        leftover.len()
                    )));
                }
                Ok(Frame { seq, msg })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desis_core::aggregate::AggFunction;

    fn sample_bundle(values: &[f64]) -> OperatorBundle {
        let set = AggFunction::Average.operators()
            | AggFunction::Median.operators()
            | AggFunction::Min.operators()
            | AggFunction::Product.operators();
        let mut b = OperatorBundle::new(set);
        for v in values {
            b.update(*v);
        }
        b.seal();
        b
    }

    fn sample_slice() -> SealedSlice {
        let mut data = SliceData::new(2);
        data.per_selection[0].insert(1, sample_bundle(&[1.0, 2.5, -3.125]));
        data.per_selection[0].insert(9, sample_bundle(&[7.0]));
        data.per_selection[1].insert(2, sample_bundle(&[0.5, 0.25]));
        SealedSlice {
            id: 42,
            start_ts: 1_000,
            end_ts: 2_000,
            data,
            ends: vec![WindowEnd {
                query: 7,
                first_slice: 40,
                last_slice: 42,
                start_ts: 0,
                end_ts: 2_000,
            }],
            session_gaps: vec![SessionGap {
                query: 7,
                gap_start: 1_900,
                gap_end: 2_000,
            }],
            low_watermark: 41,
            low_watermark_ts: 900,
            trace: Some(TraceId::from_u64(7_777)),
        }
    }

    fn messages() -> Vec<Message> {
        vec![
            Message::Events(vec![
                Event::new(1_688_000_123, 2, 42.58239847293847),
                Event::with_marker(
                    4,
                    5,
                    -6.25,
                    Marker {
                        channel: 9,
                        kind: MarkerKind::Start,
                    },
                ),
                Event::with_marker(
                    7,
                    5,
                    0.0,
                    Marker {
                        channel: 9,
                        kind: MarkerKind::End,
                    },
                ),
            ]),
            Message::Slice {
                group: 3,
                origin: 11,
                coverage: 4,
                partial: sample_slice(),
            },
            Message::WindowPartials {
                origin: 2,
                coverage: 1,
                partials: vec![WindowPartial {
                    query: 12,
                    start_ts: 0,
                    end_ts: 1_000,
                    data: vec![(3, sample_bundle(&[1.0, 2.0]))],
                }],
            },
            Message::Watermark(123_456),
            Message::Flush,
        ]
    }

    #[test]
    fn binary_roundtrip() {
        for msg in messages() {
            let frame = CodecKind::Binary.encode(&msg);
            let back = CodecKind::Binary.decode(&frame).expect("decode");
            assert_eq!(msg, back);
        }
    }

    #[test]
    fn text_roundtrip() {
        for msg in messages() {
            let frame = CodecKind::Text.encode(&msg);
            let back = CodecKind::Text
                .decode(&frame)
                .unwrap_or_else(|e| panic!("{e}: {}", String::from_utf8_lossy(&frame)));
            assert_eq!(msg, back);
        }
    }

    #[test]
    fn text_frames_are_larger_than_binary_for_realistic_payloads() {
        // The premise of Figure 11b: string messaging costs more bytes.
        // Realistic payloads have large timestamps and full-precision
        // float values.
        let events: Vec<Event> = (0..100)
            .map(|i| {
                Event::new(
                    1_688_000_000 + i * 7,
                    (i % 10) as u32,
                    (i as f64) * 0.123456789 + 0.000001,
                )
            })
            .collect();
        let msg = Message::Events(events);
        let b = CodecKind::Binary.encode(&msg).len();
        let t = CodecKind::Text.encode(&msg).len();
        assert!(t > b, "text {t} <= binary {b}");
    }

    #[test]
    fn partial_is_much_smaller_than_its_events() {
        // A decomposable slice partial summarizing 1000 events must be far
        // smaller than the events themselves (the 99% saving of Fig. 11a).
        let set = AggFunction::Average.operators();
        let mut bundle = OperatorBundle::new(set);
        let mut events = Vec::new();
        for i in 0..1_000u64 {
            bundle.update(i as f64);
            events.push(Event::new(i, 0, i as f64));
        }
        let mut data = SliceData::new(1);
        data.per_selection[0].insert(0, bundle);
        let slice_msg = Message::Slice {
            group: 0,
            origin: 0,
            coverage: 1,
            partial: SealedSlice {
                id: 0,
                start_ts: 0,
                end_ts: 1_000,
                data,
                ends: vec![],
                session_gaps: vec![],
                low_watermark: 0,
                low_watermark_ts: 0,
                trace: None,
            },
        };
        let events_msg = Message::Events(events);
        let slice_bytes = CodecKind::Binary.encode(&slice_msg).len();
        let event_bytes = CodecKind::Binary.encode(&events_msg).len();
        assert!(
            slice_bytes * 100 < event_bytes,
            "slice {slice_bytes}B vs events {event_bytes}B"
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(CodecKind::Binary.decode(&[]).is_err());
        assert!(CodecKind::Binary.decode(&[99, 1, 2]).is_err());
        assert!(CodecKind::Text.decode(b"nonsense;1;2").is_err());
        let events = Message::Events(vec![Event::new(1_000_000, 3, 4.5)]);
        let frame = CodecKind::Binary.encode(&events);
        assert!(CodecKind::Binary.decode(&frame[..frame.len() / 2]).is_err());
    }

    #[test]
    fn empty_events_batch_roundtrips() {
        let msg = Message::Events(vec![]);
        for codec in [CodecKind::Binary, CodecKind::Text] {
            assert_eq!(codec.decode(&codec.encode(&msg)).unwrap(), msg);
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        // v3 frames are checksummed, so appended bytes fail the checksum
        // before the message parser even runs.
        let msg = Message::Watermark(42);
        let mut frame = CodecKind::Binary.encode(&msg);
        assert!(CodecKind::Binary.decode(&frame).is_ok());
        frame.push(0x01);
        let err = CodecKind::Binary.decode(&frame).unwrap_err();
        assert!(err.0.contains("checksum"), "{err}");

        let mut text = CodecKind::Text.encode(&msg);
        assert!(CodecKind::Text.decode(&text).is_ok());
        text.extend_from_slice(b"99;");
        let err = CodecKind::Text.decode(&text).unwrap_err();
        assert!(err.0.contains("checksum"), "{err}");

        // A second full message appended to the frame is also garbage.
        let mut doubled = CodecKind::Binary.encode(&msg);
        doubled.extend_from_slice(&CodecKind::Binary.encode(&msg));
        assert!(CodecKind::Binary.decode(&doubled).is_err());

        // Garbage *inside* the checksummed payload passes the checksum
        // and is caught by the exactly-one-message rule.
        let mut sealed = CodecKind::Binary.encode(&msg);
        sealed.truncate(sealed.len() - 8);
        sealed.push(0x01);
        let checksum = fnv1a64(&sealed);
        sealed.extend_from_slice(&checksum.to_le_bytes());
        let err = CodecKind::Binary.decode(&sealed).unwrap_err();
        assert!(err.0.contains("trailing"), "{err}");

        let err = CodecKind::Text
            .decode(&sealed_text(&format!("{WIRE_VERSION};0;4;42;99;")))
            .unwrap_err();
        assert!(err.0.contains("trailing"), "{err}");
    }

    /// A v3 text frame over `body` (every field up to the checksum).
    fn sealed_text(body: &str) -> Vec<u8> {
        format!("{body}{};", fnv1a64(body.as_bytes())).into_bytes()
    }

    #[test]
    fn version_2_frames_are_rejected() {
        // The framing before v3 — version field, message, nothing else —
        // has no sender any more; without a checksum or a sequence number
        // it would slip past corruption detection and the recovery
        // protocol, so it no longer decodes.
        for msg in messages() {
            let mut binary = BinarySink(Vec::new());
            binary.u8(2);
            put_message(&mut binary, &msg);
            let err = CodecKind::Binary.decode_framed(&binary.0).unwrap_err();
            assert!(err.0.contains("unsupported frame version 2"), "{err}");

            let mut text = TextSink(String::new());
            text.u8(2);
            put_message(&mut text, &msg);
            let err = CodecKind::Text
                .decode_framed(text.0.as_bytes())
                .unwrap_err();
            assert!(err.0.contains("unsupported frame version 2"), "{err}");
        }
    }

    #[test]
    fn seq_roundtrips_in_envelope() {
        for codec in [CodecKind::Binary, CodecKind::Text] {
            for seq in [0u64, 1, 500, u64::MAX] {
                let frame = codec.encode_seq(&Message::Watermark(7), seq);
                let back = codec.decode_framed(&frame).expect("decode");
                assert_eq!(back.seq, Some(seq));
                assert_eq!(back.msg, Message::Watermark(7));
            }
            // Unsequenced v3 frames decode with seq = None.
            let frame = codec.encode(&Message::Flush);
            let back = codec.decode_framed(&frame).expect("decode");
            assert_eq!(back.seq, None);
            assert_eq!(back.msg, Message::Flush);
        }
    }

    #[test]
    fn checksum_catches_any_single_byte_corruption() {
        // The corrupt fault class flips one byte in flight; every such
        // flip must surface as a decode error, never as a silently wrong
        // value (which an unchecksummed f64 payload would allow).
        let msg = Message::Slice {
            group: 3,
            origin: 11,
            coverage: 4,
            partial: sample_slice(),
        };
        let frame = CodecKind::Binary.encode_seq(&msg, 9);
        for pos in 0..frame.len() {
            let mut bad = frame.clone();
            bad[pos] ^= 0xA5;
            assert!(
                CodecKind::Binary.decode_framed(&bad).is_err(),
                "flip at byte {pos} went undetected"
            );
        }
    }

    /// Builds an unsequenced binary slice frame, checksum valid, whose
    /// delta-encoded `end_ts` overflows `u64` when added to `start_ts`.
    fn overflowing_slice_frame() -> Vec<u8> {
        let mut sink = BinarySink(Vec::new());
        sink.u8(WIRE_VERSION);
        sink.u8(0); // no sequence number
        sink.u8(super::TAG_SLICE);
        sink.vu64(0); // group
        sink.vu64(0); // origin
        sink.vu64(1); // coverage
        sink.vu64(1); // slice id
        sink.vu64(u64::MAX); // start_ts
        sink.vu64(u64::MAX); // end_ts delta: start + delta overflows
        let checksum = fnv1a64(&sink.0);
        sink.0.extend_from_slice(&checksum.to_le_bytes());
        sink.0
    }

    #[test]
    fn overflowing_delta_fields_error_instead_of_panicking() {
        // Fuzz-style negative test: adversarial length/delta fields must
        // come back as CodecError, not arithmetic panics (debug builds)
        // or wrapped garbage (release builds). The checksum is valid, so
        // the parser reaches the overflowing field.
        let err = CodecKind::Binary
            .decode(&overflowing_slice_frame())
            .unwrap_err();
        assert!(err.0.contains("overflow"), "{err}");

        // Text path: same fields rendered in decimal.
        let body = format!("{WIRE_VERSION};0;2;0;0;1;1;{max};{max};", max = u64::MAX);
        let err = CodecKind::Text.decode(&sealed_text(&body)).unwrap_err();
        assert!(err.0.contains("overflow"), "{err}");
    }

    #[test]
    fn truncation_fuzz_never_panics() {
        // Every prefix of every valid frame must decode to Ok or Err —
        // never panic. Exercises the need()/checked-arithmetic guards.
        for codec in [CodecKind::Binary, CodecKind::Text] {
            for msg in messages() {
                for frame in [codec.encode_seq(&msg, 3), codec.encode(&msg)] {
                    for cut in 0..frame.len() {
                        let _ = codec.decode_framed(&frame[..cut]);
                    }
                }
            }
        }
    }

    #[test]
    fn decode_rejects_wrong_version() {
        let mut frame = CodecKind::Binary.encode(&Message::Flush);
        assert_eq!(frame[0], WIRE_VERSION);
        frame[0] = WIRE_VERSION + 1;
        let err = CodecKind::Binary.decode(&frame).unwrap_err();
        assert!(err.0.contains("version"), "{err}");
        let err = CodecKind::Text.decode(b"99;5;").unwrap_err();
        assert!(err.0.contains("version"), "{err}");
    }

    #[test]
    fn trace_id_roundtrips_and_is_optional() {
        for codec in [CodecKind::Binary, CodecKind::Text] {
            let mut slice = sample_slice();
            for trace in [Some(TraceId::from_u64(u64::MAX)), None] {
                slice.trace = trace;
                let msg = Message::Slice {
                    group: 0,
                    origin: 1,
                    coverage: 1,
                    partial: slice.clone(),
                };
                let back = codec.decode(&codec.encode(&msg)).unwrap();
                match back {
                    Message::Slice { partial, .. } => assert_eq!(partial.trace, trace),
                    other => panic!("unexpected message {other:?}"),
                }
            }
        }
    }
}
