//! desis-lint: repo-specific static analysis for the Desis workspace.
//!
//! Eight rules, each scoped to the files where its invariant matters
//! (see `DESIGN.md` §2.10 and §2.13 for the rationale). The first four
//! are token-level (PR 4); the last four are syntax-aware, built on the
//! token-tree/statement/chain layer in [`parse`]:
//!
//! * **no-panic** — the recovery/cluster hot paths and the engine must
//!   not `unwrap()`, `expect()`, `panic!`, `unreachable!`, `todo!`,
//!   `unimplemented!` or an unconditional `debug_assert!(false, ..)`
//!   outside `#[cfg(test)]`. A lost child or a corrupt frame must degrade
//!   through [`DesisError`]/lost-child reporting, not take the process
//!   down.
//! * **no-wallclock** — deterministic simulation paths (the engine, the
//!   node state machines, fault injection, codecs) must not read
//!   `Instant::now()` or `SystemTime`; wall-clock reads there make runs
//!   irreproducible. The profiler (`core::obs::prof`) is also in scope:
//!   its injectable `ProfClock` facade funnels the whole subsystem
//!   through a single allowlisted `Instant::now()` call.
//! * **metric-names** — metric and trace names (string literals matching
//!   `^(net|engine|trace|prof|cluster)\.`) may appear only in
//!   `core::obs::names` and in tests, so dashboards and goldens cannot
//!   drift against the code.
//! * **wire-usize** — structs and enums in `net::message` / `net::codec`
//!   are wire formats; `usize`/`isize` fields would change layout across
//!   targets.
//! * **no-unordered-iter** — iterating a `HashMap`/`HashSet` in a
//!   determinism-scoped module (the engine tree, the mergers, the
//!   report/wire path) leaks nondeterministic hash order into results
//!   or onto the wire, breaking the byte-identity guarantee of
//!   `DESIGN.md` §2.11. Chains that end in a commutative terminal or
//!   the collect-then-sort idiom are recognized as ordered; everything
//!   else needs `BTreeMap`, a sort, or a justified allowlist entry.
//! * **bounded-channels** — `crossbeam_channel::unbounded()` is
//!   forbidden in `net`/`engine` hot paths; unbounded queues defeat
//!   backpressure and grow without bound under soak.
//! * **no-lock-across-send** — a `Mutex`/`RwLock` guard may not stay
//!   live across a channel `send`/`recv`: under bounded backpressure
//!   that is a deadlock between the channel and the lock.
//! * **metric-names-drift** — bidirectional registry check: every name
//!   declared in `core::obs::names` must be emitted outside tests, and
//!   every name emitted where literals are legal must be declared.
//!
//! Findings can be suppressed through per-rule allowlist files in
//! `lint/allow/<rule>.allow`; every entry must carry a justification and
//! must still match a real finding (stale entries fail the build).
//!
//! [`DesisError`]: ../desis_core/error/enum.DesisError.html

pub mod drift;
pub mod flow;
pub mod lexer;
pub mod parse;
pub mod unordered;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lexer::{lex, Tok, TokKind};

/// Stable rule identifiers (also the allowlist file stems).
pub const RULES: [&str; 8] = [
    "no-panic",
    "no-wallclock",
    "metric-names",
    "wire-usize",
    "no-unordered-iter",
    "bounded-channels",
    "no-lock-across-send",
    "metric-names-drift",
];

/// How to run the lint: where the workspace is, where suppressions live.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root: paths in findings are relative to it.
    pub root: PathBuf,
    /// Directory of `<rule>.allow` files (may not exist: no suppressions).
    pub allow_dir: PathBuf,
}

impl Config {
    /// Configuration rooted at `root` with the conventional
    /// `lint/allow` suppression directory.
    pub fn at(root: impl Into<PathBuf>) -> Self {
        let root = root.into();
        let allow_dir = root.join("lint/allow");
        Config { root, allow_dir }
    }
}

/// One rule finding at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier (one of [`RULES`]).
    pub rule: &'static str,
    /// Path relative to the workspace root, `/`-separated.
    pub path: String,
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description of the finding.
    pub message: String,
    /// The trimmed source line (also the allowlist matching key).
    pub source: String,
}

/// One parsed allowlist entry.
#[derive(Debug, Clone)]
struct AllowEntry {
    rule: String,
    path: String,
    source: String,
    /// Where the entry came from, for stale-entry reporting.
    origin: String,
    used: bool,
}

/// The result of a lint run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Number of files scanned.
    pub checked_files: usize,
    /// Findings not covered by the allowlist, in path/line order.
    pub violations: Vec<Violation>,
    /// Findings suppressed by allowlist entries.
    pub allowlisted: usize,
    /// Allowlist entries (or malformed lines) that matched nothing.
    pub stale: Vec<String>,
}

impl Outcome {
    /// True when the run should fail the build.
    pub fn failed(&self) -> bool {
        !self.violations.is_empty() || !self.stale.is_empty()
    }
}

/// The relative path of the metric-name registry inside a workspace.
const NAMES_REL: &str = "crates/core/src/obs/names.rs";

/// Source trees outside the `metric-names` scope where inline name
/// literals are legal; the drift rule checks them emitted→declared.
const DRIFT_REF_TREES: [&str; 5] = [
    "crates/bench/src",
    "crates/baselines/src",
    "crates/gen/src",
    "src",
    "examples",
];

/// Runs every rule over the workspace under `cfg.root`.
pub fn run(cfg: &Config) -> io::Result<Outcome> {
    let mut files = Vec::new();
    for tree in ["crates/core/src", "crates/net/src"] {
        collect_rs_files(&cfg.root.join(tree), &mut files)?;
    }
    files.sort();

    let mut sources: Vec<(String, String)> = Vec::new();
    for file in &files {
        sources.push((rel_path(&cfg.root, file), fs::read_to_string(file)?));
    }

    // Workspace syntax prepass: two rounds so type aliases declared in
    // one file resolve field types declared in another regardless of
    // scan order.
    let mut idx = parse::SyntaxIndex::default();
    for _ in 0..2 {
        for (_, source) in &sources {
            parse::index_file(source, &mut idx);
        }
    }

    let mut violations = Vec::new();
    let mut checked = 0usize;
    for (rel, source) in &sources {
        if !RULES.iter().any(|r| in_scope(r, rel)) {
            continue;
        }
        checked += 1;
        check_file_with(rel, source, &idx, &mut violations);
    }

    // metric-names-drift: a workspace-level pass. References come from
    // every core/net file (idents only: `metric-names` already polices
    // literals there) plus the trees where inline literals are legal.
    if let Some(pos) = sources.iter().position(|(rel, _)| rel == NAMES_REL) {
        let names_src = sources[pos].1.clone();
        let mut refs: Vec<drift::RefFile> = sources
            .iter()
            .filter(|(rel, _)| rel != NAMES_REL)
            .map(|(rel, source)| drift::RefFile {
                rel: rel.clone(),
                source: source.clone(),
                check_literals: !in_scope("metric-names", rel),
            })
            .collect();
        let mut extra = Vec::new();
        for tree in DRIFT_REF_TREES {
            collect_rs_files(&cfg.root.join(tree), &mut extra)?;
        }
        extra.sort();
        for file in &extra {
            refs.push(drift::RefFile {
                rel: rel_path(&cfg.root, file),
                source: fs::read_to_string(file)?,
                check_literals: true,
            });
        }
        let mut texts: BTreeMap<String, &str> = refs
            .iter()
            .map(|f| (f.rel.clone(), f.source.as_str()))
            .collect();
        texts.insert(NAMES_REL.to_string(), &names_src);
        let mut raw: Vec<(&'static str, String, usize, String)> = Vec::new();
        drift::check_drift(
            NAMES_REL,
            &names_src,
            &refs,
            &mut |rule, path, line, message| {
                raw.push((rule, path.to_string(), line, message));
            },
        );
        for (rule, path, line, message) in raw {
            let source = texts
                .get(&path)
                .and_then(|s| s.lines().nth(line.saturating_sub(1)))
                .map_or(String::new(), |l| l.trim().to_string());
            violations.push(Violation {
                rule,
                path,
                line,
                message,
                source,
            });
        }
    }

    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));

    let mut entries = load_allowlists(&cfg.allow_dir, &mut Vec::new())?;
    let mut outcome = Outcome {
        checked_files: checked,
        ..Outcome::default()
    };
    for v in violations {
        let entry = entries
            .iter_mut()
            .find(|e| e.rule == v.rule && e.path == v.path && e.source == v.source);
        match entry {
            Some(e) => {
                e.used = true;
                outcome.allowlisted += 1;
            }
            None => outcome.violations.push(v),
        }
    }
    for e in &entries {
        if !e.used {
            outcome.stale.push(format!(
                "{}: no finding matches [{}] {}",
                e.origin, e.rule, e.path
            ));
        }
    }
    Ok(outcome)
}

/// Runs all per-file rules over one file's source, appending findings.
/// Builds a single-file [`parse::SyntaxIndex`] on the fly; workspace
/// runs should use [`check_file_with`] so field types declared in one
/// file classify iterations in another.
pub fn check_file(rel: &str, source: &str, out: &mut Vec<Violation>) {
    let mut idx = parse::SyntaxIndex::default();
    for _ in 0..2 {
        parse::index_file(source, &mut idx);
    }
    check_file_with(rel, source, &idx, out);
}

/// Runs all per-file rules over one file against a pre-built workspace
/// syntax index. The `metric-names-drift` rule is workspace-level and
/// runs separately in [`run`].
pub fn check_file_with(
    rel: &str,
    source: &str,
    idx: &parse::SyntaxIndex,
    out: &mut Vec<Violation>,
) {
    let toks = lex(source);
    let test_lines = test_regions(&toks, source);
    let lines: Vec<&str> = source.lines().collect();
    let trimmed = |line: usize| -> String {
        lines
            .get(line.saturating_sub(1))
            .map_or(String::new(), |l| l.trim().to_string())
    };
    let mut push = |rule: &'static str, line: usize, message: String| {
        out.push(Violation {
            rule,
            path: rel.to_string(),
            line,
            message,
            source: trimmed(line),
        });
    };

    if in_scope("no-panic", rel) {
        rule_no_panic(&toks, &test_lines, &mut push);
    }
    if in_scope("no-wallclock", rel) {
        rule_no_wallclock(&toks, &test_lines, &mut push);
    }
    if in_scope("metric-names", rel) {
        rule_metric_names(&toks, &test_lines, &mut push);
    }
    if in_scope("wire-usize", rel) {
        rule_wire_usize(&toks, &test_lines, &mut push);
    }
    if in_scope("no-unordered-iter", rel) {
        unordered::rule_no_unordered_iter(&toks, &test_lines, idx, &mut push);
    }
    if in_scope("bounded-channels", rel) {
        flow::rule_bounded_channels(&toks, &test_lines, &mut push);
    }
    if in_scope("no-lock-across-send", rel) {
        flow::rule_no_lock_across_send(&toks, &test_lines, &mut push);
    }
}

/// Which files a rule applies to (paths relative to the workspace root).
pub fn in_scope(rule: &str, path: &str) -> bool {
    match rule {
        // Recovery-protocol and cluster hot paths + the whole engine.
        "no-panic" => {
            matches!(
                path,
                "crates/net/src/cluster.rs"
                    | "crates/net/src/link.rs"
                    | "crates/net/src/merge.rs"
                    | "crates/net/src/node.rs"
                    | "crates/net/src/recovery.rs"
            ) || path.starts_with("crates/core/src/engine")
        }
        // Deterministic paths: the engine plus every net module that the
        // simulated cluster drives without real IO. `link`, `recovery`,
        // and `cluster` legitimately pace on wall-clock. The profiler is
        // pinned in scope so its clock stays funneled through the single
        // allowlisted `ProfClock::wall()` read.
        "no-wallclock" => {
            path.starts_with("crates/core/src/engine")
                || path == "crates/core/src/obs/prof.rs"
                || matches!(
                    path,
                    "crates/net/src/node.rs"
                        | "crates/net/src/fault.rs"
                        | "crates/net/src/topology.rs"
                        | "crates/net/src/merge.rs"
                        | "crates/net/src/message.rs"
                        | "crates/net/src/codec.rs"
                        | "crates/net/src/protocol.rs"
                )
        }
        // Everywhere except the registry of names itself.
        "metric-names" => {
            (path.starts_with("crates/core/src") || path.starts_with("crates/net/src"))
                && path != "crates/core/src/obs/names.rs"
        }
        // Wire formats only.
        "wire-usize" => {
            matches!(
                path,
                "crates/net/src/message.rs" | "crates/net/src/codec.rs"
            )
        }
        // Determinism-scoped modules: the engine tree plus every net
        // module on the merge/report/wire path. Hash order anywhere
        // here can leak into results or onto the wire.
        "no-unordered-iter" => {
            path.starts_with("crates/core/src/engine")
                || matches!(
                    path,
                    "crates/net/src/merge.rs"
                        | "crates/net/src/codec.rs"
                        | "crates/net/src/message.rs"
                        | "crates/net/src/cluster.rs"
                        | "crates/net/src/node.rs"
                )
        }
        // Hot paths where queues and locks meet backpressure.
        "bounded-channels" | "no-lock-across-send" => {
            path.starts_with("crates/net/src") || path.starts_with("crates/core/src/engine")
        }
        // The registry itself; both drift directions attach their
        // unused-declaration findings here (see `drift`).
        "metric-names-drift" => path == "crates/core/src/obs/names.rs",
        _ => false,
    }
}

/// Returns, for each source line, whether it falls inside a
/// `#[cfg(test)]` item (or the whole file under `#![cfg(test)]`).
pub(crate) fn test_regions(toks: &[Tok], source: &str) -> Vec<bool> {
    let n_lines = source.lines().count() + 1;
    let mut test = vec![false; n_lines + 1];
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_punct('#') {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let inner = toks.get(j).is_some_and(|t| t.is_punct('!'));
        if inner {
            j += 1;
        }
        if !toks.get(j).is_some_and(|t| t.is_punct('[')) {
            i += 1;
            continue;
        }
        // Collect the attribute tokens to the matching `]`.
        let open = j;
        let mut depth = 0usize;
        let mut close = open;
        for (k, t) in toks.iter().enumerate().skip(open) {
            match t.kind {
                TokKind::Punct('[') => depth += 1,
                TokKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        close = k;
                        break;
                    }
                }
                _ => {}
            }
        }
        let attr = &toks[open + 1..close];
        let is_cfg_test = attr.first().is_some_and(|t| t.is_ident("cfg"))
            && attr.iter().any(|t| t.is_ident("test"));
        if !is_cfg_test {
            i = close + 1;
            continue;
        }
        if inner {
            // `#![cfg(test)]`: the entire file is test code.
            for flag in test.iter_mut() {
                *flag = true;
            }
            return test;
        }
        // Outer attribute: mark from here through the annotated item —
        // to the matching `}` of its first brace block, or to a `;` for
        // brace-less items (`#[cfg(test)] use ...;`).
        let start_line = toks[i].line;
        let mut k = close + 1;
        let mut end_line = start_line;
        let mut brace_depth = 0usize;
        while k < toks.len() {
            match toks[k].kind {
                TokKind::Punct('{') => brace_depth += 1,
                TokKind::Punct('}') => {
                    brace_depth = brace_depth.saturating_sub(1);
                    if brace_depth == 0 {
                        end_line = toks[k].line;
                        break;
                    }
                }
                TokKind::Punct(';') if brace_depth == 0 => {
                    end_line = toks[k].line;
                    break;
                }
                _ => {}
            }
            end_line = toks[k].line;
            k += 1;
        }
        for flag in &mut test[start_line..=end_line.min(n_lines)] {
            *flag = true;
        }
        i = k + 1;
    }
    test
}

fn is_test_line(test_lines: &[bool], line: usize) -> bool {
    test_lines.get(line).copied().unwrap_or(false)
}

/// no-panic: `.unwrap()` / `.expect(` method calls and the panicking
/// macros, outside tests.
fn rule_no_panic(
    toks: &[Tok],
    test_lines: &[bool],
    push: &mut impl FnMut(&'static str, usize, String),
) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || is_test_line(test_lines, t.line) {
            continue;
        }
        let method_call =
            i > 0 && toks[i - 1].is_punct('.') && toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        if method_call && (t.text == "unwrap" || t.text == "expect") {
            push(
                "no-panic",
                t.line,
                format!(
                    ".{}() can panic; route the failure through DesisError \
                     or degrade to a lost child",
                    t.text
                ),
            );
            continue;
        }
        let is_macro = toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
        if is_macro
            && matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
        {
            push(
                "no-panic",
                t.line,
                format!(
                    "{}! is banned in hot paths; return an error instead",
                    t.text
                ),
            );
        }
        // `debug_assert!(false, ..)` is `unreachable!` in every debug and
        // test build; a `debug_assert!` on a condition stays legal.
        if is_macro
            && t.text == "debug_assert"
            && toks.get(i + 2).is_some_and(|n| n.is_punct('('))
            && toks.get(i + 3).is_some_and(|n| n.is_ident("false"))
            && toks
                .get(i + 4)
                .is_some_and(|n| n.is_punct(',') || n.is_punct(')'))
        {
            push(
                "no-panic",
                t.line,
                "debug_assert!(false) panics every debug and test build; \
                 drop and count the input instead"
                    .to_string(),
            );
        }
    }
}

/// no-wallclock: `Instant::now()` or any `SystemTime` mention, outside
/// tests.
fn rule_no_wallclock(
    toks: &[Tok],
    test_lines: &[bool],
    push: &mut impl FnMut(&'static str, usize, String),
) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || is_test_line(test_lines, t.line) {
            continue;
        }
        if t.text == "SystemTime" {
            push(
                "no-wallclock",
                t.line,
                "SystemTime in a deterministic path makes runs irreproducible".to_string(),
            );
            continue;
        }
        if t.text == "Instant"
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 3).is_some_and(|n| n.is_ident("now"))
        {
            push(
                "no-wallclock",
                t.line,
                "Instant::now() in a deterministic path makes runs irreproducible".to_string(),
            );
        }
    }
}

/// metric-names: string literals that look like instrument names must
/// come from `core::obs::names`, not be inlined.
fn rule_metric_names(
    toks: &[Tok],
    test_lines: &[bool],
    push: &mut impl FnMut(&'static str, usize, String),
) {
    for t in toks {
        if t.kind != TokKind::Str || is_test_line(test_lines, t.line) {
            continue;
        }
        let named = ["net.", "engine.", "trace.", "prof.", "cluster."]
            .iter()
            .any(|p| t.text.starts_with(p));
        if named {
            push(
                "metric-names",
                t.line,
                format!(
                    "instrument name \"{}\" must be a constant in core::obs::names",
                    t.text
                ),
            );
        }
    }
}

/// wire-usize: no `usize`/`isize` inside struct or enum bodies of the
/// wire-format modules.
fn rule_wire_usize(
    toks: &[Tok],
    test_lines: &[bool],
    push: &mut impl FnMut(&'static str, usize, String),
) {
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        let is_def = t.kind == TokKind::Ident
            && (t.text == "struct" || t.text == "enum")
            && toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident);
        if !is_def || is_test_line(test_lines, t.line) {
            i += 1;
            continue;
        }
        let kind = t.text.clone();
        let name = toks[i + 1].text.clone();
        // Find the body: the first `{` or `(` after the name (skipping
        // generics / where clauses), or a `;` for unit structs.
        let mut j = i + 2;
        let mut open = None;
        while j < toks.len() {
            match toks[j].kind {
                TokKind::Punct('{') | TokKind::Punct('(') => {
                    open = Some(j);
                    break;
                }
                TokKind::Punct(';') => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j + 1;
            continue;
        };
        let (open_c, close_c) = if toks[open].is_punct('{') {
            ('{', '}')
        } else {
            ('(', ')')
        };
        let mut depth = 0usize;
        let mut k = open;
        while k < toks.len() {
            match toks[k].kind {
                TokKind::Punct(c) if c == open_c => depth += 1,
                TokKind::Punct(c) if c == close_c => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokKind::Ident if toks[k].text == "usize" || toks[k].text == "isize" => {
                    push(
                        "wire-usize",
                        toks[k].line,
                        format!(
                            "{} in wire-format {kind} `{name}` has a \
                             target-dependent width; use u64/u32",
                            toks[k].text
                        ),
                    );
                }
                _ => {}
            }
            k += 1;
        }
        i = k + 1;
    }
}

/// Loads every `<rule>.allow` file under `dir`. Malformed lines are
/// reported through `errors` as stale entries (they can never match).
fn load_allowlists(dir: &Path, errors: &mut Vec<String>) -> io::Result<Vec<AllowEntry>> {
    let mut entries = Vec::new();
    for rule in RULES {
        let path = dir.join(format!("{rule}.allow"));
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let origin = format!("{}:{}", display_path(&path), idx + 1);
            match parse_allow_line(line) {
                Some((entry_rule, file, source, justification)) => {
                    if entry_rule != *rule {
                        errors.push(format!(
                            "{origin}: rule tag [{entry_rule}] does not match file {rule}.allow"
                        ));
                        continue;
                    }
                    if justification.is_empty() {
                        errors.push(format!("{origin}: empty justification"));
                        continue;
                    }
                    entries.push(AllowEntry {
                        rule: entry_rule,
                        path: file,
                        source,
                        origin,
                        used: false,
                    });
                }
                None => errors.push(format!(
                    "{origin}: expected `[rule] path :: trimmed-line :: justification`"
                )),
            }
        }
    }
    // Surface format errors as permanently-stale entries.
    for e in errors.drain(..) {
        entries.push(AllowEntry {
            rule: String::new(),
            path: String::new(),
            source: String::new(),
            origin: e,
            used: false,
        });
    }
    Ok(entries)
}

/// Parses `[rule] path :: trimmed-line :: justification`. The separator
/// is the *spaced* ` :: ` so paths and source lines may contain Rust's
/// own `::` operator.
fn parse_allow_line(line: &str) -> Option<(String, String, String, String)> {
    let rest = line.strip_prefix('[')?;
    let (rule, rest) = rest.split_once(']')?;
    let (path, rest) = rest.split_once(" :: ")?;
    let (source, justification) = rest.rsplit_once(" :: ")?;
    let (path, source, justification) = (path.trim(), source.trim(), justification.trim());
    if path.is_empty() || source.is_empty() {
        return None;
    }
    Some((
        rule.trim().to_string(),
        path.to_string(),
        source.to_string(),
        justification.to_string(),
    ))
}

/// Renders an [`Outcome`] in the stable format the self-tests golden.
pub fn render(outcome: &Outcome) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "desis-lint: checked {} files", outcome.checked_files);
    for v in &outcome.violations {
        let _ = writeln!(s, "{}: {}:{}: {}", v.rule, v.path, v.line, v.message);
        let _ = writeln!(s, "    {}", v.source);
    }
    for stale in &outcome.stale {
        let _ = writeln!(s, "stale-allowlist: {stale}");
    }
    let _ = writeln!(
        s,
        "desis-lint: {} violation(s), {} allowlisted, {} stale allowlist entr{}",
        outcome.violations.len(),
        outcome.allowlisted,
        outcome.stale.len(),
        if outcome.stale.len() == 1 { "y" } else { "ies" }
    );
    s
}

/// Renders an [`Outcome`] as machine-readable JSON: stable key order,
/// violations already sorted by (path, line, rule), hand-rolled so the
/// lint crate stays dependency-free.
pub fn render_json(outcome: &Outcome) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"tool\": \"desis-lint\",");
    let _ = writeln!(s, "  \"checked_files\": {},", outcome.checked_files);
    s.push_str("  \"violations\": [");
    for (i, v) in outcome.violations.iter().enumerate() {
        s.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            s,
            "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"message\": {}, \"source\": {}}}",
            json_str(v.rule),
            json_str(&v.path),
            v.line,
            json_str(&v.message),
            json_str(&v.source)
        );
    }
    if !outcome.violations.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n");
    let _ = writeln!(s, "  \"allowlisted\": {},", outcome.allowlisted);
    s.push_str("  \"stale\": [");
    for (i, stale) in outcome.stale.iter().enumerate() {
        s.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(s, "    {}", json_str(stale));
    }
    if !outcome.stale.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n");
    let _ = writeln!(s, "  \"failed\": {}", outcome.failed());
    s.push_str("}\n");
    s
}

/// JSON string literal with the escapes RFC 8259 requires.
fn json_str(raw: &str) -> String {
    let mut s = String::with_capacity(raw.len() + 2);
    s.push('"');
    for c in raw.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

/// Recursively collects `.rs` files under `dir` (missing dirs are fine:
/// fixture workspaces carry only the trees they exercise).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Ok(());
    };
    for entry in entries {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    display_path(rel)
}

fn display_path(p: &Path) -> String {
    // Normalize to forward slashes so allowlists are portable.
    p.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// A `BTreeMap` keyed summary of findings per rule — handy for tests.
pub fn by_rule(violations: &[Violation]) -> BTreeMap<&'static str, usize> {
    let mut map = BTreeMap::new();
    for v in violations {
        *map.entry(v.rule).or_insert(0) += 1;
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(rel: &str, src: &str) -> Vec<Violation> {
        let mut out = Vec::new();
        check_file(rel, src, &mut out);
        out
    }

    #[test]
    fn unwrap_in_hot_path_is_flagged_but_not_in_tests() {
        let src = "fn f() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests { fn g() { y.unwrap(); } }\n";
        let v = findings("crates/net/src/recovery.rs", src);
        assert_eq!(by_rule(&v).get("no-panic"), Some(&1));
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn unwrap_or_and_strings_do_not_trip_no_panic() {
        let src = "fn f() { x.unwrap_or(0); let s = \".unwrap()\"; }\n";
        assert!(findings("crates/net/src/recovery.rs", src).is_empty());
    }

    #[test]
    fn panicking_macros_are_flagged() {
        let src = "fn f() { unreachable!(\"no\"); }\n";
        let v = findings("crates/core/src/engine/slicer.rs", src);
        assert_eq!(by_rule(&v).get("no-panic"), Some(&1));
    }

    #[test]
    fn unconditional_debug_assert_is_flagged_but_conditions_are_not() {
        let src = "fn f(n: u64) {\n\
                   debug_assert!(false, \"unknown group {n}\");\n\
                   debug_assert!(false);\n\
                   debug_assert!(n > 0, \"false\");\n\
                   debug_assert!(false || n > 0);\n\
                   }\n";
        let v = findings("crates/net/src/node.rs", src);
        assert_eq!(by_rule(&v).get("no-panic"), Some(&2));
        assert_eq!((v[0].line, v[1].line), (2, 3));
    }

    #[test]
    fn wallclock_in_sim_path_is_flagged() {
        let src = "fn f() { let t = Instant::now(); }\n";
        let v = findings("crates/net/src/node.rs", src);
        assert_eq!(by_rule(&v).get("no-wallclock"), Some(&1));
        // ...but not in the IO shell.
        assert!(findings("crates/net/src/link.rs", src)
            .iter()
            .all(|v| v.rule != "no-wallclock"));
    }

    #[test]
    fn inline_metric_names_are_flagged_outside_names_rs() {
        let src = "fn f() { m.counter(\"net.frames\"); }\n";
        let v = findings("crates/net/src/merge.rs", src);
        assert_eq!(by_rule(&v).get("metric-names"), Some(&1));
        assert!(findings("crates/core/src/obs/names.rs", src).is_empty());
    }

    #[test]
    fn wire_usize_flags_struct_fields_not_function_locals() {
        let src = "pub struct Frame { pub len: usize }\n\
                   fn f(n: usize) -> usize { n }\n";
        let v = findings("crates/net/src/codec.rs", src);
        assert_eq!(by_rule(&v).get("wire-usize"), Some(&1));
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn whole_file_cfg_test_is_exempt() {
        let src = "#![cfg(test)]\nfn f() { x.unwrap(); }\n";
        assert!(findings("crates/net/src/recovery.rs", src).is_empty());
    }

    /// The parallel engine (PR 5) is a hot path AND a deterministic
    /// path: both rules must cover the module, its shard/sharded/engine,
    /// handoff and cross-shard unfixed-merge (PR 6) submodules, the
    /// merge module every level of the tree shares (PR 13) with its
    /// unfixed merger (PR 14), and the net-side facades over both with
    /// the node workers that drive them (PR 15) — which also see frames
    /// from outside the process and emit results, so they are pinned in
    /// the hash-order scope too. A rename that
    /// silently drops any of them out of scope fails here.
    #[test]
    fn parallel_engine_is_in_no_panic_and_no_wallclock_scope() {
        for path in [
            "crates/core/src/engine/merge.rs",
            "crates/core/src/engine/merge/unfixed.rs",
            "crates/net/src/merge.rs",
            "crates/net/src/node.rs",
            "crates/core/src/engine/parallel.rs",
            "crates/core/src/engine/parallel/engine.rs",
            "crates/core/src/engine/parallel/handoff.rs",
            "crates/core/src/engine/parallel/shard.rs",
            "crates/core/src/engine/parallel/sharded.rs",
            "crates/core/src/engine/parallel/unfixed.rs",
        ] {
            assert!(in_scope("no-panic", path), "{path} left no-panic scope");
            assert!(
                in_scope("no-wallclock", path),
                "{path} left no-wallclock scope"
            );
            assert!(in_scope("metric-names", path));
            assert!(in_scope("no-unordered-iter", path), "{path}");
        }
        let src = "fn f() { x.unwrap(); let t = Instant::now(); }\n";
        let v = findings("crates/core/src/engine/parallel.rs", src);
        assert_eq!(by_rule(&v).get("no-panic"), Some(&1));
        assert_eq!(by_rule(&v).get("no-wallclock"), Some(&1));
    }

    /// The profiler is the only module allowed to read the wall clock,
    /// and only through the single allowlisted `ProfClock::wall()` line:
    /// the file must stay pinned in no-wallclock scope so any new clock
    /// read is a fresh finding, and `prof.*` instrument names must be
    /// centralized like every other namespace.
    #[test]
    fn profiler_is_in_no_wallclock_scope_and_prof_names_are_centralized() {
        let path = "crates/core/src/obs/prof.rs";
        assert!(
            in_scope("no-wallclock", path),
            "{path} left no-wallclock scope"
        );
        assert!(in_scope("metric-names", path));
        let src = "fn f() { let t = Instant::now(); }\n";
        let v = findings(path, src);
        assert_eq!(by_rule(&v).get("no-wallclock"), Some(&1));
        let src = "fn f() { m.counter(\"prof.shard0.slicer_ns\"); }\n";
        let v = findings("crates/core/src/engine/parallel.rs", src);
        assert_eq!(by_rule(&v).get("metric-names"), Some(&1));
        assert!(findings("crates/core/src/obs/names.rs", src).is_empty());
    }

    #[test]
    fn allow_line_round_trips() {
        let (rule, path, source, why) = parse_allow_line(
            "[no-wallclock] crates/core/src/engine/assembler.rs :: let started = Instant::now(); :: metrics only",
        )
        .unwrap();
        assert_eq!(rule, "no-wallclock");
        assert_eq!(path, "crates/core/src/engine/assembler.rs");
        assert_eq!(source, "let started = Instant::now();");
        assert_eq!(why, "metrics only");
        assert!(parse_allow_line("not an entry").is_none());
    }
}
