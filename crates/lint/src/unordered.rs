//! The **no-unordered-iter** rule: iterating a `HashMap`/`HashSet`
//! (fx or std) in a determinism-scoped module is a latent byte-identity
//! bug — hash iteration order varies run to run, so anything it feeds
//! (result emission, wire encoding, merge order) varies too.
//!
//! A finding fires when a hash-classed receiver (see
//! [`crate::parse::HashClass`]) is iterated — `iter`, `keys`, `values`,
//! `drain`, `into_iter`, a `for` loop — *unless* the order provably
//! cannot escape:
//!
//! * the chain reaches a **commutative terminal** (`sum`, `count`,
//!   `min`, `max`, `all`, `any`, ...) through transparent adapters
//!   (`map`, `filter`, `copied`, ...);
//! * it collects into an **ordered** (`BTreeMap`/`BTreeSet`) or another
//!   **unordered** (re-hashed) collection;
//! * it collects into a `let` binding that is **sorted in the next
//!   statement** (the collect-then-sort idiom), or whose declared type
//!   is a B-tree collection;
//! * it is the whole argument of a statement `NAME.extend(..)` whose
//!   next statement sorts `NAME` (the extend-then-sort idiom).
//!
//! Everything else needs a `BTreeMap`, a sort before emission, or an
//! allowlist entry whose justification explains why order is
//! immaterial (e.g. commutative accumulation into another map).

use std::collections::BTreeMap;

#[cfg(test)]
use crate::lexer::lex;
use crate::lexer::Tok;
use crate::parse::{
    classify_type, forest, parse_chain, split_stmts, Chain, Group, HashClass, SyntaxIndex, Tree,
    HASH_TYPES,
};

/// Iterator-producing methods on hash collections.
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Adapters that neither observe nor repair element order.
const TRANSPARENT: [&str; 8] = [
    "map",
    "filter",
    "filter_map",
    "copied",
    "cloned",
    "flatten",
    "flat_map",
    "inspect",
];

/// Terminals whose result is independent of element order.
const COMMUTATIVE: [&str; 11] = [
    "sum",
    "product",
    "count",
    "min",
    "max",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "all",
    "any",
];

/// Collect destinations that restore or launder order.
const ORDERED_DESTS: [&str; 2] = ["BTreeMap", "BTreeSet"];

struct Ctx<'a> {
    idx: &'a SyntaxIndex,
    test_lines: &'a [bool],
    scopes: Vec<BTreeMap<String, HashClass>>,
}

impl Ctx<'_> {
    fn lookup(&self, name: &str) -> Option<HashClass> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn bind(&mut self, name: &str, class: HashClass) {
        if let Some(scope) = self.scopes.last_mut() {
            scope.insert(name.to_string(), class);
        }
    }

    fn is_test(&self, line: usize) -> bool {
        self.test_lines.get(line).copied().unwrap_or(false)
    }
}

/// Runs the rule over one file.
pub fn rule_no_unordered_iter(
    toks: &[Tok],
    test_lines: &[bool],
    idx: &SyntaxIndex,
    push: &mut impl FnMut(&'static str, usize, String),
) {
    let trees = forest(toks);
    let mut ctx = Ctx {
        idx,
        test_lines,
        scopes: Vec::new(),
    };
    walk_items(&trees, &mut ctx, push);
}

/// Walks item-level trees: enters `fn` bodies (binding typed params),
/// recurses through `impl`/`mod`/`trait`, and skips type definitions.
fn walk_items(
    trees: &[Tree],
    ctx: &mut Ctx<'_>,
    push: &mut impl FnMut(&'static str, usize, String),
) {
    let mut i = 0;
    while i < trees.len() {
        match trees[i].ident() {
            Some("fn") => i = enter_fn(trees, i, ctx, push),
            Some("struct" | "enum" | "union" | "type" | "static" | "const" | "use") => {
                // Skip to the end of the item: its first body group or `;`.
                i += 1;
                while i < trees.len() {
                    match &trees[i] {
                        Tree::Leaf(t) if t.is_punct(';') => break,
                        Tree::Group(g) if g.open != '[' => break,
                        // `=` initializers of consts may hold chains; they
                        // are compile-time and never hash-iterate.
                        _ => i += 1,
                    }
                }
                i += 1;
            }
            Some("impl" | "mod" | "trait") => {
                i += 1;
                while i < trees.len() {
                    match &trees[i] {
                        Tree::Leaf(t) if t.is_punct(';') => break,
                        Tree::Group(g) if g.open == '{' => {
                            walk_items(&g.trees, ctx, push);
                            break;
                        }
                        _ => i += 1,
                    }
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
}

/// Parses `fn name<...>(params) -> Ret { body }` starting at the `fn`
/// keyword, binds hash-classed params, analyzes the body. Returns the
/// index just past the item.
fn enter_fn(
    trees: &[Tree],
    at: usize,
    ctx: &mut Ctx<'_>,
    push: &mut impl FnMut(&'static str, usize, String),
) -> usize {
    let mut i = at + 1;
    // Skip the name and an optional generic section `<...>` (angle
    // brackets are leaves; `->` inside bounds must not close it).
    if trees.get(i).and_then(|t| t.ident()).is_some() {
        i += 1;
    }
    if trees.get(i).is_some_and(|t| t.is_punct('<')) {
        let mut depth = 0i32;
        while i < trees.len() {
            if trees[i].is_punct('<') {
                depth += 1;
            } else if trees[i].is_punct('>') && !trees.get(i - 1).is_some_and(|t| t.is_punct('-')) {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
    }
    // Parameter list.
    let mut params: Vec<(String, HashClass)> = Vec::new();
    if let Some(Tree::Group(g)) = trees.get(i) {
        if g.open == '(' {
            collect_params(&g.trees, ctx.idx, &mut params);
            i += 1;
        }
    }
    // Body: the next brace group before a `;` (trait decls have none).
    while i < trees.len() {
        match &trees[i] {
            Tree::Leaf(t) if t.is_punct(';') => return i + 1,
            Tree::Group(g) if g.open == '{' => {
                ctx.scopes.push(params.into_iter().collect());
                analyze_block(&g.trees, ctx, push);
                ctx.scopes.pop();
                return i + 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Extracts `name: TYPE` parameters with a hash classification.
fn collect_params(trees: &[Tree], idx: &SyntaxIndex, out: &mut Vec<(String, HashClass)>) {
    for entry in split_stmts(trees) {
        let mut i = 0;
        while entry
            .get(i)
            .is_some_and(|t| t.is_ident("mut") || t.is_punct('&'))
        {
            i += 1;
        }
        let Some(name) = entry.get(i).and_then(|t| t.ident()) else {
            continue;
        };
        if name == "self" || !entry.get(i + 1).is_some_and(|t| t.is_punct(':')) {
            continue;
        }
        if let Some(class) = classify_type(&entry[i + 2..], idx) {
            out.push((name.to_string(), class));
        }
    }
}

/// Analyzes a block: fresh scope, statements in order.
fn analyze_block(
    trees: &[Tree],
    ctx: &mut Ctx<'_>,
    push: &mut impl FnMut(&'static str, usize, String),
) {
    ctx.scopes.push(BTreeMap::new());
    let stmts = split_stmts(trees);
    for si in 0..stmts.len() {
        analyze_stmt(&stmts, si, ctx, push);
    }
    ctx.scopes.pop();
}

fn analyze_stmt(
    stmts: &[&[Tree]],
    si: usize,
    ctx: &mut Ctx<'_>,
    push: &mut impl FnMut(&'static str, usize, String),
) {
    let stmt = stmts[si];
    if stmt.is_empty() {
        return;
    }
    match stmt[0].ident() {
        Some("fn") => {
            // Nested function: analyze like an item.
            walk_items(stmt, ctx, push);
            return;
        }
        Some("for") => {
            analyze_for(stmt, ctx, push);
            return;
        }
        Some("if" | "while") if stmt.get(1).is_some_and(|t| t.is_ident("let")) => {
            analyze_if_let(stmt, ctx, push);
            return;
        }
        Some("let") => {
            bind_let(stmt, ctx);
            scan_exprs(stmt, ctx, push, Some((stmts, si)));
            return;
        }
        _ => {}
    }
    scan_exprs(stmt, ctx, push, Some((stmts, si)));
}

/// `for PAT in EXPR { body }`: flags pure-path iteration of an `Outer`
/// receiver, and binds the loop variable when iterating a `Bearing`
/// container (its elements are hash maps).
fn analyze_for(
    stmt: &[Tree],
    ctx: &mut Ctx<'_>,
    push: &mut impl FnMut(&'static str, usize, String),
) {
    let Some(in_pos) = stmt.iter().position(|t| t.is_ident("in")) else {
        scan_exprs(stmt, ctx, push, None);
        return;
    };
    let body_pos = stmt.len() - 1;
    let body = stmt[body_pos].group().filter(|g| g.open == '{');
    let pat = &stmt[1..in_pos];
    let expr = &stmt[in_pos + 1..body_pos.max(in_pos + 1)];

    let mut binding: Option<(String, HashClass)> = None;
    if let Some((class, path, line)) = resolve_pure_path(expr, ctx) {
        match class {
            HashClass::Outer => {
                if !ctx.is_test(line) {
                    push(
                        "no-unordered-iter",
                        line,
                        format!(
                            "for loop over hash-ordered `{path}`; iterate a BTreeMap, \
                             sort keys first, or allowlist with justification"
                        ),
                    );
                }
            }
            HashClass::Bearing => {
                // Elements of a hash-bearing container are hash maps.
                if let [t] = pat {
                    if let Some(name) = t.ident() {
                        binding = Some((name.to_string(), HashClass::Outer));
                    }
                }
            }
        }
    } else {
        // Chained expressions (`map.values()`, ...) are handled by the
        // generic chain scan below.
        scan_exprs(expr, ctx, push, None);
    }
    if let Some(g) = body {
        ctx.scopes.push(binding.into_iter().collect());
        analyze_block(&g.trees, ctx, push);
        ctx.scopes.pop();
    }
}

/// `if let Some(NAME) = EXPR { body }`: binds `NAME` as a hash map when
/// `EXPR` is `bearing.get(..)` / `bearing.get_mut(..)`-shaped.
fn analyze_if_let(
    stmt: &[Tree],
    ctx: &mut Ctx<'_>,
    push: &mut impl FnMut(&'static str, usize, String),
) {
    let mut binding: Option<(String, HashClass)> = None;
    // Pattern: `if let Some ( name ) = ...`
    if stmt.get(2).is_some_and(|t| t.is_ident("Some")) {
        if let Some(Tree::Group(g)) = stmt.get(3) {
            if g.open == '(' && stmt.get(4).is_some_and(|t| t.is_punct('=')) {
                let name = g.trees.first().and_then(|t| t.ident());
                if let (Some(name), Some(class)) = (name, option_class(&stmt[5..], ctx)) {
                    binding = Some((name.to_string(), class));
                }
            }
        }
    }
    let body_pos = stmt.len() - 1;
    scan_exprs(&stmt[..body_pos], ctx, push, None);
    if let Some(g) = stmt[body_pos].group().filter(|g| g.open == '{') {
        ctx.scopes.push(binding.into_iter().collect());
        analyze_block(&g.trees, ctx, push);
        ctx.scopes.pop();
    }
}

/// The class of the value inside an `Option`-returning accessor chain:
/// `bearing.get(i)` yields an `Outer` hash map.
fn option_class(expr: &[Tree], ctx: &Ctx<'_>) -> Option<HashClass> {
    let start = skip_ref_prefix(expr);
    let chain = parse_chain(expr, start)?;
    let class = resolve_chain_base(&chain, ctx)?;
    let last = chain.calls.last()?;
    let accessor = matches!(last.name.as_str(), "get" | "get_mut" | "first" | "last");
    (accessor && class == HashClass::Bearing).then_some(HashClass::Outer)
}

/// Records a `let` binding's hash class from its type annotation or a
/// recognizable initializer.
fn bind_let(stmt: &[Tree], ctx: &mut Ctx<'_>) {
    let mut i = 1;
    if stmt.get(i).is_some_and(|t| t.is_ident("mut")) {
        i += 1;
    }
    let Some(name) = stmt.get(i).and_then(|t| t.ident()) else {
        return;
    };
    let name = name.to_string();
    i += 1;
    let eq = stmt.iter().position(|t| t.is_punct('='));
    // `let name: TYPE = ...`
    if stmt.get(i).is_some_and(|t| t.is_punct(':')) {
        let end = eq.unwrap_or(stmt.len());
        if let Some(class) = classify_type(&stmt[i + 1..end], ctx.idx) {
            ctx.bind(&name, class);
            return;
        }
    }
    let Some(eq) = eq else { return };
    let init = &stmt[eq + 1..];
    if let Some(class) = initializer_class(init, ctx) {
        ctx.bind(&name, class);
    }
}

/// Classifies a `let` initializer: hash-type constructors
/// (`FxHashMap::default()`), plain moves/borrows of classed paths, and
/// `collect::<FxHashMap<..>>()` chains.
fn initializer_class(init: &[Tree], ctx: &Ctx<'_>) -> Option<HashClass> {
    let start = skip_ref_prefix(init);
    let head = init.get(start).and_then(|t| t.ident())?;
    if HASH_TYPES.contains(&head) || ctx.idx.outer_aliases.contains(head) {
        return Some(HashClass::Outer);
    }
    let chain = parse_chain(init, start)?;
    let class = resolve_chain_base(&chain, ctx)?;
    if chain.calls.is_empty() {
        return Some(class);
    }
    match chain.calls.last().map(|c| c.name.as_str()) {
        Some("clone") => Some(class),
        Some("collect") => {
            let fish = &chain.calls.last().unwrap().turbofish;
            fish.iter()
                .any(|t| HASH_TYPES.contains(&t.as_str()))
                .then_some(HashClass::Outer)
        }
        _ => None,
    }
}

fn skip_ref_prefix(trees: &[Tree]) -> usize {
    let mut i = 0;
    while trees
        .get(i)
        .is_some_and(|t| t.is_punct('&') || t.is_punct('*') || t.is_ident("mut"))
    {
        i += 1;
    }
    i
}

/// Resolves a pure path expression (`&mut self.frontiers`,
/// `data.per_selection[sel]`) to a hash class. `None` when the
/// expression contains calls or cannot be classified.
fn resolve_pure_path(expr: &[Tree], ctx: &Ctx<'_>) -> Option<(HashClass, String, usize)> {
    let start = skip_ref_prefix(expr);
    let chain = parse_chain(expr, start)?;
    if !chain.calls.is_empty() || chain.base_called || chain.end < expr.len() {
        return None;
    }
    let class = resolve_chain_base(&chain, ctx)?;
    Some((class, chain.base.join("."), chain.line))
}

/// The hash class of a chain's base path, after indexing: a `Bearing`
/// container indexed by `[...]` yields an `Outer` element.
fn resolve_chain_base(chain: &Chain, ctx: &Ctx<'_>) -> Option<HashClass> {
    if chain.base_called {
        return None;
    }
    let name = chain.base.last()?;
    let mut class = if chain.base.len() == 1 {
        ctx.lookup(name)
    } else {
        None
    };
    if class.is_none() {
        class = ctx.idx.field_class(name);
    }
    match (class?, chain.indexed) {
        (HashClass::Outer, true) => None, // `map[key]` is a value
        (HashClass::Bearing, true) => Some(HashClass::Outer),
        (c, false) => Some(c),
    }
}

/// Generic expression scan: finds chains, analyzes them, and recurses
/// into nested groups (blocks get scopes, call arguments do not).
/// `lookahead` carries the statement context for collect-then-sort.
fn scan_exprs(
    trees: &[Tree],
    ctx: &mut Ctx<'_>,
    push: &mut impl FnMut(&'static str, usize, String),
    lookahead: Option<(&[&[Tree]], usize)>,
) {
    let mut i = 0;
    while i < trees.len() {
        if trees[i].ident().is_some() {
            if let Some(chain) = parse_chain(trees, i) {
                analyze_chain(&chain, ctx, push, lookahead);
                let sorted_arg = (i == 0)
                    .then(|| extend_then_sort(&chain, trees, lookahead))
                    .flatten();
                for t in &trees[i..chain.end] {
                    if let Tree::Group(g) = t {
                        if sorted_arg.is_some_and(|arg| std::ptr::eq(arg, g)) {
                            scan_sorted_arg(g, ctx, push);
                        } else {
                            enter_group(g, ctx, push);
                        }
                    }
                }
                i = chain.end.max(i + 1);
                continue;
            }
        }
        if let Tree::Group(g) = &trees[i] {
            enter_group(g, ctx, push);
        }
        i += 1;
    }
}

fn enter_group(g: &Group, ctx: &mut Ctx<'_>, push: &mut impl FnMut(&'static str, usize, String)) {
    if g.open == '{' {
        analyze_block(&g.trees, ctx, push);
    } else {
        scan_exprs(&g.trees, ctx, push, None);
    }
}

/// The extend-then-sort idiom: a statement that is exactly
/// `NAME.extend(ARG)`, followed by `NAME.sort*()` as the next statement.
/// Returns `ARG`'s group: whatever order it yields is sorted away.
fn extend_then_sort<'t>(
    chain: &Chain,
    trees: &'t [Tree],
    lookahead: Option<(&[&[Tree]], usize)>,
) -> Option<&'t Group> {
    let (stmts, si) = lookahead?;
    let [name] = chain.base.as_slice() else {
        return None;
    };
    let whole = match &trees[chain.end..] {
        [] => true,
        [semi] => semi.is_punct(';'),
        _ => false,
    };
    if !whole || chain.indexed || chain.calls.len() != 1 || chain.calls[0].name != "extend" {
        return None;
    }
    let arg = trees[chain.end - 1].group().filter(|g| g.open == '(')?;
    next_sorts(stmts, si, name).then_some(arg)
}

/// The argument of an extend-then-sort: a hash iteration through
/// transparent adapters that is the whole argument is ordered; anything
/// else in it is scanned as usual.
fn scan_sorted_arg(
    arg: &Group,
    ctx: &mut Ctx<'_>,
    push: &mut impl FnMut(&'static str, usize, String),
) {
    let trees = &arg.trees;
    let start = skip_ref_prefix(trees);
    let iteration = parse_chain(trees, start).filter(|chain| {
        chain.end == trees.len()
            && resolve_chain_base(chain, ctx) == Some(HashClass::Outer)
            && chain
                .calls
                .first()
                .is_some_and(|c| ITER_METHODS.contains(&c.name.as_str()))
            && chain.calls[1..]
                .iter()
                .all(|c| TRANSPARENT.contains(&c.name.as_str()))
    });
    let Some(chain) = iteration else {
        enter_group(arg, ctx, push);
        return;
    };
    // Closures inside the chain's adapters still get scanned.
    for t in &trees[start..chain.end] {
        if let Tree::Group(g) = t {
            enter_group(g, ctx, push);
        }
    }
}

/// Checks one chain for unordered iteration.
fn analyze_chain(
    chain: &Chain,
    ctx: &mut Ctx<'_>,
    push: &mut impl FnMut(&'static str, usize, String),
    lookahead: Option<(&[&[Tree]], usize)>,
) {
    let Some(class) = resolve_chain_base(chain, ctx) else {
        return;
    };
    if class != HashClass::Outer {
        return;
    }
    let Some(first) = chain.calls.first() else {
        return;
    };
    if !ITER_METHODS.contains(&first.name.as_str()) || ctx.is_test(first.line) {
        return;
    }
    if chain_is_ordered(chain, ctx, lookahead) {
        return;
    }
    push(
        "no-unordered-iter",
        first.line,
        format!(
            ".{}() on hash-ordered `{}` leaks nondeterministic order; use \
             BTreeMap, sort before emitting, or allowlist with justification",
            first.name,
            chain.base.join("."),
        ),
    );
}

/// True when the chain's order provably cannot escape.
fn chain_is_ordered(chain: &Chain, ctx: &Ctx<'_>, lookahead: Option<(&[&[Tree]], usize)>) -> bool {
    let calls = &chain.calls;
    let mut i = 1;
    while i < calls.len() && TRANSPARENT.contains(&calls[i].name.as_str()) {
        i += 1;
    }
    let Some(terminal) = calls.get(i) else {
        return false; // raw iterator escapes (for-loop body, return, arg)
    };
    if COMMUTATIVE.contains(&terminal.name.as_str()) {
        return true;
    }
    if terminal.name != "collect" {
        return false;
    }
    let fish = &terminal.turbofish;
    if fish.iter().any(|t| {
        ORDERED_DESTS.contains(&t.as_str())
            || HASH_TYPES.contains(&t.as_str())
            || ctx.idx.outer_aliases.contains(t)
    }) {
        return true;
    }
    let_target_ordered(lookahead)
}

/// The collect-then-sort idiom: `let [mut] NAME [: TYPE] = ...collect();`
/// followed by `NAME.sort*()` as the next statement, or a `TYPE`
/// annotation naming a B-tree collection.
fn let_target_ordered(lookahead: Option<(&[&[Tree]], usize)>) -> bool {
    let Some((stmts, si)) = lookahead else {
        return false;
    };
    let stmt = stmts[si];
    if !stmt.first().is_some_and(|t| t.is_ident("let")) {
        return false;
    }
    let mut i = 1;
    if stmt.get(i).is_some_and(|t| t.is_ident("mut")) {
        i += 1;
    }
    let Some(name) = stmt.get(i).and_then(|t| t.ident()) else {
        return false;
    };
    if stmt.get(i + 1).is_some_and(|t| t.is_punct(':')) {
        let end = stmt
            .iter()
            .position(|t| t.is_punct('='))
            .unwrap_or(stmt.len());
        let mut ids = Vec::new();
        for t in &stmt[i + 2..end] {
            if let Some(id) = t.ident() {
                ids.push(id);
            }
        }
        if ids.iter().any(|id| ORDERED_DESTS.contains(id)) {
            return true;
        }
    }
    next_sorts(stmts, si, name)
}

/// Whether the statement after `stmts[si]` is `NAME.sort*(..)`.
fn next_sorts(stmts: &[&[Tree]], si: usize, name: &str) -> bool {
    let Some(next) = stmts.get(si + 1) else {
        return false;
    };
    next.first().is_some_and(|t| t.is_ident(name))
        && next.get(1).is_some_and(|t| t.is_punct('.'))
        && next
            .get(2)
            .and_then(|t| t.ident())
            .is_some_and(|m| m.starts_with("sort"))
        && matches!(next.get(3), Some(Tree::Group(g)) if g.open == '(')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<(usize, String)> {
        let toks = lex(src);
        let test_lines = crate::test_regions(&toks, src);
        let mut idx = SyntaxIndex::default();
        crate::parse::index_file(src, &mut idx);
        crate::parse::index_file(src, &mut idx);
        let mut out = Vec::new();
        rule_no_unordered_iter(&toks, &test_lines, &idx, &mut |_, line, msg| {
            out.push((line, msg));
        });
        out
    }

    #[test]
    fn for_loop_over_hash_field_is_flagged() {
        let src = "struct M { frontiers: FxHashMap<u32, u64> }\n\
                   impl M { fn f(&self) { for (k, v) in &self.frontiers { use_(k, v); } } }\n";
        let v = findings(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].1.contains("self.frontiers"), "{v:?}");
    }

    #[test]
    fn commutative_terminals_and_collect_sort_are_ordered() {
        let src = "struct M { frontiers: FxHashMap<u32, u64> }\n\
                   impl M {\n\
                     fn min(&self) -> Option<u64> { self.frontiers.values().copied().min() }\n\
                     fn total(&self) -> u64 { self.frontiers.values().map(|v| *v).sum() }\n\
                     fn sorted(&self) -> Vec<u32> {\n\
                       let mut keys: Vec<u32> = self.frontiers.keys().copied().collect();\n\
                       keys.sort_unstable();\n\
                       keys\n\
                     }\n\
                     fn tree(&self) -> BTreeMap<u32, u64> {\n\
                       self.frontiers.iter().map(|(k, v)| (*k, *v)).collect::<BTreeMap<_, _>>()\n\
                     }\n\
                   }\n";
        assert!(findings(src).is_empty(), "{:?}", findings(src));
    }

    #[test]
    fn extend_then_sort_is_ordered() {
        let src = "struct M { frontiers: FxHashMap<u32, u64> }\n\
                   impl M {\n\
                     fn refill(&self, keys: &mut Vec<u32>) {\n\
                       keys.clear();\n\
                       keys.extend(self.frontiers.keys().copied());\n\
                       keys.sort_unstable();\n\
                     }\n\
                     fn values(&self, out: &mut Vec<u64>) {\n\
                       out.extend(self.frontiers.values().map(|v| v + 1));\n\
                       out.sort_by(|a, b| b.cmp(a));\n\
                     }\n\
                   }\n";
        assert!(findings(src).is_empty(), "{:?}", findings(src));
    }

    #[test]
    fn extend_without_its_sort_is_flagged() {
        let src = "struct M { frontiers: FxHashMap<u32, u64> }\n\
                   impl M {\n\
                     fn unsorted(&self, keys: &mut Vec<u32>) {\n\
                       keys.extend(self.frontiers.keys().copied());\n\
                     }\n\
                     fn other_sorted(&self, keys: &mut Vec<u32>, other: &mut Vec<u32>) {\n\
                       keys.extend(self.frontiers.keys().copied());\n\
                       other.sort_unstable();\n\
                     }\n\
                     fn sorted_too_late(&self, keys: &mut Vec<u32>) {\n\
                       keys.extend(self.frontiers.keys().copied());\n\
                       use_(keys);\n\
                       keys.sort_unstable();\n\
                     }\n\
                   }\n";
        let v = findings(src);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|(_, msg)| msg.contains(".keys()")), "{v:?}");
    }

    #[test]
    fn escaping_iteration_is_flagged() {
        let src = "struct M { frontiers: FxHashMap<u32, u64> }\n\
                   impl M {\n\
                     fn emit(&self, out: &mut Vec<u32>) {\n\
                       for k in self.frontiers.keys() { out.push(*k); }\n\
                     }\n\
                     fn first(&self) -> Option<u32> { self.frontiers.keys().next().copied() }\n\
                   }\n";
        assert_eq!(findings(src).len(), 2, "{:?}", findings(src));
    }

    #[test]
    fn bearing_containers_propagate_to_elements() {
        let src = "struct D { per_selection: Vec<FxHashMap<u32, u64>> }\n\
                   fn enc(data: &D, s: &mut Vec<u8>) {\n\
                     for map in &data.per_selection {\n\
                       for (k, v) in map { s.push(*k as u8); use_(v); }\n\
                     }\n\
                   }\n\
                   fn acc(data: &D, sel: usize, dst: &mut Vec<u64>) {\n\
                     if let Some(map) = data.per_selection.get(sel) {\n\
                       for v in map.values() { dst.push(*v); }\n\
                     }\n\
                     for (k, v) in &data.per_selection[sel] { use_(k, v); }\n\
                   }\n";
        let v = findings(src);
        assert_eq!(v.len(), 3, "{v:?}");
    }

    #[test]
    fn locals_params_and_aliases_are_classified() {
        let src = "type KeyedBundles = FxHashMap<u64, u64>;\n\
                   fn finalize(merged: &KeyedBundles, out: &mut Vec<u64>) {\n\
                     for (k, _) in merged { out.push(*k); }\n\
                   }\n\
                   fn local() {\n\
                     let mut m = FxHashMap::default();\n\
                     m.insert(1u32, 2u32);\n\
                     for k in m.keys() { use_(k); }\n\
                   }\n";
        let v = findings(src);
        assert_eq!(v.len(), 2, "{v:?}");
    }

    #[test]
    fn btreemaps_and_test_code_are_quiet() {
        let src = "struct M { pending: BTreeMap<u64, u64>, live: FxHashMap<u32, u32> }\n\
                   impl M { fn f(&self) { for (k, v) in &self.pending { use_(k, v); } } }\n\
                   #[cfg(test)]\n\
                   mod tests { use super::*; fn g(m: &M) { for k in m.live.keys() { use_(k); } } }\n";
        assert!(findings(src).is_empty(), "{:?}", findings(src));
    }
}
