//! The rule implementations.
//!
//! Each rule owns a stable id (used in diagnostics and in `allow(...)`
//! suppressions) and pattern-matches one workspace invariant on the token
//! stream produced by [`crate::lexer`]. Per-file rules run via
//! [`analyze_file`]; the cross-file registry and bench-schema checks expose
//! extraction helpers here and are assembled in [`crate::workspace`].

use std::path::Path;

use crate::diag::{directive_text, Diagnostic, Suppressions};
use crate::json;
use crate::lexer::{Token, TokenKind};

/// No `unwrap`/`expect`/`panic!`/`assert*!`/`unreachable!` on the serving
/// path (`debug_assert*!` stays allowed).
pub const RULE_SERVING_PANIC_FREE: &str = "serving-panic-free";
/// No unchecked indexing on the serving path.
pub const RULE_SERVING_INDEX: &str = "serving-index";
/// Every `unsafe` site carries a nearby `SAFETY:` comment.
pub const RULE_SAFETY_COMMENT: &str = "safety-comment";
/// Every crate root except `parallel` forbids unsafe code.
pub const RULE_FORBID_UNSAFE: &str = "forbid-unsafe";
/// `fault_point!` call sites, the documented registry and the robustness
/// test list agree exactly.
pub const RULE_FAULT_POINT_REGISTRY: &str = "fault-point-registry";
/// Loops marked `hot-loop` poll the cooperative deadline.
pub const RULE_CHECKPOINT_COVERAGE: &str = "checkpoint-coverage";
/// Crate roots deny missing docs; no `dbg!`/`todo!`/`unimplemented!`
/// outside tests.
pub const RULE_CRATE_HYGIENE: &str = "crate-hygiene";
/// Committed `BENCH_*.json` baselines parse and carry the required fields.
pub const RULE_BENCH_SCHEMA: &str = "bench-schema";
/// `mesa-lint` control comments are themselves well-formed.
pub const RULE_LINT_DIRECTIVE: &str = "lint-directive";

/// Every rule id, for `allow(...)` validation and the `rules` subcommand.
pub const KNOWN_RULES: &[&str] = &[
    RULE_SERVING_PANIC_FREE,
    RULE_SERVING_INDEX,
    RULE_SAFETY_COMMENT,
    RULE_FORBID_UNSAFE,
    RULE_FAULT_POINT_REGISTRY,
    RULE_CHECKPOINT_COVERAGE,
    RULE_CRATE_HYGIENE,
    RULE_BENCH_SCHEMA,
    RULE_LINT_DIRECTIVE,
];

/// One-line summaries for the `rules` subcommand.
pub const RULE_TABLE: &[(&str, &str)] = &[
    (
        RULE_SERVING_PANIC_FREE,
        "no unwrap/expect/panic!/assert*!/unreachable! in session, cache, pool or the explain path",
    ),
    (
        RULE_SERVING_INDEX,
        "no unchecked indexing in session, cache or pool",
    ),
    (
        RULE_SAFETY_COMMENT,
        "every `unsafe` has a SAFETY: comment within 8 lines",
    ),
    (
        RULE_FORBID_UNSAFE,
        "crate roots outside `parallel` carry #![forbid(unsafe_code)]",
    ),
    (
        RULE_FAULT_POINT_REGISTRY,
        "fault_point! sites == NAMED_POINTS == robustness FAULT_POINTS",
    ),
    (
        RULE_CHECKPOINT_COVERAGE,
        "loops marked `mesa-lint: hot-loop` call checkpoint",
    ),
    (
        RULE_CRATE_HYGIENE,
        "#![deny(missing_docs)] in roots; no dbg!/todo!/unimplemented!",
    ),
    (
        RULE_BENCH_SCHEMA,
        "BENCH_*.json parse with label/median_ms/min_ms/max_ms/threads",
    ),
    (
        RULE_LINT_DIRECTIVE,
        "mesa-lint directives are well-formed and reasoned",
    ),
];

/// Serving-path files where panicking constructs are forbidden: the session
/// and its caches, the pool, and the explain path from preparation through
/// pruning, IPW and MCIMR down to the estimators and their kernel.
const PANIC_FREE_FILES: &[&str] = &[
    "crates/mesa/src/session.rs",
    "crates/mesa/src/cache.rs",
    "crates/parallel/src/pool.rs",
    "crates/infotheory/src/kernel.rs",
    "crates/infotheory/src/contingency.rs",
    "crates/infotheory/src/measures.rs",
    "crates/infotheory/src/independence.rs",
    "crates/infotheory/src/frame.rs",
    "crates/mesa/src/problem.rs",
    "crates/mesa/src/pruning.rs",
    "crates/mesa/src/missing.rs",
    "crates/mesa/src/mcimr.rs",
];

/// Serving-path files where unchecked indexing is forbidden. The kernel is
/// deliberately exempt: its masked fold loops index preallocated buffers in
/// the innermost hot path, where `get` would defeat the point (recorded as
/// carried debt in ROADMAP.md).
const INDEX_FREE_FILES: &[&str] = &[
    "crates/mesa/src/session.rs",
    "crates/mesa/src/cache.rs",
    "crates/parallel/src/pool.rs",
];

/// Keywords that legitimately precede `[` (slice patterns, array literals
/// in expression position) and therefore do not indicate indexing.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where",
    "while", "yield",
];

/// Run every per-file rule on one tokenized source file.
///
/// `rel` is the workspace-relative path (used both for diagnostics and for
/// scoping path-sensitive rules). Diagnostics suppressed by a reasoned
/// `allow(...)` on the same or preceding line are filtered out here.
pub fn analyze_file(rel: &Path, tokens: &[Token], suppressions: &Suppressions) -> Vec<Diagnostic> {
    let rel_str = rel.to_string_lossy().replace('\\', "/");
    let in_test = mark_tests(tokens);
    let is_test_path = rel.components().any(|c| c.as_os_str() == "tests");
    let mut diags = Vec::new();

    if PANIC_FREE_FILES.contains(&rel_str.as_str()) {
        panic_free(rel, tokens, &in_test, &mut diags);
    }
    if INDEX_FREE_FILES.contains(&rel_str.as_str()) {
        index_free(rel, tokens, &in_test, &mut diags);
    }
    safety_comments(rel, tokens, &in_test, &mut diags);
    if let Some(crate_name) = crate_root(&rel_str) {
        crate_root_attrs(rel, tokens, crate_name, &mut diags);
    }
    banned_macros(rel, tokens, &in_test, is_test_path, &mut diags);
    checkpoint_coverage(rel, tokens, &mut diags);

    diags.retain(|d| !suppressions.is_allowed(d.rule, d.line));
    diags
}

/// Mark which tokens sit inside a `#[cfg(test)]`-gated item body.
///
/// Conservative: recognizes `#[cfg(...)]` attribute groups whose argument
/// list mentions both `cfg` and `test`, then spans from the attribute to
/// the matching close brace of the item it gates.
pub fn mark_tests(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        let Some(attr_end) = cfg_test_attr_end(tokens, i) else {
            i += 1;
            continue;
        };
        // Skip any further attributes between the cfg(test) and the item.
        let mut j = attr_end + 1;
        while let Some(next) = next_code(tokens, j) {
            if tokens[next].is_punct('#') {
                match attr_group_end(tokens, next) {
                    Some(end) => j = end + 1,
                    None => break,
                }
            } else {
                break;
            }
        }
        // Find the gated item's body: the first `{` at nesting depth zero
        // (a `;` first means the item has no body, e.g. a gated `use`).
        let mut depth = 0i32;
        let mut body = None;
        let mut k = j;
        while k < tokens.len() {
            let t = &tokens[k];
            if t.kind == TokenKind::Punct {
                match t.text.chars().next() {
                    Some('(') | Some('[') => depth += 1,
                    Some(')') | Some(']') => depth -= 1,
                    Some('{') if depth == 0 => {
                        body = Some(k);
                        break;
                    }
                    Some(';') if depth == 0 => break,
                    _ => {}
                }
            }
            k += 1;
        }
        let Some(open) = body else {
            i = attr_end + 1;
            continue;
        };
        let close = matching_brace(tokens, open).unwrap_or(tokens.len() - 1);
        for flag in in_test.iter_mut().take(close + 1).skip(i) {
            *flag = true;
        }
        i = close + 1;
    }
    in_test
}

/// If `start` opens a `#[cfg(...test...)]` outer attribute, return the
/// index of its closing `]`.
fn cfg_test_attr_end(tokens: &[Token], start: usize) -> Option<usize> {
    if !tokens[start].is_punct('#') {
        return None;
    }
    let open = next_code(tokens, start + 1)?;
    if !tokens[open].is_punct('[') {
        return None; // `#![...]` inner attrs gate the whole file; out of scope
    }
    let end = matching_bracket(tokens, open)?;
    let group = &tokens[open..=end];
    let has = |name: &str| group.iter().any(|t| t.is_ident(name));
    // `not` bails out conservatively: `#[cfg(not(test))]` gates shipping
    // code, which the rules must keep covering.
    (has("cfg") && has("test") && !has("not")).then_some(end)
}

/// If `start` is the `#` of any attribute, return the index of its `]`.
fn attr_group_end(tokens: &[Token], start: usize) -> Option<usize> {
    if !tokens[start].is_punct('#') {
        return None;
    }
    let mut open = next_code(tokens, start + 1)?;
    if tokens[open].is_punct('!') {
        open = next_code(tokens, open + 1)?;
    }
    if !tokens[open].is_punct('[') {
        return None;
    }
    matching_bracket(tokens, open)
}

fn matching_bracket(tokens: &[Token], open: usize) -> Option<usize> {
    matching(tokens, open, '[', ']')
}

fn matching_brace(tokens: &[Token], open: usize) -> Option<usize> {
    matching(tokens, open, '{', '}')
}

fn matching(tokens: &[Token], open: usize, lhs: char, rhs: char) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(lhs) {
            depth += 1;
        } else if t.is_punct(rhs) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Index of the next non-comment token at or after `from`.
fn next_code(tokens: &[Token], from: usize) -> Option<usize> {
    tokens
        .iter()
        .enumerate()
        .skip(from)
        .find(|(_, t)| t.kind != TokenKind::Comment)
        .map(|(i, _)| i)
}

/// Index of the previous non-comment token strictly before `at`.
fn prev_code(tokens: &[Token], at: usize) -> Option<usize> {
    tokens[..at]
        .iter()
        .enumerate()
        .rev()
        .find(|(_, t)| t.kind != TokenKind::Comment)
        .map(|(i, _)| i)
}

fn emit(
    diags: &mut Vec<Diagnostic>,
    rule: &'static str,
    rel: &Path,
    token: &Token,
    message: String,
    suggestion: &str,
) {
    diags.push(Diagnostic {
        rule,
        file: rel.to_path_buf(),
        line: token.line,
        col: token.col,
        message,
        suggestion: suggestion.to_string(),
    });
}

fn panic_free(rel: &Path, tokens: &[Token], in_test: &[bool], diags: &mut Vec<Diagnostic>) {
    for (i, t) in tokens.iter().enumerate() {
        if in_test[i] || t.kind != TokenKind::Ident {
            continue;
        }
        let construct = match t.text.as_str() {
            "unwrap" | "expect" => {
                // Only the method call forms `.unwrap()` / `.expect(`.
                let is_method = prev_code(tokens, i).is_some_and(|p| tokens[p].is_punct('.'))
                    && next_code(tokens, i + 1).is_some_and(|n| tokens[n].is_punct('('));
                if !is_method {
                    continue;
                }
                format!(".{}()", t.text)
            }
            // Panicking macros; `debug_assert*!` lexes as another ident and
            // stays allowed.
            "panic" | "assert" | "assert_eq" | "assert_ne" | "unreachable" => {
                if !next_code(tokens, i + 1).is_some_and(|n| tokens[n].is_punct('!')) {
                    continue;
                }
                format!("{}!", t.text)
            }
            _ => continue,
        };
        emit(
            diags,
            RULE_SERVING_PANIC_FREE,
            rel,
            t,
            format!("`{construct}` on the serving path"),
            "propagate a structured MesaError instead; if the site is provably \
             unreachable, add `mesa-lint: allow(serving-panic-free) -- reason`",
        );
    }
}

fn index_free(rel: &Path, tokens: &[Token], in_test: &[bool], diags: &mut Vec<Diagnostic>) {
    for (i, t) in tokens.iter().enumerate() {
        if in_test[i] || !t.is_punct('[') {
            continue;
        }
        let Some(p) = prev_code(tokens, i) else {
            continue;
        };
        let prev = &tokens[p];
        // Indexing looks like `expr[`: the previous token is an identifier
        // (not a keyword) or a closing `)`/`]`. Everything else — `&[`,
        // `vec![`, `#[`, `= [`, `: [` — is a type, attribute or literal.
        let indexes = match prev.kind {
            TokenKind::Ident => !KEYWORDS.contains(&prev.text.as_str()),
            TokenKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
            _ => false,
        };
        if indexes {
            emit(
                diags,
                RULE_SERVING_INDEX,
                rel,
                t,
                "unchecked indexing on the serving path".to_string(),
                "use .get()/.get_mut() and map None to a structured MesaError; \
                 or add `mesa-lint: allow(serving-index) -- reason`",
            );
        }
    }
}

/// Lines an `unsafe` token may look back for its justification.
const SAFETY_WINDOW: u32 = 8;

fn safety_comments(rel: &Path, tokens: &[Token], in_test: &[bool], diags: &mut Vec<Diagnostic>) {
    for (i, t) in tokens.iter().enumerate() {
        if in_test[i] || !t.is_ident("unsafe") {
            continue;
        }
        let justified = tokens.iter().any(|c| {
            c.kind == TokenKind::Comment
                && c.text.contains("SAFETY:")
                && c.line <= t.line
                && c.end_line + SAFETY_WINDOW >= t.line
        });
        if !justified {
            emit(
                diags,
                RULE_SAFETY_COMMENT,
                rel,
                t,
                "`unsafe` without a `SAFETY:` comment in the preceding 8 lines".to_string(),
                "document the invariant that makes this sound in a `// SAFETY:` comment \
                 directly above the unsafe site",
            );
        }
    }
}

/// If `rel` is a crate root (`crates/<name>/src/lib.rs` or the umbrella
/// `src/lib.rs`), return the crate's directory name.
fn crate_root(rel: &str) -> Option<&str> {
    if rel == "src/lib.rs" {
        return Some("mesa-repro");
    }
    let rest = rel.strip_prefix("crates/")?;
    let (name, tail) = rest.split_once('/')?;
    (tail == "src/lib.rs").then_some(name)
}

fn crate_root_attrs(rel: &Path, tokens: &[Token], crate_name: &str, diags: &mut Vec<Diagnostic>) {
    let first = Token {
        kind: TokenKind::Punct,
        text: String::new(),
        line: 1,
        col: 1,
        end_line: 1,
    };
    let anchor = tokens.first().unwrap_or(&first);
    if !has_inner_attr(tokens, &["deny", "missing_docs"]) {
        emit(
            diags,
            RULE_CRATE_HYGIENE,
            rel,
            anchor,
            format!("crate root of `{crate_name}` is missing `#![deny(missing_docs)]`"),
            "add `#![deny(missing_docs)]` to the crate root",
        );
    }
    if crate_name != "parallel" && !has_inner_attr(tokens, &["forbid", "unsafe_code"]) {
        emit(
            diags,
            RULE_FORBID_UNSAFE,
            rel,
            anchor,
            format!("crate root of `{crate_name}` is missing `#![forbid(unsafe_code)]`"),
            "add `#![forbid(unsafe_code)]`; only the `parallel` crate may hold unsafe code",
        );
    }
}

/// True when an inner attribute `#![...]` mentions all of `idents`.
fn has_inner_attr(tokens: &[Token], idents: &[&str]) -> bool {
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct('#')
            && next_code(tokens, i + 1).is_some_and(|b| tokens[b].is_punct('!'))
        {
            if let Some(end) = attr_group_end(tokens, i) {
                let group = &tokens[i..=end];
                if idents
                    .iter()
                    .all(|name| group.iter().any(|t| t.is_ident(name)))
                {
                    return true;
                }
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
    false
}

fn banned_macros(
    rel: &Path,
    tokens: &[Token],
    in_test: &[bool],
    is_test_path: bool,
    diags: &mut Vec<Diagnostic>,
) {
    if is_test_path {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if in_test[i] || t.kind != TokenKind::Ident {
            continue;
        }
        if !matches!(t.text.as_str(), "dbg" | "todo" | "unimplemented") {
            continue;
        }
        if !next_code(tokens, i + 1).is_some_and(|n| tokens[n].is_punct('!')) {
            continue;
        }
        emit(
            diags,
            RULE_CRATE_HYGIENE,
            rel,
            t,
            format!("`{}!` outside test code", t.text),
            "finish the implementation or move the call under #[cfg(test)]",
        );
    }
}

fn checkpoint_coverage(rel: &Path, tokens: &[Token], diags: &mut Vec<Diagnostic>) {
    for (i, t) in tokens.iter().enumerate() {
        let Some(directive) = directive_text(t) else {
            continue;
        };
        let Some(required) = crate::diag::hot_loop_target(directive) else {
            continue;
        };
        let Some(kw) = next_code(tokens, i + 1) else {
            emit(
                diags,
                RULE_CHECKPOINT_COVERAGE,
                rel,
                t,
                "dangling hot-loop marker at end of file".to_string(),
                "place the marker directly above a for/while/loop",
            );
            continue;
        };
        let kw_tok = &tokens[kw];
        if !(kw_tok.is_ident("for") || kw_tok.is_ident("while") || kw_tok.is_ident("loop")) {
            emit(
                diags,
                RULE_CHECKPOINT_COVERAGE,
                rel,
                kw_tok,
                "hot-loop marker is not followed by a loop".to_string(),
                "place the marker directly above a for/while/loop",
            );
            continue;
        }
        // The loop body opens at the first `{` outside parens/brackets.
        let mut depth = 0i32;
        let mut open = None;
        for (k, tok) in tokens.iter().enumerate().skip(kw) {
            if tok.kind != TokenKind::Punct {
                continue;
            }
            match tok.text.chars().next() {
                Some('(') | Some('[') => depth += 1,
                Some(')') | Some(']') => depth -= 1,
                Some('{') if depth == 0 => {
                    open = Some(k);
                    break;
                }
                _ => {}
            }
        }
        let Some(open) = open else { continue };
        let close = matching_brace(tokens, open).unwrap_or(tokens.len() - 1);
        let polls = tokens[kw..=close].iter().any(|tok| tok.is_ident(required));
        if !polls {
            emit(
                diags,
                RULE_CHECKPOINT_COVERAGE,
                rel,
                kw_tok,
                format!("hot loop does not call `{required}`"),
                "poll the cooperative deadline (parallel::checkpoint) inside the loop, \
                 or name the polling call: `mesa-lint: hot-loop(call_name)`",
            );
        }
    }
}

/// A `fault_point!("...")` occurrence (or registry entry) with its location.
#[derive(Debug, Clone)]
pub struct FaultSite {
    /// The point's string name.
    pub name: String,
    /// File the occurrence is in (workspace-relative).
    pub file: std::path::PathBuf,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// Collect `fault_point!("name")` call sites from one file's tokens.
pub fn fault_call_sites(rel: &Path, tokens: &[Token]) -> Vec<FaultSite> {
    let mut sites = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("fault_point") {
            continue;
        }
        let Some(bang) = next_code(tokens, i + 1) else {
            continue;
        };
        if !tokens[bang].is_punct('!') {
            continue;
        }
        let Some(paren) = next_code(tokens, bang + 1) else {
            continue;
        };
        if !tokens[paren].is_punct('(') {
            continue;
        }
        let Some(arg) = next_code(tokens, paren + 1) else {
            continue;
        };
        if tokens[arg].kind == TokenKind::Str {
            sites.push(FaultSite {
                name: tokens[arg].text.clone(),
                file: rel.to_path_buf(),
                line: tokens[arg].line,
                col: tokens[arg].col,
            });
        }
    }
    sites
}

/// Collect the string literals between the ident `anchor` and the next `;`
/// — the shape of both `NAMED_POINTS` and the robustness `FAULT_POINTS`
/// const declarations. `None` when the anchor never appears.
pub fn anchored_strings(rel: &Path, tokens: &[Token], anchor: &str) -> Option<Vec<FaultSite>> {
    let start = tokens.iter().position(|t| t.is_ident(anchor))?;
    let mut out = Vec::new();
    for t in &tokens[start..] {
        if t.is_punct(';') {
            break;
        }
        if t.kind == TokenKind::Str {
            out.push(FaultSite {
                name: t.text.clone(),
                file: rel.to_path_buf(),
                line: t.line,
                col: t.col,
            });
        }
    }
    Some(out)
}

/// Validate one committed `BENCH_*.json` baseline.
pub fn check_bench_json(rel: &Path, src: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let doc = match json::parse(src) {
        Ok(doc) => doc,
        Err((message, line)) => {
            bench_bad(
                &mut diags,
                rel,
                line,
                format!("baseline is not valid JSON: {message}"),
            );
            return diags;
        }
    };
    if doc.get("name").and_then(json::Value::as_str).is_none() {
        bench_bad(
            &mut diags,
            rel,
            doc.line(),
            "baseline is missing a string `name`".to_string(),
        );
    }
    let Some(json::Value::Arr(entries, entries_line)) = doc.get("entries") else {
        bench_bad(
            &mut diags,
            rel,
            doc.line(),
            "baseline is missing an `entries` array".to_string(),
        );
        return diags;
    };
    if entries.is_empty() {
        bench_bad(
            &mut diags,
            rel,
            *entries_line,
            "`entries` is empty".to_string(),
        );
    }
    for entry in entries {
        if entry.get("label").and_then(json::Value::as_str).is_none() {
            bench_bad(
                &mut diags,
                rel,
                entry.line(),
                "entry is missing a string `label`".to_string(),
            );
        }
        for field in ["median_ms", "min_ms", "max_ms"] {
            if entry.get(field).and_then(json::Value::as_num).is_none() {
                bench_bad(
                    &mut diags,
                    rel,
                    entry.line(),
                    format!("entry is missing numeric `{field}`"),
                );
            }
        }
        match entry.get("threads").and_then(json::Value::as_num) {
            Some(n) if n >= 1.0 && n.fract() == 0.0 => {}
            Some(_) => bench_bad(
                &mut diags,
                rel,
                entry.line(),
                "`threads` must be an integer >= 1".to_string(),
            ),
            None => bench_bad(
                &mut diags,
                rel,
                entry.line(),
                "entry is missing integer `threads`".to_string(),
            ),
        }
    }
    diags
}

fn bench_bad(diags: &mut Vec<Diagnostic>, rel: &Path, line: u32, message: String) {
    diags.push(Diagnostic {
        rule: RULE_BENCH_SCHEMA,
        file: rel.to_path_buf(),
        line,
        col: 1,
        message,
        suggestion: "regenerate the baseline with the bench binaries (crates/bench); \
                     do not hand-edit committed BENCH_*.json files"
            .to_string(),
    });
}
