//! Source-level determinism lints (`csalt-audit srclint`, rules
//! `S000`–`S009`).
//!
//! The repo's value proposition is bit-identical reproduction, and the
//! failure modes that silently break it are *source* patterns: a
//! `HashMap` iteration feeding a report, a wall-clock read leaking into
//! a result, a mis-ordered atomic in the SPSC ring. This pass walks
//! every `crates/*/src` file with the hand-rolled [`crate::lexer`]
//! (vendored-deps constraint — no `syn`) and enforces the project's
//! determinism contracts:
//!
//! | rule | contract |
//! |------|----------|
//! | S001 | no `HashMap`/`HashSet` in result-affecting crates |
//! | S002 | no wall-clock / thread-identity reads outside timing modules |
//! | S003 | every `unsafe` carries a `// SAFETY:` comment |
//! | S004 | zero `unsafe` in crates on the no-unsafe list (pipeline) |
//! | S005 | no float arithmetic in counter/cycle-accounting modules |
//! | S006 | no `f32` anywhere (f64-only policy where floats are legal) |
//! | S007 | every `Release` store field has a matching `Acquire` load |
//! | S008 | no `Relaxed` on manifest-listed publication fields |
//! | S009 | no per-set heap containers in set-associative structures |
//! | S000 | waiver hygiene (reasonless or stale `audit-waive` markers) |
//!
//! Scope comes from `crates/audit/srclint.manifest` (embedded at
//! compile time). Code under `#[cfg(test)]` / `#[test]` is exempt.
//! Intentional exceptions are inline waivers —
//! `// audit-waive: S001 <reason>` on the offending line or the line
//! above — which the tool counts and reports; a waiver without a
//! reason suppresses nothing and is itself a finding.

use crate::lexer::{lex, Comment, Tok, Token};
use serde::Serialize;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Version of the JSON report schema emitted by `--format json`.
pub use crate::SCHEMA_VERSION;

/// The embedded policy manifest text.
pub const MANIFEST_TEXT: &str = include_str!("../srclint.manifest");

/// Registry entry for `--list-rules`.
pub fn srclint_rules() -> &'static [crate::Rule] {
    &[
        crate::Rule {
            code: "S000",
            name: "waiver-hygiene",
            summary: "audit-waive markers carry a reason and match a finding",
        },
        crate::Rule {
            code: "S001",
            name: "hash-collection",
            summary: "no HashMap/HashSet in result-affecting crates (BTree* or sorted)",
        },
        crate::Rule {
            code: "S002",
            name: "wall-clock",
            summary: "no Instant/SystemTime/thread-id reads outside timing modules",
        },
        crate::Rule {
            code: "S003",
            name: "safety-comment",
            summary: "every unsafe block carries a // SAFETY: justification",
        },
        crate::Rule {
            code: "S004",
            name: "no-unsafe-crate",
            summary: "zero unsafe in crates on the no-unsafe list (pipeline)",
        },
        crate::Rule {
            code: "S005",
            name: "integer-counters",
            summary: "no float types/literals in counter/cycle-accounting modules",
        },
        crate::Rule {
            code: "S006",
            name: "no-f32",
            summary: "no f32 anywhere in crate sources (f64-only float policy)",
        },
        crate::Rule {
            code: "S007",
            name: "release-acquire-pairing",
            summary: "every Release-stored atomic field has an Acquire load",
        },
        crate::Rule {
            code: "S008",
            name: "no-relaxed-publication",
            summary: "Relaxed denied on manifest-listed publication fields",
        },
        crate::Rule {
            code: "S009",
            name: "flat-slabs",
            summary: "no Vec<Vec<..>>/Vec<Set*>-style per-set heap containers in set-associative structures",
        },
    ]
}

// ---------------------------------------------------------------------
// Manifest.
// ---------------------------------------------------------------------

/// Parsed scope manifest (see `srclint.manifest` for the format).
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// S001 scope: path prefixes where hash collections are denied.
    pub hash_deny: Vec<String>,
    /// S002 exemptions: path prefixes where clock reads are allowed.
    pub clock_allow: Vec<String>,
    /// S004 scope: path prefixes where `unsafe` is denied outright.
    pub no_unsafe: Vec<String>,
    /// S005 scope: path prefixes that must stay float-free.
    pub float_deny: Vec<String>,
    /// S007/S008 scope: the ring/budget modules.
    pub atomics_scope: Vec<String>,
    /// S008: atomic field names that must never use `Relaxed`.
    pub relaxed_deny: Vec<String>,
    /// S009 scope: path prefixes whose state must live in flat slabs.
    pub slab_only: Vec<String>,
}

impl Manifest {
    /// Parses the line-based manifest format.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let mut m = Manifest::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (directive, arg) = line
                .split_once(' ')
                .ok_or_else(|| format!("manifest line {}: missing argument", lineno + 1))?;
            let arg = arg.trim().to_string();
            match directive {
                "hash-deny" => m.hash_deny.push(arg),
                "clock-allow" => m.clock_allow.push(arg),
                "no-unsafe-crate" => m.no_unsafe.push(arg),
                "float-deny" => m.float_deny.push(arg),
                "atomics-scope" => m.atomics_scope.push(arg),
                "relaxed-deny" => m.relaxed_deny.push(arg),
                "slab-only" => m.slab_only.push(arg),
                other => {
                    return Err(format!(
                        "manifest line {}: unknown directive {other:?}",
                        lineno + 1
                    ))
                }
            }
        }
        Ok(m)
    }

    /// The compiled-in manifest.
    pub fn builtin() -> &'static Manifest {
        static BUILTIN: OnceLock<Manifest> = OnceLock::new();
        BUILTIN.get_or_init(|| {
            Manifest::parse(MANIFEST_TEXT).unwrap_or_else(|e| {
                // The embedded manifest is part of the source tree; a
                // parse error is a build bug, surfaced loudly.
                panic!("embedded srclint.manifest is invalid: {e}")
            })
        })
    }
}

fn under(path: &str, prefixes: &[String]) -> bool {
    prefixes
        .iter()
        .any(|p| path == p || path.starts_with(&format!("{p}/")))
}

// ---------------------------------------------------------------------
// Findings and reports.
// ---------------------------------------------------------------------

/// One srclint finding.
#[derive(Debug, Clone, Serialize)]
pub struct SrcViolation {
    /// Rule code (`S00x`).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong and what to do instead.
    pub message: String,
    /// Whether an inline `audit-waive` marker with a reason covers it.
    pub waived: bool,
    /// The waiver's reason, when waived.
    pub waive_reason: Option<String>,
}

impl fmt::Display for SrcViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{}: {}",
            self.rule, self.file, self.line, self.message
        )?;
        if let Some(reason) = &self.waive_reason {
            write!(f, " [waived: {reason}]")?;
        }
        Ok(())
    }
}

/// Outcome of a srclint run.
#[derive(Debug, Clone, Serialize)]
pub struct SrclintReport {
    /// JSON schema version.
    pub version: u32,
    /// Files scanned.
    pub files: u64,
    /// Unwaived findings (these fail the run).
    pub errors: u64,
    /// Findings covered by a reasoned waiver.
    pub waived: u64,
    /// Every finding, unwaived first.
    pub violations: Vec<SrcViolation>,
}

impl SrclintReport {
    fn new(files: u64, mut violations: Vec<SrcViolation>) -> Self {
        violations.sort_by(|a, b| {
            a.waived
                .cmp(&b.waived)
                .then_with(|| a.file.cmp(&b.file))
                .then_with(|| a.line.cmp(&b.line))
                .then_with(|| a.rule.cmp(b.rule))
        });
        let waived = violations.iter().filter(|v| v.waived).count() as u64;
        let errors = violations.len() as u64 - waived;
        SrclintReport {
            version: SCHEMA_VERSION,
            files,
            errors,
            waived,
            violations,
        }
    }

    /// Whether the run found no unwaived violations.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.errors == 0
    }
}

// ---------------------------------------------------------------------
// Per-file analysis.
// ---------------------------------------------------------------------

struct Waiver {
    rule: String,
    reason: String,
    line: u32,
    used: bool,
}

struct FileAnalysis {
    path: String,
    tokens: Vec<Token>,
    comments: Vec<Comment>,
    /// Token mask: true = inside a `#[cfg(test)]` / `#[test]` item.
    skip: Vec<bool>,
    waivers: Vec<Waiver>,
}

fn analyze(path: &str, src: &str) -> FileAnalysis {
    let (tokens, comments) = lex(src);
    let skip = test_skip_mask(&tokens);
    // Line ranges covered by skipped tokens, so waivers inside test
    // code are ignored too.
    let mut skipped_lines: Vec<(u32, u32)> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if skip[i] {
            let start = tokens[i].line;
            let mut j = i;
            while j + 1 < tokens.len() && skip[j + 1] {
                j += 1;
            }
            skipped_lines.push((start, tokens[j].line));
            i = j + 1;
        } else {
            i += 1;
        }
    }
    let in_test = |line: u32| skipped_lines.iter().any(|&(a, b)| line >= a && line <= b);

    let mut waivers = Vec::new();
    for c in &comments {
        if in_test(c.line) {
            continue;
        }
        // Anchored to the start of the comment so prose that merely
        // *mentions* the marker (like this crate's docs) is not one.
        let text = c.text.trim_start_matches(['/', '!', '*']).trim_start();
        if let Some(rest) = text.strip_prefix("audit-waive:") {
            let rest = rest.trim();
            let (rule, reason) = match rest.split_once(char::is_whitespace) {
                Some((r, why)) => (r.to_string(), why.trim().to_string()),
                None => (rest.to_string(), String::new()),
            };
            waivers.push(Waiver {
                rule,
                reason,
                line: c.line,
                used: false,
            });
        }
    }
    FileAnalysis {
        path: path.to_string(),
        tokens,
        comments,
        skip,
        waivers,
    }
}

/// Marks tokens belonging to `#[cfg(test)]`- or `#[test]`-gated items.
fn test_skip_mask(tokens: &[Token]) -> Vec<bool> {
    let mut skip = vec![false; tokens.len()];
    let is_punct = |t: &Token, c: char| t.tok == Tok::Punct(c);
    let mut i = 0usize;
    while i < tokens.len() {
        if is_punct(&tokens[i], '#') && tokens.get(i + 1).is_some_and(|t| is_punct(t, '[')) {
            let Some(attr_end) = match_group(tokens, i + 1, '[', ']') else {
                break;
            };
            let idents: Vec<&str> = tokens[i..=attr_end]
                .iter()
                .filter_map(|t| match &t.tok {
                    Tok::Ident(s) => Some(s.as_str()),
                    _ => None,
                })
                .collect();
            let gated = (idents.contains(&"cfg") && idents.contains(&"test")) || idents == ["test"];
            if !gated {
                i = attr_end + 1;
                continue;
            }
            // Consume any further attributes, then the gated item: up
            // to a top-level `;` or through the first brace group.
            let mut j = attr_end + 1;
            while j + 1 < tokens.len() && is_punct(&tokens[j], '#') && is_punct(&tokens[j + 1], '[')
            {
                match match_group(tokens, j + 1, '[', ']') {
                    Some(e) => j = e + 1,
                    None => break,
                }
            }
            let mut end = j;
            while end < tokens.len() {
                if is_punct(&tokens[end], ';') {
                    break;
                }
                if is_punct(&tokens[end], '{') {
                    end = match_group(tokens, end, '{', '}').unwrap_or(tokens.len() - 1);
                    break;
                }
                end += 1;
            }
            let end = end.min(tokens.len() - 1);
            for s in &mut skip[i..=end] {
                *s = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    skip
}

/// Index of the token closing the group opened at `open` (`tokens[open]`
/// must be the opening delimiter).
fn match_group(tokens: &[Token], open: usize, open_c: char, close_c: char) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.tok == Tok::Punct(open_c) {
            depth += 1;
        } else if t.tok == Tok::Punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// Atomic-operation extraction (S007/S008).
// ---------------------------------------------------------------------

const ATOMIC_LOADS: &[&str] = &["load"];
const ATOMIC_STORES: &[&str] = &["store"];
const ATOMIC_RMWS: &[&str] = &[
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
];

#[derive(Debug)]
struct AtomicOp {
    field: String,
    method: String,
    orderings: Vec<String>,
    line: u32,
    file: String,
}

/// Extracts `<expr>.<atomic_method>(...)` call sites with the atomic
/// field name (last plain identifier in the receiver chain, skipping
/// tuple indices and bracket groups) and every `Ordering` variant named
/// in the argument list.
fn atomic_ops(fa: &FileAnalysis) -> Vec<AtomicOp> {
    let tokens = &fa.tokens;
    let mut ops = Vec::new();
    for i in 0..tokens.len() {
        if fa.skip[i] {
            continue;
        }
        let Tok::Ident(method) = &tokens[i].tok else {
            continue;
        };
        let method = method.as_str();
        if !(ATOMIC_LOADS.contains(&method)
            || ATOMIC_STORES.contains(&method)
            || ATOMIC_RMWS.contains(&method))
        {
            continue;
        }
        // Must be a method call: preceded by `.`, followed by `(`.
        if i == 0
            || tokens[i - 1].tok != Tok::Punct('.')
            || tokens.get(i + 1).map(|t| &t.tok) != Some(&Tok::Punct('('))
        {
            continue;
        }
        let Some(field) = receiver_field(tokens, i - 1) else {
            continue;
        };
        let Some(close) = match_group(tokens, i + 1, '(', ')') else {
            continue;
        };
        let orderings: Vec<String> = tokens[i + 2..close]
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(s)
                    if matches!(
                        s.as_str(),
                        "Relaxed" | "Acquire" | "Release" | "AcqRel" | "SeqCst"
                    ) =>
                {
                    Some(s.clone())
                }
                _ => None,
            })
            .collect();
        if orderings.is_empty() {
            // Not an atomic call after all (e.g. `Vec::swap`, a trait
            // `load` without an Ordering argument).
            continue;
        }
        ops.push(AtomicOp {
            field,
            method: method.to_string(),
            orderings,
            line: tokens[i].line,
            file: fa.path.clone(),
        });
    }
    ops
}

/// Walks backwards from the `.` before an atomic method to the plain
/// identifier naming the field: skips tuple indices (`.0`) and balanced
/// `[...]` / `(...)` groups.
fn receiver_field(tokens: &[Token], dot: usize) -> Option<String> {
    let mut k = dot; // tokens[k] is the `.`
    loop {
        if k == 0 {
            return None;
        }
        k -= 1;
        match &tokens[k].tok {
            Tok::Ident(name) => return Some(name.clone()),
            Tok::Int(_) => {
                // tuple index: expect a `.` before it
                if k == 0 || tokens[k - 1].tok != Tok::Punct('.') {
                    return None;
                }
                k -= 1; // now at the `.`, loop continues backwards
            }
            Tok::Punct(']') => k = rmatch_group(tokens, k, '[', ']')?,
            Tok::Punct(')') => k = rmatch_group(tokens, k, '(', ')')?,
            _ => return None,
        }
    }
}

/// Index of the token opening the group closed at `close`.
fn rmatch_group(tokens: &[Token], close: usize, open_c: char, close_c: char) -> Option<usize> {
    let mut depth = 0usize;
    for k in (0..=close).rev() {
        if tokens[k].tok == Tok::Punct(close_c) {
            depth += 1;
        } else if tokens[k].tok == Tok::Punct(open_c) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// The rules.
// ---------------------------------------------------------------------

fn violation(rule: &'static str, fa: &FileAnalysis, line: u32, message: String) -> SrcViolation {
    SrcViolation {
        rule,
        file: fa.path.clone(),
        line,
        message,
        waived: false,
        waive_reason: None,
    }
}

/// Rules decidable from one file alone (everything but S007).
fn per_file_rules(fa: &FileAnalysis, m: &Manifest) -> Vec<SrcViolation> {
    let mut out = Vec::new();
    let path = fa.path.as_str();
    let hash_scope = under(path, &m.hash_deny);
    let clock_denied = !under(path, &m.clock_allow);
    let no_unsafe = under(path, &m.no_unsafe);
    let float_denied = under(path, &m.float_deny);
    let slab_only = under(path, &m.slab_only);

    for (i, t) in fa.tokens.iter().enumerate() {
        if fa.skip[i] {
            continue;
        }
        match &t.tok {
            Tok::Ident(id) => match id.as_str() {
                "HashMap" | "HashSet" if hash_scope => out.push(violation(
                    "S001",
                    fa,
                    t.line,
                    format!(
                        "{id} in a result-affecting crate: iteration order is \
                         nondeterministic; use BTreeMap/BTreeSet or an explicitly \
                         sorted collection"
                    ),
                )),
                "Instant" | "SystemTime" if clock_denied => out.push(violation(
                    "S002",
                    fa,
                    t.line,
                    format!(
                        "{id} outside the timing-allowed modules: wall-clock reads \
                         make runs irreproducible; charge simulated cycles instead"
                    ),
                )),
                "thread" if clock_denied && ident_seq(fa, i, &["thread", "current"]) => {
                    out.push(violation(
                        "S002",
                        fa,
                        t.line,
                        "thread::current() outside the timing-allowed modules: thread \
                         identity is schedule-dependent"
                            .to_string(),
                    ));
                }
                "unsafe" => {
                    if no_unsafe {
                        out.push(violation(
                            "S004",
                            fa,
                            t.line,
                            "unsafe in a zero-unsafe crate: the pipeline's lock-free \
                             structures are safe by design (atomic slot words); keep \
                             them that way"
                                .to_string(),
                        ));
                    } else if !has_safety_comment(fa, t.line) {
                        out.push(violation(
                            "S003",
                            fa,
                            t.line,
                            "unsafe without a `// SAFETY:` comment within the 3 lines \
                             above: every unsafe block must state its proof obligation"
                                .to_string(),
                        ));
                    }
                }
                "f32" => {
                    if float_denied {
                        out.push(violation(
                            "S005",
                            fa,
                            t.line,
                            "f32 in an integer-only counter/cycle module".to_string(),
                        ));
                    } else {
                        out.push(violation(
                            "S006",
                            fa,
                            t.line,
                            "f32 is banned workspace-wide: accumulated single-precision \
                             rounding is platform/codegen-sensitive; use f64 or integers"
                                .to_string(),
                        ));
                    }
                }
                "Vec" if slab_only => {
                    if let Some(inner) = per_set_element(fa, i) {
                        out.push(violation(
                            "S009",
                            fa,
                            t.line,
                            format!(
                                "Vec<{inner}..> in a set-associative structure: one heap \
                                 block per set costs a pointer chase per access; keep the \
                                 state in one set-major slab indexed `set * ways + way`"
                            ),
                        ));
                    }
                }
                "f64" if float_denied => out.push(violation(
                    "S005",
                    fa,
                    t.line,
                    "f64 in an integer-only counter/cycle module: cycle accounting \
                     must be exact integer arithmetic"
                        .to_string(),
                )),
                _ => {}
            },
            Tok::Float(text) if float_denied => out.push(violation(
                "S005",
                fa,
                t.line,
                format!("float literal {text} in an integer-only counter/cycle module"),
            )),
            _ => {}
        }
    }

    // S008: Relaxed on protected publication fields.
    if under(path, &m.atomics_scope) {
        for op in atomic_ops(fa) {
            if m.relaxed_deny.contains(&op.field) && op.orderings.iter().any(|o| o == "Relaxed") {
                out.push(violation(
                    "S008",
                    fa,
                    op.line,
                    format!(
                        "Ordering::Relaxed on publication field `{}` (.{}): slot \
                         visibility rides this edge; use Release/Acquire",
                        op.field, op.method
                    ),
                ));
            }
        }
    }
    out
}

/// S007 over an atomics scope (one fixture file, or the union of every
/// manifest-scoped file in a workspace run): each field that is ever
/// `Release`-stored must be `Acquire`-loaded somewhere in the scope.
fn pairing_rule(analyses: &[&FileAnalysis]) -> Vec<SrcViolation> {
    let ops: Vec<Vec<AtomicOp>> = analyses.iter().map(|fa| atomic_ops(fa)).collect();
    let mut release_stores: Vec<&AtomicOp> = Vec::new();
    let mut acquire_loaded: Vec<String> = Vec::new();
    for op in ops.iter().flatten() {
        let releases = op
            .orderings
            .iter()
            .any(|o| matches!(o.as_str(), "Release" | "AcqRel" | "SeqCst"));
        let acquires = op
            .orderings
            .iter()
            .any(|o| matches!(o.as_str(), "Acquire" | "AcqRel" | "SeqCst"));
        let is_store = ATOMIC_STORES.contains(&op.method.as_str());
        let is_load = ATOMIC_LOADS.contains(&op.method.as_str());
        let is_rmw = ATOMIC_RMWS.contains(&op.method.as_str());
        if releases && (is_store || is_rmw) {
            release_stores.push(op);
        }
        if acquires && (is_load || is_rmw) {
            acquire_loaded.push(op.field.clone());
        }
    }
    release_stores
        .into_iter()
        .filter(|op| !acquire_loaded.contains(&op.field))
        .map(|op| SrcViolation {
            rule: "S007",
            file: op.file.clone(),
            line: op.line,
            message: format!(
                "field `{}` is Release-stored but never Acquire-loaded in the \
                 atomics scope: the release edge synchronizes with nothing",
                op.field
            ),
            waived: false,
            waive_reason: None,
        })
        .collect()
}

/// Whether tokens at `i` start the identifier sequence `seq` joined by
/// `::` (e.g. `thread :: current`).
fn ident_seq(fa: &FileAnalysis, i: usize, seq: &[&str]) -> bool {
    let mut k = i;
    for (n, want) in seq.iter().enumerate() {
        match fa.tokens.get(k).map(|t| &t.tok) {
            Some(Tok::Ident(s)) if s == want => {}
            _ => return false,
        }
        if n + 1 < seq.len() {
            if fa.tokens.get(k + 1).map(|t| &t.tok) != Some(&Tok::Punct(':'))
                || fa.tokens.get(k + 2).map(|t| &t.tok) != Some(&Tok::Punct(':'))
            {
                return false;
            }
            k += 3;
        }
    }
    true
}

/// For a `Vec` at token `i`, the element type's name when it is a
/// per-set heap container: another `Vec`, a `VecDeque`, a `Box`, or a
/// `Set*` per-set record (like the replacement enum the slabs replaced).
/// Path prefixes (`std::collections::`) are skipped.
fn per_set_element(fa: &FileAnalysis, i: usize) -> Option<&str> {
    let tok = |k: usize| fa.tokens.get(k).map(|t| &t.tok);
    if tok(i + 1) != Some(&Tok::Punct('<')) {
        return None;
    }
    let mut k = i + 2;
    while matches!(tok(k), Some(Tok::Ident(_)))
        && tok(k + 1) == Some(&Tok::Punct(':'))
        && tok(k + 2) == Some(&Tok::Punct(':'))
    {
        k += 3;
    }
    match tok(k) {
        Some(Tok::Ident(name))
            if matches!(name.as_str(), "Vec" | "VecDeque" | "Box") || name.starts_with("Set") =>
        {
            Some(name.as_str())
        }
        _ => None,
    }
}

/// Whether a `// SAFETY:` comment sits on `line` or within 3 lines
/// above it.
fn has_safety_comment(fa: &FileAnalysis, line: u32) -> bool {
    fa.comments
        .iter()
        .any(|c| c.line <= line && line - c.line <= 3 && c.text.contains("SAFETY:"))
}

// ---------------------------------------------------------------------
// Waiver resolution.
// ---------------------------------------------------------------------

fn apply_waivers(fa: &mut FileAnalysis, violations: &mut Vec<SrcViolation>) {
    // Reasonless waivers are findings themselves and suppress nothing.
    for w in &fa.waivers {
        if w.reason.is_empty() {
            violations.push(SrcViolation {
                rule: "S000",
                file: fa.path.clone(),
                line: w.line,
                message: format!(
                    "audit-waive for {} has no reason: waivers must say why the \
                     exception is sound",
                    w.rule
                ),
                waived: false,
                waive_reason: None,
            });
        }
    }
    for v in violations.iter_mut() {
        if v.file != fa.path || v.rule == "S000" {
            continue;
        }
        if let Some(w) = fa.waivers.iter_mut().find(|w| {
            !w.reason.is_empty() && w.rule == v.rule && (w.line == v.line || w.line + 1 == v.line)
        }) {
            w.used = true;
            v.waived = true;
            v.waive_reason = Some(w.reason.clone());
        }
    }
    for w in &fa.waivers {
        if !w.used && !w.reason.is_empty() {
            violations.push(SrcViolation {
                rule: "S000",
                file: fa.path.clone(),
                line: w.line,
                message: format!(
                    "stale audit-waive: no {} finding on this or the next line; \
                     delete the marker",
                    w.rule
                ),
                waived: false,
                waive_reason: None,
            });
        }
    }
}

// ---------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------

/// Lints a single source text under its (virtual) workspace-relative
/// path. The file is its own atomics scope. This is the fixture entry
/// point; [`lint_workspace`] is the real one.
#[must_use]
pub fn lint_source(path: &str, src: &str) -> Vec<SrcViolation> {
    let m = Manifest::builtin();
    let mut fa = analyze(path, src);
    let mut violations = per_file_rules(&fa, m);
    if under(path, &m.atomics_scope) {
        violations.extend(pairing_rule(&[&fa]));
    }
    apply_waivers(&mut fa, &mut violations);
    violations
}

/// Walks every `crates/*/src/**/*.rs` under `root` and lints it.
pub fn lint_workspace(root: &Path) -> Result<SrclintReport, String> {
    let m = Manifest::builtin();
    let mut files: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        collect_rs(&dir.join("src"), &mut files);
    }
    files.sort();

    let mut analyses: Vec<FileAnalysis> = Vec::new();
    for f in &files {
        let src =
            std::fs::read_to_string(f).map_err(|e| format!("cannot read {}: {e}", f.display()))?;
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        analyses.push(analyze(&rel, &src));
    }

    let mut violations = Vec::new();
    for fa in &analyses {
        violations.extend(per_file_rules(fa, m));
    }
    let scoped: Vec<&FileAnalysis> = analyses
        .iter()
        .filter(|fa| under(&fa.path, &m.atomics_scope))
        .collect();
    violations.extend(pairing_rule(&scoped));
    for fa in &mut analyses {
        apply_waivers(fa, &mut violations);
    }
    Ok(SrclintReport::new(files.len() as u64, violations))
}

/// Lints every embedded negative fixture under its virtual path and
/// merges the findings into one report (`csalt-audit srclint --broken`).
/// Non-clean by construction: the fixtures exist to trip rules.
#[must_use]
pub fn lint_fixtures() -> SrclintReport {
    let mut violations = Vec::new();
    for fx in crate::fixtures::FIXTURES {
        let parsed = crate::fixtures::parse(fx);
        violations.extend(lint_source(&parsed.path, parsed.body));
    }
    SrclintReport::new(crate::fixtures::FIXTURES.len() as u64, violations)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Finds the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Result<PathBuf, String> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Ok(dir);
                }
            }
        }
        if !dir.pop() {
            return Err(format!(
                "no workspace Cargo.toml found above {}",
                start.display()
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(path: &str, src: &str) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = lint_source(path, src)
            .into_iter()
            .filter(|v| !v.waived)
            .map(|v| v.rule)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn manifest_parses_and_is_nonempty() {
        let m = Manifest::builtin();
        assert!(m.hash_deny.iter().any(|p| p == "crates/sim"));
        assert!(m.relaxed_deny.contains(&"tail".to_string()));
        assert!(Manifest::parse("bogus-directive x").is_err());
    }

    #[test]
    fn hash_collections_flagged_only_in_scope() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(codes("crates/sim/src/x.rs", src), vec!["S001"]);
        assert_eq!(codes("crates/telemetry/src/x.rs", src), Vec::<&str>::new());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n  use std::collections::HashMap;\n  #[test]\n  fn t() { let _ = std::time::Instant::now(); }\n}\n";
        assert_eq!(codes("crates/core/src/x.rs", src), Vec::<&str>::new());
    }

    #[test]
    fn clock_reads_flagged_outside_allowed_modules() {
        let src = "fn f() { let _t = std::time::Instant::now(); }\n";
        assert_eq!(codes("crates/core/src/x.rs", src), vec!["S002"]);
        assert_eq!(codes("crates/sim/src/sweep.rs", src), Vec::<&str>::new());
        let tid = "fn f() { let _ = std::thread::current().id(); }\n";
        assert_eq!(codes("crates/ptw/src/x.rs", tid), vec!["S002"]);
    }

    #[test]
    fn unsafe_needs_safety_comment_and_pipeline_denies_it() {
        let bare = "fn f() { unsafe { core(); } }\n";
        let with = "fn f() {\n  // SAFETY: proven elsewhere\n  unsafe { core(); }\n}\n";
        assert_eq!(codes("crates/cache/src/x.rs", bare), vec!["S003"]);
        assert_eq!(codes("crates/cache/src/x.rs", with), Vec::<&str>::new());
        assert_eq!(codes("crates/pipeline/src/x.rs", with), vec!["S004"]);
    }

    #[test]
    fn floats_flagged_in_counter_modules() {
        let src = "fn f() -> f64 { 1.5 }\n";
        assert_eq!(codes("crates/pipeline/src/budget.rs", src), vec!["S005"]);
        assert_eq!(
            codes("crates/core/src/hierarchy.rs", src),
            Vec::<&str>::new()
        );
        assert_eq!(
            codes("crates/core/src/x.rs", "fn g(x: f32) {}\n"),
            vec!["S006"]
        );
    }

    #[test]
    fn release_without_acquire_and_relaxed_publication() {
        let no_acq = "fn f(a: &AtomicUsize) { a.store(1, Ordering::Release); }\n";
        // receiver ident is `a`, not a denied field; rename to tail to
        // also check S008 separation.
        let v = lint_source("crates/pipeline/src/spsc.rs", no_acq);
        assert!(v.iter().any(|v| v.rule == "S007"), "{v:?}");
        let relaxed = "fn f(s: &S) { s.tail.store(1, Ordering::Relaxed); let _ = s.tail.load(Ordering::Acquire); }\n";
        assert_eq!(codes("crates/pipeline/src/spsc.rs", relaxed), vec!["S008"]);
        let paired = "fn f(s: &S) { s.tail.store(1, Ordering::Release); let _ = s.tail.load(Ordering::Acquire); }\n";
        assert_eq!(
            codes("crates/pipeline/src/spsc.rs", paired),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn receiver_field_skips_indices_and_tuples() {
        let src = "fn f(s: &S, i: usize) { s.shared.buf[i * 2].store(0, Ordering::Relaxed); s.h.tail.0.store(1, Ordering::Relaxed); }\n";
        let v = lint_source("crates/pipeline/src/spsc.rs", src);
        // buf is not denied; tail is.
        let s008: Vec<_> = v.iter().filter(|v| v.rule == "S008").collect();
        assert_eq!(s008.len(), 1, "{v:?}");
        assert!(s008[0].message.contains("`tail`"));
    }

    #[test]
    fn per_set_containers_flagged_only_in_slab_scope() {
        let nested = "struct P { shadow: [Vec<Vec<u64>>; 2] }\n";
        assert_eq!(codes("crates/profiler/src/x.rs", nested), vec!["S009"]);
        assert_eq!(codes("crates/sim/src/x.rs", nested), Vec::<&str>::new());
        let records = "struct C { repl: Vec<SetReplacement> }\n";
        assert_eq!(codes("crates/cache/src/x.rs", records), vec!["S009"]);
        let pathed = "struct M { s: Vec<std::collections::VecDeque<u64>> }\n";
        assert_eq!(codes("crates/tlb/src/x.rs", pathed), vec!["S009"]);
        let flat = "struct F { stamps: Vec<u64>, kinds: Vec<EntryKind>, sets: Vec<u32> }\n";
        assert_eq!(codes("crates/cache/src/x.rs", flat), Vec::<&str>::new());
    }

    #[test]
    fn waivers_suppress_with_reason_and_are_findings_without() {
        let good = "// audit-waive: S001 lookup-only map, never iterated\nuse std::collections::HashMap;\n";
        let v = lint_source("crates/sim/src/x.rs", good);
        assert!(v.iter().all(|v| v.waived), "{v:?}");
        assert_eq!(v.len(), 1);

        let bad = "// audit-waive: S001\nuse std::collections::HashMap;\n";
        let c = codes("crates/sim/src/x.rs", bad);
        assert_eq!(c, vec!["S000", "S001"]);

        let stale = "// audit-waive: S002 nothing here needs it\nfn f() {}\n";
        assert_eq!(codes("crates/sim/src/x.rs", stale), vec!["S000"]);
    }

    #[test]
    fn srclint_rule_codes_are_unique() {
        let mut codes: Vec<&str> = srclint_rules().iter().map(|r| r.code).collect();
        let n = codes.len();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), n);
    }
}
