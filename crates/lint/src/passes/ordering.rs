//! Pass 2 — memory-ordering gate and pairing-graph resolution.
//!
//! Re-derives the paper's §4.3 fence placement mechanically, in two phases:
//!
//! 1. **Collection** ([`run`], per file): every `Ordering::*` call site in a
//!    rule-scoped file is classified by protocol role via `ordering.rules`
//!    and recorded as an [`OrderingSite`]. `Relaxed` at a gated role
//!    (`publish`, `cas`, `retire_load`) must carry a *structured*
//!    `// ORDERING:` annotation:
//!
//!    ```text
//!    // ORDERING: pairs = <path-suffix>:<fn> — free prose after the head.
//!    // ORDERING: reason = exclusive|quiescent|owned-store — prose.
//!    ```
//!
//!    Free-text justifications, unknown reasons, and unclassified sites are
//!    errors. Code inside `#[cfg(test)]` modules or `#[test]` functions is
//!    auto-exempt (no per-test rows in `ordering.rules` needed).
//!
//! 2. **Resolution** ([`resolve`], whole tree): each `pairs` reference is
//!    resolved against the collected site table. Dangling references,
//!    references to `exempt`/`counter` sites, and role-incompatible pairs
//!    (the cited function provides only `Relaxed` sites — no
//!    Acquire/Release/SeqCst ordering or fence to pair with) are errors.
//!
//! The resolved table is also the data model for the committed protocol
//! graph ([`graph_json`] / [`graph_dot`]) that DESIGN.md embeds.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{enclosing_fn, in_spans, FnSpan, LexFile};
use crate::rules::{Role, RuleSet};
use crate::{json_escape, Diagnostic, PASS_ORDERING};

/// Structural reason a gated `Relaxed` needs no pairing fence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Reason {
    /// Single-owner access: `&mut self`, single-writer cell, teardown.
    Exclusive,
    /// All racing threads are provably quiescent (e.g. collection under a
    /// lock that revalidates with its own fence).
    Quiescent,
    /// Store to memory not yet published to any other thread.
    OwnedStore,
}

impl Reason {
    fn parse(s: &str) -> Option<Reason> {
        Some(match s {
            "exclusive" => Reason::Exclusive,
            "quiescent" => Reason::Quiescent,
            "owned-store" => Reason::OwnedStore,
            _ => return None,
        })
    }

    /// The grammar keyword for this reason.
    pub fn name(self) -> &'static str {
        match self {
            Reason::Exclusive => "exclusive",
            Reason::Quiescent => "quiescent",
            Reason::OwnedStore => "owned-store",
        }
    }
}

/// Parsed head of a structured `// ORDERING:` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Annotation {
    /// `pairs = <path-suffix>:<fn>` — names the site holding the pairing
    /// fence / release edge.
    Pairs {
        /// Path suffix of the file holding the cited site (same matching
        /// semantics as `ordering.rules`).
        path_suffix: String,
        /// Function name of the cited site.
        target_fn: String,
    },
    /// `reason = …` — structural justification; no pairing site exists.
    Reason(Reason),
}

/// One classified ordering site: an `Ordering::*` token (or a call to the
/// `counted_fence` SeqCst helper, recorded as a fence site) in a rule-scoped
/// file, outside test code.
#[derive(Debug, Clone)]
pub struct OrderingSite {
    /// Normalized (forward-slash) path the site was linted under.
    pub file: String,
    /// Enclosing function, `None` for statics/consts.
    pub fn_name: Option<String>,
    /// `"Relaxed"`, `"Acquire"`, `"SeqCst"`, … or `"counted_fence"` for a
    /// call to the counted SeqCst-fence helper.
    pub ordering: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
    /// Protocol role from the first matching `ordering.rules` rule.
    pub role: Role,
    /// Parsed annotation — populated only for gated `Relaxed` sites whose
    /// annotation parsed cleanly.
    pub annotation: Option<Annotation>,
}

/// Phase 1: collects and gate-checks one file's ordering sites.
pub fn run(
    file: &str,
    f: &LexFile,
    spans: &[FnSpan],
    tspans: &[(usize, usize)],
    rules: &RuleSet,
    sites: &mut Vec<OrderingSite>,
    out: &mut Vec<Diagnostic>,
) {
    if !rules.in_scope(file) {
        return;
    }
    for i in 0..f.code.len() {
        // `counted_fence(...)` calls are fence sites pairable by `pairs =`
        // references even though no `Ordering::` token appears at the call.
        if f.is_ident(i, "counted_fence") && f.is_punct(i + 1, '(') && !in_spans(tspans, i) {
            let fn_name = enclosing_fn(spans, i).map(|s| s.name.clone());
            if let Some(rule) = rules.classify(file, fn_name.as_deref()) {
                sites.push(OrderingSite {
                    file: file.to_string(),
                    fn_name,
                    ordering: "counted_fence".to_string(),
                    line: f.line_of(i),
                    col: f.col_of(i),
                    role: rule.role,
                    annotation: None,
                });
            }
            continue;
        }
        if !(f.is_ident(i, "Ordering") && f.is_punct(i + 1, ':') && f.is_punct(i + 2, ':')) {
            continue;
        }
        let name = match f.tok(i + 3) {
            Some(crate::lexer::Tok::Ident(id)) => id.clone(),
            _ => continue,
        };
        // Auto-exemption: `#[cfg(test)]` modules and `#[test]` functions are
        // out of protocol scope — no rule rows, no diagnostics, no sites.
        if in_spans(tspans, i) {
            continue;
        }
        let fn_name = enclosing_fn(spans, i).map(|s| s.name.clone());
        let rule = match rules.classify(file, fn_name.as_deref()) {
            Some(r) => r,
            None => {
                out.push(Diagnostic {
                    file: file.to_string(),
                    line: f.line_of(i),
                    col: f.col_of(i),
                    pass: PASS_ORDERING,
                    msg: format!(
                        "unclassified Ordering::{name} site in `{}` — add a \
                         (path, fn, role) rule to crates/lint/ordering.rules",
                        fn_name.as_deref().unwrap_or("<no fn>"),
                    ),
                });
                continue;
            }
        };
        let mut annotation = None;
        if name == "Relaxed" && rule.role.gates_relaxed() {
            let just = f.attached_comment(i) + &f.trailing_comment(i);
            match parse_annotation(&just) {
                Ok(a) => annotation = Some(a),
                Err(why) => out.push(Diagnostic {
                    file: file.to_string(),
                    line: f.line_of(i),
                    col: f.col_of(i),
                    pass: PASS_ORDERING,
                    msg: format!(
                        "Ordering::Relaxed at a {} site (rule {}:{}) — {why}",
                        rule.role.name(),
                        rule.path_suffix,
                        rule.line,
                    ),
                }),
            }
        }
        sites.push(OrderingSite {
            file: file.to_string(),
            fn_name,
            ordering: name,
            line: f.line_of(i),
            col: f.col_of(i),
            role: rule.role,
            annotation,
        });
    }
}

const GRAMMAR_HINT: &str = "use `// ORDERING: pairs = <path-suffix>:<fn>` or \
     `// ORDERING: reason = exclusive|quiescent|owned-store`";

/// Parses the structured head of an `// ORDERING:` annotation out of the
/// comment text attached to a site. Free prose is allowed after the head.
fn parse_annotation(comment: &str) -> Result<Annotation, String> {
    let pos = match comment.find("ORDERING:") {
        Some(p) => p,
        None => {
            return Err(format!(
                "strengthen the ordering or attach a structured annotation: {GRAMMAR_HINT}"
            ))
        }
    };
    let tail = comment[pos + "ORDERING:".len()..].trim_start();
    let (key, rest) = split_word(tail);
    match key {
        "pairs" => {
            let rest = expect_eq(rest, "pairs")?;
            let (val, _) = split_word(rest);
            let val = val.trim_end_matches(['.', ',', ';']);
            let (suffix, target_fn) = match val.rsplit_once(':') {
                Some((s, f)) if !s.is_empty() && is_ident(f) => (s, f),
                _ => {
                    return Err(format!(
                        "malformed `pairs` value `{val}` — expected `<path-suffix>:<fn>` \
                         (e.g. `pairs = schemes/mp.rs:announce_margin`)"
                    ))
                }
            };
            Ok(Annotation::Pairs {
                path_suffix: suffix.to_string(),
                target_fn: target_fn.to_string(),
            })
        }
        "reason" => {
            let rest = expect_eq(rest, "reason")?;
            let (val, _) = split_word(rest);
            let val = val.trim_end_matches(['.', ',', ';']);
            Reason::parse(val).map(Annotation::Reason).ok_or_else(|| {
                format!("unknown reason `{val}` — expected exclusive|quiescent|owned-store")
            })
        }
        other => Err(format!(
            "free-text `// ORDERING:` annotation (starts `{other}`) is no longer accepted — \
             {GRAMMAR_HINT}"
        )),
    }
}

/// Splits off the first whitespace-delimited word.
fn split_word(s: &str) -> (&str, &str) {
    let s = s.trim_start();
    match s.find(char::is_whitespace) {
        Some(p) => (&s[..p], &s[p..]),
        None => (s, ""),
    }
}

fn expect_eq<'a>(s: &'a str, key: &str) -> Result<&'a str, String> {
    let s = s.trim_start();
    s.strip_prefix('=')
        .ok_or_else(|| format!("`{key}` must be followed by `=` in the annotation head"))
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Phase 2: resolves every `pairs` reference against the whole-tree site
/// table. Call once per lint run, after all files are collected.
pub fn resolve(sites: &[OrderingSite], out: &mut Vec<Diagnostic>) {
    for s in sites {
        let (suffix, target_fn) = match &s.annotation {
            Some(Annotation::Pairs { path_suffix, target_fn }) => (path_suffix, target_fn),
            _ => continue,
        };
        let label = format!("{suffix}:{target_fn}");
        let targets: Vec<&OrderingSite> = sites
            .iter()
            .filter(|t| {
                t.file.ends_with(suffix.as_str()) && t.fn_name.as_deref() == Some(target_fn)
            })
            .collect();
        if targets.is_empty() {
            out.push(Diagnostic {
                file: s.file.clone(),
                line: s.line,
                col: s.col,
                pass: PASS_ORDERING,
                msg: format!(
                    "dangling `pairs = {label}` reference — no classified Ordering/fence \
                     site matches (check the path suffix, the fn name, and that the target \
                     is covered by crates/lint/ordering.rules)"
                ),
            });
            continue;
        }
        if targets.iter().all(|t| matches!(t.role, Role::Exempt | Role::Counter)) {
            out.push(Diagnostic {
                file: s.file.clone(),
                line: s.line,
                col: s.col,
                pass: PASS_ORDERING,
                msg: format!(
                    "`pairs = {label}` cites a site classified `{}` — exempt/counter sites \
                     are outside the fence-placement argument and cannot justify a gated \
                     Relaxed",
                    targets[0].role.name(),
                ),
            });
            continue;
        }
        if !targets.iter().any(|t| t.ordering != "Relaxed") {
            out.push(Diagnostic {
                file: s.file.clone(),
                line: s.line,
                col: s.col,
                pass: PASS_ORDERING,
                msg: format!(
                    "role-incompatible pair: `pairs = {label}` cites only Relaxed sites — \
                     the cited fn provides no Acquire/Release/SeqCst ordering or fence to \
                     pair with"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Protocol-graph emission (committed JSON/DOT artifact)
// ---------------------------------------------------------------------------

/// Aggregated node of the protocol graph: one (file, fn) bucket.
struct GraphNode<'a> {
    role: Role,
    orderings: BTreeSet<&'a str>,
    sites: usize,
}

type NodeKey<'a> = (&'a str, &'a str); // (file, fn)

/// Edge of the protocol graph, from a gated-Relaxed bucket.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum GraphEdge<'a> {
    Pairs { from: NodeKey<'a>, to: NodeKey<'a>, reference: String },
    Reason { from: NodeKey<'a>, reason: Reason },
}

fn build_graph<'a>(
    sites: &'a [OrderingSite],
) -> (BTreeMap<NodeKey<'a>, GraphNode<'a>>, BTreeSet<GraphEdge<'a>>) {
    let mut edges = BTreeSet::new();
    let mut keep: BTreeSet<NodeKey<'a>> = BTreeSet::new();
    for s in sites {
        let from = (s.file.as_str(), s.fn_name.as_deref().unwrap_or("<static>"));
        match &s.annotation {
            Some(Annotation::Pairs { path_suffix, target_fn }) => {
                keep.insert(from);
                for t in sites.iter().filter(|t| {
                    t.file.ends_with(path_suffix.as_str())
                        && t.fn_name.as_deref() == Some(target_fn)
                }) {
                    let to = (t.file.as_str(), t.fn_name.as_deref().unwrap_or("<static>"));
                    keep.insert(to);
                    edges.insert(GraphEdge::Pairs {
                        from,
                        to,
                        reference: format!("{path_suffix}:{target_fn}"),
                    });
                }
            }
            Some(Annotation::Reason(r)) => {
                keep.insert(from);
                edges.insert(GraphEdge::Reason { from, reason: *r });
            }
            None => {}
        }
    }
    let mut nodes: BTreeMap<NodeKey<'a>, GraphNode<'a>> = BTreeMap::new();
    for s in sites {
        let key = (s.file.as_str(), s.fn_name.as_deref().unwrap_or("<static>"));
        if !keep.contains(&key) {
            continue;
        }
        let n = nodes.entry(key).or_insert_with(|| GraphNode {
            role: s.role,
            orderings: BTreeSet::new(),
            sites: 0,
        });
        n.orderings.insert(s.ordering.as_str());
        n.sites += 1;
    }
    (nodes, edges)
}

/// Renders the protocol graph as deterministic JSON (schema
/// `mp-ordering-graph/v1`). Only buckets that carry a gated-Relaxed
/// annotation, or are cited by one, appear — this is the fence-placement
/// argument, not a census of every atomic. Line numbers are deliberately
/// omitted so the committed artifact does not churn on unrelated edits.
pub fn graph_json(sites: &[OrderingSite]) -> String {
    let (nodes, edges) = build_graph(sites);
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"mp-ordering-graph/v1\",\n  \"nodes\": [\n");
    let node_lines: Vec<String> = nodes
        .iter()
        .map(|((file, f), n)| {
            let ords: Vec<String> =
                n.orderings.iter().map(|o| format!("\"{}\"", json_escape(o))).collect();
            format!(
                "    {{\"id\": \"{}:{}\", \"file\": \"{}\", \"fn\": \"{}\", \"role\": \"{}\", \
                 \"orderings\": [{}], \"sites\": {}}}",
                json_escape(file),
                json_escape(f),
                json_escape(file),
                json_escape(f),
                n.role.name(),
                ords.join(", "),
                n.sites,
            )
        })
        .collect();
    s.push_str(&node_lines.join(",\n"));
    s.push_str("\n  ],\n  \"edges\": [\n");
    let edge_lines: Vec<String> = edges
        .iter()
        .map(|e| match e {
            GraphEdge::Pairs { from, to, reference } => format!(
                "    {{\"from\": \"{}:{}\", \"kind\": \"pairs\", \"to\": \"{}:{}\", \
                 \"reference\": \"{}\"}}",
                json_escape(from.0),
                json_escape(from.1),
                json_escape(to.0),
                json_escape(to.1),
                json_escape(reference),
            ),
            GraphEdge::Reason { from, reason } => format!(
                "    {{\"from\": \"{}:{}\", \"kind\": \"reason\", \"reason\": \"{}\"}}",
                json_escape(from.0),
                json_escape(from.1),
                reason.name(),
            ),
        })
        .collect();
    s.push_str(&edge_lines.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// Renders the protocol graph as Graphviz DOT (same node set as
/// [`graph_json`]; `reason` edges point at synthetic ellipse nodes).
pub fn graph_dot(sites: &[OrderingSite]) -> String {
    let (nodes, edges) = build_graph(sites);
    fn short(file: &str) -> &str {
        file.rsplit("/src/").next().unwrap_or(file)
    }
    let mut s = String::new();
    s.push_str("digraph ordering_pairings {\n  rankdir=LR;\n");
    s.push_str("  node [shape=box, fontsize=10, fontname=\"monospace\"];\n");
    for ((file, f), n) in &nodes {
        let color = match n.role {
            Role::Publish => "#1f77b4",
            Role::Cas => "#d62728",
            Role::RetireLoad => "#2ca02c",
            Role::Counter | Role::Exempt => "#7f7f7f",
        };
        let ords: Vec<&str> = n.orderings.iter().copied().collect();
        s.push_str(&format!(
            "  \"{file}:{f}\" [label=\"{}\\n{f} ({})\\n[{}]\", color=\"{color}\"];\n",
            short(file),
            n.role.name(),
            ords.join(", "),
        ));
    }
    let mut reasons: BTreeSet<Reason> = BTreeSet::new();
    for e in &edges {
        if let GraphEdge::Reason { reason, .. } = e {
            reasons.insert(*reason);
        }
    }
    for r in &reasons {
        s.push_str(&format!(
            "  \"reason:{}\" [shape=ellipse, style=dashed, label=\"{}\"];\n",
            r.name(),
            r.name(),
        ));
    }
    for e in &edges {
        match e {
            GraphEdge::Pairs { from, to, .. } => s.push_str(&format!(
                "  \"{}:{}\" -> \"{}:{}\" [label=\"pairs\"];\n",
                from.0, from.1, to.0, to.1
            )),
            GraphEdge::Reason { from, reason } => s.push_str(&format!(
                "  \"{}:{}\" -> \"reason:{}\" [style=dashed];\n",
                from.0, from.1,
                reason.name()
            )),
        }
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotation_grammar_parses_heads_and_allows_prose() {
        assert_eq!(
            parse_annotation("// ORDERING: pairs = schemes/mp.rs:announce_margin — prose."),
            Ok(Annotation::Pairs {
                path_suffix: "schemes/mp.rs".into(),
                target_fn: "announce_margin".into()
            })
        );
        assert_eq!(
            parse_annotation("// ORDERING: reason = exclusive — caller holds &mut."),
            Ok(Annotation::Reason(Reason::Exclusive))
        );
        // Trailing punctuation on the value is tolerated.
        assert_eq!(
            parse_annotation("// ORDERING: reason = quiescent."),
            Ok(Annotation::Reason(Reason::Quiescent))
        );
    }

    #[test]
    fn annotation_grammar_rejects_free_text_and_unknown_reasons() {
        assert!(parse_annotation("// no annotation at all").is_err());
        assert!(parse_annotation("// ORDERING: because the scan squints").is_err());
        assert!(parse_annotation("// ORDERING: reason = vibes").is_err());
        assert!(parse_annotation("// ORDERING: pairs = missing_colon").is_err());
        assert!(parse_annotation("// ORDERING: pairs schemes/mp.rs:f").is_err());
    }

    fn site(file: &str, fn_name: &str, ordering: &str, role: Role, ann: Option<Annotation>) -> OrderingSite {
        OrderingSite {
            file: file.into(),
            fn_name: Some(fn_name.into()),
            ordering: ordering.into(),
            line: 1,
            col: 1,
            role,
            annotation: ann,
        }
    }

    #[test]
    fn resolve_flags_dangling_exempt_and_relaxed_only_targets() {
        let pairs = |s: &str, f: &str| {
            Some(Annotation::Pairs { path_suffix: s.into(), target_fn: f.into() })
        };
        let sites = vec![
            site("crates/smr/src/a.rs", "announce", "Release", Role::Publish, None),
            site("crates/smr/src/a.rs", "dbg", "Acquire", Role::Exempt, None),
            site("crates/smr/src/a.rs", "weak", "Relaxed", Role::Cas, Some(Annotation::Reason(Reason::Exclusive))),
            // ok: cites a Release site
            site("crates/smr/src/a.rs", "ok", "Relaxed", Role::Publish, pairs("a.rs", "announce")),
            // dangling
            site("crates/smr/src/a.rs", "d", "Relaxed", Role::Publish, pairs("a.rs", "nope")),
            // exempt target
            site("crates/smr/src/a.rs", "e", "Relaxed", Role::Publish, pairs("a.rs", "dbg")),
            // relaxed-only target
            site("crates/smr/src/a.rs", "r", "Relaxed", Role::Publish, pairs("a.rs", "weak")),
        ];
        let mut out = Vec::new();
        resolve(&sites, &mut out);
        assert_eq!(out.len(), 3, "{out:?}");
        assert!(out.iter().any(|d| d.msg.contains("dangling `pairs = a.rs:nope`")));
        assert!(out.iter().any(|d| d.msg.contains("classified `exempt`")));
        assert!(out.iter().any(|d| d.msg.contains("role-incompatible")));
    }

    #[test]
    fn counted_fence_call_is_a_pairable_fence_site() {
        let sites = vec![
            site("crates/smr/src/a.rs", "hot", "counted_fence", Role::Publish, None),
            site(
                "crates/smr/src/a.rs",
                "rd",
                "Relaxed",
                Role::Publish,
                Some(Annotation::Pairs { path_suffix: "a.rs".into(), target_fn: "hot".into() }),
            ),
        ];
        let mut out = Vec::new();
        resolve(&sites, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn graph_emission_is_deterministic_and_scoped_to_the_argument() {
        let sites = vec![
            site("crates/smr/src/a.rs", "announce", "Release", Role::Publish, None),
            site("crates/smr/src/a.rs", "unrelated", "SeqCst", Role::RetireLoad, None),
            site(
                "crates/smr/src/a.rs",
                "rd",
                "Relaxed",
                Role::Publish,
                Some(Annotation::Pairs {
                    path_suffix: "a.rs".into(),
                    target_fn: "announce".into(),
                }),
            ),
            site("crates/smr/src/a.rs", "own", "Relaxed", Role::Cas, Some(Annotation::Reason(Reason::OwnedStore))),
        ];
        let j1 = graph_json(&sites);
        let j2 = graph_json(&sites);
        assert_eq!(j1, j2);
        assert!(j1.contains("\"mp-ordering-graph/v1\""));
        assert!(j1.contains("rd"), "{j1}");
        assert!(j1.contains("announce"));
        assert!(!j1.contains("unrelated"), "uncited buckets stay out of the artifact: {j1}");
        let d = graph_dot(&sites);
        assert!(d.contains("digraph"));
        assert!(d.contains("reason:owned-store"));
        assert!(d.contains("-> \"crates/smr/src/a.rs:announce\""));
    }
}
