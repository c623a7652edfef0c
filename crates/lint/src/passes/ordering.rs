//! Pass 2 — memory-ordering gate.
//!
//! The paper's safety argument is fence placement (§4.3): announce → fence →
//! validate, against a scan that fences before it reads the slots. One rule
//! keeps every weakening of it honest:
//!
//! > In the protocol crates (`crates/smr/src/`, `crates/ds/src/`) every
//! > `Ordering::Relaxed` outside test code carries a structured
//! > `// ORDERING:` annotation on or directly above its own statement.
//!
//! ```text
//! // ORDERING: pairs = <path-suffix>:<fn> — free prose after the head.
//! // ORDERING: reason = exclusive|quiescent|owned-store|diagnostic — prose.
//! ```
//!
//! 1. **Collection** ([`run`], per file): every `Ordering::*` site (and every
//!    `counted_fence` call) is recorded as an [`OrderingSite`]; a `Relaxed`
//!    one whose annotation is missing, free text or an unknown reason is an
//!    error. Stronger orderings are recorded and not judged: whether an
//!    `Acquire` is strong *enough* is the oracles' and the model tests'
//!    question, not a lexical one. `#[cfg(test)]` modules and `#[test]`
//!    functions are skipped.
//! 2. **Resolution** ([`resolve`], whole tree): each `pairs` reference must
//!    name a function that holds an ordering site (else it is *dangling*),
//!    that holds one stronger than `Relaxed` (else there is *nothing to pair
//!    with*), and that declares no `diagnostic` site (statistics are outside
//!    the fence-placement argument and cannot carry it).
//!
//! `mp-util`'s ring and pool are out of scope: their protocols are
//! self-contained and pinned by their own property tests.

use crate::lexer::{enclosing_fn, in_spans, FnSpan, LexFile, Tok};
use crate::{Diagnostic, PASS_ORDERING};

/// Path infixes of the crates the rule covers (normalized `/` paths, so an
/// absolute checkout path matches too).
const SCOPE_INFIXES: &[&str] = &["crates/smr/src/", "crates/ds/src/"];

/// Structural reason a `Relaxed` needs no pairing fence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reason {
    /// Single-owner access: `&mut self`, single-writer cell, teardown.
    Exclusive,
    /// All racing threads are provably quiescent (e.g. collection under a
    /// lock that revalidates with its own fence).
    Quiescent,
    /// Store to memory not yet published to any other thread.
    OwnedStore,
    /// Statistics, arming flags, `Debug` output: a stale value mis-reports,
    /// it never frees or publishes.
    Diagnostic,
}

impl Reason {
    fn parse(s: &str) -> Option<Reason> {
        Some(match s {
            "exclusive" => Reason::Exclusive,
            "quiescent" => Reason::Quiescent,
            "owned-store" => Reason::OwnedStore,
            "diagnostic" => Reason::Diagnostic,
            _ => return None,
        })
    }
}

/// Parsed head of a structured `// ORDERING:` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Annotation {
    /// `pairs = <path-suffix>:<fn>` — names the function holding the
    /// pairing fence / release edge.
    Pairs {
        /// Matched against the end of the cited site's normalized path.
        path_suffix: String,
        /// Function name of the cited site.
        target_fn: String,
    },
    /// `reason = …` — structural justification; no pairing site exists.
    Reason(Reason),
}

/// One ordering site: an `Ordering::*` token (or a call to the
/// `counted_fence` SeqCst helper, recorded as a fence site) in a protocol
/// crate, outside test code.
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
    /// Parsed annotation — populated only for `Relaxed` sites whose
    /// annotation parsed cleanly.
    pub annotation: Option<Annotation>,
}

impl OrderingSite {
    fn diag(&self, msg: String) -> Diagnostic {
        Diagnostic {
            file: self.file.clone(),
            line: self.line,
            col: self.col,
            pass: PASS_ORDERING,
            msg,
        }
    }
}

/// Phase 1: collects one file's ordering sites and checks every `Relaxed`.
pub fn run(
    file: &str,
    f: &LexFile,
    spans: &[FnSpan],
    tspans: &[(usize, usize)],
    sites: &mut Vec<OrderingSite>,
    out: &mut Vec<Diagnostic>,
) {
    if !SCOPE_INFIXES.iter().any(|p| file.contains(p)) {
        return;
    }
    for i in 0..f.code.len() {
        // `counted_fence(...)` calls are fence sites pairable by `pairs =`
        // references even though no `Ordering::` token appears at the call.
        let ordering = if f.is_ident(i, "counted_fence") && f.is_punct(i + 1, '(') {
            "counted_fence".to_string()
        } else if f.is_ident(i, "Ordering") && f.is_punct(i + 1, ':') && f.is_punct(i + 2, ':') {
            match f.tok(i + 3) {
                Some(Tok::Ident(id)) => id.clone(),
                _ => continue,
            }
        } else {
            continue;
        };
        if in_spans(tspans, i) {
            continue;
        }
        let mut site = OrderingSite {
            file: file.to_string(),
            fn_name: enclosing_fn(spans, i).map(|s| s.name.clone()),
            ordering,
            line: f.line_of(i),
            col: f.col_of(i),
            annotation: None,
        };
        if site.ordering == "Relaxed" {
            match parse_annotation(&f.site_comment(i)) {
                Ok(a) => site.annotation = Some(a),
                Err(why) => out.push(site.diag(format!("Ordering::Relaxed — {why}"))),
            }
        }
        sites.push(site);
    }
}

const GRAMMAR_HINT: &str = "use `// ORDERING: pairs = <path-suffix>:<fn>` or \
     `// ORDERING: reason = exclusive|quiescent|owned-store|diagnostic`";

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
            Reason::parse(val)
                .map(Annotation::Reason)
                .ok_or_else(|| format!("unknown reason `{val}` — {GRAMMAR_HINT}"))
        }
        other => Err(format!(
            "free-text `// ORDERING:` annotation (starts `{other}`) is not accepted — \
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
            out.push(s.diag(format!(
                "dangling `pairs = {label}` reference — no function with an Ordering/fence \
                 site in a protocol crate matches (check the path suffix and the fn name)"
            )));
        } else if targets
            .iter()
            .any(|t| t.annotation == Some(Annotation::Reason(Reason::Diagnostic)))
        {
            out.push(s.diag(format!(
                "`pairs = {label}` cites a `diagnostic` site — statistics are outside the \
                 fence-placement argument and cannot justify a Relaxed"
            )));
        } else if targets.iter().all(|t| t.ordering == "Relaxed") {
            out.push(s.diag(format!(
                "nothing to pair with: `pairs = {label}` cites only Relaxed sites — the \
                 cited fn provides no Acquire/Release/SeqCst ordering or fence"
            )));
        }
    }
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
        assert_eq!(
            parse_annotation("// ORDERING: reason = diagnostic"),
            Ok(Annotation::Reason(Reason::Diagnostic))
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

    fn site(fn_name: &str, ordering: &str, ann: Option<Annotation>) -> OrderingSite {
        OrderingSite {
            file: "crates/smr/src/a.rs".into(),
            fn_name: Some(fn_name.into()),
            ordering: ordering.into(),
            line: 1,
            col: 1,
            annotation: ann,
        }
    }

    fn pairs(f: &str) -> Option<Annotation> {
        Some(Annotation::Pairs { path_suffix: "a.rs".into(), target_fn: f.into() })
    }

    #[test]
    fn resolve_flags_dangling_diagnostic_and_relaxed_only_targets() {
        let sites = vec![
            site("announce", "Release", None),
            site("stats", "Relaxed", Some(Annotation::Reason(Reason::Diagnostic))),
            site("weak", "Relaxed", Some(Annotation::Reason(Reason::Exclusive))),
            // ok: cites a Release site
            site("ok", "Relaxed", pairs("announce")),
            site("d", "Relaxed", pairs("nope")),
            site("e", "Relaxed", pairs("stats")),
            site("r", "Relaxed", pairs("weak")),
        ];
        let mut out = Vec::new();
        resolve(&sites, &mut out);
        assert_eq!(out.len(), 3, "{out:?}");
        assert!(out.iter().any(|d| d.msg.contains("dangling `pairs = a.rs:nope`")));
        assert!(out.iter().any(|d| d.msg.contains("cites a `diagnostic` site")));
        assert!(out.iter().any(|d| d.msg.contains("nothing to pair with")));
    }

    #[test]
    fn counted_fence_call_is_a_pairable_fence_site() {
        let sites = vec![site("hot", "counted_fence", None), site("rd", "Relaxed", pairs("hot"))];
        let mut out = Vec::new();
        resolve(&sites, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
