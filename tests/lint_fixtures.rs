//! Golden fixture tests for the in-tree SMR protocol linter (`mp-lint`).
//!
//! Two corpora under `crates/lint/fixtures/` (a directory the linter's own
//! tree walk skips, so the deliberately-failing files never break a clean
//! run):
//!
//! * **Negative fixtures** — one file per lint class. Each offending line
//!   carries a trailing marker `//~ ERROR[pass]: message-substring`; the
//!   harness lints the file under a synthetic display path (which is how a
//!   fixture lands inside a path-gated pass's territory) and requires the
//!   diagnostics to match the markers *exactly*: same line set, same pass,
//!   message containing the substring. A missed diagnostic, a spurious
//!   one, or a drifted span all fail.
//! * **Positive fixtures** (`positive/`) — correctly annotated code
//!   exercising every accepted escape hatch; zero diagnostics allowed.
//!
//! Both run against the *real* `INVARIANTS.md` registry and
//! `crates/lint/ordering.rules`, so the fixtures also pin those files'
//! contracts (e.g. `smr/src/registry.rs  announced_sorted_into  retire_load`
//! must keep existing for the ordering fixture to fire).

use std::path::{Path, PathBuf};

use mp_lint::{
    lint_file, registry::Registry, rules::RuleSet, Diagnostic, LintConfig, PASS_FORBIDDEN,
    PASS_ORDERING, PASS_SAFETY, PASS_SCOPE,
};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn load_config() -> (Registry, RuleSet) {
    let reg = Registry::load(&repo_root().join("INVARIANTS.md"))
        .expect("INVARIANTS.md must parse as an invariant registry");
    let rules = RuleSet::load(&repo_root().join("crates/lint/ordering.rules"))
        .expect("ordering.rules must parse");
    (reg, rules)
}

/// Lints fixture `name` as if it lived at `display_path`.
fn lint_fixture(name: &str, display_path: &str) -> (String, Vec<Diagnostic>) {
    let path = repo_root().join("crates/lint/fixtures").join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    let (reg, rules) = load_config();
    let mut out = Vec::new();
    lint_file(display_path, &src, &reg, &rules, &mut out);
    out.sort_by_key(|d| (d.line, d.col));
    (src, out)
}

/// An expected diagnostic parsed from a `//~ ERROR[pass]: substring` marker.
struct Expected {
    line: u32,
    pass: String,
    msg_substring: String,
}

fn parse_markers(src: &str) -> Vec<Expected> {
    let mut out = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let Some(pos) = line.find("//~ ERROR[") else { continue };
        let rest = &line[pos + "//~ ERROR[".len()..];
        let close = rest.find(']').expect("marker missing closing `]`");
        let tail = rest[close + 1..].trim_start_matches(':').trim();
        assert!(!tail.is_empty(), "marker on line {} needs a message substring", idx + 1);
        out.push(Expected {
            line: idx as u32 + 1,
            pass: rest[..close].to_string(),
            msg_substring: tail.to_string(),
        });
    }
    assert!(!out.is_empty(), "negative fixture declares no //~ ERROR markers");
    out
}

/// Negative-fixture driver: diagnostics must match markers one-to-one.
fn check_negative(name: &str, display_path: &str, expected_pass: &'static str) {
    let (src, diags) = lint_fixture(name, display_path);
    let expected = parse_markers(&src);

    for d in &diags {
        assert_eq!(
            d.pass, expected_pass,
            "{name}: unexpected pass for diagnostic `{d}` (fixture targets `{expected_pass}`)"
        );
        assert_eq!(d.file, display_path, "{name}: diagnostic carries the display path");
        assert!(d.col > 0, "{name}: diagnostic has a real column: `{d}`");
    }

    let got: Vec<u32> = diags.iter().map(|d| d.line).collect();
    let want: Vec<u32> = expected.iter().map(|e| e.line).collect();
    assert_eq!(
        got, want,
        "{name}: diagnostic lines {got:?} != marked lines {want:?}\n  diagnostics:\n    {}",
        diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n    ")
    );

    for (d, e) in diags.iter().zip(&expected) {
        assert_eq!(e.pass, expected_pass, "{name}: marker on line {} names the wrong pass", e.line);
        assert!(
            d.msg.contains(&e.msg_substring),
            "{name}:{}: message `{}` does not contain `{}`",
            e.line,
            d.msg,
            e.msg_substring
        );
    }
}

// ---------------------------------------------------------------------------
// Negative fixtures: each lint class fires with the right diagnostic + span.
// ---------------------------------------------------------------------------

#[test]
fn safety_pass_fires_on_uncited_unsafe() {
    check_negative("safety_missing.rs", "crates/smr/src/fixture_safety.rs", PASS_SAFETY);
}

#[test]
fn ordering_pass_fires_on_gated_relaxed_and_unclassified_sites() {
    // Linted as smr/src/registry.rs so the real rule file classifies
    // `release` as publish, `announced_sorted_into` as retire_load and
    // `try_acquire` as cas — the last one annotated `reason = seqlock`,
    // which must be rejected as an unknown reason.
    check_negative("ordering_relaxed.rs", "crates/smr/src/registry.rs", PASS_ORDERING);
}

#[test]
fn pairing_resolution_fires_on_dangling_exempt_counter_and_relaxed_only_refs() {
    // Linted under its own path: the rule file's closing section gates
    // its `new`/`reclaim` (retire_load) and classifies `live_nodes` as
    // counter, `drop` as exempt — the four resolution error classes in one
    // file, which no protocol file offers.
    check_negative(
        "ordering_pairing.rs",
        "crates/lint/fixtures/ordering_pairing.rs",
        PASS_ORDERING,
    );
}

#[test]
fn scope_pass_fires_on_unprotected_deref() {
    check_negative("scope_unprotected.rs", "crates/ds/src/scope_unprotected.rs", PASS_SCOPE);
}

#[test]
fn forbidden_pass_fires_on_each_denied_api() {
    check_negative("forbidden_api.rs", "crates/smr/src/forbidden_api.rs", PASS_FORBIDDEN);
}

// ---------------------------------------------------------------------------
// Positive corpus: correct annotations produce zero diagnostics.
// ---------------------------------------------------------------------------

#[test]
fn positive_corpus_is_clean() {
    // (fixture, display path): the path places each file in the territory
    // of the pass it exercises, same as the negative twins above.
    let corpus = [
        ("positive/safety_ok.rs", "crates/smr/src/safety_ok.rs"),
        ("positive/ordering_ok.rs", "crates/smr/src/registry.rs"),
        ("positive/ordering_counter_ok.rs", "crates/smr/src/schemes/common.rs"),
        ("positive/ordering_pairing_ok.rs", "crates/smr/src/schemes/mp.rs"),
        ("positive/scope_ok.rs", "crates/ds/src/scope_ok.rs"),
        ("positive/forbidden_ok.rs", "crates/smr/src/forbidden_ok.rs"),
    ];
    for (name, display) in corpus {
        let (_, diags) = lint_fixture(name, display);
        assert!(
            diags.is_empty(),
            "{name}: positive fixture produced diagnostics:\n  {}",
            diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n  ")
        );
    }
}

#[test]
fn every_positive_fixture_is_in_the_corpus() {
    // Adding a positive fixture without registering it above would silently
    // skip it; enumerate the directory and cross-check.
    let dir = repo_root().join("crates/lint/fixtures/positive");
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .expect("positive fixture dir")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".rs"))
        .collect();
    on_disk.sort();
    assert_eq!(
        on_disk,
        vec![
            "forbidden_ok.rs",
            "ordering_counter_ok.rs",
            "ordering_ok.rs",
            "ordering_pairing_ok.rs",
            "safety_ok.rs",
            "scope_ok.rs"
        ],
        "positive fixtures on disk drifted from the corpus in positive_corpus_is_clean"
    );
}

// ---------------------------------------------------------------------------
// Meta: the linter's own tree walk and the merged tree itself.
// ---------------------------------------------------------------------------

#[test]
fn fixtures_dir_is_skipped_by_the_tree_walk() {
    // The deliberately-failing corpus must never be linted by a clean-tree
    // run, or `cargo run -p mp-lint` would always fail.
    let files = mp_lint::collect_rs_files(&[repo_root().join("crates/lint")])
        .expect("walking crates/lint");
    assert!(
        !files.is_empty(),
        "walk found the linter's own sources"
    );
    for f in &files {
        let norm = f.display().to_string().replace('\\', "/");
        assert!(
            !norm.contains("/fixtures/"),
            "tree walk descended into the fixture corpus: {norm}"
        );
    }
}

#[test]
fn merged_tree_lints_clean() {
    // The whole-repo gate, as a test: reverting any single SAFETY: /
    // ORDERING: / PROTECTION: annotation in the tree fails here, not just
    // in scripts/verify.sh.
    let root = repo_root();
    let paths: Vec<PathBuf> = ["crates", "tests", "examples", "src"]
        .iter()
        .map(|p| root.join(p))
        .collect();
    let cfg = LintConfig {
        invariants: root.join("INVARIANTS.md"),
        ordering_rules: root.join("crates/lint/ordering.rules"),
    };
    let diags = mp_lint::lint_paths(&paths, &cfg).expect("lint configuration must load");
    assert!(
        diags.is_empty(),
        "merged tree must lint clean; found:\n  {}",
        diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n  ")
    );
}

#[test]
fn committed_ordering_graph_artifacts_are_fresh() {
    // ORDERING_GRAPH.{json,dot} are committed so DESIGN.md can reference a
    // stable artifact; converting/adding an annotation without regenerating
    // them fails here. Paths are repo-relative (cargo runs integration
    // tests from the package root) to match how verify.sh invokes the
    // linter, so the buckets carry identical `crates/...` file keys.
    let paths: Vec<PathBuf> = ["crates", "tests", "examples", "src"]
        .iter()
        .map(PathBuf::from)
        .collect();
    let cfg = LintConfig {
        invariants: PathBuf::from("INVARIANTS.md"),
        ordering_rules: PathBuf::from("crates/lint/ordering.rules"),
    };
    let (_, sites) =
        mp_lint::lint_paths_with_sites(&paths, &cfg).expect("lint configuration must load");
    for (artifact, want) in [
        ("ORDERING_GRAPH.json", mp_lint::passes::ordering::graph_json(&sites)),
        ("ORDERING_GRAPH.dot", mp_lint::passes::ordering::graph_dot(&sites)),
    ] {
        let committed = std::fs::read_to_string(repo_root().join(artifact))
            .unwrap_or_else(|e| panic!("{artifact} must exist at the repo root: {e}"));
        assert_eq!(
            committed, want,
            "{artifact} is stale — regenerate with `cargo run -p mp-lint -- \
             --emit-graph ORDERING_GRAPH.json --emit-dot ORDERING_GRAPH.dot \
             crates tests examples src`"
        );
    }
}
