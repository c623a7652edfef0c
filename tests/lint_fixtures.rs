//! Golden fixture tests for the in-tree SMR protocol linter (`mp-lint`),
//! and its one whole-tree run (`merged_tree_lints_clean`).
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
//! Both run against the *real* `INVARIANTS.md` registry, so the fixtures
//! also pin that file's contract (`[INV-11]` must keep existing for the
//! safety fixtures to cite). The rules rustc and clippy check in mp-lint's
//! place are pinned by `the_toolchain_denies_the_moved_rules`.

use std::path::{Path, PathBuf};

use mp_lint::{
    lint_file, registry::Registry, Diagnostic, PASS_CAST, PASS_ORDERING, PASS_SAFETY, PASS_SCOPE,
};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Lints `src` as if it lived at `display_path`.
fn lint_source(src: &str, display_path: &str) -> Vec<Diagnostic> {
    let reg = Registry::load(&repo_root().join("INVARIANTS.md"))
        .expect("INVARIANTS.md must parse as an invariant registry");
    let mut out = Vec::new();
    lint_file(display_path, src, &reg, &mut out);
    out.sort_by_key(|d| (d.line, d.col));
    out
}

/// Lints fixture `name` as if it lived at `display_path`.
fn lint_fixture(name: &str, display_path: &str) -> (String, Vec<Diagnostic>) {
    let path = repo_root().join("crates/lint/fixtures").join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    let diags = lint_source(&src, display_path);
    (src, diags)
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
    // Free-text and unknown-ID SAFETY comments, and an unsafe fn with none.
    check_negative("safety_missing.rs", "crates/smr/src/fixture_safety.rs", PASS_SAFETY);
}

#[test]
fn ordering_pass_fires_on_relaxed_without_a_structured_annotation() {
    // Bare, free-text, `reason = seqlock` (an unknown reason), and a store
    // sitting under another statement's trailing annotation; the `Acquire`
    // in the same file is not judged.
    check_negative("ordering_relaxed.rs", "crates/smr/src/registry.rs", PASS_ORDERING);
}

#[test]
fn pairing_resolution_fires_on_dangling_diagnostic_and_relaxed_only_refs() {
    check_negative("ordering_pairing.rs", "crates/smr/src/fixture_pairing.rs", PASS_ORDERING);
}

#[test]
fn ordering_gate_covers_the_protocol_crates_and_nothing_else() {
    let src = "\
use core::sync::atomic::{AtomicU64, Ordering};
pub fn peek(a: &AtomicU64) -> u64 {
    a.load(Ordering::Relaxed)
}
";
    // Absolute paths too: `merged_tree_lints_clean` passes them.
    for gated in ["crates/smr/src/x.rs", "crates/ds/src/x.rs", "/abs/checkout/crates/ds/src/x.rs"] {
        let diags = lint_source(src, gated);
        assert_eq!(diags.len(), 1, "{gated}: {diags:?}");
        assert_eq!((diags[0].pass, diags[0].line), (PASS_ORDERING, 3), "{gated}");
    }
    for free in ["crates/util/src/pool.rs", "crates/bench/src/x.rs", "tests/x.rs", "crates/bench/examples/x.rs"] {
        let diags = lint_source(src, free);
        assert!(diags.is_empty(), "{free}: {diags:?}");
    }
}

#[test]
fn scope_pass_fires_on_unprotected_deref() {
    check_negative("scope_unprotected.rs", "crates/ds/src/scope_unprotected.rs", PASS_SCOPE);
}

#[test]
fn cast_pass_fires_on_a_pointer_width_pun() {
    check_negative("cast_pun.rs", "crates/smr/src/cast_pun.rs", PASS_CAST);
}

/// True if TOML table `header` in `text` holds the line `line`.
fn table_has(text: &str, header: &str, line: &str) -> bool {
    let table = text.lines().map(str::trim).skip_while(|l| *l != header).skip(1);
    table.take_while(|l| !l.starts_with('[')).any(|l| l == line)
}

#[test]
fn the_toolchain_denies_the_moved_rules() {
    // Tier-1 runs no clippy: this pins the configuration with which the
    // gate's clippy stages reject what mp-lint no longer checks. The
    // `Header` field rule needs no pin: rustc rejects access to the
    // module-private fields.
    let read = |p: PathBuf| std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("{p:?}: {e}"));
    let root = repo_root();
    let workspace = read(root.join("Cargo.toml"));
    for lint in [
        "mem_forget", "todo", "unimplemented", "disallowed_methods",
        "undocumented_unsafe_blocks", "missing_safety_doc",
    ] {
        let want = format!("{lint} = \"deny\"");
        assert!(table_has(&workspace, "[workspace.lints.clippy]", &want), "Cargo.toml: no `{want}`");
    }
    let members = std::fs::read_dir(root.join("crates")).expect("crates/");
    for dir in members.map(|m| m.expect("member dir").path()).chain([root.to_path_buf()]) {
        let opted_in = table_has(&read(dir.join("Cargo.toml")), "[lints]", "workspace = true");
        assert!(opted_in, "{}: no `[lints] workspace = true`", dir.display());
    }
    let clippy = read(root.join("clippy.toml"));
    let private = clippy.lines().any(|l| l == "check-private-items = true");
    assert!(private, "clippy.toml: no `check-private-items = true`");
    for path in ["core::arch::x86_64::_mm_prefetch", "core::arch::x86::_mm_prefetch"] {
        assert!(clippy.contains(&format!("path = \"{path}\"")), "clippy.toml allows `{path}`");
    }
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
        ("positive/ordering_diagnostic_ok.rs", "crates/smr/src/schemes/common.rs"),
        ("positive/ordering_pairing_ok.rs", "crates/smr/src/schemes/mp.rs"),
        ("positive/scope_ok.rs", "crates/ds/src/scope_ok.rs"),
        ("positive/cast_ok.rs", "crates/smr/src/cast_ok.rs"),
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
            "cast_ok.rs",
            "ordering_diagnostic_ok.rs",
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
    // run, or `merged_tree_lints_clean` would always fail.
    let files = mp_lint::collect_rs_files(&[repo_root().join("crates/lint")])
        .expect("walking crates/lint");
    assert!(!files.is_empty(), "walk found the linter's own sources");
    for f in &files {
        let norm = f.display().to_string().replace('\\', "/");
        assert!(
            !norm.contains("/fixtures/"),
            "tree walk descended into the fixture corpus: {norm}"
        );
    }
}

#[test]
fn every_registered_invariant_is_cited_somewhere() {
    // The registry holds live invariants only: an `## INV-xx` heading that
    // no source file cites describes code that is gone. The tree walk
    // skips the fixture corpus, whose citations prove nothing.
    let root = repo_root();
    let reg = Registry::load(&root.join("INVARIANTS.md")).expect("INVARIANTS.md parses");
    let paths: Vec<PathBuf> = ["crates", "tests", "src"].iter().map(|p| root.join(p)).collect();
    let mut cited = std::collections::BTreeSet::new();
    for f in mp_lint::collect_rs_files(&paths).expect("walking the tree") {
        let src = std::fs::read_to_string(&f).expect("readable source");
        cited.extend(mp_lint::registry::cited_invariants(&src));
    }
    let uncited: Vec<&String> = reg.ids.iter().filter(|id| !cited.contains(*id)).collect();
    assert!(uncited.is_empty(), "INVARIANTS.md lists invariants no source file cites: {uncited:?}");
}

#[test]
fn merged_tree_lints_clean() {
    // The linter's one whole-tree run: an invariant citation, ORDERING or
    // PROTECTION annotation, or cast escape reverted anywhere fails here.
    let root = repo_root();
    let paths: Vec<PathBuf> = ["crates", "tests", "src"].iter().map(|p| root.join(p)).collect();
    let diags = mp_lint::lint_paths(&paths, &root.join("INVARIANTS.md"))
        .expect("lint configuration must load");
    assert!(
        diags.is_empty(),
        "merged tree must lint clean; found:\n  {}",
        diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n  ")
    );
}
