//! The analyzer's own test suite: per-rule positive/negative fixtures,
//! pragma handling, the tokenizer's tricky corners, ratchet semantics, and
//! the workspace self-scan that pins the repo at zero violations.

use std::fs;
use std::path::{Path, PathBuf};

use onoc_analyzer::rules::{self, FileContext};
use onoc_analyzer::source::{strip, test_mod_ranges, tokenize, Token};
use onoc_analyzer::{run, RatchetMode, RATCHET_FILE};

/// A fixture loaded far enough to build a [`FileContext`].
struct Loaded {
    path: String,
    tokens: Vec<Token>,
    test_ranges: Vec<(usize, usize)>,
}

impl Loaded {
    fn ctx(&self) -> FileContext<'_> {
        FileContext {
            path: &self.path,
            tokens: &self.tokens,
            test_ranges: &self.test_ranges,
            is_src: true,
        }
    }
}

fn fixture(name: &str) -> Loaded {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {name}: {e}"));
    let stripped = strip(&text);
    let tokens = tokenize(&stripped.text);
    let test_ranges = test_mod_ranges(&tokens);
    Loaded {
        path: format!("src/{name}"),
        tokens,
        test_ranges,
    }
}

// ---------------------------------------------------------------------------
// Rule fixtures: one positive and one negative case per rule.
// ---------------------------------------------------------------------------

#[test]
fn d001_flags_hash_iteration() {
    let f = fixture("d001_bad.rs");
    let findings = rules::d001(&f.ctx());
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert!(findings.iter().any(|f| f.message.contains(".iter()")));
    assert!(findings.iter().any(|f| f.message.contains("for … in")));
    assert!(findings.iter().any(|f| f.message.contains(".drain()")));
}

#[test]
fn d001_allows_keyed_lookup_and_ordered_iteration() {
    let f = fixture("d001_good.rs");
    assert_eq!(rules::d001(&f.ctx()), vec![], "keyed lookup must pass");
}

#[test]
fn d002_flags_wall_clocks() {
    let f = fixture("d002_bad.rs");
    let findings = rules::d002(&f.ctx());
    // One `Instant::now` call plus every mention of `SystemTime` (import,
    // return type, constructor) — the type itself is the hazard.
    assert_eq!(findings.len(), 4, "{findings:?}");
    assert!(findings.iter().any(|f| f.message.contains("Instant::now")));
    assert!(findings.iter().any(|f| f.message.contains("SystemTime")));
}

#[test]
fn d002_ignores_clock_names_in_comments_and_strings() {
    let f = fixture("d002_good.rs");
    assert_eq!(rules::d002(&f.ctx()), vec![]);
}

#[test]
fn d003_flags_unfingerprinted_field() {
    let f = fixture("d003_bad.rs");
    let findings = rules::d003(&f.ctx());
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("`tuner`"));
    assert!(findings[0].message.contains("ProbeState"));
}

#[test]
fn d003_accepts_full_coverage_and_skips_fingerprintless_structs() {
    let f = fixture("d003_good.rs");
    assert_eq!(rules::d003(&f.ctx()), vec![]);
}

#[test]
fn d004_counts_library_sites_but_not_test_modules() {
    let f = fixture("d004_sites.rs");
    let sites = rules::d004_sites(&f.ctx());
    assert_eq!(sites.len(), 2, "{sites:?}");
    assert!(sites.iter().any(|s| s.message.contains(".unwrap()")));
    assert!(sites.iter().any(|s| s.message.contains(".expect()")));
}

#[test]
fn d006_flags_env_reads_and_ambient_randomness() {
    let f = fixture("d006_bad.rs");
    let findings = rules::d006(&f.ctx());
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().any(|f| f.message.contains("env::var")));
    assert!(findings.iter().any(|f| f.message.contains("thread_rng")));
}

#[test]
fn d006_allows_env_macro_and_cli_args() {
    let f = fixture("d006_good.rs");
    assert_eq!(rules::d006(&f.ctx()), vec![]);
}

// ---------------------------------------------------------------------------
// Tokenizer corners.
// ---------------------------------------------------------------------------

#[test]
fn stripper_handles_nested_comments_strings_and_lifetimes() {
    let source = r##"
/* outer /* nested */ still comment */ pub fn f<'a>(x: &'a str) -> char {
    let s = "Instant::now \" escaped";
    let raw = r#"SystemTime"#;
    let c = 'x';
    let esc = '\n';
    let _ = (s, raw, esc);
    c
}
"##;
    let stripped = strip(source);
    assert_eq!(
        stripped.text.lines().count(),
        source.lines().count(),
        "line structure must survive stripping"
    );
    let tokens = tokenize(&stripped.text);
    let idents: Vec<&str> = tokens
        .iter()
        .filter(|t| t.is_ident())
        .map(|t| t.text.as_str())
        .collect();
    assert!(!idents.contains(&"Instant"), "string content must vanish");
    assert!(!idents.contains(&"SystemTime"), "raw strings must vanish");
    assert!(!idents.contains(&"nested"), "comments must vanish");
    assert!(idents.contains(&"a"), "lifetimes survive as idents");
}

#[test]
fn pragma_parsing_targets_same_and_next_line() {
    let source = "\
let a = 1; // onoc-lint: allow(D001, same line)
// onoc-lint: allow(D002, next line)
let b = 2;
// onoc-lint: allow(D003)
let c = 3;
";
    let stripped = strip(source);
    assert_eq!(stripped.pragmas.len(), 3);
    let p1 = &stripped.pragmas[0];
    assert_eq!((p1.rule.as_str(), p1.target_line), ("D001", 1));
    assert_eq!(p1.reason, "same line");
    let p2 = &stripped.pragmas[1];
    assert_eq!((p2.rule.as_str(), p2.target_line), ("D002", 3));
    assert!(!p2.missing_reason);
    let p3 = &stripped.pragmas[2];
    assert!(p3.missing_reason, "reasonless pragma must be marked");
}

// ---------------------------------------------------------------------------
// Whole-workspace runs over synthetic mini-workspaces.
// ---------------------------------------------------------------------------

/// Builds a disposable `[workspace]` directory from `(path, contents)` pairs.
fn mini_workspace(tag: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = std::env::temp_dir().join(format!("onoc-lint-{tag}-{}", std::process::id()));
    if root.exists() {
        fs::remove_dir_all(&root).expect("clear stale mini workspace");
    }
    fs::create_dir_all(root.join("src")).expect("mini workspace src/");
    fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("manifest");
    for (rel, contents) in files {
        let path = root.join(rel);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).expect("fixture dirs");
        }
        fs::write(path, contents).expect("fixture file");
    }
    root
}

#[test]
fn pragmas_suppress_with_reason_and_fail_without() {
    let fixture_text =
        fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pragma.rs"))
            .expect("pragma fixture");
    let root = mini_workspace(
        "pragma",
        &[
            ("src/lib.rs", fixture_text.as_str()),
            (RATCHET_FILE, "[D004]\nunwrap_expect_sites = 0\n"),
        ],
    );
    let outcome = run(&root, RatchetMode::Enforce).expect("scan");
    assert_eq!(outcome.suppressions.len(), 2, "{:?}", outcome.suppressions);
    assert!(outcome.suppressions.iter().all(|s| !s.reason.is_empty()));
    // The reasonless pragma yields two violations: the unsuppressed finding
    // and the malformed pragma itself.
    assert_eq!(outcome.violations.len(), 2, "{:?}", outcome.violations);
    assert!(outcome
        .violations
        .iter()
        .any(|v| v.message.contains("no reason")));
    fs::remove_dir_all(&root).ok();
}

#[test]
fn deliberate_d001_and_d003_violations_fail_the_scan() {
    let scratch = "\
use std::collections::HashMap;

pub struct Probe {
    pub a: u64,
    pub b: u64,
}

impl Probe {
    pub fn fingerprint(&self) -> u64 {
        self.a
    }
}

pub fn leak_order(m: &HashMap<u64, u64>) -> Vec<u64> {
    m.keys().copied().collect()
}
";
    let root = mini_workspace(
        "scratch",
        &[
            ("src/scratch.rs", scratch),
            (RATCHET_FILE, "[D004]\nunwrap_expect_sites = 0\n"),
        ],
    );
    let outcome = run(&root, RatchetMode::Enforce).expect("scan");
    assert!(!outcome.is_clean());
    assert_eq!(outcome.rule_count("D001"), 1, "{:?}", outcome.violations);
    assert_eq!(outcome.rule_count("D003"), 1, "{:?}", outcome.violations);
    fs::remove_dir_all(&root).ok();
}

#[test]
fn ratchet_regression_and_staleness_are_both_violations() {
    let noisy = "pub fn f(v: &[u64]) -> u64 { *v.first().unwrap() }\n";
    for (recorded, fragment) in [(0u64, "regressed"), (5u64, "stale ratchet")] {
        let root = mini_workspace(
            &format!("ratchet-{recorded}"),
            &[
                ("src/lib.rs", noisy),
                (
                    RATCHET_FILE,
                    format!("[D004]\nunwrap_expect_sites = {recorded}\n").as_str(),
                ),
            ],
        );
        let outcome = run(&root, RatchetMode::Enforce).expect("scan");
        assert_eq!(outcome.d004_sites, 1);
        assert_eq!(outcome.rule_count("D004"), 1, "{:?}", outcome.violations);
        assert!(
            outcome.violations[0].message.contains(fragment),
            "recorded={recorded}: {:?}",
            outcome.violations
        );
        fs::remove_dir_all(&root).ok();
    }
}

#[test]
fn update_mode_banks_the_scanned_count() {
    let noisy = "pub fn f(v: &[u64]) -> u64 { *v.first().unwrap() }\n";
    let root = mini_workspace("bank", &[("src/lib.rs", noisy)]);
    let outcome = run(&root, RatchetMode::Update).expect("scan");
    assert!(outcome.is_clean(), "{:?}", outcome.violations);
    assert_eq!(outcome.d004_recorded, Some(1));
    let banked = fs::read_to_string(root.join(RATCHET_FILE)).expect("banked ratchet");
    assert!(banked.contains("unwrap_expect_sites = 1"));
    fs::remove_dir_all(&root).ok();
}

#[test]
fn nested_workspaces_are_skipped_but_plain_subdirectories_are_scanned() {
    let clock = "pub fn stamp() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    let root = mini_workspace(
        "nested",
        &[
            ("src/lib.rs", "pub fn f() -> u64 {\n    1\n}\n"),
            (
                "bench/Cargo.toml",
                "[package]\nname = \"bench\"\n\n[workspace]\n",
            ),
            ("bench/src/main.rs", clock),
            ("tools/Cargo.toml", "[package]\nname = \"tools\"\n"),
            ("tools/src/main.rs", clock),
            (RATCHET_FILE, "[D004]\nunwrap_expect_sites = 0\n"),
        ],
    );
    let outcome = run(&root, RatchetMode::Enforce).expect("scan");
    // The root and the plain `tools/` package are scanned; the `bench/`
    // package declares its own workspace and is not.
    assert_eq!(outcome.files_scanned, 2, "{:?}", outcome.violations);
    assert_eq!(outcome.rule_count("D002"), 1, "{:?}", outcome.violations);
    assert!(outcome
        .violations
        .iter()
        .all(|v| v.file == "tools/src/main.rs"));
    fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------------
// The workspace self-scan: the whole repo is pinned at zero violations.
// ---------------------------------------------------------------------------

#[test]
fn workspace_self_scan_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let outcome = run(&root, RatchetMode::Enforce).expect("self-scan");
    assert!(
        outcome.is_clean(),
        "workspace must scan clean:\n{}",
        outcome
            .violations
            .iter()
            .map(onoc_analyzer::Violation::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        outcome.files_scanned > 100,
        "walker lost the workspace: {} files",
        outcome.files_scanned
    );
    // The sanctioned wall-clock sites (shard telemetry plus the scale-out
    // run timer the speedup floor reads) ride on justified pragmas.
    assert_eq!(outcome.suppression_count("D002"), 2);
    assert_eq!(outcome.d004_recorded, Some(outcome.d004_sites as u64));
}
