//! `onoc-lint`: determinism & cache-safety static analysis for the
//! workspace.
//!
//! The repo's value proposition is that every figure and `RunReport` is
//! bit-identical across thread counts and reruns.  The invariants that make
//! that true used to live only in reviewers' heads; this crate turns them
//! into five machine-checked rules:
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | D001 | no iteration over `HashMap`/`HashSet` in deterministic library code |
//! | D002 | wall clocks (`Instant::now`, `SystemTime`) only at quarantined sites |
//! | D003 | `fingerprint()` bodies mention every field of their struct |
//! | D004 | `unwrap()`/`expect()` count in library code ratchets downward |
//! | D006 | no `std::env` reads or ambient randomness in deterministic code |
//!
//! There is deliberately no `syn` (the build environment has no crates.io
//! access): [`source`] hand-rolls a comment/string-stripping tokenizer and
//! [`rules`] matches token patterns.  False positives are silenced inline
//! with `// onoc-lint: allow(D00x, reason)` — the reason is mandatory.

pub mod report;
pub mod rules;
pub mod source;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use rules::FileContext;
use source::{strip, test_mod_ranges, tokenize, Pragma};

/// Rule ids with their one-line summaries, in report order.
pub const RULES: &[(&str, &str)] = &[
    ("D001", "no HashMap/HashSet iteration in deterministic code"),
    ("D002", "wall clocks confined to quarantined sites"),
    ("D003", "fingerprint() must cover every struct field"),
    ("D004", "unwrap()/expect() ratchet in library code"),
    (
        "D006",
        "no std::env or ambient randomness in deterministic code",
    ),
];

/// Name of the checked-in ratchet file at the workspace root.
pub const RATCHET_FILE: &str = "lint-ratchet.toml";

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id.
    pub rule: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl Violation {
    /// The `file:line: RULE message` form printed to stderr.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {} {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One finding silenced by a justified pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// Rule id.
    pub rule: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the suppressed finding.
    pub line: usize,
    /// The pragma's justification text.
    pub reason: String,
}

/// The result of a full workspace scan.
#[derive(Debug, Default)]
pub struct LintOutcome {
    /// Violations, sorted by (file, line, rule).
    pub violations: Vec<Violation>,
    /// Pragma-silenced findings, sorted the same way.
    pub suppressions: Vec<Suppression>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Unsuppressed `.unwrap()`/`.expect()` sites in library code.
    pub d004_sites: usize,
    /// The count recorded in `lint-ratchet.toml`, when the file exists.
    pub d004_recorded: Option<u64>,
}

impl LintOutcome {
    /// True when the scan found nothing.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violations attributed to `rule`.
    #[must_use]
    pub fn rule_count(&self, rule: &str) -> usize {
        self.violations.iter().filter(|v| v.rule == rule).count()
    }

    /// Suppressions attributed to `rule`.
    #[must_use]
    pub fn suppression_count(&self, rule: &str) -> usize {
        self.suppressions.iter().filter(|s| s.rule == rule).count()
    }
}

/// How [`run`] treats the D004 ratchet file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RatchetMode {
    /// Compare the scan against `lint-ratchet.toml`; mismatch is a violation.
    Enforce,
    /// Rewrite `lint-ratchet.toml` with the scanned count.
    Update,
}

/// All workspace `.rs` files under `root`, sorted, skipping build output,
/// VCS metadata, the offline compat stand-ins, lint test fixtures, and any
/// subdirectory whose `Cargo.toml` declares a `[workspace]` of its own (a
/// separate workspace, such as the host-time benchmark, is not the one the
/// lint guards).
///
/// # Errors
///
/// Propagates directory-walk I/O failures.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if matches!(name.as_ref(), "target" | ".git" | "compat" | "fixtures")
                    || declares_workspace(&path)
                {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

struct ScannedFile {
    rel: String,
    tokens: Vec<source::Token>,
    test_ranges: Vec<(usize, usize)>,
    pragmas: Vec<Pragma>,
    is_src: bool,
}

/// Runs all five rules over the workspace rooted at `root`.
///
/// # Errors
///
/// Propagates I/O failures reading sources or writing the ratchet file.
pub fn run(root: &Path, ratchet: RatchetMode) -> io::Result<LintOutcome> {
    let mut scanned = Vec::new();
    for path in workspace_files(root)? {
        let text = fs::read_to_string(&path)?;
        let stripped = strip(&text);
        let tokens = tokenize(&stripped.text);
        let test_ranges = test_mod_ranges(&tokens);
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let is_src = rel.starts_with("src/") || rel.contains("/src/");
        scanned.push(ScannedFile {
            rel,
            tokens,
            test_ranges,
            pragmas: stripped.pragmas,
            is_src,
        });
    }

    let mut outcome = LintOutcome {
        files_scanned: scanned.len(),
        ..LintOutcome::default()
    };
    for file in &scanned {
        let ctx = FileContext {
            path: &file.rel,
            tokens: &file.tokens,
            test_ranges: &file.test_ranges,
            is_src: file.is_src,
        };
        let mut findings = Vec::new();
        findings.extend(rules::d001(&ctx));
        findings.extend(rules::d002(&ctx));
        findings.extend(rules::d003(&ctx));
        findings.extend(rules::d006(&ctx));
        for f in findings {
            match pragma_for(&file.pragmas, f.rule, f.line) {
                Some(p) if !p.missing_reason => outcome.suppressions.push(Suppression {
                    rule: f.rule.to_owned(),
                    file: file.rel.clone(),
                    line: f.line,
                    reason: p.reason.clone(),
                }),
                _ => outcome.violations.push(Violation {
                    rule: f.rule.to_owned(),
                    file: file.rel.clone(),
                    line: f.line,
                    message: f.message,
                }),
            }
        }
        // D004 sites are tallied, not reported individually.
        for site in rules::d004_sites(&ctx) {
            match pragma_for(&file.pragmas, site.rule, site.line) {
                Some(p) if !p.missing_reason => outcome.suppressions.push(Suppression {
                    rule: site.rule.to_owned(),
                    file: file.rel.clone(),
                    line: site.line,
                    reason: p.reason.clone(),
                }),
                _ => outcome.d004_sites += 1,
            }
        }
        // A pragma without a justification is itself a violation — every
        // suppression must carry a reason.
        for p in &file.pragmas {
            if p.missing_reason {
                outcome.violations.push(Violation {
                    rule: p.rule.clone(),
                    file: file.rel.clone(),
                    line: p.comment_line,
                    message: format!(
                        "`onoc-lint: allow({})` pragma has no reason; write \
                         `allow({}, why this is sound)`",
                        p.rule, p.rule
                    ),
                });
            }
        }
    }

    apply_ratchet(root, ratchet, &mut outcome)?;
    outcome
        .violations
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    outcome
        .suppressions
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    Ok(outcome)
}

/// The pragma (if any) that targets `rule` on `line`.
fn pragma_for<'a>(pragmas: &'a [Pragma], rule: &str, line: usize) -> Option<&'a Pragma> {
    pragmas
        .iter()
        .find(|p| p.rule == rule && (p.target_line == line || p.comment_line == line))
}

/// Compares the D004 tally against `lint-ratchet.toml` (or rewrites it).
///
/// The comparison is exact in both directions: a count above the ratchet is
/// a regression, a count below it is a stale ratchet — CI verifies the file
/// matches the scan either way, and improvements must be banked by running
/// `--update-ratchet`.
fn apply_ratchet(root: &Path, mode: RatchetMode, outcome: &mut LintOutcome) -> io::Result<()> {
    let path = root.join(RATCHET_FILE);
    match mode {
        RatchetMode::Update => {
            fs::write(&path, report::ratchet_file_contents(outcome.d004_sites))?;
            outcome.d004_recorded = Some(outcome.d004_sites as u64);
        }
        RatchetMode::Enforce => {
            let recorded = fs::read_to_string(&path)
                .ok()
                .as_deref()
                .and_then(report::parse_ratchet);
            outcome.d004_recorded = recorded;
            let scanned = outcome.d004_sites as u64;
            match recorded {
                None => outcome.violations.push(Violation {
                    rule: "D004".to_owned(),
                    file: RATCHET_FILE.to_owned(),
                    line: 1,
                    message: format!(
                        "missing or unreadable {RATCHET_FILE}; run `onoc-lint \
                         --update-ratchet` to record the current count ({scanned})"
                    ),
                }),
                Some(r) if scanned > r => outcome.violations.push(Violation {
                    rule: "D004".to_owned(),
                    file: RATCHET_FILE.to_owned(),
                    line: 1,
                    message: format!(
                        "unwrap()/expect() count regressed: {scanned} sites vs ratchet {r}; \
                         remove the new sites or pragma them with a reason"
                    ),
                }),
                Some(r) if scanned < r => outcome.violations.push(Violation {
                    rule: "D004".to_owned(),
                    file: RATCHET_FILE.to_owned(),
                    line: 1,
                    message: format!(
                        "stale ratchet: {r} recorded but only {scanned} sites remain; \
                         bank the improvement with `onoc-lint --update-ratchet`"
                    ),
                }),
                Some(_) => {}
            }
        }
    }
    Ok(())
}

/// Does `dir` hold a `Cargo.toml` that declares `[workspace]`?
fn declares_workspace(dir: &Path) -> bool {
    fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|text| text.contains("[workspace]"))
}

/// Walks upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if declares_workspace(&d) {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
