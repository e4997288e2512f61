//! The five determinism & cache-safety rules (D001–D004, D006).
//!
//! Every rule is a pattern over the flat token stream produced by
//! [`crate::source::tokenize`]; none of them require type information, and
//! each one errs toward precision (a missed exotic spelling is acceptable, a
//! false positive on idiomatic code is not — that is what the inline
//! `// onoc-lint: allow(D00x, reason)` pragma is for).

use std::collections::{BTreeMap, BTreeSet};

use crate::source::{in_ranges, Token};

/// A raw finding before pragma suppression is applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`"D001"` … `"D006"`).
    pub rule: &'static str,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

/// Everything a per-file rule needs to know about one file.
pub struct FileContext<'a> {
    /// Workspace-relative path with forward slashes.
    pub path: &'a str,
    /// Token stream of the stripped source.
    pub tokens: &'a [Token],
    /// `#[cfg(test)] mod` line ranges.
    pub test_ranges: &'a [(usize, usize)],
    /// True for files under a `src/` directory (library code).
    pub is_src: bool,
}

impl FileContext<'_> {
    fn in_test_code(&self, line: usize) -> bool {
        !self.is_src || in_ranges(self.test_ranges, line)
    }
}

/// Methods whose call on a `HashMap`/`HashSet` walks it in randomized order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// D001: no iteration over `HashMap`/`HashSet` in deterministic library code.
///
/// Keyed lookup (`get`/`insert`/`contains_key`/`len`) is allowed; anything
/// that observes the randomized order is not.  The fix is `BTreeMap`,
/// `BTreeSet`, or an explicit sort.
#[must_use]
pub fn d001(ctx: &FileContext<'_>) -> Vec<Finding> {
    let tokens = ctx.tokens;
    let tracked = hash_bound_names(tokens);
    if tracked.is_empty() {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if ctx.in_test_code(t.line) {
            continue;
        }
        // `name . iter_method (`
        if tracked.contains(t.text.as_str())
            && tokens.get(i + 1).is_some_and(|n| n.text == ".")
            && tokens
                .get(i + 2)
                .is_some_and(|m| ITER_METHODS.contains(&m.text.as_str()))
            && tokens.get(i + 3).is_some_and(|p| p.text == "(")
        {
            findings.push(Finding {
                rule: "D001",
                line: t.line,
                message: format!(
                    "iteration over hash collection `{}` via `.{}()` has randomized order; \
                     use BTreeMap/BTreeSet or sort first",
                    t.text,
                    tokens[i + 2].text
                ),
            });
        }
        // `for pat in [&][mut] name {`
        if t.text == "for" {
            let Some(in_pos) = tokens[i + 1..]
                .iter()
                .take(24)
                .position(|x| x.text == "in")
                .map(|p| i + 1 + p)
            else {
                continue;
            };
            let mut j = in_pos + 1;
            while tokens
                .get(j)
                .is_some_and(|x| x.text == "&" || x.text == "mut" || x.text == "(")
            {
                j += 1;
            }
            if let Some(name) = tokens.get(j) {
                let next_opens_body = tokens
                    .get(j + 1)
                    .is_some_and(|x| x.text == "{" || x.text == ")");
                if tracked.contains(name.text.as_str()) && next_opens_body {
                    findings.push(Finding {
                        rule: "D001",
                        line: name.line,
                        message: format!(
                            "`for … in` over hash collection `{}` has randomized order; \
                             use BTreeMap/BTreeSet or sort first",
                            name.text
                        ),
                    });
                }
            }
        }
    }
    findings
}

/// Identifiers bound to a `HashMap`/`HashSet` in this file, discovered from
/// type annotations (`name: HashMap<..>`) and constructor bindings
/// (`let name = HashMap::new()`).
fn hash_bound_names(tokens: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (k, t) in tokens.iter().enumerate() {
        if t.text != "HashMap" && t.text != "HashSet" {
            continue;
        }
        // Step back over a qualifying path (`std :: collections :: HashMap`)
        // and reference sigils (`& mut HashMap`).
        let mut start = k;
        while start >= 2 && tokens[start - 1].text == "::" && tokens[start - 2].is_ident() {
            start -= 2;
        }
        while start >= 1 && matches!(tokens[start - 1].text.as_str(), "&" | "mut") {
            start -= 1;
        }
        if start == 0 {
            continue;
        }
        match tokens[start - 1].text.as_str() {
            // `name : HashMap<..>` — field, param, or annotated let.
            ":" if start >= 2 && tokens[start - 2].is_ident() => {
                names.insert(tokens[start - 2].text.clone());
            }
            // `name = HashMap::new()` / `let mut name = HashMap::with_..`.
            "=" if start >= 2 && tokens[start - 2].is_ident() => {
                names.insert(tokens[start - 2].text.clone());
            }
            _ => {}
        }
    }
    names
}

/// D002: wall clocks (`Instant::now`, `SystemTime`) are quarantined.
///
/// The only sanctioned homes are `onoc-parallel` shard timing and the
/// scale-out run timer in `crates/bench/src/perf.rs` — each of which carries
/// an inline pragma, so the rule itself has no allowlist.
#[must_use]
pub fn d002(ctx: &FileContext<'_>) -> Vec<Finding> {
    let tokens = ctx.tokens;
    let mut findings = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.text == "Instant"
            && tokens.get(i + 1).is_some_and(|x| x.text == "::")
            && tokens.get(i + 2).is_some_and(|x| x.text == "now")
        {
            findings.push(Finding {
                rule: "D002",
                line: t.line,
                message: "`Instant::now` outside the quarantined wall-clock sites; \
                          route timing through WallClockRegistry"
                    .to_owned(),
            });
        }
        if t.text == "SystemTime" {
            findings.push(Finding {
                rule: "D002",
                line: t.line,
                message: "`SystemTime` outside the quarantined wall-clock sites; \
                          deterministic code must not read host time"
                    .to_owned(),
            });
        }
    }
    findings
}

/// D003: every named field of a struct with a `fingerprint()` method must be
/// mentioned inside that method's body, so a newly added field cannot
/// silently alias the operating-point cache.
#[must_use]
pub fn d003(ctx: &FileContext<'_>) -> Vec<Finding> {
    let tokens = ctx.tokens;
    let structs = struct_fields(tokens);
    let mut findings = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].text != "impl" {
            i += 1;
            continue;
        }
        let Some((target, body_start, body_end)) = impl_header(tokens, i) else {
            i += 1;
            continue;
        };
        if let Some(fields) = structs.get(&target) {
            let mut j = body_start;
            while j < body_end {
                if tokens[j].text == "fn"
                    && tokens.get(j + 1).is_some_and(|t| t.text == "fingerprint")
                {
                    let fp_line = tokens[j].line;
                    if let Some((fs, fe)) = brace_block(tokens, j, body_end) {
                        let mentioned: BTreeSet<&str> = tokens[fs..fe]
                            .iter()
                            .filter(|t| t.is_ident())
                            .map(|t| t.text.as_str())
                            .collect();
                        for field in fields {
                            if !mentioned.contains(field.as_str()) {
                                findings.push(Finding {
                                    rule: "D003",
                                    line: fp_line,
                                    message: format!(
                                        "`{target}::fingerprint` does not mention field \
                                         `{field}`; un-hashed fields alias the cache"
                                    ),
                                });
                            }
                        }
                        j = fe;
                        continue;
                    }
                }
                j += 1;
            }
        }
        i = body_end.max(i + 1);
    }
    findings
}

/// Struct name → named-field list for every brace struct in the file.
fn struct_fields(tokens: &[Token]) -> BTreeMap<String, Vec<String>> {
    let mut out = BTreeMap::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].text != "struct" {
            i += 1;
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1).filter(|t| t.is_ident()) else {
            i += 1;
            continue;
        };
        // Walk past generics / where clause to the body opener.
        let mut j = i + 2;
        while j < tokens.len() && !matches!(tokens[j].text.as_str(), "{" | "(" | ";") {
            j += 1;
        }
        if tokens.get(j).is_none_or(|t| t.text != "{") {
            i = j;
            continue; // tuple or unit struct: no named fields to check
        }
        let Some((body_start, body_end)) = brace_block(tokens, j, tokens.len()) else {
            i = j + 1;
            continue;
        };
        let mut fields = Vec::new();
        // Split the body on commas at nesting depth zero; within each
        // segment the field name is the ident directly before the first `:`.
        let mut depth = 0i32;
        let mut seg_start = body_start;
        let mut prev_text = "";
        for k in body_start..=body_end {
            let text = tokens.get(k).map_or(",", |t| t.text.as_str());
            let at_end = k == body_end;
            match text {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => depth -= 1,
                "<" => depth += 1,
                // `->` never appears at field-segment depth 0, but guard the
                // shift-like `- >` pairing anyway.
                ">" if prev_text != "-" => depth -= 1,
                _ => {}
            }
            if (text == "," && depth == 0) || at_end {
                if let Some(name) = field_name(&tokens[seg_start..k]) {
                    fields.push(name);
                }
                seg_start = k + 1;
            }
            prev_text = text;
        }
        out.insert(name_tok.text.clone(), fields);
        i = body_end;
    }
    out
}

/// The field name of one comma-separated struct-body segment: the ident
/// right before the first top-level `:` (skipping attributes and `pub`).
fn field_name(segment: &[Token]) -> Option<String> {
    let mut i = 0usize;
    while i < segment.len() {
        if segment[i].text == "#" && segment.get(i + 1).is_some_and(|t| t.text == "[") {
            let mut depth = 1usize;
            i += 2;
            while i < segment.len() && depth > 0 {
                match segment[i].text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    _ => {}
                }
                i += 1;
            }
            continue;
        }
        if segment[i].text == "pub" {
            i += 1;
            if segment.get(i).is_some_and(|t| t.text == "(") {
                let mut depth = 1usize;
                i += 1;
                while i < segment.len() && depth > 0 {
                    match segment[i].text.as_str() {
                        "(" => depth += 1,
                        ")" => depth -= 1,
                        _ => {}
                    }
                    i += 1;
                }
            }
            continue;
        }
        return (segment[i].is_ident() && segment.get(i + 1).is_some_and(|t| t.text == ":"))
            .then(|| segment[i].text.clone());
    }
    None
}

/// For an `impl` at `tokens[i]`, the target type name and the body span
/// `(first_token_inside, index_of_closing_brace)`.
fn impl_header(tokens: &[Token], i: usize) -> Option<(String, usize, usize)> {
    let mut j = i + 1;
    // Skip `impl<...>` generic parameters.
    if tokens.get(j).is_some_and(|t| t.text == "<") {
        let mut depth = 1i32;
        j += 1;
        let mut prev = "";
        while j < tokens.len() && depth > 0 {
            match tokens[j].text.as_str() {
                "<" => depth += 1,
                ">" if prev != "-" => depth -= 1,
                _ => {}
            }
            prev = tokens[j].text.as_str();
            j += 1;
        }
    }
    // The target is the first path ident after `for` (trait impls) or after
    // the generics (inherent impls / the trait name, which has no
    // fingerprint-bearing struct registered, so it matching is harmless).
    let mut target: Option<String> = None;
    let mut brace = None;
    let mut depth = 0i32;
    let mut prev = "";
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "{" if depth == 0 => {
                brace = Some(j);
                break;
            }
            "<" => depth += 1,
            ">" if prev != "-" => depth -= 1,
            "for" => target = None, // the real target follows
            t if target.is_none()
                && depth == 0
                && tokens[j].is_ident()
                && !matches!(t, "where" | "dyn" | "mut" | "const") =>
            {
                target = Some(t.to_owned());
            }
            _ => {}
        }
        prev = tokens[j].text.as_str();
        j += 1;
    }
    // Resolve path targets like `crate :: bank :: RingBankState` to the last
    // segment by re-walking forward from the recorded first ident.
    let brace = brace?;
    let mut name = target?;
    let mut k = j;
    // Walk back from the brace to pick the last `ident` of the target path.
    while k > i {
        k -= 1;
        if tokens[k].is_ident() && !matches!(tokens[k].text.as_str(), "where" | "for") {
            // Skip generic parameter idents: they sit between `<` and `>`.
            let mut depth = 0i32;
            for t in &tokens[k + 1..brace] {
                match t.text.as_str() {
                    "<" => depth += 1,
                    ">" => depth -= 1,
                    _ => {}
                }
            }
            if depth == 0 {
                name = tokens[k].text.clone();
            }
            break;
        }
    }
    let (start, end) = brace_block(tokens, brace, tokens.len())?;
    Some((name, start, end))
}

/// From any index at or before an opening `{`, the span
/// `(first_inside, closing_brace_index)` of that brace block.
fn brace_block(tokens: &[Token], from: usize, limit: usize) -> Option<(usize, usize)> {
    let open = (from..limit).find(|&k| tokens[k].text == "{")?;
    let mut depth = 1usize;
    let mut k = open + 1;
    while k < limit {
        match tokens[k].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some((open + 1, k));
                }
            }
            _ => {}
        }
        k += 1;
    }
    None
}

/// D004: every `.unwrap()` / `.expect(` site in non-test library code.
///
/// Sites are not individual violations — the workspace total is compared
/// against the checked-in ratchet by the driver in `lib.rs`.
#[must_use]
pub fn d004_sites(ctx: &FileContext<'_>) -> Vec<Finding> {
    if !ctx.is_src {
        return Vec::new();
    }
    let tokens = ctx.tokens;
    let mut sites = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.text != "." {
            continue;
        }
        let Some(method) = tokens.get(i + 1) else {
            continue;
        };
        if (method.text == "unwrap" || method.text == "expect")
            && tokens.get(i + 2).is_some_and(|p| p.text == "(")
            && !ctx.in_test_code(method.line)
        {
            sites.push(Finding {
                rule: "D004",
                line: method.line,
                message: format!("`.{}()` in non-test library code", method.text),
            });
        }
    }
    sites
}

/// Environment accessors that smuggle ambient state into deterministic code.
const ENV_READERS: &[&str] = &["var", "vars", "var_os", "vars_os", "set_var", "remove_var"];

/// Ambient randomness constructors.
const RNG_AMBIENT: &[&str] = &["thread_rng", "from_entropy", "OsRng"];

/// D006: no `std::env` reads or ambient randomness in deterministic library
/// code (`env::args` in binaries and the `env!` macro are fine).
#[must_use]
pub fn d006(ctx: &FileContext<'_>) -> Vec<Finding> {
    let tokens = ctx.tokens;
    let mut findings = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if ctx.in_test_code(t.line) {
            continue;
        }
        if t.text == "env"
            && tokens.get(i + 1).is_some_and(|x| x.text == "::")
            && tokens
                .get(i + 2)
                .is_some_and(|x| ENV_READERS.contains(&x.text.as_str()))
        {
            findings.push(Finding {
                rule: "D006",
                line: t.line,
                message: format!(
                    "`env::{}` reads ambient process state in deterministic code",
                    tokens[i + 2].text
                ),
            });
        }
        if RNG_AMBIENT.contains(&t.text.as_str()) {
            findings.push(Finding {
                rule: "D006",
                line: t.line,
                message: format!(
                    "`{}` seeds randomness from the environment; derive seeds from \
                     scenario configuration instead",
                    t.text
                ),
            });
        }
    }
    findings
}
