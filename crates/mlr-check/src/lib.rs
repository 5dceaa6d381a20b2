//! `mlr-check`: the workspace invariant linter.
//!
//! mLR's correctness contract rests on invariants the compiler cannot see:
//! memoization and eviction decisions must be driven by **logical ticks**,
//! never wall-clock reads; every lock must go through the instrumented
//! `parking_lot` shim (so the `lockcheck` sanitizer sees it); threads come
//! from the runtime's worker pool and kernels fork through the rayon shim,
//! never through ad-hoc spawns or scopes; library code surfaces typed
//! errors instead of panicking on `unwrap()`. Each of these is pinned by
//! example-based tests, but nothing stops a new call site from quietly
//! reintroducing `Instant::now()` into a decision path — until this linter.
//!
//! The scanner is deliberately token-level, not a full parser: it masks
//! comments, strings and `#[cfg(test)]` items, then matches a handful of
//! unambiguous tokens (`Instant::now`, `std::sync::Mutex`, `.unwrap()`, …)
//! against the per-crate [`PolicyTable`]. That makes it fast (the whole
//! workspace scans in milliseconds), dependency-free, and — because every
//! rule is a plain substring the compiler would also accept — essentially
//! false-positive-free on rustfmt-formatted code.
//!
//! # Waivers
//!
//! A site that legitimately violates a rule is annotated in place:
//!
//! ```text
//! // mlr-check: allow(wall-clock) — decoration only: measured time feeds stats
//! let start = Instant::now();
//! ```
//!
//! The waiver names the rule it silences and must carry a justification
//! after the dash. It applies to its own line (trailing form) or to the
//! next line (standalone comment form). Waived findings are reported
//! separately and never fail the run, so the audit trail stays visible.

#![warn(missing_docs)]

use std::fmt;
use std::path::{Path, PathBuf};

pub mod policy;

pub use policy::{CratePolicy, PolicyTable};

/// The rules the scanner knows. Every rule has a stable kebab-case id used
/// in reports and waiver annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleId {
    /// `Instant::now` / `SystemTime` in deterministic library code: decision
    /// paths must run on logical ticks (`StoreClock`, iteration numbers).
    WallClock,
    /// `std::sync::{Mutex, RwLock, Condvar}` outside `shims/`: locks must go
    /// through the instrumented `parking_lot` shim so `lockcheck` sees them.
    StdSyncLock,
    /// `thread::spawn` / `thread::Builder` / `thread::scope` in library
    /// code: threads come from the runtime's worker pool, and kernels fork
    /// through the rayon shim, so the fork structure stays the one
    /// `mlr_lamino::kernel_threads_spawned` counts.
    ThreadSpawn,
    /// `.unwrap()` / `.expect(` in non-test library code: failures must
    /// surface as typed errors, not panics inside a worker.
    UnwrapExpect,
    /// `Instant::now` / `SystemTime` in a file that consumes `FaultPlan`:
    /// fault decisions must be pure in the plan and logical
    /// ticks so faulted runs replay bit-identically. Unlike
    /// [`RuleId::WallClock`] this rule is structural, not per-crate — it
    /// stays on even in harness binaries and relaxed crates, and only
    /// reports where the general rule is switched off (no double counting).
    FaultWallClock,
    /// `#![warn(missing_docs)]` missing from a crate that the policy table
    /// says has full public-item rustdoc coverage.
    MissingDocs,
}

impl RuleId {
    /// All rules, in report order.
    pub const ALL: [RuleId; 6] = [
        RuleId::WallClock,
        RuleId::StdSyncLock,
        RuleId::ThreadSpawn,
        RuleId::UnwrapExpect,
        RuleId::FaultWallClock,
        RuleId::MissingDocs,
    ];

    /// The stable id used in waiver annotations and reports.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::WallClock => "wall-clock",
            RuleId::StdSyncLock => "std-sync-lock",
            RuleId::ThreadSpawn => "thread-spawn",
            RuleId::UnwrapExpect => "unwrap-expect",
            RuleId::FaultWallClock => "fault-wall-clock",
            RuleId::MissingDocs => "missing-docs",
        }
    }

    /// Parses a waiver rule id.
    pub fn parse(name: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.name() == name)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One scanner hit: a rule matching at a line, either a violation or a
/// waived site (when `waived` carries the annotation's justification).
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path of the file.
    pub file: String,
    /// 1-based line of the match.
    pub line: usize,
    /// The rule that matched.
    pub rule: RuleId,
    /// The matching source line, trimmed.
    pub snippet: String,
    /// `Some(justification)` when an inline waiver covers the site.
    pub waived: Option<String>,
}

/// Scan outcome over a whole workspace (or a single source, in tests).
#[derive(Debug, Default)]
pub struct Report {
    /// Unwaived policy violations — any entry here fails the run.
    pub violations: Vec<Finding>,
    /// Waived sites, kept visible as the audit trail.
    pub waived: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the scan found no unwaived violations.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Serialises the report as JSON (the CI artifact).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        fn finding(f: &Finding) -> String {
            let mut s = format!(
                "{{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"snippet\": \"{}\"",
                esc(&f.file),
                f.line,
                f.rule,
                esc(&f.snippet)
            );
            if let Some(reason) = &f.waived {
                s.push_str(&format!(", \"waived\": \"{}\"", esc(reason)));
            }
            s.push('}');
            s
        }
        let violations: Vec<String> = self.violations.iter().map(finding).collect();
        let waived: Vec<String> = self.waived.iter().map(finding).collect();
        format!
            (
            "{{\n  \"files_scanned\": {},\n  \"violations\": [\n    {}\n  ],\n  \"waived\": [\n    {}\n  ]\n}}\n",
            self.files_scanned,
            violations.join(",\n    "),
            waived.join(",\n    ")
        )
    }
}

/// Byte classes after masking; only [`Mask::Code`] bytes are scannable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mask {
    Code,
    CommentOrString,
}

/// Masks comments, string/char literals so token matches never fire inside
/// them. Handles line + nested block comments, plain/raw/byte strings and
/// char literals vs. lifetimes.
fn mask_source(text: &str) -> Vec<Mask> {
    let bytes = text.as_bytes();
    let mut mask = vec![Mask::Code; bytes.len()];
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    mask[i] = Mask::CommentOrString;
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        depth += 1;
                        mask[i] = Mask::CommentOrString;
                        mask[i + 1] = Mask::CommentOrString;
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        mask[i] = Mask::CommentOrString;
                        mask[i + 1] = Mask::CommentOrString;
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        mask[i] = Mask::CommentOrString;
                        i += 1;
                    }
                }
            }
            b'"' => {
                mask[i] = Mask::CommentOrString;
                i += 1;
                while i < bytes.len() {
                    mask[i] = Mask::CommentOrString;
                    if bytes[i] == b'\\' {
                        if i + 1 < bytes.len() {
                            mask[i + 1] = Mask::CommentOrString;
                        }
                        i += 2;
                        continue;
                    }
                    let done = bytes[i] == b'"';
                    i += 1;
                    if done {
                        break;
                    }
                }
            }
            b'r' | b'b'
                if {
                    // Raw (and byte/raw-byte) string openers: r", r#", br"…
                    let mut j = i + 1;
                    if bytes[i] == b'b' && j < bytes.len() && bytes[j] == b'r' {
                        j += 1;
                    }
                    let mut hashes = 0;
                    while j < bytes.len() && bytes[j] == b'#' {
                        hashes += 1;
                        j += 1;
                    }
                    (bytes[i] != b'b' || i + 1 < bytes.len() && bytes[i + 1] == b'r')
                        && j < bytes.len()
                        && bytes[j] == b'"'
                        && (bytes[i] == b'r' || hashes > 0 || bytes[i] == b'b')
                } =>
            {
                // Re-derive the opener shape, then mask to the closing quote
                // followed by the same number of hashes.
                let start = i;
                let mut j = i + 1;
                if bytes[i] == b'b' && bytes[j] == b'r' {
                    j += 1;
                }
                let mut hashes = 0;
                while bytes[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                j += 1; // opening quote
                loop {
                    if j >= bytes.len() {
                        break;
                    }
                    if bytes[j] == b'"' {
                        let mut k = j + 1;
                        let mut seen = 0;
                        while k < bytes.len() && bytes[k] == b'#' && seen < hashes {
                            seen += 1;
                            k += 1;
                        }
                        if seen == hashes {
                            j = k;
                            break;
                        }
                    }
                    j += 1;
                }
                for m in mask.iter_mut().take(j.min(bytes.len())).skip(start) {
                    *m = Mask::CommentOrString;
                }
                i = j;
            }
            b'\'' => {
                // Char literal vs lifetime: a literal closes within a few
                // bytes ('x', '\n', '\u{1F600}'); a lifetime never closes.
                let mut j = i + 1;
                if j < bytes.len() && bytes[j] == b'\\' {
                    j += 2;
                    while j < bytes.len() && bytes[j] != b'\'' {
                        j += 1;
                    }
                    for m in mask.iter_mut().take((j + 1).min(bytes.len())).skip(i) {
                        *m = Mask::CommentOrString;
                    }
                    i = j + 1;
                } else if j + 1 < bytes.len() && bytes[j] != b'\'' && bytes[j + 1] == b'\'' {
                    mask[i] = Mask::CommentOrString;
                    mask[j] = Mask::CommentOrString;
                    mask[j + 1] = Mask::CommentOrString;
                    i = j + 2;
                } else {
                    i += 1; // lifetime: leave unmasked
                }
            }
            _ => i += 1,
        }
    }
    mask
}

/// Marks every byte inside `#[cfg(test)]`-attributed items (and anything
/// further down the file once a `#[cfg(test)] mod` opens) as excluded, by
/// brace-matching from the attribute.
fn test_code_spans(text: &str, mask: &[Mask]) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut spans = Vec::new();
    let needles: [&str; 2] = ["#[cfg(test)]", "#[cfg(all(test"];
    let mut at = 0;
    while at < text.len() {
        let hit = needles
            .iter()
            .filter_map(|n| text[at..].find(n).map(|p| p + at))
            .min();
        let Some(start) = hit else { break };
        if mask[start] != Mask::Code {
            at = start + 1;
            continue;
        }
        // From the end of the attribute, find the item's opening brace and
        // its match, skipping masked bytes.
        let mut i = start;
        let mut depth = 0usize;
        let mut opened = false;
        while i < bytes.len() {
            if mask[i] == Mask::Code {
                match bytes[i] {
                    b'{' => {
                        depth += 1;
                        opened = true;
                    }
                    b'}' => {
                        depth = depth.saturating_sub(1);
                        if opened && depth == 0 {
                            break;
                        }
                    }
                    b';' if !opened => break, // braceless item
                    _ => {}
                }
            }
            i += 1;
        }
        spans.push((start, i.min(bytes.len())));
        at = i.min(bytes.len()).max(start + 1);
    }
    spans
}

/// A waiver annotation parsed from a comment line.
#[derive(Debug, Clone)]
struct Waiver {
    rule: RuleId,
    reason: String,
    /// Line the waiver silences (its own for the trailing form, the next
    /// for the standalone form).
    target_line: usize,
}

const WAIVER_TOKEN: &str = "mlr-check: allow(";

fn parse_waivers(lines: &[&str]) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let Some(at) = line.find(WAIVER_TOKEN) else {
            continue;
        };
        let rest = &line[at + WAIVER_TOKEN.len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let Some(rule) = RuleId::parse(&rest[..close]) else {
            continue;
        };
        let reason = rest[close + 1..]
            .trim_start_matches([' ', '—', '-', ':'])
            .trim()
            .to_string();
        let standalone = line.trim_start().starts_with("//");
        waivers.push(Waiver {
            rule,
            reason,
            target_line: if standalone { idx + 2 } else { idx + 1 },
        });
    }
    waivers
}

/// Per-file rule toggles after the policy table is resolved (see
/// [`policy::CratePolicy::rules_for`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct RuleSet {
    /// Enforce [`RuleId::WallClock`].
    pub wall_clock: bool,
    /// Enforce [`RuleId::StdSyncLock`].
    pub std_sync_lock: bool,
    /// Enforce [`RuleId::ThreadSpawn`].
    pub thread_spawn: bool,
    /// Enforce [`RuleId::UnwrapExpect`].
    pub unwrap_expect: bool,
    /// Enforce [`RuleId::FaultWallClock`] (always on in the workspace
    /// policy — fault-path purity is not relaxable per crate).
    pub fault_wall_clock: bool,
}

impl RuleSet {
    /// Every line-level rule on (fixture tests use this).
    pub fn all() -> Self {
        Self {
            wall_clock: true,
            std_sync_lock: true,
            thread_spawn: true,
            unwrap_expect: true,
            fault_wall_clock: true,
        }
    }
}

/// Scans one source text against `rules`, returning all findings (waived
/// sites included, marked as such).
pub fn scan_source(file: &str, text: &str, rules: RuleSet) -> Vec<Finding> {
    let mask = mask_source(text);
    let excluded = test_code_spans(text, &mask);
    let raw_lines: Vec<&str> = text.lines().collect();
    let waivers = parse_waivers(&raw_lines);

    // Per-line masked copies: masked bytes blanked so token matches cannot
    // fire inside comments or literals.
    let mut masked_lines: Vec<String> = Vec::with_capacity(raw_lines.len());
    let mut line_starts: Vec<usize> = Vec::with_capacity(raw_lines.len());
    let mut offset = 0;
    for line in text.split_inclusive('\n') {
        line_starts.push(offset);
        let body = line.strip_suffix('\n').unwrap_or(line);
        let masked: String = body
            .char_indices()
            .map(|(i, c)| {
                if mask[offset + i] == Mask::Code {
                    c
                } else {
                    ' '
                }
            })
            .collect();
        masked_lines.push(masked);
        offset += line.len();
    }
    while masked_lines.len() < raw_lines.len() {
        masked_lines.push(String::new());
    }

    let in_test_code = |line_idx: usize| {
        let start = line_starts.get(line_idx).copied().unwrap_or(usize::MAX);
        excluded.iter().any(|&(s, e)| start >= s && start < e)
    };

    // A file *consumes* the fault layer when non-test code names its plan
    // (doc references live in comments and are masked away). Such a file's
    // wall-clock hygiene is enforced even where the general rule is relaxed.
    let fault_consumer = (masked_lines.iter().enumerate())
        .any(|(idx, l)| !in_test_code(idx) && l.contains("FaultPlan"));

    let mut findings = Vec::new();
    let mut push = |rule: RuleId, line_idx: usize, snippet: &str| {
        let waived = waivers
            .iter()
            .find(|w| w.rule == rule && w.target_line == line_idx + 1)
            .map(|w| {
                if w.reason.is_empty() {
                    "(no justification given)".to_string()
                } else {
                    w.reason.clone()
                }
            });
        findings.push(Finding {
            file: file.to_string(),
            line: line_idx + 1,
            rule,
            snippet: snippet.trim().to_string(),
            waived,
        });
    };

    for (idx, masked) in masked_lines.iter().enumerate() {
        if in_test_code(idx) {
            continue;
        }
        let raw = raw_lines.get(idx).copied().unwrap_or("");
        let wall_clock_token = masked.contains("Instant::now") || masked.contains("SystemTime");
        if rules.wall_clock && wall_clock_token {
            push(RuleId::WallClock, idx, raw);
        }
        if rules.fault_wall_clock && !rules.wall_clock && fault_consumer && wall_clock_token {
            push(RuleId::FaultWallClock, idx, raw);
        }
        if rules.std_sync_lock
            && masked.contains("std::sync")
            && ["Mutex", "RwLock", "Condvar"]
                .iter()
                .any(|t| masked.contains(t))
        {
            push(RuleId::StdSyncLock, idx, raw);
        }
        if rules.thread_spawn
            && ["thread::spawn", "thread::Builder", "thread::scope"]
                .iter()
                .any(|t| masked.contains(t))
        {
            push(RuleId::ThreadSpawn, idx, raw);
        }
        if rules.unwrap_expect && (masked.contains(".unwrap()") || masked.contains(".expect(")) {
            push(RuleId::UnwrapExpect, idx, raw);
        }
    }
    findings
}

/// Checks the `#![warn(missing_docs)]` presence rule for a crate's `lib.rs`
/// text; returns the finding when the attribute is absent.
pub fn check_missing_docs_attr(file: &str, text: &str) -> Option<Finding> {
    let mask = mask_source(text);
    let mut offset = 0;
    for line in text.split_inclusive('\n') {
        let body = line.strip_suffix('\n').unwrap_or(line);
        let masked: String = body
            .char_indices()
            .map(|(i, c)| {
                if mask[offset + i] == Mask::Code {
                    c
                } else {
                    ' '
                }
            })
            .collect();
        let compact: String = masked.chars().filter(|c| !c.is_whitespace()).collect();
        if compact.contains("#![warn(missing_docs)]") {
            return None;
        }
        offset += line.len();
    }
    Some(Finding {
        file: file.to_string(),
        line: 1,
        rule: RuleId::MissingDocs,
        snippet: "#![warn(missing_docs)] is absent from this crate's lib.rs".to_string(),
        waived: None,
    })
}

fn rust_files_under(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            rust_files_under(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    Ok(())
}

/// Scans every `crates/*/src` tree under `root` against the policy table.
pub fn scan_workspace(root: &Path, table: &PolicyTable) -> std::io::Result<Report> {
    let mut report = Report::default();
    for policy in table.crates() {
        let src = root.join("crates").join(policy.name).join("src");
        if !src.is_dir() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!(
                    "policy table names crate '{}' but {src:?} is missing",
                    policy.name
                ),
            ));
        }
        let mut files = Vec::new();
        rust_files_under(&src, &mut files)?;
        for path in files {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let text = std::fs::read_to_string(&path)?;
            let is_harness_bin = rel.contains("/src/bin/");
            let rules = policy.rules_for(is_harness_bin);
            for finding in scan_source(&rel, &text, rules) {
                match finding.waived {
                    Some(_) => report.waived.push(finding),
                    None => report.violations.push(finding),
                }
            }
            if policy.missing_docs && rel.ends_with("/src/lib.rs") {
                if let Some(f) = check_missing_docs_attr(&rel, &text) {
                    report.violations.push(f);
                }
            }
            report.files_scanned += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violations(findings: &[Finding]) -> Vec<(RuleId, usize)> {
        findings
            .iter()
            .filter(|f| f.waived.is_none())
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn wall_clock_fixture_flags_rule_and_line() {
        let text = include_str!("../fixtures/wall_clock.rs");
        let found = scan_source("fixtures/wall_clock.rs", text, RuleSet::all());
        assert_eq!(
            violations(&found),
            vec![(RuleId::WallClock, 4), (RuleId::WallClock, 9)]
        );
    }

    #[test]
    fn std_sync_lock_fixture_flags_rule_and_line() {
        let text = include_str!("../fixtures/std_sync_lock.rs");
        let found = scan_source("fixtures/std_sync_lock.rs", text, RuleSet::all());
        assert_eq!(
            violations(&found),
            vec![(RuleId::StdSyncLock, 3), (RuleId::StdSyncLock, 7)]
        );
    }

    #[test]
    fn thread_spawn_fixture_flags_rule_and_line() {
        let text = include_str!("../fixtures/thread_spawn.rs");
        let found = scan_source("fixtures/thread_spawn.rs", text, RuleSet::all());
        assert_eq!(
            violations(&found),
            vec![(RuleId::ThreadSpawn, 4), (RuleId::ThreadSpawn, 8)]
        );
    }

    #[test]
    fn unwrap_expect_fixture_flags_rule_and_line() {
        let text = include_str!("../fixtures/unwrap_expect.rs");
        let found = scan_source("fixtures/unwrap_expect.rs", text, RuleSet::all());
        assert_eq!(
            violations(&found),
            vec![(RuleId::UnwrapExpect, 4), (RuleId::UnwrapExpect, 9)]
        );
    }

    #[test]
    fn missing_docs_fixture_flags_absent_attribute() {
        let text = include_str!("../fixtures/missing_docs_lib.rs");
        let f = check_missing_docs_attr("fixtures/missing_docs_lib.rs", text)
            .expect("attribute absent");
        assert_eq!(f.rule, RuleId::MissingDocs);
        assert_eq!(f.line, 1);
        // A lib that has the attribute is clean.
        assert!(check_missing_docs_attr("lib.rs", "#![warn(missing_docs)]\n").is_none());
    }

    #[test]
    fn waivers_silence_both_forms_and_keep_the_audit_trail() {
        let text = include_str!("../fixtures/waived.rs");
        let found = scan_source("fixtures/waived.rs", text, RuleSet::all());
        assert!(
            violations(&found).is_empty(),
            "waived fixture must be violation-free, got {found:?}"
        );
        let waived: Vec<RuleId> = found.iter().map(|f| f.rule).collect();
        assert_eq!(waived, vec![RuleId::WallClock, RuleId::UnwrapExpect]);
        assert!(found[0]
            .waived
            .as_deref()
            .unwrap_or("")
            .contains("decoration"));
    }

    #[test]
    fn masked_fixture_produces_no_findings() {
        let text = include_str!("../fixtures/masked.rs");
        let found = scan_source("fixtures/masked.rs", text, RuleSet::all());
        assert!(
            found.is_empty(),
            "strings/comments/test code must be masked, got {found:?}"
        );
    }

    #[test]
    fn a_waiver_for_the_wrong_rule_does_not_silence() {
        let text = "fn f() {\n    // mlr-check: allow(wall-clock) — wrong rule\n    let x: Option<u32> = None; x.unwrap();\n}\n";
        let found = scan_source("inline.rs", text, RuleSet::all());
        assert_eq!(violations(&found), vec![(RuleId::UnwrapExpect, 3)]);
    }

    #[test]
    fn unwrap_or_variants_do_not_match() {
        let text =
            "fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(1) + x.unwrap_or_else(|| 2) + x.unwrap_or_default()\n}\n";
        assert!(scan_source("inline.rs", text, RuleSet::all()).is_empty());
    }

    #[test]
    fn disabled_rules_do_not_fire() {
        let text = "fn f() { let _ = std::time::Instant::now(); }\n";
        let mut rules = RuleSet::all();
        rules.wall_clock = false;
        assert!(scan_source("inline.rs", text, rules).is_empty());
    }

    #[test]
    fn fault_consumers_keep_wall_clock_hygiene_where_the_general_rule_is_off() {
        // A harness-style file (wall_clock relaxed) that consumes FaultPlan
        // must still not read the wall clock.
        let text = "use mlr_sim::faults::FaultPlan;\n\nfn drive(plan: &FaultPlan) {\n    let t = std::time::Instant::now();\n    let _ = (plan, t);\n}\n";
        let mut rules = RuleSet::all();
        rules.wall_clock = false;
        let found = scan_source("inline.rs", text, rules);
        assert_eq!(violations(&found), vec![(RuleId::FaultWallClock, 4)]);
        // The same file with the general rule on reports wall-clock once,
        // not twice.
        let strict = scan_source("inline.rs", text, RuleSet::all());
        assert_eq!(violations(&strict), vec![(RuleId::WallClock, 4)]);
    }

    #[test]
    fn fault_mentions_only_in_comments_or_tests_do_not_make_a_consumer() {
        // Doc references are masked; a test-only consumer is a test concern.
        let text = "// See [`FaultPlan`] for the schedule format.\nfn f() { let _ = std::time::Instant::now(); }\n\n#[cfg(test)]\nmod tests {\n    use mlr_sim::faults::FaultPlan;\n}\n";
        let mut rules = RuleSet::all();
        rules.wall_clock = false;
        assert!(scan_source("inline.rs", text, rules).is_empty());
    }

    #[test]
    fn report_json_escapes_and_lists() {
        let mut report = Report::default();
        report.violations.push(Finding {
            file: "a.rs".into(),
            line: 3,
            rule: RuleId::WallClock,
            snippet: "let t = Instant::now(); // \"decision\"".into(),
            waived: None,
        });
        report.files_scanned = 1;
        let json = report.to_json();
        assert!(json.contains("\"rule\": \"wall-clock\""));
        assert!(json.contains("\\\"decision\\\""));
        assert!(json.contains("\"files_scanned\": 1"));
    }
}
