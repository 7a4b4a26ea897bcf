//! Source audits, run by CI so violations fail the build with file:line.
//!
//! * Every `unsafe` block or `unsafe impl` in the core and checker crates
//!   must carry a `// SAFETY:` comment immediately above it (or trailing
//!   on the same line) stating the proof obligation it discharges.
//! * Every atomic operation in the core that names a non-Relaxed memory
//!   ordering (`Acquire`/`Release`/`AcqRel`/`SeqCst`) must carry a
//!   `// ORDERING:` comment stating what the ordering synchronizes — the
//!   happens-before edge it creates, or the fence protocol it belongs to.
//!   These comments are the human-readable counterpart of the sanitizer's
//!   vector-clock evidence (`crates/check/src/sanitize.rs`): a reviewer
//!   weakening an ordering must now contradict a written claim, not just
//!   delete an argument that was never recorded.
//! * The scheduler module (`src/scheduler.rs`, Algorithm 1) must name
//!   nothing of the serving layers beside it: no `use` of and no path into
//!   `frontdoor` or `resilience`, and none of their types. It reaches them
//!   through two calls on the executor core only (see the module's docs).
//! * Observability reads the front door and never writes it: no file under
//!   `src/introspect/` calls into `resilience` or takes a run off a tenant
//!   queue (`unqueue`, `retire`).
//! * `src/resilience.rs` holds stages the front door calls, so it names
//!   neither the executor core (`Inner`) nor `frontdoor`.
//! * Each wire format has one writer: under `crates/*/src`, only
//!   `rustflow::wire` may spell the Prometheus exposition's header lines
//!   or a JSON string escape.

use std::fs;
use std::path::{Path, PathBuf};

/// A code line that opens an unsafe region and therefore needs a nearby
/// SAFETY comment: an `unsafe {` block or an `unsafe impl` item.
/// (`unsafe fn` declarations are excluded — their obligation is the
/// `# Safety` doc section, which clippy's `missing_safety_doc` enforces.)
fn opens_unsafe_region(code: &str) -> bool {
    code.contains("unsafe {") || code.trim_start().starts_with("unsafe impl")
}

/// Lines the upward scan may step over between an unsafe site and its
/// SAFETY comment: attributes, a sibling unsafe site (one comment may
/// head a cluster, e.g. a Send/Sync impl pair or adjacent field inits),
/// and the `let x =` head of the same statement after rustfmt wraps it.
fn scannable(code: &str) -> bool {
    let t = code.trim();
    t.starts_with("//") || t.starts_with("#[") || t.ends_with('=') || opens_unsafe_region(code)
}

fn audit_file(path: &Path, violations: &mut Vec<String>) {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        // The audit covers production code; in-file `#[cfg(test)]` modules
        // (conventionally the tail of the file) are exempt.
        if line.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") || !opens_unsafe_region(line) {
            continue;
        }
        if line.contains("// SAFETY") {
            continue;
        }
        let mut documented = false;
        let mut j = i;
        while j > 0 {
            j -= 1;
            let above = lines[j];
            if above.trim_start().starts_with("//") && above.contains("SAFETY") {
                documented = true;
                break;
            }
            if !scannable(above) {
                break;
            }
        }
        if !documented {
            violations.push(format!("{}:{}: {}", path.display(), i + 1, trimmed));
        }
    }
}

/// Every `.rs` file under `dir`, recursively, in path order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read dir {dir:?}: {e}"))
        .map(|entry| entry.expect("dir entry").path())
        .collect();
    paths.sort();
    let mut files = Vec::new();
    for path in paths {
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    files
}

/// A non-comment code line that names a non-Relaxed memory ordering.
fn uses_nonrelaxed_ordering(code: &str) -> bool {
    let t = code.trim_start();
    if t.starts_with("//") {
        return false;
    }
    // Strip a trailing comment so the tokens are matched in code only.
    let code_part = match t.find("//") {
        Some(idx) => &t[..idx],
        None => t,
    };
    ["Acquire", "Release", "AcqRel", "SeqCst"]
        .iter()
        .any(|tok| code_part.contains(tok))
}

/// Lines the upward scan may step over between an ordering use and its
/// ORDERING comment: comments, attributes (`#[cfg(...)]` mutation gates),
/// and earlier lines of the same rustfmt-wrapped statement or item (a
/// `const X: Ordering = if cfg!(..) { .. }` weaken gate spans several).
/// The scan stops at a statement boundary — a blank line or a line ending
/// in `;` or `}` — so a comment can only document the statement it heads.
fn ordering_scannable(code: &str) -> bool {
    let t = code.trim();
    t.starts_with("//")
        || t.starts_with("#[")
        || (!t.is_empty() && !t.ends_with(';') && !t.ends_with('}'))
        || uses_nonrelaxed_ordering(code)
}

fn audit_orderings(path: &Path, violations: &mut Vec<String>) {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        // Production code only; `#[cfg(test)]` tail modules are exempt.
        if line.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        if !uses_nonrelaxed_ordering(line) {
            continue;
        }
        if line.contains("// ORDERING") {
            continue;
        }
        let mut documented = false;
        let mut j = i;
        while j > 0 {
            j -= 1;
            let above = lines[j];
            if above.trim_start().starts_with("//") && above.contains("ORDERING") {
                documented = true;
                break;
            }
            if !ordering_scannable(above) {
                break;
            }
        }
        if !documented {
            violations.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
        }
    }
}

#[test]
fn every_unsafe_block_has_a_safety_comment() {
    let core_src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let check_src = Path::new(env!("CARGO_MANIFEST_DIR")).join("../check/src");
    let mut violations = Vec::new();
    for path in rust_files(&core_src).iter().chain(&rust_files(&check_src)) {
        audit_file(path, &mut violations);
    }
    assert!(
        violations.is_empty(),
        "unsafe sites missing a // SAFETY: comment:\n{}",
        violations.join("\n")
    );
}

#[test]
fn every_nonrelaxed_atomic_op_documents_its_ordering() {
    let core_src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut violations = Vec::new();
    for path in rust_files(&core_src) {
        audit_orderings(&path, &mut violations);
    }
    assert!(
        violations.is_empty(),
        "non-Relaxed atomic ops missing a // ORDERING: comment:\n{}",
        violations.join("\n")
    );
}

/// Names the scheduler's code may not contain (comments may): the serving
/// modules and the types a path into them would need.
const SERVING_NAMES: [&str; 7] = [
    "frontdoor",
    "resilience",
    "Tenant",
    "TenantState",
    "QosState",
    "Breaker",
    "RetryBudget",
];

/// Every code line of `path` (comments stripped) that names one of
/// `names`, as `file:line: `name``.
fn named_in_code(path: &Path, names: &[&str]) -> Vec<String> {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    let mut violations = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let code = line.split("//").next().unwrap_or("");
        for name in names {
            if code.contains(name) {
                violations.push(format!("{}:{}: `{name}`", path.display(), i + 1));
            }
        }
    }
    violations
}

#[test]
fn the_scheduler_names_nothing_of_the_serving_layers() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/scheduler.rs");
    let violations = named_in_code(&path, &SERVING_NAMES);
    assert!(
        violations.is_empty(),
        "the scheduler reaches into the serving layers:\n{}",
        violations.join("\n")
    );
}

#[test]
fn introspection_never_writes_the_front_door() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/introspect");
    let violations: Vec<String> = rust_files(&dir)
        .iter()
        .flat_map(|path| named_in_code(path, &["resilience::", "unqueue", "retire"]))
        .collect();
    assert!(
        violations.is_empty(),
        "introspection writes into the front door:\n{}",
        violations.join("\n")
    );
}

#[test]
fn resilience_names_neither_the_core_nor_the_front_door() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/resilience.rs");
    let violations = named_in_code(&path, &["Inner", "frontdoor"]);
    assert!(
        violations.is_empty(),
        "resilience reaches back into its callers:\n{}",
        violations.join("\n")
    );
}

/// What a second writer of either format would have to spell: the
/// exposition's two header lines, and the `\u00XX` escape only JSON has
/// (as a format string or as a literal prefix).
const WRITER_MARKS: [&str; 4] = ["# HELP", "# TYPE", "\\\\u{:0", "\\\\u00"];

#[test]
fn each_wire_format_has_one_writer() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut violations = Vec::new();
    for krate in fs::read_dir(&crates)
        .expect("crates/ is readable")
        .flatten()
    {
        let src = krate.path().join("src");
        if !src.is_dir() {
            continue;
        }
        let wire = src.join("wire");
        for path in rust_files(&src).iter().filter(|p| !p.starts_with(&wire)) {
            let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
            for (i, line) in text.lines().enumerate() {
                if let Some(mark) = WRITER_MARKS.iter().find(|mark| line.contains(**mark)) {
                    violations.push(format!("{}:{}: `{mark}`", path.display(), i + 1));
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "a wire format written outside rustflow::wire:\n{}",
        violations.join("\n")
    );
}
