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
//!   Nor does it name live introspection: that is one observer among
//!   others, reached through the one event path.
//! * A lane's counters have one writer: `WorkerShared::count` holds no
//!   read-modify-write, and every bump in the scheduler names the calling
//!   lane.
//! * Observability reads the front door and never writes it: no file under
//!   `src/introspect/` calls into `resilience` or takes a run off a tenant
//!   queue (`unqueue`, `retire`).
//! * Introspection's one observer is its lossy tracer: nothing under
//!   `src/introspect/` implements `ExecutorObserver`.
//! * The executor core never calls into live introspection: outside
//!   `src/introspect/`, only `lib.rs` (its re-exports) and `executor.rs`
//!   (the `Executor`'s service slot, `start_introspection`,
//!   `serve_introspection*` and `Drop`) name the module, `Inner` has no
//!   introspection field, and the front door and the scheduler do not name
//!   it at all.
//! * `src/resilience.rs` holds stages the front door calls, so it names
//!   neither the executor core (`Inner`) nor `frontdoor`.
//! * Each wire format has one writer: under `crates/*/src`, only
//!   `rustflow::wire` may spell the Prometheus exposition's header lines
//!   or a JSON string escape.
//! * Every count-down of a join counter (`join_counter`, `nested`) goes
//!   through the scheduler's one helper, `count_down`.
//! * There is one list of `rustflow_weaken` mutations, `build.rs`'s
//!   `KNOWN_MUTATIONS`; every other place that spells it out (the
//!   `check-cfg` sets, the `compile_error!`, `ACTIVE_WEAKEN`, CI's loops,
//!   README) names the same set.

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
fn the_scheduler_names_nothing_of_introspection() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/scheduler.rs");
    let violations = named_in_code(&path, &["introspect", "CurrentTask"]);
    assert!(
        violations.is_empty(),
        "the scheduler knows live introspection exists (it is one observer):\n{}",
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

/// Introspection records each fact once: its one observer is the lossy
/// tracer, so no file under `src/introspect/` implements an observer of
/// its own that a worker would call beside the ring push.
#[test]
fn introspection_implements_no_observer() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/introspect");
    let violations: Vec<String> = rust_files(&dir)
        .iter()
        .flat_map(|path| named_in_code(path, &["ExecutorObserver for"]))
        .collect();
    assert!(
        violations.is_empty(),
        "introspection adds a hook to the workers' event path:\n{}",
        violations.join("\n")
    );
}

/// Where `executor.rs` may name the `introspect` module: the item each of
/// these lines opens, up to the `}` at its indentation.
const INTROSPECT_SITES: [&str; 5] = [
    "pub struct Executor {",
    "pub fn start_introspection(",
    "pub fn serve_introspection(",
    "pub fn serve_introspection_with(",
    "impl Drop for Executor {",
];

/// Every code line of `executor.rs` that names the `introspect` module
/// outside [`INTROSPECT_SITES`], and every line of `Inner`'s body that
/// names introspection at all.
fn introspection_in_the_core(path: &Path) -> Vec<String> {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    let mut violations = Vec::new();
    let mut site_end: Option<String> = None;
    let mut in_inner = false;
    for (i, line) in text.lines().enumerate() {
        let code = line.split("//").next().unwrap_or("");
        let indent = &line[..line.len() - line.trim_start().len()];
        if site_end.is_none() && INTROSPECT_SITES.iter().any(|s| code.contains(s)) {
            site_end = Some(format!("{indent}}}"));
        }
        in_inner |= code.starts_with("pub(crate) struct Inner {");
        let named = code.contains("introspect::");
        if (named && site_end.is_none()) || (in_inner && code.to_lowercase().contains("introspect"))
        {
            violations.push(format!("{}:{}: {}", path.display(), i + 1, code.trim()));
        }
        if site_end.as_deref() == Some(line) {
            site_end = None;
        }
        in_inner &= line != "}";
    }
    violations
}

#[test]
fn the_executor_core_never_calls_into_introspection() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let (lib, executor) = (src.join("lib.rs"), src.join("executor.rs"));
    let mut violations = introspection_in_the_core(&executor);
    for path in rust_files(&src) {
        if path.starts_with(src.join("introspect")) || path == lib || path == executor {
            continue;
        }
        violations.extend(named_in_code(&path, &["introspect::", "mod introspect"]));
    }
    for file in ["frontdoor.rs", "scheduler.rs"] {
        let names = ["introspect", "Introspect", "Watchdog"];
        violations.extend(named_in_code(&src.join(file), &names));
    }
    assert!(
        violations.is_empty(),
        "the executor core reaches into live introspection:\n{}",
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

/// A lane's counters have one writer, so `WorkerShared::count` bumps them
/// with a load and a store. That holds only while the body has no
/// read-modify-write and every call site in the scheduler bumps the
/// calling lane (`ctx.id`, or `me`, its alias in `try_steal`); a bump of
/// another lane would race its owner's and lose updates.
#[test]
fn lane_counters_have_one_writer() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/scheduler.rs");
    let text = fs::read_to_string(&path).expect("scheduler.rs is readable");
    let body = between(&text, "fn count(&self, counter: Counter) {", "\n    }");
    let rmw: Vec<&str> = ["fetch_", "compare_exchange", "swap"]
        .into_iter()
        .filter(|op| body.contains(op))
        .collect();
    assert!(
        rmw.is_empty(),
        "WorkerShared::count uses an RMW ({rmw:?}) though a lane has one writer:\n{body}"
    );
    let mut violations = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let code = line.split("//").next().unwrap_or("").trim();
        let own_lane =
            code.contains("shareds[ctx.id].count(") || code.contains("shareds[me].count(");
        if (code.contains(".count(") && !code.contains(".count()") && !own_lane)
            || (code.starts_with("let me =") && code != "let me = ctx.id;")
        {
            violations.push(format!("{}:{}: {code}", path.display(), i + 1));
        }
    }
    assert!(
        violations.is_empty(),
        "a lane counter bumped from outside its lane:\n{}",
        violations.join("\n")
    );
}

/// Every count-down of a join counter goes through the scheduler's one
/// helper, `count_down` (the last arrival loads, the others decrement):
/// under `src/`, no code applies a `fetch_sub` or `fetch_update` straight
/// to a `join_counter` or a `nested` field, and the decrement's `JOIN`
/// ordering is spelt in one call, the helper's.
#[test]
fn every_join_count_down_goes_through_the_helper() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut violations = Vec::new();
    let mut join_spellings = 0;
    for path in rust_files(&src) {
        let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
        // Comments stripped and whitespace dropped, so a chain rustfmt
        // wrapped over several lines reads as one.
        let code: String = text
            .lines()
            .map(|line| line.split("//").next().unwrap_or(""))
            .collect::<String>()
            .split_whitespace()
            .collect();
        for field in [".join_counter", ".nested"] {
            for (at, _) in code.match_indices(field) {
                let rest = code[at + field.len()..].trim_start_matches(['}', ')']);
                if let Some(op) = [".fetch_sub", ".fetch_update"]
                    .into_iter()
                    .find(|op| rest.starts_with(op))
                {
                    violations.push(format!("{}: `{field}{op}`", path.display()));
                }
            }
        }
        join_spellings += code.matches(",JOIN)").count();
    }
    assert!(
        violations.is_empty(),
        "a join count-down bypasses `count_down`:\n{}",
        violations.join("\n")
    );
    let scheduler = fs::read_to_string(src.join("scheduler.rs")).expect("scheduler.rs");
    let helper = between(&scheduler, "fn count_down(", "\n}");
    assert!(
        helper.contains("fetch_sub(1, JOIN)") && join_spellings == 1,
        "`JOIN` must be spelt once, in `count_down`, not {join_spellings} times"
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

/// Every `"quoted"` word of `text`, in order.
fn quoted(text: &str) -> Vec<String> {
    text.split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_owned)
        .collect()
}

/// Every `` `ticked` `` word of `text`, in order.
fn ticked(text: &str) -> Vec<String> {
    text.split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_owned)
        .collect()
}

/// A file of the workspace, by its path from the root.
fn workspace_file(path: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    fs::read_to_string(root.join(path)).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// The text of `text` after the first `start`, up to the first `end`.
fn between<'a>(text: &'a str, start: &str, end: &str) -> &'a str {
    let (_, rest) = text
        .split_once(start)
        .unwrap_or_else(|| panic!("no `{start}`"));
    rest.split_once(end)
        .unwrap_or_else(|| panic!("no `{end}` after `{start}`"))
        .0
}

/// The words of CI's `for weaken in ...; do` loop whose body runs `suite`.
fn ci_loop(ci: &str, suite: &str) -> Vec<String> {
    ci.split("for weaken in ")
        .skip(1)
        .map(|rest| rest.split_once("; do").expect("a `; do` closes the list"))
        .find(|(_, body)| between(body, "", "done").contains(suite))
        .unwrap_or_else(|| panic!("no CI mutation loop runs `{suite}`"))
        .0
        .split_whitespace()
        .map(str::to_owned)
        .collect()
}

/// The one list of mutations is `build.rs`'s `KNOWN_MUTATIONS`: both
/// `check-cfg` value sets, the value-less `compile_error!` text,
/// `ACTIVE_WEAKEN` and CI's sanitizer loop name exactly it, and CI's model
/// loop and README's list name it without the `seed_*` entries (bugs the
/// sanitizer's scenarios plant, not orderings a model weakens).
#[test]
fn every_list_of_mutations_names_the_known_ones() {
    use std::collections::BTreeSet;
    let set = |list: &str, names: Vec<String>| -> BTreeSet<String> {
        let unique: BTreeSet<String> = names.iter().cloned().collect();
        assert_eq!(
            unique.len(),
            names.len(),
            "{list} names one twice: {names:?}"
        );
        unique
    };
    let build = workspace_file("crates/core/build.rs");
    let known = set(
        "build.rs",
        quoted(between(&build, "KNOWN_MUTATIONS: &[&str] = &[", "];")),
    );
    let orderings: BTreeSet<String> = known
        .iter()
        .filter(|name| !name.starts_with("seed_"))
        .cloned()
        .collect();
    assert!(!orderings.is_empty() && orderings.len() < known.len());

    let sanitize = workspace_file("crates/core/tests/sanitize.rs");
    let arms = quoted(between(&sanitize, "const ACTIVE_WEAKEN", "\n};"));
    // Each arm names its mutation twice: in `cfg!(..)` and in `Some(..)`.
    assert!(
        arms.chunks(2).all(|arm| arm.len() == 2 && arm[0] == arm[1]),
        "an ACTIVE_WEAKEN arm reports another name than it tests: {arms:?}"
    );
    let sync = workspace_file("crates/core/src/sync.rs");
    let compile_error = between(&sync, "known mutations:", "\"")
        .split(|c: char| c == ',' || c == '\\' || c.is_whitespace())
        .filter(|w| !w.is_empty())
        .map(str::to_owned)
        .collect();
    let check_cfg = |path: &str| quoted(between(&workspace_file(path), "values(none(),", "))"));
    let ci = workspace_file(".github/workflows/ci.yml");
    let readme = workspace_file("README.md");
    let lists = [
        (
            "crates/core/Cargo.toml",
            &known,
            check_cfg("crates/core/Cargo.toml"),
        ),
        (
            "crates/check/Cargo.toml",
            &known,
            check_cfg("crates/check/Cargo.toml"),
        ),
        ("the sync.rs compile_error!", &known, compile_error),
        (
            "ACTIVE_WEAKEN",
            &known,
            arms.into_iter().step_by(2).collect(),
        ),
        (
            "CI's sanitizer loop",
            &known,
            ci_loop(&ci, "--test sanitize"),
        ),
        ("CI's model loop", &orderings, ci_loop(&ci, "--test models")),
        (
            "README",
            &orderings,
            ticked(between(&readme, "ordering in the core (", ")")),
        ),
    ];
    for (list, expected, names) in lists {
        assert_eq!(&set(list, names), expected, "{list} drifted from build.rs");
    }
}
