//! Doc lint, run by CI beside the source audits: every command the written
//! record spells must still run. A `--bin X` in the docs names a
//! `crates/bench/src/bin/X.rs`, and a `--part Y` names a part some gate
//! binary accepts: an artifact of the `paper` runner's `ARTIFACTS` table
//! or a `wants_part("Y")` literal under `crates/bench/src` (a dotted
//! panel such as `fig10.util` is one). A renamed binary or panel otherwise
//! leaves the docs with commands that fail or silently run nothing.
//!
//! The same holds for metric names: every `rustflow_*` family the docs
//! name is declared as a string literal under `crates/core/src`, so a
//! deleted counter cannot live on in an operator's runbook.

use std::fs;
use std::path::{Path, PathBuf};

/// The written record the lint reads, relative to the repository root.
const DOCS: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("read dir {dir:?}: {e}")) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    files
}

/// The operand after each `flag` in `text`, with its 1-based line. The
/// operand may sit on the next line (prose wraps) and is a run of
/// `[A-Za-z0-9_.|-]` without a trailing `.`; a flag followed directly by
/// punctuation (`` `--part` `` in a sentence) or by a placeholder such as
/// `<artifact>` names nothing.
fn operands<'a>(text: &'a str, flag: &str) -> Vec<(usize, &'a str)> {
    let mut found = Vec::new();
    for (at, _) in text.match_indices(flag) {
        let rest = &text[at + flag.len()..];
        let word = rest.trim_start();
        if word.len() == rest.len() {
            continue;
        }
        let end = word
            .find(|c: char| !(c.is_ascii_alphanumeric() || "_.|-".contains(c)))
            .unwrap_or(word.len());
        let word = word[..end].trim_end_matches('.');
        if !word.is_empty() {
            found.push((text[..at].matches('\n').count() + 1, word));
        }
    }
    found
}

/// Every `--part` some gate binary accepts.
fn accepted_parts(bench_src: &Path) -> Vec<String> {
    let quoted_after = |text: &str, opener: &str| -> Vec<String> {
        text.split(opener)
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
            .collect()
    };
    let mut parts: Vec<String> = rust_files(bench_src)
        .iter()
        .flat_map(|path| quoted_after(&read(path), "wants_part(\""))
        .collect();
    // The paper runner passes each artifact's name from one table.
    let paper = read(&bench_src.join("paper.rs"));
    let table = paper
        .split("const ARTIFACTS")
        .nth(1)
        .and_then(|rest| rest.split("];").next())
        .expect("paper.rs declares its ARTIFACTS table");
    parts.extend(quoted_after(table, "(\""));
    parts
}

#[test]
fn every_bin_and_part_the_docs_name_exists() {
    let root = root();
    let bins = root.join("crates/bench/src/bin");
    let parts = accepted_parts(&root.join("crates/bench/src"));
    let (mut stale, mut seen) = (Vec::new(), 0);
    for doc in DOCS {
        let text = read(&root.join(doc));
        for (line, bin) in operands(&text, "--bin") {
            seen += 1;
            if !bins.join(format!("{bin}.rs")).is_file() {
                stale.push(format!("{doc}:{line}: --bin {bin}"));
            }
        }
        for (line, word) in operands(&text, "--part") {
            for part in word.split('|') {
                seen += 1;
                if !parts.iter().any(|p| p == part) {
                    stale.push(format!("{doc}:{line}: --part {part}"));
                }
            }
        }
    }
    assert!(seen > 0, "the lint found no command to check");
    assert!(
        stale.is_empty(),
        "the docs name a gate binary or part that does not exist:\n{}",
        stale.join("\n")
    );
}

/// Names the docs may spell with the `rustflow_` prefix that are no metric
/// family: the model checker's and the mutation sweep's cfg names.
const NOT_METRICS: [&str; 2] = ["rustflow_check", "rustflow_weaken"];

/// Suffixes the Prometheus exposition adds to a histogram family's name.
const HISTOGRAM_SUFFIXES: [&str; 3] = ["_bucket", "_sum", "_count"];

/// Every `rustflow_*` word in `text`, with its 1-based line. A word
/// followed by `*` (`rustflow_tenant_*`) keeps the `*`: it names the
/// families that start with it.
fn metric_names(text: &str) -> Vec<(usize, &str)> {
    let mut found = Vec::new();
    for (at, _) in text.match_indices("rustflow_") {
        if text[..at]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            continue;
        }
        let rest = &text[at..];
        let end = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        let end = end + usize::from(rest[end..].starts_with('*'));
        found.push((text[..at].matches('\n').count() + 1, &rest[..end]));
    }
    found
}

#[test]
fn every_metric_the_docs_name_is_declared() {
    let root = root();
    let sources: String = rust_files(&root.join("crates/core/src"))
        .iter()
        .map(|path| read(path))
        .collect();
    let declared = |name: &str| match name.strip_suffix('*') {
        Some(prefix) => sources.contains(&format!("\"{prefix}")),
        None => sources.contains(&format!("\"{name}\"")),
    };
    let (mut stale, mut seen) = (Vec::new(), 0);
    for doc in DOCS {
        let text = read(&root.join(doc));
        for (line, name) in metric_names(&text) {
            if NOT_METRICS.contains(&name) {
                continue;
            }
            seen += 1;
            let family = HISTOGRAM_SUFFIXES
                .iter()
                .find_map(|suffix| name.strip_suffix(suffix))
                .filter(|family| declared(family));
            if !declared(name) && family.is_none() {
                stale.push(format!("{doc}:{line}: {name}"));
            }
        }
    }
    assert!(seen > 0, "the lint found no metric name to check");
    assert!(
        stale.is_empty(),
        "the docs name a metric family no source declares:\n{}",
        stale.join("\n")
    );
}
