//! The Prometheus text exposition format, both directions,
//! dependency-free: the label-value escaper, the family writer
//! ([`header`], [`sample`], [`histogram`]) behind every `# HELP` / `# TYPE`
//! line this crate and `tf-bench` emit, and a strict parser ([`parse`])
//! the gates validate live `/metrics` scrapes with.
//!
//! "Strict" means a torn or interleaved exposition is an **error**, not
//! a shrug: families must be contiguous (HELP, TYPE, then every sample
//! of that family before the next family starts), every sample must
//! belong to the most recent family (allowing the `_bucket`/`_sum`/
//! `_count` suffixes of histograms and summaries), label syntax must be
//! well-formed, values must parse, and no name+labels pair may repeat.
//! A scrape raced against a concurrent writer that produced overlapping
//! families fails here — which is exactly what the gate wants to catch.

use std::fmt::{Display, Write as _};

/// Escapes a label *value* per the text exposition format: backslash,
/// double-quote, and line-feed become `\\`, `\"`, and `\n`.
pub fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// A label set as it stands between a sample's braces:
/// `key="value",key="value"`, values escaped.
pub fn labels(pairs: &[(&str, &str)]) -> String {
    let rendered: Vec<String> = pairs
        .iter()
        .map(|(key, value)| format!("{key}=\"{}\"", escape_label_value(value)))
        .collect();
    rendered.join(",")
}

/// Opens a family: its `# HELP` and `# TYPE` lines (`kind` is `counter`,
/// `gauge` or `histogram`). Every sample of the family follows before the
/// next header.
pub fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
}

/// One sample line of the open family. `labels` is a rendered label set
/// ([`labels`]), `""` for none.
pub fn sample(out: &mut String, name: &str, labels: &str, value: impl Display) {
    let _ = match labels {
        "" => writeln!(out, "{name} {value}"),
        _ => writeln!(out, "{name}{{{labels}}} {value}"),
    };
}

/// One series of an open histogram family: a cumulative `_bucket` sample
/// per inclusive upper bound in `bounds` with `le` after `labels`, closed
/// by `le="+Inf"`, then `_sum` and `_count`. `counts` are per bucket, not
/// cumulative, with one more entry than `bounds` for the overflow bucket.
pub fn histogram(
    out: &mut String,
    name: &str,
    labels: &str,
    bounds: &[u64],
    counts: &[u64],
    sum: u64,
) {
    let sep = if labels.is_empty() { "" } else { "," };
    let bucket = format!("{name}_bucket");
    let mut cumulative = 0u64;
    for (bound, count) in bounds.iter().zip(counts) {
        cumulative += count;
        sample(
            out,
            &bucket,
            &format!("{labels}{sep}le=\"{bound}\""),
            cumulative,
        );
    }
    cumulative += counts[bounds.len()];
    sample(
        out,
        &bucket,
        &format!("{labels}{sep}le=\"+Inf\""),
        cumulative,
    );
    sample(out, &format!("{name}_sum"), labels, sum);
    sample(out, &format!("{name}_count"), labels, cumulative);
}

/// One parsed sample: metric name (with suffix), label pairs in source
/// order, and the value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Full sample name, e.g. `rustflow_task_duration_us_bucket`.
    pub name: String,
    /// Label pairs in source order, unescaped.
    pub labels: Vec<(String, String)>,
    /// Sample value (`+Inf`/`-Inf`/`NaN` accepted).
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// One metric family: its metadata plus every sample that followed it.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    /// Family name (without histogram suffixes).
    pub name: String,
    /// HELP text ("" if the family had no HELP line).
    pub help: String,
    /// TYPE ("untyped" if the family had no TYPE line).
    pub kind: String,
    /// Samples in source order.
    pub samples: Vec<Sample>,
}

/// A fully parsed, validated exposition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exposition {
    /// Families in source order.
    pub families: Vec<Family>,
}

impl Exposition {
    /// The family named `name`, if present.
    pub fn family(&self, name: &str) -> Option<&Family> {
        self.families.iter().find(|f| f.name == name)
    }

    /// Sum of every sample value in family `name` (0.0 if absent) —
    /// collapses per-worker labels into one number.
    pub fn total(&self, name: &str) -> f64 {
        self.family(name)
            .map(|f| f.samples.iter().map(|s| s.value).sum())
            .unwrap_or(0.0)
    }
}

/// Parses and validates `text`. Any format violation — including the
/// torn-family interleavings a racy renderer could produce — is an
/// `Err` naming the offending line.
pub fn parse(text: &str) -> Result<Exposition, String> {
    let mut out = Exposition::default();
    let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut keys: std::collections::HashSet<String> = std::collections::HashSet::new();
    for (ln, line) in text.lines().enumerate() {
        let err = |msg: &str| format!("line {}: {msg}: {line}", ln + 1);
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            let (kind, rest) = rest
                .split_once(' ')
                .ok_or_else(|| err("bare comment in exposition"))?;
            if kind != "HELP" && kind != "TYPE" {
                return Err(err("comment is neither HELP nor TYPE"));
            }
            let (name, text) = match rest.split_once(' ') {
                Some((n, t)) => (n, t),
                None => (rest, ""),
            };
            if !valid_name(name) {
                return Err(err("invalid metric name"));
            }
            let open = out.families.last_mut().filter(|f| f.name == name);
            match open {
                Some(f) => {
                    // Second metadata line for the family we're already in.
                    if kind == "HELP" {
                        if !f.help.is_empty() {
                            return Err(err("duplicate HELP"));
                        }
                        f.help = text.to_string();
                    } else {
                        if f.kind != "untyped" {
                            return Err(err("duplicate TYPE"));
                        }
                        if !f.samples.is_empty() {
                            return Err(err("TYPE after samples"));
                        }
                        f.kind = text.trim().to_string();
                    }
                }
                None => {
                    if !seen.insert(name.to_string()) {
                        return Err(err("family reopened (torn exposition)"));
                    }
                    out.families.push(Family {
                        name: name.to_string(),
                        help: if kind == "HELP" {
                            text.to_string()
                        } else {
                            String::new()
                        },
                        kind: if kind == "TYPE" {
                            text.trim().to_string()
                        } else {
                            "untyped".to_string()
                        },
                        samples: Vec::new(),
                    });
                }
            }
            continue;
        }
        // Sample line.
        let sample = parse_sample(line).map_err(|m| err(&m))?;
        let family = out
            .families
            .last_mut()
            .ok_or_else(|| err("sample before any HELP/TYPE"))?;
        let base_ok = sample.name == family.name
            || (matches!(family.kind.as_str(), "histogram" | "summary")
                && ["_bucket", "_sum", "_count"]
                    .iter()
                    .any(|suf| sample.name.strip_suffix(suf) == Some(family.name.as_str())));
        if !base_ok {
            return Err(err(&format!(
                "sample outside current family {} (torn exposition)",
                family.name
            )));
        }
        let key = format!("{}|{:?}", sample.name, sample.labels);
        if !keys.insert(key) {
            return Err(err("duplicate sample (name + labels)"));
        }
        family.samples.push(sample);
    }
    Ok(out)
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let (head, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| "sample without value".to_string())?;
    let value = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v
            .parse::<f64>()
            .map_err(|_| format!("unparseable value {v:?}"))?,
    };
    let (name, labels) = match head.split_once('{') {
        None => (head.trim_end(), Vec::new()),
        Some((name, rest)) => {
            let body = rest
                .trim_end()
                .strip_suffix('}')
                .ok_or_else(|| "unterminated label set".to_string())?;
            (name, parse_labels(body)?)
        }
    };
    if !valid_name(name) {
        return Err(format!("invalid sample name {name:?}"));
    }
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let b = body.as_bytes();
    let mut i = 0;
    while i < b.len() {
        let start = i;
        while i < b.len() && b[i] != b'=' {
            i += 1;
        }
        let key = body[start..i].trim();
        if key.is_empty() || i >= b.len() {
            return Err("label without '='".to_string());
        }
        i += 1; // '='
        if b.get(i) != Some(&b'"') {
            return Err("label value not quoted".to_string());
        }
        i += 1;
        let mut value = String::new();
        loop {
            match b.get(i) {
                None => return Err("unterminated label value".to_string()),
                Some(b'"') => {
                    i += 1;
                    break;
                }
                Some(b'\\') => {
                    match b.get(i + 1) {
                        Some(b'"') => value.push('"'),
                        Some(b'\\') => value.push('\\'),
                        Some(b'n') => value.push('\n'),
                        _ => return Err("bad escape in label value".to_string()),
                    }
                    i += 2;
                }
                Some(_) => {
                    // One whole scalar: `i` only ever stops on a boundary.
                    let c = body[i..].chars().next().expect("in bounds");
                    value.push(c);
                    i += c.len_utf8();
                }
            }
        }
        labels.push((key.to_string(), value));
        match b.get(i) {
            None => break,
            Some(b',') => i += 1,
            _ => return Err("expected ',' or end after label".to_string()),
        }
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_counters_gauges_and_histograms() {
        let text = "\
# HELP rf_tasks_total Tasks.\n\
# TYPE rf_tasks_total counter\n\
rf_tasks_total{worker=\"0\"} 10\n\
rf_tasks_total{worker=\"1\"} 32\n\
# HELP rf_depth Queue depth.\n\
# TYPE rf_depth gauge\n\
rf_depth 3\n\
# HELP rf_dur Durations.\n\
# TYPE rf_dur histogram\n\
rf_dur_bucket{le=\"1\"} 1\n\
rf_dur_bucket{le=\"+Inf\"} 4\n\
rf_dur_sum 9\n\
rf_dur_count 4\n";
        let exp = parse(text).expect("valid exposition");
        assert_eq!(exp.families.len(), 3);
        assert_eq!(exp.total("rf_tasks_total"), 42.0);
        let f = exp.family("rf_tasks_total").unwrap();
        assert_eq!(f.kind, "counter");
        assert_eq!(f.samples[1].label("worker"), Some("1"));
        let h = exp.family("rf_dur").unwrap();
        assert_eq!(h.samples.len(), 4);
        assert_eq!(h.samples[1].label("le"), Some("+Inf"));
    }

    #[test]
    fn rejects_torn_families() {
        // Family A reopened after B started: the interleaving a racy
        // renderer would produce.
        let torn = "\
# TYPE a counter\n\
a 1\n\
# TYPE b counter\n\
b 2\n\
# TYPE a counter\n\
a{worker=\"1\"} 3\n";
        assert!(parse(torn).unwrap_err().contains("reopened"));
        // A stray sample from another family inside a block.
        let stray = "# TYPE a counter\na 1\nb 2\n";
        assert!(parse(stray).unwrap_err().contains("outside current family"));
        // Histogram suffixes only count for histogram/summary types.
        let fake = "# TYPE a counter\na_sum 1\n";
        assert!(parse(fake).is_err());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse("a 1\n").is_err(), "sample before metadata");
        assert!(parse("# TYPE a counter\na{w=\"0\" 1\n").is_err());
        assert!(parse("# TYPE a counter\na nope\n").is_err());
        assert!(parse("# TYPE a counter\na 1\na 2\n").is_err(), "duplicate");
        assert!(parse("# NOTE a hi\n").is_err());
    }

    proptest::proptest! {
        /// Any label value the writer emits parses back equal, wherever it
        /// stands in the label set.
        #[test]
        fn any_label_value_round_trips(first in crate::wire::hostile_string(),
                                       second in crate::wire::hostile_string()) {
            let mut text = String::new();
            header(&mut text, "a", "Help.", "gauge");
            sample(&mut text, "a", &labels(&[("x", &first), ("y", &second)]), 3);
            let exp = parse(&text).map_err(proptest::TestCaseError::fail)?;
            let parsed = &exp.families[0].samples[0];
            proptest::prop_assert_eq!(parsed.label("x"), Some(first.as_str()));
            proptest::prop_assert_eq!(parsed.label("y"), Some(second.as_str()));
            proptest::prop_assert_eq!(parsed.value, 3.0);
        }

        /// A histogram family, one series without extra labels or two with
        /// them, parses with cumulative buckets in `le` order, closed by a
        /// `+Inf` bucket equal to `_count`.
        #[test]
        fn any_histogram_family_round_trips(
            counts in proptest::collection::vec(0u64..1000, 1..12),
            sum in 0u64..1_000_000,
            tenant in crate::wire::hostile_string(),
            labelled in 0usize..2,
        ) {
            let bounds: Vec<u64> = (1..counts.len() as u64).map(|i| i * 10).collect();
            let series: Vec<String> = match labelled {
                0 => vec![String::new()],
                _ => ["e2e", "exec"]
                    .map(|phase| labels(&[("tenant", &tenant), ("phase", phase)]))
                    .to_vec(),
            };
            let mut text = String::new();
            header(&mut text, "h_us", "Help.", "histogram");
            for labels in &series {
                histogram(&mut text, "h_us", labels, &bounds, &counts, sum);
            }
            let exp = parse(&text).map_err(proptest::TestCaseError::fail)?;
            let family = exp.family("h_us").expect("family");
            proptest::prop_assert_eq!(family.kind.as_str(), "histogram");
            for (i, chunk) in family.samples.chunks(counts.len() + 2).enumerate() {
                let (buckets, tail) = chunk.split_at(counts.len());
                let mut cumulative = 0.0;
                for (bucket, count) in buckets.iter().zip(&counts) {
                    cumulative += *count as f64;
                    proptest::prop_assert_eq!(bucket.name.as_str(), "h_us_bucket");
                    proptest::prop_assert_eq!(bucket.value, cumulative);
                }
                let les: Vec<&str> = buckets.iter().filter_map(|b| b.label("le")).collect();
                let expect: Vec<String> = bounds.iter().map(u64::to_string).collect();
                proptest::prop_assert_eq!(&les[..bounds.len()], &expect[..]);
                proptest::prop_assert_eq!(les[bounds.len()], "+Inf");
                proptest::prop_assert_eq!(tail[0].name.as_str(), "h_us_sum");
                proptest::prop_assert_eq!(tail[0].value, sum as f64);
                proptest::prop_assert_eq!(tail[1].name.as_str(), "h_us_count");
                proptest::prop_assert_eq!(tail[1].value, cumulative);
                if labelled == 1 {
                    proptest::prop_assert_eq!(tail[1].label("tenant"), Some(tenant.as_str()));
                    proptest::prop_assert_eq!(tail[1].label("phase"), Some(["e2e", "exec"][i]));
                }
            }
        }
    }

    #[test]
    fn labels_unescape() {
        let text = "# TYPE a counter\na{task=\"say \\\"hi\\\"\\n\"} 1\n";
        let exp = parse(text).unwrap();
        assert_eq!(
            exp.families[0].samples[0].label("task"),
            Some("say \"hi\"\n")
        );
    }
}
