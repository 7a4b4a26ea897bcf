//! The pinned benchmark: six workloads, five end-to-end metrics from an
//! untraced pass, per-layer metrics from a traced pass. See README.md.
//!
//! Run from the repository root:
//!
//! * `cargo run --release --offline --manifest-path benchmark/Cargo.toml --
//!   --seed <u64>`: both passes over all six workloads. `--workload <name>`
//!   restricts the untraced pass to one workload and makes the last line of
//!   output the contract's JSON object for it; `--trace 0` (or `--no-trace`)
//!   runs the untraced pass only, `--trace 1` the traced pass only;
//!   `--seconds <s>` fits each pass into `s` seconds. The contract's command
//!   is `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//! * `... -- --aa`: two sets of ten untraced passes in one process, compared
//!   against the bounds in `BENCHMARK.json`.

mod alloc;
mod json;
mod openloop;
mod passes;
mod probes;
mod stats;
mod trace;
mod workloads;

use passes::{EndToEnd, Layers, END_TO_END, PER_LAYER};
use stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use workloads::{Machine, NAMES};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const OUT_DIR: &str = "benchmark/out";
const WARM_NS: u64 = 100_000_000;
const SLICE_NS: u64 = 1_000_000_000;
/// Rounds of an untraced pass; `--seconds` changes it, never below
/// `MIN_ROUNDS` and never the slice length.
const ROUNDS: usize = 8;
const MIN_ROUNDS: usize = 5;
/// What the traced pass costs, in slices: six workloads times a warm-up of
/// half a slice and two pairs of slices, probes worth six slices, and three
/// more for set-ups and the timer probe. `--seconds` is divided by it.
const TRACED_PASS_SLICES: u64 = 6 * 9 / 2 + 6 + 3;
/// Passes per set of `--aa`: the ten values per set of the contract, whose
/// quartiles leave out the two extremes on either side.
const AA_PASSES: u64 = 10;
/// Spans written to `trace.json` per workload; metrics use all of them.
const TRACE_SPANS_PER_LANE: usize = 20_000;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    /// `Some(false)`: untraced pass only; `Some(true)`: traced pass only.
    trace: Option<bool>,
    aa: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        aa: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !NAMES.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}; known: {NAMES:?}"));
                }
                a.workload = Some(w);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--no-trace" => a.trace = Some(false),
            "--aa" => a.aa = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(a)
}

/// Rounds of an untraced pass over `workloads` workloads.
fn rounds(args: &Args, workloads: usize) -> usize {
    let round_ns = (WARM_NS + SLICE_NS) * workloads as u64;
    args.seconds.map_or(ROUNDS, |s| {
        ((s * 1_000_000_000 / round_ns) as usize).max(MIN_ROUNDS)
    })
}

/// Slice length of the traced pass.
fn traced_slice_ns(args: &Args) -> u64 {
    args.seconds.map_or(SLICE_NS / 2, |s| {
        (s * 1_000_000_000 / TRACED_PASS_SLICES).clamp(50_000_000, SLICE_NS / 2)
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Where and on what the numbers were taken, as a JSON object.
fn fingerprint(m: Machine, args: &Args, slices: usize) -> String {
    format!(
        "{{\"nproc\":{},\"W\":{},\"Ws\":{},\"git_rev\":\"{}\",\"rustc\":\"{}\",\"seed\":{},\"slices\":{},\"open_rate_hz\":{}}}",
        m.nproc,
        m.w,
        m.ws,
        json::escape(&command_line("git", &["rev-parse", "--short", "HEAD"])),
        json::escape(&command_line("rustc", &["-V"])),
        args.seed,
        slices,
        workloads::OPEN_RATE_HZ,
    )
}

/// `workload metric value unit` lines and the sent/succeeded/failed line
/// of one workload's untraced result.
fn print_end_to_end(pass: &str, name: &str, e: &EndToEnd) {
    println!(
        "{name} [{pass}] sent {} succeeded {} failed {} (>= {} runs per slice)",
        e.attempted,
        e.attempted - e.failed,
        e.failed,
        e.min_runs_per_slice
    );
    for (metric, unit, _) in END_TO_END {
        let s = e.summary(metric);
        println!(
            "{name} {metric} {} {unit}   (q1 {} q3 {} n {})",
            s.median, s.q1, s.q3, s.n
        );
    }
    println!("{name} tasks_per_s by slice: {:.0?}", e.tasks_per_s);
    println!("{name} run_us_p50 by slice: {:.1?}", e.run_us_p50);
    if !e.gen_late_us_p99.is_empty() {
        let under = e.gen_late_us_p99.iter().filter(|&&us| us < 100.0).count();
        println!(
            "{name} generator lateness p99 per slice (us): {:?}; below 100 us in {under} of {}",
            e.gen_late_us_p99,
            e.gen_late_us_p99.len()
        );
    }
}

fn end_to_end_json(results: &BTreeMap<String, EndToEnd>) -> String {
    let mut out = String::from("{");
    for (i, (name, e)) in results.iter().enumerate() {
        let _ = write!(out, "{}\"{name}\":{{", if i > 0 { "," } else { "" });
        for (metric, unit, _) in END_TO_END {
            let s = e.summary(metric);
            let _ = write!(
                out,
                "\"{metric}\":{{\"median\":{},\"q1\":{},\"q3\":{},\"n\":{},\"unit\":\"{unit}\"}},",
                s.median, s.q1, s.q3, s.n
            );
        }
        let _ = write!(
            out,
            "\"sent\":{},\"succeeded\":{},\"failed\":{}}}",
            e.attempted,
            e.attempted - e.failed,
            e.failed
        );
    }
    out.push('}');
    out
}

fn print_layers(layers: &Layers) {
    for (workload, metrics) in &layers.metrics {
        if let Some((sent, failed)) = layers.sent.get(workload) {
            println!(
                "{workload} [traced] sent {sent} succeeded {} failed {failed}",
                sent - failed
            );
        }
        for (metric, unit, _) in PER_LAYER {
            if let Some(v) = metrics.get(metric) {
                println!("{workload} {metric} {v} {unit}");
            }
        }
    }
}

fn layers_json(layers: &Layers) -> String {
    let mut out = String::from("{");
    for (i, (workload, metrics)) in layers.metrics.iter().enumerate() {
        let _ = write!(out, "{}\"{workload}\":{{", if i > 0 { "," } else { "" });
        let body: Vec<String> = metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        out.push_str(&body.join(","));
        out.push('}');
    }
    out.push('}');
    out
}

fn write_out(file: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/{file}");
    std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

/// Where a run's time went: per workload, the mean self time of each
/// span name (duration minus what its children cover) per `run` span.
fn print_self_times(tracer: &trace::Tracer) {
    let mut sums: BTreeMap<(u32, &str), u64> = BTreeMap::new();
    for (span, own) in tracer.spans.iter().zip(tracer.self_times()) {
        *sums.entry((span.lane, span.name)).or_default() += own;
    }
    for (lane, name) in NAMES.iter().enumerate() {
        let lane = lane as u32;
        let runs = tracer
            .spans
            .iter()
            .filter(|s| s.lane == lane && s.name == "run")
            .count();
        let mut line = format!("{name} self time per run over {runs} runs (ns):");
        for ((_, span), total) in sums.range((lane, "")..(lane + 1, "")) {
            let _ = write!(line, " {span} {:.0}", *total as f64 / runs.max(1) as f64);
        }
        println!("{line}");
    }
}

/// Runs the traced pass and writes `trace.json`.
fn traced(args: &Args, m: Machine) -> Result<Layers, String> {
    let mut tracer = trace::Tracer::new();
    // Room for every span up front, so the tracer's own buffer does not
    // show up in the allocation counts it is measured beside.
    tracer.spans.reserve(4 << 20);
    let layers = passes::traced_pass(args.seed, m, 2, traced_slice_ns(args), &mut tracer)?;
    println!("traced pass: {} spans", tracer.spans.len());
    print_self_times(&tracer);
    write_out(
        "trace.json",
        &tracer.chrome_json(&NAMES, TRACE_SPANS_PER_LANE),
    )?;
    Ok(layers)
}

/// The workloads the untraced pass covers: the one named, or all six.
fn selected(args: &Args) -> Vec<&str> {
    match &args.workload {
        Some(w) => vec![w.as_str()],
        None => NAMES.to_vec(),
    }
}

/// Writes `result.json`: fingerprint, end-to-end summaries, per-layer values.
fn write_result(
    args: &Args,
    m: Machine,
    rounds: usize,
    results: &BTreeMap<String, EndToEnd>,
    layers: Option<&Layers>,
) -> Result<(), String> {
    write_out(
        "result.json",
        &format!(
            "{{\"fingerprint\":{},\n\"end_to_end\":{},\n\"per_layer\":{}}}\n",
            fingerprint(m, args, rounds),
            end_to_end_json(results),
            layers.map_or("null".into(), layers_json),
        ),
    )
}

/// One entry of the contract's `metrics` object.
fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

/// The passes `--trace` selects (both without it), every metric printed,
/// `result.json` and `trace.json` written. With one workload named, the
/// last line is the contract's JSON object: the end-to-end metrics of the
/// untraced pass and the per-layer metrics of the traced pass, whichever
/// ran, for that workload.
fn run(args: &Args, m: Machine) -> Result<(), String> {
    let names = selected(args);
    let rounds = rounds(args, names.len());
    let mut results = BTreeMap::new();
    if args.trace != Some(true) {
        results = passes::untraced_pass(&names, args.seed, m, rounds, WARM_NS, SLICE_NS)?;
        for (name, e) in &results {
            print_end_to_end("untraced", name, e);
        }
    }
    let layers = if args.trace != Some(false) {
        let layers = traced(args, m)?;
        print_layers(&layers);
        Some(layers)
    } else {
        None
    };
    write_result(args, m, rounds, &results, layers.as_ref())?;

    let Some(name) = args.workload.as_deref() else {
        return Ok(());
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    if let Some(e) = results.get(name) {
        attempted += e.attempted;
        failed += e.failed;
        for (metric, unit, _) in END_TO_END {
            metrics.push(metric_json(metric, e.summary(metric).median, unit));
        }
    }
    if let Some(layers) = &layers {
        attempted += layers.sent[name].0;
        failed += layers.sent[name].1;
        for (metric, unit, _) in PER_LAYER {
            let v = layers.value(name, metric).expect("checked by traced_pass");
            metrics.push(metric_json(metric, v, unit));
        }
    }
    println!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        metrics.join(",")
    );
    Ok(())
}

/// The relative regression bounds `BENCHMARK.json` fixes, by metric.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = json::parse(&text)?;
    let metrics = doc
        .get("end_to_end")
        .and_then(json::Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(json::Value::as_str);
            let bound = m.get("bound").and_then(json::Value::as_f64);
            name.map(str::to_string)
                .zip(bound)
                .ok_or_else(|| "end_to_end entry without name or bound".to_string())
        })
        .collect()
}

/// `PASS` when both sets' inter-quartile ranges and the distance between
/// their medians are within `bound` as a share of the median, else
/// `UNRESOLVED`: the benchmark cannot tell a change of that size from its
/// own noise.
fn aa_verdict(bound: f64, a: Summary, b: Summary) -> &'static str {
    let within = |x: f64, s: Summary| x <= bound * s.median.abs();
    if within(a.q3 - a.q1, a) && within(b.q3 - b.q1, b) && within((b.median - a.median).abs(), a) {
        "PASS"
    } else {
        "UNRESOLVED"
    }
}

/// A/A self-check, the contract's acceptance rule in one process: two sets
/// of `AA_PASSES` untraced passes (pass `i` of either set with seed
/// `seed + i`); a pass's value of a metric is its median over slices, what
/// a `--trace 0` run reports. Per workload and metric: each set's median
/// and inter-quartile range over its passes, how much worse the second
/// median is, and the verdict. Fails if anything is unresolved.
fn aa(args: &Args, m: Machine) -> Result<(), String> {
    let bounds = bounds()?;
    let names = selected(args);
    let rounds = rounds(args, names.len());
    // values[set][(workload, metric)] = one value per pass.
    let mut values = [BTreeMap::new(), BTreeMap::new()];
    for set in &mut values {
        for pass in 0..AA_PASSES {
            let results =
                passes::untraced_pass(&names, args.seed + pass, m, rounds, WARM_NS, SLICE_NS)?;
            for (name, e) in &results {
                print_end_to_end("untraced", name, e);
                for (metric, _, _) in END_TO_END {
                    set.entry((name.clone(), metric))
                        .or_insert_with(Vec::new)
                        .push(e.summary(metric).median);
                }
            }
        }
    }
    println!("| workload | metric | median A | IQR A | median B | IQR B | B worse by | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut unresolved = 0;
    for name in &names {
        for (metric, _, higher_is_better) in END_TO_END {
            let key = (name.to_string(), metric);
            let (a, b) = (Summary::of(&values[0][&key]), Summary::of(&values[1][&key]));
            let bound = *bounds
                .get(metric)
                .ok_or(format!("BENCHMARK.json has no bound for {metric}"))?;
            let worse_by = if higher_is_better {
                (a.median - b.median) / a.median
            } else {
                (b.median - a.median) / a.median
            };
            let verdict = aa_verdict(bound, a, b);
            unresolved += usize::from(verdict != "PASS");
            println!(
                "| {name} | {metric} | {:.6e} | {:.1}% | {:.6e} | {:.1}% | {:+.2}% | {:.1}% | {verdict} |",
                a.median,
                a.spread() * 100.0,
                b.median,
                b.spread() * 100.0,
                worse_by * 100.0,
                bound * 100.0
            );
        }
    }
    if unresolved > 0 {
        return Err(format!(
            "{unresolved} of the A/A comparisons are unresolved"
        ));
    }
    println!("0 unresolved");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let m = Machine::detect();
    println!(
        "machine: nproc {} W {} Ws {} seed {}",
        m.nproc, m.w, m.ws, args.seed
    );
    let outcome = if args.aa { aa(&args, m) } else { run(&args, m) };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // A failed correctness check is a failed benchmark: no result
            // line, non-zero exit.
            eprintln!("benchmark: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aa_is_unresolved_on_a_wide_spread_or_distant_medians() {
        let s = |q1, median, q3| Summary {
            median,
            q1,
            q3,
            n: 5,
        };
        let steady = s(95.0, 100.0, 105.0);
        assert_eq!(aa_verdict(0.25, steady, steady), "PASS");
        // Equal medians do not excuse a spread over the bound, in either set.
        let wide = s(85.0, 100.0, 115.0);
        assert_eq!(aa_verdict(0.25, steady, wide), "UNRESOLVED");
        assert_eq!(aa_verdict(0.25, wide, steady), "UNRESOLVED");
        // Nor does a tight spread excuse medians apart, in either direction.
        let (low, high) = (s(70.0, 72.0, 74.0), s(126.0, 128.0, 130.0));
        assert_eq!(aa_verdict(0.25, steady, low), "UNRESOLVED");
        assert_eq!(aa_verdict(0.25, steady, high), "UNRESOLVED");
    }

    /// `BENCHMARK.json` is the contract; the tables in `passes.rs` are
    /// what the binary prints. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |v: &json::Value, key: &str| {
            v.get(key)
                .and_then(json::Value::as_str)
                .unwrap()
                .to_string()
        };
        let list = |key: &str| {
            doc.get(key)
                .and_then(json::Value::as_array)
                .unwrap()
                .to_vec()
        };

        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, NAMES);

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, (name, unit, higher)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(
                (field(entry, "name"), field(entry, "unit")),
                (name.into(), unit.into())
            );
            assert_eq!(field(entry, "better") == "higher", higher, "{name}");
            let bound = entry.get("bound").and_then(json::Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{name}");
        }

        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, (name, unit, _)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(
                (field(entry, "name"), field(entry, "unit")),
                (name.into(), unit.into())
            );
        }
    }
}
