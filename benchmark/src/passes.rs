//! The two passes. The **untraced pass** produces the end-to-end metrics
//! and nothing else touches them; the **traced pass** runs every workload
//! once more beside a traced twin, plus the layer probes, and produces the
//! per-layer metrics and the trace.
//!
//! The contract wants every per-layer metric from every traced run,
//! whatever workload it names, and each as measured. So every metric has
//! one fixed source (third column of [`PER_LAYER`]) and the traced pass
//! always visits all of them.

use crate::alloc;
use crate::probes;
use crate::stats::{percentile, Summary};
use crate::trace::Tracer;
use crate::workloads::{self, Machine, Slice, NAMES, SLO_LIMIT_NS};
use std::collections::BTreeMap;

/// An end-to-end metric: name, unit, and whether higher is better.
pub const END_TO_END: [(&str, &str, bool); 4] = [
    ("setup_s", "s", false),
    ("tasks_per_s", "1/s", true),
    ("run_us_p50", "us", false),
    ("success_ratio", "ratio", true),
];

/// Source of a metric every workload measures on itself: a traced run
/// reports the value of the workload it names.
pub const EACH: &str = "each";
/// Source of a metric a layer probe measures.
pub const PROBE: &str = "probe";

/// A per-layer metric: name, unit, and the one place it is measured:
/// [`EACH`], [`PROBE`], or the name of the workload whose spans or counters
/// define it (reported unchanged whatever workload a traced run names).
pub const PER_LAYER: [(&str, &str, &str); 44] = [
    ("wsq.push_pop_ns", "ns", PROBE),
    ("wsq.steal_ns", "ns", PROBE),
    ("wsq.steal_contended_ns", "ns", PROBE),
    ("wsq.steals_per_ktask", "count", EACH),
    ("wsq.steal_success_ratio", "ratio", EACH),
    ("scheduler.overhead_ns_per_task", "ns", "wavefront_serial"),
    ("scheduler.chain_ns_per_task", "ns", PROBE),
    ("scheduler.fan_ns_per_task", "ns", PROBE),
    ("scheduler.cache_hit_ratio", "ratio", EACH),
    ("scheduler.steal_fail_rounds_per_ktask", "count", EACH),
    ("scheduler.parallel_efficiency", "ratio", PROBE),
    ("topology.rearm_ns_per_node", "ns", "wavefront_serial"),
    ("topology.submit_ns_per_node", "ns", "traversal_oneshot"),
    ("topology.finalize_us", "us", EACH),
    ("taskflow.build_ns_per_node", "ns", "traversal_oneshot"),
    ("taskflow.drop_ns_per_node", "ns", "traversal_oneshot"),
    ("taskflow.emplace_ns", "ns", PROBE),
    ("taskflow.precede_ns", "ns", PROBE),
    ("subflow.spawn_ns_per_child", "ns", PROBE),
    ("notifier.wake_us_p50", "us", "serve_open"),
    ("notifier.idle_roundtrip_us", "us", PROBE),
    ("notifier.parks_per_run", "count", EACH),
    ("notifier.wakes_per_run", "count", EACH),
    ("injector.pops_per_run", "count", EACH),
    ("frontdoor.submit_ns_p50", "ns", "serve_closed"),
    ("frontdoor.untenanted_submit_ns_p50", "ns", PROBE),
    ("frontdoor.refused_ratio", "ratio", "serve_open"),
    ("frontdoor.shed_ratio", "ratio", "serve_open"),
    ("frontdoor.coalesced_ratio", "ratio", "serve_open"),
    ("frontdoor.run_us_p90", "us", EACH),
    ("frontdoor.run_us_p99", "us", EACH),
    ("frontdoor.slo_miss_ratio", "ratio", "serve_open"),
    ("frontdoor.gen_late_us_p99", "us", "serve_open"),
    ("observer.tax_ratio", "ratio", PROBE),
    ("introspect.tax_ratio", "ratio", PROBE),
    ("alloc.per_task", "count", EACH),
    ("alloc.bytes_per_task", "bytes", EACH),
    ("alloc.per_run", "count", EACH),
    ("alloc.peak_live_mb", "MB", EACH),
    ("tf-timer.full_update_ms", "ms", PROBE),
    ("tf-timer.tasks_per_update_mean", "count", "timer_incr"),
    ("tf-timer.speedup_vs_seq", "ratio", PROBE),
    ("clock.now_ns", "ns", PROBE),
    ("trace.overhead_ratio", "ratio", EACH),
];

/// One workload's end-to-end result: per-slice values, summarised as the
/// median over slices with the quartiles beside it.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    pub tasks_per_s: Vec<f64>,
    pub run_us_p50: Vec<f64>,
    /// Open loop only: generator lateness p99 of each slice (us).
    pub gen_late_us_p99: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Fewest runs any slice timed.
    pub min_runs_per_slice: usize,
}

impl EndToEnd {
    pub fn summary(&self, metric: &str) -> Summary {
        match metric {
            "setup_s" => Summary::of(&self.setup_s),
            "tasks_per_s" => Summary::of(&self.tasks_per_s),
            "run_us_p50" => Summary::of(&self.run_us_p50),
            // Pooled over the pass, not a median of slices: one bad slice
            // must not hide behind seven good ones.
            "success_ratio" => {
                Summary::of(&[1.0 - self.failed as f64 / self.attempted.max(1) as f64])
            }
            other => panic!("unknown end-to-end metric {other}"),
        }
    }
}

/// The untraced pass over `names`: `rounds` rounds, in each of which every
/// workload in turn is set up afresh and warmed for `warm_ns` (timed
/// together: `setup_s`), measured for one slice of `slice_ns` and checked
/// for correctness. Interleaving by round spreads a noisy-neighbour phase over
/// all workloads.
///
/// A fresh instance per slice, at a fresh place in the heap, because
/// throughput depends on where an instance's memory landed: four
/// `serve_closed` instances alive in one process sat at 240k, 272k, 295k
/// and 315k runs/s, each steadily, and an instance built where the last
/// one was freed repeats its level. So every instance stays alive until
/// the pass ends (the next one cannot move into its memory) and a seeded
/// pad of small blocks goes in between (the next one does not land at the
/// same offset within a cache line either). The median over slices is
/// then a median over placements instead of one draw per process. Each
/// instance also gets its own stretch of the seeded input streams.
pub fn untraced_pass(
    names: &[&str],
    seed: u64,
    m: Machine,
    rounds: usize,
    warm_ns: u64,
    slice_ns: u64,
) -> Result<BTreeMap<String, EndToEnd>, String> {
    let mut results: BTreeMap<String, EndToEnd> = names
        .iter()
        .map(|name| {
            let e2e = EndToEnd {
                min_runs_per_slice: usize::MAX,
                ..EndToEnd::default()
            };
            (name.to_string(), e2e)
        })
        .collect();
    let mut out = Slice::default();
    let mut kept = Vec::new();
    for round in 0..rounds {
        for (slot, name) in names.iter().enumerate() {
            let e2e = results.get_mut(*name).expect("inserted above");
            let bits = workloads::mix(seed, (round * names.len() + slot) as u64 + 1000);
            let pad: Vec<Vec<u8>> = (0..64)
                .map(|i| vec![0u8; 16 + 16 * ((bits >> i) & 1) as usize * (i % 8 + 1)])
                .collect();
            // Set-up lasts until the workload is ready to be timed, warm-up
            // included: its fixed length keeps `setup_s` from being a
            // fraction of a millisecond that follows every mood of the host.
            let t0 = std::time::Instant::now();
            let mut w = workloads::setup(name, workloads::mix(seed, round as u64), m, false);
            w.slice(warm_ns, &mut out, None);
            e2e.setup_s.push(t0.elapsed().as_secs_f64());
            w.slice(slice_ns, &mut out, None);
            e2e.attempted += out.attempted;
            e2e.failed += out.failed;
            e2e.min_runs_per_slice = e2e.min_runs_per_slice.min(out.run_ns.len());
            e2e.tasks_per_s
                .push(out.tasks as f64 / (out.elapsed_ns as f64 / 1e9));
            e2e.run_us_p50.push(percentile(&mut out.run_ns, 0.50) / 1e3);
            if !out.late_ns.is_empty() {
                e2e.gen_late_us_p99
                    .push(percentile(&mut out.late_ns, 0.99) / 1e3);
            }
            w.verify().map_err(|e| format!("{name}: {e}"))?;
            kept.push((pad, w));
        }
    }
    Ok(results)
}

/// Per-layer metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What the traced pass measured: per-layer metrics by workload (plus the
/// pseudo-workload `probe`), and what was sent while measuring.
#[derive(Debug, Default)]
pub struct Layers {
    pub metrics: BTreeMap<&'static str, Metrics>,
    /// Per workload: runs attempted and failed over plain + traced slices.
    pub sent: BTreeMap<&'static str, (u64, u64)>,
}

impl Layers {
    /// The value a traced run naming `workload` reports for `metric`: the
    /// one measured at the metric's source.
    pub fn value(&self, workload: &str, metric: &str) -> Option<f64> {
        let source = PER_LAYER.iter().find(|(n, _, _)| *n == metric)?.2;
        let at = if source == EACH { workload } else { source };
        self.metrics.get(at)?.get(metric).copied()
    }
}

fn p50(v: &mut [u64]) -> f64 {
    percentile(v, 0.5)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One workload of the traced pass: `pairs` times a plain slice then a
/// traced slice of `slice_ns`, with executor, tenant and allocator
/// counters read at the slice boundaries of the traced twin.
fn trace_workload(
    name: &'static str,
    seed: u64,
    m: Machine,
    pairs: usize,
    slice_ns: u64,
    tracer: &mut Tracer,
) -> Result<(Metrics, (u64, u64)), String> {
    alloc::set_counting(true);
    let mut plain = workloads::setup(name, seed, m, false);
    let mut traced = workloads::setup(name, seed, m, true);
    let lane = traced.lane();
    let (mut a, mut b) = (Slice::default(), Slice::default());

    // Warm both twins; the warm-up's spans are dropped.
    let mark = tracer.spans.len();
    plain.slice(slice_ns / 4, &mut a, None);
    traced.slice(slice_ns / 4, &mut b, Some(tracer));
    tracer.spans.truncate(mark);

    let (mut plain_tps, mut traced_tps) = (Vec::new(), Vec::new());
    let (mut plain_runs, mut plain_late) = (Vec::new(), Vec::new());
    let (mut plain_tasks, mut attempted, mut failed, mut plain_failed, mut plain_attempted) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut tasks, mut runs, mut body_ns) = (0u64, 0u64, 0u64);
    // The traced twin's executor is idle while the plain twin runs, so
    // its counters over the whole loop are its counters over its slices.
    let stats0 = traced.executor().stats();
    let (mut allocs, mut bytes) = (0u64, 0u64);
    for _ in 0..pairs {
        plain.slice(slice_ns, &mut a, None);
        plain_tps.push(a.tasks as f64 / a.elapsed_ns as f64 * 1e9);
        plain_runs.extend_from_slice(&a.run_ns);
        plain_late.extend_from_slice(&a.late_ns);
        plain_tasks += a.tasks;
        plain_attempted += a.attempted;
        plain_failed += a.failed;

        let mem0 = alloc::snapshot();
        traced.slice(slice_ns, &mut b, Some(tracer));
        let mem1 = alloc::snapshot();
        allocs += mem1.allocs - mem0.allocs;
        bytes += mem1.bytes - mem0.bytes;
        traced_tps.push(b.tasks as f64 / b.elapsed_ns as f64 * 1e9);
        tasks += b.tasks;
        runs += b.run_ns.len() as u64;
        body_ns += b.body_ns;
        attempted += b.attempted;
        failed += b.failed;
    }
    let sched = traced.executor().stats().delta(&stats0).total();
    let peak_live = alloc::snapshot().peak_live;
    alloc::set_counting(false);
    plain.verify().map_err(|e| format!("{name}: {e}"))?;
    traced
        .verify()
        .map_err(|e| format!("{name} (traced): {e}"))?;

    // Only what this workload is the source of is kept.
    let mut out = BTreeMap::new();
    let mut put = |metric: &'static str, value: f64| {
        let source = PER_LAYER.iter().find(|(n, _, _)| *n == metric);
        let source = source.expect("a metric of the table").2;
        if source == EACH || source == name {
            out.insert(metric, value);
        }
    };
    let ktasks = tasks as f64 / 1e3;
    put("wsq.steals_per_ktask", sched.steals as f64 / ktasks);
    put(
        "wsq.steal_success_ratio",
        ratio(sched.steals, sched.steal_attempts),
    );
    put(
        "scheduler.cache_hit_ratio",
        ratio(sched.cache_hits, sched.executed),
    );
    put(
        "scheduler.steal_fail_rounds_per_ktask",
        sched.steal_fails as f64 / ktasks,
    );
    put("notifier.parks_per_run", ratio(sched.parks, runs));
    put("notifier.wakes_per_run", ratio(sched.wakes_sent, runs));
    put("injector.pops_per_run", ratio(sched.injector_pops, runs));
    put("alloc.per_task", ratio(allocs, tasks));
    put("alloc.bytes_per_task", ratio(bytes, tasks));
    put("alloc.per_run", ratio(allocs, runs));
    put("alloc.peak_live_mb", peak_live as f64 / 1e6);
    put(
        "trace.overhead_ratio",
        Summary::of(&traced_tps).median / Summary::of(&plain_tps).median,
    );
    put(
        "frontdoor.run_us_p90",
        percentile(&mut plain_runs, 0.90) / 1e3,
    );
    put(
        "frontdoor.run_us_p99",
        percentile(&mut plain_runs, 0.99) / 1e3,
    );
    put(
        "tf-timer.tasks_per_update_mean",
        ratio(plain_tasks, plain_runs.len() as u64),
    );

    let exec_ns: u64 = tracer.durations(lane, "exec").iter().sum();
    let worker_ns = traced.executor().num_workers() as u64 * exec_ns;
    put(
        "scheduler.overhead_ns_per_task",
        (worker_ns as f64 - body_ns as f64) / tasks as f64,
    );
    // p50 of the workload's spans of one name; a name it does not record
    // leaves the metric unmeasured, which `traced_pass` reports.
    let nodes = traced.nodes() as f64;
    for (metric, span, per) in [
        ("topology.rearm_ns_per_node", "rearm", nodes),
        ("taskflow.build_ns_per_node", "build", nodes),
        ("topology.submit_ns_per_node", "submit", nodes),
        ("taskflow.drop_ns_per_node", "drop", nodes),
        ("topology.finalize_us", "finalize", 1e3),
        ("notifier.wake_us_p50", "wake", 1e3),
        ("frontdoor.submit_ns_p50", "submit", 1.0),
    ] {
        let mut d = tracer.durations(lane, span);
        if !d.is_empty() {
            put(metric, p50(&mut d) / per);
        }
    }
    if let Some(t) = plain.tenant_stats() {
        let refused =
            t.rejected_saturated + t.rejected_shutdown + t.rejected_infeasible + t.rejected_breaker;
        put("frontdoor.refused_ratio", ratio(refused, t.submitted));
        put("frontdoor.shed_ratio", ratio(t.shed, t.submitted));
        put("frontdoor.coalesced_ratio", ratio(t.coalesced, t.submitted));
    }
    let missed = plain_runs.iter().filter(|&&ns| ns > SLO_LIMIT_NS).count() as u64;
    put(
        "frontdoor.slo_miss_ratio",
        ratio(missed + plain_failed, plain_attempted),
    );
    put(
        "frontdoor.gen_late_us_p99",
        percentile(&mut plain_late, 0.99) / 1e3,
    );
    Ok((out, (attempted + plain_attempted, failed + plain_failed)))
}

/// The traced pass: every workload beside its traced twin, then the layer
/// probes. Spans accumulate in `tracer`.
pub fn traced_pass(
    seed: u64,
    m: Machine,
    pairs: usize,
    slice_ns: u64,
    tracer: &mut Tracer,
) -> Result<Layers, String> {
    let mut layers = Layers::default();
    for name in NAMES {
        let (metrics, sent) = trace_workload(name, seed, m, pairs, slice_ns, tracer)?;
        layers.metrics.insert(name, metrics);
        layers.sent.insert(name, sent);
    }
    tracer.check_nesting()?;
    layers
        .metrics
        .insert(PROBE, probes::run_all(m, slice_ns / 2));
    for (metric, _, _) in PER_LAYER {
        if let Some(w) = NAMES.iter().find(|w| layers.value(w, metric).is_none()) {
            return Err(format!("{metric} was not measured for {w}"));
        }
    }
    Ok(layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_slice_values_are_summarised_by_their_median() {
        let e2e = EndToEnd {
            tasks_per_s: vec![10.0, 30.0, 20.0, 1000.0, 25.0],
            attempted: 2000,
            failed: 1,
            ..EndToEnd::default()
        };
        let s = e2e.summary("tasks_per_s");
        assert_eq!((s.median, s.n), (25.0, 5));
        assert_eq!(e2e.summary("success_ratio").median, 1.0 - 1.0 / 2000.0);
    }

    #[test]
    fn a_layer_metric_is_reported_from_its_one_source() {
        let mut layers = Layers::default();
        for (workload, rearm, parks) in [("wavefront_serial", 3.0, 1.0), ("serve_open", 5.0, 0.6)] {
            layers.metrics.insert(
                workload,
                BTreeMap::from([
                    ("topology.rearm_ns_per_node", rearm),
                    ("notifier.parks_per_run", parks),
                ]),
            );
        }
        layers
            .metrics
            .insert(PROBE, BTreeMap::from([("wsq.steal_ns", 9.0)]));
        // A fixed source wins even over the named workload's own entry.
        let v = |w, metric| layers.value(w, metric);
        assert_eq!(v("serve_open", "topology.rearm_ns_per_node"), Some(3.0));
        assert_eq!(v("serve_open", "notifier.parks_per_run"), Some(0.6));
        assert_eq!(v("wavefront_serial", "notifier.parks_per_run"), Some(1.0));
        assert_eq!(v("wavefront_par", "notifier.parks_per_run"), None);
        assert_eq!(v("serve_open", "wsq.steal_ns"), Some(9.0));
        assert_eq!(v("serve_open", "no.such.metric"), None);
    }

    #[test]
    fn metric_tables_have_unique_contract_conforming_names() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let ok = |s: &str, extra: &str| {
            s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for n in &names {
            assert!(n.len() <= 64 && ok(n, "_.-"), "{n}");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.1)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(unit.len() <= 16 && ok(unit, "_/%.-"), "{unit}");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        for (_, _, source) in PER_LAYER {
            assert!(
                [EACH, PROBE].contains(&source) || NAMES.contains(&source),
                "{source}"
            );
        }
    }
}
