//! The benchmark's own tracer: spans recorded in memory around the calls
//! into each layer, written out as Chrome-trace JSON when the pass ends.
//!
//! A span is `{id, parent, run_id, name, start_ns, end_ns}`. Spans of one
//! run share `run_id`; the `run` span is the root and its children tile it
//! (`submit → wake → exec → finalize`, plus `build`/`drop` where the
//! workload pays them). A span's *self time* is its duration minus the
//! part its children cover.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process: the one clock every
/// span and every body stamp is read from.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Id of the (absent) parent of a root span.
pub const NO_PARENT: u32 = 0;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based, unique within the tracer.
    pub id: u32,
    /// Id of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    pub run_id: u32,
    pub name: &'static str,
    /// Index of the workload the span belongs to (the Chrome-trace `tid`).
    pub lane: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug, Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
    next_run: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// A fresh run id (1-based).
    pub fn next_run(&mut self) -> u32 {
        self.next_run += 1;
        self.next_run
    }

    /// Records one span and returns its id. A child is clamped into its
    /// parent's interval and `end_ns` up to `start_ns`: a body that
    /// started before the submitting call returned yields an empty
    /// `wake`, not a negative one.
    pub fn span(
        &mut self,
        lane: u32,
        parent: u32,
        run_id: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let (lo, hi) = match parent {
            NO_PARENT => (0, u64::MAX),
            p => {
                let p = &self.spans[p as usize - 1];
                (p.start_ns, p.end_ns)
            }
        };
        let start_ns = start_ns.clamp(lo, hi);
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            run_id,
            name,
            lane,
            start_ns,
            end_ns: end_ns.clamp(start_ns, hi),
        });
        id
    }

    /// Records a root `run` span over `bounds[0]..bounds[last]` and one
    /// child per named boundary pair. Boundaries are made monotone first,
    /// so the children tile the parent exactly. Returns the id of `run`;
    /// child `k` has id `run + 1 + k`. Allocates nothing beyond the span
    /// buffer itself.
    pub fn run_with_phases(&mut self, lane: u32, names: &[&'static str], bounds: &[u64]) -> u32 {
        assert_eq!(names.len() + 1, bounds.len());
        let run_id = self.next_run();
        let last = bounds.iter().copied().max().unwrap_or(0);
        let run = self.span(lane, NO_PARENT, run_id, "run", bounds[0], last);
        let mut from = bounds[0];
        for (name, &to) in names.iter().zip(&bounds[1..]) {
            let to = to.max(from);
            self.span(lane, run, run_id, name, from, to);
            from = to;
        }
        run
    }

    /// Self time of every span (indexed like `spans`): duration minus the
    /// summed durations of its direct children.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = s.parent as usize - 1;
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Checks the invariant the trace is read under: every child lies
    /// inside its parent and the children of one span sum to no more than
    /// the span itself.
    pub fn check_nesting(&self) -> Result<(), String> {
        let mut child_sum = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent == NO_PARENT {
                continue;
            }
            let p = &self.spans[s.parent as usize - 1];
            if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                return Err(format!(
                    "span {} ({}) leaves its parent {} ({})",
                    s.id, s.name, p.id, p.name
                ));
            }
            child_sum[s.parent as usize - 1] += s.dur_ns();
        }
        for (s, sum) in self.spans.iter().zip(child_sum) {
            if sum > s.dur_ns() {
                return Err(format!(
                    "children of span {} ({}) sum to {} ns > its {} ns",
                    s.id,
                    s.name,
                    sum,
                    s.dur_ns()
                ));
            }
        }
        Ok(())
    }

    /// Durations (ns) of every span called `name` on `lane`.
    pub fn durations(&self, lane: u32, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.lane == lane && s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete
    /// (`"ph":"X"`) event per span, `tid` = workload lane, with the span's
    /// `id`, `parent` and `run_id` under `args`. At most `max_per_lane`
    /// spans are written per lane (whole runs are never cut: a lane stops
    /// at a `run` boundary); `lanes[i]` names lane `i`.
    pub fn chrome_json(&self, lanes: &[&str], max_per_lane: usize) -> String {
        let mut written = vec![0usize; lanes.len()];
        let mut closed = vec![false; lanes.len()];
        let mut events: Vec<String> = lanes
            .iter()
            .enumerate()
            .map(|(i, lane)| {
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{i},\"args\":{{\"name\":\"{}\"}}}}",
                    crate::json::escape(lane)
                )
            })
            .collect();
        for s in &self.spans {
            let lane = s.lane as usize;
            if closed[lane] {
                continue;
            }
            if s.parent == NO_PARENT && written[lane] >= max_per_lane {
                closed[lane] = true;
                continue;
            }
            written[lane] += 1;
            events.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"run_id\":{}}}}}",
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.id,
                s.parent,
                s.run_id
            ));
        }
        format!(
            "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let run = t.run_with_phases(0, &["submit", "wake", "exec"], &[100, 130, 150, 400]);
        // A grandchild inside `exec` (the third child of `run`).
        t.span(0, run + 3, 1, "iter", 160, 260);
        let own = t.self_times();
        assert_eq!(own[0], 0, "run is tiled by its phases");
        assert_eq!(own[1], 30);
        assert_eq!(own[2], 20);
        assert_eq!(own[3], 250 - 100, "exec minus its iter child");
        assert_eq!(own[4], 100);
        t.check_nesting().unwrap();
    }

    #[test]
    fn phases_are_made_monotone_and_children_clamped() {
        let mut t = Tracer::new();
        // The body started (120) before the submit call returned (150).
        let run = t.run_with_phases(
            0,
            &["submit", "wake", "exec", "finalize"],
            &[100, 150, 120, 300, 310],
        );
        let wake = &t.spans[2];
        assert_eq!((wake.name, wake.dur_ns()), ("wake", 0));
        assert_eq!(t.spans[3].start_ns, 150);
        let total: u64 = t.spans[1..].iter().map(Span::dur_ns).sum();
        assert_eq!(total, t.spans[0].dur_ns());
        // An iteration stamped from 120 is clamped into `exec` (150..300).
        let iter = t.span(0, run + 3, 1, "iter", 120, 200);
        let iter = &t.spans[iter as usize - 1];
        assert_eq!((iter.start_ns, iter.end_ns), (150, 200));
        t.check_nesting().unwrap();
    }

    fn raw(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            run_id: 1,
            name: "x",
            lane: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nesting_violations_are_reported() {
        let mut t = Tracer::new();
        t.spans = vec![raw(1, NO_PARENT, 0, 100), raw(2, 1, 50, 150)];
        assert!(t.check_nesting().unwrap_err().contains("leaves its parent"));
        t.spans = vec![
            raw(1, NO_PARENT, 0, 100),
            raw(2, 1, 0, 80),
            raw(3, 1, 10, 90),
        ];
        assert!(t.check_nesting().unwrap_err().contains("sum to"));
    }

    #[test]
    fn chrome_trace_parses_and_caps_whole_runs() {
        let mut t = Tracer::new();
        for r in 0..5u64 {
            t.run_with_phases(
                1,
                &["submit", "exec"],
                &[r * 100, r * 100 + 10, r * 100 + 90],
            );
        }
        t.run_with_phases(0, &["submit", "exec"], &[0, 5, 50]);
        let text = t.chrome_json(&["alpha", "beta"], 6);
        let doc = json::parse(&text).expect("chrome trace is valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .unwrap();
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("X"))
            .collect();
        // Lane 1 is cut after two whole runs (6 spans), lane 0 is complete.
        assert_eq!(spans.len(), 6 + 3);
        for e in &spans {
            assert!(e.get("ts").and_then(json::Value::as_f64).is_some());
            assert!(e.get("dur").and_then(json::Value::as_f64).unwrap() >= 0.0);
            let args = e.get("args").unwrap();
            assert!(args.get("run_id").and_then(json::Value::as_f64).unwrap() >= 1.0);
        }
        let names = events
            .iter()
            .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("M"))
            .count();
        assert_eq!(names, 2);
        // No spans at all is still a valid document.
        json::parse(&Tracer::new().chrome_json(&["alpha"], 6)).unwrap();
    }
}
