//! Timing state and per-gate propagation.
//!
//! Arrival times and slews live in atomic `f64`-bit cells so that many
//! worker threads can compute different gates of one update concurrently:
//! computing a gate writes only its own cells and reads only its fanins',
//! which the scheduler has ordered before it (earlier in the same task or
//! behind a taskflow edge, a level barrier, or sequential order). The
//! Release/Acquire pairs below belt-and-suspenders that ordering; the
//! real happens-before edges come from the schedulers' join counters and
//! barriers.

use crate::circuit::{Circuit, GateId, GateKind};
use crate::delay::{gate_delay, gate_slew, DFF_SETUP, PRIMARY_INPUT_SLEW};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Clock-network slew assumed at every DFF clock pin (ps).
const CLOCK_SLEW: f64 = 5.0;

/// Shared timing analyzer state (see [`crate::Timer`] for the public
/// wrapper).
pub struct TimerInner {
    /// The design under analysis. Its structure is fixed for the timer's
    /// lifetime (`level` below is computed from it once); only
    /// [`crate::Timer::resize_gate`] writes to it, and only a `drive`.
    pub(crate) circuit: Circuit,
    /// Longest-path level of each gate in the timing graph: 0 for timing
    /// sources, one above the deepest fanin otherwise. Every timing edge
    /// goes from a lower level to a higher one, so sorting any region by
    /// level is a topological order of it (what the v2 engine cuts its
    /// blocks from).
    level: Vec<u32>,
    /// Number of levels (`max(level) + 1`).
    num_levels: usize,
    /// Arrival time at each gate's output (f64 bits).
    arrival: Vec<AtomicU64>,
    /// Transition time (slew) at each gate's output (f64 bits).
    slew: Vec<AtomicU64>,
    /// Required arrival time at each gate's output (f64 bits; +inf when
    /// unconstrained). Filled by the backward pass.
    required: Vec<AtomicU64>,
    /// Region-membership stamps (see [`TimerInner::new_epoch`]).
    stamp: Vec<AtomicU32>,
    /// Position of each gate within the current region (valid only when
    /// its stamp matches the current epoch). Replaces per-update hash
    /// maps in the engines.
    region_pos: Vec<AtomicU32>,
    epoch: AtomicU32,
}

impl TimerInner {
    /// Panics on a combinational loop.
    pub(crate) fn new(circuit: Circuit) -> Arc<TimerInner> {
        let n = circuit.num_gates();
        let (_, level) = circuit
            .timing_order_and_levels()
            .expect("circuit has a combinational loop");
        Arc::new(TimerInner {
            circuit,
            num_levels: level.iter().max().map_or(1, |&l| l as usize + 1),
            level,
            arrival: (0..n).map(|_| AtomicU64::new(0)).collect(),
            slew: (0..n).map(|_| AtomicU64::new(0)).collect(),
            required: (0..n)
                .map(|_| AtomicU64::new(f64::INFINITY.to_bits()))
                .collect(),
            stamp: (0..n).map(|_| AtomicU32::new(0)).collect(),
            region_pos: (0..n).map(|_| AtomicU32::new(0)).collect(),
            epoch: AtomicU32::new(0),
        })
    }

    /// Arrival time at gate `g`'s output (ps).
    #[inline]
    pub fn arrival(&self, g: GateId) -> f64 {
        f64::from_bits(self.arrival[g as usize].load(Ordering::Acquire))
    }

    /// Output slew at gate `g` (ps).
    #[inline]
    pub fn slew(&self, g: GateId) -> f64 {
        f64::from_bits(self.slew[g as usize].load(Ordering::Acquire))
    }

    #[inline]
    fn set(&self, g: GateId, arrival: f64, slew: f64) {
        self.arrival[g as usize].store(arrival.to_bits(), Ordering::Release);
        self.slew[g as usize].store(slew.to_bits(), Ordering::Release);
    }

    /// Recomputes arrival and slew of one gate from its fanins.
    ///
    /// Thread-safety: callable concurrently for *different* gates as long
    /// as every fanin's task is ordered before this gate's task.
    pub fn compute_gate(&self, g: GateId) {
        let gate = &self.circuit.gates[g as usize];
        match gate.kind {
            GateKind::Input => {
                // Port delay grows with the load it drives.
                let d = gate_delay(&self.circuit, g, PRIMARY_INPUT_SLEW);
                let s = gate_slew(&self.circuit, g, PRIMARY_INPUT_SLEW);
                self.set(g, d, s);
            }
            GateKind::Dff => {
                // Launch: clock-to-Q; independent of the D-side fanins.
                let d = gate_delay(&self.circuit, g, CLOCK_SLEW);
                let s = gate_slew(&self.circuit, g, CLOCK_SLEW);
                self.set(g, d, s);
            }
            GateKind::Output => {
                let (arr, slew) = self.worst_fanin(g);
                self.set(g, arr, slew);
            }
            _ => {
                // Per-arc evaluation, as a real STA engine performs: each
                // fanin arc gets its own NLDM lookup with that fanin's
                // slew; the worst (arrival + arc delay) wins and its arc
                // determines the output slew.
                let gate_ref = &self.circuit.gates[g as usize];
                let mut worst_at = f64::NEG_INFINITY;
                let mut worst_slew_in = 0.0;
                for &fi in &gate_ref.fanins {
                    let slew_in = self.slew(fi);
                    let at = self.arrival(fi) + gate_delay(&self.circuit, g, slew_in);
                    if at > worst_at {
                        worst_at = at;
                        worst_slew_in = slew_in;
                    }
                }
                if worst_at == f64::NEG_INFINITY {
                    // Dangling combinational gate with no fanins.
                    worst_at = gate_delay(&self.circuit, g, 0.0);
                }
                let s = gate_slew(&self.circuit, g, worst_slew_in);
                self.set(g, worst_at, s);
            }
        }
    }

    /// Worst (max) fanin arrival and slew.
    fn worst_fanin(&self, g: GateId) -> (f64, f64) {
        let mut arr: f64 = 0.0;
        let mut slew: f64 = 0.0;
        for &fi in &self.circuit.gates[g as usize].fanins {
            arr = arr.max(self.arrival(fi));
            slew = slew.max(self.slew(fi));
        }
        (arr, slew)
    }

    /// Required arrival time at gate `g`'s output (+inf when the
    /// backward pass has not run or the gate is unconstrained).
    #[inline]
    pub fn required(&self, g: GateId) -> f64 {
        f64::from_bits(self.required[g as usize].load(Ordering::Acquire))
    }

    /// Recomputes the required time of one gate from its fanouts — the
    /// backward (required-arrival-time) propagation of a full STA engine.
    ///
    /// A fanout that is a timing endpoint contributes its capture
    /// constraint (clock period, minus setup for a DFF D-pin); a
    /// combinational fanout contributes its own required time minus the
    /// arc delay through it (evaluated at this gate's slew, matching the
    /// forward pass's arc model).
    ///
    /// Thread-safety: callable concurrently for *different* gates as long
    /// as every fanout's backward task is ordered before this gate's.
    pub fn compute_required(&self, g: GateId) {
        use crate::circuit::GateKind;
        use crate::delay::{gate_delay, DFF_SETUP};
        let gate = &self.circuit.gates[g as usize];
        let period = self.circuit.clock_period;
        let mut req = f64::INFINITY;
        if gate.kind == GateKind::Output {
            req = period;
        }
        let slew_here = self.slew(g);
        for &f in &gate.fanouts {
            let fk = self.circuit.gates[f as usize].kind;
            let term = match fk {
                GateKind::Dff => period - DFF_SETUP,
                GateKind::Output => self.required(f),
                _ => self.required(f) - gate_delay(&self.circuit, f, slew_here),
            };
            req = req.min(term);
        }
        self.required[g as usize].store(req.to_bits(), Ordering::Release);
    }

    /// Slack at gate `g`'s output: `required − arrival`. Needs a forward
    /// update and a backward ([`crate::Timer::update_required`]) pass;
    /// +inf for unconstrained gates.
    pub fn gate_slack(&self, g: GateId) -> f64 {
        self.required(g) - self.arrival(g)
    }

    /// Slack of endpoint `e` against the clock period.
    ///
    /// * Primary output: `period − arrival(out)`.
    /// * DFF: setup check on the D side, `period − setup − max fanin
    ///   arrival`.
    ///
    /// Returns `None` for non-endpoints.
    pub fn endpoint_slack(&self, e: GateId) -> Option<f64> {
        let gate = &self.circuit.gates[e as usize];
        match gate.kind {
            GateKind::Output => Some(self.circuit.clock_period - self.arrival(e)),
            GateKind::Dff => {
                let (arr, _) = self.worst_fanin(e);
                Some(self.circuit.clock_period - DFF_SETUP - arr)
            }
            _ => None,
        }
    }

    /// Worst (minimum) slack over all endpoints — the paper's incremental
    /// "timing query".
    pub fn worst_slack(&self) -> f64 {
        let mut worst = f64::INFINITY;
        for e in self.circuit.endpoints() {
            if let Some(s) = self.endpoint_slack(e) {
                worst = worst.min(s);
            }
        }
        worst
    }

    /// The critical path: trace from the worst endpoint backwards through
    /// worst-arrival fanins until a timing source. Returns gate ids from
    /// source to endpoint (Fig. 8's black path).
    pub fn critical_path(&self) -> Vec<GateId> {
        let mut worst: Option<(f64, GateId)> = None;
        for e in self.circuit.endpoints() {
            if let Some(s) = self.endpoint_slack(e) {
                if worst.is_none_or(|(ws, _)| s < ws) {
                    worst = Some((s, e));
                }
            }
        }
        let Some((_, endpoint)) = worst else {
            return Vec::new();
        };
        let mut path = vec![endpoint];
        let mut cur = endpoint;
        loop {
            let gate = &self.circuit.gates[cur as usize];
            // Sources launch paths; stop there (a DFF endpoint still
            // traces through its D fanins, but a DFF reached as a driver
            // terminates the path).
            if gate.kind == GateKind::Input || (gate.kind == GateKind::Dff && cur != endpoint) {
                break;
            }
            let next = gate.fanins.iter().copied().max_by(|&a, &b| {
                self.arrival(a)
                    .partial_cmp(&self.arrival(b))
                    .expect("arrivals are finite")
            });
            match next {
                Some(n) => {
                    path.push(n);
                    cur = n;
                }
                None => break,
            }
        }
        path.reverse();
        path
    }

    // -- region machinery (incremental timing) ----------------------------

    /// Starts a new region epoch, invalidating previous stamps.
    pub(crate) fn new_epoch(&self) -> u32 {
        self.epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    #[inline]
    pub(crate) fn stamp_gate(&self, g: GateId, epoch: u32) {
        self.stamp[g as usize].store(epoch, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn is_stamped(&self, g: GateId, epoch: u32) -> bool {
        self.stamp[g as usize].load(Ordering::Relaxed) == epoch
    }

    /// Index of `g` within the current region (only meaningful when
    /// `is_stamped(g, epoch)` holds): its BFS position after
    /// [`TimerInner::forward_region`], until an engine that reorders the
    /// region records its own with [`TimerInner::set_region_index`].
    #[inline]
    pub(crate) fn region_index(&self, g: GateId) -> usize {
        self.region_pos[g as usize].load(Ordering::Relaxed) as usize
    }

    #[inline]
    pub(crate) fn set_region_index(&self, g: GateId, index: usize) {
        self.region_pos[g as usize].store(index as u32, Ordering::Relaxed);
    }

    /// Longest-path level of `g` in the timing graph (fixed at
    /// construction).
    #[inline]
    pub(crate) fn level(&self, g: GateId) -> usize {
        self.level[g as usize] as usize
    }

    /// Number of levels of the timing graph.
    pub(crate) fn num_levels(&self) -> usize {
        self.num_levels
    }

    /// Every gate of the design as one region (in id order), stamped with
    /// the returned epoch: what a whole-design pass hands to an engine.
    pub(crate) fn whole_design(&self) -> (Vec<GateId>, u32) {
        let epoch = self.new_epoch();
        let region: Vec<GateId> = (0..self.circuit.num_gates() as GateId).collect();
        for &g in &region {
            self.stamp_gate(g, epoch);
        }
        (region, epoch)
    }

    /// The affected region of a set of modified gates: the forward closure
    /// along fanout edges, cut at timing sources (a DFF's launch arrival
    /// does not depend on its D input). Returned in BFS order; region
    /// membership is stamped with the returned epoch.
    pub(crate) fn forward_region(&self, seeds: &[GateId]) -> (Vec<GateId>, u32) {
        let epoch = self.new_epoch();
        let mut region = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        for &s in seeds {
            if !self.is_stamped(s, epoch) {
                self.stamp_gate(s, epoch);
                queue.push_back(s);
            }
        }
        while let Some(v) = queue.pop_front() {
            self.set_region_index(v, region.len());
            region.push(v);
            for &f in &self.circuit.gates[v as usize].fanouts {
                if self.circuit.gates[f as usize].kind.is_source() {
                    continue; // D input: launch side unaffected
                }
                if !self.is_stamped(f, epoch) {
                    self.stamp_gate(f, epoch);
                    queue.push_back(f);
                }
            }
        }
        (region, epoch)
    }

    /// In-degree of each region gate counting only in-region fanins
    /// (timing sources take no fanin dependencies).
    pub(crate) fn region_in_degrees(&self, region: &[GateId], epoch: u32) -> Vec<u32> {
        region
            .iter()
            .map(|&v| {
                let gate = &self.circuit.gates[v as usize];
                if gate.kind.is_source() {
                    0
                } else {
                    gate.fanins
                        .iter()
                        .filter(|&&u| self.is_stamped(u, epoch))
                        .count() as u32
                }
            })
            .collect()
    }
}

impl std::fmt::Debug for TimerInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerInner")
            .field("gates", &self.circuit.num_gates())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> Arc<TimerInner> {
        // inp -> inv -> buf -> out
        let mut c = Circuit::new(500.0);
        let inp = c.add_gate(GateKind::Input, 1.0);
        let inv = c.add_gate(GateKind::Inv, 1.0);
        let buf = c.add_gate(GateKind::Buf, 1.0);
        let out = c.add_gate(GateKind::Output, 1.0);
        c.connect(inp, inv);
        c.connect(inv, buf);
        c.connect(buf, out);
        TimerInner::new(c)
    }

    fn full_sequential(t: &TimerInner) {
        for g in t.circuit.timing_topological_order().unwrap() {
            t.compute_gate(g);
        }
    }

    #[test]
    fn arrivals_increase_along_chain() {
        let t = chain();
        full_sequential(&t);
        assert!(t.arrival(0) > 0.0); // port delay
        assert!(t.arrival(1) > t.arrival(0));
        assert!(t.arrival(2) > t.arrival(1));
        assert_eq!(t.arrival(3), t.arrival(2)); // output port copies
    }

    #[test]
    fn slack_is_period_minus_arrival() {
        let t = chain();
        full_sequential(&t);
        let slack = t.endpoint_slack(3).unwrap();
        assert!((slack - (500.0 - t.arrival(3))).abs() < 1e-9);
        assert_eq!(t.worst_slack(), slack);
        assert_eq!(t.endpoint_slack(1), None);
    }

    #[test]
    fn critical_path_walks_the_chain() {
        let t = chain();
        full_sequential(&t);
        assert_eq!(t.critical_path(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn dff_launch_ignores_d_arrival() {
        // inp -> xor(a) -> dff -> out ; dff launch constant.
        let mut c = Circuit::new(500.0);
        let inp = c.add_gate(GateKind::Input, 1.0);
        let inv = c.add_gate(GateKind::Inv, 1.0);
        let dff = c.add_gate(GateKind::Dff, 1.0);
        let out = c.add_gate(GateKind::Output, 1.0);
        c.connect(inp, inv);
        c.connect(inv, dff);
        c.connect(dff, out);
        let t = TimerInner::new(c);
        full_sequential(&t);
        let q_arrival = t.arrival(dff);
        assert!(q_arrival > 0.0);
        // DFF endpoint slack uses the D-side fanin arrival.
        let d_slack = t.endpoint_slack(dff).unwrap();
        assert!((d_slack - (500.0 - DFF_SETUP - t.arrival(inv))).abs() < 1e-9);
    }

    #[test]
    fn forward_region_stops_at_dff() {
        // inp -> inv -> dff -> buf -> out : region from inv must not cross
        // the dff.
        let mut c = Circuit::new(500.0);
        let inp = c.add_gate(GateKind::Input, 1.0);
        let inv = c.add_gate(GateKind::Inv, 1.0);
        let dff = c.add_gate(GateKind::Dff, 1.0);
        let buf = c.add_gate(GateKind::Buf, 1.0);
        let out = c.add_gate(GateKind::Output, 1.0);
        c.connect(inp, inv);
        c.connect(inv, dff);
        c.connect(dff, buf);
        c.connect(buf, out);
        let t = TimerInner::new(c);
        let (region, _) = t.forward_region(&[inv]);
        assert_eq!(region, vec![inv]);
        let (region, _) = t.forward_region(&[buf]);
        assert_eq!(region, vec![buf, out]);
        let _ = (inp, dff);
    }

    #[test]
    fn region_in_degrees_restrict_to_region() {
        let t = chain();
        let (region, epoch) = t.forward_region(&[1]); // inv, buf, out
        let degrees = t.region_in_degrees(&region, epoch);
        assert_eq!(region, vec![1, 2, 3]);
        assert_eq!(degrees, vec![0, 1, 1]); // inv's fanin (inp) is outside
    }
}
