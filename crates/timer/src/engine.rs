//! The timing engines: OpenTimer v1 (levelized / OpenMP-style) and v2
//! (task-graph / Cpp-Taskflow-style), plus a sequential oracle.
//!
//! Both engines execute the *same* per-gate propagation
//! ([`TimerInner::compute_gate`]) over the *same* affected region; what
//! differs — and what Figures 9 and 10 of the paper measure — is how the
//! region's dependency structure is turned into parallel work:
//!
//! * **v1** levelizes the region (the per-iteration data-structure
//!   reconstruction OpenTimer v1 pays, §IV-B) and runs one
//!   barrier-synchronized `parallel_for` per level;
//! * **v2** builds a rustflow task dependency graph over the region (one
//!   task per block of level-sorted gates, one `precede` per pair of
//!   blocks a timing edge crosses; see [`crate::engine_v2`]) and lets
//!   computations "flow naturally with the timing graph".

use crate::analysis::TimerInner;
use crate::circuit::{Circuit, GateId};
use crate::engine_v1::run_levelized;
use crate::engine_v2::{build_block_graph, level_order, run_rustflow, Pass};
use rustflow::{Executor, Taskflow};
use std::sync::Arc;
use tf_baselines::Pool;

/// Which engine executes a timing update.
pub enum Engine<'a> {
    /// Single-threaded topological propagation (oracle / baseline).
    Sequential,
    /// OpenTimer v1: levelize + barrier-per-level parallel loops.
    V1Levelized(&'a Pool),
    /// OpenTimer v2: rustflow task dependency graph.
    V2Rustflow(&'a Arc<Executor>),
}

/// A static timing analyzer over one design (the OpenTimer equivalent).
///
/// ```
/// use tf_timer::{generate, Engine, Timer};
/// let circuit = generate::CircuitSpec::small_test(200, 7).generate();
/// let timer = Timer::new(circuit);
/// timer.full_update(&Engine::Sequential);
/// assert!(timer.worst_slack().is_finite());
/// ```
pub struct Timer {
    inner: Arc<TimerInner>,
}

impl Timer {
    /// Wraps a circuit for timing analysis, levelizing its timing graph
    /// once. Panics on combinational loops.
    pub fn new(circuit: Circuit) -> Timer {
        Timer {
            inner: TimerInner::new(circuit),
        }
    }

    /// The design under analysis.
    pub fn circuit(&self) -> &Circuit {
        &self.inner.circuit
    }

    /// Recomputes timing for the whole design. Returns the number of
    /// gates propagated.
    pub fn full_update(&self, engine: &Engine<'_>) -> usize {
        let seeds: Vec<GateId> = self.inner.circuit.sources().collect();
        self.incremental_update(&seeds, engine)
    }

    /// Recomputes timing for the affected region of `seeds` (modified
    /// gates plus any gate whose load they changed). Returns the number of
    /// gates propagated: the paper's per-iteration task count, whatever
    /// the engine groups them into (v2 runs one rustflow task per block of
    /// gates).
    pub fn incremental_update(&self, seeds: &[GateId], engine: &Engine<'_>) -> usize {
        let (region, epoch) = self.inner.forward_region(seeds);
        if region.is_empty() {
            return 0;
        }
        match engine {
            Engine::Sequential => run_sequential(&self.inner, &region, epoch),
            Engine::V1Levelized(pool) => run_levelized(&self.inner, &region, epoch, pool),
            Engine::V2Rustflow(executor) => {
                run_rustflow(&self.inner, &region, epoch, Pass::Arrival, executor)
            }
        }
        region.len()
    }

    /// Worst (minimum) slack over all endpoints.
    pub fn worst_slack(&self) -> f64 {
        self.inner.worst_slack()
    }

    /// Slack at one endpoint, `None` for non-endpoints.
    pub fn endpoint_slack(&self, e: GateId) -> Option<f64> {
        self.inner.endpoint_slack(e)
    }

    /// Arrival time at a gate's output.
    pub fn arrival(&self, g: GateId) -> f64 {
        self.inner.arrival(g)
    }

    /// Output slew at a gate.
    pub fn slew(&self, g: GateId) -> f64 {
        self.inner.slew(g)
    }

    /// The critical path, source → endpoint.
    pub fn critical_path(&self) -> Vec<GateId> {
        self.inner.critical_path()
    }

    /// The `k` worst endpoints by slack, worst first — OpenTimer's
    /// `report_timing` query shape.
    pub fn report_timing(&self, k: usize) -> Vec<(GateId, f64)> {
        let mut endpoints: Vec<(GateId, f64)> = self
            .inner
            .circuit
            .endpoints()
            .filter_map(|e| self.inner.endpoint_slack(e).map(|s| (e, s)))
            .collect();
        endpoints.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite slacks"));
        endpoints.truncate(k);
        endpoints
    }

    /// Runs the backward (required-arrival-time) pass over the whole
    /// design, filling per-gate required times so [`Timer::gate_slack`]
    /// becomes meaningful. Requires arrivals to be up to date (run a
    /// forward update first). Returns the number of gates propagated.
    ///
    /// The backward pass is the reverse of the timing graph: a gate is
    /// computed after all its fanouts. Under `V1Levelized` the forward
    /// levels are executed in reverse order; under `V2Rustflow` the
    /// forward pass's block graph is built with levels descending and
    /// edges reversed.
    pub fn update_required(&self, engine: &Engine<'_>) -> usize {
        let inner = &*self.inner;
        let n = inner.circuit.num_gates();
        match engine {
            Engine::Sequential => {
                let order = inner
                    .circuit
                    .timing_topological_order()
                    .expect("checked at construction");
                for &g in order.iter().rev() {
                    inner.compute_required(g);
                }
            }
            Engine::V1Levelized(pool) => {
                let levels = inner.circuit.levelize().expect("checked at construction");
                for level in levels.iter().rev() {
                    crate::engine_v1::run_level_backward(inner, level, pool);
                }
            }
            Engine::V2Rustflow(executor) => {
                let (region, epoch) = inner.whole_design();
                run_rustflow(inner, &region, epoch, Pass::Required, executor);
            }
        }
        n
    }

    /// Slack at any gate's output (`required − arrival`); +inf until
    /// [`Timer::update_required`] has run.
    pub fn gate_slack(&self, g: GateId) -> f64 {
        self.inner.gate_slack(g)
    }

    /// Required arrival time at a gate's output.
    pub fn required(&self, g: GateId) -> f64 {
        self.inner.required(g)
    }

    /// Resizes a gate's drive strength; returns the seed set whose timing
    /// became stale (the gate and its fanins, whose loads changed).
    ///
    /// `&mut self` — design modification is exclusive, like OpenTimer's.
    /// This is the only design modification there is, and it may change
    /// `drive` only: the gate levels computed at [`Timer::new`], which the
    /// v2 engine orders every update by, depend on the netlist's structure
    /// staying what it was.
    pub fn resize_gate(&mut self, g: GateId, drive: f32) -> Vec<GateId> {
        let inner = Arc::get_mut(&mut self.inner)
            .expect("resize_gate: updates in flight while modifying the design");
        inner.circuit.gates[g as usize].drive = drive;
        let mut seeds = inner.circuit.gates[g as usize].fanins.clone();
        seeds.push(g);
        seeds
    }

    /// Renders the task dependency graph the v2 engine dispatches for one
    /// incremental update as GraphViz DOT (the paper's Figure 8), without
    /// executing it. A node is one block of gates, named
    /// `L<level> g<first>..g<last>` after its first gate's level and its
    /// first and last gate.
    pub fn update_task_graph_dot(&self, seeds: &[GateId]) -> String {
        let inner = &*self.inner;
        let (region, epoch) = inner.forward_region(seeds);
        let tf = Taskflow::new();
        tf.set_name("timing_update");
        let order = level_order(inner, &region, Pass::Arrival);
        build_block_graph(inner, &order, epoch, Pass::Arrival, |block| {
            let (first, last) = (order[block.start], order[block.end - 1]);
            tf.placeholder()
                .name(format!("L{} g{first}..g{last}", inner.level(first)))
        });
        tf.dump()
    }
}

impl std::fmt::Debug for Timer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Timer")
            .field("gates", &self.inner.circuit.num_gates())
            .field("endpoints", &self.inner.circuit.endpoints().count())
            .finish()
    }
}

/// Sequential propagation in region topological order (Kahn).
fn run_sequential(inner: &TimerInner, region: &[GateId], epoch: u32) {
    let mut degree = inner.region_in_degrees(region, epoch);
    let mut stack: Vec<usize> = (0..region.len()).filter(|&i| degree[i] == 0).collect();
    let mut done = 0;
    while let Some(i) = stack.pop() {
        let g = region[i];
        inner.compute_gate(g);
        done += 1;
        for &f in &inner.circuit.gates[g as usize].fanouts {
            if inner.circuit.gates[f as usize].kind.is_source() {
                continue;
            }
            if inner.is_stamped(f, epoch) {
                let j = inner.region_index(f);
                degree[j] -= 1;
                if degree[j] == 0 {
                    stack.push(j);
                }
            }
        }
    }
    assert_eq!(done, region.len(), "region propagation incomplete (cycle?)");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::GateKind;
    use crate::generate::CircuitSpec;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn engines_agree_on_full_update() {
        let circuit = CircuitSpec::small_test(400, 11).generate();
        let seq = Timer::new(circuit.clone());
        seq.full_update(&Engine::Sequential);

        let pool = Pool::new(4);
        let v1 = Timer::new(circuit.clone());
        v1.full_update(&Engine::V1Levelized(&pool));

        let ex = Executor::new(4);
        let v2 = Timer::new(circuit.clone());
        v2.full_update(&Engine::V2Rustflow(&ex));

        for g in 0..circuit.num_gates() as GateId {
            assert!(
                approx(seq.arrival(g), v1.arrival(g)),
                "v1 mismatch at {g}: {} vs {}",
                seq.arrival(g),
                v1.arrival(g)
            );
            assert!(
                approx(seq.arrival(g), v2.arrival(g)),
                "v2 mismatch at {g}: {} vs {}",
                seq.arrival(g),
                v2.arrival(g)
            );
        }
        assert!(approx(seq.worst_slack(), v1.worst_slack()));
        assert!(approx(seq.worst_slack(), v2.worst_slack()));
    }

    #[test]
    fn incremental_matches_full_recompute() {
        let circuit = CircuitSpec::small_test(300, 13).generate();
        let mut timer = Timer::new(circuit.clone());
        timer.full_update(&Engine::Sequential);

        // Pick a mid-circuit combinational gate and resize it.
        let victim = circuit
            .gates
            .iter()
            .position(|g| GateKind::COMBINATIONAL.contains(&g.kind) && !g.fanouts.is_empty())
            .expect("no combinational gate") as GateId;
        let seeds = timer.resize_gate(victim, 2.0);
        let tasks = timer.incremental_update(&seeds, &Engine::Sequential);
        assert!(tasks > 0);

        // Oracle: full recompute on an identical modified circuit.
        let mut oracle_circuit = circuit.clone();
        oracle_circuit.gates[victim as usize].drive = 2.0;
        let oracle = Timer::new(oracle_circuit);
        oracle.full_update(&Engine::Sequential);

        for g in 0..circuit.num_gates() as GateId {
            assert!(
                approx(timer.arrival(g), oracle.arrival(g)),
                "stale arrival at {g}"
            );
        }
        assert!(approx(timer.worst_slack(), oracle.worst_slack()));
    }

    #[test]
    fn incremental_engines_agree() {
        let circuit = CircuitSpec::small_test(500, 17).generate();
        let pool = Pool::new(3);
        let ex = Executor::new(3);

        let mut t_seq = Timer::new(circuit.clone());
        let mut t_v1 = Timer::new(circuit.clone());
        let mut t_v2 = Timer::new(circuit.clone());
        t_seq.full_update(&Engine::Sequential);
        t_v1.full_update(&Engine::V1Levelized(&pool));
        t_v2.full_update(&Engine::V2Rustflow(&ex));

        let victim = circuit
            .gates
            .iter()
            .position(|g| GateKind::COMBINATIONAL.contains(&g.kind) && g.fanouts.len() > 1)
            .expect("no fanout gate") as GateId;
        let s1 = t_seq.resize_gate(victim, 4.0);
        let s2 = t_v1.resize_gate(victim, 4.0);
        let s3 = t_v2.resize_gate(victim, 4.0);
        let n1 = t_seq.incremental_update(&s1, &Engine::Sequential);
        let n2 = t_v1.incremental_update(&s2, &Engine::V1Levelized(&pool));
        let n3 = t_v2.incremental_update(&s3, &Engine::V2Rustflow(&ex));
        assert_eq!(n1, n2);
        assert_eq!(n1, n3);
        for g in 0..circuit.num_gates() as GateId {
            assert!(approx(t_seq.arrival(g), t_v1.arrival(g)), "v1 at {g}");
            assert!(approx(t_seq.arrival(g), t_v2.arrival(g)), "v2 at {g}");
        }
    }

    #[test]
    fn update_task_graph_dot_renders() {
        let circuit = CircuitSpec::small_test(50, 3).generate();
        let timer = Timer::new(circuit);
        let seeds: Vec<GateId> = timer.circuit().sources().take(2).collect();
        let dot = timer.update_task_graph_dot(&seeds);
        assert!(dot.starts_with("digraph"));
        // The first block starts at the first seed, a level-0 source.
        assert!(dot.contains(&format!("L0 g{}..g", seeds[0])), "{dot}");
    }

    #[test]
    #[should_panic(expected = "combinational loop")]
    fn loop_rejected() {
        let mut c = Circuit::new(100.0);
        let a = c.add_gate(GateKind::Nand2, 1.0);
        let b = c.add_gate(GateKind::Nand2, 1.0);
        c.connect(a, b);
        c.connect(b, a);
        let _ = Timer::new(c);
    }
}
