//! Gate-level netlist model.
//!
//! The paper's motivating application (§II) is OpenTimer, a static timing
//! analyzer for VLSI designs. We model a design as a gate-level graph:
//! primary inputs, combinational cells, D-flip-flops, and primary outputs,
//! with fanin/fanout edges. Flip-flops cut the graph into combinational
//! cones: a DFF's Q output *launches* a path (arrival starts at its
//! clock-to-Q delay) and its D input *captures* one (a timing endpoint
//! checked against the clock period), so the timing graph is acyclic even
//! when the netlist has sequential feedback.

/// Cell function of a gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Primary input port (timing source, arrival 0).
    Input,
    /// Primary output port (timing endpoint).
    Output,
    /// Inverter.
    Inv,
    /// Buffer.
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// D flip-flop: timing source (CLK→Q launch) *and* endpoint (D setup).
    Dff,
}

impl GateKind {
    /// All combinational 1- and 2-input cells (used by generators and
    /// design modifiers).
    pub const COMBINATIONAL: [GateKind; 7] = [
        GateKind::Inv,
        GateKind::Buf,
        GateKind::Nand2,
        GateKind::Nor2,
        GateKind::And2,
        GateKind::Or2,
        GateKind::Xor2,
    ];

    /// `true` for cells whose output launches a new path (arrival does not
    /// depend on fanin arrivals).
    pub fn is_source(self) -> bool {
        matches!(self, GateKind::Input | GateKind::Dff)
    }

    /// `true` for cells that terminate a path (slack is checked here).
    pub fn is_endpoint(self) -> bool {
        matches!(self, GateKind::Output | GateKind::Dff)
    }

    /// Maximum number of logic inputs this cell samples.
    pub fn max_fanin(self) -> usize {
        match self {
            GateKind::Input => 0,
            GateKind::Output | GateKind::Inv | GateKind::Buf | GateKind::Dff => 1,
            _ => 2,
        }
    }
}

/// Gate identifier: index into [`Circuit::gates`].
pub type GateId = u32;

/// One instance in the netlist.
#[derive(Debug, Clone)]
pub struct Gate {
    /// Cell function.
    pub kind: GateKind,
    /// Drive strength (X1 = 1.0). Resizing a gate changes this: larger
    /// drive → faster cell, bigger input capacitance.
    pub drive: f32,
    /// Driving gates (logic inputs; for a DFF, its D-side fanins).
    pub fanins: Vec<GateId>,
    /// Driven gates.
    pub fanouts: Vec<GateId>,
}

/// A gate-level design.
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    /// All gates; edges are stored on both endpoints.
    pub gates: Vec<Gate>,
    /// Clock period in picoseconds (capture constraint for endpoints).
    pub clock_period: f64,
}

impl Circuit {
    /// An empty design with the given clock period (ps).
    pub fn new(clock_period: f64) -> Circuit {
        Circuit {
            gates: Vec::new(),
            clock_period,
        }
    }

    /// Adds a gate with no connections; returns its id.
    pub fn add_gate(&mut self, kind: GateKind, drive: f32) -> GateId {
        let id = self.gates.len() as GateId;
        self.gates.push(Gate {
            kind,
            drive,
            fanins: Vec::new(),
            fanouts: Vec::new(),
        });
        id
    }

    /// Connects `from`'s output to one of `to`'s inputs.
    ///
    /// Panics when `to` already has its maximum fanin, or on self-loops.
    pub fn connect(&mut self, from: GateId, to: GateId) {
        assert_ne!(from, to, "self-loop");
        let max = self.gates[to as usize].kind.max_fanin();
        assert!(
            self.gates[to as usize].fanins.len() < max,
            "gate {to} ({:?}) fanin overflow",
            self.gates[to as usize].kind
        );
        self.gates[from as usize].fanouts.push(to);
        self.gates[to as usize].fanins.push(from);
    }

    /// Number of gates (including ports).
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Number of nets (one per driving gate with at least one fanout).
    pub fn num_nets(&self) -> usize {
        self.gates.iter().filter(|g| !g.fanouts.is_empty()).count()
    }

    /// Number of fanin/fanout edges.
    pub fn num_edges(&self) -> usize {
        self.gates.iter().map(|g| g.fanouts.len()).sum()
    }

    /// Ids of all timing endpoints (primary outputs and DFF D-inputs).
    pub fn endpoints(&self) -> impl Iterator<Item = GateId> + '_ {
        self.gates
            .iter()
            .enumerate()
            .filter(|(_, g)| g.kind.is_endpoint())
            .map(|(i, _)| i as GateId)
    }

    /// Ids of all timing sources (primary inputs and DFF Q-outputs).
    pub fn sources(&self) -> impl Iterator<Item = GateId> + '_ {
        self.gates
            .iter()
            .enumerate()
            .filter(|(_, g)| g.kind.is_source())
            .map(|(i, _)| i as GateId)
    }

    /// Topological order of the *timing graph* and every gate's
    /// longest-path level in it (levelization, §II-D), from one Kahn pass.
    /// Edges into a source gate (DFF) are cut, so both exist even with
    /// sequential feedback; sources sit at level 0 and every other gate one
    /// above its deepest fanin. Returns `None` if a combinational loop
    /// exists.
    pub fn timing_order_and_levels(&self) -> Option<(Vec<GateId>, Vec<u32>)> {
        let n = self.num_gates();
        let mut degree = vec![0u32; n];
        for (i, g) in self.gates.iter().enumerate() {
            if !g.kind.is_source() {
                degree[i] = g.fanins.len() as u32;
            }
        }
        let mut level = vec![0u32; n];
        let mut order = Vec::with_capacity(n);
        let mut frontier: Vec<GateId> = (0..n as GateId)
            .filter(|&v| degree[v as usize] == 0)
            .collect();
        while let Some(v) = frontier.pop() {
            // Every fanin of `v` was popped before it: its level is final.
            order.push(v);
            let below = level[v as usize] + 1;
            for &s in &self.gates[v as usize].fanouts {
                // Edges into timing sources are cut in the timing graph.
                if self.gates[s as usize].kind.is_source() {
                    continue;
                }
                level[s as usize] = level[s as usize].max(below);
                degree[s as usize] -= 1;
                if degree[s as usize] == 0 {
                    frontier.push(s);
                }
            }
        }
        (order.len() == n).then_some((order, level))
    }

    /// Topological order of the timing graph (see
    /// [`Circuit::timing_order_and_levels`]). Returns `None` if a
    /// combinational loop exists.
    pub fn timing_topological_order(&self) -> Option<Vec<GateId>> {
        self.timing_order_and_levels().map(|(order, _)| order)
    }

    /// The gates of each longest-path level of the timing graph, level 0
    /// first. Returns `None` on a combinational loop.
    pub fn levelize(&self) -> Option<Vec<Vec<GateId>>> {
        let (_, level) = self.timing_order_and_levels()?;
        let depth = level.iter().max().map_or(1, |&l| l as usize + 1);
        let mut levels = vec![Vec::new(); depth];
        for (v, &l) in level.iter().enumerate() {
            levels[l as usize].push(v as GateId);
        }
        Some(levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// inp → inv → dff → buf → out, plus dff feedback through an inverter
    /// (sequential loop that the timing graph must cut).
    pub(crate) fn tiny_seq_circuit() -> Circuit {
        let mut c = Circuit::new(1000.0);
        let inp = c.add_gate(GateKind::Input, 1.0);
        let inv = c.add_gate(GateKind::Inv, 1.0);
        let dff = c.add_gate(GateKind::Dff, 1.0);
        let buf = c.add_gate(GateKind::Buf, 1.0);
        let out = c.add_gate(GateKind::Output, 1.0);
        let fb = c.add_gate(GateKind::Inv, 1.0);
        c.connect(inp, inv);
        c.connect(inv, dff); // D input
        c.connect(dff, buf); // Q output
        c.connect(buf, out);
        c.connect(dff, fb); // side branch off Q (dangling sink)
        c
    }

    #[test]
    fn construction_counts() {
        let c = tiny_seq_circuit();
        assert_eq!(c.num_gates(), 6);
        assert!(c.num_edges() >= 4);
        assert!(c.num_nets() >= 3);
        assert_eq!(c.sources().count(), 2); // input + dff
        assert_eq!(c.endpoints().count(), 2); // output + dff
    }

    #[test]
    fn timing_order_cuts_sequential_feedback() {
        let mut c = Circuit::new(1000.0);
        let dff = c.add_gate(GateKind::Dff, 1.0);
        let inv = c.add_gate(GateKind::Inv, 1.0);
        // dff -> inv -> dff : sequential loop, cut at the dff's D input.
        c.connect(dff, inv);
        c.connect(inv, dff);
        let order = c.timing_topological_order().expect("loop must be cut");
        assert_eq!(order.len(), 2);
    }

    #[test]
    fn combinational_loop_detected() {
        let mut c = Circuit::new(1000.0);
        let a = c.add_gate(GateKind::Nand2, 1.0);
        let b = c.add_gate(GateKind::Nand2, 1.0);
        c.connect(a, b);
        c.connect(b, a);
        assert!(c.timing_topological_order().is_none());
        assert!(c.levelize().is_none());
    }

    #[test]
    fn levelize_orders_by_depth() {
        let c = tiny_seq_circuit();
        let levels = c.levelize().unwrap();
        // Level 0 must contain all sources.
        let l0 = &levels[0];
        for s in c.sources() {
            assert!(l0.contains(&s), "source {s} not at level 0");
        }
    }

    #[test]
    #[should_panic(expected = "fanin overflow")]
    fn fanin_overflow_panics() {
        let mut c = Circuit::new(1000.0);
        let a = c.add_gate(GateKind::Input, 1.0);
        let b = c.add_gate(GateKind::Input, 1.0);
        let inv = c.add_gate(GateKind::Inv, 1.0);
        c.connect(a, inv);
        c.connect(b, inv);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut c = Circuit::new(1000.0);
        let a = c.add_gate(GateKind::Buf, 1.0);
        c.connect(a, a);
    }
}
