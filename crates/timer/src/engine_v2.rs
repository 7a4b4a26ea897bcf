//! OpenTimer v2: the rustflow (Cpp-Taskflow-style) timing engine.
//!
//! The v2 row of Table II. One function builds every timing graph this
//! crate dispatches or draws: the region's gates are sorted by their
//! static longest-path level (a topological order that costs one counting
//! sort, because the levels were computed once at `Timer::new`), the
//! sorted order is cut into blocks of `BLOCK` gates, each block becomes
//! one rustflow task that propagates its gates in order, and one `precede`
//! joins every pair of blocks that a timing edge crosses. It is a true
//! dependency graph with no level barriers, and the tasking library still
//! absorbs every scheduling concern that v1 had to hand-build ("a large
//! amount of exhaustive OpenMP dependency clauses ... are now replaced
//! with only a few lines of flexible Cpp-Taskflow code"); what the blocks
//! change is that graph construction, a per-node cost paid serially on
//! the caller, is spread over `BLOCK` gates of ≈100 ns each instead of
//! one (EXPERIMENTS.md, "tf-timer v2 granularity"). The caller waits in
//! `Taskflow::wait_for_all`, which runs the graph it dispatches on the
//! calling thread: the median update never leaves the caller and wakes
//! nobody (EXPERIMENTS.md, "The caller helps").

use crate::analysis::TimerInner;
use crate::circuit::GateId;
use crate::engine_v1::SharedTimer;
use rustflow::{Executor, Task, Taskflow};
use std::ops::Range;
use std::sync::Arc;

/// Gates per task, chosen by the sweep in EXPERIMENTS.md ("tf-timer v2
/// granularity"): on the 35k-gate design with two workers 16 is the
/// fastest, 8 to 32 are within 7 % of it, and both ends lose. Smaller
/// blocks pay the per-node build, submit and drop cost too often (one
/// task per gate costs 1.8x); larger ones leave too few tasks in flight,
/// so the second worker parks and is woken again several times per
/// update (64 and above cost 1.15x).
pub(crate) const BLOCK: usize = 16;

/// Which propagation a timing graph performs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Pass {
    /// Forward: arrival and slew, sources first.
    Arrival,
    /// Backward: required time, endpoints first, edges reversed.
    Required,
}

impl Pass {
    fn propagate(self, inner: &TimerInner, g: GateId) {
        match self {
            Pass::Arrival => inner.compute_gate(g),
            Pass::Required => inner.compute_required(g),
        }
    }

    /// The gates whose values `g`'s propagation reads: its fanins going
    /// forward (none for a timing source), its fanouts going backward
    /// (edges into a timing source are cut in both directions).
    fn reads(self, inner: &TimerInner, g: GateId) -> impl Iterator<Item = GateId> + '_ {
        let gates = &inner.circuit.gates;
        let gate = &gates[g as usize];
        let reads = match self {
            Pass::Arrival if gate.kind.is_source() => &[][..],
            Pass::Arrival => &gate.fanins[..],
            Pass::Required => &gate.fanouts[..],
        };
        reads
            .iter()
            .copied()
            .filter(move |&r| self == Pass::Arrival || !gates[r as usize].kind.is_source())
    }
}

/// The region sorted by level (ascending for arrivals, descending for
/// required times), gates of one level in the order the region lists
/// them; records each gate's position as its region index.
pub(crate) fn level_order(inner: &TimerInner, region: &[GateId], pass: Pass) -> Vec<GateId> {
    let levels = inner.num_levels();
    let key = |g: GateId| match pass {
        Pass::Arrival => inner.level(g),
        Pass::Required => levels - 1 - inner.level(g),
    };
    // Counting sort: `next[k]` is where the next gate of key `k` goes.
    let mut next = vec![0u32; levels + 1];
    for &g in region {
        next[key(g) + 1] += 1;
    }
    for k in 0..levels {
        next[k + 1] += next[k];
    }
    let mut order = vec![0; region.len()];
    for &g in region {
        let at = &mut next[key(g)];
        order[*at as usize] = g;
        inner.set_region_index(g, *at as usize);
        *at += 1;
    }
    order
}

/// Builds the timing graph of one pass over a stamped region, given the
/// region's [`level_order`] for that pass (which also recorded the region
/// indices read here): `task` makes the node of one block (it receives
/// the block's range in `order`), this function orders the blocks.
///
/// Level order puts everything a gate reads at a lower position, so a
/// read either stays inside a block (the block runs its gates in order)
/// or comes from an earlier block, which gets one deduplicated edge.
pub(crate) fn build_block_graph<'t>(
    inner: &TimerInner,
    order: &[GateId],
    epoch: u32,
    pass: Pass,
    mut task: impl FnMut(Range<usize>) -> Task<'t>,
) {
    let tasks: Vec<Task<'t>> = (0..order.len())
        .step_by(BLOCK)
        .map(|start| task(start..order.len().min(start + BLOCK)))
        .collect();
    // `joined[a] == b`: the edge a -> b is already there. Blocks are
    // visited in ascending `b`, so one word per source block is enough.
    let mut joined = vec![usize::MAX; tasks.len()];
    for (b, gates) in order.chunks(BLOCK).enumerate() {
        for &g in gates {
            for read in pass.reads(inner, g) {
                if !inner.is_stamped(read, epoch) {
                    continue;
                }
                let a = inner.region_index(read) / BLOCK;
                if a != b && joined[a] != b {
                    joined[a] = b;
                    tasks[a].precede(tasks[b]);
                }
            }
        }
    }
}

/// What every block task of one update shares, behind one `Arc`.
struct Update {
    timer: SharedTimer,
    order: Vec<GateId>,
    pass: Pass,
}

/// Cpp-Taskflow-style: build a task dependency graph over the region and
/// dispatch it. Construction is part of the measured work, matching the
/// paper ("the time to create and launch a new task dependency graph").
///
/// A block's closure is two words, the shared [`Update`] and the block's
/// bounds as two `u32`s, so rustflow stores it in the task's node and
/// building the graph allocates per chunk of nodes, not per block.
pub(crate) fn run_rustflow(
    inner: &TimerInner,
    region: &[GateId],
    epoch: u32,
    pass: Pass,
    executor: &Arc<Executor>,
) {
    let tf = Taskflow::with_executor(Arc::clone(executor));
    let update = Arc::new(Update {
        timer: SharedTimer(inner as *const TimerInner),
        order: level_order(inner, region, pass),
        pass,
    });
    build_block_graph(inner, &update.order, epoch, pass, |block| {
        let update = Arc::clone(&update);
        let bound = |i: usize| u32::try_from(i).expect("a region position fits a GateId");
        let (start, end) = (bound(block.start), bound(block.end));
        tf.emplace(move || {
            // SAFETY: wait_for_all below keeps `inner` borrowed until
            // every task completed.
            let timer = unsafe { update.timer.get() };
            for &g in &update.order[start as usize..end as usize] {
                update.pass.propagate(timer, g);
            }
        })
    });
    tf.wait_for_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::CircuitSpec;
    use crate::{Engine, Timer};
    use rustflow::GraphDiagnostic;
    use std::collections::{BTreeSet, HashMap};

    /// Builds `pass`'s graph over a region out of placeholders and checks
    /// it against the timing edges: ⌈n/BLOCK⌉ blocks, every read at a
    /// lower position, the block edges exactly the block pairs a read
    /// crosses, none of them twice.
    fn check_graph(inner: &TimerInner, region: &[GateId], epoch: u32, pass: Pass) {
        let tf = Taskflow::new();
        let order = level_order(inner, region, pass);
        build_block_graph(inner, &order, epoch, pass, |_| tf.placeholder());
        assert_eq!(tf.num_nodes(), region.len().div_ceil(BLOCK));

        let snapshot = tf.profile_snapshot();
        let block_of: HashMap<u64, usize> = snapshot
            .nodes
            .iter()
            .map(|n| (n.id, n.static_index.expect("top-level node")))
            .collect();
        let built: BTreeSet<(usize, usize)> = snapshot
            .nodes
            .iter()
            .flat_map(|n| n.successors.iter().map(|s| (block_of[&n.id], block_of[s])))
            .collect();

        let mut crossed = BTreeSet::new();
        for &g in region {
            for read in pass.reads(inner, g) {
                if !inner.is_stamped(read, epoch) {
                    continue;
                }
                let (from, to) = (inner.region_index(read), inner.region_index(g));
                assert!(from < to, "{pass:?}: gate {g} runs before gate {read}");
                if from / BLOCK != to / BLOCK {
                    crossed.insert((from / BLOCK, to / BLOCK));
                }
            }
        }
        assert_eq!(built, crossed, "{pass:?} over {} gates", region.len());
        assert!(
            !tf.validate()
                .iter()
                .any(|d| matches!(d, GraphDiagnostic::DuplicateEdge { .. })),
            "{pass:?}: an edge was added twice"
        );
    }

    #[test]
    fn block_graph_is_the_timing_graph_of_its_blocks() {
        let circuit = CircuitSpec::small_test(1_500, 5).generate();
        let inner = TimerInner::new(circuit);
        let sources: Vec<GateId> = inner.circuit.sources().collect();
        let (region, epoch) = inner.forward_region(&sources);
        assert!(region.len() > 20 * BLOCK);
        check_graph(&inner, &region, epoch, Pass::Arrival);
        let (region, epoch) = inner.whole_design();
        check_graph(&inner, &region, epoch, Pass::Required);
        // Cones of single gates: regions from one gate to a few blocks.
        let mut sizes = BTreeSet::new();
        for g in (0..inner.circuit.num_gates() as GateId).step_by(7) {
            let (region, epoch) = inner.forward_region(&[g]);
            sizes.insert(region.len().div_ceil(BLOCK));
            check_graph(&inner, &region, epoch, Pass::Arrival);
        }
        assert!(sizes.contains(&1) && sizes.len() > 3, "{sizes:?}");
    }

    #[test]
    fn an_update_executes_one_task_per_block() {
        let circuit = CircuitSpec::small_test(1_000, 9).generate();
        let ex = Executor::new(2);
        let engine = Engine::V2Rustflow(&ex);
        let mut timer = Timer::new(circuit);
        let executed = || ex.stats().total().executed as usize;
        let mut before = executed();
        let mut expect_blocks = |gates: usize| {
            let now = executed();
            assert_eq!(now - before, gates.div_ceil(BLOCK), "{gates} gates");
            before = now;
        };
        expect_blocks(timer.full_update(&engine));
        expect_blocks(timer.update_required(&engine));
        let mut modifier = crate::DesignModifier::new(timer.circuit(), 3);
        for _ in 0..20 {
            let seeds = modifier.apply(&mut timer);
            expect_blocks(timer.incremental_update(&seeds, &engine));
        }
    }
}
