//! Dynamic tasking (§III-D of the paper).
//!
//! A task created with [`Taskflow::emplace_subflow`](crate::Taskflow::emplace_subflow)
//! receives a [`Subflow`] when it executes. Through it, the task spawns a
//! child task dependency graph *at runtime* using exactly the same building
//! blocks as static tasking — `emplace`, `placeholder`, `precede` — the
//! paper's "unified interface" contribution.
//!
//! By default a subflow **joins** its parent: the parent task is not
//! considered finished (and its successors cannot run) until every spawned
//! child has finished. Calling [`Subflow::detach`] decouples the children:
//! the parent completes immediately and the children merely extend the
//! enclosing topology, which still waits for them before fulfilling its
//! future ("a detached subflow will eventually join the end of the
//! topology of its parent task").

use crate::graph::{RawNode, Work};
use crate::task::Task;
use std::cell::Cell;
use std::marker::PhantomData;

/// Builder handed to a dynamic task while it runs.
pub struct Subflow<'s> {
    /// The parent node currently executing.
    pub(crate) node: RawNode,
    /// Whether `detach` was called.
    pub(crate) detached: Cell<bool>,
    _marker: PhantomData<&'s ()>,
}

impl<'s> Subflow<'s> {
    pub(crate) fn new(node: RawNode) -> Subflow<'s> {
        Subflow {
            node,
            detached: Cell::new(false),
            _marker: PhantomData,
        }
    }

    /// Creates a child task from a closure; same semantics as
    /// [`Taskflow::emplace`](crate::Taskflow::emplace).
    pub fn emplace<F>(&self, f: F) -> Task<'_>
    where
        F: FnMut() + Send + 'static,
    {
        self.emplace_work(Work::new_static(f))
    }

    /// Creates a child task that may itself spawn a nested subflow.
    pub fn emplace_subflow<F>(&self, f: F) -> Task<'_>
    where
        F: FnMut(&mut Subflow<'_>) + Send + 'static,
    {
        self.emplace_work(Work::new_dynamic(f))
    }

    /// Creates an empty child task to be filled in later.
    pub fn placeholder(&self) -> Task<'_> {
        self.emplace_work(Work::empty())
    }

    fn emplace_work(&self, work: Work) -> Task<'_> {
        // SAFETY: we are the worker currently executing the parent node;
        // the subgraph is ours exclusively until the closure returns and
        // the executor spawns the children.
        let node = unsafe { (*self.node).state.subgraph.get_mut().emplace(work) };
        Task::new(node)
    }

    /// Detaches the spawned subflow from the parent task: the parent's
    /// successors may run as soon as the parent's own closure returns,
    /// while the children execute independently. The enclosing topology
    /// still waits for them.
    pub fn detach(&self) {
        self.detached.set(true);
    }

    /// Re-joins the subflow to the parent (the default), undoing a prior
    /// [`Subflow::detach`].
    pub fn join(&self) {
        self.detached.set(false);
    }

    /// `true` if the subflow is currently marked detached.
    pub fn is_detached(&self) -> bool {
        self.detached.get()
    }

    /// `true` if the enclosing run has been cancelled (equivalent to
    /// [`this_task::is_cancelled`](crate::this_task::is_cancelled) from
    /// inside the parent task). Long dynamic tasks should poll this and
    /// return early instead of spawning more children.
    pub fn is_cancelled(&self) -> bool {
        crate::this_task::is_cancelled()
    }

    /// Number of child tasks spawned so far.
    pub fn num_tasks(&self) -> usize {
        // SAFETY: executing worker's exclusive access.
        unsafe { (*self.node).state.subgraph.get().len() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    #[test]
    fn emplace_builds_children_in_parent_subgraph() {
        let mut g = Graph::new();
        let parent = g.emplace(Work::empty());
        let sf = Subflow::new(parent);
        let a = sf.emplace(|| {}).name("a");
        let b = sf.emplace(|| {});
        let c = sf.placeholder();
        a.precede([b, c]);
        assert_eq!(sf.num_tasks(), 3);
        assert_eq!(a.num_successors(), 2);
        assert_eq!(c.num_dependents(), 1);
        assert!(c.is_placeholder());
        unsafe {
            assert_eq!((*parent).state.subgraph.get().len(), 3);
        }
    }

    #[test]
    fn detach_and_join_toggle() {
        let mut g = Graph::new();
        let sf = Subflow::new(g.emplace(Work::empty()));
        assert!(!sf.is_detached());
        sf.detach();
        assert!(sf.is_detached());
        sf.join();
        assert!(!sf.is_detached());
    }
}
