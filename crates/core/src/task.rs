//! Task handles: lightweight, copyable wrappers over graph nodes
//! (§III-A/B of the paper).
//!
//! A [`Task`] is the only way users touch a node. It is `Copy` (like
//! Cpp-Taskflow's `tf::Task`), tied by lifetime to the [`Taskflow`] or
//! [`Subflow`](crate::Subflow) that created it, and deliberately
//! `!Send`/`!Sync`: graph construction is a single-threaded phase.
//!
//! Handles stay valid after the graph is dispatched (the taskflow keeps
//! dispatched topologies alive), but *mutating* a task after dispatch is a
//! logic error; every mutating method asserts the node has not yet been
//! handed to the executor.

use crate::graph::{Node, RawNode, Work};
use crate::subflow::Subflow;
use std::marker::PhantomData;

/// A handle to a task in a task dependency graph.
#[derive(Clone, Copy)]
pub struct Task<'g> {
    pub(crate) node: RawNode,
    pub(crate) _marker: PhantomData<&'g ()>,
}

impl<'g> Task<'g> {
    pub(crate) fn new(node: RawNode) -> Task<'g> {
        Task {
            node,
            _marker: PhantomData,
        }
    }

    #[inline]
    fn assert_mutable(self) {
        // SAFETY: reading a plain field from the build thread; the topology
        // pointer is only set at dispatch, which the build thread performs.
        let dispatched = unsafe { !(*self.node).state.topology.get().is_null() };
        assert!(
            !dispatched,
            "task mutated after its graph was dispatched for execution"
        );
    }

    /// Assigns a human-readable name (shown in DOT dumps and observer
    /// events); returns `self`. The name is interned once here — every
    /// later use (tracing, stats, dumps) clones a reference, never the
    /// text.
    pub fn name(self, name: impl Into<String>) -> Self {
        self.assert_mutable();
        // SAFETY: build phase, single thread.
        unsafe {
            *(*self.node).structure.name.get_mut() = crate::TaskLabel::from(name.into());
        }
        self
    }

    /// The task's name, or an empty string.
    pub fn name_str(self) -> String {
        // SAFETY: name is written only during build; reading later is fine.
        unsafe { (*self.node).label().to_string() }
    }

    /// Adds dependency edges so that `self` runs before every task in
    /// `targets` (the paper's `A.precede(B, C)`). Accepts a single task, an
    /// array, a slice, or a `Vec`.
    pub fn precede<T: TaskSet<'g>>(self, targets: T) -> Self {
        self.assert_mutable();
        targets.for_each(&mut |t| {
            // SAFETY: build phase, single thread; both handles target
            // live nodes (`'g` keeps their owners borrowed). An edge into
            // another graph is recorded here and rejected at freeze.
            unsafe { Node::connect(self.node, t.node) };
        });
        self
    }

    /// Adds dependency edges so that `self` runs after every task in
    /// `sources`. The mirror image of [`Task::precede`].
    pub fn succeed<T: TaskSet<'g>>(self, sources: T) -> Self {
        self.assert_mutable();
        sources.for_each(&mut |t| {
            // SAFETY: build phase, single thread; both handles target
            // live nodes (`'g` keeps their owners borrowed). An edge into
            // another graph is recorded here and rejected at freeze.
            unsafe { Node::connect(t.node, self.node) };
        });
        self
    }

    /// Assigns (or replaces) the callable of this task. Useful for
    /// placeholders whose work is decided late (§III-A).
    pub fn work<F>(self, f: F) -> Self
    where
        F: FnMut() + Send + 'static,
    {
        self.assert_mutable();
        // SAFETY: build phase, single thread.
        unsafe {
            *(*self.node).structure.work.get_mut() = Work::new_static(f);
        }
        self
    }

    /// Assigns a dynamic (subflow-spawning) callable to this task.
    pub fn work_subflow<F>(self, f: F) -> Self
    where
        F: FnMut(&mut Subflow<'_>) + Send + 'static,
    {
        self.assert_mutable();
        // SAFETY: build phase, single thread.
        unsafe {
            *(*self.node).structure.work.get_mut() = Work::new_dynamic(f);
        }
        self
    }

    /// Allows this task to be re-executed up to `n` more times if its
    /// closure panics, before the panic is recorded against the run. The
    /// failed attempt's partial state (a half-built subflow, for a dynamic
    /// task) is re-armed before each retry, and nothing propagates to
    /// successors until an attempt succeeds or the budget is exhausted.
    /// Retries are visible to observers
    /// ([`ExecutorObserver::on_task_retry`](crate::ExecutorObserver::on_task_retry))
    /// and counted in [`ExecutorStats`](crate::ExecutorStats).
    ///
    /// ```
    /// use std::sync::atomic::{AtomicU32, Ordering};
    /// static ATTEMPTS: AtomicU32 = AtomicU32::new(0);
    /// let tf = rustflow::Taskflow::new();
    /// tf.emplace(|| {
    ///     if ATTEMPTS.fetch_add(1, Ordering::Relaxed) < 2 {
    ///         panic!("flaky");
    ///     }
    /// })
    /// .retry(2);
    /// assert!(tf.run().get().is_ok()); // third attempt succeeds
    /// ```
    pub fn retry(self, n: u32) -> Self {
        self.retry_backoff(n, std::time::Duration::ZERO)
    }

    /// Like [`Task::retry`], pausing before retry *k* for
    /// `base * 2^(k-1)`, capped at 50 ms — bounded exponential backoff for
    /// tasks whose failures are transient (contended resources, flaky
    /// I/O).
    pub fn retry_backoff(self, n: u32, base: std::time::Duration) -> Self {
        self.assert_mutable();
        // SAFETY: build phase, single thread.
        unsafe {
            *(*self.node).structure.retry.get_mut() = crate::graph::RetryPolicy::new(n, base);
        }
        self
    }

    /// Number of outgoing edges.
    pub fn num_successors(self) -> usize {
        // SAFETY: edges mutate only during the single-threaded build phase.
        unsafe { (*self.node).structure.successors.get().len() }
    }

    /// Number of incoming edges.
    pub fn num_dependents(self) -> usize {
        // SAFETY: edges mutate only during the single-threaded build phase.
        unsafe { *(*self.node).structure.in_degree.get() as usize }
    }

    /// `true` when the task has no callable assigned yet.
    pub fn is_placeholder(self) -> bool {
        // SAFETY: work is assigned only during the build phase.
        unsafe { (*self.node).structure.work.get().is_empty() }
    }
}

impl std::fmt::Debug for Task<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task")
            .field("name", &self.name_str())
            .field("successors", &self.num_successors())
            .field("dependents", &self.num_dependents())
            .finish()
    }
}

/// Anything that can stand on the right-hand side of
/// [`Task::precede`]/[`Task::succeed`]: a task, `[Task; N]`, `&[Task]`, or
/// `Vec<Task>`. This is the Rust rendering of Cpp-Taskflow's variadic
/// `precede(Ts&&... tasks)` parameter pack.
pub trait TaskSet<'g> {
    /// Invokes `f` on every task in the set.
    fn for_each(self, f: &mut dyn FnMut(Task<'g>));
}

impl<'g> TaskSet<'g> for Task<'g> {
    fn for_each(self, f: &mut dyn FnMut(Task<'g>)) {
        f(self)
    }
}

impl<'g, const N: usize> TaskSet<'g> for [Task<'g>; N] {
    fn for_each(self, f: &mut dyn FnMut(Task<'g>)) {
        for t in self {
            f(t)
        }
    }
}

impl<'g> TaskSet<'g> for &[Task<'g>] {
    fn for_each(self, f: &mut dyn FnMut(Task<'g>)) {
        for &t in self {
            f(t)
        }
    }
}

impl<'g> TaskSet<'g> for &Vec<Task<'g>> {
    fn for_each(self, f: &mut dyn FnMut(Task<'g>)) {
        for &t in self {
            f(t)
        }
    }
}

impl<'g> TaskSet<'g> for Vec<Task<'g>> {
    fn for_each(self, f: &mut dyn FnMut(Task<'g>)) {
        for t in self {
            f(t)
        }
    }
}
