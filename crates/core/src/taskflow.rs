//! The `Taskflow` object: where task dependency graphs are created,
//! dispatched, and — new to the run-based model — executed repeatedly
//! (§III-A through §III-C of the paper, plus the `run`/`run_n`/`run_until`
//! interface of Taskflow v2).
//!
//! A taskflow holds exactly one *present graph* at a time. Tasks emplaced
//! through it extend the present graph. Two execution styles coexist:
//!
//! * **Iterative** ([`Taskflow::run`], [`Taskflow::run_n`],
//!   [`Taskflow::run_until`]): the present graph is frozen into a
//!   *reusable* [`Topology`](crate::topology::Topology) the first time a
//!   run is requested; subsequent runs on an empty present graph re-arm
//!   and re-execute that same topology — no node allocation, no edge
//!   wiring, no re-validation. Batches submitted while a previous batch is
//!   executing queue FIFO.
//! * **One-shot** ([`Taskflow::dispatch`], [`Taskflow::wait_for_all`]):
//!   the paper's §III-C model. Each dispatch moves the present graph into
//!   its own topology, runs it exactly once, and leaves a fresh empty
//!   graph behind.
//!
//! The taskflow keeps every topology it created in a list, both to expose
//! execution status and to keep node storage alive for outstanding
//! [`Task`] handles; [`Taskflow::gc`] reclaims settled ones. Long-running
//! dispatch/run loops should call `gc()` periodically — see the method
//! docs for the idiom.

use crate::dot;
use crate::error::{AdmissionError, FailurePolicy, RunError, RunResult};
use crate::executor::Executor;
use crate::frontdoor::{Block, Tenant};
use crate::future::SharedFuture;
use crate::graph::{Graph, Work};
use crate::handle::RunHandle;
use crate::subflow::Subflow;
use crate::sync::Mutex;
use crate::sync_cell::SyncCell;
use crate::task::Task;
use crate::topology::{RunCondition, Topology};
use crate::validate::{self, GraphDiagnostic};
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Completion futures of every submitted batch/dispatch, with a watermark
/// below which futures are known resolved — repeated
/// [`Taskflow::try_wait_for_all`] calls are O(new submissions), not
/// O(total history).
struct WaitSet {
    futures: Vec<SharedFuture<RunResult>>,
    /// `futures[..watermark]` have resolved and their errors are folded
    /// into `first_error`.
    watermark: usize,
    /// First error ever observed; sticky, so every later wait reports it
    /// (matching the paper's "first panic wins" semantics).
    first_error: Option<RunError>,
}

/// A task dependency graph builder and dispatcher.
///
/// ```
/// let tf = rustflow::Taskflow::new();
/// let (a, b, c, d) = rustflow::emplace!(tf,
///     || println!("Task A"),
///     || println!("Task B"),
///     || println!("Task C"),
///     || println!("Task D"),
/// );
/// a.precede([b, c]); // A runs before B and C
/// b.precede(d);      // B runs before D
/// c.precede(d);      // C runs before D
/// tf.wait_for_all(); // block until finish
/// ```
pub struct Taskflow {
    graph: SyncCell<Graph>,
    executor: Arc<Executor>,
    topologies: Mutex<Vec<Arc<Topology>>>,
    /// The reusable topology targeted by `run*` when the present graph is
    /// empty: the most recently frozen one.
    reusable: SyncCell<Option<Arc<Topology>>>,
    waits: Mutex<WaitSet>,
    name: SyncCell<String>,
    /// Failure policy stamped onto graphs frozen *after* it was set.
    policy: std::cell::Cell<FailurePolicy>,
    /// Graph construction is single-threaded: `!Sync`, but `Send`.
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

// SAFETY: Taskflow is !Sync (PhantomData<Cell>), so interior mutability of
// the present graph is confined to one thread at a time; all payloads are
// Send.
unsafe impl Send for Taskflow {}

impl Default for Taskflow {
    fn default() -> Self {
        Taskflow::new()
    }
}

impl Taskflow {
    /// Creates a taskflow bound to the process-wide default executor.
    pub fn new() -> Taskflow {
        Taskflow::with_executor(Executor::default_shared())
    }

    /// Creates a taskflow bound to a specific (shareable) executor —
    /// the paper's `std::shared_ptr`-managed pluggable executor (§III-E).
    pub fn with_executor(executor: Arc<Executor>) -> Taskflow {
        Taskflow {
            graph: SyncCell::new(Graph::new()),
            executor,
            topologies: Mutex::new(Vec::new()),
            reusable: SyncCell::new(None),
            waits: Mutex::new(WaitSet {
                futures: Vec::new(),
                watermark: 0,
                first_error: None,
            }),
            name: SyncCell::new(String::new()),
            policy: std::cell::Cell::new(FailurePolicy::ContinueAll),
            _not_sync: PhantomData,
        }
    }

    /// Sets how a task panic affects the rest of the graph. The policy is
    /// frozen into a topology when the present graph is first dispatched
    /// or `run`; graphs frozen earlier keep the policy they were frozen
    /// with.
    pub fn set_failure_policy(&self, policy: FailurePolicy) {
        self.policy.set(policy);
    }

    /// The failure policy future freezes will use.
    pub fn failure_policy(&self) -> FailurePolicy {
        self.policy.get()
    }

    /// The executor this taskflow dispatches to.
    pub fn executor(&self) -> Arc<Executor> {
        Arc::clone(&self.executor)
    }

    /// Sets a diagnostic name (used in DOT dumps).
    pub fn set_name(&self, name: impl Into<String>) {
        // SAFETY: !Sync — single-threaded access.
        unsafe {
            *self.name.get_mut() = name.into();
        }
    }

    /// The diagnostic name.
    pub fn name(&self) -> String {
        // SAFETY: !Sync — single-threaded access.
        unsafe { self.name.get().clone() }
    }

    /// Creates a task in the present graph from a closure (§III-A).
    pub fn emplace<F>(&self, f: F) -> Task<'_>
    where
        F: FnMut() + Send + 'static,
    {
        self.emplace_work(Work::new_static(f))
    }

    /// Creates a *dynamic* task: its closure receives a [`Subflow`] at
    /// runtime through which it spawns child tasks (§III-D).
    pub fn emplace_subflow<F>(&self, f: F) -> Task<'_>
    where
        F: FnMut(&mut Subflow<'_>) + Send + 'static,
    {
        self.emplace_work(Work::new_dynamic(f))
    }

    /// Creates an empty task whose work can be assigned later through
    /// [`Task::work`] — the paper's placeholder idiom (§III-A).
    pub fn placeholder(&self) -> Task<'_> {
        self.emplace_work(Work::empty())
    }

    fn emplace_work(&self, work: Work) -> Task<'_> {
        // SAFETY: !Sync — the build phase is single-threaded; the graph's
        // arena gives the returned handle a stable address.
        let node = unsafe { self.graph.get_mut().emplace(work) };
        Task::new(node)
    }

    /// Number of tasks in the present (not yet dispatched) graph.
    pub fn num_nodes(&self) -> usize {
        // SAFETY: !Sync — single-threaded access.
        unsafe { self.graph.get().len() }
    }

    /// `true` when the present graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.num_nodes() == 0
    }

    /// Number of dispatched topologies retained by this taskflow.
    pub fn num_topologies(&self) -> usize {
        self.topologies.lock().len()
    }

    /// Total completed iterations of the current `run*` target topology
    /// (0 when nothing was ever frozen). Counts every iteration across
    /// every `run`/`run_n`/`run_until` batch.
    pub fn num_iterations(&self) -> u64 {
        // SAFETY: !Sync — single-threaded access.
        unsafe { self.reusable.get().as_ref().map_or(0, |t| t.iterations()) }
    }

    /// Total node count across every retained *settled* topology,
    /// including the subflow tasks their most recent iteration spawned at
    /// runtime — a diagnostic for the memory `gc()` would reclaim.
    pub fn num_retained_nodes(&self) -> usize {
        self.topologies
            .lock()
            .iter()
            .filter(|t| t.is_settled())
            // SAFETY: settled topology — quiescent graph.
            .map(|t| unsafe { t.graph.get().total_nodes() })
            .sum()
    }

    /// Dumps the present graph to GraphViz DOT (§III-G).
    pub fn dump(&self) -> String {
        // SAFETY: !Sync — present graph is quiescent.
        unsafe { dot::graph_to_dot(self.graph.get(), &self.name()) }
    }

    /// Dumps every *settled* (not currently executing) topology to DOT,
    /// including the subflows its dynamic tasks spawned at runtime during
    /// the most recent iteration (Fig. 5 of the paper). Running topologies
    /// are skipped (their graphs are in motion).
    pub fn dump_topologies(&self) -> String {
        let mut out = String::new();
        for (i, topo) in self.topologies.lock().iter().enumerate() {
            if topo.is_settled() {
                // SAFETY: settled topology — quiescent graph.
                unsafe {
                    out.push_str(&dot::graph_to_dot(
                        topo.graph.get(),
                        &format!("{}_{}", self.name(), i),
                    ));
                }
            }
        }
        out
    }

    /// Runs the pre-dispatch sanitizer on the present graph and returns
    /// every finding, in a fixed order (see [`GraphDiagnostic`]):
    /// dependency cycles (with their label path), self-edges, edges into
    /// another taskflow's graph, duplicate `precede` edges, and orphan
    /// tasks.
    ///
    /// An empty result means [`Taskflow::dispatch`] (and the first
    /// [`Taskflow::run`]) will hand the graph to the executor; fatal
    /// findings ([`GraphDiagnostic::is_fatal`]) make them resolve the
    /// future with [`RunError::InvalidGraph`] instead. Dispatch itself does
    /// not build these findings unless it has to reject the graph: its
    /// verdict comes from one allocation-light sweep over the edges. Once
    /// a graph is frozen into a topology the verdict is cached —
    /// re-running a reusable topology never re-walks the graph.
    pub fn validate(&self) -> Vec<GraphDiagnostic> {
        // SAFETY: !Sync — the present graph is quiescent.
        unsafe { validate::validate_graph(self.graph.get()) }
    }

    /// Dumps the present graph to DOT with sanitizer findings highlighted
    /// (cycle members and sources of self- or foreign edges red, orphans
    /// orange), and returns the findings.
    pub fn dump_with_diagnostics(&self) -> (String, Vec<GraphDiagnostic>) {
        let diagnostics = self.validate();
        // SAFETY: !Sync — the present graph is quiescent.
        let dot =
            unsafe { dot::graph_to_dot_annotated(self.graph.get(), &self.name(), &diagnostics) };
        (dot, diagnostics)
    }

    /// Snapshots the frozen graph structure the causal profiler joins task
    /// spans against ([`crate::profile::ProfileReport::build`]).
    ///
    /// The snapshot covers the current `run*` target topology — including
    /// the subflow nodes its most recent iteration spawned — or, when no
    /// topology was frozen yet, the present (undispatched) graph. Call it
    /// after the runs being profiled have completed: a running topology's
    /// graph is in motion and yields an empty snapshot.
    pub fn profile_snapshot(&self) -> crate::profile::GraphSnapshot {
        // SAFETY: !Sync — single-threaded access.
        if let Some(topo) = unsafe { self.reusable.get() } {
            if !topo.is_settled() {
                return crate::profile::GraphSnapshot::default();
            }
            // SAFETY: settled topology — quiescent graph.
            return unsafe { crate::profile::GraphSnapshot::from_graph(topo.graph.get()) };
        }
        // SAFETY: !Sync — the present graph is quiescent.
        unsafe { crate::profile::GraphSnapshot::from_graph(self.graph.get()) }
    }

    /// Dumps the `run*` target topology (falling back to the present
    /// graph) to DOT annotated with a profile: nodes heat-colored by
    /// total execution time and labeled with their aggregate timing, the
    /// most recent iteration's critical path bold red
    /// ([`crate::profile::ProfileReport::critical_edges`]).
    pub fn dump_profiled(&self, report: &crate::profile::ProfileReport) -> String {
        // SAFETY: !Sync — single-threaded access.
        if let Some(topo) = unsafe { self.reusable.get() } {
            if !topo.is_settled() {
                return String::new();
            }
            // SAFETY: settled topology — quiescent graph.
            return unsafe { dot::graph_to_dot_profiled(topo.graph.get(), &self.name(), report) };
        }
        // SAFETY: !Sync — the present graph is quiescent.
        unsafe { dot::graph_to_dot_profiled(self.graph.get(), &self.name(), report) }
    }

    /// Freezes the present graph (if non-empty) into a new reusable
    /// topology and makes it the `run*` target. Returns the target
    /// topology, or `None` when nothing was ever built.
    fn materialize(&self) -> Option<Arc<Topology>> {
        if !self.is_empty() {
            // SAFETY: !Sync — single-threaded graph handoff.
            let graph = unsafe { self.graph.replace(Graph::new()) };
            let topo = Topology::new(graph, self.policy.get());
            self.topologies.lock().push(Arc::clone(&topo));
            // SAFETY: !Sync — single-threaded access.
            unsafe { *self.reusable.get_mut() = Some(topo) };
        }
        // SAFETY: !Sync — single-threaded access.
        unsafe { self.reusable.get().clone() }
    }

    fn submit(&self, cond: RunCondition) -> RunHandle {
        let Some(topo) = self.materialize() else {
            // Nothing was ever built: an empty run completes immediately.
            return RunHandle::ready(Ok(()));
        };
        let future = self.executor.run_topology(&topo, cond, false);
        self.waits.lock().futures.push(future.clone());
        RunHandle::new(future, Arc::downgrade(&topo))
    }

    fn submit_on(
        &self,
        tenant: &Tenant,
        cond: RunCondition,
        block: Block,
        deadline: Option<Duration>,
    ) -> Result<RunHandle, AdmissionError> {
        let Some(topo) = self.materialize() else {
            return Ok(RunHandle::ready(Ok(())));
        };
        let future = self
            .executor
            .run_topology_on(tenant, &topo, cond, block, deadline)?;
        self.waits.lock().futures.push(future.clone());
        Ok(RunHandle::new(future, Arc::downgrade(&topo)))
    }

    /// Executes the taskflow's graph once **through a tenant**: the
    /// submission passes the tenant's admission control and weighted fair
    /// queueing before it is dispatched ([`Executor::tenant`]). Blocks
    /// while the tenant's submission queue is full; returns
    /// `Err(ShuttingDown)` if the executor stopped admitting work.
    ///
    /// ```
    /// let ex = rustflow::Executor::new(2);
    /// let tenant = ex.tenant("analytics");
    /// let tf = rustflow::Taskflow::with_executor(ex.clone());
    /// tf.emplace(|| {});
    /// tf.run_on(&tenant).unwrap().get().unwrap();
    /// ```
    pub fn run_on(&self, tenant: &Tenant) -> Result<RunHandle, AdmissionError> {
        self.run_n_on(tenant, 1)
    }

    /// [`Taskflow::run_on`] for `n` iterations (one admission, `n`
    /// executions — the batch occupies a single in-flight slot).
    pub fn run_n_on(&self, tenant: &Tenant, n: u64) -> Result<RunHandle, AdmissionError> {
        self.submit_on(tenant, RunCondition::Count(n), Block::Forever, None)
    }

    /// Non-blocking [`Taskflow::run_on`]: a full tenant queue returns
    /// [`AdmissionError::Saturated`] immediately instead of waiting —
    /// the backpressure signal for clients that can shed or retry.
    pub fn try_run_on(&self, tenant: &Tenant) -> Result<RunHandle, AdmissionError> {
        self.try_run_n_on(tenant, 1)
    }

    /// Non-blocking [`Taskflow::run_n_on`].
    pub fn try_run_n_on(&self, tenant: &Tenant, n: u64) -> Result<RunHandle, AdmissionError> {
        self.submit_on(tenant, RunCondition::Count(n), Block::Never, None)
    }

    /// Bounded-blocking [`Taskflow::run_on`]: waits up to `timeout` for
    /// tenant queue space, then gives up with
    /// [`AdmissionError::Saturated`]. The middle ground between `run_on`
    /// (waits forever — a convoy under overload) and `try_run_on`
    /// (rejects instantly — busy-polls under overload); callers own the
    /// backpressure policy.
    ///
    /// ```
    /// use std::time::Duration;
    /// let ex = rustflow::Executor::new(2);
    /// let tenant = ex.tenant("frontend");
    /// let tf = rustflow::Taskflow::with_executor(ex.clone());
    /// tf.emplace(|| {});
    /// tf.run_on_timeout(&tenant, Duration::from_millis(100))
    ///     .unwrap()
    ///     .get()
    ///     .unwrap();
    /// ```
    pub fn run_on_timeout(
        &self,
        tenant: &Tenant,
        timeout: Duration,
    ) -> Result<RunHandle, AdmissionError> {
        let until = Instant::now() + timeout;
        self.submit_on(tenant, RunCondition::Count(1), Block::Until(until), None)
    }

    /// [`Taskflow::run_on`] with a per-run deadline overriding the
    /// tenant's [`TenantQos::deadline`](crate::TenantQos). Admission
    /// rejects the run outright
    /// ([`AdmissionError::DeadlineInfeasible`]) when the tenant's oldest
    /// queued run has already waited longer than `deadline`, and the
    /// dispatcher sheds it ([`RunError::Shed`](crate::RunError)) if it
    /// is still queued when the deadline expires.
    pub fn run_on_deadline(
        &self,
        tenant: &Tenant,
        deadline: Duration,
    ) -> Result<RunHandle, AdmissionError> {
        self.submit_on(
            tenant,
            RunCondition::Count(1),
            Block::Forever,
            Some(deadline),
        )
    }

    /// Non-blocking [`Taskflow::run_on_deadline`]: a full tenant queue
    /// returns [`AdmissionError::Saturated`] immediately instead of
    /// waiting. The natural submit call for an open-loop client that
    /// paces itself and sheds on rejection.
    pub fn try_run_on_deadline(
        &self,
        tenant: &Tenant,
        deadline: Duration,
    ) -> Result<RunHandle, AdmissionError> {
        self.submit_on(tenant, RunCondition::Count(1), Block::Never, Some(deadline))
    }

    /// Executes the taskflow's graph once **without rebuilding it** and
    /// returns a future observing that run.
    ///
    /// On the first call (or whenever tasks were emplaced since the last
    /// freeze) the present graph is validated and frozen into a reusable
    /// topology; later calls with an empty present graph *re-arm* the same
    /// topology — join counters reset from the static in-degrees, subflow
    /// subgraphs cleared — and execute it again. Runs submitted while the
    /// topology is busy queue FIFO.
    ///
    /// ```
    /// let tf = rustflow::Taskflow::new();
    /// tf.emplace(|| println!("iterate"));
    /// tf.run().get().unwrap(); // freeze + first run
    /// tf.run().get().unwrap(); // re-arm + second run, zero rebuild cost
    /// ```
    ///
    /// The returned [`RunHandle`] observes the run like a future and can
    /// also [`cancel`](RunHandle::cancel) it or bound it by a deadline
    /// ([`RunHandle::wait_timeout`]).
    pub fn run(&self) -> RunHandle {
        self.run_n(1)
    }

    /// Executes the taskflow's graph once with a deadline: blocks until
    /// the run finishes or `timeout` elapses, whichever comes first. On
    /// expiry the run degrades to cooperative cancellation
    /// ([`RunHandle::wait_timeout`]) and this returns
    /// [`RunError::Cancelled`]; natural completion that beats the
    /// deadline returns its own outcome.
    pub fn run_timeout(&self, timeout: std::time::Duration) -> RunResult {
        self.run().wait_timeout(timeout)
    }

    /// Executes the taskflow's graph `n` times (see [`Taskflow::run`]);
    /// the future resolves when the last iteration finishes. An error in
    /// iteration *k* resolves the future with that iteration's error and
    /// abandons the remaining iterations. `run_n(0)` completes
    /// immediately.
    ///
    /// Iterating many times? Call [`Taskflow::gc`] between batches to keep
    /// the retained-topology list from growing:
    ///
    /// ```
    /// let mut tf = rustflow::Taskflow::new();
    /// for epoch in 0..3 {
    ///     tf.emplace(move || { let _ = epoch; });
    ///     tf.run_n(4).get().unwrap();
    ///     tf.gc(); // settled topologies from prior epochs are reclaimed
    /// }
    /// ```
    pub fn run_n(&self, n: u64) -> RunHandle {
        self.submit(RunCondition::Count(n))
    }

    /// Repeatedly executes the taskflow's graph until `pred` returns
    /// `true`. The predicate is evaluated before every iteration (so a
    /// predicate that starts `true` runs nothing) from the driver thread —
    /// the submitter or a worker finishing an iteration. A panic inside
    /// `pred`, like a task panic, resolves the future with that error and
    /// stops.
    pub fn run_until<P>(&self, pred: P) -> RunHandle
    where
        P: FnMut() -> bool + Send + 'static,
    {
        self.submit(RunCondition::Until(Box::new(pred)))
    }

    /// Dispatches the present graph for execution **without blocking**,
    /// returning a shared future to observe completion (§III-C). The
    /// taskflow is left with a fresh empty graph; the dispatched topology
    /// runs exactly once (the paper's one-shot model — use
    /// [`Taskflow::run`] to execute a graph repeatedly).
    ///
    /// The graph is sanitized first ([`Taskflow::validate`]); a graph that
    /// could never complete (a dependency cycle, a self-edge) or that
    /// reaches into another taskflow's graph is *not* handed to the
    /// executor: the returned future resolves immediately
    /// with [`RunError::InvalidGraph`] carrying the findings, instead of
    /// deadlocking the worker pool as in Cpp-Taskflow ("a cyclic graph
    /// results in undefined behavior"). Dispatching an empty graph
    /// completes immediately.
    ///
    /// In dispatch loops, call [`Taskflow::gc`] periodically — every
    /// dispatched topology is retained until collected.
    pub fn dispatch(&self) -> RunHandle {
        self.dispatch_present(false)
    }

    /// [`Taskflow::dispatch`]; `caller_waits` when the caller blocks on the
    /// run next and so may execute it ([`Executor::run_topology`]).
    fn dispatch_present(&self, caller_waits: bool) -> RunHandle {
        if self.is_empty() {
            return RunHandle::ready(Ok(()));
        }
        // SAFETY: !Sync — single-threaded graph handoff.
        let graph = unsafe { self.graph.replace(Graph::new()) };
        // Retained even when rejected: outstanding Task handles point into
        // the topology's node storage. One-shot topologies do not become
        // the `run*` target.
        let topo = Topology::new(graph, self.policy.get());
        self.topologies.lock().push(Arc::clone(&topo));
        let future = self
            .executor
            .run_topology(&topo, RunCondition::Count(1), caller_waits);
        self.waits.lock().futures.push(future.clone());
        RunHandle::new(future, Arc::downgrade(&topo))
    }

    /// Dispatches the present graph and ignores the execution status.
    pub fn silent_dispatch(&self) {
        let _ = self.dispatch();
    }

    /// Dispatches the present graph (if non-empty) and blocks until **all**
    /// submitted work — dispatches and runs alike — finishes. Panics if
    /// any task panicked, propagating the first recorded panic message.
    ///
    /// **The caller helps.** When the call itself dispatches the present
    /// graph, the calling thread executes tasks of it (and whatever else
    /// it steals meanwhile) instead of sleeping through the run, as
    /// Taskflow's `corun` does; a graph one thread can finish is then run
    /// entirely by the caller and costs no wake-up. Two consequences for
    /// the caller: task bodies may run **on the calling thread**, so do
    /// not hold a lock across this call that a task takes; and an
    /// unrelated task the caller stole can delay the return past the end
    /// of this taskflow's own work. Calling it from inside a task (on a
    /// second taskflow) is supported and does not idle the worker. With
    /// nothing to dispatch, or when every guest seat of the executor is
    /// taken, the call only blocks. [`RunHandle::get`] never helps.
    pub fn wait_for_all(&self) {
        if let Err(e) = self.try_wait_for_all() {
            panic!("{e}");
        }
    }

    /// Like [`Taskflow::wait_for_all`] but reports a task panic as an error
    /// instead of panicking. The caller helps in the same way, under the
    /// same contract.
    ///
    /// Completed waits are remembered: repeated calls only wait on work
    /// submitted since the last call, so waiting in a loop costs O(new
    /// submissions). The first error ever observed stays sticky and is
    /// re-reported by every later call.
    pub fn try_wait_for_all(&self) -> RunResult {
        // Dispatching here is the one point at which the executor knows
        // the caller is about to wait, so this dispatch may run the graph
        // on the calling thread; the loop below then usually finds it
        // resolved.
        let _ = self.dispatch_present(true);
        loop {
            // Clone the future out so the lock is not held while blocking;
            // `&self` is !Sync, so no one else advances the watermark.
            let next = {
                let w = self.waits.lock();
                w.futures.get(w.watermark).cloned()
            };
            let Some(future) = next else { break };
            let result = future.get();
            let mut w = self.waits.lock();
            w.watermark += 1;
            if let Err(e) = result {
                w.first_error.get_or_insert(e);
            }
        }
        match &self.waits.lock().first_error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Drops settled topologies (releasing their graphs) and compacts the
    /// resolved prefix of the wait set. Returns the number of topologies
    /// reclaimed.
    ///
    /// Requires `&mut self`, which statically guarantees no outstanding
    /// [`Task`] handle can reach into the freed graphs. The `run*` target
    /// is kept alive even when settled — reclaiming it would discard the
    /// graph the next `run` re-arms.
    pub fn gc(&mut self) -> usize {
        {
            let w = self.waits.get_mut();
            while w.watermark < w.futures.len() && w.futures[w.watermark].is_ready() {
                if let Some(Err(e)) = w.futures[w.watermark].try_get() {
                    w.first_error.get_or_insert(e);
                }
                w.watermark += 1;
            }
            w.futures.drain(..w.watermark);
            w.watermark = 0;
        }
        // SAFETY: !Sync — single-threaded access.
        let target = unsafe { self.reusable.get().as_ref().map(Arc::as_ptr) };
        let mut topologies = self.topologies.lock();
        let before = topologies.len();
        topologies.retain(|t| !t.is_settled() || Some(Arc::as_ptr(t)) == target);
        before - topologies.len()
    }
}

impl Drop for Taskflow {
    fn drop(&mut self) {
        // Present (undispatched) graphs are discarded, but running
        // topologies must finish before their node storage is freed. The
        // resolved prefix below the watermark needs no re-wait.
        if crate::sync::model_teardown() {
            // A model execution is being torn down (see `Executor::drop`):
            // a run the schedule left unresolved will never resolve, and
            // the shimmed wait returns at once, so the loop would spin.
            return;
        }
        let w = self.waits.get_mut();
        for f in &w.futures[w.watermark..] {
            f.wait();
        }
    }
}

impl std::fmt::Debug for Taskflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Taskflow")
            .field("name", &self.name())
            .field("nodes", &self.num_nodes())
            .field("topologies", &self.num_topologies())
            .finish()
    }
}

/// Creates several tasks at once, returning a tuple of handles — the Rust
/// rendering of Cpp-Taskflow's multi-emplace
/// (`auto [A, B, C] = tf.emplace(...)`, §III-A).
///
/// ```
/// let tf = rustflow::Taskflow::new();
/// let (a, b) = rustflow::emplace!(tf, || {}, || {});
/// a.precede(b);
/// tf.wait_for_all();
/// ```
#[macro_export]
macro_rules! emplace {
    ($tf:expr, $($f:expr),+ $(,)?) => {
        ( $( $tf.emplace($f) ),+ )
    };
}
