//! The six workloads. Each keeps its executor and inputs alive for a whole
//! pass and runs *slices*: back-to-back runs for a fixed time, reporting
//! what a caller saw (runs attempted and failed, task bodies completed,
//! the caller-visible time of every run).
//!
//! A workload is set up either plain (the untraced pass, and the A side of
//! the traced pass) or traced: the traced twin runs the same graphs with a
//! benchmark-owned source and sink task whose bodies stamp the clock, and
//! records one `run` span per run with the phases between those stamps.
//! Everything is measured from outside: by timing calls into public
//! functions and by stamps taken inside the benchmark's own closures.

use crate::openloop::{self, Backend};
use crate::trace::{now_ns, Tracer};
use rustflow::{
    Executor, ExecutorBuilder, ExecutorObserver, RunHandle, TaskLabel, Taskflow, Tenant, TenantQos,
    TenantStats,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tf_baselines::Dag;
use tf_timer::{Circuit, CircuitSpec, DesignModifier, Engine, Timer};
use tf_workloads::run::{run_rustflow, ReusableRustflow};
use tf_workloads::{nominal_work, randdag, wavefront, RandDagSpec, Sink, WavefrontSpec};

/// Workload names, in lane order. Fixed: later issues refer to them.
pub const NAMES: [&str; 6] = [
    "wavefront_serial",
    "wavefront_par",
    "traversal_oneshot",
    "timer_incr",
    "serve_closed",
    "serve_open",
];

/// The open-loop send rate, requests per second. A constant of the
/// benchmark, never derived at run time (see README, "The open-loop rate").
pub const OPEN_RATE_HZ: f64 = 20_000.0;
/// Latency limit of the open-loop workload, from due time.
pub const SLO_LIMIT_NS: u64 = 500_000;
/// Requests in flight in the closed loop, and its pool of flows.
const CLOSED_WINDOW: usize = 16;
/// Flows the open loop cycles through; a request whose flow is still in
/// flight one full cycle later waits for it, and the wait is latency.
const OPEN_POOL: usize = 4096;
/// How long an open-loop slice waits for a system that has stopped
/// completing requests before it counts what is outstanding as lost.
const OPEN_DRAIN_NS: u64 = 2_000_000_000;

/// Thread counts, from the machine: `w` workers for batch workloads
/// (the caller blocks), one generator plus `ws` workers for serving.
#[derive(Debug, Clone, Copy)]
pub struct Machine {
    pub nproc: usize,
    pub w: usize,
    pub ws: usize,
}

impl Machine {
    pub fn detect() -> Machine {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let w = nproc.min(4);
        Machine {
            nproc,
            w,
            ws: (w - 1).max(1),
        }
    }
}

/// What one slice did. Reused from slice to slice so a steady-state slice
/// allocates nothing of its own.
#[derive(Debug, Default)]
pub struct Slice {
    pub elapsed_ns: u64,
    /// Task bodies completed by successful runs (benchmark-owned source
    /// and sink tasks of the traced twin are not counted).
    pub tasks: u64,
    /// Runs attempted, and runs refused, shed, errored or lost.
    pub attempted: u64,
    pub failed: u64,
    /// Caller-visible time of every successful run (open loop: from due).
    pub run_ns: Vec<u64>,
    /// Open loop only: how late each request was sent.
    pub late_ns: Vec<u64>,
    /// Traced DAG workloads only: calibrated time inside task bodies,
    /// summed over the slice.
    pub body_ns: u64,
}

impl Slice {
    fn reset(&mut self) {
        self.elapsed_ns = 0;
        self.tasks = 0;
        self.attempted = 0;
        self.failed = 0;
        self.body_ns = 0;
        self.run_ns.clear();
        self.late_ns.clear();
    }
}

pub trait Workload {
    fn lane(&self) -> u32;
    fn executor(&self) -> &Arc<Executor>;
    /// Cumulative tenant counters (serving workloads only).
    fn tenant_stats(&self) -> Option<TenantStats> {
        None
    }
    /// Tasks of one graph iteration, for per-node figures (the traced
    /// twin's source and sink included).
    fn nodes(&self) -> u64;
    /// Runs back to back for `dur_ns`, filling `out`. A traced workload
    /// must be given the tracer, a plain one must not.
    fn slice(&mut self, dur_ns: u64, out: &mut Slice, tracer: Option<&mut Tracer>);
    /// End-of-pass correctness: checksums, slack, ledgers, exact executed
    /// counts. Anything wrong is an error string.
    fn verify(&mut self) -> Result<(), String>;
}

pub fn setup(name: &str, seed: u64, m: Machine, traced: bool) -> Box<dyn Workload> {
    match name {
        "wavefront_serial" => Box::new(Wavefront::setup(0, 1, 8, 16, traced)),
        "wavefront_par" => Box::new(Wavefront::setup(1, m.w, 256, 4, traced)),
        "traversal_oneshot" => Box::new(Traversal::setup(seed, m.w, traced)),
        "timer_incr" => Box::new(TimerIncr::setup(seed, m.w, traced)),
        "serve_closed" => Box::new(ServeClosed::setup(m.ws, traced)),
        "serve_open" => Box::new(ServeOpen::setup(seed, m.ws, traced)),
        other => panic!("unknown workload {other:?}; known: {NAMES:?}"),
    }
}

/// Decorrelates the streams drawn from one `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut x = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn executor(workers: usize) -> Arc<Executor> {
    ExecutorBuilder::new().workers(workers).build()
}

// ---------------------------------------------------------------------
// Body stamps
// ---------------------------------------------------------------------

/// Clock stamps taken by the benchmark-owned source and sink tasks of a
/// traced graph: one pair per iteration.
#[derive(Default)]
struct Stamps {
    starts: Mutex<Vec<u64>>,
    ends: Mutex<Vec<u64>>,
}

/// `dag` plus one source task preceding every root and one sink task
/// succeeding every leaf; their bodies stamp the clock.
fn instrument(dag: &Dag, stamps: &Arc<Stamps>) -> Dag {
    let n = dag.len();
    let mut out = Dag::with_capacity(n + 2);
    for v in 0..n {
        out.add_payload(dag.payload_of(v));
    }
    let s = Arc::clone(stamps);
    let source = out.add(move || s.starts.lock().expect("stamps").push(now_ns()));
    let s = Arc::clone(stamps);
    let sink = out.add(move || s.ends.lock().expect("stamps").push(now_ns()));
    for v in 0..n {
        for &t in dag.successors_of(v) {
            out.edge(v, t as usize);
        }
        if dag.in_degree_of(v) == 0 {
            out.edge(source, v);
        }
        if dag.successors_of(v).is_empty() {
            out.edge(v, sink);
        }
    }
    out
}

/// The traced twin of `dag`: instrumented, with its stamps and calibrated
/// body time. Calibration folds `CALIBRATION_PASSES` passes into the sink.
fn traced_twin(dag: &Dag) -> (Dag, (Arc<Stamps>, u64)) {
    let stamps = Arc::new(Stamps::default());
    let body_ns = calibrate_bodies(dag);
    (instrument(dag, &stamps), (stamps, body_ns))
}

const CALIBRATION_PASSES: u64 = 9;

/// The two checks every DAG workload ends a pass with. The sink
/// xor-folds, so an odd number of passes over the graph leaves the
/// expected checksum and an even number leaves zero; and the executor
/// must have executed exactly the tasks the successful runs consist of.
fn verify_dag_runs(
    what: &str,
    (sink, checksum, passes): (&Sink, u64, u64),
    (ex, expect_executed): (&Executor, u64),
) -> Result<(), String> {
    let want = if passes % 2 == 1 { checksum } else { 0 };
    if sink.value() != want {
        return Err(format!(
            "{what} checksum {:#x} != {want:#x} after {passes} passes",
            sink.value()
        ));
    }
    let got = ex.stats().total().executed;
    if got != expect_executed {
        return Err(format!(
            "{what} executed {got} tasks, expected exactly {expect_executed}"
        ));
    }
    Ok(())
}

/// Time one sequential pass over `dag`'s payloads takes on this thread:
/// the body time the scheduler-overhead figure subtracts (the median).
fn calibrate_bodies(dag: &Dag) -> u64 {
    let mut samples: Vec<u64> = (0..CALIBRATION_PASSES)
        .map(|_| {
            let t0 = now_ns();
            for v in 0..dag.len() {
                dag.invoke(v);
            }
            now_ns() - t0
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

// ---------------------------------------------------------------------
// wavefront_serial / wavefront_par
// ---------------------------------------------------------------------

/// The paper's 32x32 wavefront, built once and re-armed: one run is
/// `run_n(batch).get()`.
struct Wavefront {
    lane: u32,
    ex: Arc<Executor>,
    flow: ReusableRustflow,
    spec: WavefrontSpec,
    sink: Arc<Sink>,
    batch: u64,
    nodes: u64,
    /// Traced twin: the stamps and the calibrated body time per iteration.
    traced: Option<(Arc<Stamps>, u64)>,
    expect_executed: u64,
}

impl Wavefront {
    fn setup(lane: u32, workers: usize, work_iters: u32, batch: u64, traced: bool) -> Wavefront {
        let spec = WavefrontSpec {
            dim: 32,
            work_iters,
        };
        let (dag, sink) = wavefront::build(spec);
        let ex = executor(workers);
        let (dag, traced) = if traced {
            let (dag, twin) = traced_twin(&dag);
            (dag, Some(twin))
        } else {
            (dag, None)
        };
        let flow = ReusableRustflow::new(&dag, &ex);
        // Set-up ends when the graph is frozen, validated and has run once.
        flow.run_n(1).expect("first wavefront run");
        if let Some((stamps, _)) = &traced {
            stamps.starts.lock().expect("stamps").clear();
            stamps.ends.lock().expect("stamps").clear();
        }
        Wavefront {
            lane,
            flow,
            ex,
            spec,
            sink,
            batch,
            nodes: dag.len() as u64,
            traced,
            expect_executed: dag.len() as u64,
        }
    }
}

impl Workload for Wavefront {
    fn lane(&self) -> u32 {
        self.lane
    }
    fn executor(&self) -> &Arc<Executor> {
        &self.ex
    }
    fn nodes(&self) -> u64 {
        self.nodes
    }

    fn slice(&mut self, dur_ns: u64, out: &mut Slice, mut tracer: Option<&mut Tracer>) {
        assert_eq!(tracer.is_some(), self.traced.is_some());
        out.reset();
        let bodies = self.spec.num_tasks() as u64 * self.batch;
        let start = now_ns();
        loop {
            let t0 = now_ns();
            let handle = self.flow.taskflow().run_n(self.batch);
            let t1 = now_ns();
            let result = handle.get();
            let t3 = now_ns();
            out.attempted += 1;
            if result.is_ok() {
                out.tasks += bodies;
                out.run_ns.push(t3 - t0);
                self.expect_executed += self.nodes * self.batch;
            } else {
                out.failed += 1;
            }
            if let (Some(tr), Some((stamps, body_ns))) = (tracer.as_deref_mut(), &self.traced) {
                let mut starts = stamps.starts.lock().expect("stamps");
                let mut ends = stamps.ends.lock().expect("stamps");
                if result.is_ok() && starts.len() == ends.len() && !starts.is_empty() {
                    let last = ends[ends.len() - 1];
                    let run = tr.run_with_phases(
                        self.lane,
                        &["submit", "wake", "exec", "finalize"],
                        &[t0, t1, starts[0], last, t3],
                    );
                    let (run_id, exec) = (tr.spans[run as usize - 1].run_id, run + 3);
                    for i in 0..starts.len() {
                        tr.span(self.lane, exec, run_id, "iter", starts[i], ends[i]);
                        if i + 1 < starts.len() {
                            tr.span(self.lane, exec, run_id, "rearm", ends[i], starts[i + 1]);
                        }
                    }
                    out.body_ns += body_ns * self.batch;
                }
                starts.clear();
                ends.clear();
            }
            if t3 - start >= dur_ns {
                out.elapsed_ns = t3 - start;
                return;
            }
        }
    }

    fn verify(&mut self) -> Result<(), String> {
        let calibration = self.traced.as_ref().map_or(0, |_| CALIBRATION_PASSES);
        verify_dag_runs(
            "wavefront",
            (
                &self.sink,
                wavefront::expected_checksum(self.spec),
                self.flow.iterations() + calibration,
            ),
            (&self.ex, self.expect_executed),
        )
    }
}

// ---------------------------------------------------------------------
// traversal_oneshot
// ---------------------------------------------------------------------

/// The paper's graph-traversal micro-benchmark: every run builds a fresh
/// taskflow over a seeded random DAG, runs it once and drops it.
struct Traversal {
    ex: Arc<Executor>,
    dag: Dag,
    spec: RandDagSpec,
    sink: Arc<Sink>,
    traced: Option<(Arc<Stamps>, u64)>,
    passes: u64,
    expect_executed: u64,
}

impl Traversal {
    const LANE: u32 = 2;

    fn setup(seed: u64, workers: usize, traced: bool) -> Traversal {
        let spec = RandDagSpec {
            seed: mix(seed, 1),
            ..RandDagSpec::new(10_000)
        };
        let (dag, sink) = randdag::build(spec);
        let (dag, traced, passes) = if traced {
            let (dag, twin) = traced_twin(&dag);
            (dag, Some(twin), CALIBRATION_PASSES)
        } else {
            (dag, None, 0)
        };
        Traversal {
            ex: executor(workers),
            dag,
            spec,
            sink,
            traced,
            passes,
            expect_executed: 0,
        }
    }

    /// `run_rustflow` with a clock read between its steps.
    fn run_traced(&self, tr: &mut Tracer, stamps: &Stamps) -> (u64, bool) {
        let dag = &self.dag;
        let t0 = now_ns();
        let tf = Taskflow::with_executor(Arc::clone(&self.ex));
        let tasks: Vec<rustflow::Task<'_>> = (0..dag.len())
            .map(|v| {
                let payload = dag.payload_of(v);
                tf.emplace(move || payload())
            })
            .collect();
        for v in 0..dag.len() {
            for &s in dag.successors_of(v) {
                tasks[v].precede(tasks[s as usize]);
            }
        }
        let t1 = now_ns();
        let handle = tf.dispatch();
        let t2 = now_ns();
        let ok = handle.get().is_ok();
        let t3 = now_ns();
        drop(tasks);
        drop(tf);
        let t4 = now_ns();
        let first = stamps.starts.lock().expect("stamps").pop();
        let last = stamps.ends.lock().expect("stamps").pop();
        if let (true, Some(first), Some(last)) = (ok, first, last) {
            tr.run_with_phases(
                Self::LANE,
                &["build", "submit", "wake", "exec", "finalize", "drop"],
                &[t0, t1, t2, first, last, t3, t4],
            );
        }
        (t4 - t0, ok)
    }
}

impl Workload for Traversal {
    fn lane(&self) -> u32 {
        Self::LANE
    }
    fn executor(&self) -> &Arc<Executor> {
        &self.ex
    }
    fn nodes(&self) -> u64 {
        self.dag.len() as u64
    }

    fn slice(&mut self, dur_ns: u64, out: &mut Slice, mut tracer: Option<&mut Tracer>) {
        assert_eq!(tracer.is_some(), self.traced.is_some());
        out.reset();
        let start = now_ns();
        loop {
            let (run_ns, ok) = match (tracer.as_deref_mut(), &self.traced) {
                (Some(tr), Some((stamps, body_ns))) => {
                    out.body_ns += body_ns;
                    self.run_traced(tr, stamps)
                }
                _ => {
                    let t0 = now_ns();
                    // Panics if a task panicked; none of ours can.
                    run_rustflow(&self.dag, &self.ex);
                    (now_ns() - t0, true)
                }
            };
            out.attempted += 1;
            if ok {
                self.passes += 1;
                self.expect_executed += self.dag.len() as u64;
                out.tasks += self.spec.nodes as u64;
                out.run_ns.push(run_ns);
            } else {
                out.failed += 1;
            }
            let now = now_ns();
            if now - start >= dur_ns {
                out.elapsed_ns = now - start;
                return;
            }
        }
    }

    fn verify(&mut self) -> Result<(), String> {
        verify_dag_runs(
            "traversal",
            (
                &self.sink,
                randdag::expected_checksum(self.spec),
                self.passes,
            ),
            (&self.ex, self.expect_executed),
        )
    }
}

// ---------------------------------------------------------------------
// timer_incr
// ---------------------------------------------------------------------

/// Observer of the traced timer twin: the timer builds its graphs itself,
/// so the first body start and the last body end are taken from the
/// executor's public task hooks instead of own closures.
#[derive(Default)]
struct BodyClock {
    first: AtomicU64,
    last: AtomicU64,
}

impl ExecutorObserver for BodyClock {
    fn on_entry(&self, _worker: usize, _label: &TaskLabel) {
        // The first stamp of a run wins; 0 means "none yet".
        let _ = self
            .first
            .compare_exchange(0, now_ns(), Ordering::Relaxed, Ordering::Relaxed);
    }
    fn on_exit(&self, _worker: usize, _label: &TaskLabel) {
        self.last.fetch_max(now_ns(), Ordering::Relaxed);
    }
}

/// The paper's headline application: a seeded design modifier followed by
/// an incremental timing update on the rustflow engine, one update per run.
struct TimerIncr {
    ex: Arc<Executor>,
    timer: Timer,
    modifier: DesignModifier,
    /// The unmodified design and the modifier seed, for the sequential
    /// twin that `verify` drives through the same modifier stream.
    base: Circuit,
    modifier_seed: u64,
    updates: u64,
    clock: Option<Arc<BodyClock>>,
}

impl TimerIncr {
    const LANE: u32 = 3;

    fn setup(seed: u64, workers: usize, traced: bool) -> TimerIncr {
        // The design is the same for every seed; the seed drives what is
        // done to it. A seeded circuit moved the size distribution of the
        // updates, and with it p50 and p90, by +-15 % from seed to seed.
        let spec = CircuitSpec::vga_lcd().scaled(0.25);
        let base = spec.generate();
        let ex = executor(workers);
        let timer = Timer::new(base.clone());
        timer.full_update(&Engine::V2Rustflow(&ex));
        let modifier_seed = mix(seed, 2);
        let modifier = DesignModifier::new(timer.circuit(), modifier_seed);
        let clock = traced.then(|| {
            let clock = Arc::new(BodyClock::default());
            ex.observe(Arc::clone(&clock) as Arc<dyn ExecutorObserver>);
            clock
        });
        TimerIncr {
            ex,
            timer,
            modifier,
            base,
            modifier_seed,
            updates: 0,
            clock,
        }
    }
}

impl Workload for TimerIncr {
    fn lane(&self) -> u32 {
        Self::LANE
    }
    fn executor(&self) -> &Arc<Executor> {
        &self.ex
    }
    fn nodes(&self) -> u64 {
        1
    }

    fn slice(&mut self, dur_ns: u64, out: &mut Slice, mut tracer: Option<&mut Tracer>) {
        assert_eq!(tracer.is_some(), self.clock.is_some());
        out.reset();
        let start = now_ns();
        loop {
            // The modification is input; the update is the run.
            let seeds = self.modifier.apply(&mut self.timer);
            self.updates += 1;
            if let Some(clock) = &self.clock {
                clock.first.store(0, Ordering::Relaxed);
                clock.last.store(0, Ordering::Relaxed);
            }
            let t0 = now_ns();
            let tasks = self
                .timer
                .incremental_update(&seeds, &Engine::V2Rustflow(&self.ex));
            let t3 = now_ns();
            out.attempted += 1;
            out.tasks += tasks as u64;
            out.run_ns.push(t3 - t0);
            if let (Some(tr), Some(clock)) = (tracer.as_deref_mut(), &self.clock) {
                let first = clock.first.load(Ordering::Relaxed);
                let last = clock.last.load(Ordering::Relaxed);
                if first != 0 {
                    // `prepare` is region discovery + graph build + submit
                    // + wake: the timer's graph is not ours to stamp.
                    tr.run_with_phases(
                        Self::LANE,
                        &["prepare", "exec", "finalize"],
                        &[t0, first, last, t3],
                    );
                }
            }
            if t3 - start >= dur_ns {
                out.elapsed_ns = t3 - start;
                return;
            }
        }
    }

    fn verify(&mut self) -> Result<(), String> {
        // A sequential twin driven by the same modifier stream, brought up
        // to date once at the end of the pass.
        let mut twin = Timer::new(self.base.clone());
        let mut modifier = DesignModifier::new(twin.circuit(), self.modifier_seed);
        for _ in 0..self.updates {
            modifier.apply(&mut twin);
        }
        twin.full_update(&Engine::Sequential);
        let (got, want) = (self.timer.worst_slack(), twin.worst_slack());
        if !got.is_finite() || (got - want).abs() > 1e-6 {
            return Err(format!(
                "timer worst slack {got} != sequential twin's {want} after {} updates",
                self.updates
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// serve_closed / serve_open
// ---------------------------------------------------------------------

/// A pre-built one-task request. The body counts itself; in the traced
/// twin it also stamps the clock on entry and exit.
struct Request {
    tf: Taskflow,
    stamp: Arc<[AtomicU64; 2]>,
    uses: u64,
}

fn request_pool(
    ex: &Arc<Executor>,
    n: usize,
    served: &Arc<AtomicU64>,
    traced: bool,
) -> Vec<Request> {
    (0..n)
        .map(|i| {
            let tf = Taskflow::with_executor(Arc::clone(ex));
            let stamp = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
            let (served, s) = (Arc::clone(served), Arc::clone(&stamp));
            if traced {
                tf.emplace(move || {
                    s[0].store(now_ns(), Ordering::Relaxed);
                    served.fetch_add(request_value(i), Ordering::Relaxed);
                    s[1].store(now_ns(), Ordering::Relaxed);
                });
            } else {
                tf.emplace(move || {
                    served.fetch_add(request_value(i), Ordering::Relaxed);
                });
            }
            Request { tf, stamp, uses: 0 }
        })
        .collect()
}

/// What request `i`'s body adds to the served counter.
fn request_value(i: usize) -> u64 {
    nominal_work(i as u64, 8) | 1
}

/// What both serving workloads share: an executor, one tenant, a pool of
/// pre-built requests that have each run once (so set-up includes freezing
/// and validating every graph), and the counts `verify` checks.
struct FrontDoor {
    ex: Arc<Executor>,
    tenant: Tenant,
    pool: Vec<Request>,
    /// Sum the request bodies have added, and the sum the runs that
    /// resolved `Ok` should have added.
    served: Arc<AtomicU64>,
    want_served: u64,
    ok_runs: u64,
    refused: u64,
    traced: bool,
}

impl FrontDoor {
    fn setup(
        name: &str,
        workers: usize,
        pool: usize,
        max_queued: usize,
        traced: bool,
    ) -> FrontDoor {
        let ex = executor(workers);
        let tenant = ex.tenant_with(
            name,
            TenantQos {
                max_queued,
                ..TenantQos::default()
            },
        );
        let served = Arc::new(AtomicU64::new(0));
        let pool = request_pool(&ex, pool, &served, traced);
        let handles: Vec<RunHandle> = pool
            .iter()
            .map(|req| req.tf.run_on(&tenant).expect("first run is admitted"))
            .collect();
        for handle in handles {
            handle.get().expect("first run succeeds");
        }
        FrontDoor {
            want_served: (0..pool.len()).fold(0, |sum, i| sum.wrapping_add(request_value(i))),
            ok_runs: pool.len() as u64,
            ex,
            tenant,
            pool,
            served,
            refused: 0,
            traced,
        }
    }

    /// `completed == submitted - refused`, with the admission ledger
    /// balanced and nothing queued or in flight.
    fn verify(&self) -> Result<(), String> {
        // The finalizing worker updates the counters just after it
        // resolves the promise; give it a moment to settle.
        let deadline = now_ns() + 2_000_000_000;
        let mut s = self.tenant.stats();
        while (s.in_flight != 0 || s.queued != 0) && now_ns() < deadline {
            std::thread::yield_now();
            s = self.tenant.stats();
        }
        let rejected =
            s.rejected_saturated + s.rejected_shutdown + s.rejected_infeasible + s.rejected_breaker;
        if s.in_flight != 0 || s.queued != 0 {
            return Err(format!("tenant {} never went quiet: {s:?}", s.name));
        }
        if s.submitted != s.dispatched + s.coalesced + s.shed + rejected {
            return Err(format!("tenant {} ledger does not balance: {s:?}", s.name));
        }
        if rejected != self.refused || s.completed != s.submitted - rejected - s.shed - s.coalesced
        {
            return Err(format!(
                "tenant {}: completed != submitted - refused ({} refused by count): {s:?}",
                s.name, self.refused
            ));
        }
        if s.completed < self.ok_runs {
            return Err(format!(
                "tenant {} completed {} runs but {} resolved Ok",
                s.name, s.completed, self.ok_runs
            ));
        }
        let served = self.served.load(Ordering::Relaxed);
        if served != self.want_served {
            return Err(format!(
                "tenant {}: request bodies summed to {served}, expected {}",
                s.name, self.want_served
            ));
        }
        Ok(())
    }
}

/// Closed loop: one generator (the calling thread) keeps a window of 16
/// runs in flight over 16 pre-built flows, through one tenant.
struct ServeClosed {
    door: FrontDoor,
    /// (flow, submit start, submit end, handle), oldest first.
    inflight: VecDeque<(usize, u64, u64, RunHandle)>,
}

impl ServeClosed {
    const LANE: u32 = 4;

    fn setup(workers: usize, traced: bool) -> ServeClosed {
        ServeClosed {
            door: FrontDoor::setup(
                "serve_closed",
                workers,
                CLOSED_WINDOW,
                2 * CLOSED_WINDOW,
                traced,
            ),
            inflight: VecDeque::with_capacity(CLOSED_WINDOW),
        }
    }

    /// Waits out the oldest run in flight and accounts for it.
    fn retire(&mut self, out: &mut Slice, tracer: &mut Option<&mut Tracer>) -> u64 {
        let (slot, t0, t1, handle) = self.inflight.pop_front().expect("window is not empty");
        let result = handle.get();
        let t3 = now_ns();
        let req = &mut self.door.pool[slot];
        if result.is_ok() {
            out.tasks += 1;
            out.run_ns.push(t3 - t0);
            self.door.ok_runs += 1;
            self.door.want_served = self.door.want_served.wrapping_add(request_value(slot));
            if let Some(tr) = tracer.as_deref_mut() {
                tr.run_with_phases(
                    Self::LANE,
                    &["submit", "wake", "exec", "finalize"],
                    &[
                        t0,
                        t1,
                        req.stamp[0].load(Ordering::Relaxed),
                        req.stamp[1].load(Ordering::Relaxed),
                        t3,
                    ],
                );
            }
        } else {
            out.failed += 1;
        }
        // Every run leaves a resolved future behind in its taskflow.
        req.uses += 1;
        if req.uses.is_multiple_of(1024) {
            req.tf.gc();
        }
        t3
    }
}

impl Workload for ServeClosed {
    fn lane(&self) -> u32 {
        Self::LANE
    }
    fn executor(&self) -> &Arc<Executor> {
        &self.door.ex
    }
    fn tenant_stats(&self) -> Option<TenantStats> {
        Some(self.door.tenant.stats())
    }
    fn nodes(&self) -> u64 {
        1
    }

    fn slice(&mut self, dur_ns: u64, out: &mut Slice, mut tracer: Option<&mut Tracer>) {
        assert_eq!(tracer.is_some(), self.door.traced);
        out.reset();
        let start = now_ns();
        let mut now = start;
        for slot in (0..CLOSED_WINDOW).cycle() {
            // The flow about to be reused must have finished its last run.
            if self.inflight.front().is_some_and(|run| run.0 == slot) {
                now = self.retire(out, &mut tracer);
            }
            if now - start >= dur_ns {
                break;
            }
            out.attempted += 1;
            let t0 = now_ns();
            match self.door.pool[slot].tf.run_on(&self.door.tenant) {
                Ok(handle) => {
                    let t1 = if self.door.traced { now_ns() } else { t0 };
                    self.inflight.push_back((slot, t0, t1, handle));
                }
                Err(_) => {
                    out.failed += 1;
                    self.door.refused += 1;
                }
            }
            now = t0;
        }
        let mut end = now_ns();
        while !self.inflight.is_empty() {
            end = self.retire(out, &mut tracer);
        }
        out.elapsed_ns = end - start;
    }

    fn verify(&mut self) -> Result<(), String> {
        self.door.verify()
    }
}

/// Open loop: the same request sent on a seeded Poisson schedule at a
/// fixed rate through `try_run_on`, each timed from when it was due.
struct ServeOpen {
    door: FrontDoor,
    seed: u64,
    slices: u64,
}

/// One slice's view of the pool as an open-loop backend.
struct OpenBackend<'a> {
    pool: &'a mut [Request],
    tenant: &'a Tenant,
    /// (request index, handle) of runs in flight.
    inflight: Vec<(usize, RunHandle)>,
    busy: Vec<bool>,
    refused: u64,
    errored: u64,
    ok: u64,
    want_served: u64,
    /// Traced twin: per request `[send start, send end, body start, body
    /// end, seen done]`, 0 where it never got that far.
    marks: Option<Vec<[u64; 5]>>,
}

impl Backend for OpenBackend<'_> {
    fn ready(&self, idx: usize) -> bool {
        !self.busy[idx % self.pool.len()]
    }

    fn send(&mut self, idx: usize) -> bool {
        let slot = idx % self.pool.len();
        let t0 = if self.marks.is_some() { now_ns() } else { 0 };
        match self.pool[slot].tf.try_run_on(self.tenant) {
            Ok(handle) => {
                if let Some(marks) = &mut self.marks {
                    marks[idx][0] = t0;
                    marks[idx][1] = now_ns();
                }
                self.busy[slot] = true;
                self.inflight.push((idx, handle));
                true
            }
            Err(_) => {
                self.refused += 1;
                false
            }
        }
    }

    fn poll(&mut self, done: &mut Vec<usize>) {
        let mut i = 0;
        while i < self.inflight.len() {
            if !self.inflight[i].1.is_ready() {
                i += 1;
                continue;
            }
            let (idx, handle) = self.inflight.swap_remove(i);
            let slot = idx % self.pool.len();
            if handle.get().is_ok() {
                self.ok += 1;
                self.want_served = self.want_served.wrapping_add(request_value(slot));
            } else {
                self.errored += 1;
            }
            if let Some(marks) = &mut self.marks {
                let stamp = &self.pool[slot].stamp;
                marks[idx][2] = stamp[0].load(Ordering::Relaxed);
                marks[idx][3] = stamp[1].load(Ordering::Relaxed);
                marks[idx][4] = now_ns();
            }
            self.busy[slot] = false;
            done.push(idx);
        }
    }
}

impl ServeOpen {
    const LANE: u32 = 5;

    fn setup(seed: u64, workers: usize, traced: bool) -> ServeOpen {
        ServeOpen {
            // The queue bound equals the pool: a refusal means the system
            // fell a whole pool behind, not that a neighbour stole 2 ms.
            door: FrontDoor::setup("serve_open", workers, OPEN_POOL, OPEN_POOL, traced),
            seed: mix(seed, 3),
            slices: 0,
        }
    }
}

impl Workload for ServeOpen {
    fn lane(&self) -> u32 {
        Self::LANE
    }
    fn executor(&self) -> &Arc<Executor> {
        &self.door.ex
    }
    fn tenant_stats(&self) -> Option<TenantStats> {
        Some(self.door.tenant.stats())
    }
    fn nodes(&self) -> u64 {
        1
    }

    fn slice(&mut self, dur_ns: u64, out: &mut Slice, tracer: Option<&mut Tracer>) {
        assert_eq!(tracer.is_some(), self.door.traced);
        out.reset();
        // Every slice gets its own stretch of the seeded arrival process.
        let schedule =
            openloop::poisson_schedule(mix(self.seed, self.slices), OPEN_RATE_HZ, dur_ns);
        self.slices += 1;
        let mut backend = OpenBackend {
            busy: vec![false; self.door.pool.len()],
            pool: &mut self.door.pool,
            tenant: &self.door.tenant,
            inflight: Vec::with_capacity(64),
            refused: 0,
            errored: 0,
            ok: 0,
            want_served: 0,
            marks: self.door.traced.then(|| vec![[0; 5]; schedule.len()]),
        };
        let mut t0 = 0;
        let mut clock = || {
            let now = now_ns();
            if t0 == 0 {
                t0 = now;
            }
            now
        };
        let res = openloop::drive(&schedule, &mut clock, &mut backend, OPEN_DRAIN_NS);
        out.attempted = res.attempted;
        out.failed = res.refused + res.lost + backend.errored;
        out.tasks = backend.ok;
        out.elapsed_ns = res.end_ns.max(dur_ns);
        out.run_ns = res.latency_ns;
        out.late_ns = res.late_ns;
        if let (Some(tr), Some(marks)) = (tracer, &backend.marks) {
            for (due, m) in schedule.iter().zip(marks) {
                if m[4] != 0 {
                    tr.run_with_phases(
                        Self::LANE,
                        &["late", "submit", "wake", "exec", "finalize"],
                        &[t0 + due, m[0], m[1], m[2], m[3], m[4]],
                    );
                }
            }
        }
        self.door.ok_runs += backend.ok;
        self.door.refused += backend.refused;
        self.door.want_served = self.door.want_served.wrapping_add(backend.want_served);
    }

    fn verify(&mut self) -> Result<(), String> {
        self.door.verify()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Machine = Machine {
        nproc: 2,
        w: 2,
        ws: 1,
    };

    /// Every workload, plain and traced, runs a short slice without a
    /// failure, passes its own verification, and (traced) leaves a trace
    /// whose children fit their parents.
    #[test]
    fn every_workload_runs_and_verifies() {
        for name in NAMES {
            for traced in [false, true] {
                let mut w = setup(name, 7, SMALL, traced);
                let mut tracer = Tracer::new();
                let mut out = Slice::default();
                for _ in 0..2 {
                    w.slice(20_000_000, &mut out, traced.then_some(&mut tracer));
                    assert!(out.attempted > 0, "{name}: nothing attempted");
                    assert_eq!(out.failed, 0, "{name}: failures");
                    assert_eq!(out.run_ns.len() as u64, out.attempted, "{name}");
                    assert!(out.tasks > 0 && out.elapsed_ns >= 20_000_000, "{name}");
                }
                w.verify()
                    .unwrap_or_else(|e| panic!("{name} traced={traced}: {e}"));
                tracer.check_nesting().unwrap();
                assert_eq!(tracer.spans.is_empty(), !traced, "{name}");
                if traced {
                    assert!(tracer.spans.iter().all(|s| s.lane == w.lane()));
                }
            }
        }
    }

    #[test]
    fn instrumented_dag_gets_one_source_and_one_sink() {
        let (dag, _) = randdag::build(RandDagSpec::new(500));
        let stamps = Arc::new(Stamps::default());
        let traced = instrument(&dag, &stamps);
        assert_eq!(traced.len(), dag.len() + 2);
        let roots = (0..traced.len())
            .filter(|&v| traced.in_degree_of(v) == 0)
            .count();
        let leaves = (0..traced.len())
            .filter(|&v| traced.successors_of(v).is_empty())
            .count();
        assert_eq!((roots, leaves), (1, 1));
        traced.run_sequential();
        let (s, e) = (stamps.starts.lock().unwrap(), stamps.ends.lock().unwrap());
        assert_eq!((s.len(), e.len()), (1, 1));
        assert!(s[0] <= e[0]);
    }

    #[test]
    fn seed_streams_are_decorrelated_and_stable() {
        assert_eq!(mix(1, 1), mix(1, 1));
        assert_ne!(mix(1, 1), mix(1, 2));
        assert_ne!(mix(1, 1), mix(2, 1));
    }
}
