//! Task-graph storage: nodes, edges, and the work they carry.
//!
//! A [`Graph`] owns its nodes in an arena of geometrically growing chunks
//! that are never reallocated, so node addresses are stable for the node's
//! entire life even as the owning `Graph` value moves (from the building
//! [`Taskflow`](crate::Taskflow) into a dispatched
//! [`Topology`](crate::topology::Topology), or inside a parent node's
//! subflow graph). The executor and task handles refer to nodes by raw
//! pointer, exactly like Cpp-Taskflow's `Node*`; liveness is guaranteed by
//! the taskflow keeping every dispatched topology alive until the taskflow
//! itself is destroyed or garbage-collected (§III-C of the paper).
//! A node carries its edges (up to [`INLINE_SUCCESSORS`]) and its closure
//! ([`Work`]: up to two words) inside itself, so building a graph of
//! small closures costs one allocation per chunk rather than any per node,
//! dropping it drops the nodes in place and frees the chunks, and every
//! node records its emplacement index, which is what lets the freeze
//! sweep in [`crate::validate`] answer "is this successor in this graph,
//! and which one" with an index read and a pointer compare.
//!
//! A node is split into two halves with different lifecycles:
//!
//! * [`NodeStructure`] — what the user built: name, callable, edges,
//!   static in-degree. Frozen once the graph is handed to a topology, and
//!   shared unchanged by every run of that topology.
//! * [`NodeState`] — what one execution needs: the runtime join counter,
//!   the joined-subflow countdown, parent/topology back-pointers, and the
//!   subgraph a dynamic task spawned. Armed once, when the graph is frozen
//!   or the subflow spawned ([`Node::rearm`]); after that the node keeps
//!   itself armed: the worker that completes it reloads its join counter
//!   from the in-degree before releasing any successor, and a dynamic task
//!   drops its previous subgraph when it next executes. That is what makes
//!   topologies reusable by `run`/`run_n`/`run_until` without rebuilding
//!   the graph, and without any thread walking it between iterations.

use crate::label::TaskLabel;
use crate::subflow::Subflow;
use crate::sync::AtomicUsize;
use crate::sync_cell::SyncCell;
use crate::topology::Topology;
use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::marker::PhantomData;
use std::mem::{align_of, size_of, MaybeUninit};
use std::ptr::NonNull;
use std::sync::atomic::Ordering;

/// Raw pointer to a node; the executor's currency.
pub(crate) type RawNode = *mut Node;

/// The in-node storage of a closure: two words.
type Inline = [usize; 2];

/// The callable payload of a node, stored in the node itself.
///
/// Cpp-Taskflow stores a `std::variant` of a static callable and a dynamic
/// (subflow-taking) callable behind one polymorphic wrapper (§III-D); this
/// is the Rust equivalent and is what makes the static and dynamic tasking
/// interfaces uniform. The callables are `FnMut`, so the same payload can
/// run once per iteration of a reused topology.
///
/// Three words: the closure type's [`WorkVTable`] (`None` for a
/// placeholder) and two words of storage. A closure of at most two words
/// whose alignment the storage satisfies (an `Arc` and an index, say) is
/// written into the storage; a bigger one is boxed, and what is stored is
/// the box, itself a one-word closure that calls through to its contents.
/// So emplacing a small closure allocates nothing, and every closure is
/// called, and dropped, the same way.
///
/// `Work` is `Send` and `Sync` automatically: every constructor demands
/// `F: Send`, and nothing reachable through `&Work` touches the closure.
pub(crate) struct Work {
    vtable: Option<&'static WorkVTable>,
    data: MaybeUninit<Inline>,
}

/// How to call and drop the closure type stored in a [`Work`]; one
/// constant per closure type (see [`VTableOf`]).
struct WorkVTable {
    call: Call,
    drop: unsafe fn(*mut u8),
}

/// The call entry of a [`WorkVTable`]: which interface the closure has.
#[derive(Clone, Copy)]
enum Call {
    Static(unsafe fn(*mut u8)),
    Dynamic(unsafe fn(*mut u8, &mut Subflow<'_>)),
}

/// Carrier of the per-closure-type vtable constants. Taking the address
/// of an associated constant promotes it to a `&'static`.
struct VTableOf<F>(PhantomData<F>);

impl<F: FnMut() + Send + 'static> VTableOf<F> {
    const STATIC: WorkVTable = WorkVTable {
        call: Call::Static(call_static::<F>),
        drop: drop_closure::<F>,
    };
}

impl<F: FnMut(&mut Subflow<'_>) + Send + 'static> VTableOf<F> {
    const DYNAMIC: WorkVTable = WorkVTable {
        call: Call::Dynamic(call_dynamic::<F>),
        drop: drop_closure::<F>,
    };
}

/// # Safety
/// `data` must point to a live `F`, not aliased for the call's duration.
unsafe fn call_static<F: FnMut()>(data: *mut u8) {
    // SAFETY: per the function's contract.
    unsafe { (*data.cast::<F>())() }
}

/// # Safety
/// As for [`call_static`].
unsafe fn call_dynamic<F: FnMut(&mut Subflow<'_>)>(data: *mut u8, sf: &mut Subflow<'_>) {
    // SAFETY: per the function's contract.
    unsafe { (*data.cast::<F>())(sf) }
}

/// # Safety
/// `data` must point to a live `F` that is never used again.
unsafe fn drop_closure<F>(data: *mut u8) {
    // SAFETY: per the function's contract.
    unsafe { std::ptr::drop_in_place(data.cast::<F>()) }
}

/// `true` when an `F` is stored in a [`Work`] itself rather than boxed.
const fn fits_inline<F>() -> bool {
    size_of::<F>() <= size_of::<Inline>() && align_of::<F>() <= align_of::<Inline>()
}

/// A node's work, as [`Work::kind`] lends it out for one execution.
pub(crate) enum WorkKind<'w> {
    /// Placeholder: nothing to run.
    Empty,
    /// A static task: a plain closure.
    Static(Closure<'w, unsafe fn(*mut u8)>),
    /// A dynamic task: receives a [`Subflow`] to spawn children at runtime.
    Dynamic(Closure<'w, unsafe fn(*mut u8, &mut Subflow<'_>)>),
}

/// A stored closure, exclusively borrowed from its [`Work`], with the call
/// entry of its type.
pub(crate) struct Closure<'w, C> {
    data: &'w mut MaybeUninit<Inline>,
    call: C,
}

impl Closure<'_, unsafe fn(*mut u8)> {
    /// Runs the closure once.
    pub(crate) fn call(self) {
        // SAFETY: `Work::kind` pairs the storage with its own vtable's
        // entry, and the `&mut` borrow makes this the only access.
        unsafe { (self.call)(self.data.as_mut_ptr().cast()) }
    }
}

impl Closure<'_, unsafe fn(*mut u8, &mut Subflow<'_>)> {
    /// Runs the closure once with `sf`.
    pub(crate) fn call(self, sf: &mut Subflow<'_>) {
        // SAFETY: as for the static `call`.
        unsafe { (self.call)(self.data.as_mut_ptr().cast(), sf) }
    }
}

impl Work {
    /// A placeholder: no work yet (a task handle may assign it later).
    pub(crate) const fn empty() -> Work {
        Work {
            vtable: None,
            data: MaybeUninit::uninit(),
        }
    }

    /// A static task running `f`.
    pub(crate) fn new_static<F: FnMut() + Send + 'static>(f: F) -> Work {
        fn store<F: FnMut() + Send + 'static>(f: F) -> Work {
            // SAFETY: the vtable is `F`'s own.
            unsafe { Work::store(f, &VTableOf::<F>::STATIC) }
        }
        if fits_inline::<F>() {
            store(f)
        } else {
            store(Box::new(f))
        }
    }

    /// A dynamic task running `f` with the subflow it may spawn into.
    pub(crate) fn new_dynamic<F: FnMut(&mut Subflow<'_>) + Send + 'static>(f: F) -> Work {
        fn store<F: FnMut(&mut Subflow<'_>) + Send + 'static>(f: F) -> Work {
            // SAFETY: the vtable is `F`'s own.
            unsafe { Work::store(f, &VTableOf::<F>::DYNAMIC) }
        }
        if fits_inline::<F>() {
            store(f)
        } else {
            store(Box::new(f))
        }
    }

    /// Writes `f` into the storage.
    ///
    /// # Safety
    /// `vtable` must be one of `VTableOf::<F>`'s constants: it is what
    /// calls and drops the stored bytes as an `F`.
    unsafe fn store<F>(f: F, vtable: &'static WorkVTable) -> Work {
        assert!(fits_inline::<F>());
        let mut data = MaybeUninit::<Inline>::uninit();
        // SAFETY: the assert above: an `F` fits the storage, size and
        // alignment both.
        unsafe { data.as_mut_ptr().cast::<F>().write(f) };
        Work {
            vtable: Some(vtable),
            data,
        }
    }

    /// `true` for a placeholder.
    pub(crate) fn is_empty(&self) -> bool {
        self.vtable.is_none()
    }

    /// The work, lent out for one call.
    #[inline]
    pub(crate) fn kind(&mut self) -> WorkKind<'_> {
        let Some(vtable) = self.vtable else {
            return WorkKind::Empty;
        };
        let data = &mut self.data;
        match vtable.call {
            Call::Static(call) => WorkKind::Static(Closure { data, call }),
            Call::Dynamic(call) => WorkKind::Dynamic(Closure { data, call }),
        }
    }
}

impl Drop for Work {
    fn drop(&mut self) {
        if let Some(vtable) = self.vtable {
            // SAFETY: a stored closure is live until here, and `vtable` is
            // its type's.
            unsafe { (vtable.drop)(self.data.as_mut_ptr().cast()) }
        }
    }
}

impl std::fmt::Debug for Work {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self.vtable.map(|vtable| vtable.call) {
            None => "Empty",
            Some(Call::Static(_)) => "Static",
            Some(Call::Dynamic(_)) => "Dynamic",
        })
    }
}

/// How many outgoing edges a node stores inside itself before the list
/// spills to the heap. The paper's graph-traversal benchmark bounds the
/// out-degree at 4 and the wavefront at 2, so the common shapes never
/// allocate for their edges.
pub(crate) const INLINE_SUCCESSORS: usize = 4;

/// A node's outgoing edges, in `precede` order: a small inline list that
/// spills to a heap `Vec` past [`INLINE_SUCCESSORS`]. Reads go through the
/// slice it derefs to.
///
/// `repr(u8)` fixes the layout (tag, `len`, then the slots) that the
/// layout note on [`Node`] counts on.
#[repr(u8)]
pub(crate) enum Successors {
    /// At most [`INLINE_SUCCESSORS`] targets, stored in the node; only
    /// `slots[..len]` are meaningful.
    Inline {
        len: u8,
        slots: [RawNode; INLINE_SUCCESSORS],
    },
    /// More than [`INLINE_SUCCESSORS`] targets.
    Heap(Vec<RawNode>),
}

impl Successors {
    pub(crate) const fn new() -> Successors {
        Successors::Inline {
            len: 0,
            slots: [std::ptr::null_mut(); INLINE_SUCCESSORS],
        }
    }

    /// Appends an edge to `target`.
    pub(crate) fn push(&mut self, target: RawNode) {
        match self {
            Successors::Inline { len, slots } => {
                if let Some(slot) = slots.get_mut(*len as usize) {
                    *slot = target;
                    *len += 1;
                } else {
                    let mut spilled = Vec::with_capacity(2 * INLINE_SUCCESSORS);
                    spilled.extend_from_slice(slots);
                    spilled.push(target);
                    *self = Successors::Heap(spilled);
                }
            }
            Successors::Heap(targets) => targets.push(target),
        }
    }
}

impl std::ops::Deref for Successors {
    type Target = [RawNode];

    #[inline]
    fn deref(&self) -> &[RawNode] {
        match self {
            Successors::Inline { len, slots } => &slots[..*len as usize],
            Successors::Heap(targets) => targets,
        }
    }
}

/// The immutable half of a node: everything the build phase produced.
///
/// Mutated only while the graph is a taskflow's present graph (or a
/// subflow under construction); read-only once dispatched. Reused verbatim
/// across every iteration of a reusable topology.
///
/// `repr(C)`, fields in access order: see the layout note on [`Node`].
#[repr(C)]
pub(crate) struct NodeStructure {
    /// Per-task retry policy ([`Task::retry`](crate::Task::retry));
    /// [`RetryPolicy::none`] by default.
    pub(crate) retry: SyncCell<RetryPolicy>,
    /// Static in-degree, accumulated during construction; the runtime
    /// `join_counter` is armed from this value at freeze and reloaded from
    /// it every time the node completes.
    pub(crate) in_degree: SyncCell<u32>,
    /// Emplacement index within the owning [`Graph`]; written once when
    /// the node is created, never changed.
    pub(crate) index: u32,
    /// The callable payload.
    pub(crate) work: SyncCell<Work>,
    /// Outgoing edges.
    pub(crate) successors: SyncCell<Successors>,
    /// Optional human-readable name, interned so observers can clone it
    /// without allocating (used by the DOT dump and the tracer).
    pub(crate) name: SyncCell<TaskLabel>,
}

/// How many times a panicking task is re-executed before its panic is
/// recorded, and how long to pause between attempts.
///
/// Set during graph construction via [`Task::retry`](crate::Task::retry) /
/// [`Task::retry_backoff`](crate::Task::retry_backoff); frozen with the
/// rest of the structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RetryPolicy {
    /// Additional attempts after the first failure (0 = no retry).
    pub(crate) limit: u32,
    /// Sleep before retry k (1-based) is `base * 2^(k-1)`, capped at
    /// [`RetryPolicy::MAX_BACKOFF`]; zero means retry immediately. Held in
    /// nanoseconds, saturated: a base beyond `u32::MAX` ns is far above
    /// the cap already, so nothing is lost and the policy stays one word
    /// of the node.
    base_backoff_ns: u32,
}

impl RetryPolicy {
    /// Exponential backoff is clamped here so a retry storm cannot stall
    /// a worker for longer than a scheduling quantum.
    pub(crate) const MAX_BACKOFF: std::time::Duration = std::time::Duration::from_millis(50);

    /// No retries: the first panic is recorded immediately.
    pub(crate) const fn none() -> RetryPolicy {
        RetryPolicy {
            limit: 0,
            base_backoff_ns: 0,
        }
    }

    /// Up to `limit` retries, pausing `base * 2^(k-1)` before the k-th.
    pub(crate) fn new(limit: u32, base: std::time::Duration) -> RetryPolicy {
        RetryPolicy {
            limit,
            base_backoff_ns: u32::try_from(base.as_nanos()).unwrap_or(u32::MAX),
        }
    }

    /// The pause before the `attempt`-th retry (1-based).
    pub(crate) fn backoff(&self, attempt: u32) -> std::time::Duration {
        let base = std::time::Duration::from_nanos(self.base_backoff_ns.into());
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        (base * factor).min(Self::MAX_BACKOFF)
    }
}

/// The per-run half of a node: armed by [`Node::rearm`] at freeze or
/// spawn, mutated by workers while an iteration executes, and left armed
/// for the next one by the worker that completes the node.
///
/// `repr(C)`, fields in access order: see the layout note on [`Node`].
#[repr(C)]
pub(crate) struct NodeState {
    /// Children spawned by a dynamic task at runtime (owned here so nested
    /// subflows form a tree of graphs, mirroring Cpp-Taskflow). Cleared when
    /// the task next executes ([`Node::clear_subflow`]), so each iteration
    /// spawns a fresh subflow.
    pub(crate) subgraph: SyncCell<Graph>,
    /// Runtime countdown of unfinished predecessors, counted down only
    /// through `scheduler::count_down`: the last predecessor to arrive
    /// readies the node, either by loading 1 (and leaving it at 1) or by
    /// the decrement that takes it to 0. Reloaded from the in-degree by
    /// the worker that completes the node, before it releases any
    /// successor, so the value the last arrival left is never read.
    pub(crate) join_counter: AtomicUsize,
    /// Countdown of unfinished *joined* subflow children, plus a sentinel
    /// held by the parent while it spawns, counted down through the same
    /// helper: the last arrival (a child, or the sentinel drop) completes
    /// the node and may leave it at 1. Stored afresh when the node next
    /// spawns ([`Node::clear_subflow`] resets it before).
    pub(crate) nested: AtomicUsize,
    /// Parent node when this node belongs to a joined subflow; null for
    /// top-level and detached nodes.
    pub(crate) parent: SyncCell<RawNode>,
    /// Back-pointer to the running topology; set at dispatch (top-level) or
    /// spawn (subflow children).
    pub(crate) topology: SyncCell<*const Topology>,
}

/// A single vertex of a task dependency graph.
///
/// Field access follows the phase discipline documented in
/// [`crate::sync_cell`]: plain fields are mutated only during graph
/// construction, at freeze or spawn by the single arming thread, or by the
/// single worker executing the node; cross-thread state lives in atomics.
///
/// Layout: running a node reads its back pointers and callable, reloads
/// its join counter from the in-degree and walks its successors, and each
/// release writes a successor's join counter, so what one execution
/// touches is kept together. With the production cells, bytes 32..128 hold
/// the join counter, the back pointers, the retry policy, the in-degree,
/// the callable and the first two successor slots; 32-byte alignment and a
/// 160-byte size put that span on exactly two cache lines for every node
/// of a chunk. The subgraph (read only by dynamic tasks) sits in front,
/// the other successor slots and the name behind.
#[repr(C, align(32))]
pub(crate) struct Node {
    /// Reset before each run; owned by the running iteration.
    pub(crate) state: NodeState,
    /// Immutable after build; shared by every run.
    pub(crate) structure: NodeStructure,
}

impl Node {
    fn new(work: Work, index: u32) -> Node {
        Node {
            structure: NodeStructure {
                name: SyncCell::new(TaskLabel::empty()),
                work: SyncCell::new(work),
                successors: SyncCell::new(Successors::new()),
                in_degree: SyncCell::new(0),
                index,
                retry: SyncCell::new(RetryPolicy::none()),
            },
            state: NodeState {
                join_counter: AtomicUsize::new(0),
                nested: AtomicUsize::new(0),
                parent: SyncCell::new(std::ptr::null_mut()),
                topology: SyncCell::new(std::ptr::null()),
                subgraph: SyncCell::new(Graph::new()),
            },
        }
    }

    /// Adds the dependency edge `from -> to`: `to` joins `from`'s
    /// successor list and `to`'s static in-degree grows by one.
    ///
    /// # Safety
    /// Both pointers must target live nodes, and the caller must be the
    /// single thread building the graph(s) they belong to.
    pub(crate) unsafe fn connect(from: RawNode, to: RawNode) {
        // SAFETY: build phase, single thread, per the caller's contract.
        unsafe {
            (*from).structure.successors.get_mut().push(to);
            let in_degree = (*to).structure.in_degree.get_mut();
            *in_degree = in_degree
                .checked_add(1)
                .expect("more than u32::MAX edges into one task");
        }
    }

    /// Name for diagnostics; the empty label when unnamed. Cloning the
    /// returned label is a reference-count bump, not an allocation.
    ///
    /// # Safety
    /// Caller must satisfy the [`SyncCell`] read contract.
    pub(crate) unsafe fn label(&self) -> &TaskLabel {
        // SAFETY: forwarding the caller's phase guarantee.
        unsafe { self.structure.name.get() }
    }

    /// Arms the per-run state from the immutable structure: back-pointers
    /// set, the join counter loaded from the static in-degree, and the
    /// subflow state cleared ([`Node::clear_subflow`]). Called once per
    /// node, by the freeze sweep ([`crate::validate::sweep`]) when a graph
    /// becomes a topology or a subflow is spawned; from then on the node
    /// re-arms itself as it completes.
    ///
    /// # Safety
    /// Caller must have exclusive access to the node: the thread freezing
    /// a graph no worker can reach yet, or the worker arming a fresh
    /// subflow child before publishing it.
    pub(crate) unsafe fn rearm(&mut self, topology: *const Topology, parent: RawNode) {
        // SAFETY: exclusive access per the caller's contract.
        unsafe {
            *self.state.topology.get_mut() = topology;
            *self.state.parent.get_mut() = parent;
            self.state
                .join_counter
                .store(*self.structure.in_degree.get() as usize, Ordering::Relaxed);
            self.clear_subflow();
        }
    }

    /// Drops whatever subgraph an earlier execution of this node spawned
    /// (the previous iteration's, or a failed attempt's half-built one)
    /// and resets the joined-subflow countdown, so the execution about to
    /// start spawns afresh. Topology back-pointers, parent and the join
    /// counter are untouched: the node is mid-execution from the
    /// scheduler's point of view, and nothing of it has propagated to its
    /// successors or its topology yet.
    ///
    /// # Safety
    /// Caller must have exclusive access to the node: the worker about to
    /// run its closure (every earlier subflow has finished, since the
    /// iteration that spawned it ended or the attempt never published it),
    /// or [`Node::rearm`]'s caller.
    pub(crate) unsafe fn clear_subflow(&mut self) {
        // SAFETY: exclusive access per the caller's contract; no child of
        // the subgraph is running or queued.
        unsafe {
            self.state.nested.store(0, Ordering::Relaxed);
            let sub = self.state.subgraph.get_mut();
            if !sub.is_empty() {
                *sub = Graph::new();
            }
        }
    }

    /// The retry policy frozen into this node's structure.
    ///
    /// # Safety
    /// Caller must satisfy the [`SyncCell`] read contract (the policy is
    /// written only during the build phase).
    pub(crate) unsafe fn retry_policy(&self) -> RetryPolicy {
        // SAFETY: forwarding the caller's phase guarantee.
        unsafe { *self.structure.retry.get() }
    }
}

/// Node slots in the first chunk of a [`Graph`]; chunk `k` holds
/// `FIRST_CHUNK << k`. Small, so a one-task serving graph or a
/// few-children subflow pays for one small block, while a 10 000-node
/// graph is a dozen allocations.
const FIRST_CHUNK: usize = 4;

/// Node slots in chunk `k`.
const fn chunk_capacity(k: usize) -> usize {
    FIRST_CHUNK << k
}

/// Emplacement index of the first slot of chunk `k` (the capacities of
/// chunks `0..k` sum to `FIRST_CHUNK * (2^k - 1)`).
const fn chunk_base(k: usize) -> usize {
    FIRST_CHUNK * ((1 << k) - 1)
}

/// Chunk number and slot within it of emplacement index `i`.
fn locate(i: usize) -> (usize, usize) {
    let k = (i / FIRST_CHUNK + 1).ilog2() as usize;
    (k, i - chunk_base(k))
}

fn chunk_layout(k: usize) -> Layout {
    Layout::array::<Node>(chunk_capacity(k)).expect("graph chunk exceeds the address space")
}

/// An owned collection of nodes forming (part of) a task dependency graph.
///
/// Nodes live in an arena of chunks that double in size and are never
/// reallocated: a [`RawNode`] handed out by [`Graph::emplace`] stays valid
/// across later emplacements and across moves of the `Graph` value, until
/// the graph is dropped. Invariant: slots `0..len` (in chunk order) hold
/// initialized nodes, and `chunks` holds exactly the chunks those slots
/// reach into, so no chunk is empty.
#[derive(Default)]
pub(crate) struct Graph {
    chunks: Vec<NonNull<Node>>,
    len: usize,
}

impl Graph {
    pub(crate) const fn new() -> Graph {
        Graph {
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// Adds a node and returns its stable address.
    pub(crate) fn emplace(&mut self, work: Work) -> RawNode {
        let index = u32::try_from(self.len).expect("more than u32::MAX tasks in one graph");
        let (k, slot) = locate(self.len);
        if k == self.chunks.len() {
            let layout = chunk_layout(k);
            // SAFETY: `Node` is not zero-sized, so neither is the layout.
            let chunk = unsafe { alloc(layout) }.cast::<Node>();
            let Some(chunk) = NonNull::new(chunk) else {
                handle_alloc_error(layout)
            };
            self.chunks.push(chunk);
        }
        // SAFETY: `slot < chunk_capacity(k)`, so the address is inside
        // chunk `k`'s allocation; the slot is uninitialized (its index is
        // `len`), so writing without dropping is right.
        unsafe {
            let node = self.chunks[k].as_ptr().add(slot);
            node.write(Node::new(work, index));
            self.len += 1;
            node
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Address of the node emplaced `index`-th; `index` must be `< len`.
    fn slot(&self, index: usize) -> RawNode {
        debug_assert!(index < self.len);
        let (k, slot) = locate(index);
        // SAFETY: `index < len`, so chunk `k` exists and `slot` is inside
        // its allocation.
        unsafe { self.chunks[k].as_ptr().add(slot) }
    }

    /// The node emplaced `index`-th, if there is one.
    pub(crate) fn get(&self, index: usize) -> Option<&Node> {
        // SAFETY: slots below `len` hold initialized nodes that live as
        // long as `self`.
        (index < self.len).then(|| unsafe { &*self.slot(index) })
    }

    /// Emplacement index of `node` if it belongs to this graph, `None` if
    /// it is a node of some other graph: one index read and one pointer
    /// compare.
    ///
    /// # Safety
    /// `node` must point to a live node (of any graph).
    pub(crate) unsafe fn index_of(&self, node: RawNode) -> Option<usize> {
        // SAFETY: live node per the caller's contract; `index` is never
        // written after the node is created.
        let index = unsafe { (*node).structure.index } as usize;
        (index < self.len && self.slot(index) == node).then_some(index)
    }

    /// The initialized part of every chunk as `(pointer, length)`, in
    /// emplacement order.
    fn chunk_parts(&self) -> impl Iterator<Item = (*mut Node, usize)> + '_ {
        self.chunks.iter().enumerate().map(|(k, chunk)| {
            let used = (self.len - chunk_base(k)).min(chunk_capacity(k));
            (chunk.as_ptr(), used)
        })
    }

    /// Addresses of the nodes in emplacement order, derived from the
    /// chunk allocations (not from a reference), so they may be handed to
    /// the executor as tokens it later mutates through.
    pub(crate) fn iter_raw(&self) -> impl Iterator<Item = RawNode> + '_ {
        self.chunk_parts().flat_map(|(chunk, used)| {
            // SAFETY: `i < used` stays inside the chunk's allocation.
            (0..used).map(move |i| unsafe { chunk.add(i) })
        })
    }

    /// Nodes in emplacement order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Node> {
        self.chunk_parts()
            // SAFETY: the first `used` slots of a chunk hold initialized
            // nodes that live as long as `self`.
            .flat_map(|(chunk, used)| unsafe { std::slice::from_raw_parts(chunk, used) })
    }

    /// Total node count including every (recursively) spawned subgraph.
    ///
    /// # Safety
    /// Callable only in a quiescent phase (build or post-completion).
    pub(crate) unsafe fn total_nodes(&self) -> usize {
        let mut count = self.len;
        for node in self.iter() {
            // SAFETY: quiescent phase per the caller's contract, so reading
            // the subgraph (and recursing into it) is unsynchronized-safe.
            count += unsafe { node.state.subgraph.get().total_nodes() };
        }
        count
    }
}

impl Drop for Graph {
    fn drop(&mut self) {
        for (k, (chunk, used)) in self.chunk_parts().enumerate() {
            // SAFETY: the first `used` slots hold initialized nodes nobody
            // else can reach any more (`&mut self` in `drop`); the chunk
            // was allocated in `emplace` with exactly `chunk_layout(k)`.
            unsafe {
                std::ptr::drop_in_place(std::ptr::slice_from_raw_parts_mut(chunk, used));
                dealloc(chunk.cast(), chunk_layout(k));
            }
        }
    }
}

// SAFETY: Graph is moved across threads (into topologies) but its interior
// is only touched under the phase discipline of `sync_cell`: the chunk
// pointers are owned exclusively by this value, and every node field is an
// atomic, a `SyncCell` of `Send` data (all closure payloads are `Send`), or
// written once before the node's address is shared.
unsafe impl Send for Graph {}
unsafe impl Sync for Graph {}

#[cfg(test)]
mod tests {
    use super::*;
    // The plain std counter, not the sync facade's (possibly shimmed) one.
    use std::sync::atomic::AtomicUsize as Counter;
    use std::sync::Arc;

    /// Bumps the shared counter when dropped; captured by test closures to
    /// count how often a node's payload is destroyed.
    struct DropCounter(Arc<Counter>);

    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A [`DropCounter`] padded by `PAD` words. A closure owning one with
    /// `PAD == 0` can be stored in its node; with `PAD == 2` it is at least
    /// three words, so it is boxed. Each drop-count test runs with both.
    #[allow(dead_code)] // carried and dropped, never read
    struct Guard<const PAD: usize>(DropCounter, [usize; PAD]);

    fn new_guard<const PAD: usize>(drops: &Arc<Counter>) -> Guard<PAD> {
        Guard(DropCounter(Arc::clone(drops)), [0; PAD])
    }

    fn fits_inline_as<F>(_: &F) -> bool {
        fits_inline::<F>()
    }

    /// A static closure owning a [`Guard`].
    fn counted<const PAD: usize>(drops: &Arc<Counter>) -> Work {
        let guard = new_guard::<PAD>(drops);
        let f = move || {
            let _keep = &guard;
        };
        assert_eq!(fits_inline_as(&f), PAD == 0);
        Work::new_static(f)
    }

    fn assert_layout(g: &Graph, ptrs: &[RawNode]) {
        assert_eq!(g.len(), ptrs.len());
        for (i, (&p, node)) in ptrs.iter().zip(g.iter()).enumerate() {
            assert_eq!(node as *const Node, p as *const Node);
            assert_eq!(node.structure.index as usize, i);
            assert_eq!(g.get(i).map(|n| n as *const Node), Some(p as *const Node));
            // SAFETY: `p` is a live node of `g`.
            assert_eq!(unsafe { g.index_of(p) }, Some(i));
        }
        assert!(g.get(ptrs.len()).is_none());
    }

    #[test]
    fn addresses_and_indices_stable_across_chunks_and_moves() {
        let mut g = Graph::new();
        let mut ptrs = Vec::new();
        for i in 0..10_000 {
            ptrs.push(g.emplace(Work::empty()));
            // Re-check everything emplaced so far right after each chunk
            // boundary, where a reallocating container would have moved it.
            if locate(i).1 == 0 {
                assert_layout(&g, &ptrs);
            }
        }
        assert_layout(&g, &ptrs);
        let moved = Box::new(g);
        assert_layout(&moved, &ptrs);
        let back = *moved;
        assert_layout(&back, &ptrs);
    }

    #[test]
    fn index_of_rejects_nodes_of_another_graph() {
        let mut g = Graph::new();
        let mut other = Graph::new();
        let a = g.emplace(Work::empty());
        let foreign = other.emplace(Work::empty());
        other.emplace(Work::empty());
        let beyond = other.emplace(Work::empty());
        // SAFETY: all three are live nodes.
        unsafe {
            assert_eq!(g.index_of(a), Some(0));
            assert_eq!(g.index_of(foreign), None, "same index, other graph");
            assert_eq!(g.index_of(beyond), None, "index past this graph's end");
        }
    }

    #[test]
    fn locate_inverts_chunk_geometry() {
        let mut expected = 0;
        for k in 0..12 {
            assert_eq!(chunk_base(k), expected);
            assert_eq!(locate(expected), (k, 0));
            expected += chunk_capacity(k);
            assert_eq!(locate(expected - 1), (k, chunk_capacity(k) - 1));
        }
    }

    #[test]
    fn successors_match_a_vec_model() {
        let mut g = Graph::new();
        let targets: Vec<RawNode> = (0..100).map(|_| g.emplace(Work::empty())).collect();
        for fan_out in [0, 1, INLINE_SUCCESSORS, INLINE_SUCCESSORS + 1, 100] {
            let mut list = Successors::new();
            let mut model: Vec<RawNode> = Vec::new();
            for &t in &targets[..fan_out] {
                list.push(t);
                model.push(t);
                assert_eq!(&*list, model.as_slice());
            }
            assert_eq!(list.len(), fan_out);
            assert_eq!(list.is_empty(), fan_out == 0);
            assert_eq!(
                matches!(list, Successors::Inline { .. }),
                fan_out <= INLINE_SUCCESSORS
            );
        }
    }

    #[test]
    fn connect_records_edge_and_in_degree() {
        let mut g = Graph::new();
        let a = g.emplace(Work::empty());
        let b = g.emplace(Work::empty());
        // SAFETY: single-threaded build phase.
        unsafe {
            Node::connect(a, b);
            Node::connect(a, b);
            assert_eq!(&**(*a).structure.successors.get(), &[b, b]);
            assert_eq!(*(*b).structure.in_degree.get(), 2);
            assert_eq!(*(*a).structure.in_degree.get(), 0);
        }
    }

    // The model checker's shim cells carry bookkeeping; the budget and the
    // layout note on `Node` are for the production cells.
    #[cfg(not(feature = "rustflow_check"))]
    #[test]
    fn node_stays_within_three_cache_lines_with_its_hot_span_on_two() {
        use std::mem::{align_of, offset_of, size_of};
        assert!(size_of::<Node>() <= 192, "Node is {} B", size_of::<Node>());
        assert_eq!((align_of::<Node>(), size_of::<Node>() % 32), (32, 0));
        let hot_start = offset_of!(Node, state) + offset_of!(NodeState, join_counter);
        // Tag and length word, then the wavefront's two successor slots.
        let hot_end = offset_of!(Node, structure)
            + offset_of!(NodeStructure, successors)
            + 8
            + 2 * size_of::<RawNode>();
        assert_eq!(hot_start, 32);
        assert!(hot_end <= 128, "hot span ends at byte {hot_end}");
    }

    // The closure storage is the node's: growing it grows every node
    // (EXPERIMENTS.md, "One-shot graph cost").
    #[cfg(not(feature = "rustflow_check"))]
    #[test]
    fn work_is_three_words_and_node_160_bytes() {
        assert_eq!(size_of::<Work>(), 24);
        assert_eq!(size_of::<Node>(), 160);
    }

    #[test]
    fn backoff_doubles_up_to_the_cap_and_saturates() {
        use std::time::Duration;
        assert_eq!(RetryPolicy::none().backoff(3), Duration::ZERO);
        let policy = RetryPolicy::new(5, Duration::from_millis(2));
        assert_eq!(policy.backoff(1), Duration::from_millis(2));
        assert_eq!(policy.backoff(3), Duration::from_millis(8));
        assert_eq!(policy.backoff(9), RetryPolicy::MAX_BACKOFF);
        // A base too large for the stored word is above the cap anyway.
        let huge = RetryPolicy::new(1, Duration::from_secs(3600));
        assert_eq!(huge.backoff(1), RetryPolicy::MAX_BACKOFF);
    }

    #[test]
    fn total_nodes_counts_subgraphs() {
        let mut g = Graph::new();
        let a = g.emplace(Work::empty());
        g.emplace(Work::empty());
        unsafe {
            let sub = (*a).state.subgraph.get_mut();
            sub.emplace(Work::empty());
            sub.emplace(Work::empty());
            assert_eq!(g.total_nodes(), 4);
        }
    }

    #[test]
    fn rearm_resets_runtime_state_and_clears_subgraph() {
        let mut g = Graph::new();
        let a = g.emplace(Work::empty());
        unsafe {
            *(*a).structure.in_degree.get_mut() = 3;
            (*a).state.join_counter.store(0, Ordering::Relaxed);
            (*a).state.nested.store(7, Ordering::Relaxed);
            (*a).state.subgraph.get_mut().emplace(Work::empty());
            (*a).rearm(std::ptr::null(), std::ptr::null_mut());
            assert_eq!((*a).state.join_counter.load(Ordering::Relaxed), 3);
            assert_eq!((*a).state.nested.load(Ordering::Relaxed), 0);
            assert!((*a).state.subgraph.get().is_empty());
        }
    }

    #[test]
    fn undispatched_graph_drops_each_closure_once() {
        fn check<const PAD: usize>() {
            let drops = Arc::new(Counter::new(0));
            let mut g = Graph::new();
            // Three chunks' worth, the last one partly filled.
            for _ in 0..FIRST_CHUNK * 3 + 1 {
                g.emplace(counted::<PAD>(&drops));
            }
            assert_eq!(drops.load(Ordering::Relaxed), 0);
            drop(g);
            assert_eq!(drops.load(Ordering::Relaxed), FIRST_CHUNK * 3 + 1);
        }
        check::<0>();
        check::<2>();
    }

    #[test]
    fn rearmed_and_retried_subgraphs_drop_each_closure_once() {
        fn check<const PAD: usize>() {
            let drops = Arc::new(Counter::new(0));
            let children = FIRST_CHUNK + 2;
            let mut g = Graph::new();
            let parent = g.emplace(counted::<PAD>(&drops));
            let spawn = |drops: &Arc<Counter>| {
                for _ in 0..children {
                    // SAFETY: single-threaded test; `parent` is live.
                    unsafe {
                        (*parent)
                            .state
                            .subgraph
                            .get_mut()
                            .emplace(counted::<PAD>(drops))
                    };
                }
            };
            spawn(&drops);
            // SAFETY: single-threaded test, exclusive access to `parent`.
            unsafe { (*parent).rearm(std::ptr::null(), std::ptr::null_mut()) };
            assert_eq!(drops.load(Ordering::Relaxed), children);
            spawn(&drops);
            // SAFETY: as above.
            unsafe { (*parent).clear_subflow() };
            assert_eq!(drops.load(Ordering::Relaxed), 2 * children);
            spawn(&drops);
            drop(g);
            assert_eq!(drops.load(Ordering::Relaxed), 3 * children + 1);
        }
        check::<0>();
        check::<2>();
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns a worker pool; too slow under miri")]
    fn dispatched_graph_drops_each_closure_once() {
        fn check<const PAD: usize>() {
            let drops = Arc::new(Counter::new(0));
            let runs = Arc::new(Counter::new(0));
            let tf = crate::Taskflow::with_executor(crate::Executor::new(1));
            let statics = 2 * FIRST_CHUNK + 1;
            for _ in 0..statics {
                let guard = new_guard::<PAD>(&drops);
                let runs = Arc::clone(&runs);
                tf.emplace(move || {
                    let _keep = &guard;
                    runs.fetch_add(1, Ordering::Relaxed);
                });
            }
            // A dynamic task whose children are re-spawned (and the
            // previous iteration's dropped) on every execution.
            let child_drops = Arc::clone(&drops);
            tf.emplace_subflow(move |sf| {
                for _ in 0..3 {
                    let guard = new_guard::<PAD>(&child_drops);
                    sf.emplace(move || {
                        let _keep = &guard;
                    });
                }
            });
            let iterations = 3;
            tf.run_n(iterations as u64).get().expect("run failed");
            assert_eq!(runs.load(Ordering::Relaxed), statics * iterations);
            // The last iteration's children are still owned by the topology.
            assert_eq!(drops.load(Ordering::Relaxed), 3 * (iterations - 1));
            drop(tf);
            assert_eq!(drops.load(Ordering::Relaxed), 3 * iterations + statics);
        }
        check::<0>();
        check::<2>();
    }

    #[test]
    fn replacing_a_closure_drops_the_old_one_once() {
        fn check<const PAD: usize>() {
            let drops = Arc::new(Counter::new(0));
            let dropped = || drops.load(Ordering::Relaxed);
            let tf = crate::Taskflow::new();
            let guard = new_guard::<PAD>(&drops);
            let task = tf.emplace(move || {
                let _keep = &guard;
            });
            let guard = new_guard::<PAD>(&drops);
            task.work_subflow(move |_| {
                let _keep = &guard;
            });
            assert_eq!(dropped(), 1);
            let guard = new_guard::<PAD>(&drops);
            task.work(move || {
                let _keep = &guard;
            });
            assert_eq!(dropped(), 2);
            drop(tf);
            assert_eq!(dropped(), 3);
        }
        check::<0>();
        check::<2>();
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns a worker pool; too slow under miri")]
    fn a_panicking_inline_closure_is_retried_then_dropped_once() {
        let drops = Arc::new(Counter::new(0));
        let attempts = Arc::new(Counter::new(0));
        let tf = crate::Taskflow::with_executor(crate::Executor::new(1));
        let guard = DropCounter(Arc::clone(&drops));
        let tries = Arc::clone(&attempts);
        let body = move || {
            let _keep = &guard;
            tries.fetch_add(1, Ordering::Relaxed);
            panic!("always fails");
        };
        assert!(fits_inline_as(&body));
        tf.emplace(body).retry(2);
        assert!(tf.run().get().is_err());
        assert_eq!(attempts.load(Ordering::Relaxed), 3);
        assert_eq!(drops.load(Ordering::Relaxed), 0);
        drop(tf);
        assert_eq!(drops.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn work_debug_names() {
        assert_eq!(format!("{:?}", Work::empty()), "Empty");
        assert_eq!(format!("{:?}", Work::new_static(|| {})), "Static");
        assert_eq!(format!("{:?}", Work::new_dynamic(|_| {})), "Dynamic");
    }
}
