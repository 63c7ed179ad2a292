//! Reusable execution sessions and the frontier-driven round loop.
//!
//! The alternating drivers of the paper run the same black box dozens of times with doubling
//! budgets; allocating programs, RNG streams, inboxes, and bookkeeping arrays from scratch for
//! every attempt dominates the cost of short attempts. A [`Session`] owns that per-node state
//! and is reset — not reallocated — between attempts; callers (the transformers, the engine's
//! worker threads) keep one session alive across a whole alternation run or grid shard.
//!
//! The round loop itself is frontier-driven: it iterates an *active worklist* of non-halted
//! nodes (in the synchronous LOCAL model every non-halted node takes a step each round, so the
//! frontier is exactly the non-halted set) and touches only the inboxes that actually received
//! messages, instead of scanning all `n` nodes and `n` inboxes per round. Iteration order is
//! ascending node index — identical to the dense scan — so executions are byte-identical to
//! the classic [`crate::runner::run`] loop.

use crate::graph::{Graph, NodeId};
use crate::program::{Action, Incoming, NodeInit, NodeProgram, ProgramSpec, RoundCtx};

use crate::runner::{Execution, RunConfig};
use crate::trace::{ExecutionTrace, RoundTrace};
use crate::view::GraphView;
use rand_chacha::ChaCha8Rng;
use std::any::{Any, TypeId};
use std::collections::HashMap;

/// Read access to a communication topology, as needed by the round loop.
///
/// The loop addresses nodes two ways: by dense *node index* (`0..node_count()`, what the
/// caller's input/output vectors use) and by *slot* — the index space message buffers live in.
/// For a [`Graph`] the two coincide; for a [`GraphView`] the slot is the node's base index,
/// which makes every adjacency access a flat segment read (no per-message translation back to
/// live indices). The loop is monomorphized per topology, so full-graph runs pay no view
/// overhead.
pub trait Topology {
    /// Number of (live) nodes.
    fn node_count(&self) -> usize;
    /// The slot of node `v` (identity for graphs, base index for views).
    fn slot(&self, v: usize) -> usize;
    /// The node index of the node in slot `s` (inverse of [`Topology::slot`]).
    fn slot_node(&self, s: usize) -> usize;
    /// Identity of node `v`.
    fn id(&self, v: usize) -> NodeId;
    /// Identity of the node in slot `s`.
    fn slot_id(&self, s: usize) -> NodeId;
    /// Degree of the node in slot `s`.
    fn slot_degree(&self, s: usize) -> usize;
    /// The slot of the `port`-th neighbor of the node in slot `s`.
    fn slot_neighbor(&self, s: usize, port: usize) -> usize;
    /// The port at which slot `s` appears in the neighbor list of its `port`-th neighbor.
    fn slot_reverse_port(&self, s: usize, port: usize) -> usize;
    /// A token identifying the topology's *content*, if it has one: equal tokens guarantee a
    /// structurally identical topology (same nodes, identities, ports). The session keys its
    /// frozen [`NodeInit`] slab on this, so repeated runs over an unchanged [`GraphView`]
    /// (whose epoch this is) skip the per-node init construction entirely. `None` means
    /// "uncacheable — rebuild the slab every run" (plain graphs carry no epoch).
    fn content_epoch(&self) -> Option<u64>;
}

impl Topology for Graph {
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }
    fn slot(&self, v: usize) -> usize {
        v
    }
    fn slot_node(&self, s: usize) -> usize {
        s
    }
    fn id(&self, v: usize) -> NodeId {
        Graph::id(self, v)
    }
    fn slot_id(&self, s: usize) -> NodeId {
        Graph::id(self, s)
    }
    fn slot_degree(&self, s: usize) -> usize {
        Graph::degree(self, s)
    }
    fn slot_neighbor(&self, s: usize, port: usize) -> usize {
        Graph::neighbor(self, s, port)
    }
    fn slot_reverse_port(&self, s: usize, port: usize) -> usize {
        Graph::reverse_port(self, s, port)
    }
    fn content_epoch(&self) -> Option<u64> {
        None
    }
}

impl Topology for GraphView<'_> {
    fn node_count(&self) -> usize {
        GraphView::node_count(self)
    }
    fn slot(&self, v: usize) -> usize {
        self.base_index(v)
    }
    fn slot_node(&self, s: usize) -> usize {
        self.live_index_of(s)
    }
    fn id(&self, v: usize) -> NodeId {
        GraphView::id(self, v)
    }
    fn slot_id(&self, s: usize) -> NodeId {
        self.base().id(s)
    }
    fn slot_degree(&self, s: usize) -> usize {
        GraphView::slot_degree(self, s)
    }
    fn slot_neighbor(&self, s: usize, port: usize) -> usize {
        GraphView::slot_neighbor(self, s, port)
    }
    fn slot_reverse_port(&self, s: usize, port: usize) -> usize {
        GraphView::slot_reverse_port(self, s, port)
    }
    fn content_epoch(&self) -> Option<u64> {
        Some(self.epoch())
    }
}

/// Frozen per-node init data of one topology content: identities, degrees, one flat arena
/// of neighbor identities, and the precomputed message-routing table
/// (`offsets[v]..offsets[v + 1]` is node `v`'s port-ordered *dense arc* segment). Built once
/// per `(session, content epoch)`; repeated attempts on an unchanged [`GraphView`] hand out
/// `NodeInit`s that *borrow* these slabs instead of allocating one `neighbor_ids` vector per
/// node per attempt, and the round loop routes every message through `arrival_arc` without
/// touching the topology at all.
#[derive(Debug, Default)]
struct InitSlab {
    /// The content epoch the slab was built from; `None` marks an epoch-less build that is
    /// never reused (see [`Topology::content_epoch`]).
    key: Option<u64>,
    ids: Vec<NodeId>,
    /// Dense arc offsets: node `v`'s ports occupy arcs `offsets[v]..offsets[v + 1]`; the
    /// degree is the segment width, so no separate degree array is kept. Stored as `u32`
    /// (rebuild asserts the arc count fits), halving the slab's routing footprint.
    offsets: Vec<u32>,
    neighbor_ids: Vec<NodeId>,
    /// Per arc `offsets[v] + p`: the arc cell a message sent by `v` on port `p` lands in
    /// (the receiver's segment base plus the arrival port) — message routing becomes one
    /// contiguous read and one indexed write.
    arrival_arc: Vec<u32>,
}

impl InitSlab {
    /// Refills the slab from `topo`, reusing the buffers' capacity.
    fn rebuild<T: Topology>(&mut self, topo: &T) {
        self.key = topo.content_epoch();
        self.ids.clear();
        self.offsets.clear();
        self.neighbor_ids.clear();
        self.offsets.push(0);
        for v in 0..topo.node_count() {
            let s = topo.slot(v);
            let degree = topo.slot_degree(s);
            self.ids.push(topo.id(v));
            for port in 0..degree {
                self.neighbor_ids.push(topo.slot_id(topo.slot_neighbor(s, port)));
            }
            let arcs = u32::try_from(self.neighbor_ids.len())
                .expect("arc count exceeds the u32 arena limit");
            self.offsets.push(arcs);
        }
        // Second pass (offsets are complete now): freeze the routing table.
        self.arrival_arc.clear();
        for v in 0..topo.node_count() {
            let s = topo.slot(v);
            for port in 0..self.degree(v) {
                let w = topo.slot_node(topo.slot_neighbor(s, port));
                self.arrival_arc.push(self.offsets[w] + topo.slot_reverse_port(s, port) as u32);
            }
        }
    }

    /// Total number of (live) arcs — the message arenas' length.
    fn arc_count(&self) -> usize {
        *self.offsets.last().unwrap_or(&0) as usize
    }

    /// Degree of node `v` (its dense-arc segment width).
    fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Port-ordered neighbor identities of node `v`.
    fn neighbors(&self, v: usize) -> &[NodeId] {
        &self.neighbor_ids[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// The flat, tick-stamped message arena for one message type, pooled across runs by
/// [`Session`].
///
/// One cell per *arc* of the (base) graph, split structure-of-arrays into a stamp plane and
/// a payload plane: a message sent to slot `w`'s port `p` in round `r` writes `tick(r)` and
/// the payload into cell `arc_base(w) + p` of the round's write arena; the receiver reads
/// its contiguous cell segment in round `r + 1` and accepts exactly the cells stamped
/// `tick(r)` (a dense `u64` scan). Two arenas alternate by round parity so a same-round
/// send can never overwrite a message the receiver has not read yet (each arc has one
/// sender, so a cell is rewritten at the earliest two rounds after it was written —
/// strictly after its read round). Ticks grow monotonically across rounds *and runs* (with
/// a gap between runs), so stale cells never match and nothing is ever cleared or swapped —
/// the per-message cost drops to one indexed write, and the per-round bookkeeping of the
/// previous inbox design (touched lists, buffer swaps, clears) disappears entirely.
struct MsgBuffers<M> {
    /// Tick stamp per arc, one arena per round parity; `stamp == 0` marks a never-written
    /// cell (ticks start at 1). Kept separate from the payloads so the per-node inbox scan
    /// is a dense `u64` pass instead of a strided walk over `(u64, Option<M>)` pairs.
    stamps: [Vec<u64>; 2],
    /// Message payload per arc, parallel to `stamps`.
    payloads: [Vec<Option<M>>; 2],
    /// The inbox staging buffer served to the running node (port-ascending).
    inbox: Vec<Incoming<M>>,
    /// The outbox staging buffer handed to the running node.
    outbox: Vec<(usize, M)>,
}

impl<M> MsgBuffers<M> {
    fn new() -> Self {
        MsgBuffers {
            stamps: [Vec::new(), Vec::new()],
            payloads: [Vec::new(), Vec::new()],
            inbox: Vec::new(),
            outbox: Vec::new(),
        }
    }

    /// Grows the arenas to `arcs` cells (never shrinks — capacities stay warm) and clears the
    /// staging buffers. Stale cells need no reset: their stamps can never match a fresh tick.
    fn reset(&mut self, arcs: usize) {
        for arena in &mut self.stamps {
            if arena.len() < arcs {
                arena.resize(arcs, 0);
            }
        }
        for arena in &mut self.payloads {
            if arena.len() < arcs {
                arena.resize_with(arcs, || None);
            }
        }
        self.inbox.clear();
        self.outbox.clear();
    }
}

/// Reusable per-node execution state: RNG streams, halt/termination bookkeeping, the active
/// worklist, typed message/program/output buffer pools, and the epoch-keyed [`NodeInit`]
/// slab.
///
/// A session is cheap to create but pays off when reused: every buffer is reset in place
/// between runs, so consecutive attempts of an alternation (or consecutive cells of a sweep
/// shard) allocate almost nothing. On an *unchanged* [`GraphView`] (same content epoch) a
/// run through [`run_view`] is fully allocation-free at the runtime level, provided the
/// caller hands finished [`Execution`]s back through [`Session::recycle_execution`] (the
/// alternating drivers of `local-uniform` do).
#[derive(Default)]
pub struct Session {
    /// Per-node lazily-drawn RNG slots, stamped with the tick base of the run that filled
    /// them (see [`RoundCtx::rng`]); a stale stamp means "not drawn this run", so nothing
    /// is cleared between runs and deterministic programs never pay a stream derivation.
    rngs: Vec<Option<(u64, ChaCha8Rng)>>,
    halted: Vec<bool>,
    termination: Vec<u64>,
    active: Vec<usize>,
    /// Monotone round-tick source shared by every run of this session; the message arenas'
    /// stamps are drawn from it, which is what lets stale cells persist unswept.
    next_tick: u64,
    /// Message arena + staging buffers per message type (boxed once, reused forever).
    msg_pool: HashMap<TypeId, Box<dyn Any>>,
    /// Spare `Vec<S::Prog>` stacks per program type.
    program_pool: HashMap<TypeId, Box<dyn Any>>,
    /// Spare `Vec<S::Output>` stacks per output type, refilled by the recycle methods.
    output_pool: HashMap<TypeId, Box<dyn Any>>,
    /// Spare buffers for the per-run termination / halted result vectors.
    spare_termination: Option<Vec<u64>>,
    spare_halted: Option<Vec<bool>>,
    /// The frozen init slab (ids, degrees, flat neighbor-identity arena), keyed by the
    /// topology's content epoch.
    slab: InitSlab,
    /// Materialized-subgraph cache for composite algorithms without a view-native path,
    /// keyed by the view's content epoch (equal epoch ⇒ structurally identical view).
    materialized: Option<(u64, Graph)>,
}

impl Session {
    /// A fresh session with empty buffers.
    pub fn new() -> Self {
        Session::default()
    }

    /// The materialization of `view`, cached by content epoch: repeated attempts on an
    /// unchanged configuration (the common case between prunings) copy the subgraph once, not
    /// once per attempt. Used by the default [`crate::algorithm::GraphAlgorithm::execute_view`].
    pub fn materialized_graph(&mut self, view: &GraphView<'_>) -> &Graph {
        let epoch = view.epoch();
        if self.materialized.as_ref().is_none_or(|&(cached, _)| cached != epoch) {
            let (graph, _back) = view.materialize();
            self.materialized = Some((epoch, graph));
        }
        &self.materialized.as_ref().expect("cache filled above").1
    }

    /// The content epoch the cached init slab was built from, if any — a diagnostics hook
    /// for tests asserting that [`GraphView::retain`] invalidates the cache.
    pub fn cached_init_epoch(&self) -> Option<u64> {
        self.slab.key
    }

    /// Returns a finished execution's buffers (outputs, termination, halted) to the
    /// session's pools so the next run of the same output type allocates nothing.
    ///
    /// Purely an optimization — executions that are kept alive (or dropped) instead are
    /// merely re-allocated on the next run.
    pub fn recycle_execution<O: Send + 'static>(&mut self, exec: Execution<O>) {
        let Execution { outputs, termination, halted, .. } = exec;
        self.recycle_outputs(outputs);
        self.recycle_flags(termination, halted);
    }

    /// Returns an output vector (e.g. [`crate::algorithm::AlgoRun::outputs`]) to the
    /// session's per-type pool; see [`Session::recycle_execution`].
    pub fn recycle_outputs<O: Send + 'static>(&mut self, mut outputs: Vec<O>) {
        outputs.clear();
        let stack = self
            .output_pool
            .entry(TypeId::of::<Vec<O>>())
            .or_insert_with(|| Box::new(Vec::<Vec<O>>::new()));
        if let Some(stack) = stack.downcast_mut::<Vec<Vec<O>>>() {
            stack.push(outputs);
        }
    }

    /// Returns a run's termination/halted vectors to the spare slots; see
    /// [`Session::recycle_execution`].
    pub fn recycle_flags(&mut self, termination: Vec<u64>, halted: Vec<bool>) {
        self.spare_termination = Some(termination);
        self.spare_halted = Some(halted);
    }

    fn take_output_buf<O: Send + 'static>(&mut self) -> Vec<O> {
        self.output_pool
            .get_mut(&TypeId::of::<Vec<O>>())
            .and_then(|b| b.downcast_mut::<Vec<Vec<O>>>())
            .and_then(Vec::pop)
            .unwrap_or_default()
    }

    fn take_program_buf<P: 'static>(&mut self) -> Vec<P> {
        self.program_pool
            .get_mut(&TypeId::of::<Vec<P>>())
            .and_then(|b| b.downcast_mut::<Vec<Vec<P>>>())
            .and_then(Vec::pop)
            .unwrap_or_default()
    }

    fn put_program_buf<P: 'static>(&mut self, mut buf: Vec<P>) {
        buf.clear();
        let stack = self
            .program_pool
            .entry(TypeId::of::<Vec<P>>())
            .or_insert_with(|| Box::new(Vec::<Vec<P>>::new()));
        if let Some(stack) = stack.downcast_mut::<Vec<Vec<P>>>() {
            stack.push(buf);
        }
    }

    fn take_msgs<M: 'static>(&mut self, n: usize) -> Box<MsgBuffers<M>> {
        let mut buffers = self
            .msg_pool
            .remove(&TypeId::of::<M>())
            .and_then(|b| b.downcast::<MsgBuffers<M>>().ok())
            .unwrap_or_else(|| Box::new(MsgBuffers::new()));
        buffers.reset(n);
        buffers
    }

    fn put_msgs<M: 'static>(&mut self, buffers: Box<MsgBuffers<M>>) {
        self.msg_pool.insert(TypeId::of::<M>(), buffers);
    }
}

/// Runs `spec` over `view` with the session's reusable buffers.
///
/// For the same alive set, seed, and spec this is byte-identical to materializing the view
/// with [`GraphView::materialize`] and calling [`crate::runner::run`] on the result: node
/// indexing, port numbering, message order, and the identity-derived RNG streams all agree.
///
/// # Panics
///
/// Panics if `inputs.len() != view.node_count()`.
pub fn run_view<S: ProgramSpec>(
    view: &GraphView<'_>,
    inputs: &[S::Input],
    spec: &S,
    cfg: &RunConfig,
    session: &mut Session,
) -> Execution<S::Output> {
    run_core(view, inputs, spec, cfg, session)
}

/// The shared round loop; monomorphized over the topology (graph or view).
pub(crate) fn run_core<T: Topology, S: ProgramSpec>(
    topo: &T,
    inputs: &[S::Input],
    spec: &S,
    cfg: &RunConfig,
    session: &mut Session,
) -> Execution<S::Output> {
    let n = topo.node_count();
    assert_eq!(inputs.len(), n, "one input per node is required");

    // Freeze (or reuse) the init slab: on an unchanged view the epoch matches and nothing is
    // rebuilt; otherwise the slab's buffers are refilled in place.
    let mut slab = std::mem::take(&mut session.slab);
    if slab.key.is_none() || slab.key != topo.content_epoch() {
        slab.rebuild(topo);
    }

    // Pooled per-type buffers. Outputs are prefilled with the spec's forced default (the
    // paper's arbitrary output for cut-off nodes) and overwritten when a node halts by
    // itself — same values as deciding after the run, without the `Option` layer.
    let mut programs: Vec<S::Prog> = session.take_program_buf();
    let mut outputs: Vec<S::Output> = session.take_output_buf();
    for (v, input) in inputs.iter().enumerate() {
        let init = NodeInit {
            index: v,
            id: slab.ids[v],
            degree: slab.degree(v),
            neighbor_ids: slab.neighbors(v),
            input,
        };
        outputs.push(spec.default_output(&init));
        programs.push(spec.build(&init));
    }

    if session.rngs.len() < n {
        session.rngs.resize_with(n, || None);
    }
    session.halted.clear();
    session.halted.resize(n, false);
    session.termination.clear();
    session.termination.resize(n, 0);
    session.active.clear();
    session.active.extend(0..n);
    // Tick base of this run, with a gap of one so round 0 (which accepts `tick_base - 1`)
    // can never match a stamp written by the previous run.
    let tick_base = session.next_tick.wrapping_add(1);
    let mut msgs = session.take_msgs::<S::Msg>(slab.arc_count());
    let mut outbox: Vec<(usize, S::Msg)> = std::mem::take(&mut msgs.outbox);
    let mut inbox: Vec<Incoming<S::Msg>> = std::mem::take(&mut msgs.inbox);
    let mut bcast: Option<S::Msg>;

    let mut messages: u64 = 0;
    let mut trace = cfg.record_trace.then(ExecutionTrace::default);

    // Observability (one relaxed load; everything below is skipped when disabled). The
    // per-round calls are allocation-free: counters are atomics, the value event lands in
    // a preallocated fixed-capacity buffer.
    let obs_on = local_obs::is_enabled();
    if obs_on {
        local_obs::gauge_max(local_obs::metrics::ARENA_ARCS, slab.arc_count() as u64);
    }

    let limit = cfg.max_rounds.unwrap_or(cfg.hard_cap).min(cfg.hard_cap);
    let mut rounds_executed = 0u64;
    let mut active_count = n;

    let mut round: u64 = 0;
    while active_count > 0 && round < limit {
        let send_tick = tick_base + round;
        let read_tick = send_tick - 1;
        // Split the parity arenas into this round's read half (shared, scanned lazily by
        // the contexts) and write half (delivery target) — disjoint borrows, no swap.
        let [stamps_even, stamps_odd] = &mut msgs.stamps;
        let [payloads_even, payloads_odd] = &mut msgs.payloads;
        let (read_stamps, read_payloads, send_stamps, send_payloads) =
            if read_tick.is_multiple_of(2) {
                (&*stamps_even, &*payloads_even, stamps_odd, payloads_odd)
            } else {
                (&*stamps_odd, &*payloads_odd, stamps_even, payloads_even)
            };
        let mut delivered_this_round = 0u64;
        let mut any_halt = false;
        for idx in 0..session.active.len() {
            let v = session.active[idx];
            let base = slab.offsets[v] as usize;
            let degree = slab.degree(v);
            outbox.clear();
            bcast = None;
            // The inbox is staged lazily: the context gets the node's raw dense-arc
            // segment and materializes the port-ascending inbox only if the program asks.
            let mut staged = false;
            let action = {
                let mut ctx = RoundCtx {
                    round,
                    degree,
                    neighbor_ids: slab.neighbors(v),
                    inbox: &mut inbox,
                    staged: &mut staged,
                    stamps: &read_stamps[base..base + degree],
                    payloads: &read_payloads[base..base + degree],
                    read_tick,
                    outbox: &mut outbox,
                    broadcast: &mut bcast,
                    rng_slot: &mut session.rngs[v],
                    rng_key: (tick_base, cfg.seed, slab.ids[v]),
                };
                programs[v].round(&mut ctx)
            };
            // Deliver: `arrival_arc` holds the receiving cell of each port, so a message is
            // one contiguous read plus two indexed writes — no topology access.
            if let Some(msg) = bcast.take() {
                for &arc in &slab.arrival_arc[base..base + degree] {
                    send_stamps[arc as usize] = send_tick;
                    send_payloads[arc as usize] = Some(msg.clone());
                }
                delivered_this_round += degree as u64;
            }
            for (port, msg) in outbox.drain(..) {
                let arc = slab.arrival_arc[base + port] as usize;
                send_stamps[arc] = send_tick;
                send_payloads[arc] = Some(msg);
                delivered_this_round += 1;
            }
            if let Action::Halt(out) = action {
                outputs[v] = out;
                // Halting during round r means the node used r communication rounds.
                session.termination[v] = round;
                session.halted[v] = true;
                active_count -= 1;
                any_halt = true;
            }
        }
        messages += delivered_this_round;
        if any_halt {
            session.active.retain(|&v| !session.halted[v]);
        }
        round += 1;
        rounds_executed = round;
        if obs_on {
            local_obs::counter_add(local_obs::metrics::ROUNDS, 1);
            local_obs::counter_add(local_obs::metrics::MESSAGES_SENT, delivered_this_round);
            local_obs::record(
                local_obs::metrics::ACTIVE_NODES,
                local_obs::LabelId::NONE,
                active_count as u64,
            );
        }
        if let Some(t) = trace.as_mut() {
            t.rounds.push(RoundTrace {
                round: round - 1,
                active_nodes: active_count,
                messages: delivered_this_round,
            });
        }
    }
    session.put_program_buf(programs);

    let completed = active_count == 0;
    // Nodes that never halted keep their prefilled default output and are charged the full
    // execution length.
    let cut_off_at = rounds_executed;
    let mut termination = session.spare_termination.take().unwrap_or_default();
    termination.clear();
    termination.extend(session.termination.iter().zip(session.halted.iter()).map(|(&t, &h)| {
        if h {
            t
        } else {
            cut_off_at
        }
    }));
    let mut halted = session.spare_halted.take().unwrap_or_default();
    halted.clear();
    halted.extend_from_slice(&session.halted);
    let rounds = termination.iter().copied().max().unwrap_or(0);

    session.next_tick = tick_base + rounds_executed;
    msgs.outbox = outbox;
    msgs.inbox = inbox;
    session.put_msgs(msgs);
    session.slab = slab;

    Execution { outputs, rounds, termination, halted, messages, completed, trace }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run;

    /// Gossip spec: flood identities, output the max seen after `radius` rounds.
    struct MaxIdSpec {
        radius: u64,
    }
    struct MaxIdProg {
        radius: u64,
        best: u64,
    }
    impl NodeProgram for MaxIdProg {
        type Msg = u64;
        type Output = u64;
        fn round(&mut self, ctx: &mut RoundCtx<'_, u64>) -> Action<u64> {
            for m in ctx.inbox() {
                self.best = self.best.max(m.msg);
            }
            if ctx.round() == self.radius {
                return Action::Halt(self.best);
            }
            ctx.broadcast(self.best);
            Action::Continue
        }
    }
    impl ProgramSpec for MaxIdSpec {
        type Input = ();
        type Msg = u64;
        type Output = u64;
        type Prog = MaxIdProg;
        fn build(&self, init: &NodeInit<()>) -> MaxIdProg {
            MaxIdProg { radius: self.radius, best: init.id }
        }
        fn default_output(&self, _init: &NodeInit<()>) -> u64 {
            0
        }
    }

    fn path(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn view_run_matches_graph_run_on_full_view() {
        let g = path(8);
        let cfg = RunConfig::seeded(3).with_trace();
        let reference = run(&g, &[(); 8], &MaxIdSpec { radius: 3 }, &cfg);
        let view = GraphView::full(&g);
        let mut session = Session::new();
        let via_view = run_view(&view, &[(); 8], &MaxIdSpec { radius: 3 }, &cfg, &mut session);
        assert_eq!(via_view.outputs, reference.outputs);
        assert_eq!(via_view.rounds, reference.rounds);
        assert_eq!(via_view.messages, reference.messages);
        assert_eq!(via_view.termination, reference.termination);
        assert_eq!(via_view.trace.unwrap().rounds.len(), reference.trace.unwrap().rounds.len());
    }

    #[test]
    fn view_run_matches_materialized_subgraph_run() {
        let g = path(10);
        let keep: Vec<bool> = (0..10).map(|v| v != 3 && v != 7).collect();
        let (sub, _back) = g.induced_subgraph(&keep);
        let cfg = RunConfig::seeded(11);
        let reference = run(&sub, &vec![(); sub.node_count()], &MaxIdSpec { radius: 4 }, &cfg);
        let view = GraphView::with_mask(&g, &keep);
        let mut session = Session::new();
        let via_view = run_view(
            &view,
            &vec![(); view.node_count()],
            &MaxIdSpec { radius: 4 },
            &cfg,
            &mut session,
        );
        assert_eq!(via_view.outputs, reference.outputs);
        assert_eq!(via_view.rounds, reference.rounds);
        assert_eq!(via_view.messages, reference.messages);
    }

    #[test]
    fn session_reuse_across_runs_is_clean() {
        let g = path(6);
        let view = GraphView::full(&g);
        let mut session = Session::new();
        let cfg = RunConfig::seeded(0);
        let first = run_view(&view, &[(); 6], &MaxIdSpec { radius: 2 }, &cfg, &mut session);
        let second = run_view(&view, &[(); 6], &MaxIdSpec { radius: 2 }, &cfg, &mut session);
        assert_eq!(first.outputs, second.outputs);
        assert_eq!(first.messages, second.messages);
        // A run over a shrunken view after a big one must not see stale state.
        let mut small = GraphView::full(&g);
        small.retain(&[true, true, true, false, false, false]);
        let shrunk = run_view(&small, &[(); 3], &MaxIdSpec { radius: 2 }, &cfg, &mut session);
        assert_eq!(shrunk.outputs.len(), 3);
        assert_eq!(shrunk.outputs, vec![2, 2, 2]);
    }
}
