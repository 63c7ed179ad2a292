//! Per-node automata: the programming interface for LOCAL-model algorithms.
//!
//! A LOCAL algorithm is described by a [`ProgramSpec`], a factory that, given the local
//! knowledge a node starts with ([`NodeInit`]), builds the node's automaton (a
//! [`NodeProgram`]). The runtime ([`crate::runner`]) drives all automata in lock-step
//! synchronous rounds, delivering every message sent in round `r` before round `r + 1`
//! (fault-free synchronous LOCAL model, unrestricted message size and local computation).
//!
//! Nodes signal termination by returning [`Action::Halt`] with their final output; the
//! paper's "restricted to `i` rounds" operation is realised by the runtime's round budget,
//! which forces undecided nodes to the spec's [`ProgramSpec::default_output`].

use crate::graph::{NodeId, NodeIndex};
use rand_chacha::ChaCha8Rng;

/// The knowledge available to a node *before* any communication.
///
/// This is deliberately minimal: node identity, degree, per-port neighbor identities (which a
/// node could learn in a single round anyway and which essentially every LOCAL algorithm
/// assumes), the node's problem input, and a private random stream. Uniform algorithms must
/// not receive any global parameter here; non-uniform algorithms receive their guesses through
/// their spec's constructor, mirroring the paper's "the code of `A` uses a value `p̃`".
///
/// All reference fields borrow from the runtime's per-session init slab (one flat arena of
/// neighbor identities for the whole graph, cached across attempts on an unchanged
/// configuration — see `crate::session`), so constructing the `n` inits of an execution
/// allocates nothing. Programs that need neighbor identities *during* rounds should prefer
/// [`RoundCtx::neighbor_ids`] over copying the slice out of the init.
#[derive(Debug, Clone)]
pub struct NodeInit<'a, I> {
    /// Index of the node in the executed graph (dense, `0..n`). This is a runtime handle,
    /// not knowledge available to the algorithm; programs should use [`NodeInit::id`] for
    /// symmetry breaking.
    pub index: NodeIndex,
    /// The unique identity `Id(v)`.
    pub id: NodeId,
    /// Degree of the node in the executed graph.
    pub degree: usize,
    /// Identity of the neighbor reachable through each port (`neighbor_ids[p]` is the
    /// identity of the node at the other end of port `p`).
    pub neighbor_ids: &'a [NodeId],
    /// Problem input `x(v)`.
    pub input: &'a I,
}

/// What a node decides to do at the end of a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<O> {
    /// Keep running: the node participates in the next round.
    Continue,
    /// Terminate with the given final output. The node sends no further messages and its
    /// `round` method is never called again.
    Halt(O),
}

/// A single node's automaton.
pub trait NodeProgram {
    /// Message type exchanged with neighbors. The LOCAL model does not restrict message size.
    type Msg: Clone;
    /// Final output type `y(v)`.
    type Output: Clone;

    /// Executes one synchronous round.
    ///
    /// On the first invocation (round 0) the inbox is empty; afterwards the inbox contains
    /// exactly the messages sent to this node in the previous round. Messages queued through
    /// [`RoundCtx::send`]/[`RoundCtx::broadcast`] are delivered to neighbors before their next
    /// round.
    fn round(&mut self, ctx: &mut RoundCtx<'_, Self::Msg>) -> Action<Self::Output>;
}

/// Factory producing one [`NodeProgram`] per node, plus the forced output used when the
/// runtime cuts the execution short (the paper's *algorithm restricted to `i` rounds*).
///
/// Specs are `Send + Sync` and their inputs/outputs are `Send` so that batch schedulers can
/// run many executions of the same spec concurrently across experiment cells. The `'static`
/// bounds let a reusable [`crate::session::Session`] pool typed message buffers across runs.
pub trait ProgramSpec: Send + Sync {
    /// Problem input type `x(v)` handed to every node.
    type Input: Clone + Send + Sync + 'static;
    /// Message type of the node programs.
    type Msg: Clone + Send + 'static;
    /// Output type of the node programs.
    type Output: Clone + Send + 'static;
    /// The node automaton type (`'static` so the session can pool program buffers by type).
    type Prog: NodeProgram<Msg = Self::Msg, Output = Self::Output> + 'static;

    /// Builds the automaton for one node from its initial knowledge.
    fn build(&self, init: &NodeInit<Self::Input>) -> Self::Prog;

    /// Output assigned to a node that did not halt before the round budget expired.
    ///
    /// The paper lets this be arbitrary ("e.g. 0"); correctness of alternating algorithms never
    /// relies on it because the pruning algorithm filters invalid outputs.
    fn default_output(&self, init: &NodeInit<Self::Input>) -> Self::Output;
}

/// A message delivered to a node, tagged with the port it arrived on.
#[derive(Debug, Clone)]
pub struct Incoming<M> {
    /// Port of the *receiving* node on which the message arrived.
    pub port: usize,
    /// The payload.
    pub msg: M,
}

/// The per-round view a node has of the world: its inbox, an outbox, its clock and its
/// private randomness.
///
/// The inbox is staged *lazily*: the runtime hands the context the node's raw dense-arc
/// stamp/payload segments, and the first call to [`RoundCtx::inbox`] (or
/// [`RoundCtx::received_on`]) scans the stamps and clones out the matching payloads. Nodes
/// that skip their inbox in a round (e.g. a colour class waiting its turn) pay nothing for
/// the messages they ignore.
pub struct RoundCtx<'a, M> {
    pub(crate) round: u64,
    pub(crate) degree: usize,
    pub(crate) neighbor_ids: &'a [NodeId],
    /// Staging buffer for the inbox; valid only once `staged` is set.
    pub(crate) inbox: &'a mut Vec<Incoming<M>>,
    /// Whether `inbox` already reflects this node's segment for this round.
    pub(crate) staged: &'a mut bool,
    /// The node's dense-arc stamp segment in the read arena (one cell per port).
    pub(crate) stamps: &'a [u64],
    /// Message payloads parallel to `stamps`.
    pub(crate) payloads: &'a [Option<M>],
    /// Stamp value marking messages sent in the previous round.
    pub(crate) read_tick: u64,
    pub(crate) outbox: &'a mut Vec<(usize, M)>,
    pub(crate) broadcast: &'a mut Option<M>,
    /// Lazily-drawn private random stream: the slot belongs to the run whose tick stamp
    /// matches `rng_key.0`; any other stamp is a stale stream from an earlier run and is
    /// re-derived on first use. Deterministic programs never touch the slot, so runs of
    /// them skip the per-node stream derivation entirely.
    pub(crate) rng_slot: &'a mut Option<(u64, ChaCha8Rng)>,
    /// `(run tick stamp, execution seed, node identity)` — the derivation key of the
    /// node's stream for this run.
    pub(crate) rng_key: (u64, u64, NodeId),
}

impl<'a, M: Clone> RoundCtx<'a, M> {
    /// The node's local round counter (0 on the first activation).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Degree of the node (number of ports).
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Identity of the neighbor behind each port (`neighbor_ids()[p]` sits across port `p`).
    ///
    /// Served from the runtime's cached init slab, so programs no longer need to copy the
    /// identities out of [`NodeInit`] into per-node vectors at build time.
    pub fn neighbor_ids(&self) -> &[NodeId] {
        self.neighbor_ids
    }

    /// Messages received this round, tagged with the arrival port (port-ascending).
    pub fn inbox(&mut self) -> &[Incoming<M>] {
        self.stage();
        self.inbox
    }

    /// Iterates `(port, message)` over this round's arrivals, port-ascending, **without
    /// staging**: the iterator walks the raw stamp segment (64-arc match masks) and
    /// borrows payloads in place — no clone, no buffer. Same arrivals in the same order as
    /// [`RoundCtx::inbox`] (the staged buffer is just a materialization of the same
    /// segment, so mixing the two within a round agrees); prefer this in hot per-round
    /// loops.
    pub fn messages(&self) -> Messages<'_, M> {
        Messages {
            stamps: self.stamps,
            payloads: self.payloads,
            read_tick: self.read_tick,
            chunk: 0,
            next_chunk: 0,
            mask: 0,
        }
    }

    /// Number of messages received this round — one stamp-count pass, no staging.
    pub fn received_count(&self) -> usize {
        self.stamps.iter().filter(|&&s| s == self.read_tick).count()
    }

    /// Convenience: the message received on `port` this round, if any.
    pub fn received_on(&mut self, port: usize) -> Option<&M> {
        self.stage();
        self.inbox.iter().find(|m| m.port == port).map(|m| &m.msg)
    }

    /// Fills the staging buffer from the raw stamp/payload segments on first access: a
    /// 64-arc-chunked stamp-match mask, then one clone per set bit.
    fn stage(&mut self) {
        if *self.staged {
            return;
        }
        *self.staged = true;
        // The segment refs live for 'a, independent of this borrow of self, so the raw
        // iterator and the staging pushes don't conflict.
        let raw = Messages {
            stamps: self.stamps,
            payloads: self.payloads,
            read_tick: self.read_tick,
            chunk: 0,
            next_chunk: 0,
            mask: 0,
        };
        let inbox = &mut *self.inbox;
        inbox.clear();
        raw.fold((), |(), (port, msg)| inbox.push(Incoming { port, msg: msg.clone() }));
    }

    /// Queues a message to the neighbor on `port`, delivered before that neighbor's next round.
    ///
    /// At most one message is delivered per port per round; a later send to the same port
    /// within the round replaces the earlier one (the LOCAL model's unrestricted message
    /// size makes batching into one message equivalent).
    ///
    /// # Panics
    ///
    /// Panics if `port >= degree()`.
    pub fn send(&mut self, port: usize, msg: M) {
        assert!(port < self.degree, "send on port {port} but degree is {}", self.degree);
        self.outbox.push((port, msg));
    }

    /// Queues the same message to every neighbor.
    ///
    /// Handled by the runtime as a single staged value fanned out at delivery time, so a
    /// broadcast costs one write per neighbor and no outbox traffic. A node delivers at most
    /// one message per port per round: a later [`RoundCtx::send`] to a port overrides a
    /// broadcast queued in the same round, and a repeated broadcast replaces the previous
    /// one.
    pub fn broadcast(&mut self, msg: M) {
        *self.broadcast = Some(msg);
    }

    /// The node's private, reproducible random stream (independent across nodes).
    ///
    /// Derived on first use per run from the run's seed and the node identity — the stream
    /// (and its position) is exactly what an eager per-run initialization would serve, but
    /// runs that never ask pay nothing.
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        let (stamp, seed, id) = self.rng_key;
        let fresh = !matches!(self.rng_slot, Some((s, _)) if *s == stamp);
        if fresh {
            *self.rng_slot = Some((stamp, crate::rng::node_rng(seed, id)));
        }
        &mut self.rng_slot.as_mut().expect("slot filled above").1
    }
}

/// Iterator over one round's arrivals, see [`RoundCtx::messages`].
///
/// Walks the stamp segment one 64-arc chunk at a time, pulling a match mask per chunk
/// and peeling set bits. `fold` is overridden with the tight two-level loop, so
/// internal-iteration consumers (`for_each` and adapters over it) skip the per-item state
/// machine of [`Messages::next`].
pub struct Messages<'b, M> {
    stamps: &'b [u64],
    payloads: &'b [Option<M>],
    read_tick: u64,
    /// Base port of the chunk `mask` refers to.
    chunk: usize,
    /// Base port of the next chunk to scan.
    next_chunk: usize,
    mask: u64,
}

/// Bit `i` is set iff `stamps[i] == tick`; one chunk of at most 64 arcs.
#[inline]
fn stamp_match_mask64(stamps: &[u64], tick: u64) -> u64 {
    debug_assert!(stamps.len() <= 64, "a match mask covers at most 64 stamps");
    let mut mask = 0u64;
    for (i, &s) in stamps.iter().enumerate() {
        mask |= u64::from(s == tick) << i;
    }
    mask
}

impl<'b, M> Iterator for Messages<'b, M> {
    type Item = (usize, &'b M);

    #[inline]
    fn next(&mut self) -> Option<(usize, &'b M)> {
        loop {
            while self.mask != 0 {
                let port = self.chunk + self.mask.trailing_zeros() as usize;
                self.mask &= self.mask - 1;
                if let Some(msg) = &self.payloads[port] {
                    return Some((port, msg));
                }
            }
            if self.next_chunk >= self.stamps.len() {
                return None;
            }
            let end = (self.next_chunk + 64).min(self.stamps.len());
            self.mask = stamp_match_mask64(&self.stamps[self.next_chunk..end], self.read_tick);
            self.chunk = self.next_chunk;
            self.next_chunk = end;
        }
    }

    #[inline]
    fn fold<B, F>(mut self, init: B, mut f: F) -> B
    where
        F: FnMut(B, (usize, &'b M)) -> B,
    {
        let mut acc = init;
        loop {
            while self.mask != 0 {
                let port = self.chunk + self.mask.trailing_zeros() as usize;
                self.mask &= self.mask - 1;
                if let Some(msg) = &self.payloads[port] {
                    acc = f(acc, (port, msg));
                }
            }
            if self.next_chunk >= self.stamps.len() {
                return acc;
            }
            let end = (self.next_chunk + 64).min(self.stamps.len());
            self.mask = stamp_match_mask64(&self.stamps[self.next_chunk..end], self.read_tick);
            self.chunk = self.next_chunk;
            self.next_chunk = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_ctx_send_and_broadcast() {
        // Raw arena segments: only port 1 carries a message stamped with the read tick
        // (port 0 holds a stale stamp from an earlier round, port 2 was never written).
        let stamps = [3u64, 5, 0];
        let payloads: [Option<u32>; 3] = [Some(13), Some(42), None];
        let mut inbox: Vec<Incoming<u32>> = Vec::new();
        let mut staged = false;
        let mut outbox = Vec::new();
        let mut rng_slot = None;
        let neighbor_ids = [7u64, 8, 9];
        let mut bcast = None;
        let mut ctx = RoundCtx {
            round: 3,
            degree: 3,
            neighbor_ids: &neighbor_ids,
            inbox: &mut inbox,
            staged: &mut staged,
            stamps: &stamps,
            payloads: &payloads,
            read_tick: 5,
            outbox: &mut outbox,
            broadcast: &mut bcast,
            rng_slot: &mut rng_slot,
            rng_key: (1, 0, 7),
        };
        assert_eq!(ctx.round(), 3);
        assert_eq!(ctx.degree(), 3);
        assert_eq!(ctx.neighbor_ids(), &[7, 8, 9]);
        assert_eq!(ctx.received_on(1), Some(&42));
        assert_eq!(ctx.received_on(0), None);
        assert_eq!(ctx.inbox().len(), 1);
        ctx.send(2, 7);
        ctx.broadcast(9);
        {
            use rand::RngCore;
            // The lazily-drawn stream is exactly node_rng(seed, id), kept across calls.
            let first = ctx.rng().next_u64();
            let mut reference = crate::rng::node_rng(0, 7);
            assert_eq!(first, reference.next_u64());
            assert_eq!(ctx.rng().next_u64(), reference.next_u64());
        }
        assert_eq!(outbox, vec![(2, 7)]);
        assert_eq!(bcast, Some(9));
        assert!(staged, "first inbox access must mark the segment staged");
        assert!(rng_slot.is_some(), "rng access must fill the slot");
    }

    #[test]
    fn stamp_masks_cover_chunk_boundaries_and_full_rows() {
        // Rows just below, at and above the 64-arc chunk boundary, an empty row, and a
        // max-degree row where every arc matches: `next` and `fold` must both yield
        // exactly the ports stamped with the read tick that carry a payload.
        let tick = 42u64;
        let full = vec![tick; 64];
        assert_eq!(stamp_match_mask64(&full, tick), u64::MAX);
        assert_eq!(stamp_match_mask64(&[], tick), 0);
        for len in [0usize, 1, 63, 64, 65, 128, 129] {
            let patterned: Vec<u64> =
                (0..len as u64).map(|i| if i % 3 == 0 { tick } else { i + 100 }).collect();
            for stamps in [patterned, vec![tick; len]] {
                let payloads: Vec<Option<usize>> =
                    (0..len).map(|p| (p % 7 != 5).then_some(p)).collect();
                let expect: Vec<(usize, usize)> = (0..len)
                    .filter(|&p| stamps[p] == tick && payloads[p].is_some())
                    .map(|p| (p, p))
                    .collect();
                let raw = || Messages {
                    stamps: &stamps,
                    payloads: &payloads,
                    read_tick: tick,
                    chunk: 0,
                    next_chunk: 0,
                    mask: 0,
                };
                let mut by_next = Vec::new();
                for (p, &m) in raw() {
                    by_next.push((p, m));
                }
                let by_fold = raw().fold(Vec::new(), |mut acc, (p, &m)| {
                    acc.push((p, m));
                    acc
                });
                assert_eq!(by_next, expect, "next, len {len}");
                assert_eq!(by_fold, expect, "fold, len {len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "send on port")]
    fn send_out_of_range_panics() {
        let mut inbox: Vec<Incoming<u32>> = Vec::new();
        let mut staged = false;
        let mut outbox = Vec::new();
        let mut rng_slot = None;
        let mut bcast = None;
        let mut ctx = RoundCtx {
            round: 0,
            degree: 1,
            neighbor_ids: &[4],
            inbox: &mut inbox,
            staged: &mut staged,
            stamps: &[0],
            payloads: &[None],
            read_tick: 1,
            outbox: &mut outbox,
            broadcast: &mut bcast,
            rng_slot: &mut rng_slot,
            rng_key: (1, 0, 4),
        };
        ctx.send(1, 0);
    }
}
