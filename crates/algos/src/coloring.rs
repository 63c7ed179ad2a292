//! Non-uniform vertex-colouring algorithms.
//!
//! Two building blocks, both classical and both *non-uniform* (they need guesses for the
//! maximum degree `Δ` and the largest identity `m`):
//!
//! * [`LinialColoring`] — Linial's iterated colour reduction. Starting from the identities
//!   (an `m̃+1`-colouring), each round maps the current colouring to one over a quadratically
//!   smaller palette using an explicit polynomial (cover-free-family) construction; after
//!   `O(log* m̃)` rounds the palette stabilises at `O(Δ̃²)` colours (`q²` for the smallest
//!   prime `q > Δ̃`).
//! * [`ReducedColoring`] — colour elimination: given the Linial colouring, repeatedly recolour
//!   the highest colour class (an independent set) greedily into a target palette, one class
//!   per round, until `max(target, Δ̃+1)` colours remain. With `target = Δ̃+1` this yields the
//!   classical `(Δ+1)`-colouring in `O(Δ̃² + log* m̃)` rounds; with `target = λ(Δ̃+1)` it yields
//!   the λ(Δ+1)-colouring trade-off of Table 1 row 5.
//!
//! Substitution note (see DESIGN.md): the paper cites `O(Δ + log* n)` algorithms
//! (Barenboim–Elkin, Kuhn); we implement the `O(Δ² + log* n)` textbook pipeline, which has the
//! same *parameter set* and the same additive structure of its time bound, which is all the
//! transformer framework observes.
//!
//! Also provided: [`MisFromColoring`], the standard reduction that turns any proper colouring
//! into an MIS in (number of colours) extra rounds, and is *uniform* given the colouring.

use local_runtime::{Action, NodeInit, NodeProgram, ProgramSpec, RoundCtx};
use std::cell::RefCell;
use std::sync::Arc;

/// Returns the smallest prime `>= x` (trial division; fine for the palette sizes involved).
pub fn smallest_prime_at_least(x: u64) -> u64 {
    let mut candidate = x.max(2);
    loop {
        if is_prime(candidate) {
            return candidate;
        }
        candidate += 1;
    }
}

fn is_prime(x: u64) -> bool {
    if x < 2 {
        return false;
    }
    if x.is_multiple_of(2) {
        return x == 2;
    }
    let mut d = 3;
    while d * d <= x {
        if x.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

/// One step of Linial's reduction: given a palette of size `k` and a degree bound `delta`,
/// returns the parameters `(d, q)` of the polynomial construction — polynomials of degree at
/// most `d` over `F_q` with `q` prime, `q > d·delta` and `q^(d+1) >= k` — choosing the smallest
/// workable `d`. The new palette has size `q²`.
pub fn linial_step(k: u64, delta: u64) -> (u32, u64) {
    let delta = delta.max(1);
    for d in 1u32..=64 {
        let q = smallest_prime_at_least(u64::from(d) * delta + 1);
        // q^(d+1) >= k, computed in logs to avoid overflow.
        let lhs = f64::from(d + 1) * (q as f64).ln();
        let rhs = (k.max(1) as f64).ln();
        if lhs >= rhs {
            return (d, q);
        }
    }
    // Unreachable for any sane k (2^64 at most); fall back to a huge degree.
    (64, smallest_prime_at_least(64 * delta + 1))
}

/// The deterministic schedule of palette sizes produced by iterating [`linial_step`] from an
/// initial palette of `m + 1` colours (identities in `[0, m]`) until it stops shrinking.
///
/// All nodes compute the same schedule from the same guesses, which is how they agree on the
/// number of rounds — this is exactly the paper's notion of the algorithm *using* the guesses.
pub fn linial_schedule(id_bound: u64, delta: u64) -> Vec<(u32, u64)> {
    let mut schedule = Vec::new();
    let mut palette = id_bound.saturating_add(1).max(2);
    loop {
        let (d, q) = linial_step(palette, delta);
        let next = q.saturating_mul(q);
        if next >= palette || schedule.len() >= 64 {
            break;
        }
        schedule.push((d, q));
        palette = next;
    }
    schedule
}

/// The palette size after running the full Linial schedule (the `O(Δ²)` bound).
pub fn linial_final_palette(id_bound: u64, delta: u64) -> u64 {
    let mut palette = id_bound.saturating_add(1).max(2);
    for &(_, q) in &linial_schedule(id_bound, delta) {
        palette = q * q;
    }
    palette
}

/// Upper bound (exclusive) on `q` for the exact reciprocal arithmetic of [`ModQ`].
pub const EVAL_POLY_MAX_Q: u64 = 1 << 25;

/// Precomputed reciprocal for **exact** arithmetic mod a small `q`, replacing each hardware
/// division (~20–40 cycles) with a multiply and two fix-ups.
///
/// For `q <` [`EVAL_POLY_MAX_Q`] and operands below [`ModQ::MAX_OPERAND`] the `f64`
/// quotient estimate is within ±1 of the true quotient (every product and the remainder
/// stay exact integers below `2^53`), and the fix-ups make the result identical to the
/// `%`/`/` operators — digits and digests are bit-identical to the integer reference.
#[derive(Debug, Clone, Copy)]
pub struct ModQ {
    q: u64,
    inv: f64,
}

impl ModQ {
    /// Operand bound (exclusive) under which [`ModQ::div_rem`] is exact.
    pub const MAX_OPERAND: u64 = 1 << 51;

    /// Modulus bound (exclusive) under which two *unpaired* Horner steps can share one
    /// reciprocal reduction: `q·(q+8)² + (q+8)·q + q < 2^51` holds for every `q < 2^16`.
    pub const PAIR_MAX_Q: u64 = 1 << 16;

    /// Precomputes the reciprocal of `q` (`2 <= q <` [`EVAL_POLY_MAX_Q`]).
    #[inline]
    pub fn new(q: u64) -> ModQ {
        debug_assert!((2..EVAL_POLY_MAX_Q).contains(&q));
        ModQ { q, inv: 1.0 / q as f64 }
    }

    /// Exact `(c / q, c % q)` for `c <` [`ModQ::MAX_OPERAND`].
    #[inline]
    pub fn div_rem(self, c: u64) -> (u64, u64) {
        debug_assert!(c < ModQ::MAX_OPERAND);
        // Quotient estimate within ±1 of floor(c / q); a wrapped-negative remainder marks
        // an overshoot, a remainder >= q an undershoot.
        let mut k = (c as f64 * self.inv) as u64;
        let mut r = c.wrapping_sub(k * self.q);
        if (r as i64) < 0 {
            k -= 1;
            r = r.wrapping_add(self.q);
        } else if r >= self.q {
            k += 1;
            r -= self.q;
        }
        (k, r)
    }

    /// Exact Horner evaluation of the digit polynomial at one point `a < q + 8`
    /// (little-endian digits, all `< q`). Leading zero digits leave the accumulator at
    /// zero and are skipped.
    ///
    /// For `q <` [`ModQ::PAIR_MAX_Q`] two digits are folded per reduction — the unreduced
    /// double step stays below [`ModQ::MAX_OPERAND`], so exactness is preserved while the
    /// reciprocal work is halved.
    #[inline]
    pub fn eval_poly(self, coeffs: &[u64], a: u64) -> u64 {
        let mut coeffs = coeffs;
        while let Some((&0, rest)) = coeffs.split_last() {
            coeffs = rest;
        }
        let mut acc = 0u64;
        if self.q < ModQ::PAIR_MAX_Q {
            let mut pairs = coeffs.rchunks_exact(2);
            for pair in &mut pairs {
                acc = self.div_rem((acc * a + pair[1]) * a + pair[0]).1;
            }
            if let [c] = pairs.remainder() {
                acc = self.div_rem(acc * a + *c).1;
            }
            return acc;
        }
        for &c in coeffs.iter().rev() {
            acc = self.div_rem(acc * a + c).1;
        }
        acc
    }
}

/// Appends the coefficients (base-`q` digits) of a colour's polynomial of degree `<= d`.
///
/// Stops dividing as soon as the colour is exhausted and pads with zeros: under a generous
/// identity-bound guess (say `m̃ = 2^48` against identities around `10^4`) almost all high
/// digits are zero, and skipping their divisions is the hot-path win of the Linial step.
#[cfg(test)]
fn push_poly_digits(color: u64, d: u32, q: u64, out: &mut Vec<u64>) {
    let modq = (q < EVAL_POLY_MAX_Q).then(|| ModQ::new(q));
    push_poly_digits_with(color, d, q, modq, out);
}

/// [`push_poly_digits`] with a caller-supplied reciprocal context, so per-neighbour digit
/// splits inside one recolouring share a single `ModQ::new`. The reciprocal divisions are
/// exact (same digits as `%`/`/`) within the `ModQ` operand bound; anything else falls back
/// to hardware division.
fn push_poly_digits_with(color: u64, d: u32, q: u64, modq: Option<ModQ>, out: &mut Vec<u64>) {
    let mut rest = color;
    let mut produced = 0u32;
    match modq {
        Some(m) if color < ModQ::MAX_OPERAND => {
            while rest > 0 && produced <= d {
                let (k, r) = m.div_rem(rest);
                out.push(r);
                rest = k;
                produced += 1;
            }
        }
        _ => {
            while rest > 0 && produced <= d {
                out.push(rest % q);
                rest /= q;
                produced += 1;
            }
        }
    }
    for _ in produced..=d {
        out.push(0);
    }
}

/// Maps a colour to the coefficients (base-`q` digits) of its polynomial of degree `<= d`.
#[cfg(test)]
fn color_to_poly(color: u64, d: u32, q: u64) -> Vec<u64> {
    let mut coeffs = Vec::with_capacity(d as usize + 1);
    push_poly_digits(color, d, q, &mut coeffs);
    coeffs
}

/// Horner evaluation of the digit polynomial at `a`, mod any `q` — the path for fields too
/// large for [`ModQ`].
fn eval_poly(coeffs: &[u64], a: u64, q: u64) -> u64 {
    // Leading zero coefficients leave a Horner accumulator at zero; skip their
    // multiply-and-reduce steps outright (the digit layout above makes them the common
    // case under generous guesses).
    let mut coeffs = coeffs;
    while let Some((&0, rest)) = coeffs.split_last() {
        coeffs = rest;
    }
    if q < (1 << 32) {
        let mut acc: u64 = 0;
        for &c in coeffs.iter().rev() {
            acc = (acc * a + c) % q;
        }
        return acc;
    }
    let mut acc: u128 = 0;
    for &c in coeffs.iter().rev() {
        acc = (acc * u128::from(a) + u128::from(c)) % u128::from(q);
    }
    acc as u64
}

/// Reusable workspace of the Linial recolouring step: the node's own polynomial digits, the
/// neighbours' digits (flattened, stride `d + 1`), and the inbox colours. One per *thread*
/// (see [`RECOLOR_SCRATCH`]), shared by every node automaton the thread runs — capacities go
/// warm within the first few recolourings and attempts allocate nothing after that.
#[derive(Debug, Clone, Default)]
struct RecolorScratch {
    mine: Vec<u64>,
    others: Vec<u64>,
    neighbor_colors: Vec<u64>,
}

thread_local! {
    /// The per-thread recolouring workspace. Node automata run strictly sequentially on
    /// their thread and a `round()` call never re-enters, so one workspace serves them all —
    /// unlike a per-program buffer it is not reallocated from empty on every attempt of an
    /// alternation run.
    static RECOLOR_SCRATCH: RefCell<RecolorScratch> = RefCell::new(RecolorScratch::default());
}

impl RecolorScratch {
    /// Given my colour, the neighbour colours staged in `self.neighbor_colors`, and the step
    /// parameters, pick the new colour `a·q + p(a)` for an evaluation point `a` where my
    /// polynomial differs from every neighbour's.
    ///
    /// Scan order (and therefore the result) is exactly the reference loop at the bottom:
    /// smallest evaluation point whose digest differs from every neighbour's, early-exiting
    /// on the first clash. The arithmetic is tiered for the overwhelmingly common outcome
    /// that `a = 0` is already free: `p(0)` is just the colour's lowest base-`q` digit, so
    /// the `a = 0` test is one reciprocal reduction per neighbour — no digit arrays are
    /// built at all unless `a = 0` clashes.
    fn recolor(&mut self, my_color: u64, d: u32, q: u64) -> u64 {
        let stride = d as usize + 1;
        // Small-field fast path (the practical case): digit splits and Horner steps go
        // through the exact reciprocal context.
        let modq = (q < EVAL_POLY_MAX_Q).then(|| ModQ::new(q));
        // The digit split truncates at d + 1 digits, so two colours share a polynomial iff
        // they agree mod q^(d+1) (`None` = the power overflows u64 and nothing truncates).
        let poly_space = q.checked_pow(d + 1);
        let same_poly = |c: u64| match poly_space {
            Some(space) => c % space == my_color % space,
            None => c == my_color,
        };
        let mod_q = |c: u64| match modq {
            Some(m) if c < ModQ::MAX_OPERAND => m.div_rem(c).1,
            _ => c % q,
        };
        // a = 0: the digest is the lowest digit. A neighbour whose *whole polynomial*
        // equals mine (possible only under bad guesses, when the colour space overflows
        // the polynomial space) cannot be avoided at any point and is ignored, exactly as
        // the staged scan below drops it; the (rare) same-lowest-digit neighbours are the
        // only ones that pay the full-polynomial comparison.
        let my0 = mod_q(my_color);
        if !self.neighbor_colors.iter().any(|&c| mod_q(c) == my0 && !same_poly(c)) {
            return my0;
        }
        // a = 0 clashed: stage the digit arrays once and scan the remaining points.
        self.mine.clear();
        push_poly_digits_with(my_color, d, q, modq, &mut self.mine);
        self.others.clear();
        for &c in &self.neighbor_colors {
            if !same_poly(c) {
                push_poly_digits_with(c, d, q, modq, &mut self.others);
            }
        }
        if let Some(m) = modq {
            for a in 1..q {
                let val = m.eval_poly(&self.mine, a);
                let clash = self.others.chunks_exact(stride).any(|p| m.eval_poly(p, a) == val);
                if !clash {
                    return a * q + val;
                }
            }
            return q * q - 1;
        }
        for a in 1..q {
            let val = eval_poly(&self.mine, a, q);
            let clash = self.others.chunks_exact(stride).any(|p| eval_poly(p, a, q) == val);
            if !clash {
                return a * q + val;
            }
        }
        // No free evaluation point (only possible with bad guesses): return something
        // deterministic.
        q * q - 1
    }

    /// Stages the received colours for the next [`RecolorScratch::recolor`] call.
    /// `for_each` (internal iteration) lets stamp-mask message iterators run their tight
    /// fold loop instead of the per-item `next()` state machine.
    fn stage(&mut self, colors: impl Iterator<Item = u64>) {
        self.neighbor_colors.clear();
        let buf = &mut self.neighbor_colors;
        colors.for_each(|c| buf.push(c));
    }
}

/// The schedule and final palette implied by a guess pair, shared by every node automaton of
/// a spec through an [`Arc`] — computing it *once per attempt* instead of once per node
/// removes the dominant build-time cost (prime search) of short colouring attempts.
#[derive(Debug, Clone)]
struct LinialPlan {
    schedule: Arc<[(u32, u64)]>,
    final_palette: u64,
}

thread_local! {
    /// Last-plan memo: the runtime builds all `n` automata of an attempt back to back with
    /// the same guesses, so a single-entry per-thread cache turns `n` schedule computations
    /// into one (no locks, bounded memory).
    static LAST_PLAN: RefCell<Option<((u64, u64), LinialPlan)>> = const { RefCell::new(None) };
}

fn cached_plan(id_bound: u64, delta: u64) -> LinialPlan {
    LAST_PLAN.with(|slot| {
        let mut slot = slot.borrow_mut();
        match slot.as_ref() {
            Some((key, plan)) if *key == (id_bound, delta) => plan.clone(),
            _ => {
                let schedule: Arc<[(u32, u64)]> = linial_schedule(id_bound, delta).into();
                let final_palette = schedule
                    .last()
                    .map(|&(_, q)| q * q)
                    .unwrap_or_else(|| id_bound.saturating_add(1).max(2));
                let plan = LinialPlan { schedule, final_palette };
                *slot = Some(((id_bound, delta), plan.clone()));
                plan
            }
        }
    })
}

/// Messages exchanged by the colouring algorithms: the sender's current colour.
pub type ColorMsg = u64;

/// Linial's iterated colour-reduction algorithm (non-uniform in `{Δ, m}`).
///
/// Produces a proper colouring with [`linial_final_palette`]`(id_bound_guess, delta_guess)`
/// colours in `O(log* m̃)` rounds, *provided the guesses are good* (`Δ̃ ≥ Δ`, `m̃ ≥ m`). With bad
/// guesses the output may be improper — exactly the behaviour the paper allows for non-uniform
/// algorithms run with bad guesses.
#[derive(Debug, Clone)]
pub struct LinialColoring {
    /// Guess for the maximum degree `Δ`.
    pub delta_guess: u64,
    /// Guess for the largest identity `m`.
    pub id_bound_guess: u64,
}

impl LinialColoring {
    /// Number of rounds this algorithm takes (a function of the guesses only).
    pub fn round_bound(&self) -> u64 {
        linial_schedule(self.id_bound_guess, self.delta_guess).len() as u64 + 1
    }
}

/// Node automaton for [`LinialColoring`].
#[derive(Debug)]
pub struct LinialProg {
    schedule: Arc<[(u32, u64)]>,
    color: u64,
}

impl NodeProgram for LinialProg {
    type Msg = ColorMsg;
    type Output = u64;

    fn round(&mut self, ctx: &mut RoundCtx<'_, ColorMsg>) -> Action<u64> {
        let t = ctx.round() as usize;
        if t > 0 {
            // Apply step t-1 of the schedule using the neighbour colours broadcast last round.
            if let Some(&(d, q)) = self.schedule.get(t - 1) {
                self.color = RECOLOR_SCRATCH.with(|s| {
                    let s = &mut *s.borrow_mut();
                    s.stage(ctx.messages().map(|(_, &c)| c));
                    s.recolor(self.color, d, q)
                });
            }
        }
        if t == self.schedule.len() {
            return Action::Halt(self.color);
        }
        ctx.broadcast(self.color);
        Action::Continue
    }
}

impl ProgramSpec for LinialColoring {
    type Input = ();
    type Msg = ColorMsg;
    type Output = u64;
    type Prog = LinialProg;

    fn build(&self, init: &NodeInit<()>) -> LinialProg {
        LinialProg {
            schedule: cached_plan(self.id_bound_guess, self.delta_guess).schedule,
            color: init.id,
        }
    }

    fn default_output(&self, init: &NodeInit<()>) -> u64 {
        init.id
    }
}

/// Which palette the [`ReducedColoring`] pipeline should stop at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColoringTarget {
    /// Reduce all the way to `Δ̃ + 1` colours (the classical (Δ+1)-colouring).
    DeltaPlusOne,
    /// Reduce to `λ·(Δ̃ + 1)` colours (the λ(Δ+1)-colouring trade-off; λ ≥ 1).
    LambdaDeltaPlusOne(u64),
    /// Stop as soon as the palette is at most this many colours.
    Fixed(u64),
    /// Do not run the elimination phase at all (Linial palette, `O(Δ̃²)` colours).
    LinialOnly,
}

impl ColoringTarget {
    /// The concrete palette size implied by the target for a given degree guess.
    pub fn palette(&self, delta_guess: u64, linial_palette: u64) -> u64 {
        match self {
            ColoringTarget::DeltaPlusOne => delta_guess + 1,
            ColoringTarget::LambdaDeltaPlusOne(lambda) => {
                (delta_guess + 1).saturating_mul((*lambda).max(1)).min(linial_palette)
            }
            ColoringTarget::Fixed(t) => (*t).max(delta_guess + 1).min(linial_palette),
            ColoringTarget::LinialOnly => linial_palette,
        }
    }
}

/// The full non-uniform colouring pipeline: Linial reduction followed by colour elimination
/// down to a target palette. Non-uniform in `{Δ, m}`; running time
/// `O(log* m̃ + (Δ̃² − target))` rounds.
#[derive(Debug, Clone)]
pub struct ReducedColoring {
    /// Guess for the maximum degree `Δ`.
    pub delta_guess: u64,
    /// Guess for the largest identity `m`.
    pub id_bound_guess: u64,
    /// Target palette.
    pub target: ColoringTarget,
}

impl ReducedColoring {
    /// The classical (Δ+1)-colouring configuration.
    pub fn delta_plus_one(delta_guess: u64, id_bound_guess: u64) -> Self {
        ReducedColoring { delta_guess, id_bound_guess, target: ColoringTarget::DeltaPlusOne }
    }

    /// The λ(Δ+1)-colouring configuration.
    pub fn lambda(delta_guess: u64, id_bound_guess: u64, lambda: u64) -> Self {
        ReducedColoring {
            delta_guess,
            id_bound_guess,
            target: ColoringTarget::LambdaDeltaPlusOne(lambda),
        }
    }

    /// Palette size of the final colouring (as a function of the guesses).
    pub fn final_palette(&self) -> u64 {
        let linial = linial_final_palette(self.id_bound_guess, self.delta_guess);
        self.target.palette(self.delta_guess, linial)
    }

    /// Upper bound on the number of rounds (a function of the guesses only).
    pub fn round_bound(&self) -> u64 {
        let linial_rounds = linial_schedule(self.id_bound_guess, self.delta_guess).len() as u64 + 1;
        let linial_palette = linial_final_palette(self.id_bound_guess, self.delta_guess);
        let target = self.final_palette();
        linial_rounds + linial_palette.saturating_sub(target) + 1
    }
}

/// Phases of the [`ReducedColoring`] node automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReducePhase {
    Linial,
    Eliminate,
    Done,
}

/// Node automaton for [`ReducedColoring`].
#[derive(Debug)]
pub struct ReducedColoringProg {
    schedule: Arc<[(u32, u64)]>,
    linial_palette: u64,
    target: u64,
    color: u64,
    phase: ReducePhase,
    /// Round at which the elimination phase started (= number of Linial rounds).
    eliminate_start: u64,
}

impl NodeProgram for ReducedColoringProg {
    type Msg = ColorMsg;
    type Output = u64;

    fn round(&mut self, ctx: &mut RoundCtx<'_, ColorMsg>) -> Action<u64> {
        let t = ctx.round();
        match self.phase {
            ReducePhase::Linial => {
                let step = t as usize;
                if step > 0 {
                    if let Some(&(d, q)) = self.schedule.get(step - 1) {
                        self.color = RECOLOR_SCRATCH.with(|s| {
                            let s = &mut *s.borrow_mut();
                            s.stage(ctx.messages().map(|(_, &c)| c));
                            s.recolor(self.color, d, q)
                        });
                    }
                }
                if step == self.schedule.len() {
                    self.phase = ReducePhase::Eliminate;
                    self.eliminate_start = t;
                    if self.linial_palette <= self.target {
                        self.phase = ReducePhase::Done;
                        return Action::Halt(self.color);
                    }
                }
                ctx.broadcast(self.color);
                Action::Continue
            }
            ReducePhase::Eliminate => {
                // Elimination step s (s >= 1) removes colour class `linial_palette - s`.
                let s = t - self.eliminate_start;
                if s >= 1 {
                    let class = self.linial_palette - s;
                    if self.color == class && self.color >= self.target {
                        // Recolour greedily into [0, target): smallest colour no neighbour
                        // uses. Sort-and-scan over the reused scratch buffer instead of a
                        // `BTreeSet` — same colour, no per-recolour allocation.
                        let target = self.target;
                        self.color = RECOLOR_SCRATCH.with(|s| {
                            let used = &mut s.borrow_mut().neighbor_colors;
                            used.clear();
                            ctx.messages().for_each(|(_, &c)| {
                                if c < target {
                                    used.push(c);
                                }
                            });
                            used.sort_unstable();
                            let mut free = 0u64;
                            for &c in used.iter() {
                                if c == free {
                                    free += 1;
                                } else if c > free {
                                    break;
                                }
                            }
                            free.min(target.saturating_sub(1))
                        });
                    }
                    if class <= self.target {
                        self.phase = ReducePhase::Done;
                        return Action::Halt(self.color);
                    }
                }
                ctx.broadcast(self.color);
                Action::Continue
            }
            ReducePhase::Done => Action::Halt(self.color),
        }
    }
}

impl ProgramSpec for ReducedColoring {
    type Input = ();
    type Msg = ColorMsg;
    type Output = u64;
    type Prog = ReducedColoringProg;

    fn build(&self, init: &NodeInit<()>) -> ReducedColoringProg {
        let plan = cached_plan(self.id_bound_guess, self.delta_guess);
        ReducedColoringProg {
            target: self.target.palette(self.delta_guess, plan.final_palette),
            linial_palette: plan.final_palette,
            schedule: plan.schedule,
            color: init.id,
            phase: ReducePhase::Linial,
            eliminate_start: 0,
        }
    }

    fn default_output(&self, init: &NodeInit<()>) -> u64 {
        init.id
    }
}

/// Refines a proper colouring given as *input* (rather than starting from the identities):
/// runs the Linial schedule seeded from the input colours and then the colour elimination down
/// to `max(target_colors, Δ̃+1)` colours.
///
/// This is the paper's observation (Section 5.2) that the colouring algorithms it builds on
/// only need the initial "identities" to form a proper colouring: it is used as the second
/// phase of the Theorem 5 transformer, where the first-phase colours play the role of the
/// identities and their palette bound plays the role of `m̃`.
#[derive(Debug, Clone)]
pub struct RefineColoring {
    /// Guess for the maximum degree `Δ` of the (sub)graph being coloured.
    pub delta_guess: u64,
    /// Upper bound on the input palette (input colours lie in `[0, initial_palette_guess)`).
    pub initial_palette_guess: u64,
    /// Target palette (clamped to at least `Δ̃ + 1`).
    pub target_colors: u64,
}

impl RefineColoring {
    /// Palette size of the final colouring.
    pub fn final_palette(&self) -> u64 {
        let linial =
            linial_final_palette(self.initial_palette_guess.saturating_sub(1), self.delta_guess);
        self.target_colors.max(self.delta_guess + 1).min(linial.max(self.delta_guess + 1))
    }

    /// Upper bound on the number of rounds (a function of the guesses only).
    pub fn round_bound(&self) -> u64 {
        let id_bound = self.initial_palette_guess.saturating_sub(1);
        let linial_rounds = linial_schedule(id_bound, self.delta_guess).len() as u64 + 1;
        let linial_palette = linial_final_palette(id_bound, self.delta_guess);
        linial_rounds + linial_palette.saturating_sub(self.final_palette()) + 1
    }
}

impl ProgramSpec for RefineColoring {
    type Input = u64;
    type Msg = ColorMsg;
    type Output = u64;
    type Prog = ReducedColoringProg;

    fn build(&self, init: &NodeInit<u64>) -> ReducedColoringProg {
        let id_bound = self.initial_palette_guess.saturating_sub(1);
        let plan = cached_plan(id_bound, self.delta_guess);
        ReducedColoringProg {
            target: self
                .target_colors
                .max(self.delta_guess + 1)
                .min(plan.final_palette.max(self.delta_guess + 1)),
            linial_palette: plan.final_palette,
            schedule: plan.schedule,
            color: *init.input,
            phase: ReducePhase::Linial,
            eliminate_start: 0,
        }
    }

    fn default_output(&self, init: &NodeInit<u64>) -> u64 {
        *init.input
    }
}

/// The standard colouring→MIS reduction: process colour classes in increasing order; a node
/// of colour `c` joins the MIS in round `c` unless a neighbour already joined. Uniform given
/// the colouring; takes (number of colours) rounds.
#[derive(Debug, Clone, Default)]
pub struct MisFromColoring;

/// Messages of [`MisFromColoring`]: `true` = "I joined the MIS".
pub type JoinMsg = bool;

/// Node automaton for [`MisFromColoring`].
#[derive(Debug)]
pub struct MisFromColoringProg {
    color: u64,
    dominated: bool,
}

impl NodeProgram for MisFromColoringProg {
    type Msg = JoinMsg;
    type Output = bool;

    fn round(&mut self, ctx: &mut RoundCtx<'_, JoinMsg>) -> Action<bool> {
        if ctx.messages().any(|(_, &joined)| joined) {
            self.dominated = true;
        }
        if self.dominated {
            return Action::Halt(false);
        }
        if ctx.round() == self.color {
            // My turn: no neighbour with a smaller colour joined, so I join.
            ctx.broadcast(true);
            return Action::Halt(true);
        }
        Action::Continue
    }
}

impl ProgramSpec for MisFromColoring {
    type Input = u64;
    type Msg = JoinMsg;
    type Output = bool;
    type Prog = MisFromColoringProg;

    fn build(&self, init: &NodeInit<u64>) -> MisFromColoringProg {
        MisFromColoringProg { color: *init.input, dominated: false }
    }

    fn default_output(&self, _init: &NodeInit<u64>) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkers::{check_coloring, check_coloring_with_palette, check_mis};
    use local_graphs::{cycle, gnp, grid, path, scramble_ids, GraphParams};
    use local_runtime::{GraphAlgorithm, RunConfig};

    #[test]
    fn primes() {
        assert_eq!(smallest_prime_at_least(1), 2);
        assert_eq!(smallest_prime_at_least(2), 2);
        assert_eq!(smallest_prime_at_least(8), 11);
        assert_eq!(smallest_prime_at_least(90), 97);
    }

    #[test]
    fn linial_step_parameters_are_sound() {
        let (d, q) = linial_step(1_000_000, 10);
        assert!(q > u64::from(d) * 10);
        assert!(((d + 1) as f64) * (q as f64).ln() >= (1_000_000f64).ln());
    }

    #[test]
    fn linial_schedule_shrinks_palette_quickly() {
        let schedule = linial_schedule(1 << 40, 8);
        // log* of 2^40 is tiny.
        assert!(schedule.len() <= 6, "schedule too long: {}", schedule.len());
        let final_palette = linial_final_palette(1 << 40, 8);
        assert!(final_palette <= 4 * 9 * 9, "final palette {final_palette} not O(Δ²)");
    }

    #[test]
    fn eval_poly_matches_direct_computation() {
        // p(x) = 3 + 2x + x² over F_7 at x = 4: 3 + 8 + 16 = 27 ≡ 6 (mod 7).
        assert_eq!(eval_poly(&[3, 2, 1], 4, 7), 6);
    }

    #[test]
    fn color_roundtrip_digits() {
        let coeffs = color_to_poly(123, 3, 5);
        // 123 = 3 + 4*5 + 4*25 + 0*125 → digits [3, 4, 4, 0]
        assert_eq!(coeffs, vec![3, 4, 4, 0]);
    }

    #[test]
    fn linial_produces_proper_coloring_on_random_graph() {
        let g = gnp(120, 0.05, 3);
        let params = GraphParams::of(&g);
        let algo = LinialColoring { delta_guess: params.max_degree, id_bound_guess: params.max_id };
        let run = algo.execute(&g, &vec![(); g.node_count()], None, 0);
        assert!(run.completed);
        check_coloring(&g, &run.outputs).expect("Linial colouring must be proper");
        assert!(run.rounds <= algo.round_bound());
    }

    #[test]
    fn linial_with_generous_guesses_is_still_proper() {
        let g = grid(8, 8);
        let algo = LinialColoring { delta_guess: 16, id_bound_guess: 1 << 20 };
        let run = algo.execute(&g, &vec![(); g.node_count()], None, 1);
        check_coloring(&g, &run.outputs).expect("proper with over-estimates");
    }

    #[test]
    fn delta_plus_one_coloring_on_various_graphs() {
        for (g, seed) in [(path(40), 0u64), (cycle(31), 1), (grid(7, 9), 2), (gnp(90, 0.08, 9), 3)]
        {
            let p = GraphParams::of(&g);
            let algo = ReducedColoring::delta_plus_one(p.max_degree, p.max_id);
            let run = algo.execute(&g, &vec![(); g.node_count()], None, seed);
            assert!(run.completed, "did not complete");
            check_coloring_with_palette(&g, &run.outputs, p.max_degree + 1)
                .expect("(Δ+1)-colouring must be proper and within palette");
            assert!(run.rounds <= algo.round_bound());
        }
    }

    #[test]
    fn lambda_coloring_uses_larger_palette_but_fewer_rounds() {
        let g = gnp(150, 0.15, 5);
        let p = GraphParams::of(&g);
        let tight = ReducedColoring::delta_plus_one(p.max_degree, p.max_id);
        let loose = ReducedColoring::lambda(p.max_degree, p.max_id, 4);
        let run_tight = tight.execute(&g, &vec![(); g.node_count()], None, 0);
        let run_loose = loose.execute(&g, &vec![(); g.node_count()], None, 0);
        check_coloring_with_palette(&g, &run_tight.outputs, tight.final_palette()).unwrap();
        check_coloring_with_palette(&g, &run_loose.outputs, loose.final_palette()).unwrap();
        assert!(loose.final_palette() >= tight.final_palette());
        assert!(run_loose.rounds <= run_tight.rounds);
    }

    #[test]
    fn coloring_works_with_scrambled_identities() {
        let g = scramble_ids(&gnp(80, 0.07, 2), 1 << 30, 7);
        let p = GraphParams::of(&g);
        let algo = ReducedColoring::delta_plus_one(p.max_degree, p.max_id);
        let run = algo.execute(&g, &vec![(); g.node_count()], None, 0);
        check_coloring_with_palette(&g, &run.outputs, p.max_degree + 1).unwrap();
    }

    #[test]
    fn bad_guesses_may_break_correctness_but_respect_budget() {
        // Deliberately under-estimate Δ and m: the algorithm must still stop within the budget
        // (the runtime enforces it) and produce *some* output at every node.
        let g = gnp(60, 0.2, 4);
        let algo = ReducedColoring::delta_plus_one(1, 3);
        let cfg_budget = 10;
        let run = algo.execute(&g, &vec![(); g.node_count()], Some(cfg_budget), 0);
        assert!(run.rounds <= cfg_budget);
        assert_eq!(run.outputs.len(), g.node_count());
    }

    #[test]
    fn refine_coloring_shrinks_palette_of_an_input_coloring() {
        let g = gnp(80, 0.08, 11);
        let p = GraphParams::of(&g);
        // Start from a wasteful proper colouring: colour = 3 × identity.
        let wasteful: Vec<u64> = (0..g.node_count()).map(|v| 3 * g.id(v)).collect();
        let refine = RefineColoring {
            delta_guess: p.max_degree,
            initial_palette_guess: 3 * p.max_id + 1,
            target_colors: p.max_degree + 1,
        };
        let run = refine.execute(&g, &wasteful, None, 0);
        assert!(run.completed);
        check_coloring_with_palette(&g, &run.outputs, refine.final_palette()).unwrap();
        assert!(run.rounds <= refine.round_bound());
    }

    #[test]
    fn refine_coloring_respects_custom_target() {
        let g = grid(6, 6);
        let input: Vec<u64> = (0..36u64).collect();
        let refine =
            RefineColoring { delta_guess: 4, initial_palette_guess: 36, target_colors: 10 };
        let run = refine.execute(&g, &input, None, 0);
        check_coloring_with_palette(&g, &run.outputs, 10).unwrap();
    }

    #[test]
    fn mis_from_coloring_yields_mis() {
        let g = gnp(100, 0.06, 8);
        let p = GraphParams::of(&g);
        let coloring = ReducedColoring::delta_plus_one(p.max_degree, p.max_id);
        let colors = coloring.execute(&g, &vec![(); g.node_count()], None, 0);
        let mis_run = MisFromColoring.execute(&g, &colors.outputs, None, 0);
        assert!(mis_run.completed);
        check_mis(&g, &mis_run.outputs).expect("colour-class MIS must be maximal independent");
        // Takes at most (palette) rounds.
        assert!(mis_run.rounds <= p.max_degree + 1);
    }

    #[test]
    fn mis_from_coloring_on_a_path_with_two_colors() {
        let g = path(9);
        let colors: Vec<u64> = (0..9).map(|v| (v % 2) as u64).collect();
        let run = MisFromColoring.execute(&g, &colors, None, 0);
        check_mis(&g, &run.outputs).unwrap();
        assert!(run.rounds <= 2);
    }

    #[test]
    fn linial_round_count_grows_very_slowly_with_id_space() {
        let small = LinialColoring { delta_guess: 4, id_bound_guess: 1 << 10 }.round_bound();
        let large = LinialColoring { delta_guess: 4, id_bound_guess: 1 << 50 }.round_bound();
        assert!(large <= small + 3, "log* growth violated: {small} -> {large}");
    }

    #[test]
    fn budget_zero_forces_default_outputs() {
        let g = path(5);
        let algo = LinialColoring { delta_guess: 2, id_bound_guess: 4 };
        let cfg = RunConfig { max_rounds: Some(0), ..RunConfig::default() };
        let exec = local_runtime::run(&g, &[(); 5], &algo, &cfg);
        assert_eq!(exec.outputs.len(), 5);
        assert!(!exec.completed);
    }
}
