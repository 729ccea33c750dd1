//! A separate asynchronous implementation of the linear chain (its own
//! verify/commit code, not yet folded into
//! [`SpecSession`](crate::SpecSession)), split into two halves so a
//! scheduler can run them on **different threads**:
//! [`DraftAhead`] (producer) speculates a token chain ahead through an
//! [`SpscRing`], [`VerifyHalf`] (consumer) batches whatever has arrived
//! into one target pass and commits the accepted prefix.
//!
//! ## Why the output cannot change
//!
//! Greedy speculative decoding commits a token only when it is the argmax
//! of the **target's own logits** at that position — the draft merely
//! proposes. Committed prefixes therefore always extend the target's
//! greedy autoregressive chain, no matter how the chain is cut into
//! blocks. The async split changes only the block decomposition (verify
//! consumes however many proposals happen to be in flight), so every
//! stream is byte-identical to the synchronous fused loop and to plain
//! autoregressive decoding — regardless of thread interleaving. What
//! *does* change across interleavings is the block statistics
//! (blocks/drafted/accepted): two runs may batch the same chain
//! differently. Commit authority lives **only** in [`VerifyHalf`]; ring
//! tokens are provisional until verified.
//!
//! ## Speculation-frontier state
//!
//! The draft free-runs a chain `s₁ s₂ …` from frontier `F` (its KV length
//! when the chain started) after feeding the resume token. [`VerifyHalf`]
//! tracks how much of that chain is **confirmed** (`m` tokens match the
//! target chain) and where the next verify pass starts. On a rejection it
//! hands the draft a [`Rollback`](crate::ring::Rollback) carrying the
//! exact KV length to restore — via the checkpoints the draft banked with
//! [`KvCache::checkpoint`] — and the corrected token to resume from.
//!
//! ## Depth bounding
//!
//! The draft parks once `ring.len()` reaches the verify side's
//! [`depth_hint`](VerifyHalf::depth_hint) = [`DEPTH_FACTOR`]·γ (adaptive
//! γ when enabled). Deeper than the sync loop's γ on purpose: verify then
//! consumes larger blocks, amortizing more tokens per target weight
//! sweep, while AdaptiveGamma still collapses the depth when acceptance
//! tanks so doomed speculation is not paid for twice.
//!
//! A second, per-token brake complements the per-block depth cap: when
//! the draft's softmax top-probability for the token it just produced
//! falls below [`CONFIDENCE_STOP`], the draft stops extending the chain
//! while unverified tokens remain queued ([`DraftStep::LowConfidence`]).
//! A rejection at chain position *i* wastes every queued row past *i* in
//! the verify pass, so low-confidence tails are where deep speculation
//! loses; the gate keeps confident chains deep and cuts the doomed ones
//! short. The gate only changes *which* tokens get drafted — the verify
//! leg alone commits, so streams are byte-identical with it on or off.

use crate::adaptive::AdaptiveGamma;
use crate::metrics::SpecStats;
use crate::ring::SpscRing;
use crate::MAX_GAMMA;
use aasd_nn::{Decoder, KvCache, KvCheckpoint};
use aasd_tensor::{argmax, Workspace};

/// In-flight speculation depth cap as a multiple of γ. Factor 2 lets the
/// draft refill while verify drains the previous block, so target passes
/// batch ~2γ rows instead of γ+1.
pub const DEPTH_FACTOR: usize = 2;

/// Default draft-confidence stop threshold for the free-running producer
/// (see [`DraftAhead::set_confidence_threshold`]). A chain token whose
/// draft top-probability falls below this ends the block: the positions
/// after a likely rejection are the ones a target pass wastes, so cutting
/// there trades a little depth for materially fewer dead verify rows.
/// Tuned on the serving benchmark's aligned draft/target pair.
pub const CONFIDENCE_STOP: f32 = 0.7;

/// What one [`DraftAhead::step`] call did; the caller (draft worker
/// thread) parks on `AtDepthCap`/`AtCapacity` and spins on the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DraftStep {
    /// One chain token forwarded, checkpointed, and pushed to the ring.
    Produced,
    /// A pending rollback was consumed: KV restored to the frontier, the
    /// chain resumes from the corrected token on the next step.
    RolledBack,
    /// The ring already holds `depth_cap` provisional tokens — park until
    /// the verify leg pops or rolls back.
    AtDepthCap,
    /// The draft KV lease (or context window) is exhausted — park; the
    /// chain already spans every position the session could still need,
    /// so verify can always finish from what is queued.
    AtCapacity,
    /// The last produced token fell below the confidence stop threshold
    /// and unverified tokens are still queued — park; extending past a
    /// likely rejection only manufactures dead verify rows. Resumes
    /// automatically once the ring drains or a rollback refreshes the
    /// chain.
    LowConfidence,
}

/// Producer half: free-running draft speculation over an [`SpscRing`].
///
/// Owns the draft-side chain state: the next token to feed and one
/// [`KvCheckpoint`] per chain position (`cps[i]` ⇔ KV length `base + i`),
/// so any rollback frontier the verify leg can name restores in O(1).
/// Checkpoint IDs are lease-scoped (see `aasd-nn`), so a checkpoint taken
/// before a paged-pool copy-on-write still restores correctly after it.
#[derive(Debug)]
pub struct DraftAhead {
    /// Next token to feed the draft model (resume token after rollback).
    feed: u32,
    /// Draft KV length when this session's chain began; `cps[i]`
    /// checkpoints length `base + i`.
    base: usize,
    cps: Vec<KvCheckpoint>,
    /// Draft top-probability below which the chain stops extending while
    /// unverified tokens remain queued. `0.0` disables the gate.
    conf_stop: f32,
    /// The last produced token was below `conf_stop`; hold the chain
    /// until the ring drains or a rollback resets the context.
    soft_stop: bool,
}

impl DraftAhead {
    /// Start speculating from the session's pending token. The cache must
    /// be positioned at the chain frontier (same contract as
    /// [`SpecSession::new`](crate::SpecSession::new)'s draft cache).
    pub fn new(d_cache: &mut KvCache, pending: u32) -> Self {
        Self {
            feed: pending,
            base: d_cache.len(),
            cps: vec![d_cache.checkpoint()],
            conf_stop: 0.0,
            soft_stop: false,
        }
    }

    /// Enable the confidence stop: a produced token whose draft
    /// top-probability is below `threshold` ends the current block (the
    /// producer parks with [`DraftStep::LowConfidence`] while unverified
    /// tokens remain in the ring). Commits are untouched — the verify leg
    /// alone decides acceptance — so streams are byte-identical with the
    /// gate on or off; only the block decomposition changes. `0.0`
    /// disables (the default); [`CONFIDENCE_STOP`] is the tuned serving
    /// value.
    pub fn set_confidence_threshold(&mut self, threshold: f32) {
        self.conf_stop = threshold;
    }

    /// Provisional tokens produced since the last rollback or start
    /// (diagnostics).
    pub fn chain_len(&self) -> usize {
        self.cps.len() - 1
    }

    /// Advance the chain by at most one token. Rollback requests are
    /// honored **before** anything else so a parked producer that wakes
    /// into a rejection never extends the dead chain.
    pub fn step(
        &mut self,
        draft: &Decoder,
        d_cache: &mut KvCache,
        ring: &SpscRing,
        depth_cap: usize,
        ws: &mut Workspace,
    ) -> DraftStep {
        if let Some(rb) = ring.take_rollback() {
            // The frontier names a length this chain has reached (verify
            // can only reject tokens the draft already fed), so the
            // checkpoint exists and its low-mark is intact.
            let idx = rb.frontier - self.base;
            d_cache.restore(&self.cps[idx]);
            self.cps.truncate(idx + 1);
            self.feed = rb.resume;
            self.soft_stop = false;
            return DraftStep::RolledBack;
        }
        if ring.len() >= depth_cap.max(1).min(ring.capacity()) {
            return DraftStep::AtDepthCap;
        }
        if self.soft_stop {
            // Below-threshold token still unverified: wait for its
            // verdict rather than building on it. Once the ring drains
            // (verify took the chain; any rejection will arrive as a
            // rollback) the chain may resume — at worst the resumed
            // tokens are truncated by that rollback before any target
            // pass sees them.
            if !ring.is_empty() {
                return DraftStep::LowConfidence;
            }
            self.soft_stop = false;
        }
        if d_cache.len() >= draft.cfg.max_seq.min(d_cache.capacity()) {
            return DraftStep::AtCapacity;
        }
        let mut logits = ws.take(draft.cfg.vocab);
        draft.forward_infer_ws(&[self.feed], d_cache, ws, &mut logits);
        let tok = argmax(&logits) as u32;
        if self.conf_stop > 0.0 {
            // Numerically stable softmax top-probability of `tok`.
            let top = logits[tok as usize];
            let lse = logits.iter().map(|&l| (l - top).exp()).sum::<f32>();
            self.soft_stop = 1.0 / lse < self.conf_stop;
        }
        ws.give(logits);
        self.cps.push(d_cache.checkpoint());
        // Cannot fail: fullness was pre-checked above and only this
        // producer ever grows `tail` (its own take_rollback may shrink
        // it; the consumer only ever frees slots).
        let pushed = ring.push(tok);
        debug_assert!(pushed, "SPSC ring refused a push after the depth check");
        self.feed = tok;
        DraftStep::Produced
    }
}

/// What one [`VerifyHalf::try_step_block`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyReport {
    /// Tokens newly committed to the output stream.
    pub committed: usize,
    /// Session has emitted its full budget.
    pub done: bool,
    /// False only when the call found the ring empty and returned without
    /// advancing any state — the scheduler's idle-stall signal.
    pub progressed: bool,
    /// A rollback was issued to the draft this call.
    pub rolled_back: bool,
    /// Proposals scored by this call's target pass (0 when no pass ran).
    pub depth: usize,
}

impl VerifyReport {
    fn idle() -> Self {
        Self {
            committed: 0,
            done: false,
            progressed: false,
            rolled_back: false,
            depth: 0,
        }
    }
}

/// Consumer half: batches ring tokens into target verify passes and holds
/// **sole commit authority** for the session's output stream.
#[derive(Debug)]
pub struct VerifyHalf {
    pending: u32,
    budget: usize,
    gamma: usize,
    out: Vec<u32>,
    stats: SpecStats,
    t_off: usize,
    done: bool,
    /// Draft-cache length where the current speculation chain began.
    frontier: usize,
    /// Chain tokens since `frontier` confirmed to match the target chain.
    confirmed: usize,
    /// After a fully-accepted block: the target's bonus token, which the
    /// next popped chain token must equal for the chain to stay live.
    expect: Option<u32>,
    adaptive: Option<AdaptiveGamma>,
}

impl VerifyHalf {
    /// Start the verify half from pre-seeded caches (same cache contract
    /// as [`SpecSession::new`](crate::SpecSession::new); `d_frontier` is
    /// the draft cache's length, i.e. the chain base handed to
    /// [`DraftAhead::new`]). `pending` is committed immediately.
    ///
    /// Beyond `SpecSession`'s bounds check this asserts the target lease
    /// is **budget-collapsed** — `min(max_seq, capacity)` equals exactly
    /// `len + budget − 1` — which makes "no room to speculate" coincide
    /// with "one token of budget left". The sync loop's mid-run plain
    /// decode fallback (which advances the target without consuming the
    /// chain, and would desynchronize a free-running draft) is thereby
    /// structurally impossible: the only plain decode is the final token,
    /// after which the session is over. Engine leases satisfy this by
    /// construction (`t_capacity = t_prefix + budget − 1`).
    pub fn new(
        target: &Decoder,
        t_cache: &KvCache,
        d_frontier: usize,
        pending: u32,
        budget: usize,
        gamma: usize,
    ) -> Self {
        assert!(
            (1..MAX_GAMMA).contains(&gamma),
            "gamma must be in 1..{MAX_GAMMA}"
        );
        if budget > 0 {
            assert_eq!(
                target.cfg.max_seq.min(t_cache.capacity()),
                t_cache.len() + budget - 1,
                "async verify requires a budget-collapsed target lease"
            );
        }
        let mut s = Self {
            pending,
            budget,
            gamma,
            out: Vec::with_capacity(budget),
            stats: SpecStats::default(),
            t_off: t_cache.len(),
            done: budget == 0,
            frontier: d_frontier,
            confirmed: 0,
            expect: None,
            adaptive: None,
        };
        if !s.done {
            s.out.push(pending);
            s.stats.generated += 1;
            s.stats.prefill_tokens += 1;
            s.done = s.out.len() == s.budget;
        }
        s
    }

    /// Attach a per-session γ controller (see
    /// [`SpecSession::enable_adaptive_gamma`](crate::SpecSession::enable_adaptive_gamma)).
    pub fn enable_adaptive_gamma(&mut self, controller: AdaptiveGamma) {
        self.adaptive = Some(controller);
    }

    /// The γ underlying the current depth hint (diagnostics). An adaptive
    /// controller's proposal is bounded by the remaining budget, so a
    /// cold-start prior can never hint a depth past the collapsed lease.
    #[inline]
    pub fn gamma(&self) -> usize {
        match &self.adaptive {
            Some(a) => a.gamma_capped(self.budget.saturating_sub(self.out.len() + 1)),
            None => self.gamma,
        }
    }

    /// How deep the draft should be allowed to run ahead right now:
    /// [`DEPTH_FACTOR`]·γ, clamped to the ring's token range.
    pub fn depth_hint(&self) -> usize {
        (self.gamma() * DEPTH_FACTOR).clamp(1, MAX_GAMMA)
    }

    /// Ring occupancy at which a verify pass is worth paying for: a full
    /// [`VerifyHalf::depth_hint`] chain (plus the outstanding bonus-token
    /// resolution when one gates the chain), clamped to what the
    /// remaining budget can commit. Verifying below this depth spends a
    /// whole target weight sweep on a shallow prefix — the exact cost the
    /// async pipeline exists to amortize — so the scheduler should hold
    /// off until the ring fills, **unless** the draft cannot produce more
    /// (parked at its KV frontier, or already stopped); waiting then
    /// would idle forever.
    pub fn ready_depth(&self) -> usize {
        if self.done || self.budget - self.out.len() <= 1 {
            return 0;
        }
        let g_cap = (MAX_GAMMA - 1).min(self.budget - self.out.len() - 1);
        self.depth_hint().min(g_cap) + usize::from(self.expect.is_some())
    }

    /// Tokens emitted so far (monotone; committed tokens never change).
    #[inline]
    pub fn tokens(&self) -> &[u32] {
        &self.out
    }

    #[inline]
    pub fn stats(&self) -> &SpecStats {
        &self.stats
    }

    #[inline]
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Consume the session, yielding the stream and its counters.
    pub fn into_parts(self) -> (Vec<u32>, SpecStats) {
        (self.out, self.stats)
    }

    /// Run **one** verify step against whatever the draft has queued:
    /// resolve the expected bonus token if one is outstanding, gather up
    /// to `min(MAX_GAMMA−1, remaining−1)` proposals, score them plus the
    /// pending token in a single batched target pass, commit the accepted
    /// prefix, and either extend the confirmed chain (full accept) or
    /// hand the draft a rollback (rejection). With one token of budget
    /// left it plain-decodes that token without touching the ring.
    ///
    /// Never blocks: an empty ring yields `progressed: false` so the
    /// scheduler can account the idle stall and move to another session.
    pub fn try_step_block(
        &mut self,
        target: &Decoder,
        t_cache: &mut KvCache,
        ring: &SpscRing,
        ws: &mut Workspace,
    ) -> VerifyReport {
        if self.done {
            return VerifyReport {
                done: true,
                ..VerifyReport::idle()
            };
        }
        let vocab = target.cfg.vocab;
        let t_base = t_cache.len();
        debug_assert_eq!(t_base, self.t_off + self.out.len() - 1);
        let remaining = self.budget - self.out.len();
        if remaining == 1 {
            // Final token: plain decode, chain state irrelevant (the
            // draft worker is about to be stopped, not resynced).
            let mut logits = ws.take(vocab);
            target.forward_infer_ws(&[self.pending], t_cache, ws, &mut logits);
            let next = argmax(&logits) as u32;
            ws.give(logits);
            self.out.push(next);
            self.stats.blocks += 1;
            self.stats.generated += 1;
            self.done = true;
            return VerifyReport {
                committed: 1,
                done: true,
                progressed: true,
                rolled_back: false,
                depth: 0,
            };
        }

        // An outstanding bonus-token check gates the chain: the draft's
        // guess for the position the target already decided must match,
        // or everything queued extends a dead chain.
        let mut resolved_expect = false;
        if let Some(expected) = self.expect {
            let Some(tok) = ring.pop() else {
                return VerifyReport::idle();
            };
            if tok == expected {
                self.confirmed += 1;
                self.expect = None;
                resolved_expect = true;
            } else {
                ring.request_rollback(self.frontier + 1 + self.confirmed, expected);
                self.frontier += 1 + self.confirmed;
                self.confirmed = 0;
                self.expect = None;
                return VerifyReport {
                    committed: 0,
                    done: false,
                    progressed: true,
                    rolled_back: true,
                    depth: 0,
                };
            }
        }

        // Gather whatever the draft has in flight, bounded so the verify
        // block (pending + proposals) fits MAX_GAMMA rows and the commit
        // can never exceed the remaining budget.
        let g_cap = (MAX_GAMMA - 1).min(remaining - 1);
        let mut proposals = [0u32; MAX_GAMMA];
        let mut k = 0;
        while k < g_cap {
            match ring.pop() {
                Some(tok) => {
                    proposals[k] = tok;
                    k += 1;
                }
                None => break,
            }
        }
        if k == 0 {
            // Nothing to verify yet; resolving an expect above still
            // counts as progress (chain state advanced).
            return VerifyReport {
                progressed: resolved_expect,
                ..VerifyReport::idle()
            };
        }
        let proposals = &proposals[..k];

        // One (k+1)-row target pass scores pending + all k proposals.
        let mut v_logits = ws.take((k + 1) * vocab);
        let mut block = [0u32; MAX_GAMMA];
        block[0] = self.pending;
        block[1..=k].copy_from_slice(proposals);
        target.forward_infer_ws(&block[..=k], t_cache, ws, &mut v_logits);

        let mut accepted = 0;
        while accepted < k {
            let pred = argmax(&v_logits[accepted * vocab..(accepted + 1) * vocab]) as u32;
            if pred != proposals[accepted] {
                break;
            }
            accepted += 1;
        }
        let next = argmax(&v_logits[accepted * vocab..(accepted + 1) * vocab]) as u32;
        ws.give(v_logits);

        self.stats.blocks += 1;
        self.stats.drafted += k;
        self.stats.accepted += accepted;
        if let Some(ctl) = &mut self.adaptive {
            ctl.observe(k, accepted);
        }
        // k ≤ remaining − 1 ⇒ accepted + 1 ≤ remaining: no clamp needed,
        // unlike the sync loop (invariant: stats.generated == out.len()).
        let commit = accepted + 1;
        self.stats.generated += commit;
        self.out.extend_from_slice(&proposals[..accepted]);
        self.out.push(next);
        if self.out.len() >= self.budget {
            // Final block: skip the truncate, exactly like the sync loop.
            self.done = true;
            return VerifyReport {
                committed: commit,
                done: true,
                progressed: true,
                rolled_back: false,
                depth: k,
            };
        }
        t_cache.truncate(t_base + 1 + accepted);
        self.pending = next;
        let rolled_back = accepted < k;
        if rolled_back {
            // proposals[accepted] is chain token s_{confirmed+accepted+1};
            // restore the draft to just before it and resume from the
            // target's correction.
            ring.request_rollback(self.frontier + 1 + self.confirmed + accepted, next);
            self.frontier += 1 + self.confirmed + accepted;
            self.confirmed = 0;
        } else {
            // Full accept: the chain is still live; the draft's next
            // token must match `next` for it to stay that way.
            self.confirmed += k;
            self.expect = Some(next);
        }
        VerifyReport {
            committed: commit,
            done: false,
            progressed: true,
            rolled_back,
            depth: k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speculative_greedy_with_budget_ws;
    use aasd_nn::{DecoderConfig, KvPool};
    use aasd_tensor::Rng;

    fn tiny(seed: u64) -> Decoder {
        Decoder::new(DecoderConfig::tiny(40), seed)
    }

    /// Prefill a budget-collapsed pool lease: capacity is exactly
    /// `prompt.len() + budget − 1`, the engine's lease shape.
    fn prefill_lease(
        model: &Decoder,
        pool: &KvPool,
        prompt: &[u32],
        budget: usize,
        ws: &mut Workspace,
    ) -> (KvCache, u32) {
        let vocab = model.cfg.vocab;
        let mut cache = pool
            .try_lease(prompt.len() + budget.max(1) - 1)
            .expect("test pool too small");
        let mut logits = ws.take(prompt.len() * vocab);
        model.forward_infer_ws(prompt, &mut cache, ws, &mut logits);
        let pending = argmax(&logits[(prompt.len() - 1) * vocab..]) as u32;
        ws.give(logits);
        (cache, pending)
    }

    fn pool_for(model: &Decoder) -> KvPool {
        KvPool::new(model.cfg.n_layers, model.cfg.dim, 16, 64)
    }

    /// Drive both halves on one thread under a caller-chosen interleave:
    /// `draft_burst(i)` says how many draft steps to attempt before the
    /// i-th verify step. Any schedule must yield the same stream.
    #[allow(clippy::too_many_arguments)]
    fn drive(
        target: &Decoder,
        draft: &Decoder,
        prompt: &[u32],
        budget: usize,
        gamma: usize,
        adaptive: bool,
        ws: &mut Workspace,
        mut draft_burst: impl FnMut(usize) -> usize,
    ) -> (Vec<u32>, SpecStats) {
        let t_pool = pool_for(target);
        let d_pool = pool_for(draft);
        let (mut t_cache, pending) = prefill_lease(target, &t_pool, prompt, budget, ws);
        let (mut d_cache, _) = prefill_lease(draft, &d_pool, prompt, budget, ws);
        let ring = SpscRing::new(MAX_GAMMA);
        let mut verify = VerifyHalf::new(target, &t_cache, d_cache.len(), pending, budget, gamma);
        if adaptive {
            verify.enable_adaptive_gamma(AdaptiveGamma::new(0.25));
        }
        let mut da = DraftAhead::new(&mut d_cache, pending);
        let mut round = 0;
        while !verify.is_done() {
            for _ in 0..draft_burst(round) {
                match da.step(draft, &mut d_cache, &ring, verify.depth_hint(), ws) {
                    DraftStep::Produced | DraftStep::RolledBack => {}
                    DraftStep::AtDepthCap | DraftStep::AtCapacity | DraftStep::LowConfidence => {
                        break
                    }
                }
            }
            verify.try_step_block(target, &mut t_cache, &ring, ws);
            round += 1;
        }
        verify.into_parts()
    }

    /// The split halves must reproduce the fused loop's stream exactly,
    /// under maximal speculation (draft runs to its cap every round).
    #[test]
    fn split_halves_match_fused_loop_bursty() {
        let mut ws = Workspace::new();
        for (ts, ds, gamma, budget) in [
            (10u64, 20u64, 3usize, 25usize),
            (30, 31, 4, 17),
            (1, 2, 1, 9),
            (7, 7, 5, 30), // identical models: near-total acceptance
            (11, 99, 2, 12),
        ] {
            let target = tiny(ts);
            let draft = tiny(ds);
            let prompt = [3u32, 7, 1, 9];
            let (want, _) =
                speculative_greedy_with_budget_ws(&target, &draft, &prompt, budget, gamma, &mut ws);
            let (got, stats) = drive(
                &target,
                &draft,
                &prompt,
                budget,
                gamma,
                false,
                &mut ws,
                |_| usize::MAX,
            );
            assert_eq!(got, want, "seeds ({ts},{ds}) γ={gamma} budget={budget}");
            assert_eq!(stats.generated, budget);
        }
    }

    /// Starved schedules — the draft gets 0, 1, or a pseudorandom trickle
    /// of steps per round — must still produce the identical stream.
    #[test]
    fn split_halves_are_schedule_independent() {
        let mut ws = Workspace::new();
        let target = tiny(30);
        let draft = tiny(31);
        let prompt = [1u32, 2, 3];
        let budget = 17;
        let (want, _) =
            speculative_greedy_with_budget_ws(&target, &draft, &prompt, budget, 4, &mut ws);
        // One draft token per round: verify sees depth-1 blocks.
        let (got, _) = drive(&target, &draft, &prompt, budget, 4, false, &mut ws, |_| 1);
        assert_eq!(got, want, "trickle schedule diverged");
        // Alternating famine and burst.
        let (got, _) = drive(&target, &draft, &prompt, budget, 4, false, &mut ws, |r| {
            if r % 3 == 0 {
                0
            } else {
                5
            }
        });
        assert_eq!(got, want, "famine/burst schedule diverged");
        // Pseudorandom bursts.
        let mut rng = Rng::new(99);
        let (got, _) = drive(&target, &draft, &prompt, budget, 4, false, &mut ws, |_| {
            rng.below(9)
        });
        assert_eq!(got, want, "random schedule diverged");
    }

    /// Adaptive γ only changes how deep the draft runs, never the stream.
    #[test]
    fn adaptive_depth_is_lossless() {
        let mut ws = Workspace::new();
        let target = tiny(5);
        let draft = tiny(6);
        let prompt = [2u32, 8, 2, 8];
        let budget = 24;
        let (want, _) =
            speculative_greedy_with_budget_ws(&target, &draft, &prompt, budget, 3, &mut ws);
        let (got, _) = drive(&target, &draft, &prompt, budget, 3, true, &mut ws, |_| {
            usize::MAX
        });
        assert_eq!(got, want);
    }

    /// Tiny budgets: 0 is born done, 1 commits only the pending token,
    /// 2 adds exactly one plain-decoded token without touching the ring.
    #[test]
    fn degenerate_budgets() {
        let mut ws = Workspace::new();
        let target = tiny(50);
        let draft = tiny(51);
        let prompt = [1u32, 2];
        for budget in [0usize, 1, 2] {
            let (want, _) =
                speculative_greedy_with_budget_ws(&target, &draft, &prompt, budget, 3, &mut ws);
            let t_pool = pool_for(&target);
            let (mut t_cache, pending) = prefill_lease(&target, &t_pool, &prompt, budget, &mut ws);
            let mut verify = VerifyHalf::new(&target, &t_cache, 0, pending, budget, 3);
            let ring = SpscRing::new(4);
            while !verify.is_done() {
                let r = verify.try_step_block(&target, &mut t_cache, &ring, &mut ws);
                assert!(
                    r.progressed,
                    "budget {budget} must not stall: no draft needed"
                );
            }
            assert!(ring.is_empty(), "budget {budget} touched the ring");
            let (got, _) = verify.into_parts();
            assert_eq!(got, want, "budget {budget}");
        }
    }

    /// An empty ring is an idle stall, not progress — and the stall is
    /// side-effect free (no stats movement, no cache movement).
    #[test]
    fn empty_ring_reports_idle_stall() {
        let mut ws = Workspace::new();
        let target = tiny(60);
        let t_pool = pool_for(&target);
        let (mut t_cache, pending) = prefill_lease(&target, &t_pool, &[4u32, 2], 10, &mut ws);
        let mut verify = VerifyHalf::new(&target, &t_cache, 0, pending, 10, 3);
        let ring = SpscRing::new(8);
        let len_before = t_cache.len();
        let stats_before = verify.stats().clone();
        let r = verify.try_step_block(&target, &mut t_cache, &ring, &mut ws);
        assert_eq!(r, VerifyReport::idle());
        assert_eq!(t_cache.len(), len_before);
        assert_eq!(*verify.stats(), stats_before);
    }

    /// The rollback protocol end to end: garbage proposals force a
    /// rejection at position 0; the draft must restore to its frontier
    /// checkpoint and resume from the corrected token, after which the
    /// stream still completes correctly.
    #[test]
    fn garbage_proposals_roll_back_and_recover() {
        let mut ws = Workspace::new();
        let target = tiny(70);
        let draft = tiny(71);
        let prompt = [9u32, 0, 9];
        let budget = 12;
        let (want, _) =
            speculative_greedy_with_budget_ws(&target, &draft, &prompt, budget, 3, &mut ws);
        let t_pool = pool_for(&target);
        let d_pool = pool_for(&draft);
        let (mut t_cache, pending) = prefill_lease(&target, &t_pool, &prompt, budget, &mut ws);
        let (mut d_cache, _) = prefill_lease(&draft, &d_pool, &prompt, budget, &mut ws);
        let ring = SpscRing::new(MAX_GAMMA);
        let mut verify = VerifyHalf::new(&target, &t_cache, d_cache.len(), pending, budget, 3);
        let mut da = DraftAhead::new(&mut d_cache, pending);

        let mut rolled = false;
        while !verify.is_done() {
            while matches!(
                da.step(&draft, &mut d_cache, &ring, verify.depth_hint(), &mut ws),
                DraftStep::Produced | DraftStep::RolledBack
            ) {}
            let r = verify.try_step_block(&target, &mut t_cache, &ring, &mut ws);
            rolled |= r.rolled_back;
        }
        let (got, stats) = verify.into_parts();
        assert_eq!(got, want);
        assert_eq!(stats.generated, budget);
        // tiny(70) vs tiny(71) are different models: rejections happen.
        assert!(rolled, "workload failed to exercise rollback");
    }
}
