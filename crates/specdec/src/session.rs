//! Resumable, block-granular decode sessions.
//!
//! [`SpecSession`] is the one synchronous speculative state machine: one
//! [`SpecSession::step_block`] call executes exactly one
//! draft→verify→commit block (or one plain decode step when there is no
//! room to speculate), then returns control to the caller. A scheduler can
//! run block A of session 1, then block A of session 2, then block B of
//! session 1 — continuous batching at block granularity — and every session
//! still produces output token-identical to the one-shot loop, because the
//! one-shot loop is a thin driver over this session
//! (`speculative_greedy_seeded_ws` = `SpecSession::new` + `step_block`
//! until done). [`ArSession`] is the autoregressive counterpart.
//!
//! A block drafts a token tree shaped by the session's [`TreeConfig`] and
//! verifies it in one tree-attention target pass (see [`crate::tree`]).
//! The default shape, [`TreeConfig::linear`], is branching factor 1: the
//! classic γ-token chain, whose streams and [`SpecStats`] are pinned by
//! golden fingerprints in `tests/spec_golden.rs`.
//!
//! Sessions do **not** own the model or the caches; they own only the loop
//! state (pending token, emitted tokens, counters). The caller supplies the
//! same `target`/`draft`/`t_cache`/`d_cache`/`ws` on every step — in the
//! server each session slot owns its caches and workspace, while the models
//! are shared read-only across worker threads.

use crate::adaptive::AdaptiveGamma;
use crate::metrics::SpecStats;
use crate::tree::{expand, AcceptanceCalibrator, AcceptanceExample, TreeConfig, TreeNodes};
use crate::MAX_GAMMA;
use aasd_nn::{Decoder, KvCache};
use aasd_tensor::{argmax, Workspace};

/// What one [`SpecSession::step_block`] / [`ArSession::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepReport {
    /// Tokens newly committed to the output by this call.
    pub committed: usize,
    /// True once the session has emitted its full budget; further step
    /// calls are no-ops returning `committed: 0`.
    pub done: bool,
}

/// Resumable fused speculative decoding: the seeded pending-token-fold loop
/// (`speculative_greedy_seeded_ws`) cut at block boundaries.
///
/// Invariants between steps:
/// * `out` ends with the pending token;
/// * `t_cache.len() == t_off + out.len() − 1` and likewise for the draft —
///   **except after the final block**, which skips the commit to the caches
///   (the session is finished; the caches are about to be reset or
///   restored anyway).
#[derive(Debug, Clone)]
pub struct SpecSession {
    pending: u32,
    budget: usize,
    gamma: usize,
    tree: TreeConfig,
    out: Vec<u32>,
    stats: SpecStats,
    t_off: usize,
    d_off: usize,
    done: bool,
    /// Optional per-session γ controller; when set, γ is re-picked from the
    /// running acceptance estimate at the start of every block.
    adaptive: Option<AdaptiveGamma>,
    /// Target-cache prefix length treated as the vision prefix when
    /// measuring visual-attention mass (0 ⇒ text-only, no measurement).
    vis_boundary: usize,
    /// Lagged EWMA of the verify pass's mean visual-attention mass — the
    /// calibrator's modality feature for the NEXT block.
    vis_mass: f32,
    /// Calibrator training examples, when collection is enabled.
    examples: Option<Vec<AcceptanceExample>>,
}

impl SpecSession {
    /// Start a linear-chain session from pre-seeded caches (see
    /// `speculative_greedy_seeded_ws` for the cache contract). `pending` is
    /// the first target-decided token not yet fed to either cache; it is
    /// committed immediately (it was decided by prefill, so it lands in
    /// `SpecStats::prefill_tokens`), which is what makes time-to-first-token
    /// in a server equal to queue wait + prefill, not queue wait + prefill +
    /// first block.
    pub fn new(
        target: &Decoder,
        draft: &Decoder,
        t_cache: &KvCache,
        d_cache: &KvCache,
        pending: u32,
        budget: usize,
        gamma: usize,
    ) -> Self {
        assert!(
            (1..MAX_GAMMA).contains(&gamma),
            "gamma must be in 1..{MAX_GAMMA}"
        );
        // Leased caches may be smaller than the model's context window —
        // the binding bound is whichever is tighter.
        assert!(
            t_cache.len() + budget <= target.cfg.max_seq.min(t_cache.capacity()) + 1,
            "budget exceeds target context window / lease capacity"
        );
        assert!(
            d_cache.len() + budget <= draft.cfg.max_seq.min(d_cache.capacity()) + 1,
            "budget exceeds draft context window / lease capacity"
        );
        let mut s = Self {
            pending,
            budget,
            gamma,
            tree: TreeConfig::linear(),
            out: Vec::with_capacity(budget),
            stats: SpecStats::default(),
            t_off: t_cache.len(),
            d_off: d_cache.len(),
            done: budget == 0,
            adaptive: None,
            vis_boundary: 0,
            vis_mass: 0.0,
            examples: None,
        };
        if !s.done {
            s.out.push(pending);
            s.stats.generated += 1;
            s.stats.prefill_tokens += 1;
            s.done = s.out.len() == s.budget;
        }
        s
    }

    /// Draft a `tree`-shaped token tree per block instead of the linear
    /// chain. Lossless for every shape; only α/τ and cost move.
    pub fn with_tree(mut self, tree: TreeConfig) -> Self {
        assert!(tree.branch_factor >= 1, "branch factor must be at least 1");
        self.tree = tree;
        self
    }

    /// Treat the first `boundary` target-cache rows as the vision prefix:
    /// each verify pass then measures the visual-attention mass the
    /// acceptance calibrator reads (see [`SpecSession::visual_mass`]).
    pub fn with_vision_boundary(mut self, boundary: usize) -> Self {
        assert!(
            boundary <= self.t_off,
            "vision boundary beyond the prefilled target cache"
        );
        self.vis_boundary = boundary;
        self
    }

    /// Attach an [`AdaptiveGamma`] controller: from the next block on, γ is
    /// chosen per block from the session's own running acceptance rate
    /// instead of staying fixed. Greedy speculative decoding is lossless
    /// under **any** γ schedule, so this changes speed only, never tokens.
    pub fn enable_adaptive_gamma(&mut self, controller: AdaptiveGamma) {
        self.adaptive = Some(controller);
    }

    /// Record one [`AcceptanceExample`] per target-adjudicated candidate
    /// (drain with [`SpecSession::take_examples`]) — calibrator training
    /// data collection.
    pub fn enable_example_collection(&mut self) {
        self.examples.get_or_insert_with(Vec::new);
    }

    /// Drain the collected training examples.
    pub fn take_examples(&mut self) -> Vec<AcceptanceExample> {
        self.examples
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// The γ (node budget − 1) the next block will use (diagnostics).
    #[inline]
    pub fn gamma(&self) -> usize {
        self.adaptive.as_ref().map_or(self.gamma, |a| a.gamma())
    }

    /// The running visual-attention-mass feature (diagnostics; 0 without a
    /// vision boundary).
    #[inline]
    pub fn visual_mass(&self) -> f32 {
        self.vis_mass
    }

    /// Tokens emitted so far (monotone; committed tokens never change).
    #[inline]
    pub fn tokens(&self) -> &[u32] {
        &self.out
    }

    /// Counters so far; final once [`SpecSession::is_done`].
    #[inline]
    pub fn stats(&self) -> &SpecStats {
        &self.stats
    }

    #[inline]
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Consume the session, yielding exactly what the one-shot loop returns.
    pub fn into_parts(self) -> (Vec<u32>, SpecStats) {
        (self.out, self.stats)
    }

    /// Execute **one** speculative block: draft a token tree of at most γ
    /// proposals (node budget γ+1 rows, the pending token as root), score
    /// every node in a single tree-attention target pass, walk the longest
    /// accepted root-to-leaf path, and commit it plus the correction/bonus
    /// token. Falls back to one plain decode step when budget or context
    /// leaves no room to speculate. Must be called with the same
    /// models/caches/workspace the session was created against.
    pub fn step_block(
        &mut self,
        target: &Decoder,
        draft: &Decoder,
        t_cache: &mut KvCache,
        d_cache: &mut KvCache,
        ws: &mut Workspace,
    ) -> StepReport {
        if self.done {
            return StepReport {
                committed: 0,
                done: true,
            };
        }
        let before = self.out.len();
        let (t_vocab, d_vocab) = (target.cfg.vocab, draft.cfg.vocab);
        let t_base = t_cache.len();
        let d_base = d_cache.len();
        debug_assert_eq!(t_base, self.t_off + self.out.len() - 1);
        debug_assert_eq!(d_base, self.d_off + self.out.len() - 1);
        // The block feeds at most g+1 rows (pending + g proposals) to each
        // cache and commits at most g+1 new tokens; each model bounds g by
        // its own remaining room — the tighter of its context window and
        // its cache lease. `done == false` guarantees budget − out.len() ≥ 1,
        // and the constructor's budget asserts guarantee base + 1 ≤ the
        // bound, so the subtractions cannot underflow.
        let t_room = target.cfg.max_seq.min(t_cache.capacity()) - t_base - 1;
        let d_room = draft.cfg.max_seq.min(d_cache.capacity()) - d_base - 1;
        let room = t_room.min(d_room);
        if let Some(ctl) = &self.adaptive {
            // Bound the controller's proposal by what the lease and budget
            // can still hold, so a cold-start prior can never ask for a
            // depth the collapsed lease lacks room for.
            self.gamma = ctl.gamma_capped(room.min(self.budget - self.out.len() - 1));
        }
        let g = self.gamma.min(self.budget - self.out.len() - 1).min(room);
        if g == 0 {
            // One token of budget or context left: plain fused decode step.
            let mut logits = ws.take(t_vocab);
            target.forward_infer_ws(&[self.pending], t_cache, ws, &mut logits);
            let next = argmax(&logits) as u32;
            ws.give(logits);
            self.out.push(next);
            self.stats.blocks += 1;
            self.stats.generated += 1;
            if self.out.len() < self.budget {
                // Keep the caches in lockstep for the next block.
                let mut dl = ws.take(d_vocab);
                draft.forward_infer_ws(&[self.pending], d_cache, ws, &mut dl);
                ws.give(dl);
            } else {
                self.done = true;
            }
            self.pending = next;
            return StepReport {
                committed: self.out.len() - before,
                done: self.done,
            };
        }

        // Draft phase: grow the tree from the pending token. Depth ≤
        // min(max_depth, g), node budget g+1 — the rows a γ=g chain
        // verifies. A chain feeds the draft g tokens.
        let depth = match self.tree.max_depth {
            0 => g,
            d => d.min(g),
        };
        let mut nodes = TreeNodes::root(self.pending);
        expand(
            &mut nodes,
            0,
            draft,
            d_cache,
            ws,
            &self.tree,
            g + 1,
            depth,
            self.vis_mass,
        );
        let n = nodes.n;

        // Verify phase: ONE tree-attention target pass scores all n rows.
        let vis = nodes.ancestor_masks();
        let mut v_logits = ws.take(n * t_vocab);
        let mut mass = [0.0f32; MAX_GAMMA];
        target.forward_infer_tree_ws(
            &nodes.toks[..n],
            &nodes.depths[..n],
            &vis[..n],
            self.vis_boundary,
            t_cache,
            ws,
            &mut v_logits,
            &mut mass[..n],
        );

        // Accept walk: from the root, follow the child matching the
        // target's argmax (greedy drafting makes children distinct, so at
        // most one matches). The exit prediction is the correction token
        // on mismatch and the free bonus token at a leaf — uniformly.
        let row = |i: usize| &v_logits[i * t_vocab..(i + 1) * t_vocab];
        let mut path = [0usize; MAX_GAMMA];
        let mut plen = 1usize;
        let next = loop {
            let cur = path[plen - 1];
            let pred = argmax(row(cur)) as u32;
            match (cur + 1..n).find(|&c| nodes.parents[c] == cur && nodes.toks[c] == pred) {
                Some(hit) => {
                    path[plen] = hit;
                    plen += 1;
                }
                None => break pred,
            }
        };
        let accepted = plen - 1;

        if let Some(examples) = &mut self.examples {
            // Every candidate whose parent lies on the accepted path was
            // adjudicated by this verify pass — label it.
            for c in 1..n {
                let p = nodes.parents[c];
                if path[..plen].contains(&p) {
                    let pred = argmax(row(p)) as u32;
                    examples.push(AcceptanceExample {
                        features: AcceptanceCalibrator::features(
                            nodes.probs[c],
                            nodes.tops[c],
                            nodes.depths[c] as f32 / depth as f32,
                            self.vis_mass,
                        ),
                        label: if nodes.toks[c] == pred { 1.0 } else { 0.0 },
                    });
                }
            }
        }
        ws.give(v_logits);

        if self.vis_boundary > 0 {
            let mean = mass[..n].iter().sum::<f32>() / n as f32;
            self.vis_mass = 0.7 * self.vis_mass + 0.3 * mean;
        }

        self.stats.blocks += 1;
        self.stats.drafted += n - 1;
        self.stats.accepted += accepted;
        if let Some(ctl) = &mut self.adaptive {
            // Chain-equivalent observation: the greedy chain ran the full
            // depth budget; `accepted` of it survived.
            ctl.observe(depth, accepted);
        }
        // Commit the accepted path plus the new pending token, clamped to
        // the remaining budget (invariant: stats.generated == out.len()).
        let commit = (accepted + 1).min(self.budget - self.out.len());
        self.stats.generated += commit;
        self.out.extend(
            path[1..=commit.min(accepted)]
                .iter()
                .map(|&p| nodes.toks[p]),
        );
        if commit > accepted {
            self.out.push(next);
        }
        if self.out.len() >= self.budget {
            // Final block: the session is finished, skip the cache commit.
            self.done = true;
            return StepReport {
                committed: self.out.len() - before,
                done: true,
            };
        }
        // Commit the accepted path to both caches. Target: compact its rows
        // down over the rejected siblings (an identity at branching factor
        // 1, leaving a plain rollback). Draft: keep the rows the accepted
        // path shares with the root path the drafting left cached, and
        // refeed only the rest in one batched forward — bit-identical to
        // sequential feeds. A chain shares everything but the last
        // proposal, which is refed only when the whole chain was accepted.
        t_cache.gather_tail(t_base, &path[..plen]);
        let cached = d_cache.len() - d_base;
        let shared = (0..cached.min(plen))
            .take_while(|&k| nodes.fed[k] == path[k])
            .count();
        d_cache.truncate(d_base + shared);
        if shared < plen {
            let mut refeed = [0u32; MAX_GAMMA];
            for (r, &p) in refeed.iter_mut().zip(&path[shared..plen]) {
                *r = nodes.toks[p];
            }
            let rows = plen - shared;
            let mut dl = ws.take(rows * d_vocab);
            draft.forward_infer_ws(&refeed[..rows], d_cache, ws, &mut dl);
            ws.give(dl);
        }
        self.pending = next;
        StepReport {
            committed: self.out.len() - before,
            done: false,
        }
    }
}

/// Resumable fused autoregressive decoding: the seeded greedy loop
/// (`autoregressive_greedy_seeded_ws`) cut at single-token granularity, so
/// a scheduler can interleave AR sessions exactly like speculative ones
/// (one "block" = one token). This is the serving baseline speculative
/// scheduling is benchmarked against.
#[derive(Debug, Clone)]
pub struct ArSession {
    pending: u32,
    budget: usize,
    out: Vec<u32>,
    done: bool,
}

impl ArSession {
    /// Start from a pre-seeded cache; `pending` is the first target-decided
    /// token not yet fed back (committed immediately, mirroring
    /// [`SpecSession::new`]).
    pub fn new(target: &Decoder, cache: &KvCache, pending: u32, budget: usize) -> Self {
        assert!(
            cache.len() + budget <= target.cfg.max_seq.min(cache.capacity()) + 1,
            "budget exceeds context window / lease capacity"
        );
        let mut s = Self {
            pending,
            budget,
            out: Vec::with_capacity(budget),
            done: budget == 0,
        };
        if !s.done {
            s.out.push(pending);
            s.done = s.out.len() == s.budget;
        }
        s
    }

    #[inline]
    pub fn tokens(&self) -> &[u32] {
        &self.out
    }

    #[inline]
    pub fn is_done(&self) -> bool {
        self.done
    }

    pub fn into_tokens(self) -> Vec<u32> {
        self.out
    }

    /// Decode one token: feed the pending token, commit its argmax.
    pub fn step(
        &mut self,
        target: &Decoder,
        cache: &mut KvCache,
        ws: &mut Workspace,
    ) -> StepReport {
        if self.done {
            return StepReport {
                committed: 0,
                done: true,
            };
        }
        let mut logits = ws.take(target.cfg.vocab);
        target.forward_infer_ws(&[self.pending], cache, ws, &mut logits);
        let next = argmax(&logits) as u32;
        ws.give(logits);
        self.out.push(next);
        self.pending = next;
        self.done = self.out.len() == self.budget;
        StepReport {
            committed: 1,
            done: self.done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{autoregressive_greedy_with_budget, speculative_greedy_with_budget_ws};
    use aasd_nn::{DecoderConfig, KernelPolicy};
    use aasd_tensor::{Op, Rng};

    fn tiny(seed: u64) -> Decoder {
        Decoder::new(DecoderConfig::tiny(40), seed)
    }

    fn prefill(model: &Decoder, prompt: &[u32], ws: &mut Workspace) -> (KvCache, u32) {
        let vocab = model.cfg.vocab;
        let mut cache = model.new_cache();
        let mut logits = ws.take(prompt.len() * vocab);
        model.forward_infer_ws(prompt, &mut cache, ws, &mut logits);
        let pending = argmax(&logits[(prompt.len() - 1) * vocab..]) as u32;
        ws.give(logits);
        (cache, pending)
    }

    /// Two sessions interleaved block-by-block on one workspace must each
    /// produce exactly what a dedicated one-shot loop produces — the
    /// property that makes continuous batching lossless.
    #[test]
    fn interleaved_sessions_match_one_shot_loops() {
        let target = tiny(10);
        let draft = tiny(20);
        let mut ws = Workspace::new();
        let p1 = [3u32, 7, 1, 9];
        let p2 = [5u32, 2];
        let (want1, stats1) =
            speculative_greedy_with_budget_ws(&target, &draft, &p1, 25, 3, &mut ws);
        let (want2, stats2) =
            speculative_greedy_with_budget_ws(&target, &draft, &p2, 18, 5, &mut ws);

        let (mut tc1, pend1) = prefill(&target, &p1, &mut ws);
        let (mut dc1, _) = prefill(&draft, &p1, &mut ws);
        let (mut tc2, pend2) = prefill(&target, &p2, &mut ws);
        let (mut dc2, _) = prefill(&draft, &p2, &mut ws);
        let mut s1 = SpecSession::new(&target, &draft, &tc1, &dc1, pend1, 25, 3);
        let mut s2 = SpecSession::new(&target, &draft, &tc2, &dc2, pend2, 18, 5);

        // Strict alternation; one session finishes first, the other keeps
        // stepping alone.
        while !s1.is_done() || !s2.is_done() {
            s1.step_block(&target, &draft, &mut tc1, &mut dc1, &mut ws);
            s2.step_block(&target, &draft, &mut tc2, &mut dc2, &mut ws);
        }
        let (out1, got_stats1) = s1.into_parts();
        let (out2, got_stats2) = s2.into_parts();
        assert_eq!(out1, want1);
        assert_eq!(out2, want2);
        assert_eq!(got_stats1, stats1);
        assert_eq!(got_stats2, stats2);
    }

    /// StepReport totals must reconcile with the emitted token count, and a
    /// finished session must refuse further work.
    #[test]
    fn step_reports_account_for_every_token() {
        let target = tiny(30);
        let draft = tiny(31);
        let mut ws = Workspace::new();
        let p = [1u32, 2, 3];
        let budget = 17;
        let (mut tc, pending) = prefill(&target, &p, &mut ws);
        let (mut dc, _) = prefill(&draft, &p, &mut ws);
        let mut s = SpecSession::new(&target, &draft, &tc, &dc, pending, budget, 4);
        let mut committed = s.tokens().len(); // the pending token
        assert_eq!(committed, 1);
        while !s.is_done() {
            let r = s.step_block(&target, &draft, &mut tc, &mut dc, &mut ws);
            assert!(r.committed >= 1, "an unfinished step must commit");
            committed += r.committed;
        }
        assert_eq!(committed, budget);
        assert_eq!(s.tokens().len(), budget);
        let r = s.step_block(&target, &draft, &mut tc, &mut dc, &mut ws);
        assert_eq!(
            r,
            StepReport {
                committed: 0,
                done: true
            }
        );
    }

    /// The AR session stepped to completion equals the reference loop.
    #[test]
    fn ar_session_matches_reference() {
        let target = tiny(40);
        let mut ws = Workspace::new();
        let p = [4u32, 4, 2];
        let budget = 12;
        let want = autoregressive_greedy_with_budget(&target, &p, budget);
        let (mut cache, pending) = prefill(&target, &p, &mut ws);
        let mut s = ArSession::new(&target, &cache, pending, budget);
        while !s.is_done() {
            s.step(&target, &mut cache, &mut ws);
        }
        assert_eq!(s.into_tokens(), want);
    }

    /// Zero-budget sessions are born done and commit nothing.
    #[test]
    fn zero_budget_session_is_immediately_done() {
        let target = tiny(50);
        let draft = tiny(51);
        let mut ws = Workspace::new();
        let (tc, pending) = prefill(&target, &[1, 2], &mut ws);
        let (dc, _) = prefill(&draft, &[1, 2], &mut ws);
        let s = SpecSession::new(&target, &draft, &tc, &dc, pending, 0, 3);
        assert!(s.is_done());
        assert!(s.tokens().is_empty());
        let a = ArSession::new(&target, &tc, pending, 0);
        assert!(a.is_done());
    }

    /// Budget-1 sessions commit exactly the pending token at construction.
    #[test]
    fn budget_one_session_emits_only_pending() {
        let target = tiny(52);
        let draft = tiny(53);
        let mut ws = Workspace::new();
        let mut rng = Rng::new(4);
        let p: Vec<u32> = (0..3).map(|_| rng.below(40) as u32).collect();
        let (tc, pending) = prefill(&target, &p, &mut ws);
        let (dc, _) = prefill(&draft, &p, &mut ws);
        let s = SpecSession::new(&target, &draft, &tc, &dc, pending, 1, 3);
        assert!(s.is_done());
        assert_eq!(s.tokens(), &[pending]);
        let (out, stats) = s.into_parts();
        assert_eq!(out, vec![pending]);
        assert_eq!(stats.generated, 1);
        assert_eq!(stats.prefill_tokens, 1);
        assert_eq!(stats.blocks, 0);
    }

    /// Draft-forward cost of a linear (branching-factor-1) block, counted
    /// as decoder forwards (one `Embed` op each). A block drafting g
    /// proposals feeds the draft g tokens, verifies once, and refeeds the
    /// last proposal only when the whole chain was accepted and the session
    /// goes on: g+1 forwards after a rejection, g+2 after a full accept
    /// (never more than γ+2), 2 for a plain decode step.
    #[test]
    fn linear_blocks_refeed_only_after_full_acceptance() {
        let target = tiny(54);
        let mut int8 = target.clone();
        int8.set_kernel_policy(KernelPolicy::Int8);
        let drafts = [tiny(55), int8, target.clone()];
        let mut ws = Workspace::new();
        ws.prof.enable();
        let (mut rejections, mut full_accepts) = (0, 0);
        for draft in &drafts {
            for gamma in [1usize, 3, 5] {
                let p = [6u32, 1, 33, 8];
                let (mut tc, pending) = prefill(&target, &p, &mut ws);
                let (mut dc, _) = prefill(draft, &p, &mut ws);
                let mut s = SpecSession::new(&target, draft, &tc, &dc, pending, 40, gamma);
                let mut total = 0;
                while !s.is_done() {
                    let (calls, before) = (ws.prof.calls(Op::Embed), s.stats().clone());
                    let r = s.step_block(&target, draft, &mut tc, &mut dc, &mut ws);
                    let fwd = (ws.prof.calls(Op::Embed) - calls) as usize;
                    let g = s.stats().drafted - before.drafted;
                    let acc = s.stats().accepted - before.accepted;
                    total += fwd;
                    assert!(fwd <= gamma + 2, "γ={gamma}: {fwd} forwards in one block");
                    if g == 0 {
                        assert!(fwd <= 2, "plain decode step took {fwd} forwards");
                    } else if acc < g {
                        rejections += 1;
                        assert_eq!(fwd, g + 1, "a rejected block must not refeed");
                    } else if !r.done {
                        full_accepts += 1;
                        assert_eq!(fwd, g + 2, "a full accept refeeds one proposal");
                    }
                }
                assert!(total <= s.stats().blocks * (gamma + 2));
            }
        }
        assert!(
            rejections > 0 && full_accepts > 0,
            "sweep missed a block kind"
        );
    }
}
