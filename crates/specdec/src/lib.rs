//! `aasd-specdec` — speculative decoding engine (greedy/lossless core).
//!
//! Speculative decoding (Leviathan et al. 2023; Gagrani et al. 2024 for the
//! MLLM setting) lets a cheap *draft* model propose γ tokens which the
//! expensive *target* model then scores in **one** batched forward pass.
//! Acceptance is greedy: a proposal is committed only when it IS the
//! target's argmax, so the output is token-identical to
//! [`autoregressive_greedy`] on the same target (the root integration tests
//! assert this). Greedy acceptance is the one-hot special case of Leviathan
//! rejection sampling; this crate implements only the greedy rule — there
//! is no sampled acceptance mode.
//!
//! The decode loop is one state machine, [`SpecSession`]: each
//! [`SpecSession::step_block`] drafts a token tree (a γ-token chain by
//! default — see [`tree`]), verifies it in one target pass that also scores
//! the pending token left by the previous block (the **pending-token
//! fold**: the correction/bonus token of block *n* is scored inside block
//! *n+1*'s batched pass instead of paying its own single-token resync
//! forward), and commits the accepted path. [`speculative_greedy_seeded_ws`]
//! and [`speculative_greedy_with_budget_ws`] are its one-shot drivers; the
//! serving scheduler steps sessions block by block. The asynchronous
//! pipeline ([`pipeline`]) splits the same block into a free-running draft
//! half and a verify half.
//!
//! Alongside it live the allocating reference loops —
//! [`speculative_greedy`], [`autoregressive_greedy`], [`verify_greedy`]
//! and the sequential [`verify_greedy_sequential`] — kept as semantic
//! oracles and bench baselines.
//!
//! Kernel policy rides on the models, not the loops: a `Decoder` switched
//! to `aasd_nn::KernelPolicy::Int8` runs its fused forwards on the int8
//! kernels inside every session and loop here with no API change. The
//! quantized forward is bit-identical between single-token decode and
//! batched verify (per-row kernels), so losslessness (spec ≡ AR on the
//! same target) holds under either policy — and draft and target may run
//! different policies (`tests/int8_equivalence.rs` pins both properties).

pub mod adaptive;
pub mod cost;
pub mod metrics;
pub mod pipeline;
pub mod ring;
pub mod session;
pub mod tree;

pub use adaptive::AdaptiveGamma;
pub use cost::{fp16_bytes, DeviceClock};
pub use metrics::SpecStats;
pub use pipeline::{DraftAhead, DraftStep, VerifyHalf, VerifyReport, CONFIDENCE_STOP};
pub use ring::{Rollback, SpscRing};
pub use session::{ArSession, SpecSession, StepReport};
pub use tree::{AcceptanceCalibrator, AcceptanceExample, TreeConfig, CALIBRATOR_FEATURES};

use aasd_nn::{Decoder, KvCache};
use aasd_tensor::{argmax, Tensor, Workspace};

/// Exclusive upper bound on γ, shared by the session and the reference
/// loop. The session builds its token tree in `[_; MAX_GAMMA]` stack
/// buffers (and tree-verify masks are 64-bit), and the reference loop
/// enforces the same bound so both accept and reject identical γ values
/// (regression-tested below). Any realistic speculative depth is far below
/// this.
pub const MAX_GAMMA: usize = 64;

/// Result of verifying one γ-token draft block against the target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyOutcome {
    /// Length of the accepted draft prefix (`0..=γ`).
    pub accepted: usize,
    /// The target-sanctioned token that follows the accepted prefix: the
    /// correction token on first mismatch, or the bonus token when the
    /// whole block is accepted.
    pub next_token: u32,
}

/// Batched greedy verify: score all `draft` tokens in a single target
/// forward pass over `cache`.
///
/// On entry `cache` holds the committed context (length `L`) and
/// `frontier_logits` is the target's next-token distribution at position
/// `L` (produced when the last committed token was fed). On exit the cache
/// is rolled back to `L + accepted` — rejected speculative KV entries are
/// discarded in O(1).
pub fn verify_greedy(
    target: &Decoder,
    cache: &mut KvCache,
    frontier_logits: &[f32],
    draft: &[u32],
) -> VerifyOutcome {
    assert!(!draft.is_empty(), "empty draft block");
    let base = cache.len();
    // ONE forward for all γ tokens: 1 weight pass instead of γ.
    let logits = target.forward_infer(draft, cache);

    // Target prediction for draft[i]: frontier for i = 0, else row i-1.
    let mut accepted = 0;
    while accepted < draft.len() {
        let pred = if accepted == 0 {
            argmax(frontier_logits) as u32
        } else {
            argmax(logits.row(accepted - 1)) as u32
        };
        if pred != draft[accepted] {
            cache.truncate(base + accepted);
            return VerifyOutcome {
                accepted,
                next_token: pred,
            };
        }
        accepted += 1;
    }
    // Fully accepted: the last logits row is a free bonus token.
    let bonus = argmax(logits.row(draft.len() - 1)) as u32;
    cache.truncate(base + accepted);
    VerifyOutcome {
        accepted,
        next_token: bonus,
    }
}

/// Reference verify: same semantics as [`verify_greedy`] but paying γ
/// sequential single-token forwards. Kept for the equivalence property test
/// and as the baseline the `verify` bench measures the batched win against.
pub fn verify_greedy_sequential(
    target: &Decoder,
    cache: &mut KvCache,
    frontier_logits: &[f32],
    draft: &[u32],
) -> VerifyOutcome {
    assert!(!draft.is_empty(), "empty draft block");
    let base = cache.len();
    let mut pred = argmax(frontier_logits) as u32;
    for (i, &d) in draft.iter().enumerate() {
        if pred != d {
            cache.truncate(base + i);
            return VerifyOutcome {
                accepted: i,
                next_token: pred,
            };
        }
        let logits = target.forward_infer(&[d], cache);
        pred = argmax(logits.row(0)) as u32;
    }
    cache.truncate(base + draft.len());
    VerifyOutcome {
        accepted: draft.len(),
        next_token: pred,
    }
}

/// Greedy autoregressive reference decoder: `max_new` tokens, one target
/// forward each. This is both the correctness oracle for losslessness tests
/// and the walltime baseline speculative decoding is measured against.
pub fn autoregressive_greedy(target: &Decoder, prompt: &[u32], max_new: usize) -> Vec<u32> {
    let budget = decode_budget(target, prompt.len(), max_new);
    autoregressive_greedy_with_budget(target, prompt, budget)
}

/// [`autoregressive_greedy`] with an explicit token budget instead of a
/// `max_new` cap. The true feasible budget is `max_seq − prompt + 1` — one
/// more than [`decode_budget`] hands out — because the final token is
/// emitted without ever being fed back through the cache. Exposing it lets
/// callers (and the g = 0 regression tests) drive decoding flush against
/// the context boundary.
pub fn autoregressive_greedy_with_budget(
    target: &Decoder,
    prompt: &[u32],
    budget: usize,
) -> Vec<u32> {
    assert!(!prompt.is_empty(), "empty prompt");
    assert!(
        budget <= target.cfg.max_seq + 1 - prompt.len(),
        "budget exceeds context window"
    );
    let mut cache = target.new_cache();
    let mut logits = target.forward_infer(prompt, &mut cache);
    let mut out = Vec::with_capacity(budget);
    while out.len() < budget {
        let tok = Decoder::greedy_from_logits(&logits);
        out.push(tok);
        if out.len() == budget {
            break;
        }
        logits = target.forward_infer(&[tok], &mut cache);
    }
    out
}

/// How many new tokens fit under the model's `max_seq` for this prompt,
/// conservatively: every emitted token except the last could be fed back,
/// so this stays one short of the true feasible budget (see
/// [`autoregressive_greedy_with_budget`]).
fn decode_budget(model: &Decoder, prompt_len: usize, max_new: usize) -> usize {
    max_new.min(model.cfg.max_seq.saturating_sub(prompt_len))
}

/// The greedy draft-then-verify loop.
///
/// Per block: the draft proposes up to `gamma` tokens autoregressively on
/// its own cache; [`verify_greedy`] scores them in one batched target pass;
/// the accepted prefix plus the correction/bonus token are committed; both
/// caches are rolled back to the committed frontier. Returns the generated
/// tokens (identical to [`autoregressive_greedy`] on the same target) and
/// the run's [`SpecStats`].
pub fn speculative_greedy(
    target: &Decoder,
    draft: &Decoder,
    prompt: &[u32],
    max_new: usize,
    gamma: usize,
) -> (Vec<u32>, SpecStats) {
    // Respect both models' context windows.
    let budget = decode_budget(target, prompt.len(), max_new).min(decode_budget(
        draft,
        prompt.len(),
        max_new,
    ));
    speculative_greedy_with_budget(target, draft, prompt, budget, gamma)
}

/// [`speculative_greedy`] with an explicit token budget (see
/// [`autoregressive_greedy_with_budget`] for why the feasible budget is one
/// more than [`decode_budget`] grants). At the extended budget the loop can
/// reach a committed frontier with zero context room left to speculate, so
/// this entry point is what exercises the g = 0 plain-decode fallback.
pub fn speculative_greedy_with_budget(
    target: &Decoder,
    draft: &Decoder,
    prompt: &[u32],
    budget: usize,
    gamma: usize,
) -> (Vec<u32>, SpecStats) {
    assert!(!prompt.is_empty(), "empty prompt");
    assert!(
        (1..MAX_GAMMA).contains(&gamma),
        "gamma must be in 1..{MAX_GAMMA}"
    );
    assert!(
        budget <= target.cfg.max_seq.min(draft.cfg.max_seq) + 1 - prompt.len(),
        "budget exceeds context window"
    );

    let mut stats = SpecStats::default();
    let mut out: Vec<u32> = Vec::with_capacity(budget);

    let mut t_cache = target.new_cache();
    let mut frontier = last_row(target.forward_infer(prompt, &mut t_cache));
    let mut d_cache = draft.new_cache();
    let mut d_frontier = last_row(draft.forward_infer(prompt, &mut d_cache));

    while out.len() < budget {
        let committed = t_cache.len();
        debug_assert_eq!(committed, d_cache.len());
        // Cap the block by the remaining token budget and by context room
        // for the speculative extension (+1 for the commit of next_token).
        let room = target
            .cfg
            .max_seq
            .min(draft.cfg.max_seq)
            .saturating_sub(committed + 1);
        let g = gamma.min(budget - out.len()).min(room);
        if g == 0 {
            // No room to speculate: fall back to one plain decode step.
            // Both caches must advance, or the committed frontiers diverge
            // and the next block verifies against a stale draft context.
            let tok = argmax(&frontier) as u32;
            out.push(tok);
            if out.len() < budget {
                frontier = last_row(target.forward_infer(&[tok], &mut t_cache));
                d_frontier = last_row(draft.forward_infer(&[tok], &mut d_cache));
            }
            stats.blocks += 1;
            stats.generated += 1;
            continue;
        }

        // Draft proposes g tokens greedily on its own cache.
        let mut proposals = Vec::with_capacity(g);
        for _ in 0..g {
            let tok = argmax(&d_frontier) as u32;
            proposals.push(tok);
            d_frontier = last_row(draft.forward_infer(&[tok], &mut d_cache));
        }

        // One batched target pass scores the whole block.
        let outcome = verify_greedy(target, &mut t_cache, &frontier, &proposals);

        stats.blocks += 1;
        stats.drafted += g;
        // α measures draft/target alignment, so `accepted` counts every
        // agreement, even one the budget then truncates away.
        stats.accepted += outcome.accepted;
        // `generated` counts tokens actually committed to the output: the
        // final block is clamped to the remaining budget so the bonus/
        // correction token is never over-counted past it. Invariant:
        // stats.generated == out.len() at every exit.
        let commit = (outcome.accepted + 1).min(budget - out.len());
        stats.generated += commit;
        out.extend_from_slice(&proposals[..commit.min(outcome.accepted)]);
        if commit > outcome.accepted {
            out.push(outcome.next_token);
        }

        // Re-sync both caches to the committed frontier and feed the
        // correction/bonus token to obtain the next frontier logits.
        if out.len() >= budget {
            break;
        }
        frontier = last_row(target.forward_infer(&[outcome.next_token], &mut t_cache));
        d_cache.truncate(committed + outcome.accepted);
        d_frontier = last_row(draft.forward_infer(&[outcome.next_token], &mut d_cache));
    }
    debug_assert_eq!(stats.generated, out.len());
    (out, stats)
}

/// Empirical acceptance-rate harness: run [`speculative_greedy`] over a set
/// of prompts and merge the per-run [`SpecStats`] into dataset-level
/// counters. `stats.acceptance_rate()` on the result is the α that the
/// training stack's distillation is meant to raise.
///
/// A single global merge hides distribution shift — PR 5 measured α spanning
/// 0.06–1.0 across prompt families while the pooled number looked healthy.
/// When the prompt set mixes workloads, use [`measure_acceptance_grouped`]
/// and report each group's α separately.
pub fn measure_acceptance(
    target: &Decoder,
    draft: &Decoder,
    prompts: &[Vec<u32>],
    max_new: usize,
    gamma: usize,
) -> SpecStats {
    let groups = [("all", prompts)];
    measure_acceptance_grouped(target, draft, &groups, max_new, gamma)
        .pop()
        .expect("one group in, one group out")
        .1
}

/// Per-group acceptance harness: like [`measure_acceptance`], but each named
/// prompt group gets its **own** merged [`SpecStats`], so per-workload α/τ
/// stay visible instead of being pooled into one global merge. Group order
/// is preserved in the output.
pub fn measure_acceptance_grouped<'a>(
    target: &Decoder,
    draft: &Decoder,
    groups: &[(&'a str, &[Vec<u32>])],
    max_new: usize,
    gamma: usize,
) -> Vec<(&'a str, SpecStats)> {
    groups
        .iter()
        .map(|(name, prompts)| {
            let mut total = SpecStats::default();
            for p in *prompts {
                let (_, stats) = speculative_greedy(target, draft, p, max_new, gamma);
                total.merge(&stats);
            }
            (*name, total)
        })
        .collect()
}

fn last_row(logits: Tensor) -> Vec<f32> {
    logits.row(logits.rows - 1).to_vec()
}

/// Greedy autoregressive decoding on the fused zero-allocation path: same
/// output as [`autoregressive_greedy_with_budget`], but every forward runs
/// through [`Decoder::forward_infer_ws`] with scratch drawn from `ws`. This
/// is the honest walltime baseline for the fused speculative loop.
pub fn autoregressive_greedy_with_budget_ws(
    target: &Decoder,
    prompt: &[u32],
    budget: usize,
    ws: &mut Workspace,
) -> Vec<u32> {
    assert!(!prompt.is_empty(), "empty prompt");
    assert!(
        budget <= target.cfg.max_seq + 1 - prompt.len(),
        "budget exceeds context window"
    );
    let vocab = target.cfg.vocab;
    let mut cache = target.new_cache();
    let mut prefill = ws.take(prompt.len() * vocab);
    target.forward_infer_ws(prompt, &mut cache, ws, &mut prefill);
    let pending = argmax(&prefill[(prompt.len() - 1) * vocab..]) as u32;
    ws.give(prefill);
    autoregressive_greedy_seeded_ws(target, &mut cache, pending, budget, ws)
}

/// Continue fused greedy decoding from a **pre-seeded cache**: `cache`
/// already holds an arbitrary committed context (text prompt, or a vision
/// prefix ∥ text prompt in the multimodal path) and `pending` is the first
/// target-decided token that has not yet been fed back. Emits `budget`
/// tokens starting with `pending`.
///
/// This is the autoregressive half of the seeded-loop API that lets
/// `aasd-mm` run LlavaSim prefill (vision embeddings through the decoder,
/// then text) and hand the frontier to the same loop the text path uses.
pub fn autoregressive_greedy_seeded_ws(
    target: &Decoder,
    cache: &mut KvCache,
    pending: u32,
    budget: usize,
    ws: &mut Workspace,
) -> Vec<u32> {
    // All committed tokens except the final one are fed back through the
    // cache, so the true feasible budget is the remaining room plus one
    // (asserted by [`ArSession::new`]). One-shot driver over the resumable
    // [`ArSession`] — the scheduler steps the same state machine block by
    // block, so serving inherits this loop's semantics verbatim.
    let mut session = ArSession::new(target, cache, pending, budget);
    while !session.is_done() {
        session.step(target, cache, ws);
    }
    session.into_tokens()
}

/// The fused speculative loop: zero-allocation forwards plus the
/// **pending-token fold**.
///
/// The reference loop pays, per block, one batched verify pass *and* one
/// single-token resync pass to feed the correction/bonus token back through
/// the target. Here that token stays *pending* — emitted to the output but
/// not yet fed to either cache — and the next block verifies
/// `[pending, p₁..p_g]` in a single `(g+1)`-token pass. Loop invariant:
/// `out` ends with the pending token and both caches hold exactly
/// `prompt.len() + out.len() − 1` positions.
///
/// Per-block cost drops from `verify(γ) + step(1)` to `verify(γ+1)`; at the
/// measured cost model (verify slope ≈ 0.4× a full step per token) that
/// roughly halves the per-block overhead, moving the break-even acceptance
/// rate from α ≈ 0.85 down to α ≈ 0.55 at γ = 2–3.
///
/// Output is token-identical to [`autoregressive_greedy_with_budget`]
/// (greedy/lossless). Stats follow the same conventions as the reference
/// loop: the first token (determined by the prompt prefill alone) is
/// recorded in `SpecStats::prefill_tokens` and excluded from
/// `block_efficiency()`, so τ ≤ γ+1 holds on both loops.
pub fn speculative_greedy_with_budget_ws(
    target: &Decoder,
    draft: &Decoder,
    prompt: &[u32],
    budget: usize,
    gamma: usize,
    ws: &mut Workspace,
) -> (Vec<u32>, SpecStats) {
    assert!(!prompt.is_empty(), "empty prompt");
    assert!(
        (1..MAX_GAMMA).contains(&gamma),
        "gamma must be in 1..{MAX_GAMMA}"
    );
    let min_max_seq = target.cfg.max_seq.min(draft.cfg.max_seq);
    assert!(
        budget <= min_max_seq + 1 - prompt.len(),
        "budget exceeds context window"
    );
    if budget == 0 {
        return (Vec::new(), SpecStats::default());
    }
    let (t_vocab, d_vocab) = (target.cfg.vocab, draft.cfg.vocab);

    let mut t_cache = target.new_cache();
    let mut d_cache = draft.new_cache();
    // Prefill both models; the first output token is already decided by the
    // target's prompt logits, so it starts life as the pending token.
    let mut prefill = ws.take(prompt.len() * t_vocab);
    target.forward_infer_ws(prompt, &mut t_cache, ws, &mut prefill);
    let pending = argmax(&prefill[(prompt.len() - 1) * t_vocab..]) as u32;
    ws.give(prefill);
    let mut d_prefill = ws.take(prompt.len() * d_vocab);
    draft.forward_infer_ws(prompt, &mut d_cache, ws, &mut d_prefill);
    ws.give(d_prefill);

    speculative_greedy_seeded_ws(
        target,
        draft,
        &mut t_cache,
        &mut d_cache,
        pending,
        budget,
        gamma,
        ws,
    )
}

/// The seeded core of the fused speculative loop: continue from
/// **pre-seeded caches** whose lengths may differ.
///
/// This is the AASD entry point: `t_cache` holds the target's committed
/// context (e.g. vision prefix ∥ text prompt) and `d_cache` holds the
/// draft's — which in the hybrid-cache path is `[projected vision KV ∥
/// text KV]` and therefore *shorter* than the target's. `pending` is the
/// first target-decided token not yet fed to either cache. The loop only
/// requires that both caches advance in lockstep **from here on**: per
/// block both receive the same `pending + proposals` tokens and are rolled
/// back by the same amount on rejection.
///
/// Emits `budget` tokens starting with `pending`, token-identical to
/// [`autoregressive_greedy_seeded_ws`] from the same target cache state.
/// `pending` is counted in `SpecStats::prefill_tokens` (it was decided by
/// prefill, not by a verify block), keeping τ ≤ γ+1.
#[allow(clippy::too_many_arguments)]
pub fn speculative_greedy_seeded_ws(
    target: &Decoder,
    draft: &Decoder,
    t_cache: &mut KvCache,
    d_cache: &mut KvCache,
    pending: u32,
    budget: usize,
    gamma: usize,
    ws: &mut Workspace,
) -> (Vec<u32>, SpecStats) {
    // One-shot driver over the resumable [`SpecSession`] state machine —
    // the loop body (draft, batched verify with the pending-token fold,
    // commit) lives in [`SpecSession::step_block`] so the serving
    // scheduler can interleave many sessions at block granularity while
    // every invariant test on THIS function keeps pinning that body.
    let mut session = SpecSession::new(target, draft, t_cache, d_cache, pending, budget, gamma);
    while !session.is_done() {
        session.step_block(target, draft, t_cache, d_cache, ws);
    }
    let (out, stats) = session.into_parts();
    debug_assert_eq!(stats.generated, out.len());
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aasd_nn::DecoderConfig;
    use aasd_tensor::Rng;

    fn tiny(seed: u64) -> Decoder {
        Decoder::new(DecoderConfig::tiny(40), seed)
    }

    fn prompt(rng: &mut Rng, len: usize, vocab: usize) -> Vec<u32> {
        (0..len).map(|_| rng.below(vocab) as u32).collect()
    }

    /// When the draft IS the target, every draft token must be accepted.
    #[test]
    fn self_draft_accepts_everything() {
        let model = tiny(1);
        let (out, stats) = speculative_greedy(&model, &model, &[3, 7, 1], 20, 5);
        assert_eq!(out.len(), 20);
        assert_eq!(stats.accepted, stats.drafted);
        assert!((stats.acceptance_rate() - 1.0).abs() < 1e-9);
        // Full acceptance means every block commits γ+1 tokens.
        assert!(stats.block_efficiency() > 5.0 - 1e-9);
    }

    /// Batched verify must agree exactly with the sequential reference —
    /// outcome and resulting cache state — across random drafts.
    #[test]
    fn batched_verify_equals_sequential() {
        let target = tiny(2);
        let mut rng = Rng::new(0xBEEF);
        for _case in 0..20 {
            let p_len = 1 + rng.below(10);
            let p = prompt(&mut rng, p_len, 40);
            let block_len = 1 + rng.below(6);
            let draft_block = prompt(&mut rng, block_len, 40);

            let mut c1 = target.new_cache();
            let f1 = target.forward_infer(&p, &mut c1);
            let f1 = f1.row(f1.rows - 1).to_vec();
            let o1 = verify_greedy(&target, &mut c1, &f1, &draft_block);

            let mut c2 = target.new_cache();
            let f2 = target.forward_infer(&p, &mut c2);
            let f2 = f2.row(f2.rows - 1).to_vec();
            let o2 = verify_greedy_sequential(&target, &mut c2, &f2, &draft_block);

            assert_eq!(o1, o2);
            assert_eq!(c1.len(), c2.len());
            assert_eq!(c1.len(), p.len() + o1.accepted);
        }
    }

    /// Losslessness: speculative output is token-identical to the
    /// autoregressive reference for mismatched draft/target pairs, across
    /// seeds, γ values, and generation lengths.
    #[test]
    fn speculative_is_lossless_greedy() {
        let mut rng = Rng::new(0x1055);
        for (t_seed, d_seed) in [(10, 20), (11, 21), (12, 22)] {
            let target = tiny(t_seed);
            let draft = tiny(d_seed);
            for gamma in [1, 2, 5] {
                let p = prompt(&mut rng, 4, 40);
                let max_new = 30;
                let reference = autoregressive_greedy(&target, &p, max_new);
                let (spec, stats) = speculative_greedy(&target, &draft, &p, max_new, gamma);
                assert_eq!(
                    spec, reference,
                    "lossless violated: seeds=({t_seed},{d_seed}) γ={gamma}"
                );
                // The final block is clamped to the budget, so the
                // committed-token counter matches the output exactly.
                assert_eq!(stats.generated, spec.len());
                assert!(stats.acceptance_rate() <= 1.0);
            }
        }
    }

    /// The loop must respect max_seq: a prompt near the context limit still
    /// terminates and stays within budget.
    #[test]
    fn respects_context_window() {
        let target = tiny(5);
        let draft = tiny(6);
        let max_seq = target.cfg.max_seq;
        let mut rng = Rng::new(3);
        let p = prompt(&mut rng, max_seq - 6, 40);
        let reference = autoregressive_greedy(&target, &p, 100);
        assert_eq!(reference.len(), 6);
        let (out, _) = speculative_greedy(&target, &draft, &p, 100, 5);
        assert_eq!(out, reference);
    }

    /// At the extended budget (`max_seq − prompt + 1`) the committed
    /// frontier runs out of speculation room mid-generation, forcing the
    /// g = 0 plain-decode fallback *with the loop still continuing*. The
    /// fallback must advance the draft cache in lockstep with the target —
    /// before the fix it only advanced the target, and the lockstep
    /// `debug_assert_eq!(committed, d_cache.len())` fires on the next pass.
    #[test]
    fn no_room_fallback_keeps_caches_in_lockstep() {
        let target = tiny(40);
        let draft = tiny(41);
        let max_seq = target.cfg.max_seq;
        let mut rng = Rng::new(7);
        for prompt_len in [max_seq - 1, max_seq - 6] {
            let p = prompt(&mut rng, prompt_len, 40);
            let budget = max_seq + 1 - prompt_len;
            let reference = autoregressive_greedy_with_budget(&target, &p, budget);
            assert_eq!(reference.len(), budget);
            let (out, stats) = speculative_greedy_with_budget(&target, &draft, &p, budget, 5);
            assert_eq!(
                out, reference,
                "lossless violated at prompt_len {prompt_len}"
            );
            assert_eq!(stats.generated, out.len());
        }
    }

    /// A draft block whose bonus token would overshoot the budget must be
    /// clamped: `generated` counts only committed tokens.
    #[test]
    fn final_block_commit_is_clamped_to_budget() {
        // Self-draft so every block fully accepts and commits γ+1 tokens;
        // budget deliberately not a multiple of γ+1 so the last block
        // truncates mid-commit.
        let model = tiny(50);
        for (max_new, gamma) in [(7, 3), (9, 5), (11, 2)] {
            let (out, stats) = speculative_greedy(&model, &model, &[2, 9, 4], max_new, gamma);
            assert_eq!(out.len(), max_new);
            assert_eq!(stats.generated, max_new);
            assert!(stats.block_efficiency() <= (gamma + 1) as f64 + 1e-12);
        }
    }

    /// Dataset-level α: merging runs over several prompts keeps every
    /// counter invariant intact.
    #[test]
    fn measure_acceptance_merges_runs() {
        let target = tiny(60);
        let draft = tiny(61);
        let mut rng = Rng::new(9);
        let prompts: Vec<Vec<u32>> = (0..4).map(|_| prompt(&mut rng, 5, 40)).collect();
        let stats = measure_acceptance(&target, &draft, &prompts, 20, 4);
        assert_eq!(stats.generated, 4 * 20);
        assert!(stats.accepted <= stats.drafted);
        assert!(stats.acceptance_rate() <= 1.0);
        // Self-draft α must dominate a mismatched draft's α.
        let self_stats = measure_acceptance(&target, &target, &prompts, 20, 4);
        assert!(self_stats.acceptance_rate() >= stats.acceptance_rate());
    }

    /// Per-group stats must match running each group alone, preserve order,
    /// and sum to the pooled global merge — the grouped view loses nothing,
    /// it only refuses to average away per-workload α differences.
    #[test]
    fn measure_acceptance_grouped_keeps_groups_separate() {
        let target = tiny(60);
        let draft = tiny(61);
        let mut rng = Rng::new(17);
        let a: Vec<Vec<u32>> = (0..3).map(|_| prompt(&mut rng, 4, 40)).collect();
        let b: Vec<Vec<u32>> = (0..2).map(|_| prompt(&mut rng, 7, 40)).collect();
        let groups: [(&str, &[Vec<u32>]); 2] = [("a", &a), ("b", &b)];
        let grouped = measure_acceptance_grouped(&target, &draft, &groups, 16, 3);
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0].0, "a");
        assert_eq!(grouped[1].0, "b");
        assert_eq!(grouped[0].1, measure_acceptance(&target, &draft, &a, 16, 3));
        assert_eq!(grouped[1].1, measure_acceptance(&target, &draft, &b, 16, 3));
        let mut pooled = grouped[0].1.clone();
        pooled.merge(&grouped[1].1);
        let mut all = a.clone();
        all.extend(b.iter().cloned());
        assert_eq!(pooled, measure_acceptance(&target, &draft, &all, 16, 3));
    }

    #[test]
    fn gamma_one_still_lossless() {
        let target = tiny(30);
        let draft = tiny(31);
        let reference = autoregressive_greedy(&target, &[1, 2], 15);
        let (out, stats) = speculative_greedy(&target, &draft, &[1, 2], 15, 1);
        assert_eq!(out, reference);
        assert!(stats.blocks >= 8, "γ=1 commits at most 2 tokens per block");
    }

    /// The fused autoregressive loop must be token-identical to the
    /// allocating reference (both paths argmax the same logits chain).
    #[test]
    fn fused_autoregressive_matches_reference() {
        let target = tiny(70);
        let mut rng = Rng::new(0xA5);
        let mut ws = Workspace::new();
        for _ in 0..3 {
            let p_len = 1 + rng.below(8);
            let p = prompt(&mut rng, p_len, 40);
            let budget = 20;
            let reference = autoregressive_greedy_with_budget(&target, &p, budget);
            let got = autoregressive_greedy_with_budget_ws(&target, &p, budget, &mut ws);
            assert_eq!(got, reference);
        }
    }

    /// The pending-token-fold loop must stay lossless across draft/target
    /// pairs, γ values, and budgets, with its counters consistent.
    #[test]
    fn fused_speculative_is_lossless() {
        let mut rng = Rng::new(0xF01D);
        let mut ws = Workspace::new();
        for (t_seed, d_seed) in [(10, 20), (11, 21), (12, 12)] {
            let target = tiny(t_seed);
            let draft = tiny(d_seed);
            for gamma in [1, 2, 5] {
                let p = prompt(&mut rng, 4, 40);
                let budget = 30;
                let reference = autoregressive_greedy_with_budget(&target, &p, budget);
                let (spec, stats) =
                    speculative_greedy_with_budget_ws(&target, &draft, &p, budget, gamma, &mut ws);
                assert_eq!(
                    spec, reference,
                    "fused loop lossy: seeds=({t_seed},{d_seed}) γ={gamma}"
                );
                assert_eq!(stats.generated, spec.len());
                assert!(stats.accepted <= stats.drafted);
                // Self-draft (12,12) must fully accept.
                if t_seed == d_seed {
                    assert_eq!(stats.accepted, stats.drafted);
                }
            }
        }
    }

    /// Boundary prompts force the fused loop's g = 0 fallback; output must
    /// still match the reference and the caches must stay in lockstep.
    #[test]
    fn fused_loop_handles_context_boundary() {
        let target = tiny(40);
        let draft = tiny(41);
        let max_seq = target.cfg.max_seq;
        let mut rng = Rng::new(7);
        let mut ws = Workspace::new();
        for prompt_len in [max_seq - 1, max_seq - 6] {
            let p = prompt(&mut rng, prompt_len, 40);
            let budget = max_seq + 1 - prompt_len;
            let reference = autoregressive_greedy_with_budget(&target, &p, budget);
            let (out, stats) =
                speculative_greedy_with_budget_ws(&target, &draft, &p, budget, 5, &mut ws);
            assert_eq!(out, reference, "boundary prompt_len {prompt_len}");
            assert_eq!(stats.generated, out.len());
        }
    }

    /// Both loop generations must agree on which γ values they accept:
    /// γ = 0 and γ = MAX_GAMMA panic on both, γ = 1 and γ = MAX_GAMMA − 1
    /// run on both. Before the unification the reference loop accepted any
    /// γ ≥ 1 while the fused loop required γ < 64.
    #[test]
    fn gamma_validation_agrees_between_loops() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let target = tiny(80);
        let draft = tiny(81);
        let p = [1u32, 2, 3];
        let run_ref = |gamma: usize| {
            let r = catch_unwind(AssertUnwindSafe(|| {
                speculative_greedy_with_budget(&target, &draft, &p, 4, gamma)
            }));
            r.is_ok()
        };
        let run_fused = |gamma: usize| {
            let r = catch_unwind(AssertUnwindSafe(|| {
                let mut ws = Workspace::new();
                speculative_greedy_with_budget_ws(&target, &draft, &p, 4, gamma, &mut ws)
            }));
            r.is_ok()
        };
        for gamma in [0, 1, MAX_GAMMA - 1, MAX_GAMMA, MAX_GAMMA + 5] {
            let expect = (1..MAX_GAMMA).contains(&gamma);
            assert_eq!(run_ref(gamma), expect, "reference loop at γ={gamma}");
            assert_eq!(run_fused(gamma), expect, "fused loop at γ={gamma}");
        }
    }

    /// With the pending token recorded as a prefill token, the fused loop's
    /// τ obeys the same γ+1 bound as the reference loop — before the fix a
    /// fully-accepting run reported τ = (N·(γ+1) + 1)/N > γ+1.
    #[test]
    fn fused_block_efficiency_is_bounded_by_gamma_plus_one() {
        let model = tiny(90);
        let mut ws = Workspace::new();
        for (budget, gamma) in [(24, 5), (19, 3), (30, 2)] {
            let (out, stats) = speculative_greedy_with_budget_ws(
                &model,
                &model,
                &[4, 2, 8],
                budget,
                gamma,
                &mut ws,
            );
            assert_eq!(out.len(), budget);
            assert_eq!(stats.prefill_tokens, 1);
            assert_eq!(stats.generated, budget);
            assert!(
                stats.block_efficiency() <= (gamma + 1) as f64 + 1e-12,
                "τ = {} exceeds γ+1 at γ={gamma}",
                stats.block_efficiency()
            );
            // Self-draft: every full block commits exactly γ+1 tokens.
            assert!(stats.acceptance_rate() > 1.0 - 1e-12);
        }
    }

    /// Seeded entry points must reproduce the prompt-based loops when the
    /// caches are seeded with exactly the prompt (the degenerate prefix).
    #[test]
    fn seeded_loops_match_prompt_loops() {
        let target = tiny(91);
        let draft = tiny(92);
        let mut ws = Workspace::new();
        let p = [7u32, 3, 5, 1];
        let budget = 20;
        let want_ar = autoregressive_greedy_with_budget(&target, &p, budget);
        let (want_spec, want_stats) =
            speculative_greedy_with_budget_ws(&target, &draft, &p, budget, 4, &mut ws);

        // Seed caches by hand, then call the seeded functions directly.
        let mut t_cache = target.new_cache();
        let logits = target.forward_infer(&p, &mut t_cache);
        let pending = Decoder::greedy_from_logits(&logits);
        let got_ar =
            autoregressive_greedy_seeded_ws(&target, &mut t_cache, pending, budget, &mut ws);
        assert_eq!(got_ar, want_ar);

        let mut t_cache = target.new_cache();
        let logits = target.forward_infer(&p, &mut t_cache);
        let pending = Decoder::greedy_from_logits(&logits);
        let mut d_cache = draft.new_cache();
        draft.forward_infer(&p, &mut d_cache);
        let (got_spec, got_stats) = speculative_greedy_seeded_ws(
            &target,
            &draft,
            &mut t_cache,
            &mut d_cache,
            pending,
            budget,
            4,
            &mut ws,
        );
        assert_eq!(got_spec, want_spec);
        assert_eq!(got_stats, want_stats);
    }

    /// The fold halves per-block target passes: for the same run, the fused
    /// loop must use strictly fewer target forwards than the reference
    /// (blocks + resyncs) once more than one block executes.
    #[test]
    fn fused_loop_reaches_steady_state_allocations() {
        let target = tiny(10);
        let draft = tiny(20);
        let mut ws = Workspace::new();
        // Warm-up run populates the pool for every request size.
        let p = [3u32, 7, 1, 9];
        speculative_greedy_with_budget_ws(&target, &draft, &p, 24, 3, &mut ws);
        let after_warmup = ws.fresh_allocs();
        speculative_greedy_with_budget_ws(&target, &draft, &p, 24, 3, &mut ws);
        assert_eq!(
            ws.fresh_allocs(),
            after_warmup,
            "second run must be served entirely from the pool"
        );
    }
}
