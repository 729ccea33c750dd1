//! The hybrid-cache speculative decode path: multimodal target prefill,
//! draft-cache seeding per ablation switch, then the seeded fused
//! speculative loop from `aasd-specdec`. Because verification is greedy,
//! every ablation is **lossless** — the switches only move α/τ, never the
//! output tokens.

use crate::llava::{LlavaSim, LlavaSimConfig};
use crate::projector::{seed_raw_vision, KvProjector};
use crate::vision::Image;
use aasd_nn::{Decoder, DecoderConfig, KvCache};
use aasd_specdec::{autoregressive_greedy_seeded_ws, speculative_greedy_seeded_ws, SpecStats};
use aasd_tensor::Workspace;

/// What the draft's cache is seeded with before the speculative loop.
///
/// Semantics (checked in this order):
/// * `drop_vision_kv` — the draft gets **no** vision prefix at all; its text
///   positions start at 0 and its proposals cannot depend on the image.
///   Overrides `use_vision_projector`.
/// * `use_vision_projector` — the draft prefix is the [`KvProjector`]'s
///   `k_slots` learned rows (the AASD hybrid cache). Off → the prefix is the
///   target's raw `n_img` vision KV rows copied verbatim.
/// * `drop_text_kv` — the draft is *not* prefilled on the text prompt; it
///   enters the loop with only its vision prefix (tokens generated during
///   decoding still accumulate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ablation {
    pub use_vision_projector: bool,
    pub drop_vision_kv: bool,
    pub drop_text_kv: bool,
}

impl Ablation {
    /// The full AASD configuration: projected vision KV ∥ text KV.
    pub fn projector() -> Self {
        Self {
            use_vision_projector: true,
            drop_vision_kv: false,
            drop_text_kv: false,
        }
    }

    /// Raw (unprojected) target vision KV ∥ text KV.
    pub fn raw_vision() -> Self {
        Self {
            use_vision_projector: false,
            drop_vision_kv: false,
            drop_text_kv: false,
        }
    }

    /// Text-only draft context (the "blind draft" baseline).
    pub fn no_vision() -> Self {
        Self {
            use_vision_projector: false,
            drop_vision_kv: true,
            drop_text_kv: false,
        }
    }
}

impl Default for Ablation {
    fn default() -> Self {
        Self::projector()
    }
}

/// The standard draft for a LlavaSim target: same vocabulary, width, head
/// count, and context window as the target LM, but a single layer with a
/// dim-sized FFN — roughly an order of magnitude cheaper per token. Sharing
/// the width is what lets the KV projector be a pure row compression.
pub fn draft_for(cfg: &LlavaSimConfig, seed: u64) -> Decoder {
    draft_for_depth(cfg, 1, seed)
}

/// [`draft_for`] with an explicit depth: still width-shared (the projector
/// requirement) with a dim-sized FFN, but `n_layers` blocks. Depth ≥ 2
/// matters on structured grammars — copying a token seen earlier in the
/// stream (an induction head) needs two attention layers, and a draft that
/// cannot copy caps its own α on any workload with self-referencing text.
/// [`crate::projector::layer_map`] spreads the draft layers over the
/// target's for KV seeding.
pub fn draft_for_depth(cfg: &LlavaSimConfig, n_layers: usize, seed: u64) -> Decoder {
    assert!(n_layers >= 1 && n_layers <= cfg.lm.n_layers);
    Decoder::new(
        DecoderConfig {
            n_layers,
            ff_hidden: cfg.lm.dim,
            ..cfg.lm.clone()
        },
        seed,
    )
}

/// Seed an empty draft cache's vision prefix per the ablation switches and
/// return the prefix length (0, `k_slots`, or `n_img`).
pub fn seed_draft_prefix(
    model: &LlavaSim,
    projector: Option<&KvProjector>,
    ablation: Ablation,
    t_cache: &KvCache,
    d_cache: &mut KvCache,
) -> usize {
    assert!(d_cache.is_empty(), "draft cache must be empty to seed");
    if ablation.drop_vision_kv {
        return 0;
    }
    if ablation.use_vision_projector {
        let proj = projector.expect("use_vision_projector requires a KvProjector");
        proj.seed_draft_cache(t_cache, d_cache);
        proj.k_slots
    } else {
        seed_raw_vision(t_cache, d_cache, model.n_img());
        model.n_img()
    }
}

/// Fused multimodal autoregressive decoding: vision+text prefill, then the
/// seeded greedy loop. The token-level ground truth every speculative
/// configuration must reproduce.
pub fn mm_autoregressive_ws(
    model: &LlavaSim,
    image: &Image,
    prompt: &[u32],
    budget: usize,
    ws: &mut Workspace,
) -> Vec<u32> {
    let mut cache = model.lm.new_cache();
    let pending = model.prefill_ws(image, prompt, &mut cache, ws);
    autoregressive_greedy_seeded_ws(&model.lm, &mut cache, pending, budget, ws)
}

/// Seed both caches of a multimodal speculative run. Target side: vision
/// prefix (positions `0..n_img`) then the text prompt. Draft side: the
/// ablation-selected vision prefix, then (unless `drop_text_kv`) a text
/// prefill. Returns `(t_cache, d_cache, pending)`, ready for a
/// [`SpecSession`](aasd_specdec::SpecSession) of any tree shape.
pub fn mm_seed_caches(
    model: &LlavaSim,
    draft: &Decoder,
    projector: Option<&KvProjector>,
    ablation: Ablation,
    image: &Image,
    prompt: &[u32],
    ws: &mut Workspace,
) -> (KvCache, KvCache, u32) {
    let mut t_cache = model.lm.new_cache();
    let pending = model.prefill_ws(image, prompt, &mut t_cache, ws);
    let mut d_cache = draft.new_cache();
    seed_draft_prefix(model, projector, ablation, &t_cache, &mut d_cache);
    if !ablation.drop_text_kv {
        let mut d_logits = ws.take(prompt.len() * draft.cfg.vocab);
        draft.forward_infer_ws(prompt, &mut d_cache, ws, &mut d_logits);
        ws.give(d_logits);
    }
    (t_cache, d_cache, pending)
}

/// Fused multimodal speculative decoding over the hybrid cache: the caches
/// seeded by [`mm_seed_caches`] advance in lockstep through
/// [`speculative_greedy_seeded_ws`], which tolerates their length
/// asymmetry. Token-identical to [`mm_autoregressive_ws`] by greedy
/// verification, for every ablation.
#[allow(clippy::too_many_arguments)]
pub fn mm_speculative_ws(
    model: &LlavaSim,
    draft: &Decoder,
    projector: Option<&KvProjector>,
    ablation: Ablation,
    image: &Image,
    prompt: &[u32],
    budget: usize,
    gamma: usize,
    ws: &mut Workspace,
) -> (Vec<u32>, SpecStats) {
    let (mut t_cache, mut d_cache, pending) =
        mm_seed_caches(model, draft, projector, ablation, image, prompt, ws);
    speculative_greedy_seeded_ws(
        &model.lm,
        draft,
        &mut t_cache,
        &mut d_cache,
        pending,
        budget,
        gamma,
        ws,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use aasd_tensor::Rng;

    fn setup() -> (LlavaSim, Decoder, KvProjector, Image, Vec<u32>) {
        let cfg = LlavaSimConfig::tiny(40, 96);
        let model = LlavaSim::new(cfg.clone(), 0xB0);
        let draft = draft_for(&cfg, 0xB1);
        let proj = KvProjector::new(
            0xB2,
            draft.cfg.n_layers,
            cfg.lm.n_layers,
            cfg.n_img(),
            cfg.k_slots(),
        );
        let img = Image::synthetic(&mut Rng::new(5), cfg.vision.n_patches, cfg.vision.patch_dim);
        let prompt = vec![3u32, 11, 25, 7];
        (model, draft, proj, img, prompt)
    }

    /// Every ablation combination must be lossless: the speculative output
    /// equals the autoregressive output token for token.
    #[test]
    fn all_ablations_are_lossless() {
        let (model, draft, proj, img, prompt) = setup();
        let mut ws = Workspace::new();
        let budget = 24;
        let reference = mm_autoregressive_ws(&model, &img, &prompt, budget, &mut ws);
        assert_eq!(reference.len(), budget);

        let ablations = [
            Ablation::projector(),
            Ablation::raw_vision(),
            Ablation::no_vision(),
            Ablation {
                use_vision_projector: true,
                drop_vision_kv: false,
                drop_text_kv: true,
            },
            Ablation {
                use_vision_projector: false,
                drop_vision_kv: true,
                drop_text_kv: true,
            },
        ];
        for abl in ablations {
            for gamma in [1usize, 3, 5] {
                let (out, stats) = mm_speculative_ws(
                    &model,
                    &draft,
                    Some(&proj),
                    abl,
                    &img,
                    &prompt,
                    budget,
                    gamma,
                    &mut ws,
                );
                assert_eq!(out, reference, "lossless violated: {abl:?} γ={gamma}");
                assert_eq!(stats.generated, budget);
                assert_eq!(stats.prefill_tokens, 1);
                assert!(
                    stats.block_efficiency() <= (gamma + 1) as f64 + 1e-9,
                    "τ bound violated: {abl:?} γ={gamma}"
                );
            }
        }
    }

    /// The draft caches really are asymmetric: projector prefix is shorter
    /// than raw, raw matches the target's vision slice, no-vision is empty.
    #[test]
    fn prefix_lengths_match_ablation() {
        let (model, draft, proj, img, prompt) = setup();
        let mut ws = Workspace::new();
        let mut t_cache = model.lm.new_cache();
        model.prefill_ws(&img, &prompt, &mut t_cache, &mut ws);

        let mut c = draft.new_cache();
        let p = seed_draft_prefix(&model, Some(&proj), Ablation::projector(), &t_cache, &mut c);
        assert_eq!((p, c.len()), (model.cfg.k_slots(), model.cfg.k_slots()));

        let mut c = draft.new_cache();
        let p = seed_draft_prefix(&model, None, Ablation::raw_vision(), &t_cache, &mut c);
        assert_eq!((p, c.len()), (model.n_img(), model.n_img()));

        let mut c = draft.new_cache();
        let p = seed_draft_prefix(&model, None, Ablation::no_vision(), &t_cache, &mut c);
        assert_eq!((p, c.len()), (0, 0));
    }

    /// Tree speculation over the hybrid cache stays lossless for every
    /// ablation and branch shape, the target's verify pass measures a live
    /// visual-mass feature, and at branching factor 1 the session (vision
    /// boundary and gated tree fields set) reproduces the plain linear
    /// loop's stream AND stats.
    #[test]
    fn tree_speculation_is_lossless_over_the_hybrid_cache() {
        use aasd_specdec::{SpecSession, TreeConfig};
        let (model, draft, proj, img, prompt) = setup();
        let mut ws = Workspace::new();
        let budget = 24;
        let reference = mm_autoregressive_ws(&model, &img, &prompt, budget, &mut ws);
        for abl in [Ablation::projector(), Ablation::no_vision()] {
            for bf in [1usize, 2, 3] {
                let tree = TreeConfig {
                    branch_factor: bf,
                    max_depth: 0,
                    prob_floor: 0.05,
                    calibrator: None,
                    branch_threshold: 0.5,
                };
                let (mut tc, mut dc, pending) =
                    mm_seed_caches(&model, &draft, Some(&proj), abl, &img, &prompt, &mut ws);
                let mut s = SpecSession::new(&model.lm, &draft, &tc, &dc, pending, budget, 5)
                    .with_tree(tree)
                    .with_vision_boundary(model.n_img());
                while !s.is_done() {
                    s.step_block(&model.lm, &draft, &mut tc, &mut dc, &mut ws);
                }
                assert!(s.visual_mass() > 0.0, "no visual mass measured: {abl:?}");
                let (out, stats) = s.into_parts();
                assert_eq!(out, reference, "tree lossless violated: {abl:?} bf={bf}");
                assert_eq!(stats.generated, budget);
                if bf == 1 {
                    let (lin_out, lin_stats) = mm_speculative_ws(
                        &model,
                        &draft,
                        Some(&proj),
                        abl,
                        &img,
                        &prompt,
                        budget,
                        5,
                        &mut ws,
                    );
                    assert_eq!(out, lin_out, "bf=1 stream diverged: {abl:?}");
                    assert_eq!(stats, lin_stats, "bf=1 stats diverged: {abl:?}");
                }
            }
        }
    }

    /// A self-draft (draft = target LM) with the raw vision prefix sees
    /// exactly the target's cache state, so every proposal is accepted.
    #[test]
    fn self_draft_with_raw_prefix_accepts_everything() {
        let cfg = LlavaSimConfig::tiny(40, 96);
        let model = LlavaSim::new(cfg.clone(), 0xB5);
        let img = Image::synthetic(&mut Rng::new(8), cfg.vision.n_patches, cfg.vision.patch_dim);
        let prompt = [2u32, 9, 33];
        let mut ws = Workspace::new();
        let (out, stats) = mm_speculative_ws(
            &model,
            &model.lm,
            None,
            Ablation::raw_vision(),
            &img,
            &prompt,
            20,
            4,
            &mut ws,
        );
        let reference = mm_autoregressive_ws(&model, &img, &prompt, 20, &mut ws);
        assert_eq!(out, reference);
        assert_eq!(stats.accepted, stats.drafted, "self-draft must fully agree");
        assert!(stats.acceptance_rate() > 0.999);
    }
}
