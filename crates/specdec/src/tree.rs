//! The token tree a speculative block drafts and verifies (OPT-tree style,
//! sized for the AASD setting). Instead of one γ-token chain, the draft
//! can grow a **token tree** — branching where predicted acceptance is
//! high — and the target scores the whole tree in ONE batched pass via
//! [`Decoder::forward_infer_tree_ws`], committing the longest accepted
//! root-to-leaf path. Per-prompt acceptance on the multimodal workloads
//! spans 0.06–1.0; where a single chain dies at the first disagreement, a
//! sibling branch that matches the target's argmax keeps the block alive,
//! lifting block efficiency τ at the **same verified-rows budget**.
//!
//! This module holds the tree's shape ([`TreeConfig`]), its branch gate
//! ([`AcceptanceCalibrator`]) and the draft-side growth; the block that
//! drafts, verifies and commits a tree is [`SpecSession::step_block`].
//! A chain is the branching-factor-1 tree ([`TreeConfig::linear`], the
//! session's default shape), so there is one block body, not two.
//!
//! Losslessness is inherited, not re-proven: greedy acceptance walks the
//! tree child-by-child against the target's own argmax, so every committed
//! token is exactly what autoregressive decoding would emit — and each
//! root-to-leaf path scores bit-identically to feeding that path linearly
//! (pinned in `aasd-nn`).
//!
//! Where the draft branches is decided by a **modality-aware acceptance
//! calibrator**: a logistic head over the candidate's draft probability,
//! the distribution's top probability, the node depth, and the session's
//! running **visual-attention mass** (how much of the target's attention
//! the vision prefix absorbs — measured for free inside the tree-verify
//! pass). Extra children are only worth a verified row where the head
//! predicts acceptance; low-probability subtrees are pruned before they are
//! ever drafted. The head is trained with the `aasd-train` stack on
//! examples the session collects
//! ([`SpecSession::enable_example_collection`]).
//!
//! [`SpecSession::step_block`]: crate::SpecSession::step_block
//! [`SpecSession::enable_example_collection`]: crate::SpecSession::enable_example_collection

use crate::MAX_GAMMA;
use aasd_nn::{Decoder, KvCache};
use aasd_tensor::{argmax, softmax_row, Workspace};

/// Feature vector width of the acceptance calibrator.
pub const CALIBRATOR_FEATURES: usize = 4;

/// Logistic acceptance head: `σ(w·f + b)` over
/// `[cand_prob, top_prob, depth_frac, vis_mass]` (see
/// [`AcceptanceCalibrator::features`]). Predicts the probability that a
/// drafted candidate token will be accepted by the target — the signal
/// that decides per-node branching and subtree early-stops.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceptanceCalibrator {
    pub w: [f32; CALIBRATOR_FEATURES],
    pub b: f32,
}

impl AcceptanceCalibrator {
    /// Untrained prior: acceptance tracks the draft's own probability,
    /// discounted with depth, indifferent to modality. Gates extra
    /// children at roughly `cand_prob ≳ 0.25`; training sharpens this and
    /// learns the visual-mass interaction.
    pub fn neutral() -> Self {
        Self {
            w: [6.0, 0.0, -1.0, 0.0],
            b: -1.5,
        }
    }

    /// Assemble the feature vector:
    /// * `cand_prob` — draft softmax probability of the candidate token;
    /// * `top_prob` — probability of the distribution's argmax (how
    ///   peaked the draft is here);
    /// * `depth_frac` — candidate depth / tree depth limit;
    /// * `vis_mass` — the session's running visual-attention mass (the
    ///   modality feature; 0 for text-only sessions).
    pub fn features(
        cand_prob: f32,
        top_prob: f32,
        depth_frac: f32,
        vis_mass: f32,
    ) -> [f32; CALIBRATOR_FEATURES] {
        [cand_prob, top_prob, depth_frac, vis_mass]
    }

    /// Predicted acceptance probability `σ(w·f + b)`.
    pub fn predict(&self, f: &[f32; CALIBRATOR_FEATURES]) -> f32 {
        let z: f32 = self.w.iter().zip(f).map(|(w, x)| w * x).sum::<f32>() + self.b;
        1.0 / (1.0 + (-z).exp())
    }

    /// Branch gate: spend a verified row on this candidate?
    pub fn accept(&self, f: &[f32; CALIBRATOR_FEATURES]) -> bool {
        self.predict(f) >= 0.5
    }
}

/// One labelled observation for calibrator training: the features of a
/// drafted candidate whose parent lay on the accepted path (so the
/// target's verdict on it is known), and whether the target agreed.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceptanceExample {
    pub features: [f32; CALIBRATOR_FEATURES],
    pub label: f32,
}

/// Shape of the speculation tree a [`SpecSession`](crate::SpecSession)
/// grows each block. The node budget is always `γ + 1` rows (root + γ
/// drafted tokens) — the **same verified-rows budget** a linear γ-chain
/// block spends — so tree and chain are compared at equal target compute.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Maximum children per node (≥ 1). 1 ⇒ the tree is the linear
    /// γ-token chain.
    pub branch_factor: usize,
    /// Depth limit. 0 ⇒ use γ (the full chain depth); a smaller limit
    /// trades depth for width within the same node budget.
    pub max_depth: usize,
    /// Extra (non-first) children must carry at least this draft
    /// probability; candidates come in descending probability, so the
    /// first failure stops the scan.
    pub prob_floor: f32,
    /// Optional learned branch gate; `None` gates on `prob_floor` alone.
    pub calibrator: Option<AcceptanceCalibrator>,
    /// Minimum calibrator-predicted acceptance probability for an extra
    /// child to claim a verified row. This is a **cost** knob, not a
    /// correctness one: the row a branch displaces is a chain extension
    /// whose value decays like α^depth, so deep-γ trees want thresholds
    /// well below 0.5 — a sibling with a 15% catch rate beats a depth-5
    /// chain row worth α⁵. Ignored when `calibrator` is `None`.
    pub branch_threshold: f32,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            branch_factor: 2,
            max_depth: 0,
            prob_floor: 0.1,
            calibrator: None,
            branch_threshold: 0.5,
        }
    }
}

impl TreeConfig {
    /// The single-chain shape: the classic linear speculative block, and
    /// the session's default.
    pub fn linear() -> Self {
        Self {
            branch_factor: 1,
            max_depth: 0,
            prob_floor: 0.0,
            calibrator: None,
            branch_threshold: 0.5,
        }
    }
}

/// Flattened token tree under construction: parallel stack arrays, child
/// after parent in flat order (the shape `KvCache::gather_tail` and the
/// ancestor bitmasks rely on). Node 0 is the root: the session's pending
/// token.
pub(crate) struct TreeNodes {
    pub toks: [u32; MAX_GAMMA],
    pub parents: [usize; MAX_GAMMA],
    pub depths: [usize; MAX_GAMMA],
    pub probs: [f32; MAX_GAMMA],
    pub tops: [f32; MAX_GAMMA],
    pub n: usize,
    /// `fed[k]` is the node whose token the draft cache holds at row
    /// `base + k`, for every row [`expand`] left in the cache.
    pub fed: [usize; MAX_GAMMA],
}

impl TreeNodes {
    pub fn root(token: u32) -> Self {
        let mut toks = [0; MAX_GAMMA];
        toks[0] = token;
        Self {
            toks,
            parents: [usize::MAX; MAX_GAMMA],
            depths: [0; MAX_GAMMA],
            probs: [1.0; MAX_GAMMA],
            tops: [1.0; MAX_GAMMA],
            n: 1,
            fed: [0; MAX_GAMMA],
        }
    }

    /// Per-row ancestor bitmasks (self bit included) for the tree-verify
    /// forward.
    pub fn ancestor_masks(&self) -> [u64; MAX_GAMMA] {
        let mut vis = [0u64; MAX_GAMMA];
        for i in 0..self.n {
            vis[i] = 1 << i;
            if i > 0 {
                vis[i] |= vis[self.parents[i]];
            }
        }
        vis
    }
}

/// DFS expansion of node `u`'s subtree. Feeds `toks[u]` to the draft,
/// records up to `branch_factor` children (first = draft argmax, always;
/// the rest gated by probability floor + calibrator), and recurses
/// **first-child-first** so the greedy chain claims the node budget before
/// any sibling — which is what makes branching factor 1 feed the draft the
/// linear chain token for token. Before each later sibling the draft cache
/// is rolled back to the post-`u` state, so every path sees exactly its own
/// ancestors. There is no rollback after the last child: the cache keeps
/// the last-expanded root path (recorded in `nodes.fed`), which the commit
/// reuses for whatever prefix it shares with the accepted path.
#[allow(clippy::too_many_arguments)]
pub(crate) fn expand(
    nodes: &mut TreeNodes,
    u: usize,
    draft: &Decoder,
    d_cache: &mut KvCache,
    ws: &mut Workspace,
    cfg: &TreeConfig,
    max_nodes: usize,
    max_depth: usize,
    vis_mass: f32,
) {
    if nodes.depths[u] >= max_depth || nodes.n >= max_nodes {
        return;
    }
    let vocab = draft.cfg.vocab;
    let mut dl = ws.take(vocab);
    draft.forward_infer_ws(&[nodes.toks[u]], d_cache, ws, &mut dl);
    nodes.fed[nodes.depths[u]] = u;
    let fed_len = d_cache.len();
    // First child from the RAW logits (identical tie-breaks to a plain
    // greedy draft step), then softmax in place for candidate
    // probabilities.
    let first = argmax(&dl);
    softmax_row(&mut dl);
    let top = dl[first];
    let depth_frac = (nodes.depths[u] + 1) as f32 / max_depth as f32;
    // Record ALL of u's children before recursing into any subtree, so the
    // node budget favours shallow branches: a sibling at depth d only pays
    // off when the d−1 ancestors were all accepted, which makes shallow
    // recovery branches worth strictly more rows than deep chain tail —
    // recording breadth-first at each node puts the budget there first,
    // while the recursion below still walks the greedy chain ahead of any
    // sibling subtree.
    let child_lo = nodes.n;
    for r in 0..cfg.branch_factor {
        if nodes.n >= max_nodes {
            break;
        }
        let cand = if r == 0 { first } else { argmax(&dl) };
        let prob = dl[cand];
        if r > 0 {
            // Candidates arrive in descending probability: the first one
            // below the floor (or rejected by the calibrator) ends the
            // scan — the early-stop that keeps low-probability subtrees
            // from ever costing a verified row.
            if prob < cfg.prob_floor {
                break;
            }
            if let Some(cal) = &cfg.calibrator {
                let f = AcceptanceCalibrator::features(prob, top, depth_frac, vis_mass);
                if cal.predict(&f) < cfg.branch_threshold {
                    break;
                }
            }
        }
        dl[cand] = -1.0; // exclude from later sibling picks
        let c = nodes.n;
        nodes.toks[c] = cand as u32;
        nodes.parents[c] = u;
        nodes.depths[c] = nodes.depths[u] + 1;
        nodes.probs[c] = prob;
        nodes.tops[c] = top;
        nodes.n += 1;
    }
    let child_hi = nodes.n;
    ws.give(dl);
    for c in child_lo..child_hi {
        if c > child_lo {
            d_cache.truncate(fed_len);
        }
        expand(
            nodes, c, draft, d_cache, ws, cfg, max_nodes, max_depth, vis_mass,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        autoregressive_greedy_with_budget, speculative_greedy_seeded_ws, AdaptiveGamma,
        SpecSession, SpecStats,
    };
    use aasd_nn::DecoderConfig;
    use aasd_tensor::Rng;

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

    /// Prefill both models on `p` and run a `tree`-shaped session to the end.
    fn run_tree(
        target: &Decoder,
        draft: &Decoder,
        p: &[u32],
        budget: usize,
        gamma: usize,
        tree: TreeConfig,
        ws: &mut Workspace,
    ) -> (Vec<u32>, SpecStats) {
        let (mut tc, pending) = prefill(target, p, ws);
        let (mut dc, _) = prefill(draft, p, ws);
        let mut s =
            SpecSession::new(target, draft, &tc, &dc, pending, budget, gamma).with_tree(tree);
        while !s.is_done() {
            s.step_block(target, draft, &mut tc, &mut dc, ws);
        }
        s.into_parts()
    }

    /// Every tree shape is lossless: output ≡ the AR chain, for branching
    /// factors 1..4, shallow and full depth, with and without the
    /// calibrator, across γ — on an adversarial (independent) draft.
    #[test]
    fn every_tree_shape_is_lossless() {
        let target = tiny(0xA0);
        let draft = tiny(0xA1);
        let mut ws = Workspace::new();
        let mut rng = Rng::new(6);
        for case in 0u64..3 {
            let p: Vec<u32> = (0..4 + case as usize)
                .map(|_| rng.below(40) as u32)
                .collect();
            let budget = 22;
            let reference = autoregressive_greedy_with_budget(&target, &p, budget);
            for bf in [1usize, 2, 3] {
                for max_depth in [0usize, 3] {
                    for cal in [None, Some(AcceptanceCalibrator::neutral())] {
                        let cfg = TreeConfig {
                            branch_factor: bf,
                            max_depth,
                            prob_floor: 0.05,
                            calibrator: cal,
                            branch_threshold: 0.25,
                        };
                        let (out, stats) = run_tree(&target, &draft, &p, budget, 5, cfg, &mut ws);
                        assert_eq!(
                            out, reference,
                            "tree lost losslessness: bf={bf} depth={max_depth}"
                        );
                        assert_eq!(stats.generated, budget);
                        assert!(stats.accepted <= stats.drafted);
                    }
                }
            }
        }
    }

    /// Branching factor 1 is BYTE-identical to the default linear session
    /// even with every branch gate set (they only judge extra children):
    /// same stream, same stats, and the caches finish in the same state.
    #[test]
    fn branching_factor_one_is_byte_identical_to_linear() {
        let target = tiny(0xB0);
        let draft = tiny(0xB1);
        let mut ws = Workspace::new();
        let mut rng = Rng::new(7);
        for gamma in [1usize, 3, 5] {
            let p: Vec<u32> = (0..5).map(|_| rng.below(40) as u32).collect();
            let budget = 19;
            let (mut tc_l, pending) = prefill(&target, &p, &mut ws);
            let (mut dc_l, _) = prefill(&draft, &p, &mut ws);
            let (want, want_stats) = speculative_greedy_seeded_ws(
                &target, &draft, &mut tc_l, &mut dc_l, pending, budget, gamma, &mut ws,
            );
            let (mut tc_t, pending_t) = prefill(&target, &p, &mut ws);
            let (mut dc_t, _) = prefill(&draft, &p, &mut ws);
            assert_eq!(pending, pending_t);
            let tree = TreeConfig {
                branch_factor: 1,
                max_depth: 0,
                prob_floor: 0.5,
                calibrator: Some(AcceptanceCalibrator::neutral()),
                branch_threshold: 0.9,
            };
            let mut s = SpecSession::new(&target, &draft, &tc_t, &dc_t, pending_t, budget, gamma)
                .with_tree(tree);
            while !s.is_done() {
                s.step_block(&target, &draft, &mut tc_t, &mut dc_t, &mut ws);
            }
            let (got, got_stats) = s.into_parts();
            assert_eq!(got, want, "γ={gamma} stream diverged");
            assert_eq!(got_stats, want_stats, "γ={gamma} stats diverged");
            assert_eq!(tc_t.len(), tc_l.len());
            assert_eq!(dc_t.len(), dc_l.len());
            for l in 0..target.cfg.n_layers {
                for pos in 0..tc_l.len() {
                    assert_eq!(tc_l.layer(l).key(pos), tc_t.layer(l).key(pos));
                    assert_eq!(tc_l.layer(l).value(pos), tc_t.layer(l).value(pos));
                }
            }
            for l in 0..draft.cfg.n_layers {
                for pos in 0..dc_l.len() {
                    assert_eq!(dc_l.layer(l).key(pos), dc_t.layer(l).key(pos));
                    assert_eq!(dc_l.layer(l).value(pos), dc_t.layer(l).value(pos));
                }
            }
        }
    }

    /// A branched tree on a self-draft accepts its full chain every block
    /// and τ reaches the depth bound despite the extra branch rows.
    #[test]
    fn self_draft_tree_accepts_the_full_chain() {
        let target = tiny(0xC0);
        let mut ws = Workspace::new();
        let p = [2u32, 9, 33, 1];
        let budget = 21;
        let reference = autoregressive_greedy_with_budget(&target, &p, budget);
        let (out, stats) = run_tree(
            &target,
            &target,
            &p,
            budget,
            4,
            TreeConfig {
                branch_factor: 2,
                max_depth: 0,
                prob_floor: 0.0,
                calibrator: None,
                branch_threshold: 0.5,
            },
            &mut ws,
        );
        assert_eq!(out, reference);
        // Every block's greedy chain is fully accepted, so τ is pinned at
        // the depth the breadth-first budget leaves the chain (γ=4 → 5
        // nodes → chain depth 2 beside the branches → 3 commits/block).
        let tau = stats.block_efficiency();
        assert!(tau > 2.5, "self-draft tree τ too low: {tau}");
    }

    /// The adaptive controller composes with a branching tree and stays
    /// lossless while γ moves.
    #[test]
    fn adaptive_tree_session_is_lossless() {
        let target = tiny(0xD0);
        let draft = tiny(0xD1);
        let mut ws = Workspace::new();
        let p = [1u32, 8, 3, 20, 5];
        let budget = 24;
        let reference = autoregressive_greedy_with_budget(&target, &p, budget);
        let (mut tc, pending) = prefill(&target, &p, &mut ws);
        let (mut dc, _) = prefill(&draft, &p, &mut ws);
        let mut s = SpecSession::new(&target, &draft, &tc, &dc, pending, budget, 3)
            .with_tree(TreeConfig::default());
        s.enable_adaptive_gamma(AdaptiveGamma::new(0.25));
        while !s.is_done() {
            let g = s.gamma();
            assert!((1..MAX_GAMMA).contains(&g));
            s.step_block(&target, &draft, &mut tc, &mut dc, &mut ws);
        }
        let (out, _) = s.into_parts();
        assert_eq!(out, reference);
    }

    /// Example collection labels candidates with the target's actual
    /// verdict: on a self-draft every first child is accepted (label 1),
    /// and features stay in range.
    #[test]
    fn example_collection_labels_follow_the_target() {
        let target = tiny(0xE0);
        let draft = tiny(0xE1);
        let mut ws = Workspace::new();
        let p = [4u32, 17, 2];
        let (mut tc, pending) = prefill(&target, &p, &mut ws);
        let (mut dc, _) = prefill(&draft, &p, &mut ws);
        let mut s = SpecSession::new(&target, &draft, &tc, &dc, pending, 20, 4)
            .with_tree(TreeConfig::default());
        s.enable_example_collection();
        while !s.is_done() {
            s.step_block(&target, &draft, &mut tc, &mut dc, &mut ws);
        }
        let examples = s.take_examples();
        assert!(!examples.is_empty(), "an adversarial draft must be judged");
        assert!(examples.iter().any(|e| e.label == 0.0), "no rejections?");
        for e in &examples {
            assert!((0.0..=1.0).contains(&e.features[0]), "prob {e:?}");
            assert!((0.0..=1.0).contains(&e.features[2]), "depth {e:?}");
            assert!(e.label == 0.0 || e.label == 1.0);
        }
        assert!(s.take_examples().is_empty(), "drain must empty the buffer");
    }

    /// The calibrator head is a well-formed logistic: monotone in a
    /// positively-weighted feature and σ-bounded.
    #[test]
    fn calibrator_predictions_are_probabilities() {
        let cal = AcceptanceCalibrator::neutral();
        let lo = cal.predict(&AcceptanceCalibrator::features(0.05, 0.9, 0.5, 0.3));
        let hi = cal.predict(&AcceptanceCalibrator::features(0.95, 0.9, 0.5, 0.3));
        assert!(lo < hi, "higher draft prob must predict higher acceptance");
        for p in [lo, hi] {
            assert!((0.0..=1.0).contains(&p));
        }
        assert!(cal.accept(&AcceptanceCalibrator::features(0.9, 0.9, 0.2, 0.0)));
        assert!(!cal.accept(&AcceptanceCalibrator::features(0.01, 0.9, 1.0, 0.0)));
    }
}
