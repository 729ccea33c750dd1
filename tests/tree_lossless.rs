//! Tree-structured speculation through the `aasd` facade: every tree shape
//! must be token-identical to the autoregressive reference (greedy
//! verification accepts a node only when it IS the target argmax, so the
//! committed root-to-leaf path is the AR chain by induction), the property
//! must hold identically on every compiled kernel tier, and the serving
//! engine's tree mode must reproduce the fused loops. A tree whose branch
//! gates admit no sibling collapses to the linear session, whose streams
//! and counters are pinned by `tests/spec_golden.rs`.

use aasd::nn::{Decoder, DecoderConfig};
use aasd::specdec::{
    autoregressive_greedy_with_budget, speculative_greedy_seeded_ws, AcceptanceCalibrator,
    SpecSession, SpecStats, TreeConfig,
};
use aasd::tensor::{argmax, best_supported, set_backend, Backend, Rng, Workspace};

fn model(seed: u64, vocab: usize) -> Decoder {
    Decoder::new(DecoderConfig::tiny(vocab), seed)
}

fn prompt(rng: &mut Rng, len: usize, vocab: usize) -> Vec<u32> {
    (0..len).map(|_| rng.below(vocab) as u32).collect()
}

/// Prefill both caches on `p` and return the pending token.
fn seed(
    target: &Decoder,
    draft: &Decoder,
    p: &[u32],
    ws: &mut Workspace,
) -> (aasd::nn::KvCache, aasd::nn::KvCache, u32) {
    let mut t_cache = target.new_cache();
    let mut d_cache = draft.new_cache();
    let mut logits = ws.take(p.len() * target.cfg.vocab);
    target.forward_infer_ws(p, &mut t_cache, ws, &mut logits);
    let pending = argmax(&logits[(p.len() - 1) * target.cfg.vocab..]) as u32;
    ws.give(logits);
    let mut d_logits = ws.take(p.len() * draft.cfg.vocab);
    draft.forward_infer_ws(p, &mut d_cache, ws, &mut d_logits);
    ws.give(d_logits);
    (t_cache, d_cache, pending)
}

/// Prefill both caches on `p` and run a `tree`-shaped session to the end.
fn run_tree(
    target: &Decoder,
    draft: &Decoder,
    p: &[u32],
    budget: usize,
    gamma: usize,
    tree: TreeConfig,
    ws: &mut Workspace,
) -> (Vec<u32>, SpecStats) {
    let (mut tc, mut dc, pending) = seed(target, draft, p, ws);
    let mut s = SpecSession::new(target, draft, &tc, &dc, pending, budget, gamma).with_tree(tree);
    while !s.is_done() {
        s.step_block(target, draft, &mut tc, &mut dc, ws);
    }
    s.into_parts()
}

fn tree_cfg(bf: usize, depth: usize, cal: Option<AcceptanceCalibrator>) -> TreeConfig {
    TreeConfig {
        branch_factor: bf,
        max_depth: depth,
        prob_floor: 0.05,
        calibrator: cal,
        branch_threshold: 0.25,
    }
}

/// Every (branch factor, depth, gate) shape over independent draft/target
/// pairs reproduces the autoregressive stream exactly.
#[test]
fn every_tree_shape_matches_autoregressive() {
    let vocab = 48;
    let mut rng = Rng::new(0x7EE);
    let mut ws = Workspace::new();
    for case in 0..3u64 {
        let target = model(300 + case, vocab);
        let draft = model(400 + case, vocab);
        let p = prompt(&mut rng, 3 + case as usize, vocab);
        let budget = 20;
        let reference = autoregressive_greedy_with_budget(&target, &p, budget);
        for bf in [1usize, 2, 3] {
            for depth in [0usize, 2] {
                for cal in [None, Some(AcceptanceCalibrator::neutral())] {
                    let tree = tree_cfg(bf, depth, cal);
                    let (out, stats) = run_tree(&target, &draft, &p, budget, 4, tree, &mut ws);
                    assert_eq!(out, reference, "case {case} bf={bf} depth={depth}");
                    assert_eq!(stats.generated, budget);
                    assert!(stats.block_efficiency() >= 1.0);
                }
            }
        }
    }
}

/// Branching factor 1 IS the linear session: identical stream AND
/// identical speculation counters, whatever the branch gates say (they only
/// judge extra children). So is any wider tree whose gates admit no
/// sibling — a probability floor or calibrator threshold above 1.
#[test]
fn branching_factor_one_collapses_to_the_linear_session() {
    let vocab = 48;
    let mut rng = Rng::new(0x7EF);
    let mut ws = Workspace::new();
    let target = model(310, vocab);
    let draft = model(410, vocab);
    let gated = |bf: usize, prob_floor: f32, branch_threshold: f32| TreeConfig {
        branch_factor: bf,
        max_depth: 0,
        prob_floor,
        calibrator: Some(AcceptanceCalibrator::neutral()),
        branch_threshold,
    };
    for gamma in [1usize, 3, 5] {
        let p = prompt(&mut rng, 4, vocab);
        let (mut tc, mut dc, pending) = seed(&target, &draft, &p, &mut ws);
        let (lin_out, lin_stats) = speculative_greedy_seeded_ws(
            &target, &draft, &mut tc, &mut dc, pending, 24, gamma, &mut ws,
        );
        for tree in [
            gated(1, 0.3, 0.0),
            gated(1, 0.0, 0.9),
            gated(3, 1.5, 0.0),
            gated(2, 0.0, 1.5),
        ] {
            let label = format!("γ={gamma} {tree:?}");
            let (out, stats) = run_tree(&target, &draft, &p, 24, gamma, tree, &mut ws);
            assert_eq!(out, lin_out, "{label}: stream diverged");
            assert_eq!(stats, lin_stats, "{label}: stats diverged");
        }
    }
}

/// The committed stream is identical on the scalar tier and the best
/// runtime-dispatched tier (the kernels are f32-bitwise-identical, so the
/// tree's accept walk must make the same decisions on both).
#[test]
fn tree_streams_are_identical_across_kernel_tiers() {
    let vocab = 48;
    let target = model(320, vocab);
    let draft = model(420, vocab);
    let p = [3u32, 9, 17, 4];
    let run = || {
        let tree = tree_cfg(2, 0, Some(AcceptanceCalibrator::neutral()));
        run_tree(&target, &draft, &p, 22, 4, tree, &mut Workspace::new())
    };
    let prev = aasd::tensor::backend();
    set_backend(Backend::Scalar).expect("scalar tier always available");
    let scalar = run();
    set_backend(best_supported()).expect("best tier is supported by definition");
    let best = run();
    let _ = set_backend(prev);
    assert_eq!(scalar, best, "tree decode diverged across kernel tiers");
}

/// The serving engine's tree mode (sync scheduler, `tree_speculation`)
/// serves the same streams as the fused linear loop — losslessness means
/// tree and chain agree on every committed token.
#[test]
fn engine_tree_mode_reproduces_fused_streams() {
    use aasd::serve::{DecodeMode, Engine, EngineConfig, EngineModel, Request, Status};
    use aasd::specdec::speculative_greedy_with_budget_ws;
    use std::sync::Arc;

    let target = Arc::new(model(10, 40));
    let draft = Arc::new(model(20, 40));
    let reqs: Vec<Request> = (0..6)
        .map(|i| Request {
            prompt: (0..(2 + i % 3))
                .map(|j| ((i * 11 + j * 5) % 40) as u32)
                .collect(),
            max_new: 10 + (i * 3) % 12,
            mode: DecodeMode::Speculative { gamma: 2 + i % 3 },
            image_seed: None,
        })
        .collect();
    let run = |workers: usize| {
        let engine = Engine::new(
            EngineModel::Text {
                target: Arc::clone(&target),
                draft: Arc::clone(&draft),
            },
            EngineConfig {
                slots: 2,
                workers,
                max_queue: 16,
                tree_speculation: true,
                ..EngineConfig::default()
            },
        );
        let handles: Vec<_> = reqs
            .iter()
            .map(|r| engine.submit(r.clone()).expect("admitted"))
            .collect();
        engine.run_until_idle();
        handles.iter().map(|h| h.snapshot()).collect::<Vec<_>>()
    };
    let one = run(1);
    assert_eq!(one, run(4), "tree engine diverged across worker counts");
    let mut ws = Workspace::new();
    for (req, (status, tokens)) in reqs.iter().zip(&one) {
        assert_eq!(*status, Status::Done);
        let DecodeMode::Speculative { gamma } = req.mode else {
            unreachable!()
        };
        let (want, _) = speculative_greedy_with_budget_ws(
            &target,
            &draft,
            &req.prompt,
            req.max_new,
            gamma,
            &mut ws,
        );
        assert_eq!(*tokens, want, "tree-served stream != fused linear loop");
    }
}
