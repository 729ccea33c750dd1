//! Per-layer replay, run after the load phase so it never perturbs the
//! served numbers: the first requests of the stream are decoded alone
//! through the `aasd-specdec` session state machines the engine steps, the
//! multimodal prefill legs are timed one by one, and the decoder forwards
//! and the widest kernel are timed at the workload's shapes.

use std::time::Instant;

use aasd_mm::{seed_draft_prefix, Ablation};
use aasd_nn::{Decoder, KvCache};
use aasd_serve::DecodeMode;
use aasd_specdec::{ArSession, SpecSession, SpecStats};
use aasd_tensor::{argmax, vecmat_into, Rng, Workspace};

use crate::reference::{image_for, References};
use crate::setup::Models;
use crate::trace::{span, Tracer};
use crate::workload::{Req, Spec};

/// Timed repetitions of each decoder forward.
const FORWARD_REPS: usize = 200;

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Linearly interpolated percentile, `q` in `[0, 1]`; 0 for no samples.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    if lo + 1 < v.len() {
        v[lo] + (v[lo + 1] - v[lo]) * frac
    } else {
        v[lo]
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// What the replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    pub block_ms: Vec<f64>,
    pub ar_step_ms: Vec<f64>,
    /// Speculation counters of the replayed speculative requests.
    pub stats: SpecStats,
    /// Stream positions of the replayed speculative requests.
    pub spec_requests: Vec<usize>,
    pub vision_leg_ms: Vec<f64>,
    pub text_prefill_ms: Vec<f64>,
    pub draft_seed_ms: Vec<f64>,
    /// Replayed streams that differ from their reference.
    pub mismatches: usize,
}

/// Prefill the target (and, for a speculative request, the draft) the way
/// the engine does; returns the caches and the first target-decided token.
fn prefill(
    models: &Models,
    req: &Req,
    with_draft: bool,
    ws: &mut Workspace,
    out: &mut Replay,
) -> (KvCache, Option<KvCache>, u32) {
    let target = models.target_lm();
    let mut t_cache = target.new_cache();
    let pending = match models {
        Models::Text { .. } => {
            let vocab = target.cfg.vocab;
            let mut logits = ws.take(req.prompt.len() * vocab);
            target.forward_infer_ws(&req.prompt, &mut t_cache, ws, &mut logits);
            let pending = argmax(&logits[(req.prompt.len() - 1) * vocab..]) as u32;
            ws.give(logits);
            pending
        }
        Models::Mm { model, .. } => {
            let image = image_for(model, req.image_seed.expect("multimodal request"));
            let t = Instant::now();
            model.prefill_vision_ws(&image, &mut t_cache, ws);
            let vision = ms_since(t);
            let t = Instant::now();
            let pending = model.prefill_text_ws(&req.prompt, &mut t_cache, ws);
            if with_draft {
                out.vision_leg_ms.push(vision);
                out.text_prefill_ms.push(ms_since(t));
            }
            pending
        }
    };
    let d_cache = with_draft.then(|| {
        let draft = models.draft();
        let mut d_cache = draft.new_cache();
        if let Models::Mm {
            model, projector, ..
        } = models
        {
            let t = Instant::now();
            seed_draft_prefix(
                model,
                Some(projector),
                Ablation::projector(),
                &t_cache,
                &mut d_cache,
            );
            out.draft_seed_ms.push(ms_since(t));
        }
        let mut logits = ws.take(req.prompt.len() * draft.cfg.vocab);
        draft.forward_infer_ws(&req.prompt, &mut d_cache, ws, &mut logits);
        ws.give(logits);
        d_cache
    });
    (t_cache, d_cache, pending)
}

/// Replay `reqs` one at a time: speculative requests through
/// `SpecSession::step_block`, every request through `ArSession::step`.
pub fn replay(
    models: &Models,
    reqs: &[Req],
    refs: &References,
    tracer: Option<&Tracer>,
    parent: Option<usize>,
) -> Replay {
    let mut out = Replay::default();
    let mut ws = Workspace::new();
    let (target, draft) = (models.target_lm(), models.draft());
    for (i, req) in reqs.iter().enumerate() {
        let reference = refs.get(&req.prompt, req.image_seed, req.budget);
        if let DecodeMode::Speculative { gamma } = req.mode {
            let tokens = span(tracer, "replay.spec_request", parent, |_| {
                let (mut t_cache, d_cache, pending) = prefill(models, req, true, &mut ws, &mut out);
                let mut d_cache = d_cache.expect("draft cache");
                let mut session = SpecSession::new(
                    target, draft, &t_cache, &d_cache, pending, req.budget, gamma,
                );
                while !session.is_done() {
                    let t = Instant::now();
                    session.step_block(target, draft, &mut t_cache, &mut d_cache, &mut ws);
                    out.block_ms.push(ms_since(t));
                }
                out.stats.merge(session.stats());
                session.into_parts().0
            });
            out.spec_requests.push(i);
            out.mismatches += usize::from(reference != Some(&tokens[..]));
        }
        let tokens = span(tracer, "replay.ar_request", parent, |_| {
            let (mut cache, _, pending) = prefill(models, req, false, &mut ws, &mut out);
            let mut session = ArSession::new(target, &cache, pending, req.budget);
            while !session.is_done() {
                let t = Instant::now();
                session.step(target, &mut cache, &mut ws);
                out.ar_step_ms.push(ms_since(t));
            }
            session.into_tokens()
        });
        out.mismatches += usize::from(reference != Some(&tokens[..]));
    }
    out
}

/// Decoder forwards at the workload's shapes.
#[derive(Debug)]
pub struct Forwards {
    pub prefill_ms_per_token: f64,
    pub verify_forward_ms: f64,
    pub draft_forward_ms: f64,
    pub decode_forward_ms: f64,
    pub vecmat_us: f64,
}

/// Median time of a `rows`-token forward appended to a `ctx`-token cache.
fn forward_ms(model: &Decoder, ctx: usize, rows: usize, ws: &mut Workspace) -> f64 {
    let vocab = model.cfg.vocab;
    let mut rng = Rng::new(ctx as u64);
    let fill: Vec<u32> = (0..ctx).map(|_| rng.below(vocab) as u32).collect();
    let block: Vec<u32> = (0..rows).map(|_| rng.below(vocab) as u32).collect();
    let mut cache = model.new_cache();
    let mut logits = vec![0.0; ctx.max(rows) * vocab];
    model.forward_infer_ws(&fill, &mut cache, ws, &mut logits[..ctx * vocab]);
    let samples: Vec<f64> = (0..FORWARD_REPS)
        .map(|_| {
            let t = Instant::now();
            model.forward_infer_ws(&block, &mut cache, ws, &mut logits[..rows * vocab]);
            let ms = ms_since(t);
            cache.truncate(ctx);
            ms
        })
        .collect();
    median(&samples)
}

pub fn forwards(models: &Models, spec: &Spec, reqs: &[Req]) -> Forwards {
    let mut ws = Workspace::new();
    let (target, draft) = (models.target_lm(), models.draft());
    let ctx: Vec<f64> = reqs
        .iter()
        .map(|r| (r.prompt.len() + r.budget / 2) as f64)
        .collect();
    let ctx = median(&ctx).round() as usize;

    // Prompt prefill from an empty cache, each prompt's median of three.
    let vocab = target.cfg.vocab;
    let mut cache = target.new_cache();
    let (mut ms, mut tokens) = (0.0, 0usize);
    for r in reqs {
        let mut logits = vec![0.0; r.prompt.len() * vocab];
        let runs: Vec<f64> = (0..3)
            .map(|_| {
                cache.reset();
                let t = Instant::now();
                target.forward_infer_ws(&r.prompt, &mut cache, &mut ws, &mut logits);
                ms_since(t)
            })
            .collect();
        ms += median(&runs);
        tokens += r.prompt.len();
    }

    // The widest projection of the target: `dim × ff_hidden`.
    let (k, n) = (target.cfg.dim, target.cfg.ff_hidden);
    let mut rng = Rng::new(0x7EC);
    let w: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
    let x: Vec<f32> = (0..k).map(|_| rng.normal()).collect();
    let mut y = vec![0.0f32; n];
    let batches: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..100 {
                vecmat_into(&mut y, std::hint::black_box(&x), &w, k, n);
                std::hint::black_box(&mut y);
            }
            t.elapsed().as_secs_f64() * 1e6 / 100.0
        })
        .collect();

    Forwards {
        prefill_ms_per_token: ms / tokens.max(1) as f64,
        verify_forward_ms: forward_ms(
            target,
            models.target_vision_prefix() + ctx,
            spec.gamma + 1,
            &mut ws,
        ),
        draft_forward_ms: forward_ms(draft, models.draft_vision_prefix() + ctx, 1, &mut ws),
        decode_forward_ms: forward_ms(target, models.target_vision_prefix() + ctx, 1, &mut ws),
        vecmat_us: median(&batches),
    }
}
