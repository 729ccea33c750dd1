//! Set-up: build the served models, align the draft by distillation (the
//! repository has no weight format, so every run distills), and start the
//! engine a workload deploys.

use std::sync::Arc;
use std::time::Instant;

use aasd_mm::{
    distill_hybrid, draft_for, Ablation, HybridDistillConfig, KvProjector, LlavaSim, LlavaSimConfig,
};
use aasd_nn::{Decoder, DecoderConfig};
use aasd_serve::{Engine, EngineConfig, EngineModel};
use aasd_train::{distill, Adam, DistillConfig, Schedule};

use crate::trace::{span, Tracer};
use crate::workload::{Spec, VOCAB};

/// Distillation step budgets, fixed for every run of the benchmark; α is
/// reported beside them so a weaker draft shows.
pub const TEXT_DISTILL_STEPS: usize = 80;
pub const MM_DISTILL_STEPS: usize = 120;

/// Context windows of the served models.
const TEXT_MAX_SEQ: usize = 256;
const MM_MAX_SEQ: usize = 160;

/// The models one workload serves.
pub enum Models {
    Text {
        target: Arc<Decoder>,
        draft: Arc<Decoder>,
    },
    Mm {
        model: Arc<LlavaSim>,
        draft: Arc<Decoder>,
        projector: Arc<KvProjector>,
    },
}

impl Models {
    pub fn target_lm(&self) -> &Decoder {
        match self {
            Models::Text { target, .. } => target,
            Models::Mm { model, .. } => &model.lm,
        }
    }

    pub fn draft(&self) -> &Decoder {
        match self {
            Models::Text { draft, .. } | Models::Mm { draft, .. } => draft,
        }
    }

    /// Rows the served draft cache holds before the prompt.
    pub fn draft_vision_prefix(&self) -> usize {
        match self {
            Models::Text { .. } => 0,
            Models::Mm { projector, .. } => projector.k_slots,
        }
    }

    pub fn target_vision_prefix(&self) -> usize {
        match self {
            Models::Text { .. } => 0,
            Models::Mm { model, .. } => model.n_img(),
        }
    }
}

/// Wall time of each set-up phase, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub model_init_s: f64,
    pub distill_s: f64,
    pub engine_start_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.model_init_s + self.distill_s + self.engine_start_s
    }
}

pub fn distill_steps(spec: &Spec) -> usize {
    if spec.multimodal {
        MM_DISTILL_STEPS
    } else {
        TEXT_DISTILL_STEPS
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One complete set-up: models, distillation, engine. Returns the first
/// and last distillation losses beside the timings.
pub fn set_up(
    spec: &Spec,
    tracer: Option<&Tracer>,
    parent: Option<usize>,
) -> (Models, Arc<Engine>, SetupTimes, (f32, f32)) {
    let steps = distill_steps(spec);
    let t = Instant::now();
    let (models, losses, model_init_s, distill_s) = if spec.multimodal {
        let cfg = LlavaSimConfig::sim_7b(VOCAB, MM_MAX_SEQ);
        let (model, mut draft, mut projector) = span(tracer, "setup.model_init", parent, |_| {
            let model = LlavaSim::new(cfg.clone(), 0xA5D);
            let draft = draft_for(&cfg, 0xF);
            let projector = KvProjector::new(
                0xBEEF,
                draft.cfg.n_layers,
                cfg.lm.n_layers,
                cfg.n_img(),
                cfg.k_slots(),
            );
            (model, draft, projector)
        });
        let model_init_s = secs(t);
        let t = Instant::now();
        let tcfg = HybridDistillConfig {
            steps,
            prompt_len: 6,
            gen_len: 40,
            schedule: Schedule::Cosine {
                base: 4e-3,
                floor: 4e-4,
                total: steps,
            },
            temperature: 0.15,
            seed: 0x5EED,
        };
        let losses = span(tracer, "setup.distill", parent, |_| {
            distill_hybrid(
                &model,
                &mut draft,
                Some(&mut projector),
                Ablation::projector(),
                &tcfg,
            )
        });
        let models = Models::Mm {
            model: Arc::new(model),
            draft: Arc::new(draft),
            projector: Arc::new(projector),
        };
        (models, losses, model_init_s, secs(t))
    } else {
        let (target, mut draft) = span(tracer, "setup.model_init", parent, |_| {
            (
                Decoder::new(DecoderConfig::bench_target(VOCAB, TEXT_MAX_SEQ), 0xD),
                Decoder::new(DecoderConfig::bench_draft(VOCAB, TEXT_MAX_SEQ), 0xF),
            )
        });
        let model_init_s = secs(t);
        let t = Instant::now();
        let dcfg = DistillConfig {
            steps,
            prompt_len: 6,
            gen_len: 56,
            schedule: Schedule::Cosine {
                base: 5e-3,
                floor: 5e-4,
                total: steps,
            },
            temperature: 0.15,
            seed: 0x5EED,
        };
        let losses = span(tracer, "setup.distill", parent, |_| {
            distill(&mut draft, &target, &mut Adam::new(), &dcfg)
        });
        let models = Models::Text {
            target: Arc::new(target),
            draft: Arc::new(draft),
        };
        (models, losses, model_init_s, secs(t))
    };
    let t = Instant::now();
    let engine = span(tracer, "setup.engine_start", parent, |_| {
        start_engine(&models, spec, false)
    });
    let times = SetupTimes {
        model_init_s,
        distill_s,
        engine_start_s: secs(t),
    };
    let first = losses.first().copied().unwrap_or(0.0);
    let last = losses.last().copied().unwrap_or(0.0);
    (models, engine, times, (first, last))
}

/// The engine a workload deploys: one target worker (the load generator
/// takes the other core of a two-core host), on the sync tick scheduler
/// unless `async_pipeline`.
pub fn start_engine(models: &Models, spec: &Spec, async_pipeline: bool) -> Arc<Engine> {
    let model = match models {
        Models::Text { target, draft } => EngineModel::Text {
            target: Arc::clone(target),
            draft: Arc::clone(draft),
        },
        Models::Mm {
            model,
            draft,
            projector,
        } => EngineModel::Multimodal {
            model: Arc::clone(model),
            draft: Arc::clone(draft),
            projector: Arc::clone(projector),
            ablation: Ablation::projector(),
        },
    };
    Engine::new(
        model,
        EngineConfig {
            slots: spec.slots,
            workers: 1,
            max_queue: 64,
            async_pipeline,
            vision_cache_entries: spec.vision_cache_entries,
            ..EngineConfig::default()
        },
    )
}
