//! `aasd-mm` — the multimodal core of the AASD reproduction.
//!
//! AASD (Align Speculative Decoding) accelerates multimodal LLM inference
//! by giving a small draft model an *aligned view* of the target's
//! multimodal context. This crate supplies every piece of that pipeline on
//! the pure-Rust stack:
//!
//! * [`vision`] — [`Image`] (synthetic patch tensors), the bidirectional
//!   pre-norm ViT [`VisionEncoder`], and the 2-layer MLP [`Connector`] into
//!   text-embedding space;
//! * [`llava`] — [`LlavaSim`], the simulated LLaVA-architecture target
//!   (vision ∥ text through the `aasd-nn` decoder via the embeds path),
//!   with `sim_7b`/`sim_13b` presets whose per-forward cost asymmetry the
//!   bench asserts;
//! * [`projector`] — the [`KvProjector`]: learned `W_K, W_V` compressing
//!   the vision slice of the target's per-layer KV into `k` rows;
//! * [`hybrid`] — the [`Ablation`] switches (`use_vision_projector`,
//!   `drop_vision_kv`, `drop_text_kv`), the cache seeding
//!   [`mm_seed_caches`], and the hybrid-cache decode paths
//!   [`mm_autoregressive_ws`] / [`mm_speculative_ws`], built on the seeded
//!   fused loops in `aasd-specdec`;
//! * [`train`] — [`distill_hybrid`]: joint draft+projector KL distillation
//!   on synthetic image+text rollouts, with the student graph
//!   property-tested to equal the inference path (rope offsets,
//!   `concat_rows`, `prefix_causal_attention`).
//!
//! Everything is lossless by construction (greedy verification), so the
//! ablation switches move α/τ — measured, never asserted — while the output
//! tokens stay identical to autoregressive decoding.

pub mod hybrid;
pub mod llava;
pub mod projector;
pub mod train;
pub mod vision;

pub use hybrid::{
    draft_for, draft_for_depth, mm_autoregressive_ws, mm_seed_caches, mm_speculative_ws,
    seed_draft_prefix, Ablation,
};
pub use llava::{LlavaSim, LlavaSimConfig};
pub use projector::{layer_map, seed_raw_vision, KvProjector};
pub use train::{
    distill_hybrid, distill_hybrid_with, frozen_prefix_logits, mm_teacher_probs, mm_teacher_scored,
    own_vision_rows, DistillSource, HybridDistillConfig, TdAlignConfig,
};
pub use vision::{Connector, Image, VisionConfig, VisionEncoder, VitBlock};
