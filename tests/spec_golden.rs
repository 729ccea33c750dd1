//! Golden pin for the synchronous speculative session.
//!
//! [`SpecSession`] is the one draft→verify→commit state machine every
//! speculative path steps (the one-shot loops, the serving scheduler, the
//! multimodal drivers). This suite records its **linear** behaviour — the
//! committed stream and every `SpecStats` counter — as FNV-1a
//! fingerprints over a sweep that exercises each branch of a block:
//!
//! * γ ∈ {1, 3, 5}, with the adaptive-γ controller off and on;
//! * three draft/target pairs: an independent draft (α ≈ 0), an int8
//!   copy of the target (high but imperfect α, so blocks end both in a
//!   rejection and in full acceptance), and the target itself (α = 1
//!   wherever the draft cache holds the target's context);
//! * a budget sweep from 1 token up to the context window, so runs reach
//!   the g = 0 plain-decode fallback and end with blocks clamped to the
//!   budget;
//! * caches leased from a paged pool with the exact capacity a server
//!   grants (`prefix + budget − 1`), so blocks run flush against the lease
//!   frontier, and a draft cache shorter than the target's (the hybrid-cache
//!   shape).
//!
//! The kernels are bit-identical across dispatch tiers, so `ci.sh` runs
//! this suite on the scalar tier and on the host's best tier; a changed
//! fingerprint on either means a refactor changed what the session commits
//! or what it counts.

use aasd::nn::{Decoder, DecoderConfig, KernelPolicy, KvCache, KvPool};
use aasd::specdec::{AdaptiveGamma, SpecSession, SpecStats};
use aasd::tensor::{argmax, Rng, Workspace};

const VOCAB: usize = 48;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn run(&mut self, out: &[u32], s: &SpecStats) {
        self.word(out.len() as u64);
        for &t in out {
            self.word(u64::from(t));
        }
        for c in [
            s.blocks,
            s.drafted,
            s.accepted,
            s.generated,
            s.prefill_tokens,
        ] {
            self.word(c as u64);
        }
    }
}

/// Draft/target pairs by name: independent, int8 copy, self.
fn pair(name: &str) -> (Decoder, Decoder) {
    let target = Decoder::new(DecoderConfig::tiny(VOCAB), 0x601D);
    let draft = match name {
        "independent" => Decoder::new(DecoderConfig::tiny(VOCAB), 0x602D),
        "int8" => {
            let mut d = target.clone();
            d.set_kernel_policy(KernelPolicy::Int8);
            d
        }
        "self" => target.clone(),
        _ => unreachable!("unknown pair {name}"),
    };
    (target, draft)
}

/// Prefill `tokens` into `cache`; returns the argmax after the last one.
fn prefill(model: &Decoder, tokens: &[u32], cache: &mut KvCache, ws: &mut Workspace) -> u32 {
    let vocab = model.cfg.vocab;
    let mut logits = ws.take(tokens.len() * vocab);
    model.forward_infer_ws(tokens, cache, ws, &mut logits);
    let next = argmax(&logits[(tokens.len() - 1) * vocab..]) as u32;
    ws.give(logits);
    next
}

/// How a run's caches are built.
#[derive(Clone, Copy)]
enum Caches {
    /// Full-size caches, both models prefilled on the whole prompt.
    Full,
    /// Exact-capacity leases from a paged pool (`prefix + budget − 1`).
    Leased,
    /// Full-size caches, the draft prefilled on the last two prompt tokens
    /// only (draft cache shorter than the target's).
    ShortDraft,
}

#[allow(clippy::too_many_arguments)]
fn run(
    target: &Decoder,
    draft: &Decoder,
    prompt: &[u32],
    budget: usize,
    gamma: usize,
    adaptive: bool,
    caches: Caches,
    ws: &mut Workspace,
) -> (Vec<u32>, SpecStats) {
    let (mut t_cache, mut d_cache) = match caches {
        Caches::Full | Caches::ShortDraft => (target.new_cache(), draft.new_cache()),
        Caches::Leased => {
            let cap = |prefix: usize| (prefix + budget).saturating_sub(1).max(prefix);
            let t_pool = KvPool::new(target.cfg.n_layers, target.cfg.dim, 4, 64);
            let d_pool = KvPool::new(draft.cfg.n_layers, draft.cfg.dim, 4, 64);
            (
                t_pool.try_lease(cap(prompt.len())).expect("target lease"),
                d_pool.try_lease(cap(prompt.len())).expect("draft lease"),
            )
        }
    };
    let pending = prefill(target, prompt, &mut t_cache, ws);
    let d_prompt = match caches {
        Caches::ShortDraft => &prompt[prompt.len() - 2..],
        _ => prompt,
    };
    prefill(draft, d_prompt, &mut d_cache, ws);
    let mut s = SpecSession::new(target, draft, &t_cache, &d_cache, pending, budget, gamma);
    if adaptive {
        s.enable_adaptive_gamma(AdaptiveGamma::new(0.25));
    }
    while !s.is_done() {
        s.step_block(target, draft, &mut t_cache, &mut d_cache, ws);
    }
    s.into_parts()
}

/// Fingerprint of one (pair, γ, adaptive) cell over the whole sweep, plus
/// the sweep's merged counters.
fn fingerprint(name: &str, gamma: usize, adaptive: bool) -> (u64, SpecStats) {
    let (target, draft) = pair(name);
    let max_seq = target.cfg.max_seq;
    let mut rng = Rng::new(0x5EED ^ gamma as u64);
    let mut ws = Workspace::new();
    let mut h = Fnv::new();
    let mut merged = SpecStats::default();
    let mut prompt =
        |len: usize| -> Vec<u32> { (0..len).map(|_| rng.below(VOCAB) as u32).collect() };
    let short = [prompt(3), prompt(6)];
    for p in &short {
        for budget in [1usize, 2, 3, 4, 7, 12, 25, 40] {
            for caches in [Caches::Full, Caches::Leased, Caches::ShortDraft] {
                let (out, stats) =
                    run(&target, &draft, p, budget, gamma, adaptive, caches, &mut ws);
                assert_eq!(stats.generated, out.len());
                h.run(&out, &stats);
                merged.merge(&stats);
            }
        }
    }
    // Context-boundary prompts: the full feasible budget fills the context
    // window to its last position, so the final blocks are bounded by the
    // room left as much as by the budget.
    for len in [max_seq - 1, max_seq - 4, max_seq - 9] {
        let p = prompt(len);
        let budget = max_seq + 1 - len;
        for caches in [Caches::Full, Caches::Leased] {
            let (out, stats) = run(
                &target, &draft, &p, budget, gamma, adaptive, caches, &mut ws,
            );
            assert_eq!(stats.generated, budget);
            h.run(&out, &stats);
            merged.merge(&stats);
        }
    }
    (h.0, merged)
}

/// Fingerprints of the linear session, recorded before the tree body
/// replaced the linear one. They must never change: streams are pinned by
/// losslessness anyway, but the counters (blocks, drafted, accepted) are
/// what every committed α/τ number is computed from.
#[test]
fn linear_session_matches_golden_fingerprints() {
    const GOLDEN: [(&str, usize, bool, u64); 18] = [
        ("independent", 1, false, 0xcf51_bf58_d571_4b25),
        ("independent", 1, true, 0xcf51_bf58_d571_4b25),
        ("independent", 3, false, 0xc1d0_afdd_4fb9_f562),
        ("independent", 3, true, 0x4361_7db2_7974_c0c2),
        ("independent", 5, false, 0xcb50_bcd5_1d0f_3b29),
        ("independent", 5, true, 0xaf43_334d_9b4e_3f09),
        ("int8", 1, false, 0x3f70_3c7e_7932_06af),
        ("int8", 1, true, 0x74ad_6460_59b6_3308),
        ("int8", 3, false, 0x6894_95d0_542d_64db),
        ("int8", 3, true, 0xd8db_851b_ed91_a6ab),
        ("int8", 5, false, 0xe0cf_8826_105d_72a0),
        ("int8", 5, true, 0xd79b_72ed_959c_738c),
        ("self", 1, false, 0x5944_d97d_6d56_1faf),
        ("self", 1, true, 0x240b_d88f_0a4f_f468),
        ("self", 3, false, 0xb7eb_4b4f_fe10_a851),
        ("self", 3, true, 0x3116_9e2c_3e7d_fca9),
        ("self", 5, false, 0xbecf_0f58_2720_6ea7),
        ("self", 5, true, 0xa5e6_fb0a_1e55_2bcc),
    ];
    let mut drift = Vec::new();
    for (name, gamma, adaptive, want) in GOLDEN {
        let (got, stats) = fingerprint(name, gamma, adaptive);
        // The int8 pair is there to mix accepted and rejected proposals.
        if name == "int8" {
            assert!(0 < stats.accepted && stats.accepted < stats.drafted);
        }
        if got != want {
            drift.push(format!("(\"{name}\", {gamma}, {adaptive}, {got:#018x})"));
        }
    }
    assert!(
        drift.is_empty(),
        "session fingerprints drifted:\n{}",
        drift.join("\n")
    );
}
