//! The serving engine: a block-paged KV pool, FIFO admission in units of
//! free blocks, a shared-prefix vision cache, and the block-granular
//! continuous-batching scheduler.
//!
//! ## Architecture
//!
//! * **Paged KV pool** — the engine owns one pre-allocated
//!   [`KvPool`](aasd_nn::KvPool) per model (target, draft). A session no
//!   longer owns a `max_seq`-sized cache pair for its whole life: at
//!   admission it leases exactly the blocks its `prompt + budget` needs
//!   (`prefix + budget − 1` positions — the last emitted token is never fed
//!   back), and the blocks return to the pool the moment it finishes. Short
//!   requests stop paying for long-request memory, which is what lets the
//!   same arena serve several times the old slot count (the pool test in
//!   `aasd-nn` pins ≥ 4×).
//! * **Admission** — requests wait in a FIFO behind a small mutex with a
//!   hard cap (`cfg.max_queue`). A queue head only moves into a slot when
//!   **both pools can lease its plan**; otherwise it waits head-of-line
//!   (FIFO order is what makes served streams worker-count-independent),
//!   evicting cold vision-cache entries first if those would free enough
//!   blocks.
//! * **Vision cache** — multimodal engines keep an LRU map from image
//!   *content hash* to (a) the target's vision-prefix KV blocks and (b) the
//!   draft's seeded vision rows. A hit leases the session's target cache
//!   *on top of* the cached prefix (copy-on-write block sharing — full
//!   blocks are shared zero-copy, a partial tail is copied) and skips the
//!   vision tower, connector, and `KvProjector` entirely. Hit and miss
//!   produce bit-identical session state, so caching can never change a
//!   token stream, only its latency.
//! * **Scheduler** — [`Engine::tick`] refills free slots from the queue,
//!   then advances every active session one speculative block (or one AR
//!   token), round-robin across `cfg.workers` scoped threads. Sessions own
//!   their leases and scratch, so worker count changes interleaving but
//!   never tokens (pinned by the root determinism test).
//! * **Adaptive γ** — with `cfg.adaptive_gamma`, every speculative session
//!   carries an [`AdaptiveGamma`] controller that re-picks its depth each
//!   block from its own running acceptance rate. Greedy verification is
//!   lossless under any γ schedule, so this moves α/τ and wall-clock only.
//! * **Tree speculation** — with `cfg.tree_speculation`, the sync
//!   scheduler's sessions draft a branching token tree instead of the
//!   linear chain. It is the same [`SpecSession`]; the flag only picks its
//!   [`TreeConfig`].
//! * **Async pipeline** — with `cfg.async_pipeline`, a dedicated draft
//!   thread per speculative session free-runs ahead through an SPSC ring
//!   while target workers verify ([`Engine::run_pipeline`]).
//!
//! Losslessness survives scheduling by construction: the per-block state
//! machine a sync slot steps ([`SpecSession`]) is the *same* one the
//! one-shot fused loops drive, and its lease is sized so the capacity bound
//! is exactly the budget bound — a served completion is token-identical to
//! a single-request `speculative_greedy_seeded_ws` run with the same models
//! and prompt.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use aasd_mm::{seed_draft_prefix, Ablation, Image, KvProjector, LlavaSim};
use aasd_nn::{Decoder, KernelPolicy, KvCache, KvPool};
use aasd_specdec::{
    AcceptanceCalibrator, AdaptiveGamma, ArSession, DraftAhead, DraftStep, SpecSession, SpecStats,
    SpscRing, TreeConfig, VerifyHalf, CONFIDENCE_STOP, MAX_GAMMA,
};
use aasd_tensor::{argmax, Rng, Tensor, Workspace};

use crate::metrics::Metrics;
use crate::request::{DecodeMode, Request, RequestHandle, RequestId, Status};

/// Upper bound on waiting for a draft thread to acknowledge `stop` before
/// detaching it. `notify_draft` bumps the park generation, so a parked
/// draft wakes immediately and real joins complete in microseconds; the
/// bound only guards against a wedged thread.
const DRAFT_JOIN_TIMEOUT: Duration = Duration::from_secs(5);

/// The model bundle an engine serves. One engine serves one family; the
/// text and multimodal paths differ only in prefill and draft-cache
/// seeding — the per-block scheduling is identical.
pub enum EngineModel {
    Text {
        target: Arc<Decoder>,
        draft: Arc<Decoder>,
    },
    /// LlavaSim target with a hybrid-cache draft: the draft's vision prefix
    /// is seeded per `ablation` (learned [`KvProjector`] rows by default)
    /// before the text prefill, exactly like `mm_speculative_ws`.
    Multimodal {
        model: Arc<LlavaSim>,
        draft: Arc<Decoder>,
        projector: Arc<KvProjector>,
        ablation: Ablation,
    },
}

impl EngineModel {
    fn target_lm(&self) -> &Decoder {
        match self {
            EngineModel::Text { target, .. } => target,
            EngineModel::Multimodal { model, .. } => &model.lm,
        }
    }

    fn draft(&self) -> &Decoder {
        match self {
            EngineModel::Text { draft, .. } | EngineModel::Multimodal { draft, .. } => draft,
        }
    }

    /// Owning handle to the draft model, for threads that outlive a
    /// borrow (the pipeline's per-session draft workers).
    fn draft_arc(&self) -> Arc<Decoder> {
        match self {
            EngineModel::Text { draft, .. } | EngineModel::Multimodal { draft, .. } => {
                Arc::clone(draft)
            }
        }
    }

    fn n_img(&self) -> usize {
        match self {
            EngineModel::Text { .. } => 0,
            EngineModel::Multimodal { model, .. } => model.n_img(),
        }
    }

    /// Vision-prefix rows the draft cache is seeded with, per ablation.
    fn d_vision_prefix(&self) -> usize {
        match self {
            EngineModel::Text { .. } => 0,
            EngineModel::Multimodal {
                model,
                projector,
                ablation,
                ..
            } => {
                if ablation.drop_vision_kv {
                    0
                } else if ablation.use_vision_projector {
                    projector.k_slots
                } else {
                    model.n_img()
                }
            }
        }
    }
}

/// Scheduler/admission knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Concurrent sessions the scheduler will step per tick. Memory no
    /// longer scales with this alone — sessions lease KV blocks from the
    /// shared pools, so many short requests fit where few long ones would.
    pub slots: usize,
    /// Worker threads a tick fans sessions across (`std::thread::scope`).
    /// 1 steps every session inline with zero spawn overhead.
    pub workers: usize,
    /// Admission cap: a submit that would push the queue past this is
    /// rejected with [`Rejection::Busy`].
    pub max_queue: usize,
    /// Kernel family the **target** model's fused decode path must be
    /// running (the draft may differ — policies are per model). The engine
    /// holds its models behind `Arc`, so the policy is applied by the model
    /// owner before construction; [`Engine::new`] asserts the model matches
    /// this declaration so a config typo cannot silently serve the wrong
    /// kernels.
    pub kernel_policy: KernelPolicy,
    /// Positions per KV block in both pools.
    pub block_size: usize,
    /// Target-pool arena size in blocks; 0 = auto (`slots` full-length
    /// sessions plus room for `vision_cache_entries` cached prefixes), which
    /// reproduces the old slot-owns-its-cache memory envelope exactly.
    pub t_pool_blocks: usize,
    /// Draft-pool arena size in blocks; 0 = auto (as above).
    pub d_pool_blocks: usize,
    /// Max distinct images the shared-prefix vision cache retains (LRU
    /// beyond that). 0 disables caching. Ignored by text engines.
    pub vision_cache_entries: usize,
    /// Retune each speculative session's γ per block from its running
    /// acceptance rate ([`AdaptiveGamma`]); the request's γ seeds the
    /// session but stops being a fixed depth. Off by default so existing
    /// deployments keep byte-identical performance profiles.
    pub adaptive_gamma: bool,
    /// Run the asynchronous draft/target pipeline instead of the
    /// round-robin tick scheduler: every speculative session gets a
    /// dedicated draft thread that free-runs ahead through a lock-free
    /// SPSC ring while `workers` target threads verify and commit
    /// ([`Engine::run_pipeline`]). Commit authority stays with the verify
    /// leg, so served streams are byte-identical to the synchronous path;
    /// only throughput, TTFT, and the per-block statistics change. Off by
    /// default — the tick scheduler remains the reference.
    pub async_pipeline: bool,
    /// Shape of the token tree speculative sessions draft: off, the linear
    /// γ-token chain ([`TreeConfig::linear`]); on, a branching tree
    /// (branching factor 2, neutral acceptance calibrator) that the target
    /// scores in one tree-attention pass, committing the longest accepted
    /// root-to-leaf path. Either way the slot runs the same
    /// [`SpecSession`]. Lossless — served streams still equal the AR
    /// reference — but the per-block statistics change, so it is off by
    /// default. Sync scheduler only; incompatible with `async_pipeline`.
    pub tree_speculation: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            slots: 4,
            workers: 1,
            max_queue: 64,
            kernel_policy: KernelPolicy::F32,
            block_size: 16,
            t_pool_blocks: 0,
            d_pool_blocks: 0,
            vision_cache_entries: 8,
            adaptive_gamma: false,
            async_pipeline: false,
            tree_speculation: false,
        }
    }
}

/// Why a submit was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// Admission control: queue at capacity. Retry later.
    Busy,
    /// The request can never run on this engine (bad γ, empty prompt,
    /// prompt past the context window, image on a text engine, …).
    Invalid(String),
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::Busy => write!(f, "queue full"),
            Rejection::Invalid(msg) => write!(f, "invalid request: {msg}"),
        }
    }
}

/// The decode state machine a slot is driving.
enum Phase {
    /// Admitted but not yet prefilled; prefill happens on the slot's first
    /// scheduling turn so TTFT honestly includes queue wait + prefill.
    Prefill(Request),
    Spec(SpecSession),
    Ar(ArSession),
}

/// How the session's vision prefix gets into its target cache.
enum VisionPlan {
    /// Text engine: no vision leg.
    None,
    /// No cached prefix existed at admission: run the full vision prefill,
    /// then (best-effort) populate the cache for future sessions.
    Miss { image: Image, hash: u64 },
    /// The session's target lease was built on the cached prefix blocks —
    /// prefill skips the vision tower, connector, and projector.
    Hit { hash: u64 },
}

/// An admitted request bound to its leased KV blocks.
struct Active {
    handle: Arc<RequestHandle>,
    phase: Phase,
    /// Tokens already published to the handle (monotone cursor into the
    /// session's output).
    published: usize,
    t_cache: KvCache,
    /// Present for speculative sessions only.
    d_cache: Option<KvCache>,
    vision: VisionPlan,
}

/// One scheduler slot: scratch allocated once; the KV leases travel with
/// the [`Active`] session, not the slot.
struct Slot {
    ws: Workspace,
    active: Option<Active>,
}

/// Wake-up channel for the async pipeline: target workers park here when
/// a full sweep makes no progress; submits, draft production, and session
/// completion all notify.
struct PipeSignal {
    lock: Mutex<()>,
    cv: Condvar,
}

impl PipeSignal {
    fn new() -> Self {
        Self {
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    fn notify(&self) {
        let _g = self.lock.lock().unwrap();
        self.cv.notify_all();
    }

    fn wait(&self, timeout: Duration) {
        let g = self.lock.lock().unwrap();
        let _ = self.cv.wait_timeout(g, timeout).unwrap();
    }
}

/// Everything a session's draft thread shares with the verify side: the
/// token ring plus control plane. The verify leg owns `depth_cap` (it
/// re-publishes its depth hint each block) and `stop`; the draft thread
/// owns `exited`.
struct DraftLink {
    ring: SpscRing,
    stop: AtomicBool,
    depth_cap: AtomicUsize,
    exited: AtomicBool,
    /// True while the draft is parked at the depth cap / KV capacity —
    /// it cannot deepen the chain, so the verify leg should consume
    /// whatever depth the ring holds instead of waiting for more.
    stalled: AtomicBool,
    /// Park point for the draft thread, an eventcount: the draft samples
    /// the generation before re-checking its condition (a `step` call)
    /// and sleeps only if no notify landed in between, so wakeups cannot
    /// be lost and the sleep needs **no timeout** — a parked draft costs
    /// zero context switches until verify pops, rolls back, or stops it.
    park: Mutex<u64>,
    cv: Condvar,
}

impl DraftLink {
    fn new(depth_cap: usize) -> Self {
        Self {
            ring: SpscRing::new(MAX_GAMMA),
            stop: AtomicBool::new(false),
            depth_cap: AtomicUsize::new(depth_cap),
            exited: AtomicBool::new(false),
            stalled: AtomicBool::new(false),
            park: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    fn notify_draft(&self) {
        *self.park.lock().unwrap() += 1;
        self.cv.notify_all();
    }

    /// Generation to sample before checking whether to park.
    fn park_generation(&self) -> u64 {
        *self.park.lock().unwrap()
    }

    /// Sleep until the generation moves past `seen` (i.e. a notify that
    /// the sampled condition check could not have observed).
    fn park_until_notified(&self, seen: u64) {
        let mut gen = self.park.lock().unwrap();
        while *gen == seen && !self.stop.load(Ordering::Acquire) {
            gen = self.cv.wait(gen).unwrap();
        }
    }
}

/// The decode state machine an async slot is driving. Speculative
/// sessions with ≥ 3 tokens of budget carry a live draft thread; smaller
/// budgets never need a proposal (pending commit + at most one plain
/// decode), so none is spawned.
enum AsyncPhase {
    Prefill(Request),
    Spec {
        verify: VerifyHalf,
        link: Arc<DraftLink>,
        draft_join: Option<std::thread::JoinHandle<()>>,
    },
    Ar(ArSession),
}

/// An admitted request in the async pipeline. The target lease stays
/// here; the draft lease moves into the draft thread when one is spawned
/// (and is released by that thread's exit).
struct AsyncActive {
    handle: Arc<RequestHandle>,
    phase: AsyncPhase,
    published: usize,
    t_cache: KvCache,
    /// Draft lease between admission and draft-thread spawn (and for the
    /// no-thread budgets, until completion).
    d_cache: Option<KvCache>,
    vision: VisionPlan,
    /// Idle-stall edge detector: counts transitions, not poll iterations.
    was_idle: bool,
}

/// One async pipeline slot: a mutex instead of the sync scheduler's
/// whole-vector lock, so free-running workers claim sessions
/// independently (`try_lock` skips slots another worker is stepping).
struct AsyncSlot {
    ws: Workspace,
    active: Option<AsyncActive>,
}

/// A request waiting for blocks: no leases held while queued.
struct Queued {
    handle: Arc<RequestHandle>,
    req: Request,
}

struct QueueState {
    queue: VecDeque<Queued>,
    next_id: RequestId,
    /// Every admitted request's handle, kept for the engine's lifetime so
    /// clients can poll by id after completion (the handle is a few dozen
    /// bytes plus the token vector; an engine serving a bounded bench run
    /// never accumulates enough to matter).
    handles: HashMap<RequestId, Arc<RequestHandle>>,
}

/// One cached image: the target's vision-prefix blocks (shared CoW into
/// sessions) and the draft's seeded vision rows (appended verbatim).
struct VisionEntry {
    t_prefix: KvCache,
    /// Per draft layer: `(keys, values)`, each `[d_vision_prefix, dim]`.
    /// `None` when the creating request was autoregressive (no draft rows
    /// were computed); spec hits then fall back to re-seeding from the
    /// shared target prefix.
    d_seed: Option<Vec<(Tensor, Tensor)>>,
    last_used: u64,
}

#[derive(Default)]
struct VisionCache {
    entries: HashMap<u64, VisionEntry>,
    clock: u64,
}

impl VisionCache {
    /// Evict the least-recently-used entry, skipping `keep`. Returns false
    /// if nothing was evictable.
    ///
    /// Entries whose prefix blocks are currently CoW-shared into a live
    /// session's lease are skipped: dropping such an entry returns **zero**
    /// blocks to the pool (the session still pins them via `Arc`), so
    /// evicting it under block pressure would destroy a reusable prefix
    /// without helping the failed lease at all — the admission loop would
    /// strip the whole cache and still come up empty-handed.
    fn evict_coldest(&mut self, keep: Option<u64>) -> bool {
        let victim = self
            .entries
            .iter()
            .filter(|(h, _)| Some(**h) != keep)
            .filter(|(_, e)| !(0..e.t_prefix.n_blocks()).any(|b| e.t_prefix.block_is_shared(b)))
            .min_by_key(|(_, e)| e.last_used)
            .map(|(h, _)| *h);
        match victim {
            Some(h) => {
                self.entries.remove(&h);
                true
            }
            None => false,
        }
    }
}

/// The lease a request needs, computed from the request alone (before any
/// forward runs) so admission can reason in blocks.
struct LeasePlan {
    /// Committed positions the target cache will hold after prefill.
    t_prefix: usize,
    /// Ditto for the draft (0 when no draft cache is needed).
    d_prefix: usize,
    /// Decode budget the session will be constructed with.
    budget: usize,
    /// Target lease capacity: `t_prefix + budget − 1` — the deepest the
    /// cache can ever grow, because the final emitted token is never fed
    /// back. With this exact capacity the session's per-block room bound
    /// collapses onto its budget bound, so γ selection (and therefore the
    /// stream AND the stats) match the one-shot loop on full-size caches.
    t_capacity: usize,
    d_capacity: Option<usize>,
}

/// The multi-session speculative-decoding engine.
pub struct Engine {
    cfg: EngineConfig,
    model: EngineModel,
    metrics: Arc<Metrics>,
    t_pool: KvPool,
    d_pool: KvPool,
    vision_cache: Mutex<VisionCache>,
    qstate: Mutex<QueueState>,
    /// Held for the whole of a tick; submit/poll/cancel never take it.
    slots: Mutex<Vec<Slot>>,
    work_cv: Condvar,
    /// Async-pipeline slots (`cfg.async_pipeline`); per-slot locks so
    /// free-running workers step disjoint sessions without a global lock.
    pslots: Vec<Mutex<AsyncSlot>>,
    /// Occupied async slots; admission bumps it under the qstate lock so
    /// the until-idle exit check cannot race a queue→slot transfer.
    pipe_active: AtomicUsize,
    pipe_signal: Arc<PipeSignal>,
}

impl Engine {
    pub fn new(model: EngineModel, cfg: EngineConfig) -> Arc<Self> {
        assert!(cfg.slots >= 1, "engine needs at least one slot");
        assert!(cfg.workers >= 1, "engine needs at least one worker");
        assert!(cfg.block_size >= 1, "block_size must be >= 1");
        assert!(
            !(cfg.tree_speculation && cfg.async_pipeline),
            "tree_speculation runs on the sync scheduler only"
        );
        assert_eq!(
            model.target_lm().kernel_policy(),
            cfg.kernel_policy,
            "target model kernel policy does not match the engine config"
        );
        let bs = cfg.block_size;
        let vision_blocks = if matches!(model, EngineModel::Multimodal { .. }) {
            cfg.vision_cache_entries * model.n_img().div_ceil(bs).max(1)
        } else {
            0
        };
        let auto = |max_seq: usize| cfg.slots * max_seq.div_ceil(bs).max(1);
        let t_blocks = if cfg.t_pool_blocks == 0 {
            auto(model.target_lm().cfg.max_seq) + vision_blocks
        } else {
            cfg.t_pool_blocks
        };
        let d_blocks = if cfg.d_pool_blocks == 0 {
            auto(model.draft().cfg.max_seq)
        } else {
            cfg.d_pool_blocks
        };
        let target = model.target_lm();
        let draft = model.draft();
        let t_pool = KvPool::new(target.cfg.n_layers, target.cfg.dim, bs, t_blocks);
        let d_pool = KvPool::new(draft.cfg.n_layers, draft.cfg.dim, bs, d_blocks);
        let slots = (0..cfg.slots)
            .map(|_| Slot {
                ws: Workspace::new(),
                active: None,
            })
            .collect();
        let pslots = (0..cfg.slots)
            .map(|_| {
                Mutex::new(AsyncSlot {
                    ws: Workspace::new(),
                    active: None,
                })
            })
            .collect();
        let engine = Arc::new(Self {
            cfg,
            model,
            metrics: Arc::new(Metrics::new()),
            t_pool,
            d_pool,
            vision_cache: Mutex::new(VisionCache::default()),
            qstate: Mutex::new(QueueState {
                queue: VecDeque::new(),
                next_id: 1,
                handles: HashMap::new(),
            }),
            slots: Mutex::new(slots),
            work_cv: Condvar::new(),
            pslots,
            pipe_active: AtomicUsize::new(0),
            pipe_signal: Arc::new(PipeSignal::new()),
        });
        engine
            .metrics
            .kv_free_blocks_target
            .set(engine.t_pool.free_blocks() as u64);
        engine
            .metrics
            .kv_free_blocks_draft
            .set(engine.d_pool.free_blocks() as u64);
        engine
    }

    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Validate + admit a request. Returns the handle clients poll.
    pub fn submit(&self, req: Request) -> Result<Arc<RequestHandle>, Rejection> {
        if let Err(msg) = self.validate(&req) {
            self.metrics.requests_rejected.inc();
            return Err(Rejection::Invalid(msg));
        }
        let mut q = self.qstate.lock().unwrap();
        if q.queue.len() >= self.cfg.max_queue {
            self.metrics.requests_rejected.inc();
            return Err(Rejection::Busy);
        }
        let id = q.next_id;
        q.next_id += 1;
        let handle = Arc::new(RequestHandle::new(id));
        q.handles.insert(id, Arc::clone(&handle));
        q.queue.push_back(Queued {
            handle: Arc::clone(&handle),
            req,
        });
        self.metrics.requests_submitted.inc();
        self.metrics.queue_depth.set(q.queue.len() as u64);
        drop(q);
        self.work_cv.notify_all();
        self.pipe_signal.notify();
        Ok(handle)
    }

    /// Size the leases a request needs; assumes the request validated.
    fn lease_plan(&self, req: &Request) -> LeasePlan {
        let target = self.model.target_lm();
        let draft = self.model.draft();
        let t_prefix = self.model.n_img() + req.prompt.len();
        match req.mode {
            DecodeMode::Autoregressive => {
                let budget = req.max_new.min(target.cfg.max_seq + 1 - t_prefix);
                LeasePlan {
                    t_prefix,
                    d_prefix: 0,
                    budget,
                    t_capacity: t_prefix + budget - 1,
                    d_capacity: None,
                }
            }
            DecodeMode::Speculative { .. } => {
                let drop_text = match &self.model {
                    EngineModel::Text { .. } => false,
                    EngineModel::Multimodal { ablation, .. } => ablation.drop_text_kv,
                };
                let d_prefix =
                    self.model.d_vision_prefix() + if drop_text { 0 } else { req.prompt.len() };
                let budget = req
                    .max_new
                    .min(target.cfg.max_seq + 1 - t_prefix)
                    .min(draft.cfg.max_seq + 1 - d_prefix);
                LeasePlan {
                    t_prefix,
                    d_prefix,
                    budget,
                    t_capacity: t_prefix + budget - 1,
                    d_capacity: Some(d_prefix + budget - 1),
                }
            }
        }
    }

    fn validate(&self, req: &Request) -> Result<(), String> {
        if req.prompt.is_empty() {
            return Err("empty prompt".into());
        }
        if req.max_new == 0 {
            return Err("max_new must be >= 1".into());
        }
        if let DecodeMode::Speculative { gamma } = req.mode {
            if !(1..MAX_GAMMA).contains(&gamma) {
                return Err(format!("gamma must be in 1..{MAX_GAMMA}"));
            }
        }
        let vocab = self.model.target_lm().cfg.vocab as u32;
        if let Some(&t) = req.prompt.iter().find(|&&t| t >= vocab) {
            return Err(format!("prompt token {t} outside vocab {vocab}"));
        }
        // The committed prefix the prompt occupies in each cache; every
        // request must leave at least one token of decode room. The draft
        // bound stays conservative (full n_img prefix) so admission does
        // not depend on the ablation switches.
        let (t_prefix, d_prefix) = match &self.model {
            EngineModel::Text { .. } => {
                if req.image_seed.is_some() {
                    return Err("image_seed on a text-only engine".into());
                }
                (req.prompt.len(), req.prompt.len())
            }
            EngineModel::Multimodal { model, .. } => {
                if req.image_seed.is_none() {
                    return Err("multimodal engine requires image_seed".into());
                }
                (
                    model.n_img() + req.prompt.len(),
                    model.n_img() + req.prompt.len(),
                )
            }
        };
        if t_prefix > self.model.target_lm().cfg.max_seq {
            return Err("prompt exceeds target context window".into());
        }
        if matches!(req.mode, DecodeMode::Speculative { .. })
            && d_prefix > self.model.draft().cfg.max_seq
        {
            return Err("prompt exceeds draft context window".into());
        }
        // Admission reasons in blocks: a request whose lease can never be
        // satisfied even by an empty pool must be refused up front, or it
        // would wedge the queue head forever.
        let plan = self.lease_plan(req);
        if self.t_pool.blocks_for(plan.t_capacity) > self.t_pool.total_blocks() {
            return Err("request KV footprint exceeds the target pool".into());
        }
        if let Some(dc) = plan.d_capacity {
            if self.d_pool.blocks_for(dc) > self.d_pool.total_blocks() {
                return Err("request KV footprint exceeds the draft pool".into());
            }
        }
        Ok(())
    }

    /// Look up a request's handle by id (wire-protocol clients only hold
    /// ids).
    pub fn handle(&self, id: RequestId) -> Option<Arc<RequestHandle>> {
        self.qstate.lock().unwrap().handles.get(&id).cloned()
    }

    /// Snapshot a request's status and committed tokens by id.
    pub fn poll(&self, id: RequestId) -> Option<(Status, Vec<u32>)> {
        self.handle(id).map(|h| h.snapshot())
    }

    /// Request cancellation by id. Queued requests are dropped at the next
    /// refill; running ones stop at their next block boundary. Returns
    /// false if the id was never seen or already reached a terminal state.
    ///
    /// (Going through a held [`RequestHandle`] via `handle.cancel()` is
    /// equivalent; this lookup exists for the wire protocol.)
    pub fn cancel(&self, id: RequestId) -> bool {
        let Some(handle) = self.handle(id) else {
            return false;
        };
        if matches!(handle.snapshot().0, Status::Done | Status::Cancelled) {
            return false;
        }
        handle.cancel();
        true
    }

    /// One scheduling round; returns true if any session advanced (work was
    /// done). Not re-entrant — the slots mutex serializes concurrent ticks.
    pub fn tick(&self) -> bool {
        let mut slots = self.slots.lock().unwrap();
        self.refill(&mut slots);
        let active = slots.iter().filter(|s| s.active.is_some()).count();
        self.metrics.active_sessions.set(active as u64);
        if active == 0 {
            return false;
        }
        self.metrics.scheduler_ticks.inc();
        let workers = self.cfg.workers.min(active);
        if workers <= 1 {
            for slot in slots.iter_mut() {
                self.step_slot(slot);
            }
        } else {
            // Round-robin the occupied slots across scoped workers. Shards
            // own disjoint &mut Slot sets; the models/metrics are shared
            // read-only/atomic, so this is data-race-free by construction.
            let mut shards: Vec<Vec<&mut Slot>> = (0..workers).map(|_| Vec::new()).collect();
            for (i, slot) in slots.iter_mut().filter(|s| s.active.is_some()).enumerate() {
                shards[i % workers].push(slot);
            }
            std::thread::scope(|scope| {
                for shard in shards {
                    scope.spawn(move || {
                        for slot in shard {
                            self.step_slot(slot);
                        }
                    });
                }
            });
        }
        true
    }

    /// Drive the engine until queue and slots are empty (synchronous mode,
    /// used by benches and tests; the server runs [`Engine::tick`] on a
    /// scheduler thread instead). With `cfg.async_pipeline` this runs the
    /// free-running pipeline to completion instead.
    pub fn run_until_idle(&self) {
        if self.cfg.async_pipeline {
            self.run_pipeline(None);
        } else {
            while self.tick() || !self.qstate.lock().unwrap().queue.is_empty() {}
        }
    }

    /// Park until work arrives or the timeout elapses (scheduler-thread
    /// idle wait).
    pub fn wait_for_work(&self, timeout: std::time::Duration) {
        let q = self.qstate.lock().unwrap();
        if q.queue.is_empty() {
            let _ = self.work_cv.wait_timeout(q, timeout).unwrap();
        }
    }

    /// Cancel everything queued or running (server shutdown drain). Queued
    /// requests are finished `Cancelled` **immediately** — they hold no
    /// leases and will never get a scheduling turn once the server stops
    /// ticking — so the queue-depth gauge drops to 0 here rather than
    /// lingering at its pre-shutdown value. Running sessions stop at their
    /// next block boundary as before.
    pub fn cancel_all(&self) {
        {
            let mut q = self.qstate.lock().unwrap();
            while let Some(qd) = q.queue.pop_front() {
                qd.handle.cancel();
                qd.handle.finish(Status::Cancelled, None);
                self.metrics.requests_cancelled.inc();
            }
            self.metrics.queue_depth.set(0);
        }
        let slots = self.slots.lock().unwrap();
        for slot in slots.iter() {
            if let Some(a) = &slot.active {
                a.handle.cancel();
            }
        }
        drop(slots);
        for slot in &self.pslots {
            if let Some(a) = &slot.lock().unwrap().active {
                a.handle.cancel();
            }
        }
    }

    /// Move queued requests into free slots (FIFO), dropping cancelled
    /// entries. Called at the top of every tick, so a slot freed by a
    /// completion in round N is serving the next queued request in round
    /// N+1 — no slot ever idles while the queue is non-empty *and* the
    /// pools can cover its lease. When they cannot, the head waits —
    /// skipping ahead would break the FIFO order that makes served streams
    /// independent of worker count.
    fn refill(&self, slots: &mut [Slot]) {
        let mut q = self.qstate.lock().unwrap();
        'slots: for slot in slots.iter_mut().filter(|s| s.active.is_none()) {
            let next = loop {
                match q.queue.pop_front() {
                    Some(qd) if qd.handle.is_cancel_requested() => {
                        qd.handle.finish(Status::Cancelled, None);
                        self.metrics.requests_cancelled.inc();
                    }
                    other => break other,
                }
            };
            let Some(queued) = next else { break };
            match self.admit(&queued.req) {
                Some((t_cache, d_cache, vision)) => {
                    queued.handle.mark_running();
                    slot.active = Some(Active {
                        handle: queued.handle,
                        phase: Phase::Prefill(queued.req),
                        published: 0,
                        t_cache,
                        d_cache,
                        vision,
                    });
                }
                None => {
                    // Not enough free blocks even after eviction: the head
                    // waits for a running session to finish.
                    q.queue.push_front(queued);
                    break 'slots;
                }
            }
        }
        self.metrics.queue_depth.set(q.queue.len() as u64);
        self.metrics
            .kv_free_blocks_target
            .set(self.t_pool.free_blocks() as u64);
        self.metrics
            .kv_free_blocks_draft
            .set(self.d_pool.free_blocks() as u64);
    }

    /// Try to lease everything `req` needs. On success the caches are live
    /// (blocks deducted); on failure everything acquired is returned and
    /// the caller leaves the request queued.
    fn admit(&self, req: &Request) -> Option<(KvCache, Option<KvCache>, VisionPlan)> {
        let plan = self.lease_plan(req);
        match &self.model {
            EngineModel::Text { .. } => {
                let t_cache = self.t_pool.try_lease(plan.t_capacity)?;
                let d_cache = match plan.d_capacity {
                    Some(dc) => Some(self.d_pool.try_lease(dc)?),
                    None => None,
                };
                Some((t_cache, d_cache, VisionPlan::None))
            }
            EngineModel::Multimodal { model, .. } => {
                let seed = req.image_seed.expect("validated at submit");
                let image = Image::synthetic(
                    &mut Rng::new(seed),
                    model.cfg.vision.n_patches,
                    model.cfg.vision.patch_dim,
                );
                let hash = image.content_hash();
                // Eviction loop: each failed lease attempt frees the
                // coldest cached prefix and retries, until the cache is
                // empty — at which point the pool is genuinely full.
                loop {
                    let mut vc = self.vision_cache.lock().unwrap();
                    let hit = vc.entries.contains_key(&hash);
                    let t_cache = if hit {
                        vc.clock += 1;
                        let clock = vc.clock;
                        let entry = vc.entries.get_mut(&hash).unwrap();
                        entry.last_used = clock;
                        self.t_pool
                            .try_lease_with_prefix(&entry.t_prefix, plan.t_capacity)
                    } else {
                        self.t_pool.try_lease(plan.t_capacity)
                    };
                    let leases = t_cache.and_then(|t| match plan.d_capacity {
                        Some(dc) => self.d_pool.try_lease(dc).map(|d| (t, Some(d))),
                        None => Some((t, None)),
                    });
                    if let Some((t_cache, d_cache)) = leases {
                        if hit {
                            self.metrics.vision_cache_hits.inc();
                        } else {
                            self.metrics.vision_cache_misses.inc();
                        }
                        let vision = if hit {
                            VisionPlan::Hit { hash }
                        } else {
                            VisionPlan::Miss { image, hash }
                        };
                        return Some((t_cache, d_cache, vision));
                    }
                    if !vc.evict_coldest(Some(hash)) {
                        return None;
                    }
                }
            }
        }
    }

    /// Advance one slot by one unit of work: prefill on the session's first
    /// turn, afterwards one speculative block (or one AR token).
    fn step_slot(&self, slot: &mut Slot) {
        let Slot { ws, active: cell } = slot;
        let Some(active) = cell.as_mut() else {
            return;
        };
        if active.handle.is_cancel_requested() {
            self.finish_slot(cell, Status::Cancelled);
            return;
        }
        let started = Instant::now();
        let Active {
            handle,
            phase,
            published,
            t_cache,
            d_cache,
            vision,
        } = active;
        let report = match phase {
            Phase::Prefill(req) => {
                let req = req.clone();
                *phase = self.prefill(&req, t_cache, d_cache, vision, ws);
                let (tokens, done) = match &*phase {
                    Phase::Spec(s) => (s.tokens(), s.is_done()),
                    Phase::Ar(s) => (s.tokens(), s.is_done()),
                    Phase::Prefill(_) => unreachable!(),
                };
                self.publish_prefill(handle, published, tokens);
                if done {
                    self.finish_slot(cell, Status::Done);
                }
                return;
            }
            Phase::Spec(session) => {
                let report = session.step_block(
                    self.model.target_lm(),
                    self.model.draft(),
                    t_cache,
                    d_cache.as_mut().expect("spec session without draft lease"),
                    ws,
                );
                self.publish_step(handle, published, session.tokens(), started);
                report
            }
            Phase::Ar(session) => {
                let report = session.step(self.model.target_lm(), t_cache, ws);
                self.publish_step(handle, published, session.tokens(), started);
                report
            }
        };
        if report.done {
            self.finish_slot(cell, Status::Done);
        }
    }

    /// Push the tokens a session committed since the last publish to its
    /// handle, advance the `published` cursor, and count them. Returns how
    /// many were new.
    fn publish(&self, handle: &RequestHandle, published: &mut usize, tokens: &[u32]) -> usize {
        let new = &tokens[*published..];
        if !new.is_empty() {
            handle.push_tokens(new);
            *published = tokens.len();
            self.metrics.tokens_generated.add(new.len() as u64);
        }
        new.len()
    }

    /// Publish the prefill-decided first token and record TTFT (= queue
    /// wait + prefill). Shared by both schedulers.
    fn publish_prefill(&self, handle: &RequestHandle, published: &mut usize, tokens: &[u32]) {
        let n = self.publish(handle, published, tokens);
        debug_assert_eq!(n, 1);
        if let Some(ttft) = handle.ttft_ms() {
            self.metrics.ttft_ms.record_ms(ttft);
        }
    }

    /// After one decode step (a speculative block or an AR token) that
    /// began at `started`: record its wall time as a `block_ms` sample,
    /// publish what it committed, and split the time evenly over those
    /// tokens in `token_ms`. Shared by both schedulers.
    fn publish_step(
        &self,
        handle: &RequestHandle,
        published: &mut usize,
        tokens: &[u32],
        started: Instant,
    ) {
        let block_ms = started.elapsed().as_secs_f64() * 1e3;
        self.metrics.block_ms.record_ms(block_ms);
        let n = self.publish(handle, published, tokens);
        for _ in 0..n {
            self.metrics.token_ms.record_ms(block_ms / n as f64);
        }
    }

    /// Target-side prefill for `req` → the pending (first decided) token.
    /// On a vision-cache hit the target lease already carries the `n_img`
    /// prefix, so only the text leg runs. Shared verbatim by the sync
    /// scheduler and the async pipeline — prefill is what makes streams
    /// identical between them, so there is exactly one implementation.
    fn prefill_target(
        &self,
        req: &Request,
        t_cache: &mut KvCache,
        vision: &VisionPlan,
        ws: &mut Workspace,
    ) -> u32 {
        let target = self.model.target_lm();
        let pending = match (&self.model, vision) {
            (EngineModel::Text { .. }, _) => {
                debug_assert!(t_cache.is_empty());
                let vocab = target.cfg.vocab;
                let mut logits = ws.take(req.prompt.len() * vocab);
                target.forward_infer_ws(&req.prompt, t_cache, ws, &mut logits);
                let pending = argmax(&logits[(req.prompt.len() - 1) * vocab..]) as u32;
                ws.give(logits);
                pending
            }
            (EngineModel::Multimodal { model, .. }, VisionPlan::Miss { image, hash }) => {
                debug_assert!(t_cache.is_empty());
                let pending = model.prefill_ws(image, &req.prompt, t_cache, ws);
                self.populate_vision_cache(*hash, t_cache, None);
                pending
            }
            (EngineModel::Multimodal { model, .. }, VisionPlan::Hit { .. }) => {
                debug_assert_eq!(t_cache.len(), model.n_img());
                model.prefill_text_ws(&req.prompt, t_cache, ws)
            }
            (EngineModel::Multimodal { .. }, VisionPlan::None) => {
                unreachable!("multimodal admission always sets a vision plan")
            }
        };

        // The lease was sized from the request alone; the actual prefill
        // must land exactly on that plan or the capacity/budget identity
        // (and with it stream-equivalence to the one-shot loops) breaks.
        debug_assert_eq!(
            t_cache.len(),
            self.lease_plan(req).t_prefix,
            "t prefix != plan"
        );
        pending
    }

    /// Draft-side prefill for a speculative `req`: text prompt, preceded
    /// in the multimodal case by the ablation-selected vision prefix
    /// (hybrid cache, same seeding as `mm_speculative_ws`). A vision-
    /// cache hit appends the cached projected rows instead of re-running
    /// the projector. Also shared by both schedulers.
    fn seed_draft_caches(
        &self,
        req: &Request,
        t_cache: &mut KvCache,
        d_cache: &mut KvCache,
        vision: &VisionPlan,
        ws: &mut Workspace,
    ) {
        let draft = self.model.draft();
        match (&self.model, vision) {
            (EngineModel::Text { .. }, _) => {
                let mut d_logits = ws.take(req.prompt.len() * draft.cfg.vocab);
                draft.forward_infer_ws(&req.prompt, d_cache, ws, &mut d_logits);
                ws.give(d_logits);
            }
            (
                EngineModel::Multimodal {
                    model,
                    projector,
                    ablation,
                    ..
                },
                plan,
            ) => {
                let seeded_from_cache = match plan {
                    VisionPlan::Hit { hash } => self.seed_draft_from_cache(*hash, d_cache),
                    _ => false,
                };
                if !seeded_from_cache {
                    seed_draft_prefix(model, Some(projector), *ablation, t_cache, d_cache);
                }
                if let VisionPlan::Miss { hash, .. } = plan {
                    self.populate_vision_cache(*hash, t_cache, Some(d_cache));
                }
                if !ablation.drop_text_kv {
                    let mut d_logits = ws.take(req.prompt.len() * draft.cfg.vocab);
                    draft.forward_infer_ws(&req.prompt, d_cache, ws, &mut d_logits);
                    ws.give(d_logits);
                }
            }
        }
        debug_assert_eq!(
            d_cache.len(),
            self.lease_plan(req).d_prefix,
            "d prefix != plan"
        );
    }

    /// Prefill the session's leased caches for `req` and build its decode
    /// session (sync scheduler).
    fn prefill(
        &self,
        req: &Request,
        t_cache: &mut KvCache,
        d_cache: &mut Option<KvCache>,
        vision: &VisionPlan,
        ws: &mut Workspace,
    ) -> Phase {
        let target = self.model.target_lm();
        let draft = self.model.draft();
        let pending = self.prefill_target(req, t_cache, vision, ws);
        let plan = self.lease_plan(req);
        match req.mode {
            DecodeMode::Autoregressive => {
                let budget = req.max_new.min(target.cfg.max_seq + 1 - t_cache.len());
                debug_assert_eq!(budget, plan.budget);
                Phase::Ar(ArSession::new(target, t_cache, pending, budget))
            }
            DecodeMode::Speculative { gamma } => {
                let d_cache = d_cache.as_mut().expect("spec admission leases a draft");
                self.seed_draft_caches(req, t_cache, d_cache, vision, ws);
                let budget = req
                    .max_new
                    .min(target.cfg.max_seq + 1 - t_cache.len())
                    .min(draft.cfg.max_seq + 1 - d_cache.len());
                debug_assert_eq!(budget, plan.budget);
                let mut session =
                    SpecSession::new(target, draft, t_cache, d_cache, pending, budget, gamma);
                // Only a calibrated tree reads the visual mass, so only a
                // tree session pays for measuring it.
                if self.cfg.tree_speculation {
                    session = session
                        .with_tree(TreeConfig {
                            calibrator: Some(AcceptanceCalibrator::neutral()),
                            ..TreeConfig::default()
                        })
                        .with_vision_boundary(self.model.n_img());
                }
                if self.cfg.adaptive_gamma {
                    let ratio = draft.n_params() as f64 / target.n_params() as f64;
                    session.enable_adaptive_gamma(AdaptiveGamma::new(ratio));
                }
                Phase::Spec(session)
            }
        }
    }

    /// Best-effort: install `hash`'s vision prefix (and, when the creating
    /// session was speculative, its seeded draft rows) into the cache.
    /// Runs after a miss prefill; the rows are copied out of the session's
    /// caches, so the entry is bit-identical to what a fresh vision
    /// prefill would produce. Skipped when caching is disabled, the entry
    /// raced into existence, or the pool has no spare blocks (the session
    /// itself always wins over the cache).
    fn populate_vision_cache(&self, hash: u64, t_cache: &KvCache, d_cache: Option<&KvCache>) {
        if self.cfg.vision_cache_entries == 0 {
            return;
        }
        let n_img = self.model.n_img();
        let d_prefix = self.model.d_vision_prefix();
        let mut vc = self.vision_cache.lock().unwrap();
        if vc.entries.contains_key(&hash) {
            return;
        }
        let Some(mut t_prefix) = self.t_pool.try_lease(n_img) else {
            return;
        };
        for l in 0..t_cache.n_layers() {
            let src = t_cache.layer(l);
            let mut dst = t_prefix.layer_mut(l);
            for pos in 0..n_img {
                dst.append(src.key(pos), src.value(pos));
            }
        }
        let d_seed = d_cache.map(|dc| {
            (0..dc.n_layers())
                .map(|l| {
                    let src = dc.layer(l);
                    let dim = dc.dim();
                    let mut k = Tensor::zeros(d_prefix, dim);
                    let mut v = Tensor::zeros(d_prefix, dim);
                    for pos in 0..d_prefix {
                        k.row_mut(pos).copy_from_slice(src.key(pos));
                        v.row_mut(pos).copy_from_slice(src.value(pos));
                    }
                    (k, v)
                })
                .collect()
        });
        while vc.entries.len() >= self.cfg.vision_cache_entries {
            if !vc.evict_coldest(None) {
                break;
            }
        }
        vc.clock += 1;
        let clock = vc.clock;
        vc.entries.insert(
            hash,
            VisionEntry {
                t_prefix,
                d_seed,
                last_used: clock,
            },
        );
    }

    /// On a hit, seed the draft's vision prefix from the cached rows —
    /// skipping the projector matmuls. Returns false when the entry was
    /// evicted between admission and prefill or carries no draft rows
    /// (created by an AR request); the caller then re-seeds from the
    /// target prefix, which the session's lease still shares.
    fn seed_draft_from_cache(&self, hash: u64, d_cache: &mut KvCache) -> bool {
        let vc = self.vision_cache.lock().unwrap();
        let Some(entry) = vc.entries.get(&hash) else {
            return false;
        };
        let Some(d_seed) = &entry.d_seed else {
            return false;
        };
        debug_assert!(d_cache.is_empty());
        for (l, (k, v)) in d_seed.iter().enumerate() {
            let mut layer = d_cache.layer_mut(l);
            for r in 0..k.rows {
                layer.append(k.row(r), v.row(r));
            }
        }
        true
    }

    /// Completion bookkeeping (done or cancelled); dropping the [`Active`]
    /// releases its leases, and the freed slot is refilled on the next
    /// tick.
    fn finish_slot(&self, cell: &mut Option<Active>, status: Status) {
        let active = cell.take().expect("finishing an empty slot");
        let stats = match active.phase {
            Phase::Spec(session) => Some(session.into_parts().1),
            _ => None,
        };
        self.close(&active.handle, status, stats);
    }

    /// Finish a request's handle with its final status and speculation
    /// counters, folding both into the engine metrics. Shared by both
    /// schedulers.
    fn close(&self, handle: &RequestHandle, status: Status, stats: Option<SpecStats>) {
        if let Some(s) = &stats {
            self.metrics.merge_spec_stats(s);
        }
        handle.finish(status, stats);
        if status == Status::Done {
            self.metrics.requests_completed.inc();
        } else {
            self.metrics.requests_cancelled.inc();
        }
    }

    // ------------------------------------------------------------------
    // Asynchronous draft/target pipeline (`cfg.async_pipeline`)
    // ------------------------------------------------------------------

    /// Free-running async scheduler: spawns `cfg.workers` scoped target
    /// workers that admit, prefill, verify, and complete sessions
    /// continuously — no per-tick barrier — while each speculative
    /// session's dedicated draft thread speculates ahead through its SPSC
    /// ring. With `stop: None` the call returns once queue and slots are
    /// drained (bench/test mode); with a stop flag it runs until the flag
    /// is raised (server mode), leaving in-flight sessions for
    /// [`Engine::drain_pipeline`].
    ///
    /// Streams are byte-identical to the synchronous scheduler at any
    /// worker count: the verify leg alone commits tokens, and every
    /// commit is the target model's own argmax (see `aasd-specdec`'s
    /// `pipeline` module for the argument).
    pub fn run_pipeline(&self, stop: Option<&AtomicBool>) {
        assert!(
            self.cfg.async_pipeline,
            "run_pipeline requires cfg.async_pipeline"
        );
        if self.cfg.workers == 1 {
            // No point paying a scoped spawn for the single-worker case.
            self.pipeline_worker(stop);
            return;
        }
        std::thread::scope(|scope| {
            for _ in 0..self.cfg.workers {
                scope.spawn(|| self.pipeline_worker(stop));
            }
        });
    }

    /// One target worker: sweep the slots, stepping whichever sessions
    /// are not already being stepped by another worker (per-slot
    /// `try_lock` — sessions are never stepped concurrently, workers just
    /// claim different ones). Parks briefly when a sweep makes no
    /// progress.
    fn pipeline_worker(&self, stop: Option<&AtomicBool>) {
        let mut idle_sweeps = 0u32;
        let mut wakes: Vec<Arc<DraftLink>> = Vec::new();
        loop {
            if let Some(flag) = stop {
                if flag.load(Ordering::Acquire) {
                    return;
                }
            }
            let mut progressed = self.pipeline_refill();
            for slot in &self.pslots {
                if let Ok(mut guard) = slot.try_lock() {
                    progressed |= self.pipeline_step(&mut guard, &mut wakes);
                }
            }
            if !wakes.is_empty() {
                // Draft wakeups deferred out of the sweep: waking a draft
                // mid-sweep invites it to preempt the next session's
                // target pass (and trash its cache working set) on a
                // single-core host. Notify here, then yield once so every
                // woken draft refills its ring before the next sweep.
                for link in wakes.drain(..) {
                    link.notify_draft();
                }
                std::thread::yield_now();
            }
            if progressed {
                idle_sweeps = 0;
                self.metrics.scheduler_ticks.inc();
            } else {
                if stop.is_none() {
                    // Until-idle exit: the queue→slot transfer happens
                    // entirely under the qstate lock (pop + pipe_active
                    // bump), so this check cannot observe a request in
                    // neither place.
                    let q = self.qstate.lock().unwrap();
                    if q.queue.is_empty() && self.pipe_active.load(Ordering::Acquire) == 0 {
                        return;
                    }
                    drop(q);
                }
                idle_sweeps += 1;
                if idle_sweeps <= 2 {
                    // An idle sweep usually means the rings are mid-refill.
                    // Yielding hands the core straight to the runnable
                    // draft threads (they only need tens of µs per chain),
                    // where a timed park would add wakeup latency to every
                    // block on a single-core host.
                    std::thread::yield_now();
                } else {
                    self.pipe_signal.wait(Duration::from_millis(1));
                }
            }
        }
    }

    /// Admit queued requests into vacant async slots (FIFO with
    /// head-of-line blocking, exactly like the sync `refill`).
    fn pipeline_refill(&self) -> bool {
        let mut q = self.qstate.lock().unwrap();
        let mut admitted = false;
        'slots: for slot in &self.pslots {
            let Ok(mut guard) = slot.try_lock() else {
                continue;
            };
            if guard.active.is_some() {
                continue;
            }
            let next = loop {
                match q.queue.pop_front() {
                    Some(qd) if qd.handle.is_cancel_requested() => {
                        qd.handle.finish(Status::Cancelled, None);
                        self.metrics.requests_cancelled.inc();
                    }
                    other => break other,
                }
            };
            let Some(queued) = next else { break };
            match self.admit(&queued.req) {
                Some((t_cache, d_cache, vision)) => {
                    queued.handle.mark_running();
                    guard.active = Some(AsyncActive {
                        handle: queued.handle,
                        phase: AsyncPhase::Prefill(queued.req),
                        published: 0,
                        t_cache,
                        d_cache,
                        vision,
                        was_idle: false,
                    });
                    self.pipe_active.fetch_add(1, Ordering::Release);
                    admitted = true;
                }
                None => {
                    // Not enough free blocks: the head waits (FIFO).
                    q.queue.push_front(queued);
                    break 'slots;
                }
            }
        }
        self.metrics.queue_depth.set(q.queue.len() as u64);
        self.metrics
            .active_sessions
            .set(self.pipe_active.load(Ordering::Relaxed) as u64);
        self.metrics
            .kv_free_blocks_target
            .set(self.t_pool.free_blocks() as u64);
        self.metrics
            .kv_free_blocks_draft
            .set(self.d_pool.free_blocks() as u64);
        admitted
    }

    /// Advance one async slot. Prefill on the first turn (spawning the
    /// session's draft thread); afterwards one verify step against
    /// whatever the draft has queued. Returns whether anything advanced.
    fn pipeline_step(&self, slot: &mut AsyncSlot, wakes: &mut Vec<Arc<DraftLink>>) -> bool {
        let AsyncSlot { ws, active: cell } = slot;
        let Some(active) = cell.as_mut() else {
            return false;
        };
        if active.handle.is_cancel_requested() {
            self.finish_async(cell, Status::Cancelled, Instant::now() + DRAFT_JOIN_TIMEOUT);
            return true;
        }
        let started = Instant::now();

        let req = match &active.phase {
            AsyncPhase::Prefill(req) => Some(req.clone()),
            _ => None,
        };
        if let Some(req) = req {
            let target = self.model.target_lm();
            let draft = self.model.draft();
            let pending = self.prefill_target(&req, &mut active.t_cache, &active.vision, ws);
            match req.mode {
                DecodeMode::Autoregressive => {
                    let budget = req
                        .max_new
                        .min(target.cfg.max_seq + 1 - active.t_cache.len());
                    active.phase =
                        AsyncPhase::Ar(ArSession::new(target, &active.t_cache, pending, budget));
                }
                DecodeMode::Speculative { gamma } => {
                    let d_cache = active
                        .d_cache
                        .as_mut()
                        .expect("spec admission leases a draft");
                    self.seed_draft_caches(&req, &mut active.t_cache, d_cache, &active.vision, ws);
                    let budget = req
                        .max_new
                        .min(target.cfg.max_seq + 1 - active.t_cache.len())
                        .min(draft.cfg.max_seq + 1 - d_cache.len());
                    let mut verify = VerifyHalf::new(
                        target,
                        &active.t_cache,
                        d_cache.len(),
                        pending,
                        budget,
                        gamma,
                    );
                    if self.cfg.adaptive_gamma {
                        let ratio = draft.n_params() as f64 / target.n_params() as f64;
                        verify.enable_adaptive_gamma(AdaptiveGamma::new(ratio));
                    }
                    let link = Arc::new(DraftLink::new(verify.depth_hint()));
                    // Budgets ≤ 2 never consume a proposal (the pending
                    // commit plus at most one plain decode), so they get
                    // no draft thread; the unused lease drops at finish.
                    let draft_join = if budget >= 3 {
                        let d_lease = active.d_cache.take().expect("checked above");
                        Some(self.spawn_draft(d_lease, pending, Arc::clone(&link)))
                    } else {
                        None
                    };
                    active.phase = AsyncPhase::Spec {
                        verify,
                        link,
                        draft_join,
                    };
                }
            }
            let (tokens, done) = match &active.phase {
                AsyncPhase::Spec { verify, .. } => (verify.tokens(), verify.is_done()),
                AsyncPhase::Ar(s) => (s.tokens(), s.is_done()),
                AsyncPhase::Prefill(_) => unreachable!(),
            };
            self.publish_prefill(&active.handle, &mut active.published, tokens);
            if done {
                self.finish_async(cell, Status::Done, Instant::now() + DRAFT_JOIN_TIMEOUT);
            }
            return true;
        }

        match &mut active.phase {
            AsyncPhase::Spec {
                verify,
                link,
                draft_join,
            } => {
                // Depth gate: a verify pass costs one full target weight
                // sweep however shallow the chain, so hold off until the
                // ring carries a full `ready_depth()` chain — unless the
                // draft cannot deepen it (parked at its KV frontier,
                // stopped, or never spawned), where waiting would idle
                // forever.
                let draft_blocked = draft_join.is_none()
                    || link.stalled.load(Ordering::Acquire)
                    || link.exited.load(Ordering::Acquire);
                if !draft_blocked && link.ring.len() < verify.ready_depth() {
                    if !active.was_idle {
                        active.was_idle = true;
                        self.metrics.verify_idle_stalls.inc();
                    }
                    return false;
                }
                let report = verify.try_step_block(
                    self.model.target_lm(),
                    &mut active.t_cache,
                    &link.ring,
                    ws,
                );
                // Re-publish the depth budget every block so AdaptiveGamma
                // keeps bounding the in-flight speculation.
                link.depth_cap.store(verify.depth_hint(), Ordering::Relaxed);
                if report.rolled_back {
                    self.metrics.draft_rollbacks.inc();
                }
                if report.progressed || report.rolled_back {
                    // Any consumed ring token (pops, an expect-resolution,
                    // a rollback) can be what a parked draft is waiting
                    // on — and parks are untimed, so a missed wake here is
                    // a livelock, not a latency blip. Wake unconditionally
                    // on progress.
                    wakes.push(Arc::clone(link));
                }
                if report.depth > 0 {
                    self.metrics
                        .speculation_depth
                        .record_ms(report.depth as f64);
                }
                if !report.progressed {
                    if !active.was_idle {
                        active.was_idle = true;
                        self.metrics.verify_idle_stalls.inc();
                    }
                    return false;
                }
                active.was_idle = false;
                self.publish_step(
                    &active.handle,
                    &mut active.published,
                    verify.tokens(),
                    started,
                );
                if report.done {
                    self.finish_async(cell, Status::Done, Instant::now() + DRAFT_JOIN_TIMEOUT);
                }
                true
            }
            AsyncPhase::Ar(session) => {
                let report = session.step(self.model.target_lm(), &mut active.t_cache, ws);
                self.publish_step(
                    &active.handle,
                    &mut active.published,
                    session.tokens(),
                    started,
                );
                if report.done {
                    self.finish_async(cell, Status::Done, Instant::now() + DRAFT_JOIN_TIMEOUT);
                }
                true
            }
            AsyncPhase::Prefill(_) => unreachable!("handled above"),
        }
    }

    /// Spawn a session's dedicated draft worker. It owns the draft lease
    /// (returned to the pool when the thread exits), free-runs the
    /// speculation chain up to the published depth cap, and honors
    /// rollbacks before anything else.
    fn spawn_draft(
        &self,
        mut d_cache: KvCache,
        pending: u32,
        link: Arc<DraftLink>,
    ) -> std::thread::JoinHandle<()> {
        let draft = self.model.draft_arc();
        let metrics = Arc::clone(&self.metrics);
        let signal = Arc::clone(&self.pipe_signal);
        std::thread::Builder::new()
            .name("aasd-draft".into())
            .spawn(move || {
                let mut ws = Workspace::new();
                let mut ahead = DraftAhead::new(&mut d_cache, pending);
                ahead.set_confidence_threshold(CONFIDENCE_STOP);
                let mut stalled = false;
                while !link.stop.load(Ordering::Acquire) {
                    // Eventcount order matters: sample the generation
                    // BEFORE the condition check inside `step`, so a
                    // notify racing the check bumps the generation and the
                    // park below returns immediately instead of sleeping
                    // through it.
                    let gen = link.park_generation();
                    let cap = link.depth_cap.load(Ordering::Relaxed);
                    match ahead.step(&draft, &mut d_cache, &link.ring, cap, &mut ws) {
                        DraftStep::Produced | DraftStep::RolledBack => {
                            if stalled {
                                stalled = false;
                                link.stalled.store(false, Ordering::Release);
                            }
                        }
                        DraftStep::AtDepthCap
                        | DraftStep::AtCapacity
                        | DraftStep::LowConfidence => {
                            if !stalled {
                                stalled = true;
                                link.stalled.store(true, Ordering::Release);
                                metrics.ring_full_stalls.inc();
                                // The chain is as deep as it should get —
                                // full depth, lease frontier, or a
                                // below-threshold token: wake the verify
                                // side. Notifying here — not per token —
                                // means verify wakes to a chain worth a
                                // whole target pass.
                                signal.notify();
                            }
                            // Parked, not spinning and not polling: a
                            // parked draft burns zero cycles and causes
                            // zero preemptions until verify pops, rolls
                            // back, or stops the session.
                            link.park_until_notified(gen);
                        }
                    }
                }
                link.exited.store(true, Ordering::Release);
                // `d_cache` drops here: the draft lease returns to the pool.
            })
            .expect("failed to spawn draft worker")
    }

    /// Stop a session's draft thread and join it, bounded by `deadline`.
    /// `notify_draft` bumps the park generation so a parked draft wakes
    /// immediately; if the bound is ever exceeded the handle is dropped
    /// (the thread detaches and exits on its next stop check) instead of
    /// wedging shutdown.
    fn stop_draft(link: &DraftLink, join: Option<std::thread::JoinHandle<()>>, deadline: Instant) {
        let Some(handle) = join else { return };
        link.stop.store(true, Ordering::Release);
        link.notify_draft();
        while !link.exited.load(Ordering::Acquire) {
            if Instant::now() >= deadline {
                return; // detach rather than block shutdown
            }
            std::thread::yield_now();
        }
        let _ = handle.join();
    }

    /// Async completion bookkeeping: stop the draft leg, merge stats,
    /// finish the handle, release the slot.
    fn finish_async(&self, cell: &mut Option<AsyncActive>, status: Status, join_deadline: Instant) {
        let active = cell.take().expect("finishing an empty slot");
        let stats = match active.phase {
            AsyncPhase::Spec {
                verify,
                link,
                draft_join,
            } => {
                Self::stop_draft(&link, draft_join, join_deadline);
                Some(verify.into_parts().1)
            }
            _ => None,
        };
        self.close(&active.handle, status, stats);
        self.pipe_active.fetch_sub(1, Ordering::Release);
        // A slot freed: wake parked workers so refill runs promptly.
        self.pipe_signal.notify();
    }

    /// Finish every in-flight async session after [`Engine::run_pipeline`]
    /// returned with its stop flag raised (server shutdown): each
    /// session's draft thread is stopped and joined under the shared
    /// `timeout`, the handle finished `Cancelled` — so a session caught
    /// mid-speculation can never leak a parked thread or a KV lease.
    pub fn drain_pipeline(&self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        for slot in &self.pslots {
            let mut guard = slot.lock().unwrap();
            if guard.active.is_some() {
                self.finish_async(&mut guard.active, Status::Cancelled, deadline);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aasd_nn::DecoderConfig;
    use aasd_specdec::{autoregressive_greedy_with_budget_ws, speculative_greedy_with_budget_ws};

    fn text_engine(slots: usize, workers: usize, max_queue: usize) -> Arc<Engine> {
        let target = Arc::new(Decoder::new(DecoderConfig::tiny(40), 10));
        let draft = Arc::new(Decoder::new(DecoderConfig::tiny(40), 20));
        Engine::new(
            EngineModel::Text { target, draft },
            EngineConfig {
                slots,
                workers,
                max_queue,
                ..EngineConfig::default()
            },
        )
    }

    fn spec_req(prompt: Vec<u32>, max_new: usize, gamma: usize) -> Request {
        Request {
            prompt,
            max_new,
            mode: DecodeMode::Speculative { gamma },
            image_seed: None,
        }
    }

    /// A served speculative completion must equal the one-shot fused loop
    /// on the same models — losslessness survives scheduling.
    #[test]
    fn served_completion_matches_one_shot_loop() {
        let engine = text_engine(2, 1, 8);
        let target = Decoder::new(DecoderConfig::tiny(40), 10);
        let draft = Decoder::new(DecoderConfig::tiny(40), 20);
        let mut ws = Workspace::new();
        let prompt = vec![3u32, 7, 1, 9];
        let (want, want_stats) =
            speculative_greedy_with_budget_ws(&target, &draft, &prompt, 24, 4, &mut ws);

        let h = engine.submit(spec_req(prompt, 24, 4)).unwrap();
        engine.run_until_idle();
        let (status, tokens) = h.snapshot();
        assert_eq!(status, Status::Done);
        assert_eq!(tokens, want);
        assert_eq!(h.stats().unwrap(), want_stats);
        assert_eq!(engine.metrics().requests_completed.get(), 1);
        assert_eq!(engine.metrics().tokens_generated.get(), 24);
        assert!(h.ttft_ms().is_some());
    }

    /// An engine declared `Int8` serves a quantized target and its spec
    /// completions equal the one-shot fused loop on the same quantized
    /// models — losslessness survives scheduling under either kernel family.
    #[test]
    fn int8_engine_serves_losslessly() {
        let mut target = Decoder::new(DecoderConfig::tiny(40), 10);
        target.set_kernel_policy(KernelPolicy::Int8);
        let draft = Decoder::new(DecoderConfig::tiny(40), 20);
        let engine = Engine::new(
            EngineModel::Text {
                target: Arc::new(target.clone()),
                draft: Arc::new(draft.clone()),
            },
            EngineConfig {
                kernel_policy: KernelPolicy::Int8,
                ..EngineConfig::default()
            },
        );
        let mut ws = Workspace::new();
        let prompt = vec![3u32, 7, 1, 9];
        let (want, _) = speculative_greedy_with_budget_ws(&target, &draft, &prompt, 20, 4, &mut ws);
        let h = engine.submit(spec_req(prompt, 20, 4)).unwrap();
        engine.run_until_idle();
        assert_eq!(h.snapshot(), (Status::Done, want));
    }

    /// A config that declares a kernel family the model is not actually
    /// running must be refused at construction.
    #[test]
    #[should_panic(expected = "kernel policy")]
    fn engine_rejects_mismatched_kernel_policy() {
        let target = Arc::new(Decoder::new(DecoderConfig::tiny(40), 10));
        let draft = Arc::new(Decoder::new(DecoderConfig::tiny(40), 20));
        Engine::new(
            EngineModel::Text { target, draft },
            EngineConfig {
                kernel_policy: KernelPolicy::Int8,
                ..EngineConfig::default()
            },
        );
    }

    /// AR sessions served through the engine match the fused AR loop.
    #[test]
    fn served_ar_matches_one_shot_loop() {
        let engine = text_engine(1, 1, 8);
        let target = Decoder::new(DecoderConfig::tiny(40), 10);
        let mut ws = Workspace::new();
        let prompt = vec![5u32, 2, 8];
        let want = autoregressive_greedy_with_budget_ws(&target, &prompt, 15, &mut ws);
        let h = engine
            .submit(Request {
                prompt,
                max_new: 15,
                mode: DecodeMode::Autoregressive,
                image_seed: None,
            })
            .unwrap();
        engine.run_until_idle();
        assert_eq!(h.snapshot(), (Status::Done, want));
    }

    /// More requests than slots: continuous batching must finish them all,
    /// each lossless, with the queue draining FIFO.
    #[test]
    fn oversubscribed_queue_drains_losslessly() {
        let engine = text_engine(2, 1, 16);
        let target = Decoder::new(DecoderConfig::tiny(40), 10);
        let draft = Decoder::new(DecoderConfig::tiny(40), 20);
        let mut ws = Workspace::new();
        let prompts: Vec<Vec<u32>> = (0..6)
            .map(|i| vec![1 + i as u32, 7, (i * 3 % 11) as u32])
            .collect();
        let handles: Vec<_> = prompts
            .iter()
            .map(|p| {
                engine
                    .submit(spec_req(p.clone(), 12 + p[0] as usize, 3))
                    .unwrap()
            })
            .collect();
        engine.run_until_idle();
        for (p, h) in prompts.iter().zip(&handles) {
            let (want, _) = speculative_greedy_with_budget_ws(
                &target,
                &draft,
                p,
                12 + p[0] as usize,
                3,
                &mut ws,
            );
            let (status, tokens) = h.snapshot();
            assert_eq!(status, Status::Done, "request {} not done", h.id);
            assert_eq!(tokens, want, "request {} diverged", h.id);
        }
        assert_eq!(engine.metrics().requests_completed.get(), 6);
        assert_eq!(engine.metrics().queue_depth.get(), 0);
        // Every lease returned to the pools.
        assert_eq!(
            engine.metrics().kv_free_blocks_target.get(),
            engine.t_pool.total_blocks() as u64
        );
        assert_eq!(
            engine.metrics().kv_free_blocks_draft.get(),
            engine.d_pool.total_blocks() as u64
        );
    }

    /// Admission control: submits past `max_queue` are rejected Busy, and
    /// invalid requests are rejected outright without consuming queue room.
    #[test]
    fn admission_control_rejects() {
        let engine = text_engine(1, 1, 2);
        // Valid fills.
        for _ in 0..2 {
            engine.submit(spec_req(vec![1, 2], 8, 3)).unwrap();
        }
        assert_eq!(
            engine.submit(spec_req(vec![1, 2], 8, 3)).unwrap_err(),
            Rejection::Busy
        );
        // Invalid shapes.
        for bad in [
            spec_req(vec![], 8, 3),
            spec_req(vec![1], 0, 3),
            spec_req(vec![1], 8, 0),
            spec_req(vec![1], 8, MAX_GAMMA),
            spec_req(vec![99], 8, 3),     // outside vocab 40
            spec_req(vec![0; 200], 8, 3), // past max_seq 128
            Request {
                prompt: vec![1],
                max_new: 4,
                mode: DecodeMode::Autoregressive,
                image_seed: Some(7),
            },
        ] {
            assert!(
                matches!(engine.submit(bad.clone()), Err(Rejection::Invalid(_))),
                "{bad:?} should be invalid"
            );
        }
        assert_eq!(engine.metrics().requests_rejected.get(), 8);
        engine.run_until_idle();
        assert_eq!(engine.metrics().requests_completed.get(), 2);
    }

    /// Block-granular admission: a pool sized for one long session at a
    /// time forces the second request to wait head-of-line, but both must
    /// still complete losslessly — continuous batching degrades to serial
    /// execution, never to deadlock or corruption.
    #[test]
    fn block_admission_serializes_when_pool_is_tight() {
        let target = Arc::new(Decoder::new(DecoderConfig::tiny(40), 10));
        let draft = Arc::new(Decoder::new(DecoderConfig::tiny(40), 20));
        let engine = Engine::new(
            EngineModel::Text {
                target: Arc::clone(&target),
                draft: Arc::clone(&draft),
            },
            EngineConfig {
                slots: 2,
                block_size: 16,
                // 64 target positions total: one 48-token session's lease
                // (4 + 48 − 1 = 51 positions → 4 blocks) takes all of them.
                t_pool_blocks: 4,
                ..EngineConfig::default()
            },
        );
        let mut ws = Workspace::new();
        let budget = 48;
        let h1 = engine
            .submit(spec_req(vec![3, 7, 1, 9], budget, 3))
            .unwrap();
        let h2 = engine
            .submit(spec_req(vec![5, 2, 4, 6], budget, 3))
            .unwrap();
        engine.tick();
        {
            let slots = engine.slots.lock().unwrap();
            assert_eq!(
                slots.iter().filter(|s| s.active.is_some()).count(),
                1,
                "second session must wait for blocks"
            );
        }
        engine.run_until_idle();
        for (h, prompt) in [(&h1, vec![3u32, 7, 1, 9]), (&h2, vec![5u32, 2, 4, 6])] {
            let (want, _) =
                speculative_greedy_with_budget_ws(&target, &draft, &prompt, budget, 3, &mut ws);
            assert_eq!(h.snapshot(), (Status::Done, want));
        }
        // A request whose lease exceeds the whole pool (4 + 62 − 1 = 65
        // positions → 5 blocks > 4) is rejected up front, not wedged.
        assert!(matches!(
            engine.submit(Request {
                prompt: vec![1, 2, 3, 4],
                max_new: 62,
                mode: DecodeMode::Autoregressive,
                image_seed: None,
            }),
            Err(Rejection::Invalid(_))
        ));
    }

    /// The queue-depth gauge must track every transition: growth on submit,
    /// decay through refill, and an immediate drop to zero on `cancel_all`
    /// — the shutdown path previously left it stale at its last value.
    #[test]
    fn queue_depth_gauge_returns_to_zero() {
        let engine = text_engine(1, 1, 16);
        for i in 0..5 {
            engine.submit(spec_req(vec![1 + i, 2], 8, 3)).unwrap();
        }
        assert_eq!(engine.metrics().queue_depth.get(), 5);
        engine.run_until_idle();
        assert_eq!(engine.metrics().queue_depth.get(), 0);
        assert_eq!(engine.metrics().requests_completed.get(), 5);

        // Queue up work and shut down without ever ticking: the gauge and
        // every queued handle must still reach their terminal states.
        let hs: Vec<_> = (0..3)
            .map(|i| engine.submit(spec_req(vec![2 + i, 3], 8, 3)).unwrap())
            .collect();
        assert_eq!(engine.metrics().queue_depth.get(), 3);
        engine.cancel_all();
        assert_eq!(engine.metrics().queue_depth.get(), 0);
        for h in hs {
            assert_eq!(h.snapshot().0, Status::Cancelled);
        }
        assert_eq!(engine.metrics().requests_cancelled.get(), 3);
    }

    /// Adaptive γ must not change a single served token — only the stats.
    #[test]
    fn adaptive_gamma_engine_is_lossless() {
        let target = Arc::new(Decoder::new(DecoderConfig::tiny(40), 10));
        let draft = Arc::new(Decoder::new(DecoderConfig::tiny(40), 20));
        let engine = Engine::new(
            EngineModel::Text {
                target: Arc::clone(&target),
                draft: Arc::clone(&draft),
            },
            EngineConfig {
                adaptive_gamma: true,
                ..EngineConfig::default()
            },
        );
        let mut ws = Workspace::new();
        for (i, prompt) in [vec![3u32, 7, 1, 9], vec![5, 2], vec![8, 8, 8]]
            .into_iter()
            .enumerate()
        {
            let budget = 20 + i;
            let (want, _) =
                speculative_greedy_with_budget_ws(&target, &draft, &prompt, budget, 4, &mut ws);
            let h = engine.submit(spec_req(prompt, budget, 4)).unwrap();
            engine.run_until_idle();
            assert_eq!(h.snapshot(), (Status::Done, want), "request {i}");
        }
    }

    /// Cancelling a running request stops it at a block boundary, keeps the
    /// committed prefix readable, and frees the slot for the next request.
    #[test]
    fn cancel_frees_slot_and_keeps_prefix() {
        let engine = text_engine(1, 1, 8);
        let target = Decoder::new(DecoderConfig::tiny(40), 10);
        let draft = Decoder::new(DecoderConfig::tiny(40), 20);
        let mut ws = Workspace::new();
        let h1 = engine.submit(spec_req(vec![3, 7, 1, 9], 40, 3)).unwrap();
        let h2 = engine.submit(spec_req(vec![5, 2], 10, 3)).unwrap();
        // A few blocks of progress, then cancel mid-flight.
        for _ in 0..3 {
            engine.tick();
        }
        assert!(engine.cancel(h1.id));
        engine.run_until_idle();
        let (s1, t1) = h1.snapshot();
        assert_eq!(s1, Status::Cancelled);
        assert!(!t1.is_empty() && t1.len() < 40, "partial prefix expected");
        // The committed prefix must be a prefix of the true completion.
        let (want, _) =
            speculative_greedy_with_budget_ws(&target, &draft, &[3, 7, 1, 9], 40, 3, &mut ws);
        assert_eq!(t1[..], want[..t1.len()]);
        // The second request still completes losslessly on the reused slot.
        let (want2, _) =
            speculative_greedy_with_budget_ws(&target, &draft, &[5, 2], 10, 3, &mut ws);
        assert_eq!(h2.snapshot(), (Status::Done, want2));
        assert_eq!(engine.metrics().requests_cancelled.get(), 1);
        assert!(!engine.cancel(h1.id), "finished ids cannot be re-cancelled");
    }

    /// Cancelling while still queued drops the request at refill without it
    /// ever occupying a slot.
    #[test]
    fn cancel_queued_request_never_runs() {
        let engine = text_engine(1, 1, 8);
        let h1 = engine.submit(spec_req(vec![1, 2, 3], 30, 3)).unwrap();
        let h2 = engine.submit(spec_req(vec![4, 5], 10, 3)).unwrap();
        assert!(engine.cancel(h2.id));
        engine.run_until_idle();
        assert_eq!(h1.snapshot().0, Status::Done);
        let (s2, t2) = h2.snapshot();
        assert_eq!(s2, Status::Cancelled);
        assert!(t2.is_empty());
        assert!(h2.ttft_ms().is_none());
    }

    /// Slot reuse: many sequential requests through one slot must all be
    /// lossless (reused pool blocks behave like fresh ones) and the
    /// workspace pool must stop growing after warmup.
    #[test]
    fn slot_reuse_is_lossless_and_allocation_stable() {
        let engine = text_engine(1, 1, 16);
        let target = Decoder::new(DecoderConfig::tiny(40), 10);
        let draft = Decoder::new(DecoderConfig::tiny(40), 20);
        let mut ws = Workspace::new();
        for round in 0..3 {
            let prompt = vec![2 + round as u32, 9, 4];
            let (want, _) =
                speculative_greedy_with_budget_ws(&target, &draft, &prompt, 20, 5, &mut ws);
            let h = engine.submit(spec_req(prompt, 20, 5)).unwrap();
            engine.run_until_idle();
            assert_eq!(h.snapshot(), (Status::Done, want), "round {round}");
        }
        let slots = engine.slots.lock().unwrap();
        assert!(slots[0].active.is_none(), "slot should be idle after drain");
        assert_eq!(engine.metrics.requests_completed.get(), 3);
        assert_eq!(engine.t_pool.free_blocks(), engine.t_pool.total_blocks());
    }

    fn mm_engine(
        vision_cache_entries: usize,
    ) -> (Arc<Engine>, Arc<LlavaSim>, Arc<Decoder>, Arc<KvProjector>) {
        use aasd_mm::{draft_for, LlavaSimConfig};
        let cfg = LlavaSimConfig::tiny(40, 96);
        let model = Arc::new(LlavaSim::new(cfg.clone(), 0xB0));
        let draft = Arc::new(draft_for(&cfg, 0xB1));
        let projector = Arc::new(KvProjector::new(
            0xB2,
            draft.cfg.n_layers,
            cfg.lm.n_layers,
            cfg.n_img(),
            cfg.k_slots(),
        ));
        let engine = Engine::new(
            EngineModel::Multimodal {
                model: Arc::clone(&model),
                draft: Arc::clone(&draft),
                projector: Arc::clone(&projector),
                ablation: Ablation::projector(),
            },
            EngineConfig {
                slots: 2,
                workers: 1,
                max_queue: 8,
                vision_cache_entries,
                ..EngineConfig::default()
            },
        );
        (engine, model, draft, projector)
    }

    /// Multimodal engine: served hybrid-cache sessions match
    /// `mm_speculative_ws` / `mm_autoregressive_ws` exactly.
    #[test]
    fn multimodal_engine_is_lossless() {
        use aasd_mm::{mm_autoregressive_ws, mm_speculative_ws};
        let (engine, model, draft, projector) = mm_engine(8);
        let cfg = &model.cfg;
        let mut ws = Workspace::new();
        let prompt = vec![3u32, 11, 25, 7];
        let seed = 5u64;
        let img = Image::synthetic(
            &mut Rng::new(seed),
            cfg.vision.n_patches,
            cfg.vision.patch_dim,
        );
        let (want_spec, _) = mm_speculative_ws(
            &model,
            &draft,
            Some(&projector),
            Ablation::projector(),
            &img,
            &prompt,
            20,
            3,
            &mut ws,
        );
        let want_ar = mm_autoregressive_ws(&model, &img, &prompt, 20, &mut ws);

        let hs = engine
            .submit(Request {
                prompt: prompt.clone(),
                max_new: 20,
                mode: DecodeMode::Speculative { gamma: 3 },
                image_seed: Some(seed),
            })
            .unwrap();
        let ha = engine
            .submit(Request {
                prompt,
                max_new: 20,
                mode: DecodeMode::Autoregressive,
                image_seed: Some(seed),
            })
            .unwrap();
        engine.run_until_idle();
        assert_eq!(hs.snapshot(), (Status::Done, want_spec));
        assert_eq!(ha.snapshot(), (Status::Done, want_ar));
        // Text-engine-only request shape rejected on mm engine.
        assert!(matches!(
            engine.submit(spec_req(vec![1], 4, 2)),
            Err(Rejection::Invalid(_))
        ));
    }

    /// The vision cache: a repeated image is a hit that skips the vision
    /// tower yet yields the byte-identical stream; hit/miss counters track
    /// it; disabling the cache (entries = 0) serves every request as a
    /// miss and still matches.
    #[test]
    fn vision_cache_hit_is_bit_identical_to_miss() {
        use aasd_mm::mm_speculative_ws;
        let (engine, model, draft, projector) = mm_engine(4);
        let cfg = &model.cfg;
        let mut ws = Workspace::new();
        let prompt = vec![3u32, 11, 25, 7];
        let mut want = Vec::new();
        for seed in [5u64, 5, 9, 5] {
            let img = Image::synthetic(
                &mut Rng::new(seed),
                cfg.vision.n_patches,
                cfg.vision.patch_dim,
            );
            let (w, _) = mm_speculative_ws(
                &model,
                &draft,
                Some(&projector),
                Ablation::projector(),
                &img,
                &prompt,
                16,
                3,
                &mut ws,
            );
            want.push(w);
        }
        let handles: Vec<_> = [5u64, 5, 9, 5]
            .iter()
            .map(|&seed| {
                let h = engine
                    .submit(Request {
                        prompt: prompt.clone(),
                        max_new: 16,
                        mode: DecodeMode::Speculative { gamma: 3 },
                        image_seed: Some(seed),
                    })
                    .unwrap();
                // Serialize so hit/miss accounting is deterministic.
                engine.run_until_idle();
                h
            })
            .collect();
        for (h, w) in handles.iter().zip(&want) {
            assert_eq!(h.snapshot(), (Status::Done, w.clone()));
        }
        // Seeds [5, 5, 9, 5]: misses for 5 and 9, hits for the repeats.
        assert_eq!(engine.metrics().vision_cache_misses.get(), 2);
        assert_eq!(engine.metrics().vision_cache_hits.get(), 2);

        // Same burst with the cache disabled: identical streams, no hits.
        let (engine0, ..) = mm_engine(0);
        for (&seed, w) in [5u64, 5, 9, 5].iter().zip(&want) {
            let h = engine0
                .submit(Request {
                    prompt: prompt.clone(),
                    max_new: 16,
                    mode: DecodeMode::Speculative { gamma: 3 },
                    image_seed: Some(seed),
                })
                .unwrap();
            engine0.run_until_idle();
            assert_eq!(h.snapshot(), (Status::Done, w.clone()));
        }
        assert_eq!(engine0.metrics().vision_cache_hits.get(), 0);
    }

    /// `tree_speculation` serves byte-identical streams to the linear
    /// engine (losslessness survives the tree scheduler path) on both the
    /// text and multimodal engines, and reports spec-shaped stats.
    #[test]
    fn tree_engine_serves_losslessly() {
        // Text engine: tree stream == linear engine stream == fused loop.
        let target = Arc::new(Decoder::new(DecoderConfig::tiny(40), 10));
        let draft = Arc::new(Decoder::new(DecoderConfig::tiny(40), 20));
        let tree_engine = Engine::new(
            EngineModel::Text {
                target: Arc::clone(&target),
                draft: Arc::clone(&draft),
            },
            EngineConfig {
                slots: 2,
                tree_speculation: true,
                ..EngineConfig::default()
            },
        );
        let mut ws = Workspace::new();
        let prompt = vec![3u32, 7, 1, 9];
        let (want, _) = speculative_greedy_with_budget_ws(&target, &draft, &prompt, 24, 4, &mut ws);
        let h = tree_engine.submit(spec_req(prompt, 24, 4)).unwrap();
        tree_engine.run_until_idle();
        let (status, tokens) = h.snapshot();
        assert_eq!((status, tokens), (Status::Done, want));
        let stats = h.stats().unwrap();
        assert_eq!(stats.generated, 24);
        assert!(stats.accepted <= stats.drafted);

        // Multimodal engine: tree stream == the AR reference.
        use aasd_mm::{draft_for, mm_autoregressive_ws, LlavaSimConfig};
        let cfg = LlavaSimConfig::tiny(40, 96);
        let model = Arc::new(LlavaSim::new(cfg.clone(), 0xB0));
        let mm_draft = Arc::new(draft_for(&cfg, 0xB1));
        let projector = Arc::new(KvProjector::new(
            0xB2,
            mm_draft.cfg.n_layers,
            cfg.lm.n_layers,
            cfg.n_img(),
            cfg.k_slots(),
        ));
        let mm_tree = Engine::new(
            EngineModel::Multimodal {
                model: Arc::clone(&model),
                draft: mm_draft,
                projector,
                ablation: Ablation::projector(),
            },
            EngineConfig {
                slots: 2,
                tree_speculation: true,
                adaptive_gamma: true,
                ..EngineConfig::default()
            },
        );
        let prompt = vec![3u32, 11, 25, 7];
        let img = Image::synthetic(&mut Rng::new(5), cfg.vision.n_patches, cfg.vision.patch_dim);
        let want_mm = mm_autoregressive_ws(&model, &img, &prompt, 20, &mut ws);
        let h = mm_tree
            .submit(Request {
                prompt,
                max_new: 20,
                mode: DecodeMode::Speculative { gamma: 3 },
                image_seed: Some(5),
            })
            .unwrap();
        mm_tree.run_until_idle();
        assert_eq!(h.snapshot(), (Status::Done, want_mm));
    }

    /// Tree speculation has no async-pipeline implementation; the config
    /// combination must be refused at construction, not fail silently.
    #[test]
    #[should_panic(expected = "sync scheduler")]
    fn tree_engine_rejects_async_pipeline() {
        let target = Arc::new(Decoder::new(DecoderConfig::tiny(40), 10));
        let draft = Arc::new(Decoder::new(DecoderConfig::tiny(40), 20));
        Engine::new(
            EngineModel::Text { target, draft },
            EngineConfig {
                tree_speculation: true,
                async_pipeline: true,
                ..EngineConfig::default()
            },
        );
    }

    /// Eviction under block pressure must skip entries whose prefix blocks
    /// are CoW-leased by a live session: dropping them frees nothing (the
    /// session pins the blocks), so the colder-but-leased entry survives
    /// and the unleased one goes. Once the session drops its lease, the
    /// entry becomes evictable again.
    #[test]
    fn eviction_skips_prefixes_leased_by_active_sessions() {
        let pool = KvPool::new(2, 8, 4, 12);
        let mut cache = VisionCache::default();
        let mut seed_entry = |rows: usize, last_used: u64, hash: u64| {
            let mut prefix = pool.try_lease(rows).unwrap();
            for l in 0..2 {
                let mut layer = prefix.layer_mut(l);
                for _ in 0..rows {
                    layer.append(&[1.0; 8], &[2.0; 8]);
                }
            }
            cache.entries.insert(
                hash,
                VisionEntry {
                    t_prefix: prefix,
                    d_seed: None,
                    last_used,
                },
            );
        };
        seed_entry(8, 1, 0xA); // coldest — but about to be leased
        seed_entry(8, 2, 0xB);

        // A live session leases on top of entry A's prefix (CoW shares its
        // full blocks).
        let session_lease = pool
            .try_lease_with_prefix(&cache.entries[&0xA].t_prefix, 10)
            .unwrap();
        assert!(cache.evict_coldest(None), "B must be evictable");
        assert!(
            cache.entries.contains_key(&0xA),
            "leased entry A must survive eviction despite being coldest"
        );
        assert!(!cache.entries.contains_key(&0xB));
        // Nothing else is evictable while the session holds the lease.
        assert!(!cache.evict_coldest(None));
        assert!(cache.entries.contains_key(&0xA));

        // Session ends: A is evictable again, and its blocks actually
        // return to the pool.
        drop(session_lease);
        let free_before = pool.free_blocks();
        assert!(cache.evict_coldest(None));
        assert!(cache.entries.is_empty());
        assert!(
            pool.free_blocks() > free_before,
            "eviction must free blocks"
        );
    }

    // ------------------------------------------------------------------
    // Async pipeline (`cfg.async_pipeline`)
    // ------------------------------------------------------------------

    fn async_text_engine(slots: usize, workers: usize, max_queue: usize) -> Arc<Engine> {
        let target = Arc::new(Decoder::new(DecoderConfig::tiny(40), 10));
        let draft = Arc::new(Decoder::new(DecoderConfig::tiny(40), 20));
        Engine::new(
            EngineModel::Text { target, draft },
            EngineConfig {
                slots,
                workers,
                max_queue,
                async_pipeline: true,
                ..EngineConfig::default()
            },
        )
    }

    /// The async pipeline must stream byte-identically to the fused loop
    /// (and hence to the sync scheduler) for every request, at 1, 2, and 4
    /// target workers — the interleaving of draft and verify threads can
    /// shift *which* blocks speculation lands in, never a committed token.
    #[test]
    fn async_pipeline_streams_match_fused_loop_at_any_worker_count() {
        let target = Decoder::new(DecoderConfig::tiny(40), 10);
        let draft = Decoder::new(DecoderConfig::tiny(40), 20);
        let mut ws = Workspace::new();
        let prompts: Vec<Vec<u32>> = (0..5)
            .map(|i| vec![1 + i as u32, 7, (i * 3 % 11) as u32])
            .collect();
        let want: Vec<Vec<u32>> = prompts
            .iter()
            .map(|p| {
                speculative_greedy_with_budget_ws(
                    &target,
                    &draft,
                    p,
                    12 + p[0] as usize,
                    3,
                    &mut ws,
                )
                .0
            })
            .collect();
        for workers in [1usize, 2, 4] {
            let engine = async_text_engine(2, workers, 16);
            let handles: Vec<_> = prompts
                .iter()
                .map(|p| {
                    engine
                        .submit(spec_req(p.clone(), 12 + p[0] as usize, 3))
                        .unwrap()
                })
                .collect();
            engine.run_until_idle();
            for ((h, w), p) in handles.iter().zip(&want).zip(&prompts) {
                let (status, tokens) = h.snapshot();
                assert_eq!(status, Status::Done, "workers={workers} prompt={p:?}");
                assert_eq!(&tokens, w, "workers={workers} prompt={p:?} diverged");
            }
            assert_eq!(engine.metrics().requests_completed.get(), 5);
            // Every lease (draft threads included) returned to the pools.
            assert_eq!(engine.t_pool.free_blocks(), engine.t_pool.total_blocks());
            assert_eq!(engine.d_pool.free_blocks(), engine.d_pool.total_blocks());
            // The pipeline actually speculated (depth histogram populated).
            assert!(engine.metrics().speculation_depth.count() > 0);
        }
    }

    /// AR requests flow through the async scheduler too, matching the
    /// fused AR loop.
    #[test]
    fn async_pipeline_serves_ar() {
        let engine = async_text_engine(1, 1, 8);
        let target = Decoder::new(DecoderConfig::tiny(40), 10);
        let mut ws = Workspace::new();
        let prompt = vec![5u32, 2, 8];
        let want = autoregressive_greedy_with_budget_ws(&target, &prompt, 15, &mut ws);
        let h = engine
            .submit(Request {
                prompt,
                max_new: 15,
                mode: DecodeMode::Autoregressive,
                image_seed: None,
            })
            .unwrap();
        engine.run_until_idle();
        assert_eq!(h.snapshot(), (Status::Done, want));
    }

    /// Degenerate budgets (1 and 2 committed tokens) never spawn a draft
    /// thread yet still complete losslessly.
    #[test]
    fn async_pipeline_degenerate_budgets() {
        let engine = async_text_engine(1, 1, 8);
        let target = Decoder::new(DecoderConfig::tiny(40), 10);
        let draft = Decoder::new(DecoderConfig::tiny(40), 20);
        let mut ws = Workspace::new();
        for max_new in [1usize, 2] {
            let prompt = vec![3u32, 7, 1, 9];
            let (want, _) =
                speculative_greedy_with_budget_ws(&target, &draft, &prompt, max_new, 4, &mut ws);
            let h = engine.submit(spec_req(prompt, max_new, 4)).unwrap();
            engine.run_until_idle();
            assert_eq!(h.snapshot(), (Status::Done, want), "max_new={max_new}");
        }
        assert_eq!(engine.d_pool.free_blocks(), engine.d_pool.total_blocks());
    }

    /// Adaptive γ under the async pipeline: the depth cap breathes with
    /// the acceptance rate but no committed token may move.
    #[test]
    fn async_pipeline_adaptive_gamma_is_lossless() {
        let target = Arc::new(Decoder::new(DecoderConfig::tiny(40), 10));
        let draft = Arc::new(Decoder::new(DecoderConfig::tiny(40), 20));
        let engine = Engine::new(
            EngineModel::Text {
                target: Arc::clone(&target),
                draft: Arc::clone(&draft),
            },
            EngineConfig {
                adaptive_gamma: true,
                async_pipeline: true,
                ..EngineConfig::default()
            },
        );
        let mut ws = Workspace::new();
        for (i, prompt) in [vec![3u32, 7, 1, 9], vec![5, 2], vec![8, 8, 8]]
            .into_iter()
            .enumerate()
        {
            let budget = 20 + i;
            let (want, _) =
                speculative_greedy_with_budget_ws(&target, &draft, &prompt, budget, 4, &mut ws);
            let h = engine.submit(spec_req(prompt, budget, 4)).unwrap();
            engine.run_until_idle();
            assert_eq!(h.snapshot(), (Status::Done, want), "request {i}");
        }
    }

    /// Cancelling a running async session stops the draft thread, keeps
    /// the committed prefix (a prefix of the true completion), and frees
    /// both leases for the next request.
    #[test]
    fn async_pipeline_cancel_mid_flight() {
        let engine = async_text_engine(1, 1, 8);
        let target = Decoder::new(DecoderConfig::tiny(40), 10);
        let draft = Decoder::new(DecoderConfig::tiny(40), 20);
        let mut ws = Workspace::new();
        let h1 = engine.submit(spec_req(vec![3, 7, 1, 9], 60, 3)).unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Let a few blocks commit, then cancel mid-flight.
                while h1.snapshot().1.len() < 3 {
                    std::thread::yield_now();
                }
                assert!(engine.cancel(h1.id));
            });
            engine.run_until_idle();
        });
        let (s1, t1) = h1.snapshot();
        assert_eq!(s1, Status::Cancelled);
        assert!(!t1.is_empty(), "committed prefix survives cancel");
        let (want, _) =
            speculative_greedy_with_budget_ws(&target, &draft, &[3, 7, 1, 9], 60, 3, &mut ws);
        assert_eq!(t1[..], want[..t1.len()], "prefix must match true stream");
        assert_eq!(engine.metrics().requests_cancelled.get(), 1);
        // Draft thread joined, leases back in the pools.
        assert_eq!(engine.t_pool.free_blocks(), engine.t_pool.total_blocks());
        assert_eq!(engine.d_pool.free_blocks(), engine.d_pool.total_blocks());
        // The slot is reusable after the cancel.
        let (want2, _) =
            speculative_greedy_with_budget_ws(&target, &draft, &[5, 2], 10, 3, &mut ws);
        let h2 = engine.submit(spec_req(vec![5, 2], 10, 3)).unwrap();
        engine.run_until_idle();
        assert_eq!(h2.snapshot(), (Status::Done, want2));
    }

    /// `drain_pipeline` after a stopped `run_pipeline` finishes in-flight
    /// sessions with a terminal status and joins their draft threads —
    /// the server's SHUTDOWN path in miniature.
    #[test]
    fn async_pipeline_drain_finishes_in_flight_sessions() {
        let engine = async_text_engine(2, 1, 8);
        let stop = AtomicBool::new(false);
        let h = engine.submit(spec_req(vec![3, 7, 1, 9], 60, 3)).unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while h.snapshot().1.len() < 2 {
                    std::thread::yield_now();
                }
                stop.store(true, Ordering::Release);
            });
            engine.run_pipeline(Some(&stop));
        });
        let drained = Instant::now();
        engine.cancel_all();
        engine.drain_pipeline(Duration::from_secs(5));
        assert!(
            drained.elapsed() < Duration::from_secs(5),
            "drain must not exhaust its bound"
        );
        assert_eq!(h.snapshot().0, Status::Cancelled);
        assert_eq!(engine.t_pool.free_blocks(), engine.t_pool.total_blocks());
        assert_eq!(engine.d_pool.free_blocks(), engine.d_pool.total_blocks());
        assert_eq!(engine.pipe_active.load(Ordering::Acquire), 0);
    }

    /// Multimodal requests through the async pipeline: hybrid-cache
    /// speculation with a free-running draft still matches
    /// `mm_speculative_ws` exactly.
    #[test]
    fn async_pipeline_multimodal_is_lossless() {
        use aasd_mm::{draft_for, mm_speculative_ws, LlavaSimConfig};
        let cfg = LlavaSimConfig::tiny(40, 96);
        let model = Arc::new(LlavaSim::new(cfg.clone(), 0xB0));
        let draft = Arc::new(draft_for(&cfg, 0xB1));
        let projector = Arc::new(KvProjector::new(
            0xB2,
            draft.cfg.n_layers,
            cfg.lm.n_layers,
            cfg.n_img(),
            cfg.k_slots(),
        ));
        let engine = Engine::new(
            EngineModel::Multimodal {
                model: Arc::clone(&model),
                draft: Arc::clone(&draft),
                projector: Arc::clone(&projector),
                ablation: Ablation::projector(),
            },
            EngineConfig {
                slots: 2,
                workers: 2,
                max_queue: 8,
                vision_cache_entries: 4,
                async_pipeline: true,
                ..EngineConfig::default()
            },
        );
        let mut ws = Workspace::new();
        let prompt = vec![3u32, 11, 25, 7];
        let mut handles = Vec::new();
        let mut want = Vec::new();
        for seed in [5u64, 9, 5] {
            let img = Image::synthetic(
                &mut Rng::new(seed),
                cfg.vision.n_patches,
                cfg.vision.patch_dim,
            );
            let (w, _) = mm_speculative_ws(
                &model,
                &draft,
                Some(&projector),
                Ablation::projector(),
                &img,
                &prompt,
                18,
                3,
                &mut ws,
            );
            want.push(w);
            handles.push(
                engine
                    .submit(Request {
                        prompt: prompt.clone(),
                        max_new: 18,
                        mode: DecodeMode::Speculative { gamma: 3 },
                        image_seed: Some(seed),
                    })
                    .unwrap(),
            );
        }
        engine.run_until_idle();
        for (h, w) in handles.iter().zip(&want) {
            assert_eq!(h.snapshot(), (Status::Done, w.clone()));
        }
    }
}
