//! The three traffic mixes and their seeded request generators.
//!
//! Each workload fixes the engine deployment that serves it and the traffic
//! it sends. A run's request stream is a pure function of (workload name,
//! seed): request contents come from one seeded stream, open-loop send
//! times from another, and the engine only ever sees the generated
//! requests.

use aasd_serve::DecodeMode;
use aasd_tensor::Rng;

/// Vocabulary of every served model (small enough that the draft can be
/// aligned within the set-up budget).
pub const VOCAB: usize = 32;

/// Salt of the per-workload prompt and image catalogues, which no seed
/// changes.
const CATALOGUE_SALT: u64 = 0x1A6E_CA7A_1060_0001;

/// Requests folded into a stream's fingerprint.
const FINGERPRINT_REQUESTS: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TextSaturated,
    TextInteractive,
    MmOpen,
}

/// How requests are sent.
#[derive(Debug, Clone, Copy)]
pub enum Arrival {
    /// `clients` callers, each sending its next request when the previous
    /// one finishes.
    Closed { clients: usize },
    /// Sends at a fixed rate, independent of the engine.
    Open { rate_per_s: f64 },
}

/// A workload: its deployment and its traffic.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub multimodal: bool,
    pub slots: usize,
    /// The traced run also serves the stream on the async pipeline, for
    /// the pipeline's own counters.
    pub async_probe: bool,
    pub vision_cache_entries: usize,
    pub arrival: Arrival,
    /// Inclusive ranges.
    pub prompt_len: (usize, usize),
    pub budget: (usize, usize),
    pub gamma: usize,
    /// Share of requests decoded autoregressively instead of speculatively.
    pub ar_share: f64,
    /// Distinct images, drawn Zipf(s = 1); 0 on text workloads.
    pub images: usize,
    /// Prompts in the workload's catalogue, rounded up to the same number
    /// for every prompt length. A bounded catalogue keeps the
    /// autoregressive references (keyed by prompt and image) few; the text
    /// engines keep no prefix cache, so reuse does not change serving.
    pub prompt_pool: usize,
}

const TEXT_SATURATED: Spec = Spec {
    name: "text_saturated",
    multimodal: false,
    slots: 16,
    async_probe: false,
    vision_cache_entries: 0,
    arrival: Arrival::Closed { clients: 16 },
    prompt_len: (4, 24),
    budget: (64, 192),
    gamma: 5,
    ar_share: 0.25,
    images: 0,
    prompt_pool: 147,
};

const TEXT_INTERACTIVE: Spec = Spec {
    name: "text_interactive",
    multimodal: false,
    slots: 4,
    async_probe: true,
    vision_cache_entries: 0,
    arrival: Arrival::Open { rate_per_s: 6.0 },
    prompt_len: (4, 24),
    budget: (16, 32),
    gamma: 5,
    ar_share: 0.0,
    images: 0,
    prompt_pool: 126,
};

const MM_OPEN: Spec = Spec {
    name: "mm_open",
    multimodal: true,
    slots: 8,
    async_probe: false,
    vision_cache_entries: 16,
    arrival: Arrival::Open { rate_per_s: 25.0 },
    prompt_len: (4, 12),
    budget: (16, 40),
    gamma: 3,
    ar_share: 0.0,
    images: 32,
    prompt_pool: 261,
};

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TextSaturated,
        Workload::TextInteractive,
        Workload::MmOpen,
    ];

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.spec().name == name)
    }

    pub fn spec(self) -> &'static Spec {
        match self {
            Workload::TextSaturated => &TEXT_SATURATED,
            Workload::TextInteractive => &TEXT_INTERACTIVE,
            Workload::MmOpen => &MM_OPEN,
        }
    }
}

/// One generated request, before submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    pub prompt: Vec<u32>,
    pub budget: usize,
    pub mode: DecodeMode,
    pub image_seed: Option<u64>,
}

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn stream_rng(w: Workload, seed: u64) -> Rng {
    Rng::new(fnv1a(w.spec().name.as_bytes()) ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn uniform_f64(rng: &mut Rng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Draws per block of a stratified dimension.
const STRATA: usize = 16;

/// A seeded shuffled deck of `0..n`: every block of `n` draws deals each
/// index once, in a fresh seeded order.
struct Deck {
    rng: Rng,
    n: usize,
    order: Vec<usize>,
}

impl Deck {
    fn new(rng: Rng, n: usize) -> Self {
        Self {
            rng,
            n,
            order: Vec::new(),
        }
    }

    fn draw(&mut self) -> usize {
        if self.order.is_empty() {
            self.order = (0..self.n).collect();
            for i in (1..self.n).rev() {
                let j = self.rng.below(i + 1);
                self.order.swap(i, j);
            }
        }
        self.order.pop().expect("refilled above")
    }

    /// A stratified uniform draw in [0, 1): every block of `n` draws puts
    /// one draw in each n-th of the interval.
    fn uniform(&mut self) -> f64 {
        let stratum = self.draw();
        (stratum as f64 + uniform_f64(&mut self.rng)) / self.n as f64
    }
}

/// The value of the inclusive range `(lo, hi)` at quantile `u`.
fn in_range(u: f64, (lo, hi): (usize, usize)) -> usize {
    let n = hi - lo + 1;
    lo + ((u * n as f64) as usize).min(n - 1)
}

/// The seeded request stream of one run, drawn lazily in send order.
///
/// The prompt and image catalogues belong to the workload, like a dataset;
/// the seed draws the traffic from them. Prompts are dealt from a shuffled
/// deck, so a run uses each prompt once before any twice. Budgets, modes
/// and image ranks are stratified: every block of `STRATA` requests draws
/// one value from each sixteenth of each distribution. Acceptance differs
/// strongly between prompts and between images, so with independent draws
/// each seed's share of easy prompts, long prompts and AR requests moved α,
/// TTFT and TPOT; this way seeds differ in order and pairing, not in how
/// much work they ask for.
pub struct Traffic {
    spec: &'static Spec,
    prompts: Vec<Vec<u32>>,
    image_seeds: Vec<u64>,
    /// Cumulative Zipf(s = 1) weights over `image_seeds`.
    zipf_cdf: Vec<f64>,
    prompt: Deck,
    budget: Deck,
    mode: Deck,
    image: Deck,
}

impl Traffic {
    pub fn new(w: Workload, seed: u64) -> Self {
        let spec = w.spec();
        let mut catalogue = Rng::new(fnv1a(spec.name.as_bytes()) ^ CATALOGUE_SALT);
        let (lo, hi) = spec.prompt_len;
        let per_len = spec.prompt_pool.div_ceil(hi - lo + 1);
        let prompts: Vec<Vec<u32>> = (lo..=hi)
            .flat_map(|len| std::iter::repeat_n(len, per_len))
            .map(|len| (0..len).map(|_| catalogue.below(VOCAB) as u32).collect())
            .collect();
        let image_seeds = (0..spec.images).map(|_| catalogue.next_u64()).collect();
        let mut acc = 0.0;
        let mut zipf_cdf: Vec<f64> = (1..=spec.images)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut zipf_cdf {
            *c /= acc;
        }
        let mut rng = stream_rng(w, seed).fork();
        let prompt = Deck::new(rng.fork(), prompts.len());
        let mut strata = || Deck::new(rng.fork(), STRATA);
        let (budget, mode, image) = (strata(), strata(), strata());
        Self {
            spec,
            prompts,
            image_seeds,
            zipf_cdf,
            prompt,
            budget,
            mode,
            image,
        }
    }

    pub fn next_request(&mut self) -> Req {
        let spec = self.spec;
        let prompt = self.prompts[self.prompt.draw()].clone();
        let budget = in_range(self.budget.uniform(), spec.budget);
        let mode = if self.mode.uniform() < spec.ar_share {
            DecodeMode::Autoregressive
        } else {
            DecodeMode::Speculative { gamma: spec.gamma }
        };
        let image_seed = (!self.image_seeds.is_empty()).then(|| {
            let u = self.image.uniform();
            let rank = self.zipf_cdf.partition_point(|&c| c <= u);
            self.image_seeds[rank.min(self.image_seeds.len() - 1)]
        });
        Req {
            prompt,
            budget,
            mode,
            image_seed,
        }
    }
}

/// Open-loop send times, in seconds from the start of the window, at the
/// workload's rate: the window is cut into `round(rate · seconds)` equal
/// slots and each slot sends once, at a uniformly random point in it.
/// Fixing the count keeps the offered load identical between seeds, and one
/// send per slot keeps bursts from doing so: with Poisson arrivals, which
/// requests overlapped another moved from seed to seed, and the latency
/// p90s with it. Empty for closed-loop workloads.
pub fn arrivals(w: Workload, seed: u64, seconds: f64) -> Vec<f64> {
    let Arrival::Open { rate_per_s } = w.spec().arrival else {
        return Vec::new();
    };
    let mut rng = stream_rng(w, seed);
    rng.fork(); // the content stream's fork
    let mut rng = rng.fork();
    let n = (rate_per_s * seconds).round().max(1.0) as usize;
    let slot = seconds / n as f64;
    (0..n)
        .map(|i| (i as f64 + uniform_f64(&mut rng)) * slot)
        .collect()
}

/// FNV fingerprint of a run's stream: the first requests it would send and
/// the open-loop schedule (to the microsecond).
pub fn fingerprint(w: Workload, seed: u64, seconds: f64) -> u64 {
    let mut bytes = Vec::new();
    let mut traffic = Traffic::new(w, seed);
    for _ in 0..FINGERPRINT_REQUESTS {
        let r = traffic.next_request();
        for t in &r.prompt {
            bytes.extend_from_slice(&t.to_le_bytes());
        }
        bytes.extend_from_slice(&(r.budget as u64).to_le_bytes());
        let gamma = match r.mode {
            DecodeMode::Speculative { gamma } => gamma as u64,
            DecodeMode::Autoregressive => 0,
        };
        bytes.extend_from_slice(&gamma.to_le_bytes());
        bytes.extend_from_slice(&r.image_seed.unwrap_or(0).to_le_bytes());
    }
    for t in arrivals(w, seed, seconds) {
        bytes.extend_from_slice(&((t * 1e6).round() as u64).to_le_bytes());
    }
    fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_reproduces_the_fingerprint() {
        for w in Workload::ALL {
            assert_eq!(fingerprint(w, 7, 10.0), fingerprint(w, 7, 10.0));
        }
    }

    #[test]
    fn different_seed_changes_the_fingerprint() {
        for w in Workload::ALL {
            assert_ne!(fingerprint(w, 7, 10.0), fingerprint(w, 8, 10.0));
        }
        assert_ne!(
            fingerprint(Workload::TextSaturated, 7, 10.0),
            fingerprint(Workload::TextInteractive, 7, 10.0)
        );
    }

    #[test]
    fn requests_stay_within_the_workload_ranges() {
        for w in Workload::ALL {
            let spec = w.spec();
            let mut traffic = Traffic::new(w, 3);
            for _ in 0..500 {
                let r = traffic.next_request();
                assert!((spec.prompt_len.0..=spec.prompt_len.1).contains(&r.prompt.len()));
                assert!((spec.budget.0..=spec.budget.1).contains(&r.budget));
                assert!(r.prompt.iter().all(|&t| (t as usize) < VOCAB));
                assert_eq!(r.image_seed.is_some(), spec.multimodal);
            }
        }
    }

    #[test]
    fn every_block_of_requests_holds_the_same_mix() {
        for seed in [1, 2] {
            let spec = Workload::TextSaturated.spec();
            let mut traffic = Traffic::new(Workload::TextSaturated, seed);
            let block: Vec<Req> = (0..STRATA).map(|_| traffic.next_request()).collect();
            let ar = block
                .iter()
                .filter(|r| r.mode == DecodeMode::Autoregressive)
                .count();
            assert_eq!(ar as f64, spec.ar_share * STRATA as f64);
            let mut budgets: Vec<usize> = block.iter().map(|r| r.budget).collect();
            budgets.sort_unstable();
            for (k, &b) in budgets.iter().enumerate() {
                let (lo, hi) = (k as f64 / STRATA as f64, (k + 1) as f64 / STRATA as f64);
                assert!((in_range(lo, spec.budget)..=in_range(hi, spec.budget)).contains(&b));
            }
        }
    }

    #[test]
    fn a_run_deals_every_prompt_once_before_any_twice() {
        let mut traffic = Traffic::new(Workload::TextInteractive, 5);
        let n = traffic.prompts.len();
        let mut dealt: Vec<Vec<u32>> = (0..n).map(|_| traffic.next_request().prompt).collect();
        dealt.sort();
        dealt.dedup();
        assert_eq!(dealt.len(), n);
    }

    #[test]
    fn open_loop_schedule_is_sorted_and_sized_by_rate() {
        let t = arrivals(Workload::MmOpen, 1, 5.0);
        let Arrival::Open { rate_per_s } = Workload::MmOpen.spec().arrival else {
            unreachable!()
        };
        assert_eq!(t.len(), (rate_per_s * 5.0).round() as usize);
        let slot = 5.0 / t.len() as f64;
        for (i, &x) in t.iter().enumerate() {
            assert!((i as f64 * slot..(i + 1) as f64 * slot).contains(&x));
        }
        assert!(t.iter().all(|&x| (0.0..5.0).contains(&x)));
        assert!(arrivals(Workload::TextSaturated, 1, 5.0).is_empty());
    }
}
