//! The load phase: one generator thread submits a workload's requests
//! through `Engine::submit` and polls the returned handles.
//!
//! Untraced, the shipped `Server` runs the engine (its scheduler thread
//! ticks the engine or runs the async pipeline). Traced, a sync engine is
//! ticked by the benchmark's own copy of the server's scheduler loop, so
//! each tick can be timed from outside.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aasd_serve::{Engine, Request, RequestHandle, Server, Status};
use aasd_specdec::SpecStats;

use crate::trace::{union_len, Tracer};
use crate::workload::{arrivals, Arrival, Req, Traffic, Workload};

/// Requests still running this long after the last send are cancelled and
/// counted as failed.
const DRAIN_LIMIT_S: f64 = 60.0;
/// Pause between poll sweeps when serving on the async pipeline.
const ASYNC_SWEEP: Duration = Duration::from_micros(200);
/// Busy-wait between poll sweeps on the sync scheduler, so the poller does
/// not contend for the handles' locks the engine publishes through.
const SYNC_SWEEP: Duration = Duration::from_micros(20);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Done,
    Cancelled,
    Rejected,
    Unfinished,
}

/// One sent request. Times are seconds from the start of the window.
#[derive(Debug)]
pub struct Record {
    pub req: Req,
    /// When the request was due (open loop) or sent (closed loop).
    pub scheduled_s: f64,
    pub sent_s: f64,
    pub submit_us: f64,
    /// First poll that saw the request past `Queued`.
    pub running_s: Option<f64>,
    pub first_token_s: Option<f64>,
    /// First poll that saw the request terminal.
    pub done_s: Option<f64>,
    pub outcome: Outcome,
    pub tokens: Vec<u32>,
    pub stats: Option<SpecStats>,
}

impl Record {
    pub fn succeeded(&self) -> bool {
        self.outcome == Outcome::Done && self.tokens.len() == self.req.budget
    }
}

/// Engine counters read after the drain.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    pub rejected: u64,
    pub vision_hits: u64,
    pub vision_misses: u64,
    pub draft_rollbacks: u64,
    pub ring_full_stalls: u64,
    pub verify_idle_stalls: u64,
    pub speculation_depth_mean: f64,
}

/// One engine tick timed from outside, with the sessions it stepped.
#[derive(Debug, Clone, Copy)]
pub struct Tick {
    pub ms: f64,
    pub sessions: u64,
}

pub struct LoadResult {
    pub records: Vec<Record>,
    /// First send to the last terminal poll.
    pub window_s: f64,
    pub peak_rss_mb: f64,
    pub kv_target_peak_occupancy: f64,
    pub kv_draft_peak_occupancy: f64,
    pub ticks: Vec<Tick>,
    pub counters: Counters,
}

impl LoadResult {
    pub fn finished(&self) -> impl Iterator<Item = &Record> {
        self.records.iter().filter(|r| r.succeeded())
    }

    /// Share of the window in which at least one request was in the
    /// engine (queued or running).
    pub fn busy_frac(&self) -> f64 {
        let ns = |s: f64| (s * 1e9) as u64;
        let spans = self
            .records
            .iter()
            .filter_map(|r| Some((ns(r.sent_s), ns(r.done_s?))))
            .collect();
        union_len(spans, 0, u64::MAX) as f64 / 1e9 / self.window_s.max(1e-9)
    }

    pub fn throughput_tok_s(&self) -> f64 {
        let tokens: usize = self.finished().map(|r| r.tokens.len()).sum();
        tokens as f64 / self.window_s.max(1e-9)
    }
}

/// Peak resident memory over a phase: the kernel's high-water mark after
/// resetting it, or the highest sampled `VmRSS` if the reset is refused.
struct RssProbe {
    hwm_reset: bool,
    max_kb: u64,
    last_sample: Instant,
}

fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim_start_matches(':')
                .split_whitespace()
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

impl RssProbe {
    fn start() -> Self {
        let hwm_reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
        Self {
            hwm_reset,
            max_kb: status_kb("VmRSS"),
            last_sample: Instant::now(),
        }
    }

    fn sample(&mut self) {
        if !self.hwm_reset && self.last_sample.elapsed() >= Duration::from_millis(10) {
            self.max_kb = self.max_kb.max(status_kb("VmRSS"));
            self.last_sample = Instant::now();
        }
    }

    fn peak_mb(&self) -> f64 {
        let kb = if self.hwm_reset {
            status_kb("VmHWM")
        } else {
            self.max_kb.max(status_kb("VmRSS"))
        };
        kb as f64 / 1024.0
    }
}

/// The server's scheduler loop, with every working tick timed.
fn tick_loop(
    engine: &Engine,
    stop: &AtomicBool,
    tracer: &Tracer,
    parent: Option<usize>,
) -> Vec<Tick> {
    let mut ticks = Vec::new();
    while !stop.load(Ordering::Acquire) {
        let start = Instant::now();
        if engine.tick() {
            let end = Instant::now();
            let sessions = engine.metrics().active_sessions.get();
            tracer.record("serve.tick", start, end, parent, None);
            ticks.push(Tick {
                ms: (end - start).as_secs_f64() * 1e3,
                sessions,
            });
        } else {
            engine.wait_for_work(Duration::from_millis(5));
        }
    }
    engine.cancel_all();
    engine.run_until_idle();
    ticks
}

fn occupancy(total: u64, min_free: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        1.0 - min_free as f64 / total as f64
    }
}

/// Serve one workload for `seconds` of sending, then drain.
pub fn run_load(
    engine: Arc<Engine>,
    w: Workload,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> LoadResult {
    let pipeline = engine.config().async_pipeline;
    let metrics = Arc::clone(engine.metrics());
    let kv_total = (
        metrics.kv_free_blocks_target.get(),
        metrics.kv_free_blocks_draft.get(),
    );
    let stop = AtomicBool::new(false);
    let load_id = tracer.map(|tr| tr.begin("load", None));
    let mut rss = RssProbe::start();

    let (gen, ticks) = std::thread::scope(|scope| {
        let (mut server, ticker) = match tracer {
            Some(tr) if !pipeline => {
                let (engine, stop) = (&engine, &stop);
                (
                    None,
                    Some(scope.spawn(move || tick_loop(engine, stop, tr, load_id))),
                )
            }
            _ => (
                Some(
                    Server::start(Arc::clone(&engine), "127.0.0.1:0")
                        .expect("bind a localhost port"),
                ),
                None,
            ),
        };
        let gen = generate(&engine, w, seed, seconds, tracer, load_id, &mut rss);
        stop.store(true, Ordering::Release);
        if let Some(s) = server.as_mut() {
            s.shutdown();
        }
        let ticks = ticker.map_or_else(Vec::new, |t| t.join().expect("tick loop panicked"));
        (gen, ticks)
    });
    if let (Some(tr), Some(id)) = (tracer, gen.drain_id) {
        tr.end(id);
    }

    let counters = Counters {
        rejected: metrics.requests_rejected.get(),
        vision_hits: metrics.vision_cache_hits.get(),
        vision_misses: metrics.vision_cache_misses.get(),
        draft_rollbacks: metrics.draft_rollbacks.get(),
        ring_full_stalls: metrics.ring_full_stalls.get(),
        verify_idle_stalls: metrics.verify_idle_stalls.get(),
        speculation_depth_mean: metrics.speculation_depth.mean_ms(),
    };
    LoadResult {
        records: gen.records,
        window_s: gen.window_s,
        peak_rss_mb: rss.peak_mb(),
        kv_target_peak_occupancy: occupancy(kv_total.0, gen.kv_min_free.0),
        kv_draft_peak_occupancy: occupancy(kv_total.1, gen.kv_min_free.1),
        ticks,
        counters,
    }
}

struct Generated {
    records: Vec<Record>,
    window_s: f64,
    kv_min_free: (u64, u64),
    drain_id: Option<usize>,
}

fn generate(
    engine: &Engine,
    w: Workload,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
    load_id: Option<usize>,
    rss: &mut RssProbe,
) -> Generated {
    let spec = w.spec();
    let pipeline = engine.config().async_pipeline;
    let schedule = arrivals(w, seed, seconds);
    let mut traffic = Traffic::new(w, seed);
    let mut records: Vec<Record> = Vec::new();
    let mut inflight: Vec<(usize, Arc<RequestHandle>)> = Vec::new();
    let metrics = engine.metrics();
    let mut kv_min_free = (
        metrics.kv_free_blocks_target.get(),
        metrics.kv_free_blocks_draft.get(),
    );
    let mut next_open = 0usize;
    let mut drain_id: Option<usize> = None;
    let mut sending = true;
    let t0 = Instant::now();
    let at = |t: Instant| t.saturating_duration_since(t0).as_secs_f64();

    let mut send = |scheduled_s: f64,
                    records: &mut Vec<Record>,
                    inflight: &mut Vec<(usize, Arc<RequestHandle>)>| {
        let req = traffic.next_request();
        let idx = records.len();
        let sent = Instant::now();
        let result = engine.submit(Request {
            prompt: req.prompt.clone(),
            max_new: req.budget,
            mode: req.mode,
            image_seed: req.image_seed,
        });
        let after = Instant::now();
        if let Some(tr) = tracer {
            tr.record("serve.submit", sent, after, load_id, Some(idx));
        }
        let outcome = match result {
            Ok(handle) => {
                inflight.push((idx, handle));
                Outcome::Unfinished
            }
            Err(_) => Outcome::Rejected,
        };
        records.push(Record {
            req,
            scheduled_s: scheduled_s.min(at(sent)),
            sent_s: at(sent),
            submit_us: (after - sent).as_secs_f64() * 1e6,
            running_s: None,
            first_token_s: None,
            done_s: None,
            outcome,
            tokens: Vec::new(),
            stats: None,
        });
    };

    loop {
        let now_i = Instant::now();
        let now = at(now_i);
        inflight.retain(|(idx, handle)| {
            let rec = &mut records[*idx];
            let (status, tokens) = handle.snapshot();
            if rec.running_s.is_none() && status != Status::Queued {
                rec.running_s = Some(now);
                if let Some(tr) = tracer {
                    let sent = t0 + Duration::from_secs_f64(rec.sent_s);
                    tr.record("serve.queued", sent, now_i, load_id, Some(*idx));
                }
            }
            if !matches!(status, Status::Done | Status::Cancelled) {
                return true;
            }
            rec.done_s = Some(now);
            rec.first_token_s = handle.ttft_ms().map(|ms| rec.sent_s + ms / 1e3);
            rec.outcome = if status == Status::Done {
                Outcome::Done
            } else {
                Outcome::Cancelled
            };
            rec.tokens = tokens;
            rec.stats = handle.stats();
            if let (Some(tr), Some(running)) = (tracer, rec.running_s) {
                let start = t0 + Duration::from_secs_f64(running);
                tr.record("serve.running", start, now_i, load_id, Some(*idx));
            }
            false
        });
        kv_min_free.0 = kv_min_free.0.min(metrics.kv_free_blocks_target.get());
        kv_min_free.1 = kv_min_free.1.min(metrics.kv_free_blocks_draft.get());
        rss.sample();

        if sending {
            match spec.arrival {
                Arrival::Closed { clients } => {
                    while now < seconds && inflight.len() < clients {
                        send(at(Instant::now()), &mut records, &mut inflight);
                    }
                    sending = now < seconds;
                }
                Arrival::Open { .. } => {
                    while next_open < schedule.len() && schedule[next_open] <= at(Instant::now()) {
                        send(schedule[next_open], &mut records, &mut inflight);
                        next_open += 1;
                    }
                    sending = next_open < schedule.len();
                }
            }
            if !sending {
                if let (Some(tr), Some(id)) = (tracer, load_id) {
                    tr.end(id);
                    drain_id = Some(tr.begin("drain", None));
                }
            }
        }
        if !sending && inflight.is_empty() {
            break;
        }
        if now > seconds + DRAIN_LIMIT_S {
            for (_, handle) in &inflight {
                handle.cancel();
            }
            break;
        }
        // The sync scheduler runs on one thread, so the poller spins on the
        // other core: a sleeping poller sees completions late by its wake-up
        // latency, which on a virtual CPU is large and variable next to
        // millisecond requests. The async pipeline's draft threads need
        // both cores, so there the poller sleeps between sweeps.
        if pipeline {
            std::thread::sleep(ASYNC_SWEEP);
        } else {
            let until = Instant::now() + SYNC_SWEEP;
            while Instant::now() < until {
                std::hint::spin_loop();
            }
        }
    }

    let window_s = records
        .iter()
        .filter_map(|r| r.done_s)
        .fold(0.0f64, f64::max)
        - records.first().map_or(0.0, |r| r.sent_s);
    Generated {
        records,
        window_s,
        kv_min_free,
        drain_id,
    }
}
