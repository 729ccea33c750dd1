//! Serving benchmark for the AASD stack.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload text_saturated --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Drives the shipped serving stack (`aasd_serve::Server` around an
//! `Engine`) with one of three seeded traffic mixes from a single load
//! generator thread, checks every finished stream against autoregressive
//! decoding, and prints every metric by name with its unit. The last line
//! of standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer breakdown with `--trace 1`. See README.md
//! beside this file for what each metric means.

mod layers;
mod load;
mod reference;
mod setup;
mod trace;
mod workload;

use std::time::Instant;

use aasd_json as json;
use aasd_specdec::SpecStats;
use aasd_tensor::{backend, hardware_threads, Backend};

use layers::{median, percentile};
use load::{Counters, LoadResult, Outcome};
use reference::References;
use setup::{
    distill_steps, set_up, start_engine, SetupTimes, MM_DISTILL_STEPS, TEXT_DISTILL_STEPS,
};
use trace::{span, Tracer};
use workload::{fingerprint, Arrival, Traffic, Workload};

/// Complete set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Leading requests of the stream replayed alone in the traced run.
const REPLAY_REQUESTS: usize = 32;
/// Fewest sent requests for which p90 keeps ten samples beyond it.
const MIN_MEASURED: usize = 100;
/// Where the traced run writes its spans, relative to the checkout root.
const TRACE_DIR: &str = ".bench_out";

/// The benchmark definition, read for the regression bound the open-loop
/// self-check applies.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: servebench --workload <text_saturated|text_interactive|mm_open> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse_args(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    std::process::exit(run(&args, &argv));
}

/// The `bound` of an end-to-end metric in `BENCHMARK.json`.
fn bound_of(metric: &str) -> f64 {
    let key = format!("\"name\": \"{metric}\"");
    BENCHMARK_JSON
        .find(&key)
        .and_then(|at| {
            let rest = &BENCHMARK_JSON[at..];
            let rest = &rest[rest.find("\"bound\":")? + 8..];
            let end = rest.find(['}', ','])?;
            rest[..end].trim().parse().ok()
        })
        .unwrap_or_else(|| panic!("BENCHMARK.json has no bound for {metric}"))
}

/// The checked-out revision, read from `.git` when the run is inside a git
/// work tree.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown (not a git work tree)".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(name)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unresolved {name}"))
}

fn provenance(args: &Args, argv: &[String]) -> String {
    let spec = args.workload.spec();
    json::object(&[
        json::field("git_revision", &json::string(&git_revision())),
        json::field("command_line", &json::string(&argv.join(" "))),
        json::field("workload", &json::string(spec.name)),
        json::field("seed", &args.seed.to_string()),
        json::field("seconds", &format!("{}", args.seconds)),
        json::field("trace", &args.trace.to_string()),
        json::field(
            "stream_fingerprint",
            &json::string(&format!(
                "{:016x}",
                fingerprint(args.workload, args.seed, args.seconds)
            )),
        ),
        json::field(
            "distill_steps",
            &json::object(&[
                json::field("text", &TEXT_DISTILL_STEPS.to_string()),
                json::field("mm", &MM_DISTILL_STEPS.to_string()),
            ]),
        ),
        json::field("setup_reps", &SETUP_REPS.to_string()),
        json::field("tensor_backend", &json::string(backend().name())),
        json::field("hardware_threads", &hardware_threads().to_string()),
    ])
}

/// A metric value: finite, printed with all its digits.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn print(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<32} {value:>14.4} {unit}");
        }
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                json::field(
                    name,
                    &json::object(&[
                        json::field("value", &num(*value)),
                        json::field("unit", &json::string(unit)),
                    ]),
                )
            })
            .collect();
        json::object(&fields)
    }
}

/// Per-phase request accounting.
struct Counts {
    sent: usize,
    succeeded: usize,
    failed: usize,
}

fn counts(load: &LoadResult) -> Counts {
    let sent = load.records.len();
    let succeeded = load.finished().count();
    Counts {
        sent,
        succeeded,
        failed: sent - succeeded,
    }
}

fn print_counts(phase: &str, load: &LoadResult) {
    let c = counts(load);
    let by = |o: Outcome| load.records.iter().filter(|r| r.outcome == o).count();
    println!(
        "# {phase}: requests sent {}, succeeded {}, failed {} (rejected {}, cancelled {}, unfinished {}); engine busy {:.3} of the window",
        c.sent,
        c.succeeded,
        c.failed,
        by(Outcome::Rejected),
        by(Outcome::Cancelled),
        by(Outcome::Unfinished),
        load.busy_frac(),
    );
}

fn ttft_ms(load: &LoadResult) -> Vec<f64> {
    load.finished()
        .filter_map(|r| Some((r.first_token_s? - r.scheduled_s) * 1e3))
        .collect()
}

fn tpot_ms(load: &LoadResult) -> Vec<f64> {
    load.finished()
        .filter(|r| r.tokens.len() >= 2)
        .filter_map(|r| Some((r.done_s? - r.first_token_s?) * 1e3 / (r.tokens.len() - 1) as f64))
        .collect()
}

fn lateness_ms(load: &LoadResult) -> Vec<f64> {
    load.records
        .iter()
        .map(|r| (r.sent_s - r.scheduled_s) * 1e3)
        .collect()
}

fn end_to_end(load: &LoadResult, setup_s: f64) -> Metrics {
    let (ttft, tpot) = (ttft_ms(load), tpot_ms(load));
    let c = counts(load);
    let mut m = Metrics(Vec::new());
    m.push("setup_s", setup_s, "s");
    m.push("throughput_tok_s", load.throughput_tok_s(), "tok/s");
    m.push("ttft_p50_ms", median(&ttft), "ms");
    m.push("ttft_p90_ms", percentile(&ttft, 0.9), "ms");
    m.push("tpot_p50_ms", median(&tpot), "ms");
    m.push("tpot_p90_ms", percentile(&tpot, 0.9), "ms");
    m.push(
        "succeeded_frac",
        c.succeeded as f64 / c.sent.max(1) as f64,
        "ratio",
    );
    m.push("peak_rss_mb", load.peak_rss_mb, "MB");
    m
}

fn alpha_line(load: &LoadResult) -> String {
    let mut s = SpecStats::default();
    for r in load.finished() {
        if let Some(st) = &r.stats {
            s.merge(st);
        }
    }
    format!(
        "served alpha {:.4}, tau {:.4} over {} speculative requests",
        s.acceptance_rate(),
        s.block_efficiency(),
        load.finished().filter(|r| r.stats.is_some()).count()
    )
}

fn run(args: &Args, argv: &[String]) -> i32 {
    let wall = Instant::now();
    let tracer = args.trace.then(|| Tracer::new(wall));
    let tr = tracer.as_ref();
    let (w, seed, seconds) = (args.workload, args.seed, args.seconds);
    let spec = w.spec();
    let prov = provenance(args, argv);
    println!("# provenance {prov}");

    // ---- set-up, repeated; the median repetition is reported -----------
    let mut reps: Vec<SetupTimes> = Vec::new();
    let (models, engine, losses) = span(tr, "setup", None, |id| {
        let mut last = None;
        for _ in 0..SETUP_REPS {
            drop(last.take());
            let (models, engine, times, losses) = set_up(spec, tr, id);
            reps.push(times);
            last = Some((models, engine, losses));
        }
        last.expect("at least one set-up")
    });
    let mut order: Vec<usize> = (0..reps.len()).collect();
    order.sort_by(|&a, &b| reps[a].total().total_cmp(&reps[b].total()));
    let setup = reps[order[reps.len() / 2]];
    let totals: Vec<String> = reps.iter().map(|r| format!("{:.3}", r.total())).collect();
    println!(
        "# set-up x{SETUP_REPS} [{}] s: median {:.3} s (model init {:.3} s, distill {} steps {:.3} s, engine start {:.4} s); distill KL {:.4} -> {:.4}",
        totals.join(", "),
        setup.total(),
        setup.model_init_s,
        distill_steps(spec),
        setup.distill_s,
        setup.engine_start_s,
        losses.0,
        losses.1
    );

    // ---- untraced load: the end-to-end numbers ---------------------------
    let base = span(tr, "load_untraced", None, |_| {
        load::run_load(engine, w, seed, seconds, None)
    });
    print_counts("load", &base);
    println!("# {}", alpha_line(&base));
    let mut refs = References::default();
    let mut mismatches = span(tr, "reference", None, |_| {
        refs.extend(&models, &base.records);
        refs.mismatches(&base.records)
    });
    let Counts { sent, failed, .. } = counts(&base);
    let (mut attempted, mut failed) = (sent, failed);
    if sent < MIN_MEASURED {
        eprintln!("warning: only {sent} requests sent; p90 needs at least {MIN_MEASURED}");
    }
    let e2e = end_to_end(&base, setup.total());
    let lateness_bound_ms = bound_of("ttft_p90_ms") * percentile(&ttft_ms(&base), 0.9);
    let lateness_p90 = percentile(&lateness_ms(&base), 0.9);

    let metrics = if let Some(tracer) = tr {
        // ---- traced load with the same seed, then the replay -------------
        let engine = span(tr, "engine_restart", None, |_| {
            start_engine(&models, spec, false)
        });
        let traced = load::run_load(engine, w, seed, seconds, Some(tracer));
        print_counts("traced load", &traced);
        mismatches += span(tr, "reference", None, |_| {
            refs.extend(&models, &traced.records);
            refs.mismatches(&traced.records)
        });
        attempted += counts(&traced).sent;
        failed += counts(&traced).failed;

        // ---- the same stream once more on the async pipeline -------------
        let probe = spec.async_probe.then(|| {
            let probe = span(tr, "async_probe", None, |_| {
                let engine = start_engine(&models, spec, true);
                load::run_load(engine, w, seed, seconds, None)
            });
            print_counts("async pipeline probe", &probe);
            println!("# async pipeline probe: {}", alpha_line(&probe));
            mismatches += span(tr, "reference", None, |_| {
                refs.extend(&models, &probe.records);
                refs.mismatches(&probe.records)
            });
            attempted += counts(&probe).sent;
            failed += counts(&probe).failed;
            probe
        });

        let mut replayed = Traffic::new(w, seed);
        let n = REPLAY_REQUESTS.min(traced.records.len());
        let reqs: Vec<_> = (0..n).map(|_| replayed.next_request()).collect();
        let (rep, fwd) = span(tr, "replay", None, |id| {
            let rep = layers::replay(&models, &reqs, &refs, tr, id);
            let fwd = span(tr, "replay.forwards", id, |_| {
                layers::forwards(&models, spec, &reqs)
            });
            (rep, fwd)
        });
        mismatches += rep.mismatches;
        let mut served = SpecStats::default();
        for &i in &rep.spec_requests {
            if let Some(st) = &traced.records[i].stats {
                served.merge(st);
            }
        }
        println!(
            "# served speculation counters equal the replay's: {}",
            served == rep.stats
        );
        let m = per_layer(&PerLayer {
            base: &base,
            traced: &traced,
            probe: probe.as_ref(),
            served: &served,
            replay: &rep,
            forwards: &fwd,
            setup: &setup,
            steps: distill_steps(spec),
            reference_s: refs.seconds,
            coverage: tracer.top_level_coverage(wall.elapsed().as_nanos() as u64),
            lateness_p90_ms: percentile(&lateness_ms(&traced), 0.9),
            closed: matches!(spec.arrival, Arrival::Closed { .. }),
        });
        let wall_ns = wall.elapsed().as_nanos() as u64;
        let path = format!("{TRACE_DIR}/trace_{}_{seed}.json", spec.name);
        let written = std::fs::create_dir_all(TRACE_DIR)
            .and_then(|_| std::fs::write(&path, tracer.render(wall_ns, &prov)));
        match written {
            Ok(()) => println!("# trace written to {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
        println!("# end-to-end (untraced load):");
        e2e.print();
        m
    } else {
        e2e
    };

    println!(
        "# bench.reference_s {:.3} (outside set-up and the measured window)",
        refs.seconds
    );
    println!(
        "# metrics ({}):",
        if args.trace {
            "per layer"
        } else {
            "end to end"
        }
    );
    metrics.print();

    if matches!(spec.arrival, Arrival::Open { .. }) && lateness_p90 > lateness_bound_ms {
        eprintln!(
            "invalid run: the generator's p90 lateness {lateness_p90:.3} ms exceeds {lateness_bound_ms:.3} ms \
             (the ttft_p90_ms bound times its value); no result reported"
        );
        return 3;
    }
    let correct = mismatches == 0;
    if !correct {
        eprintln!(
            "error: {mismatches} served or replayed streams differ from autoregressive decoding"
        );
    }
    println!(
        "{}",
        json::object(&[
            json::field("correct", &correct.to_string()),
            json::field("attempted", &attempted.to_string()),
            json::field("failed", &failed.to_string()),
            json::field("metrics", &metrics.json()),
        ])
    );
    if correct {
        0
    } else {
        1
    }
}

struct PerLayer<'a> {
    base: &'a LoadResult,
    traced: &'a LoadResult,
    /// The async pipeline's serving of the same stream, if the workload
    /// probes it.
    probe: Option<&'a LoadResult>,
    /// Served speculation counters of the replayed requests.
    served: &'a SpecStats,
    replay: &'a layers::Replay,
    forwards: &'a layers::Forwards,
    setup: &'a SetupTimes,
    steps: usize,
    reference_s: f64,
    coverage: f64,
    lateness_p90_ms: f64,
    closed: bool,
}

fn per_layer(p: &PerLayer) -> Metrics {
    let t = p.traced;
    let mut m = Metrics(Vec::new());
    let tick_ms: Vec<f64> = t.ticks.iter().map(|k| k.ms).collect();
    let sessions: u64 = t.ticks.iter().map(|k| k.sessions).sum();
    m.push("serve.tick_ms_p50", median(&tick_ms), "ms");
    m.push(
        "serve.sessions_per_tick",
        sessions as f64 / t.ticks.len().max(1) as f64,
        "count",
    );
    m.push(
        "serve.tick_ms_per_session",
        tick_ms.iter().fold(0.0, |a, b| a + b) / sessions.max(1) as f64,
        "ms",
    );
    let wait: Vec<f64> = t
        .records
        .iter()
        .filter_map(|r| Some((r.running_s? - r.sent_s) * 1e3))
        .collect();
    m.push("serve.queue_wait_p50_ms", median(&wait), "ms");
    m.push("serve.queue_wait_p90_ms", percentile(&wait, 0.9), "ms");
    let submit: Vec<f64> = t.records.iter().map(|r| r.submit_us).collect();
    m.push("serve.submit_us_p50", median(&submit), "us");
    let c = &t.counters;
    m.push("serve.vision_cache_hits", c.vision_hits as f64, "count");
    m.push("serve.vision_cache_misses", c.vision_misses as f64, "count");
    let lookups = (c.vision_hits + c.vision_misses).max(1) as f64;
    m.push(
        "serve.vision_cache_hit_ratio",
        c.vision_hits as f64 / lookups,
        "ratio",
    );
    m.push(
        "serve.kv_target_peak_occupancy",
        t.kv_target_peak_occupancy,
        "ratio",
    );
    m.push(
        "serve.kv_draft_peak_occupancy",
        t.kv_draft_peak_occupancy,
        "ratio",
    );
    m.push("serve.rejected", c.rejected as f64, "count");
    let a = p.probe.map(|r| r.counters);
    let async_count = |f: fn(&Counters) -> u64| a.as_ref().map_or(0.0, |c| f(c) as f64);
    m.push(
        "serve.draft_rollbacks",
        async_count(|c| c.draft_rollbacks),
        "count",
    );
    m.push(
        "serve.ring_full_stalls",
        async_count(|c| c.ring_full_stalls),
        "count",
    );
    m.push(
        "serve.verify_idle_stalls",
        async_count(|c| c.verify_idle_stalls),
        "count",
    );
    m.push(
        "serve.speculation_depth_mean",
        a.map_or(0.0, |c| c.speculation_depth_mean),
        "tokens",
    );
    m.push(
        "serve.async_tpot_p50_ms",
        p.probe.map_or(0.0, |r| median(&tpot_ms(r))),
        "ms",
    );

    let s = p.served;
    m.push("specdec.blocks", s.blocks as f64, "count");
    m.push("specdec.drafted", s.drafted as f64, "count");
    m.push("specdec.accepted", s.accepted as f64, "count");
    m.push("specdec.alpha", s.acceptance_rate(), "ratio");
    m.push("specdec.tau", s.block_efficiency(), "tokens/block");
    m.push("specdec.block_ms_p50", median(&p.replay.block_ms), "ms");
    m.push("specdec.ar_step_ms_p50", median(&p.replay.ar_step_ms), "ms");
    let f = p.forwards;
    let draft_ms = s.drafted as f64 * f.draft_forward_ms;
    let verify_ms = s.blocks as f64 * f.verify_forward_ms;
    m.push(
        "specdec.draft_time_share",
        draft_ms / (draft_ms + verify_ms).max(1e-12),
        "ratio",
    );
    m.push("nn.prefill_ms_per_token", f.prefill_ms_per_token, "ms");
    m.push("nn.verify_forward_ms", f.verify_forward_ms, "ms");
    m.push("nn.draft_forward_ms", f.draft_forward_ms, "ms");
    m.push("nn.decode_forward_ms", f.decode_forward_ms, "ms");
    m.push("mm.vision_leg_ms", median(&p.replay.vision_leg_ms), "ms");
    m.push(
        "mm.text_prefill_ms",
        median(&p.replay.text_prefill_ms),
        "ms",
    );
    m.push("mm.draft_seed_ms", median(&p.replay.draft_seed_ms), "ms");
    m.push("tensor.vecmat_us", f.vecmat_us, "us");
    let tier = Backend::ALL
        .iter()
        .position(|&b| b == backend())
        .unwrap_or(0);
    m.push("tensor.backend", tier as f64, "tier");

    let st = p.setup;
    m.push("setup.model_init_s", st.model_init_s, "s");
    m.push("setup.distill_s", st.distill_s, "s");
    m.push("setup.engine_start_s", st.engine_start_s, "s");
    m.push(
        "train.distill_step_ms",
        st.distill_s * 1e3 / p.steps as f64,
        "ms",
    );

    let cnt = counts(t);
    m.push(
        "loadgen.lateness_p90_ms",
        if p.closed { 0.0 } else { p.lateness_p90_ms },
        "ms",
    );
    m.push("loadgen.requests_sent", cnt.sent as f64, "count");
    m.push("loadgen.requests_succeeded", cnt.succeeded as f64, "count");
    m.push("loadgen.requests_failed", cnt.failed as f64, "count");
    m.push("bench.reference_s", p.reference_s, "s");
    m.push(
        "trace.overhead_frac",
        1.0 - t.throughput_tok_s() / p.base.throughput_tok_s().max(1e-12),
        "ratio",
    );
    m.push("trace.top_level_coverage", p.coverage, "ratio");
    m
}
