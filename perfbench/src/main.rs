//! `perfbench`: closed-loop loopback benchmark of the `hsa-engine` request
//! path (client → wire → reactor → service/pool → engine → reply), with a
//! traced run that splits the round trip by layer. See README.md here.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot-ids --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the line before it carries the
//! run's metadata. A wrong answer or unbalanced counter exits with 1.

mod measure;
mod plan;
mod run;
mod trace;
mod twin;

use measure::{median, quantile};
use plan::{Plan, Workload};
use std::process::exit;
use trace::Tracer;

/// Set-ups timed per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 31;
/// Rounds of an end-to-end timed phase; timings and rates are medians
/// over rounds.
const ROUNDS: usize = 10;
/// Steps per connection whose spans are written to the span file.
const SPAN_FILE_STEPS: u64 = 2_000;
/// How far the stage medians' sum may stray from the traced round
/// trip's median before the traced run fails.
const STAGE_SLACK: f64 = 0.25;

const USAGE: &str = "usage: perfbench --workload <hot-ids|churn|anytime> --seed <n> \
                     --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

struct Report {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    samples: usize,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.problems.push(format!("metric {name} is not finite"));
        }
        self.metrics
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// End-to-end run: one timed phase of `ROUNDS` rounds on the first rig
/// the process sets up, every answer checked against the twin, then
/// `SETUP_REPS` more set-ups timed for `setup_s`. Timings and rates are
/// medians over rounds.
fn end_to_end(args: &Args) -> Result<Report, String> {
    let plan = Plan::generate(args.workload, args.seed, args.seconds);
    let logs = run::logs(args.seconds as f64, false);
    measure::release_free_memory();
    let rss0 = measure::rss_bytes();
    let mut rig = run::setup(&plan)?;
    let phase = run::phase(&plan, &mut rig, logs, args.seconds as f64, ROUNDS)?;
    let problems = run::accounting(&rig, &phase);
    let ids = rig.ids.clone();
    drop(rig);
    let checked = twin::replay(
        &plan,
        &ids,
        &phase.logs,
        &mut Tracer::new(phase.epoch, false),
    )?;
    let setup_s = run::setup_time(&plan, SETUP_REPS)?;

    let tail = args.workload.tail();
    let mut r = Report {
        problems,
        attempted: phase.logs.iter().map(|l| l.sent).sum(),
        failed: phase.failed() + checked.mismatches,
        metrics: Vec::new(),
        samples: phase.received() as usize,
    };
    r.metric("setup_s", setup_s, "s");
    r.metric(
        "rtt_p50_us",
        phase.per_round(|x| quantile(&x.rtt_us, 0.5)),
        "us",
    );
    r.metric(
        "rtt_tail_us",
        phase.per_round(|x| quantile(&x.rtt_us, tail)),
        "us",
    );
    r.metric(
        "throughput_rps",
        phase.per_round(|x| x.received as f64 / x.seconds),
        "1/s",
    );
    r.metric(
        "cpu_us_per_req",
        phase.per_round(|x| x.cpu_s * 1e6 / x.received.max(1) as f64),
        "us",
    );
    r.metric(
        "retained_rss_mb",
        (phase.rss_after as f64 - rss0 as f64) / (1 << 20) as f64,
        "MB",
    );
    Ok(r)
}

/// Traced run: an untraced phase and a traced phase of the same shape
/// (each on a fresh set-up, half the seconds each), then the per-layer
/// figures from the traced phase's spans and the program's counters.
fn traced(args: &Args) -> Result<Report, String> {
    let plan = Plan::generate(args.workload, args.seed, args.seconds);
    let half = args.seconds as f64 / 2.0;

    let mut rig = run::setup(&plan)?;
    let base = run::phase(&plan, &mut rig, run::logs(half, false), half, 1)?;
    let mut problems = run::accounting(&rig, &base);
    let ids = rig.ids.clone();
    drop(rig);
    let base_check = twin::replay(&plan, &ids, &base.logs, &mut Tracer::new(base.epoch, false))?;

    let mut rig = run::setup(&plan)?;
    let mut phase = run::phase(&plan, &mut rig, run::logs(half, true), half, 1)?;
    problems.extend(run::accounting(&rig, &phase));
    let service = rig.server.service();
    let instances = service.engine().len();
    let (mut reused, mut rebuilt) = (0u64, 0u64);
    for inst in 0..plan.instances.len() {
        if let Some(s) = service.tenant_stats(plan::tenant(inst)) {
            reused += s.colours_reused;
            rebuilt += s.colours_rebuilt;
        }
    }
    let ids = rig.ids.clone();
    drop(rig);

    let mut tr = Tracer::new(phase.epoch, true);
    for log in &mut phase.logs {
        tr.absorb(std::mem::replace(
            &mut log.tracer,
            Tracer::new(phase.epoch, false),
        ));
    }
    let mut checked = twin::replay(&plan, &ids, &phase.logs, &mut tr)?;
    let path = format!("perfbench/out/spans-{}.tsv", plan.workload.name());
    if let Err(e) = tr.write_tsv(std::path::Path::new(&path), SPAN_FILE_STEPS) {
        eprintln!("perfbench: could not write {path}: {e}");
    }
    let layers = trace::layers(&tr);

    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (b, a) = (&phase.before, &phase.after);
    let hits = a.eng.cache_hits - b.eng.cache_hits;
    let misses = a.eng.cache_misses - b.eng.cache_misses;
    let answers = phase.received() as f64;
    let stage_sum: f64 = trace::STAGES.iter().map(|s| layers.p50_us[s]).sum();
    let stage_sum_ratio = ratio(stage_sum, layers.request_p50_us);
    if plan.workload != Workload::Anytime && (stage_sum_ratio - 1.0).abs() > STAGE_SLACK {
        problems.push(format!(
            "stage medians sum to {stage_sum:.1} µs, {stage_sum_ratio:.3}× the traced round trip \
             (slack ±{STAGE_SLACK})"
        ));
    }
    let p50 = |p: &run::Phase| p.per_round(|x| quantile(&x.rtt_us, 0.5));
    let overhead = ratio(p50(&phase), p50(&base));

    let mut r = Report {
        problems,
        attempted: [&base, &phase]
            .iter()
            .flat_map(|p| p.logs.iter().map(|l| l.sent))
            .sum(),
        failed: base.failed() + phase.failed() + base_check.mismatches + checked.mismatches,
        metrics: Vec::new(),
        samples: phase.received() as usize,
    };
    for (name, _, _) in trace::TIMED {
        r.metric(format!("{name}_p50_us"), layers.p50_us[name], "us");
        r.metric(format!("{name}_p99_us"), layers.p99_us[name], "us");
    }
    r.metric(
        "client.request_bytes",
        median(&mut checked.request_bytes),
        "B",
    );
    r.metric("wire.reply_bytes", median(&mut checked.reply_bytes), "B");
    r.metric(
        "reactor.frames_per_write",
        ratio(
            (a.net.frames_out - b.net.frames_out) as f64,
            (a.net.writes - b.net.writes) as f64,
        ),
        "ratio",
    );
    r.metric(
        "reactor.saturation_parks",
        (a.net.saturation_parks - b.net.saturation_parks) as f64,
        "count",
    );
    r.metric(
        "service.backpressure_waits",
        (a.svc.backpressure_waits - b.svc.backpressure_waits) as f64,
        "count",
    );
    r.metric(
        "cache.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    r.metric("cache.instances", instances as f64, "count");
    r.metric(
        "session.reuse_rate",
        ratio(reused as f64, (reused + rebuilt) as f64),
        "ratio",
    );
    // Only anytime answers carry a winner and bump these sums.
    let sum = |f: fn(&run::ConnLog) -> u64| phase.logs.iter().map(f).sum::<u64>() as f64;
    r.metric(
        "portfolio.exact_win_ratio",
        ratio(sum(|l| l.exact_wins), answers),
        "ratio",
    );
    r.metric(
        "portfolio.pending_arms",
        ratio(sum(|l| l.pending_arms), answers),
        "count",
    );
    r.metric("trace.stage_sum_ratio", stage_sum_ratio, "ratio");
    r.metric("trace.overhead_ratio", overhead, "ratio");
    Ok(r)
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        exit(2);
    }
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        exit(2)
    });
    let result = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    let report = result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(1)
    });
    for p in &report.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let w = args.workload;
    println!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"profile\": \"release\", \"conns\": {}, \"window\": {}, \
         \"rtt_samples\": {}, \"tail_quantile\": {}}}}}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        plan::CONNS,
        w.window(),
        report.samples,
        w.tail(),
    );
    println!("{}", report.json());
    exit(if report.correct() { 0 } else { 1 })
}
