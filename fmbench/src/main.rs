//! `fmbench`: the client-timed end-to-end benchmark of `fmperf analyze`
//! and `fmperf serve`.
//!
//! ```text
//! fmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! fmbench gen-planes        # rewrite fmbench/inputs/*.fmp
//! ```
//!
//! Run from the repository root (normally through `fmbench/run.sh`,
//! which builds both binaries first); `fmperf` is taken from
//! `$CARGO_TARGET_DIR/release` (default `.bench_build`). The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

mod checks;
mod http;
mod inputs;
mod json;
mod probe;
mod proc;
mod rng;
mod stats;
mod workload;

use stats::{median, quantile, Spans};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;
use workload::{Ctx, Window, WORKLOADS};

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?,
            "--seed" => out.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => out.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if out.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("gen-planes") {
        inputs::write_planes(Path::new("fmbench/inputs")).map(|()| None)
    } else {
        parse_args(&args).and_then(|a| run(&a).map(Some))
    };
    match result {
        Ok(Some(line)) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fmbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let fmperf = Path::new(&target).join("release/fmperf");
    if !fmperf.is_file() {
        return Err(format!("no fmperf binary at {}", fmperf.display()));
    }
    let work = Path::new(&target).join("fmbench-work").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        bases: inputs::load_bases(&root)?,
        fmperf,
        work: work.clone(),
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        trace: args.trace,
        threads,
    };
    let outcome = run_workload(&ctx, &args.workload);
    let _ = std::fs::remove_dir_all(&work);
    let (w, metrics) = outcome?;
    let mut problems = w.problems.clone();
    problems.sort();
    problems.dedup();
    for p in &problems {
        eprintln!("fmbench: {p}");
    }
    for o in w.ops.iter().filter_map(|o| o.failure.as_ref()).take(5) {
        eprintln!("fmbench: failed operation: {o}");
    }
    println!(
        "{} seed {} ({} thread(s)): {} operations in {:.2} s, {} failed",
        args.workload,
        args.seed,
        threads,
        w.ops.len(),
        w.elapsed.as_secs_f64(),
        w.failed()
    );
    for (b, body) in w.bodies.iter().enumerate() {
        let l: Vec<f64> = w
            .ops
            .iter()
            .filter(|o| o.body == b && !o.traced)
            .map(|o| o.latency_ms)
            .collect();
        if !l.is_empty() {
            println!(
                "  body {b:>2} {:<28} n {:>4}  p50 {:>9.3} ms",
                body.name,
                l.len(),
                median(&l)
            );
        }
    }
    let setups: Vec<String> = w.setup_s.iter().map(|s| format!("{s:.3}")).collect();
    println!("  set-up times {} s", setups.join(" "));
    let all = w.latencies(false);
    println!(
        "  latency p99 {:.3} ms over {} operations",
        quantile(&all, 0.99),
        all.len()
    );
    for m in &metrics {
        println!("  {:<24} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                finite(m.value),
                m.unit
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        w.problems.is_empty(),
        w.ops.len(),
        w.failed(),
        fields.join(", ")
    ))
}

/// JSON has no NaN or infinity.
fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        -1.0
    }
}

fn run_workload(ctx: &Ctx, name: &str) -> Result<(Window, Vec<Metric>), String> {
    let w = match name {
        "cli-analyze" => workload::cli_analyze(ctx)?,
        "serve-hit" => workload::serve_hit(ctx)?,
        "serve-whatif" => workload::serve_whatif(ctx)?,
        "serve-campaign" => workload::serve_campaign(ctx)?,
        other => return Err(format!("unknown workload {other}")),
    };
    if w.ops.is_empty() {
        return Err("the window ran no operation".into());
    }
    let metrics = if ctx.trace {
        layer_metrics(ctx, name, &w)?
    } else {
        end_to_end(&w)
    };
    Ok((w, metrics))
}

fn end_to_end(w: &Window) -> Vec<Metric> {
    let ok: Vec<f64> = w
        .ops
        .iter()
        .filter(|o| o.failure.is_none())
        .map(|o| o.latency_ms)
        .collect();
    vec![
        metric("latency_p50_ms", quantile(&ok, 0.5), "ms"),
        metric("latency_p90_ms", quantile(&ok, 0.9), "ms"),
        metric(
            "throughput_ops",
            ok.len() as f64 / w.elapsed.as_secs_f64(),
            "1/s",
        ),
        metric(
            "cpu_ms_per_op",
            w.cpu.as_secs_f64() * 1e3 / w.ops.len() as f64,
            "ms",
        ),
        metric("peak_rss_mb", w.peak_rss_kib as f64 / 1024.0, "MiB"),
        metric("setup_s", median(&w.setup_s), "s"),
    ]
}

/// Daemon-side figures: `timings` medians, the client residual and the
/// cache counters.
fn serve_metrics(w: &Window) -> Vec<Metric> {
    let timed: Vec<(f64, workload::Timings)> = w
        .ops
        .iter()
        .filter(|o| o.failure.is_none())
        .filter_map(|o| o.server.map(|t| (o.latency_ms, t)))
        .collect();
    let med = |f: &dyn Fn(&(f64, workload::Timings)) -> f64| {
        median(&timed.iter().map(f).collect::<Vec<_>>())
    };
    let c = w.cache.unwrap_or_default();
    vec![
        metric("http.residual_us", med(&|(l, t)| l * 1e3 - t.total), "us"),
        metric("serve.queue_wait_us", med(&|(_, t)| t.queue_wait), "us"),
        metric("serve.parse_us", med(&|(_, t)| t.parse), "us"),
        metric("serve.compile_us", median(&w.compiles_us), "us"),
        metric("serve.eval_us", med(&|(_, t)| t.eval), "us"),
        metric("serve.total_us", med(&|(_, t)| t.total), "us"),
        metric(
            "serve.cache_hit_ratio",
            if c.hits + c.misses > 0.0 {
                c.hits / (c.hits + c.misses)
            } else {
                0.0
            },
            "ratio",
        ),
        metric("serve.cache_evictions", c.evictions, "count"),
    ]
}

fn layer_metrics(ctx: &Ctx, name: &str, w: &Window) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    // Daemon-side figures come from the window itself; `cli-analyze`
    // has no daemon, so a probe daemon answers its bodies once cold and
    // twice warm.
    if w.cache.is_some() {
        out.extend(serve_metrics(w));
    } else {
        out.extend(serve_metrics(&workload::daemon_probe(ctx, &w.bodies)?));
    }
    let bodies: Vec<inputs::Body> = if name == "serve-whatif" {
        w.bodies.iter().step_by(3).cloned().collect()
    } else {
        w.bodies.clone()
    };
    let mut spans = Spans::new();
    let counts = probe::run(&bodies, ctx.threads, &mut spans)?;
    let us = |n: &str| probe::per_round_us(&spans, n, 0..bodies.len());
    for (metric_name, span) in [
        ("text.parse_us", "text.parse"),
        ("lint.preflight_us", "lint.preflight"),
        ("serve.hash_us", "serve.hash"),
        ("serve.session_us", "serve.session"),
        ("ftlqn.fault_graph_us", "ftlqn.fault_graph"),
        ("mama.know_table_us", "mama.know_table"),
        ("core.scan_us", "core.scan"),
    ] {
        out.push(metric(metric_name, us(span), "us"));
    }
    out.push(metric(
        "core.scan_ns_per_state",
        us("core.scan") * 1e3 / counts.states as f64,
        "ns",
    ));
    out.push(metric("core.states", counts.states as f64, "count"));
    out.push(metric("core.compile_us", us("core.compile"), "us"));
    out.push(metric(
        "core.mtbdd_nodes",
        counts.mtbdd_nodes as f64,
        "count",
    ));
    out.push(metric("core.eval_us", us("core.eval"), "us"));
    out.push(metric("lqn.solve_us", us("lqn.solve"), "us"));
    out.push(metric(
        "lqn.configs_solved",
        counts.configs_solved as f64,
        "count",
    ));
    out.push(metric("core.campaign_us", us("core.campaign"), "us"));
    out.push(metric(
        "core.campaign_scenarios",
        counts.campaign_scenarios as f64,
        "count",
    ));
    out.push(metric("serve.work_hit_us", us("serve.work_hit"), "us"));
    out.push(metric("serve.work_miss_us", us("serve.work_miss"), "us"));

    // CLI wall time per body: from the window on `cli-analyze`, from
    // three fresh processes per body elsewhere.
    let walls: Vec<f64> = if name == "cli-analyze" {
        (0..bodies.len())
            .map(|b| {
                let l: Vec<f64> = w
                    .ops
                    .iter()
                    .filter(|o| o.body == b && !o.traced)
                    .map(|o| o.latency_ms)
                    .collect();
                median(&l)
            })
            .collect()
    } else {
        workload::cli_walls(ctx, &bodies)?
    };
    // Per process: wall time minus the library layers it runs, median
    // over the bodies (the scan of the large planes swings by tens of ms
    // between runs and would swamp a sum).
    let residuals: Vec<f64> = walls
        .iter()
        .enumerate()
        .map(|(b, wall)| {
            let inside_us: f64 = probe::CLI_LAYERS
                .iter()
                .map(|l| probe::per_round_us(&spans, l, b..b + 1))
                .sum();
            wall - inside_us / 1e3
        })
        .collect();
    out.push(metric("cli.residual_ms", median(&residuals), "ms"));
    let ratio = |q: f64| quantile(&w.latencies(true), q) / quantile(&w.latencies(false), q);
    out.push(metric("trace.overhead_p50", ratio(0.5), "ratio"));
    out.push(metric("trace.overhead_p90", ratio(0.9), "ratio"));
    if let Some(s) = &w.spans {
        spans.spans.extend(s.spans.iter().cloned());
    }
    let trace_path = ctx.work.with_extension("spans.jsonl");
    std::fs::write(&trace_path, spans.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    Ok(out)
}
