//! The four workloads: set-up, the timed closed loop, and the checks.

use crate::checks::{self, Answer, SelfTestSamples};
use crate::http::Daemon;
use crate::inputs::{base_index, edit_triple, unedited, Base, Body, Triple};
use crate::json::Json;
use crate::proc;
use crate::rng::Rng;
use crate::stats::{median, Spans};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["cli-analyze", "serve-hit", "serve-whatif", "serve-campaign"];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Mean of the seeded exponential think gap between daemon requests.
const THINK_MEAN: Duration = Duration::from_millis(2);
/// Artifact cache of the daemon: holds `serve-hit`'s working set
/// (about 110 KiB), and makes `serve-whatif` evict.
pub const CACHE_MB: usize = 1;
/// Daemon workers: one client connection never has two requests in
/// flight, and a second worker only adds a second malloc arena, which
/// made the daemon's peak RSS wander between 15 and 24 MiB from run to
/// run on `serve-whatif`.
const DAEMON_WORKERS: usize = 1;

/// Everything a run needs.
pub struct Ctx {
    pub fmperf: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    pub threads: usize,
    pub bases: Vec<Base>,
}

/// The server's own attribution of one response, in µs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    pub queue_wait: f64,
    pub parse: f64,
    pub compile: f64,
    pub eval: f64,
    pub total: f64,
}

impl Timings {
    fn from_json(j: &Json) -> Option<Timings> {
        let t = j.get("timings")?;
        let us = |k: &str| t.get(k).and_then(Json::num).map(|ns| ns / 1e3);
        Some(Timings {
            queue_wait: us("queue_wait_ns")?,
            parse: us("parse_ns")?,
            compile: us("compile_ns")?,
            eval: us("eval_ns")?,
            total: us("total_ns")?,
        })
    }
}

/// One timed operation.
#[derive(Debug, Clone)]
pub struct OpRecord {
    pub body: usize,
    pub latency_ms: f64,
    pub traced: bool,
    pub server: Option<Timings>,
    pub failure: Option<String>,
}

/// What the timed window measured.
#[derive(Default)]
pub struct Window {
    pub ops: Vec<OpRecord>,
    pub elapsed: Duration,
    pub cpu: Duration,
    pub peak_rss_kib: u64,
    pub setup_s: Vec<f64>,
    /// `/metrics` cache-counter deltas across the window.
    pub cache: Option<CacheCounts>,
    /// Problems outside the counted operations (set-up answers, drain
    /// accounting, self-test): any of them makes the run incorrect.
    pub problems: Vec<String>,
    /// Compile time (µs) of every daemon answer in the run that
    /// compiled, set-up and verification requests included.
    pub compiles_us: Vec<f64>,
    /// The distinct bodies of one round, for the traced layer probe.
    pub bodies: Vec<Body>,
    /// Client-side spans of the traced rounds.
    pub spans: Option<Spans>,
}

impl Window {
    /// Latencies (ms) of the operations, traced or untraced.
    pub fn latencies(&self, traced: bool) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|o| o.traced == traced)
            .map(|o| o.latency_ms)
            .collect()
    }

    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| o.failure.is_some()).count() as u64
    }
}

/// Analyze-answer checks that depend only on the body.
fn check_body(body: &Body, a: &Answer) -> Result<(), String> {
    checks::check_total(a)?;
    if let Some(column) = body.column {
        checks::check_column(column, a)?;
    }
    if body.app_only {
        checks::check_closed_form(&body.fails(), a)?;
    }
    Ok(())
}

/// A parsed 200 response that is not degraded.
fn exact_json(status: u16, text: &str) -> Result<Json, String> {
    if status != 200 {
        return Err(format!(
            "status {status}: {}",
            text.chars().take(200).collect::<String>()
        ));
    }
    let j = Json::parse(text)?;
    if let Some(why) = checks::degraded(&j) {
        return Err(format!("degraded answer: {why}"));
    }
    Ok(j)
}

/// Remembers answers that passed, for the checker self-test.
fn keep_samples(samples: &mut SelfTestSamples, body: &Body, a: &Answer) {
    if let (Some(c), None) = (body.column, &samples.column) {
        samples.column = Some((c, a.clone()));
    }
    if body.app_only && samples.closed_form.is_none() {
        samples.closed_form = Some((body.fails(), a.clone()));
    }
}

/// Checks every triple of a round and marks the operations of a
/// non-collinear one failed. `answers[k]` is the answer of `ops[k]`.
fn check_triples(
    triples: &[(Triple, [usize; 3])],
    answers: &BTreeMap<usize, Answer>,
    ops: &mut [OpRecord],
    samples: &mut SelfTestSamples,
) {
    for (t, idx) in triples {
        let [Some(a0), Some(a1), Some(a2)] = idx.map(|i| answers.get(&i)) else {
            continue;
        };
        match checks::check_collinear(&t.values, [a0, a1, a2]) {
            Ok(()) => {
                if samples.triple.is_none() {
                    samples.triple = Some((t.values, [a0.clone(), a1.clone(), a2.clone()]));
                }
            }
            Err(e) => {
                for &i in idx {
                    ops[i]
                        .failure
                        .get_or_insert_with(|| format!("triple {}: {e}", t.component));
                }
            }
        }
    }
}

/// The operations of one round.
struct Round {
    bodies: Vec<Body>,
    /// Edit triples with the indices of their three bodies.
    triples: Vec<(Triple, [usize; 3])>,
    /// Daemon requests (an analyze of every body unless a workload adds
    /// others).
    reqs: Vec<Req>,
}

impl Round {
    /// The given unedited bases plus one edit triple of each base in
    /// `triples` (several of a base listed several times).
    fn new(bases: &[Base], plain: &[&str], triples: &[&str], rng: &mut Rng, ix: usize) -> Round {
        let mut bodies: Vec<Body> = plain
            .iter()
            .map(|n| unedited(bases, base_index(bases, n)))
            .collect();
        let mut out = Vec::new();
        for (k, n) in triples.iter().enumerate() {
            let t = edit_triple(bases, base_index(bases, n), rng, &format!("r{ix}t{k}"));
            let first = bodies.len();
            bodies.extend(t.bodies.iter().cloned());
            out.push((t, [first, first + 1, first + 2]));
        }
        let reqs = (0..bodies.len()).map(Req::Analyze).collect();
        Round {
            bodies,
            triples: out,
            reqs,
        }
    }
}

// ---------------------------------------------------------------- cli

/// `cli-analyze` and `serve-hit` inputs: every paper model and the
/// app-only system unedited, and edit triples of the app-only system and
/// both planes.
const CLI_PLAIN: [&str; 6] = [
    "centralized",
    "distributed-as-drawn",
    "distributed",
    "hierarchical",
    "network",
    "app-only",
];
const HIT_TRIPLES: [&str; 3] = ["app-only", "synth-deep-16", "synth-deep-22"];
/// `cli-analyze` adds twelve triples of the lighter bases, so the
/// 22-fallible scans are 3 of 45 processes and `latency_p90_ms` falls
/// inside the hierarchical block below them. This host runs that scan at
/// two speeds, about 75 and 112 ms, in a mix that shifts from run to run,
/// so any quantile inside the scan block jumps between them: in the block
/// p90 spread 0.22–0.27 across ten runs where throughput spread 0.11.
/// The scans still drive `throughput_ops` and `cpu_ms_per_op`.
const CLI_TRIPLES: [&str; 13] = [
    "app-only",
    "centralized",
    "distributed",
    "distributed-as-drawn",
    "hierarchical",
    "network",
    "synth-deep-16",
    "app-only",
    "centralized",
    "hierarchical",
    "network",
    "synth-deep-16",
    "synth-deep-22",
];

fn cli_args(ctx: &Ctx, path: &std::path::Path, body: &Body) -> Vec<String> {
    let mut args = vec![
        "analyze".to_string(),
        path.display().to_string(),
        "--json".into(),
        "--threads".into(),
        ctx.threads.to_string(),
    ];
    if body.unmonitored_known {
        args.push("--unmonitored-known".into());
    }
    args
}

/// Runs one `fmperf analyze` process: (wall ms, answer or failure).
pub fn cli_once(ctx: &Ctx, path: &std::path::Path, body: &Body) -> (f64, Result<Answer, String>) {
    let start = Instant::now();
    let out = Command::new(&ctx.fmperf)
        .args(cli_args(ctx, path, body))
        .output();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let answer = match out {
        Err(e) => Err(format!("cannot spawn fmperf: {e}")),
        Ok(o) if !o.status.success() => Err(format!(
            "exit {}: {}",
            o.status,
            String::from_utf8_lossy(&o.stderr).trim()
        )),
        Ok(o) => exact_json(200, &String::from_utf8_lossy(&o.stdout))
            .and_then(|j| Answer::from_json(&j))
            .and_then(|a| check_body(body, &a).map(|()| a)),
    };
    (ms, answer)
}

/// Writes `bodies` as files for the CLI.
pub fn write_bodies(ctx: &Ctx, bodies: &[Body], tag: &str) -> Result<Vec<PathBuf>, String> {
    bodies
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let p = ctx.work.join(format!("{tag}-{i}.fmp"));
            std::fs::write(&p, &b.text)
                .map_err(|e| format!("cannot write {}: {e}", p.display()))?;
            Ok(p)
        })
        .collect()
}

pub fn cli_analyze(ctx: &Ctx) -> Result<Window, String> {
    let mut rng = Rng::new(ctx.seed, 1);
    let Round {
        bodies, triples, ..
    } = Round::new(&ctx.bases, &CLI_PLAIN, &CLI_TRIPLES, &mut rng, 0);
    let paths = write_bodies(ctx, &bodies, "cli")?;
    let mut w = Window::default();
    let mut samples = SelfTestSamples::default();
    for _ in 0..SETUPS {
        let start = Instant::now();
        for (b, p) in bodies.iter().zip(&paths) {
            if let (_, Err(e)) = cli_once(ctx, p, b) {
                w.problems.push(format!("set-up {}: {e}", b.name));
            }
        }
        w.setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut spans = ctx.trace.then(Spans::new);
    let before = proc::children()?;
    let start = Instant::now();
    let mut round = 0;
    while start.elapsed() < ctx.window {
        let traced = ctx.trace && round % 2 == 1;
        let first = w.ops.len();
        let mut answers = BTreeMap::new();
        for (i, (b, p)) in bodies.iter().zip(&paths).enumerate() {
            let (ms, answer) = match spans.as_mut().filter(|_| traced) {
                Some(s) => s.time("cli.process", None, i, || cli_once(ctx, p, b)),
                None => cli_once(ctx, p, b),
            };
            let failure = match answer {
                Ok(a) => {
                    keep_samples(&mut samples, b, &a);
                    answers.insert(i, a);
                    None
                }
                Err(e) => Some(format!("{}: {e}", b.name)),
            };
            w.ops.push(OpRecord {
                body: i,
                latency_ms: ms,
                traced,
                server: None,
                failure,
            });
        }
        check_triples(&triples, &answers, &mut w.ops[first..], &mut samples);
        round += 1;
    }
    w.elapsed = start.elapsed();
    let after = proc::children()?;
    w.cpu = after.cpu.saturating_sub(before.cpu);
    w.peak_rss_kib = after.max_rss_kib;
    w.spans = spans;
    if let Err(e) = checks::self_test(&samples) {
        w.problems.push(e);
    }
    w.bodies = bodies;
    Ok(w)
}

// -------------------------------------------------------------- serve

/// One daemon request of a workload.
#[derive(Debug, Clone)]
enum Req {
    Analyze(usize),
    /// Sweep of `component` from its nominal availability up to 1.
    Sweep {
        body: usize,
        component: String,
        nominal: f64,
    },
    Campaign(usize),
}

const SWEEP_STEPS: usize = 5;

impl Req {
    fn body(&self) -> usize {
        match *self {
            Req::Analyze(b) | Req::Campaign(b) | Req::Sweep { body: b, .. } => b,
        }
    }

    fn target(&self, bodies: &[Body]) -> String {
        let b = &bodies[self.body()];
        let umk = if b.unmonitored_known {
            "unmonitored_known=true"
        } else {
            ""
        };
        let join = |path: &str, q: String| {
            let q: Vec<&str> = [q.as_str(), umk]
                .into_iter()
                .filter(|s| !s.is_empty())
                .collect();
            if q.is_empty() {
                path.to_string()
            } else {
                format!("{path}?{}", q.join("&"))
            }
        };
        match self {
            Req::Analyze(_) => join("/v1/analyze", String::new()),
            Req::Campaign(_) => join("/v1/campaign", String::new()),
            Req::Sweep {
                component, nominal, ..
            } => join(
                "/v1/sweep",
                format!("component={component}&from={nominal}&to=1&steps={SWEEP_STEPS}"),
            ),
        }
    }
}

/// Sends `req`, returning the record and, on success, the parsed body.
fn serve_op(
    daemon: &mut Daemon,
    bodies: &[Body],
    req: &Req,
    traced: Option<&mut Spans>,
) -> (OpRecord, Option<Json>) {
    let trace = traced.map(|s| (s, req.body()));
    let is_traced = trace.is_some();

    let reply = daemon.request_traced("POST", &req.target(bodies), &bodies[req.body()].text, trace);
    let mut rec = OpRecord {
        body: req.body(),
        latency_ms: 0.0,
        traced: is_traced,
        server: None,
        failure: None,
    };
    match reply {
        Err(e) => {
            rec.failure = Some(e);
            (rec, None)
        }
        Ok(r) => {
            rec.latency_ms = r.latency.as_secs_f64() * 1e3;
            match exact_json(r.status, &r.body) {
                Ok(j) => {
                    rec.server = Timings::from_json(&j);
                    if let Some(t) = rec.server.filter(|t| t.compile > 0.0) {
                        daemon.compiles_us.push(t.compile);
                    }
                    (rec, Some(j))
                }
                Err(e) => {
                    rec.failure = Some(format!("{}: {e}", bodies[req.body()].name));
                    (rec, None)
                }
            }
        }
    }
}

/// `/v1/analyze` of body `i`, with every check that depends only on
/// the body.
fn checked_analyze(daemon: &mut Daemon, bodies: &[Body], i: usize) -> Result<Answer, String> {
    let (rec, j) = serve_op(daemon, bodies, &Req::Analyze(i), None);
    let a = Answer::from_json(&j.ok_or_else(|| rec.failure.unwrap_or_default())?)?;
    check_body(&bodies[i], &a)?;
    Ok(a)
}

/// The artifact-cache counters of `/metrics`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounts {
    pub hits: f64,
    pub misses: f64,
    pub evictions: f64,
}

impl CacheCounts {
    fn since(self, before: CacheCounts) -> CacheCounts {
        CacheCounts {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
        }
    }
}

fn cache_counters(daemon: &mut Daemon) -> Result<CacheCounts, String> {
    let m = daemon.metrics()?;
    let get = |k: &str| {
        m.iter()
            .find(|(n, _)| n == k)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    Ok(CacheCounts {
        hits: get("fmperf_cache_hits_total"),
        misses: get("fmperf_cache_misses_total"),
        evictions: get("fmperf_cache_evictions_total"),
    })
}

/// Drains `daemon`, keeping its compile times.
fn finish(mut daemon: Daemon, w: &mut Window) -> Result<(), String> {
    w.compiles_us.append(&mut daemon.compiles_us);
    daemon.quit()
}

/// Spawns the daemon and runs `warm` on it `SETUPS` times, timing each;
/// keeps the last daemon. Earlier ones are drained and their drain
/// reports checked.
fn serve_setup(
    ctx: &Ctx,
    w: &mut Window,
    mut warm: impl FnMut(&mut Daemon, &mut Vec<String>) -> Result<(), String>,
) -> Result<Daemon, String> {
    let mut kept = None;
    for k in 0..SETUPS {
        let start = Instant::now();
        let mut d = Daemon::spawn(&ctx.fmperf, DAEMON_WORKERS, CACHE_MB)?;
        warm(&mut d, &mut w.problems)?;
        w.setup_s.push(start.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            finish(d, w)?;
        } else {
            kept = Some(d);
        }
    }
    kept.ok_or_else(|| "no set-up ran".to_string())
}

/// The timed closed loop over rounds of `round(ix)`'s requests, with
/// seeded exponential think gaps. `check(round, ops, answers)` runs
/// after each round, outside the timings.
fn serve_window(
    ctx: &Ctx,
    daemon: &mut Daemon,
    w: &mut Window,
    mut round: impl FnMut(usize) -> Rc<Round>,
    mut check: impl FnMut(&Round, &mut [OpRecord], &[Option<Json>]),
) -> Result<(), String> {
    let mut gaps = Rng::new(ctx.seed, 2);
    let mut spans = ctx.trace.then(Spans::new);
    let before = cache_counters(daemon)?;
    let cpu0 = proc::cpu_of(daemon.pid)?;
    let start = Instant::now();
    let mut ix = 0;
    while start.elapsed() < ctx.window {
        let r = round(ix);
        let traced = ctx.trace && ix % 2 == 1;
        let first = w.ops.len();
        let mut jsons = Vec::with_capacity(r.reqs.len());
        for req in &r.reqs {
            std::thread::sleep(gaps.exp_gap(THINK_MEAN));
            let s = spans.as_mut().filter(|_| traced);
            let (rec, j) = serve_op(daemon, &r.bodies, req, s);
            w.ops.push(rec);
            jsons.push(j);
        }
        check(&r, &mut w.ops[first..], &jsons);
        ix += 1;
    }
    w.elapsed = start.elapsed();
    w.cpu = proc::cpu_of(daemon.pid)?.saturating_sub(cpu0);
    w.peak_rss_kib = proc::hwm_kib(daemon.pid)?;
    let after = cache_counters(daemon)?;
    w.cache = Some(after.since(before));
    w.spans = spans;
    Ok(())
}

/// Mark a record failed unless it already is.
fn fail(rec: &mut OpRecord, why: String) {
    rec.failure.get_or_insert(why);
}

/// `serve-hit` inputs: the CLI set, all warmed into the cache, plus
/// sweeps over three of them.
const HIT_SWEEPS: [&str; 3] = ["centralized", "hierarchical", "app-only"];

pub fn serve_hit(ctx: &Ctx) -> Result<Window, String> {
    let mut rng = Rng::new(ctx.seed, 1);
    let mut round = Round::new(&ctx.bases, &CLI_PLAIN, &HIT_TRIPLES, &mut rng, 0);
    for name in HIT_SWEEPS {
        let body = round
            .bodies
            .iter()
            .position(|b| b.name == name)
            .expect("sweep body");
        let fallible = ctx.bases[round.bodies[body].base].fallible();
        let (component, fail) = fallible[rng.below(fallible.len())].clone();
        round.reqs.push(Req::Sweep {
            body,
            component,
            nominal: 1.0 - fail,
        });
    }
    let round = Rc::new(round);
    let mut w = Window::default();
    let mut samples = SelfTestSamples::default();
    let mut reference: BTreeMap<usize, Answer> = BTreeMap::new();
    let mut daemon = serve_setup(ctx, &mut w, |d, problems| {
        // Cold compiles of the working set, checked in full.
        let mut answers = BTreeMap::new();
        for (i, b) in round.bodies.iter().enumerate() {
            match checked_analyze(d, &round.bodies, i) {
                Ok(a) => {
                    keep_samples(&mut samples, b, &a);
                    answers.insert(i, a);
                }
                Err(e) => problems.push(format!("set-up {}: {e}", b.name)),
            }
        }
        let mut recs: Vec<OpRecord> = (0..round.bodies.len())
            .map(|i| OpRecord {
                body: i,
                latency_ms: 0.0,
                traced: false,
                server: None,
                failure: None,
            })
            .collect();
        check_triples(&round.triples, &answers, &mut recs, &mut samples);
        problems.extend(recs.into_iter().filter_map(|r| r.failure));
        reference = answers;
        Ok(())
    })?;
    let check = |r: &Round, ops: &mut [OpRecord], js: &[Option<Json>]| {
        let bs = &r.bodies;
        for ((req, rec), j) in r.reqs.iter().zip(ops.iter_mut()).zip(js) {
            let Some(j) = j else { continue };
            let Some(want) = reference.get(&req.body()) else {
                fail(rec, format!("{}: no reference answer", bs[req.body()].name));
                continue;
            };
            let verdict = match req {
                Req::Analyze(_) => Answer::from_json(j).and_then(|a| {
                    checks::check_total(&a)?;
                    same_answer(&a, want)
                }),
                Req::Sweep { nominal, .. } => {
                    sweep_points(j).and_then(|pts| checks::check_sweep(&pts, *nominal, want.failed))
                }
                Req::Campaign(_) => Err("unexpected campaign".into()),
            };
            if let Err(e) = verdict {
                fail(rec, format!("{}: {e}", bs[req.body()].name));
            }
        }
    };
    serve_window(ctx, &mut daemon, &mut w, |_| Rc::clone(&round), check)?;
    finish(daemon, &mut w)?;
    if let Err(e) = checks::self_test(&samples) {
        w.problems.push(e);
    }
    w.bodies = round.bodies.clone();
    Ok(w)
}

/// A hit answer equals the cold answer of the same body.
fn same_answer(a: &Answer, want: &Answer) -> Result<(), String> {
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-12;
    let same = close(a.failed, want.failed)
        && a.configs.len() == want.configs.len()
        && a.configs
            .iter()
            .zip(&want.configs)
            .all(|(x, y)| x.0 == y.0 && close(x.1, y.1))
        && match (a.reward, want.reward) {
            (Some(x), Some(y)) => close(x, y),
            (None, None) => true,
            _ => false,
        };
    if same {
        Ok(())
    } else {
        Err(format!(
            "answer differs from the cold answer (failed {} vs {})",
            a.failed, want.failed
        ))
    }
}

fn sweep_points(j: &Json) -> Result<Vec<(f64, f64)>, String> {
    j.get("points")
        .and_then(Json::arr)
        .ok_or("missing points")?
        .iter()
        .map(|p| Ok((p.num_at("availability")?, p.num_at("failed")?)))
        .collect()
}

/// `serve-whatif` inputs: per round a fresh edit triple of every base,
/// two of the 22-fallible plane.
const WHATIF_TRIPLES: [&str; 9] = [
    "centralized",
    "distributed-as-drawn",
    "distributed",
    "hierarchical",
    "network",
    "app-only",
    "synth-deep-16",
    "synth-deep-22",
    "synth-deep-22",
];

pub fn serve_whatif(ctx: &Ctx) -> Result<Window, String> {
    let mut w = Window::default();
    let mut samples = SelfTestSamples::default();
    let plain: Vec<Body> = (0..ctx.bases.len())
        .map(|i| unedited(&ctx.bases, i))
        .collect();
    let mut daemon = serve_setup(ctx, &mut w, |d, problems| {
        for (i, b) in plain.iter().enumerate() {
            match checked_analyze(d, &plain, i) {
                Ok(a) => keep_samples(&mut samples, b, &a),
                Err(e) => problems.push(format!("set-up {}: {e}", b.name)),
            }
        }
        Ok(())
    })?;
    let mut rng = Rng::new(ctx.seed, 1);
    let mut first_bodies = Vec::new();
    let round = |ix: usize| {
        let r = Round::new(&ctx.bases, &[], &WHATIF_TRIPLES, &mut rng, ix);
        if ix == 0 {
            first_bodies = r.bodies.clone();
        }
        Rc::new(r)
    };
    let check = |r: &Round, ops: &mut [OpRecord], js: &[Option<Json>]| {
        let mut answers = BTreeMap::new();
        for ((req, rec), j) in r.reqs.iter().zip(ops.iter_mut()).zip(js) {
            let Some(j) = j else { continue };
            let b = &r.bodies[req.body()];
            match Answer::from_json(j).and_then(|a| check_body(b, &a).map(|()| a)) {
                Ok(a) => {
                    answers.insert(req.body(), a);
                }
                Err(e) => fail(rec, format!("{}: {e}", b.name)),
            }
        }
        check_triples(&r.triples, &answers, ops, &mut samples);
    };
    serve_window(ctx, &mut daemon, &mut w, round, check)?;
    finish(daemon, &mut w)?;
    if let Err(e) = checks::self_test(&samples) {
        w.problems.push(e);
    }
    w.bodies = first_bodies;
    Ok(w)
}

/// `serve-campaign` inputs: one seeded edit of each management
/// architecture and of the 16-fallible plane.
const CAMPAIGN_BASES: [&str; 5] = [
    "centralized",
    "distributed",
    "hierarchical",
    "network",
    "synth-deep-16",
];

/// Scenario `(label, failed)` pairs of a campaign response.
fn scenario_values(j: &Json) -> Vec<(String, f64)> {
    j.get("scenarios")
        .and_then(Json::arr)
        .unwrap_or(&[])
        .iter()
        .map(|s| {
            let label = s.get("label").and_then(Json::str).unwrap_or("").to_string();
            (
                label,
                s.get("failed").and_then(Json::num).unwrap_or(f64::NAN),
            )
        })
        .collect()
}

fn baseline_failed(j: &Json) -> f64 {
    j.get("baseline")
        .and_then(|b| b.get("failed"))
        .and_then(Json::num)
        .unwrap_or(f64::NAN)
}

pub fn serve_campaign(ctx: &Ctx) -> Result<Window, String> {
    let mut rng = Rng::new(ctx.seed, 1);
    let bodies: Vec<Body> = CAMPAIGN_BASES
        .iter()
        .map(|n| {
            let mut t = edit_triple(&ctx.bases, base_index(&ctx.bases, n), &mut rng, "c");
            t.bodies[0].name = format!("{n}/edit");
            t.bodies[0].clone()
        })
        .collect();
    let round = Rc::new(Round {
        reqs: (0..bodies.len()).map(Req::Campaign).collect(),
        bodies,
        triples: Vec::new(),
    });
    let mut w = Window::default();
    let mut reference: Vec<Option<Json>> = Vec::new();
    let mut daemon = serve_setup(ctx, &mut w, |d, problems| {
        reference.clear();
        for req in &round.reqs {
            let (rec, j) = serve_op(d, &round.bodies, req, None);
            if let Some(e) = rec.failure {
                problems.push(format!("set-up: {e}"));
            }
            reference.push(j);
        }
        Ok(())
    })?;
    let check = |r: &Round, ops: &mut [OpRecord], js: &[Option<Json>]| {
        for ((req, rec), j) in r.reqs.iter().zip(ops.iter_mut()).zip(js) {
            let (Some(j), Some(Some(want))) = (j, reference.get(req.body())) else {
                continue;
            };
            let same = baseline_failed(j) == baseline_failed(want)
                && scenario_values(j) == scenario_values(want);
            if !same {
                fail(
                    rec,
                    format!(
                        "{}: campaign differs from the first answer",
                        r.bodies[req.body()].name
                    ),
                );
            }
        }
    };
    serve_window(ctx, &mut daemon, &mut w, |_| Rc::clone(&round), check)?;

    // Verification outside the window: the baseline against analyze of
    // the body, and every pinning scenario against analyze of the body
    // with that component's `fail` set to 1.
    let mut samples = SelfTestSamples::default();
    for (i, b) in round.bodies.iter().enumerate() {
        let verdict = verify_campaign(&mut daemon, b, reference[i].as_ref(), &mut samples);
        if let Err(e) = verdict {
            w.problems.push(format!("{}: {e}", b.name));
            for rec in w.ops.iter_mut().filter(|r| r.body == i) {
                fail(rec, format!("{}: {e}", b.name));
            }
        }
    }
    finish(daemon, &mut w)?;
    if let Err(e) = checks::self_test(&samples) {
        w.problems.push(e);
    }
    w.bodies = round.bodies.clone();
    Ok(w)
}

/// The checked `failed` of `/v1/analyze` on one body.
fn analyze_failed(daemon: &mut Daemon, body: &Body) -> Result<f64, String> {
    Ok(checked_analyze(daemon, std::slice::from_ref(body), 0)?.failed)
}

fn verify_campaign(
    daemon: &mut Daemon,
    body: &Body,
    resp: Option<&Json>,
    samples: &mut SelfTestSamples,
) -> Result<(), String> {
    let resp = resp.ok_or("no campaign answer")?;
    let baseline = analyze_failed(daemon, body)?;
    let mut pinned = BTreeMap::new();
    for label in checks::scenario_labels(resp) {
        let Some(comp) = checks::pinned_component(&label) else {
            continue;
        };
        let text = crate::inputs::with_fails(&body.text, &[(comp.to_string(), 1.0)]);
        let pinned_body = Body {
            text,
            ..body.clone()
        };
        pinned.insert(comp.to_string(), analyze_failed(daemon, &pinned_body)?);
    }
    checks::check_campaign(resp, baseline, &pinned)?;
    if samples.campaign.is_none() {
        samples.campaign = Some((resp.clone(), baseline, pinned));
    }
    Ok(())
}

/// Median wall time (ms) of three `fmperf analyze` processes per body.
pub fn cli_walls(ctx: &Ctx, bodies: &[Body]) -> Result<Vec<f64>, String> {
    let paths = write_bodies(ctx, bodies, "probe")?;
    bodies
        .iter()
        .zip(&paths)
        .map(|(b, p)| {
            let walls = (0..3)
                .map(|_| match cli_once(ctx, p, b) {
                    (ms, Ok(_)) => Ok(ms),
                    (_, Err(e)) => Err(format!("{}: {e}", b.name)),
                })
                .collect::<Result<Vec<f64>, String>>()?;
            Ok(median(&walls))
        })
        .collect()
}

/// Posts every body to a fresh daemon once cold and twice warm: the
/// daemon-side figures of a workload whose own path has no daemon.
pub fn daemon_probe(ctx: &Ctx, bodies: &[Body]) -> Result<Window, String> {
    let mut d = Daemon::spawn(&ctx.fmperf, DAEMON_WORKERS, CACHE_MB)?;
    let before = cache_counters(&mut d)?;
    let mut w = Window::default();
    for i in 0..bodies.len() {
        for _ in 0..3 {
            let (rec, _) = serve_op(&mut d, bodies, &Req::Analyze(i), None);
            if let Some(e) = &rec.failure {
                return Err(format!("probe daemon: {e}"));
            }
            w.ops.push(rec);
        }
    }
    w.cache = Some(cache_counters(&mut d)?.since(before));
    finish(d, &mut w)?;
    Ok(w)
}
