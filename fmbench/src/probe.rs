//! The traced run's in-process probe: timed calls into each layer's
//! public functions on the workload's own generated bodies, each inside
//! one of the benchmark's spans.

use crate::inputs::Body;
use crate::stats::{median, Spans};
use fmperf_core::{
    run_campaign, solve_configurations, Analysis, AnalysisBudget, CampaignOptions, GuardedOptions,
    RewardSpec,
};
use fmperf_ftlqn::{FaultGraph, KnowPolicy};
use fmperf_mama::{ComponentSpace, KnowTable};
use fmperf_serve::{analyze_model, model_content_hash, AnalyzeParams, ModelSession};
use fmperf_text::{parse_lenient, ParseLimits};
use std::hint::black_box;
use std::time::Duration;

/// Timed calls per body; each layer reports the median.
const REPEATS: usize = 3;

/// Bodies with more fallible components than this get no campaign (one
/// campaign of the 22-fallible plane takes seconds).
const CAMPAIGN_MAX_FALLIBLE: usize = 18;

/// The spans a CLI `analyze` spends inside library layers.
pub const CLI_LAYERS: [&str; 7] = [
    "text.parse",
    "lint.preflight",
    "serve.hash",
    "ftlqn.fault_graph",
    "mama.know_table",
    "core.scan",
    "lqn.solve",
];

/// Work counts of one probe: they repeat exactly for the same bodies.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub states: u64,
    pub mtbdd_nodes: u64,
    pub configs_solved: u64,
    pub campaign_scenarios: u64,
}

fn budget() -> AnalysisBudget {
    AnalysisBudget {
        deadline: Some(Duration::from_secs(60)),
        ..AnalysisBudget::default()
    }
}

/// Probes every body `REPEATS` times; spans land in `spans`.
pub fn run(bodies: &[Body], threads: usize, spans: &mut Spans) -> Result<Counts, String> {
    let mut counts = Counts::default();
    for (i, body) in bodies.iter().enumerate() {
        for rep in 0..REPEATS {
            let c = probe_body(i, body, threads, spans, rep == 0)?;
            if rep == 0 {
                counts.states += c.states;
                counts.mtbdd_nodes += c.mtbdd_nodes;
                counts.configs_solved += c.configs_solved;
                counts.campaign_scenarios += c.campaign_scenarios;
            }
        }
    }
    Ok(counts)
}

fn probe_body(
    i: usize,
    body: &Body,
    threads: usize,
    spans: &mut Spans,
    with_campaign: bool,
) -> Result<Counts, String> {
    let mut counts = Counts::default();
    let text = body.text.as_str();
    let lenient = spans
        .time("text.parse", None, i, || parse_lenient(black_box(text)))
        .map_err(|e| format!("{}: {e}", body.name))?;
    black_box(spans.time("lint.preflight", None, i, || fmperf_lint::lint(&lenient)));
    let m = lenient.model;
    black_box(spans.time("serve.hash", None, i, || {
        model_content_hash(&m.app, &m.mama, &m.rewards)
    }));
    let limits = ParseLimits {
        max_bytes: 1 << 20,
        ..ParseLimits::default()
    };
    spans
        .time("serve.session", None, i, || {
            ModelSession::open_untrusted(black_box(text), &limits, None)
        })
        .map_err(|e| format!("{}: {e}", body.name))?;

    let graph = spans
        .time("ftlqn.fault_graph", None, i, || FaultGraph::build(&m.app))
        .map_err(|e| format!("{}: {e}", body.name))?;
    let managed = m.mama.component_count() > 0;
    let space = if managed {
        ComponentSpace::build(&m.app, &m.mama)
    } else {
        ComponentSpace::app_only(&m.app)
    };
    let table;
    let mut analysis = Analysis::new(&graph, &space)
        .with_unmonitored_known(body.unmonitored_known)
        .with_threads(threads);
    if managed {
        table = spans.time("mama.know_table", None, i, || {
            KnowTable::build(&graph, &m.mama, &space)
        });
        analysis = analysis.with_knowledge(&table);
    }
    let dist = spans.time("core.scan", None, i, || analysis.enumerate());
    counts.states = dist.states_explored();
    let compiled = spans.time("core.compile", None, i, || analysis.compile_mtbdd());
    counts.mtbdd_nodes = compiled.node_count() as u64;
    black_box(spans.time("core.eval", None, i, || compiled.distribution()));
    let configs = dist.configurations();
    let perfs = spans
        .time("lqn.solve", None, i, || {
            solve_configurations(&m.app, &configs)
        })
        .map_err(|e| format!("{}: {e}", body.name))?;
    counts.configs_solved = perfs.len() as u64;

    // The daemon's request defaults: one analysis thread per request.
    let params = AnalyzeParams {
        budget: budget(),
        unmonitored_known: body.unmonitored_known,
        ..AnalyzeParams::default()
    };
    let cold = spans
        .time("serve.work_miss", None, i, || {
            analyze_model(&m, &params, None, None)
        })
        .map_err(|e| format!("{}: {e}", body.name))?;
    let artifact = cold
        .compiled
        .ok_or_else(|| format!("{}: compile refused", body.name))?;
    black_box(spans.time("serve.work_hit", None, i, || {
        analyze_model(&m, &params, Some(artifact), None)
    }))
    .map_err(|e| format!("{}: {e}", body.name))?;

    let fallible = space.fallible_indices().len();
    if with_campaign && managed && fallible <= CAMPAIGN_MAX_FALLIBLE {
        let mut reward = RewardSpec::new();
        for &(t, w) in &m.rewards {
            reward = reward.weight(t, w);
        }
        let opts = CampaignOptions {
            guarded: GuardedOptions {
                budget: budget(),
                threads: 1,
                ..GuardedOptions::default()
            },
            pairwise: false,
            policy: KnowPolicy::AnyFailedComponent,
            unmonitored_known: body.unmonitored_known,
        };
        let report = spans.time("core.campaign", None, i, || {
            run_campaign(&graph, &m.mama, Some(&reward), &opts)
        });
        counts.campaign_scenarios = report.scenarios.len() as u64;
    }
    Ok(counts)
}

/// Sum over `bodies` of each body's median span duration (µs).
pub fn per_round_us(spans: &Spans, name: &str, bodies: std::ops::Range<usize>) -> f64 {
    bodies
        .map(|b| {
            let d = spans.durations_us(name, b);
            if d.is_empty() {
                0.0
            } else {
                median(&d)
            }
        })
        .sum()
}
