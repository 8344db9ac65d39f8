//! Output checks computed apart from the program: the paper's Table 2,
//! the closed form of the app-only Fig. 1 system, and properties every
//! exact answer has (totals, multilinearity, campaign/analyze agreement).

use crate::inputs::Column;
use crate::json::Json;
use std::collections::BTreeMap;

/// Probability totals may differ from 1 by float rounding only.
const TOTAL_TOL: f64 = 1e-9;
/// Closed-form and cross-endpoint agreement tolerance.
const EXACT_TOL: f64 = 1e-9;
/// Collinearity tolerance on slopes, relative to max(1, |slope|).
const SLOPE_TOL: f64 = 1e-7;
/// Table 2 prints three decimals; the paper's own rows round.
const TABLE2_TOL: f64 = 0.0015;

/// Table 2 of the paper (C1..C6, failed) per architecture column.
fn table2(column: Column) -> [f64; 7] {
    match column {
        Column::Perfect => [0.125, 0.024, 0.125, 0.024, 0.531, 0.100, 0.071],
        Column::Centralized => [0.117, 0.021, 0.117, 0.021, 0.314, 0.057, 0.353],
        Column::Distributed => [0.082, 0.041, 0.307, 0.036, 0.349, 0.046, 0.139],
        Column::Hierarchical => [0.225, 0.014, 0.076, 0.014, 0.206, 0.037, 0.428],
        Column::Network => [0.148, 0.026, 0.148, 0.026, 0.282, 0.049, 0.321],
    }
}

const CLASS_NAMES: [&str; 7] = ["C1", "C2", "C3", "C4", "C5", "C6", "failed"];

/// The probability answer of an analyze response (CLI or daemon).
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub failed: f64,
    pub reward: Option<f64>,
    pub configs: Vec<(String, f64)>,
}

impl Answer {
    pub fn from_json(j: &Json) -> Result<Answer, String> {
        let configs = j
            .get("configurations")
            .and_then(Json::arr)
            .ok_or("missing `configurations`")?
            .iter()
            .map(|c| {
                let label = c
                    .get("label")
                    .and_then(Json::str)
                    .ok_or("config without label")?;
                Ok((label.to_string(), c.num_at("probability")?))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Answer {
            failed: j.num_at("failed")?,
            reward: j.get("reward").and_then(Json::num),
            configs,
        })
    }

    /// Every scalar output keyed by name (missing configurations are 0).
    fn outputs(&self) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> =
            self.configs.iter().map(|(l, p)| (l.clone(), *p)).collect();
        out.insert("failed".into(), self.failed);
        if let Some(r) = self.reward {
            out.insert("reward".into(), r);
        }
        out
    }
}

/// Why a response counts as degraded (a sampled or descended answer).
pub fn degraded(j: &Json) -> Option<String> {
    if j.get("estimate").is_some() {
        return Some("sampled estimate".into());
    }
    if j.get("descents")
        .and_then(Json::arr)
        .is_some_and(|d| !d.is_empty())
    {
        return Some("ladder descents".into());
    }
    let engine = j.get("engine").and_then(Json::str).unwrap_or("");
    (engine.contains("monte-carlo") || engine.contains("importance"))
        .then(|| format!("sampled engine {engine}"))
}

/// Configuration probabilities plus `failed` sum to 1.
pub fn check_total(a: &Answer) -> Result<(), String> {
    let total: f64 = a.failed + a.configs.iter().map(|(_, p)| p).sum::<f64>();
    if (total - 1.0).abs() > TOTAL_TOL || a.configs.iter().any(|(_, p)| !(0.0..=1.0).contains(p)) {
        return Err(format!("probabilities sum to {total}, not 1"));
    }
    Ok(())
}

/// The Fig. 1 classes C1..C6 and `failed`, by users served and backup
/// entries used.
fn classes(a: &Answer) -> Result<[f64; 7], String> {
    let mut out = [0.0; 7];
    out[6] = a.failed;
    for (label, p) in &a.configs {
        let entries: Vec<&str> = label
            .trim_matches(|c| c == '{' || c == '}')
            .split(", ")
            .collect();
        let has = |e: &str| entries.contains(&e);
        let backup = has("eA-2") || has("eB-2");
        let ix = match (has("userA"), has("userB")) {
            (true, false) => 0,
            (false, true) => 2,
            (true, true) => 4,
            (false, false) => return Err(format!("configuration {label} serves no user")),
        } + usize::from(backup);
        out[ix] += p;
    }
    Ok(out)
}

/// An unedited paper model reproduces its Table 2 column.
pub fn check_column(column: Column, a: &Answer) -> Result<(), String> {
    let got = classes(a)?;
    for ((name, g), want) in CLASS_NAMES.iter().zip(got).zip(table2(column)) {
        if (g - want).abs() > TABLE2_TOL {
            return Err(format!(
                "{column:?}: {name} = {g:.4}, Table 2 says {want:.3}"
            ));
        }
    }
    Ok(())
}

/// The app-only Fig. 1 system under perfect knowledge: with chain
/// up-probabilities a, b (the two application tasks with their
/// processors) and s1, s2 (the two servers), C5 = a·b·s1,
/// C6 = a·b·(1−s1)·s2, and so on.
pub fn check_closed_form(fails: &[(String, f64)], a: &Answer) -> Result<(), String> {
    let up = |name: &str| {
        fails
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, f)| 1.0 - f)
            .ok_or_else(|| format!("no component {name}"))
    };
    let ca = up("AppA")? * up("proc1")?;
    let cb = up("AppB")? * up("proc2")?;
    let s1 = up("Server1")? * up("proc3")?;
    let s2 = up("Server2")? * up("proc4")?;
    let backup = (1.0 - s1) * s2;
    let want = [
        ca * (1.0 - cb) * s1,
        ca * (1.0 - cb) * backup,
        (1.0 - ca) * cb * s1,
        (1.0 - ca) * cb * backup,
        ca * cb * s1,
        ca * cb * backup,
        1.0 - (ca + cb - ca * cb) * (s1 + backup),
    ];
    let got = classes(a)?;
    for ((name, g), w) in CLASS_NAMES.iter().zip(got).zip(want) {
        if (g - w).abs() > EXACT_TOL {
            return Err(format!("app-only closed form: {name} = {g}, expected {w}"));
        }
    }
    Ok(())
}

/// `ys` against `xs` lie on one line (within float rounding).
fn collinear(xs: &[f64], ys: &[f64]) -> Result<(), String> {
    let s0 = (ys[1] - ys[0]) / (xs[1] - xs[0]);
    for k in 2..xs.len() {
        let s = (ys[k] - ys[0]) / (xs[k] - xs[0]);
        if (s - s0).abs() > SLOPE_TOL * s0.abs().max(1.0) {
            return Err(format!("slopes {s0} and {s} differ"));
        }
    }
    Ok(())
}

/// P(state) is multilinear in the up-probabilities, so every output is
/// linear in one component's failure probability with the rest fixed.
pub fn check_collinear(values: &[f64; 3], answers: [&Answer; 3]) -> Result<(), String> {
    let outs: Vec<BTreeMap<String, f64>> = answers.iter().map(|a| a.outputs()).collect();
    let mut keys: Vec<&String> = outs.iter().flat_map(|o| o.keys()).collect();
    keys.sort();
    keys.dedup();
    for key in keys {
        let ys: Vec<f64> = outs
            .iter()
            .map(|o| o.get(key).copied().unwrap_or(0.0))
            .collect();
        collinear(values, &ys).map_err(|e| format!("`{key}` not linear in the edit: {e}"))?;
    }
    Ok(())
}

/// A sweep's `failed` is linear in the availability, and its first point
/// (the nominal availability) equals the analyze answer.
pub fn check_sweep(
    points: &[(f64, f64)],
    nominal_up: f64,
    analyze_failed: f64,
) -> Result<(), String> {
    let (a0, f0) = *points.first().ok_or("sweep without points")?;
    if (a0 - nominal_up).abs() > 1e-12 || (f0 - analyze_failed).abs() > EXACT_TOL {
        return Err(format!(
            "sweep at nominal availability {a0} gives failed {f0}, analyze gives {analyze_failed}"
        ));
    }
    let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
    collinear(&xs, &ys).map_err(|e| format!("sweep not linear: {e}"))
}

/// The component a scenario pins to failed, for the pinning injections.
pub fn pinned_component(label: &str) -> Option<&str> {
    ["kill-manager(", "kill-agent(", "fail-processor("]
        .iter()
        .find_map(|k| label.strip_prefix(k))
        .and_then(|rest| rest.strip_suffix(')'))
}

/// A campaign's baseline equals analyze of the body, and every pinning
/// scenario equals analyze of the body with that component's `fail`
/// set to 1 (`pinned`: component → analyze `failed`).
pub fn check_campaign(
    resp: &Json,
    baseline_failed: f64,
    pinned: &BTreeMap<String, f64>,
) -> Result<(), String> {
    let base = resp.get("baseline").ok_or("missing baseline")?;
    if let Some(why) = degraded(base) {
        return Err(format!("baseline degraded: {why}"));
    }
    let got = base.num_at("failed")?;
    if (got - baseline_failed).abs() > EXACT_TOL {
        return Err(format!(
            "baseline failed {got}, analyze gives {baseline_failed}"
        ));
    }
    let scenarios = resp
        .get("scenarios")
        .and_then(Json::arr)
        .ok_or("missing scenarios")?;
    if scenarios.is_empty() {
        return Err("campaign without scenarios".into());
    }
    for s in scenarios {
        let label = s
            .get("label")
            .and_then(Json::str)
            .ok_or("scenario without label")?;
        if s.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("scenario {label} failed"));
        }
        if let Some(why) = degraded(s) {
            return Err(format!("scenario {label} degraded: {why}"));
        }
        let failed = s.num_at("failed")?;
        if !(0.0..=1.0 + EXACT_TOL).contains(&failed) {
            return Err(format!("scenario {label}: failed {failed} out of range"));
        }
        if let Some(comp) = pinned_component(label) {
            let want = pinned
                .get(comp)
                .ok_or_else(|| format!("no pinned analysis for {comp}"))?;
            if (failed - want).abs() > EXACT_TOL {
                return Err(format!(
                    "scenario {label}: failed {failed}, pinned analyze {want}"
                ));
            }
        }
    }
    Ok(())
}

/// Scenario labels of a campaign response.
pub fn scenario_labels(resp: &Json) -> Vec<String> {
    resp.get("scenarios")
        .and_then(Json::arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|s| s.get("label").and_then(Json::str).map(str::to_string))
        .collect()
}

/// `a` with `delta` of probability moved from its largest configuration
/// into `failed` (the total stays 1).
pub fn shifted(a: &Answer, delta: f64) -> Answer {
    let mut out = a.clone();
    if let Some(top) = out.configs.iter_mut().max_by(|x, y| x.1.total_cmp(&y.1)) {
        top.1 -= delta;
    }
    out.failed += delta;
    out
}

/// `resp` with the first pinning scenario's `failed` moved by `delta`.
fn perturb_campaign(resp: &Json, delta: f64) -> Json {
    let mut out = resp.clone();
    if let Json::Obj(fields) = &mut out {
        for (k, v) in fields.iter_mut() {
            let Json::Arr(scenarios) = v else { continue };
            if k != "scenarios" {
                continue;
            }
            let pinned = scenarios.iter_mut().find(|s| {
                s.get("label")
                    .and_then(Json::str)
                    .is_some_and(|l| pinned_component(l).is_some())
            });
            if let Some(Json::Obj(sf)) = pinned {
                for (name, value) in sf.iter_mut() {
                    if let (true, Json::Num(x)) = (name == "failed", &mut *value) {
                        *x += delta;
                    }
                }
            }
        }
    }
    out
}

/// Feeds each check a perturbed copy of an answer that passed it and
/// expects a rejection.
pub fn self_test(samples: &SelfTestSamples) -> Result<(), String> {
    let reject = |what: &str, r: Result<(), String>| match r {
        Ok(()) => Err(format!("checker self-test: perturbed {what} was accepted")),
        Err(_) => Ok(()),
    };
    let mut tested = 0;
    if let Some((column, a)) = &samples.column {
        reject(
            "total",
            check_total(&Answer {
                failed: a.failed + 1e-6,
                ..a.clone()
            }),
        )?;
        reject("Table 2 column", check_column(*column, &shifted(a, 0.01)))?;
        tested += 1;
    }
    if let Some((fails, a)) = &samples.closed_form {
        reject("closed form", check_closed_form(fails, &shifted(a, 1e-6)))?;
        tested += 1;
    }
    if let Some((values, [a0, a1, a2])) = &samples.triple {
        reject(
            "triple",
            check_collinear(values, [a0, &shifted(a1, 1e-6), a2]),
        )?;
        tested += 1;
    }
    if let Some((resp, baseline, pinned)) = &samples.campaign {
        reject(
            "campaign",
            check_campaign(&perturb_campaign(resp, 1e-6), *baseline, pinned),
        )?;
        tested += 1;
    }
    if tested == 0 {
        return Err("checker self-test: no checked answer to perturb".into());
    }
    Ok(())
}

/// Answers that passed their checks, kept for the self-test.
#[derive(Default)]
pub struct SelfTestSamples {
    pub column: Option<(Column, Answer)>,
    pub closed_form: Option<(Vec<(String, f64)>, Answer)>,
    pub triple: Option<([f64; 3], [Answer; 3])>,
    /// A campaign response with its baseline and pinned analyze answers.
    pub campaign: Option<(Json, f64, BTreeMap<String, f64>)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app_only_answer(fails: &[(String, f64)]) -> Answer {
        let up = |n: &str| 1.0 - fails.iter().find(|(m, _)| m == n).unwrap().1;
        let (a, b) = (up("AppA") * up("proc1"), up("AppB") * up("proc2"));
        let (s1, s2) = (up("Server1") * up("proc3"), up("Server2") * up("proc4"));
        let bk = (1.0 - s1) * s2;
        let cfg = |l: &str, p: f64| (l.to_string(), p);
        let configs = vec![
            cfg("{userA, eA, eA-1, serviceA}", a * (1.0 - b) * s1),
            cfg("{userA, eA, eA-2, serviceA}", a * (1.0 - b) * bk),
            cfg("{userB, eB, eB-1, serviceB}", (1.0 - a) * b * s1),
            cfg("{userB, eB, eB-2, serviceB}", (1.0 - a) * b * bk),
            cfg("{userA, userB, eA, eB, eA-1, eB-1}", a * b * s1),
            cfg("{userA, userB, eA, eB, eA-2, eB-2}", a * b * bk),
        ];
        let failed = 1.0 - configs.iter().map(|c| c.1).sum::<f64>();
        Answer {
            failed,
            reward: None,
            configs,
        }
    }

    fn fails(p_app_a: f64) -> Vec<(String, f64)> {
        [
            "AppA", "AppB", "Server1", "Server2", "proc1", "proc2", "proc3", "proc4",
        ]
        .iter()
        .map(|n| (n.to_string(), if *n == "AppA" { p_app_a } else { 0.1 }))
        .collect()
    }

    #[test]
    fn closed_form_matches_table2_perfect_column() {
        let f = fails(0.1);
        let a = app_only_answer(&f);
        check_total(&a).unwrap();
        check_closed_form(&f, &a).unwrap();
        check_column(Column::Perfect, &a).unwrap();
    }

    #[test]
    fn self_test_rejects_perturbations() {
        let xs = [0.05, 0.15, 0.25];
        let answers = xs.map(|x| app_only_answer(&fails(x)));
        check_collinear(&xs, [&answers[0], &answers[1], &answers[2]]).unwrap();
        let f = fails(0.1);
        let samples = SelfTestSamples {
            column: Some((Column::Perfect, app_only_answer(&f))),
            closed_form: Some((f.clone(), app_only_answer(&f))),
            triple: Some((xs, answers)),
            campaign: None,
        };
        self_test(&samples).unwrap();
    }

    #[test]
    fn pinned_components_parse() {
        assert_eq!(pinned_component("kill-agent(ag1)"), Some("ag1"));
        assert_eq!(pinned_component("fail-processor(proc5)"), Some("proc5"));
        assert_eq!(pinned_component("sever(watch c1)"), None);
    }
}
