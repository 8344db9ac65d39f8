//! Seeded inputs: the paper's five models, an app-only copy of the
//! Fig. 1 system, two committed deep-hierarchy synth planes, and
//! probability edits grouped in triples.
//!
//! Everything here works on the model text with the benchmark's own
//! line editing, so the program under test receives only generated
//! `.fmp` bodies.

use crate::rng::Rng;
use std::path::Path;

/// Table 2 column an unedited model must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Column {
    Perfect,
    Centralized,
    Distributed,
    Hierarchical,
    Network,
}

/// One base model the generated bodies derive from.
#[derive(Debug, Clone)]
pub struct Base {
    pub name: &'static str,
    pub text: String,
    /// Analyse with unmonitored components treated as known (the
    /// as-published distributed architecture).
    pub unmonitored_known: bool,
    /// The Table 2 column of the unedited model, if the paper has one.
    pub column: Option<Column>,
    /// No management lines: perfect knowledge, closed-form answer.
    pub app_only: bool,
}

impl Base {
    /// Components that can fail, with their failure probabilities.
    pub fn fallible(&self) -> Vec<(String, f64)> {
        fail_probs(&self.text)
            .into_iter()
            .filter(|(_, p)| *p > 0.0)
            .collect()
    }
}

/// One generated model body and what its answer must satisfy.
#[derive(Debug, Clone)]
pub struct Body {
    pub name: String,
    pub base: usize,
    pub text: String,
    pub unmonitored_known: bool,
    /// Set only on unedited paper models.
    pub column: Option<Column>,
    pub app_only: bool,
}

impl Body {
    /// Every component's failure probability in this body.
    pub fn fails(&self) -> Vec<(String, f64)> {
        fail_probs(&self.text)
    }
}

/// Three bodies equal but for one component's failure probability.
#[derive(Debug, Clone)]
pub struct Triple {
    pub bodies: [Body; 3],
    pub component: String,
    pub values: [f64; 3],
}

/// Names of the committed synth planes, regenerated by `fmbench gen-planes`.
pub const PLANES: [(&str, usize); 2] = [("synth-deep-16", 2), ("synth-deep-22", 3)];

const MGMT_KEYWORDS: [&str; 5] = ["agent", "mgmtproc", "manager", "watch", "notify"];
const COMPONENT_KEYWORDS: [&str; 7] = [
    "processor",
    "link",
    "users",
    "task",
    "agent",
    "mgmtproc",
    "manager",
];

/// Loads the eight base models from a checkout rooted at `root`.
pub fn load_bases(root: &Path) -> Result<Vec<Base>, String> {
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))
    };
    let paper = |name, file: &str, column, umk| -> Result<Base, String> {
        Ok(Base {
            name,
            text: read(&format!("models/{file}.fmp"))?,
            unmonitored_known: umk,
            column,
            app_only: false,
        })
    };
    let centralized = paper(
        "centralized",
        "paper-centralized",
        Some(Column::Centralized),
        false,
    )?;
    let app_only = Base {
        name: "app-only",
        text: strip_management(&centralized.text),
        unmonitored_known: false,
        column: Some(Column::Perfect),
        app_only: true,
    };
    let mut bases = vec![
        centralized,
        paper(
            "distributed-as-drawn",
            "paper-distributed-as-drawn",
            None,
            false,
        )?,
        paper(
            "distributed",
            "paper-distributed-as-published",
            Some(Column::Distributed),
            true,
        )?,
        paper(
            "hierarchical",
            "paper-hierarchical",
            Some(Column::Hierarchical),
            false,
        )?,
        paper("network", "paper-network", Some(Column::Network), false)?,
        app_only,
    ];
    for (name, _) in PLANES {
        bases.push(Base {
            name,
            text: read(&format!("fmbench/inputs/{name}.fmp"))?,
            unmonitored_known: false,
            column: None,
            app_only: false,
        });
    }
    Ok(bases)
}

/// Index of the base called `name`.
pub fn base_index(bases: &[Base], name: &str) -> usize {
    bases
        .iter()
        .position(|b| b.name == name)
        .unwrap_or_else(|| panic!("no base model `{name}`"))
}

/// The Fig. 1 application alone: every management line removed.
pub fn strip_management(text: &str) -> String {
    text.lines()
        .filter(|l| {
            let kw = l.split_whitespace().next().unwrap_or("");
            !MGMT_KEYWORDS.contains(&kw)
        })
        .map(|l| format!("{l}\n"))
        .collect()
}

/// `(component, failure probability)` for every declared component, in
/// declaration order.
pub fn fail_probs(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let toks: Vec<&str> = line.split_whitespace().collect();
        if toks.len() < 2 || !COMPONENT_KEYWORDS.contains(&toks[0]) {
            continue;
        }
        let p = toks
            .iter()
            .position(|t| *t == "fail")
            .and_then(|k| toks.get(k + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0);
        out.push((toks[1].to_string(), p));
    }
    out
}

/// `text` with the named components' failure probabilities replaced.
pub fn with_fails(text: &str, edits: &[(String, f64)]) -> String {
    let mut out = String::with_capacity(text.len() + 64);
    for line in text.lines() {
        let toks: Vec<&str> = line.split_whitespace().collect();
        let edit = (toks.len() >= 2 && COMPONENT_KEYWORDS.contains(&toks[0]))
            .then(|| edits.iter().find(|(n, _)| n == toks[1]))
            .flatten();
        match (edit, toks.iter().position(|t| *t == "fail")) {
            (Some((_, p)), Some(k)) => {
                let mut toks: Vec<String> = toks.iter().map(|t| t.to_string()).collect();
                toks[k + 1] = format!("{p}");
                out.push_str(&toks.join(" "));
            }
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// The unedited body of base `ix`.
pub fn unedited(bases: &[Base], ix: usize) -> Body {
    let b = &bases[ix];
    Body {
        name: b.name.to_string(),
        base: ix,
        text: b.text.clone(),
        unmonitored_known: b.unmonitored_known,
        column: b.column,
        app_only: b.app_only,
    }
}

/// A seeded edit triple of base `ix`: up to three other fallible
/// components get fresh failure probabilities, and one more takes three
/// distinct values with everything else fixed.
pub fn edit_triple(bases: &[Base], ix: usize, rng: &mut Rng, tag: &str) -> Triple {
    let b = &bases[ix];
    let mut pool = b.fallible();
    let varied = pool.swap_remove(rng.below(pool.len())).0;
    let mut edits: Vec<(String, f64)> = Vec::new();
    for _ in 0..3.min(pool.len()) {
        let (name, _) = pool.swap_remove(rng.below(pool.len()));
        edits.push((name, rng.range(0.02, 0.25)));
    }
    let mut values = [0.0; 3];
    for (k, v) in values.iter_mut().enumerate() {
        // Disjoint bands keep the three points well apart.
        *v = rng.range(0.02 + 0.1 * k as f64, 0.1 + 0.1 * k as f64);
    }
    let body = |k: usize| {
        let mut all = edits.clone();
        all.push((varied.clone(), values[k]));
        Body {
            name: format!("{}/{tag}{}", b.name, ["a", "b", "c"][k]),
            base: ix,
            text: with_fails(&b.text, &all),
            unmonitored_known: b.unmonitored_known,
            column: None,
            app_only: b.app_only,
        }
    };
    Triple {
        bodies: [body(0), body(1), body(2)],
        component: varied.clone(),
        values,
    }
}

/// Writes the committed synth planes into `dir`.
pub fn write_planes(dir: &Path) -> Result<(), String> {
    use fmperf_mama::synth::{synth_plane, PlaneSpec, PlaneTopology};
    for (name, chains) in PLANES {
        // Failure probabilities in the paper's range rather than the
        // rare-event defaults, so every configuration class carries
        // probability mass the checks can see.
        let spec = PlaneSpec {
            chains,
            topology: PlaneTopology::DeepHierarchy,
            server_fail: 0.02,
            mgmt_fail: 0.01,
        };
        let plane = synth_plane(&spec);
        let text = fmperf_text::write_model(&plane.model, &plane.mama, &[(plane.users, 1.0)]);
        let path = dir.join(format!("{name}.fmp"));
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: &str = "processor p fail 0.1 cores 1\ntask t on p fail 0.2 threads 1\n\
                     agent a on p fail 0.1\nwatch alive t -> a\n";

    #[test]
    fn edits_touch_only_named_components() {
        let out = with_fails(M, &[("t".into(), 0.5)]);
        assert_eq!(
            fail_probs(&out),
            vec![("p".into(), 0.1), ("t".into(), 0.5), ("a".into(), 0.1)]
        );
    }

    #[test]
    fn strip_management_keeps_application() {
        let out = strip_management(M);
        assert_eq!(fail_probs(&out).len(), 2);
        assert!(!out.contains("watch"));
    }
}
