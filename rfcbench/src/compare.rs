//! `rfcbench compare BASE.json CHANGE.json`: verdicts on a change.
//!
//! Both files are results written by the full benchmark (`--out`), best
//! made with `--repeat 10` so each side has ten runs per workload. Runs
//! pair by seed. For every end-to-end metric in `BENCHMARK.json` a
//! verdict follows the bound the benchmark fixed for it:
//!
//! * **better** — the change wins at least nine in ten pairs (ties count
//!   for neither) and the medians differ by more than the base's
//!   interquartile distance, or the base is too noisy to judge but every
//!   change run beats every base run;
//! * **unresolved** — otherwise, when the base's interquartile distance
//!   exceeds the bound;
//! * **worse** — the change's median is worse than the base's by more
//!   than the bound;
//! * **within bound** — anything else.

use rfc_net::json::Json;

use crate::stats::Summary;

/// One end-to-end metric's rule, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
}

/// The outcome for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A gain by the rules above.
    Better,
    /// Worse than the base by more than the bound.
    Worse,
    /// No worse than the bound allows.
    WithinBound,
    /// The base's own spread exceeds the bound.
    Unresolved,
}

impl Verdict {
    /// The word printed for the verdict.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Reads the `end_to_end` rules of a `BENCHMARK.json`.
///
/// # Errors
///
/// Returns a description of malformed JSON or a malformed entry.
pub fn rules(benchmark_json: &str) -> Result<Vec<Rule>, String> {
    let doc = Json::parse(benchmark_json)?;
    let entries = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let text = |key: &str| {
                e.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("end_to_end entry without `{key}`"))
            };
            Ok(Rule {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: text("better")? == "lower",
                bound: e
                    .get("bound")
                    .and_then(Json::as_num)
                    .ok_or("end_to_end entry without `bound`")?,
            })
        })
        .collect()
}

/// Judges `change` against `base`; each is a list of `(seed, value)`.
pub fn verdict(base: &[(u64, f64)], change: &[(u64, f64)], rule: &Rule) -> Option<Verdict> {
    let b = Summary::of(&base.iter().map(|p| p.1).collect::<Vec<_>>())?;
    let c = Summary::of(&change.iter().map(|p| p.1).collect::<Vec<_>>())?;
    // Positive `gain` means the change is better.
    let gain = |from: f64, to: f64| {
        if rule.lower_is_better {
            from - to
        } else {
            to - from
        }
    };
    let pairs: Vec<(f64, f64)> = base
        .iter()
        .filter_map(|&(seed, bv)| change.iter().find(|p| p.0 == seed).map(|p| (bv, p.1)))
        .collect();
    let wins = pairs.iter().filter(|&&(bv, cv)| gain(bv, cv) > 0.0).count();
    let medians_apart = gain(b.median, c.median) > b.q3 - b.q1;
    if !pairs.is_empty() && wins * 10 >= pairs.len() * 9 && medians_apart {
        return Some(Verdict::Better);
    }
    if b.iqr_share() > rule.bound {
        let all_better = change
            .iter()
            .all(|&(_, cv)| base.iter().all(|&(_, bv)| gain(bv, cv) > 0.0));
        return Some(if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        });
    }
    let worse_share = if b.median == 0.0 {
        0.0
    } else {
        -gain(b.median, c.median) / b.median.abs()
    };
    Some(if worse_share > rule.bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    })
}

/// The untraced `(seed, value)` samples of `metric` on `workload` in a
/// results file.
pub fn samples(results: &Json, workload: &str, metric: &str) -> Vec<(u64, f64)> {
    let runs = results.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
    runs.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("trace") == Some(&Json::Bool(false)))
        .filter_map(|r| {
            let seed = r.get("seed").and_then(Json::as_uint)?;
            let value = r
                .get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_num()?;
            Some((seed, value))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(bound: f64) -> Rule {
        Rule {
            name: "job_s".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound,
        }
    }

    fn runs(values: &[f64]) -> Vec<(u64, f64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    #[test]
    fn verdicts_follow_the_bounds() {
        let base = runs(&[10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]);
        let faster: Vec<(u64, f64)> = base.iter().map(|&(s, v)| (s, v * 0.8)).collect();
        let slower: Vec<(u64, f64)> = base.iter().map(|&(s, v)| (s, v * 1.2)).collect();
        let same: Vec<(u64, f64)> = base.iter().map(|&(s, v)| (s, v * 1.01)).collect();
        assert_eq!(verdict(&base, &faster, &rule(0.1)), Some(Verdict::Better));
        assert_eq!(verdict(&base, &slower, &rule(0.1)), Some(Verdict::Worse));
        assert_eq!(
            verdict(&base, &same, &rule(0.1)),
            Some(Verdict::WithinBound)
        );
        let noisy = runs(&[5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]);
        assert_eq!(
            verdict(&noisy, &same, &rule(0.1)),
            Some(Verdict::Unresolved)
        );
        assert_eq!(verdict(&[], &same, &rule(0.1)), None);
    }

    #[test]
    fn rules_and_samples_parse() {
        let rules = rules(
            r#"{"end_to_end": [{"name": "job_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert_eq!(rules, vec![rule(0.1)]);
        let results = Json::parse(
            r#"{"runs": [
              {"workload": "w", "seed": 3, "trace": false,
               "result": {"metrics": {"job_s": {"value": 1.5, "unit": "s"}}}},
              {"workload": "w", "seed": 3, "trace": true,
               "result": {"metrics": {"job_s": {"value": 9.0, "unit": "s"}}}}]}"#,
        )
        .unwrap();
        assert_eq!(samples(&results, "w", "job_s"), vec![(3, 1.5)]);
    }
}
