//! Output: the driver's one-line result, the per-run detail record, the
//! suite's `results.json`, and `compare`.

use crate::run::{RunConfig, RunRecord};
use crate::spec::{Workload, END_TO_END, EXACT_COUNTS, INTERACTIONS, PER_LAYER};
use crate::stats::median;
use pegwire::{obj, Json};
use std::fmt::Write as _;

/// The unit of a metric in either table.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

fn metrics_json(record: &RunRecord) -> Json {
    record
        .metrics
        .iter()
        .fold(obj(), |o, (name, value)| {
            o.field(name, obj().field("value", *value).field("unit", unit_of(name)).build())
        })
        .build()
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(record: &RunRecord) -> String {
    obj()
        .field("correct", record.failures.is_empty())
        .field("attempted", record.attempted)
        .field("failed", record.failures.len())
        .field("metrics", metrics_json(record))
        .build()
        .to_string()
}

/// Everything one run measured, for the suite to aggregate.
pub fn detail_json(cfg: &RunConfig, traced: bool, record: &RunRecord) -> Json {
    let sizing = cfg.sizing();
    let extra = record.extra.iter().fold(obj(), |o, (k, v)| o.field(k, v.clone())).build();
    obj()
        .field("workload", cfg.workload.name())
        .field("traced", traced)
        .field("seed", cfg.seed)
        .field("seconds", cfg.seconds)
        .field("smoke", cfg.smoke)
        .field("graph_size", sizing.graph_size)
        .field("timed_queries", sizing.queries)
        .field("trace_queries", sizing.trace_queries)
        .field("attempted", record.attempted)
        .field("failed", record.failures.len())
        .field(
            "failures",
            Json::Arr(record.failures.iter().take(10).map(|f| Json::from(f.as_str())).collect()),
        )
        .field("metrics", metrics_json(record))
        .field("extra", extra)
        .build()
}

/// The table a single run prints above its result line.
pub fn run_table(cfg: &RunConfig, record: &RunRecord) -> String {
    let mut out = String::new();
    for (name, value) in &record.metrics {
        let _ = writeln!(
            out,
            "{:<14} {:<32} {:>16.4} {}",
            cfg.workload.name(),
            name,
            value,
            unit_of(name)
        );
    }
    for (name, value) in &record.extra {
        let _ = writeln!(
            out,
            "{:<14} {:<32} {:>16} (not in BENCHMARK.json)",
            cfg.workload.name(),
            name,
            value.to_string()
        );
    }
    for failure in record.failures.iter().take(10) {
        let _ = writeln!(out, "FAILED {failure}");
    }
    out
}

/// Indented rendering of `value` (the wire writer is single-line).
pub fn pretty(value: &Json) -> String {
    fn go(v: &Json, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth + 1);
        match v {
            Json::Arr(items) if items.iter().any(|i| matches!(i, Json::Arr(_) | Json::Obj(_))) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    go(item, depth + 1, out);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{}]", "  ".repeat(depth));
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (key, item)) in fields.iter().enumerate() {
                    let _ = write!(out, "{pad}{}: ", Json::from(key.as_str()));
                    go(item, depth + 1, out);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{}}}", "  ".repeat(depth));
            }
            other => {
                let _ = write!(out, "{other}");
            }
        }
    }
    let mut out = String::new();
    go(value, 0, &mut out);
    out.push('\n');
    out
}

// ---------------------------------------------------------------------
// The suite's results.json
// ---------------------------------------------------------------------

/// One workload's runs, as read back from the children's detail files.
pub struct WorkloadRuns {
    pub workload: Workload,
    pub untraced: Vec<Json>,
    pub traced: Vec<Json>,
}

fn metric_value(detail: &Json, name: &str) -> Option<f64> {
    detail.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// `(max − min) ÷ median` of a metric's runs; `None` with fewer than two.
fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    Some((max - min) / median(values)?)
}

fn workload_json(runs: &WorkloadRuns) -> Json {
    let end_to_end = END_TO_END
        .iter()
        .fold(obj(), |o, m| {
            let values: Vec<f64> =
                runs.untraced.iter().filter_map(|d| metric_value(d, m.name)).collect();
            o.field(
                m.name,
                obj()
                    .field_opt("value", median(&values))
                    .field("unit", m.unit)
                    .field("better", if m.higher_is_better { "higher" } else { "lower" })
                    .field("bound", m.bound)
                    .field("runs", Json::Arr(values.iter().map(|&v| Json::from(v)).collect()))
                    .field_opt("spread", spread(&values))
                    .build(),
            )
        })
        .build();
    let last = |list: &[Json], key: &str| list.last().and_then(|d| d.get(key)).cloned();
    obj()
        .field("why", runs.workload.why())
        .field("clients", runs.workload.clients())
        .field("shard_workers", runs.workload.workers())
        .field_opt("timed_queries", last(&runs.untraced, "timed_queries"))
        .field_opt("trace_queries", last(&runs.traced, "trace_queries"))
        .field("end_to_end", end_to_end)
        .field_opt("end_to_end_extra", last(&runs.untraced, "extra"))
        .field_opt("per_layer", last(&runs.traced, "metrics"))
        .field_opt("per_layer_extra", last(&runs.traced, "extra"))
        .build()
}

pub fn results_json(provenance: Json, all: &[WorkloadRuns]) -> Json {
    let interactions = INTERACTIONS
        .iter()
        .map(|i| {
            obj()
                .field("layer_metric", i.layer)
                .field("should_move", i.end_to_end)
                .field("on_workload", i.on)
                .field("should_not_move", i.not_on)
                .build()
        })
        .collect();
    let workloads = all
        .iter()
        .fold(obj(), |o, runs| o.field(runs.workload.name(), workload_json(runs)))
        .build();
    obj()
        .field("provenance", provenance)
        .field("workloads", workloads)
        .field("interactions", Json::Arr(interactions))
        .build()
}

/// The suite's printed tables: every end-to-end metric of every workload
/// with unit and sample count, then the per-layer metrics.
pub fn suite_tables(results: &Json) -> String {
    let mut out = String::new();
    let Some(Json::Obj(workloads)) = results.get("workloads") else { return out };
    for (name, w) in workloads {
        let extra = w.get("end_to_end_extra");
        let n = |key: &str| extra.and_then(|e| e.get(key)).map_or("?".to_string(), Json::to_string);
        let _ = writeln!(
            out,
            "\n== {name}: {} query samples, {} update samples, tail = {}, error_share = {}",
            n("query_samples"),
            n("update_samples"),
            n("tail_percentile"),
            n("error_share"),
        );
        if let Some(Json::Obj(metrics)) = w.get("end_to_end") {
            for (metric, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
                let _ = writeln!(
                    out,
                    "  {metric:<28} {value:>14.4} {unit:<6} bound {:>3.0}%",
                    bound * 100.0
                );
            }
        }
        let update = extra.and_then(|e| e.get("update_p50_ms")).cloned().unwrap_or(Json::Null);
        let _ = writeln!(
            out,
            "  {:<28} {:>14} ms     (results.json only)",
            "update_p50_ms",
            update.to_string()
        );
        if let Some(Json::Obj(metrics)) = w.get("per_layer") {
            for (metric, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                let _ = writeln!(out, "    {metric:<32} {value:>16.4} {unit}");
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// --check-repeat and compare
// ---------------------------------------------------------------------

/// `new` against `base` for one metric: how much worse, as a share of
/// `base` (negative = better).
fn worsening(base: f64, new: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (base - new) / base
    } else {
        (new - base) / base
    }
}

/// Checks two sets of runs of the same build: every end-to-end metric
/// within its bound, every exact count identical. Returns the printed
/// report and whether everything agreed.
pub fn check_repeat(all: &[WorkloadRuns]) -> (String, bool) {
    let mut out = String::from("\n== check-repeat: two sets of runs of the same build\n");
    let mut agreed = true;
    for runs in all {
        for m in &END_TO_END {
            let (Some(a), Some(b)) = (
                runs.untraced.first().and_then(|d| metric_value(d, m.name)),
                runs.untraced.get(1).and_then(|d| metric_value(d, m.name)),
            ) else {
                agreed = false;
                let _ = writeln!(out, "{:<14} {:<16} missing a run", runs.workload.name(), m.name);
                continue;
            };
            let diff = (b - a).abs() / a;
            let ok = diff <= m.bound;
            agreed &= ok;
            let _ = writeln!(
                out,
                "{:<14} {:<16} {a:>12.4} {b:>12.4} {:<4} diff {:>5.1}% bound {:>3.0}% {}",
                runs.workload.name(),
                m.name,
                m.unit,
                diff * 100.0,
                m.bound * 100.0,
                if ok { "ok" } else { "EXCEEDS BOUND" },
            );
        }
        for name in EXACT_COUNTS {
            let a = runs.traced.first().and_then(|d| metric_value(d, name));
            let b = runs.traced.get(1).and_then(|d| metric_value(d, name));
            if a.is_none() || a != b {
                agreed = false;
                let _ = writeln!(
                    out,
                    "{:<14} {name:<28} {a:?} vs {b:?} COUNT DIFFERS",
                    runs.workload.name()
                );
            }
        }
    }
    let _ = writeln!(out, "exact counts compared per workload: {}", EXACT_COUNTS.join(", "));
    (out, agreed)
}

/// `compare A.json B.json`: one row per (workload, end-to-end metric)
/// with the ratio and its base, marked `regressed`, `improved`,
/// `unresolved` (a spread wider than the bound) or `within bound`.
pub fn compare(base: &Json, new: &Json) -> String {
    let mut out = format!(
        "{:<14} {:<14} {:>12} {:>12} {:<5} {:>7} {:>6}  verdict\n",
        "workload", "metric", "base", "new", "unit", "new/base", "bound"
    );
    for w in Workload::ALL {
        for m in &END_TO_END {
            let cell = |doc: &Json, key: &str| {
                doc.get("workloads")?
                    .get(w.name())?
                    .get("end_to_end")?
                    .get(m.name)?
                    .get(key)?
                    .as_f64()
            };
            let (Some(a), Some(b)) = (cell(base, "value"), cell(new, "value")) else { continue };
            let widest =
                cell(base, "spread").into_iter().chain(cell(new, "spread")).fold(0.0, f64::max);
            let worse = worsening(a, b, m.higher_is_better);
            let verdict = if widest > m.bound {
                "unresolved"
            } else if worse > m.bound {
                "regressed"
            } else if worse < -m.bound {
                "improved"
            } else {
                "within bound"
            };
            let _ = writeln!(
                out,
                "{:<14} {:<14} {a:>12.4} {b:>12.4} {:<5} {:>7.3}x {:>5.0}%  {verdict}",
                w.name(),
                m.name,
                m.unit,
                b / a,
                m.bound * 100.0,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(p50: f64, qps: f64, spread: Option<f64>) -> Json {
        let cell = |v: f64| obj().field("value", v).field_opt("spread", spread).build();
        let e2e = obj().field("query_p50_ms", cell(p50)).field("query_qps", cell(qps)).build();
        let w = obj().field("end_to_end", e2e).build();
        obj().field("workloads", obj().field("cyclic_cold", w).build()).build()
    }

    #[test]
    fn compare_marks_each_direction() {
        let base = results(10.0, 100.0, None);
        let text = compare(&base, &results(13.0, 130.0, None));
        let row = |metric: &str| text.lines().find(|l| l.contains(metric)).unwrap().to_string();
        assert!(row("query_p50_ms").ends_with("regressed"), "{text}");
        assert!(row("query_qps").ends_with("improved"), "{text}");
        assert!(row("query_p50_ms").contains("1.300x"), "ratio printed beside its base: {text}");
        let text = compare(&base, &results(10.5, 96.0, None));
        assert!(text.lines().skip(1).all(|l| l.ends_with("within bound")), "{text}");
        let text = compare(&base, &results(20.0, 50.0, Some(0.5)));
        assert!(text.lines().skip(1).all(|l| l.ends_with("unresolved")), "{text}");
    }

    #[test]
    fn pretty_round_trips() {
        let doc = obj()
            .field("a", Json::Arr(vec![Json::from(1.0), Json::from(2.5)]))
            .field("b", obj().field("c", "x\"y").field("d", Json::Arr(vec![obj().build()])).build())
            .build();
        let text = pretty(&doc);
        assert!(text.lines().count() > 5, "{text}");
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }
}
