//! `ledger compare BASE NEW`: apply each end-to-end metric's regression
//! bound, workload by workload. Either side may be a comma-separated
//! list of `ledger run` documents of one commit; a side is then its
//! median, and its spread decides between `ok` and `unresolved`. All
//! documents must share seed, clients, workers and window: runs are
//! comparable only at equal values.

use mpq_core::json::Json;

use crate::spec::{Better, EndToEnd, END_TO_END, SCHEMA};
use crate::stats::median;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    /// Worse than the base's median by more than the bound (or a
    /// workload is gone, or more operations failed).
    Regressed,
    /// Within the bound, but the runs of a side spread wider than the
    /// bound — "unchanged" is not shown — or a side lacks the metric.
    Unresolved,
    /// The metric has no bound (`spec::EndToEnd::bound`): shown, not judged.
    NotGated,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub base: Option<f64>,
    pub new: Option<f64>,
    pub status: Status,
}

/// One side's runs of one (workload, metric); `null`s dropped.
fn values(docs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    docs.iter()
        .filter_map(|doc| {
            doc.get("workloads")?
                .as_arr()?
                .iter()
                .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn has_workload(docs: &[Json], workload: &str) -> bool {
    docs.iter().all(|doc| {
        doc.get("workloads")
            .and_then(Json::as_arr)
            .is_some_and(|ws| {
                ws.iter()
                    .any(|w| w.get("name").and_then(Json::as_str) == Some(workload))
            })
    })
}

/// By how much `new` is worse than `base`, in the metric's unit
/// (negative: better).
fn worsening(e: &EndToEnd, base: f64, new: f64) -> f64 {
    match e.better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    }
}

fn spread(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / median(values).abs()
}

fn judge(e: &EndToEnd, base: &[f64], new: &[f64]) -> Status {
    let Some(bound) = e.bound else {
        return Status::NotGated;
    };
    match (base.is_empty(), new.is_empty()) {
        (true, true) => return Status::Ok,
        (true, false) | (false, true) => return Status::Unresolved,
        (false, false) => {}
    }
    let worse = worsening(e, median(base), median(new));
    if worse > bound * median(base).abs() && worse > e.floor {
        return Status::Regressed;
    }
    let noisy = base.len().min(new.len()) >= 2 && spread(base).max(spread(new)) > bound;
    let every_run_better = new
        .iter()
        .all(|n| base.iter().all(|b| worsening(e, *b, *n) < 0.0));
    if noisy && !every_run_better {
        Status::Unresolved
    } else {
        Status::Ok
    }
}

/// One row per (workload of the base, end-to-end metric).
pub fn compare(base: &[Json], new: &[Json]) -> Vec<Row> {
    let mut workloads: Vec<String> = Vec::new();
    for doc in base {
        for w in doc.get("workloads").and_then(Json::as_arr).unwrap_or(&[]) {
            if let Some(name) = w.get("name").and_then(Json::as_str) {
                if !workloads.iter().any(|n| n == name) {
                    workloads.push(name.to_string());
                }
            }
        }
    }
    let mut rows = Vec::new();
    for workload in &workloads {
        let present = has_workload(new, workload);
        for e in &END_TO_END {
            let (b, n) = (
                values(base, workload, e.name),
                values(new, workload, e.name),
            );
            rows.push(Row {
                workload: workload.clone(),
                metric: e.name,
                base: (!b.is_empty()).then(|| median(&b)),
                new: (!n.is_empty()).then(|| median(&n)),
                status: if present {
                    judge(e, &b, &n)
                } else {
                    Status::Regressed
                },
            });
        }
    }
    rows
}

fn load(list: &str) -> Result<Vec<Json>, String> {
    list.split(',')
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let doc = Json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))?;
            if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA)
                || doc.get("kind").and_then(Json::as_str) != Some("run")
            {
                return Err(format!("{path}: not a `ledger run` document ({SCHEMA})"));
            }
            if doc.get("quick").and_then(Json::as_bool) != Some(false) {
                return Err(format!(
                    "{path}: a quick document; windows this short do not hold the bounds, so it cannot gate"
                ));
            }
            Ok(doc)
        })
        .collect()
}

/// Runs are comparable only at equal settings: `io_per_match` alone
/// differs by a quarter between the inventories of two seeds.
fn same_settings(docs: &[Json]) -> Result<(), String> {
    for key in ["seed", "clients", "workers", "window_s"] {
        let mut values = docs.iter().map(|doc| doc.get(key));
        let first = values.next().flatten();
        if first.is_none() || values.any(|v| v != first) {
            return Err(format!(
                "the documents do not share one `{key}`; runs compare only at equal settings"
            ));
        }
    }
    Ok(())
}

pub fn render(rows: &[Row]) -> String {
    let num = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
    let mut out = format!(
        "{:<12} {:<18} {:>12} {:>12} {:>16} {:>7}  {}\n",
        "workload", "metric", "base", "new", "new/base", "bound", "status"
    );
    for row in rows {
        let e = END_TO_END
            .iter()
            .find(|e| e.name == row.metric)
            .expect("known metric");
        let ratio = match (row.base, row.new) {
            (Some(b), Some(n)) if b != 0.0 => format!("{:.3}x of base", n / b),
            _ => "-".to_string(),
        };
        let sign = if e.better == Better::Lower { '+' } else { '-' };
        let status = match row.status {
            Status::Ok => "ok",
            Status::Regressed => "REGRESSED",
            Status::Unresolved => "unresolved",
            Status::NotGated => "not gated",
        };
        let bound = e
            .bound
            .map_or("-".to_string(), |b| format!("{sign}{:.0}%", b * 100.0));
        out.push_str(&format!(
            "{:<12} {:<18} {:>12} {:>12} {:>16} {:>7}  {}\n",
            row.workload,
            row.metric,
            num(row.base),
            num(row.new),
            ratio,
            bound,
            status
        ));
    }
    out
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let [base, new] = args else {
        return Err("usage: ledger compare BASE.json[,…] NEW.json[,…]".to_string());
    };
    let (base, new) = (load(base)?, load(new)?);
    same_settings(&[base.as_slice(), new.as_slice()].concat())?;
    let rows = compare(&base, &new);
    print!("{}", render(&rows));
    let count = |s: Status| rows.iter().filter(|r| r.status == s).count();
    println!(
        "{} rows: {} ok, {} regressed, {} unresolved, {} not gated",
        rows.len(),
        count(Status::Ok),
        count(Status::Regressed),
        count(Status::Unresolved),
        count(Status::NotGated)
    );
    Ok(count(Status::Regressed) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn metric(better: Better, bound: Option<f64>, floor: f64) -> EndToEnd {
        EndToEnd {
            name: "synthetic",
            unit: "ms",
            better,
            bound,
            floor,
            everywhere: true,
            pipeline: false,
        }
    }
    const LOWER: EndToEnd = metric(Better::Lower, Some(0.10), 0.0);
    const HIGHER: EndToEnd = metric(Better::Higher, Some(0.10), 0.0);

    /// A document with one workload reporting `metrics`.
    fn doc(workload: &str, metrics: &[(&'static str, Option<f64>)]) -> Json {
        let metrics = metrics
            .iter()
            .map(|(name, v)| {
                let value = v.map_or(Json::Null, Json::Num);
                (name.to_string(), Json::obj([("value", value)]))
            })
            .collect();
        let w = Json::obj([
            ("name", Json::Str(workload.into())),
            ("metrics", Json::Obj(metrics)),
        ]);
        Json::obj([("workloads", Json::Arr(vec![w]))])
    }

    fn status(rows: &[Row], metric: &str) -> Status {
        rows.iter().find(|r| r.metric == metric).unwrap().status
    }

    #[test]
    fn bounds_are_applied_in_the_metrics_own_direction() {
        // improvement; just inside +10 % / −10 %; just outside
        assert_eq!(judge(&LOWER, &[100.0], &[80.0]), Status::Ok);
        assert_eq!(judge(&LOWER, &[100.0], &[109.9]), Status::Ok);
        assert_eq!(judge(&LOWER, &[100.0], &[110.1]), Status::Regressed);
        assert_eq!(judge(&HIGHER, &[50.0], &[70.0]), Status::Ok);
        assert_eq!(judge(&HIGHER, &[50.0], &[45.1]), Status::Ok);
        assert_eq!(judge(&HIGHER, &[50.0], &[44.9]), Status::Regressed);
    }

    #[test]
    fn a_worsening_must_exceed_the_share_and_the_floor() {
        // `setup_s`: worse by more than max(25 %, 0.05 s)
        let setup = metric(Better::Lower, Some(0.25), 0.05);
        assert_eq!(judge(&setup, &[0.020], &[0.069]), Status::Ok);
        assert_eq!(judge(&setup, &[0.020], &[0.071]), Status::Regressed);
        assert_eq!(judge(&setup, &[1.0], &[1.24]), Status::Ok);
        assert_eq!(judge(&setup, &[1.0], &[1.26]), Status::Regressed);
    }

    #[test]
    fn null_on_both_sides_is_fine_and_on_one_side_is_unresolved() {
        assert_eq!(judge(&LOWER, &[], &[]), Status::Ok);
        assert_eq!(judge(&LOWER, &[70.0], &[]), Status::Unresolved);
        assert_eq!(judge(&LOWER, &[], &[70.0]), Status::Unresolved);
    }

    #[test]
    fn a_demoted_metric_is_shown_and_never_judged() {
        let demoted = metric(Better::Lower, None, 0.0);
        assert_eq!(judge(&demoted, &[100.0], &[300.0]), Status::NotGated);
        let rows = compare(
            &[doc("w", &[("failed_share", Some(0.0))])],
            &[doc("w", &[("failed_share", Some(0.0))])],
        );
        assert_eq!(rows.len(), END_TO_END.len());
        for e in END_TO_END.iter().filter(|e| e.bound.is_none()) {
            assert_eq!(status(&rows, e.name), Status::NotGated);
        }
    }

    #[test]
    fn a_missing_workload_and_a_higher_failed_share_regress() {
        let base = [doc("w", &[("failed_share", Some(0.0))])];
        let rows = compare(&base, &[doc("other", &[("failed_share", Some(0.0))])]);
        assert!(rows.iter().all(|r| r.status == Status::Regressed));
        let rows = compare(&base, &[doc("w", &[("failed_share", Some(0.001))])]);
        assert_eq!(status(&rows, "failed_share"), Status::Regressed);
        let rows = compare(&base, &[doc("w", &[("failed_share", Some(0.0))])]);
        assert_eq!(status(&rows, "failed_share"), Status::Ok);
    }

    #[test]
    fn sets_compare_by_median_and_a_wide_spread_is_unresolved() {
        let base = [100.0, 101.0, 102.0];
        // medians 101 → 104: inside +10 %, tight runs
        assert_eq!(judge(&LOWER, &base, &[103.0, 104.0, 105.0]), Status::Ok);
        // same medians, but the new runs spread 25 %
        assert_eq!(
            judge(&LOWER, &base, &[92.0, 104.0, 118.0]),
            Status::Unresolved
        );
        // a wide spread is no excuse when every run is better than every base run
        assert_eq!(judge(&LOWER, &base, &[60.0, 70.0, 80.0]), Status::Ok);
        // median beyond the bound
        assert_eq!(
            judge(&LOWER, &base, &[100.0, 115.0, 116.0]),
            Status::Regressed
        );
    }

    fn run_document(seed: f64, quick: bool) -> Json {
        Json::obj([
            ("schema", Json::Str(SCHEMA.into())),
            ("kind", Json::Str("run".into())),
            ("quick", Json::Bool(quick)),
            ("seed", Json::Num(seed)),
            ("clients", Json::Num(2.0)),
            ("workers", Json::Num(2.0)),
            ("window_s", Json::Num(24.0)),
            ("workloads", Json::Arr(vec![])),
        ])
    }

    #[test]
    fn quick_documents_cannot_gate() {
        let dir = crate::timed::state_dir("compare-test");
        let path = dir.join("quick.json");
        std::fs::write(&path, run_document(2009.0, true).render()).unwrap();
        let err = load(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("quick"), "{err}");
        crate::timed::remove_state_dir(&dir);
    }

    #[test]
    fn documents_of_different_seeds_are_refused() {
        let same = [run_document(2009.0, false), run_document(2009.0, false)];
        assert_eq!(same_settings(&same), Ok(()));
        let mixed = [run_document(2009.0, false), run_document(4242.0, false)];
        assert!(same_settings(&mixed).unwrap_err().contains("`seed`"));
    }
}
