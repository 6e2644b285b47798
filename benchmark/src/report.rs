//! Running and reporting: one workload in this process, the whole set in
//! child processes (so memory and allocator state do not leak from one
//! workload into the next), `--repeat`, and `compare`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, spread};
use crate::trace::LayerTime;
use crate::workloads::{self, Params, Sizes};

fn run_file(out_dir: &Path, workload: &str, trace: bool) -> PathBuf {
    out_dir.join(format!("run-{workload}-trace{}.json", u8::from(trace)))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Where and how a result was measured.
fn environment() -> Json {
    Json::obj([
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get()) as u64),
        ),
    ])
}

fn layer_times_json(times: &BTreeMap<&'static str, LayerTime>) -> Json {
    Json::obj(times.iter().map(|(name, t)| {
        (
            *name,
            Json::obj([
                ("count", Json::from(t.count)),
                ("total_ns", Json::from(t.total_ns)),
                ("self_ns", Json::from(t.self_ns)),
            ]),
        )
    }))
}

fn print_metrics(defs: &[MetricDef], values: &Json) {
    for d in defs {
        let v = values
            .get(d.name)
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        eprintln!("  {:<36} {:>16.4} {}", d.name, v, d.unit);
    }
}

fn print_layer_times(times: &BTreeMap<&'static str, LayerTime>) {
    eprintln!(
        "  {:<28} {:>9} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, t) in times {
        eprintln!(
            "  {:<28} {:>9} {:>12.3} {:>12.3}",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    for root in ["probe.get", "probe.scan_long"] {
        if let Some(t) = times.get(root).filter(|t| t.total_ns > 0) {
            eprintln!(
                "  layer calls cover {:.3} of {root}",
                1.0 - t.self_ns as f64 / t.total_ns as f64
            );
        }
    }
}

/// Run one workload in this process. Prints every metric by name to
/// stderr, writes the run file, and prints the result object as the last
/// line of stdout. `Ok(false)` when an answer was wrong.
pub fn run_one(p: &Params) -> Result<bool, String> {
    // Before the workload pins its thread, which changes what `nproc` says.
    let environment = environment();
    let out = workloads::run(p)?;
    let correct = out.tally.wrong == 0;
    for msg in &out.tally.messages {
        eprintln!("{}: {msg}", p.workload);
    }
    let end_to_end = out.metrics.to_json(END_TO_END)?;
    let per_layer = out.metrics.to_json(PER_LAYER)?;

    eprintln!(
        "{} seed {} seconds {} trace {}: attempted {} failed {} correct {}",
        p.workload,
        p.seed,
        p.seconds,
        u8::from(p.trace),
        out.tally.attempted,
        out.tally.failed(),
        correct
    );
    if p.trace {
        print_metrics(PER_LAYER, &per_layer);
        print_layer_times(&out.layer_times);
    } else {
        print_metrics(END_TO_END, &end_to_end);
    }

    let mut record = vec![
        ("workload".to_owned(), Json::str(p.workload.as_str())),
        ("seed".to_owned(), Json::from(p.seed)),
        ("seconds".to_owned(), Json::Num(p.seconds)),
        ("trace".to_owned(), Json::Bool(p.trace)),
        ("smoke".to_owned(), Json::Bool(p.smoke)),
        ("environment".to_owned(), environment),
        ("sizes".to_owned(), Sizes::new(p.smoke).to_json()),
    ];
    record.extend(out.record);
    let file = Json::obj([
        ("record", Json::Obj(record)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(out.tally.attempted)),
        ("failed", Json::from(out.tally.failed())),
        ("end_to_end", end_to_end.clone()),
        ("per_layer", per_layer.clone()),
        ("layer_times", layer_times_json(&out.layer_times)),
    ]);
    std::fs::create_dir_all(&p.out_dir).map_err(|e| e.to_string())?;
    let path = run_file(&p.out_dir, &p.workload, p.trace);
    std::fs::write(&path, format!("{file}\n")).map_err(|e| format!("{}: {e}", path.display()))?;

    // The contract's result object, as the last line of stdout.
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(out.tally.attempted)),
        ("failed", Json::from(out.tally.failed())),
        ("metrics", if p.trace { per_layer } else { end_to_end }),
    ]);
    println!("{result}");
    Ok(correct)
}

/// The whole set: every workload untraced (`repeat` times), then traced.
pub struct Suite {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub repeat: usize,
    pub corrupt_oracle: bool,
    pub out_dir: PathBuf,
}

/// The metric `trace.overhead_ratio` compares between the two passes.
fn primary_metric(workload: &str) -> &'static str {
    if workload == "ingest_pipeline" {
        "ingest_rows_per_s"
    } else {
        "get_p50_us"
    }
}

fn value_of(run: &Json, table: &str, metric: &str) -> Option<f64> {
    run.get(table)?.get(metric)?.get("value")?.as_f64()
}

impl Suite {
    /// Run one workload in a child process and read back its run file.
    fn child(&self, workload: &str, trace: bool) -> Result<(Json, bool), String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(exe);
        cmd.args(["--workload", workload])
            .args(["--seed", &self.seed.to_string()])
            .args(["--seconds", &self.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--out-dir")
            .arg(&self.out_dir)
            .stdout(Stdio::null());
        if self.smoke {
            cmd.arg("--smoke");
        }
        if self.corrupt_oracle {
            cmd.arg("--corrupt-oracle");
        }
        let status = cmd.status().map_err(|e| e.to_string())?;
        // 0: all answers right; 1: a wrong answer, the run file is there.
        if !matches!(status.code(), Some(0 | 1)) {
            return Err(format!(
                "{workload} (trace {}) ended with {status}",
                u8::from(trace)
            ));
        }
        let path = run_file(&self.out_dir, workload, trace);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok((Json::parse(&text)?, status.success()))
    }
}

pub fn run_all(suite: &Suite) -> Result<bool, String> {
    let mut runs = Vec::new();
    let mut all_correct = true;
    for repeat in 0..suite.repeat {
        for (workload, _) in WORKLOADS {
            eprintln!(
                "== {workload}, untraced, run {} of {}",
                repeat + 1,
                suite.repeat
            );
            let (run, correct) = suite.child(workload, false)?;
            all_correct &= correct;
            runs.push(run);
        }
    }
    let mut overhead = Vec::new();
    for (workload, _) in WORKLOADS {
        eprintln!("== {workload}, traced");
        let (run, correct) = suite.child(workload, true)?;
        all_correct &= correct;
        let metric = primary_metric(workload);
        let untraced = runs
            .iter()
            .find(|r| workload_of(r) == Some(workload))
            .and_then(|r| value_of(r, "end_to_end", metric));
        if let (Some(base), Some(traced)) = (untraced, value_of(&run, "end_to_end", metric)) {
            overhead.push((
                *workload,
                Json::obj([
                    ("metric", Json::str(metric)),
                    ("untraced", Json::Num(base)),
                    ("traced", Json::Num(traced)),
                    ("trace.overhead_ratio", Json::Num(traced / base)),
                ]),
            ));
            eprintln!(
                "  trace.overhead_ratio ({metric}, traced / untraced): {:.4}",
                traced / base
            );
        }
        runs.push(run);
    }

    let summary = summarize(&runs);
    if suite.repeat > 1 {
        print_summary(&summary);
    }
    let doc = Json::obj([
        ("environment", environment()),
        ("seed", Json::from(suite.seed)),
        ("seconds", Json::Num(suite.seconds)),
        ("smoke", Json::Bool(suite.smoke)),
        ("repeat", Json::from(suite.repeat as u64)),
        ("correct", Json::Bool(all_correct)),
        ("trace_overhead", Json::obj(overhead)),
        ("summary", summary_json(&summary)),
        ("runs", Json::Arr(runs)),
    ]);
    let path = suite.out_dir.join("result.json");
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(all_correct)
}

fn workload_of(run: &Json) -> Option<&str> {
    run.get("record")?.get("workload")?.as_str()
}

fn is_traced(run: &Json) -> bool {
    run.get("record").and_then(|r| r.get("trace")) == Some(&Json::Bool(true))
}

/// Untraced values per `(workload, end-to-end metric)`, in table order.
type Summary = Vec<(&'static str, &'static MetricDef, Vec<f64>)>;

fn summarize(runs: &[Json]) -> Summary {
    let mut out = Vec::new();
    for (workload, _) in WORKLOADS {
        for def in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter(|r| !is_traced(r) && workload_of(r) == Some(workload))
                .filter_map(|r| value_of(r, "end_to_end", def.name))
                .collect();
            if !values.is_empty() {
                out.push((*workload, def, values));
            }
        }
    }
    out
}

fn spread_of(values: &[f64]) -> Option<f64> {
    (values.len() >= 2).then(|| spread(values))
}

fn print_summary(summary: &Summary) {
    eprintln!(
        "{:<16} {:<22} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "min", "median", "max", "spread", "bound"
    );
    for (workload, def, values) in summary {
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        eprintln!(
            "{:<16} {:<22} {:>14.4} {:>14.4} {:>14.4} {:>8.4} {:>6.2}",
            workload,
            def.name,
            min,
            median(values),
            max,
            spread_of(values).unwrap_or(0.0),
            def.bound.unwrap_or(0.0)
        );
    }
}

fn summary_json(summary: &Summary) -> Json {
    let mut by_workload: Vec<(&str, Vec<(&str, Json)>)> = Vec::new();
    for (workload, def, values) in summary {
        if by_workload.last().map(|w| w.0) != Some(workload) {
            by_workload.push((workload, Vec::new()));
        }
        let entry = Json::obj([
            ("unit", Json::str(def.unit)),
            ("better", Json::str(def.better.as_str())),
            ("bound", Json::Num(def.bound.unwrap_or(0.0))),
            ("median", Json::Num(median(values))),
            ("spread", spread_of(values).map_or(Json::Null, Json::Num)),
            (
                "values",
                Json::Arr(values.iter().copied().map(Json::Num).collect()),
            ),
        ]);
        by_workload
            .last_mut()
            .expect("just pushed")
            .1
            .push((def.name, entry));
    }
    Json::obj(by_workload.into_iter().map(|(w, m)| (w, Json::obj(m))))
}

// ---- compare -----------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// Judge one metric of one workload. `worse_by` is the share of the base
/// median by which the new median is worse (negative: better). Where either
/// side's run-to-run spread exceeds the bound, the answer is `Unresolved`
/// unless every new run beats every base run.
pub fn verdict(def: &MetricDef, base: &[f64], new: &[f64]) -> (f64, Verdict) {
    let bound = def.bound.unwrap_or(0.0);
    let (b, n) = (median(base), median(new));
    let worse_by = match def.better {
        Better::Lower => (n - b) / b,
        Better::Higher => (b - n) / b,
    };
    let noisy = [base, new]
        .into_iter()
        .filter_map(spread_of)
        .any(|s| s > bound);
    let beats = |x: f64, y: f64| match def.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let v = if noisy {
        if new.iter().all(|x| base.iter().all(|y| beats(*x, *y))) {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (worse_by, v)
}

fn load_summary(path: &Path) -> Result<Summary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no \"runs\"", path.display()))?;
    Ok(summarize(runs))
}

/// Print base, new, ratio, bound and verdict per workload × metric.
/// `Ok(false)` when any metric is worse.
pub fn compare(base: &Path, new: &Path) -> Result<bool, String> {
    let (base, new) = (load_summary(base)?, load_summary(new)?);
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "new", "ratio", "bound"
    );
    let mut any_worse = false;
    for (workload, def, b) in &base {
        let Some((_, _, n)) = new
            .iter()
            .find(|(w, d, _)| w == workload && d.name == def.name)
        else {
            println!(
                "{workload:<16} {:<22} missing from the new result",
                def.name
            );
            any_worse = true;
            continue;
        };
        let (_, v) = verdict(def, b, n);
        any_worse |= v == Verdict::Worse;
        println!(
            "{:<16} {:<22} {:>14.4} {:>14.4} {:>8.4} {:>6.2}  {}",
            workload,
            def.name,
            median(b),
            median(n),
            median(n) / median(b),
            def.bound.unwrap_or(0.0),
            format!("{v:?}").to_lowercase()
        );
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let def = |better| MetricDef {
            name: "m",
            unit: "u",
            better,
            bound: Some(0.10),
        };
        let (lat, tput) = (&def(Better::Lower), &def(Better::Higher));
        assert_eq!(verdict(lat, &[100.0], &[105.0]).1, Verdict::Same);
        assert_eq!(verdict(lat, &[100.0], &[111.0]).1, Verdict::Worse);
        assert_eq!(verdict(lat, &[100.0], &[80.0]).1, Verdict::Better);
        assert_eq!(verdict(tput, &[100.0], &[80.0]).1, Verdict::Worse);
        assert_eq!(verdict(tput, &[100.0], &[120.0]).1, Verdict::Better);
        let (worse_by, _) = verdict(tput, &[100.0], &[80.0]);
        assert!((worse_by - 0.2).abs() < 1e-12);

        // Spread beyond the bound: unresolved, unless every new run beats
        // every base run.
        let noisy = [100.0, 140.0, 80.0, 120.0];
        assert_eq!(
            verdict(lat, &noisy, &[100.0, 101.0, 99.0, 100.0]).1,
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(lat, &noisy, &[50.0, 60.0, 55.0, 52.0]).1,
            Verdict::Better
        );
        // Tight repeats are judged by their medians.
        let tight = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(
            verdict(lat, &tight, &[120.0, 121.0, 119.0, 120.0]).1,
            Verdict::Worse
        );
    }

    #[test]
    fn summaries_group_untraced_runs_by_workload() {
        let run = |w: &str, trace: bool, v: f64| {
            Json::obj([
                (
                    "record",
                    Json::obj([("workload", Json::str(w)), ("trace", Json::Bool(trace))]),
                ),
                (
                    "end_to_end",
                    Json::obj([("get_p50_us", Json::obj([("value", Json::Num(v))]))]),
                ),
            ])
        };
        let runs = [
            run("read_warm", false, 10.0),
            run("read_cold", false, 2000.0),
            run("read_warm", false, 12.0),
            run("read_warm", true, 99.0),
        ];
        let s = summarize(&runs);
        assert_eq!(s.len(), 2);
        assert_eq!(
            (s[0].0, s[0].1.name, s[0].2.as_slice()),
            ("read_warm", "get_p50_us", &[10.0, 12.0][..])
        );
        assert_eq!(s[1].2, vec![2000.0]);
        let j = summary_json(&s);
        let warm = j.get("read_warm").unwrap().get("get_p50_us").unwrap();
        assert_eq!(warm.get("median").unwrap().as_f64(), Some(11.0));
        assert_eq!(
            j.get("read_cold")
                .unwrap()
                .get("get_p50_us")
                .unwrap()
                .get("spread"),
            Some(&Json::Null)
        );
    }
}
