//! The repository's benchmark: four workloads driven in-process through
//! the library crates' public functions, end-to-end metrics from
//! untraced runs and per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_pipeline --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Standard output ends with one JSON line:
//! `{"attempted": .., "correct": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` the per-layer ones. The line before it, starting with
//! `# meta`, records the host, seed, commit and workload parameters.
//! Traced runs also write every span to
//! `perfbench/out/trace-<workload>-seed<seed>.json`.

#![forbid(unsafe_code)]

mod harness;
mod host;
mod trace;
mod workloads;

use harness::{Report, Workload, END_TO_END, PER_LAYER};
use quorum_obs::JsonValue;
use std::process::ExitCode;
use workloads::{cluster::ClusterLossy, mc::ModelCheck, paper::PaperPipeline, shard::ShardSteady};

/// A seed held out from tuning: claims made with this benchmark should
/// also hold on it.
const HELD_OUT_SEED: u64 = 20_260_417;

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !workloads::NAMES.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload {value:?}; expected one of {:?}",
                        workloads::NAMES
                    ));
                }
                workload = Some(value.clone());
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs `w` and returns its report and its parameters.
fn run_one<W: Workload>(w: &W, args: &Args) -> (Report, Vec<(&'static str, String)>) {
    (
        harness::run(w, args.seed, args.seconds, args.trace),
        w.params(),
    )
}

/// The result line. Every metric the benchmark declares for this mode is
/// present, as the benchmark's output format requires; a per-layer metric of a
/// layer this workload does not cross reads 0 and is absent from the
/// metadata's `measured` list.
fn result_line(report: &Report, trace: bool) -> JsonValue {
    let mut metrics = JsonValue::object();
    let (declared, values): (&[(&str, &str)], _) = if trace {
        (&PER_LAYER[..], &report.per_layer)
    } else {
        (&END_TO_END[..], &report.end_to_end)
    };
    for &(name, unit) in declared {
        let mut m = JsonValue::object();
        m.insert(
            "value",
            JsonValue::Num(values.get(name).copied().unwrap_or(0.0)),
        );
        m.insert("unit", JsonValue::Str(unit.to_string()));
        metrics.insert(name, m);
    }
    let mut line = JsonValue::object();
    line.insert("correct", JsonValue::Bool(report.correct));
    line.insert("attempted", JsonValue::Int(report.attempted));
    line.insert("failed", JsonValue::Int(report.failed));
    line.insert("metrics", metrics);
    line
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (report, params) = match args.workload.as_str() {
        "paper_pipeline" => run_one(&PaperPipeline::bench(), &args),
        "shard_steady" => run_one(&ShardSteady::bench(), &args),
        "cluster_lossy" => run_one(&ClusterLossy::bench(), &args),
        "model_check" => run_one(&ModelCheck::bench(), &args),
        _ => unreachable!("parse_args accepts only known workloads"),
    };

    let mut meta = report.meta.clone();
    meta.insert("workload", JsonValue::Str(args.workload.clone()));
    meta.insert("seed", JsonValue::Int(args.seed));
    meta.insert("held_out_seed", JsonValue::Int(HELD_OUT_SEED));
    meta.insert("seconds", JsonValue::Num(args.seconds));
    meta.insert("trace", JsonValue::Bool(args.trace));
    meta.insert("commit", JsonValue::Str(host::commit()));
    meta.insert("nproc", JsonValue::Int(host::nproc() as u64));
    meta.insert("cpu_model", JsonValue::Str(host::cpu_model()));
    let mut p = JsonValue::object();
    for (k, v) in params {
        p.insert(k, JsonValue::Str(v));
    }
    meta.insert("params", p);
    if args.trace {
        let measured = report.per_layer.keys().cloned().map(JsonValue::Str);
        meta.insert("measured", JsonValue::Array(measured.collect()));
    }

    if let Some(spans) = &report.spans {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace-{}-seed{}.json", args.workload, args.seed);
        let mut doc = JsonValue::object();
        doc.insert("meta", meta.clone());
        doc.insert("spans", spans.clone());
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, doc.to_string_compact()));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {path}: {e}");
        }
    }

    println!("# meta {}", meta.to_string_compact());
    println!("{}", result_line(&report, args.trace).to_string_compact());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::{valid_metric_name, HARNESS_LAYER};
    use std::collections::BTreeSet;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload model_check --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "model_check".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload model_check --seed x --seconds 1 --trace 0",
            "--workload model_check --seed 1 --seconds 0 --trace 0",
            "--workload model_check --seed 1 --seconds 1 --trace 2",
            "--workload model_check --seed 1 --seconds 1",
            "--workload model_check --seed 1 --seconds 1 --trace",
            "--workload model_check --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// The metric schema in `BENCHMARK.json` is exactly the harness's.
    #[test]
    fn benchmark_json_declares_the_harness_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = JsonValue::parse(text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| {
                        m.get(f)
                            .and_then(JsonValue::as_str)
                            .expect("string")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |v: &[(&str, &str)]| -> Vec<(String, String)> {
            v.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let names: Vec<String> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(names, workloads::NAMES);
    }

    /// Each workload's declaration, the per-layer table and the
    /// workloads together account for every per-layer metric.
    #[test]
    fn per_layer_table_is_the_union_of_workload_declarations() {
        let mut union: BTreeSet<&str> = HARNESS_LAYER.into_iter().collect();
        union.extend(PaperPipeline::bench().layer_metrics());
        union.extend(ShardSteady::bench().layer_metrics());
        union.extend(ClusterLossy::bench().layer_metrics());
        union.extend(ModelCheck::bench().layer_metrics());
        let table: BTreeSet<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(union, table);
        assert!(union.iter().all(|n| valid_metric_name(n)));
    }

    fn measured<W: Workload>(w: &W) -> (Report, BTreeSet<String>) {
        let report = harness::run(w, 3, 1e-9, true);
        let keys = report.per_layer.keys().cloned().collect();
        (report, keys)
    }

    fn declared<W: Workload>(w: &W) -> BTreeSet<String> {
        w.layer_metrics()
            .iter()
            .chain(HARNESS_LAYER.iter())
            .map(|s| s.to_string())
            .collect()
    }

    /// A traced run of each workload measures exactly its declared
    /// per-layer metrics, and an untraced run exactly the end-to-end ones.
    #[test]
    fn each_workload_measures_exactly_its_declared_metrics() {
        let (r, keys) = measured(&PaperPipeline::tiny());
        assert_eq!(keys, declared(&PaperPipeline::tiny()));
        assert!(!keys.contains("mc.states"));
        assert!(r.attempted >= 4);
        let (_, keys) = measured(&ShardSteady::tiny());
        assert_eq!(keys, declared(&ShardSteady::tiny()));
        let (_, keys) = measured(&ClusterLossy::tiny());
        assert_eq!(keys, declared(&ClusterLossy::tiny()));
        let (r, keys) = measured(&ModelCheck::tiny());
        assert_eq!(keys, declared(&ModelCheck::tiny()));
        assert!(!keys.contains("replica.simulate_s"));
        assert!(r.correct && r.failed == 0, "{r:?}");

        let untraced = harness::run(&ModelCheck::tiny(), 3, 1e-9, false);
        let e2e: BTreeSet<&str> = untraced.end_to_end.keys().map(String::as_str).collect();
        assert_eq!(e2e, END_TO_END.iter().map(|m| m.0).collect());
        assert!(untraced.per_layer.is_empty());
        assert!(
            untraced.end_to_end.values().all(|&v| v > 0.0),
            "{untraced:?}"
        );
    }

    #[test]
    fn result_line_has_exactly_the_output_keys() {
        let report = harness::run(&ModelCheck::tiny(), 3, 1e-9, false);
        let line = result_line(&report, false);
        let JsonValue::Object(top) = &line else {
            panic!("object expected")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let traced = harness::run(&ModelCheck::tiny(), 3, 1e-9, true);
        let JsonValue::Object(m) = result_line(&traced, true)
            .get("metrics")
            .cloned()
            .expect("metrics")
        else {
            panic!("object expected")
        };
        assert_eq!(m.len(), PER_LAYER.len());
    }
}
