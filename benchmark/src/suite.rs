//! `--workload all`: every workload in a process of its own (so
//! `peak_rss_mb` is per workload), first timed, then traced; a merged
//! summary with end-to-end metrics first; and with `--sets N` the
//! repeatability self-check — timed end-to-end metrics must agree within
//! the bounds `BENCHMARK.json` fixes, exact counts must not differ at all.

use crate::json::{as_f64, read_file, Json};
use crate::metrics::{Def, Kind, END_TO_END, PER_LAYER};
use crate::{ingest, package_dir, Args};
use shc_core::json::parse_json;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

pub fn workload_names() -> Vec<&'static str> {
    crate::workloads::QUERY_WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain([ingest::NAME])
        .collect()
}

fn manifest() -> Result<Json, String> {
    read_file(&package_dir().join("../BENCHMARK.json"))
}

/// `run_seconds` of `BENCHMARK.json`: how long one run measures unless
/// `--seconds` says otherwise.
pub fn run_seconds() -> Result<f64, String> {
    manifest()?
        .get("run_seconds")
        .and_then(as_f64)
        .ok_or_else(|| "BENCHMARK.json has no run_seconds".to_string())
}

/// The regression bound of each end-to-end metric, after checking that
/// `BENCHMARK.json` and the tables in `metrics.rs` name the same metrics
/// with the same units and directions, and the same workloads.
fn bounds(manifest: &Json) -> Result<BTreeMap<String, f64>, String> {
    let mut bounds = BTreeMap::new();
    for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = manifest
            .get(section)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no {section}"))?;
        let describe = |d: &Def| format!("{} [{}] {}", d.name, d.unit, d.better);
        let mut ours: Vec<String> = defs.iter().map(describe).collect();
        let mut theirs: Vec<String> = listed
            .iter()
            .map(|m| {
                let field = |k| m.get_str(k).unwrap_or("?");
                format!("{} [{}] {}", field("name"), field("unit"), field("better"))
            })
            .collect();
        ours.sort();
        theirs.sort();
        if ours != theirs {
            return Err(format!(
                "BENCHMARK.json {section} and metrics.rs disagree:\n  json: {theirs:?}\n  code: {ours:?}"
            ));
        }
        for m in listed {
            if let (Some(name), Some(bound)) = (m.get_str("name"), m.get("bound").and_then(as_f64))
            {
                bounds.insert(name.to_string(), bound);
            }
        }
    }
    let listed: Vec<&str> = manifest
        .get("workloads")
        .and_then(Json::as_array)
        .map(|ws| ws.iter().filter_map(|w| w.get_str("name")).collect())
        .unwrap_or_default();
    if listed != workload_names() {
        return Err(format!(
            "BENCHMARK.json workloads {listed:?} are not {:?}",
            workload_names()
        ));
    }
    Ok(bounds)
}

/// One child run; returns its metric values by name.
fn run_child(
    workload: &str,
    args: &Args,
    seconds: f64,
    trace: bool,
) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = parse_json(last).map_err(|e| format!("{workload}: no result line: {e}"))?;
    if !output.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{workload} --trace {}: {} with result {last}",
            u8::from(trace),
            output.status
        ));
    }
    let metrics = result
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or_else(|| format!("{workload}: result has no metrics"))?;
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value").and_then(as_f64)?)))
        .collect())
}

/// metric → workload → one value per set.
type Table = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn print_section(title: &str, defs: &[Def], table: &Table) {
    println!("\n== {title} ==");
    print!("{:<46} {:<7}", "metric", "unit");
    for workload in workload_names() {
        print!(" {workload:>16}");
    }
    println!();
    for def in defs {
        let sets = table
            .get(def.name)
            .and_then(|by_workload| by_workload.values().map(Vec::len).max())
            .unwrap_or(0);
        for set in 0..sets {
            let label = if sets > 1 {
                format!("{} #{}", def.name, set + 1)
            } else {
                def.name.to_string()
            };
            print!("{label:<46} {:<7}", def.unit);
            for workload in workload_names() {
                match table
                    .get(def.name)
                    .and_then(|w| w.get(workload))
                    .and_then(|v| v.get(set))
                {
                    Some(value) => print!(" {value:>16.4}"),
                    None => print!(" {:>16}", "-"),
                }
            }
            println!();
        }
    }
}

pub fn run(args: &Args) -> ExitCode {
    match run_sets(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn run_sets(args: &Args) -> Result<bool, String> {
    let manifest = manifest()?;
    let bounds = bounds(&manifest)?;
    let seconds = args.seconds.map_or_else(run_seconds, Ok)?;
    let mut table: Table = BTreeMap::new();
    for set in 1..=args.sets {
        for workload in workload_names() {
            for trace in [false, true] {
                eprintln!(
                    "set {set}/{}: {workload} --trace {} --seed {} --seconds {seconds}",
                    args.sets,
                    u8::from(trace),
                    args.seed
                );
                for (name, value) in run_child(workload, args, seconds, trace)? {
                    table
                        .entry(name)
                        .or_default()
                        .entry(workload.to_string())
                        .or_default()
                        .push(value);
                }
            }
        }
    }
    print_section("end to end (tracing off)", END_TO_END, &table);
    print_section("per layer (traced pass)", PER_LAYER, &table);

    // The paper's headline ratio, for reading; its good direction is
    // ambiguous, so it is derived here and not gated.
    let p50 = |workload: &str| table.get("op_ms_p50")?.get(workload)?.first().copied();
    if let (Some(generic), Some(shc)) = (p50("fig4_generic"), p50("fig4_shc")) {
        println!(
            "\nfig4_speedup = fig4_generic.op_ms_p50 / fig4_shc.op_ms_p50 = {generic:.3} / {shc:.3} = {:.3}",
            generic / shc
        );
    }
    if args.sets < 2 {
        return Ok(true);
    }

    println!("\n== repeatability over {} sets ==", args.sets);
    let mut agreed = true;
    for def in END_TO_END.iter().chain(PER_LAYER) {
        for (workload, values) in table.get(def.name).into_iter().flatten() {
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let verdict = match (def.kind, bounds.get(def.name)) {
                (Kind::Exact, _) if lo != hi => "DIFFERS (exact metric)",
                (Kind::Measured, Some(&bound)) if hi - lo > bound * lo.abs() => "OUT OF BOUND",
                _ => continue,
            };
            agreed = false;
            println!("{:<46} {workload:<16} {lo} .. {hi}  {verdict}", def.name);
        }
    }
    println!(
        "{}",
        if agreed {
            "every timed end-to-end metric within its bound, every exact metric identical"
        } else {
            "sets disagree"
        }
    );
    Ok(agreed)
}
