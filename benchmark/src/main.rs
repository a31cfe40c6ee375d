//! The repo benchmark. One process runs one workload:
//!
//! ```text
//! shc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times the workload with the program's tracing off and
//! reports the end-to-end metrics; `--trace 1` is the traced pass that
//! reports the per-layer metrics. `--workload all [--sets N]` runs every
//! workload in a process of its own, both ways, and with `--sets 2` is the
//! repeatability self-check. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`.

mod ingest;
mod json;
mod layers;
mod metrics;
mod oracle;
mod spans;
mod stats;
mod suite;
mod trace;
mod workloads;

use json::{num, obj, text, Json};
use metrics::{Def, Values, END_TO_END, PER_LAYER};
use shc_core::conn_cache::ConnectionCache;
use stats::{median, percent_over, percentile, quietest, ratio, sorted};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{QueryWorkload, QUERY_WORKLOADS};

/// Default seed; `7` is the held-out seed no calibration used.
const DEFAULT_SEED: u64 = 2018;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// `None`: take `run_seconds` from `BENCHMARK.json`.
    pub seconds: Option<f64>,
    pub trace: bool,
    pub sets: usize,
}

/// What one run of one workload produced.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    values: Values,
    /// Sample counts, quartiles, configuration: context for the result
    /// file, not metrics.
    detail: Vec<(&'static str, Json)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        sets: 1,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--sets" => {
                args.sets = value.parse().map_err(|_| bad("a whole number"))?;
                if !(1..=10).contains(&args.sets) {
                    return Err(bad("between 1 and 10"));
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload <name|all> is required".into());
    }
    Ok(args)
}

/// `benchmark/`, as compiled: results go to `out/` beneath it.
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Count, quartiles and extremes of a sample, for the result file.
fn distribution(samples: &[f64]) -> Json {
    if samples.is_empty() {
        return obj(vec![("n", num(0.0))]);
    }
    let s = sorted(samples.to_vec());
    obj(vec![
        ("n", num(s.len() as f64)),
        ("min", num(s[0])),
        ("q1", num(percentile(&s, 0.25))),
        ("median", num(percentile(&s, 0.5))),
        ("q3", num(percentile(&s, 0.75))),
        ("max", num(s[s.len() - 1])),
    ])
}

/// The end-to-end metrics every workload reports, from the op samples of
/// the quietest quarter of its cycles.
fn end_to_end(quiet_op_ms: &[f64], setup_s: &[f64], values: &mut Values) {
    values.set("op_ms_p50", median(quiet_op_ms));
    values.set("setup_s", median(setup_s));
    values.set("peak_rss_mb", peak_rss_mb());
}

/// Set up `times` times, keeping the last environment; `setup_s` is the
/// median.
fn set_up<E>(times: usize, mut setup: impl FnMut() -> E) -> (E, Vec<f64>) {
    let mut seconds = Vec::new();
    let mut env = None;
    for _ in 0..times.max(1) {
        drop(env.take());
        // The connector's process-wide connection cache keeps a dropped
        // cluster alive for its ten-minute close delay; without this,
        // `peak_rss_mb` would count every set-up's environment, not one.
        ConnectionCache::global().evict_idle(Duration::ZERO);
        let started = Instant::now();
        env = Some(setup());
        seconds.push(started.elapsed().as_secs_f64());
    }
    (env.expect("set up at least once"), seconds)
}

fn query_config(spec: &QueryWorkload) -> Json {
    obj(vec![
        ("why", text(spec.why)),
        ("scale_gb", num(spec.scale_gb)),
        ("source", text(&format!("{:?}", spec.source))),
        ("queries", text(&format!("{:?}", spec.queries))),
        ("servers", num(spec.servers as f64)),
        (
            "network",
            text(if spec.gigabit { "gigabit" } else { "off" }),
        ),
        ("block_cache_bytes", num(spec.block_cache_bytes as f64)),
        (
            "store_files_per_region",
            num(spec.store_files_per_region as f64),
        ),
        (
            "flush_policy",
            text("inline; flush_all after each load part"),
        ),
        ("setups_per_run", num(spec.setups as f64)),
        ("executors", num(workloads::EXECUTORS as f64)),
        ("clients", num(1.0)),
        ("loop", text("closed")),
    ])
}

fn ingest_config() -> Json {
    obj(vec![
        ("why", text(ingest::WHY)),
        ("scale_gb", num(ingest::SCALE_GB)),
        ("rounds", num(ingest::ROUNDS as f64)),
        ("batch_rows", num(ingest::BATCH_ROWS as f64)),
        ("servers", num(ingest::SERVERS as f64)),
        ("network", text("off")),
        (
            "memstore_flush_bytes",
            num(ingest::MEMSTORE_FLUSH_BYTES as f64),
        ),
        ("flush_policy", text("inline (background_flush: false)")),
        ("readbacks_per_cycle", num(ingest::READBACKS as f64)),
        ("setups_per_run", num(ingest::SETUPS as f64)),
        ("executors", num(workloads::EXECUTORS as f64)),
        ("clients", num(1.0)),
        ("loop", text("closed")),
    ])
}

fn run_query(spec: &'static QueryWorkload, args: &Args, seconds: f64) -> Outcome {
    let mut values = Values::default();
    let mut detail = vec![("config", query_config(spec))];
    if !args.trace {
        let (env, setup_s) = set_up(spec.setups, || spec.setup(args.seed));
        let (op_ms, failed) = env.cycle.run_for(&env.session, seconds);
        let quiet_op_ms = quietest(&op_ms, env.cycle.queries.len());
        end_to_end(&quiet_op_ms, &setup_s, &mut values);
        detail.push(("op_ms", distribution(&op_ms)));
        detail.push(("quiet_op_ms", distribution(&quiet_op_ms)));
        detail.push(("setup_s", distribution(&setup_s)));
        return Outcome {
            attempted: op_ms.len() as u64,
            failed,
            values,
            detail,
        };
    }

    // The traced pass: an untraced reference, the traced ops, the scan
    // probe where there is a store to probe, the tracing-overhead probe.
    let env = spec.setup(args.seed);
    let (ops_share, probe_share, overhead_share) = match env.cluster {
        Some(_) => (0.3, 0.25, 0.15),
        None => (0.4, 0.0, 0.2),
    };
    let (reference_ms, mut failed) = env.cycle.run_for(&env.session, seconds * ops_share);
    let mut attempted = reference_ms.len() as u64;
    let per_cycle = env.cycle.queries.len();
    let quiet_reference_ms = sorted(quietest(&reference_ms, per_cycle));
    values.set(
        "bench.ops_per_s",
        ratio(
            quiet_reference_ms.len() as f64 * 1e3,
            quiet_reference_ms.iter().sum(),
        ),
    );
    values.set("bench.op_ms_p90", percentile(&quiet_reference_ms, 0.9));
    values.set("bench.op_ms_p99", percentile(&quiet_reference_ms, 0.99));

    env.session.metrics.reset();
    if let Some(cluster) = &env.cluster {
        cluster.metrics.reset();
    }
    let mut rec = spans::Recorder::default();
    let mut query_spans = trace::QuerySpans::default();
    failed += query_spans.run(&mut rec, &env.session, &env.cycle, seconds * ops_share);
    attempted += query_spans.op_ms.len() as u64;
    let store = env
        .cluster
        .as_ref()
        .map(|cluster| cluster.metrics.snapshot())
        .unwrap_or_default();
    let mut phases = layers::Phases {
        client: store,
        client_ops: query_spans.op_ms.len() as u64,
        read: store,
        engine: env.session.metrics.snapshot(),
        read_ops: query_spans.op_ms.len() as u64,
        result_rows: query_spans.result_rows,
        write: store,
        recovery: store,
        ..Default::default()
    };
    if let Some(cluster) = &env.cluster {
        layers::end_state(cluster, &mut phases);
        failed += trace::scan_probe(
            &mut rec,
            cluster,
            &env.probe_params,
            seconds * probe_share,
            &mut values,
        );
    }
    let mut overhead = trace::TraceOverhead::default();
    failed += overhead.run(
        &trace::default_traced_session(&env),
        &env.session,
        &env.cycle,
        seconds * overhead_share,
    );

    layers::record(&phases, &mut values);
    query_spans.record(&mut values);
    overhead.record(&mut values);
    values.set(
        "bench.unattributed_pct",
        rec.unattributed_pct(trace::QUERY_OP),
    );
    values.set(
        "bench.trace_overhead_pct",
        percent_over(
            median(&quietest(&query_spans.op_ms, per_cycle)),
            median(&quiet_reference_ms),
        ),
    );
    detail.push(("reference_op_ms", distribution(&reference_ms)));
    detail.push(("traced_op_ms", distribution(&query_spans.op_ms)));
    finish_trace(&rec, &trace_path(spec.name), &mut detail, &mut failed);
    values.set("bench.error_rate", ratio(failed as f64, attempted as f64));
    Outcome {
        attempted,
        failed,
        values,
        detail,
    }
}

fn run_ingest(args: &Args, seconds: f64) -> Outcome {
    let mut values = Values::default();
    let mut detail = vec![("config", ingest_config())];
    let out = out_dir();
    if !args.trace {
        let (mut env, setup_s) =
            set_up(ingest::SETUPS, || ingest::IngestEnv::setup(args.seed, &out));
        let run = env.run_for(seconds, None);
        let quiet_op_ms = quietest(&run.batch_ms, ingest::BATCHES_PER_CYCLE);
        end_to_end(&quiet_op_ms, &setup_s, &mut values);
        detail.push(("op_ms", distribution(&run.batch_ms)));
        detail.push(("quiet_op_ms", distribution(&quiet_op_ms)));
        detail.push(("setup_s", distribution(&setup_s)));
        detail.push(("readback_ms", distribution(&run.readback_ms)));
        detail.push(("recovery_ms", distribution(&run.recovery_ms)));
        return Outcome {
            attempted: run.attempted,
            failed: run.failed,
            values,
            detail,
        };
    }

    let mut env = ingest::IngestEnv::setup(args.seed, &out);
    let reference = env.run_for(seconds * 0.4, None);
    let mut spans = ingest::IngestSpans::default();
    let traced = env.run_for(seconds * 0.6, Some(&mut spans));
    let attempted = reference.attempted + traced.attempted;
    let mut failed = reference.failed + traced.failed;

    let batch_ms = sorted(quietest(&reference.batch_ms, ingest::BATCHES_PER_CYCLE));
    let batches_per_s = ratio(batch_ms.len() as f64 * 1e3, batch_ms.iter().sum());
    values.set("bench.ops_per_s", batches_per_s);
    values.set("bench.op_ms_p90", percentile(&batch_ms, 0.9));
    values.set("bench.op_ms_p99", percentile(&batch_ms, 0.99));
    values.set(
        "bench.ingest.rows_per_s",
        batches_per_s * ingest::BATCH_ROWS as f64,
    );
    values.set("bench.ingest.recovery_ms", median(&reference.recovery_ms));
    let readback_ms = sorted(reference.readback_ms.clone());
    values.set(
        "bench.ingest.readback_ms_p50",
        percentile(&readback_ms, 0.5),
    );
    values.set(
        "bench.ingest.readback_ms_p90",
        percentile(&readback_ms, 0.9),
    );
    values.set("bench.ingest.space_amp", reference.space_amp);
    values.merge(std::mem::take(&mut spans.probe_values));
    layers::record(&reference.phases, &mut values);
    spans.queries.record(&mut values);
    spans.overhead.record(&mut values);
    spans.record(&mut values);
    values.set(
        "bench.unattributed_pct",
        spans.rec.unattributed_pct(ingest::BATCH_OP),
    );
    values.set(
        "bench.trace_overhead_pct",
        percent_over(
            // The first batch of a traced cycle goes through `write_rows`.
            median(&quietest(&spans.batch_op_ms, ingest::BATCHES_PER_CYCLE - 1)),
            median(&batch_ms),
        ),
    );
    detail.push(("reference_op_ms", distribution(&batch_ms)));
    detail.push(("traced_op_ms", distribution(&spans.batch_op_ms)));
    detail.push(("recovery_ms", distribution(&reference.recovery_ms)));
    finish_trace(
        &spans.rec,
        &trace_path(ingest::NAME),
        &mut detail,
        &mut failed,
    );
    values.set("bench.error_rate", ratio(failed as f64, attempted as f64));
    Outcome {
        attempted,
        failed,
        values,
        detail,
    }
}

fn trace_path(workload: &str) -> PathBuf {
    out_dir().join(format!("{workload}.trace.json"))
}

/// Write the Chrome trace and put the per-layer table in the result file.
/// A trace that does not write or re-parse fails the run.
fn finish_trace(
    rec: &spans::Recorder,
    path: &Path,
    detail: &mut Vec<(&'static str, Json)>,
    failed: &mut u64,
) {
    if let Err(e) = json::write_file(path, &rec.to_chrome_json()) {
        eprintln!("{e}");
        *failed += 1;
    }
    let table = rec.layer_table();
    println!(
        "{:<34} {:>8} {:>14} {:>14}",
        "span", "count", "total_us", "self_us"
    );
    let mut rows = Vec::new();
    for (name, (count, total_us, self_us)) in &table {
        println!("{name:<34} {count:>8} {total_us:>14.1} {self_us:>14.1}");
        rows.push(obj(vec![
            ("span", text(name)),
            ("count", num(*count as f64)),
            ("total_us", num(*total_us)),
            ("self_us", num(*self_us)),
        ]));
    }
    detail.push(("layer_table", Json::Array(rows)));
    detail.push(("trace_file", text(&path.display().to_string())));
}

fn metrics_json(values: &Values, defs: &[Def]) -> Json {
    Json::Object(
        values
            .in_order(defs)
            .map(|(def, value)| {
                (
                    def.name.to_string(),
                    obj(vec![("value", num(value)), ("unit", text(def.unit))]),
                )
            })
            .collect(),
    )
}

/// Print every metric by name with its unit, store the result file, and
/// end with the one-line result object.
fn emit(args: &Args, seconds: f64, outcome: Outcome) -> Result<bool, String> {
    let (section, defs) = if args.trace {
        ("per_layer", PER_LAYER)
    } else {
        ("end_to_end", END_TO_END)
    };
    for (def, value) in outcome.values.in_order(defs) {
        println!("{:<48} {value:>18.4} {}", def.name, def.unit);
    }
    let correct = outcome.failed == 0;
    let metrics = metrics_json(&outcome.values, defs);
    let result = obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", num(outcome.attempted as f64)),
        ("failed", num(outcome.failed as f64)),
        ("metrics", metrics.clone()),
    ]);

    // One result file per workload; the two passes each own a section, and
    // a section from another seed is dropped rather than mixed in.
    let path = out_dir().join(format!("{}.json", args.workload));
    let other = if args.trace {
        "end_to_end"
    } else {
        "per_layer"
    };
    let mut sections: Vec<(String, Json)> = json::read_file(&path)
        .ok()
        .filter(|file| file.get("seed").and_then(json::as_f64) == Some(args.seed as f64))
        .and_then(|file| Some((other.to_string(), file.get(other)?.clone())))
        .into_iter()
        .collect();
    let mut body = vec![
        ("seconds".to_string(), num(seconds)),
        ("attempted".to_string(), num(outcome.attempted as f64)),
        ("failed".to_string(), num(outcome.failed as f64)),
        ("metrics".to_string(), metrics),
    ];
    body.extend(outcome.detail.into_iter().map(|(k, v)| (k.to_string(), v)));
    sections.push((section.to_string(), Json::Object(body)));
    sections.sort_by(|a, b| a.0.cmp(&b.0));
    let mut file = vec![
        ("workload".to_string(), text(&args.workload)),
        ("seed".to_string(), num(args.seed as f64)),
    ];
    file.extend(sections);
    json::write_file(&path, &Json::Object(file))?;

    println!("{}", json::render_checked(&result)?);
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("create {}: {e}", out_dir().display());
        return ExitCode::from(2);
    }
    if args.workload == "all" {
        return suite::run(&args);
    }
    let seconds = match args.seconds.map_or_else(suite::run_seconds, Ok) {
        Ok(seconds) => seconds,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.workload == ingest::NAME {
        run_ingest(&args, seconds)
    } else {
        match QUERY_WORKLOADS.iter().find(|w| w.name == args.workload) {
            Some(spec) => run_query(spec, &args, seconds),
            None => {
                eprintln!(
                    "unknown workload {:?}; one of: all {}",
                    args.workload,
                    suite::workload_names().join(" ")
                );
                return ExitCode::from(2);
            }
        }
    };
    match emit(&args, seconds, outcome) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
