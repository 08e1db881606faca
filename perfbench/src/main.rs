//! perfbench — wall-clock benchmark of the ml4db request path and the
//! durable store.
//!
//! ```text
//! perfbench --workload <serve_templates|adhoc_plan|kv_ingest> --seed <n>
//!           --seconds <s> --trace <0|1> [--perturb-reference]
//! ```
//!
//! With `--trace 0` a run drives the workload through the real entry
//! points for `--seconds`, in cycles of a fixed size that each set the
//! workload up afresh (`setup_s` is the median set-up), checks every
//! output against a reference and prints the end-to-end metrics. With
//! `--trace 1` it does one untraced run of half that length, then
//! replays that run's exact request stream through the layer entry
//! points twice, once recording spans and once not, and prints the
//! per-layer metrics; spans and the layer table are written under
//! `perfbench/out/`. `--perturb-reference` corrupts one reference
//! value so the output check must fail (the smoke test's negative
//! control).
//! The last line of standard output is the result as one JSON object;
//! a failed check prints no result and exits with status 1.

mod kv;
mod medium;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde_json::Value;

use stats::Host;

/// End-to-end metrics every workload reports, with units. Each workload
/// maps them onto its own operations (see `perfbench/README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("recovery_us_per_krec", "us/krec"),
    ("disk_bytes_per_record", "B"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics of a traced run, with units. A layer a workload
/// bypasses reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.trace_overhead", "ratio"),
    ("serve.calls", "count"),
    ("serve.busy_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("serve.submit_us", "us"),
    ("serve.wait_us", "us"),
    ("serve.journal_sync_ms", "ms"),
    ("serve.admission.calls", "count"),
    ("serve.admission.busy_ms", "ms"),
    ("serve.admission.self_ms", "ms"),
    ("serve.admission.offer_us", "us"),
    ("serve.admission.pop_us", "us"),
    ("serve.admission.shed_ratio", "ratio"),
    ("optimizer.session.calls", "count"),
    ("optimizer.session.busy_ms", "ms"),
    ("optimizer.session.self_ms", "ms"),
    ("optimizer.session.hit_ratio", "ratio"),
    ("optimizer.session.lookup_us", "us"),
    ("plan.cache.calls", "count"),
    ("plan.cache.busy_ms", "ms"),
    ("plan.cache.self_ms", "ms"),
    ("plan.cache.hit_ratio", "ratio"),
    ("plan.cache.entries", "count"),
    ("plan.enumerate.calls", "count"),
    ("plan.enumerate.busy_ms", "ms"),
    ("plan.enumerate.self_ms", "ms"),
    ("plan.enumerate.p50_us", "us"),
    ("plan.executor.calls", "count"),
    ("plan.executor.busy_ms", "ms"),
    ("plan.executor.self_ms", "ms"),
    ("plan.executor.p50_us", "us"),
    ("plan.executor.p99_us", "us"),
    ("plan.executor.rows_out", "count"),
    ("plan.executor.wall_per_sim", "ratio"),
    ("storage.exec.tuples", "count"),
    ("storage.exec.comparisons", "count"),
    ("storage.exec.hash_builds", "count"),
    ("storage.exec.hash_probes", "count"),
    ("storage.exec.sort_ops", "count"),
    ("storage.exec.pages_read", "count"),
    ("storage.store.calls", "count"),
    ("storage.store.busy_ms", "ms"),
    ("storage.store.self_ms", "ms"),
    ("storage.store.flushes", "count"),
    ("storage.store.flush_ms", "ms"),
    ("storage.store.runs", "count"),
    ("storage.store.recovery_wal_records", "count"),
    ("storage.store.recovery_runs_loaded", "count"),
    ("storage.wal.busy_ms", "ms"),
    ("storage.wal.self_ms", "ms"),
    ("storage.wal.appends", "count"),
    ("storage.wal.append_us", "us"),
    ("storage.wal.bytes_per_record", "B"),
    ("storage.wal.fsyncs", "count"),
    ("storage.wal.sync_us", "us"),
    ("storage.run.calls", "count"),
    ("storage.run.busy_ms", "ms"),
    ("storage.run.self_ms", "ms"),
    ("storage.run.learned_ratio", "ratio"),
    ("storage.run.get_hit_ns", "ns"),
    ("storage.run.get_miss_ns", "ns"),
    ("storage.run.binary_hit_ns", "ns"),
    ("storage.run.binary_miss_ns", "ns"),
    ("storage.run.learned_over_binary", "ratio"),
];

/// One reported number: its value and how many samples it summarises.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Value in the unit the metric table gives.
    pub value: f64,
    /// Samples behind it (1 for a single measurement).
    pub samples: u64,
}

impl Metric {
    /// A metric over `samples` samples.
    pub fn new(value: f64, samples: usize) -> Self {
        Self {
            value,
            samples: samples as u64,
        }
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Report {
    /// Operations attempted in the measured run.
    pub attempted: u64,
    /// Operations that did not succeed.
    pub failed: u64,
    /// Metric values by name; must cover the table of the run's mode.
    pub metrics: Vec<(&'static str, Metric)>,
    /// Issue-level names of the end-to-end metrics, printed beside them.
    pub aliases: Vec<(&'static str, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    ///
    /// # Panics
    /// Panics on a name that is in neither metric table (a typo here
    /// would otherwise report the real metric as bypassed).
    pub fn put(&mut self, name: &'static str, m: Metric) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.push((name, m));
    }

    /// Records `<layer>.calls`, `.busy_ms` and `.self_ms` for every layer
    /// of [`PER_LAYER`] (0 for a layer with no spans), and queues the
    /// self-time table for printing.
    pub fn put_layers(&mut self, spans: &[trace::Span]) {
        let table = trace::layer_table(spans);
        for &(name, _) in PER_LAYER {
            let row = |suffix: &str| {
                name.strip_suffix(suffix)
                    .map(|layer| table.get(layer).copied().unwrap_or_default())
            };
            if let Some(r) = row(".calls") {
                self.put(name, Metric::new(r.calls as f64, r.calls as usize));
            } else if let Some(r) = row(".busy_ms") {
                self.put(name, Metric::new(r.busy_ns as f64 / 1e6, r.calls as usize));
            } else if let Some(r) = row(".self_ms") {
                self.put(name, Metric::new(r.self_ns as f64 / 1e6, r.calls as usize));
            }
        }
        self.notes.extend(layer_lines(spans));
    }

    /// Sets every per-layer metric not recorded yet to 0.
    pub fn zero_unset_layers(&mut self) {
        for &(name, _) in PER_LAYER {
            if !self.metrics.iter().any(|(n, _)| *n == name) {
                self.put(name, Metric::new(0.0, 0));
            }
        }
    }
}

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of the request or key stream.
    pub seed: u64,
    /// Measured duration of the run.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Corrupt one reference value (negative control).
    pub perturb_reference: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut perturb) =
            (None, None, None, None, false);
        while let Some(flag) = it.next() {
            if flag == "--perturb-reference" {
                perturb = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| "--seed: not a u64")?),
                "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds: not a u64")?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let args = Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            perturb_reference: perturb,
        };
        if !(1..=600).contains(&args.seconds) {
            return Err("--seconds must be 1..=600".into());
        }
        Ok(args)
    }
}

/// How long the untraced phase of a run measures: `--seconds`, or half
/// of it (at least 1 s) in a traced run, which then replays that
/// phase's stream twice.
pub fn measured_duration(args: &Args) -> std::time::Duration {
    let secs = if args.trace {
        (args.seconds / 2).max(1)
    } else {
        args.seconds
    };
    std::time::Duration::from_secs(secs)
}

/// A per-process scratch directory for the stores, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: FAILED: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let args = Args::parse(std::env::args().skip(1))?;
    let work = WorkDir(PathBuf::from("perfbench/work").join(std::process::id().to_string()));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("create {}: {e}", work.0.display()))?;
    let host = Host::probe(&work.0);
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "host nproc={} rustc=\"{}\" commit={} fs={}",
        host.nproc, host.rustc, host.commit, host.fs
    );
    let report = match args.workload.as_str() {
        "serve_templates" => serve::run(serve::Kind::Templates, &args, &work.0, &host)?,
        "adhoc_plan" => serve::run(serve::Kind::Adhoc, &args, &work.0, &host)?,
        "kv_ingest" => kv::run(&args, &host)?,
        other => return Err(format!("unknown workload {other}")),
    };
    drop(work);
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let line = result_line(&report, table)?;
    for note in &report.notes {
        println!("{note}");
    }
    for &(name, unit) in table {
        let m = lookup(&report, name)?;
        let alias = report
            .aliases
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, a)| *a);
        let alias = alias.map(|a| format!("  [{a}]")).unwrap_or_default();
        println!(
            "metric {name:<36} {:>18.6} {unit:<5} n={}{alias}",
            m.value, m.samples
        );
    }
    println!("{line}");
    Ok(())
}

fn lookup(report: &Report, name: &str) -> Result<Metric, String> {
    report
        .metrics
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, m)| *m)
        .ok_or_else(|| format!("metric {name} was not measured"))
}

/// The result object: exactly the metrics of `table`, all finite.
fn result_line(report: &Report, table: &[(&str, &str)]) -> Result<String, String> {
    if report.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    let mut metrics = BTreeMap::new();
    for &(name, unit) in table {
        let m = lookup(report, name)?;
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not finite ({})", m.value));
        }
        metrics.insert(
            name.to_string(),
            object([("value", Value::Number(m.value)), ("unit", unit.into())]),
        );
    }
    let result = object([
        ("correct", Value::Bool(true)),
        ("attempted", Value::Number(report.attempted as f64)),
        ("failed", Value::Number(report.failed as f64)),
        ("metrics", Value::Object(metrics)),
    ]);
    Ok(result.to_string())
}

fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Writes the traced run's artifacts: `<workload>.spans.tsv` and
/// `<workload>.layers.json` under `perfbench/out/`.
pub fn write_trace_artifacts(
    args: &Args,
    host: &Host,
    spans: &[trace::Span],
    report: &Report,
) -> Result<(), String> {
    let out = Path::new("perfbench/out");
    std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let base = out.join(&args.workload);
    std::fs::write(base.with_extension("spans.tsv"), trace::spans_tsv(spans))
        .map_err(|e| format!("write spans: {e}"))?;
    let layers = trace::layer_table(spans)
        .into_iter()
        .map(|(layer, row)| {
            let row = object([
                ("calls", Value::Number(row.calls as f64)),
                ("busy_ms", Value::Number(row.busy_ns as f64 / 1e6)),
                ("self_ms", Value::Number(row.self_ns as f64 / 1e6)),
            ]);
            (layer.to_string(), row)
        })
        .collect();
    let metrics = report
        .metrics
        .iter()
        .map(|(n, m)| (n.to_string(), Value::Number(m.value)))
        .collect();
    let doc = object([
        ("workload", args.workload.as_str().into()),
        ("seed", Value::Number(args.seed as f64)),
        ("seconds", Value::Number(args.seconds as f64)),
        (
            "host",
            object([
                ("nproc", Value::Number(host.nproc as f64)),
                ("rustc", host.rustc.into()),
                ("commit", host.commit.as_str().into()),
                ("fs", host.fs.as_str().into()),
            ]),
        ),
        ("spans", Value::Number(spans.len() as f64)),
        ("layers", Value::Object(layers)),
        ("metrics", Value::Object(metrics)),
        (
            "notes",
            Value::Array(report.notes.iter().map(|n| n.as_str().into()).collect()),
        ),
    ]);
    std::fs::write(base.with_extension("layers.json"), format!("{doc}\n"))
        .map_err(|e| format!("write layer table: {e}"))
}

/// Prints-ready lines of the layer table (self time per layer).
pub fn layer_lines(spans: &[trace::Span]) -> Vec<String> {
    trace::layer_table(spans)
        .iter()
        .map(|(layer, row)| {
            format!(
                "layer {layer:<20} calls={:<9} busy_ms={:<12.3} self_ms={:.3}",
                row.calls,
                row.busy_ns as f64 / 1e6,
                row.self_ns as f64 / 1e6
            )
        })
        .collect()
}
