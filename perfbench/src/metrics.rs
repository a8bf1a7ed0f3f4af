//! Metric definitions, their computation from one run, and the JSON the
//! run prints and writes.

use std::path::PathBuf;

use isis_obs::Json;

use crate::clock::Cost;
use crate::trace::{self, Span};
use crate::user::Meter;
use crate::vfs::Io;
use crate::workloads::{Spec, WORKLOADS};

/// `run_seconds` in BENCHMARK.json: how long one run measures.
pub const RUN_SECONDS: u64 = 20;

/// End-to-end metrics: (name, unit, better, bound). `bound` is the share
/// of the parent's median by which the metric may worsen. Times are
/// process CPU time (see `clock`); memory is the heap's peak (see `heap`).
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("setup_s", "s", "lower", 0.25),
    ("task_cpu_p50_ms", "ms", "lower", 0.25),
    ("task_cpu_tail_ms", "ms", "lower", 0.25),
    ("tasks_per_cpu_s", "1/s", "higher", 0.25),
    ("peak_heap_mb", "MiB", "lower", 0.25),
];

/// Per-layer metrics from the traced run: (name, unit, better). Times
/// named `*_ms` are the median of one call's span, unless noted in the
/// README; `*_per_task` values are means over traced tasks.
pub const PER_LAYER: [(&str, &str, &str); 32] = [
    ("session.browse_ms", "ms", "lower"),
    ("session.query_ms", "ms", "lower"),
    ("session.edit_ms", "ms", "lower"),
    ("session.schema_edit_ms", "ms", "lower"),
    ("session.ws_commit_ms", "ms", "lower"),
    ("session.publish_ms", "ms", "lower"),
    ("session.refresh_delta_ms", "ms", "lower"),
    ("session.refresh_full_ms", "ms", "lower"),
    ("views.scene_ms", "ms", "lower"),
    ("views.render_ms", "ms", "lower"),
    ("query.cache_hit_ratio", "ratio", "higher"),
    ("query.cache_evictions_per_task", "count", "lower"),
    ("query.index_probes_per_query", "count", "higher"),
    ("query.seq_scans_per_query", "count", "lower"),
    ("query.scanned_per_returned", "ratio", "lower"),
    ("query.plan_ms", "ms", "lower"),
    ("query.eval_ms", "ms", "lower"),
    ("query.index_updates_per_task", "count", "lower"),
    ("query.index_rebuilds_per_task", "count", "lower"),
    ("core.pin_ms", "ms", "lower"),
    ("core.changes_per_task", "count", "lower"),
    ("core.commit_self_ms", "ms", "lower"),
    ("store.wal_bytes_per_task", "B", "lower"),
    ("store.snapshot_bytes_per_task", "B", "lower"),
    ("store.fsyncs_per_task", "count", "lower"),
    ("store.fsync_ms", "ms", "lower"),
    ("store.io_ms", "ms", "lower"),
    ("store.open_shared_s", "s", "lower"),
    ("store.recover_s", "s", "lower"),
    ("sample.generate_s", "s", "lower"),
    ("write_bytes_per_task", "B", "lower"),
    ("trace_overhead_ratio", "ratio", "lower"),
];

/// BENCHMARK.json, from the tables above and the workload specs.
pub fn spec_json() -> Json {
    let strs = |v: &[&str]| Json::arr(v.iter().map(|s| Json::from(*s)));
    Json::obj([
        ("command", strs(&["python3", "perfbench/run.py"])),
        ("paths", strs(&["perfbench"])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::from(w.name)), ("why", Json::from(w.why))])),
            ),
        ),
        (
            "end_to_end",
            Json::arr(END_TO_END.iter().map(|(name, unit, better, bound)| {
                Json::obj([
                    ("name", Json::from(*name)),
                    ("unit", Json::from(*unit)),
                    ("better", Json::from(*better)),
                    ("bound", Json::from(*bound)),
                ])
            })),
        ),
        (
            "per_layer",
            Json::arr(PER_LAYER.iter().map(|(name, unit, better)| {
                Json::obj([
                    ("name", Json::from(*name)),
                    ("unit", Json::from(*unit)),
                    ("better", Json::from(*better)),
                ])
            })),
        ),
    ])
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile, up to p98, with at least ten samples beyond
/// it: its value, the percentile, the sample count and the samples beyond
/// it. With ten samples or fewer it is the maximum. The p98 cap keeps the
/// tail of a long run above the few tasks a host hiccup slows, whose
/// number varies from run to run.
pub fn tail(values: &[f64]) -> (f64, f64, usize, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0, 0);
    }
    let beyond = if n > 10 { (n / 50).max(10) } else { 0 };
    let idx = n - 1 - beyond;
    (v[idx], 100.0 * (idx + 1) as f64 / n as f64, n, beyond)
}

fn per_s(lat_ms: &[f64]) -> f64 {
    let total: f64 = lat_ms.iter().sum();
    if total > 0.0 {
        lat_ms.len() as f64 * 1e3 / total
    } else {
        0.0
    }
}

fn cpu_ms(costs: &[Cost]) -> Vec<f64> {
    costs.iter().map(|c| c.cpu_ms()).collect()
}

fn wall_ms(costs: &[Cost]) -> Vec<f64> {
    costs.iter().map(|c| c.wall_ms()).collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything one run measured.
#[derive(Default)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    /// CPU seconds of each set-up, and its wall seconds.
    pub setup_s: Vec<f64>,
    pub setup_wall_s: Vec<f64>,
    pub generate_s: Vec<f64>,
    pub open_shared_s: Vec<f64>,
    pub recover_s: f64,
    /// Costs of untraced tasks.
    pub untraced: Vec<Cost>,
    /// Costs of traced tasks (traced run only).
    pub traced: Vec<Cost>,
    pub peak_heap_mb: f64,
    /// `VmHWM` over the timed phase, printed beside `peak_heap_mb`.
    pub peak_rss_mb: f64,
    /// The timed phase's wall seconds, and the host's steal time in it.
    pub timed_wall_s: f64,
    pub steal_s: Option<f64>,
    /// Store I/O over every timed task, and over the traced ones.
    pub io_all: Io,
    pub io_traced: Io,
    pub meter: Meter,
    pub acked_edits: usize,
    pub spans: Vec<Span>,
    pub trace_file: Option<PathBuf>,
}

impl Report {
    pub fn new(spec: &Spec, seed: u64) -> Report {
        Report {
            workload: spec.name,
            seed,
            ..Report::default()
        }
    }

    /// End-to-end values over the untraced tasks.
    fn end_to_end(&self) -> [f64; 5] {
        let cpu = cpu_ms(&self.untraced);
        [
            median(&self.setup_s),
            median(&cpu),
            tail(&cpu).0,
            per_s(&cpu),
            self.peak_heap_mb,
        ]
    }

    fn write_bytes_per_task(&self) -> f64 {
        let tasks = self.untraced.len() + self.traced.len();
        ratio(self.io_all.bytes() as f64, tasks as f64)
    }

    /// Medians of the durations (or self times) of spans named `names`
    /// inside traced tasks, in ms.
    fn span_ms(&self, names: &[&str], self_time: bool) -> f64 {
        let selfs = if self_time {
            trace::self_times(&self.spans)
        } else {
            Vec::new()
        };
        let v: Vec<f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.task.is_some() && names.contains(&s.name))
            .map(|(i, s)| {
                let ns = if self_time { selfs[i] } else { s.dur_ns() };
                ns as f64 / 1e6
            })
            .collect();
        median(&v)
    }

    /// Median over traced tasks of the time spent in `names` per task.
    fn per_task_ms(&self, names: &[&str]) -> f64 {
        let mut per_task = std::collections::BTreeMap::new();
        for s in &self.spans {
            if let Some(t) = s.task {
                let e = per_task.entry(t).or_insert(0u64);
                if names.contains(&s.name) {
                    *e += s.dur_ns();
                }
            }
        }
        median(
            &per_task
                .values()
                .map(|&ns| ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    }

    /// Per-layer values, in `PER_LAYER` order.
    fn per_layer(&self) -> [f64; PER_LAYER.len()] {
        let m = &self.meter;
        let traced = self.traced.len() as f64;
        let io = &self.io_traced;
        let ns = |v: &[u64]| median(&v.iter().map(|&x| x as f64 / 1e6).collect::<Vec<_>>());
        [
            self.span_ms(&["session.browse"], false),
            self.span_ms(&["session.query"], false),
            self.span_ms(&["session.edit"], false),
            self.span_ms(&["session.schema_edit"], false),
            self.span_ms(&["session.ws_commit"], false),
            self.span_ms(&["session.publish"], false),
            self.span_ms(&["session.refresh_delta"], false),
            self.span_ms(&["session.refresh_full"], false),
            self.span_ms(&["views.scene"], false),
            self.span_ms(&["views.render"], false),
            ratio(m.cache_hits as f64, m.cache_lookups as f64),
            ratio(m.cache_evictions as f64, traced),
            ratio(m.index_probes as f64, m.queries as f64),
            ratio(m.seq_scans as f64, m.queries as f64),
            ratio(m.scanned as f64, m.returned as f64),
            ns(&m.plan_ns),
            ns(&m.eval_ns),
            ratio(m.index_updates as f64, traced),
            ratio(m.index_rebuilds as f64, traced),
            self.span_ms(&["core.pin"], false),
            ratio(m.changes as f64, traced),
            self.span_ms(&["session.publish"], true),
            ratio(io.append_bytes as f64, traced),
            ratio(io.write_bytes as f64, traced),
            ratio(io.fsyncs as f64, traced),
            self.span_ms(&["store.sync_file", "store.sync_dir"], false),
            self.per_task_ms(&["store.write", "store.append", "store.rename"]),
            median(&self.open_shared_s),
            self.recover_s,
            median(&self.generate_s),
            self.write_bytes_per_task(),
            ratio(per_s(&cpu_ms(&self.untraced)), per_s(&cpu_ms(&self.traced))),
        ]
    }

    /// Human-readable lines printed before the result.
    pub fn lines(&self) -> Vec<String> {
        let mut out = vec![format!(
            "workload {} seed {}: {} tasks attempted, {} failed; {} acknowledged edits checked after reopen",
            self.workload, self.seed, self.attempted, self.failed, self.acked_edits
        )];
        let (cpu, wall) = (cpu_ms(&self.untraced), wall_ms(&self.untraced));
        let (_, pct, n, beyond) = tail(&cpu);
        let wall_tail = tail(&wall).0;
        let e2e = self.end_to_end();
        for ((name, unit, _, _), v) in END_TO_END.iter().zip(e2e) {
            let note = match *name {
                "setup_s" => format!(
                    "  (CPU; median of {:?}; wall median {:.4} s)",
                    self.setup_s,
                    median(&self.setup_wall_s)
                ),
                "task_cpu_p50_ms" => format!("  (wall {:.4} ms)", median(&wall)),
                "task_cpu_tail_ms" => format!(
                    "  (p{pct:.1} of {n} tasks, {beyond} beyond it; wall {wall_tail:.4} ms)"
                ),
                "tasks_per_cpu_s" => format!("  (per wall second {:.4} 1/s)", per_s(&wall)),
                "peak_heap_mb" => format!("  (VmHWM {:.4} MiB)", self.peak_rss_mb),
                _ => String::new(),
            };
            out.push(format!("{name} = {v:.4} {unit}{note}"));
        }
        if let Some(steal) = self.steal_s {
            out.push(format!(
                "host steal time during the {:.1} s timed phase: {steal:.2} s",
                self.timed_wall_s
            ));
        }
        out.push(format!(
            "task_cpu_p50_ms by tenth of the run: {:?}",
            cpu.chunks(cpu.len().div_ceil(10).max(1))
                .map(|c| (median(c) * 1e3).round() / 1e3)
                .collect::<Vec<_>>()
        ));
        out.push(format!(
            "write_bytes_per_task = {:.1} B  (bytes handed to the store's Vfs)",
            self.write_bytes_per_task()
        ));
        if !self.traced.is_empty() {
            let tcpu = cpu_ms(&self.traced);
            let (tt, tpct, tn, _) = tail(&tcpu);
            out.push(format!(
                "traced tasks: task_cpu_p50_ms = {:.4} ms, task_cpu_tail_ms = {tt:.4} ms (p{tpct:.1} of {tn}), tasks_per_cpu_s = {:.3} 1/s; untraced tasks_per_cpu_s = {:.3} 1/s",
                median(&tcpu),
                per_s(&tcpu),
                per_s(&cpu),
            ));
            for ((name, unit, _), v) in PER_LAYER.iter().zip(self.per_layer()) {
                out.push(format!("{name} = {v:.4} {unit}"));
            }
            out.push(format!(
                "{:<14} {:>8} {:>12} {:>12}",
                "layer", "spans", "total_ms", "self_ms"
            ));
            for (layer, (count, total, selft)) in trace::layer_table(&self.spans) {
                out.push(format!(
                    "{layer:<14} {count:>8} {:>12.3} {:>12.3}",
                    total as f64 / 1e6,
                    selft as f64 / 1e6
                ));
            }
            if let Some(p) = &self.trace_file {
                out.push(format!("span tree written to {}", p.display()));
            }
        }
        out
    }

    /// The result line: end-to-end metrics untraced, per-layer traced.
    pub fn result_json(&self, traced: bool) -> Json {
        let metrics: Vec<(String, Json)> = if traced {
            PER_LAYER
                .iter()
                .zip(self.per_layer())
                .map(|((name, unit, _), v)| (name.to_string(), value(v, unit)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .zip(self.end_to_end())
                .map(|((name, unit, _, _), v)| (name.to_string(), value(v, unit)))
                .collect()
        };
        Json::obj([
            ("correct", Json::from(self.failed == 0)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// The traced run's export: the per-layer table and the span tree.
    pub fn trace_json(&self) -> Json {
        Json::obj([
            ("workload", Json::from(self.workload)),
            ("seed", Json::from(self.seed)),
            (
                "layers",
                Json::arr(trace::layer_table(&self.spans).into_iter().map(
                    |(layer, (count, total, selft))| {
                        Json::obj([
                            ("layer", Json::from(layer)),
                            ("spans", Json::from(count)),
                            ("total_ns", Json::from(total)),
                            ("self_ns", Json::from(selft)),
                        ])
                    },
                )),
            ),
            ("spans", trace::tree_json(&self.spans)),
        ])
    }
}

fn value(v: f64, unit: &str) -> Json {
    Json::obj([("value", Json::from(v)), ("unit", Json::from(unit))])
}
