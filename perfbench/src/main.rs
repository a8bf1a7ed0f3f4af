//! Session-level benchmark for the ISIS reproduction.
//!
//! One process plays one user in a closed loop (zero think time, serial
//! evaluation, one task at a time) through the public `Session` API on a
//! durable `StoreDir` whose every publish is fsynced. See `README.md` for
//! the workloads and metrics.
//!
//! ```text
//! isis-perfbench --out DIR --workload NAME --seed N --seconds S --trace 0|1
//! isis-perfbench --spec      # prints BENCHMARK.json
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and the metrics (end-to-end with `--trace 0`,
//! per-layer with `--trace 1`). The exit code is non-zero when any
//! correctness gate failed, or when the run could not be made at all (then
//! no result line is printed).

mod clock;
mod heap;
mod metrics;
mod trace;
mod user;
mod vfs;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use isis_store::StoreDir;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::clock::Stopwatch;
use crate::metrics::Report;
use crate::workloads::{Bench, HeadPrint, Spec, DB_NAME, SYNC};

/// A run sets up at least `MIN_SETUPS` times and, for quick set-ups, until
/// `MIN_SETUP_S` CPU seconds went into set-up; `setup_s` is the median.
const MIN_SETUPS: usize = 3;
const MIN_SETUP_S: f64 = 3.0;
const MAX_SETUPS: usize = 15;
/// `peak_heap_mb` is the heap's peak over the first `HEAP_TASKS` timed
/// tasks, which every run makes: state such as the session's delta log
/// grows with the tasks made, so a peak over the whole timed phase would
/// move with the host's speed.
const HEAP_TASKS: u64 = 32;
/// Traced tasks per `core.pin` probe.
const PIN_PROBE_EVERY: u64 = 8;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

struct Args {
    out: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut out = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--spec" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--out" => out = Some(PathBuf::from(&value)),
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let need = |name: &str| format!("missing {name}");
    Ok(Some(Args {
        out: out.ok_or_else(|| need("--out"))?,
        workload: workload.ok_or_else(|| need("--workload"))?,
        seed: seed.ok_or_else(|| need("--seed"))?,
        seconds: seconds.ok_or_else(|| need("--seconds"))?,
        trace: trace.ok_or_else(|| need("--trace"))?,
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", metrics::spec_json().pretty());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for line in report.lines() {
                println!("{line}");
            }
            println!("{}", report.result_json(args.trace).dump());
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("benchmark could not run: {e}");
            ExitCode::from(1)
        }
    }
}

/// `/proc/self/status` field `VmHWM` (peak resident set), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run(args: &Args) -> Result<Report, String> {
    let spec = workloads::spec(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let dir = args.out.join(format!(
        "run-{}-s{}-p{}",
        spec.name,
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let out = measure(args, spec, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Sets up, runs the timed phase, checks recovery and times the remaining
/// set-ups; every store lives under `dir`.
fn measure(args: &Args, spec: &'static Spec, dir: &Path) -> Result<Report, String> {
    let mut report = Report::new(spec, args.seed);

    // The first set-up is the one the tasks run on; the rest (after the
    // run, so their memory cannot leak into `peak_heap_mb`) only time
    // set-up again.
    let setup = |report: &mut Report, k: usize| -> Result<Bench, String> {
        let (b, times) = Bench::setup(spec, args.seed, &dir.join(format!("setup{k}")))?;
        report.setup_s.push(times.total.cpu_ns as f64 / 1e9);
        report.setup_wall_s.push(times.total.wall_ns as f64 / 1e9);
        report.generate_s.push(times.generate_s);
        report.open_shared_s.push(times.open_shared_s);
        Ok(b)
    };
    trace::set(args.trace, None);
    let mut bench = setup(&mut report, 0)?;
    trace::set(false, None);

    // The timed phase. In a traced run a coin picks which tasks are
    // traced, so the traced and untraced throughputs come from the same
    // state and neither falls in step with a workload's own period.
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak-RSS mark: {e}"))?;
    heap::reset_peak();
    let steal0 = clock::host_steal_s();
    let started = Instant::now();
    let mut busy_ns = 0u64;
    let mut coin = StdRng::seed_from_u64(args.seed ^ 0x7ACE);
    let mut traced_tasks = 0u64;
    let mut i = 1u64;
    while (busy_ns < args.seconds * 1_000_000_000 || i <= HEAP_TASKS)
        && started.elapsed().as_secs() < 4 * args.seconds + 30
    {
        let traced = args.trace && coin.gen_bool(0.5);
        bench.user.traced = traced;
        trace::set(traced, Some(i));
        let io0 = bench.vfs.io();
        bench.gate = Default::default();
        let t = Stopwatch::start();
        let outcome = trace::span("bench.task", || bench.task(i));
        let cost = t.elapsed() - bench.gate;
        let io = bench.vfs.io().since(&io0);
        if traced {
            // The pin probe clones the whole head, so it samples only
            // every PIN_PROBE_EVERY-th traced task.
            if traced_tasks.is_multiple_of(PIN_PROBE_EVERY) {
                let shared = bench.user.session.shared();
                trace::span("core.pin", || drop(std::hint::black_box(shared.pin())));
            }
            traced_tasks += 1;
            report.io_traced += io;
        }
        trace::set(false, None);
        report.io_all += io;
        report.attempted += 1;
        if let Err(e) = outcome {
            report.failed += 1;
            eprintln!("task {i} failed: {e}");
        }
        if traced {
            report.traced.push(cost);
        } else {
            report.untraced.push(cost);
        }
        busy_ns += cost.wall_ns;
        if i == HEAP_TASKS {
            report.peak_heap_mb = heap::peak_mb();
        }
        i += 1;
    }
    if i <= HEAP_TASKS {
        report.peak_heap_mb = heap::peak_mb();
    }
    report.peak_rss_mb = peak_rss_mb()?;
    report.timed_wall_s = started.elapsed().as_secs_f64();
    report.steal_s = clock::host_steal_s().zip(steal0).map(|(b, a)| b - a);

    // Durability: every acknowledged edit and the logged extents must
    // come back from the store after the shared handle is gone.
    let acked = std::mem::take(&mut bench.user.acked);
    let head = bench
        .user
        .session
        .shared()
        .read(|db| HeadPrint::of(db, &acked))?;
    if let Err(e) = head.holds(&acked) {
        report.failed += 1;
        eprintln!("published head: {e}");
    }
    let root = bench.store.root().to_path_buf();
    report.meter = std::mem::take(&mut bench.user.meter);
    drop(bench);
    let t = Instant::now();
    let (shared, _) = StoreDir::open(&root)
        .and_then(|store| store.open_shared(DB_NAME, SYNC))
        .map_err(|e| format!("reopening the store: {e}"))?;
    report.recover_s = t.elapsed().as_secs_f64();
    let recovered = shared.read(|db| HeadPrint::of(db, &acked))?;
    drop(shared);
    if let Some(diff) = head.diff(&recovered) {
        report.failed += 1;
        eprintln!("recovery: {diff}");
    }
    report.acked_edits = acked.len();
    let _ = std::fs::remove_dir_all(dir.join("setup0"));
    let mut k = 1;
    while k < MIN_SETUPS || (report.setup_s.iter().sum::<f64>() < MIN_SETUP_S && k < MAX_SETUPS) {
        drop(setup(&mut report, k)?);
        let _ = std::fs::remove_dir_all(dir.join(format!("setup{k}")));
        k += 1;
    }

    if args.trace {
        report.spans = trace::take();
        let path = args
            .out
            .join(format!("trace-{}-s{}.json", spec.name, args.seed));
        std::fs::write(&path, report.trace_json().pretty())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        report.trace_file = Some(path);
    }
    Ok(report)
}
