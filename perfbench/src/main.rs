//! Closed-loop benchmark of the real NASD stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <data_read|data_mixed|meta_ops|all> \
//!     [--seed <n>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! Two client threads drive the library with `nasd-workload` requests,
//! each waiting for its reply before sending the next (closed loop, no
//! think time). `--trace 0` measures the end-to-end metrics with no
//! instrumentation in the stack; `--trace 1` runs the workload for half
//! of `--seconds` untraced and half with the span decorators of
//! `trace.rs`, and reports the per-layer split and the tracing
//! overhead. Every read is checked against the object's pattern; a
//! mismatch fails the run.
//!
//! Output: a table per workload, then one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is
//! non-zero when any output check failed. `perfbench/README.md` defines
//! every metric.

mod alloc;
mod bench;
mod data;
mod meta;
mod pattern;
mod sys;
mod trace;

use bench::{median, Workload, CLIENTS};
use nasd_obs::Json;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Tracer, WindowTotals};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Workload seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Stacks built per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Untimed closed-loop traffic before each measured window.
const WARMUP: Duration = Duration::from_secs(2);

/// The workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 3] = ["data_read", "data_mixed", "meta_ops"];

/// End-to-end metrics of the JSON result (BENCHMARK.json `end_to_end`):
/// the ones every workload has. Latencies of the other classes
/// (`write`, `attr`, `ns`) appear in the table of the workloads that run
/// them.
pub const END_TO_END: [&str; 7] = [
    "ops_per_s",
    "goodput_mb_s",
    "read_p50_us",
    "read_p99_us",
    "cpu_us_per_op",
    "setup_s",
    "peak_rss_mb",
];

/// One reported figure.
struct Figure {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind it (latency percentiles), shown in the table.
    samples: Option<usize>,
    /// Part of the JSON result (otherwise table only).
    in_json: bool,
}

fn fig(name: impl Into<String>, value: f64, unit: &'static str) -> Figure {
    Figure {
        name: name.into(),
        value,
        unit,
        samples: None,
        in_json: true,
    }
}

/// A workload's result.
struct Report {
    workload: &'static str,
    traced: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The first failed op's class and error, if any.
    first_error: Option<String>,
    figures: Vec<Figure>,
    /// Completed ops per slice of the (last) measured window.
    slices: Vec<u64>,
}

impl Report {
    fn print_table(&self, seed: u64, seconds: u64) {
        println!(
            "== {} ({}, seed {seed}, {seconds} s, {CLIENTS} closed-loop clients) ==",
            self.workload,
            if self.traced { "traced" } else { "untraced" }
        );
        for f in &self.figures {
            let samples = f.samples.map_or(String::new(), |n| format!("n={n}"));
            println!("{:<30} {:>16.4} {:<6} {samples}", f.name, f.value, f.unit);
        }
        println!("ops per {:?} slice: {:?}", bench::SLICE, self.slices);
        println!(
            "{:<30} {:>16.6} {:<6} {} failed / {} attempted",
            "error_frac",
            self.failed as f64 / self.attempted.max(1) as f64,
            "frac",
            self.failed,
            self.attempted
        );
        if let Some(e) = &self.first_error {
            println!("first failure: {e}");
        }
    }

    fn json(&self) -> String {
        let metrics = self
            .figures
            .iter()
            .filter(|f| f.in_json)
            .map(|f| {
                (
                    f.name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(f.value)),
                        ("unit".into(), Json::str(f.unit)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::num_u64(self.attempted)),
            ("failed".into(), Json::num_u64(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_json_string()
    }
}

/// Untraced run: build the stack, measure, and read the peak RSS; then
/// build and tear down `SETUPS - 1` more stacks so `setup_s` is the
/// median of [`SETUPS`] set-up times.
fn untraced<W: Workload>(
    name: &'static str,
    setup: &dyn Fn(Option<Arc<Tracer>>) -> Result<W, String>,
    seed: u64,
    window: Duration,
) -> Result<Report, String> {
    let timed_setup = || {
        let t0 = Instant::now();
        setup(None).map(|w| (w, t0.elapsed().as_secs_f64()))
    };
    let (w, first) = timed_setup()?;
    let win = bench::run_window(&w, seed, WARMUP, window, None);
    w.teardown();
    let peak_rss = sys::peak_rss_mb();
    let mut times = vec![first];
    for _ in 1..SETUPS {
        let (w, t) = timed_setup()?;
        times.push(t);
        w.teardown();
    }

    let mut figures = vec![
        fig("ops_per_s", win.ops_per_s(), "1/s"),
        fig("goodput_mb_s", win.goodput_mb_s(), "MB/s"),
    ];
    for l in bench::latencies(&win.log) {
        for (p, v) in [("p50", l.p50_us), ("p99", l.p99_us)] {
            figures.push(Figure {
                samples: Some(l.samples),
                ..fig(format!("{}_{p}_us", l.class.name()), v, "us")
            });
        }
    }
    figures.extend([
        fig("cpu_us_per_op", win.cpu_us_per_op(), "us"),
        fig("setup_s", median(times), "s"),
        fig("peak_rss_mb", peak_rss, "MB"),
    ]);
    for f in &mut figures {
        f.in_json = END_TO_END.contains(&f.name.as_str());
    }
    Ok(Report {
        workload: name,
        traced: false,
        correct: win.correct(),
        attempted: win.attempted(),
        failed: win.failed(),
        first_error: win.first_error(),
        figures,
        slices: win.slice_ops(),
    })
}

/// Traced run: an untraced window for the overhead baseline, then a
/// traced window on a stack built with the decorators; each is half of
/// `window`, so a traced run measures as long as an untraced one.
fn traced<W: Workload>(
    name: &'static str,
    setup: &dyn Fn(Option<Arc<Tracer>>) -> Result<W, String>,
    seed: u64,
    window: Duration,
) -> Result<Report, String> {
    let window = (window / 2).max(bench::SLICE);
    let w = setup(None)?;
    let plain = bench::run_window(&w, seed, WARMUP, window, None);
    w.teardown();

    let tracer = Tracer::new(CLIENTS);
    let w = setup(Some(Arc::clone(&tracer)))?;
    let win = bench::run_window(&w, seed, WARMUP, window, Some(&tracer));
    w.teardown();

    let totals = WindowTotals {
        ops: win.log.attempted,
        gen_ns: win.log.gen_ns,
        user_bytes_written: win.log.written,
        counters: win.counters,
    };
    let (layers, shares) = tracer.analyze(&totals);
    let mut figures: Vec<Figure> = layers.into_iter().map(|(n, v, u)| fig(n, v, u)).collect();
    figures.extend([
        fig("trace.traced_ops_per_s", win.ops_per_s(), "1/s"),
        fig("trace.untraced_ops_per_s", plain.ops_per_s(), "1/s"),
        fig(
            "trace.overhead_frac",
            1.0 - win.ops_per_s() / plain.ops_per_s(),
            "frac",
        ),
    ]);
    figures.extend(shares.into_iter().map(|(n, v, u)| Figure {
        in_json: false,
        ..fig(n, v, u)
    }));
    Ok(Report {
        workload: name,
        traced: true,
        correct: plain.correct() && win.correct(),
        attempted: plain.attempted() + win.attempted(),
        failed: plain.failed() + win.failed(),
        first_error: plain.first_error().or(win.first_error()),
        figures,
        slices: win.slice_ops(),
    })
}

fn run<W: Workload>(
    name: &'static str,
    setup: &dyn Fn(Option<Arc<Tracer>>) -> Result<W, String>,
    seed: u64,
    window: Duration,
    trace: bool,
) -> Result<Report, String> {
    if trace {
        traced(name, setup, seed, window)
    } else {
        untraced(name, setup, seed, window)
    }
}

fn run_workload(name: &str, seed: u64, window: Duration, trace: bool) -> Result<Report, String> {
    match name {
        "data_read" => run(
            "data_read",
            &|t| data::DataStack::setup(data::read_spec(), t),
            seed,
            window,
            trace,
        ),
        "data_mixed" => run(
            "data_mixed",
            &|t| data::DataStack::setup(data::mixed_spec(), t),
            seed,
            window,
            trace,
        ),
        "meta_ops" => run(
            "meta_ops",
            &|t| meta::MetaStack::setup(CLIENTS, t),
            seed,
            window,
            trace,
        ),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?} or all)"
        )),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 45,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.max(1),
            "--trace" => args.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let window = Duration::from_secs(args.seconds);
    let mut ok = true;
    for name in names {
        match run_workload(name, args.seed, window, args.trace) {
            Ok(report) => {
                report.print_table(args.seed, args.seconds);
                println!("{}", report.json());
                ok &= report.correct;
            }
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                ok = false;
            }
        }
    }
    // Socket files are removed by each server; drop the empty directory.
    let _ = std::fs::remove_dir(".bench_run");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    //! Benchmark self-test: each workload briefly, untraced at the
    //! default seed and traced at a second seed.

    use super::*;

    /// How far the traced layers' self times may miss the op time, as a
    /// share of it, before the per-layer split is not trusted.
    const UNACCOUNTED_TOLERANCE: f64 = 0.01;
    /// Share of recorded spans that must link to a client op.
    const MIN_LINKED: f64 = 0.99;

    /// `(name, unit)` of every metric in a BENCHMARK.json section.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Json::as_arr)
            .expect("section is a list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    /// The report's JSON metrics are exactly the declared ones, each
    /// finite and in its declared unit.
    fn assert_declared(r: &Report, section: &str) {
        let got: Vec<(String, String)> = r
            .figures
            .iter()
            .filter(|f| f.in_json)
            .map(|f| {
                assert!(
                    f.value.is_finite(),
                    "{}: {} is not finite",
                    r.workload,
                    f.name
                );
                (f.name.clone(), f.unit.to_string())
            })
            .collect();
        assert_eq!(got, declared(section), "{} {section} metrics", r.workload);
    }

    fn value(r: &Report, name: &str) -> f64 {
        r.figures
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .value
    }

    fn self_test(workload: &str) {
        let plain = run_workload(workload, DEFAULT_SEED, Duration::from_secs(1), false)
            .expect("untraced run");
        assert!(plain.correct && plain.failed == 0, "{workload}: failed ops");
        assert_declared(&plain, "end_to_end");

        let traced = run_workload(workload, DEFAULT_SEED + 1, Duration::from_secs(2), true)
            .expect("traced run");
        assert!(
            traced.correct && traced.failed == 0,
            "{workload}: failed ops"
        );
        assert_declared(&traced, "per_layer");
        let unaccounted = value(&traced, "trace.unaccounted_frac");
        assert!(
            unaccounted.abs() <= UNACCOUNTED_TOLERANCE,
            "{workload}: layers leave {unaccounted} of op time unaccounted"
        );
        let linked = value(&traced, "trace.linked_frac");
        assert!(
            linked >= MIN_LINKED,
            "{workload}: only {linked} of spans linked to an op"
        );
        if workload == "data_read" {
            // Cached payload rides from the drive cache to writev as
            // shared segments: the full stack keeps the zero-send-copy
            // gate of the socket microbenchmark.
            assert_eq!(value(&traced, "net.send_copy_bytes_per_op"), 0.0);
        }
    }

    #[test]
    fn data_read_self_test() {
        self_test("data_read");
    }

    #[test]
    fn data_mixed_self_test() {
        self_test("data_mixed");
    }

    #[test]
    fn meta_ops_self_test() {
        self_test("meta_ops");
    }

    #[test]
    fn another_seed_gives_other_requests() {
        use nasd_workload::RequestStream;
        for spec in [data::read_spec(), data::mixed_spec(), meta::spec()] {
            let stream = |seed| -> Vec<_> {
                let s = RequestStream::new(&spec, bench::client_seed(seed, 0));
                s.take(200).collect()
            };
            assert_eq!(stream(DEFAULT_SEED), stream(DEFAULT_SEED));
            assert_ne!(stream(DEFAULT_SEED), stream(DEFAULT_SEED + 1));
        }
    }
}
