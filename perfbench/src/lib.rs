//! The precipice benchmark: three closed-loop workloads driven from
//! one single-threaded client through the crates' public functions.
//!
//! - [`cliff_edge`]: one cliff-edge run (`Scenario::exec` + `check_spec`)
//!   on a 16×16 torus with a simultaneous 64-node blob.
//! - [`explore`]: repeated `explore_scenario` calls on a small clean
//!   scenario, one worker.
//! - [`serve`]: `ServeSession::handle_line` instance lifecycles.
//!
//! An end-to-end run (`--trace 0`) times whole operations with nothing
//! added to them. A traced run (`--trace 1`, the `perfbench-traced`
//! binary with its counting allocator) replays each workload with span
//! timers around the calls into every layer and reports the per-layer
//! metrics of all three workloads. See `perfbench/README.md` for the
//! metric list and what each layer metric should move.

pub mod alloc;
pub mod cliff_edge;
pub mod explore;
pub mod serve;
pub mod spans;
pub mod stats;

use std::fmt::Write as _;
use std::time::Instant;

use precipice_sim::{LatencyModel, SimConfig, SimTime};

use crate::stats::Summary;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["cliff_edge", "explore", "serve"];

/// How one run is parameterized.
#[derive(Debug, Clone)]
pub struct Params {
    /// The workload seed: every input is derived from it.
    pub seed: u64,
    /// Seconds of measured operations.
    pub seconds: f64,
    /// Tiny sizes and single setups, for the benchmark's own tests.
    pub quick: bool,
}

impl Params {
    /// Times set-up is repeated over an end-to-end run (its median is
    /// `setup_s`).
    pub fn setup_repeats(&self) -> usize {
        if self.quick {
            1
        } else {
            9
        }
    }

    /// Ops of the fixed prefix over which exact counters are taken.
    pub fn counted_ops(&self, full: usize) -> usize {
        if self.quick {
            1
        } else {
            full
        }
    }
}

/// One splitmix64 output for stream position `i` of `seed`.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The simulator configuration `precipice` uses for CLI runs and
/// `precipice check`: jittered latencies and a recorded trace.
pub fn cli_sim(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        latency: LatencyModel::Uniform {
            min: SimTime::from_micros(200),
            max: SimTime::from_millis(2),
        },
        fd_latency: LatencyModel::Uniform {
            min: SimTime::from_millis(1),
            max: SimTime::from_millis(5),
        },
        record_trace: true,
        max_events: Some(100_000_000),
    }
}

/// Ops per throughput window: one pass over `cliff_edge`'s scenario
/// set, so every `cliff_edge` window does the same work.
pub const WINDOW_OPS: usize = 16;

/// When the ops of a closed loop ended.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Wall seconds of the whole loop.
    pub measured_s: f64,
    /// End of each op, in seconds since the loop started.
    pub ends_s: Vec<f64>,
}

impl Timeline {
    /// The throughput of each window of [`WINDOW_OPS`] consecutive ops
    /// (the whole loop when it ran fewer): the window's work, from
    /// `work[i]` of op `i`, over its wall time.
    pub fn window_rates(&self, work: &[f64]) -> Vec<f64> {
        let n = self.ends_s.len().min(work.len());
        let w = WINDOW_OPS.min(n).max(1);
        (0..n / w)
            .map(|k| {
                let (first, last) = (k * w, k * w + w - 1);
                let start = first.checked_sub(1).map_or(0.0, |j| self.ends_s[j]);
                work[first..=last].iter().sum::<f64>() / (self.ends_s[last] - start)
            })
            .collect()
    }
}

/// Runs `op(i)` for `i = 0, 1, …` until `seconds` have passed, and at
/// least `min_ops` times, and records when each op ended.
pub fn closed_loop(seconds: f64, min_ops: usize, op: impl FnMut(usize)) -> Timeline {
    looped(seconds, min_ops, 1, op, |_| {})
}

/// [`closed_loop`] for an end-to-end run whose set-up ran once before
/// it: runs `setup(r)` for `r = 1, …, repeats - 1` between ops, at even
/// intervals of the loop, so that the set-up times sample the whole run
/// rather than its first half second. Set-ups are left out of the
/// timeline.
pub fn closed_loop_with_setups(
    seconds: f64,
    repeats: usize,
    op: impl FnMut(usize),
    setup: impl FnMut(usize),
) -> Timeline {
    looped(seconds, 1, repeats, op, setup)
}

fn looped(
    seconds: f64,
    min_ops: usize,
    repeats: usize,
    mut op: impl FnMut(usize),
    mut setup: impl FnMut(usize),
) -> Timeline {
    let t0 = Instant::now();
    let mut paused = 0.0;
    let measured = |paused: f64| t0.elapsed().as_secs_f64() - paused;
    let mut next_setup = 1;
    let mut ends_s = Vec::new();
    while ends_s.len() < min_ops || measured(paused) < seconds {
        if next_setup < repeats && measured(paused) >= seconds * next_setup as f64 / repeats as f64
        {
            let s0 = Instant::now();
            setup(next_setup);
            paused += s0.elapsed().as_secs_f64();
            next_setup += 1;
        }
        op(ends_s.len());
        ends_s.push(measured(paused));
    }
    Timeline {
        measured_s: measured(paused),
        ends_s,
    }
}

/// Operation outcomes: attempted, failed, and the reasons.
#[derive(Debug, Default)]
pub struct Outcomes {
    /// Operations started.
    pub attempted: u64,
    /// Operations whose output was wrong or that did not finish.
    pub failed: u64,
    /// Whether every checked output was correct (a timeout fails an op
    /// without making an output wrong).
    pub correct: bool,
    /// One line per failure, for stderr.
    pub reasons: Vec<String>,
}

impl Outcomes {
    /// No operations yet, nothing wrong.
    pub fn new() -> Self {
        Outcomes {
            correct: true,
            ..Outcomes::default()
        }
    }

    /// Records an op that produced `result`.
    pub fn record(&mut self, result: Result<(), Failure>) {
        self.attempted += 1;
        if let Err(failure) = result {
            self.failed += 1;
            if let Failure::Wrong(_) = failure {
                self.correct = false;
            }
            if self.reasons.len() < 20 {
                self.reasons.push(failure.to_string());
            }
        }
    }

    /// Records a check of the benchmark itself (traced-replay
    /// fidelity): a mismatch makes the run incorrect.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            if self.reasons.len() < 20 {
                self.reasons.push(format!("fidelity: {}", what()));
            }
        }
    }

    /// Folds `other` into `self`.
    pub fn absorb(&mut self, other: Outcomes) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.correct &= other.correct;
        self.reasons.extend(other.reasons);
    }
}

/// Why an operation failed.
#[derive(Debug)]
pub enum Failure {
    /// The program's output was wrong.
    Wrong(String),
    /// The program did not finish in time.
    Timeout(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Wrong(why) => write!(f, "wrong output: {why}"),
            Failure::Timeout(why) => write!(f, "timeout: {why}"),
        }
    }
}

/// What an end-to-end run of one workload measured.
#[derive(Debug)]
pub struct EndToEnd {
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall milliseconds of each successful operation.
    pub latency_ms: Vec<f64>,
    /// Units of work (runs, schedules, or instances) each operation
    /// completed, in order; 0 for a failed one.
    pub work: Vec<f64>,
    /// When each operation ended.
    pub timeline: Timeline,
    /// Operation outcomes.
    pub outcomes: Outcomes,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a traced run of one workload measured.
#[derive(Debug)]
pub struct Traced {
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Operation outcomes, with fidelity checks.
    pub outcomes: Outcomes,
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Logical CPUs available to this process, read at run time.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The command line, parsed.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Run parameters.
    pub params: Params,
    /// Traced run?
    pub trace: bool,
    /// Source revision to record (`--rev`), if the caller knows it.
    pub rev: String,
}

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--quick] [--rev R]`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut quick = false;
    let mut rev = "unknown".to_owned();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                })
            }
            "--rev" => rev = value,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (want one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        params: Params {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            quick,
        },
        trace: trace.ok_or("--trace is required")?,
        rev,
    })
}

/// Runs the benchmark for `argv` (without the program name) and prints
/// the result; returns the process exit code. `counting_alloc` says
/// whether this binary installed [`alloc::CountingAlloc`], which traced
/// runs need and end-to-end runs must not pay for.
pub fn main_with(argv: &[String], counting_alloc: bool) -> i32 {
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    if args.trace != counting_alloc {
        eprintln!(
            "perfbench: --trace {} runs in the {} binary",
            u8::from(args.trace),
            if args.trace {
                "perfbench-traced"
            } else {
                "perfbench"
            }
        );
        return 2;
    }
    let result = if args.trace {
        run_traced(&args)
    } else {
        run_end_to_end(&args)
    };
    match result {
        Ok(correct) => i32::from(!correct),
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}

fn run_end_to_end(args: &Args) -> Result<bool, String> {
    let p = &args.params;
    let e2e = match args.workload.as_str() {
        "cliff_edge" => cliff_edge::end_to_end(p),
        "explore" => explore::end_to_end(p),
        _ => serve::end_to_end(p),
    };
    let rss = peak_rss_mb()?;
    let setup = Summary::of(&e2e.setup_s).ok_or("no set-up was timed")?;
    let latency = Summary::of(&e2e.latency_ms).ok_or("no operation succeeded")?;
    let throughput = Summary::of(&e2e.timeline.window_rates(&e2e.work)).ok_or("no window")?;
    let o = &e2e.outcomes;
    let metrics = vec![
        Metric::new("setup_s", setup.median, "s"),
        Metric::new("throughput_p10", throughput.p10, "1/s"),
        Metric::new("latency_p90_ms", latency.p90, "ms"),
        Metric::new(
            "success_rate",
            (o.attempted - o.failed) as f64 / o.attempted as f64,
            "ratio",
        ),
        Metric::new("peak_rss_mb", rss, "MiB"),
    ];
    let work: f64 = e2e.work.iter().sum();
    let measured_s = e2e.timeline.measured_s;
    let provenance = provenance(
        args,
        o.attempted,
        &[("measured_s", measured_s), ("mean_rate", work / measured_s)],
        &[
            ("setup_s", setup),
            ("latency_ms", latency),
            ("throughput", throughput),
        ],
    );
    finish(o, &provenance, &metrics)
}

fn run_traced(args: &Args) -> Result<bool, String> {
    // Every traced run reports the whole per-layer table, so it replays
    // all three workloads, a third of the run each.
    let p = Params {
        seconds: args.params.seconds / 3.0,
        ..args.params.clone()
    };
    let mut outcomes = Outcomes::new();
    let mut metrics = Vec::new();
    for traced in [
        cliff_edge::traced(&p),
        explore::traced(&p),
        serve::traced(&p),
    ] {
        outcomes.absorb(traced.outcomes);
        metrics.extend(traced.metrics);
    }
    let provenance = provenance(args, outcomes.attempted, &[], &[]);
    finish(&outcomes, &provenance, &metrics)
}

fn provenance(args: &Args, ops: u64, values: &[(&str, f64)], stats: &[(&str, Summary)]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"provenance\": {{\"rev\": {}, \"host_cpus\": {}, \"workload\": {}, \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"quick\": {}, \"setup_repeats\": {}, \"ops\": {}",
        json_str(&args.rev),
        host_cpus(),
        json_str(&args.workload),
        args.params.seed,
        json_num(args.params.seconds),
        u8::from(args.trace),
        args.params.quick,
        args.params.setup_repeats(),
        ops,
    );
    for (name, v) in values {
        let _ = write!(s, ", {}: {}", json_str(name), json_num(*v));
    }
    s.push_str("}, \"stats\": {");
    for (i, (name, sum)) in stats.iter().enumerate() {
        let _ = write!(
            s,
            "{}{}: {{\"samples\": {}, \"p10\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \
             \"p90\": {}, \"p99\": {}}}",
            if i == 0 { "" } else { ", " },
            json_str(name),
            sum.samples,
            json_num(sum.p10),
            json_num(sum.q1),
            json_num(sum.median),
            json_num(sum.q3),
            json_num(sum.p90),
            json_num(sum.p99),
        );
    }
    s.push_str("}}");
    s
}

/// Prints failures to stderr, then the provenance line and the result
/// line; returns whether the run was correct.
fn finish(o: &Outcomes, provenance: &str, metrics: &[Metric]) -> Result<bool, String> {
    for reason in &o.reasons {
        eprintln!("perfbench: {reason}");
    }
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name));
    }
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct, o.attempted, o.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            line,
            "{}{}: {{\"value\": {}, \"unit\": {}}}",
            if i == 0 { "" } else { ", " },
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit),
        );
    }
    line.push_str("}}");
    println!("{provenance}");
    println!("{line}");
    Ok(o.correct)
}

fn json_num(v: f64) -> String {
    // `{:?}` is the shortest text that reads back as the same f64.
    format!("{v:?}")
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv("--workload serve --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, "serve");
        assert_eq!(a.params.seed, 7);
        assert_eq!(a.params.seconds, 10.0);
        assert!(a.trace && !a.params.quick);
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload serve --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload serve --seed 1 --trace 0")).is_err());
    }

    #[test]
    fn window_rates_divide_each_window_by_its_own_wall_time() {
        let ends_s: Vec<f64> = (1..=2 * WINDOW_OPS).map(|i| i as f64).collect();
        let t = Timeline {
            measured_s: ends_s[ends_s.len() - 1],
            ends_s,
        };
        let mut work = vec![1.0; 2 * WINDOW_OPS];
        work[WINDOW_OPS] = 0.0;
        let w = WINDOW_OPS as f64;
        assert_eq!(t.window_rates(&work), vec![1.0, (w - 1.0) / w]);
        // Fewer ops than a window: the whole loop is one window.
        assert_eq!(t.window_rates(&work[..2]), vec![1.0]);
    }

    #[test]
    fn json_helpers_escape_and_keep_digits() {
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_num(1.0), "1.0");
        assert_eq!(json_num(0.1234567891234), "0.1234567891234");
    }
}
