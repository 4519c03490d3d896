//! One benchmark for the live FreeFlow stack.
//!
//! ```text
//! freeflow-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload stands up a real cluster in this process (agents,
//! libraries and channel pumps on their own threads), generates its
//! requests from the seed before the timed window, drives them through
//! the public API as a closed loop, and checks every reply byte. With
//! `--trace 0` the last stdout line is the end-to-end result; with
//! `--trace 1` it holds the per-layer figures, read from each layer's
//! public counters and from spans the benchmark records around its own
//! calls into each layer. Nothing crosses a real link: wires are
//! in-process channels.

mod layers;
mod migrate_rolling;
mod socket_kv;
mod trace;
mod util;
mod verbs_rpc;

use layers::{Counters, LayerMap, PER_LAYER};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;
use util::Hist;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["relay_rpc", "colocated_rpc", "socket_kv", "migrate_rolling"];

/// Rounds per run. Each round stands up a fresh cluster (one `setup_s`
/// sample), measures `seconds / ROUNDS` of traffic and tears it down.
/// Rates and percentiles are computed per round and the run reports
/// their median, so neither one cluster's pump-timer phases nor a burst
/// of host noise that hits a few rounds can swing the result.
pub const ROUNDS: usize = 20;

/// Longest a request may go without a completion before the run fails
/// as a lost completion.
pub const STALL_LIMIT: Duration = Duration::from_secs(10);

/// What the command line asked for.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub span_dir: PathBuf,
}

impl Config {
    /// The input seed of round `r`: every round replays its own inputs.
    pub fn round_seed(&self, r: usize) -> u64 {
        self.seed ^ ((r as u64) << 56)
    }
}

/// Slices a traced window is cut into (half of them traced).
const TRACE_SLICES: f64 = 8.0;

/// One round's timed window, cut into slices. An untraced run is one
/// untraced slice; a traced run alternates untraced and traced slices,
/// so both halves see the same host conditions and their ratio prices
/// the tracing. Completions and time are credited to the slice kind
/// they fall in.
pub struct Slicer {
    begin: Instant,
    secs: f64,
    trace: bool,
    /// Current slice kind (1 = traced), its start and the completions
    /// counted when it began.
    kind: usize,
    start: f64,
    mark: u64,
    cpu0: util::Usage,
}

impl Slicer {
    /// Start the timed window of `secs`.
    pub fn start(secs: f64, trace: bool, completed: u64) -> Self {
        Self {
            begin: Instant::now(),
            secs,
            trace,
            kind: 0,
            start: 0.0,
            mark: completed,
            cpu0: util::usage(),
        }
    }

    /// Account completions up to `completed`. Returns `(tracing, done)`;
    /// on `done` the window's CPU time and context switches are added.
    pub fn tick(&mut self, completed: u64, run: &mut Run) -> (bool, bool) {
        let now = self.begin.elapsed().as_secs_f64();
        let done = now >= self.secs;
        let kind = usize::from(self.trace && (now / self.secs * TRACE_SLICES) as u64 % 2 == 1);
        if kind != self.kind || done {
            run.slice_s[self.kind] += now - self.start;
            run.ops[self.kind] += completed - self.mark;
            self.mark = completed;
            self.start = now;
            self.kind = kind;
        }
        if run.threads == 0 && now * 2.0 > self.secs {
            run.threads = util::thread_count();
        }
        if done {
            let u = util::usage();
            run.cpu_us += u.cpu_us - self.cpu0.cpu_us;
            run.ctx_switches += u.ctx_switches - self.cpu0.ctx_switches;
        }
        (kind == 1, done)
    }
}

/// Everything a workload measured, over all rounds.
pub struct Run {
    /// Wall time of each round's full set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Requests completed inside the timed windows, by slice kind
    /// (`[untraced, traced]`).
    pub ops: [u64; 2],
    /// Time spent in each slice kind, seconds.
    pub slice_s: [f64; 2],
    /// Request + reply payload bytes completed in the windows.
    pub payload_bytes: u64,
    /// Per-round rates and percentiles by end-to-end metric name, and
    /// the samples behind them.
    pub round_q: BTreeMap<&'static str, Vec<f64>>,
    pub samples: BTreeMap<&'static str, u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Process CPU and context switches during the windows.
    pub cpu_us: f64,
    pub ctx_switches: u64,
    pub threads: u64,
    /// Correctness violations: any entry fails the run.
    pub errors: Vec<String>,
    /// Per-layer figures set directly by the workload.
    pub layers: LayerMap,
    /// Counter growth over every round's window.
    pub growth: Counters,
    /// Durations the workload timed outside spans (launch, connect,
    /// accept, migration), by name, in ns (bytes for checkpoints).
    pub hists: BTreeMap<&'static str, Hist>,
    pub tracer: Tracer,
    /// Totals at the end of the previous round: ops, bytes, seconds, CPU.
    prev: (u64, u64, f64, f64),
}

impl Run {
    fn new(epoch: Instant) -> Self {
        Self {
            setup_s: Vec::new(),
            ops: [0; 2],
            slice_s: [0.0; 2],
            payload_bytes: 0,
            round_q: BTreeMap::new(),
            samples: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            cpu_us: 0.0,
            ctx_switches: 0,
            threads: 0,
            errors: Vec::new(),
            layers: LayerMap::new(),
            growth: Counters::default(),
            hists: BTreeMap::new(),
            tracer: Tracer::new(epoch, 1),
            prev: (0, 0, 0.0, 0.0),
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn hist(&mut self, name: &'static str) -> &mut Hist {
        self.hists.entry(name).or_default()
    }

    /// Close a round: keep its rates, and its percentiles of request
    /// latency, connect time and blackout (all in ns).
    pub fn end_round(&mut self, lat: &Hist, connect: &Hist, blackout: &Hist) {
        let (ops0, bytes0, secs0, cpu0) = self.prev;
        self.prev = (
            self.ops_total(),
            self.payload_bytes,
            self.window_s(),
            self.cpu_us,
        );
        let ops = (self.prev.0 - ops0) as f64;
        let secs = (self.prev.2 - secs0).max(1e-9);
        for (name, v) in [
            ("ops_per_s", ops / secs),
            ("goodput_MBps", (self.prev.1 - bytes0) as f64 / secs / 1e6),
            ("cpu_us_per_op", (self.prev.3 - cpu0) / ops.max(1.0)),
        ] {
            self.round_q.entry(name).or_default().push(v);
        }
        for (name, h, q, unit) in [
            ("lat_p50_us", lat, 0.50, 1e3),
            ("lat_p99_us", lat, 0.99, 1e3),
            ("connect_p50_us", connect, 0.50, 1e3),
            ("connect_p99_us", connect, 0.99, 1e3),
            ("blackout_p50_ms", blackout, 0.50, 1e6),
            ("blackout_p95_ms", blackout, 0.95, 1e6),
        ] {
            self.round_q
                .entry(name)
                .or_default()
                .push(h.quantile(q) / unit);
            *self.samples.entry(name).or_default() += h.count();
        }
    }

    pub fn ops_total(&self) -> u64 {
        self.ops[0] + self.ops[1]
    }

    pub fn window_s(&self) -> f64 {
        self.slice_s[0] + self.slice_s[1]
    }
}

fn usage_exit(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: freeflow-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Config {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut span_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage_exit(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--span-dir" => span_dir = Some(PathBuf::from(value)),
            _ => usage_exit(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage_exit("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage_exit(&format!("unknown workload {workload}"));
    }
    Config {
        workload,
        seed: seed.unwrap_or_else(|| usage_exit("--seed must be a whole number")),
        seconds: seconds.unwrap_or_else(|| usage_exit("--seconds must be in (0, 600]")),
        trace: trace.unwrap_or_else(|| usage_exit("--trace must be 0 or 1")),
        span_dir: span_dir.unwrap_or_else(|| PathBuf::from(".bench_build/perfbench-spans")),
    }
}

/// A metric for the result line: name, value, unit, sample count, and
/// whether it is one of `BENCHMARK.json`'s end-to-end metrics (the
/// others are printed for reading only).
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: u64,
    gated: bool,
}

fn end_to_end(run: &Run, peak_rss_mb: f64) -> Vec<Metric> {
    let m = |name, value, unit, samples| Metric {
        name,
        value,
        unit,
        samples,
        gated: true,
    };
    let ops = run.ops_total();
    let q = |name: &'static str, unit, samples: Option<u64>| {
        let v = run.round_q.get(name).map_or(0.0, |v| util::median(v));
        let n = samples.unwrap_or_else(|| run.samples.get(name).copied().unwrap_or(0));
        m(name, v, unit, n)
    };
    // Connect times are microseconds of CPU work whose median moved by a
    // quarter between sets of runs on a shared host: printed, not gated.
    let ungated = |metric: Metric| Metric {
        gated: false,
        ..metric
    };
    vec![
        q("ops_per_s", "ops/s", Some(ops)),
        q("goodput_MBps", "MB/s", Some(ops)),
        q("lat_p50_us", "us", None),
        q("lat_p99_us", "us", None),
        ungated(q("connect_p50_us", "us", None)),
        ungated(q("connect_p99_us", "us", None)),
        q("blackout_p50_ms", "ms", None),
        q("blackout_p95_ms", "ms", None),
        m(
            "ok_frac",
            1.0 - run.failed as f64 / run.attempted.max(1) as f64,
            "ratio",
            run.attempted,
        ),
        q("cpu_us_per_op", "us", Some(ops)),
        m("peak_rss_MB", peak_rss_mb, "MB", 1),
        m(
            "setup_s",
            util::median(&run.setup_s),
            "s",
            run.setup_s.len() as u64,
        ),
    ]
}

fn per_layer(run: &mut Run) -> Vec<Metric> {
    run.growth.clone().layers_into(&mut run.layers);
    // (layer metric, span or timing name, quantile, ns per unit)
    let from_hists: [(&'static str, &str, f64, f64); 17] = [
        ("core.post_send_ns_p50", "core.post_send", 0.50, 1.0),
        ("core.post_send_ns_p99", "core.post_send", 0.99, 1.0),
        ("verbs.cq_wait_us_p50", "verbs.cq_wait", 0.50, 1e3),
        ("verbs.cq_wait_us_p99", "verbs.cq_wait", 0.99, 1e3),
        ("socket.write_ns_p50", "socket.write", 0.50, 1.0),
        ("socket.write_ns_p99", "socket.write", 0.99, 1.0),
        ("socket.read_wait_us_p50", "socket.read", 0.50, 1e3),
        ("socket.read_wait_us_p99", "socket.read", 0.99, 1e3),
        ("core.launch_ms_p50", "core.launch", 0.50, 1e6),
        ("core.qp_connect_us_p50", "core.qp_connect", 0.50, 1e3),
        ("socket.accept_us_p50", "socket.accept", 0.50, 1e3),
        ("migrate.call_ms_p50", "migrate.call", 0.50, 1e6),
        ("migrate.call_ms_p95", "migrate.call", 0.95, 1e6),
        (
            "migrate.reported_blackout_ms_p50",
            "migrate.reported_blackout",
            0.50,
            1e6,
        ),
        (
            "migrate.rebind_wait_ms_p50",
            "migrate.rebind_wait",
            0.50,
            1e6,
        ),
        (
            "migrate.checkpoint_bytes_p50",
            "migrate.checkpoint_bytes",
            0.50,
            1.0,
        ),
        ("telemetry.snapshot_us", "telemetry.snapshot", 0.50, 1e3),
    ];
    for (metric, source, quantile, unit) in from_hists {
        let h = match run.hists.get(source) {
            Some(h) => h.clone(),
            None => run.tracer.hist(source),
        };
        run.layers.insert(metric, h.quantile(quantile) / unit);
    }
    let rate = |i: usize| run.ops[i] as f64 / run.slice_s[i].max(1e-9);
    let overhead = if run.ops[0] > 0 && run.ops[1] > 0 {
        1.0 - rate(1) / rate(0)
    } else {
        0.0
    };
    run.layers.insert("trace.overhead_frac", overhead);
    let ops = run.ops_total().max(1) as f64;
    run.layers
        .insert("proc.ctx_switches_per_op", run.ctx_switches as f64 / ops);
    run.layers.insert("proc.threads", run.threads as f64);
    run.layers
        .insert("fail_frac", run.failed as f64 / run.attempted.max(1) as f64);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: run.layers.get(name).copied().unwrap_or(0.0),
            unit,
            samples: 0,
            gated: true,
        })
        .collect()
}

/// nproc, CPU model, kernel and memory of this host, one line.
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let mem_gb = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("MemTotal:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0 / 1024.0);
    format!("nproc={nproc} cpu=\"{cpu}\" kernel={kernel} mem_gb={mem_gb:.1}")
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let cfg = parse_args();
    println!(
        "# freeflow-perfbench workload={} seed={} seconds={} trace={} {}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        fingerprint()
    );
    let mut run = Run::new(Instant::now());
    let seconds = cfg.seconds / ROUNDS as f64;
    for r in 0..ROUNDS {
        match cfg.workload.as_str() {
            "relay_rpc" => {
                verbs_rpc::round(&cfg, r, seconds, verbs_rpc::Placement::CrossHost, &mut run)
            }
            "colocated_rpc" => {
                verbs_rpc::round(&cfg, r, seconds, verbs_rpc::Placement::Colocated, &mut run)
            }
            "socket_kv" => socket_kv::round(&cfg, r, seconds, &mut run),
            "migrate_rolling" => migrate_rolling::round(&cfg, r, seconds, &mut run),
            _ => unreachable!("workload validated in parse_args"),
        }
        if !run.errors.is_empty() {
            break;
        }
    }
    let peak_rss_mb = util::usage().peak_rss_mb;
    run.check(run.attempted > 0 && run.ops_total() > 0, || {
        "no request completed".into()
    });

    let metrics = if cfg.trace {
        let metrics = per_layer(&mut run);
        {
            let tr = &run.tracer;
            let path = cfg
                .span_dir
                .join(format!("spans-{}-seed{}.tsv", cfg.workload, cfg.seed));
            match tr.write_spans(&path) {
                Ok(()) => println!("# span file: {}", path.display()),
                Err(e) => run.errors.push(format!("writing {}: {e}", path.display())),
            }
            println!("# span self times (name count total_ms self_ms):");
            for (name, n, total, own) in tr.self_times() {
                println!(
                    "#   {name:<22} {n:>9} {:>12.3} {:>12.3}",
                    total as f64 / 1e6,
                    own as f64 / 1e6
                );
            }
        }
        metrics
    } else {
        end_to_end(&run, peak_rss_mb)
    };
    for m in &metrics {
        let rounds = run.round_q.get(m.name).filter(|_| !cfg.trace);
        let rounds = rounds.map_or(String::new(), |v| {
            let v: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            format!(" rounds=[{}]", v.join(" "))
        });
        let note = if m.gated { "" } else { " (not gated)" };
        println!(
            "# {:<34} {:>16.4} {:<6} samples={}{note}{rounds}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for e in &run.errors {
        println!("# CORRECTNESS FAILURE: {e}");
    }
    let correct = run.errors.is_empty();
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.attempted, run.failed
    );
    for (i, m) in metrics.iter().filter(|m| m.gated).enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    line.push_str("}}");
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}
