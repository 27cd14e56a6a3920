//! `streambench` — the repository's end-to-end benchmark.
//!
//! ```text
//! streambench --workload <netflow-core|social-tenants|netflow-sharded>
//!             --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process: it generates
//! the workload's inputs from the seed, sets the system up several
//! times (`setup_s` is the median), then drives one continuing stream
//! through a closed-loop phase (`seconds / 2` of stream at the
//! workload's reference rate) and an open-loop phase of `seconds / 2`,
//! checks the program's output on an untimed prefix against the naive
//! oracle, checks the deliveries it kept, and prints one JSON line. With
//! `--trace 0` the line carries the end-to-end metrics; with `--trace 1`
//! every call into a layer is wrapped in a span and the line carries the
//! per-layer metrics derived from the spans. A failed check exits 1
//! without a result line. See README.md for the workloads.

mod check;
mod loadgen;
mod netflow_core;
mod netflow_sharded;
mod queries;
mod social_tenants;
mod trace;
mod util;

use loadgen::{Closed, Open, Sink};
use std::collections::HashMap;
use trace::Tracer;
use util::{median, metric, result_json, weighted_quantile, Metric};

/// Every per-layer metric, with its unit, in the order printed. A
/// workload that does not use a layer reports 0 for it.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("loadgen.lag_max_ms", "ms"),
    ("loadgen.detect_p50_us", "us"),
    ("loadgen.detect_p90_us", "us"),
    ("sink.busy_s", "s"),
    ("io.parse_s", "s"),
    ("plan.build_us_p50", "us"),
    ("plan.k_mean", "count"),
    ("window.busy_s", "s"),
    ("window.expired", "count"),
    ("engine.busy_s", "s"),
    ("engine.calls", "count"),
    ("engine.joins_per_edge", "ratio"),
    ("engine.discard_ratio", "ratio"),
    ("engine.partials_inserted", "count"),
    ("engine.partials_deleted", "count"),
    ("engine.matches", "count"),
    ("store.peak_bytes", "B"),
    ("store.peak_rows", "count"),
    ("ingest.admitted", "count"),
    ("ingest.clamped", "count"),
    ("multi.advance_busy_s", "s"),
    ("multi.register_us_p50", "us"),
    ("multi.unregister_us_p50", "us"),
    ("multi.templates", "count"),
    ("multi.queries", "count"),
    ("multi.routed_per_edge", "ratio"),
    ("multi.deliveries", "count"),
    ("multi.deliveries_per_match", "ratio"),
    ("multi.snapshot_bytes", "B"),
    ("multi.store_bytes", "B"),
    ("shard.process_busy_s", "s"),
    ("shard.process_calls", "count"),
    ("shard.process_us_p50", "us"),
    ("shard.routed_imbalance", "ratio"),
    ("shard.queue_hwm_max", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
];

/// The command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => a.trace = val.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// What one workload run hands back for reporting.
pub struct Outcome {
    /// Operations attempted in the timed phases: edges submitted, plus
    /// registrations and unregistrations where the workload churns.
    pub attempted: u64,
    /// Wall time of each set-up repetition.
    pub setups: Vec<f64>,
    /// Heap in use (MB) once the inputs were generated and the sink's
    /// buffers reserved: the base of `state_mb`.
    pub heap0_mb: f64,
    /// Peak resident memory at the end of the timed phases, less the
    /// resident memory at the same point as `heap0_mb` (MB).
    pub rss_growth_mb: f64,
    pub closed: Closed,
    pub open: Open,
    pub sink: Sink,
    pub tracer: Tracer,
    /// Workload-specific per-layer values.
    pub layers: HashMap<&'static str, f64>,
    pub failures: check::Failures,
}

/// Sets the system up `SETUPS` times, timing each repetition, and keeps
/// the last one. `setup` builds a fresh system and fills its first
/// window through `sink`; the previous repetition is dropped, and the
/// sink reset, before the next starts.
pub fn repeat_setup<S>(
    tr: &mut Tracer,
    sink: &mut Sink,
    mut setup: impl FnMut(&mut Tracer, &mut Sink) -> S,
) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        sink.reset();
        let t = std::time::Instant::now();
        built = Some(setup(tr, sink));
        times.push(t.elapsed().as_secs_f64());
    }
    let Some(sys) = built else { unreachable!("SETUPS > 0") };
    (sys, times)
}

/// The two timed phases over one continuing stream: the closed loop
/// over `from..closed_end` (cut at `seconds` if the program runs that
/// slowly), then the open loop over the next `open_count` edges at
/// `rate`. A fixed amount of closed-loop work keeps every run's memory
/// and operation count the same whatever the machine's speed. Starts
/// the tracer's measured part.
#[allow(clippy::too_many_arguments)]
pub fn run_phases<S: loadgen::System>(
    sys: &mut S,
    tr: &mut Tracer,
    sink: &mut Sink,
    args: &Args,
    (from, closed_end): (usize, usize),
    (slice, block): (usize, usize),
    open_count: usize,
    rate: f64,
) -> (Closed, Open) {
    tr.mark();
    let closed = loadgen::closed_loop(
        sys,
        tr,
        sink,
        (from, closed_end),
        slice,
        block,
        args.seconds,
        args.trace,
    );
    tr.set_enabled(args.trace);
    let open = loadgen::open_loop(sys, tr, sink, from + closed.edges, open_count, rate);
    (closed, open)
}

/// Sum of engine counters.
pub fn total(stats: impl IntoIterator<Item = tcs_core::EngineStats>) -> tcs_core::EngineStats {
    let mut t = tcs_core::EngineStats::default();
    for s in stats {
        t.edges_processed += s.edges_processed;
        t.edges_discarded += s.edges_discarded;
        t.matches_emitted += s.matches_emitted;
        t.partials_inserted += s.partials_inserted;
        t.partials_deleted += s.partials_deleted;
        t.join_ops += s.join_ops;
    }
    t
}

/// Per-layer values read from a multi-query engine's stats at the end
/// of a run: the wrapped engines' work, dispatch and fan-out.
/// `phase_deliveries` counts the timed phases; `all_deliveries` the
/// engine's whole life, the base of `multi.deliveries_per_match`.
pub fn multi_layers(
    st: &tcs_multi::MultiStats,
    phase_deliveries: u64,
    all_deliveries: u64,
) -> HashMap<&'static str, f64> {
    let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    let t = total(st.templates.iter().map(|t| t.stats));
    let routed: u64 = st.queries.iter().map(|q| q.routed).sum();
    HashMap::from([
        ("engine.joins_per_edge", ratio(t.join_ops, st.edges_seen)),
        ("engine.discard_ratio", ratio(t.edges_discarded, t.edges_processed)),
        ("engine.partials_inserted", t.partials_inserted as f64),
        ("engine.partials_deleted", t.partials_deleted as f64),
        ("engine.matches", t.matches_emitted as f64),
        ("multi.routed_per_edge", ratio(routed, st.edges_seen)),
        ("multi.deliveries", phase_deliveries as f64),
        ("multi.deliveries_per_match", ratio(all_deliveries, t.matches_emitted)),
    ])
}

/// `throughput_eps` from a run's per-block rates: their lower quartile,
/// the rate three blocks in four beat. The reference machine has
/// stretches, seconds to minutes long, in which blocks run up to 1.8×
/// faster; they cover a varying share of a run, at times more than half,
/// and over five seeds moved the median over blocks by 0.30 (interquartile
/// distance over median) against 0.07 for the lower quartile (README.md).
pub fn throughput(block_eps: &[f64]) -> f64 {
    util::quantile(block_eps, 0.25)
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUPS: usize = 7;

/// Open-loop latency segments: half a second of schedule each.
const SEGMENT_S: f64 = 0.5;

/// Detection latency (us) at quantile `q`, over the planted instances
/// the open loop detected: each instance counts once, from the due time
/// of its last edge to the return of the call that delivered it (all its
/// recipients get it in that call). Computed per half-second segment of
/// the schedule, then the 25th percentile across segments: contention
/// from outside the process comes in bursts and only ever raises
/// latency, so the lower quartile of segments tracks the program.
fn detect_us(o: &Outcome, q: f64) -> f64 {
    let seg = ((o.open.rate * SEGMENT_S) as usize).max(1);
    let mut per: Vec<Vec<(u64, u64)>> = vec![Vec::new(); o.open.edges.div_ceil(seg)];
    for s in o.sink.samples.iter().filter(|s| s.planted) {
        if let Some(v) = per.get_mut((s.pos as usize).wrapping_sub(o.open.from) / seg) {
            v.push((s.lat_ns, 1));
        }
    }
    let per_segment: Vec<f64> = per
        .iter_mut()
        .filter(|v| !v.is_empty())
        .map(|v| weighted_quantile(v, q) as f64 / 1e3)
        .collect();
    util::quantile(&per_segment, 0.25)
}

fn report(args: &Args, o: Outcome) -> Vec<Metric> {
    let mut samples: Vec<(u64, u64)> =
        o.sink.samples.iter().filter(|s| s.planted).map(|s| (s.lat_ns, 1)).collect();
    let n_samples = samples.len();
    let [p50, p90, p99] = [0.5, 0.9, 0.99].map(|q| weighted_quantile(&mut samples, q) as f64 / 1e3);
    let state_mb = o.closed.heap_peak_mb.max(o.open.heap_peak_mb) - o.heap0_mb;
    eprintln!(
        "{}: set-ups took {:.4?} s; heap in use between calls grew by up to {state_mb:.1} MB, \
         the resident set (VmHWM) by {:.1} MB",
        args.workload, o.setups, o.rss_growth_mb
    );
    eprintln!(
        "{}: closed loop {} edges in {:.2} s; open loop {} edges in {} ticks; {} deliveries; \
         {n_samples} planted instances detected, over the whole open loop p50 {p50:.1} us, \
         p90 {p90:.1} us, p99 {p99:.1} us",
        args.workload,
        o.closed.edges,
        o.closed.wall_s,
        o.open.edges,
        o.open.ticks,
        o.sink.deliveries
    );
    // The spread of block rates within the run, and the whole-phase rate
    // (edges over the untraced blocks' wall time), beside the quartile the
    // end-to-end metric takes.
    let eps = o.closed.block_eps(false);
    let [b10, b25, b50, b75, b90] =
        [0.1, 0.25, 0.5, 0.75, 0.9].map(|q| util::quantile(&eps, q) / 1e3);
    let (edges, wall) = o
        .closed
        .blocks
        .iter()
        .filter(|b| !b.traced)
        .fold((0.0, 0.0), |(e, w), b| (e + b.edges as f64, w + b.wall_s));
    eprintln!(
        "{}: untraced closed-loop blocks, k edges/s over {} blocks: p10 {b10:.1}, p25 {b25:.1}, \
         p50 {b50:.1}, p75 {b75:.1}, p90 {b90:.1}; whole phase {:.1}",
        args.workload,
        eps.len(),
        if wall > 0.0 { edges / wall / 1e3 } else { 0.0 }
    );
    if !args.trace {
        return vec![
            metric("throughput_eps", throughput(&eps), "edges/s"),
            metric("state_mb", state_mb, "MB"),
            metric("setup_s", median(&o.setups), "s"),
        ];
    }
    let [detect_p50, detect_p90] = [0.5, 0.9].map(|q| detect_us(&o, q));
    let mut v: HashMap<&'static str, f64> = o.layers;
    v.insert("loadgen.lag_max_ms", o.open.lag_max_ns as f64 / 1e6);
    v.insert("loadgen.detect_p50_us", detect_p50);
    v.insert("loadgen.detect_p90_us", detect_p90);
    v.insert("sink.busy_s", o.tracer.self_s("sink"));
    let (traced, untraced) = (throughput(&o.closed.block_eps(true)), throughput(&eps));
    v.insert("trace.overhead_ratio", if traced > 0.0 { untraced / traced } else { 0.0 });
    let traced_wall: f64 = o.closed.blocks.iter().filter(|b| b.traced).map(|b| b.wall_s).sum();
    v.insert(
        "trace.coverage",
        if traced_wall > 0.0 { o.closed.traced_root_s / traced_wall } else { 0.0 },
    );
    let path =
        std::path::PathBuf::from(format!(".bench_traces/{}-seed{}.tsv", args.workload, args.seed));
    match o.tracer.write(&path) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| metric(name, v.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: streambench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n{e}"
            );
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "netflow-core" => netflow_core::run(&args),
        "social-tenants" => social_tenants::run(&args),
        "netflow-sharded" => netflow_sharded::run(&args),
        other => {
            eprintln!("unknown workload {other}: netflow-core, social-tenants or netflow-sharded");
            std::process::exit(2);
        }
    };
    if !outcome.failures.is_empty() {
        eprintln!("{}: output checks failed:", args.workload);
        for f in &outcome.failures.0 {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    let attempted = outcome.attempted;
    let metrics = report(&args, outcome);
    println!("{}", result_json(true, attempted, 0, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json (at the repository root) names exactly the
    /// metrics this binary prints.
    #[test]
    fn benchmark_json_lists_every_printed_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap_or_default();
        for (name, unit) in LAYER_METRICS {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for name in ["throughput_eps", "state_mb", "setup_s"] {
            assert!(text.contains(&format!("\"name\": \"{name}\"")), "BENCHMARK.json lacks {name}");
        }
        let n_layers = text.matches("\"better\"").count() - 3;
        assert_eq!(n_layers, LAYER_METRICS.len(), "per_layer count differs");
    }
}
