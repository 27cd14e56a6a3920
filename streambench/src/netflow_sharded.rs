//! `netflow-sharded`: a `NetworkFlowGen` stream written as s-graffito
//! text (`src dst label ts`), with a small fixed share of lines lagging
//! the watermark. Set-up parses the text with `edge_stream_from_str`;
//! the edges go to a `ShardedMultiEngine` with one shard under
//! `OrderPolicy::ClampToWatermark`, serving 64 distinct exfiltration
//! templates with labels from the middle popularity ranks, so no
//! template is shared. The cost of each `process` call dominates.
//!
//! The process pins itself to one CPU before anything else, so the shard
//! worker that every call spawns runs on the front-end thread's CPU.

use crate::check::{self, Failures, Truth};
use crate::loadgen::{closed_loop, Sink, System};
use crate::netflow_core::{expected, planted_stream, FRESH_HOST};
use crate::queries::{exfiltration, EXFIL_ORDERS};
use crate::trace::Tracer;
use crate::util::{heap_mb, median, peak_rss_mb, pin_to_current_cpu, rss_mb, Rng};
use crate::{multi_layers, repeat_setup, run_phases, Args, Outcome};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use tcs_core::{OrderPolicy, PlanOptions, QueryPlan};
use tcs_graph::io::{edge_stream_from_str, TextStream};
use tcs_graph::{ELabel, EdgeId, MatchRecord, QueryGraph, StreamEdge, Timestamp, VLabel, VertexId};
use tcs_multi::{QueryId, ShardedMultiEngine};
use tcs_telemetry::Recorder;

pub const WINDOW: u64 = 30_000;
/// One shard worker, so that the front-end thread and the worker it
/// spawns on every call never outnumber the reference machine's two
/// cores. With two workers, another process busy on one core cut
/// throughput by a quarter; with one it did not move. Unpinned, the one
/// worker's per-call hand-off across cores still ran at half speed for
/// minutes at a time on a busy host; pinned, it held (README.md).
const SHARDS: usize = 1;
const SLICE: usize = 64;
const BLOCK: usize = 48;
/// Set-up fills the first window in slices of this size.
const FILL_SLICE: usize = 4_096;
const RATE: f64 = 15_000.0;
/// The closed loop submits `seconds / 2` of stream at this rate, about
/// the fastest blocks seen on the reference machine (see README.md).
const REFERENCE_EPS: f64 = 100_000.0;
const QUERIES: usize = 64;
/// Labels are drawn from popularity ranks 8–23.
const LABELS: (u16, u16) = (7, 23);
/// One line in this many lags the watermark by 2–200 time units.
const STRAGGLER_EVERY: u64 = 100;
const MAX_LAG: u64 = 200;
const PLANT_START: usize = 2_000;
/// One planted instance starts every this many positions: the middle
/// ranks rarely complete the shape on their own, and planted attacks give
/// the detection-latency quantiles their samples.
const PLANT_EVERY: usize = 100;
const CHECK_EDGES: usize = 3_000;
const SNAPSHOT_EDGES: usize = 4_000;
const KEEP_EVERY: u64 = 64;
const KEEP_CAP: usize = 100_000;
const STATS_SAMPLE_EDGES: usize = 16_384;

/// 64 distinct exfiltration templates: five distinct labels per query
/// from the middle ranks, most popular first, and one of the four timing
/// orders in turn.
fn draw_queries(rng: &mut Rng) -> Vec<QueryGraph> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(QUERIES);
    while out.len() < QUERIES {
        let mut pool: Vec<u16> = (LABELS.0..LABELS.1).collect();
        rng.shuffle(&mut pool);
        let mut l = [pool[0], pool[1], pool[2], pool[3], pool[4]];
        l.sort_unstable();
        let order = out.len() % EXFIL_ORDERS.len();
        if seen.insert((l, order)) {
            out.push(exfiltration(l, EXFIL_ORDERS[order]));
        }
    }
    out
}

struct Input {
    text: String,
    /// The benchmark's own reading of the text: the stream after clamping
    /// stragglers (`truth`), and the timestamps as written (`raw_ts`).
    truth: Vec<StreamEdge>,
    raw_ts: Vec<u64>,
    /// Queries over the text's interned labels.
    queries: Vec<QueryGraph>,
    planted: Vec<check::Expected>,
    closed_end: usize,
    open_count: usize,
}

/// Interns names in order of first appearance, as the s-graffito reader
/// is documented to.
#[derive(Default)]
struct Interner(HashMap<String, u32>);

impl Interner {
    fn id(&mut self, name: &str) -> u32 {
        let n = self.0.len() as u32;
        *self.0.entry(name.to_string()).or_insert(n)
    }
}

fn generate(seed: u64, seconds: f64) -> Input {
    let mut rng = Rng::new(seed);
    let queries = draw_queries(&mut rng);
    let closed_end = WINDOW as usize + (REFERENCE_EPS * seconds / 2.0) as usize;
    let open_count = (RATE * seconds / 2.0) as usize;
    let n = closed_end + open_count;
    let (stream, plants) = planted_stream(seed, n, &queries, PLANT_START, PLANT_EVERY);
    let planted_pos: HashSet<usize> = plants.iter().flat_map(|p| p.pos).collect();
    let planted = expected(&plants, &queries, |p| EdgeId(p as u64 + 1));

    let mut text = String::with_capacity(n * 24);
    let (mut vnames, mut lnames) = (Interner::default(), Interner::default());
    let mut raw_ts = Vec::with_capacity(n);
    let mut truth = Vec::with_capacity(n);
    let mut watermark = 0;
    let name = |v: VertexId| {
        if v.0 >= FRESH_HOST {
            format!("p{}", v.0 - FRESH_HOST)
        } else {
            v.0.to_string()
        }
    };
    for (p, e) in stream.iter().enumerate() {
        let mut ts = e.ts.0;
        if !planted_pos.contains(&p) && rng.next_u64().is_multiple_of(STRAGGLER_EVERY) {
            ts = ts.saturating_sub(2 + rng.next_u64() % (MAX_LAG - 1)).max(1);
        }
        let (src, dst, label) = (name(e.src), name(e.dst), format!("l{}", e.label.0));
        let _ = writeln!(text, "{src} {dst} {label} {ts}");
        raw_ts.push(ts);
        watermark = watermark.max(ts);
        let (src, dst, label) = (vnames.id(&src), vnames.id(&dst), lnames.id(&label) as u16);
        truth.push(StreamEdge::new(p as u64 + 1, src, 0, dst, 0, label, watermark));
    }
    drop(stream);
    // Queries over the text's label ids.
    let queries = queries
        .iter()
        .map(|q| {
            let mut q = q.clone();
            for e in &mut q.edges {
                e.label = ELabel(lnames.id(&format!("l{}", e.label.0)) as u16);
            }
            q.vertex_labels = vec![VLabel(0); q.vertex_labels.len()];
            q
        })
        .collect();
    Input { text, truth, raw_ts, queries, planted, closed_end, open_count }
}

/// The system under test.
struct Sharded {
    parsed: TextStream,
    engine: ShardedMultiEngine,
    /// Registration index of each query id.
    index: HashMap<u32, usize>,
    process_us: Vec<f64>,
    since_sample: usize,
    peak_snapshot: usize,
    peak_store: usize,
}

impl System for Sharded {
    fn submit(&mut self, lo: usize, hi: usize, tr: &mut Tracer, sink: &mut Sink) {
        let (edges, engine) = (&self.parsed.edges, &mut self.engine);
        let t = Instant::now();
        let out = tr.span("shard.process", || engine.process(&edges[lo..hi]));
        let ret = Instant::now();
        let s = tr.begin("sink");
        sink.begin(lo, hi, ret);
        for (id, rec) in out {
            sink.take(id.0 as u32, rec);
        }
        sink.end();
        tr.end(s);
        if tr.enabled() {
            self.process_us.push((ret - t).as_secs_f64() * 1e6);
            self.since_sample += hi - lo;
            if self.since_sample >= STATS_SAMPLE_EDGES {
                self.since_sample = 0;
                let engine = &self.engine;
                let st = tr.span("multi.stats", || engine.stats());
                self.peak_snapshot = self.peak_snapshot.max(st.snapshot_bytes);
                self.peak_store =
                    self.peak_store.max(st.templates.iter().map(|t| t.store_bytes).sum());
            }
        }
    }
}

struct Built {
    sys: Sharded,
    plan_us: Vec<f64>,
    parse_s: f64,
}

/// Set-up: parse the text, build the plans, construct the front-end,
/// register the queries and fill the first window. A text the reader
/// rejects ends the run.
fn setup(input: &Input, tr: &mut Tracer, sink: &mut Sink, rec: Option<Arc<Recorder>>) -> Built {
    let t = Instant::now();
    let parsed = match tr.span("io.parse", || edge_stream_from_str(&input.text, 1)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("netflow-sharded: the generated text does not parse: {e}");
            std::process::exit(1);
        }
    };
    let parse_s = t.elapsed().as_secs_f64();
    let mut engine = tr.span("shard.new", || ShardedMultiEngine::new(WINDOW, SHARDS));
    engine.set_order_policy(OrderPolicy::ClampToWatermark);
    if let Some(rec) = rec {
        engine.set_recorder(rec);
    }
    let mut plan_us = Vec::new();
    let mut index = HashMap::new();
    for (i, q) in input.queries.iter().enumerate() {
        let t = Instant::now();
        let plan = tr.span("plan.build", || QueryPlan::build(q.clone(), PlanOptions::timing()));
        plan_us.push(t.elapsed().as_secs_f64() * 1e6);
        let id: QueryId = tr.span("shard.register", || engine.register(plan));
        index.insert(id.0 as u32, i);
    }
    let mut sys = Sharded {
        parsed,
        engine,
        index,
        process_us: Vec::new(),
        since_sample: 0,
        peak_snapshot: 0,
        peak_store: 0,
    };
    closed_loop(
        &mut sys,
        tr,
        sink,
        (0, WINDOW as usize),
        FILL_SLICE,
        usize::MAX,
        f64::INFINITY,
        false,
    );
    Built { sys, plan_us, parse_s }
}

/// The parser read back exactly the stream the benchmark wrote.
fn check_parse(input: &Input, parsed: &TextStream, fail: &mut Failures) {
    if parsed.edges.len() != input.truth.len() {
        fail.push(format!("parsed {} edges from {} lines", parsed.edges.len(), input.truth.len()));
    }
    let wrote = input
        .truth
        .iter()
        .zip(&input.raw_ts)
        .map(|(&e, &ts)| StreamEdge { ts: Timestamp(ts), ..e });
    if let Some((p, w)) = parsed
        .edges
        .iter()
        .zip(wrote)
        .enumerate()
        .find(|(_, (a, b))| **a != *b)
        .map(|(p, (_, w))| (p, w))
    {
        fail.push(format!("line {}: parsed {:?}, wrote {w:?}", p + 1, parsed.edges[p]));
    }
}

fn check_sink(
    sink: &Sink,
    input: &Input,
    index: &HashMap<u32, usize>,
    span: (usize, usize),
    fail: &mut Failures,
) {
    let truth = Truth { edges: &input.truth, id_base: 1, window: WINDOW };
    if sink.out_of_call > 0 {
        fail.push(format!(
            "{} deliveries arrived outside the call that submitted their newest edge",
            sink.out_of_call
        ));
    }
    let kept = sink.kept();
    check::kept_deliveries(&kept, |q| index.get(&q).map(|&i| &input.queries[i]), &truth, fail);
    // Planted recipients are registration indices; deliveries carry ids.
    let by_index: Vec<crate::loadgen::Kept> = kept
        .iter()
        .filter_map(|k| index.get(&k.q).map(|&i| crate::loadgen::Kept { q: i as u32, ..k.clone() }))
        .collect();
    if check::planted_recall(&by_index, &input.planted, span, fail) == 0 {
        fail.push("no planted instance fell inside the run".into());
    }
}

/// The untimed check run: parse, fresh front-end over the first window
/// plus `CHECK_EDGES`, every delivery kept and compared with the oracle
/// over the benchmark's own sanitized stream.
fn check_prefix(input: &Input, fail: &mut Failures) {
    let n = WINDOW as usize + CHECK_EDGES;
    let mut tr = Tracer::new(false);
    let last: Vec<usize> = input.planted.iter().map(|p| p.last).collect();
    let mut sink = Sink::new(1, 1, usize::MAX, &last);
    let mut sys = setup(input, &mut tr, &mut sink, None).sys;
    closed_loop(
        &mut sys,
        &mut tr,
        &mut sink,
        (WINDOW as usize, n),
        SLICE,
        usize::MAX,
        f64::INFINITY,
        false,
    );
    let index = sys.index.clone();
    let clamped = sys.engine.ingest_stats().clamped;
    check_parse(input, &sys.parsed, fail);
    drop(sys);
    if clamped == 0 {
        fail.push("no straggler was clamped in the check run".into());
    }
    check_sink(&sink, input, &index, (0, n), fail);
    let mut got = check::by_query(&sink.kept());
    for (&id, &i) in &index {
        let q = &input.queries[i];
        let delivered = got.remove(&id).unwrap_or_default();
        let head: Vec<MatchRecord> = delivered
            .iter()
            .filter(|m| m.edges().iter().all(|e| (e.0 as usize) <= SNAPSHOT_EDGES))
            .cloned()
            .collect();
        let oracle = check::oracle_matches(q, &input.truth[..SNAPSHOT_EDGES], WINDOW);
        check::same_matches(&format!("snapshot oracle, query {i}"), head, oracle, fail);
        let oracle = check::anchored_matches(q, &input.truth[..n], WINDOW);
        check::same_matches(&format!("anchored oracle, query {i}"), delivered, oracle, fail);
    }
}

pub fn run(args: &Args) -> Outcome {
    match pin_to_current_cpu() {
        Some(cpu) => eprintln!("netflow-sharded: pinned to CPU {cpu}"),
        None => eprintln!("netflow-sharded: could not pin to one CPU; running unpinned"),
    }
    let t = Instant::now();
    let input = generate(args.seed, args.seconds);
    eprintln!("netflow-sharded: inputs generated in {:.2} s", t.elapsed().as_secs_f64());
    let last: Vec<usize> = input.planted.iter().map(|p| p.last).collect();
    let mut sink = Sink::new(1, KEEP_EVERY, KEEP_CAP, &last);
    let planted = input.planted.iter().map(|p| p.recipients.len()).sum::<usize>();
    sink.reserve(KEEP_CAP + planted, 5 * (KEEP_CAP + planted));
    let (rss0, heap0_mb) = (rss_mb(), heap_mb());
    let mut failures = Failures::default();

    let mut tr = Tracer::new(args.trace);
    let rec = args.trace.then(|| Arc::new(Recorder::new()));
    let (mut parse_s, mut plan_us) = (Vec::new(), Vec::new());
    let (mut sys, setups) = repeat_setup(&mut tr, &mut sink, |tr, sink| {
        let b = setup(&input, tr, sink, rec.clone());
        parse_s.push(b.parse_s);
        plan_us.extend(b.plan_us);
        b.sys
    });
    let k_mean = input
        .queries
        .iter()
        .map(|q| QueryPlan::build(q.clone(), PlanOptions::timing()).k() as f64)
        .sum::<f64>()
        / input.queries.len() as f64;
    let deliveries0 = sink.deliveries;
    let w = WINDOW as usize;
    let (closed, open) = run_phases(
        &mut sys,
        &mut tr,
        &mut sink,
        args,
        (w, input.closed_end),
        (SLICE, BLOCK),
        input.open_count,
        RATE,
    );
    let from = w + closed.edges;
    let rss_growth_mb = peak_rss_mb() - rss0;
    let t = Instant::now();
    check_prefix(&input, &mut failures);
    eprintln!("netflow-sharded: oracle check run in {:.2} s", t.elapsed().as_secs_f64());
    check_parse(&input, &sys.parsed, &mut failures);
    check_sink(&sink, &input, &sys.index, (0, from + open.edges), &mut failures);

    let st = sys.engine.stats();
    let ingest = sys.engine.ingest_stats();
    let mut layers = multi_layers(&st, sink.deliveries - deliveries0, sink.deliveries);
    layers.insert("io.parse_s", median(&parse_s));
    layers.insert("plan.build_us_p50", median(&plan_us));
    layers.insert("plan.k_mean", k_mean);
    layers.insert("ingest.admitted", ingest.admitted as f64);
    layers.insert("ingest.clamped", ingest.clamped as f64);
    layers.insert("multi.templates", sys.engine.n_templates() as f64);
    layers.insert("multi.queries", sys.engine.n_queries() as f64);
    layers.insert("multi.snapshot_bytes", sys.peak_snapshot as f64);
    layers.insert("multi.store_bytes", sys.peak_store as f64);
    layers.insert("shard.process_busy_s", tr.self_s("shard.process"));
    layers.insert("shard.process_calls", tr.agg("shard.process").count as f64);
    layers.insert("shard.process_us_p50", median(&sys.process_us));
    if let Some(rec) = &rec {
        let loads = rec.snapshot().shards;
        let routed: Vec<f64> = loads.iter().map(|l| l.edges_routed as f64).collect();
        let mean = routed.iter().sum::<f64>() / routed.len().max(1) as f64;
        let max = routed.iter().copied().fold(0.0, f64::max);
        layers.insert("shard.routed_imbalance", if mean > 0.0 { max / mean } else { 0.0 });
        layers.insert(
            "shard.queue_hwm_max",
            loads.iter().map(|l| l.queue_depth_hwm).max().unwrap_or(0) as f64,
        );
    }
    Outcome {
        attempted: (closed.edges + open.edges) as u64,
        setups,
        heap0_mb,
        rss_growth_mb,
        closed,
        open,
        sink,
        tracer: tr,
        layers,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcs_multi::MultiQueryEngine;

    /// The single-threaded baseline quoted in README.md: the job of
    /// `netflow-sharded` (same text, queries, policy and slices) through
    /// one serial `MultiQueryEngine`, throughput reported the way the
    /// benchmark reports it. A one-off measurement, so ignored by default:
    ///
    /// `cargo test --release --manifest-path streambench/Cargo.toml -- --ignored --nocapture serial_baseline`
    #[test]
    #[ignore]
    fn serial_baseline() {
        let input = generate(1, 20.0);
        let parsed = edge_stream_from_str(&input.text, 1).unwrap_or_else(|e| panic!("{e}"));
        let mut engine: MultiQueryEngine = MultiQueryEngine::new(WINDOW);
        engine.set_order_policy(OrderPolicy::ClampToWatermark);
        for q in &input.queries {
            engine.register(QueryPlan::build(q.clone(), PlanOptions::timing()));
        }
        let w = WINDOW as usize;
        for s in parsed.edges[..w].chunks(FILL_SLICE) {
            engine.advance_batch(s);
        }
        let start = Instant::now();
        let mut blocks = Vec::new();
        for block in parsed.edges[w..input.closed_end].chunks(SLICE * BLOCK) {
            let t = Instant::now();
            for s in block.chunks(SLICE) {
                engine.advance_batch(s);
            }
            blocks.push(block.len() as f64 / t.elapsed().as_secs_f64());
            if start.elapsed().as_secs_f64() > 10.0 {
                break;
            }
        }
        println!(
            "serial MultiQueryEngine, netflow-sharded job: {:.0} edges/s \
             (lower quartile of {} blocks, as throughput_eps)",
            crate::throughput(&blocks),
            blocks.len()
        );
    }
}
