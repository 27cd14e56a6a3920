//! `netflow-core`: twelve standing exfiltration queries, each with its
//! own `TimingEngine<MsTreeStore>`, fed the `BatchEvent`s of one
//! `SlidingWindow` over the default `NetworkFlowGen` stream at the
//! paper's default window of 30,000. Probe/join, `propagate` across L₀
//! and expiry do nearly all the work; `tcs-multi` is bypassed.

use crate::check::{self, Expected, Failures, Truth};
use crate::loadgen::{closed_loop, Sink, System};
use crate::queries::{exfiltration, EXFIL_ORDERS};
use crate::trace::Tracer;
use crate::util::{heap_mb, median, peak_rss_mb, rss_mb, Rng};
use crate::{repeat_setup, run_phases, total, Args, Outcome};
use std::collections::HashMap;
use std::time::Instant;
use tcs_core::{MsTreeStore, PlanOptions, QueryPlan, TimingEngine};
use tcs_graph::gen::network_flow::IP;
use tcs_graph::gen::NetworkFlowGen;
use tcs_graph::{
    ELabel, EdgeId, MatchRecord, QueryGraph, SlidingWindow, StreamEdge, Timestamp, VertexId,
};

pub const WINDOW: u64 = 30_000;
/// Closed-loop slice.
const SLICE: usize = 256;
/// Slices per closed-loop block, the unit throughput is measured over.
const BLOCK: usize = 48;
/// Offered open-loop rate, edges/s.
const RATE: f64 = 30_000.0;
/// The closed loop submits `seconds / 2` of stream at this rate, about
/// the fastest blocks seen on the reference machine (see README.md).
const REFERENCE_EPS: f64 = 240_000.0;
/// One planted instance starts every this many stream positions.
const PLANT_EVERY: usize = 200;
/// Stream positions between consecutive edges of a planted instance.
const PLANT_GAP: usize = 9;
/// The untimed oracle check covers the first window plus this many edges.
const CHECK_EDGES: usize = 3_000;
/// `SnapshotOracle` enumerates the whole window per arrival; it checks
/// this shorter prefix, the anchored matcher the whole check run.
const SNAPSHOT_EDGES: usize = 4_000;
/// Traced runs sample the stores' size every this many edges.
const STORE_SAMPLE_EDGES: usize = 16_384;
/// Every this many-th call has all its deliveries kept for the checks,
/// up to `KEEP_CAP` deliveries.
const KEEP_EVERY: u64 = 64;
const KEEP_CAP: usize = 100_000;

/// The hot band's labels (popularity ranks 3, 2, 4, 6, 7 of the
/// generator's Zipf label alphabet), fixed: a per-seed draw from this
/// band moved the engines' exact work by ±27 % between seeds, more than
/// any bound the benchmark could hold.
const HOT: [u16; 5] = [2, 1, 3, 5, 6];
/// The warm band's labels (ranks 8, 9, 10, 12, 14), fixed for the same
/// reason.
const WARM: [u16; 5] = [7, 8, 9, 11, 13];
/// The cold band (ranks 16–23): each of its queries draws five labels
/// per seed, most popular first.
const COLD: (u16, u16) = (15, 23);
/// Planted hosts are numbered from here, far above the generator's.
pub const FRESH_HOST: u32 = 1 << 31;

/// A band of labels: fixed, or drawn per query from a rank range.
pub enum Band {
    Fixed([u16; 5]),
    Drawn(u16, u16),
}

/// Exfiltration queries: per band, one per timing order (k = 1..4).
pub fn draw_queries(rng: &mut Rng, bands: &[Band]) -> Vec<QueryGraph> {
    let mut out = Vec::new();
    for band in bands {
        for order in EXFIL_ORDERS {
            let labels = match *band {
                Band::Fixed(l) => l,
                Band::Drawn(lo, hi) => {
                    let mut pool: Vec<u16> = (lo..hi).collect();
                    rng.shuffle(&mut pool);
                    let mut l = [pool[0], pool[1], pool[2], pool[3], pool[4]];
                    l.sort_unstable();
                    l
                }
            };
            out.push(exfiltration(labels, order));
        }
    }
    out
}

/// A planted exfiltration instance: the stream positions of its five
/// edges in query-edge order, and the query whose labels it carries.
pub struct Plant {
    pub query: usize,
    pub pos: [usize; 5],
}

/// Generates the stream with planted instances interleaved, numbered
/// so that position `p` has id `p` and timestamp `p + 1`. Instance `j`
/// targets query `j % queries.len()`, starts at `start + j * every`,
/// spaces its edges `PLANT_GAP` apart and uses three hosts no other edge
/// touches. The generator's edges move into place in the same buffer,
/// so generating costs no more memory than the stream itself.
pub fn planted_stream(
    seed: u64,
    n: usize,
    queries: &[QueryGraph],
    start: usize,
    every: usize,
) -> (Vec<StreamEdge>, Vec<Plant>) {
    let mut plants = Vec::new();
    let mut slots: Vec<(usize, StreamEdge)> = Vec::new();
    let mut j = 0;
    while start + j * every + 4 * PLANT_GAP < n {
        let query = j % queries.len();
        let host = |v: usize| VertexId(FRESH_HOST + 3 * j as u32 + v as u32);
        let mut pos = [0; 5];
        for (r, qe) in queries[query].edges.iter().enumerate() {
            pos[r] = start + j * every + r * PLANT_GAP;
            let e = StreamEdge {
                id: EdgeId(0),
                src: host(qe.src),
                dst: host(qe.dst),
                src_label: IP,
                dst_label: IP,
                label: qe.label,
                ts: Timestamp(0),
            };
            slots.push((pos[r], e));
        }
        plants.push(Plant { query, pos });
        j += 1;
    }
    let mut edges = NetworkFlowGen::default().generate(n - slots.len(), seed);
    let mut read = edges.len();
    edges.resize(n, StreamEdge::new(0, 0, 0, 0, 0, 0, 0));
    slots.sort_unstable_by_key(|s| s.0);
    for p in (0..n).rev() {
        if slots.last().is_some_and(|s| s.0 == p) {
            edges[p] = slots.pop().map_or(edges[p], |s| s.1);
        } else {
            read -= 1;
            edges[p] = edges[read];
        }
        edges[p].id = EdgeId(p as u64);
        edges[p].ts = Timestamp(p as u64 + 1);
    }
    (edges, plants)
}

/// Who must receive a planted instance: every query with the planted
/// labels (the instance's timestamps follow the chain, which satisfies
/// every order), registered from the start.
pub fn expected(
    plants: &[Plant],
    queries: &[QueryGraph],
    id_of: impl Fn(usize) -> EdgeId,
) -> Vec<Expected> {
    let labels = |q: &QueryGraph| q.edges.iter().map(|e| e.label).collect::<Vec<ELabel>>();
    plants
        .iter()
        .map(|p| {
            let want = labels(&queries[p.query]);
            let rec = MatchRecord::from(p.pos.iter().map(|&x| id_of(x)).collect::<Vec<_>>());
            Expected {
                recipients: (0..queries.len())
                    .filter(|&q| labels(&queries[q]) == want)
                    .map(|q| (q as u32, rec.clone()))
                    .collect(),
                first: p.pos[0],
                last: p.pos[4],
            }
        })
        .collect()
}

struct Input {
    edges: Vec<StreamEdge>,
    queries: Vec<QueryGraph>,
    planted: Vec<Expected>,
    closed_end: usize,
    open_count: usize,
}

fn generate(seed: u64, seconds: f64) -> Input {
    let mut rng = Rng::new(seed);
    let queries =
        draw_queries(&mut rng, &[Band::Fixed(HOT), Band::Fixed(WARM), Band::Drawn(COLD.0, COLD.1)]);
    let closed_end = WINDOW as usize + (REFERENCE_EPS * seconds / 2.0) as usize;
    let open_count = (RATE * seconds / 2.0) as usize;
    let n = closed_end + open_count;
    let (edges, plants) = planted_stream(seed, n, &queries, PLANT_EVERY / 2, PLANT_EVERY);
    let planted = expected(&plants, &queries, |p| EdgeId(p as u64));
    Input { edges, queries, planted, closed_end, open_count }
}

/// The system under test.
struct Core<'a> {
    edges: &'a [StreamEdge],
    window: SlidingWindow,
    engines: Vec<TimingEngine<MsTreeStore>>,
    outs: Vec<Vec<MatchRecord>>,
    expired: u64,
    since_sample: usize,
    peak_bytes: usize,
    peak_rows: u64,
}

impl System for Core<'_> {
    fn submit(&mut self, lo: usize, hi: usize, tr: &mut Tracer, sink: &mut Sink) {
        let (edges, window) = (self.edges, &mut self.window);
        let ev = tr.span("window.advance_batch", || window.advance_batch(&edges[lo..hi]));
        for (eng, out) in self.engines.iter_mut().zip(self.outs.iter_mut()) {
            *out = tr.span("engine.advance_batch", || eng.advance_batch(&ev));
        }
        let ret = Instant::now();
        let t = tr.begin("sink");
        sink.begin(lo, hi, ret);
        for (q, out) in self.outs.iter_mut().enumerate() {
            for rec in out.drain(..) {
                sink.take(q as u32, rec);
            }
        }
        sink.end();
        tr.end(t);
        self.expired += ev.expiries() as u64;
        self.since_sample += hi - lo;
        if tr.enabled() && self.since_sample >= STORE_SAMPLE_EDGES {
            self.since_sample = 0;
            let engines = &self.engines;
            let (bytes, rows) = tr.span("engine.store_stats", || {
                engines
                    .iter()
                    .fold((0, 0), |(b, r), e| (b + e.store_space_bytes(), r + e.store_rows()))
            });
            self.peak_bytes = self.peak_bytes.max(bytes);
            self.peak_rows = self.peak_rows.max(rows);
        }
    }
}

fn setup<'a>(input: &'a Input, tr: &mut Tracer, plan_us: &mut Vec<f64>) -> Core<'a> {
    let engines = input
        .queries
        .iter()
        .map(|q| {
            let t = Instant::now();
            let plan = tr.span("plan.build", || QueryPlan::build(q.clone(), PlanOptions::timing()));
            plan_us.push(t.elapsed().as_secs_f64() * 1e6);
            tr.span("engine.new", || TimingEngine::new(plan))
        })
        .collect::<Vec<_>>();
    Core {
        edges: &input.edges,
        window: SlidingWindow::new(WINDOW),
        outs: vec![Vec::new(); engines.len()],
        engines,
        expired: 0,
        since_sample: 0,
        peak_bytes: 0,
        peak_rows: 0,
    }
}

fn sink_for(input: &Input, keep_every: u64, keep_cap: usize) -> Sink {
    let last: Vec<usize> = input.planted.iter().map(|p| p.last).collect();
    Sink::new(0, keep_every, keep_cap, &last)
}

/// The untimed check run: a fresh system over the first window plus
/// `CHECK_EDGES`, every delivery kept and compared with the oracle.
fn check_prefix(input: &Input, fail: &mut Failures) {
    let n = WINDOW as usize + CHECK_EDGES;
    let truth = Truth { edges: &input.edges, id_base: 0, window: WINDOW };
    let mut tr = Tracer::new(false);
    let mut sink = sink_for(input, 1, usize::MAX);
    let mut core = setup(input, &mut tr, &mut Vec::new());
    closed_loop(&mut core, &mut tr, &mut sink, (0, n), SLICE, usize::MAX, f64::INFINITY, false);
    check_sink(&sink, input, &truth, (0, n), fail);
    let mut got = check::by_query(&sink.kept());
    for (q, query) in input.queries.iter().enumerate() {
        let delivered = got.remove(&(q as u32)).unwrap_or_default();
        let head: Vec<MatchRecord> = delivered
            .iter()
            .filter(|m| m.edges().iter().all(|e| (e.0 as usize) < SNAPSHOT_EDGES))
            .cloned()
            .collect();
        let oracle = check::oracle_matches(query, &input.edges[..SNAPSHOT_EDGES], WINDOW);
        check::same_matches(&format!("snapshot oracle, query {q}"), head, oracle, fail);
        let oracle = check::anchored_matches(query, &input.edges[..n], WINDOW);
        check::same_matches(&format!("anchored oracle, query {q}"), delivered, oracle, fail);
    }
}

fn check_sink(
    sink: &Sink,
    input: &Input,
    truth: &Truth,
    span: (usize, usize),
    fail: &mut Failures,
) {
    if sink.out_of_call > 0 {
        fail.push(format!(
            "{} deliveries arrived outside the call that submitted their newest edge",
            sink.out_of_call
        ));
    }
    let kept = sink.kept();
    check::kept_deliveries(&kept, |q| input.queries.get(q as usize), truth, fail);
    let n = check::planted_recall(&kept, &input.planted, span, fail);
    if n == 0 {
        fail.push("no planted instance fell inside the run".into());
    }
}

pub fn run(args: &Args) -> Outcome {
    let t = Instant::now();
    let input = generate(args.seed, args.seconds);
    eprintln!("netflow-core: inputs generated in {:.2} s", t.elapsed().as_secs_f64());
    let mut sink = sink_for(&input, KEEP_EVERY, KEEP_CAP);
    let planted = input.planted.iter().map(|p| p.recipients.len()).sum::<usize>();
    sink.reserve(KEEP_CAP + planted, 5 * (KEEP_CAP + planted));
    let (rss0, heap0_mb) = (rss_mb(), heap_mb());
    let mut failures = Failures::default();

    let mut tr = Tracer::new(args.trace);
    let mut plan_us = Vec::new();
    let w = WINDOW as usize;
    let (mut core, setups) = repeat_setup(&mut tr, &mut sink, |tr, sink| {
        let mut core = setup(&input, tr, &mut plan_us);
        closed_loop(&mut core, tr, sink, (0, w), SLICE, usize::MAX, f64::INFINITY, false);
        core
    });
    let (expired0, stats0) = (core.expired, total(core.engines.iter().map(|e| e.stats())));
    let (closed, open) = run_phases(
        &mut core,
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
    eprintln!("netflow-core: oracle check run in {:.2} s", t.elapsed().as_secs_f64());

    let truth = Truth { edges: &input.edges, id_base: 0, window: WINDOW };
    check_sink(&sink, &input, &truth, (0, from + open.edges), &mut failures);

    let s = total(core.engines.iter().map(|e| e.stats()));
    let edges = (s.edges_processed - stats0.edges_processed) as f64 / core.engines.len() as f64;
    let ratio = |a: u64, b: f64| if b > 0.0 { a as f64 / b } else { 0.0 };
    let mut layers: HashMap<&'static str, f64> = HashMap::new();
    let ks: Vec<f64> = core.engines.iter().map(|e| e.plan().k() as f64).collect();
    layers.insert("plan.build_us_p50", median(&plan_us));
    layers.insert("plan.k_mean", ks.iter().sum::<f64>() / ks.len() as f64);
    layers.insert("window.busy_s", tr.self_s("window.advance_batch"));
    layers.insert("window.expired", (core.expired - expired0) as f64);
    layers.insert("engine.busy_s", tr.self_s("engine.advance_batch"));
    layers.insert("engine.calls", tr.agg("engine.advance_batch").count as f64);
    layers.insert("engine.joins_per_edge", ratio(s.join_ops - stats0.join_ops, edges));
    layers.insert(
        "engine.discard_ratio",
        ratio(
            s.edges_discarded - stats0.edges_discarded,
            (s.edges_processed - stats0.edges_processed) as f64,
        ),
    );
    layers.insert(
        "engine.partials_inserted",
        (s.partials_inserted - stats0.partials_inserted) as f64,
    );
    layers.insert("engine.partials_deleted", (s.partials_deleted - stats0.partials_deleted) as f64);
    layers.insert("engine.matches", (s.matches_emitted - stats0.matches_emitted) as f64);
    layers.insert("store.peak_bytes", core.peak_bytes as f64);
    layers.insert("store.peak_rows", core.peak_rows as f64);
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
