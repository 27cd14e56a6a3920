//! `social-tenants`: about a thousand registrations in one
//! `MultiQueryEngine` over the default `SocialStreamGen` stream with a
//! window of 2,000. Registrations are random vertex-and-edge
//! permutations of 32 three-edge schema-path templates with Zipf
//! popularity, so permuted twins share one engine; every
//! `CHURN_EVERY` edges one registration leaves and a fresh permutation
//! of its template joins. Dispatch and template fan-out do most of the
//! work, and churn writes to the registry beside the reads.

use crate::check::{self, Expected, Failures, Truth};
use crate::loadgen::{closed_loop, Sink, System};
use crate::queries::{schema_paths, PathTemplate};
use crate::trace::Tracer;
use crate::util::{heap_mb, median, peak_rss_mb, rss_mb, Rng};
use crate::{multi_layers, repeat_setup, run_phases, Args, Outcome};
use std::collections::HashMap;
use std::time::Instant;
use tcs_core::{PlanOptions, QueryPlan};
use tcs_graph::gen::SocialStreamGen;
use tcs_graph::{EdgeId, MatchRecord, QueryGraph, StreamEdge, Timestamp, VertexId};
use tcs_multi::{MultiQueryEngine, QueryId};

pub const WINDOW: u64 = 2_000;
const SLICE: usize = 64;
const BLOCK: usize = 24;
const RATE: f64 = 4_000.0;
/// The closed loop submits `seconds / 2` of stream at this rate, about
/// the fastest blocks seen on the reference machine (see README.md).
const REFERENCE_EPS: f64 = 28_000.0;
/// Templates, and registrations spread over them by Zipf(1) popularity.
const TEMPLATES: usize = 32;
const REGISTRATIONS: usize = 1_000;
/// One registration leaves and one joins every this many edges.
const CHURN_EVERY: usize = 256;
const PLANT_EVERY: usize = 48;
const PLANT_GAP: usize = 5;
/// The untimed oracle check covers the first window plus this many edges
/// (churn included).
const CHECK_EDGES: usize = 1_000;
/// The check run compares every registration whose id is a multiple of
/// this with the oracle (all deliveries of all registrations would not
/// fit in memory beside the system), and the snapshot oracle itself with
/// the anchored matcher over the first `SNAPSHOT_EDGES`.
const CHECK_QUERY_EVERY: u32 = 8;
const SNAPSHOT_EDGES: usize = 1_000;
const KEEP_EVERY: u64 = 512;
const KEEP_CAP: usize = 100_000;
/// Traced runs sample the registry's size every this many edges.
const STATS_SAMPLE_EDGES: usize = 8_192;
const FRESH_VERTEX: u32 = 1 << 31;
/// The seed of the social stream, fixed rather than `--seed`: the stream
/// sets how many matches each template finds, and per-seed streams moved
/// throughput by up to half between seeds (README.md). The seed still
/// draws the permutations, the registration order and the churn.
const STREAM_SEED: u64 = 1;

/// The templates, most popular first: every other schema path in the
/// schema's predicate order, alternately chain-ordered and partially
/// ordered. Fixed rather than drawn per seed, because which template
/// ranks first sets the fan-out volume of the whole run.
fn templates() -> Vec<PathTemplate> {
    schema_paths()
        .into_iter()
        .step_by(2)
        .take(TEMPLATES)
        .enumerate()
        .map(|(i, (types, labels))| PathTemplate { types, labels, chain: i.is_multiple_of(2) })
        .collect()
}

/// Registrations per template: Zipf(1) shares of `REGISTRATIONS`,
/// rounded by largest remainder, so the mix is the same for every seed.
fn zipf_counts() -> Vec<usize> {
    let h: f64 = (1..=TEMPLATES).map(|r| 1.0 / r as f64).sum();
    let exact: Vec<f64> = (1..=TEMPLATES).map(|r| REGISTRATIONS as f64 / (r as f64 * h)).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut rest: Vec<usize> = (0..TEMPLATES).collect();
    rest.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = REGISTRATIONS - counts.iter().sum::<usize>();
    for &i in rest.iter().take(short) {
        counts[i] += 1;
    }
    counts
}

/// One registration: its template and the permutations that made it.
#[derive(Clone)]
struct Reg {
    template: usize,
    eperm: [usize; 3],
    query: QueryGraph,
}

fn draw_reg(rng: &mut Rng, t: &PathTemplate, template: usize) -> Reg {
    let mut vperm = [0, 1, 2, 3];
    rng.shuffle(&mut vperm);
    let mut eperm = [0, 1, 2];
    rng.shuffle(&mut eperm);
    Reg { template, eperm, query: t.permuted(&vperm, &eperm) }
}

struct Input {
    edges: Vec<StreamEdge>,
    templates: Vec<PathTemplate>,
    /// Initial registrations, in registration order.
    initial: Vec<Reg>,
    /// Per churn event: which live registration leaves (an index drawn
    /// modulo the live count) and the fresh permutation that joins.
    churn: Vec<(u64, [usize; 4], [usize; 3])>,
    /// Planted instances: template and stream positions of its edges.
    plants: Vec<(usize, [usize; 3])>,
    closed_end: usize,
    open_count: usize,
}

fn generate(seed: u64, seconds: f64) -> Input {
    let mut rng = Rng::new(seed);
    let templates = templates();
    let mut initial = Vec::with_capacity(REGISTRATIONS);
    for (t, &n) in zipf_counts().iter().enumerate() {
        for _ in 0..n {
            initial.push(draw_reg(&mut rng, &templates[t], t));
        }
    }
    rng.shuffle(&mut initial);
    let closed_end = WINDOW as usize + (REFERENCE_EPS * seconds / 2.0) as usize;
    let open_count = (RATE * seconds / 2.0) as usize;
    let n = closed_end + open_count;
    let churn = (0..n / CHURN_EVERY + 1)
        .map(|_| {
            let mut v = [0, 1, 2, 3];
            rng.shuffle(&mut v);
            let mut e = [0, 1, 2];
            rng.shuffle(&mut e);
            (rng.next_u64(), v, e)
        })
        .collect();

    let raw = SocialStreamGen::default().generate(n, STREAM_SEED);
    let mut slots: Vec<(usize, StreamEdge)> = Vec::new();
    let mut plants = Vec::new();
    let mut j = 0;
    while PLANT_EVERY / 2 + j * PLANT_EVERY + 2 * PLANT_GAP < n {
        let t = &templates[j % TEMPLATES];
        let v = |i: usize| VertexId(FRESH_VERTEX + 4 * j as u32 + i as u32);
        let pos: [usize; 3] =
            std::array::from_fn(|e| PLANT_EVERY / 2 + j * PLANT_EVERY + e * PLANT_GAP);
        let q = t.query();
        for (e, qe) in q.edges.iter().enumerate() {
            slots.push((
                pos[e],
                StreamEdge {
                    id: EdgeId(0),
                    src: v(qe.src),
                    dst: v(qe.dst),
                    src_label: q.vertex_labels[qe.src],
                    dst_label: q.vertex_labels[qe.dst],
                    label: qe.label,
                    ts: Timestamp(0),
                },
            ));
        }
        plants.push((j % TEMPLATES, pos));
        j += 1;
    }
    let mut edges = Vec::with_capacity(n);
    let mut raw = raw.into_iter();
    let mut slots = slots.into_iter().peekable();
    for p in 0..n {
        let mut e = match slots.next_if(|s| s.0 == p) {
            Some((_, e)) => e,
            None => raw.next().unwrap_or_else(|| unreachable!("raw stream sized for n")),
        };
        e.id = EdgeId(p as u64);
        e.ts = Timestamp(p as u64 + 1);
        edges.push(e);
    }
    Input { edges, templates, initial, churn, plants, closed_end, open_count }
}

/// A registration's life: what it is and which stream positions it saw.
struct Life {
    reg: Reg,
    from: usize,
    until: usize,
}

/// The system under test.
struct Tenants<'a> {
    input: &'a Input,
    engine: MultiQueryEngine,
    live: Vec<QueryId>,
    /// Indexed by `QueryId` (ids are dense from 0).
    lives: Vec<Life>,
    churning: bool,
    next_churn: usize,
    churns: usize,
    plan_us: Vec<f64>,
    register_us: Vec<f64>,
    unregister_us: Vec<f64>,
    since_sample: usize,
    peak_snapshot: usize,
    peak_store: usize,
}

impl Tenants<'_> {
    fn register(&mut self, reg: Reg, pos: usize, tr: &mut Tracer) {
        let t = Instant::now();
        let q = reg.query.clone();
        let plan = tr.span("plan.build", || QueryPlan::build(q, PlanOptions::timing()));
        self.plan_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let engine = &mut self.engine;
        let id = tr.span("multi.register", || engine.register(plan));
        self.register_us.push(t.elapsed().as_secs_f64() * 1e6);
        debug_assert_eq!(id.0 as usize, self.lives.len());
        self.live.push(id);
        self.lives.push(Life { reg, from: pos, until: usize::MAX });
    }

    fn churn(&mut self, pos: usize, tr: &mut Tracer) {
        let (pick, vperm, eperm) = self.input.churn[self.churns];
        self.churns += 1;
        let id = self.live.swap_remove((pick % self.live.len() as u64) as usize);
        let t = Instant::now();
        let engine = &mut self.engine;
        let removed = tr.span("multi.unregister", || engine.unregister(id));
        self.unregister_us.push(t.elapsed().as_secs_f64() * 1e6);
        debug_assert!(removed);
        let life = &mut self.lives[id.0 as usize];
        life.until = pos;
        let template = life.reg.template;
        let t = &self.input.templates[template];
        let reg = Reg { template, eperm, query: t.permuted(&vperm, &eperm) };
        self.register(reg, pos, tr);
    }
}

impl System for Tenants<'_> {
    fn submit(&mut self, lo: usize, hi: usize, tr: &mut Tracer, sink: &mut Sink) {
        let mut pos = lo;
        loop {
            if self.churning && pos == self.next_churn {
                self.churn(pos, tr);
                self.next_churn += CHURN_EVERY;
            }
            if pos >= hi {
                break;
            }
            let stop = if self.churning { hi.min(self.next_churn) } else { hi };
            let (edges, engine) = (&self.input.edges, &mut self.engine);
            let out = tr.span("multi.advance_batch", || engine.advance_batch(&edges[pos..stop]));
            let ret = Instant::now();
            let t = tr.begin("sink");
            sink.begin(pos, stop, ret);
            for (id, rec) in out {
                sink.take(id.0 as u32, rec);
            }
            sink.end();
            tr.end(t);
            self.since_sample += stop - pos;
            pos = stop;
        }
        if tr.enabled() && self.since_sample >= STATS_SAMPLE_EDGES {
            self.since_sample = 0;
            let engine = &self.engine;
            let st = tr.span("multi.stats", || engine.stats());
            self.peak_snapshot = self.peak_snapshot.max(st.snapshot_bytes);
            self.peak_store = self.peak_store.max(st.templates.iter().map(|t| t.store_bytes).sum());
        }
    }
}

fn setup<'a>(input: &'a Input, tr: &mut Tracer, sink: &mut Sink) -> Tenants<'a> {
    let mut sys = Tenants {
        input,
        engine: MultiQueryEngine::new(WINDOW),
        live: Vec::with_capacity(REGISTRATIONS),
        lives: Vec::new(),
        churning: false,
        next_churn: WINDOW as usize,
        churns: 0,
        plan_us: Vec::new(),
        register_us: Vec::new(),
        unregister_us: Vec::new(),
        since_sample: 0,
        peak_snapshot: 0,
        peak_store: 0,
    };
    for reg in &input.initial {
        sys.register(reg.clone(), 0, tr);
    }
    closed_loop(&mut sys, tr, sink, (0, WINDOW as usize), SLICE, usize::MAX, f64::INFINITY, false);
    sys.churning = true;
    sys
}

/// Each planted instance must reach every registration of its template
/// that joined before its first edge and was still registered when its
/// last edge arrived, as the template's match remapped through the
/// registration's edge permutation.
fn expected(input: &Input, lives: &[Life]) -> Vec<Expected> {
    let mut by_template: HashMap<usize, Vec<usize>> = HashMap::new();
    for (q, l) in lives.iter().enumerate() {
        by_template.entry(l.reg.template).or_default().push(q);
    }
    input
        .plants
        .iter()
        .map(|&(t, pos)| Expected {
            recipients: by_template
                .get(&t)
                .into_iter()
                .flatten()
                .filter(|&&q| lives[q].from <= pos[0] && lives[q].until > pos[2])
                .map(|&q| {
                    let ids: Vec<EdgeId> =
                        lives[q].reg.eperm.iter().map(|&e| EdgeId(pos[e] as u64)).collect();
                    (q as u32, MatchRecord::from(ids))
                })
                .collect(),
            first: pos[0],
            last: pos[2],
        })
        .collect()
}

fn check_sink(sink: &Sink, sys: &Tenants, span: (usize, usize), fail: &mut Failures) {
    let truth = Truth { edges: &sys.input.edges, id_base: 0, window: WINDOW };
    if sink.out_of_call > 0 {
        fail.push(format!(
            "{} deliveries arrived outside the call that submitted their newest edge",
            sink.out_of_call
        ));
    }
    let kept = sink.kept();
    check::kept_deliveries(
        &kept,
        |q| sys.lives.get(q as usize).map(|l| &l.reg.query),
        &truth,
        fail,
    );
    let planted = expected(sys.input, &sys.lives);
    if check::planted_recall(&kept, &planted, span, fail) == 0 {
        fail.push("no planted instance fell inside the run".into());
    }
}

/// The untimed check run: a fresh system over the first window plus
/// `CHECK_EDGES` with churn, every delivery kept and compared with the
/// oracle's matches of each template, filtered to the registration's
/// lifetime and remapped through its edge permutation.
fn check_prefix(input: &Input, fail: &mut Failures) {
    let n = WINDOW as usize + CHECK_EDGES;
    let mut tr = Tracer::new(false);
    let last: Vec<usize> = input.plants.iter().map(|p| p.1[2]).collect();
    let mut sink = Sink::new(0, 1, usize::MAX, &last);
    sink.keep_queries(CHECK_QUERY_EVERY);
    let mut sys = setup(input, &mut tr, &mut sink);
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
    check_sink(&sink, &sys, (0, n), fail);
    let mut got = check::by_query(&sink.kept());
    let oracles: Vec<Vec<MatchRecord>> = input
        .templates
        .iter()
        .map(|t| check::anchored_matches(&t.query(), &input.edges[..n], WINDOW))
        .collect();
    for (t, tq) in input.templates.iter().enumerate() {
        let snap = check::oracle_matches(&tq.query(), &input.edges[..SNAPSHOT_EDGES], WINDOW);
        let anchored = check::anchored_matches(&tq.query(), &input.edges[..SNAPSHOT_EDGES], WINDOW);
        check::same_matches(
            &format!("snapshot vs anchored oracle, template {t}"),
            snap,
            anchored,
            fail,
        );
    }
    for (q, l) in
        sys.lives.iter().enumerate().filter(|(q, _)| (*q as u32).is_multiple_of(CHECK_QUERY_EVERY))
    {
        let want: Vec<MatchRecord> = oracles[l.reg.template]
            .iter()
            .filter(|m| {
                let p: Vec<usize> = m.edges().iter().map(|e| e.0 as usize).collect();
                p.iter().min().is_some_and(|&a| a >= l.from)
                    && p.iter().max().is_some_and(|&b| b < l.until.min(n))
            })
            .map(|m| MatchRecord::from(l.reg.eperm.iter().map(|&e| m.edge(e)).collect::<Vec<_>>()))
            .collect();
        check::same_matches(
            &format!("oracle segment, registration {q}"),
            got.remove(&(q as u32)).unwrap_or_default(),
            want,
            fail,
        );
    }
}

pub fn run(args: &Args) -> Outcome {
    let t = Instant::now();
    let input = generate(args.seed, args.seconds);
    eprintln!("social-tenants: inputs generated in {:.2} s", t.elapsed().as_secs_f64());
    let last: Vec<usize> = input.plants.iter().map(|p| p.1[2]).collect();
    let mut sink = Sink::new(0, KEEP_EVERY, KEEP_CAP, &last);
    // A planted instance reaches at most its template's registrations,
    // whose number churn keeps fixed.
    let counts = zipf_counts();
    let planted = input.plants.iter().map(|p| counts[p.0]).sum::<usize>();
    sink.reserve(KEEP_CAP + planted, 3 * (KEEP_CAP + planted));
    let (rss0, heap0_mb) = (rss_mb(), heap_mb());
    let mut failures = Failures::default();

    let mut tr = Tracer::new(args.trace);
    let (mut sys, setups) = repeat_setup(&mut tr, &mut sink, |tr, sink| setup(&input, tr, sink));
    let k_mean = {
        let ks: Vec<f64> = input
            .templates
            .iter()
            .map(|t| QueryPlan::build(t.query(), PlanOptions::timing()).k() as f64)
            .collect();
        ks.iter().sum::<f64>() / ks.len() as f64
    };
    let setup_plan_us = median(&sys.plan_us);
    let (reg0, unreg0, deliveries0) =
        (sys.register_us.len(), sys.unregister_us.len(), sink.deliveries);
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
    eprintln!("social-tenants: oracle check run in {:.2} s", t.elapsed().as_secs_f64());
    check_sink(&sink, &sys, (0, from + open.edges), &mut failures);

    let st = sys.engine.stats();
    let mut layers = multi_layers(&st, sink.deliveries - deliveries0, sink.deliveries);
    layers.insert("plan.build_us_p50", setup_plan_us);
    layers.insert("plan.k_mean", k_mean);
    layers.insert("multi.advance_busy_s", tr.self_s("multi.advance_batch"));
    layers.insert("multi.register_us_p50", median(&sys.register_us[reg0..]));
    layers.insert("multi.unregister_us_p50", median(&sys.unregister_us[unreg0..]));
    layers.insert("multi.templates", sys.engine.n_templates() as f64);
    layers.insert("multi.queries", sys.engine.n_queries() as f64);
    layers.insert("multi.snapshot_bytes", sys.peak_snapshot as f64);
    layers.insert("multi.store_bytes", sys.peak_store as f64);
    let churn_ops = 2 * (sys.unregister_us.len() - unreg0) as u64;
    Outcome {
        attempted: (closed.edges + open.edges) as u64 + churn_ops,
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
