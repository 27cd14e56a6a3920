//! Output checks. They run after the timed phases, on the deliveries
//! the sink kept, against the benchmark's own copy of the sanitized
//! stream — never against stored output of an earlier run.

use crate::loadgen::Kept;
use std::collections::{HashMap, HashSet};
use tcs_graph::window::events;
use tcs_graph::{EdgeId, MatchRecord, QueryGraph, SlidingWindow, Snapshot, StreamEdge};
use tcs_subiso::timing::filter_timing;
use tcs_subiso::{enumerate_matches, MatchOptions, SnapshotOracle, Strategy};

/// The stream as the program should have seen it after sanitizing:
/// `edges[p]` is stream position `p` and has id `id_base + p`.
pub struct Truth<'a> {
    pub edges: &'a [StreamEdge],
    pub id_base: u64,
    pub window: u64,
}

impl Truth<'_> {
    pub fn edge(&self, id: EdgeId) -> Option<&StreamEdge> {
        id.0.checked_sub(self.id_base).and_then(|p| self.edges.get(p as usize))
    }

    pub fn pos(&self, id: EdgeId) -> usize {
        id.0.wrapping_sub(self.id_base) as usize
    }
}

/// Collects check failures; a run with any exits non-zero.
#[derive(Default)]
pub struct Failures(pub Vec<String>);

impl Failures {
    pub fn push(&mut self, msg: String) {
        if self.0.len() < 50 {
            self.0.push(msg);
        } else if self.0.len() == 50 {
            self.0.push("… further failures not listed".into());
        }
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Checks every kept delivery: it passes `MatchRecord::verify` against
/// the query it was delivered to, its edges span less than `|W|`, its
/// newest edge was submitted in the call that returned it, and no call
/// returned it twice.
pub fn kept_deliveries<'q>(
    kept: &[Kept],
    query_of: impl Fn(u32) -> Option<&'q QueryGraph>,
    truth: &Truth,
    fail: &mut Failures,
) {
    let mut seen: HashSet<(u64, u32, &MatchRecord)> = HashSet::with_capacity(kept.len());
    for k in kept {
        let Some(q) = query_of(k.q) else {
            fail.push(format!("delivery to unknown query {}", k.q));
            continue;
        };
        if let Err(v) = k.rec.verify(q, |id| truth.edge(id)) {
            fail.push(format!("query {}: {:?} fails verification: {v:?}", k.q, k.rec));
            continue;
        }
        let ts: Vec<u64> =
            k.rec.edges().iter().filter_map(|&id| truth.edge(id)).map(|e| e.ts.0).collect();
        let (lo, hi) =
            (ts.iter().min().copied().unwrap_or(0), ts.iter().max().copied().unwrap_or(0));
        if hi - lo >= truth.window {
            fail.push(format!(
                "query {}: {:?} spans {} ≥ |W| = {}",
                k.q,
                k.rec,
                hi - lo,
                truth.window
            ));
        }
        let newest = k.rec.edges().iter().map(|&id| truth.pos(id)).max().unwrap_or(0);
        if newest < k.lo as usize || newest >= k.hi as usize {
            fail.push(format!(
                "query {}: {:?} has its newest edge at {newest}, outside its call {}..{}",
                k.q, k.rec, k.lo, k.hi
            ));
        }
        if !seen.insert((k.call, k.q, &k.rec)) {
            fail.push(format!("query {}: {:?} delivered twice in call {}", k.q, k.rec, k.call));
        }
    }
}

/// A planted instance: the record each recipient must receive, and the
/// stream positions of its first and last edge.
pub struct Expected {
    pub recipients: Vec<(u32, MatchRecord)>,
    pub first: usize,
    pub last: usize,
}

/// Every instance whose last edge lies in `lo..hi` (the positions the
/// run submitted) reached each of its recipients.
pub fn planted_recall(
    kept: &[Kept],
    planted: &[Expected],
    (lo, hi): (usize, usize),
    fail: &mut Failures,
) -> usize {
    let got: HashSet<(u32, &MatchRecord)> = kept.iter().map(|k| (k.q, &k.rec)).collect();
    let mut checked = 0;
    for p in planted.iter().filter(|p| p.last >= lo && p.last < hi) {
        for (q, rec) in &p.recipients {
            checked += 1;
            if !got.contains(&(*q, rec)) {
                fail.push(format!(
                    "planted instance at {}..={} never reached query {q} ({rec:?})",
                    p.first, p.last
                ));
            }
        }
    }
    checked
}

/// Every match of `q` over the stream prefix `edges`, by the naive
/// snapshot oracle. It enumerates every match in the window on each
/// arrival, so it serves short prefixes only.
pub fn oracle_matches(q: &QueryGraph, edges: &[StreamEdge], window: u64) -> Vec<MatchRecord> {
    let mut oracle = SnapshotOracle::new(q.clone());
    let mut out = Vec::new();
    for ev in events(window, edges.iter().copied()) {
        out.extend(oracle.advance(&ev));
    }
    out
}

/// Every match of `q` over the stream prefix `edges`, by the same naive
/// matcher the snapshot oracle runs, anchored at each arrival: for each
/// query edge the arrival can match, the matches binding it there, kept
/// if they satisfy the timing order. Fast enough for a full window.
pub fn anchored_matches(q: &QueryGraph, edges: &[StreamEdge], window: u64) -> Vec<MatchRecord> {
    let mut snap = Snapshot::new();
    let mut w = SlidingWindow::new(window);
    let mut out = Vec::new();
    for &e in edges {
        for x in w.advance(e).expired {
            snap.remove(x.id);
        }
        snap.insert(e);
        for qe in (0..q.n_edges()).filter(|&qe| q.signature(qe) == e.signature()) {
            let opts = MatchOptions { anchor: Some((qe, e.id)), ..Default::default() };
            let found = enumerate_matches(&snap, q, Strategy::QuickSi, &opts);
            out.extend(filter_timing(q, found, &snap));
        }
    }
    out
}

/// Compares the matches delivered to one query with the oracle's.
pub fn same_matches(
    name: &str,
    delivered: Vec<MatchRecord>,
    oracle: Vec<MatchRecord>,
    fail: &mut Failures,
) {
    let n = delivered.len();
    let got: HashSet<MatchRecord> = delivered.into_iter().collect();
    if got.len() != n {
        fail.push(format!("{name}: {} duplicate deliveries", n - got.len()));
    }
    let want: HashSet<MatchRecord> = oracle.into_iter().collect();
    let missing = want.difference(&got).count();
    let extra = got.difference(&want).count();
    if missing + extra > 0 {
        fail.push(format!(
            "{name}: {missing} oracle matches missing, {extra} deliveries the oracle lacks (oracle has {})",
            want.len()
        ));
    }
}

/// Groups kept deliveries by query.
pub fn by_query(kept: &[Kept]) -> HashMap<u32, Vec<MatchRecord>> {
    let mut out: HashMap<u32, Vec<MatchRecord>> = HashMap::new();
    for k in kept {
        out.entry(k.q).or_default().push(k.rec.clone());
    }
    out
}
