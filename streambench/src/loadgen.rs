//! The single-threaded load generator and the benchmark's match sink.
//!
//! A run drives one continuing stream through one engine state in two
//! phases:
//!
//! * **closed loop** — fixed-size slices back to back over a fixed
//!   stretch of the stream (cut short only past a time cap); throughput
//!   comes from here;
//! * **open loop** — a schedule fixed in advance: edge `i` of the phase
//!   is due at `t0 + i / rate`, and each tick submits whatever is due.
//!   Latency runs from an edge's due time, so a stall is charged to every
//!   edge that fell due behind it, and the generator reports how late it
//!   ran (`loadgen.lag_max_ms`).
//!
//! The program sees only stream positions `lo..hi` turned into its own
//! calls by a [`System`]; every match it returns goes through the
//! [`Sink`], which times detection, checks that the match's newest edge
//! was submitted in the call that returned it, and keeps a sample of the
//! deliveries (plus every delivery of a planted instance) for the output
//! checks that run after the timed phases. The sample lives in flat
//! buffers reserved before memory is measured, so keeping it does not
//! count toward the program's memory.

use crate::trace::Tracer;
use crate::util::heap_mb;
use std::time::{Duration, Instant};
use tcs_graph::{EdgeId, MatchRecord};

/// A workload's view of the program: submit stream positions `lo..hi`
/// as one or more calls, handing each call's matches to the sink.
pub trait System {
    fn submit(&mut self, lo: usize, hi: usize, tr: &mut Tracer, sink: &mut Sink);
}

/// One open-loop latency sample: the deliveries of one call whose newest
/// edge sits at stream position `pos`.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub pos: u32,
    pub lat_ns: u64,
    pub count: u32,
    /// The position is the last edge of a planted instance.
    pub planted: bool,
}

/// A delivery kept for the output checks: the query (or subscriber) it
/// was delivered to, the range of the call that returned it, and the
/// call's sequence number.
#[derive(Clone, Debug)]
pub struct Kept {
    pub q: u32,
    pub call: u64,
    pub lo: u32,
    pub hi: u32,
    pub rec: MatchRecord,
}

/// A kept delivery as the sink stores it during the run: its edges are
/// `edges[off..off + len]` of the sink's edge buffer.
#[derive(Clone, Copy, Debug, Default)]
struct KeptAt {
    q: u32,
    call: u64,
    lo: u32,
    hi: u32,
    off: u32,
    len: u32,
}

struct Schedule {
    t0: Instant,
    first: usize,
    rate: f64,
}

/// Consumes every delivery the program returns.
pub struct Sink {
    id_base: u64,
    lo: usize,
    hi: usize,
    ret: Instant,
    calls: u64,
    keep_call: bool,
    keep_every: u64,
    keep_cap: usize,
    keep_query_every: u32,
    counts: Vec<u32>,
    schedule: Option<Schedule>,
    planted_last: Vec<u64>,
    /// Deliveries seen.
    pub deliveries: u64,
    /// Deliveries whose newest edge was not submitted in the returning
    /// call (must stay 0).
    pub out_of_call: u64,
    /// Open-loop latency samples.
    pub samples: Vec<Sample>,
    kept_at: Vec<KeptAt>,
    kept_edges: Vec<EdgeId>,
}

impl Sink {
    /// A sink for a stream whose edge at position `p` has id
    /// `id_base + p`. The deliveries of every `keep_every`-th call are
    /// kept until `keep_cap` deliveries are kept in all, so the call that
    /// reaches the cap is kept in part; a delivery whose newest edge is
    /// the last edge of a planted instance is always kept.
    pub fn new(id_base: u64, keep_every: u64, keep_cap: usize, planted_last_pos: &[usize]) -> Sink {
        let n = planted_last_pos.iter().max().map_or(0, |&m| m / 64 + 1);
        let mut planted_last = vec![0u64; n];
        for &p in planted_last_pos {
            planted_last[p / 64] |= 1 << (p % 64);
        }
        Sink {
            id_base,
            lo: 0,
            hi: 0,
            ret: Instant::now(),
            calls: 0,
            keep_call: false,
            keep_every: keep_every.max(1),
            keep_cap,
            keep_query_every: 1,
            counts: Vec::new(),
            schedule: None,
            planted_last,
            deliveries: 0,
            out_of_call: 0,
            samples: Vec::new(),
            kept_at: Vec::new(),
            kept_edges: Vec::new(),
        }
    }

    /// Reserves room for `entries` kept deliveries holding `edges` edges
    /// in all, and writes it once so that it is resident: keeping
    /// deliveries then adds nothing to the process's memory until the
    /// reservation runs out.
    pub fn reserve(&mut self, entries: usize, edges: usize) {
        self.kept_at.resize(self.kept_at.len() + entries, KeptAt::default());
        self.kept_at.truncate(self.kept_at.len() - entries);
        self.kept_edges.resize(self.kept_edges.len() + edges, EdgeId(0));
        self.kept_edges.truncate(self.kept_edges.len() - edges);
    }

    /// Forgets every call and delivery, keeping the buffers.
    pub fn reset(&mut self) {
        self.calls = 0;
        self.schedule = None;
        self.deliveries = 0;
        self.out_of_call = 0;
        self.samples.clear();
        self.kept_at.clear();
        self.kept_edges.clear();
    }

    /// The deliveries kept for the output checks.
    pub fn kept(&self) -> Vec<Kept> {
        self.kept_at
            .iter()
            .map(|k| Kept {
                q: k.q,
                call: k.call,
                lo: k.lo,
                hi: k.hi,
                rec: MatchRecord::from(
                    self.kept_edges[k.off as usize..(k.off + k.len) as usize].to_vec(),
                ),
            })
            .collect()
    }

    /// Restricts the whole-call samples to queries whose number is a
    /// multiple of `every` (planted deliveries are still all kept).
    pub fn keep_queries(&mut self, every: u32) {
        self.keep_query_every = every.max(1);
    }

    /// Opens a call that submitted positions `lo..hi` and returned at
    /// `ret`.
    #[inline]
    pub fn begin(&mut self, lo: usize, hi: usize, ret: Instant) {
        self.lo = lo;
        self.hi = hi;
        self.ret = ret;
        self.calls += 1;
        self.keep_call = self.calls.is_multiple_of(self.keep_every);
        if self.schedule.is_some() {
            self.counts.clear();
            self.counts.resize(hi - lo, 0);
        }
    }

    /// Takes one delivery of the open call.
    #[inline]
    pub fn take(&mut self, q: u32, rec: MatchRecord) {
        self.deliveries += 1;
        let newest = rec.edges().iter().map(|e| e.0).max().unwrap_or(0);
        let pos = newest.wrapping_sub(self.id_base) as usize;
        if pos < self.lo || pos >= self.hi {
            self.out_of_call += 1;
        } else if self.schedule.is_some() {
            self.counts[pos - self.lo] += 1;
        }
        let planted = self.is_planted_last(pos);
        let sampled = self.keep_call
            && q.is_multiple_of(self.keep_query_every)
            && self.kept_at.len() < self.keep_cap;
        if sampled || planted {
            self.kept_at.push(KeptAt {
                q,
                call: self.calls,
                lo: self.lo as u32,
                hi: self.hi as u32,
                off: self.kept_edges.len() as u32,
                len: rec.edges().len() as u32,
            });
            self.kept_edges.extend_from_slice(rec.edges());
        }
    }

    /// Closes the open call: in the open loop, one latency sample per
    /// newest-edge position.
    #[inline]
    pub fn end(&mut self) {
        let Some(s) = &self.schedule else { return };
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let pos = self.lo + i;
            let due = s.t0 + Duration::from_secs_f64((pos - s.first) as f64 / s.rate);
            let lat_ns = self.ret.saturating_duration_since(due).as_nanos() as u64;
            let planted = self.is_planted_last(pos);
            self.samples.push(Sample { pos: pos as u32, lat_ns, count: c, planted });
        }
    }

    #[inline]
    fn is_planted_last(&self, pos: usize) -> bool {
        self.planted_last.get(pos / 64).is_some_and(|w| w & (1 << (pos % 64)) != 0)
    }
}

/// What the closed-loop phase measured.
#[derive(Debug, Default)]
pub struct Closed {
    /// Edges submitted.
    pub edges: usize,
    /// Wall time of the phase, sink included.
    pub wall_s: f64,
    /// One entry per block of slices.
    pub blocks: Vec<Block>,
    /// Time covered by root spans (the layer calls) in traced blocks.
    pub traced_root_s: f64,
    /// Largest heap in use (MB) seen at the end of a block.
    pub heap_peak_mb: f64,
}

/// One closed-loop block: edges submitted, wall seconds it took, and
/// whether the tracer was on.
#[derive(Clone, Copy, Debug)]
pub struct Block {
    pub edges: usize,
    pub wall_s: f64,
    pub traced: bool,
}

impl Closed {
    /// Per-block edges per second over the blocks run with the tracer in
    /// the given state.
    pub fn block_eps(&self, traced: bool) -> Vec<f64> {
        self.blocks
            .iter()
            .filter(|b| b.traced == traced && b.wall_s > 0.0)
            .map(|b| b.edges as f64 / b.wall_s)
            .collect()
    }
}

/// Runs the closed-loop phase over positions `from..to`: slices of
/// `slice` edges back to back, grouped into blocks of `block` slices,
/// until `seconds` have passed or the input runs out. With
/// `alternate_trace` the tracer is on for even blocks and off for odd
/// ones, so traced and untraced throughput come from the same stretch of
/// time (the tracing overhead).
#[allow(clippy::too_many_arguments)]
pub fn closed_loop<S: System>(
    sys: &mut S,
    tr: &mut Tracer,
    sink: &mut Sink,
    (from, to): (usize, usize),
    slice: usize,
    block: usize,
    seconds: f64,
    alternate_trace: bool,
) -> Closed {
    let mut out = Closed::default();
    let start = Instant::now();
    let mut pos = from;
    let mut b = 0usize;
    while pos < to && start.elapsed().as_secs_f64() < seconds {
        if alternate_trace {
            tr.set_enabled(b.is_multiple_of(2));
        }
        let t = Instant::now();
        let root0 = tr.root_ns();
        let first = pos;
        for _ in 0..block {
            if pos >= to {
                break;
            }
            let hi = (pos + slice).min(to);
            sys.submit(pos, hi, tr, sink);
            pos = hi;
        }
        out.blocks.push(Block {
            edges: pos - first,
            wall_s: t.elapsed().as_secs_f64(),
            traced: tr.enabled(),
        });
        out.heap_peak_mb = out.heap_peak_mb.max(heap_mb());
        if tr.enabled() {
            out.traced_root_s += (tr.root_ns() - root0) as f64 / 1e9;
        }
        b += 1;
    }
    out.edges = pos - from;
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// What the open-loop phase measured.
#[derive(Debug)]
pub struct Open {
    /// The schedule's origin: edge `i` was due at `t0 + i / rate`.
    pub t0: Instant,
    /// Stream position of the phase's first edge, and the offered rate.
    pub from: usize,
    pub rate: f64,
    /// Edges submitted (always the whole schedule).
    pub edges: usize,
    /// Calls to [`System::submit`] (ticks that found edges due).
    pub ticks: u64,
    /// Largest delay between an edge's due time and the start of the
    /// tick that submitted it.
    pub lag_max_ns: u64,
    pub wall_s: f64,
    /// Largest heap in use (MB) seen between ticks, sampled every
    /// `HEAP_SAMPLE` and at the end.
    pub heap_peak_mb: f64,
}

/// How often the open loop samples the heap in use.
const HEAP_SAMPLE: Duration = Duration::from_millis(50);

/// Runs the open-loop phase: `count` edges from position `from`, edge
/// `i` due at `t0 + i / rate`. Each tick submits everything due; between
/// ticks the generator sleeps (or spins for the last stretch) until the
/// next edge falls due.
pub fn open_loop<S: System>(
    sys: &mut S,
    tr: &mut Tracer,
    sink: &mut Sink,
    from: usize,
    count: usize,
    rate: f64,
) -> Open {
    let t0 = Instant::now();
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / rate);
    sink.schedule = Some(Schedule { t0, first: from, rate });
    let mut next = 0usize;
    let mut ticks = 0u64;
    let mut lag_max_ns = 0u64;
    let (mut heap_peak_mb, mut sampled) = (heap_mb(), t0);
    while next < count {
        let now = Instant::now();
        let el = (now - t0).as_secs_f64();
        let due_n = ((el * rate).floor() as usize + 1).min(count);
        if due_n > next {
            lag_max_ns = lag_max_ns.max(now.saturating_duration_since(due(next)).as_nanos() as u64);
            let t = tr.begin("loadgen.tick");
            sys.submit(from + next, from + due_n, tr, sink);
            tr.end(t);
            next = due_n;
            ticks += 1;
            if sampled.elapsed() >= HEAP_SAMPLE {
                heap_peak_mb = heap_peak_mb.max(heap_mb());
                sampled = Instant::now();
            }
        } else {
            let wait = due(next).saturating_duration_since(now);
            if wait > Duration::from_micros(300) {
                std::thread::sleep(wait - Duration::from_micros(200));
            } else {
                std::hint::spin_loop();
            }
        }
    }
    sink.schedule = None;
    let wall_s = t0.elapsed().as_secs_f64();
    heap_peak_mb = heap_peak_mb.max(heap_mb());
    Open { t0, from, rate, edges: count, ticks, lag_max_ns, wall_s, heap_peak_mb }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in program: returns at once with one one-edge "match" per
    /// submitted edge, except that the call covering `stall_at` sleeps
    /// for `stall` first.
    struct StallOnce {
        stall_at: usize,
        stall: Duration,
        window: Option<(Instant, Instant)>,
    }

    impl System for StallOnce {
        fn submit(&mut self, lo: usize, hi: usize, _tr: &mut Tracer, sink: &mut Sink) {
            if self.window.is_none() && (lo..hi).contains(&self.stall_at) {
                let t = Instant::now();
                std::thread::sleep(self.stall);
                self.window = Some((t, Instant::now()));
            }
            sink.begin(lo, hi, Instant::now());
            for p in lo..hi {
                sink.take(0, MatchRecord::from(vec![EdgeId(100 + p as u64)]));
            }
            sink.end();
        }
    }

    #[test]
    fn a_stall_is_charged_to_every_edge_due_behind_it() {
        let rate = 20_000.0;
        let stall = Duration::from_millis(40);
        let mut sys = StallOnce { stall_at: 1_000, stall, window: None };
        let mut sink = Sink::new(100, 1, 0, &[]);
        let mut tr = Tracer::new(false);
        let from = 50;
        let open = open_loop(&mut sys, &mut tr, &mut sink, from, 4_000, rate);
        let (stall_start, stall_end) = sys.window.unwrap_or_else(|| panic!("never stalled"));
        assert_eq!(sink.out_of_call, 0);
        assert_eq!(sink.samples.iter().map(|s| u64::from(s.count)).sum::<u64>(), 4_000);

        // Every edge that fell due while the stand-in was stalled waited
        // at least until the stall ended.
        let mut behind = 0;
        for s in &sink.samples {
            let due = open.t0 + Duration::from_secs_f64((s.pos as usize - from) as f64 / rate);
            if due >= stall_start && due <= stall_end {
                behind += 1;
                let waited = stall_end.saturating_duration_since(due).as_nanos() as u64;
                assert!(
                    s.lat_ns >= waited,
                    "edge {} due in the stall: {} < {}",
                    s.pos,
                    s.lat_ns,
                    waited
                );
            }
        }
        // 40 ms at 20k edges/s: ~800 edges fell due during the stall.
        assert!(behind >= 600, "only {behind} edges fell due during the stall");
        // The generator ran late by about the stall, and reports it.
        assert!(open.lag_max_ns >= 30_000_000, "lag_max {} ns", open.lag_max_ns);
        assert!(open.lag_max_ns >= stall.as_nanos() as u64 * 3 / 4);
    }

    #[test]
    fn closed_loop_stops_when_the_input_runs_out() {
        let mut sys = StallOnce { stall_at: usize::MAX, stall: Duration::ZERO, window: None };
        let mut sink = Sink::new(100, 4, 1_000, &[7]);
        let mut tr = Tracer::new(false);
        let c = closed_loop(&mut sys, &mut tr, &mut sink, (0, 1_000), 64, 4, 60.0, false);
        assert_eq!(c.edges, 1_000);
        assert_eq!(sink.deliveries, 1_000);
        assert_eq!(sink.out_of_call, 0);
        // Every 4th call is kept whole, plus the planted position 7.
        let kept = sink.kept();
        assert!(kept.iter().any(|k| k.rec.edges() == [EdgeId(107)]));
        assert!(kept.iter().all(|k| k.call % 4 == 0 || k.rec.edges() == [EdgeId(107)]));
        // Calls 4, 8 and 12 hold 64 edges each, call 16 the last 40.
        assert_eq!(kept.len(), 1 + 3 * 64 + 40);
    }
}
