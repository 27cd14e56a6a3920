//! The standing queries of the three workloads.

use tcs_graph::gen::social_stream::SCHEMA;
use tcs_graph::query::QueryEdge;
use tcs_graph::{ELabel, QueryGraph, VLabel};

/// The four timing orders of the Figure 1 exfiltration shape, chosen so
/// that Algorithm 6 decomposes them into k = 1, 2, 3 and 4 TC-subqueries.
pub const EXFIL_ORDERS: [&[(usize, usize)]; 4] =
    [&[(0, 1), (1, 2), (2, 3), (3, 4)], &[(0, 1), (2, 3), (3, 4)], &[(0, 1), (2, 3)], &[(0, 1)]];

/// The Figure 1 exfiltration shape over one vertex label: victim V (0),
/// web server W (1), C&C server B (2); edges V→W, W→V, V→B, B→V, V→B
/// carrying `labels` in that order.
pub fn exfiltration(labels: [u16; 5], order: &[(usize, usize)]) -> QueryGraph {
    let ip = VLabel(0);
    let (v, w, b) = (0, 1, 2);
    let ends = [(v, w), (w, v), (v, b), (b, v), (v, b)];
    let edges = ends
        .iter()
        .zip(labels)
        .map(|(&(src, dst), l)| QueryEdge { src, dst, label: ELabel(l) })
        .collect();
    QueryGraph::new(vec![ip; 3], edges, order)
        .unwrap_or_else(|e| unreachable!("the exfiltration shape is a valid query: {e}"))
}

/// A social-stream template: a directed 3-edge path `v0 → v1 → v2 → v3`
/// whose edges are schema predicates.
#[derive(Clone, Debug)]
pub struct PathTemplate {
    pub types: [VLabel; 4],
    pub labels: [u16; 3],
    /// Chain-ordered (`e0 ≺ e1 ≺ e2`) or partially ordered (`e0 ≺ e1`).
    pub chain: bool,
}

impl PathTemplate {
    pub fn order(&self) -> &'static [(usize, usize)] {
        if self.chain {
            &[(0, 1), (1, 2)]
        } else {
            &[(0, 1)]
        }
    }

    pub fn query(&self) -> QueryGraph {
        self.permuted(&[0, 1, 2, 3], &[0, 1, 2])
    }

    /// The template with its vertices renamed by `vperm` (template vertex
    /// `v` becomes `vperm[v]`) and its edges listed in the order `eperm`
    /// (edge `j` of the result is template edge `eperm[j]`). A match of
    /// the result maps to a match of the template by the same `eperm`.
    pub fn permuted(&self, vperm: &[usize; 4], eperm: &[usize; 3]) -> QueryGraph {
        let mut vlabels = vec![VLabel(0); 4];
        for v in 0..4 {
            vlabels[vperm[v]] = self.types[v];
        }
        let edges = eperm
            .iter()
            .map(|&e| QueryEdge { src: vperm[e], dst: vperm[e + 1], label: ELabel(self.labels[e]) })
            .collect();
        let mut at = [0usize; 3];
        for (j, &e) in eperm.iter().enumerate() {
            at[e] = j;
        }
        let pairs: Vec<(usize, usize)> =
            self.order().iter().map(|&(a, b)| (at[a], at[b])).collect();
        QueryGraph::new(vlabels, edges, &pairs)
            .unwrap_or_else(|e| unreachable!("a permuted path template is a valid query: {e}"))
    }
}

/// Every directed 3-edge path the social schema allows, in a fixed
/// order (by predicate ids).
pub fn schema_paths() -> Vec<([VLabel; 4], [u16; 3])> {
    let mut out = Vec::new();
    for &(a, s0, t0) in SCHEMA {
        for &(b, _, t1) in SCHEMA.iter().filter(|p| p.1 == t0) {
            for &(c, _, t2) in SCHEMA.iter().filter(|p| p.1 == t1) {
                out.push(([s0, t0, t1, t2], [a, b, c]));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcs_core::{PlanFingerprint, PlanOptions, QueryPlan};

    #[test]
    fn exfiltration_orders_decompose_into_one_to_four_subqueries() {
        for (i, order) in EXFIL_ORDERS.iter().enumerate() {
            let plan =
                QueryPlan::build(exfiltration([1, 2, 3, 4, 5], order), PlanOptions::timing());
            assert_eq!(plan.k(), i + 1);
        }
    }

    #[test]
    fn permuted_twins_share_a_fingerprint() {
        let paths = schema_paths();
        assert!(paths.len() >= 24, "{} paths", paths.len());
        let (types, labels) = paths[3];
        for chain in [true, false] {
            let t = PathTemplate { types, labels, chain };
            let a = PlanFingerprint::of(&t.query());
            let b = PlanFingerprint::of(&t.permuted(&[2, 0, 3, 1], &[1, 2, 0]));
            assert_eq!(a, b);
        }
    }
}
