//! Hierarchical telemetry spans: `experiment → replication`.
//!
//! A [`SpanRecord`] is a finished, owned node of the span tree — the
//! post-hoc record of one nested unit of work, carrying wall time,
//! event counts, and RNG-draw counts. Spans are *provenance*, not
//! results: wall nanoseconds legitimately differ between runs and
//! worker counts, so span trees are serialized under the `provenance`
//! section of telemetry documents and are never part of bit-identity
//! contracts (the deterministic counters ride in
//! [`crate::telemetry::ReplicationTelemetry`]).
//!
//! There is no live global collector: the experiment layer assembles
//! trees from data it already owns (per-replication profiles and
//! telemetry), in replication-index order, so span
//! assembly adds nothing to the hot path.

use crate::json_escape;

/// The level of a span in the fixed hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A whole experiment (one set of replications of one config).
    Experiment,
    /// One replication.
    Replication,
}

impl SpanKind {
    /// Stable snake_case name used in JSON.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            SpanKind::Experiment => "experiment",
            SpanKind::Replication => "replication",
        }
    }
}

/// One finished span: a labelled node with measurements and children.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Hierarchy level.
    pub kind: SpanKind,
    /// Human-readable label (`rep N` for replications).
    pub label: String,
    /// Wall nanoseconds spent in this span (0 when unmeasured).
    pub wall_nanos: u64,
    /// Simulation events processed inside this span.
    pub events: u64,
    /// Raw RNG words drawn inside this span (0 unless the run recorded
    /// telemetry).
    pub rng_draws: u64,
    /// Child spans, in deterministic (index) order.
    pub children: Vec<SpanRecord>,
}

impl SpanRecord {
    /// Creates a leaf span; attach children by pushing into
    /// [`SpanRecord::children`].
    #[must_use]
    pub fn new(kind: SpanKind, label: impl Into<String>) -> SpanRecord {
        SpanRecord {
            kind,
            label: label.into(),
            wall_nanos: 0,
            events: 0,
            rng_draws: 0,
            children: Vec::new(),
        }
    }

    /// Total spans in this subtree (including self).
    #[must_use]
    pub fn len(&self) -> usize {
        1 + self.children.iter().map(SpanRecord::len).sum::<usize>()
    }

    /// Always false: a span tree contains at least its root.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Deterministic JSON object (fixed key order, children recursed
    /// in stored order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"kind\":\"{}\",\"label\":\"{}\",\"wall_nanos\":{},\"events\":{},\"rng_draws\":{},\"children\":[",
            self.kind.key(),
            json_escape(&self.label),
            self.wall_nanos,
            self.events,
            self.rng_draws,
        );
        for (i, child) in self.children.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&child.to_json());
        }
        s.push_str("]}");
        s
    }
}

/// Serializes a list of root spans as a JSON array.
#[must_use]
pub fn spans_json(spans: &[SpanRecord]) -> String {
    let mut s = String::from("[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&span.to_json());
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_serializes_depth_first() {
        // exp → [inner → [rep 0], rep 1]: depth-first puts `rep 0`
        // before its uncle `rep 1`.
        let mut root = SpanRecord::new(SpanKind::Experiment, "exp");
        root.wall_nanos = 5;
        let mut inner = SpanRecord::new(SpanKind::Experiment, "inner");
        let mut rep = SpanRecord::new(SpanKind::Replication, "rep 0");
        rep.events = 42;
        inner.children.push(rep);
        root.children.push(inner);
        root.children
            .push(SpanRecord::new(SpanKind::Replication, "rep 1"));
        assert_eq!(root.len(), 4);
        let j = root.to_json();
        assert!(j.starts_with("{\"kind\":\"experiment\",\"label\":\"exp\",\"wall_nanos\":5,"));
        let at = |label: &str| j.find(&format!("\"label\":\"{label}\"")).unwrap();
        assert!(
            at("inner") < at("rep 0") && at("rep 0") < at("rep 1"),
            "{j}"
        );
        assert!(j.contains("\"kind\":\"replication\",\"label\":\"rep 0\""));
        assert_eq!(
            spans_json(&[root.clone(), root])
                .matches("\"label\":\"exp\"")
                .count(),
            2
        );
    }
}
