//! The rig's span recorder: spans around the rig's own calls into the engine,
//! held in memory during the traced window and written out afterwards.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One timed interval. `parent` indexes the recorder's span list; spans of one
/// operation (a query, a commit) share `op_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u64,
}

/// Collects spans relative to one origin instant.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span; it stays zero-length until [`Recorder::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op_id: u64,
        at: Instant,
    ) -> u32 {
        let start_ns = self.ns(at);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32, at: Instant) {
        let end_ns = self.ns(at);
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Records an already-finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op_id: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.open(name, parent, op_id, start);
        self.close(id, end);
        id
    }

    pub fn append(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.start_ns += shift;
            s.end_ns += shift;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj()
                        .with("name", s.name)
                        .with("start_ns", s.start_ns)
                        .with("end_ns", s.end_ns)
                        .with(
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                        )
                        .with("op_id", s.op_id)
                })
                .collect(),
        )
    }

    /// Self time of every span, in milliseconds, grouped by span name.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (name, ns) in self_times_ns(&self.spans) {
            out.entry(name).or_default().push(ns as f64 / 1e6);
        }
        out
    }
}

/// A span's self time is its duration minus the part of it its children cover
/// (children clipped to the parent, overlapping children counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            if end > start {
                children[parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (
                span.name,
                (span.end_ns - span.start_ns).saturating_sub(covered),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let spans = vec![
            span("query", 0, 100, None),
            span("submit", 0, 10, Some(0)),
            span("wait", 15, 95, Some(0)),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs, vec![("query", 10), ("submit", 10), ("wait", 80)]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("query", 10, 110, None),
            span("a", 0, 50, Some(0)),    // clipped to 10..50
            span("b", 40, 70, Some(0)),   // overlaps a: adds 50..70
            span("c", 100, 200, Some(0)), // clipped to 100..110
            span("d", 60, 65, Some(0)),   // wholly inside b
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[0], ("query", 100 - (40 + 20 + 10)));
    }

    #[test]
    fn recorder_round_trips_through_json_and_append() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin);
        let root = a.open("query", None, 7, origin);
        a.record("submit", Some(root), 7, origin, origin);
        a.close(root, origin);
        let mut b = Recorder::new(origin);
        let commit = b.open("commit", None, 9, origin);
        b.record("rpc", Some(commit), 9, origin, origin);
        a.append(b);
        assert_eq!(a.spans.len(), 4);
        assert_eq!(a.spans[3].parent, Some(2));
        let json = a.to_json();
        assert_eq!(json.as_arr().unwrap().len(), 4);
        assert_eq!(
            json.as_arr().unwrap()[1].get("parent"),
            Some(&Json::Num(0.0))
        );
    }
}
