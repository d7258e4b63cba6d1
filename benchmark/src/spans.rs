//! Wall-clock spans recorded by the harness around its own calls into
//! each layer. Spans stay in memory until the run ends and are then
//! written out as one JSON file per workload. Spans inside the program
//! (the `wall.<layer>.ns` self-profile) are a later issue; these are
//! the ones that can be taken from outside.

use crate::json::Json;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
    /// The op this span belongs to (counted over the whole run), so the
    /// spans of one op share an identifier.
    pub op_id: Option<u32>,
}

/// Handle of an open span; `None` while recording is off.
#[derive(Clone, Copy)]
pub struct Open(Option<u32>);

pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op_id: Option<u32>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: None,
        }
    }

    /// Switch recording; only between spans, so that none is left open.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "recording switched inside a span");
        self.on = on;
    }

    /// Tag the spans begun from here on with `op_id`.
    pub fn set_op(&mut self, op_id: Option<u32>) {
        self.op_id = op_id;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, span: Open) {
        let Some(idx) = span.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        assert_eq!(self.open.pop(), Some(idx), "spans must nest");
        self.spans[idx as usize].end_ns = now;
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every closed span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Per op, the summed duration of the spans called `name` inside it
    /// (an op may post and drive more than once), in op order.
    pub fn per_op_ns(&self, name: &str) -> Vec<f64> {
        let mut sums: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            if let Some(op) = s.op_id {
                *sums.entry(op).or_insert(0.0) += (s.end_ns - s.start_ns) as f64;
            }
        }
        sums.into_values().collect()
    }

    pub fn to_json(&self, workload: &str, seed: u64, mode: &str) -> Json {
        let num = |x: Option<u32>| x.map_or(Json::Null, |v| Json::Num(v as f64));
        Json::Obj(vec![
            ("workload".into(), Json::Str(workload.into())),
            ("seed".into(), Json::Num(seed as f64)),
            ("mode".into(), Json::Str(mode.into())),
            (
                "clock".into(),
                Json::Str("wall ns since harness start".into()),
            ),
            (
                "spans".into(),
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(s.name.into())),
                                ("start_ns".into(), Json::Num(s.start_ns as f64)),
                                ("end_ns".into(), Json::Num(s.end_ns as f64)),
                                ("parent".into(), num(s.parent)),
                                ("op_id".into(), num(s.op_id)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_the_op_id() {
        let mut sp = Spans::new(true);
        let setup = sp.begin("segment.setup");
        let build = sp.begin("mpirt.session_build");
        sp.end(build);
        sp.end(setup);
        sp.set_op(Some(7));
        let op = sp.begin("op");
        for _ in 0..2 {
            let post = sp.begin("mpirt.post");
            sp.end(post);
        }
        sp.end(op);
        sp.set_op(None);

        let all = sp.all();
        assert_eq!(all.len(), 5);
        assert_eq!(all[0].parent, None);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[3].parent, Some(2));
        assert_eq!(all[3].op_id, Some(7));
        assert_eq!(all[0].op_id, None);
        assert!(all.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(sp.per_op_ns("mpirt.post").len(), 1, "two posts, one op");
        assert_eq!(sp.durations_ns("mpirt.post").len(), 2);
        let doc = sp.to_json("pp_dense", 1, "full");
        assert_eq!(Json::parse(&doc.emit()).unwrap(), doc);
    }

    #[test]
    fn recording_off_records_nothing() {
        let mut sp = Spans::new(false);
        let s = sp.begin("op");
        sp.end(s);
        assert!(sp.all().is_empty());
    }
}
