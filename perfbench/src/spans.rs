//! In-memory span log for the traced run.
//!
//! The benchmark opens a span around each public call it makes into the
//! stack. A span has a name, a start and end (seconds since the log was
//! created) and an optional parent; spans of one scheduling round carry its
//! round index and spans of one request carry its request id. Nothing is
//! written until [`SpanLog::write_jsonl`] at the end of the run.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use serde_json::{json, Value};

/// What a span belongs to.
#[derive(Debug, Clone, PartialEq)]
pub enum Tag {
    /// No round or request (set-up, whole runs).
    None,
    /// One scheduling round, by index within its run.
    Round(usize),
    /// One serve request, by its client request id.
    Request(String),
}

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    /// `NaN` while the span is open.
    pub end_s: f64,
    pub parent: Option<usize>,
    pub tag: Tag,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Append-only span store; span ids are indices.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, tag: Tag) -> usize {
        let start_s = self.now_s();
        self.spans.push(Span {
            name,
            start_s,
            end_s: f64::NAN,
            parent,
            tag,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_s = self.now_s();
    }

    /// Records an already-measured span `[start_s, end_s]`.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Seconds since the log was created (the span clock).
    pub fn clock_s(&self) -> f64 {
        self.now_s()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_s)
            .sum()
    }

    /// Self time of span `id`: its duration minus its direct children's.
    pub fn self_s(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_s)
            .sum();
        self.spans[id].dur_s() - children
    }

    /// Writes the log to `path` (see [`SpanLog::write_jsonl`]).
    pub fn save(&self, path: &Path, extra: &Value) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_jsonl(&mut out, extra)?;
        out.flush()
    }

    /// Writes one JSON object per span, then `extra` as a last line.
    pub fn write_jsonl(&self, out: &mut impl Write, extra: &Value) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let mut v = json!({
                "span": id as u64,
                "name": s.name,
                "start_s": s.start_s,
                "end_s": s.end_s,
                "parent": s.parent.map(|p| Value::from(p as u64)).unwrap_or(Value::Null),
            });
            let map = v.as_object_mut().expect("object");
            match &s.tag {
                Tag::None => {}
                Tag::Round(r) => {
                    map.insert("round".into(), Value::from(*r as u64));
                }
                Tag::Request(id) => {
                    map.insert("request".into(), Value::String(id.clone()));
                }
            }
            writeln!(
                out,
                "{}",
                serde_json::to_string(&v).map_err(std::io::Error::other)?
            )?;
        }
        writeln!(
            out,
            "{}",
            serde_json::to_string(extra).map_err(std::io::Error::other)?
        )
    }
}

/// Runs `f`, as span `name` when there is a log.
pub fn traced<T>(log: &mut Option<&mut SpanLog>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match log {
        Some(log) => {
            let id = log.open(name, None, Tag::None);
            let out = f();
            log.close(id);
            out
        }
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_s,
            end_s,
            parent,
            tag: Tag::None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut log = SpanLog::default();
        let run = log.push(span("sim.run", 0.0, 10.0, None));
        let a = log.push(span("core.schedule", 1.0, 3.0, Some(run)));
        log.push(span("core.schedule", 5.0, 6.5, Some(run)));
        // A grandchild is part of its parent's time, not the run's.
        log.push(span("inner", 1.5, 2.0, Some(a)));
        assert_eq!(log.total_s("core.schedule"), 3.5);
        assert_eq!(log.self_s(run), 6.5);
        assert_eq!(log.self_s(a), 1.5);
        // Self time plus children's totals gives the parent back.
        assert_eq!(
            log.self_s(run) + log.total_s("core.schedule"),
            log.spans()[run].dur_s()
        );
    }

    #[test]
    fn open_close_nests_in_time() {
        let mut log = SpanLog::default();
        let outer = log.open("outer", None, Tag::None);
        let inner = log.open("inner", Some(outer), Tag::Round(3));
        log.close(inner);
        log.close(outer);
        let s = log.spans();
        assert!(s[outer].start_s <= s[inner].start_s);
        assert!(s[inner].end_s <= s[outer].end_s);
        assert!(log.self_s(outer) >= 0.0);
        assert_eq!(s[inner].tag, Tag::Round(3));
    }

    #[test]
    fn traced_records_only_with_a_log() {
        let mut log = SpanLog::default();
        assert_eq!(traced(&mut Some(&mut log), "a", || 7), 7);
        assert_eq!(traced(&mut None, "b", || 8), 8);
        assert_eq!(log.spans().len(), 1);
        assert_eq!(log.spans()[0].name, "a");
        assert!(log.spans()[0].dur_s() >= 0.0);
    }

    #[test]
    fn jsonl_has_one_line_per_span_plus_extra() {
        let mut log = SpanLog::default();
        let run = log.push(span("sim.run", 0.0, 1.0, None));
        let mut req = span("serve.submit", 0.1, 0.2, Some(run));
        req.tag = Tag::Request("r7".into());
        log.push(req);
        let mut buf = Vec::new();
        log.write_jsonl(&mut buf, &json!({"counters": {}})).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let second: Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(second.get("request").and_then(Value::as_str), Some("r7"));
        assert_eq!(second.get("parent").and_then(Value::as_u64), Some(0));
    }
}
