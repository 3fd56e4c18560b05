//! Spans the benchmark records around its own calls into each layer.
//!
//! Spans live in memory while the run goes and are written out at the
//! end. A span's self time is its duration minus the time its child
//! spans cover; the `train` span's self time is the share of `train_s`
//! that no layer accounts for.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    run: u32,
    start_us: f64,
    end_us: f64,
}

pub struct Spans {
    t0: Instant,
    run: u32,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            run: 0,
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Starts a new run id: spans of one pipeline iteration share it.
    pub fn next_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            parent,
            run: self.run,
            start_us,
            end_us: f64::NAN,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_us = self.now_us();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Duration of span `id` in seconds.
    pub fn secs(&self, id: SpanId) -> f64 {
        let s = &self.spans[id];
        (s.end_us - s.start_us) / 1e6
    }

    /// Self time of span `id` in seconds.
    pub fn self_secs(&self, id: SpanId) -> f64 {
        let children: f64 = (0..self.spans.len())
            .filter(|&c| self.spans[c].parent == Some(id))
            .map(|c| self.secs(c))
            .sum();
        self.secs(id) - children
    }

    /// The child of `parent` named `name`.
    pub fn child(&self, parent: SpanId, name: &str) -> SpanId {
        (0..self.spans.len())
            .find(|&c| self.spans[c].parent == Some(parent) && self.spans[c].name == name)
            .unwrap_or_else(|| panic!("span {name} missing under {}", self.spans[parent].name))
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"run\":{},\
                 \"start_us\":{:.1},\"end_us\":{:.1},\"self_us\":{:.1}}}",
                s.name,
                s.run,
                s.start_us,
                s.end_us,
                self.self_secs(id) * 1e6
            )
            .expect("formatting into a String cannot fail");
        }
        std::fs::write(path, out)
    }
}
