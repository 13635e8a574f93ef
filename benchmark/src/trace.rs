//! Spans recorded from outside the library: one around every stage of every sample
//! interval of the hand-rolled pipeline, kept in memory and written as JSON lines when
//! the traced pass ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed stretch of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Stage name (`drain`, `partition`, `process`, …; `interval` and `run` nest them).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one (`None` for the root).
    pub parent: Option<usize>,
    /// Sample interval the span belongs to — the identifier the spans of one interval
    /// share (`None` outside any interval).
    pub interval: Option<usize>,
    /// Library calls the span covers: a stage span wraps the loop over an interval's
    /// chunks or probes, not each call (one call can be a single 200 ns event).
    pub calls: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder; span times count from now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span and return its index; close it with [`Recorder::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        interval: Option<usize>,
    ) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            interval,
            calls: 0,
        });
        self.spans.len() - 1
    }

    /// Close span `id`, noting how many library calls it covered.
    pub fn close(&mut self, id: usize, calls: u64) {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.calls = calls;
    }

    /// Time `f` as a child span of `parent`; `f` returns its result and its call count.
    pub fn stage<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        interval: usize,
        f: impl FnOnce() -> (T, u64),
    ) -> T {
        let id = self.open(name, Some(parent), Some(interval));
        let (out, calls) = f();
        self.close(id, calls);
        out
    }

    /// The recorded spans, in the order they were opened.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration and total calls of every span named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, calls), s| {
                (ns + s.duration_ns(), calls + s.calls)
            })
    }

    /// Write the spans as JSON lines, each with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (span, self_ns)) in self.spans.iter().zip(self_ns).enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_owned(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"interval\": {}, \"calls\": {}, \"self_ns\": {self_ns}}}",
                span.name,
                span.start_ns,
                span.end_ns,
                opt(span.parent),
                opt(span.interval),
                span.calls,
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of it that its direct children
/// cover. Children are clipped to the parent and overlapping children count once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            interval: None,
            calls: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span(0, 100, None),     // root
            span(10, 30, Some(0)),  // 20 covered
            span(40, 70, Some(0)),  // 30 covered
            span(45, 50, Some(2)),  // grandchild: only its parent pays
            span(60, 80, Some(0)),  // overlaps span 2: adds 70..80 only
            span(90, 120, Some(0)), // clipped to the root: 90..100
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 25, 5, 20, 30]);
    }

    #[test]
    fn recorder_nests_stages_under_their_interval() {
        let mut rec = Recorder::new();
        let run = rec.open("run", None, None);
        let interval = rec.open("interval", Some(run), Some(0));
        let out = rec.stage("drain", interval, 0, || (7, 3));
        rec.close(interval, 0);
        rec.close(run, 0);
        assert_eq!(out, 7);
        let spans = rec.spans();
        assert_eq!(spans[2].parent, Some(interval));
        assert_eq!(spans[2].calls, 3);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(rec.total("drain"), (spans[2].duration_ns(), 3));
        let selfs = self_times(spans);
        assert_eq!(selfs[1], spans[1].duration_ns() - spans[2].duration_ns());
    }
}
