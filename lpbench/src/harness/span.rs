//! Bench-side spans: one is recorded around every call the benchmark makes
//! into a layer's public function. Spans stay in memory and are written out
//! when the run ends; a layer's number is its spans' *self* time — duration
//! minus the part of it child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span without a parent.
const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `minic.compile`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one ([`u32::MAX`]: none).
    pub parent: u32,
    /// The operation (one program, one request) the span belongs to.
    pub op: u32,
}

/// Records spans when on; costs one branch per call when off.
pub struct Tracer {
    /// Whether spans are recorded. The end-to-end metrics are measured
    /// with this off.
    pub on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    /// Spans before this index were already summed by [`Tracer::take_pass`].
    taken: usize,
    /// Counts made at the same boundaries since the last `take_pass`.
    counts: BTreeMap<String, f64>,
}

/// What one traced pass recorded.
#[derive(Clone, Debug, Default)]
pub struct PassLayer {
    /// Self time in milliseconds by span name.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Sum of the counts added under each name.
    pub counts: BTreeMap<String, f64>,
}

impl Tracer {
    /// A tracer measuring from `origin`; threads of one run share it so
    /// their spans line up in the trace file.
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            taken: 0,
            counts: BTreeMap::new(),
        }
    }

    /// A tracer for another thread of the same run.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.on, self.origin)
    }

    /// Name the operation following spans belong to.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(ROOT),
            op: self.op,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        r
    }

    /// Add `v` to the count `name` — a layer's own public counter, read at
    /// the boundary where the work happened. Ignored while off.
    pub fn count(&mut self, name: &str, v: f64) {
        if !self.on {
            return;
        }
        match self.counts.get_mut(name) {
            Some(sum) => *sum += v,
            None => {
                self.counts.insert(name.to_string(), v);
            }
        }
    }

    /// Append another thread's finished spans and counts. Its top-level
    /// spans become children of the span open here: the one that caused
    /// the thread's work.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbing a tracer with open spans");
        for (k, v) in other.counts {
            *self.counts.entry(k).or_insert(0.0) += v;
        }
        let base = self.spans.len() as u32;
        let adopt = self.open.last().copied().unwrap_or(ROOT);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = if s.parent == ROOT {
                adopt
            } else {
                s.parent + base
            };
            s
        }));
    }

    /// Self times and counts recorded since the previous call — one traced
    /// pass.
    pub fn take_pass(&mut self) -> PassLayer {
        assert!(self.open.is_empty(), "pass ended with open spans");
        let new = &self.spans[self.taken..];
        let mut self_ns: Vec<u64> = new.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in new {
            if s.parent != ROOT && s.parent as usize >= self.taken {
                let p = s.parent as usize - self.taken;
                self_ns[p] = self_ns[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        let mut self_ms = BTreeMap::new();
        for (s, ns) in new.iter().zip(self_ns) {
            *self_ms.entry(s.name).or_insert(0.0) += ns as f64 / 1e6;
        }
        self.taken = self.spans.len();
        PassLayer {
            self_ms,
            counts: std::mem::take(&mut self.counts),
        }
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The trace file: every span with its name, start, end, parent and
    /// operation.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 72);
        out.push_str(&format!(
            "{{\"schema\":\"lpbench-trace/v1\",\"workload\":\"{workload}\",\"unit\":\"ns\",\"spans\":[\n"
        ));
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"op\":{}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.op,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {}
    }

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut tr = Tracer::new(true, Instant::now());
        tr.span("outer", |tr| {
            spin(300);
            tr.span("inner", |_| spin(1000));
            tr.span("inner", |_| spin(1000));
        });
        tr.count("widgets", 2.0);
        tr.count("widgets", 3.0);
        let pass = tr.take_pass();
        let ms = &pass.self_ms;
        assert!(ms["inner"] >= 2.0, "{ms:?}");
        assert!(ms["outer"] >= 0.3 && ms["outer"] < 1.5, "{ms:?}");
        assert_eq!(pass.counts["widgets"], 5.0);
        let again = tr.take_pass();
        assert!(
            again.self_ms.is_empty() && again.counts.is_empty(),
            "a pass is only summed once"
        );

        tr.on = false;
        assert_eq!(tr.span("ignored", |_| 7), 7);
        assert_eq!(tr.len(), 3);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let origin = Instant::now();
        let mut main = Tracer::new(true, origin);
        main.span("a", |_| {});
        let mut other = main.fork();
        other.span("p", |t| t.span("c", |_| spin(200)));
        main.absorb(other);
        assert_eq!(main.spans[2].parent, 1);
        let pass = main.take_pass();
        assert!(pass.self_ms["c"] >= 0.2);
        let json = main.to_json("w");
        assert!(lpat_core::trace::parse_json(&json).is_ok(), "{json}");
    }
}
