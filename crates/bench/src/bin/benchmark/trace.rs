//! The traced run's span recorder. Spans are taken from the benchmark's
//! own files, around public calls into each layer; they stay in memory
//! until the run ends and are then written out as one TSV.

use std::io::Write;
use std::time::Instant;

/// A layer is a crate. `Op` marks the root span of one operation: its self
/// time is the part of the op no named layer accounts for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Op,
    Server,
    Core,
    Xq,
    /// `optimizer`, including the `algebra` compile it drives: one public
    /// call (`Database::prepare`) covers both.
    Optimizer,
    /// `physical`, including the `xasr` and `storage` reads beneath it on
    /// the query path (no public boundary separates them from outside).
    Physical,
    Xml,
    /// `xasr` on the write path (`load_document`: shred + index build).
    Xasr,
    /// `storage` on the write path (`flush`, `Txn::commit`).
    Storage,
}

impl Layer {
    /// Every named layer, in report order.
    pub const NAMED: [Layer; 8] = [
        Layer::Server,
        Layer::Core,
        Layer::Xq,
        Layer::Optimizer,
        Layer::Physical,
        Layer::Xml,
        Layer::Xasr,
        Layer::Storage,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::Server => "server",
            Layer::Core => "core",
            Layer::Xq => "xq",
            Layer::Optimizer => "optimizer",
            Layer::Physical => "physical",
            Layer::Xml => "xml",
            Layer::Xasr => "xasr",
            Layer::Storage => "storage",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    /// True for a span whose duration was not clocked between its own
    /// start and end inside the parent: a time the server reported for the
    /// request, or the same call replayed embedded right after it.
    pub attributed: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Disabled, every call returns at once without reading the clock: the
/// timed runs go through the same code with tracing off.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    pub op: u64,
}

/// Self time per layer over a set of spans, in nanoseconds.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SelfTimes {
    /// Sum of the root (`Layer::Op`) spans' durations.
    pub op_ns: u64,
    /// Self time of the root spans: attributed to no layer.
    pub unattributed_ns: u64,
    /// Self time per named layer, indexed like [`Layer::NAMED`].
    pub layer_ns: [u64; 8],
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            op: 0,
        }
    }

    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`; close it with [`Tracer::end`].
    pub fn start(&mut self, name: &'static str, layer: Layer, parent: Option<usize>) -> usize {
        if !self.enabled {
            return 0;
        }
        let now = self.now();
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent,
            op: self.op,
            attributed: parent.is_some_and(|p| self.spans[p].attributed),
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.now();
        }
    }

    /// Records a span of known duration under `parent` (see
    /// [`Span::attributed`]). Spans opened beneath it are replays.
    pub fn attribute(
        &mut self,
        name: &'static str,
        layer: Layer,
        parent: usize,
        dur_ns: u64,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let id = self.start(name, layer, Some(parent));
        self.spans[id].end_ns += dur_ns;
        self.spans[id].attributed = true;
        id
    }

    /// Self time is a span's duration minus its children's, floored at
    /// zero (a replayed child can outlast the parent it explains). With
    /// one thread and properly nested spans this equals the span minus the
    /// part of its interval the children cover.
    pub fn self_times(&self) -> SelfTimes {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = SelfTimes::default();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let own = s.dur_ns().saturating_sub(children);
            match Layer::NAMED.iter().position(|&l| l == s.layer) {
                Some(i) => out.layer_ns[i] += own,
                None => {
                    out.op_ns += s.dur_ns();
                    out.unattributed_ns += own;
                }
            }
        }
        out
    }

    /// Durations of the root spans, one per op, in microseconds.
    pub fn op_latencies_us(&self) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == Layer::Op)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tparent\top\tlayer\tname\tstart_ns\tend_ns\tattributed"
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.op,
                s.layer.name(),
                s.name,
                s.start_ns,
                s.end_ns,
                u8::from(s.attributed)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
            attributed: false,
        }
    }

    #[test]
    fn self_time_of_a_hand_built_tree() {
        // op 0..100
        //   server 10..90
        //     core 20..80 (attributed)
        //       xq 20..25, physical 30..70
        //   xml 90..98
        let mut t = Tracer::new();
        t.spans = vec![
            span(Layer::Op, 0, 100, None),
            span(Layer::Server, 10, 90, Some(0)),
            span(Layer::Core, 20, 80, Some(1)),
            span(Layer::Xq, 20, 25, Some(2)),
            span(Layer::Physical, 30, 70, Some(2)),
            span(Layer::Xml, 90, 98, Some(0)),
        ];
        let st = t.self_times();
        assert_eq!(st.op_ns, 100);
        assert_eq!(st.unattributed_ns, 100 - 80 - 8);
        let of = |l: Layer| st.layer_ns[Layer::NAMED.iter().position(|&x| x == l).unwrap()];
        assert_eq!(of(Layer::Server), 80 - 60);
        assert_eq!(of(Layer::Core), 60 - 5 - 40);
        assert_eq!(of(Layer::Xq), 5);
        assert_eq!(of(Layer::Physical), 40);
        assert_eq!(of(Layer::Xml), 8);
        assert_eq!(of(Layer::Storage), 0);
        // Everything is accounted for exactly once.
        assert_eq!(
            st.unattributed_ns + st.layer_ns.iter().sum::<u64>(),
            st.op_ns
        );
        assert_eq!(t.op_latencies_us(), vec![0.1]);
    }

    #[test]
    fn replayed_child_longer_than_parent_floors_at_zero() {
        let mut t = Tracer::new();
        let op = t.start("op", Layer::Op, None);
        let call = t.start("call", Layer::Server, Some(op));
        t.end(call);
        t.end(op);
        let reported = t.attribute("reported", Layer::Core, call, u64::MAX / 4);
        let replay = t.start("replay", Layer::Physical, Some(reported));
        t.end(replay);
        assert!(t.spans[reported].attributed && t.spans[replay].attributed);
        assert!(!t.spans[call].attributed);
        let st = t.self_times();
        assert_eq!(st.layer_ns[0], 0, "server self time floors at zero");
    }
}
