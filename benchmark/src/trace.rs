//! Outside-in tracing: spans recorded from the benchmark's own files around
//! the calls into each solver crate. Nothing inside the solver is touched.

use std::time::Instant;

use claire_grid::{VectorField, VectorFieldT};
use claire_mpi::Comm;
use claire_opt::GnProblem;
use serde_json::Value;

use crate::calib::SpeedClock;

/// One timed call into a layer. Times are microseconds since the
/// recorder's origin (the child's process start).
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) * 1e-6
    }
}

/// In-memory span list; written out once, when the child ends.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder { origin, spans: Vec::with_capacity(4096), open: Vec::new() }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_us = self.now_us();
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_secs(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.secs();
        }
    }
    own
}

/// Total seconds and call count of the spans called `name`.
pub fn total(spans: &[Span], name: &str) -> (f64, u64) {
    spans.iter().filter(|s| s.name == name).fold((0.0, 0), |(t, n), s| (t + s.secs(), n + 1))
}

/// Chrome-trace (`chrome://tracing`, Perfetto) rendering: one complete
/// event per span; `pid` is the workload's index in the catalogue, so the
/// spans of one registration share an identifier, and `args` carries the
/// span's own index and its parent's.
pub fn chrome_trace(spans: &[Span], workload_id: usize) -> Value {
    let events = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            Value::Object(vec![
                ("name".into(), Value::Str(s.name.into())),
                ("cat".into(), Value::Str(layer.into())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::Num(s.start_us)),
                ("dur".into(), Value::Num(s.end_us - s.start_us)),
                ("pid".into(), Value::UInt(workload_id as u64)),
                ("tid".into(), Value::UInt(0)),
                (
                    "args".into(),
                    Value::Object(vec![
                        ("id".into(), Value::UInt(id as u64)),
                        ("parent".into(), s.parent.map_or(Value::Null, |p| Value::UInt(p as u64))),
                    ]),
                ),
            ])
        })
        .collect();
    Value::Object(vec![("traceEvents".into(), Value::Array(events))])
}

/// A [`GnProblem`] that records a span around every call the optimizer
/// makes into the problem and otherwise delegates unchanged — including
/// `precond32`, whose default would silently swap the f32 preconditioner
/// for a promote/apply/demote of the f64 one.
pub struct Traced<P> {
    pub inner: P,
    pub rec: Recorder,
    /// Ticked where the untraced solve's `on_gn_iter` hook ticks it: once
    /// before every gradient, which is once per Gauss–Newton boundary.
    pub clock: SpeedClock,
}

impl<P: GnProblem> GnProblem for Traced<P> {
    fn objective(&mut self, v: &VectorField, comm: &mut Comm) -> f64 {
        let id = self.rec.enter("core.objective");
        let out = self.inner.objective(v, comm);
        self.rec.exit(id);
        out
    }

    fn gradient(&mut self, v: &VectorField, comm: &mut Comm) -> VectorField {
        // a span of its own, so that it is not `opt.gauss_newton`'s self time
        let id = self.rec.enter("bench.clock_tick");
        self.clock.tick();
        self.rec.exit(id);
        let id = self.rec.enter("core.gradient");
        let out = self.inner.gradient(v, comm);
        self.rec.exit(id);
        out
    }

    fn hess_vec(&mut self, vt: &VectorField, comm: &mut Comm) -> VectorField {
        let id = self.rec.enter("core.hess_vec");
        let out = self.inner.hess_vec(vt, comm);
        self.rec.exit(id);
        out
    }

    fn precond(&mut self, r: &VectorField, eps_k: f64, comm: &mut Comm) -> VectorField {
        let id = self.rec.enter("core.precond");
        let out = self.inner.precond(r, eps_k, comm);
        self.rec.exit(id);
        out
    }

    fn new_iterate(&mut self, v: &VectorField, comm: &mut Comm) {
        let id = self.rec.enter("core.new_iterate");
        self.inner.new_iterate(v, comm);
        self.rec.exit(id);
    }

    fn precond32(
        &mut self,
        r: &VectorFieldT<f32>,
        eps_k: f64,
        comm: &mut Comm,
    ) -> VectorFieldT<f32> {
        let id = self.rec.enter("core.precond");
        let out = self.inner.precond32(r, eps_k, comm);
        self.rec.exit(id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span { name, start_us, end_us, parent }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // gn [0, 100 s] ⊃ gradient [10, 40] ⊃ probe [20, 25]; gn ⊃ hess [50, 90]
        let spans = [
            span("opt.gauss_newton", 0.0, 100e6, None),
            span("core.gradient", 10e6, 40e6, Some(0)),
            span("probe", 20e6, 25e6, Some(1)),
            span("core.hess_vec", 50e6, 90e6, Some(0)),
        ];
        let own = self_secs(&spans);
        assert_eq!(own, vec![30.0, 25.0, 5.0, 40.0]);
        // self times partition the root's duration
        assert_eq!(own.iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn totals_sum_by_name() {
        let spans = [
            span("core.precond", 0.0, 1e6, None),
            span("core.hess_vec", 1e6, 4e6, None),
            span("core.precond", 4e6, 6e6, None),
        ];
        assert_eq!(total(&spans, "core.precond"), (3.0, 2));
        assert_eq!(total(&spans, "core.objective"), (0.0, 0));
    }

    #[test]
    fn recorder_nests_and_orders() {
        let mut rec = Recorder::new(Instant::now());
        let a = rec.enter("a");
        let b = rec.enter("b");
        rec.exit(b);
        rec.exit(a);
        let c = rec.enter("c");
        rec.exit(c);
        assert_eq!(rec.spans[b].parent, Some(a));
        assert_eq!(rec.spans[a].parent, None);
        assert_eq!(rec.spans[c].parent, None);
        assert!(rec.spans[a].start_us <= rec.spans[b].start_us);
        assert!(rec.spans[b].end_us <= rec.spans[a].end_us);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let spans = [span("core.gradient", 1.0, 3.0, None), span("fft.x", 1.5, 2.0, Some(0))];
        let text = serde_json::to_string(&chrome_trace(&spans, 2)).unwrap();
        let back = serde_json::from_str(&text).unwrap();
        let Value::Object(top) = back else { panic!("object") };
        let Value::Array(events) = &top[0].1 else { panic!("array") };
        assert_eq!(events.len(), 2);
        assert!(text.contains("\"ph\":\"X\"") && text.contains("\"cat\":\"fft\""));
    }
}
