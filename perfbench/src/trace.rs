//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only by the benchmark, around the calls it makes
//! into each layer's public functions; nothing inside the program is
//! instrumented. The run is single-threaded, so spans nest strictly and
//! a span's self time is its duration minus the durations of its
//! direct children.

use std::time::Instant;

use serde_json::Value;

/// One recorded span. Times are microseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, such as `profile.profile`.
    pub name: &'static str,
    /// Start time.
    pub start_us: f64,
    /// End time (`NaN` while the span is open).
    pub end_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

/// Records spans when enabled; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        self.exit_as(id, None);
    }

    /// Closes `id`, renaming it when the outcome of the call decides
    /// the name (a cache lookup is a hit or a miss).
    pub fn exit_as(&mut self, id: SpanId, rename: Option<&'static str>) {
        let Some(idx) = id.0 else { return };
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        let end = self.now_us();
        let span = &mut self.spans[idx];
        span.end_us = end;
        if let Some(name) = rename {
            span.name = name;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Every closed span, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `idx` in seconds: its duration minus its direct
    /// children's.
    #[must_use]
    pub fn self_secs(&self, idx: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::secs)
            .sum();
        self.spans[idx].secs() - children
    }

    /// Summed duration of every span named `name`, in seconds.
    #[must_use]
    pub fn total_secs(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Durations of every span named `name`, in seconds, in start order.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// The spans as a Chrome trace-event document (complete `X` events,
    /// one process and thread), which Perfetto and `chrome://tracing`
    /// load. Each event carries its span id, end time, parent id and self
    /// time in `args`.
    #[must_use]
    pub fn chrome_json(&self, process: &str) -> String {
        let mut events = vec![Value::Object(vec![
            ("name".into(), Value::Str("process_name".into())),
            ("ph".into(), Value::Str("M".into())),
            ("pid".into(), Value::Num(1.0)),
            ("tid".into(), Value::Num(1.0)),
            (
                "args".into(),
                Value::Object(vec![("name".into(), Value::Str(process.into()))]),
            ),
        ])];
        for (i, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            events.push(Value::Object(vec![
                ("name".into(), Value::Str(s.name.into())),
                ("cat".into(), Value::Str(layer.into())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::Num(s.start_us)),
                ("dur".into(), Value::Num(s.end_us - s.start_us)),
                ("pid".into(), Value::Num(1.0)),
                ("tid".into(), Value::Num(1.0)),
                (
                    "args".into(),
                    Value::Object(vec![
                        ("id".into(), Value::Num(i as f64)),
                        ("end_us".into(), Value::Num(s.end_us)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("self_us".into(), Value::Num(self.self_secs(i) * 1e6)),
                    ]),
                ),
            ]));
        }
        serde_json::to_string(&Value::Object(vec![
            ("traceEvents".into(), Value::Array(events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(micros: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(micros) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.enter("root.pass");
        t.time("a.call", || spin(2_000));
        t.time("b.call", || spin(1_000));
        t.exit(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let own = t.self_secs(0);
        let sum = spans[0].secs() - spans[1].secs() - spans[2].secs();
        assert!((own - sum).abs() < 1e-12);
        assert!(own >= 0.0);
        assert!(t.total_secs("a.call") >= 0.002);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("x.y");
        t.exit_as(id, Some("x.z"));
        assert_eq!(t.time("x.w", || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_json_round_trips_with_parents() {
        let mut t = Tracer::new(true);
        let root = t.enter("root.pass");
        let hit = t.enter("cache.get_or_compile");
        t.exit_as(hit, Some("cache.hit"));
        t.exit(root);
        let doc = serde_json::from_str(&t.chrome_json("test")).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("event array");
        assert_eq!(events.len(), 3);
        let child = &events[2];
        assert_eq!(child.get("name").and_then(Value::as_str), Some("cache.hit"));
        assert_eq!(child.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(
            child
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Value::as_u64),
            Some(0)
        );
    }
}
