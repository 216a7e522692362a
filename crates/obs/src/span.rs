//! Distributed tracing: trace/span identity and drop-guard span scopes.
//!
//! A [`TraceContext`] names one node in a cross-process span tree:
//! `trace_id` identifies the whole tree (for service jobs it is the
//! job's content digest), `span_id` this node, `parent_span_id` the node
//! above it. Identities are **content-derived** — a child's id is a hash
//! of `(trace_id, parent_span_id, name, ordinal)`, never wall clock or a
//! global counter — so the span *set* produced by a fixed workload is
//! bit-identical at any worker count, which is what lets the service
//! determinism tests compare 1-worker and 8-worker traces.
//!
//! [`SpanScope`] is the drop guard: `span_begin` on entry, `span_end`
//! (carrying `dur_us`) on drop, and the elapsed time folds into the
//! stage-latency histogram named after the span — the same machinery
//! [`crate::time_stage`] uses, so every span site doubles as a latency
//! instrument for the live telemetry plane. Disabled observability keeps
//! a span site at one relaxed atomic load: no `Instant`, no hash, no
//! event.
//!
//! Cross-thread spans (a queue wait that begins on the submitting thread
//! and ends on a worker) use the free functions [`span_begin`] /
//! [`span_end`] with an explicit duration instead of a guard.

use crate::Value;
use crate::{alloc, metrics};
use std::time::{Duration, Instant};
use vab_util::hash::{fnv1a64, fnv1a64_fold};

/// Derives a child span id from its coordinates. Zero is reserved for
/// "no parent", so a (vanishingly unlikely) zero hash remaps to one.
fn derive_span_id(trace_id: u64, parent_span_id: u64, name: &str, ordinal: u64) -> u64 {
    let mut h = fnv1a64(&trace_id.to_le_bytes());
    h = fnv1a64_fold(h, &parent_span_id.to_le_bytes());
    h = fnv1a64_fold(h, name.as_bytes());
    h = fnv1a64_fold(h, &ordinal.to_le_bytes());
    if h == 0 {
        1
    } else {
        h
    }
}

/// Serializable identity of one span in a (possibly cross-process) trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Identifies the whole tree (the job's content digest for service
    /// jobs).
    pub trace_id: u64,
    /// This span.
    pub span_id: u64,
    /// The span above (0 = this is a root).
    pub parent_span_id: u64,
}

impl TraceContext {
    /// A root context for `trace_id`: the tree's anchor node, named so
    /// that re-deriving it from the same id always yields the same span.
    pub fn root(trace_id: u64, name: &str) -> TraceContext {
        TraceContext { trace_id, span_id: derive_span_id(trace_id, 0, name, 0), parent_span_id: 0 }
    }

    /// The child context for a span named `name`; `ordinal`
    /// disambiguates repeats under one parent (retry attempts).
    pub fn child(&self, name: &str, ordinal: u64) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: derive_span_id(self.trace_id, self.span_id, name, ordinal),
            parent_span_id: self.span_id,
        }
    }

    /// Wire form: `trace-span-parent`, three fixed-width hex words.
    pub fn encode(&self) -> String {
        format!("{:016x}-{:016x}-{:016x}", self.trace_id, self.span_id, self.parent_span_id)
    }

    /// Parses [`TraceContext::encode`] output. Returns `None` on any
    /// deviation (wrong arity, width, or non-hex) — a malformed context
    /// on the wire degrades to "untraced", never to an error.
    pub fn decode(s: &str) -> Option<TraceContext> {
        let mut words = s.split('-');
        let mut next = || {
            let w = words.next()?;
            if w.len() != 16 || !w.bytes().all(|b| b.is_ascii_hexdigit()) {
                return None;
            }
            u64::from_str_radix(w, 16).ok()
        };
        let ctx = TraceContext { trace_id: next()?, span_id: next()?, parent_span_id: next()? };
        if words.next().is_some() {
            return None;
        }
        Some(ctx)
    }
}

fn emit_begin(target: &'static str, name: &'static str, ctx: &TraceContext) {
    // The hex renders allocate; keep them out of allocation profiles.
    let _p = alloc::pause();
    crate::emit(
        target,
        "span_begin",
        &[
            ("span", Value::Str(name)),
            ("trace", Value::Owned(format!("{:016x}", ctx.trace_id))),
            ("id", Value::Owned(format!("{:016x}", ctx.span_id))),
            ("parent", Value::Owned(format!("{:016x}", ctx.parent_span_id))),
        ],
    );
}

fn emit_end(
    target: &'static str,
    name: &'static str,
    ctx: &TraceContext,
    dur: Duration,
    alloc_delta: Option<alloc::AllocDelta>,
) {
    let _p = alloc::pause();
    let mut fields = vec![
        ("span", Value::Str(name)),
        ("trace", Value::Owned(format!("{:016x}", ctx.trace_id))),
        ("id", Value::Owned(format!("{:016x}", ctx.span_id))),
        ("parent", Value::Owned(format!("{:016x}", ctx.parent_span_id))),
        ("dur_us", Value::U64(dur.as_micros() as u64)),
    ];
    if let Some(d) = alloc_delta {
        fields.push(("alloc_n", Value::U64(d.allocs)));
        fields.push(("alloc_b", Value::U64(d.bytes)));
    }
    crate::emit(target, "span_end", &fields);
    metrics::stage(name).observe(dur.as_secs_f64());
}

/// Emits the `span_begin` event for a cross-thread span (one whose end
/// happens on another thread, so no drop guard can cover it). No-op when
/// observability is disabled.
pub fn span_begin(target: &'static str, name: &'static str, ctx: &TraceContext) {
    if crate::enabled() {
        emit_begin(target, name, ctx);
    }
}

/// Emits the `span_end` event for a cross-thread span, with an
/// explicitly measured duration, and folds the duration into the
/// span-named stage histogram. No-op when observability is disabled.
pub fn span_end(target: &'static str, name: &'static str, ctx: &TraceContext, dur: Duration) {
    if crate::enabled() {
        // Cross-thread spans cannot carry a thread-local attribution
        // frame: the allocations happened on another thread's stack.
        emit_end(target, name, ctx, dur, None);
    }
}

/// Drop-guard scope for one traced span: `span_begin` on entry,
/// `span_end` (with `dur_us`) plus a stage-histogram observation on
/// drop. Inert — one relaxed atomic load, no id derivation — when
/// observability is disabled.
#[must_use = "the span measures until dropped"]
#[derive(Debug)]
pub struct SpanScope {
    target: &'static str,
    name: &'static str,
    ctx: TraceContext,
    start: Option<Instant>,
    /// Allocation-attribution frame, open while `VAB_PROFILE=1` —
    /// independent of the event switch, so profiles work with no sink.
    alloc_tok: Option<alloc::StageToken>,
}

impl SpanScope {
    /// Opens the child span `name` under `parent` (ordinal 0).
    pub fn enter(target: &'static str, name: &'static str, parent: &TraceContext) -> SpanScope {
        Self::enter_ord(target, name, parent, 0)
    }

    /// Opens the child span `name` under `parent`, disambiguated by
    /// `ordinal` (use the attempt number for retried work).
    pub fn enter_ord(
        target: &'static str,
        name: &'static str,
        parent: &TraceContext,
        ordinal: u64,
    ) -> SpanScope {
        let alloc_tok = alloc::stage_enter(name);
        if !crate::enabled() {
            return SpanScope { target, name, ctx: *parent, start: None, alloc_tok };
        }
        let ctx = parent.child(name, ordinal);
        emit_begin(target, name, &ctx);
        SpanScope { target, name, ctx, start: Some(Instant::now()), alloc_tok }
    }

    /// Opens a span whose context was derived by the caller (e.g. the
    /// exact context that was serialized onto the wire).
    pub fn enter_with(target: &'static str, name: &'static str, ctx: TraceContext) -> SpanScope {
        let alloc_tok = alloc::stage_enter(name);
        if !crate::enabled() {
            return SpanScope { target, name, ctx, start: None, alloc_tok };
        }
        emit_begin(target, name, &ctx);
        SpanScope { target, name, ctx, start: Some(Instant::now()), alloc_tok }
    }

    /// This span's context — the parent for anything nested under it.
    /// (When observability is disabled this echoes the parent context;
    /// nothing is emitted anywhere, so the value is inert.)
    pub fn ctx(&self) -> TraceContext {
        self.ctx
    }

    /// True when the scope is live (observability was enabled at entry).
    pub fn is_recording(&self) -> bool {
        self.start.is_some()
    }
}

impl Drop for SpanScope {
    fn drop(&mut self) {
        // Close the attribution frame first so the emit below (paused)
        // can never leak observability work into the span's own counts.
        let delta = self.alloc_tok.take().map(alloc::stage_exit);
        if let Some(start) = self.start {
            emit_end(self.target, self.name, &self.ctx, start.elapsed(), delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{test_guard, CaptureSink};
    use std::sync::Arc;

    #[test]
    fn ids_are_content_derived_and_reproducible() {
        let root = TraceContext::root(0xabcd, "job");
        assert_eq!(root, TraceContext::root(0xabcd, "job"));
        assert_ne!(root.span_id, 0, "root span id must not collide with the no-parent marker");
        let a = root.child("svc.submit", 0);
        let b = root.child("svc.submit", 0);
        assert_eq!(a, b, "same coordinates, same id");
        assert_ne!(a.span_id, root.child("svc.submit", 1).span_id, "ordinal disambiguates");
        assert_ne!(a.span_id, root.child("svc.handle", 0).span_id, "name disambiguates");
        assert_eq!(a.parent_span_id, root.span_id);
        assert_eq!(a.trace_id, 0xabcd);
    }

    #[test]
    fn span_ids_are_pinned() {
        // Ids travel on the wire and key merged traces: the derivation
        // must never move.
        let root = TraceContext::root(0xabcd, "job");
        let got = [
            root.child("svc.submit", 0).span_id,
            root.child("svc.submit", 1).span_id,
            TraceContext::root(u64::MAX, "fig.f7").child("sim.linkbudget_trial", 42).span_id,
        ];
        assert_eq!(got, [0xc7ea_2ea7_147f_f69b, 0xa8ef_679e_0990_ac7a, 0xe8b0_86dd_d614_9227]);
    }

    #[test]
    fn encode_decode_round_trips_and_rejects_garbage() {
        let ctx = TraceContext::root(0xff00_0000_0000_0001, "job").child("x", 3);
        assert_eq!(TraceContext::decode(&ctx.encode()), Some(ctx));
        for bad in [
            "",
            "xyz",
            "0-1-2",
            "0123456789abcdef-0123456789abcdef",
            "0123456789abcdef-0123456789abcdef-0123456789abcdeZ",
            "0123456789abcdef-0123456789abcdef-0123456789abcdef-0123456789abcdef",
        ] {
            assert_eq!(TraceContext::decode(bad), None, "must reject {bad:?}");
        }
    }

    #[test]
    fn scope_emits_begin_end_with_ids_and_feeds_the_stage_histogram() {
        let _g = test_guard();
        crate::metrics::reset();
        let cap = Arc::new(CaptureSink::default());
        crate::install(cap.clone());
        let root = TraceContext::root(0x1234, "job");
        let child_ctx = {
            let scope = SpanScope::enter("svc.test", "pr7.span_scope", &root);
            assert!(scope.is_recording());
            scope.ctx()
        };
        crate::disable();
        let lines = cap.lines.lock().expect("lock");
        assert_eq!(lines.len(), 2, "lines: {lines:?}");
        assert!(lines[0].contains("\"event\":\"span_begin\""));
        assert!(lines[0].contains("\"trace\":\"0000000000001234\""));
        assert!(lines[0].contains(&format!("\"id\":\"{:016x}\"", child_ctx.span_id)));
        assert!(lines[0].contains(&format!("\"parent\":\"{:016x}\"", root.span_id)));
        assert!(lines[1].contains("\"event\":\"span_end\""));
        assert!(lines[1].contains("\"dur_us\":"));
        assert_eq!(metrics::stage("pr7.span_scope").count(), 1, "span must feed the stage hist");
        crate::metrics::reset();
    }

    #[test]
    fn disabled_scope_is_inert() {
        let _g = test_guard();
        crate::disable();
        crate::metrics::reset();
        let root = TraceContext::root(7, "job");
        {
            let scope = SpanScope::enter("svc.test", "pr7.span_off", &root);
            assert!(!scope.is_recording());
            assert_eq!(scope.ctx(), root, "disabled scope echoes the parent");
        }
        span_begin("svc.test", "pr7.span_off", &root);
        span_end("svc.test", "pr7.span_off", &root, Duration::from_millis(5));
        assert_eq!(metrics::stage("pr7.span_off").count(), 0);
        crate::metrics::reset();
    }

    #[test]
    fn cross_thread_span_functions_emit_when_enabled() {
        let _g = test_guard();
        crate::metrics::reset();
        let cap = Arc::new(CaptureSink::default());
        crate::install(cap.clone());
        let ctx = TraceContext::root(9, "job").child("pr7.queue_wait", 0);
        span_begin("svc.pool", "pr7.queue_wait", &ctx);
        span_end("svc.pool", "pr7.queue_wait", &ctx, Duration::from_micros(1500));
        crate::disable();
        let lines = cap.lines.lock().expect("lock");
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"dur_us\":1500"));
        assert_eq!(metrics::stage("pr7.queue_wait").count(), 1);
        crate::metrics::reset();
    }
}
