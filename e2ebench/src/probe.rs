//! The traced run's instruments, all owned by the benchmark: `Service`
//! wrappers on both sides of the wire, a `WriteSink` wrapper around the
//! origin's WAL, and the span harvest that turns one window of traced
//! operations into per-layer samples.
//!
//! Every instrument opens `bench.*` spans with the program's own tracing
//! API, so they cost one thread-local check while no trace is active and
//! nest under the spans the program already emits (`client.call`,
//! `net.server`, `store.plan`, `store.query`, `wal.append`, `repl.ship`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use quaestor_core::{Request, Response, Service};
use quaestor_durability::DurabilityEngine;
use quaestor_obs::SpanRecord;
use quaestor_store::{WriteEvent, WriteSink};

use crate::stats::{Layer, Nested, Samples};
use crate::Class;

/// Request kinds the report splits round trips by.
pub const RPC_KINDS: [&str; 4] = ["get_record", "query", "write", "ebf"];

fn rpc_span(req: &Request) -> &'static str {
    match req {
        Request::GetRecord { .. } => "bench.rpc.get_record",
        Request::Query(_) => "bench.rpc.query",
        Request::Insert { .. }
        | Request::Update { .. }
        | Request::Replace { .. }
        | Request::Delete { .. } => "bench.rpc.write",
        Request::EbfSnapshot { .. } => "bench.rpc.ebf",
        _ => "bench.rpc.other",
    }
}

fn rpc_kind(span_name: &str) -> Option<usize> {
    let kind = span_name.strip_prefix("bench.rpc.")?;
    RPC_KINDS.iter().position(|k| *k == kind)
}

/// Client-side wrapper around the `RemoteService` pool: one span per
/// round trip, named by request kind, and the size of each EBF fetched.
pub struct RpcProbe {
    inner: Arc<dyn Service>,
    ebf_bytes: AtomicU64,
}

impl RpcProbe {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn Service>) -> Arc<RpcProbe> {
        Arc::new(RpcProbe {
            inner,
            ebf_bytes: AtomicU64::new(0),
        })
    }

    /// Byte size of the last EBF fetched through this probe.
    pub fn ebf_bytes(&self) -> u64 {
        self.ebf_bytes.load(Ordering::Relaxed)
    }
}

impl Service for RpcProbe {
    fn call(&self, req: Request) -> quaestor_common::Result<Response> {
        let _span = quaestor_obs::span(rpc_span(&req));
        let resp = self.inner.call(req);
        if let Ok(Response::Ebf { filter, .. }) = &resp {
            self.ebf_bytes
                .store(filter.params().byte_size() as u64, Ordering::Relaxed);
        }
        resp
    }
}

/// Server-side wrapper placed between the `NetServer` and the origin:
/// one `bench.handler` span per request, inside the adopted `net.server`.
pub struct HandlerProbe {
    inner: Arc<dyn Service>,
}

impl HandlerProbe {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn Service>) -> Arc<HandlerProbe> {
        Arc::new(HandlerProbe { inner })
    }
}

impl Service for HandlerProbe {
    fn call(&self, req: Request) -> quaestor_common::Result<Response> {
        let _span = quaestor_obs::span("bench.handler");
        self.inner.call(req)
    }
}

/// A `WriteSink` that delegates to the origin's `DurabilityEngine` and
/// spans its two phases. Swapped in for the traced phase only.
pub struct SinkProbe {
    engine: Arc<DurabilityEngine>,
}

impl SinkProbe {
    /// Wrap `engine`.
    pub fn new(engine: Arc<DurabilityEngine>) -> Arc<SinkProbe> {
        Arc::new(SinkProbe { engine })
    }
}

impl WriteSink for SinkProbe {
    fn append(&self, event: &WriteEvent) -> quaestor_common::Result<u64> {
        let _span = quaestor_obs::span("bench.stage");
        WriteSink::append(&*self.engine, event)
    }

    fn commit(&self, ticket: u64) -> quaestor_common::Result<()> {
        let _span = quaestor_obs::span("bench.commit");
        WriteSink::commit(&*self.engine, ticket)
    }

    fn table_created(&self, name: &str) -> quaestor_common::Result<()> {
        WriteSink::table_created(&*self.engine, name)
    }
}

/// The span name of one traced operation of `class`.
pub fn op_span(class: Class) -> &'static str {
    match class {
        Class::Read => "bench.read",
        Class::Query => "bench.query",
        Class::Write => "bench.write",
    }
}

/// One traced operation awaiting its window's harvest.
#[derive(Debug, Clone, Copy)]
pub struct OpMark {
    /// The operation's own span id.
    pub span_id: u64,
    /// Operation class.
    pub class: Class,
    /// SDK call time from the benchmark's own clock.
    pub op_us: f64,
}

/// Per-layer samples accumulated over every harvested window.
#[derive(Debug, Default, Clone)]
pub struct TraceAcc {
    /// Round-trip time per [`RPC_KINDS`] entry.
    pub rtt_us: [Samples; 4],
    /// Round trip minus the server handler beneath it.
    pub net_self_us: Samples,
    /// Server handler time for record reads, queries and writes.
    pub handler_us: [Samples; 3],
    /// `store.plan` span durations.
    pub store_plan_us: Samples,
    /// `store.query` span durations.
    pub store_query_us: Samples,
    /// WAL stage (append) time.
    pub stage_us: Samples,
    /// WAL commit (fsync) time.
    pub commit_us: Samples,
    /// Handler time after the last WAL commit of a replicated write.
    pub gate_us: Samples,
    /// `repl.ship` span durations (send a batch, await the replica ack).
    pub ship_us: Samples,
    /// SDK self time per operation class.
    pub sdk_self_us: [Samples; 3],
    /// Sum of each layer's self time per class, over harvested ops.
    pub self_sum_us: [[f64; 6]; 3],
    /// Sum of SDK call time per class, over every traced op.
    pub op_sum_us: [f64; 3],
    /// Traced ops per class.
    pub ops: [u64; 3],
    /// Traced ops per class whose spans were found in the collector.
    pub harvested: [u64; 3],
}

impl TraceAcc {
    /// Fold another thread's samples in.
    pub fn merge(&mut self, o: &TraceAcc) {
        for (a, b) in self.rtt_us.iter_mut().zip(&o.rtt_us) {
            a.extend(b);
        }
        for (a, b) in self.handler_us.iter_mut().zip(&o.handler_us) {
            a.extend(b);
        }
        for (a, b) in self.sdk_self_us.iter_mut().zip(&o.sdk_self_us) {
            a.extend(b);
        }
        self.net_self_us.extend(&o.net_self_us);
        self.store_plan_us.extend(&o.store_plan_us);
        self.store_query_us.extend(&o.store_query_us);
        self.stage_us.extend(&o.stage_us);
        self.commit_us.extend(&o.commit_us);
        self.gate_us.extend(&o.gate_us);
        self.ship_us.extend(&o.ship_us);
        for c in 0..3 {
            for l in 0..6 {
                self.self_sum_us[c][l] += o.self_sum_us[c][l];
            }
            self.op_sum_us[c] += o.op_sum_us[c];
            self.ops[c] += o.ops[c];
            self.harvested[c] += o.harvested[c];
        }
    }

    /// Collect the spans of the closed trace `trace_id`, attribute each
    /// to the operation above it, and fold the results in. `gated` marks
    /// a replicated primary, whose write handlers end with the semi-sync
    /// gate.
    pub fn harvest(&mut self, trace_id: u64, ops: &[OpMark], gated: bool) {
        let spans = quaestor_obs::spans_for(trace_id);
        self.attribute(&spans, ops, gated);
    }

    /// [`harvest`](Self::harvest) over an already collected span list.
    pub fn attribute(&mut self, spans: &[SpanRecord], ops: &[OpMark], gated: bool) {
        let by_id: HashMap<u64, usize> = spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.span_id, i))
            .collect();
        let op_of: HashMap<u64, usize> = ops
            .iter()
            .enumerate()
            .map(|(i, m)| (m.span_id, i))
            .collect();
        // Nearest ancestor of span `i` satisfying `pred`.
        let ancestor = |mut i: usize, pred: &dyn Fn(&SpanRecord) -> bool| -> Option<usize> {
            for _ in 0..64 {
                let parent = spans[i].parent;
                i = *by_id.get(&parent)?;
                if pred(&spans[i]) {
                    return Some(i);
                }
            }
            None
        };
        let owner = |i: usize| -> Option<usize> {
            ancestor(i, &|s| op_of.contains_key(&s.span_id)).map(|j| op_of[&spans[j].span_id])
        };
        let end = |s: &SpanRecord| (s.start_us + s.dur_us) as f64;

        let mut nested: Vec<Nested> = ops
            .iter()
            .map(|m| Nested {
                op_us: m.op_us,
                ..Nested::default()
            })
            .collect();
        // Latest WAL-commit end per handler span, for the gate.
        let mut commit_end: HashMap<usize, f64> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.dur_us as f64;
            let op = owner(i);
            let add = |nested: &mut Vec<Nested>, f: fn(&mut Nested) -> &mut f64| {
                if let Some(o) = op {
                    *f(&mut nested[o]) += dur;
                }
            };
            match s.name {
                "bench.handler" => {
                    add(&mut nested, |n| &mut n.handler_us);
                    let rpc = ancestor(i, &|p| rpc_kind(p.name).is_some());
                    if let Some(r) = rpc {
                        self.net_self_us.push(spans[r].dur_us as f64 - dur);
                        // Record reads, queries and writes; not EBF fetches.
                        if let Some(k) = rpc_kind(spans[r].name).filter(|k| *k < 3) {
                            self.handler_us[k].push(dur);
                        }
                    }
                }
                "store.plan" => {
                    self.store_plan_us.push(dur);
                    add(&mut nested, |n| &mut n.store_us);
                }
                "store.query" => {
                    self.store_query_us.push(dur);
                    add(&mut nested, |n| &mut n.store_us);
                }
                "bench.stage" => {
                    self.stage_us.push(dur);
                    add(&mut nested, |n| &mut n.durability_us);
                }
                "bench.commit" => {
                    self.commit_us.push(dur);
                    add(&mut nested, |n| &mut n.durability_us);
                    if let Some(h) = ancestor(i, &|p| p.name == "bench.handler") {
                        let e = commit_end.entry(h).or_insert(0.0);
                        *e = e.max(end(s));
                    }
                }
                "repl.ship" => self.ship_us.push(dur),
                name => {
                    if let Some(k) = rpc_kind(name) {
                        self.rtt_us[k].push(dur);
                        add(&mut nested, |n| &mut n.rpc_us);
                    }
                }
            }
        }
        if gated {
            for (h, committed) in commit_end {
                let gate = (end(&spans[h]) - committed).max(0.0);
                self.gate_us.push(gate);
                if let Some(o) = owner(h) {
                    nested[o].gate_us += gate;
                }
            }
        }
        let found: std::collections::HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
        for (m, n) in ops.iter().zip(&nested) {
            let c = m.class as usize;
            self.ops[c] += 1;
            self.op_sum_us[c] += m.op_us;
            if !found.contains(&m.span_id) {
                continue;
            }
            self.harvested[c] += 1;
            for (l, (_, v)) in n.self_times().iter().enumerate() {
                self.self_sum_us[c][l] += v;
            }
            self.sdk_self_us[c].push(n.self_times()[0].1);
        }
    }

    /// Mean self time of `layer` for `class`, over harvested ops.
    pub fn self_mean_us(&self, class: Class, layer: Layer) -> f64 {
        let c = class as usize;
        let l = Layer::ALL.iter().position(|x| *x == layer).unwrap_or(0);
        if self.harvested[c] == 0 {
            0.0
        } else {
            self.self_sum_us[c][l] / self.harvested[c] as f64
        }
    }

    /// Traced mean SDK call time for `class`.
    pub fn op_mean_us(&self, class: Class) -> f64 {
        let c = class as usize;
        if self.ops[c] == 0 {
            0.0
        } else {
            self.op_sum_us[c] / self.ops[c] as f64
        }
    }

    /// Share of the traced mean the per-layer self times account for:
    /// the sum of the layer means over the traced mean (1 when every
    /// traced op's spans were harvested).
    pub fn coverage(&self, class: Class) -> f64 {
        let c = class as usize;
        if self.op_sum_us[c] == 0.0 {
            return 0.0;
        }
        self.self_sum_us[c].iter().sum::<f64>() / self.op_sum_us[c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            trace_id: 1,
            span_id: id,
            parent,
            name,
            start_us: start,
            dur_us: dur,
        }
    }

    #[test]
    fn a_replicated_write_splits_into_every_layer() {
        // op 10 ⊃ rpc 11 ⊃ client.call 12 ⊃ net.server 13 ⊃ handler 14
        // ⊃ stage 15, commit 16; ship 17 hangs off the stage.
        let spans = vec![
            span(1, 0, "bench.window", 0, 1000),
            span(10, 1, "bench.write", 0, 1000),
            span(11, 10, "bench.rpc.write", 10, 980),
            span(12, 11, "client.call", 11, 978),
            span(13, 12, "net.server", 50, 900),
            span(14, 13, "bench.handler", 50, 890),
            span(15, 14, "bench.stage", 60, 5),
            span(16, 14, "bench.commit", 70, 100),
            span(17, 15, "repl.ship", 400, 300),
        ];
        let ops = [OpMark {
            span_id: 10,
            class: Class::Write,
            op_us: 1000.0,
        }];
        let mut acc = TraceAcc::default();
        acc.attribute(&spans, &ops, true);
        let w = Class::Write;
        assert_eq!(acc.self_mean_us(w, Layer::Client), 20.0);
        assert_eq!(acc.self_mean_us(w, Layer::Net), 90.0);
        assert_eq!(acc.self_mean_us(w, Layer::Durability), 105.0);
        // Handler ends at 940, last commit at 170: 770 µs in the gate.
        assert_eq!(acc.self_mean_us(w, Layer::Repl), 770.0);
        assert_eq!(acc.self_mean_us(w, Layer::Core), 890.0 - 105.0 - 770.0);
        assert!((acc.coverage(w) - 1.0).abs() < 1e-9);
        assert_eq!(acc.rtt_us[2].len(), 1);
        assert_eq!(acc.ship_us.len(), 1);
        assert_eq!(acc.net_self_us.clone().percentile(0.5), Some(90.0));
    }

    #[test]
    fn ops_whose_spans_were_lost_lower_coverage() {
        let spans = vec![span(10, 0, "bench.read", 0, 4)];
        let ops = [
            OpMark {
                span_id: 10,
                class: Class::Read,
                op_us: 4.0,
            },
            OpMark {
                span_id: 99,
                class: Class::Read,
                op_us: 4.0,
            },
        ];
        let mut acc = TraceAcc::default();
        acc.attribute(&spans, &ops, false);
        assert_eq!(acc.harvested[0], 1);
        assert!((acc.coverage(Class::Read) - 0.5).abs() < 1e-9);
    }
}
