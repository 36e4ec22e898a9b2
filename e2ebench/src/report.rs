//! Metric assembly and output: one `metric` line per metric (name,
//! value, unit, sample count), one `check` line per correctness check,
//! the self-time table of a traced run, and the closing JSON line.

use std::sync::atomic::Ordering::Relaxed;

use crate::probe::{TraceAcc, RPC_KINDS};
use crate::stack::{dir_bytes, Stack};
use crate::stats::{median, share, Layer, Samples};
use crate::{Class, Workload};

/// The end-to-end metrics of the JSON line (`--trace 0`), with units.
/// `recovery_s` is reported but not among them: its restarts all fall
/// in the last seconds of a run, so it moves with the box's speed at
/// that moment by more than the largest bound a metric may have.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_mean_us", "us"),
    ("latency_p95_us", "us"),
    ("stored_bytes_per_user_byte", "ratio"),
];

/// Cumulative counters of every layer, read before and after a phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    record_browser: u64,
    record_cdn: u64,
    record_origin: u64,
    query_browser: u64,
    query_cdn: u64,
    query_origin: u64,
    revalidations: u64,
    ebf_refreshes: u64,
    browser_evictions: u64,
    cdn_evictions: u64,
    cdn_purges: u64,
    server_queries: u64,
    server_writes: u64,
    record_invalidations: u64,
    query_invalidations: u64,
    capacity_rejections: u64,
    match_evaluations: u64,
    match_pruned: u64,
    index_probes: u64,
    range_scans: u64,
    full_scans: u64,
    topk_short_circuits: u64,
    net_requests: u64,
    wal_bytes: u64,
}

impl Counters {
    /// Read every counter of `stack`.
    pub fn take(stack: &Stack) -> Counters {
        let mut c = Counters::default();
        for client in &stack.clients {
            let m = client.metrics();
            c.record_browser += m.record_client_hits.load(Relaxed);
            c.record_cdn += m.record_cdn_hits.load(Relaxed);
            c.record_origin += m.record_origin.load(Relaxed);
            c.query_browser += m.query_client_hits.load(Relaxed);
            c.query_cdn += m.query_cdn_hits.load(Relaxed);
            c.query_origin += m.query_origin.load(Relaxed);
            c.revalidations += m.revalidations.load(Relaxed);
            c.ebf_refreshes += m.ebf_refreshes.load(Relaxed);
            c.browser_evictions += client.browser_cache().stats().evictions;
        }
        let cdn = stack.cdn.stats();
        c.cdn_evictions = cdn.evictions;
        c.cdn_purges = cdn.purges;
        let s = stack.origin.metrics();
        c.server_queries = s.query_reads.get();
        c.server_writes = s.writes.get();
        c.record_invalidations = s.record_invalidations.get();
        c.query_invalidations = s.query_invalidations.get();
        c.capacity_rejections = s.capacity_rejections.get();
        c.match_evaluations = s.match_evaluations.get();
        c.match_pruned = s.match_evaluations_pruned.get();
        c.index_probes = s.query_index_probes.get();
        c.range_scans = s.query_range_scans.get();
        c.full_scans = s.query_full_scans.get();
        c.topk_short_circuits = s.query_topk_short_circuits.get();
        c.net_requests = stack.net.requests_served();
        c.wal_bytes = dir_bytes(&stack.dir.join("wal"));
        c
    }

    /// Counter increase from `earlier` to `self`.
    pub fn minus(&self, e: &Counters) -> Counters {
        Counters {
            record_browser: self.record_browser - e.record_browser,
            record_cdn: self.record_cdn - e.record_cdn,
            record_origin: self.record_origin - e.record_origin,
            query_browser: self.query_browser - e.query_browser,
            query_cdn: self.query_cdn - e.query_cdn,
            query_origin: self.query_origin - e.query_origin,
            revalidations: self.revalidations - e.revalidations,
            ebf_refreshes: self.ebf_refreshes - e.ebf_refreshes,
            browser_evictions: self.browser_evictions - e.browser_evictions,
            cdn_evictions: self.cdn_evictions - e.cdn_evictions,
            cdn_purges: self.cdn_purges - e.cdn_purges,
            server_queries: self.server_queries - e.server_queries,
            server_writes: self.server_writes - e.server_writes,
            record_invalidations: self.record_invalidations - e.record_invalidations,
            query_invalidations: self.query_invalidations - e.query_invalidations,
            capacity_rejections: self.capacity_rejections - e.capacity_rejections,
            match_evaluations: self.match_evaluations - e.match_evaluations,
            match_pruned: self.match_pruned - e.match_pruned,
            index_probes: self.index_probes - e.index_probes,
            range_scans: self.range_scans - e.range_scans,
            full_scans: self.full_scans - e.full_scans,
            topk_short_circuits: self.topk_short_circuits - e.topk_short_circuits,
            net_requests: self.net_requests - e.net_requests,
            wal_bytes: self.wal_bytes.saturating_sub(e.wal_bytes),
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples (or events) the value summarizes.
    pub samples: u64,
}

/// One correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    /// Check name.
    pub name: &'static str,
    /// Whether it passed.
    pub passed: bool,
    /// What was checked.
    pub detail: String,
}

/// Inputs of the end-to-end metrics.
pub struct EndToEnd<'a> {
    /// Time of each complete set-up.
    pub setup_s: &'a [f64],
    /// Latency per class, µs.
    pub phase: &'a mut [Samples; 3],
    /// `(completed at s, latency µs)` of every successful operation.
    pub timeline: &'a mut Vec<(f64, f64)>,
    /// Operations attempted in the measured phase.
    pub ops: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Measured wall time.
    pub wall: f64,
    /// `(record reads, answered by the origin)`.
    pub reads: (u64, u64),
    /// `(queries, answered by the origin)`.
    pub queries: (u64, u64),
    /// Time of each restart.
    pub recovery_s: &'a [f64],
    /// Origin directory size after the run.
    pub stored_bytes: u64,
    /// Canonical bytes of every document written (dataset included).
    pub user_bytes: u64,
}

/// Inputs of the per-layer metrics.
pub struct PerLayer<'a> {
    /// Harvested span samples.
    pub trace: &'a mut TraceAcc,
    /// Counter increase over the traced phase.
    pub delta: Counters,
    /// Operations in the traced phase.
    pub ops: u64,
    /// Traced throughput.
    pub ops_per_s: f64,
    /// Untraced throughput of the same run.
    pub base_ops_per_s: f64,
    /// Bytes of the last EBF fetched.
    pub ebf_bytes: u64,
    /// The workload runs on a replicated primary.
    pub gated: bool,
}

/// Everything one invocation reports.
#[derive(Debug)]
pub struct Outcome {
    /// Workload run.
    pub workload: Workload,
    /// Traced run.
    pub trace: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// End-to-end metrics (every class that ran, plus the JSON set).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub per_layer: Vec<Metric>,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Self-time table lines (traced runs).
    pub budget: Vec<String>,
    /// Per-window values behind the windowed medians.
    pub windows: Vec<String>,
}

fn pct(s: &mut Samples, q: f64) -> f64 {
    s.percentile(q).unwrap_or(0.0)
}

impl Outcome {
    /// An empty outcome.
    pub fn new(workload: Workload, trace: bool) -> Outcome {
        Outcome {
            workload,
            trace,
            attempted: 0,
            failed: 0,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            checks: Vec::new(),
            budget: Vec::new(),
            windows: Vec::new(),
        }
    }

    /// Record a correctness check.
    pub fn check(&mut self, name: &'static str, passed: bool, detail: String) {
        self.checks.push(Check {
            name,
            passed,
            detail,
        });
    }

    /// Every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.passed)
    }

    fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.end_to_end.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    fn layer(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.per_layer.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Assemble the end-to-end metrics. Throughput and the overall
    /// latency figures are medians over windows of the measured phase,
    /// so a short burst of interference moves one window, not the run.
    pub fn end_to_end(&mut self, m: EndToEnd<'_>) {
        let n = m.timeline.len() as u64;
        let windowed = windowed(m.timeline, m.wall);
        let n_setups = m.setup_s.len() as u64;
        self.e2e("setup_s", median(m.setup_s), "s", n_setups);
        self.e2e("ops_per_s", windowed.ops_per_s, "1/s", m.ops);
        self.e2e("latency_mean_us", windowed.mean_us, "us", n);
        self.e2e("latency_p95_us", windowed.p95_us, "us", n);
        let repeats = [("setup_s", m.setup_s), ("recovery_s", m.recovery_s)];
        for (name, values) in ["ops_per_s", "latency_mean_us", "latency_p95_us"]
            .into_iter()
            .zip(windowed.windows.iter().map(Vec::as_slice))
            .chain(repeats)
        {
            let list: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
            self.windows
                .push(format!("windows {name} {}", list.join(" ")));
        }
        for class in Class::ALL {
            let s = &mut m.phase[class as usize];
            if s.is_empty() {
                continue;
            }
            let n = s.len() as u64;
            let (p50, p99) = (pct(s, 0.5), pct(s, 0.99));
            self.e2e(&format!("{}_p50_us", class.name()), p50, "us", n);
            self.e2e(&format!("{}_p99_us", class.name()), p99, "us", n);
        }
        let (reads, queries) = (m.reads.0 + m.queries.0, m.reads.1 + m.queries.1);
        if reads > 0 {
            self.e2e("origin_share", share(queries, reads), "ratio", reads);
        }
        self.e2e("error_share", share(m.failed, m.ops), "ratio", m.ops);
        let n_restarts = m.recovery_s.len() as u64;
        self.e2e("recovery_s", median(m.recovery_s), "s", n_restarts);
        self.e2e(
            "stored_bytes_per_user_byte",
            share(m.stored_bytes, m.user_bytes),
            "ratio",
            1,
        );
    }

    /// Assemble the per-layer metrics and the self-time table.
    pub fn per_layer(&mut self, p: PerLayer<'_>) {
        let t = p.trace;
        let d = p.delta;
        let ops = p.ops;
        let record_total = d.record_browser + d.record_cdn + d.record_origin;
        let query_total = d.query_browser + d.query_cdn + d.query_origin;
        for class in Class::ALL {
            let s = &mut t.sdk_self_us[class as usize];
            let n = s.len() as u64;
            let v = pct(s, 0.5);
            self.layer(&format!("client.sdk_self_us.{}", class.name()), v, "us", n);
        }
        self.layer(
            "client.revalidation_share",
            share(d.revalidations, record_total + query_total),
            "ratio",
            record_total + query_total,
        );
        self.layer("client.ebf_refreshes", d.ebf_refreshes as f64, "count", 1);
        let ebf = &mut t.rtt_us[3];
        let n = ebf.len() as u64;
        self.layer("bloom.ebf_fetch_us", pct(ebf, 0.5), "us", n);
        self.layer("bloom.ebf_bytes", p.ebf_bytes as f64, "bytes", n);
        for (name, hits, total) in [
            (
                "webcache.browser_hit_share.read",
                d.record_browser,
                record_total,
            ),
            (
                "webcache.browser_hit_share.query",
                d.query_browser,
                query_total,
            ),
            ("webcache.cdn_hit_share.read", d.record_cdn, record_total),
            ("webcache.cdn_hit_share.query", d.query_cdn, query_total),
        ] {
            self.layer(name, share(hits, total), "ratio", total);
        }
        self.layer("webcache.cdn_purges", d.cdn_purges as f64, "count", 1);
        self.layer(
            "webcache.evictions",
            (d.browser_evictions + d.cdn_evictions) as f64,
            "count",
            1,
        );
        for (k, kind) in RPC_KINDS.iter().enumerate() {
            let s = &mut t.rtt_us[k];
            let n = s.len() as u64;
            let (p50, p99) = (pct(s, 0.5), pct(s, 0.99));
            self.layer(&format!("net.rtt_us.{kind}.p50"), p50, "us", n);
            self.layer(&format!("net.rtt_us.{kind}.p99"), p99, "us", n);
        }
        let n = t.net_self_us.len() as u64;
        self.layer("net.self_us", pct(&mut t.net_self_us, 0.5), "us", n);
        self.layer(
            "net.requests_per_op",
            share(d.net_requests, ops),
            "ratio",
            ops,
        );
        for (k, name) in ["core.get_record_us", "core.query_us", "core.write_us"]
            .iter()
            .enumerate()
        {
            let s = &mut t.handler_us[k];
            let n = s.len() as u64;
            self.layer(name, pct(s, 0.5), "us", n);
        }
        for (name, count) in [
            ("core.capacity_rejections_per_op", d.capacity_rejections),
            ("core.record_invalidations_per_op", d.record_invalidations),
            ("core.query_invalidations_per_op", d.query_invalidations),
        ] {
            self.layer(name, share(count, ops), "ratio", ops);
        }
        let n = t.store_query_us.len() as u64;
        self.layer("store.query_us", pct(&mut t.store_query_us, 0.5), "us", n);
        let n = t.store_plan_us.len() as u64;
        self.layer("store.plan_us", pct(&mut t.store_plan_us, 0.5), "us", n);
        for (name, count) in [
            ("store.index_probes_per_query", d.index_probes),
            ("store.range_scans_per_query", d.range_scans),
            ("store.full_scans_per_query", d.full_scans),
            ("store.topk_short_circuits_per_query", d.topk_short_circuits),
        ] {
            self.layer(
                name,
                share(count, d.server_queries),
                "ratio",
                d.server_queries,
            );
        }
        self.layer(
            "invalidb.evaluations_per_write",
            share(d.match_evaluations, d.server_writes),
            "ratio",
            d.server_writes,
        );
        self.layer(
            "invalidb.pruned_share",
            share(d.match_pruned, d.match_pruned + d.match_evaluations),
            "ratio",
            d.match_pruned + d.match_evaluations,
        );
        let n = t.stage_us.len() as u64;
        self.layer("durability.stage_us", pct(&mut t.stage_us, 0.5), "us", n);
        let n = t.commit_us.len() as u64;
        self.layer("durability.commit_us", pct(&mut t.commit_us, 0.5), "us", n);
        self.layer(
            "durability.wal_bytes_per_write",
            share(d.wal_bytes, d.server_writes),
            "bytes",
            d.server_writes,
        );
        let n = t.gate_us.len() as u64;
        self.layer("repl.gate_us", pct(&mut t.gate_us, 0.5), "us", n);
        let ships = t.ship_us.len() as u64;
        self.layer("repl.ship_us", pct(&mut t.ship_us, 0.5), "us", ships);
        let writes = if p.gated { d.server_writes } else { 0 };
        self.layer("repl.writes_per_ship", share(writes, ships), "ratio", ships);
        let lag = quaestor_obs::registry().gauge("repl.lag_frames").get();
        self.layer("repl.lag_frames", lag as f64, "count", 1);
        self.layer(
            "obs.trace_overhead",
            if p.base_ops_per_s > 0.0 {
                p.ops_per_s / p.base_ops_per_s
            } else {
                0.0
            },
            "ratio",
            ops,
        );

        // The self-time budget per class.
        for class in Class::ALL {
            let c = class as usize;
            let mean = t.op_mean_us(class);
            let coverage = t.coverage(class);
            let name = class.name();
            let mut line = format!("budget {name:<5} traced_mean_us={mean:.2} n={}", t.ops[c]);
            for layer in Layer::ALL {
                let v = t.self_mean_us(class, layer);
                line.push_str(&format!(" {}={v:.2}", layer.name()));
                self.layer(
                    &format!("selftime.{name}.{}_us", layer.name()),
                    v,
                    "us",
                    t.harvested[c],
                );
            }
            line.push_str(&format!(" coverage={coverage:.3}"));
            self.budget.push(line);
            self.layer(
                &format!("selftime.{name}.traced_mean_us"),
                mean,
                "us",
                t.ops[c],
            );
            self.layer(
                &format!("selftime.{name}.coverage"),
                coverage,
                "ratio",
                t.ops[c],
            );
            if t.ops[c] > 0 {
                self.check(
                    "selftime_coverage",
                    coverage >= 0.9,
                    format!("{name}: layer self times cover {coverage:.3} of the traced mean"),
                );
                // Where the time goes: the layer with the largest share.
                let (top, v) = Layer::ALL
                    .iter()
                    .map(|l| (*l, t.self_mean_us(class, *l)))
                    .fold(
                        (Layer::Client, f64::MIN),
                        |a, b| if b.1 > a.1 { b } else { a },
                    );
                self.budget.push(format!(
                    "finding {name}: {} holds {:.1}% of the traced mean",
                    top.name(),
                    100.0 * share_f(v, mean)
                ));
            }
        }
    }

    /// The report: metric, check and budget lines, then the JSON line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let put = |out: &mut String, kind: &str, m: &Metric| {
            out.push_str(&format!(
                "{kind} {} {} {} n={}\n",
                m.name,
                num(m.value),
                m.unit,
                m.samples
            ));
        };
        // A traced run's end-to-end figures come from its traced half.
        let kind = if self.trace { "traced" } else { "metric" };
        for m in &self.end_to_end {
            put(&mut out, kind, m);
        }
        for m in &self.per_layer {
            put(&mut out, "layer", m);
        }
        for b in self.windows.iter().chain(&self.budget) {
            out.push_str(b);
            out.push('\n');
        }
        for c in &self.checks {
            out.push_str(&format!(
                "check {} {} {}\n",
                c.name,
                if c.passed { "pass" } else { "FAIL" },
                c.detail
            ));
        }
        out.push_str(&self.json());
        out.push('\n');
        out
    }

    /// The closing JSON object: the end-to-end set untraced, every
    /// per-layer metric traced.
    pub fn json(&self) -> String {
        let metrics: Vec<&Metric> = if self.trace {
            self.per_layer.iter().collect()
        } else {
            END_TO_END
                .iter()
                .filter_map(|(name, _)| self.end_to_end.iter().find(|m| m.name == *name))
                .collect()
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

/// Windowed medians of one measured phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Windowed {
    /// Median over equal time windows of completed operations per second.
    pub ops_per_s: f64,
    /// Median over equal-count windows of the mean latency.
    pub mean_us: f64,
    /// Median over equal-count windows of the 95th percentile.
    pub p95_us: f64,
    /// Per-window throughput, mean and 95th percentile.
    pub windows: [Vec<f64>; 3],
}

/// Time windows per measured phase.
const TIME_WINDOWS: usize = 20;
/// Fewest operations a latency window holds (so its 95th percentile
/// has at least fifty samples beyond it).
const MIN_WINDOW_OPS: usize = 1_000;

/// Split a phase of `wall` seconds into windows: [`TIME_WINDOWS`] equal
/// spans for throughput and up to as many equal runs of at least
/// [`MIN_WINDOW_OPS`] operations for latency, and take the medians.
pub fn windowed(timeline: &mut [(f64, f64)], wall: f64) -> Windowed {
    timeline.sort_by(|a, b| a.0.total_cmp(&b.0));
    let span = wall / TIME_WINDOWS as f64;
    let mut counts = [0u64; TIME_WINDOWS];
    for (at, _) in timeline.iter() {
        let w = ((at / span) as usize).min(TIME_WINDOWS - 1);
        counts[w] += 1;
    }
    let rates: Vec<f64> = counts.iter().map(|c| *c as f64 / span).collect();
    let chunks = (timeline.len() / MIN_WINDOW_OPS).clamp(1, TIME_WINDOWS);
    let per = timeline.len().div_ceil(chunks).max(1);
    let (mut means, mut p95s) = (Vec::new(), Vec::new());
    for chunk in timeline.chunks(per) {
        let mut s = Samples::new();
        for (_, us) in chunk {
            s.push(*us);
        }
        means.push(s.mean().unwrap_or(0.0));
        p95s.push(pct(&mut s, 0.95));
    }
    Windowed {
        ops_per_s: median(&rates),
        mean_us: median(&means),
        p95_us: median(&p95s),
        windows: [rates, means, p95s],
    }
}

fn share_f(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A JSON-safe number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_medians_ignore_one_slow_window() {
        // 20 one-second windows of 1000 ops at 10 µs, except one window
        // that completes only 100 ops, each at 500 µs.
        let mut timeline = Vec::new();
        for w in 0..20 {
            let (n, us) = if w == 7 { (100, 500.0) } else { (1000, 10.0) };
            for i in 0..n {
                timeline.push((w as f64 + i as f64 / n as f64, us));
            }
        }
        let got = windowed(&mut timeline, 20.0);
        assert_eq!(got.ops_per_s, 1000.0);
        assert_eq!(got.mean_us, 10.0);
        assert_eq!(got.p95_us, 10.0);
        assert_eq!(got.windows[0].len(), 20);
        assert_eq!(got.windows[1].len(), 19);
    }

    #[test]
    fn a_short_phase_is_one_latency_window() {
        let mut timeline: Vec<(f64, f64)> =
            (0..500).map(|i| (i as f64 / 100.0, i as f64)).collect();
        let got = windowed(&mut timeline, 5.0);
        assert_eq!(got.windows[1].len(), 1);
        assert_eq!(got.p95_us, 474.0);
    }
}
