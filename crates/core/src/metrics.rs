//! Server-side metrics.

use std::sync::atomic::Ordering;

use quaestor_obs::{Counter, Registry};

/// Counters for everything the evaluation section reports about server
/// behaviour.
///
/// Every field is a [`Counter`] handle registered on a per-server
/// [`Registry`] under a `server.*` name, so one `Request::Metrics` call
/// snapshots them alongside the service-layer series. [`Counter`]
/// carries the `AtomicU64` accessor shims (`load`/`store`/`fetch_add`),
/// so the pre-registry field API keeps working unchanged.
#[derive(Debug)]
pub struct ServerMetrics {
    /// Record reads answered by the origin (cache misses + revalidations).
    pub record_reads: Counter,
    /// Query evaluations answered by the origin.
    pub query_reads: Counter,
    /// Write operations processed.
    pub writes: Counter,
    /// Record invalidations added to the EBF.
    pub record_invalidations: Counter,
    /// Query invalidations (from InvaliDB notifications) added to the EBF.
    pub query_invalidations: Counter,
    /// Purges dispatched to invalidation-based caches.
    pub purges: Counter,
    /// EBF snapshots served to clients.
    pub ebf_snapshots: Counter,
    /// Queries rejected by the capacity manager (served uncacheable).
    pub capacity_rejections: Counter,
    /// Transactions committed.
    pub tx_commits: Counter,
    /// Transactions aborted at validation.
    pub tx_aborts: Counter,
    /// InvaliDB match evaluations actually performed (grid total).
    pub match_evaluations: Counter,
    /// InvaliDB candidate evaluations pruned by the predicate index; the
    /// pruning ratio is `pruned / (pruned + evaluations)`.
    pub match_evaluations_pruned: Counter,
    /// Queries the store's planner served via a hash-index probe.
    pub query_index_probes: Counter,
    /// Queries served via an ordered-index range scan.
    pub query_range_scans: Counter,
    /// Queries that fell back to the reference shard scan.
    pub query_full_scans: Counter,
    /// Queries whose sort was cut short (bounded top-k heap, or in-order
    /// index emission stopping at `offset + limit`).
    pub query_topk_short_circuits: Counter,
    /// Sum of planner-estimated result cardinalities over executed
    /// query plans (compare with `query_card_actual` to judge the cost
    /// model; the ratio seeds adaptive-TTL work).
    pub query_card_estimated: Counter,
    /// Sum of actual result cardinalities over the same executed plans.
    pub query_card_actual: Counter,
    /// InvaliDB registrations that (re)built a query's state from its
    /// initial result: new queries, and active ones a write raced.
    pub invalidb_registrations: Counter,
    /// Origin reads of an active query whose maintained state was
    /// current: no initial result evaluated, nothing rebuilt.
    pub invalidb_registrations_skipped: Counter,
    /// Registrations whose raced writes had partly fallen off the replay
    /// ring; each response was invalidated as stale.
    pub invalidb_replay_overruns: Counter,
    registry: Registry,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        let registry = Registry::new();
        ServerMetrics {
            record_reads: registry.counter("server.record_reads"),
            query_reads: registry.counter("server.query_reads"),
            writes: registry.counter("server.writes"),
            record_invalidations: registry.counter("server.record_invalidations"),
            query_invalidations: registry.counter("server.query_invalidations"),
            purges: registry.counter("server.purges"),
            ebf_snapshots: registry.counter("server.ebf_snapshots"),
            capacity_rejections: registry.counter("server.capacity_rejections"),
            tx_commits: registry.counter("server.tx_commits"),
            tx_aborts: registry.counter("server.tx_aborts"),
            match_evaluations: registry.counter("server.match_evaluations"),
            match_evaluations_pruned: registry.counter("server.match_evaluations_pruned"),
            query_index_probes: registry.counter("server.query_index_probes"),
            query_range_scans: registry.counter("server.query_range_scans"),
            query_full_scans: registry.counter("server.query_full_scans"),
            query_topk_short_circuits: registry.counter("server.query_topk_short_circuits"),
            query_card_estimated: registry.counter("server.query_card_estimated"),
            query_card_actual: registry.counter("server.query_card_actual"),
            invalidb_registrations: registry.counter("invalidb.registrations"),
            invalidb_registrations_skipped: registry.counter("invalidb.registrations_skipped"),
            invalidb_replay_overruns: registry.counter("invalidb.replay_overruns"),
            registry,
        }
    }
}

/// Bump a counter by one (relaxed: metrics tolerate reordering).
pub(crate) fn bump(counter: &Counter) {
    counter.inc();
}

impl ServerMetrics {
    /// Snapshot all counters as (name, value) pairs for reporting.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("record_reads", self.record_reads.get()),
            ("query_reads", self.query_reads.get()),
            ("writes", self.writes.get()),
            ("record_invalidations", self.record_invalidations.get()),
            ("query_invalidations", self.query_invalidations.get()),
            ("purges", self.purges.get()),
            ("ebf_snapshots", self.ebf_snapshots.get()),
            ("capacity_rejections", self.capacity_rejections.get()),
            ("tx_commits", self.tx_commits.get()),
            ("tx_aborts", self.tx_aborts.get()),
            ("match_evaluations", self.match_evaluations.get()),
            (
                "match_evaluations_pruned",
                self.match_evaluations_pruned.get(),
            ),
            ("query_index_probes", self.query_index_probes.get()),
            ("query_range_scans", self.query_range_scans.get()),
            ("query_full_scans", self.query_full_scans.get()),
            (
                "query_topk_short_circuits",
                self.query_topk_short_circuits.get(),
            ),
            ("query_card_estimated", self.query_card_estimated.get()),
            ("query_card_actual", self.query_card_actual.get()),
            ("invalidb_registrations", self.invalidb_registrations.get()),
            (
                "invalidb_registrations_skipped",
                self.invalidb_registrations_skipped.get(),
            ),
            (
                "invalidb_replay_overruns",
                self.invalidb_replay_overruns.get(),
            ),
        ]
    }

    /// The registry holding every `server.*` series of this instance.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Share of candidate matches the predicate index pruned, in `[0, 1]`.
    /// `0.0` when nothing was matched yet.
    pub fn match_pruning_ratio(&self) -> f64 {
        let done = self.match_evaluations.load(Ordering::Relaxed) as f64;
        let pruned = self.match_evaluations_pruned.load(Ordering::Relaxed) as f64;
        if done + pruned == 0.0 {
            0.0
        } else {
            pruned / (done + pruned)
        }
    }

    /// Total origin reads (records + queries) — the backend load a cache
    /// layer is supposed to absorb.
    pub fn origin_reads(&self) -> u64 {
        self.record_reads.load(Ordering::Relaxed) + self.query_reads.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_lists_all_counters() {
        let m = ServerMetrics::default();
        m.writes.fetch_add(3, Ordering::Relaxed);
        let snap = m.snapshot();
        assert_eq!(snap.len(), 21);
        assert!(snap.contains(&("writes", 3)));
        assert!(snap.contains(&("invalidb_registrations_skipped", 0)));
        assert!(snap.contains(&("query_full_scans", 0)));
        assert!(snap.contains(&("query_card_estimated", 0)));
        assert_eq!(m.origin_reads(), 0);
    }

    #[test]
    fn pruning_ratio_is_safe_and_correct() {
        let m = ServerMetrics::default();
        assert_eq!(m.match_pruning_ratio(), 0.0, "no division by zero");
        m.match_evaluations.store(10, Ordering::Relaxed);
        m.match_evaluations_pruned.store(90, Ordering::Relaxed);
        assert!((m.match_pruning_ratio() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn registry_snapshot_reflects_the_fields() {
        let m = ServerMetrics::default();
        m.writes.fetch_add(2, Ordering::Relaxed);
        m.query_card_estimated.add(10);
        m.query_card_actual.add(8);
        let snap = m.registry().snapshot();
        assert_eq!(snap.counter("server.writes"), Some(2));
        assert_eq!(snap.counter("server.query_card_estimated"), Some(10));
        assert_eq!(snap.counter("server.query_card_actual"), Some(8));
    }
}
