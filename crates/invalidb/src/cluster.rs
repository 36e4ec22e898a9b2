//! The partitioned matching grid (Figure 6) with ingestion semantics.

use std::sync::Arc;

use parking_lot::Mutex;
use quaestor_common::{fx_hash_str, Error, FxHashMap, Result};
use quaestor_document::Document;
use quaestor_query::{Query, QueryKey};
use quaestor_store::WriteEvent;

use crate::event::Notification;
use crate::matching::MatchingNode;
use crate::sorted::SortedQueryState;

/// Cluster geometry and limits.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of query partitions (grid columns).
    pub query_partitions: usize,
    /// Number of object partitions (grid rows).
    pub object_partitions: usize,
    /// Maximum number of registered queries (the capacity constraint the
    /// admission model manages against).
    pub max_queries: usize,
    /// Size of the replay ring buffer used to close the activation race.
    pub replay_buffer: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            query_partitions: 2,
            object_partitions: 2,
            max_queries: 100_000,
            replay_buffer: 256,
        }
    }
}

/// The InvaliDB cluster: a `query_partitions × object_partitions` grid of
/// [`MatchingNode`]s plus the sorted-query layer.
///
/// This is the **inline** deployment: `on_write` synchronously routes the
/// event to the grid row owning the record and collects notifications from
/// every query-partition column — deterministic and single-threaded, as
/// the simulator requires. [`crate::ThreadedPipeline`] wraps the same grid
/// in real threads for the Figure 12 benchmark.
pub struct InvaliDbCluster {
    config: ClusterConfig,
    /// grid[row][col] — row = object partition, col = query partition.
    grid: Vec<Vec<Mutex<MatchingNode>>>,
    /// Sorted-query layer, partitioned by query.
    sorted: Vec<Mutex<FxHashMap<QueryKey, SortedQueryState>>>,
    /// Per object partition (grid row): the newest write sequence
    /// ingested for each record. Held across the whole ingest of an event
    /// (see [`on_write`](InvaliDbCluster::on_write)).
    latest: Vec<Mutex<LatestSeq>>,
    /// Recent events for registration replay.
    replay: Mutex<ReplayRing>,
    /// Monotonic ingest counter; `ingest_mark()` lets callers bound what
    /// a later registration must replay.
    ingest_seq: std::sync::atomic::AtomicU64,
    registered: Mutex<FxHashMap<QueryKey, Active>>,
}

/// Bookkeeping for one registered query.
struct Active {
    /// Lives in the sorted layer rather than the grid.
    stateful: bool,
    /// False while the state is being installed, and after an install
    /// whose replay overran the ring (its state may lack a raced write):
    /// only a complete state may be reused without a rebuild.
    complete: bool,
}

/// Newest ingested write sequence per `table → record id`.
///
/// Writes are applied to the store under the record's shard lock, but
/// ingested after that lock is released (and after the group-commit
/// fsync), so two concurrent writes to one record can arrive in the
/// reverse of their apply order. The table's write sequence number is
/// assigned under the shard lock, so it gives the apply order back.
#[derive(Default)]
struct LatestSeq(FxHashMap<Arc<str>, FxHashMap<Arc<str>, u64>>);

impl LatestSeq {
    /// Record `event` and report whether a newer write to its record was
    /// already ingested.
    fn superseded(&mut self, event: &WriteEvent) -> bool {
        let ids = match self.0.get_mut(event.table.as_ref()) {
            Some(ids) => ids,
            None => self.0.entry(event.table.clone()).or_default(),
        };
        match ids.get_mut(event.id.as_ref()) {
            Some(latest) if *latest > event.seq => true,
            Some(latest) => {
                *latest = event.seq;
                false
            }
            None => {
                ids.insert(event.id.clone(), event.seq);
                false
            }
        }
    }
}

/// The bounded log of recent events a registration replays.
#[derive(Default)]
struct ReplayRing {
    /// Events tagged with their ingest sequence number and whether a newer
    /// write to the same record had already been ingested, in push order
    /// (concurrent ingests may push slightly out of sequence order).
    events: std::collections::VecDeque<(u64, WriteEvent, bool)>,
    /// Highest sequence number pushed off the ring. A registration whose
    /// mark is below it cannot replay everything that raced it.
    evicted_through: u64,
}

/// What [`InvaliDbCluster::register_query`] did.
#[derive(Debug, PartialEq)]
pub enum Registration {
    /// The query was already active and nothing was ingested since the
    /// caller's mark: its maintained state is current, so nothing was
    /// evaluated, rebuilt or replayed.
    Current,
    /// The query's state was (re)built from the initial result.
    Installed {
        /// Notifications for writes that raced the initial evaluation;
        /// they must invalidate immediately.
        replayed: Vec<Notification>,
        /// Some writes that raced the evaluation had already fallen off
        /// the replay ring, so `replayed` is incomplete: the caller must
        /// treat the initial result as stale.
        overrun: bool,
    },
}

impl std::fmt::Debug for InvaliDbCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InvaliDbCluster")
            .field("config", &self.config)
            .field("queries", &self.registered.lock().len())
            .finish()
    }
}

impl InvaliDbCluster {
    /// Build a cluster with the given geometry.
    pub fn new(config: ClusterConfig) -> InvaliDbCluster {
        assert!(config.query_partitions > 0 && config.object_partitions > 0);
        InvaliDbCluster {
            config,
            grid: (0..config.object_partitions)
                .map(|_| {
                    (0..config.query_partitions)
                        .map(|_| Mutex::new(MatchingNode::new()))
                        .collect()
                })
                .collect(),
            sorted: (0..config.query_partitions)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            latest: (0..config.object_partitions)
                .map(|_| Mutex::new(LatestSeq::default()))
                .collect(),
            replay: Mutex::new(ReplayRing::default()),
            ingest_seq: std::sync::atomic::AtomicU64::new(0),
            registered: Mutex::new(FxHashMap::default()),
        }
    }

    /// Current ingest watermark. Capture this **before** evaluating a
    /// query's initial result; pass it to [`register_query`] so only
    /// events that raced the evaluation are replayed.
    ///
    /// [`register_query`]: InvaliDbCluster::register_query
    pub fn ingest_mark(&self) -> u64 {
        self.ingest_seq.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Geometry.
    pub fn config(&self) -> ClusterConfig {
        self.config
    }

    fn query_partition(&self, key: &QueryKey) -> usize {
        (key.stable_hash() % self.config.query_partitions as u64) as usize
    }

    fn object_partition(&self, id: &str) -> usize {
        (fx_hash_str(id) % self.config.object_partitions as u64) as usize
    }

    /// Number of registered queries.
    pub fn query_count(&self) -> usize {
        self.registered.lock().len()
    }

    /// Register a query for invalidation detection.
    ///
    /// "Every new query is initially evaluated on Quaestor and then sent
    /// to InvaliDB together with the initial result set. To rule out the
    /// possibility of missing updates in the timeframe between the initial
    /// query evaluation and the successful query activation, all recently
    /// received objects are replayed for a query when it is installed."
    ///
    /// Only a *new* query needs its initial result, so it is passed as a
    /// closure. When `query` is already registered with a complete state
    /// and nothing has been ingested since `replay_from`, the maintained
    /// state is what a rebuild would produce (every ingested write is
    /// reflected at its record's newest image, whatever order concurrent
    /// writes arrived in): the call returns [`Registration::Current`]
    /// without calling `initial_result`. Any other call evaluates it,
    /// (re)builds the query's state and replays the events ingested after
    /// `replay_from`; the replayed notifications represent changes that
    /// raced the activation.
    pub fn register_query(
        &self,
        query: &Query,
        initial_result: impl FnOnce() -> Result<Vec<Arc<Document>>>,
        replay_from: u64,
    ) -> Result<Registration> {
        let key = QueryKey::of(query);
        let complete = self.registered.lock().get(&key).is_some_and(|a| a.complete);
        if complete && self.ingest_mark() == replay_from {
            return Ok(Registration::Current);
        }
        let initial_result = initial_result()?;
        let stateful = query.is_stateful();
        {
            let mut reg = self.registered.lock();
            if reg.len() >= self.config.max_queries && !reg.contains_key(&key) {
                return Err(Error::Capacity(format!(
                    "InvaliDB at its {}-query capacity",
                    self.config.max_queries
                )));
            }
            let active = Active {
                stateful,
                complete: false,
            };
            reg.insert(key.clone(), active);
        }
        let col = self.query_partition(&key);
        let mut replayed = Vec::new();
        let overrun = if stateful {
            // Stateful queries live in the by-query sorted layer. NOTE:
            // the initial result for stateful queries must be the FULL
            // matching set (unwindowed) for offset bookkeeping.
            let mut layer = self.sorted[col].lock();
            let mut state = SortedQueryState::new(query.clone(), key.clone(), initial_result);
            let overrun = self.replay_after(replay_from, |ev, superseded| {
                replayed.extend(state.ingest(ev, superseded))
            });
            layer.insert(key.clone(), state);
            overrun
        } else {
            // Stateless: split the initial ids across the object rows.
            let ids: Vec<Arc<str>> = initial_result
                .iter()
                .filter_map(|d| d.get("_id").and_then(|v| v.as_str()).map(Arc::from))
                .collect();
            for (row, grid_row) in self.grid.iter().enumerate() {
                let row_ids: Vec<Arc<str>> = ids
                    .iter()
                    .filter(|id| self.object_partition(id) == row)
                    .cloned()
                    .collect();
                grid_row[col]
                    .lock()
                    .register(query.clone(), key.clone(), row_ids);
            }
            self.replay_after(replay_from, |ev, superseded| {
                let row = self.object_partition(&ev.id);
                replayed.extend(self.grid[row][col].lock().ingest(ev, superseded));
            })
        };
        // An overrun state may lack a raced write, so it is not reused:
        // the next registration rebuilds it.
        if let Some(active) = self.registered.lock().get_mut(&key) {
            active.complete = !overrun;
        }
        Ok(Registration::Installed { replayed, overrun })
    }

    /// Feed every retained event ingested after `mark` to `apply`, in
    /// ring order, with its superseded flag. Returns `true` if some event
    /// after `mark` had already been pushed off the ring, i.e. the replay
    /// is incomplete.
    fn replay_after(&self, mark: u64, mut apply: impl FnMut(&WriteEvent, bool)) -> bool {
        let ring = self.replay.lock();
        for (seq, ev, superseded) in &ring.events {
            if *seq > mark {
                apply(ev, *superseded);
            }
        }
        ring.evicted_through > mark
    }

    /// Deactivate a query.
    pub fn deregister_query(&self, key: &QueryKey) -> bool {
        let Some(active) = self.registered.lock().remove(key) else {
            return false;
        };
        let col = self.query_partition(key);
        if active.stateful {
            self.sorted[col].lock().remove(key).is_some()
        } else {
            let mut any = false;
            for row in &self.grid {
                any |= row[col].lock().deregister(key);
            }
            any
        }
    }

    /// Ingest one write event; returns all notifications it caused.
    ///
    /// A write that arrives after a newer write to the same record (by
    /// the table's write sequence) is *superseded*: it changes no state,
    /// so every query's state settles at the record's newest image, but
    /// it still notifies every query whose result would differ between
    /// the two images. The row's [`LatestSeq`] lock is held across the
    /// whole ingest, so a record's writes are checked, logged for replay
    /// and applied in one order.
    pub fn on_write(&self, event: &WriteEvent) -> Vec<Notification> {
        let row = self.object_partition(&event.id);
        let mut latest = self.latest[row].lock();
        let superseded = latest.superseded(event);
        // Record for replay.
        let seq = self
            .ingest_seq
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst)
            + 1;
        {
            let mut ring = self.replay.lock();
            ring.events.push_back((seq, event.clone(), superseded));
            while ring.events.len() > self.config.replay_buffer {
                if let Some((evicted, _, _)) = ring.events.pop_front() {
                    ring.evicted_through = ring.evicted_through.max(evicted);
                }
            }
        }
        let mut out = Vec::new();
        // Stateless grid: only the owning object row matches, across all
        // query columns.
        for cell in &self.grid[row] {
            out.extend(cell.lock().ingest(event, superseded));
        }
        // Sorted layer: partitioned by query, so every partition sees the
        // event (each holds different queries).
        for part in &self.sorted {
            let mut part = part.lock();
            for state in part.values_mut() {
                out.extend(state.ingest(event, superseded));
            }
        }
        drop(latest);
        out
    }

    /// Total match evaluations across the grid (Figure 12's ops measure).
    pub fn total_evaluations(&self) -> u64 {
        self.grid
            .iter()
            .flatten()
            .map(|n| n.lock().evaluations())
            .sum()
    }

    /// Total candidate evaluations the predicate index pruned across the
    /// grid; `total_evaluations + total_evaluations_skipped` is what a
    /// linear scan would have cost.
    pub fn total_evaluations_skipped(&self) -> u64 {
        self.grid
            .iter()
            .flatten()
            .map(|n| n.lock().evaluations_skipped())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NotificationEvent;
    use crate::matching::write_event;
    use proptest::prelude::*;
    use quaestor_document::{doc, Value};
    use quaestor_query::{Filter, Order};
    use quaestor_store::WriteKind;

    fn post(id: &str, tags: &[&str], score: i64) -> Document {
        let mut d = doc! { "_id" => id, "score" => score };
        d.insert(
            "tags".into(),
            Value::Array(tags.iter().map(|t| Value::str(*t)).collect()),
        );
        d
    }

    fn cluster(q: usize, o: usize) -> InvaliDbCluster {
        InvaliDbCluster::new(ClusterConfig {
            query_partitions: q,
            object_partitions: o,
            max_queries: 64,
            replay_buffer: 16,
        })
    }

    #[test]
    fn add_notification_through_grid() {
        let c = cluster(3, 3);
        let q = Query::table("posts").filter(Filter::contains("tags", "example"));
        let key = QueryKey::of(&q);
        c.register_query(&q, || Ok(vec![]), c.ingest_mark())
            .unwrap();
        let n = c.on_write(&write_event(
            "posts",
            "p1",
            WriteKind::Insert,
            post("p1", &["example"], 1),
            1,
        ));
        assert_eq!(n.len(), 1);
        assert_eq!(n[0].query, key);
        assert_eq!(n[0].event, NotificationEvent::Add);
    }

    #[test]
    fn partitioning_never_loses_notifications() {
        // The same workload must produce the same notification multiset
        // for any grid geometry.
        let workloads: Vec<WriteEvent> = (0..50)
            .map(|i| {
                let id = format!("p{}", i % 10);
                let tags: &[&str] = if i % 3 == 0 { &["example"] } else { &["other"] };
                write_event(
                    "posts",
                    &id,
                    WriteKind::Update,
                    post(&id, tags, i),
                    i as u64,
                )
            })
            .collect();
        let mut baselines: Option<Vec<(String, String)>> = None;
        for (qp, op) in [(1, 1), (2, 3), (4, 4)] {
            let c = cluster(qp, op);
            // Seed records first so updates have prior state.
            let q = Query::table("posts").filter(Filter::contains("tags", "example"));
            c.register_query(&q, || Ok(vec![]), c.ingest_mark())
                .unwrap();
            let mut got: Vec<(String, String)> = Vec::new();
            for ev in &workloads {
                for n in c.on_write(ev) {
                    got.push((n.record_id.to_string(), format!("{:?}", n.event)));
                }
            }
            got.sort();
            match &baselines {
                None => baselines = Some(got),
                Some(base) => {
                    assert_eq!(base, &got, "grid {qp}x{op} diverged from the 1x1 baseline")
                }
            }
        }
    }

    #[test]
    fn initial_result_split_across_rows() {
        let c = cluster(2, 4);
        let q = Query::table("posts").filter(Filter::contains("tags", "t"));
        let initial: Vec<Arc<Document>> = (0..20)
            .map(|i| Arc::new(post(&format!("p{i}"), &["t"], i)))
            .collect();
        c.register_query(&q, || Ok(initial), c.ingest_mark())
            .unwrap();
        // Removing any of the seeded records must notify Remove.
        let n = c.on_write(&write_event(
            "posts",
            "p7",
            WriteKind::Update,
            post("p7", &[], 7),
            100,
        ));
        assert_eq!(n.len(), 1);
        assert_eq!(n[0].event, NotificationEvent::Remove);
    }

    #[test]
    fn replay_closes_activation_race() {
        let c = cluster(2, 2);
        // A write arrives BEFORE the query is registered (initial result
        // was computed before this write - the race).
        c.on_write(&write_event(
            "posts",
            "p1",
            WriteKind::Insert,
            post("p1", &["example"], 1),
            1,
        ));
        let q = Query::table("posts").filter(Filter::contains("tags", "example"));
        // Initial result predates the insert: empty.
        let Registration::Installed { replayed, overrun } =
            c.register_query(&q, || Ok(vec![]), 0).unwrap()
        else {
            panic!("a new query is installed");
        };
        assert_eq!(replayed.len(), 1, "the raced write is replayed");
        assert_eq!(replayed[0].event, NotificationEvent::Add);
        assert!(!overrun);
    }

    #[test]
    fn capacity_limit_enforced() {
        let c = InvaliDbCluster::new(ClusterConfig {
            query_partitions: 1,
            object_partitions: 1,
            max_queries: 2,
            replay_buffer: 4,
        });
        for i in 0..2 {
            let q = Query::table("t").filter(Filter::eq("n", i));
            c.register_query(&q, || Ok(vec![]), c.ingest_mark())
                .unwrap();
        }
        let q3 = Query::table("t").filter(Filter::eq("n", 99));
        assert!(matches!(
            c.register_query(&q3, || Ok(vec![]), c.ingest_mark()),
            Err(Error::Capacity(_))
        ));
        assert_eq!(c.query_count(), 2);
    }

    #[test]
    fn stateful_queries_route_to_sorted_layer() {
        let c = cluster(2, 2);
        let q = Query::table("posts")
            .filter(Filter::True)
            .sort_by("score", Order::Desc)
            .limit(1);
        let key = QueryKey::of(&q);
        let mark = c.ingest_mark();
        c.register_query(
            &q,
            || {
                Ok(vec![
                    Arc::new(post("a", &[], 10)),
                    Arc::new(post("b", &[], 5)),
                ])
            },
            mark,
        )
        .unwrap();
        // New leader: b->20 overtakes a.
        let n = c.on_write(&write_event(
            "posts",
            "b",
            WriteKind::Update,
            post("b", &[], 20),
            1,
        ));
        assert!(n.iter().any(|x| x.query == key
            && x.record_id.as_ref() == "b"
            && x.event == NotificationEvent::Add));
        assert!(n
            .iter()
            .any(|x| x.record_id.as_ref() == "a" && x.event == NotificationEvent::Remove));
        assert!(c.deregister_query(&key));
        assert!(!c.deregister_query(&key));
    }

    #[test]
    fn deregistered_queries_stay_silent() {
        let c = cluster(2, 2);
        let q = Query::table("posts").filter(Filter::contains("tags", "x"));
        let key = QueryKey::of(&q);
        c.register_query(&q, || Ok(vec![]), c.ingest_mark())
            .unwrap();
        c.deregister_query(&key);
        let n = c.on_write(&write_event(
            "posts",
            "p1",
            WriteKind::Insert,
            post("p1", &["x"], 1),
            1,
        ));
        assert!(n.is_empty());
    }

    #[test]
    fn evaluations_counted_once_per_owning_row() {
        let c = cluster(1, 4);
        let q = Query::table("posts").filter(Filter::contains("tags", "x"));
        c.register_query(&q, || Ok(vec![]), c.ingest_mark())
            .unwrap();
        for i in 0..40 {
            c.on_write(&write_event(
                "posts",
                &format!("p{i}"),
                WriteKind::Insert,
                post(&format!("p{i}"), &["x"], i),
                i as u64,
            ));
        }
        // Each write is matched exactly once (by its owning row).
        assert_eq!(c.total_evaluations(), 40);
    }

    /// What InvaliDB currently maintains for `key`: the sorted window's
    /// ids, or the stateless query's matching ids (sorted).
    fn maintained_ids(c: &InvaliDbCluster, key: &QueryKey) -> Vec<String> {
        let col = c.query_partition(key);
        if let Some(state) = c.sorted[col].lock().get(key) {
            return state.window_ids();
        }
        let mut ids: Vec<String> = c
            .grid
            .iter()
            .flat_map(|row| row[col].lock().matching_ids(key).unwrap_or_default())
            .collect();
        ids.sort();
        ids
    }

    fn top2() -> Query {
        Query::table("posts")
            .filter(Filter::True)
            .sort_by("score", Order::Desc)
            .limit(2)
    }

    #[test]
    fn current_registration_skips_evaluation_and_rebuild() {
        let c = cluster(2, 2);
        let q = top2();
        let key = QueryKey::of(&q);
        let seed = || {
            Ok(vec![
                Arc::new(post("a", &[], 10)),
                Arc::new(post("b", &[], 5)),
            ])
        };
        assert!(matches!(
            c.register_query(&q, seed, c.ingest_mark()).unwrap(),
            Registration::Installed { .. }
        ));
        // The maintained window moves with a write...
        c.on_write(&write_event(
            "posts",
            "c",
            WriteKind::Insert,
            post("c", &[], 7),
            1,
        ));
        assert_eq!(maintained_ids(&c, &key), vec!["a", "c"]);
        // ...and a re-registration at the current mark neither evaluates
        // the initial result nor rebuilds from it.
        let outcome = c
            .register_query(
                &q,
                || panic!("an active query is not re-evaluated"),
                c.ingest_mark(),
            )
            .unwrap();
        assert_eq!(outcome, Registration::Current);
        assert_eq!(maintained_ids(&c, &key), vec!["a", "c"]);
        assert_eq!(c.query_count(), 1);
    }

    #[test]
    fn stale_mark_reinstalls_and_replays_the_raced_write() {
        let c = cluster(2, 2);
        let q = Query::table("posts").filter(Filter::contains("tags", "x"));
        let key = QueryKey::of(&q);
        c.register_query(&q, || Ok(vec![]), c.ingest_mark())
            .unwrap();
        // The caller took its mark, then a write was ingested before it
        // registered: the fast path must not apply.
        let mark = c.ingest_mark();
        c.on_write(&write_event(
            "posts",
            "p1",
            WriteKind::Insert,
            post("p1", &["x"], 1),
            1,
        ));
        let mut evaluated = false;
        let outcome = c
            .register_query(
                &q,
                || {
                    evaluated = true;
                    Ok(vec![])
                },
                mark,
            )
            .unwrap();
        assert!(evaluated, "a raced registration re-evaluates");
        let Registration::Installed { replayed, overrun } = outcome else {
            panic!("a raced registration is installed");
        };
        assert!(!overrun);
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].query, key);
        assert_eq!(replayed[0].event, NotificationEvent::Add);
        assert_eq!(maintained_ids(&c, &key), vec!["p1"]);
    }

    #[test]
    fn replay_ring_overrun_is_reported() {
        let c = InvaliDbCluster::new(ClusterConfig {
            query_partitions: 1,
            object_partitions: 1,
            max_queries: 4,
            replay_buffer: 3,
        });
        let q = Query::table("posts").filter(Filter::contains("tags", "x"));
        let write = |i: u64| {
            let id = format!("p{i}");
            c.on_write(&write_event(
                "posts",
                &id,
                WriteKind::Insert,
                post(&id, &["x"], i as i64),
                i,
            ));
        };
        // Exactly as many raced writes as the ring holds: all replayed.
        let mark = c.ingest_mark();
        (1..=3).for_each(write);
        let outcome = c.register_query(&q, || Ok(vec![]), mark).unwrap();
        let Registration::Installed { replayed, overrun } = outcome else {
            panic!("a new query is installed");
        };
        assert_eq!((replayed.len(), overrun), (3, false));
        // One more than it holds: the oldest fell off, so the replay is
        // incomplete and must be reported as such.
        let mark = c.ingest_mark();
        (4..=7).for_each(write);
        let outcome = c.register_query(&q, || Ok(vec![]), mark).unwrap();
        let Registration::Installed { replayed, overrun } = outcome else {
            panic!("a raced registration is installed");
        };
        assert_eq!((replayed.len(), overrun), (3, true));
        // The overrun state may lack a raced write, so it is never
        // reused: the next registration rebuilds even at the current mark.
        let mut evaluated = false;
        let outcome = c
            .register_query(
                &q,
                || {
                    evaluated = true;
                    Ok(vec![])
                },
                c.ingest_mark(),
            )
            .unwrap();
        assert!(evaluated, "an overrun state is rebuilt");
        assert_eq!(
            outcome,
            Registration::Installed {
                replayed: vec![],
                overrun: false
            }
        );
        assert_eq!(
            c.register_query(&q, || panic!("now complete"), c.ingest_mark())
                .unwrap(),
            Registration::Current
        );
    }

    /// Two concurrent writes to one record can be ingested in the reverse
    /// of their apply order. The older one must not overwrite the newer
    /// image in the maintained state, or a reused registration would miss
    /// the record's next change.
    #[test]
    fn superseded_write_keeps_the_newest_image() {
        let c = cluster(2, 2);
        let stateless = Query::table("posts").filter(Filter::contains("tags", "x"));
        let sorted = Query::table("posts")
            .filter(Filter::contains("tags", "x"))
            .sort_by("score", Order::Desc)
            .limit(2);
        let r = |tags: &[&str], seq: u64| {
            write_event("posts", "r", WriteKind::Update, post("r", tags, 5), seq)
        };
        for q in [&stateless, &sorted] {
            let seed = || Ok(vec![Arc::new(post("r", &["x"], 5))]);
            c.register_query(q, seed, c.ingest_mark()).unwrap();
        }
        let keys = [QueryKey::of(&stateless), QueryKey::of(&sorted)];
        // Applied as seq 2 (r leaves) then seq 3 (r is back), ingested as
        // 3 then 2.
        c.on_write(&r(&["x"], 3));
        let late = c.on_write(&r(&[], 2));
        // A result evaluated between the two writes lacks r, so the late
        // write still notifies, but the state keeps r.
        for key in &keys {
            assert!(late
                .iter()
                .any(|n| &n.query == key && n.event == NotificationEvent::Remove));
            assert_eq!(maintained_ids(&c, key), vec!["r"]);
        }
        for q in [&stateless, &sorted] {
            assert_eq!(
                c.register_query(q, || panic!("state is current"), c.ingest_mark())
                    .unwrap(),
                Registration::Current
            );
        }
        // The next write that really drops r is a Remove for both.
        let next = c.on_write(&r(&[], 4));
        for key in &keys {
            assert!(next
                .iter()
                .any(|n| &n.query == key && n.event == NotificationEvent::Remove));
            assert!(maintained_ids(&c, key).is_empty());
        }
    }

    /// A superseded write in the replay ring is replayed as superseded:
    /// a query installed after both writes keeps the newest image.
    #[test]
    fn replay_keeps_the_newest_image_of_reordered_writes() {
        let c = cluster(1, 1);
        let q = Query::table("posts").filter(Filter::contains("tags", "x"));
        let mark = c.ingest_mark();
        c.on_write(&write_event(
            "posts",
            "r",
            WriteKind::Update,
            post("r", &["x"], 1),
            3,
        ));
        c.on_write(&write_event(
            "posts",
            "r",
            WriteKind::Update,
            post("r", &[], 1),
            2,
        ));
        // The evaluation saw the newest image (r matches).
        let seed = || Ok(vec![Arc::new(post("r", &["x"], 1))]);
        c.register_query(&q, seed, mark).unwrap();
        assert_eq!(maintained_ids(&c, &QueryKey::of(&q)), vec!["r"]);
    }

    /// One write against the differential test's table.
    #[derive(Debug, Clone)]
    enum TableOp {
        /// Insert or replace record `slot` with this kind and score.
        Put(usize, bool, i64),
        Delete(usize),
    }

    fn arb_table_op() -> impl Strategy<Value = TableOp> {
        prop_oneof![
            (0usize..10, any::<bool>(), 0i64..8)
                .prop_map(|(slot, a, score)| TableOp::Put(slot, a, score)),
            (0usize..10).prop_map(TableOp::Delete),
        ]
    }

    fn differential_queries() -> Vec<Query> {
        vec![
            // Sorted windows: records move into and out of them as
            // scores change.
            Query::table("t")
                .filter(Filter::eq("kind", "a"))
                .sort_by("score", Order::Desc)
                .limit(3),
            Query::table("t")
                .filter(Filter::True)
                .sort_by("score", Order::Asc)
                .offset(2)
                .limit(3),
            // Stateless membership.
            Query::table("t").filter(Filter::gt("score", 4)),
            Query::table("t").filter(Filter::eq("kind", "b")),
        ]
    }

    /// Register `q` with its initial result drawn from the reference scan
    /// (unwindowed for stateful queries, as the origin does).
    fn register_from_scan(c: &InvaliDbCluster, table: &quaestor_store::Table, q: &Query) {
        let mut seed = q.clone();
        seed.limit = None;
        seed.offset = 0;
        c.register_query(q, || Ok(table.scan_query(&seed)), c.ingest_mark())
            .unwrap();
    }

    /// Apply `op` to the differential test's table; the write's event,
    /// or `None` for a delete of a missing record.
    fn apply_table_op(table: &quaestor_store::Table, op: &TableOp) -> Option<WriteEvent> {
        match *op {
            TableOp::Put(slot, a, score) => {
                let id = format!("r{slot}");
                let d = doc! { "kind" => if a { "a" } else { "b" }, "score" => score };
                Some(if table.get(&id).is_some() {
                    table.replace(&id, d, None).unwrap()
                } else {
                    table.insert(&id, d).unwrap()
                })
            }
            TableOp::Delete(slot) => table.delete(&format!("r{slot}"), None).ok(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Registration no longer rebuilds an active query's state on
        /// every origin read, so the incrementally maintained state is
        /// all there is: after every write it must equal a fresh
        /// registration seeded from the reference scan.
        #[test]
        fn maintained_state_equals_fresh_registration(
            seed_ops in proptest::collection::vec(arb_table_op(), 0..8),
            ops in proptest::collection::vec(arb_table_op(), 1..40),
        ) {
            let db = quaestor_store::Database::new();
            let table = db.create_table("t");
            let apply = |op: &TableOp| apply_table_op(&table, op);
            seed_ops.iter().for_each(|op| { apply(op); });
            let queries = differential_queries();
            let c = cluster(2, 3);
            for q in &queries {
                register_from_scan(&c, &table, q);
            }
            for op in &ops {
                let Some(event) = apply(op) else { continue };
                c.on_write(&event);
                let fresh = cluster(2, 3);
                for q in &queries {
                    register_from_scan(&fresh, &table, q);
                    let key = QueryKey::of(q);
                    prop_assert_eq!(
                        maintained_ids(&c, &key),
                        maintained_ids(&fresh, &key),
                        "{:?} drifted after {:?}", q, op
                    );
                    prop_assert_eq!(
                        c.register_query(q, || panic!("current state is reused"), c.ingest_mark())
                            .unwrap(),
                        Registration::Current
                    );
                }
            }
        }

        /// Concurrent writes reach InvaliDB in any order (ingest runs
        /// after the store's shard lock is released). Once every write
        /// is ingested, the maintained state must still equal a fresh
        /// registration, and be reused as current.
        #[test]
        fn reordered_ingest_converges_to_fresh_registration(
            ops in proptest::collection::vec((arb_table_op(), 0usize..4), 1..40),
        ) {
            let db = quaestor_store::Database::new();
            let table = db.create_table("t");
            let queries = differential_queries();
            let c = cluster(2, 3);
            for q in &queries {
                register_from_scan(&c, &table, q);
            }
            // Write i is ingested at step i + delay; writes released at
            // the same step arrive newest first.
            let mut events: Vec<(usize, usize, WriteEvent)> = ops
                .iter()
                .enumerate()
                .filter_map(|(i, (op, delay))| {
                    apply_table_op(&table, op).map(|e| (i + delay, usize::MAX - i, e))
                })
                .collect();
            events.sort_by_key(|(step, newest_first, _)| (*step, *newest_first));
            for (_, _, event) in &events {
                c.on_write(event);
            }
            let fresh = cluster(2, 3);
            for q in &queries {
                register_from_scan(&fresh, &table, q);
                let key = QueryKey::of(q);
                prop_assert_eq!(
                    maintained_ids(&c, &key),
                    maintained_ids(&fresh, &key),
                    "{:?} drifted under reordered ingest", q
                );
                prop_assert_eq!(
                    c.register_query(q, || panic!("current state is reused"), c.ingest_mark())
                        .unwrap(),
                    Registration::Current
                );
            }
        }
    }
}
