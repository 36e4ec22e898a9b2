//! The Quaestor origin server.

use std::sync::Arc;

use parking_lot::RwLock;
use quaestor_bloom::{BloomFilter, PartitionedEbf};
use quaestor_common::{ClockRef, Error, Result, SystemClock, Timestamp};
use quaestor_document::{Document, Update, Value};
use quaestor_durability::{DurabilityConfig, DurabilityEngine, WalRecord};
use quaestor_invalidb::{InvaliDbCluster, Notification, Registration};
use quaestor_query::{Query, QueryKey};
use quaestor_store::{Database, IndexKind, WriteEvent};
use quaestor_ttl::{
    ActiveList, AdmissionDecision, CapacityManager, CostModel, QueryState, Representation,
    TtlEstimator, WriteRateSampler,
};
use quaestor_webcache::InvalidationCache;

use crate::config::ServerConfig;
use crate::metrics::{bump, ServerMetrics};
use crate::response::{id_list_body, object_list_body, result_etag, QueryResponse, RecordResponse};

/// The origin server of Figure 3: database service + cache coherence
/// machinery.
///
/// Thread-safe; in a multi-node deployment several `QuaestorServer`s would
/// share the KV-backed EBF and the database — here one instance stands for
/// the server tier and concurrency is exercised by threads.
pub struct QuaestorServer {
    config: ServerConfig,
    db: Arc<Database>,
    ebf: PartitionedEbf,
    estimator: TtlEstimator,
    sampler: WriteRateSampler,
    active: ActiveList,
    capacity: CapacityManager,
    cost: CostModel,
    invalidb: InvaliDbCluster,
    /// Invalidation-based caches (CDN edges / reverse proxies) the server
    /// purges asynchronously.
    cdns: RwLock<Vec<Arc<InvalidationCache>>>,
    /// Per-query change streams clients can subscribe to (§3.2).
    streams: Arc<quaestor_kv::PubSub>,
    /// The write-ahead log + snapshot engine, when this server was opened
    /// from (or bound to) a durability directory. `None` = in-memory.
    durability: Option<Arc<DurabilityEngine>>,
    /// Replica mode: the WAL is fed exclusively by replicated frames from
    /// the primary ([`apply_replicated`](Self::apply_replicated)), so the
    /// server must never append frames of its own — a locally assigned
    /// LSN would collide with the primary's stream and silently shadow a
    /// shipped frame. Flipped off by [`promote`](Self::promote).
    replica: std::sync::atomic::AtomicBool,
    clock: ClockRef,
    metrics: ServerMetrics,
}

impl std::fmt::Debug for QuaestorServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuaestorServer")
            .field("active_queries", &self.active.len())
            .finish_non_exhaustive()
    }
}

impl QuaestorServer {
    /// Build a server over an existing database.
    pub fn new(db: Arc<Database>, config: ServerConfig, clock: ClockRef) -> Arc<QuaestorServer> {
        Arc::new(Self::build(db, config, clock, None))
    }

    fn build(
        db: Arc<Database>,
        config: ServerConfig,
        clock: ClockRef,
        durability: Option<Arc<DurabilityEngine>>,
    ) -> QuaestorServer {
        QuaestorServer {
            ebf: PartitionedEbf::new(config.bloom, clock.clone()),
            estimator: TtlEstimator::new(config.estimator),
            sampler: WriteRateSampler::new(config.sampler_window_ms, config.sampler_max_samples),
            active: ActiveList::new(16),
            capacity: CapacityManager::new(config.max_cached_queries),
            cost: config.cost,
            invalidb: InvaliDbCluster::new(config.invalidb),
            cdns: RwLock::new(Vec::new()),
            streams: quaestor_kv::PubSub::new(),
            durability,
            replica: std::sync::atomic::AtomicBool::new(false),
            clock,
            metrics: ServerMetrics::default(),
            config,
            db,
        }
    }

    /// A server with default config over a fresh database (tests/examples).
    pub fn with_defaults(clock: ClockRef) -> Arc<QuaestorServer> {
        let db = Database::with_clock(clock.clone());
        Self::new(db, ServerConfig::default(), clock)
    }

    /// Open a **durable** server with default configuration: recover
    /// state from `path` (creating the directory on first open), then
    /// write-ahead-log every subsequent write there.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Arc<QuaestorServer>> {
        Self::open_with(
            path,
            ServerConfig::default(),
            DurabilityConfig::default(),
            SystemClock::shared(),
        )
    }

    /// [`open`](Self::open) with explicit configuration. Recovery fully
    /// completes *before* the server can serve: tables are restored from
    /// the newest snapshot plus WAL replay, recovered queries are
    /// re-registered with InvaliDB (so invalidation detection resumes),
    /// and replayed delete tombstones warm-start the EBF sketch (caches
    /// out there may still hold those records — mark them stale rather
    /// than hope their TTLs were short).
    pub fn open_with(
        path: impl AsRef<std::path::Path>,
        config: ServerConfig,
        durability: DurabilityConfig,
        clock: ClockRef,
    ) -> Result<Arc<QuaestorServer>> {
        let (engine, recovery) = DurabilityEngine::open(path, durability)?;
        let db = Database::with_clock(clock.clone());
        let meta = recovery.restore(&db)?;
        let server = Arc::new(Self::build(db, config, clock, Some(engine.clone())));
        // The EBF's read ledger died with the old process, so a plain
        // invalidate would no-op ("no cached copy can exist"). After a
        // crash that reasoning is wrong for deleted records: some cache
        // may hold them from before. Re-seed residency with the worst
        // case — any pre-crash copy was served with at most the
        // estimator's TTL ceiling — then invalidate, so the sketch
        // carries each tombstone until every possible copy has expired.
        let warm_ttl = server.config.estimator.max_ttl_ms;
        for (table, id) in &meta.tombstones {
            let key = QueryKey::record(table, id);
            server.ebf.report_read(table, key.as_str(), warm_ttl);
            server.ebf.invalidate(table, key.as_str());
        }
        for query in meta.queries {
            server.reregister_recovered(query)?;
        }
        // Attach the sink only now: replayed writes and recovery-time
        // bookkeeping must never be re-logged.
        server.db.attach_sink(engine);
        Ok(server)
    }

    /// Open a durable server in **replica mode**: recover exactly like
    /// [`open_with`](Self::open_with), but leave the durability sink
    /// detached and suppress every self-appended frame. The WAL is fed
    /// exclusively through [`apply_replicated`](Self::apply_replicated)
    /// by a replication session, so every LSN on disk is the primary's
    /// LSN — which is what makes duplicate frame delivery and
    /// reconnection re-sends no-ops by construction. Reads (including
    /// cacheable queries, EBF reporting and InvaliDB registration for
    /// *local* readers) work normally; writes must be rejected upstream
    /// by the replication layer. [`promote`](Self::promote) turns the
    /// server into a logging primary in place.
    pub fn open_replica_with(
        path: impl AsRef<std::path::Path>,
        config: ServerConfig,
        durability: DurabilityConfig,
        clock: ClockRef,
    ) -> Result<Arc<QuaestorServer>> {
        let (engine, recovery) = DurabilityEngine::open(path, durability)?;
        let db = Database::with_clock(clock.clone());
        let meta = recovery.restore(&db)?;
        let server = Arc::new(Self::build(db, config, clock, Some(engine)));
        server
            .replica
            .store(true, std::sync::atomic::Ordering::Release);
        let warm_ttl = server.config.estimator.max_ttl_ms;
        for (table, id) in &meta.tombstones {
            let key = QueryKey::record(table, id);
            server.ebf.report_read(table, key.as_str(), warm_ttl);
            server.ebf.invalidate(table, key.as_str());
        }
        for query in meta.queries {
            server.reregister_recovered(query)?;
        }
        // No attach_sink: the replica's log is written by append_replicated.
        Ok(server)
    }

    /// True while this server is a replica (self-logging suppressed).
    pub fn is_replica(&self) -> bool {
        self.replica.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Promote a replica to primary: attach the durability sink so local
    /// writes are logged (continuing the LSN sequence the replica applied
    /// up to) and re-enable query-set logging. Idempotent; a no-op on a
    /// server that is already a primary.
    pub fn promote(&self) {
        if !self
            .replica
            .swap(false, std::sync::atomic::Ordering::AcqRel)
        {
            return;
        }
        if let Some(engine) = &self.durability {
            self.db.attach_sink(engine.clone());
        }
    }

    /// Demote a primary back to replica mode (the fenced-rejoin path):
    /// detach the sink and suppress self-logging again. The caller is
    /// responsible for truncating the unreplicated WAL suffix *before*
    /// re-opening the server; this hook exists for in-place role flips in
    /// tests and the simulator.
    pub fn demote(&self) {
        if self.replica.swap(true, std::sync::atomic::Ordering::AcqRel) {
            return;
        }
        self.db.detach_sink();
    }

    /// Apply one replicated WAL record to the served state, driving the
    /// same invalidation pipeline a local write would (EBF, InvaliDB,
    /// purges, change streams) — replica lag is cache age, so the EBF
    /// bound applies to replica reads verbatim. Returns `true` if the
    /// record changed state, `false` for stale duplicates (version-keyed
    /// replay makes re-delivery a no-op). Frame persistence is separate:
    /// the replication session appends the batch to the WAL via
    /// [`DurabilityEngine::append_replicated`] *before* applying here.
    pub fn apply_replicated(&self, record: &WalRecord) -> Result<bool> {
        match record {
            WalRecord::Write {
                table,
                id,
                kind,
                image,
                version,
                seq,
                at,
            } => {
                let t = self.db.create_table(table);
                let applied = t.apply_recovered_write(
                    *kind,
                    id,
                    Arc::new(image.clone()),
                    *version,
                    *seq,
                    Timestamp::from_millis(*at),
                );
                if applied {
                    if let Some(event) = record.to_event() {
                        self.after_write(&event);
                    }
                }
                Ok(applied)
            }
            WalRecord::CreateTable { table } => {
                self.db.create_table(table);
                Ok(true)
            }
            // The primary's query registrations are bookkeeping for *its*
            // recovery; a replica serves its own readers and registers
            // their queries itself.
            WalRecord::RegisterQuery { .. } | WalRecord::DeregisterQuery { .. } => Ok(false),
        }
    }

    /// Re-activate one recovered query. Admission is re-run (capacity may
    /// have shrunk across the restart); a query that no longer fits is
    /// dropped from the durable set instead of failing the open.
    fn reregister_recovered(&self, query: Query) -> Result<()> {
        let key = QueryKey::of(&query);
        let admitted = match self.capacity.request_admission(&key) {
            AdmissionDecision::Admitted => true,
            AdmissionDecision::AdmittedEvicting(victim) => {
                self.evict_query(&victim)?;
                true
            }
            AdmissionDecision::Rejected => false,
        };
        if admitted {
            self.db.create_table(&query.table);
            let mark = self.invalidb.ingest_mark();
            match self.register_with_invalidb(&query, || self.db.query(&unwindowed(&query)), mark) {
                Ok(registration) => {
                    self.active.set_registered(&key, true);
                    // Warm EBF residency: caches may hold this query's
                    // pre-crash result, and the read ledger died with the
                    // old process. Assume the worst-case TTL so future
                    // invalidations of those copies reach the sketch.
                    self.ebf.report_read(
                        &query.table,
                        key.as_str(),
                        self.config.estimator.max_ttl_ms,
                    );
                    self.apply_raced(&key, registration);
                    return Ok(());
                }
                Err(Error::Capacity(_)) => {}
                Err(e) => return Err(e),
            }
        }
        // Not re-registered: drop it from the durable set so the next
        // recovery does not retry a query this deployment cannot hold.
        // (Replicas never self-append: their LSNs must stay the primary's.)
        if !self.is_replica() {
            if let Some(d) = &self.durability {
                d.log_deregister_query(&key)?;
            }
        }
        Ok(())
    }

    /// The underlying database (for loading data and direct inspection).
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Declare a secondary index for `table`'s `path` (idempotent),
    /// creating the table if it does not exist yet. On a durable server
    /// this is the post-[`open`](Self::open) registration hook: recovery
    /// rebuilds tables *before* the application runs, so declaring here
    /// indexes the recovered data immediately — and the declaration
    /// sticks to any table of that name created later (schemaless
    /// auto-creation included).
    pub fn declare_index(
        &self,
        table: &str,
        path: impl Into<quaestor_document::Path>,
        kind: IndexKind,
    ) {
        self.db.create_table(table);
        self.db.declare_index(table, path, kind);
    }

    /// Server metrics. The InvaliDB matching counters are refreshed here,
    /// on the read path: summing them takes every matching-node lock in
    /// the grid, which must stay off the per-write hot path. The query
    /// planner's access-path counters are copied from the store the same
    /// way.
    pub fn metrics(&self) -> &ServerMetrics {
        use std::sync::atomic::Ordering::Relaxed;
        self.metrics
            .match_evaluations
            .store(self.invalidb.total_evaluations(), Relaxed);
        self.metrics
            .match_evaluations_pruned
            .store(self.invalidb.total_evaluations_skipped(), Relaxed);
        let (probes, ranges, fulls, topk) = self.db.query_stats().snapshot();
        self.metrics.query_index_probes.store(probes, Relaxed);
        self.metrics.query_range_scans.store(ranges, Relaxed);
        self.metrics.query_full_scans.store(fulls, Relaxed);
        self.metrics.query_topk_short_circuits.store(topk, Relaxed);
        let (card_est, card_actual) = self.db.query_stats().cardinality();
        self.metrics.query_card_estimated.store(card_est, Relaxed);
        self.metrics.query_card_actual.store(card_actual, Relaxed);
        &self.metrics
    }

    /// The node's unified registry snapshot — the [`Request::Metrics`]
    /// payload. Goes through [`Self::metrics`] first so the copied
    /// planner/matcher counters are fresh.
    ///
    /// [`Request::Metrics`]: crate::Request::Metrics
    pub fn metrics_snapshot(&self) -> quaestor_obs::MetricsSnapshot {
        self.metrics().registry().snapshot()
    }

    /// Internal counter access without the grid sweep — for bump sites on
    /// hot paths (e.g. transaction commit under the commit lock).
    pub(crate) fn metrics_raw(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Configuration in effect.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Register an invalidation-based cache for asynchronous purges.
    pub fn register_cdn(&self, cache: Arc<InvalidationCache>) {
        self.cdns.write().push(cache);
    }

    fn now(&self) -> Timestamp {
        self.clock.now()
    }

    fn record_sample_key(table: &str, id: &str) -> String {
        format!("{table}/{id}")
    }

    fn purge(&self, key: &QueryKey) {
        let cdns = self.cdns.read();
        for cdn in cdns.iter() {
            if cdn.purge(key.as_str()) {
                bump(&self.metrics.purges);
            }
        }
    }

    /// Evict one actively matched query: deregister it and treat every
    /// cached copy as stale (conservative; it can no longer be
    /// invalidated).
    fn evict_query(&self, victim: &QueryKey) -> Result<()> {
        self.invalidb.deregister_query(victim);
        self.ebf.invalidate(victim.table(), victim.as_str());
        self.active.remove(victim);
        self.purge(victim);
        if !self.is_replica() {
            if let Some(d) = &self.durability {
                d.log_deregister_query(victim)?;
            }
        }
        Ok(())
    }

    // ---- durability ------------------------------------------------------

    /// The attached durability engine, if this server is durable.
    pub fn durability(&self) -> Option<&Arc<DurabilityEngine>> {
        self.durability.as_ref()
    }

    /// Force the write-ahead log's group-commit buffer to stable storage.
    /// Returns the durable LSN; 0 for an in-memory server (everything
    /// "durable" trivially — there is nothing to lose that a flush would
    /// save).
    pub fn flush(&self) -> Result<u64> {
        match &self.durability {
            Some(d) => d.flush(),
            None => Ok(0),
        }
    }

    /// Write a snapshot of the current state and compact the log below
    /// it. Errors on an in-memory server.
    pub fn checkpoint(&self) -> Result<u64> {
        match &self.durability {
            Some(d) => d.snapshot(&self.db),
            None => Err(Error::BadRequest(
                "checkpoint requires a durable server (QuaestorServer::open)".into(),
            )),
        }
    }

    // ---- the EBF endpoint ----------------------------------------------

    /// Serve the flat EBF (union over table partitions) with its
    /// generation timestamp — step 1 of the §3.1 request flow.
    pub fn ebf_snapshot(&self) -> (BloomFilter, Timestamp) {
        bump(&self.metrics.ebf_snapshots);
        self.ebf.union_snapshot()
    }

    /// Serve a single table's EBF partition (the lower-FPR client option).
    pub fn ebf_partition_snapshot(&self, table: &str) -> (BloomFilter, Timestamp) {
        bump(&self.metrics.ebf_snapshots);
        self.ebf.partition_snapshot(table)
    }

    // ---- reads -----------------------------------------------------------

    /// Origin read of one record (cache miss or revalidation).
    pub fn get_record(&self, table: &str, id: &str) -> Result<RecordResponse> {
        bump(&self.metrics.record_reads);
        let t = self.db.table(table)?;
        let rec = t.get(id).ok_or_else(|| quaestor_common::Error::NotFound {
            table: table.to_owned(),
            id: id.to_owned(),
        })?;
        let rate = self
            .sampler
            .rate(&Self::record_sample_key(table, id), self.now());
        let ttl_ms = self.estimator.record_ttl(rate);
        let key = QueryKey::record(table, id);
        // Report to the EBF *before* replying, so any invalidation racing
        // this response finds the ledger entry (Figure 7 step 2).
        self.ebf.report_read(table, key.as_str(), ttl_ms);
        let body = doc_body(&rec.doc);
        Ok(RecordResponse {
            key,
            body,
            etag: rec.version,
            ttl_ms,
            invalidation_ttl_ms: self.invalidation_ttl(ttl_ms),
            doc: rec.doc,
        })
    }

    fn invalidation_ttl(&self, ttl_ms: u64) -> u64 {
        (ttl_ms as f64 * self.config.invalidation_cache_ttl_factor) as u64
    }

    /// Origin evaluation of a query (cache miss or revalidation) — step 4
    /// of the §3.1 request flow: evaluate, decide representation, estimate
    /// TTL, register with InvaliDB, report to the EBF, reply cacheably.
    pub fn query(&self, query: &Query) -> Result<QueryResponse> {
        bump(&self.metrics.query_reads);
        let now = self.now();
        let key = QueryKey::of(query);
        // Watermark BEFORE evaluation: anything ingested after this point
        // raced the evaluation and must be replayed on registration.
        let mark = self.invalidb.ingest_mark();
        // Schemaless DBaaS semantics: querying a table that does not exist
        // yet creates it and returns the empty result.
        self.db.create_table(&query.table);
        let docs = self.db.query(query)?;
        let ids: Vec<String> = docs
            .iter()
            .filter_map(|d| d.get("_id").and_then(Value::as_str).map(str::to_owned))
            .collect();

        // Admission: is this query worth one of the InvaliDB slots?
        let admitted = match self.capacity.request_admission(&key) {
            AdmissionDecision::Admitted => true,
            AdmissionDecision::AdmittedEvicting(victim) => {
                self.evict_query(&victim)?;
                true
            }
            AdmissionDecision::Rejected => {
                bump(&self.metrics.capacity_rejections);
                false
            }
        };

        if !admitted {
            // Served uncacheable: ttl 0, not registered anywhere.
            let body = object_list_body(&docs);
            let versions = self.versions_of(query, &ids)?;
            let etag = result_etag(ids.iter().zip(versions.iter().copied()));
            return Ok(QueryResponse {
                key,
                body,
                etag,
                ttl_ms: 0,
                invalidation_ttl_ms: 0,
                representation: Representation::ObjectList,
                ids,
                versions,
                docs,
                cacheable: false,
            });
        }

        // Representation decision from observed per-query workload.
        let representation = match self.active.get(&key) {
            Some(state) => self.decide_representation(&state, ids.len(), now),
            None => Representation::ObjectList,
        };

        // TTL: EWMA-refined estimate if we have history, otherwise the
        // Poisson initial estimate from the result set's write rates.
        let ttl_ms = match self.active.get(&key) {
            Some(state) if state.invalidations > 0 => state.ttl_ms,
            _ => {
                let combined = self.sampler.combined_rate(
                    ids.iter()
                        .map(|id| Self::record_sample_key(&query.table, id))
                        .collect::<Vec<_>>()
                        .iter()
                        .map(String::as_str),
                    now,
                );
                self.estimator.initial_query_ttl(combined)
            }
        };

        // Activate with InvaliDB. A query that is already active, with no
        // write ingested since `mark`, keeps its maintained state (which
        // InvaliDB keeps at each record's newest image whatever order
        // concurrent writes arrive in): InvaliDB skips
        // the initial result, so the store runs once per origin read. A
        // new or raced query is seeded with the initial result — the full
        // unwindowed matching set for stateful queries — and replayed.
        let registration = self.register_with_invalidb(
            query,
            || {
                if query.is_stateful() {
                    self.db.query(&unwindowed(query))
                } else {
                    Ok(docs.clone())
                }
            },
            mark,
        )?;
        self.active.set_registered(&key, true);
        // Durable registration: recovery re-registers the query so its
        // cached copies keep being invalidated after a restart. (No-op
        // frame-wise when the query is already in the durable set.
        // Replicas skip it — their WAL carries only the primary's LSNs.)
        if !self.is_replica() {
            if let Some(d) = &self.durability {
                d.log_register_query(query)?;
            }
        }

        // Report the cacheable read, then handle any raced notifications
        // as regular invalidations (they arrived between evaluation and
        // activation; a replay-ring overrun invalidates the whole result).
        self.ebf.report_read(&query.table, key.as_str(), ttl_ms);
        self.active
            .on_origin_read(&key, ttl_ms, representation, now);
        self.apply_raced(&key, registration);

        // Per-record side effect: "all records in a result are inserted
        // into the cache as individual entries" (§6.2) — the server
        // reports each member read so the EBF can cover them, and the
        // response carries the members so caches can store them.
        for id in &ids {
            let rate = self
                .sampler
                .rate(&Self::record_sample_key(&query.table, id), now);
            let rttl = self.estimator.record_ttl(rate);
            self.ebf.report_read(
                &query.table,
                QueryKey::record(&query.table, id).as_str(),
                rttl,
            );
        }

        let body = match representation {
            Representation::ObjectList => object_list_body(&docs),
            Representation::IdList => id_list_body(&ids),
        };
        let versions = self.versions_of(query, &ids)?;
        let etag = result_etag(ids.iter().zip(versions.iter().copied()));
        Ok(QueryResponse {
            key,
            body,
            etag,
            ttl_ms,
            invalidation_ttl_ms: self.invalidation_ttl(ttl_ms),
            representation,
            ids,
            versions,
            docs,
            cacheable: true,
        })
    }

    /// Current version of each result id (0 for an id deleted since the
    /// evaluation), from one table lookup.
    fn versions_of(&self, query: &Query, ids: &[String]) -> Result<Vec<u64>> {
        let t = self.db.table(&query.table)?;
        Ok(ids
            .iter()
            .map(|id| t.get(id).map(|r| r.version).unwrap_or(0))
            .collect())
    }

    /// The one InvaliDB registration entry point (origin reads and
    /// recovery alike), counting whether the call rebuilt the query's
    /// state or found it current.
    fn register_with_invalidb(
        &self,
        query: &Query,
        initial: impl FnOnce() -> Result<Vec<Arc<Document>>>,
        mark: u64,
    ) -> Result<Registration> {
        let registration = self.invalidb.register_query(query, initial, mark)?;
        match &registration {
            Registration::Current => bump(&self.metrics.invalidb_registrations_skipped),
            Registration::Installed { overrun, .. } => {
                bump(&self.metrics.invalidb_registrations);
                if *overrun {
                    bump(&self.metrics.invalidb_replay_overruns);
                }
            }
        }
        Ok(registration)
    }

    /// Invalidate what raced a registration, after its read was reported:
    /// each replayed notification, or the whole query when the replay
    /// ring overran and some raced writes could not be replayed.
    fn apply_raced(&self, key: &QueryKey, registration: Registration) {
        let Registration::Installed { replayed, overrun } = registration else {
            return;
        };
        for n in &replayed {
            self.apply_notification(n);
        }
        if overrun {
            self.ebf.invalidate(key.table(), key.as_str());
            self.purge(key);
        }
    }

    fn decide_representation(
        &self,
        state: &QueryState,
        result_size: usize,
        now: Timestamp,
    ) -> Representation {
        let w = quaestor_ttl::cost::QueryWorkload {
            // Rates are per-ms in the state; the cost model only compares
            // relative magnitudes, so a consistent unit suffices.
            read_rate: state.read_rate(now),
            membership_change_rate: state.membership_change_rate(now),
            change_rate: state.value_change_rate(now),
            result_size,
            record_hit_rate: self.config.assumed_record_hit_rate,
        };
        self.cost.choose(&w)
    }

    // ---- writes ----------------------------------------------------------

    /// Insert a record, driving the full invalidation pipeline. Returns
    /// the stored version and after-image (the client SDK caches them for
    /// read-your-writes).
    pub fn insert(&self, table: &str, id: &str, doc: Document) -> Result<(u64, Arc<Document>)> {
        let t = self.db.create_table(table);
        let event = t.insert(id, doc)?;
        self.after_write(&event);
        Ok((event.version, event.image))
    }

    /// Partially update a record; returns version and after-image.
    pub fn update(&self, table: &str, id: &str, update: &Update) -> Result<(u64, Arc<Document>)> {
        let t = self.db.table(table)?;
        let event = t.update(id, update, None)?;
        self.after_write(&event);
        Ok((event.version, event.image))
    }

    /// Replace a record; returns version and after-image.
    pub fn replace(&self, table: &str, id: &str, doc: Document) -> Result<(u64, Arc<Document>)> {
        let t = self.db.table(table)?;
        let event = t.replace(id, doc, None)?;
        self.after_write(&event);
        Ok((event.version, event.image))
    }

    /// Delete a record; returns the deleted version.
    pub fn delete(&self, table: &str, id: &str) -> Result<u64> {
        let t = self.db.table(table)?;
        let event = t.delete(id, None)?;
        self.after_write(&event);
        Ok(event.version)
    }

    // ---- change streams ---------------------------------------------------

    /// Subscribe to real-time change notifications for one cached query —
    /// the "websocket-based query result change streams" of §3.2. Each
    /// message is the serialized notification event kind and record id.
    pub fn subscribe_query_stream(&self, key: &QueryKey) -> quaestor_kv::Subscription {
        self.streams.subscribe(key.as_str())
    }

    /// The write → invalidation pipeline of Figure 7 (step 4): sample the
    /// write rate, invalidate the record key, feed InvaliDB, and apply
    /// every resulting query invalidation.
    pub(crate) fn after_write(&self, event: &WriteEvent) {
        bump(&self.metrics.writes);
        let now = self.now();
        self.sampler
            .record_write(&Self::record_sample_key(&event.table, &event.id), now);
        // Record-level invalidation.
        let rkey = QueryKey::record(&event.table, &event.id);
        if self.ebf.invalidate(&event.table, rkey.as_str()) {
            bump(&self.metrics.record_invalidations);
        }
        self.purge(&rkey);
        // Query-level invalidations via InvaliDB.
        for n in self.invalidb.on_write(event) {
            self.apply_notification(&n);
        }
        // Auto-checkpoint: the write itself is already logged, so a
        // snapshot failure here must not fail the write — it only delays
        // compaction until the next attempt.
        if let Some(d) = &self.durability {
            if d.wants_snapshot() {
                let _ = d.snapshot(&self.db);
            }
        }
    }

    fn apply_notification(&self, n: &Notification) {
        // Push to subscribed change streams regardless of representation:
        // subscribers want every event.
        self.streams.publish(
            n.query.as_str(),
            bytes::Bytes::from(format!("{:?}:{}", n.event, n.record_id)),
        );
        let is_membership = n.event.invalidates_id_list();
        self.active.on_notification(&n.query, is_membership);
        // Does this event invalidate the representation actually cached?
        let state = self.active.get(&n.query);
        let invalidates = match state.as_ref().map(|s| s.representation) {
            Some(Representation::IdList) => is_membership,
            // Unknown state: be conservative, invalidate.
            Some(Representation::ObjectList) | None => true,
        };
        if !invalidates {
            return;
        }
        bump(&self.metrics.query_invalidations);
        // Table is encoded in the query key's table; use the notification
        // query key against that table's EBF partition.
        self.ebf.invalidate(n.query.table(), n.query.as_str());
        self.capacity.on_invalidation(&n.query);
        self.purge(&n.query);
        // EWMA refinement from the observed actual TTL (Eq. 2).
        if let Some(actual) = self.active.on_invalidation(&n.query, n.at) {
            if let Some(state) = self.active.get(&n.query) {
                let refined = self.estimator.refine_query_ttl(state.ttl_ms, actual);
                self.active.set_ttl(&n.query, refined);
            }
        }
    }

    /// Ground-truth ETag of a query's *current* result — used by the
    /// simulator's staleness detector to compare what a client observed
    /// against what a linearizable system would have returned.
    pub fn current_query_etag(&self, query: &Query) -> Result<u64> {
        let docs = self.db.query(query)?;
        let ids: Vec<String> = docs
            .iter()
            .filter_map(|d| d.get("_id").and_then(Value::as_str).map(str::to_owned))
            .collect();
        let versions = self.versions_of(query, &ids)?;
        Ok(result_etag(ids.iter().zip(versions)))
    }

    /// Number of actively matched (cached) queries.
    pub fn active_query_count(&self) -> usize {
        self.invalidb.query_count()
    }

    /// Direct access to the active list (diagnostics, benches).
    pub fn active_list(&self) -> &ActiveList {
        &self.active
    }

    /// Direct access to the EBF family (diagnostics, benches).
    pub fn ebf(&self) -> &PartitionedEbf {
        &self.ebf
    }
}

/// `query` without its window: stateful queries seed InvaliDB with the
/// full matching set, which it keeps ordered to maintain the window
/// itself. A stateless query is its own unwindowed form.
fn unwindowed(query: &Query) -> Query {
    let mut unwindowed = query.clone();
    unwindowed.limit = None;
    unwindowed.offset = 0;
    unwindowed
}

fn doc_body(doc: &Document) -> bytes::Bytes {
    bytes::Bytes::from(Value::Object(doc.clone()).canonical())
}

#[cfg(test)]
mod tests {
    use super::*;
    use quaestor_common::ManualClock;
    use quaestor_document::doc;
    use quaestor_query::Filter;

    fn server() -> (Arc<QuaestorServer>, Arc<ManualClock>) {
        let clock = ManualClock::new();
        let server = QuaestorServer::with_defaults(clock.clone());
        (server, clock)
    }

    fn tagged(id: &str, tags: &[&str]) -> Document {
        let mut d = doc! { "kind" => "post" };
        d.insert(
            "tags".into(),
            Value::Array(tags.iter().map(|t| Value::str(*t)).collect()),
        );
        let _ = id;
        d
    }

    #[test]
    fn record_read_reports_to_ebf() {
        let (s, _) = server();
        s.insert("posts", "p1", tagged("p1", &["x"])).unwrap();
        let resp = s.get_record("posts", "p1").unwrap();
        assert!(resp.ttl_ms > 0);
        assert_eq!(resp.etag, 1);
        // A subsequent write must mark the record stale.
        s.update("posts", "p1", &Update::new().set("kind", "draft"))
            .unwrap();
        let (flat, _) = s.ebf_snapshot();
        assert!(flat.contains(resp.key.as_str().as_bytes()));
    }

    #[test]
    fn unread_record_write_is_not_inserted() {
        let (s, _) = server();
        s.insert("posts", "p1", tagged("p1", &["x"])).unwrap();
        s.update("posts", "p1", &Update::new().set("kind", "draft"))
            .unwrap();
        // p1 was never served cacheably before the write... but the insert
        // itself wasn't either. No EBF entry.
        let (flat, _) = s.ebf_snapshot();
        assert!(!flat.contains(QueryKey::record("posts", "p1").as_str().as_bytes()));
    }

    #[test]
    fn query_lifecycle_with_invalidation() {
        let (s, clock) = server();
        s.insert("posts", "p1", tagged("p1", &["example"])).unwrap();
        s.insert("posts", "p2", tagged("p2", &["music"])).unwrap();
        let q = Query::table("posts").filter(Filter::contains("tags", "example"));
        let resp = s.query(&q).unwrap();
        assert!(resp.cacheable);
        assert_eq!(resp.ids, vec!["p1"]);
        assert_eq!(s.active_query_count(), 1);

        clock.advance(1_000);
        // p2 gains the tag -> enters the result -> add notification ->
        // query invalidated.
        s.update("posts", "p2", &Update::new().push("tags", "example"))
            .unwrap();
        let (flat, _) = s.ebf_snapshot();
        assert!(
            flat.contains(resp.key.as_str().as_bytes()),
            "query key must be stale in the EBF"
        );
        assert_eq!(
            s.metrics()
                .query_invalidations
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn irrelevant_writes_do_not_invalidate_queries() {
        let (s, _) = server();
        s.insert("posts", "p1", tagged("p1", &["example"])).unwrap();
        let q = Query::table("posts").filter(Filter::contains("tags", "example"));
        let resp = s.query(&q).unwrap();
        s.insert("posts", "p9", tagged("p9", &["unrelated"]))
            .unwrap();
        let (flat, _) = s.ebf_snapshot();
        assert!(!flat.contains(resp.key.as_str().as_bytes()));
    }

    #[test]
    fn cdn_purge_on_invalidation() {
        let (s, _) = server();
        let cdn = Arc::new(InvalidationCache::new("cdn", 64));
        s.register_cdn(cdn.clone());
        s.insert("posts", "p1", tagged("p1", &["example"])).unwrap();
        let q = Query::table("posts").filter(Filter::contains("tags", "example"));
        let resp = s.query(&q).unwrap();
        // Simulate the CDN having cached it.
        cdn.put(
            resp.key.as_str(),
            quaestor_webcache::CacheEntry::new(
                resp.body.clone(),
                resp.etag,
                Timestamp::ZERO,
                60_000,
            ),
        );
        s.update("posts", "p1", &Update::new().pull("tags", "example"))
            .unwrap();
        assert_eq!(cdn.len(), 0, "stale result purged from the CDN");
        assert!(
            s.metrics()
                .purges
                .load(std::sync::atomic::Ordering::Relaxed)
                >= 1
        );
    }

    #[test]
    fn ewma_refines_query_ttl_after_invalidation() {
        let (s, clock) = server();
        s.insert("posts", "p1", tagged("p1", &["t"])).unwrap();
        let q = Query::table("posts").filter(Filter::contains("tags", "t"));
        let r1 = s.query(&q).unwrap();
        let initial_ttl = r1.ttl_ms;
        clock.advance(2_000); // actual TTL will be 2000 ms
        s.update("posts", "p1", &Update::new().pull("tags", "t"))
            .unwrap();
        let state = s.active_list().get(&r1.key).unwrap();
        assert!(
            state.ttl_ms < initial_ttl,
            "EWMA must pull the estimate down towards 2000 (was {initial_ttl}, now {})",
            state.ttl_ms
        );
    }

    #[test]
    fn capacity_rejection_serves_uncacheable() {
        let clock = ManualClock::new();
        let db = Database::with_clock(clock.clone());
        let mut cfg = ServerConfig {
            max_cached_queries: 1,
            ..ServerConfig::default()
        };
        cfg.invalidb.max_queries = 1;
        let s = QuaestorServer::new(db, cfg, clock.clone());
        s.insert("t", "a", doc! { "n" => 1 }).unwrap();
        let q1 = Query::table("t").filter(Filter::eq("n", 1));
        let r1 = s.query(&q1).unwrap();
        assert!(r1.cacheable);
        // Raise q1's score so q2 cannot evict it.
        s.query(&q1).unwrap();
        let q2 = Query::table("t").filter(Filter::eq("n", 2));
        let r2 = s.query(&q2).unwrap();
        assert!(!r2.cacheable);
        assert_eq!(r2.ttl_ms, 0);
    }

    #[test]
    fn delete_invalidates_containing_queries() {
        let (s, _) = server();
        s.insert("posts", "p1", tagged("p1", &["x"])).unwrap();
        let q = Query::table("posts").filter(Filter::contains("tags", "x"));
        let resp = s.query(&q).unwrap();
        s.delete("posts", "p1").unwrap();
        let (flat, _) = s.ebf_snapshot();
        assert!(flat.contains(resp.key.as_str().as_bytes()));
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        quaestor_common::scratch_dir(&format!("server-{tag}"))
    }

    fn open_durable(dir: &std::path::Path) -> Arc<QuaestorServer> {
        QuaestorServer::open_with(
            dir,
            ServerConfig::default(),
            quaestor_durability::DurabilityConfig::default(),
            ManualClock::new(),
        )
        .unwrap()
    }

    #[test]
    fn durable_server_recovers_state_queries_and_tombstones() {
        let dir = temp_dir("recover");
        let q = Query::table("posts").filter(Filter::contains("tags", "x"));
        let qkey = QueryKey::of(&q);
        {
            let s = open_durable(&dir);
            s.insert("posts", "p1", tagged("p1", &["x"])).unwrap();
            s.insert("posts", "p2", tagged("p2", &["y"])).unwrap();
            let resp = s.query(&q).unwrap();
            assert!(resp.cacheable);
            s.delete("posts", "p2").unwrap();
            // Crash: drop without flush (fsync=Always already persisted).
        }
        let s = open_durable(&dir);
        // Data back.
        let rec = s.get_record("posts", "p1").unwrap();
        assert_eq!(rec.etag, 1);
        assert!(s.get_record("posts", "p2").is_err());
        // EBF warm-started from the recovered delete tombstone: caches
        // holding p2 must revalidate.
        let (flat, _) = s.ebf_snapshot();
        assert!(
            flat.contains(QueryKey::record("posts", "p2").as_str().as_bytes()),
            "recovered tombstone must mark the record stale"
        );
        // The query was re-registered: a write entering its result must
        // invalidate the recovered registration.
        assert_eq!(s.active_query_count(), 1);
        s.update("posts", "p1", &Update::new().push("tags", "fresh"))
            .unwrap(); // value change on a member -> invalidation
        let (flat, _) = s.ebf_snapshot();
        assert!(
            flat.contains(qkey.as_str().as_bytes()),
            "re-registered query must keep invalidating after recovery"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_twice_yields_identical_state() {
        let dir = temp_dir("idem");
        {
            let s = open_durable(&dir);
            for i in 0..10 {
                s.insert("t", &format!("r{i}"), doc! { "n" => i }).unwrap();
            }
            s.update("t", "r3", &Update::new().set("n", 99)).unwrap();
            s.delete("t", "r4").unwrap();
        }
        let snapshot_of = |s: &Arc<QuaestorServer>| {
            let t = s.database().table("t").unwrap();
            let mut recs: Vec<(String, u64, String)> = t
                .snapshot()
                .into_iter()
                .map(|(id, r)| (id, r.version, Value::Object((*r.doc).clone()).canonical()))
                .collect();
            recs.sort();
            (recs, t.seq())
        };
        let s1 = open_durable(&dir);
        let state1 = snapshot_of(&s1);
        drop(s1);
        let s2 = open_durable(&dir);
        assert_eq!(state1, snapshot_of(&s2), "recovery must be idempotent");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_and_checkpoint_roundtrip() {
        let dir = temp_dir("checkpoint");
        {
            let s = open_durable(&dir);
            for i in 0..20 {
                s.insert("t", &format!("r{i}"), doc! { "n" => i }).unwrap();
            }
            let lsn = s.flush().unwrap();
            assert!(lsn >= 20);
            let snap_lsn = s.checkpoint().unwrap();
            assert_eq!(snap_lsn, s.durability().unwrap().last_lsn());
            s.insert("t", "post-snap", doc! { "n" => 100 }).unwrap();
        }
        let s = open_durable(&dir);
        assert_eq!(s.database().table("t").unwrap().len(), 21);
        assert!(s.get_record("t", "post-snap").is_ok());
        // In-memory servers: flush is a no-op, checkpoint is an error.
        let (mem, _) = server();
        assert_eq!(mem.flush().unwrap(), 0);
        assert!(mem.checkpoint().is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn declared_indexes_cover_recovered_tables_and_planner_metrics() {
        use quaestor_query::Order;
        use quaestor_store::AccessPath;
        let dir = temp_dir("declare-idx");
        {
            let s = open_durable(&dir);
            for i in 0..40i64 {
                s.insert("posts", &format!("p{i:02}"), doc! { "likes" => i })
                    .unwrap();
            }
        }
        // Reopen: recovery rebuilds the table *before* the app declares
        // its indexes; the declaration must index the recovered data.
        let s = open_durable(&dir);
        s.declare_index("posts", "likes", IndexKind::Ordered);
        let table = s.database().table("posts").unwrap();
        let range = Query::table("posts").filter(Filter::and([
            quaestor_query::Filter::gte("likes", 10),
            quaestor_query::Filter::lt("likes", 13),
        ]));
        assert!(matches!(
            table.explain(&range).access,
            AccessPath::RangeScan { estimated: 3, .. }
        ));
        let resp = s.query(&range).unwrap();
        assert_eq!(resp.ids.len(), 3);
        // A sorted LIMIT over an unindexed path takes the top-k path.
        let topk = Query::table("posts")
            .sort_by("missing", Order::Asc)
            .limit(2);
        s.query(&topk).unwrap();
        let m = s.metrics();
        let get = |name: &str| {
            m.snapshot()
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("query_range_scans"), 1);
        assert!(get("query_topk_short_circuits") >= 1);
        assert!(get("query_full_scans") >= 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replica_applies_shipped_frames_without_self_logging() {
        let primary_dir = temp_dir("repl-primary");
        let replica_dir = temp_dir("repl-replica");
        let primary = open_durable(&primary_dir);
        let replica = QuaestorServer::open_replica_with(
            &replica_dir,
            ServerConfig::default(),
            quaestor_durability::DurabilityConfig::default(),
            ManualClock::new(),
        )
        .unwrap();
        assert!(replica.is_replica());

        // Writes on the primary; ship its frames to the replica the way a
        // replication session would: append to the replica WAL, then apply.
        primary.insert("posts", "p1", tagged("p1", &["x"])).unwrap();
        primary.insert("posts", "p2", tagged("p2", &["y"])).unwrap();
        primary.delete("posts", "p2").unwrap();
        let src = primary.durability().unwrap();
        let dst = replica.durability().unwrap();
        let frames = src.read_frames_after(0, 1024).unwrap();
        let batch = dst.append_replicated(frames.clone()).unwrap();
        assert_eq!(batch.fresh, frames);
        for (_, record) in &batch.fresh {
            replica.apply_replicated(record).unwrap();
        }
        assert_eq!(dst.last_lsn(), src.last_lsn());
        assert_eq!(replica.get_record("posts", "p1").unwrap().etag, 1);
        assert!(replica.get_record("posts", "p2").is_err());

        // A replica-side cacheable query must NOT append to the replica's
        // WAL (its LSNs are the primary's), but must still register for
        // invalidation so replicated writes mark local caches stale.
        let q = Query::table("posts").filter(Filter::contains("tags", "x"));
        let resp = replica.query(&q).unwrap();
        assert!(resp.cacheable);
        assert_eq!(dst.last_lsn(), src.last_lsn(), "query must not self-log");

        // A replicated write entering the result invalidates the query.
        primary
            .update("posts", "p1", &Update::new().push("tags", "fresh"))
            .unwrap();
        let after = src.last_lsn();
        let frames = src.read_frames_after(dst.last_lsn(), 1024).unwrap();
        for (_, record) in &dst.append_replicated(frames).unwrap().fresh {
            replica.apply_replicated(record).unwrap();
        }
        assert_eq!(dst.last_lsn(), after);
        let (flat, _) = replica.ebf_snapshot();
        assert!(
            flat.contains(resp.key.as_str().as_bytes()),
            "replicated write must invalidate the replica-registered query"
        );

        // Duplicate re-delivery is a no-op end to end: the WAL's LSN gate
        // rejects every already-applied frame, and a session only applies
        // what the gate accepted — so state is untouched. (Version-keyed
        // replay alone is not enough: replaying an insert whose delete
        // came later would resurrect the record.)
        let before = replica.database().total_records();
        let frames = src.read_frames_after(0, 1024).unwrap();
        let batch = dst.append_replicated(frames).unwrap();
        assert!(batch.fresh.is_empty(), "every lsn must be a duplicate");
        for (_, record) in &batch.fresh {
            replica.apply_replicated(record).unwrap();
        }
        assert_eq!(replica.database().total_records(), before);

        // Promotion attaches the sink: local writes log with continuing
        // LSNs.
        replica.promote();
        assert!(!replica.is_replica());
        replica.insert("posts", "p3", tagged("p3", &["z"])).unwrap();
        assert_eq!(dst.last_lsn(), after + 1, "post-promotion write must log");
        std::fs::remove_dir_all(&primary_dir).unwrap();
        std::fs::remove_dir_all(&replica_dir).unwrap();
    }

    #[test]
    fn member_records_reported_for_ebf_coverage() {
        let (s, _) = server();
        s.insert("posts", "p1", tagged("p1", &["x"])).unwrap();
        let q = Query::table("posts").filter(Filter::contains("tags", "x"));
        s.query(&q).unwrap();
        // p1 was reported as a side effect of the query; a write to p1
        // must now mark the *record* stale too.
        s.update("posts", "p1", &Update::new().set("kind", "draft"))
            .unwrap();
        let (flat, _) = s.ebf_snapshot();
        assert!(flat.contains(QueryKey::record("posts", "p1").as_str().as_bytes()));
    }

    /// Store evaluations so far: every executed plan records exactly one
    /// access path.
    fn store_evaluations(s: &QuaestorServer) -> u64 {
        let (probes, ranges, fulls, _) = s.database().query_stats().snapshot();
        probes + ranges + fulls
    }

    #[test]
    fn active_sorted_query_costs_one_store_evaluation_per_origin_read() {
        use quaestor_query::Order;
        let (s, _) = server();
        for i in 0..6 {
            s.insert("posts", &format!("p{i}"), doc! { "score" => i })
                .unwrap();
        }
        let q = Query::table("posts")
            .filter(Filter::True)
            .sort_by("score", Order::Desc)
            .limit(2);
        // A new sorted query runs the store twice: once for the response,
        // once unwindowed to seed InvaliDB.
        let before = store_evaluations(&s);
        let first = s.query(&q).unwrap();
        assert_eq!(store_evaluations(&s), before + 2);
        assert_eq!(s.metrics_raw().invalidb_registrations.get(), 1);
        // Once active, with no write in between, it runs the store once
        // and InvaliDB keeps its maintained state.
        let before = store_evaluations(&s);
        let second = s.query(&q).unwrap();
        assert_eq!(store_evaluations(&s), before + 1);
        assert_eq!(s.metrics_raw().invalidb_registrations.get(), 1);
        assert_eq!(s.metrics_raw().invalidb_registrations_skipped.get(), 1);
        assert_eq!(second.ids, first.ids);
        assert_eq!(second.etag, first.etag);
        // The maintained state still tracks the window.
        s.update("posts", "p0", &Update::new().set("score", 99))
            .unwrap();
        let (flat, _) = s.ebf_snapshot();
        assert!(flat.contains(first.key.as_str().as_bytes()));
    }

    #[test]
    fn write_between_mark_and_registration_is_replayed_as_an_invalidation() {
        let (s, _) = server();
        s.insert("posts", "p1", tagged("p1", &["x"])).unwrap();
        let q = Query::table("posts").filter(Filter::contains("tags", "x"));
        let key = QueryKey::of(&q);
        s.query(&q).unwrap();
        // An origin read takes its mark and evaluates; a write is
        // ingested before it registers.
        let mark = s.invalidb.ingest_mark();
        let stale = s.database().query(&q).unwrap();
        s.insert("posts", "p2", tagged("p2", &["x"])).unwrap();
        let invalidations = s.metrics_raw().query_invalidations.get();
        let mut evaluated = false;
        let registration = s
            .register_with_invalidb(
                &q,
                || {
                    evaluated = true;
                    Ok(stale)
                },
                mark,
            )
            .unwrap();
        assert!(evaluated, "a raced registration takes the full path");
        assert!(
            matches!(&registration, Registration::Installed { replayed, overrun: false }
                if replayed.len() == 1),
            "{registration:?}"
        );
        s.apply_raced(&key, registration);
        assert_eq!(
            s.metrics_raw().query_invalidations.get(),
            invalidations + 1,
            "the replayed write invalidates the raced response"
        );
    }

    #[test]
    fn replay_overrun_invalidates_the_raced_response() {
        let clock = ManualClock::new();
        let mut config = ServerConfig::default();
        config.invalidb.replay_buffer = 2;
        let s = QuaestorServer::new(Database::with_clock(clock.clone()), config, clock);
        s.insert("posts", "p1", tagged("p1", &["x"])).unwrap();
        let q = Query::table("posts").filter(Filter::contains("tags", "x"));
        let key = QueryKey::of(&q);
        let resp = s.query(&q).unwrap();
        // Three writes race the next evaluation; the ring keeps two. None
        // of them touches the result, so only the overrun can make the
        // key stale.
        let mark = s.invalidb.ingest_mark();
        let stale = s.database().query(&q).unwrap();
        for i in 0..3 {
            s.insert("other", &format!("o{i}"), doc! { "i" => i })
                .unwrap();
        }
        let (flat, _) = s.ebf_snapshot();
        assert!(!flat.contains(resp.key.as_str().as_bytes()));
        let registration = s.register_with_invalidb(&q, || Ok(stale), mark).unwrap();
        assert_eq!(s.metrics_raw().invalidb_replay_overruns.get(), 1);
        s.apply_raced(&key, registration);
        let (flat, _) = s.ebf_snapshot();
        assert!(flat.contains(resp.key.as_str().as_bytes()));
    }
}
