//! End-to-end benchmark of the full Quaestor request path.
//!
//! One process drives the real stack — SDK (`client` + `webcache` +
//! `bloom`) → `net` (`RemoteService` → event loop) → `core` → `store` /
//! `invalidb` → `durability` → `repl` — from two closed-loop client
//! threads, each a `QuaestorClient` with its own browser cache, over
//! one two-connection `RemoteService` pool on loopback. Inputs come
//! only from the seed. Every run checks its outputs (see [`run`]).
//!
//! An untraced run reports the end-to-end metrics. A traced run first
//! measures half its time untraced, then swaps in the benchmark's
//! probes ([`probe`]) and reports per-layer metrics and a self-time
//! budget per operation class.

pub mod ops;
pub mod probe;
pub mod report;
pub mod stack;
pub mod stats;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use quaestor_client::QuaestorClient;
use quaestor_common::{Clock, Error, Result, SystemClock, Timestamp};
use quaestor_core::QuaestorServer;
use quaestor_document::Document;
use quaestor_durability::DurabilityConfig;
use quaestor_query::QueryKey;
use quaestor_sim::StalenessAudit;
use quaestor_webcache::ServedBy;
use quaestor_workload::WorkloadConfig;

use crate::ops::{Op, OpGen, QuerySet};
use crate::probe::{OpMark, SinkProbe, TraceAcc};
use crate::report::{Counters, Outcome};
use crate::stack::{Dataset, Stack};
use crate::stats::Samples;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Quaestor configuration: read-heavy Zipfian mix,
    /// browser caches, one shared CDN, Δ = 1 s.
    CachedRead,
    /// The uncached-DBaaS baseline: strong reads and queries, every one
    /// a miss at every tier.
    OriginQuery,
    /// Semi-synchronous replicated writes against 1000 registered queries.
    ReplicatedWrite,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::CachedRead,
        Workload::OriginQuery,
        Workload::ReplicatedWrite,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CachedRead => "cached-read",
            Workload::OriginQuery => "origin-query",
            Workload::ReplicatedWrite => "replicated-write",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Operation classes, reported separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Record read.
    Read = 0,
    /// Query.
    Query = 1,
    /// Insert, partial update or delete.
    Write = 2,
}

impl Class {
    /// Every class.
    pub const ALL: [Class; 3] = [Class::Read, Class::Query, Class::Write];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::Query => "query",
            Class::Write => "write",
        }
    }
}

/// Dataset and run sizes.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Tables.
    pub tables: usize,
    /// Documents per table.
    pub docs_per_table: usize,
    /// Registered queries per table (`replicated-write`).
    pub queries_per_table: usize,
    /// Operations run before timing, per workload (in set-up time).
    pub warmup_ops: [u64; 3],
    /// Complete set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Reopens of the origin directory; `recovery_s` is their median.
    pub reopens: usize,
    /// Traced operations per harvested trace window.
    pub trace_window: usize,
}

impl Scale {
    /// The paper's layout: 10 tables × 10k documents, 100 queries per table.
    pub fn full() -> Scale {
        Scale {
            tables: 10,
            docs_per_table: 10_000,
            queries_per_table: 100,
            warmup_ops: [200_000, 2_000, 40],
            setups: 3,
            reopens: 2,
            trace_window: 64,
        }
    }

    /// A toy layout for smoke tests.
    pub fn toy() -> Scale {
        Scale {
            tables: 2,
            docs_per_table: 200,
            queries_per_table: 5,
            warmup_ops: [400, 100, 10],
            setups: 2,
            reopens: 2,
            trace_window: 16,
        }
    }

    /// The workload configuration at this scale.
    pub fn workload_config(&self) -> WorkloadConfig {
        WorkloadConfig {
            tables: self.tables,
            docs_per_table: self.docs_per_table,
            queries_per_table: self.queries_per_table,
            ..WorkloadConfig::default()
        }
    }

    fn warmup(&self, workload: Workload) -> u64 {
        self.warmup_ops[workload as usize]
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured time.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// Sizes.
    pub scale: Scale,
    /// Scratch directory for the durable state; removed afterwards.
    pub root: PathBuf,
    /// This benchmark's executable, which `--recover <dir>` turns into
    /// one timed restart of `dir`.
    pub exe: PathBuf,
}

/// Open the durability directory `dir` as a restarted origin does;
/// returns the server and the seconds recovery took.
pub fn reopen(dir: &Path) -> Result<(Arc<QuaestorServer>, f64)> {
    let t0 = Instant::now();
    let server = QuaestorServer::open_with(
        dir,
        quaestor_core::ServerConfig::default(),
        DurabilityConfig::default(),
        SystemClock::shared(),
    )?;
    Ok((server, t0.elapsed().as_secs_f64()))
}

/// Time one restart of `dir` in a fresh process (`exe --recover <dir>`).
fn time_restart(exe: &Path, dir: &Path) -> Result<f64> {
    let out = std::process::Command::new(exe)
        .arg("--recover")
        .arg(dir)
        .stdin(std::process::Stdio::null())
        .output()
        .map_err(|e| Error::Io(format!("run {}: {e}", exe.display())))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(secs) if out.status.success() => Ok(secs),
        _ => Err(Error::Internal(format!(
            "restart of {} failed: {}",
            dir.display(),
            String::from_utf8_lossy(&out.stderr).trim()
        ))),
    }
}

/// Staleness promised by the clients' EBF refresh interval (Δ, ms).
const DELTA_MS: u64 = 1_000;

/// A record read to audit: `(table, id, version, read at ms)`.
type AuditedRead = (String, String, u64, u64);

/// What an acknowledged write left behind.
#[derive(Debug, Clone)]
enum Acked {
    /// The record exists at `version` or later; written at `at` ms.
    Version { version: u64, at: u64 },
    /// The record was deleted (only its inserting thread touches it).
    Deleted,
}

/// Per-thread counters of one phase.
#[derive(Debug, Default)]
struct PhaseStats {
    latency_us: [Samples; 3],
    /// `(completed at, latency)` of every successful operation, in
    /// seconds since the phase began and microseconds.
    timeline: Vec<(f64, f64)>,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    reads: u64,
    reads_origin: u64,
    queries: u64,
    queries_origin: u64,
}

/// One closed-loop client thread and everything it has observed.
struct Worker {
    client: Arc<QuaestorClient>,
    gen: OpGen,
    phase: PhaseStats,
    trace: TraceAcc,
    audit: Vec<AuditedRead>,
    ledger: Vec<(String, String, Acked)>,
    written_bytes: u64,
    mismatches: u64,
    first_mismatch: Option<String>,
}

/// Read-only context shared by the workers.
struct Ctx<'a> {
    workload: Workload,
    stack: &'a Stack,
    /// `origin-query`: `Table::scan_query` of every query in the set.
    expected: &'a [Vec<Arc<Document>>],
    window: usize,
}

/// When a phase ends.
#[derive(Clone, Copy)]
enum Limit<'a> {
    Ops(u64),
    Until(&'a AtomicBool),
}

enum Done {
    Read(quaestor_client::ReadOutcome),
    Query(quaestor_client::QueryOutcome),
    Wrote,
    Deleted,
}

fn execute(client: &QuaestorClient, op: &Op) -> Result<Done> {
    Ok(match op {
        Op::Read { table, id } => Done::Read(client.read_record(table, id)?),
        Op::Query { query, .. } => Done::Query(client.query(query)?),
        Op::Insert { table, id, doc } => {
            client.insert(table, id, doc.clone())?;
            Done::Wrote
        }
        Op::Update { table, id, update } => {
            client.update(table, id, update)?;
            Done::Wrote
        }
        Op::Delete { table, id } => {
            client.delete(table, id)?;
            Done::Deleted
        }
    })
}

impl Worker {
    fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        self.first_mismatch.get_or_insert(what);
    }

    fn now(&self, ctx: &Ctx<'_>) -> Timestamp {
        match &ctx.stack.clock {
            Some(c) => c.now(),
            None => SystemClock.now(),
        }
    }

    /// Run operations until `limit`. Traced phases group operations into
    /// trace windows and harvest each window's spans when it closes.
    fn run(&mut self, ctx: &Ctx<'_>, limit: Limit<'_>, traced: bool, began: Instant) {
        let gated = ctx.stack.repl.is_some();
        let mut window: Option<(quaestor_obs::SpanGuard, u64)> = None;
        let mut marks: Vec<OpMark> = Vec::with_capacity(ctx.window);
        let mut done = 0u64;
        loop {
            match limit {
                Limit::Ops(n) if done >= n => break,
                Limit::Until(stop) if stop.load(Ordering::Relaxed) => break,
                _ => {}
            }
            done += 1;
            let op = self.gen.next_op();
            let class = op.class();
            // The generator advances the shared virtual clock one
            // millisecond per operation, so TTL, EBF and Δ decisions
            // depend on the seed, not on how fast the box runs.
            let at = ctx
                .stack
                .clock
                .as_ref()
                .map_or(0, |c| c.advance(1).as_millis());
            if traced && window.is_none() {
                let root = quaestor_obs::Trace::start("bench.window");
                let id = root.context().map_or(0, |c| c.trace_id);
                window = Some((root, id));
            }
            let span = traced.then(|| quaestor_obs::span(probe::op_span(class)));
            let span_id = span
                .as_ref()
                .and_then(|s| s.context())
                .map_or(0, |c| c.span_id);
            let t0 = Instant::now();
            let result = execute(&self.client, &op);
            let end = Instant::now();
            let op_us = (end - t0).as_secs_f64() * 1e6;
            drop(span);
            self.phase.attempted += 1;
            match result {
                Ok(out) => {
                    self.phase.latency_us[class as usize].push(op_us);
                    self.phase
                        .timeline
                        .push(((end - began).as_secs_f64(), op_us));
                    self.observe(ctx, op, out, at);
                }
                Err(e) => {
                    self.phase.failed += 1;
                    self.phase
                        .first_error
                        .get_or_insert_with(|| format!("{op:?}: {e}"));
                }
            }
            let think = self.gen.think_time();
            if !think.is_zero() {
                std::thread::sleep(think);
            }
            if traced {
                marks.push(OpMark {
                    span_id,
                    class,
                    op_us,
                });
                if marks.len() >= ctx.window {
                    self.close_window(&mut window, &mut marks, gated);
                }
            }
        }
        self.close_window(&mut window, &mut marks, gated);
    }

    fn close_window(
        &mut self,
        window: &mut Option<(quaestor_obs::SpanGuard, u64)>,
        marks: &mut Vec<OpMark>,
        gated: bool,
    ) {
        if let Some((root, trace_id)) = window.take() {
            drop(root);
            self.trace.harvest(trace_id, marks, gated);
        }
        marks.clear();
    }

    /// Bookkeeping and output checks for one completed operation.
    fn observe(&mut self, ctx: &Ctx<'_>, op: Op, out: Done, at: u64) {
        let origin = &ctx.stack.origin;
        match (op, out) {
            (Op::Read { table, id }, Done::Read(r)) => {
                self.phase.reads += 1;
                self.phase.reads_origin += u64::from(r.served_by == ServedBy::Origin);
                match ctx.workload {
                    Workload::CachedRead => self.audit.push((table, id, r.version, at)),
                    _ => {
                        let stored = origin
                            .database()
                            .table(&table)
                            .ok()
                            .and_then(|t| t.get(&id));
                        if stored.is_none_or(|s| *s.doc != r.doc) {
                            self.mismatch(format!("read {table}/{id} differs from the store"));
                        }
                    }
                }
            }
            (Op::Query { query, check }, Done::Query(q)) => {
                self.phase.queries += 1;
                self.phase.queries_origin += u64::from(q.served_by == ServedBy::Origin);
                if let Some(i) = check {
                    let want = &ctx.expected[i];
                    let same = want.len() == q.docs.len()
                        && want.iter().zip(&q.docs).all(|(w, got)| **w == *got);
                    if !same {
                        self.mismatch(format!("query {:?} differs from scan_query", query));
                    }
                }
            }
            (Op::Insert { table, id, .. } | Op::Update { table, id, .. }, Done::Wrote) => {
                // The SDK caches its own write's after-image and version.
                let key = QueryKey::record(&table, &id);
                let Some(entry) = self
                    .client
                    .browser_cache()
                    .peek(key.as_str(), self.now(ctx))
                else {
                    self.mismatch(format!("own write {table}/{id} not in the browser cache"));
                    return;
                };
                self.written_bytes += entry.body.len() as u64;
                // Timestamp the ledger with the store's own write time when
                // it still holds this version; otherwise with the issue
                // time, which can only overstate staleness.
                let stored = origin
                    .database()
                    .table(&table)
                    .ok()
                    .and_then(|t| t.get(&id));
                let at = match stored {
                    Some(s) if s.version == entry.etag => s.updated_at.as_millis(),
                    _ => at,
                };
                self.ledger.push((
                    table,
                    id,
                    Acked::Version {
                        version: entry.etag,
                        at,
                    },
                ));
            }
            (Op::Delete { table, id }, Done::Deleted) => {
                self.ledger.push((table, id, Acked::Deleted));
            }
            _ => self.mismatch("operation answered with the wrong outcome kind".into()),
        }
    }
}

/// Run every worker in its own thread until `limit` (or, with a
/// duration, until it elapses). Returns the phase's wall time.
fn run_phase(
    ctx: &Ctx<'_>,
    workers: &mut [Worker],
    ops: Option<u64>,
    seconds: f64,
    traced: bool,
) -> f64 {
    for w in workers.iter_mut() {
        w.phase = PhaseStats::default();
    }
    let stop = AtomicBool::new(false);
    let per_worker = ops.map(|n| n / workers.len().max(1) as u64);
    let start = Instant::now();
    std::thread::scope(|s| {
        for w in workers.iter_mut() {
            let stop = &stop;
            let limit = match per_worker {
                Some(n) => Limit::Ops(n),
                None => Limit::Until(stop),
            };
            s.spawn(move || w.run(ctx, limit, traced, start));
        }
        if ops.is_none() {
            std::thread::sleep(Duration::from_secs_f64(seconds));
            stop.store(true, Ordering::Relaxed);
        }
    });
    start.elapsed().as_secs_f64()
}

/// Fold every worker's phase counters together.
fn merged_phase(workers: &[Worker]) -> PhaseStats {
    let mut m = PhaseStats::default();
    for w in workers {
        let p = &w.phase;
        for (a, b) in m.latency_us.iter_mut().zip(&p.latency_us) {
            a.extend(b);
        }
        m.timeline.extend_from_slice(&p.timeline);
        m.attempted += p.attempted;
        m.failed += p.failed;
        if m.first_error.is_none() {
            m.first_error.clone_from(&p.first_error);
        }
        m.reads += p.reads;
        m.reads_origin += p.reads_origin;
        m.queries += p.queries;
        m.queries_origin += p.queries_origin;
    }
    m
}

/// Check every acknowledged write against `server`: present at or above
/// its version, or absent once deleted. Returns `(keys checked, keys
/// wrong, first wrong key)`.
fn check_ledger(server: &QuaestorServer, workers: &[Worker]) -> (u64, u64, Option<String>) {
    let mut want: std::collections::HashMap<(&str, &str), Option<u64>> = Default::default();
    for w in workers {
        for (table, id, acked) in &w.ledger {
            let slot = want.entry((table.as_str(), id.as_str())).or_insert(Some(0));
            *slot = match (acked, *slot) {
                (Acked::Deleted, _) => None,
                (Acked::Version { version, .. }, Some(v)) => Some(v.max(*version)),
                (Acked::Version { .. }, None) => None,
            };
        }
    }
    let db = server.database();
    let (mut wrong, mut first) = (0, None);
    for ((table, id), version) in &want {
        let stored = db.table(table).ok().and_then(|t| t.get(id));
        let ok = match version {
            Some(v) => stored.is_some_and(|s| s.version >= *v),
            None => stored.is_none(),
        };
        if !ok {
            wrong += 1;
            first.get_or_insert_with(|| format!("{table}/{id}"));
        }
    }
    (want.len() as u64, wrong, first)
}

/// Δ-atomicity audit of every record read against the write ledger.
fn staleness_audit(workers: &[Worker]) -> quaestor_sim::StalenessReport {
    let mut audit = StalenessAudit::new(DELTA_MS);
    for w in workers {
        for (table, id, acked) in &w.ledger {
            if let Acked::Version { version, at } = acked {
                audit.note_write(table, id, *version, *at);
            }
        }
    }
    for w in workers {
        for (table, id, version, at) in &w.audit {
            audit.note_read(table, id, *version, *at);
        }
    }
    audit.report()
}

/// Build the stack, register the workload's queries and warm the
/// caches: everything `setup_s` times.
fn set_up(
    args: &Args,
    data: &Dataset,
    dir: &std::path::Path,
    expected: &mut Vec<Vec<Arc<Document>>>,
) -> Result<(Stack, Vec<Worker>, f64)> {
    let config = args.scale.workload_config();
    let start = Instant::now();
    let stack = Stack::build(dir, args.workload, &args.scale, data, args.trace)?;
    let built = start.elapsed();
    if args.workload == Workload::OriginQuery && expected.is_empty() {
        // The reference results, computed once (outside the set-up time)
        // by the store's own full-scan path on the freshly loaded data.
        for q in QuerySet::new(&config).queries {
            expected.push(stack.origin.database().table(&q.table)?.scan_query(&q));
        }
    }
    let start = Instant::now() - built;
    if args.workload == Workload::ReplicatedWrite {
        // The paper's query set, registered so every write is matched.
        for t in 0..config.tables {
            for q in 0..config.queries_per_table {
                stack.origin.query(&config.make_query(t, q))?;
            }
        }
    }
    let mut workers: Vec<Worker> = stack
        .clients
        .iter()
        .enumerate()
        .map(|(i, client)| Worker {
            client: client.clone(),
            gen: OpGen::new(args.workload, &config, args.seed, i),
            phase: PhaseStats::default(),
            trace: TraceAcc::default(),
            audit: Vec::new(),
            ledger: Vec::new(),
            written_bytes: 0,
            mismatches: 0,
            first_mismatch: None,
        })
        .collect();
    let ctx = Ctx {
        workload: args.workload,
        stack: &stack,
        expected,
        window: args.scale.trace_window,
    };
    run_phase(
        &ctx,
        &mut workers,
        Some(args.scale.warmup(args.workload)),
        0.0,
        false,
    );
    let warm = merged_phase(&workers);
    if warm.failed > 0 {
        return Err(Error::Internal(format!(
            "warm-up operation failed: {}",
            warm.first_error.unwrap_or_default()
        )));
    }
    Ok((stack, workers, start.elapsed().as_secs_f64()))
}

/// Run one benchmark invocation and check its outputs.
///
/// Checks: `cached-read` audits every record read against the write
/// ledger (no read staler than Δ); `origin-query` compares every read
/// with the store and every query result with `Table::scan_query`;
/// `replicated-write` requires every acknowledged write on the caught-up
/// replica. On every workload the acknowledged writes must survive a
/// reopen of the origin's directory, no operation may fail, and a
/// traced run's layer self times must cover 90% of the traced mean.
pub fn run(args: &Args) -> Result<Outcome> {
    let _ = std::fs::remove_dir_all(&args.root);
    let result = run_in(args);
    let _ = std::fs::remove_dir_all(&args.root);
    if let Some(parent) = args.root.parent() {
        // Removes the scratch parent only once no other run uses it.
        let _ = std::fs::remove_dir(parent);
    }
    result
}

fn run_in(args: &Args) -> Result<Outcome> {
    let config = args.scale.workload_config();
    let data = Dataset::generate(&config, args.seed);
    let mut out = Outcome::new(args.workload, args.trace);

    // Set up several times; keep the last stack.
    let mut setup_s = Vec::new();
    let mut kept = None;
    let mut expected = Vec::new();
    for i in 0..args.scale.setups.max(1) {
        let dir = args.root.join(format!("setup{i}"));
        let (stack, workers, secs) = set_up(args, &data, &dir, &mut expected)?;
        setup_s.push(secs);
        if i + 1 < args.scale.setups {
            stack.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            kept = Some((stack, workers));
        }
    }
    let (stack, mut workers) = kept.ok_or_else(|| Error::Internal("no set-up ran".into()))?;

    let ctx = Ctx {
        workload: args.workload,
        stack: &stack,
        expected: &expected,
        window: args.scale.trace_window,
    };

    let (phase, wall, before, after, base_ops_per_s) = if args.trace {
        // Untraced half first: the baseline for the tracing overhead.
        let base_wall = run_phase(&ctx, &mut workers, None, args.seconds / 2.0, false);
        let base = merged_phase(&workers);
        out.attempted += base.attempted;
        out.failed += base.failed;
        let db = stack.origin.database();
        let engine = stack
            .origin
            .durability()
            .cloned()
            .ok_or_else(|| Error::Internal("durable origin has no engine".into()))?;
        db.detach_sink();
        db.attach_sink(SinkProbe::new(engine.clone()));
        let before = Counters::take(&stack);
        let wall = run_phase(&ctx, &mut workers, None, args.seconds / 2.0, true);
        let after = Counters::take(&stack);
        db.detach_sink();
        db.attach_sink(engine);
        let phase = merged_phase(&workers);
        (
            phase,
            wall,
            before,
            after,
            base.attempted as f64 / base_wall,
        )
    } else {
        let before = Counters::take(&stack);
        let wall = run_phase(&ctx, &mut workers, None, args.seconds, false);
        let after = Counters::take(&stack);
        (merged_phase(&workers), wall, before, after, 0.0)
    };
    out.attempted += phase.attempted;
    out.failed += phase.failed;
    if let Some(e) = &phase.first_error {
        out.check("operations", false, format!("first failure: {e}"));
    }

    // Output checks while the stack is up.
    let mismatches: u64 = workers.iter().map(|w| w.mismatches).sum();
    let first = workers.iter().find_map(|w| w.first_mismatch.clone());
    out.check(
        "outputs",
        mismatches == 0,
        format!(
            "{mismatches} wrong outputs{}",
            first.map(|f| format!("; first: {f}")).unwrap_or_default()
        ),
    );
    match args.workload {
        Workload::CachedRead => {
            let r = staleness_audit(&workers);
            out.check(
                "staleness",
                r.reads > 0 && r.violations == 0,
                format!(
                    "{} reads audited, {} stale, {} staler than Δ = {} ms, max {} ms",
                    r.reads,
                    r.stale_reads,
                    r.violations,
                    r.promised_ms,
                    r.delta_ms.max()
                ),
            );
        }
        Workload::ReplicatedWrite => {
            stack.await_replica(Duration::from_secs(20))?;
            let replica = stack
                .repl
                .as_ref()
                .map(|(_, r)| r.server().clone())
                .ok_or_else(|| Error::Internal("no replica".into()))?;
            let (n, wrong, first) = check_ledger(&replica, &workers);
            out.check(
                "replica",
                n > 0 && wrong == 0,
                format!(
                    "{n} acked keys on the replica, {wrong} missing{}",
                    first.map(|f| format!("; first: {f}")).unwrap_or_default()
                ),
            );
        }
        Workload::OriginQuery => {}
    }

    let ebf_bytes = stack.rpc_probe.as_ref().map_or(0, |p| p.ebf_bytes());
    // Only the ledger is needed from here on; release the rest before
    // timing recovery.
    for w in &mut workers {
        w.audit = Vec::new();
        w.phase = PhaseStats::default();
    }
    let dir = stack.shutdown();
    let disk = stack::dir_bytes(&dir);
    let written: u64 = workers.iter().map(|w| w.written_bytes).sum();

    // Recovery is what a restarted origin pays, so each timed reopen
    // runs in a fresh process; one more, here, is checked.
    let recovery_s = (0..args.scale.reopens.max(1))
        .map(|_| time_restart(&args.exe, &dir))
        .collect::<Result<Vec<f64>>>()?;
    let (server, _) = reopen(&dir)?;
    let (n, wrong, first) = check_ledger(&server, &workers);
    drop(server);
    out.check(
        "reopen",
        wrong == 0 && (n > 0 || args.workload == Workload::OriginQuery),
        format!(
            "{n} acked keys after reopening the origin, {wrong} missing{}",
            first.map(|f| format!("; first: {f}")).unwrap_or_default()
        ),
    );

    let mut trace = TraceAcc::default();
    for w in &workers {
        trace.merge(&w.trace);
    }
    let mut phase = phase;
    out.end_to_end(report::EndToEnd {
        setup_s: &setup_s,
        phase: &mut phase.latency_us,
        timeline: &mut phase.timeline,
        ops: phase.attempted,
        failed: phase.failed,
        wall,
        reads: (phase.reads, phase.reads_origin),
        queries: (phase.queries, phase.queries_origin),
        recovery_s: &recovery_s,
        stored_bytes: disk,
        user_bytes: data.bytes + written,
    });
    if args.trace {
        out.per_layer(report::PerLayer {
            trace: &mut trace,
            delta: after.minus(&before),
            ops: phase.attempted,
            ops_per_s: phase.attempted as f64 / wall,
            base_ops_per_s,
            ebf_bytes,
            gated: args.workload == Workload::ReplicatedWrite,
        });
    }
    Ok(out)
}
