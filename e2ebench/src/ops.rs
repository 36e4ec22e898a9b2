//! Operation streams, one per client thread, generated from the seed.

use std::collections::VecDeque;
use std::time::Duration;

use quaestor_document::{Document, Update};
use quaestor_query::{Filter, Order, Query};
use quaestor_workload::{Operation, WorkloadConfig, WorkloadGenerator, Zipfian};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Class, Workload};

/// One client operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// Read one record.
    Read {
        /// Table name.
        table: String,
        /// Record id.
        id: String,
    },
    /// Run a query; `check` indexes its expected result when the
    /// workload checks query results.
    Query {
        /// The query.
        query: Query,
        /// Index into [`QuerySet::queries`].
        check: Option<usize>,
    },
    /// Insert a record.
    Insert {
        /// Table name.
        table: String,
        /// Record id (unique to the issuing thread).
        id: String,
        /// The document.
        doc: Document,
    },
    /// Partially update a record.
    Update {
        /// Table name.
        table: String,
        /// Record id.
        id: String,
        /// The update.
        update: Update,
    },
    /// Delete a record the issuing thread inserted.
    Delete {
        /// Table name.
        table: String,
        /// Record id.
        id: String,
    },
}

impl Op {
    /// The operation's class.
    pub fn class(&self) -> Class {
        match self {
            Op::Read { .. } => Class::Read,
            Op::Query { .. } => Class::Query,
            Op::Insert { .. } | Op::Update { .. } | Op::Delete { .. } => Class::Write,
        }
    }
}

/// Mean client think time in `replicated-write`.
const THINK_MEAN_S: f64 = 0.010;

/// Variants per access path and table in `origin-query`.
const VARIANTS: usize = 10;

/// The finite query set of `origin-query`: per table, `VARIANTS`
/// queries for each planner access path — `category` equality (hash
/// probe), a `category` range (ordered index), a `category` range sorted
/// by `category` with a limit (index order) and a filter on the
/// unindexed `tags` sorted by the unindexed `payload` with a limit
/// (full-scan top-k). Like the paper's queries, each is selective: it
/// returns 10 to 20 documents.
#[derive(Debug, Clone)]
pub struct QuerySet {
    /// Every query; table `t` owns `t * per_table .. (t + 1) * per_table`.
    pub queries: Vec<Query>,
    /// Queries per table.
    pub per_table: usize,
}

impl QuerySet {
    /// Build the set for `config`'s tables and category domain.
    pub fn new(config: &WorkloadConfig) -> QuerySet {
        let domain = config.category_domain();
        let range = |lo: i64, width: i64| {
            Filter::and([
                Filter::gte("category", lo),
                Filter::lt("category", lo + width),
            ])
        };
        let mut queries = Vec::new();
        for t in 0..config.tables {
            let table = WorkloadConfig::table_name(t);
            for v in 0..VARIANTS {
                let c = (v * domain / VARIANTS) as i64;
                let order = if v % 2 == 0 { Order::Asc } else { Order::Desc };
                let q = Query::table(table.clone());
                queries.push(q.clone().filter(Filter::eq("category", c)));
                queries.push(q.clone().filter(range(c, 2)));
                queries.push(
                    q.clone()
                        .filter(range(c, 20))
                        .sort_by("category", order)
                        .limit(10),
                );
                queries.push(
                    q.filter(Filter::contains("tags", format!("tag{}", 5 * v)))
                        .sort_by("payload", order)
                        .limit(10),
                );
            }
        }
        QuerySet {
            queries,
            per_table: 4 * VARIANTS,
        }
    }
}

/// Per-thread operation generator.
pub struct OpGen {
    kind: GenKind,
    rng: StdRng,
    thread: usize,
    inserted: u64,
    /// This thread's inserts not yet deleted (`replicated-write`).
    live: VecDeque<(String, String)>,
}

enum GenKind {
    /// The paper's generator (`cached-read`).
    Paper(WorkloadGenerator),
    /// Half reads, half queries from the finite set (`origin-query`).
    Origin {
        tables: Zipfian,
        keys: Zipfian,
        set: QuerySet,
    },
    /// Updates, inserts and deletes of own inserts (`replicated-write`).
    Writes {
        config: WorkloadConfig,
        tables: Zipfian,
        keys: Zipfian,
    },
}

impl OpGen {
    /// The stream of client thread `thread` for `seed`.
    pub fn new(workload: Workload, config: &WorkloadConfig, seed: u64, thread: usize) -> OpGen {
        let tables = Zipfian::new(config.tables, config.zipf_theta);
        let keys = Zipfian::scrambled(config.docs_per_table, config.zipf_theta);
        let kind = match workload {
            Workload::CachedRead => GenKind::Paper(WorkloadGenerator::new(*config)),
            Workload::OriginQuery => GenKind::Origin {
                tables,
                keys,
                set: QuerySet::new(config),
            },
            Workload::ReplicatedWrite => GenKind::Writes {
                config: *config,
                tables,
                keys,
            },
        };
        OpGen {
            kind,
            rng: StdRng::seed_from_u64(
                seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(thread as u64 + 1)),
            ),
            thread,
            inserted: 0,
            live: VecDeque::new(),
        }
    }

    fn next_insert_id(&mut self) -> String {
        self.inserted += 1;
        format!("c{}-ins{:07}", self.thread, self.inserted)
    }

    /// Pause before the next operation. `replicated-write` clients think
    /// for an exponentially distributed time (mean 10 ms): without it the
    /// two closed-loop writers lock into step with the replication
    /// session's tail-poll cycle, and a whole run settles into one of
    /// several rates depending on the phase it happened to start in.
    pub fn think_time(&mut self) -> Duration {
        match self.kind {
            GenKind::Writes { .. } => {
                let u: f64 = self.rng.gen();
                Duration::from_secs_f64(-(1.0 - u).ln() * THINK_MEAN_S)
            }
            _ => Duration::ZERO,
        }
    }

    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        match &mut self.kind {
            GenKind::Paper(gen) => match gen.next_op(&mut self.rng) {
                Operation::Read { table, id } => Op::Read { table, id },
                Operation::Query(query) => Op::Query { query, check: None },
                Operation::Insert {
                    table, document, ..
                } => Op::Insert {
                    table,
                    id: self.next_insert_id(),
                    doc: document,
                },
                Operation::Update { table, id, update } => Op::Update { table, id, update },
                // The read-heavy mix has no deletes; reading instead keeps
                // every operation valid if a mix ever adds them.
                Operation::Delete { table, id } => Op::Read { table, id },
            },
            GenKind::Origin { tables, keys, set } => {
                let t = tables.sample(&mut self.rng);
                if self.rng.gen_bool(0.5) {
                    Op::Read {
                        table: WorkloadConfig::table_name(t),
                        id: WorkloadConfig::doc_id(keys.sample(&mut self.rng)),
                    }
                } else {
                    let q = t * set.per_table + self.rng.gen_range(0..set.per_table);
                    Op::Query {
                        query: set.queries[q].clone(),
                        check: Some(q),
                    }
                }
            }
            GenKind::Writes {
                config,
                tables,
                keys,
            } => {
                let config = *config;
                let table = WorkloadConfig::table_name(tables.sample(&mut self.rng));
                let id = WorkloadConfig::doc_id(keys.sample(&mut self.rng));
                let roll: f64 = self.rng.gen();
                if roll < 0.15 {
                    if let Some((table, id)) = self.live.pop_front() {
                        return Op::Delete { table, id };
                    }
                }
                if roll < 0.45 {
                    let i = config.docs_per_table + self.inserted as usize;
                    let doc = config.make_doc(i, &mut self.rng);
                    let id = self.next_insert_id();
                    self.live.push_back((table.clone(), id.clone()));
                    return Op::Insert { table, id, doc };
                }
                // Partial updates: a counter bump (a change event) or a
                // category move (a result-membership change).
                let update = if self.rng.gen_bool(0.5) {
                    Update::new().inc("counter", 1.0)
                } else {
                    Update::new().set(
                        "category",
                        self.rng.gen_range(0..config.category_domain()) as i64,
                    )
                };
                Op::Update { table, id, update }
            }
        }
    }
}
