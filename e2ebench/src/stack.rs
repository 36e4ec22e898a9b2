//! Building and tearing down the system under test: a durable origin
//! (or a replicated primary with one replica), the loopback
//! `NetServer`, one `RemoteService` pool and the SDK clients.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use quaestor_client::{ClientConfig, Consistency, QuaestorClient};
use quaestor_common::{ClockRef, Error, ManualClock, Result, SystemClock};
use quaestor_core::{IndexKind, QuaestorServer, ServerConfig, Service};
use quaestor_document::{Document, Value};
use quaestor_durability::DurabilityConfig;
use quaestor_net::{NetServer, RemoteService, RemoteServiceConfig};
use quaestor_repl::{Lineage, ReplConfig, ReplNode};
use quaestor_webcache::InvalidationCache;
use quaestor_workload::{WorkloadConfig, WorkloadGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::probe::{HandlerProbe, RpcProbe};
use crate::{Scale, Workload};

/// The initial documents, generated from the seed.
pub struct Dataset {
    /// `(table, id, document)` for every initial record.
    pub docs: Vec<(String, String, Document)>,
    /// Canonical bytes of all initial documents.
    pub bytes: u64,
}

impl Dataset {
    /// The paper's layout at `scale`, populated from `seed`.
    pub fn generate(config: &WorkloadConfig, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let docs: Vec<_> = WorkloadGenerator::new(*config).dataset(&mut rng).collect();
        let bytes = docs.iter().map(|(_, _, d)| canonical_len(d)).sum();
        Dataset { docs, bytes }
    }
}

/// Canonical (wire) size of a document.
pub fn canonical_len(doc: &Document) -> u64 {
    Value::Object(doc.clone()).canonical().len() as u64
}

/// The indexes each workload declares on every table.
fn indexes(workload: Workload) -> &'static [IndexKind] {
    match workload {
        Workload::OriginQuery => &[IndexKind::Hash, IndexKind::Ordered],
        Workload::CachedRead | Workload::ReplicatedWrite => &[IndexKind::Hash],
    }
}

/// Open a durable origin on `dir` (always-fsync WAL), declare the
/// workload's indexes and bulk-load the dataset: the rows go into the
/// tables with the WAL detached and are made durable by one checkpoint,
/// so the log holds only what the run itself writes.
fn load_origin(
    dir: &Path,
    workload: Workload,
    config: &WorkloadConfig,
    data: &Dataset,
    clock: ClockRef,
) -> Result<Arc<QuaestorServer>> {
    let server = QuaestorServer::open_with(
        dir,
        ServerConfig::default(),
        DurabilityConfig::default(),
        clock,
    )?;
    for t in 0..config.tables {
        for kind in indexes(workload) {
            server.declare_index(&WorkloadConfig::table_name(t), "category", *kind);
        }
    }
    let engine = server
        .durability()
        .cloned()
        .ok_or_else(|| Error::Internal("durable origin has no engine".into()))?;
    let db = server.database();
    db.detach_sink();
    let mut table = None;
    for (name, id, doc) in &data.docs {
        let t = match &table {
            Some((n, t)) if n == name => t,
            _ => &table.insert((name.clone(), db.create_table(name))).1,
        };
        t.insert(id, doc.clone())?;
    }
    db.attach_sink(engine);
    server.checkpoint()?;
    Ok(server)
}

/// A running system under test.
pub struct Stack {
    /// The virtual clock shared by origin and clients (not on the
    /// replicated stack, whose nodes run on the system clock).
    pub clock: Option<Arc<ManualClock>>,
    /// The origin server (the primary's embedded server when replicated).
    pub origin: Arc<QuaestorServer>,
    /// `(primary, replica)` on the replicated stack.
    pub repl: Option<(Arc<ReplNode>, Arc<ReplNode>)>,
    /// The shared CDN, registered with the origin for purges.
    pub cdn: Arc<InvalidationCache>,
    /// The loopback endpoint the clients talk to.
    pub net: NetServer,
    /// Client-side round-trip probe (traced runs only).
    pub rpc_probe: Option<Arc<RpcProbe>>,
    /// One SDK client per load thread.
    pub clients: Vec<Arc<QuaestorClient>>,
    /// The origin's (primary's) durability directory.
    pub dir: PathBuf,
}

/// Client threads, each a `QuaestorClient` with its own browser cache.
pub const CLIENTS: usize = 2;

impl Stack {
    /// Build the stack for `workload` under `root`. With `traced`, the
    /// benchmark's probes wrap the client pool and the server handler.
    pub fn build(
        root: &Path,
        workload: Workload,
        scale: &Scale,
        data: &Dataset,
        traced: bool,
    ) -> Result<Stack> {
        let config = scale.workload_config();
        let dir = root.join("primary");
        let keys = config.tables * (config.docs_per_table + config.queries_per_table);
        let cdn = Arc::new(InvalidationCache::new("cdn", 2 * keys));
        let (clock, origin, repl, service): (_, _, _, Arc<dyn Service>) = match workload {
            Workload::ReplicatedWrite => {
                let server = load_origin(&dir, workload, &config, data, SystemClock::shared())?;
                drop(server);
                // The replica starts from a copy of the loaded directory
                // (a base backup) and follows the primary's log from there.
                quaestor_repl::epoch::store_lineage(&dir, &Lineage::bootstrap())?;
                let replica_dir = root.join("replica");
                copy_dir(&dir, &replica_dir)?;
                let cfg = ReplConfig {
                    ack_replicas: 1,
                    ..ReplConfig::default()
                };
                let primary = ReplNode::open_primary(&dir, cfg)?;
                let replica = ReplNode::open_replica(&replica_dir, primary.repl_addr(), cfg)?;
                let origin = primary.server().clone();
                let service: Arc<dyn Service> = primary.clone();
                (None, origin, Some((primary, replica)), service)
            }
            _ => {
                let clock = ManualClock::new();
                let origin = load_origin(&dir, workload, &config, data, clock.clone())?;
                let service: Arc<dyn Service> = origin.clone();
                (Some(clock), origin, None, service)
            }
        };
        origin.register_cdn(cdn.clone());
        let service = if traced {
            HandlerProbe::new(service) as Arc<dyn Service>
        } else {
            service
        };
        let net = NetServer::bind("127.0.0.1:0", service)?;
        let remote: Arc<dyn Service> = RemoteService::connect(
            net.local_addr(),
            RemoteServiceConfig {
                pool_size: 2,
                ..RemoteServiceConfig::default()
            },
        )?;
        let rpc_probe = traced.then(|| RpcProbe::new(remote.clone()));
        let client_service = match &rpc_probe {
            Some(p) => p.clone() as Arc<dyn Service>,
            None => remote,
        };
        let client_config = ClientConfig {
            consistency: match workload {
                Workload::OriginQuery => Consistency::Strong,
                _ => Consistency::DeltaAtomic,
            },
            ..ClientConfig::default()
        };
        let client_clock: ClockRef = match &clock {
            Some(c) => c.clone(),
            None => SystemClock::shared(),
        };
        let clients = (0..CLIENTS)
            .map(|_| {
                QuaestorClient::try_connect_service(
                    client_service.clone(),
                    std::slice::from_ref(&cdn),
                    client_config,
                    client_clock.clone(),
                )
                .map(Arc::new)
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Stack {
            clock,
            origin,
            repl,
            cdn,
            net,
            rpc_probe,
            clients,
            dir,
        })
    }

    /// Wait until the replica has applied everything the primary logged.
    pub fn await_replica(&self, timeout: Duration) -> Result<()> {
        let Some((primary, replica)) = &self.repl else {
            return Ok(());
        };
        let deadline = Instant::now() + timeout;
        loop {
            let want = primary.status().last_lsn;
            if replica.status().durable_lsn >= want {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(Error::Internal(format!(
                    "replica stuck at lsn {} (primary at {want})",
                    replica.status().durable_lsn
                )));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Stop every thread and release the durability directories, so they
    /// can be reopened. Returns the origin directory.
    pub fn shutdown(self) -> PathBuf {
        let Stack {
            net,
            repl,
            clients,
            origin,
            rpc_probe,
            dir,
            ..
        } = self;
        drop(clients);
        drop(rpc_probe);
        net.shutdown();
        drop(net);
        if let Some((primary, replica)) = repl {
            replica.kill();
            primary.kill();
        }
        drop(origin);
        dir
    }
}

/// Copy a durability directory (minus its lock file) to `to`.
fn copy_dir(from: &Path, to: &Path) -> Result<()> {
    let io = |e: std::io::Error| Error::Io(format!("copy {}: {e}", from.display()));
    std::fs::create_dir_all(to).map_err(io)?;
    for entry in std::fs::read_dir(from).map_err(io)? {
        let entry = entry.map_err(io)?;
        let path = entry.path();
        let target = to.join(entry.file_name());
        if path.is_dir() {
            copy_dir(&path, &target)?;
        } else if entry.file_name() != "LOCK" {
            std::fs::copy(&path, &target).map_err(io)?;
        }
    }
    Ok(())
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
