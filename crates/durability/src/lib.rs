//! Durability for the Quaestor store: write-ahead log, snapshots, crash
//! recovery.
//!
//! The paper's deployment delegates persistence to the underlying
//! database system ("Quaestor is agnostic of its underlying database
//! system", §2 — the evaluation ran on MongoDB). Our reproduction's
//! store is in-memory, so this crate supplies the missing property with
//! the classic log-structured recipe:
//!
//! * **WAL** ([`wal`]) — an append-only, segmented log of CRC-checksummed
//!   binary frames, one per write after-image, in the store's existing
//!   per-table `seq` order. Group commit batches frames; the
//!   [`FsyncPolicy`] decides when batches hit stable storage.
//! * **Snapshots** ([`snapshot`]) — full table state at a snapshot LSN,
//!   written atomically, carrying the registered-query set. Segments
//!   entirely below the newest snapshot are compacted away.
//! * **Recovery** ([`engine`]) — open the newest valid snapshot, replay
//!   frames with LSN above it, tolerate a torn tail (truncate at the
//!   first bad CRC at the end of the newest segment — a bad frame that
//!   valid data follows is corruption and fails loudly), and hand the
//!   server what it needs to resume: tables with their `seq` counters,
//!   the queries to re-register with InvaliDB, and the delete tombstones
//!   to warm-start the EBF sketch from.
//!
//! The store stays ignorant of files: it exposes the
//! [`WriteSink`](quaestor_store::WriteSink) seam (called synchronously
//! before a write is acknowledged) and version-keyed replay hooks;
//! [`DurabilityEngine`] implements the sink. `quaestor-core` wires it all
//! together in `QuaestorServer::open`.

pub mod codec;
pub mod config;
pub mod engine;
pub mod frame;
pub mod snapshot;
pub mod wal;

pub use codec::WalRecord;
pub use config::{DurabilityConfig, FsyncPolicy};
pub use engine::{
    truncate_above, DurabilityEngine, RecoveredMeta, Recovery, RecoveryReport, ReplicatedAppend,
};
pub use snapshot::{SnapshotData, SnapshotRecord, SnapshotTable};
pub use wal::TailCursor;
