//! Out-of-core binary graph store for NeurSC.
//!
//! Three pieces, bottom to top:
//!
//! 1. [`mod@format`] — the `NSCS` packed CSR image: versioned magic, FNV-1a-64
//!    checksum, `u32` labels and neighbor ids, `u64` row offsets that
//!    double as a degree index. [`format::pack_graph`] converts a parsed
//!    [`neursc_graph::Graph`] into a store file atomically.
//! 2. [`store::GraphStore`] — verified access to an image, either fully
//!    resident or *streamed*: adjacency chunks load on demand behind a
//!    bounded LRU, so filtering touches `O(core + cache)` memory instead of
//!    `O(m)`. Every open verifies magic, version, the length equation and
//!    the full checksum before any adjacency is handed out; corruption is
//!    a typed [`StoreError::Corrupt`].
//! 3. [`partition::PartitionPlan`] — deterministic contiguous edge-balanced
//!    cores. Per-core local pruning ([`store::GraphStore::local_pruning_core`])
//!    is bit-identical to the matching slice of whole-graph pruning, which
//!    is what lets partitioned estimation reproduce monolithic estimates
//!    exactly (see `neursc_core::partition`).

pub mod error;
pub mod format;
pub mod partition;
pub mod store;
mod validate;

pub use error::StoreError;
pub use format::{encode_graph, pack_graph};
pub use partition::PartitionPlan;
pub use store::{
    AccessMode, CacheStats, CorePruning, GraphStore, KeptRows, PartitionView, WorkingSet,
};
