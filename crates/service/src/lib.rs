//! Streaming geofencing service on top of [`gem_core::Gem`].
//!
//! The paper's deployment (Fig. 2) is an IoT device that uploads scans to
//! a server, which performs in-out detection and notifies a caregiver.
//! This crate is that server-side layer:
//!
//! * [`Monitor`] — a single-user session wrapping a trained model with an
//!   *alert policy* (consecutive-outside debouncing, the practical fix
//!   for one-scan flukes) and an event/statistics log;
//! * [`Fleet`] — the runtime, for one premises or many: premises are
//!   rendezvous-hashed onto worker shards, ingress is coalesced into
//!   batched decision epochs with explicit backpressure ([`Admission`]),
//!   and a write-ahead journal plus checksummed snapshots give bitwise
//!   crash recovery;
//! * [`obs`] — the observability wiring: every metric and trace event the
//!   runtime emits is registered there on a `gem_obs::Registry`, exposed
//!   via [`Fleet::registry`] for Prometheus/JSON scraping;
//! * [`IngressServer`] + [`wire`] — the TCP front door: length-prefixed,
//!   checksummed record frames parsed straight into shard submit calls,
//!   with the [`Admission`] vocabulary mapped onto per-connection credit
//!   flow control (see DESIGN.md, "Ingress architecture").

pub mod fleet;
pub mod ingress;
pub mod journal;
pub mod monitor;
pub mod obs;
mod shard;
pub mod wire;

pub use fleet::{
    shard_for, Admission, Fleet, FleetConfig, FleetError, FleetSubmitter, Recovery, ShedReason,
};
pub use ingress::{IngressConfig, IngressServer};
pub use journal::{JournalEntry, JournalWriter};
pub use monitor::{Event, Monitor, MonitorConfig, MonitorState, MonitorStats};
pub use obs::{FleetStats, JournalObs, MonitorObs, ObsOptions, ShardStats};
pub use shard::FleetEvent;
pub use wire::{Frame, WireError, WireShedReason, WireTrace, WireVerdict};
