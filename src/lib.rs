//! Umbrella crate re-exporting the full ENCOMPASS/TMF reproduction API.
//!
//! Most programs only need [`prelude`]:
//!
//! ```no_run
//! use encompass_tmf::prelude::*;
//! ```

pub use encompass;
pub use encompass_audit as audit;
pub use encompass_shard as shard;
pub use encompass_sim as sim;
pub use encompass_storage as storage;
pub use guardian;
pub use tmf;

/// The types an application, example, or test touching the TMF surface
/// needs: the simulator world, the catalog/schema types, the session with
/// its typed [`prelude::DbOp`] requests, and node wiring.
pub mod prelude {
    // simulator
    pub use encompass_sim::{
        Ctx, Fault, NodeId, Payload, Pid, Process, SimConfig, SimDuration, SimTime, TimerId, World,
    };
    // storage schema + disc surface
    pub use encompass_storage::discprocess::{DiscError, DiscReply, DiscRequest};
    pub use encompass_storage::types::{FileDef, PartitionSpec, RecoveryMode, VolumeRef};
    pub use encompass_storage::Catalog;
    // the TMF session and node wiring
    pub use encompass_storage::locks::LockScope;
    pub use tmf::facility::{
        spawn_tmf_network, spawn_tmf_node, ConfigError, NodeHandles, TmfNodeConfig,
        TmfNodeConfigBuilder,
    };
    pub use tmf::session::{DbOp, SessionError, SessionEvent, SessionOptions, TmfSession};
    pub use tmf::state::{AbortReason, TxState, TxnClass};
    pub use tmf::Transid;
    // application layer
    pub use encompass::app::{
        launch_bank_app, launch_shard_bank, AppBuilder, BankAppParams, ShardBankAppParams,
    };
    // sharding & suspense-file replication
    pub use encompass_shard::ShardMap;
}
