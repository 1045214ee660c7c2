//! [`FmConnect`]: file-manager terminal methods for the
//! [`Connector`] builder.
//!
//! Mirrors the PR 3 `DriveBuilder` pattern: every client in the stack
//! is obtained from a [`Connector`], never from an ad-hoc constructor —
//! so transport concerns (fault injection, pooling, in-proc vs socket)
//! are decided in exactly one place.
//!
//! ```ignore
//! let fm = NasdNfs::new(fleet.clone())?.spawn().0;
//! let client = Connector::new().nfs(fm, fleet)?;
//! ```

use crate::afs::{AfsClient, AfsRequest, AfsResponse};
use crate::drives::DriveFleet;
use crate::handle::FmError;
use crate::nfs::{NfsClient, NfsRequest, NfsResponse};
use nasd_net::{Channel, Connector};
use std::sync::Arc;

/// Build file-manager clients from a [`Connector`]. The manager side
/// stays a spawned in-process service (manager RPCs have no wire
/// codec); the connector contributes the transport policy — fault
/// injection applies to the manager channel exactly as it does to
/// drive channels.
pub trait FmConnect {
    /// Connect an NFS-style client: fetches the root handle from the
    /// manager over the built channel.
    ///
    /// # Errors
    ///
    /// Transport failures or a manager error.
    fn nfs(
        &self,
        fm: Channel<NfsRequest, NfsResponse>,
        fleet: Arc<DriveFleet>,
    ) -> Result<NfsClient, FmError>;

    /// Connect an NFS-style client across `fms` file-manager shards
    /// (from [`NasdNfs::spawn_sharded`](crate::NasdNfs::spawn_sharded)):
    /// requests route by handle hash, and the client-side
    /// capability-issue cache is enabled so repeated opens skip the
    /// manager entirely.
    ///
    /// # Errors
    ///
    /// Transport failures, a manager error, or an empty shard list.
    fn nfs_sharded(
        &self,
        fms: Vec<Channel<NfsRequest, NfsResponse>>,
        fleet: Arc<DriveFleet>,
    ) -> Result<NfsClient, FmError>;

    /// Connect AFS-style client `id`: registers the callback channel
    /// and fetches the root.
    ///
    /// # Errors
    ///
    /// Transport failures or a manager error.
    fn afs(
        &self,
        id: u64,
        fm: Channel<AfsRequest, AfsResponse>,
        fleet: Arc<DriveFleet>,
    ) -> Result<AfsClient, FmError>;
}

impl FmConnect for Connector {
    fn nfs(
        &self,
        fm: Channel<NfsRequest, NfsResponse>,
        fleet: Arc<DriveFleet>,
    ) -> Result<NfsClient, FmError> {
        NfsClient::attach(self.in_proc(fm), fleet)
    }

    fn nfs_sharded(
        &self,
        fms: Vec<Channel<NfsRequest, NfsResponse>>,
        fleet: Arc<DriveFleet>,
    ) -> Result<NfsClient, FmError> {
        let channels = fms.into_iter().map(|fm| self.in_proc(fm)).collect();
        let mut client = NfsClient::attach_sharded(channels, fleet)?;
        client.enable_cap_cache(4096, None);
        Ok(client)
    }

    fn afs(
        &self,
        id: u64,
        fm: Channel<AfsRequest, AfsResponse>,
        fleet: Arc<DriveFleet>,
    ) -> Result<AfsClient, FmError> {
        AfsClient::attach(id, self.in_proc(fm), fleet)
    }
}
