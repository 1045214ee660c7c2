//! [`CheopsConnect`]: the Cheops terminal method for the
//! [`Connector`] builder — the one way to obtain a [`CheopsClient`],
//! mirroring `FmConnect` in `nasd-fm`.

use crate::client::CheopsClient;
use crate::manager::{CheopsRequest, CheopsResponse};
use nasd_fm::DriveFleet;
use nasd_net::{Channel, Connector};
use std::sync::Arc;

/// Build Cheops clients from a [`Connector`]. The connector contributes
/// the transport policy (fault injection applies to the manager channel
/// exactly as to drive channels).
pub trait CheopsConnect {
    /// Connect client `id` to a spawned Cheops manager and drive fleet.
    #[must_use]
    fn cheops(
        &self,
        id: u64,
        mgr: Channel<CheopsRequest, CheopsResponse>,
        fleet: Arc<DriveFleet>,
    ) -> CheopsClient;
}

impl CheopsConnect for Connector {
    fn cheops(
        &self,
        id: u64,
        mgr: Channel<CheopsRequest, CheopsResponse>,
        fleet: Arc<DriveFleet>,
    ) -> CheopsClient {
        CheopsClient::attach(id, self.in_proc(mgr), fleet)
    }
}
