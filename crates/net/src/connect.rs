//! [`Connector`]: the one way clients obtain a [`Channel`].
//!
//! Mirrors the PR 3 `DriveBuilder` pattern: configuration accumulates
//! on the builder (pool size, fault plan), then a terminal method
//! produces the endpoint — [`Connector::in_proc`] for the channel of a
//! threaded in-process service (from
//! [`spawn_service`](crate::spawn_service)), [`Connector::dial`] for one
//! over a real TCP/UDS socket. Either way the fault plan is applied by
//! the one fault decorator. Higher layers add their own terminal methods
//! via extension traits (`FmConnect::nfs/afs`, `CheopsConnect::cheops`, …)
//! so every client in the stack is constructed the same way and none of
//! them holds a raw transport.

use crate::fault::ChannelFaults;
use crate::socket::{BindAddr, SocketClient};
use crate::transport::Channel;
use nasd_proto::{Reply, Request};
use std::io;
use std::sync::Arc;

/// Builder for transport endpoints. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct Connector {
    faults: Option<Arc<ChannelFaults>>,
    pool: usize,
}

impl Connector {
    /// A connector with defaults: no fault injection, single-connection
    /// pool.
    #[must_use]
    pub fn new() -> Self {
        Connector::default()
    }

    /// Pool size for socket endpoints (clamped to at least one
    /// connection; in-proc endpoints ignore it).
    #[must_use]
    pub fn pool(mut self, connections: usize) -> Self {
        self.pool = connections;
        self
    }

    /// Subject every endpoint built from this connector to seeded
    /// connection-level fault injection (drop/dup/delay per the plan's
    /// deterministic schedule) — the chaos suite's hook into both
    /// transports.
    #[must_use]
    pub fn faults(mut self, faults: Arc<ChannelFaults>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Apply the configured fault decorator, if any.
    fn wrap<Req: Send + Clone + 'static, Resp: Send + 'static>(
        &self,
        ch: Channel<Req, Resp>,
    ) -> Channel<Req, Resp> {
        match &self.faults {
            Some(f) => ch.with_faults(Arc::clone(f)),
            None => ch,
        }
    }

    /// The channel of an in-process service (from
    /// [`spawn_service`](crate::spawn_service)) under this connector's
    /// fault plan.
    #[must_use]
    pub fn in_proc<Req: Send + Clone + 'static, Resp: Send + 'static>(
        &self,
        ch: Channel<Req, Resp>,
    ) -> Channel<Req, Resp> {
        self.wrap(ch)
    }

    /// A channel over a real socket to a wire server speaking drive
    /// traffic — the only message family with a wire codec.
    ///
    /// # Errors
    ///
    /// The dial failure, verbatim.
    pub fn dial(&self, addr: &BindAddr) -> io::Result<Channel<Request, Reply>> {
        let client = SocketClient::dial(addr, self.pool.max(1))?;
        Ok(self.wrap(Channel::new(Arc::new(client))))
    }
}
