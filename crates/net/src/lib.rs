//! Network substrate for the NASD reproduction.
//!
//! Two planes, mirroring `nasd-disk`:
//!
//! * **Timing** ([`NetworkModel`]): a switched network — each node owns a
//!   full-duplex link to a switch with "sufficient bisection bandwidth"
//!   (§7), so contention happens only at the endpoints' links, plus a
//!   protocol CPU-cost model ([`RpcCostModel`]) reproducing the paper's
//!   observation that "DCE RPC cannot push more than 80 Mb/s through a
//!   155 Mb/s ATM link before the receiving client saturates" (§4.3).
//! * **Functional**: a unified [`Transport`] abstraction behind the
//!   [`Channel`] handle every client holds — with two implementations:
//!   a private in-process transport over crossbeam channels, whose
//!   [`Channel`] [`spawn_service`] returns, and a real TCP/UDS socket
//!   transport ([`serve`], [`SocketClient`]) speaking the
//!   length-prefixed wire protocol with tagged frames, request
//!   pipelining and reply batching. [`Connector`] is how endpoints are
//!   built; [`Channel::call_with`] ([`CallOptions`]) is the single call
//!   surface on both, and [`Channel::with_faults`] the single fault
//!   injector.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod connect;
mod fault;
mod frame;
mod model;
mod options;
mod pacing;
mod rpc;
mod socket;
mod transport;

pub use connect::Connector;
pub use fault::{
    splitmix64, ChannelFaults, FaultAction, FaultConfig, FaultEvent, FaultPlan, RetryPolicy,
};
pub use frame::{
    classify_io, read_frame, write_frames, Frame, FrameBuf, FrameError, HEADER_LEN, MAX_FRAME_LEN,
};
pub use model::{LinkSpec, NetworkModel, NodeId, RpcCostModel};
pub use options::{CallOptions, CallStats};
pub use pacing::{pace, RatePacer};
pub use rpc::{spawn_service, RpcError, ServiceHandle};
pub use socket::{serve, BindAddr, ServerStats, SocketClient, WireServer, MAX_BATCH};
pub use transport::{Channel, Pending, Transport};
