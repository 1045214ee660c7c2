//! Fixture: A1 violations. A fresh `fn call(` in the transport crate
//! resurrects the deleted blocking surface, and a `call_with` or
//! `with_faults` outside `transport.rs` forks the one call surface and
//! fault injector.

impl Rpc {
    /// The deleted API, sneaking back in.
    pub fn call(&self, req: Req) -> Result<Resp, RpcError> {
        self.call_with(req, &CallOptions::blocking())
    }

    /// A second retry loop beside `Channel::call_with`.
    pub fn call_with(&self, req: Req, opts: &CallOptions) -> Result<Resp, RpcError> {
        self.attempt(req, opts.attempt_timeout)
    }

    /// A second fault injector beside `Channel::with_faults`.
    pub fn with_faults(&self, faults: Arc<ChannelFaults>) -> Self {
        Rpc { faults }
    }
}

/// Same name as a free function with generics: still flagged.
pub fn call_timeout<T>(t: T) -> T {
    t
}
