//! Fixture: A1-clean. The one call surface and the one fault injector
//! live on `Channel` in `transport.rs`, where A1 allows them.

impl<Req, Resp> Channel<Req, Resp> {
    /// The single call surface.
    pub fn call_with(&self, req: Req, opts: &CallOptions) -> Result<Resp, RpcError> {
        self.inner.attempt(req, opts.attempt_timeout)
    }

    /// The single fault decorator.
    pub fn with_faults(&self, faults: Arc<ChannelFaults>) -> Self {
        self.wrap(faults)
    }
}
