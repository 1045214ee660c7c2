//! Real sockets: a multi-threaded TCP/UDS drive server and a pooled,
//! pipelining client — the paper's drive-on-the-network (§3) made
//! concrete.
//!
//! ## Server anatomy
//!
//! [`serve`] binds a [`BindAddr`] and spawns:
//!
//! - one **acceptor** thread looping on `accept`;
//! - per connection, a **reader** thread (frame → decode →
//!   [`Request`] → work queue) and a **writer** thread (reply queue →
//!   batched [`write_frames`], coalescing up to [`MAX_BATCH`] replies
//!   per `writev` round);
//! - a shared pool of **worker** threads executing the service function
//!   — requests from many connections interleave, which is what gives
//!   one slow client no power to starve the rest.
//!
//! Graceful shutdown ([`WireServer::shutdown`]) closes every socket,
//! lets readers/workers/writers drain, and joins all threads.
//!
//! ## Client anatomy
//!
//! [`SocketClient`] keeps a small pool of connections; each owns a
//! reader thread demuxing tagged replies to per-request waiters, so any
//! number of requests can be in flight per connection and complete out
//! of order (pipelining). Dead connections are re-dialed lazily on the
//! next attempt, which is why [`Transport::reconnects`] is `true` for
//! this transport — `Disconnected` is retryable here.
//!
//! ## Copy discipline
//!
//! Requests and replies are staged as [`FrameBuf`]s straight from
//! `encode_frame`: header + encoded head + shared payload segments,
//! written with vectored I/O. The server measures its own send path
//! ([`ServerStats::send_copies`]): for cached reads the payload bytes
//! memcpied on the send side must be zero, and the perf harness holds
//! that line.

use crate::frame::{read_frame, write_frames, FrameBuf, FrameError};
use crate::rpc::RpcError;
use crate::transport::{Pending, Transport};
use bytes::stats as byte_stats;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use nasd_obs::Counter;
use nasd_proto::wire::WireWriter;
use nasd_proto::{NasdStatus, Reply, Request};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Maximum replies a writer thread coalesces into one vectored write.
pub const MAX_BATCH: usize = 32;

/// Where a wire server listens / a client dials: TCP or a Unix-domain
/// socket path. CI uses UDS (no ports to fight over); TCP is the
/// paper's actual deployment shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindAddr {
    /// TCP endpoint. Bind with port 0 to let the OS pick; the resolved
    /// address comes back from [`serve`].
    Tcp(SocketAddr),
    /// Unix-domain socket path. [`serve`] removes a stale file first;
    /// [`WireServer::shutdown`] removes it again on the way out.
    Uds(PathBuf),
}

impl std::fmt::Display for BindAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindAddr::Tcp(a) => write!(f, "tcp://{a}"),
            BindAddr::Uds(p) => write!(f, "uds://{}", p.display()),
        }
    }
}

/// Process-wide counter so every [`BindAddr::uds_temp`] path is unique
/// even within one test binary.
static UDS_SEQ: AtomicU64 = AtomicU64::new(0);

impl BindAddr {
    /// Loopback TCP with an OS-assigned port.
    #[must_use]
    pub fn tcp_ephemeral() -> Self {
        BindAddr::Tcp(SocketAddr::from(([127, 0, 0, 1], 0)))
    }

    /// A fresh Unix-socket path under the system temp directory,
    /// unique per process and call — what tests and the CI smoke job
    /// bind to.
    #[must_use]
    pub fn uds_temp(label: &str) -> Self {
        let seq = UDS_SEQ.fetch_add(1, Ordering::Relaxed);
        let pid = std::process::id();
        BindAddr::Uds(std::env::temp_dir().join(format!("nasd-{label}-{pid}-{seq}.sock")))
    }
}

/// A connected stream of either flavor. `write_vectored` MUST delegate
/// (the default `Write` impl falls back to plain `write`, which would
/// silently defeat the `writev` batching this transport is built on).
enum Stream {
    Tcp(TcpStream),
    Uds(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            Stream::Uds(s) => s.try_clone().map(Stream::Uds),
        }
    }

    /// Best-effort full shutdown — used to unblock reader threads; a
    /// failure means the peer beat us to it.
    fn shutdown_both(&self) {
        // nasd-lint: allow(swallowed-error, "shutdown races with the peer closing first; either way the socket is dead")
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Uds(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Uds(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write_vectored(bufs),
            Stream::Uds(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Uds(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Uds(UnixListener),
}

impl Listener {
    /// Bind, returning the listener and the *resolved* address (TCP
    /// port 0 becomes the real port).
    fn bind(addr: &BindAddr) -> io::Result<(Listener, BindAddr)> {
        match addr {
            BindAddr::Tcp(a) => {
                let l = TcpListener::bind(a)?;
                let resolved = BindAddr::Tcp(l.local_addr()?);
                Ok((Listener::Tcp(l), resolved))
            }
            BindAddr::Uds(p) => {
                // A stale socket file from a dead process would make
                // bind fail; removing a path that isn't there is fine.
                // nasd-lint: allow(swallowed-error, "stale-socket cleanup; bind below reports the real failure if any")
                let _ = std::fs::remove_file(p);
                let l = UnixListener::bind(p)?;
                Ok((Listener::Uds(l), BindAddr::Uds(p.clone())))
            }
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            Listener::Uds(l) => l.accept().map(|(s, _)| Stream::Uds(s)),
        }
    }
}

/// Server-side counters, readable while the server runs.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections: Counter,
    /// Request frames successfully decoded and dispatched.
    pub frames_in: Counter,
    /// Reply frames handed to writer threads.
    pub frames_out: Counter,
    /// Frames whose payload failed to decode as a [`Request`] (the
    /// client gets a [`NasdStatus::BadRequest`] reply, the connection
    /// survives).
    pub decode_errors: Counter,
    /// Payload bytes memcpied on the send side (reply encode + write),
    /// measured via the thread-local copy ledger. Cached reads must
    /// keep this at zero — the perf harness asserts it.
    pub send_copies: Counter,
}

/// One unit of work: a decoded request, its correlation tag, and the
/// reply queue of the connection it arrived on.
struct Job {
    tag: u64,
    req: Request,
    out: Sender<FrameBuf>,
}

/// Encode a reply into a [`FrameBuf`], debiting any bytes the encode
/// itself copied to the server's send-copy counter. Payload segments
/// ride as shared handles, so for data replies this counts only the
/// fixed head.
fn encode_reply(tag: u64, reply: &Reply, stats: &ServerStats) -> Result<FrameBuf, FrameError> {
    let before = byte_stats::bytes_copied();
    let mut head = WireWriter::new();
    let mut segments = Vec::new();
    reply.encode_frame(&mut head, &mut segments);
    stats
        .send_copies
        .add(byte_stats::bytes_copied().saturating_sub(before));
    FrameBuf::new(tag, head.into_vec(), segments)
}

fn worker_loop<F>(work: &Receiver<Job>, service: &F, stats: &ServerStats)
where
    F: Fn(Request) -> Reply,
{
    while let Ok(job) = work.recv() {
        let reply = service(job.req);
        let frame = match encode_reply(job.tag, &reply, stats) {
            Ok(f) => f,
            // A reply too large to frame becomes an in-band error; the
            // error reply itself is tiny and cannot fail to frame.
            Err(FrameError::Oversized(_)) => {
                match encode_reply(job.tag, &Reply::error(NasdStatus::DriveError), stats) {
                    Ok(f) => f,
                    Err(_) => continue,
                }
            }
            Err(_) => continue,
        };
        stats.frames_out.inc();
        // A send failure means the connection's writer is gone; the
        // client will see the disconnect.
        // nasd-lint: allow(swallowed-error, "reply to a vanished connection; the disconnect is the client's signal")
        let _ = job.out.send(frame);
    }
}

/// Reader side of one server connection: frames in, requests decoded,
/// jobs dispatched. Malformed payloads get an in-band `BadRequest`
/// reply; framing errors end the connection.
fn conn_reader(
    mut stream: Stream,
    work: &Sender<Job>,
    out: &Sender<FrameBuf>,
    stats: &ServerStats,
) {
    while let Ok(frame) = read_frame(&mut stream) {
        match Request::from_wire_shared(frame.payload) {
            Ok(req) => {
                stats.frames_in.inc();
                if work
                    .send(Job {
                        tag: frame.tag,
                        req,
                        out: out.clone(),
                    })
                    .is_err()
                {
                    break; // server shutting down
                }
            }
            Err(_) => {
                stats.decode_errors.inc();
                if let Ok(f) = encode_reply(frame.tag, &Reply::error(NasdStatus::BadRequest), stats)
                {
                    if out.send(f).is_err() {
                        break;
                    }
                }
            }
        }
    }
    stream.shutdown_both();
}

/// Writer side of one connection: drain the reply queue, coalescing up
/// to [`MAX_BATCH`] frames per vectored write. Write-side copies (there
/// should be none beyond the 12-byte headers) are debited to the
/// server's ledger column.
fn conn_writer(mut stream: Stream, replies: &Receiver<FrameBuf>, stats: &ServerStats) {
    let mut batch: Vec<FrameBuf> = Vec::with_capacity(MAX_BATCH);
    while let Ok(first) = replies.recv() {
        batch.clear();
        batch.push(first);
        while batch.len() < MAX_BATCH {
            match replies.try_recv() {
                Ok(f) => batch.push(f),
                Err(_) => break,
            }
        }
        let before = byte_stats::bytes_copied();
        let result = write_frames(&mut stream, &batch);
        stats
            .send_copies
            .add(byte_stats::bytes_copied().saturating_sub(before));
        if result.is_err() {
            break;
        }
    }
    stream.shutdown_both();
}

/// A running wire server. Dropping it (or calling
/// [`WireServer::shutdown`]) closes every connection and joins every
/// thread.
pub struct WireServer {
    addr: BindAddr,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
    work_tx: Option<Sender<Job>>,
    threads: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<Stream>>>,
}

impl std::fmt::Debug for WireServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireServer")
            .field("addr", &self.addr)
            .field("threads", &self.threads.len())
            .finish()
    }
}

/// Start a wire server: bind `addr`, run `service` on a pool of
/// `workers` threads (clamped to at least one), spawn
/// reader/writer threads per accepted connection.
///
/// The service function sees whole decoded [`Request`]s and returns
/// whole [`Reply`]s; framing, decoding, tagging and batching are the
/// server's business. Drive services wrap `NasdDrive::handle` here
/// (behind a mutex — the drive itself is single-threaded by design,
/// the concurrency win is overlapping I/O and framing across
/// connections).
///
/// # Errors
///
/// Propagates the bind failure (address in use, bad path, …).
pub fn serve<F>(addr: &BindAddr, workers: usize, service: F) -> io::Result<WireServer>
where
    F: Fn(Request) -> Reply + Send + Sync + 'static,
{
    let (listener, resolved) = Listener::bind(addr)?;
    let stats = Arc::new(ServerStats::default());
    let stop = Arc::new(AtomicBool::new(false));
    let conns: Arc<Mutex<Vec<Stream>>> = Arc::new(Mutex::new(Vec::new()));
    let (work_tx, work_rx) = unbounded::<Job>();
    let service = Arc::new(service);
    let mut threads = Vec::new();

    for _ in 0..workers.max(1) {
        let rx = work_rx.clone();
        let svc = Arc::clone(&service);
        let st = Arc::clone(&stats);
        threads.push(std::thread::spawn(move || {
            worker_loop(&rx, svc.as_ref(), &st);
        }));
    }

    {
        let stop = Arc::clone(&stop);
        let stats = Arc::clone(&stats);
        let conns = Arc::clone(&conns);
        let work_tx = work_tx.clone();
        threads.push(std::thread::spawn(move || {
            let mut conn_threads = Vec::new();
            loop {
                let stream = match listener.accept() {
                    Ok(s) => s,
                    Err(_) => break,
                };
                if stop.load(Ordering::SeqCst) {
                    // The wake-up dial from shutdown lands here.
                    stream.shutdown_both();
                    break;
                }
                stats.connections.inc();
                let (reader_stream, writer_stream, registered) =
                    match (stream.try_clone(), stream.try_clone()) {
                        (Ok(w), Ok(r)) => (stream, w, r),
                        _ => {
                            stream.shutdown_both();
                            continue;
                        }
                    };
                conns.lock().push(registered);
                let (reply_tx, reply_rx) = unbounded::<FrameBuf>();
                {
                    let work = work_tx.clone();
                    let st = Arc::clone(&stats);
                    conn_threads.push(std::thread::spawn(move || {
                        conn_reader(reader_stream, &work, &reply_tx, &st);
                    }));
                }
                {
                    let st = Arc::clone(&stats);
                    conn_threads.push(std::thread::spawn(move || {
                        conn_writer(writer_stream, &reply_rx, &st);
                    }));
                }
            }
            for t in conn_threads {
                // A panicking connection thread is a bug, but the
                // acceptor is the last thread standing at shutdown —
                // re-raising here would abort the join sequence. The
                // chaos suite asserts on stats instead.
                // nasd-lint: allow(swallowed-error, "join of connection threads at shutdown; panics surface via missing replies in tests")
                let _ = t.join();
            }
        }));
    }

    Ok(WireServer {
        addr: resolved,
        stats,
        stop,
        work_tx: Some(work_tx),
        threads,
        conns,
    })
}

impl WireServer {
    /// The resolved listen address (real port for TCP port-0 binds) —
    /// what clients dial.
    #[must_use]
    pub fn addr(&self) -> &BindAddr {
        &self.addr
    }

    /// Live server counters.
    #[must_use]
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor: it only checks the flag after accept
        // returns, so dial it once. Failure means it is already gone.
        // nasd-lint: allow(swallowed-error, "wake-up dial; if the listener is already closed the acceptor has already exited")
        let _ = match &self.addr {
            BindAddr::Tcp(a) => TcpStream::connect(a).map(Stream::Tcp).map(|s| {
                s.shutdown_both();
            }),
            BindAddr::Uds(p) => UnixStream::connect(p).map(Stream::Uds).map(|s| {
                s.shutdown_both();
            }),
        };
        // Close every live connection: readers unblock and exit, their
        // job/reply senders drop, workers and writers drain out.
        for c in self.conns.lock().drain(..) {
            c.shutdown_both();
        }
        // Dropping the server's clone of the work queue lets workers
        // observe disconnect once the readers' clones are gone too.
        self.work_tx = None;
        for t in self.threads.drain(..) {
            // nasd-lint: allow(swallowed-error, "thread join at teardown; a panicked worker shows up as test failure via dropped replies")
            let _ = t.join();
        }
        if let BindAddr::Uds(p) = &self.addr {
            // nasd-lint: allow(swallowed-error, "socket-file cleanup; a missing file is the desired end state")
            let _ = std::fs::remove_file(p);
        }
    }

    /// Graceful shutdown: close sockets, drain queues, join all
    /// threads, remove the UDS socket file.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.stop_inner();
        }
    }
}

/// One pooled client connection: a writer queue, a demux map from tag
/// to waiter, and a detached reader thread filling it.
struct Conn {
    tx: Sender<FrameBuf>,
    pending: Arc<Mutex<HashMap<u64, Sender<Reply>>>>,
    next_tag: AtomicU64,
    alive: Arc<AtomicBool>,
    stream: Stream,
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.stream.shutdown_both();
    }
}

impl Conn {
    fn dial(addr: &BindAddr) -> io::Result<Arc<Conn>> {
        let stream = match addr {
            BindAddr::Tcp(a) => Stream::Tcp(TcpStream::connect(a)?),
            BindAddr::Uds(p) => Stream::Uds(UnixStream::connect(p)?),
        };
        let mut reader = stream.try_clone()?;
        let mut writer = stream.try_clone()?;
        let pending: Arc<Mutex<HashMap<u64, Sender<Reply>>>> = Arc::new(Mutex::new(HashMap::new()));
        let alive = Arc::new(AtomicBool::new(true));
        let (tx, rx) = unbounded::<FrameBuf>();

        {
            let pending = Arc::clone(&pending);
            let alive = Arc::clone(&alive);
            std::thread::spawn(move || {
                while let Ok(frame) = read_frame(&mut reader) {
                    let waiter = pending.lock().remove(&frame.tag);
                    if let Some(w) = waiter {
                        if let Ok(reply) = Reply::from_wire_shared(frame.payload) {
                            // A waiter that timed out and left is fine.
                            // nasd-lint: allow(swallowed-error, "late reply after the caller timed out; dropping it is the contract")
                            let _ = w.send(reply);
                        }
                    }
                    // No waiter: a reply to a request whose caller gave
                    // up — dropped by design, same as the in-proc
                    // service's replies_dropped path.
                }
                alive.store(false, Ordering::SeqCst);
                // Every in-flight waiter sees Disconnected, not a hang.
                pending.lock().clear();
            });
        }

        {
            let alive = Arc::clone(&alive);
            let mut batch: Vec<FrameBuf> = Vec::with_capacity(MAX_BATCH);
            std::thread::spawn(move || {
                while let Ok(first) = rx.recv() {
                    batch.clear();
                    batch.push(first);
                    while batch.len() < MAX_BATCH {
                        match rx.try_recv() {
                            Ok(f) => batch.push(f),
                            Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
                        }
                    }
                    if write_frames(&mut writer, &batch).is_err() {
                        break;
                    }
                }
                alive.store(false, Ordering::SeqCst);
                writer.shutdown_both();
            });
        }

        Ok(Arc::new(Conn {
            tx,
            pending,
            next_tag: AtomicU64::new(1),
            alive,
            stream,
        }))
    }

    /// Send `req` on this connection; the reply will arrive on the
    /// returned receiver (capacity 1 — the reader never blocks on a
    /// slow caller).
    fn begin(&self, req: &Request) -> Result<(u64, Receiver<Reply>), RpcError> {
        if !self.alive.load(Ordering::SeqCst) {
            return Err(RpcError::Disconnected);
        }
        let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = bounded(1);
        self.pending.lock().insert(tag, reply_tx);
        let mut head = WireWriter::new();
        let mut segments = Vec::new();
        req.encode_frame(&mut head, &mut segments);
        let frame = FrameBuf::new(tag, head.into_vec(), segments).map_err(|e| e.to_rpc())?;
        if self.tx.send(frame).is_err() {
            self.pending.lock().remove(&tag);
            return Err(RpcError::Disconnected);
        }
        Ok((tag, reply_rx))
    }

    fn forget(&self, tag: u64) {
        self.pending.lock().remove(&tag);
    }
}

/// A pooled, pipelining socket client for drive traffic: the `Socket`
/// implementation of [`Transport`]`<Request, Reply>`.
///
/// Requests round-robin over a small connection pool; each connection
/// supports unbounded in-flight requests with out-of-order completion
/// (tagged frames). A connection that dies is re-dialed on the next
/// attempt that lands on its pool slot, so [`Transport::reconnects`]
/// is `true` and the [`Channel`](crate::Channel) retry loop treats
/// `Disconnected` as retryable.
pub struct SocketClient {
    addr: BindAddr,
    pool: Vec<Mutex<Option<Arc<Conn>>>>,
    next: AtomicUsize,
}

impl std::fmt::Debug for SocketClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketClient")
            .field("addr", &self.addr)
            .field("pool", &self.pool.len())
            .finish()
    }
}

impl SocketClient {
    /// Dial `addr` with a pool of `pool` connections (clamped to at
    /// least one). The first connection is established eagerly so a bad
    /// address fails here, not on the first call.
    ///
    /// # Errors
    ///
    /// The dial failure, verbatim.
    pub fn dial(addr: &BindAddr, pool: usize) -> io::Result<SocketClient> {
        let pool_size = pool.max(1);
        let first = Conn::dial(addr)?;
        let mut slots = Vec::with_capacity(pool_size);
        slots.push(Mutex::new(Some(first)));
        for _ in 1..pool_size {
            slots.push(Mutex::new(None));
        }
        Ok(SocketClient {
            addr: addr.clone(),
            pool: slots,
            next: AtomicUsize::new(1),
        })
    }

    /// The dialed address.
    #[must_use]
    pub fn addr(&self) -> &BindAddr {
        &self.addr
    }

    /// Pick the next pool slot (round-robin), re-dialing it if its
    /// connection is absent or dead.
    fn conn(&self) -> Result<Arc<Conn>, RpcError> {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = self.pool.get(n % self.pool.len().max(1)) else {
            return Err(RpcError::Disconnected);
        };
        let mut guard = slot.lock();
        if let Some(c) = guard.as_ref() {
            if c.alive.load(Ordering::SeqCst) {
                return Ok(Arc::clone(c));
            }
        }
        match Conn::dial(&self.addr) {
            Ok(c) => {
                *guard = Some(Arc::clone(&c));
                Ok(c)
            }
            Err(e) => {
                *guard = None;
                Err(crate::frame::classify_io(e.kind()))
            }
        }
    }
}

impl Transport<Request, Reply> for SocketClient {
    fn attempt(&self, req: Request, timeout: Option<Duration>) -> Result<Reply, RpcError> {
        let conn = self.conn()?;
        let (tag, rx) = conn.begin(&req)?;
        match timeout {
            None => rx.recv().map_err(|_| RpcError::Disconnected),
            Some(t) => rx.recv_timeout(t).map_err(|e| {
                conn.forget(tag);
                match e {
                    RecvTimeoutError::Timeout => RpcError::TimedOut,
                    RecvTimeoutError::Disconnected => RpcError::Disconnected,
                }
            }),
        }
    }

    fn call_async(&self, req: Request) -> Result<Pending<Reply>, RpcError> {
        let conn = self.conn()?;
        let (_tag, rx) = conn.begin(&req)?;
        Ok(Pending::new(rx))
    }

    fn reconnects(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "socket"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultPlan};
    use crate::options::CallOptions;
    use crate::Connector;
    use bytes::{ByteRope, Bytes};
    use nasd_crypto::Sha256;
    use nasd_proto::wire::WireEncode;
    use nasd_proto::{
        Nonce, ObjectId, PartitionId, ProtectionLevel, ReplyBody, RequestBody, RequestDigest,
        SecurityHeader,
    };

    /// A write-shaped request whose payload is `data`; `mark` lands in
    /// the object id so the echo service can key behavior off it.
    fn request(mark: u64, data: Vec<u8>) -> Request {
        let len = u64::try_from(data.len()).unwrap_or(u64::MAX);
        Request {
            header: SecurityHeader {
                protection: ProtectionLevel::ArgsIntegrity,
                nonce: Nonce::new(1, mark),
            },
            capability: None,
            body: RequestBody::Write {
                partition: PartitionId(1),
                object: ObjectId(mark),
                offset: 0,
                len,
            },
            digest: RequestDigest(Sha256::digest(b"socket-test")),
            data: Bytes::from(data),
        }
    }

    /// Echo service: replies with the request payload as shared bytes.
    fn echo(req: Request) -> Reply {
        Reply::ok(ReplyBody::Data(ByteRope::from(req.data)))
    }

    fn reply_data(reply: &Reply) -> Vec<u8> {
        match &reply.body {
            ReplyBody::Data(rope) => rope.to_vec(),
            other => panic!("expected data reply, got {other:?}"),
        }
    }

    #[test]
    fn uds_roundtrip_echoes_payload() {
        let server = serve(&BindAddr::uds_temp("echo"), 2, echo).unwrap();
        let client = SocketClient::dial(server.addr(), 1).unwrap();
        let reply = client
            .attempt(request(1, vec![0xa5; 4096]), Some(Duration::from_secs(5)))
            .unwrap();
        assert!(reply.status.is_ok());
        assert_eq!(reply_data(&reply), vec![0xa5; 4096]);
        assert_eq!(server.stats().frames_in.value(), 1);
        assert_eq!(server.stats().frames_out.value(), 1);
        server.shutdown();
    }

    #[test]
    fn tcp_roundtrip_echoes_payload() {
        let server = serve(&BindAddr::tcp_ephemeral(), 2, echo).unwrap();
        // Port 0 must have been resolved to a real port.
        match server.addr() {
            BindAddr::Tcp(a) => assert_ne!(a.port(), 0),
            BindAddr::Uds(_) => panic!("bound TCP, resolved UDS"),
        }
        let client = SocketClient::dial(server.addr(), 2).unwrap();
        for i in 0..4u64 {
            let reply = client
                .attempt(request(i, vec![0x5a; 1024]), Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(reply_data(&reply), vec![0x5a; 1024]);
        }
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_complete_out_of_order() {
        // The service stalls requests marked `1`; others return at once.
        // With both in flight on ONE connection, the fast one must come
        // back first — out-of-order completion over tagged frames.
        let service = |req: Request| {
            if req.body.object() == Some(ObjectId(1)) {
                std::thread::sleep(Duration::from_millis(150));
            }
            echo(req)
        };
        let server = serve(&BindAddr::uds_temp("pipeline"), 2, service).unwrap();
        let client = SocketClient::dial(server.addr(), 1).unwrap();
        let slow = client.call_async(request(1, vec![1; 8])).unwrap();
        let fast = client.call_async(request(2, vec![2; 8])).unwrap();
        // The fast reply lands while the slow request is still parked in
        // its worker; a blocked pipeline would time this out.
        let fast_reply = fast.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(reply_data(&fast_reply), vec![2; 8]);
        let slow_reply = slow.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(reply_data(&slow_reply), vec![1; 8]);
        server.shutdown();
    }

    #[test]
    fn socket_reply_bytes_match_in_proc_exactly() {
        // The same service reached both ways must produce byte-identical
        // wire replies — the transports may not disturb the protocol.
        let server = serve(&BindAddr::uds_temp("parity"), 1, echo).unwrap();
        let socket = Connector::new().dial(server.addr()).unwrap();
        let (in_proc, _handle) = crate::spawn_service(echo);
        let opts = CallOptions::blocking();
        for i in 0..8u64 {
            let req = request(i, vec![0x11 ^ (i as u8); 2048]);
            let a = socket.call_with(req.clone(), &opts).unwrap();
            let b = in_proc.call_with(req, &opts).unwrap();
            assert_eq!(a.to_wire(), b.to_wire(), "request {i}");
        }
        server.shutdown();
    }

    #[test]
    fn malformed_payload_gets_bad_request_and_connection_survives() {
        let server = serve(&BindAddr::uds_temp("garbage"), 1, echo).unwrap();
        let BindAddr::Uds(path) = server.addr().clone() else {
            panic!("expected UDS")
        };
        let mut stream = UnixStream::connect(&path).unwrap();
        // A frame whose payload is not a decodable Request.
        let garbage = FrameBuf::new(7, vec![0xff, 0xee, 0xdd], Vec::new()).unwrap();
        write_frames(&mut stream, std::slice::from_ref(&garbage)).unwrap();
        let frame = read_frame(&mut stream).unwrap();
        assert_eq!(frame.tag, 7);
        let reply = Reply::from_wire_shared(frame.payload).unwrap();
        assert_eq!(reply.status, NasdStatus::BadRequest);
        assert_eq!(server.stats().decode_errors.value(), 1);
        // Same connection still serves well-formed traffic.
        let req = request(3, vec![9; 64]);
        let mut head = WireWriter::new();
        let mut segments = Vec::new();
        req.encode_frame(&mut head, &mut segments);
        let good = FrameBuf::new(8, head.into_vec(), segments).unwrap();
        write_frames(&mut stream, std::slice::from_ref(&good)).unwrap();
        let frame = read_frame(&mut stream).unwrap();
        assert_eq!(frame.tag, 8);
        let reply = Reply::from_wire_shared(frame.payload).unwrap();
        assert_eq!(reply_data(&reply), vec![9; 64]);
        server.shutdown();
    }

    #[test]
    fn client_redials_after_server_restart() {
        let addr = BindAddr::uds_temp("restart");
        let server = serve(&addr, 1, echo).unwrap();
        let channel = Connector::new().dial(&addr).unwrap();
        let opts = CallOptions::blocking();
        assert!(channel.call_with(request(1, vec![1; 16]), &opts).is_ok());
        server.shutdown();
        // Dead server: the pooled connection is gone and re-dial fails.
        assert!(channel.call_with(request(2, vec![2; 16]), &opts).is_err());
        // New server on the same address: the retry loop re-dials
        // because the socket transport reconnects.
        let server = serve(&addr, 1, echo).unwrap();
        let retry = CallOptions::retry(crate::RetryPolicy::standard());
        let reply = channel.call_with(request(3, vec![3; 16]), &retry).unwrap();
        assert_eq!(reply_data(&reply), vec![3; 16]);
        server.shutdown();
    }

    #[test]
    fn shutdown_removes_socket_file_and_joins() {
        let addr = BindAddr::uds_temp("teardown");
        let server = serve(&addr, 2, echo).unwrap();
        let client = SocketClient::dial(&addr, 1).unwrap();
        client
            .attempt(request(1, vec![4; 32]), Some(Duration::from_secs(5)))
            .unwrap();
        let BindAddr::Uds(path) = addr else {
            panic!("expected UDS")
        };
        assert!(path.exists());
        server.shutdown();
        assert!(!path.exists(), "shutdown must remove the socket file");
        // Calls after shutdown fail cleanly rather than hang.
        assert!(client
            .attempt(request(2, vec![5; 32]), Some(Duration::from_secs(1)))
            .is_err());
    }

    #[test]
    fn seeded_faults_on_socket_match_in_proc_replies() {
        // Satellite: pipelining correctness under fault injection. For
        // three seeds, a fault-wrapped socket channel and a
        // fault-wrapped in-proc channel (fresh but identically seeded
        // plans) must converge to byte-identical replies under retry.
        for seed in [0x5eed_0001u64, 0x5eed_0002, 0x5eed_0003] {
            let server = serve(&BindAddr::uds_temp("faults"), 2, echo).unwrap();
            let config = FaultConfig {
                drop: 0.2,
                duplicate: 0.1,
                delay: 0.2,
                max_delay: Duration::from_micros(200),
                drop_reply: 0.2,
            };
            let sock_plan = FaultPlan::new(seed);
            let socket = Connector::new()
                .faults(sock_plan.channel(1, config))
                .dial(server.addr())
                .unwrap();
            let (ch, _handle) = crate::spawn_service(echo);
            let proc_plan = FaultPlan::new(seed);
            let in_proc = Connector::new()
                .faults(proc_plan.channel(1, config))
                .in_proc(ch);
            let opts = CallOptions {
                policy: crate::RetryPolicy::standard(),
                attempt_timeout: Some(Duration::from_millis(200)),
                stats: None,
            };
            for i in 0..16u64 {
                let req = request(i, vec![(i as u8) | 0x40; 512]);
                let a = socket.call_with(req.clone(), &opts).unwrap();
                let b = in_proc.call_with(req, &opts).unwrap();
                assert_eq!(a.to_wire(), b.to_wire(), "seed {seed:#x} request {i}");
            }
            // Both plans consumed the same deterministic schedule.
            assert_eq!(sock_plan.trace(), proc_plan.trace(), "seed {seed:#x}");
            server.shutdown();
        }
    }
}
