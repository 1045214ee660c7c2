//! The traced run: spans recorded from this benchmark's own decorators
//! around the library's public entry points, and the per-layer split
//! computed from them.
//!
//! Decorators (each a public-API composition, nothing inside the library
//! changes):
//!
//! - [`TracedTransport`]: a `Transport` over a drive `Channel`, installed
//!   with `Channel::new` + `DriveEndpoint::over`/`reconnect`. One
//!   `net.call` span per transport attempt, on the calling thread.
//! - [`drive_service`]: the `nasd_net::serve` service closure that
//!   `serve_drive_socket` uses (mutex, `set_clock`, `handle`), timed:
//!   `object.lock_wait` and `object.handle` spans on the worker thread.
//! - [`TimedDisk`]: a `BlockDevice` under the drive (`build_on`), timing
//!   every block read and write.
//! - [`fm_service`]: the file manager's service loop body
//!   (`NasdNfs::handle`), timed as an `fm.manager` span.
//!
//! Spans are kept in memory and analysed when the run ends. A client op
//! owns a bench-minted id; a drive call carries it to the drive through
//! the request nonce, which both the client decorator and the service
//! closure see. Manager calls are matched to the client op that issued
//! them by the entry name they name (manager requests carry no id).
//!
//! Nesting: client op → (`fm.call` → `fm.manager`) → `net.call` →
//! `object.lock_wait` / `object.handle` → disk. A span's self time is its
//! duration minus the part of it its children cover.

use crate::alloc;
use nasd_disk::{BlockDevice, DiskError};
use nasd_fm::{NasdNfs, NfsRequest, NfsResponse};
use nasd_net::{CallOptions, Channel, Pending, RpcError, Transport};
use nasd_object::{CacheStats, NasdDrive, OpKind};
use nasd_proto::{Reply, Request};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

thread_local! {
    /// The span that drive calls made on this thread belong to.
    static PARENT: Cell<u64> = const { Cell::new(0) };
}

/// Make `id` the parent of drive calls issued from this thread.
pub fn set_parent(id: u64) {
    PARENT.with(|p| p.set(id));
}

/// The current parent span on this thread (0: none).
pub fn parent() -> u64 {
    PARENT.with(Cell::get)
}

/// A client operation, as the closed loop timed it.
pub struct OpSpan {
    pub id: u64,
    pub start: u64,
    pub end: u64,
}

/// Which namespace call a client made.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum FmCall {
    Open,
    Create,
    Remove,
}

/// One `NfsClient` namespace call (client thread).
pub struct CallSpan {
    pub id: u64,
    pub parent: u64,
    pub kind: FmCall,
    pub start: u64,
    pub end: u64,
    /// The call missed the client's capability cache.
    pub miss: bool,
}

/// One file-manager request served (manager thread).
struct FmSpan {
    id: u64,
    parent: u64,
    start: u64,
    end: u64,
}

/// How a transport attempt ended.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Attempt {
    Ok,
    /// A reply the endpoint retries (`Busy`-class status).
    Transient,
    /// Timed out or disconnected.
    Lost,
}

/// One transport attempt (calling thread).
struct NetSpan {
    parent: u64,
    nonce: (u64, u64),
    start: u64,
    end: u64,
    allocs: u64,
    copied: u64,
    attempt: Attempt,
}

/// Device work done inside one `handle`.
#[derive(Clone, Copy, Default)]
struct DiskWork {
    reads: u64,
    writes: u64,
    read_ns: u64,
    write_ns: u64,
    bytes_written: u64,
}

/// One drive request served (worker thread).
struct ServerSpan {
    nonce: (u64, u64),
    queued: u64,
    locked: u64,
    done: u64,
    kind: OpKind,
    instr: f64,
    disk: DiskWork,
    allocs: u64,
    copied: u64,
    cache: CacheStats,
}

/// Which client op each client thread is in while it waits on the file
/// manager, and the names that op looks up.
#[derive(Default, Clone)]
struct Slot {
    span: u64,
    dir: String,
    name: String,
}

/// In-memory span store for one traced window.
pub struct Tracer {
    epoch: Instant,
    on: AtomicBool,
    next_id: AtomicU64,
    ops: Mutex<Vec<OpSpan>>,
    calls: Mutex<Vec<CallSpan>>,
    fm: Mutex<Vec<FmSpan>>,
    net: Mutex<Vec<NetSpan>>,
    server: Mutex<Vec<ServerSpan>>,
    slots: Mutex<Vec<Slot>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("a traced thread panicked while recording")
}

impl Tracer {
    pub fn new(clients: usize) -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            ops: Mutex::new(Vec::with_capacity(1 << 16)),
            calls: Mutex::new(Vec::new()),
            fm: Mutex::new(Vec::new()),
            net: Mutex::new(Vec::with_capacity(1 << 16)),
            server: Mutex::new(Vec::with_capacity(1 << 16)),
            slots: Mutex::new(vec![Slot::default(); clients]),
        })
    }

    /// Nanoseconds from the tracer's epoch to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// Whether spans are being recorded (the measured window).
    pub fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
        alloc::set_counting(on);
    }

    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn op(&self, span: OpSpan) {
        lock(&self.ops).push(span);
    }

    /// Time `f`, a namespace call made by client `client` inside op
    /// `parent()`, as an `fm.call` span; manager requests naming `dir`
    /// or `name` meanwhile are charged to it.
    pub fn fm_call<T>(
        &self,
        client: usize,
        kind: FmCall,
        dir: &str,
        name: &str,
        f: impl FnOnce() -> (T, bool),
    ) -> T {
        let op = parent();
        let id = self.new_id();
        {
            let mut slots = lock(&self.slots);
            let slot = &mut slots[client];
            slot.span = id;
            slot.dir.clear();
            slot.dir.push_str(dir);
            slot.name.clear();
            slot.name.push_str(name);
        }
        set_parent(id);
        let start = self.now();
        let (value, miss) = f();
        let end = self.now();
        set_parent(op);
        lock(&self.slots)[client].span = 0;
        lock(&self.calls).push(CallSpan {
            id,
            parent: op,
            kind,
            start,
            end,
            miss,
        });
        value
    }

    /// The `fm.call` span waiting on a manager request naming `name`.
    fn match_slot(&self, name: &str) -> u64 {
        let slots = lock(&self.slots);
        slots
            .iter()
            .find(|s| s.span != 0 && s.name == name)
            .or_else(|| slots.iter().find(|s| s.span != 0 && s.dir == name))
            .map_or(0, |s| s.span)
    }
}

fn nonce_of(req: &Request) -> (u64, u64) {
    (req.header.nonce.client, req.header.nonce.counter)
}

/// `Transport` decorator over a drive channel: one `net.call` span per
/// attempt, with the calling thread's allocations and payload copies.
pub struct TracedTransport {
    inner: Channel<Request, Reply>,
    reconnects: bool,
    tracer: Arc<Tracer>,
}

impl TracedTransport {
    /// Wrap `inner`; `reconnects` must match the wrapped transport (true
    /// for a re-dialing socket pool).
    pub fn channel(
        inner: Channel<Request, Reply>,
        reconnects: bool,
        tracer: Arc<Tracer>,
    ) -> Channel<Request, Reply> {
        Channel::new(Arc::new(TracedTransport {
            inner,
            reconnects,
            tracer,
        }))
    }
}

impl Transport<Request, Reply> for TracedTransport {
    fn attempt(&self, req: Request, timeout: Option<Duration>) -> Result<Reply, RpcError> {
        let opts = match timeout {
            Some(t) => CallOptions::once(t),
            None => CallOptions::blocking(),
        };
        if !self.tracer.on() {
            return self.inner.call_with(req, &opts);
        }
        let nonce = nonce_of(&req);
        let (a0, c0) = (alloc::thread_allocs(), bytes::stats::bytes_copied());
        let start = self.tracer.now();
        let result = self.inner.call_with(req, &opts);
        let end = self.tracer.now();
        let (a1, c1) = (alloc::thread_allocs(), bytes::stats::bytes_copied());
        let attempt = match &result {
            Ok(r) if r.status.is_transient() => Attempt::Transient,
            Ok(_) => Attempt::Ok,
            Err(_) => Attempt::Lost,
        };
        lock(&self.tracer.net).push(NetSpan {
            parent: parent(),
            nonce,
            start,
            end,
            allocs: a1 - a0,
            copied: c1 - c0,
            attempt,
        });
        result
    }

    fn call_async(&self, req: Request) -> Result<Pending<Reply>, RpcError> {
        self.inner.call_async(req)
    }

    fn reconnects(&self) -> bool {
        self.reconnects
    }

    fn name(&self) -> &'static str {
        "traced"
    }
}

/// Device counters shared between a [`TimedDisk`] and the service
/// closure that reads them around each `handle`.
#[derive(Default)]
pub struct DiskCounters {
    reads: AtomicU64,
    writes: AtomicU64,
    read_ns: AtomicU64,
    write_ns: AtomicU64,
    bytes_written: AtomicU64,
}

impl DiskCounters {
    fn snapshot(&self) -> DiskWork {
        DiskWork {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            read_ns: self.read_ns.load(Ordering::Relaxed),
            write_ns: self.write_ns.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }
}

/// `BlockDevice` decorator timing every block transfer.
pub struct TimedDisk<D> {
    inner: D,
    counters: Arc<DiskCounters>,
}

impl<D> TimedDisk<D> {
    pub fn new(inner: D, counters: Arc<DiskCounters>) -> Self {
        TimedDisk { inner, counters }
    }
}

impl<D: BlockDevice> BlockDevice for TimedDisk<D> {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_block(&self, block: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        let t0 = Instant::now();
        let r = self.inner.read_block(block, buf);
        let ns = t0.elapsed().as_nanos() as u64;
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        self.counters.read_ns.fetch_add(ns, Ordering::Relaxed);
        r
    }

    fn write_block(&mut self, block: u64, data: &[u8]) -> Result<(), DiskError> {
        let t0 = Instant::now();
        let r = self.inner.write_block(block, data);
        let ns = t0.elapsed().as_nanos() as u64;
        let c = &self.counters;
        c.writes.fetch_add(1, Ordering::Relaxed);
        c.write_ns.fetch_add(ns, Ordering::Relaxed);
        c.bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        r
    }
}

fn cache_delta(a: CacheStats, b: CacheStats) -> CacheStats {
    CacheStats {
        hits: b.hits - a.hits,
        misses: b.misses - a.misses,
        writebacks: b.writebacks - a.writebacks,
        evictions: b.evictions - a.evictions,
    }
}

/// The drive service closure `serve_drive_socket` runs (mutex,
/// `set_clock`, `handle`), with `object.lock_wait` / `object.handle`
/// spans and the device, cache, allocation and copy work of each
/// request.
pub fn drive_service<D: BlockDevice + 'static>(
    drive: NasdDrive<TimedDisk<D>>,
    clock: Arc<AtomicU64>,
    disk: Arc<DiskCounters>,
    tracer: Arc<Tracer>,
) -> impl Fn(Request) -> Reply + Send + Sync + 'static {
    let guarded = parking_lot::Mutex::new(drive);
    move |req: Request| {
        if !tracer.on() {
            let mut d = guarded.lock();
            d.set_clock(clock.load(Ordering::Relaxed));
            return d.handle(&req).0;
        }
        let queued = tracer.now();
        let mut d = guarded.lock();
        let locked = tracer.now();
        d.set_clock(clock.load(Ordering::Relaxed));
        let (disk0, cache0) = (disk.snapshot(), d.store().cache().stats());
        let (a0, c0) = (alloc::thread_allocs(), bytes::stats::bytes_copied());
        let (reply, report) = d.handle(&req);
        let (a1, c1) = (alloc::thread_allocs(), bytes::stats::bytes_copied());
        let done = tracer.now();
        let (disk1, cache1) = (disk.snapshot(), d.store().cache().stats());
        drop(d);
        lock(&tracer.server).push(ServerSpan {
            nonce: nonce_of(&req),
            queued,
            locked,
            done,
            kind: report.kind,
            instr: report.cost.total(),
            disk: DiskWork {
                reads: disk1.reads - disk0.reads,
                writes: disk1.writes - disk0.writes,
                read_ns: disk1.read_ns - disk0.read_ns,
                write_ns: disk1.write_ns - disk0.write_ns,
                bytes_written: disk1.bytes_written - disk0.bytes_written,
            },
            allocs: a1 - a0,
            copied: c1 - c0,
            cache: cache_delta(cache0, cache1),
        });
        reply
    }
}

/// The file manager's service loop body (`NasdNfs::handle`) with an
/// `fm.manager` span per request; drive calls it makes nest under it.
pub fn fm_service(
    fm: Arc<NasdNfs>,
    tracer: Arc<Tracer>,
) -> impl FnMut(NfsRequest) -> NfsResponse + Send + 'static {
    move |req: NfsRequest| {
        if !tracer.on() {
            return fm.handle(req);
        }
        let parent = match &req {
            NfsRequest::Lookup { name, .. }
            | NfsRequest::Create { name, .. }
            | NfsRequest::Mkdir { name, .. }
            | NfsRequest::Remove { name, .. } => tracer.match_slot(name),
            _ => 0,
        };
        let id = tracer.new_id();
        set_parent(id);
        let start = tracer.now();
        let resp = fm.handle(req);
        let end = tracer.now();
        set_parent(0);
        lock(&tracer.fm).push(FmSpan {
            id,
            parent,
            start,
            end,
        });
        resp
    }
}

/// Counters the workload reads from outside the spans, as deltas over
/// the traced window.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub frames_in: u64,
    pub frames_out: u64,
    pub decode_errors: u64,
    pub send_copies: u64,
    pub cap_hits: u64,
    pub cap_misses: u64,
}

impl Counters {
    pub fn delta(self, later: Counters) -> Counters {
        Counters {
            frames_in: later.frames_in - self.frames_in,
            frames_out: later.frames_out - self.frames_out,
            decode_errors: later.decode_errors - self.decode_errors,
            send_copies: later.send_copies - self.send_copies,
            cap_hits: later.cap_hits - self.cap_hits,
            cap_misses: later.cap_misses - self.cap_misses,
        }
    }
}

/// Window-level inputs the analysis needs besides the spans.
pub struct WindowTotals {
    pub ops: u64,
    pub gen_ns: u64,
    pub user_bytes_written: u64,
    pub counters: Counters,
}

/// Overlap of `[a0, a1)` with `[b0, b1)` in ns.
fn overlap(a0: u64, a1: u64, b0: u64, b1: u64) -> u64 {
    a1.min(b1).saturating_sub(a0.max(b0))
}

/// `num / den`, 0 when `den` is 0 (a layer the workload does not
/// exercise). Adding 0.0 turns the -0.0 of an empty float sum into 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den + 0.0
    }
}

/// A named per-layer metric.
pub type Metric = (&'static str, f64, &'static str);

impl Tracer {
    /// The per-layer metrics of the window, and each layer's share of
    /// the op time. Every metric is present for every workload; a layer
    /// the workload does not exercise reads 0.
    pub fn analyze(&self, totals: &WindowTotals) -> (Vec<Metric>, Vec<Metric>) {
        let ops = lock(&self.ops);
        let calls = lock(&self.calls);
        let fm = lock(&self.fm);
        let net = lock(&self.net);
        let server = lock(&self.server);
        let by_nonce: HashMap<(u64, u64), &ServerSpan> =
            server.iter().map(|s| (s.nonce, s)).collect();

        // Walk the tree from the client ops down, charging each child's
        // overlap with its parent to the parent's covered time.
        let mut interval: HashMap<u64, (u64, u64)> = HashMap::new();
        let mut covered: HashMap<u64, u64> = HashMap::new();
        let op_ns: u64 = ops.iter().map(|o| o.end - o.start).sum();
        for o in ops.iter() {
            interval.insert(o.id, (o.start, o.end));
        }
        let mut reach = |id: u64, parent: u64, start: u64, end: u64| -> bool {
            let Some(&(p0, p1)) = interval.get(&parent) else {
                return false;
            };
            *covered.entry(parent).or_default() += overlap(start, end, p0, p1);
            if id != 0 {
                interval.insert(id, (start, end));
            }
            true
        };
        let calls_reached: Vec<bool> = calls
            .iter()
            .map(|c| reach(c.id, c.parent, c.start, c.end))
            .collect();
        let fm_reached: Vec<bool> = fm
            .iter()
            .map(|f| reach(f.id, f.parent, f.start, f.end))
            .collect();
        let net_reached: Vec<bool> = net
            .iter()
            .map(|n| reach(0, n.parent, n.start, n.end))
            .collect();
        let self_of = |id: u64, start: u64, end: u64| -> f64 {
            (end - start) as f64 - covered.get(&id).copied().unwrap_or(0) as f64
        };

        let client_self: f64 = ops.iter().map(|o| self_of(o.id, o.start, o.end)).sum();
        let rpc_self: f64 = calls
            .iter()
            .zip(&calls_reached)
            .filter(|(_, r)| **r)
            .map(|(c, _)| self_of(c.id, c.start, c.end))
            .sum();
        let manager_self_all: Vec<f64> = fm.iter().map(|f| self_of(f.id, f.start, f.end)).collect();
        let manager_self: f64 = manager_self_all
            .iter()
            .zip(&fm_reached)
            .filter(|(_, r)| **r)
            .map(|(s, _)| s)
            .sum();

        // Per transport attempt: the server-side split inside it.
        let (mut transport, mut lock_wait, mut object_self, mut disk_ns) = (0f64, 0f64, 0f64, 0f64);
        let (mut all_transport, mut all_net_ns) = (0f64, 0f64);
        let (mut attempts, mut retried, mut lost) = (0u64, 0u64, 0u64);
        let (mut net_allocs, mut net_copied) = (0u64, 0u64);
        for (n, reached) in net.iter().zip(&net_reached) {
            let dur = (n.end - n.start) as f64;
            let (lw, h, d) = match by_nonce.get(&n.nonce) {
                Some(s) => {
                    let lw = overlap(s.queued, s.locked, n.start, n.end) as f64;
                    let h = overlap(s.locked, s.done, n.start, n.end) as f64;
                    let d = ((s.disk.read_ns + s.disk.write_ns) as f64).min(h);
                    (lw, h, d)
                }
                None => (0.0, 0.0, 0.0),
            };
            all_net_ns += dur;
            all_transport += dur - lw - h;
            if *reached {
                transport += dur - lw - h;
                lock_wait += lw;
                object_self += h - d;
                disk_ns += d;
            }
            attempts += 1;
            net_allocs += n.allocs;
            net_copied += n.copied;
            match n.attempt {
                Attempt::Ok => {}
                Attempt::Transient => retried += 1,
                Attempt::Lost => {
                    retried += 1;
                    lost += 1;
                }
            }
        }
        let linked = [&calls_reached, &fm_reached, &net_reached]
            .iter()
            .map(|r| r.iter().filter(|&&x| x).count())
            .sum::<usize>();
        let accounted =
            client_self + rpc_self + manager_self + transport + lock_wait + object_self + disk_ns;

        // Object and disk layers, per drive request served.
        let reqs = server.len() as f64;
        let mean_kind = |kind: OpKind| {
            let v: Vec<f64> = server
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| (s.done - s.locked) as f64)
                .collect();
            ratio(v.iter().sum(), v.len() as f64)
        };
        let sum = |f: &dyn Fn(&ServerSpan) -> f64| server.iter().map(f).sum::<f64>();
        let hits = sum(&|s| s.cache.hits as f64);
        let misses = sum(&|s| s.cache.misses as f64);
        let dreads = sum(&|s| s.disk.reads as f64);
        let dwrites = sum(&|s| s.disk.writes as f64);

        let calls_of = |kind: FmCall, miss_only: bool| {
            let v: Vec<f64> = calls
                .iter()
                .filter(|c| c.kind == kind && (!miss_only || c.miss))
                .map(|c| (c.end - c.start) as f64)
                .collect();
            ratio(v.iter().sum(), v.len() as f64)
        };
        let n_ops = totals.ops as f64;
        let n_net = attempts as f64;
        let ext = &totals.counters;
        let op_total = op_ns as f64;
        let shares = vec![
            ("share.client", ratio(client_self, op_total), "frac"),
            ("share.fm_rpc", ratio(rpc_self, op_total), "frac"),
            ("share.fm_manager", ratio(manager_self, op_total), "frac"),
            ("share.transport", ratio(transport, op_total), "frac"),
            ("share.lock_wait", ratio(lock_wait, op_total), "frac"),
            ("share.object", ratio(object_self, op_total), "frac"),
            ("share.disk", ratio(disk_ns, op_total), "frac"),
        ];
        let metrics = vec![
            ("workload.gen_ns", ratio(totals.gen_ns as f64, n_ops), "ns"),
            (
                "fm.client_self_ns",
                ratio(client_self, ops.len() as f64),
                "ns",
            ),
            ("fm.rpc_self_ns", ratio(rpc_self, calls.len() as f64), "ns"),
            (
                "fm.manager_self_ns",
                ratio(manager_self_all.iter().sum(), fm.len() as f64),
                "ns",
            ),
            (
                "fm.capcache_hit_ratio",
                ratio(ext.cap_hits as f64, (ext.cap_hits + ext.cap_misses) as f64),
                "ratio",
            ),
            ("fm.lookup_miss_ns", calls_of(FmCall::Open, true), "ns"),
            ("fm.open_ns", calls_of(FmCall::Open, false), "ns"),
            ("fm.create_ns", calls_of(FmCall::Create, false), "ns"),
            ("fm.remove_ns", calls_of(FmCall::Remove, false), "ns"),
            ("fm.drive_calls_per_op", ratio(n_net, n_ops), "count"),
            ("fm.drive_call_ns", ratio(all_net_ns, n_ops), "ns"),
            ("net.call_ns", ratio(all_net_ns, n_net), "ns"),
            ("net.transport_ns", ratio(all_transport, n_net), "ns"),
            (
                "net.client_allocs_per_op",
                ratio(net_allocs as f64, n_net),
                "count",
            ),
            (
                "net.client_copy_bytes_per_op",
                ratio(net_copied as f64, n_net),
                "B",
            ),
            (
                "net.send_copy_bytes_per_op",
                ratio(ext.send_copies as f64, ext.frames_out as f64),
                "B",
            ),
            ("net.frames_in", ext.frames_in as f64, "count"),
            ("net.frames_out", ext.frames_out as f64, "count"),
            ("net.decode_errors", ext.decode_errors as f64, "count"),
            (
                "net.attempts_per_call",
                ratio(n_net, (attempts - retried) as f64),
                "count",
            ),
            ("net.lost_attempts", lost as f64, "count"),
            (
                "object.lock_wait_ns",
                ratio(sum(&|s| (s.locked - s.queued) as f64), reqs),
                "ns",
            ),
            ("object.read_ns", mean_kind(OpKind::Read), "ns"),
            ("object.write_ns", mean_kind(OpKind::Write), "ns"),
            ("object.getattr_ns", mean_kind(OpKind::GetAttr), "ns"),
            (
                "object.self_ns",
                ratio(
                    sum(&|s| {
                        (s.done - s.locked) as f64 - (s.disk.read_ns + s.disk.write_ns) as f64
                    }),
                    reqs,
                ),
                "ns",
            ),
            (
                "object.allocs_per_op",
                ratio(sum(&|s| s.allocs as f64), reqs),
                "count",
            ),
            (
                "object.copy_bytes_per_op",
                ratio(sum(&|s| s.copied as f64), reqs),
                "B",
            ),
            (
                "object.cache_hit_ratio",
                ratio(hits, hits + misses),
                "ratio",
            ),
            (
                "object.evictions_per_op",
                ratio(sum(&|s| s.cache.evictions as f64), reqs),
                "count",
            ),
            (
                "object.writebacks_per_op",
                ratio(sum(&|s| s.cache.writebacks as f64), reqs),
                "count",
            ),
            (
                "object.model_instr_per_op",
                ratio(sum(&|s| s.instr), reqs),
                "instr",
            ),
            ("disk.reads_per_op", ratio(dreads, reqs), "count"),
            ("disk.writes_per_op", ratio(dwrites, reqs), "count"),
            (
                "disk.read_ns",
                ratio(sum(&|s| s.disk.read_ns as f64), dreads),
                "ns",
            ),
            (
                "disk.write_ns",
                ratio(sum(&|s| s.disk.write_ns as f64), dwrites),
                "ns",
            ),
            (
                "disk.write_amp",
                ratio(
                    sum(&|s| s.disk.bytes_written as f64),
                    totals.user_bytes_written as f64,
                ),
                "ratio",
            ),
            (
                "trace.unaccounted_frac",
                ratio(op_total - accounted, op_total),
                "frac",
            ),
            ("trace.op_ns", ratio(op_total, ops.len() as f64), "ns"),
            (
                "trace.linked_frac",
                ratio(linked as f64, (calls.len() + fm.len() + net.len()) as f64),
                "frac",
            ),
        ];
        (metrics, shares)
    }
}
