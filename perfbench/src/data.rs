//! `data_read` and `data_mixed`: two clients on one socket-served drive.
//!
//! The drive runs behind `serve_drive_socket` over a Unix socket (2
//! workers, security on, 8 KiB blocks, 8 MiB block cache, write-back
//! cache with `durable_writes` off: writes are acknowledged from the
//! cache and reach the device on eviction). Both client threads share
//! one `DriveEndpoint` over a `Connector::pool(2)` socket pool, holding
//! a capability per object as a file manager would have issued it.

use crate::bench::{Check, Class, Done, Workload};
use crate::pattern;
use crate::trace::{self, Counters, DiskCounters, TimedDisk, TracedTransport, Tracer};
use bytes::Bytes;
use nasd_disk::MemDisk;
use nasd_fm::{serve_drive_socket, DriveEndpoint};
use nasd_net::{BindAddr, Connector, WireServer};
use nasd_object::{DriveConfig, NasdDrive};
use nasd_proto::{ByteRange, Capability, PartitionId, RequestBody, Rights, Version};
use nasd_workload::{OpKind, OpMix, Request, RequestStream, WorkloadSpec};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

/// Whole-object transfer size.
pub const OBJECT_BYTES: u64 = 64 * 1024;
const PARTITION: PartitionId = PartitionId(1);
/// Capabilities never expire within a run (the drive clock stays at 1).
const EXPIRES: u64 = 1 << 40;

/// 8 KiB blocks, 8 MiB cache, 128 MiB device (allocated lazily).
fn drive_config() -> DriveConfig {
    DriveConfig {
        block_size: 8 * 1024,
        capacity_blocks: 16 * 1024,
        cache_blocks: 1024,
        security_enabled: true,
        durable_writes: false,
    }
}

/// `data_read`: Zipf(0.99) whole-object reads over 48 objects (3 MiB,
/// well under the 8 MiB cache).
pub fn read_spec() -> WorkloadSpec {
    WorkloadSpec {
        objects: 48,
        zipf_theta: 0.99,
        mix: OpMix::read_only(),
        read_bytes: OBJECT_BYTES,
        write_bytes: OBJECT_BYTES,
    }
}

/// `data_mixed`: the paper's 60/15/25 read/write/getattr mix over 512
/// objects (32 MiB, 4x the cache).
pub fn mixed_spec() -> WorkloadSpec {
    WorkloadSpec {
        objects: 512,
        zipf_theta: 0.99,
        mix: OpMix::paper_default(),
        read_bytes: OBJECT_BYTES,
        write_bytes: OBJECT_BYTES,
    }
}

struct Object {
    cap: Capability,
    key: u64,
}

/// A socket-served drive and the endpoint both clients share.
pub struct DataStack {
    spec: WorkloadSpec,
    server: WireServer,
    ep: DriveEndpoint,
    objects: Vec<Object>,
}

fn socket_path() -> BindAddr {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    // Relative to the working directory: the benchmark writes only
    // inside its checkout, and a short path fits the UDS length limit.
    BindAddr::Uds(format!(".bench_run/drive-{}-{n}.sock", std::process::id()).into())
}

impl DataStack {
    /// Serve a fresh drive and fill `spec.objects` objects with their
    /// patterns. With a tracer, the drive is built over a [`TimedDisk`]
    /// behind the traced service closure and the endpoint's channel is
    /// a [`TracedTransport`].
    pub fn setup(spec: WorkloadSpec, tracer: Option<Arc<Tracer>>) -> Result<DataStack, String> {
        std::fs::create_dir_all(".bench_run").map_err(|e| format!("socket dir: {e}"))?;
        let addr = socket_path();
        let clock = Arc::new(AtomicU64::new(1));
        let connector = Connector::new().pool(2);
        let builder = NasdDrive::builder(1).config(drive_config());
        let (server, ep) = match tracer {
            None => serve_drive_socket(builder.build(), clock, &addr, 2, &connector)
                .map_err(|e| format!("serve drive: {e}"))?,
            Some(tracer) => {
                let cfg = drive_config();
                let counters = Arc::new(DiskCounters::default());
                let device = TimedDisk::new(
                    MemDisk::new(cfg.block_size, cfg.capacity_blocks),
                    Arc::clone(&counters),
                );
                let drive = builder.build_on(device);
                let (id, hierarchy) = (drive.id(), drive.hierarchy().clone());
                let service = trace::drive_service(drive, clock, counters, Arc::clone(&tracer));
                let server =
                    nasd_net::serve(&addr, 2, service).map_err(|e| format!("serve: {e}"))?;
                let channel = connector
                    .dial(server.addr())
                    .map_err(|e| format!("dial: {e}"))?;
                let channel = TracedTransport::channel(channel, true, tracer);
                (server, DriveEndpoint::over(id, channel, hierarchy))
            }
        };
        let quota = 4 * spec.objects as u64 * OBJECT_BYTES;
        ep.admin(RequestBody::CreatePartition {
            partition: PARTITION,
            quota,
        })
        .map_err(|e| format!("create partition: {e}"))?;
        let mut objects = Vec::with_capacity(spec.objects);
        for _ in 0..spec.objects {
            let obj = ep
                .create_object(PARTITION, 0, None, EXPIRES)
                .map_err(|e| format!("create object: {e}"))?;
            let cap = ep.mint(
                PARTITION,
                obj,
                Version(0),
                Rights::READ | Rights::WRITE | Rights::GETATTR,
                ByteRange::FULL,
                EXPIRES,
            );
            let key = pattern::key(ep.id().0, obj.0);
            ep.write(&cap, 0, pattern::fill(key, OBJECT_BYTES as usize))
                .map_err(|e| format!("fill object: {e}"))?;
            objects.push(Object { cap, key });
        }
        Ok(DataStack {
            spec,
            server,
            ep,
            objects,
        })
    }
}

impl Workload for DataStack {
    type Client = RequestStream;
    type Op = Request;

    fn client(&self, _idx: usize, seed: u64) -> RequestStream {
        RequestStream::new(&self.spec, seed)
    }

    fn next(&self, c: &mut RequestStream) -> Request {
        c.next_request()
    }

    fn run(&self, _c: &mut RequestStream, op: Request, _tracer: Option<&Tracer>) -> Done {
        let obj = &self.objects[op.object];
        let len = op.bytes;
        match op.op {
            OpKind::Read => {
                let start = Instant::now();
                let r = self.ep.read(&obj.cap, 0, len);
                let end = Instant::now();
                let check = match r {
                    Ok(data) => Check::expect(pattern::matches(obj.key, &data, len as usize)),
                    Err(e) => Check::Failed(e.to_string()),
                };
                Done {
                    class: Class::Read,
                    start,
                    end,
                    bytes: len,
                    written: 0,
                    check,
                }
            }
            OpKind::Write => {
                let data: Bytes = pattern::fill(obj.key, len as usize);
                let start = Instant::now();
                let r = self.ep.write(&obj.cap, 0, data);
                let end = Instant::now();
                let check = match r {
                    Ok(n) => Check::expect(n == len),
                    Err(e) => Check::Failed(e.to_string()),
                };
                Done {
                    class: Class::Write,
                    start,
                    end,
                    bytes: len,
                    written: len,
                    check,
                }
            }
            OpKind::GetAttr => {
                let start = Instant::now();
                let r = self.ep.get_attr(&obj.cap);
                let end = Instant::now();
                let check = match r {
                    Ok(a) => Check::expect(a.size == OBJECT_BYTES),
                    Err(e) => Check::Failed(e.to_string()),
                };
                Done {
                    class: Class::Attr,
                    start,
                    end,
                    bytes: 0,
                    written: 0,
                    check,
                }
            }
        }
    }

    fn counters(&self) -> Counters {
        let s = self.server.stats();
        Counters {
            frames_in: s.frames_in.value(),
            frames_out: s.frames_out.value(),
            decode_errors: s.decode_errors.value(),
            send_copies: s.send_copies.value(),
            ..Counters::default()
        }
    }

    fn teardown(self) {
        drop(self.ep);
        self.server.shutdown();
    }
}
