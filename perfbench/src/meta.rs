//! `meta_ops`: two NFS clients against a sharded file manager.
//!
//! Two `NfsClient`s from `FmConnect::nfs_sharded` (2 manager shards,
//! leased capability cache on), one per client thread, over
//! `DriveFleet::spawn_memory(2)`. The namespace is 3072 files of 4 KiB
//! in 16 directories (192 entries each); files are chosen by
//! Zipf(0.99). Op mix: 50% open+getattr, 20% open+read, 10% open+write,
//! 20% create+write+remove of a scratch file beside the chosen one.

use crate::bench::{Check, Class, Done, Workload};
use crate::pattern;
use crate::trace::{self, Counters, FmCall, TracedTransport, Tracer};
use bytes::ByteRope;
use nasd_fm::{DriveFleet, FileType, FmAttrs, FmConnect, NasdNfs, NfsClient};
use nasd_net::{spawn_service, Connector, ServiceHandle};
use nasd_object::DriveConfig;
use nasd_proto::PartitionId;
use nasd_workload::{OpKind, OpMix, RequestStream, WorkloadSpec};
use rand::{Rng, SeedableRng, StdRng};
use std::sync::Arc;
use std::time::Instant;

pub const FILES: usize = 3072;
pub const DIRS: usize = 16;
/// File size and transfer size.
pub const FILE_BYTES: u64 = 4096;

/// The generator's three classes carry the four-way mix: read 20,
/// getattr 50, and "write" 30, which the op's second draw splits into
/// open+write (1 in 3) and create+write+remove (2 in 3).
pub fn spec() -> WorkloadSpec {
    WorkloadSpec {
        objects: FILES,
        zipf_theta: 0.99,
        mix: OpMix::new(20, 30, 50),
        read_bytes: FILE_BYTES,
        write_bytes: FILE_BYTES,
    }
}

/// 8 KiB blocks, 8 MiB cache, 128 MiB device per drive.
fn drive_config() -> DriveConfig {
    DriveConfig {
        block_size: 8 * 1024,
        capacity_blocks: 16 * 1024,
        cache_blocks: 1024,
        security_enabled: true,
        durable_writes: false,
    }
}

fn dir_of(file: usize) -> usize {
    file % DIRS
}

fn dir_name(dir: usize) -> String {
    format!("d{dir}")
}

fn file_path(file: usize) -> String {
    format!("/d{}/f{file}", dir_of(file))
}

pub struct MetaStack {
    fleet: Arc<DriveFleet>,
    clients: Vec<NfsClient>,
    managers: Vec<ServiceHandle>,
    paths: Vec<String>,
    /// Pattern key of each file, from its object id at creation.
    keys: Vec<u64>,
}

pub struct MetaClient {
    idx: usize,
    stream: RequestStream,
    split: StdRng,
    scratch: u64,
}

/// What a namespace op returned, checked once the clock has stopped.
enum Output {
    Attr(FmAttrs),
    /// Data read and the pattern key it must match.
    Data(u64, ByteRope),
    Wrote(u64),
}

pub enum MetaOp {
    Attr(usize),
    Read(usize),
    Write(usize),
    Ns(usize),
}

impl MetaStack {
    /// Spawn the fleet and managers, connect the clients and build the
    /// namespace. With a tracer, drive channels get a
    /// [`TracedTransport`] and each manager shard runs the traced
    /// service body.
    pub fn setup(clients: usize, tracer: Option<Arc<Tracer>>) -> Result<MetaStack, String> {
        let fleet = Arc::new(
            DriveFleet::spawn_memory(2, drive_config(), PartitionId(1), 96 << 20)
                .map_err(|e| format!("spawn fleet: {e}"))?,
        );
        if let Some(t) = &tracer {
            for ep in fleet.endpoints() {
                ep.reconnect(TracedTransport::channel(ep.channel(), false, Arc::clone(t)));
            }
        }
        let fm = NasdNfs::new(Arc::clone(&fleet)).map_err(|e| format!("start manager: {e}"))?;
        let (rpcs, managers) = match &tracer {
            None => fm.spawn_sharded(2),
            Some(t) => {
                let fm = Arc::new(fm);
                (0..2)
                    .map(|_| spawn_service(trace::fm_service(Arc::clone(&fm), Arc::clone(t))))
                    .unzip()
            }
        };
        let clients = (0..clients)
            .map(|_| Connector::new().nfs_sharded(rpcs.clone(), Arc::clone(&fleet)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect client: {e}"))?;
        let c = &clients[0];
        for d in 0..DIRS {
            c.mkdir(&format!("/{}", dir_name(d)), 0o755, 0)
                .map_err(|e| format!("mkdir: {e}"))?;
        }
        let mut paths = Vec::with_capacity(FILES);
        let mut keys = Vec::with_capacity(FILES);
        for f in 0..FILES {
            let path = file_path(f);
            let mut file = c
                .create(&path, 0o644, 0)
                .map_err(|e| format!("create: {e}"))?;
            let key = pattern::key(file.fh.drive.0, file.fh.object.0);
            c.write(&mut file, 0, &pattern::fill(key, FILE_BYTES as usize))
                .map_err(|e| format!("fill file: {e}"))?;
            paths.push(path);
            keys.push(key);
        }
        Ok(MetaStack {
            fleet,
            clients,
            managers,
            paths,
            keys,
        })
    }

    /// Time a namespace call as an `fm.call` span when tracing.
    fn fm<T>(
        &self,
        tracer: Option<&Tracer>,
        idx: usize,
        kind: FmCall,
        file: usize,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> T {
        match tracer {
            Some(t) if t.on() => {
                let client = &self.clients[idx];
                let before = client.cap_cache_stats().misses;
                t.fm_call(idx, kind, &dir_name(dir_of(file)), name, || {
                    let v = f();
                    (v, client.cap_cache_stats().misses > before)
                })
            }
            _ => f(),
        }
    }
}

fn file_name(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

impl Workload for MetaStack {
    type Client = MetaClient;
    type Op = MetaOp;

    fn client(&self, idx: usize, seed: u64) -> MetaClient {
        MetaClient {
            idx,
            stream: RequestStream::new(&spec(), seed),
            split: StdRng::seed_from_u64(seed ^ 0x5C7A_7C11),
            scratch: 0,
        }
    }

    fn next(&self, c: &mut MetaClient) -> MetaOp {
        let r = c.stream.next_request();
        match r.op {
            OpKind::GetAttr => MetaOp::Attr(r.object),
            OpKind::Read => MetaOp::Read(r.object),
            OpKind::Write if c.split.gen_range(0..3u32) == 0 => MetaOp::Write(r.object),
            OpKind::Write => MetaOp::Ns(r.object),
        }
    }

    fn run(&self, c: &mut MetaClient, op: MetaOp, tracer: Option<&Tracer>) -> Done {
        let client = &self.clients[c.idx];
        let open = |f: usize, write: bool| {
            let path = &self.paths[f];
            self.fm(tracer, c.idx, FmCall::Open, f, file_name(path), || {
                client.open(path, write)
            })
        };
        let fill = |key: u64| pattern::fill(key, FILE_BYTES as usize);
        // Payloads are made before the clock starts and outputs checked
        // after it stops.
        let (class, start, out) = match op {
            MetaOp::Attr(f) => {
                let start = Instant::now();
                let r = open(f, false).and_then(|mut file| client.getattr(&mut file));
                (Class::Attr, start, r.map(Output::Attr))
            }
            MetaOp::Read(f) => {
                let start = Instant::now();
                let r = open(f, false).and_then(|mut file| client.read(&mut file, 0, FILE_BYTES));
                (Class::Read, start, r.map(|d| Output::Data(self.keys[f], d)))
            }
            MetaOp::Write(f) => {
                let data = fill(self.keys[f]);
                let start = Instant::now();
                let r = open(f, true).and_then(|mut file| client.write(&mut file, 0, &data));
                (Class::Write, start, r.map(Output::Wrote))
            }
            MetaOp::Ns(f) => {
                c.scratch += 1;
                let name = format!("s{}-{}", c.idx, c.scratch);
                let path = format!("/{}/{name}", dir_name(dir_of(f)));
                // Scratch files are never read back; their pattern is
                // keyed by client and sequence number.
                let data = fill(pattern::key(c.idx as u64, c.scratch));
                let start = Instant::now();
                let r = self
                    .fm(tracer, c.idx, FmCall::Create, f, &name, || {
                        client.create(&path, 0o644, 0)
                    })
                    .and_then(|mut file| client.write(&mut file, 0, &data))
                    .and_then(|n| {
                        self.fm(tracer, c.idx, FmCall::Remove, f, &name, || {
                            client.remove(&path)
                        })
                        .map(|()| Output::Wrote(n))
                    });
                (Class::Ns, start, r)
            }
        };
        let end = Instant::now();
        let (bytes, written, check) = match out {
            Ok(Output::Attr(a)) => (
                0,
                0,
                Check::expect(a.size == FILE_BYTES && a.file_type == FileType::Regular),
            ),
            Ok(Output::Data(key, data)) => (
                FILE_BYTES,
                0,
                Check::expect(pattern::matches(key, &data, FILE_BYTES as usize)),
            ),
            Ok(Output::Wrote(n)) => (FILE_BYTES, FILE_BYTES, Check::expect(n == FILE_BYTES)),
            Err(e) => (0, 0, Check::Failed(e.to_string())),
        };
        Done {
            class,
            start,
            end,
            bytes,
            written,
            check,
        }
    }

    fn counters(&self) -> Counters {
        let (hits, misses) = self.clients.iter().fold((0, 0), |(h, m), c| {
            let s = c.cap_cache_stats();
            (h + s.hits, m + s.misses)
        });
        Counters {
            cap_hits: hits,
            cap_misses: misses,
            ..Counters::default()
        }
    }

    fn teardown(self) {
        drop(self.clients);
        for m in self.managers {
            m.shutdown();
        }
        if let Ok(fleet) = Arc::try_unwrap(self.fleet) {
            fleet.shutdown();
        }
    }
}
