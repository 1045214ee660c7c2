//! The closed loop: client threads, the measured window, and the
//! end-to-end metrics computed from it.

use crate::trace::{self, Counters, OpSpan, Tracer};
use nasd_net::splitmix64;
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Client threads per run (the host has two cores).
pub const CLIENTS: usize = 2;

/// Operation classes; latency is reported per class.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    /// Whole-object read (`data_*`), open + read (`meta_ops`).
    Read,
    /// Whole-object write (`data_*`), open + write (`meta_ops`).
    Write,
    /// Getattr (`data_*`), open + getattr (`meta_ops`).
    Attr,
    /// Create + write + remove of a scratch file (`meta_ops`).
    Ns,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Read, Class::Write, Class::Attr, Class::Ns];

    pub fn name(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::Write => "write",
            Class::Attr => "attr",
            Class::Ns => "ns",
        }
    }
}

/// What an operation's output check found.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Check {
    Ok,
    /// The library returned this error.
    Failed(String),
    /// The library returned wrong data.
    Mismatch,
}

impl Check {
    /// `Ok` when the output is what was expected, `Mismatch` otherwise.
    pub fn expect(good: bool) -> Check {
        if good {
            Check::Ok
        } else {
            Check::Mismatch
        }
    }
}

/// One completed operation. `start`/`end` bracket the library calls
/// only; generating the request and checking the output lie outside.
pub struct Done {
    pub class: Class,
    pub start: Instant,
    pub end: Instant,
    /// User payload bytes moved (read or written).
    pub bytes: u64,
    /// User payload bytes written.
    pub written: u64,
    pub check: Check,
}

/// A workload's stack, driven by [`CLIENTS`] closed-loop threads.
pub trait Workload: Sync {
    type Client: Send;
    type Op;

    /// Per-thread client state: its own request stream from `seed`.
    fn client(&self, idx: usize, seed: u64) -> Self::Client;
    /// Generate the next request.
    fn next(&self, c: &mut Self::Client) -> Self::Op;
    /// Run one request through the library and check its output.
    fn run(&self, c: &mut Self::Client, op: Self::Op, tracer: Option<&Tracer>) -> Done;
    /// Counters read outside the spans (server stats, cache stats).
    fn counters(&self) -> Counters;
    /// Shut the stack down, waiting for every thread it started.
    fn teardown(self);
}

/// Length of one slice of the measured window. Rates, CPU cost and
/// latency percentiles are taken per slice and reported as the median
/// over slices, so a burst of host noise moves one slice, not the run.
pub const SLICE: Duration = Duration::from_secs(1);

/// What completed in one slice of the window.
#[derive(Default)]
pub struct Slice {
    /// Latency in ns per class; a failed op is `u64::MAX`.
    pub lat: [Vec<u64>; 4],
    pub completed: u64,
    pub bytes: u64,
    /// Process CPU time spent in the slice.
    pub cpu: Duration,
}

/// Samples and tallies of one client thread (or of the whole window,
/// once merged).
#[derive(Default)]
pub struct ClientLog {
    pub slices: Vec<Slice>,
    pub written: u64,
    pub attempted: u64,
    pub failed: u64,
    pub mismatched: u64,
    pub gen_ns: u64,
    /// The first failure seen, for the report.
    pub first_error: Option<String>,
}

impl ClientLog {
    fn new(slices: usize) -> ClientLog {
        ClientLog {
            slices: (0..slices).map(|_| Slice::default()).collect(),
            ..ClientLog::default()
        }
    }

    fn record(&mut self, d: &Done, slice: usize) {
        self.attempted += 1;
        let s = &mut self.slices[slice];
        let ns = match &d.check {
            Check::Ok => {
                s.completed += 1;
                s.bytes += d.bytes;
                self.written += d.written;
                (d.end - d.start).as_nanos() as u64
            }
            Check::Failed(e) => {
                self.failed += 1;
                self.first_error
                    .get_or_insert_with(|| format!("{:?}: {e}", d.class));
                u64::MAX
            }
            Check::Mismatch => {
                self.failed += 1;
                self.mismatched += 1;
                self.first_error
                    .get_or_insert_with(|| format!("{:?}: wrong output", d.class));
                u64::MAX
            }
        };
        s.lat[d.class as usize].push(ns);
    }

    fn merge(&mut self, other: ClientLog) {
        for (mine, theirs) in self.slices.iter_mut().zip(other.slices) {
            for (a, b) in mine.lat.iter_mut().zip(theirs.lat) {
                a.extend(b);
            }
            mine.completed += theirs.completed;
            mine.bytes += theirs.bytes;
        }
        self.written += other.written;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        self.gen_ns += other.gen_ns;
        self.first_error = self.first_error.take().or(other.first_error);
    }
}

/// One measured window.
pub struct Window {
    pub log: ClientLog,
    /// The warm-up traffic before the window (checked, not timed).
    pub warm: ClientLog,
    pub counters: Counters,
}

/// Median of `v` (upper median for even lengths); 0 when empty.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

impl Window {
    /// Ops attempted, warm-up included.
    pub fn attempted(&self) -> u64 {
        self.log.attempted + self.warm.attempted
    }

    /// Ops failed, warm-up included.
    pub fn failed(&self) -> u64 {
        self.log.failed + self.warm.failed
    }

    /// The first failure, warm-up included.
    pub fn first_error(&self) -> Option<String> {
        self.warm
            .first_error
            .clone()
            .or(self.log.first_error.clone())
    }

    /// Whether every output check passed, warm-up included.
    pub fn correct(&self) -> bool {
        self.log.mismatched + self.warm.mismatched == 0
    }

    fn per_slice(&self, f: impl Fn(&Slice) -> f64) -> f64 {
        median(self.log.slices.iter().map(f).collect())
    }

    /// Completed operations in each slice.
    pub fn slice_ops(&self) -> Vec<u64> {
        self.log.slices.iter().map(|s| s.completed).collect()
    }

    /// Completed operations per second (median over slices).
    pub fn ops_per_s(&self) -> f64 {
        self.per_slice(|s| s.completed as f64 / SLICE.as_secs_f64())
    }

    /// User payload MB (10^6 bytes) per second (median over slices).
    pub fn goodput_mb_s(&self) -> f64 {
        self.per_slice(|s| s.bytes as f64 / 1e6 / SLICE.as_secs_f64())
    }

    /// Process CPU time per completed op in µs (median over slices).
    pub fn cpu_us_per_op(&self) -> f64 {
        self.per_slice(|s| s.cpu.as_secs_f64() * 1e6 / s.completed.max(1) as f64)
    }
}

/// Seed of client `idx`'s request stream under workload seed `seed`.
pub fn client_seed(seed: u64, idx: usize) -> u64 {
    splitmix64(seed ^ (0xC11E_0000 + idx as u64))
}

/// Warm up for `warmup`, then measure `window` of closed-loop traffic
/// from [`CLIENTS`] threads. With a tracer, spans are recorded during
/// the measured window only.
pub fn run_window<W: Workload>(
    w: &W,
    seed: u64,
    warmup: Duration,
    window: Duration,
    tracer: Option<&Tracer>,
) -> Window {
    let slices = window.as_nanos().div_ceil(SLICE.as_nanos()).max(1) as usize;
    let barrier = Barrier::new(CLIENTS + 1);
    let start: OnceLock<Instant> = OnceLock::new();
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|idx| {
                let (barrier, start) = (&barrier, &start);
                s.spawn(move || {
                    let mut c = w.client(idx, client_seed(seed, idx));
                    let mut warm = ClientLog::new(1);
                    let warm_end = Instant::now() + warmup;
                    while Instant::now() < warm_end {
                        let op = w.next(&mut c);
                        warm.record(&w.run(&mut c, op, None), 0);
                    }
                    barrier.wait();
                    barrier.wait();
                    let t0 = *start.get().expect("window start is set before the barrier");
                    let end = t0 + window;
                    let mut log = ClientLog::new(slices);
                    while Instant::now() < end {
                        let g0 = Instant::now();
                        let op = w.next(&mut c);
                        log.gen_ns += g0.elapsed().as_nanos() as u64;
                        let id = tracer.map_or(0, Tracer::new_id);
                        trace::set_parent(id);
                        let done = w.run(&mut c, op, tracer);
                        if let Some(t) = tracer {
                            t.op(OpSpan {
                                id,
                                start: t.at(done.start),
                                end: t.at(done.end),
                            });
                        }
                        let slice = (done.end - t0).as_nanos() / SLICE.as_nanos();
                        log.record(&done, (slice as usize).min(slices - 1));
                    }
                    trace::set_parent(0);
                    (warm, log)
                })
            })
            .collect();
        barrier.wait();
        let before = w.counters();
        let t0 = Instant::now();
        let mut cpu = vec![crate::sys::cpu_time()];
        start.set(t0).expect("window start is set once");
        if let Some(t) = tracer {
            t.set_on(true);
        }
        barrier.wait();
        for k in 1..=slices as u32 {
            std::thread::sleep((t0 + SLICE * k).saturating_duration_since(Instant::now()));
            cpu.push(crate::sys::cpu_time());
        }
        let mut log = ClientLog::new(slices);
        let mut warm = ClientLog::new(1);
        for t in threads {
            let (warmed, mine) = t.join().expect("client thread panicked");
            warm.merge(warmed);
            log.merge(mine);
        }
        if let Some(t) = tracer {
            t.set_on(false);
        }
        for (slice, pair) in log.slices.iter_mut().zip(cpu.windows(2)) {
            slice.cpu = pair[1].saturating_sub(pair[0]);
        }
        Window {
            log,
            warm,
            counters: before.delta(w.counters()),
        }
    })
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A class's latency: the median over slices of each slice's p50 and
/// p99, and the samples they were taken over.
pub struct Latency {
    pub class: Class,
    pub samples: usize,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// Per-class latency, for the classes the window exercised.
pub fn latencies(log: &ClientLog) -> Vec<Latency> {
    Class::ALL
        .iter()
        .filter_map(|&class| {
            let (mut p50, mut p99, mut samples) = (Vec::new(), Vec::new(), 0);
            for s in &log.slices {
                let mut v = s.lat[class as usize].clone();
                if v.is_empty() {
                    continue;
                }
                v.sort_unstable();
                samples += v.len();
                p50.push(percentile(&v, 0.50) as f64 / 1e3);
                p99.push(percentile(&v, 0.99) as f64 / 1e3);
            }
            (samples > 0).then(|| Latency {
                class,
                samples,
                p50_us: median(p50),
                p99_us: median(p99),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&[7], 0.99), 7);
    }
}
