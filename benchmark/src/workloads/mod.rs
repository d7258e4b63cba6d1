//! The five workloads and what they share: the contract a workload
//! offers the segment runner, exact counters, buffer set-up and the
//! CPU-reference oracle.
//!
//! Each workload is a closed loop with one client: the next op is
//! issued only when the previous one has completed.

pub mod a2a;
pub mod cells;
pub mod pingpong;
pub mod soak;

use crate::spans::Spans;
use crate::sys::process_cpu_seconds;
use datatype::convertor::{pack_all, unpack_all};
use datatype::testutil::buffer_span;
use datatype::DataType;
use gpusim::GpuWorld as _;
use memsim::{MemSpace, Ptr};
use mpirt::api::wait_all;
use mpirt::{irecv, isend, MpiError, RecvArgs, SendArgs, Session};
use simcore::rng::{fill_bytes, SimRng};
use simcore::trace::names;
use std::ops::{AddAssign, Sub};
use std::time::Instant;

/// The seed a run uses unless told otherwise: `scale_soak`'s
/// `ScaleConfig::seed`, so that `soak_1k` at the default seed must
/// reproduce the digest committed in `BENCH_scale.json`.
pub const DEFAULT_SEED: u64 = 0xD15C0;

/// Workload sizes: the measured ones, or shrunk so that all five
/// workloads smoke-test in seconds. Smoke numbers are never compared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// Name, reason and nominal op count of each workload, in run order.
/// `ops` is the count per segment at the nominal run length
/// ([`crate::run::NOMINAL_SECONDS`]); `warmups` ops run in set-up.
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub ops: usize,
    pub smoke_ops: usize,
    pub warmups: usize,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "pp_dense",
        why: "67 MB triangular ping-pong over shared memory: byte movement (simcore::par, gpusim kernels, staging memcpy) does most of the work",
        ops: 30,
        smoke_ops: 3,
        warmups: 3,
    },
    Spec {
        name: "pp_irregular",
        why: "seeded 131072-block indexed type over InfiniBand: the cached DEV list split into CUDA-DEV units dominates, bytes are few",
        ops: 75,
        smoke_ops: 3,
        warmups: 3,
    },
    Spec {
        name: "cells_cold",
        why: "a figure row of 9 cold cells: session build, handshake, commit, plan build, DevCache and tuner misses, all three unit sources",
        ops: 22,
        smoke_ops: 2,
        warmups: 3,
    },
    Spec {
        name: "a2a_64",
        why: "64-rank full-stack eager alltoall on a persistent session: event dispatch, matcher, request and protocol closures dominate",
        ops: 25,
        smoke_ops: 2,
        warmups: 3,
    },
    Spec {
        name: "soak_1k",
        why: "1024-rank mpirt::scale alltoall with live faults on 1 shard: the only user of simcore::shard, mpirt::scale and faultsim rolls",
        ops: 5,
        smoke_ops: 2,
        warmups: 1,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Exact counts taken from the program's own counters. Deltas over the
/// timed ops of a segment, divided by the op count, give the `*_per_op`
/// metrics; they repeat exactly at one seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub events: u64,
    pub delivered_bytes: u64,
    pub wire_bytes: u64,
    pub am_count: u64,
    pub kernel_launches: u64,
    pub kernel_units: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub scratch_fresh: u64,
    pub faults_injected: u64,
    pub retries: u64,
}

impl Counts {
    /// Totals of a live session so far. `scratch_fresh` is not the
    /// session's to count: the shelf lives on the thread, and the
    /// segment runner reads it.
    pub fn of_session(sess: &mut Session) -> Counts {
        let m = sess.metrics();
        Counts {
            events: sess.executed_events(),
            delivered_bytes: m.counter(names::MPI_DELIVERED_BYTES),
            wire_bytes: m.counter(names::MPIRT_WIRE_BYTES),
            am_count: m.counter(names::NETSIM_AM_COUNT),
            kernel_launches: m.counter(names::GPUSIM_KERNEL_LAUNCHES),
            kernel_units: m.counter(names::GPUSIM_KERNEL_UNITS),
            cache_hits: m.counter(names::DEVENGINE_CACHE_HIT),
            cache_misses: m.counter(names::DEVENGINE_CACHE_MISS),
            scratch_fresh: 0,
            faults_injected: m.counter(names::FAULT_INJECTED),
            retries: m.counter(names::RETRY_ATTEMPTS),
        }
    }

    fn zip(self, o: Counts, f: impl Fn(u64, u64) -> u64) -> Counts {
        Counts {
            events: f(self.events, o.events),
            delivered_bytes: f(self.delivered_bytes, o.delivered_bytes),
            wire_bytes: f(self.wire_bytes, o.wire_bytes),
            am_count: f(self.am_count, o.am_count),
            kernel_launches: f(self.kernel_launches, o.kernel_launches),
            kernel_units: f(self.kernel_units, o.kernel_units),
            cache_hits: f(self.cache_hits, o.cache_hits),
            cache_misses: f(self.cache_misses, o.cache_misses),
            scratch_fresh: f(self.scratch_fresh, o.scratch_fresh),
            faults_injected: f(self.faults_injected, o.faults_injected),
            retries: f(self.retries, o.retries),
        }
    }
}

impl Sub for Counts {
    type Output = Counts;
    fn sub(self, o: Counts) -> Counts {
        self.zip(o, |a, b| a - b)
    }
}

impl AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        *self = self.zip(o, |a, b| a + b);
    }
}

/// What one op reports back. `wall_ns` and `cpu_s` cover the program's
/// work only: a workload stops its clock before it checks bytes.
pub struct OpReport {
    pub wall_ns: f64,
    pub cpu_s: f64,
    /// Virtual time the op took: the model's answer.
    pub sim_ns: u64,
    /// Requests completed without error, the delivered-bytes counter
    /// moved by exactly the payload, and any per-op byte check held.
    pub ok: bool,
}

/// Wall and CPU stopwatch for the program part of an op.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            cpu: process_cpu_seconds(),
            wall: Instant::now(),
        }
    }

    /// (wall ns, CPU s) since `start`.
    pub fn stop(&self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_nanos() as f64;
        (wall, process_cpu_seconds() - self.cpu)
    }
}

/// What the segment runner needs of a workload. A segment builds a
/// fresh `State` from nothing, runs warm-up and timed ops on it,
/// verifies it and drops it.
pub trait Workload {
    type State;

    /// Build everything the ops need: session or world, fresh datatype
    /// trees and commit, buffer alloc and fill. `record` turns the
    /// program's own virtual-time tracer on (the record-overhead probe).
    fn setup(&self, record: bool, sp: &mut Spans) -> Self::State;

    /// Work out the oracle's expectation from the freshly built state,
    /// before any op touches it. Harness work: the runner keeps it out
    /// of the set-up time.
    fn arm_oracle(&self, _st: &mut Self::State) {}

    /// One op, identical work every time.
    fn op(&self, st: &mut Self::State, sp: &mut Spans) -> OpReport;

    /// The program's counter totals so far in this segment.
    fn counts(&self, st: &mut Self::State) -> Counts;

    /// The per-segment oracle: the receive buffers equal the CPU
    /// reference convertor's `pack_all` → `unpack_all` of the source.
    /// With `corrupt` the expectation is damaged first, which must make
    /// the check fail (the harness tests its own oracle that way).
    fn verify(&self, st: &mut Self::State, corrupt: bool) -> bool;

    /// The datatype the datatype and devengine probes run on: the
    /// workload's own, freshly constructed and committed.
    fn probe_type(&self) -> DataType;
}

/// A typed buffer in simulated memory: the allocation and where
/// displacement 0 sits inside it.
#[derive(Clone, Copy)]
pub struct TypedBuf {
    pub alloc: Ptr,
    pub base: i64,
    pub len: usize,
}

impl TypedBuf {
    /// The displacement-0 pointer the MPI calls take.
    pub fn ptr(&self) -> Ptr {
        self.alloc.add(self.base as u64)
    }
}

/// Allocate room for one instance of `ty` on `rank`'s GPU; with a
/// `fill` seed, fill it with that seed's bytes (otherwise it is zero).
pub fn alloc_typed(sess: &mut Session, rank: usize, ty: &DataType, fill: Option<u64>) -> TypedBuf {
    let (base, len) = buffer_span(ty, 1);
    let space = MemSpace::Device(sess.world.mpi.ranks[rank].gpu);
    let alloc = sess
        .world
        .mem()
        .alloc(space, len.max(1) as u64)
        .expect("typed buffer fits the simulated device");
    if let Some(seed) = fill {
        let bytes = sess
            .world
            .mem()
            .slice_mut(alloc, len as u64)
            .expect("fresh allocation");
        fill_bytes(seed, bytes);
    }
    TypedBuf { alloc, base, len }
}

/// The oracle's expectation for a receive buffer of layout `ty_r` that
/// started zeroed and received the data `ty_s` describes in `src`:
/// `pack_all` of the source, `unpack_all` into zeros.
pub fn expected_recv(
    ty_s: &DataType,
    src: &[u8],
    base_s: i64,
    ty_r: &DataType,
    base_r: i64,
    len_r: usize,
) -> Vec<u8> {
    let packed = pack_all(ty_s, 1, src, base_s);
    let mut out = vec![0u8; len_r];
    unpack_all(ty_r, 1, &mut out, base_r, &packed);
    out
}

/// `got == expected`, after damaging the expectation when asked to.
pub fn oracle_eq(got: &[u8], expected: &[u8], corrupt: bool) -> bool {
    if !corrupt {
        return got == expected;
    }
    let mut damaged = expected.to_vec();
    if let Some(b) = damaged.first_mut() {
        *b ^= 0xFF;
    }
    got == damaged.as_slice()
}

/// Two ranks' buffers and types for a ping-pong: rank 0 sends
/// `(ty0, b0)`, rank 1 receives into `(ty1, b1)` and sends it back.
pub struct Pair {
    pub ty0: DataType,
    pub ty1: DataType,
    pub b0: TypedBuf,
    pub b1: TypedBuf,
}

/// One synchronous round trip 0 → 1 → 0, with a span around each post
/// and each drive. Returns the first request error instead of
/// panicking, so a failed op is counted, not fatal.
pub fn round_trip(sess: &mut Session, pair: &Pair, sp: &mut Spans) -> Result<(), MpiError> {
    let legs = [
        (0usize, 1usize, &pair.ty0, &pair.b0, &pair.ty1, &pair.b1),
        (1, 0, &pair.ty1, &pair.b1, &pair.ty0, &pair.b0),
    ];
    for (from, to, ty_s, buf_s, ty_r, buf_r) in legs {
        let post = sp.begin("mpirt.post");
        let s = isend(sess, SendArgs::new(from, to, buf_s.ptr(), ty_s, 1).tag(99));
        let r = irecv(sess, RecvArgs::new(to, from, buf_r.ptr(), ty_r, 1).tag(99));
        sp.end(post);
        let drive = sp.begin("mpirt.drive");
        let done = wait_all(sess, &[s, r]);
        sp.end(drive);
        done?;
    }
    Ok(())
}

/// The irregular indexed type of `pp_irregular`: `blocks` blocks of 1–8
/// doubles separated by gaps of 1–8 doubles. A pure function of the
/// seed, so the program receives only generated inputs.
pub fn irregular(seed: u64, blocks: usize) -> DataType {
    let mut rng = SimRng::for_stream(seed, 0x1AA6);
    let mut lens = Vec::with_capacity(blocks);
    let mut disps = Vec::with_capacity(blocks);
    let mut at = 0i64;
    for _ in 0..blocks {
        let len = rng.range_u64(1, 9);
        lens.push(len);
        disps.push(at);
        at += (len + rng.range_u64(1, 9)) as i64;
    }
    DataType::indexed(&lens, &disps, &DataType::double())
        .expect("irregular indexed type")
        .commit()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn irregular_is_a_pure_function_of_the_seed() {
        let a = irregular(DEFAULT_SEED, 131_072);
        assert_eq!(
            a.layout_fingerprint(),
            irregular(DEFAULT_SEED, 131_072).layout_fingerprint()
        );
        assert_ne!(
            a.layout_fingerprint(),
            irregular(DEFAULT_SEED + 1, 131_072).layout_fingerprint()
        );
        // Pinned: moving this is a change of the benchmark's inputs.
        assert_eq!(a.layout_fingerprint(), PINNED_IRREGULAR_FINGERPRINT);
        // About 4.7 MB of data in about twice that extent.
        assert!((4_500_000..4_950_000).contains(&a.size()), "{}", a.size());
        let segs = a.segments(1);
        assert_eq!(segs.len(), 131_072, "gaps keep every block its own segment");
        assert!(segs.iter().all(|s| (8..=64).contains(&s.len)));
    }

    const PINNED_IRREGULAR_FINGERPRINT: u64 = 3_936_395_867_212_924_729;

    #[test]
    fn oracle_detects_a_damaged_expectation() {
        let got = [1u8, 2, 3];
        assert!(oracle_eq(&got, &[1, 2, 3], false));
        assert!(!oracle_eq(&got, &[1, 2, 4], false));
        assert!(!oracle_eq(&got, &[1, 2, 3], true));
    }

    #[test]
    fn expected_recv_scatters_the_packed_source() {
        // Every other double of the source lands contiguously.
        let v = DataType::vector(2, 1, 2, &DataType::double())
            .unwrap()
            .commit();
        let c = DataType::contiguous(2, &DataType::double())
            .unwrap()
            .commit();
        let src: Vec<u8> = (1..=24).collect();
        let want: Vec<u8> = (1..=8).chain(17..=24).collect();
        assert_eq!(expected_recv(&v, &src, 0, &c, 0, 16), want);
    }

    #[test]
    fn names_fit_the_contract() {
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for s in &SPECS {
            assert!(ok(s.name), "{}", s.name);
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
            assert!(s.ops >= s.smoke_ops && s.smoke_ops >= 1 && s.warmups >= 1);
        }
        assert!(spec("pp_dense").is_some() && spec("nope").is_none());
    }

    #[test]
    fn counts_subtract_and_accumulate_fieldwise() {
        let a = Counts {
            events: 10,
            retries: 3,
            ..Counts::default()
        };
        let b = Counts {
            events: 4,
            retries: 1,
            ..Counts::default()
        };
        let d = a - b;
        assert_eq!((d.events, d.retries, d.am_count), (6, 2, 0));
        let mut sum = d;
        sum += b;
        assert_eq!(sum, a);
    }
}
