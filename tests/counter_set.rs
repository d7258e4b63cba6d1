//! A session's counter set is a function of how it was built, not of
//! what ran earlier in the process: this binary's one test builds a
//! session before anything has landed a byte — the copy pool not yet
//! started — and another, with equal arguments, after a transfer large
//! enough to start it, and both report the same counter names. Its own
//! binary, so no other test has started the pool first; CI also runs it
//! at `GPU_DDT_COPY_THREADS=1`, where the pool has no worker.

use datatype::DataType;
use gpusim::GpuWorld as _;
use memsim::MemSpace;
use mpirt::{irecv, isend, wait_all, RecvArgs, SendArgs, Session};
use std::collections::BTreeSet;

fn counter_names(sess: &mut Session) -> BTreeSet<&'static str> {
    (sess.metrics().counters.iter())
        .map(|(k, _)| k.counter.name())
        .collect()
}

#[test]
fn a_session_built_after_a_landing_counts_what_one_built_before_does() {
    let mut first = Session::builder().build();
    let before = counter_names(&mut first);
    // 8 MiB dense, device to device: one batch the copy pool splits.
    let ty = DataType::contiguous(1 << 20, &DataType::double())
        .unwrap()
        .commit();
    let len = ty.size();
    let bufs = [0, 1].map(|rank| {
        let gpu = first.world.mpi.ranks[rank].gpu;
        first.world.mem().alloc(MemSpace::Device(gpu), len).unwrap()
    });
    let s = isend(&mut first, SendArgs::new(0, 1, bufs[0], &ty, 1));
    let r = irecv(&mut first, RecvArgs::new(1, 0, bufs[1], &ty, 1));
    wait_all(&mut first, &[s, r]).expect("transfer failed");
    let mut second = Session::builder().build();
    assert_eq!(counter_names(&mut second), before);
}
