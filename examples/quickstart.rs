//! Quickstart: send a non-contiguous GPU-resident datatype between two
//! MPI ranks and verify the bytes.
//!
//! ```text
//! cargo run --release --example quickstart [arch]
//! ```
//!
//! Walks through the whole stack: build a derived datatype (a 256×256
//! sub-matrix of doubles inside a 512-column matrix), commit it, place
//! patterned data in GPU memory, and exchange it between two ranks that
//! share a node — the runtime picks the pipelined CUDA-IPC RDMA
//! protocol and the GPU datatype engine packs/unpacks with kernels.
//!
//! The optional `arch` argument selects the simulated GPU from the
//! backend registry (`k40`, `p100`, `v100`, `a100`); the default is the
//! paper's K40 testbed.

use gpu_ddt::datatype::testutil::{buffer_span, pattern, reference_pack};
use gpu_ddt::memsim::MemSpace;
use gpu_ddt::prelude::*;

fn main() {
    // 1. A derived datatype: 256 columns of 256 doubles, stride 512
    //    (i.e. a sub-matrix of a 512-row column-major matrix).
    let n: u64 = 256;
    let ty = DataType::vector(n, n, 2 * n as i64, &DataType::double())
        .expect("vector type")
        .commit();
    println!("datatype: {ty}");
    println!("  size   = {} bytes (the data)", ty.size());
    println!("  extent = {} bytes (the footprint)", ty.extent());

    // 2. A two-rank job on one node, one GPU per rank, on the selected
    //    GPU architecture (`GpuArch` comes from the prelude — no
    //    subsystem crate is named here).
    let arch = match std::env::args().nth(1) {
        Some(name) => GpuArch::named(&name),
        None => GpuArch::default_arch(),
    };
    println!("arch: {} — {}", arch.name, arch.summary);
    let mut sess = Session::builder()
        .arch(arch)
        .two_ranks_two_gpus()
        .label("quickstart")
        .build();

    // 3. GPU buffers: rank 0's filled with a test pattern.
    let (base, len) = buffer_span(&ty, 1);
    let gpu0 = sess.world.mpi.ranks[0].gpu;
    let gpu1 = sess.world.mpi.ranks[1].gpu;
    let sbuf = sess
        .world
        .cluster
        .memory
        .alloc(MemSpace::Device(gpu0), len as u64)
        .unwrap();
    let rbuf = sess
        .world
        .cluster
        .memory
        .alloc(MemSpace::Device(gpu1), len as u64)
        .unwrap();
    let bytes = pattern(len);
    sess.world.cluster.memory.write(sbuf, &bytes).unwrap();

    // 4. Exchange (nonblocking send/recv + waitall).
    let s = isend(
        &mut sess,
        SendArgs::new(0, 1, sbuf.add(base as u64), &ty, 1).tag(42),
    );
    let r = irecv(
        &mut sess,
        RecvArgs::new(1, 0, rbuf.add(base as u64), &ty, 1).tag(42),
    );
    wait_all(&mut sess, &[s.clone(), r.clone()]).expect("transfer failed");

    // 5. Verify: the received packed stream equals the sent one.
    let got = sess
        .world
        .cluster
        .memory
        .read_vec(rbuf, len as u64)
        .unwrap();
    let sent = reference_pack(&ty, 1, &bytes, base);
    let received = reference_pack(&ty, 1, &got, base);
    assert_eq!(sent, received, "payload corrupted");

    println!(
        "transferred {} bytes of non-contiguous GPU data in {} (virtual time)",
        s.expect_bytes(),
        r.completed_at().unwrap()
    );

    // 6. The session's metrics double as a correctness check: the
    //    delivered-bytes counter is maintained by the very events that
    //    moved the data.
    let metrics = sess.finish();
    assert_eq!(metrics.counter(Counter::MpiDeliveredBytes), ty.size());
    println!(
        "metrics: delivered {} bytes",
        metrics.counter(Counter::MpiDeliveredBytes)
    );
    println!("OK — received data verified against the CPU reference engine");
}
