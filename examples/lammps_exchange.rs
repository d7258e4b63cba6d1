//! LAMMPS-style particle exchange (the paper's §3 indexed-type
//! motivation): each rank keeps an array of particle records on its
//! GPU plus a list of indices of the particles that crossed into the
//! neighbour's domain; an `indexed_block` datatype gathers exactly
//! those records for the send — no hand-written packing kernel.
//!
//! ```text
//! cargo run --release --example lammps_exchange
//! ```

use gpu_ddt::memsim::MemSpace;
use gpu_ddt::prelude::*;
use gpu_ddt::simcore::rng::rng;

/// One particle: position (3 doubles) + velocity (3 doubles) + id/type
/// packed into one more double-slot. 56 bytes, like LAMMPS' `x`/`v`
/// exchange payload.
const PARTICLE_DOUBLES: u64 = 7;

fn main() {
    let n_particles: u64 = 100_000;
    let n_leaving: usize = 8_000;

    // Deterministically pick which particles leave the domain.
    let mut r = rng(2016);
    let mut idx: Vec<i64> = (0..n_particles as i64).collect();
    r.shuffle(&mut idx);
    let mut leaving = idx[..n_leaving].to_vec();
    leaving.sort_unstable(); // LAMMPS builds its lists in index order

    let particle = DataType::contiguous(PARTICLE_DOUBLES, &DataType::double()).unwrap();
    let send_ty = DataType::indexed_block(1, &leaving, &particle)
        .unwrap()
        .commit();
    // The receiver appends to the end of its own array: contiguous.
    let recv_ty = DataType::contiguous(n_leaving as u64, &particle)
        .unwrap()
        .commit();
    println!(
        "exchanging {n_leaving} of {n_particles} particles ({} KB) described by {}",
        send_ty.size() / 1024,
        send_ty
    );

    let mut sess = Session::builder()
        .two_ranks_two_gpus()
        .label("lammps-exchange")
        .build();
    let gpu0 = sess.world.mpi.ranks[0].gpu;
    let gpu1 = sess.world.mpi.ranks[1].gpu;
    let array_bytes = n_particles * PARTICLE_DOUBLES * 8;
    let sbuf = sess
        .world
        .cluster
        .memory
        .alloc(MemSpace::Device(gpu0), array_bytes)
        .unwrap();
    let rbuf = sess
        .world
        .cluster
        .memory
        .alloc(MemSpace::Device(gpu1), send_ty.size())
        .unwrap();

    // Fill the particle array with per-particle markers.
    let mut data = vec![0u8; array_bytes as usize];
    let mut rr = rng(7);
    rr.fill(&mut data[..]);
    sess.world.cluster.memory.write(sbuf, &data).unwrap();

    // Two exchanges: the first pays DEV conversion, the second reuses
    // the cached CUDA-DEVs (LAMMPS reuses its lists across many steps).
    for step in 0..2 {
        let t0 = sess.now();
        let s = isend(&mut sess, SendArgs::new(0, 1, sbuf, &send_ty, 1).tag(step));
        let rv = irecv(&mut sess, RecvArgs::new(1, 0, rbuf, &recv_ty, 1).tag(step));
        wait_all(&mut sess, &[s, rv]).expect("exchange failed");
        println!("step {step}: exchange took {}", sess.now() - t0);
    }

    // Verify the gathered records.
    let got = sess
        .world
        .cluster
        .memory
        .read_vec(rbuf, send_ty.size())
        .unwrap();
    let rec = (PARTICLE_DOUBLES * 8) as usize;
    for (k, &i) in leaving.iter().enumerate() {
        let src = i as usize * rec;
        assert_eq!(
            &got[k * rec..(k + 1) * rec],
            &data[src..src + rec],
            "particle {i}"
        );
    }

    let metrics = sess.finish();
    assert_eq!(
        metrics.counter(Counter::MpiDeliveredBytes),
        2 * send_ty.size()
    );
    println!("OK — all {n_leaving} migrated particles verified");
}
