//! model_residuals — how far the tuner's prediction is from the run.
//!
//! For every architecture, path class, layout and size the binary asks
//! `mpirt::tuner::predict` what one transfer down the class costs — the
//! schedule of the class's plan at the shape it would run, a kernel on
//! its first window's exact traffic (`devengine::window_traffic`) — then
//! runs that transfer on an otherwise idle two-rank world and reads its
//! virtual duration. Each transfer runs three times on one world
//! (handshake, cold caches, warm caches); the warm run is the realised
//! time. `error` is predicted / realised − 1, 0 wherever every fragment
//! repeats the first one's traffic, as in every cell here.
//!
//! Grid: k40, p100, v100, a100 × {SM one GPU, SM two GPUs, IB staged, IB
//! zero-copy, NIC offload, stream-triggered} × {dense, `vector(·, 2, 4)`,
//! `vector(·, 4096, 8192)` doubles} × {1, 4, 16} fragments of the
//! configured 512 KiB.
//!
//! ```text
//! model_residuals > results/model_residuals.csv
//! ```

use bench::env;
use bench::runner::Topo;
use bench::workloads::alloc_typed;
use datatype::DataType;
use gpusim::GpuArch;
use mpirt::protocol::{transfer_down, Side};
use mpirt::tuner::{predict, PathClass};
use mpirt::MpiConfig;
use simcore::SimTime;

/// A layout of `bytes` payload bytes.
type Layout = fn(u64) -> DataType;

fn dense(bytes: u64) -> DataType {
    DataType::contiguous(bytes / 8, &DataType::double())
        .expect("dense")
        .commit()
}

/// 16-byte blocks, 32 bytes apart.
fn fine(bytes: u64) -> DataType {
    DataType::vector(bytes / 16, 2, 4, &DataType::double())
        .expect("fine")
        .commit()
}

/// 32 KiB blocks, 64 KiB apart.
fn coarse(bytes: u64) -> DataType {
    DataType::vector(bytes >> 15, 4096, 8192, &DataType::double())
        .expect("coarse")
        .commit()
}

/// Predicted and realised duration of one transfer of `ty` down `class`.
fn residual(
    arch: &'static GpuArch,
    topo: Topo,
    class: PathClass,
    config: MpiConfig,
    ty: &DataType,
) -> (SimTime, SimTime) {
    let mut sess = topo.session(arch, config).build();
    let side = |sess: &mut mpirt::Session, rank| Side {
        rank,
        ty: ty.clone(),
        count: 1,
        buf: alloc_typed(sess, rank, ty, 1, true, rank == 0),
    };
    let (s, r) = (side(&mut sess, 0), side(&mut sess, 1));
    let predicted = predict(&mut sess, &s, &r, class);
    let mut realised = SimTime::ZERO;
    for _ in 0..3 {
        let then = sess.now();
        let (send, recv) = transfer_down(&mut sess, class, s.clone(), r.clone());
        sess.run();
        assert_eq!(send.expect_bytes(), ty.size());
        assert_eq!(recv.expect_bytes(), ty.size());
        realised = sess.now() - then;
    }
    (predicted, realised)
}

fn main() {
    let base = env::config();
    let frag = base.frag_size;
    let classes = [
        ("sm1", Topo::Sm1Gpu, PathClass::SmIpc),
        ("sm2", Topo::Sm2Gpu, PathClass::SmIpc),
        ("ib-staged", Topo::Ib, PathClass::CopyInOut),
        ("ib-zero-copy", Topo::Ib, PathClass::ZeroCopy),
        ("nic", Topo::Ib, PathClass::NicOffload),
        ("stream", Topo::Ib, PathClass::StreamTriggered),
    ];
    let layouts: [(&str, Layout); 3] = [("dense", dense), ("fine", fine), ("coarse", coarse)];
    println!("# model-residuals — tuner prediction vs warm virtual duration of one transfer");
    println!("arch,class,layout,bytes,predicted_ns,realised_ns,error");
    for arch in ["k40", "p100", "v100", "a100"] {
        let arch = GpuArch::named(arch);
        for (name, topo, class) in classes {
            let config = MpiConfig {
                zero_copy: class == PathClass::ZeroCopy,
                nic_offload: class == PathClass::NicOffload,
                stream_trigger: class == PathClass::StreamTriggered,
                ..base.clone()
            };
            for (layout, mk) in layouts {
                for frags in [1, 4, 16] {
                    let ty = mk(frags * frag);
                    let (p, r) = residual(arch, topo, class, config.clone(), &ty);
                    let error = p.as_nanos() as f64 / r.as_nanos() as f64 - 1.0;
                    println!(
                        "{},{name},{layout},{},{},{},{error:.4}",
                        arch.name,
                        ty.size(),
                        p.as_nanos(),
                        r.as_nanos()
                    );
                }
            }
        }
    }
}
