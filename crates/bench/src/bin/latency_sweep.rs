//! osu_latency-style message-size sweep: round-trip latency from eager
//! sizes through the rendezvous pipeline, for contiguous (C) and
//! vector (V) GPU data on each topology.
//!
//! Shows the protocol switch at the eager limit (64 KB) and the
//! asymptotic bandwidth regimes of Figures 9–10.

use bench::env;
use bench::runner::{ours_rtt, BenchOpts, Sweep, Topo};
use datatype::DataType;
use gpusim::GpuArch;
use simcore::Tracer;

fn contig(kb: u64) -> DataType {
    let doubles = kb * 1024 / 8;
    DataType::contiguous(doubles, &DataType::double())
        .unwrap()
        .commit()
}

/// A vector with the same payload: blocks of 32 doubles.
fn vector(kb: u64) -> DataType {
    let doubles = kb * 1024 / 8;
    let blocks = doubles / 32;
    DataType::vector(blocks.max(1), 32.min(doubles), 64, &DataType::double())
        .unwrap()
        .commit()
}

fn one_way_us(topo: Topo, ty: &DataType, arch: &'static GpuArch, record: bool) -> (f64, Tracer) {
    let (rtt, trace) = ours_rtt(topo, arch, env::config(), ty, ty, 3, record);
    (rtt.as_micros_f64() / 2.0, trace)
}

fn main() {
    let opts = BenchOpts::parse();
    for (topo, label, suffix) in [
        (Topo::Sm2Gpu, "shared memory, inter-GPU", "sm2"),
        (Topo::Ib, "InfiniBand", "ib"),
    ] {
        Sweep::new(
            "latency-sweep",
            label,
            "message_kb",
            &[1, 4, 16, 64, 256, 1024, 4096, 16384],
        )
        .series("C_us", move |kb, a, r| one_way_us(topo, &contig(kb), a, r))
        .series("V_us", move |kb, a, r| one_way_us(topo, &vector(kb), a, r))
        .run(&opts.for_panel(suffix));
        println!();
    }
}
