//! chaos_soak — sweep transient-fault rates across the figure
//! workloads and topologies, asserting that every injected schedule
//! still delivers byte-correct data within a bounded slowdown, and
//! that permanent losses demote cleanly: IPC loss renegotiates to
//! copy-in/copy-out, zero-copy pin loss demotes to staged copies,
//! NIC-handler loss demotes NicOffload to GPU-pack, and doorbell loss
//! demotes StreamTriggered to the CPU-driven path (DESIGN.md §15) — all
//! byte-equal, each with one metered fallback.
//!
//! Prints one CSV table (makespan in ms per cell; the `fault_rate_pct`
//! axis is the per-charge-point transient probability in percent) plus
//! `#` comment lines for the permanent-loss scenarios and the verdict.
//! `--arch` (repeatable and/or comma-separated) sweeps the transient
//! table across architectures, adding the arch column exactly like the
//! figure binaries. Exits non-zero on any delivered-bytes mismatch,
//! stalled run, missing demotion, or cell slower than the
//! bounded-slowdown envelope — so CI can run `chaos_soak --smoke` as a
//! gate.

use bench::env;
use bench::harness::{ms, print_header, print_row, Figure};
use bench::runner::{BenchOpts, Topo};
use bench::workloads::{contiguous_matrix, submatrix, triangular};
use datatype::testutil::{buffer_span, pattern, reference_pack};
use datatype::DataType;
use faultsim::{counters, FaultKind, FaultOp, FaultPlan};
use gpusim::GpuWorld as _;
use memsim::{MemSpace, Ptr};
use mpirt::api::{irecv, isend, wait_all, RecvArgs, SendArgs};
use mpirt::MpiConfig;
use simcore::trace::names;
use simcore::{Counter, SimTime};

/// A run that exceeds this multiple of its fault-free makespan (plus a
/// fixed grace for backoff delays on short runs) counts as unbounded.
const SLOWDOWN_CAP: f64 = 10.0;
const SLOWDOWN_GRACE: SimTime = SimTime(2_000_000); // 2 ms of backoffs

struct Cell {
    makespan: SimTime,
    m: simcore::Metrics,
}

/// One device-to-device transfer of `ty` on `arch` under `config`
/// (fault plan included); checks the delivered packed stream against
/// the reference pack of the sent pattern. Any mismatch or stall comes
/// back as `Err`.
fn transfer(
    topo: Topo,
    arch: &'static gpusim::GpuArch,
    config: MpiConfig,
    ty: &DataType,
) -> Result<Cell, String> {
    let mut sess = topo.session(arch, config).build();
    let (base, len) = buffer_span(ty, 1);
    let g0 = MemSpace::Device(sess.world.mpi.ranks[0].gpu);
    let g1 = MemSpace::Device(sess.world.mpi.ranks[1].gpu);
    let sbuf = sess.world.mem().alloc(g0, (len.max(1)) as u64).unwrap();
    let rbuf = sess.world.mem().alloc(g1, (len.max(1)) as u64).unwrap();
    let sent = pattern(len);
    sess.world.mem().write(sbuf, &sent).unwrap();
    let s = isend(
        &mut sess,
        SendArgs {
            from: 0,
            to: 1,
            tag: 0,
            ty: ty.clone(),
            count: 1,
            buf: sbuf.add(base as u64),
        },
    );
    let r = irecv(
        &mut sess,
        RecvArgs {
            rank: 1,
            src: Some(0),
            tag: Some(0),
            ty: ty.clone(),
            count: 1,
            buf: rbuf.add(base as u64),
        },
    );
    wait_all(&mut sess, &[s, r]).map_err(|e| format!("transfer failed: {e}"))?;
    let want = reference_pack(ty, 1, &sent, base);
    let got_buf = sess
        .world
        .mem()
        .read_vec(Ptr { offset: 0, ..rbuf }, len as u64)
        .unwrap();
    let got = reference_pack(ty, 1, &got_buf, base);
    if got != want {
        return Err("delivered bytes mismatch".to_string());
    }
    let makespan = sess.now();
    let m = sess.metrics();
    Ok(Cell { makespan, m })
}

/// Shorthand: wrap a fault plan in the run's configuration.
fn faulted(plan: FaultPlan) -> MpiConfig {
    MpiConfig {
        fault_plan: plan,
        ..env::config()
    }
}

fn main() {
    let opts = BenchOpts::parse();
    let smoke = opts.smoke || opts.rest.iter().any(|a| a == "--smoke");
    let (n, rates): (u64, Vec<u64>) = if smoke {
        (128, vec![0, 5, 20])
    } else {
        (256, vec![0, 1, 5, 20])
    };
    let archs = opts.archs();
    let legacy = archs == [gpusim::GpuArch::default_arch()];
    let topos = [(Topo::Sm2Gpu, "sm2"), (Topo::Ib, "ib")];
    let tys = [
        ("C", contiguous_matrix(n)),
        ("V", submatrix(n)),
        ("T", triangular(n)),
    ];
    let columns: Vec<String> = topos
        .iter()
        .flat_map(|(_, tn)| tys.iter().map(move |(wn, _)| format!("{tn}-{wn}")))
        .collect();
    print_header(&Figure {
        id: "chaos_soak",
        title: "makespan under swept transient-fault rates",
        x_label: "fault_rate_pct",
        arch_column: !legacy,
        series: columns.clone(),
    });

    let mut violations: Vec<String> = Vec::new();
    // Fault-free makespan per (arch, column), filled by the rate-0 row.
    let mut baseline: Vec<SimTime> = Vec::new();
    let mut total_injected = 0u64;
    for &rate in &rates {
        for (ai, &arch) in archs.iter().enumerate() {
            let mut row = Vec::new();
            for (ti, (topo, tname)) in topos.iter().enumerate() {
                for (wi, (wname, ty)) in tys.iter().enumerate() {
                    let col = ai * columns.len() + ti * tys.len() + wi;
                    let plan = if rate == 0 {
                        FaultPlan::empty()
                    } else {
                        let seed =
                            1000 + (ai as u64) * 1000 + (ti as u64) * 100 + (wi as u64) * 10 + rate;
                        FaultPlan::empty().with_seed(seed).with_rule(
                            None,
                            FaultKind::Transient,
                            rate as f64 / 100.0,
                        )
                    };
                    match transfer(*topo, arch, faulted(plan), ty) {
                        Ok(cell) => {
                            total_injected += cell.m.counter(counters::FAULT_INJECTED);
                            if rate == 0 {
                                baseline.push(cell.makespan);
                            } else {
                                let cap = SimTime(
                                    (baseline[col].0 as f64 * SLOWDOWN_CAP) as u64
                                        + SLOWDOWN_GRACE.0,
                                );
                                if cell.makespan > cap {
                                    violations.push(format!(
                                        "{tname}-{wname} @ {rate}% on {}: makespan {} exceeds \
                                         {SLOWDOWN_CAP}x fault-free bound {}",
                                        arch.name, cell.makespan, cap
                                    ));
                                }
                            }
                            row.push(ms(cell.makespan));
                        }
                        Err(e) => {
                            violations
                                .push(format!("{tname}-{wname} @ {rate}% on {}: {e}", arch.name));
                            row.push(f64::NAN);
                        }
                    }
                }
            }
            print_row(rate, (!legacy).then_some(arch.name), &row, &[]);
        }
    }
    if total_injected == 0 {
        violations.push("sweep injected no faults at all — soak is vacuous".to_string());
    }

    // Shapes the tuner provably routes to the offload path classes, with
    // their knobs set here: a run that never takes the offload rolls no
    // offload fault.
    let coarse = DataType::vector(64, 4096, 8192, &DataType::double())
        .expect("coarse")
        .commit();
    let medium = DataType::vector(512, 32, 64, &DataType::double())
        .expect("medium")
        .commit();
    let nic_cfg = MpiConfig {
        nic_offload: true,
        ..env::config()
    };
    let stream_cfg = MpiConfig {
        stream_trigger: true,
        ..env::config()
    };
    let (k40, a100, p100) = (
        gpusim::GpuArch::default_arch(),
        gpusim::GpuArch::named("a100"),
        gpusim::GpuArch::named("p100"),
    );

    // Permanent losses, one per handshake step the connection driver
    // runs: each must demote this transfer, deliver the exact bytes and
    // meter exactly one fallback.
    // The pin is rolled by the copy-in/out handshake: keep the offload
    // classes from taking the transfer.
    let pin_cfg = MpiConfig {
        zero_copy: true,
        nic_offload: false,
        stream_trigger: false,
        ..env::config()
    };
    let losses = [
        (
            "ipc",
            "renegotiated to copy-in/out",
            Topo::Sm2Gpu,
            k40,
            &tys[2].1,
            FaultOp::IpcOpen,
            env::config(),
        ),
        (
            "pin",
            "demoted to staged copy-in/out",
            Topo::Ib,
            k40,
            &tys[2].1,
            FaultOp::PinnedRegister,
            pin_cfg,
        ),
        (
            "nic",
            "demoted to GPU-pack",
            Topo::Ib,
            a100,
            &coarse,
            FaultOp::NicHandler,
            nic_cfg.clone(),
        ),
        (
            "doorbell",
            "demoted to GPU-pack",
            Topo::Ib,
            p100,
            &medium,
            FaultOp::StreamDoorbell,
            stream_cfg.clone(),
        ),
    ];
    for (step, outcome, topo, arch, ty, op, cfg) in losses {
        let plan =
            FaultPlan::empty()
                .with_seed(7)
                .with_rule(Some(op), FaultKind::PermanentLoss, 1.0);
        let lossy = MpiConfig {
            fault_plan: plan,
            ..cfg
        };
        match transfer(topo, arch, lossy, ty) {
            Ok(cell) if cell.m.counter(counters::FALLBACK_EVENTS) != 1 => violations.push(format!(
                "permanent-{step}-loss: expected one metered fallback, got {}",
                cell.m.counter(counters::FALLBACK_EVENTS)
            )),
            Ok(cell) => println!(
                "# permanent-{step}-loss: {outcome}, makespan {}, 1 fallback(s)",
                cell.makespan
            ),
            Err(e) => violations.push(format!("permanent-{step}-loss: {e}")),
        }
    }

    // Offload demotions (DESIGN.md §15): a healthy run must take the
    // offload (else the loss scenario is vacuous), and a permanent
    // handler/doorbell loss must demote back to the GPU-pack pipeline —
    // byte-equal (transfer() checks delivery) with exactly one sticky
    // demotion and zero offload executions in the metrics.
    let scenarios: [(
        &str,
        &'static gpusim::GpuArch,
        &DataType,
        MpiConfig,
        FaultOp,
        Counter,
        Counter,
    ); 2] = [
        (
            "nic-handler-loss",
            a100,
            &coarse,
            nic_cfg,
            FaultOp::NicHandler,
            names::OFFLOAD_NIC_PROGRAMS,
            names::OFFLOAD_NIC_DEMOTIONS,
        ),
        (
            "stream-doorbell-loss",
            p100,
            &medium,
            stream_cfg,
            FaultOp::StreamDoorbell,
            names::OFFLOAD_STREAM_REPLAYS,
            names::OFFLOAD_STREAM_DEMOTIONS,
        ),
    ];
    for (sname, arch, ty, cfg, op, taken, demoted) in scenarios {
        match transfer(Topo::Ib, arch, cfg.clone(), ty) {
            Ok(cell) if cell.m.counter(taken) == 0 => violations.push(format!(
                "{sname}: healthy run never took the offload path ({taken} == 0)"
            )),
            Ok(cell) => println!(
                "# {sname}: healthy run offloads ({taken} = {})",
                cell.m.counter(taken)
            ),
            Err(e) => violations.push(format!("{sname} (healthy): {e}")),
        }
        let plan =
            FaultPlan::empty()
                .with_seed(7)
                .with_rule(Some(op), FaultKind::PermanentLoss, 1.0);
        let lossy = MpiConfig {
            fault_plan: plan,
            ..cfg
        };
        match transfer(Topo::Ib, arch, lossy, ty) {
            Ok(cell) => {
                if cell.m.counter(demoted) != 1 {
                    violations.push(format!(
                        "{sname}: expected exactly one sticky demotion, got {demoted} = {}",
                        cell.m.counter(demoted)
                    ));
                } else if cell.m.counter(taken) != 0 {
                    violations.push(format!(
                        "{sname}: demoted run still offloaded ({taken} = {})",
                        cell.m.counter(taken)
                    ));
                } else {
                    println!(
                        "# {sname}: demoted to GPU-pack byte-equal, makespan {}",
                        cell.makespan
                    );
                }
            }
            Err(e) => violations.push(format!("{sname} (permanent loss): {e}")),
        }
    }

    println!("# injected {total_injected} fault(s) across the sweep");
    if violations.is_empty() {
        println!("# chaos_soak: OK");
    } else {
        for v in &violations {
            eprintln!("chaos_soak violation: {v}");
        }
        std::process::exit(1);
    }
}
