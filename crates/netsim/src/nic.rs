//! sPIN-style NIC DEV executor: the packet processor runs the datatype
//! program itself.
//!
//! "Network-Accelerated Non-Contiguous Memory Transfers" (sPIN) shows a
//! NIC packet processor can execute the sender's gather program and the
//! receiver's scatter program in-line with the stream, eliminating both
//! the GPU pack kernel and the intermediate packed buffer. This module
//! models that path: a DEV descriptor program is *compiled* once from
//! the two endpoint datatypes (the same `DevCursor` walk the GPU and
//! CPU engines use), then *executed* per message — the NIC handler
//! issues one gather/scatter descriptor per work unit and streams the
//! payload straight from the sender's typed GPU buffer into the
//! receiver's typed GPU buffer. The program is that one direct move —
//! [`NicProgram::moves`] — and executing it only charges: the caller
//! lands the list, as it lands every other transfer's.
//!
//! Timing rides three per-NIC constants from the node topology tables
//! (`nic_desc_issue`, `nic_dma_bw`; `nic_handler_setup` is paid by the
//! connection layer at handler-install time): the handler front-end
//! serializes descriptor issue, then the message streams at the lesser
//! of the NIC's gather-DMA rate and the wire rate — the NIC pipelines
//! gather, wire and scatter per packet, so the legs overlap instead of
//! adding. The wire leg goes through [`crate::wire::wire_send`], which
//! keeps this path under the same fault charge point
//! (`FaultOp::WireCopy`) and retransmission machinery as every other
//! data-link hop.
//!
//! This file is one of the three sanctioned DEV interpreters (with
//! `devengine` and `mpirt`'s CPU convertor); `clippy.toml` bans the
//! `DevCursor` walk outside them.

use crate::channel::{Link, NetError};
use crate::wire::wire_send;
use crate::world::NetWorld;
use datatype::{DataType, TypeError};
use devengine::merge_units;
use gpusim::NodeTopology;
use memsim::MoveList;
use simcore::trace::names;
use simcore::{Bandwidth, Sim, SimTime, Track};
use std::rc::Rc;

/// Per-NIC packet-processor cost constants, lifted from the node
/// topology tables (the single source of raw arch numbers).
#[derive(Clone, Copy, Debug)]
pub struct NicCosts {
    /// Per-descriptor issue cost on the handler cores.
    pub desc_issue: SimTime,
    /// Gather/scatter DMA streaming rate from/into GPU memory.
    pub dma_bw: Bandwidth,
}

impl NicCosts {
    pub fn of(topo: &NodeTopology) -> Self {
        NicCosts {
            desc_issue: topo.nic_desc_issue,
            dma_bw: topo.nic_dma_bw,
        }
    }

    /// Handler front-end serialization: issue of `descriptors`.
    fn issue_time(&self, descriptors: u64) -> SimTime {
        SimTime::from_nanos(self.desc_issue.as_nanos().saturating_mul(descriptors))
    }

    /// Bytes the data link carries for a `bytes` payload. The NIC
    /// pipelines gather-DMA, wire and scatter-DMA per packet, so the
    /// stream runs at the slowest leg: a DMA engine slower than the wire
    /// shows up as extra serialization on the (reserved) data link.
    fn wire_bytes(&self, bytes: u64, wire_bw: Bandwidth) -> u64 {
        if self.dma_bw.bytes_per_sec() < wire_bw.bytes_per_sec() {
            (bytes as f64 * wire_bw.bytes_per_sec() / self.dma_bw.bytes_per_sec()) as u64
        } else {
            bytes
        }
    }

    /// The price of a program of `descriptors` moving `bytes` over an
    /// idle `data` link: what [`execute_program`] charges — descriptor
    /// issue, then the stream.
    pub fn time(&self, descriptors: u64, bytes: u64, data: &Link) -> SimTime {
        self.issue_time(descriptors) + data.time(self.wire_bytes(bytes, data.bandwidth))
    }
}

/// A compiled NIC DEV program: the merged gather/scatter descriptor
/// list for one `(send type, recv type)` pair, ready to execute per
/// message. Fields are private — programs exist only through
/// [`compile_program`], mirroring how stream-op graphs exist only
/// through their capture API.
#[derive(Clone, Debug)]
pub struct NicProgram {
    /// Direct sender-typed → receiver-typed moves (packed stream
    /// eliminated): `src_off` relative to the shifted send buffer,
    /// `dst_off` relative to the shifted recv buffer.
    moves: Rc<MoveList>,
    /// Descriptors the handler issues (gather + scatter sides).
    descriptors: u64,
    /// `true_lb` adjustments for the send and the receive buffer.
    shifts: (i64, i64),
}

impl NicProgram {
    pub fn descriptors(&self) -> u64 {
        self.descriptors
    }

    /// Payload bytes the program moves.
    pub fn bytes(&self) -> u64 {
        self.moves.extent().bytes
    }

    /// The one gather/scatter the program performs.
    pub fn moves(&self) -> &Rc<MoveList> {
        &self.moves
    }

    /// The `true_lb` shifts of the send and the receive buffer
    /// [`Self::moves`] is relative to.
    pub fn shifts(&self) -> (i64, i64) {
        self.shifts
    }
}

/// Compile the DEV programs of both endpoints into one NIC descriptor
/// program. Walks each datatype with the shared `DevCursor` machinery
/// and merges the two packed-order unit lists into direct typed→typed
/// moves ([`merge_units`], the merge the rendezvous executor runs per
/// fragment) — the packed intermediate exists only as a merge index,
/// never as memory.
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the NIC packet processor is a sanctioned DEV executor"
)]
pub fn compile_program(
    send_ty: &DataType,
    send_count: u64,
    recv_ty: &DataType,
    recv_count: u64,
) -> Result<NicProgram, TypeError> {
    use devengine::dev::DevCursor;
    let mut s_cur = DevCursor::with_coalesce(send_ty, send_count, u64::MAX, true)?;
    let mut r_cur = DevCursor::with_coalesce(recv_ty, recv_count, u64::MAX, true)?;
    let shifts = (s_cur.base_shift(), r_cur.base_shift());
    let bytes = s_cur.total_bytes();
    let mut s_units = Vec::new();
    let mut r_units = Vec::new();
    s_cur.next_units_into(u64::MAX, &mut s_units);
    r_cur.next_units_into(u64::MAX, &mut r_units);
    let descriptors = (s_units.len() + r_units.len()) as u64;

    // The receiver may post a longer type than the message; a shorter
    // one cannot take it.
    let mut units = Vec::new();
    merge_units(&s_units, &r_units, bytes as usize, &mut units).map_err(|_| {
        TypeError::Truncated {
            incoming: bytes,
            capacity: r_cur.total_bytes(),
        }
    })?;
    Ok(NicProgram {
        moves: Rc::new(MoveList::new(&units)),
        descriptors,
        shifts,
    })
}

/// Execute a compiled program for one message on the NIC pair
/// `from → to`: charge the handler front-end, stream the payload over
/// the data link at `min(dma_bw, wire_bw)`, and run `done` when the
/// stream has arrived — the instant the program's one gather/scatter
/// ([`NicProgram::moves`]) lands, which is the caller's to move. The
/// wire leg inherits `FaultOp::WireCopy` injection and retransmission
/// from [`wire_send`]; a lost fragment retransmits before `done` runs,
/// so delivery stays exactly-once.
pub fn execute_program<W: NetWorld>(
    sim: &mut Sim<W>,
    from: usize,
    to: usize,
    prog: &NicProgram,
    costs: &NicCosts,
    done: impl FnOnce(&mut Sim<W>) + 'static,
) -> Result<(), NetError> {
    let wire_bw = sim.world.net().try_channel(from, to)?.data.bandwidth;
    let issue = costs.issue_time(prog.descriptors);
    let bytes = prog.bytes();
    let wire_bytes = costs.wire_bytes(bytes, wire_bw);
    let now = sim.now();
    sim.trace.span_at(
        now,
        now + issue,
        names::CAT_NETSIM,
        names::SPAN_NIC_PROGRAM,
        Track::LinkData {
            from: from as u32,
            to: to as u32,
        },
    );
    let (from_u, to_u) = (from as u32, to as u32);
    sim.schedule_in(issue, move |sim| {
        // Existence was checked above; the channel is an invariant here.
        let sent = wire_send(sim, from, to, wire_bytes, move |sim| {
            sim.trace
                .count(names::OFFLOAD_NIC_PROGRAMS, from_u, to_u, 1);
            sim.trace
                .count(names::OFFLOAD_NIC_BYTES, from_u, to_u, bytes);
            done(sim);
        });
        debug_assert!(sent.is_ok());
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelKind;
    use crate::world::ClusterWorld;
    use datatype::testutil::{buffer_span, pattern, reference_pack};
    use gpusim::GpuWorld;
    use memsim::MemSpace;
    use simcore::par::CopyOp;
    use std::cell::RefCell;

    fn world() -> Sim<ClusterWorld> {
        let mut w = ClusterWorld::new(2);
        w.net_system.connect(0, 1, ChannelKind::InfiniBand);
        Sim::new(w)
    }

    #[test]
    fn program_moves_bytes_like_pack_then_unpack() {
        let s_ty = datatype::DataType::vector(24, 3, 7, &datatype::DataType::double())
            .unwrap()
            .commit();
        let blocklens: Vec<u64> = [9u64, 3].repeat(12);
        let displs: Vec<i64> = (0..24).map(|i| i * 20).collect();
        let r_ty = datatype::DataType::indexed(&blocklens, &displs, &datatype::DataType::double())
            .unwrap()
            .commit();
        let count = 2u64;
        assert_eq!(s_ty.size() * count, r_ty.size());
        let mut sim = world();
        let (s_base, s_len) = buffer_span(&s_ty, count);
        let (r_base, r_len) = buffer_span(&r_ty, 1);
        let src = sim
            .world
            .memory
            .alloc(MemSpace::Host, s_len as u64)
            .unwrap();
        let dst = sim
            .world
            .memory
            .alloc(MemSpace::Host, r_len as u64)
            .unwrap();
        let bytes = pattern(s_len);
        sim.world.memory.write(src, &bytes).unwrap();

        let prog = compile_program(&s_ty, count, &r_ty, 1).unwrap();
        assert_eq!(prog.bytes(), s_ty.size() * count);
        assert!(prog.descriptors() > 0);
        let costs = NicCosts::of(&sim.world.gpus_ref().topo);
        let hit = Rc::new(RefCell::new(false));
        let h = Rc::clone(&hit);
        execute_program(&mut sim, 0, 1, &prog, &costs, move |_| {
            *h.borrow_mut() = true
        })
        .unwrap();
        let end = sim.run();
        assert!(*hit.borrow());
        assert!(end > SimTime::ZERO, "NIC execution charges virtual time");
        assert_eq!(sim.world.memory.bytes_moved(), 0, "executing only charges");

        // The program's one move, applied between the shifted buffers,
        // equals reference pack → reference unpack.
        let (s_shift, r_shift) = prog.shifts();
        let (from, to) = (
            src.add(s_base as u64).offset_by(s_shift),
            dst.add(r_base as u64).offset_by(r_shift),
        );
        (sim.world.memory)
            .transfer(from, to, prog.moves().ops())
            .unwrap();
        let packed = reference_pack(&s_ty, count, &bytes, s_base);
        let got = sim.world.memory.read_vec(dst, r_len as u64).unwrap();
        let mut pos = 0usize;
        for seg in r_ty.segments(1) {
            let off = (r_base + seg.disp) as usize;
            assert_eq!(
                &got[off..off + seg.len as usize],
                &packed[pos..pos + seg.len as usize]
            );
            pos += seg.len as usize;
        }
    }

    #[test]
    fn compiled_program_is_the_merge_of_the_two_walks() {
        let dbl = datatype::DataType::double();
        // 3 blocks of 16 bytes every 32 | blocks of 8, 24 and 16 bytes.
        let s_ty = datatype::DataType::vector(3, 2, 4, &dbl).unwrap().commit();
        let r_ty = datatype::DataType::indexed(&[1, 3, 2], &[0, 2, 8], &dbl)
            .unwrap()
            .commit();
        let prog = compile_program(&s_ty, 1, &r_ty, 1).unwrap();
        let op = |src_off, dst_off, len| CopyOp {
            src_off,
            dst_off,
            len,
        };
        assert_eq!(
            prog.moves().ops(),
            [op(0, 0, 8), op(8, 16, 8), op(32, 24, 16), op(64, 64, 16)]
        );
        assert_eq!((prog.bytes(), prog.descriptors()), (48, 6));
        // A receive posted longer than the message: the same moves, and
        // the handler still issues the whole receive program.
        let long = compile_program(&s_ty, 1, &r_ty, 2).unwrap();
        assert_eq!(long.moves(), prog.moves());
        assert!(long.descriptors() > prog.descriptors());
        // A shorter one cannot take the message.
        assert_eq!(
            compile_program(&s_ty, 2, &r_ty, 1).unwrap_err(),
            TypeError::Truncated {
                incoming: 96,
                capacity: 48
            }
        );
    }

    #[test]
    fn unconnected_pair_is_a_typed_error() {
        let mut sim = world();
        let ty = datatype::DataType::double().commit();
        let prog = compile_program(&ty, 8, &ty, 8).unwrap();
        let costs = NicCosts::of(&sim.world.gpus_ref().topo);
        let err = execute_program(&mut sim, 0, 9, &prog, &costs, |_| {}).unwrap_err();
        assert_eq!(err, NetError::NoChannel { from: 0, to: 9 });
    }
}
