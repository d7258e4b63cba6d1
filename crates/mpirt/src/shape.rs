//! The shape table: all the runtime derives from a transfer's two
//! layouts, one entry per shape, as the paper caches per datatype (§3).
//! Both bounds evict whole entries, least recently used first
//! (`mpirt.shape.evicted`). Decisions, programs and captures never go
//! alone — a re-capture costs virtual time — so an entry alone past the
//! byte bound keeps them and stores no further move list, a memo of wall
//! time. `DevCache` stays per rank: it is each GPU's descriptor memory.

use crate::protocol::offload::{CapturedXfer, Program};
use crate::protocol::Side;
use crate::tuner::PathClass;
use devengine::{LayoutKey, Lru};
use simcore::hash::DetHashMap;
use simcore::par::{CopyOp, OpListBuf};
use std::collections::BTreeMap;
use std::mem::{size_of, size_of_val};
use std::rc::Rc;
use std::sync::Arc;

/// A transfer's two layouts, each collision-guarded by exact size, true
/// bounds and count; structural, so a rebuilt type shares its entry.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ShapeKey(LayoutKey, LayoutKey);

/// What a decision reads that the shape does not fix — what `plan_for`
/// reads: class, each side on a device, the ranks on one GPU. Buffer
/// alignment moves a price, never a stage, so it stays out.
type Decided = (PathClass, bool, bool, bool);
/// A fragment window: fragment size, sequence number and length.
type Window = (u64, u64, u64);

/// Everything derived from one shape.
#[derive(Default)]
pub struct Entry {
    /// The tuner's (fragment, depth) decisions.
    pub decisions: Vec<(Decided, (u64, usize))>,
    pub program: Option<Rc<Program>>,
    /// Captured stream-op graphs by directed rank pair.
    pub captures: BTreeMap<(usize, usize), Rc<CapturedXfer>>,
    pub moves: DetHashMap<Window, Arc<OpListBuf>>,
}

/// Default bounds, which no committed run reaches: at most two entries
/// and 50 MB, `fig12_transpose`'s two single-fragment move lists.
const SHAPE_BYTES: u64 = 64 << 20;
const SHAPE_ENTRIES: usize = 256;

pub struct ShapeTable {
    entries: Lru<ShapeKey, Entry>,
    /// Move-list lookups that found their list.
    pub list_hits: u64,
}

impl Default for ShapeTable {
    fn default() -> Self {
        ShapeTable::with_limits(SHAPE_BYTES, SHAPE_ENTRIES)
    }
}

fn key(s: &Side, r: &Side) -> ShapeKey {
    ShapeKey(LayoutKey::of(&s.ty, s.count), LayoutKey::of(&r.ty, r.count))
}

impl ShapeTable {
    pub fn with_limits(capacity_bytes: u64, max_entries: usize) -> ShapeTable {
        ShapeTable {
            entries: Lru::with_limits(capacity_bytes, max_entries),
            list_hits: 0,
        }
    }

    /// The entries, with their bytes, bounds and evictions.
    pub fn entries(&self) -> &Lru<ShapeKey, Entry> {
        &self.entries
    }

    /// Add a part of `bytes` to the shape's entry, made if missing; a
    /// `memo` that would take the entry alone past the byte bound is not.
    fn keep(&mut self, s: &Side, r: &Side, bytes: u64, memo: bool, put: impl FnOnce(&mut Entry)) {
        let slot = size_of::<(ShapeKey, Entry, u64, u64)>() as u64;
        let (mut entry, mut charged) = self.entries.remove(&key(s, r)).unwrap_or_default();
        charged = charged.max(slot);
        if !(memo && charged + bytes > self.entries.capacity_bytes()) {
            put(&mut entry);
            charged += bytes;
        }
        self.entries.insert(key(s, r), entry, charged);
    }

    /// The tuner's (fragment, depth) for `s → r` down `how.0`, the ranks
    /// on one GPU (`how.1`) or not.
    pub fn decision(&mut self, s: &Side, r: &Side, how: (PathClass, bool)) -> Option<(u64, usize)> {
        let decided = (how.0, s.device(), r.device(), how.1);
        let decisions = &self.entries.get(&key(s, r))?.decisions;
        decisions.iter().find(|d| d.0 == decided).map(|d| d.1)
    }

    /// Keep `pick`, the tuner's decision for `s → r` down `how`.
    pub fn decide(&mut self, s: &Side, r: &Side, how: (PathClass, bool), pick: (u64, usize)) {
        let decided = (how.0, s.device(), r.device(), how.1);
        let bytes = size_of::<(Decided, (u64, usize))>() as u64;
        self.keep(s, r, bytes, false, |e| e.decisions.push((decided, pick)));
    }

    /// The shape's offload [`Program`]: the one kept, or `compile`d now.
    pub fn program<E>(
        &mut self,
        s: &Side,
        r: &Side,
        compile: impl FnOnce() -> Result<Program, E>,
    ) -> Result<Rc<Program>, E> {
        if let Some(p) = self.entries.get(&key(s, r)).and_then(|e| e.program.clone()) {
            return Ok(p);
        }
        let p = Rc::new(compile()?);
        let ops = p.pack_units.len() + p.unpack_units.len() + p.moves.ops().len();
        let bytes = (ops * size_of::<CopyOp>()) as u64;
        self.keep(s, r, bytes, false, |e| e.program = Some(Rc::clone(&p)));
        Ok(p)
    }

    /// The graph captured for `s.rank → r.rank` over this shape.
    pub fn capture(&mut self, s: &Side, r: &Side) -> Option<Rc<CapturedXfer>> {
        let captures = &self.entries.get(&key(s, r))?.captures;
        captures.get(&(s.rank, r.rank)).cloned()
    }

    pub fn keep_capture(&mut self, s: &Side, r: &Side, c: &Rc<CapturedXfer>) {
        let bytes = size_of::<((usize, usize), CapturedXfer)>() as u64;
        let put = |e: &mut Entry| e.captures.insert((s.rank, r.rank), Rc::clone(c));
        self.keep(s, r, bytes, false, |e| _ = put(e));
    }

    pub fn moves(&mut self, s: &Side, r: &Side, w: Window) -> Option<Arc<OpListBuf>> {
        let found = self.entries.get(&key(s, r))?.moves.get(&w).cloned();
        self.list_hits += found.is_some() as u64;
        found
    }

    pub fn keep_moves(&mut self, s: &Side, r: &Side, w: Window, l: &Arc<OpListBuf>) {
        let put = |e: &mut Entry| e.moves.insert(w, Arc::clone(l));
        self.keep(s, r, size_of_val(l.ops()) as u64, true, |e| _ = put(e));
    }
}

#[cfg(test)]
impl ShapeTable {
    /// Drop every move list and keep the rest: the lists go cold, the
    /// decisions, programs and captures stay warm.
    pub(crate) fn forget_lists(&mut self) {
        let keys: Vec<ShapeKey> = self.entries.iter().map(|(k, _)| *k).collect();
        for key in keys {
            let (mut e, bytes) = self.entries.remove(&key).expect("listed");
            let lists: u64 = e.moves.values().map(|l| size_of_val(l.ops()) as u64).sum();
            e.moves.clear();
            self.entries.insert(key, e, bytes - lists);
        }
    }

    /// How many decisions, programs, captures and move lists it holds.
    pub(crate) fn held(&self) -> [usize; 4] {
        self.entries.iter().fold([0; 4], |[d, p, c, l], (_, e)| {
            let p = p + e.program.is_some() as usize;
            [
                d + e.decisions.len(),
                p,
                c + e.captures.len(),
                l + e.moves.len(),
            ]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{irecv, isend, wait_all, RecvArgs, SendArgs};
    use crate::config::MpiConfig;
    use crate::session::Session;
    use crate::tuner::tuned_shape;
    use datatype::testutil::{lower_triangular, transposed_triangular};
    use datatype::DataType;
    use gpusim::GpuWorld as _;
    use memsim::{MemSpace, Ptr};
    use simcore::Counter;

    /// Two doubles `stride` doubles apart: 16 payload bytes, and one
    /// distinct layout per stride.
    fn pair(stride: i64) -> DataType {
        DataType::vector(2, 1, stride, &DataType::double())
            .unwrap()
            .commit()
    }

    fn device_buf(sess: &mut Session, rank: usize, len: u64) -> Ptr {
        let gpu = sess.world.mpi.ranks[rank].gpu;
        sess.world.mem().alloc(MemSpace::Device(gpu), len).unwrap()
    }

    fn assert_bounded(t: &ShapeTable, note: &str) {
        let t = t.entries();
        assert!(t.used_bytes() <= t.capacity_bytes(), "{note}: bytes");
        assert!(t.len() <= t.max_entries(), "{note}: entries");
    }

    /// 10 000 distinct shapes through the tuner, then 300 more through
    /// rendezvous transfers that leave a decision and a move list each:
    /// the table never passes either bound, whole entries go, and the
    /// session counts them.
    #[test]
    fn ten_thousand_shapes_stay_under_both_bounds() {
        const TUNED: i64 = 10_000;
        let config = MpiConfig {
            eager_limit: 64,
            ..MpiConfig::default()
        };
        let mut sess = Session::builder().config(config).build();
        let len = 8 * (TUNED as u64 + 400);
        let bufs = [device_buf(&mut sess, 0, len), device_buf(&mut sess, 1, len)];
        let side = |rank: usize, ty: &DataType| Side {
            rank,
            ty: ty.clone(),
            count: 1,
            buf: bufs[rank],
        };
        for stride in 2..TUNED + 2 {
            let ty = pair(stride);
            tuned_shape(&mut sess, &side(0, &ty), &side(1, &ty), PathClass::SmIpc);
            assert_bounded(&sess.world.mpi.shapes, &format!("tuned stride {stride}"));
        }
        let t = sess.world.mpi.shapes.entries();
        assert_eq!(t.len(), t.max_entries(), "the entry bound binds");
        assert_eq!(t.evictions(), TUNED as u64 - t.max_entries() as u64);

        for stride in 2..302 {
            let ty = DataType::vector(16, 1, stride, &DataType::double())
                .unwrap()
                .commit();
            let s = isend(&mut sess, SendArgs::new(0, 1, bufs[0], &ty, 1));
            let r = irecv(&mut sess, RecvArgs::new(1, 0, bufs[1], &ty, 1));
            wait_all(&mut sess, &[s, r]).expect("transfer failed");
            assert_bounded(&sess.world.mpi.shapes, &format!("sent stride {stride}"));
        }
        assert!(
            sess.world.mpi.shapes.held()[3] > 0,
            "rendezvous merged no list"
        );
        let t = sess.world.mpi.shapes.entries();
        let evicted = t.evictions();
        let floor = TUNED as u64 - t.max_entries() as u64 + 300;
        assert!(evicted >= floor, "transfers evicted nothing");
        let m = sess.metrics();
        assert_eq!(m.counter(Counter::MpirtShapeEvicted), evicted);
    }

    /// An entry that alone meets the byte bound keeps what it holds and
    /// stores no further move list, and nothing a run observes moves:
    /// the bytes and the clock match an unbounded table's, transfer by
    /// transfer.
    #[test]
    fn an_entry_at_the_byte_bound_stores_no_further_lists() {
        let (s_ty, r_ty) = (lower_triangular(96), transposed_triangular(96));
        let config = MpiConfig {
            eager_limit: 2 << 10,
            frag_size: 4 << 10,
            ..MpiConfig::default()
        };
        let nfrags = s_ty.size().div_ceil(config.frag_size) as usize;
        let run = |table: ShapeTable| {
            let mut sess = Session::builder().config(config.clone()).build();
            sess.world.mpi.shapes = table;
            let sbuf = device_buf(&mut sess, 0, s_ty.extent() as u64);
            let rbuf = device_buf(&mut sess, 1, r_ty.extent() as u64);
            let sent: Vec<u8> = (0..s_ty.extent()).map(|i| (i * 7 + 3) as u8).collect();
            sess.world.mem().write(sbuf, &sent).unwrap();
            let mut seen = Vec::new();
            for _ in 0..2 {
                let then = sess.now();
                let s = isend(&mut sess, SendArgs::new(0, 1, sbuf, &s_ty, 1));
                let r = irecv(&mut sess, RecvArgs::new(1, 0, rbuf, &r_ty, 1));
                wait_all(&mut sess, &[s, r]).expect("transfer failed");
                let got = sess
                    .world
                    .mem()
                    .read_vec(rbuf, r_ty.extent() as u64)
                    .unwrap();
                seen.push((sess.now() - then, got));
            }
            let t = &sess.world.mpi.shapes;
            (seen, t.held(), t.entries().used_bytes(), t.list_hits)
        };
        let (open, held, full, _) = run(ShapeTable::with_limits(u64::MAX, 8));
        assert_eq!(held[3], nfrags);
        let cap = full / 2;
        let (tight, [decisions, _, _, lists], used, hits) = run(ShapeTable::with_limits(cap, 8));
        assert!(
            lists > 0 && lists < nfrags,
            "{lists} of {nfrags} lists kept"
        );
        assert!(decisions > 0, "the decision went with the lists");
        assert!(used <= cap, "{used} B held");
        assert_eq!(hits, lists as u64, "only stored lists are found");
        assert!(tight == open, "the bound showed in the bytes or the clock");
    }
}
