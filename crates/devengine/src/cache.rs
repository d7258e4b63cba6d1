//! The CUDA-DEV cache.
//!
//! A CUDA-DEV list depends only on the datatype (relative displacements)
//! — not on where the buffers live — so the paper caches it, either in
//! host or GPU memory, and reuses it for every later message with the
//! same type. Figure 7's "cached" curves show the preparation cost
//! disappearing entirely. The cache is bounded (descriptor bytes *and*
//! entry count) and evicts least-recently-used plans.
//!
//! Keys are **structural**: the datatype's layout fingerprint plus
//! `(count, unit_size)`, so a type rebuilt through the same constructor
//! calls — a fresh Session, a bench sweep re-deriving its datatypes —
//! still hits. TEMPI showed structural keying is what makes datatype
//! caching pay off in real MPI applications, where types are routinely
//! reconstructed per communication epoch. Fingerprints are
//! collision-guarded by the type's exact size and true bounds
//! ([`LayoutKey`], which `mpirt`'s shape table keys by too).
//!
//! The plan is the first of the facts a repeated transfer would
//! otherwise re-derive; the rest are memoised where their inputs live,
//! all under the one [`Lru`] discipline: a plan keeps the kernel traffic
//! of each window it has launched (`DevPlan`'s traffic memo — it lives
//! in the plan, so it is evicted with it), and the runtime keeps all it
//! derives from a transfer's two layouts, each fragment's merged
//! typed → typed move list among it, in one entry per shape
//! (`mpirt::shape`). Each memo is lookup-or-compute keyed by the exact
//! inputs of a pure function, so a hit and a miss differ only in
//! whether it ran (DESIGN.md §17, "What a repeated transfer reuses").

use crate::dev::{build_plan_opt, DevPlan};
use datatype::{DataType, TypeError};
use simcore::hash::DetHashMap;
use std::hash::Hash;
use std::rc::Rc;

/// A datatype layout as a cache key: the structural fingerprint plus
/// the exact invariants a fingerprint collision would have to match
/// too before a wrong entry could be served. Every cache whose entries
/// decide bytes keys its layouts with this.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LayoutKey {
    /// Structural layout hash ([`DataType::layout_fingerprint`]).
    pub fingerprint: u64,
    pub size: u64,
    pub true_lb: i64,
    pub true_ub: i64,
    pub count: u64,
}

impl LayoutKey {
    pub fn of(ty: &DataType, count: u64) -> LayoutKey {
        LayoutKey {
            fingerprint: ty.layout_fingerprint(),
            size: ty.size(),
            true_lb: ty.true_lb(),
            true_ub: ty.true_ub(),
            count,
        }
    }
}

/// A plan's key: its layout, unit size and coalescing.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PlanKey {
    layout: LayoutKey,
    unit_size: u64,
    /// Coalesced and split plans have different unit lists; they must
    /// not alias.
    coalesce: bool,
}

/// A map bounded in bytes *and* entries that evicts its least recently
/// used entry: the discipline of every derived-fact cache here (plans,
/// their traffic summaries, the runtime's shape table). An entry
/// bigger than the whole capacity is still kept — alone, until the next
/// insertion — so a lookup-or-compute caller always makes progress.
#[derive(Clone, Debug)]
pub struct Lru<K, V> {
    /// Value, its charged size, and the clock at its last use.
    map: DetHashMap<K, (V, u64, u64)>,
    capacity_bytes: u64,
    max_entries: usize,
    used_bytes: u64,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Copy + Eq + Hash, V> Lru<K, V> {
    pub fn with_limits(capacity_bytes: u64, max_entries: usize) -> Lru<K, V> {
        Lru {
            map: DetHashMap::default(),
            capacity_bytes,
            max_entries: max_entries.max(1),
            used_bytes: 0,
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The entry under `key`, now the most recently used. Counts a hit
    /// or a miss.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.clock += 1;
        let Some((value, _, stamp)) = self.map.get_mut(key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        *stamp = self.clock;
        Some(value)
    }

    /// Store `value`, charged `bytes`, evicting least recently used
    /// entries until it fits both bounds.
    pub fn insert(&mut self, key: K, value: V, bytes: u64) {
        self.clock += 1;
        if let Some((_, old, _)) = self.map.remove(&key) {
            self.used_bytes -= old;
        }
        while (self.used_bytes + bytes > self.capacity_bytes || self.map.len() >= self.max_entries)
            && !self.map.is_empty()
        {
            let (&victim, _) = (self.map.iter())
                .min_by_key(|(_, (_, _, stamp))| *stamp)
                .expect("non-empty");
            let (_, freed, _) = self.map.remove(&victim).expect("exists");
            self.used_bytes -= freed;
            self.evictions += 1;
        }
        self.used_bytes += bytes;
        self.map.insert(key, (value, bytes, self.clock));
    }

    /// Take `key`'s entry out, with what it was charged.
    pub fn remove(&mut self, key: &K) -> Option<(V, u64)> {
        let (value, bytes, _) = self.map.remove(key)?;
        self.used_bytes -= bytes;
        Some((value, bytes))
    }

    /// Every entry, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter().map(|(key, (value, _, _))| (key, value))
    }

    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    pub fn max_entries(&self) -> usize {
        self.max_entries
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

/// Default bound on cached plans; descriptor bytes usually bind first,
/// this catches pathological sweeps over thousands of tiny types.
const DEFAULT_MAX_ENTRIES: usize = 256;

/// LRU cache of materialized [`DevPlan`]s.
pub struct DevCache {
    plans: Lru<PlanKey, Rc<DevPlan>>,
}

impl DevCache {
    /// Bound both descriptor bytes and the number of cached plans.
    pub fn with_limits(capacity_bytes: u64, max_entries: usize) -> DevCache {
        DevCache {
            plans: Lru::with_limits(capacity_bytes, max_entries),
        }
    }

    /// Fetch the plan for `(ty, count, unit_size)` in a coalescing
    /// mode, building and inserting it on a miss, keyed so split and
    /// coalesced plans never alias. Returns the plan and whether it was
    /// a cache hit (the caller charges CPU preparation time only on a
    /// miss).
    pub fn get_or_build_opt(
        &mut self,
        ty: &DataType,
        count: u64,
        unit_size: u64,
        coalesce: bool,
    ) -> Result<(Rc<DevPlan>, bool), TypeError> {
        let key = PlanKey {
            layout: LayoutKey::of(ty, count),
            unit_size,
            coalesce,
        };
        if let Some(plan) = self.plans.get(&key) {
            return Ok((Rc::clone(plan), true));
        }
        let plan = Rc::new(build_plan_opt(ty, count, unit_size, coalesce)?);
        (self.plans).insert(key, Rc::clone(&plan), plan.descriptor_bytes());
        Ok((plan, false))
    }

    /// The cached plans, with their tallies and bounds.
    pub fn plans(&self) -> &Lru<PlanKey, Rc<DevPlan>> {
        &self.plans
    }
}

/// 8 MB of descriptors: the paper spends "a few MBs of GPU memory".
impl Default for DevCache {
    fn default() -> Self {
        DevCache::with_limits(8 << 20, DEFAULT_MAX_ENTRIES)
    }
}

#[cfg(test)]
impl DevCache {
    /// [`DevCache::get_or_build_opt`] with split plans.
    fn get_or_build(
        &mut self,
        ty: &DataType,
        count: u64,
        unit_size: u64,
    ) -> Result<(Rc<DevPlan>, bool), TypeError> {
        self.get_or_build_opt(ty, count, unit_size, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_type(n: u64) -> DataType {
        DataType::vector(n, 2, 4, &DataType::double())
            .unwrap()
            .commit()
    }

    #[test]
    fn second_lookup_hits() {
        let mut c = DevCache::default();
        let t = vec_type(16);
        let (_, hit1) = c.get_or_build(&t, 1, 1024).unwrap();
        assert!(!hit1);
        let (_, hit2) = c.get_or_build(&t, 1, 1024).unwrap();
        assert!(hit2);
        assert_eq!(c.plans().len(), 1);
        assert_eq!((c.plans().hits(), c.plans().misses()), (1, 1));
    }

    #[test]
    fn distinct_counts_and_unit_sizes_are_distinct_entries() {
        let mut c = DevCache::default();
        let t = vec_type(16);
        c.get_or_build(&t, 1, 1024).unwrap();
        let (_, hit) = c.get_or_build(&t, 2, 1024).unwrap();
        assert!(!hit);
        let (_, hit) = c.get_or_build(&t, 1, 2048).unwrap();
        assert!(!hit);
        assert_eq!(c.plans().len(), 3);
    }

    #[test]
    fn structurally_equal_types_share_one_entry() {
        // Two separately constructed (distinct trees, distinct ids) but
        // structurally identical types: the second lookup must hit — the
        // acceptance shape of TEMPI-style structural keying.
        let mut c = DevCache::default();
        let a = vec_type(16);
        let b = vec_type(16);
        assert_ne!(a.id(), b.id());
        let (pa, hit) = c.get_or_build(&a, 1, 1024).unwrap();
        assert!(!hit);
        let (pb, hit) = c.get_or_build(&b, 1, 1024).unwrap();
        assert!(hit, "structural key must alias identical layouts");
        assert!(Rc::ptr_eq(&pa, &pb));
        assert_eq!(c.plans().len(), 1);
        assert!(c.plans().hits() > 0);
        // A clone still hits, and a structurally different type doesn't.
        let (_, hit) = c.get_or_build(&a.dup(), 1, 1024).unwrap();
        assert!(hit);
        let (_, hit) = c.get_or_build(&vec_type(17), 1, 1024).unwrap();
        assert!(!hit);
    }

    #[test]
    fn structural_key_does_not_alias_same_signature_different_layout() {
        // vector(8,8,16,BYTE) and contiguous(64,BYTE) pack the same
        // primitive sequence but need different plans.
        let byte = DataType::byte();
        let v = DataType::vector(8, 8, 16, &byte).unwrap().commit();
        let c64 = DataType::contiguous(64, &byte).unwrap().commit();
        let mut c = DevCache::default();
        c.get_or_build(&v, 1, 1024).unwrap();
        let (plan, hit) = c.get_or_build(&c64, 1, 1024).unwrap();
        assert!(!hit, "different layouts must not share a plan");
        assert_eq!(plan.units.len(), 1);
    }

    #[test]
    fn lru_eviction_under_byte_pressure() {
        // Plans for vector(n, 2, 4) have n units of 32 bytes each. Use
        // structurally distinct types so each occupies its own entry.
        let mut c = DevCache::with_limits(3000, DEFAULT_MAX_ENTRIES);
        let t1 = vec_type(32); // 1024 descriptor bytes
        let t2 = vec_type(33); // 1056
        let t3 = vec_type(34); // 1088
        c.get_or_build(&t1, 1, 1024).unwrap();
        c.get_or_build(&t2, 1, 1024).unwrap();
        c.get_or_build(&t1, 1, 1024).unwrap(); // refresh t1
        c.get_or_build(&t3, 1, 1024).unwrap(); // 1024+1056+1088 > 3000: evicts t2 (LRU)
        assert_eq!(c.plans().len(), 2);
        assert!(c.plans().used_bytes() <= c.plans().capacity_bytes());
        let (_, hit1) = c.get_or_build(&t1, 1, 1024).unwrap();
        assert!(hit1, "t1 was refreshed and must survive");
        let (_, hit2) = c.get_or_build(&t2, 1, 1024).unwrap();
        assert!(!hit2, "t2 was evicted");
    }

    #[test]
    fn lru_eviction_under_entry_pressure() {
        // Byte capacity is effectively unlimited; the entry bound binds.
        let mut c = DevCache::with_limits(u64::MAX, 2);
        let t1 = vec_type(8);
        let t2 = vec_type(9);
        let t3 = vec_type(10);
        c.get_or_build(&t1, 1, 1024).unwrap();
        c.get_or_build(&t2, 1, 1024).unwrap();
        c.get_or_build(&t1, 1, 1024).unwrap(); // refresh t1
        c.get_or_build(&t3, 1, 1024).unwrap(); // evicts t2 (LRU)
        assert_eq!(c.plans().len(), 2);
        let (_, hit) = c.get_or_build(&t1, 1, 1024).unwrap();
        assert!(hit);
        let (_, hit) = c.get_or_build(&t2, 1, 1024).unwrap();
        assert!(!hit, "t2 fell to the entry bound");
    }

    #[test]
    fn accounting_tracks_descriptor_bytes() {
        let mut c = DevCache::default();
        let t = vec_type(8);
        let (plan, _) = c.get_or_build(&t, 1, 1024).unwrap();
        assert_eq!(c.plans().used_bytes(), plan.descriptor_bytes());
    }

    #[test]
    fn coalesced_and_split_plans_do_not_alias() {
        let mut c = DevCache::default();
        let t = DataType::contiguous(1280, &DataType::double())
            .unwrap()
            .commit(); // one 10 KB run
        let (split, hit) = c.get_or_build_opt(&t, 1, 1024, false).unwrap();
        assert!(!hit);
        let (coal, hit) = c.get_or_build_opt(&t, 1, 1024, true).unwrap();
        assert!(!hit, "coalesce flag must be part of the key");
        assert_eq!(split.units.len(), 10);
        assert_eq!(coal.units.len(), 1);
        let (_, hit) = c.get_or_build_opt(&t, 1, 1024, true).unwrap();
        assert!(hit);
    }

    #[test]
    fn equal_fingerprints_with_different_guards_are_different_keys() {
        let base = LayoutKey::of(&vec_type(16), 2);
        let colliding = [
            base,
            LayoutKey {
                size: base.size + 8,
                ..base
            },
            LayoutKey {
                true_lb: base.true_lb - 8,
                ..base
            },
            LayoutKey {
                true_ub: base.true_ub + 8,
                ..base
            },
            LayoutKey {
                count: base.count + 1,
                ..base
            },
        ];
        let mut c: Lru<LayoutKey, usize> = Lru::with_limits(u64::MAX, 16);
        for (i, key) in colliding.iter().enumerate() {
            assert_eq!(key.fingerprint, base.fingerprint);
            assert!(c.get(key).is_none(), "guard {i} aliased an earlier key");
            c.insert(*key, i, 0);
        }
        assert_eq!(c.len(), colliding.len());
        for (i, key) in colliding.iter().enumerate() {
            assert_eq!(c.get(key), Some(&i));
        }
    }

    #[test]
    fn lru_charges_bytes_replaces_in_place_and_keeps_an_oversized_entry_alone() {
        let mut c: Lru<u32, &str> = Lru::with_limits(100, 8);
        c.insert(1, "a", 40);
        c.insert(2, "b", 40);
        c.insert(1, "a again", 60); // replaces: 40 + 60 fits, nothing evicted
        assert_eq!((c.len(), c.used_bytes(), c.evictions()), (2, 100, 0));
        assert_eq!(c.get(&1), Some(&"a again"));
        c.insert(3, "huge", 500); // evicts everything, stays anyway
        assert_eq!((c.len(), c.used_bytes(), c.evictions()), (1, 500, 2));
        assert_eq!(c.get(&3), Some(&"huge"));
        c.insert(4, "d", 10); // the oversized entry goes at the next insertion
        assert_eq!((c.len(), c.used_bytes(), c.evictions()), (1, 10, 3));
        assert_eq!((c.hits(), c.misses()), (2, 0));
        assert!(c.get(&3).is_none());
        assert_eq!((c.hits(), c.misses()), (2, 1));
    }

    #[test]
    fn a_removed_entry_reinserted_larger_evicts_the_others_in_lru_order() {
        let mut c: Lru<u32, &str> = Lru::with_limits(100, 8);
        c.insert(1, "a", 30);
        c.insert(2, "b", 30);
        c.insert(3, "c", 30);
        c.get(&1); // 2 is now the least recently used
        let (value, bytes) = c.remove(&3).unwrap();
        assert_eq!(
            (value, bytes, c.used_bytes(), c.evictions()),
            ("c", 30, 60, 0)
        );
        c.insert(3, "c, grown", 60); // 30 + 30 + 60 > 100: evicts 2
        assert_eq!((c.len(), c.used_bytes(), c.evictions()), (2, 90, 1));
        assert!(c.get(&2).is_none());
        assert_eq!(c.iter().count(), 2);
        assert!(c.remove(&7).is_none());
    }

    #[test]
    fn eviction_counter_tracks_lru_removals() {
        let mut c = DevCache::with_limits(u64::MAX, 2);
        assert_eq!(
            (c.plans().hits(), c.plans().misses(), c.plans().evictions()),
            (0, 0, 0)
        );
        c.get_or_build(&vec_type(8), 1, 1024).unwrap();
        c.get_or_build(&vec_type(9), 1, 1024).unwrap();
        c.get_or_build(&vec_type(10), 1, 1024).unwrap(); // evicts
        c.get_or_build(&vec_type(10), 1, 1024).unwrap(); // hit
        assert_eq!(c.plans().hits(), 1);
        assert_eq!(c.plans().misses(), 3);
        assert_eq!(c.plans().evictions(), 1);
    }
}
