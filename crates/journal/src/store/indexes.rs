//! Secondary-index bookkeeping shared by the shard maps.
//!
//! Every posting carries the global insertion sequence it was created with,
//! so per-shard posting lists stay sorted by sequence and a cross-shard
//! merge reproduces the exact insertion order the pre-sharding single map
//! maintained (the merge rules' tie-breaks depend on it).
//!
//! Each index keeps a [`KeyFilter`] beside its AVL map: an exact count of
//! live keys per cheap 64-bit fingerprint. Cross-shard resolution probes
//! every shard for every key, and at eight shards seven of those probes
//! are misses; a filter check is one hash-map hit on an already-mixed
//! key, an order of magnitude cheaper than a tree descent, so fan-out
//! paths ask the filter first and only descend into shards that may hold
//! the key. Fingerprint collisions make `may_contain` spuriously true —
//! costing one wasted probe, never a wrong result.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::net::Ipv4Addr;

use fremont_net::MacAddr;

use crate::avl::AvlMap;
use crate::records::InterfaceId;

/// One index posting: global insertion sequence paired with the record id.
pub(super) type Entry = (u64, InterfaceId);

/// FNV-1a over the key bytes, then a murmur-style finalizer so the low
/// bits (which the hash map buckets by) avalanche even for short,
/// similar keys like adjacent IP addresses.
fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

/// A key type an index can fingerprint. The fingerprint of a borrowed
/// form must equal the fingerprint of the owned key (`&str` vs `String`),
/// so lookups never have to allocate.
pub(super) trait FilterKey: Ord {
    /// Key-type tag mixed into journal-global fingerprints so an IP and
    /// a MAC that happen to share a fingerprint do not alias across the
    /// three index families.
    const TAG: u64;

    fn filter_hash(&self) -> u64;

    /// The fingerprint the journal-global [`ShardMaskFilter`] keys on.
    fn tagged_hash(&self) -> u64 {
        self.filter_hash() ^ Self::TAG
    }
}

impl FilterKey for Ipv4Addr {
    const TAG: u64 = 0x9E37_79B9_7F4A_7C15;

    fn filter_hash(&self) -> u64 {
        fingerprint(&self.octets())
    }
}

impl FilterKey for MacAddr {
    const TAG: u64 = 0xC2B2_AE3D_27D4_EB4F;

    fn filter_hash(&self) -> u64 {
        fingerprint(&self.octets())
    }
}

impl FilterKey for String {
    const TAG: u64 = <str as FilterKey>::TAG;

    fn filter_hash(&self) -> u64 {
        fingerprint(self.as_bytes())
    }
}

impl FilterKey for str {
    const TAG: u64 = 0x1656_67B1_9E37_79F9;

    fn filter_hash(&self) -> u64 {
        fingerprint(self.as_bytes())
    }
}

/// Pass-through hasher for keys that are already fingerprints; hashing
/// a 64-bit fingerprint with SipHash again would cost more than the
/// tree probe the filter exists to avoid.
#[derive(Default)]
pub(super) struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // The filter maps only carry u64 keys, so this path is never
        // taken by them; fold bytes FNV-style anyway to stay total.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// `BuildHasher` for [`IdentityHasher`].
#[derive(Clone, Default)]
pub(super) struct IdentityState;

impl BuildHasher for IdentityState {
    type Hasher = IdentityHasher;

    fn build_hasher(&self) -> IdentityHasher {
        IdentityHasher::default()
    }
}

/// Journal-global key→shard map, by tagged fingerprint: `may_shards`
/// returns a bitmask of the shards that may hold a key, so resolution
/// under the meta lock costs one probe instead of one per shard.
/// [`add`]/[`remove`] report every key-liveness transition (a posting
/// list coming into existence or emptying) here; every index mutation
/// runs inside a write transaction, which holds `Meta`, so the map
/// stays exact.
///
/// `masks` alone would be unsound under fingerprint collisions (clearing
/// a departing key's bit could hide a colliding key that is still
/// live), so `counts` refcounts live keys per (fingerprint, shard) slot
/// and a bit is only cleared when its slot empties. Collisions in
/// either map can therefore only leave bits set too long — a spurious
/// probe, never a missed posting. Untracked (more than 64 shards, which
/// a bitmask cannot index) the filter degrades to "probe everything".
#[derive(PartialEq)]
pub(super) struct ShardMaskFilter {
    masks: HashMap<u64, u64, IdentityState>,
    counts: HashMap<u64, u32, IdentityState>,
    tracked: bool,
}

impl ShardMaskFilter {
    pub(super) fn new(shards: usize) -> Self {
        ShardMaskFilter {
            masks: HashMap::default(),
            counts: HashMap::default(),
            tracked: shards <= 64,
        }
    }

    fn slot(h: u64, shard: usize) -> u64 {
        h ^ (shard as u64).wrapping_mul(0xA24B_AED4_963E_E407)
    }

    /// Bitmask of shards that may hold a key with this tagged
    /// fingerprint. Zero is definitive absence.
    pub(super) fn may_shards(&self, h: u64) -> u64 {
        if !self.tracked {
            return u64::MAX;
        }
        self.masks.get(&h).copied().unwrap_or(0)
    }

    pub(super) fn key_added(&mut self, h: u64, shard: usize) {
        if !self.tracked {
            return;
        }
        *self.counts.entry(Self::slot(h, shard)).or_insert(0) += 1;
        *self.masks.entry(h).or_insert(0) |= 1 << shard;
    }

    fn key_removed(&mut self, h: u64, shard: usize) {
        if !self.tracked {
            return;
        }
        let slot = Self::slot(h, shard);
        match self.counts.get_mut(&slot) {
            Some(1) => {
                self.counts.remove(&slot);
                if let Some(m) = self.masks.get_mut(&h) {
                    *m &= !(1 << shard);
                    if *m == 0 {
                        self.masks.remove(&h);
                    }
                }
            }
            Some(c) => *c -= 1,
            None => debug_assert!(false, "shard-mask filter underflow"),
        }
    }
}

/// Exact membership counts for one index's live keys, by fingerprint.
/// A count is incremented when a key's posting list comes into
/// existence and decremented when it empties, so `may_contain` is
/// `false` only for keys the index definitely does not hold.
#[derive(Default)]
pub(super) struct KeyFilter {
    counts: HashMap<u64, u32, IdentityState>,
}

impl KeyFilter {
    pub(super) fn new() -> Self {
        Self::default()
    }

    /// Whether the index may hold a key with this fingerprint. `false`
    /// is definitive; `true` may (rarely, on collision) be spurious.
    pub(super) fn may_contain(&self, h: u64) -> bool {
        self.counts.contains_key(&h)
    }

    /// Number of live keys across all fingerprints, for invariant checks.
    pub(super) fn live_keys(&self) -> u64 {
        self.counts.values().map(|&c| u64::from(c)).sum()
    }

    fn key_added(&mut self, h: u64) {
        *self.counts.entry(h).or_insert(0) += 1;
    }

    fn key_removed(&mut self, h: u64) {
        match self.counts.get_mut(&h) {
            Some(1) => {
                self.counts.remove(&h);
            }
            Some(c) => *c -= 1,
            None => debug_assert!(false, "filter count underflow"),
        }
    }
}

/// Adds `id` under `key`, stamping a fresh sequence number.
///
/// Re-adding an id that is already present keeps its original sequence, just
/// as the old single-map index kept its original list position.
pub(super) fn add<K: FilterKey>(
    idx: &mut AvlMap<K, Vec<Entry>>,
    flt: &mut KeyFilter,
    key: K,
    id: InterfaceId,
    seq: &mut u64,
    shard: usize,
    mask: &mut ShardMaskFilter,
) {
    match idx.get_mut(&key) {
        Some(v) => {
            if !v.iter().any(|e| e.1 == id) {
                *seq += 1;
                v.push((*seq, id));
            }
        }
        None => {
            *seq += 1;
            flt.key_added(key.filter_hash());
            mask.key_added(key.tagged_hash(), shard);
            idx.insert(key, vec![(*seq, id)]);
        }
    }
}

/// Removes `id` from the posting list under `key`, dropping the key when the
/// list empties.
pub(super) fn remove<K: FilterKey>(
    idx: &mut AvlMap<K, Vec<Entry>>,
    flt: &mut KeyFilter,
    key: &K,
    id: InterfaceId,
    shard: usize,
    mask: &mut ShardMaskFilter,
) {
    let emptied = match idx.get_mut(key) {
        Some(v) => {
            v.retain(|e| e.1 != id);
            v.is_empty()
        }
        None => false,
    };
    if emptied {
        flt.key_removed(key.filter_hash());
        mask.key_removed(key.tagged_hash(), shard);
        idx.remove(key);
    }
}
