//! One partition of the interface-record space.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use fremont_net::MacAddr;

use crate::avl::AvlMap;
use crate::records::{InterfaceId, InterfaceRecord};
use crate::time::JTime;

use super::indexes::{Entry, FilterKey, KeyFilter};

/// Computes the shard an interface id lives in (Fibonacci hashing, so
/// sequentially allocated ids spread evenly instead of striding).
pub(super) fn shard_of(id: InterfaceId, shards: usize) -> usize {
    ((id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 32) as usize % shards
}

/// One shard: the interface records it owns plus the secondary indexes over
/// exactly those records. The AVL indexes that used to span the whole
/// journal are per-shard now; cross-shard queries merge the sorted
/// per-shard results.
pub(super) struct Shard {
    /// Interface records owned by this shard, keyed by raw id.
    pub records: HashMap<u64, InterfaceRecord>,
    /// Ethernet-address index. A MAC maps to *several* records when one
    /// adapter answers for several IP addresses (gateway or proxy ARP).
    pub idx_mac: AvlMap<MacAddr, Vec<Entry>>,
    /// IP-address index. An IP maps to several records when two hosts are
    /// (mis)configured with the same address, or hardware changed.
    pub idx_ip: AvlMap<Ipv4Addr, Vec<Entry>>,
    /// DNS-name index. A name maps to several records for multi-homed
    /// gateways.
    pub idx_name: AvlMap<String, Vec<Entry>>,
    /// Live-key fingerprint counts for `idx_mac`/`idx_ip`/`idx_name`:
    /// cross-shard fan-out asks these before descending into the trees,
    /// so shards that cannot hold a key cost one hash probe, not a tree
    /// walk. Maintained by `indexes::add`/`indexes::remove`.
    pub flt_mac: KeyFilter,
    pub flt_ip: KeyFilter,
    pub flt_name: KeyFilter,
    /// Modification-time ordering over this shard's records (the paper's
    /// "lists ordered by time of last modification"); the `u64` half of the
    /// key is the journal-global modification sequence, so merged shard
    /// runs reproduce the global order.
    pub idx_modified: AvlMap<(JTime, u64), InterfaceId>,
    /// Current modification key per record, for removal on re-touch.
    pub mod_keys: HashMap<u64, (JTime, u64)>,
}

impl Shard {
    /// Creates an empty shard.
    pub fn new() -> Self {
        Shard {
            records: HashMap::new(),
            idx_mac: AvlMap::new(),
            idx_ip: AvlMap::new(),
            idx_name: AvlMap::new(),
            flt_mac: KeyFilter::new(),
            flt_ip: KeyFilter::new(),
            flt_name: KeyFilter::new(),
            idx_modified: AvlMap::new(),
            mod_keys: HashMap::new(),
        }
    }

    /// Moves `id` to the end of the modification order at time `now`,
    /// drawing a fresh journal-global modification sequence from `mod_seq`.
    pub fn touch_modified(&mut self, mod_seq: &mut u64, id: InterfaceId, now: JTime) {
        if let Some(old) = self.mod_keys.remove(&id.0) {
            self.idx_modified.remove(&old);
        }
        *mod_seq += 1;
        let key = (now, *mod_seq);
        self.idx_modified.insert(key, id);
        self.mod_keys.insert(id.0, key);
    }

    /// Tagged fingerprints of every live key in this shard's three
    /// indexes — what the journal-global shard-mask filter must cover.
    pub fn live_key_hashes(&self) -> impl Iterator<Item = u64> + '_ {
        let ips = self.idx_ip.iter().map(|(k, _)| k.tagged_hash());
        let macs = self.idx_mac.iter().map(|(k, _)| k.tagged_hash());
        let names = self.idx_name.iter().map(|(k, _)| k.tagged_hash());
        ips.chain(macs).chain(names)
    }

    /// Verifies this shard's index consistency.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.idx_ip.check_invariants()?;
        self.idx_mac.check_invariants()?;
        self.idx_name.check_invariants()?;
        self.idx_modified.check_invariants()?;
        for (ip, entries) in self.idx_ip.iter() {
            for (_, id) in entries {
                let Some(r) = self.records.get(&id.0) else {
                    return Err(format!("idx_ip points at dead record {id:?}"));
                };
                if r.ip_addr() != Some(*ip) {
                    return Err(format!("idx_ip stale for {ip}"));
                }
            }
            if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(format!("idx_ip postings out of sequence for {ip}"));
            }
        }
        for (mac, entries) in self.idx_mac.iter() {
            for (_, id) in entries {
                let Some(r) = self.records.get(&id.0) else {
                    return Err(format!("idx_mac points at dead record {id:?}"));
                };
                if r.mac_addr() != Some(*mac) {
                    return Err(format!("idx_mac stale for {mac}"));
                }
            }
            if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(format!("idx_mac postings out of sequence for {mac}"));
            }
        }
        for (name, idx, flt) in [
            ("idx_ip", self.idx_ip.iter().count() as u64, &self.flt_ip),
            ("idx_mac", self.idx_mac.iter().count() as u64, &self.flt_mac),
            (
                "idx_name",
                self.idx_name.iter().count() as u64,
                &self.flt_name,
            ),
        ] {
            if flt.live_keys() != idx {
                return Err(format!(
                    "{name} filter counts {} keys, index holds {idx}",
                    flt.live_keys()
                ));
            }
        }
        for (ip, _) in self.idx_ip.iter() {
            if !self.flt_ip.may_contain(ip.filter_hash()) {
                return Err(format!("flt_ip misses live key {ip}"));
            }
        }
        for (mac, _) in self.idx_mac.iter() {
            if !self.flt_mac.may_contain(mac.filter_hash()) {
                return Err(format!("flt_mac misses live key {mac}"));
            }
        }
        for (name, _) in self.idx_name.iter() {
            if !self.flt_name.may_contain(name.filter_hash()) {
                return Err(format!("flt_name misses live key {name}"));
            }
        }
        for rec in self.records.values() {
            if let Some(ip) = rec.ip_addr() {
                let present = self
                    .idx_ip
                    .get(&ip)
                    .is_some_and(|v| v.iter().any(|e| e.1 == rec.id));
                if !present {
                    return Err(format!("record {:?} missing from idx_ip", rec.id));
                }
            }
        }
        Ok(())
    }
}
