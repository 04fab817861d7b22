//! The Journal: merge, index, and query discovered network facts.
//!
//! This is the in-memory representation the paper's Journal Server keeps:
//! records in modification-time order, interface records indexed by
//! Ethernet address, IP address, and DNS name, and subnet records indexed
//! by subnet address. The paper's server kept those indexes in AVL trees;
//! here they are std `BTreeMap`s, which give the same ordered lookups and
//! range scans. "Because it is the shared place where
//! observations are stored ... the Journal is more than just the sum of
//! its parts": the merge rules below are what turn per-module observations
//! into cross-correlated knowledge.
//!
//! # One partition, one lock
//!
//! [`Journal`] is one `Store` — every record, every index, the gateway
//! and subnet slabs and the ordering sequences — behind one
//! reader-writer lock, the paper's single process that "serializes
//! updates, time-stamps and records the data, and answers queries".
//!
//! Every mutation — [`Journal::apply`], [`Journal::apply_batch`],
//! [`Journal::delete_interface`] — is one write transaction: the write
//! guard taken once by `begin_write`, on which the merge rules run in
//! observation order. Every query takes the read guard once and holds
//! it until its answer is built, so queries run concurrently with each
//! other and no public query method calls another (the lock is not
//! reentrant; `fremont-lint`'s `lock-order` rule rejects a `store`
//! acquisition reached while `store` is held).
//!
//! Consistency: a query sees a single state of the whole store, and a
//! write transaction — a batch, a single apply, a delete — is atomic
//! with respect to every query.

mod indexes;
mod stats;

pub use indexes::{SharedKeys, SharedMember};
pub use stats::{JournalStats, ShardMetrics, ShardingMetrics, StoreSummary};

use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::sync::atomic::Ordering;

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use fremont_net::{MacAddr, Subnet};

use crate::observation::{Fact, Observation, Source};
use crate::query::{InterfaceQuery, SubnetQuery};
use crate::records::{GatewayId, GatewayRecord, InterfaceId, InterfaceRecord, SubnetRecord};
use crate::time::{JTime, Timestamped};

use stats::StoreCounters;

/// Everything the Journal holds: the records and the indexes over them.
/// Postings are appended in insertion order, which the merge rules'
/// tie-breaks depend on.
#[derive(Default)]
struct Store {
    /// Interface records, keyed by raw id.
    records: HashMap<u64, InterfaceRecord>,
    /// Ethernet-address index. A MAC maps to *several* records when one
    /// adapter answers for several IP addresses (gateway or proxy ARP).
    idx_mac: BTreeMap<MacAddr, Vec<InterfaceId>>,
    /// IP-address index. An IP maps to several records when two hosts are
    /// (mis)configured with the same address, or hardware changed.
    idx_ip: BTreeMap<Ipv4Addr, Vec<InterfaceId>>,
    /// DNS-name index. A name maps to several records for multi-homed
    /// gateways.
    idx_name: BTreeMap<String, Vec<InterfaceId>>,
    /// Modification-time ordering over the records (the paper's "lists
    /// ordered by time of last modification").
    idx_modified: BTreeMap<(JTime, u64), InterfaceId>,
    /// Current modification key per record, for removal on re-touch.
    mod_keys: HashMap<u64, (JTime, u64)>,
    gateways: Vec<Option<GatewayRecord>>,
    subnets: BTreeMap<Subnet, SubnetRecord>,
    /// Next interface id to allocate (ids are never reused).
    next_iface: u64,
    /// Modification sequence (tie-break within one `JTime`).
    mod_seq: u64,
    observations_applied: u64,
}

/// The Journal store: one `Store` behind one reader-writer lock.
pub struct Journal {
    store: RwLock<Store>,
    counters: StoreCounters,
}

impl Default for Journal {
    fn default() -> Self {
        Self::new()
    }
}

impl Journal {
    /// Creates an empty journal.
    pub fn new() -> Self {
        Self::holding(Store::default())
    }

    fn holding(store: Store) -> Self {
        Journal {
            store: RwLock::new(store),
            counters: StoreCounters::default(),
        }
    }

    // ------------------------------------------------------------------
    // Lock access (the only places the store lock is taken)
    // ------------------------------------------------------------------

    /// Takes the read guard a query holds until its answer is built.
    fn begin_read(&self) -> RwLockReadGuard<'_, Store> {
        self.counters.read_locks.fetch_add(1, Ordering::Relaxed);
        self.store.read()
    }

    /// Opens a write transaction: the write guard, held until drop.
    fn begin_write(&self) -> RwLockWriteGuard<'_, Store> {
        self.counters.write_locks.fetch_add(1, Ordering::Relaxed);
        self.store.write()
    }

    // ------------------------------------------------------------------
    // Store / Update
    // ------------------------------------------------------------------

    /// Applies one observation at time `now` (the Journal Server's
    /// Store/Update operation): a write transaction of one.
    pub fn apply(&self, obs: &Observation, now: JTime) -> StoreSummary {
        self.begin_write().apply(obs, now)
    }

    /// Applies a batch of `(observation, at)` pairs, in order, inside
    /// **one** write transaction — the batched write path the driver,
    /// the server's StoreBatch RPC, and the WAL group commit all funnel
    /// into. The iterator is consumed with the lock held.
    pub fn apply_batch<'a>(
        &self,
        items: impl IntoIterator<Item = (&'a Observation, JTime)>,
    ) -> StoreSummary {
        let mut txn = self.begin_write();
        let mut sum = StoreSummary::default();
        let mut n = 0u64;
        for (obs, at) in items {
            sum.absorb(txn.apply(obs, at));
            n += 1;
        }
        self.counters.note_batch(n);
        sum
    }
}

impl Store {
    /// The record a posting points at, panicking (via map indexing) if
    /// the id is dead — callers only pass ids taken from live index
    /// postings, which only reference live records.
    fn rec(&self, id: InterfaceId) -> &InterfaceRecord {
        &self.records[&id.0]
    }

    fn ip_ids(&self, ip: Ipv4Addr) -> &[InterfaceId] {
        self.idx_ip.get(&ip).map_or(&[], Vec::as_slice)
    }

    fn mac_ids(&self, mac: MacAddr) -> &[InterfaceId] {
        self.idx_mac.get(&mac).map_or(&[], Vec::as_slice)
    }

    fn name_ids(&self, name: &str) -> &[InterfaceId] {
        self.idx_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Moves `id` to the end of the modification order at time `now`.
    fn touch_modified(&mut self, id: InterfaceId, now: JTime) {
        if let Some(old) = self.mod_keys.remove(&id.0) {
            self.idx_modified.remove(&old);
        }
        self.mod_seq += 1;
        let key = (now, self.mod_seq);
        self.idx_modified.insert(key, id);
        self.mod_keys.insert(id.0, key);
    }

    fn apply(&mut self, obs: &Observation, now: JTime) -> StoreSummary {
        self.observations_applied += 1;
        match &obs.fact {
            Fact::Interface {
                ip,
                mac,
                name,
                mask,
            } => self.apply_interface(obs.source, *ip, *mac, name.as_deref(), *mask, now),
            Fact::Subnet {
                subnet,
                mask_assumed,
            } => self.apply_subnet(obs.source, *subnet, *mask_assumed, now),
            Fact::SubnetStats {
                subnet,
                host_count,
                lowest,
                highest,
            } => self.apply_subnet_stats(obs.source, *subnet, *host_count, *lowest, *highest, now),
            Fact::Gateway {
                interface_ips,
                interface_names,
                subnets,
            } => self.apply_gateway(obs.source, interface_ips, interface_names, subnets, now),
            Fact::RipSource {
                ip,
                mac,
                advertised_routes: _,
                promiscuous,
            } => self.apply_rip_source(obs.source, *ip, *mac, *promiscuous, now),
        }
    }

    // ------------------------------------------------------------------
    // Interface merge
    // ------------------------------------------------------------------

    fn apply_interface(
        &mut self,
        source: Source,
        ip: Option<Ipv4Addr>,
        mac: Option<MacAddr>,
        name: Option<&str>,
        mask: Option<fremont_net::SubnetMask>,
        now: JTime,
    ) -> StoreSummary {
        let mut sum = StoreSummary::default();
        let targets = self.resolve_targets(ip, mac, name);
        if targets.is_empty() {
            if ip.is_none() && mac.is_none() && name.is_none() {
                return sum; // Nothing identifying; drop.
            }
            let id = self.create_interface(now);
            self.update_interface(id, source, ip, mac, name, mask, now);
            sum.created += 1;
            return sum;
        }
        for id in targets {
            if self.update_interface(id, source, ip, mac, name, mask, now) {
                sum.updated += 1;
            } else {
                sum.verified += 1;
            }
        }
        sum
    }

    /// Finds the records an interface observation should apply to.
    ///
    /// Identity resolution, in order of address quality (MAC > IP > name):
    ///
    /// 1. With a MAC: the record carrying this MAC *and* the same IP (or no
    ///    IP yet). A MAC already bound to a *different* IP gets a separate
    ///    record — that is how "multiple IP addresses for a single Ethernet
    ///    address" (proxy ARP / gateways) stays visible to analysis.
    /// 2. With only an IP: the record that currently *owns* the address —
    ///    the one most recently verified alive. A ping cannot distinguish
    ///    duplicate-address hosts or old hardware, so crediting every
    ///    record would keep dead claimants looking alive forever; only
    ///    MAC-bearing evidence (ARP) refreshes the other claimants.
    /// 3. With only a name: every record carrying that name.
    fn resolve_targets(
        &self,
        ip: Option<Ipv4Addr>,
        mac: Option<MacAddr>,
        name: Option<&str>,
    ) -> Vec<InterfaceId> {
        if let Some(mac) = mac {
            let with_mac = self.mac_ids(mac);
            if let Some(ip) = ip {
                // Exact (mac, ip) record?
                if let Some(&id) = with_mac
                    .iter()
                    .find(|&&id| self.rec(id).ip_addr() == Some(ip))
                {
                    return vec![id];
                }
                // A record with this MAC and no IP yet?
                if let Some(&id) = with_mac
                    .iter()
                    .find(|&&id| self.rec(id).ip_addr().is_none())
                {
                    return vec![id];
                }
                // A record with this IP and no MAC yet (created by a ping)?
                if let Some(&id) = self
                    .ip_ids(ip)
                    .iter()
                    .find(|&&id| self.rec(id).mac_addr().is_none())
                {
                    return vec![id];
                }
                // Otherwise: new record (same MAC answering another IP, or
                // same IP on different hardware).
                return Vec::new();
            }
            return with_mac.to_vec();
        }
        if let Some(ip) = ip {
            let ids = self.ip_ids(ip);
            if ids.len() <= 1 {
                return ids.to_vec();
            }
            // Multiple claimants: credit the presumed current owner only.
            return ids
                .iter()
                .copied()
                .max_by_key(|&id| {
                    let r = self.rec(id);
                    (r.live_verified, r.verified, r.discovered)
                })
                .into_iter()
                .collect();
        }
        if let Some(name) = name {
            return self.name_ids(name).to_vec();
        }
        Vec::new()
    }

    fn create_interface(&mut self, now: JTime) -> InterfaceId {
        let id = InterfaceId(self.next_iface);
        self.next_iface += 1;
        self.records.insert(id.0, InterfaceRecord::new(id, now));
        self.touch_modified(id, now);
        id
    }

    /// Applies fields to one record and maintains the indexes; returns
    /// `true` when anything changed.
    #[allow(clippy::too_many_arguments)]
    fn update_interface(
        &mut self,
        id: InterfaceId,
        source: Source,
        ip: Option<Ipv4Addr>,
        mac: Option<MacAddr>,
        name: Option<&str>,
        mask: Option<fremont_net::SubnetMask>,
        now: JTime,
    ) -> bool {
        let Some(r) = self.records.get_mut(&id.0) else {
            return false;
        };

        // Index maintenance requires knowing old values first.
        let (old_ip, old_mac, old_name) =
            (r.ip_addr(), r.mac_addr(), r.dns_name().map(str::to_owned));

        let mut changed = false;
        if let Some(ip) = ip {
            match &mut r.ip {
                Some(t) => changed |= t.observe(ip, now),
                None => {
                    r.ip = Some(Timestamped::new(ip, now));
                    changed = true;
                }
            }
        }
        if let Some(mac) = mac {
            match &mut r.mac {
                Some(t) => changed |= t.observe(mac, now),
                None => {
                    r.mac = Some(Timestamped::new(mac, now));
                    changed = true;
                }
            }
        }
        if let Some(name) = name {
            match &mut r.name {
                Some(t) => changed |= t.observe(name.to_owned(), now),
                None => {
                    r.name = Some(Timestamped::new(name.to_owned(), now));
                    changed = true;
                }
            }
        }
        if let Some(mask) = mask {
            match &mut r.mask {
                Some(t) => changed |= t.observe(mask, now),
                None => {
                    r.mask = Some(Timestamped::new(mask, now));
                    changed = true;
                }
            }
        }
        r.sources.insert(source);
        r.verified = now;
        // `live_verified` means on-wire evidence. DNS records and the
        // Manager's cross-correlation derivations re-describe what is
        // already in the Journal — neither proves the interface still
        // answers, and counting them would keep a dead gateway
        // "alive" for as long as correlation keeps re-deriving it.
        if source != Source::Dns && source != Source::Manager {
            r.live_verified = Some(now);
        }
        if changed {
            r.changed = now;
        }

        // The record borrow ends here; now maintain the indexes.
        if let Some(ip) = ip {
            if old_ip != Some(ip) {
                if let Some(old) = old_ip {
                    indexes::remove(&mut self.idx_ip, &old, id);
                }
                indexes::add(&mut self.idx_ip, ip, id);
            }
        }
        if let Some(mac) = mac {
            if old_mac != Some(mac) {
                if let Some(old) = old_mac {
                    indexes::remove(&mut self.idx_mac, &old, id);
                }
                indexes::add(&mut self.idx_mac, mac, id);
            }
        }
        if let Some(name) = name {
            if old_name.as_deref() != Some(name) {
                if let Some(old) = old_name {
                    indexes::remove(&mut self.idx_name, &old, id);
                }
                indexes::add(&mut self.idx_name, name.to_owned(), id);
            }
        }
        if changed {
            self.touch_modified(id, now);
        }
        changed
    }

    // ------------------------------------------------------------------
    // Subnets
    // ------------------------------------------------------------------

    fn apply_subnet(
        &mut self,
        source: Source,
        subnet: Subnet,
        mask_assumed: bool,
        now: JTime,
    ) -> StoreSummary {
        let mut sum = StoreSummary::default();
        match self.subnets.get_mut(&subnet) {
            Some(rec) => {
                let mut changed = false;
                if rec.mask_assumed && !mask_assumed {
                    rec.mask_assumed = false;
                    changed = true;
                }
                rec.sources.insert(source);
                rec.verified = now;
                if changed {
                    rec.changed = now;
                    sum.updated += 1;
                } else {
                    sum.verified += 1;
                }
            }
            None => {
                let mut rec = SubnetRecord::new(subnet, mask_assumed, now);
                rec.sources.insert(source);
                self.subnets.insert(subnet, rec);
                sum.created += 1;
            }
        }
        sum
    }

    fn apply_subnet_stats(
        &mut self,
        source: Source,
        subnet: Subnet,
        host_count: u32,
        lowest: Ipv4Addr,
        highest: Ipv4Addr,
        now: JTime,
    ) -> StoreSummary {
        let mut sum = self.apply_subnet(source, subnet, false, now);
        let Some(rec) = self.subnets.get_mut(&subnet) else {
            return sum; // apply_subnet ensures presence
        };
        let mut changed = false;
        match &mut rec.host_count {
            Some(t) => changed |= t.observe(host_count, now),
            None => {
                rec.host_count = Some(Timestamped::new(host_count, now));
                changed = true;
            }
        }
        if rec.lowest != Some(lowest) {
            rec.lowest = Some(lowest);
            changed = true;
        }
        if rec.highest != Some(highest) {
            rec.highest = Some(highest);
            changed = true;
        }
        if changed {
            rec.changed = now;
            sum.updated += 1;
        }
        sum
    }

    // ------------------------------------------------------------------
    // Gateways
    // ------------------------------------------------------------------

    fn apply_gateway(
        &mut self,
        source: Source,
        interface_ips: &[Ipv4Addr],
        interface_names: &[String],
        subnets: &[Subnet],
        now: JTime,
    ) -> StoreSummary {
        let mut sum = StoreSummary::default();

        // Resolve or create an interface record per address.
        let mut members: Vec<InterfaceId> = Vec::new();
        for &ip in interface_ips {
            let s = self.apply_interface(source, Some(ip), None, None, None, now);
            sum.absorb(s);
            // Prefer the record that already belongs to a gateway so
            // repeated observations converge; otherwise take the first.
            let ids = self.ip_ids(ip);
            let chosen = ids
                .iter()
                .copied()
                .find(|&id| self.rec(id).gateway.is_some())
                .or_else(|| ids.first().copied());
            if let Some(id) = chosen {
                if !members.contains(&id) {
                    members.push(id);
                }
            }
        }
        for name in interface_names {
            for &id in self.name_ids(name) {
                if !members.contains(&id) {
                    members.push(id);
                }
            }
        }

        // An observation that resolved to no interfaces would create an
        // unmergeable ghost gateway on every re-observation; record only
        // the subnet knowledge and wait for identifiable evidence.
        if members.is_empty() {
            for &s in subnets {
                sum.absorb(self.apply_subnet(source, s, true, now));
            }
            return sum;
        }

        // Find the gateways any member already belongs to.
        let mut gids: Vec<GatewayId> = Vec::new();
        for &m in &members {
            if let Some(g) = self.rec(m).gateway {
                if !gids.contains(&g) {
                    gids.push(g);
                }
            }
        }
        // Take the gateway record out of the slab while we mutate it, so
        // the borrow of `self` stays free for subnet upserts below.
        let (gid, mut g) = match gids.first().copied() {
            Some(primary) => {
                // Merge any additional gateways into the primary: two
                // modules discovered the same box from different sides.
                for &other in &gids[1..] {
                    self.merge_gateways(primary, other, now);
                }
                let Some(g) = self
                    .gateways
                    .get_mut(primary.0 as usize)
                    .and_then(Option::take)
                else {
                    return sum; // member pointed at a live gateway
                };
                (primary, g)
            }
            None => {
                let gid = GatewayId(self.gateways.len() as u64);
                self.gateways.push(None); // placeholder, restored below
                sum.created += 1;
                (gid, GatewayRecord::new(gid, now))
            }
        };

        // Attach members and subnets.
        let mut gw_changed = false;
        for &m in &members {
            if let Some(r) = self.records.get_mut(&m.0) {
                if r.gateway != Some(gid) {
                    r.gateway = Some(gid);
                    r.changed = now;
                    self.touch_modified(m, now);
                }
            }
            gw_changed |= g.add_interface(m);
        }
        // Subnets derived from member interfaces carry confirmed masks;
        // explicitly-claimed subnets keep their mask *assumed* (modules
        // guess /24 when linking hops) until a mask reply confirms them.
        let mut all_subnets: Vec<(Subnet, bool)> = subnets.iter().map(|s| (*s, true)).collect();
        for &m in &members {
            if let Some(s) = self.rec(m).subnet() {
                if let Some(e) = all_subnets.iter_mut().find(|(x, _)| *x == s) {
                    e.1 = false;
                } else {
                    all_subnets.push((s, false));
                }
            }
        }
        for (s, assumed) in all_subnets {
            sum.absorb(self.apply_subnet(source, s, assumed, now));
            gw_changed |= g.add_subnet(s);
            if let Some(srec) = self.subnets.get_mut(&s) {
                if srec.add_gateway(gid) {
                    srec.changed = now;
                }
            }
        }
        g.sources.insert(source);
        g.verified = now;
        if gw_changed {
            g.changed = now;
            sum.updated += 1;
        } else {
            sum.verified += 1;
        }
        self.gateways[gid.0 as usize] = Some(g);
        sum
    }

    fn merge_gateways(&mut self, into: GatewayId, from: GatewayId, now: JTime) {
        let Some(old) = self
            .gateways
            .get_mut(from.0 as usize)
            .and_then(Option::take)
        else {
            return;
        };
        for &i in &old.interfaces {
            if let Some(r) = self.records.get_mut(&i.0) {
                if r.gateway != Some(into) {
                    r.gateway = Some(into);
                    r.changed = now;
                }
                self.touch_modified(i, now);
            }
        }
        // Re-point subnet records.
        for s in &old.subnets {
            if let Some(rec) = self.subnets.get_mut(s) {
                rec.gateways.retain(|g| *g != from);
                rec.add_gateway(into);
            }
        }
        if let Some(g) = self
            .gateways
            .get_mut(into.0 as usize)
            .and_then(Option::as_mut)
        {
            for i in old.interfaces {
                g.add_interface(i);
            }
            for s in old.subnets {
                g.add_subnet(s);
            }
            g.changed = now;
            for src in old.sources.iter() {
                g.sources.insert(src);
            }
        }
    }

    fn apply_rip_source(
        &mut self,
        source: Source,
        ip: Ipv4Addr,
        mac: Option<MacAddr>,
        promiscuous: bool,
        now: JTime,
    ) -> StoreSummary {
        let mut sum = self.apply_interface(source, Some(ip), mac, None, None, now);
        for id in self.ip_ids(ip).to_vec() {
            let matches_mac = match (mac, self.rec(id).mac_addr()) {
                (Some(m), Some(rm)) => m == rm,
                _ => true,
            };
            if matches_mac {
                if let Some(r) = self.records.get_mut(&id.0) {
                    if !r.rip_source || r.rip_promiscuous != promiscuous {
                        r.rip_source = true;
                        r.rip_promiscuous = promiscuous;
                        r.changed = now;
                        self.touch_modified(id, now);
                        sum.updated += 1;
                    }
                }
            }
        }
        sum
    }

    // ------------------------------------------------------------------
    // Delete
    // ------------------------------------------------------------------

    fn delete_interface(&mut self, id: InterfaceId) -> bool {
        let Some(rec) = self.records.remove(&id.0) else {
            return false;
        };
        if let Some(ip) = rec.ip_addr() {
            indexes::remove(&mut self.idx_ip, &ip, id);
        }
        if let Some(mac) = rec.mac_addr() {
            indexes::remove(&mut self.idx_mac, &mac, id);
        }
        if let Some(name) = rec.dns_name() {
            indexes::remove(&mut self.idx_name, name, id);
        }
        if let Some(key) = self.mod_keys.remove(&id.0) {
            self.idx_modified.remove(&key);
        }
        if let Some(gid) = rec.gateway {
            if let Some(g) = self
                .gateways
                .get_mut(gid.0 as usize)
                .and_then(Option::as_mut)
            {
                g.interfaces.retain(|i| *i != id);
            }
        }
        true
    }
}

impl Journal {
    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Fetches an interface record by id.
    pub fn interface(&self, id: InterfaceId) -> Option<InterfaceRecord> {
        self.begin_read().records.get(&id.0).cloned()
    }

    /// Fetches the subnet record for an exact subnet.
    pub fn subnet(&self, s: &Subnet) -> Option<SubnetRecord> {
        self.begin_read().subnets.get(s).cloned()
    }

    /// Returns all interface records matching the query (the Journal
    /// Server's Get operation), using the IP index when the query allows.
    /// Ids are resolved and records cloned under the one read guard, so
    /// the answer is a single state of the store.
    pub fn get_interfaces(&self, q: &InterfaceQuery) -> Vec<InterfaceRecord> {
        let st = self.begin_read();
        // Fast paths through the indexes.
        if let Some(ip) = q.ip {
            return st.matching(st.ip_ids(ip).iter(), q);
        }
        if let Some(mac) = q.mac {
            return st.matching(st.mac_ids(mac).iter(), q);
        }
        if let Some(s) = q.in_subnet {
            let lo = s.network();
            let hi = s.directed_broadcast();
            return st.scan_ip_range(lo, hi, q);
        }
        if let Some((lo, hi)) = q.ip_range {
            return st.scan_ip_range(lo, hi, q);
        }
        st.records_by_id(|r| q.matches(r))
    }

    /// Interfaces in ascending order of last modification (oldest first).
    pub fn interfaces_by_modification(&self) -> Vec<InterfaceRecord> {
        let st = self.begin_read();
        st.idx_modified
            .values()
            .filter_map(|id| st.records.get(&id.0).cloned())
            .collect()
    }

    /// All gateway records.
    pub fn get_gateways(&self) -> Vec<GatewayRecord> {
        let st = self.begin_read();
        st.gateways.iter().flatten().cloned().collect()
    }

    /// Subnet records matching the query, in address order.
    pub fn get_subnets(&self, q: &SubnetQuery) -> Vec<SubnetRecord> {
        let st = self.begin_read();
        st.subnets
            .values()
            .filter(|r| q.matches(r))
            .cloned()
            .collect()
    }

    /// The Ethernet addresses and DNS names carried by two or more
    /// interface records, with those records' ids, addresses and
    /// subnets — what cross-correlation asks of the Journal. The MAC
    /// and name indexes are walked under the one read guard and the
    /// members read from the records in place (no record is cloned), so
    /// both halves of the answer are a single state of the store.
    pub fn shared_keys(&self) -> SharedKeys {
        let st = self.begin_read();
        SharedKeys {
            by_mac: indexes::shared(&st.idx_mac, &st.records),
            by_name: indexes::shared(&st.idx_name, &st.records),
        }
    }

    // ------------------------------------------------------------------
    // Delete
    // ------------------------------------------------------------------

    /// Deletes an interface record (the Journal Server's Delete operation)
    /// in a write transaction of its own.
    ///
    /// Returns `true` when the record existed.
    pub fn delete_interface(&self, id: InterfaceId) -> bool {
        self.begin_write().delete_interface(id)
    }

    // ------------------------------------------------------------------
    // Stats, snapshots, invariants
    // ------------------------------------------------------------------

    /// Journal-wide statistics.
    pub fn stats(&self) -> JournalStats {
        let st = self.begin_read();
        JournalStats {
            interfaces: st.records.len(),
            gateways: st.gateways.iter().flatten().count(),
            subnets: st.subnets.len(),
            observations_applied: st.observations_applied,
        }
    }

    /// Point-in-time lock and batching metrics for observability: the
    /// one partition reports as shard 0.
    pub fn sharding_metrics(&self) -> ShardingMetrics {
        let records = self.begin_read().records.len();
        let c = &self.counters;
        ShardingMetrics {
            shards: vec![ShardMetrics {
                shard: 0,
                records,
                read_locks: c.read_locks.load(Ordering::Relaxed),
                write_locks: c.write_locks.load(Ordering::Relaxed),
            }],
            fanout_queries: 0,
            batches: c.batches.load(Ordering::Relaxed),
            batch_observations: c.batch_observations.load(Ordering::Relaxed),
            largest_batch: c.largest_batch.load(Ordering::Relaxed),
        }
    }

    /// Total write-lock acquisitions made by write transactions — one
    /// per transaction. Kept out of [`ShardingMetrics`] (a wire type
    /// frozen by the wal-schema golden); the server reads it directly
    /// when publishing telemetry.
    pub fn batch_groups_total(&self) -> u64 {
        self.counters.write_locks.load(Ordering::Relaxed)
    }

    /// Exports all records as a snapshot.
    pub fn to_snapshot(&self) -> crate::snapshot::JournalSnapshot {
        let st = self.begin_read();
        crate::snapshot::JournalSnapshot {
            version: crate::snapshot::SNAPSHOT_VERSION,
            interfaces: st.records_by_id(|_| true),
            gateways: st.gateways.iter().flatten().cloned().collect(),
            subnets: st.subnets.values().cloned().collect(),
            observations_applied: st.observations_applied,
        }
    }

    /// A stable fingerprint of the journal's canonical snapshot — see
    /// [`crate::snapshot::JournalSnapshot::fingerprint`]. Independent of
    /// observation arrival batching; two journals that hold the same
    /// facts fingerprint identically.
    pub fn fingerprint(&self) -> u64 {
        self.to_snapshot().fingerprint()
    }

    /// Rebuilds a journal (including every index) from a snapshot.
    pub fn from_snapshot(snap: &crate::snapshot::JournalSnapshot) -> Journal {
        // Records keep their identifiers, so allocation resumes past
        // the maximum and the gateway slab is sized to it.
        let max_gw = snap.gateways.iter().map(|r| r.id.0 + 1).max().unwrap_or(0);
        let mut st = Store {
            observations_applied: snap.observations_applied,
            next_iface: snap
                .interfaces
                .iter()
                .map(|r| r.id.0 + 1)
                .max()
                .unwrap_or(0),
            gateways: (0..max_gw).map(|_| None).collect(),
            ..Store::default()
        };

        // Rebuild the modification index in changed-time order.
        let mut by_changed: Vec<&InterfaceRecord> = snap.interfaces.iter().collect();
        by_changed.sort_by_key(|r| r.changed);
        for rec in by_changed {
            let id = rec.id;
            st.records.insert(id.0, rec.clone());
            if let Some(ip) = rec.ip_addr() {
                indexes::add(&mut st.idx_ip, ip, id);
            }
            if let Some(mac) = rec.mac_addr() {
                indexes::add(&mut st.idx_mac, mac, id);
            }
            if let Some(name) = rec.dns_name() {
                indexes::add(&mut st.idx_name, name.to_owned(), id);
            }
            st.touch_modified(id, rec.changed);
        }
        for g in &snap.gateways {
            st.gateways[g.id.0 as usize] = Some(g.clone());
        }
        for s in &snap.subnets {
            st.subnets.insert(s.subnet, s.clone());
        }
        Journal::holding(st)
    }

    /// Verifies internal index consistency (used by tests).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.begin_read().check_invariants()
    }
}

impl Store {
    /// Clones of the records `keep` accepts, in id order (a full scan).
    fn records_by_id(&self, keep: impl Fn(&InterfaceRecord) -> bool) -> Vec<InterfaceRecord> {
        let mut v: Vec<&InterfaceRecord> = self.records.values().filter(|r| keep(r)).collect();
        v.sort_unstable_by_key(|r| r.id.0);
        v.into_iter().cloned().collect()
    }

    /// Clones the live records `ids` point at that match `q`, in order.
    fn matching<'a>(
        &self,
        ids: impl Iterator<Item = &'a InterfaceId>,
        q: &InterfaceQuery,
    ) -> Vec<InterfaceRecord> {
        ids.filter_map(|id| self.records.get(&id.0))
            .filter(|r| q.matches(r))
            .cloned()
            .collect()
    }

    /// Matching records with an address in `lo..=hi`, by (address,
    /// insertion) order. An inverted range (`lo > hi`, which a client can
    /// send) is empty; `BTreeMap::range` would panic on it.
    fn scan_ip_range(
        &self,
        lo: Ipv4Addr,
        hi: Ipv4Addr,
        q: &InterfaceQuery,
    ) -> Vec<InterfaceRecord> {
        if lo > hi {
            return Vec::new();
        }
        self.matching(self.idx_ip.range(lo..=hi).flat_map(|(_, ids)| ids), q)
    }

    fn check_invariants(&self) -> Result<(), String> {
        for (ip, ids) in self.idx_ip.iter() {
            for id in ids {
                let Some(r) = self.records.get(&id.0) else {
                    return Err(format!("idx_ip points at dead record {id:?}"));
                };
                if r.ip_addr() != Some(*ip) {
                    return Err(format!("idx_ip stale for {ip}"));
                }
            }
        }
        for (mac, ids) in self.idx_mac.iter() {
            for id in ids {
                let Some(r) = self.records.get(&id.0) else {
                    return Err(format!("idx_mac points at dead record {id:?}"));
                };
                if r.mac_addr() != Some(*mac) {
                    return Err(format!("idx_mac stale for {mac}"));
                }
            }
        }
        for (name, ids) in self.idx_name.iter() {
            for id in ids {
                let Some(r) = self.records.get(&id.0) else {
                    return Err(format!("idx_name points at dead record {id:?}"));
                };
                if r.dns_name() != Some(name.as_str()) {
                    return Err(format!("idx_name stale for {name}"));
                }
            }
        }
        if self.idx_modified.len() != self.records.len()
            || self.mod_keys.len() != self.records.len()
        {
            return Err(format!(
                "{} records but {} idx_modified and {} mod_keys entries",
                self.records.len(),
                self.idx_modified.len(),
                self.mod_keys.len()
            ));
        }
        for (key, id) in self.idx_modified.iter() {
            if !self.records.contains_key(&id.0) || self.mod_keys.get(&id.0) != Some(key) {
                return Err(format!("idx_modified key {key:?} is not {id:?}'s mod key"));
            }
        }
        for rec in self.records.values() {
            if let Some(ip) = rec.ip_addr() {
                if !self.ip_ids(ip).contains(&rec.id) {
                    return Err(format!("record {:?} missing from idx_ip", rec.id));
                }
            }
            if let Some(gid) = rec.gateway {
                let g = self
                    .gateways
                    .get(gid.0 as usize)
                    .and_then(Option::as_ref)
                    .ok_or_else(|| format!("record {:?} points at dead gateway", rec.id))?;
                if !g.interfaces.contains(&rec.id) {
                    return Err(format!("gateway {gid:?} missing member {:?}", rec.id));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::Observation;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn mac(s: &str) -> MacAddr {
        s.parse().unwrap()
    }

    fn subnet(s: &str) -> Subnet {
        s.parse().unwrap()
    }

    #[test]
    fn ping_then_arp_merges_into_one_record() {
        let j = Journal::new();
        j.apply(
            &Observation::ip_alive(Source::SeqPing, ip("10.0.0.5")),
            JTime(10),
        );
        j.apply(
            &Observation::arp_pair(Source::ArpWatch, ip("10.0.0.5"), mac("08:00:20:00:00:05")),
            JTime(20),
        );
        let recs = j.get_interfaces(&InterfaceQuery::by_ip(ip("10.0.0.5")));
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.mac_addr(), Some(mac("08:00:20:00:00:05")));
        assert_eq!(r.discovered, JTime(10));
        assert!(r.sources.contains(Source::SeqPing));
        assert!(r.sources.contains(Source::ArpWatch));
        j.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_ip_keeps_two_records() {
        let j = Journal::new();
        j.apply(
            &Observation::arp_pair(Source::ArpWatch, ip("10.0.0.9"), mac("08:00:20:00:00:01")),
            JTime(1),
        );
        j.apply(
            &Observation::arp_pair(Source::ArpWatch, ip("10.0.0.9"), mac("00:00:0c:00:00:02")),
            JTime(2),
        );
        let recs = j.get_interfaces(&InterfaceQuery::by_ip(ip("10.0.0.9")));
        assert_eq!(recs.len(), 2, "duplicate address must stay visible");
        j.check_invariants().unwrap();
    }

    #[test]
    fn proxy_arp_mac_with_multiple_ips_keeps_records() {
        let j = Journal::new();
        let gw_mac = mac("00:00:0c:aa:bb:cc");
        for i in 1..=3u8 {
            j.apply(
                &Observation::arp_pair(Source::EtherHostProbe, Ipv4Addr::new(10, 0, 0, i), gw_mac),
                JTime(u64::from(i)),
            );
        }
        let recs = j.get_interfaces(&InterfaceQuery::by_mac(gw_mac));
        assert_eq!(recs.len(), 3, "one MAC answering three IPs: three records");
        j.check_invariants().unwrap();
    }

    #[test]
    fn reverification_updates_timestamps_only() {
        let j = Journal::new();
        let o = Observation::arp_pair(Source::ArpWatch, ip("10.0.0.5"), mac("08:00:20:00:00:05"));
        let s1 = j.apply(&o, JTime(10));
        assert_eq!(s1.created, 1);
        let s2 = j.apply(&o, JTime(99));
        assert_eq!(s2.verified, 1);
        assert_eq!(s2.updated, 0);
        let r = &j.get_interfaces(&InterfaceQuery::all())[0];
        assert_eq!(r.verified, JTime(99));
        assert_eq!(r.changed, JTime(10));
    }

    #[test]
    fn dns_verification_does_not_count_as_live() {
        let j = Journal::new();
        j.apply(
            &Observation::named_ip(Source::Dns, ip("10.0.0.7"), "ghost.cs"),
            JTime(5),
        );
        let r = &j.get_interfaces(&InterfaceQuery::all())[0];
        assert_eq!(r.live_verified, None);
        j.apply(
            &Observation::ip_alive(Source::SeqPing, ip("10.0.0.7")),
            JTime(9),
        );
        let r = &j.get_interfaces(&InterfaceQuery::all())[0];
        assert_eq!(r.live_verified, Some(JTime(9)));
        assert_eq!(r.dns_name(), Some("ghost.cs"));
    }

    #[test]
    fn mask_observation_attaches_to_ip() {
        let j = Journal::new();
        j.apply(
            &Observation::ip_alive(Source::SeqPing, ip("10.0.1.4")),
            JTime(0),
        );
        j.apply(
            &Observation::mask(
                Source::SubnetMasks,
                ip("10.0.1.4"),
                fremont_net::SubnetMask::from_prefix_len(24).unwrap(),
            ),
            JTime(1),
        );
        let r = &j.get_interfaces(&InterfaceQuery::by_ip(ip("10.0.1.4")))[0];
        assert_eq!(r.subnet(), Some(subnet("10.0.1.0/24")));
    }

    #[test]
    fn subnet_upsert_and_mask_confirmation() {
        let j = Journal::new();
        let s = subnet("128.138.238.0/24");
        let s1 = j.apply(&Observation::subnet(Source::RipWatch, s, true), JTime(1));
        assert_eq!(s1.created, 1);
        assert!(j.subnet(&s).unwrap().mask_assumed);
        let s2 = j.apply(
            &Observation::subnet(Source::SubnetMasks, s, false),
            JTime(2),
        );
        assert_eq!(s2.updated, 1);
        assert!(!j.subnet(&s).unwrap().mask_assumed);
        // A later assumed observation does not downgrade.
        j.apply(&Observation::subnet(Source::RipWatch, s, true), JTime(3));
        assert!(!j.subnet(&s).unwrap().mask_assumed);
    }

    #[test]
    fn gateway_merge_across_modules() {
        let j = Journal::new();
        // Traceroute sees interfaces .1 on two subnets as one gateway.
        j.apply(
            &Observation::new(
                Source::Traceroute,
                Fact::Gateway {
                    interface_ips: vec![ip("128.138.238.1")],
                    interface_names: vec![],
                    subnets: vec![subnet("128.138.238.0/24"), subnet("128.138.240.0/24")],
                },
            ),
            JTime(10),
        );
        // DNS later learns the same box via another interface plus a shared ip.
        j.apply(
            &Observation::new(
                Source::Dns,
                Fact::Gateway {
                    interface_ips: vec![ip("128.138.238.1"), ip("128.138.240.1")],
                    interface_names: vec![],
                    subnets: vec![],
                },
            ),
            JTime(20),
        );
        let gws = j.get_gateways();
        assert_eq!(gws.len(), 1, "both observations describe one gateway");
        let g = &gws[0];
        assert!(g.subnets.contains(&subnet("128.138.238.0/24")));
        assert!(g.subnets.contains(&subnet("128.138.240.0/24")));
        assert_eq!(g.interfaces.len(), 2);
        assert!(g.sources.contains(Source::Traceroute));
        assert!(g.sources.contains(Source::Dns));
        // Subnet records point back at the gateway.
        assert_eq!(
            j.subnet(&subnet("128.138.238.0/24")).unwrap().gateways,
            vec![g.id]
        );
        j.check_invariants().unwrap();
    }

    #[test]
    fn distinct_gateways_merge_when_bridged() {
        let j = Journal::new();
        // Two modules each discover a different interface of the same box.
        j.apply(
            &Observation::new(
                Source::Traceroute,
                Fact::Gateway {
                    interface_ips: vec![ip("10.1.0.1")],
                    interface_names: vec![],
                    subnets: vec![subnet("10.1.0.0/24")],
                },
            ),
            JTime(1),
        );
        j.apply(
            &Observation::new(
                Source::Dns,
                Fact::Gateway {
                    interface_ips: vec![ip("10.2.0.1")],
                    interface_names: vec![],
                    subnets: vec![subnet("10.2.0.0/24")],
                },
            ),
            JTime(2),
        );
        assert_eq!(j.get_gateways().len(), 2);
        // A third observation bridges them.
        j.apply(
            &Observation::new(
                Source::Dns,
                Fact::Gateway {
                    interface_ips: vec![ip("10.1.0.1"), ip("10.2.0.1")],
                    interface_names: vec![],
                    subnets: vec![],
                },
            ),
            JTime(3),
        );
        let gws = j.get_gateways();
        assert_eq!(gws.len(), 1, "bridging observation merges gateways");
        assert_eq!(gws[0].interfaces.len(), 2);
        assert_eq!(gws[0].subnets.len(), 2);
        j.check_invariants().unwrap();
    }

    #[test]
    fn rip_source_flags() {
        let j = Journal::new();
        j.apply(
            &Observation::new(
                Source::RipWatch,
                Fact::RipSource {
                    ip: ip("10.0.0.1"),
                    mac: Some(mac("00:00:0c:01:02:03")),
                    advertised_routes: 40,
                    promiscuous: false,
                },
            ),
            JTime(1),
        );
        let r = &j.get_interfaces(&InterfaceQuery::by_ip(ip("10.0.0.1")))[0];
        assert!(r.rip_source);
        assert!(!r.rip_promiscuous);
        let q = InterfaceQuery {
            rip_source: Some(true),
            ..Default::default()
        };
        assert_eq!(j.get_interfaces(&q).len(), 1);
    }

    #[test]
    fn subnet_stats_recorded() {
        let j = Journal::new();
        j.apply(
            &Observation::new(
                Source::Dns,
                Fact::SubnetStats {
                    subnet: subnet("128.138.243.0/24"),
                    host_count: 56,
                    lowest: ip("128.138.243.1"),
                    highest: ip("128.138.243.91"),
                },
            ),
            JTime(1),
        );
        let r = j.subnet(&subnet("128.138.243.0/24")).unwrap();
        assert_eq!(r.host_count.as_ref().map(|t| *t.get()), Some(56));
        assert_eq!(r.lowest, Some(ip("128.138.243.1")));
        assert_eq!(r.highest, Some(ip("128.138.243.91")));
    }

    #[test]
    fn delete_interface_cleans_indexes() {
        let j = Journal::new();
        j.apply(
            &Observation::arp_pair(Source::ArpWatch, ip("10.0.0.5"), mac("08:00:20:00:00:05")),
            JTime(1),
        );
        let id = j.get_interfaces(&InterfaceQuery::all())[0].id;
        assert!(j.delete_interface(id));
        assert!(!j.delete_interface(id));
        assert!(j.get_interfaces(&InterfaceQuery::all()).is_empty());
        assert!(j
            .get_interfaces(&InterfaceQuery::by_ip(ip("10.0.0.5")))
            .is_empty());
        j.check_invariants().unwrap();
    }

    #[test]
    fn modification_order_tracks_changes() {
        let j = Journal::new();
        j.apply(
            &Observation::ip_alive(Source::SeqPing, ip("10.0.0.1")),
            JTime(1),
        );
        j.apply(
            &Observation::ip_alive(Source::SeqPing, ip("10.0.0.2")),
            JTime(2),
        );
        j.apply(
            &Observation::ip_alive(Source::SeqPing, ip("10.0.0.3")),
            JTime(3),
        );
        // Touch .1 with a change (new mac) so it moves to the end.
        j.apply(
            &Observation::arp_pair(Source::ArpWatch, ip("10.0.0.1"), mac("08:00:20:00:00:01")),
            JTime(4),
        );
        let order: Vec<_> = j
            .interfaces_by_modification()
            .iter()
            .map(|r| r.ip_addr().unwrap())
            .collect();
        assert_eq!(
            order,
            vec![ip("10.0.0.2"), ip("10.0.0.3"), ip("10.0.0.1")],
            "most recently changed records move to the end"
        );
    }

    #[test]
    fn ip_change_on_same_mac_reindexes() {
        let j = Journal::new();
        let m = mac("08:00:20:00:00:07");
        j.apply(
            &Observation::arp_pair(Source::ArpWatch, ip("10.0.0.7"), m),
            JTime(1),
        );
        // The host was renumbered; EtherHostProbe sees the same MAC with a
        // previously-unknown IP. Policy: new record (visible reconfiguration).
        j.apply(
            &Observation::arp_pair(Source::ArpWatch, ip("10.0.0.77"), m),
            JTime(2),
        );
        let recs = j.get_interfaces(&InterfaceQuery::by_mac(m));
        assert_eq!(recs.len(), 2);
        j.check_invariants().unwrap();
    }

    #[test]
    fn stats_counts() {
        let j = Journal::new();
        j.apply(
            &Observation::ip_alive(Source::SeqPing, ip("10.0.0.1")),
            JTime(1),
        );
        j.apply(
            &Observation::subnet(Source::RipWatch, subnet("10.0.0.0/24"), true),
            JTime(1),
        );
        let s = j.stats();
        assert_eq!(s.interfaces, 1);
        assert_eq!(s.subnets, 1);
        assert_eq!(s.gateways, 0);
        assert_eq!(s.observations_applied, 2);
    }

    #[test]
    fn query_uses_subnet_index_path() {
        let j = Journal::new();
        for i in 1..=20u8 {
            j.apply(
                &Observation::ip_alive(Source::SeqPing, Ipv4Addr::new(10, 0, 1, i)),
                JTime(1),
            );
            j.apply(
                &Observation::ip_alive(Source::SeqPing, Ipv4Addr::new(10, 0, 2, i)),
                JTime(1),
            );
        }
        let recs = j.get_interfaces(&InterfaceQuery::in_subnet(subnet("10.0.1.0/24")));
        assert_eq!(recs.len(), 20);
        assert!(recs.iter().all(|r| r.ip_addr().unwrap().octets()[2] == 1));
    }

    #[test]
    fn apply_batch_counts_one_batch() {
        let j = Journal::new();
        let obs = [
            Observation::ip_alive(Source::SeqPing, ip("10.0.0.1")),
            Observation::ip_alive(Source::SeqPing, ip("10.0.0.2")),
            Observation::ip_alive(Source::SeqPing, ip("10.0.0.3")),
        ];
        let sum = j.apply_batch(obs.iter().map(|o| (o, JTime(1))));
        assert_eq!(sum.created, 3);
        let m = j.sharding_metrics();
        assert_eq!(m.batches, 1);
        assert_eq!(m.batch_observations, 3);
        assert_eq!(m.largest_batch, 3);
        assert_eq!(m.shards.len(), 1);
        assert_eq!(m.shards[0].records, 3);
        j.check_invariants().unwrap();
    }
}
