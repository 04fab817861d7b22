//! The Journal: merge, index, and query discovered network facts.
//!
//! This is the in-memory representation the paper's Journal Server keeps:
//! interface records indexed by Ethernet address, IP address, and DNS
//! name, and subnet records indexed by subnet address. The paper's server
//! kept those indexes in AVL trees; here they are std `BTreeMap`s, which
//! give the same ordered lookups and range scans. Its "lists ordered by
//! time of last modification" are sorted on read from each record's
//! `changed` time. "Because it is the shared place where
//! observations are stored ... the Journal is more than just the sum of
//! its parts": the merge rules below are what turn per-module observations
//! into cross-correlated knowledge.
//!
//! # One partition, one lock
//!
//! [`Journal`] is one `Store` — every record, every index, the gateway
//! and subnet slabs and the counters — behind one std
//! reader-writer lock, the paper's single process that "serializes
//! updates, time-stamps and records the data, and answers queries".
//!
//! Every mutation — [`Journal::apply`], [`Journal::apply_batch`],
//! [`Journal::delete_interface`] — is one write transaction: the write
//! guard taken once by `begin_write`, on which the merge rules run in
//! observation order. Every query takes the read guard once and holds
//! it until its answer is built, so queries run concurrently with each
//! other. Only `begin_read`/`begin_write` take the lock, and a function
//! holding a guard calls no `self.` method but those and `counters`, so
//! no query calls another (the lock is not reentrant) and nothing else
//! is acquired under it. `lock_structure` in
//! `crates/lint/tests/workspace_clean.rs` checks both (DESIGN.md § 6,
//! "Four locks, one order").
//!
//! Consistency: a query sees a single state of the whole store, and a
//! write transaction — a batch, a single apply, a delete — is atomic
//! with respect to every query.

mod indexes;
mod stats;

pub use indexes::{SharedKeys, SharedMember};
pub use stats::{JournalStats, ShardMetrics, ShardingMetrics, StoreSummary};

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use fremont_net::{MacAddr, Subnet};

use crate::observation::{Fact, Observation, Source};
use crate::query::{InterfaceQuery, SubnetQuery};
use crate::records::{GatewayId, GatewayRecord, InterfaceId, InterfaceRecord, SubnetRecord};
use crate::time::{JTime, Timestamped};

use stats::StoreCounters;

/// Everything the Journal holds: the records and the indexes over them.
/// A posting list is an ascending set of ids, so every tie-break in the
/// merge rules goes to the lowest id, and a journal restored from a
/// snapshot holds exactly the lists of the one that wrote it.
#[derive(Default)]
struct Store {
    /// Interface records, indexed by raw id; a deleted record leaves a
    /// `None`. Ids are allocated densely from 0, so a record is one
    /// index away, not a hash lookup.
    records: Vec<Option<InterfaceRecord>>,
    /// Number of `Some` slots in `records`.
    live: usize,
    /// Ethernet-address index. A MAC maps to *several* records when one
    /// adapter answers for several IP addresses (gateway or proxy ARP).
    idx_mac: BTreeMap<MacAddr, Vec<InterfaceId>>,
    /// IP-address index. An IP maps to several records when two hosts are
    /// (mis)configured with the same address, or hardware changed.
    idx_ip: BTreeMap<Ipv4Addr, Vec<InterfaceId>>,
    /// DNS-name index. A name maps to several records for multi-homed
    /// gateways.
    idx_name: BTreeMap<String, Vec<InterfaceId>>,
    /// Gateway records, indexed by raw id. Its length is the next
    /// gateway id, which a snapshot carries as it does `next_iface`.
    gateways: Vec<Option<GatewayRecord>>,
    subnets: BTreeMap<Subnet, SubnetRecord>,
    /// Next interface id to allocate. No journal hands out an id twice:
    /// a snapshot carries this counter, so a recovered journal moves on
    /// past a deleted newest record as a live one does.
    next_iface: u64,
    /// Changes [`Journal::shared_keys`] can see: a record created, one
    /// of a record's IP, MAC, name or mask changed, a record deleted.
    /// Nothing else moves it (see [`Journal::shared_keys_since`]).
    keys_version: u64,
    observations_applied: u64,
    /// The lists `apply_gateway` fills and empties on every call, kept
    /// here so a gateway fact allocates nothing once they have grown.
    gw_scratch: GatewayScratch,
}

/// Per-call working lists of one gateway merge (see `Store::gw_scratch`).
#[derive(Default)]
struct GatewayScratch {
    /// The interface records the fact resolves to.
    members: Vec<InterfaceId>,
    /// The gateways those members already belong to.
    gids: Vec<GatewayId>,
    /// Every subnet to attach, with whether its mask is only assumed.
    subnets: Vec<(Subnet, bool)>,
}

/// The records one interface observation applies to. Nearly always
/// zero or one, which take no allocation.
enum Targets {
    One(InterfaceId),
    Many(Vec<InterfaceId>),
}

impl Targets {
    /// No records: create one.
    const NONE: Targets = Targets::Many(Vec::new());

    fn of(ids: &[InterfaceId]) -> Targets {
        match ids {
            [id] => Targets::One(*id),
            _ => Targets::Many(ids.to_vec()),
        }
    }

    fn as_slice(&self) -> &[InterfaceId] {
        match self {
            Targets::One(id) => std::slice::from_ref(id),
            Targets::Many(ids) => ids,
        }
    }
}

/// The Journal store: one `Store` behind one reader-writer lock.
pub struct Journal {
    store: RwLock<Store>,
    counters: StoreCounters,
    /// This journal's number in the process, so that no two journals
    /// ever answer with the same [`KeysVersion`].
    id: u64,
}

/// The next [`Journal::id`] to hand out.
static NEXT_JOURNAL: AtomicU64 = AtomicU64::new(0);

/// Where a journal's shared keys stand: two equal versions read from
/// [`Journal::shared_keys_since`] stand for two equal
/// [`Journal::shared_keys`] answers. A version names its journal, so
/// no two journals share one, a restored copy included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeysVersion {
    journal: u64,
    changes: u64,
}

impl KeysVersion {
    /// How many changes `shared_keys` can see the journal had taken:
    /// records created, records whose IP, MAC, name or mask changed,
    /// records deleted.
    pub fn changes(self) -> u64 {
        self.changes
    }
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
            id: NEXT_JOURNAL.fetch_add(1, Ordering::Relaxed),
        }
    }

    // ------------------------------------------------------------------
    // Lock access (the only places the store lock is taken)
    // ------------------------------------------------------------------

    /// Takes the read guard a query holds until its answer is built.
    fn begin_read(&self) -> RwLockReadGuard<'_, Store> {
        self.counters.read_locks.fetch_add(1, Ordering::Relaxed);
        self.store.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens a write transaction: the write guard, held until drop.
    /// Both guards recover a poisoned lock, as the telemetry `Recorder`
    /// does: no caller could act on the poison.
    fn begin_write(&self) -> RwLockWriteGuard<'_, Store> {
        self.counters.write_locks.fetch_add(1, Ordering::Relaxed);
        self.store.write().unwrap_or_else(PoisonError::into_inner)
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
    /// The live record with this id. Ids taken from index postings
    /// always resolve: postings only reference live records.
    fn rec(&self, id: InterfaceId) -> Option<&InterfaceRecord> {
        self.records.get(id.0 as usize).and_then(Option::as_ref)
    }

    fn rec_mut(&mut self, id: InterfaceId) -> Option<&mut InterfaceRecord> {
        self.records.get_mut(id.0 as usize).and_then(Option::as_mut)
    }

    /// Puts `rec` in the slot of its id, growing the slab to reach it.
    fn insert_record(&mut self, rec: InterfaceRecord) {
        let i = rec.id.0 as usize;
        if self.records.len() <= i {
            self.records.resize_with(i + 1, || None);
        }
        if self.records[i].replace(rec).is_none() {
            self.live += 1;
        }
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
            } => {
                self.upsert_subnet(obs.source, *subnet, *mask_assumed, now)
                    .0
            }
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
        if targets.as_slice().is_empty() {
            if ip.is_none() && mac.is_none() && name.is_none() {
                return sum; // Nothing identifying; drop.
            }
            let id = self.create_interface(now);
            self.update_interface(id, source, ip, mac, name, mask, now);
            sum.created += 1;
            return sum;
        }
        for &id in targets.as_slice() {
            if self.update_interface(id, source, ip, mac, name, mask, now) {
                self.keys_version += 1;
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
    ///
    /// Where several records qualify for one record's place, the lowest
    /// id takes it.
    fn resolve_targets(
        &self,
        ip: Option<Ipv4Addr>,
        mac: Option<MacAddr>,
        name: Option<&str>,
    ) -> Targets {
        if let Some(mac) = mac {
            let with_mac = self.mac_ids(mac);
            if let Some(ip) = ip {
                let ip_of = |id| self.rec(id).map(InterfaceRecord::ip_addr);
                // Exact (mac, ip) record?
                if let Some(&id) = with_mac.iter().find(|&&id| ip_of(id) == Some(Some(ip))) {
                    return Targets::One(id);
                }
                // A record with this MAC and no IP yet?
                if let Some(&id) = with_mac.iter().find(|&&id| ip_of(id) == Some(None)) {
                    return Targets::One(id);
                }
                // A record with this IP and no MAC yet (created by a ping)?
                if let Some(&id) = self
                    .ip_ids(ip)
                    .iter()
                    .find(|&&id| self.rec(id).is_some_and(|r| r.mac_addr().is_none()))
                {
                    return Targets::One(id);
                }
                // Otherwise: new record (same MAC answering another IP, or
                // same IP on different hardware).
                return Targets::NONE;
            }
            return Targets::of(with_mac);
        }
        if let Some(ip) = ip {
            return self
                .presumed_owner(self.ip_ids(ip))
                .map_or(Targets::NONE, Targets::One);
        }
        if let Some(name) = name {
            return Targets::of(self.name_ids(name));
        }
        Targets::NONE
    }

    /// The claimant an address-only observation credits: the last verified
    /// alive. A tie of equal times goes to the lowest id, which is a fact
    /// of the records, so a restored journal credits the claimant the
    /// live one does. `max_by_key` keeps the last of equal keys, so the
    /// ascending list is walked from its end.
    fn presumed_owner(&self, claimants: &[InterfaceId]) -> Option<InterfaceId> {
        claimants.iter().rev().copied().max_by_key(|&id| {
            self.rec(id)
                .map(|r| (r.live_verified, r.verified, r.discovered))
        })
    }

    /// A new, empty record. It counts as one change to the shared keys
    /// whatever fields the caller then gives it in the same write.
    fn create_interface(&mut self, now: JTime) -> InterfaceId {
        let id = InterfaceId(self.next_iface);
        self.next_iface += 1;
        self.keys_version += 1;
        self.insert_record(InterfaceRecord::new(id, now));
        id
    }

    /// Applies fields to one record and maintains the indexes; returns
    /// `true` when anything changed. Inlined, so a caller's `None`s fold away.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
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
        let Some(r) = self.rec_mut(id) else {
            return false;
        };

        // Index maintenance requires knowing old values first. The name
        // is the one that is not `Copy`: it is compared where it lies,
        // and the old one is kept (a refcount bump) only when it is
        // being replaced.
        let (old_ip, old_mac) = (r.ip_addr(), r.mac_addr());
        // `Some(previous name)` when the name index must move.
        let mut renamed: Option<Option<Arc<str>>> = None;

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
                Some(t) if **t.get() == *name => t.verify(now),
                Some(t) => {
                    renamed = Some(Some(t.get().clone()));
                    changed |= t.observe(name.into(), now);
                }
                None => {
                    r.name = Some(Timestamped::new(name.into(), now));
                    renamed = Some(None);
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
        if let (Some(name), Some(old_name)) = (name, renamed) {
            if let Some(old) = old_name {
                indexes::remove(&mut self.idx_name, &*old, id);
            }
            indexes::add(&mut self.idx_name, name.to_owned(), id);
        }
        changed
    }

    // ------------------------------------------------------------------
    // Subnets
    // ------------------------------------------------------------------

    /// Upserts a subnet record in one lookup and hands it back to update in place.
    fn upsert_subnet(
        &mut self,
        source: Source,
        subnet: Subnet,
        mask_assumed: bool,
        now: JTime,
    ) -> (StoreSummary, &mut SubnetRecord) {
        let mut sum = StoreSummary::default();
        let rec = match self.subnets.entry(subnet) {
            Entry::Occupied(e) => {
                let rec = e.into_mut();
                rec.sources.insert(source);
                rec.verified = now;
                if rec.mask_assumed && !mask_assumed {
                    rec.mask_assumed = false;
                    rec.changed = now;
                    sum.updated += 1;
                } else {
                    sum.verified += 1;
                }
                rec
            }
            Entry::Vacant(e) => {
                sum.created += 1;
                let rec = e.insert(SubnetRecord::new(subnet, mask_assumed, now));
                rec.sources.insert(source);
                rec
            }
        };
        (sum, rec)
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
        let (mut sum, rec) = self.upsert_subnet(source, subnet, false, now);
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
        let mut scratch = std::mem::take(&mut self.gw_scratch);
        let sum = self.merge_gateway_fact(
            &mut scratch,
            source,
            interface_ips,
            interface_names,
            subnets,
            now,
        );
        self.gw_scratch = scratch;
        sum
    }

    /// `apply_gateway` on working lists borrowed from `gw_scratch`.
    fn merge_gateway_fact(
        &mut self,
        scratch: &mut GatewayScratch,
        source: Source,
        interface_ips: &[Ipv4Addr],
        interface_names: &[String],
        subnets: &[Subnet],
        now: JTime,
    ) -> StoreSummary {
        let GatewayScratch {
            members,
            gids,
            subnets: all_subnets,
        } = scratch;
        members.clear();
        gids.clear();
        all_subnets.clear();
        let mut sum = StoreSummary::default();

        // One read of an address's claimants finds the presumed owner, which
        // the fact verifies as an address-only observation does, and the
        // member: the lowest-id claimant in a gateway, else the lowest id,
        // so repeated facts converge. Verifying moves no posting and no
        // `gateway` field.
        for &ip in interface_ips {
            let ids = self.ip_ids(ip);
            let member = ids
                .iter()
                .find(|&&id| self.rec(id).is_some_and(|r| r.gateway.is_some()))
                .or(ids.first());
            let member = match self.presumed_owner(ids).zip(member.copied()) {
                Some((owner, member)) => {
                    if self.update_interface(owner, source, Some(ip), None, None, None, now) {
                        self.keys_version += 1;
                        sum.updated += 1;
                    } else {
                        sum.verified += 1;
                    }
                    member
                }
                None => {
                    let id = self.create_interface(now);
                    self.update_interface(id, source, Some(ip), None, None, None, now);
                    sum.created += 1;
                    id
                }
            };
            if !members.contains(&member) {
                members.push(member);
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
                sum.absorb(self.upsert_subnet(source, s, true, now).0);
            }
            return sum;
        }

        // Find the gateways any member already belongs to.
        for &m in members.iter() {
            if let Some(g) = self.rec(m).and_then(|r| r.gateway) {
                if !gids.contains(&g) {
                    gids.push(g);
                }
            }
        }
        // Take the gateway record out of the slab while we mutate it, so
        // the borrow of `self` stays free for subnet upserts below.
        let (gid, mut g) = match gids.split_first() {
            Some((&primary, others)) => {
                // Merge any additional gateways into the primary: two
                // modules discovered the same box from different sides.
                for &other in others {
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
        for &m in members.iter() {
            if let Some(r) = self.rec_mut(m) {
                if r.gateway != Some(gid) {
                    r.gateway = Some(gid);
                    r.changed = now;
                }
            }
            gw_changed |= g.add_interface(m);
        }
        // Subnets derived from member interfaces carry confirmed masks;
        // explicitly-claimed subnets keep their mask *assumed* (modules
        // guess /24 when linking hops) until a mask reply confirms them.
        all_subnets.extend(subnets.iter().map(|s| (*s, true)));
        for &m in members.iter() {
            if let Some(s) = self.rec(m).and_then(InterfaceRecord::subnet) {
                if let Some(e) = all_subnets.iter_mut().find(|(x, _)| *x == s) {
                    e.1 = false;
                } else {
                    all_subnets.push((s, false));
                }
            }
        }
        for &(s, assumed) in all_subnets.iter() {
            let (s_sum, srec) = self.upsert_subnet(source, s, assumed, now);
            if srec.add_gateway(gid) {
                srec.changed = now;
            }
            sum.absorb(s_sum);
            gw_changed |= g.add_subnet(s);
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
            if let Some(r) = self.rec_mut(i) {
                if r.gateway != Some(into) {
                    r.gateway = Some(into);
                    r.changed = now;
                }
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
        // Nothing below moves a posting: lend the index out, copy no list.
        let idx_ip = std::mem::take(&mut self.idx_ip);
        for &id in idx_ip.get(&ip).map_or(&[][..], Vec::as_slice) {
            let matches_mac = match (mac, self.rec(id).and_then(InterfaceRecord::mac_addr)) {
                (Some(m), Some(rm)) => m == rm,
                _ => true,
            };
            if matches_mac {
                if let Some(r) = self.rec_mut(id) {
                    if !r.rip_source || r.rip_promiscuous != promiscuous {
                        r.rip_source = true;
                        r.rip_promiscuous = promiscuous;
                        r.changed = now;
                        sum.updated += 1;
                    }
                }
            }
        }
        self.idx_ip = idx_ip;
        sum
    }

    // ------------------------------------------------------------------
    // Delete
    // ------------------------------------------------------------------

    fn delete_interface(&mut self, id: InterfaceId) -> bool {
        let Some(rec) = self.records.get_mut(id.0 as usize).and_then(Option::take) else {
            return false;
        };
        self.live -= 1;
        self.keys_version += 1;
        if let Some(ip) = rec.ip_addr() {
            indexes::remove(&mut self.idx_ip, &ip, id);
        }
        if let Some(mac) = rec.mac_addr() {
            indexes::remove(&mut self.idx_mac, &mac, id);
        }
        if let Some(name) = rec.dns_name() {
            indexes::remove(&mut self.idx_name, name, id);
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
        self.begin_read().rec(id).cloned()
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

    /// Interfaces in ascending order of last modification (oldest first),
    /// records changed at the same time in id order. The order is read
    /// from each record's `changed` time, so a restored journal lists
    /// its records as the journal that wrote the snapshot does.
    pub fn interfaces_by_modification(&self) -> Vec<InterfaceRecord> {
        let mut v = self.begin_read().records_by_id(|_| true);
        v.sort_by_key(|r| (r.changed, r.id));
        v
    }

    /// All gateway records.
    pub fn get_gateways(&self) -> Vec<GatewayRecord> {
        self.begin_read().gateway_records()
    }

    /// Subnet records matching the query, in address order.
    pub fn get_subnets(&self, q: &SubnetQuery) -> Vec<SubnetRecord> {
        self.begin_read().subnet_records(|r| q.matches(r))
    }

    /// The Ethernet addresses and DNS names carried by two or more
    /// interface records, with those records' ids, addresses and
    /// subnets — what cross-correlation asks of the Journal. The MAC
    /// and name indexes are walked under the one read guard and the
    /// members read from the records in place (no record is cloned), so
    /// both halves of the answer are a single state of the store.
    pub fn shared_keys(&self) -> SharedKeys {
        self.begin_read().shared_keys()
    }

    /// The journal's [`KeysVersion`], and [`Self::shared_keys`]' answer
    /// unless that version is `seen`: an unchanged version stands for
    /// an unchanged answer, which is not built again. The version and
    /// the keys are read under the one read guard `shared_keys` takes.
    pub fn shared_keys_since(
        &self,
        seen: Option<KeysVersion>,
    ) -> (KeysVersion, Option<SharedKeys>) {
        let st = self.begin_read();
        let version = KeysVersion {
            journal: self.id,
            changes: st.keys_version,
        };
        let keys = (seen != Some(version)).then(|| st.shared_keys());
        (version, keys)
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
            interfaces: st.live,
            gateways: st.gateways.iter().flatten().count(),
            subnets: st.subnets.len(),
            observations_applied: st.observations_applied,
        }
    }

    /// Point-in-time lock and batching metrics for observability: the
    /// one partition reports as shard 0.
    pub fn sharding_metrics(&self) -> ShardingMetrics {
        let records = self.begin_read().live;
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
    /// frozen by `tests/golden/wire/`); the server reads it directly
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
            gateways: st.gateway_records(),
            subnets: st.subnet_records(|_| true),
            observations_applied: st.observations_applied,
            next_iface: Some(st.next_iface),
            next_gateway: Some(st.gateways.len() as u64),
        }
    }

    /// A stable fingerprint of the journal's canonical snapshot — see
    /// [`crate::snapshot::JournalSnapshot::fingerprint`]. Independent of
    /// observation arrival batching; two journals that hold the same
    /// facts fingerprint identically.
    pub fn fingerprint(&self) -> u64 {
        self.to_snapshot().fingerprint()
    }

    /// Rebuilds a journal (including every index) from a snapshot: the
    /// one restore path.
    pub fn from_snapshot(snap: &crate::snapshot::JournalSnapshot) -> Journal {
        // Records keep their identifiers, and both id counters resume
        // where the journal that wrote the snapshot stood, so no id is
        // handed out twice. A snapshot written before it carried a
        // counter resumes past the highest live id.
        let past_iface = snap.interfaces.iter().map(|r| r.id.0 + 1).max();
        let past_gateway = snap.gateways.iter().map(|g| g.id.0 + 1).max();
        let next_gateway = snap.next_gateway.max(past_gateway).unwrap_or(0);
        let mut st = Store {
            observations_applied: snap.observations_applied,
            next_iface: snap.next_iface.max(past_iface).unwrap_or(0),
            gateways: (0..next_gateway).map(|_| None).collect(),
            ..Store::default()
        };

        for rec in &snap.interfaces {
            let id = rec.id;
            st.insert_record(rec.clone());
            if let Some(ip) = rec.ip_addr() {
                indexes::add(&mut st.idx_ip, ip, id);
            }
            if let Some(mac) = rec.mac_addr() {
                indexes::add(&mut st.idx_mac, mac, id);
            }
            if let Some(name) = rec.dns_name() {
                indexes::add(&mut st.idx_name, name.to_owned(), id);
            }
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

// Every listing below is built the same way: a result sized up front
// for everything that might match, then one plain loop that pushes each
// kept clone. A filtered `collect` grows its result by doubling, and a
// filtered `extend` over the slab read ≈ 5 µs slower than this loop on
// a 545-record journal (`reads/interfaces_all_campus_2h`, 23 → 18 µs).
impl Store {
    /// Clones of the records `keep` accepts, in id order: a walk of the
    /// slab into a result sized for every live record.
    fn records_by_id(&self, keep: impl Fn(&InterfaceRecord) -> bool) -> Vec<InterfaceRecord> {
        let mut v = Vec::with_capacity(self.live);
        for r in self.records.iter().flatten() {
            if keep(r) {
                v.push(r.clone());
            }
        }
        v
    }

    /// Clones the live records `ids` point at that match `q`, in order.
    fn matching<'a>(
        &self,
        ids: impl Iterator<Item = &'a InterfaceId>,
        q: &InterfaceQuery,
    ) -> Vec<InterfaceRecord> {
        let mut v = Vec::with_capacity(ids.size_hint().0);
        for &id in ids {
            if let Some(r) = self.rec(id).filter(|r| q.matches(r)) {
                v.push(r.clone());
            }
        }
        v
    }

    /// Clones of every live gateway record, ascending by id.
    fn gateway_records(&self) -> Vec<GatewayRecord> {
        let mut v = Vec::with_capacity(self.gateways.len());
        for g in self.gateways.iter().flatten() {
            v.push(g.clone());
        }
        v
    }

    /// Clones of the subnet records `keep` accepts, in address order.
    fn subnet_records(&self, keep: impl Fn(&SubnetRecord) -> bool) -> Vec<SubnetRecord> {
        let mut v = Vec::with_capacity(self.subnets.len());
        for s in self.subnets.values() {
            if keep(s) {
                v.push(s.clone());
            }
        }
        v
    }

    /// Matching records with an address in `lo..=hi`, by (address, id)
    /// order. An inverted range (`lo > hi`, which a client can send) is
    /// empty; `BTreeMap::range` would panic on it.
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

    fn shared_keys(&self) -> SharedKeys {
        SharedKeys {
            by_mac: indexes::shared(&self.idx_mac, &self.records),
            by_name: indexes::shared(&self.idx_name, &self.records),
        }
    }

    fn check_invariants(&self) -> Result<(), String> {
        // The slab: a live record sits at its own id.
        let mut live = 0;
        for (i, r) in self.records.iter().enumerate() {
            if let Some(r) = r {
                live += 1;
                if r.id.0 != i as u64 {
                    return Err(format!("record {:?} sits in slot {i}", r.id));
                }
            }
        }
        if live != self.live {
            return Err(format!(
                "{live} live slots but a live count of {}",
                self.live
            ));
        }
        self.check_postings("idx_ip", &self.idx_ip, |r, ip| r.ip_addr() == Some(*ip))?;
        self.check_postings("idx_mac", &self.idx_mac, |r, mac| {
            r.mac_addr() == Some(*mac)
        })?;
        self.check_postings("idx_name", &self.idx_name, |r, name| {
            r.dns_name() == Some(name.as_str())
        })?;
        for rec in self.records.iter().flatten() {
            if let Some(ip) = rec.ip_addr() {
                if self.ip_ids(ip).binary_search(&rec.id).is_err() {
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

    /// Every posting list of `idx` is strictly ascending, and each of its
    /// ids is a live record that `carries` the list's key.
    fn check_postings<K: std::fmt::Display>(
        &self,
        index: &str,
        idx: &BTreeMap<K, Vec<InterfaceId>>,
        carries: impl Fn(&InterfaceRecord, &K) -> bool,
    ) -> Result<(), String> {
        for (key, ids) in idx {
            if ids.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("{index} postings for {key} not ascending: {ids:?}"));
            }
            for &id in ids {
                let Some(r) = self.rec(id) else {
                    return Err(format!("{index} points at dead record {id:?}"));
                };
                if !carries(r, key) {
                    return Err(format!("{index} stale for {key}"));
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

    fn gateway(source: Source, ips: &[&str], subnets: &[&str]) -> Observation {
        Observation::new(
            source,
            Fact::Gateway {
                interface_ips: ips.iter().map(|s| ip(s)).collect(),
                interface_names: vec![],
                subnets: subnets.iter().map(|s| subnet(s)).collect(),
            },
        )
    }

    fn summary(created: usize, updated: usize, verified: usize) -> StoreSummary {
        StoreSummary {
            created,
            updated,
            verified,
        }
    }

    /// The one read of an address's claimants yields two different
    /// records here: the owner the fact verifies (the newest claimant,
    /// verified alive last) and the member it attaches (the claimant
    /// already in the gateway).
    #[test]
    fn a_gateway_fact_verifies_the_owner_and_attaches_the_member() {
        let j = Journal::new();
        let a = ip("10.0.0.1");
        j.apply(
            &Observation::arp_pair(Source::ArpWatch, a, mac("00:00:0c:00:00:01")),
            JTime(1),
        );
        j.apply(&gateway(Source::Traceroute, &["10.0.0.1"], &[]), JTime(2));
        j.apply(
            &Observation::arp_pair(Source::ArpWatch, a, mac("08:00:20:00:00:02")),
            JTime(3),
        );
        let by_mac = |m| j.get_interfaces(&InterfaceQuery::by_mac(mac(m)))[0].clone();
        let (member, owner) = (by_mac("00:00:0c:00:00:01"), by_mac("08:00:20:00:00:02"));
        let gid = member.gateway.unwrap();
        assert_eq!(owner.gateway, None);

        let sum = j.apply(&gateway(Source::Traceroute, &["10.0.0.1"], &[]), JTime(4));
        assert_eq!(sum, summary(0, 0, 2), "the owner and the gateway, verified");
        let (member, owner) = (by_mac("00:00:0c:00:00:01"), by_mac("08:00:20:00:00:02"));
        assert_eq!(owner.verified, JTime(4));
        assert_eq!(owner.live_verified, Some(JTime(4)));
        assert!(owner.sources.contains(Source::Traceroute));
        assert_eq!(owner.gateway, None, "the owner is not attached");
        assert_eq!(member.verified, JTime(2), "the member is not verified");
        assert_eq!(member.gateway, Some(gid));
        let gws = j.get_gateways();
        assert_eq!(gws.len(), 1);
        assert_eq!(gws[0].interfaces, vec![member.id]);
        assert_eq!(gws[0].verified, JTime(4));
        j.check_invariants().unwrap();
    }

    #[test]
    fn a_gateway_fact_on_an_unseen_address_creates_one_record_and_attaches_it() {
        let j = Journal::new();
        let sum = j.apply(
            &gateway(Source::Dns, &["10.0.3.1"], &["10.0.3.0/24"]),
            JTime(7),
        );
        assert_eq!(
            sum,
            summary(3, 1, 0),
            "record, gateway, subnet; gateway filled"
        );
        let recs = j.get_interfaces(&InterfaceQuery::all());
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.ip_addr(), Some(ip("10.0.3.1")));
        assert_eq!(r.discovered, JTime(7));
        assert_eq!(r.live_verified, None, "a DNS fact is not on-wire evidence");
        let gws = j.get_gateways();
        assert_eq!(gws.len(), 1);
        assert_eq!(r.gateway, Some(gws[0].id));
        assert_eq!(gws[0].interfaces, vec![r.id]);
        let s = j.subnet(&subnet("10.0.3.0/24")).unwrap();
        assert_eq!(s.gateways, vec![gws[0].id]);
        assert!(s.mask_assumed);
        // Again: one record still, and nothing moves but the times.
        let sum = j.apply(
            &gateway(Source::Dns, &["10.0.3.1"], &["10.0.3.0/24"]),
            JTime(8),
        );
        assert_eq!(sum, summary(0, 0, 3));
        assert_eq!(j.stats().interfaces, 1);
        j.check_invariants().unwrap();
    }

    #[test]
    fn subnet_stats_on_an_unseen_subnet_create_it_once() {
        let j = Journal::new();
        let s = subnet("10.0.9.0/24");
        let stats = |n| {
            Observation::new(
                Source::Dns,
                Fact::SubnetStats {
                    subnet: s,
                    host_count: n,
                    lowest: ip("10.0.9.2"),
                    highest: ip("10.0.9.40"),
                },
            )
        };
        assert_eq!(j.apply(&stats(12), JTime(1)), summary(1, 1, 0));
        assert_eq!(j.stats().subnets, 1);
        let r = j.subnet(&s).unwrap();
        assert!(!r.mask_assumed);
        assert!(r.sources.contains(Source::Dns));
        assert_eq!(r.host_count.as_ref().map(|t| *t.get()), Some(12));
        assert_eq!(
            (r.discovered, r.changed, r.verified),
            (JTime(1), JTime(1), JTime(1))
        );
        assert_eq!(r.lowest, Some(ip("10.0.9.2")));
        assert_eq!(r.highest, Some(ip("10.0.9.40")));
        // The same counts verify; a new count updates the one record.
        assert_eq!(j.apply(&stats(12), JTime(2)), summary(0, 0, 1));
        assert_eq!(j.apply(&stats(13), JTime(3)), summary(0, 1, 1));
        assert_eq!(j.stats().subnets, 1);
        let r = j.subnet(&s).unwrap();
        assert_eq!(r.host_count.as_ref().map(|t| *t.get()), Some(13));
        assert_eq!((r.changed, r.verified), (JTime(3), JTime(3)));
    }

    #[test]
    fn a_rip_source_flags_only_the_claimant_with_its_mac() {
        let j = Journal::new();
        let a = ip("10.0.0.1");
        let (m1, m2) = (mac("00:00:0c:00:00:01"), mac("08:00:20:00:00:02"));
        j.apply(&Observation::arp_pair(Source::ArpWatch, a, m1), JTime(1));
        j.apply(&Observation::arp_pair(Source::ArpWatch, a, m2), JTime(2));
        let rip = Observation::new(
            Source::RipWatch,
            Fact::RipSource {
                ip: a,
                mac: Some(m1),
                advertised_routes: 3,
                promiscuous: true,
            },
        );
        assert_eq!(j.apply(&rip, JTime(3)), summary(0, 1, 1));
        let by_mac = |m| j.get_interfaces(&InterfaceQuery::by_mac(m))[0].clone();
        let (flagged, other) = (by_mac(m1), by_mac(m2));
        assert!(flagged.rip_source && flagged.rip_promiscuous);
        assert_eq!(flagged.changed, JTime(3));
        assert!(!other.rip_source && !other.rip_promiscuous);
        assert_eq!(other.changed, JTime(2));
        assert_eq!(j.get_interfaces(&InterfaceQuery::by_ip(a)).len(), 2);
        j.check_invariants().unwrap();
    }

    /// Two claimants of one address with equal times: an address-only
    /// observation credits the lower id, in the live journal and in one
    /// restored from its snapshot. The lower id took the address last,
    /// so arrival order would credit the other.
    #[test]
    fn an_address_tie_credits_the_lowest_id() {
        let j = Journal::new();
        let a = ip("10.0.0.1");
        let (m0, m1) = (mac("08:00:20:00:00:00"), mac("08:00:20:00:00:01"));
        let mac_only = Fact::Interface {
            ip: None,
            mac: Some(m0),
            name: None,
            mask: None,
        };
        for o in [
            Observation::new(Source::ArpWatch, mac_only),
            Observation::arp_pair(Source::ArpWatch, a, m1),
            Observation::arp_pair(Source::ArpWatch, a, m0),
        ] {
            j.apply(&o, JTime(1));
        }
        let restored = Journal::from_snapshot(&j.to_snapshot());
        for j in [&j, &restored] {
            j.apply(&Observation::ip_alive(Source::SeqPing, a), JTime(2));
            let verified: Vec<_> = j
                .get_interfaces(&InterfaceQuery::by_ip(a))
                .iter()
                .map(|r| (r.id, r.verified))
                .collect();
            let want = [(InterfaceId(0), JTime(2)), (InterfaceId(1), JTime(1))];
            assert_eq!(verified, want);
        }
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

    /// No journal reissues an id: the snapshot carries the id counter,
    /// so a journal rebuilt from one moves on past a deleted newest
    /// record as the live one does. A durable delete compacts, so
    /// recovery after it starts from such a snapshot. A snapshot
    /// without the counter (written before it existed) resumes past the
    /// highest live id.
    #[test]
    fn recovery_after_deleting_the_newest_record_moves_on() {
        let j = Journal::new();
        for h in 1..=3u8 {
            j.apply(
                &Observation::ip_alive(Source::SeqPing, Ipv4Addr::new(10, 0, 0, h)),
                JTime(1),
            );
        }
        assert!(j.delete_interface(InterfaceId(2)));
        let next = Observation::ip_alive(Source::SeqPing, ip("10.0.0.9"));
        let snap = j.to_snapshot();
        assert_eq!(snap.next_iface, Some(3));

        let recovered = Journal::from_snapshot(&snap);
        j.apply(&next, JTime(2));
        let fresh = j.get_interfaces(&InterfaceQuery::by_ip(ip("10.0.0.9")));
        assert_eq!(fresh[0].id, InterfaceId(3), "a live journal moves on");

        recovered.apply(&next, JTime(2));
        let moved_on = recovered.get_interfaces(&InterfaceQuery::by_ip(ip("10.0.0.9")));
        assert_eq!(moved_on[0].id, InterfaceId(3), "recovery moves on too");
        recovered.check_invariants().unwrap();
        assert_eq!(recovered.fingerprint(), j.fingerprint());

        let old = Journal::from_snapshot(&crate::snapshot::JournalSnapshot {
            next_iface: None,
            ..snap
        });
        old.apply(&next, JTime(2));
        let resumed = old.get_interfaces(&InterfaceQuery::by_ip(ip("10.0.0.9")));
        assert_eq!(resumed[0].id, InterfaceId(2), "past the highest live id");
        old.check_invariants().unwrap();
    }

    /// A journal with one multi-homed gateway the DNS names on two
    /// subnets, as `correlate` finds it: one shared name.
    fn named_gateway_journal() -> Journal {
        let j = Journal::new();
        let mask = fremont_net::SubnetMask::from_prefix_len(24).unwrap();
        for a in ["10.0.1.1", "10.0.2.1"] {
            j.apply(&Observation::named_ip(Source::Dns, ip(a), "gw"), JTime(1));
            j.apply(
                &Observation::mask(Source::SubnetMasks, ip(a), mask),
                JTime(2),
            );
        }
        j
    }

    /// The fact the Manager derives from that journal and stores back
    /// after every pump that drained something. Storing it, and storing
    /// it again, moves no shared key: only `verified` times, the
    /// gateway record and its links. So the version stands, which is
    /// what lets the driver re-store its last correlation.
    #[test]
    fn re_storing_a_manager_gateway_fact_leaves_the_keys_version() {
        let j = named_gateway_journal();
        let gw = Observation::new(
            Source::Manager,
            Fact::Gateway {
                interface_ips: vec![ip("10.0.1.1"), ip("10.0.2.1")],
                interface_names: vec!["gw".to_owned()],
                subnets: vec![subnet("10.0.1.0/24"), subnet("10.0.2.0/24")],
            },
        );
        let (before, _) = j.shared_keys_since(None);
        j.apply(&gw, JTime(3));
        let (linked, _) = j.shared_keys_since(None);
        assert_eq!(linked, before, "a gateway link is not a shared key");
        let again = j.apply(&gw, JTime(4));
        assert_eq!((again.created, again.updated), (0, 0), "{again:?}");
        assert!(again.verified > 0, "{again:?}");
        let (after, keys) = j.shared_keys_since(Some(before));
        assert_eq!((after, keys), (before, None));
        assert_eq!(j.get_gateways().len(), 1);
    }

    /// A delete takes a member out of a shared key, and moves the
    /// version.
    #[test]
    fn a_delete_moves_the_keys_version() {
        let j = named_gateway_journal();
        let (before, _) = j.shared_keys_since(None);
        assert!(j.delete_interface(InterfaceId(0)));
        let (after, keys) = j.shared_keys_since(Some(before));
        assert_ne!(after, before);
        assert_eq!(after.changes(), before.changes() + 1);
        assert_eq!(
            keys,
            Some(SharedKeys::default()),
            "the name is no longer shared"
        );
        assert!(!j.delete_interface(InterfaceId(0)));
        assert_eq!(j.shared_keys_since(Some(after)), (after, None));
    }

    /// A journal restored from a snapshot is another journal: a version
    /// read from the original never stands for it, whatever its count.
    #[test]
    fn a_restored_journal_answers_with_fresh_keys() {
        let j = named_gateway_journal();
        let (seen, keys) = j.shared_keys_since(None);
        let keys = keys.unwrap();
        assert_eq!(keys.by_name.len(), 1);
        assert_eq!(j.shared_keys_since(Some(seen)), (seen, None));

        let restored = Journal::from_snapshot(&j.to_snapshot());
        let (version, fresh) = restored.shared_keys_since(Some(seen));
        assert_ne!(version, seen);
        assert_eq!(fresh, Some(keys));
        let empty = Journal::new();
        let (empty_version, _) = empty.shared_keys_since(None);
        assert_eq!(version.changes(), empty_version.changes());
        assert_ne!(version, empty_version, "equal counts, two journals");
    }

    /// Two reads hand out copies of a named record that share the one
    /// stored name, and a copy taken before a rename keeps the old name.
    #[test]
    fn copies_share_the_stored_name_until_a_rename() {
        let named = |name: &str| {
            Observation::new(
                Source::Dns,
                Fact::Interface {
                    ip: Some(ip("10.0.0.1")),
                    mac: None,
                    name: Some(name.to_owned()),
                    mask: None,
                },
            )
        };
        let j = Journal::new();
        j.apply(&named("bruno.cs"), JTime(1));
        let stored_name = |r: &InterfaceRecord| r.name.as_ref().unwrap().get().clone();
        let first = j.get_interfaces(&InterfaceQuery::all()).remove(0);
        let by_ip = j
            .get_interfaces(&InterfaceQuery::by_ip(ip("10.0.0.1")))
            .remove(0);
        let snapped = j.to_snapshot().interfaces.remove(0);
        let by_id = j.interface(first.id).unwrap();
        for copy in [&by_ip, &snapped, &by_id] {
            assert!(Arc::ptr_eq(&stored_name(&first), &stored_name(copy)));
        }
        // Re-verifying the same name keeps the allocation.
        j.apply(&named("bruno.cs"), JTime(2));
        let reverified = j.interface(first.id).unwrap();
        assert!(Arc::ptr_eq(&stored_name(&first), &stored_name(&reverified)));

        j.apply(&named("pluto.cs"), JTime(3));
        let renamed = j.interface(first.id).unwrap();
        assert_eq!(first.dns_name(), Some("bruno.cs"));
        assert_eq!(renamed.dns_name(), Some("pluto.cs"));
        assert!(!Arc::ptr_eq(&stored_name(&first), &stored_name(&renamed)));
        j.check_invariants().unwrap();
    }

    #[test]
    fn check_invariants_catches_a_broken_slab() {
        let breaks: [fn(&mut Store); 4] = [
            |st| st.live += 1,
            |st| st.records.swap(0, 1),
            |st| {
                st.records[2] = None;
                st.live -= 1;
            },
            |st| st.idx_mac.values_mut().for_each(|ids| ids.reverse()),
        ];
        // One adapter answering three addresses: three records, and a
        // posting list of three under its MAC.
        let proxy = mac("00:00:0c:00:00:01");
        for (k, break_it) in breaks.iter().enumerate() {
            let j = Journal::new();
            for h in 1..=3u8 {
                let a = Ipv4Addr::new(10, 0, 0, h);
                j.apply(&Observation::arp_pair(Source::ArpWatch, a, proxy), JTime(1));
            }
            j.check_invariants().unwrap();
            break_it(&mut j.begin_write());
            assert!(j.check_invariants().is_err(), "break {k} went unnoticed");
        }
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

    /// Two records changed at the same time list in id order, whichever
    /// changed last, so the journal that wrote a snapshot and the one
    /// restored from it answer alike.
    #[test]
    fn a_restored_journal_lists_by_modification_as_the_live_one_does() {
        let j = Journal::new();
        for a in ["10.0.0.1", "10.0.0.2"] {
            j.apply(&Observation::ip_alive(Source::SeqPing, ip(a)), JTime(1));
        }
        for (a, m) in [
            ("10.0.0.2", "08:00:20:00:00:02"),
            ("10.0.0.1", "08:00:20:00:00:01"),
        ] {
            j.apply(
                &Observation::arp_pair(Source::ArpWatch, ip(a), mac(m)),
                JTime(5),
            );
        }
        let ids = |j: &Journal| -> Vec<InterfaceId> {
            j.interfaces_by_modification()
                .iter()
                .map(|r| r.id)
                .collect()
        };
        let restored = Journal::from_snapshot(&j.to_snapshot());
        assert_eq!(ids(&j), ids(&restored));
        assert_eq!(ids(&j), vec![InterfaceId(0), InterfaceId(1)]);
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
