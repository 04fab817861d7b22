//! Secondary-index posting lists: the record ids one key resolves to,
//! in insertion order (the merge rules' tie-breaks depend on it).
//!
//! Insertion order is *not* record-id order. A record created by a ping
//! has an id but no MAC; when an ARP reply later gives it one, its id is
//! appended to that MAC's list behind every record that already holds the
//! MAC, including ones with higher ids (names and moved keys behave the
//! same way). Identity resolution wants the insertion order; anything
//! that reports a key's members to a caller who compares answers across
//! runs — [`shared`] — sorts them by id first.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use fremont_net::{MacAddr, Subnet};

use crate::records::{InterfaceId, InterfaceRecord};

/// Adds `id` under `key`, at the end of its posting list.
///
/// Re-adding an id that is already present keeps its original position.
pub(super) fn add<K: Ord>(idx: &mut BTreeMap<K, Vec<InterfaceId>>, key: K, id: InterfaceId) {
    let v = idx.entry(key).or_default();
    if !v.contains(&id) {
        v.push(id);
    }
}

/// Removes `id` from the posting list under `key`, dropping the key when the
/// list empties.
pub(super) fn remove<K, Q>(idx: &mut BTreeMap<K, Vec<InterfaceId>>, key: &Q, id: InterfaceId)
where
    K: Ord + Borrow<Q>,
    Q: Ord + ?Sized,
{
    let emptied = match idx.get_mut(key) {
        Some(v) => {
            v.retain(|e| *e != id);
            v.is_empty()
        }
        None => false,
    };
    if emptied {
        idx.remove(key);
    }
}

/// One interface record as [`SharedKeys`] reports it: what
/// cross-correlation reads of a record, copied out of it in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedMember {
    /// The record.
    pub id: InterfaceId,
    /// Its current IP address, if any.
    pub ip: Option<Ipv4Addr>,
    /// The subnet it sits on, when both IP and mask are known.
    pub subnet: Option<Subnet>,
}

/// The Ethernet addresses and DNS names that two or more interface
/// records carry — the answer of [`Journal::shared_keys`].
///
/// Keys are in ascending order (the indexes' iteration order); each
/// key's members are in ascending record-id order.
///
/// [`Journal::shared_keys`]: super::Journal::shared_keys
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SharedKeys {
    /// Shared Ethernet addresses.
    pub by_mac: Vec<(MacAddr, Vec<SharedMember>)>,
    /// Shared DNS names.
    pub by_name: Vec<(String, Vec<SharedMember>)>,
}

/// The keys of `idx` with two or more postings, in key order, each with
/// its members read from the `records` slab and sorted by id.
pub(super) fn shared<K: Ord + Clone>(
    idx: &BTreeMap<K, Vec<InterfaceId>>,
    records: &[Option<InterfaceRecord>],
) -> Vec<(K, Vec<SharedMember>)> {
    idx.iter()
        .filter(|(_, ids)| ids.len() >= 2)
        .map(|(key, ids)| {
            let mut members: Vec<SharedMember> = ids
                .iter()
                // Postings only reference live records.
                .filter_map(|id| records.get(id.0 as usize)?.as_ref())
                .map(|r| SharedMember {
                    id: r.id,
                    ip: r.ip_addr(),
                    subnet: r.subnet(),
                })
                .collect();
            members.sort_unstable_by_key(|m| m.id);
            (key.clone(), members)
        })
        .collect()
}
