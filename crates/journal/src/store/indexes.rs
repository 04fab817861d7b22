//! Secondary-index posting lists: the record ids one key resolves to,
//! as an ascending set. Id order is the one order the store keeps, so
//! every tie-break in the merge rules goes to the lowest id and a
//! journal rebuilt from a snapshot holds the very lists the live one did.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use fremont_net::{MacAddr, Subnet};

use crate::records::{InterfaceId, InterfaceRecord};

/// Adds `id` to the posting list under `key`, in id order. Adding an
/// id that is already present changes nothing.
pub(super) fn add<K: Ord>(idx: &mut BTreeMap<K, Vec<InterfaceId>>, key: K, id: InterfaceId) {
    let v = idx.entry(key).or_default();
    if let Err(at) = v.binary_search(&id) {
        v.insert(at, id);
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
            if let Ok(at) = v.binary_search(&id) {
                v.remove(at);
            }
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
/// its members read from the `records` slab in id order.
pub(super) fn shared<K: Ord + Clone>(
    idx: &BTreeMap<K, Vec<InterfaceId>>,
    records: &[Option<InterfaceRecord>],
) -> Vec<(K, Vec<SharedMember>)> {
    idx.iter()
        .filter(|(_, ids)| ids.len() >= 2)
        .map(|(key, ids)| {
            let members = ids
                .iter()
                // Postings only reference live records.
                .filter_map(|id| records.get(id.0 as usize)?.as_ref())
                .map(|r| SharedMember {
                    id: r.id,
                    ip: r.ip_addr(),
                    subnet: r.subnet(),
                })
                .collect();
            (key.clone(), members)
        })
        .collect()
}
