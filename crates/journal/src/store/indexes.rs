//! Secondary-index posting lists: the record ids one key resolves to,
//! in insertion order (the merge rules' tie-breaks depend on it).

use crate::avl::AvlMap;
use crate::records::InterfaceId;

/// Adds `id` under `key`, at the end of its posting list.
///
/// Re-adding an id that is already present keeps its original position.
pub(super) fn add<K: Ord>(idx: &mut AvlMap<K, Vec<InterfaceId>>, key: K, id: InterfaceId) {
    match idx.get_mut(&key) {
        Some(v) => {
            if !v.contains(&id) {
                v.push(id);
            }
        }
        None => {
            idx.insert(key, vec![id]);
        }
    }
}

/// Removes `id` from the posting list under `key`, dropping the key when the
/// list empties.
pub(super) fn remove<K: Ord>(idx: &mut AvlMap<K, Vec<InterfaceId>>, key: &K, id: InterfaceId) {
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
