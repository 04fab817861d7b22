//! A from-scratch AVL tree map.
//!
//! The paper's Journal Server indexes its interface records "by three AVL
//! trees, for lookups by Ethernet address, IP address, and DNS name", plus
//! one more for subnet records. We implement the same structure rather than
//! reaching for `BTreeMap`, both for fidelity and because the Journal needs
//! ordered *range* scans over each index (e.g. "all interfaces in this
//! address range").
//!
//! The implementation is recursive over `Box` nodes, fully safe, and
//! property-tested against `BTreeMap` in `tests/prop_avl.rs`.

use core::borrow::Borrow;
use core::cmp::Ordering;
use core::fmt;
use std::ops::Bound;

/// An ordered map implemented as an AVL tree.
///
/// # Examples
///
/// ```
/// use fremont_journal::avl::AvlMap;
///
/// let mut m = AvlMap::new();
/// m.insert(3, "c");
/// m.insert(1, "a");
/// m.insert(2, "b");
/// assert_eq!(m.get(&2), Some(&"b"));
/// let keys: Vec<_> = m.iter().map(|(k, _)| *k).collect();
/// assert_eq!(keys, vec![1, 2, 3]);
/// ```
pub struct AvlMap<K, V> {
    root: Link<K, V>,
    len: usize,
}

type Link<K, V> = Option<Box<Node<K, V>>>;

struct Node<K, V> {
    key: K,
    value: V,
    height: i8,
    left: Link<K, V>,
    right: Link<K, V>,
}

impl<K: Ord, V> Default for AvlMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord, V> AvlMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        AvlMap { root: None, len: 0 }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a key/value pair, returning the previous value for the key.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let root = self.root.take();
        let (new_root, old) = insert_rec(root, key, value);
        self.root = new_root;
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Looks up a value by key, or by any borrowed form of it that
    /// orders the same way (a `&str` for a `String` key), as `BTreeMap`
    /// does.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            match key.cmp(n.key.borrow()) {
                Ordering::Less => cur = n.left.as_deref(),
                Ordering::Greater => cur = n.right.as_deref(),
                Ordering::Equal => return Some(&n.value),
            }
        }
        None
    }

    /// Looks up a value mutably by key.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut cur = self.root.as_deref_mut();
        while let Some(n) = cur {
            match key.cmp(n.key.borrow()) {
                Ordering::Less => cur = n.left.as_deref_mut(),
                Ordering::Greater => cur = n.right.as_deref_mut(),
                Ordering::Equal => return Some(&mut n.value),
            }
        }
        None
    }

    /// Returns `true` when the key is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Removes a key, returning its value.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let root = self.root.take();
        let (new_root, removed) = remove_rec(root, key);
        self.root = new_root;
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// The smallest key/value pair.
    pub fn first(&self) -> Option<(&K, &V)> {
        let mut cur = self.root.as_deref()?;
        while let Some(l) = cur.left.as_deref() {
            cur = l;
        }
        Some((&cur.key, &cur.value))
    }

    /// The largest key/value pair.
    pub fn last(&self) -> Option<(&K, &V)> {
        let mut cur = self.root.as_deref()?;
        while let Some(r) = cur.right.as_deref() {
            cur = r;
        }
        Some((&cur.key, &cur.value))
    }

    /// In-order iterator over all entries.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter::over(self.root.as_deref(), Bound::Unbounded, Bound::Unbounded)
    }

    /// In-order iterator over entries with keys in the given bounds.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::ops::Bound;
    /// use fremont_journal::avl::AvlMap;
    ///
    /// let mut m = AvlMap::new();
    /// for k in 0..10 { m.insert(k, k * k); }
    /// let in_range: Vec<_> = m
    ///     .range((Bound::Included(&3), Bound::Excluded(&6)))
    ///     .map(|(k, _)| *k)
    ///     .collect();
    /// assert_eq!(in_range, vec![3, 4, 5]);
    /// ```
    pub fn range<'a>(&'a self, bounds: (Bound<&'a K>, Bound<&'a K>)) -> Iter<'a, K, V> {
        Iter::over(self.root.as_deref(), bounds.0, bounds.1)
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.root = None;
        self.len = 0;
    }

    /// Tree height (for diagnostics; `0` for the empty tree).
    pub fn height(&self) -> usize {
        height(&self.root) as usize
    }

    /// Verifies the AVL invariants (ordering + balance); used by tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        fn walk<K: Ord, V>(
            link: &Link<K, V>,
            lo: Option<&K>,
            hi: Option<&K>,
        ) -> Result<i8, String> {
            let Some(n) = link.as_deref() else {
                return Ok(0);
            };
            if let Some(lo) = lo {
                if n.key <= *lo {
                    return Err("ordering violated (left bound)".to_owned());
                }
            }
            if let Some(hi) = hi {
                if n.key >= *hi {
                    return Err("ordering violated (right bound)".to_owned());
                }
            }
            let lh = walk(&n.left, lo, Some(&n.key))?;
            let rh = walk(&n.right, Some(&n.key), hi)?;
            if (lh - rh).abs() > 1 {
                return Err(format!("balance violated ({lh} vs {rh})"));
            }
            let h = 1 + lh.max(rh);
            if h != n.height {
                return Err(format!("stale height (stored {}, actual {h})", n.height));
            }
            Ok(h)
        }
        let counted = self.iter().count();
        if counted != self.len {
            return Err(format!(
                "len mismatch (stored {}, actual {counted})",
                self.len
            ));
        }
        walk(&self.root, None, None).map(|_| ())
    }
}

impl<K: Ord + fmt::Debug, V: fmt::Debug> fmt::Debug for AvlMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Ord + Clone, V: Clone> Clone for AvlMap<K, V> {
    fn clone(&self) -> Self {
        let mut m = AvlMap::new();
        for (k, v) in self.iter() {
            m.insert(k.clone(), v.clone());
        }
        m
    }
}

fn height<K, V>(link: &Link<K, V>) -> i8 {
    link.as_deref().map_or(0, |n| n.height)
}

fn update_height<K, V>(n: &mut Node<K, V>) {
    n.height = 1 + height(&n.left).max(height(&n.right));
}

fn balance_factor<K, V>(n: &Node<K, V>) -> i8 {
    height(&n.left) - height(&n.right)
}

fn rotate_right<K, V>(mut n: Box<Node<K, V>>) -> Box<Node<K, V>> {
    let mut l = n.left.take().expect("rotate_right requires left child");
    n.left = l.right.take();
    update_height(&mut n);
    l.right = Some(n);
    update_height(&mut l);
    l
}

fn rotate_left<K, V>(mut n: Box<Node<K, V>>) -> Box<Node<K, V>> {
    let mut r = n.right.take().expect("rotate_left requires right child");
    n.right = r.left.take();
    update_height(&mut n);
    r.left = Some(n);
    update_height(&mut r);
    r
}

fn rebalance<K, V>(mut n: Box<Node<K, V>>) -> Box<Node<K, V>> {
    update_height(&mut n);
    let bf = balance_factor(&n);
    if bf > 1 {
        if balance_factor(n.left.as_deref().expect("bf>1 implies left")) < 0 {
            n.left = Some(rotate_left(n.left.take().expect("checked")));
        }
        return rotate_right(n);
    }
    if bf < -1 {
        if balance_factor(n.right.as_deref().expect("bf<-1 implies right")) > 0 {
            n.right = Some(rotate_right(n.right.take().expect("checked")));
        }
        return rotate_left(n);
    }
    n
}

fn insert_rec<K: Ord, V>(link: Link<K, V>, key: K, value: V) -> (Link<K, V>, Option<V>) {
    match link {
        None => (
            Some(Box::new(Node {
                key,
                value,
                height: 1,
                left: None,
                right: None,
            })),
            None,
        ),
        Some(mut n) => match key.cmp(&n.key) {
            Ordering::Less => {
                let (l, old) = insert_rec(n.left.take(), key, value);
                n.left = l;
                (Some(rebalance(n)), old)
            }
            Ordering::Greater => {
                let (r, old) = insert_rec(n.right.take(), key, value);
                n.right = r;
                (Some(rebalance(n)), old)
            }
            Ordering::Equal => {
                let old = core::mem::replace(&mut n.value, value);
                (Some(n), Some(old))
            }
        },
    }
}

/// Removes and returns the minimum node of a non-empty subtree.
fn take_min<K: Ord, V>(mut n: Box<Node<K, V>>) -> (Link<K, V>, Box<Node<K, V>>) {
    if n.left.is_none() {
        let right = n.right.take();
        return (right, n);
    }
    let (new_left, min) = take_min(n.left.take().expect("checked non-none"));
    n.left = new_left;
    (Some(rebalance(n)), min)
}

fn remove_rec<K, V, Q>(link: Link<K, V>, key: &Q) -> (Link<K, V>, Option<V>)
where
    K: Ord + Borrow<Q>,
    Q: Ord + ?Sized,
{
    match link {
        None => (None, None),
        Some(mut n) => match key.cmp(n.key.borrow()) {
            Ordering::Less => {
                let (l, removed) = remove_rec(n.left.take(), key);
                n.left = l;
                (Some(rebalance(n)), removed)
            }
            Ordering::Greater => {
                let (r, removed) = remove_rec(n.right.take(), key);
                n.right = r;
                (Some(rebalance(n)), removed)
            }
            Ordering::Equal => match (n.left.take(), n.right.take()) {
                (None, None) => (None, Some(n.value)),
                (Some(l), None) => (Some(l), Some(n.value)),
                (None, Some(r)) => (Some(r), Some(n.value)),
                (Some(l), Some(r)) => {
                    let (new_right, mut successor) = take_min(r);
                    successor.left = Some(l);
                    successor.right = new_right;
                    (Some(rebalance(successor)), Some(n.value))
                }
            },
        },
    }
}

/// In-order (optionally bounded) iterator over an [`AvlMap`].
pub struct Iter<'a, K, V> {
    stack: Vec<&'a Node<K, V>>,
    upper: Bound<&'a K>,
}

impl<'a, K: Ord, V> Iter<'a, K, V> {
    fn over(root: Option<&'a Node<K, V>>, lower: Bound<&'a K>, upper: Bound<&'a K>) -> Self {
        let mut it = Iter {
            stack: Vec::new(),
            upper,
        };
        it.push_left_edge(root, &lower);
        it
    }

    /// Descends the left spine, skipping subtrees entirely below `lower`.
    fn push_left_edge(&mut self, mut link: Option<&'a Node<K, V>>, lower: &Bound<&'a K>) {
        while let Some(n) = link {
            let in_range = match lower {
                Bound::Unbounded => true,
                Bound::Included(lo) => n.key >= **lo,
                Bound::Excluded(lo) => n.key > **lo,
            };
            if in_range {
                self.stack.push(n);
                link = n.left.as_deref();
            } else {
                link = n.right.as_deref();
            }
        }
    }
}

impl<'a, K: Ord, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let n = self.stack.pop()?;
        let within = match self.upper {
            Bound::Unbounded => true,
            Bound::Included(hi) => n.key <= *hi,
            Bound::Excluded(hi) => n.key < *hi,
        };
        if !within {
            self.stack.clear();
            return None;
        }
        // Successors of `n` under the lower bound were already admitted, so
        // push the full left edge of the right subtree.
        let mut link = n.right.as_deref();
        while let Some(r) = link {
            self.stack.push(r);
            link = r.left.as_deref();
        }
        Some((&n.key, &n.value))
    }
}

impl<'a, K: Ord, V> IntoIterator for &'a AvlMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for AvlMap<K, V> {
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        let mut m = AvlMap::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut m = AvlMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(5, "five"), None);
        assert_eq!(m.insert(5, "FIVE"), Some("five"));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(&5), Some(&"FIVE"));
        assert_eq!(m.remove(&5), Some("FIVE"));
        assert_eq!(m.remove(&5), None);
        assert!(m.is_empty());
    }

    #[test]
    fn ascending_inserts_stay_balanced() {
        let mut m = AvlMap::new();
        for k in 0..1024 {
            m.insert(k, k);
            m.check_invariants().unwrap();
        }
        // A perfectly balanced 1024-node tree has height 11; AVL guarantees
        // within ~1.44x of optimal.
        assert!(m.height() <= 15, "height {} too large", m.height());
    }

    #[test]
    fn descending_inserts_stay_balanced() {
        let mut m = AvlMap::new();
        for k in (0..512).rev() {
            m.insert(k, ());
        }
        m.check_invariants().unwrap();
        assert!(m.height() <= 14);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut m = AvlMap::new();
        for k in [5, 3, 9, 1, 7, 2, 8, 0, 6, 4] {
            m.insert(k, k * 10);
        }
        let items: Vec<_> = m.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(items, (0..10).map(|k| (k, k * 10)).collect::<Vec<_>>());
    }

    #[test]
    fn range_bounds() {
        let mut m = AvlMap::new();
        for k in 0..100 {
            m.insert(k, ());
        }
        let r: Vec<_> = m
            .range((Bound::Included(&10), Bound::Included(&12)))
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(r, vec![10, 11, 12]);
        let r: Vec<_> = m
            .range((Bound::Excluded(&97), Bound::Unbounded))
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(r, vec![98, 99]);
        let r: Vec<_> = m
            .range((Bound::Unbounded, Bound::Excluded(&2)))
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(r, vec![0, 1]);
        let r = m
            .range((Bound::Included(&50), Bound::Excluded(&50)))
            .count();
        assert_eq!(r, 0);
    }

    #[test]
    fn range_on_sparse_keys() {
        let mut m = AvlMap::new();
        for k in [10, 20, 30, 40, 50] {
            m.insert(k, ());
        }
        let r: Vec<_> = m
            .range((Bound::Included(&15), Bound::Included(&45)))
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(r, vec![20, 30, 40]);
    }

    #[test]
    fn remove_keeps_balance() {
        let mut m = AvlMap::new();
        for k in 0..200 {
            m.insert(k, k);
        }
        for k in (0..200).step_by(2) {
            assert_eq!(m.remove(&k), Some(k));
            m.check_invariants().unwrap();
        }
        assert_eq!(m.len(), 100);
        for k in 0..200 {
            assert_eq!(m.contains_key(&k), k % 2 == 1);
        }
    }

    #[test]
    fn remove_root_with_two_children() {
        let mut m = AvlMap::new();
        for k in [50, 25, 75, 12, 37, 62, 87] {
            m.insert(k, k);
        }
        assert_eq!(m.remove(&50), Some(50));
        m.check_invariants().unwrap();
        let keys: Vec<_> = m.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![12, 25, 37, 62, 75, 87]);
    }

    #[test]
    fn first_and_last() {
        let mut m = AvlMap::new();
        assert_eq!(m.first(), None);
        for k in [5, 1, 9, 3] {
            m.insert(k, k * 2);
        }
        assert_eq!(m.first(), Some((&1, &2)));
        assert_eq!(m.last(), Some((&9, &18)));
    }

    #[test]
    fn get_mut_modifies() {
        let mut m = AvlMap::new();
        m.insert("a", 1);
        *m.get_mut(&"a").unwrap() += 10;
        assert_eq!(m.get(&"a"), Some(&11));
        assert_eq!(m.get_mut(&"b"), None);
    }

    #[test]
    fn clone_is_deep() {
        let mut m = AvlMap::new();
        m.insert(1, "one");
        let c = m.clone();
        m.insert(2, "two");
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&1), Some(&"one"));
    }

    #[test]
    fn clear_resets() {
        let mut m: AvlMap<i32, i32> = (0..10).map(|k| (k, k)).collect();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.iter().count(), 0);
        m.insert(1, 1);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn string_keys() {
        let mut m = AvlMap::new();
        for name in ["bruno", "anchor", "piper", "spot"] {
            m.insert(name.to_owned(), ());
        }
        let names: Vec<_> = m.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["anchor", "bruno", "piper", "spot"]);
    }
}
