//! Seeded `shard-lock-order` violations. Mounted at
//! `crates/journal/src/store/fixture.rs` (the rule's scope) by the
//! golden test; never compiled.

impl FixtureStore {
    /// Inverted: the meta gate taken while a shard guard is live.
    fn inverted(&self) -> u64 {
        let shard = self.shards[0].read();
        let meta = self.meta.write();
        meta.seq + shard.len() as u64
    }

    /// Write guards in descending index order (ascending multi-write
    /// acquisition is a write transaction's sanctioned shape).
    fn double_write(&self) {
        let a = self.shards[2].write();
        let b = self.shards[1].write();
        a.clear();
        b.clear();
    }

    /// Descending index order.
    fn descending(&self) -> usize {
        let hi = self.shards[3].read();
        let lo = self.shards[2].read();
        hi.len() + lo.len()
    }

    /// A second function taking a shard write lock (`double_write` is
    /// the first in file order): a second write path beside the one
    /// write transaction.
    fn second_writer(&self) {
        let s = self.shards[0].write();
        s.clear();
    }
}
