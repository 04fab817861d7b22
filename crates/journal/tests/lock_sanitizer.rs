//! Runtime half of the lock-order acceptance criterion: with the
//! `lock-sanitizer` feature on, every labeled acquisition is checked
//! against `crates/lint/lock-order.golden` — the same DAG the static
//! `lock-order` rule exports — and a deliberately inverted acquisition
//! panics with both label chains.
//!
//! Run with: `cargo test -p fremont-journal --features lock-sanitizer`
#![cfg(feature = "lock-sanitizer")]

use std::net::Ipv4Addr;

use fremont_journal::observation::{Observation, Source};
use fremont_journal::query::{InterfaceQuery, SubnetQuery};
use fremont_journal::store::Journal;
use fremont_journal::time::JTime;
use parking_lot::{sanitizer, Mutex, RwLock};

/// Runs `f` on a fresh thread and returns the panic message, or `None`
/// if it completed. A fresh thread keeps the sanitizer's thread-local
/// held stack isolated from the harness thread.
fn panic_message_of(f: impl FnOnce() + Send + 'static) -> Option<String> {
    match std::thread::Builder::new()
        .name("sanitizer-probe".into())
        .spawn(f)
        .expect("spawn probe thread")
        .join()
    {
        Ok(()) => None,
        Err(payload) => Some(
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "<non-string panic>".to_owned()),
        ),
    }
}

#[test]
fn the_embedded_dag_is_nonempty() {
    assert!(
        sanitizer::dag_edges() >= 1,
        "lock-order.golden should carry the wal->store edge"
    );
}

#[test]
fn sanctioned_wal_then_store_order_is_allowed() {
    let ok = panic_message_of(|| {
        let wal = Mutex::labeled("storage.wal", 0u32);
        let store = RwLock::labeled("journal.store", 0u32);
        let w = wal.lock();
        let s = store.write();
        assert_eq!(*w + *s, 0);
        assert_eq!(
            sanitizer::held_labels(),
            vec!["storage.wal", "journal.store"]
        );
    });
    assert_eq!(ok, None, "the committed DAG blesses wal -> store");
}

#[test]
fn inverted_store_then_wal_acquisition_panics() {
    // The dynamic half of the acceptance criterion: the exact inversion
    // the static mutation test seeds into the store
    // (crates/lint/tests/workspace_clean.rs) caught at runtime.
    let msg = panic_message_of(|| {
        let wal = Mutex::labeled("storage.wal", 0u32);
        let store = RwLock::labeled("journal.store", 0u32);
        let s = store.read();
        let w = wal.lock(); // store -> wal: not in the DAG.
        drop(w);
        drop(s);
    })
    .expect("inverted acquisition must panic");
    assert!(msg.contains("fremont lock sanitizer"), "{msg}");
    assert!(
        msg.contains("journal.store -> storage.wal"),
        "the report carries this thread's label chain: {msg}"
    );
    assert!(
        msg.contains("last holder of `storage.wal`"),
        "the report carries the other stack: {msg}"
    );
}

#[test]
fn reentering_the_store_lock_panics() {
    // What a public query calling another public query would do: the
    // second read can park behind a waiting writer forever.
    let msg = panic_message_of(|| {
        let store = RwLock::labeled("journal.store", ());
        let _outer = store.read();
        let _inner = store.read();
    })
    .expect("a journal.store -> journal.store acquisition must panic");
    assert!(msg.contains("journal.store -> journal.store"), "{msg}");
}

#[test]
fn unlabeled_locks_are_never_tracked() {
    let ok = panic_message_of(|| {
        // Arbitrary nesting of unlabeled locks is the untracked world;
        // the sanitizer must not see them at all.
        let a = Mutex::new(1u32);
        let b = RwLock::new(2u32);
        let ga = a.lock();
        let gb = b.write();
        assert_eq!(*ga + *gb, 3);
        assert!(sanitizer::held_labels().is_empty());
    });
    assert_eq!(ok, None);
}

#[test]
fn guards_release_out_of_order() {
    let ok = panic_message_of(|| {
        let wal = Mutex::labeled("storage.wal", ());
        let store = RwLock::labeled("journal.store", ());
        let w = wal.lock();
        let s = store.read();
        drop(w); // Release the WAL first, keep the store.
        assert_eq!(sanitizer::held_labels(), vec!["journal.store"]);
        drop(s);
        assert!(sanitizer::held_labels().is_empty());
    });
    assert_eq!(ok, None);
}

#[test]
fn the_real_journal_runs_clean_under_the_sanitizer() {
    // Smoke the sanctioned paths end to end: single applies, the
    // batched write path, a delete, and every public query — none may
    // re-enter the store lock.
    let ok = panic_message_of(|| {
        let j = Journal::new();
        for i in 1..=32u8 {
            j.apply(
                &Observation::ip_alive(Source::SeqPing, Ipv4Addr::new(10, 0, i / 8, i)),
                JTime(u64::from(i)),
            );
        }
        let obs: Vec<_> = (1..=16u8)
            .map(|i| Observation::ip_alive(Source::SeqPing, Ipv4Addr::new(10, 1, 0, i)))
            .collect();
        j.apply_batch(obs.iter().map(|o| (o, JTime(100))));
        let all = j.get_interfaces(&InterfaceQuery::all());
        assert_eq!(all.len(), 48);
        let first = &all[0];
        let by_ip = InterfaceQuery::by_ip(first.ip_addr().unwrap());
        assert_eq!(j.get_interfaces(&by_ip).len(), 1);
        let in_subnet = InterfaceQuery::in_subnet("10.1.0.0/24".parse().unwrap());
        assert_eq!(j.get_interfaces(&in_subnet).len(), 16);
        assert_eq!(j.interfaces_by_modification().len(), 48);
        assert_eq!(j.interface(first.id).as_ref(), Some(first));
        assert!(j.get_gateways().is_empty());
        assert!(j.get_subnets(&SubnetQuery::all()).is_empty());
        assert_eq!(j.stats().interfaces, 48);
        assert_eq!(j.sharding_metrics().shards[0].records, 48);
        assert_eq!(j.fingerprint(), j.to_snapshot().fingerprint());
        assert!(j.delete_interface(first.id));
        j.check_invariants().unwrap();
    });
    assert_eq!(ok, None, "sanctioned journal paths must not trip the DAG");
}
