//! Runtime half of the lock-order acceptance criterion: with the
//! `lock-sanitizer` feature on, every labeled acquisition is checked
//! against `crates/lint/lock-order.golden` — the same DAG the static
//! `lock-order`/`shard-lock-order` rules export — and a deliberately
//! inverted acquisition panics with both label chains.
//!
//! Run with: `cargo test -p fremont-journal --features lock-sanitizer`
#![cfg(feature = "lock-sanitizer")]

use std::net::Ipv4Addr;

use fremont_journal::observation::{Observation, Source};
use fremont_journal::query::InterfaceQuery;
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
        sanitizer::dag_edges() >= 3,
        "lock-order.golden should carry the meta->shard and wal->* edges"
    );
}

#[test]
fn sanctioned_meta_then_shard_order_is_allowed() {
    let ok = panic_message_of(|| {
        let meta = RwLock::labeled("journal.meta", 0u32);
        let shard = RwLock::labeled_ranked("journal.shard", 0, 0u32);
        let gate = meta.write();
        let s = shard.read();
        assert_eq!(*gate + *s, 0);
        assert_eq!(
            sanitizer::held_labels(),
            vec!["journal.meta", "journal.shard"]
        );
    });
    assert_eq!(ok, None, "the committed DAG blesses meta -> shard");
}

#[test]
fn inverted_shard_then_meta_acquisition_panics() {
    // The dynamic half of the acceptance criterion: the exact inversion
    // the static mutation test seeds into the store
    // (crates/lint/tests/workspace_clean.rs) caught at runtime.
    let msg = panic_message_of(|| {
        let meta = RwLock::labeled("journal.meta", 0u32);
        let shard = RwLock::labeled_ranked("journal.shard", 0, 0u32);
        let s = shard.read();
        let gate = meta.write(); // shard -> meta: not in the DAG.
        drop(gate);
        drop(s);
    })
    .expect("inverted acquisition must panic");
    assert!(msg.contains("fremont lock sanitizer"), "{msg}");
    assert!(
        msg.contains("journal.shard#0 -> journal.meta#0"),
        "the report carries this thread's label chain: {msg}"
    );
    assert!(
        msg.contains("last holder of `journal.meta`"),
        "the report carries the other stack: {msg}"
    );
}

#[test]
fn shard_ranks_must_ascend() {
    let ok = panic_message_of(|| {
        let a = RwLock::labeled_ranked("journal.shard", 0, ());
        let b = RwLock::labeled_ranked("journal.shard", 3, ());
        let _ga = a.read();
        let _gb = b.read(); // 0 -> 3 ascends: fine.
    });
    assert_eq!(ok, None);

    let msg = panic_message_of(|| {
        let a = RwLock::labeled_ranked("journal.shard", 3, ());
        let b = RwLock::labeled_ranked("journal.shard", 0, ());
        let _ga = a.read();
        let _gb = b.read(); // 3 -> 0 descends: the classic AB/BA pair.
    })
    .expect("descending shard acquisition must panic");
    assert!(msg.contains("rank 0"), "{msg}");
    assert!(msg.contains("rank 3"), "{msg}");
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
        let meta = RwLock::labeled("journal.meta", ());
        let shard = RwLock::labeled_ranked("journal.shard", 0, ());
        let gate = meta.write();
        let s = shard.read();
        drop(gate); // Release the gate first, keep the shard.
        assert_eq!(sanitizer::held_labels(), vec!["journal.shard"]);
        drop(s);
        assert!(sanitizer::held_labels().is_empty());
    });
    assert_eq!(ok, None);
}

#[test]
fn the_real_journal_runs_clean_under_the_sanitizer() {
    // Smoke the sanctioned paths end to end: single applies, the
    // batched write path (meta gate then ascending shard sweep), and
    // cross-shard reads all stay inside the committed DAG.
    let ok = panic_message_of(|| {
        let j = Journal::with_shards(8);
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
        assert_eq!(j.get_interfaces(&InterfaceQuery::all()).len(), 48);
        j.check_invariants().unwrap();
    });
    assert_eq!(ok, None, "sanctioned journal paths must not trip the DAG");
}
