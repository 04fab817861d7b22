//! Integration: a Journal Server "writes to disk periodically and at
//! termination" — once. Over a `DurableJournal` that write is a
//! compaction (snapshot, segment rotation, fsync): twice is real IO.

use fremont::journal::JournalServer;
use fremont::storage::{DurableJournal, WalConfig};
use fremont::telemetry::Telemetry;

/// `shutdown(self)` stops the server and then `Drop` runs: the backend
/// must be flushed by the first and left alone by the second.
#[test]
fn shutdown_compacts_the_durable_backend_exactly_once() {
    let dir = std::env::temp_dir().join(format!("fremont-shutdown-once-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (telemetry, rec) = Telemetry::recording();
    let (durable, _report) =
        DurableJournal::open_with_telemetry(WalConfig::new(&dir), telemetry.clone()).expect("open");
    let server =
        JournalServer::start_with_telemetry(durable, "127.0.0.1:0", None, telemetry).expect("bind");

    let before = rec.counter("fremont_wal_segment_rotations_total", "");
    server.shutdown();
    assert_eq!(
        rec.counter("fremont_wal_segment_rotations_total", "") - before,
        1,
        "one shutdown is one compaction"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
