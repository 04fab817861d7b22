//! Measurement plumbing shared by the workloads: the declared metric
//! lists, wall-clock spans recorded from outside the program, order
//! statistics, and the per-run report.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// End-to-end metrics, `(name, unit)`. Every workload reports every
/// one of them on an untraced run; `BENCHMARK.json` carries the same
/// list with directions and bounds (the smoke test holds them equal).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("obs_per_s", "1/s"),
    ("store_p50_us", "us"),
    ("store_p95_us", "us"),
    ("query_p50_us", "us"),
    ("query_p95_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`, reported on a traced run. A
/// layer that does nothing on a workload reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netsim.run_s", "s"),
    ("netsim.slice_p50_us", "us"),
    ("netsim.slice_p99_us", "us"),
    ("netsim.events", "count"),
    ("netsim.us_per_kevent", "us"),
    ("netsim.generate_s", "s"),
    ("netsim.idle_run_s", "s"),
    ("explorers.induced_s", "s"),
    ("core.pump_s", "s"),
    ("core.pump_p50_us", "us"),
    ("core.pump_p99_us", "us"),
    ("core.flush_s", "s"),
    ("core.correlate_us", "us"),
    ("core.analysis_us", "us"),
    ("core.pumps", "count"),
    ("core.layer_sum_ratio", "ratio"),
    ("journal.store.apply_p50_us", "us"),
    ("journal.store.apply_p99_us", "us"),
    ("journal.store.obs_per_s", "1/s"),
    ("journal.store.batch_groups_per_rpc", "ratio"),
    ("journal.store.query_subnet_us", "us"),
    ("journal.store.query_all_us", "us"),
    ("journal.proto.encode_us_per_rpc", "us"),
    ("journal.proto.decode_us_per_rpc", "us"),
    ("journal.proto.wire_bytes_per_obs", "bytes"),
    ("journal.server.apply_p50_us", "us"),
    ("journal.server.apply_s", "s"),
    ("journal.rpc.overhead_p50_us", "us"),
    ("journal.rpc.overhead_s", "s"),
    ("journal.rpc.rpcs_per_s", "1/s"),
    ("journal.client.connect_us", "us"),
    ("storage.store_p50_us", "us"),
    ("storage.wal_share", "ratio"),
    ("storage.appends", "count"),
    ("storage.fsyncs", "count"),
    ("storage.fsyncs_per_rpc", "ratio"),
    ("storage.wal_bytes_per_obs", "bytes"),
    ("storage.compact_s", "s"),
    ("storage.recover_s", "s"),
    ("telemetry.overhead_ratio", "ratio"),
];

/// One wall-clock span recorded around a call into the program.
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 = none).
    pub parent: u64,
    pub name: &'static str,
    pub op: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Times calls into the program; while recording, also keeps a span
/// per call in memory (written out as JSONL when the run ends).
pub struct Tracer {
    epoch: Instant,
    recording: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            recording: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    pub fn is_recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }

    /// Runs `f` (handing it its own span id, for children to name as
    /// parent) and returns its result with the elapsed wall time.
    pub fn time<R>(
        &self,
        name: &'static str,
        op: &'static str,
        parent: u64,
        f: impl FnOnce(u64) -> R,
    ) -> (R, Duration) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let elapsed = start.elapsed();
        if self.is_recording() {
            let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            self.spans.lock().expect("span buffer").push(Span {
                id,
                parent,
                name,
                op,
                start_ns,
                end_ns: start_ns + elapsed.as_nanos() as u64,
            });
        }
        (out, elapsed)
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the durations of the spans that name it as parent.
    pub fn self_times(&self) -> Vec<(&'static str, f64, usize)> {
        let spans = self.spans.lock().expect("span buffer");
        let mut child_ns: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for s in spans.iter() {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut by_name: std::collections::BTreeMap<&'static str, (f64, usize)> =
            std::collections::BTreeMap::new();
        for s in spans.iter() {
            let own = (s.end_ns - s.start_ns).saturating_sub(*child_ns.get(&s.id).unwrap_or(&0));
            let e = by_name.entry(s.name).or_default();
            e.0 += own as f64 / 1e9;
            e.1 += 1;
        }
        by_name.into_iter().map(|(n, (s, c))| (n, s, c)).collect()
    }

    /// Writes the recorded spans, one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<usize> {
        use std::io::Write;
        let spans = self.spans.lock().expect("span buffer");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"op\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        w.flush()?;
        Ok(spans.len())
    }
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Nearest-rank percentile of an unsorted sample (0 when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Latencies of one fixed sequence of operations, repeated over several
/// rounds: for each position in the sequence, the fastest round.
///
/// The machines this runs on are shared: a fixed loop's time varies by
/// 15 % from one second to the next, always upward. The minimum over
/// rounds filters that out and leaves the spread that belongs to the
/// operations themselves, which the percentiles are then taken over.
#[derive(Default)]
pub struct Best {
    us: Vec<f64>,
}

impl Best {
    pub fn add(&mut self, position: usize, us: f64) {
        if self.us.len() <= position {
            self.us.resize(position + 1, f64::INFINITY);
        }
        self.us[position] = self.us[position].min(us);
    }

    pub fn add_round(&mut self, round: &[f64]) {
        for (position, us) in round.iter().enumerate() {
            self.add(position, *us);
        }
    }

    /// Positions sampled at least once.
    pub fn sampled(&self) -> Vec<f64> {
        self.us.iter().copied().filter(|v| v.is_finite()).collect()
    }

    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.sampled(), p)
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the default, exclusive method); needs two values.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// What one run of one workload found: named values, operation counts
/// and the correctness gates that failed.
#[derive(Default)]
pub struct Report {
    values: Vec<(&'static str, f64)>,
    /// Operations attempted (store calls, reads, gates).
    pub attempted: u64,
    /// Operations that failed or were refused, plus failed gates.
    pub failed: u64,
    /// Sample counts printed beside the percentiles.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// A correctness gate: counted as one operation, failed when `ok`
    /// is false.
    pub fn gate(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("GATE FAILED: {what}");
        }
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    /// The result line: every declared metric of the run's kind, by
    /// name, with its unit.
    pub fn result_json(&self, traced: bool) -> String {
        let declared = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = declared
            .iter()
            .map(|(name, unit)| {
                let value = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable listing of the same metrics.
    pub fn print_table(&self, traced: bool) {
        let declared = if traced { PER_LAYER } else { END_TO_END };
        for (name, unit) in declared {
            println!(
                "  {name:<38} {:>16.4} {unit}",
                self.get(name).unwrap_or(0.0)
            );
        }
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  {:<38} {rate:>16.6} (ops {} failed_ops {})",
            "error_rate", self.attempted, self.failed
        );
        for n in &self.notes {
            println!("  note: {n}");
        }
    }
}
