//! Std-only operational metrics for the bgr router stack.
//!
//! The registry is built for the serve layer's write pattern: metrics are
//! registered once at startup (mutex-guarded, cold) and updated from many
//! worker threads through cloneable handles backed by shared atomics
//! (lock-free, hot). Rendering follows the Prometheus text exposition
//! format 0.0.4 and is deterministic: families appear in registration
//! order, samples in label-registration order, and histogram bucket bounds
//! are a fixed power-of-two ladder.
//!
//! Wall-clock time only ever flows *into* the registry (observed
//! latencies); nothing here is read back by the routing engine, so the
//! byte-identical deterministic-trace guarantee (DESIGN.md §9) is
//! untouched. See DESIGN.md §14.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Upper bounds (inclusive, `le`) of the finite histogram buckets: the
/// power-of-two ladder 1, 2, 4, …, 2^19. With microsecond observations
/// this spans 1 µs – ~0.5 s before the `+Inf` overflow bucket.
pub const HIST_BOUNDS: [u64; 20] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072,
    262144, 524288,
];

/// Monotonically increasing counter. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct CounterHandle(Arc<AtomicU64>);

impl CounterHandle {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, by: u64) {
        self.0.fetch_add(by, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Settable signed gauge. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct GaugeHandle(Arc<AtomicI64>);

impl GaugeHandle {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, by: i64) {
        self.0.fetch_add(by, Ordering::Relaxed);
    }

    pub fn sub(&self, by: i64) {
        self.0.fetch_sub(by, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Per-bucket (non-cumulative) counts; index `HIST_BOUNDS.len()` is the
    /// `+Inf` overflow bucket. Rendered cumulatively per the exposition
    /// format.
    buckets: [AtomicU64; HIST_BOUNDS.len() + 1],
    sum: AtomicU64,
    count: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// Power-of-two bucketed histogram. Cloning shares the underlying cells.
#[derive(Clone, Debug)]
pub struct HistogramHandle(Arc<HistogramCore>);

impl HistogramHandle {
    pub fn observe(&self, v: u64) {
        let idx = HIST_BOUNDS
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(HIST_BOUNDS.len());
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Clone, Debug)]
enum Cell {
    Counter(CounterHandle),
    Gauge(GaugeHandle),
    Histogram(HistogramHandle),
}

#[derive(Debug)]
struct Sample {
    labels: Vec<(String, String)>,
    cell: Cell,
}

#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: Kind,
    samples: Vec<Sample>,
}

#[derive(Debug, Default)]
struct Inner {
    families: Vec<Family>,
}

/// Registry of metric families. Cheap to clone (shared `Arc`); the mutex
/// guards registration and rendering only — every update path goes through
/// lock-free handles.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Inner>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or attach to) a counter sample. Re-registering the same
    /// `(name, labels)` returns a handle to the existing cell, so restarted
    /// components keep accumulating rather than resetting.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> CounterHandle {
        match self.cell(name, help, Kind::Counter, labels, || {
            Cell::Counter(CounterHandle::default())
        }) {
            Cell::Counter(h) => h,
            _ => unreachable!("kind checked in cell()"),
        }
    }

    /// Register (or attach to) a gauge sample.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> GaugeHandle {
        match self.cell(name, help, Kind::Gauge, labels, || {
            Cell::Gauge(GaugeHandle::default())
        }) {
            Cell::Gauge(h) => h,
            _ => unreachable!("kind checked in cell()"),
        }
    }

    /// Register (or attach to) a histogram sample with the fixed
    /// power-of-two [`HIST_BOUNDS`] ladder.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        match self.cell(name, help, Kind::Histogram, labels, || {
            Cell::Histogram(HistogramHandle(Arc::new(HistogramCore::new())))
        }) {
            Cell::Histogram(h) => h,
            _ => unreachable!("kind checked in cell()"),
        }
    }

    fn cell(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Cell,
    ) -> Cell {
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
                && !name.is_empty()
                && !name.starts_with(|c: char| c.is_ascii_digit()),
            "invalid metric name {name:?}"
        );
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        let family = match inner.families.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert_eq!(
                    f.kind, kind,
                    "metric {name:?} re-registered with a different kind"
                );
                f
            }
            None => {
                inner.families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    samples: Vec::new(),
                });
                inner.families.last_mut().expect("just pushed")
            }
        };
        if let Some(s) = family.samples.iter().find(|s| {
            s.labels.len() == labels.len()
                && s.labels
                    .iter()
                    .zip(labels)
                    .all(|(have, want)| have.0 == want.0 && have.1 == want.1)
        }) {
            return s.cell.clone();
        }
        let cell = make();
        family.samples.push(Sample {
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            cell: cell.clone(),
        });
        cell
    }

    /// Render the whole registry in the Prometheus text exposition format
    /// (version 0.0.4). Deterministic: registration order throughout.
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        for family in &inner.families {
            if !family.help.is_empty() {
                let _ = writeln!(out, "# HELP {} {}", family.name, escape_help(&family.help));
            }
            let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.label());
            for sample in &family.samples {
                match &sample.cell {
                    Cell::Counter(h) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            family.name,
                            label_block(&sample.labels, None),
                            h.get()
                        );
                    }
                    Cell::Gauge(h) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            family.name,
                            label_block(&sample.labels, None),
                            h.get()
                        );
                    }
                    Cell::Histogram(h) => {
                        let mut cumulative = 0u64;
                        for (i, bound) in HIST_BOUNDS.iter().enumerate() {
                            cumulative += h.0.buckets[i].load(Ordering::Relaxed);
                            let _ = writeln!(
                                out,
                                "{}_bucket{} {}",
                                family.name,
                                label_block(&sample.labels, Some(&bound.to_string())),
                                cumulative
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            family.name,
                            label_block(&sample.labels, Some("+Inf")),
                            h.count()
                        );
                        let _ = writeln!(
                            out,
                            "{}_sum{} {}",
                            family.name,
                            label_block(&sample.labels, None),
                            h.sum()
                        );
                        let _ = writeln!(
                            out,
                            "{}_count{} {}",
                            family.name,
                            label_block(&sample.labels, None),
                            h.count()
                        );
                    }
                }
            }
        }
        out
    }

    /// Write the exposition text to `path` (creating parent directories),
    /// atomically via a sibling temp file so scrapers never see a torn
    /// snapshot.
    pub fn write_to_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.render_prometheus())?;
        std::fs::rename(&tmp, path)
    }

    /// Spawn a minimal HTTP/1.1 server answering `GET /metrics` (and `/`)
    /// with the current exposition text. Binds eagerly so the caller gets
    /// the resolved address (pass port 0 to let the OS pick).
    pub fn serve_http<A: ToSocketAddrs>(&self, addr: A) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let registry = self.clone();
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("bgr-metrics-http".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop2.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Serve inline: scrapes are rare and the body is small,
                    // so a second thread per connection buys nothing.
                    let _ = serve_one(&registry, stream);
                }
            })?;
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }
}

/// Point-in-time value of one metric sample inside a
/// [`MetricsSnapshot`]. The variant doubles as the sample's kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(i64),
    /// Histogram reading: per-bucket (non-cumulative) counts on the
    /// fixed [`HIST_BOUNDS`] ladder plus the `+Inf` overflow bucket,
    /// and the running sum / count.
    Histogram {
        /// Non-cumulative bucket counts; last entry is `+Inf`.
        buckets: Vec<u64>,
        /// Sum of observed values.
        sum: u64,
        /// Number of observations.
        count: u64,
    },
}

/// One sample (label set + value) of a snapshot family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapSample {
    /// Label pairs in registration order.
    pub labels: Vec<(String, String)>,
    /// The reading.
    pub value: SnapValue,
}

/// One metric family of a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapFamily {
    /// Metric name.
    pub name: String,
    /// Help text.
    pub help: String,
    /// Samples in registration order.
    pub samples: Vec<SnapSample>,
}

/// Structured error of [`MetricsSnapshot::parse`]. Damaged snapshot
/// text (truncation, corruption, version skew) always degrades to this
/// — never a panic — mirroring the checkpoint codec's contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotParseError {
    /// 1-based line of the offending input (0 = whole document).
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for SnapshotParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "metrics snapshot line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SnapshotParseError {}

const SNAPSHOT_HEADER: &str = "bgr-metrics-snapshot v1";

/// Escapes a token for the snapshot wire text: backslash, newline and
/// space become `\\`, `\n`, `\_` so every token is whitespace-free.
fn escape_token(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            ' ' => out.push_str("\\_"),
            c => out.push(c),
        }
    }
    if out.is_empty() {
        out.push_str("\\0");
    }
    out
}

fn unescape_token(s: &str) -> Option<String> {
    if s == "\\0" {
        return Some(String::new());
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('_') => out.push(' '),
            _ => return None,
        }
    }
    Some(out)
}

/// A point-in-time, serializable copy of a registry's families and
/// values — the unit a `bgr-net` worker ships upstream so the
/// coordinator can fold per-worker registries into one fleet view
/// ([`MetricsRegistry::merge`] / [`MetricsRegistry::render_merged`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Families in registration order.
    pub families: Vec<SnapFamily>,
}

impl MetricsSnapshot {
    /// Serializes the snapshot to the versioned line-oriented wire
    /// text. Round-trips exactly through [`MetricsSnapshot::parse`].
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{SNAPSHOT_HEADER}");
        for family in &self.families {
            let _ = writeln!(
                out,
                "family {} {}",
                escape_token(&family.name),
                escape_token(&family.help)
            );
            for sample in &family.samples {
                let mut line = format!("sample {}", sample.labels.len());
                for (k, v) in &sample.labels {
                    let _ = write!(line, " {} {}", escape_token(k), escape_token(v));
                }
                match &sample.value {
                    SnapValue::Counter(v) => {
                        let _ = write!(line, " counter {v}");
                    }
                    SnapValue::Gauge(v) => {
                        let _ = write!(line, " gauge {v}");
                    }
                    SnapValue::Histogram {
                        buckets,
                        sum,
                        count,
                    } => {
                        let _ = write!(line, " histogram {sum} {count}");
                        for b in buckets {
                            let _ = write!(line, " {b}");
                        }
                    }
                }
                let _ = writeln!(out, "{line}");
            }
        }
        let _ = writeln!(out, "end {}", self.families.len());
        out
    }

    /// Parses wire text produced by [`MetricsSnapshot::to_text`].
    ///
    /// # Errors
    ///
    /// [`SnapshotParseError`] on version skew, truncation (the trailing
    /// `end <count>` line is mandatory), or any malformed line.
    pub fn parse(text: &str) -> Result<Self, SnapshotParseError> {
        let err = |line: usize, message: String| SnapshotParseError { line, message };
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, SNAPSHOT_HEADER)) => {}
            Some((_, other)) => {
                return Err(err(
                    1,
                    format!("bad header {other:?} (want {SNAPSHOT_HEADER:?})"),
                ))
            }
            None => return Err(err(0, "empty snapshot".into())),
        }
        let mut snap = MetricsSnapshot::default();
        let mut ended = false;
        for (i, line) in lines {
            let lineno = i + 1;
            if ended {
                return Err(err(lineno, "content after end".into()));
            }
            let mut tok = line.split(' ');
            match tok.next() {
                Some("family") => {
                    let name = tok
                        .next()
                        .and_then(unescape_token)
                        .ok_or_else(|| err(lineno, "family lacks a name".into()))?;
                    let help = tok
                        .next()
                        .and_then(unescape_token)
                        .ok_or_else(|| err(lineno, "family lacks help text".into()))?;
                    if tok.next().is_some() {
                        return Err(err(lineno, "trailing tokens after family".into()));
                    }
                    snap.families.push(SnapFamily {
                        name,
                        help,
                        samples: Vec::new(),
                    });
                }
                Some("sample") => {
                    let family = snap
                        .families
                        .last_mut()
                        .ok_or_else(|| err(lineno, "sample before any family".into()))?;
                    let nlabels: usize = tok
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| err(lineno, "sample lacks a label count".into()))?;
                    if nlabels > 64 {
                        return Err(err(lineno, format!("implausible label count {nlabels}")));
                    }
                    let mut labels = Vec::with_capacity(nlabels);
                    for _ in 0..nlabels {
                        let k = tok
                            .next()
                            .and_then(unescape_token)
                            .ok_or_else(|| err(lineno, "truncated label key".into()))?;
                        let v = tok
                            .next()
                            .and_then(unescape_token)
                            .ok_or_else(|| err(lineno, "truncated label value".into()))?;
                        labels.push((k, v));
                    }
                    let kind = tok
                        .next()
                        .ok_or_else(|| err(lineno, "sample lacks a kind".into()))?;
                    let value = match kind {
                        "counter" => SnapValue::Counter(
                            tok.next()
                                .and_then(|t| t.parse().ok())
                                .ok_or_else(|| err(lineno, "bad counter value".into()))?,
                        ),
                        "gauge" => SnapValue::Gauge(
                            tok.next()
                                .and_then(|t| t.parse().ok())
                                .ok_or_else(|| err(lineno, "bad gauge value".into()))?,
                        ),
                        "histogram" => {
                            let sum = tok
                                .next()
                                .and_then(|t| t.parse().ok())
                                .ok_or_else(|| err(lineno, "bad histogram sum".into()))?;
                            let count = tok
                                .next()
                                .and_then(|t| t.parse().ok())
                                .ok_or_else(|| err(lineno, "bad histogram count".into()))?;
                            let mut buckets = Vec::with_capacity(HIST_BOUNDS.len() + 1);
                            for _ in 0..=HIST_BOUNDS.len() {
                                buckets.push(tok.next().and_then(|t| t.parse().ok()).ok_or_else(
                                    || err(lineno, "truncated histogram buckets".into()),
                                )?);
                            }
                            SnapValue::Histogram {
                                buckets,
                                sum,
                                count,
                            }
                        }
                        other => return Err(err(lineno, format!("unknown sample kind {other:?}"))),
                    };
                    if tok.next().is_some() {
                        return Err(err(lineno, "trailing tokens after sample".into()));
                    }
                    family.samples.push(SnapSample { labels, value });
                }
                Some("end") => {
                    let n: usize = tok
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| err(lineno, "end lacks a family count".into()))?;
                    if n != snap.families.len() {
                        return Err(err(
                            lineno,
                            format!("end says {n} families, read {}", snap.families.len()),
                        ));
                    }
                    ended = true;
                }
                _ => return Err(err(lineno, format!("unknown line {line:?}"))),
            }
        }
        if !ended {
            return Err(err(0, "truncated snapshot (no end line)".into()));
        }
        Ok(snap)
    }
}

impl MetricsRegistry {
    /// Captures a point-in-time [`MetricsSnapshot`] of every family and
    /// sample. Relaxed reads — a snapshot taken while writers are
    /// active is per-cell consistent, which is all fleet aggregation
    /// needs.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        MetricsSnapshot {
            families: inner
                .families
                .iter()
                .map(|family| SnapFamily {
                    name: family.name.clone(),
                    help: family.help.clone(),
                    samples: family
                        .samples
                        .iter()
                        .map(|sample| SnapSample {
                            labels: sample.labels.clone(),
                            value: match &sample.cell {
                                Cell::Counter(h) => SnapValue::Counter(h.get()),
                                Cell::Gauge(h) => SnapValue::Gauge(h.get()),
                                Cell::Histogram(h) => SnapValue::Histogram {
                                    buckets: h
                                        .0
                                        .buckets
                                        .iter()
                                        .map(|b| b.load(Ordering::Relaxed))
                                        .collect(),
                                    sum: h.sum(),
                                    count: h.count(),
                                },
                            },
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Folds a snapshot into this registry: counters and histograms
    /// accumulate, gauges add (fleet gauges are sums — two workers with
    /// queue depth 3 merge to 6). Families and samples the registry has
    /// not seen are registered on the fly (in the snapshot's order), so
    /// merging heterogeneous worker registries is total.
    ///
    /// # Panics
    ///
    /// Panics if a snapshot sample's kind contradicts an existing
    /// registration — the same loud failure as direct re-registration.
    pub fn merge(&self, snap: &MetricsSnapshot) {
        for family in &snap.families {
            for sample in &family.samples {
                let labels: Vec<(&str, &str)> = sample
                    .labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                match &sample.value {
                    SnapValue::Counter(v) => {
                        self.counter(&family.name, &family.help, &labels).add(*v);
                    }
                    SnapValue::Gauge(v) => {
                        self.gauge(&family.name, &family.help, &labels).add(*v);
                    }
                    SnapValue::Histogram {
                        buckets,
                        sum,
                        count,
                    } => {
                        let h = self.histogram(&family.name, &family.help, &labels);
                        for (i, b) in buckets.iter().take(h.0.buckets.len()).enumerate() {
                            h.0.buckets[i].fetch_add(*b, Ordering::Relaxed);
                        }
                        h.0.sum.fetch_add(*sum, Ordering::Relaxed);
                        h.0.count.fetch_add(*count, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    /// Renders this registry's own state plus every snapshot in `snaps`
    /// folded together, as one Prometheus exposition — the fleet view a
    /// coordinator exports. Non-destructive: neither this registry nor
    /// the snapshots are modified. Deterministic: this registry's
    /// families first (registration order), then unseen families in
    /// snapshot order.
    pub fn render_merged(&self, snaps: &[MetricsSnapshot]) -> String {
        let merged = MetricsRegistry::new();
        merged.merge(&self.snapshot());
        for snap in snaps {
            merged.merge(snap);
        }
        merged.render_prometheus()
    }
}

/// Running metrics endpoint; shuts down (and joins its thread) on drop.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal the accept loop to exit and wait for it.
    pub fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Unblock the accept() call with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_one(registry: &MetricsRegistry, mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(std::time::Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(std::time::Duration::from_secs(2)))?;
    // One read is enough for any real scrape request line; we only route on
    // the method and path and ignore headers/bodies.
    let mut buf = [0u8; 1024];
    let n = stream.read(&mut buf)?;
    let request = String::from_utf8_lossy(&buf[..n]);
    let mut parts = request.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            String::from("method not allowed\n"),
        )
    } else if path == "/metrics" || path == "/" {
        ("200 OK", registry.render_prometheus())
    } else {
        ("404 Not Found", String::from("not found\n"))
    };
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate_through_clones() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("bgr_widgets_total", "Widgets made.", &[]);
        let c2 = c.clone();
        c.inc();
        c2.add(4);
        assert_eq!(c.get(), 5);
        // Re-registration attaches to the same cell.
        let again = registry.counter("bgr_widgets_total", "Widgets made.", &[]);
        assert_eq!(again.get(), 5);

        let g = registry.gauge("bgr_depth", "Depth.", &[]);
        g.set(7);
        g.sub(2);
        g.add(1);
        assert_eq!(g.get(), 6);
    }

    #[test]
    fn histogram_buckets_are_power_of_two_and_cumulative() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("bgr_lat_us", "Latency.", &[]);
        h.observe(1); // le=1
        h.observe(2); // le=2
        h.observe(3); // le=4
        h.observe(1_000_000); // +Inf
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1_000_006);
        let text = registry.render_prometheus();
        assert!(text.contains("bgr_lat_us_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("bgr_lat_us_bucket{le=\"2\"} 2\n"));
        assert!(text.contains("bgr_lat_us_bucket{le=\"4\"} 3\n"));
        assert!(text.contains("bgr_lat_us_bucket{le=\"524288\"} 3\n"));
        assert!(text.contains("bgr_lat_us_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("bgr_lat_us_sum 1000006\n"));
        assert!(text.contains("bgr_lat_us_count 4\n"));
    }

    #[test]
    fn golden_exposition_format() {
        let registry = MetricsRegistry::new();
        let jobs = registry.counter(
            "bgr_jobs_total",
            "Jobs by terminal state.",
            &[("state", "completed")],
        );
        registry.counter(
            "bgr_jobs_total",
            "Jobs by terminal state.",
            &[("state", "failed")],
        );
        let depth = registry.gauge("bgr_queue_depth", "Unsettled jobs in the queue.", &[]);
        let lat = registry.histogram("bgr_slice_latency_us", "Slice wall time (µs).", &[]);
        jobs.add(2);
        depth.set(3);
        lat.observe(2);
        lat.observe(600_000);

        let expected = "\
# HELP bgr_jobs_total Jobs by terminal state.
# TYPE bgr_jobs_total counter
bgr_jobs_total{state=\"completed\"} 2
bgr_jobs_total{state=\"failed\"} 0
# HELP bgr_queue_depth Unsettled jobs in the queue.
# TYPE bgr_queue_depth gauge
bgr_queue_depth 3
# HELP bgr_slice_latency_us Slice wall time (µs).
# TYPE bgr_slice_latency_us histogram
bgr_slice_latency_us_bucket{le=\"1\"} 0
bgr_slice_latency_us_bucket{le=\"2\"} 1
bgr_slice_latency_us_bucket{le=\"4\"} 1
bgr_slice_latency_us_bucket{le=\"8\"} 1
bgr_slice_latency_us_bucket{le=\"16\"} 1
bgr_slice_latency_us_bucket{le=\"32\"} 1
bgr_slice_latency_us_bucket{le=\"64\"} 1
bgr_slice_latency_us_bucket{le=\"128\"} 1
bgr_slice_latency_us_bucket{le=\"256\"} 1
bgr_slice_latency_us_bucket{le=\"512\"} 1
bgr_slice_latency_us_bucket{le=\"1024\"} 1
bgr_slice_latency_us_bucket{le=\"2048\"} 1
bgr_slice_latency_us_bucket{le=\"4096\"} 1
bgr_slice_latency_us_bucket{le=\"8192\"} 1
bgr_slice_latency_us_bucket{le=\"16384\"} 1
bgr_slice_latency_us_bucket{le=\"32768\"} 1
bgr_slice_latency_us_bucket{le=\"65536\"} 1
bgr_slice_latency_us_bucket{le=\"131072\"} 1
bgr_slice_latency_us_bucket{le=\"262144\"} 1
bgr_slice_latency_us_bucket{le=\"524288\"} 1
bgr_slice_latency_us_bucket{le=\"+Inf\"} 2
bgr_slice_latency_us_sum 600002
bgr_slice_latency_us_count 2
";
        assert_eq!(registry.render_prometheus(), expected);
    }

    #[test]
    fn label_values_are_escaped() {
        let registry = MetricsRegistry::new();
        registry.counter(
            "bgr_esc_total",
            "Line one\nline two \\ end.",
            &[("job", "a\"b\\c\nd")],
        );
        let text = registry.render_prometheus();
        assert!(text.contains("# HELP bgr_esc_total Line one\\nline two \\\\ end.\n"));
        assert!(text.contains("bgr_esc_total{job=\"a\\\"b\\\\c\\nd\"} 0\n"));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_is_loud() {
        let registry = MetricsRegistry::new();
        registry.counter("bgr_x", "x", &[]);
        registry.gauge("bgr_x", "x", &[]);
    }

    #[test]
    fn concurrent_updates_are_lossless() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("bgr_conc_total", "c", &[]);
        let h = registry.histogram("bgr_conc_us", "h", &[]);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.observe(i % 64);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("worker panicked");
        }
        assert_eq!(c.get(), 8000);
        assert_eq!(h.count(), 8000);
    }

    #[test]
    fn http_endpoint_serves_exposition() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("bgr_http_total", "Scraped.", &[]);
        c.add(9);
        let mut server = registry
            .serve_http(("127.0.0.1", 0))
            .expect("bind loopback");
        let addr = server.addr();

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
            .expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.contains("Content-Type: text/plain; version=0.0.4"));
        assert!(response.contains("bgr_http_total 9\n"));

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /nope HTTP/1.1\r\n\r\n")
            .expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        assert!(
            response.starts_with("HTTP/1.1 404 Not Found\r\n"),
            "{response}"
        );

        server.shutdown();
    }

    #[test]
    fn snapshot_round_trips_through_wire_text() {
        let registry = MetricsRegistry::new();
        registry
            .counter("bgr_w_total", "Widgets, with \"quotes\" and\nnewline.", &[])
            .add(7);
        registry
            .gauge("bgr_depth", "Depth now.", &[("worker", "w one")])
            .set(-3);
        let h = registry.histogram("bgr_lat_us", "Latency.", &[]);
        h.observe(3);
        h.observe(999_999);
        let snap = registry.snapshot();
        let text = snap.to_text();
        let back = MetricsSnapshot::parse(&text).expect("round-trip parses");
        assert_eq!(back, snap);
        // Empty-string tokens survive the escaping.
        let registry2 = MetricsRegistry::new();
        registry2.counter("bgr_e_total", "", &[("k", "")]).inc();
        let snap2 = registry2.snapshot();
        assert_eq!(
            MetricsSnapshot::parse(&snap2.to_text()).expect("empty tokens parse"),
            snap2
        );
    }

    #[test]
    fn snapshot_parse_rejects_damage_structurally() {
        let registry = MetricsRegistry::new();
        registry.counter("bgr_d_total", "d", &[("a", "b")]).add(2);
        registry.histogram("bgr_d_us", "h", &[]).observe(5);
        let text = registry.snapshot().to_text();
        // Truncation at every line boundary (losing `end` must fail).
        let lines: Vec<&str> = text.lines().collect();
        for keep in 0..lines.len() {
            let cut = lines[..keep].join("\n");
            assert!(
                MetricsSnapshot::parse(&cut).is_err(),
                "cut after {keep} lines parsed cleanly"
            );
        }
        for (damaged, what) in [
            (text.replacen("v1", "v2", 1), "version skew"),
            (text.replacen("counter", "conter", 1), "bad kind"),
            (text.replacen("sample 1", "sample 9", 1), "label count lie"),
            (text.replacen("end 2", "end 7", 1), "family count lie"),
            (format!("{text}family x y\n"), "content after end"),
        ] {
            assert_ne!(damaged, text, "{what}: mutation did not apply");
            assert!(
                MetricsSnapshot::parse(&damaged).is_err(),
                "{what} parsed cleanly"
            );
        }
    }

    #[test]
    fn merged_fleet_exposition_is_golden() {
        // Two workers with overlapping families plus a coordinator-only
        // family; the merged exposition sums counters/gauges/histograms
        // and appends unseen families in snapshot order.
        let coord = MetricsRegistry::new();
        coord
            .counter("bgr_slices_total", "Job slices executed", &[])
            .add(1);
        let w1 = MetricsRegistry::new();
        w1.counter("bgr_slices_total", "Job slices executed", &[])
            .add(4);
        w1.gauge("bgr_queue_depth", "Depth", &[]).set(2);
        let h1 = w1.histogram("bgr_slice_latency_us", "Latency", &[]);
        h1.observe(2);
        let w2 = MetricsRegistry::new();
        w2.counter("bgr_slices_total", "Job slices executed", &[])
            .add(5);
        w2.gauge("bgr_queue_depth", "Depth", &[]).set(3);
        let h2 = w2.histogram("bgr_slice_latency_us", "Latency", &[]);
        h2.observe(2);
        h2.observe(600_000);
        w2.counter(
            "bgr_worker_only_total",
            "Only worker 2 has this",
            &[("worker", "w2")],
        )
        .add(8);

        // Ship both worker registries through the wire text, as the
        // coordinator receives them.
        let snaps = [
            MetricsSnapshot::parse(&w1.snapshot().to_text()).expect("w1 wire round-trip"),
            MetricsSnapshot::parse(&w2.snapshot().to_text()).expect("w2 wire round-trip"),
        ];
        let merged = coord.render_merged(&snaps);
        let expected = "\
# HELP bgr_slices_total Job slices executed
# TYPE bgr_slices_total counter
bgr_slices_total 10
# HELP bgr_queue_depth Depth
# TYPE bgr_queue_depth gauge
bgr_queue_depth 5
# HELP bgr_slice_latency_us Latency
# TYPE bgr_slice_latency_us histogram
bgr_slice_latency_us_bucket{le=\"1\"} 0
bgr_slice_latency_us_bucket{le=\"2\"} 2
bgr_slice_latency_us_bucket{le=\"4\"} 2
bgr_slice_latency_us_bucket{le=\"8\"} 2
bgr_slice_latency_us_bucket{le=\"16\"} 2
bgr_slice_latency_us_bucket{le=\"32\"} 2
bgr_slice_latency_us_bucket{le=\"64\"} 2
bgr_slice_latency_us_bucket{le=\"128\"} 2
bgr_slice_latency_us_bucket{le=\"256\"} 2
bgr_slice_latency_us_bucket{le=\"512\"} 2
bgr_slice_latency_us_bucket{le=\"1024\"} 2
bgr_slice_latency_us_bucket{le=\"2048\"} 2
bgr_slice_latency_us_bucket{le=\"4096\"} 2
bgr_slice_latency_us_bucket{le=\"8192\"} 2
bgr_slice_latency_us_bucket{le=\"16384\"} 2
bgr_slice_latency_us_bucket{le=\"32768\"} 2
bgr_slice_latency_us_bucket{le=\"65536\"} 2
bgr_slice_latency_us_bucket{le=\"131072\"} 2
bgr_slice_latency_us_bucket{le=\"262144\"} 2
bgr_slice_latency_us_bucket{le=\"524288\"} 2
bgr_slice_latency_us_bucket{le=\"+Inf\"} 3
bgr_slice_latency_us_sum 600004
bgr_slice_latency_us_count 3
# HELP bgr_worker_only_total Only worker 2 has this
# TYPE bgr_worker_only_total counter
bgr_worker_only_total{worker=\"w2\"} 8
";
        assert_eq!(merged, expected);
        // render_merged is non-destructive: the coordinator registry
        // still reads its own values.
        assert_eq!(
            coord
                .counter("bgr_slices_total", "Job slices executed", &[])
                .get(),
            1
        );
        // merge() itself accumulates when called repeatedly.
        let fold = MetricsRegistry::new();
        fold.merge(&snaps[0]);
        fold.merge(&snaps[0]);
        assert_eq!(
            fold.counter("bgr_slices_total", "Job slices executed", &[])
                .get(),
            8
        );
    }

    #[test]
    fn file_sink_round_trips() {
        let registry = MetricsRegistry::new();
        registry.gauge("bgr_file_gauge", "g", &[]).set(-4);
        let dir = std::env::temp_dir().join("bgr_metrics_test");
        let path = dir.join("metrics.prom");
        registry.write_to_file(&path).expect("write metrics file");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text, registry.render_prometheus());
        assert!(text.contains("bgr_file_gauge -4\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
