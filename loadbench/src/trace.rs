//! Spans recorded by the benchmark's own code, and the timing `Vfs`.
//!
//! Spans are kept in memory and written out as JSON Lines when the run
//! ends. Recording is switched on and off at run time, so a traced run
//! can alternate traced and untraced blocks on one rig and report the
//! tracing overhead.

use cogsdk_core::gateway::QueryHandler;
use cogsdk_sim::fs::{FsError, Vfs};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One timed stage of one request.
#[derive(Debug)]
struct Span {
    /// Stage name, e.g. `client.request` or `kb.query_handler`.
    name: &'static str,
    /// The request this stage served (0 when not tied to one).
    request: u64,
    /// Start, relative to the recorder's epoch.
    start: Duration,
    len: Duration,
}

/// The in-memory span store.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    on: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    /// A recorder that starts switched off.
    pub fn new() -> Arc<Spans> {
        Arc::new(Spans {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Switches recording on or off.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Records a stage that started at `start` and ends now, if on.
    pub fn record(&self, name: &'static str, request: u64, start: Instant) {
        if self.is_on() {
            self.push(name, request, start, start.elapsed());
        }
    }

    /// Records a stage of known length, regardless of the switch.
    pub fn push(&self, name: &'static str, request: u64, start: Instant, len: Duration) {
        let span = Span {
            name,
            request,
            start: start.saturating_duration_since(self.epoch),
            len,
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Durations in microseconds of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span store poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.len.as_secs_f64() * 1e6)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span store poisoned").iter() {
            writeln!(
                out,
                r#"{{"name":"{}","request":{},"start_us":{:.3},"dur_us":{:.3}}}"#,
                s.name,
                s.request,
                s.start.as_secs_f64() * 1e6,
                s.len.as_secs_f64() * 1e6
            )?;
        }
        out.flush()
    }
}

/// Wraps a gateway handler (`/query` or `/ingest/bulk`; both hooks share
/// one type) in a span named `name`.
pub fn traced_handler(inner: QueryHandler, spans: Arc<Spans>, name: &'static str) -> QueryHandler {
    Box::new(move |request| {
        let start = Instant::now();
        let out = inner(request);
        spans.record(name, 0, start);
        out
    })
}

/// Call counts, bytes and busy time of one `Vfs` operation.
#[derive(Debug, Default)]
pub struct OpCounter {
    calls: AtomicU64,
    bytes: AtomicU64,
    nanos: AtomicU64,
}

impl OpCounter {
    fn add(&self, bytes: usize, start: Instant) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// `(calls, bytes, busy ms)` so far.
    pub fn read(&self) -> (u64, u64, f64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
            self.nanos.load(Ordering::Relaxed) as f64 / 1e6,
        )
    }
}

/// A `Vfs` that forwards to another and counts and times every call —
/// the benchmark's view into the storage layer.
pub struct TimingFs {
    inner: Arc<dyn Vfs>,
    /// `append` calls.
    pub append: OpCounter,
    /// `write` calls.
    pub write: OpCounter,
    /// `fsync` calls.
    pub fsync: OpCounter,
    /// `read` calls.
    pub read: OpCounter,
}

impl TimingFs {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn Vfs>) -> Arc<TimingFs> {
        Arc::new(TimingFs {
            inner,
            append: OpCounter::default(),
            write: OpCounter::default(),
            fsync: OpCounter::default(),
            read: OpCounter::default(),
        })
    }
}

impl Vfs for TimingFs {
    fn read(&self, name: &str) -> Result<Vec<u8>, FsError> {
        let start = Instant::now();
        let out = self.inner.read(name);
        self.read
            .add(out.as_ref().map(Vec::len).unwrap_or(0), start);
        out
    }

    fn write(&self, name: &str, data: &[u8]) -> Result<(), FsError> {
        let start = Instant::now();
        let out = self.inner.write(name, data);
        self.write.add(data.len(), start);
        out
    }

    fn append(&self, name: &str, data: &[u8]) -> Result<(), FsError> {
        let start = Instant::now();
        let out = self.inner.append(name, data);
        self.append.add(data.len(), start);
        out
    }

    fn fsync(&self, name: &str) -> Result<(), FsError> {
        let start = Instant::now();
        let out = self.inner.fsync(name);
        self.fsync.add(0, start);
        out
    }

    fn rename(&self, from: &str, to: &str) -> Result<(), FsError> {
        self.inner.rename(from, to)
    }

    fn delete(&self, name: &str) -> Result<(), FsError> {
        self.inner.delete(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn list(&self) -> Result<Vec<String>, FsError> {
        self.inner.list()
    }

    fn size(&self, name: &str) -> Result<usize, FsError> {
        self.inner.size(name)
    }
}
