//! The progress/heartbeat stream: one [`ProgressSink`] trait, three
//! sinks.
//!
//! Every long-running command (replication runs, sweeps, the optimize
//! search) reports through a `ProgressSink` instead of printing ad-hoc
//! heartbeats. Sinks receive [`ProgressSnapshot`]s, which split into:
//!
//! * **deterministic core** — `label`, `completed`, `total`. Producers
//!   serialize emission so snapshots arrive in strictly increasing
//!   `completed` order; [`JsonlSink`] writes *only* these fields, which
//!   is what makes a `--progress` JSONL file byte-identical across
//!   `--jobs 1` and `--jobs 8`;
//! * **provenance** — events/sec, ETA, worker count, a free-form
//!   detail string. Wall-clock-derived and scheduling-dependent, so
//!   only the (stderr, human-eyes-only) [`HumanSink`] renders them.
//!
//! The `--quiet` contract lives at sink construction: quiet (or
//! machine-output) modes drop the `HumanSink`, while an explicitly
//! requested `--progress FILE` stream stays active — like `--csv`, a
//! file the user asked for is output, not chatter.

use std::fmt::Write as _;
use std::io::Write;
use std::sync::Mutex;

use crate::json_escape;

/// One progress report. See the [module docs](self) for which fields
/// are deterministic.
#[derive(Debug, Clone, Copy)]
pub struct ProgressSnapshot<'a> {
    /// What is progressing (e.g. `"fig4"`, `"replications"`).
    pub label: &'a str,
    /// Work units finished so far.
    pub completed: usize,
    /// Total planned work units.
    pub total: usize,
    /// Free-form human detail for the unit just finished (provenance).
    pub detail: Option<&'a str>,
    /// Recent simulation throughput (provenance).
    pub events_per_sec: Option<f64>,
    /// Estimated seconds to completion (provenance).
    pub eta_secs: Option<f64>,
    /// Live worker threads (provenance).
    pub workers: Option<usize>,
}

impl<'a> ProgressSnapshot<'a> {
    /// A snapshot with just the deterministic core filled in.
    #[must_use]
    pub fn new(label: &'a str, completed: usize, total: usize) -> ProgressSnapshot<'a> {
        ProgressSnapshot {
            label,
            completed,
            total,
            detail: None,
            events_per_sec: None,
            eta_secs: None,
            workers: None,
        }
    }
}

/// Receives progress snapshots and one-off status messages.
///
/// Implementations must tolerate concurrent calls (`Send + Sync`);
/// producers serialize `progress` calls per stream so `completed`
/// arrives strictly increasing.
pub trait ProgressSink: Send + Sync {
    /// A work unit finished (or a periodic heartbeat fired).
    fn progress(&self, snapshot: &ProgressSnapshot<'_>);

    /// A one-off human status line (e.g. a completion summary). May
    /// carry wall-clock text; deterministic sinks ignore it.
    fn message(&self, text: &str) {
        let _ = text;
    }
}

/// Discards everything — the `--quiet` terminal of the sink tree.
#[derive(Debug, Default)]
pub struct NullSink;

impl ProgressSink for NullSink {
    fn progress(&self, _snapshot: &ProgressSnapshot<'_>) {}
}

/// Renders heartbeats on stderr for a human watching the run.
#[derive(Debug, Default)]
pub struct HumanSink;

impl HumanSink {
    fn render(snapshot: &ProgressSnapshot<'_>) -> String {
        let mut line = format!(
            "  [{}/{}] {}",
            snapshot.completed,
            snapshot.total,
            snapshot.detail.unwrap_or(snapshot.label)
        );
        let mut extras: Vec<String> = Vec::new();
        if let Some(eps) = snapshot.events_per_sec {
            extras.push(format!("{:.2} Mev/s", eps / 1.0e6));
        }
        if let Some(eta) = snapshot.eta_secs {
            extras.push(format!("eta {eta:.0}s"));
        }
        if let Some(w) = snapshot.workers {
            extras.push(format!("{w} workers"));
        }
        if !extras.is_empty() {
            let _ = write!(line, " ({})", extras.join(", "));
        }
        line
    }
}

impl ProgressSink for HumanSink {
    fn progress(&self, snapshot: &ProgressSnapshot<'_>) {
        eprintln!("{}", HumanSink::render(snapshot));
    }

    fn message(&self, text: &str) {
        eprintln!("{text}");
    }
}

/// Streams deterministic progress records as JSON Lines to a writer.
///
/// Emits only the deterministic snapshot core, one object per line, so
/// the stream for a given workload is byte-identical at any worker
/// count (producers serialize emission in `completed` order). Ignores
/// [`ProgressSink::message`] — one-off messages are human chatter.
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// Wraps an arbitrary writer (tests use a shared buffer).
    #[must_use]
    pub fn new(out: Box<dyn Write + Send>) -> JsonlSink {
        JsonlSink {
            out: Mutex::new(out),
        }
    }

    /// Creates (truncating) `path` and streams to it.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: &str) -> std::io::Result<JsonlSink> {
        Ok(JsonlSink::new(Box::new(std::fs::File::create(path)?)))
    }

    /// One snapshot's deterministic JSONL record.
    #[must_use]
    pub fn render(snapshot: &ProgressSnapshot<'_>) -> String {
        format!(
            "{{\"kind\":\"progress\",\"label\":\"{}\",\"completed\":{},\"total\":{}}}",
            json_escape(snapshot.label),
            snapshot.completed,
            snapshot.total
        )
    }
}

impl ProgressSink for JsonlSink {
    fn progress(&self, snapshot: &ProgressSnapshot<'_>) {
        let line = JsonlSink::render(snapshot);
        let mut out = self.out.lock().expect("progress writer poisoned");
        // Flush per line: progress is a live stream, and a crashed run
        // should leave every completed unit on disk.
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}

/// Fans every call out to a list of sinks.
#[derive(Default)]
pub struct MultiSink {
    sinks: Vec<Box<dyn ProgressSink>>,
}

impl std::fmt::Debug for MultiSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiSink")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl MultiSink {
    /// An empty fan-out (equivalent to [`NullSink`]).
    #[must_use]
    pub fn new() -> MultiSink {
        MultiSink::default()
    }

    /// Adds a sink.
    pub fn push(&mut self, sink: Box<dyn ProgressSink>) {
        self.sinks.push(sink);
    }

    /// Number of attached sinks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// True when no sinks are attached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl ProgressSink for MultiSink {
    fn progress(&self, snapshot: &ProgressSnapshot<'_>) {
        for sink in &self.sinks {
            sink.progress(snapshot);
        }
    }

    fn message(&self, text: &str) {
        for sink in &self.sinks {
            sink.message(text);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A Write handle into shared memory, for asserting emitted bytes.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_emits_only_deterministic_fields() {
        let buf = SharedBuf::default();
        let sink = JsonlSink::new(Box::new(buf.clone()));
        let mut snap = ProgressSnapshot::new("fig4", 3, 20);
        snap.detail = Some("base x=4096 done");
        snap.events_per_sec = Some(1.5e6);
        snap.eta_secs = Some(12.0);
        snap.workers = Some(8);
        sink.progress(&snap);
        sink.message("sweep: done in 3.2 s");
        let got = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(
            got,
            "{\"kind\":\"progress\",\"label\":\"fig4\",\"completed\":3,\"total\":20}\n"
        );
    }

    #[test]
    fn human_sink_renders_provenance() {
        let mut snap = ProgressSnapshot::new("fig4", 3, 20);
        snap.detail = Some("base x=4096 done");
        snap.events_per_sec = Some(1.5e6);
        snap.eta_secs = Some(12.0);
        let line = HumanSink::render(&snap);
        assert_eq!(line, "  [3/20] base x=4096 done (1.50 Mev/s, eta 12s)");
        let bare = HumanSink::render(&ProgressSnapshot::new("replications", 1, 4));
        assert_eq!(bare, "  [1/4] replications");
    }

    #[test]
    fn multi_sink_fans_out() {
        let buf = SharedBuf::default();
        let mut multi = MultiSink::new();
        assert!(multi.is_empty());
        multi.push(Box::new(NullSink));
        multi.push(Box::new(JsonlSink::new(Box::new(buf.clone()))));
        assert_eq!(multi.len(), 2);
        multi.progress(&ProgressSnapshot::new("x", 1, 2));
        multi.progress(&ProgressSnapshot::new("x", 2, 2));
        let got = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(got.lines().count(), 2);
    }
}
