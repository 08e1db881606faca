//! Storage-side tracing: a [`StorageMedium`] wrapper that records a span
//! around every append and fsync the durable store issues, so WAL and
//! run-file I/O show up as their own layers under the store's calls,
//! and timed probes of a run's learned and binary-search lookups.

use std::hint::black_box;
use std::rc::Rc;

use ml4db_storage::durable::{IoFault, Run, RunEntry, StorageMedium};

use crate::trace::Tracer;

/// Repetitions of one run probe inside its span, so the per-call time
/// is not dominated by reading the clock.
pub const PROBE_REPS: u32 = 8;

/// Times `Run::get` (the gated learned index) against
/// `Run::get_unindexed` (binary search) on `key`, each repeated
/// [`PROBE_REPS`] times in one span, named by whether `key` is expected
/// in the run. Returns whether both found exactly what `hit` says.
pub fn probe_run(tr: &Tracer, run: &Run, key: u64, hit: bool) -> bool {
    let (learned, binary) = if hit {
        ("storage.run.get_hit", "storage.run.binary_hit")
    } else {
        ("storage.run.get_miss", "storage.run.binary_miss")
    };
    let repeat = |probe: &dyn Fn(u64) -> Option<RunEntry>| {
        let mut found = None;
        for _ in 0..PROBE_REPS {
            found = black_box(probe(black_box(key)));
        }
        found
    };
    let a = tr.span(learned, || repeat(&|k| run.get(k)));
    let b = tr.span(binary, || repeat(&|k| run.get_unindexed(k)));
    a == b && a.is_some() == hit
}

/// Forwards to `inner`, tracing appends and syncs by file kind: WAL
/// segments (`wal-*`) are `storage.wal`, run files are `storage.run`.
pub struct TracedMedium<M> {
    inner: M,
    tracer: Rc<Tracer>,
    /// Bytes appended to WAL segments.
    pub wal_bytes: u64,
}

impl<M> TracedMedium<M> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: M, tracer: Rc<Tracer>) -> Self {
        Self {
            inner,
            tracer,
            wal_bytes: 0,
        }
    }
}

fn is_wal(name: &str) -> bool {
    name.starts_with("wal-")
}

impl<M: StorageMedium> StorageMedium for TracedMedium<M> {
    fn create(&mut self, name: &str) -> Result<(), IoFault> {
        self.inner.create(name)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), IoFault> {
        let wal = is_wal(name);
        let span = if wal {
            "storage.wal.append"
        } else {
            "storage.run.write"
        };
        let r = self.tracer.span(span, || self.inner.append(name, data));
        if wal && r.is_ok() {
            self.wal_bytes += data.len() as u64;
        }
        r
    }

    fn sync(&mut self, name: &str) -> Result<(), IoFault> {
        let span = if is_wal(name) {
            "storage.wal.sync"
        } else {
            "storage.run.sync"
        };
        self.tracer.span(span, || self.inner.sync(name))
    }

    fn read(&mut self, name: &str) -> Result<Vec<u8>, IoFault> {
        self.inner.read(name)
    }

    fn delete(&mut self, name: &str) -> Result<(), IoFault> {
        self.inner.delete(name)
    }

    fn list(&mut self) -> Result<Vec<String>, IoFault> {
        self.inner.list()
    }

    fn len(&mut self, name: &str) -> Result<u64, IoFault> {
        self.inner.len(name)
    }
}
