//! The `kv_ingest` workload: the durable store the serving journal
//! uses, driven as a key-value store that reads beside its writes.
//!
//! One closed-loop client over a 1M-key space runs rounds of 64 `put`s,
//! one `commit` (a WAL commit frame plus its sync barrier), then 64
//! `get`s: half on keys already written, half on keys never written.
//! The store keeps its default `StoreConfig`: the memtable flushes into
//! an immutable run behind the gated PGM index once it holds 1024 keys,
//! WAL segments rotate at 16 KiB, and sync barriers and checksums are on.
//!
//! The store runs on `SimDisk`, the in-memory medium with an explicit
//! volatile/durable boundary, not on `FsMedium`: on a shared host the
//! latency of a real fsync drifts by a third from one minute to the
//! next, more than any bound a regression gate can use. Real file I/O is
//! still on the serving workloads' request journal.
//!
//! The store has no compaction, so its runs, and with them the cost of
//! a get, grow for as long as it ingests. The run is therefore made of
//! cycles of a fixed size: each cycle creates a fresh store, ingests
//! [`CYCLE_ROUNDS`] rounds, loses power (every byte not yet synced is
//! dropped), reopens the store with `DurableStore::open` and verifies
//! it. Every cycle does the same work, so no figure depends on how far a
//! run got.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use ml4db_storage::durable::{
    DurableStore, FaultSpec, RecoveryReport, RunIndex, SimDisk, StorageMedium, StoreConfig,
    TailPolicy,
};

use crate::medium::{probe_run, TracedMedium};
use crate::serve::put_store_metrics;
use crate::stats::{self, ChunkedQuantiles, Host};
use crate::trace::Tracer;
use crate::{Args, Metric, Report};

/// Distinct keys a put may write.
const KEY_SPACE: u64 = 1_000_000;
/// Puts (and gets) per round.
const BATCH: usize = 64;
/// Rounds per cycle: 65,536 records, 64 memtable flushes.
pub const CYCLE_ROUNDS: usize = 1024;
/// Reopens per cycle; the cycle's recovery time is their median.
const RECOVERY_REPS: usize = 5;
/// Most cycles a traced run measures and replays, which bounds the
/// spans it keeps in memory (about 340 per round).
const TRACE_CYCLES: u64 = 4;

/// One cycle's pre-generated key stream. Written keys are even and
/// never-written keys odd, so a miss is a miss whatever was written.
struct Ops {
    puts: Vec<(u64, u64)>,
    /// Raw draws; the even-numbered get of a round picks a written key
    /// with its draw, the odd-numbered one an odd key.
    get_draws: Vec<u64>,
}

impl Ops {
    fn generate(seed: u64, cycle: u64) -> Self {
        let salt = (cycle + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6B76_5F69_6E67_6573 ^ salt);
        let n = CYCLE_ROUNDS * BATCH;
        let puts = (0..n)
            .map(|_| (2 * rng.gen_range(0..KEY_SPACE), rng.next_u64()))
            .collect();
        let get_draws = (0..n).map(|_| rng.next_u64()).collect();
        Self { puts, get_draws }
    }

    fn get_key(&self, round: usize, j: usize, written: &[u64]) -> u64 {
        let draw = self.get_draws[round * BATCH + j];
        if j & 1 == 0 && !written.is_empty() {
            written[(draw % written.len() as u64) as usize]
        } else {
            2 * (draw % KEY_SPACE) + 1
        }
    }
}

/// Acknowledged state the outputs are checked against.
#[derive(Default)]
struct Model {
    map: BTreeMap<u64, u64>,
    written: Vec<u64>,
}

/// Per-round hooks: the untraced run times calls, the traced replay
/// records spans. `round` drives one round through either.
trait Probe<M: StorageMedium> {
    fn put(&mut self, store: &mut DurableStore<M>, k: u64, v: u64) -> Result<(), String>;
    fn commit(&mut self, store: &mut DurableStore<M>) -> Result<(), String>;
    fn get(&mut self, store: &DurableStore<M>, k: u64) -> Option<u64>;
}

fn round<M: StorageMedium>(
    store: &mut DurableStore<M>,
    ops: &Ops,
    r: usize,
    model: &mut Model,
    probe: &mut impl Probe<M>,
    perturb: bool,
) -> Result<(), String> {
    let batch = &ops.puts[r * BATCH..(r + 1) * BATCH];
    for &(k, v) in batch {
        probe.put(store, k, v)?;
    }
    probe.commit(store)?;
    for &(k, v) in batch {
        if model.map.insert(k, v).is_none() {
            model.written.push(k);
        }
    }
    if perturb && r == 0 {
        *model.map.get_mut(&batch[0].0).expect("just acknowledged") ^= 1;
    }
    for j in 0..BATCH {
        let k = ops.get_key(r, j, &model.written);
        let got = probe.get(store, k);
        let want = model.map.get(&k).copied();
        if got != want {
            return Err(format!(
                "get({k}) returned {got:?}, acknowledged state has {want:?}"
            ));
        }
    }
    Ok(())
}

/// The untraced run's timings.
#[derive(Default)]
struct Timed {
    commit_ns: Vec<f64>,
    /// Whether each commit flushed the memtable.
    flushed: Vec<bool>,
    get_ns: Vec<f64>,
}

impl Probe<SimDisk> for Timed {
    fn put(&mut self, store: &mut DurableStore<SimDisk>, k: u64, v: u64) -> Result<(), String> {
        store.put(k, v).map_err(|e| format!("put: {e:?}"))
    }

    fn commit(&mut self, store: &mut DurableStore<SimDisk>) -> Result<(), String> {
        let runs = store.runs().len();
        let t = Instant::now();
        let r = store.commit();
        self.commit_ns.push(t.elapsed().as_nanos() as f64);
        self.flushed.push(store.runs().len() > runs);
        r.map(|_| ()).map_err(|e| format!("commit: {e:?}"))
    }

    fn get(&mut self, store: &DurableStore<SimDisk>, k: u64) -> Option<u64> {
        let t = Instant::now();
        let v = store.get(k);
        self.get_ns.push(t.elapsed().as_nanos() as f64);
        v
    }
}

/// The untraced run: timings, the counts the traced replay must
/// reproduce, and each cycle's set-up and reopen.
#[derive(Default)]
struct Measured {
    /// The current cycle's timings, folded into the quantiles below.
    timed: Timed,
    commit_us: ChunkedQuantiles,
    get_us: ChunkedQuantiles,
    /// Of the slowest 1% of each cycle's commits: (flushed, all).
    slowest_commits: (usize, usize),
    cycles: u64,
    /// Time spent ingesting (rounds only), per cycle.
    ingest_s: Vec<f64>,
    records: u64,
    /// Set-up time per cycle: stream generation and store creation.
    setup_s: Vec<f64>,
    wal_records: u64,
    wal_fsyncs: u64,
    runs: u64,
    /// Median reopen time per cycle.
    recovery_ms: Vec<f64>,
    recovery: RecoveryReport,
    disk_bytes: u64,
    /// Peak RSS per cycle.
    peak_rss_mb: Vec<f64>,
}

/// Runs whole cycles until `dur` of ingest time has passed or
/// `max_cycles` cycles have run.
fn measure(seed: u64, dur: Duration, max_cycles: u64, perturb: bool) -> Result<Measured, String> {
    let mut m = Measured::default();
    while m.cycles == 0
        || (m.cycles < max_cycles && m.ingest_s.iter().sum::<f64>() < dur.as_secs_f64())
    {
        stats::reset_peak_rss();
        let t = Instant::now();
        let ops = Ops::generate(seed, m.cycles);
        let mut store = DurableStore::create(SimDisk::new(), StoreConfig::default())
            .map_err(|e| format!("create store: {e:?}"))?;
        m.setup_s.push(t.elapsed().as_secs_f64());

        let mut model = Model::default();
        let start = Instant::now();
        for r in 0..CYCLE_ROUNDS {
            round(
                &mut store,
                &ops,
                r,
                &mut model,
                &mut m.timed,
                perturb && m.cycles == 0,
            )?;
        }
        m.ingest_s.push(start.elapsed().as_secs_f64());
        m.records += (CYCLE_ROUNDS * BATCH) as u64;
        m.wal_records += store.wal().next_seq() - 1;
        // Every commit syncs once, every segment rotation once, and every
        // flush once more after its checkpoint frame.
        let runs = store.runs().len() as u64;
        m.wal_fsyncs += store.acked_commits() + u64::from(store.wal().active_segment()) + runs;
        m.runs += runs;

        // Power loss right after the last acknowledged commit: every byte
        // not yet synced is dropped before the store is reopened.
        let mut disk = store.into_medium();
        disk.arm(FaultSpec::CrashAt {
            op: disk.ops(),
            tail: TailPolicy::DropAll,
        });
        if disk.list().is_ok() {
            return Err("the armed power loss did not fire".into());
        }
        disk.reboot(0);
        let mut reopen_ms = Vec::with_capacity(RECOVERY_REPS);
        for rep in 0..RECOVERY_REPS {
            let t = Instant::now();
            let (store, recovery) = DurableStore::open(disk, StoreConfig::default())
                .map_err(|e| format!("reopen store: {e:?}"))?;
            reopen_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if recovery.torn_tail || recovery.uncommitted_dropped != 0 {
                return Err(format!("recovery lost data: {recovery:?}"));
            }
            if rep == 0 {
                if store.committed_state() != model.map {
                    return Err("reopened store differs from the acknowledged writes".into());
                }
                m.recovery = recovery;
            }
            disk = store.into_medium();
        }
        m.recovery_ms.push(stats::median(&mut reopen_ms));
        m.disk_bytes += disk.durable_bytes();
        m.peak_rss_mb.push(stats::peak_rss_mb()?);
        m.cycles += 1;

        // Fold the cycle's timings away so the next cycle's peak RSS does
        // not grow with the ones kept.
        let t = &mut m.timed;
        m.commit_us
            .add(&t.commit_ns.iter().map(|ns| ns / 1e3).collect::<Vec<_>>());
        m.get_us
            .add(&t.get_ns.iter().map(|ns| ns / 1e3).collect::<Vec<_>>());
        let mut by_time: Vec<(f64, bool)> = t
            .commit_ns
            .iter()
            .copied()
            .zip(t.flushed.iter().copied())
            .collect();
        by_time.sort_by(|a, b| b.0.total_cmp(&a.0));
        let slowest = &by_time[..(by_time.len() / 100).max(1)];
        m.slowest_commits.0 += slowest.iter().filter(|(_, flushed)| *flushed).count();
        m.slowest_commits.1 += slowest.len();
        t.commit_ns.clear();
        t.flushed.clear();
        t.get_ns.clear();
    }
    Ok(m)
}

/// Traced-replay hooks: spans around the store calls, plus timed probes
/// of the one run `DurableStore::get` finds a key in (or the newest run
/// for a miss) through both `Run::get` and `Run::get_unindexed`.
struct Traced {
    tr: Rc<Tracer>,
    /// Keys put since the last commit.
    pending: Vec<u64>,
    /// Keys committed since the last flush: the memtable's key set.
    memtable: HashSet<u64>,
    /// Newest run holding each flushed key.
    run_of: HashMap<u64, usize>,
    mismatches: u64,
}

impl Traced {
    fn probe(&mut self, store: &DurableStore<TracedMedium<SimDisk>>, k: u64) {
        if self.memtable.contains(&k) {
            return;
        }
        let runs = store.runs();
        let (at, hit) = match self.run_of.get(&k) {
            Some(&i) => (i, true),
            None if !runs.is_empty() => (runs.len() - 1, false),
            None => return,
        };
        if !probe_run(&self.tr, &runs[at], k, hit) {
            self.mismatches += 1;
        }
    }
}

impl Probe<TracedMedium<SimDisk>> for Traced {
    fn put(
        &mut self,
        store: &mut DurableStore<TracedMedium<SimDisk>>,
        k: u64,
        v: u64,
    ) -> Result<(), String> {
        self.pending.push(k);
        self.tr
            .span("storage.store.put", || store.put(k, v))
            .map_err(|e| format!("put: {e:?}"))
    }

    fn commit(&mut self, store: &mut DurableStore<TracedMedium<SimDisk>>) -> Result<(), String> {
        let runs = store.runs().len();
        let id = self.tr.enter("storage.store.commit");
        let r = store.commit();
        self.tr.exit(id);
        r.map_err(|e| format!("commit: {e:?}"))?;
        self.memtable.extend(self.pending.drain(..));
        if store.runs().len() > runs {
            self.tr.rename(id, "storage.store.commit_flush");
            let run = store.runs().len() - 1;
            for k in self.memtable.drain() {
                self.run_of.insert(k, run);
            }
        }
        Ok(())
    }

    fn get(&mut self, store: &DurableStore<TracedMedium<SimDisk>>, k: u64) -> Option<u64> {
        let v = self.tr.span("storage.store.get", || store.get(k));
        self.probe(store, k);
        v
    }
}

/// What a replay of the run's cycles measured.
struct Replay {
    wall_s: f64,
    tr: Rc<Tracer>,
    mismatches: u64,
    wal_bytes: u64,
    runs: usize,
    learned_runs: usize,
}

/// Replays `cycles` cycles of the run's key stream, each on a fresh
/// store, timing only the rounds.
fn replay(seed: u64, cycles: u64, traced: bool) -> Result<Replay, String> {
    let tr = Rc::new(Tracer::new(traced));
    let mut out = Replay {
        wall_s: 0.0,
        tr: tr.clone(),
        mismatches: 0,
        wal_bytes: 0,
        runs: 0,
        learned_runs: 0,
    };
    for cycle in 0..cycles {
        let ops = Ops::generate(seed, cycle);
        let mut store = DurableStore::create(
            TracedMedium::new(SimDisk::new(), tr.clone()),
            StoreConfig::default(),
        )
        .map_err(|e| format!("create replay store: {e:?}"))?;
        let mut hooks = Traced {
            tr: tr.clone(),
            pending: Vec::new(),
            memtable: HashSet::new(),
            run_of: HashMap::new(),
            mismatches: 0,
        };
        let mut model = Model::default();
        let start = Instant::now();
        for r in 0..CYCLE_ROUNDS {
            tr.begin_request(cycle * CYCLE_ROUNDS as u64 + r as u64);
            let root = tr.enter("bench.request");
            round(&mut store, &ops, r, &mut model, &mut hooks, false)?;
            tr.exit(root);
        }
        out.wall_s += start.elapsed().as_secs_f64();
        out.mismatches += hooks.mismatches;
        out.wal_bytes += store.medium().wal_bytes;
        out.runs += store.runs().len();
        out.learned_runs += store
            .runs()
            .iter()
            .filter(|r| matches!(r.index(), RunIndex::Learned(_)))
            .count();
    }
    Ok(out)
}

/// Runs `kv_ingest` in the mode `args` asks for.
pub fn run(args: &Args, host: &Host) -> Result<Report, String> {
    let dur = crate::measured_duration(args);
    let max_cycles = if args.trace { TRACE_CYCLES } else { u64::MAX };
    let m = measure(args.seed, dur, max_cycles, args.perturb_reference)?;
    let (commits, gets) = (m.commit_us.samples(), m.get_us.samples());
    let mut report = Report {
        attempted: m.records + (commits + gets) as u64,
        failed: 0,
        ..Default::default()
    };
    report.notes.push(format!(
        "run clients=1 closed_loop=true cycles={} rounds_per_cycle={CYCLE_ROUNDS} records={} gets={gets} runs={} ingest_s={:.3} medium=SimDisk flush_policy=memtable_limit:1024,wal_segment:16KiB,sync_barriers:on,checksums:on",
        m.cycles, m.records, m.runs, m.ingest_s.iter().sum::<f64>()
    ));
    report.notes.push(
        "metric failed_ratio 0 (every get matched the acknowledged writes, every reopen recovered them exactly)".into(),
    );
    let (flushed, slowest) = m.slowest_commits;
    let share = flushed as f64 / slowest as f64;
    report.notes.push(format!(
        "confirm flushing commits among the slowest 1% of each cycle's commits = {share:.3} of {slowest} ({})",
        if share > 0.5 { "majority: confirmed" } else { "NOT a majority" }
    ));
    if args.trace {
        return trace_metrics(args, host, &m, report);
    }
    let (commit_p50, commit_p99) = m.commit_us.p50_p99();
    let (get_p50, get_p99) = m.get_us.p50_p99();
    let krec_per_cycle = (CYCLE_ROUNDS * BATCH) as f64 / 1e3;
    let mut recovery_ms = m.recovery_ms.clone();
    let mut setup_s = m.setup_s.clone();
    let rss = &m.peak_rss_mb;
    // Each cycle ingests the same records; the median cycle's rate.
    let mut rates: Vec<f64> = m
        .ingest_s
        .iter()
        .map(|s| krec_per_cycle * 1e3 / s)
        .collect();
    let recovery = stats::median(&mut recovery_ms) * 1e3 / krec_per_cycle;
    report.put(
        "ops_per_s",
        Metric::new(stats::median(&mut rates), m.records as usize),
    );
    report.put("latency_p50_us", Metric::new(commit_p50, commits));
    report.put("latency_p99_us", Metric::new(commit_p99, commits));
    report.put("read_p50_us", Metric::new(get_p50, gets));
    report.put("read_p99_us", Metric::new(get_p99, gets));
    report.put(
        "recovery_us_per_krec",
        Metric::new(recovery, recovery_ms.len()),
    );
    report.put(
        "disk_bytes_per_record",
        Metric::new(m.disk_bytes as f64 / m.records as f64, m.records as usize),
    );
    let leanest = rss.iter().copied().fold(f64::INFINITY, f64::min);
    report.put("peak_rss_mb", Metric::new(leanest, rss.len()));
    report.put(
        "setup_s",
        Metric::new(stats::median(&mut setup_s), setup_s.len()),
    );
    report.aliases = vec![
        ("ops_per_s", "records_per_s, median cycle"),
        ("latency_p50_us", "commit_p50_us"),
        ("latency_p99_us", "commit_p99_us"),
        ("read_p50_us", "get_p50_us"),
        ("read_p99_us", "get_p99_us"),
        (
            "recovery_us_per_krec",
            "reopen after power loss of one cycle's store, per 1000 records",
        ),
        (
            "disk_bytes_per_record",
            "durable bytes on the medium per record",
        ),
        ("peak_rss_mb", "peak RSS of a cycle, the leanest cycle"),
    ];
    Ok(report)
}

fn trace_metrics(
    args: &Args,
    host: &Host,
    m: &Measured,
    mut report: Report,
) -> Result<Report, String> {
    let plain = replay(args.seed, m.cycles, false)?;
    let r = replay(args.seed, m.cycles, true)?;
    if r.mismatches + plain.mismatches != 0 {
        return Err("a run probe disagreed between Run::get and Run::get_unindexed".into());
    }
    let spans = r.tr.take();
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as u64;
    let agree = [
        (
            "storage.wal.appends vs run WAL records",
            count("storage.wal.append"),
            m.wal_records,
        ),
        (
            "storage.wal.fsyncs vs run commits + rotations + flushes",
            count("storage.wal.sync"),
            m.wal_fsyncs,
        ),
        (
            "storage.store.flushes vs run runs",
            count("storage.store.commit_flush"),
            m.runs,
        ),
        (
            "commits vs run commits",
            count("storage.store.commit") + count("storage.store.commit_flush"),
            m.commit_us.samples() as u64,
        ),
    ];
    for (what, traced, untraced) in agree {
        if traced != untraced {
            return Err(format!(
                "count mismatch, {what}: traced {traced}, untraced {untraced}"
            ));
        }
        report.notes.push(format!("agree {what}: {traced}"));
    }
    report.put(
        "bench.trace_overhead",
        Metric::new(r.wall_s / plain.wall_s - 1.0, 2),
    );
    report.put_layers(&spans);
    put_store_metrics(
        &mut report,
        &spans,
        r.wal_bytes,
        m.records,
        r.runs,
        r.learned_runs,
        &m.recovery,
    );
    report.zero_unset_layers();
    report.notes.push(format!(
        "replay wall_s traced={:.3} untraced={:.3}",
        r.wall_s, plain.wall_s
    ));
    crate::write_trace_artifacts(args, host, &spans, &report)?;
    Ok(report)
}
