//! The serving workloads: `serve_templates` and `adhoc_plan`.
//!
//! Both drive the threaded `Server` with `nproc` workers and `nproc`
//! closed-loop client threads (each submits, then waits for its
//! response), with an `FsMedium` request journal attached. They differ
//! in how much of the service time planning takes:
//!
//! - `serve_templates`: 4 tenants x 6 templates x 4 variants over
//!   joblite at `base_rows` 400, warmed through the server during
//!   set-up. Their fingerprints fit the 256-entry session memo, so the
//!   executor does nearly all the work. Each client walks the catalogue
//!   in blocks that hold every entry once, in a seeded order, so every
//!   run serves the same mix.
//! - `adhoc_plan`: 5-to-7-table joins from `WorkloadGenerator` over
//!   joblite at `base_rows` 5 (the schema has 6 tables, so 5 or 6).
//!   Most requests are new fingerprints, so DP enumeration is most of
//!   the service time.
//!
//! The dataset and the template catalogue come from a fixed seed, so
//! every run serves the same data; `--seed` drives the request stream.
//!
//! A run is made of cycles of a fixed number of requests. Each cycle
//! sets up a fresh engine, server and journal, serves its requests,
//! shuts down, and reopens and checks the journal. The plan cache never
//! evicts, so without cycles memory and hit ratio would depend on how
//! many requests a run got through.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::rc::Rc;
use std::sync::{Barrier, Mutex, OnceLock};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use ml4db_datagen::{SchemaGraph, TemplateMix, WorkloadConfig, WorkloadGenerator};
use ml4db_optimizer::{Env, SessionView};
use ml4db_plan::{execute, CacheKey, HintSet, Query};
use ml4db_serve::{
    AdmissionConfig, AdmissionQueue, AdmissionVerdict, Outcome, Request, ServeConfig, ServeReport,
    Server,
};
use ml4db_storage::datasets::{joblite, DatasetConfig};
use ml4db_storage::durable::{DurableStore, FsMedium, RecoveryReport, RunIndex, StoreConfig};
use ml4db_storage::{Database, ExecStats};

use crate::medium::{probe_run, TracedMedium, PROBE_REPS};
use crate::stats::{self, ChunkedQuantiles, Host};
use crate::trace::{self, Tracer};
use crate::{Args, Metric, Report};

/// Which serving workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Warm templated serving: execution-bound.
    Templates,
    /// Mostly-new ad-hoc joins: planning-bound.
    Adhoc,
}

impl Kind {
    /// Requests each client sends per cycle (a cycle takes 2-4 s here).
    fn per_client(self) -> usize {
        match self {
            Kind::Templates => 1000,
            Kind::Adhoc => 8000,
        }
    }
}

/// Reopens of the journal after a cycle; recovery time is their median.
const RECOVERY_REPS: usize = 5;
/// Seed of the dataset and template catalogue (fixed across runs).
const DATA_SEED: u64 = 42;
const TENANTS: u32 = 4;
const TEMPLATES: usize = 6;
const VARIANTS: usize = 4;
/// Request ids of the set-up warm-up, outside every client's id space.
const WARM_ID_BASE: u64 = u64::MAX << 32;
/// Entries `SessionView`'s memo holds before it resets; the replay
/// mirrors the memo to know, before calling it, whether a lookup will
/// fall through to the shared plan cache.
const SESSION_MEMO_CAP: usize = 256;

/// The generated inputs a serving run draws from.
struct Fixture {
    kind: Kind,
    db: Database,
    /// Every (template variant, tenant) once; empty for adhoc.
    catalogue: Vec<(Query, u32)>,
    gen: WorkloadGenerator,
}

impl Fixture {
    fn build(kind: Kind) -> Self {
        let mut rng = StdRng::seed_from_u64(DATA_SEED);
        let base_rows = if kind == Kind::Templates { 400 } else { 5 };
        let db = Database::analyze(
            joblite(
                &DatasetConfig {
                    base_rows,
                    ..Default::default()
                },
                &mut rng,
            ),
            &mut rng,
        );
        let graph = SchemaGraph::joblite();
        let mut catalogue = Vec::new();
        if kind == Kind::Templates {
            let mix = TemplateMix::generate(
                &db,
                &graph,
                TENANTS,
                TEMPLATES,
                VARIANTS,
                DATA_SEED ^ 0xA5A5,
            );
            for (tenant, pool) in mix.pools.into_iter().enumerate() {
                for template in pool {
                    catalogue.extend(template.into_iter().map(|q| (q, tenant as u32)));
                }
            }
        }
        let gen = WorkloadGenerator::new(
            graph,
            WorkloadConfig {
                min_tables: 5,
                max_tables: 7,
                ..Default::default()
            },
        );
        Self {
            kind,
            db,
            catalogue,
            gen,
        }
    }

    fn stream(&self, seed: u64, cycle: u64, client: u32) -> Stream<'_> {
        let salt = ((cycle << 8) | (u64::from(client) + 1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Stream {
            fx: self,
            client,
            rng: StdRng::seed_from_u64(seed ^ salt),
            block: Vec::new(),
        }
    }
}

/// One client's request stream, deterministic in (seed, cycle, client).
struct Stream<'f> {
    fx: &'f Fixture,
    client: u32,
    rng: StdRng,
    /// Catalogue indices left in the current block (templates).
    block: Vec<usize>,
}

impl Stream<'_> {
    /// The next (query, tenant).
    fn next(&mut self) -> (Query, u32) {
        if self.fx.kind == Kind::Adhoc {
            return (
                self.fx.gen.generate(&self.fx.db, &mut self.rng),
                self.client % TENANTS,
            );
        }
        if self.block.is_empty() {
            self.block = (0..self.fx.catalogue.len()).collect();
            self.block.shuffle(&mut self.rng);
        }
        let i = self.block.pop().expect("refilled above");
        self.fx.catalogue[i].clone()
    }
}

fn request_id(client: u32, seq: u64) -> u64 {
    (u64::from(client) << 32) | seq
}

/// What one client thread saw in one cycle.
#[derive(Default)]
struct ClientLog {
    /// `submit` to `await_take` returning, per request.
    latency_ns: Vec<f64>,
    /// Duration of the `submit` call, per request.
    submit_ns: Vec<f64>,
    /// When each request completed, in ns since the clients started.
    end_ns: Vec<u64>,
    /// (fingerprint, simulated latency) per request, in stream order.
    done: Vec<(u64, f64)>,
    /// Requests that did not come back `Done`.
    not_done: Vec<String>,
}

/// One measured cycle.
struct Cycle {
    setup_s: f64,
    drive_s: f64,
    /// Client requests served (all came back `Done`).
    requests: usize,
    logs: Vec<ClientLog>,
    report: ServeReport,
    plan_cache_entries: usize,
    /// Peak RSS from set-up to the end of the journal checks.
    peak_rss_mb: f64,
    recovery_ms: f64,
    recovery: RecoveryReport,
    journal_bytes: u64,
    admitted: u64,
    /// Warm-up requests among `admitted`.
    warmed: u64,
}

/// Sets up a fresh fixture, engine, server, journal and worker pool,
/// warms the catalogue through the server, serves one cycle, shuts
/// down, and reopens and checks the journal.
fn run_cycle(kind: Kind, seed: u64, cycle: u64, dir: &Path) -> Result<Cycle, String> {
    stats::reset_peak_rss();
    let t0 = Instant::now();
    let fx = Fixture::build(kind);
    let env = Env::new(&fx.db);
    let server = Server::new(&env, ServeConfig::default());
    let medium = FsMedium::open(dir).map_err(|e| format!("open journal dir: {e}"))?;
    let journal = DurableStore::create(medium, StoreConfig::default())
        .map_err(|e| format!("create journal: {e:?}"))?;
    server.set_journal(Box::new(journal));
    let workers = stats::nproc();

    let (setup_s, (logs, drive_s)) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let server = &server;
                s.spawn(move || server.run_worker(w as u64))
            })
            .collect();
        let driven = (|| -> Result<(f64, (Vec<ClientLog>, f64)), String> {
            for (i, (q, tenant)) in fx.catalogue.iter().enumerate() {
                let id = WARM_ID_BASE | i as u64;
                let req = Request {
                    id,
                    session: u64::MAX,
                    tenant: *tenant,
                    class: 0,
                    query: q.clone(),
                };
                server.submit(req);
            }
            for i in 0..fx.catalogue.len() {
                let resp = server.await_take(WARM_ID_BASE | i as u64);
                if !matches!(resp.outcome, Outcome::Done { .. }) {
                    return Err(format!("warm-up request {i} came back {:?}", resp.outcome));
                }
            }
            let setup_s = t0.elapsed().as_secs_f64();
            Ok((setup_s, drive(&fx, &server, seed, cycle, workers)))
        })();
        let synced = server.shutdown();
        let joined = handles.into_iter().all(|h| h.join().is_ok());
        let driven = driven?;
        synced.map_err(|e| format!("journal sync at shutdown: {e:?}"))?;
        if !joined {
            return Err("a worker thread panicked".to_string());
        }
        Ok(driven)
    })?;
    if let Some(err) = logs.iter().flat_map(|l| &l.not_done).next() {
        return Err(format!("a request did not complete: {err}"));
    }
    let report = catch_unwind(AssertUnwindSafe(|| server.report(true)))
        .map_err(|_| "serve report broke its ledger invariants".to_string())?;
    if server.duplicate_responses() != 0 {
        return Err(format!(
            "{} duplicate responses",
            server.duplicate_responses()
        ));
    }
    if server.journal_errors() != 0 {
        return Err(format!("{} journal errors", server.journal_errors()));
    }
    let plan_cache_entries = env.plan_cache().len();
    drop(server);

    let mut reopen_ms = Vec::with_capacity(RECOVERY_REPS);
    let mut reopened = None;
    for _ in 0..RECOVERY_REPS {
        let t = Instant::now();
        let medium = FsMedium::open(dir).map_err(|e| format!("reopen journal dir: {e}"))?;
        let (journal, recovery) = DurableStore::open(medium, StoreConfig::default())
            .map_err(|e| format!("reopen journal: {e:?}"))?;
        reopen_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if recovery.torn_tail || recovery.uncommitted_dropped != 0 {
            return Err(format!("journal recovery lost data: {recovery:?}"));
        }
        reopened.get_or_insert((journal, recovery));
    }
    let (journal, recovery) = reopened.expect("reopened at least once");
    let state = journal.committed_state();
    let admitted = report.admitted();
    if state.len() as u64 != admitted {
        return Err(format!(
            "journal holds {} requests, {admitted} were admitted",
            state.len()
        ));
    }
    let warm_ok = fx
        .catalogue
        .iter()
        .enumerate()
        .all(|(i, (_, t))| state.get(&(WARM_ID_BASE | i as u64)) == Some(&u64::from(*t)));
    let clients_ok = logs.iter().enumerate().all(|(c, log)| {
        (0..log.done.len() as u64).all(|seq| state.contains_key(&request_id(c as u32, seq)))
    });
    if !warm_ok || !clients_ok {
        return Err("an admitted request is missing from the recovered journal".into());
    }
    let journal_bytes = stats::dir_bytes(dir).map_err(|e| format!("journal size: {e}"))?;
    Ok(Cycle {
        setup_s,
        drive_s,
        requests: logs.iter().map(|l| l.done.len()).sum(),
        logs,
        report,
        plan_cache_entries,
        peak_rss_mb: stats::peak_rss_mb()?,
        recovery_ms: stats::median(&mut reopen_ms),
        recovery,
        journal_bytes,
        admitted,
        warmed: fx.catalogue.len() as u64,
    })
}

/// Runs one closed-loop client thread per worker, each sending its
/// cycle's requests; returns their logs and the wall time from the
/// clients' common start to the last response.
fn drive(
    fx: &Fixture,
    server: &Server<'_, '_>,
    seed: u64,
    cycle: u64,
    clients: usize,
) -> (Vec<ClientLog>, f64) {
    let barrier = Barrier::new(clients + 1);
    let origin: OnceLock<Instant> = OnceLock::new();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients as u32)
            .map(|c| {
                let (barrier, origin) = (&barrier, &origin);
                s.spawn(move || {
                    let mut stream = fx.stream(seed, cycle, c);
                    let mut log = ClientLog::default();
                    barrier.wait();
                    let origin = *origin.get().expect("set before the barrier opens");
                    for seq in 0..fx.kind.per_client() as u64 {
                        let (query, tenant) = stream.next();
                        let fp = query.fingerprint();
                        let id = request_id(c, seq);
                        let req = Request {
                            id,
                            session: u64::from(c),
                            tenant,
                            class: 0,
                            query,
                        };
                        let t0 = Instant::now();
                        server.submit(req);
                        let t1 = Instant::now();
                        let resp = server.await_take(id);
                        let t2 = Instant::now();
                        log.submit_ns.push((t1 - t0).as_nanos() as f64);
                        log.latency_ns.push((t2 - t0).as_nanos() as f64);
                        log.end_ns.push((t2 - origin).as_nanos() as u64);
                        match resp.outcome {
                            Outcome::Done { latency_us } => log.done.push((fp, latency_us)),
                            other => {
                                log.not_done.push(format!("request {id}: {other:?}"));
                                break;
                            }
                        }
                    }
                    log
                })
            })
            .collect();
        origin.set(Instant::now()).expect("set once");
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let last_ns = logs
        .iter()
        .filter_map(|l| l.end_ns.last())
        .max()
        .copied()
        .unwrap_or(0);
    (logs, last_ns as f64 / 1e9)
}

/// Checks every response of cycle `n` against `Env::run` on a fresh
/// engine, computed once per distinct fingerprint. `perturb` corrupts
/// the reference of the cycle's first request (negative control).
fn verify_latencies(
    kind: Kind,
    seed: u64,
    n: u64,
    logs: &[ClientLog],
    perturb: bool,
) -> Result<(), String> {
    let fx = Fixture::build(kind);
    let env = Env::new(&fx.db);
    let reference = |q: &Query| -> Result<f64, String> {
        let plan = env.expert_plan(q).ok_or("reference engine found no plan")?;
        Ok(env.run(q, &plan))
    };
    let refs: Mutex<HashMap<u64, f64>> = Mutex::new(HashMap::new());
    if perturb {
        let (q, _) = fx.stream(seed, n, 0).next();
        let value = reference(&q)? + 1.0;
        refs.lock()
            .expect("reference map")
            .insert(q.fingerprint(), value);
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = logs
            .iter()
            .enumerate()
            .map(|(c, log)| {
                let (refs, reference, fx) = (&refs, &reference, &fx);
                s.spawn(move || -> Result<(), String> {
                    let mut stream = fx.stream(seed, n, c as u32);
                    for (seq, &(fp, got)) in log.done.iter().enumerate() {
                        let (q, _) = stream.next();
                        if q.fingerprint() != fp {
                            return Err(format!("cycle {n} client {c}: stream diverged at {seq}"));
                        }
                        let known = refs.lock().expect("reference map").get(&fp).copied();
                        let want = match known {
                            Some(v) => v,
                            None => {
                                let v = reference(&q)?;
                                *refs.lock().expect("reference map").entry(fp).or_insert(v)
                            }
                        };
                        if got != want {
                            return Err(format!(
                                "cycle {n} client {c} request {seq}: simulated latency {got} us, reference {want} us"
                            ));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("verify thread panicked"))
    })
}

/// What replays of a run's cycles measured.
#[derive(Default)]
struct Replay {
    wall_s: f64,
    /// Simulated latency per (cycle, request id).
    sims: HashMap<(u64, u64), f64>,
    /// Session + executor time per (cycle, request id), traced only.
    service_ns: HashMap<(u64, u64), u64>,
    /// Session-span durations of memo hits (traced only).
    session_hit_ns: Vec<f64>,
    /// Plan enumerations per cycle, warm-up included.
    enumerations: Vec<u64>,
    /// Plan-cache entries per cycle.
    plan_cache_entries: Vec<usize>,
    cache_lookups: u64,
    cache_hits: u64,
    session_hits: u64,
    session_misses: u64,
    mispredicted: u64,
    /// Journal-run probes where the learned and binary lookups disagreed.
    probe_mismatches: u64,
    exec: ExecStats,
    sim_us: f64,
    rows_out: u64,
    journal_wal_bytes: u64,
    journal_puts: u64,
    journal_runs: usize,
    journal_learned_runs: usize,
}

/// Replays one cycle: the warm-up and then each client's requests,
/// clients interleaved round-robin, through the entry points in the
/// order `Server::submit` and `Server::run_worker` call them. Only the
/// client requests are timed and traced.
fn replay_cycle(
    fx: &Fixture,
    seed: u64,
    cycle: u64,
    clients: usize,
    tr: &Rc<Tracer>,
    dir: &Path,
    out: &mut Replay,
) -> Result<(), String> {
    let traced = tr.is_on();
    tr.set_on(false);
    let env = Env::new(&fx.db);
    let mut queue: AdmissionQueue<Request> = AdmissionQueue::new(AdmissionConfig::default());
    let medium = FsMedium::open(dir).map_err(|e| format!("open replay journal: {e}"))?;
    let mut journal = DurableStore::create(
        TracedMedium::new(medium, tr.clone()),
        StoreConfig::default(),
    )
    .map_err(|e| format!("create replay journal: {e:?}"))?;
    let mut views: Vec<SessionView<'_, '_>> =
        (0..stats::nproc() as u64).map(|w| env.session(w)).collect();
    let mut memo: Vec<HashSet<CacheKey>> = vec![HashSet::new(); views.len()];
    let mut k = 0usize;
    let mut enumerations = 0u64;

    let mut serve_one =
        |id: u64, query: Query, tenant: u32, out: &mut Replay| -> Result<(), String> {
            tr.begin_request(id);
            let root = tr.enter("bench.request");
            let submit = tr.enter("serve.submit");
            query
                .validate(&fx.db)
                .map_err(|e| format!("request {id} invalid: {e}"))?;
            let req = Request {
                id,
                session: 0,
                tenant,
                class: 0,
                query,
            };
            let verdict = tr.span("serve.admission.offer", || queue.offer(req, 0));
            if !matches!(verdict, Ok(AdmissionVerdict::Admitted)) {
                return Err(format!("replayed request {id} was not admitted"));
            }
            tr.span("storage.store.put", || journal.put(id, u64::from(tenant)))
                .map_err(|e| format!("journal put: {e:?}"))?;
            out.journal_puts += 1;
            tr.exit(submit);
            let ticket = tr
                .span("serve.admission.pop", || queue.pop())
                .ok_or("admitted request not queued")?;
            let q = &ticket.item.query;

            let w = k % views.len();
            k += 1;
            let key = CacheKey::new(q, HintSet::all(), env.epoch());
            let predicted_hit = memo[w].contains(&key);
            let hits_before = views[w].local_hits();
            let session = tr.enter("optimizer.session.expert_plan");
            if !predicted_hit {
                let mut planned = false;
                tr.span("plan.cache.get_or_insert", || {
                    env.plan_cache().get_or_insert_with(key, || {
                        planned = true;
                        tr.span("plan.enumerate.plan_uncached", || {
                            env.plan_with_hint_uncached(q, HintSet::all())
                        })
                    })
                });
                if tr.is_on() {
                    out.cache_lookups += 1;
                    out.cache_hits += u64::from(!planned);
                }
                enumerations += u64::from(planned);
            }
            let plan = views[w].expert_plan(q);
            tr.exit(session);
            let hit = views[w].local_hits() > hits_before;
            out.mispredicted += u64::from(hit != predicted_hit);
            if !hit {
                if memo[w].len() >= SESSION_MEMO_CAP {
                    memo[w].clear();
                }
                memo[w].insert(key);
            }
            let plan = plan.ok_or_else(|| format!("request {id}: no plan"))?;

            let exec = tr.enter("plan.executor.execute");
            let result = execute(&fx.db, q, &plan).map(|r| (r.latency_us, r.stats, r.rows.len()));
            tr.exit(exec);
            let (sim_us, exec_stats, rows) = result.map_err(|e| format!("request {id}: {e}"))?;
            tr.exit(root);

            if tr.is_on() {
                out.session_hits += u64::from(hit);
                out.session_misses += u64::from(!hit);
                out.exec.merge(&exec_stats);
                out.sim_us += sim_us;
                out.rows_out += rows as u64;
                out.service_ns
                    .insert((cycle, id), tr.dur_ns(session) + tr.dur_ns(exec));
                if hit {
                    out.session_hit_ns.push(tr.dur_ns(session) as f64);
                }
            }
            out.sims.insert((cycle, id), sim_us);
            Ok(())
        };

    for (i, (q, tenant)) in fx.catalogue.iter().enumerate() {
        serve_one(WARM_ID_BASE | i as u64, q.clone(), *tenant, out)?;
    }
    tr.set_on(traced);
    let start = Instant::now();
    let mut streams: Vec<Stream<'_>> = (0..clients as u32)
        .map(|c| fx.stream(seed, cycle, c))
        .collect();
    for seq in 0..fx.kind.per_client() as u64 {
        for (c, stream) in streams.iter_mut().enumerate() {
            let (q, tenant) = stream.next();
            serve_one(request_id(c as u32, seq), q, tenant, out)?;
        }
    }
    let runs_before = journal.runs().len();
    tr.begin_request(u64::MAX);
    let sync = tr.enter("serve.journal_sync");
    let commit = tr.enter("storage.store.commit");
    journal
        .commit()
        .map_err(|e| format!("journal commit: {e:?}"))?;
    tr.exit(commit);
    tr.exit(sync);
    if journal.runs().len() > runs_before {
        tr.rename(commit, "storage.store.commit_flush");
    }
    out.wall_s += start.elapsed().as_secs_f64();

    // The journal's run, probed the way `DurableStore::get` would: every
    // client request id (present) and one absent id beside each.
    if let Some(run) = journal.runs().last().filter(|_| traced) {
        let per_client = fx.kind.per_client() as u64;
        for seq in 0..per_client {
            for c in 0..clients as u32 {
                tr.begin_request(request_id(c, seq));
                let hit = probe_run(tr, run, request_id(c, seq), true);
                let miss = probe_run(tr, run, request_id(c, per_client + seq), false);
                out.probe_mismatches += u64::from(!hit) + u64::from(!miss);
            }
        }
    }
    out.enumerations.push(enumerations);
    out.plan_cache_entries.push(env.plan_cache().len());
    out.journal_wal_bytes += journal.medium().wal_bytes;
    out.journal_runs += journal.runs().len();
    out.journal_learned_runs += journal
        .runs()
        .iter()
        .filter(|r| matches!(r.index(), RunIndex::Learned(_)))
        .count();
    drop(journal);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// Runs a serving workload in the mode `args` asks for.
pub fn run(kind: Kind, args: &Args, work: &Path, host: &Host) -> Result<Report, String> {
    let dur = crate::measured_duration(args).as_secs_f64();
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut latency_us = ChunkedQuantiles::default();
    let mut submit_us = ChunkedQuantiles::default();
    while cycles.is_empty() || cycles.iter().map(|c| c.drive_s).sum::<f64>() < dur {
        let n = cycles.len() as u64;
        let dir = work.join(format!("journal-{n}"));
        let mut cycle = run_cycle(kind, args.seed, n, &dir)?;
        let _ = std::fs::remove_dir_all(&dir);
        verify_latencies(
            kind,
            args.seed,
            n,
            &cycle.logs,
            args.perturb_reference && n == 0,
        )?;
        // Every request in completion order.
        let mut done: Vec<(u64, f64, f64)> = cycle
            .logs
            .iter()
            .flat_map(|l| {
                let timings = l.latency_ns.iter().zip(&l.submit_ns);
                l.end_ns
                    .iter()
                    .zip(timings)
                    .map(|(e, (l, s))| (*e, l / 1e3, s / 1e3))
            })
            .collect();
        done.sort_by_key(|d| d.0);
        latency_us.add(&done.iter().map(|d| d.1).collect::<Vec<_>>());
        submit_us.add(&done.iter().map(|d| d.2).collect::<Vec<_>>());
        if !args.trace {
            // Only the traced run replays the logs; dropping them keeps
            // the next cycle's peak RSS from growing with the ones kept.
            cycle.logs.clear();
        }
        cycles.push(cycle);
    }

    let completed: usize = cycles.iter().map(|c| c.requests).sum();
    let admitted: u64 = cycles.iter().map(|c| c.admitted).sum();
    let mut report = Report {
        attempted: completed as u64,
        failed: 0,
        ..Default::default()
    };
    report.notes.push(format!(
        "run clients={} workers={} closed_loop=true cycles={} requests_per_cycle={} requests={completed} drive_s={:.3} plan_cache_entries_per_cycle={}",
        host.nproc,
        host.nproc,
        cycles.len(),
        kind.per_client() * host.nproc,
        cycles.iter().map(|c| c.drive_s).sum::<f64>(),
        cycles[0].plan_cache_entries
    ));
    let per_cycle =
        |f: &dyn Fn(&Cycle) -> String| cycles.iter().map(f).collect::<Vec<_>>().join(", ");
    report.notes.push(format!(
        "cycle requests_per_s [{}]",
        per_cycle(&|c| format!("{:.0}", c.requests as f64 / c.drive_s))
    ));
    report.notes.push(format!(
        "cycle peak_rss_mb [{}]",
        per_cycle(&|c| format!("{:.1}", c.peak_rss_mb))
    ));
    report.notes.push(format!(
        "metric failed_ratio 0 (every response Done and equal to its reference, ledger invariants hold, journals recovered all {admitted} admitted requests)"
    ));
    if args.trace {
        trace_metrics(kind, args, host, work, &cycles, &mut report)?;
    } else {
        end_to_end_metrics(&cycles, &latency_us, &submit_us, &mut report);
    }
    Ok(report)
}

fn end_to_end_metrics(
    cycles: &[Cycle],
    latency_us: &ChunkedQuantiles,
    submit_us: &ChunkedQuantiles,
    report: &mut Report,
) {
    let n = latency_us.samples();
    let (p50, p99) = latency_us.p50_p99();
    let (submit_p50, submit_p99) = submit_us.p50_p99();
    let median_of =
        |f: &dyn Fn(&Cycle) -> f64| stats::median(&mut cycles.iter().map(f).collect::<Vec<_>>());
    let bytes: u64 = cycles.iter().map(|c| c.journal_bytes).sum();
    let records: u64 = cycles.iter().map(|c| c.admitted).sum();
    report.put(
        "ops_per_s",
        Metric::new(median_of(&|c| c.requests as f64 / c.drive_s), n),
    );
    report.put("latency_p50_us", Metric::new(p50, n));
    report.put("latency_p99_us", Metric::new(p99, n));
    report.put("read_p50_us", Metric::new(p50, n));
    report.put("read_p99_us", Metric::new(p99, n));
    report.put(
        "recovery_us_per_krec",
        Metric::new(
            median_of(&|c| c.recovery_ms * 1e6 / c.admitted as f64),
            cycles.len(),
        ),
    );
    report.put(
        "disk_bytes_per_record",
        Metric::new(bytes as f64 / records as f64, records as usize),
    );
    let leanest = cycles
        .iter()
        .map(|c| c.peak_rss_mb)
        .fold(f64::INFINITY, f64::min);
    report.put("peak_rss_mb", Metric::new(leanest, cycles.len()));
    report.put(
        "setup_s",
        Metric::new(median_of(&|c| c.setup_s), cycles.len()),
    );
    report.aliases = vec![
        ("ops_per_s", "requests_per_s, median cycle"),
        ("latency_p50_us", "submit to await_take"),
        ("latency_p99_us", "submit to await_take"),
        (
            "read_p50_us",
            "requests are read-only queries: same calls as latency_p50_us",
        ),
        (
            "read_p99_us",
            "requests are read-only queries: same calls as latency_p99_us",
        ),
        (
            "recovery_us_per_krec",
            "request journal reopen per 1000 requests, median cycle",
        ),
        ("disk_bytes_per_record", "request journal bytes per request"),
        ("peak_rss_mb", "peak RSS of a cycle, the leanest cycle"),
    ];
    report.notes.push(format!(
        "metric submit_p50_us {submit_p50:.3} us n={n} (admission + journal append; printed, not gated)"
    ));
    report.notes.push(format!(
        "metric submit_p99_us {submit_p99:.3} us n={n} (admission + journal append; printed, not gated)"
    ));
}

fn trace_metrics(
    kind: Kind,
    args: &Args,
    host: &Host,
    work: &Path,
    cycles: &[Cycle],
    report: &mut Report,
) -> Result<(), String> {
    let fx = Fixture::build(kind);
    let clients = cycles[0].logs.len();
    let mut plain = Replay::default();
    let mut r = Replay::default();
    let (off, on) = (Rc::new(Tracer::new(false)), Rc::new(Tracer::new(true)));
    for n in 0..cycles.len() as u64 {
        replay_cycle(
            &fx,
            args.seed,
            n,
            clients,
            &off,
            &work.join("replay-untraced"),
            &mut plain,
        )?;
        replay_cycle(
            &fx,
            args.seed,
            n,
            clients,
            &on,
            &work.join("replay-traced"),
            &mut r,
        )?;
    }
    let spans = on.take();
    if r.probe_mismatches != 0 {
        return Err("a journal-run probe disagreed between Run::get and Run::get_unindexed".into());
    }

    // The replay must have served exactly the measured run's streams.
    for (n, cycle) in cycles.iter().enumerate() {
        for (c, log) in cycle.logs.iter().enumerate() {
            for (seq, &(_, sim)) in log.done.iter().enumerate() {
                if r.sims.get(&(n as u64, request_id(c as u32, seq as u64))) != Some(&sim) {
                    return Err(format!(
                        "replay of cycle {n} client {c} request {seq} diverged"
                    ));
                }
            }
        }
    }
    let run_entries: Vec<u64> = cycles.iter().map(|c| c.plan_cache_entries as u64).collect();
    let replay_entries: Vec<u64> = r.plan_cache_entries.iter().map(|e| *e as u64).collect();
    if r.enumerations != run_entries || replay_entries != run_entries {
        return Err(format!(
            "count mismatch, plan enumerations per cycle: traced {:?} (cache entries {replay_entries:?}), untraced cache entries {run_entries:?}",
            r.enumerations
        ));
    }
    report.notes.push(format!(
        "agree plan.enumerate.calls per cycle, warm-up included, vs run plan-cache entries: {run_entries:?}"
    ));
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as u64;
    let sum = |f: &dyn Fn(&Cycle) -> u64| cycles.iter().map(f).sum::<u64>();
    let agree = [
        (
            "storage.wal.appends vs run requests + commit + checkpoints",
            count("storage.wal.append"),
            sum(&|c| c.admitted - c.warmed + 1 + u64::from(c.recovery.runs_loaded)),
        ),
        (
            "storage.store.flushes vs run journal runs",
            count("storage.store.commit_flush"),
            sum(&|c| u64::from(c.recovery.runs_loaded)),
        ),
        (
            "journal puts vs run admitted",
            r.journal_puts,
            sum(&|c| c.admitted),
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
    let median_us = |name: &str| {
        let mut d = trace::durations(&spans, name);
        Metric::new(stats::median(&mut d) / 1e3, d.len())
    };
    report.put("serve.submit_us", median_us("serve.submit"));
    let mut wait: Vec<f64> = Vec::new();
    for (n, cycle) in cycles.iter().enumerate() {
        for (c, log) in cycle.logs.iter().enumerate() {
            for (seq, lat) in log.latency_ns.iter().enumerate() {
                let key = (n as u64, request_id(c as u32, seq as u64));
                if let Some(service) = r.service_ns.get(&key) {
                    wait.push((lat - *service as f64) / 1e3);
                }
            }
        }
    }
    report.put(
        "serve.wait_us",
        Metric::new(stats::median(&mut wait), wait.len()),
    );
    let mut sync_ms: Vec<f64> = trace::durations(&spans, "serve.journal_sync")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    report.put(
        "serve.journal_sync_ms",
        Metric::new(stats::median(&mut sync_ms), sync_ms.len()),
    );
    report.put(
        "serve.admission.offer_us",
        median_us("serve.admission.offer"),
    );
    report.put("serve.admission.pop_us", median_us("serve.admission.pop"));
    let submitted: u64 = cycles.iter().map(|c| c.report.submitted()).sum();
    let shed: u64 = cycles.iter().map(|c| c.report.shed()).sum();
    report.put(
        "serve.admission.shed_ratio",
        Metric::new(shed as f64 / submitted as f64, submitted as usize),
    );
    let lookups = r.session_hits + r.session_misses;
    report.put(
        "optimizer.session.hit_ratio",
        Metric::new(r.session_hits as f64 / lookups as f64, lookups as usize),
    );
    let mut hit_ns = r.session_hit_ns.clone();
    report.put(
        "optimizer.session.lookup_us",
        Metric::new(stats::median(&mut hit_ns) / 1e3, hit_ns.len()),
    );
    report.put(
        "plan.cache.hit_ratio",
        Metric::new(
            r.cache_hits as f64 / r.cache_lookups.max(1) as f64,
            r.cache_lookups as usize,
        ),
    );
    let mut entries: Vec<f64> = replay_entries.iter().map(|e| *e as f64).collect();
    report.put(
        "plan.cache.entries",
        Metric::new(stats::median(&mut entries), entries.len()),
    );
    report.put(
        "plan.enumerate.p50_us",
        median_us("plan.enumerate.plan_uncached"),
    );
    let mut exec_ns = trace::durations(&spans, "plan.executor.execute");
    let exec_busy_us = exec_ns.iter().sum::<f64>() / 1e3;
    let (p50, p99) = stats::p50_p99(&mut exec_ns);
    let n_exec = exec_ns.len();
    report.put("plan.executor.p50_us", Metric::new(p50 / 1e3, n_exec));
    report.put("plan.executor.p99_us", Metric::new(p99 / 1e3, n_exec));
    report.put(
        "plan.executor.rows_out",
        Metric::new(r.rows_out as f64, n_exec),
    );
    report.put(
        "plan.executor.wall_per_sim",
        Metric::new(exec_busy_us / r.sim_us, n_exec),
    );
    for (name, v) in [
        ("storage.exec.tuples", r.exec.tuples),
        ("storage.exec.comparisons", r.exec.comparisons),
        ("storage.exec.hash_builds", r.exec.hash_builds),
        ("storage.exec.hash_probes", r.exec.hash_probes),
        ("storage.exec.sort_ops", r.exec.sort_ops),
        ("storage.exec.pages_read", r.exec.pages_read),
    ] {
        report.put(name, Metric::new(v as f64, n_exec));
    }
    put_store_metrics(
        report,
        &spans,
        r.journal_wal_bytes,
        r.journal_puts,
        r.journal_runs,
        r.journal_learned_runs,
        &cycles[0].recovery,
    );
    report.zero_unset_layers();

    let table = trace::layer_table(&spans);
    let busy = |layer: &str| table.get(layer).map_or(0, |row| row.busy_ns) as f64;
    let service = busy("optimizer.session") + busy("plan.executor");
    let (what, share) = match kind {
        Kind::Templates => (
            "plan.executor share of service time",
            busy("plan.executor") / service,
        ),
        Kind::Adhoc => (
            "plan.enumerate share of service time",
            busy("plan.enumerate") / service,
        ),
    };
    report.notes.push(format!(
        "confirm {what} = {share:.3} ({})",
        if share > 0.5 {
            "majority: confirmed"
        } else {
            "NOT a majority"
        }
    ));
    report.notes.push(format!(
        "replay wall_s traced={:.3} untraced={:.3}; session memo mispredictions={}",
        r.wall_s, plain.wall_s, r.mispredicted
    ));
    crate::write_trace_artifacts(args, host, &spans, report)
}

/// The `storage.*` metrics both kinds of workload report from their
/// store's spans.
pub fn put_store_metrics(
    report: &mut Report,
    spans: &[trace::Span],
    wal_bytes: u64,
    records: u64,
    runs: usize,
    learned_runs: usize,
    recovery: &RecoveryReport,
) {
    let median = |name: &str, scale: f64| {
        let mut d = trace::durations(spans, name);
        Metric::new(stats::median(&mut d) / scale, d.len())
    };
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    let flushes = count("storage.store.commit_flush");
    report.put(
        "storage.store.flushes",
        Metric::new(flushes as f64, flushes),
    );
    report.put(
        "storage.store.flush_ms",
        median("storage.store.commit_flush", 1e6),
    );
    report.put("storage.store.runs", Metric::new(runs as f64, 1));
    report.put(
        "storage.store.recovery_wal_records",
        Metric::new(recovery.wal_records as f64, 1),
    );
    report.put(
        "storage.store.recovery_runs_loaded",
        Metric::new(f64::from(recovery.runs_loaded), 1),
    );
    let appends = count("storage.wal.append");
    report.put("storage.wal.appends", Metric::new(appends as f64, appends));
    report.put("storage.wal.append_us", median("storage.wal.append", 1e3));
    report.put(
        "storage.wal.bytes_per_record",
        Metric::new(wal_bytes as f64 / records.max(1) as f64, records as usize),
    );
    let fsyncs = count("storage.wal.sync");
    report.put("storage.wal.fsyncs", Metric::new(fsyncs as f64, fsyncs));
    let mut plain_syncs: Vec<f64> = spans
        .iter()
        .filter(|s| {
            s.name == "storage.wal.sync"
                && s.parent != trace::NONE
                && spans[s.parent as usize].name == "storage.store.commit"
        })
        .map(|s| s.dur_ns() as f64)
        .collect();
    report.put(
        "storage.wal.sync_us",
        Metric::new(stats::median(&mut plain_syncs) / 1e3, plain_syncs.len()),
    );
    report.put(
        "storage.run.learned_ratio",
        Metric::new(learned_runs as f64 / runs.max(1) as f64, runs),
    );
    // Run probes: ns per call, and learned over binary-search time.
    let per_call = |name: &str| {
        let d = trace::durations(spans, name);
        let mut per: Vec<f64> = d.iter().map(|ns| ns / f64::from(PROBE_REPS)).collect();
        (stats::median(&mut per), d.iter().sum::<f64>(), d.len())
    };
    let (get_hit, learned_hit_ns, n_hit) = per_call("storage.run.get_hit");
    let (get_miss, learned_miss_ns, n_miss) = per_call("storage.run.get_miss");
    let (bin_hit, binary_hit_ns, _) = per_call("storage.run.binary_hit");
    let (bin_miss, binary_miss_ns, _) = per_call("storage.run.binary_miss");
    report.put("storage.run.get_hit_ns", Metric::new(get_hit, n_hit));
    report.put("storage.run.get_miss_ns", Metric::new(get_miss, n_miss));
    report.put("storage.run.binary_hit_ns", Metric::new(bin_hit, n_hit));
    report.put("storage.run.binary_miss_ns", Metric::new(bin_miss, n_miss));
    let binary_ns = binary_hit_ns + binary_miss_ns;
    let ratio = if binary_ns > 0.0 {
        (learned_hit_ns + learned_miss_ns) / binary_ns
    } else {
        0.0
    };
    report.put(
        "storage.run.learned_over_binary",
        Metric::new(ratio, n_hit + n_miss),
    );
}
