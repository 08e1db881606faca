//! The threaded serving front end: session-per-client submission,
//! admission control, worker threads executing over [`SessionView`]s,
//! and an exactly-once response table.
//!
//! # Threading model
//!
//! The server is a passive shared object: client threads call
//! [`Server::submit`] and then [`Server::await_take`]; worker threads
//! run [`Server::run_worker`] until [`Server::close`] is called and the
//! queue drains. All shared state is sharded and every lock acquisition
//! recovers from poisoning — a panicking worker (or a panic injected by
//! a test) can never wedge submission, execution, or response delivery.
//!
//! # Exactly-once contract
//!
//! Every submitted request resolves to **exactly one** [`Response`]
//! deposited in the response table: shed and rejected requests resolve
//! synchronously inside `submit`, admitted requests resolve when a
//! worker finishes them (including by contained panic). The table
//! counts double-deposits ([`Server::duplicate_responses`], always 0
//! unless accounting breaks) and `await_take` *removes* the response,
//! so a second take of the same id observably returns nothing.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

use ml4db_obs::Histogram;
use ml4db_optimizer::Env;
use ml4db_plan::Query;
use ml4db_storage::durable::{DurableStore, StorageMedium, WalError};

use crate::admission::{AdmissionConfig, AdmissionQueue, AdmissionVerdict, Ticket};
use crate::report::{ServeReport, TenantReport};

/// One client request. Ids must be unique per run — sessions own an id
/// namespace (e.g. `session << 32 | seq`).
#[derive(Clone, Debug)]
pub struct Request {
    /// Caller-unique request id; the response is filed under it.
    pub id: u64,
    /// Session (client) the request belongs to.
    pub session: u64,
    /// Tenant for accounting and reporting.
    pub tenant: u32,
    /// Priority class (0 = most latency-sensitive).
    pub class: u8,
    /// The query to serve.
    pub query: Query,
}

/// How a request resolved.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// Executed; simulated latency in µs.
    Done {
        /// Simulated execution latency (µs).
        latency_us: f64,
    },
    /// Refused by load control.
    Shed(&'static str),
    /// Refused as malformed.
    Rejected(&'static str),
    /// Admitted but could not produce a result ("no_plan" or "panic").
    Failed(&'static str),
}

/// The single response every submitted request eventually receives.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// The request this answers.
    pub request_id: u64,
    /// Tenant copied from the request.
    pub tenant: u32,
    /// Resolution.
    pub outcome: Outcome,
}

/// Serving-layer configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Admission-control knobs.
    pub admission: AdmissionConfig,
    /// Number of tenants; requests naming others are rejected.
    pub tenants: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { admission: AdmissionConfig::default(), tenants: 4 }
    }
}

const RESPONSE_SHARDS: usize = 64;

/// Sharded rendezvous between workers depositing responses and
/// sessions awaiting them.
struct ResponseTable {
    shards: Vec<(Mutex<HashMap<u64, Response>>, Condvar)>,
    duplicates: AtomicU64,
}

impl ResponseTable {
    fn new() -> Self {
        Self {
            shards: (0..RESPONSE_SHARDS).map(|_| (Mutex::new(HashMap::new()), Condvar::new())).collect(),
            duplicates: AtomicU64::new(0),
        }
    }

    fn shard(&self, id: u64) -> &(Mutex<HashMap<u64, Response>>, Condvar) {
        &self.shards[(id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % RESPONSE_SHARDS]
    }

    fn lock<'s>(
        m: &'s Mutex<HashMap<u64, Response>>,
    ) -> MutexGuard<'s, HashMap<u64, Response>> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn deposit(&self, resp: Response) {
        let (m, cv) = self.shard(resp.request_id);
        let prev = Self::lock(m).insert(resp.request_id, resp);
        if prev.is_some() {
            self.duplicates.fetch_add(1, Ordering::Relaxed);
        }
        cv.notify_all();
    }

    fn try_take(&self, id: u64) -> Option<Response> {
        let (m, _) = self.shard(id);
        Self::lock(m).remove(&id)
    }

    fn await_take(&self, id: u64) -> Response {
        let (m, cv) = self.shard(id);
        let mut g = Self::lock(m);
        loop {
            if let Some(r) = g.remove(&id) {
                return r;
            }
            g = cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Per-tenant monotone counters (relaxed atomics; read at report time).
#[derive(Default)]
struct TenantCounters {
    submitted: AtomicU64,
    admitted: AtomicU64,
    shed: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
}

/// Where accepted requests are made durable. Implemented by
/// [`DurableStore`] over any medium: `record` journals one accepted
/// request (staged), `sync` drives the WAL's commit + fsync barrier.
/// The graceful-shutdown contract is built on this: [`Server::shutdown`]
/// drains the admission queue and then `sync`s, so an accepted request
/// can never be lost by a clean exit.
pub trait DurabilitySink: Send {
    /// Journals one accepted request (`request_id → packed metadata`).
    fn record(&mut self, request_id: u64, tenant: u32) -> Result<(), WalError>;
    /// Commits and fsyncs everything recorded so far.
    fn sync(&mut self) -> Result<(), WalError>;
}

impl<M: StorageMedium + Send> DurabilitySink for DurableStore<M> {
    fn record(&mut self, request_id: u64, tenant: u32) -> Result<(), WalError> {
        self.put(request_id, u64::from(tenant))
    }

    fn sync(&mut self) -> Result<(), WalError> {
        self.commit().map(|_| ())
    }
}

/// The serving front end over an [`Env`] engine core. See the module
/// docs for the threading model and the exactly-once contract.
pub struct Server<'e, 'db> {
    env: &'e Env<'db>,
    cfg: ServeConfig,
    queue: Mutex<AdmissionQueue<Request>>,
    qcv: Condvar,
    closed: AtomicBool,
    responses: ResponseTable,
    counters: Vec<TenantCounters>,
    latency: Vec<Mutex<Histogram>>,
    journal: Mutex<Option<Box<dyn DurabilitySink>>>,
    journal_errors: AtomicU64,
}

impl<'e, 'db> Server<'e, 'db> {
    /// A server over `env` with `cfg`.
    pub fn new(env: &'e Env<'db>, cfg: ServeConfig) -> Self {
        assert!(cfg.tenants > 0, "at least one tenant");
        Self {
            env,
            cfg,
            queue: Mutex::new(AdmissionQueue::new(cfg.admission)),
            qcv: Condvar::new(),
            closed: AtomicBool::new(false),
            responses: ResponseTable::new(),
            counters: (0..cfg.tenants).map(|_| TenantCounters::default()).collect(),
            latency: (0..cfg.tenants).map(|_| Mutex::new(Histogram::latency_us())).collect(),
            journal: Mutex::new(None),
            journal_errors: AtomicU64::new(0),
        }
    }

    /// Attaches a durability journal: every subsequently accepted
    /// request is recorded in it, and [`Server::shutdown`] fsyncs it
    /// after the queue drains.
    pub fn set_journal(&self, sink: Box<dyn DurabilitySink>) {
        *self.lock_journal() = Some(sink);
    }

    fn lock_journal(&self) -> MutexGuard<'_, Option<Box<dyn DurabilitySink>>> {
        self.journal.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Journal record/sync failures so far (the serving path degrades to
    /// in-memory rather than refusing traffic; callers watching this
    /// counter decide when to trip a breaker).
    pub fn journal_errors(&self) -> u64 {
        self.journal_errors.load(Ordering::Relaxed)
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &'e Env<'db> {
        self.env
    }

    fn lock_queue(&self) -> MutexGuard<'_, AdmissionQueue<Request>> {
        // Poison recovery: the queue only ever holds fully-formed
        // tickets; a panic under the lock cannot leave it half-mutated
        // in a way later pops would observe.
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Submits one request. The verdict comes back immediately; the
    /// response (for *every* verdict) lands in the response table under
    /// `req.id`. Admitted work is executed by `run_worker` threads.
    pub fn submit(&self, req: Request) -> AdmissionVerdict {
        let tenant = req.tenant;
        let class = req.class;
        if tenant >= self.cfg.tenants {
            // Unknown tenant: account globally under tenant 0's ledger
            // would lie; refuse before any counter is touched.
            self.responses.deposit(Response {
                request_id: req.id,
                tenant,
                outcome: Outcome::Rejected("bad_tenant"),
            });
            return AdmissionVerdict::Rejected("bad_tenant");
        }
        let counters = &self.counters[tenant as usize];
        counters.submitted.fetch_add(1, Ordering::Relaxed);
        if req.query.validate(self.env.db).is_err() {
            counters.rejected.fetch_add(1, Ordering::Relaxed);
            self.observe_verdict(tenant, class, "rejected", 0);
            self.responses.deposit(Response {
                request_id: req.id,
                tenant,
                outcome: Outcome::Rejected("invalid_query"),
            });
            return AdmissionVerdict::Rejected("invalid_query");
        }
        let id = req.id;
        let (verdict, depth) = {
            let mut q = self.lock_queue();
            let v = q.offer(req, class);
            let depth = q.depth() as u32;
            match v {
                Ok(v) => (v, depth),
                Err((_, v)) => (v, depth),
            }
        };
        self.observe_verdict(tenant, class, verdict.kind(), depth);
        match verdict {
            AdmissionVerdict::Admitted => {
                counters.admitted.fetch_add(1, Ordering::Relaxed);
                if let Some(sink) = self.lock_journal().as_mut() {
                    if sink.record(id, tenant).is_err() {
                        self.journal_errors.fetch_add(1, Ordering::Relaxed);
                        ml4db_obs::counter_add("serve.journal_errors", 1);
                    }
                }
                self.qcv.notify_one();
            }
            AdmissionVerdict::Shed(reason) => {
                counters.shed.fetch_add(1, Ordering::Relaxed);
                self.responses.deposit(Response { request_id: id, tenant, outcome: Outcome::Shed(reason) });
            }
            AdmissionVerdict::Rejected(reason) => {
                counters.rejected.fetch_add(1, Ordering::Relaxed);
                self.responses.deposit(Response {
                    request_id: id,
                    tenant,
                    outcome: Outcome::Rejected(reason),
                });
            }
        }
        verdict
    }

    fn observe_verdict(&self, tenant: u32, class: u8, verdict: &'static str, depth: u32) {
        ml4db_obs::emit_with(|| ml4db_obs::Event::ServeVerdict {
            tenant,
            class,
            verdict,
            queue_depth: depth,
        });
        ml4db_obs::counter_add(
            match verdict {
                "admitted" => "serve.admitted",
                "shed" => "serve.shed",
                _ => "serve.rejected",
            },
            1,
        );
    }

    /// Blocks until the response for `id` arrives, removing it. Exactly
    /// one caller gets it; a second take returns via [`Server::try_take`]
    /// as `None`.
    pub fn await_take(&self, id: u64) -> Response {
        self.responses.await_take(id)
    }

    /// Removes the response for `id` if already deposited.
    pub fn try_take(&self, id: u64) -> Option<Response> {
        self.responses.try_take(id)
    }

    /// Responses that overwrote an existing one — 0 unless the
    /// exactly-once contract broke (stress suites assert on it).
    pub fn duplicate_responses(&self) -> u64 {
        self.responses.duplicates.load(Ordering::Relaxed)
    }

    /// Worker entry point: executes admitted requests through a
    /// per-worker [`SessionView`](ml4db_optimizer::SessionView) until
    /// the server is closed *and* the queue has drained. Run this on N
    /// threads for an N-worker server.
    pub fn run_worker(&self, worker_id: u64) {
        let mut view = self.env.session(worker_id);
        loop {
            let ticket: Option<Ticket<Request>> = {
                let mut q = self.lock_queue();
                loop {
                    if let Some(t) = q.pop() {
                        break Some(t);
                    }
                    if self.closed.load(Ordering::Acquire) {
                        break None;
                    }
                    q = self.qcv.wait(q).unwrap_or_else(|e| e.into_inner());
                }
            };
            let Some(ticket) = ticket else { return };
            let req = ticket.item;
            let counters = &self.counters[req.tenant as usize];
            // Contain panics from faulty learned components: the request
            // fails, the worker (and its view) live on.
            let served = catch_unwind(AssertUnwindSafe(|| view.serve(&req.query)));
            let outcome = match served {
                Ok(Some(latency_us)) => {
                    counters.completed.fetch_add(1, Ordering::Relaxed);
                    self.latency[req.tenant as usize]
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .observe(latency_us);
                    ml4db_obs::histogram_observe("serve.latency_us", latency_us);
                    Outcome::Done { latency_us }
                }
                Ok(None) => {
                    counters.failed.fetch_add(1, Ordering::Relaxed);
                    Outcome::Failed("no_plan")
                }
                Err(_) => {
                    counters.failed.fetch_add(1, Ordering::Relaxed);
                    Outcome::Failed("panic")
                }
            };
            self.responses.deposit(Response { request_id: req.id, tenant: req.tenant, outcome });
        }
    }

    /// Signals shutdown: workers drain what is already queued, then
    /// return. Late submissions still pass through admission (their
    /// responses only resolve if a worker is still draining), so
    /// callers should stop submitting before closing.
    pub fn close(&self) {
        // Set the flag under the queue lock: a worker checks it under
        // that lock before waiting, so the notify below cannot fall
        // between its check and its wait and be lost.
        let queue = self.lock_queue();
        self.closed.store(true, Ordering::Release);
        drop(queue);
        self.qcv.notify_all();
    }

    /// Graceful shutdown: closes admission, waits for running workers
    /// to drain the queue, then commits + fsyncs the attached journal
    /// (if any) so every accepted request is durable before exit.
    ///
    /// Call while the worker threads are still running — they do the
    /// draining; join them afterwards for full quiescence. Returns the
    /// journal's sync result (`Ok` when no journal is attached).
    pub fn shutdown(&self) -> Result<(), WalError> {
        self.close();
        while self.queue_depth() > 0 {
            std::thread::yield_now();
        }
        ml4db_obs::counter_add("serve.shutdowns", 1);
        if let Some(sink) = self.lock_journal().as_mut() {
            sink.sync().inspect_err(|_| {
                self.journal_errors.fetch_add(1, Ordering::Relaxed);
                ml4db_obs::counter_add("serve.journal_errors", 1);
            })
        } else {
            Ok(())
        }
    }

    /// Current queue depth (racy snapshot; for monitoring and tests).
    pub fn queue_depth(&self) -> usize {
        self.lock_queue().depth()
    }

    /// Builds the per-tenant report from the live counters and latency
    /// histograms. Pass `drained: true` after close + worker join to
    /// additionally assert no admitted request was lost.
    pub fn report(&self, drained: bool) -> ServeReport {
        let tenants = self
            .counters
            .iter()
            .zip(&self.latency)
            .map(|(c, h)| {
                let h = h.lock().unwrap_or_else(|e| e.into_inner());
                TenantReport {
                    submitted: c.submitted.load(Ordering::Relaxed),
                    admitted: c.admitted.load(Ordering::Relaxed),
                    shed: c.shed.load(Ordering::Relaxed),
                    rejected: c.rejected.load(Ordering::Relaxed),
                    completed: c.completed.load(Ordering::Relaxed),
                    failed: c.failed.load(Ordering::Relaxed),
                    ..Default::default()
                }
                .with_quantiles(&h)
            })
            .collect();
        let report = ServeReport { tenants, virtual_ns: None, queries_per_sec: None };
        report.check_invariants(drained);
        report
    }

    /// Poisons one response shard and one expert-latency shard the way
    /// a panicking worker would — regression hook proving a poisoned
    /// shard cannot wedge serving. Test use only.
    #[doc(hidden)]
    pub fn poison_shards_for_test(&self) {
        let (m, _) = &self.responses.shards[0];
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _g = m.lock().unwrap();
                panic!("poison the response shard");
            })
            .join()
        });
        self.env.poison_latency_shard_for_test();
    }
}
