//! A persistent worker pool that fans batched distance queries across
//! threads while preserving request order.
//!
//! [`SharedOracle::batch_distances`](hcl_core::SharedOracle) spawns scoped
//! threads per call — fine for one offline batch, wasteful at serving rates
//! where every connection may submit batches concurrently. The
//! [`BatchExecutor`] keeps `threads` long-lived workers (each with its own
//! [`QueryContext`]) pulling chunks from a shared channel, so concurrent
//! batches from different connections interleave on the same pool.
//!
//! Completion is asynchronous: [`submit`](BatchExecutor::submit) and
//! [`submit_query`](BatchExecutor::submit_query) take a callback that runs
//! on the worker finishing the last chunk — the reactor passes one that
//! pushes the formatted response onto its completion queue and signals its
//! eventfd, so no thread ever blocks on a batch. The blocking
//! [`execute`](BatchExecutor::execute) (offline callers, benches) is a thin
//! condvar wrapper over the same path.

use crate::metrics::ServeMetrics;
use crate::oracle_pool::{QueryError, QueryService};
use crate::serving::ServingIndex;
use hcl_core::{OracleEpoch, QueryContext};
use hcl_graph::VertexId;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Queued-query cap applied by [`BatchExecutor::new`]: enough headroom for
/// thousands of concurrent batches, small enough that a flood sheds (`ERR
/// busy`) instead of growing the worker channel without bound.
pub const DEFAULT_MAX_PENDING: usize = 1 << 16;

/// Completion callback for an asynchronously submitted batch; receives the
/// distances in input order, or [`QueryError::DeadlineExpired`] when the
/// job outlived its deadline on the queue. Runs on a worker thread.
pub type BatchCallback = Box<dyn FnOnce(Result<Vec<Option<u32>>, QueryError>) + Send + 'static>;

/// Completion callback for a single asynchronously submitted query.
pub type QueryCallback = Box<dyn FnOnce(Result<Option<u32>, QueryError>) + Send + 'static>;

/// One submitted batch: the input pairs, the index generation the whole
/// batch is answered on, the in-progress results, and the completion
/// callback.
struct BatchJob {
    pairs: Vec<(VertexId, VertexId)>,
    /// Pinned at submission: every chunk of this batch is validated and
    /// computed against this one generation, so a mid-batch hot reload can
    /// never mix epochs inside a response.
    index: Arc<OracleEpoch<ServingIndex>>,
    results: Mutex<Vec<Option<u32>>>,
    /// Chunks not yet fully computed.
    remaining: AtomicUsize,
    /// Taken exactly once, by the worker that completes the last chunk.
    on_done: Mutex<Option<BatchCallback>>,
    /// Absolute wall-clock bound: a chunk picked up past it computes
    /// nothing and the whole job resolves `DeadlineExpired`.
    deadline: Option<Instant>,
    /// Set by the first worker to observe the deadline passed.
    expired: AtomicBool,
}

/// A contiguous slice of one job, claimed by a single worker.
struct Chunk {
    job: Arc<BatchJob>,
    start: usize,
    end: usize,
}

/// The persistent batch worker pool; see the module docs.
pub struct BatchExecutor {
    service: Arc<QueryService>,
    /// `None` only during drop (disconnects the workers).
    injector: Option<mpsc::Sender<Chunk>>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    /// Queries accepted but not yet computed (shared with the workers,
    /// who decrement as chunks finish).
    depth: Arc<AtomicUsize>,
    /// Shed (`ERR busy`) any submission that would push `depth` past
    /// this; 0 disables the bound.
    max_pending: usize,
}

impl BatchExecutor {
    /// Spawns `threads` workers over `service` (0 = all cores) with the
    /// [`DEFAULT_MAX_PENDING`] overload bound.
    pub fn new(service: Arc<QueryService>, threads: usize) -> Self {
        Self::with_queue_cap(service, threads, DEFAULT_MAX_PENDING)
    }

    /// [`new`](Self::new) with an explicit queued-query cap (0 =
    /// unbounded). Submissions that would exceed it are refused with
    /// [`QueryError::Overloaded`] — typed `ERR busy` on the wire — and
    /// counted in the `shed_requests` metric, instead of growing the
    /// worker channel without bound.
    pub fn with_queue_cap(service: Arc<QueryService>, threads: usize, max_pending: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
        } else {
            threads
        };
        let depth = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel::<Chunk>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let service = Arc::clone(&service);
                let depth = Arc::clone(&depth);
                std::thread::spawn(move || {
                    let mut ctx = QueryContext::new(service.num_vertices());
                    loop {
                        // Hold the receiver lock only for the pop, not the
                        // computation.
                        let chunk = match rx.lock().expect("batch queue poisoned").recv() {
                            Ok(chunk) => chunk,
                            Err(_) => return, // executor dropped
                        };
                        Self::run_chunk(&service, &mut ctx, &chunk, &depth);
                    }
                })
            })
            .collect();
        BatchExecutor { service, injector: Some(tx), workers, threads, depth, max_pending }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Queries accepted but not yet computed.
    pub fn queued(&self) -> usize {
        self.depth.load(Ordering::Acquire)
    }

    /// The service this pool queries.
    pub fn service(&self) -> &Arc<QueryService> {
        &self.service
    }

    fn run_chunk(
        service: &QueryService,
        ctx: &mut QueryContext,
        chunk: &Chunk,
        depth: &AtomicUsize,
    ) {
        let job = &chunk.job;
        // A chunk picked up past the job's deadline computes nothing, and
        // poisons the job so sibling chunks stop computing too — a queue
        // full of expired work drains at memcpy speed instead of search
        // speed.
        if job.deadline.is_some_and(|at| Instant::now() >= at)
            && !job.expired.swap(true, Ordering::AcqRel)
        {
            ServeMetrics::bump(&service.metrics().deadline_expired);
        }
        if !job.expired.load(Ordering::Acquire) {
            // Compute outside the results lock; one short splice per chunk.
            // The job's pinned generation supplies graph, labelling, and
            // cache epoch (the context self-resizes across graph sizes).
            let computed: Vec<Option<u32>> = job.pairs[chunk.start..chunk.end]
                .iter()
                .map(|&(s, t)| service.cached_distance_with(&job.index, ctx, s, t))
                .collect();
            job.results.lock().expect("batch results poisoned")[chunk.start..chunk.end]
                .copy_from_slice(&computed);
        }
        depth.fetch_sub(chunk.end - chunk.start, Ordering::AcqRel);
        if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let on_done =
                job.on_done.lock().expect("batch callback poisoned").take().expect("taken once");
            if job.expired.load(Ordering::Acquire) {
                on_done(Err(QueryError::DeadlineExpired));
            } else {
                let results =
                    std::mem::take(&mut *job.results.lock().expect("batch results poisoned"));
                on_done(Ok(results));
            }
        }
    }

    /// Overload gate: reserves room for `count` queries or sheds. Runs
    /// before validation so a flood is turned away at the door.
    fn admit(&self, count: usize) -> Result<(), QueryError> {
        if self.max_pending == 0 {
            self.depth.fetch_add(count, Ordering::AcqRel);
            return Ok(());
        }
        let mut current = self.depth.load(Ordering::Acquire);
        loop {
            if current + count > self.max_pending {
                ServeMetrics::bump(&self.service.metrics().shed_requests);
                return Err(QueryError::Overloaded);
            }
            match self.depth.compare_exchange_weak(
                current,
                current + count,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Ok(()),
                Err(seen) => current = seen,
            }
        }
    }

    /// Validates `pairs` against the index generation current at
    /// submission and fans them across the worker pool; `on_done` runs —
    /// with the distances in input order — on the worker that finishes the
    /// last chunk (inline for an empty batch). On a validation error
    /// nothing is executed, nothing is counted, and the callback is
    /// dropped unused. Callable concurrently from any number of threads;
    /// never blocks on the computation.
    pub fn submit(
        &self,
        pairs: Vec<(VertexId, VertexId)>,
        on_done: BatchCallback,
    ) -> Result<(), QueryError> {
        self.admit(pairs.len())?;
        let index = self.service.snapshot();
        for &(s, t) in &pairs {
            if let Err(e) = QueryService::check_pair_in(&index, s, t) {
                self.depth.fetch_sub(pairs.len(), Ordering::AcqRel);
                return Err(e);
            }
        }
        let metrics = self.service.metrics();
        ServeMetrics::bump(&metrics.batch_requests);
        ServeMetrics::add(&metrics.batch_queries, pairs.len() as u64);
        if pairs.is_empty() {
            on_done(Ok(Vec::new()));
            return Ok(());
        }
        self.enqueue(pairs, index, on_done);
        Ok(())
    }

    /// Single-query analogue of [`submit`](Self::submit): validated up
    /// front, counted in the `queries` metric, answered through the cache
    /// on a pooled worker. Lets the reactor keep cache-miss queries (real
    /// graph searches) off its event loop.
    pub fn submit_query(
        &self,
        s: VertexId,
        t: VertexId,
        on_done: QueryCallback,
    ) -> Result<(), QueryError> {
        self.admit(1)?;
        let index = self.service.snapshot();
        if let Err(e) = QueryService::check_pair_in(&index, s, t) {
            self.depth.fetch_sub(1, Ordering::AcqRel);
            return Err(e);
        }
        ServeMetrics::bump(&self.service.metrics().queries);
        self.enqueue(
            vec![(s, t)],
            index,
            Box::new(move |results| on_done(results.map(|r| r.first().copied().flatten()))),
        );
        Ok(())
    }

    /// Splits an already validated batch into chunks on the worker queue.
    fn enqueue(
        &self,
        pairs: Vec<(VertexId, VertexId)>,
        index: Arc<OracleEpoch<ServingIndex>>,
        on_done: BatchCallback,
    ) {
        // Over-split relative to the thread count so a slow chunk (cache
        // misses needing real searches) doesn't serialise the tail.
        let chunk_size = pairs.len().div_ceil(self.threads * 4).max(1);
        let num_chunks = pairs.len().div_ceil(chunk_size);
        let len = pairs.len();
        let job = Arc::new(BatchJob {
            pairs,
            index,
            results: Mutex::new(vec![None; len]),
            remaining: AtomicUsize::new(num_chunks),
            on_done: Mutex::new(Some(on_done)),
            deadline: self.service.request_deadline().map(|d| Instant::now() + d),
            expired: AtomicBool::new(false),
        });
        let injector = self.injector.as_ref().expect("executor not shut down");
        for i in 0..num_chunks {
            let start = i * chunk_size;
            let end = (start + chunk_size).min(len);
            injector
                .send(Chunk { job: Arc::clone(&job), start, end })
                .expect("batch workers alive while executor exists");
        }
    }

    /// Blocking wrapper over [`submit`](Self::submit): answers `pairs` in
    /// input order, waiting on a condvar for the pool to finish. For
    /// offline callers and benches — the serving path never blocks.
    pub fn execute(&self, pairs: &[(VertexId, VertexId)]) -> Result<Vec<Option<u32>>, QueryError> {
        type Cell = (Mutex<Option<Result<Vec<Option<u32>>, QueryError>>>, Condvar);
        let cell: Arc<Cell> = Arc::new((Mutex::new(None), Condvar::new()));
        let signal = Arc::clone(&cell);
        self.submit(
            pairs.to_vec(),
            Box::new(move |results| {
                *signal.0.lock().expect("batch signal poisoned") = Some(results);
                signal.1.notify_all();
            }),
        )?;
        let (lock, cvar) = &*cell;
        let mut slot = lock.lock().expect("batch signal poisoned");
        while slot.is_none() {
            slot = cvar.wait(slot).expect("batch signal poisoned");
        }
        slot.take().expect("slot filled")
    }
}

impl Drop for BatchExecutor {
    fn drop(&mut self) {
        // Disconnect the channel so workers drain outstanding chunks and
        // exit, then join them. When the last handle is dropped inside a
        // completion callback, this runs on a worker: that one is
        // detached, not joined (joining itself would deadlock), and exits
        // on its next `recv`.
        self.injector = None;
        let me = std::thread::current().id();
        for worker in self.workers.drain(..) {
            if worker.thread().id() != me {
                let _ = worker.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcl_core::testing::ba_fixture;

    fn service(cache_capacity: usize) -> Arc<QueryService> {
        let (g, labelling) = ba_fixture(500, 4, 33, 12);
        Arc::new(QueryService::from_parts(g, labelling, cache_capacity))
    }

    fn pairs(count: usize, n: u32) -> Vec<(u32, u32)> {
        (0..count as u32).map(|i| ((i * 7) % n, (i * 13 + 1) % n)).collect()
    }

    #[test]
    fn matches_sequential_in_order() {
        let service = service(0);
        let pairs = pairs(997, 500);
        let expect = service.snapshot().index().batch_distances(&pairs, 1);
        for threads in [1usize, 2, 4, 8] {
            let executor = BatchExecutor::new(Arc::clone(&service), threads);
            assert_eq!(executor.execute(&pairs).unwrap(), expect, "threads {threads}");
        }
    }

    #[test]
    fn empty_batch() {
        let executor = BatchExecutor::new(service(0), 2);
        assert!(executor.execute(&[]).unwrap().is_empty());
    }

    #[test]
    fn rejects_out_of_range_without_executing() {
        let service = service(0);
        let executor = BatchExecutor::new(Arc::clone(&service), 2);
        let err = executor.execute(&[(0, 1), (0, 500)]).unwrap_err();
        assert_eq!(err, QueryError::VertexOutOfRange { vertex: 500, n: 500 });
        // Validation happens before any work or accounting.
        assert_eq!(service.metrics_snapshot().batch_requests, 0);
        assert_eq!(service.metrics_snapshot().batch_queries, 0);
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let service = service(1 << 12);
        let executor = Arc::new(BatchExecutor::new(Arc::clone(&service), 4));
        let expect = service.snapshot().index().batch_distances(&pairs(400, 500), 1);
        std::thread::scope(|scope| {
            for _ in 0..6 {
                let executor = Arc::clone(&executor);
                let expect = expect.clone();
                scope.spawn(move || {
                    for _ in 0..5 {
                        assert_eq!(executor.execute(&pairs(400, 500)).unwrap(), expect);
                    }
                });
            }
        });
        let snap = service.metrics_snapshot();
        assert_eq!(snap.batch_requests, 30);
        assert_eq!(snap.batch_queries, 30 * 400);
    }

    #[test]
    fn batches_span_one_epoch_across_a_reload() {
        use hcl_core::SharedOracle;

        let service = service(1 << 10);
        let executor = BatchExecutor::new(Arc::clone(&service), 2);
        let pairs = pairs(300, 500);
        let before = executor.execute(&pairs).unwrap();

        // Swap to a different graph of the same size; whole batches flip.
        let (g, labelling) = ba_fixture(500, 4, 99, 12);
        let new_oracle = SharedOracle::new(g, labelling);
        let expect_new = new_oracle.batch_distances(&pairs, 1);
        assert_eq!(service.reload(new_oracle), 1);

        let after = executor.execute(&pairs).unwrap();
        assert_eq!(after, expect_new, "post-reload batches answer on the new index");
        assert_ne!(after, before, "the two fixture graphs must differ on this stream");
    }

    #[test]
    fn async_submit_delivers_via_callback_and_matches_execute() {
        use std::sync::mpsc;

        let service = service(0);
        let executor = BatchExecutor::new(Arc::clone(&service), 2);
        let pairs = pairs(200, 500);
        let expect = executor.execute(&pairs).unwrap();

        let (tx, rx) = mpsc::channel();
        executor.submit(pairs.clone(), Box::new(move |results| tx.send(results).unwrap())).unwrap();
        let got = rx.recv_timeout(std::time::Duration::from_secs(30)).unwrap();
        assert_eq!(got.unwrap(), expect);

        // Validation failures surface synchronously; the callback is dropped.
        let (tx, rx) = mpsc::channel::<Result<Vec<Option<u32>>, QueryError>>();
        let err = executor.submit(vec![(0, 999)], Box::new(move |r| tx.send(r).unwrap()));
        assert!(err.is_err());
        assert!(rx.recv().is_err(), "callback must never fire on a rejected batch");
    }

    #[test]
    fn async_single_queries_count_in_the_query_metric() {
        use std::sync::mpsc;

        let service = service(64);
        let executor = BatchExecutor::new(Arc::clone(&service), 2);
        let offline = service.snapshot().index().batch_distances(&[(1, 42)], 1)[0];

        let (tx, rx) = mpsc::channel();
        executor.submit_query(1, 42, Box::new(move |d| tx.send(d).unwrap())).unwrap();
        assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(30)).unwrap().unwrap(), offline);

        assert!(executor.submit_query(0, 500, Box::new(|_| panic!("must not run"))).is_err());

        let snap = service.metrics_snapshot();
        assert_eq!(snap.queries, 1, "one accepted single query");
        assert_eq!(snap.batch_requests, 0, "single queries are not batches");
    }

    #[test]
    fn oversized_submission_sheds_with_busy() {
        let service = service(0);
        let executor = BatchExecutor::with_queue_cap(Arc::clone(&service), 1, 2);
        // Within the cap: served normally.
        assert!(executor.execute(&pairs(2, 500)).is_ok());
        // One more pair than the cap can ever hold: shed at the door.
        let err = executor.execute(&pairs(3, 500)).unwrap_err();
        assert_eq!(err, QueryError::Overloaded);
        assert_eq!(err.to_string(), "busy", "wire form is `ERR busy`");
        let snap = service.metrics_snapshot();
        assert_eq!(snap.shed_requests, 1);
        assert_eq!(snap.batch_requests, 1, "the shed batch was never counted as accepted");
        assert_eq!(executor.queued(), 0, "shed submissions leave no depth behind");
    }

    #[test]
    fn zero_deadline_expires_queued_work() {
        let service = service(0);
        service.set_request_deadline(Some(std::time::Duration::ZERO));
        let executor = BatchExecutor::new(Arc::clone(&service), 2);
        let err = executor.execute(&pairs(50, 500)).unwrap_err();
        assert_eq!(err, QueryError::DeadlineExpired);
        assert_eq!(err.to_string(), "deadline expired");
        let snap = service.metrics_snapshot();
        assert_eq!(snap.deadline_expired, 1, "counted once per job, not per chunk");
        // Disabling the deadline restores normal service.
        service.set_request_deadline(None);
        assert!(executor.execute(&pairs(50, 500)).is_ok());
    }

    #[test]
    fn dropping_the_last_handle_inside_a_callback_detaches_only_that_worker() {
        use std::sync::mpsc;

        let service = service(0);
        let executor = Arc::new(BatchExecutor::new(Arc::clone(&service), 3));
        let (tx, rx) = mpsc::channel();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let handle = Arc::clone(&executor);
        let probe = Arc::downgrade(&service);
        executor
            .submit(
                pairs(8, 500),
                Box::new(move |results| {
                    // Once the test has let go, this is the last strong
                    // handle: `BatchExecutor::drop` runs on this worker.
                    gate_rx.recv().unwrap();
                    drop(handle);
                    // Joined workers have dropped their service handles;
                    // what remains is the test's and this worker's own.
                    tx.send((results.is_ok(), probe.strong_count())).unwrap();
                }),
            )
            .unwrap();
        drop(executor);
        gate_tx.send(()).unwrap();
        let (ok, holders) = rx.recv_timeout(std::time::Duration::from_secs(30)).unwrap();
        assert!(ok, "the batch was answered");
        assert_eq!(holders, 2, "the other two workers were joined before drop returned");
    }

    #[test]
    fn batches_with_cache_agree_with_no_cache() {
        let cached = BatchExecutor::new(service(1 << 10), 3);
        let uncached = BatchExecutor::new(service(0), 3);
        let pairs = pairs(600, 500);
        let a = cached.execute(&pairs).unwrap();
        let b = uncached.execute(&pairs).unwrap();
        assert_eq!(a, b);
        // Second submission is served mostly from cache — still identical.
        assert_eq!(cached.execute(&pairs).unwrap(), a);
        assert!(cached.service().cache_stats().hits > 0);
    }
}
