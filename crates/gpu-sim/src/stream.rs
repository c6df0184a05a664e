//! CUDA-stream-style asynchronous, ordered kernel launches.
//!
//! A [`Stream`] is created from a [`Gpu`](crate::launch::Gpu) via
//! [`Gpu::stream`](crate::launch::Gpu::stream) and maps one-to-one onto a
//! `cudaStream_t`: work enqueued on one stream executes in enqueue order
//! (launch *k+1* starts only after launch *k* finished, like kernels on
//! the same CUDA stream, which never overlap), while work on different
//! streams overlaps freely on the shared persistent worker pool. This is
//! what enables the batched SAT throughput pipeline: image *i+1*'s
//! row-scan kernel runs while image *i*'s column-scan is still in flight,
//! so the pool's workers overlap the kernels of different images.
//!
//! Ordering is cooperative, not preemptive: only the stream's head job is
//! ever on the pool; the thread that finishes its last block runs the
//! stream's next job, publishing it for helpers when it has more than one
//! block. The pool therefore never has to know about streams, and
//! in-stream ordering can never be violated by scheduling accidents.
//!
//! **Accounting is schedule-independent by construction.** A stream job
//! charges counters through the same `BlockCtx` accumulators as any other
//! launch; which OS thread runs a block, and what other streams run
//! concurrently, never enters any counter. The scheduling-parity
//! integration tests assert this across sequential, concurrent, and
//! stream-pipelined execution.
//!
//! Error model: a panic inside a stream job aborts that job, cancels
//! everything queued behind it on the same stream (as a CUDA error poisons
//! subsequent stream operations), and is re-raised by the next
//! [`Stream::sync`]. Dropping the last handle to a stream blocks until the
//! stream drains (like `cudaStreamDestroy`); a pending panic is swallowed
//! in that case, so call `sync` to observe failures.

use std::collections::VecDeque;
use std::panic::resume_unwind;
use std::sync::{Arc, Condvar, Mutex};

use crate::device::DeviceConfig;
use crate::executor::{Body, BorrowedBody, LaunchJob, PoolShared};
use crate::launch::{BlockCtx, DispatchOrder, LaunchConfig};
use crate::metrics::KernelMetrics;
use crate::trace::Tracer;

#[derive(Default)]
struct StreamState {
    /// Jobs waiting for the in-flight job to finish, in enqueue order.
    queued: VecDeque<Arc<LaunchJob>>,
    /// Whether the head job is currently on the pool.
    in_flight: bool,
    /// Metrics of completed asynchronous launches, in enqueue order.
    finished: Vec<KernelMetrics>,
    /// First panic raised by a job of this stream, re-raised by `sync`.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// State shared between stream handles, their queued jobs, and the pool
/// workers that complete them.
pub(crate) struct StreamShared {
    pool: Arc<PoolShared>,
    /// Keeps the owning device's worker threads alive while any stream
    /// handle exists: without this, dropping the last `Gpu` handle would
    /// join the pool and strand the stream's queued work forever.
    _engine: Arc<crate::launch::Engine>,
    state: Mutex<StreamState>,
    idle: Condvar,
}

impl StreamShared {
    /// Called by the worker that finishes a job's last block: record the
    /// result and advance the stream's queue.
    ///
    /// Returns the next queued job, which the completing worker runs on
    /// its warm scratch arena and the token it already holds. A job of
    /// more than one block is also published ([`PoolShared::publish`]):
    /// that wakes helpers only when the job's measured blocks outlast a
    /// wake, but always queues the job, which a parked block needs to hand
    /// its token to. In-stream ordering is preserved trivially: the
    /// chained job starts strictly after this one's last block.
    pub(crate) fn on_job_complete(
        &self,
        pool: &PoolShared,
        job: &LaunchJob,
    ) -> Option<Arc<LaunchJob>> {
        // Snapshot the metrics before taking the stream lock: the enqueueing
        // host thread contends for the same lock, and on a single-core host
        // every contended acquisition is a context switch.
        let metrics =
            if !job.panicked() && job.record_in_stream() { Some(job.metrics()) } else { None };
        let mut st = self.state.lock().unwrap();
        st.in_flight = false;
        if job.panicked() {
            if job.record_in_stream() {
                if let Some(p) = job.take_panic() {
                    if st.panic.is_none() {
                        st.panic = Some(p);
                    }
                }
            }
            // A failed launch poisons the rest of the stream: cancel
            // everything queued behind it.
            for dropped in st.queued.drain(..) {
                dropped.finish_cancelled(
                    "stream cancelled: an earlier launch in this stream panicked",
                );
            }
            drop(st);
            self.idle.notify_all();
            return None;
        }
        if let Some(m) = metrics {
            st.finished.push(m);
        }
        while let Some(next) = st.queued.pop_front() {
            if next.blocks() == 0 {
                if next.record_in_stream() {
                    st.finished.push(next.metrics());
                }
                next.finish_empty();
                continue;
            }
            st.in_flight = true;
            drop(st);
            if next.blocks() > 1 {
                pool.publish(Arc::clone(&next));
            }
            return Some(next);
        }
        drop(st);
        self.idle.notify_all();
        None
    }
}

/// An asynchronous launch queue bound to a [`Gpu`](crate::launch::Gpu)'s
/// worker pool; see the [module docs](self) for the execution model.
///
/// Clones share the same underlying stream.
#[derive(Clone)]
pub struct Stream {
    shared: Arc<StreamShared>,
    cfg: DeviceConfig,
    dispatch: DispatchOrder,
    tracer: Option<Arc<Tracer>>,
}

impl std::fmt::Debug for Stream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.shared.state.lock().unwrap();
        f.debug_struct("Stream")
            .field("in_flight", &st.in_flight)
            .field("queued", &st.queued.len())
            .field("finished", &st.finished.len())
            .finish_non_exhaustive()
    }
}

impl Stream {
    pub(crate) fn new(
        pool: Arc<PoolShared>,
        engine: Arc<crate::launch::Engine>,
        cfg: DeviceConfig,
        dispatch: DispatchOrder,
        tracer: Option<Arc<Tracer>>,
    ) -> Self {
        Stream {
            shared: Arc::new(StreamShared {
                pool,
                _engine: engine,
                state: Mutex::new(StreamState::default()),
                idle: Condvar::new(),
            }),
            cfg,
            dispatch,
            tracer,
        }
    }

    fn make_job(
        &self,
        lc: LaunchConfig,
        body: Body,
        tracer: Option<Arc<Tracer>>,
        record_in_stream: bool,
    ) -> Arc<LaunchJob> {
        assert!(
            lc.threads_per_block <= self.cfg.max_threads_per_block,
            "{} threads per block exceeds the device maximum {}",
            lc.threads_per_block,
            self.cfg.max_threads_per_block
        );
        let order = self.dispatch.launch_order(lc.blocks);
        Arc::new(LaunchJob::new(
            lc,
            self.cfg.clone(),
            order,
            body,
            tracer,
            Some(Arc::downgrade(&self.shared)),
            record_in_stream,
        ))
    }

    /// Stream-ordered submission: submit now if the stream is idle, queue
    /// behind the in-flight job otherwise.
    fn push(&self, job: Arc<LaunchJob>) {
        let mut st = self.shared.state.lock().unwrap();
        if st.panic.is_some() {
            // Stream is poisoned until `sync` reports the panic; the job
            // never runs (CUDA errors poison subsequent stream ops too).
            drop(st);
            job.finish_cancelled("stream cancelled: an earlier launch in this stream panicked");
            return;
        }
        if !st.in_flight && st.queued.is_empty() {
            if job.blocks() == 0 {
                if job.record_in_stream() {
                    st.finished.push(job.metrics());
                }
                drop(st);
                job.finish_empty();
            } else {
                st.in_flight = true;
                drop(st);
                self.shared.pool.submit(job);
            }
        } else {
            st.queued.push_back(job);
        }
    }

    /// Enqueue an asynchronous launch (CUDA `kernel<<<..., stream>>>`).
    ///
    /// Returns immediately; the kernel runs on the worker pool after every
    /// launch previously enqueued on this stream has finished. The body
    /// must be `'static` because it outlives the call — capture device
    /// buffers via `Arc`, exactly as device memory must stay allocated
    /// until a CUDA stream is synchronized. Metrics are collected by the
    /// next [`Stream::sync`], which also re-raises any panic.
    pub fn enqueue<F>(&self, lc: LaunchConfig, body: F)
    where
        F: Fn(&mut BlockCtx) + Send + Sync + 'static,
    {
        let job = self.make_job(lc, Body::Owned(Box::new(body)), self.tracer.clone(), true);
        self.push(job);
    }

    /// A blocking launch ordered after everything already enqueued on this
    /// stream: the stream branch of [`Gpu::launch`](crate::launch::Gpu::launch)
    /// for a handle made by [`Gpu::bind_stream`](crate::launch::Gpu::bind_stream),
    /// so unmodified algorithms can run stream-ordered. `tracer` is the
    /// launching handle's; without one the stream's own records the launch.
    pub(crate) fn launch_blocking(
        &self,
        lc: LaunchConfig,
        tracer: Option<Arc<Tracer>>,
        body: &(dyn Fn(&mut BlockCtx) + Sync),
    ) -> KernelMetrics {
        let tracer = tracer.or_else(|| self.tracer.clone());
        let job = self.make_job(lc, Body::Borrowed(BorrowedBody::new(body)), tracer, false);
        self.push(Arc::clone(&job));
        job.wait()
    }

    /// Block until every launch enqueued on this stream has finished
    /// (CUDA `cudaStreamSynchronize`), then return the metrics of the
    /// asynchronous launches in enqueue order. Re-raises the first panic
    /// of any failed launch.
    pub fn sync(&self) -> Vec<KernelMetrics> {
        let mut st = self.shared.state.lock().unwrap();
        while st.in_flight || !st.queued.is_empty() {
            st = self.shared.idle.wait(st).unwrap();
        }
        if let Some(p) = st.panic.take() {
            drop(st);
            resume_unwind(p);
        }
        st.finished.drain(..).collect()
    }
}

impl Drop for Stream {
    fn drop(&mut self) {
        // Only the last handle drains the stream (clones share it), and a
        // thread already panicking must not block on in-flight work it may
        // itself have poisoned.
        if Arc::strong_count(&self.shared) > 1 || std::thread::panicking() {
            return;
        }
        let mut st = self.shared.state.lock().unwrap();
        while st.in_flight || !st.queued.is_empty() {
            st = self.shared.idle.wait(st).unwrap();
        }
        // A pending panic is swallowed here by design; `sync` observes it.
    }
}

#[cfg(test)]
mod tests {
    use crate::device::DeviceConfig;
    use crate::global::GlobalBuffer;
    use crate::launch::{ExecMode, Gpu, LaunchConfig};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    fn gpu() -> Gpu {
        Gpu::new(DeviceConfig::tiny()).with_mode(ExecMode::Concurrent)
    }

    #[test]
    fn in_stream_launches_execute_in_enqueue_order() {
        // Each launch appends its digit: any reordering of the three
        // kernels produces a different number.
        let g = gpu();
        let s = g.stream();
        let cell = Arc::new(GlobalBuffer::<u64>::zeroed(1));
        for digit in 1..=3u64 {
            let cell = Arc::clone(&cell);
            s.enqueue(LaunchConfig::new(format!("k{digit}"), 1, 32), move |ctx| {
                let v = cell.read(ctx, 0);
                cell.write(ctx, 0, v * 10 + digit);
            });
        }
        let metrics = s.sync();
        assert_eq!(cell.host_read(0), 123);
        let labels: Vec<_> = metrics.iter().map(|m| m.label.as_str()).collect();
        assert_eq!(labels, ["k1", "k2", "k3"], "metrics come back in enqueue order");
    }

    #[test]
    fn streams_share_one_pool_and_interleave_submission() {
        // Two streams, each with an ordered chain; both chains complete
        // and each stream's own order holds regardless of interleaving.
        let g = gpu();
        let (s1, s2) = (g.stream(), g.stream());
        let c1 = Arc::new(GlobalBuffer::<u64>::zeroed(1));
        let c2 = Arc::new(GlobalBuffer::<u64>::zeroed(1));
        for digit in 1..=4u64 {
            let (a, b) = (Arc::clone(&c1), Arc::clone(&c2));
            s1.enqueue(LaunchConfig::new("a", 1, 32), move |ctx| {
                let v = a.read(ctx, 0);
                a.write(ctx, 0, v * 10 + digit);
            });
            s2.enqueue(LaunchConfig::new("b", 2, 32), move |ctx| {
                if ctx.block_idx() == 0 {
                    let v = b.read(ctx, 0);
                    b.write(ctx, 0, v * 10 + digit);
                }
            });
        }
        assert_eq!(s1.sync().len(), 4);
        assert_eq!(s2.sync().len(), 4);
        assert_eq!(c1.host_read(0), 1234);
        assert_eq!(c2.host_read(0), 1234);
    }

    #[test]
    fn zero_block_launch_completes_inline() {
        let g = gpu();
        let s = g.stream();
        s.enqueue(LaunchConfig::new("empty", 0, 32), |_ctx| unreachable!());
        let metrics = s.sync();
        assert_eq!(metrics.len(), 1);
        assert_eq!(metrics[0].blocks, 0);
    }

    #[test]
    fn panic_cancels_queued_work_and_sync_reraises() {
        let g = gpu();
        let s = g.stream();
        let ran_after = Arc::new(GlobalBuffer::<u64>::zeroed(1));
        s.enqueue(LaunchConfig::new("boom", 1, 32), |_ctx| panic!("kernel fault"));
        {
            let ran_after = Arc::clone(&ran_after);
            s.enqueue(LaunchConfig::new("after", 1, 32), move |ctx| {
                ran_after.write(ctx, 0, 1);
            });
        }
        let err = catch_unwind(AssertUnwindSafe(|| s.sync())).unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "kernel fault", "sync re-raises the kernel's own panic");
        assert_eq!(ran_after.host_read(0), 0, "work behind the fault never ran");

        // The panic is reported once; the stream is usable again after.
        let cell = Arc::new(GlobalBuffer::<u64>::zeroed(1));
        {
            let cell = Arc::clone(&cell);
            s.enqueue(LaunchConfig::new("retry", 1, 32), move |ctx| cell.write(ctx, 0, 7));
        }
        assert_eq!(s.sync().len(), 1);
        assert_eq!(cell.host_read(0), 7);
    }

    #[test]
    fn bound_gpu_routes_blocking_launches_through_the_stream() {
        // A blocking launch on a bound Gpu is ordered after async work
        // already enqueued on the same stream.
        let g = gpu();
        let s = g.stream();
        let cell = Arc::new(GlobalBuffer::<u64>::zeroed(1));
        {
            let cell = Arc::clone(&cell);
            s.enqueue(LaunchConfig::new("async", 1, 32), move |ctx| {
                let v = cell.read(ctx, 0);
                cell.write(ctx, 0, v * 10 + 1);
            });
        }
        let bound = g.bind_stream(&s);
        let m = bound.launch(LaunchConfig::new("blocking", 1, 32), |ctx| {
            let v = cell.read(ctx, 0);
            cell.write(ctx, 0, v * 10 + 2);
        });
        assert_eq!(cell.host_read(0), 12, "blocking launch saw the async write");
        assert_eq!(m.blocks, 1);
        // Blocking launches report to their caller, not to sync().
        assert_eq!(s.sync().len(), 1);
    }

    #[test]
    fn sync_on_unused_stream_is_a_no_op() {
        // An empty stream has nothing in flight and nothing queued; sync
        // must return immediately (no hang, no panic), and repeatedly.
        let g = gpu();
        let s = g.stream();
        assert!(s.sync().is_empty());
        assert!(s.sync().is_empty());
        // Still usable after the empty syncs.
        let cell = Arc::new(GlobalBuffer::<u64>::zeroed(1));
        {
            let cell = Arc::clone(&cell);
            s.enqueue(LaunchConfig::new("after-empty", 1, 32), move |ctx| cell.write(ctx, 0, 9));
        }
        assert_eq!(s.sync().len(), 1);
        assert_eq!(cell.host_read(0), 9);
        assert!(s.sync().is_empty(), "metrics are drained by the previous sync");
    }

    #[test]
    fn zero_block_launch_on_a_bound_handle_is_a_no_op() {
        let g = gpu();
        let s = g.stream();
        let bound = g.bind_stream(&s);
        let m = bound.launch(LaunchConfig::new("empty-bound", 0, 32), |_ctx| {
            unreachable!("zero blocks never run")
        });
        assert_eq!(m.blocks, 0);
        assert!(s.sync().is_empty(), "blocking launches report to the caller, not sync");
    }

    #[test]
    fn stream_outlives_its_gpu_handle() {
        // The stream holds the pool alive through its own Arc; dropping
        // the Gpu handle that created it must not invalidate the stream.
        let cell = Arc::new(GlobalBuffer::<u64>::zeroed(1));
        let s = {
            let g = gpu();
            g.stream()
        };
        {
            let cell = Arc::clone(&cell);
            s.enqueue(LaunchConfig::new("orphan", 1, 32), move |ctx| cell.write(ctx, 0, 5));
        }
        assert_eq!(s.sync().len(), 1);
        assert_eq!(cell.host_read(0), 5);
    }

    #[test]
    fn bind_stream_across_devices_validates_against_the_executing_device() {
        // Binding a handle of one device onto another device's stream must
        // route the launch to the *stream's* device — including the
        // threads-per-block validation. tiny caps blocks at 256 threads;
        // the titan-v stream accepts 512.
        let small = Gpu::new(DeviceConfig::tiny()).with_mode(ExecMode::Concurrent);
        let big = Gpu::new(DeviceConfig::titan_v()).with_mode(ExecMode::Concurrent);
        let s = big.stream();
        let bound = small.bind_stream(&s);
        let cell = Arc::new(GlobalBuffer::<u64>::zeroed(1));
        let m = bound.launch(LaunchConfig::new("cross", 1, 512), |ctx| {
            cell.write(ctx, 0, ctx.threads_per_block() as u64);
        });
        assert_eq!(m.threads_per_block, 512);
        assert_eq!(cell.host_read(0), 512);
    }

    #[test]
    #[should_panic(expected = "exceeds the device maximum")]
    fn bound_launch_oversized_for_the_stream_device_is_rejected() {
        let big = Gpu::new(DeviceConfig::titan_v()).with_mode(ExecMode::Concurrent);
        let small = Gpu::new(DeviceConfig::tiny()).with_mode(ExecMode::Concurrent);
        let s = small.stream();
        // The binding handle would allow 1024 threads, but the executing
        // (stream's) device does not.
        big.bind_stream(&s).launch(LaunchConfig::new("too-big", 1, 1024), |_ctx| {});
    }

    #[test]
    fn bind_stream_across_a_device_group_does_not_panic() {
        use crate::group::DeviceGroup;
        // A handle of device 0 bound to device 1's stream: the launch runs
        // on device 1's pool, stream-ordered, without tripping any
        // validation against the binding handle.
        let group = DeviceGroup::new(DeviceConfig::tiny(), 2);
        let s = group.device(1).stream();
        let bound = group.device(0).bind_stream(&s);
        let cell = Arc::new(GlobalBuffer::<u64>::zeroed(1));
        let m = bound.launch(LaunchConfig::new("group-cross", 2, 32), |ctx| {
            cell.atomic_add(ctx, 0, 1 + ctx.block_idx() as u64);
        });
        assert_eq!(m.blocks, 2);
        assert_eq!(cell.host_read(0), 3);
        assert!(s.sync().is_empty());
    }

    #[test]
    fn the_last_engine_handle_dropped_on_a_pool_thread_does_not_join_it() {
        // The block holds the only reference to its stream's shared state,
        // and so to the engine: dropping it inside the block drops the pool
        // on the worker running the block, which must not join itself. (A
        // completing stream job's worker can hold that last reference the
        // same way.)
        let g = gpu();
        let stream = g.stream();
        let held = std::sync::Mutex::new(Some(Arc::clone(&stream.shared)));
        let (go, wait) = std::sync::mpsc::channel::<()>();
        let (done, dropped) = std::sync::mpsc::channel();
        let (wait, done) = (std::sync::Mutex::new(wait), std::sync::Mutex::new(done));
        stream.enqueue(LaunchConfig::new("drop-last", 1, 32), move |_ctx| {
            let _ = wait.lock().unwrap().recv();
            drop(held.lock().unwrap().take());
            let _ = done.lock().unwrap().send(());
        });
        drop((stream, g));
        go.send(()).unwrap();
        dropped.recv_timeout(std::time::Duration::from_secs(10)).expect("dropping the pool on its own worker panicked");
    }

    #[test]
    fn dropping_the_last_handle_drains_the_stream() {
        let g = gpu();
        let cell = Arc::new(GlobalBuffer::<u64>::zeroed(1));
        {
            let s = g.stream();
            let clone = s.clone();
            for _ in 0..3 {
                let cell = Arc::clone(&cell);
                s.enqueue(LaunchConfig::new("work", 1, 32), move |ctx| {
                    let v = cell.read(ctx, 0);
                    cell.write(ctx, 0, v + 1);
                });
            }
            drop(clone); // non-last handle must not block or double-drain
        }
        assert_eq!(cell.host_read(0), 3, "drop synchronized the stream");
    }
}
