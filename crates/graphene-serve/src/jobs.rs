//! The async job queue for long tunes.
//!
//! A `tune` request whose planned proposal count exceeds the server's
//! synchronous limit (or that asks `"job":"true"`) is enqueued here and
//! answered immediately with a job id; dedicated job-worker threads
//! drain the queue. `poll` reports the job's state and a progress
//! fraction fed by the tuner's batch-granular [`TuneProgress`]
//! callbacks; `cancel` flips a flag the tuner checks between batches,
//! so cancellation is cooperative but prompt (one batch ≤ 64 points).

use graphene_tune::TuneProgress;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a job worker.
    Queued,
    /// A worker is tuning.
    Running,
    /// Finished; the payload is the rendered result object (the same
    /// fields a synchronous `tune` response carries).
    Done(String),
    /// The search failed; the payload is the error message.
    Failed(String),
    /// Cancelled before or during the search.
    Cancelled,
}

impl JobState {
    /// Stable lower-case label for responses.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the job can make no further progress.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

/// Progress observer handed to the tuner: proposal counts flow in from
/// `on_progress`, the cancel flag flows out through `cancelled`.
#[derive(Debug, Default)]
pub struct JobProgress {
    done: AtomicUsize,
    planned: AtomicUsize,
    cancel: AtomicBool,
}

impl TuneProgress for JobProgress {
    fn on_progress(&self, proposed: usize, planned: usize) {
        self.done.store(proposed, Ordering::Relaxed);
        self.planned.store(planned, Ordering::Relaxed);
    }

    fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }
}

/// One tracked job.
#[derive(Debug)]
pub struct Job {
    /// Server-assigned id, returned to the client.
    pub id: u64,
    state: Mutex<JobState>,
    /// Progress shared with the running tuner.
    pub progress: JobProgress,
}

impl Job {
    /// Snapshot of the state.
    pub fn state(&self) -> JobState {
        self.state.lock().expect("job poisoned").clone()
    }

    /// Progress as `(proposed, planned)`.
    pub fn progress_counts(&self) -> (usize, usize) {
        (self.progress.done.load(Ordering::Relaxed), self.progress.planned.load(Ordering::Relaxed))
    }

    /// Progress fraction in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        let (done, planned) = self.progress_counts();
        match &*self.state.lock().expect("job poisoned") {
            JobState::Done(_) => 1.0,
            _ if planned == 0 => 0.0,
            _ => (done as f64 / planned as f64).min(1.0),
        }
    }

    fn set_state(&self, s: JobState) {
        *self.state.lock().expect("job poisoned") = s;
    }
}

/// Finished, failed and cancelled jobs kept for `poll`; past this many
/// the oldest is forgotten and then polls as an unknown id. Queued and
/// running jobs are never dropped.
pub(crate) const MAX_FINISHED_JOBS: usize = 1024;

/// The queue itself, generic over the work payload (the server
/// enqueues the parsed tune [`Request`](crate::proto::Request); tests
/// enqueue whatever they like).
#[derive(Debug)]
pub struct JobQueue<T> {
    next_id: AtomicU64,
    inner: Mutex<Inner<T>>,
    ready: Condvar,
}

#[derive(Debug)]
struct Inner<T> {
    jobs: HashMap<u64, Arc<Job>>,
    queue: VecDeque<(Arc<Job>, T)>,
    /// Ids of terminal jobs, oldest first.
    finished: VecDeque<u64>,
    /// Terminal jobs forgotten past [`MAX_FINISHED_JOBS`].
    dropped: u64,
    closed: bool,
}

impl<T> Inner<T> {
    /// Sets `job`'s terminal state `s` and forgets the oldest terminal
    /// job past the bound.
    fn retire(&mut self, job: &Job, s: JobState) {
        job.set_state(s);
        self.finished.push_back(job.id);
        while self.finished.len() > MAX_FINISHED_JOBS {
            let old = self.finished.pop_front().expect("over the bound");
            self.jobs.remove(&old);
            self.dropped += 1;
        }
    }
}

impl<T> Default for JobQueue<T> {
    fn default() -> Self {
        JobQueue {
            next_id: AtomicU64::new(1),
            inner: Mutex::new(Inner {
                jobs: HashMap::new(),
                queue: VecDeque::new(),
                finished: VecDeque::new(),
                dropped: 0,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }
}

impl<T> JobQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues `work` with expected proposal count `planned`,
    /// returning the job handle (already registered for `poll`).
    pub fn submit(&self, work: T, planned: usize) -> Arc<Job> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let job = Arc::new(Job {
            id,
            state: Mutex::new(JobState::Queued),
            progress: JobProgress::default(),
        });
        job.progress.planned.store(planned, Ordering::Relaxed);
        let mut inner = self.inner.lock().expect("job queue poisoned");
        inner.jobs.insert(id, Arc::clone(&job));
        inner.queue.push_back((Arc::clone(&job), work));
        drop(inner);
        self.ready.notify_one();
        job
    }

    /// Blocks for the next runnable job, skipping jobs cancelled while
    /// queued. Returns `None` once the queue is closed and empty —
    /// the worker's signal to exit.
    pub fn pop(&self) -> Option<(Arc<Job>, T)> {
        let mut inner = self.inner.lock().expect("job queue poisoned");
        loop {
            while let Some((job, work)) = inner.queue.pop_front() {
                if job.state() == JobState::Queued {
                    job.set_state(JobState::Running);
                    return Some((job, work));
                }
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("job queue poisoned");
        }
    }

    /// Looks up a job by id.
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        self.inner.lock().expect("job queue poisoned").jobs.get(&id).cloned()
    }

    /// Requests cancellation: a queued job is cancelled outright; a
    /// running one has its flag set and the tuner stops at the next
    /// batch boundary. Returns the state observed at call time, or
    /// `None` for an unknown id.
    pub fn cancel(&self, id: u64) -> Option<JobState> {
        let mut inner = self.inner.lock().expect("job queue poisoned");
        let job = Arc::clone(inner.jobs.get(&id)?);
        let state = job.state();
        match state {
            JobState::Queued => inner.retire(&job, JobState::Cancelled),
            JobState::Running => job.progress.cancel.store(true, Ordering::Relaxed),
            _ => {}
        }
        Some(state)
    }

    /// Marks a popped job finished.
    pub fn finish(&self, job: &Job, outcome: Result<String, String>) {
        let state = match outcome {
            _ if job.progress.cancelled() => JobState::Cancelled,
            Ok(result) => JobState::Done(result),
            Err(e) => JobState::Failed(e),
        };
        self.inner.lock().expect("job queue poisoned").retire(job, state);
    }

    /// Closes the queue for draining: cancels everything still queued,
    /// flags running jobs to stop, and wakes all workers so they can
    /// exit. Idempotent.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("job queue poisoned");
        let live: Vec<_> =
            inner.jobs.values().filter(|j| !j.state().is_terminal()).cloned().collect();
        for job in live {
            match job.state() {
                JobState::Queued => inner.retire(&job, JobState::Cancelled),
                _ => job.progress.cancel.store(true, Ordering::Relaxed),
            }
        }
        inner.closed = true;
        drop(inner);
        self.ready.notify_all();
    }

    /// `(queued, running, terminal, dropped)` job counts, for `stats`:
    /// `dropped` counts the terminal jobs forgotten past the bound of
    /// 1,024 kept for `poll`.
    pub fn counts(&self) -> (usize, usize, usize, u64) {
        let inner = self.inner.lock().expect("job queue poisoned");
        let mut c = (0, 0, 0, inner.dropped);
        for job in inner.jobs.values() {
            match job.state() {
                JobState::Queued => c.0 += 1,
                JobState::Running => c.1 += 1,
                _ => c.2 += 1,
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_pop_finish_lifecycle() {
        let q = JobQueue::new();
        let job = q.submit("work", 100);
        assert_eq!(job.state(), JobState::Queued);
        assert_eq!(q.counts(), (1, 0, 0, 0));
        let (popped, work) = q.pop().unwrap();
        assert_eq!(work, "work");
        assert_eq!(popped.id, job.id);
        assert_eq!(job.state(), JobState::Running);
        popped.progress.on_progress(50, 100);
        assert!((job.fraction() - 0.5).abs() < 1e-9);
        q.finish(&popped, Ok("{}".into()));
        assert_eq!(job.state(), JobState::Done("{}".into()));
        assert_eq!(job.fraction(), 1.0);
        assert_eq!(q.counts(), (0, 0, 1, 0));
    }

    #[test]
    fn cancel_queued_job_is_skipped_by_workers() {
        let q = JobQueue::new();
        let a = q.submit("a", 10);
        let b = q.submit("b", 10);
        assert_eq!(q.cancel(a.id), Some(JobState::Queued));
        assert_eq!(a.state(), JobState::Cancelled);
        // The worker never sees `a`.
        let (popped, _) = q.pop().unwrap();
        assert_eq!(popped.id, b.id);
        assert_eq!(q.cancel(999), None);
    }

    #[test]
    fn cancel_running_job_sets_the_cooperative_flag() {
        let q = JobQueue::new();
        let job = q.submit((), 10);
        let (popped, ()) = q.pop().unwrap();
        assert!(!popped.progress.cancelled());
        q.cancel(job.id);
        assert!(popped.progress.cancelled(), "running cancel must set the tuner flag");
        // The worker observes the flag when the tuner aborts.
        q.finish(&popped, Err("search cancelled".into()));
        assert_eq!(job.state(), JobState::Cancelled);
    }

    #[test]
    fn close_drains_workers_and_cancels_queued_work() {
        let q: Arc<JobQueue<()>> = Arc::new(JobQueue::new());
        let queued = q.submit((), 10);
        q.close();
        assert_eq!(queued.state(), JobState::Cancelled);
        // A blocked worker wakes and exits.
        let q2 = Arc::clone(&q);
        let w = std::thread::spawn(move || q2.pop().is_none());
        assert!(w.join().unwrap());
    }
}
