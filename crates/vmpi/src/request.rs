//! Request objects for non-blocking operations.

use crate::comm::Status;
use crate::datatype::{self, Pod};
use crate::error::{Result, VmpiError};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Callback = Box<dyn FnOnce(&Status) + Send>;

/// The status completion callbacks of a failed operation receive.
const FAILED: Status = Status {
    source: usize::MAX,
    tag: -1,
    bytes: 0,
};

pub(crate) struct RequestInner {
    /// `None` while in flight, then the operation's status or error.
    outcome: Option<Result<Status>>,
    /// Payload kept for receives that own their data (taken by the user
    /// after completion).
    payload: Option<Vec<u8>>,
    callbacks: Vec<Callback>,
}

impl RequestInner {
    /// The status callbacks receive: `None` while in flight, [`FAILED`]
    /// for a failed operation.
    fn status(&self) -> Option<Status> {
        let outcome = self.outcome.as_ref()?;
        Some(*outcome.as_ref().unwrap_or(&FAILED))
    }
}

/// Shared completion state between the issuing rank and the delivery
/// engine.
pub(crate) struct RequestState {
    inner: Mutex<RequestInner>,
    cond: Condvar,
}

impl RequestState {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(RequestState {
            inner: Mutex::new(RequestInner {
                outcome: None,
                payload: None,
                callbacks: Vec::new(),
            }),
            cond: Condvar::new(),
        })
    }

    /// Marks the request complete, stores the payload (for owned
    /// receives), and fires registered callbacks.
    pub(crate) fn complete(&self, status: Status, payload: Option<Vec<u8>>) {
        let callbacks = {
            let mut inner = self.inner.lock();
            debug_assert!(inner.outcome.is_none(), "request completed twice");
            // Past the assertion (release builds), a failure stands.
            inner.outcome.get_or_insert(Ok(status));
            inner.payload = payload;
            std::mem::take(&mut inner.callbacks)
        };
        self.cond.notify_all();
        for cb in callbacks {
            cb(&status);
        }
    }

    /// Marks the request complete with an error.
    pub(crate) fn fail(&self, error: VmpiError) {
        let callbacks = {
            let mut inner = self.inner.lock();
            inner.outcome = Some(Err(error));
            std::mem::take(&mut inner.callbacks)
        };
        self.cond.notify_all();
        for cb in callbacks {
            cb(&FAILED);
        }
    }
}

/// Handle to an in-flight non-blocking operation.
///
/// Dropping a `Request` without waiting is allowed (the operation still
/// completes in the background), mirroring `MPI_Request_free` semantics.
#[derive(Clone)]
pub struct Request {
    state: Arc<RequestState>,
}

impl Request {
    pub(crate) fn from_state(state: Arc<RequestState>) -> Self {
        Request { state }
    }

    /// Blocks until the operation completes and returns its [`Status`].
    ///
    /// # Panics
    ///
    /// Panics if the operation completed with a transfer error (e.g. a
    /// truncated receive, or [`VmpiError::WorldDown`] once a lost peer
    /// poisoned the world). This mirrors MPI's default
    /// `MPI_ERRORS_ARE_FATAL` handler, and it is the designed unwind of a
    /// rank whose world went down: the embedding driver catches it and
    /// reads the world's reports. Use [`Request::wait_checked`] to handle
    /// errors programmatically.
    pub fn wait(&self) -> Status {
        match self.wait_checked() {
            Ok(s) => s,
            Err(e) => panic!("vmpi request failed: {e}"),
        }
    }

    /// Blocks until the operation completes, returning the error if the
    /// transfer failed.
    pub fn wait_checked(&self) -> Result<Status> {
        let mut inner = self.state.inner.lock();
        // Only waits that actually park the thread become wait spans;
        // already-complete requests stay free of bus traffic.
        let wait_from = match inner.outcome {
            Some(_) => None,
            None => obs::bus().map(|b| b.now_us()),
        };
        let outcome = loop {
            if let Some(outcome) = &inner.outcome {
                break outcome.clone();
            }
            self.state.cond.wait(&mut inner);
        };
        if let (Some(start_us), Some(bus)) = (wait_from, obs::bus()) {
            bus.emit(obs::EventData::WaitSpan {
                kind: "request_wait",
                start_us,
                end_us: bus.now_us(),
            });
        }
        outcome
    }

    /// Blocks until the operation completes or `timeout` elapses. On
    /// timeout the request stays in flight and may still complete later;
    /// the call returns [`VmpiError::Timeout`] so recovery code can `?`
    /// its way out instead of hanging. Transfer errors (including
    /// [`VmpiError::PeerLost`] from the reliability layer) are returned
    /// like [`Request::wait_checked`].
    pub fn wait_timeout(&self, timeout: Duration) -> Result<Status> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.state.inner.lock();
        loop {
            if let Some(outcome) = &inner.outcome {
                return outcome.clone();
            }
            if self.state.cond.wait_until(&mut inner, deadline).timed_out()
                && inner.outcome.is_none()
            {
                return Err(VmpiError::Timeout { waited: timeout });
            }
        }
    }

    /// Non-blocking completion test. Returns the status if complete.
    ///
    /// # Panics
    ///
    /// Like [`Request::wait`], if the operation completed with an error;
    /// [`Request::error`] reads it without panicking.
    pub fn test(&self) -> Option<Status> {
        match &self.state.inner.lock().outcome {
            None => None,
            Some(Ok(status)) => Some(*status),
            Some(Err(e)) => panic!("vmpi request failed: {e}"),
        }
    }

    /// Returns true once the operation has completed.
    pub fn is_complete(&self) -> bool {
        self.state.inner.lock().outcome.is_some()
    }

    /// The error of an operation that completed unsuccessfully, without
    /// blocking or panicking (`None` while in flight or on success).
    /// Completion callbacks receive only a [`Status`] whose `source` is
    /// `usize::MAX` on failure; this is how they learn *which* failure,
    /// e.g. to tell a fatal [`VmpiError::Truncated`] from the
    /// [`VmpiError::WorldDown`] of an elastic world teardown.
    pub fn error(&self) -> Option<VmpiError> {
        match &self.state.inner.lock().outcome {
            Some(Err(e)) => Some(e.clone()),
            _ => None,
        }
    }

    /// Registers a callback invoked exactly once when the operation
    /// completes. If it already completed, the callback runs immediately
    /// on the calling thread; otherwise it runs on the delivery thread.
    ///
    /// Callbacks must be short and non-blocking — this is the hook the
    /// task-aware layer uses to release task dependencies.
    pub fn on_complete<F: FnOnce(&Status) + Send + 'static>(&self, f: F) {
        let status = {
            let mut inner = self.state.inner.lock();
            match inner.status() {
                Some(status) => status,
                None => {
                    inner.callbacks.push(Box::new(f));
                    return;
                }
            }
        };
        f(&status);
    }

    /// Takes the received payload as a typed vector.
    ///
    /// Only meaningful for receives issued with [`crate::Comm::irecv`];
    /// returns an empty vector for sends. Blocks until completion.
    pub fn take_data<T: Pod>(&self) -> Result<Vec<T>> {
        self.wait_checked()?;
        let mut inner = self.state.inner.lock();
        match inner.payload.take() {
            Some(bytes) => datatype::from_bytes(&bytes).ok_or(VmpiError::TypeMismatch {
                payload_bytes: bytes.len(),
                elem_bytes: std::mem::size_of::<T>(),
            }),
            None => Ok(Vec::new()),
        }
    }
}

/// A set of requests supporting `waitall`/`waitany`, mirroring the
/// `MPI_Waitall`/`MPI_Waitany` combinators the reference miniAMR uses in
/// its `communicate` loop.
pub struct RequestSet {
    requests: Vec<Option<Request>>,
    remaining: usize,
}

impl RequestSet {
    /// Builds a set from individual requests.
    pub fn new(requests: Vec<Request>) -> Self {
        let remaining = requests.len();
        RequestSet {
            requests: requests.into_iter().map(Some).collect(),
            remaining,
        }
    }

    /// Waits until all remaining requests complete.
    ///
    /// # Panics
    ///
    /// Like [`Request::wait`], if a request completed with an error.
    pub fn waitall(&mut self) -> Vec<Status> {
        let mut out = Vec::with_capacity(self.remaining);
        for slot in self.requests.iter_mut() {
            if let Some(req) = slot.take() {
                out.push(req.wait());
                self.remaining -= 1;
            }
        }
        out
    }

    /// Waits until *any* remaining request completes, returning its index
    /// in the original vector and its status. Returns `None` when the set
    /// is exhausted.
    ///
    /// The implementation registers a one-shot waker on every pending
    /// request rather than polling, so a `waitany` loop costs O(n) per
    /// completion like a real MPI progress engine, not O(n²) spinning.
    ///
    /// # Panics
    ///
    /// Like [`Request::wait`], if the completed request failed.
    pub fn waitany(&mut self) -> Option<(usize, Status)> {
        if self.remaining == 0 {
            return None;
        }
        // Fast path: something already finished.
        for (i, slot) in self.requests.iter_mut().enumerate() {
            if let Some(req) = slot.take_if(|r| r.is_complete()) {
                self.remaining -= 1;
                if let Some(bus) = obs::bus() {
                    bus.emit(obs::EventData::WaitanyWake { index: i as u32 });
                }
                return Some((i, req.wait()));
            }
        }
        // Slow path: park until a callback fires.
        let wait_from = obs::bus().map(|b| b.now_us());
        let waker = Arc::new((Mutex::new(false), Condvar::new()));
        for slot in self.requests.iter().flatten() {
            let waker = Arc::clone(&waker);
            slot.on_complete(move |_| {
                let (lock, cond) = &*waker;
                *lock.lock() = true;
                cond.notify_all();
            });
        }
        loop {
            for (i, slot) in self.requests.iter_mut().enumerate() {
                if let Some(req) = slot.take_if(|r| r.is_complete()) {
                    self.remaining -= 1;
                    if let Some(bus) = obs::bus() {
                        bus.emit(obs::EventData::WaitanyWake { index: i as u32 });
                        if let Some(start_us) = wait_from {
                            bus.emit(obs::EventData::WaitSpan {
                                kind: "waitany",
                                start_us,
                                end_us: bus.now_us(),
                            });
                        }
                    }
                    return Some((i, req.wait()));
                }
            }
            let (lock, cond) = &*waker;
            let mut fired = lock.lock();
            if !*fired {
                cond.wait_for(&mut fired, Duration::from_millis(50));
            }
            *fired = false;
        }
    }

    /// Retrieves the request at `index` if it has not been consumed by a
    /// prior `waitany`.
    pub fn get(&self, index: usize) -> Option<&Request> {
        self.requests.get(index).and_then(|s| s.as_ref())
    }
}

impl FromIterator<Request> for RequestSet {
    fn from_iter<I: IntoIterator<Item = Request>>(iter: I) -> Self {
        RequestSet::new(iter.into_iter().collect())
    }
}
