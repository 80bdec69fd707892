//! Application fibers: suspendable processor programs polled inline by the
//! engine.
//!
//! Each simulated processor's program is an ordinary Rust `async` body. When
//! it performs a DSM operation it awaits [`FiberApi::call`], which parks the
//! request in the fiber's mailbox and suspends the body. The pool polls each
//! body on the caller's own thread (the engine thread, or a PDES shard
//! thread) with a no-op waker: the engine decides who runs next, so nothing
//! ever needs waking. The engine holds every live fiber's *pending request*
//! (see [`FiberPool::peek_request`]), so it can always pick the globally
//! earliest action; between a fiber's operations only that fiber's private
//! data is touched, so application code cannot introduce nondeterminism.
//!
//! Deadlock discipline: a body must never block except by awaiting a call on
//! its own [`FiberApi`] — all inter-processor communication goes through the
//! simulated protocol. A body that blocks the thread any other way (a lock,
//! a channel receive, a sleep) stalls the engine itself, and a body that
//! suspends on any other future is reported as a bug by the pool.

use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::{Context, Poll, Waker};

/// A fiber's program once started: a boxed future polled by the pool.
pub type FiberFuture = Pin<Box<dyn Future<Output = ()> + Send>>;

/// A boxed fiber body, used by [`FiberPool::spawn_each`]: given the fiber's
/// API handle, it builds the fiber's future.
pub type FiberBody<Req, Resp> = Box<dyn FnOnce(FiberApi<Req, Resp>) -> FiberFuture + Send>;

/// The one-request exchange between a suspended fiber and its pool.
#[derive(Debug)]
struct Mailbox<Req, Resp> {
    req: Option<Req>,
    resp: Option<Resp>,
}

/// A mailbox shared by a fiber's [`FiberApi`] and its pool slot. Only one
/// side touches it at a time (the pool polls the fiber inline), so the lock
/// is never contended; it exists because the pool and its futures must be
/// `Send` to move onto a shard thread.
type SharedMailbox<Req, Resp> = Arc<Mutex<Mailbox<Req, Resp>>>;

fn lock<Req, Resp>(mailbox: &SharedMailbox<Req, Resp>) -> MutexGuard<'_, Mailbox<Req, Resp>> {
    // No code panics while holding the guard: it only moves values in and
    // out of the two slots.
    mailbox.lock().expect("fiber mailbox lock poisoned")
}

/// Handle given to application code for issuing simulated operations.
///
/// See the crate-level example for usage.
#[derive(Debug)]
pub struct FiberApi<Req, Resp> {
    mailbox: SharedMailbox<Req, Resp>,
}

impl<Req, Resp> FiberApi<Req, Resp> {
    /// Submits `req` to the engine and suspends until the engine replies.
    pub async fn call(&mut self, req: Req) -> Resp {
        lock(&self.mailbox).req = Some(req);
        std::future::poll_fn(|_| match lock(&self.mailbox).resp.take() {
            Some(resp) => Poll::Ready(resp),
            None => Poll::Pending,
        })
        .await
    }
}

/// Result of resuming a fiber with a response.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Resumed {
    /// The fiber issued another request (now pending in the pool).
    HasRequest,
    /// The fiber's body returned; the processor is done.
    Finished,
}

#[derive(Debug)]
enum SlotState<Req> {
    /// The fiber's next request is buffered and not yet taken by the engine.
    Pending(Req),
    /// The engine took the request and has not yet replied (e.g. a stalled
    /// miss being serviced by other processors).
    AwaitingReply,
    /// The fiber's body returned.
    Finished,
}

struct Slot<Req, Resp> {
    /// The suspended body; `None` once it has finished.
    future: Option<FiberFuture>,
    mailbox: SharedMailbox<Req, Resp>,
    state: SlotState<Req>,
}

/// A pool of suspended application fibers, one per simulated processor.
///
/// Invariant maintained by the pool: every live fiber is either `Pending`
/// (its next request is buffered here) or `AwaitingReply` (the engine owes it
/// a response). [`FiberPool::resume`] runs the resumed fiber's application
/// compute inline until it produces its next request or finishes.
pub struct FiberPool<Req, Resp> {
    slots: Vec<Slot<Req, Resp>>,
    /// Number of slots not `Finished`.
    live: usize,
}

impl<Req: std::fmt::Debug, Resp> std::fmt::Debug for FiberPool<Req, Resp> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FiberPool")
            .field("states", &self.slots.iter().map(|s| &s.state).collect::<Vec<_>>())
            .field("live", &self.live)
            .finish()
    }
}

impl<Req, Resp> FiberPool<Req, Resp> {
    /// Starts `n` fibers running `f(proc_id, api)`.
    ///
    /// Returns once every fiber has either issued its first request or
    /// finished.
    pub fn spawn<F, Fut>(n: u32, f: F) -> Self
    where
        F: Fn(u32, FiberApi<Req, Resp>) -> Fut,
        Fut: Future<Output = ()> + Send + 'static,
    {
        Self::start(n as usize, |p, api| Some(Box::pin(f(p as u32, api))))
    }

    /// Starts one fiber per body (bodies may capture distinct state).
    ///
    /// Returns once every fiber has either issued its first request or
    /// finished.
    pub fn spawn_each(bodies: Vec<FiberBody<Req, Resp>>) -> Self {
        Self::spawn_selected(bodies.into_iter().map(Some).collect())
    }

    /// Starts a fiber per `Some` body; `None` slots become permanent
    /// `Finished` placeholders that occupy a processor index without a body.
    ///
    /// This keeps processor ids global when a caller only drives a subset of
    /// processors (the sharded engine spawns each physical node's fibers in
    /// its own pool): `peek_request`/`take_request`/`resume` keep their
    /// global-index signatures, placeholder slots simply report `Finished`
    /// forever, and `live_count`/`join` see only the real fibers.
    ///
    /// Returns once every started fiber has either issued its first request
    /// or finished.
    pub fn spawn_selected(mut bodies: Vec<Option<FiberBody<Req, Resp>>>) -> Self {
        Self::start(bodies.len(), |p, api| bodies[p].take().map(|body| body(api)))
    }

    /// Builds `n` slots from `start(p, api)` (`None` = placeholder), then
    /// runs every started fiber to its first request.
    fn start(
        n: usize,
        mut start: impl FnMut(usize, FiberApi<Req, Resp>) -> Option<FiberFuture>,
    ) -> Self {
        let mut pool = FiberPool { slots: Vec::with_capacity(n), live: 0 };
        for p in 0..n {
            let mailbox = Arc::new(Mutex::new(Mailbox { req: None, resp: None }));
            let future = start(p, FiberApi { mailbox: Arc::clone(&mailbox) });
            // Live slots hold a placeholder state until their first step.
            let state = if future.is_some() {
                pool.live += 1;
                SlotState::AwaitingReply
            } else {
                SlotState::Finished
            };
            pool.slots.push(Slot { future, mailbox, state });
        }
        for p in 0..n {
            if pool.slots[p].future.is_some() {
                pool.step(p as u32);
            }
        }
        pool
    }

    /// Polls fiber `p` once, recording its next request or its completion.
    /// A panic in the body unwinds straight through to the caller.
    ///
    /// # Panics
    ///
    /// Panics if the body suspended without issuing a request, i.e. awaited
    /// something other than its own [`FiberApi::call`].
    fn step(&mut self, p: u32) {
        let slot = &mut self.slots[p as usize];
        let future = slot.future.as_mut().expect("only live fibers are stepped");
        match future.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
            Poll::Ready(()) => {
                slot.future = None;
                slot.state = SlotState::Finished;
                self.live -= 1;
            }
            Poll::Pending => {
                let req = lock(&slot.mailbox)
                    .req
                    .take()
                    .unwrap_or_else(|| panic!("fiber {p} suspended without issuing a request"));
                slot.state = SlotState::Pending(req);
            }
        }
    }

    /// Number of fibers in the pool (live or finished).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the pool has no fibers at all.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of fibers that have not yet finished.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Whether fiber `p` has finished.
    pub fn is_finished(&self, p: u32) -> bool {
        matches!(self.slots[p as usize].state, SlotState::Finished)
    }

    /// The buffered pending request of fiber `p`, if it has one.
    pub fn peek_request(&self, p: u32) -> Option<&Req> {
        match &self.slots[p as usize].state {
            SlotState::Pending(req) => Some(req),
            _ => None,
        }
    }

    /// Takes fiber `p`'s pending request, moving it to `AwaitingReply`.
    ///
    /// Returns `None` if the fiber has finished or its request was already
    /// taken.
    pub fn take_request(&mut self, p: u32) -> Option<Req> {
        let slot = &mut self.slots[p as usize];
        match std::mem::replace(&mut slot.state, SlotState::AwaitingReply) {
            SlotState::Pending(req) => Some(req),
            other => {
                slot.state = other;
                None
            }
        }
    }

    /// Replies to fiber `p` (which must be `AwaitingReply`) and runs it
    /// until it produces its next request or finishes.
    ///
    /// # Panics
    ///
    /// Panics if `p` was not awaiting a reply, or propagates the fiber's own
    /// panic.
    pub fn resume(&mut self, p: u32, resp: Resp) -> Resumed {
        let slot = &mut self.slots[p as usize];
        assert!(
            matches!(slot.state, SlotState::AwaitingReply),
            "fiber {p} resumed without a taken request"
        );
        lock(&slot.mailbox).resp = Some(resp);
        self.step(p);
        if self.is_finished(p) {
            Resumed::Finished
        } else {
            Resumed::HasRequest
        }
    }

    /// Consumes the pool once the simulation has drained.
    ///
    /// # Panics
    ///
    /// Panics if some fiber is still live.
    pub fn join(self) {
        if let Some(p) = self.slots.iter().position(|s| !matches!(s.state, SlotState::Finished)) {
            panic!("join() called while fiber {p} is still live");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Engine that services all fibers round-robin until done.
    fn drain(mut pool: FiberPool<u64, u64>, f: impl Fn(u64) -> u64) {
        loop {
            let mut progressed = false;
            for p in 0..pool.len() as u32 {
                if let Some(req) = pool.take_request(p) {
                    progressed = true;
                    pool.resume(p, f(req));
                }
            }
            if !progressed {
                break;
            }
        }
        pool.join();
    }

    #[test]
    fn echo_engine_round_trips() {
        let pool = FiberPool::<u64, u64>::spawn(4, |pid, mut api| async move {
            for i in 0..10u64 {
                let got = api.call(pid as u64 * 100 + i).await;
                assert_eq!(got, (pid as u64 * 100 + i) + 1);
            }
        });
        drain(pool, |x| x + 1);
    }

    #[test]
    fn fibers_may_finish_without_calling() {
        let pool = FiberPool::<u64, u64>::spawn(3, |pid, mut api| async move {
            if pid == 1 {
                return; // finishes immediately
            }
            api.call(0).await;
        });
        assert!(pool.is_finished(1));
        assert_eq!(pool.live_count(), 2);
        drain(pool, |x| x);
    }

    #[test]
    fn live_count_tracks_finishes() {
        let mut pool = FiberPool::<u64, u64>::spawn(3, |pid, mut api| async move {
            for _ in 0..pid {
                api.call(0).await;
            }
        });
        assert_eq!(pool.live_count(), 2);
        for (p, live_after) in [(1, 1), (2, 1), (2, 0)] {
            let req = pool.take_request(p).unwrap();
            pool.resume(p, req);
            assert_eq!(pool.live_count(), live_after);
        }
        pool.join();
    }

    #[test]
    fn bodies_run_on_the_calling_thread() {
        let engine = std::thread::current().id();
        let mut pool = FiberPool::<u64, u64>::spawn(2, move |_, mut api| async move {
            assert_eq!(std::thread::current().id(), engine);
            api.call(0).await;
            assert_eq!(std::thread::current().id(), engine);
        });
        for p in 0..2 {
            let req = pool.take_request(p).unwrap();
            assert_eq!(pool.resume(p, req), Resumed::Finished);
        }
        pool.join();
    }

    #[test]
    fn deferred_reply_models_a_stall() {
        // Fiber 0 issues a request whose reply is withheld until fiber 1 has
        // advanced — the shape of a remote miss serviced by another proc.
        let pool = FiberPool::<u64, u64>::spawn(2, |pid, mut api| async move {
            if pid == 0 {
                assert_eq!(api.call(7).await, 99);
            } else {
                assert_eq!(api.call(1).await, 2);
            }
        });
        let mut pool = pool;
        let stall_req = pool.take_request(0).unwrap();
        assert_eq!(stall_req, 7);
        // Service fiber 1 first.
        let r1 = pool.take_request(1).unwrap();
        assert_eq!(pool.resume(1, r1 + 1), Resumed::Finished);
        // Now release fiber 0.
        assert_eq!(pool.resume(0, 99), Resumed::Finished);
        pool.join();
    }

    #[test]
    fn spawn_each_with_distinct_state() {
        let bodies: Vec<FiberBody<u64, u64>> = (0..3u64)
            .map(|seed| {
                Box::new(move |mut api: FiberApi<u64, u64>| {
                    Box::pin(async move {
                        assert_eq!(api.call(seed).await, seed * 2);
                    }) as FiberFuture
                }) as FiberBody<u64, u64>
            })
            .collect();
        let mut pool = FiberPool::spawn_each(bodies);
        for p in 0..3 {
            let req = pool.take_request(p).unwrap();
            pool.resume(p, req * 2);
        }
        pool.join();
    }

    #[test]
    fn spawn_selected_placeholders_stay_finished() {
        let bodies: Vec<Option<FiberBody<u64, u64>>> = (0..4u64)
            .map(|p| {
                (p % 2 == 1).then(|| {
                    Box::new(move |mut api: FiberApi<u64, u64>| {
                        Box::pin(async move {
                            assert_eq!(api.call(p).await, p + 1);
                        }) as FiberFuture
                    }) as FiberBody<u64, u64>
                })
            })
            .collect();
        let mut pool = FiberPool::spawn_selected(bodies);
        assert_eq!(pool.len(), 4);
        assert_eq!(pool.live_count(), 2);
        assert!(pool.is_finished(0) && pool.is_finished(2));
        assert_eq!(pool.peek_request(0), None);
        assert_eq!(pool.take_request(2), None);
        for p in [1u32, 3] {
            let req = pool.take_request(p).unwrap();
            assert_eq!(pool.resume(p, req + 1), Resumed::Finished);
        }
        pool.join();
    }

    #[test]
    fn peek_does_not_consume() {
        let mut pool = FiberPool::<u64, u64>::spawn(1, |_, mut api| async move {
            api.call(5).await;
        });
        assert_eq!(pool.peek_request(0), Some(&5));
        assert_eq!(pool.peek_request(0), Some(&5));
        let req = pool.take_request(0).unwrap();
        assert_eq!(req, 5);
        assert_eq!(pool.peek_request(0), None);
        pool.resume(0, 0);
        pool.join();
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn fiber_panic_propagates_to_engine() {
        let mut pool = FiberPool::<u64, u64>::spawn(1, |_, mut api| async move {
            api.call(1).await;
            panic!("boom");
        });
        let req = pool.take_request(0).unwrap();
        pool.resume(0, req); // the body's panic unwinds through this poll
    }

    #[test]
    #[should_panic(expected = "suspended without issuing a request")]
    fn foreign_suspension_is_rejected() {
        FiberPool::<u64, u64>::spawn(1, |_, _api| std::future::pending::<()>());
    }

    #[test]
    #[should_panic(expected = "still live")]
    fn join_rejects_live_fibers() {
        let pool = FiberPool::<u64, u64>::spawn(1, |_, mut api| async move {
            api.call(1).await;
        });
        pool.join();
    }

    #[test]
    fn drop_unblocks_live_fibers_without_hanging() {
        let pool = FiberPool::<u64, u64>::spawn(2, |_, mut api| async move {
            api.call(1).await;
            // Never replied-to; dropping the pool drops this suspended body.
            api.call(2).await;
        });
        drop(pool); // must not hang or abort
    }
}
