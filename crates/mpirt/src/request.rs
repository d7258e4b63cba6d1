//! Request handles and error type.

use crate::world::MpiWorld;
use simcore::Sim;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Errors surfaced through request completion.
#[derive(Clone, Debug, PartialEq)]
pub enum MpiError {
    /// Send/recv datatype signatures are incompatible.
    Type(datatype::TypeError),
    /// Memory subsystem failure (bad buffer, OOM).
    Mem(String),
    /// Transport failure below the protocol layer (no channel between
    /// the ranks, link torn down).
    Net(netsim::NetError),
    /// An injected fault permanently took out a capability and no
    /// fallback path remained, or the retry/timeout budget ran out —
    /// or the configuration leaves no path at all (a zero fragment size
    /// or ring depth, named in the message), or a rank argument names no
    /// peer (out of range, or a send to itself; named in the message).
    Faulted(String),
    /// The simulation drained with requests still incomplete — an
    /// unmatched rendezvous or a protocol deadlock.
    Stalled,
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpiError::Type(e) => write!(f, "datatype error: {e}"),
            MpiError::Mem(e) => write!(f, "memory error: {e}"),
            MpiError::Net(e) => write!(f, "network error: {e}"),
            MpiError::Faulted(e) => write!(f, "fault: {e}"),
            MpiError::Stalled => {
                write!(f, "simulation drained with incomplete requests (deadlock?)")
            }
        }
    }
}

impl std::error::Error for MpiError {}

impl From<datatype::TypeError> for MpiError {
    fn from(e: datatype::TypeError) -> Self {
        MpiError::Type(e)
    }
}

impl From<netsim::NetError> for MpiError {
    fn from(e: netsim::NetError) -> Self {
        MpiError::Net(e)
    }
}

/// A unit list that cannot be merged is corrupted engine bookkeeping.
impl From<devengine::MergeError> for MpiError {
    fn from(e: devengine::MergeError) -> Self {
        MpiError::Faulted(e.to_string())
    }
}

type Waker = Box<dyn FnOnce(&mut Sim<MpiWorld>, &Result<u64, MpiError>)>;

struct RequestState {
    result: Option<Result<u64, MpiError>>,
    completed_at: Option<simcore::SimTime>,
    wakers: Vec<Waker>,
}

/// Completion handle for a nonblocking operation. Cheap to clone; test
/// code typically runs the simulation then inspects the handle, while
/// layered code (collectives) chains continuations with
/// [`Request::on_complete`].
#[derive(Clone)]
pub struct Request {
    state: Rc<RefCell<RequestState>>,
}

impl Request {
    /// Create an unresolved request.
    pub(crate) fn new() -> Request {
        Request {
            state: Rc::new(RefCell::new(RequestState {
                result: None,
                completed_at: None,
                wakers: Vec::new(),
            })),
        }
    }

    /// Resolve the request at the current virtual time and fire any
    /// registered continuations (deferred to the next event so callers
    /// never re-enter protocol state they still hold borrowed).
    pub fn complete(&self, sim: &mut Sim<MpiWorld>, result: Result<u64, MpiError>) {
        let wakers = {
            let mut s = self.state.borrow_mut();
            assert!(s.result.is_none(), "request completed twice");
            s.result = Some(result);
            s.completed_at = Some(sim.now());
            std::mem::take(&mut s.wakers)
        };
        for w in wakers {
            let me = self.clone();
            sim.schedule_now(move |sim| {
                let res = me.state.borrow().result.clone().expect("completed");
                w(sim, &res);
            });
        }
    }

    /// Resolve the request unless it already resolved. Error paths use
    /// this: an abort may race with a completion that beat it by one
    /// event, and the first resolution must stand.
    pub(crate) fn complete_if_pending(
        &self,
        sim: &mut Sim<MpiWorld>,
        result: Result<u64, MpiError>,
    ) {
        if self.state.borrow().result.is_some() {
            return;
        }
        self.complete(sim, result);
    }

    /// Run `f` when the request completes (immediately — at the next
    /// event — if it already has).
    pub fn on_complete(
        &self,
        sim: &mut Sim<MpiWorld>,
        f: impl FnOnce(&mut Sim<MpiWorld>, &Result<u64, MpiError>) + 'static,
    ) {
        let already = self.state.borrow().result.is_some();
        if already {
            let me = self.clone();
            sim.schedule_now(move |sim| {
                let res = me.state.borrow().result.clone().expect("completed");
                f(sim, &res);
            });
        } else {
            self.state.borrow_mut().wakers.push(Box::new(f));
        }
    }

    pub fn is_complete(&self) -> bool {
        self.state.borrow().result.is_some()
    }

    /// Bytes transferred, if complete and successful.
    pub fn result(&self) -> Option<Result<u64, MpiError>> {
        self.state.borrow().result.clone()
    }

    /// Virtual time at which the request completed.
    pub fn completed_at(&self) -> Option<simcore::SimTime> {
        self.state.borrow().completed_at
    }

    /// Unwrap a successful completion (panics otherwise) — test helper.
    pub fn expect_bytes(&self) -> u64 {
        self.result()
            .expect("request not complete")
            .expect("request failed")
    }
}

/// A request that completes when all of `reqs` complete (with the first
/// error, if any). The joint byte count is the sum.
pub fn join(sim: &mut Sim<MpiWorld>, reqs: &[Request]) -> Request {
    let out = Request::new();
    if reqs.is_empty() {
        out.complete(sim, Ok(0));
        return out;
    }
    let remaining = Rc::new(RefCell::new((reqs.len(), 0u64, None::<MpiError>)));
    for r in reqs {
        let rem = Rc::clone(&remaining);
        let out2 = out.clone();
        r.on_complete(sim, move |sim, res| {
            let finished = {
                let mut st = rem.borrow_mut();
                match res {
                    Ok(n) => st.1 += n,
                    Err(e) => {
                        if st.2.is_none() {
                            st.2 = Some(e.clone());
                        }
                    }
                }
                st.0 -= 1;
                st.0 == 0
            };
            if finished {
                let st = rem.borrow();
                match &st.2 {
                    Some(e) => out2.complete(sim, Err(e.clone())),
                    None => out2.complete(sim, Ok(st.1)),
                }
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MpiConfig;
    use simcore::SimTime;

    fn sim() -> Sim<MpiWorld> {
        Sim::new(MpiWorld::two_ranks_ib(MpiConfig::default()))
    }

    #[test]
    fn lifecycle() {
        let mut s = sim();
        let r = Request::new();
        assert!(!r.is_complete());
        assert!(r.result().is_none());
        s.schedule_at(SimTime::from_micros(5), {
            let r = r.clone();
            move |sim| r.complete(sim, Ok(1024))
        });
        s.run();
        assert!(r.is_complete());
        assert_eq!(r.expect_bytes(), 1024);
        assert_eq!(r.completed_at(), Some(SimTime::from_micros(5)));
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_completion_is_a_bug() {
        let mut s = sim();
        let r = Request::new();
        r.complete(&mut s, Ok(0));
        r.complete(&mut s, Ok(0));
    }

    #[test]
    fn error_propagation() {
        let mut s = sim();
        let r = Request::new();
        r.complete(
            &mut s,
            Err(MpiError::Type(datatype::TypeError::SignatureMismatch)),
        );
        assert!(matches!(r.result(), Some(Err(MpiError::Type(_)))));
    }

    #[test]
    fn wakers_fire_on_completion() {
        let mut s = sim();
        let r = Request::new();
        let hits = Rc::new(RefCell::new(0));
        for _ in 0..3 {
            let h = Rc::clone(&hits);
            r.on_complete(&mut s, move |_, res| {
                assert!(matches!(res, Ok(7)));
                *h.borrow_mut() += 1;
            });
        }
        r.complete(&mut s, Ok(7));
        s.run();
        assert_eq!(*hits.borrow(), 3);
    }

    #[test]
    fn waker_after_completion_fires_too() {
        let mut s = sim();
        let r = Request::new();
        r.complete(&mut s, Ok(1));
        let hit = Rc::new(RefCell::new(false));
        let h = Rc::clone(&hit);
        r.on_complete(&mut s, move |_, _| *h.borrow_mut() = true);
        s.run();
        assert!(*hit.borrow());
    }

    #[test]
    fn join_waits_for_all_and_sums() {
        let mut s = sim();
        let a = Request::new();
        let b = Request::new();
        let j = join(&mut s, &[a.clone(), b.clone()]);
        a.complete(&mut s, Ok(10));
        assert!(!j.is_complete());
        s.run();
        assert!(!j.is_complete());
        b.complete(&mut s, Ok(5));
        s.run();
        assert_eq!(j.expect_bytes(), 15);
    }

    #[test]
    fn join_propagates_errors() {
        let mut s = sim();
        let a = Request::new();
        let b = Request::new();
        let j = join(&mut s, &[a.clone(), b.clone()]);
        a.complete(&mut s, Err(MpiError::Mem("boom".into())));
        b.complete(&mut s, Ok(5));
        s.run();
        assert!(matches!(j.result(), Some(Err(MpiError::Mem(_)))));
    }

    #[test]
    fn join_of_nothing_completes_immediately() {
        let mut s = sim();
        let j = join(&mut s, &[]);
        assert!(j.is_complete());
    }
}
