//! Quarantine-and-replay: the one recovery policy every engine host uses.
//!
//! A [`Supervisor`] owns one engine slot, built lazily. Each attempt runs
//! under `catch_unwind`, so a panic becomes a [`Fault`] of kind `panic`
//! instead of killing the calling thread. A fault **quarantines** the
//! engine: it is dropped (inside `catch_unwind` too, because after a panic
//! its pool bookkeeping may be arbitrarily wrong and `Drop` parks buffers
//! back into it) and the next attempt runs on a freshly built one. Retries
//! are bounded and immediate: the replay runs on a new in-process engine,
//! so there is nothing to wait for.
//!
//! Callers pass plain closures — how to build an engine, what one attempt
//! does, and what to record on a fault. The attempt receives its index, so
//! fault injection can target attempt 0 only and a replay reproduces the
//! fault-free result bit for bit.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::integrity::IntegrityError;

/// Why one attempt condemned its engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// Short machine-readable kind: `panic`, `integrity`, or a
    /// host-specific one (e.g. `unrecoverable`).
    pub kind: &'static str,
    /// Human-readable detail.
    pub msg: String,
}

impl Fault {
    /// A fault of `kind` with detail `msg`.
    pub fn new(kind: &'static str, msg: impl Into<String>) -> Self {
        Self {
            kind,
            msg: msg.into(),
        }
    }
}

impl From<IntegrityError> for Fault {
    fn from(e: IntegrityError) -> Self {
        Self::new("integrity", e.to_string())
    }
}

/// How a supervised run ended without a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GaveUp {
    /// The engine could not be built.
    Build(String),
    /// Every allowed attempt faulted; `fault` is the last one and
    /// `attempts` counts the pre-charged ones too.
    Exhausted {
        /// The fault of the final attempt.
        fault: Fault,
        /// Attempt index of the final attempt, plus one.
        attempts: u32,
    },
}

/// One lazily built engine slot under quarantine-and-replay.
pub struct Supervisor<E> {
    engine: Option<E>,
}

/// An empty slot: the first attempt builds the engine.
impl<E> Default for Supervisor<E> {
    fn default() -> Self {
        Self { engine: None }
    }
}

impl<E> Supervisor<E> {
    /// The warm engine, if one is built and not quarantined.
    pub fn engine_mut(&mut self) -> Option<&mut E> {
        self.engine.as_mut()
    }

    /// Run attempts `attempts.start..attempts.end` until one returns a
    /// result. A start above zero pre-charges attempts spent elsewhere (a
    /// failed batch attempt counts as one); at least one attempt always
    /// runs. On a fault — returned, or a contained panic — `on_fault` sees
    /// the engine before it is discarded, then the next attempt rebuilds.
    pub fn run<T>(
        &mut self,
        attempts: Range<u32>,
        mut build: impl FnMut() -> Result<E, String>,
        mut attempt: impl FnMut(&mut E, u32) -> Result<T, Fault>,
        mut on_fault: impl FnMut(&mut E, &Fault, u32),
    ) -> Result<T, GaveUp> {
        let end = attempts.end.max(attempts.start + 1);
        let mut idx = attempts.start;
        loop {
            let engine = match &mut self.engine {
                Some(e) => e,
                slot => slot.insert(build().map_err(GaveUp::Build)?),
            };
            let fault = match catch_unwind(AssertUnwindSafe(|| attempt(engine, idx))) {
                Ok(Ok(done)) => return Ok(done),
                Ok(Err(fault)) => fault,
                Err(payload) => Fault::new("panic", panic_message(payload.as_ref())),
            };
            on_fault(engine, &fault, idx);
            self.quarantine();
            idx += 1;
            if idx >= end {
                return Err(GaveUp::Exhausted {
                    fault,
                    attempts: idx,
                });
            }
        }
    }

    /// Drop the engine without letting its destructor take the host down.
    fn quarantine(&mut self) {
        if let Some(e) = self.engine.take() {
            let _ = catch_unwind(AssertUnwindSafe(move || drop(e)));
        }
    }
}

/// The message of a caught panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A toy engine that knows which build produced it.
    struct Toy {
        generation: u32,
    }

    fn counting_build(built: &Cell<u32>) -> impl FnMut() -> Result<Toy, String> + '_ {
        move || {
            built.set(built.get() + 1);
            Ok(Toy {
                generation: built.get(),
            })
        }
    }

    #[test]
    fn panic_is_contained_and_the_next_attempt_runs_on_a_rebuilt_engine() {
        let built = Cell::new(0);
        let mut faults = Vec::new();
        let mut sup = Supervisor::default();
        let got = sup.run(
            0..3,
            counting_build(&built),
            |e: &mut Toy, i| {
                if i == 0 {
                    panic!("boom on generation {}", e.generation);
                }
                Ok(e.generation)
            },
            |_, f, i| faults.push((f.clone(), i)),
        );
        assert_eq!(got, Ok(2), "the replay ran on generation 2");
        assert_eq!(
            faults,
            vec![(Fault::new("panic", "boom on generation 1"), 0)]
        );
        assert_eq!(built.get(), 2);
        assert_eq!(sup.engine_mut().map(|e| e.generation), Some(2));
    }

    #[test]
    fn fault_quarantines_and_replays_then_the_engine_stays_warm() {
        let built = Cell::new(0);
        let mut seen = Vec::new();
        let mut sup = Supervisor::default();
        let got = sup.run(
            0..3,
            counting_build(&built),
            |e: &mut Toy, i| match i {
                0 => Err(Fault::new("integrity", "flip")),
                _ => Ok((e.generation, i)),
            },
            |e, f, i| seen.push((e.generation, f.kind, i)),
        );
        assert_eq!(got, Ok((2, 1)));
        assert_eq!(
            seen,
            vec![(1, "integrity", 0)],
            "on_fault sees the doomed engine"
        );
        // A clean run reuses the warm engine: no rebuild.
        let again = sup.run(
            0..3,
            counting_build(&built),
            |e, _| Ok(e.generation),
            |_, _, _| {},
        );
        assert_eq!(again, Ok(2));
        assert_eq!(built.get(), 2);
    }

    #[test]
    fn retries_stop_at_max() {
        let built = Cell::new(0);
        let mut tried = Vec::new();
        let mut sup: Supervisor<Toy> = Supervisor::default();
        let got: Result<(), _> = sup.run(
            0..3,
            counting_build(&built),
            |_, i| {
                tried.push(i);
                Err(Fault::new("integrity", format!("attempt {i}")))
            },
            |_, _, _| {},
        );
        assert_eq!(
            got,
            Err(GaveUp::Exhausted {
                fault: Fault::new("integrity", "attempt 2"),
                attempts: 3
            })
        );
        assert_eq!(tried, vec![0, 1, 2]);
        assert_eq!(built.get(), 3, "every attempt ran on its own engine");
        assert!(
            sup.engine_mut().is_none(),
            "the last engine is quarantined too"
        );
    }

    #[test]
    fn build_failure_ends_the_run() {
        let mut sup: Supervisor<Toy> = Supervisor::default();
        let mut ran = false;
        let got: Result<(), _> = sup.run(
            0..3,
            || Err("no device".to_string()),
            |_, _| {
                ran = true;
                Ok(())
            },
            |_, _, _| {},
        );
        assert_eq!(got, Err(GaveUp::Build("no device".into())));
        assert!(!ran);
    }

    #[test]
    fn a_precharged_start_is_honoured_and_always_gets_one_attempt() {
        let built = Cell::new(0);
        let mut tried = Vec::new();
        let mut sup: Supervisor<Toy> = Supervisor::default();
        let got: Result<(), _> = sup.run(
            1..3,
            counting_build(&built),
            |_, i| {
                tried.push(i);
                Err(Fault::new("panic", "again"))
            },
            |_, _, _| {},
        );
        assert_eq!(tried, vec![1, 2], "attempt 0 was spent elsewhere");
        assert!(matches!(got, Err(GaveUp::Exhausted { attempts: 3, .. })));

        // Start at or past the end: one attempt still runs.
        let got = sup.run(1..1, counting_build(&built), |_, i| Ok(i), |_, _, _| {});
        assert_eq!(got, Ok(1));
    }
}
