//! Seeded-bug variants that prove the model checker has teeth.
//!
//! Each scenario here re-implements one of the shipping algorithms on the
//! same instrumented atomics, with a single deliberate bug selected by an
//! enum knob — the textbook mistakes the checker exists to catch: a
//! `Release` publish weakened to `Relaxed`, a weakened `Acquire` observe,
//! an off-by-one in the ring's free-slot computation, a dropped credit
//! release, torn (load-then-store) read-modify-writes, and a verdict
//! hand-back that writes after the countdown or publishes without release.
//! The `None`
//! variant of every knob is the faithful algorithm and must pass
//! exhaustively; every other variant must produce a violation. The
//! mutation self-tests in `tests/model_mutants.rs` assert both directions,
//! so a regression that blinds the checker (or a checker change that
//! starts flagging correct code) fails CI.
//!
//! The mini implementations are deliberately minimal — a handful of
//! atomic operations per thread — so the bounded-exhaustive search covers
//! them in milliseconds.

use std::sync::Arc;

use sdnfv_ring::model::{self, CheckOpts, CheckReport};
use sdnfv_ring::sync::{AtomicIsize, AtomicU32, AtomicU64, AtomicUsize, Ordering, Slot};

/// Which bug (if any) to seed into the miniature SPSC ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingBug {
    /// Faithful algorithm; must pass.
    None,
    /// The producer publishes the new tail with `Relaxed` instead of
    /// `Release`: the consumer can observe the cursor before the slot
    /// write — a data race / uninitialized read.
    RelaxedPublish,
    /// The consumer observes the tail with `Relaxed` instead of `Acquire`:
    /// same race, from the other side of the edge.
    RelaxedObserve,
    /// The free-slot computation over-counts by one, letting the producer
    /// overwrite a slot the consumer has not consumed yet.
    WrapOffByOne,
}

/// A miniature Lamport SPSC ring over the instrumented atomics, with a
/// seeded-bug knob. Mirrors the cursor/publish protocol of
/// [`sdnfv_ring::spsc`] without the burst machinery.
struct MiniRing {
    head: AtomicUsize,
    tail: AtomicUsize,
    slots: Box<[Slot<u64>]>,
    capacity: usize,
    bug: RingBug,
}

// SAFETY: the scenario below upholds the one-producer/one-consumer
// discipline by construction (one pushing thread, one popping thread), and
// the model checker independently verifies every slot access for races.
unsafe impl Sync for MiniRing {}
// SAFETY: the payload is `u64`; moving the ring between threads is safe.
unsafe impl Send for MiniRing {}

impl MiniRing {
    fn new(capacity: usize, bug: RingBug) -> Self {
        MiniRing {
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            capacity,
            bug,
        }
    }

    fn push(&self, value: u64) -> bool {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        let used = tail.wrapping_sub(head);
        let free = if self.bug == RingBug::WrapOffByOne {
            // Seeded bug: one phantom slot of headroom.
            self.capacity + 1 - used
        } else {
            self.capacity - used
        };
        if free == 0 {
            return false;
        }
        // SAFETY: producer-owned slot under the cursor protocol; under the
        // WrapOffByOne bug this is exactly the overwrite the checker must
        // catch (via the FIFO assertion or a race on the slot).
        unsafe { self.slots[tail % self.capacity].write(value) };
        let publish = if self.bug == RingBug::RelaxedPublish {
            Ordering::Relaxed
        } else {
            Ordering::Release
        };
        self.tail.store(tail.wrapping_add(1), publish);
        true
    }

    fn pop(&self) -> Option<u64> {
        let head = self.head.load(Ordering::Relaxed);
        let observe = if self.bug == RingBug::RelaxedObserve {
            Ordering::Relaxed
        } else {
            Ordering::Acquire
        };
        let tail = self.tail.load(observe);
        if tail == head {
            return None;
        }
        // SAFETY: consumer-owned slot in `[head, tail)`; under the
        // weakened-ordering bugs the checker flags this access as a race.
        let value = unsafe { self.slots[head % self.capacity].read() };
        self.head.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }
}

impl Drop for MiniRing {
    fn drop(&mut self) {
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        for pos in head..tail {
            // SAFETY: `&mut self` proves exclusivity; `[head, tail)` holds
            // initialized values (u64 — dropping is a no-op, kept for
            // protocol fidelity).
            unsafe { self.slots[pos % self.capacity].drop_in_place() };
        }
    }
}

/// Runs a 1P×1C scenario over [`MiniRing`] with the given seeded bug and
/// returns the raw report. `RingBug::None` must pass exhaustively; every
/// other knob must yield a violation.
pub fn ring_scenario(bug: RingBug, opts: CheckOpts) -> CheckReport {
    model::explore(opts, move || {
        let ring = Arc::new(MiniRing::new(2, bug));
        let p = {
            let ring = Arc::clone(&ring);
            model::spawn(move || {
                let mut pushed = 0u64;
                for v in 1..=3u64 {
                    if !ring.push(v) {
                        break;
                    }
                    pushed = v;
                }
                pushed
            })
        };
        let c = {
            let ring = Arc::clone(&ring);
            model::spawn(move || {
                let mut got = Vec::new();
                for _ in 0..3 {
                    if let Some(v) = ring.pop() {
                        got.push(v);
                    }
                }
                got
            })
        };
        let pushed = p.join();
        let mut got = c.join();
        while let Some(v) = ring.pop() {
            got.push(v);
        }
        let expect: Vec<u64> = (1..=pushed).collect();
        assert_eq!(got, expect, "ring lost, duplicated or reordered items");
    })
}

/// Which bug (if any) to seed into the miniature credit gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateBug {
    /// Faithful algorithm; must pass.
    None,
    /// A worker that acquired a credit never returns it — the leak the
    /// conservation invariant exists to catch.
    DroppedRelease,
    /// `release` is a torn load-then-store instead of a `fetch_add`: two
    /// concurrent releases can lose one credit.
    TornRelease,
}

/// A miniature credit gate (CAS acquire, fetch-add release) with a
/// seeded-bug knob, mirroring [`sdnfv_ring::CreditGate`].
struct MiniGate {
    available: AtomicIsize,
    capacity: isize,
    bug: GateBug,
}

impl MiniGate {
    fn new(capacity: isize, bug: GateBug) -> Self {
        MiniGate {
            available: AtomicIsize::new(capacity),
            capacity,
            bug,
        }
    }

    fn try_acquire(&self) -> bool {
        let mut current = self.available.load(Ordering::Relaxed);
        loop {
            if current < 1 {
                return false;
            }
            match self.available.compare_exchange_weak(
                current,
                current - 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => current = actual,
            }
        }
    }

    fn release(&self) {
        match self.bug {
            GateBug::DroppedRelease => {}
            GateBug::TornRelease => {
                // Seeded bug: a non-atomic read-modify-write.
                let current = self.available.load(Ordering::Relaxed);
                self.available.store(current + 1, Ordering::Release);
            }
            GateBug::None => {
                self.available.fetch_add(1, Ordering::AcqRel);
            }
        }
    }
}

/// Two workers race acquire/release on a two-credit gate; conservation is
/// asserted after quiescence. `GateBug::None` must pass exhaustively;
/// both seeded bugs must violate the conservation assertion.
pub fn gate_scenario(bug: GateBug, opts: CheckOpts) -> CheckReport {
    model::explore(opts, move || {
        let gate = Arc::new(MiniGate::new(2, bug));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let gate = Arc::clone(&gate);
                model::spawn(move || {
                    if gate.try_acquire() {
                        gate.release();
                    }
                })
            })
            .collect();
        for w in workers {
            w.join();
        }
        let available = gate.available.load(Ordering::Acquire);
        assert_eq!(
            available, gate.capacity,
            "credits not conserved: {available} != {}",
            gate.capacity
        );
    })
}

/// Which bug (if any) to seed into the miniature histogram recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistBug {
    /// Faithful algorithm; must pass.
    None,
    /// `record` is a torn load-then-store on the bucket counter: two
    /// concurrent recorders into the same bucket can lose an increment.
    TornRecord,
}

/// Two recorders hit the same bucket of a one-bucket "histogram"; the
/// total is asserted after quiescence — the lost-update shape the real
/// histogram's relaxed `fetch_add` is immune to by RMW atomicity.
pub fn hist_scenario(bug: HistBug, opts: CheckOpts) -> CheckReport {
    model::explore(opts, move || {
        let bucket = Arc::new(AtomicU64::new(0));
        let recorders: Vec<_> = (0..2)
            .map(|_| {
                let bucket = Arc::clone(&bucket);
                model::spawn(move || match bug {
                    HistBug::TornRecord => {
                        let current = bucket.load(Ordering::Relaxed);
                        bucket.store(current + 1, Ordering::Relaxed);
                    }
                    HistBug::None => {
                        bucket.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for r in recorders {
            r.join();
        }
        assert_eq!(
            bucket.load(Ordering::Acquire),
            2,
            "bucket lost an increment"
        );
    })
}

/// Which bug (if any) to seed into the miniature verdict hand-back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictBug {
    /// Faithful algorithm (store the verdict word, then the `AcqRel`
    /// countdown); must pass.
    None,
    /// The NF counts down first and stores its verdict word afterwards:
    /// the final completer can read the slot before the word lands.
    WriteAfterCountdown,
    /// The countdown keeps its acquire half but loses the release half
    /// (`Acquire` instead of `AcqRel`): an earlier completer's word is not
    /// published to the final completer, which may read a stale slot.
    RelaxedPublish,
}

/// A miniature [`sdnfv_ring::SharedPacket`] verdict hand-back: two
/// verdict words and the completion countdown, with a seeded-bug knob.
struct MiniVerdicts {
    remaining: AtomicU32,
    words: [AtomicU64; 2],
    bug: VerdictBug,
}

impl MiniVerdicts {
    /// Stores `word` at `position` and counts down; `true` for the final
    /// completion.
    fn complete_with(&self, position: usize, word: u64) -> bool {
        match self.bug {
            VerdictBug::None => {
                self.words[position].store(word, Ordering::Relaxed);
                self.remaining.fetch_sub(1, Ordering::AcqRel) == 1
            }
            VerdictBug::WriteAfterCountdown => {
                let last = self.remaining.fetch_sub(1, Ordering::AcqRel) == 1;
                self.words[position].store(word, Ordering::Relaxed);
                last
            }
            VerdictBug::RelaxedPublish => {
                self.words[position].store(word, Ordering::Relaxed);
                self.remaining.fetch_sub(1, Ordering::Acquire) == 1
            }
        }
    }
}

/// Two NFs hand back verdicts `10` and `11` through one descriptor; the
/// final completer reads both words and asserts it sees both.
/// `VerdictBug::None` must pass exhaustively; both seeded bugs must let
/// some interleaving read a stale (zero) word.
pub fn verdict_scenario(bug: VerdictBug, opts: CheckOpts) -> CheckReport {
    model::explore(opts, move || {
        let shared = Arc::new(MiniVerdicts {
            remaining: AtomicU32::new(2),
            words: [AtomicU64::new(0), AtomicU64::new(0)],
            bug,
        });
        let workers: Vec<_> = (0..2usize)
            .map(|position| {
                let shared = Arc::clone(&shared);
                model::spawn(move || {
                    if shared.complete_with(position, 10 + position as u64) {
                        let seen = [
                            shared.words[0].load(Ordering::Relaxed),
                            shared.words[1].load(Ordering::Relaxed),
                        ];
                        assert_eq!(seen, [10, 11], "final completer read a stale verdict");
                    }
                })
            })
            .collect();
        for w in workers {
            w.join();
        }
    })
}
