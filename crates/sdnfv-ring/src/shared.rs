//! Reference-counted packet descriptors for NF dispatch.
//!
//! When the NF Manager dispatches a packet to one NF, or to several
//! read-only NFs at the same time (paper §4.2), each NF receives a
//! [`SharedPacket`] handle over the same underlying buffer. The handle
//! carries the explicit reference counter the paper adds to the DPDK packet
//! descriptor: the RX thread initializes it to the parallelization factor
//! and each NF decrements it on completion; whoever performs the final
//! decrement learns that the packet is ready for the TX thread's
//! conflict-resolution step.
//!
//! The descriptor also carries the NFs' verdicts: one *verdict word* per
//! dispatch position. Each NF stores its word before its decrement
//! ([`SharedPacket::complete_with`]), so the final completer — and whoever
//! it hands the descriptor to — reads every position's word with no lock
//! and no per-hop allocation. The words are opaque `u64`s; the data plane
//! decides their encoding. The first [`INLINE_VERDICTS`] positions live in
//! the descriptor's own allocation, so a packet costs one allocation from
//! ingress to egress unless it fans out wider than that.

use crate::sync::{AtomicU32, AtomicU64, Ordering};
use parking_lot::RwLock;
use std::sync::Arc;

use sdnfv_proto::Packet;

/// Dispatch positions whose verdict words live inline in the descriptor.
/// Wider fan-outs spill the remaining positions into one extra allocation
/// made when the descriptor is built.
pub const INLINE_VERDICTS: usize = 4;

struct SharedInner {
    packet: RwLock<Packet>,
    remaining: AtomicU32,
    /// Readers of the current dispatch round (set by `new` / `re_arm`).
    readers: AtomicU32,
    verdicts: [AtomicU64; INLINE_VERDICTS],
    /// Verdict words of positions `INLINE_VERDICTS..` (empty, and never
    /// allocated, for fan-outs up to `INLINE_VERDICTS`).
    spill: Box<[AtomicU64]>,
}

/// A packet descriptor shared between the NFs of one dispatch round and the
/// TX thread that collects their verdicts.
#[derive(Clone)]
pub struct SharedPacket {
    inner: Arc<SharedInner>,
}

impl std::fmt::Debug for SharedPacket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedPacket")
            .field("remaining", &self.remaining())
            .field("readers", &self.readers())
            .finish()
    }
}

impl SharedPacket {
    /// Wraps `packet` for dispatch to `readers` NFs (one verdict position
    /// each). The descriptor can later be re-armed for up to
    /// `max(readers, INLINE_VERDICTS)` readers.
    ///
    /// # Panics
    ///
    /// Panics if `readers` is zero.
    pub fn new(packet: Packet, readers: u32) -> Self {
        assert!(readers > 0, "a shared packet needs at least one reader");
        let spill = (readers as usize).saturating_sub(INLINE_VERDICTS);
        SharedPacket {
            inner: Arc::new(SharedInner {
                packet: RwLock::new(packet),
                remaining: AtomicU32::new(readers),
                readers: AtomicU32::new(readers),
                verdicts: std::array::from_fn(|_| AtomicU64::new(0)),
                spill: (0..spill).map(|_| AtomicU64::new(0)).collect(),
            }),
        }
    }

    /// Runs `f` with read access to the packet. Multiple NFs may hold read
    /// access simultaneously — this is the parallel fast path.
    pub fn with_read<R>(&self, f: impl FnOnce(&Packet) -> R) -> R {
        f(&self.inner.packet.read())
    }

    /// Acquires a read guard on the packet. Used by the batch dispatch path,
    /// which locks a whole burst of descriptors before handing the NF one
    /// [`PacketBatch`](../../sdnfv_nf/batch/struct.PacketBatch.html) over all
    /// of them.
    pub fn read_guard(&self) -> std::sync::RwLockReadGuard<'_, Packet> {
        self.inner.packet.read()
    }

    /// Acquires a write guard on the packet (batch twin of
    /// [`SharedPacket::with_write`]). The data plane only write-locks
    /// descriptors owned by exactly one NF, so the lock is uncontended.
    pub fn write_guard(&self) -> std::sync::RwLockWriteGuard<'_, Packet> {
        self.inner.packet.write()
    }

    /// Runs `f` with exclusive write access to the packet.
    ///
    /// The data plane only grants this to NFs that declared themselves
    /// non-read-only, which are never scheduled in parallel with others, so
    /// in practice the lock is uncontended.
    pub fn with_write<R>(&self, f: impl FnOnce(&mut Packet) -> R) -> R {
        f(&mut self.inner.packet.write())
    }

    fn verdict_cell(&self, position: usize) -> &AtomicU64 {
        match position.checked_sub(INLINE_VERDICTS) {
            None => &self.inner.verdicts[position],
            Some(spilled) => &self.inner.spill[spilled],
        }
    }

    /// Records that one NF finished with the packet, without a verdict.
    /// Returns `true` for the final completion, i.e. when the caller should
    /// hand the packet to the TX thread for conflict resolution.
    pub fn complete_one(&self) -> bool {
        // ORDER: AcqRel — classic refcount-release protocol: the release
        // half publishes this NF's packet writes and verdict word before
        // the decrement, the acquire half makes the *final* decrementer
        // (who returns `true` and hands the packet to TX conflict
        // resolution) happen-after every earlier decrementer's work. The
        // RwLock also orders packet data, but the descriptor handoff itself
        // must not rely on it (the TX thread reads the verdict words
        // without locking). Model-checked.
        let prev = self.inner.remaining.fetch_sub(1, Ordering::AcqRel);
        assert!(prev > 0, "complete_one called more times than readers");
        prev == 1
    }

    /// Stores this NF's verdict word in its dispatch `position`, then
    /// completes exactly like [`SharedPacket::complete_one`]. The word is
    /// visible to the final completer and to every thread it hands the
    /// descriptor to, through [`SharedPacket::verdict_word`].
    ///
    /// # Panics
    ///
    /// Panics if `position` is not below the descriptor's verdict capacity.
    pub fn complete_with(&self, position: usize, word: u64) -> bool {
        // ORDER: Relaxed — the position belongs to this NF alone for the
        // round, and the AcqRel decrement in `complete_one` right after is
        // the release that publishes the word to the final completer.
        self.verdict_cell(position).store(word, Ordering::Relaxed);
        self.complete_one()
    }

    /// The verdict word stored at `position` in the round that just
    /// completed. Only meaningful to the final completer (or a thread it
    /// handed the descriptor to through a release/acquire edge, such as a
    /// ring push and pop); a position nobody wrote reads as the last word
    /// stored there, `0` on a fresh descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `position` is not below the descriptor's verdict capacity.
    pub fn verdict_word(&self, position: usize) -> u64 {
        // ORDER: Relaxed — the caller happens-after every `complete_with`
        // of the round (the final decrement acquired each earlier one, and
        // the handoff to the caller is itself release/acquire), so the
        // latest store is the only one it may observe. Model-checked.
        self.verdict_cell(position).load(Ordering::Relaxed)
    }

    /// How many dispatch positions the descriptor holds verdict words for:
    /// the widest round [`SharedPacket::re_arm`] accepts.
    pub fn verdict_capacity(&self) -> usize {
        INLINE_VERDICTS + self.inner.spill.len()
    }

    /// Number of NFs of the current round that have not yet completed.
    pub fn remaining(&self) -> u32 {
        // ORDER: Acquire — pairs with the release half of `complete_one`,
        // so a dispatcher that observes 0 also observes all NFs' completed
        // work before re-arming or reclaiming the descriptor.
        self.inner.remaining.load(Ordering::Acquire)
    }

    /// Re-arms the completion counter for another dispatch of the same
    /// packet to `readers` NFs (the TX thread does this when forwarding a
    /// packet to the next NF of a chain, so the buffer is never copied and
    /// the descriptor never reallocated).
    ///
    /// # Panics
    ///
    /// Panics if called while previous readers are still outstanding, if
    /// `readers` is zero, or if it exceeds
    /// [`SharedPacket::verdict_capacity`].
    pub fn re_arm(&self, readers: u32) {
        assert!(readers > 0, "a shared packet needs at least one reader");
        assert!(
            readers as usize <= self.verdict_capacity(),
            "re_arm for {readers} readers exceeds the descriptor's {} verdict positions",
            self.verdict_capacity()
        );
        // ORDER: Relaxed — published by the release half of the swap
        // below, which every reader of the new round acquires (through the
        // dispatch ring) before it can complete.
        self.inner.readers.store(readers, Ordering::Relaxed);
        // ORDER: AcqRel — acquire so re-arming happens-after the previous
        // round's final `complete_one` (whose work the next readers may
        // read), release so the new readers' first decrement happens-after
        // the TX thread's forwarding decision.
        let previous = self.inner.remaining.swap(readers, Ordering::AcqRel);
        assert_eq!(
            previous, 0,
            "re_arm called while {previous} readers are still outstanding"
        );
    }

    /// The number of readers (dispatch positions) of the current round.
    pub fn readers(&self) -> u32 {
        // ORDER: Relaxed — written only by `new` and `re_arm`, both of
        // which happen-before any handle reaches a reader of the round.
        self.inner.readers.load(Ordering::Relaxed)
    }

    /// Returns `true` if both handles reference the same underlying packet
    /// buffer (used by batch dispatch to avoid locking one buffer twice).
    pub fn same_buffer(&self, other: &SharedPacket) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Extracts the packet once all handles but this one are gone, or returns
    /// `self` if other NFs still reference it.
    pub fn try_into_packet(self) -> Result<Packet, SharedPacket> {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => Ok(inner.packet.into_inner()),
            Err(inner) => Err(SharedPacket { inner }),
        }
    }

    /// Moves the packet out when this is the last handle, and clones the
    /// frame otherwise — the egress step, where a sibling of a parallel
    /// round may still hold a handle for the instant between its final
    /// decrement and dropping the handle.
    pub fn into_packet(self) -> Packet {
        self.try_into_packet()
            .unwrap_or_else(|shared| shared.clone_packet())
    }

    /// Clones the underlying frame (used when a copy must outlive the pool).
    pub fn clone_packet(&self) -> Packet {
        self.inner.packet.read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnfv_proto::packet::PacketBuilder;
    use std::thread;

    fn pkt() -> Packet {
        PacketBuilder::udp().payload(b"shared").build()
    }

    #[test]
    fn completion_counting() {
        let sp = SharedPacket::new(pkt(), 3);
        assert_eq!(sp.remaining(), 3);
        assert_eq!(sp.readers(), 3);
        assert!(!sp.complete_one());
        assert!(!sp.complete_one());
        assert!(sp.complete_one());
        assert_eq!(sp.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "more times than readers")]
    fn over_completion_panics() {
        let sp = SharedPacket::new(pkt(), 1);
        let _ = sp.complete_one();
        let _ = sp.complete_one();
    }

    #[test]
    #[should_panic(expected = "at least one reader")]
    fn zero_readers_panics() {
        let _ = SharedPacket::new(pkt(), 0);
    }

    #[test]
    fn parallel_reads_see_same_data() {
        let sp = SharedPacket::new(pkt(), 4);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let sp = sp.clone();
            handles.push(thread::spawn(move || {
                let payload = sp.with_read(|p| p.l4_payload().unwrap().to_vec());
                sp.complete_one();
                payload
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), b"shared");
        }
        assert_eq!(sp.remaining(), 0);
    }

    #[test]
    fn write_access_mutates_for_all() {
        let sp = SharedPacket::new(pkt(), 1);
        sp.with_write(|p| p.l4_payload_mut().unwrap()[0] = b'X');
        assert_eq!(sp.with_read(|p| p.l4_payload().unwrap()[0]), b'X');
    }

    #[test]
    fn into_packet_when_sole_owner() {
        let sp = SharedPacket::new(pkt(), 2);
        let clone = sp.clone();
        let sp = sp.try_into_packet().unwrap_err();
        drop(clone);
        let packet = sp.try_into_packet().unwrap();
        assert_eq!(packet.l4_payload().unwrap(), b"shared");
    }

    #[test]
    fn re_arm_allows_sequential_reuse() {
        let sp = SharedPacket::new(pkt(), 1);
        assert!(sp.complete_one());
        sp.re_arm(2);
        assert_eq!(sp.remaining(), 2);
        assert!(!sp.complete_one());
        assert!(sp.complete_one());
    }

    #[test]
    #[should_panic(expected = "still outstanding")]
    fn re_arm_with_outstanding_readers_panics() {
        let sp = SharedPacket::new(pkt(), 2);
        sp.re_arm(1);
    }

    #[test]
    fn verdict_words_follow_their_positions() {
        let sp = SharedPacket::new(pkt(), 2);
        assert!(!sp.complete_with(1, 11));
        assert!(sp.complete_with(0, 10));
        assert_eq!((sp.verdict_word(0), sp.verdict_word(1)), (10, 11));
        // The same descriptor carries the next round's words.
        sp.re_arm(1);
        assert_eq!(sp.readers(), 1);
        assert!(sp.complete_with(0, 7));
        assert_eq!(sp.verdict_word(0), 7);
    }

    #[test]
    fn wide_fan_out_spills_past_the_inline_words() {
        let readers = INLINE_VERDICTS as u32 + 2;
        let sp = SharedPacket::new(pkt(), readers);
        assert_eq!(sp.verdict_capacity(), readers as usize);
        for position in 0..readers as usize {
            let last = sp.complete_with(position, position as u64 + 100);
            assert_eq!(last, position + 1 == readers as usize);
        }
        for position in 0..readers as usize {
            assert_eq!(sp.verdict_word(position), position as u64 + 100);
        }
        assert_eq!(
            SharedPacket::new(pkt(), 1).verdict_capacity(),
            INLINE_VERDICTS
        );
    }

    #[test]
    #[should_panic(expected = "verdict positions")]
    fn re_arm_past_the_verdict_capacity_panics() {
        let sp = SharedPacket::new(pkt(), 1);
        assert!(sp.complete_one());
        sp.re_arm(INLINE_VERDICTS as u32 + 1);
    }

    #[test]
    fn into_packet_clones_while_a_parallel_sibling_holds_a_handle() {
        // A two-NF round: the sibling has completed but not yet dropped its
        // handle when the final completer's consumer moves the frame out.
        let sp = SharedPacket::new(pkt(), 2);
        let sibling = sp.clone();
        assert!(!sibling.complete_with(1, 0));
        assert!(sp.complete_with(0, 0));
        let egress = sp.into_packet();
        assert_eq!(egress.l4_payload().unwrap(), b"shared");
        // The copy left the sibling's view intact; once it is the last
        // handle, the frame itself moves out.
        assert_eq!(sibling.clone_packet().data(), egress.data());
        assert_eq!(sibling.into_packet().data(), egress.data());
    }

    #[test]
    fn clone_packet_copies_frame() {
        let sp = SharedPacket::new(pkt(), 1);
        let copy = sp.clone_packet();
        assert_eq!(copy.l4_payload().unwrap(), b"shared");
    }
}
