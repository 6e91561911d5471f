//! The shared chunked packet pool: one slab of 4-packet chunks backing
//! any number of intrusive FIFOs.
//!
//! PR 2 introduced this layout inside the switch-side VOQ bank
//! ([`crate::processing::ProcessingLogic`]); here it is factored out so
//! the host-staging path (`q_inter`/`q_short`/`q_bulk` and the slow-mode
//! host VOQs in [`crate::runtime`]) shares the same discipline instead of
//! shuffling 40-byte [`Packet`] descriptors through per-queue
//! `VecDeque`s. A queue is a [`PktFifo`] — four integers naming a chunk
//! run inside the pool — so moving a packet touches one pool slot and one
//! compact header, enqueue order is preserved exactly, and freed chunks
//! recycle through a FIFO free list (runs freed together are reused
//! together, keeping traversals in allocation order).
//!
//! The pool tracks live packets and in-use chunks so callers can assert
//! **occupancy conservation** at epoch boundaries: every chunk is either
//! on the free list or reachable from exactly one FIFO, and a packet
//! dropped *before* admission never touches the pool (so it cannot leak
//! or double-free a chunk).
//!
//! The slab is *segmented*: segment `s` holds `16 << s` chunks and is
//! allocated whole the first time it is needed, so the slab doubles its
//! capacity by allocating one new segment. Growth never moves a chunk —
//! a flat `Vec` slab would `realloc` (copy) the whole pool each time it
//! doubles — and the geometric sizes keep small pools (one per run, one
//! per shard) at one small allocation. A chunk id carries its segment in
//! its top bits and its offset in the rest, so finding a chunk is a shift
//! and a mask into an inline segment table.

use xds_net::Packet;

const NIL: u32 = u32::MAX;

/// Chunks in the slab's first segment; segment `s` holds
/// `FIRST_SEG << s`.
const FIRST_SEG: usize = 16;
/// Low bits of a chunk id: the chunk's offset within its segment.
const OFF_BITS: u32 = 27;
/// Segments in use at most: the largest, `FIRST_SEG << 23`, is exactly
/// `1 << OFF_BITS` chunks.
const MAX_SEGS: usize = 24;
/// Slots in the segment table: one per value the id's top bits can take,
/// so indexing the table never needs a bounds check (`NIL` names slot 31,
/// which stays empty, like every slot from `MAX_SEGS` up).
const SEG_SLOTS: usize = 1 << (32 - OFF_BITS);

/// Segment and offset of chunk `c`.
#[inline]
fn locate(c: u32) -> (usize, usize) {
    (
        (c >> OFF_BITS) as usize,
        (c & ((1 << OFF_BITS) - 1)) as usize,
    )
}

/// Packets per pool chunk: four 40-byte descriptors plus the link fit in
/// three cache lines, and a FIFO touches a new chunk only every fourth
/// packet.
pub const CHUNK_PKTS: usize = 4;

/// A pooled run of consecutive packets belonging to one FIFO, linked into
/// that FIFO's chunk list.
#[derive(Debug, Clone)]
struct Chunk {
    pkts: [Packet; CHUNK_PKTS],
    next: u32,
}

/// An intrusive FIFO of packets inside a [`PacketPool`]: chunk-list head
/// and tail plus the live offsets within them. Plain data — copying the
/// header without transferring ownership of the chunks is a logic error,
/// so it is deliberately not `Clone`/`Copy`.
#[derive(Debug)]
pub struct PktFifo {
    /// Chunk FIFO head/tail (`NIL` when empty).
    head: u32,
    tail: u32,
    /// First live packet within the head chunk.
    head_off: u8,
    /// Live packets within the tail chunk.
    tail_len: u8,
}

impl Default for PktFifo {
    fn default() -> Self {
        Self::new()
    }
}

impl PktFifo {
    /// An empty FIFO (owns no chunks).
    pub const fn new() -> Self {
        PktFifo {
            head: NIL,
            tail: NIL,
            head_off: 0,
            tail_len: 0,
        }
    }

    /// True when no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.head == NIL
    }
}

/// The shared chunk slab plus its free list and conservation counters.
#[derive(Debug)]
pub struct PacketPool {
    /// Geometric slab segments (see the module docs); each is allocated
    /// at its full capacity and only ever pushed into, never reallocated.
    segs: [Vec<Chunk>; SEG_SLOTS],
    /// The segment new chunks are appended to.
    grow_seg: usize,
    /// Chunks ever allocated (the slab's length across all segments).
    n_chunks: usize,
    /// Free chunks form a FIFO through `next`.
    free_head: u32,
    free_tail: u32,
    free_chunks: usize,
    live_pkts: u64,
    /// Always-on conservation accounting (plain u64 increments, kept in
    /// release builds): `allocs - frees == live_pkts` is the leak
    /// invariant [`check_conserved`](Self::check_conserved) enforces at
    /// end of run, and the peaks feed the flight-recorder counter
    /// registry.
    allocs: u64,
    frees: u64,
    live_peak: u64,
    chunk_growths: u64,
}

impl Default for PacketPool {
    fn default() -> Self {
        Self::new()
    }
}

impl PacketPool {
    /// Creates an empty pool; chunks are allocated on demand and recycled
    /// forever after.
    pub fn new() -> Self {
        PacketPool {
            segs: std::array::from_fn(|_| Vec::new()),
            grow_seg: 0,
            n_chunks: 0,
            free_head: NIL,
            free_tail: NIL,
            free_chunks: 0,
            live_pkts: 0,
            allocs: 0,
            frees: 0,
            live_peak: 0,
            chunk_growths: 0,
        }
    }

    #[inline]
    fn chunk(&self, c: u32) -> &Chunk {
        let (s, o) = locate(c);
        &self.segs[s][o]
    }

    #[inline]
    fn chunk_mut(&mut self, c: u32) -> &mut Chunk {
        let (s, o) = locate(c);
        &mut self.segs[s][o]
    }

    /// Takes a chunk off the free FIFO (or grows the slab), seeding every
    /// slot with `p` (slot 0 is the live one; the rest are overwritten as
    /// the chunk fills).
    #[inline]
    fn alloc_chunk(&mut self, p: Packet) -> u32 {
        if self.free_head != NIL {
            let c = self.free_head;
            self.free_head = self.chunk(c).next;
            if self.free_head == NIL {
                self.free_tail = NIL;
            }
            self.free_chunks -= 1;
            let chunk = self.chunk_mut(c);
            chunk.pkts[0] = p;
            chunk.next = NIL;
            c
        } else {
            self.chunk_growths += 1;
            let mut sg = self.grow_seg;
            if self.segs[sg].len() == FIRST_SEG << sg {
                sg += 1;
                assert!(sg < MAX_SEGS, "packet pool overflow");
                self.grow_seg = sg;
            }
            let seg = &mut self.segs[sg];
            if seg.is_empty() {
                seg.reserve_exact(FIRST_SEG << sg);
            }
            let c = ((sg as u32) << OFF_BITS) | seg.len() as u32;
            seg.push(Chunk {
                pkts: [p; CHUNK_PKTS],
                next: NIL,
            });
            self.n_chunks += 1;
            c
        }
    }

    /// Returns a chunk to the free FIFO. Every chunk is freed exactly
    /// once per use: only the dequeue paths below call this, always on a
    /// chunk they have just unlinked from a FIFO.
    #[inline]
    fn free_chunk(&mut self, c: u32) {
        self.chunk_mut(c).next = NIL;
        if self.free_tail == NIL {
            self.free_head = c;
        } else {
            let tail = self.free_tail;
            self.chunk_mut(tail).next = c;
        }
        self.free_tail = c;
        self.free_chunks += 1;
    }

    /// Appends `p` to the back of `f`.
    #[inline]
    pub fn push(&mut self, f: &mut PktFifo, p: Packet) {
        if f.tail != NIL && (f.tail_len as usize) < CHUNK_PKTS {
            // Fast path: room in the tail chunk.
            self.chunk_mut(f.tail).pkts[f.tail_len as usize] = p;
            f.tail_len += 1;
        } else {
            let c = self.alloc_chunk(p);
            if f.tail == NIL {
                f.head = c;
                f.head_off = 0;
            } else {
                self.chunk_mut(f.tail).next = c;
            }
            f.tail = c;
            f.tail_len = 1;
        }
        self.live_pkts += 1;
        self.allocs += 1;
        if self.live_pkts > self.live_peak {
            self.live_peak = self.live_pkts;
        }
    }

    /// The packet at the front of `f`, if any.
    #[inline]
    pub fn front<'a>(&'a self, f: &PktFifo) -> Option<&'a Packet> {
        if f.head == NIL {
            return None;
        }
        Some(&self.chunk(f.head).pkts[f.head_off as usize])
    }

    /// Removes and returns the front packet of `f`, releasing its chunk
    /// to the free list when the last live packet leaves it.
    #[inline]
    pub fn pop(&mut self, f: &mut PktFifo) -> Option<Packet> {
        if f.head == NIL {
            return None;
        }
        let head = f.head;
        let p = self.chunk(head).pkts[f.head_off as usize];
        f.head_off += 1;
        self.live_pkts -= 1;
        self.frees += 1;
        let exhausted = if f.head == f.tail {
            f.head_off == f.tail_len
        } else {
            f.head_off as usize == CHUNK_PKTS
        };
        if exhausted {
            let next = self.chunk(head).next;
            self.free_chunk(head);
            if f.head == f.tail {
                *f = PktFifo::new();
            } else {
                f.head = next;
                f.head_off = 0;
            }
        }
        Some(p)
    }

    /// Dequeues packets from the front of `f` while their cumulative size
    /// fits within `budget_bytes`, appending them to `out`. Returns the
    /// bytes drained (grant execution's budgeted dequeue, kept here so
    /// the chunk walk stays inside the pool).
    pub fn drain_budget_into(
        &mut self,
        f: &mut PktFifo,
        budget_bytes: u64,
        out: &mut Vec<Packet>,
    ) -> u64 {
        let mut head = f.head;
        if head == NIL {
            return 0;
        }
        let mut off = f.head_off;
        let tail = f.tail;
        let tail_len = f.tail_len;
        let mut used = 0u64;
        'drain: while head != NIL {
            let limit = if head == tail {
                tail_len
            } else {
                CHUNK_PKTS as u8
            };
            while off < limit {
                let pkt = self.chunk(head).pkts[off as usize];
                let b = pkt.bytes as u64;
                if used + b > budget_bytes {
                    break 'drain;
                }
                used += b;
                self.live_pkts -= 1;
                self.frees += 1;
                out.push(pkt);
                off += 1;
            }
            if head == tail {
                // Tail chunk exhausted: the FIFO is empty.
                if off == tail_len {
                    self.free_chunk(head);
                    head = NIL;
                    off = 0;
                }
                break;
            }
            let next = self.chunk(head).next;
            self.free_chunk(head);
            head = next;
            off = 0;
        }
        f.head = head;
        f.head_off = off;
        if head == NIL {
            f.tail = NIL;
            f.tail_len = 0;
        }
        used
    }

    /// Packets currently queued across every FIFO backed by this pool.
    pub fn live_packets(&self) -> u64 {
        self.live_pkts
    }

    /// Chunks currently reachable from some FIFO (not on the free list).
    pub fn chunks_in_use(&self) -> usize {
        self.n_chunks - self.free_chunks
    }

    /// Packets ever pushed into this pool.
    pub fn alloc_count(&self) -> u64 {
        self.allocs
    }

    /// Packets ever popped/drained out of this pool.
    pub fn free_count(&self) -> u64 {
        self.frees
    }

    /// High-water mark of simultaneously live packets.
    pub fn live_peak(&self) -> u64 {
        self.live_peak
    }

    /// Slab growth events (a chunk allocated because the free list was
    /// empty).
    pub fn chunk_growth_count(&self) -> u64 {
        self.chunk_growths
    }

    /// The always-on end-of-run leak check: verifies the alloc/free
    /// ledger balances against the live count, and that chunk occupancy
    /// bounds hold. Unlike
    /// [`debug_assert_conserved`](Self::debug_assert_conserved) this
    /// runs (and fails) in release builds too — a leak must error the
    /// run, not silently pass once debug assertions compile out. Returns
    /// a one-line description of the first violated invariant.
    pub fn check_conserved(&self) -> Result<(), String> {
        if self.allocs.checked_sub(self.frees) != Some(self.live_pkts) {
            return Err(format!(
                "packet pool leak: {} allocs - {} frees != {} live packets",
                self.allocs, self.frees, self.live_pkts
            ));
        }
        let in_use = self.chunks_in_use() as u64;
        if !(in_use <= self.live_pkts && self.live_pkts <= in_use * CHUNK_PKTS as u64) {
            return Err(format!(
                "packet pool occupancy violated: {} live packets across {in_use} in-use chunks",
                self.live_pkts
            ));
        }
        if self.live_pkts == 0 && in_use != 0 {
            return Err(format!(
                "packet pool leak: {in_use} chunks in use with zero live packets"
            ));
        }
        Ok(())
    }

    /// Debug-asserts occupancy conservation: every in-use chunk holds
    /// between one and [`CHUNK_PKTS`] live packets, and an empty pool has
    /// released every chunk to the free list. A chunk freed twice (or a
    /// drop path that forgot to release one) breaks these bounds. Called
    /// by the runtime once per scheduler epoch; compiles to nothing in
    /// release builds.
    #[inline]
    pub fn debug_assert_conserved(&self) {
        let in_use = self.chunks_in_use() as u64;
        debug_assert!(
            in_use <= self.live_pkts && self.live_pkts <= in_use * CHUNK_PKTS as u64,
            "pool occupancy violated: {} live packets across {} in-use chunks",
            self.live_pkts,
            in_use,
        );
        debug_assert!(
            self.live_pkts > 0 || in_use == 0,
            "pool leak: {in_use} chunks in use with zero live packets",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xds_net::{PortNo, TrafficClass};
    use xds_sim::SimTime;

    fn pkt(id: u64, bytes: u32) -> Packet {
        Packet::new(
            id,
            id,
            PortNo(0),
            PortNo(1),
            bytes,
            TrafficClass::Bulk,
            SimTime::ZERO,
            0,
        )
    }

    #[test]
    fn fifo_order_across_chunk_boundaries() {
        let mut pool = PacketPool::new();
        let mut f = PktFifo::new();
        for i in 0..11 {
            pool.push(&mut f, pkt(i, 100));
        }
        assert_eq!(pool.live_packets(), 11);
        assert_eq!(pool.chunks_in_use(), 3);
        for i in 0..11 {
            assert_eq!(pool.front(&f).unwrap().id.0, i);
            assert_eq!(pool.pop(&mut f).unwrap().id.0, i);
        }
        assert!(pool.pop(&mut f).is_none());
        assert!(f.is_empty());
        pool.debug_assert_conserved();
        assert_eq!(pool.chunks_in_use(), 0, "all chunks back on the free list");
    }

    #[test]
    fn chunks_are_recycled_not_grown() {
        let mut pool = PacketPool::new();
        let mut f = PktFifo::new();
        for round in 0..5u64 {
            for i in 0..8 {
                pool.push(&mut f, pkt(round * 8 + i, 64));
            }
            while pool.pop(&mut f).is_some() {}
        }
        assert_eq!(pool.n_chunks, 2, "slab stays at peak footprint");
        pool.debug_assert_conserved();
    }

    #[test]
    fn interleaved_fifos_do_not_cross_talk() {
        let mut pool = PacketPool::new();
        let mut a = PktFifo::new();
        let mut b = PktFifo::new();
        for i in 0..6 {
            pool.push(&mut a, pkt(i, 10));
            pool.push(&mut b, pkt(100 + i, 10));
        }
        for i in 0..6 {
            assert_eq!(pool.pop(&mut a).unwrap().id.0, i);
            assert_eq!(pool.pop(&mut b).unwrap().id.0, 100 + i);
        }
        pool.debug_assert_conserved();
    }

    #[test]
    fn conservation_ledger_balances_and_catches_leaks() {
        let mut pool = PacketPool::new();
        let mut f = PktFifo::new();
        pool.check_conserved().expect("empty pool conserves");
        for i in 0..9 {
            pool.push(&mut f, pkt(i, 100));
        }
        assert_eq!(pool.alloc_count(), 9);
        assert_eq!(pool.live_peak(), 9);
        assert_eq!(pool.chunk_growth_count(), 3, "9 packets = 3 fresh chunks");
        pool.check_conserved().expect("mid-run ledger balances");
        let mut out = Vec::new();
        pool.drain_budget_into(&mut f, u64::MAX, &mut out);
        assert_eq!(pool.free_count(), 9);
        assert_eq!(pool.live_peak(), 9, "peak survives the drain");
        pool.check_conserved().expect("drained pool conserves");
        // Re-fill reuses chunks: growth count must not move.
        for i in 0..9 {
            pool.push(&mut f, pkt(i, 100));
        }
        assert_eq!(pool.chunk_growth_count(), 3);
        assert_eq!(pool.live_peak(), 9);
        // A cooked ledger is reported, not silently accepted.
        let mut bad = PacketPool::new();
        let mut g = PktFifo::new();
        bad.push(&mut g, pkt(0, 10));
        bad.frees = 1; // simulate a free the live count never saw
        let err = bad.check_conserved().unwrap_err();
        assert!(err.contains("leak"), "{err}");
    }

    /// `(chunk_growths, allocs, frees, live_peak)` of the scripted test
    /// below, as measured on the flat single-`Vec` slab.
    const SCRIPT_LEDGER: (u64, u64, u64, u64) = (920, 20_790, 20_790, 3_664);

    /// Segments holding at least one chunk.
    fn segments(pool: &PacketPool) -> usize {
        pool.segs.iter().filter(|s| !s.is_empty()).count()
    }

    #[test]
    fn new_chunks_fill_geometric_segments_in_order() {
        assert_eq!(SEG_SLOTS, 32);
        assert_eq!(FIRST_SEG << (MAX_SEGS - 1), 1 << OFF_BITS);
        assert_eq!(locate(NIL).0, SEG_SLOTS - 1, "NIL names an unused slot");
        let mut pool = PacketPool::new();
        let mut f = PktFifo::new();
        // Chunk ids in growth order: (0, 0..16), (1, 0..32), (2, 0..64), …
        let mut want = Vec::new();
        for s in 0..5 {
            for o in 0..FIRST_SEG << s {
                want.push((s, o));
            }
        }
        let mut got = Vec::new();
        for i in 0..want.len() * CHUNK_PKTS {
            pool.push(&mut f, pkt(i as u64, 10));
            if i % CHUNK_PKTS == 0 {
                got.push(locate(f.tail));
            }
        }
        assert_eq!(got, want);
        assert_eq!(segments(&pool), 5);
        for (s, seg) in pool.segs.iter().enumerate().take(5) {
            assert!(
                seg.capacity() >= FIRST_SEG << s,
                "segment {s} allocated whole"
            );
        }
    }

    /// FIFOs whose chunk runs straddle segment boundaries (and recycle
    /// across them through the free list) keep exact order, and the
    /// occupancy audits hold at every step.
    #[test]
    fn fifos_span_segment_boundaries() {
        let mut pool = PacketPool::new();
        let mut a = PktFifo::new();
        let mut b = PktFifo::new();
        // 4 segments = 16 + 32 + 64 + 128 chunks; two interleaved FIFOs
        // alternate chunks, so each FIFO's run hops between segments.
        let n = (FIRST_SEG * 15 * CHUNK_PKTS / 2) as u64;
        for i in 0..n {
            pool.push(&mut a, pkt(i, 100));
            pool.push(&mut b, pkt(n + i, 100));
            if i % 97 == 0 {
                pool.check_conserved().expect("growing across segments");
            }
        }
        assert_eq!(segments(&pool), 4);
        assert_eq!(pool.chunks_in_use(), FIRST_SEG * 15);
        assert_eq!(pool.chunk_growth_count(), (FIRST_SEG * 15) as u64);
        // Drain `a` halfway: its chunks return to the free list and are
        // re-linked into `b`'s tail, across segments.
        for i in 0..n / 2 {
            assert_eq!(pool.pop(&mut a).unwrap().id.0, i);
        }
        let in_use = pool.chunks_in_use();
        assert_eq!(in_use, FIRST_SEG * 15 - (n / 2) as usize / CHUNK_PKTS);
        for i in 0..n / 2 {
            pool.push(&mut b, pkt(2 * n + i, 100));
        }
        assert_eq!(pool.chunks_in_use(), FIRST_SEG * 15, "recycled, not grown");
        assert_eq!(pool.chunk_growth_count(), (FIRST_SEG * 15) as u64);
        pool.check_conserved().expect("recycled across segments");
        for i in n / 2..n {
            assert_eq!(pool.front(&a).unwrap().id.0, i);
            assert_eq!(pool.pop(&mut a).unwrap().id.0, i);
        }
        let mut out = Vec::new();
        pool.drain_budget_into(&mut b, u64::MAX, &mut out);
        let ids: Vec<u64> = out.iter().map(|p| p.id.0).collect();
        let want: Vec<u64> = (n..2 * n).chain(2 * n..2 * n + n / 2).collect();
        assert_eq!(ids, want);
        assert!(a.is_empty() && b.is_empty());
        assert_eq!(pool.chunks_in_use(), 0);
        pool.check_conserved().expect("drained pool conserves");
    }

    /// A fixed push/pop script over several FIFOs, pinned to the ledger
    /// the flat (single-`Vec`) slab produced for it: segmenting the slab
    /// must not move a single counter the run reports (`pool_*` feeds
    /// pinned benchmark fingerprints).
    #[test]
    fn scripted_ledger_matches_the_flat_slab() {
        let mut pool = PacketPool::new();
        let mut fifos: Vec<PktFifo> = (0..7).map(|_| PktFifo::new()).collect();
        let mut x = 12_345u64;
        let mut id = 0u64;
        let mut out = Vec::new();
        for step in 0..40_000u64 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = x >> 33;
            let f = &mut fifos[(r % 7) as usize];
            // Push-biased for the first half (the slab grows through
            // several segments), pop-biased after (it drains and recycles).
            let push_pct = if step < 20_000 { 70 } else { 35 };
            match (r >> 8) % 100 {
                k if k < push_pct => {
                    pool.push(f, pkt(id, 64 + (r % 1400) as u32));
                    id += 1;
                }
                k if k < 95 => {
                    pool.pop(f);
                }
                _ => {
                    pool.drain_budget_into(f, (r >> 16) % 9_000, &mut out);
                }
            }
            if step % 1_000 == 0 {
                pool.check_conserved().expect("scripted ledger balances");
            }
        }
        for f in &mut fifos {
            while pool.pop(f).is_some() {}
        }
        pool.check_conserved().expect("drained");
        assert_eq!(pool.chunks_in_use(), 0);
        assert_eq!(segments(&pool), 6, "920 chunks span six segments");
        assert_eq!(
            (
                pool.chunk_growth_count(),
                pool.alloc_count(),
                pool.free_count(),
                pool.live_peak(),
            ),
            SCRIPT_LEDGER
        );
    }

    #[test]
    fn drain_budget_respects_budget_and_frees_once() {
        let mut pool = PacketPool::new();
        let mut f = PktFifo::new();
        for i in 0..5 {
            pool.push(&mut f, pkt(i, 1500));
        }
        let before_chunks = pool.chunks_in_use();
        let mut out = Vec::new();
        let used = pool.drain_budget_into(&mut f, 4000, &mut out);
        assert_eq!(used, 3000);
        assert_eq!(out.len(), 2);
        assert_eq!(pool.live_packets(), 3);
        // Draining within the head chunk frees nothing yet.
        assert_eq!(pool.chunks_in_use(), before_chunks);
        let used = pool.drain_budget_into(&mut f, u64::MAX, &mut out);
        assert_eq!(used, 4500);
        assert!(f.is_empty());
        assert_eq!(pool.chunks_in_use(), 0);
        pool.debug_assert_conserved();
        // A second drain on the empty FIFO must be a no-op, not a
        // double free.
        assert_eq!(pool.drain_budget_into(&mut f, u64::MAX, &mut out), 0);
        assert_eq!(pool.chunks_in_use(), 0);
    }
}
