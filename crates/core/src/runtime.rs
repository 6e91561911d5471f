//! The assembled testbed: an event-driven simulation of hosts, the hybrid
//! ToR switch and the scheduler.
//!
//! Data path (fast scheduling / hardware placement):
//! host NIC → switch ingress → {EPS (interactive/short) | VOQ (bulk)} →
//! grants drain VOQs onto configured circuits → destination host.
//!
//! Data path (slow scheduling / software placement):
//! bulk waits in *host* VOQs; grants travel the control channel; hosts
//! transmit into their (clock-skew-shifted) view of the slot; packets that
//! hit a dark or re-assigned circuit are synchronization violations.
//!
//! The run splits in two halves. The **coordinator** (`Coord`) owns
//! everything cross-cutting — scheduler, estimator, OCS/EPS,
//! instrumentation sinks, buffer tracker — and handles the epoch path
//! (requests → demand estimation → decomposition → grant execution,
//! Figure 2) in one place, `Coord::handle`. The **fabric** owns the
//! ports: hosts, VOQ banks and the packet pools behind them. Two fabrics
//! implement the `Fabric` trait the coordinator drives: the classic
//! single-queue `Ports` (K = 1) and the sharded core's port groups
//! (`shard.rs`, K > 1). All state is owned (no interior mutability):
//! every handler is a match arm over a private event enum.
//!
//! Metric recording is **not** inlined here: the runtime hands batched
//! [`DeliveryRecord`]s, per-epoch [`EpochSample`]s and drop events to the
//! [`Instrumentation`] bundle the simulation was built with (see
//! [`crate::instrument`]), so observables grow without touching the hot
//! path. Simulations are assembled with [`SimBuilder`], which returns a
//! typed [`BuildError`] instead of panicking on bad input.

use std::collections::VecDeque;

use xds_net::{Packet, PortNo, TrafficClass};
use xds_sim::{EventQueue, SimDuration, SimRng, SimTime, Simulation, TxTimeCache};
use xds_switch::{BufferTracker, Site};
use xds_traffic::{packet_count, FlowSpec};

use crate::config::{NodeConfig, Placement};
use crate::demand::{DemandEstimator, DemandMatrix, MirrorEstimator, SchedRequest};
use crate::fault::{FaultPlan, FaultState, SlotFault};
use crate::instrument::{
    DeliveryPath, DeliveryRecord, DeliverySink, DropCause, DropSink, EpochProbe, EpochSample,
    Instrumentation, SinkCtx, APP_FLOW_BASE,
};
use crate::node::Workload;
use crate::pool::{PacketPool, PktFifo};
use crate::processing::ProcessingLogic;
use crate::report::{EpochPhaseNs, RunReport};
use crate::sched::{Schedule, ScheduleCtx, ScheduleEntry, Scheduler};
use crate::switching::SwitchingLogic;
use crate::trace::TraceRecorder;
use xds_metrics::CounterSet;

/// The sharded parallel core (child module: its fabric plugs into the
/// same coordinator, so it shares this module's private types).
#[path = "shard.rs"]
mod shard;
pub use shard::{ShardExec, ShardMap};

/// Coordinator events: the cross-cutting half of the event set, handled
/// by [`Coord::handle`] on either fabric.
///
/// Deliberately **not** `Clone` (nor is [`Ev`]): nothing on the hot path
/// may copy an event's payload. Schedules in particular live once in the
/// coordinator's slab ([`Coord::scheds`]) and travel through the queue as
/// a plain `(sid, idx)` pair — the compiler proves no event handler
/// duplicates them.
#[derive(Debug)]
enum CoordEv {
    /// An interactive app emits its next packet.
    AppSend { app: usize },
    /// Scheduler epoch boundary: estimate demand, compute a schedule.
    EpochStart,
    /// The computed schedule (slab id `sid`) arrives (decision latency
    /// elapsed).
    ApplySchedule { sid: usize },
    /// Configure entry `idx` of schedule `sid` (OCS goes dark).
    SlotConfigure { sid: usize, idx: usize },
    /// Entry `idx` of schedule `sid` circuits are live: move granted
    /// traffic. The last entry's activation retires the slab slot.
    SlotActive { sid: usize, idx: usize },
    /// Rotate the workload's traffic matrix (E6's moving hotspot).
    RotateMatrix { idx: usize },
    /// A link-fault arrival from the armed [`FaultPlan`]: draw a victim
    /// port, mark it dark, chain the next arrival.
    LinkFault,
    /// A previously failed port repairs.
    LinkRepair { port: usize },
}

/// Events of the classic single-queue loop: the port-side events its
/// [`Classic::handle`] runs itself, plus the coordinator's.
#[derive(Debug)]
enum Ev {
    /// Inject the pending flow and pull the next one from the generator.
    NextFlow,
    /// Host NIC pump: serialize the next staged packet toward the switch.
    Pump { host: usize },
    /// A packet's last bit arrives at the switch ingress.
    SwitchIn { pkt: Packet },
    /// (Slow mode) A grant reaches a host.
    HostGrant(Grant),
    /// (Slow mode) A host-released bulk packet arrives at the switch
    /// expecting a live circuit.
    OcsIn { pkt: Packet },
    /// A coordinator event.
    Coord(CoordEv),
}

/// (Slow mode) A grant on its way to a host: transmit toward `dst` into
/// the window `[slot_start, slot_end)` as the host's skewed clock sees it.
#[derive(Debug, Clone, Copy)]
struct Grant {
    host: usize,
    dst: usize,
    slot_start: SimTime,
    slot_end: SimTime,
}

/// A flow staged whole at its source host: the NIC cuts its packets one
/// at a time, in exactly the order, sizes, ids, sequence numbers and
/// `created` stamps that materializing them at injection
/// ([`xds_traffic::packet_sizes`]) would have produced. The sharded core
/// stages flows this way, so a queued flow costs one record instead of
/// one pool slot per packet; the classic loop and slow-mode host VOQs
/// materialize a record's packets at injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StagedFlow {
    flow: u64,
    /// Id of packet `seq` is `id_base + seq` (the range is reserved at
    /// injection).
    id_base: u64,
    created: SimTime,
    bytes_left: u64,
    src: PortNo,
    dst: PortNo,
    class: TrafficClass,
    /// Full-packet size; the last packet carries whatever is left.
    mtu: u32,
    next_seq: u32,
    pkts_left: u32,
}

impl StagedFlow {
    /// Stages flow `f`, injected at `created`, as `packet_count(f.bytes,
    /// mtu)` packets (none for an empty flow).
    fn flow(f: &FlowSpec, id_base: u64, created: SimTime, mtu: u32) -> Self {
        let pkts = packet_count(f.bytes, mtu);
        StagedFlow {
            flow: f.id,
            id_base,
            created,
            bytes_left: f.bytes,
            src: f.src,
            dst: f.dst,
            class: f.class,
            mtu,
            next_seq: 0,
            pkts_left: u32::try_from(pkts).expect("flow packet count fits a u32 sequence number"),
        }
    }

    /// A one-packet record (an app send): the packet carries all `bytes`,
    /// whatever the MTU.
    fn single(id: u64, flow: u64, src: PortNo, dst: PortNo, bytes: u32, created: SimTime) -> Self {
        StagedFlow {
            flow,
            id_base: id,
            created,
            bytes_left: bytes as u64,
            src,
            dst,
            class: TrafficClass::Interactive,
            mtu: bytes,
            next_seq: 0,
            pkts_left: 1,
        }
    }

    fn is_empty(&self) -> bool {
        self.pkts_left == 0
    }
}

impl Iterator for StagedFlow {
    type Item = Packet;

    /// Cuts the next packet off the front of the record.
    #[inline]
    fn next(&mut self) -> Option<Packet> {
        if self.pkts_left == 0 {
            return None;
        }
        let size = if self.pkts_left == 1 {
            self.bytes_left as u32
        } else {
            self.mtu
        };
        let pkt = Packet::new(
            self.id_base + self.next_seq as u64,
            self.flow,
            self.src,
            self.dst,
            size,
            self.class,
            self.created,
            self.next_seq,
        );
        self.bytes_left -= size as u64;
        self.next_seq += 1;
        self.pkts_left -= 1;
        Some(pkt)
    }
}

/// Strict NIC priority rank of a class (interactive first).
fn class_rank(class: TrafficClass) -> usize {
    match class {
        TrafficClass::Interactive => 0,
        TrafficClass::Short => 1,
        TrafficClass::Bulk => 2,
    }
}

/// Per-host state. Field order is deliberate: the pump path (once per
/// packet) touches `nic_busy_until`, `pump_active` and the staging-queue
/// headers, so those lead the struct and share cache lines; the slow-
/// mode VOQ state is colder and trails.
///
/// The classic loop stages packets in its fabric's shared
/// [`PacketPool`] ([`Ports::host_pool`]): the staging queues and
/// slow-mode VOQs are 10-byte intrusive FIFO headers, so a host
/// enqueue/dequeue moves one descriptor inside the pool instead of
/// shifting a per-queue `VecDeque`, and all hosts' packets recycle
/// through one free list. The sharded core stages whole flows in
/// `staged` instead and keeps only the slow-mode VOQs pooled.
#[derive(Debug)]
struct Host {
    nic_busy_until: SimTime,
    pump_active: bool,
    /// Staging queues toward the NIC, one per class in strict priority
    /// order (classic loop).
    pkts: [PktFifo; 3],
    /// Staged flows toward the NIC, one FIFO per class in the same
    /// strict priority order (sharded core).
    staged: [VecDeque<StagedFlow>; 3],
    /// Slow mode: per-destination bulk VOQs held in host memory.
    voq: Vec<PktFifo>,
    voq_bytes: Vec<u64>,
    /// Incremental sum of `voq_bytes` (O(1) ground-truth total).
    voq_total: u64,
    voq_arrived: Vec<u64>,
    voq_dirty: Vec<bool>,
    /// Clock offset vs the switch in signed nanoseconds (slow mode).
    clock_offset_ns: i64,
}

impl Host {
    fn new(n: usize) -> Self {
        Host {
            pkts: [PktFifo::new(), PktFifo::new(), PktFifo::new()],
            staged: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            voq: (0..n).map(|_| PktFifo::new()).collect(),
            voq_bytes: vec![0; n],
            voq_total: 0,
            voq_arrived: vec![0; n],
            voq_dirty: vec![false; n],
            pump_active: false,
            nic_busy_until: SimTime::ZERO,
            clock_offset_ns: 0,
        }
    }

    /// Activates an idle NIC pump, returning when it must first run (no
    /// earlier than `now`); `None` if it already runs.
    fn wake_pump(&mut self, now: SimTime) -> Option<SimTime> {
        let idle = !std::mem::replace(&mut self.pump_active, true);
        idle.then(|| now.max(self.nic_busy_until))
    }

    /// Pops the next materialized packet, highest priority first.
    fn pop_staged(&mut self, pool: &mut PacketPool) -> Option<Packet> {
        self.pkts.iter_mut().find_map(|q| pool.pop(q))
    }

    /// Queues a staged record behind its class (an empty one stages
    /// nothing).
    fn stage(&mut self, rec: StagedFlow) {
        if !rec.is_empty() {
            self.staged[class_rank(rec.class)].push_back(rec);
        }
    }

    /// Cuts the next packet from the highest-priority staged record,
    /// retiring the record with its last packet.
    #[inline]
    fn cut_staged(&mut self) -> Option<Packet> {
        let q = self.staged.iter_mut().find(|q| !q.is_empty())?;
        let rec = q.front_mut().expect("non-empty");
        let pkt = rec.next();
        if rec.is_empty() {
            q.pop_front();
        }
        pkt
    }

    /// Slow mode: parks a gated packet in the VOQ toward its destination
    /// until a grant releases it.
    fn hold(&mut self, pool: &mut PacketPool, pkt: Packet) {
        let (d, bytes) = (pkt.dst.index(), pkt.bytes as u64);
        pool.push(&mut self.voq[d], pkt);
        self.voq_bytes[d] += bytes;
        self.voq_total += bytes;
        self.voq_arrived[d] += bytes;
        self.voq_dirty[d] = true;
    }

    /// Appends a request per VOQ changed since the last epoch (this host
    /// is global port `src`), in ascending destination order.
    fn take_requests(&mut self, src: usize, now: SimTime, out: &mut Vec<SchedRequest>) {
        for d in 0..self.voq_dirty.len() {
            if self.voq_dirty[d] {
                self.voq_dirty[d] = false;
                out.push(SchedRequest {
                    src,
                    dst: d,
                    queued_bytes: self.voq_bytes[d],
                    arrived_bytes_total: self.voq_arrived[d],
                    at: now,
                });
            }
        }
    }

    /// Writes this host's VOQ occupancy into row `src` of `out`.
    fn occupancy_row_into(&self, src: usize, out: &mut DemandMatrix) {
        for (d, &bytes) in self.voq_bytes.iter().enumerate() {
            out.set(src, d, bytes);
        }
    }

    /// Transmits what fits of the VOQ toward `g.dst` into the grant's
    /// window as this host's skewed clock sees it (§2's synchronization
    /// argument), starting no earlier than `now` and the NIC. `sent` sees
    /// each released packet with its departure time.
    fn send_granted(
        &mut self,
        pool: &mut PacketPool,
        host_tx: &mut TxTimeCache,
        now: SimTime,
        g: Grant,
        mut sent: impl FnMut(Packet, SimTime),
    ) {
        let (start_seen, end_seen) = (self.actual_time(g.slot_start), self.actual_time(g.slot_end));
        let dst = g.dst;
        let mut cursor = now.max(start_seen).max(self.nic_busy_until);
        while let Some(front) = pool.front(&self.voq[dst]) {
            let bytes = front.bytes as u64;
            let tx = host_tx.tx_time(bytes);
            if cursor + tx > end_seen {
                break;
            }
            let pkt = pool.pop(&mut self.voq[dst]).expect("peeked");
            let dep = cursor + tx;
            cursor = dep;
            self.voq_bytes[dst] -= bytes;
            self.voq_total -= bytes;
            self.voq_dirty[dst] = true;
            sent(pkt, dep);
        }
        self.nic_busy_until = self.nic_busy_until.max(cursor);
    }

    /// The actual (switch-clock) instant at which this host's clock reads
    /// the given switch-time `t`: a host whose clock runs ahead acts
    /// early.
    fn actual_time(&self, t: SimTime) -> SimTime {
        let off = self.clock_offset_ns;
        if off >= 0 {
            SimTime::from_nanos(t.as_nanos().saturating_sub(off as u64))
        } else {
            t + SimDuration::from_nanos(off.unsigned_abs())
        }
    }
}

/// The port side of a run — hosts, VOQ banks and the packet pools behind
/// them — as the coordinator drives it. Two implementations, statically
/// dispatched: the classic single-queue [`Ports`] and the sharded core's
/// port groups. `hw` selects the fast-mode (switch VOQ) or slow-mode
/// (host VOQ) view wherever the two differ.
trait Fabric {
    /// The queue coordinator events travel on.
    type Queue;

    /// Schedules coordinator event `ev` at `at` from a handler running at
    /// `now`.
    fn post(q: &mut Self::Queue, at: SimTime, now: SimTime, ev: CoordEv);

    /// Per-epoch pool-boundary audit (debug builds only).
    fn audit_epoch(&self);

    /// Replaces `out` with every request raised since the last epoch, in
    /// global `(src, dst)` order — a full-fabric row-major scan's order.
    fn requests_into(&mut self, hw: bool, now: SimTime, out: &mut Vec<SchedRequest>);

    /// Total queued bytes (the ground-truth backlog).
    fn backlog(&self, hw: bool) -> u64;

    /// Writes the per-pair queued bytes into `out`.
    fn occupancy_into(&self, hw: bool, out: &mut DemandMatrix);

    /// Grant execution: pops up to `budget` bytes of VOQ `(i, j)` into
    /// `out`.
    fn dequeue_upto_into(&mut self, i: usize, j: usize, budget: u64, out: &mut Vec<Packet>);

    /// (Slow mode) Delivers a grant to its host at `at`.
    fn send_grant(&mut self, q: &mut Self::Queue, at: SimTime, now: SimTime, g: Grant);

    /// (Slow mode) Parks a gated app packet in its host's VOQ.
    fn hold_at_host(&mut self, pkt: Packet);

    /// Stages an app send at its source host and wakes the NIC.
    fn stage_app(&mut self, q: &mut Self::Queue, now: SimTime, rec: StagedFlow);

    /// End of run: audits the fabric's pools (panicking on a leak — a
    /// runtime bug no report may paper over) and folds its queue and pool
    /// ledgers into `counters`.
    fn finish(&self, counters: &mut CounterSet);
}

/// Coordinator-only state: everything cross-cutting, shared by both
/// fabrics.
struct Coord {
    cfg: NodeConfig,
    horizon: SimTime,
    is_hw: bool,
    ctrl_oneway: SimDuration,

    scheduler: Box<dyn Scheduler>,
    estimator: Box<dyn DemandEstimator>,

    flowgen: Option<xds_traffic::FlowGenerator>,
    pending_flow: Option<FlowSpec>,
    flow_stop: SimTime,
    apps: Vec<xds_traffic::CbrApp>,
    matrix_cycle: Option<crate::node::MatrixCycle>,

    switching: SwitchingLogic,
    buffers: BufferTracker,
    rng: SimRng,

    /// Fault-injection state, present only when the build armed a
    /// [`FaultPlan`] with at least one simulation-domain family. `None`
    /// means strictly zero cost: no RNG fork at build, no draws, no
    /// extra events — the no-fault event sequence is byte-identical to
    /// a build that predates the fault subsystem.
    faults: Option<FaultState>,

    /// Whether the estimator provably mirrors true occupancy (resolved
    /// once at construction): the epoch loop then skips the ground-truth
    /// snapshot and L1 pass — the error sample is identically zero.
    estimator_is_mirror: bool,

    /// Slab of in-flight schedules: events carry `(sid, idx)` instead of
    /// cloning the schedule through the queue. A slot is allocated when a
    /// decision lands, freed after its last entry's activation; freed ids
    /// are recycled so the slab stays as small as the number of schedules
    /// simultaneously in flight (≥ 2 only when decision latency overlaps
    /// the next epoch).
    scheds: Vec<Option<Schedule>>,
    free_scheds: Vec<usize>,

    /// One-entry serialization memo for the OCS circuit rate: grant
    /// bursts repeat the MTU size, so the hot path skips a division per
    /// packet.
    line_tx: TxTimeCache,

    // Epoch-loop scratch buffers, reused so the per-epoch path performs
    // no `n²`-sized allocations.
    demand_scratch: DemandMatrix,
    truth_scratch: DemandMatrix,
    reqs_scratch: Vec<SchedRequest>,
    grant_scratch: Vec<Packet>,
    /// `(release_ns, bytes)` pairs collected across one slot's grant
    /// bursts and flushed to the buffer tracker in one batch: the pairs
    /// of a slot serialize near-identical MTU ladders from the same
    /// instant, so their releases coalesce by timestamp before touching
    /// the radix queue (at 256 ports the per-packet inserts and their
    /// drain traffic were ~8% of the point).
    release_scratch: Vec<(u64, u64)>,

    // Core accounting the runtime always keeps exact, under every
    // instrumentation profile: these O(1) adds define the run's identity
    // (events and delivered bytes must match across profiles).
    next_pkt_id: u64,
    offered_bytes: u64,
    offered_flows: u64,
    delivered_ocs: u64,
    delivered_eps: u64,
    decisions: u64,
    decision_ns_sum: u128,

    // Pluggable observation (see `crate::instrument`). The capability
    // flags are resolved once at build so the per-packet path tests a
    // bool, never a vtable.
    delivery_sink: Box<dyn DeliverySink>,
    epoch_probe: Box<dyn EpochProbe>,
    drop_sink: Box<dyn DropSink>,
    /// Cached `delivery_sink.wants_batches()`.
    want_deliveries: bool,
    /// Cached `epoch_probe.wants_demand_error()`.
    want_demand_error: bool,
    /// Whether buffer-peak accounting (the radix release queue) runs.
    track_buffers: bool,
    /// Delivery records accumulated across one grant burst (or one EPS /
    /// slow-mode delivery) and flushed to the sink as a single batch.
    delivery_scratch: Vec<DeliveryRecord>,

    /// Wall-clock split of the epoch path (estimate / decompose /
    /// apply), accumulated with `Instant` around the three phases. The
    /// clock is read a handful of times per *epoch* (not per event), so
    /// the instrumentation is invisible next to the phases it measures.
    phases: EpochPhaseNs,

    /// Deterministic internal counters, merged from the scheduler's
    /// per-epoch observability deltas as the run goes and from the
    /// event queues / packet pool ledgers at the end. Plain u64 adds,
    /// always on.
    counters: CounterSet,
    /// The flight recorder, present only when the build requested
    /// tracing. Span recording reuses the phase-accounting `Instant`s
    /// the runtime reads anyway, so `None` means strictly zero extra
    /// clock reads on the hot path.
    trace: Option<TraceRecorder>,
}

impl Coord {
    fn gated(&self, class: TrafficClass) -> bool {
        class == TrafficClass::Bulk || (self.cfg.voip_on_ocs && class == TrafficClass::Interactive)
    }

    /// Books a delivery: the exact byte counters update inline (they are
    /// profile-invariant), the observation — latency, jitter, FCT — is
    /// deferred into the burst batch handed to the delivery sink by
    /// [`flush_deliveries`](Self::flush_deliveries).
    fn record_delivery(&mut self, pkt: &Packet, at: SimTime, via: DeliveryPath) {
        match via {
            DeliveryPath::Ocs => self.delivered_ocs += pkt.bytes as u64,
            DeliveryPath::Eps => self.delivered_eps += pkt.bytes as u64,
        }
        if self.want_deliveries {
            self.delivery_scratch.push(DeliveryRecord {
                flow: pkt.flow,
                bytes: pkt.bytes,
                class: pkt.class,
                created: pkt.created,
                delivered: at,
                via,
            });
        }
    }

    /// Hands the accumulated burst to the delivery sink (one virtual
    /// call per grant burst, not per packet) and resets the scratch.
    fn flush_deliveries(&mut self) {
        if !self.delivery_scratch.is_empty() {
            self.counters.delivery_batches += 1;
            self.delivery_sink.on_batch(&self.delivery_scratch);
            self.delivery_scratch.clear();
        }
    }

    /// Books a flow as offered at injection.
    fn offer_flow(&mut self, f: &FlowSpec, now: SimTime) {
        self.offered_bytes += f.bytes;
        self.offered_flows += 1;
        self.delivery_sink.on_flow_started(f.id, f.bytes, now);
    }

    /// A non-gated packet reaches the switch ingress at `now`: EPS
    /// admission, delivered or dropped on a full buffer.
    fn eps_arrival(&mut self, pkt: &Packet, now: SimTime) {
        match self
            .switching
            .eps
            .enqueue(pkt.dst.index(), pkt.bytes as u64, now)
        {
            Ok(dep) => {
                let deliver = dep + self.cfg.host_link.propagation;
                self.record_delivery(pkt, deliver, DeliveryPath::Eps);
                self.flush_deliveries();
            }
            Err(()) => self.drop_sink.on_drop(DropCause::EpsFull, now),
        }
    }

    /// (Slow mode) A host-released packet reaches the switch at `now`
    /// expecting a live circuit.
    fn ocs_arrival(&mut self, pkt: &Packet, now: SimTime) {
        let (i, j, bytes) = (pkt.src.index(), pkt.dst.index(), pkt.bytes as u64);
        if self.faults.as_ref().is_some_and(|fs| fs.pair_failed(i, j)) {
            // The link died while the packet was in flight: the light
            // went into a dark fiber.
            self.drop_sink.on_drop(DropCause::LinkDark, now);
            return;
        }
        match self.switching.ocs.transmit(i, j, bytes, now) {
            Ok(()) => {
                let deliver = now + self.cfg.host_link.propagation;
                self.record_delivery(pkt, deliver, DeliveryPath::Ocs);
                self.flush_deliveries();
            }
            // Dark window or re-assigned circuit: the light went nowhere
            // useful.
            Err(_) => self.drop_sink.on_drop(DropCause::SyncViolation, now),
        }
    }

    /// Draws the generator's first flow into `pending_flow`, returning
    /// its start if it is due at all.
    fn draw_first_flow(&mut self) -> Option<SimTime> {
        let f = self.flowgen.as_mut()?.next_flow();
        (f.start <= self.flow_stop).then(|| {
            let start = f.start;
            self.pending_flow = Some(f);
            start
        })
    }

    /// Seeds the coordinator events every run starts with, in the order
    /// both fabrics rely on: apps, the matrix rotation, the scheduler
    /// cadence, then the fault chain when a plan is armed.
    fn seed<F: Fabric>(&mut self, q: &mut F::Queue) {
        let t0 = SimTime::ZERO;
        for (i, a) in self.apps.iter().enumerate() {
            F::post(q, a.start, t0, CoordEv::AppSend { app: i });
        }
        if let Some(cycle) = &self.matrix_cycle {
            F::post(q, t0 + cycle.period, t0, CoordEv::RotateMatrix { idx: 1 });
        }
        F::post(q, t0, t0, CoordEv::EpochStart);
        if let Some(fs) = &mut self.faults {
            if let Some(at) = fs.first_fault_at() {
                F::post(q, at, t0, CoordEv::LinkFault);
            }
        }
    }

    /// Parks a freshly-decided schedule in the slab, returning its id.
    fn alloc_sched(&mut self, sched: Schedule) -> usize {
        match self.free_scheds.pop() {
            Some(sid) => {
                debug_assert!(self.scheds[sid].is_none(), "slab slot still live");
                self.scheds[sid] = Some(sched);
                sid
            }
            None => {
                self.scheds.push(Some(sched));
                self.scheds.len() - 1
            }
        }
    }

    /// Handles one coordinator event — the single implementation both
    /// fabrics run (the sharded core calls it at barriers, when the
    /// coordinator owns every shard).
    fn handle<F: Fabric>(&mut self, fab: &mut F, q: &mut F::Queue, now: SimTime, ev: CoordEv) {
        match ev {
            CoordEv::AppSend { app } => {
                let a = self.apps[app].clone();
                let mut rec = StagedFlow::single(
                    self.next_pkt_id,
                    APP_FLOW_BASE + app as u64,
                    a.src,
                    a.dst,
                    a.pkt_bytes,
                    now,
                );
                self.next_pkt_id += 1;
                self.offered_bytes += a.pkt_bytes as u64;
                if self.gated(TrafficClass::Interactive) && !self.is_hw {
                    // voip_on_ocs ablation under slow scheduling: the call
                    // waits in host memory like any elephant.
                    fab.hold_at_host(rec.next().expect("one packet"));
                    if self.track_buffers {
                        self.buffers.on_enqueue(Site::Host, a.pkt_bytes as u64, now);
                    }
                } else {
                    fab.stage_app(q, now, rec);
                }
                let next = a.next_send(now, &mut self.rng);
                if next <= self.horizon {
                    F::post(q, next, now, CoordEv::AppSend { app });
                }
            }

            CoordEv::EpochStart => self.epoch(fab, q, now),

            CoordEv::ApplySchedule { sid } => {
                F::post(q, now, now, CoordEv::SlotConfigure { sid, idx: 0 });
            }

            CoordEv::SlotConfigure { sid, idx } => {
                // Reconfiguration misfire: the configure may apply late
                // (the dark window stretches) or not at all (the stale
                // permutation stays up for the whole slot).
                let slot_fault = match &mut self.faults {
                    Some(fs) => fs.draw_misfire(),
                    None => SlotFault::None,
                };
                if slot_fault != SlotFault::None {
                    self.counters.fault_events_injected += 1;
                }
                if slot_fault == SlotFault::Stale {
                    self.faults
                        .as_mut()
                        .expect("stale draw implies a plan")
                        .mark_stale(sid, idx);
                }
                let entry = &self.scheds[sid]
                    .as_ref()
                    .expect("schedule slot live")
                    .entries[idx];
                let active_at = match slot_fault {
                    SlotFault::None => self.switching.configure(&entry.perm, now),
                    SlotFault::Late(extra) => self.switching.configure(&entry.perm, now + extra),
                    // No configure happened: the slot "activates" on the
                    // nominal timeline, against the stale permutation.
                    SlotFault::Stale => now + self.cfg.reconfig,
                };
                let slot_end = active_at + entry.slot;
                if !self.is_hw && slot_fault != SlotFault::Stale {
                    // Grants travel the control channel to the hosts. The
                    // advertised window is shrunk by the guard band on
                    // both edges so a host whose clock is wrong by up to
                    // `guard` still lands inside the live circuit.
                    let g = self.cfg.guard;
                    let gs = active_at + g;
                    let ge = SimTime::from_nanos(slot_end.as_nanos().saturating_sub(g.as_nanos()));
                    if ge > gs {
                        for (i, j) in entry.perm.pairs() {
                            let grant = Grant {
                                host: i,
                                dst: j,
                                slot_start: gs,
                                slot_end: ge,
                            };
                            fab.send_grant(q, now + self.ctrl_oneway, now, grant);
                        }
                    }
                }
                F::post(q, active_at, now, CoordEv::SlotActive { sid, idx });
            }

            CoordEv::SlotActive { sid, idx } => {
                // Move the schedule out of the slab for the duration of
                // the grant burst (record_delivery needs `&mut self`),
                // and retire the slot after the last entry.
                let sched = self.scheds[sid].take().expect("schedule slot live");
                let entry = &sched.entries[idx];
                let slot_end = now + entry.slot;
                // A stale slot's configure never applied: every granted
                // pair fails over. A faulted pair fails over alone.
                let stale = match &mut self.faults {
                    Some(fs) => fs.take_stale(sid, idx),
                    None => false,
                };
                if self.is_hw {
                    self.apply(fab, entry, idx, stale, now);
                }
                if idx + 1 < sched.entries.len() {
                    self.scheds[sid] = Some(sched);
                    F::post(
                        q,
                        slot_end,
                        now,
                        CoordEv::SlotConfigure { sid, idx: idx + 1 },
                    );
                } else {
                    self.free_scheds.push(sid);
                }
            }

            CoordEv::RotateMatrix { idx } => {
                if let (Some(cycle), Some(g)) = (&self.matrix_cycle, &mut self.flowgen) {
                    g.set_matrix(cycle.matrices[idx % cycle.matrices.len()].clone());
                    let next = now + cycle.period;
                    if next <= self.horizon {
                        F::post(q, next, now, CoordEv::RotateMatrix { idx: idx + 1 });
                    }
                }
            }

            CoordEv::LinkFault => {
                let fs = self.faults.as_mut().expect("LinkFault implies a plan");
                let (port, repair_at, next) = fs.on_link_fault(now);
                if let Some(at) = repair_at {
                    self.counters.fault_events_injected += 1;
                    F::post(q, at, now, CoordEv::LinkRepair { port });
                }
                if let Some(at) = next {
                    if at <= self.horizon {
                        F::post(q, at, now, CoordEv::LinkFault);
                    }
                }
            }

            CoordEv::LinkRepair { port } => {
                self.faults
                    .as_mut()
                    .expect("LinkRepair implies a plan")
                    .on_link_repair(port, now);
            }
        }
    }

    /// An epoch boundary (Figure 2): requests → demand estimation →
    /// algorithm, then the decision is scheduled to land after its
    /// placement's latency.
    fn epoch<F: Fabric>(&mut self, fab: &mut F, q: &mut F::Queue, now: SimTime) {
        // xlint: allow(wall-clock) — epoch phase-timing split (RunReport::phases): host-time observability, excluded from golden serialization
        let phase_t0 = std::time::Instant::now();
        // Pool-boundary audit, once per epoch: every chunk in a host pool
        // is on the free list or reachable from exactly one staging queue
        // / VOQ (the switch-side pools assert the same inside
        // `take_requests_into`). Free in release builds.
        fab.audit_epoch();
        // Requests, demand and ground truth all land in reused scratch
        // buffers: this loop runs every epoch and must not make n²-sized
        // allocations.
        let mut reqs = std::mem::take(&mut self.reqs_scratch);
        fab.requests_into(self.is_hw, now, &mut reqs);
        for r in &reqs {
            self.estimator.on_request(r);
        }
        self.reqs_scratch = reqs;
        // Estimators that keep the estimate materialized (the mirror)
        // lend it out via `estimate_ref`; only the ones that must compute
        // one fill the scratch matrix. The lent reference is stable
        // within the epoch, so it is re-borrowed wherever the estimate is
        // read.
        let have_ref = self.estimator.estimate_ref(now, self.cfg.epoch).is_some();
        if !have_ref {
            self.estimator
                .estimate_into(now, self.cfg.epoch, &mut self.demand_scratch);
        }
        // Demand-error sampling. The ground-truth backlog (the
        // EpochSample observable) is always available cheaply. The
        // mirror's error is identically zero by construction (every
        // occupancy change produced a request), and the non-mirror
        // ground-truth snapshot + L1 pass (two n² walks) runs only when
        // the epoch probe wants the sample — the lean profile declines
        // it.
        let truth_total = fab.backlog(self.is_hw);
        let mut demand_err_rel: Option<f64> = None;
        if self.estimator_is_mirror {
            if truth_total > 0 {
                demand_err_rel = Some(0.0);
            }
        } else if self.want_demand_error {
            fab.occupancy_into(self.is_hw, &mut self.truth_scratch);
            let estimate = match self.estimator.estimate_ref(now, self.cfg.epoch) {
                Some(m) => m,
                None => &self.demand_scratch,
            };
            let (err_l1, tt) = estimate.error_vs(&self.truth_scratch);
            debug_assert_eq!(tt, truth_total, "snapshot disagrees with running total");
            if truth_total > 0 {
                demand_err_rel = Some(err_l1 as f64 / truth_total as f64);
            }
        }
        let ctx = ScheduleCtx {
            now,
            line_rate: self.cfg.line_rate,
            reconfig: self.cfg.reconfig,
            epoch: self.cfg.epoch,
            max_entries: self.cfg.max_entries,
        };
        let demand = match self.estimator.estimate_ref(now, self.cfg.epoch) {
            Some(m) => m,
            None => &self.demand_scratch,
        };
        // Graceful degradation: while ports are dark to injected faults,
        // the scheduler sees their rows/columns zeroed — it never plans
        // circuits through a dead link.
        let demand = match &mut self.faults {
            Some(fs) if fs.n_failed > 0 => fs.mask_demand(demand),
            _ => demand,
        };
        // xlint: allow(wall-clock) — phase-timing block boundary (estimate → decompose), never serialized into goldens
        let phase_t1 = std::time::Instant::now();
        self.phases.estimate += phase_t1.duration_since(phase_t0).as_nanos() as u64;
        let sched = self.scheduler.schedule(demand, &ctx);
        // xlint: allow(wall-clock) — phase-timing block boundary (decompose end), never serialized into goldens
        let phase_t2 = std::time::Instant::now();
        self.phases.decompose += phase_t2.duration_since(phase_t1).as_nanos() as u64;
        if let Some(obs) = self.scheduler.take_obs() {
            let c = &mut self.counters;
            c.sched_memo_hits += obs.memo_hits;
            c.sched_hk_runs += obs.hk_runs;
            c.sched_probes += obs.probes;
            c.sched_worklist_peak = c.sched_worklist_peak.max(obs.worklist_len);
            c.sched_bucket_peak = c.sched_bucket_peak.max(obs.buckets_len);
            if let Some(tr) = &mut self.trace {
                for s in &obs.spans {
                    tr.span_between("sched", s.name, s.start, s.end, &[s.arg]);
                }
            }
        }
        if let Some(tr) = &mut self.trace {
            // The epoch span and its two phase children reuse the
            // phase-accounting instants read above — tracing adds no
            // clock reads here, on or off.
            let entries = sched.entries.len() as u64;
            tr.span_between(
                "epoch",
                "epoch",
                phase_t0,
                phase_t2,
                &[("epoch", self.decisions)],
            );
            tr.span_between("epoch", "estimate", phase_t0, phase_t1, &[]);
            tr.span_between(
                "epoch",
                "decompose",
                phase_t1,
                phase_t2,
                &[("entries", entries)],
            );
        }
        debug_assert!(
            sched.validate(&ctx, self.cfg.n_ports).is_ok(),
            "{} produced an invalid schedule",
            self.scheduler.name()
        );
        let mut d = self
            .cfg
            .placement
            .decision_latency(self.cfg.n_ports, &mut self.rng);
        // Scheduler stall: the decision arrives k epochs late and the
        // fabric coasts on the previous schedule meanwhile.
        if let Some(fs) = &mut self.faults {
            if let Some(extra) = fs.draw_stall(self.cfg.epoch) {
                d += extra;
                self.counters.fault_events_injected += 1;
            }
        }
        self.decisions += 1;
        self.decision_ns_sum += d.as_nanos() as u128;
        self.epoch_probe.on_epoch(&EpochSample {
            // One sample per decision: `decisions` was just incremented,
            // so the zero-based epoch id is one source of truth, not a
            // second counter.
            epoch: self.decisions - 1,
            at: now,
            demand_err_rel,
            backlog_bytes: truth_total,
            decision_ns: d.as_nanos(),
            ocs_dark_ns: self.switching.ocs.stats().dark_time.as_nanos(),
            entries: sched.entries.len(),
        });
        if !sched.entries.is_empty() {
            let sid = self.alloc_sched(sched);
            F::post(q, now + d, now, CoordEv::ApplySchedule { sid });
        }
        let next = now + self.cfg.epoch.max(d);
        if next <= self.horizon {
            F::post(q, next, now, CoordEv::EpochStart);
        }
    }

    /// (Fast mode) Grant execution for slot `idx`: budgeted dequeue of
    /// every granted pair, packets serialized at line rate onto the
    /// circuit — or diverted onto the EPS when the slot is `stale` or
    /// the circuit faulted.
    fn apply<F: Fabric>(
        &mut self,
        fab: &mut F,
        entry: &ScheduleEntry,
        idx: usize,
        stale: bool,
        now: SimTime,
    ) {
        // xlint: allow(wall-clock) — apply phase-timing block start (RunReport::phases), excluded from golden serialization
        let phase_t0 = std::time::Instant::now();
        let budget = self.cfg.line_rate.bytes_in(entry.slot);
        let mut granted = std::mem::take(&mut self.grant_scratch);
        for (i, j) in entry.perm.pairs() {
            granted.clear();
            fab.dequeue_upto_into(i, j, budget, &mut granted);
            if granted.is_empty() {
                continue;
            }
            // With faults armed, stall-delayed schedules can overlap: a
            // later schedule's configure may have darkened or re-aimed
            // the fabric mid-slot, so the fault path probes the circuit
            // where the clean path may assert it.
            let diverted = stale
                || self.faults.as_ref().is_some_and(|fs| fs.pair_failed(i, j))
                || (self.faults.is_some() && self.switching.ocs.output_for(i, now) != Some(j));
            if diverted {
                // Graceful degradation: the granted burst cannot ride the
                // circuit (dark link or stale permutation) — divert it
                // onto the EPS slow path packet by packet instead of
                // losing it.
                for pkt in granted.drain(..) {
                    let bytes = pkt.bytes as u64;
                    if self.track_buffers {
                        // The bytes leave the VOQ now either way (EPS
                        // keeps its own ledger).
                        self.release_scratch.push((now.as_nanos(), bytes));
                    }
                    match self.switching.eps.enqueue(j, bytes, now) {
                        Ok(dep) => {
                            self.counters.fault_failover_bytes += bytes;
                            let deliver = dep + self.cfg.host_link.propagation;
                            self.record_delivery(&pkt, deliver, DeliveryPath::Eps);
                        }
                        Err(()) => self.drop_sink.on_drop(DropCause::EpsFull, now),
                    }
                }
                continue;
            }
            // xlint: allow(wall-clock) — flight-recorder grant-burst span start, gated on trace; wall-clock stays out of goldens
            let burst_t0 = self.trace.is_some().then(std::time::Instant::now);
            let npkts = granted.len() as u64;
            self.counters.grant_bursts += 1;
            self.counters.grant_pkts_max = self.counters.grant_pkts_max.max(npkts);
            // One circuit validation per burst (identical accounting to
            // per-packet transmits).
            let total: u64 = granted.iter().map(|p| p.bytes as u64).sum();
            self.switching
                .ocs
                .transmit_batch(i, j, total, npkts, now)
                .expect("granted circuit must be live");
            let mut cursor = now;
            for pkt in granted.drain(..) {
                let bytes = pkt.bytes as u64;
                let dep = cursor + self.line_tx.tx_time(bytes);
                cursor = dep;
                if self.track_buffers {
                    self.release_scratch.push((dep.as_nanos(), bytes));
                }
                let deliver = dep + self.cfg.host_link.propagation;
                self.record_delivery(&pkt, deliver, DeliveryPath::Ocs);
            }
            if let (Some(t0), Some(tr)) = (burst_t0, &mut self.trace) {
                tr.span_between(
                    "slot",
                    "grant_burst",
                    t0,
                    // xlint: allow(wall-clock) — flight-recorder span end, trace-gated
                    std::time::Instant::now(),
                    &[("pkts", npkts)],
                );
            }
        }
        // All pairs drained the same slot: flush their releases as one
        // timestamp-coalesced batch, and the slot's deliveries as one
        // sink batch.
        if self.track_buffers {
            let mut releases = std::mem::take(&mut self.release_scratch);
            self.buffers
                .on_dequeue_at_batch(Site::Switch, &mut releases);
            self.release_scratch = releases;
        }
        self.flush_deliveries();
        self.grant_scratch = granted;
        // xlint: allow(wall-clock) — apply phase-timing block end (RunReport::phases), excluded from golden serialization
        let phase_t1 = std::time::Instant::now();
        self.phases.apply += phase_t1.duration_since(phase_t0).as_nanos() as u64;
        if let Some(tr) = &mut self.trace {
            // Reuses the apply-phase instants: the slot span nests the
            // grant-burst spans recorded above.
            tr.span_between(
                "epoch",
                "apply",
                phase_t0,
                phase_t1,
                &[("entry", idx as u64)],
            );
        }
    }
}

/// The classic K = 1 fabric: every host, one shared host pool and the
/// full `n × n` VOQ bank, all driven from the single event queue.
struct Ports {
    hosts: Vec<Host>,
    /// Shared chunk pool backing every host's staging queues and VOQs.
    host_pool: PacketPool,
    proc: ProcessingLogic,
    /// One-entry serialization memo for the host NIC rate (packet streams
    /// repeat the MTU size, so the pump skips a division per packet).
    host_tx: TxTimeCache,
}

impl Ports {
    fn ensure_pump(&mut self, q: &mut EventQueue<Ev>, host: usize) {
        if let Some(at) = self.hosts[host].wake_pump(q.now()) {
            q.schedule_at(at, Ev::Pump { host });
        }
    }

    /// Materializes every packet of `f` at its source host: gated bulk
    /// into the host VOQs (slow mode), the rest into the NIC's class
    /// queues.
    fn inject_flow(&mut self, co: &mut Coord, q: &mut EventQueue<Ev>, now: SimTime, f: FlowSpec) {
        co.offer_flow(&f, now);
        let host = f.src.index();
        let rec = StagedFlow::flow(&f, co.next_pkt_id, now, co.cfg.mtu);
        co.next_pkt_id += rec.pkts_left as u64;
        let h = &mut self.hosts[host];
        if co.gated(f.class) && !co.is_hw {
            // Slow scheduling: bulk waits in host memory for a grant.
            for pkt in rec {
                let bytes = pkt.bytes as u64;
                h.hold(&mut self.host_pool, pkt);
                if co.track_buffers {
                    co.buffers.on_enqueue(Site::Host, bytes, now);
                }
            }
        } else {
            let fifo = &mut h.pkts[class_rank(f.class)];
            for pkt in rec {
                self.host_pool.push(fifo, pkt);
            }
        }
        self.ensure_pump(q, host);
    }
}

impl Fabric for Ports {
    type Queue = EventQueue<Ev>;

    fn post(q: &mut EventQueue<Ev>, at: SimTime, _now: SimTime, ev: CoordEv) {
        q.schedule_at(at, Ev::Coord(ev));
    }

    fn audit_epoch(&self) {
        self.host_pool.debug_assert_conserved();
    }

    fn requests_into(&mut self, hw: bool, now: SimTime, out: &mut Vec<SchedRequest>) {
        out.clear();
        if hw {
            self.proc.take_requests_into(now, out);
        } else {
            for (src, h) in self.hosts.iter_mut().enumerate() {
                h.take_requests(src, now, out);
            }
        }
    }

    fn backlog(&self, hw: bool) -> u64 {
        if hw {
            self.proc.total_bytes()
        } else {
            self.hosts.iter().map(|h| h.voq_total).sum()
        }
    }

    fn occupancy_into(&self, hw: bool, out: &mut DemandMatrix) {
        if hw {
            self.proc.occupancy_into(out);
        } else {
            for (src, h) in self.hosts.iter().enumerate() {
                h.occupancy_row_into(src, out);
            }
        }
    }

    fn dequeue_upto_into(&mut self, i: usize, j: usize, budget: u64, out: &mut Vec<Packet>) {
        self.proc.dequeue_upto_into(i, j, budget, out);
    }

    fn send_grant(&mut self, q: &mut EventQueue<Ev>, at: SimTime, _now: SimTime, g: Grant) {
        q.schedule_at(at, Ev::HostGrant(g));
    }

    fn hold_at_host(&mut self, pkt: Packet) {
        self.hosts[pkt.src.index()].hold(&mut self.host_pool, pkt);
    }

    fn stage_app(&mut self, q: &mut EventQueue<Ev>, _now: SimTime, mut rec: StagedFlow) {
        let host = rec.src.index();
        let pkt = rec.next().expect("one packet");
        self.host_pool.push(&mut self.hosts[host].pkts[0], pkt);
        self.ensure_pump(q, host);
    }

    fn finish(&self, c: &mut CounterSet) {
        if let Err(e) = self.host_pool.check_conserved() {
            panic!("end-of-run host pool audit failed: {e}");
        }
        if let Err(e) = self.proc.check_pool_conserved() {
            panic!("end-of-run switch pool audit failed: {e}");
        }
        let (allocs, frees, peak, growths) = self.proc.pool_ledger();
        c.pool_allocs = self.host_pool.alloc_count() + allocs;
        c.pool_frees = self.host_pool.free_count() + frees;
        // Sum of per-pool high-water marks (the pools never trade
        // packets, so the sum is a deterministic combined ceiling).
        c.pool_live_peak = self.host_pool.live_peak() + peak;
        c.pool_chunk_growths = self.host_pool.chunk_growth_count() + growths;
    }
}

/// The classic single-queue run: the coordinator and the [`Ports`]
/// fabric it drives, under one event loop.
struct Classic {
    co: Coord,
    fab: Ports,
}

impl Classic {
    /// Runs the port-side events and hands coordinator events to
    /// [`Coord::handle`].
    fn handle(st: &mut Classic, q: &mut EventQueue<Ev>, now: SimTime, ev: Ev) {
        let Classic { co, fab } = st;
        match ev {
            Ev::NextFlow => {
                if let Some(f) = co.pending_flow.take() {
                    fab.inject_flow(co, q, now, f);
                }
                if let Some(g) = &mut co.flowgen {
                    let f = g.next_flow();
                    if f.start <= co.flow_stop && f.start <= co.horizon {
                        q.schedule_at(f.start, Ev::NextFlow);
                        co.pending_flow = Some(f);
                    }
                }
            }

            Ev::Pump { host } => {
                let h = &mut fab.hosts[host];
                if now < h.nic_busy_until {
                    // A grant burst claimed the NIC; come back when free.
                    q.schedule_at(h.nic_busy_until, Ev::Pump { host });
                    return;
                }
                let Some(pkt) = h.pop_staged(&mut fab.host_pool) else {
                    h.pump_active = false;
                    return;
                };
                let tx = fab.host_tx.tx_time(pkt.bytes as u64);
                h.nic_busy_until = now + tx;
                q.schedule_at(
                    now + tx + co.cfg.host_link.propagation,
                    Ev::SwitchIn { pkt },
                );
                q.schedule_at(now + tx, Ev::Pump { host });
            }

            Ev::SwitchIn { pkt } => {
                if co.gated(pkt.class) {
                    debug_assert!(co.is_hw, "slow mode gates bulk at hosts");
                    let bytes = pkt.bytes as u64;
                    match fab.proc.enqueue(pkt) {
                        Ok(()) => {
                            if co.track_buffers {
                                co.buffers.on_enqueue(Site::Switch, bytes, now);
                            }
                        }
                        Err(_) => co.drop_sink.on_drop(DropCause::VoqFull, now),
                    }
                } else {
                    co.eps_arrival(&pkt, now);
                }
            }

            Ev::HostGrant(g) => {
                let prop = co.cfg.host_link.propagation;
                let (buffers, track) = (&mut co.buffers, co.track_buffers);
                let h = &mut fab.hosts[g.host];
                h.send_granted(&mut fab.host_pool, &mut fab.host_tx, now, g, |pkt, dep| {
                    if track {
                        buffers.on_dequeue_at(Site::Host, pkt.bytes as u64, dep);
                    }
                    q.schedule_at(dep + prop, Ev::OcsIn { pkt });
                });
            }

            Ev::OcsIn { pkt } => co.ocs_arrival(&pkt, now),

            Ev::Coord(ev) => co.handle(fab, q, now, ev),
        }
    }
}

/// Why a simulation could not be assembled. Returned (typed, never
/// panicked) by [`SimBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The configuration failed [`NodeConfig::validate`].
    InvalidConfig(String),
    /// The workload's traffic matrix spans a different port space than
    /// the switch.
    PortSpaceMismatch {
        /// Port count of the workload's traffic matrix.
        workload_ports: usize,
        /// Port count of the switch configuration.
        switch_ports: usize,
    },
    /// An interactive app names an endpoint outside the switch's ports.
    AppEndpointOutOfRange {
        /// Index of the offending app in the workload.
        app: usize,
        /// The app's source port.
        src: usize,
        /// The app's destination port.
        dst: usize,
        /// Port count of the switch configuration.
        switch_ports: usize,
    },
    /// No scheduler was supplied to the builder.
    MissingScheduler,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
            BuildError::PortSpaceMismatch {
                workload_ports,
                switch_ports,
            } => write!(
                f,
                "workload port count mismatch: workload spans {workload_ports} ports, \
                 switch has {switch_ports}"
            ),
            BuildError::AppEndpointOutOfRange {
                app,
                src,
                dst,
                switch_ports,
            } => write!(
                f,
                "app endpoints out of range: app {app} uses {src} -> {dst} on a \
                 {switch_ports}-port switch"
            ),
            BuildError::MissingScheduler => {
                write!(f, "no scheduler supplied (SimBuilder::scheduler)")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Assembles a [`HybridSim`]: configuration, workload, scheduling logic
/// and an [`Instrumentation`] bundle, validated into a typed
/// [`BuildError`] instead of a panic.
///
/// ```
/// use xds_core::config::NodeConfig;
/// use xds_core::runtime::SimBuilder;
/// use xds_core::sched::IslipScheduler;
/// use xds_hw::{HwAlgo, HwSchedulerModel};
/// use xds_sim::SimDuration;
///
/// let n = 4;
/// let cfg = NodeConfig::fast(
///     n,
///     SimDuration::from_nanos(100),
///     HwSchedulerModel::netfpga_sume(HwAlgo::Islip { iterations: 3 }),
/// );
/// let sim = SimBuilder::new(cfg)
///     .scheduler(Box::new(IslipScheduler::new(n, 3)))
///     .build()
///     .expect("valid configuration");
/// # let _ = sim;
/// ```
pub struct SimBuilder {
    cfg: NodeConfig,
    workload: Workload,
    scheduler: Option<Box<dyn Scheduler>>,
    estimator: Option<Box<dyn DemandEstimator>>,
    instr: Instrumentation,
    trace: bool,
    shards: usize,
    shard_map: Option<ShardMap>,
    shard_exec: ShardExec,
    faults: Option<FaultPlan>,
}

impl SimBuilder {
    /// Starts a build from a configuration. Defaults: an empty workload,
    /// a [`MirrorEstimator`] sized to the switch, full-fidelity
    /// instrumentation, and **no scheduler** (one must be supplied).
    pub fn new(cfg: NodeConfig) -> Self {
        SimBuilder {
            cfg,
            workload: Workload::apps_only(Vec::new()),
            scheduler: None,
            estimator: None,
            instr: Instrumentation::full(),
            trace: false,
            shards: 1,
            shard_map: None,
            shard_exec: ShardExec::Auto,
            faults: None,
        }
    }

    /// Arms a fault-injection plan (defaults to none). An inactive plan
    /// (no family armed) is treated exactly like no plan: the build
    /// forks no fault RNG and the event sequence is unchanged.
    pub fn faults(mut self, plan: Option<FaultPlan>) -> Self {
        self.faults = plan;
        self
    }

    /// Splits the fabric into `k` contiguous port-group shards (defaults
    /// to 1 — the classic single-queue core, bit-for-bit unchanged).
    /// `k > 1` runs the sharded core, which reproduces the classic
    /// core's events, bytes and behavioral counters exactly (see
    /// [`crate::runtime::ShardMap`] and the shard module docs for the
    /// determinism contract).
    pub fn shards(mut self, k: usize) -> Self {
        self.shards = k.max(1);
        self
    }

    /// Supplies an explicit port→shard assignment instead of the
    /// contiguous default split (overrides [`shards`](Self::shards)).
    pub fn shard_map(mut self, map: ShardMap) -> Self {
        self.shard_map = Some(map);
        self
    }

    /// How shard windows execute (defaults to [`ShardExec::Auto`]:
    /// worker threads when the machine has more than one CPU, inline
    /// otherwise). Results are identical in every mode.
    pub fn shard_execution(mut self, exec: ShardExec) -> Self {
        self.shard_exec = exec;
        self
    }

    /// Sets the workload (background flows + interactive apps).
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Sets the scheduling algorithm (required).
    pub fn scheduler(mut self, scheduler: Box<dyn Scheduler>) -> Self {
        self.scheduler = Some(scheduler);
        self
    }

    /// Sets the demand estimator (defaults to the exact occupancy
    /// mirror).
    pub fn estimator(mut self, estimator: Box<dyn DemandEstimator>) -> Self {
        self.estimator = Some(estimator);
        self
    }

    /// Sets the instrumentation bundle (defaults to
    /// [`Instrumentation::full`]).
    pub fn instrumentation(mut self, instr: Instrumentation) -> Self {
        self.instr = instr;
        self
    }

    /// Enables the flight recorder (defaults to off). When on, the run
    /// captures wall-clock spans for the epoch phases, scheduler
    /// internals and slot grant bursts, and the report carries their
    /// Chrome Trace Event JSON in
    /// [`RunReport::chrome_trace`](crate::report::RunReport::chrome_trace).
    /// When off, no recorder exists and the hot path performs no extra
    /// clock reads or allocations — simulated behavior is identical
    /// either way.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Validates and assembles the simulation.
    pub fn build(self) -> Result<HybridSim, BuildError> {
        let SimBuilder {
            cfg,
            workload,
            scheduler,
            estimator,
            mut instr,
            trace,
            shards,
            shard_map,
            shard_exec,
            faults,
        } = self;
        cfg.validate().map_err(BuildError::InvalidConfig)?;
        let n = cfg.n_ports;
        let shard_map = match shard_map {
            Some(m) => {
                if m.ports() != n {
                    return Err(BuildError::InvalidConfig(format!(
                        "shard map covers {} ports, switch has {n}",
                        m.ports()
                    )));
                }
                (m.k() > 1).then_some(m)
            }
            None => (shards > 1).then(|| ShardMap::contiguous(n, shards)),
        };
        if let Some(g) = &workload.flows {
            if g.matrix().n() != n {
                return Err(BuildError::PortSpaceMismatch {
                    workload_ports: g.matrix().n(),
                    switch_ports: n,
                });
            }
        }
        for (i, a) in workload.apps.iter().enumerate() {
            if a.src.index() >= n || a.dst.index() >= n {
                return Err(BuildError::AppEndpointOutOfRange {
                    app: i,
                    src: a.src.index(),
                    dst: a.dst.index(),
                    switch_ports: n,
                });
            }
        }
        let mut scheduler = scheduler.ok_or(BuildError::MissingScheduler)?;
        if trace {
            scheduler.set_trace(true);
        }
        let estimator = estimator.unwrap_or_else(|| Box::new(MirrorEstimator::new(n)));

        let mut rng = SimRng::new(cfg.seed);
        let (is_hw, ctrl_oneway) = match &cfg.placement {
            Placement::Hardware(_) => (true, SimDuration::ZERO),
            Placement::Software { ctrl_oneway, .. } => (false, *ctrl_oneway),
        };
        let mut hosts: Vec<Host> = (0..n).map(|_| Host::new(n)).collect();
        if let Placement::Software { sync, .. } = &cfg.placement {
            let mut sync_rng = rng.fork();
            for h in &mut hosts {
                h.clock_offset_ns = sync.sample_offset_ns(&mut sync_rng);
            }
        }
        if let Some(p) = &faults {
            if p.harness_panic {
                // Chaos knob for sweep-harness isolation tests: a
                // deliberate, deterministic panic inside the build path.
                panic!("deliberate fault-plan harness panic (FaultPlan::with_harness_panic)");
            }
        }
        // The fault RNG forks only when a plan is armed, so the no-fault
        // RNG streams (and therefore every golden trace) are untouched.
        let faults = faults
            .filter(|p| p.is_active())
            .map(|p| FaultState::new(p, rng.fork(), n));
        instr.delivery.bind(&SinkCtx {
            n_ports: n,
            n_apps: workload.apps.len(),
        });
        let want_deliveries = instr.delivery.wants_batches();
        let want_demand_error = instr.epoch.wants_demand_error();
        let estimator_is_mirror = estimator.mirrors_occupancy();
        // The classic fabric (with its full-fabric VOQ bank) is built
        // here; a sharded run partitions the hosts when it starts.
        let core = match shard_map {
            Some(map) => Core::Sharded(hosts, map, shard_exec),
            None => Core::Classic(Box::new(Ports {
                hosts,
                host_pool: PacketPool::new(),
                proc: ProcessingLogic::new(n, cfg.voq_capacity),
                host_tx: cfg.host_link.rate.tx_cache(),
            })),
        };
        let co = Coord {
            switching: SwitchingLogic::new(n, cfg.reconfig, cfg.eps_rate, cfg.eps_buffer),
            buffers: BufferTracker::new(),
            horizon: SimTime::MAX,
            is_hw,
            ctrl_oneway,
            scheduler,
            estimator,
            flowgen: workload.flows,
            pending_flow: None,
            flow_stop: workload.flow_stop,
            apps: workload.apps,
            matrix_cycle: workload.matrix_cycle,
            rng,
            faults,
            estimator_is_mirror,
            scheds: Vec::new(),
            free_scheds: Vec::new(),
            line_tx: cfg.line_rate.tx_cache(),
            // Tracked: estimators with exact zero cells clear and fill
            // it by worklist, and sparse-aware schedulers read the
            // support instead of re-scanning n² cells per epoch.
            demand_scratch: DemandMatrix::zero_tracked(n),
            truth_scratch: DemandMatrix::zero(n),
            reqs_scratch: Vec::new(),
            grant_scratch: Vec::new(),
            release_scratch: Vec::new(),
            next_pkt_id: 0,
            offered_bytes: 0,
            offered_flows: 0,
            delivered_ocs: 0,
            delivered_eps: 0,
            decisions: 0,
            decision_ns_sum: 0,
            delivery_sink: instr.delivery,
            epoch_probe: instr.epoch,
            drop_sink: instr.drops,
            want_deliveries,
            want_demand_error,
            track_buffers: instr.track_buffers,
            delivery_scratch: Vec::new(),
            phases: EpochPhaseNs::default(),
            counters: CounterSet::default(),
            trace: trace.then(TraceRecorder::new),
            cfg,
        };
        Ok(HybridSim { co, core })
    }
}

/// Which exact core a [`HybridSim`] runs on.
enum Core {
    /// The classic single-queue loop (K = 1).
    Classic(Box<Ports>),
    /// The sharded core (K > 1): every port's host, clock offsets drawn,
    /// waiting to be partitioned.
    Sharded(Vec<Host>, ShardMap, ShardExec),
}

/// The assembled simulation: configuration + workload + scheduling logic.
pub struct HybridSim {
    co: Coord,
    core: Core,
}

impl HybridSim {
    /// Starts a [`SimBuilder`] from a configuration.
    pub fn builder(cfg: NodeConfig) -> SimBuilder {
        SimBuilder::new(cfg)
    }

    /// Runs the testbed until `horizon` and returns the report.
    pub fn run(self, horizon: SimTime) -> RunReport {
        let HybridSim { mut co, core } = self;
        co.horizon = horizon;
        let fab = match core {
            Core::Classic(fab) => *fab,
            Core::Sharded(hosts, map, exec) => return shard::run_sharded(co, hosts, map, exec),
        };
        let mut sim = Simulation::new();
        // Seed: first flow, then the coordinator's events.
        if let Some(start) = co.draw_first_flow() {
            sim.queue.schedule_at(start, Ev::NextFlow);
        }
        co.seed::<Ports>(&mut sim.queue);
        let mut st = Classic { co, fab };
        let stats = sim.run_until(&mut st, horizon, Classic::handle);
        st.co
            .into_report(&st.fab, &sim.queue, stats.events_processed, stats.end_time)
    }
}

impl Coord {
    /// Final audits + report assembly, shared by both fabrics: folds the
    /// coordinator queue's ledger and the fabric's (see
    /// [`Fabric::finish`]) into the counter registry first.
    fn into_report<F: Fabric, E>(
        mut self,
        fab: &F,
        q: &EventQueue<E>,
        events: u64,
        end_time: SimTime,
    ) -> RunReport {
        let horizon = self.horizon;
        debug_assert!(
            self.delivery_scratch.is_empty(),
            "every handler flushes its delivery batch"
        );
        self.counters.queue_spreads = q.spread_count();
        self.counters.queue_spills = q.spill_count();
        self.counters.queue_direct_sorts = q.direct_sort_count();
        fab.finish(&mut self.counters);
        let delivery = self.delivery_sink.finish();
        let epoch = self.epoch_probe.finish();
        let drops = self.drop_sink.finish();
        // Close a still-open degraded interval at the run boundary and
        // harvest the fault/drop ledgers into the counter registry (the
        // per-cause tallies ride `--counters` output this way).
        let fault_degraded_ns = match &mut self.faults {
            Some(fs) => fs.finalize_degraded_ns(end_time.max(horizon)),
            None => 0,
        };
        let c = &mut self.counters;
        c.fault_degraded_ns_max = c.fault_degraded_ns_max.max(fault_degraded_ns);
        c.drop_voq_full = drops.voq_full;
        c.drop_eps_full = drops.eps_full;
        c.drop_sync_violation = drops.sync_violation;
        c.drop_link_dark = drops.link_dark;
        RunReport {
            scheduler: self.scheduler.name().to_string(),
            placement: self.cfg.placement.label().to_string(),
            horizon: end_time
                .saturating_since(SimTime::ZERO)
                .max(horizon.saturating_since(SimTime::ZERO)),
            events,
            offered_bytes: self.offered_bytes,
            offered_flows: self.offered_flows,
            completed_flows: delivery.completed_flows,
            delivered_ocs_bytes: self.delivered_ocs,
            delivered_eps_bytes: self.delivered_eps,
            latency_interactive: delivery.latency_interactive,
            latency_short: delivery.latency_short,
            latency_bulk: delivery.latency_bulk,
            voip_jitter_mean_ns: delivery.voip_jitter_mean_ns,
            voip_jitter_max_ns: delivery.voip_jitter_max_ns,
            fct_mice: delivery.fct_mice,
            fct_medium: delivery.fct_medium,
            fct_elephant: delivery.fct_elephant,
            fct_overall: delivery.fct_overall,
            peak_host_buffer: self.buffers.peak(Site::Host),
            peak_switch_buffer: self.buffers.peak(Site::Switch),
            drops,
            ocs: self.switching.ocs.stats(),
            eps: self.switching.eps.stats(),
            decisions: self.decisions,
            decision_latency_mean_ns: if self.decisions == 0 {
                0.0
            } else {
                self.decision_ns_sum as f64 / self.decisions as f64
            },
            demand_error_mean: epoch.demand_error_mean,
            fault_degraded_ns,
            fault_failover_bytes: self.counters.fault_failover_bytes,
            phases: self.phases,
            timeseries: epoch.series,
            counters: self.counters,
            chrome_trace: self.trace.map(|t| t.to_chrome_json()),
            measured_deliveries: self.want_deliveries,
            measured_buffers: self.track_buffers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::MirrorEstimator;
    use crate::sched::{EpsOnlyScheduler, HotspotScheduler, IslipScheduler};
    use xds_hw::{HwAlgo, HwSchedulerModel, SwSchedulerModel};
    use xds_net::PortNo;
    use xds_sim::BitRate;
    use xds_traffic::{packet_sizes, CbrApp, FlowGenerator, FlowSizeDist, TrafficMatrix};

    /// Test shorthand over [`SimBuilder`] (the positional shape the old
    /// constructor had).
    fn sim(
        cfg: NodeConfig,
        workload: Workload,
        scheduler: Box<dyn Scheduler>,
        estimator: Box<dyn DemandEstimator>,
    ) -> HybridSim {
        SimBuilder::new(cfg)
            .workload(workload)
            .scheduler(scheduler)
            .estimator(estimator)
            .build()
            .expect("test sim must build")
    }

    fn flow(id: u64, bytes: u64, class: TrafficClass) -> FlowSpec {
        FlowSpec {
            id,
            src: PortNo(2),
            dst: PortNo(5),
            bytes,
            start: SimTime::from_nanos(700),
            class,
        }
    }

    /// Cuts a staged flow to the end, checking every packet against what
    /// materializing it at injection would have produced.
    fn cut_all_matches_packetization(bytes: u64, mtu: u32) -> Vec<u32> {
        let f = flow(9, bytes, TrafficClass::Bulk);
        let created = SimTime::from_nanos(1_234);
        let rec = StagedFlow::flow(&f, 500, created, mtu);
        assert_eq!(rec.pkts_left as u64, packet_count(bytes, mtu));
        let cut: Vec<Packet> = rec.collect();
        let want: Vec<Packet> = packet_sizes(bytes, mtu)
            .enumerate()
            .map(|(seq, size)| {
                Packet::new(
                    500 + seq as u64,
                    9,
                    f.src,
                    f.dst,
                    size,
                    f.class,
                    created,
                    seq as u32,
                )
            })
            .collect();
        assert_eq!(cut, want);
        cut.iter().map(|p| p.bytes).collect()
    }

    #[test]
    fn staged_flow_of_exact_mtu_multiple_cuts_full_packets() {
        assert_eq!(cut_all_matches_packetization(4_500, 1_500), [1_500; 3]);
    }

    #[test]
    fn staged_flow_cuts_a_short_tail_last() {
        assert_eq!(
            cut_all_matches_packetization(3_100, 1_500),
            [1_500, 1_500, 100]
        );
        assert_eq!(cut_all_matches_packetization(999, 1_500), [999]);
    }

    #[test]
    fn single_packet_record_ignores_the_mtu() {
        let rec = StagedFlow::single(
            77,
            APP_FLOW_BASE,
            PortNo(1),
            PortNo(3),
            9_000,
            SimTime::from_nanos(5),
        );
        let pkts: Vec<Packet> = rec.collect();
        assert_eq!(pkts.len(), 1);
        let p = pkts[0];
        assert_eq!((p.id.0, p.bytes, p.seq), (77, 9_000, 0));
        assert_eq!(p.class, TrafficClass::Interactive);
        // A zero-byte app send is still one packet, as at injection.
        let empty = StagedFlow::single(78, APP_FLOW_BASE, PortNo(1), PortNo(3), 0, SimTime::ZERO);
        assert_eq!(empty.map(|p| p.bytes).collect::<Vec<_>>(), [0]);
    }

    #[test]
    fn zero_byte_flow_stages_nothing() {
        let mut h = Host::new(8);
        let rec = StagedFlow::flow(&flow(1, 0, TrafficClass::Short), 0, SimTime::ZERO, 1_500);
        assert!(rec.is_empty());
        h.stage(rec);
        assert!(h.staged.iter().all(|q| q.is_empty()));
        assert_eq!(h.cut_staged(), None);
    }

    /// Strict priority holds between records: an interactive send staged
    /// mid-flow is cut next, and the pre-empted bulk flow then resumes at
    /// its next sequence number.
    #[test]
    fn interactive_record_preempts_a_flow_mid_cut() {
        let mut h = Host::new(8);
        h.stage(StagedFlow::flow(
            &flow(4, 6_000, TrafficClass::Bulk),
            100,
            SimTime::ZERO,
            1_500,
        ));
        h.stage(StagedFlow::flow(
            &flow(5, 2_000, TrafficClass::Short),
            200,
            SimTime::ZERO,
            1_500,
        ));
        let key = |p: Packet| (p.flow, p.seq, p.bytes);
        assert_eq!(h.cut_staged().map(key), Some((5, 0, 1_500)));
        assert_eq!(h.cut_staged().map(key), Some((5, 1, 500)));
        assert_eq!(h.cut_staged().map(key), Some((4, 0, 1_500)));
        h.stage(StagedFlow::single(
            300,
            APP_FLOW_BASE,
            PortNo(2),
            PortNo(6),
            200,
            SimTime::from_nanos(9),
        ));
        assert_eq!(h.cut_staged().map(key), Some((APP_FLOW_BASE, 0, 200)));
        let rest: Vec<_> = std::iter::from_fn(|| h.cut_staged()).map(key).collect();
        assert_eq!(rest, [(4, 1, 1_500), (4, 2, 1_500), (4, 3, 1_500)]);
        assert!(h.staged.iter().all(|q| q.is_empty()), "records retire");
    }

    fn hw_cfg(n: usize) -> NodeConfig {
        NodeConfig::fast(
            n,
            SimDuration::from_nanos(100),
            HwSchedulerModel::netfpga_sume(HwAlgo::Islip { iterations: 3 }),
        )
    }

    fn flows(n: usize, load: f64, seed: u64) -> Workload {
        Workload::flows(FlowGenerator::with_load(
            TrafficMatrix::uniform(n),
            FlowSizeDist::Fixed(150_000), // bulk-class flows
            load,
            BitRate::GBPS_10,
            SimRng::new(seed),
        ))
    }

    fn run_fast(n: usize, load: f64, ms: u64) -> RunReport {
        let cfg = hw_cfg(n);
        sim(
            cfg,
            flows(n, load, 7),
            Box::new(IslipScheduler::new(n, 3)),
            Box::new(MirrorEstimator::new(n)),
        )
        .run(SimTime::from_millis(ms))
    }

    #[test]
    fn fast_mode_delivers_most_offered_bytes() {
        let r = run_fast(4, 0.4, 5);
        assert!(r.offered_bytes > 0);
        let gp = r.goodput_fraction();
        assert!(
            gp > 0.8,
            "goodput {gp} ({:?} of {})",
            r.delivered_bytes(),
            r.offered_bytes
        );
        assert_eq!(r.drops.sync_violation, 0, "hardware mode cannot misfire");
        assert!(r.decisions > 0);
        assert!(r.ocs.rejected == 0, "granted transmissions must be legal");
    }

    #[test]
    fn bulk_rides_ocs_not_eps_in_fast_mode() {
        let r = run_fast(4, 0.4, 5);
        assert!(
            r.delivered_ocs_bytes > 10 * r.delivered_eps_bytes,
            "bulk flows should ride circuits: ocs={} eps={}",
            r.delivered_ocs_bytes,
            r.delivered_eps_bytes
        );
        assert!(r.peak_switch_buffer > 0, "fast mode buffers in the switch");
        assert_eq!(r.peak_host_buffer, 0, "fast mode keeps host buffers empty");
    }

    #[test]
    fn eps_only_baseline_uses_no_circuits() {
        let n = 4;
        let cfg = hw_cfg(n);
        let r = sim(
            cfg,
            flows(n, 0.2, 9),
            Box::new(EpsOnlyScheduler::new()),
            Box::new(MirrorEstimator::new(n)),
        )
        .run(SimTime::from_millis(2));
        assert_eq!(r.delivered_ocs_bytes, 0);
        assert_eq!(r.ocs.reconfigurations, 0);
        // The undersized EPS (1 Gb/s/port) chokes on bulk: VOQs fill and
        // overflow since nothing drains them.
        assert!(r.drops.voq_full > 0 || r.peak_switch_buffer > 0);
    }

    #[test]
    fn voip_over_eps_has_low_latency_in_fast_mode() {
        let n = 4;
        let cfg = hw_cfg(n);
        // Accelerated CBR streams (500 µs interval) so a short run still
        // sees many packets.
        let mk = |id, s, d| {
            let mut a = CbrApp::voip(id, PortNo(s), PortNo(d), SimTime::ZERO);
            a.interval = SimDuration::from_micros(500);
            a
        };
        let apps = vec![mk(0, 0, 1), mk(1, 2, 3)];
        let r = sim(
            cfg,
            flows(n, 0.3, 11).with_apps(apps),
            Box::new(IslipScheduler::new(n, 3)),
            Box::new(MirrorEstimator::new(n)),
        )
        .run(SimTime::from_millis(20));
        assert!(
            r.latency_interactive.count() >= 60,
            "both calls flowed: {}",
            r.latency_interactive.count()
        );
        // EPS at 1 Gb/s: a 200 B packet takes ~1.6 µs + queue; p99 should
        // be well under a millisecond when the EPS isn't overloaded.
        assert!(
            r.latency_interactive.p99() < 1_000_000,
            "p99 {}ns",
            r.latency_interactive.p99()
        );
        assert!(r.voip_jitter_mean_ns.is_some());
    }

    #[test]
    fn slow_mode_buffers_at_hosts_and_works_with_good_sync() {
        let n = 4;
        let mut cfg = NodeConfig::slow(
            n,
            SimDuration::from_micros(100),
            SwSchedulerModel::tuned_userspace(),
        );
        cfg.epoch = SimDuration::from_millis(1);
        cfg.seed = 3;
        // Perfect sync first: no violations expected.
        if let Placement::Software { sync, .. } = &mut cfg.placement {
            *sync = xds_hw::SyncModel::perfect();
        }
        let r = sim(
            cfg,
            flows(n, 0.3, 13),
            Box::new(HotspotScheduler::new(10_000)),
            Box::new(MirrorEstimator::new(n)),
        )
        .run(SimTime::from_millis(20));
        assert!(r.peak_host_buffer > 0, "slow mode buffers at hosts");
        assert_eq!(r.peak_switch_buffer, 0, "no switch VOQs in slow mode");
        assert!(r.delivered_ocs_bytes > 0, "grants must move bulk");
        assert_eq!(
            r.drops.sync_violation, 0,
            "perfect sync ⇒ no dark-window hits"
        );
    }

    #[test]
    fn clock_skew_causes_sync_violations_in_slow_mode() {
        let n = 4;
        let mut cfg = NodeConfig::slow(
            n,
            SimDuration::from_micros(50),
            SwSchedulerModel::tuned_userspace(),
        );
        cfg.epoch = SimDuration::from_millis(1);
        cfg.seed = 5;
        if let Placement::Software { sync, .. } = &mut cfg.placement {
            // Skew comparable to the dark window: edges will be clipped.
            *sync = xds_hw::SyncModel {
                skew_bound: SimDuration::from_micros(40),
                drift_ppb: 0,
                resync_interval: SimDuration::from_secs(1),
            };
        }
        let r = sim(
            cfg,
            flows(n, 0.5, 17),
            Box::new(HotspotScheduler::new(10_000)),
            Box::new(MirrorEstimator::new(n)),
        )
        .run(SimTime::from_millis(20));
        assert!(
            r.drops.sync_violation > 0,
            "µs-scale skew must clip slot edges"
        );
    }

    #[test]
    fn guard_band_absorbs_clock_skew() {
        // The E8 mitigation: with a guard band at least as large as the
        // worst-case offset (plus propagation), the same skew that causes
        // violations produces none — at the cost of shortened slots.
        let n = 4;
        let mk = |guard_us: u64| {
            let mut cfg = NodeConfig::slow(
                n,
                SimDuration::from_micros(50),
                SwSchedulerModel::tuned_userspace(),
            );
            cfg.epoch = SimDuration::from_millis(1);
            cfg.seed = 5;
            cfg.guard = SimDuration::from_micros(guard_us);
            if let Placement::Software { sync, .. } = &mut cfg.placement {
                *sync = xds_hw::SyncModel {
                    skew_bound: SimDuration::from_micros(40),
                    drift_ppb: 0,
                    resync_interval: SimDuration::from_secs(1),
                };
            }
            sim(
                cfg,
                flows(n, 0.5, 17),
                Box::new(HotspotScheduler::new(10_000)),
                Box::new(MirrorEstimator::new(n)),
            )
            .run(SimTime::from_millis(20))
        };
        let unguarded = mk(0);
        let guarded = mk(45);
        assert!(
            unguarded.drops.sync_violation > 0,
            "skew must bite without guard"
        );
        assert_eq!(guarded.drops.sync_violation, 0, "guard ≥ skew absorbs it");
        // The protection costs circuit capacity.
        assert!(
            guarded.delivered_ocs_bytes
                <= unguarded.delivered_ocs_bytes + unguarded.drops.sync_violation * 9000
        );
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let a = run_fast(4, 0.5, 3);
        let b = run_fast(4, 0.5, 3);
        assert_eq!(a.delivered_ocs_bytes, b.delivered_ocs_bytes);
        assert_eq!(a.delivered_eps_bytes, b.delivered_eps_bytes);
        assert_eq!(a.events, b.events);
        assert_eq!(a.offered_flows, b.offered_flows);
        assert_eq!(a.latency_bulk.p99(), b.latency_bulk.p99());
    }

    #[test]
    fn flow_stop_caps_injection() {
        let n = 4;
        let cfg = hw_cfg(n);
        let w = flows(n, 0.5, 19).with_flow_stop(SimTime::from_micros(100));
        let r = sim(
            cfg,
            w,
            Box::new(IslipScheduler::new(n, 3)),
            Box::new(MirrorEstimator::new(n)),
        )
        .run(SimTime::from_millis(5));
        assert!(r.offered_flows > 0);
        // All offered flows get plenty of drain time: everything delivers.
        assert!(r.goodput_fraction() > 0.99, "{}", r.goodput_fraction());
        assert_eq!(r.completed_flows, r.offered_flows);
    }

    #[test]
    fn matrix_rotation_changes_traffic_mid_run() {
        let n = 4;
        let cfg = hw_cfg(n);
        // Start with all traffic on pair (0→1); rotate to (2→3) after 1 ms.
        let m1 = TrafficMatrix::from_weights(n, {
            let mut w = vec![0.0; 16];
            w[1] = 1.0; // 0 -> 1
            w
        })
        .unwrap();
        let m2 = TrafficMatrix::from_weights(n, {
            let mut w = vec![0.0; 16];
            w[2 * 4 + 3] = 1.0; // 2 -> 3
            w
        })
        .unwrap();
        let gen = FlowGenerator::with_load(
            m1.clone(),
            FlowSizeDist::Fixed(150_000),
            0.2,
            BitRate::GBPS_10,
            SimRng::new(23),
        );
        let w = Workload::flows(gen).with_matrix_cycle(SimDuration::from_millis(1), vec![m2, m1]);
        let r = sim(
            cfg,
            w,
            Box::new(IslipScheduler::new(n, 3)),
            Box::new(MirrorEstimator::new(n)),
        )
        .run(SimTime::from_millis(4));
        // Both permutations' circuits must have been configured at some
        // point: reconfigurations > 2 and bytes flowed.
        assert!(r.delivered_ocs_bytes > 0);
        assert!(r.ocs.reconfigurations > 2);
    }

    #[test]
    fn voip_on_ocs_ablation_gates_interactive_in_fast_mode() {
        let n = 4;
        let mk = |gated: bool| {
            let mut cfg = hw_cfg(n);
            cfg.voip_on_ocs = gated;
            let mut app = CbrApp::voip(0, PortNo(0), PortNo(2), SimTime::ZERO);
            app.interval = SimDuration::from_micros(200);
            sim(
                cfg,
                Workload::apps_only(vec![app]),
                Box::new(IslipScheduler::new(n, 3)),
                Box::new(MirrorEstimator::new(n)),
            )
            .run(SimTime::from_millis(10))
        };
        let normal = mk(false);
        let gated = mk(true);
        assert!(normal.latency_interactive.count() > 0);
        assert!(gated.latency_interactive.count() > 0);
        // Gated packets wait for epoch grants: p50 latency must be much
        // larger than the EPS path's.
        assert!(
            gated.latency_interactive.p50() > 2 * normal.latency_interactive.p50(),
            "gated {} vs normal {}",
            gated.latency_interactive.p50(),
            normal.latency_interactive.p50()
        );
        assert!(gated.delivered_ocs_bytes > 0, "gated voip rides circuits");
        assert_eq!(normal.delivered_ocs_bytes, 0, "ungated voip rides the EPS");
    }

    #[test]
    fn slow_mode_conserves_bytes_with_perfect_sync() {
        let n = 4;
        let mut cfg = NodeConfig::slow(
            n,
            SimDuration::from_micros(100),
            SwSchedulerModel::tuned_userspace(),
        );
        cfg.epoch = SimDuration::from_millis(1);
        if let Placement::Software { sync, .. } = &mut cfg.placement {
            *sync = xds_hw::SyncModel::perfect();
        }
        let w = flows(n, 0.2, 37).with_flow_stop(SimTime::from_millis(3));
        let r = sim(
            cfg,
            w,
            Box::new(HotspotScheduler::new(10_000)),
            Box::new(MirrorEstimator::new(n)),
        )
        .run(SimTime::from_millis(60));
        assert_eq!(r.drops.total(), 0, "{:?}", r.drops);
        assert_eq!(
            r.delivered_bytes(),
            r.offered_bytes,
            "host VOQs must fully drain once flows stop"
        );
    }

    #[test]
    fn decisions_slower_than_epoch_stretch_the_cadence() {
        // When the decision latency exceeds the epoch, the scheduler
        // cannot start a new decision until the previous one lands: the
        // effective cadence is the decision latency.
        let n = 4;
        let mut cfg = hw_cfg(n);
        cfg.epoch = SimDuration::from_micros(20);
        cfg.placement = Placement::Hardware(HwSchedulerModel {
            clock: xds_hw::ClockDomain::from_mhz(1000),
            demand_cycles: 100_000, // 100 µs decision at 1 GHz
            algo: HwAlgo::Tdma,
            grant_cycles: 0,
        });
        let r = sim(
            cfg,
            flows(n, 0.3, 41),
            Box::new(IslipScheduler::new(n, 3)),
            Box::new(MirrorEstimator::new(n)),
        )
        .run(SimTime::from_millis(2));
        // 2 ms / 100 µs ≈ 20 decisions (not 2 ms / 20 µs = 100).
        assert!(
            (15..=25).contains(&r.decisions),
            "expected ~20 stretched epochs, got {}",
            r.decisions
        );
    }

    #[test]
    fn mismatched_workload_rejected() {
        let err = SimBuilder::new(hw_cfg(4))
            .workload(flows(8, 0.5, 1))
            .scheduler(Box::new(IslipScheduler::new(4, 3)))
            .build()
            .err()
            .expect("mismatched workload must be rejected");
        assert_eq!(
            err,
            BuildError::PortSpaceMismatch {
                workload_ports: 8,
                switch_ports: 4
            }
        );
        assert!(err.to_string().contains("workload port count mismatch"));
    }

    #[test]
    fn builder_reports_typed_errors() {
        // Invalid configuration.
        let mut bad = hw_cfg(4);
        bad.epoch = SimDuration::ZERO;
        let err = SimBuilder::new(bad)
            .scheduler(Box::new(IslipScheduler::new(4, 3)))
            .build()
            .err()
            .expect("invalid config must be rejected");
        assert!(matches!(err, BuildError::InvalidConfig(_)), "{err:?}");
        // Out-of-range app endpoint.
        let app = CbrApp::voip(0, PortNo(0), PortNo(9), SimTime::ZERO);
        let err = SimBuilder::new(hw_cfg(4))
            .workload(Workload::apps_only(vec![app]))
            .scheduler(Box::new(IslipScheduler::new(4, 3)))
            .build()
            .err()
            .expect("out-of-range app must be rejected");
        assert_eq!(
            err,
            BuildError::AppEndpointOutOfRange {
                app: 0,
                src: 0,
                dst: 9,
                switch_ports: 4
            }
        );
        // Missing scheduler.
        let err = SimBuilder::new(hw_cfg(4)).build().err().unwrap();
        assert_eq!(err, BuildError::MissingScheduler);
    }

    #[test]
    fn builder_happy_path_builds_and_runs() {
        // The canonical construction path (typed errors covered above):
        // explicit estimator, default instrumentation, traffic flows.
        let n = 4;
        let r = SimBuilder::new(hw_cfg(n))
            .workload(flows(n, 0.3, 7))
            .scheduler(Box::new(IslipScheduler::new(n, 3)))
            .estimator(Box::new(MirrorEstimator::new(n)))
            .build()
            .expect("valid spec must build")
            .run(SimTime::from_millis(1));
        assert!(r.delivered_bytes() > 0);
    }

    #[test]
    fn estimator_defaults_to_mirror() {
        let n = 4;
        let r = SimBuilder::new(hw_cfg(n))
            .workload(flows(n, 0.4, 7))
            .scheduler(Box::new(IslipScheduler::new(n, 3)))
            .build()
            .expect("builds without an explicit estimator")
            .run(SimTime::from_millis(2));
        // The mirror's error sample is identically zero once traffic flows.
        assert_eq!(r.demand_error_mean, Some(0.0));
    }

    #[test]
    fn lean_profile_matches_full_events_and_bytes_exactly() {
        let run = |instr: Instrumentation| {
            SimBuilder::new(hw_cfg(4))
                .workload(flows(4, 0.5, 21))
                .scheduler(Box::new(IslipScheduler::new(4, 3)))
                .instrumentation(instr)
                .build()
                .expect("builds")
                .run(SimTime::from_millis(5))
        };
        let full = run(Instrumentation::full());
        let lean = run(Instrumentation::lean());
        // Simulated behavior is profile-invariant…
        assert_eq!(full.events, lean.events);
        assert_eq!(full.delivered_ocs_bytes, lean.delivered_ocs_bytes);
        assert_eq!(full.delivered_eps_bytes, lean.delivered_eps_bytes);
        assert_eq!(full.offered_bytes, lean.offered_bytes);
        assert_eq!(full.decisions, lean.decisions);
        // …while the lean profile skips the observation work.
        assert!(full.latency_bulk.count() > 0);
        assert_eq!(lean.latency_bulk.count(), 0);
        assert_eq!(lean.completed_flows, 0);
        assert_eq!(lean.peak_switch_buffer, 0);
        assert_eq!(lean.demand_error_mean, None);
        assert!(full.peak_switch_buffer > 0);
    }

    #[test]
    fn counters_populate_and_tracing_defaults_to_off() {
        let r = run_fast(4, 0.4, 5);
        assert!(r.chrome_trace.is_none(), "tracing defaults to off");
        assert!(r.counters.grant_bursts > 0, "bulk load grants bursts");
        assert!(r.counters.grant_pkts_max > 0);
        assert!(r.counters.delivery_batches > 0);
        assert!(r.counters.pool_allocs > 0, "packets went through a pool");
        assert!(r.counters.pool_frees <= r.counters.pool_allocs);
        assert!(r.counters.pool_live_peak > 0);
        // Counters are part of the run's deterministic identity.
        let again = run_fast(4, 0.4, 5);
        assert_eq!(r.counters, again.counters);
    }

    #[test]
    fn flight_recorder_emits_a_valid_chrome_trace_without_perturbing_the_run() {
        let traced = SimBuilder::new(hw_cfg(4))
            .workload(flows(4, 0.4, 7))
            .scheduler(Box::new(IslipScheduler::new(4, 3)))
            .trace(true)
            .build()
            .expect("builds")
            .run(SimTime::from_millis(3));
        let json = traced.chrome_trace.as_ref().expect("recorder ran");
        let summary = crate::trace::validate_chrome_trace(json).expect("valid Chrome trace");
        assert!(summary.complete_events > 0);
        for name in ["epoch", "estimate", "decompose", "apply", "grant_burst"] {
            assert!(summary.names.contains(name), "missing span {name}");
        }
        // Simulated behavior and counters are trace-invariant.
        let plain = SimBuilder::new(hw_cfg(4))
            .workload(flows(4, 0.4, 7))
            .scheduler(Box::new(IslipScheduler::new(4, 3)))
            .build()
            .expect("builds")
            .run(SimTime::from_millis(3));
        assert!(plain.chrome_trace.is_none());
        assert_eq!(plain.events, traced.events);
        assert_eq!(plain.delivered_ocs_bytes, traced.delivered_ocs_bytes);
        assert_eq!(plain.counters, traced.counters);
    }

    #[test]
    fn timeseries_profile_records_one_row_per_epoch() {
        let r = SimBuilder::new(hw_cfg(4))
            .workload(flows(4, 0.5, 23))
            .scheduler(Box::new(IslipScheduler::new(4, 3)))
            .instrumentation(Instrumentation::timeseries())
            .build()
            .expect("builds")
            .run(SimTime::from_millis(3));
        let series = r.timeseries.as_ref().expect("timeseries profile records");
        assert_eq!(series.len() as u64, r.decisions, "one row per decision");
        let rows = series.rows();
        assert!(rows[0].duty_cycle.is_none(), "first row has no interval");
        assert!(
            rows.iter().skip(1).all(|row| row.duty_cycle.is_some()),
            "every later row derives a duty cycle"
        );
        assert!(
            rows.iter().any(|row| row.backlog_bytes > 0),
            "backlog must be observed under load"
        );
        // Full fidelity rides along: the aggregate metrics are intact.
        assert!(r.latency_bulk.count() > 0);
        assert_eq!(r.demand_error_mean, Some(0.0), "mirror estimator");
    }

    /// Asserts the sharded determinism contract between two reports:
    /// identical behavior (events, bytes, flows, decisions, drops,
    /// switch stats, latency/FCT observables) and identical values for
    /// every counter that is not a per-shard structural ledger.
    fn assert_shard_equiv(want: &RunReport, got: &RunReport, label: &str) {
        assert_eq!(want.events, got.events, "{label}: events");
        assert_eq!(want.offered_bytes, got.offered_bytes, "{label}: offered");
        assert_eq!(want.offered_flows, got.offered_flows, "{label}: flows");
        assert_eq!(
            want.completed_flows, got.completed_flows,
            "{label}: completed"
        );
        assert_eq!(
            want.delivered_ocs_bytes, got.delivered_ocs_bytes,
            "{label}: ocs bytes"
        );
        assert_eq!(
            want.delivered_eps_bytes, got.delivered_eps_bytes,
            "{label}: eps bytes"
        );
        assert_eq!(want.decisions, got.decisions, "{label}: decisions");
        assert_eq!(want.drops, got.drops, "{label}: drops");
        assert_eq!(want.ocs, got.ocs, "{label}: ocs stats");
        assert_eq!(want.eps, got.eps, "{label}: eps stats");
        assert_eq!(
            want.peak_host_buffer, got.peak_host_buffer,
            "{label}: host peak"
        );
        assert_eq!(
            want.peak_switch_buffer, got.peak_switch_buffer,
            "{label}: switch peak"
        );
        assert_eq!(want.horizon, got.horizon, "{label}: horizon");
        for h in [
            (&want.latency_bulk, &got.latency_bulk, "bulk"),
            (&want.latency_short, &got.latency_short, "short"),
            (&want.latency_interactive, &got.latency_interactive, "inter"),
        ] {
            assert_eq!(h.0.count(), h.1.count(), "{label}: {} count", h.2);
            assert_eq!(h.0.p99(), h.1.p99(), "{label}: {} p99", h.2);
        }
        assert_eq!(
            want.voip_jitter_mean_ns, got.voip_jitter_mean_ns,
            "{label}: jitter"
        );
        // Behavioral counters are K-invariant; the structural ledgers
        // (queue_*, pool_*) are per-(K, seed) deterministic but differ.
        for name in [
            "sched_memo_hits",
            "sched_hk_runs",
            "sched_probes",
            "sched_worklist_peak",
            "sched_bucket_peak",
            "grant_bursts",
            "grant_pkts_max",
            "delivery_batches",
        ] {
            assert_eq!(
                want.counters.get(name),
                got.counters.get(name),
                "{label}: counter {name}"
            );
        }
    }

    #[test]
    fn sharded_fast_mode_reproduces_the_classic_core() {
        let n = 8;
        let mk = || {
            SimBuilder::new(hw_cfg(n))
                .workload(flows(n, 0.4, 7))
                .scheduler(Box::new(IslipScheduler::new(n, 3)))
                .estimator(Box::new(MirrorEstimator::new(n)))
        };
        let classic = mk().build().unwrap().run(SimTime::from_millis(3));
        assert!(classic.delivered_ocs_bytes > 0);
        for k in [2, 4, 8] {
            let sharded = mk().shards(k).build().unwrap().run(SimTime::from_millis(3));
            assert_shard_equiv(&classic, &sharded, &format!("k={k}"));
        }
    }

    #[test]
    fn sharded_slow_mode_reproduces_the_classic_core() {
        let n = 4;
        let mk = || {
            let mut cfg = NodeConfig::slow(
                n,
                SimDuration::from_micros(50),
                SwSchedulerModel::tuned_userspace(),
            );
            cfg.epoch = SimDuration::from_millis(1);
            cfg.seed = 5;
            if let Placement::Software { sync, .. } = &mut cfg.placement {
                *sync = xds_hw::SyncModel {
                    skew_bound: SimDuration::from_micros(40),
                    drift_ppb: 0,
                    resync_interval: SimDuration::from_secs(1),
                };
            }
            SimBuilder::new(cfg)
                .workload(flows(n, 0.5, 17))
                .scheduler(Box::new(HotspotScheduler::new(10_000)))
                .estimator(Box::new(MirrorEstimator::new(n)))
        };
        let classic = mk().build().unwrap().run(SimTime::from_millis(20));
        assert!(
            classic.drops.sync_violation > 0,
            "exercise the violation path"
        );
        for k in [2, 4] {
            let sharded = mk()
                .shards(k)
                .build()
                .unwrap()
                .run(SimTime::from_millis(20));
            assert_shard_equiv(&classic, &sharded, &format!("slow k={k}"));
        }
    }

    #[test]
    fn sharded_with_apps_reproduces_the_classic_core() {
        let n = 4;
        let mk = || {
            let mk_app = |id, s, d| {
                let mut a = CbrApp::voip(id, PortNo(s), PortNo(d), SimTime::ZERO);
                a.interval = SimDuration::from_micros(500);
                a
            };
            SimBuilder::new(hw_cfg(n))
                .workload(flows(n, 0.3, 11).with_apps(vec![mk_app(0, 0, 1), mk_app(1, 2, 3)]))
                .scheduler(Box::new(IslipScheduler::new(n, 3)))
                .estimator(Box::new(MirrorEstimator::new(n)))
        };
        let classic = mk().build().unwrap().run(SimTime::from_millis(10));
        assert!(classic.latency_interactive.count() > 0, "apps flowed");
        let sharded = mk()
            .shards(2)
            .build()
            .unwrap()
            .run(SimTime::from_millis(10));
        assert_shard_equiv(&classic, &sharded, "apps k=2");
    }

    #[test]
    fn shard_executor_modes_are_equivalent() {
        // Threads vs inline must be byte-identical (shards share nothing
        // within a window) — this exercises the concurrent path even on
        // a single-CPU machine.
        let n = 8;
        let mk = |exec| {
            SimBuilder::new(hw_cfg(n))
                .workload(flows(n, 0.4, 7))
                .scheduler(Box::new(IslipScheduler::new(n, 3)))
                .shards(4)
                .shard_execution(exec)
                .build()
                .unwrap()
                .run(SimTime::from_millis(3))
        };
        let inline = mk(ShardExec::Inline);
        let threads = mk(ShardExec::Threads);
        assert_eq!(inline.events, threads.events);
        assert_eq!(inline.delivered_ocs_bytes, threads.delivered_ocs_bytes);
        assert_eq!(inline.delivered_eps_bytes, threads.delivered_eps_bytes);
        assert_eq!(inline.counters, threads.counters, "full counter registry");
    }

    #[test]
    fn arbitrary_shard_maps_preserve_behavior() {
        let n = 8;
        let mk = || {
            SimBuilder::new(hw_cfg(n))
                .workload(flows(n, 0.4, 7))
                .scheduler(Box::new(IslipScheduler::new(n, 3)))
        };
        let classic = mk().build().unwrap().run(SimTime::from_millis(3));
        // A deliberately lopsided, non-contiguous assignment.
        let map = ShardMap::from_assignment(vec![1, 0, 2, 0, 1, 0, 2, 0]).unwrap();
        let sharded = mk()
            .shard_map(map)
            .build()
            .unwrap()
            .run(SimTime::from_millis(3));
        assert_shard_equiv(&classic, &sharded, "scattered map");
    }

    #[test]
    fn shard_map_validates_density_and_port_space() {
        assert!(ShardMap::from_assignment(vec![0, 2]).is_err(), "hole at 1");
        assert!(ShardMap::from_assignment(Vec::new()).is_err());
        let m = ShardMap::contiguous(8, 3);
        assert_eq!(m.k(), 3);
        let mut counts = vec![0usize; 3];
        for p in 0..8 {
            counts[m.shard_of(p)] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 8);
        assert!(
            counts.iter().all(|&c| c >= 2),
            "near-equal split: {counts:?}"
        );
        // A map sized for the wrong fabric is a typed build error.
        let built = SimBuilder::new(hw_cfg(4))
            .scheduler(Box::new(IslipScheduler::new(4, 3)))
            .shard_map(ShardMap::contiguous(8, 2))
            .build();
        assert!(matches!(built.err(), Some(BuildError::InvalidConfig(_))));
    }
}
