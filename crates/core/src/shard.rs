//! Sharded parallel simulation core: the fabric splits into K port
//! groups, each owning its hosts, VOQ bank rows, packet pool and event
//! queue. Intra-shard work (NIC pumps, switch-ingress classification,
//! slow-mode grant transmission) runs independently per shard between
//! *barriers* — the coordinator's own events (epochs, slot activations,
//! app sends, matrix rotations), which own cross-shard state: the
//! scheduler, the OCS/EPS, the instrumentation sinks and the buffer
//! tracker.
//!
//! # Determinism contract
//!
//! The sharded core is defined by equivalence, not by approximation:
//!
//! * **K = 1 is not this code.** A build without shards runs the classic
//!   single-queue loop in [`super::HybridSim::run`], byte-identical to
//!   every prior release (golden traces hold without regeneration).
//! * **K > 1 reproduces K = 1** on events, delivered bytes, offered
//!   bytes, decisions, drops and the scheduler-/grant-path counters, for
//!   any shard map. Three mechanisms make that exact rather than lucky:
//!   1. *Windows end at the next coordinator event, with same-instant
//!      ties broken by scheduling time.* Every event — coordinator or
//!      shard-local — is stamped with the simulation time at which it
//!      was *scheduled*. A shard processes events with `t < T_next`,
//!      plus events at exactly `T_next` whose stamp is older than the
//!      coordinator event's own stamp; same-instant events within a
//!      shard replay in stamp order. That is precisely the K = 1 pop
//!      order (insertion sequence) whenever scheduling times differ —
//!      e.g. a `SwitchIn` landing on the very nanosecond a slot
//!      activates runs first iff its NIC scheduled it before the slot
//!      was configured, exactly as the single queue would have popped
//!      them. Events tied on *both* fire and scheduling time keep
//!      coordinator-first / insertion order — still deterministic, and
//!      reachable only if one handler schedules a shard event and a
//!      coordinator event for the same future instant (today that
//!      needs the control one-way delay to exactly equal the OCS
//!      reconfiguration delay).
//!   2. *Sink effects are shipped, not applied.* Anything a shard-local
//!      event would do to shared state — an EPS arrival, a slow-mode
//!      circuit arrival, a drop, a buffer-tracker op — is buffered as a
//!      `(time, shard, seq)`-stamped item and replayed in that canonical
//!      order at the barrier. OCS and EPS state only changes at
//!      coordinator events, so deferred replay is exact.
//!   3. *Requests merge in global `(src, dst)` order* — the same order a
//!      full-fabric row-major scan produces — so the estimator, the
//!      scheduler and the decision-latency RNG consume identical inputs.
//!
//! Counters whose value reflects *structure* rather than behavior —
//! the per-shard ladder-queue and packet-pool ledgers (`queue_*`,
//! `pool_*`) — are merged across shards with
//! [`CounterSet::merge`] semantics (sums for tallies, max for peaks) and
//! are deterministic per `(K, seed)` but legitimately K-dependent. They
//! also count less than K = 1's: shards stage each flow whole as one
//! [`StagedFlow`] and cut packets at the NIC, so only slow-mode host
//! VOQs and the switch VOQ banks go through the pools.
//!
//! # Execution
//!
//! Shard windows run on their own threads when the machine has more
//! than one CPU ([`ShardExec::Auto`]); on a single CPU they run inline,
//! sequentially — same results either way, because shards share nothing
//! within a window. Even inline, sharding pays on big fabrics: each
//! shard's window drains its events back-to-back against a private pool
//! and VOQ slice, instead of interleaving every port's state through one
//! global time order.

use super::*;

/// Assignment of ports to shards. Construct with [`contiguous`]
/// (`ShardMap::contiguous`) for the standard equal split, or
/// [`from_assignment`](ShardMap::from_assignment) for arbitrary
/// (test/proptest) layouts. The determinism contract holds for any map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// `assign[port] = shard`.
    assign: Vec<u32>,
    k: usize,
}

impl ShardMap {
    /// Splits `n` ports into `k` contiguous, near-equal groups (shard
    /// `s` owns ports `[s·n/k, (s+1)·n/k)`). `k` is clamped to `[1, n]`.
    pub fn contiguous(n: usize, k: usize) -> Self {
        assert!(n > 0, "need at least one port");
        let k = k.clamp(1, n);
        let assign = (0..n).map(|p| (p * k / n) as u32).collect();
        ShardMap { assign, k }
    }

    /// Builds a map from an explicit `port → shard` table. Shard ids
    /// must be dense (`0..k` with every id used).
    pub fn from_assignment(assign: Vec<usize>) -> Result<Self, String> {
        if assign.is_empty() {
            return Err("shard assignment is empty".into());
        }
        let k = assign.iter().max().copied().unwrap_or(0) + 1;
        let mut used = vec![false; k];
        for &s in &assign {
            used[s] = true;
        }
        if let Some(hole) = used.iter().position(|u| !u) {
            return Err(format!("shard ids not dense: {hole} unused below {k}"));
        }
        Ok(ShardMap {
            assign: assign.into_iter().map(|s| s as u32).collect(),
            k,
        })
    }

    /// Number of shards.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of ports the map covers.
    pub fn ports(&self) -> usize {
        self.assign.len()
    }

    /// The shard owning `port`.
    pub fn shard_of(&self, port: usize) -> usize {
        self.assign[port] as usize
    }

    /// The (sorted, ascending) global ports shard `s` owns.
    pub fn rows_of(&self, s: usize) -> Vec<usize> {
        (0..self.assign.len())
            .filter(|&p| self.assign[p] as usize == s)
            .collect()
    }
}

/// How shard windows execute between barriers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardExec {
    /// Scoped worker threads when the machine has more than one CPU;
    /// inline otherwise. Workers are capped at `available_parallelism`,
    /// each draining a contiguous slice of the busy shards, so a K far
    /// above the core count never spawns K threads per barrier.
    #[default]
    Auto,
    /// Always sequential, in shard order, on the calling thread.
    Inline,
    /// Always scoped worker threads (even on one CPU — results are
    /// identical, this just exercises the concurrent path).
    Threads,
}

/// Shard-local events: the subset of [`Ev`] whose handlers touch only
/// one port group's state plus pure sinks (which get shipped).
#[derive(Debug)]
enum SEv {
    /// A pre-generated flow arrives at its (shard-owned) source host.
    Inject {
        flow: FlowSpec,
    },
    Pump {
        host: usize,
    },
    SwitchIn {
        pkt: Packet,
    },
    HostGrant {
        host: usize,
        dst: usize,
        slot_start: SimTime,
        slot_end: SimTime,
    },
    OcsIn {
        pkt: Packet,
    },
}

/// A side effect on shared state, deferred to the next barrier.
#[derive(Debug)]
enum ShipKind {
    /// Non-gated packet reached the switch ingress: EPS admission.
    Eps(Packet),
    /// Slow-mode bulk packet arrived expecting a live circuit.
    OcsArrival(Packet),
    Drop(DropCause),
    BufEnqueue {
        site: Site,
        bytes: u64,
    },
    BufRelease {
        site: Site,
        bytes: u64,
        release: SimTime,
    },
}

#[derive(Debug)]
struct Ship {
    t: SimTime,
    seq: u64,
    kind: ShipKind,
}

/// One port group: its hosts, pool, VOQ rows and event queue.
struct Shard {
    id: usize,
    /// Sorted global ports this shard owns.
    ports: Vec<usize>,
    /// `local[global] = index into hosts`, `u32::MAX` for foreign ports.
    local: Vec<u32>,
    hosts: Vec<Host>,
    /// Backs this shard's slow-mode host VOQs (staging holds whole
    /// flows in `Host::staged`, outside the pool).
    pool: PacketPool,
    /// Row-windowed switch VOQ bank (this shard's source rows only).
    proc: ProcessingLogic,
    /// Payloads carry the event's *scheduling* time — the `now` of the
    /// handler (or coordinator) that scheduled it — so same-instant
    /// events can replay in K = 1 insertion order.
    queue: EventQueue<(SimTime, SEv)>,
    /// Scratch for draining a same-instant batch in `run_window`.
    batch: Vec<(SimTime, SEv)>,
    host_tx: TxTimeCache,
    req_scratch: Vec<SchedRequest>,
    // Immutable per-run configuration copies (kept off `SimState` so a
    // window borrows nothing shared).
    is_hw: bool,
    gate_interactive: bool,
    mtu: u32,
    prop: SimDuration,
    track_buffers: bool,
    // Accounting.
    next_pkt_id: u64,
    pops: u64,
    ship: Vec<Ship>,
}

impl Shard {
    fn gated(&self, class: TrafficClass) -> bool {
        class == TrafficClass::Bulk || (self.gate_interactive && class == TrafficClass::Interactive)
    }

    fn ship(&mut self, t: SimTime, kind: ShipKind) {
        let seq = self.ship.len() as u64;
        self.ship.push(Ship { t, seq, kind });
    }

    fn host_mut(&mut self, global: usize) -> &mut Host {
        let li = self.local[global];
        debug_assert!(
            li != u32::MAX,
            "port {global} not owned by shard {}",
            self.id
        );
        &mut self.hosts[li as usize]
    }

    /// `at_least` is the caller's current time — it doubles as the new
    /// event's scheduling stamp.
    fn ensure_pump(&mut self, at_least: SimTime, host: usize) {
        let li = self.local[host] as usize;
        let h = &mut self.hosts[li];
        if !h.pump_active {
            h.pump_active = true;
            let at = at_least.max(h.nic_busy_until);
            self.queue.schedule_at(at, (at_least, SEv::Pump { host }));
        }
    }

    /// Whether any queued event may fall inside the window bounded by
    /// `limit = (T_next, sched_coord)` (capped by the horizon). Events
    /// at exactly `T_next` are a *maybe* — only their scheduling stamps
    /// (inspected by `run_window`) decide — so this errs on "busy".
    fn has_work(&self, limit: Option<(SimTime, SimTime)>, horizon: SimTime) -> bool {
        match self.queue.peek_time() {
            None => false,
            Some(t) => t <= horizon && limit.is_none_or(|(lt, _)| t <= lt),
        }
    }

    /// Drains shard-local events with `t < T_next` — plus events at
    /// exactly `T_next` scheduled before the coordinator event was —
    /// capped by the horizon. Same-instant events replay in scheduling-
    /// stamp order: the K = 1 insertion sequence.
    fn run_window(&mut self, limit: Option<(SimTime, SimTime)>, horizon: SimTime) {
        loop {
            let Some(t) = self.queue.peek_time() else {
                return;
            };
            if t > horizon || limit.is_some_and(|(lt, _)| t > lt) {
                return;
            }
            let (sched, ev) = self.queue.pop().expect("peeked").1;
            // Fast path: the instant holds exactly one event (the
            // overwhelmingly common case — packet times rarely collide),
            // so stamp order is trivially satisfied.
            if self.queue.peek_time() != Some(t) {
                match limit {
                    Some((lt, ls)) if t == lt && sched >= ls => {
                        // Due only after the coordinator event: put it
                        // back and end the window.
                        self.queue.schedule_at(t, (sched, ev));
                        return;
                    }
                    _ => {
                        self.pops += 1;
                        self.handle(t, ev);
                        continue;
                    }
                }
            }
            // Same-instant batch: drain it, replay in stamp order (the
            // K = 1 insertion sequence), defer what the coordinator
            // event precedes.
            let mut batch = std::mem::take(&mut self.batch);
            batch.push((sched, ev));
            while self.queue.peek_time() == Some(t) {
                let (_, item) = self.queue.pop().expect("peeked");
                batch.push(item);
            }
            // Stable, so equal stamps keep queue (insertion) order.
            batch.sort_by_key(|&(sched, _)| sched);
            let due = match limit {
                Some((lt, ls)) if t == lt => batch.partition_point(|&(sched, _)| sched < ls),
                _ => batch.len(),
            };
            // Anything stamped at-or-after the coordinator event waits
            // for the next window; re-queued stamp-sorted, which the
            // stable re-sort above preserves across windows.
            for (sched, ev) in batch.drain(due..) {
                self.queue.schedule_at(t, (sched, ev));
            }
            let blocked = due == 0;
            for (_, ev) in batch.drain(..) {
                self.pops += 1;
                self.handle(t, ev);
            }
            self.batch = batch;
            if blocked {
                return;
            }
        }
    }

    fn handle(&mut self, now: SimTime, ev: SEv) {
        match ev {
            // Mirrors `SimState::inject_flow`; flow-start notification
            // and offered-byte accounting already happened coordinator-
            // side at pre-generation. The flow's packet ids are reserved
            // here, at injection, whether its packets materialize now or
            // are cut by the NIC later.
            SEv::Inject { flow: f } => {
                let host = f.src.index();
                // Ids are namespaced per shard (unobservable in any
                // report; uniqueness is all that matters).
                let id_base = ((self.id as u64 + 1) << 48) | self.next_pkt_id;
                let rec = StagedFlow::flow(&f, id_base, now, self.mtu);
                self.next_pkt_id += rec.pkts_left as u64;
                if self.gated(f.class) && !self.is_hw {
                    // Slow mode: gated bytes feed scheduler requests at
                    // injection, so they materialize into host VOQs.
                    let li = self.local[host] as usize;
                    let d = f.dst.index();
                    for pkt in rec {
                        let size = pkt.bytes as u64;
                        let h = &mut self.hosts[li];
                        self.pool.push(&mut h.voq[d], pkt);
                        h.voq_bytes[d] += size;
                        h.voq_total += size;
                        h.voq_arrived[d] += size;
                        h.voq_dirty[d] = true;
                        if self.track_buffers {
                            self.ship(
                                now,
                                ShipKind::BufEnqueue {
                                    site: Site::Host,
                                    bytes: size,
                                },
                            );
                        }
                    }
                } else {
                    self.host_mut(host).stage(rec);
                }
                self.ensure_pump(now, host);
            }

            SEv::Pump { host } => {
                let nic_busy = self.host_mut(host).nic_busy_until;
                if now < nic_busy {
                    self.queue.schedule_at(nic_busy, (now, SEv::Pump { host }));
                    return;
                }
                let li = self.local[host] as usize;
                let Some(pkt) = self.hosts[li].cut_staged() else {
                    self.hosts[li].pump_active = false;
                    return;
                };
                let tx = self.host_tx.tx_time(pkt.bytes as u64);
                self.hosts[li].nic_busy_until = now + tx;
                self.queue
                    .schedule_at(now + tx + self.prop, (now, SEv::SwitchIn { pkt }));
                self.queue.schedule_at(now + tx, (now, SEv::Pump { host }));
            }

            SEv::SwitchIn { pkt } => {
                if self.gated(pkt.class) {
                    debug_assert!(self.is_hw, "slow mode gates bulk at hosts");
                    let bytes = pkt.bytes as u64;
                    match self.proc.enqueue(pkt) {
                        Ok(()) => {
                            if self.track_buffers {
                                self.ship(
                                    now,
                                    ShipKind::BufEnqueue {
                                        site: Site::Switch,
                                        bytes,
                                    },
                                );
                            }
                        }
                        Err(_) => self.ship(now, ShipKind::Drop(DropCause::VoqFull)),
                    }
                } else {
                    // EPS admission reads shared switch state: defer.
                    self.ship(now, ShipKind::Eps(pkt));
                }
            }

            SEv::HostGrant {
                host,
                dst,
                slot_start,
                slot_end,
            } => {
                let li = self.local[host] as usize;
                let (start_seen, end_seen) = {
                    let h = &self.hosts[li];
                    (h.actual_time(slot_start), h.actual_time(slot_end))
                };
                let mut cursor = now.max(start_seen).max(self.hosts[li].nic_busy_until);
                while let Some(front) = self.pool.front(&self.hosts[li].voq[dst]) {
                    let bytes = front.bytes as u64;
                    let tx = self.host_tx.tx_time(bytes);
                    if cursor + tx > end_seen {
                        break;
                    }
                    let pkt = self.pool.pop(&mut self.hosts[li].voq[dst]).expect("peeked");
                    let dep = cursor + tx;
                    cursor = dep;
                    let h = &mut self.hosts[li];
                    h.voq_bytes[dst] -= bytes;
                    h.voq_total -= bytes;
                    h.voq_dirty[dst] = true;
                    if self.track_buffers {
                        self.ship(
                            now,
                            ShipKind::BufRelease {
                                site: Site::Host,
                                bytes,
                                release: dep,
                            },
                        );
                    }
                    self.queue
                        .schedule_at(dep + self.prop, (now, SEv::OcsIn { pkt }));
                }
                let h = &mut self.hosts[li];
                h.nic_busy_until = h.nic_busy_until.max(cursor);
            }

            SEv::OcsIn { pkt } => {
                // Circuit validation reads shared OCS state: defer.
                self.ship(now, ShipKind::OcsArrival(pkt));
            }
        }
    }
}

/// Runs the sharded core. Entered from [`HybridSim::run`] when the
/// build carries a shard map with `k > 1`.
pub(super) fn run_sharded(sim: HybridSim, horizon: SimTime, map: ShardMap) -> RunReport {
    let exec = sim.shard_exec;
    let HybridSim { mut state, .. } = sim;
    state.horizon = horizon;
    let n = state.cfg.n_ports;
    assert_eq!(map.ports(), n, "shard map port-space mismatch");
    let threaded = match exec {
        ShardExec::Inline => false,
        ShardExec::Threads => true,
        ShardExec::Auto => std::thread::available_parallelism().is_ok_and(|p| p.get() > 1),
    };

    // Partition the built hosts (clock offsets were drawn in global port
    // order at build, exactly as in the classic path) into shards.
    let mut host_slots: Vec<Option<Host>> = state.hosts.drain(..).map(Some).collect();
    let mut shards: Vec<Shard> = (0..map.k())
        .map(|s| {
            let ports = map.rows_of(s);
            let mut local = vec![u32::MAX; n];
            for (li, &p) in ports.iter().enumerate() {
                local[p] = li as u32;
            }
            let hosts = ports
                .iter()
                .map(|&p| host_slots[p].take().expect("port owned once"))
                .collect();
            Shard {
                id: s,
                local,
                hosts,
                pool: PacketPool::new(),
                proc: ProcessingLogic::with_rows(n, state.cfg.voq_capacity, ports.clone()),
                ports,
                queue: EventQueue::new(),
                batch: Vec::new(),
                host_tx: state.cfg.host_link.rate.tx_cache(),
                req_scratch: Vec::new(),
                is_hw: state.is_hw,
                gate_interactive: state.cfg.voip_on_ocs,
                mtu: state.cfg.mtu,
                prop: state.cfg.host_link.propagation,
                track_buffers: state.track_buffers,
                next_pkt_id: 0,
                pops: 0,
                ship: Vec::new(),
            }
        })
        .collect();

    // Seed the coordinator queue exactly like the classic path, except
    // flows are pre-generated at barriers instead of chained through
    // `Ev::NextFlow` (the generator's draw order is preserved — one draw
    // ahead, next draw on injection). Like the shard queues, payloads
    // carry the event's scheduling stamp (`ZERO` for the seeds, which
    // matches the classic path scheduling them before the first pop).
    let mut cq: EventQueue<(SimTime, Ev)> = EventQueue::new();
    if let Some(g) = &mut state.flowgen {
        let f = g.next_flow();
        if f.start <= state.flow_stop {
            state.pending_flow = Some(f);
        }
    }
    for (i, a) in state.apps.iter().enumerate() {
        cq.schedule_at(a.start, (SimTime::ZERO, Ev::AppSend { app: i }));
    }
    if let Some(cycle) = &state.matrix_cycle {
        cq.schedule_at(
            SimTime::ZERO + cycle.period,
            (SimTime::ZERO, Ev::RotateMatrix { idx: 1 }),
        );
    }
    cq.schedule_at(SimTime::ZERO, (SimTime::ZERO, Ev::EpochStart));
    // Fault chain, exactly as the classic path seeds it. Fault events
    // are coordinator events, so every draw happens at a barrier in the
    // same order regardless of the shard map.
    if let Some(fs) = &mut state.faults {
        if let Some(at) = fs.first_fault_at() {
            cq.schedule_at(at, (SimTime::ZERO, Ev::LinkFault));
        }
    }

    let mut coord_pops: u64 = 0;
    let mut end_time = SimTime::ZERO;
    // The generator's "seed" draw predates every seeded event; stamps
    // appear once the chain starts (each draw happens as its predecessor
    // injects, exactly when `Ev::NextFlow` would have been scheduled).
    let mut pending_sched: Option<SimTime> = None;
    let mut replay_buf: Vec<(SimTime, u32, u64, ShipKind)> = Vec::new();
    loop {
        // Pop the coordinator event up front: the window rule needs its
        // scheduling stamp, and the queue has no payload peek. Windows
        // never schedule onto the coordinator queue, so nothing can
        // preempt an already-popped event.
        let coord = match cq.peek_time() {
            Some(t) if t <= horizon => cq.pop(),
            _ => None,
        };
        let limit = coord.as_ref().map(|(t, (s, _))| (*t, *s));
        pregen_flows(&mut state, &mut shards, &map, limit, &mut pending_sched);
        run_windows(&mut shards, limit, horizon, threaded);
        replay_ships(&mut state, &mut shards, &mut replay_buf);
        let Some((now, (_, ev))) = coord else { break };
        coord_pops += 1;
        end_time = end_time.max(now);
        handle_coord(&mut state, &mut shards, &map, &mut cq, now, ev);
    }
    for s in &shards {
        end_time = end_time.max(s.queue.now());
    }

    // Fold the coordinator's structural ledgers (the classic formulas —
    // the builder's full-fabric pool and bank are inert husks here),
    // then merge each shard's ledger set with kind-aware semantics:
    // tallies sum, peaks max.
    let mut st = state;
    st.counters.queue_spreads = cq.spread_count();
    st.counters.queue_spills = cq.spill_count();
    st.counters.queue_direct_sorts = cq.direct_sort_count();
    let (p_allocs, p_frees, p_peak, p_growths) = st.proc.pool_ledger();
    st.counters.pool_allocs = st.host_pool.alloc_count() + p_allocs;
    st.counters.pool_frees = st.host_pool.free_count() + p_frees;
    st.counters.pool_live_peak = st.host_pool.live_peak() + p_peak;
    st.counters.pool_chunk_growths = st.host_pool.chunk_growth_count() + p_growths;
    let mut events = coord_pops;
    for s in &shards {
        events += s.pops;
        let (a, f, pk, g) = s.proc.pool_ledger();
        let c = CounterSet {
            queue_spreads: s.queue.spread_count(),
            queue_spills: s.queue.spill_count(),
            queue_direct_sorts: s.queue.direct_sort_count(),
            pool_allocs: s.pool.alloc_count() + a,
            pool_frees: s.pool.free_count() + f,
            // Same composition as the classic single-core formula, per
            // shard: host-pool peak + VOQ-bank peak. Across shards the
            // merge takes the max — the documented peak semantic.
            pool_live_peak: s.pool.live_peak() + pk,
            pool_chunk_growths: s.pool.chunk_growth_count() + g,
            ..Default::default()
        };
        st.counters.merge(&c);
        // Per-shard conservation audits, as strict as the classic ones.
        if let Err(e) = s.pool.check_conserved() {
            panic!("end-of-run shard {} host pool audit failed: {e}", s.id);
        }
        if let Err(e) = s.proc.check_pool_conserved() {
            panic!("end-of-run shard {} switch pool audit failed: {e}", s.id);
        }
    }
    st.into_report(events, end_time, horizon)
}

/// Injects every pending flow due before `limit = (T_next, sched_coord)`
/// (or up to the horizon when no coordinator event remains) into its
/// source shard, drawing follow-ups in exactly the order `Ev::NextFlow`
/// would have. A flow starting at exactly `T_next` is due iff its draw
/// (`pending_sched`, the previous flow's start — `None` for the
/// pre-loop seed draw) predates the coordinator event's stamp, which is
/// when K = 1 would have scheduled its `Ev::NextFlow`.
fn pregen_flows(
    st: &mut SimState,
    shards: &mut [Shard],
    map: &ShardMap,
    limit: Option<(SimTime, SimTime)>,
    pending_sched: &mut Option<SimTime>,
) {
    loop {
        let Some(f) = st.pending_flow.take() else {
            return;
        };
        let due = match limit {
            Some((lt, ls)) => {
                f.start < lt || (f.start == lt && pending_sched.is_none_or(|s| s < ls))
            }
            None => f.start <= st.horizon,
        };
        if !due {
            st.pending_flow = Some(f);
            return;
        }
        st.offered_bytes += f.bytes;
        st.offered_flows += 1;
        st.delivery_sink.on_flow_started(f.id, f.bytes, f.start);
        let s = map.shard_of(f.src.index());
        let start = f.start;
        let sched = pending_sched.unwrap_or(SimTime::ZERO);
        shards[s]
            .queue
            .schedule_at(start, (sched, SEv::Inject { flow: f }));
        *pending_sched = Some(start);
        if let Some(g) = &mut st.flowgen {
            let next = g.next_flow();
            if next.start <= st.flow_stop && next.start <= st.horizon {
                st.pending_flow = Some(next);
            }
        }
    }
}

/// Runs every busy shard's window — threaded when allowed and at least
/// two shards have due work, inline otherwise. Shards share nothing
/// within a window, so the two modes produce identical results. The
/// threaded path caps workers at the machine's parallelism and hands
/// each a contiguous slice of busy shards: K is free to exceed the core
/// count (big K pays for itself in cache locality even inline — see the
/// module docs) without spawning K threads per barrier.
fn run_windows(
    shards: &mut [Shard],
    limit: Option<(SimTime, SimTime)>,
    horizon: SimTime,
    threaded: bool,
) {
    if !threaded {
        for sh in shards.iter_mut() {
            sh.run_window(limit, horizon);
        }
        return;
    }
    let mut busy: Vec<&mut Shard> = shards
        .iter_mut()
        .filter(|s| s.has_work(limit, horizon))
        .collect();
    match busy.len() {
        0 => {}
        1 => busy[0].run_window(limit, horizon),
        n => {
            let workers = std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .min(n);
            let per = n.div_ceil(workers);
            std::thread::scope(|scope| {
                for chunk in busy.chunks_mut(per) {
                    scope.spawn(move || {
                        for sh in chunk {
                            sh.run_window(limit, horizon);
                        }
                    });
                }
            });
        }
    }
}

/// Applies every shipped sink effect in canonical `(time, shard, seq)`
/// order — the cross-shard merge rule that pins determinism.
fn replay_ships(
    st: &mut SimState,
    shards: &mut [Shard],
    buf: &mut Vec<(SimTime, u32, u64, ShipKind)>,
) {
    if shards.iter().all(|s| s.ship.is_empty()) {
        return;
    }
    buf.clear();
    for s in shards.iter_mut() {
        let sid = s.id as u32;
        buf.extend(s.ship.drain(..).map(|sh| (sh.t, sid, sh.seq, sh.kind)));
    }
    buf.sort_unstable_by_key(|&(t, sid, seq, _)| (t, sid, seq));
    for (t, _, _, kind) in buf.drain(..) {
        match kind {
            ShipKind::Eps(pkt) => {
                let out = pkt.dst.index();
                match st.switching.eps.enqueue(out, pkt.bytes as u64, t) {
                    Ok(dep) => {
                        let deliver = dep + st.cfg.host_link.propagation;
                        st.record_delivery(&pkt, deliver, DeliveryPath::Eps);
                        st.flush_deliveries();
                    }
                    Err(()) => st.drop_sink.on_drop(DropCause::EpsFull, t),
                }
            }
            ShipKind::OcsArrival(pkt) => {
                let (i, j, bytes) = (pkt.src.index(), pkt.dst.index(), pkt.bytes as u64);
                if st.faults.as_ref().is_some_and(|fs| fs.pair_failed(i, j)) {
                    // Mirrors the classic `Ev::OcsIn` fault check: fault
                    // flags only change at coordinator events, so the
                    // state seen here equals what K = 1 saw at `t`.
                    st.drop_sink.on_drop(DropCause::LinkDark, t);
                    continue;
                }
                match st.switching.ocs.transmit(i, j, bytes, t) {
                    Ok(()) => {
                        let deliver = t + st.cfg.host_link.propagation;
                        st.record_delivery(&pkt, deliver, DeliveryPath::Ocs);
                        st.flush_deliveries();
                    }
                    Err(_) => st.drop_sink.on_drop(DropCause::SyncViolation, t),
                }
            }
            ShipKind::Drop(cause) => st.drop_sink.on_drop(cause, t),
            ShipKind::BufEnqueue { site, bytes } => st.buffers.on_enqueue(site, bytes, t),
            ShipKind::BufRelease {
                site,
                bytes,
                release,
            } => st.buffers.on_dequeue_at(site, bytes, release),
        }
    }
}

/// Handles one coordinator event at a barrier. Each arm is the classic
/// handler operating over shard-held state (the coordinator owns every
/// shard between windows).
fn handle_coord(
    st: &mut SimState,
    shards: &mut [Shard],
    map: &ShardMap,
    q: &mut EventQueue<(SimTime, Ev)>,
    now: SimTime,
    ev: Ev,
) {
    match ev {
        Ev::AppSend { app } => {
            let a = st.apps[app].clone();
            let mut rec = StagedFlow::single(
                st.next_pkt_id,
                APP_FLOW_BASE + app as u64,
                a.src,
                a.dst,
                a.pkt_bytes,
                now,
            );
            st.next_pkt_id += 1;
            st.offered_bytes += a.pkt_bytes as u64;
            let host = a.src.index();
            let sh = &mut shards[map.shard_of(host)];
            let li = sh.local[host] as usize;
            if st.gated(TrafficClass::Interactive) && !st.is_hw {
                let d = a.dst.index();
                let h = &mut sh.hosts[li];
                sh.pool.push(&mut h.voq[d], rec.next().expect("one packet"));
                h.voq_bytes[d] += a.pkt_bytes as u64;
                h.voq_total += a.pkt_bytes as u64;
                h.voq_arrived[d] += a.pkt_bytes as u64;
                h.voq_dirty[d] = true;
                if st.track_buffers {
                    st.buffers.on_enqueue(Site::Host, a.pkt_bytes as u64, now);
                }
            } else {
                sh.hosts[li].stage(rec);
                sh.ensure_pump(now, host);
            }
            let next = a.next_send(now, &mut st.rng);
            if next <= st.horizon {
                q.schedule_at(next, (now, Ev::AppSend { app }));
            }
        }

        Ev::EpochStart => {
            // xlint: allow(wall-clock) — epoch phase-timing split (RunReport::phases): host-time observability, excluded from golden serialization
            let phase_t0 = std::time::Instant::now();
            for s in shards.iter() {
                s.pool.debug_assert_conserved();
            }
            // Requests from every shard, merged into global (src, dst)
            // order — identical to a full-fabric row-major scan.
            let mut reqs = std::mem::take(&mut st.reqs_scratch);
            reqs.clear();
            for s in shards.iter_mut() {
                if st.is_hw {
                    let mut buf = std::mem::take(&mut s.req_scratch);
                    s.proc.take_requests_into(now, &mut buf);
                    reqs.extend_from_slice(&buf);
                    s.req_scratch = buf;
                } else {
                    for (li, &hi) in s.ports.clone().iter().enumerate() {
                        let h = &mut s.hosts[li];
                        for d in 0..h.voq_dirty.len() {
                            if h.voq_dirty[d] {
                                h.voq_dirty[d] = false;
                                reqs.push(SchedRequest {
                                    src: hi,
                                    dst: d,
                                    queued_bytes: h.voq_bytes[d],
                                    arrived_bytes_total: h.voq_arrived[d],
                                    at: now,
                                });
                            }
                        }
                    }
                }
            }
            reqs.sort_unstable_by_key(|r| (r.src, r.dst));
            for r in &reqs {
                st.estimator.on_request(r);
            }
            st.reqs_scratch = reqs;
            let have_ref = st.estimator.estimate_ref(now, st.cfg.epoch).is_some();
            if !have_ref {
                st.estimator
                    .estimate_into(now, st.cfg.epoch, &mut st.demand_scratch);
            }
            let truth_total: u64 = if st.is_hw {
                shards.iter().map(|s| s.proc.total_bytes()).sum()
            } else {
                shards
                    .iter()
                    .map(|s| s.hosts.iter().map(|h| h.voq_total).sum::<u64>())
                    .sum()
            };
            let mut demand_err_rel: Option<f64> = None;
            if st.estimator_is_mirror {
                if truth_total > 0 {
                    demand_err_rel = Some(0.0);
                }
            } else if st.want_demand_error {
                if st.is_hw {
                    for s in shards.iter() {
                        s.proc.occupancy_rows_into(&mut st.truth_scratch);
                    }
                } else {
                    for s in shards.iter() {
                        for (li, &hi) in s.ports.iter().enumerate() {
                            let h = &s.hosts[li];
                            for d in 0..st.cfg.n_ports {
                                st.truth_scratch.set(hi, d, h.voq_bytes[d]);
                            }
                        }
                    }
                }
                let estimate = match st.estimator.estimate_ref(now, st.cfg.epoch) {
                    Some(m) => m,
                    None => &st.demand_scratch,
                };
                let (err_l1, tt) = estimate.error_vs(&st.truth_scratch);
                debug_assert_eq!(tt, truth_total, "snapshot disagrees with running total");
                if truth_total > 0 {
                    demand_err_rel = Some(err_l1 as f64 / truth_total as f64);
                }
            }
            let ctx = ScheduleCtx {
                now,
                line_rate: st.cfg.line_rate,
                reconfig: st.cfg.reconfig,
                epoch: st.cfg.epoch,
                max_entries: st.cfg.max_entries,
            };
            let demand = match st.estimator.estimate_ref(now, st.cfg.epoch) {
                Some(m) => m,
                None => &st.demand_scratch,
            };
            // Mirrors the classic handler: dark ports are masked out of
            // the demand the scheduler sees.
            let demand = match &mut st.faults {
                Some(fs) if fs.n_failed > 0 => fs.mask_demand(demand),
                _ => demand,
            };
            // xlint: allow(wall-clock) — phase-timing block boundary (estimate → decompose), never serialized into goldens
            let phase_t1 = std::time::Instant::now();
            st.phases.estimate += phase_t1.duration_since(phase_t0).as_nanos() as u64;
            let sched = st.scheduler.schedule(demand, &ctx);
            // xlint: allow(wall-clock) — phase-timing block boundary (decompose end), never serialized into goldens
            let phase_t2 = std::time::Instant::now();
            st.phases.decompose += phase_t2.duration_since(phase_t1).as_nanos() as u64;
            if let Some(obs) = st.scheduler.take_obs() {
                st.counters.sched_memo_hits += obs.memo_hits;
                st.counters.sched_hk_runs += obs.hk_runs;
                st.counters.sched_probes += obs.probes;
                st.counters.sched_worklist_peak =
                    st.counters.sched_worklist_peak.max(obs.worklist_len);
                st.counters.sched_bucket_peak = st.counters.sched_bucket_peak.max(obs.buckets_len);
                if let Some(tr) = &mut st.trace {
                    for s in &obs.spans {
                        tr.span_between("sched", s.name, s.start, s.end, &[s.arg]);
                    }
                }
            }
            if let Some(tr) = &mut st.trace {
                tr.span_between(
                    "epoch",
                    "epoch",
                    phase_t0,
                    phase_t2,
                    &[("epoch", st.decisions)],
                );
                tr.span_between("epoch", "estimate", phase_t0, phase_t1, &[]);
                tr.span_between(
                    "epoch",
                    "decompose",
                    phase_t1,
                    phase_t2,
                    &[("entries", sched.entries.len() as u64)],
                );
            }
            debug_assert!(
                sched.validate(&ctx, st.cfg.n_ports).is_ok(),
                "{} produced an invalid schedule",
                st.scheduler.name()
            );
            let mut d = st
                .cfg
                .placement
                .decision_latency(st.cfg.n_ports, &mut st.rng);
            if let Some(fs) = &mut st.faults {
                if let Some(extra) = fs.draw_stall(st.cfg.epoch) {
                    d += extra;
                    st.counters.fault_events_injected += 1;
                }
            }
            st.decisions += 1;
            st.decision_ns_sum += d.as_nanos() as u128;
            st.epoch_probe.on_epoch(&EpochSample {
                epoch: st.decisions - 1,
                at: now,
                demand_err_rel,
                backlog_bytes: truth_total,
                decision_ns: d.as_nanos(),
                ocs_dark_ns: st.switching.ocs.stats().dark_time.as_nanos(),
                entries: sched.entries.len(),
            });
            if !sched.entries.is_empty() {
                let sid = st.alloc_sched(sched);
                q.schedule_at(now + d, (now, Ev::ApplySchedule { sid }));
            }
            let next = now + st.cfg.epoch.max(d);
            if next <= st.horizon {
                q.schedule_at(next, (now, Ev::EpochStart));
            }
        }

        Ev::ApplySchedule { sid } => {
            q.schedule_at(now, (now, Ev::SlotConfigure { sid, idx: 0 }));
        }

        Ev::SlotConfigure { sid, idx } => {
            let slot_fault = match &mut st.faults {
                Some(fs) => fs.draw_misfire(),
                None => SlotFault::None,
            };
            if slot_fault != SlotFault::None {
                st.counters.fault_events_injected += 1;
            }
            if slot_fault == SlotFault::Stale {
                st.faults
                    .as_mut()
                    .expect("stale draw implies a plan")
                    .mark_stale(sid, idx);
            }
            let entry = &st.scheds[sid].as_ref().expect("schedule slot live").entries[idx];
            let active_at = match slot_fault {
                SlotFault::None => st.switching.configure(&entry.perm, now),
                SlotFault::Late(extra) => st.switching.configure(&entry.perm, now + extra),
                SlotFault::Stale => now + st.cfg.reconfig,
            };
            let slot_end = active_at + entry.slot;
            if !st.is_hw && slot_fault != SlotFault::Stale {
                let g = st.cfg.guard;
                let gs = active_at + g;
                let ge = SimTime::from_nanos(slot_end.as_nanos().saturating_sub(g.as_nanos()));
                if ge > gs {
                    // Grants fan out to each source's owning shard.
                    for (i, j) in entry.perm.pairs() {
                        shards[map.shard_of(i)].queue.schedule_at(
                            now + st.ctrl_oneway,
                            (
                                now,
                                SEv::HostGrant {
                                    host: i,
                                    dst: j,
                                    slot_start: gs,
                                    slot_end: ge,
                                },
                            ),
                        );
                    }
                }
            }
            q.schedule_at(active_at, (now, Ev::SlotActive { sid, idx }));
        }

        Ev::SlotActive { sid, idx } => {
            let sched = st.scheds[sid].take().expect("schedule slot live");
            let entry = &sched.entries[idx];
            let slot_end = now + entry.slot;
            let stale = match &mut st.faults {
                Some(fs) => fs.take_stale(sid, idx),
                None => false,
            };
            if st.is_hw {
                // xlint: allow(wall-clock) — apply phase-timing block start (RunReport::phases), excluded from golden serialization
                let phase_t0 = std::time::Instant::now();
                let budget = st.cfg.line_rate.bytes_in(entry.slot);
                let mut granted = std::mem::take(&mut st.grant_scratch);
                for (i, j) in entry.perm.pairs() {
                    granted.clear();
                    shards[map.shard_of(i)]
                        .proc
                        .dequeue_upto_into(i, j, budget, &mut granted);
                    if granted.is_empty() {
                        continue;
                    }
                    // Same circuit probe as the classic core: overlapping
                    // stall-delayed schedules may have darkened or
                    // re-aimed the fabric mid-slot.
                    let diverted = stale
                        || st.faults.as_ref().is_some_and(|fs| fs.pair_failed(i, j))
                        || (st.faults.is_some() && st.switching.ocs.output_for(i, now) != Some(j));
                    if diverted {
                        // Mirrors the classic failover: the burst rides
                        // the EPS instead of the faulted/stale circuit.
                        for pkt in granted.drain(..) {
                            let bytes = pkt.bytes as u64;
                            if st.track_buffers {
                                st.release_scratch.push((now.as_nanos(), bytes));
                            }
                            match st.switching.eps.enqueue(j, bytes, now) {
                                Ok(dep) => {
                                    st.counters.fault_failover_bytes += bytes;
                                    let deliver = dep + st.cfg.host_link.propagation;
                                    st.record_delivery(&pkt, deliver, DeliveryPath::Eps);
                                }
                                Err(()) => st.drop_sink.on_drop(DropCause::EpsFull, now),
                            }
                        }
                        continue;
                    }
                    // xlint: allow(wall-clock) — flight-recorder grant-burst span start, gated on trace; wall-clock stays out of goldens
                    let burst_t0 = st.trace.is_some().then(std::time::Instant::now);
                    let npkts = granted.len() as u64;
                    st.counters.grant_bursts += 1;
                    st.counters.grant_pkts_max = st.counters.grant_pkts_max.max(npkts);
                    let total: u64 = granted.iter().map(|p| p.bytes as u64).sum();
                    st.switching
                        .ocs
                        .transmit_batch(i, j, total, npkts, now)
                        .expect("granted circuit must be live");
                    let mut cursor = now;
                    for pkt in granted.drain(..) {
                        let bytes = pkt.bytes as u64;
                        let dep = cursor + st.line_tx.tx_time(bytes);
                        cursor = dep;
                        if st.track_buffers {
                            st.release_scratch.push((dep.as_nanos(), bytes));
                        }
                        let deliver = dep + st.cfg.host_link.propagation;
                        st.record_delivery(&pkt, deliver, DeliveryPath::Ocs);
                    }
                    if let (Some(t0), Some(tr)) = (burst_t0, &mut st.trace) {
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
                if st.track_buffers {
                    let mut releases = std::mem::take(&mut st.release_scratch);
                    st.buffers.on_dequeue_at_batch(Site::Switch, &mut releases);
                    st.release_scratch = releases;
                }
                st.flush_deliveries();
                st.grant_scratch = granted;
                // xlint: allow(wall-clock) — apply phase-timing block end (RunReport::phases), excluded from golden serialization
                let phase_t1 = std::time::Instant::now();
                st.phases.apply += phase_t1.duration_since(phase_t0).as_nanos() as u64;
                if let Some(tr) = &mut st.trace {
                    tr.span_between(
                        "epoch",
                        "apply",
                        phase_t0,
                        phase_t1,
                        &[("entry", idx as u64)],
                    );
                }
            }
            if idx + 1 < sched.entries.len() {
                st.scheds[sid] = Some(sched);
                q.schedule_at(slot_end, (now, Ev::SlotConfigure { sid, idx: idx + 1 }));
            } else {
                st.free_scheds.push(sid);
            }
        }

        Ev::RotateMatrix { idx } => {
            if let (Some(cycle), Some(g)) = (&st.matrix_cycle, &mut st.flowgen) {
                g.set_matrix(cycle.matrices[idx % cycle.matrices.len()].clone());
                let next = now + cycle.period;
                if next <= st.horizon {
                    q.schedule_at(next, (now, Ev::RotateMatrix { idx: idx + 1 }));
                }
            }
        }

        Ev::LinkFault => {
            let fs = st.faults.as_mut().expect("LinkFault implies a plan");
            let (port, repair_at, next) = fs.on_link_fault(now);
            if let Some(at) = repair_at {
                st.counters.fault_events_injected += 1;
                q.schedule_at(at, (now, Ev::LinkRepair { port }));
            }
            if let Some(at) = next {
                if at <= st.horizon {
                    q.schedule_at(at, (now, Ev::LinkFault));
                }
            }
        }

        Ev::LinkRepair { port } => {
            st.faults
                .as_mut()
                .expect("LinkRepair implies a plan")
                .on_link_repair(port, now);
        }

        // Shard-local events never land on the coordinator queue.
        Ev::NextFlow
        | Ev::Pump { .. }
        | Ev::SwitchIn { .. }
        | Ev::HostGrant { .. }
        | Ev::OcsIn { .. } => {
            unreachable!("shard-local event on the coordinator queue")
        }
    }
}
