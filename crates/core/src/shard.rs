//! Sharded parallel simulation core: the fabric splits into K port
//! groups, each owning its hosts, VOQ bank rows, packet pool and event
//! queue. Intra-shard work (flow injection, NIC pumps, switch-ingress
//! classification, slow-mode grant transmission) runs independently per
//! shard between *barriers* — the coordinator's own events (epochs, slot
//! activations, app sends, matrix rotations, faults). There is one
//! coordinator: the same [`Coord::handle`] the classic loop runs, here
//! driving the [`Shards`] fabric instead of the classic [`Ports`]. The
//! two cores differ only in their fabric — where hosts and VOQs live and
//! how port-side events are queued.
//!
//! # Determinism contract
//!
//! The sharded core is defined by equivalence, not by approximation:
//!
//! * **K = 1 is not this fabric.** A build without shards runs the
//!   classic single-queue loop in [`super::HybridSim::run`],
//!   byte-identical to every prior release (golden traces hold without
//!   regeneration).
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
//!      order at the barrier, through the same coordinator methods the
//!      classic loop calls inline ([`Coord::eps_arrival`],
//!      [`Coord::ocs_arrival`]). OCS and EPS state only changes at
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
    HostGrant(Grant),
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
    // Immutable per-run configuration copies (kept off `Coord` so a
    // window borrows nothing shared).
    is_hw: bool,
    gate_interactive: bool,
    mtu: u32,
    prop: SimDuration,
    track_buffers: bool,
    // Accounting.
    next_pkt_id: u64,
    pops: u64,
    /// Side effects shipped this window, in emission order.
    ship: Vec<(SimTime, ShipKind)>,
}

impl Shard {
    fn gated(&self, class: TrafficClass) -> bool {
        class == TrafficClass::Bulk || (self.gate_interactive && class == TrafficClass::Interactive)
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
        if let Some(at) = self.host_mut(host).wake_pump(at_least) {
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
            // The flow-start notification and offered-byte accounting
            // already happened coordinator-side at pre-generation. The
            // flow's packet ids are reserved here, at injection, whether
            // its packets materialize now or are cut by the NIC later.
            SEv::Inject { flow: f } => {
                let host = f.src.index();
                // Ids are namespaced per shard (unobservable in any
                // report; uniqueness is all that matters).
                let id_base = ((self.id as u64 + 1) << 48) | self.next_pkt_id;
                let rec = StagedFlow::flow(&f, id_base, now, self.mtu);
                self.next_pkt_id += rec.pkts_left as u64;
                let held = self.gated(f.class) && !self.is_hw;
                let h = &mut self.hosts[self.local[host] as usize];
                if held {
                    // Slow mode: gated bytes feed scheduler requests at
                    // injection, so they materialize into host VOQs.
                    for pkt in rec {
                        let bytes = pkt.bytes as u64;
                        h.hold(&mut self.pool, pkt);
                        if self.track_buffers {
                            let enqueue = ShipKind::BufEnqueue {
                                site: Site::Host,
                                bytes,
                            };
                            self.ship.push((now, enqueue));
                        }
                    }
                } else {
                    h.stage(rec);
                }
                self.ensure_pump(now, host);
            }

            SEv::Pump { host } => {
                let h = &mut self.hosts[self.local[host] as usize];
                if now < h.nic_busy_until {
                    let at = h.nic_busy_until;
                    self.queue.schedule_at(at, (now, SEv::Pump { host }));
                    return;
                }
                let Some(pkt) = h.cut_staged() else {
                    h.pump_active = false;
                    return;
                };
                let tx = self.host_tx.tx_time(pkt.bytes as u64);
                h.nic_busy_until = now + tx;
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
                                let enqueue = ShipKind::BufEnqueue {
                                    site: Site::Switch,
                                    bytes,
                                };
                                self.ship.push((now, enqueue));
                            }
                        }
                        Err(_) => self.ship.push((now, ShipKind::Drop(DropCause::VoqFull))),
                    }
                } else {
                    // EPS admission reads shared switch state: defer.
                    self.ship.push((now, ShipKind::Eps(pkt)));
                }
            }

            SEv::HostGrant(g) => {
                let (ship, queue) = (&mut self.ship, &mut self.queue);
                let (prop, track) = (self.prop, self.track_buffers);
                let h = &mut self.hosts[self.local[g.host] as usize];
                h.send_granted(&mut self.pool, &mut self.host_tx, now, g, |pkt, dep| {
                    if track {
                        ship.push((
                            now,
                            ShipKind::BufRelease {
                                site: Site::Host,
                                bytes: pkt.bytes as u64,
                                release: dep,
                            },
                        ));
                    }
                    queue.schedule_at(dep + prop, (now, SEv::OcsIn { pkt }));
                });
            }

            SEv::OcsIn { pkt } => {
                // Circuit validation reads shared OCS state: defer.
                self.ship.push((now, ShipKind::OcsArrival(pkt)));
            }
        }
    }
}

/// The sharded fabric: K port groups plus the map that routes a port to
/// its group. Between windows the coordinator owns every shard, so its
/// operations reach into them directly.
struct Shards {
    shards: Vec<Shard>,
    map: ShardMap,
}

impl Shards {
    /// Partitions the built hosts (clock offsets were drawn in global
    /// port order at build, exactly as for the classic fabric) into the
    /// map's shards.
    fn new(co: &Coord, hosts: Vec<Host>, map: ShardMap) -> Self {
        let n = co.cfg.n_ports;
        assert_eq!(map.ports(), n, "shard map port-space mismatch");
        let mut host_slots: Vec<Option<Host>> = hosts.into_iter().map(Some).collect();
        let shards = (0..map.k())
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
                    proc: ProcessingLogic::with_rows(n, co.cfg.voq_capacity, ports.clone()),
                    ports,
                    queue: EventQueue::new(),
                    batch: Vec::new(),
                    host_tx: co.cfg.host_link.rate.tx_cache(),
                    is_hw: co.is_hw,
                    gate_interactive: co.cfg.voip_on_ocs,
                    mtu: co.cfg.mtu,
                    prop: co.cfg.host_link.propagation,
                    track_buffers: co.track_buffers,
                    next_pkt_id: 0,
                    pops: 0,
                    ship: Vec::new(),
                }
            })
            .collect();
        Shards { shards, map }
    }

    fn owner(&mut self, port: usize) -> &mut Shard {
        &mut self.shards[self.map.shard_of(port)]
    }
}

impl Fabric for Shards {
    /// Payloads carry the event's scheduling stamp, like the shard
    /// queues'.
    type Queue = EventQueue<(SimTime, CoordEv)>;

    fn post(q: &mut Self::Queue, at: SimTime, now: SimTime, ev: CoordEv) {
        q.schedule_at(at, (now, ev));
    }

    fn audit_epoch(&self) {
        for s in &self.shards {
            s.pool.debug_assert_conserved();
        }
    }

    fn requests_into(&mut self, hw: bool, now: SimTime, out: &mut Vec<SchedRequest>) {
        out.clear();
        for s in &mut self.shards {
            if hw {
                s.proc.take_requests_into(now, out);
            } else {
                for (h, &src) in s.hosts.iter_mut().zip(&s.ports) {
                    h.take_requests(src, now, out);
                }
            }
        }
        // Each shard's requests are in order; the merge restores the
        // global `(src, dst)` order of a full-fabric scan.
        out.sort_unstable_by_key(|r| (r.src, r.dst));
    }

    fn backlog(&self, hw: bool) -> u64 {
        let shard_total = |s: &Shard| -> u64 {
            if hw {
                s.proc.total_bytes()
            } else {
                s.hosts.iter().map(|h| h.voq_total).sum()
            }
        };
        self.shards.iter().map(shard_total).sum()
    }

    fn occupancy_into(&self, hw: bool, out: &mut DemandMatrix) {
        for s in &self.shards {
            if hw {
                s.proc.occupancy_rows_into(out);
            } else {
                for (h, &src) in s.hosts.iter().zip(&s.ports) {
                    h.occupancy_row_into(src, out);
                }
            }
        }
    }

    fn dequeue_upto_into(&mut self, i: usize, j: usize, budget: u64, out: &mut Vec<Packet>) {
        self.owner(i).proc.dequeue_upto_into(i, j, budget, out);
    }

    fn send_grant(&mut self, _q: &mut Self::Queue, at: SimTime, now: SimTime, g: Grant) {
        // Grants fan out to each source's owning shard.
        self.owner(g.host)
            .queue
            .schedule_at(at, (now, SEv::HostGrant(g)));
    }

    fn hold_at_host(&mut self, pkt: Packet) {
        let s = self.owner(pkt.src.index());
        let li = s.local[pkt.src.index()] as usize;
        s.hosts[li].hold(&mut s.pool, pkt);
    }

    fn stage_app(&mut self, _q: &mut Self::Queue, now: SimTime, rec: StagedFlow) {
        let host = rec.src.index();
        let s = self.owner(host);
        s.host_mut(host).stage(rec);
        s.ensure_pump(now, host);
    }

    fn finish(&self, counters: &mut CounterSet) {
        // Merge each shard's ledger set with kind-aware semantics:
        // tallies sum, peaks max.
        for s in &self.shards {
            let (allocs, frees, peak, growths) = s.proc.pool_ledger();
            counters.merge(&CounterSet {
                queue_spreads: s.queue.spread_count(),
                queue_spills: s.queue.spill_count(),
                queue_direct_sorts: s.queue.direct_sort_count(),
                pool_allocs: s.pool.alloc_count() + allocs,
                pool_frees: s.pool.free_count() + frees,
                // Same composition as the classic fabric's formula, per
                // shard: host-pool peak + VOQ-bank peak. Across shards
                // the merge takes the max — the documented peak semantic.
                pool_live_peak: s.pool.live_peak() + peak,
                pool_chunk_growths: s.pool.chunk_growth_count() + growths,
                ..Default::default()
            });
            if let Err(e) = s.pool.check_conserved() {
                panic!("end-of-run shard {} host pool audit failed: {e}", s.id);
            }
            if let Err(e) = s.proc.check_pool_conserved() {
                panic!("end-of-run shard {} switch pool audit failed: {e}", s.id);
            }
        }
    }
}

/// Runs the sharded core to the coordinator's horizon. Entered from
/// [`HybridSim::run`] when the build carries a shard map with `k > 1`.
pub(super) fn run_sharded(
    mut co: Coord,
    hosts: Vec<Host>,
    map: ShardMap,
    exec: ShardExec,
) -> RunReport {
    let horizon = co.horizon;
    let threaded = match exec {
        ShardExec::Inline => false,
        ShardExec::Threads => true,
        ShardExec::Auto => std::thread::available_parallelism().is_ok_and(|p| p.get() > 1),
    };
    let mut fab = Shards::new(&co, hosts, map);

    // Seed the coordinator queue exactly like the classic loop, except
    // flows are pre-generated at barriers instead of chained through
    // `Ev::NextFlow` (the generator's draw order is preserved — one draw
    // ahead, next draw on injection). Seeds carry the stamp `ZERO`, which
    // matches the classic loop scheduling them before the first pop.
    let mut cq: EventQueue<(SimTime, CoordEv)> = EventQueue::new();
    co.draw_first_flow();
    co.seed::<Shards>(&mut cq);

    let mut events: u64 = 0;
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
        let next = match cq.peek_time() {
            Some(t) if t <= horizon => cq.pop(),
            _ => None,
        };
        let limit = next.as_ref().map(|(t, (s, _))| (*t, *s));
        pregen_flows(&mut co, &mut fab, limit, &mut pending_sched);
        run_windows(&mut fab.shards, limit, horizon, threaded);
        replay_ships(&mut co, &mut fab.shards, &mut replay_buf);
        let Some((now, (_, ev))) = next else { break };
        events += 1;
        end_time = end_time.max(now);
        co.handle(&mut fab, &mut cq, now, ev);
    }
    for s in &fab.shards {
        events += s.pops;
        end_time = end_time.max(s.queue.now());
    }
    co.into_report(&fab, &cq, events, end_time)
}

/// Injects every pending flow due before `limit = (T_next, sched_coord)`
/// (or up to the horizon when no coordinator event remains) into its
/// source shard, drawing follow-ups in exactly the order `Ev::NextFlow`
/// would have. A flow starting at exactly `T_next` is due iff its draw
/// (`pending_sched`, the previous flow's start — `None` for the
/// pre-loop seed draw) predates the coordinator event's stamp, which is
/// when K = 1 would have scheduled its `Ev::NextFlow`.
fn pregen_flows(
    co: &mut Coord,
    fab: &mut Shards,
    limit: Option<(SimTime, SimTime)>,
    pending_sched: &mut Option<SimTime>,
) {
    loop {
        let Some(f) = co.pending_flow.take() else {
            return;
        };
        let due = match limit {
            Some((lt, ls)) => {
                f.start < lt || (f.start == lt && pending_sched.is_none_or(|s| s < ls))
            }
            None => f.start <= co.horizon,
        };
        if !due {
            co.pending_flow = Some(f);
            return;
        }
        co.offer_flow(&f, f.start);
        let start = f.start;
        let sched = pending_sched.unwrap_or(SimTime::ZERO);
        fab.owner(f.src.index())
            .queue
            .schedule_at(start, (sched, SEv::Inject { flow: f }));
        *pending_sched = Some(start);
        if let Some(g) = &mut co.flowgen {
            let next = g.next_flow();
            if next.start <= co.flow_stop && next.start <= co.horizon {
                co.pending_flow = Some(next);
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
/// order — the cross-shard merge rule that pins determinism. EPS and
/// slow-mode OCS arrivals go through the same coordinator methods the
/// classic loop calls inline: fault flags and switch state only change
/// at coordinator events, so the state seen here equals what K = 1 saw
/// at `t`.
fn replay_ships(
    co: &mut Coord,
    shards: &mut [Shard],
    buf: &mut Vec<(SimTime, u32, u64, ShipKind)>,
) {
    buf.clear();
    for s in shards.iter_mut() {
        let sid = s.id as u32;
        let shipped = s.ship.drain(..).enumerate();
        buf.extend(shipped.map(|(seq, (t, kind))| (t, sid, seq as u64, kind)));
    }
    buf.sort_unstable_by_key(|&(t, sid, seq, _)| (t, sid, seq));
    for (t, _, _, kind) in buf.drain(..) {
        match kind {
            ShipKind::Eps(pkt) => co.eps_arrival(&pkt, t),
            ShipKind::OcsArrival(pkt) => co.ocs_arrival(&pkt, t),
            ShipKind::Drop(cause) => co.drop_sink.on_drop(cause, t),
            ShipKind::BufEnqueue { site, bytes } => co.buffers.on_enqueue(site, bytes, t),
            ShipKind::BufRelease {
                site,
                bytes,
                release,
            } => co.buffers.on_dequeue_at(site, bytes, release),
        }
    }
}
