//! Driving one deployment through the public `System` API: set-up, the
//! segmented open-loop replay, mailbox collection, oracle judgment and
//! the step tracer.

use crate::workload::{plan_segment, Action, Inputs, Params, Workload};
use gsa_bench::runners::rebuild_index_of;
use gsa_bench::{Oracle, Quality};
use gsa_core::System;
use gsa_profile::parse_profile;
use gsa_simnet::{CounterId, NodeId};
use gsa_types::{ClientId, CollectionId, HostName, ProfileId, SimDuration, SimTime};
use gsa_workload::schedule::Rebuild;
use gsa_workload::RebuildSchedule;
use std::cell::Cell;
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;
use std::time::Instant;

/// Simulated time for GDS registration and version negotiation before
/// any profile is subscribed.
const JOIN: SimDuration = SimDuration::from_secs(5);
/// Simulated time after the last subscription for interest summaries
/// and rendezvous grants to settle.
const SETTLE: SimDuration = SimDuration::from_secs(5);
/// Simulated time after the last segment for retransmissions to finish.
const FINAL_DRAIN: SimDuration = SimDuration::from_secs(10);

/// The counters the benchmark reads, as deltas over a window.
pub const COUNTERS: [&str; 16] = [
    "net.sent",
    "net.bytes",
    "net.delivered",
    "net.dropped",
    "net.retransmits",
    "net.frames",
    "net.acks",
    "gds.pruned_edges",
    "gds.rendezvous_confined",
    "gds.summary_updates",
    "core.probe_skip",
    "core.probe_pass",
    "core.decode_error",
    "aux.dead_letter",
    "alerts.firing",
    "state.journal_appends",
];

/// A snapshot of [`COUNTERS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters([u64; COUNTERS.len()]);

impl Counters {
    /// Reads every counter now.
    pub fn read(system: &System) -> Counters {
        let metrics = system.metrics();
        Counters(COUNTERS.map(|name| metrics.counter(name)))
    }

    /// `self - earlier`, counter by counter.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let mut out = [0; COUNTERS.len()];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.0[i] - earlier.0[i];
        }
        Counters(out)
    }

    /// One counter by name.
    ///
    /// # Panics
    ///
    /// Panics on a name outside [`COUNTERS`].
    pub fn get(&self, name: &str) -> u64 {
        let i = COUNTERS
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a benchmark counter"));
        self.0[i]
    }
}

/// The role of the node a simulator step delivered to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A GDS directory node.
    Gds = 0,
    /// A Greenstone server (the alerting core).
    Server = 1,
    /// No delivery: timers, start-up and control items.
    Timer = 2,
}

/// Wall time and call count of one kind of driver call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    /// Calls made.
    pub calls: u64,
    /// Their summed wall time in seconds.
    pub secs: f64,
}

impl Acc {
    fn add(&mut self, started: Instant) {
        self.calls += 1;
        self.secs += started.elapsed().as_secs_f64();
    }

    /// Mean microseconds per call (0 with no calls).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.secs * 1e6 / self.calls as f64
        }
    }
}

/// Times every simulator step and driver call of the timed phase.
///
/// It steps the simulator itself instead of calling `run_until`: a
/// sentinel scheduled at the deadline marks where `run_until` would have
/// stopped, and a pass that runs nothing but its sentinel proves no
/// item at or before the deadline is left. The sentinel touches no
/// state and draws no randomness, and the items around it keep their
/// relative order, so the run stays bit-identical to an untraced one.
#[derive(Debug, Clone)]
pub struct Tracer {
    roles: Vec<Role>,
    received: Vec<u64>,
    /// Steps per role, indexed by `Role as usize`.
    pub steps: [u64; 3],
    /// Busy seconds per role.
    pub busy: [f64; 3],
    /// `System::rebuild` calls.
    pub rebuild: Acc,
    /// `System::subscribe` calls.
    pub subscribe: Acc,
    /// `System::unsubscribe` calls.
    pub unsubscribe: Acc,
    /// `System::take_notifications` calls.
    pub collect: Acc,
    /// The tracer's own bookkeeping: sentinels, role lookups, clocks.
    pub overhead_s: f64,
}

impl Tracer {
    fn new(system: &System, roles: Vec<Role>) -> Tracer {
        let mut received = vec![0; roles.len()];
        for (node, count) in system.metrics().node_received() {
            received[node.as_u32() as usize] = count;
        }
        Tracer {
            roles,
            received,
            steps: [0; 3],
            busy: [0.0; 3],
            rebuild: Acc::default(),
            subscribe: Acc::default(),
            unsubscribe: Acc::default(),
            collect: Acc::default(),
            overhead_s: 0.0,
        }
    }

    /// Seconds attributed to a layer: every step plus every driver call.
    pub fn attributed_s(&self) -> f64 {
        self.busy.iter().sum::<f64>()
            + self.rebuild.secs
            + self.subscribe.secs
            + self.unsubscribe.secs
            + self.collect.secs
    }

    fn run_until(&mut self, system: &mut System, deadline: SimTime) {
        loop {
            let book = Instant::now();
            let fired = Rc::new(Cell::new(false));
            let flag = Rc::clone(&fired);
            system
                .sim_mut()
                .schedule_at(deadline, move |_| flag.set(true));
            self.overhead_s += book.elapsed().as_secs_f64();
            let mut ran = 0usize;
            loop {
                let delivered = system.metrics().counter_value(CounterId::NET_DELIVERED);
                let started = Instant::now();
                system.sim_mut().step();
                let took = started.elapsed().as_secs_f64();
                let book = Instant::now();
                if fired.get() {
                    self.overhead_s += took + book.elapsed().as_secs_f64();
                    break;
                }
                ran += 1;
                let role = if system.metrics().counter_value(CounterId::NET_DELIVERED) != delivered
                {
                    self.receiver_role(system)
                } else {
                    Role::Timer
                };
                self.steps[role as usize] += 1;
                self.busy[role as usize] += took;
                self.overhead_s += book.elapsed().as_secs_f64();
            }
            if ran == 0 {
                return;
            }
        }
    }

    /// The role of the one node whose receive count just moved.
    fn receiver_role(&mut self, system: &System) -> Role {
        for (node, count) in system.metrics().node_received() {
            let idx = node.as_u32() as usize;
            if self.received[idx] != count {
                self.received[idx] = count;
                return self.roles[idx];
            }
        }
        Role::Timer
    }
}

/// How the driver advances simulated time.
#[derive(Debug)]
pub enum Clock {
    /// `System::run_until`, untimed.
    Plain,
    /// Stepped and attributed by a [`Tracer`].
    Traced(Box<Tracer>),
}

impl Clock {
    fn run_until(&mut self, system: &mut System, deadline: SimTime) {
        match self {
            Clock::Plain => {
                system.run_until(deadline);
            }
            Clock::Traced(tracer) => tracer.run_until(system, deadline),
        }
    }

    /// The tracer, when tracing.
    pub fn tracer(&self) -> Option<&Tracer> {
        match self {
            Clock::Plain => None,
            Clock::Traced(t) => Some(t),
        }
    }

    fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        match self {
            Clock::Plain => None,
            Clock::Traced(t) => Some(t),
        }
    }
}

/// One state-store operation of the run, for the journal replay.
#[derive(Debug, Clone, Copy)]
pub enum StoreOp {
    /// Profile index subscribed under a profile id and client.
    Subscribe(usize, ProfileId, ClientId),
    /// A profile id cancelled.
    Unsubscribe(ProfileId),
}

/// Wall time and size of one segment of the timed phase.
#[derive(Debug, Clone, Copy)]
pub struct SegmentStat {
    /// Rebuild events issued.
    pub events: usize,
    /// Wall seconds of replay plus drain.
    pub wall_s: f64,
    /// Wall seconds of the reference kernel run just before the segment.
    pub ref_s: f64,
    /// Index into [`Driver::subscribe_us`] of the segment's first call.
    pub first_call: usize,
}

/// What the deterministic metrics are computed from: everything a
/// traced run must reproduce exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// Rebuild events in the window.
    pub events: usize,
    /// Counter deltas over the window.
    pub counters: Counters,
    /// Latency of each delivery in the window, sorted, microseconds.
    pub delays_us: Vec<u64>,
    /// FNV-1a over the sorted `(profile, rebuild, origin, at)` deliveries.
    pub delivery_hash: u64,
}

impl Signature {
    /// Messages sent per rebuild event.
    pub fn msgs_per_event(&self) -> f64 {
        self.counters.get("net.sent") as f64 / self.events as f64
    }

    /// Bytes sent per rebuild event.
    pub fn bytes_per_event(&self) -> f64 {
        self.counters.get("net.bytes") as f64 / self.events as f64
    }

    /// The `q`-quantile delivery latency in milliseconds (nearest rank).
    pub fn delay_ms(&self, q: f64) -> f64 {
        let rank = (q * self.delays_us.len() as f64).ceil() as usize;
        match self.delays_us.len() {
            0 => 0.0,
            n => self.delays_us[rank.clamp(1, n) - 1] as f64 / 1e3,
        }
    }
}

/// One delivered notification, mapped back to the oracle's indices.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Delivery {
    /// Profile index.
    pub profile: usize,
    /// Global rebuild index.
    pub rebuild: usize,
    /// Announced origin.
    pub origin: CollectionId,
    /// Simulated mailbox time.
    pub at: SimTime,
}

/// A deployment driven through the public `System` API.
pub struct Driver<'a> {
    params: &'a Params,
    inputs: &'a Inputs,
    seed: u64,
    /// The deployment.
    pub system: System,
    /// Each profile's current client and profile id.
    current: Vec<(ClientId, ProfileId)>,
    /// Clients retired by churn whose mailboxes are still to be drained.
    retired: Vec<(usize, ClientId)>,
    next_client: u64,
    roles: Vec<Role>,
    /// Wall microseconds of every `subscribe` and `unsubscribe` call.
    pub subscribe_us: Vec<f64>,
    /// Every `subscribe` call, set-up and churn.
    pub subscribe_calls: Acc,
    /// Every `unsubscribe` call.
    pub unsubscribe_calls: Acc,
    /// Every state-store operation issued, in order.
    pub store_ops: Vec<StoreOp>,
    /// Every rebuild issued, by global index.
    pub schedule: Vec<Rebuild>,
    /// Every delivery collected.
    pub deliveries: Vec<Delivery>,
    /// Notifications whose documents name no rebuild.
    pub unmapped: u64,
    /// Rebuild calls the system refused.
    pub rebuild_errors: u64,
    /// Per-segment timing.
    pub segments: Vec<SegmentStat>,
    /// Wall seconds of the reference kernel run after the last segment.
    pub ref_after_s: f64,
    /// Peak resident MiB of the process when the deterministic prefix
    /// ends: set-ups plus a fixed amount of replay, whatever the speed.
    pub prefix_rss_mb: f64,
    /// Wall seconds spent draining mailboxes, outside the timed phase.
    pub collect_s: f64,
}

impl<'a> Driver<'a> {
    /// Builds a deployment from an empty `System` to ready: topology,
    /// collections, every profile parsed and subscribed, summaries
    /// settled. Returns it with its wall-clock set-up seconds.
    pub fn setup(
        workload: Workload,
        params: &'a Params,
        inputs: &'a Inputs,
        seed: u64,
    ) -> (Driver<'a>, f64) {
        let started = Instant::now();
        let mut system = System::new(seed);
        workload.configure(&mut system);
        let (topo, assignment) = inputs.world.gds_tree(params.fanout);
        system.add_gds_topology(&topo);
        for (host, gds) in &assignment {
            system.add_server(host.as_str(), gds.as_str());
        }
        for (host, configs) in &inputs.world.collections {
            for config in configs {
                system.add_collection(host.as_str(), config.clone());
            }
        }
        system.run_until(SimTime::ZERO + JOIN);

        let mut subscribe_us = Vec::with_capacity(inputs.texts.len());
        let mut subscribe_calls = Acc::default();
        let mut store_ops = Vec::with_capacity(inputs.texts.len());
        let mut current = Vec::with_capacity(inputs.texts.len());
        for (p, text) in inputs.texts.iter().enumerate() {
            let expr = parse_profile(text).expect("generated profile parses");
            let host = inputs.population.profiles[p].0.as_str();
            let client = ClientId::from_raw(p as u64);
            let call = Instant::now();
            let pid = system
                .subscribe(host, client, expr)
                .expect("generated profile indexes");
            subscribe_us.push(call.elapsed().as_secs_f64() * 1e6);
            subscribe_calls.add(call);
            store_ops.push(StoreOp::Subscribe(p, pid, client));
            current.push((client, pid));
        }
        let settled = system.now() + SETTLE;
        system.run_until(settled);
        let setup_s = started.elapsed().as_secs_f64();

        let mut roles = vec![Role::Timer; system.sim().node_count()];
        for name in topo.names() {
            let id = system
                .directory()
                .lookup(name)
                .expect("gds node registered");
            roles[id.as_u32() as usize] = Role::Gds;
        }
        for host in &inputs.world.hosts {
            let id: NodeId = system.directory().lookup(host).expect("server registered");
            roles[id.as_u32() as usize] = Role::Server;
        }
        let next_client = inputs.texts.len() as u64;
        let driver = Driver {
            params,
            inputs,
            seed,
            system,
            current,
            retired: Vec::new(),
            next_client,
            roles,
            subscribe_us,
            subscribe_calls,
            unsubscribe_calls: Acc::default(),
            store_ops,
            schedule: Vec::new(),
            deliveries: Vec::new(),
            unmapped: 0,
            rebuild_errors: 0,
            segments: Vec::new(),
            ref_after_s: 0.0,
            prefix_rss_mb: 0.0,
            collect_s: 0.0,
        };
        (driver, setup_s)
    }

    /// A clock for the timed phase: traced or plain.
    pub fn clock(&self, traced: bool) -> Clock {
        if traced {
            Clock::Traced(Box::new(Tracer::new(&self.system, self.roles.clone())))
        } else {
            Clock::Plain
        }
    }

    /// Runs the timed phase: at least `min_segments` segments, then more
    /// until `seconds` of timed wall time have passed, calling `between`
    /// (untimed) after each of those extra segments. Returns the
    /// signature of the first `min_segments` segments, which every run
    /// of the seed reproduces exactly.
    pub fn run_phase(
        &mut self,
        clock: &mut Clock,
        seconds: f64,
        between: &mut dyn FnMut(),
    ) -> Signature {
        self.system.set_drop_probability(self.params.drop);
        let before = Counters::read(&self.system);
        let mut signature = None;
        let mut timed_s = 0.0;
        let mut segment = 0;
        while signature.is_none() || timed_s < seconds {
            let start = self.system.now();
            let plan = plan_segment(
                self.params,
                self.inputs,
                self.seed,
                segment,
                start,
                self.schedule.len(),
            );
            let end = start + self.params.segment_horizon + self.params.drain;
            let events = self.params.segment_rebuilds;
            let ref_s = crate::report::reference_kernel();
            let first_call = self.subscribe_us.len();
            let started = Instant::now();
            for (at, action) in plan {
                clock.run_until(&mut self.system, at);
                match action {
                    Action::Rebuild(k, collection, docs) => {
                        self.schedule.push(Rebuild {
                            at,
                            collection: collection.clone(),
                            docs: docs.len(),
                        });
                        debug_assert_eq!(self.schedule.len(), k + 1);
                        let call = Instant::now();
                        let result = self.system.rebuild(
                            collection.host().as_str(),
                            collection.name().as_str(),
                            docs,
                        );
                        if let Some(t) = clock.tracer_mut() {
                            t.rebuild.add(call);
                        }
                        if result.is_err() {
                            self.rebuild_errors += 1;
                        }
                    }
                    Action::Churn(p) => self.churn(clock, p),
                }
            }
            clock.run_until(&mut self.system, end);
            let wall_s = started.elapsed().as_secs_f64();
            timed_s += wall_s;
            self.segments.push(SegmentStat {
                events,
                wall_s,
                ref_s,
                first_call,
            });
            self.collect(clock);
            segment += 1;
            if segment == self.params.min_segments {
                signature = Some(self.signature(&before));
                self.prefix_rss_mb = crate::report::peak_rss_mb();
            } else if signature.is_some() {
                between();
            }
        }
        self.ref_after_s = crate::report::reference_kernel();
        signature.expect("min_segments is at least one")
    }

    /// Runs on past the last segment until retransmissions settle and
    /// drains every mailbox, so the oracle judges the complete run.
    pub fn finish(&mut self, clock: &mut Clock) {
        let end = self.system.now() + FINAL_DRAIN;
        clock.run_until(&mut self.system, end);
        self.collect(clock);
    }

    /// Moves profile `p` to a fresh client: subscribes its expression
    /// under the new client, then cancels the old subscription (make
    /// before break). Both calls happen at one simulated instant, so the
    /// interest never lapses and no event can match both; the old
    /// client's mailbox is drained at the next collection and both map
    /// back to `p`.
    ///
    /// Break-before-make would briefly shrink the server's interest
    /// summary, and an event already in flight may then be pruned short
    /// of the new subscription before its summary propagates. The
    /// system promises a new subscription nothing until then, but the
    /// oracle has no notion of a subscription's start, so it would count
    /// such a miss as a false negative.
    fn churn(&mut self, clock: &mut Clock, p: usize) {
        let host = self.inputs.population.profiles[p].0.clone();
        let (old_client, old_pid) = self.current[p];
        let client = ClientId::from_raw(self.next_client);
        self.next_client += 1;
        let expr = self.inputs.population.profiles[p].2.clone();
        let call = Instant::now();
        let pid = self
            .system
            .subscribe(host.as_str(), client, expr)
            .expect("re-subscribed profile indexes");
        self.subscribe_us.push(call.elapsed().as_secs_f64() * 1e6);
        self.subscribe_calls.add(call);
        if let Some(t) = clock.tracer_mut() {
            t.subscribe.add(call);
        }
        self.store_ops.push(StoreOp::Subscribe(p, pid, client));
        self.current[p] = (client, pid);

        let call = Instant::now();
        let removed = self.system.unsubscribe(host.as_str(), old_pid);
        self.subscribe_us.push(call.elapsed().as_secs_f64() * 1e6);
        self.unsubscribe_calls.add(call);
        if let Some(t) = clock.tracer_mut() {
            t.unsubscribe.add(call);
        }
        assert!(removed, "churned profile {p} was subscribed");
        self.store_ops.push(StoreOp::Unsubscribe(old_pid));
        self.retired.push((p, old_client));
    }

    /// Drains every live and retired mailbox into [`Driver::deliveries`].
    fn collect(&mut self, clock: &mut Clock) {
        let started = Instant::now();
        let mut mailboxes: Vec<(usize, ClientId)> = self
            .current
            .iter()
            .enumerate()
            .map(|(p, (client, _))| (p, *client))
            .collect();
        mailboxes.append(&mut self.retired);
        for (p, client) in mailboxes {
            let host: &HostName = &self.inputs.population.profiles[p].0;
            let call = Instant::now();
            let inbox = self.system.take_notifications(host.as_str(), client);
            if let Some(t) = clock.tracer_mut() {
                t.collect.add(call);
            }
            for n in inbox {
                let rebuild = n
                    .event
                    .docs
                    .iter()
                    .filter_map(|d| rebuild_index_of(d.doc.as_str()))
                    .max();
                match rebuild {
                    Some(k) if k < self.schedule.len() => self.deliveries.push(Delivery {
                        profile: p,
                        rebuild: k,
                        origin: n.event.origin.clone(),
                        at: n.at,
                    }),
                    _ => self.unmapped += 1,
                }
            }
        }
        self.collect_s += started.elapsed().as_secs_f64();
    }

    fn signature(&self, before: &Counters) -> Signature {
        let counters = Counters::read(&self.system).since(before);
        let mut delays_us: Vec<u64> = self
            .deliveries
            .iter()
            .map(|d| d.at.since(self.schedule[d.rebuild].at).as_micros())
            .collect();
        delays_us.sort_unstable();
        let mut sorted: Vec<&Delivery> = self.deliveries.iter().collect();
        sorted.sort();
        let mut hash = crate::report::Fnv::new();
        for d in sorted {
            hash.write_u64(d.profile as u64);
            hash.write_u64(d.rebuild as u64);
            hash.write(d.origin.to_string().as_bytes());
            hash.write_u64(d.at.as_micros());
        }
        Signature {
            events: self.schedule.len(),
            counters,
            delays_us,
            delivery_hash: hash.finish(),
        }
    }

    /// Judges every collected delivery against the oracle.
    pub fn judge(&self) -> Judgment {
        let schedule = RebuildSchedule {
            rebuilds: self.schedule.clone(),
        };
        let oracle = Oracle::build(
            &self.inputs.world,
            &self.inputs.population,
            &schedule,
            &HashMap::new(),
            &HashMap::new(),
            SimDuration::from_secs(2),
        );
        let triples: Vec<(usize, usize, CollectionId)> = self
            .deliveries
            .iter()
            .map(|d| (d.profile, d.rebuild, d.origin.clone()))
            .collect();
        let quality = oracle.classify(&triples);

        // The rebuilds with any missing, unexpected or repeated pair.
        let mut seen: HashMap<&(usize, usize, CollectionId), u32> = HashMap::new();
        for t in &triples {
            *seen.entry(t).or_default() += 1;
        }
        let mut failed: BTreeSet<usize> = BTreeSet::new();
        for (t, n) in &seen {
            if *n > 1 || !oracle.is_expected(t.0, t.1, &t.2) {
                failed.insert(t.1);
            }
        }
        for t in oracle.expected_iter() {
            if !seen.contains_key(t) {
                failed.insert(t.1);
            }
        }
        Judgment {
            quality,
            failed_events: failed.len() as u64 + self.unmapped + self.rebuild_errors,
        }
    }
}

/// The oracle's verdict on a run.
#[derive(Debug, Clone, Copy)]
pub struct Judgment {
    /// Pair counts by class.
    pub quality: Quality,
    /// Rebuild events with any wrong pair, plus unmapped notifications
    /// and refused rebuilds.
    pub failed_events: u64,
}

impl Judgment {
    /// Whether every pair was delivered exactly once and nothing else.
    pub fn exact(&self) -> bool {
        let q = &self.quality;
        q.false_negatives == 0
            && q.false_positives == 0
            && q.duplicates == 0
            && self.failed_events == 0
    }

    /// (false negatives + false positives + duplicates) ÷ expected.
    pub fn error_share(&self) -> f64 {
        let q = &self.quality;
        (q.false_negatives + q.false_positives + q.duplicates) as f64 / q.expected.max(1) as f64
    }

    /// Expected pairs delivered ÷ every judged delivery or miss: 1 only
    /// when nothing is missing, unexpected or repeated.
    pub fn exact_share(&self) -> f64 {
        let q = &self.quality;
        let judged = q.expected + q.false_positives + q.duplicates;
        if judged == 0 {
            1.0
        } else {
            q.delivered as f64 / judged as f64
        }
    }
}
