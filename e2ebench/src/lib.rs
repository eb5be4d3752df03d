//! End-to-end host-time benchmark of the FasTrak simulator.
//!
//! Three seeded workloads are composed from the public API (`Testbed`, the
//! `fastrak_workload` apps, `fastrak::attach`) and simulated for a fixed
//! simulated horizon. Each repetition yields an [`Outcome`]: the host time
//! of the run and the deterministic simulated counts that the
//! [fingerprint](Outcome::fingerprint) hashes. A traced repetition also
//! times every `Kernel::step()` and attributes it to one of four classes
//! (see [`StepTrace`]) from the public counters the step advanced.

use std::collections::BTreeMap;
use std::time::Instant;

use fastrak::{attach, DeConfig, FasTrak, FasTrakConfig, FastPathPolicy, Timing};
use fastrak_host::vm::VmSpec;
use fastrak_net::addr::{Ip, TenantId};
use fastrak_net::packet::PathTag;
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_telemetry::{Histogram, Registry};
use fastrak_transport::cc::CcAlgo;
use fastrak_transport::tcp::TcpConfig;
use fastrak_workload::{
    add_churner, incast_worker, memcached_server, ChurnerConfig, IncastAggregator, IncastConfig,
    MemslapClient, MemslapConfig, TenantFleet, TenantFleetConfig, Testbed, TestbedConfig, VmRef,
};

/// The seed whose fingerprints are pinned in [`pinned_fingerprint`].
pub const DEFAULT_SEED: u64 = 1;

/// Simulated-time slices per repetition; each is one traced span.
const SLICES: u64 = 10;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Memcached + memslap over the VIF path with VXLAN, no controller.
    RrVif,
    /// DCTCP+ECN partition-aggregate over SR-IOV VFs, vswitch bypassed.
    IncastVf,
    /// Zipf tenant fleets + the churner under FasTrak controllers.
    ChurnFastrak,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::RrVif, Workload::IncastVf, Workload::ChurnFastrak];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RrVif => "rr_vif",
            Workload::IncastVf => "incast_vf",
            Workload::ChurnFastrak => "churn_fastrak",
        }
    }

    /// Look a workload up by name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The fixed simulated horizon of one repetition, sized so that one
    /// repetition takes half a second to two seconds of host time.
    pub fn horizon(self) -> SimTime {
        match self {
            Workload::RrVif => SimTime::from_millis(2_000),
            Workload::IncastVf => SimTime::from_millis(1_000),
            Workload::ChurnFastrak => SimTime::from_millis(600),
        }
    }
}

/// Fingerprint of the default seed's outcome at the default horizon. A
/// change that only speeds the simulator up must leave these unchanged.
pub fn pinned_fingerprint(w: Workload) -> u64 {
    match w {
        Workload::RrVif => 0xb9da_7a43_be58_3a92,
        Workload::IncastVf => 0xb4ba_d237_bde5_8124,
        Workload::ChurnFastrak => 0xea92_6883_90d9_271d,
    }
}

/// One recorded host-time span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What the benchmark called.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Host ns since the recorder was created.
    pub start_ns: u64,
    /// Host ns since the recorder was created.
    pub end_ns: u64,
}

/// Times the benchmark's calls into each layer; keeps spans in memory only
/// when enabled.
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    list: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; `enabled` decides whether spans are kept.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            epoch: Instant::now(),
            enabled,
            list: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span; returns its start for [`Spans::close`].
    pub fn open(&mut self, name: impl Into<String>) -> Instant {
        let now = Instant::now();
        if self.enabled {
            let ns = now.duration_since(self.epoch).as_nanos() as u64;
            self.list.push(Span {
                name: name.into(),
                parent: self.open.last().copied(),
                start_ns: ns,
                end_ns: ns,
            });
            self.open.push(self.list.len() - 1);
        }
        now
    }

    /// Close the innermost open span; returns its duration in seconds.
    pub fn close(&mut self, start: Instant) -> f64 {
        let now = Instant::now();
        if self.enabled {
            let i = self.open.pop().expect("close without open");
            self.list[i].end_ns = now.duration_since(self.epoch).as_nanos() as u64;
        }
        now.duration_since(start).as_secs_f64()
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.list
    }
}

/// The four classes a kernel step is attributed to, in priority order.
pub const CLASSES: [&str; 4] = ["switch.tor", "host.rx", "host.tx", "host.guest"];

/// Host time of the steps of one class.
#[derive(Clone, Default)]
pub struct ClassTime {
    /// Per-step host ns.
    pub hist: Histogram,
    /// Total host ns.
    pub busy_ns: u64,
    /// Steps per power-of-two ns bucket (`log2[k]` counts `[2^k, 2^(k+1))`).
    pub log2: [u64; 32],
}

impl ClassTime {
    fn record(&mut self, ns: u64) {
        self.hist.record(ns);
        self.busy_ns += ns;
        self.log2[(63 - ns.max(1).leading_zeros() as usize).min(31)] += 1;
    }

    /// Merge another class's samples into this one.
    pub fn merge(&mut self, o: &ClassTime) {
        self.hist.merge(&o.hist);
        self.busy_ns += o.busy_ns;
        for (a, b) in self.log2.iter_mut().zip(o.log2) {
            *a += b;
        }
    }
}

/// Per-step timing and attribution of a traced repetition.
///
/// A step counts as `switch.tor` when the ToR's frame or drop counters
/// moved, else `host.rx` when a server's rx counters moved, else `host.tx`
/// when a server's tx or drop counters moved, else `host.guest` (guest
/// transport and app completions, timers, controller messages).
#[derive(Clone, Default)]
pub struct StepTrace {
    /// Per-class host time, indexed like [`CLASSES`].
    pub classes: [ClassTime; 4],
    /// Most events pending in the kernel after any step.
    pub pending_peak: u64,
}

/// The counters whose movement classifies a step: ToR, server rx, server tx.
fn probe(bed: &Testbed) -> [u64; 3] {
    let t = &bed.tor().stats;
    let mut out = [t.hw_frames + t.sw_frames + t.acl_drops + t.fwd_drops, 0, 0];
    for i in 0..bed.servers.len() {
        let s = &bed.server(i).stats;
        out[1] += s.rx_frames + s.rx_drops;
        out[2] += s.tx_sw_frames
            + s.tx_hw_frames
            + s.tx_ring_drops
            + s.policy_drops
            + s.hw_path_drops
            + s.no_route_drops;
    }
    out
}

impl StepTrace {
    /// Step the kernel one event at a time up to `end`, timing each step.
    /// Delivers exactly the events `Testbed::run_until(end)` would.
    fn run_until(&mut self, bed: &mut Testbed, end: SimTime) {
        let mut before = probe(bed);
        while bed.kernel.next_event_time().is_some_and(|t| t <= end) {
            let t0 = Instant::now();
            bed.kernel.step();
            let ns = t0.elapsed().as_nanos() as u64;
            let after = probe(bed);
            let class = (0..3).find(|&k| after[k] != before[k]).unwrap_or(3);
            self.classes[class].record(ns);
            self.pending_peak = self.pending_peak.max(bed.kernel.pending_events() as u64);
            before = after;
        }
        bed.run_until(end);
    }

    /// Merge another trace into this one.
    pub fn merge(&mut self, o: &StepTrace) {
        for (a, b) in self.classes.iter_mut().zip(&o.classes) {
            a.merge(b);
        }
        self.pending_peak = self.pending_peak.max(o.pending_peak);
    }
}

/// What a workload placed, for reading its results back.
enum Apps {
    Memslap(Vec<VmRef>),
    Incast(VmRef),
    Fleet(TenantFleet),
}

/// Host time of the set-up phases, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `Testbed::build`.
    pub build_s: f64,
    /// VM and fleet placement.
    pub place_s: f64,
    /// `fastrak::attach`, `FasTrak::start` and `Testbed::start`.
    pub attach_s: f64,
}

impl SetupTimes {
    /// Total set-up time.
    pub fn total_s(&self) -> f64 {
        self.build_s + self.place_s + self.attach_s
    }
}

/// The result of one repetition.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Deterministic simulated counts, by metric name.
    pub counts: BTreeMap<&'static str, u64>,
    /// Host seconds to simulate the horizon after set-up.
    pub run_s: f64,
    /// Host ns the decision engine measured for its own epochs.
    pub de_epoch_ns: u64,
}

impl Outcome {
    /// FNV-1a hash of every count (name and value, in name order). Equal
    /// fingerprints mean the same simulated work was done.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (name, v) in &self.counts {
            for b in name.bytes().chain([b'=']).chain(v.to_le_bytes()) {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// A count by name (0 when absent).
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

const TENANT: TenantId = TenantId(1);
/// Incast response size per worker per round (as in `incast_matrix`).
const RESP_SIZE: u64 = 16_000;

fn place(w: Workload, bed: &mut Testbed) -> Apps {
    match w {
        Workload::RrVif => {
            // Table 1(a): two memcached VMs on a test server pinned to four
            // CPUs, five memslap clients on the other servers.
            bed.server_mut(0).set_pinned_cpus(Some(4));
            let mc_ips = [Ip::tenant_vm(1), Ip::tenant_vm(2)];
            for (i, &ip) in mc_ips.iter().enumerate() {
                bed.add_vm(
                    0,
                    VmSpec::large(format!("mc{i}"), TENANT, ip),
                    Box::new(memcached_server()),
                );
            }
            let clients = (0..5u16)
                .map(|c| {
                    let mut cfg = MemslapConfig::paper(mc_ips.to_vec(), None);
                    cfg.conns_per_target = 2;
                    cfg.burst = 2;
                    cfg.src_port_base = 43_000 + c * 64;
                    bed.add_vm(
                        c as usize + 1,
                        VmSpec::large(format!("slap{c}"), TENANT, Ip::tenant_vm(10 + c)),
                        Box::new(MemslapClient::new(cfg)),
                    )
                })
                .collect();
            Apps::Memslap(clients)
        }
        Workload::IncastVf => {
            // The DCTCP cell of `incast_matrix`, pinned to SR-IOV, with 16
            // workers round-robin on s1-s4 and the aggregator alone on s0.
            let tcp = TcpConfig {
                cc: CcAlgo::Dctcp,
                ecn: true,
                sack: true,
                ..TcpConfig::default()
            };
            let k = Some(SimDuration::from_micros(60));
            bed.tor_mut().cfg.ecn_mark_threshold = k;
            for i in 0..bed.servers.len() {
                bed.server_mut(i).cfg.ecn_mark_threshold = k;
            }
            let mut refs = Vec::new();
            let mut ips = Vec::new();
            for i in 0..16u16 {
                let ip = Ip::tenant_vm(i + 2);
                refs.push(bed.add_vm_tcp(
                    1 + i as usize % 4,
                    VmSpec::medium(format!("w{i}"), TENANT, ip),
                    Box::new(incast_worker(RESP_SIZE)),
                    tcp,
                ));
                ips.push(ip);
            }
            let agg = bed.add_vm_tcp(
                0,
                VmSpec::large("agg", TENANT, Ip::tenant_vm(1)),
                Box::new(IncastAggregator::new(IncastConfig {
                    long_flows: 2,
                    long_burst: 8,
                    rounds: None,
                    ..IncastConfig::fan_in(ips, RESP_SIZE, 0)
                })),
                tcp,
            );
            refs.push(agg);
            bed.authorize_hw_tenant(TENANT);
            for v in refs {
                bed.force_path(v, PathTag::SrIov);
            }
            Apps::Incast(agg)
        }
        Workload::ChurnFastrak => {
            // The unrestricted, churner-on cell of `tenant_matrix`.
            let fleet = TenantFleet::build(
                bed,
                &TenantFleetConfig {
                    n_tenants: 3,
                    clients_per_tenant: 1,
                    zipf_s: 0.5,
                    peak_burst: 2,
                    ..Default::default()
                },
            );
            let cfg = ChurnerConfig {
                n_ports: 12,
                hot_ports: 2,
                phase: SimDuration::from_millis(250),
                burst: 8,
                conns_per_port: 8,
                ..ChurnerConfig::aggressive(Ip::tenant_vm(90))
            };
            add_churner(bed, TenantId(4), 2, 0, cfg);
            Apps::Fleet(fleet)
        }
    }
}

fn attach_controllers(w: Workload, bed: &mut Testbed) -> Option<FasTrak> {
    if w != Workload::ChurnFastrak {
        return None;
    }
    let ft = attach(
        bed,
        FasTrakConfig {
            budget: 8,
            timing: Timing {
                sample_gap: SimDuration::from_millis(10),
                epoch: SimDuration::from_millis(50),
                epochs_per_interval: 2,
                history_intervals: 2,
            },
            de: DeConfig {
                policy: FastPathPolicy::Unrestricted,
                ..DeConfig::paper()
            },
            ..Default::default()
        },
    );
    ft.start(bed);
    Some(ft)
}

/// Sum every counter named `base` or `base{labels}`.
fn sum_counter(reg: &Registry, base: &str) -> u64 {
    reg.counters()
        .filter(|(n, _)| {
            n.strip_prefix(base)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
        })
        .map(|(_, v)| v)
        .sum()
}

fn collect(bed: &Testbed, apps: &Apps) -> BTreeMap<&'static str, u64> {
    let reg = &bed.kernel.ctx.telemetry.registry;
    let tor = &bed.tor().stats;
    let mut c = BTreeMap::new();
    c.insert("sim.now_ns", bed.now().as_nanos());
    c.insert("sim.events", bed.kernel.events_processed());
    c.insert("sim.cancels", bed.kernel.cancels_requested());
    c.insert("sim.burst_events", bed.kernel.burst_events());
    for (name, base) in [
        ("transport.segs_tx", "tcp.segs_tx"),
        ("transport.rtx_segs", "tcp.rtx_segs"),
        ("transport.timeouts", "tcp.timeouts"),
        ("transport.ecn_ce_rx", "tcp.ecn_ce_rx"),
        ("transport.bytes_delivered", "tcp.bytes_delivered"),
        ("host.vswitch.fast_path_hits", "host.vswitch.fast_path_hits"),
        ("host.vswitch.slow_path_hits", "host.vswitch.slow_path_hits"),
        ("host.tx_frames_sw", "host.tx_frames.sw"),
        ("host.tx_frames_hw", "host.tx_frames.hw"),
        ("host.rx_frames", "host.rx_frames"),
        ("core.de_epochs", "ctrl.de.epochs"),
        ("core.offloads", "ctrl.tenant.offloads"),
        ("core.demotes", "ctrl.tenant.demotes"),
        ("core.install_failures", "ctrl.install_failures"),
    ] {
        c.insert(name, sum_counter(reg, base));
    }
    let drops = [
        "host.tx_ring_drops",
        "host.rx_drops",
        "host.policy_drops",
        "host.hw_path_drops",
        "host.no_route_drops",
    ];
    c.insert(
        "host.drops",
        drops.iter().map(|b| sum_counter(reg, b)).sum(),
    );
    let conns = (0..bed.servers.len())
        .flat_map(|i| {
            let s = bed.server(i);
            (0..s.n_vms()).map(move |j| s.vm(j).stack.conn_ids().count() as u64)
        })
        .max()
        .unwrap_or(0);
    c.insert("transport.conns_per_vm_max", conns);
    c.insert("switch.tor.frames", tor.hw_frames + tor.sw_frames);
    c.insert("switch.tor.ecn_marked", tor.ecn_marked);
    c.insert("switch.tor.rules_installed", tor.rules_installed);
    c.insert("switch.tor.rules_removed", tor.rules_removed);
    c.insert("switch.tor.gre_ops", tor.gre_encaps + tor.gre_decaps);
    c.insert("switch.tor.drops", tor.acl_drops + tor.fwd_drops);

    let mut lat = Histogram::new();
    let txns = match apps {
        Apps::Memslap(clients) => memslap_totals(bed, clients, &mut lat),
        Apps::Fleet(fleet) => {
            let clients: Vec<VmRef> = fleet
                .tenants
                .iter()
                .flat_map(|t| t.clients.iter().copied())
                .collect();
            memslap_totals(bed, &clients, &mut lat)
        }
        Apps::Incast(agg) => {
            let app = bed.app::<IncastAggregator>(*agg);
            lat.merge(&app.fct);
            app.completed_rounds
        }
    };
    c.insert("workload.txns", txns);
    c.insert("workload.sim_p99_ns", lat.quantile(0.99));
    c
}

fn memslap_totals(bed: &Testbed, clients: &[VmRef], lat: &mut Histogram) -> u64 {
    clients
        .iter()
        .map(|&v| {
            let app = bed.app::<MemslapClient>(v);
            lat.merge(&app.latency);
            app.completed()
        })
        .sum()
}

/// A workload set up and started, ready to simulate.
pub struct Scenario {
    bed: Testbed,
    ft: Option<FasTrak>,
    apps: Apps,
}

/// Build the rack, place the VMs, attach the controllers and start: the
/// set-up that `setup_s` times.
pub fn setup(w: Workload, seed: u64, spans: &mut Spans) -> (Scenario, SetupTimes) {
    let t = spans.open("Testbed::build");
    let mut bed = Testbed::build(TestbedConfig {
        n_servers: match w {
            Workload::RrVif => 6,
            Workload::IncastVf => 5,
            Workload::ChurnFastrak => 3,
        },
        tunneling: w == Workload::RrVif,
        seed,
        ..TestbedConfig::default()
    });
    let build_s = spans.close(t);
    let t = spans.open("place");
    let apps = place(w, &mut bed);
    let place_s = spans.close(t);
    let t = spans.open("attach+start");
    let ft = attach_controllers(w, &mut bed);
    bed.start();
    let attach_s = spans.close(t);
    let times = SetupTimes {
        build_s,
        place_s,
        attach_s,
    };
    (Scenario { bed, ft, apps }, times)
}

/// Set up and simulate one repetition of `w` to `horizon`. With `trace`,
/// every kernel step is timed and attributed.
pub fn run_once(
    w: Workload,
    seed: u64,
    horizon: SimTime,
    spans: &mut Spans,
    mut trace: Option<&mut StepTrace>,
) -> Outcome {
    let rep = spans.open(format!("rep {}", w.name()));
    let (mut sc, _) = setup(w, seed, spans);
    let bed = &mut sc.bed;
    let run = spans.open("run");
    for k in 1..=SLICES {
        let end = SimTime(horizon.as_nanos() * k / SLICES);
        let t = spans.open(format!("slice {k}"));
        match trace.as_deref_mut() {
            Some(tr) => tr.run_until(bed, end),
            None => bed.run_until(end),
        }
        spans.close(t);
    }
    let run_s = spans.close(run);

    let t = spans.open("publish_telemetry");
    bed.publish_telemetry();
    if let Some(ft) = &sc.ft {
        ft.publish_telemetry(bed);
    }
    spans.close(t);
    let counts = collect(bed, &sc.apps);
    let de_epoch_ns = sum_counter(&bed.kernel.ctx.telemetry.registry, "ctrl.de.epoch_ns");
    spans.close(rep);
    Outcome {
        counts,
        run_s,
        de_epoch_ns,
    }
}

/// Check one repetition's simulated outcome against what the workload must
/// do at any seed.
pub fn check(w: Workload, horizon: SimTime, o: &Outcome) -> Result<(), String> {
    let mut errs = Vec::new();
    let mut want = |ok: bool, what: &str| {
        if !ok {
            errs.push(what.to_string());
        }
    };
    want(
        o.count("sim.now_ns") == horizon.as_nanos(),
        "simulated to the horizon",
    );
    want(o.count("workload.txns") > 0, "transactions completed");
    want(o.count("transport.bytes_delivered") > 0, "bytes delivered");
    let core = ["core.de_epochs", "core.offloads", "core.demotes"];
    match w {
        Workload::RrVif => {
            want(
                o.count("host.vswitch.fast_path_hits") > 0,
                "vswitch fast path used",
            );
            want(o.count("host.tx_frames_hw") == 0, "no frame on a VF");
            want(
                core.iter().all(|c| o.count(c) == 0),
                "no controller activity",
            );
        }
        Workload::IncastVf => {
            let vs =
                o.count("host.vswitch.fast_path_hits") + o.count("host.vswitch.slow_path_hits");
            want(vs == 0, "vswitch bypassed");
            want(o.count("host.tx_frames_sw") == 0, "no frame on a VIF");
            want(o.count("transport.ecn_ce_rx") > 0, "ECN CE marks received");
            want(
                core.iter().all(|c| o.count(c) == 0),
                "no controller activity",
            );
        }
        Workload::ChurnFastrak => {
            want(o.count("core.de_epochs") > 0, "decision epochs ran");
            want(o.count("core.offloads") > 0, "aggregates offloaded");
            want(
                o.count("host.tx_frames_hw") > 0,
                "offloaded flows used a VF",
            );
        }
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(format!("{}: failed checks: {}", w.name(), errs.join(", ")))
    }
}

/// Median host seconds of one [`Calibrator::time`] pass on the reference
/// machine (the one `baseline.json` was recorded on).
pub const CALIBRATION_REF_S: f64 = 0.0125;

/// Fixed work that tracks the host's speed. On a shared host the speed of
/// cache-bound code drifts by tens of percent over minutes while plain
/// arithmetic barely moves; timing this cache-bound pass between the
/// repetitions measures that drift so the benchmark can scale its host
/// times to the reference speed.
pub struct Calibrator {
    /// One random cycle through 1 MiB of slots, built once.
    perm: Vec<u32>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Calibrator {
    /// Build the permutation (Sattolo's shuffle: a single cycle).
    pub fn new() -> Calibrator {
        let n = 1usize << 18;
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for k in (1..n).rev() {
            perm.swap(k, (xorshift(&mut x) % k as u64) as usize);
        }
        Calibrator { perm }
    }

    /// Bytes the calibration keeps resident.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.perm.as_slice())
    }

    /// Host seconds one pass takes now: a binary heap of pending keys is
    /// pushed and popped while the permutation is chased, the same kinds of
    /// work as the simulator's event loop.
    pub fn time(&self) -> f64 {
        let t = Instant::now();
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut heap = std::collections::BinaryHeap::with_capacity(128);
        let (mut at, mut acc) = (0u32, 0u64);
        for _ in 0..400_000 {
            heap.push(std::cmp::Reverse(xorshift(&mut x) >> 20));
            if heap.len() > 64 {
                acc = acc.wrapping_add(heap.pop().map_or(0, |r| r.0));
            }
            at = self.perm[at as usize];
            acc = acc.wrapping_add(at as u64);
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64()
    }
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

/// Peak resident memory of this process in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of a non-empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A reported metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn median_of<T>(xs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&xs.iter().map(f).collect::<Vec<_>>())
}

/// The end-to-end metrics of an untraced run: medians over its
/// repetitions and stand-alone set-ups, and the process's peak memory.
/// Host times are multiplied by `speed`, the reference speed over the
/// host's speed during the run (see [`Calibrator`]).
pub fn end_to_end(
    plain: &[Outcome],
    setups: &[SetupTimes],
    speed: f64,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    vec![
        ("run_s".into(), speed * median_of(plain, |o| o.run_s), "s"),
        (
            "setup_s".into(),
            speed * median_of(setups, SetupTimes::total_s),
            "s",
        ),
        ("peak_rss_mb".into(), peak_rss_mb, "MB"),
    ]
}

/// The per-layer metrics of a traced run, sorted by name. Counts come from
/// the first untraced repetition (every repetition has the same counts);
/// `sim.ns_per_event` uses the untraced run time, the step metrics the
/// traced repetitions' [`StepTrace`]. Host times are multiplied by `speed`
/// as in [`end_to_end`].
pub fn per_layer(
    plain: &[Outcome],
    traced: &[Outcome],
    setups: &[SetupTimes],
    speed: f64,
    st: &StepTrace,
) -> Vec<Metric> {
    let first = &plain[0];
    let c = |n: &str| first.count(n);
    let events = c("sim.events");
    let plain_run = speed * median_of(plain, |o| o.run_s);
    let mut steps = Histogram::new();
    for k in &st.classes {
        steps.merge(&k.hist);
    }
    let total_ns: u64 = st.classes.iter().map(|k| k.busy_ns).sum();
    let (fast, slow) = (
        c("host.vswitch.fast_path_hits"),
        c("host.vswitch.slow_path_hits"),
    );
    let (sw, hw) = (c("host.tx_frames_sw"), c("host.tx_frames_hw"));
    let setup_ms = |f: fn(&SetupTimes) -> f64| speed * 1e3 * median_of(setups, f);
    let mut m: Vec<Metric> = vec![
        (
            "sim.ns_per_event".into(),
            plain_run * 1e9 / events.max(1) as f64,
            "ns",
        ),
        (
            "sim.step_ns_p50".into(),
            speed * steps.quantile(0.5) as f64,
            "ns",
        ),
        (
            "sim.step_ns_p99".into(),
            speed * steps.quantile(0.99) as f64,
            "ns",
        ),
        ("sim.pending_peak".into(), st.pending_peak as f64, "count"),
        (
            "sim.burst_share".into(),
            ratio(c("sim.burst_events"), events),
            "ratio",
        ),
        (
            "transport.events_per_seg".into(),
            ratio(events, c("transport.segs_tx")),
            "events/seg",
        ),
        (
            "host.vswitch.miss_ratio".into(),
            ratio(slow, fast + slow),
            "ratio",
        ),
        ("host.hw_share".into(), ratio(hw, sw + hw), "ratio"),
        (
            "core.de_ns_per_epoch".into(),
            speed * median_of(plain, |o| ratio(o.de_epoch_ns, o.count("core.de_epochs"))),
            "ns",
        ),
        ("setup.build_ms".into(), setup_ms(|s| s.build_s), "ms"),
        ("setup.place_ms".into(), setup_ms(|s| s.place_s), "ms"),
        ("setup.attach_ms".into(), setup_ms(|s| s.attach_s), "ms"),
        (
            "workload.sim_p99_us".into(),
            c("workload.sim_p99_ns") as f64 / 1e3,
            "us",
        ),
        (
            "trace.overhead_s".into(),
            speed * median_of(traced, |o| o.run_s) - plain_run,
            "s",
        ),
    ];
    for (name, k) in CLASSES.iter().zip(&st.classes) {
        let step_ns = speed * ratio(k.busy_ns, k.hist.count());
        m.push((
            format!("{name}.busy_share"),
            ratio(k.busy_ns, total_ns),
            "ratio",
        ));
        m.push((format!("{name}.step_ns"), step_ns, "ns"));
    }
    for (&name, &v) in &first.counts {
        if !matches!(
            name,
            "sim.now_ns" | "sim.burst_events" | "workload.sim_p99_ns"
        ) {
            let unit = if name == "transport.bytes_delivered" {
                "bytes"
            } else {
                "count"
            };
            m.push((name.to_string(), v as f64, unit));
        }
    }
    m.sort_by(|a, b| a.0.cmp(&b.0));
    m
}
