//! The cycle-driven, flit-free packet-level network simulator.
//!
//! Every message is one packet. Per cycle, each message either advances one
//! link or waits; contention is modelled with the three mechanisms the
//! extended e-cube argument actually relies on:
//!
//! * **bounded per-link virtual-channel buffers** — each directed link has
//!   four buffers (vc0..vc3, one per message class) of
//!   [`SimConfig::vc_capacity`] packets; a message advances only into free
//!   buffer space at the link it traverses;
//! * **round-robin link arbitration** — a physical link transmits one
//!   packet per cycle; when several virtual channels compete, the grant
//!   rotates round-robin over the channels, FIFO within a channel;
//! * **per-cycle advancement** — injection, request, grant/move and
//!   occupancy sampling happen in a fixed order each cycle, so the whole
//!   simulation is a deterministic function of its configuration.
//!
//! Routing is the extended e-cube of [`meshroute`]: messages follow the
//! base dimension-order route and detour around excluded regions in the
//! abnormal mode. Routes are *not* precomputed — the simulator steps the
//! base route in O(1) per hop and asks the router for a detour walk only
//! when a hop is actually blocked, so a million messages on a 512² mesh
//! never materialise a million hop vectors.
//!
//! # State layout
//!
//! The request/grant loop is bound by memory traffic, not by arithmetic, so
//! its state is laid out for what one hop touches:
//!
//! * **one packed word per directed link** — bits 0..32 hold the four
//!   one-byte VC occupancies (vc`k` in byte `k`), bits 32..34 the
//!   round-robin pointer (the VC granted last), and bits 34..64 one plus
//!   the link's index in this cycle's request table (0: not requested);
//! * **port-plane link numbering** — links are grouped by the port they
//!   arrive through (west, east, south, north), one plane of
//!   `width × height` words each. The west/east planes are row-major and
//!   the south/north planes column-major, so consecutive hops of a message
//!   in one direction land on adjacent words;
//! * **a compact request table** — the links requested this cycle, in
//!   first-request order, each with the first requester per VC. Grants walk
//!   it in that order, so a slot vacated by an earlier grant is already free
//!   when a later link of the same pass checks its occupancy;
//! * **one detour arena** — every detour walk is appended to one shared
//!   vector, and a message keeps the `(at, end)` range of its remaining
//!   walk. The arena is never compacted: it keeps one `Coord` per detour
//!   hop of the run.
//!
//! The simulation is sequential by design; parallelism lives one layer up,
//! where independent (model × pattern × trial) cells fan out on the rayon
//! pool and this determinism makes the merged CSV byte-identical at any
//! thread count.

use crate::pattern::TrafficPattern;
use crate::stats::{LatencySummary, ReachableStats, TrafficReport, VcOccupancy};
use mesh2d::{Coord, Mesh2D, StatusMap};
use meshroute::{ecube_next_hop, ExtendedECube, MessageClass, PairSample, RegionMap, RouteError};
use rand::{rngs::StdRng, SeedableRng};

const NONE: u32 = u32::MAX;

/// Shift of a link word's round-robin pointer (2 bits).
const RR_SHIFT: u32 = 32;
/// Shift of a link word's request-table slot (1 + index, 0 = none).
const SLOT_SHIFT: u32 = 34;

/// Largest [`SimConfig::vc_capacity`]: a link word holds each virtual
/// channel's occupancy in 8 bits.
pub const MAX_VC_CAPACITY: usize = u8::MAX as usize;

/// Configuration of one traffic run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimConfig {
    /// Messages drawn from the pattern.
    pub messages: usize,
    /// Seed of the pattern stream and the reachable-pair probe.
    pub seed: u64,
    /// Messages entering their source queues per cycle (the offered load).
    pub injection_rate: usize,
    /// Buffer slots per (link, virtual channel); `0` counts as 1, and at
    /// most [`MAX_VC_CAPACITY`].
    pub vc_capacity: usize,
    /// Hard cycle horizon; `0` picks a bound that lets a non-saturated run
    /// drain (saturated runs report the remainder as stranded).
    pub max_cycles: u64,
    /// Size of the reachable-pair probe routed over the shared sampler.
    pub reachable_sample: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            messages: 10_000,
            seed: 1,
            injection_rate: 64,
            vc_capacity: 4,
            max_cycles: 0,
            reachable_sample: 512,
        }
    }
}

impl SimConfig {
    fn horizon(&self, mesh: &Mesh2D) -> u64 {
        if self.max_cycles > 0 {
            return self.max_cycles;
        }
        let inject_span = self.messages.div_ceil(self.injection_rate.max(1)) as u64;
        let drain = 64 * (mesh.width() + mesh.height()) as u64;
        inject_span + self.messages as u64 / 4 + drain
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum MsgState {
    AtSource,
    InNet,
    Delivered,
    Dropped,
}

struct Msg {
    current: Coord,
    dst: Coord,
    manhattan: u32,
    inject_cycle: u32,
    hops: u32,
    /// Flat `(link, vc)` buffer slot currently occupied; `NONE` at source.
    buffer: u32,
    /// Remaining detour walk, `arena[at..end]`; empty on the base route.
    at: u32,
    end: u32,
    /// The hop requested this cycle.
    next: Coord,
    state: MsgState,
}

/// One link requested this cycle: the first requester per VC (`NONE` where
/// no message asked for that channel).
struct Request {
    link: u32,
    first: [u32; 4],
}

/// The packed per-link words, numbered in port planes (see the module docs).
struct Links {
    words: Vec<u64>,
    width: usize,
    height: usize,
}

impl Links {
    /// Empty links whose round-robin rotation starts at vc0.
    fn new(mesh: &Mesh2D) -> Links {
        Links {
            words: vec![3 << RR_SHIFT; mesh.node_count() * 4],
            width: mesh.width() as usize,
            height: mesh.height() as usize,
        }
    }

    /// Index of the directed link `from → to`: planes west, east, south
    /// and north port in that order.
    fn index(&self, from: Coord, to: Coord) -> usize {
        debug_assert_eq!(from.manhattan(to), 1, "links connect 4-neighbors");
        let (x, y) = (to.x as usize, to.y as usize);
        let plane = self.width * self.height;
        if from.y == to.y {
            (from.x > to.x) as usize * plane + y * self.width + x
        } else {
            (2 + (from.y > to.y) as usize) * plane + x * self.height + y
        }
    }

    /// Occupancy of `vc` at `link`.
    fn occupancy(&self, link: usize, vc: usize) -> u8 {
        (self.words[link] >> (8 * vc)) as u8
    }

    /// The VC `link` granted last.
    fn last_granted(&self, link: usize) -> u32 {
        (self.words[link] >> RR_SHIFT & 3) as u32
    }

    /// Records a grant to `vc` at `link` for the round-robin rotation.
    fn grant(&mut self, link: usize, vc: usize) {
        let word = &mut self.words[link];
        *word = *word & !(3 << RR_SHIFT) | (vc as u64) << RR_SHIFT;
    }

    /// Forgets `link`'s request slot at the end of the cycle.
    fn close(&mut self, link: usize) {
        self.words[link] &= (1 << SLOT_SHIFT) - 1;
    }

    /// Puts a packet into the flat buffer slot `link * 4 + vc`.
    fn fill(&mut self, slot: u32) {
        self.words[(slot >> 2) as usize] += 1 << (8 * (slot & 3));
    }

    /// Takes a packet out of the flat buffer slot `link * 4 + vc`.
    fn vacate(&mut self, slot: u32) {
        self.words[(slot >> 2) as usize] -= 1 << (8 * (slot & 3));
    }

    /// Files `id`'s request to cross `from → to` on `vc` in this cycle's
    /// table.
    fn request(&mut self, table: &mut Vec<Request>, from: Coord, to: Coord, vc: usize, id: u32) {
        let link = self.index(from, to);
        let word = &mut self.words[link];
        let slot = (*word >> SLOT_SHIFT) as usize;
        let entry = if slot == 0 {
            table.push(Request {
                link: link as u32,
                first: [NONE; 4],
            });
            *word |= (table.len() as u64) << SLOT_SHIFT;
            table.last_mut().expect("just pushed")
        } else {
            &mut table[slot - 1]
        };
        if entry.first[vc] == NONE {
            entry.first[vc] = id;
        }
    }
}

/// Runs one traffic simulation over `status` (with its pre-derived
/// [`RegionMap`]) and returns the full report.
pub fn simulate(
    mesh: &Mesh2D,
    status: &StatusMap,
    regions: &RegionMap,
    pattern: &dyn TrafficPattern,
    cfg: &SimConfig,
) -> TrafficReport {
    let _span = mocp_obs::span!("traffic.sim");
    let router = ExtendedECube::with_regions(mesh, status, regions);
    assert!(
        cfg.messages < 1 << (64 - SLOT_SHIFT),
        "a cycle's requests must fit a link word's request slot"
    );
    let cap = u8::try_from(cfg.vc_capacity.max(1)).unwrap_or_else(|_| {
        panic!(
            "vc_capacity {} exceeds the {MAX_VC_CAPACITY} packets a link word's occupancy field holds",
            cfg.vc_capacity
        )
    });

    // ---- message generation (seeded, deterministic) --------------------
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let rate = cfg.injection_rate.max(1);
    let mut report = TrafficReport {
        pattern: pattern.name().to_string(),
        ..TrafficReport::default()
    };
    let mut msgs: Vec<Msg> = Vec::with_capacity(cfg.messages);
    for i in 0..cfg.messages {
        let (src, dst) = pattern.pair(mesh, &mut rng);
        report.offered += 1;
        if !router.enabled(src) || !router.enabled(dst) {
            report.endpoint_excluded += 1;
            continue;
        }
        msgs.push(Msg {
            current: src,
            dst,
            manhattan: src.manhattan(dst),
            inject_cycle: (i / rate) as u32,
            hops: 0,
            buffer: NONE,
            at: 0,
            end: 0,
            next: src,
            state: MsgState::AtSource,
        });
    }
    report.injected = msgs.len();

    // ---- network state --------------------------------------------------
    let nodes = mesh.node_count();
    let mut links = Links::new(mesh);
    let mut requests: Vec<Request> = Vec::new();
    let mut arena: Vec<Coord> = Vec::new();
    let mut vc_now = [0u64; 4];
    let mut vc_occ: [VcOccupancy; 4] = Default::default();

    // Per-source FIFO of not-yet-entered messages (intrusive lists).
    let mut q_head = vec![NONE; nodes];
    let mut q_tail = vec![NONE; nodes];
    let mut q_next = vec![NONE; msgs.len()];
    let mut backlogged: Vec<usize> = Vec::new();

    let mut active: Vec<u32> = Vec::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut stretch_sum = 0.0f64;
    let mut next_inject = 0usize;
    let mut done = 0usize;
    let horizon = cfg.horizon(mesh);
    let mut cycles = 0u64;

    let mut lat_hist = mocp_obs::LocalHistogram::new(mocp_obs::histogram!("traffic.latency"));

    // Sets `msg.next` to the hop a live message wants and returns its VC;
    // computes a detour walk into the arena when the base hop is blocked.
    // `None` drops the message as unreachable.
    let desired = |msg: &mut Msg, arena: &mut Vec<Coord>, detours: &mut u64| -> Option<usize> {
        let class = MessageClass::classify(msg.current, msg.dst).expect("not yet at destination");
        let vc = class.virtual_channel().0 as usize;
        if msg.at != msg.end {
            msg.next = arena[msg.at as usize];
            return Some(vc);
        }
        let next = ecube_next_hop(msg.current, msg.dst).expect("not yet at destination");
        if router.enabled(next) {
            msg.next = next;
            return Some(vc);
        }
        let region = router
            .blocking_region(next)
            .expect("blocked hop lies in an excluded region");
        match router.detour(region, msg.current, msg.dst, class) {
            Ok((walk, _fallback)) => {
                *detours += 1;
                msg.at = arena.len() as u32;
                arena.extend_from_slice(&walk[1..]);
                msg.end = arena.len() as u32;
                msg.next = arena[msg.at as usize];
                Some(vc)
            }
            Err(RouteError::Unreachable) => None,
            Err(_) => unreachable!("endpoints were checked at injection"),
        }
    };

    for cycle in 0..horizon {
        // -- injection: messages whose time has come join their source FIFO.
        while next_inject < msgs.len() && u64::from(msgs[next_inject].inject_cycle) <= cycle {
            let id = next_inject as u32;
            let node = mesh.index_of(msgs[next_inject].current);
            if q_head[node] == NONE {
                q_head[node] = id;
                backlogged.push(node);
            } else {
                q_next[q_tail[node] as usize] = id;
            }
            q_tail[node] = id;
            next_inject += 1;
        }
        if done == msgs.len() {
            break;
        }

        // -- request: in-network messages first, then source-queue heads.
        for &id in &active {
            let msg = &mut msgs[id as usize];
            if msg.state != MsgState::InNet {
                continue;
            }
            match desired(msg, &mut arena, &mut report.detours) {
                Some(vc) => links.request(&mut requests, msg.current, msg.next, vc, id),
                None => {
                    // Walled off mid-flight: drop and free the buffer slot.
                    links.vacate(msg.buffer);
                    vc_now[(msg.buffer & 3) as usize] -= 1;
                    msg.state = MsgState::Dropped;
                    report.unreachable += 1;
                    done += 1;
                }
            }
        }
        for &node in &backlogged {
            loop {
                let head = q_head[node];
                if head == NONE {
                    break;
                }
                let msg = &mut msgs[head as usize];
                match desired(msg, &mut arena, &mut report.detours) {
                    Some(vc) => {
                        links.request(&mut requests, msg.current, msg.next, vc, head);
                        break;
                    }
                    None => {
                        msg.state = MsgState::Dropped;
                        report.unreachable += 1;
                        done += 1;
                        q_head[node] = q_next[head as usize];
                        if q_head[node] == NONE {
                            q_tail[node] = NONE;
                        }
                    }
                }
            }
        }

        // -- grant + move: one packet per link, round-robin over channels,
        //    links in first-request order.
        for req in &requests {
            let link = req.link as usize;
            let rr = links.last_granted(link);
            for k in 1..=4 {
                let vc = ((rr + k) & 3) as usize;
                let id = req.first[vc];
                if id == NONE {
                    continue;
                }
                let msg = &mut msgs[id as usize];
                let next = msg.next;
                let delivering = next == msg.dst;
                if !delivering && links.occupancy(link, vc) >= cap {
                    continue; // buffer full: offer the link to the next channel
                }
                links.grant(link, vc);
                // Free the slot (or source-queue head) being vacated.
                if msg.buffer != NONE {
                    links.vacate(msg.buffer);
                    vc_now[(msg.buffer & 3) as usize] -= 1;
                } else {
                    let node = mesh.index_of(msg.current);
                    q_head[node] = q_next[id as usize];
                    if q_head[node] == NONE {
                        q_tail[node] = NONE;
                    }
                    msg.state = MsgState::InNet;
                    active.push(id);
                }
                // Advance one link.
                msg.current = next;
                msg.hops += 1;
                report.total_hops += 1;
                if msg.at != msg.end {
                    report.abnormal_hops += 1;
                    msg.at += 1;
                }
                if delivering {
                    msg.state = MsgState::Delivered;
                    msg.buffer = NONE;
                    done += 1;
                    let latency = cycle - u64::from(msg.inject_cycle) + 1;
                    latencies.push(latency);
                    lat_hist.record(latency);
                    stretch_sum += msg.hops as f64 / msg.manhattan.max(1) as f64;
                } else {
                    msg.buffer = (link * 4 + vc) as u32;
                    links.fill(msg.buffer);
                    vc_now[vc] += 1;
                }
                break;
            }
            links.close(link);
        }
        requests.clear();

        // -- sample per-VC occupancy, compact the live sets.
        for (vc, occ) in vc_occ.iter_mut().enumerate() {
            occ.record(vc_now[vc]);
        }
        active.retain(|&id| msgs[id as usize].state == MsgState::InNet);
        backlogged.retain(|&node| q_head[node] != NONE);
        cycles = cycle + 1;
        if done == msgs.len() && next_inject == msgs.len() {
            break;
        }
    }
    #[allow(dropping_copy_types)] // noop stub is Copy; live histogram flushes here
    drop(lat_hist);

    // ---- aggregation ----------------------------------------------------
    report.cycles = cycles;
    report.delivered = latencies.len();
    report.stranded = report.injected - report.delivered - report.unreachable;
    report.avg_stretch = if report.delivered > 0 {
        stretch_sum / report.delivered as f64
    } else {
        0.0
    };
    report.latency = LatencySummary::from_latencies(&mut latencies);
    for (vc, mut occ) in vc_occ.into_iter().enumerate() {
        occ.finish(report.cycles);
        report.vc[vc] = occ;
    }
    report.reachable = probe_reachability(mesh, &router, cfg);

    mocp_obs::counter!("traffic.offered").add(report.offered as u64);
    mocp_obs::counter!("traffic.delivered").add(report.delivered as u64);
    mocp_obs::counter!("traffic.stranded").add(report.stranded as u64);
    mocp_obs::counter!("traffic.unreachable").add(report.unreachable as u64);
    mocp_obs::counter!("traffic.endpoint_excluded").add(report.endpoint_excluded as u64);
    mocp_obs::counter!("traffic.detours").add(report.detours);
    mocp_obs::counter!("traffic.cycles").add(report.cycles);
    mocp_obs::counter!("traffic.hops").add(report.total_hops);
    mocp_obs::counter!("traffic.abnormal_hops").add(report.abnormal_hops);
    mocp_obs::histogram!("traffic.vc0.occupancy_max").record(report.vc[0].max);
    mocp_obs::histogram!("traffic.vc1.occupancy_max").record(report.vc[1].max);
    mocp_obs::histogram!("traffic.vc2.occupancy_max").record(report.vc[2].max);
    mocp_obs::histogram!("traffic.vc3.occupancy_max").record(report.vc[3].max);
    report
}

/// Routes the shared pair sample over the run's status map — the static
/// reachable-pair fraction reported next to the dynamic delivery numbers.
fn probe_reachability(
    mesh: &Mesh2D,
    router: &ExtendedECube<'_>,
    cfg: &SimConfig,
) -> ReachableStats {
    let _span = mocp_obs::span!("traffic.reachable_probe");
    let sample = PairSample::random(mesh, cfg.reachable_sample, cfg.seed ^ 0x9e3779b97f4a7c15);
    let mut stats = ReachableStats {
        sampled: sample.len(),
        ..ReachableStats::default()
    };
    for (src, dst) in sample.iter() {
        match router.route(src, dst) {
            Ok(_) => stats.reachable += 1,
            Err(RouteError::SourceExcluded) | Err(RouteError::DestinationExcluded) => {
                stats.endpoint_excluded += 1;
            }
            Err(RouteError::Unreachable) => stats.unreachable += 1,
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{Hotspot, Transpose, Uniform};
    use mesh2d::FaultSet;

    fn faulty_status(mesh: &Mesh2D, faults: &[(i32, i32)]) -> StatusMap {
        let fs = FaultSet::from_coords(*mesh, faults.iter().map(|&(x, y)| Coord::new(x, y)));
        StatusMap::from_fault_list(mesh, fs.in_insertion_order())
    }

    fn run(
        mesh: &Mesh2D,
        status: &StatusMap,
        pattern: &dyn TrafficPattern,
        cfg: &SimConfig,
    ) -> TrafficReport {
        let regions = RegionMap::from_status(mesh, status);
        simulate(mesh, status, &regions, pattern, cfg)
    }

    #[test]
    fn fault_free_uniform_delivers_everything() {
        let mesh = Mesh2D::square(12);
        let status = StatusMap::all_enabled(&mesh);
        let cfg = SimConfig {
            messages: 500,
            injection_rate: 8,
            ..SimConfig::default()
        };
        let report = run(&mesh, &status, &Uniform, &cfg);
        assert_eq!(report.offered, 500);
        assert_eq!(report.injected, 500);
        assert_eq!(report.delivered, 500);
        assert_eq!(report.stranded, 0);
        assert_eq!(report.unreachable, 0);
        assert_eq!(report.abnormal_hops, 0);
        assert!((report.avg_stretch - 1.0).abs() < 1e-12);
        // Latency is at least distance and includes queueing.
        assert!(report.latency.p50 >= 1);
        assert!(report.latency.max as usize <= report.cycles as usize);
        assert_eq!(report.reachable.fraction(), 1.0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let mesh = Mesh2D::square(16);
        let status = faulty_status(&mesh, &[(5, 5), (6, 5), (10, 11)]);
        let cfg = SimConfig {
            messages: 800,
            injection_rate: 16,
            seed: 9,
            ..SimConfig::default()
        };
        let a = run(&mesh, &status, &Transpose, &cfg);
        let b = run(&mesh, &status, &Transpose, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn faults_cause_detours_and_exclusions() {
        let mesh = Mesh2D::square(16);
        let status = faulty_status(&mesh, &[(7, 7), (8, 7), (8, 8), (3, 12)]);
        let cfg = SimConfig {
            messages: 2_000,
            injection_rate: 32,
            seed: 4,
            ..SimConfig::default()
        };
        let report = run(&mesh, &status, &Uniform, &cfg);
        assert!(report.endpoint_excluded > 0);
        assert!(report.abnormal_hops > 0);
        assert!(report.detours > 0);
        assert!(report.avg_stretch >= 1.0);
        assert_eq!(
            report.injected,
            report.delivered + report.stranded + report.unreachable
        );
        assert!(report.reachable.fraction() < 1.0);
        assert!(report.reachable.fraction() > 0.5);
    }

    #[test]
    fn hotspot_saturates_more_than_uniform() {
        let mesh = Mesh2D::square(12);
        let status = StatusMap::all_enabled(&mesh);
        let cfg = SimConfig {
            messages: 3_000,
            injection_rate: 128,
            seed: 3,
            ..SimConfig::default()
        };
        let uniform = run(&mesh, &status, &Uniform, &cfg);
        let hotspot = run(&mesh, &status, &Hotspot { percent: 40 }, &cfg);
        // The hot node's four links are the bottleneck: latency and buffer
        // pressure must exceed the uniform baseline.
        assert!(hotspot.latency.p90 > uniform.latency.p90);
        let hot_peak: u64 = hotspot.vc.iter().map(|v| v.max).sum();
        let uni_peak: u64 = uniform.vc.iter().map(|v| v.max).sum();
        assert!(hot_peak >= uni_peak);
    }

    #[test]
    fn walled_off_destination_is_dropped_not_stuck() {
        // Vertical wall: east half unreachable from west half.
        let mesh = Mesh2D::square(8);
        let wall: Vec<(i32, i32)> = (0..8).map(|y| (4, y)).collect();
        let status = faulty_status(&mesh, &wall);
        let cfg = SimConfig {
            messages: 300,
            injection_rate: 8,
            seed: 2,
            ..SimConfig::default()
        };
        let report = run(&mesh, &status, &Uniform, &cfg);
        assert!(report.unreachable > 0);
        assert_eq!(report.stranded, 0);
        assert_eq!(report.injected, report.delivered + report.unreachable);
    }

    #[test]
    fn vc_occupancy_sums_match_cycles() {
        let mesh = Mesh2D::square(10);
        let status = StatusMap::all_enabled(&mesh);
        let cfg = SimConfig {
            messages: 400,
            injection_rate: 16,
            ..SimConfig::default()
        };
        let report = run(&mesh, &status, &Uniform, &cfg);
        for vc in &report.vc {
            assert_eq!(vc.histogram.iter().sum::<u64>(), report.cycles);
        }
    }
}
