//! Randomized-input tests for TCP: under arbitrary loss and reordering of a
//! lossy channel, every byte the application wrote is eventually delivered,
//! in order, exactly once — the invariant Fig. 12 quietly relies on when
//! flow migration scrambles the path. Inputs are drawn from the engine's
//! seeded [`fastrak_sim::Rng`] so every run replays the same case list.

use std::collections::VecDeque;

use fastrak_net::addr::{Ip, TenantId};
use fastrak_net::flow::{FlowKey, Proto};
use fastrak_net::packet::{L4Meta, Packet};
use fastrak_sim::time::{SimDuration, SimTime};
use fastrak_sim::Rng;
use fastrak_transport::stack::{ConnId, SockEvent, TcpStack};
use fastrak_transport::tcp::{SegmentPlan, TcpConfig, TcpConn, TcpTimer};

fn flow() -> FlowKey {
    FlowKey {
        tenant: TenantId(1),
        src_ip: Ip::new(10, 0, 0, 1),
        dst_ip: Ip::new(10, 0, 0, 2),
        proto: Proto::Tcp,
        src_port: 40_000,
        dst_port: 5001,
    }
}

/// A lossy, optionally reordering channel driven by a script of events.
struct Channel {
    queue: VecDeque<SegmentPlan>,
}

impl Channel {
    fn new() -> Channel {
        Channel {
            queue: VecDeque::new(),
        }
    }
}

/// Simulate a transfer of `writes` through a channel that drops segment n
/// when `drops` contains n, and swaps adjacent deliveries when `swaps`
/// contains the delivery index. Returns bytes delivered in order at the
/// receiver.
fn run_transfer(writes: Vec<u16>, drops: Vec<u8>, swaps: Vec<u8>) -> (u64, u64) {
    let cfg = TcpConfig::default();
    let mut a = TcpConn::client(flow(), cfg);
    let mut b = TcpConn::server(flow().reverse(), cfg);

    // Handshake.
    let mut now = SimTime::ZERO;
    let syn = a.poll_transmit(now, 65_000).unwrap();
    b.on_segment(now, syn.seq, syn.ack, syn.flags, 0);
    let synack = b.poll_transmit(now, 65_000).unwrap();
    a.on_segment(now, synack.seq, synack.ack, synack.flags, 0);
    let ack = a.poll_transmit(now, 65_000).unwrap();
    b.on_segment(now, ack.seq, ack.ack, ack.flags, 0);

    let total: u64 = writes.iter().map(|&w| w as u64 + 1).sum();
    for w in &writes {
        assert!(a.app_send(*w as u64 + 1));
    }

    let mut a2b = Channel::new();
    let mut b2a = Channel::new();
    let mut seg_count: u64 = 0;
    let mut deliver_count: u64 = 0;
    let step = SimDuration::from_micros(50);

    // Drive until everything delivered or the iteration budget runs out.
    for _round in 0..400_000 {
        now += step;
        // Pump transmissions.
        while let Some(p) = a.poll_transmit(now, 65_000) {
            seg_count += 1;
            if !drops.iter().any(|&d| d as u64 == seg_count % 37) {
                a2b.queue.push_back(p);
            }
        }
        while let Some(p) = b.poll_transmit(now, 65_000) {
            b2a.queue.push_back(p);
        }
        // Optional adjacent swap at the head of the a->b queue.
        if a2b.queue.len() >= 2 && swaps.iter().any(|&s| s as u64 == deliver_count % 17) {
            a2b.queue.swap(0, 1);
        }
        // Deliver one from each direction per round.
        if let Some(p) = a2b.queue.pop_front() {
            deliver_count += 1;
            b.on_segment(now, p.seq, p.ack, p.flags, p.len as u64);
        }
        if let Some(p) = b2a.queue.pop_front() {
            a.on_segment(now, p.seq, p.ack, p.flags, p.len as u64);
        }
        // Fire due timers.
        for (c, _name) in [(&mut a, "a"), (&mut b, "b")] {
            while let Some((t, which)) = c.next_timer() {
                if t > now {
                    break;
                }
                c.on_timer(now, which);
                if which == TcpTimer::Rto {
                    break;
                }
            }
        }
        if b.stats.bytes_delivered >= total
            && a2b.queue.is_empty()
            && b2a.queue.is_empty()
            && a.flight() == 0
        {
            break;
        }
    }
    (b.stats.bytes_delivered, total)
}

#[test]
fn all_bytes_delivered_in_order_under_loss_and_reorder() {
    let mut r = Rng::new(0x7C9_1055);
    for _ in 0..48 {
        let writes: Vec<u16> = (0..r.range(1, 19))
            .map(|_| r.range(1, 2999) as u16)
            .collect();
        let drops: Vec<u8> = (0..r.below(6)).map(|_| r.below(37) as u8).collect();
        let swaps: Vec<u8> = (0..r.below(6)).map(|_| r.below(17) as u8).collect();
        let (delivered, total) = run_transfer(writes.clone(), drops.clone(), swaps.clone());
        // Delivery is cumulative/in-order by construction of bytes_delivered:
        // equality means no byte was lost, duplicated, or reordered past the
        // reassembly queue.
        assert_eq!(
            delivered, total,
            "writes={writes:?} drops={drops:?} swaps={swaps:?}"
        );
    }
}

#[test]
fn lossless_channel_needs_no_retransmits() {
    let mut r = Rng::new(0x1055_1e55);
    for _ in 0..48 {
        let writes: Vec<u16> = (0..r.range(1, 19))
            .map(|_| r.range(1, 2999) as u16)
            .collect();
        let cfg = TcpConfig::default();
        let mut a = TcpConn::client(flow(), cfg);
        let mut b = TcpConn::server(flow().reverse(), cfg);
        let mut now = SimTime::ZERO;
        let syn = a.poll_transmit(now, 65_000).unwrap();
        b.on_segment(now, syn.seq, syn.ack, syn.flags, 0);
        let synack = b.poll_transmit(now, 65_000).unwrap();
        a.on_segment(now, synack.seq, synack.ack, synack.flags, 0);
        let ack = a.poll_transmit(now, 65_000).unwrap();
        b.on_segment(now, ack.seq, ack.ack, ack.flags, 0);

        let total: u64 = writes.iter().map(|&w| w as u64).sum();
        let mut all_accepted = true;
        for w in &writes {
            all_accepted &= a.app_send(*w as u64);
        }
        if !all_accepted {
            continue; // send buffer full: case not applicable, like prop_assume
        }
        for _ in 0..50_000 {
            now += SimDuration::from_micros(20);
            let mut moved = false;
            while let Some(p) = a.poll_transmit(now, 65_000) {
                b.on_segment(now, p.seq, p.ack, p.flags, p.len as u64);
                moved = true;
            }
            while let Some(p) = b.poll_transmit(now, 65_000) {
                a.on_segment(now, p.seq, p.ack, p.flags, p.len as u64);
                moved = true;
            }
            if !moved {
                // Let delayed-ack timers fire.
                if let Some((t, w)) = b.next_timer() {
                    if w == TcpTimer::DelAck {
                        b.on_timer(t.max(now), w);
                        continue;
                    }
                }
                if b.stats.bytes_delivered >= total {
                    break;
                }
            }
        }
        assert_eq!(b.stats.bytes_delivered, total, "writes={writes:?}");
        assert_eq!(a.stats.timeouts, 0);
        assert_eq!(a.stats.fast_retransmits, 0);
    }
}

// ---------------------------------------------------------------------------
// TcpStack's indexes against brute force.
//
// `TcpStack` keeps a transmit ready set and a deadline index so that a pump
// costs work proportional to the connections that changed. This test drives
// two stacks through random connects, writes, closes, aborts, delayed,
// reordered and dropped segments and timer firings, and after every
// operation compare the stack with a naive scan over its connections:
// - `next_timer()` is the minimum of the connections' own deadlines;
// - each `poll_transmit` returns what a cyclic scan of cloned connections,
//   starting just after the last connection that sent, returns first;
// - `on_timer` emits its `Closed` events in connection-index order.

/// One side of the property run: a stack and the reference scan's cursor.
struct Side {
    stack: TcpStack,
    ip: Ip,
    /// Index just after the connection that last sent (the scan's start).
    cursor: usize,
}

/// Brute-force reference for [`TcpStack::poll_transmit`]: the first
/// segment of a cyclic scan over clones of every connection from `start`.
fn reference_poll(
    stack: &TcpStack,
    start: usize,
    now: SimTime,
    limit: u32,
) -> Option<(ConnId, SegmentPlan)> {
    let n = stack.len();
    (0..n)
        .map(|off| ConnId(((start + off) % n) as u32))
        .find_map(|id| {
            stack
                .conn(id)
                .clone()
                .poll_transmit(now, limit)
                .map(|p| (id, p))
        })
}

fn check_next_timer(side: &mut Side, ctx: &str) {
    let want = side
        .stack
        .conn_ids()
        .filter_map(|id| side.stack.conn(id).next_timer().map(|(t, _)| t))
        .min();
    assert_eq!(side.stack.next_timer(), want, "next_timer: {ctx}");
}

fn segment(flow: FlowKey, p: SegmentPlan, now: SimTime) -> Packet {
    let l4 = L4Meta::Tcp {
        seq: p.seq,
        ack: p.ack,
        flags: p.flags,
    };
    let mut pkt = Packet::new(0, flow, l4, p.len, now);
    pkt.ecn = p.ecn;
    pkt.sack = p.sack;
    pkt
}

/// One `poll_transmit` on `sides[s]`, checked against the brute-force
/// scan; a segment goes into `flight` towards the other side.
fn checked_poll(
    sides: &mut [Side; 2],
    s: usize,
    now: SimTime,
    limit: u32,
    flight: &mut Vec<(usize, Packet)>,
    ctx: &str,
) -> bool {
    let side = &mut sides[s];
    let want = reference_poll(&side.stack, side.cursor, now, limit);
    let got = side.stack.poll_transmit(now, limit);
    assert_eq!(got, want, "poll_transmit: {ctx}");
    let Some((id, p)) = got else {
        return false;
    };
    side.cursor = (id.0 as usize + 1) % side.stack.len();
    flight.push((1 - s, segment(side.stack.conn(id).flow, p, now)));
    true
}

/// Fire `stack`'s timers due at `now`; returns how many connections closed,
/// after checking `on_timer` reported them in index order.
fn checked_on_timer(stack: &mut TcpStack, now: SimTime, ctx: &str) -> usize {
    stack.drain_events();
    stack.on_timer(now);
    let closed: Vec<u32> = (stack.drain_events().iter())
        .map(|e| match e {
            SockEvent::Closed(id) => id.0,
            e => panic!("on_timer emitted {e:?}: {ctx}"),
        })
        .collect();
    assert!(
        closed.windows(2).all(|w| w[0] < w[1]),
        "Closed out of index order {closed:?}: {ctx}"
    );
    closed.len()
}

/// Run `ops` random operations on two stacks that each open `conns`
/// connections to the other, then close everything and expire every
/// TIME_WAIT at once. Returns the `Closed` count of that final `on_timer`.
fn run_stack_case(seed: u64, conns: u16, ops: usize) -> usize {
    let mut r = Rng::new(seed);
    let cfg = TcpConfig {
        min_rto: SimDuration::from_millis(2),
        delack: SimDuration::from_micros(500),
        msl: SimDuration::from_millis(1),
        sack: seed.is_multiple_of(2),
        ..TcpConfig::default()
    };
    const PORT: u16 = 5001;
    let mut sides = [Ip::new(10, 0, 0, 1), Ip::new(10, 0, 0, 2)].map(|ip| {
        let mut stack = TcpStack::new(cfg);
        stack.listen(PORT);
        Side {
            stack,
            ip,
            cursor: 0,
        }
    });
    let mut next_port = 40_000u16;
    let mut connect = |sides: &mut [Side; 2], from: usize| {
        let flow = FlowKey {
            tenant: TenantId(1),
            src_ip: sides[from].ip,
            dst_ip: sides[1 - from].ip,
            proto: Proto::Tcp,
            src_port: next_port,
            dst_port: PORT,
        };
        next_port += 1;
        sides[from].stack.connect(flow);
    };
    for _ in 0..conns {
        connect(&mut sides, 0);
        connect(&mut sides, 1);
    }
    // Segments in flight, each towards side `to`.
    let mut flight: Vec<(usize, Packet)> = Vec::new();
    let mut now = SimTime::ZERO;
    let check = |sides: &mut [Side; 2], ctx: &str| {
        for side in sides.iter_mut() {
            side.stack.drain_events();
            check_next_timer(side, ctx);
        }
    };
    for op in 0..ops {
        let s = r.below(2) as usize;
        let ctx = format!("seed={seed} op={op} side={s}");
        let stack = &sides[s].stack;
        let n = stack.len() as u64;
        let pick = ConnId(r.below(n) as u32);
        // Writes go to open connections, so the run keeps carrying data.
        let open: Vec<ConnId> = (stack.conn_ids())
            .filter(|&id| stack.conn(id).is_established())
            .collect();
        match r.below(100) {
            0..=2 if n < conns as u64 * 3 => connect(&mut sides, s),
            3..=17 if !open.is_empty() => {
                let id = open[r.below(open.len() as u64) as usize];
                sides[s].stack.app_send(id, r.range(1, 20_000));
            }
            18..=19 => sides[s].stack.close(pick),
            20 if r.chance(0.3) => sides[s].stack.abort(pick),
            21..=49 => {
                // One poll, or a pump until `None` as the server runs it.
                let limit = if r.chance(0.2) { cfg.mss } else { 65_000 };
                let pump = r.chance(0.5);
                while checked_poll(&mut sides, s, now, limit, &mut flight, &ctx) && pump {}
            }
            50..=84 if !flight.is_empty() => {
                // A random segment in flight: delayed and reordered.
                let (to, pkt) = flight.swap_remove(r.below(flight.len() as u64) as usize);
                if !r.chance(0.05) {
                    sides[to].stack.on_packet(now, &pkt);
                }
            }
            85..=92 => {
                // Fire timers, sometimes past the earliest deadline so
                // several connections are due together.
                if let Some(t) = sides[s].stack.next_timer() {
                    now = now.max(t) + SimDuration::from_micros(r.below(2_000));
                    checked_on_timer(&mut sides[s].stack, now, &ctx);
                }
            }
            _ => now += SimDuration::from_micros(r.below(50)),
        }
        check(&mut sides, &ctx);
    }

    // Teardown: close every connection in random order, a little apart, so
    // TIME_WAIT deadlines fall out of index order; let the FINs cross over
    // a lossless channel; then expire every TIME_WAIT in one call.
    for s in 0..2 {
        let mut ids: Vec<ConnId> = sides[s].stack.conn_ids().collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, r.below(i as u64 + 1) as usize);
        }
        for id in ids {
            sides[s].stack.close(id);
            now += SimDuration::from_micros(r.below(20));
            check(&mut sides, &format!("seed={seed} teardown close {id:?}"));
        }
    }
    for round in 0.. {
        let ctx = format!("seed={seed} teardown round={round}");
        let mut moved = false;
        for s in 0..2 {
            while checked_poll(&mut sides, s, now, 65_000, &mut flight, &ctx) {
                moved = true;
            }
        }
        while !flight.is_empty() {
            let (to, pkt) = flight.swap_remove(r.below(flight.len() as u64) as usize);
            sides[to].stack.on_packet(now, &pkt);
            moved = true;
        }
        check(&mut sides, &ctx);
        if !moved {
            break;
        }
        now += SimDuration::from_micros(r.below(20));
    }
    let expire = now + SimDuration::from_millis(3);
    (sides.iter_mut())
        .map(|side| checked_on_timer(&mut side.stack, expire, &format!("seed={seed} expiry")))
        .sum()
}

#[test]
fn stack_indexes_match_brute_force_scans() {
    for seed in 1..=4 {
        let closes = run_stack_case(seed, 64, 6_000);
        assert!(closes > 1, "seed={seed}: no TIME_WAIT batch expired");
    }
}
