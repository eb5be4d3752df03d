//! The per-VM connection stack: demultiplexes packets to connections,
//! accepts incoming connections on listening ports, and multiplexes
//! transmissions fairly (round-robin) across connections — the guest-kernel
//! role in the simulated VM.

use fastrak_sim::{FxHashMap, FxHashSet};
use std::collections::{BTreeSet, VecDeque};

use fastrak_net::flow::FlowKey;
use fastrak_net::headers::{ecn, tcp_flags};
use fastrak_net::packet::{L4Meta, Packet};
use fastrak_sim::time::SimTime;

use crate::tcp::{SegmentPlan, TcpConfig, TcpConn, TcpState};

/// Identifier of a connection within one stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u32);

/// Socket-level events the application layer consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SockEvent {
    /// An outgoing connection completed its handshake.
    Connected(ConnId),
    /// A listening port accepted a new connection.
    Accepted {
        /// The new connection.
        conn: ConnId,
        /// The listening port that accepted it.
        port: u16,
    },
    /// In-order bytes arrived on a connection.
    Delivered {
        /// The connection.
        conn: ConnId,
        /// Newly delivered byte count.
        bytes: u64,
    },
    /// The peer's FIN was consumed: no more data will arrive. The local
    /// side may keep sending (half-close) until it calls close itself.
    PeerClosed(ConnId),
    /// The connection fully left the state machine (LAST_ACK's final ACK
    /// arrived, TIME_WAIT expired, or an RST tore it down).
    Closed(ConnId),
    /// The peer reset the connection.
    Reset(ConnId),
}

/// A set of connection indexes, one bit per connection.
#[derive(Debug, Clone, Default)]
struct ConnSet(Vec<u64>);

impl ConnSet {
    /// Insert `idx`; false when it was already a member.
    fn insert(&mut self, idx: usize) -> bool {
        let w = idx / 64;
        if w >= self.0.len() {
            self.0.resize(w + 1, 0);
        }
        let bit = 1 << (idx % 64);
        let fresh = self.0[w] & bit == 0;
        self.0[w] |= bit;
        fresh
    }

    fn remove(&mut self, idx: usize) {
        self.0[idx / 64] &= !(1 << (idx % 64));
    }

    /// Insert `0..n`.
    fn fill(&mut self, n: usize) {
        for idx in 0..n {
            self.insert(idx);
        }
    }

    /// The smallest member in `lo..hi`.
    fn first_in(&self, lo: usize, hi: usize) -> Option<usize> {
        let mut w = lo / 64;
        let mut bits = self.0.get(w)? & (!0u64 << (lo % 64));
        loop {
            if bits != 0 {
                let idx = w * 64 + bits.trailing_zeros() as usize;
                return (idx < hi).then_some(idx);
            }
            w += 1;
            if w * 64 >= hi {
                return None;
            }
            bits = *self.0.get(w)?;
        }
    }
}

/// A VM's TCP stack.
///
/// Two indexes, kept in step by every method that mutates a connection,
/// make each call cost work proportional to the connections that changed:
/// - `ready` holds every connection whose next `poll_transmit` may do
///   something. A connection leaves it only when its own poll returned
///   `None` with no retransmission queued: a `None` can pop a queued
///   retransmission that was already acked, and the next poll must still
///   send the entry behind it.
/// - `deadlines` orders `(earliest timer deadline, connection)` over every
///   connection with a pending timer; `deadline_of` is each connection's
///   key in it. A mutation only marks the connection `stale`, and
///   `next_timer` and `on_timer` re-key the stale ones first, so a
///   connection touched several times in one pump is re-keyed once.
#[derive(Debug, Clone)]
pub struct TcpStack {
    cfg: TcpConfig,
    conns: Vec<TcpConn>,
    by_flow: FxHashMap<FlowKey, usize>,
    listeners: FxHashSet<u16>,
    events: VecDeque<SockEvent>,
    rr_cursor: usize,
    ready: ConnSet,
    /// Connections mutated since `reindex` last ran, as a set and a list.
    stale: ConnSet,
    stale_list: Vec<usize>,
    deadlines: BTreeSet<(SimTime, usize)>,
    deadline_of: Vec<Option<SimTime>>,
    /// The `seg_limit` of the previous `poll_transmit` (0 before the
    /// first). A smaller one can turn a window-blocked `None` into a
    /// segment, so it puts every connection back in `ready`.
    seg_limit: u32,
    /// Scratch list of the connections due in `on_timer`.
    due: Vec<usize>,
}

impl TcpStack {
    /// An empty stack with the given TCP configuration.
    pub fn new(cfg: TcpConfig) -> TcpStack {
        TcpStack {
            cfg,
            conns: Vec::new(),
            by_flow: FxHashMap::default(),
            listeners: FxHashSet::default(),
            events: VecDeque::new(),
            rr_cursor: 0,
            ready: ConnSet::default(),
            stale: ConnSet::default(),
            stale_list: Vec::new(),
            deadlines: BTreeSet::new(),
            deadline_of: Vec::new(),
            seg_limit: 0,
            due: Vec::new(),
        }
    }

    /// Append a connection and index it.
    fn push_conn(&mut self, conn: TcpConn) -> usize {
        let idx = self.conns.len();
        self.by_flow.insert(conn.flow, idx);
        self.conns.push(conn);
        self.deadline_of.push(None);
        self.touched(idx);
        idx
    }

    /// Note a mutation of connection `idx`: it may have something to send,
    /// and its earliest deadline may have moved.
    fn touched(&mut self, idx: usize) {
        self.ready.insert(idx);
        self.mark_stale(idx);
    }

    /// Connection `idx`'s earliest deadline may have moved.
    fn mark_stale(&mut self, idx: usize) {
        if self.stale.insert(idx) {
            self.stale_list.push(idx);
        }
    }

    /// Re-key the stale connections in `deadlines`.
    fn reindex(&mut self) {
        for idx in self.stale_list.drain(..) {
            self.stale.remove(idx);
            let next = self.conns[idx].next_timer().map(|(t, _)| t);
            let old = std::mem::replace(&mut self.deadline_of[idx], next);
            if old != next {
                if let Some(t) = old {
                    self.deadlines.remove(&(t, idx));
                }
                if let Some(t) = next {
                    self.deadlines.insert((t, idx));
                }
            }
        }
    }

    /// Start accepting connections on `port`.
    pub fn listen(&mut self, port: u16) {
        self.listeners.insert(port);
    }

    /// Open a client connection with the given outgoing flow key. The SYN is
    /// emitted by the next [`TcpStack::poll_transmit`].
    pub fn connect(&mut self, flow: FlowKey) -> ConnId {
        debug_assert!(
            !self.by_flow.contains_key(&flow),
            "duplicate connection for {flow:?}"
        );
        ConnId(self.push_conn(TcpConn::client(flow, self.cfg)) as u32)
    }

    /// Queue an application write on `conn`; false when the send buffer is
    /// full.
    pub fn app_send(&mut self, conn: ConnId, bytes: u64) -> bool {
        let idx = conn.0 as usize;
        let accepted = self.conns[idx].app_send(bytes);
        self.touched(idx);
        accepted
    }

    /// Graceful close: a FIN follows any queued data. The connection keeps
    /// receiving until the peer closes too (half-close semantics).
    pub fn close(&mut self, conn: ConnId) {
        let idx = conn.0 as usize;
        self.conns[idx].close();
        self.touched(idx);
    }

    /// Abortive close: emit an RST and discard all state immediately.
    pub fn abort(&mut self, conn: ConnId) {
        let idx = conn.0 as usize;
        self.conns[idx].abort();
        self.touched(idx);
    }

    /// Access a connection (stats, state).
    pub fn conn(&self, id: ConnId) -> &TcpConn {
        &self.conns[id.0 as usize]
    }

    /// All connection ids.
    pub fn conn_ids(&self) -> impl Iterator<Item = ConnId> {
        (0..self.conns.len() as u32).map(ConnId)
    }

    /// Number of connections ever opened or accepted. Closed connections
    /// keep their slot (and id); a new SYN on a closed or TIME_WAIT flow
    /// key reuses it.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// True when no connections exist.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// The connection id owning an outgoing flow key.
    pub fn conn_by_flow(&self, flow: &FlowKey) -> Option<ConnId> {
        self.by_flow.get(flow).map(|&i| ConnId(i as u32))
    }

    /// Feed a received packet into the stack.
    pub fn on_packet(&mut self, now: SimTime, pkt: &Packet) {
        let L4Meta::Tcp { seq, ack, flags } = pkt.l4 else {
            return; // non-TCP is dropped by this stack
        };
        let is_bare_syn = flags & tcp_flags::SYN != 0 && flags & tcp_flags::ACK == 0;
        let ecn_requested = flags & tcp_flags::ECE != 0 && flags & tcp_flags::CWR != 0;
        // The sender's flow reversed is our outgoing flow key.
        let ours = pkt.flow.reverse();
        let idx = match self.by_flow.get(&ours) {
            Some(&i) => i,
            None => {
                // New inbound connection?
                if is_bare_syn && self.listeners.contains(&pkt.flow.dst_port) {
                    let mut conn = TcpConn::server(ours, self.cfg);
                    conn.set_peer_ecn_request(ecn_requested);
                    let id = self.push_conn(conn);
                    self.events.push_back(SockEvent::Accepted {
                        conn: ConnId(id as u32),
                        port: pkt.flow.dst_port,
                    });
                    return; // the SYN itself carries no data
                }
                return; // no listener: drop (RST not modelled)
            }
        };
        // TIME_WAIT / CLOSED reuse: a fresh SYN on a finished flow key
        // replaces the stale incarnation with a new accepted connection
        // (the simulated equivalent of SO_REUSEADDR + sequence validation).
        if is_bare_syn
            && matches!(
                self.conns[idx].state(),
                TcpState::TimeWait | TcpState::Closed
            )
            && self.listeners.contains(&pkt.flow.dst_port)
        {
            let mut conn = TcpConn::server(ours, self.cfg);
            conn.set_peer_ecn_request(ecn_requested);
            self.conns[idx] = conn;
            self.touched(idx);
            self.events.push_back(SockEvent::Accepted {
                conn: ConnId(idx as u32),
                port: pkt.flow.dst_port,
            });
            return;
        }
        let out = self.conns[idx].on_segment_full(
            now,
            seq,
            ack,
            flags,
            pkt.payload as u64,
            pkt.ecn == ecn::CE,
            pkt.sack,
        );
        self.touched(idx);
        if out.connected {
            self.events
                .push_back(SockEvent::Connected(ConnId(idx as u32)));
        }
        if out.delivered > 0 {
            self.events.push_back(SockEvent::Delivered {
                conn: ConnId(idx as u32),
                bytes: out.delivered,
            });
        }
        if out.peer_fin {
            self.events
                .push_back(SockEvent::PeerClosed(ConnId(idx as u32)));
        }
        if out.reset {
            self.events.push_back(SockEvent::Reset(ConnId(idx as u32)));
        }
        if out.closed {
            self.events.push_back(SockEvent::Closed(ConnId(idx as u32)));
        }
    }

    /// Produce the next segment any connection wants to send, round-robin
    /// across connections for fairness (netperf's threads share the link).
    /// The order is that of a cyclic scan from `rr_cursor`; connections
    /// outside the ready set would return `None` and are skipped.
    pub fn poll_transmit(&mut self, now: SimTime, seg_limit: u32) -> Option<(ConnId, SegmentPlan)> {
        if seg_limit < self.seg_limit {
            self.ready.fill(self.conns.len());
        }
        self.seg_limit = seg_limit;
        let n = self.conns.len();
        let start = self.rr_cursor;
        for (mut lo, hi) in [(start, n), (0, start)] {
            while let Some(idx) = self.ready.first_in(lo, hi) {
                lo = idx + 1;
                if let Some(plan) = self.conns[idx].poll_transmit(now, seg_limit) {
                    self.mark_stale(idx);
                    self.rr_cursor = lo % n;
                    return Some((ConnId(idx as u32), plan));
                }
                if !self.conns[idx].has_queued_rtx() {
                    self.ready.remove(idx);
                }
            }
        }
        None
    }

    /// Earliest timer deadline across all connections (mutable: it first
    /// re-keys the connections changed since the last call).
    pub fn next_timer(&mut self) -> Option<SimTime> {
        self.reindex();
        self.deadlines.first().map(|&(t, _)| t)
    }

    /// Fire all timers due at `now`. Follow with [`TcpStack::poll_transmit`].
    /// Due connections fire in index order, so `Closed` events come out in
    /// the order of a full scan.
    pub fn on_timer(&mut self, now: SimTime) {
        self.reindex();
        let mut due = std::mem::take(&mut self.due);
        due.extend(
            self.deadlines
                .range(..=(now, usize::MAX))
                .map(|&(_, idx)| idx),
        );
        due.sort_unstable();
        for &idx in &due {
            let c = &mut self.conns[idx];
            let was_closed = c.is_closed();
            while let Some((deadline, which)) = c.next_timer() {
                if deadline > now {
                    break;
                }
                c.on_timer(now, which);
                // on_timer may not clear the deadline if stale; guard against
                // an infinite loop by breaking when nothing changed.
                if c.next_timer().map(|(t, _)| t) == Some(deadline) {
                    break;
                }
            }
            if !was_closed && c.is_closed() {
                // TIME_WAIT expiry (2·MSL) released the connection.
                self.events.push_back(SockEvent::Closed(ConnId(idx as u32)));
            }
            self.touched(idx);
        }
        due.clear();
        self.due = due;
    }

    /// Drain pending socket events.
    pub fn drain_events(&mut self) -> Vec<SockEvent> {
        self.events.drain(..).collect()
    }

    /// Drain pending socket events onto the end of `out`, reusing its
    /// allocation.
    pub fn drain_events_into(&mut self, out: &mut Vec<SockEvent>) {
        out.extend(self.events.drain(..));
    }

    /// Are there pending socket events?
    pub fn has_events(&self) -> bool {
        !self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastrak_net::addr::{Ip, TenantId};
    use fastrak_net::flow::Proto;

    fn flow(src_port: u16) -> FlowKey {
        FlowKey {
            tenant: TenantId(1),
            src_ip: Ip::new(10, 0, 0, 1),
            dst_ip: Ip::new(10, 0, 0, 2),
            proto: Proto::Tcp,
            src_port,
            dst_port: 7000,
        }
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// Shuttle packets between two stacks until quiescent.
    fn pump(a: &mut TcpStack, b: &mut TcpStack, now_us: &mut u64) {
        loop {
            let mut moved = false;
            while let Some((id, plan)) = a.poll_transmit(t(*now_us), 65_000) {
                let pkt = mk_pkt(a.conn(id).flow, plan);
                b.on_packet(t(*now_us + 10), &pkt);
                *now_us += 10;
                moved = true;
            }
            while let Some((id, plan)) = b.poll_transmit(t(*now_us), 65_000) {
                let pkt = mk_pkt(b.conn(id).flow, plan);
                a.on_packet(t(*now_us + 10), &pkt);
                *now_us += 10;
                moved = true;
            }
            if !moved {
                break;
            }
        }
    }

    fn mk_pkt(flow: FlowKey, plan: SegmentPlan) -> Packet {
        let mut pkt = Packet::new(
            0,
            flow,
            L4Meta::Tcp {
                seq: plan.seq,
                ack: plan.ack,
                flags: plan.flags,
            },
            plan.len,
            t(0),
        );
        pkt.ecn = plan.ecn;
        pkt.sack = plan.sack;
        pkt
    }

    #[test]
    fn listen_accept_connect_deliver() {
        let mut client = TcpStack::new(TcpConfig::default());
        let mut server = TcpStack::new(TcpConfig::default());
        server.listen(7000);
        let c = client.connect(flow(40_000));
        let mut now = 0;
        pump(&mut client, &mut server, &mut now);
        let cli_events = client.drain_events();
        assert!(cli_events.contains(&SockEvent::Connected(c)));
        let srv_events = server.drain_events();
        assert!(matches!(
            srv_events[0],
            SockEvent::Accepted { port: 7000, .. }
        ));

        // Send data and observe delivery.
        client.app_send(c, 5000);
        pump(&mut client, &mut server, &mut now);
        let delivered: u64 = server
            .drain_events()
            .iter()
            .filter_map(|e| match e {
                SockEvent::Delivered { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .sum();
        assert_eq!(delivered, 5000);
    }

    #[test]
    fn syn_to_closed_port_dropped() {
        let mut client = TcpStack::new(TcpConfig::default());
        let mut server = TcpStack::new(TcpConfig::default());
        // No listener installed.
        let _c = client.connect(flow(40_001));
        let mut now = 0;
        pump(&mut client, &mut server, &mut now);
        assert!(server.is_empty());
        assert!(client.drain_events().is_empty());
    }

    #[test]
    fn two_connections_round_robin() {
        let mut client = TcpStack::new(TcpConfig::default());
        let mut server = TcpStack::new(TcpConfig::default());
        server.listen(7000);
        let c1 = client.connect(flow(40_002));
        let c2 = client.connect(flow(40_003));
        let mut now = 0;
        pump(&mut client, &mut server, &mut now);
        client.drain_events();
        client.app_send(c1, 100);
        client.app_send(c2, 100);
        let (id_a, _) = client.poll_transmit(t(now), 65_000).unwrap();
        let (id_b, _) = client.poll_transmit(t(now), 65_000).unwrap();
        assert_ne!(id_a, id_b, "round robin must alternate connections");
    }

    #[test]
    fn conn_by_flow_resolves() {
        let mut client = TcpStack::new(TcpConfig::default());
        let c = client.connect(flow(40_004));
        assert_eq!(client.conn_by_flow(&flow(40_004)), Some(c));
        assert_eq!(client.conn_by_flow(&flow(1)), None);
    }

    #[test]
    fn close_lifecycle_emits_events_and_reuses_time_wait_flow() {
        let mut client = TcpStack::new(TcpConfig::default());
        let mut server = TcpStack::new(TcpConfig::default());
        server.listen(7000);
        let c = client.connect(flow(40_010));
        let mut now = 0;
        pump(&mut client, &mut server, &mut now);
        let srv_conn = server
            .drain_events()
            .iter()
            .find_map(|e| match e {
                SockEvent::Accepted { conn, .. } => Some(*conn),
                _ => None,
            })
            .unwrap();
        client.drain_events();

        // Client closes; server sees the peer FIN.
        client.close(c);
        pump(&mut client, &mut server, &mut now);
        assert!(server
            .drain_events()
            .contains(&SockEvent::PeerClosed(srv_conn)));
        assert_eq!(server.conn(srv_conn).state(), TcpState::CloseWait);

        // Server closes too; its final ACK retires it, the client enters
        // TIME_WAIT and expires 2·MSL later.
        server.close(srv_conn);
        pump(&mut client, &mut server, &mut now);
        assert!(server.drain_events().contains(&SockEvent::Closed(srv_conn)));
        assert!(client.drain_events().contains(&SockEvent::PeerClosed(c)));
        assert_eq!(client.conn(c).state(), TcpState::TimeWait);
        let deadline = client.next_timer().unwrap();
        client.on_timer(deadline);
        assert!(client.drain_events().contains(&SockEvent::Closed(c)));
        assert!(client.conn(c).is_closed());

        // A fresh SYN on the server's finished flow key replaces the stale
        // incarnation in place (TIME_WAIT/CLOSED reuse).
        let mut client2 = TcpStack::new(TcpConfig::default());
        let c2 = client2.connect(flow(40_010));
        pump(&mut client2, &mut server, &mut now);
        let evs = server.drain_events();
        assert!(evs.contains(&SockEvent::Accepted {
            conn: srv_conn,
            port: 7000
        }));
        assert!(client2.drain_events().contains(&SockEvent::Connected(c2)));
        assert!(server.conn(srv_conn).is_established());
    }

    #[test]
    fn abort_resets_the_peer() {
        let mut client = TcpStack::new(TcpConfig::default());
        let mut server = TcpStack::new(TcpConfig::default());
        server.listen(7000);
        let c = client.connect(flow(40_011));
        let mut now = 0;
        pump(&mut client, &mut server, &mut now);
        let srv_conn = server
            .drain_events()
            .iter()
            .find_map(|e| match e {
                SockEvent::Accepted { conn, .. } => Some(*conn),
                _ => None,
            })
            .unwrap();
        client.abort(c);
        pump(&mut client, &mut server, &mut now);
        assert!(server.drain_events().contains(&SockEvent::Reset(srv_conn)));
        assert!(server.conn(srv_conn).is_closed());
        assert!(client.conn(c).is_closed());
    }

    #[test]
    fn ecn_negotiates_through_the_stack() {
        let cfg = TcpConfig {
            ecn: true,
            ..TcpConfig::default()
        };
        let mut client = TcpStack::new(cfg);
        let mut server = TcpStack::new(cfg);
        server.listen(7000);
        let c = client.connect(flow(40_012));
        let mut now = 0;
        pump(&mut client, &mut server, &mut now);
        let srv_conn = server
            .drain_events()
            .iter()
            .find_map(|e| match e {
                SockEvent::Accepted { conn, .. } => Some(*conn),
                _ => None,
            })
            .unwrap();
        assert!(client.conn(c).ecn_active());
        assert!(server.conn(srv_conn).ecn_active());

        // A non-ECN client against an ECN-capable server: not negotiated.
        let mut plain = TcpStack::new(TcpConfig::default());
        let p = plain.connect(flow(40_013));
        pump(&mut plain, &mut server, &mut now);
        assert!(!plain.conn(p).ecn_active());
    }

    #[test]
    fn stale_retransmission_pop_keeps_the_connection_ready() {
        let mut client = TcpStack::new(TcpConfig::default());
        let mut server = TcpStack::new(TcpConfig::default());
        server.listen(7000);
        let c = client.connect(flow(40_020));
        let mut now = 0;
        pump(&mut client, &mut server, &mut now);
        let mss = TcpConfig::default().mss;
        client.app_send(c, 10 * mss as u64);
        let mut segs = Vec::new();
        while let Some((id, plan)) = client.poll_transmit(t(now), mss) {
            segs.push(mk_pkt(client.conn(id).flow, plan));
        }
        assert_eq!(segs.len(), 10);
        // The first segment is delayed: three dup ACKs queue its fast
        // retransmission, then it arrives after all and the partial ACK
        // queues the next hole behind the now-stale first entry.
        for seg in [&segs[1], &segs[2], &segs[3], &segs[0]] {
            server.on_packet(t(now), seg);
            while let Some((id, plan)) = server.poll_transmit(t(now), mss) {
                client.on_packet(t(now), &mk_pkt(server.conn(id).flow, plan));
            }
        }
        assert_eq!(client.conn(c).stats.fast_retransmits, 1);
        // This poll pops the stale entry and has nothing else to send ...
        assert!(client.poll_transmit(t(now), mss).is_none());
        // ... but the hole's retransmission is still queued behind it.
        let (id, plan) = client.poll_transmit(t(now), mss).unwrap();
        assert_eq!((id, plan.seq, plan.is_rtx), (c, 4 * mss as u64 + 1, true));
    }

    #[test]
    fn stack_timer_aggregates_connections() {
        let mut client = TcpStack::new(TcpConfig::default());
        let _ = client.connect(flow(40_005));
        // SYN not yet sent: no timer.
        assert!(client.next_timer().is_none());
        let _ = client.poll_transmit(t(0), 65_000).unwrap(); // SYN out
        assert!(client.next_timer().is_some());
    }
}
