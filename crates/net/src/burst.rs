//! Packet bursts: the vector-datapath unit of work.
//!
//! The DES kernel delivers same-instant frame runs to a node as one burst
//! (see `fastrak_sim::kernel::Node::on_burst`); this module is the shared
//! vocabulary the host and switch pipelines use to walk such a burst as
//! *runs* — maximal stretches of consecutive packets that share a
//! classification key (flow key, outer header, ingress port). Table probes
//! are amortized once per run, while every per-packet side effect (costs,
//! token buckets, RNG draws, event sends) stays in the original arrival
//! order — batching is an amortization of the scalar path, never a
//! reordering of it.

use crate::event::Event;
use crate::packet::Packet;

/// Length of the maximal run at the front of `items` whose elements all map
/// to the same key as the first. Returns 0 for an empty slice.
pub fn run_len<T, K: PartialEq>(items: &[T], key: impl Fn(&T) -> K) -> usize {
    let Some(first) = items.first() else {
        return 0;
    };
    let k0 = key(first);
    1 + items[1..].iter().take_while(|it| key(it) == k0).count()
}

/// An ordered burst of frames delivered to one node at one instant.
///
/// Consumers drain it front to back: compute the head run's length with
/// [`PacketBurst::run_len`] against whatever classification key the stage
/// cares about, amortize the run's shared probe, then drain those frames
/// through the per-packet continuation.
#[derive(Debug, Default)]
pub struct PacketBurst {
    /// `(ingress port, packet)` in delivery (time, seq) order. Packets stay
    /// boxed as the kernel delivered them.
    pub frames: Vec<(usize, Box<Packet>)>,
}

impl PacketBurst {
    /// Build a burst by draining a kernel event buffer. Every event must be
    /// a frame — nodes guarantee that by only marking `Event::Frame`
    /// burst-eligible.
    ///
    /// # Panics
    /// Panics on a non-frame event: that would mean a node let a cancellable
    /// event kind into a burst, which breaks cancel semantics.
    pub fn from_events(evs: &mut Vec<Event>) -> PacketBurst {
        PacketBurst {
            frames: evs
                .drain(..)
                .map(|ev| match ev {
                    Event::Frame { port, pkt } => (port, pkt),
                    other => panic!("non-frame event in a burst: {other:?}"),
                })
                .collect(),
        }
    }

    /// Frames remaining.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when fully drained.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Length of the run at the front sharing `key(port, pkt)`.
    pub fn run_len<K: PartialEq>(&self, key: impl Fn(usize, &Packet) -> K) -> usize {
        run_len(&self.frames, |(port, pkt)| key(*port, pkt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Ip, TenantId};
    use crate::flow::{FlowKey, Proto};
    use crate::packet::L4Meta;
    use fastrak_sim::time::SimTime;

    fn pkt(dst_port: u16) -> Box<Packet> {
        Box::new(Packet::new(
            1,
            FlowKey {
                tenant: TenantId(1),
                src_ip: Ip::new(10, 0, 0, 1),
                dst_ip: Ip::new(10, 0, 0, 2),
                proto: Proto::Udp,
                src_port: 9,
                dst_port,
            },
            L4Meta::Udp,
            100,
            SimTime::ZERO,
        ))
    }

    #[test]
    fn run_len_finds_maximal_prefix_runs() {
        let items = [1, 1, 1, 2, 2, 1];
        assert_eq!(run_len(&items, |&x| x), 3);
        assert_eq!(run_len(&items[3..], |&x| x), 2);
        assert_eq!(run_len(&items[5..], |&x| x), 1);
        assert_eq!(run_len::<i32, i32>(&[], |&x| x), 0);
    }

    #[test]
    fn burst_drains_runs_in_order() {
        let mut evs = vec![
            Event::Frame {
                port: 0,
                pkt: pkt(80),
            },
            Event::Frame {
                port: 0,
                pkt: pkt(80),
            },
            Event::Frame {
                port: 1,
                pkt: pkt(80),
            },
            Event::Frame {
                port: 1,
                pkt: pkt(81),
            },
        ];
        let mut burst = PacketBurst::from_events(&mut evs);
        assert!(evs.is_empty());
        assert_eq!(burst.len(), 4);
        let mut runs = Vec::new();
        while !burst.is_empty() {
            let n = burst.run_len(|port, p| (port, p.flow));
            runs.push(n);
            burst.frames.drain(..n).for_each(drop);
        }
        assert_eq!(runs, vec![2, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "non-frame event")]
    fn non_frame_events_are_rejected() {
        let mut evs = vec![Event::Timer { tag: 1, a: 0, b: 0 }];
        let _ = PacketBurst::from_events(&mut evs);
    }
}
