//! The mesh interconnect: XY-routed point-to-point messages with
//! per-hop latency and bounded link buffers.
//!
//! The model is a 2-D mesh of router output queues — four per node
//! (east, west, south, north) plus one ejection queue per node. A
//! message carries its full XY route (all east/west hops first, then
//! all south/north hops — deterministic and deadlock-free on a mesh)
//! and moves at most one queue per cycle, gated by two resources:
//!
//! * **per-hop latency** — a message that entered a queue at cycle `t`
//!   may not leave before `t + link_latency`;
//! * **bounded buffers** — a move is blocked while the next queue holds
//!   `link_capacity` messages (credit-based backpressure), and only the
//!   *head* of a queue may move each cycle (one flit of bandwidth per
//!   link per cycle).
//!
//! Together with FIFO queue order these give the properties the NoC
//! property tests pin down: every injected message is delivered exactly
//! once, deliveries between one (src, dst) pair stay in injection
//! order, and end-to-end latency is at least
//! `(hops + 1) · link_latency`.
//!
//! All state transitions happen in [`Noc::advance`] /
//! [`Noc::try_inject`] / [`Noc::eject`], which the array's exchange
//! phase calls in a fixed order, so every run of the array replays the
//! same traffic. The exchange runs only on cycles where one of them can
//! change something: [`Noc::advance`] reports whether a head moved, and
//! `Noc::next_ready` names the next cycle at which a head's latency
//! elapses. A stalled NoC (heads waiting for room or for a free RX
//! mailbox) changes only when a message leaves a queue or a head's
//! latency elapses, so the cycles in between are no-ops the array
//! skips.

use std::cmp::Ordering;
use std::collections::VecDeque;

/// Timing/capacity parameters of the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocConfig {
    /// Cycles a message spends in every queue it enters (≥ 1).
    pub link_latency: u64,
    /// Messages a link or ejection queue can buffer (≥ 1).
    pub link_capacity: usize,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            link_latency: 2,
            link_capacity: 4,
        }
    }
}

/// A message delivered to its destination's ejection port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Linear index of the sending node.
    pub src: usize,
    /// Linear index of the receiving node.
    pub dst: usize,
    /// Payload words.
    pub payload: Vec<u32>,
    /// Cycle the message was injected.
    pub injected_at: u64,
    /// Cycle the message left the ejection queue.
    pub delivered_at: u64,
    /// Links the message traversed (the XY hop count).
    pub hops: usize,
}

/// A message somewhere between injection and ejection.
#[derive(Debug, Clone, PartialEq, Eq)]
struct InFlight {
    src: usize,
    dst: usize,
    payload: Vec<u32>,
    injected_at: u64,
    /// Output-queue ids the message traverses, in order.
    route: Vec<usize>,
    /// Index into `route` of the queue currently holding the message.
    hop: usize,
    /// Earliest cycle the message may leave its current queue.
    ready_at: u64,
}

/// Aggregate interconnect statistics, including the per-link transfer
/// counters behind the link-utilisation report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NocStats {
    /// Messages accepted by [`Noc::try_inject`].
    pub messages_injected: u64,
    /// Messages handed out by [`Noc::eject`].
    pub messages_delivered: u64,
    /// Total payload words injected.
    pub payload_words: u64,
    /// Total link hops over all injected messages' routes.
    pub total_hops: u64,
    /// Sum of per-message end-to-end latencies (delivered − injected).
    pub total_latency: u64,
    /// Messages that entered each link queue (index `node·4 + dir`).
    pub link_transfers: Vec<u64>,
    /// Per-delivery end-to-end latency samples, in delivery order
    /// (raw, so the reporting layer can bucket them into `epic-obs`
    /// histograms without this crate depending on it).
    pub latencies: Vec<u64>,
}

impl NocStats {
    fn new(links: usize) -> Self {
        NocStats {
            messages_injected: 0,
            messages_delivered: 0,
            payload_words: 0,
            total_hops: 0,
            total_latency: 0,
            link_transfers: vec![0; links],
            latencies: Vec::new(),
        }
    }

    /// Links that carried at least one message.
    #[must_use]
    pub fn links_used(&self) -> usize {
        self.link_transfers.iter().filter(|&&t| t > 0).count()
    }

    /// The busiest link's transfer count.
    #[must_use]
    pub fn max_link_transfers(&self) -> u64 {
        self.link_transfers.iter().copied().max().unwrap_or(0)
    }
}

/// Output-port directions, in link-id order.
const DIR_EAST: usize = 0;
const DIR_WEST: usize = 1;
const DIR_SOUTH: usize = 2;
const DIR_NORTH: usize = 3;

/// Human-readable name of a link id (`"(x,y)→E"` style), for reports.
#[must_use]
pub fn link_name(link: usize, width: usize) -> String {
    let node = link / 4;
    let dir = ["E", "W", "S", "N"][link % 4];
    format!("({},{})→{dir}", node % width, node / width)
}

/// The mesh interconnect state: link queues, ejection queues and
/// counters. See the module docs for the timing model.
#[derive(Debug, Clone)]
pub struct Noc {
    width: usize,
    height: usize,
    config: NocConfig,
    links: Vec<VecDeque<InFlight>>,
    eject: Vec<VecDeque<InFlight>>,
    stats: NocStats,
}

impl Noc {
    /// Creates an idle `width`×`height` mesh.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate geometry or configuration (zero
    /// dimension, latency or capacity) — construction parameters, not
    /// runtime data.
    #[must_use]
    pub fn new(width: usize, height: usize, config: NocConfig) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        assert!(config.link_latency >= 1, "link latency must be >= 1");
        assert!(config.link_capacity >= 1, "link capacity must be >= 1");
        let nodes = width * height;
        Noc {
            width,
            height,
            config,
            links: vec![VecDeque::new(); nodes * 4],
            eject: vec![VecDeque::new(); nodes],
            stats: NocStats::new(nodes * 4),
        }
    }

    /// Nodes in the mesh.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.width * self.height
    }

    /// Statistics gathered so far.
    #[must_use]
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Whether no message is in flight anywhere: every injected message
    /// has been ejected.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.stats.messages_injected == self.stats.messages_delivered
    }

    /// The XY route from `src` to `dst` as output-queue ids: all
    /// east/west hops, then all south/north hops (empty for a
    /// self-send, which goes straight to the ejection queue).
    #[must_use]
    pub fn route(&self, src: usize, dst: usize) -> Vec<usize> {
        let (mut x, mut y) = (src % self.width, src / self.width);
        let (dx, dy) = (dst % self.width, dst / self.width);
        let mut out = Vec::new();
        while x != dx {
            let dir = if x < dx { DIR_EAST } else { DIR_WEST };
            out.push((y * self.width + x) * 4 + dir);
            if x < dx {
                x += 1;
            } else {
                x -= 1;
            }
        }
        while y != dy {
            let dir = if y < dy { DIR_SOUTH } else { DIR_NORTH };
            out.push((y * self.width + x) * 4 + dir);
            if y < dy {
                y += 1;
            } else {
                y -= 1;
            }
        }
        out
    }

    /// The first queue of the XY route from `src` to `dst`: its first
    /// link, or `None` for a self-send, which enters `dst`'s ejection
    /// queue directly.
    fn first_hop(&self, src: usize, dst: usize) -> Option<usize> {
        let (x, y) = (src % self.width, src / self.width);
        let (dx, dy) = (dst % self.width, dst / self.width);
        let dir = match (x.cmp(&dx), y.cmp(&dy)) {
            (Ordering::Less, _) => DIR_EAST,
            (Ordering::Greater, _) => DIR_WEST,
            (Ordering::Equal, Ordering::Less) => DIR_SOUTH,
            (Ordering::Equal, Ordering::Greater) => DIR_NORTH,
            (Ordering::Equal, Ordering::Equal) => return None,
        };
        Some(src * 4 + dir)
    }

    /// Whether the first queue of the route from `src` to `dst` has
    /// room, i.e. whether [`try_inject`](Noc::try_inject) would accept a
    /// message between them now.
    ///
    /// # Panics
    ///
    /// Panics when `src`/`dst` are outside the mesh.
    pub(crate) fn has_room(&self, src: usize, dst: usize) -> bool {
        assert!(src < self.nodes() && dst < self.nodes(), "node off-mesh");
        let queued = match self.first_hop(src, dst) {
            Some(link) => self.links[link].len(),
            None => self.eject[dst].len(),
        };
        queued < self.config.link_capacity
    }

    /// Offers a message at `src`'s injection port at cycle `now`.
    /// Returns whether the first queue had room (a refused message can
    /// simply be offered again next cycle). A refused offer changes
    /// nothing and allocates nothing; an accepted one copies `payload`.
    ///
    /// # Panics
    ///
    /// Panics when `src`/`dst` are outside the mesh or the payload is
    /// empty — caller bugs, not backpressure.
    pub fn try_inject(&mut self, now: u64, src: usize, dst: usize, payload: &[u32]) -> bool {
        assert!(!payload.is_empty(), "empty payload");
        if !self.has_room(src, dst) {
            return false;
        }
        let route = self.route(src, dst);
        self.stats.messages_injected += 1;
        self.stats.payload_words += payload.len() as u64;
        self.stats.total_hops += route.len() as u64;
        let msg = InFlight {
            src,
            dst,
            payload: payload.to_vec(),
            injected_at: now,
            hop: 0,
            ready_at: now + self.config.link_latency,
            route,
        };
        match msg.route.first() {
            Some(&link) => {
                self.stats.link_transfers[link] += 1;
                self.links[link].push_back(msg);
            }
            None => self.eject[dst].push_back(msg),
        }
        true
    }

    /// Moves message heads one queue onward where latency has elapsed
    /// and the next queue has room, and returns whether a head moved.
    /// Call at most once per cycle, after ejection and before injection;
    /// iteration over links is in fixed id order, so the outcome is a
    /// pure function of the state. A cycle may skip the call when it
    /// would move nothing: after a call that moved nothing, until the
    /// next cycle at which a head's latency elapses or a queue loses a
    /// message.
    pub fn advance(&mut self, now: u64) -> bool {
        let mut moved = false;
        for link in 0..self.links.len() {
            let Some(head) = self.links[link].front() else {
                continue;
            };
            if head.ready_at > now {
                continue;
            }
            let next = head.route.get(head.hop + 1).copied();
            let has_room = match next {
                Some(l) => self.links[l].len() < self.config.link_capacity,
                None => self.eject[head.dst].len() < self.config.link_capacity,
            };
            if !has_room {
                continue;
            }
            let mut msg = self.links[link].pop_front().expect("head exists");
            msg.hop += 1;
            msg.ready_at = now + self.config.link_latency;
            match next {
                Some(l) => {
                    self.stats.link_transfers[l] += 1;
                    self.links[l].push_back(msg);
                }
                None => self.eject[msg.dst].push_back(msg),
            }
            moved = true;
        }
        moved
    }

    /// The earliest cycle after `now` at which the latency of a message
    /// at the head of a link or ejection queue elapses, if any: the
    /// first cycle a head that could not leave by `now` for want of
    /// time may leave.
    #[must_use]
    pub(crate) fn next_ready(&self, now: u64) -> Option<u64> {
        (self.links.iter().chain(&self.eject))
            .filter_map(|queue| Some(queue.front()?.ready_at))
            .filter(|&ready_at| ready_at > now)
            .min()
    }

    /// Pops the head of `dst`'s ejection queue if its latency has
    /// elapsed — at most one delivery per node per cycle (a single
    /// ejection port).
    pub fn eject(&mut self, now: u64, dst: usize) -> Option<Delivery> {
        if self.eject[dst].front()?.ready_at > now {
            return None;
        }
        let msg = self.eject[dst].pop_front()?;
        let latency = now - msg.injected_at;
        self.stats.messages_delivered += 1;
        self.stats.total_latency += latency;
        self.stats.latencies.push(latency);
        Some(Delivery {
            src: msg.src,
            dst: msg.dst,
            hops: msg.route.len(),
            payload: msg.payload,
            injected_at: msg.injected_at,
            delivered_at: now,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_one(noc: &mut Noc, dst: usize, cap: u64) -> Delivery {
        let mut now = 0;
        loop {
            assert_eq!(
                noc.is_idle(),
                queues_empty(noc),
                "idle iff every queue is empty"
            );
            if let Some(d) = noc.eject(now, dst) {
                return d;
            }
            noc.advance(now);
            now += 1;
            assert!(now < cap, "message never delivered");
        }
    }

    fn queues_empty(noc: &Noc) -> bool {
        noc.links.iter().chain(&noc.eject).all(VecDeque::is_empty)
    }

    #[test]
    fn self_send_takes_at_least_one_link_latency() {
        let mut noc = Noc::new(1, 1, NocConfig::default());
        assert!(noc.try_inject(0, 0, 0, &[42]));
        let d = drain_one(&mut noc, 0, 100);
        assert_eq!(d.payload, vec![42]);
        assert_eq!(d.hops, 0);
        assert!(d.delivered_at - d.injected_at >= noc.config.link_latency);
        assert!(noc.is_idle());
        assert!(queues_empty(&noc));
    }

    #[test]
    fn xy_route_goes_x_first() {
        let noc = Noc::new(4, 4, NocConfig::default());
        // (1,1) -> (3,2): two east hops, then one south hop.
        let route = noc.route(5, 11);
        assert_eq!(route.len(), 3);
        assert_eq!(route[0] % 4, DIR_EAST);
        assert_eq!(route[1] % 4, DIR_EAST);
        assert_eq!(route[2] % 4, DIR_SOUTH);
    }

    #[test]
    fn latency_respects_per_hop_cost() {
        let cfg = NocConfig {
            link_latency: 3,
            link_capacity: 2,
        };
        let mut noc = Noc::new(3, 1, cfg);
        assert!(noc.try_inject(0, 0, 2, &[1, 2]));
        let d = drain_one(&mut noc, 2, 1000);
        assert_eq!(d.hops, 2);
        assert!(d.delivered_at - d.injected_at >= (d.hops as u64 + 1) * cfg.link_latency);
    }

    #[test]
    fn bounded_buffers_refuse_injection() {
        let cfg = NocConfig {
            link_latency: 1,
            link_capacity: 1,
        };
        let mut noc = Noc::new(2, 1, cfg);
        assert!(noc.try_inject(0, 0, 1, &[1]));
        // The single east-link slot is taken; a second offer bounces
        // and leaves every queue and counter as it found them.
        let before = noc.clone();
        assert!(!noc.try_inject(0, 0, 1, &[2]));
        assert_eq!(noc.links, before.links, "link queues");
        assert_eq!(noc.eject, before.eject, "ejection queues");
        assert_eq!(noc.stats, before.stats, "NocStats");
        // The same holds at a full ejection queue (a self-send).
        assert!(noc.try_inject(0, 1, 1, &[3]));
        let before = noc.clone();
        assert!(!noc.try_inject(0, 1, 1, &[4]));
        assert_eq!(noc.links, before.links, "link queues");
        assert_eq!(noc.eject, before.eject, "ejection queues");
        assert_eq!(noc.stats, before.stats, "NocStats");
        let d = drain_one(&mut noc, 1, 100);
        assert_eq!(d.payload, vec![3]);
        let d = drain_one(&mut noc, 1, 100);
        assert_eq!(d.payload, vec![1]);
    }

    #[test]
    fn advance_reports_moves_and_next_ready_names_the_next_due_head() {
        let cfg = NocConfig {
            link_latency: 3,
            link_capacity: 1,
        };
        let mut noc = Noc::new(2, 1, cfg);
        assert_eq!(noc.next_ready(0), None, "an idle NoC never wakes");
        assert!(noc.try_inject(0, 0, 1, &[1]));
        assert_eq!(noc.next_ready(0), Some(3));
        assert!(!noc.advance(2), "not due before its latency elapses");
        assert!(noc.advance(3), "the head moves on to the ejection queue");
        assert_eq!(noc.next_ready(3), Some(6));
        // A second message takes the link. The ejection queue's one
        // slot is taken, so once due it waits for room.
        assert!(noc.try_inject(4, 0, 1, &[2]));
        assert_eq!(noc.next_ready(4), Some(6));
        assert!(!noc.advance(7), "the ejection queue is full");
        assert_eq!(noc.next_ready(7), None, "both heads are due");
        assert_eq!(noc.eject(7, 1).map(|d| d.payload), Some(vec![1]));
        assert!(noc.advance(7), "room again");
    }

    #[test]
    fn first_hop_is_the_routes_first_queue() {
        let noc = Noc::new(3, 3, NocConfig::default());
        for src in 0..9 {
            for dst in 0..9 {
                assert_eq!(
                    noc.first_hop(src, dst),
                    noc.route(src, dst).first().copied(),
                    "{src} -> {dst}"
                );
            }
        }
    }

    #[test]
    fn per_pair_order_is_preserved() {
        let mut noc = Noc::new(4, 1, NocConfig::default());
        let mut now = 0;
        let mut pending = vec![vec![10u32], vec![20], vec![30]];
        let mut got = Vec::new();
        while got.len() < 3 {
            if let Some(d) = noc.eject(now, 3) {
                got.push(d.payload[0]);
            }
            noc.advance(now);
            if !pending.is_empty() && noc.try_inject(now, 0, 3, &pending[0]) {
                pending.remove(0);
            }
            now += 1;
            assert!(now < 10_000);
        }
        assert_eq!(got, vec![10, 20, 30]);
        assert_eq!(noc.stats().messages_delivered, 3);
        assert_eq!(noc.stats().total_hops, 9);
    }
}
