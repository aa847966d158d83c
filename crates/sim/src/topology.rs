//! The simulated hardware topology: nodes (each a multiprocessor with dual
//! interprocessor buses), and the network links connecting them.
//!
//! Inter-node routing follows the paper's EXPAND description: dynamic
//! best-path routing with automatic re-routing when a line fails. The
//! kernel recomputes shortest paths (Dijkstra over link latencies) whenever
//! the topology changes.

use crate::ids::{CpuId, LinkId, NodeId};
use crate::time::SimDuration;
use std::collections::BinaryHeap;
use std::rc::Rc;

pub(crate) struct CpuState {
    pub up: bool,
}

pub(crate) struct NodeState {
    pub cpus: Vec<CpuState>,
    /// Dual interprocessor buses; intra-node traffic flows while either is up.
    pub buses: [bool; 2],
}

impl NodeState {
    pub fn new(cpu_count: u8) -> NodeState {
        assert!(
            (2..=16).contains(&cpu_count),
            "a Tandem node has 2..=16 processors, got {cpu_count}"
        );
        NodeState {
            cpus: (0..cpu_count).map(|_| CpuState { up: true }).collect(),
            buses: [true, true],
        }
    }

    pub fn bus_up(&self) -> bool {
        self.buses[0] || self.buses[1]
    }

    pub fn cpu_up(&self, cpu: CpuId) -> bool {
        self.cpus.get(cpu.0 as usize).map(|c| c.up).unwrap_or(false)
    }
}

#[derive(Clone, Debug)]
pub(crate) struct LinkState {
    pub a: NodeId,
    pub b: NodeId,
    pub latency: SimDuration,
    pub up: bool,
    /// Probability (0.0..=1.0) that a message routed over this link is lost.
    pub loss_prob: f64,
}

/// A computed route: the links to traverse and the total link latency.
#[derive(Debug, PartialEq)]
pub(crate) struct Route {
    pub links: Vec<LinkId>,
    pub latency: SimDuration,
}

/// The full hardware graph plus a lazily rebuilt routing table.
#[derive(Default)]
pub(crate) struct Topology {
    pub nodes: Vec<NodeState>,
    pub links: Vec<LinkState>,
    /// Per node, its up links and their far ends, in link-index order.
    adjacency: Vec<Vec<(LinkId, NodeId)>>,
    /// Dense `nodes × nodes` table, one row per source. A row is filled by
    /// one shortest-path tree on the first route asked of that source; the
    /// diagonal entry (the empty self-route) marks a filled row.
    routes: Vec<Option<Rc<Route>>>,
    dirty: bool,
}

impl Topology {
    pub fn new() -> Topology {
        Topology::default()
    }

    pub fn add_node(&mut self, cpus: u8) -> NodeId {
        assert!(self.nodes.len() < 255, "too many nodes");
        self.nodes.push(NodeState::new(cpus));
        self.dirty = true;
        NodeId((self.nodes.len() - 1) as u8)
    }

    pub fn add_link(&mut self, a: NodeId, b: NodeId, latency: SimDuration) -> LinkId {
        assert!(a != b, "a link must join two distinct nodes");
        assert!((a.0 as usize) < self.nodes.len() && (b.0 as usize) < self.nodes.len());
        self.links.push(LinkState {
            a,
            b,
            latency,
            up: true,
            loss_prob: 0.0,
        });
        self.dirty = true;
        LinkId((self.links.len() - 1) as u32)
    }

    pub fn node(&self, id: NodeId) -> &NodeState {
        &self.nodes[id.0 as usize]
    }

    pub fn node_mut(&mut self, id: NodeId) -> &mut NodeState {
        &mut self.nodes[id.0 as usize]
    }

    pub fn set_link_up(&mut self, id: LinkId, up: bool) {
        let link = &mut self.links[id.0 as usize];
        if link.up != up {
            link.up = up;
            self.dirty = true;
        }
    }

    pub fn set_link_loss(&mut self, id: LinkId, prob: f64) {
        self.links[id.0 as usize].loss_prob = prob.clamp(0.0, 1.0);
    }

    pub fn link(&self, id: LinkId) -> &LinkState {
        &self.links[id.0 as usize]
    }

    /// Links that cross the boundary between `group` and the rest.
    pub fn crossing_links(&self, group: &[NodeId]) -> Vec<LinkId> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, l)| group.contains(&l.a) != group.contains(&l.b))
            .map(|(i, _)| LinkId(i as u32))
            .collect()
    }

    /// All currently-down links.
    pub fn down_links(&self) -> Vec<LinkId> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.up)
            .map(|(i, _)| LinkId(i as u32))
            .collect()
    }

    /// Best route between two nodes over up links, or `None` if partitioned.
    pub fn route(&mut self, from: NodeId, to: NodeId) -> Option<Rc<Route>> {
        let n = self.nodes.len();
        if self.dirty {
            self.adjacency.clear();
            self.adjacency.resize(n, Vec::new());
            for (i, l) in self.links.iter().enumerate().filter(|(_, l)| l.up) {
                self.adjacency[l.a.0 as usize].push((LinkId(i as u32), l.b));
                self.adjacency[l.b.0 as usize].push((LinkId(i as u32), l.a));
            }
            self.routes.clear();
            self.routes.resize(n * n, None);
            self.dirty = false;
        }
        let row = from.0 as usize * n;
        if self.routes[row + from.0 as usize].is_none() {
            self.fill_row(from);
        }
        self.routes[row + to.0 as usize].clone()
    }

    /// Dijkstra from `from` to everywhere. Ties break by node id in the
    /// heap and by link index in the relaxation, so each route equals what
    /// a search for that one destination finds.
    fn fill_row(&mut self, from: NodeId) {
        let n = self.nodes.len();
        let mut dist = vec![u64::MAX; n];
        let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[from.0 as usize] = 0;
        heap.push(std::cmp::Reverse((0u64, from.0)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for &(link, v) in &self.adjacency[u as usize] {
                let nd = d.saturating_add(self.link(link).latency.as_micros().max(1));
                if nd < dist[v.0 as usize] {
                    dist[v.0 as usize] = nd;
                    prev[v.0 as usize] = Some((NodeId(u), link));
                    heap.push(std::cmp::Reverse((nd, v.0)));
                }
            }
        }
        for to in (0..n).filter(|&to| dist[to] != u64::MAX) {
            let mut links = Vec::new();
            let mut cur = to;
            while let Some((p, l)) = prev[cur] {
                links.push(l);
                cur = p.0 as usize;
            }
            links.reverse();
            self.routes[from.0 as usize * n + to] = Some(Rc::new(Route {
                links,
                latency: SimDuration::from_micros(dist[to]),
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    /// The oracle for the routing table: a search for one destination, the
    /// plain way — scan every link per settled node, stop at the
    /// destination. Every table entry must equal it, ties included.
    fn dijkstra(t: &Topology, from: NodeId, to: NodeId) -> Option<Route> {
        let n = t.nodes.len();
        let mut dist = vec![u64::MAX; n];
        let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[from.0 as usize] = 0;
        heap.push(std::cmp::Reverse((0u64, from.0)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            if u == to.0 {
                break;
            }
            for (i, l) in t.links.iter().enumerate() {
                if !l.up {
                    continue;
                }
                let v = if l.a.0 == u {
                    l.b
                } else if l.b.0 == u {
                    l.a
                } else {
                    continue;
                };
                let nd = d.saturating_add(l.latency.as_micros().max(1));
                if nd < dist[v.0 as usize] {
                    dist[v.0 as usize] = nd;
                    prev[v.0 as usize] = Some((NodeId(u), LinkId(i as u32)));
                    heap.push(std::cmp::Reverse((nd, v.0)));
                }
            }
        }
        if dist[to.0 as usize] == u64::MAX {
            return None;
        }
        let mut links = Vec::new();
        let mut cur = to;
        while cur != from {
            let (p, l) = prev[cur.0 as usize].expect("path chain broken");
            links.push(l);
            cur = p;
        }
        links.reverse();
        Some(Route {
            links,
            latency: SimDuration::from_micros(dist[to.0 as usize]),
        })
    }

    #[test]
    fn direct_route() {
        let mut t = Topology::new();
        let a = t.add_node(2);
        let b = t.add_node(2);
        let l = t.add_link(a, b, ms(5));
        let r = t.route(a, b).unwrap();
        assert_eq!(r.links, vec![l]);
        assert_eq!(r.latency, ms(5));
    }

    #[test]
    fn reroutes_around_failed_link() {
        let mut t = Topology::new();
        let a = t.add_node(2);
        let b = t.add_node(2);
        let c = t.add_node(2);
        let ab = t.add_link(a, b, ms(1));
        let ac = t.add_link(a, c, ms(1));
        let cb = t.add_link(c, b, ms(1));
        // direct path wins first
        assert_eq!(t.route(a, b).unwrap().links, vec![ab]);
        // after the direct line fails, traffic re-routes via c
        t.set_link_up(ab, false);
        assert_eq!(t.route(a, b).unwrap().links, vec![ac, cb]);
        // full partition
        t.set_link_up(ac, false);
        assert!(t.route(a, b).is_none());
        // heal
        t.set_link_up(ab, true);
        assert_eq!(t.route(a, b).unwrap().links, vec![ab]);
    }

    #[test]
    fn picks_lowest_latency_path() {
        let mut t = Topology::new();
        let a = t.add_node(2);
        let b = t.add_node(2);
        let c = t.add_node(2);
        let _slow = t.add_link(a, b, ms(100));
        let ac = t.add_link(a, c, ms(1));
        let cb = t.add_link(c, b, ms(1));
        assert_eq!(t.route(a, b).unwrap().links, vec![ac, cb]);
    }

    #[test]
    fn self_route_is_empty() {
        let mut t = Topology::new();
        let a = t.add_node(2);
        let r = t.route(a, a).unwrap();
        assert!(r.links.is_empty());
        assert_eq!(r.latency, SimDuration::ZERO);
    }

    #[test]
    fn crossing_links_identifies_partition_boundary() {
        let mut t = Topology::new();
        let a = t.add_node(2);
        let b = t.add_node(2);
        let c = t.add_node(2);
        let ab = t.add_link(a, b, ms(1));
        let ac = t.add_link(a, c, ms(1));
        let bc = t.add_link(b, c, ms(1));
        let crossing = t.crossing_links(&[a]);
        assert_eq!(crossing, vec![ab, ac]);
        let crossing = t.crossing_links(&[a, b]);
        assert_eq!(crossing, vec![ac, bc]);
    }

    #[test]
    fn bus_and_cpu_state() {
        let mut n = NodeState::new(4);
        assert!(n.bus_up());
        n.buses[0] = false;
        assert!(n.bus_up());
        n.buses[1] = false;
        assert!(!n.bus_up());
        assert!(n.cpu_up(CpuId(3)));
        assert!(!n.cpu_up(CpuId(4)));
    }

    #[test]
    #[should_panic(expected = "2..=16")]
    fn node_size_validated() {
        NodeState::new(1);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Reference: Bellman-Ford distances over up links.
        fn reference_dists(t: &Topology, from: NodeId) -> Vec<Option<u64>> {
            let n = t.nodes.len();
            let mut d: Vec<Option<u64>> = vec![None; n];
            d[from.0 as usize] = Some(0);
            for _ in 0..n {
                for l in &t.links {
                    if !l.up {
                        continue;
                    }
                    for (a, b) in [(l.a, l.b), (l.b, l.a)] {
                        if let Some(da) = d[a.0 as usize] {
                            let nd = da + l.latency.as_micros().max(1);
                            if d[b.0 as usize].map(|x| nd < x).unwrap_or(true) {
                                d[b.0 as usize] = Some(nd);
                            }
                        }
                    }
                }
            }
            d
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn routing_matches_reference(
                n in 2usize..7,
                edges in prop::collection::vec((0u8..7, 0u8..7, 1u64..50, any::<bool>()), 0..15)
            ) {
                let mut t = Topology::new();
                for _ in 0..n {
                    t.add_node(2);
                }
                for (a, b, lat, up) in edges {
                    let (a, b) = (a % n as u8, b % n as u8);
                    if a == b {
                        continue;
                    }
                    let l = t.add_link(NodeId(a), NodeId(b), SimDuration::from_micros(lat));
                    t.set_link_up(l, up);
                }
                let refd = reference_dists(&t, NodeId(0));
                for to in 0..n as u8 {
                    let route = t.route(NodeId(0), NodeId(to));
                    match (route, refd[to as usize]) {
                        (Some(r), Some(d)) => {
                            prop_assert_eq!(r.latency.as_micros(), d, "distance to {}", to);
                            // the returned path is connected and uses up links
                            let mut cur = NodeId(0);
                            for link in &r.links {
                                let l = t.link(*link);
                                prop_assert!(l.up);
                                prop_assert!(l.a == cur || l.b == cur, "path connected");
                                cur = if l.a == cur { l.b } else { l.a };
                            }
                            prop_assert_eq!(cur, NodeId(to), "path ends at the destination");
                        }
                        (None, None) => {}
                        (got, want) => prop_assert!(false, "to {}: got {:?}, want {:?}", to, got, want),
                    }
                }
            }

            // Latencies of 1..4 on up to 24 links among at most 8 nodes:
            // most pairs have several shortest paths, so this holds only if
            // the per-source tree breaks ties exactly as the per-pair
            // search does.
            #[test]
            fn table_equals_per_pair_search_across_link_flaps(
                n in 2usize..9,
                edges in prop::collection::vec((0u8..9, 0u8..9, 1u64..4), 0..25),
                flaps in prop::collection::vec(0usize..25, 0..6)
            ) {
                let mut t = Topology::new();
                for _ in 0..n {
                    t.add_node(2);
                }
                for (a, b, lat) in edges {
                    let (a, b) = (a % n as u8, b % n as u8);
                    if a != b {
                        t.add_link(NodeId(a), NodeId(b), SimDuration::from_micros(lat));
                    }
                }
                let agrees = |t: &mut Topology| {
                    for from in (0..n as u8).map(NodeId) {
                        for to in (0..n as u8).map(NodeId) {
                            let want = dijkstra(t, from, to);
                            prop_assert_eq!(t.route(from, to).as_deref(), want.as_ref());
                        }
                    }
                };
                agrees(&mut t);
                let links = t.links.len();
                for up in [false, true] {
                    for &f in flaps.iter().filter(|_| links > 0) {
                        t.set_link_up(LinkId((f % links) as u32), up);
                    }
                    agrees(&mut t);
                }
            }
        }
    }
}
