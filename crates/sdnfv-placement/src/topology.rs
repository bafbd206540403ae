//! Network topology model and generators.

use std::collections::BinaryHeap;

/// Identifier of a node (switch + attached NFV host) in the topology.
pub type NodeId = usize;

/// A bidirectional link between two nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Propagation/processing delay of the link (arbitrary units, the MILP's
    /// `D_ij`).
    pub delay: f64,
    /// Capacity of the link in bandwidth units (the MILP's `H_ij`).
    pub capacity: f64,
}

/// A node: a switch with an attached COTS server able to host NF instances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Node {
    /// Number of CPU cores available for NFs (the MILP's `C_i`).
    pub cores: u32,
}

/// An undirected network topology of NFV-capable nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    adjacency: Vec<Vec<(NodeId, usize)>>,
}

impl Topology {
    /// Creates a topology from nodes and links.
    ///
    /// # Panics
    ///
    /// Panics if a link references a node that does not exist.
    pub fn new(nodes: Vec<Node>, links: Vec<Link>) -> Self {
        let mut adjacency = vec![Vec::new(); nodes.len()];
        for (index, link) in links.iter().enumerate() {
            assert!(
                link.a < nodes.len() && link.b < nodes.len(),
                "link references unknown node"
            );
            adjacency[link.a].push((link.b, index));
            adjacency[link.b].push((link.a, index));
        }
        Topology {
            nodes,
            links,
            adjacency,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The node description.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The link with a given index.
    pub fn link(&self, index: usize) -> &Link {
        &self.links[index]
    }

    /// Neighbors of a node with the connecting link index.
    pub fn neighbors(&self, id: NodeId) -> &[(NodeId, usize)] {
        &self.adjacency[id]
    }

    /// Scales every node's core count and every link's capacity by `factor`
    /// (used by the right-hand side of Figure 5, which sweeps 1–100× the
    /// original CPU and link capacity).
    pub fn scaled(&self, factor: f64) -> Topology {
        let nodes = self
            .nodes
            .iter()
            .map(|n| Node {
                cores: ((n.cores as f64) * factor).round().max(1.0) as u32,
            })
            .collect();
        let links = self
            .links
            .iter()
            .map(|l| Link {
                capacity: l.capacity * factor,
                ..*l
            })
            .collect();
        Topology::new(nodes, links)
    }

    /// Shortest path (by summed delay) between two nodes, as a list of link
    /// indices. Returns `None` if the nodes are disconnected, and an empty
    /// path when `from == to`.
    pub fn shortest_path(&self, from: NodeId, to: NodeId) -> Option<Vec<usize>> {
        if from == to {
            return Some(Vec::new());
        }
        #[derive(PartialEq)]
        struct Entry {
            cost: f64,
            node: NodeId,
        }
        impl Eq for Entry {}
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Reverse for a min-heap; costs are finite by construction.
                other
                    .cost
                    .partial_cmp(&self.cost)
                    .unwrap_or(std::cmp::Ordering::Equal)
            }
        }
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        let mut dist = vec![f64::INFINITY; self.nodes.len()];
        let mut previous: Vec<Option<(NodeId, usize)>> = vec![None; self.nodes.len()];
        let mut heap = BinaryHeap::new();
        dist[from] = 0.0;
        heap.push(Entry {
            cost: 0.0,
            node: from,
        });
        while let Some(Entry { cost, node }) = heap.pop() {
            if cost > dist[node] {
                continue;
            }
            if node == to {
                break;
            }
            for &(next, link_index) in &self.adjacency[node] {
                let next_cost = cost + self.links[link_index].delay;
                if next_cost < dist[next] {
                    dist[next] = next_cost;
                    previous[next] = Some((node, link_index));
                    heap.push(Entry {
                        cost: next_cost,
                        node: next,
                    });
                }
            }
        }
        if dist[to].is_infinite() {
            return None;
        }
        let mut path = Vec::new();
        let mut current = to;
        while current != from {
            let (prev, link_index) = previous[current]?;
            path.push(link_index);
            current = prev;
        }
        path.reverse();
        Some(path)
    }

    /// Total delay along a path of link indices.
    pub fn path_delay(&self, path: &[usize]) -> f64 {
        path.iter().map(|i| self.links[*i].delay).sum()
    }

    /// The nodes visited by a path starting at `from` (inclusive of both
    /// endpoints).
    pub fn path_nodes(&self, from: NodeId, path: &[usize]) -> Vec<NodeId> {
        let mut nodes = vec![from];
        let mut current = from;
        for &link_index in path {
            let link = &self.links[link_index];
            current = if link.a == current { link.b } else { link.a };
            nodes.push(current);
        }
        nodes
    }

    /// A deterministic topology with the same gross statistics as the
    /// Rocketfuel AS-16631 topology used in the paper's placement study:
    /// `node_count` nodes and `link_count` undirected links, homogeneous
    /// cores and link capacities.
    ///
    /// A ring backbone guarantees connectivity; the remaining links are
    /// added pseudo-randomly (but reproducibly, from `seed`) between
    /// non-adjacent nodes, giving the irregular mesh typical of ISP maps.
    pub fn rocketfuel_like(
        node_count: usize,
        link_count: usize,
        cores_per_node: u32,
        link_capacity: f64,
        seed: u64,
    ) -> Topology {
        assert!(node_count >= 3, "need at least three nodes");
        assert!(
            link_count >= node_count,
            "need at least as many links as nodes for a connected ring plus extras"
        );
        let nodes = vec![
            Node {
                cores: cores_per_node
            };
            node_count
        ];
        let mut links = Vec::with_capacity(link_count);
        let mut exists = std::collections::HashSet::new();
        // Ring for connectivity.
        for i in 0..node_count {
            let j = (i + 1) % node_count;
            exists.insert((i.min(j), i.max(j)));
            links.push(Link {
                a: i,
                b: j,
                delay: 1.0,
                capacity: link_capacity,
            });
        }
        // Extra chords from a small deterministic PRNG (xorshift).
        let mut state = seed.max(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        while links.len() < link_count {
            let a = (next() % node_count as u64) as usize;
            let b = (next() % node_count as u64) as usize;
            if a == b {
                continue;
            }
            let key = (a.min(b), a.max(b));
            if exists.contains(&key) {
                continue;
            }
            exists.insert(key);
            let delay = 1.0 + (next() % 4) as f64;
            links.push(Link {
                a,
                b,
                delay,
                capacity: link_capacity,
            });
        }
        Topology::new(nodes, links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> Topology {
        Topology::new(
            vec![Node { cores: 2 }; 3],
            vec![
                Link {
                    a: 0,
                    b: 1,
                    delay: 1.0,
                    capacity: 10.0,
                },
                Link {
                    a: 1,
                    b: 2,
                    delay: 2.0,
                    capacity: 10.0,
                },
            ],
        )
    }

    #[test]
    fn basic_accessors() {
        let t = line3();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 2);
        assert_eq!(t.node(0).cores, 2);
        assert_eq!(t.neighbors(1).len(), 2);
        assert_eq!(t.links().len(), 2);
        assert_eq!(t.link(1).delay, 2.0);
    }

    #[test]
    fn shortest_path_on_line() {
        let t = line3();
        let path = t.shortest_path(0, 2).unwrap();
        assert_eq!(path, vec![0, 1]);
        assert_eq!(t.path_delay(&path), 3.0);
        assert_eq!(t.path_nodes(0, &path), vec![0, 1, 2]);
        assert_eq!(t.shortest_path(1, 1).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn shortest_path_prefers_lower_delay() {
        // Triangle where the direct edge is slower than the two-hop path.
        let t = Topology::new(
            vec![Node { cores: 1 }; 3],
            vec![
                Link {
                    a: 0,
                    b: 2,
                    delay: 10.0,
                    capacity: 1.0,
                },
                Link {
                    a: 0,
                    b: 1,
                    delay: 1.0,
                    capacity: 1.0,
                },
                Link {
                    a: 1,
                    b: 2,
                    delay: 1.0,
                    capacity: 1.0,
                },
            ],
        );
        let path = t.shortest_path(0, 2).unwrap();
        assert_eq!(path.len(), 2);
        assert_eq!(t.path_delay(&path), 2.0);
    }

    #[test]
    fn disconnected_nodes_have_no_path() {
        let t = Topology::new(
            vec![Node { cores: 1 }; 4],
            vec![
                Link {
                    a: 0,
                    b: 1,
                    delay: 1.0,
                    capacity: 1.0,
                },
                Link {
                    a: 2,
                    b: 3,
                    delay: 1.0,
                    capacity: 1.0,
                },
            ],
        );
        assert!(t.shortest_path(0, 3).is_none());
    }

    #[test]
    fn rocketfuel_like_matches_requested_size() {
        let t = Topology::rocketfuel_like(22, 64, 2, 10.0, 7);
        assert_eq!(t.node_count(), 22);
        assert_eq!(t.link_count(), 64);
        // Connected: every node reaches node 0.
        for node in 1..22 {
            assert!(t.shortest_path(node, 0).is_some());
        }
        // Deterministic for the same seed, different for another seed.
        let same = Topology::rocketfuel_like(22, 64, 2, 10.0, 7);
        let other = Topology::rocketfuel_like(22, 64, 2, 10.0, 8);
        assert_eq!(t, same);
        assert_ne!(t, other);
    }

    #[test]
    fn scaling_multiplies_capacity() {
        let t = line3().scaled(3.0);
        assert_eq!(t.node(0).cores, 6);
        assert_eq!(t.link(0).capacity, 30.0);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn bad_link_panics() {
        let _ = Topology::new(
            vec![Node { cores: 1 }],
            vec![Link {
                a: 0,
                b: 5,
                delay: 1.0,
                capacity: 1.0,
            }],
        );
    }
}
