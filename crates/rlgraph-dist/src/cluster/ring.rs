//! Consistent-hash ring with virtual nodes.
//!
//! The ring maps an unbounded key space (trajectory routing keys, shard
//! ownership tokens) onto a small, *changing* set of nodes so that
//! adding or removing one node moves only ~1/N of the keys. Each node
//! contributes `vnodes` points on the ring (its id hashed with a
//! per-replica salt); a key is owned by the first point at or clockwise
//! of the key's own hash. Virtual nodes smooth the load: with V points
//! per node the per-node share concentrates around 1/N with relative
//! spread ~1/sqrt(V).
//!
//! Everything here is deterministic — same nodes, same vnodes, same
//! assignment on every host and every run — which is what lets
//! `chaos.rs` keep its same-seed bit-identity contract while routing
//! failover through the ring.

use crate::fault::splitmix64;

/// A consistent-hash ring over `u32` node ids.
///
/// Construction sorts the point list once; lookups are a binary search.
/// The ring is cheap to rebuild (the dynamic-membership path rebuilds on
/// join/leave) and cheap to clone.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// sorted (point, node) pairs; ties broken by node id for
    /// determinism across insertion orders
    points: Vec<(u64, u32)>,
    /// distinct nodes currently on the ring
    nodes: Vec<u32>,
    /// virtual nodes per node
    vnodes: u32,
}

/// Default virtual-node count: enough to keep worst/mean load under
/// ~1.35 for small clusters without making rebuilds noticeable.
pub const DEFAULT_VNODES: u32 = 64;

impl HashRing {
    /// Builds a ring from node ids with `vnodes` points per node.
    /// Duplicate ids are collapsed; `vnodes` is clamped to at least 1.
    pub fn new(node_ids: &[u32], vnodes: u32) -> Self {
        let mut nodes: Vec<u32> = node_ids.to_vec();
        nodes.sort_unstable();
        nodes.dedup();
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(nodes.len() * vnodes as usize);
        for &n in &nodes {
            for v in 0..vnodes {
                points.push((Self::point(n, v), n));
            }
        }
        points.sort_unstable();
        HashRing { points, nodes, vnodes }
    }

    /// Builds a ring over nodes `0..n` with [`DEFAULT_VNODES`].
    pub fn with_nodes(n: u32) -> Self {
        let ids: Vec<u32> = (0..n).collect();
        Self::new(&ids, DEFAULT_VNODES)
    }

    fn point(node: u32, vnode: u32) -> u64 {
        // Salt separates replica points of one node; mixing twice keeps
        // node id and replica index from interacting linearly.
        splitmix64(splitmix64(node as u64 ^ 0xC1A0_5EED).wrapping_add(vnode as u64))
    }

    /// Hashes an arbitrary key onto the ring's coordinate space.
    pub fn hash_key(key: u64) -> u64 {
        splitmix64(key ^ 0x7A31_C0DE)
    }

    /// Nodes currently on the ring, ascending.
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// Number of distinct nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes are on the ring.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Virtual nodes per node.
    pub fn vnodes(&self) -> u32 {
        self.vnodes
    }

    /// Returns a ring with `node` added (no-op if already present).
    pub fn with_node(&self, node: u32) -> Self {
        let mut ids = self.nodes.clone();
        ids.push(node);
        Self::new(&ids, self.vnodes)
    }

    /// Returns a ring with `node` removed (no-op if absent).
    pub fn without_node(&self, node: u32) -> Self {
        let ids: Vec<u32> = self.nodes.iter().copied().filter(|&n| n != node).collect();
        Self::new(&ids, self.vnodes)
    }

    /// The node owning `key`: the first ring point clockwise of the
    /// key's hash. `None` on an empty ring.
    pub fn assign(&self, key: u64) -> Option<u32> {
        let h = Self::hash_key(key);
        let idx = self.points.partition_point(|&(p, _)| p < h);
        self.points.get(idx).or_else(|| self.points.first()).map(|&(_, n)| n)
    }

    /// The owner of `key` among nodes satisfying `up`, walking
    /// clockwise past filtered-out owners. This is the failover path:
    /// when the home node is down, keys spill to the *next distinct
    /// node on the ring*, not to a global round-robin target, so only
    /// the dead node's arc moves. `None` when no passing node exists.
    pub fn assign_filtered(&self, key: u64, mut up: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.points.is_empty() {
            return None;
        }
        let h = Self::hash_key(key);
        let start = self.points.partition_point(|&(p, _)| p < h);
        // Walk at most once around; track distinct nodes tried so a
        // ring of V points per node terminates after N node checks.
        let mut tried: Vec<u32> = Vec::with_capacity(4);
        for i in 0..self.points.len() {
            let (_, n) = self.points[(start + i) % self.points.len()];
            if tried.contains(&n) {
                continue;
            }
            if up(n) {
                return Some(n);
            }
            tried.push(n);
            if tried.len() == self.nodes.len() {
                break;
            }
        }
        None
    }

    /// The first `count` *distinct* nodes clockwise from `key`'s hash —
    /// the owner followed by its failover successors in order.
    pub fn successors(&self, key: u64, count: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(count.min(self.nodes.len()));
        if self.points.is_empty() || count == 0 {
            return out;
        }
        let h = Self::hash_key(key);
        let start = self.points.partition_point(|&(p, _)| p < h);
        for i in 0..self.points.len() {
            let (_, n) = self.points[(start + i) % self.points.len()];
            if !out.contains(&n) {
                out.push(n);
                if out.len() == count || out.len() == self.nodes.len() {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ring_assigns_nothing() {
        let r = HashRing::new(&[], 64);
        assert!(r.is_empty());
        assert_eq!(r.assign(42), None);
        assert_eq!(r.assign_filtered(42, |_| true), None);
        assert!(r.successors(42, 3).is_empty());
    }

    #[test]
    fn single_node_owns_everything() {
        let r = HashRing::new(&[7], 64);
        for k in 0..100 {
            assert_eq!(r.assign(k), Some(7));
        }
    }

    #[test]
    fn assignment_is_deterministic_across_insertion_order() {
        let a = HashRing::new(&[3, 1, 2], 32);
        let b = HashRing::new(&[2, 3, 1], 32);
        for k in 0..1000 {
            assert_eq!(a.assign(k), b.assign(k));
        }
    }

    #[test]
    fn filtered_assignment_skips_down_nodes() {
        let r = HashRing::new(&[0, 1, 2], 64);
        for k in 0..200 {
            let home = r.assign(k).unwrap();
            let alt = r.assign_filtered(k, |n| n != home).unwrap();
            assert_ne!(alt, home);
            // The failover target is the next distinct successor.
            let succ = r.successors(k, 2);
            assert_eq!(succ[0], home);
            assert_eq!(succ[1], alt);
        }
        assert_eq!(r.assign_filtered(5, |_| false), None);
    }

    #[test]
    fn join_moves_roughly_one_over_n() {
        let before = HashRing::with_nodes(4);
        let after = before.with_node(4);
        let keys: u64 = 8000;
        let moved = (0..keys).filter(|&k| before.assign(k) != after.assign(k)).count() as f64;
        let frac = moved / keys as f64;
        // Ideal is 1/5 = 0.20; allow generous slack for vnode variance.
        assert!(frac > 0.08 && frac < 0.35, "moved fraction {}", frac);
        // Every moved key must have moved *to* the new node.
        for k in 0..keys {
            if before.assign(k) != after.assign(k) {
                assert_eq!(after.assign(k), Some(4));
            }
        }
    }

    #[test]
    fn load_is_balanced_within_bound() {
        let n = 8u32;
        let r = HashRing::with_nodes(n);
        let keys = 64_000u64;
        let mut counts = vec![0usize; n as usize];
        for k in 0..keys {
            counts[r.assign(k).unwrap() as usize] += 1;
        }
        let mean = keys as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            let ratio = c as f64 / mean;
            assert!((0.5..=1.6).contains(&ratio), "node {} share ratio {}", i, ratio);
        }
    }
}
