//! Key partitioning: which server owns which key.
//!
//! Keys are placed by consistent hashing with virtual nodes (what
//! Cassandra/Dynamo-style stores deploy). Replication places `r` copies on
//! the distinct servers that follow the primary on the ring.

use serde::{Deserialize, Serialize};

use das_sched::types::ServerId;

/// Declarative partitioner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum PartitionerConfig {
    /// Consistent hashing with `vnodes` virtual nodes per server.
    ConsistentHash {
        /// Virtual nodes per server (64–256 typical).
        vnodes: u32,
    },
}

impl Default for PartitionerConfig {
    fn default() -> Self {
        PartitionerConfig::ConsistentHash { vnodes: 128 }
    }
}

impl PartitionerConfig {
    /// Human-readable description of the knob
    /// [`PartitionerConfig::build`] would assert on, if any.
    pub fn first_invalid(&self) -> Option<&'static str> {
        let PartitionerConfig::ConsistentHash { vnodes } = *self;
        (vnodes == 0).then_some("consistent_hash needs at least one vnode per server")
    }

    /// Builds the partitioner for a cluster of `servers` servers.
    ///
    /// # Panics
    /// Panics if `servers == 0` or `vnodes == 0`.
    pub fn build(&self, servers: u32) -> Partitioner {
        assert!(servers > 0, "cluster must have at least one server");
        let PartitionerConfig::ConsistentHash { vnodes } = *self;
        assert!(vnodes > 0, "need at least one vnode per server");
        // Domain-separate vnode hashes from key hashes: without the salt,
        // server 0's vnode inputs are the raw integers 0..vnodes, which
        // collide *exactly* with the hashes of keys 0..vnodes — handing
        // every low-numbered (Zipf-hot) key to server 0.
        const VNODE_SALT: u64 = 0x5bd1_e995_97f4_a7c5;
        let mut ring: Vec<(u64, ServerId)> = (0..servers)
            .flat_map(|s| {
                (0..vnodes).map(move |v| {
                    (
                        mix(VNODE_SALT ^ (((s as u64) << 32) | v as u64)),
                        ServerId(s),
                    )
                })
            })
            .collect();
        ring.sort_unstable_by_key(|&(h, _)| h);
        ring.dedup_by_key(|&mut (h, _)| h);
        Partitioner { ring, servers }
    }
}

/// A built consistent-hash ring mapping keys to servers.
#[derive(Debug, Clone)]
pub struct Partitioner {
    /// Sorted `(hash, server)` ring points.
    ring: Vec<(u64, ServerId)>,
    /// Cluster size.
    servers: u32,
}

/// SplitMix64 — cheap, well-mixed 64-bit hash for key placement.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Partitioner {
    /// Number of servers.
    pub fn servers(&self) -> u32 {
        self.servers
    }

    /// The primary server for `key`.
    pub fn primary(&self, key: u64) -> ServerId {
        self.ring[self.ring_index(key)].1
    }

    /// The `replicas` distinct servers holding `key` (primary first).
    /// Clamped to the cluster size.
    pub fn replicas(&self, key: u64, replicas: u32) -> Vec<ServerId> {
        let mut out = Vec::with_capacity(replicas.clamp(1, self.servers) as usize);
        self.replicas_into(key, replicas, &mut out);
        out
    }

    /// [`Partitioner::replicas`] written over `out` (whatever it held is
    /// discarded), so a caller placing key after key reuses one buffer.
    pub fn replicas_into(&self, key: u64, replicas: u32, out: &mut Vec<ServerId>) {
        out.clear();
        let r = replicas.clamp(1, self.servers) as usize;
        // Successor placement: the next r-1 distinct servers on the ring.
        let ring = &self.ring;
        let start = self.ring_index(key);
        for offset in 0..ring.len() {
            let s = ring[(start + offset) % ring.len()].1;
            if !out.contains(&s) {
                out.push(s);
                if out.len() == r {
                    break;
                }
            }
        }
    }

    /// Index of the ring point owning `key`: the first point at or after
    /// the key's hash, wrapping past the last point to the first.
    fn ring_index(&self, key: u64) -> usize {
        let h = mix(key);
        match self.ring.binary_search_by_key(&h, |&(rh, _)| rh) {
            Ok(i) => i,
            Err(i) => i % self.ring.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn balance_check(p: &Partitioner, n_keys: u64, servers: u32, tolerance: f64) {
        let mut counts: HashMap<u32, u64> = HashMap::new();
        for k in 0..n_keys {
            *counts.entry(p.primary(k).0).or_default() += 1;
        }
        let expect = n_keys as f64 / servers as f64;
        for s in 0..servers {
            let c = *counts.get(&s).unwrap_or(&0) as f64;
            assert!(
                (c - expect).abs() / expect < tolerance,
                "server {s}: {c} keys vs expected {expect}"
            );
        }
    }

    #[test]
    fn consistent_hash_balances() {
        let p = PartitionerConfig::ConsistentHash { vnodes: 256 }.build(16);
        balance_check(&p, 100_000, 16, 0.35);
    }

    #[test]
    fn placement_is_stable() {
        let p1 = PartitionerConfig::default().build(10);
        let p2 = PartitionerConfig::default().build(10);
        for k in 0..1000 {
            assert_eq!(p1.primary(k), p2.primary(k));
        }
    }

    #[test]
    fn consecutive_hot_keys_spread_across_servers() {
        // Regression test: vnode hashes must be domain-separated from key
        // hashes, or keys 0..vnodes (the hottest ranks under Zipf
        // popularity) all collide onto server 0's vnodes.
        let p = PartitionerConfig::ConsistentHash { vnodes: 128 }.build(50);
        let owners: std::collections::HashSet<u32> = (0..64u64).map(|k| p.primary(k).0).collect();
        assert!(
            owners.len() > 10,
            "first 64 keys land on only {} servers",
            owners.len()
        );
    }

    #[test]
    fn consistent_hash_minimal_movement() {
        // Growing the cluster by one server should move roughly 1/(n+1) of
        // keys — the whole point of consistent hashing.
        let p10 = PartitionerConfig::ConsistentHash { vnodes: 128 }.build(10);
        let p11 = PartitionerConfig::ConsistentHash { vnodes: 128 }.build(11);
        let moved = (0..50_000u64)
            .filter(|&k| p10.primary(k) != p11.primary(k))
            .count();
        let frac = moved as f64 / 50_000.0;
        assert!(frac < 0.25, "moved fraction = {frac}");
        assert!(frac > 0.02, "suspiciously little movement: {frac}");
    }

    #[test]
    fn replicas_distinct_and_primary_first() {
        for vnodes in [1, 128] {
            let cfg = PartitionerConfig::ConsistentHash { vnodes };
            let p = cfg.build(8);
            for k in 0..500u64 {
                let reps = p.replicas(k, 3);
                assert_eq!(reps.len(), 3);
                assert_eq!(reps[0], p.primary(k));
                let set: std::collections::HashSet<ServerId> = reps.iter().copied().collect();
                assert_eq!(set.len(), 3, "{cfg:?} key {k}: {reps:?}");
            }
        }
    }

    #[test]
    fn replicas_into_overwrites_a_dirty_buffer_with_what_replicas_returns() {
        let n = 8;
        for vnodes in [1, 128] {
            let cfg = PartitionerConfig::ConsistentHash { vnodes };
            let p = cfg.build(n);
            let mut buf = Vec::new();
            for r in [0, 1, 3, n + 1] {
                for k in 0..300u64 {
                    // Left dirty on purpose: the previous key's servers
                    // plus one that is not in the cluster.
                    buf.push(ServerId(n + 7));
                    p.replicas_into(k * 7919, r, &mut buf);
                    assert_eq!(buf, p.replicas(k * 7919, r), "{cfg:?} r {r} key {k}");
                    assert_eq!(buf.len() as u32, r.clamp(1, n));
                }
            }
        }
    }

    #[test]
    fn replicas_clamped_to_cluster() {
        let p = PartitionerConfig::default().build(2);
        assert_eq!(p.replicas(1, 5).len(), 2);
        assert_eq!(p.replicas(1, 0).len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _ = PartitionerConfig::default().build(0);
    }

    #[test]
    fn first_invalid_names_the_knobs_build_asserts_on() {
        for vnodes in [1, 128] {
            assert_eq!(
                PartitionerConfig::ConsistentHash { vnodes }.first_invalid(),
                None
            );
        }
        assert!(PartitionerConfig::ConsistentHash { vnodes: 0 }
            .first_invalid()
            .is_some());
    }
}
