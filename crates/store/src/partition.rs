//! Key partitioning: which server owns which key.
//!
//! Three strategies are provided: plain hash-modulo, consistent hashing
//! with virtual nodes (what Cassandra/Dynamo-style stores deploy), and
//! contiguous range partitioning. Replication places `r` copies on distinct
//! servers following the primary.

use serde::{Deserialize, Serialize};

use das_sched::types::ServerId;

/// Declarative partitioner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum PartitionerConfig {
    /// `server = hash(key) % n`.
    HashMod,
    /// Consistent hashing with `vnodes` virtual nodes per server.
    ConsistentHash {
        /// Virtual nodes per server (64–256 typical).
        vnodes: u32,
    },
    /// Contiguous key ranges of equal width.
    Range {
        /// Total number of keys (needed to size the ranges).
        n_keys: u64,
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
        match *self {
            PartitionerConfig::ConsistentHash { vnodes: 0 } => {
                Some("consistent_hash needs at least one vnode per server")
            }
            PartitionerConfig::Range { n_keys: 0 } => Some("range needs n_keys >= 1"),
            _ => None,
        }
    }

    /// Builds the partitioner for a cluster of `servers` servers.
    ///
    /// # Panics
    /// Panics if `servers == 0`.
    pub fn build(&self, servers: u32) -> Partitioner {
        assert!(servers > 0, "cluster must have at least one server");
        match *self {
            PartitionerConfig::HashMod => Partitioner::HashMod { servers },
            PartitionerConfig::ConsistentHash { vnodes } => {
                assert!(vnodes > 0, "need at least one vnode per server");
                // Domain-separate vnode hashes from key hashes: without the
                // salt, server 0's vnode inputs are the raw integers
                // 0..vnodes, which collide *exactly* with the hashes of
                // keys 0..vnodes — handing every low-numbered (Zipf-hot)
                // key to server 0.
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
                Partitioner::ConsistentHash { ring, servers }
            }
            PartitionerConfig::Range { n_keys } => {
                assert!(n_keys > 0);
                Partitioner::Range { n_keys, servers }
            }
        }
    }
}

/// A built partitioner mapping keys to servers.
#[derive(Debug, Clone)]
pub enum Partitioner {
    /// Hash-modulo placement.
    HashMod {
        /// Cluster size.
        servers: u32,
    },
    /// Consistent-hash ring.
    ConsistentHash {
        /// Sorted `(hash, server)` ring points.
        ring: Vec<(u64, ServerId)>,
        /// Cluster size.
        servers: u32,
    },
    /// Equal-width contiguous ranges.
    Range {
        /// Total key population.
        n_keys: u64,
        /// Cluster size.
        servers: u32,
    },
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
        match *self {
            Partitioner::HashMod { servers }
            | Partitioner::ConsistentHash { servers, .. }
            | Partitioner::Range { servers, .. } => servers,
        }
    }

    /// The primary server for `key`.
    pub fn primary(&self, key: u64) -> ServerId {
        match self {
            Partitioner::HashMod { servers } => ServerId((mix(key) % *servers as u64) as u32),
            Partitioner::ConsistentHash { ring, .. } => ring[ring_index(ring, key)].1,
            Partitioner::Range { n_keys, servers } => {
                let width = n_keys.div_ceil(*servers as u64);
                ServerId(((key / width).min(*servers as u64 - 1)) as u32)
            }
        }
    }

    /// The `replicas` distinct servers holding `key` (primary first).
    /// Clamped to the cluster size.
    pub fn replicas(&self, key: u64, replicas: u32) -> Vec<ServerId> {
        let mut out = Vec::with_capacity(replicas.clamp(1, self.servers()) as usize);
        self.replicas_into(key, replicas, &mut out);
        out
    }

    /// [`Partitioner::replicas`] written over `out` (whatever it held is
    /// discarded), so a caller placing key after key reuses one buffer.
    pub fn replicas_into(&self, key: u64, replicas: u32, out: &mut Vec<ServerId>) {
        out.clear();
        let n = self.servers();
        let r = replicas.clamp(1, n);
        // Successor placement: the next r-1 distinct servers on the ring
        // (or numerically, for non-ring partitioners).
        match self {
            Partitioner::ConsistentHash { ring, .. } => {
                let start = ring_index(ring, key);
                for offset in 0..ring.len() {
                    let s = ring[(start + offset) % ring.len()].1;
                    if !out.contains(&s) {
                        out.push(s);
                        if out.len() == r as usize {
                            break;
                        }
                    }
                }
            }
            _ => {
                let primary = self.primary(key);
                out.extend((0..r).map(|i| ServerId((primary.0 + i) % n)));
            }
        }
    }
}

/// Index of the ring point owning `key`: the first point at or after the
/// key's hash, wrapping past the last point to the first.
fn ring_index(ring: &[(u64, ServerId)], key: u64) -> usize {
    let h = mix(key);
    match ring.binary_search_by_key(&h, |&(rh, _)| rh) {
        Ok(i) => i,
        Err(i) => i % ring.len(),
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
    fn hash_mod_balances() {
        let p = PartitionerConfig::HashMod.build(16);
        balance_check(&p, 100_000, 16, 0.1);
    }

    #[test]
    fn consistent_hash_balances() {
        let p = PartitionerConfig::ConsistentHash { vnodes: 256 }.build(16);
        balance_check(&p, 100_000, 16, 0.35);
    }

    #[test]
    fn range_partitions_contiguously() {
        let p = PartitionerConfig::Range { n_keys: 100 }.build(4);
        assert_eq!(p.primary(0), ServerId(0));
        assert_eq!(p.primary(24), ServerId(0));
        assert_eq!(p.primary(25), ServerId(1));
        assert_eq!(p.primary(99), ServerId(3));
        // Out-of-range keys clamp to the last server.
        assert_eq!(p.primary(1_000_000), ServerId(3));
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
        for cfg in [
            PartitionerConfig::HashMod,
            PartitionerConfig::default(),
            PartitionerConfig::Range { n_keys: 10_000 },
        ] {
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
        for cfg in [
            PartitionerConfig::HashMod,
            PartitionerConfig::default(),
            PartitionerConfig::Range { n_keys: 10_000 },
        ] {
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
        let p = PartitionerConfig::HashMod.build(2);
        assert_eq!(p.replicas(1, 5).len(), 2);
        assert_eq!(p.replicas(1, 0).len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _ = PartitionerConfig::HashMod.build(0);
    }

    #[test]
    fn first_invalid_names_the_knobs_build_asserts_on() {
        for ok in [
            PartitionerConfig::HashMod,
            PartitionerConfig::default(),
            PartitionerConfig::Range { n_keys: 1 },
        ] {
            assert_eq!(ok.first_invalid(), None, "{ok:?}");
        }
        for bad in [
            PartitionerConfig::ConsistentHash { vnodes: 0 },
            PartitionerConfig::Range { n_keys: 0 },
        ] {
            assert!(bad.first_invalid().is_some(), "{bad:?}");
        }
    }
}
