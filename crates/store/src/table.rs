//! The engine's in-flight tables: a map from a request or op id to its
//! record.
//!
//! Lookups, inserts and removals are O(1) and touch no allocator once the
//! table has grown to the run's in-flight peak. The hash is a fixed
//! function of the key (no per-process seed) and the map has **no
//! iteration API**: the only way to read an entry is to name its key, so
//! nothing observable can depend on where an entry sits, and a run stays
//! bit-reproducible without the ordered keys of a `BTreeMap`.
//!
//! Entries live densely in fixed-size chunks and an open-addressing index
//! of 8-byte slots points into them, so what doubles when the table grows
//! is the index, not the records: memory stays within a few bytes per
//! entry of a `BTreeMap`'s at every size. (With the records inline in the
//! slot array a doubling at the wrong moment costs four times that:
//! `sim_backlog` at seed 7 peaked 7 MiB, 21 %, above the `BTreeMap`s.)

use das_sched::types::{OpId, RequestId};
use das_sim::rng::splitmix64;

/// A key the table can place: its hash is a fixed function of its value.
pub(crate) trait TableKey: Copy + Eq {
    /// Well-mixed 64-bit hash; its low 32 bits place the key.
    fn hash(self) -> u64;
}

impl TableKey for RequestId {
    fn hash(self) -> u64 {
        splitmix64(self.0)
    }
}

impl TableKey for OpId {
    fn hash(self) -> u64 {
        splitmix64(splitmix64(self.request.0) ^ u64::from(self.index))
    }
}

/// Entries per chunk.
const CHUNK: usize = 1 << CHUNK_BITS;
const CHUNK_BITS: u32 = 10;

/// A `Vec` that grows a chunk at a time instead of by doubling: positions
/// are stable under `push`, and growing never copies or over-reserves
/// more than one chunk.
#[derive(Debug)]
struct Chunked<T> {
    /// Every chunk but the last one in use holds exactly `CHUNK` items;
    /// emptied chunks stay allocated for the next growth.
    chunks: Vec<Vec<T>>,
    len: usize,
}

impl<T> Chunked<T> {
    fn get(&self, pos: usize) -> &T {
        &self.chunks[pos >> CHUNK_BITS][pos & (CHUNK - 1)]
    }

    fn get_mut(&mut self, pos: usize) -> &mut T {
        &mut self.chunks[pos >> CHUNK_BITS][pos & (CHUNK - 1)]
    }

    fn push(&mut self, item: T) {
        let chunk = self.len >> CHUNK_BITS;
        if chunk == self.chunks.len() {
            self.chunks.push(Vec::new());
        }
        self.chunks[chunk].push(item);
        self.len += 1;
    }

    /// Removes the item at `pos`, moving the last item into its place.
    fn swap_remove(&mut self, pos: usize) -> Option<T> {
        let last = self.chunks[self.len.checked_sub(1)? >> CHUNK_BITS].pop()?;
        self.len -= 1;
        if pos == self.len {
            return Some(last);
        }
        Some(std::mem::replace(self.get_mut(pos), last))
    }
}

/// One slot of the index: where an entry is, and enough of its hash to
/// tell most other keys apart (and to re-place it) without visiting it.
#[derive(Debug, Clone, Copy)]
struct IndexSlot {
    /// Low 32 bits of the key's hash; `tag & mask` is its home slot.
    tag: u32,
    /// Position in `entries`, or `VACANT`.
    pos: u32,
}

const VACANT: u32 = u32::MAX;
const VACANT_SLOT: IndexSlot = IndexSlot {
    tag: 0,
    pos: VACANT,
};

/// Index slots of a new table; the count stays a power of two.
const MIN_SLOTS: usize = 16;

/// Hash map over dense entries: linear probing with backward-shift
/// deletion (no tombstones, so a table that churns forever never
/// degrades) in an index kept at most three-quarters full.
#[derive(Debug)]
pub(crate) struct IdTable<K, V> {
    /// Power-of-two length, never full.
    index: Vec<IndexSlot>,
    entries: Chunked<(K, V)>,
}

impl<K: TableKey, V> IdTable<K, V> {
    pub(crate) fn new() -> Self {
        IdTable {
            index: vec![VACANT_SLOT; MIN_SLOTS],
            entries: Chunked {
                chunks: Vec::new(),
                len: 0,
            },
        }
    }

    /// Index slot of `key` (whose hash starts with `tag`), or the vacant
    /// slot that ends its probe chain (the load limit guarantees there is
    /// one).
    fn find(&self, key: K, tag: u32) -> usize {
        let mask = self.index.len() - 1;
        let mut i = tag as usize & mask;
        loop {
            let slot = self.index[i];
            if slot.pos == VACANT
                || (slot.tag == tag && self.entries.get(slot.pos as usize).0 == key)
            {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the index and re-places every slot by its tag.
    fn grow_index(&mut self) {
        let doubled = vec![VACANT_SLOT; self.index.len() * 2];
        let old = std::mem::replace(&mut self.index, doubled);
        let mask = self.index.len() - 1;
        for slot in old.into_iter().filter(|s| s.pos != VACANT) {
            let mut i = slot.tag as usize & mask;
            while self.index[i].pos != VACANT {
                i = (i + 1) & mask;
            }
            self.index[i] = slot;
        }
    }

    /// Maps `key` to `value`, returning the value it displaced (if any).
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        if (self.entries.len + 1) * 4 > self.index.len() * 3 {
            self.grow_index();
        }
        let tag = key.hash() as u32;
        let i = self.find(key, tag);
        let pos = self.index[i].pos;
        if pos != VACANT {
            let entry = self.entries.get_mut(pos as usize);
            return Some(std::mem::replace(&mut entry.1, value));
        }
        assert!(
            self.entries.len < VACANT as usize,
            "table positions are u32"
        );
        self.index[i] = IndexSlot {
            tag,
            pos: self.entries.len as u32,
        };
        self.entries.push((key, value));
        None
    }

    pub(crate) fn get(&self, key: K) -> Option<&V> {
        match self.index[self.find(key, key.hash() as u32)].pos {
            VACANT => None,
            pos => Some(&self.entries.get(pos as usize).1),
        }
    }

    pub(crate) fn get_mut(&mut self, key: K) -> Option<&mut V> {
        match self.index[self.find(key, key.hash() as u32)].pos {
            VACANT => None,
            pos => Some(&mut self.entries.get_mut(pos as usize).1),
        }
    }

    pub(crate) fn remove(&mut self, key: K) -> Option<V> {
        let mask = self.index.len() - 1;
        let mut hole = self.find(key, key.hash() as u32);
        let pos = self.index[hole].pos;
        if pos == VACANT {
            return None;
        }
        // Close the gap in the index so every remaining slot is still
        // reachable from its home without crossing a vacant one.
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let slot = self.index[j];
            if slot.pos == VACANT {
                break;
            }
            // The slot at `j` may move back into the hole only if that
            // keeps it at or after its home (distances are cyclic).
            let home = slot.tag as usize & mask;
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.index[hole] = slot;
                hole = j;
            }
        }
        self.index[hole] = VACANT_SLOT;
        // Keep the entries dense: the last one takes the freed position,
        // and its index slot (found by the position it still names) follows.
        let (_, value) = self.entries.swap_remove(pos as usize)?;
        let moved_from = self.entries.len as u32;
        if pos != moved_from {
            let mut i = self.entries.get(pos as usize).0.hash() as u32 as usize & mask;
            while self.index[i].pos != moved_from {
                i = (i + 1) & mask;
            }
            self.index[i].pos = pos;
        }
        Some(value)
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use rand::RngCore;

    /// A key whose home is one of the last four index slots at every
    /// table size, so every probe chain collides, wraps around to slot 0
    /// and straddles growth.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Clumped(u64);

    impl TableKey for Clumped {
        fn hash(self) -> u64 {
            u64::from(u32::MAX) - (self.0 & 3)
        }
    }

    fn check_against_model<K: TableKey + Ord + std::fmt::Debug>(
        seed: u64,
        key_space: u64,
        steps: usize,
        min_peak: usize,
        key: impl Fn(u64) -> K,
    ) {
        let mut rng = das_sim::rng::SeedFactory::new(seed).stream("table-diff", 0);
        let mut table: IdTable<K, u64> = IdTable::new();
        let mut model: BTreeMap<K, u64> = BTreeMap::new();
        let mut peak = 0;
        for step in 0..steps {
            // Six alternating growing and draining phases, so slots are
            // reused after backward shifts, not only filled once.
            let filling = matches!(step * 6 / steps, 0 | 2 | 4);
            let k = key(rng.next_u64() % key_space);
            let v = step as u64;
            match rng.next_u64() % 10 {
                0..=3 if filling => assert_eq!(table.insert(k, v), model.insert(k, v)),
                0..=3 => assert_eq!(table.remove(k), model.remove(&k)),
                4 => assert_eq!(table.insert(k, v), model.insert(k, v)),
                5 => assert_eq!(table.remove(k), model.remove(&k)),
                6 | 7 => assert_eq!(table.get(k), model.get(&k)),
                _ => {
                    let (a, b) = (table.get_mut(k), model.get_mut(&k));
                    assert_eq!(a, b);
                    if let (Some(a), Some(b)) = (a, b) {
                        *a += 1;
                        *b += 1;
                    }
                }
            }
            assert_eq!(table.len(), model.len());
            peak = peak.max(table.len());
        }
        assert!(peak > min_peak, "peak {peak}: the table never grew enough");
        // Every surviving entry is still reachable, and nothing else is.
        for raw in 0..key_space {
            assert_eq!(table.get(key(raw)), model.get(&key(raw)));
        }
        for (k, v) in model {
            assert_eq!(table.remove(k), Some(v));
        }
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn table_matches_a_btreemap_under_random_interleavings() {
        for seed in 0..8 {
            // Real keys, as the engine uses them.
            check_against_model(seed, 400, 6000, 4 * MIN_SLOTS, RequestId);
            check_against_model(seed, 400, 6000, 4 * MIN_SLOTS, |raw| OpId {
                request: RequestId(raw / 8),
                index: (raw % 8) as u32,
            });
            // Four home slots for every key: one long wrap-around chain.
            check_against_model(seed, 150, 4000, 4 * MIN_SLOTS, Clumped);
        }
        // Enough live entries to fill chunks, so removals move entries
        // across chunk boundaries and emptied chunks are refilled.
        check_against_model(8, 6 * CHUNK as u64, 60_000, 2 * CHUNK, RequestId);
    }

    #[test]
    fn empty_table_answers_and_insert_reports_the_displaced_value() {
        let mut t: IdTable<RequestId, u8> = IdTable::new();
        assert_eq!(t.get(RequestId(1)), None);
        assert_eq!(t.get_mut(RequestId(1)), None);
        assert_eq!(t.remove(RequestId(1)), None);
        assert_eq!(t.insert(RequestId(1), 7), None);
        assert_eq!(t.insert(RequestId(1), 8), Some(7));
        assert_eq!(t.len(), 1);
    }
}
