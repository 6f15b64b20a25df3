//! The Distributed Adaptive Scheduler (DAS) — the paper's contribution.
//!
//! Every queued operation is ranked by the **remaining bottleneck service
//! demand** of its owning request — the largest expected service time among
//! the request's *unfinished* operations:
//!
//! ```text
//! rank(op, t) = max(local_demand, remaining_bottleneck_demand(t)) − slope · wait(t)
//! slope       = aging · min(1, EWMA demand / EWMA wait)
//! ```
//!
//! and the op with the smallest rank is served next. This single rule is
//! the "distributed combination of LRPT-last and SRPT-first" from the
//! abstract:
//!
//! * **SRPT-first across requests** — at dispatch the rank equals Rein's
//!   shortest-bottleneck-first key, but as siblings complete the
//!   coordinator's progress hints shrink `remaining_bottleneck_demand`, so
//!   a request that is almost done becomes urgent everywhere and finishes —
//!   exactly SRPT at the request level, computed distributedly.
//! * **LRPT-last within a request** — an op whose sibling still needs a
//!   huge service time ranks by that sibling's demand, not its own: serving
//!   it early cannot make its request finish sooner, so it yields to ops
//!   that can still help someone (the op with the *largest remaining
//!   processing time* elsewhere is served *last*).
//!
//! **Adaptivity** comes from three mechanisms:
//!
//! 1. service demands are estimated with the coordinator's EWMA per-server
//!    rate estimates (fed by piggybacked reports), so tags track
//!    time-varying server performance — a degraded server's ops carry
//!    proportionally larger demands;
//! 2. progress hints keep the remaining-bottleneck view current as the
//!    request executes;
//! 3. **load-normalized aging** bounds starvation: every queued op earns a
//!    rank credit proportional to its wait, with a slope of
//!    `aging · (EWMA demand / EWMA wait)`. The normalization keeps the
//!    credit at the *demand* scale no matter how congested the server is —
//!    a fixed absolute slope would grow past the demand scale at high load
//!    and collapse the ranking toward FCFS exactly when reordering is most
//!    valuable (Fig. 18 measures this). A hard serve-the-oldest threshold
//!    (`starvation_factor`) is also available; Fig. 18 shows it fires in
//!    bursts and *worsens* the worst case, which is why it defaults to
//!    off. At trivial queue depths (`fcfs_fallback_len`) DAS degenerates
//!    to FCFS, avoiding reordering overhead at low load.
//!
//! **Pruned, exact pick.** The queue stays one arrival-ordered `Vec`, so
//! an op's index is its `position`. Each full [`CHUNK`]-op range of it
//! carries a conservative [`Chunk`] summary: a lower bound on the demand
//! term, the oldest arrival, and the range of request ids. The rank is
//! `demand − slope · wait` with `slope ≥ 0`, and round-to-nearest `−`,
//! `×`, `u64 → f64` and the division by 1e9 are all monotone, so
//! `min_demand − slope · wait(oldest) ≤ rank` holds *in floating point*
//! for every op of the chunk: no near-tie can flip. A dequeue ranks the
//! unsummarized tail, then the chunk with the smallest bound, then every
//! chunk whose bound can still beat the best `(rank, index)` found so
//! far. The pick is therefore the one a linear scan makes, ties
//! included. A hint skips the chunks whose request range cannot hold
//! its request.

use serde::{Deserialize, Serialize};

use das_sim::time::{SimDuration, SimTime};

use crate::baselines::das_net_tag_bytes;
use crate::scheduler::{DequeueDecision, DequeueRule, Scheduler};
use crate::types::{HintUpdate, QueuedOp, RequestId};

/// Tuning knobs for [`Das`]. The defaults reproduce the paper's behaviour;
/// the ablation flags switch off individual components for Fig. 15.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DasConfig {
    /// Load-normalized aging strength (dimensionless): the rank-credit
    /// slope is `aging · min(1, EWMA demand / EWMA wait)`, so the credit
    /// stays at the demand scale at any congestion level. 0 disables
    /// aging.
    pub aging: f64,
    /// Hard guard: serve the oldest queued op unconditionally once its
    /// wait exceeds this multiple of the EWMA dispensed wait. Off (0) by
    /// default — Fig. 18 shows threshold guards fire in bursts and hurt
    /// the worst case; kept as a knob to reproduce that negative result.
    pub starvation_factor: f64,
    /// Queue length at or below which plain FCFS order is used.
    pub fcfs_fallback_len: usize,
    /// Use the request-level remaining-bottleneck term (the LRPT-last +
    /// SRPT-first combination). Off = rank by the local op's demand only
    /// (degenerates to aged SJF).
    pub use_remaining_bottleneck: bool,
    /// Consume piggybacked reports and progress hints. Off = tags are
    /// static dispatch-time guesses based on nominal rates.
    pub adaptive: bool,
    /// Oracle mode: the surrounding system feeds exact, instantly updated
    /// information at zero cost. Used only as an upper-bound reference.
    pub oracle: bool,
}

impl Default for DasConfig {
    fn default() -> Self {
        DasConfig {
            aging: 0.1,
            starvation_factor: 0.0,
            fcfs_fallback_len: 1,
            use_remaining_bottleneck: true,
            adaptive: true,
            oracle: false,
        }
    }
}

impl DasConfig {
    /// Ablation: DAS without the request-level remaining-bottleneck term.
    pub fn without_remaining_bottleneck() -> Self {
        DasConfig {
            use_remaining_bottleneck: false,
            ..Default::default()
        }
    }

    /// Ablation: DAS without adaptivity (static dispatch-time tags, no
    /// hints, no piggybacked estimates).
    pub fn without_adaptivity() -> Self {
        DasConfig {
            adaptive: false,
            ..Default::default()
        }
    }

    /// Ablation: DAS without any anti-starvation mechanism (no guard, no
    /// aging credit).
    pub fn without_aging() -> Self {
        DasConfig {
            aging: 0.0,
            starvation_factor: 0.0,
            ..Default::default()
        }
    }

    /// The centralized-oracle upper bound.
    pub fn oracle() -> Self {
        DasConfig {
            oracle: true,
            ..Default::default()
        }
    }

    /// The rank's demand term: `max(local, remaining bottleneck)`, or the
    /// local demand alone when the bottleneck term is ablated.
    fn demand(&self, op: &QueuedOp) -> f64 {
        let local = op.local_estimate.as_secs_f64();
        if self.use_remaining_bottleneck {
            local.max(op.tag.bottleneck_demand.as_secs_f64())
        } else {
            local
        }
    }
}

/// Ops per summarized range of [`Das`]'s queue.
const CHUNK: usize = 64;

/// A conservative summary of one full [`CHUNK`]-op range of [`Das`]'s
/// queue: every op in the range has a demand `≥ min_demand`, an
/// `enqueued_at ≥ oldest` and a request id in `lo_req..=hi_req`. It may
/// be loose in that direction (ops leave and hints lower demands without
/// tightening it) and is recomputed exactly whenever its range is ranked.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    min_demand: f64,
    oldest: SimTime,
    lo_req: u64,
    hi_req: u64,
}

impl Chunk {
    /// The summary of no ops; [`Chunk::absorb`] widens it.
    const EMPTY: Chunk = Chunk {
        min_demand: f64::INFINITY,
        oldest: SimTime::MAX,
        lo_req: u64::MAX,
        hi_req: 0,
    };

    /// Widens the summary to cover `op`, whose demand term is `demand`.
    fn absorb(&mut self, demand: f64, op: &QueuedOp) {
        self.min_demand = self.min_demand.min(demand);
        self.oldest = self.oldest.min(op.enqueued_at);
        self.lo_req = self.lo_req.min(op.tag.op.request.0);
        self.hi_req = self.hi_req.max(op.tag.op.request.0);
    }

    /// A rank no op of the chunk can undercut: the rank expression
    /// evaluated on the smallest demand and the longest wait.
    fn bound(&self, slope: f64, now: SimTime) -> f64 {
        self.min_demand - slope * now.saturating_since(self.oldest).as_secs_f64()
    }
}

/// The best `(rank, index)` seen so far by a dequeue.
#[derive(Debug, Clone, Copy)]
struct Best {
    rank: f64,
    index: usize,
}

impl Best {
    /// Nothing seen yet: every finite rank improves on it.
    const NONE: Best = Best {
        rank: f64::INFINITY,
        index: usize::MAX,
    };

    /// True when `(rank, index)` sorts before the best: a smaller rank, or
    /// an exact tie from an earlier arrival. Exact ties must go to the
    /// earliest arrival, never to an epsilon, or the dequeue order would
    /// depend on unrelated float noise.
    fn improved_by(&self, rank: f64, index: usize) -> bool {
        rank.total_cmp(&self.rank).then(index.cmp(&self.index)) == std::cmp::Ordering::Less
    }
}

/// Smoothing factor of [`Dispatched`]'s EWMAs.
const EWMA_ALPHA: f64 = 0.02;

/// EWMAs (α = [`EWMA_ALPHA`]) of the waits and local demands of
/// dispatched ops. Every dequeue moves both, so one `Option` covers the
/// pair; that saves the 24 bytes `chunks` costs, and every server of a
/// run holds a [`Das`].
#[derive(Debug, Clone, Copy)]
struct Dispatched {
    wait: f64,
    demand: f64,
}

impl Dispatched {
    /// The pair after recording one dispatched op.
    fn record(prev: Option<Dispatched>, wait: f64, demand: f64) -> Dispatched {
        let ewma = |v: f64, x: f64| v + EWMA_ALPHA * (x - v);
        match prev {
            None => Dispatched { wait, demand },
            Some(p) => Dispatched {
                wait: ewma(p.wait, wait),
                demand: ewma(p.demand, demand),
            },
        }
    }
}

/// The Distributed Adaptive Scheduler. See the module docs for the ranking
/// rule and the pruned pick.
#[derive(Debug)]
pub struct Das {
    config: DasConfig,
    /// Waiting ops in arrival order: index 0 is the oldest, and an op's
    /// index is the number of older ops still queued.
    queue: Vec<QueuedOp>,
    /// One summary per full [`CHUNK`]-op range: `chunks[k]` covers
    /// `queue[k·CHUNK..(k+1)·CHUNK]`, so `chunks.len() == queue.len() /
    /// CHUNK` and the ops past the last full range (the tail) have none.
    chunks: Vec<Chunk>,
    queued_work: SimDuration,
    /// EWMAs of dispatched ops; `None` before the first dequeue.
    dispatched: Option<Dispatched>,
    /// Ops ranked by all dequeues so far (pruning tests read it).
    #[cfg(test)]
    ranked: u64,
    /// Ops examined by all hints so far (pruning tests read it).
    #[cfg(test)]
    examined: u64,
}

impl Default for Das {
    fn default() -> Self {
        Self::new(DasConfig::default())
    }
}

impl Das {
    /// Creates a scheduler with the given configuration.
    pub fn new(config: DasConfig) -> Self {
        assert!(config.aging >= 0.0 && config.aging.is_finite());
        assert!(config.starvation_factor >= 0.0 && config.starvation_factor.is_finite());
        Das {
            config,
            queue: Vec::new(),
            chunks: Vec::new(),
            queued_work: SimDuration::ZERO,
            dispatched: None,
            #[cfg(test)]
            ranked: 0,
            #[cfg(test)]
            examined: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &DasConfig {
        &self.config
    }

    /// True when `op` has waited far beyond the current average wait.
    fn starving(&self, op: &QueuedOp, now: SimTime) -> bool {
        if self.config.starvation_factor <= 0.0 {
            return false;
        }
        match self.dispatched {
            Some(d) if d.wait > 0.0 => {
                op.wait_at(now).as_secs_f64() > self.config.starvation_factor * d.wait
            }
            _ => false,
        }
    }

    /// The credit slope in effect: `aging`, shrunk by how far typical
    /// waits exceed typical demands so the credit never outgrows the
    /// demand scale.
    fn aging_slope(&self) -> f64 {
        if self.config.aging == 0.0 {
            return 0.0;
        }
        match self.dispatched {
            Some(d) if d.wait > 0.0 => self.config.aging * (d.demand / d.wait).min(1.0),
            _ => self.config.aging,
        }
    }

    /// Picks the next op to serve: its index in `queue` (= its arrival
    /// position) plus the rule that chose it.
    fn select(&mut self, now: SimTime) -> Option<(usize, DequeueRule)> {
        let oldest = self.queue.first()?;
        if self.queue.len() <= self.config.fcfs_fallback_len {
            // Low load: FCFS.
            return Some((0, DequeueRule::FcfsFallback));
        }
        if self.starving(oldest, now) {
            // Adaptive starvation guard: the oldest op has waited far past
            // the current norm — serve it regardless of rank.
            return Some((0, DequeueRule::StarvationGuard));
        }
        // The minimum (rank, index) (lower = served first). The tail has
        // no summary, so it is always ranked; then the chunk with the
        // smallest bound, whose best op prunes the rest hardest; then
        // every chunk whose bound could still sort before the best.
        let slope = self.aging_slope();
        let mut best = Best::NONE;
        let sealed = self.chunks.len() * CHUNK;
        self.rank_range(sealed, self.queue.len(), slope, now, &mut best);
        let bound = |k: usize| self.chunks[k].bound(slope, now);
        let first = (0..self.chunks.len()).min_by(|&a, &b| bound(a).total_cmp(&bound(b)));
        if let Some(k) = first {
            self.rank_chunk(k, slope, now, &mut best);
        }
        for k in 0..self.chunks.len() {
            if Some(k) != first && best.improved_by(self.chunks[k].bound(slope, now), k * CHUNK) {
                self.rank_chunk(k, slope, now, &mut best);
            }
        }
        Some((best.index, DequeueRule::MinRank))
    }

    /// Ranks chunk `k` into `best` and makes its summary exact again.
    fn rank_chunk(&mut self, k: usize, slope: f64, now: SimTime, best: &mut Best) {
        self.chunks[k] = self.rank_range(k * CHUNK, (k + 1) * CHUNK, slope, now, best);
    }

    /// Ranks `queue[start..end]` into `best` and returns the exact summary
    /// of that range.
    fn rank_range(
        &mut self,
        start: usize,
        end: usize,
        slope: f64,
        now: SimTime,
        best: &mut Best,
    ) -> Chunk {
        #[cfg(test)]
        {
            self.ranked += (end - start) as u64;
        }
        let mut summary = Chunk::EMPTY;
        for (index, op) in (start..).zip(&self.queue[start..end]) {
            // `bottleneck_demand` is kept current by progress hints.
            let demand = self.config.demand(op);
            summary.absorb(demand, op);
            let rank = demand - slope * op.wait_at(now).as_secs_f64();
            if best.improved_by(rank, index) {
                *best = Best { rank, index };
            }
        }
        summary
    }

    /// Restores the chunk invariant after `queue.remove(removed)`. Every
    /// op past `removed` slid one slot left, so each chunk from the one
    /// that held it on gains the op that used to open the next chunk (or
    /// the tail); the op it lost only loosens its summary. A last chunk
    /// that is no longer full dissolves into the tail.
    fn close_gap(&mut self, removed: usize) {
        if self.chunks.len() * CHUNK > self.queue.len() {
            self.chunks.pop();
        }
        for k in removed / CHUNK..self.chunks.len() {
            let op = &self.queue[(k + 1) * CHUNK - 1];
            self.chunks[k].absorb(self.config.demand(op), op);
        }
    }
}

impl Scheduler for Das {
    fn name(&self) -> &'static str {
        if self.config.oracle {
            "Oracle"
        } else if !self.config.use_remaining_bottleneck {
            "DAS-noLRPT"
        } else if !self.config.adaptive {
            "DAS-noAdapt"
        } else if self.config.aging == 0.0 && self.config.starvation_factor == 0.0 {
            "DAS-noAging"
        } else {
            "DAS"
        }
    }

    fn enqueue(&mut self, op: QueuedOp, _now: SimTime) {
        self.queued_work += op.local_estimate;
        self.queue.push(op);
        if self.queue.len().is_multiple_of(CHUNK) {
            // The tail just filled a range: seal it with an exact summary.
            let mut chunk = Chunk::EMPTY;
            for op in &self.queue[self.queue.len() - CHUNK..] {
                chunk.absorb(self.config.demand(op), op);
            }
            self.chunks.push(chunk);
        }
    }

    fn dequeue(&mut self, now: SimTime) -> Option<(QueuedOp, DequeueDecision)> {
        let (idx, rule) = self.select(now)?;
        let decision = DequeueDecision {
            rule,
            position: idx as u32,
            queue_len: self.queue.len() as u32,
        };
        let op = self.queue.remove(idx);
        self.close_gap(idx);
        self.queued_work = self.queued_work.saturating_sub(op.local_estimate);
        self.dispatched = Some(Dispatched::record(
            self.dispatched,
            op.wait_at(now).as_secs_f64(),
            op.local_estimate.as_secs_f64(),
        ));
        Some((op, decision))
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn on_hint(&mut self, request: RequestId, update: HintUpdate, _now: SimTime) {
        if !(self.config.adaptive || self.config.oracle) {
            return;
        }
        let apply = |op: &mut QueuedOp| {
            let hit = op.tag.op.request == request;
            if hit {
                op.tag.bottleneck_eta = update.bottleneck_eta;
                op.tag.bottleneck_demand = update.remaining_demand;
            }
            hit
        };
        let sealed = self.chunks.len() * CHUNK;
        for (k, chunk) in self.chunks.iter_mut().enumerate() {
            // A summary's request range is never too narrow, so a miss is
            // certain.
            if !(chunk.lo_req..=chunk.hi_req).contains(&request.0) {
                continue;
            }
            #[cfg(test)]
            {
                self.examined += CHUNK as u64;
            }
            for op in &mut self.queue[k * CHUNK..(k + 1) * CHUNK] {
                if apply(op) {
                    chunk.absorb(self.config.demand(op), op);
                }
            }
        }
        #[cfg(test)]
        {
            self.examined += (self.queue.len() - sealed) as u64;
        }
        for op in &mut self.queue[sealed..] {
            apply(op);
        }
    }

    fn metadata_bytes(&self) -> u64 {
        if self.config.oracle {
            0 // centralized reference: coordination assumed free
        } else {
            das_net_tag_bytes::DAS_TAG
        }
    }

    fn wants_hints(&self) -> bool {
        (self.config.adaptive && self.config.use_remaining_bottleneck) || self.config.oracle
    }

    fn wants_piggyback(&self) -> bool {
        self.config.adaptive || self.config.oracle
    }

    fn queued_work(&self) -> SimDuration {
        self.queued_work
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{OpId, OpTag};

    /// An op whose request has local demand `local_us` and (remaining)
    /// bottleneck demand `bottleneck_us`, enqueued at `enq_us`.
    fn op(req: u64, local_us: u64, bottleneck_us: u64, enq_us: u64) -> QueuedOp {
        QueuedOp {
            tag: OpTag {
                op: OpId {
                    request: RequestId(req),
                    index: 0,
                },
                request_arrival: SimTime::from_micros(enq_us),
                fanout: 2,
                local_estimate: SimDuration::from_micros(local_us),
                bottleneck_eta: SimTime::from_micros(enq_us + bottleneck_us),
                bottleneck_demand: SimDuration::from_micros(bottleneck_us),
            },
            local_estimate: SimDuration::from_micros(local_us),
            enqueued_at: SimTime::from_micros(enq_us),
        }
    }

    fn hint(eta_us: u64, demand_us: u64) -> HintUpdate {
        HintUpdate {
            bottleneck_eta: SimTime::from_micros(eta_us),
            remaining_demand: SimDuration::from_micros(demand_us),
        }
    }

    fn drain(s: &mut Das, now: SimTime) -> Vec<u64> {
        std::iter::from_fn(|| s.dequeue(now))
            .map(|(o, _)| o.tag.op.request.0)
            .collect()
    }

    fn no_fallback(config: DasConfig) -> DasConfig {
        DasConfig {
            aging: 0.0,
            fcfs_fallback_len: 0,
            ..config
        }
    }

    #[test]
    fn starvation_guard_serves_long_waiting_outlier() {
        let mut s = Das::new(DasConfig {
            starvation_factor: 4.0,
            fcfs_fallback_len: 0,
            ..Default::default()
        });
        // Prime the wait EWMA with ~1ms waits.
        for i in 0..100 {
            let t = SimTime::from_millis(10 * i);
            s.enqueue(op(1000 + i, 100, 100, t.as_nanos() / 1000), t);
            assert!(s.dequeue(t + SimDuration::from_millis(1)).is_some());
        }
        // A giant request enqueues and keeps getting bypassed... until its
        // wait passes 4x the ~1ms average.
        let t0 = SimTime::from_secs(100);
        s.enqueue(op(1, 50_000, 50_000, t0.as_nanos() / 1000), t0);
        let later = t0 + SimDuration::from_millis(100);
        s.enqueue(op(2, 10, 10, later.as_nanos() / 1000), later);
        // Guard fires: the oldest op wins despite its huge demand.
        let (o, d) = s.dequeue(later).unwrap();
        assert_eq!(o.tag.op.request, RequestId(1));
        assert_eq!(d.rule, DequeueRule::StarvationGuard);
        assert_eq!(d.position, 0);
    }

    #[test]
    fn starvation_guard_dormant_for_fresh_ops() {
        let mut s = Das::new(DasConfig {
            starvation_factor: 4.0,
            fcfs_fallback_len: 0,
            ..Default::default()
        });
        for i in 0..50 {
            let t = SimTime::from_millis(10 * i);
            s.enqueue(op(1000 + i, 100, 100, t.as_nanos() / 1000), t);
            assert!(s.dequeue(t + SimDuration::from_millis(1)).is_some());
        }
        // Both ops fresh: plain SRPT ordering applies.
        let t0 = SimTime::from_secs(100);
        s.enqueue(op(1, 50_000, 50_000, t0.as_nanos() / 1000), t0);
        s.enqueue(op(2, 10, 10, t0.as_nanos() / 1000), t0);
        assert_eq!(s.dequeue(t0).unwrap().0.tag.op.request, RequestId(2));
    }

    #[test]
    fn smallest_remaining_bottleneck_first() {
        let mut s = Das::new(no_fallback(DasConfig::default()));
        let now = SimTime::ZERO;
        s.enqueue(op(1, 10, 5_000, 0), now);
        s.enqueue(op(2, 10, 100, 0), now);
        s.enqueue(op(3, 10, 1_000, 0), now);
        assert_eq!(drain(&mut s, now), vec![2, 3, 1]);
    }

    #[test]
    fn lrpt_last_within_request() {
        // The non-bottleneck op of a big request yields to a small request,
        // even though its *own* demand is tiny and it arrived first.
        let mut s = Das::new(no_fallback(DasConfig::default()));
        let now = SimTime::ZERO;
        s.enqueue(op(1, 5, 10_000, 0), now); // tiny op, huge sibling demand
        s.enqueue(op(2, 50, 60, 0), now); // bottleneck op of a small request
        assert_eq!(drain(&mut s, now), vec![2, 1]);
    }

    #[test]
    fn hint_shrinks_remaining_and_makes_op_urgent() {
        let mut s = Das::new(no_fallback(DasConfig::default()));
        let now = SimTime::ZERO;
        s.enqueue(op(1, 5, 10_000, 0), now);
        s.enqueue(op(2, 50, 60, 0), now);
        // Request 1's giant sibling completed: remaining collapses to the
        // local 5us demand -> SRPT-first.
        s.on_hint(RequestId(1), hint(5, 5), now);
        assert_eq!(drain(&mut s, now), vec![1, 2]);
    }

    #[test]
    fn continuous_aging_credit_also_prevents_starvation() {
        let mut s = Das::new(DasConfig {
            aging: 0.01,
            starvation_factor: 0.0,
            fcfs_fallback_len: 0,
            ..Default::default()
        });
        // A big request waits from t=0; fresh small ops keep arriving.
        s.enqueue(op(1, 1000, 1000, 0), SimTime::ZERO);
        // After 200ms of waiting its 1000us demand has earned 2000us of
        // credit, beating a fresh 500us op.
        let now = SimTime::from_millis(200);
        s.enqueue(op(2, 500, 500, 200_000), now);
        assert_eq!(s.dequeue(now).unwrap().0.tag.op.request, RequestId(1));
    }

    #[test]
    fn no_aging_starves() {
        let mut s = Das::new(no_fallback(DasConfig::without_aging()));
        s.enqueue(op(1, 1000, 1000, 0), SimTime::ZERO);
        let now = SimTime::from_millis(200);
        s.enqueue(op(2, 500, 500, 200_000), now);
        // Without aging the newcomer with the smaller demand wins forever.
        assert_eq!(s.dequeue(now).unwrap().0.tag.op.request, RequestId(2));
    }

    #[test]
    fn fcfs_fallback_at_low_depth() {
        let mut s = Das::new(DasConfig {
            fcfs_fallback_len: 2,
            aging: 0.0,
            ..Default::default()
        });
        let now = SimTime::ZERO;
        s.enqueue(op(1, 100, 10_000, 0), now);
        s.enqueue(op(2, 1, 10, 0), now);
        // Two queued <= fallback threshold: serve in arrival order.
        let (o, d) = s.dequeue(now).unwrap();
        assert_eq!(o.tag.op.request, RequestId(1));
        assert_eq!(d.rule, DequeueRule::FcfsFallback);
        assert_eq!((d.position, d.queue_len), (0, 2));
        // Now only one left — still FCFS region.
        assert_eq!(s.dequeue(now).unwrap().0.tag.op.request, RequestId(2));
    }

    #[test]
    fn no_remaining_bottleneck_term_ranks_by_local() {
        let mut s = Das::new(no_fallback(DasConfig::without_remaining_bottleneck()));
        let now = SimTime::ZERO;
        s.enqueue(op(1, 100, 50, 0), now); // small request but big local op
        s.enqueue(op(2, 10, 100_000, 0), now); // giant request, small local op
        assert_eq!(drain(&mut s, now), vec![2, 1]);
    }

    #[test]
    fn non_adaptive_ignores_hints() {
        let mut s = Das::new(no_fallback(DasConfig::without_adaptivity()));
        let now = SimTime::ZERO;
        s.enqueue(op(1, 5, 10_000, 0), now);
        s.enqueue(op(2, 50, 60, 0), now);
        s.on_hint(RequestId(1), hint(5, 5), now);
        // Hint dropped: order unchanged.
        assert_eq!(drain(&mut s, now), vec![2, 1]);
        assert!(!s.wants_hints());
        assert!(!s.wants_piggyback());
    }

    #[test]
    fn local_demand_floors_the_rank() {
        // A hint can never make an op look cheaper than its own service.
        let mut s = Das::new(no_fallback(DasConfig::default()));
        let now = SimTime::ZERO;
        s.enqueue(op(1, 800, 10_000, 0), now);
        s.enqueue(op(2, 500, 500, 0), now);
        s.on_hint(RequestId(1), hint(1, 1), now); // absurd hint
                                                  // Rank(1) = max(800, 1) = 800 > rank(2) = 500.
        assert_eq!(drain(&mut s, now), vec![2, 1]);
    }

    #[test]
    fn names_reflect_ablations() {
        assert_eq!(Das::new(DasConfig::default()).name(), "DAS");
        assert_eq!(
            Das::new(DasConfig::without_remaining_bottleneck()).name(),
            "DAS-noLRPT"
        );
        assert_eq!(
            Das::new(DasConfig::without_adaptivity()).name(),
            "DAS-noAdapt"
        );
        assert_eq!(Das::new(DasConfig::without_aging()).name(), "DAS-noAging");
        assert_eq!(Das::new(DasConfig::oracle()).name(), "Oracle");
    }

    #[test]
    fn oracle_wants_everything_but_charges_nothing() {
        let s = Das::new(DasConfig::oracle());
        assert!(s.wants_hints());
        assert!(s.wants_piggyback());
        assert_eq!(s.metadata_bytes(), 0);
        assert!(Das::new(DasConfig::default()).metadata_bytes() > 0);
    }

    #[test]
    fn dequeue_names_the_rule_and_position() {
        let mut s = Das::new(no_fallback(DasConfig::default()));
        let now = SimTime::ZERO;
        for (req, local, bott) in [(1, 10, 5_000), (2, 10, 100), (3, 10, 1_000)] {
            s.enqueue(op(req, local, bott, 0), now);
        }
        let rules: Vec<_> = std::iter::from_fn(|| s.dequeue(now))
            .map(|(_, d)| (d.rule, d.position, d.queue_len))
            .collect();
        // First pick: request 2 (arrival position 1) out of 3 by min-rank;
        // last pick is a 1-deep queue but fallback is off, so still
        // min-rank at position 0.
        assert_eq!(
            rules,
            vec![
                (DequeueRule::MinRank, 1, 3),
                (DequeueRule::MinRank, 1, 2),
                (DequeueRule::MinRank, 0, 1),
            ]
        );
    }

    /// The ranking rule written the slow, obvious way over an
    /// arrival-ordered shadow queue: `min` over `(rank, arrival index)`
    /// with the same float expression as [`Das::select`], and every hint
    /// applied to every op of its request.
    struct Naive {
        config: DasConfig,
        shadow: Vec<QueuedOp>,
        wait: das_sim::stats::Ewma,
        demand: das_sim::stats::Ewma,
    }

    impl Naive {
        fn new(config: DasConfig) -> Self {
            Naive {
                config,
                shadow: Vec::new(),
                wait: das_sim::stats::Ewma::new(0.02),
                demand: das_sim::stats::Ewma::new(0.02),
            }
        }

        /// The served op, the rule that chose it, and its arrival index.
        fn dequeue(&mut self, now: SimTime) -> Option<(QueuedOp, DequeueRule, usize)> {
            let c = self.config;
            let wait = |o: &QueuedOp| o.wait_at(now).as_secs_f64();
            let oldest = self.shadow.first()?;
            let starving = match self.wait.value() {
                Some(avg) if c.starvation_factor > 0.0 && avg > 0.0 => {
                    wait(oldest) > c.starvation_factor * avg
                }
                _ => false,
            };
            let slope = match (self.demand.value(), self.wait.value()) {
                _ if c.aging == 0.0 => 0.0,
                (Some(d), Some(w)) if w > 0.0 => c.aging * (d / w).min(1.0),
                _ => c.aging,
            };
            let rank = |o: &QueuedOp| {
                let local = o.local_estimate.as_secs_f64();
                let demand = if c.use_remaining_bottleneck {
                    local.max(o.tag.bottleneck_demand.as_secs_f64())
                } else {
                    local
                };
                demand - slope * wait(o)
            };
            let (idx, rule) = if self.shadow.len() <= c.fcfs_fallback_len {
                (0, DequeueRule::FcfsFallback)
            } else if starving {
                (0, DequeueRule::StarvationGuard)
            } else {
                let by_rank_then_arrival =
                    |a: &(f64, usize), b: &(f64, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
                let ranked = self.shadow.iter().enumerate().map(|(i, o)| (rank(o), i));
                let (_, idx) = ranked.min_by(by_rank_then_arrival)?;
                (idx, DequeueRule::MinRank)
            };
            let o = self.shadow.remove(idx);
            self.wait.record(wait(&o));
            self.demand.record(o.local_estimate.as_secs_f64());
            Some((o, rule, idx))
        }

        fn on_hint(&mut self, request: RequestId, update: HintUpdate) {
            if !(self.config.adaptive || self.config.oracle) {
                return;
            }
            for o in &mut self.shadow {
                if o.tag.op.request == request {
                    o.tag.bottleneck_eta = update.bottleneck_eta;
                    o.tag.bottleneck_demand = update.remaining_demand;
                }
            }
        }
    }

    /// [`Das`] and [`Naive`] fed the same ops, dequeues and hints. Every
    /// dequeue asserts that both serve the same op by the same rule, and
    /// that `position` and `queue_len` match the shadow queue.
    struct Lockstep {
        das: Das,
        naive: Naive,
        rules_seen: [u32; 4],
    }

    impl Lockstep {
        fn new(config: DasConfig) -> Self {
            Lockstep {
                das: Das::new(config),
                naive: Naive::new(config),
                rules_seen: [0; 4],
            }
        }

        fn enqueue(&mut self, o: QueuedOp, now: SimTime) {
            self.das.enqueue(o, now);
            self.naive.shadow.push(o);
        }

        fn hint(&mut self, request: RequestId, update: HintUpdate, now: SimTime) {
            self.das.on_hint(request, update, now);
            self.naive.on_hint(request, update);
        }

        fn dequeue(&mut self, now: SimTime, step: usize) {
            let config = self.naive.config;
            let queue_len = self.naive.shadow.len() as u32;
            let got = self.das.dequeue(now);
            let want = self.naive.dequeue(now);
            assert_eq!(got.is_some(), want.is_some(), "step {step}");
            if let (Some((g, d)), Some((w, rule, position))) = (got, want) {
                assert_eq!(g.tag.op, w.tag.op, "step {step} config {config:?}");
                assert_eq!(d.rule, rule, "step {step}");
                assert_eq!(d.position as usize, position, "step {step}");
                assert_eq!(d.queue_len, queue_len, "step {step}");
                self.rules_seen[rule as usize] += 1;
            }
        }

        /// Every full range has a summary that covers each of its ops; the
        /// tail has none.
        fn check_summaries(&self) {
            let das = &self.das;
            assert_eq!(das.chunks.len(), das.queue.len() / CHUNK);
            for (chunk, ops) in das.chunks.iter().zip(das.queue.chunks_exact(CHUNK)) {
                for o in ops {
                    assert!(das.config.demand(o) >= chunk.min_demand, "{chunk:?}");
                    assert!(o.enqueued_at >= chunk.oldest, "{chunk:?}");
                    let req = o.tag.op.request.0;
                    assert!((chunk.lo_req..=chunk.hi_req).contains(&req), "{chunk:?}");
                }
            }
        }
    }

    #[test]
    fn das_matches_the_naive_reference_under_random_interleavings() {
        use rand::RngCore;
        let configs = [
            DasConfig::default(),
            DasConfig {
                fcfs_fallback_len: 0,
                ..Default::default()
            },
            DasConfig {
                fcfs_fallback_len: 2,
                ..Default::default()
            },
            DasConfig {
                starvation_factor: 4.0,
                ..Default::default()
            },
            DasConfig {
                aging: 0.0,
                ..Default::default()
            },
        ];
        for (seed, config) in configs.into_iter().enumerate() {
            let mut rng = das_sim::rng::SeedFactory::new(seed as u64).stream("das-diff", 0);
            let mut pair = Lockstep::new(config);
            let (mut now_us, mut arrivals) = (0u64, 0u64);
            for step in 0..4_000 {
                now_us += rng.next_u64() % 40;
                let now = SimTime::from_micros(now_us);
                match rng.next_u64() % 20 {
                    // Demands come from a few values so exact rank ties
                    // are common; requests are arrival-numbered.
                    0..=8 => {
                        arrivals += 1;
                        let local = [10, 20, 50][(rng.next_u64() % 3) as usize];
                        let bott = [20, 50, 400][(rng.next_u64() % 3) as usize];
                        pair.enqueue(op(arrivals, local, bott, now_us), now);
                    }
                    9..=16 => pair.dequeue(now, step),
                    _ => {
                        let request = RequestId(1 + rng.next_u64() % arrivals.max(1));
                        let update = hint(now_us, [5, 30, 200][(rng.next_u64() % 3) as usize]);
                        pair.hint(request, update, now);
                    }
                }
            }
            assert_eq!(pair.das.len(), pair.naive.shadow.len());
            let rules_seen = pair.rules_seen;
            assert!(
                rules_seen[DequeueRule::MinRank as usize] > 500,
                "{rules_seen:?}"
            );
        }
    }

    #[test]
    fn das_matches_the_naive_reference_through_deep_queues() {
        use rand::RngCore;
        let aged = |aging, config| DasConfig { aging, ..config };
        let configs = [
            DasConfig::default(),
            aged(
                3.0,
                DasConfig {
                    starvation_factor: 4.0,
                    ..Default::default()
                },
            ),
            aged(
                0.0,
                DasConfig {
                    fcfs_fallback_len: 0,
                    ..Default::default()
                },
            ),
            aged(3.0, DasConfig::without_remaining_bottleneck()),
            DasConfig::without_adaptivity(),
            aged(0.0, DasConfig::oracle()),
        ];
        for (seed, config) in configs.into_iter().enumerate() {
            let mut rng = das_sim::rng::SeedFactory::new(seed as u64).stream("das-deep", 0);
            let mut pair = Lockstep::new(config);
            let (mut now_us, mut request, mut index) = (0u64, 0u64, 0u32);
            let (mut step, mut peak) = (0usize, 0usize);
            // Fill past 4096 ops, then drain to empty. The random walk
            // seals and dissolves chunks at every boundary it crosses, in
            // both directions.
            for filling in [true, false] {
                let len = |pair: &Lockstep| pair.naive.shadow.len();
                let done = |len: usize| if filling { len > 4_160 } else { len == 0 };
                while !done(len(&pair)) {
                    step += 1;
                    now_us += rng.next_u64() % 8;
                    let now = SimTime::from_micros(now_us);
                    let roll = rng.next_u64() % 16;
                    if roll < if filling { 12 } else { 2 } {
                        // A third of the ops join the previous request.
                        // Arrival stamps jitter ±32us around `now`: not
                        // monotone, and some lie in the future.
                        if request == 0 || !rng.next_u64().is_multiple_of(3) {
                            (request, index) = (request + 1, 0);
                        } else {
                            index += 1;
                        }
                        let local = [10, 20, 50, 1_000][(rng.next_u64() % 4) as usize];
                        let bott = [20, 50, 400, 5_000][(rng.next_u64() % 4) as usize];
                        let enq_us = (now_us + rng.next_u64() % 64).saturating_sub(32);
                        let mut o = op(request, local, bott, enq_us);
                        o.tag.op.index = index;
                        pair.enqueue(o, now);
                    } else if roll < 14 {
                        pair.dequeue(now, step);
                    } else {
                        // One hint, or a storm of eight: at queued ops
                        // anywhere, at the tail, and at requests gone.
                        for _ in 0..if roll == 14 { 1 } else { 8 } {
                            let (shadow, r) = (&pair.naive.shadow, rng.next_u64());
                            let n = shadow.len() as u64;
                            let target = match r % 3 {
                                0 if n > 0 => shadow[(r / 3 % n) as usize].tag.op.request,
                                1 if n > 0 => {
                                    let tail = (n % CHUNK as u64).max(1);
                                    shadow[(n - 1 - r / 3 % tail) as usize].tag.op.request
                                }
                                _ => RequestId(1 + r / 3 % request.max(1)),
                            };
                            let demand = [5, 30, 200, 2_000][(rng.next_u64() % 4) as usize];
                            pair.hint(target, hint(now_us, demand), now);
                        }
                    }
                    peak = peak.max(len(&pair));
                    if step % 64 == 0 {
                        pair.check_summaries();
                    }
                }
            }
            assert!(peak > 4_096, "{peak}");
            let rules_seen = pair.rules_seen;
            assert!(
                rules_seen[DequeueRule::MinRank as usize] > 1_000,
                "{config:?} {rules_seen:?}"
            );
        }
    }

    /// A queued op from the scheduler micro-benchmark's mix: demands are a
    /// fixed function of `i`, and op `i` is request `i`.
    fn synthetic_op(i: u64, now: SimTime) -> QueuedOp {
        let h = das_sim::rng::splitmix64(i);
        let local = SimDuration::from_micros(100 + h % 4_900);
        let bottleneck = local + SimDuration::from_micros((h >> 32) % 5_000);
        QueuedOp {
            tag: OpTag {
                op: OpId {
                    request: RequestId(i),
                    index: 0,
                },
                request_arrival: now,
                fanout: 1 + (h % 8) as u32,
                local_estimate: local,
                bottleneck_eta: now + bottleneck,
                bottleneck_demand: bottleneck,
            },
            local_estimate: local,
            enqueued_at: now,
        }
    }

    #[test]
    fn pruning_ranks_and_hints_a_fraction_of_a_deep_queue() {
        const DEPTH: u64 = 4_096;
        const ROUNDS: u64 = 1_000;
        // Enqueue + dequeue pairs, one new op per microsecond, with the
        // queue held at DEPTH.
        let mut das = Das::default();
        let mut now = SimTime::ZERO;
        for i in 0..DEPTH - 1 {
            das.enqueue(synthetic_op(i, now), now);
        }
        for i in DEPTH - 1..DEPTH - 1 + ROUNDS {
            now += SimDuration::from_micros(1);
            das.enqueue(synthetic_op(i, now), now);
            let (_, d) = das.dequeue(now).unwrap();
            assert_eq!(d.rule, DequeueRule::MinRank);
        }
        let ranked = das.ranked / ROUNDS;
        assert!(
            ranked <= 512,
            "{ranked} ops ranked per dequeue at depth {DEPTH}"
        );
        // Hints against a full queue, each for one queued request.
        let mut das = Das::default();
        let now = SimTime::from_millis(1);
        for i in 0..DEPTH {
            das.enqueue(synthetic_op(i, now), now);
        }
        for i in 1..=ROUNDS {
            let eta = 1_000 + 100 + i % 1_000;
            das.on_hint(RequestId(i % DEPTH), hint(eta, 100 + i % 1_000), now);
        }
        let examined = das.examined / ROUNDS;
        assert!(
            examined <= 128,
            "{examined} ops examined per hint at depth {DEPTH}"
        );
    }

    #[test]
    fn work_accounting() {
        let mut s = Das::default();
        let now = SimTime::ZERO;
        s.enqueue(op(1, 100, 100, 0), now);
        s.enqueue(op(2, 200, 200, 0), now);
        assert_eq!(s.queued_work(), SimDuration::from_micros(300));
        assert_eq!(s.len(), 2);
        s.dequeue(now);
        s.dequeue(now);
        assert!(s.is_empty());
        assert_eq!(s.queued_work(), SimDuration::ZERO);
        assert!(s.dequeue(now).is_none());
    }
}
