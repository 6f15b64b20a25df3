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
}

/// The Distributed Adaptive Scheduler. See the module docs for the ranking
/// rule.
#[derive(Debug)]
pub struct Das {
    config: DasConfig,
    /// Waiting ops in arrival order: index 0 is the oldest, and an op's
    /// index is the number of older ops still queued.
    queue: Vec<QueuedOp>,
    queued_work: SimDuration,
    /// EWMA of the waits of dispatched ops.
    wait_ewma: das_sim::stats::Ewma,
    /// EWMA of the local demands of dispatched ops.
    demand_ewma: das_sim::stats::Ewma,
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
            queued_work: SimDuration::ZERO,
            wait_ewma: das_sim::stats::Ewma::new(0.02),
            demand_ewma: das_sim::stats::Ewma::new(0.02),
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
        match self.wait_ewma.value() {
            Some(avg) if avg > 0.0 => {
                op.wait_at(now).as_secs_f64() > self.config.starvation_factor * avg
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
        match (self.demand_ewma.value(), self.wait_ewma.value()) {
            (Some(d), Some(w)) if w > 0.0 => self.config.aging * (d / w).min(1.0),
            _ => self.config.aging,
        }
    }

    /// Picks the next op to serve: its index in `queue` (= its arrival
    /// position) plus the rule that chose it.
    fn select(&self, now: SimTime) -> Option<(usize, DequeueRule)> {
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
        // Scan for the minimum rank (lower = served first); the rank
        // is max(local, remaining bottleneck demand) − slope · wait,
        // with `bottleneck_demand` kept current by progress hints.
        let slope = self.aging_slope();
        let mut best = 0usize;
        let mut best_rank = f64::INFINITY;
        for (i, op) in self.queue.iter().enumerate() {
            let local = op.local_estimate.as_secs_f64();
            let remaining = if self.config.use_remaining_bottleneck {
                local.max(op.tag.bottleneck_demand.as_secs_f64())
            } else {
                local
            };
            let r = remaining - slope * op.wait_at(now).as_secs_f64();
            // Strictly smaller only: the scan runs in arrival order, so
            // exact ties stay with the earliest arrival (an epsilon would
            // make the dequeue order depend on unrelated float noise).
            if r.total_cmp(&best_rank) == std::cmp::Ordering::Less {
                best = i;
                best_rank = r;
            }
        }
        Some((best, DequeueRule::MinRank))
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
    }

    fn dequeue(&mut self, now: SimTime) -> Option<(QueuedOp, DequeueDecision)> {
        let (idx, rule) = self.select(now)?;
        let decision = DequeueDecision {
            rule,
            position: idx as u32,
            queue_len: self.queue.len() as u32,
        };
        let op = self.queue.remove(idx);
        self.queued_work = self.queued_work.saturating_sub(op.local_estimate);
        self.wait_ewma.record(op.wait_at(now).as_secs_f64());
        self.demand_ewma.record(op.local_estimate.as_secs_f64());
        Some((op, decision))
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn on_hint(&mut self, request: RequestId, update: HintUpdate, _now: SimTime) {
        if !(self.config.adaptive || self.config.oracle) {
            return;
        }
        for op in &mut self.queue {
            if op.tag.op.request == request {
                op.tag.bottleneck_eta = update.bottleneck_eta;
                op.tag.bottleneck_demand = update.remaining_demand;
            }
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
    /// with the same float expression as [`Das::select`].
    struct Naive {
        config: DasConfig,
        shadow: Vec<QueuedOp>,
        wait: das_sim::stats::Ewma,
        demand: das_sim::stats::Ewma,
    }

    impl Naive {
        fn dequeue(&mut self, now: SimTime) -> Option<(QueuedOp, DequeueRule)> {
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
                local.max(o.tag.bottleneck_demand.as_secs_f64()) - slope * wait(o)
            };
            let (idx, rule) = if self.shadow.len() <= c.fcfs_fallback_len {
                (0, DequeueRule::FcfsFallback)
            } else if starving {
                (0, DequeueRule::StarvationGuard)
            } else {
                let by_rank_then_arrival = |a: &usize, b: &usize| {
                    rank(&self.shadow[*a])
                        .total_cmp(&rank(&self.shadow[*b]))
                        .then(a.cmp(b))
                };
                let idx = (0..self.shadow.len()).min_by(by_rank_then_arrival)?;
                (idx, DequeueRule::MinRank)
            };
            let o = self.shadow.remove(idx);
            self.wait.record(wait(&o));
            self.demand.record(o.local_estimate.as_secs_f64());
            Some((o, rule))
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
            let mut das = Das::new(config);
            let mut naive = Naive {
                config,
                shadow: Vec::new(),
                wait: das_sim::stats::Ewma::new(0.02),
                demand: das_sim::stats::Ewma::new(0.02),
            };
            let (mut now_us, mut arrivals, mut rules_seen) = (0u64, 0u64, [0u32; 4]);
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
                        let o = op(arrivals, local, bott, now_us);
                        das.enqueue(o, now);
                        naive.shadow.push(o);
                    }
                    9..=16 => {
                        let older_than = |picked: &QueuedOp| {
                            let is_older = |o: &&QueuedOp| o.tag.op.request < picked.tag.op.request;
                            naive.shadow.iter().filter(is_older).count() as u32
                        };
                        let got = das.dequeue(now);
                        let position = got.as_ref().map(|(o, _)| older_than(o));
                        let queue_len = naive.shadow.len() as u32;
                        let want = naive.dequeue(now);
                        assert_eq!(got.is_some(), want.is_some(), "step {step}");
                        if let (Some((g, d)), Some((w, rule))) = (got, want) {
                            assert_eq!(g.tag.op, w.tag.op, "step {step} config {config:?}");
                            assert_eq!(d.rule, rule, "step {step}");
                            assert_eq!(Some(d.position), position, "step {step}");
                            assert_eq!(d.queue_len, queue_len, "step {step}");
                            rules_seen[rule as usize] += 1;
                        }
                    }
                    _ => {
                        let request = RequestId(1 + rng.next_u64() % arrivals.max(1));
                        let update = hint(now_us, [5, 30, 200][(rng.next_u64() % 3) as usize]);
                        das.on_hint(request, update, now);
                        for o in &mut naive.shadow {
                            if o.tag.op.request == request {
                                o.tag.bottleneck_eta = update.bottleneck_eta;
                                o.tag.bottleneck_demand = update.remaining_demand;
                            }
                        }
                    }
                }
            }
            assert_eq!(das.len(), naive.shadow.len());
            assert!(
                rules_seen[DequeueRule::MinRank as usize] > 500,
                "{rules_seen:?}"
            );
        }
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
