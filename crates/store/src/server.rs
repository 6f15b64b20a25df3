//! The simulated storage server: a scheduler-fronted service station with
//! one or more workers and a (possibly time-varying) service rate.

use das_sched::scheduler::{DequeueDecision, Scheduler};
use das_sched::types::{OpId, QueuedOp, ServerId};
use das_sim::time::{SimDuration, SimTime};

/// One op currently occupying a worker.
#[derive(Debug, Clone, Copy)]
pub struct InServiceOp {
    /// The op being served.
    pub op: OpId,
    /// When service completes.
    pub end: SimTime,
    /// When service started (for partial-work accounting on a crash).
    pub started: SimTime,
    /// Whether completing this entry releases its worker. True for every
    /// ordinary op; inside a coalesced batch only the entry with the
    /// latest end holds the worker (the earlier members ride along).
    pub frees_worker: bool,
}

/// One storage server.
pub struct Server {
    id: ServerId,
    scheduler: Box<dyn Scheduler>,
    workers: u32,
    busy_workers: u32,
    /// Ops currently in service (for exact backlog and crash accounting).
    in_service: Vec<InServiceOp>,
    /// Accumulated busy time across all workers.
    busy_time: SimDuration,
    ops_served: u64,
    bytes_served: u64,
    /// False while crash-stopped.
    up: bool,
    /// Bumped on every crash; stale service completions carry the old
    /// value and are discarded by the engine.
    incarnation: u64,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("id", &self.id)
            .field("queue_len", &self.scheduler.len())
            .field("busy_workers", &self.busy_workers)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Creates a server with `workers` service slots fronted by
    /// `scheduler`.
    pub fn new(id: ServerId, scheduler: Box<dyn Scheduler>, workers: u32) -> Self {
        assert!(workers >= 1);
        Server {
            id,
            scheduler,
            workers,
            busy_workers: 0,
            in_service: Vec::new(),
            busy_time: SimDuration::ZERO,
            ops_served: 0,
            bytes_served: 0,
            up: true,
            incarnation: 0,
        }
    }

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Queued (not yet serving) operations.
    pub fn queue_len(&self) -> usize {
        self.scheduler.len()
    }

    /// True if a worker is free.
    pub fn has_idle_worker(&self) -> bool {
        self.busy_workers < self.workers
    }

    /// Adds an op to the wait queue.
    pub fn enqueue(&mut self, op: QueuedOp, now: SimTime) {
        self.scheduler.enqueue(op, now);
    }

    /// Delivers a progress hint to the scheduler.
    pub fn hint(
        &mut self,
        request: das_sched::types::RequestId,
        update: das_sched::types::HintUpdate,
        now: SimTime,
    ) {
        self.scheduler.on_hint(request, update, now);
    }

    /// If a worker is idle and the queue is non-empty, starts service on the
    /// scheduler's pick and returns it with its completion instant
    /// (`now + service`) and the scheduler's decision (which rule picked
    /// it, from where). The caller supplies the true service time.
    pub fn try_start_service(
        &mut self,
        now: SimTime,
        service_of: impl FnOnce(&QueuedOp) -> SimDuration,
    ) -> Option<(QueuedOp, SimTime, DequeueDecision)> {
        if !self.has_idle_worker() {
            return None;
        }
        let (op, decision) = self.scheduler.dequeue(now)?;
        let service = service_of(&op);
        let end = now + service;
        self.busy_workers += 1;
        self.in_service.push(InServiceOp {
            op: op.tag.op,
            end,
            started: now,
            frees_worker: true,
        });
        self.busy_time += service;
        Some((op, end, decision))
    }

    /// Dequeues the scheduler's next pick *without* occupying a worker —
    /// the op will ride an already-busy worker as a batch follower. The
    /// caller must follow up with [`Server::attach_batch_follower`].
    pub fn dequeue_batch_follower(&mut self, now: SimTime) -> Option<QueuedOp> {
        self.scheduler.dequeue(now).map(|(op, _)| op)
    }

    /// Books `op` onto the worker already occupied by the visit whose last
    /// entry ends at `prev_end`: that entry stops holding the worker and
    /// this one (ending at `end`, strictly later) takes over. Service for
    /// the follower occupies the worker over `[prev_end, end)`.
    pub fn attach_batch_follower(&mut self, op: OpId, prev_end: SimTime, end: SimTime) {
        debug_assert!(end > prev_end, "batch follower must end strictly later");
        if let Some(e) = self.in_service.iter_mut().find(|e| e.end == prev_end) {
            e.frees_worker = false;
        }
        self.in_service.push(InServiceOp {
            op,
            end,
            started: prev_end,
            frees_worker: true,
        });
        self.busy_time += end.saturating_since(prev_end);
    }

    /// Marks the op that completes at `end` as done, freeing its worker —
    /// unless the entry is a non-final batch member, whose worker stays
    /// held by the rest of the visit.
    pub fn complete_service(&mut self, end: SimTime, bytes: u64) {
        debug_assert!(self.busy_workers > 0);
        let frees = match self.in_service.iter().position(|e| e.end == end) {
            Some(pos) => self.in_service.swap_remove(pos).frees_worker,
            None => true,
        };
        if frees {
            self.busy_workers = self.busy_workers.saturating_sub(1);
        }
        self.ops_served += 1;
        self.bytes_served += bytes;
    }

    /// Crash-stops the server at `now`: every queued op is drained, every
    /// in-service op is cut short, all workers free, and the incarnation
    /// counter advances so stale completion events can be recognized.
    /// Returns the dropped work for the coordinator's recovery bookkeeping.
    /// Busy-time accounting keeps only the service actually performed
    /// before the crash.
    pub fn crash(&mut self, now: SimTime) -> (Vec<QueuedOp>, Vec<InServiceOp>) {
        self.up = false;
        self.incarnation += 1;
        let queued = self.scheduler.drain(now);
        let in_service = std::mem::take(&mut self.in_service);
        for e in &in_service {
            // Work not yet performed: for batch followers whose slice has
            // not started, that's the whole slice, not `end - now`.
            let undone = e.end.saturating_since(now).min(e.end.saturating_since(e.started));
            self.busy_time = self.busy_time.saturating_sub(undone);
        }
        self.busy_workers = 0;
        (queued, in_service)
    }

    /// Brings a crashed server back, empty.
    pub fn recover(&mut self) {
        self.up = true;
    }

    /// False while crash-stopped.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Crash count; completion events stamped with an older incarnation
    /// refer to work that died with a previous life of this server.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Expected seconds of work at this server as of `now`: remaining
    /// in-service time plus the scheduler's queued work estimate. This is
    /// what the server piggybacks on responses.
    pub fn backlog_secs(&self, now: SimTime) -> f64 {
        let in_service: f64 = self
            .in_service
            .iter()
            // A batch follower's slice starts at its predecessor's end;
            // counting `end - now` for it would double-bill the shared
            // worker. The min is `end - now` for every ordinary entry.
            .map(|e| {
                e.end
                    .saturating_since(now)
                    .min(e.end.saturating_since(e.started))
                    .as_secs_f64()
            })
            .sum();
        in_service + self.scheduler.queued_work().as_secs_f64()
    }

    /// Whether the scheduler consumes progress hints.
    pub fn wants_hints(&self) -> bool {
        self.scheduler.wants_hints()
    }

    /// Whether the scheduler benefits from piggybacked reports.
    pub fn wants_piggyback(&self) -> bool {
        self.scheduler.wants_piggyback()
    }

    /// Metadata bytes this server's policy attaches per op.
    pub fn metadata_bytes(&self) -> u64 {
        self.scheduler.metadata_bytes()
    }

    /// The policy's display name.
    pub fn policy_name(&self) -> &'static str {
        self.scheduler.name()
    }

    /// Total busy time accumulated.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Operations served to completion.
    pub fn ops_served(&self) -> u64 {
        self.ops_served
    }

    /// Bytes served to completion.
    pub fn bytes_served(&self) -> u64 {
        self.bytes_served
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_sched::policy::PolicyKind;
    use das_sched::types::{OpId, OpTag, RequestId};

    fn op(req: u64, est_us: u64) -> QueuedOp {
        let now = SimTime::ZERO;
        QueuedOp {
            tag: OpTag {
                op: OpId {
                    request: RequestId(req),
                    index: 0,
                },
                request_arrival: now,
                fanout: 1,
                local_estimate: SimDuration::from_micros(est_us),
                bottleneck_eta: now + SimDuration::from_micros(est_us),
                bottleneck_demand: SimDuration::from_micros(est_us),
            },
            local_estimate: SimDuration::from_micros(est_us),
            enqueued_at: now,
        }
    }

    fn server(workers: u32) -> Server {
        Server::new(ServerId(0), PolicyKind::Fcfs.build(), workers)
    }

    #[test]
    fn single_worker_serializes() {
        let mut s = server(1);
        let now = SimTime::ZERO;
        s.enqueue(op(1, 100), now);
        s.enqueue(op(2, 100), now);
        let (first, end1, d) = s
            .try_start_service(now, |_| SimDuration::from_micros(100))
            .unwrap();
        assert_eq!(first.tag.op.request, RequestId(1));
        assert_eq!(end1, SimTime::from_micros(100));
        // The scheduler's decision rides along: FCFS head of a 2-deep queue.
        assert_eq!(d.rule, das_sched::scheduler::DequeueRule::PolicyOrder);
        assert_eq!(d.queue_len, 2);
        // Worker busy: second op must wait.
        assert!(s.try_start_service(now, |_| SimDuration::ZERO).is_none());
        s.complete_service(end1, 50);
        let (second, _, _) = s
            .try_start_service(end1, |_| SimDuration::from_micros(100))
            .unwrap();
        assert_eq!(second.tag.op.request, RequestId(2));
        assert_eq!(s.ops_served(), 1);
        assert_eq!(s.bytes_served(), 50);
    }

    #[test]
    fn multiple_workers_run_concurrently() {
        let mut s = server(2);
        let now = SimTime::ZERO;
        s.enqueue(op(1, 100), now);
        s.enqueue(op(2, 100), now);
        s.enqueue(op(3, 100), now);
        assert!(s
            .try_start_service(now, |_| SimDuration::from_micros(100))
            .is_some());
        assert!(s
            .try_start_service(now, |_| SimDuration::from_micros(200))
            .is_some());
        assert!(!s.has_idle_worker());
        assert!(s.try_start_service(now, |_| SimDuration::ZERO).is_none());
        assert_eq!(s.queue_len(), 1);
    }

    #[test]
    fn backlog_counts_queue_and_in_service() {
        let mut s = server(1);
        let now = SimTime::ZERO;
        s.enqueue(op(1, 100), now);
        s.enqueue(op(2, 300), now);
        let (_, end, _) = s
            .try_start_service(now, |_| SimDuration::from_micros(100))
            .unwrap();
        // In service: 100us remaining; queued: 300us estimate.
        let b = s.backlog_secs(now);
        assert!((b - 400e-6).abs() < 1e-9, "backlog = {b}");
        // Halfway through service the in-service part shrinks.
        let b2 = s.backlog_secs(SimTime::from_micros(50));
        assert!((b2 - 350e-6).abs() < 1e-9, "backlog = {b2}");
        s.complete_service(end, 1);
        let b3 = s.backlog_secs(end);
        assert!((b3 - 300e-6).abs() < 1e-9, "backlog = {b3}");
    }

    #[test]
    fn busy_time_accumulates() {
        let mut s = server(1);
        let now = SimTime::ZERO;
        s.enqueue(op(1, 100), now);
        let (_, end, _) = s
            .try_start_service(now, |_| SimDuration::from_micros(100))
            .unwrap();
        s.complete_service(end, 1);
        assert_eq!(s.busy_time(), SimDuration::from_micros(100));
    }

    #[test]
    fn crash_drops_everything_and_advances_incarnation() {
        let mut s = server(1);
        let now = SimTime::ZERO;
        assert!(s.is_up());
        assert_eq!(s.incarnation(), 0);
        s.enqueue(op(1, 100), now);
        s.enqueue(op(2, 100), now);
        let (_, _end, _) = s
            .try_start_service(now, |_| SimDuration::from_micros(100))
            .unwrap();
        // Crash halfway through service: 50us of real work was done.
        let crash_at = SimTime::from_micros(50);
        let (queued, in_service) = s.crash(crash_at);
        assert_eq!(queued.len(), 1);
        assert_eq!(queued[0].tag.op.request, RequestId(2));
        assert_eq!(in_service.len(), 1);
        assert_eq!(in_service[0].op.request, RequestId(1));
        assert_eq!(in_service[0].started, now);
        assert!(!s.is_up());
        assert_eq!(s.incarnation(), 1);
        assert_eq!(s.queue_len(), 0);
        assert!(s.has_idle_worker());
        assert_eq!(s.busy_time(), SimDuration::from_micros(50));
        assert_eq!(s.backlog_secs(crash_at), 0.0);
        // Recovery brings it back, empty and serving.
        s.recover();
        assert!(s.is_up());
        s.enqueue(op(3, 100), crash_at);
        assert!(s
            .try_start_service(crash_at, |_| SimDuration::from_micros(10))
            .is_some());
    }

    #[test]
    fn batch_visit_holds_one_worker_until_last_member() {
        let mut s = server(1);
        let now = SimTime::ZERO;
        s.enqueue(op(1, 100), now);
        s.enqueue(op(2, 100), now);
        s.enqueue(op(3, 100), now);
        let (leader, end1, _) = s
            .try_start_service(now, |_| SimDuration::from_micros(100))
            .unwrap();
        assert_eq!(leader.tag.op.request, RequestId(1));
        // Coalesce op 2 onto the same worker.
        let follower = s.dequeue_batch_follower(now).unwrap();
        assert_eq!(follower.tag.op.request, RequestId(2));
        let end2 = end1 + SimDuration::from_micros(30);
        s.attach_batch_follower(follower.tag.op, end1, end2);
        // Still the only worker, still busy; op 3 keeps waiting.
        assert!(!s.has_idle_worker());
        assert_eq!(s.queue_len(), 1);
        // Backlog counts the visit once, not per member.
        let b = s.backlog_secs(now);
        assert!((b - 230e-6).abs() < 1e-9, "backlog = {b}");
        // Leader completes: worker stays held by the follower.
        s.complete_service(end1, 10);
        assert!(!s.has_idle_worker());
        // Last member completes: worker frees.
        s.complete_service(end2, 10);
        assert!(s.has_idle_worker());
        assert_eq!(s.ops_served(), 2);
        assert_eq!(s.busy_time(), SimDuration::from_micros(130));
    }

    #[test]
    fn crash_mid_batch_keeps_only_performed_work() {
        let mut s = server(1);
        let now = SimTime::ZERO;
        s.enqueue(op(1, 100), now);
        s.enqueue(op(2, 100), now);
        let (_, end1, _) = s
            .try_start_service(now, |_| SimDuration::from_micros(100))
            .unwrap();
        let f = s.dequeue_batch_follower(now).unwrap();
        let end2 = end1 + SimDuration::from_micros(40);
        s.attach_batch_follower(f.tag.op, end1, end2);
        // Crash halfway through the leader's slice: only 50us was real.
        let (_, in_service) = s.crash(SimTime::from_micros(50));
        assert_eq!(in_service.len(), 2);
        assert_eq!(s.busy_time(), SimDuration::from_micros(50));
    }

    #[test]
    fn policy_properties_pass_through() {
        let fcfs = server(1);
        assert_eq!(fcfs.policy_name(), "FCFS");
        assert!(!fcfs.wants_hints());
        let das = Server::new(ServerId(1), PolicyKind::das().build(), 1);
        assert!(das.wants_hints());
        assert!(das.wants_piggyback());
        assert!(das.metadata_bytes() > 0);
        assert_eq!(das.id(), ServerId(1));
    }
}
