//! Coordinator-side state: per-server load/performance estimates (built
//! from piggybacked reports) and per-request progress tracking.
//!
//! This is the "distributed" half of DAS: the coordinator never queries
//! servers synchronously — everything it knows rides on responses it was
//! receiving anyway.

use das_sched::types::{RequestId, ServerId, ServerReport};
use das_sim::stats::Ewma;
use das_sim::time::{SimDuration, SimTime};

use crate::table::IdTable;

/// Smoothing factor for the coordinator's per-server rate estimate.
const RATE_EWMA_ALPHA: f64 = 0.3;

/// The coordinator's view of one server.
#[derive(Debug, Clone)]
pub struct ServerEstimate {
    /// EWMA of reported service rates, bytes/second.
    rate: Ewma,
    /// Nominal rate used before any report arrives.
    nominal_rate: f64,
    /// Backlog reported by the last piggybacked report, seconds.
    reported_backlog: f64,
    /// When that report was received.
    report_time: SimTime,
    /// Estimated service seconds of this coordinator's own in-flight
    /// (dispatched, not yet responded) ops at the server. Maintained for
    /// *every* policy — it is free local knowledge and drives replica
    /// selection, so client-side load balancing is identical across
    /// disciplines.
    outstanding: f64,
}

impl ServerEstimate {
    /// A fresh estimate assuming the nominal rate and an empty queue.
    pub fn new(nominal_rate: f64) -> Self {
        ServerEstimate {
            rate: Ewma::new(RATE_EWMA_ALPHA),
            nominal_rate,
            reported_backlog: 0.0,
            report_time: SimTime::ZERO,
            outstanding: 0.0,
        }
    }

    /// Current service-rate estimate, bytes/second.
    pub fn rate(&self) -> f64 {
        self.rate.value_or(self.nominal_rate)
    }

    /// Expected queueing delay at the server as of `now`: the larger of
    /// the last piggybacked backlog (drained at one second of work per
    /// second) and this coordinator's own outstanding work. `max` rather
    /// than a sum because the report already includes whatever of our
    /// outstanding work had reached the server when it was generated.
    pub fn wait_secs(&self, now: SimTime) -> f64 {
        let elapsed = now.saturating_since(self.report_time).as_secs_f64();
        (self.reported_backlog - elapsed)
            .max(0.0)
            .max(self.outstanding)
    }

    /// Folds in a piggybacked report received at `now`.
    pub fn absorb_report(&mut self, report: &ServerReport, now: SimTime) {
        self.rate.record(report.service_rate);
        self.reported_backlog = report.backlog_secs;
        self.report_time = now;
    }

    /// Charges an op the coordinator just dispatched to this server.
    pub fn charge_dispatch(&mut self, service_est_secs: f64) {
        self.outstanding += service_est_secs;
    }

    /// Releases a dispatched op's charge once its response arrives.
    pub fn complete_dispatch(&mut self, service_est_secs: f64) {
        self.outstanding = (self.outstanding - service_est_secs).max(0.0);
    }
}

/// One pending op of a tracked request.
#[derive(Debug, Clone, Copy)]
pub struct PendingOp {
    /// Where it was sent.
    pub server: ServerId,
    /// Estimated service-completion instant (dispatch-time estimate).
    pub eta: SimTime,
    /// Estimated service demand at its server.
    pub demand_est: SimDuration,
    /// Whether its response has arrived.
    pub done: bool,
}

/// Coordinator-side progress record for one in-flight request.
#[derive(Debug, Clone)]
pub struct RequestState {
    /// Arrival instant at the coordinator.
    pub arrival: SimTime,
    /// Per-op progress (one entry per target server).
    pub ops: Vec<PendingOp>,
    /// Current estimated bottleneck completion instant (max pending eta).
    pub bottleneck_eta: SimTime,
    /// Current largest estimated service demand among pending ops.
    pub bottleneck_demand: SimDuration,
    /// Zero-queueing ideal RCT (for slowdown and the lower bound).
    pub ideal: SimDuration,
    /// Whether this request falls inside the measurement window.
    pub measured: bool,
}

impl RequestState {
    /// Remaining (unresponded) op count.
    pub fn pending(&self) -> usize {
        self.ops.iter().filter(|o| !o.done).count()
    }

    /// Marks op `index` done and returns the new `(max eta, max demand)`
    /// over pending ops (`None` if the request is now complete).
    pub fn complete_op(&mut self, index: usize) -> Option<(SimTime, SimDuration)> {
        self.ops[index].done = true;
        let mut result: Option<(SimTime, SimDuration)> = None;
        for o in self.ops.iter().filter(|o| !o.done) {
            result = Some(match result {
                None => (o.eta, o.demand_est),
                Some((eta, demand)) => (eta.max(o.eta), demand.max(o.demand_est)),
            });
        }
        result
    }

    /// The servers still holding pending ops.
    pub fn pending_servers(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.ops.iter().filter(|o| !o.done).map(|o| o.server)
    }
}

/// The coordinator: server estimates plus the in-flight request table.
#[derive(Debug)]
pub struct Coordinator {
    estimates: Vec<ServerEstimate>,
    requests: IdTable<RequestId, RequestState>,
    /// Emptied `RequestState::ops` buffers of finished requests, handed to
    /// the next requests so tracking one allocates nothing in steady state.
    /// `free_ops[c]` holds the buffers with room for `2^c..2^(c+1)` ops: a
    /// buffer serves only fan-outs of its own class, so it never grows and
    /// a run's widest request does not size every buffer in the pool.
    free_ops: Vec<Vec<Vec<PendingOp>>>,
}

impl Coordinator {
    /// A coordinator for `servers` servers with the given nominal rate.
    pub fn new(servers: u32, nominal_rate: f64) -> Self {
        Coordinator {
            estimates: (0..servers)
                .map(|_| ServerEstimate::new(nominal_rate))
                .collect(),
            requests: IdTable::new(),
            free_ops: Vec::new(),
        }
    }

    /// The estimate for `server`.
    pub fn estimate(&self, server: ServerId) -> &ServerEstimate {
        &self.estimates[server.0 as usize]
    }

    /// Mutable estimate for `server`.
    pub fn estimate_mut(&mut self, server: ServerId) -> &mut ServerEstimate {
        &mut self.estimates[server.0 as usize]
    }

    /// Absorbs a piggybacked report.
    pub fn absorb_report(&mut self, report: &ServerReport, now: SimTime) {
        self.estimates[report.server.0 as usize].absorb_report(report, now);
    }

    /// Registers an in-flight request. False (and the earlier request's
    /// state is lost) when `id` was already being tracked.
    #[must_use]
    pub fn track(&mut self, id: RequestId, state: RequestState) -> bool {
        self.requests.insert(id, state).is_none()
    }

    /// Access a tracked request.
    pub fn request(&self, id: RequestId) -> Option<&RequestState> {
        self.requests.get(id)
    }

    /// Mutable access to a tracked request.
    pub fn request_mut(&mut self, id: RequestId) -> Option<&mut RequestState> {
        self.requests.get_mut(id)
    }

    /// Removes a completed request, returning its state.
    pub fn finish(&mut self, id: RequestId) -> Option<RequestState> {
        self.requests.remove(id)
    }

    /// An empty buffer with room for the `fanout` ops of the next tracked
    /// request: a recycled one when its size class has one.
    pub fn ops_buffer(&mut self, fanout: usize) -> Vec<PendingOp> {
        let room = fanout.next_power_of_two();
        self.free_ops
            .get_mut(room.ilog2() as usize)
            .and_then(Vec::pop)
            .unwrap_or_else(|| Vec::with_capacity(room))
    }

    /// Takes back the `ops` buffer of a finished request.
    pub fn recycle(&mut self, state: RequestState) {
        let mut ops = state.ops;
        if ops.capacity() == 0 {
            return;
        }
        ops.clear();
        let class = ops.capacity().ilog2() as usize;
        if self.free_ops.len() <= class {
            self.free_ops.resize_with(class + 1, Vec::new);
        }
        self.free_ops[class].push(ops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_defaults_to_nominal() {
        let e = ServerEstimate::new(1e9);
        assert_eq!(e.rate(), 1e9);
        assert_eq!(e.wait_secs(SimTime::from_secs(5)), 0.0);
    }

    #[test]
    fn report_updates_rate_and_backlog() {
        let mut e = ServerEstimate::new(1e9);
        let report = ServerReport {
            server: ServerId(0),
            backlog_secs: 0.010,
            service_rate: 5e8,
            queue_len: 7,
        };
        e.absorb_report(&report, SimTime::from_secs(1));
        assert!(e.rate() < 1e9);
        assert!((e.wait_secs(SimTime::from_secs(1)) - 0.010).abs() < 1e-12);
        // Backlog drains over time.
        let w = e.wait_secs(SimTime::from_secs(1) + SimDuration::from_millis(4));
        assert!((w - 0.006).abs() < 1e-9, "w = {w}");
        // And hits zero eventually.
        assert_eq!(e.wait_secs(SimTime::from_secs(2)), 0.0);
    }

    #[test]
    fn dispatches_add_to_wait_and_release_on_response() {
        let mut e = ServerEstimate::new(1e9);
        e.charge_dispatch(0.002);
        e.charge_dispatch(0.003);
        assert!((e.wait_secs(SimTime::ZERO) - 0.005).abs() < 1e-12);
        // A smaller report does not shrink the estimate below our own
        // outstanding work (max semantics)...
        e.absorb_report(
            &ServerReport {
                server: ServerId(0),
                backlog_secs: 0.001,
                service_rate: 1e9,
                queue_len: 1,
            },
            SimTime::from_secs(1),
        );
        assert!((e.wait_secs(SimTime::from_secs(1)) - 0.005).abs() < 1e-12);
        // ...a larger one does raise it...
        e.absorb_report(
            &ServerReport {
                server: ServerId(0),
                backlog_secs: 0.020,
                service_rate: 1e9,
                queue_len: 9,
            },
            SimTime::from_secs(1),
        );
        assert!((e.wait_secs(SimTime::from_secs(1)) - 0.020).abs() < 1e-12);
        // ...and responses release the outstanding charge.
        e.complete_dispatch(0.002);
        e.complete_dispatch(0.003);
        e.complete_dispatch(99.0); // over-release clamps at zero
                                   // With the outstanding charge gone and the report fully drained,
                                   // the wait estimate returns to zero.
        assert_eq!(e.wait_secs(SimTime::from_secs(2)), 0.0);
    }

    #[test]
    fn request_state_tracks_completion() {
        let mut st = RequestState {
            arrival: SimTime::ZERO,
            ops: vec![
                PendingOp {
                    server: ServerId(0),
                    eta: SimTime::from_micros(100),
                    demand_est: SimDuration::from_micros(80),
                    done: false,
                },
                PendingOp {
                    server: ServerId(1),
                    eta: SimTime::from_micros(500),
                    demand_est: SimDuration::from_micros(400),
                    done: false,
                },
            ],
            bottleneck_eta: SimTime::from_micros(500),
            bottleneck_demand: SimDuration::from_micros(400),
            ideal: SimDuration::from_micros(500),
            measured: true,
        };
        assert_eq!(st.pending(), 2);
        // Completing the bottleneck shrinks both the max eta and the max
        // remaining demand.
        let remaining = st.complete_op(1);
        assert_eq!(
            remaining,
            Some((SimTime::from_micros(100), SimDuration::from_micros(80)))
        );
        assert_eq!(st.pending_servers().collect::<Vec<_>>(), vec![ServerId(0)]);
        assert_eq!(st.complete_op(0), None);
        assert_eq!(st.pending(), 0);
    }

    #[test]
    fn recycled_ops_buffers_come_back_empty_and_roomy_enough() {
        let mut c = Coordinator::new(4, 1e9);
        let state = |ops: Vec<PendingOp>| RequestState {
            arrival: SimTime::ZERO,
            ops,
            bottleneck_eta: SimTime::ZERO,
            bottleneck_demand: SimDuration::ZERO,
            ideal: SimDuration::ZERO,
            measured: false,
        };
        let op = PendingOp {
            server: ServerId(0),
            eta: SimTime::ZERO,
            demand_est: SimDuration::ZERO,
            done: false,
        };
        let mut five = c.ops_buffer(5);
        assert!(five.is_empty() && five.capacity() >= 5);
        five.extend([op; 5]);
        let five_at = five.as_ptr();
        c.recycle(state(five));
        // A wider request does not take (and regrow) the five-op buffer...
        let nine = c.ops_buffer(9);
        assert!(nine.is_empty() && nine.capacity() >= 9);
        assert_ne!(nine.as_ptr(), five_at);
        // ...a request of its class gets it back, emptied.
        let again = c.ops_buffer(7);
        assert!(again.is_empty());
        assert_eq!(again.as_ptr(), five_at);
        // A state built without the pool is taken back too.
        c.recycle(state(Vec::new()));
        c.recycle(state(vec![op; 3]));
        assert_eq!(c.ops_buffer(2).capacity(), 3);
    }

    #[test]
    fn coordinator_tracks_requests() {
        let mut c = Coordinator::new(4, 1e9);
        let _ = c.track(
            RequestId(9),
            RequestState {
                arrival: SimTime::ZERO,
                ops: vec![PendingOp {
                    server: ServerId(2),
                    eta: SimTime::from_micros(10),
                    demand_est: SimDuration::from_micros(10),
                    done: false,
                }],
                bottleneck_eta: SimTime::from_micros(10),
                bottleneck_demand: SimDuration::from_micros(10),
                ideal: SimDuration::from_micros(10),
                measured: false,
            },
        );
        assert!(c.request(RequestId(9)).is_some());
        assert!(c.request_mut(RequestId(9)).is_some());
        let st = c.finish(RequestId(9)).unwrap();
        assert_eq!(st.ops.len(), 1);
        assert!(c.finish(RequestId(9)).is_none());
    }
}
