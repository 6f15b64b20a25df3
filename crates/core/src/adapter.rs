//! Bridges workload traces — recorded or freshly generated — to the store
//! engine: resolves each request's key sizes into [`StoreRequest`]s.

use das_sim::rng::SeedFactory;
use das_store::engine::{KeyRead, StoreRequest};
use das_workload::generator::{RequestSpec, WorkloadSpec};
use das_workload::keyspace::KeySpace;

/// Converts a pre-recorded trace into store requests using sizes from a
/// key space built with the same spec/seed.
///
/// Requests are injected in the pinned replay order — ascending
/// `(arrival, id)`, see [`das_workload::trace::replay_order`] — so
/// equal-arrival ties always resolve to id order regardless of how the
/// trace file was laid out. For a trace that passed
/// [`das_workload::trace::validate_trace`] the reorder is a no-op and the
/// replayed stream is exactly the recorded one.
pub fn trace_to_requests(
    trace: &[RequestSpec],
    spec: &WorkloadSpec,
    seeds: &SeedFactory,
) -> Vec<StoreRequest> {
    let ks = KeySpace::with_hot_key_cap(
        spec.n_keys,
        &spec.sizes,
        &spec.popularity,
        spec.hot_key_size_cap,
        seeds,
    );
    resolve(trace, &ks)
}

/// The one `RequestSpec → StoreRequest` mapping: `trace` in replay order,
/// each key sized by `ks`.
pub(crate) fn resolve(trace: &[RequestSpec], ks: &KeySpace) -> Vec<StoreRequest> {
    let mut ordered: Vec<&RequestSpec> = trace.iter().collect();
    ordered.sort_by_key(|r| (r.arrival, r.id));
    ordered
        .iter()
        .map(|r| StoreRequest {
            id: r.id,
            arrival: r.arrival,
            reads: r
                .keys
                .iter()
                .map(|&key| KeyRead {
                    key,
                    bytes: ks.size_of(key),
                    write: r.write_keys.contains(&key),
                })
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use das_sim::time::SimTime;

    /// The example workload materialised the way every run does it:
    /// `record_workload`, then `trace_to_requests`.
    fn materialise(seed: u64, horizon_secs: f64) -> Vec<StoreRequest> {
        let mut e = ExperimentConfig::new("adapter", WorkloadSpec::example(), Default::default());
        e.seed = seed;
        e.horizon_secs = horizon_secs;
        trace_to_requests(&e.record_workload(), &e.workload, &SeedFactory::new(seed))
    }

    #[test]
    fn materialised_workload_is_bounded_and_deterministic() {
        let a = materialise(11, 0.05);
        assert_eq!(a, materialise(11, 0.05));
        assert!(!a.is_empty());
        assert!(a.iter().all(|r| r.arrival < SimTime::from_millis(50)));
        assert!(a.iter().all(|r| r.reads.iter().all(|k| k.bytes >= 1)));
    }

    #[test]
    fn sizes_match_keyspace() {
        // Same key always has the same size.
        let mut seen: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        for r in &materialise(12, 0.02) {
            for k in &r.reads {
                let prev = seen.insert(k.key, k.bytes);
                if let Some(p) = prev {
                    assert_eq!(p, k.bytes, "key {} changed size", k.key);
                }
            }
        }
    }

    #[test]
    fn trace_conversion_pins_equal_arrival_order() {
        let spec = WorkloadSpec::example();
        let seeds = SeedFactory::new(14);
        let t = SimTime::from_millis(3);
        let mk = |id| das_workload::generator::RequestSpec {
            id,
            arrival: t,
            keys: vec![id],
            write_keys: vec![],
        };
        // File order deliberately violates the id tie-break.
        let trace = vec![mk(4), mk(1), mk(3)];
        let reqs = trace_to_requests(&trace, &spec, &seeds);
        let ids: Vec<u64> = reqs.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![1, 3, 4]);
    }
}
