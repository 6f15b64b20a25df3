//! Offered-load arithmetic: translating between arrival rates and
//! per-server utilization so experiments can sweep load ρ directly.

use das_store::config::ClusterConfig;
use das_workload::generator::WorkloadSpec;

/// Expected seconds of *server* work one request injects into the cluster
/// ([`WorkloadSpec::work_per_request_secs`] at its overhead and rate).
pub fn work_per_request_secs(workload: &WorkloadSpec, cluster: &ClusterConfig) -> f64 {
    workload.work_per_request_secs(
        cluster.per_op_overhead.as_secs_f64(),
        cluster.base_rate_bytes_per_sec,
    )
}

/// The per-server utilization `rho` produced by `rate` requests/second.
pub fn offered_load(rate: f64, workload: &WorkloadSpec, cluster: &ClusterConfig) -> f64 {
    rate * work_per_request_secs(workload, cluster)
        / (cluster.servers as f64 * cluster.workers_per_server as f64)
}

/// The arrival rate (requests/second) that produces per-server utilization
/// `rho`.
///
/// # Panics
/// Panics unless `0 < rho < 2` (loads ≥ 1 are unstable but deliberately
/// used by the overload experiments, which sweep past saturation).
pub fn arrival_rate_for_load(rho: f64, workload: &WorkloadSpec, cluster: &ClusterConfig) -> f64 {
    assert!(rho > 0.0 && rho < 2.0, "rho = {rho} out of range");
    rho * cluster.servers as f64 * cluster.workers_per_server as f64
        / work_per_request_secs(workload, cluster)
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_workload::spec::{ArrivalConfig, FanoutConfig, PopularityConfig, SizeConfig};

    fn simple_workload() -> WorkloadSpec {
        WorkloadSpec {
            n_keys: 1000,
            arrival: ArrivalConfig::Poisson { rate: 1.0 },
            fanout: FanoutConfig::Constant { keys: 4 },
            sizes: SizeConfig::Fixed { bytes: 100_000 },
            popularity: PopularityConfig::Uniform,
            hot_key_size_cap: None,
            write_fraction: 0.0,
        }
    }

    #[test]
    fn work_per_request_closed_form() {
        let w = simple_workload();
        let c = ClusterConfig::default(); // 5us overhead, 1e9 B/s
        let expect = 4.0 * 5e-6 + 400_000.0 / 1e9;
        assert!((work_per_request_secs(&w, &c) - expect).abs() < 1e-12);
    }

    #[test]
    fn load_and_rate_are_inverses() {
        let w = simple_workload();
        let c = ClusterConfig::default();
        for rho in [0.1, 0.5, 0.9] {
            let rate = arrival_rate_for_load(rho, &w, &c);
            let back = offered_load(rate, &w, &c);
            assert!((back - rho).abs() < 1e-9, "rho {rho} -> {back}");
        }
    }

    #[test]
    fn more_servers_allow_more_rate() {
        let w = simple_workload();
        let small = ClusterConfig {
            servers: 10,
            ..Default::default()
        };
        let big = ClusterConfig {
            servers: 100,
            ..Default::default()
        };
        assert!(
            arrival_rate_for_load(0.5, &w, &big) > arrival_rate_for_load(0.5, &w, &small) * 9.0
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn absurd_load_rejected() {
        let _ = arrival_rate_for_load(2.0, &simple_workload(), &ClusterConfig::default());
    }
}
