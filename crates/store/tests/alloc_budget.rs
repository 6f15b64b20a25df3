//! The clean dispatch → queue → serve → reply path allocates nothing per
//! request in steady state: every fan-out buffer is reused and the
//! in-flight tables are flat. This is the noise-free regression gate for
//! that property — an allocation count, exact for a given input, not a
//! timing.
//!
//! The file holds exactly one test: the counter is process-wide, and a
//! second test running on another harness thread would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use das_sched::policy::PolicyKind;
use das_sim::time::SimTime;
use das_store::config::SimulationConfig;
use das_store::engine::{run_simulation, KeyRead, StoreRequest};

/// Allocator calls (alloc, alloc_zeroed, realloc) since process start. A
/// statistic that publishes no other data, hence `Relaxed`.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping is one atomic add and
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's layout is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's layout is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: `ptr`/`layout` come from a previous call into `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Eight-key multi-gets, one per simulated microsecond: ~30 % utilisation
/// of 256 servers, so queues stay shallow and the run is in steady state
/// after the first few hundred requests.
fn requests(n: u64) -> Vec<StoreRequest> {
    (0..n)
        .map(|i| StoreRequest {
            id: i,
            arrival: SimTime::from_micros(i),
            reads: (0..8u64)
                .map(|k| KeyRead::read(i * 37 + k * 101, 4096))
                .collect(),
        })
        .collect()
}

/// Allocator calls inside one `run_simulation` over a borrowed input (so
/// neither building nor dropping the input is counted).
fn allocs_of_run(config: &SimulationConfig, input: &[StoreRequest]) -> u64 {
    let before = ALLOCS.load(Relaxed);
    let result = run_simulation(config, input).expect("valid config and input");
    let allocs = ALLOCS.load(Relaxed) - before;
    assert_eq!(result.completed, input.len() as u64);
    assert_eq!(result.measured, input.len() as u64);
    allocs
}

#[test]
fn clean_path_allocates_nothing_per_request_in_steady_state() {
    const N: usize = 4000;
    let input = requests(2 * N as u64);
    for policy in [PolicyKind::Fcfs, PolicyKind::ReinSbf, PolicyKind::das()] {
        let mut config = SimulationConfig::new(policy, 1.0);
        config.cluster.servers = 256;
        config.warmup_secs = 0.0;
        let short = allocs_of_run(&config, &input[..N]);
        let long = allocs_of_run(&config, &input);
        // Set-up (servers, ring, tables growing to the in-flight peak) is
        // paid by both runs; what the second N requests add is the
        // per-request cost. Before the buffers were reused it was ~13.
        let per_request = (long as f64 - short as f64) / N as f64;
        assert!(
            per_request <= 0.5,
            "{}: {per_request:.2} allocations per request ({short} for {N} requests, {long} for {})",
            config.policy.name(),
            2 * N,
        );
    }
}
