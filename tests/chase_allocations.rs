//! Heap allocations of the sequential chase, pinned from above.
//!
//! A chase node's own work is small: on the network ring each node adds
//! about one ground rule. What it costs is per-node overhead, and most of
//! that overhead was allocation: a deep copy of the parent's choices per
//! child, a substitution map per join candidate, every instantiated atom
//! built twice. This binary installs a counting global allocator that
//! counts only while the calling test thread has switched it on, so the
//! harness's other test threads do not disturb a count, and the chase runs
//! sequentially on that thread ([`enumerate_outcomes`]). A warm-up chase
//! first interns every symbol, so the counted chase allocates for chasing
//! only. The counts are deterministic; each bound is the count measured
//! with compiled join plans and shared choices plus 10 % headroom, and
//! each sits below 60 % of the count before them (the substitution-based
//! matcher and deep-copied choice sets). The network ring's head set meets
//! repeated heads, and since a rule's head is cloned into it only when new,
//! its count and bound are those of that change:
//!
//! | workload             | before  | measured | bound  |
//! |----------------------|---------|----------|--------|
//! | `network_ring_n5`    | 41,437  | 15,248   | 16,800 |
//! | `dime_quarter_d9_q2` | 113,379 | 46,890   | 51,500 |
//! | `chain_game_n6`      | 12,916  | 5,817    | 6,400  |

use gdlog::core::{
    enumerate_outcomes, network_resilience_program, ChaseBudget, Grounder, PerfectGrounder,
    SigmaPi, SimpleGrounder, TriggerOrder,
};
use gdlog_bench::workloads::{chain_game, dime_quarter_workload, network_database, Topology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            COUNT.with(|count| count.set(count.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (including reallocations) of one sequential chase over
/// `grounder`, after a warm-up chase.
fn chase_allocations(grounder: &dyn Grounder) -> u64 {
    let run = || enumerate_outcomes(grounder, &ChaseBudget::default(), TriggerOrder::First);
    let warm = run().unwrap();
    COUNT.with(|count| count.set(0));
    COUNTING.with(|on| on.set(true));
    let counted = run();
    COUNTING.with(|on| on.set(false));
    let counted = counted.unwrap();
    assert_eq!(counted.outcomes.len(), warm.outcomes.len());
    COUNT.with(Cell::get)
}

fn sigma(program: &gdlog::core::Program, db: &gdlog::data::Database) -> Arc<SigmaPi> {
    Arc::new(SigmaPi::translate(program, db).unwrap())
}

fn assert_at_most(name: &str, count: u64, bound: u64) {
    eprintln!("{name}: {count} chase allocations (bound {bound})");
    assert!(
        count <= bound,
        "{name}: the chase made {count} allocations, more than the pinned {bound}"
    );
}

#[test]
fn network_ring_n5_chase_allocations_stay_bounded() {
    let db = network_database(5, Topology::Ring);
    let grounder = SimpleGrounder::new(sigma(&network_resilience_program(0.1), &db));
    assert_at_most("network_ring_n5", chase_allocations(&grounder), 16_800);
}

#[test]
fn dime_quarter_d9_q2_chase_allocations_stay_bounded() {
    let (program, db) = dime_quarter_workload(9, 2);
    let grounder = PerfectGrounder::new(sigma(&program, &db)).unwrap();
    assert_at_most("dime_quarter_d9_q2", chase_allocations(&grounder), 51_500);
}

#[test]
fn chain_game_n6_chase_allocations_stay_bounded() {
    let (program, db) = chain_game(6, 0.5);
    let grounder = SimpleGrounder::new(sigma(&program, &db));
    assert_at_most("chain_game_n6", chase_allocations(&grounder), 6_400);
}
