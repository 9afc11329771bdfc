//! Heap allocations of sequential Monte-Carlo walks, pinned from above.
//!
//! Every walk starts at the root configuration ∅, whose grounding is the
//! same for all of them. Grounding it once per estimate and starting each
//! walk from an O(1) clone of the frozen snapshot saves every walk the
//! root's saturation, which was most of a short walk's allocations. This
//! binary installs a counting global allocator that counts only while the
//! calling test thread has switched it on, so the harness's other test
//! threads do not disturb a count, and the estimate runs sequentially on
//! that thread (no executor). A warm-up estimate first interns every
//! symbol, so the counted estimate allocates for sampling only. The counts
//! are deterministic; each bound is the count measured with the shared
//! root plus 10 % headroom, and each sits below the count before it (every
//! walk grounding ∅ from scratch), for 200 walks. On the network ring the
//! root is most of a walk; a chain-game walk takes up to six steps below a
//! small root, so the steps keep most of its allocations:
//!
//! | workload          | before | measured | bound  |
//! |-------------------|--------|----------|--------|
//! | `network_ring_n5` | 83,517 | 17,711   | 19,500 |
//! | `chain_game_n6`   | 86,237 | 63,159   | 69,500 |

use gdlog::core::{network_resilience_program, Grounder, MonteCarlo, SigmaPi, SimpleGrounder};
use gdlog_bench::workloads::{chain_game, network_database, Topology};
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

/// Walks per counted estimate.
const WALKS: usize = 200;

/// Allocations (including reallocations) of one sequential estimate of
/// [`WALKS`] walks over `grounder`, after a warm-up estimate.
fn mc_allocations(grounder: &dyn Grounder) -> u64 {
    let run = || {
        MonteCarlo::new(grounder, 64, 7).estimate(WALKS, |outcome| outcome.choice_count() % 2 == 0)
    };
    let warm = run().unwrap();
    COUNT.with(|count| count.set(0));
    COUNTING.with(|on| on.set(true));
    let counted = run();
    COUNTING.with(|on| on.set(false));
    let counted = counted.unwrap();
    assert_eq!(counted.estimate.mean, warm.estimate.mean);
    assert_eq!(counted.abandoned, 0);
    COUNT.with(Cell::get)
}

fn assert_at_most(name: &str, count: u64, bound: u64) {
    eprintln!("{name}: {count} allocations in {WALKS} walks (bound {bound})");
    assert!(
        count <= bound,
        "{name}: {WALKS} walks made {count} allocations, more than the pinned {bound}"
    );
}

#[test]
fn network_ring_n5_walk_allocations_stay_bounded() {
    let db = network_database(5, Topology::Ring);
    let sigma = SigmaPi::translate(&network_resilience_program(0.1), &db).unwrap();
    let grounder = SimpleGrounder::new(Arc::new(sigma));
    assert_at_most("network_ring_n5", mc_allocations(&grounder), 19_500);
}

#[test]
fn chain_game_n6_walk_allocations_stay_bounded() {
    let (program, db) = chain_game(6, 0.5);
    let grounder = SimpleGrounder::new(Arc::new(SigmaPi::translate(&program, &db).unwrap()));
    assert_at_most("chain_game_n6", mc_allocations(&grounder), 69_500);
}
