//! Heap allocations of keying a chase's outcomes, pinned from above.
//!
//! Keying turns each explored outcome into its event key, the set of its
//! stable models, over one atom table per solve
//! (`OutputSpace::from_chase_cancellable`). The perfect grounder decides
//! the one stable model of each of its outcomes (Definition 5.1), so its
//! outcomes are keyed from their heads: no body literal is encoded and no
//! outcome is searched. The simple grounder's outcomes are searched as
//! before. This binary installs a counting global allocator that counts
//! only while the calling test thread has switched it on, so the harness's
//! other test threads do not disturb a count, and keys one chase on that
//! thread. A warm-up keying first interns every symbol, and the chase is
//! cloned before counting starts, so the count covers keying only. The
//! counts are deterministic; each bound is the count measured with heads
//! keys plus 10 % headroom. On dimes and quarters (perfect grounder) the
//! count falls to 30 % of the searched one; the two simple-grounder
//! families keep their searched counts:
//!
//! | workload             | before | measured | bound  |
//! |----------------------|--------|----------|--------|
//! | `network_ring_n5`    | 13,918 | 13,918   | 15,300 |
//! | `dime_quarter_d9_q2` | 28,181 | 8,479    | 9,300  |
//! | `chain_game_n6`      | 12,027 | 12,027   | 13,300 |

use gdlog::core::{
    enumerate_outcomes, network_resilience_program, ChaseBudget, ChaseResult, Grounder,
    OutputSpace, PerfectGrounder, SigmaPi, SimpleGrounder, TriggerOrder,
};
use gdlog_bench::workloads::{chain_game, dime_quarter_workload, network_database, Topology};
use gdlog_engine::{CancelToken, StableModelLimits};
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

/// Allocations (including reallocations) of keying one sequential chase
/// over `grounder`, after a warm-up keying of the same chase.
fn keying_allocations(grounder: &dyn Grounder) -> u64 {
    let chase = enumerate_outcomes(grounder, &ChaseBudget::default(), TriggerOrder::First).unwrap();
    let key = |chase: ChaseResult| {
        OutputSpace::from_chase_cancellable(
            chase,
            &StableModelLimits::default(),
            &CancelToken::never(),
        )
    };
    let warm = key(chase.clone()).unwrap();
    let counted = chase.clone();
    COUNT.with(|count| count.set(0));
    COUNTING.with(|on| on.set(true));
    let space = key(counted);
    COUNTING.with(|on| on.set(false));
    let space = space.unwrap();
    assert_eq!(space.fingerprint(), warm.fingerprint());
    COUNT.with(Cell::get)
}

fn sigma(program: &gdlog::core::Program, db: &gdlog::data::Database) -> Arc<SigmaPi> {
    Arc::new(SigmaPi::translate(program, db).unwrap())
}

fn assert_at_most(name: &str, count: u64, bound: u64) {
    eprintln!("{name}: {count} keying allocations (bound {bound})");
    assert!(
        count <= bound,
        "{name}: keying made {count} allocations, more than the pinned {bound}"
    );
}

#[test]
fn network_ring_n5_keying_allocations_stay_bounded() {
    let db = network_database(5, Topology::Ring);
    let grounder = SimpleGrounder::new(sigma(&network_resilience_program(0.1), &db));
    assert_at_most("network_ring_n5", keying_allocations(&grounder), 15_300);
}

#[test]
fn dime_quarter_d9_q2_keying_allocations_stay_bounded() {
    let (program, db) = dime_quarter_workload(9, 2);
    let grounder = PerfectGrounder::new(sigma(&program, &db)).unwrap();
    assert_at_most("dime_quarter_d9_q2", keying_allocations(&grounder), 9_300);
}

#[test]
fn chain_game_n6_keying_allocations_stay_bounded() {
    let (program, db) = chain_game(6, 0.5);
    let grounder = SimpleGrounder::new(sigma(&program, &db));
    assert_at_most("chain_game_n6", keying_allocations(&grounder), 13_300);
}
