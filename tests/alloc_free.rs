//! Steady-state allocation behavior of the communication/compute hot path.
//!
//! Once workspaces and message buffers are warm, a stage's face path
//! (pack → unpack into message-buffer stand-ins, the block-to-block local
//! transfer, the stencil) performs **zero heap allocations**, and the
//! local transfer takes no pooled buffer either. A counting global
//! allocator verifies the first directly, the pool's counters the second.

use miniamr::comm_plan::CommPlan;
use miniamr::rank::{
    apply_local_transfer, pack_transfer_into, transfer_payload_elems, unpack_transfer, RankState,
};
use miniamr::{Config, Variant};
use shmem::SharedBuffer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vmpi::{NetworkModel, RequestSet, World};

/// Wraps the system allocator, counting allocation events (alloc,
/// alloc_zeroed, realloc — not dealloc, which is alloc-free by nature)
/// **per thread**, so the measurement is immune to allocations from the
/// test harness or any other concurrently-running thread.
struct CountingAlloc;

thread_local! {
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // Ignore accesses during TLS teardown — nothing is measured then.
    let _ = ALLOC_EVENTS.try_with(|c| c.set(c.get() + 1));
}

fn events() -> u64 {
    ALLOC_EVENTS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn packed_face_path_is_allocation_free_in_steady_state() {
    let cfg = Config::smoke_test();
    let state = RankState::init(&cfg, 0, 2);
    let plan = CommPlan::build(&cfg, &state.dir, 2);
    let vars = 0..cfg.params.num_vars;
    let nv = vars.len();

    // Local transfers whose src and dst both live on rank 0 exercise
    // pack → unpack of every transfer kind present in the plan.
    let locals: Vec<_> = plan
        .locals
        .iter()
        .filter(|t| t.src_rank == 0 && t.dst_rank == 0)
        .cloned()
        .collect();
    assert!(
        !locals.is_empty(),
        "smoke config must have rank-local transfers"
    );

    // Preallocated message-buffer stand-ins for the explicit
    // pack_into/unpack pairs.
    let mut payloads: Vec<Vec<f64>> = locals
        .iter()
        .map(|t| vec![0.0; transfer_payload_elems(t, nv)])
        .collect();

    let one_round = |payloads: &mut Vec<Vec<f64>>| {
        for (t, payload) in locals.iter().zip(payloads.iter_mut()) {
            let src = state.block(&t.src_block);
            let dst = state.block(&t.dst_block);
            // Explicit zero-copy pair (message-buffer path)...
            pack_transfer_into(&state.layout, src, t, vars.clone(), payload);
            unpack_transfer(&state.layout, dst, t, vars.clone(), payload);
            // ...and the fused intra-rank path.
            apply_local_transfer(&state.layout, src, dst, t, vars.clone(), &state.pool);
        }
        for b in state.blocks.values() {
            amr_mesh::stencil::apply_stencil(b, &state.layout, cfg.stencil, vars.clone());
        }
    };

    // Warmup: grows the stencil workspace to its steady-state capacity.
    let pool_before = state.pool.stats();
    one_round(&mut payloads);
    one_round(&mut payloads);

    let before = events();
    for _ in 0..10 {
        one_round(&mut payloads);
    }
    let after = events();
    assert_eq!(
        after - before,
        0,
        "steady-state packed-face path allocated {} times over 10 rounds",
        after - before
    );

    // Local transfers copy block to block: no staging buffer is taken.
    assert_eq!(
        state.pool.stats(),
        pool_before,
        "a local transfer touched the pool"
    );
}

/// Ratchet for the message path (ROADMAP item 2): allocator calls per
/// face message, send through receive, on a warm 2-rank instant network
/// where every delivery runs inline on one of the two rank threads. The
/// bound is what this loop measured when the test was written (the
/// ladder's `vmpi.allocs_per_msg`); lower it as the path sheds
/// allocations, never raise it.
#[test]
fn face_message_allocations_do_not_grow() {
    const ALLOCS_PER_MSG: u64 = 7;
    const ROUNDS: u64 = 200;
    let per_rank = World::new(2, NetworkModel::instant()).run(|comm| {
        let peer = 1 - comm.rank();
        let send = SharedBuffer::<f64>::new(64).full();
        let recv = SharedBuffer::<f64>::new(64).full();
        // One face exchange, as `communicate` does per neighbour and
        // direction: each rank receives one message and sends one.
        let exchange = || {
            let r = comm.irecv_into(recv.clone(), peer as i32, 7).unwrap();
            let s = comm.isend_from(&send, peer, 7).unwrap();
            RequestSet::new(vec![r, s]).waitall();
        };
        // Warm both queues of both mailboxes (each allocates on its first
        // push): a message that waits for its receive, then a receive
        // that waits for its message. Which of the two a plain exchange
        // hits depends on which rank runs ahead.
        let early = comm.isend_from(&send, peer, 7).unwrap();
        comm.barrier().unwrap();
        let late = comm.irecv_into(recv.clone(), peer as i32, 7).unwrap();
        RequestSet::new(vec![early, late]).waitall();
        let early = comm.irecv_into(recv.clone(), peer as i32, 7).unwrap();
        comm.barrier().unwrap();
        let late = comm.isend_from(&send, peer, 7).unwrap();
        RequestSet::new(vec![early, late]).waitall();
        exchange();
        let before = events();
        for _ in 0..ROUNDS {
            exchange();
        }
        events() - before
    });
    let (allocs, msgs) = (per_rank.iter().sum::<u64>(), 2 * ROUNDS);
    assert!(
        allocs <= ALLOCS_PER_MSG * msgs,
        "{allocs} allocator calls over {msgs} messages = {:.2} per message (bound {ALLOCS_PER_MSG})",
        allocs as f64 / msgs as f64
    );
}

/// One run of `variant` on a mesh whose intra-rank items are all far
/// below `elaborate::GRAIN_ELEMS`: allocator calls on the two *spawning*
/// threads (a rank's own thread is the one that elaborates and spawns),
/// work items and tasks, summed over the ranks.
fn fine_run(variant: Variant, num_tsteps: usize) -> [u64; 3] {
    let mut params = Config::smoke_test().params;
    (params.init_x, params.num_vars, params.num_refine) = (2, 4, 2);
    let mut cfg = Config::four_spheres(params, 4);
    cfg.variant = variant;
    cfg.num_tsteps = num_tsteps;
    cfg.stages_per_ts = 4;
    cfg.checksum_freq = 4;
    cfg.refine_freq = 1000;
    cfg.send_faces = true;
    cfg.separate_buffers = true;
    cfg.workers = 1;
    let per_rank = World::new(2, NetworkModel::instant()).run(|comm| {
        let before = events();
        let stats = miniamr::run_rank(&cfg, comm);
        assert_eq!(stats.checksums_failed, 0);
        [events() - before, stats.task_items, stats.tasks_spawned]
    });
    per_rank
        .iter()
        .fold([0; 3], |sum, rank| [0, 1, 2].map(|i| sum[i] + rank[i]))
}

/// What `steps` timesteps of that run cost past its third, taken as the
/// difference between two runs that many timesteps apart: set-up, the
/// first timesteps and teardown cancel. For data-flow they are replay
/// hits — up to the thousand or so allocator calls by which two
/// identical runs differ (how many edges the recorded timestep links, and
/// so how many successor lists outgrow their inline room, depends on what
/// the worker has finished by then).
fn steady_timesteps(variant: Variant, steps: usize) -> [u64; 3] {
    let (cold, warm) = (fine_run(variant, 3), fine_run(variant, 3 + steps));
    [0, 1, 2].map(|i| warm[i].saturating_sub(cold[i]))
}

/// `steady_timesteps` with each run's allocator calls taken at their
/// least over `reps` runs: how many claim-table entries and successor
/// lists a run re-creates depends on what the worker has finished when
/// the next task spawns, and that only ever adds calls.
fn steady_floor(variant: Variant, steps: usize, reps: usize) -> [u64; 3] {
    let least = |tsteps| {
        let runs = (0..reps).map(|_| fine_run(variant, tsteps));
        runs.min_by_key(|run| run[0]).expect("at least one run")
    };
    let (cold, warm) = (least(3), least(3 + steps));
    [0, 1, 2].map(|i| warm[i].saturating_sub(cold[i]))
}

fn hit_timesteps(hits: usize) -> [u64; 3] {
    steady_timesteps(Variant::DataFlow, hits)
}

/// Ratchet for the task grain: allocator calls on the spawning thread per
/// work item of a warm (replayed) data-flow timestep. One task per item
/// cost four when every hit spawned afresh (access list, boxed body,
/// task, replayed predecessor list); a batch paid them once for all its
/// members.
#[test]
fn warm_dataflow_timestep_allocates_less_than_once_per_item() {
    let [allocs, items, _] = hit_timesteps(3);
    assert!(items > 10_000, "only {items} items in three timesteps");
    assert!(
        allocs <= items,
        "{allocs} allocator calls on the spawning threads for {items} work items = {:.2} per item",
        allocs as f64 / items as f64
    );
}

/// Ratchet for the replay hit: it re-arms the recorded tasks in place and
/// elaborates nothing, so what the spawning thread still allocates is per
/// phase call and per checksum point, not per task. Seventy hits (a
/// message is two tasks, not four), so that the bound stands well clear
/// of the run-to-run difference.
#[test]
fn hit_dataflow_timestep_allocates_next_to_nothing_per_task() {
    let [allocs, _, tasks] = hit_timesteps(70);
    assert!(tasks > 100_000, "only {tasks} tasks in seventy timesteps");
    assert!(
        allocs * 20 <= tasks,
        "{allocs} allocator calls on the spawning threads for {tasks} re-armed tasks = {:.3} per task (bound 0.05)",
        allocs as f64 / tasks as f64
    );
}

/// Ratchet for the serial schedules' task program: allocator calls on the
/// spawning threads per work item of a steady fork-join timestep. The
/// tasks run the templates of the mesh epoch, so what a call still
/// allocates is its task objects, their dependency bookkeeping, and a
/// few lists of the exchange loop: 0.72–0.76 per item. When every call
/// rebuilt what its tasks run on (a clone of every block handle) and
/// every chunk's access list and body, the same loop measured 0.85–0.94.
#[test]
fn steady_forkjoin_timestep_allocates_less_than_once_per_item() {
    let [allocs, items, tasks] = steady_floor(Variant::ForkJoin, 6, 3);
    let per_item = allocs as f64 / items as f64;
    eprintln!(
        "fork-join: {allocs} allocator calls for {items} items ({tasks} tasks) = {per_item:.3} per item \
         (bound 0.8; 0.85-0.94 when every call rebuilt its handles and access lists)"
    );
    assert!(items > 10_000, "only {items} items in six timesteps");
    assert!(
        allocs * 5 <= items * 4,
        "{allocs} allocator calls on the spawning threads for {items} work items = {per_item:.2} per item (bound 0.8)"
    );
}
