//! Schedule construction allocates per collective and per dependency
//! list, never per task: labels are `Copy` templates and a collective
//! group is one shared participant set.
//!
//! Pinned with a counting global allocator, like
//! `olab-sim/tests/alloc_budget.rs`. The count is per thread, so tests
//! running in parallel do not count each other's allocations.

use olab_gpu::{Datapath, GpuSku, Precision};
use olab_models::memory::ActivationPolicy;
use olab_models::ModelPreset;
use olab_net::Topology;
use olab_parallel::fsdp::{fsdp_timeline, FsdpPlan};
use olab_parallel::ExecutionMode;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Const-initialized and drop-free, so touching it from inside the
    // allocator never allocates or registers a destructor.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` only fails during thread teardown, when nothing measures.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made by the calling thread so far.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The H100×4 GPT-3 XL FSDP b8 cell at the paper's sequence length.
#[test]
fn building_an_fsdp_timeline_allocates_less_than_once_per_task() {
    let sku = GpuSku::h100();
    let topo = Topology::nvswitch(4, sku.link_bw_unidir_gbs, sku.link_latency_us);
    let plan = FsdpPlan::new(
        ModelPreset::Gpt3Xl.config(),
        4,
        8,
        1024,
        Precision::Fp16,
        Datapath::TensorCore,
        ActivationPolicy::Full,
    );
    let before = allocations();
    let workload = fsdp_timeline(&plan, &sku, &topo, ExecutionMode::Overlapped);
    let made = allocations() - before;
    let tasks = workload.len();
    assert!(
        made < tasks,
        "building {tasks} tasks allocated {made} times — something allocates per task"
    );
}
