//! # olab-sim — fluid discrete-event simulation engine
//!
//! A small, deterministic simulation engine specialized for modeling GPU
//! execution timelines. It is the substrate under the overlap-lab
//! characterization harness (see the `olab-core` crate), but is fully generic:
//! it knows nothing about GPUs beyond the notion of *devices* with two
//! in-order *streams* (compute and communication), mirroring the CUDA/HIP
//! stream semantics that distributed-training frameworks build on.
//!
//! ## Model
//!
//! A [`Workload`] is a DAG of [`TaskSpec`]s. Each task:
//!
//! * occupies one [`StreamKind`] slot on one or more participant devices
//!   (collectives occupy the comm stream of *every* rank, which gives
//!   rendezvous semantics for free: the task starts only when it reaches the
//!   head of each rank's queue);
//! * carries a [`Label`] — a `'static` template plus up to four integers,
//!   built with [`label!`] and rendered only where text is written out —
//!   and its devices as [`Participants`], one device inline or a group
//!   shared by reference count, so a task allocates nothing but its
//!   dependency list;
//! * carries an opaque payload interpreted by a user-supplied [`RateModel`];
//! * progresses *fluidly*: the rate model assigns each running task a rate in
//!   "fraction of the task completed per second", re-evaluated every time the
//!   running set changes. This is what lets contention (shared memory
//!   bandwidth, SM occupancy, DVFS throttling) be expressed naturally — rates
//!   drop when competing tasks are co-resident.
//!
//! The engine records per-task start/end times, per-task *co-active* time
//! (time during which the other stream on a shared device was busy — the
//! quantity behind the paper's "overlapped computation" ratio), per-device
//! power segments, and per-device overlap windows.
//!
//! ## Example
//!
//! ```rust
//! use olab_sim::{
//!     label, Engine, GpuId, Participants, RateModel, RunningTask, StreamKind, TaskSpec, Workload,
//! };
//!
//! /// Every task takes exactly one second, devices draw 100 W while busy.
//! struct Unit;
//! impl RateModel for Unit {
//!     type Payload = ();
//!     fn assign_rates(
//!         &mut self,
//!         running: &[RunningTask<'_, ()>],
//!         rates: &mut [f64],
//!         power: &mut [f64],
//!     ) {
//!         for (i, task) in running.iter().enumerate() {
//!             rates[i] = 1.0;
//!             for gpu in task.participants {
//!                 power[gpu.index()] = 100.0;
//!             }
//!         }
//!     }
//! }
//!
//! # fn main() -> Result<(), olab_sim::SimError> {
//! let mut workload = Workload::new(1);
//! let a = workload.push(TaskSpec::compute("a", GpuId(0), ()));
//! let mut b = TaskSpec::new(label!("b{}", 1), Participants::One(GpuId(0)), StreamKind::Comm, ());
//! b.deps.push(a);
//! workload.push(b);
//! let trace = Engine::new(Unit).run(&workload)?;
//! assert!((trace.makespan().as_secs() - 2.0).abs() < 1e-9);
//! assert_eq!(trace.records()[1].label.to_string(), "b1");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod critical;
mod engine;
mod error;
mod ids;
mod label;
pub mod metrics;
mod obs;
mod rate;
pub mod rng;
mod task;
mod time;
mod trace;
pub mod verify;

pub use critical::{critical_path, CriticalPath, CriticalStep};
pub use engine::{Engine, SimArena};
pub use error::SimError;
pub use ids::{GpuId, StreamKind, TaskId};
pub use label::{Label, Participants, MAX_LABEL_ARGS};
pub use obs::{EngineObserver, GpuCounters, NullObserver};
pub use rate::{ConstantRate, RateModel, RunningTask};
pub use rng::SeededRng;
pub use task::{TaskSpec, Workload};
pub use time::SimTime;
pub use trace::{GpuActivity, PowerSegment, SimTrace, TaskRecord, Window};
pub use verify::{verify_trace, Violation};
