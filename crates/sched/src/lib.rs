//! Schedulers for Para-CONV.
//!
//! Two schedulers target the same PIM architecture model and emit
//! plans for the same validating simulator
//! ([`paraconv_pim::simulate`]):
//!
//! * [`ParaConvScheduler`] — the paper's contribution: kernel
//!   compaction, movement analysis, the optimal cache-allocation
//!   dynamic program, retiming, and software-pipelined plan emission
//!   with a prologue of `R_max` iterations;
//! * [`SpartaScheduler`] — the baseline (SPARTA, CODES'16):
//!   sensor-characterized priority list scheduling of co-scheduled
//!   independent iterations, greedy cache allocation, no retiming.
//!
//! [`KernelSchedule`] is the shared compaction step, exposed for
//! analyses and tests; [`emit`] unrolls a Para-CONV kernel, retiming
//! and allocation into the concrete plan, for the scheduler, the
//! verifier and the artifact decoder alike. Each scheduler also gives
//! its core ([`ParaConvCore`], [`SpartaCore`]) with the plan as a
//! [`paraconv_pim::PeriodicPlan`], which the runner replays without
//! unrolling.
//!
//! # Examples
//!
//! Comparing both schedulers on the motivational example:
//!
//! ```
//! use paraconv_graph::examples;
//! use paraconv_pim::{simulate, PimConfig};
//! use paraconv_sched::{ParaConvScheduler, SpartaScheduler};
//!
//! let g = examples::motivational();
//! let cfg = PimConfig::neurocube(4)?;
//! let para = ParaConvScheduler::new(cfg.clone()).schedule(&g, 20)?;
//! let sparta = SpartaScheduler::new(cfg.clone()).schedule(&g, 20)?;
//! let para_time = simulate(&g, &para.plan, &cfg)?.total_time;
//! let sparta_time = simulate(&g, &sparta.plan, &cfg)?.total_time;
//! assert!(para_time <= sparta_time);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod emit;
mod error;
mod kernel;
mod paraconv;
mod sparta;

pub use emit::emit;
pub use error::SchedError;
pub use kernel::KernelSchedule;
pub use paraconv::{AllocationPolicy, ParaConvCore, ParaConvOutcome, ParaConvScheduler};
pub use sparta::{BaselineCachePolicy, SpartaCore, SpartaOutcome, SpartaScheduler};
