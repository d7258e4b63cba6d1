//! Discrete-event simulation kernel used by every substrate in this
//! workspace.
//!
//! The paper's evaluation ran on real hardware (NVIDIA K40 GPUs, PCIe gen3,
//! FDR InfiniBand). This reproduction replaces the hardware with a
//! deterministic discrete-event simulation: every protocol step, kernel
//! launch, DMA transfer and network message is an *event* on a single
//! virtual clock. `simcore` provides the clock, the event queue, tracing
//! and small parallel byte-movement helpers so that the *functional*
//! side of the simulation (bytes really moving) can use all host cores.
//! The "busy-until" FIFO resource a charge lands on lives with the fault
//! glue that mints its charges (`gpusim::fault`).
//!
//! Everything is deterministic: same inputs, same event order, same
//! virtual timestamps.

pub mod calq;
pub mod event;
pub mod hash;
pub mod msgsim;
pub mod par;
pub mod rate;
pub mod rng;
pub mod scratch;
pub mod time;
pub mod trace;

pub use calq::CalendarQueue;
pub use event::Sim;
pub use rate::Bandwidth;
pub use time::SimTime;
pub use trace::{Counter, Metrics, SpanId, Tracer, Track};
