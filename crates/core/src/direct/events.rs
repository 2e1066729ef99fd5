//! Event vocabulary and state enums of the direct simulator.

use std::fmt;

/// Events of the lumped-system simulation.
///
/// Each variant corresponds to a completion or arrival in the paper's
/// model: protocol steps, application phase changes, failures, recovery
/// stages, and the correlated-failure window timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// Master's checkpoint-interval timer expired: broadcast 'quiesce'.
    CheckpointTrigger,
    /// The quiesce broadcast reached the compute nodes.
    QuiesceArrive,
    /// All nodes reported 'ready' (coordination complete).
    CoordinationDone,
    /// Master timeout while waiting for 'ready' responses.
    MasterTimeout,
    /// All compute nodes finished dumping state to the I/O nodes.
    DumpDone,
    /// I/O nodes finished writing the checkpoint to the file system.
    CkptFsWriteDone,
    /// Application compute/I-O phase boundary.
    AppPhaseEnd,
    /// I/O nodes finished the background write of application data.
    AppDataWriteDone,
    /// Independent compute-node failure.
    ComputeFailure,
    /// I/O-node failure.
    IoFailure,
    /// Master-node failure.
    MasterFailure,
    /// Failure from the generic correlated-failure stream.
    GenericFailure,
    /// Recovery stage 1 (I/O nodes read checkpoint from FS) complete.
    RecoveryStage1Done,
    /// Recovery stage 2 (compute nodes reinitialize) complete.
    RecoveryStage2Done,
    /// I/O nodes finished restarting.
    IoRestartDone,
    /// Full system reboot complete.
    RebootDone,
    /// Correlated-failure window expired.
    WindowClose,
}

impl Event {
    /// Number of event kinds.
    pub(crate) const COUNT: usize = 17;

    /// Every kind, indexed by its discriminant.
    pub(crate) const ALL: [Event; Event::COUNT] = [
        Event::CheckpointTrigger,
        Event::QuiesceArrive,
        Event::CoordinationDone,
        Event::MasterTimeout,
        Event::DumpDone,
        Event::CkptFsWriteDone,
        Event::AppPhaseEnd,
        Event::AppDataWriteDone,
        Event::ComputeFailure,
        Event::IoFailure,
        Event::MasterFailure,
        Event::GenericFailure,
        Event::RecoveryStage1Done,
        Event::RecoveryStage2Done,
        Event::IoRestartDone,
        Event::RebootDone,
        Event::WindowClose,
    ];
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Lumped state of the compute-node unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SysPhase {
    /// Application running (see [`AppPhase`]).
    Executing,
    /// Between the quiesce broadcast and coordination completion (or
    /// abort). The application may still be finishing non-preemptive I/O.
    Quiescing,
    /// Coordination done, waiting for the I/O nodes to become idle before
    /// dumping.
    WaitingIoIdle,
    /// Dumping checkpoint state to the I/O nodes.
    Dumping,
    /// Rolling back: waiting for I/O restart, reading the checkpoint, or
    /// reinitializing.
    Recovering(RecoveryStage),
    /// Whole-system reboot after repeated failed recoveries.
    Rebooting,
}

/// Sub-state of an ongoing recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecoveryStage {
    /// Waiting for the I/O nodes to restart (or to finish a conflicting
    /// operation) before the recovery proper can begin.
    WaitIo,
    /// Stage 1: I/O nodes read the checkpoint from the file system into
    /// their local buffers.
    ReadBack,
    /// Stage 2: compute nodes read the checkpoint from the I/O nodes and
    /// reinitialize.
    Reinit,
}

/// Lumped state of the I/O-node unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IoState {
    /// Idle (includes receiving data from compute nodes).
    Idle,
    /// Writing buffered application data to the file system.
    WritingAppData,
    /// Writing the buffered checkpoint to the file system.
    WritingCkpt,
    /// Reading a checkpoint back from the file system (recovery stage 1).
    ReadingCkpt,
    /// Restarting after an I/O-node failure.
    Restarting,
    /// Down during a whole-system reboot.
    Down,
}

/// Application phase within the BSP compute/I-O cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AppPhase {
    /// Computing.
    Compute,
    /// Performing (non-preemptive) application I/O.
    Io,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_display_is_debug() {
        assert_eq!(Event::DumpDone.to_string(), "DumpDone");
        assert_eq!(Event::WindowClose.to_string(), "WindowClose");
    }

    #[test]
    fn all_is_indexed_by_discriminant() {
        for (k, &ev) in Event::ALL.iter().enumerate() {
            assert_eq!(ev as usize, k, "{ev}");
        }
    }

    #[test]
    fn enums_are_comparable() {
        assert_eq!(SysPhase::Executing, SysPhase::Executing);
        assert_ne!(
            SysPhase::Recovering(RecoveryStage::WaitIo),
            SysPhase::Recovering(RecoveryStage::Reinit)
        );
        assert_ne!(IoState::Idle, IoState::Down);
        assert_ne!(AppPhase::Compute, AppPhase::Io);
    }
}
