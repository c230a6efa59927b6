//! Error type for kernel-substrate operations.

use std::fmt;

use mpt_soc::ComponentId;

use crate::Pid;

/// Errors returned by scheduler and governor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum KernelError {
    /// No process with this pid exists.
    NoSuchProcess {
        /// The missing pid.
        pid: Pid,
    },
    /// A process was assigned to a component that cannot run threads.
    NotACpuCluster {
        /// The offending component.
        id: ComponentId,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoSuchProcess { pid } => write!(f, "no such process: {pid}"),
            Self::NotACpuCluster { id } => {
                write!(f, "component {id} cannot run threads")
            }
        }
    }
}

impl std::error::Error for KernelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<KernelError>();
    }

    #[test]
    fn display_mentions_pid() {
        let e = KernelError::NoSuchProcess { pid: Pid::new(42) };
        assert!(e.to_string().contains("42"));
    }
}
