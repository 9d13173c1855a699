//! Error type for the accelerator core.

use std::fmt;

use gaasx_graph::GraphError;
use gaasx_sim::RunReport;
use gaasx_xbar::XbarError;

/// Errors raised while configuring or running the GaaS-X accelerator.
#[derive(Debug)]
pub enum CoreError {
    /// The underlying crossbar device rejected an operation.
    Device(XbarError),
    /// The graph substrate rejected an operation.
    Graph(GraphError),
    /// An accelerator configuration parameter was invalid.
    InvalidConfig(String),
    /// An algorithm received input it cannot process.
    InvalidInput(String),
    /// A device fault was detected that the configured
    /// [`RecoveryPolicy`](crate::RecoveryPolicy) could not recover from
    /// (retry budget exhausted with no spare row left). Graceful
    /// degradation: when the run was driven through
    /// [`GaasX`](crate::GaasX), `report` carries the partial [`RunReport`]
    /// accumulated up to the fault, so the cost of the aborted work is
    /// still observable.
    DeviceFault {
        /// What failed and where.
        detail: String,
        /// Partial run report up to the fault, when a driver attached one.
        report: Option<Box<RunReport>>,
    },
    /// A cooperative cancellation checkpoint found the query past its
    /// modeled-time budget (see [`Engine::set_deadline`]). Mirrors the
    /// [`CoreError::DeviceFault`] contract: when the run was driven
    /// through [`GaasX`](crate::GaasX), `report` carries the partial
    /// [`RunReport`] accumulated up to the cancellation point, so the
    /// cost of the abandoned work is still observable and billable.
    ///
    /// [`Engine::set_deadline`]: crate::engine::Engine::set_deadline
    Cancelled {
        /// Where the deadline fired and by how much it was exceeded.
        detail: String,
        /// Partial run report up to the cancellation, when a driver
        /// attached one.
        report: Option<Box<RunReport>>,
    },
}

impl CoreError {
    /// Graceful degradation: an unrecoverable [`CoreError::DeviceFault`]
    /// or deadline [`CoreError::Cancelled`] aborts a run, but the work
    /// done up to the abort still cost time and energy. Such an error
    /// without a report gets the partial report `finish` assembles, so
    /// callers can account for (and bill) it. Every other error passes
    /// through untouched, and `finish` is not called.
    pub fn with_partial_report(self, finish: impl FnOnce() -> RunReport) -> Self {
        match self {
            CoreError::DeviceFault {
                detail,
                report: None,
            } => CoreError::DeviceFault {
                detail,
                report: Some(Box::new(finish())),
            },
            CoreError::Cancelled {
                detail,
                report: None,
            } => CoreError::Cancelled {
                detail,
                report: Some(Box::new(finish())),
            },
            other => other,
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Device(e) => write!(f, "crossbar device error: {e}"),
            CoreError::Graph(e) => write!(f, "graph error: {e}"),
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            CoreError::DeviceFault { detail, .. } => {
                write!(f, "unrecoverable device fault: {detail}")
            }
            CoreError::Cancelled { detail, .. } => {
                write!(f, "query cancelled: {detail}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Device(e) => Some(e),
            CoreError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<XbarError> for CoreError {
    fn from(e: XbarError) -> Self {
        CoreError::Device(e)
    }
}

impl From<GraphError> for CoreError {
    fn from(e: GraphError) -> Self {
        CoreError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_sources() {
        use std::error::Error;
        let e = CoreError::from(XbarError::InvalidParameter("x".into()));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("crossbar"));
    }

    #[test]
    fn device_fault_carries_optional_partial_report() {
        use std::error::Error;
        let bare = CoreError::DeviceFault {
            detail: "row 7 unprogrammable".into(),
            report: None,
        };
        assert!(bare.to_string().contains("unrecoverable device fault"));
        assert!(bare.to_string().contains("row 7"));
        assert!(bare.source().is_none());
        let with_report = CoreError::DeviceFault {
            detail: "x".into(),
            report: Some(Box::new(RunReport::new("gaasx", "pagerank", "t"))),
        };
        match with_report {
            CoreError::DeviceFault {
                report: Some(r), ..
            } => assert_eq!(r.engine, "gaasx"),
            _ => unreachable!(),
        }
    }

    #[test]
    fn cancelled_mirrors_the_device_fault_contract() {
        use std::error::Error;
        let bare = CoreError::Cancelled {
            detail: "deadline 100 ns exceeded at block 3".into(),
            report: None,
        };
        assert!(bare.to_string().contains("query cancelled"));
        assert!(bare.to_string().contains("deadline 100 ns"));
        assert!(bare.source().is_none());
        let with_report = CoreError::Cancelled {
            detail: "x".into(),
            report: Some(Box::new(RunReport::new("gaasx", "bfs", "t"))),
        };
        match with_report {
            CoreError::Cancelled {
                report: Some(r), ..
            } => assert_eq!(r.engine, "gaasx"),
            _ => unreachable!(),
        }
    }
}
