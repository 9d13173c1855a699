//! A host-kernel selector kept so existing configs still parse.

use serde::{Deserialize, Serialize};

/// A host-kernel choice that selects nothing.
///
/// The crossbars have one host implementation: a row-at-a-time CAM scan
/// (plus the exact-match index of [`SearchMode`](crate::SearchMode)) and
/// a scalar bit-sliced MAC loop. Both variants are accepted, in code and
/// in serialized configs, and neither changes any result or code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Kernel {
    /// Accepted and ignored.
    Scalar,
    /// Accepted and ignored (the default).
    #[default]
    Packed,
}
