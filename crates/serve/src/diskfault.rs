//! Typed disk-fault handling for every durable sink.
//!
//! Every durable sink the daemon writes — store entries, quarantine
//! renames, metrics snapshots, flight-recorder dumps — goes through the
//! checked entry points here instead of calling the filesystem directly.
//! A full or failing disk then surfaces as a *typed* [`DiskError`]
//! (`ENOSPC` distinguished from other I/O failure) that callers degrade
//! on — count it, record a flight event, keep serving — rather than a
//! panic or an aborted `SIGTERM` drain.
//!
//! Each entry point takes the caller's [`FaultPlan`]: its `disk_write` and
//! `disk_rename` sites fail the operation with a synthetic error of the
//! plan's `disk_error` kind, decided from the seed and the path alone
//! ([`FaultStream::for_path`]), so a faulted run replays identically.

use proxim_model::persist::atomic_write;
use proxim_model::ModelError;
pub use proxim_spice::fault::DiskFaultKind;
use proxim_spice::fault::{FaultPlan, FaultStream};
use std::fmt;
use std::fs;
use std::path::Path;

/// A typed disk-sink failure: what category, and the rendered detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskError {
    /// The typed category.
    pub kind: DiskFaultKind,
    /// The rendered underlying error.
    pub detail: String,
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            DiskFaultKind::NoSpace => write!(f, "disk full: {}", self.detail),
            DiskFaultKind::Io => write!(f, "disk I/O error: {}", self.detail),
        }
    }
}

impl std::error::Error for DiskError {}

/// Classifies a rendered I/O error message. `ENOSPC` renders as
/// `"No space left on device (os error 28)"` on Linux; both spellings are
/// matched so classification survives the message passing through
/// [`ModelError::Persist`]'s string detail.
pub fn classify_detail(detail: &str) -> DiskFaultKind {
    if detail.contains("os error 28") || detail.contains("No space left") {
        DiskFaultKind::NoSpace
    } else {
        DiskFaultKind::Io
    }
}

fn classify_io(e: &std::io::Error) -> DiskFaultKind {
    if e.raw_os_error() == Some(28) {
        DiskFaultKind::NoSpace
    } else {
        classify_detail(&e.to_string())
    }
}

/// The synthetic error an injected fault of `kind` reports.
fn injected(kind: DiskFaultKind) -> DiskError {
    DiskError {
        kind,
        detail: match kind {
            DiskFaultKind::NoSpace => "injected: No space left on device (os error 28)".into(),
            DiskFaultKind::Io => "injected: Input/output error (os error 5)".into(),
        },
    }
}

/// Crash-consistent atomic write with typed disk-fault classification,
/// failed on purpose when `faults` fires its `disk_write` site for `path`.
/// Every durable sink in the serve layer writes through here.
///
/// # Errors
///
/// A [`DiskError`] with `ENOSPC` distinguished from other I/O failure.
pub fn checked_write(path: &Path, bytes: &[u8], faults: &FaultPlan) -> Result<(), DiskError> {
    if let Some(kind) = FaultStream::for_path(faults, path).disk_write() {
        return Err(injected(kind));
    }
    atomic_write(path, bytes).map_err(|e| {
        let detail = match e {
            ModelError::Persist { detail } => detail,
            other => other.to_string(),
        };
        DiskError {
            kind: classify_detail(&detail),
            detail,
        }
    })
}

/// Rename with typed disk-fault classification, failed on purpose when
/// `faults` fires its `disk_rename` site for `from`. The quarantine path
/// moves evidence through here.
///
/// # Errors
///
/// A [`DiskError`] with `ENOSPC` distinguished from other I/O failure.
pub fn checked_rename(from: &Path, to: &Path, faults: &FaultPlan) -> Result<(), DiskError> {
    if let Some(kind) = FaultStream::for_path(faults, from).disk_rename() {
        return Err(injected(kind));
    }
    fs::rename(from, to).map_err(|e| DiskError {
        kind: classify_io(&e),
        detail: e.to_string(),
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn classification_is_by_errno_spelling() {
        assert_eq!(
            classify_detail("No space left on device (os error 28)"),
            DiskFaultKind::NoSpace
        );
        assert_eq!(
            classify_detail("Input/output error (os error 5)"),
            DiskFaultKind::Io
        );
        assert_eq!(
            classify_detail("Permission denied (os error 13)"),
            DiskFaultKind::Io
        );
    }

    #[test]
    fn disarmed_passthrough_writes_and_renames() {
        let dir = std::env::temp_dir().join(format!("proxim_diskfault_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.txt");
        let b = dir.join("b.txt");
        checked_write(&a, b"payload", &FaultPlan::DISARMED).unwrap();
        checked_rename(&a, &b, &FaultPlan::DISARMED).unwrap();
        assert_eq!(fs::read(&b).unwrap(), b"payload");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn armed_faults_are_typed_and_change_nothing() {
        let dir =
            std::env::temp_dir().join(format!("proxim_diskfault_armed_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let full = FaultPlan {
            disk_write: 1.0,
            disk_rename: 1.0,
            disk_error: DiskFaultKind::NoSpace,
            ..FaultPlan::DISARMED
        };
        let a = dir.join("a.txt");
        checked_write(&a, b"first", &FaultPlan::DISARMED).unwrap();
        let e = checked_write(&a, b"second", &full).unwrap_err();
        assert_eq!(e.kind, DiskFaultKind::NoSpace);
        assert!(e.detail.contains("injected"), "{e}");
        let e = checked_rename(&a, &dir.join("b.txt"), &full).unwrap_err();
        assert_eq!(e.kind, DiskFaultKind::NoSpace);
        assert_eq!(fs::read(&a).unwrap(), b"first", "failed ops change nothing");
        let eio = FaultPlan {
            disk_error: DiskFaultKind::Io,
            ..full
        };
        assert_eq!(
            checked_write(&a, b"x", &eio).unwrap_err().kind,
            DiskFaultKind::Io
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
