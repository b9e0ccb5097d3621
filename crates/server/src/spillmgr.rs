//! The shared spill-directory manager: one root directory, one byte
//! quota, one subdirectory per session.
//!
//! Every session spills into its own `session-<id>` subdirectory (leased
//! via [`SpillDirManager::lease`] and removed when the lease drops), so
//! concurrent sessions can never trample each other's run files.  On
//! startup the manager removes **orphaned** `session-*` subdirectories
//! left in a user-provided root by a crashed previous process.
//!
//! Disk is governed like memory: sessions [`charge`](SpillDirLease::charge)
//! their durable spill bytes against the global
//! [`SpillManagerConfig::quota_bytes`], and a charge past the quota fails
//! *before* more disk is consumed, as a typed [`stream::SpillError`] with
//! [`std::io::ErrorKind::QuotaExceeded`] naming the session's spill
//! directory and the bytes that pushed it over.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use stream::{SpillError, SpillIoHandle};

/// Distinguishes concurrent managers within one process (same fix as the
/// spill-space collision bug: a pid alone is not unique).
static ROOT_SEQ: AtomicU64 = AtomicU64::new(0);

/// Tuning knobs of the [`SpillDirManager`].
#[derive(Debug, Clone)]
pub struct SpillManagerConfig {
    /// Root directory for all session spill subdirectories.  `None` (the
    /// default) creates a fresh unique directory under the OS temp dir,
    /// removed when the manager drops; a user-provided root is kept (only
    /// its `session-*` children are managed).
    pub root: Option<PathBuf>,
    /// Byte ceiling across all sessions' durable spill files.
    pub quota_bytes: u64,
}

impl Default for SpillManagerConfig {
    fn default() -> Self {
        Self {
            root: None,
            quota_bytes: u64::MAX,
        }
    }
}

/// Shared manager of the server's spill disk space.
pub struct SpillDirManager {
    root: PathBuf,
    owns_root: bool,
    quota_bytes: u64,
    charged: AtomicU64,
    orphans_removed: usize,
    /// The server-wide spill I/O backend every session spills through.
    io: SpillIoHandle,
    /// Spill-directory leases currently alive.
    live: AtomicUsize,
}

impl SpillDirManager {
    /// Creates (or adopts) the root directory and removes orphaned
    /// `session-*` subdirectories from previous processes.  All sessions
    /// spill through the shared `io` backend, so their merges and batched
    /// I/O share one job pool.
    pub fn new(cfg: SpillManagerConfig, io: SpillIoHandle) -> io::Result<Arc<Self>> {
        let (root, owns_root) = match cfg.root {
            Some(root) => (root, false),
            None => (
                std::env::temp_dir().join(format!(
                    "pisort-server-{}-{}",
                    std::process::id(),
                    ROOT_SEQ.fetch_add(1, Ordering::Relaxed)
                )),
                true,
            ),
        };
        std::fs::create_dir_all(&root)?;
        let mut orphans_removed = 0;
        for entry in std::fs::read_dir(&root)? {
            let entry = entry?;
            let name = entry.file_name();
            if name.to_string_lossy().starts_with("session-") && entry.path().is_dir() {
                std::fs::remove_dir_all(entry.path())?;
                orphans_removed += 1;
            }
        }
        Ok(Arc::new(Self {
            root,
            owns_root,
            quota_bytes: cfg.quota_bytes.max(1),
            charged: AtomicU64::new(0),
            orphans_removed,
            io,
            live: AtomicUsize::new(0),
        }))
    }

    /// The shared spill I/O backend (one handle for the whole server).
    pub fn io(&self) -> &SpillIoHandle {
        &self.io
    }

    /// Spill-directory leases currently alive.
    pub fn live_leases(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// The managed root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Orphaned `session-*` directories removed at startup.
    pub fn orphans_removed(&self) -> usize {
        self.orphans_removed
    }

    /// Bytes currently charged against the quota.
    pub fn charged_bytes(&self) -> u64 {
        self.charged.load(Ordering::Relaxed)
    }

    /// Leases a fresh per-session subdirectory; removed (with everything
    /// in it) and un-charged when the lease drops.
    pub fn lease(self: &Arc<Self>, session_id: u64) -> io::Result<SpillDirLease> {
        let path = self.root.join(format!("session-{session_id:08}"));
        std::fs::create_dir(&path)?;
        self.live.fetch_add(1, Ordering::Relaxed);
        Ok(SpillDirLease {
            manager: Arc::clone(self),
            path,
            charged: 0,
        })
    }

    fn charge(&self, delta: u64) -> io::Result<()> {
        let before = self.charged.fetch_add(delta, Ordering::Relaxed);
        if before + delta > self.quota_bytes {
            // Roll back so released sessions keep the meter exact.
            self.charged.fetch_sub(delta, Ordering::Relaxed);
            if obs::enabled() {
                crate::metrics::m().quota_rejections.incr();
            }
            return Err(io::Error::new(
                io::ErrorKind::QuotaExceeded,
                format!(
                    "spill quota exceeded: {} + {} bytes over the {}-byte quota",
                    before, delta, self.quota_bytes
                ),
            ));
        }
        if obs::enabled() {
            crate::metrics::m().spill_bytes_charged.add(delta);
        }
        Ok(())
    }

    fn uncharge(&self, bytes: u64) {
        self.charged.fetch_sub(bytes, Ordering::Relaxed);
    }
}

impl Drop for SpillDirManager {
    fn drop(&mut self) {
        if self.owns_root {
            std::fs::remove_dir_all(&self.root).ok();
        }
    }
}

/// One session's leased spill subdirectory (RAII: directory and charge
/// are released on drop).
pub struct SpillDirLease {
    manager: Arc<SpillDirManager>,
    path: PathBuf,
    charged: u64,
}

impl SpillDirLease {
    /// The session's private spill directory; point
    /// [`dtsort::StreamConfig::spill_dir`] here.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The shared spill I/O backend to hand the session's engine
    /// (see [`SpillDirManager::io`]).
    pub fn io(&self) -> &SpillIoHandle {
        self.manager.io()
    }

    /// Charges `delta` more durable spill bytes against the global quota,
    /// failing (without charging) past the ceiling.  The failure is a
    /// typed [`SpillError`] (kind [`io::ErrorKind::QuotaExceeded`])
    /// carrying this session's spill directory and the rejected byte
    /// count, so a caller can tell a full quota from a full disk.
    pub fn charge(&mut self, delta: u64) -> io::Result<()> {
        if delta == 0 {
            return Ok(());
        }
        self.manager
            .charge(delta)
            .map_err(|e| SpillError::new(self.path.clone(), 0, delta, e).into_io())?;
        self.charged += delta;
        Ok(())
    }

    /// Bytes this lease has charged so far.
    pub fn charged_bytes(&self) -> u64 {
        self.charged
    }
}

impl Drop for SpillDirLease {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.path).ok();
        self.manager.uncharge(self.charged);
        self.manager.live.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_mgr(cfg: SpillManagerConfig) -> Arc<SpillDirManager> {
        SpillDirManager::new(cfg, SpillIoHandle::blocking()).unwrap()
    }

    #[test]
    fn leases_create_and_remove_private_subdirs() {
        let mgr = test_mgr(SpillManagerConfig::default());
        let a = mgr.lease(1).unwrap();
        let b = mgr.lease(2).unwrap();
        assert_eq!(mgr.live_leases(), 2);
        assert_ne!(a.path(), b.path());
        assert!(a.path().is_dir() && b.path().is_dir());
        std::fs::write(a.path().join("run-000001.bin"), b"data").unwrap();
        let (pa, pb) = (a.path().to_path_buf(), b.path().to_path_buf());
        drop(a);
        assert!(!pa.exists(), "lease drop removes the subdir and its runs");
        assert!(pb.exists(), "sibling lease untouched");
        drop(b);
        assert_eq!(mgr.live_leases(), 0);
        let root = mgr.root().to_path_buf();
        assert!(root.exists());
        drop(mgr);
        assert!(!root.exists(), "owned root removed with the manager");
    }

    #[test]
    fn startup_removes_orphaned_session_dirs_only() {
        let root = std::env::temp_dir().join(format!(
            "pisort-orphan-test-{}-{}",
            std::process::id(),
            ROOT_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(root.join("session-00000007")).unwrap();
        std::fs::write(root.join("session-00000007/run.bin"), b"stale").unwrap();
        std::fs::create_dir_all(root.join("unrelated")).unwrap();
        let mgr = test_mgr(SpillManagerConfig {
            root: Some(root.clone()),
            quota_bytes: u64::MAX,
        });
        assert_eq!(mgr.orphans_removed(), 1);
        assert!(!root.join("session-00000007").exists());
        assert!(root.join("unrelated").exists(), "only session dirs managed");
        drop(mgr);
        assert!(root.exists(), "user-provided root is kept");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn quota_rejects_the_overflowing_charge_and_rolls_back() {
        let mgr = test_mgr(SpillManagerConfig {
            root: None,
            quota_bytes: 1000,
        });
        let mut a = mgr.lease(1).unwrap();
        a.charge(600).unwrap();
        let mut b = mgr.lease(2).unwrap();
        b.charge(300).unwrap();
        let err = b.charge(200).expect_err("past the quota");
        assert!(err.to_string().contains("quota"), "got: {err}");
        assert_eq!(err.kind(), io::ErrorKind::QuotaExceeded);
        let typed = SpillError::from_io(&err).expect("typed SpillError");
        assert_eq!(typed.path, b.path());
        assert_eq!(typed.bytes_attempted, 200);
        assert_eq!(mgr.charged_bytes(), 900, "failed charge rolled back");
        drop(a);
        assert_eq!(mgr.charged_bytes(), 300, "lease drop un-charges");
        b.charge(200).unwrap();
        assert_eq!(b.charged_bytes(), 500);
    }
}
