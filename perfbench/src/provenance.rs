//! Where a result came from: CPU model, host parallelism, git commit,
//! build profile, and whether the `prof` or `telemetry` hooks were
//! compiled into the crates — plus the process's peak memory.

use std::path::Path;

pub struct Provenance {
    pub cpu: String,
    pub nproc: usize,
    pub git: String,
    pub profile: &'static str,
    pub prof: bool,
    pub telemetry: bool,
}

impl Provenance {
    pub fn detect() -> Provenance {
        Provenance {
            cpu: cpu_model().unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            git: git_sha(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            prof: ckpt_des::prof::ENABLED,
            telemetry: ckpt_des::telem::ENABLED,
        }
    }

    pub fn line(&self) -> String {
        format!(
            "cpu=\"{}\" nproc={} git={} profile={} prof={} telemetry={}",
            self.cpu, self.nproc, self.git, self.profile, self.prof, self.telemetry
        )
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// The commit checked out in `git_dir` (a `.git` directory), if any;
/// a checkout without git history reports `unknown`.
fn git_sha(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git_dir.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(sha, _)| sha.to_string())
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn git_sha_follows_loose_and_packed_refs() {
        let dir = std::env::temp_dir().join(format!("perfbench-git-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("refs/heads")).unwrap();
        std::fs::write(dir.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(
            dir.join("packed-refs"),
            "# pack-refs\nabc123 refs/heads/main\n",
        )
        .unwrap();
        assert_eq!(git_sha(&dir).as_deref(), Some("abc123"));
        std::fs::write(dir.join("refs/heads/main"), "def456\n").unwrap();
        assert_eq!(git_sha(&dir).as_deref(), Some("def456"));
        std::fs::write(dir.join("HEAD"), "0123abcd\n").unwrap();
        assert_eq!(git_sha(&dir).as_deref(), Some("0123abcd"));
        assert_eq!(git_sha(&dir.join("missing")), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
