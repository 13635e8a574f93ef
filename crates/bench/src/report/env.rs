//! Run metadata attached to every [`BenchReport`](super::BenchReport): enough context
//! to interpret a number months later (which commit produced it, how many cores the
//! box had), without anything nondeterministic like timestamps — the emitted files
//! must be byte-stable across re-runs of the same commit.

use std::process::Command;

use super::json::Json;

/// Metadata describing the machine and tree a report was produced on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunEnv {
    /// `git rev-parse HEAD` of the tree, or `"unknown"` outside a repository.
    pub git_sha: String,
    /// Whether the working tree had uncommitted changes (`git status --porcelain`
    /// non-empty). Numbers from a dirty tree cannot be attributed to the SHA alone.
    pub git_dirty: bool,
    /// Available hardware parallelism (`nproc`). Wall-clock metrics from a 1-core box
    /// say nothing about threaded speedups — this is the field that flags it.
    pub nproc: usize,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
}

impl RunEnv {
    /// Capture the current environment. Git queries failing (no repo, no git binary)
    /// degrade to `"unknown"` / clean rather than erroring — reports must be emittable
    /// from an exported tarball too.
    pub(crate) fn capture() -> Self {
        let git = |args: &[&str]| -> Option<String> {
            let out = Command::new("git").args(args).output().ok()?;
            out.status
                .success()
                .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        };
        RunEnv {
            git_sha: git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            git_dirty: git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty()),
            nproc: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
        }
    }

    /// Serialize as a JSON object.
    pub(crate) fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("git_sha".into(), Json::Str(self.git_sha.clone())),
            ("git_dirty".into(), Json::Bool(self.git_dirty)),
            ("nproc".into(), Json::Num(self.nproc as f64)),
            ("os".into(), Json::Str(self.os.clone())),
            ("arch".into(), Json::Str(self.arch.clone())),
        ])
    }

    /// Deserialize from a JSON object, tolerating missing fields (older files).
    pub(crate) fn from_json(v: &Json) -> Self {
        RunEnv {
            git_sha: v
                .get("git_sha")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            git_dirty: v.get("git_dirty").and_then(Json::as_bool).unwrap_or(false),
            nproc: v
                .get("nproc")
                .and_then(Json::as_num)
                .map(|n| n.max(0.0) as usize)
                .unwrap_or(0),
            os: v
                .get("os")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            arch: v
                .get("arch")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_and_roundtrip() {
        let env = RunEnv::capture();
        assert!(env.nproc >= 1);
        assert!(!env.os.is_empty());
        let back = RunEnv::from_json(&env.to_json());
        assert_eq!(back, env);
    }

    #[test]
    fn missing_fields_degrade_gracefully() {
        let env = RunEnv::from_json(&Json::Obj(vec![]));
        assert_eq!(env.git_sha, "unknown");
        assert!(!env.git_dirty);
        assert_eq!(env.nproc, 0);
    }
}
