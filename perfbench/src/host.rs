//! The host record printed with every report: what ran, where, built how.

/// Facts about the machine and build a result depends on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Kernel release.
    pub kernel: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Cargo profile and optimisation level of the build.
    pub profile: &'static str,
    /// Commit of the checkout, when it is a git checkout.
    pub commit: String,
}

impl Host {
    /// Reads the record from `/proc` and the working directory.
    pub fn detect() -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(&cpuinfo).unwrap_or("unknown").to_string(),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
            commit: git_commit(std::path::Path::new(".git"))
                .unwrap_or_else(|| "unknown (not a git checkout)".into()),
        }
    }

    /// One `key=value` line; `threads` is the workload's thread count.
    pub fn render(&self, threads: usize) -> String {
        format!(
            "host: nproc={} cpu=\"{}\" kernel={} rustc=\"{}\" profile=\"{}\" commit={} \
             workload_threads={threads}",
            self.nproc, self.cpu_model, self.kernel, self.rustc, self.profile, self.commit
        )
    }
}

/// The first `model name` in `/proc/cpuinfo` text.
pub fn cpu_model(cpuinfo: &str) -> Option<&str> {
    cpuinfo.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim() == "model name").then(|| v.trim())
    })
}

/// The commit `HEAD` names in the git directory `git`, following one
/// symbolic ref through loose and packed refs.
pub fn git_commit(git: &std::path::Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(loose) = std::fs::read_to_string(git.join(name)) {
        return Some(loose.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (hash, r) = l.split_once(' ')?;
        (r == name).then(|| hash.to_string())
    })
}
