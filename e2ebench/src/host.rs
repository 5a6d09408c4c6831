//! Host facts recorded with every result, and process-level resource
//! readings (CPU time, peak resident set) from `/proc/self`.

use std::path::Path;

/// Facts that make two results comparable (or not): numbers from
/// different hosts, compilers or sources must never be compared
/// silently.
#[derive(Debug)]
pub struct Host {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Compiler that built this benchmark.
    pub rustc: String,
    /// `git rev-parse HEAD` of the checkout, or `none` outside git.
    pub git_rev: String,
    /// FNV-1a 64 over the program's sources (see [`source_fingerprint`]);
    /// identifies the code under test where no git revision exists.
    pub fingerprint: u64,
}

impl Host {
    /// Gathers the facts for the checkout rooted at the current
    /// directory.
    pub fn gather() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model: cpu_model(),
            rustc: env!("E2EBENCH_RUSTC_VERSION").to_string(),
            git_rev: git_rev(),
            fingerprint: source_fingerprint(Path::new(".")),
        }
    }

    /// The facts as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"nproc":{},"cpu_model":{},"rustc":{},"git_rev":{},"source_fingerprint":"{:016x}"}}"#,
            self.nproc,
            crate::json_str(&self.cpu_model),
            crate::json_str(&self.rustc),
            crate::json_str(&self.git_rev),
            self.fingerprint
        )
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "none".to_string())
}

/// FNV-1a 64 over every file (path and bytes, in sorted path order)
/// under the program's source roots: the workspace manifests and lock
/// file, `crates/`, `vendor/`, `src/`, and this benchmark's own sources.
pub fn source_fingerprint(root: &Path) -> u64 {
    let mut files = Vec::new();
    for entry in ["Cargo.toml", "Cargo.lock", "e2ebench/Cargo.toml"] {
        files.push(root.join(entry));
    }
    for dir in ["crates", "vendor", "src", "e2ebench/src"] {
        collect_files(&root.join(dir), &mut files);
    }
    files.sort();
    let mut bytes = Vec::new();
    for file in files {
        if let Ok(content) = std::fs::read(&file) {
            bytes.extend_from_slice(file.to_string_lossy().as_bytes());
            bytes.extend_from_slice(&content);
        }
    }
    gcln_engine::cache::fnv1a64(&bytes)
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

/// Kernel clock ticks per second for `/proc/self/stat` times (the
/// `USER_HZ` every Linux ABI fixes at 100).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has used so far, all threads
/// included (exited ones too).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, i.e. the 12th and 13th here.
    let Some((_, rest)) = stat.rsplit_once(')') else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
