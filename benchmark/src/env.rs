//! Environment hygiene: what the run found and what it removed, recorded
//! with the result so a noisy or mis-set run is recognisable afterwards.

use std::path::PathBuf;

use hwgc_obs::json::Json;

/// Remove every `HWGC_*` variable (`GcConfig::default`, `MemConfig::default`
/// and the job layer read them) and pin the in-process pool to one thread,
/// so all load comes from this thread. Returns the names removed.
///
/// Call once, first thing in `main`, before any thread exists.
pub fn scrub() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("HWGC_"))
        .collect();
    names.sort();
    for name in &names {
        std::env::remove_var(name);
    }
    std::env::set_var("HWGC_JOBS", "1");
    names
}

/// 1-minute load average, or -1 where `/proc` has none.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(-1.0)
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Where the benchmark keeps its scratch files and results: inside the
/// build directory, so a checkout stays clean and `cargo clean` clears it.
pub fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("benchmark")
}

#[derive(Debug, Clone)]
pub struct Hygiene {
    pub nproc: usize,
    pub scrubbed: Vec<String>,
    pub rustc: String,
    pub load_start: f64,
}

impl Hygiene {
    pub fn capture(scrubbed: Vec<String>) -> Hygiene {
        Hygiene {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            scrubbed,
            // run.sh passes the compiler version it built with.
            rustc: std::env::var("BENCH_RUSTC").unwrap_or_else(|_| "unknown".to_string()),
            load_start: load_average(),
        }
    }

    /// JSON record; `engine` is the workload's effective engine label.
    pub fn to_json(&self, engine: &str) -> Json {
        Json::Obj(vec![
            ("nproc".to_string(), Json::Int(self.nproc as i128)),
            (
                "scrubbed".to_string(),
                Json::Arr(self.scrubbed.iter().cloned().map(Json::Str).collect()),
            ),
            ("engine".to_string(), Json::Str(engine.to_string())),
            ("rustc".to_string(), Json::Str(self.rustc.clone())),
            ("load_1m_start".to_string(), Json::Float(self.load_start)),
            ("load_1m_end".to_string(), Json::Float(load_average())),
        ])
    }
}
