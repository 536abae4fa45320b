//! Host facts recorded beside every result, and peak resident memory.

/// Threads the benchmark's pool may use: two, or fewer on a smaller host.
pub fn pool_threads() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One line of host metadata.
pub fn metadata(pool: usize) -> String {
    format!(
        "host: nproc={} pool_threads={pool} rustc=\"{}\" commit={}",
        nproc(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT")
    )
}

/// The same facts as JSON fields.
pub fn metadata_json(pool: usize) -> String {
    format!(
        "\"nproc\":{},\"pool_threads\":{pool},\"rustc\":\"{}\",\"commit\":\"{}\"",
        nproc(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT")
    )
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
