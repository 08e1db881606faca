//! Percentiles, process memory, on-disk size and host facts.

use std::path::Path;

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `v` and returns its (p50, p99).
pub fn p50_p99(v: &mut [f64]) -> (f64, f64) {
    v.sort_by(f64::total_cmp);
    (quantile(v, 0.50), quantile(v, 0.99))
}

/// Samples per chunk of a timed series: enough that a chunk's p99 has
/// ten samples beyond it.
pub const CHUNK: usize = 1000;

/// p50 and p99 of a timed series, kept per chunk so the raw samples can
/// be dropped as the run goes: each quantile is taken over consecutive
/// [`CHUNK`] samples, and the median over chunks is reported, so a burst
/// of host noise moves one chunk rather than the run's figure.
#[derive(Default)]
pub struct ChunkedQuantiles {
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    samples: usize,
}

impl ChunkedQuantiles {
    /// Adds one stretch of the series, in the order it was measured. A
    /// stretch shorter than two chunks is one chunk; a trailing partial
    /// chunk of a longer one is left out.
    pub fn add(&mut self, series: &[f64]) {
        self.samples += series.len();
        let chunk = if series.len() < 2 * CHUNK {
            series.len().max(1)
        } else {
            CHUNK
        };
        for c in series.chunks_exact(chunk) {
            let (p50, p99) = p50_p99(&mut c.to_vec());
            self.p50s.push(p50);
            self.p99s.push(p99);
        }
    }

    /// Samples added.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Median over chunks of (p50, p99).
    pub fn p50_p99(&self) -> (f64, f64) {
        (
            median(&mut self.p50s.clone()),
            median(&mut self.p99s.clone()),
        )
    }
}

/// Median of `v` (sorts it).
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(v, 0.50)
}

/// Restarts the process's peak-RSS count (`VmHWM`), so the next
/// [`peak_rss_mb`] covers only what ran since. Where the kernel does not
/// offer the reset, the count keeps covering the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Facts about the machine a result was measured on.
pub struct Host {
    /// Available parallelism (client and worker thread count).
    pub nproc: usize,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Commit of the checkout, or "unknown" outside a git checkout.
    pub commit: String,
    /// Filesystem type holding the work directory (from /proc/mounts).
    pub fs: String,
}

impl Host {
    /// Gathers the facts; `work` is the directory the stores live in.
    pub fn probe(work: &Path) -> Self {
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            nproc: nproc(),
            rustc: env!("PERFBENCH_RUSTC"),
            commit,
            fs: fs_type(work),
        }
    }
}

/// Client and worker thread count: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 500.0);
        assert_eq!(quantile(&v, 0.99), 990.0);
        assert_eq!(quantile(&v[..1], 0.99), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn chunked_quantiles_ignore_one_noisy_chunk() {
        let mut series: Vec<f64> = (0..5 * CHUNK).map(|i| (i % CHUNK) as f64).collect();
        for v in &mut series[..CHUNK] {
            *v *= 100.0;
        }
        let mut q = ChunkedQuantiles::default();
        q.add(&series);
        assert_eq!(q.p50_p99(), (499.0, 989.0));
        assert_eq!(q.samples(), 5 * CHUNK);

        let mut short = ChunkedQuantiles::default();
        short.add(&series[..CHUNK + 10]);
        assert_eq!(short.p50_p99(), p50_p99(&mut series[..CHUNK + 10].to_vec()));
    }
}
