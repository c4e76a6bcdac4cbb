//! Latency summaries and host facts.

/// Nearest-rank percentile `q` (in percent) of ascending `sorted` samples:
/// `sorted[⌈q·N/100⌉ − 1]`.
pub fn nearest_rank(sorted: &[u64], q: u64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (sorted.len() as u64 * q).div_ceil(100).max(1);
    Some(sorted[(rank - 1) as usize])
}

/// Samples strictly beyond the nearest-rank percentile `q`.
pub fn beyond(n: usize, q: u64) -> u64 {
    n as u64 - (n as u64 * q).div_ceil(100).max(1).min(n as u64)
}

/// A tail percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: u64 = 10;

/// Percentile `q` of `sorted`, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it (a median is always reportable when non-empty).
pub fn reportable(sorted: &[u64], q: u64) -> Option<u64> {
    if q > 50 && beyond(sorted.len(), q) < MIN_BEYOND {
        return None;
    }
    nearest_rank(sorted, q)
}

/// Median of `xs`, averaging the middle pair.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM:")
}

/// Current resident set size of this process (`VmRSS`), in MiB.
pub fn rss_mb() -> f64 {
    proc_status_mb("VmRSS:")
}

fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host CPU ticks `(steal, total)` from `/proc/stat`: time the hypervisor
/// ran something else while this machine's CPUs wanted to run.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of CPU time stolen by the hypervisor between two [`cpu_ticks`].
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// Worker threads a run may use: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The host CPU model, as `/proc/cpuinfo` names it.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `rustc --version` of the toolchain on `PATH`.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
pub fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).ok().or_else(|| {
            std::fs::read_to_string(".git/packed-refs").ok().and_then(|p| {
                p.lines().find(|l| l.ends_with(r)).map(|l| l[..l.len() - r.len()].to_string())
            })
        }),
        None => Some(head.to_string()),
    };
    commit
        .map(|c| c.trim().to_string())
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_takes_the_ceiling_rank() {
        let xs: Vec<u64> = (1..=200).collect();
        assert_eq!(nearest_rank(&xs, 50), Some(100));
        assert_eq!(nearest_rank(&xs, 99), Some(198));
        assert_eq!(nearest_rank(&[7], 99), Some(7));
        assert_eq!(nearest_rank(&[3, 9], 50), Some(3));
        assert_eq!(nearest_rank(&[], 50), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 over N samples has N − ⌈0.99·N⌉ samples beyond it.
        assert_eq!(beyond(1000, 99), 10);
        assert_eq!(beyond(999, 99), 9);
        assert_eq!(beyond(0, 99), 0);
        let xs: Vec<u64> = (1..=1000).collect();
        assert_eq!(reportable(&xs, 99), Some(990));
        assert_eq!(reportable(&xs[..999], 99), None);
        assert_eq!(reportable(&xs[..5], 50), Some(3), "medians need no tail");
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
