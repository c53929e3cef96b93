//! Order statistics over latency samples, and peak memory from `/proc`.

/// The highest percentile this benchmark reports as a tail, and the
/// fallbacks tried below it when a run holds too few samples.
const TAIL_CANDIDATES: [f64; 6] = [99.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// A tail reading: the percentile, its value, and how many samples lie
/// strictly beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub beyond: usize,
}

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted slice (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile, at most `max_p`, that leaves at least ten
/// samples beyond it. A workload fixes `max_p` from the sample count its
/// run is sized for, so every run reports the same percentile; the
/// fallbacks only guard an unexpectedly short run.
pub fn tail(values: &[f64], max_p: f64) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    for p in TAIL_CANDIDATES.into_iter().filter(|p| *p <= max_p) {
        if v.is_empty() {
            break;
        }
        let value = percentile(&v, p);
        let beyond = v.iter().filter(|x| **x > value).count();
        if beyond >= 10 {
            return Tail {
                percentile: p,
                value,
                beyond,
            };
        }
    }
    Tail {
        percentile: 100.0,
        value: v.last().copied().unwrap_or(f64::NAN),
        beyond: 0,
    }
}

/// A one-line percentile profile, for the human-readable output.
pub fn profile(values: &[f64]) -> String {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return "no samples".to_owned();
    }
    let ps = [50.0, 90.0, 95.0, 99.0, 99.5];
    let mut parts: Vec<String> = ps
        .iter()
        .map(|p| format!("p{p} {:.3}", percentile(&v, *p)))
        .collect();
    parts.push(format!("max {:.3}", v[v.len() - 1]));
    format!("{} samples: {}", v.len(), parts.join(", "))
}

/// Peak resident set (`VmHWM`) of a process, in MB; `pid` `None` reads the
/// calling process.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&v, 99.0);
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.value, 190.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(tail(&v, 90.0).percentile, 90.0);
    }

    #[test]
    fn median_of_even_count_averages() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
    }
}
