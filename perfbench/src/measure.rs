//! Timing statistics, process memory readings and the result record.

use std::fmt::Write as _;

/// One reported figure: a name, a measured value and its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Per-operation wall times of one run, in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Timings {
    ns: Vec<u64>,
}

/// The percentiles a tail figure may report, in per mille, highest first.
/// The ladder stops at p99: on `family-sweep` (360 000 samples) p99.9
/// falls among the few heaviest diagnoses of the two 5 040-node
/// instances and follows the share of the run the host spent in its slow
/// state, so it spread 17–28% between runs of the same code where p99
/// spread 5%.
const TAIL_LADDER: [usize; 5] = [990, 950, 900, 750, 500];

/// Nearest rank (1-based) of the `per_mille` percentile among `n` samples.
fn rank(per_mille: usize, n: usize) -> usize {
    (per_mille * n).div_ceil(1000).max(1)
}

impl Timings {
    /// Room for `n` timings, with every page of the buffer already
    /// written (a non-zero fill, so no page stays a lazily mapped zero
    /// page): allocated before the baseline RSS reading, it then stays out
    /// of the program's peak.
    pub fn with_capacity(n: usize) -> Self {
        let mut ns = Vec::with_capacity(n);
        ns.resize(n, u64::MAX);
        std::hint::black_box(&mut ns);
        ns.clear();
        Timings { ns }
    }

    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    fn sorted(&self) -> Vec<u64> {
        let mut v = self.ns.clone();
        v.sort_unstable();
        v
    }

    /// Median in milliseconds (mean of the two middle samples when the
    /// count is even).
    pub fn median_ms(&self) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return f64::NAN;
        }
        let mid = v.len() / 2;
        let ns = if v.len() % 2 == 1 {
            v[mid] as f64
        } else {
            (v[mid - 1] as f64 + v[mid] as f64) / 2.0
        };
        ns / 1e6
    }

    /// The tail figure: `(percentile, value in ms)` at the nearest rank
    /// of [`tail_per_mille`], which leaves at least ten samples beyond it.
    pub fn tail_ms(&self) -> (f64, f64) {
        let v = self.sorted();
        let p = tail_per_mille(v.len());
        let percentile = p as f64 / 10.0;
        if v.is_empty() {
            return (percentile, f64::NAN);
        }
        (percentile, v[rank(p, v.len()) - 1] as f64 / 1e6)
    }
}

/// The highest percentile of the ladder 99 / 95 / 90 / 75 / 50
/// (in per mille) with at least ten of `n` samples beyond its nearest
/// rank.
fn tail_per_mille(n: usize) -> usize {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n >= rank(p, n) + 10)
        .unwrap_or(500)
}

/// Median of a small list of durations, in seconds.
pub fn median_s(ns: &[u64]) -> f64 {
    let mut t = Timings::with_capacity(ns.len());
    for &x in ns {
        t.push(x);
    }
    t.median_ms() / 1e3
}

/// A field of `/proc/self/status`, in bytes (the kernel reports kB).
fn status_bytes(key: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read process status for memory figures: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map(|kb| kb * 1024)
        .ok_or_else(|| format!("process status has no `{key}` line"))
}

/// Current resident set size in bytes.
pub fn rss_bytes() -> Result<u64, String> {
    status_bytes("VmRSS:")
}

/// Peak resident set size of the process so far, in bytes.
pub fn peak_rss_bytes() -> Result<u64, String> {
    status_bytes("VmHWM:")
}

/// What one benchmark run hands back: the operation tally, every metric
/// of the requested kind, and context lines (resolved knobs, sample
/// counts) printed ahead of the result.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// No diagnosis returned a labelling that differs from the planted
    /// truth, the naive baseline or the sampled verification.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// `(key, JSON value)` pairs for the context line.
    pub context: Vec<(String, String)>,
}

impl Report {
    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not a finite number", m.name));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }

    /// The context line: one JSON object of the recorded pairs.
    pub fn context_json(&self) -> String {
        let body: Vec<String> = self
            .context
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_per_mille(40), 750);
        assert_eq!(tail_per_mille(100), 900);
        assert_eq!(tail_per_mille(1000), 990);
        assert_eq!(tail_per_mille(10_000), 990);
        assert_eq!(tail_per_mille(360_000), 990);
        let mut t = Timings::default();
        for i in 1..=40u64 {
            t.push(i * 1_000_000);
        }
        let (p, ms) = t.tail_ms();
        assert_eq!(p, 75.0);
        assert_eq!(ms, 30.0);
        assert_eq!(t.median_ms(), 20.5);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 1,
            metrics: vec![Metric::new("setup_s", 0.5, "s")],
            context: Vec::new(),
        };
        assert_eq!(
            r.result_json().unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        let bad = Report {
            metrics: vec![Metric::new("x", f64::NAN, "s")],
            ..r
        };
        assert!(bad.result_json().is_err());
    }
}
