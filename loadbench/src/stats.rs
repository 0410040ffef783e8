//! Order statistics and the result line.

use std::fmt::Write as _;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by nearest rank; 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A log-bucketed histogram of microsecond values with 0.1 % relative
/// resolution and fixed memory, so the client's footprint does not grow
/// with the number of requests it answers (it shares `peak_rss_mb` with
/// the server).
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
}

/// Buckets per factor of e: adjacent bucket bounds differ by 0.1 %.
const PER_E: f64 = 1000.0;
/// Largest bucketed value, e^19 µs ≈ 178 s; larger values share it.
const MAX_LN: f64 = 19.0;

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; (MAX_LN * PER_E) as usize + 2],
            n: 0,
        }
    }
}

impl Hist {
    /// Records one value in µs.
    pub fn add(&mut self, us: f64) {
        let i = if us <= 1.0 {
            0
        } else {
            ((us.ln() * PER_E) as usize + 1).min(self.counts.len() - 1)
        };
        self.counts[i] += 1;
        self.n += 1;
    }

    /// Adds every value of `other`.
    pub fn merge(&mut self, other: &Hist) {
        // Only touched buckets are written, so untouched pages of the
        // zeroed array stay unmapped.
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            if b != 0 {
                *a += b;
            }
        }
        self.n += other.n;
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile by nearest rank, as its bucket's midpoint in µs;
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return if i == 0 {
                    0.5
                } else {
                    ((i as f64 - 0.5) / PER_E).exp()
                };
            }
        }
        unreachable!("rank is at most the count")
    }

    /// The median in µs.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// The median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Duration → milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Duration → microseconds.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

/// Current resident set size of this process in bytes (`VmRSS`).
pub fn rss_bytes() -> f64 {
    proc_status_kb("VmRSS:") * 1024.0
}

fn proc_status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// One named metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// First few failure descriptions, for stderr.
    pub errors: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Further figures printed in the table but not in the result line.
    pub info: Vec<Metric>,
}

impl Outcome {
    /// Counts one attempted operation and its result.
    pub fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// Counts one failure of an already-counted operation.
    fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(error);
        }
    }

    /// Merges a client's counts.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 10 {
                self.errors.push(e);
            }
        }
    }

    /// The final JSON line.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                r#"{sep}"{}": {{"value": {value:?}, "unit": "{}"}}"#,
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
