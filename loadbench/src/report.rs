//! Measurement plumbing shared by the workloads: order statistics, the
//! metric sheet a run prints, the benchmark's own in-memory spans, the
//! environment stamp, and peak memory.

use std::fmt::Write as _;
use std::time::Instant;

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Folds one decision's sample count and estimate bits into a
/// determinism fingerprint.
pub fn fold(fp: u64, o: &uncertain_core::HypothesisOutcome) -> u64 {
    crate::gen::mix(fp ^ o.samples as u64 ^ o.estimate.to_bits())
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    values[values.len() / 2]
}

/// Latency sample in nanoseconds, summarised once at the end.
#[derive(Debug, Default)]
pub struct Latencies(Vec<u64>);

impl Latencies {
    pub fn with_capacity(n: usize) -> Self {
        Latencies(Vec::with_capacity(n))
    }

    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn append(&mut self, mut other: Latencies) {
        self.0.append(&mut other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `(p50, p99, mean)` in microseconds.
    pub fn summary_us(&mut self) -> (f64, f64, f64) {
        self.0.sort_unstable();
        let mean = if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<u64>() as f64 / self.0.len() as f64
        };
        (
            percentile(&self.0, 0.50) as f64 / 1e3,
            percentile(&self.0, 0.99) as f64 / 1e3,
            mean / 1e3,
        )
    }
}

/// Decisions per latency window.
pub const WINDOW: usize = 2000;

/// A phase's throughput per time chunk and latency percentiles per window
/// of `WINDOW` consecutive decisions, each reported as the median over
/// chunks or windows. A host stall of a millisecond or more then moves the
/// windows it lands in, not the result.
#[derive(Debug, Default)]
pub struct Chunks {
    dps: Vec<f64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
    /// Latency observations over all windows.
    pub samples: usize,
}

impl Chunks {
    pub fn rate(&mut self, completed: u64, elapsed: std::time::Duration) {
        self.dps.push(completed as f64 / elapsed.as_secs_f64());
    }

    /// Adds latencies in completion order; a trailing partial window
    /// shorter than half a window is left out of the percentiles (unless
    /// it is all there is).
    pub fn latency(&mut self, lat: &Latencies) {
        self.samples += lat.len();
        let min = (WINDOW / 2).min(lat.len()).max(1);
        for w in lat.0.chunks(WINDOW).filter(|w| w.len() >= min) {
            let mut sorted = w.to_vec();
            sorted.sort_unstable();
            self.p50.push(percentile(&sorted, 0.50) as f64 / 1e3);
            self.p99.push(percentile(&sorted, 0.99) as f64 / 1e3);
        }
    }

    pub fn dps(&mut self) -> f64 {
        median(&mut self.dps)
    }

    pub fn p50(&mut self) -> f64 {
        median(&mut self.p50)
    }

    pub fn p99(&mut self) -> f64 {
        median(&mut self.p99)
    }
}

/// The metrics one run reports, in the order they were recorded.
#[derive(Debug, Default)]
pub struct Sheet(Vec<(&'static str, f64, &'static str)>);

impl Sheet {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.0.push((name, value, unit)),
        }
    }

    pub fn try_get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn get(&self, name: &str) -> f64 {
        self.try_get(name)
            .unwrap_or_else(|| panic!("metric {name} was never recorded"))
    }

    pub fn unit(&self, name: &str) -> &'static str {
        self.0
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, _, u)| *u)
            .unwrap_or_else(|| panic!("metric {name} was never recorded"))
    }

    pub fn print(&self, workload: &str) {
        for (name, value, unit) in &self.0 {
            println!("{workload:<12} {name:<34} {value:>16.4} {unit}");
        }
    }

    /// `{"name": {"value": v, "unit": u}, …}` over every metric.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

/// One span the benchmark records around a public call it makes.
#[derive(Debug, Clone, Copy)]
struct SpanRec {
    trace: u64,
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Spans held in memory during the traced pass and written out at the
/// end. Bounded: past `CAP` spans, further ones are not kept.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<SpanRec>,
    next_id: u32,
}

impl Spans {
    const CAP: usize = 30_000;

    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_id: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id (for children).
    pub fn record(
        &mut self,
        trace: u64,
        parent: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        self.next_id += 1;
        if self.spans.len() < Self::CAP {
            self.spans.push(SpanRec {
                trace,
                id: self.next_id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        }
        self.next_id
    }

    /// Mean duration in microseconds of the spans called `name`.
    pub fn mean_us(&self, name: &str) -> f64 {
        let (n, sum) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, sum), s| {
                (n + 1, sum + (s.end_ns - s.start_ns))
            });
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64 / 1e3
        }
    }

    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(self.spans.len() * 96);
        for r in &self.spans {
            let _ = writeln!(
                s,
                "{{\"trace\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                r.trace, r.id, r.parent, r.name, r.start_ns, r.end_ns
            );
        }
        s
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("peak memory is read from /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kb / 1024.0
}

/// The git revision of the checkout, read from its `.git` directory when
/// there is one (an exported source tree has none: "unknown").
pub fn git_rev() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).map(|s| s.trim().to_string());
    let Ok(head) = read("HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(reference)
        .ok()
        .or_else(|| {
            read("packed-refs").ok()?.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
