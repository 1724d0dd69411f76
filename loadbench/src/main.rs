//! The repository benchmark: where a decision's time goes, end to end and
//! layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path loadbench/Cargo.toml -- \
//!     --workload tcp_hot|tcp_churn|inproc_sprt --seed N --seconds S --trace 0|1 [--quick]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing anywhere.
//! `--trace 1` is a separate pass: untraced and traced chunks alternate,
//! every traced request carries a sampled `TraceContext`, the benchmark
//! records its own spans around each public call it makes, and the
//! per-layer metrics come from the traced chunks plus the service's own
//! counters. Spans and the service's exemplar traces are written to
//! `loadbench/out/` when the run ends.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The line before it is
//! the environment stamp (git revision, `nproc`, seed, full or quick).
//! Any failed request or failed output check makes the run incorrect and
//! its exit code 1.
//!
//! Predictions, by layer: which per-layer metric should move which
//! end-to-end metric on which workload (on the others it should stay
//! flat). They are printed by every traced run.
const PREDICTIONS: &[(&str, &str, &str, &str)] = &[
    (
        "serve::net/serve::poll",
        "net.wakeups_per_frame, net.frames_per_writev",
        "decisions_per_s, latency_p99_us",
        "tcp_hot",
    ),
    (
        "serve::net/serve::poll",
        "net.partial_reads_per_frame",
        "decisions_per_s, latency_p99_us",
        "tcp_churn",
    ),
    (
        "socket edge + GraphCache",
        "net.unattributed_mean_us",
        "latency_p50_us",
        "tcp_hot",
    ),
    (
        "serve::wire + core::wire",
        "wire.encode_us, wire.graph_decode_us, wire.request_bytes",
        "decisions_per_s",
        "tcp_churn",
    ),
    (
        "serve::service/transport",
        "queue.wait_p50_us, queue.wait_p99_us, queue.rejected, queue.timeouts",
        "latency_p99_us, success_rate",
        "tcp_hot",
    ),
    (
        "serve::service session pool",
        "pool.evictions_per_request",
        "decisions_per_s",
        "tcp_churn",
    ),
    (
        "core::runtime plan cache/compile",
        "compile.mean_us, compile.p99_us, cache.hit_rate",
        "decisions_per_s, latency_p50_us",
        "tcp_churn",
    ),
    (
        "core::kernel/core::plan/stats SPRT",
        "decide.sampling_mean_us, sprt.samples_per_decision, decide.ns_per_sample.gps, \
         dispatch.*_share",
        "decisions_per_s",
        "inproc_sprt",
    ),
    (
        "core::runtime tree-walk fallback",
        "decide.deep_ms_per_decision",
        "decisions_per_s",
        "inproc_sprt",
    ),
    (
        "core::exact",
        "exact.share, exact.ns_per_decision",
        "success_rate (exact.share stays 1.0)",
        "tcp_hot",
    ),
    (
        "dist leaf fill",
        "dist.fill_ns_per_sample.*",
        "decisions_per_s",
        "inproc_sprt",
    ),
    ("obs", "trace.overhead_pct, trace.retained", "none", "all"),
];

mod gen;
mod inproc;
mod report;
mod tcp;

use report::{nproc, Sheet};

/// What a workload run hands back for reporting.
pub struct Outcomes {
    pub sheet: Sheet,
    pub layer: Sheet,
    pub attempted: u64,
    /// Requests or decisions that failed or failed their output check.
    pub failed: u64,
    /// Run-level checks that failed (replay, fingerprint, schedule,
    /// layer coverage); each also counts as one failure.
    pub checks: Vec<String>,
    pub fingerprint: u64,
}

/// The per-layer metrics every traced run reports, in this order; a layer
/// a workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("net.wakeups_per_frame", "ratio"),
    ("net.frames_per_writev", "ratio"),
    ("net.partial_reads_per_frame", "ratio"),
    ("net.unattributed_mean_us", "us"),
    ("client.encode_mean_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.graph_decode_us", "us"),
    ("wire.request_bytes", "bytes"),
    ("queue.wait_p50_us", "us"),
    ("queue.wait_p99_us", "us"),
    ("queue.rejected", "count"),
    ("queue.timeouts", "count"),
    ("pool.evictions_per_request", "ratio"),
    ("compile.mean_us", "us"),
    ("compile.p99_us", "us"),
    ("cache.hit_rate", "ratio"),
    ("decide.sampling_mean_us", "us"),
    ("sprt.samples_per_decision", "count"),
    ("decide.ns_per_sample.gps", "ns"),
    ("decide.deep_ms_per_decision", "ms"),
    ("dispatch.kernel_share", "ratio"),
    ("dispatch.closure_share", "ratio"),
    ("dispatch.exact_share", "ratio"),
    ("exact.share", "ratio"),
    ("exact.ns_per_decision", "ns"),
    ("dist.fill_ns_per_sample.gaussian", "ns"),
    ("dist.fill_ns_per_sample.rayleigh", "ns"),
    ("dist.fill_ns_per_sample.uniform", "ns"),
    ("dist.fill_ns_per_sample.bernoulli", "ns"),
    ("trace.overhead_pct", "%"),
    ("trace.retained", "count"),
    ("gen.late_p99_us", "us"),
    ("share.queue", "ratio"),
    ("share.compile", "ratio"),
    ("share.sampling", "ratio"),
    ("share.unattributed", "ratio"),
];

const END_TO_END: &[&str] = &[
    "setup_s",
    "decisions_per_s",
    "latency_p50_us",
    "latency_p99_us",
    "success_rate",
    "peak_rss_mb",
];

/// Timed phases run in this many chunks and report the median chunk, so
/// a scheduling hiccup moves one chunk, not the result. Traced passes
/// alternate untraced and traced chunks.
pub const CHUNKS: usize = 16;

/// Whether chunk `i` of a traced pass is traced: ABBA order, so a linear
/// drift costs both sides alike.
pub fn traced_chunk(i: usize) -> bool {
    matches!(i % 4, 1 | 2)
}

fn out_dir() -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create the benchmark's output directory");
    dir
}

/// Writes a run artifact under `loadbench/out/`.
pub fn write_artifact(name: &str, contents: &str) {
    std::fs::write(out_dir().join(name), contents).expect("write a benchmark artifact");
}

fn append_artifact(name: &str, line: &str) {
    use std::io::Write;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out_dir().join(name))
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .expect("append to the benchmark's results log");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Asserts that each workload still exercises the layer it exists for.
fn coverage(workload: &str, layer: &Sheet, checks: &mut Vec<String>) {
    let share = |name| layer.get(name);
    let mut expect = |ok: bool, what: &str| {
        if !ok {
            checks.push(format!("layer coverage on {workload}: {what}"));
        }
    };
    match workload {
        "tcp_hot" => {
            expect(share("share.compile") < 0.02, "compile share should be ≈ 0");
            expect(
                share("share.sampling") < 0.2,
                "sampling share should be small",
            );
            expect(share("exact.share") == 1.0, "exact.share should be 1.0");
            expect(
                share("cache.hit_rate") > 0.99,
                "cache.hit_rate should be ≈ 1",
            );
        }
        "tcp_churn" => {
            // Queue wait is time spent behind the other connections'
            // compiles, so the comparison is among the layers that work.
            let compile = share("share.compile");
            expect(
                compile > 0.1 && compile > share("share.sampling"),
                "compile should be the dominant server work layer",
            );
            expect(
                share("cache.hit_rate") < 0.01,
                "cache.hit_rate should be ≈ 0",
            );
        }
        _ => {
            expect(share("share.compile") < 0.02, "compile share should be ≈ 0");
            expect(share("share.sampling") > 0.9, "sampling should dominate");
            expect(
                share("cache.hit_rate") > 0.95,
                "cache.hit_rate should be ≈ 1",
            );
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadbench: {e}");
            std::process::exit(2);
        }
    };
    let seconds = if args.quick {
        args.seconds.min(2.0)
    } else {
        args.seconds
    };
    let setup_reps = if args.quick { 1 } else { 9 };
    let mut out = match args.workload.as_str() {
        "tcp_hot" => tcp::run(tcp::Kind::Hot, args.seed, seconds, args.trace, setup_reps),
        "tcp_churn" => tcp::run(tcp::Kind::Churn, args.seed, seconds, args.trace, setup_reps),
        "inproc_sprt" => inproc::run(args.seed, seconds, args.trace, setup_reps),
        other => {
            eprintln!("loadbench: unknown workload {other:?} (tcp_hot, tcp_churn, inproc_sprt)");
            std::process::exit(2);
        }
    };
    out.sheet.set("peak_rss_mb", report::peak_rss_mb(), "MiB");

    let metrics = if args.trace {
        let queries = match args.workload.as_str() {
            "tcp_hot" => tcp::sample_queries(tcp::Kind::Hot, args.seed),
            "tcp_churn" => tcp::sample_queries(tcp::Kind::Churn, args.seed),
            _ => inproc::shallow_queries(args.seed),
        };
        tcp::wire_costs(&queries, &mut out.layer);
        inproc::fill_costs(&mut out.layer);
        let mut layer = Sheet::default();
        for &(name, unit) in PER_LAYER {
            let value = out.layer.try_get(name).unwrap_or(0.0);
            layer.set(name, value, unit);
        }
        coverage(&args.workload, &layer, &mut out.checks);
        for (l, m, e, w) in PREDICTIONS {
            println!("prediction   {l}: {m} -> {e} on {w}");
        }
        layer
    } else {
        let mut e2e = Sheet::default();
        for &name in END_TO_END {
            e2e.set(name, out.sheet.get(name), out.sheet.unit(name));
        }
        e2e
    };
    metrics.print(&args.workload);
    for c in &out.checks {
        println!("CHECK FAILED {c}");
    }
    let failed = out.failed + out.checks.len() as u64;
    let correct = failed == 0;
    let stamp = format!(
        "{{\"git_rev\": \"{}\", \"nproc\": {}, \"seed\": {}, \"workload\": \"{}\", \
         \"mode\": \"{}\", \"trace\": {}, \"seconds\": {}, \"fingerprint\": \"{:016x}\"}}",
        report::git_rev(),
        nproc(),
        args.seed,
        args.workload,
        if args.quick { "quick" } else { "full" },
        u8::from(args.trace),
        seconds,
        out.fingerprint
    );
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        failed,
        metrics.to_json()
    );
    // Quick and full results go to separate files and never mix.
    let log = if args.quick {
        "quick.jsonl"
    } else {
        "full.jsonl"
    };
    append_artifact(
        log,
        &format!("{{\"stamp\": {stamp}, \"result\": {result}}}\n"),
    );
    println!("{{\"stamp\": {stamp}}}");
    println!("{result}");
    std::process::exit(if correct { 0 } else { 1 });
}
