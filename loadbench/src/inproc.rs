//! `inproc_sprt`: the paper's own use. One seeded session, one thread,
//! a fixed program of conditionals decided round-robin with warm caches:
//!
//! * GPS-walk speed conditionals whose threshold sits a few points above
//!   their probability, so the SPRT runs well past its first batch
//!   (kernel + leaf fill + SPRT loop);
//! * an occasional chain deeper than the plan-depth limit, which the
//!   runtime tree-walks and never caches;
//! * analytic chains under `EvalStrategy::Auto` (zero samples).
//!
//! The deep chain recurs every `DEEP_EVERY` rounds so that neither it
//! nor the GPS class takes much more than half the time, and so that it
//! stays under 1% of decisions (p99 then falls inside the GPS class).

use crate::gen::{self, mix, Class, Query, SplitMix};
use crate::report::{fold, ratio, Chunks, Latencies, Sheet, Spans, WINDOW};
use crate::Outcomes;
use crate::CHUNKS;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use uncertain_core::dist::{Bernoulli, Distribution, Gaussian, Rayleigh, Uniform};
use uncertain_core::{EvalConfig, EvalStrategy, HypothesisOutcome, Session};

const GPS: usize = 24;
const ANALYTIC: usize = 8;
const DEEP: usize = 2;
const DEEP_EVERY: usize = 4;
/// Cycles at the start of the timed phase whose outcomes are
/// fingerprinted and re-run on a second session.
const FIXED_CYCLES: usize = 2;

/// The program: the conditionals and one cycle's evaluation order.
struct Program {
    queries: Vec<Query>,
    cycle: Vec<usize>,
}

impl Program {
    fn new(seed: u64) -> Self {
        let mut rng = SplitMix::new(mix(seed ^ 0x1_9C0C));
        let mut queries = Vec::new();
        for i in 0..GPS {
            queries.push(gen::gps_near(&mut rng, i, GPS));
        }
        for i in 0..ANALYTIC {
            let links = 10 + i * 40 / (ANALYTIC - 1);
            queries.push(gen::chain(&mut rng, links, 2 + i % 4));
        }
        for _ in 0..DEEP {
            queries.push(gen::deep_chain(&mut rng));
        }
        let shallow: Vec<usize> = (0..GPS + ANALYTIC).collect();
        let mut cycle = Vec::new();
        for d in 0..DEEP {
            for _ in 0..DEEP_EVERY {
                let mut round = shallow.clone();
                for i in (1..round.len()).rev() {
                    round.swap(i, rng.below(i + 1));
                }
                cycle.extend(round);
            }
            cycle.push(GPS + ANALYTIC + d);
        }
        Program { queries, cycle }
    }
}

fn config(class: Class) -> EvalConfig {
    match class {
        Class::Chain => EvalConfig::default().with_strategy(EvalStrategy::Auto),
        Class::Gps | Class::Deep => EvalConfig::default(),
    }
}

/// One decision plus the per-layer observations taken around it.
struct Step {
    outcome: HypothesisOutcome,
    ns: u64,
    compile_ns: u64,
}

fn decide(session: &mut Session, q: &Query) -> Step {
    let compiled = session.plan_build_ns();
    let t0 = Instant::now();
    let outcome = session
        .try_evaluate(&q.cond, q.threshold, &config(q.class))
        .expect("program conditionals have valid thresholds");
    let ns = t0.elapsed().as_nanos() as u64;
    Step {
        outcome,
        ns,
        compile_ns: session.plan_build_ns() - compiled,
    }
}

/// The output check: analytic answers match the generator's law, and
/// decisive verdicts (analytic and deep) match the known answer.
fn check(q: &Query, o: &HypothesisOutcome) -> Result<(), String> {
    if let Some(v) = q.known_verdict() {
        if o.accepted != v {
            return Err(format!("verdict {} but the known law says {v}", o.accepted));
        }
    }
    match q.class {
        Class::Chain => {
            let p = q.p.expect("chains carry their law");
            if !o.provenance.is_exact() || (o.estimate - p).abs() > 1e-6 {
                return Err(format!("analytic answer {o:?} differs from known Pr {p}"));
            }
        }
        Class::Gps | Class::Deep => {
            if o.provenance.is_exact() || o.samples == 0 {
                return Err(format!("expected a sampled answer, got {o:?}"));
            }
        }
    }
    Ok(())
}

#[derive(Default)]
struct ClassTally {
    decisions: u64,
    ns: u64,
    samples: u64,
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    latency: Latencies,
    gps: ClassTally,
    deep: ClassTally,
    chain: ClassTally,
    compile: Latencies,
    compile_ns: u64,
    kernel: u64,
    closure: u64,
    exact: u64,
}

impl Tally {
    fn note(&mut self, q: &Query, step: &Step, session: &Session) {
        self.attempted += 1;
        self.latency.push(step.ns);
        if let Err(why) = check(q, &step.outcome) {
            self.failed += 1;
            self.first_failure.get_or_insert(why);
        }
        let class = match q.class {
            Class::Gps => &mut self.gps,
            Class::Deep => &mut self.deep,
            Class::Chain => &mut self.chain,
        };
        class.decisions += 1;
        class.ns += step.ns;
        class.samples += step.outcome.samples as u64;
        self.compile.push(step.compile_ns);
        self.compile_ns += step.compile_ns;
        match session.last_dispatch().map(|d| d.as_str()) {
            Some("kernel") => self.kernel += 1,
            Some("closure") => self.closure += 1,
            Some("exact") => self.exact += 1,
            _ => {}
        }
    }
}

impl Tally {
    /// Adds another tally's outcome counts (and first failure) to this one.
    fn absorb(&mut self, other: &mut Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure.take();
        }
    }
}

/// Runs the program on `session` for `budget`, in whole decisions,
/// starting at cycle position `*pos`.
fn run_for(
    program: &Program,
    session: &mut Session,
    pos: &mut usize,
    budget: Duration,
    tally: &mut Tally,
    mut spans: Option<&mut Spans>,
) -> (u64, Duration) {
    let start = Instant::now();
    let mut done = 0u64;
    while start.elapsed() < budget {
        let q = &program.queries[program.cycle[*pos % program.cycle.len()]];
        *pos += 1;
        let t = spans.as_ref().map(|s| s.now_ns());
        let step = decide(session, q);
        if let (Some(s), Some(t)) = (spans.as_deref_mut(), t) {
            let name = match q.class {
                Class::Gps => "decide.gps",
                Class::Deep => "decide.deep",
                Class::Chain => "decide.exact",
            };
            s.record(*pos as u64, 0, name, t, t + step.ns);
        }
        tally.note(q, &step, session);
        done += 1;
    }
    (done, start.elapsed())
}

/// The traced pass: untraced and traced chunks alternate; the traced
/// chunks record a span per decision and give the per-layer metrics.
fn traced_pass(
    program: &Program,
    session: &mut Session,
    pos: &mut usize,
    budget: Duration,
    seed: u64,
    tally: &mut Tally,
    layer: &mut Sheet,
) {
    let chunk = budget / CHUNKS as u32;
    let mut spans = Spans::new();
    let (mut plain, mut with) = (Tally::default(), Tally::default());
    let (mut plain_dps, mut with_dps) = (Chunks::default(), Chunks::default());
    let mut misses = 0u64;
    for i in 0..CHUNKS {
        let before = session.cache_stats().misses;
        if crate::traced_chunk(i) {
            let (done, elapsed) =
                run_for(program, session, pos, chunk, &mut with, Some(&mut spans));
            with_dps.rate(done, elapsed);
            misses += session.cache_stats().misses - before;
        } else {
            let (done, elapsed) = run_for(program, session, pos, chunk, &mut plain, None);
            plain_dps.rate(done, elapsed);
        }
    }
    tally.absorb(&mut plain);
    tally.absorb(&mut with);
    let (plain_dps, with_dps) = (plain_dps.dps(), with_dps.dps());
    let decisions = with.attempted;
    let (_, compile_p99, _) = with.compile.summary_us();
    let client_ns = (with.gps.ns + with.deep.ns + with.chain.ns) as f64;
    let compile_share = with.compile_ns as f64 / client_ns;
    layer.set(
        "compile.mean_us",
        ratio(with.compile_ns, decisions) / 1e3,
        "us",
    );
    layer.set("compile.p99_us", compile_p99, "us");
    layer.set("cache.hit_rate", 1.0 - ratio(misses, decisions), "ratio");
    layer.set(
        "decide.sampling_mean_us",
        (client_ns - with.compile_ns as f64) / decisions as f64 / 1e3,
        "us",
    );
    layer.set(
        "decide.ns_per_sample.gps",
        ratio(with.gps.ns, with.gps.samples),
        "ns",
    );
    layer.set(
        "decide.deep_ms_per_decision",
        ratio(with.deep.ns, with.deep.decisions) / 1e6,
        "ms",
    );
    layer.set(
        "dispatch.kernel_share",
        ratio(with.kernel, decisions),
        "ratio",
    );
    layer.set(
        "dispatch.closure_share",
        ratio(with.closure, decisions),
        "ratio",
    );
    layer.set(
        "dispatch.exact_share",
        ratio(with.exact, decisions),
        "ratio",
    );
    layer.set(
        "exact.share",
        ratio(with.chain.decisions, decisions),
        "ratio",
    );
    layer.set(
        "exact.ns_per_decision",
        ratio(with.chain.ns, with.chain.decisions),
        "ns",
    );
    layer.set(
        "trace.overhead_pct",
        (plain_dps - with_dps) / plain_dps * 100.0,
        "%",
    );
    layer.set("share.compile", compile_share, "ratio");
    layer.set("share.sampling", 1.0 - compile_share, "ratio");
    for (class, t) in [
        ("gps", &with.gps),
        ("deep", &with.deep),
        ("exact", &with.chain),
    ] {
        println!(
            "inproc_sprt  class {class:<5} {:>6} decisions, {:>5.1}% of decide time",
            t.decisions,
            100.0 * t.ns as f64 / client_ns
        );
    }
    crate::write_artifact(
        &format!("spans-inproc_sprt-{seed}.jsonl"),
        &spans.to_jsonl(),
    );
}

pub fn run(seed: u64, seconds: f64, traced: bool, setup_reps: usize) -> Outcomes {
    let session_seed = mix(seed ^ 0x5E_5510);
    // Set-up: build the program and decide each conditional once on a
    // fresh session (first compile of every plan).
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..setup_reps {
        let t0 = Instant::now();
        let program = Program::new(seed);
        let mut session = Session::seeded(session_seed);
        for q in &program.queries {
            decide(&mut session, q);
        }
        setups.push(t0.elapsed().as_secs_f64());
        kept = Some((program, session));
    }
    let (program, mut session) = kept.expect("at least one set-up");

    // The fingerprinted prefix, decided again on a twin session.
    let mut tally = Tally::default();
    let mut checks = Vec::new();
    let mut twin = Session::seeded(session_seed);
    for q in &program.queries {
        decide(&mut twin, q);
    }
    let (mut fp, mut fp_twin, mut samples) = (0u64, 0u64, 0u64);
    let fixed = FIXED_CYCLES * program.cycle.len();
    for i in 0..fixed {
        let q = &program.queries[program.cycle[i % program.cycle.len()]];
        let step = decide(&mut session, q);
        tally.note(q, &step, &session);
        fp = fold(fp, &step.outcome);
        fp_twin = fold(fp_twin, &decide(&mut twin, q).outcome);
        samples += step.outcome.samples as u64;
    }
    drop(twin);
    if fp != fp_twin {
        checks.push(format!(
            "fingerprint {fp:016x} differs from a twin session's {fp_twin:016x}"
        ));
    }

    let mut pos = fixed;
    let mut layer = Sheet::default();
    let budget = Duration::from_secs_f64(seconds);
    let mut e2e = Chunks::default();
    if traced {
        traced_pass(
            &program,
            &mut session,
            &mut pos,
            budget,
            seed,
            &mut tally,
            &mut layer,
        );
    } else {
        let mut latency = Latencies::default();
        for _ in 0..CHUNKS {
            let mut timed = Tally::default();
            let chunk = budget / CHUNKS as u32;
            let (done, elapsed) =
                run_for(&program, &mut session, &mut pos, chunk, &mut timed, None);
            e2e.rate(done, elapsed);
            latency.append(std::mem::take(&mut timed.latency));
            tally.absorb(&mut timed);
        }
        e2e.latency(&latency);
    }

    if let Some(why) = &tally.first_failure {
        println!(
            "CHECK FAILED {} decision(s) failed their output check; first: {why}",
            tally.failed
        );
    }
    let error_rate = ratio(tally.failed, tally.attempted);
    let mut sheet = Sheet::default();
    sheet.set("setup_s", crate::report::median(&mut setups), "s");
    if !traced {
        sheet.set("decisions_per_s", e2e.dps(), "1/s");
        sheet.set("latency_p50_us", e2e.p50(), "us");
        sheet.set("latency_p99_us", e2e.p99(), "us");
    }
    sheet.set("success_rate", 1.0 - error_rate, "ratio");
    println!(
        "inproc_sprt  latency from {} decisions, median of {WINDOW}-decision windows; \
         error_rate {error_rate}; fingerprint {fp:016x}",
        e2e.samples
    );
    layer.set(
        "sprt.samples_per_decision",
        ratio(samples, fixed as u64),
        "count",
    );
    Outcomes {
        sheet,
        layer,
        attempted: tally.attempted,
        failed: tally.failed,
        checks,
        fingerprint: fp,
    }
}

/// The program's shallow conditionals (deep chains excluded), for the
/// codec micro-timing.
pub fn shallow_queries(seed: u64) -> Vec<Query> {
    Program::new(seed)
        .queries
        .into_iter()
        .filter(|q| q.class != Class::Deep)
        .collect()
}

/// `Distribution::fill_column` ns/sample per leaf kind, at the SPRT
/// batch size the kernel fills per step.
pub fn fill_costs(layer: &mut Sheet) {
    let batch = EvalConfig::default().batch;
    let mut rngs: Vec<SmallRng> = (0..batch as u64).map(SmallRng::seed_from_u64).collect();
    fn time<T>(d: &dyn Distribution<T>, rngs: &mut [SmallRng]) -> f64 {
        let mut out = Vec::with_capacity(rngs.len());
        let budget = Duration::from_millis(60);
        let (mut n, t0) = (0u64, Instant::now());
        while t0.elapsed() < budget {
            for _ in 0..256 {
                d.fill_column(rngs, &mut out);
                std::hint::black_box(&out);
            }
            n += 256;
        }
        t0.elapsed().as_nanos() as f64 / (n * rngs.len() as u64) as f64
    }
    let gaussian = Gaussian::new(0.0, 1.0).expect("valid parameters");
    let rayleigh = Rayleigh::new(2.0).expect("valid parameters");
    let uniform = Uniform::new(0.0, std::f64::consts::TAU).expect("valid parameters");
    let bernoulli = Bernoulli::new(0.9).expect("valid parameters");
    layer.set(
        "dist.fill_ns_per_sample.gaussian",
        time(&gaussian, &mut rngs),
        "ns",
    );
    layer.set(
        "dist.fill_ns_per_sample.rayleigh",
        time(&rayleigh, &mut rngs),
        "ns",
    );
    layer.set(
        "dist.fill_ns_per_sample.uniform",
        time(&uniform, &mut rngs),
        "ns",
    );
    layer.set(
        "dist.fill_ns_per_sample.bernoulli",
        time(&bernoulli, &mut rngs),
        "ns",
    );
}
