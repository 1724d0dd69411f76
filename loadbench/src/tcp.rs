//! The two TCP workloads: `tcp_hot` (64 tenants re-asking their own
//! analytic chains, every cache warm) and `tcp_churn` (every request a
//! never-seen sampled graph, every cache missed).
//!
//! One generator thread multiplexes `nproc` nonblocking connections, as
//! `bench_net`'s polled load generator does. It waits with `ppoll(2)`
//! rather than `serve::poll::Poller`, whose millisecond timeout cannot
//! hold an open-loop schedule with 8 µs between sends.

use crate::gen::{self, mix, Query, SplitMix};
use crate::report::{fold, nproc, ratio, Chunks, Latencies, Sheet, Spans, WINDOW};
use crate::{Outcomes, CHUNKS};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};
use uncertain_core::{
    EvalConfig, EvalStrategy, HypothesisOutcome, Provenance, ServeError, Session, Uncertain,
    WireGraph,
};
use uncertain_obs::{request_trace_to_json, TraceContext};
use uncertain_serve::wire::{self, FrameDecoder, MAGIC};
use uncertain_serve::{
    tenant_seed, Listener, Request, RequestKind, Response, ServeConfig, ServeMetrics, Service,
};

const TENANTS: u64 = 64;
/// Per-shard queue bound: absorbs ~80 ms of `tcp_hot`'s offered load, so
/// a scheduling stall of the 2-core host delays requests rather than
/// shedding them.
const QUEUE_DEPTH: usize = 4096;
/// `tcp_hot`'s offered open-loop rate: about half the ~250k/s the
/// saturating phase reaches on 2 CPUs (generator on one, service on the
/// other). Fixed, so runs compare like for like.
const HOT_RATE: f64 = 125_000.0;
/// Requests in flight per connection in `tcp_hot`'s saturating phase.
const HOT_WINDOW: usize = 16;
/// Rounds over every tenant after warm-up whose outcomes are
/// fingerprinted: the deterministic prefix of each tenant's stream.
const FIXED_ROUNDS: usize = 3;
/// Tenants whose request history is replayed in process, up to their
/// first `REPLAY_CAP` requests (so memory and replay time stay flat
/// however fast the service runs).
const REPLAY_TENANTS: usize = 4;
const REPLAY_CAP: u32 = 2000;
/// An open-loop run whose p99 send lateness exceeds this is invalid.
const MAX_LATE_P99_US: f64 = 2_000.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Churn,
}

/// Service topology. With two or more CPUs the generator gets the first
/// one and the service the rest (threads inherit the affinity of the
/// thread that spawns them), so the client never competes with the server
/// it measures and thread placement is the same in every run. Shards and
/// event loops split the service's CPUs.
struct Topology {
    shards: usize,
    event_loops: usize,
    conns: usize,
    client_cpus: Vec<usize>,
    server_cpus: Vec<usize>,
}

impl Topology {
    fn for_host() -> Self {
        let cpus = sys::allowed_cpus();
        let (client_cpus, server_cpus) = match cpus.split_first() {
            Some((&first, rest)) if !rest.is_empty() => (vec![first], rest.to_vec()),
            _ => (cpus.clone(), cpus.clone()),
        };
        let half = (server_cpus.len() / 2).max(1);
        Topology {
            shards: half,
            event_loops: half,
            conns: nproc().clamp(1, 8),
            client_cpus,
            server_cpus,
        }
    }
}

/// What the generator expects of one reply.
#[derive(Debug, Clone, Copy)]
struct Expect {
    verdict: Option<bool>,
    /// Exact `Pr` for analytic answers (`tcp_hot`).
    exact_p: Option<f64>,
}

/// A frame with a fixed graph whose correlation id (and trace id, when
/// traced) are patched per request, so hot requests cost a copy, not an
/// encode. The offsets are found by encoding probe values once.
struct Template {
    frame: Vec<u8>,
    id_at: usize,
    trace_at: Option<usize>,
}

const ID_PROBE: u64 = 0x5A17_C0DE_0123_4567;
const TRACE_PROBE: u64 = 0x7EAC_E1D0_89AB_CDEF;

fn locate(bytes: &[u8], needle: u64) -> usize {
    let n = needle.to_le_bytes();
    let hits: Vec<usize> = (0..=bytes.len() - 8)
        .filter(|&i| bytes[i..i + 8] == n)
        .collect();
    assert_eq!(hits.len(), 1, "probe value must occur once in the frame");
    hits[0]
}

fn framed(payload: Vec<u8>) -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

fn evaluate_request(tenant: u64, q: &Query, trace: Option<TraceContext>) -> Request {
    Request {
        tenant,
        kind: RequestKind::Evaluate {
            cond: q.cond.clone(),
            threshold: q.threshold,
        },
        timeout: None,
        strategy: None,
        trace,
    }
}

impl Template {
    fn new(tenant: u64, q: &Query, traced: bool) -> Self {
        let probe = traced.then_some(TraceContext {
            trace_id: TRACE_PROBE,
            parent_span: 0,
            sampled: true,
        });
        let payload = wire::encode_request(ID_PROBE, &evaluate_request(tenant, q, probe))
            .expect("generated graphs are wire-expressible");
        let frame = framed(payload);
        Template {
            id_at: locate(&frame, ID_PROBE),
            trace_at: traced.then(|| locate(&frame, TRACE_PROBE)),
            frame,
        }
    }

    fn render(&self, id: u64, trace_id: Option<u64>) -> Vec<u8> {
        let mut f = self.frame.clone();
        f[self.id_at..self.id_at + 8].copy_from_slice(&id.to_le_bytes());
        if let (Some(at), Some(t)) = (self.trace_at, trace_id) {
            f[at..at + 8].copy_from_slice(&t.to_le_bytes());
        }
        f
    }
}

/// The workload's inputs: everything is a function of the seed.
struct Plan {
    kind: Kind,
    seed: u64,
    service_seed: u64,
    eval: EvalConfig,
    hot: Vec<Query>,
    /// Per hot tenant: untraced and traced frame templates.
    hot_frames: Vec<(Template, Template)>,
}

impl Plan {
    fn new(kind: Kind, seed: u64) -> Self {
        let eval = match kind {
            Kind::Hot => EvalConfig::default().with_strategy(EvalStrategy::Auto),
            Kind::Churn => EvalConfig::default(),
        };
        let mut plan = Plan {
            kind,
            seed,
            service_seed: mix(seed ^ 0x5E5_71CE),
            eval,
            hot: Vec::new(),
            hot_frames: Vec::new(),
        };
        if kind == Kind::Hot {
            let mut rng = SplitMix::new(mix(seed ^ 0x4071));
            // Sizes are spread evenly over tenants, so the traffic mix is
            // the same for every seed; only the parameters are seeded.
            for tenant in 0..TENANTS {
                let links = 10 + (tenant as usize * 40) / (TENANTS as usize - 1);
                let votes = 2 + tenant as usize % 4;
                let q = gen::chain(&mut rng, links, votes);
                plan.hot_frames.push((
                    Template::new(tenant, &q, false),
                    Template::new(tenant, &q, true),
                ));
                plan.hot.push(q);
            }
        }
        plan
    }

    /// The conditional `tenant` asks as its `seq`-th request.
    fn query(&self, tenant: u64, seq: u32) -> Query {
        match self.kind {
            Kind::Hot => self.hot[tenant as usize].clone(),
            Kind::Churn => {
                let mut rng = SplitMix::new(mix(
                    self.seed ^ mix(tenant ^ ((seq as u64) << 32) ^ 0xC4_0A17)
                ));
                if rng.unit() < 0.5 {
                    let links = 120 + rng.below(361);
                    let votes = 2 + rng.below(4);
                    gen::chain(&mut rng, links, votes)
                } else {
                    let fixes = 35 + rng.below(96);
                    gen::gps_decisive(&mut rng, fixes)
                }
            }
        }
    }

    fn config(&self, topo: &Topology) -> ServeConfig {
        // Hot: every tenant keeps its session. Churn: each shard holds a
        // quarter of its tenants, so round-robin traffic rebuilds a session
        // on every request.
        let pool = match self.kind {
            Kind::Hot => TENANTS as usize,
            Kind::Churn => (TENANTS as usize / (4 * topo.shards)).max(1),
        };
        ServeConfig::builder()
            .shards(topo.shards)
            .event_loops(topo.event_loops)
            .sessions_per_shard(pool)
            .queue_depth(QUEUE_DEPTH)
            .seed(self.service_seed)
            .eval(self.eval)
            .bind_addr("127.0.0.1:0")
            .build()
            .expect("benchmark service config is valid")
    }

    /// Encodes the next request; returns the frame and the client-side
    /// encode time.
    fn stage(&self, id: u64, tenant: u64, seq: u32, traced: bool) -> Staged {
        let t0 = Instant::now();
        let trace = traced.then(TraceContext::root);
        let (frame, expect) = match self.kind {
            Kind::Hot => {
                let (plain, with_trace) = &self.hot_frames[tenant as usize];
                let frame = match trace {
                    Some(ctx) => with_trace.render(id, Some(ctx.trace_id)),
                    None => plain.render(id, None),
                };
                let q = &self.hot[tenant as usize];
                (
                    frame,
                    Expect {
                        verdict: q.known_verdict(),
                        exact_p: q.p,
                    },
                )
            }
            Kind::Churn => {
                let q = self.query(tenant, seq);
                let payload = wire::encode_request(id, &evaluate_request(tenant, &q, trace))
                    .expect("generated graphs are wire-expressible");
                (
                    framed(payload),
                    Expect {
                        verdict: q.known_verdict(),
                        exact_p: None,
                    },
                )
            }
        };
        Staged {
            id,
            tenant,
            seq,
            frame,
            expect,
            trace_id: trace.map(|c| c.trace_id),
            encode_ns: t0.elapsed().as_nanos() as u64,
        }
    }
}

struct Staged {
    id: u64,
    tenant: u64,
    seq: u32,
    frame: Vec<u8>,
    expect: Expect,
    trace_id: Option<u64>,
    encode_ns: u64,
}

struct Inflight {
    tenant: u64,
    seq: u32,
    /// Latency origin: the send time, or the due time in an open loop.
    t0: Instant,
    expect: Expect,
    trace_id: Option<u64>,
    encode_ns: u64,
    fixed: bool,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    outpos: usize,
    decoder: FrameDecoder,
    inflight: usize,
    tenants: Vec<u64>,
    cursor: usize,
    staged: Option<Staged>,
}

impl Conn {
    fn flush(&mut self) {
        while self.outpos < self.out.len() {
            match (&self.stream).write(&self.out[self.outpos..]) {
                Ok(n) => self.outpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => panic!("benchmark connection write failed: {e}"),
            }
        }
        self.out.clear();
        self.outpos = 0;
    }
}

/// Minimal Linux bindings: `ppoll(2)` waits for any connection to become
/// readable (or writable, when it has output queued) with a
/// nanosecond-resolution timeout; `sched_{get,set}affinity(2)` place the
/// generator and the service on separate CPUs.
mod sys {
    use std::ffi::c_void;
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;
    /// `cpu_set_t` as 64-bit words (1024 CPUs).
    const CPU_WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> i32;
    }

    /// The CPUs the calling thread may run on.
    pub fn allowed_cpus() -> Vec<usize> {
        let mut mask = [0u64; CPU_WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        assert!(
            rc == 0,
            "sched_getaffinity failed: {}",
            std::io::Error::last_os_error()
        );
        (0..CPU_WORDS * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// Restricts the calling thread, and the threads it spawns from now
    /// on, to `cpus`.
    pub fn pin(cpus: &[usize]) {
        let mut mask = [0u64; CPU_WORDS];
        for &c in cpus {
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        assert!(
            rc == 0,
            "sched_setaffinity failed: {}",
            std::io::Error::last_os_error()
        );
    }

    /// `fds` pairs each descriptor with whether it wants writability.
    pub fn wait(fds: &[(i32, bool)], timeout: Option<Duration>) {
        let mut polls: Vec<PollFd> = fds
            .iter()
            .map(|&(fd, write)| PollFd {
                fd,
                events: POLLIN | if write { POLLOUT } else { 0 },
                revents: 0,
            })
            .collect();
        let ts = timeout.map(|d| Timespec {
            tv_sec: d.as_secs() as i64,
            tv_nsec: d.subsec_nanos() as i64,
        });
        let ts_ptr = ts
            .as_ref()
            .map_or(std::ptr::null(), |t| t as *const Timespec);
        // SAFETY: `polls` is a live, exclusively borrowed array of
        // `polls.len()` `struct pollfd`-layout records; `ts_ptr` is null or
        // points at `ts`, which outlives the call; a null sigmask leaves the
        // signal mask unchanged. The kernel writes only `revents`.
        let rc = unsafe {
            ppoll(
                polls.as_mut_ptr(),
                polls.len() as u64,
                ts_ptr,
                std::ptr::null(),
            )
        };
        if rc < 0 {
            let err = std::io::Error::last_os_error();
            assert!(
                err.kind() == std::io::ErrorKind::Interrupted,
                "ppoll failed: {err}"
            );
        }
    }
}

/// How a phase issues requests.
#[derive(Debug, Clone, Copy)]
enum Pace {
    /// Closed loop: keep `n` requests in flight per connection.
    Window(usize),
    /// Open loop: one request every `1/rate` seconds to a seeded tenant.
    Rate(f64),
}

/// When a phase stops issuing requests (it then drains what is in flight).
#[derive(Debug, Clone, Copy)]
enum Stop {
    After(Duration),
    /// Every tenant sends exactly this many requests.
    Rounds(usize),
}

#[derive(Debug, Default)]
struct PhaseOut {
    completed: u64,
    elapsed: Duration,
    latency: Latencies,
    late: Latencies,
}

/// What the generator learned from replies, for the output checks.
#[derive(Debug, Default)]
struct Log {
    attempted: u64,
    failed: u64,
    queue_full: u64,
    timeouts: u64,
    first_failure: Option<String>,
    /// `(tenant, seq, outcome, fixed-phase?)` for fixed-phase requests of
    /// every tenant and the first requests of the replayed tenants.
    history: Vec<(u64, u32, HypothesisOutcome, bool)>,
}

impl Log {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why);
        }
    }
}

struct Driver<'a> {
    plan: &'a Plan,
    conns: Vec<Conn>,
    pending: HashMap<u64, Inflight>,
    next_id: u64,
    seqs: Vec<u32>,
    replay: Vec<bool>,
    log: Log,
    fixed: bool,
    traced: bool,
    /// Whether replies' latencies are kept (throughput-only phases skip
    /// it, so memory does not grow with the service's speed).
    record: bool,
    spans: Option<Spans>,
    scratch: Vec<u8>,
}

impl<'a> Driver<'a> {
    fn connect(plan: &'a Plan, addr: SocketAddr, conns: usize, replay: Vec<bool>) -> Self {
        let conns = (0..conns)
            .map(|c| {
                let mut stream = TcpStream::connect(addr).expect("connect to the service");
                stream.set_nodelay(true).expect("set TCP_NODELAY");
                stream.write_all(&MAGIC).expect("send protocol preamble");
                stream.set_nonblocking(true).expect("set nonblocking");
                Conn {
                    stream,
                    out: Vec::new(),
                    outpos: 0,
                    decoder: FrameDecoder::new(),
                    inflight: 0,
                    tenants: (0..TENANTS).filter(|t| *t as usize % conns == c).collect(),
                    cursor: 0,
                    staged: None,
                }
            })
            .collect();
        Driver {
            plan,
            conns,
            pending: HashMap::new(),
            next_id: 1,
            seqs: vec![0; TENANTS as usize],
            replay,
            log: Log::default(),
            fixed: false,
            traced: false,
            record: true,
            spans: None,
            scratch: vec![0u8; 64 * 1024],
        }
    }

    fn stage_for(&mut self, tenant: u64) -> Staged {
        let seq = self.seqs[tenant as usize];
        self.seqs[tenant as usize] += 1;
        let id = self.next_id;
        self.next_id += 1;
        self.plan.stage(id, tenant, seq, self.traced)
    }

    /// Stages the connection's next request in round-robin tenant order.
    fn stage_next(&mut self, c: usize) {
        let conn = &mut self.conns[c];
        let tenant = conn.tenants[conn.cursor % conn.tenants.len()];
        conn.cursor += 1;
        let staged = self.stage_for(tenant);
        self.conns[c].staged = Some(staged);
    }

    fn send(&mut self, c: usize, s: Staged, t0: Instant) {
        self.log.attempted += 1;
        let conn = &mut self.conns[c];
        conn.out.extend_from_slice(&s.frame);
        conn.inflight += 1;
        conn.flush();
        self.pending.insert(
            s.id,
            Inflight {
                tenant: s.tenant,
                seq: s.seq,
                t0,
                expect: s.expect,
                trace_id: s.trace_id,
                encode_ns: s.encode_ns,
                fixed: self.fixed,
            },
        );
    }

    fn drive(&mut self, pace: Pace, stop: Stop, seed: u64) -> PhaseOut {
        let start = Instant::now();
        let mut out = PhaseOut::default();
        if let (Pace::Rate(r), Stop::After(d)) = (pace, stop) {
            // Sized up front: a growing buffer would make peak memory
            // depend on the allocator's history.
            let expected = (r * d.as_secs_f64() * 1.02) as usize + 1024;
            out.latency = Latencies::with_capacity(expected);
            out.late = Latencies::with_capacity(expected);
        }
        let mut quota: Vec<usize> = self
            .conns
            .iter()
            .map(|c| match stop {
                Stop::Rounds(r) => r * c.tenants.len(),
                Stop::After(_) => usize::MAX,
            })
            .collect();
        let gap = match pace {
            Pace::Rate(r) => Duration::from_secs_f64(1.0 / r),
            Pace::Window(_) => Duration::ZERO,
        };
        let mut schedule = SplitMix::new(mix(seed ^ 0x0BE7_100F));
        let mut due = start;
        let mut last_done = start;
        loop {
            let now = Instant::now();
            let open = match stop {
                Stop::After(d) => now.duration_since(start) < d,
                Stop::Rounds(_) => quota.iter().any(|&q| q > 0),
            };
            if open {
                match pace {
                    Pace::Window(w) => {
                        for (c, left) in quota.iter_mut().enumerate() {
                            while self.conns[c].inflight < w && *left > 0 {
                                if self.conns[c].staged.is_none() {
                                    self.stage_next(c);
                                }
                                let s = self.conns[c].staged.take().expect("staged above");
                                self.send(c, s, Instant::now());
                                *left -= 1;
                                // Encode the follow-up while the server works.
                                if *left > 0 {
                                    self.stage_next(c);
                                }
                            }
                        }
                    }
                    Pace::Rate(_) => {
                        while due <= now {
                            let tenant = schedule.below(TENANTS as usize) as u64;
                            let c = tenant as usize % self.conns.len();
                            let s = self.stage_for(tenant);
                            out.late
                                .push(Instant::now().duration_since(due).as_nanos() as u64);
                            self.send(c, s, due);
                            due += gap;
                        }
                    }
                }
            } else if self.pending.is_empty() {
                break;
            }
            // Replies free window slots: issue again before waiting.
            if self.read_replies(&mut out, &mut last_done) > 0 {
                continue;
            }
            if !open && self.pending.is_empty() {
                break;
            }
            let timeout = match pace {
                Pace::Rate(_) if open => Some(due.saturating_duration_since(Instant::now())),
                _ if open && matches!(stop, Stop::After(_)) => Some(match stop {
                    Stop::After(d) => (start + d).saturating_duration_since(Instant::now()),
                    Stop::Rounds(_) => unreachable!(),
                }),
                _ => None,
            };
            if timeout != Some(Duration::ZERO) {
                let fds: Vec<(i32, bool)> = self
                    .conns
                    .iter()
                    .map(|c| (c.stream.as_raw_fd(), c.outpos < c.out.len()))
                    .collect();
                sys::wait(&fds, timeout);
            }
            for c in &mut self.conns {
                c.flush();
            }
        }
        // Un-stage: the tenant's next request keeps its sequence number, so
        // every tenant's history stays contiguous for the replay.
        for c in &mut self.conns {
            if let Some(s) = c.staged.take() {
                self.seqs[s.tenant as usize] = s.seq;
            }
        }
        out.elapsed = last_done.duration_since(start);
        out
    }

    /// Reads every available reply; returns how many arrived.
    fn read_replies(&mut self, out: &mut PhaseOut, last_done: &mut Instant) -> usize {
        let mut got = 0;
        for c in 0..self.conns.len() {
            loop {
                let read = (&self.conns[c].stream).read(&mut self.scratch);
                match read {
                    Ok(0) => panic!("the service closed a benchmark connection"),
                    Ok(n) => {
                        let now = Instant::now();
                        *last_done = now;
                        self.conns[c].decoder.push(&self.scratch[..n]);
                        while let Some(frame) = self.conns[c]
                            .decoder
                            .next_frame()
                            .expect("service replies are well-framed")
                        {
                            self.conns[c].inflight -= 1;
                            out.completed += 1;
                            got += 1;
                            self.on_reply(&frame, now, out);
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => panic!("benchmark connection read failed: {e}"),
                }
            }
        }
        got
    }

    fn on_reply(&mut self, frame: &[u8], now: Instant, out: &mut PhaseOut) {
        let decode_start = Instant::now();
        let (id, echo, result) = wire::decode_response(frame).expect("service replies decode");
        let decode_ns = decode_start.elapsed().as_nanos() as u64;
        let inf = self
            .pending
            .remove(&id)
            .expect("every reply answers a pending request");
        let latency_ns = now.duration_since(inf.t0).as_nanos() as u64;
        if self.record {
            out.latency.push(latency_ns);
        }
        if let Some(spans) = self.spans.as_mut() {
            let end = spans.now_ns();
            let start = end.saturating_sub(latency_ns);
            let trace = inf.trace_id.unwrap_or(0);
            let root = spans.record(trace, 0, "request", start, end);
            spans.record(
                trace,
                root,
                "encode",
                start.saturating_sub(inf.encode_ns),
                start,
            );
            spans.record(trace, root, "reply_decode", end, end + decode_ns);
        }
        if echo != inf.trace_id {
            self.log.fail(format!(
                "reply {id} echoed trace {echo:?}, sent {:?}",
                inf.trace_id
            ));
            return;
        }
        let o = match result {
            Ok(Response::Outcome(o)) => o,
            Ok(other) => {
                self.log.fail(format!("evaluate answered {other:?}"));
                return;
            }
            Err(e) => {
                match e {
                    ServeError::QueueFull => self.log.queue_full += 1,
                    ServeError::Timeout => self.log.timeouts += 1,
                    _ => {}
                }
                self.log.fail(format!("request failed: {e}"));
                return;
            }
        };
        if let Err(why) = check_outcome(&o, inf.expect) {
            self.log
                .fail(format!("tenant {} request {}: {why}", inf.tenant, inf.seq));
        }
        if inf.fixed || (self.replay[inf.tenant as usize] && inf.seq < REPLAY_CAP) {
            self.log.history.push((inf.tenant, inf.seq, o, inf.fixed));
        }
    }

    fn close(self) -> Log {
        drop(self.conns);
        self.log
    }
}

/// The output check every reply gets.
fn check_outcome(o: &HypothesisOutcome, expect: Expect) -> Result<(), String> {
    if let Some(v) = expect.verdict {
        if o.accepted != v {
            return Err(format!("verdict {} but the known law says {v}", o.accepted));
        }
    }
    match expect.exact_p {
        Some(p) => {
            if !matches!(o.provenance, Provenance::Exact { .. }) || o.samples != 0 {
                return Err(format!(
                    "expected an analytic answer, got {:?}",
                    o.provenance
                ));
            }
            if (o.estimate - p).abs() > 1e-6 {
                return Err(format!("analytic Pr {} differs from known {p}", o.estimate));
            }
        }
        None => {
            if o.provenance.is_exact() || o.samples == 0 {
                return Err(format!("expected a sampled answer, got {:?}", o.provenance));
            }
        }
    }
    Ok(())
}

/// Counter deltas of the service between two snapshots.
#[derive(Debug, Default, Clone, Copy)]
struct Delta {
    frames_in: u64,
    frames_out: u64,
    wakeups: u64,
    partial_reads: u64,
    writev_batches: u64,
    requests: u64,
    decisions: u64,
    exact: u64,
    rejected: u64,
    timeouts: u64,
    misses: u64,
    evicted: u64,
    queue: (u64, u64),
    compile: (u64, u64),
    sampling: (u64, u64),
}

impl Delta {
    fn between(a: &ServeMetrics, b: &ServeMetrics) -> Self {
        let h = |x: uncertain_obs::HistogramSnapshot, y: uncertain_obs::HistogramSnapshot| {
            (y.count - x.count, y.sum - x.sum)
        };
        Delta {
            frames_in: b.net.frames_in - a.net.frames_in,
            frames_out: b.net.frames_out - a.net.frames_out,
            wakeups: b.net.event_loop_wakeups - a.net.event_loop_wakeups,
            partial_reads: b.net.partial_reads - a.net.partial_reads,
            writev_batches: b.net.writev_batches - a.net.writev_batches,
            requests: b.requests() - a.requests(),
            decisions: b.decisions() - a.decisions(),
            exact: b.exact_decisions() - a.exact_decisions(),
            rejected: b.rejected() - a.rejected(),
            timeouts: b.timeouts() - a.timeouts(),
            misses: b.cache().misses - a.cache().misses,
            evicted: b.sessions_evicted() - a.sessions_evicted(),
            queue: h(a.queue_wait(), b.queue_wait()),
            compile: h(a.compile(), b.compile()),
            sampling: h(a.sampling(), b.sampling()),
        }
    }

    fn add(&mut self, o: Delta) {
        let p = |a: (u64, u64), b: (u64, u64)| (a.0 + b.0, a.1 + b.1);
        self.frames_in += o.frames_in;
        self.frames_out += o.frames_out;
        self.wakeups += o.wakeups;
        self.partial_reads += o.partial_reads;
        self.writev_batches += o.writev_batches;
        self.requests += o.requests;
        self.decisions += o.decisions;
        self.exact += o.exact;
        self.rejected += o.rejected;
        self.timeouts += o.timeouts;
        self.misses += o.misses;
        self.evicted += o.evicted;
        self.queue = p(self.queue, o.queue);
        self.compile = p(self.compile, o.compile);
        self.sampling = p(self.sampling, o.sampling);
    }
}

fn mean_us((count, sum): (u64, u64)) -> f64 {
    ratio(sum, count) / 1e3
}

/// One measured run of a TCP workload.
/// Set-up, repeated `reps` times: start, listen, connect, one warm-up
/// request per tenant. Returns the median time and the last service.
fn set_up<'a>(plan: &'a Plan, seed: u64, reps: usize) -> (f64, Service, Listener, Driver<'a>) {
    let topo = Topology::for_host();
    let mut replay = vec![false; TENANTS as usize];
    let mut order: Vec<u64> = (0..TENANTS).collect();
    order.sort_by_key(|t| mix(seed ^ 0x2E_B1A7 ^ t));
    for &t in order.iter().take(REPLAY_TENANTS) {
        replay[t as usize] = true;
    }
    let mut times = Vec::new();
    let mut kept: Option<(Service, Listener, Driver)> = None;
    for _ in 0..reps {
        if let Some((service, listener, driver)) = kept.take() {
            drop(driver.close());
            listener.shutdown();
            service.shutdown();
        }
        let t0 = Instant::now();
        sys::pin(&topo.server_cpus);
        let service = Service::start(plan.config(&topo));
        let listener = service.listen().expect("listen on a local port");
        sys::pin(&topo.client_cpus);
        let mut driver = Driver::connect(plan, listener.local_addr(), topo.conns, replay.clone());
        driver.fixed = true;
        driver.drive(Pace::Window(1), Stop::Rounds(1), seed);
        times.push(t0.elapsed().as_secs_f64());
        kept = Some((service, listener, driver));
    }
    let (service, listener, driver) = kept.expect("at least one set-up");
    (crate::report::median(&mut times), service, listener, driver)
}

/// The untraced measurement. `tcp_hot`: latency from the open loop at
/// `HOT_RATE` (timed from each request's due time), throughput from the
/// saturating window. `tcp_churn`: both from the closed loop.
fn measure(kind: Kind, driver: &mut Driver, seconds: f64, seed: u64, e2e: &mut Chunks) -> f64 {
    let chunk = |share: f64| Duration::from_secs_f64(seconds * share / CHUNKS as f64);
    let mut late_p99 = 0.0;
    if kind == Kind::Hot {
        let open = driver.drive(
            Pace::Rate(HOT_RATE),
            Stop::After(Duration::from_secs_f64(seconds * 0.6)),
            seed,
        );
        e2e.latency(&open.latency);
        late_p99 = { open.late }.summary_us().1;
    }
    let mut latency = Latencies::default();
    driver.record = kind == Kind::Churn;
    for i in 0..CHUNKS {
        let s = seed ^ i as u64;
        let out = match kind {
            Kind::Hot => driver.drive(Pace::Window(HOT_WINDOW), Stop::After(chunk(0.4)), s),
            Kind::Churn => driver.drive(Pace::Window(1), Stop::After(chunk(1.0)), s),
        };
        e2e.rate(out.completed, out.elapsed);
        if kind == Kind::Churn {
            latency.append(out.latency);
        }
    }
    driver.record = true;
    if kind == Kind::Churn {
        e2e.latency(&latency);
    }
    late_p99
}

/// The traced pass: untraced and traced chunks alternate, so drift hits
/// both alike; per-layer metrics come from the traced
/// chunks' client spans and service counter deltas.
fn traced_pass(
    kind: Kind,
    driver: &mut Driver,
    service: &Service,
    seconds: f64,
    seed: u64,
    layer: &mut Sheet,
) -> f64 {
    let mut rest = 1.0;
    let mut late_p99 = 0.0;
    if kind == Kind::Hot {
        let open = driver.drive(
            Pace::Rate(HOT_RATE),
            Stop::After(Duration::from_secs_f64(seconds * 0.3)),
            seed,
        );
        late_p99 = { open.late }.summary_us().1;
        rest = 0.7;
    }
    let window = match kind {
        Kind::Hot => HOT_WINDOW,
        Kind::Churn => 1,
    };
    let chunk = Duration::from_secs_f64(seconds * rest / CHUNKS as f64);
    let before = service.metrics();
    let (mut plain, mut with) = (Chunks::default(), Chunks::default());
    let mut delta = Delta::default();
    let mut traced_lat = Latencies::default();
    driver.spans = Some(Spans::new());
    for i in 0..CHUNKS {
        let tracing = crate::traced_chunk(i);
        driver.traced = tracing;
        let a = service.metrics();
        let out = driver.drive(Pace::Window(window), Stop::After(chunk), seed ^ i as u64);
        let b = service.metrics();
        if tracing {
            with.rate(out.completed, out.elapsed);
            delta.add(Delta::between(&a, &b));
            traced_lat.append(out.latency);
        } else {
            plain.rate(out.completed, out.elapsed);
        }
    }
    driver.traced = false;
    let spans = driver.spans.take().expect("spans were installed");
    let after = service.metrics();
    let client_mean = traced_lat.summary_us().2;
    let (queue, compile, sampling) = (
        mean_us(delta.queue),
        mean_us(delta.compile),
        mean_us(delta.sampling),
    );
    let unattributed = client_mean - queue - compile - sampling;
    let (plain_dps, with_dps) = (plain.dps(), with.dps());
    layer.set(
        "net.wakeups_per_frame",
        ratio(delta.wakeups, delta.frames_in),
        "ratio",
    );
    layer.set(
        "net.frames_per_writev",
        ratio(delta.frames_out, delta.writev_batches),
        "ratio",
    );
    layer.set(
        "net.partial_reads_per_frame",
        ratio(delta.partial_reads, delta.frames_in),
        "ratio",
    );
    layer.set("net.unattributed_mean_us", unattributed, "us");
    layer.set("client.encode_mean_us", spans.mean_us("encode"), "us");
    layer.set(
        "queue.wait_p50_us",
        after.queue_wait().p50 as f64 / 1e3,
        "us",
    );
    layer.set(
        "queue.wait_p99_us",
        after.queue_wait().p99 as f64 / 1e3,
        "us",
    );
    layer.set(
        "queue.rejected",
        (after.rejected() - before.rejected()) as f64,
        "count",
    );
    layer.set(
        "queue.timeouts",
        (after.timeouts() - before.timeouts()) as f64,
        "count",
    );
    layer.set(
        "pool.evictions_per_request",
        ratio(delta.evicted, delta.requests),
        "ratio",
    );
    layer.set("compile.mean_us", compile, "us");
    layer.set("compile.p99_us", after.compile().p99 as f64 / 1e3, "us");
    layer.set(
        "cache.hit_rate",
        1.0 - ratio(delta.misses, delta.decisions),
        "ratio",
    );
    layer.set("decide.sampling_mean_us", sampling, "us");
    layer.set("exact.share", ratio(delta.exact, delta.decisions), "ratio");
    layer.set(
        "trace.overhead_pct",
        (plain_dps - with_dps) / plain_dps * 100.0,
        "%",
    );
    layer.set(
        "trace.retained",
        (after.flight.retained - before.flight.retained) as f64,
        "count",
    );
    layer.set("share.queue", queue / client_mean, "ratio");
    layer.set("share.compile", compile / client_mean, "ratio");
    layer.set("share.sampling", sampling / client_mean, "ratio");
    layer.set("share.unattributed", unattributed / client_mean, "ratio");
    let name = kind_name(kind);
    crate::write_artifact(&format!("spans-{name}-{seed}.jsonl"), &spans.to_jsonl());
    let exemplars: String = service
        .traces(16)
        .iter()
        .map(|t| request_trace_to_json(t) + "\n")
        .collect();
    crate::write_artifact(&format!("exemplars-{name}-{seed}.jsonl"), &exemplars);
    late_p99
}

/// One run of a TCP workload.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool, setup_reps: usize) -> Outcomes {
    let plan = Plan::new(kind, seed);
    let (setup_s, service, listener, mut driver) = set_up(&plan, seed, setup_reps);

    // The fingerprinted prefix: FIXED_ROUNDS more requests per tenant.
    let window = match kind {
        Kind::Hot => HOT_WINDOW,
        Kind::Churn => 1,
    };
    driver.drive(Pace::Window(window), Stop::Rounds(FIXED_ROUNDS), seed);
    driver.fixed = false;

    let mut layer = Sheet::default();
    let mut e2e = Chunks::default();
    let before = service.metrics();
    let late_p99_us = if traced {
        traced_pass(kind, &mut driver, &service, seconds, seed, &mut layer)
    } else {
        measure(kind, &mut driver, seconds, seed, &mut e2e)
    };
    let total = Delta::between(&before, &service.metrics());
    let log = driver.close();
    listener.shutdown();
    service.shutdown();

    let mut checks = Vec::new();
    if let Some(why) = &log.first_failure {
        println!(
            "CHECK FAILED {} request(s) failed; first: {why}",
            log.failed
        );
    }
    // Fingerprint and replay: every tenant's fixed prefix, and the
    // replayed tenants' first requests, against in-process sessions.
    let verified = verify(&plan, &log, &mut checks, &mut layer);
    if kind == Kind::Hot && late_p99_us > MAX_LATE_P99_US {
        checks.push(format!(
            "open-loop generator fell behind its schedule: p99 lateness {late_p99_us:.0} µs \
             > {MAX_LATE_P99_US} µs; the run's latencies are invalid"
        ));
    }
    let exact_share = ratio(total.exact, total.decisions);
    let miss_rate = ratio(total.misses, total.decisions);
    match kind {
        Kind::Hot if exact_share != 1.0 => {
            checks.push(format!("tcp_hot exact.share {exact_share} != 1.0"))
        }
        Kind::Hot if miss_rate > 0.01 => checks.push(format!(
            "tcp_hot plan-cache miss rate {miss_rate:.4} > 0.01"
        )),
        Kind::Churn if miss_rate < 0.99 => checks.push(format!(
            "tcp_churn plan-cache miss rate {miss_rate:.4} < 0.99"
        )),
        _ => {}
    }

    let error_rate = ratio(log.failed, log.attempted);
    let mut sheet = Sheet::default();
    sheet.set("setup_s", setup_s, "s");
    if !traced {
        sheet.set("decisions_per_s", e2e.dps(), "1/s");
        sheet.set("latency_p50_us", e2e.p50(), "us");
        sheet.set("latency_p99_us", e2e.p99(), "us");
    }
    sheet.set("success_rate", 1.0 - error_rate, "ratio");
    println!(
        "{:<12} latency from {} decisions, median of {WINDOW}-decision windows; \
         error_rate {error_rate} ({} of {} failed, {} queue-full, {} timed out); \
         gen.late_p99_us {late_p99_us:.1}; fingerprint {:016x}",
        kind_name(kind),
        e2e.samples,
        log.failed,
        log.attempted,
        log.queue_full,
        log.timeouts,
        verified.fingerprint
    );
    layer.set("gen.late_p99_us", late_p99_us, "us");
    layer.set(
        "sprt.samples_per_decision",
        verified.samples_per_decision,
        "count",
    );
    Outcomes {
        sheet,
        layer,
        attempted: log.attempted,
        failed: log.failed,
        checks,
        fingerprint: verified.fingerprint,
    }
}

fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Hot => "tcp_hot",
        Kind::Churn => "tcp_churn",
    }
}

struct Verified {
    fingerprint: u64,
    samples_per_decision: f64,
}

/// Replays recorded requests in process on `Session::seeded(tenant_seed)`
/// and compares every outcome bitwise; folds the fixed prefix of every
/// tenant into the workload fingerprint. Also times the analytic path and
/// tallies which backend answered, from the replay sessions.
fn verify(plan: &Plan, log: &Log, checks: &mut Vec<String>, layer: &mut Sheet) -> Verified {
    let mut by_tenant: HashMap<u64, Vec<&(u64, u32, HypothesisOutcome, bool)>> = HashMap::new();
    for h in &log.history {
        by_tenant.entry(h.0).or_default().push(h);
    }
    let mut fps = vec![0u64; TENANTS as usize];
    let (mut fixed_samples, mut fixed_decisions) = (0u64, 0u64);
    let mut dispatch: HashMap<&'static str, u64> = HashMap::new();
    let (mut exact_ns, mut exact_n) = (0u64, 0u64);
    let mut mismatches = 0usize;
    let mut tenants: Vec<u64> = by_tenant.keys().copied().collect();
    tenants.sort_unstable();
    for tenant in tenants {
        let mut hist = by_tenant.remove(&tenant).expect("key from the map");
        hist.sort_by_key(|h| h.1);
        let mut session =
            Session::seeded(tenant_seed(plan.service_seed, tenant)).with_config(plan.eval);
        let mut last_seq = None;
        // A hot tenant asks one graph throughout: rebuild it once.
        let mut hot_cond: Option<Uncertain<bool>> = None;
        for &&(_, seq, ref got, fixed) in &hist {
            // Only contiguous histories can be replayed; the replayed
            // tenants and the fixed prefix are both contiguous from 0.
            if seq != last_seq.map_or(0, |s: u32| s + 1) {
                break;
            }
            last_seq = Some(seq);
            let q = plan.query(tenant, seq);
            let cond = match plan.kind {
                Kind::Hot => hot_cond.get_or_insert_with(|| as_served(&q.cond)).clone(),
                Kind::Churn => as_served(&q.cond),
            };
            let t0 = Instant::now();
            let want = session
                .try_evaluate(&cond, q.threshold, &plan.eval)
                .expect("replayed decisions succeed");
            let ns = t0.elapsed().as_nanos() as u64;
            if want.provenance.is_exact() {
                exact_ns += ns;
                exact_n += 1;
            }
            if let Some(d) = session.last_dispatch() {
                *dispatch.entry(d.as_str()).or_default() += 1;
            }
            let same = want.accepted == got.accepted
                && want.conclusive == got.conclusive
                && want.samples == got.samples
                && want.estimate.to_bits() == got.estimate.to_bits()
                && want.provenance == got.provenance;
            if !same {
                mismatches += 1;
                if mismatches == 1 {
                    checks.push(format!(
                        "replay mismatch: tenant {tenant} request {seq}: \
                         service {got:?}, in process {want:?}"
                    ));
                }
            }
            if fixed {
                fps[tenant as usize] = fold(fps[tenant as usize], got);
                fixed_samples += got.samples as u64;
                fixed_decisions += 1;
            }
        }
    }
    let expected_fixed = TENANTS * (1 + FIXED_ROUNDS as u64);
    if fixed_decisions != expected_fixed {
        checks.push(format!(
            "fixed prefix covered {fixed_decisions} decisions, expected {expected_fixed}"
        ));
    }
    let replayed: u64 = dispatch.values().sum();
    for (backend, metric) in [
        ("kernel", "dispatch.kernel_share"),
        ("closure", "dispatch.closure_share"),
        ("exact", "dispatch.exact_share"),
    ] {
        let n = dispatch.get(backend).copied().unwrap_or(0);
        layer.set(metric, ratio(n, replayed), "ratio");
    }
    layer.set("exact.ns_per_decision", ratio(exact_ns, exact_n), "ns");
    Verified {
        fingerprint: fps.iter().fold(0u64, |acc, &f| mix(acc ^ f)),
        samples_per_decision: ratio(fixed_samples, fixed_decisions),
    }
}

/// The graph the service evaluates for `cond`: its wire round trip. The
/// analytic backend sums in node order, which a rebuild may permute, so
/// an exact `Pr` can differ from the original graph's in the last bits.
fn as_served(cond: &Uncertain<bool>) -> Uncertain<bool> {
    let bytes = WireGraph::from_bool(cond)
        .expect("generated graphs are wire-expressible")
        .to_bytes();
    WireGraph::from_bytes(&bytes)
        .and_then(|w| w.decode_bool())
        .expect("encoded graphs decode")
}

/// Client-side codec cost on the workload's own graphs: `encode_request`
/// (graph → wire bytes → frame payload) and `WireGraph::from_bytes` +
/// `decode_bool` (the server's graph-cache miss path).
pub fn wire_costs(queries: &[Query], layer: &mut Sheet) {
    let requests: Vec<Request> = queries
        .iter()
        .enumerate()
        .map(|(t, q)| evaluate_request(t as u64, q, None))
        .collect();
    let graphs: Vec<Vec<u8>> = queries
        .iter()
        .map(|q| {
            WireGraph::from_bool(&q.cond)
                .expect("generated graphs are wire-expressible")
                .to_bytes()
        })
        .collect();
    let budget = Duration::from_millis(150);
    let (mut enc_ns, mut enc_n, mut bytes) = (0u128, 0u64, 0u64);
    let t0 = Instant::now();
    while t0.elapsed() < budget {
        for (i, r) in requests.iter().enumerate() {
            let s = Instant::now();
            let p = wire::encode_request(i as u64, std::hint::black_box(r))
                .expect("generated graphs are wire-expressible");
            enc_ns += s.elapsed().as_nanos();
            enc_n += 1;
            bytes += 4 + p.len() as u64;
        }
    }
    let (mut dec_ns, mut dec_n) = (0u128, 0u64);
    let t0 = Instant::now();
    while t0.elapsed() < budget {
        for g in &graphs {
            let s = Instant::now();
            let cond: Uncertain<bool> = WireGraph::from_bytes(std::hint::black_box(g))
                .and_then(|w| w.decode_bool())
                .expect("encoded graphs decode");
            dec_ns += s.elapsed().as_nanos();
            dec_n += 1;
            drop(std::hint::black_box(cond));
        }
    }
    layer.set("wire.encode_us", enc_ns as f64 / enc_n as f64 / 1e3, "us");
    layer.set(
        "wire.graph_decode_us",
        dec_ns as f64 / dec_n as f64 / 1e3,
        "us",
    );
    layer.set("wire.request_bytes", bytes as f64 / enc_n as f64, "bytes");
}

/// The workload's graphs for the codec micro-timing: the 64 hot chains,
/// or the first 64 churn requests.
pub fn sample_queries(kind: Kind, seed: u64) -> Vec<Query> {
    let plan = Plan::new(kind, seed);
    (0..TENANTS).map(|t| plan.query(t, 0)).collect()
}
