//! The in-process load generator of `point_serve`: one load-generator
//! thread, a paced open-loop phase (latency) and a saturated closed-loop
//! phase (throughput) cut into blocks that alternate, plus the
//! engine-side books and the `serve.*` registry read-out.

use crate::inputs::{Capture, Layout, Planned, Verdict, Verdicts};
use crate::util::{median, ms, Metrics};
use gp_radar::Frame;
use gp_serve::{ServeEngine, ServeEvent, SessionId, TelemetrySnapshot};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Partial micro-batches dispatch only on `flush`; load generators flush at the
/// socket front's default cadence (`NetConfig::flush_interval`). The paced
/// generator also sends in ticks of this length (see [`phases`]).
pub const FLUSH_EVERY: Duration = Duration::from_millis(2);
/// Radar frame period at 10 fps.
pub const FRAME_PERIOD: Duration = Duration::from_millis(100);
/// How often the paced generator polls for verdicts between ticks: the
/// resolution of the arrival times latency is taken from.
const POLL_EVERY: Duration = Duration::from_micros(250);
/// Longest wait for the engine to publish every dispatched segment
/// before the next block starts.
const SETTLE_LIMIT: Duration = Duration::from_secs(10);
/// Blocks each phase is cut into. The phases alternate, paced first, so
/// both sample the whole run: a slow stretch of the host moves a few
/// blocks of each phase rather than all of one.
pub const BLOCKS: usize = 5;

/// What is kept of a saturated verdict: session, segment start and end,
/// gesture, user.
type Brief = (SessionId, usize, usize, usize, usize);

/// Engine sessions → the stream each one carries.
type Sessions = HashMap<SessionId, usize>;

/// Flushes and collects published events: those of the paced sessions
/// with their arrival time at the load generator, of the others only
/// what the saturated comparison needs, so the run's memory does not
/// grow with the number of verdicts (and `peak_rss_mb` does not follow
/// the throughput).
pub struct Pump {
    last_flush: Instant,
    paced: Sessions,
    /// Paced events in arrival order with the instant the load generator
    /// got them.
    pub arrivals: Vec<(ServeEvent, Instant)>,
    /// Every other event.
    pub others: Vec<Brief>,
}

impl Pump {
    /// A pump that times the events of `paced` sessions; its first flush
    /// is due one cadence from now.
    pub fn new(paced: Sessions) -> Pump {
        Pump {
            last_flush: Instant::now(),
            paced,
            arrivals: Vec::new(),
            others: Vec::new(),
        }
    }

    fn take(&mut self, events: Vec<ServeEvent>) {
        let now = Instant::now();
        for e in events {
            if self.paced.contains_key(&e.session) {
                self.arrivals.push((e, now));
            } else {
                self.others.push((
                    e.session,
                    e.segment.start,
                    e.segment.end,
                    e.inference.gesture,
                    e.inference.user,
                ));
            }
        }
    }

    /// Takes the events published so far, stamped with the current time.
    pub fn poll(&mut self, engine: &ServeEngine) {
        let events = engine.poll_events();
        if !events.is_empty() {
            self.take(events);
        }
    }

    /// Flushes now, dispatching every queued partial batch.
    pub fn flush(&mut self, engine: &ServeEngine) {
        engine.flush();
        self.last_flush = Instant::now();
    }

    /// One service tick: flush when the cadence is due, then poll.
    pub fn service(&mut self, engine: &ServeEngine) {
        if self.last_flush.elapsed() >= FLUSH_EVERY {
            self.flush(engine);
        }
        self.poll(engine);
    }

    /// Sleeps until `due`, polling every [`POLL_EVERY`].
    pub fn wait_until(&mut self, engine: &ServeEngine, due: Instant) {
        loop {
            self.poll(engine);
            let now = Instant::now();
            if now >= due {
                return;
            }
            std::thread::sleep((due - now).min(POLL_EVERY));
        }
    }

    /// Flushes, then polls until every dispatched segment has published
    /// (or [`SETTLE_LIMIT`] has passed).
    pub fn settle(&mut self, engine: &ServeEngine) {
        self.flush(engine);
        let limit = Instant::now() + SETTLE_LIMIT;
        while engine.outstanding() > 0 && Instant::now() < limit {
            self.poll(engine);
            std::thread::sleep(POLL_EVERY);
        }
        self.poll(engine);
    }

    /// Like [`Pump::settle`] through `ServeEngine::drain`, which also
    /// folds closed sessions into the engine's books; events are stamped
    /// when it returns, so only untimed ones may be pending.
    pub fn drain(&mut self, engine: &ServeEngine) {
        let events = engine.drain();
        self.take(events);
    }
}

/// Keeps every CPU of the box running while the paced phase measures
/// latency.
///
/// Between ticks the load generator sleeps and the engine's worker waits
/// for work. A CPU with nothing to run halts, and on a virtual machine
/// waking a halted CPU goes through the hypervisor, which on a busy host
/// takes from microseconds to milliseconds and changes from run to run:
/// the paced latencies would measure the host's scheduler more than the
/// program. One spinner per CPU in the lowest scheduling class
/// (`SCHED_IDLE`) keeps the CPUs out of halt. A spinner only runs on a
/// CPU no other thread wants and gives it up as soon as a program thread
/// wakes, so it takes no time from the engine or the load generator; it
/// plays the part of keeping CPUs out of deep idle states during a
/// latency measurement on bare metal. A spinner whose class cannot be
/// lowered exits at once instead of competing at normal priority.
pub struct IdleKeepers {
    stop: Arc<AtomicBool>,
    spinning: Arc<AtomicUsize>,
    threads: Vec<JoinHandle<()>>,
}

#[cfg(target_os = "linux")]
fn lower_to_idle_class() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    // SAFETY: plain libc call on the calling thread (pid 0) with a valid
    // pointer to a parameter block that outlives the call.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &SchedParam { sched_priority: 0 }) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn lower_to_idle_class() -> bool {
    false
}

impl IdleKeepers {
    /// Starts one spinner per CPU (`nproc`).
    pub fn start() -> IdleKeepers {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let spinning = Arc::new(AtomicUsize::new(0));
        let threads = (0..cpus)
            .map(|_| {
                let stop = stop.clone();
                let spinning = spinning.clone();
                std::thread::spawn(move || {
                    if !lower_to_idle_class() {
                        return;
                    }
                    spinning.fetch_add(1, Ordering::Relaxed);
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        IdleKeepers {
            stop,
            spinning,
            threads,
        }
    }

    /// Spinners that lowered their class and run.
    pub fn spinning(&self) -> usize {
        self.spinning.load(Ordering::Relaxed)
    }
}

impl Drop for IdleKeepers {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// What the load generator feeds: the engine, the session streams and the
/// segments the engine will close in them.
pub struct Feed<'a> {
    /// The engine under load.
    pub engine: &'a ServeEngine,
    /// Capture pool the layout indexes.
    pub pool: &'a [Capture<Frame>],
    /// Session streams.
    pub layout: &'a Layout,
    /// Segments the engine will close, per session.
    pub plans: &'a [Vec<Planned>],
}

/// The paced phase's raw outcome.
pub struct Paced {
    /// Verdicts keyed by `(stream, start, end)`.
    pub verdicts: Verdicts,
    /// Generator lateness per pushed frame against its tick (ms).
    pub lags_ms: Vec<f64>,
    /// The fewest [`IdleKeepers`] spinners that ran in a paced block.
    pub idle_keepers: usize,
    /// The engine sessions that carried the paced streams.
    pub sessions: Vec<SessionId>,
}

/// The saturated phase's raw outcome.
pub struct Saturated {
    /// Verdicts per second (see [`RateMeter`]).
    pub throughput: f64,
    /// Verdicts counted for it.
    pub counted: u64,
    /// Saturated verdicts compared with the paced verdict of the same
    /// stream segment.
    pub compared: u64,
    /// Comparisons that disagreed (must be zero: batch composition and
    /// timing never change a verdict).
    pub mismatches: u64,
}

/// Saturated-phase throughput from the engine's own books: in each
/// block, after a warm-up ([`RateMeter::WARM_UP`]) refills the pipeline,
/// the published-result count is read every [`RateMeter::STEP`]; the
/// throughput is the median of the per-step rates of all blocks, so
/// stalls and slow stretches of the host that cover fewer than half of
/// the steps do not set it. Reading the engine's books rather than
/// arrivals at the load generator keeps a generator blocked under
/// backpressure from skewing the count.
#[derive(Default)]
pub struct RateMeter {
    warm: Option<Instant>,
    deadline: Option<Instant>,
    marks: Vec<(Instant, u64)>,
    rates: Vec<f64>,
    counted: u64,
}

impl RateMeter {
    /// Interval between reads.
    pub const STEP: Duration = Duration::from_millis(500);
    /// Time the first read of a block waits for (at most a quarter of
    /// the block): the micro-batch queue fills within a few hundred
    /// milliseconds.
    pub const WARM_UP: Duration = Duration::from_millis(500);

    /// Starts a block of `window` from now.
    pub fn block(&mut self, window: Duration) {
        self.close();
        let now = Instant::now();
        self.warm = Some(now + (window / 4).min(Self::WARM_UP));
        self.deadline = Some(now + window);
    }

    /// Reads the engine's books when a step is due; returns `false` once
    /// the block has passed (after taking the final reading).
    pub fn tick(&mut self, engine: &ServeEngine) -> bool {
        let (Some(warm), Some(deadline)) = (self.warm, self.deadline) else {
            return false;
        };
        let now = Instant::now();
        let due = self.marks.last().map_or(warm, |(at, _)| *at + Self::STEP);
        if now >= due || now >= deadline {
            self.marks
                .push((Instant::now(), engine.stats().total_results()));
        }
        now < deadline
    }

    fn close(&mut self) {
        self.rates.extend(self.marks.windows(2).map(|w| {
            (w[1].1 - w[0].1) as f64
                / w[1]
                    .0
                    .saturating_duration_since(w[0].0)
                    .as_secs_f64()
                    .max(1e-9)
        }));
        if let (Some(first), Some(last)) = (self.marks.first(), self.marks.last()) {
            self.counted += last.1 - first.1;
        }
        self.marks.clear();
    }

    /// `(throughput, results counted)` over the measured steps.
    pub fn result(&mut self) -> (f64, u64) {
        self.close();
        (median(&self.rates), self.counted)
    }
}

/// The closed-loop replay: the same streams, frames interleaved in
/// schedule order but sent as fast as backpressure admits, cycling
/// through fresh sessions; resumable across blocks.
struct Replay {
    sessions: Sessions,
    open: Vec<SessionId>,
    j: usize,
    k: usize,
}

impl Replay {
    /// Sends until the meter's block has passed.
    fn run(&mut self, feed: &Feed<'_>, pump: &mut Pump, meter: &mut RateMeter) {
        let engine = feed.engine;
        let streams = feed.layout.frames.len();
        let len = feed.layout.frames.first().map_or(0, Vec::len);
        loop {
            if self.open.is_empty() {
                for k in 0..streams {
                    let id = engine.open_session();
                    self.sessions.insert(id, k);
                    self.open.push(id);
                }
                (self.j, self.k) = (0, 0);
            }
            pump.service(engine);
            if !meter.tick(engine) {
                return;
            }
            let frame = feed.layout.frame(feed.pool, self.k, self.j).clone();
            engine.push_frame(self.open[self.k], frame);
            self.k += 1;
            if self.k == streams {
                (self.j, self.k) = (self.j + 1, 0);
            }
            if self.j == len {
                for id in self.open.drain(..) {
                    engine.close_session(id);
                }
            }
        }
    }
}

/// Runs both phases in [`BLOCKS`] alternating blocks each, paced first.
///
/// Paced: frame `j` of stream `k` is due `(j + k / streams)` frame
/// periods after its block started (10 fps per stream, phases
/// staggered; each block resumes the streams where the last one left
/// them). The generator sends in ticks of [`FLUSH_EVERY`]: at each tick
/// it pushes every frame due since the last one, flushes, and sleeps to
/// the next tick, polling for verdicts. A frame thus waits for its tick
/// instead of for the next flush, as a per-frame sender would, and the
/// generator leaves the worker's core alone between ticks. Latency
/// counts from the frame's due time. [`IdleKeepers`] run in every paced
/// block, and a block ends once the engine has published all it was
/// given. Streams stay open afterwards (see [`crate::inputs::SETTLE`]).
///
/// Saturated: [`Replay`] for `saturated / BLOCKS` per block, measured by
/// [`RateMeter`]; a block ends with the engine drained, so no backlog
/// reaches the next paced block. Each saturated verdict is compared with
/// the paced verdict of the same stream segment.
pub fn phases(feed: &Feed<'_>, saturated: Duration) -> (Paced, Saturated) {
    let engine = feed.engine;
    let n = feed.layout.frames.len();
    let len = feed.layout.frames.first().map_or(0, Vec::len);
    let open: Vec<SessionId> = (0..n).map(|_| engine.open_session()).collect();
    let paced_sessions: Sessions = open.iter().enumerate().map(|(k, &id)| (id, k)).collect();
    let mut pump = Pump::new(paced_sessions.clone());
    let mut lags_ms = Vec::new();
    let mut idle_keepers = usize::MAX;
    // Per paced block: its first frame index and the instant it started.
    let mut starts: Vec<(usize, Instant)> = Vec::new();
    let mut meter = RateMeter::default();
    let mut replay = Replay {
        sessions: Sessions::new(),
        open: Vec::new(),
        j: 0,
        k: 0,
    };
    for b in 0..BLOCKS {
        let keepers = IdleKeepers::start();
        let first = b * len / BLOCKS;
        let start = Instant::now() + Duration::from_millis(5);
        starts.push((first, start));
        let mut tick = start;
        for j in first..(b + 1) * len / BLOCKS {
            for (k, &id) in open.iter().enumerate() {
                let due_at = start + FRAME_PERIOD.mul_f64((j - first) as f64 + k as f64 / n as f64);
                if due_at > tick {
                    pump.flush(engine);
                    let ticks = (due_at - start).as_secs_f64() / FLUSH_EVERY.as_secs_f64();
                    tick = start + FLUSH_EVERY.mul_f64(ticks.ceil());
                    pump.wait_until(engine, tick);
                }
                lags_ms.push(ms(Instant::now().saturating_duration_since(tick)));
                engine.push_frame(id, feed.layout.frame(feed.pool, k, j).clone());
            }
        }
        pump.settle(engine);
        idle_keepers = idle_keepers.min(keepers.spinning());
        drop(keepers);

        meter.block(saturated / BLOCKS as u32);
        replay.run(feed, &mut pump, &mut meter);
        pump.drain(engine);
    }
    let (throughput, counted) = meter.result();

    let phase_start = starts.first().map_or_else(Instant::now, |s| s.1);
    let due_of = |k: usize, j: usize| {
        let (first, start) = starts
            .iter()
            .rev()
            .find(|(first, _)| *first <= j)
            .copied()
            .unwrap_or((0, phase_start));
        start + FRAME_PERIOD.mul_f64((j - first) as f64 + k as f64 / n as f64)
    };
    let verdicts = verdicts_of(
        &pump.arrivals,
        &paced_sessions,
        feed.plans,
        phase_start,
        due_of,
    );

    let mut compared = 0;
    let mut mismatches = 0;
    for &(session, start, end, gesture, user) in &pump.others {
        let paced = replay
            .sessions
            .get(&session)
            .and_then(|&k| verdicts.get(&(k, start, end)));
        if let Some(v) = paced {
            compared += 1;
            if (v.gesture, v.user) != (gesture, user) {
                mismatches += 1;
            }
        }
    }
    (
        Paced {
            verdicts,
            lags_ms,
            idle_keepers,
            sessions: open,
        },
        Saturated {
            throughput,
            counted,
            compared,
            mismatches,
        },
    )
}

/// Turns arrivals into verdicts keyed by stream position, with latency
/// from the closing frame's due time.
fn verdicts_of(
    arrivals: &[(ServeEvent, Instant)],
    sessions: &Sessions,
    plans: &[Vec<Planned>],
    start: Instant,
    due_of: impl Fn(usize, usize) -> Instant,
) -> Verdicts {
    let mut closing: HashMap<(usize, usize, usize), usize> = HashMap::new();
    for (k, planned) in plans.iter().enumerate() {
        for p in planned {
            closing.insert((k, p.start, p.end), p.closes_at);
        }
    }
    arrivals
        .iter()
        .filter_map(|(event, at)| {
            let &k = sessions.get(&event.session)?;
            let key = (k, event.segment.start, event.segment.end);
            let due = closing.get(&key).map(|&j| due_of(key.0, j));
            Some((
                key,
                Verdict {
                    gesture: event.inference.gesture,
                    user: event.inference.user,
                    latency_ms: due.map_or(f64::INFINITY, |d| ms(at.saturating_duration_since(d))),
                    due_ms: due.map_or(f64::NAN, |d| ms(d.saturating_duration_since(start))),
                },
            ))
        })
        .collect()
}

/// Engine-side books of the paced sessions: the engine closed exactly
/// the planned segments, every closed segment either published a result
/// the load generator received or was dropped by noise canceling, and
/// nothing was shed anywhere. Returns the discrepancies (empty when the
/// books reconcile).
pub fn reconcile(engine: &ServeEngine, paced: &Paced, plans: &[Vec<Planned>]) -> Vec<String> {
    let stats = engine.stats();
    let planned: u64 = plans.iter().map(|p| p.len() as u64).sum();
    let mut segments = 0;
    let mut enqueued = 0;
    let mut results = 0;
    for id in &paced.sessions {
        let s = stats.sessions.get(id).cloned().unwrap_or_default();
        segments += s.segments;
        enqueued += s.enqueued;
        results += s.results;
    }
    let received = paced.verdicts.len() as u64;
    let mut problems = Vec::new();
    if segments != planned {
        problems.push(format!(
            "engine closed {segments} segments, the plan has {planned}"
        ));
    }
    if results != enqueued || results != received {
        problems.push(format!(
            "engine enqueued {enqueued} and published {results} results; the load generator received {received}"
        ));
    }
    let shed = stats.total_shed_frames() + stats.total_shed_budget();
    if shed != 0 {
        problems.push(format!("{shed} frames shed"));
    }
    problems
}

fn hist_us(snapshot: &TelemetrySnapshot, name: &str, p: f64) -> f64 {
    snapshot
        .histograms
        .get(name)
        .and_then(|h| h.percentile(p))
        .map_or(f64::NAN, |v| v as f64)
}

fn counter(snapshot: &TelemetrySnapshot, name: &str) -> f64 {
    snapshot.counters.get(name).copied().unwrap_or(0) as f64
}

/// The `serve.*` per-layer metrics from the engine's own registry and
/// books; `wall` is how long the engine served.
pub fn serve_layers(engine: &ServeEngine, wall: Duration) -> Metrics {
    let snap = engine
        .telemetry_snapshot()
        .expect("telemetry is on by default");
    let stats = engine.stats();
    let mut m = Metrics::default();
    m.set(
        "serve.admission_wait_p50_us",
        hist_us(&snap, "serve.stage.admission_wait", 50.0),
        "us",
    );
    m.set(
        "serve.segmentation_p50_us",
        hist_us(&snap, "serve.stage.segmentation", 50.0),
        "us",
    );
    m.set(
        "serve.queue_wait_p50_ms",
        hist_us(&snap, "serve.stage.queue_wait", 50.0) / 1e3,
        "ms",
    );
    m.set(
        "serve.queue_wait_p99_ms",
        hist_us(&snap, "serve.stage.queue_wait", 99.0) / 1e3,
        "ms",
    );
    m.set(
        "serve.inference_p50_ms",
        hist_us(&snap, "serve.stage.inference", 50.0) / 1e3,
        "ms",
    );
    m.set(
        "serve.publish_p50_us",
        hist_us(&snap, "serve.stage.publish", 50.0),
        "us",
    );
    let jobs = counter(&snap, "serve.pool.jobs");
    m.set(
        "serve.batch_size_mean",
        stats.total_results() as f64 / jobs.max(1.0),
        "count",
    );
    m.set(
        "serve.pool_busy_share",
        counter(&snap, "serve.pool.busy_us")
            / (engine.workers() as f64 * wall.as_secs_f64() * 1e6).max(1.0),
        "share",
    );
    let segments = stats.total_segments() as f64;
    m.set(
        "serve.no_result_share",
        (segments - stats.total_results() as f64) / segments.max(1.0),
        "share",
    );
    m
}
