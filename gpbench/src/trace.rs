//! The traced run: per-layer metrics.
//!
//! Timed runs record no benchmark spans. The traced run repeats the
//! workload, reads the program's own registry, then replays the run's
//! inputs offline through the public calls of each layer, in the order
//! the engine makes them, with one span per call: name, start, end,
//! parent and the gesture (or batch) it serves. A layer's self time is
//! its span minus its children; the share of a unit of work (a frame, a
//! batch, a performance) that no layer span covers is
//! `bench.unattributed_share`. Calls that sit *inside* another timed
//! call (say `NoiseCanceler::clean` inside `Preprocessor::assemble`) are
//! timed as separate probe calls on the same input, outside the units.
//!
//! Layers a workload does not exercise are measured on a small seeded
//! probe input set, so every per-layer metric has a value in every
//! traced run; `gpbench/README.md` maps which workload each metric
//! belongs to.

use crate::capture::Job;
use crate::cohort;
use crate::gallery::{build_gallery, RunDir};
use crate::inputs::{pool, rd_capture, Capture, Layout};
use crate::report::Report;
use crate::serving::serve_layers;
use crate::setup::{Loaded, SetupStats};
use crate::util::{mean, median, ms, timed, Metrics};
use gestureprint_core::GesturePrint;
use gp_codec::FrameDecoder;
use gp_net::wire::{from_wire, to_wire};
use gp_net::{ClientMsg, ServerMsg};
use gp_pipeline::{
    GestureSample, LabeledSample, NoiseCanceler, OnlineSegmenter, Preprocessor, PreprocessorConfig,
};
use gp_pointcloud::dbscan::{dbscan, DbscanConfig};
use gp_radar::processing::{detect, estimate_angles, power_map, process_cube, range_doppler_maps};
use gp_radar::signal::synthesize_frame;
use gp_radar::{Frame, RadarConfig, Scene};
use gp_rd::{
    dominant_segment, extract_sample, OnlineRdSegmenter, RdConfig, RdFrame, RdLabeledSample,
    RdSegmentConfig, RdSynthesizer,
};
use gp_serve::{IdentityStore, RegistryConfig, ServeConfig, ServeEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A run whose unattributed share exceeds this is flagged: the spans
/// no longer explain where the time goes.
pub const UNATTRIBUTED_BOUND: f64 = 0.10;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (`layer.call`, `unit.*` for a unit of work).
    pub name: &'static str,
    /// Start, from the tracer's epoch.
    pub start: Duration,
    /// End, from the tracer's epoch.
    pub end: Duration,
    /// Enclosing span.
    pub parent: Option<usize>,
    /// The gesture (or batch) this call serves.
    pub group: u64,
}

/// In-memory span recorder; disabled, it runs the calls untouched.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<usize>,
    /// Recorded spans, in start order.
    pub spans: Vec<Span>,
    /// Derived per-call samples (ratios, counts) by metric name.
    pub values: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    /// A tracer that records (`on`) or only runs the calls.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, group: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            parent: self.stack.last().copied(),
            group,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes the span `begin` returned.
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end = self.epoch.elapsed();
            self.stack.pop();
        }
    }

    /// Times one call that opens no spans of its own.
    pub fn leaf<T>(&mut self, name: &'static str, group: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, group);
        let out = std::hint::black_box(f());
        self.end(id);
        out
    }

    /// Duration of the most recently closed span named `name`.
    fn last(&self, name: &str) -> Option<Duration> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map(|s| s.end.saturating_sub(s.start))
    }

    /// Records a derived sample (only while tracing).
    pub fn value(&mut self, name: &'static str, v: f64) {
        if self.on {
            self.values.entry(name).or_default().push(v);
        }
    }

    /// Durations of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end.saturating_sub(s.start))
            .collect()
    }

    /// Share of `unit.*` root time not covered by a child span.
    pub fn unattributed_share(&self) -> f64 {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end.saturating_sub(s.start);
            }
        }
        let (mut total, mut uncovered) = (0.0, 0.0);
        for (s, c) in self.spans.iter().zip(&covered) {
            if s.parent.is_none() && s.name.starts_with("unit.") {
                let d = s.end.saturating_sub(s.start);
                total += d.as_secs_f64();
                uncovered += d.saturating_sub(*c).as_secs_f64();
            }
        }
        uncovered / total.max(1e-12)
    }
}

/// Span-name → metric mapping for the per-call timings: `(metric, span,
/// scale from seconds)`.
const TIMED: &[(&str, &str, f64)] = &[
    ("pipeline.segment_push_us", "pipeline.segment_push", 1e6),
    ("pipeline.assemble_us", "pipeline.assemble", 1e6),
    ("pipeline.noise_cancel_us", "pipeline.noise_cancel", 1e6),
    ("pipeline.process_ms", "pipeline.process", 1e3),
    ("pointcloud.dbscan_us", "pointcloud.dbscan", 1e6),
    ("models.encode_us", "models.encode", 1e6),
    ("models.gesture_batch_ms", "models.gesture_batch", 1e3),
    ("models.identifier_batch_ms", "models.identifier_batch", 1e3),
    ("models.embedding_ms", "models.embedding", 1e3),
    ("core.infer_batch_ms", "core.infer_batch", 1e3),
    ("rd.segment_push_us", "rd.segment_push", 1e6),
    ("rd.extract_ms", "rd.extract", 1e3),
    ("rd.infer_ms", "rd.infer", 1e3),
    ("store.identify_us", "store.identify", 1e6),
    ("store.enroll_us", "store.enroll", 1e6),
    ("store.open_ms", "store.open", 1e3),
    ("net.frame_decode_us", "net.frame_decode", 1e6),
    ("net.result_encode_us", "net.result_encode", 1e6),
    ("radar.synthesize_ms", "radar.synthesize", 1e3),
    ("radar.range_doppler_ms", "radar.range_doppler", 1e3),
    ("radar.cfar_ms", "radar.cfar", 1e3),
    ("radar.angles_us", "radar.angles", 1e6),
    ("kinematics.scatterers_us", "kinematics.scatterers", 1e6),
];

/// Derived samples reported as their median (ratios) or mean (counts).
const DERIVED: &[(&str, &str, bool)] = &[
    ("models.identifier_groups_per_batch", "count", false),
    ("core.encode_share", "share", true),
    ("rd.synthesize_ms", "ms", true),
    ("radar.detections_per_frame", "count", false),
];

fn unit_of(metric: &str) -> &'static str {
    if metric.ends_with("_us") {
        "us"
    } else {
        "ms"
    }
}

/// Turns the spans and samples of every tracer into per-layer metrics;
/// a metric takes the first tracer (in order) that measured it.
fn layer_metrics(tracers: &[&Tracer]) -> Metrics {
    let mut m = Metrics::default();
    for &(metric, span, scale) in TIMED {
        let samples = tracers
            .iter()
            .map(|t| t.durations(span))
            .find(|d| !d.is_empty())
            .unwrap_or_default();
        let secs: Vec<f64> = samples.iter().map(Duration::as_secs_f64).collect();
        m.set(metric, median(&secs) * scale, unit_of(metric));
    }
    for &(metric, unit, use_median) in DERIVED {
        let samples = tracers
            .iter()
            .filter_map(|t| t.values.get(metric))
            .find(|v| !v.is_empty())
            .cloned()
            .unwrap_or_default();
        let v = if use_median {
            median(&samples)
        } else {
            mean(&samples)
        };
        m.set(metric, v, unit);
    }
    let extract = m.get("rd.extract_ms").unwrap_or(f64::NAN);
    let infer = m.get("rd.infer_ms").unwrap_or(f64::NAN);
    m.set("rd.extract_share", extract / infer, "share");
    m
}

/// Replays point-cloud streams through the engine's per-frame and
/// per-batch calls: `OnlineSegmenter::push_frame` per frame,
/// `Preprocessor::assemble` per closed segment, then per batch of
/// `batch` segments the gesture model and one identifier per recognised
/// gesture. With an identity role per stream (`Some(true)` identify,
/// `Some(false)` enroll) each segment also runs the embedding, the store
/// call and the result encoding, and each frame its wire decode.
struct PointReplay<'a> {
    system: &'a GesturePrint,
    streams: Vec<Vec<Frame>>,
    wire: Option<Vec<Vec<Vec<u8>>>>,
    roles: Vec<Option<bool>>,
    batch: usize,
    store: Option<&'a IdentityStore>,
}

impl PointReplay<'_> {
    fn run(&self, tr: &mut Tracer, probes: &mut Tracer) {
        let pre = Preprocessor::new(PreprocessorConfig::default());
        let config = pre.config().clone();
        let mut segmenters: Vec<OnlineSegmenter> = self
            .streams
            .iter()
            .map(|_| OnlineSegmenter::new(config.segmenter.clone()))
            .collect();
        let len = self.streams.iter().map(Vec::len).max().unwrap_or(0);
        let mut pending: Vec<(usize, LabeledSample)> = Vec::new();
        let mut batches = 0u64;
        let mut segments = 0u64;
        for j in 0..len {
            for (k, stream) in self.streams.iter().enumerate() {
                let Some(frame) = stream.get(j) else { continue };
                let unit = tr.begin("unit.frame", k as u64);
                if let Some(wire) = &self.wire {
                    tr.leaf("net.frame_decode", k as u64, || {
                        from_wire::<ClientMsg>(&wire[k][j]).expect("own encoding decodes")
                    });
                }
                let closed = tr.leaf("pipeline.segment_push", k as u64, || {
                    segmenters[k].push_frame(frame)
                });
                let sample = closed.and_then(|seg| {
                    segments += 1;
                    tr.leaf("pipeline.assemble", segments, || {
                        pre.assemble(&stream[seg.start..seg.end], seg.start)
                    })
                    .map(|s| (seg, s))
                });
                tr.end(unit);
                if let Some((seg, sample)) = sample {
                    probe_noise(probes, &config, &stream[seg.start..seg.end], segments);
                    pending.push((k, LabeledSample::from_sample(sample, 0, 0)));
                }
                if pending.len() >= self.batch {
                    batches += 1;
                    self.infer(tr, probes, std::mem::take(&mut pending), batches);
                }
            }
        }
        // The final partial batch dispatches as a flush would.
        if !pending.is_empty() {
            self.infer(tr, probes, pending, batches + 1);
        }
    }

    fn infer(
        &self,
        tr: &mut Tracer,
        probes: &mut Tracer,
        jobs: Vec<(usize, LabeledSample)>,
        id: u64,
    ) {
        let refs: Vec<&LabeledSample> = jobs.iter().map(|(_, s)| s).collect();
        let unit = tr.begin("unit.batch", id);
        let gesture_probs = tr.leaf("models.gesture_batch", id, || {
            self.system.gesture_model().probabilities_batch(&refs)
        });
        let gestures: Vec<usize> = gesture_probs.iter().map(|p| argmax(p)).collect();
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, &g) in gestures.iter().enumerate() {
            groups.entry(g).or_default().push(i);
        }
        let mut users = vec![0usize; jobs.len()];
        for (&g, members) in &groups {
            let subset: Vec<&LabeledSample> = members.iter().map(|&i| refs[i]).collect();
            let probs = tr.leaf("models.identifier_batch", id, || {
                self.system.identifier_for(g).probabilities_batch(&subset)
            });
            for (&i, p) in members.iter().zip(&probs) {
                users[i] = argmax(p);
            }
        }
        for (i, (k, sample)) in jobs.iter().enumerate() {
            let Some(identify) = self.roles[*k] else {
                continue;
            };
            let store = self.store.expect("identity roles need a store");
            let embedding = tr.leaf("models.embedding", id, || {
                self.system.embedding_for_gesture(sample, gestures[i])
            });
            if let Some(embedding) = embedding {
                if identify {
                    tr.leaf("store.identify", id, || store.identify(&embedding));
                } else {
                    tr.leaf("store.enroll", id, || {
                        store.enroll(&format!("replay-{id}-{i}"), &embedding)
                    })
                    .expect("replay enrollment");
                }
            }
            tr.leaf("net.result_encode", id, || {
                to_wire(
                    &ServerMsg::Result {
                        seq: id,
                        start: 0,
                        end: sample.duration_frames as u64,
                        gesture: gestures[i] as u64,
                        user: users[i] as u64,
                        latency_us: 0,
                        identity: None,
                    },
                    1 << 20,
                )
            });
        }
        tr.end(unit);
        tr.value("models.identifier_groups_per_batch", groups.len() as f64);

        // Probes: the composite call the decomposition stands for (its
        // results must agree), and the per-sample encoding inside it.
        let full = probes.leaf("core.infer_batch", id, || self.system.infer_batch(&refs));
        let agree = full
            .iter()
            .zip(gestures.iter().zip(&users))
            .all(|(inf, (&g, &u))| inf.gesture == g && inf.user == u);
        assert!(
            agree,
            "decomposed batch inference disagrees with infer_batch"
        );
        let mut encode = 0.0;
        for sample in &refs {
            probes.leaf("models.encode", id, || {
                self.system.gesture_model().encode_input(sample)
            });
            encode += probes
                .last("models.encode")
                .map_or(0.0, |d| d.as_secs_f64());
        }
        if let Some(total) = probes.last("core.infer_batch") {
            probes.value("core.encode_share", encode / total.as_secs_f64().max(1e-12));
        }
    }
}

fn argmax(v: &[f64]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i)
}

/// Times noise canceling and the DBSCAN under it on a segment's
/// aggregated cloud.
fn probe_noise(probes: &mut Tracer, config: &PreprocessorConfig, frames: &[Frame], id: u64) {
    let cloud = gp_radar::frame::aggregate(frames);
    let canceler = NoiseCanceler::new(config.noise);
    probes.leaf("pipeline.noise_cancel", id, || canceler.clean(&cloud));
    let dbscan_config = DbscanConfig {
        eps: config.noise.max_distance,
        min_points: config.noise.min_points,
    };
    probes.leaf("pointcloud.dbscan", id, || dbscan(&cloud, &dbscan_config));
}

/// Replays range-Doppler engine sessions: `OnlineRdSegmenter::push` per
/// frame, then per closed segment the sample assembly and `infer_rd`,
/// with `extract_sample` probed on the same sample.
fn rd_replay(tr: &mut Tracer, probes: &mut Tracer, rd: &GesturePrint, sessions: &[&[RdFrame]]) {
    let feature = rd.gesture_model().rd_feature().clone();
    for (k, frames) in sessions.iter().enumerate() {
        let group = k as u64;
        let mut seg = OnlineRdSegmenter::new(RdSegmentConfig::default());
        let mut closed = Vec::new();
        for frame in *frames {
            let unit = tr.begin("unit.frame", group);
            closed.extend(tr.leaf("rd.segment_push", group, || seg.push(frame)));
            tr.end(unit);
        }
        closed.extend(seg.finish());
        for s in closed {
            let unit = tr.begin("unit.segment", group);
            let sample = tr.leaf("rd.assemble", group, || {
                RdLabeledSample::from_segment(frames, s.start, s.end, 0, 0)
            });
            tr.leaf("rd.infer", group, || rd.infer_rd(&sample));
            tr.end(unit);
            probes.leaf("rd.extract", group, || extract_sample(&sample, &feature));
        }
    }
}

/// Replays one capture-workload performance call by call: per frame the
/// scene's scatterers, IF synthesis and the chain's processing (its FFT,
/// CFAR and angle stages probed separately on the same data cube); then
/// preprocessing and batched inference; then the RD chain.
fn capture_replay(
    tr: &mut Tracer,
    probes: &mut Tracer,
    job: &Job,
    point: &GesturePrint,
    rd: &GesturePrint,
) {
    let group = job.seed;
    let unit = tr.begin("unit.performance", group);
    let perf = cohort::performance(job.user, job.gesture, job.seed);
    let scene = Scene::for_performance(perf.clone(), cohort::ENVIRONMENT, job.seed ^ 0xE57);
    let config = RadarConfig::default();
    let mut rng = StdRng::seed_from_u64(job.seed ^ 0x51B);
    let dt = config.frame_interval();
    let n = (scene.duration() / dt).ceil() as usize;
    let mut frames = Vec::with_capacity(n);
    let mut cubes = Vec::with_capacity(n);
    for i in 0..n {
        let t = i as f64 * dt;
        let scatterers = tr.leaf("kinematics.scatterers", group, || scene.scatterers_at(t));
        let cube = tr.leaf("radar.synthesize", group, || {
            synthesize_frame(&scatterers, &config, &mut rng)
        });
        let cloud = tr.leaf("radar.process", group, || process_cube(&cube, &config));
        frames.push(Frame::new(t, cloud));
        cubes.push(cube);
    }
    let pre = Preprocessor::new(PreprocessorConfig::default());
    let samples: Vec<GestureSample> = tr.leaf("pipeline.process", group, || pre.process(&frames));
    let labeled: Vec<LabeledSample> = samples
        .into_iter()
        .map(|s| LabeledSample::from_sample(s, 0, 0))
        .collect();
    let refs: Vec<&LabeledSample> = labeled.iter().collect();
    if !refs.is_empty() {
        tr.leaf("core.infer_batch", group, || point.infer_batch(&refs));
    }
    let rd_frames = tr.leaf("rd.synthesize", group, || {
        RdSynthesizer::new(RdConfig::default(), job.seed ^ 0xF00D).synthesize(&perf)
    });
    if let Some(d) = tr.last("rd.synthesize") {
        tr.value("rd.synthesize_ms", ms(d) / rd_frames.len().max(1) as f64);
    }
    let seg = tr.leaf("rd.dominant", group, || {
        dominant_segment(&rd_frames, &RdSegmentConfig::default())
    });
    if let Some(seg) = seg {
        let sample = tr.leaf("rd.assemble", group, || {
            RdLabeledSample::from_segment(&rd_frames, seg.start, seg.end, 0, 0)
        });
        tr.leaf("rd.infer", group, || rd.infer_rd_batch(&[&sample]));
    }
    tr.end(unit);
    for cube in &cubes {
        let maps = probes.leaf("radar.range_doppler", group, || {
            range_doppler_maps(cube, &config)
        });
        let power = power_map(&maps);
        let detections = probes.leaf("radar.cfar", group, || detect(&power, &config));
        probes.leaf("radar.angles", group, || {
            detections
                .iter()
                .map(|d| estimate_angles(&maps, d, &config))
                .collect::<Vec<_>>()
        });
        probes.value("radar.detections_per_frame", detections.len() as f64);
    }
}

/// A small multi-stream point layout from the seed, for probing the
/// point path from workloads that do not stream point clouds.
fn probe_streams(seed: u64, streams: usize, len: usize) -> Vec<Vec<Frame>> {
    let pool = pool(seed, 24, 2, crate::inputs::point_capture);
    let layout = Layout::compose(&pool, streams, len, seed);
    owned_streams(&pool, &layout, streams)
}

fn owned_streams(pool: &[Capture<Frame>], layout: &Layout, streams: usize) -> Vec<Vec<Frame>> {
    (0..streams.min(layout.frames.len()))
        .map(|k| {
            (0..layout.frames[k].len())
                .map(|j| layout.frame(pool, k, j).clone())
                .collect()
        })
        .collect()
}

/// Probes the identity layers: persists and reopens a 2,000-identity
/// gallery, then identifies and enrolls real embeddings and encodes and
/// decodes wire messages. Returns the probe spans and the store's accept
/// share.
fn identity_probe(system: &GesturePrint, seed: u64) -> (Tracer, Tracer, f64) {
    let dir = RunDir::new("probe-store");
    let root = dir.0.join("store");
    build_gallery(system, &root, seed);
    let (mut tr, mut inner) = (Tracer::new(true), Tracer::new(true));
    let store = tr.leaf("store.open", 0, || {
        IdentityStore::open(&root, RegistryConfig::default()).expect("reopen probe gallery")
    });
    let telemetry = gp_telemetry::Registry::new();
    store.attach_telemetry(&telemetry);
    let streams = probe_streams(seed, 4, 120);
    let wire = encode_streams(&streams);
    PointReplay {
        system,
        streams,
        wire: Some(wire),
        roles: vec![Some(true), Some(false), Some(true), Some(false)],
        batch: 1,
        store: Some(&store),
    }
    .run(&mut tr, &mut inner);
    (tr, inner, accept_share(&telemetry.snapshot()))
}

fn accept_share(snapshot: &gp_telemetry::TelemetrySnapshot) -> f64 {
    let get = |n: &str| snapshot.counters.get(n).copied().unwrap_or(0) as f64;
    let accepted = get("store.identify.accepted");
    accepted / (accepted + get("store.identify.rejected")).max(1.0)
}

fn encode_streams(streams: &[Vec<Frame>]) -> Vec<Vec<Vec<u8>>> {
    streams
        .iter()
        .map(|stream| {
            stream
                .iter()
                .map(|f| {
                    let mut decoder = FrameDecoder::new(1 << 20);
                    decoder.extend(&to_wire(&ClientMsg::Frame(f.clone()), 1 << 20));
                    decoder
                        .next()
                        .expect("own framing")
                        .expect("one whole frame")
                })
                .collect()
        })
        .collect()
}

/// Probes the `serve.*` stage clocks for a workload without an engine:
/// a small point engine serving the probe streams unpaced.
fn serve_probe(system: GesturePrint, streams: &[Vec<Frame>]) -> Metrics {
    let engine = ServeEngine::new(
        system,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let began = Instant::now();
    let sessions: Vec<_> = streams.iter().map(|_| engine.open_session()).collect();
    let len = streams.iter().map(Vec::len).max().unwrap_or(0);
    for j in 0..len {
        for (k, stream) in streams.iter().enumerate() {
            if let Some(frame) = stream.get(j) {
                engine.push_frame(sessions[k], frame.clone());
            }
        }
        engine.flush();
    }
    for id in sessions {
        engine.close_session(id);
    }
    engine.drain();
    serve_layers(&engine, began.elapsed())
}

/// Probes the range-Doppler serving path on a few seeded captures.
fn rd_probe(rd: &GesturePrint, seed: u64) -> (Tracer, Tracer) {
    let pool = pool(seed, 6, 2, rd_capture);
    let sessions: Vec<&[RdFrame]> = pool.iter().map(|c| c.frames.as_slice()).collect();
    let (mut tr, mut probes) = (Tracer::new(true), Tracer::new(true));
    rd_replay(&mut tr, &mut probes, rd, &sessions);
    (tr, probes)
}

/// Probes the capture chain on one seeded performance.
fn capture_probe(point: &GesturePrint, rd: &GesturePrint, seed: u64) -> (Tracer, Tracer) {
    let job = crate::capture::jobs(seed)[0];
    let (mut tr, mut probes) = (Tracer::new(true), Tracer::new(true));
    capture_replay(&mut tr, &mut probes, &job, point, rd);
    (tr, probes)
}

/// Probes the point-cloud serving path on a small seeded layout.
fn point_probe(system: &GesturePrint, streams: Vec<Vec<Frame>>, batch: usize) -> (Tracer, Tracer) {
    let (mut tr, mut probes) = (Tracer::new(true), Tracer::new(true));
    let roles = vec![None; streams.len()];
    PointReplay {
        system,
        streams,
        wire: None,
        roles,
        batch,
        store: None,
    }
    .run(&mut tr, &mut probes);
    (tr, probes)
}

/// Runs `replay` once recording only the probe calls (which also warms
/// caches), then twice untraced and twice traced, alternating; returns
/// the last traced spans, the probe spans, and the share of throughput
/// tracing costs (best untraced against best traced time).
fn with_overhead(mut replay: impl FnMut(&mut Tracer, &mut Tracer)) -> (Tracer, Tracer, f64) {
    let mut probes = Tracer::new(true);
    replay(&mut Tracer::new(false), &mut probes);
    let mut plain = Duration::MAX;
    let mut traced = Duration::MAX;
    let mut tr = Tracer::new(true);
    for _ in 0..2 {
        let (_, t) = timed(|| replay(&mut Tracer::new(false), &mut Tracer::new(false)));
        plain = plain.min(t);
        tr = Tracer::new(true);
        let (_, t) = timed(|| replay(&mut tr, &mut Tracer::new(false)));
        traced = traced.min(t);
    }
    let overhead = 1.0 - plain.as_secs_f64() / traced.as_secs_f64().max(1e-12);
    (tr, probes, overhead)
}

fn finish(report: &mut Report, tracers: &[&Tracer], overhead: f64, setup: &SetupStats) {
    report.layers.merge(&layer_metrics(tracers));
    report
        .layers
        .set("core.artifact_load_ms", median(&setup.load_ms), "ms");
    let unattributed = tracers[0].unattributed_share();
    report
        .layers
        .set("bench.unattributed_share", unattributed, "share");
    report
        .layers
        .set("bench.trace_overhead_share", overhead, "share");
    if unattributed > UNATTRIBUTED_BOUND {
        report.note(format!(
            "FLAG: unattributed share {unattributed:.3} exceeds the {UNATTRIBUTED_BOUND} bound"
        ));
    }
}

/// Neither workload has a socket front: nothing is deferred or dropped.
fn no_socket(report: &mut Report) {
    report.layers.set("net.deferred_frames", 0.0, "count");
    report.layers.set("net.dropped_results", 0.0, "count");
}

/// Streams replayed per traced `point_serve` run.
const POINT_REPLAY_STREAMS: usize = 64;
/// Performances replayed per traced `capture` run.
const CAPTURE_REPLAY: usize = 1;
/// Probe layout: streams × frames.
const PROBE_STREAMS: (usize, usize) = (8, 120);

/// The `point_serve` traced run.
pub fn point_workload(
    report: &mut Report,
    engine: &ServeEngine,
    pool: &[Capture<Frame>],
    layout: &Layout,
    setup: &SetupStats,
    seed: u64,
) {
    let system = engine.system();
    let replay = PointReplay {
        system,
        streams: owned_streams(pool, layout, POINT_REPLAY_STREAMS),
        wire: None,
        roles: vec![None; POINT_REPLAY_STREAMS],
        batch: engine.config().max_batch,
        store: None,
    };
    let (tr, inner, overhead) = with_overhead(|tr, probes| {
        replay.run(tr, probes);
    });
    let loaded = crate::setup::load(crate::setup::Systems::PointAndRd);
    let rd = loaded.rd.as_ref().expect("rd requested");
    let (identity, id_inner, accept) = identity_probe(system, seed);
    let (rd_tr, rd_inner) = rd_probe(rd, seed);
    let (cap_tr, cap_inner) = capture_probe(system, rd, seed);
    report.layers.set("store.accept_share", accept, "share");
    no_socket(report);
    let order = [
        &tr, &inner, &identity, &id_inner, &rd_tr, &rd_inner, &cap_tr, &cap_inner,
    ];
    finish(report, &order, overhead, setup);
}

/// The `capture` traced run.
pub fn capture_workload(
    report: &mut Report,
    jobs: &[Job],
    loaded: &Loaded,
    setup: &SetupStats,
    seed: u64,
) {
    let rd = loaded.rd.as_ref().expect("rd system");
    let point = &loaded.point;
    let (tr, inner, overhead) = with_overhead(|tr, probes| {
        for job in jobs.iter().take(CAPTURE_REPLAY) {
            capture_replay(tr, probes, job, point, rd);
        }
    });
    let (streams, frames) = PROBE_STREAMS;
    let streams = probe_streams(seed, streams, frames);
    let (pt_tr, pt_inner) = point_probe(point, streams.clone(), ServeConfig::default().max_batch);
    let (rd_tr, rd_inner) = rd_probe(rd, seed);
    let (identity, id_inner, accept) = identity_probe(point, seed);
    report.layers.set("store.accept_share", accept, "share");
    no_socket(report);
    let reloaded = crate::setup::load(crate::setup::Systems::Point);
    report.layers.merge(&serve_probe(reloaded.point, &streams));
    let order = [
        &tr, &inner, &pt_tr, &pt_inner, &rd_tr, &rd_inner, &identity, &id_inner,
    ];
    finish(report, &order, overhead, setup);
}
