//! The `service` part: an in-process `Server` on `127.0.0.1:0` with the
//! `ckptsim serve` defaults (workers = nproc, shards 1, batch 1,
//! snapshot_every 1) over a fresh `JobStore`, driven by one `Client`.
//!
//! Each round has two phases. Writes: a burst of distinct cold specs
//! (direct engine on the workload's event queue, 8,192 processors, many
//! short replications) is
//! submitted, and the phase ends when the scheduler reports the last
//! result published. Reads: a closed loop with one request pair in
//! flight — identical resubmit plus result fetch — cycling over every
//! finished job. The simulations are small, so spec parsing, journal
//! persistence, the store and HTTP do most of the work. The job mix is
//! synthetic: generated from the workload seed, not taken from users.
//!
//! The traced pass times the layers on their own: spec parsing and
//! fingerprinting, `exec::run_local` against `exec::run_job` (the
//! journal's cost), result rendering, store publish and lookup, and the
//! in-process submit+result pair against the HTTP one.

use crate::common::{derive, repeat, timed, Ctx, SETUPS};
use crate::hostspeed::{self, Probe, Timing};
use crate::report::{median, percentile, Digest, Report};
use crate::trace::Tracer;
use ckpt_core::{EngineKind, QueueKind, SystemConfig};
use ckpt_des::SimTime;
use ckpt_harness::json::{parse, JsonValue};
use ckpt_harness::ExperimentSpec;
use ckpt_svc::{exec, result, Client, JobStatus, JobStore, LocalRun, Scheduler, Server, Tuning};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANT: &str = "perfbench";
/// Longest a cold job may take before it counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub processors: u64,
    pub reps: u32,
    pub transient_h: f64,
    pub horizon_h: f64,
    /// Cold jobs per write phase.
    pub burst: usize,
    /// Hit round trips per read phase.
    pub hits: usize,
    /// Specs the traced pass times layer by layer.
    pub traced_specs: usize,
    /// Repetitions of each sub-millisecond layer call in the traced pass.
    pub loops: usize,
}

impl Size {
    pub const FULL: Size = Size {
        processors: 8_192,
        reps: 24,
        transient_h: 50.0,
        horizon_h: 500.0,
        burst: 24,
        hits: 1_000,
        traced_specs: 6,
        loops: 200,
    };
    pub const TINY: Size = Size {
        processors: 512,
        reps: 2,
        transient_h: 2.0,
        horizon_h: 20.0,
        burst: 3,
        hits: 20,
        traced_specs: 2,
        loops: 5,
    };
}

/// The cold specs of write phase `round`: `n` distinct specs on event
/// queue `queue` whose seeds derive from the workload seed. Round
/// `u64::MAX` is the set-up warm-up and `u64::MAX - 1` the traced pass's
/// specs.
pub fn cold_specs(
    seed: u64,
    queue: QueueKind,
    size: &Size,
    round: u64,
    n: usize,
) -> Vec<ExperimentSpec> {
    let cfg = SystemConfig::builder()
        .processors(size.processors)
        .build()
        .expect("Table 3 defaults are valid");
    (0..n as u64)
        .map(|i| {
            ExperimentSpec::builder(cfg.clone())
                .engine(EngineKind::Direct)
                .queue(queue)
                .transient(SimTime::from_hours(size.transient_h))
                .horizon(SimTime::from_hours(size.horizon_h))
                .replications(size.reps)
                .seed(derive(seed, round.wrapping_mul(1 << 20) ^ i))
                .jobs(1)
                .build()
                .expect("cold spec is valid")
        })
        .collect()
}

/// One served job: its id, canonical JSON, and the identity of its
/// first-fetched result bytes (held as a digest, so the benchmark's own
/// memory does not grow with the number of jobs and blur `peak_rss_mb`).
struct Job {
    id: String,
    json: String,
    spec: ExperimentSpec,
    body: BodyId,
}

/// Length and FNV-1a 64 of a result document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BodyId(usize, u64);

impl BodyId {
    fn of(body: &str) -> BodyId {
        let mut d = Digest::default();
        d.str(body);
        BodyId(body.len(), d.0)
    }

    fn matches(self, body: Option<&str>) -> bool {
        body.is_some_and(|b| BodyId::of(b) == self)
    }
}

/// A bound server with its scheduler handle and a client.
struct Service {
    dir: PathBuf,
    sched: Arc<Scheduler>,
    client: Client,
}

/// Opens a fresh store under `dir`, starts the scheduler with the
/// `ckptsim serve` defaults and binds the server on an ephemeral port.
///
/// The accept loop (`Server::run`) has no shutdown in the crate's API,
/// so its thread lives until the process exits; it holds no work.
fn start(dir: &Path, nproc: usize) -> Result<Service, String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = JobStore::open(dir).map_err(|e| e.to_string())?;
    let tuning = Tuning {
        workers: nproc,
        ..Tuning::default()
    };
    let server =
        Server::bind("127.0.0.1:0", Scheduler::new(store, tuning)).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
    let sched = server.scheduler();
    std::thread::Builder::new()
        .name("perfbench-accept".into())
        .spawn(move || server.run())
        .map_err(|e| e.to_string())?;
    let client = Client::new(&addr, TENANT);
    client.healthz().map_err(|e| e.to_string())?;
    Ok(Service {
        dir: dir.to_path_buf(),
        sched,
        client,
    })
}

/// Write phase: submits every spec, then waits on the scheduler until
/// the last result is published and fetches each result once. Returns
/// the phase's wall time (submit of the first to publication of the
/// last) and the finished jobs.
fn write_phase(svc: &Service, specs: Vec<ExperimentSpec>, report: &mut Report) -> (f64, Vec<Job>) {
    let start = Instant::now();
    let submitted: Vec<_> = specs
        .into_iter()
        .map(|spec| {
            let json = spec.to_json();
            let reply = svc.client.submit(&json);
            (spec, json, reply)
        })
        .collect();
    let outcomes: Vec<_> = submitted
        .into_iter()
        .map(|(spec, json, reply)| {
            let status = reply
                .as_ref()
                .ok()
                .and_then(|r| svc.sched.wait(&r.id, JOB_TIMEOUT));
            (spec, json, reply, status)
        })
        .collect();
    let wall = start.elapsed().as_secs_f64();
    let mut jobs = Vec::new();
    for (spec, json, reply, status) in outcomes {
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                let ok = report.check("service.cold_submit", false, || e.to_string());
                report.op(ok);
                continue;
            }
        };
        let mut ok = report.check(
            "service.cold_submit",
            !reply.cached && !reply.deduplicated,
            || {
                format!(
                    "cold spec {} reported cached={} deduplicated={}",
                    reply.id, reply.cached, reply.deduplicated
                )
            },
        );
        ok &= report.check(
            "service.cold_published",
            status == Some(JobStatus::Done { cached: false }),
            || format!("job {} ended {status:?}", reply.id),
        );
        let body = svc
            .client
            .result(&reply.id)
            .ok()
            .flatten()
            .unwrap_or_default();
        let fingerprint = parse(&body).ok().and_then(|d| {
            d.get("fingerprint")
                .and_then(JsonValue::as_str)
                .map(str::to_string)
        });
        ok &= report.check(
            "service.result_document",
            fingerprint.as_deref() == Some(reply.id.as_str()),
            || format!("result of {} carries fingerprint {fingerprint:?}", reply.id),
        );
        report.op(ok);
        jobs.push(Job {
            id: reply.id,
            json,
            spec,
            body: BodyId::of(&body),
        });
    }
    (wall, jobs)
}

/// Read phase: `n` closed-loop hit round trips (identical resubmit plus
/// result fetch) cycling over `jobs`, starting at `offset`. Returns the
/// latency of each, in seconds.
fn read_phase(
    svc: &Service,
    jobs: &[Job],
    offset: usize,
    n: usize,
    report: &mut Report,
) -> Vec<f64> {
    let mut latencies = Vec::with_capacity(n);
    for k in 0..n {
        let job = &jobs[(offset + k) % jobs.len()];
        let ((reply, body), secs) = timed(|| {
            let reply = svc.client.submit(&job.json);
            let body = reply
                .as_ref()
                .ok()
                .and_then(|r| svc.client.result(&r.id).ok().flatten());
            (reply, body)
        });
        let ok = match reply {
            Err(e) => report.check("service.hit_cached", false, || e.to_string()),
            Ok(r) => {
                latencies.push(secs);
                let mut ok = report.check("service.hit_cached", r.cached && r.id == job.id, || {
                    format!(
                        "resubmit of {} answered id {} cached={}",
                        job.id, r.id, r.cached
                    )
                });
                ok &= report.check(
                    "service.hit_bytes_identical",
                    job.body.matches(body.as_deref()),
                    || format!("result bytes of {} changed on a hit", job.id),
                );
                ok
            }
        };
        report.op(ok);
    }
    latencies
}

/// Set-up: store opened, scheduler started, server bound, and one
/// warm-up job run, fetched and hit. Returns the service, its finished
/// warm-up job and the timing.
fn setup_once(
    ctx: &Ctx,
    size: &Size,
    k: usize,
    report: &mut Report,
) -> Result<(Service, Vec<Job>, f64), String> {
    let dir = ctx
        .work_dir
        .join(format!("service-{}-{k}", std::process::id()));
    let (res, secs) = timed(|| -> Result<_, String> {
        let svc = start(&dir, ctx.nproc)?;
        let (_, jobs) = write_phase(
            &svc,
            cold_specs(ctx.seed, ctx.queue, size, u64::MAX, 1),
            report,
        );
        if jobs.is_empty() {
            return Err("warm-up job failed".into());
        }
        read_phase(&svc, &jobs, 0, 1, report);
        Ok((svc, jobs))
    });
    res.map(|(svc, jobs)| (svc, jobs, secs))
}

/// Checks that every cold job ran exactly once: cache hits and repeated
/// submissions execute nothing.
fn check_executed_once(svc: &Service, cold_jobs: usize, report: &mut Report) {
    let units = svc.sched.executed_units();
    let ok = report.check("service.executed_once", units == cold_jobs, || {
        format!("{units} units executed for {cold_jobs} cold jobs")
    });
    report.op(ok);
}

/// The part between its set-up and its report: a running server with
/// every job it finished.
pub struct Part {
    ctx: Ctx,
    size: Size,
    svc: Service,
    jobs: Vec<Job>,
    setups: Vec<f64>,
    /// Fingerprints of every cold spec submitted so far.
    seen: HashSet<String>,
    /// Of the result bytes of the first write phase.
    digest: Digest,
    /// Write phases: wall from first submit to last publication.
    phase1: Vec<Timing>,
    /// Read phases, for their host-speed factors.
    reads: Vec<Timing>,
    /// Hit round trips in seconds, raw and normalised by their read
    /// phase's speed factor.
    raw_hits: Vec<f64>,
    hits: Vec<f64>,
    phase_p99: Vec<f64>,
}

/// Sets the part up [`SETUPS`] times, for the median set-up time; the
/// last set-up's server is kept.
pub fn setup(ctx: &Ctx, size: &Size, report: &mut Report) -> Result<Part, String> {
    let mut setups = Vec::new();
    let mut current: Option<(Service, Vec<Job>)> = None;
    for k in 0..SETUPS {
        let (svc, jobs, secs) = setup_once(ctx, size, k, report)?;
        setups.push(secs);
        if let Some((old, _)) = current.replace((svc, jobs)) {
            let _ = std::fs::remove_dir_all(&old.dir);
        }
    }
    let (svc, jobs) = current.expect("the set-ups ran");
    Ok(Part {
        ctx: ctx.clone(),
        size: *size,
        seen: jobs.iter().map(|j| j.id.clone()).collect(),
        svc,
        jobs,
        setups,
        digest: Digest::default(),
        phase1: Vec::new(),
        reads: Vec::new(),
        raw_hits: Vec::new(),
        hits: Vec::new(),
        phase_p99: Vec::new(),
    })
}

impl Part {
    /// One round: a write phase of fresh cold specs, then a read phase
    /// over every finished job.
    pub fn round(&mut self, report: &mut Report) {
        let (size, r) = (&self.size, self.phase1.len());
        let specs = cold_specs(self.ctx.seed, self.ctx.queue, size, r as u64, size.burst);
        let distinct = specs
            .iter()
            .all(|s| self.seen.insert(format!("{:016x}", s.fingerprint())));
        let ok = report.check("service.distinct_cold_specs", distinct, || {
            "fingerprint collision".into()
        });
        report.op(ok);
        let ((wall, new_jobs), timing) =
            hostspeed::timed(Probe::EventLoop, || write_phase(&self.svc, specs, report));
        self.phase1.push(Timing { wall, ..timing });
        if r == 0 {
            for j in &new_jobs {
                self.digest.u64(j.body.0 as u64);
                self.digest.u64(j.body.1);
            }
        }
        self.jobs.extend(new_jobs);
        check_executed_once(&self.svc, self.jobs.len(), report);
        let (latencies, reads) = hostspeed::timed(Probe::EventLoop, || {
            read_phase(&self.svc, &self.jobs, r * size.hits, size.hits, report)
        });
        let normalised: Vec<f64> = latencies.iter().map(|l| l * reads.speed).collect();
        if !normalised.is_empty() {
            self.phase_p99.push(percentile(&normalised, 99.0));
        }
        self.reads.push(reads);
        self.raw_hits.extend(latencies);
        self.hits.extend(normalised);
    }

    /// Reports cold throughput and hit latency, adds the set-up time and
    /// the digest, and removes the store.
    pub fn finish(self, report: &mut Report) {
        let phase1 = hostspeed::checked_median(report, "cold_jobs_per_s write phase", &self.phase1);
        report.metric("cold_jobs_per_s", self.size.burst as f64 / phase1, "jobs/s");
        report.metric("hit_p50_ms", percentile(&self.hits, 50.0) * 1e3, "ms");
        hostspeed::check_alone(report, "hit_p50_ms read phase", &self.reads);
        report.notes.push(format!(
            "hit_p50_ms: raw {:.4} ms, median read-phase host speed {:.3}",
            percentile(&self.raw_hits, 50.0) * 1e3,
            median(&self.reads.iter().map(|t| t.speed).collect::<Vec<_>>())
        ));
        // The tail of a sub-millisecond round trip on a shared VM is set
        // by hypervisor steal bursts, which come and go for minutes; it is
        // printed, not reported as a gated metric.
        report.notes.push(format!(
            "hit_p99_ms: {:.4} ms (median over read phases of each phase's p99; not gated)",
            median(&self.phase_p99) * 1e3
        ));
        report.add_setup("service", &self.setups);
        report.notes.push(format!(
            "cold_jobs_per_s: median over {} write phases; hit_p50_ms over {} round trips",
            self.phase1.len(),
            self.hits.len()
        ));
        report.digest.u64(self.digest.0);
        let _ = std::fs::remove_dir_all(&self.svc.dir);
    }

    /// The traced pass: one round, then each layer timed on its own.
    pub fn traced(mut self, ctx: &Ctx, report: &mut Report, tracer: &Tracer) -> Result<(), String> {
        self.round(report);
        let phase1 = median(&self.phase1.iter().map(|t| t.wall).collect::<Vec<_>>());
        let res = traced(
            ctx,
            &self.size,
            &self.svc,
            &self.jobs,
            phase1,
            &self.raw_hits,
            report,
            tracer,
        );
        report.digest.u64(self.digest.0);
        let _ = std::fs::remove_dir_all(&self.svc.dir);
        res
    }
}

/// The traced pass: each layer timed on its own, alternately with the
/// tracer off and on.
#[allow(clippy::too_many_arguments)]
fn traced(
    ctx: &Ctx,
    size: &Size,
    svc: &Service,
    jobs: &[Job],
    phase1_wall: f64,
    hits: &[f64],
    report: &mut Report,
    tracer: &Tracer,
) -> Result<(), String> {
    let specs = cold_specs(ctx.seed, ctx.queue, size, u64::MAX - 1, size.traced_specs);
    let jsons: Vec<String> = specs.iter().map(ExperimentSpec::to_json).collect();
    let off = Tracer::new(false);
    let (mut off_walls, mut on_walls, mut rows) = (Vec::new(), Vec::new(), Vec::new());
    let loops = size.loops;
    let mut failure = None;
    repeat(ctx.seconds, 2, |r| {
        let on = r % 2 == 1;
        if on {
            tracer.clear();
        }
        let t = if on { tracer } else { &off };
        let dir = ctx
            .work_dir
            .join(format!("service-{}-layers-{r}", std::process::id()));
        let (res, wall) = timed(|| layers(&dir, &specs, &jsons, svc, jobs, loops, t, report));
        let _ = std::fs::remove_dir_all(&dir);
        let bytes = match res {
            Ok(b) => b,
            Err(e) => {
                failure = Some(e);
                return;
            }
        };
        if !on {
            off_walls.push(wall);
            return;
        }
        on_walls.push(wall);
        let per_call = |name: &str| tracer.total(name) / (specs.len() * loops) as f64;
        let med = |name: &str| median(&tracer.durations(name));
        let run_job = med("svc.exec.run_job");
        rows.push([
            per_call("harness.spec_parse") * 1e6,
            per_call("harness.fingerprint") * 1e6,
            per_call("svc.store.lookup") * 1e6,
            (med("svc.http.hit") - med("svc.sched.hit")) * 1e6,
            run_job * 1e3,
            1.0 - tracer.total("svc.exec.run_local") / tracer.total("svc.exec.run_job"),
            med("svc.result.render") * 1e3,
            med("svc.store.publish") * 1e3,
            run_job * size.burst as f64 / (ctx.nproc as f64 * phase1_wall),
            bytes,
        ]);
    });
    if let Some(e) = failure {
        return Err(e);
    }
    let col = |c: usize| median(&rows.iter().map(|r| r[c]).collect::<Vec<_>>());
    report.metric("harness.spec_parse_us", col(0), "us");
    report.metric("harness.fingerprint_us", col(1), "us");
    report.metric("svc.store.lookup_us", col(2), "us");
    report.metric("svc.http.overhead_us", col(3), "us");
    report.metric("svc.run_job_ms", col(4), "ms");
    report.metric("harness.journal.overhead_share", col(5), "share");
    report.metric("svc.result.render_ms", col(6), "ms");
    report.metric("svc.store.publish_ms", col(7), "ms");
    report.metric("svc.sched.busy_share", col(8), "share");
    report.metric("svc.result_bytes", col(9), "bytes");
    report.add_traced_walls(&off_walls, &on_walls);
    report.notes.push(format!(
        "service: hit p50 {:.3} ms over {} round trips",
        median(hits) * 1e3,
        hits.len()
    ));
    Ok(())
}

/// One pass over the layers for every traced spec. Returns the median
/// size of a published result in bytes.
#[allow(clippy::too_many_arguments)]
fn layers(
    dir: &Path,
    specs: &[ExperimentSpec],
    jsons: &[String],
    svc: &Service,
    jobs: &[Job],
    loops: usize,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<f64, String> {
    let published = JobStore::open(&dir.join("published")).map_err(|e| e.to_string())?;
    let mut sizes = Vec::new();
    for (i, (spec, json)) in specs.iter().zip(jsons).enumerate() {
        tracer.span("harness.spec_parse", || {
            for _ in 0..loops {
                std::hint::black_box(ExperimentSpec::from_json(json).ok());
            }
        });
        let fp = tracer.span("harness.fingerprint", || {
            (0..loops).fold(0u64, |acc, _| {
                acc ^ std::hint::black_box(spec).fingerprint()
            })
        });
        let est = tracer
            .span("svc.exec.run_local", || {
                exec::run_local(spec, LocalRun::default())
            })
            .map_err(|e| e.to_string())?;
        let body = tracer.span("svc.result.render", || result::render(spec, &est));
        tracer
            .span("svc.store.publish", || published.store(fp, &body))
            .map_err(|e| e.to_string())?;
        let found = tracer.span("svc.store.lookup", || {
            (0..loops)
                .all(|_| published.lookup(fp).ok().flatten().as_deref() == Some(body.as_str()))
        });
        let fresh = JobStore::open(&dir.join(format!("fresh-{i}"))).map_err(|e| e.to_string())?;
        let journaled = tracer
            .span("svc.exec.run_job", || {
                exec::run_job(&fresh, spec, 1, None, None)
            })
            .map_err(|e| e.to_string())?;
        let mut ok = report.check("service.lookup_serves_published", found, || {
            "lookup did not return the published bytes".into()
        });
        ok &= report.check(
            "service.run_job_matches_run_local",
            journaled == body,
            || "run_job's result differs from rendering run_local's".into(),
        );
        report.op(ok);
        sizes.push(body.len() as f64);
    }
    let job = &jobs[0];
    for _ in 0..loops {
        let in_process = tracer.span("svc.sched.hit", || {
            let out = svc.sched.submit(TENANT, &job.spec).ok();
            let body = svc.sched.result(&job.id).ok().flatten();
            out.is_some_and(|o| o.cached) && job.body.matches(body.as_deref())
        });
        let over_http = tracer.span("svc.http.hit", || {
            let reply = svc.client.submit(&job.json).ok();
            let body = svc.client.result(&job.id).ok().flatten();
            reply.is_some_and(|r| r.cached) && job.body.matches(body.as_deref())
        });
        let ok = report.check("service.hit_cached", in_process && over_http, || {
            "a traced hit was not served from the cache".into()
        });
        report.op(ok);
    }
    Ok(median(&sizes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprints(seed: u64, queue: QueueKind, round: u64) -> Vec<u64> {
        cold_specs(seed, queue, &Size::FULL, round, 8)
            .iter()
            .map(ExperimentSpec::fingerprint)
            .collect()
    }

    #[test]
    fn cold_specs_are_deterministic_in_the_seed() {
        let heap = QueueKind::IndexedHeap;
        assert_eq!(fingerprints(1, heap, 0), fingerprints(1, heap, 0));
        let a = cold_specs(1, heap, &Size::FULL, 0, 8);
        let b = cold_specs(1, heap, &Size::FULL, 0, 8);
        assert_eq!(
            a.iter().map(ExperimentSpec::to_json).collect::<Vec<_>>(),
            b.iter().map(ExperimentSpec::to_json).collect::<Vec<_>>()
        );
    }

    #[test]
    fn cold_specs_differ_across_seeds_queues_rounds_and_jobs() {
        let mut all: Vec<u64> = Vec::new();
        for seed in [1, 2] {
            for queue in [QueueKind::IndexedHeap, QueueKind::Calendar] {
                for round in [0, 1, u64::MAX, u64::MAX - 1] {
                    all.extend(fingerprints(seed, queue, round));
                }
            }
        }
        let distinct: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(distinct.len(), all.len(), "every cold spec is distinct");
    }
}
