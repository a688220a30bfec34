//! Wall-clock serving benchmark for the LLM-PQ runtime.
//!
//! Every workload serves one model: the plan Algorithm 1
//! (`llm_pq::assign`) produces during set-up for OPT-1.3b on paper
//! cluster 3, executed on a 24-layer `RefConfig::scaled_like` stand-in
//! with a 512-position context. Traffic is generated from the
//! `llmpq_workload` samplers, seeded by `--seed`, and sent through the
//! real front door (`ServeHandle::submit_stream` or HTTP sockets) on the
//! wall clock. Outputs are checked token for token against the offline
//! oracle `quantize_model(..).generate(prompt, n, 0.0, 0)`.
//!
//! The end-to-end runner (`serve_e2e`) uses only `llm_pq::assign`, the
//! engine constructors, `HttpServer::start`, `ServeHandle::submit_stream`
//! and sockets, so it keeps compiling across changes to the per-sequence
//! `StepEngine` API. The traced runner (`serve_traced`) adds a timing
//! wrapper around the engine and a layer replay probe.

pub mod report;
pub mod setup;
pub mod traffic;
pub mod yardstick;

use llmpq_runtime::ContinuousReport;
use report::ProcSnap;
use setup::{SetupTimes, Starter};
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Instant;
use traffic::{Outcome, Req, Run};
use yardstick::HostSpeed;

/// Seconds since the first call in this process. Every timestamp the
/// benchmark takes (generator, clients, engine wrapper) uses this one
/// clock, so spans from different threads line up.
pub fn now_s() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Which engine serves a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// `ModelStepEngine`: the whole plan in the scheduler thread.
    Local,
    /// `DistStepEngine::over_channels`: one thread per plan stage.
    Dist,
}

/// How requests reach the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// `requests` submitted at t=0 through the handle (per repetition).
    Batch { requests: usize },
    /// Open loop through the handle: Poisson arrivals at `rate` req/s,
    /// each request timed from when it was due. A request meets the SLO
    /// when its TTFT is at most `slo_ttft_ms` and its mean gap between
    /// streamed tokens at most `slo_tpot_ms`.
    Poisson {
        rate: f64,
        slo_ttft_ms: f64,
        slo_tpot_ms: f64,
    },
    /// `clients` closed-loop keep-alive HTTP clients streaming
    /// completions until the window ends.
    Closed { clients: usize },
}

impl Load {
    /// Repetitions of the load in one run. A batch or open-loop
    /// repetition needs enough requests to fill the server, so those
    /// loads run 3; a closed loop reaches steady state within a second,
    /// so it runs 24 short ones, whose median is steadier than that of
    /// fewer long ones.
    pub fn repetitions(&self) -> usize {
        match self {
            Load::Closed { .. } => 24,
            Load::Batch { .. } | Load::Poisson { .. } => 3,
        }
    }
}

/// How prompt lengths are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Prompts {
    /// Log-normal around the geometric mean of the range, clamped to it.
    Range(usize, usize),
    /// `PromptLengthModel::default()` (ShareGPT-like, long-tailed),
    /// clamped to the served context.
    ShareGpt,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub engine: EngineKind,
    pub load: Load,
    pub prompts: Prompts,
    /// Output length range, inclusive (uniform).
    pub gen: (usize, usize),
}

/// The workloads. `BENCHMARK.json` lists `offline-pipeline` and
/// `interactive-http`; `online-chat` runs the same way but is not
/// steady enough to gate on (see `servbench/README.md`).
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "offline-pipeline",
        engine: EngineKind::Dist,
        load: Load::Batch {
            requests: setup::MAX_BATCH,
        },
        prompts: Prompts::Range(16, 48),
        gen: (96, 128),
    },
    Spec {
        name: "online-chat",
        engine: EngineKind::Local,
        load: Load::Poisson {
            rate: 1.0,
            slo_ttft_ms: 1000.0,
            slo_tpot_ms: 50.0,
        },
        prompts: Prompts::ShareGpt,
        gen: (8, 32),
    },
    Spec {
        name: "interactive-http",
        engine: EngineKind::Local,
        load: Load::Closed { clients: 2 },
        prompts: Prompts::Range(8, 16),
        gen: (8, 16),
    },
];

/// Command-line arguments shared by both runners. `--trace` selects
/// the runner in `run.sh` and is only validated here.
#[derive(Debug, Clone)]
pub struct Args {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
}

pub const USAGE: &str = "usage: --workload <offline-pipeline|online-chat|interactive-http> \
--seed <n> --seconds <s> --trace <0|1>";

impl Args {
    /// Parse `--workload --seed --seconds --trace`; anything else is an
    /// error.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds) = (None, 1u64, 10.0f64);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" if value == "0" || value == "1" => {}
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let name = workload.ok_or("--workload is required")?;
        let spec = *WORKLOADS
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| format!("unknown workload {name}"))?;
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(format!("--seconds must be positive, got {seconds}"));
        }
        Ok(Self {
            spec,
            seed,
            seconds,
        })
    }
}

/// Mean of a sample (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Median of a sample (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Linear-interpolated percentile `p` in `[0, 100]` (0 when empty).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// The tail percentile reported for `n` samples: the highest of p99,
/// p95, p90, p75 with at least ten samples beyond it, else p50.
pub fn tail_percentile(n: usize) -> f64 {
    [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// SplitMix64 step: the benchmark's only source of seeded randomness
/// besides the workload samplers.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Longest the whole load of one run may take before requests still
/// unanswered count as errors; a run must end well within 180 s.
pub const LOAD_LIMIT_S: f64 = 150.0;

/// One measured run of a workload on one server.
pub struct Measured {
    /// Requests of every repetition; `Observed::idx` indexes this.
    pub reqs: Vec<Req>,
    /// One load run per repetition.
    pub runs: Vec<Run>,
    /// `/proc` snapshots around each repetition.
    pub snaps: Vec<(ProcSnap, ProcSnap)>,
    pub plan: llm_pq::ExecutionPlan,
    pub checkpoint: llmpq_model::RefModel,
    pub times: SetupTimes,
    pub report: ContinuousReport,
    /// VmHWM at the end of the load, MB.
    pub peak_rss_mb: f64,
    /// Yardstick samples over the set-ups and the load.
    pub host: HostSpeed,
}

impl Measured {
    /// All repetitions as one run (for accounting and tracing).
    pub fn pooled(&self) -> Run {
        Run {
            observed: self
                .runs
                .iter()
                .flat_map(|r| r.observed.iter().cloned())
                .collect(),
            start_s: self.runs[0].start_s,
            end_s: self.runs[self.runs.len() - 1].end_s,
            gen_lag_ms_max: self
                .runs
                .iter()
                .map(|r| r.gen_lag_ms_max)
                .fold(0.0, f64::max),
        }
    }

    /// Requests the generator made: every one must come back with an
    /// outcome. A closed loop makes each request as it sends it, so it
    /// has no count to check against.
    pub fn generated(&self, spec: &Spec) -> Option<usize> {
        (!matches!(spec.load, Load::Closed { .. })).then_some(self.reqs.len())
    }

    /// Wall seconds under load, summed over repetitions.
    pub fn load_s(&self) -> f64 {
        self.runs.iter().map(|r| r.end_s - r.start_s).sum()
    }

    /// Host steal and idle shares over this server's repetitions.
    pub fn host_shares(&self) -> (f64, f64) {
        report::host_shares(&self.snaps)
    }

    /// Each set-up's time on the reference host.
    pub fn setup_s(&self) -> Vec<f64> {
        self.times
            .total_s
            .iter()
            .zip(&self.times.windows)
            .map(|(s, (t0, t1))| s / self.host.slowdown(*t0, *t1))
            .collect()
    }

    /// How much slower than the reference host this host ran during
    /// each repetition.
    pub fn slowdowns(&self) -> Vec<f64> {
        self.runs
            .iter()
            .map(|r| self.host.slowdown(r.start_s, r.end_s))
            .collect()
    }
}

/// Set up one server per starter (timed, repeated), then serve the
/// workload's traffic on the wall clock in repetitions of
/// `seconds / repetitions` each, and shut the servers down. Every
/// server gets the same requests. Repetition `j` runs on each server in
/// turn, in reverse order when `j` is odd, so a slow spell on the host
/// falls on all of them alike. `at_load_start` runs just before the
/// first request is sent.
pub fn measure(
    args: &Args,
    starters: &mut [&mut Starter],
    at_load_start: &mut dyn FnMut(),
) -> Result<Vec<Measured>, String> {
    let spec = &args.spec;
    let sampler = yardstick::Sampler::start();
    let mut served = Vec::new();
    for start in starters.iter_mut() {
        served.push(setup::set_up(spec.engine, *start)?);
    }
    let reps = spec.load.repetitions();
    let slice = args.seconds / reps as f64;
    let mut parts = Vec::new();
    for j in 0..reps as u64 {
        let seed = args.seed.wrapping_mul(reps as u64).wrapping_add(j);
        parts.push(traffic::requests(
            spec,
            seed,
            slice,
            served[0].checkpoint.cfg.vocab,
        )?);
    }
    at_load_start();
    let deadline = now_s() + LOAD_LIMIT_S;
    let mut runs: Vec<Vec<(Run, (ProcSnap, ProcSnap))>> =
        served.iter().map(|_| Vec::new()).collect();
    let mut base = 0;
    for (j, part) in parts.iter().enumerate() {
        let mut order: Vec<usize> = (0..served.len()).collect();
        if j % 2 == 1 {
            order.reverse();
        }
        for k in order {
            let server = &served[k].server;
            let before = report::snap();
            let mut run = match spec.load {
                Load::Closed { clients } => traffic::drive_http(server.addr, part, clients, slice),
                Load::Batch { .. } | Load::Poisson { .. } => {
                    traffic::drive_handle(server.handle(), part, deadline)
                }
            };
            let after = report::snap();
            for o in &mut run.observed {
                o.idx += base;
            }
            runs[k].push((run, (before, after)));
        }
        base += part.len();
    }
    let peak_rss_mb = report::peak_rss_mb();
    let host = sampler.stop();
    let reqs: Vec<Req> = parts.into_iter().flatten().collect();
    served
        .into_iter()
        .zip(runs)
        .map(|(s, reps)| {
            let (runs, snaps) = reps.into_iter().unzip();
            Ok(Measured {
                reqs: reqs.clone(),
                runs,
                snaps,
                plan: s.plan,
                checkpoint: s.checkpoint,
                times: s.times,
                report: s.server.shutdown()?,
                peak_rss_mb,
                host: host.clone(),
            })
        })
        .collect()
}

/// Oracle outputs for every request index the runs completed.
pub fn oracle_for(m: &Measured, runs: &[&Run]) -> HashMap<usize, Vec<usize>> {
    let mut idx: Vec<usize> = runs
        .iter()
        .flat_map(|r| r.observed.iter())
        .filter(|o| o.outcome == Outcome::Done)
        .map(|o| o.idx)
        .collect();
    idx.sort_unstable();
    idx.dedup();
    let jobs: Vec<(usize, &[usize], usize)> = idx
        .iter()
        .map(|&i| (i, m.reqs[i].prompt.as_slice(), m.reqs[i].n_gen))
        .collect();
    setup::oracle(&m.checkpoint, &m.plan, &jobs)
}

/// The end-to-end metrics of each repetition on its own, normalized to
/// the reference host (see [`report::end_to_end`]).
pub fn per_repetition(args: &Args, m: &Measured) -> Vec<Vec<report::Metric>> {
    let setup_s = m.setup_s();
    m.runs
        .iter()
        .zip(&m.snaps)
        .map(|(run, (a, b))| {
            let ctx = report::Context {
                setup_s: setup_s.clone(),
                cpu_s: b.cpu_s - a.cpu_s,
                peak_rss_mb: m.peak_rss_mb,
                host: &m.host,
            };
            report::end_to_end(&args.spec, run, &ctx)
        })
        .collect()
}

/// The end-to-end metrics: each is its median over the repetitions.
pub fn end_to_end(args: &Args, m: &Measured) -> Vec<report::Metric> {
    let per_rep = per_repetition(args, m);
    (0..per_rep[0].len())
        .map(|i| {
            let values: Vec<f64> = per_rep.iter().map(|r| r[i].value).collect();
            let first = &per_rep[0][i];
            if values.iter().all(|v| *v == first.value) {
                return first.clone();
            }
            let mut notes: Vec<String> = per_rep.iter().map(|r| r[i].note.clone()).collect();
            notes.dedup();
            report::Metric {
                value: median(&values),
                note: format!(
                    "median of {} repetitions {values:.4?}; {}",
                    values.len(),
                    notes.join("; ")
                ),
                ..first.clone()
            }
        })
        .collect()
}

/// A one-line description of the run for the log.
pub fn describe(args: &Args, m: &Measured) -> String {
    let stages: Vec<String> = m
        .plan
        .stages
        .iter()
        .map(|s| {
            format!(
                "{}x{}",
                s.bits.first().map_or("-".into(), |b| b.to_string()),
                s.bits.len()
            )
        })
        .collect();
    let (steal, idle) = m.host_shares();
    let run = m.pooled();
    format!(
        "workload {} seed {} seconds {}: plan {} | {} requests sent in {} repetitions | host.steal_frac {steal:.4} host.idle_frac {idle:.4} gen_lag_ms.max {:.3} | host slowdown per repetition {:.3?} ({} yardstick samples)",
        args.spec.name,
        args.seed,
        args.seconds,
        stages.join(" | "),
        run.observed.len(),
        m.runs.len(),
        run.gen_lag_ms_max,
        m.slowdowns(),
        m.host.samples.len()
    )
}
