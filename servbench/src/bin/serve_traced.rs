//! Traced runner: the per-layer breakdown of one workload.
//!
//! Sets up two servers, one untraced and one with a timing wrapper
//! around the engine, and serves the workload's repetitions on them in
//! turn with the same requests; the paired difference is the tracing
//! overhead. Spans are recorded from outside the program:
//! the generator's submit/token/done records, the wrapper's
//! `register`/`prefill_chunk`/`decode_one`/`release` calls (keyed by
//! sequence id = request id) with `iteration_cost_s` marking iteration
//! ends, and a replay probe that times `RefModel::forward_layer` and
//! `LinearOp::forward_t` at the shapes the run logged. Spans are kept in
//! memory and written as a Chrome trace to `servbench/out/`.

use llm_pq::ExecutionPlan;
use llmpq_model::{KvCache, Matrix, RefModel};
use llmpq_quant::{quantize_model, quantize_model_uniform, Bitwidth, Rounding};
use llmpq_runtime::{real_clock, HttpServer, KvPool, StepEngine, StepError, Telemetry};
use servbench::report::{self, Metric};
use servbench::setup::{self, Engine, QUANT_SEED};
use servbench::traffic::{Outcome, Run};
use servbench::{
    mean, median, now_s, percentile, tail_percentile, Args, EngineKind, Load, Measured,
};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Register,
    Prefill,
    Decode,
    Release,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Register => "register",
            Kind::Prefill => "prefill_chunk",
            Kind::Decode => "decode_one",
            Kind::Release => "release",
        }
    }
}

/// One engine call seen by the wrapper.
#[derive(Debug, Clone, Copy)]
struct Call {
    kind: Kind,
    seq: u64,
    start: f64,
    end: f64,
    /// Tokens fed (prefill chunk length, 1 for decode).
    rows: usize,
    /// Cached positions before the call.
    ctx: usize,
}

/// An iteration end (`iteration_cost_s`) with its token counts.
#[derive(Debug, Clone, Copy)]
struct Mark {
    t: f64,
    prefill: usize,
    decode: usize,
}

#[derive(Debug, Default)]
struct Log {
    calls: Vec<Call>,
    marks: Vec<Mark>,
    peak_occupancy: f64,
    restarts: u64,
}

/// Times every call into the engine it wraps.
struct Traced<E> {
    inner: E,
    log: Arc<Mutex<Log>>,
}

impl<E: StepEngine> Traced<E> {
    fn note(&self, kind: Kind, seq: u64, start: f64, rows: usize, ctx: usize) {
        let end = now_s();
        let occupancy = self.inner.pool().occupancy();
        let mut log = self.log.lock().expect("trace log lock poisoned");
        log.calls.push(Call {
            kind,
            seq,
            start,
            end,
            rows,
            ctx,
        });
        log.peak_occupancy = log.peak_occupancy.max(occupancy);
        log.restarts = self.inner.restarts();
    }
}

impl<E: StepEngine> StepEngine for Traced<E> {
    fn pool(&self) -> &KvPool {
        self.inner.pool()
    }
    fn register(&mut self, seq: u64) -> Result<(), StepError> {
        let t = now_s();
        let r = self.inner.register(seq);
        self.note(Kind::Register, seq, t, 0, 0);
        r
    }
    fn prefill_chunk(
        &mut self,
        seq: u64,
        tokens: &[usize],
        pos0: usize,
        is_last: bool,
    ) -> Result<Option<usize>, StepError> {
        let t = now_s();
        let r = self.inner.prefill_chunk(seq, tokens, pos0, is_last);
        self.note(Kind::Prefill, seq, t, tokens.len(), pos0);
        r
    }
    fn decode_one(&mut self, seq: u64, last: usize, pos: usize) -> Result<usize, StepError> {
        let t = now_s();
        let r = self.inner.decode_one(seq, last, pos);
        self.note(Kind::Decode, seq, t, 1, pos);
        r
    }
    fn release(&mut self, seq: u64) {
        let t = now_s();
        self.inner.release(seq);
        self.note(Kind::Release, seq, t, 0, 0);
    }
    fn iteration_cost_s(&self, rung: usize, prefill: usize, decode: usize) -> f64 {
        self.log
            .lock()
            .expect("trace log lock poisoned")
            .marks
            .push(Mark {
                t: now_s(),
                prefill,
                decode,
            });
        self.inner.iteration_cost_s(rung, prefill, decode)
    }
    fn n_rungs(&self) -> usize {
        self.inner.n_rungs()
    }
    fn set_rung(&mut self, rung: usize) -> f64 {
        self.inner.set_rung(rung)
    }
    fn rung(&self) -> usize {
        self.inner.rung()
    }
    fn max_seq(&self) -> usize {
        self.inner.max_seq()
    }
    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }
    fn restarts(&self) -> u64 {
        self.inner.restarts()
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", servbench::USAGE);
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let log = Arc::new(Mutex::new(Log::default()));
    let mut traced = |engine: Engine, cfg, http, listener| {
        let log = log.clone();
        match engine {
            Engine::Local(inner) => HttpServer::start(
                listener,
                Traced { inner, log },
                cfg,
                http,
                Telemetry::new(0),
                real_clock(),
            ),
            Engine::Dist(inner) => HttpServer::start(
                listener,
                Traced { inner, log },
                cfg,
                http,
                Telemetry::new(0),
                real_clock(),
            ),
        }
    };
    let clear = || *log.lock().expect("trace log lock poisoned") = Log::default();
    let mut both = servbench::measure(args, &mut [&mut setup::start, &mut traced], &mut { clear })?;
    let (Some(m), Some(untraced)) = (both.pop(), both.pop()) else {
        return Err("expected an untraced and a traced server".into());
    };
    let log = std::mem::take(&mut *log.lock().expect("trace log lock poisoned"));
    println!("{}", servbench::describe(args, &m));

    let (run0, run) = (untraced.pooled(), m.pooled());
    let oracle = servbench::oracle_for(&m, &[&run0, &run]);
    let generated = m.generated(&args.spec);
    let v0 = report::verdict(&run0, generated, &oracle, &untraced.report);
    let v1 = report::verdict(&run, generated, &oracle, &m.report);
    let (overhead, overhead_note) = overhead(args, &untraced, &m);

    let shapes = Shapes::of(&log);
    let probe = probe(&m.checkpoint, &m.plan, &shapes);
    let mut metrics = per_layer(args, &m, &run, &log, &probe);
    metrics.push(Metric::new(
        "trace.overhead_frac",
        "ratio",
        overhead,
        overhead_note,
    ));

    let path = format!(
        "servbench/out/trace-{}-seed{}.json",
        args.spec.name, args.seed
    );
    match write_chrome_trace(&path, &run, &log) {
        Ok(n) => println!("chrome trace: {path} ({n} spans)"),
        Err(e) => println!("chrome trace not written: {e}"),
    }
    let mut verdict = v1.clone();
    verdict
        .problems
        .extend(v0.problems.iter().map(|p| format!("untraced run: {p}")));
    verdict.conserved &= v0.conserved;
    verdict.mismatches += v0.mismatches;
    report::print_result(&verdict, &metrics, "per_layer")?;
    Ok(verdict.correct())
}

/// Tracing overhead from the paired repetitions: the median over pairs
/// of 1 - traced/untraced `output_tok_s`, each pair run back to back on
/// the same requests. Also prints the paired ratio of the p50
/// latencies.
fn overhead(args: &Args, untraced: &Measured, traced: &Measured) -> (f64, String) {
    let (u, t) = (
        servbench::per_repetition(args, untraced),
        servbench::per_repetition(args, traced),
    );
    let paired = |name: &str| -> Vec<f64> {
        let at = u[0]
            .iter()
            .position(|x| x.name == name)
            .expect("known metric");
        u.iter()
            .zip(&t)
            .map(|(u, t)| t[at].value / u[at].value.max(1e-9))
            .collect()
    };
    for name in ["ttft_p50_ms", "itl_p50_ms", "latency_p50_ms"] {
        let r = paired(name);
        println!(
            "tracing overhead: {name} traced/untraced median {:.4} (p25 {:.4}, p75 {:.4}, {} pairs)",
            median(&r),
            percentile(&r, 25.0),
            percentile(&r, 75.0),
            r.len()
        );
    }
    let loss: Vec<f64> = paired("output_tok_s").iter().map(|r| 1.0 - r).collect();
    let note = format!(
        "median over {} paired repetitions of 1 - traced/untraced output_tok_s; p25 {:.4}, p75 {:.4}",
        loss.len(),
        percentile(&loss, 25.0),
        percentile(&loss, 75.0)
    );
    (median(&loss), note)
}

/// Shapes the probe replays: the run's median decode context and its
/// median prefill chunk (length and starting context).
struct Shapes {
    decode_ctx: usize,
    prefill_rows: usize,
    prefill_ctx: usize,
}

impl Shapes {
    fn of(log: &Log) -> Self {
        let pick = |kind: Kind, f: fn(&Call) -> usize, default: usize| {
            let v: Vec<f64> = log
                .calls
                .iter()
                .filter(|c| c.kind == kind)
                .map(|c| f(c) as f64)
                .collect();
            if v.is_empty() {
                default
            } else {
                median(&v).round() as usize
            }
        };
        Self {
            decode_ctx: pick(Kind::Decode, |c| c.ctx, 64),
            prefill_rows: pick(Kind::Prefill, |c| c.rows, 64).max(1),
            prefill_ctx: pick(Kind::Prefill, |c| c.ctx, 0),
        }
    }
}

/// Replay timing of one decoder layer at one (bits, phase) shape.
struct Probe {
    bits: Bitwidth,
    decode: bool,
    rows: usize,
    ctx: usize,
    /// Plan layers at this width.
    layers: usize,
    layer_us: f64,
    /// Sum of the six projections' `forward_t` medians.
    kernel_us: f64,
    macs: f64,
    packed_bytes: f64,
}

/// Wall seconds the probe spends timing; cases run round-robin so a
/// slow spell on the host hits every case alike.
const PROBE_S: f64 = 2.0;

/// A timed call: (probe index, times the whole layer, the call).
type Case<'a> = (usize, bool, Box<dyn FnMut() + 'a>);

fn probe(ckpt: &RefModel, plan: &ExecutionPlan, s: &Shapes) -> Vec<Probe> {
    let bits = plan.bit_assignment().bits;
    let served = quantize_model(
        ckpt,
        &plan.bit_assignment(),
        Rounding::Deterministic,
        QUANT_SEED,
    );
    let widths = [Bitwidth::Int8, Bitwidth::Int4];
    // A width the plan does not use is probed on a uniform quantization.
    let fallback: Vec<RefModel> = widths
        .iter()
        .filter(|b| !bits.contains(b))
        .map(|&b| quantize_model_uniform(ckpt, b, Rounding::Deterministic, QUANT_SEED))
        .collect();
    let hidden = ckpt.cfg.hidden;
    let mut probes = Vec::new();
    let mut cases: Vec<Case> = Vec::new();
    let mut fallback = fallback.iter();
    for b in widths {
        let (model, layer) = match bits.iter().position(|x| *x == b) {
            Some(l) => (&served, l),
            None => (fallback.next().expect("one fallback per missing width"), 0),
        };
        for (decode, rows, ctx) in [
            (true, 1, s.decode_ctx),
            (false, s.prefill_rows, s.prefill_ctx),
        ] {
            let p = probes.len();
            let mut cache = KvCache::new(ckpt.cfg.n_layers, hidden);
            if ctx > 0 {
                model.forward_layer(layer, &Matrix::random(ctx, hidden, 0.5, 7), &mut cache);
            }
            let x = Matrix::random(rows, hidden, 0.5, 11);
            cases.push((
                p,
                true,
                Box::new(move || {
                    for m in [&mut cache.k[layer], &mut cache.v[layer]] {
                        m.rows = ctx;
                        m.data.truncate(ctx * hidden);
                    }
                    std::hint::black_box(model.forward_layer(layer, &x, &mut cache));
                }),
            ));
            let (mut macs, mut packed_bytes) = (0.0, 0.0);
            for (_, op) in model.layers[layer].linear_operators() {
                let input = Matrix::random(rows, op.in_features(), 0.5, 13);
                cases.push((
                    p,
                    false,
                    Box::new(move || {
                        std::hint::black_box(op.forward_t(&input));
                    }),
                ));
                macs += (rows * op.in_features() * op.out_features()) as f64;
                packed_bytes += op.resident_bytes() as f64;
            }
            let layers = bits.iter().filter(|x| **x == b).count();
            probes.push(Probe {
                bits: b,
                decode,
                rows,
                ctx,
                layers,
                layer_us: 0.0,
                kernel_us: 0.0,
                macs,
                packed_bytes,
            });
        }
    }
    let mut samples = vec![Vec::new(); cases.len()];
    let t0 = now_s();
    while samples[0].len() < 30 || now_s() - t0 < PROBE_S {
        for ((_, _, f), v) in cases.iter_mut().zip(&mut samples) {
            let t = now_s();
            f();
            v.push((now_s() - t) * 1e6);
        }
    }
    for ((p, whole, _), v) in cases.iter().zip(&samples) {
        if *whole {
            probes[*p].layer_us = median(v);
        } else {
            probes[*p].kernel_us += median(v);
        }
    }
    probes
}

/// Self time of the scheduler per iteration: for each iteration that
/// directly follows another (sequences stayed in flight, so the serve
/// loop did not idle), the interval between their ends minus the time
/// spent inside engine calls.
fn serve_self_us(log: &Log) -> Vec<f64> {
    let mut out = Vec::new();
    let mut live: i64 = 0;
    let mut ci = 0;
    let calls = &log.calls;
    for w in log.marks.windows(2) {
        while ci < calls.len() && calls[ci].end <= w[0].t {
            live += match calls[ci].kind {
                Kind::Register => 1,
                Kind::Release => -1,
                _ => 0,
            };
            ci += 1;
        }
        let between: Vec<&Call> = calls[ci..].iter().take_while(|c| c.end <= w[1].t).collect();
        let retired = between
            .iter()
            .take_while(|c| c.kind == Kind::Release)
            .count() as i64;
        if live - retired > 0 {
            let engine: f64 = between.iter().map(|c| c.end - c.start).sum();
            out.push((w[1].t - w[0].t - engine) * 1e6);
        }
    }
    out
}

fn per_layer(args: &Args, m: &Measured, run: &Run, log: &Log, probe: &[Probe]) -> Vec<Metric> {
    let spec = &args.spec;
    let wall = m.load_s().max(1e-9);
    let cfg = &m.checkpoint.cfg;
    let dist = spec.engine == EngineKind::Dist;
    let http = matches!(spec.load, Load::Closed { .. });
    let mut out = Vec::new();
    let mut push = |name: &str, unit: &'static str, value: f64, note: String| {
        out.push(Metric::new(name, unit, value, note))
    };
    let pair = |v: &[f64]| {
        (
            median(v),
            percentile(v, tail_percentile(v.len())),
            format!("p50 / p{} of {} samples", tail_percentile(v.len()), v.len()),
        )
    };

    // planning and engine build
    let t = &m.times;
    push(
        "setup.plan_s",
        "s",
        median(&t.plan_s),
        format!("median of {}", t.plan_s.len()),
    );
    push(
        "setup.engine_s",
        "s",
        median(&t.engine_s),
        "checkpoint + quantize/pack + engine".into(),
    );
    push(
        "setup.server_s",
        "s",
        median(&t.server_s),
        "server start + warm-up request".into(),
    );

    // front door
    let overhead: Vec<f64> = run
        .observed
        .iter()
        .filter(|o| o.outcome == Outcome::Done)
        .filter_map(|o| Some((o.done_s - o.sent_s) * 1e3 - o.server_latency_ms?))
        .collect();
    let (p50, tail, note) = pair(&overhead);
    let why = if http {
        note
    } else {
        "absent: this workload bypasses HTTP".into()
    };
    push("http.overhead_ms.p50", "ms", p50, why.clone());
    push("http.overhead_ms.tail", "ms", tail, why);
    let non_2xx = if http {
        run.observed
            .iter()
            .filter(|o| {
                matches!(
                    o.outcome,
                    Outcome::Shed | Outcome::Expired | Outcome::Status(_)
                )
            })
            .count()
    } else {
        0
    };
    push(
        "http.non_2xx",
        "count",
        non_2xx as f64,
        if http {
            "responses".into()
        } else {
            "absent: no HTTP".into()
        },
    );

    // scheduler
    let mut registered: HashMap<u64, f64> = HashMap::new();
    for c in log.calls.iter().filter(|c| c.kind == Kind::Register) {
        registered.entry(c.seq).or_insert(c.end);
    }
    let waits: Vec<f64> = run
        .observed
        .iter()
        .filter_map(|o| Some((registered.get(&(o.id? as u64))? - o.sent_s) * 1e3))
        .collect();
    let (p50, tail, note) = pair(&waits);
    push(
        "serve.queue_wait_ms.p50",
        "ms",
        p50,
        format!("submit -> register, {note}"),
    );
    push(
        "serve.queue_wait_ms.tail",
        "ms",
        tail,
        format!("submit -> register, {note}"),
    );
    let iters = log.marks.len().max(1) as f64;
    push(
        "serve.iterations",
        "count",
        log.marks.len() as f64,
        "iteration_cost_s calls".into(),
    );
    let decode_rows: usize = log.marks.iter().map(|k| k.decode).sum();
    let prefill_tokens: usize = log.marks.iter().map(|k| k.prefill).sum();
    push(
        "serve.decode_rows_per_iter.mean",
        "rows",
        decode_rows as f64 / iters,
        String::new(),
    );
    push(
        "serve.prefill_tokens_per_iter.mean",
        "tokens",
        prefill_tokens as f64 / iters,
        String::new(),
    );
    let self_us = serve_self_us(log);
    push(
        "serve.self_us_per_iter",
        "us",
        mean(&self_us),
        format!("mean over {} back-to-back iterations", self_us.len()),
    );
    let prompt_tokens: usize = run
        .observed
        .iter()
        .map(|o| m.reqs[o.idx].prompt.len())
        .sum();
    let prefilled: usize = log
        .calls
        .iter()
        .filter(|c| c.kind == Kind::Prefill)
        .map(|c| c.rows)
        .sum();
    push(
        "serve.prefill_work_ratio",
        "ratio",
        prefilled as f64 / prompt_tokens.max(1) as f64,
        format!("{prefilled} prefill tokens run / {prompt_tokens} prompt tokens sent"),
    );
    push(
        "serve.shed",
        "count",
        m.report.stats.shed as f64,
        String::new(),
    );
    push(
        "serve.expired",
        "count",
        m.report.stats.expired as f64,
        String::new(),
    );

    // step engine
    let of = |k: Kind| log.calls.iter().filter(move |c| c.kind == k);
    let decode_us: Vec<f64> = of(Kind::Decode).map(|c| (c.end - c.start) * 1e6).collect();
    let prefill_us: f64 = of(Kind::Prefill).map(|c| (c.end - c.start) * 1e6).sum();
    let busy: f64 = log.calls.iter().map(|c| c.end - c.start).sum();
    push(
        "engine.calls_per_iter.mean",
        "calls",
        (of(Kind::Prefill).count() + decode_us.len()) as f64 / iters,
        "prefill_chunk + decode_one per iteration".into(),
    );
    let (decode_p50, decode_tail, note) = pair(&decode_us);
    push("engine.decode_call_us.p50", "us", decode_p50, note.clone());
    push("engine.decode_call_us.tail", "us", decode_tail, note);
    push(
        "engine.decode_us_per_row",
        "us",
        mean(&decode_us),
        "mean decode_one".into(),
    );
    push(
        "engine.prefill_us_per_token",
        "us",
        prefill_us / prefilled.max(1) as f64,
        format!("{prefilled} tokens"),
    );
    push(
        "engine.busy_frac",
        "ratio",
        busy / wall,
        "engine call time / load wall time".into(),
    );

    // ring and host
    let stack_decode_us: f64 = probe
        .iter()
        .filter(|p| p.decode)
        .map(|p| p.layer_us * p.layers as f64)
        .sum();
    push(
        "ring.handoff_us_per_call",
        "us",
        if dist {
            decode_p50 - stack_decode_us
        } else {
            0.0
        },
        if dist {
            format!(
                "decode_call p50 {decode_p50:.1} us - probe layer compute {stack_decode_us:.1} us"
            )
        } else {
            "absent: no ring on this workload".into()
        },
    );
    push(
        "ring.restarts",
        "count",
        log.restarts as f64,
        if dist {
            String::new()
        } else {
            "no ring".into()
        },
    );
    let (steal, idle) = m.host_shares();
    push(
        "host.idle_frac",
        "ratio",
        idle,
        "/proc/stat during the load".into(),
    );
    push(
        "host.steal_frac",
        "ratio",
        steal,
        "/proc/stat during the load".into(),
    );
    push(
        "gen_lag_ms.max",
        "ms",
        run.gen_lag_ms_max,
        "generator lateness".into(),
    );

    // KV pool
    push(
        "kvpool.peak_occupancy",
        "ratio",
        log.peak_occupancy,
        String::new(),
    );
    let gather: Vec<f64> = if dist {
        Vec::new()
    } else {
        log.calls
            .iter()
            .filter(|c| matches!(c.kind, Kind::Prefill | Kind::Decode))
            .map(|c| (c.ctx * cfg.hidden * cfg.n_layers * 2 * 4) as f64)
            .collect()
    };
    let why = if dist {
        "absent: stages keep their own caches".to_string()
    } else {
        "computed ctx x hidden x layers x 2 x 4 B".into()
    };
    let gathered = gather.iter().fold(0.0, |a, b| a + b);
    push(
        "kvpool.gather_bytes_per_call.mean",
        "bytes",
        gathered / gather.len().max(1) as f64,
        why.clone(),
    );
    push("kvpool.gather_mb_per_s", "MB/s", gathered / 1e6 / wall, why);

    // decoder layer and kernels (replay probe)
    for p in probe {
        let phase = if p.decode { "decode" } else { "prefill" };
        let shape = format!(
            "m={} ctx={} {}",
            p.rows,
            p.ctx,
            if p.layers == 0 { "(not in plan)" } else { "" }
        );
        if p.decode {
            push(
                &format!("layer.{}.decode_us", p.bits),
                "us",
                p.layer_us,
                shape.clone(),
            );
            push(
                &format!("kernel.{}.decode_weight_gbps", p.bits),
                "GB/s",
                p.packed_bytes / p.kernel_us / 1e3,
                format!("{} packed bytes incl. scales, {shape}", p.packed_bytes),
            );
        } else {
            push(
                &format!("layer.{}.prefill_us_per_token", p.bits),
                "us",
                p.layer_us / p.rows as f64,
                shape.clone(),
            );
        }
        push(
            &format!("kernel.{}.{phase}_gmacs", p.bits),
            "GMAC/s",
            p.macs / p.kernel_us / 1e3,
            format!("{} MACs, {shape}", p.macs),
        );
    }
    for decode in [true, false] {
        let phase = if decode { "decode" } else { "prefill" };
        let ps: Vec<&Probe> = probe
            .iter()
            .filter(|p| p.decode == decode && p.layers > 0)
            .collect();
        let layer: f64 = ps.iter().map(|p| p.layer_us * p.layers as f64).sum();
        let kernel: f64 = ps.iter().map(|p| p.kernel_us * p.layers as f64).sum();
        let share = kernel / layer.max(1e-9);
        push(
            &format!("layer.attention_share.{phase}"),
            "ratio",
            1.0 - share,
            "layer time outside the six projections".into(),
        );
        push(
            &format!("kernel.share_of_layer.{phase}"),
            "ratio",
            share,
            "six projections / layer, plan-weighted".into(),
        );
    }
    out
}

/// Write the spans as a Chrome trace: requests (generator), engine
/// calls (wrapper) and iterations. Engine calls name their iteration as
/// parent and their request by id.
fn write_chrome_trace(path: &str, run: &Run, log: &Log) -> Result<usize, String> {
    let us = |t: f64| (t - run.start_s) * 1e6;
    let mut ev: Vec<String> = Vec::new();
    for o in &run.observed {
        let id = o.id.map_or(-1, |i| i as i64);
        ev.push(format!(
            "{{\"name\":\"request\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"idx\":{},\"tokens\":{}}}}}",
            us(o.sent_s),
            (o.done_s - o.sent_s) * 1e6,
            o.idx,
            o.tokens.len()
        ));
        for &t in &o.token_s {
            ev.push(format!("{{\"name\":\"token\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"args\":{{\"id\":{id}}}}}", us(t)));
        }
    }
    let mut prev = log.calls.first().map_or(run.start_s, |c| c.start);
    for (i, k) in log.marks.iter().enumerate() {
        ev.push(format!(
            "{{\"name\":\"iteration\",\"ph\":\"X\",\"pid\":1,\"tid\":3,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"prefill\":{},\"decode\":{}}}}}",
            us(prev),
            (k.t - prev) * 1e6,
            k.prefill,
            k.decode
        ));
        prev = k.t;
    }
    let mut iter = 0;
    for c in &log.calls {
        while iter < log.marks.len() && log.marks[iter].t < c.end {
            iter += 1;
        }
        ev.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{iter},\"rows\":{},\"ctx\":{}}}}}",
            c.kind.name(),
            us(c.start),
            (c.end - c.start) * 1e6,
            c.seq,
            c.rows,
            c.ctx
        ));
    }
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(
        path,
        format!("{{\"traceEvents\":[\n{}\n]}}\n", ev.join(",\n")),
    )
    .map_err(|e| e.to_string())?;
    Ok(ev.len())
}
