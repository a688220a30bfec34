//! Set-up: plan with Algorithm 1, build the quantized engine, start the
//! server, and compute the offline oracle.

use crate::{now_s, EngineKind};
use llm_pq::{assign, AssignerConfig, ExecutionPlan, SolverChoice};
use llmpq_cluster::paper_cluster;
use llmpq_cost::CostDb;
use llmpq_model::{zoo, RefConfig, RefModel};
use llmpq_quant::{calibrate, quantize_model, variance_indicator, Rounding};
use llmpq_runtime::{
    real_clock, AdmissionConfig, ContinuousConfig, DistServeConfig, DistStepEngine, HttpServer,
    HttpServerConfig, KvPoolConfig, ModelStepEngine, StreamEvent, Telemetry,
};
use llmpq_sim::KernelEnv;
use llmpq_workload::BatchJob;
use std::collections::HashMap;
use std::net::TcpListener;

/// Positions the served model holds (prompt + output).
pub const CONTEXT: usize = 512;
/// Seed of the stand-in checkpoint's weights (fixed: the workload seed
/// only changes traffic).
pub const CHECKPOINT_SEED: u64 = 0x5EB0;
/// Seed handed to the quantizer (deterministic rounding ignores it).
pub const QUANT_SEED: u64 = 0;
/// Sequences in flight at once.
pub const MAX_BATCH: usize = 32;
/// Prefill + decode tokens per scheduler iteration: enough for every
/// sequence of a full batch to prefill a whole chunk at once, so the
/// offline batch prefills in one iteration and then decodes, as in the
/// paper's batch case.
pub const TOKEN_BUDGET: usize = MAX_BATCH * PREFILL_CHUNK;
/// Longest prefill chunk per sequence per iteration.
pub const PREFILL_CHUNK: usize = 64;
/// KV blocks of `KV_BLOCK_TOKENS`: room for `MAX_BATCH` full contexts.
pub const KV_BLOCKS: usize = MAX_BATCH * CONTEXT / KV_BLOCK_TOKENS;
pub const KV_BLOCK_TOKENS: usize = 16;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 15;

/// Algorithm 1 on the same inputs as
/// `llmpq-algo --model-name opt --model_size 1.3b --cluster 3
/// --global_bz 16 --s 128 --n 64 --theta 1 --group 2`.
pub fn plan() -> Result<ExecutionPlan, String> {
    let spec = zoo::by_name("opt-1.3b").ok_or("opt-1.3b is not in the model zoo")?;
    let cluster = paper_cluster(3);
    let job = BatchJob {
        global_batch: 16,
        prompt_len: 128,
        n_generate: 64,
    };
    let cfg = AssignerConfig {
        theta: 1.0,
        solver: SolverChoice::Dp { group: 2 },
        search_kv8: false,
        max_bits: None,
        max_orderings: 6,
        dp_grid: Some(12),
        ..Default::default()
    };
    let db = CostDb::oracle(&KernelEnv::default());
    let teacher = RefModel::new(RefConfig::scaled_like(spec.n_layers, 1));
    let calib: Vec<Vec<usize>> = (0..4)
        .map(|i| {
            (0..32)
                .map(|j| (i * 37 + j * 11) % teacher.cfg.vocab)
                .collect()
        })
        .collect();
    let report = calibrate(&teacher, &calib);
    let indicator =
        variance_indicator(&teacher, &report, Rounding::Deterministic).normalized_budget(1.0);
    Ok(assign(&cluster, &spec, &job, &db, &indicator, &cfg)?.plan)
}

/// The stand-in checkpoint the plan is served on.
pub fn checkpoint(plan: &ExecutionPlan) -> RefModel {
    let cfg = RefConfig::scaled_like(plan.n_layers(), CHECKPOINT_SEED);
    RefModel::new(RefConfig {
        max_seq: CONTEXT,
        ..cfg
    })
}

/// A constructed, not yet started engine.
pub enum Engine {
    Local(Box<ModelStepEngine>),
    Dist(Box<DistStepEngine>),
}

fn kv_pool() -> KvPoolConfig {
    KvPoolConfig {
        n_blocks: KV_BLOCKS,
        block_tokens: KV_BLOCK_TOKENS,
    }
}

/// Quantize and pack the plan's shards into `kind`'s engine.
pub fn build_engine(
    kind: EngineKind,
    ckpt: &RefModel,
    plan: &ExecutionPlan,
) -> Result<Engine, String> {
    let rounding = Rounding::Deterministic;
    Ok(match kind {
        EngineKind::Local => Engine::Local(Box::new(ModelStepEngine::new(
            ckpt,
            &[plan.bit_assignment()],
            rounding,
            QUANT_SEED,
            kv_pool(),
        )?)),
        EngineKind::Dist => Engine::Dist(Box::new(DistStepEngine::over_channels(
            ckpt,
            vec![plan.clone()],
            rounding,
            QUANT_SEED,
            DistServeConfig {
                n_slots: MAX_BATCH,
                pool: kv_pool(),
                ..DistServeConfig::default()
            },
            None,
        )?)),
    })
}

pub fn scheduler_config() -> ContinuousConfig {
    ContinuousConfig {
        admission: AdmissionConfig {
            max_queue: 4096,
            ..AdmissionConfig::default()
        },
        token_budget: TOKEN_BUDGET,
        max_batch: MAX_BATCH,
        prefill_chunk: PREFILL_CHUNK,
        ..ContinuousConfig::default()
    }
}

pub fn http_config(ckpt: &RefModel) -> HttpServerConfig {
    HttpServerConfig {
        vocab: ckpt.cfg.vocab,
        max_tokens_cap: CONTEXT,
        ..HttpServerConfig::default()
    }
}

/// Starts a server on an engine: [`start`], or the traced runner's,
/// which wraps the engine first.
pub type Starter<'a> = dyn FnMut(Engine, ContinuousConfig, HttpServerConfig, TcpListener) -> Result<HttpServer, String>
    + 'a;

/// Start a server on the engine as built.
pub fn start(
    engine: Engine,
    cfg: ContinuousConfig,
    http: HttpServerConfig,
    listener: TcpListener,
) -> Result<HttpServer, String> {
    match engine {
        Engine::Local(e) => {
            HttpServer::start(listener, e, cfg, http, Telemetry::new(0), real_clock())
        }
        Engine::Dist(e) => {
            HttpServer::start(listener, e, cfg, http, Telemetry::new(0), real_clock())
        }
    }
}

/// Wall seconds of each set-up phase, one entry per repeat.
#[derive(Debug, Default, Clone)]
pub struct SetupTimes {
    pub total_s: Vec<f64>,
    pub plan_s: Vec<f64>,
    pub engine_s: Vec<f64>,
    pub server_s: Vec<f64>,
    /// `(start, end)` of each repeat on the [`now_s`] clock.
    pub windows: Vec<(f64, f64)>,
}

/// A started server and what it was built from.
pub struct Served {
    pub server: HttpServer,
    pub plan: ExecutionPlan,
    pub checkpoint: RefModel,
    pub times: SetupTimes,
}

/// Set up `SETUP_REPEATS` times (plan → checkpoint + quantize/pack + engine
/// → server start + one warm-up request, which boots a lazy ring) and
/// keep the last server. Earlier servers are shut down outside the
/// timed phases.
pub fn set_up(kind: EngineKind, start: &mut Starter) -> Result<Served, String> {
    let mut times = SetupTimes::default();
    let mut last: Option<Served> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(prev) = last.take() {
            prev.server.shutdown()?;
        }
        let t0 = now_s();
        let plan = plan()?;
        let t1 = now_s();
        let checkpoint = checkpoint(&plan);
        let engine = build_engine(kind, &checkpoint, &plan)?;
        let t2 = now_s();
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let server = start(
            engine,
            scheduler_config(),
            http_config(&checkpoint),
            listener,
        )?;
        warm_up(&server)?;
        let t3 = now_s();
        times.plan_s.push(t1 - t0);
        times.engine_s.push(t2 - t1);
        times.server_s.push(t3 - t2);
        times.total_s.push(t3 - t0);
        times.windows.push((t0, t3));
        last = Some(Served {
            server,
            plan,
            checkpoint,
            times: SetupTimes::default(),
        });
    }
    let mut served = last.expect("at least one set-up");
    served.times = times;
    Ok(served)
}

/// Requests each server serves during set-up, before the load.
pub const WARM_UPS: usize = 1;

fn warm_up(server: &HttpServer) -> Result<(), String> {
    let rx = server
        .handle()
        .submit_stream(vec![1, 2, 3, 4], 2, 1, None)
        .ok_or("server closed")?;
    loop {
        match rx.recv() {
            Ok(StreamEvent::Token { .. }) => {}
            Ok(StreamEvent::Done(_)) => return Ok(()),
            Ok(other) => return Err(format!("warm-up request failed: {other:?}")),
            Err(_) => return Err("server closed during warm-up".into()),
        }
    }
}

/// Offline reference outputs: `quantize_model(checkpoint, plan bits)
/// .generate(prompt, n, 0.0, 0)` for each `(key, prompt, n)`, on two
/// threads.
pub fn oracle(
    ckpt: &RefModel,
    plan: &ExecutionPlan,
    jobs: &[(usize, &[usize], usize)],
) -> HashMap<usize, Vec<usize>> {
    let model = quantize_model(
        ckpt,
        &plan.bit_assignment(),
        Rounding::Deterministic,
        QUANT_SEED,
    );
    let half = jobs.len().div_ceil(2).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .chunks(half)
            .map(|chunk| {
                let model = &model;
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&(key, prompt, n)| (key, model.generate(prompt, n, 0.0, 0).tokens))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread"))
            .collect()
    })
}
