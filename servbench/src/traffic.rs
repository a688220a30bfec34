//! Seeded traffic and the three load generators: a batch or open-loop
//! generator through `ServeHandle::submit_stream`, and closed-loop
//! keep-alive HTTP clients streaming completions.

use crate::setup::CONTEXT;
use crate::{mix, now_s, Load, Prompts, Spec};
use llmpq_runtime::{ServeHandle, StreamEvent};
use llmpq_workload::{sample_arrivals, OnlineConfig, PromptLengthModel};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// Draws per stratum when lengths are stratified (see [`requests`]).
const STRATA: usize = 16;
/// Closed-loop request pool per second of run; clients cycle through it.
const CLOSED_POOL_PER_S: f64 = 400.0;
/// Longest the collector blocks on one stream before sweeping the rest.
const POLL: Duration = Duration::from_millis(1);

/// One request of a workload.
#[derive(Debug, Clone)]
pub struct Req {
    pub prompt: Vec<usize>,
    pub n_gen: usize,
    /// When it is due, seconds after the load starts (0 for batch and
    /// closed-loop loads).
    pub due_s: f64,
}

/// The workload's requests for `seed` and a run of `seconds`.
///
/// Batch and open-loop workloads have a fixed request count, and their
/// prompt and output lengths are stratified: `STRATA × n` lengths are
/// drawn from the sampler, sorted, and one is taken at a seeded offset
/// within each of `n` equal strata, then shuffled. Every seed then
/// sees the sampler's distribution with the same shape, so run-to-run
/// spread measures the system rather than the draw. Open-loop arrival
/// times are a Poisson process conditioned on `n` arrivals in
/// `n / rate` seconds.
pub fn requests(spec: &Spec, seed: u64, seconds: f64, vocab: usize) -> Result<Vec<Req>, String> {
    let (n, rate, stratify) = match spec.load {
        Load::Batch { requests } => (requests, 1.0, true),
        Load::Poisson { rate, .. } => ((seconds * rate).round().max(1.0) as usize, rate, true),
        Load::Closed { .. } => ((seconds * CLOSED_POOL_PER_S).ceil() as usize, 1.0, false),
    };
    let (model, lo, hi) = match spec.prompts {
        Prompts::Range(lo, hi) => {
            let centre = ((lo * hi) as f64).sqrt().ln();
            let m = PromptLengthModel {
                short_weight: 1.0,
                short: (centre, 0.35),
                long: (centre, 0.35),
                max_len: hi,
            };
            (m, lo, hi)
        }
        Prompts::ShareGpt => {
            let hi = CONTEXT - spec.gen.1 - 1;
            let m = PromptLengthModel {
                max_len: hi,
                ..PromptLengthModel::default()
            };
            (m, 1, hi)
        }
    };
    let draws = if stratify { n * STRATA } else { n };
    let cfg = OnlineConfig {
        arrival_rate: rate,
        n_requests: draws.max(n + 1),
        n_generate: spec.gen,
        seed,
        ..OnlineConfig::default()
    };
    let arrivals = sample_arrivals(&cfg, &model).map_err(|e| e.to_string())?;
    let mut prompt_lens: Vec<usize> = arrivals
        .iter()
        .map(|a| a.prompt_len.clamp(lo, hi))
        .collect();
    let mut gen_lens: Vec<usize> = arrivals.iter().map(|a| a.n_generate).collect();
    if stratify {
        prompt_lens = stratified(prompt_lens, n, seed ^ 0x0A);
        gen_lens = stratified(gen_lens, n, seed ^ 0x0B);
    }
    let span = match spec.load {
        Load::Poisson { .. } => n as f64 / rate / arrivals[n].arrival_s,
        _ => 0.0,
    };
    Ok((0..n)
        .map(|i| Req {
            prompt: (0..prompt_lens[i])
                .map(|j| {
                    (mix(seed ^ mix(i as u64) ^ (j as u64).rotate_left(32)) % vocab as u64) as usize
                })
                .collect(),
            n_gen: gen_lens[i],
            due_s: arrivals[i].arrival_s * span,
        })
        .collect())
}

fn stratified(mut v: Vec<usize>, n: usize, seed: u64) -> Vec<usize> {
    v.sort_unstable();
    let k = v.len() / n;
    let mut out: Vec<usize> = (0..n)
        .map(|i| v[i * k + (mix(seed ^ i as u64) % k as u64) as usize])
        .collect();
    for i in (1..n).rev() {
        out.swap(
            i,
            (mix(seed.rotate_left(7) ^ i as u64) % (i as u64 + 1)) as usize,
        );
    }
    out
}

/// How a request ended, as its client saw it.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Done,
    Shed,
    Expired,
    /// Any other HTTP status.
    Status(u16),
    /// Socket, protocol or stream error.
    Error(String),
}

/// Everything the generator recorded about one request. Times are on
/// the [`now_s`] clock.
#[derive(Debug, Clone)]
pub struct Observed {
    /// Index into the workload's request list.
    pub idx: usize,
    /// Server-assigned request id (the engine's sequence id).
    pub id: Option<usize>,
    pub due_s: f64,
    pub sent_s: f64,
    pub token_s: Vec<f64>,
    pub tokens: Vec<usize>,
    pub outcome: Outcome,
    pub done_s: f64,
    /// `latency_ms` the server reported in its final record (HTTP only).
    pub server_latency_ms: Option<f64>,
}

impl Observed {
    fn new(idx: usize, due_s: f64, sent_s: f64) -> Self {
        Self {
            idx,
            id: None,
            due_s,
            sent_s,
            token_s: Vec::new(),
            tokens: Vec::new(),
            outcome: Outcome::Error("no answer".into()),
            done_s: sent_s,
            server_latency_ms: None,
        }
    }
}

/// One load run.
#[derive(Debug, Clone)]
pub struct Run {
    pub observed: Vec<Observed>,
    pub start_s: f64,
    /// When the last request ended.
    pub end_s: f64,
    /// Largest delay between a request's due time and its submission.
    pub gen_lag_ms_max: f64,
}

/// Submit `reqs` through the handle at their due times (one generator
/// thread) and collect their streams (this thread). A stream still open
/// at `deadline` (on the [`now_s`] clock) ends as an error.
pub fn drive_handle(handle: ServeHandle, reqs: &[Req], deadline: f64) -> Run {
    type Submitted = (usize, f64, f64, Option<mpsc::Receiver<StreamEvent>>);
    let start = now_s();
    let (tx, rx) = mpsc::channel::<Submitted>();
    std::thread::scope(|s| {
        let generator = s.spawn(move || {
            let mut lag = 0.0f64;
            for (i, r) in reqs.iter().enumerate() {
                let due = start + r.due_s;
                let wait = due - now_s();
                if wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
                let sent = now_s();
                lag = lag.max(sent - due);
                let sub = handle.submit_stream(r.prompt.clone(), r.n_gen, 1, None);
                if tx.send((i, due, sent, sub)).is_err() {
                    break;
                }
            }
            lag
        });
        let observed = collect(rx, deadline);
        let lag = generator.join().expect("generator thread");
        let end_s = observed.iter().map(|o| o.done_s).fold(start, f64::max);
        Run {
            observed,
            start_s: start,
            end_s,
            gen_lag_ms_max: lag * 1e3,
        }
    })
}

fn collect(
    rx: mpsc::Receiver<(usize, f64, f64, Option<mpsc::Receiver<StreamEvent>>)>,
    deadline: f64,
) -> Vec<Observed> {
    let mut active: Vec<(Observed, mpsc::Receiver<StreamEvent>)> = Vec::new();
    let mut finished = Vec::new();
    let mut generator_done = false;
    loop {
        loop {
            let next = if active.is_empty() && !generator_done {
                rx.recv().map_err(|_| mpsc::TryRecvError::Disconnected)
            } else {
                rx.try_recv()
            };
            match next {
                Ok((i, due, sent, Some(stream))) => {
                    active.push((Observed::new(i, due, sent), stream))
                }
                Ok((i, due, sent, None)) => {
                    let mut o = Observed::new(i, due, sent);
                    o.outcome = Outcome::Error("server closed".into());
                    finished.push(o);
                }
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    generator_done = true;
                    break;
                }
            }
        }
        if generator_done && active.is_empty() {
            return finished;
        }
        if now_s() > deadline {
            // Dropping `rx` stops the generator; requests it never
            // submitted are missing from the result, which the
            // conservation check reports.
            for (mut o, _) in active {
                o.outcome = Outcome::Error("unanswered at the load deadline".into());
                o.done_s = now_s();
                finished.push(o);
            }
            return finished;
        }
        // Block on a stream that is already decoding (or the oldest):
        // every iteration that decodes it wakes us, and the iteration's
        // other tokens were sent in the same scheduler pass. Then sweep
        // all streams without blocking.
        let first = active
            .iter()
            .position(|(o, _)| !o.tokens.is_empty())
            .unwrap_or(0);
        let mut woken = Some(first)
            .filter(|_| !active.is_empty())
            .and_then(|i| active[i].1.recv_timeout(POLL).ok().map(|ev| (i, ev)));
        let mut i = 0;
        active.retain_mut(|(o, stream)| loop {
            let ev = match woken.take_if(|(w, _)| *w == i) {
                Some((_, ev)) => Ok(ev),
                None => stream.try_recv(),
            };
            let t = now_s();
            let outcome = match ev {
                Err(mpsc::TryRecvError::Empty) => {
                    i += 1;
                    return true;
                }
                Ok(StreamEvent::Token { index, token }) => {
                    // A recompute after preemption re-lands indices
                    // already delivered.
                    if index == o.tokens.len() {
                        o.tokens.push(token);
                        o.token_s.push(t);
                    }
                    continue;
                }
                Ok(StreamEvent::Done(fin)) => {
                    o.id = Some(fin.id);
                    if fin.tokens == o.tokens {
                        Outcome::Done
                    } else {
                        Outcome::Error("streamed tokens differ from the final record".into())
                    }
                }
                Ok(StreamEvent::Shed) => Outcome::Shed,
                Ok(StreamEvent::Expired) => Outcome::Expired,
                Err(mpsc::TryRecvError::Disconnected) => Outcome::Error("stream closed".into()),
            };
            o.outcome = outcome;
            o.done_s = t;
            finished.push(o.clone());
            i += 1;
            return false;
        });
    }
}

/// `clients` closed-loop keep-alive clients sending `"stream": true`
/// completions to `addr`, cycling through `reqs`, until `seconds` pass.
pub fn drive_http(addr: SocketAddr, reqs: &[Req], clients: usize, seconds: f64) -> Run {
    let start = now_s();
    let deadline = start + seconds;
    let next = AtomicUsize::new(0);
    let observed: Vec<Observed> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| s.spawn(|| http_client(addr, reqs, &next, deadline)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let end_s = observed.iter().map(|o| o.done_s).fold(start, f64::max);
    Run {
        observed,
        start_s: start,
        end_s,
        gen_lag_ms_max: 0.0,
    }
}

fn http_client(addr: SocketAddr, reqs: &[Req], next: &AtomicUsize, deadline: f64) -> Vec<Observed> {
    let mut out = Vec::new();
    let connected = TcpStream::connect(addr).and_then(|s| {
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok((s.try_clone()?, s))
    });
    let (mut writer, stream) = match connected {
        Ok(pair) => pair,
        Err(e) => {
            let mut o = Observed::new(0, now_s(), now_s());
            o.outcome = Outcome::Error(format!("connect: {e}"));
            return vec![o];
        }
    };
    let mut reader = BufReader::new(stream);
    while now_s() < deadline {
        let idx = next.fetch_add(1, Ordering::Relaxed) % reqs.len();
        let r = &reqs[idx];
        let prompt: Vec<String> = r.prompt.iter().map(|t| t.to_string()).collect();
        let body = format!(
            "{{\"prompt\":[{}],\"max_tokens\":{},\"stream\":true}}",
            prompt.join(","),
            r.n_gen
        );
        let head = format!(
            "POST /v1/completions HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let sent = now_s();
        let mut o = Observed::new(idx, sent, sent);
        let res = writer
            .write_all(format!("{head}{body}").as_bytes())
            .map_err(|e| e.to_string())
            .and_then(|()| read_streamed(&mut reader, &mut o));
        o.done_s = now_s();
        let broken = res.is_err();
        if let Err(e) = res {
            o.outcome = Outcome::Error(e);
        }
        out.push(o);
        if broken {
            break;
        }
    }
    out
}

/// Read one response; a streamed 200 yields one JSON line per token
/// chunk, then a `done` line.
fn read_streamed(r: &mut BufReader<TcpStream>, o: &mut Observed) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    let mut line = String::new();
    r.read_line(&mut line).map_err(io)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("bad status line {line:?}"))?;
    let (mut length, mut chunked) = (0usize, false);
    loop {
        line.clear();
        r.read_line(&mut line).map_err(io)?;
        let h = line.trim_end().to_ascii_lowercase();
        if h.is_empty() {
            break;
        }
        if let Some(v) = h.strip_prefix("content-length:") {
            length = v.trim().parse().map_err(|_| format!("bad header {h:?}"))?;
        }
        chunked |= h.starts_with("transfer-encoding:") && h.contains("chunked");
    }
    if !chunked {
        let mut body = vec![0u8; length];
        r.read_exact(&mut body).map_err(io)?;
        o.outcome = match status {
            429 => Outcome::Shed,
            504 => Outcome::Expired,
            s => Outcome::Status(s),
        };
        return Ok(());
    }
    loop {
        line.clear();
        r.read_line(&mut line).map_err(io)?;
        let size = usize::from_str_radix(line.trim(), 16)
            .map_err(|_| format!("bad chunk size {line:?}"))?;
        let mut chunk = vec![0u8; size + 2];
        r.read_exact(&mut chunk).map_err(io)?;
        if size == 0 {
            break;
        }
        let t = now_s();
        let text = String::from_utf8_lossy(&chunk[..size]);
        if text.contains("\"done\":true") {
            o.outcome = match field(&text, "reason") {
                None => Outcome::Done,
                Some("\"shed\"") => Outcome::Shed,
                Some("\"expired\"") => Outcome::Expired,
                Some(other) => Outcome::Error(format!("stream ended: {other}")),
            };
            o.id = field(&text, "id")
                .and_then(|v| v.trim_matches('"').strip_prefix("cmpl-")?.parse().ok());
            o.server_latency_ms = field(&text, "latency_ms").and_then(|v| v.parse().ok());
        } else {
            let tok = field(&text, "token")
                .and_then(|v| v.parse().ok())
                .ok_or("token chunk without a token")?;
            o.tokens.push(tok);
            o.token_s.push(t);
        }
    }
    if status != 200 {
        o.outcome = Outcome::Status(status);
    }
    Ok(())
}

/// The raw value of `"key":` in a flat JSON line.
fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let at = text.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &text[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}
