//! Host counters, the end-to-end metrics, the correctness verdict and
//! the result line.

use crate::traffic::{Outcome, Run};
use crate::yardstick::HostSpeed;
use crate::{mean, median, percentile, tail_percentile, Load, Spec};
use llmpq_runtime::ContinuousReport;
use std::collections::HashMap;

/// Kernel clock ticks per second for `/proc` CPU times (`USER_HZ`).
const USER_HZ: f64 = 100.0;

/// A `/proc` snapshot: this process's CPU time and the host's CPU
/// counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSnap {
    /// user + system seconds of this process (all threads).
    pub cpu_s: f64,
    /// `/proc/stat` aggregate: user nice system idle iowait irq softirq steal.
    pub host: [u64; 8],
}

pub(crate) fn snap() -> ProcSnap {
    let cpu_s = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(
                (f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?) as f64
                    / USER_HZ,
            )
        })
        .unwrap_or(0.0);
    let mut host = [0u64; 8];
    if let Some(line) = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(str::to_owned))
    {
        for (slot, v) in host.iter_mut().zip(line.split_whitespace().skip(1)) {
            *slot = v.parse().unwrap_or(0);
        }
    }
    ProcSnap { cpu_s, host }
}

/// Host CPU shares over the intervals between snapshot pairs:
/// `(steal, idle)`, idle including iowait.
pub fn host_shares(intervals: &[(ProcSnap, ProcSnap)]) -> (f64, f64) {
    let mut d = [0.0f64; 8];
    for (a, b) in intervals {
        for (i, slot) in d.iter_mut().enumerate() {
            *slot += b.host[i].saturating_sub(a.host[i]) as f64;
        }
    }
    let total: f64 = d.iter().sum::<f64>().max(1.0);
    (d[7] / total, (d[3] + d[4]) / total)
}

/// Peak resident set of this process (VmHWM), MB.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// How it was computed, e.g. "p90 of 412 samples".
    pub note: String,
    /// A rate rather than a cost: a higher value is the better one.
    pub higher_is_better: bool,
}

impl Metric {
    pub fn new(
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        note: impl Into<String>,
    ) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
            note: note.into(),
            higher_is_better: false,
        }
    }

    /// The value on the reference host, given that this host ran
    /// `slowdown` times slower than it.
    pub fn normalized(self, slowdown: f64) -> Self {
        let value = if self.higher_is_better {
            self.value * slowdown
        } else {
            self.value / slowdown
        };
        Self {
            value,
            note: format!(
                "{:.4} as measured, host {slowdown:.3}x slower than reference; {}",
                self.value, self.note
            ),
            ..self
        }
    }

    /// The same metric, marked as one where higher is better.
    pub fn higher(self) -> Self {
        Self {
            higher_is_better: true,
            ..self
        }
    }
}

/// Median and tail of a sample as two metrics named `<stem>_p50_<unit>`
/// and `<stem>_tail_<unit>`.
pub(crate) fn p50_and_tail(stem: &str, unit: &'static str, v: &[f64]) -> [Metric; 2] {
    let p = tail_percentile(v.len());
    [
        Metric::new(
            format!("{stem}_p50_{unit}"),
            unit,
            median(v),
            format!("p50 of {} samples", v.len()),
        ),
        Metric::new(
            format!("{stem}_tail_{unit}"),
            unit,
            percentile(v, p),
            format!("p{p} of {} samples", v.len()),
        ),
    ]
}

/// Request accounting against the oracle and the server's own books.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Requests the load made: the generated count on the batch and
    /// open-loop loads, else those sent.
    pub attempted: usize,
    pub sent: usize,
    pub completed: usize,
    pub shed: usize,
    pub expired: usize,
    pub errors: usize,
    pub mismatches: usize,
    /// Every generated request came back with an outcome, and the
    /// server's report agrees with the client's counts.
    pub conserved: bool,
    pub problems: Vec<String>,
}

impl Verdict {
    /// Requests that did not complete with the oracle's tokens.
    pub fn failed(&self) -> usize {
        self.attempted.max(self.sent) - (self.completed - self.mismatches)
    }

    pub fn correct(&self) -> bool {
        self.conserved && self.mismatches == 0
    }
}

/// Check every completed request against `oracle` (keyed by request
/// index), the number of outcomes against the `generated` request count
/// where there is one, and the counts against the server's report,
/// which also saw the set-up's warm-up requests.
pub fn verdict(
    run: &Run,
    generated: Option<usize>,
    oracle: &HashMap<usize, Vec<usize>>,
    report: &ContinuousReport,
) -> Verdict {
    let warm_ups = crate::setup::WARM_UPS;
    let mut v = Verdict {
        attempted: generated.unwrap_or(run.observed.len()),
        sent: run.observed.len(),
        ..Verdict::default()
    };
    for o in &run.observed {
        match &o.outcome {
            Outcome::Done => {
                v.completed += 1;
                if oracle.get(&o.idx) != Some(&o.tokens) {
                    v.mismatches += 1;
                    if v.problems.len() < 5 {
                        v.problems.push(format!(
                            "request {} (server id {:?}): tokens differ from the oracle",
                            o.idx, o.id
                        ));
                    }
                }
            }
            Outcome::Shed => v.shed += 1,
            Outcome::Expired => v.expired += 1,
            Outcome::Status(_) | Outcome::Error(_) => {
                v.errors += 1;
                if v.problems.len() < 5 {
                    v.problems
                        .push(format!("request {}: {:?}", o.idx, o.outcome));
                }
            }
        }
    }
    let st = &report.stats;
    let checks = [
        (
            "every generated request has an outcome",
            generated.is_none_or(|n| n == v.sent),
        ),
        (
            "server report conserves",
            report.conserves() && report.pending_end == 0,
        ),
        ("server offered = sent", st.offered == v.sent + warm_ups),
        (
            "server served = completed",
            st.served == v.completed + warm_ups,
        ),
        ("server shed = shed", st.shed == v.shed),
        ("server expired = expired", st.expired == v.expired),
    ];
    v.conserved = true;
    for (what, ok) in checks {
        if !ok {
            v.conserved = false;
            v.problems.push(format!(
                "conservation breach: {what} (client {}/{}/{}/{}/{}, server offered {} served {} shed {} expired {} pending {})",
                v.sent, v.completed, v.shed, v.expired, v.errors, st.offered, st.served, st.shed, st.expired, report.pending_end
            ));
        }
    }
    v
}

/// Client-side latency samples of a run, in ms. TTFT and latency are
/// measured from when a request was due (open loop) or sent.
pub(crate) struct Latencies {
    pub ttft_ms: Vec<f64>,
    pub itl_ms: Vec<f64>,
    /// Per request, the mean gap between its streamed tokens.
    pub tpot_ms: Vec<f64>,
    pub latency_ms: Vec<f64>,
    /// Completed requests meeting both SLO limits (open loop only).
    pub slo_met: usize,
    pub tokens: usize,
    pub completed: usize,
}

/// Each sample is divided by the host's slowdown over its own interval,
/// so it reads as it would have on the reference host.
pub(crate) fn latencies(spec: &Spec, run: &Run, host: &HostSpeed) -> Latencies {
    let mut l = Latencies {
        ttft_ms: vec![],
        itl_ms: vec![],
        tpot_ms: vec![],
        latency_ms: vec![],
        slo_met: 0,
        tokens: 0,
        completed: 0,
    };
    for o in run
        .observed
        .iter()
        .filter(|o| o.outcome == Outcome::Done && !o.token_s.is_empty())
    {
        let from = if matches!(spec.load, Load::Closed { .. }) {
            o.sent_s
        } else {
            o.due_s
        };
        let ms = |t0: f64, t1: f64| (t1 - t0) * 1e3 / host.slowdown(t0, t1);
        let last = o.token_s[o.token_s.len() - 1];
        let ttft = ms(from, o.token_s[0]);
        let gaps: Vec<f64> = o.token_s.windows(2).map(|w| ms(w[0], w[1])).collect();
        let tpot = mean(&gaps);
        if let Load::Poisson {
            slo_ttft_ms,
            slo_tpot_ms,
            ..
        } = spec.load
        {
            l.slo_met += usize::from(ttft <= slo_ttft_ms && tpot <= slo_tpot_ms);
        }
        l.ttft_ms.push(ttft);
        l.latency_ms.push(ms(from, last));
        if !gaps.is_empty() {
            l.tpot_ms.push(tpot);
        }
        l.itl_ms.extend(gaps);
        l.tokens += o.tokens.len();
        l.completed += 1;
    }
    l
}

/// Inputs of the end-to-end metrics besides the run itself.
pub(crate) struct Context<'a> {
    /// Set-up times, normalized already.
    pub setup_s: Vec<f64>,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub host: &'a HostSpeed,
}

/// Every end-to-end metric of one repetition, on the reference host:
/// latency samples are normalized one by one, rates and CPU time by the
/// host's slowdown over the whole repetition.
pub(crate) fn end_to_end(spec: &Spec, run: &Run, ctx: &Context) -> Vec<Metric> {
    let l = latencies(spec, run, ctx.host);
    let slowdown = ctx.host.slowdown(run.start_s, run.end_s);
    let wall = (run.end_s - run.start_s).max(1e-9);
    let mut m = vec![
        Metric::new(
            "setup_s",
            "s",
            median(&ctx.setup_s),
            format!("median of {} normalized set-ups", ctx.setup_s.len()),
        ),
        Metric::new(
            "output_tok_s",
            "tok/s",
            l.tokens as f64 / wall,
            format!("{} tokens in {wall:.3} s", l.tokens),
        )
        .higher()
        .normalized(slowdown),
    ];
    m.extend(p50_and_tail("ttft", "ms", &l.ttft_ms));
    m.extend(p50_and_tail("itl", "ms", &l.itl_ms));
    m.extend(p50_and_tail("tpot", "ms", &l.tpot_ms));
    m.extend(p50_and_tail("latency", "ms", &l.latency_ms));
    m.push(
        Metric::new(
            "request_rps",
            "req/s",
            l.completed as f64 / wall,
            format!("{} requests in {wall:.3} s", l.completed),
        )
        .higher()
        .normalized(slowdown),
    );
    if let Load::Poisson {
        slo_ttft_ms,
        slo_tpot_ms,
        ..
    } = spec.load
    {
        let sent = run.observed.len().max(1);
        m.push(
            Metric::new(
                "slo_attainment",
                "ratio",
                l.slo_met as f64 / sent as f64,
                format!(
                    "{} of {sent} sent meet TTFT <= {slo_ttft_ms} ms and mean ITL <= {slo_tpot_ms} ms",
                    l.slo_met
                ),
            )
            .higher(),
        );
    }
    m.push(
        Metric::new(
            "cpu_ms_per_token",
            "ms",
            ctx.cpu_s * 1e3 / l.tokens.max(1) as f64,
            format!("{:.3} CPU s over {} tokens", ctx.cpu_s, l.tokens),
        )
        .normalized(slowdown),
    );
    m.push(Metric::new("peak_rss_mb", "MB", ctx.peak_rss_mb, "VmHWM"));
    m
}

/// The metric names `BENCHMARK.json` (at the repository root, the
/// working directory of both runners) lists under `section`:
/// `end_to_end` for the end-to-end runner, `per_layer` for the traced
/// one. The result object carries exactly these.
pub fn listed(section: &str) -> Result<Vec<String>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = serde_json::parse_value(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(serde_json::Value::Arr(items)) = doc.get(section) else {
        return Err(format!("BENCHMARK.json has no {section} list"));
    };
    items
        .iter()
        .map(|m| match m.get("name") {
            Some(serde_json::Value::Str(name)) => Ok(name.clone()),
            _ => Err(format!("BENCHMARK.json: an entry of {section} has no name")),
        })
        .collect()
}

/// Print each metric on its own line, then the result object, holding
/// the metrics `BENCHMARK.json` lists under `section`, as the last line
/// of standard output. A listed metric the run did not produce is an
/// error.
pub fn print_result(v: &Verdict, metrics: &[Metric], section: &str) -> Result<(), String> {
    for p in &v.problems {
        println!("problem: {p}");
    }
    println!(
        "requests: attempted {} sent {} completed {} shed {} expired {} errors {} token-mismatches {} (failed_frac {:.4}, conserved {})",
        v.attempted,
        v.sent,
        v.completed,
        v.shed,
        v.expired,
        v.errors,
        v.mismatches,
        v.failed() as f64 / v.attempted.max(1) as f64,
        v.conserved
    );
    for m in metrics {
        println!(
            "metric {:<40} {:>14.4} {:<6} ({})",
            m.name, m.value, m.unit, m.note
        );
    }
    let body = listed(section)?
        .iter()
        .map(|name| {
            let m = metrics
                .iter()
                .find(|m| &m.name == name)
                .ok_or_else(|| format!("BENCHMARK.json lists {name}, which this run lacks"))?;
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            Ok(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ))
        })
        .collect::<Result<Vec<String>, String>>()?;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        v.correct(),
        v.attempted.max(1),
        v.failed(),
        body.join(", ")
    );
    Ok(())
}
