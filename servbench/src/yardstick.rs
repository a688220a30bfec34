//! Host-speed yardstick: a fixed piece of work, frozen in the benchmark
//! and independent of the program under test, timed over and over on one
//! pinned thread per CPU while the benchmark measures.
//!
//! The work imitates one decode token of the served model on one
//! thread: 24 layers of int8 group-quantized GEMVs (hidden 64, ffn 128,
//! 64-wide groups) and attention with a softmax over a 128-position f32
//! KV cache. It touches about the same bytes per token as the model, so
//! it slows down with the same things on a shared host: steal, a busy
//! sibling hyperthread, a contended cache. Because it is the
//! benchmark's own code, a change to the program never moves it.
//!
//! On a shared 2-vCPU host the same code runs up to 1.8x slower from one
//! second to the next, with the machine's other tenants. The
//! end-to-end times are divided, and the rates multiplied, by the
//! yardstick's slowdown over the same window, which takes the host's
//! state out of them and leaves the program's.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const LAYERS: usize = 24;
const HIDDEN: usize = 64;
const FFN: usize = 128;
const GROUP: usize = 64;
const CTX: usize = 128;

/// An int8 matrix with one f32 scale per (row, group).
struct QMat {
    rows: usize,
    cols: usize,
    q: Vec<i8>,
    scale: Vec<f32>,
}

impl QMat {
    fn new(rows: usize, cols: usize, seed: &mut u64) -> Self {
        let q = (0..rows * cols)
            .map(|_| (crate::mix(next(seed)) >> 56) as i8)
            .collect();
        let scale = (0..rows * cols.div_ceil(GROUP))
            .map(|_| 1.0 / 128.0 / (1.0 + (crate::mix(next(seed)) >> 60) as f32))
            .collect();
        Self {
            rows,
            cols,
            q,
            scale,
        }
    }

    fn gemv(&self, x: &[f32], y: &mut [f32]) {
        let groups = self.cols.div_ceil(GROUP);
        for (r, out) in y.iter_mut().enumerate().take(self.rows) {
            let row = &self.q[r * self.cols..(r + 1) * self.cols];
            let mut acc = 0.0f32;
            for g in 0..groups {
                let lo = g * GROUP;
                let hi = (lo + GROUP).min(self.cols);
                let mut part = [0.0f32; 8];
                for (k, (w, v)) in row[lo..hi].iter().zip(&x[lo..hi]).enumerate() {
                    part[k % 8] += *w as f32 * v;
                }
                acc += part.iter().sum::<f32>() * self.scale[r * groups + g];
            }
            *out = acc;
        }
    }
}

fn next(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(1);
    *seed
}

struct Layer {
    qkvo: [QMat; 4],
    up: QMat,
    down: QMat,
    k: Vec<f32>,
    v: Vec<f32>,
}

/// The yardstick's fixed model and buffers.
struct Yardstick {
    layers: Vec<Layer>,
}

impl Yardstick {
    fn new() -> Self {
        let mut seed = 0x7A2D;
        let layers = (0..LAYERS)
            .map(|_| Layer {
                qkvo: std::array::from_fn(|_| QMat::new(HIDDEN, HIDDEN, &mut seed)),
                up: QMat::new(FFN, HIDDEN, &mut seed),
                down: QMat::new(HIDDEN, FFN, &mut seed),
                k: (0..CTX * HIDDEN)
                    .map(|_| ((crate::mix(next(&mut seed)) >> 40) as f32) / 16_777_216.0 - 0.5)
                    .collect(),
                v: (0..CTX * HIDDEN)
                    .map(|_| ((crate::mix(next(&mut seed)) >> 40) as f32) / 16_777_216.0 - 0.5)
                    .collect(),
            })
            .collect();
        Self { layers }
    }

    /// One decode token through every layer.
    fn token(&self, x: &mut [f32; HIDDEN]) {
        let mut q = [0.0f32; HIDDEN];
        let mut a = [0.0f32; HIDDEN];
        let mut h = [0.0f32; FFN];
        let mut scores = [0.0f32; CTX];
        for l in &self.layers {
            l.qkvo[0].gemv(x, &mut q);
            let mut max = f32::NEG_INFINITY;
            for (p, s) in scores.iter_mut().enumerate() {
                let k = &l.k[p * HIDDEN..(p + 1) * HIDDEN];
                *s = k.iter().zip(&q).map(|(a, b)| a * b).sum::<f32>() * 0.125;
                max = max.max(*s);
            }
            let mut total = 0.0;
            for s in scores.iter_mut() {
                *s = (*s - max).exp();
                total += *s;
            }
            a.fill(0.0);
            for (p, s) in scores.iter().enumerate() {
                let v = &l.v[p * HIDDEN..(p + 1) * HIDDEN];
                for (o, vv) in a.iter_mut().zip(v) {
                    *o += s / total * vv;
                }
            }
            l.qkvo[3].gemv(&a, &mut q);
            l.up.gemv(&q, &mut h);
            for v in h.iter_mut() {
                *v = v.max(0.0);
            }
            l.down.gemv(&h, &mut q);
            for (xi, qi) in x.iter_mut().zip(&q) {
                *xi = (*xi + qi).tanh();
            }
        }
    }

    /// Seconds for one decode token.
    fn token_s(&self, x: &mut [f32; HIDDEN]) -> f64 {
        let t0 = Instant::now();
        self.token(black_box(x));
        t0.elapsed().as_secs_f64()
    }
}

/// Seconds one yardstick token takes on the reference host; a
/// normalized time is what the measured time would have been on it.
pub const REFERENCE_TOKEN_S: f64 = 1.0e-3;
/// Pause between two samples of one sampler thread. A sample takes
/// about a millisecond, so the samplers together keep about a tenth of
/// one core busy.
const EVERY: Duration = Duration::from_millis(30);

/// One thread per CPU this process may run on, each pinned to its CPU,
/// timing one yardstick token every [`EVERY`] until stopped, next to
/// whatever the benchmark measures meanwhile. The program's threads
/// move between CPUs whose neighbours differ, so the host's speed is
/// taken over all of them.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<Vec<(f64, f64)>>>,
}

impl Sampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = cpus()
            .into_iter()
            .map(|cpu| {
                let flag = Arc::clone(&stop);
                std::thread::spawn(move || {
                    if let Some(cpu) = cpu {
                        pin_to(cpu);
                    }
                    let y = Yardstick::new();
                    let mut x = [0.1f32; HIDDEN];
                    let mut samples = Vec::new();
                    while !flag.load(Ordering::Relaxed) {
                        let at = crate::now_s();
                        samples.push((at, y.token_s(&mut x)));
                        std::thread::sleep(EVERY);
                    }
                    samples
                })
            })
            .collect();
        Self { stop, threads }
    }

    /// Stop the threads, wait for them, and return their samples in
    /// time order.
    pub fn stop(self) -> HostSpeed {
        self.stop.store(true, Ordering::Relaxed);
        let mut samples: Vec<(f64, f64)> = self
            .threads
            .into_iter()
            .flat_map(|t| t.join().unwrap_or_default())
            .collect();
        samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        HostSpeed { samples }
    }
}

/// A CPU set as the kernel's `cpu_set_t` (1024 CPUs).
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this process may run on, or one unpinned `None` where the
/// kernel does not say.
fn cpus() -> Vec<Option<usize>> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of the size passed.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } == 0;
    let cpus: Vec<Option<usize>> = (0..1024)
        .filter(|c| ok && set[c / 64] >> (c % 64) & 1 == 1)
        .map(Some)
        .collect();
    if cpus.is_empty() {
        vec![None]
    } else {
        cpus
    }
}

/// Pin the calling thread to `cpu`; left unpinned if the kernel refuses.
fn pin_to(cpu: usize) {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a valid CPU set of the size passed; pid 0 is the
    // calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
}

/// Yardstick samples over a stretch of the run: `(start, seconds)` on
/// the [`crate::now_s`] clock.
#[derive(Debug, Clone, Default)]
pub struct HostSpeed {
    pub samples: Vec<(f64, f64)>,
}

impl HostSpeed {
    /// How much slower than the reference host this host ran between
    /// `t0` and `t1`: the mean yardstick token over the samples started
    /// in that window, divided by [`REFERENCE_TOKEN_S`]. A window that
    /// holds fewer than [`MIN_SAMPLES`] uses that many around it. The
    /// mean, not the median, because the host's speed flips between
    /// states within a window and the program's time there is their mix.
    pub fn slowdown(&self, t0: f64, t1: f64) -> f64 {
        let s = &self.samples;
        if s.is_empty() {
            return 1.0;
        }
        let lo = s.partition_point(|(at, _)| *at < t0);
        let hi = s.partition_point(|(at, _)| *at <= t1);
        let (lo, hi) = if hi - lo >= MIN_SAMPLES.min(s.len()) {
            (lo, hi)
        } else {
            let n = MIN_SAMPLES.min(s.len());
            let start = ((lo + hi) / 2).saturating_sub(n / 2).min(s.len() - n);
            (start, start + n)
        };
        let mean_s = s[lo..hi].iter().map(|(_, d)| d).sum::<f64>() / (hi - lo) as f64;
        mean_s / REFERENCE_TOKEN_S
    }
}

/// Fewest samples a slowdown is taken over.
const MIN_SAMPLES: usize = 5;
