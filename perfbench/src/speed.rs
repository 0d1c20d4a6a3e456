//! Host-speed normalisation of the gated times.
//!
//! On the small shared VM this benchmark was built on, the CPU runs at a
//! speed that changes by up to 1.6x in periods of a few seconds: a fixed
//! loop timed in 2 s windows took between 4.1 and 6.7 ms, with CPU time
//! tracking wall time. A run's share of fast and slow periods then moves
//! its medians by more than any bound could allow. So every gated time is
//! reported at a fixed reference speed: its wall time multiplied by
//! `NOMINAL_NS / t`, where `t` is the time of a fixed reference kernel —
//! benchmark code that calls nothing in the repository's crates — measured
//! just before and just after the timed work. A change in the program moves
//! the scaled time exactly as it moves the wall time; a change in host speed
//! slows the work and the kernel alike, and cancels. Wall times are printed
//! next to the scaled ones.

use std::hint::black_box;
use std::time::Instant;

/// Side of the kernel's square matrices.
const N: usize = 32;
/// Matrix products per kernel run (about 0.2 ms).
const REPS: usize = 8;
/// Kernel runs per sample; the sample is their median.
const RUNS: usize = 3;
/// The kernel's time at the reference speed, nanoseconds. Any constant
/// would do: it only fixes the unit of the scaled times.
pub const NOMINAL_NS: f64 = 200_000.0;

/// One run of the reference kernel: `REPS` dense f32 products of two
/// `N x N` matrices, the same kind of arithmetic as a predictor forward.
fn kernel() -> f64 {
    let mut a = [0f32; N * N];
    let mut b = [0f32; N * N];
    for (i, (x, y)) in a.iter_mut().zip(b.iter_mut()).enumerate() {
        *x = (i % 7) as f32 * 0.01;
        *y = (i % 5) as f32 * 0.02;
    }
    let mut c = [0f32; N * N];
    let t = Instant::now();
    for _ in 0..REPS {
        let a = black_box(&a);
        let b = black_box(&b);
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
    }
    black_box(&c);
    t.elapsed().as_nanos() as f64
}

/// The current speed factor: `NOMINAL_NS` over the median of `RUNS`
/// kernel runs. Above 1 means the host is faster than the reference.
pub fn factor() -> f64 {
    let mut t = [0.0; RUNS];
    for x in &mut t {
        *x = kernel();
    }
    t.sort_by(f64::total_cmp);
    NOMINAL_NS / t[RUNS / 2]
}
