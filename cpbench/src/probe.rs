//! Host-speed probe. On a shared host the same code runs faster or slower as
//! other tenants load the machine (turbo frequency, cache and core sharing),
//! and per-core rates follow. The probe times short quanta of a fixed kernel
//! that belongs to the benchmark, not to the program, on the threads doing
//! the measured work and in between their units of work. CPU time is then
//! converted to *reference CPU seconds*: seconds of a core on which one
//! quantum takes [`REFERENCE_QUANTUM_S`]. A change to the program cannot
//! change the probe, so a speed-up or slow-down of the program shows in full.

use crate::stats::median;
use std::cell::{Cell, RefCell};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Seconds a probe quantum takes on the reference core: a round figure
/// inside the range of medians measured on a shared 2-vCPU x86-64 VM (Intel
/// Xeon, 2.0 GHz), 0.74 to 1.10 ms, so that reference CPU seconds are of the
/// same size as real ones there.
pub const REFERENCE_QUANTUM_S: f64 = 1.0e-3;
/// Elements of the probe's working buffer (128 KiB: beyond L1, within L2).
const BUF: usize = 16 * 1024;
/// Passes over the buffer in one quantum.
const PASSES: usize = 30;

thread_local! {
    static BUFFER: RefCell<Vec<f64>> =
        RefCell::new((0..BUF).map(|i| 0.1 + 0.8 * (i % 97) as f64 / 97.0).collect());
    static LAST_QUANTUM: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// The probe's fixed work: a vectorisable logistic-map update of every
/// element, a scalar libm `exp` on every eighth one and a dependent complex
/// rotation, the three kinds of arithmetic the receive chain does.
fn kernel(buf: &mut [f64]) -> f64 {
    let mut acc = 0.0;
    let (mut re, mut im) = (1.0f64, 0.0f64);
    let (c, s) = (0.6f64.cos(), 0.6f64.sin());
    for pass in 0..PASSES {
        for x in buf.iter_mut() {
            *x = 3.9 * *x * (1.0 - *x);
        }
        let q = 0.1 * pass as f64;
        for x in buf.iter().step_by(8) {
            acc += (-8.0 * (x - q) * (x - q)).exp();
        }
        for _ in 0..BUF / 8 {
            (re, im) = (re * c - im * s, re * s + im * c);
        }
    }
    acc + re + im
}

/// Seconds one probe quantum takes on the calling thread. A quantum is short
/// enough that most run without being preempted; the medians taken over
/// many of them leave out the ones that were.
fn quantum() -> f64 {
    BUFFER.with_borrow_mut(|buf| {
        let t0 = Instant::now();
        std::hint::black_box(kernel(std::hint::black_box(buf)));
        let secs = t0.elapsed().as_secs_f64();
        LAST_QUANTUM.set(Some(Instant::now()));
        secs
    })
}

/// Median seconds of a probe quantum over `quanta` quanta on each of
/// `threads` threads at once, for phases in which that many threads work.
pub fn on_threads(threads: usize, quanta: usize) -> f64 {
    let per_thread: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(move || {
                    quantum(); // first touch of the buffer
                    (0..quanta.max(1)).map(|_| quantum()).collect()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("probe thread panicked"))
            .collect()
    });
    median(&per_thread.concat())
}

/// Probes in band: the measured threads call [`Sampler::tick`] between units
/// of work, and each runs a quantum once `every` has passed since its last.
pub struct Sampler {
    every: Duration,
    quanta: Mutex<Vec<f64>>,
}

impl Sampler {
    pub fn new(every: Duration) -> Self {
        Sampler {
            every,
            quanta: Mutex::new(Vec::new()),
        }
    }

    pub fn tick(&self) {
        let due = LAST_QUANTUM
            .get()
            .map_or(true, |t| t.elapsed() >= self.every);
        if due {
            let q = quantum();
            self.quanta.lock().expect("probe poisoned").push(q);
        }
    }

    /// Median seconds of the quanta run so far; the reference quantum, so
    /// that nothing is converted, when none has run.
    pub fn quantum_s(&self) -> f64 {
        let quanta = self.quanta.lock().expect("probe poisoned");
        if quanta.is_empty() {
            REFERENCE_QUANTUM_S
        } else {
            median(&quanta)
        }
    }

    /// Quanta run so far, and the seconds they took.
    pub fn spent(&self) -> (usize, f64) {
        let quanta = self.quanta.lock().expect("probe poisoned");
        (quanta.len(), quanta.iter().sum())
    }
}

/// `cpu_s` CPU seconds measured on a host where a probe quantum took
/// `quantum_s`, in reference CPU seconds.
pub fn to_reference(cpu_s: f64, quantum_s: f64) -> f64 {
    cpu_s * REFERENCE_QUANTUM_S / quantum_s
}
