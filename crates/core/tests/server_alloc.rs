//! Counting-allocator proof of the zero-allocation ingress hot path.
//!
//! The server's push path copies each chunk into a pooled buffer
//! ([`cprecycle::ChunkPool`]) and carries it through a pre-sized lock-free ring;
//! once the pool is warm the steady-state cycle — acquire → ring push → pop →
//! session push → release — performs **zero heap allocations**. This test feeds
//! noise-only chunks (no frames detect, so the session side allocates nothing
//! either), warms the pool for a few rounds, then pins the allocation counter
//! flat across thousands of further pushes.
//!
//! Its own binary so the `#[global_allocator]` does not interfere with the soak's
//! per-sample ceiling accounting in `server_stress.rs`.

use cprecycle::server::{RxServer, ServerConfig};
use cprecycle::session::SessionConfig;
use ofdmphy::params::OfdmParams;
use ofdmphy::rx::StandardReceiver;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfdsp::Complex;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// The test binary only counts; all real work is delegated to the system allocator.
// SAFETY: every method below delegates the actual (de)allocation to `System`
// verbatim — same layout, same pointer — so `System`'s GlobalAlloc guarantees
// carry over; the only addition is a Relaxed counter bump with no effect on
// memory management.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwarded to `System` with the caller's layout unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: forwarded to `System`; `ptr`/`layout` came from `alloc` above.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwarded to `System` with the caller's arguments unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: forwarded to `System` with the caller's layout unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Below-threshold noise: the detector hunts but never locks, so a session's own
/// processing is allocation-free and every allocation observed belongs to the
/// ingress path under test.
fn noise_chunk(rng: &mut StdRng, len: usize) -> Vec<Complex> {
    let mut g = rfdsp::noise::GaussianSource::new();
    g.complex_vector(rng, len, 1e-6)
}

#[test]
fn steady_state_ingress_allocates_nothing() {
    const SESSIONS: usize = 8;
    const CHUNK: usize = 480;
    // The warm-up is an identical dry run of the measured window (not just a few
    // rounds): amortized one-time growth — scheduler shard deques, detector
    // scratch — must all reach its high-water mark before the counter is read.
    const WARM_ROUNDS: usize = 256;
    const MEASURED_ROUNDS: usize = 256;

    let server: RxServer<StandardReceiver> = RxServer::new(ServerConfig {
        threads: 1,
        queue_capacity: 4,
    });
    let handles: Vec<_> = (0..SESSIONS)
        .map(|_| {
            server.add_session(
                StandardReceiver::new(OfdmParams::ieee80211ag()),
                SessionConfig::default(),
            )
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(0xA110C);
    // One pre-built chunk per session, reused every round: the producer side of a
    // real deployment hands the server the same DMA buffer over and over.
    let chunks: Vec<Vec<Complex>> = (0..SESSIONS)
        .map(|_| noise_chunk(&mut rng, CHUNK))
        .collect();

    // Warm-up: populate the chunk pool, let every session build its detector
    // scratch, and let each ring/worker reach its steady footprint.
    for _ in 0..WARM_ROUNDS {
        for (h, c) in handles.iter().zip(&chunks) {
            h.push(c).unwrap();
        }
    }
    server.drain();

    // Steady state: the whole acquire→ring→service→release cycle must be
    // allocation-free. `drain()` parks on pre-existing sync primitives; the final
    // snapshot-free check keeps the measured window pure ingress.
    let before = allocations();
    for _ in 0..MEASURED_ROUNDS {
        for (h, c) in handles.iter().zip(&chunks) {
            h.push(c).unwrap();
        }
    }
    server.drain();
    let during = allocations() - before;
    let pushes = (SESSIONS * MEASURED_ROUNDS) as u64;
    assert_eq!(
        during, 0,
        "steady-state ingress allocated {during} times over {pushes} pushes \
         (expected zero: warm pool hits, pre-sized rings, no event traffic)"
    );

    // Sanity that the measurement is not vacuous: the pool really served the
    // traffic from recycled buffers.
    let snap = server.metrics_snapshot();
    assert!(
        snap.counter("chunk_pool_hits") >= pushes,
        "expected ≥{pushes} pool hits, got {}",
        snap.counter("chunk_pool_hits")
    );
    assert_eq!(snap.counter("samples_pushed") as usize, {
        SESSIONS * CHUNK * (WARM_ROUNDS + MEASURED_ROUNDS)
    });
    server.shutdown();
}
