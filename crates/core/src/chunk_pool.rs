//! Pooled sample-chunk buffers for the server ingress path.
//!
//! Every [`crate::server::SessionHandle::push`] copies the caller's chunk into a
//! server-owned buffer (the producer keeps ownership of its slice; the backpressure
//! contract says a rejected push consumes nothing). PR 7 allocated a fresh `Vec`
//! per push; at 10k sessions that is an allocation *and* a free on every chunk of
//! the hot path. [`ChunkPool`] replaces it with a lock-free freelist of
//! fixed-capacity `Box<[Complex]>` buffers recycled by the worker that services the
//! chunk:
//!
//! ```text
//!  producer: acquire ──copy──▶ IngressRing ──pop──▶ worker: session.push(&buf)
//!      ▲                                                     │ release
//!      └————————————————— freelist (MpmcRing) ◀——————————————┘
//! ```
//!
//! Buffers are **size-classed**: freelists at power-of-two capacities from
//! [`MIN_CLASS_SAMPLES`] up to the configured maximum, and a chunk draws from the
//! smallest class that fits. One class would be simpler, but then every buffer
//! is the worst case — at the realtime chunk size (480 samples) that retains
//! 64 KiB per pooled 7.7 KiB chunk and drags a 64 KiB-strided working set
//! through the cache (zeroing worst-case buffers on miss alone measured ~30%
//! aggregate throughput loss at 256 sessions). Size classes keep the per-chunk
//! footprint proportional to the chunk, and misses allocate *without
//! initializing* (`Vec::with_capacity` + `extend_from_slice`), so the miss path
//! touches only the chunk's own bytes — the same cost as the plain
//! `Vec`-per-push it replaces, while hits touch nothing but the copy.
//!
//! The pool starts empty and *grows on demand*: a miss allocates a buffer of the
//! chunk's class, and the buffer joins its class's freelist after the first trip,
//! so steady state reaches zero allocations without a large up-front reservation
//! (the `server_alloc.rs` counting-allocator test pins this). Chunks larger than
//! the largest class are carried in an exact-size one-shot allocation and never
//! pooled — they would otherwise bloat a pooled class to the worst case. All
//! traffic is counted ([`ChunkPoolStats`]) and surfaced as `chunk_pool_*`
//! counters in the server's metrics snapshot.

use cprecycle_engine::ring::MpmcRing;
// Atomics come through the engine's concurrency facade so the model-check
// suite (tests/conc_chunk_pool.rs, built with --cfg cprecycle_conc) explores
// this source under instrumented atomics.
use cprecycle_engine::sync::atomic::{AtomicU64, Ordering};
use rfdsp::Complex;

/// Capacity of the largest pooled buffer class of the server's pool, in samples.
/// Sized for the chunk sizes the bench grid and scenarios use (≤ 4096); larger
/// pushes fall back to exact one-shot allocations.
pub const DEFAULT_POOL_BUFFER_SAMPLES: usize = 4096;

/// Smallest buffer class, in samples. Chunks below this still use a
/// `MIN_CLASS_SAMPLES` buffer (512 samples = 8 KiB — small enough that the
/// overshoot is noise, large enough that tiny chunks don't fragment the pool
/// into many classes).
pub const MIN_CLASS_SAMPLES: usize = 512;

/// A recyclable chunk buffer: a class-capacity allocation holding exactly the
/// chunk it currently carries (spare capacity stays uninitialized — it is never
/// read). Dereferences to the live samples.
///
/// # Initialization contract (audited, PR 10)
///
/// The pool's uninitialized-allocation miss path never touches `set_len` or
/// `MaybeUninit`: a miss does `Vec::with_capacity` (len 0, nothing
/// initialized) and the *only* operation that ever grows a buffer's length is
/// `extend_from_slice(chunk)`, which initializes every element it adds.
/// Recycling is `data.clear()` — len back to 0, capacity and allocation
/// preserved, contents abandoned in place but unreachable, since `len` always
/// equals the initialized prefix. So a [`PooledBuf`] invariantly derefs to
/// fully-initialized memory and exactly the chunk of its current trip; the
/// uninitialized spare capacity `len..capacity` is never exposed by any path.
/// (`tests::recycling_contract_len_zero_capacity_preserved` pins this, and
/// the Miri CI job runs this module's tests under the UB checker.)
#[derive(Debug)]
pub struct PooledBuf {
    data: Vec<Complex>,
    /// Index into the pool's `classes`, or `None` for oversize one-shots.
    class: Option<usize>,
}

impl std::ops::Deref for PooledBuf {
    type Target = [Complex];
    fn deref(&self) -> &[Complex] {
        &self.data
    }
}

/// Traffic counters for a [`ChunkPool`] (monotonic since construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkPoolStats {
    /// Acquires served from the freelist (no allocation).
    pub hits: u64,
    /// Acquires that allocated a class-capacity buffer because the freelist was dry.
    pub misses: u64,
    /// Acquires that allocated an exact-size buffer for an oversize chunk.
    pub oversize: u64,
    /// Releases that returned a buffer to the freelist.
    pub recycled: u64,
    /// Releases that dropped the buffer (oversize, or freelist at capacity).
    pub dropped: u64,
}

/// One power-of-two buffer class: a freelist of empty `Vec`s of exactly
/// `samples` capacity.
#[derive(Debug)]
struct SizeClass {
    samples: usize,
    free: MpmcRing<Vec<Complex>>,
}

/// A lock-free, size-classed freelist of sample buffers.
///
/// `acquire` copies a chunk into a recycled (or, on miss, freshly allocated)
/// buffer from the smallest class that fits; `release` returns the buffer to its
/// class after servicing. Both are a single lock-free ring operation plus the
/// copy — safe on the per-push hot path from any number of threads.
#[derive(Debug)]
pub struct ChunkPool {
    /// Ascending capacities; the last entry is `buffer_samples`.
    classes: Box<[SizeClass]>,
    buffer_samples: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    oversize: AtomicU64,
    recycled: AtomicU64,
    dropped: AtomicU64,
}

impl ChunkPool {
    /// A pool retaining at most `max_buffers` free buffers *per class*, with
    /// classes doubling from [`MIN_CLASS_SAMPLES`] up to `buffer_samples`
    /// (minimums 1 / 1). The pool holds no buffers until releases populate it, so
    /// only classes the traffic actually uses consume memory.
    pub fn new(max_buffers: usize, buffer_samples: usize) -> Self {
        let buffer_samples = buffer_samples.max(1);
        let mut sizes = Vec::new();
        let mut s = MIN_CLASS_SAMPLES;
        while s < buffer_samples {
            sizes.push(s);
            s *= 2;
        }
        sizes.push(buffer_samples);
        let classes: Vec<SizeClass> = sizes
            .into_iter()
            .map(|samples| SizeClass {
                samples,
                free: MpmcRing::new(max_buffers.max(1)),
            })
            .collect();
        ChunkPool {
            classes: classes.into_boxed_slice(),
            buffer_samples,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            oversize: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// The largest pooled-buffer capacity in samples.
    pub fn buffer_samples(&self) -> usize {
        self.buffer_samples
    }

    /// Buffers currently sitting in the freelists, across all classes.
    pub fn free_buffers(&self) -> usize {
        self.classes.iter().map(|c| c.free.len()).sum()
    }

    /// Copies `chunk` into a pooled buffer (freelist hit in the smallest class
    /// that fits, or a fresh buffer of that class on miss; oversize chunks get an
    /// exact-size one-shot buffer).
    pub fn acquire(&self, chunk: &[Complex]) -> PooledBuf {
        let class_idx = self.classes.iter().position(|c| chunk.len() <= c.samples);
        if let Some(i) = class_idx {
            let mut data = match self.classes[i].free.try_pop() {
                Some(data) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    data
                }
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    Vec::with_capacity(self.classes[i].samples)
                }
            };
            data.extend_from_slice(chunk);
            PooledBuf {
                data,
                class: Some(i),
            }
        } else {
            self.oversize.fetch_add(1, Ordering::Relaxed);
            PooledBuf {
                data: chunk.to_vec(),
                class: None,
            }
        }
    }

    /// Returns a serviced buffer to its class's freelist (class buffers only;
    /// oversize or overflow buffers are dropped and counted).
    ///
    /// The buffer re-enters the freelist with `len == 0` and only its capacity
    /// preserved (see the [`PooledBuf`] initialization contract): `clear()`
    /// here, not truncation to the next chunk's size, because the next chunk's
    /// size is unknown and `extend_from_slice` on the next trip re-initializes
    /// exactly what it appends.
    pub fn release(&self, buf: PooledBuf) {
        if let Some(i) = buf.class {
            let mut data = buf.data;
            data.clear();
            if self.classes[i].free.try_push(data).is_ok() {
                self.recycled.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// A coherent-enough copy of the traffic counters.
    pub fn stats(&self) -> ChunkPoolStats {
        ChunkPoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            oversize: self.oversize.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize, tag: f64) -> Vec<Complex> {
        (0..n).map(|i| Complex::new(i as f64, tag)).collect()
    }

    #[test]
    fn acquire_copies_and_release_recycles() {
        let pool = ChunkPool::new(4, 16);
        let chunk = samples(10, 1.0);
        let buf = pool.acquire(&chunk);
        assert_eq!(&*buf, &chunk[..], "acquired buffer carries the chunk");
        assert_eq!(pool.stats().misses, 1, "first acquire allocates");
        pool.release(buf);
        assert_eq!(pool.free_buffers(), 1);
        let again = pool.acquire(&samples(16, 2.0));
        assert_eq!(pool.stats().hits, 1, "second acquire reuses the buffer");
        assert_eq!(again.len(), 16);
        assert_eq!(again[15], Complex::new(15.0, 2.0), "no stale data");
        pool.release(again);
        assert_eq!(pool.stats().recycled, 2);
    }

    #[test]
    fn oversize_chunks_bypass_the_freelist() {
        let pool = ChunkPool::new(4, 8);
        let big = pool.acquire(&samples(20, 3.0));
        assert_eq!(big.len(), 20);
        assert_eq!(pool.stats().oversize, 1);
        pool.release(big);
        assert_eq!(pool.free_buffers(), 0, "oversize buffers are not pooled");
        assert_eq!(pool.stats().dropped, 1);
    }

    #[test]
    fn size_classes_keep_footprint_proportional() {
        let pool = ChunkPool::new(4, 4096);
        let small = pool.acquire(&samples(480, 1.0));
        assert_eq!(
            small.data.capacity(),
            MIN_CLASS_SAMPLES,
            "a realtime chunk draws from the smallest class, not the 4096 max"
        );
        let big = pool.acquire(&samples(3000, 2.0));
        assert_eq!(
            big.data.capacity(),
            4096,
            "largest class absorbs big chunks"
        );
        assert_eq!(pool.stats().misses, 2, "classes grow independently");
        pool.release(small);
        pool.release(big);
        assert_eq!(pool.free_buffers(), 2);
        let again = pool.acquire(&samples(100, 3.0));
        assert_eq!(pool.stats().hits, 1, "recycled within its class");
        assert_eq!(again.data.capacity(), MIN_CLASS_SAMPLES);
        assert_eq!(again.len(), 100, "carries exactly the live chunk");
        pool.release(again);
    }

    #[test]
    fn recycling_contract_len_zero_capacity_preserved() {
        // Pins the initialization contract from the `PooledBuf` docs: a
        // recycled buffer comes back len-0 with its class capacity intact, and
        // a shorter follow-up chunk can never see the longer previous
        // occupant's tail (stale samples or — if recycling ever forgot to
        // clear — uninitialized spare capacity).
        let pool = ChunkPool::new(2, 8);
        let long = pool.acquire(&samples(8, 7.0));
        assert_eq!(long.data.len(), 8);
        let cap = long.data.capacity();
        pool.release(long);
        let short = pool.acquire(&samples(3, 1.5));
        assert_eq!(pool.stats().hits, 1, "the recycled buffer is reused");
        assert_eq!(
            short.data.len(),
            3,
            "recycled buffer carries exactly the new chunk, not the old len"
        );
        assert_eq!(
            short.data.capacity(),
            cap,
            "recycling preserves the class allocation"
        );
        assert_eq!(&*short, &samples(3, 1.5)[..], "no stale tail is reachable");
        pool.release(short);
    }

    #[test]
    fn freelist_capacity_bounds_retention() {
        let pool = ChunkPool::new(2, 4);
        let bufs: Vec<PooledBuf> = (0..5)
            .map(|i| pool.acquire(&samples(4, i as f64)))
            .collect();
        assert_eq!(pool.stats().misses, 5);
        for b in bufs {
            pool.release(b);
        }
        assert_eq!(pool.free_buffers(), 2, "retention capped at max_buffers");
        let s = pool.stats();
        assert_eq!(s.recycled, 2);
        assert_eq!(s.dropped, 3);
    }
}
