// Fixed-capacity free-list pools for the simulator's hot allocations.
//
// Packet buffers (net::PacketBuffer), the nodes of the pooled containers
// and the node-stack objects come from a thread-local free-list arena
// instead of the heap, so in steady state an allocation is a pointer pop
// and a release a pointer push. Key properties:
//
//  * Fallback, never failure: when the arena is exhausted, chunks come
//    from operator new. Every chunk carries a header naming its owner
//    pool (nullptr for heap chunks), so release is branch-on-header and
//    mixed pool/heap populations coexist safely.
//  * Thread-local by construction: replication workers are shared-nothing
//    (sim::ScenarioResult is plain data), so pooled handles never cross
//    threads and the pools need no locks. Each pool frees its arena at
//    thread exit; outstanding heap-fallback chunks free themselves.
//  * Lazy chunk sizing: a container node's size is a standard-library
//    implementation detail, so the arena is carved on the first
//    allocation, when the size is known. Requests of any other size (e.g.
//    a hash bucket array) take the heap path.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace rrnet::util {

struct PoolStats {
  std::uint64_t pool_allocs = 0;  ///< chunks served from the free list
  std::uint64_t heap_allocs = 0;  ///< fallback operator-new chunks
  std::uint64_t releases = 0;     ///< chunks returned (either kind)
};

class PayloadPool {
 public:
  /// Chunks per arena carve. Every thread-local pool (size classes, payload
  /// pools, the PacketBuffer pool) carves this many on first use, so it
  /// bounds the per-worker arena footprint of parallel replication (the
  /// audit table lives in DESIGN.md, "Memory footprint").
  static constexpr std::size_t kDefaultCapacity = 4096;

  /// Chunk payload size is fixed on the first allocate() call.
  explicit PayloadPool(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  PayloadPool(const PayloadPool&) = delete;
  PayloadPool& operator=(const PayloadPool&) = delete;

  ~PayloadPool() {
    for (std::byte* arena : arenas_) ::operator delete(arena);
  }

  /// Grow the pool so at least `chunks` chunks of `payload_bytes` exist in
  /// total, carving one additional arena for the shortfall. Fixes the chunk
  /// size if no allocation has happened yet; a size mismatch with an
  /// already-sized pool is ignored (those requests heap-fall-back anyway).
  /// Large-n scenario builders call this up front so constructing n nodes
  /// is one arena carve instead of thousands of heap fallbacks.
  void ensure_capacity(std::size_t chunks, std::size_t payload_bytes) {
    if (chunks == 0 || payload_bytes == 0) return;
    if (chunk_bytes_ == 0) {
      carve_arena(payload_bytes, std::max(chunks, capacity_));
      return;
    }
    if (payload_bytes != chunk_bytes_ || chunks <= carved_) return;
    carve_arena(chunk_bytes_, chunks - carved_);
  }

  /// Allocate `bytes` of payload. Pool-served when `bytes` matches the
  /// pool's chunk size and a free chunk exists; heap otherwise.
  void* allocate(std::size_t bytes) {
    if (chunk_bytes_ == 0 && bytes > 0) carve_arena(bytes, capacity_);
    if (bytes == chunk_bytes_ && !free_.empty()) {
      Header* h = free_.back();
      free_.pop_back();
      ++stats_.pool_allocs;
      ++in_use_;
      if (in_use_ > in_use_high_water_) in_use_high_water_ = in_use_;
      return h + 1;
    }
    ++stats_.heap_allocs;
    return allocate_unpooled(bytes);
  }

  /// A headered heap chunk releasable via release(), owned by no pool.
  static void* allocate_unpooled(std::size_t bytes) {
    Header* h = static_cast<Header*>(::operator new(sizeof(Header) + bytes));
    h->owner = nullptr;
    return h + 1;
  }

  /// Return a chunk obtained from any PayloadPool's allocate().
  static void release(void* p) noexcept {
    Header* h = static_cast<Header*>(p) - 1;
    if (h->owner != nullptr) {
      ++h->owner->stats_.releases;
      --h->owner->in_use_;
      h->owner->free_.push_back(h);
    } else {
      ::operator delete(h);
    }
  }

  [[nodiscard]] const PoolStats& stats() const noexcept { return stats_; }
  /// Total pooled chunks: carved so far, or the first-carve size if the
  /// chunk size is not yet known.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return carved_ > 0 ? carved_ : capacity_;
  }
  [[nodiscard]] std::size_t free_count() const noexcept {
    return free_.size();
  }
  /// Arena chunks currently handed out (heap-fallback chunks not counted).
  [[nodiscard]] std::size_t in_use() const noexcept { return in_use_; }
  /// Deepest the arena occupancy has ever been since the last reset.
  [[nodiscard]] std::size_t in_use_high_water() const noexcept {
    return in_use_high_water_;
  }
  /// Restart the occupancy high-water at the current level. Thread-local
  /// pools outlive individual simulation runs, so per-run gauges must reset
  /// at run start to stay deterministic under replication reuse.
  void reset_high_water() noexcept { in_use_high_water_ = in_use_; }

 private:
  struct alignas(std::max_align_t) Header {
    PayloadPool* owner;
  };

  void carve_arena(std::size_t payload_bytes, std::size_t count) {
    // Round the stride so every chunk's payload is max_align_t-aligned.
    constexpr std::size_t kAlign = alignof(std::max_align_t);
    const std::size_t stride =
        sizeof(Header) + ((payload_bytes + kAlign - 1) / kAlign) * kAlign;
    chunk_bytes_ = payload_bytes;
    auto* arena = static_cast<std::byte*>(::operator new(stride * count));
    arenas_.push_back(arena);
    carved_ += count;
    free_.reserve(carved_);
    // Push in reverse so chunks are handed out in ascending address order.
    for (std::size_t i = count; i-- > 0;) {
      Header* h = reinterpret_cast<Header*>(arena + i * stride);
      h->owner = this;
      free_.push_back(h);
    }
  }

  std::size_t capacity_;
  std::size_t chunk_bytes_ = 0;  ///< fixed by the first allocation
  std::size_t carved_ = 0;       ///< total chunks across all arenas
  std::vector<std::byte*> arenas_;
  std::vector<Header*> free_;
  PoolStats stats_;
  std::size_t in_use_ = 0;
  std::size_t in_use_high_water_ = 0;
};

/// The calling thread's pool keyed by type T: one chunk size per key, so
/// each pooled container node type gets its own.
template <typename T>
PayloadPool& payload_pool() {
  thread_local PayloadPool pool;
  return pool;
}

/// Size-class pools for whole objects (64-byte steps up to 1 KiB). Every
/// class that inherits PoolAllocated shares these, so per-scenario object
/// churn (nodes, MACs, transceivers, protocols) recycles through free
/// lists instead of the heap once the classes are warm.
inline constexpr std::size_t kSizeClassStep = 64;
inline constexpr std::size_t kSizeClassMax = 1024;

/// The calling thread's pool for the size class covering `bytes`
/// (bytes <= kSizeClassMax). Exposed for tests.
inline PayloadPool& sized_pool(std::size_t bytes) {
  thread_local PayloadPool pools[kSizeClassMax / kSizeClassStep];
  return pools[(bytes + kSizeClassStep - 1) / kSizeClassStep - 1];
}

inline void* sized_allocate(std::size_t bytes) {
  if (bytes == 0 || bytes > kSizeClassMax) {
    return PayloadPool::allocate_unpooled(bytes);
  }
  const std::size_t rounded =
      ((bytes + kSizeClassStep - 1) / kSizeClassStep) * kSizeClassStep;
  return sized_pool(bytes).allocate(rounded);
}

/// Inherit (empty base) to route a class's `new`/`delete` through the
/// thread's size-class pools. Covers derived classes too — a polymorphic
/// delete through a base pointer reaches the header-driven release, and
/// differently-sized siblings simply land in different size classes.
/// Pool-allocated objects must be deleted on the thread that created them.
struct PoolAllocated {
  static void* operator new(std::size_t bytes) { return sized_allocate(bytes); }
  static void operator delete(void* p) noexcept { PayloadPool::release(p); }
};

}  // namespace rrnet::util
