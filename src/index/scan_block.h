// Contiguous, cache-aligned posting-list scan storage.
//
// The seed scanned a posting list by chasing each LocalId through a chunked
// per-partition feature store — one dependent pointer hop and a random-ish
// cache line per candidate. ScanBlock is the scan-order layout that replaces
// that indirection, and it is the index's only posting list: each inverted
// list is one ScanBlock holding its members' ids and payloads (padded float
// rows or packed PQ codes, per the IvfIndex list codec) contiguously in
// append order, SoA against a parallel LocalId array, with every chunk base
// 64-byte aligned. A scan walks whole runs linearly — exactly what the batch
// kernels in vecmath/kernels.h and the hardware prefetcher want.
//
// Chunks grow geometrically (16 entries, doubling), so a small list — the
// common case: a testbed partition spreads ~5k images over 64 lists — wastes
// at most its own size in slack and the whole index stays cache-resident.
// Doubling also bounds the chunk count at O(log size), which is what makes
// the lock-free reader contract cheap: the chunk vector is reserved once and
// never reallocates. This is the real-time list growth of Section 2.3: a
// full list gets a new chunk while readers keep scanning the old ones, and
// nothing is ever copied.
//
// Concurrency contract mirrors VectorSet: single writer (the partition's
// searcher), lock-free readers. Chunks never move once published; growth is
// published through an atomic size with release ordering after the slot
// write.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "vecmath/aligned.h"
#include "vecmath/vector.h"

namespace jdvs {

class ScanBlock {
 public:
  // `payload_stride_bytes` is the fixed per-entry payload size (already
  // padded by the caller if padding is wanted). `max_run_entries` bounds the
  // length of one run handed to ForEachRun's callback — callers size their
  // distance scratch buffers to it.
  explicit ScanBlock(std::size_t payload_stride_bytes,
                     std::size_t max_run_entries = 256);

  ScanBlock(const ScanBlock&) = delete;
  ScanBlock& operator=(const ScanBlock&) = delete;

  // Appends one entry (single writer): copies payload_stride_bytes from
  // `payload` and records `id` at the same position. `aux` is a per-entry
  // float rider published together with the entry — IvfIndex stores the
  // row's squared L2 norm there so the scan kernel can use the
  // dot-product form of the distance (see DistanceKernels::l2sq_scan_filter);
  // payloads without a norm (PQ codes) leave it zero.
  void Append(LocalId id, const void* payload, float aux = 0.0f);

  // Installs a frozen prefix (single writer, block must be empty): chunk 0
  // becomes `count` entries whose ids/aux the block owns but whose payload
  // is a non-owning pointer — in the tiered index it points into the mmap'd
  // v4 snapshot, so the rows are demand-paged and never copied. The frozen
  // chunk is immutable (MutablePayloadAt on it is a contract violation);
  // subsequent Appends allocate heap chunks exactly as before, which is what
  // makes the real-time delta RAM-resident and mutable on top of a
  // disk-resident base. `payload` must be 64-byte aligned and hold
  // count * payload_stride_bytes() bytes for the block's lifetime.
  void AttachFrozen(AlignedArray<LocalId> ids, AlignedArray<float> aux,
                    const std::uint8_t* payload, std::size_t count);

  // Entries in the frozen prefix (0 when none was attached); their payload
  // bytes are external (disk-backed), everything after them is heap.
  std::size_t frozen_entries() const noexcept { return frozen_entries_; }

  // Payload pointer of entry `index`. Stable for the lifetime of the block;
  // safe concurrently with Append for any index < size() observed earlier.
  const std::uint8_t* PayloadAt(std::size_t index) const noexcept;
  // Writer-side mutable access (in-place rewrite of invisible entries only,
  // same caveat as VectorSet::Overwrite).
  std::uint8_t* MutablePayloadAt(std::size_t index) noexcept;
  LocalId IdAt(std::size_t index) const noexcept;

  // Visits every published entry as contiguous runs of at most
  // max_run_entries: fn(ids, payload, aux, count) where `ids` is count
  // LocalIds, `payload` is count * stride bytes and `aux` is count per-entry
  // rider floats. Run bases are 64-byte aligned when max_run_entries *
  // stride is a cache-line multiple (true for the index layouts: padded
  // float rows, and code runs sized to whole lines).
  // Lock-free; safe concurrently with Append.
  template <typename Fn>
  void ForEachRun(Fn&& fn) const {
    const std::size_t published = size_.load(std::memory_order_acquire);
    const std::size_t chunks = chunk_count_.load(std::memory_order_acquire);
    for (std::size_t c = 0; c < chunks; ++c) {
      const Chunk& chunk = chunks_[c];
      if (chunk.begin >= published) break;
      const std::size_t in_chunk =
          std::min(chunk.capacity, published - chunk.begin);
      for (std::size_t offset = 0; offset < in_chunk;
           offset += max_run_entries_) {
        fn(chunk.ids + offset, chunk.payload + offset * stride_,
           chunk.aux + offset, std::min(max_run_entries_, in_chunk - offset));
      }
    }
  }

  std::size_t size() const noexcept {
    return size_.load(std::memory_order_acquire);
  }
  // Chunks allocated because the previous one was full (the first chunk,
  // frozen or heap, is not a growth). Safe concurrently with Append.
  std::size_t growths() const noexcept {
    const std::size_t chunks = chunk_count_.load(std::memory_order_acquire);
    return chunks > 0 ? chunks - 1 : 0;
  }
  std::size_t payload_stride_bytes() const noexcept { return stride_; }
  std::size_t max_run_entries() const noexcept { return max_run_entries_; }
  // Bytes of payload + id storage allocated (capacity, not entries).
  std::size_t memory_bytes() const noexcept {
    return allocated_bytes_.load(std::memory_order_relaxed);
  }

  // True when every published chunk base is 64-byte aligned (always, by
  // construction; re-checked by snapshot load as a layout invariant).
  bool storage_aligned() const noexcept;

 private:
  // Readers go through the raw pointers; the owning arrays (null for the
  // frozen chunk's external payload) just pin the storage's lifetime.
  struct Chunk {
    AlignedArray<std::uint8_t> owned_payload;
    AlignedArray<LocalId> owned_ids;
    AlignedArray<float> owned_aux;
    const std::uint8_t* payload = nullptr;
    const LocalId* ids = nullptr;
    const float* aux = nullptr;
    std::size_t begin = 0;     // global index of this chunk's first entry
    std::size_t capacity = 0;  // entries this chunk can hold
    bool frozen = false;       // immutable prefix (external payload)
  };

  const Chunk* FindChunk(std::size_t index) const noexcept;

  const std::size_t stride_;
  const std::size_t max_run_entries_;
  std::vector<Chunk> chunks_;  // pre-reserved; pointers never move
  std::atomic<std::size_t> chunk_count_{0};
  std::atomic<std::size_t> size_{0};
  std::atomic<std::size_t> allocated_bytes_{0};
  std::size_t frozen_entries_ = 0;  // writer-owned
};

}  // namespace jdvs
