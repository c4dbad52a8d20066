// Search results as they travel between nodes.
//
// A searcher's top-k, a broker's merged top-k and the blender's merge input
// are all HitLists: a vector of fixed-size plain-data rows plus one string
// buffer holding every row's two URLs. A list owns all of its bytes, exactly
// like a serialized RPC message — no view or pointer into the index that
// produced it — so it can cross the simulated fabric and outlive the
// partition it came from. Moving one costs two pointer swaps; building one
// costs two allocations however many hits it holds, where a vector of
// SearchHit pays two string allocations per hit.
//
// SearchHit, the per-hit object with owned strings, is what callers outside
// the serving path see (the future-returning SearchAsync facades, tests,
// benches) and what the blender builds for its ranking candidates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mq/message.h"
#include "vecmath/vector.h"

namespace jdvs {

// One search result with owned URL strings.
struct SearchHit {
  ImageId image_id = 0;
  float distance = 0.f;
  ProductId product_id = 0;
  CategoryId category = 0;
  ProductAttributes attributes;
  std::string image_url;
  std::string detail_url;
};

// One row of a HitList. Plain data (64 bytes): the URLs live in the owning
// list's buffer at [offset, offset + size).
struct HitRow {
  ImageId image_id = 0;
  float distance = 0.f;
  CategoryId category = 0;
  ProductId product_id = 0;
  ProductAttributes attributes;
  std::uint32_t image_url_offset = 0;
  std::uint32_t image_url_size = 0;
  std::uint32_t detail_url_offset = 0;
  std::uint32_t detail_url_size = 0;
};

class HitList {
 public:
  void Reserve(std::size_t rows, std::size_t url_bytes) {
    rows_.reserve(rows);
    urls_.reserve(url_bytes);
  }

  // Appends a row with `fields`' ids, distance and attributes (its URL
  // offsets are ignored) and copies both URLs into the buffer.
  void Append(const HitRow& fields, std::string_view image_url,
              std::string_view detail_url);
  // Appends row `i` of `other`, URLs included.
  void AppendFrom(const HitList& other, std::size_t i) {
    Append(other.rows_[i], other.image_url(i), other.detail_url(i));
  }

  std::size_t size() const noexcept { return rows_.size(); }
  bool empty() const noexcept { return rows_.empty(); }
  const HitRow& operator[](std::size_t i) const noexcept { return rows_[i]; }
  std::string_view image_url(std::size_t i) const noexcept {
    return Url(rows_[i].image_url_offset, rows_[i].image_url_size);
  }
  std::string_view detail_url(std::size_t i) const noexcept {
    return Url(rows_[i].detail_url_offset, rows_[i].detail_url_size);
  }

  SearchHit ToSearchHit(std::size_t i) const;
  std::vector<SearchHit> ToSearchHits() const;
  static HitList FromSearchHits(std::span<const SearchHit> hits);

 private:
  std::string_view Url(std::uint32_t offset,
                       std::uint32_t size) const noexcept {
    return std::string_view(urls_.data() + offset, size);
  }

  std::vector<HitRow> rows_;
  std::string urls_;
};

}  // namespace jdvs
