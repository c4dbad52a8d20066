#include "index/hit_list.h"

#include <type_traits>

namespace jdvs {

static_assert(std::is_trivially_copyable_v<HitRow>,
              "hit rows are copied as plain data");

void HitList::Append(const HitRow& fields, std::string_view image_url,
                     std::string_view detail_url) {
  HitRow& row = rows_.emplace_back(fields);
  row.image_url_offset = static_cast<std::uint32_t>(urls_.size());
  row.image_url_size = static_cast<std::uint32_t>(image_url.size());
  urls_.append(image_url);
  row.detail_url_offset = static_cast<std::uint32_t>(urls_.size());
  row.detail_url_size = static_cast<std::uint32_t>(detail_url.size());
  urls_.append(detail_url);
}

SearchHit HitList::ToSearchHit(std::size_t i) const {
  const HitRow& row = rows_[i];
  SearchHit hit;
  hit.image_id = row.image_id;
  hit.distance = row.distance;
  hit.product_id = row.product_id;
  hit.category = row.category;
  hit.attributes = row.attributes;
  hit.image_url = std::string(image_url(i));
  hit.detail_url = std::string(detail_url(i));
  return hit;
}

std::vector<SearchHit> HitList::ToSearchHits() const {
  std::vector<SearchHit> hits;
  hits.reserve(rows_.size());
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    hits.push_back(ToSearchHit(i));
  }
  return hits;
}

HitList HitList::FromSearchHits(std::span<const SearchHit> hits) {
  HitList list;
  std::size_t url_bytes = 0;
  for (const SearchHit& hit : hits) {
    url_bytes += hit.image_url.size() + hit.detail_url.size();
  }
  list.Reserve(hits.size(), url_bytes);
  for (const SearchHit& hit : hits) {
    list.Append({.image_id = hit.image_id,
                 .distance = hit.distance,
                 .category = hit.category,
                 .product_id = hit.product_id,
                 .attributes = hit.attributes},
                hit.image_url, hit.detail_url);
  }
  return list;
}

}  // namespace jdvs
