#include "search/types.h"

#include <algorithm>

namespace jdvs {

HitList MergeHitLists(std::span<const HitList* const> partials,
                      std::size_t k) {
  struct Ref {
    float distance;
    std::uint32_t partial;
    ImageId image_id;
    std::uint32_t row;
  };
  std::size_t total = 0;
  for (const HitList* p : partials) total += p->size();
  std::vector<Ref> refs;
  refs.reserve(total);
  for (std::size_t p = 0; p < partials.size(); ++p) {
    const HitList& list = *partials[p];
    for (std::size_t r = 0; r < list.size(); ++r) {
      refs.push_back({list[r].distance, static_cast<std::uint32_t>(p),
                      list[r].image_id, static_cast<std::uint32_t>(r)});
    }
  }
  const auto closer = [](const Ref& a, const Ref& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    if (a.image_id != b.image_id) return a.image_id < b.image_id;
    if (a.partial != b.partial) return a.partial < b.partial;
    return a.row < b.row;
  };
  if (refs.size() > k) {
    std::partial_sort(refs.begin(), refs.begin() + k, refs.end(), closer);
    refs.resize(k);
  } else {
    std::sort(refs.begin(), refs.end(), closer);
  }
  std::size_t url_bytes = 0;
  for (const Ref& ref : refs) {
    url_bytes += partials[ref.partial]->image_url(ref.row).size() +
                 partials[ref.partial]->detail_url(ref.row).size();
  }
  HitList merged;
  merged.Reserve(refs.size(), url_bytes);
  for (auto it = refs.begin(); it != refs.end(); ++it) {
    const bool seen = std::any_of(refs.begin(), it, [&](const Ref& earlier) {
      return earlier.image_id == it->image_id;
    });
    if (!seen) merged.AppendFrom(*partials[it->partial], it->row);
  }
  return merged;
}

std::vector<SearchHit> MergeHits(std::vector<std::vector<SearchHit>> partials,
                                 std::size_t k) {
  std::vector<HitList> lists;
  lists.reserve(partials.size());
  for (const auto& p : partials) lists.push_back(HitList::FromSearchHits(p));
  std::vector<const HitList*> views;
  views.reserve(lists.size());
  for (const HitList& list : lists) views.push_back(&list);
  return MergeHitLists(views, k).ToSearchHits();
}

}  // namespace jdvs
