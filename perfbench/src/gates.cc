// Correctness and freshness gates. Every check here is from first
// principles: distances are recomputed in double from the FeatureDb, the
// exact top-k is an exhaustive scan of every partition.
#include <algorithm>
#include <random>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "harness.h"

namespace perfbench {
namespace {

FeatureVector QueryFeature(VisualSearchCluster& cluster, const QueryImage& q) {
  return cluster.embedder().ExtractQuery(q.subject_product, q.true_category,
                                         q.query_seed);
}

// One returned (image, distance) pair: the distance must match the stored
// feature.
void CheckHit(VisualSearchCluster& cluster, const FeatureVector& query,
              const SearchHit& hit, GateReport& report) {
  ++report.checks;
  const std::optional<FeatureVector> stored =
      cluster.features().Get(hit.image_url);
  if (!stored || stored->size() != query.size()) {
    report.Fail("returned image has no stored feature: " + hit.image_url);
    return;
  }
  double d = 0, qn = 0, vn = 0;
  for (std::size_t i = 0; i < query.size(); ++i) {
    const double a = query[i], b = (*stored)[i];
    d += (a - b) * (a - b);
    qn += a * a;
    vn += b * b;
  }
  // The index computes |q|^2 + |v|^2 - 2<q,v> in float; allow for its
  // cancellation error, which scales with the norms, not the distance.
  const double tolerance = 1e-5 * (qn + vn) + 1e-6;
  if (std::abs(d - static_cast<double>(hit.distance)) > tolerance) {
    std::ostringstream os;
    os << "wrong distance for " << hit.image_url << ": returned "
       << hit.distance << ", recomputed " << d;
    report.Fail(os.str());
  }
}

}  // namespace

std::vector<SearchHit> BrokerTopK(VisualSearchCluster& cluster,
                                  const FeatureVector& feature, std::size_t k) {
  std::vector<std::future<std::vector<SearchHit>>> calls;
  for (std::size_t b = 0; b < cluster.num_brokers(); ++b) {
    calls.push_back(cluster.broker(b).SearchAsync(feature, k));
  }
  std::vector<std::vector<SearchHit>> partials;
  for (auto& c : calls) partials.push_back(c.get());
  return MergeHits(std::move(partials), k);
}

std::vector<SearchHit> ExactTopK(VisualSearchCluster& cluster,
                                 const FeatureVector& feature, std::size_t k) {
  std::vector<std::vector<SearchHit>> partials;
  for (std::size_t p = 0; p < cluster.num_searchers(); ++p) {
    partials.push_back(
        cluster.searcher_flat(p).SearchExhaustiveLocal(feature, k));
  }
  return MergeHits(std::move(partials), k);
}

double MeasureRecall(Testbed& bed, const std::vector<QueryImage>& queries,
                     GateReport& report) {
  VisualSearchCluster& cluster = *bed.cluster;
  double sum = 0;
  std::size_t n = 0;
  for (const QueryImage& q : queries) {
    const FeatureVector f = QueryFeature(cluster, q);
    const std::vector<SearchHit> got = BrokerTopK(cluster, f, 10);
    const std::vector<SearchHit> exact = ExactTopK(cluster, f, 10);
    for (const SearchHit& h : got) CheckHit(cluster, f, h, report);
    if (exact.empty()) continue;
    std::unordered_set<ImageId> truth;
    for (const SearchHit& h : exact) truth.insert(h.image_id);
    std::size_t found = 0;
    for (const SearchHit& h : got) found += truth.count(h.image_id);
    sum += static_cast<double>(found) / static_cast<double>(exact.size());
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

void CheckAnswers(Testbed& bed, const PhaseResult& phase,
                  GateReport& report) {
  VisualSearchCluster& cluster = *bed.cluster;
  for (std::size_t i = 0; i < phase.answers.size(); ++i) {
    if (phase.answers[i].empty()) continue;
    const FeatureVector f = QueryFeature(cluster, phase.queries[i]);
    for (const RankedResult& r : phase.answers[i]) {
      CheckHit(cluster, f, r.hit, report);
    }
  }
}

std::vector<std::vector<ImageId>> AnswerIds(Testbed& bed,
                                            const std::vector<QueryImage>& q) {
  std::vector<std::vector<ImageId>> out;
  for (const QueryImage& image : q) {
    std::vector<ImageId> ids;
    for (const SearchHit& h :
         BrokerTopK(*bed.cluster, QueryFeature(*bed.cluster, image), 10)) {
      ids.push_back(h.image_id);
    }
    out.push_back(std::move(ids));
  }
  return out;
}

void CheckFreshness(Testbed& bed, const UpdateStats& updates,
                    std::uint64_t seed, GateReport& report) {
  VisualSearchCluster& cluster = *bed.cluster;
  // Final listing state of every product the stream touched.
  std::unordered_map<ProductId, const ProductUpdateMessage*> last;
  for (const ProductUpdateMessage& m : updates.messages) {
    if (m.type != UpdateType::kAttributeUpdate) last[m.product_id] = &m;
  }
  std::vector<const ProductUpdateMessage*> added, removed;
  for (const auto& [id, m] : last) {
    (m->type == UpdateType::kAddProduct ? added : removed).push_back(m);
  }
  auto by_id = [](const ProductUpdateMessage* a,
                  const ProductUpdateMessage* b) {
    return a->product_id < b->product_id;
  };
  std::sort(added.begin(), added.end(), by_id);
  std::sort(removed.begin(), removed.end(), by_id);
  std::mt19937_64 rng(seed);
  std::shuffle(added.begin(), added.end(), rng);
  std::shuffle(removed.begin(), removed.end(), rng);
  constexpr std::size_t kSample = 64;

  for (std::size_t i = 0; i < std::min(kSample, added.size()); ++i) {
    const ProductUpdateMessage& m = *added[i];
    if (m.image_urls.empty()) continue;
    const std::string& url = m.image_urls[rng() % m.image_urls.size()];
    ++report.checks;
    const std::optional<FeatureVector> f = cluster.features().Get(url);
    if (!f) {
      report.Fail("added image has no feature: " + url);
      continue;
    }
    const std::vector<SearchHit> hits = BrokerTopK(cluster, *f, 10);
    const bool found =
        std::any_of(hits.begin(), hits.end(),
                    [&](const SearchHit& h) { return h.image_url == url; });
    if (!found) report.Fail("added image not retrievable: " + url);
  }
  for (std::size_t i = 0; i < std::min(kSample, removed.size()); ++i) {
    const ProductId id = removed[i]->product_id;
    const std::optional<ProductRecord> record = cluster.catalog().Get(id);
    if (!record) continue;
    for (const std::string& url : record->image_urls) {
      const std::optional<FeatureVector> f = cluster.features().Get(url);
      if (!f) continue;
      ++report.checks;
      for (const SearchHit& h : BrokerTopK(cluster, *f, 10)) {
        if (h.product_id == id) {
          report.Fail("removed product returned: " + std::to_string(id));
          break;
        }
      }
    }
  }
}

}  // namespace perfbench
