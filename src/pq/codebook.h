// Product quantization (Jégou et al., the paper's reference [19]).
//
// At the paper's headline scale — "more than 100 billion product images" —
// storing raw float features is impossible (100B x 64 floats = 25 PB), so
// production ANN systems compress vectors with product quantization: the
// vector is split into M subspaces, each quantized against its own 256-entry
// codebook, turning a 256-byte vector into M bytes. Search uses asymmetric
// distance computation (ADC): one M x 256 table of partial distances per
// query, then each candidate costs M table lookups instead of a full float
// scan.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/kmeans.h"
#include "vecmath/vector.h"

namespace jdvs {

using PqCode = std::vector<std::uint8_t>;  // M bytes per vector

struct ProductQuantizerConfig {
  std::size_t num_subspaces = 8;     // M; must divide dim
  std::size_t codebook_size = 256;   // Ks per subspace (<= 256)
  KMeansConfig kmeans;               // per-subspace training settings
};

class ProductQuantizer {
 public:
  // Trains M codebooks over `training` (count x dim row-major).
  // Requires dim % num_subspaces == 0 and count >= 1.
  static ProductQuantizer Train(const float* training, std::size_t count,
                                std::size_t dim,
                                const ProductQuantizerConfig& config);
  static ProductQuantizer Train(const std::vector<FeatureVector>& training,
                                const ProductQuantizerConfig& config);

  // Encodes a vector into M codebook indices.
  PqCode Encode(FeatureView v) const;

  // Reconstructs the approximate vector from its code.
  FeatureVector Decode(const PqCode& code) const;

  // Builds the query's ADC table: num_subspaces x codebook_size partial
  // squared distances, row-major.
  std::vector<float> BuildDistanceTable(FeatureView query) const;

  // ADC distance of an encoded vector given the query's table.
  float DistanceWithTable(const std::vector<float>& table,
                          const std::uint8_t* code) const noexcept;

  // Exact squared distance between query and the *reconstruction* (for
  // testing the ADC identity: ADC(query, code) == L2^2(query, Decode(code))).
  float AsymmetricDistance(FeatureView query, const PqCode& code) const;

  std::size_t dim() const noexcept { return dim_; }
  std::size_t num_subspaces() const noexcept { return num_subspaces_; }
  std::size_t subspace_dim() const noexcept { return subspace_dim_; }
  std::size_t codebook_size() const noexcept { return codebook_size_; }
  std::size_t code_bytes() const noexcept { return num_subspaces_; }

  // Centroid `k` of subspace `m` (subspace_dim floats).
  FeatureView Centroid(std::size_t m, std::size_t k) const noexcept {
    return FeatureView(
        codebooks_.data() + (m * codebook_size_ + k) * subspace_dim_,
        subspace_dim_);
  }

  // Raw codebooks (num_subspaces x codebook_size x subspace_dim), exposed
  // for snapshotting.
  const std::vector<float>& codebooks() const noexcept { return codebooks_; }

  // Reconstructs a quantizer from snapshotted state.
  ProductQuantizer(std::size_t dim, std::size_t num_subspaces,
                   std::size_t codebook_size, std::vector<float> codebooks);

 private:
  std::size_t dim_;
  std::size_t num_subspaces_;
  std::size_t subspace_dim_;
  std::size_t codebook_size_;
  std::vector<float> codebooks_;
};

}  // namespace jdvs
