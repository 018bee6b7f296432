#include "workload/point_generators.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "workload/weights.h"

namespace ksum::workload {
namespace {

// Number of cluster centres for the Gaussian-mixture distribution.
constexpr std::size_t kNumClusters = 8;

// Fills `point` (length K) with one draw from the distribution.
void draw_point(Distribution dist, Rng& rng,
                const std::vector<std::vector<float>>& centres,
                std::size_t point_index, std::size_t num_points,
                std::span<float> point) {
  const std::size_t k = point.size();
  switch (dist) {
    case Distribution::kUniformCube: {
      for (auto& x : point) x = rng.uniform(0.0f, 1.0f);
      return;
    }
    case Distribution::kGaussianMixture: {
      const auto& c = centres[rng.next_below(centres.size())];
      for (std::size_t d = 0; d < k; ++d) {
        point[d] = rng.normal(c[d], 0.05f);
      }
      return;
    }
    case Distribution::kUnitSphere: {
      double norm2 = 0.0;
      for (auto& x : point) {
        x = rng.normal();
        norm2 += double(x) * double(x);
      }
      const float inv = norm2 > 0 ? float(1.0 / std::sqrt(norm2)) : 0.0f;
      for (auto& x : point) x *= inv;
      return;
    }
    case Distribution::kGrid: {
      // Deterministic lattice: spread point_index across dimensions in a
      // base-`side` expansion, normalised to [0, 1).
      const std::size_t side =
          std::max<std::size_t>(2, static_cast<std::size_t>(std::ceil(
                                       std::pow(double(num_points),
                                                1.0 / double(k)))));
      std::size_t rest = point_index;
      for (std::size_t d = 0; d < k; ++d) {
        point[d] = float(rest % side) / float(side);
        rest /= side;
      }
      return;
    }
  }
}

std::vector<std::vector<float>> make_centres(std::size_t k, Rng& rng) {
  std::vector<std::vector<float>> centres(kNumClusters);
  for (auto& c : centres) {
    c.resize(k);
    for (auto& x : c) x = rng.uniform(0.0f, 1.0f);
  }
  return centres;
}

// Fills `storage` with consecutive K-coordinate points. A row-major M×K
// and a column-major K×N matrix both store point p at [p·K, p·K + K), so
// the draws land in the backing buffer in draw order.
void draw_points(Distribution dist, Rng& rng,
                 const std::vector<std::vector<float>>& centres,
                 std::size_t k, std::span<float> storage) {
  const std::size_t num_points = storage.size() / k;
  for (std::size_t p = 0; p < num_points; ++p) {
    draw_point(dist, rng, centres, p, num_points, storage.subspan(p * k, k));
  }
}

}  // namespace

Matrix generate_source_points(const ProblemSpec& spec) {
  spec.validate();
  Rng rng = Rng(spec.seed).split(1);
  const auto centres = make_centres(spec.k, rng);
  Matrix a(spec.m, spec.k, Layout::kRowMajor);
  draw_points(spec.distribution, rng, centres, spec.k, a.span());
  return a;
}

Matrix generate_target_points(const ProblemSpec& spec) {
  spec.validate();
  // Targets share the seed (so mixtures use the same cluster centres as the
  // sources) but draw from an independent substream.
  Rng centre_rng = Rng(spec.seed).split(1);
  const auto centres = make_centres(spec.k, centre_rng);
  Rng rng = Rng(spec.seed).split(2);
  Matrix b(spec.k, spec.n, Layout::kColMajor);
  draw_points(spec.distribution, rng, centres, spec.k, b.span());
  return b;
}

Instance make_instance(const ProblemSpec& spec) {
  Instance inst{spec, generate_source_points(spec),
                generate_target_points(spec),
                generate_weights(spec.n, WeightKind::kUniform,
                                 Rng(spec.seed).split(3))};
  return inst;
}

}  // namespace ksum::workload
