#include "embed/embedder.h"

#include <cmath>

#include "common/hash.h"
#include "text/tokenizer.h"
#include "vectordb/kernels.h"

namespace llmdm::embed {

// The three distance functions route through the dispatched kernels
// (vectordb/kernels.h). The kernels' lane-equivalent reduction contract makes
// the results bit-identical across scalar/AVX2/NEON, so similarity-threshold
// decisions (semantic cache, cascade gating) do not depend on the host ISA.

float CosineSimilarity(const Vector& a, const Vector& b) {
  size_t n = std::min(a.size(), b.size());
  float dot = vectordb::kernels::Dot(a.data(), b.data(), n);
  float na = vectordb::kernels::Dot(a.data(), a.data(), a.size());
  float nb = vectordb::kernels::Dot(b.data(), b.data(), b.size());
  if (na == 0 || nb == 0) return 0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

float L2DistanceSquared(const Vector& a, const Vector& b) {
  size_t n = std::min(a.size(), b.size());
  float acc = vectordb::kernels::L2Sq(a.data(), b.data(), n);
  // Past the shorter vector, the missing elements are implicit zeros.
  acc += vectordb::kernels::Dot(a.data() + n, a.data() + n, a.size() - n);
  acc += vectordb::kernels::Dot(b.data() + n, b.data() + n, b.size() - n);
  return acc;
}

float DotProduct(const Vector& a, const Vector& b) {
  size_t n = std::min(a.size(), b.size());
  return vectordb::kernels::Dot(a.data(), b.data(), n);
}

void L2Normalize(Vector* v) {
  float norm = 0;
  for (float x : *v) norm += x * x;
  if (norm == 0) return;
  norm = std::sqrt(norm);
  for (float& x : *v) x /= norm;
}

Vector HashingEmbedder::Embed(std::string_view text) const {
  Vector v;
  EmbedInto(text, &v);
  return v;
}

void HashingEmbedder::EmbedInto(std::string_view text, Vector* out) const {
  out->resize(options_.dimension);
  float* const v = out->data();
  std::fill_n(v, options_.dimension, 0.0f);
  auto bucket_add = [&](uint64_t h, float weight) {
    size_t bucket = h % options_.dimension;
    // One independent bit decides the sign so that colliding features cancel
    // rather than pile up (standard signed feature hashing).
    float sign = ((h >> 61) & 1) ? 1.0f : -1.0f;
    v[bucket] += sign * weight;
  };
  auto fold = [](char c) {
    return static_cast<unsigned char>(
        std::tolower(static_cast<unsigned char>(c)));
  };

  // Word features: hash-equivalent to Fnv1a("w:" + lowercased_piece, seed)
  // by seeding with the "w:" prefix and extending with case-folded bytes —
  // no per-feature string is ever built. Feature order (all word pieces,
  // then 3-grams, then 4-grams) matches the accumulation order the seed
  // implementation used, so the float sums are bit-identical.
  const uint64_t word_seed = common::Fnv1a("w:", options_.seed);
  text::Tokenizer::Options tok_options;
  tok_options.lowercase = true;  // folded below, byte by byte
  text::Tokenizer tokenizer(tok_options);
  tokenizer.VisitTokens(text, [&](std::string_view piece, bool /*is_word*/) {
    uint64_t h = word_seed;
    for (char c : piece) h = common::Fnv1aByte(h, fold(c));
    bucket_add(h, options_.word_weight);
  });

  // Character n-grams over the virtual padded sequence '^' + lower(text) +
  // '$' (what CharNgrams materializes), hashed window by window.
  const uint64_t gram_seed = common::Fnv1a("g:", options_.seed);
  const size_t padded_len = text.size() + 2;
  auto padded_at = [&](size_t i) -> unsigned char {
    if (i == 0) return '^';
    if (i + 1 == padded_len) return '$';
    return fold(text[i - 1]);
  };
  for (size_t n : {3u, 4u}) {
    if (padded_len < n) continue;
    for (size_t i = 0; i + n <= padded_len; ++i) {
      uint64_t h = gram_seed;
      for (size_t j = 0; j < n; ++j) h = common::Fnv1aByte(h, padded_at(i + j));
      bucket_add(h, 1.0f);
    }
  }
  // Normalize in place with the same sequential accumulation L2Normalize
  // performs, so this path stays bit-identical to Embed().
  float norm = 0;
  for (size_t i = 0; i < options_.dimension; ++i) norm += v[i] * v[i];
  if (norm == 0) return;
  norm = std::sqrt(norm);
  for (size_t i = 0; i < options_.dimension; ++i) v[i] /= norm;
}

float HashingEmbedder::Similarity(std::string_view a, std::string_view b) const {
  return CosineSimilarity(Embed(a), Embed(b));
}

}  // namespace llmdm::embed
