// Quantized CRF emission kernels (DESIGN.md §10).
//
// The decode-time cost of these lattices is dominated by streaming
// per-feature emission rows, so quantization attacks exactly that pass.
// Float mode runs the unchanged vectorized exact kernel (identical scores,
// identical summation order); int16/int8 modes run a dense vectorized pass
// over a quantized table (one calibrated float scale per feature row, float
// accumulator) whose rows are 4x/8x smaller than the double table — the
// speedup is the saved memory traffic. Either way the exact scaled
// recurrences then run unchanged over the emission lattice.

#include <algorithm>
#include <cmath>
#include <limits>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "src/crf/model.hpp"
#include "src/obs/registry.hpp"

namespace graphner::crf {

namespace {

// Same vectorization pragma story as the exact emission kernel in model.cpp:
// -O2 leaves the accumulation scalar and the build targets baseline x86-64,
// so opt this loop into the vectorizer with an AVX2 ifunc clone. Skipped
// under sanitizers (instrumented ifunc resolvers run before __tsan_init).
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define GRAPHNER_QUANT_KERNEL \
  __attribute__((optimize("tree-vectorize"), target_clones("default", "avx2")))
#else
#define GRAPHNER_QUANT_KERNEL
#endif

/// Dense quantized emission: out[i * S + s] = sum_f scale[f] * q[f * S + s].
/// Same shape as accumulate_emission, with the int rows widened through a
/// float accumulator (drift is bounded by the per-row scales; see
/// quantize_table).
template <std::size_t S, typename Int>
GRAPHNER_QUANT_KERNEL void accumulate_emission_quant(const EncodedSentence& sentence,
                                                     const Int* table,
                                                     const float* scale,
                                                     double* out) {
  const std::size_t n = sentence.size();
  for (std::size_t i = 0; i < n; ++i) {
    float acc[S] = {};
    for (const FeatureIndex::Id f : sentence.features[i]) {
      const Int* row = table + static_cast<std::size_t>(f) * S;
      const float fs = scale[static_cast<std::size_t>(f)];
      for (std::size_t s = 0; s < S; ++s)
        acc[s] += fs * static_cast<float>(row[s]);
    }
    double* row = out + i * S;
    for (std::size_t s = 0; s < S; ++s) row[s] = static_cast<double>(acc[s]);
  }
}

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define GRAPHNER_QUANT_AVX2 1
#endif

#if GRAPHNER_QUANT_AVX2
// Hand-scheduled AVX2 order-2 (S = 9) kernels: the autovectorizer splits the
// int -> float widening into 128-bit halves, which costs more µops than the
// double kernel it is supposed to undercut. One vpmovsx + vcvtdq2ps + vfmadd
// covers states 0..7 per feature row (the 9th rides a scalar FMA chain), so
// the quantized path matches the exact kernel's µop count while loading
// 4x/8x fewer bytes — the whole point of the narrow tables. Guarded by a
// plain runtime CPU check (no ifunc, so no sanitizer resolver hazards);
// per-state sums visit features in the same order as the generic kernel,
// FMA rounding aside.
__attribute__((target("avx2,fma"))) void emission_quant_avx2_s9(
    const EncodedSentence& sentence, const std::int16_t* table,
    const float* scale, double* out) {
  const std::size_t n = sentence.size();
  for (std::size_t i = 0; i < n; ++i) {
    __m256 acc = _mm256_setzero_ps();
    float acc8 = 0.0f;
    for (const FeatureIndex::Id f : sentence.features[i]) {
      const std::int16_t* row = table + static_cast<std::size_t>(f) * 9;
      const float fs = scale[static_cast<std::size_t>(f)];
      const __m256 v = _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(row))));
      acc = _mm256_fmadd_ps(v, _mm256_set1_ps(fs), acc);
      acc8 += fs * static_cast<float>(row[8]);
    }
    double* o = out + i * 9;
    _mm256_storeu_pd(o, _mm256_cvtps_pd(_mm256_castps256_ps128(acc)));
    _mm256_storeu_pd(o + 4, _mm256_cvtps_pd(_mm256_extractf128_ps(acc, 1)));
    o[8] = static_cast<double>(acc8);
  }
}

__attribute__((target("avx2,fma"))) void emission_quant_avx2_s9(
    const EncodedSentence& sentence, const std::int8_t* table,
    const float* scale, double* out) {
  const std::size_t n = sentence.size();
  for (std::size_t i = 0; i < n; ++i) {
    __m256 acc = _mm256_setzero_ps();
    float acc8 = 0.0f;
    for (const FeatureIndex::Id f : sentence.features[i]) {
      const std::int8_t* row = table + static_cast<std::size_t>(f) * 9;
      const float fs = scale[static_cast<std::size_t>(f)];
      const __m256 v = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(row))));
      acc = _mm256_fmadd_ps(v, _mm256_set1_ps(fs), acc);
      acc8 += fs * static_cast<float>(row[8]);
    }
    double* o = out + i * 9;
    _mm256_storeu_pd(o, _mm256_cvtps_pd(_mm256_castps256_ps128(acc)));
    _mm256_storeu_pd(o + 4, _mm256_cvtps_pd(_mm256_extractf128_ps(acc, 1)));
    o[8] = static_cast<double>(acc8);
  }
}
#endif  // GRAPHNER_QUANT_AVX2

template <typename Int>
void emission_quant_dispatch(const EncodedSentence& sentence, std::size_t S,
                             const Int* table, const float* scale, double* out) {
#if GRAPHNER_QUANT_AVX2
  static const bool have_avx2 = __builtin_cpu_supports("avx2") != 0 &&
                                __builtin_cpu_supports("fma") != 0;
  if (S == 9 && have_avx2) {
    emission_quant_avx2_s9(sentence, table, scale, out);
    return;
  }
#endif
  switch (S) {
    case 3:
      accumulate_emission_quant<3>(sentence, table, scale, out);
      return;
    case 9:
      accumulate_emission_quant<9>(sentence, table, scale, out);
      return;
    default:
      break;
  }
  const std::size_t n = sentence.size();
  for (std::size_t i = 0; i < n; ++i) {
    double* row = out + i * S;
    std::fill(row, row + S, 0.0);
    for (const FeatureIndex::Id f : sentence.features[i]) {
      const Int* w = table + static_cast<std::size_t>(f) * S;
      const double fs = scale[static_cast<std::size_t>(f)];
      for (std::size_t s = 0; s < S; ++s)
        row[s] += fs * static_cast<double>(w[s]);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Decode-table maintenance
// ---------------------------------------------------------------------------

void LinearChainCrf::rebuild_decode_tables() {
  // Prepared quantized tables track the live weights.
  if (!quant16_.empty()) prepare_quantization(Quantization::kInt16);
  if (!quant8_.empty()) prepare_quantization(Quantization::kInt8);
}

namespace {

/// Quantize one weight table: per-feature-row absmax scale, symmetric
/// round-to-nearest. Returns the max absolute reconstruction error.
template <typename Int>
double quantize_table(const double* weights, std::size_t num_features,
                      std::size_t num_states, std::vector<Int>& q,
                      std::vector<float>& scale) {
  constexpr double kMaxQ = static_cast<double>(std::numeric_limits<Int>::max());
  q.resize(num_features * num_states);
  scale.resize(num_features);
  double drift = 0.0;
  for (std::size_t f = 0; f < num_features; ++f) {
    const double* w = weights + f * num_states;
    double absmax = 0.0;
    for (std::size_t s = 0; s < num_states; ++s)
      absmax = std::max(absmax, std::abs(w[s]));
    const double sc = absmax > 0.0 ? absmax / kMaxQ : 1.0;
    scale[f] = static_cast<float>(sc);
    Int* row = q.data() + f * num_states;
    for (std::size_t s = 0; s < num_states; ++s) {
      const double v = std::nearbyint(w[s] / sc);
      row[s] = static_cast<Int>(std::clamp(v, -kMaxQ, kMaxQ));
      drift = std::max(
          drift, std::abs(w[s] - static_cast<double>(scale[f]) *
                                     static_cast<double>(row[s])));
    }
  }
  return drift;
}

}  // namespace

void LinearChainCrf::prepare_quantization(Quantization mode) {
  const std::size_t S = space_.num_states();
  switch (mode) {
    case Quantization::kFloat:
      quant16_.clear();
      quant16_.shrink_to_fit();
      quant_scale16_.clear();
      quant8_.clear();
      quant8_.shrink_to_fit();
      quant_scale8_.clear();
      quant_drift_ = 0.0;
      return;
    case Quantization::kInt16:
      quant_drift_ =
          quantize_table(wspan_.data(), num_features_, S, quant16_, quant_scale16_);
      break;
    case Quantization::kInt8:
      quant_drift_ =
          quantize_table(wspan_.data(), num_features_, S, quant8_, quant_scale8_);
      break;
  }
  obs::Registry::global().gauge("decode.quant_drift").set(quant_drift_);
}

void LinearChainCrf::set_decode_options(const DecodeOptions& options) {
  decode_options_ = options;
  // Build the table the options will decode with; an already-prepared table
  // for the *other* width is left alone so per-call overrides keep working.
  if (options.quantization != Quantization::kFloat &&
      !quantization_ready(options.quantization))
    prepare_quantization(options.quantization);
}

// ---------------------------------------------------------------------------
// Dense emission (exact or quantized)
// ---------------------------------------------------------------------------

void LinearChainCrf::emission_scores(const EncodedSentence& sentence,
                                     Quantization quantization,
                                     std::vector<double>& out) const {
  switch (quantization) {
    case Quantization::kFloat:
      // The unchanged exact kernel: same scores, same summation order, so
      // float decode stays bit-identical to the exact entry points.
      emission_scores(sentence, out);
      return;
    case Quantization::kInt16:
      out.resize(sentence.size() * space_.num_states());
      emission_quant_dispatch(sentence, space_.num_states(), quant16_.data(),
                              quant_scale16_.data(), out.data());
      return;
    case Quantization::kInt8:
      out.resize(sentence.size() * space_.num_states());
      emission_quant_dispatch(sentence, space_.num_states(), quant8_.data(),
                              quant_scale8_.data(), out.data());
      return;
  }
}

}  // namespace graphner::crf
