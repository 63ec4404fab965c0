// Decode-time knob for the CRF kernels: emission-weight quantization.
//
// The exact scaled kernels (DESIGN.md §4c) score the full tag lattice of
// every sentence, and every decode still does. What DecodeOptions trades is
// the emission pass: weights stored as int8 with one calibrated scale per
// feature row and a float accumulator — 8x less weight-table memory
// traffic on the dominant emission accumulation — feed the unchanged exact
// recurrences. Requires LinearChainCrf::prepare_quantization (done at
// model load or by set_decode_options); options that ask for a table that
// was never built decode in float.
//
// Default-constructed options are *exact*: bit-identical to the float
// kernels.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace graphner::crf {

/// Emission-weight storage for the decode path. Transition/start weights
/// (tens of doubles) always stay exact.
enum class Quantization : std::uint8_t {
  kFloat = 0,  ///< exact doubles (the trained weights)
  kInt8 = 2,   ///< int8 weights, per-feature float scale
};

[[nodiscard]] constexpr const char* quantization_name(Quantization q) noexcept {
  switch (q) {
    case Quantization::kFloat: return "float";
    case Quantization::kInt8: return "int8";
  }
  return "?";
}

/// "float" / "off" / "" -> kFloat, "int8" -> kInt8; anything else throws
/// (CLI/wire validation). The removed "int16" throws naming its removal.
[[nodiscard]] inline Quantization parse_quantization(const std::string& name) {
  if (name.empty() || name == "float" || name == "off") return Quantization::kFloat;
  if (name == "int8") return Quantization::kInt8;
  if (name == "int16")
    throw std::invalid_argument(
        "quantization 'int16' was removed (expected off or int8)");
  throw std::invalid_argument("unknown quantization '" + name +
                              "' (expected off or int8)");
}

struct DecodeOptions {
  Quantization quantization = Quantization::kFloat;

  /// True when decoding under these options is bit-identical to the exact
  /// float kernels.
  [[nodiscard]] bool exact() const noexcept {
    return quantization == Quantization::kFloat;
  }

  [[nodiscard]] std::string to_string() const {
    return std::string("quantized=") + quantization_name(quantization);
  }
};

}  // namespace graphner::crf
