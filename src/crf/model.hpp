// Linear-chain CRF: potentials, forward-backward, marginals, Viterbi.
//
// Parameters:
//   * emission weights  — one per (feature id, state): w_emit[f * S + s]
//   * transition weights — one per legal (from, to) pair
//   * start weights      — one per legal start state
//
// Forward-backward runs in the scaled linear domain (per-position scaling
// constants, CRFsuite-style): emission scores are exponentiated once per
// position after subtracting the row maximum, transition/start weights are
// exponentiated once per set_weights(), and the O(n * |transitions|) inner
// loops are plain multiply-adds over the StateSpace CSR tables. If a scaling
// constant ever degenerates (all reachable states underflow at a position),
// the affected sentence transparently falls back to the log-space
// recurrences, so results match log-space inference to rounding error.
// Viterbi is max-sum and stays in the log domain.
//
// All per-sentence buffers live in a caller-supplied Scratch so hot loops
// (L-BFGS objective evaluations, corpus-wide posterior extraction) perform
// zero per-sentence heap allocation once the scratch is warm.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/crf/dataset.hpp"
#include "src/crf/decode_options.hpp"
#include "src/crf/state_space.hpp"
#include "src/text/tag.hpp"

namespace graphner::crf {

/// Per-sentence inference outputs consumed by GraphNER (Algorithm 1 line 5).
struct SentencePosteriors {
  /// posterior[i][t] = p(label at i == t | x); rows sum to 1 (one column
  /// per label of the model's LabelSet — 3 for the legacy B/I/O set).
  std::vector<text::LabelDist> tag_marginals;
  /// pairwise[i][a * L + b] = p(label_{i-1} = a, label_i = b | x) for
  /// i >= 1 (entry 0 is unused). These are the position-specific
  /// "transition probabilities" GraphNER's final Viterbi consumes.
  std::vector<text::LabelMatrix> pairwise_marginals;
  double log_z = 0.0;
};

class LinearChainCrf {
 public:
  /// Reusable per-worker lattice buffers. Treat as opaque: default-construct
  /// one per worker thread, pass it to the inference entry points, and reuse
  /// it across sentences of any length — buffers grow to the largest
  /// sentence seen and are then recycled without further allocation.
  struct Scratch {
    std::vector<double> emit;   ///< n x S log-domain emission scores
    std::vector<double> psi;    ///< n x S exp(emit - row max)
    std::vector<double> alpha;  ///< n x S scaled forward (rows sum to 1)
    std::vector<double> beta;   ///< n x S scaled backward
    std::vector<double> scale;  ///< n per-position scale sums z_i
    std::vector<double> node;   ///< n x S node marginals p(state at i)
    std::vector<double> pair;   ///< n x T edge marginals, row 0 unused
    std::vector<double> tmp;    ///< S inner-loop staging
    std::vector<double> vscore; ///< n x S Viterbi scores (log domain)
    std::vector<StateId> vback; ///< n x S Viterbi backpointers
    double log_z = 0.0;
  };

  LinearChainCrf(StateSpace space, std::size_t num_features);

  [[nodiscard]] const StateSpace& space() const noexcept { return space_; }
  [[nodiscard]] std::size_t num_features() const noexcept { return num_features_; }
  [[nodiscard]] std::size_t num_parameters() const noexcept { return wspan_.size(); }

  [[nodiscard]] std::span<const double> weights() const noexcept { return wspan_; }
  /// Replace all weights (copied into owned storage); also refreshes the
  /// cached exponentiated transition/start tables. Together with
  /// set_weights_view, the only supported ways to mutate weights.
  void set_weights(std::span<const double> w);
  /// Borrow the weight table from caller-owned storage — typically a
  /// read-only mmap of a model file — instead of copying it onto the heap:
  /// every replica of a model then shares one page-cache copy of the
  /// (dominant) emission table. The caller guarantees `w` outlives the CRF
  /// (GraphNerModel keeps the mapping alive). Derived caches (exponentiated
  /// transitions, quantized tables) are rebuilt into owned storage as usual.
  void set_weights_view(std::span<const double> w);
  /// True when the weight table is a borrowed view (set_weights_view)
  /// rather than heap storage.
  [[nodiscard]] bool weights_borrowed() const noexcept {
    return wspan_.data() != weights_.data();
  }

  /// Emission lattice: out[i * S + s] = sum of active feature weights.
  void emission_scores(const EncodedSentence& sentence,
                       std::vector<double>& out) const;
  /// Emission lattice under a specific weight storage: kFloat runs the
  /// exact kernel above (same scores, same summation order), int16/int8 the
  /// dense pass over the prepared quantized table. Exposed so tests and
  /// benches can bound quantization drift at the score level; the decode
  /// entry points use it internally (src/crf/quantized.cpp).
  void emission_scores(const EncodedSentence& sentence, Quantization quantization,
                       std::vector<double>& out) const;

  /// Conditional log-likelihood of the gold states; if `grad` is non-null,
  /// accumulates d(logL)/dw into it (same layout as weights()).
  double log_likelihood(const EncodedSentence& sentence, std::span<double> grad,
                        Scratch& scratch) const;
  double log_likelihood(const EncodedSentence& sentence,
                        std::span<double> grad = {}) const;

  // --- decode configuration (quantization, DESIGN.md §10) ---

  /// Default options for posteriors()/viterbi(). Also prepares whatever the
  /// options need: a non-float quantization builds its weight table up
  /// front (so the first decode pays nothing). NOT thread-safe against
  /// concurrent decodes — configure before sharing the model across
  /// workers, like set_weights().
  void set_decode_options(const DecodeOptions& options);
  [[nodiscard]] const DecodeOptions& decode_options() const noexcept {
    return decode_options_;
  }
  /// Build (or rebuild) the int16/int8 emission table so per-call options
  /// may request that mode. kFloat drops the tables. Implied by
  /// set_decode_options when its options quantize.
  void prepare_quantization(Quantization mode);
  /// True when decode options/overrides asking for `mode` will actually use
  /// it (the table has been prepared).
  [[nodiscard]] bool quantization_ready(Quantization mode) const noexcept {
    if (mode == Quantization::kInt16) return !quant16_.empty();
    if (mode == Quantization::kInt8) return !quant8_.empty();
    return true;
  }
  /// Max absolute emission-weight error introduced by the most recently
  /// prepared quantized table (0 when none); published as the
  /// decode.quant_drift gauge.
  [[nodiscard]] double quantization_drift() const noexcept { return quant_drift_; }

  /// Tag-level posterior marginals (states folded down to tags). The
  /// two-argument forms decode under decode_options(); the explicit-options
  /// forms are per-call overrides (serving wire flags, benches).
  SentencePosteriors posteriors(const EncodedSentence& sentence,
                                Scratch& scratch) const;
  [[nodiscard]] SentencePosteriors posteriors(const EncodedSentence& sentence) const;
  SentencePosteriors posteriors(const EncodedSentence& sentence, Scratch& scratch,
                                const DecodeOptions& options) const;

  /// Expected tag-bigram counts E[count(t at i-1, t' at i)] summed over the
  /// sentence, added into `counts` (L x L row-major, sized to the space's
  /// label count). Used to derive the tag-transition matrix GraphNER's
  /// final Viterbi consumes.
  void accumulate_tag_transition_expectations(const EncodedSentence& sentence,
                                              text::LabelMatrix& counts,
                                              Scratch& scratch) const;
  void accumulate_tag_transition_expectations(const EncodedSentence& sentence,
                                              text::LabelMatrix& counts) const;

  /// MAP decode to tags (same options contract as posteriors()).
  std::vector<text::Tag> viterbi(const EncodedSentence& sentence,
                                 Scratch& scratch) const;
  [[nodiscard]] std::vector<text::Tag> viterbi(const EncodedSentence& sentence) const;
  std::vector<text::Tag> viterbi(const EncodedSentence& sentence, Scratch& scratch,
                                 const DecodeOptions& options) const;

  // --- weight slot helpers (shared with the trainer) ---
  [[nodiscard]] std::size_t emission_slot(FeatureIndex::Id f, StateId s) const noexcept {
    return static_cast<std::size_t>(f) * space_.num_states() + s;
  }
  [[nodiscard]] std::size_t transition_base() const noexcept {
    return num_features_ * space_.num_states();
  }
  [[nodiscard]] std::size_t start_base() const noexcept {
    return transition_base() + space_.transitions().size();
  }

 private:
  /// Normalize per-call decode options: downgrade quantization modes whose
  /// tables are not prepared to float.
  [[nodiscard]] DecodeOptions effective_options(const DecodeOptions& options) const;
  /// Scaled linear-domain forward-backward. Postcondition (shared with the
  /// log-space fallback): sc.log_z, sc.node (n x S node marginals) and
  /// sc.pair (n x |transitions()| edge marginals, row 0 unused) are filled;
  /// everything else in the scratch is internal workspace.
  void run_forward_backward(const EncodedSentence& sentence, Scratch& sc) const;
  /// The recurrence half of run_forward_backward: assumes sc.emit is already
  /// filled (by either emission kernel), so quantized decodes run the exact
  /// recurrence over the lattice they already paid for.
  void forward_backward_from_emit(const EncodedSentence& sentence, Scratch& sc) const;
  /// Log-space recurrences for sentences whose scaled lattice degenerates
  /// (a position where the forward row underflows behind a constraint).
  /// Fills node/pair directly from the log-domain lattice: the factored
  /// scaled representation cannot express forward/backward masses whose
  /// ratios exceed the double range even when their products (the
  /// marginals) are ordinary probabilities.
  void run_forward_backward_logspace(const EncodedSentence& sentence,
                                     Scratch& sc) const;
  /// Recompute exp(transition)/exp(start) caches after a weight change.
  void rebuild_weight_caches();

  // --- quantized decode internals (src/crf/quantized.cpp) ---

  /// Viterbi recurrence over a pre-filled sc.emit (same reuse contract as
  /// forward_backward_from_emit).
  std::vector<text::Tag> viterbi_from_emit(const EncodedSentence& sentence,
                                           Scratch& sc) const;
  /// Fold sc.node / sc.pair (filled by any forward-backward flavour) down to
  /// tag-level marginals.
  [[nodiscard]] SentencePosteriors fold_posteriors(const EncodedSentence& sentence,
                                                   const Scratch& sc) const;
  /// Refresh any prepared quantized table after a weight change.
  void rebuild_decode_tables();

  StateSpace space_;
  std::size_t num_features_;
  std::vector<double> weights_;  ///< [emission | transition | start] (owned)
  /// The active weight table: `weights_` after set_weights, caller-owned
  /// storage after set_weights_view. Every reader goes through this span.
  std::span<const double> wspan_;

  // Weight-derived caches, rebuilt by set_weights(). exp() of a transition
  // or start weight; per-edge copies follow the CSR edge order so the inner
  // loops stream through them linearly.
  std::vector<double> exp_trans_slot_;  ///< per transition slot
  std::vector<double> exp_trans_in_;    ///< incoming CSR edge order
  std::vector<double> exp_trans_out_;   ///< outgoing CSR edge order
  std::vector<double> trans_in_;        ///< raw weights, incoming CSR order
  std::vector<double> trans_out_;       ///< raw weights, outgoing CSR order
  std::vector<double> exp_start_;       ///< per state; 0 for illegal starts

  // Space-derived lookup tables, built once in the constructor.
  std::vector<std::uint8_t> state_tag_idx_;   ///< tag index per state
  std::vector<std::uint8_t> slot_tag_pair_;   ///< tag_from * num_labels + tag_to

  // Decode-time tables (DESIGN.md §10), refreshed alongside the weight
  // caches by rebuild_decode_tables().
  DecodeOptions decode_options_{};
  // Quantized emission tables (num_features x S, feature-row scales beside
  // them); empty until prepare_quantization() builds them.
  std::vector<std::int16_t> quant16_;
  std::vector<float> quant_scale16_;
  std::vector<std::int8_t> quant8_;
  std::vector<float> quant_scale8_;
  double quant_drift_ = 0.0;
};

}  // namespace graphner::crf
