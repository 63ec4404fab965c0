// The GraphNER command-line tool (the paper's deliverable #1: a gene
// mention detection tool usable on biomedical text).
//
// Subcommands operate on BioCreative-II-format corpus directories
// (train.in / test.in / train.eval / GENE.eval [/ ALTGENE.eval]):
//
//   graphner_tool generate --corpus bc2gm --dir DIR [--scale 1.0] [--seed 42]
//       write a synthetic corpus in the shared-task layout
//   graphner_tool tag --dir DIR --out FILE [--profile chemdner] [--alpha 0.5]
//       train on train.in/train.eval, run Algorithm 1 transductively over
//       test.in, write detections to FILE in the shared-task format
//   graphner_tool eval --dir DIR --detections FILE
//       score an annotation file with the BC2GM protocol
//   graphner_tool jnlpba --scale 0.2 --save-mmap jnlpba.gmm [--gazetteer]
//       train an 11-label 5-entity model on the JNLPBA-like corpus,
//       report typed-span P/R/F per entity type, persist for serving
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "src/corpus/bc2gm_io.hpp"
#include "src/corpus/generator.hpp"
#include "src/corpus/jnlpba.hpp"
#include "src/eval/typed_eval.hpp"
#include "src/graphner/experiment.hpp"
#include "src/obs/export.hpp"
#include "src/obs/span.hpp"
#include "src/util/cli.hpp"
#include "src/util/table.hpp"

namespace {

using namespace graphner;

int cmd_generate(int argc, char** argv) {
  util::Cli cli("graphner_tool generate", "write a synthetic corpus directory");
  auto corpus_kind = cli.flag<std::string>("corpus", "bc2gm", "bc2gm | aml");
  auto dir = cli.flag<std::string>("dir", "corpus_out", "output directory");
  auto scale = cli.flag<double>("scale", 1.0, "corpus scale");
  auto seed = cli.flag<std::uint64_t>("seed", 42, "corpus seed");
  cli.parse(argc, argv);

  const auto spec = (*corpus_kind == "aml") ? corpus::aml_like_spec(*scale, *seed)
                                            : corpus::bc2gm_like_spec(*scale, *seed);
  const auto data = corpus::generate_corpus(spec);
  corpus::save_corpus(data, *dir);
  std::cout << "wrote " << data.train.size() << " train / " << data.test.size()
            << " test sentences to " << *dir << '\n';
  return 0;
}

int cmd_tag(int argc, char** argv) {
  util::Cli cli("graphner_tool tag", "train + transductive tagging");
  auto dir = cli.flag<std::string>("dir", "corpus_out", "corpus directory");
  auto out_path = cli.flag<std::string>("out", "detections.eval", "output annotations");
  auto profile = cli.flag<std::string>("profile", "banner", "banner | chemdner");
  auto alpha = cli.flag<double>("alpha", 0.5, "mixing coefficient");
  auto mu = cli.flag<double>("mu", 1e-4, "neighbour-agreement weight");
  auto nu = cli.flag<double>("nu", 1e-6, "uniform-prior weight");
  auto iterations = cli.flag<std::size_t>("iterations", 1, "propagation sweeps");
  auto order = cli.flag<int>("crf-order", 2, "CRF order (1 or 2)");
  auto baseline_out = cli.flag<std::string>(
      "baseline-out", "", "also write the pure-CRF detections here");
  auto save_model = cli.flag<std::string>("save-model", "",
                                          "persist the trained model here");
  auto load_model = cli.flag<std::string>(
      "load-model", "", "reuse a saved model instead of training");
  auto checkpoint_dir = cli.flag<std::string>(
      "checkpoint-dir", "",
      "crash-safe per-phase training checkpoints; rerun to resume");
  auto metrics_json = cli.flag<std::string>(
      "metrics-json", "",
      "after the run, write the metric registry + trace spans here as JSON");
  auto quantized = cli.flag<std::string>(
      "quantized", "off", "emission weight storage: off | int16 | int8");
  cli.parse(argc, argv);

  const auto data = corpus::load_corpus(*dir);
  core::GraphNerConfig config;
  config.profile = (*profile == "chemdner") ? core::CrfProfile::kBannerChemDner
                                            : core::CrfProfile::kBanner;
  config.alpha = *alpha;
  config.propagation = {*mu, *nu, *iterations};
  config.crf_order = *order;
  config.checkpoint_dir = *checkpoint_dir;

  // Obtain a model: load a saved one (its stored configuration wins) or
  // train fresh on train.in/train.eval.
  auto make_model = [&]() -> core::GraphNerModel {
    if (!load_model->empty())
      return core::GraphNerModel::load_file(*load_model);
    std::vector<text::Sentence> unlabelled;
    for (const auto& s : data.test) {
      text::Sentence stripped;
      stripped.id = s.id;
      stripped.tokens = s.tokens;
      unlabelled.push_back(std::move(stripped));
    }
    return core::GraphNerModel::train(data.train, unlabelled, config);
  };
  auto model = make_model();
  crf::DecodeOptions decode;
  decode.quantization = crf::parse_quantization(*quantized);
  // Applies to every decode below — the transductive posterior pass, the
  // baseline Viterbi, the final belief decode inputs — and publishes the
  // decode.config.quantized gauge the --metrics-json dump carries.
  model.set_decode_options(decode);
  if (!decode.exact())
    std::cout << "decode: " << decode.to_string() << '\n';
  if (!save_model->empty()) {
    model.save_file(*save_model);  // atomic: tmp + fsync + rename
    std::cout << "saved model to " << *save_model << '\n';
  }

  const auto result = model.test(data.train, data.test);
  core::ExperimentOutput out;
  out.baseline_detections = core::tags_to_annotations(data.test, result.baseline_tags);
  out.graphner_detections = core::tags_to_annotations(data.test, result.graphner_tags);
  out.baseline = eval::evaluate_bc2gm(out.baseline_detections, data.test_gold,
                                      data.test_alternatives);
  out.graphner = eval::evaluate_bc2gm(out.graphner_detections, data.test_gold,
                                      data.test_alternatives);
  {
    std::ofstream file(*out_path);
    text::write_annotations(file, out.graphner_detections);
  }
  std::cout << "wrote " << out.graphner_detections.size() << " detections to "
            << *out_path << '\n';
  if (!baseline_out->empty()) {
    std::ofstream file(*baseline_out);
    text::write_annotations(file, out.baseline_detections);
    std::cout << "wrote " << out.baseline_detections.size()
              << " baseline detections to " << *baseline_out << '\n';
  }

  util::TablePrinter table({"System", "P (%)", "R (%)", "F (%)"});
  auto row = [&](const std::string& name, const eval::Metrics& m) {
    table.add_row({name, util::TablePrinter::fmt(100 * m.precision()),
                   util::TablePrinter::fmt(100 * m.recall()),
                   util::TablePrinter::fmt(100 * m.f_score())});
  };
  row(core::profile_name(config.profile), out.baseline.metrics);
  row("GraphNER", out.graphner.metrics);
  table.print(std::cout, "Evaluation on " + *dir + "/GENE.eval");

  if (!metrics_json->empty()) {
    // Everything the run recorded: the global registry (training phases,
    // L-BFGS, propagation, graph, checkpoints) plus the drained spans.
    std::ofstream file(*metrics_json);
    file << "{\"metrics\":" << obs::export_json(obs::Registry::global().snapshot())
         << ",\"spans\":" << obs::export_spans_json(obs::Trace::global().drain())
         << "}\n";
    std::cout << "wrote metrics JSON to " << *metrics_json << '\n';
  }
  return 0;
}

int cmd_eval(int argc, char** argv) {
  util::Cli cli("graphner_tool eval", "score an annotation file");
  auto dir = cli.flag<std::string>("dir", "corpus_out", "corpus directory");
  auto detections_path = cli.flag<std::string>("detections", "detections.eval",
                                               "annotation file to score");
  cli.parse(argc, argv);

  const auto data = corpus::load_corpus(*dir);
  std::ifstream in(*detections_path);
  if (!in) {
    std::cerr << "cannot read " << *detections_path << '\n';
    return 1;
  }
  const auto detections = text::parse_annotations(in);
  const auto result =
      eval::evaluate_bc2gm(detections, data.test_gold, data.test_alternatives);
  std::cout << "TP " << result.metrics.true_positives << ", FP "
            << result.metrics.false_positives << ", FN "
            << result.metrics.false_negatives << '\n'
            << "P " << util::TablePrinter::fmt(100 * result.metrics.precision())
            << "%, R " << util::TablePrinter::fmt(100 * result.metrics.recall())
            << "%, F " << util::TablePrinter::fmt(100 * result.metrics.f_score())
            << "%\n";
  return 0;
}

// Multi-entity pipeline (DESIGN.md §14): generate the JNLPBA-like
// 5-entity corpus, train the 11-label model (optionally with the
// harvested terminology gazetteer), report typed-span P/R/F per entity
// type, and persist the model for the multi-tenant serving tier.
int cmd_jnlpba(int argc, char** argv) {
  util::Cli cli("graphner_tool jnlpba",
                "train + evaluate a 5-entity JNLPBA-like model");
  auto scale = cli.flag<double>("scale", 1.0, "corpus scale");
  auto seed = cli.flag<std::uint64_t>("seed", 77, "corpus seed");
  auto gazetteer = cli.toggle(
      "gazetteer", "harvest a typed terminology from the training mentions "
                   "and feed membership features to the CRF");
  auto save_model = cli.flag<std::string>(
      "save-model", "", "persist the trained model (text format)");
  auto save_mmap = cli.flag<std::string>(
      "save-mmap", "", "persist the trained model (zero-copy mmap format)");
  cli.parse(argc, argv);

  const auto data =
      corpus::generate_jnlpba_corpus(corpus::jnlpba_like_spec(*scale, *seed));
  core::GraphNerConfig config;
  config.labels = corpus::jnlpba_label_set();
  config.gazetteer_features = *gazetteer;
  const core::GraphNerModel model =
      core::GraphNerModel::train(data.train, {}, config);

  const auto predicted = model.decode_crf(data.test);
  std::vector<std::vector<text::Tag>> gold;
  gold.reserve(data.test.size());
  for (const auto& sentence : data.test) gold.push_back(sentence.tags);
  const auto result = eval::evaluate_typed(predicted, gold, model.labels());

  const auto& types = model.labels().entity_types();
  for (std::size_t t = 0; t < types.size(); ++t) {
    const eval::Metrics& m = result.per_type[t];
    std::cout << types[t] << ": P "
              << util::TablePrinter::fmt(100 * m.precision()) << "%, R "
              << util::TablePrinter::fmt(100 * m.recall()) << "%, F "
              << util::TablePrinter::fmt(100 * m.f_score()) << "% (TP "
              << m.true_positives << ", FP " << m.false_positives << ", FN "
              << m.false_negatives << ")\n";
  }
  std::cout << "overall: P "
            << util::TablePrinter::fmt(100 * result.overall.precision())
            << "%, R " << util::TablePrinter::fmt(100 * result.overall.recall())
            << "%, F "
            << util::TablePrinter::fmt(100 * result.overall.f_score()) << "%\n";

  if (!save_model->empty()) {
    model.save_file(*save_model);
    std::cout << "saved model to " << *save_model << '\n';
  }
  if (!save_mmap->empty()) {
    model.save_mmap_file(*save_mmap);
    std::cout << "saved mmap model to " << *save_mmap << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: graphner_tool <generate|tag|eval|jnlpba> [flags]\n"
                 "       graphner_tool <subcommand> --help\n";
    return 2;
  }
  const std::string subcommand = argv[1];
  if (subcommand == "generate") return cmd_generate(argc - 1, argv + 1);
  if (subcommand == "tag") return cmd_tag(argc - 1, argv + 1);
  if (subcommand == "eval") return cmd_eval(argc - 1, argv + 1);
  if (subcommand == "jnlpba") return cmd_jnlpba(argc - 1, argv + 1);
  std::cerr << "unknown subcommand '" << subcommand << "'\n";
  return 2;
}
