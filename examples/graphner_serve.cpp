// Always-on tagging server over a trained GraphNerModel.
//
//   graphner_serve --dir corpus/ --save-model m.gnm          train + serve
//   graphner_serve --load-model m.gnm --port 8765            serve a saved model
//   graphner_serve --load-model m.gnm --offline sents.txt    no server: tag the
//       file (one space-tokenized sentence per line) and print the exact
//       response lines a client would see — the CI smoke test diffs this
//       against graphner_client output to prove online == offline.
//
// SIGINT/SIGTERM trigger a graceful stop: the listener closes, queued
// requests drain, and the final metrics JSON is printed to stderr.
#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "src/corpus/bc2gm_io.hpp"
#include "src/graphner/pipeline.hpp"
#include "src/obs/export.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/socket_server.hpp"
#include "src/util/cli.hpp"
#include "src/util/fault.hpp"

namespace {

using namespace graphner;

std::atomic<int> g_signal{0};

void handle_signal(int sig) { g_signal.store(sig); }

core::GraphNerModel obtain_model(const std::string& load_path,
                                 const std::string& corpus_dir,
                                 const std::string& profile,
                                 const std::string& checkpoint_dir) {
  if (!load_path.empty()) return core::GraphNerModel::load_file(load_path);
  const auto data = corpus::load_corpus(corpus_dir);
  core::GraphNerConfig config;
  config.profile = (profile == "chemdner") ? core::CrfProfile::kBannerChemDner
                                           : core::CrfProfile::kBanner;
  config.checkpoint_dir = checkpoint_dir;
  std::vector<text::Sentence> unlabelled;
  for (const auto& s : data.test) {
    text::Sentence stripped;
    stripped.id = s.id;
    stripped.tokens = s.tokens;
    unlabelled.push_back(std::move(stripped));
  }
  return core::GraphNerModel::train(data.train, unlabelled, config);
}

/// One sentence per line, whitespace-tokenized; ids are line<N> to match
/// graphner_client's numbering.
std::vector<text::Sentence> read_sentence_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<text::Sentence> out;
  std::string line;
  std::size_t index = 0;
  while (std::getline(in, line)) {
    text::Sentence sentence;
    sentence.id = "line" + std::to_string(index++);
    std::istringstream tokens(line);
    std::string token;
    while (tokens >> token) sentence.tokens.push_back(std::move(token));
    out.push_back(std::move(sentence));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("graphner_serve", "concurrent batched tagging server");
  auto dir = cli.flag<std::string>("dir", "corpus_out", "corpus directory (training)");
  auto profile = cli.flag<std::string>("profile", "banner", "banner | chemdner");
  auto load_model = cli.flag<std::string>("load-model", "", "serve a saved model");
  auto save_model = cli.flag<std::string>("save-model", "", "persist after training");
  auto offline = cli.flag<std::string>(
      "offline", "", "tag this sentence file offline and exit (no server)");
  auto port = cli.flag<std::uint16_t>("port", 8765, "TCP port (0 = ephemeral)");
  auto workers = cli.flag<std::size_t>("workers", 0, "decode workers (0 = cores)");
  auto max_batch = cli.flag<std::size_t>("max-batch", 32, "micro-batch cap");
  auto max_queue = cli.flag<std::size_t>("max-queue", 1024, "queue depth bound");
  auto checkpoint_dir = cli.flag<std::string>(
      "checkpoint-dir", "",
      "crash-safe per-phase training checkpoints; rerun to resume");
  auto deadline_ms = cli.flag<long>(
      "default-deadline-ms", 0,
      "shed requests queued longer than this (0 = no default deadline)");
  auto blend = cli.toggle(
      "blend", "decode with the GraphNER posterior blend (degradable)");
  auto degrade_high = cli.flag<std::size_t>(
      "degrade-high", 0,
      "queue depth that switches blend decode to plain Viterbi (0 = never)");
  auto degrade_low = cli.flag<std::size_t>(
      "degrade-low", 0, "queue depth that restores blend decode");
  auto metrics_every = cli.flag<long>(
      "metrics-dump-every", 0,
      "dump the Prometheus metrics snapshot to stderr every N seconds (0 = off)");
  auto quantized = cli.flag<std::string>(
      "quantized", "off", "emission weight storage: off | int8");
  cli.parse(argc, argv);

  try {
    auto model = obtain_model(*load_model, *dir, *profile, *checkpoint_dir);
    crf::DecodeOptions decode;
    decode.quantization = crf::parse_quantization(*quantized);
    // Configured before any decode (offline pass or service workers):
    // quantized tables build here, once, and the decode.config.quantized
    // gauge the #METRICS scrape echoes is published.
    model.set_decode_options(decode);
    if (!decode.exact())
      std::cerr << "graphner_serve: decode " << decode.to_string() << '\n';
    if (!save_model->empty()) {
      model.save_file(*save_model);  // atomic: tmp + fsync + rename
      std::cerr << "saved model to " << *save_model << '\n';
    }

    if (!offline->empty()) {
      // Offline reference pass: same format as the server's TSV responses.
      const auto sentences = read_sentence_lines(*offline);
      const auto tags = model.decode_crf(sentences);
      for (std::size_t i = 0; i < sentences.size(); ++i) {
        serve::Request request;
        request.id = sentences[i].id;
        serve::TagResponse response;
        response.tags = tags[i];
        std::cout << serve::format_response(request, response) << '\n';
      }
      return 0;
    }

    serve::ServiceConfig service_config;
    service_config.workers = *workers;
    service_config.batching.max_batch = *max_batch;
    service_config.batching.max_queue_depth = *max_queue;
    service_config.default_deadline = std::chrono::milliseconds(*deadline_ms);
    service_config.blend_decode = *blend;
    service_config.degrade.high_watermark = *degrade_high;
    service_config.degrade.low_watermark = *degrade_low;
    serve::TaggingService service(model, service_config);

    serve::SocketServerConfig socket_config;
    socket_config.port = *port;
    serve::SocketServer server(service, socket_config);
    server.start();
    std::cerr << "graphner_serve: ready on port " << server.port()
              << " (Ctrl-C for graceful stop + metrics)\n";

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    // In-process periodic scrape: the same snapshot the METRICS protocol
    // command serves, dumped to stderr so an operator (or a log shipper)
    // gets time series without connecting a client.
    auto last_dump = std::chrono::steady_clock::now();
    const std::chrono::seconds dump_period(*metrics_every > 0 ? *metrics_every : 0);
    while (g_signal.load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      if (dump_period.count() > 0 &&
          std::chrono::steady_clock::now() - last_dump >= dump_period) {
        last_dump = std::chrono::steady_clock::now();
        std::cerr << obs::export_prometheus(service.observability_snapshot());
      }
    }

    std::cerr << "graphner_serve: stopping (signal " << g_signal.load() << ")\n";
    server.stop();
    service.stop();
    std::cerr << obs::export_json(service.observability_snapshot()) << '\n';
    // Chaos post-mortem: which injected fault points actually fired.
    const std::string faults = util::FaultInjector::instance().summary();
    if (!faults.empty()) std::cerr << "injected faults:\n" << faults;
  } catch (const std::exception& e) {
    std::cerr << "graphner_serve: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
