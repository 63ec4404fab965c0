// Figure 3 + §III-D — statistics of the all-features BC2GM graph:
// histograms of Influence(v) and |Influencees(v)|, vertex/edge counts,
// labelled and positively-labelled vertex fractions, weak connectivity.
//
// Expected shape: heavily right-skewed histograms (most vertices influence
// few others), out-degree exactly K for (almost) all vertices, a dominant
// weakly-connected component, low positive-vertex fraction.
#include "bench/bench_common.hpp"
#include "src/features/extractor.hpp"
#include "src/graph/graph_stats.hpp"
#include "src/graph/vertex_features.hpp"
#include "src/graphner/reference.hpp"
#include <sstream>

#include "src/util/histogram.hpp"

int main(int argc, char** argv) {
  using namespace graphner;

  util::Cli cli("fig3_influence", "Reproduce Fig. 3 (influence histograms) and the §III-D graph statistics");
  auto scale = cli.flag<double>("scale", 1.0, "corpus scale");
  auto seed = cli.flag<std::uint64_t>("seed", 42, "corpus seed");
  auto k = cli.flag<std::size_t>("k", 10, "graph out-degree K");
  cli.parse(argc, argv);

  const auto data = corpus::generate_corpus(corpus::bc2gm_like_spec(*scale, *seed));
  std::vector<const text::Sentence*> all;
  for (const auto& s : data.train) all.push_back(&s);
  for (const auto& s : data.test) all.push_back(&s);

  const features::FeatureExtractor extractor{features::FeatureConfig{}};
  auto build = graph::build_vertices(all, extractor, graph::VertexFeatureConfig{});
  const graph::TrigramVertices& vertices = build.vertices;
  graph::KnnConfig knn_config;
  knn_config.k = *k;
  const auto knn = graph::build_knn_graph(std::move(build.vectors), knn_config);
  const auto stats = graph::compute_graph_stats(knn);

  // Labelled / positively-labelled fractions (paper: 77.2% / 8.5%).
  const auto reference = core::ReferenceDistributions::build(data.train);
  std::size_t labelled = 0;
  std::size_t positive = 0;
  for (std::size_t v = 0; v < vertices.vertex_count(); ++v) {
    const auto* ref = reference.find(vertices.trigrams[v]);
    if (ref == nullptr) continue;
    ++labelled;
    if ((*ref)[0] + (*ref)[1] > (*ref)[2]) ++positive;
  }

  const auto n = static_cast<double>(vertices.vertex_count());
  std::cout << "Graph statistics (paper values for the real BC2GM graph in parens):\n"
            << "  vertices:            " << stats.vertices << "  (406,179)\n"
            << "  edges:               " << stats.edges << "  (K x vertices)\n"
            << "  mean out-degree:     " << util::TablePrinter::fmt(stats.mean_out_degree)
            << "  (exactly " << *k << ")\n"
            << "  labelled vertices:   "
            << util::TablePrinter::fmt(100.0 * static_cast<double>(labelled) / n, 1)
            << "%  (77.2%)\n"
            << "  positive vertices:   "
            << util::TablePrinter::fmt(100.0 * static_cast<double>(positive) / n, 2)
            << "%  (8.5%)\n"
            << "  weak components:     " << stats.weakly_connected_components
            << " (largest " << stats.largest_component << " = "
            << util::TablePrinter::fmt(
                   100.0 * static_cast<double>(stats.largest_component) / n, 1)
            << "%)\n\n";

  double max_influence = 1.0;
  std::size_t max_influencees = 1;
  for (std::size_t v = 0; v < stats.vertices; ++v) {
    max_influence = std::max(max_influence, stats.influence[v]);
    max_influencees = std::max(max_influencees, stats.influencees[v]);
  }

  util::Histogram influence_hist(0.0, max_influence + 1e-9, 20);
  util::Histogram influencees_hist(0.0, static_cast<double>(max_influencees) + 1.0, 20);
  for (std::size_t v = 0; v < stats.vertices; ++v) {
    influence_hist.add(stats.influence[v]);
    influencees_hist.add(static_cast<double>(stats.influencees[v]));
  }
  influence_hist.print(std::cout, "Fig. 3a — histogram of Influence(v)");
  std::cout << '\n';
  influencees_hist.print(std::cout, "Fig. 3b — histogram of |Influencees(v)|");
  std::cout << "\nShape check: both histograms are heavily right-skewed — most "
               "vertices have low influence, a few are hubs.\n";

  // §III-C memory footprint: the paper estimates GraphNER's peak memory by
  // the size of the graph description files (90 MB AML / 105 MB BC2GM).
  std::ostringstream serialized;
  knn.save(serialized);
  std::cout << "\nGraph description file size: "
            << util::TablePrinter::fmt(
                   static_cast<double>(serialized.str().size()) / (1024.0 * 1024.0), 2)
            << " MB at scale " << *scale
            << "  (paper: 105 MB for the full BC2GM graph)\n";
  return 0;
}
