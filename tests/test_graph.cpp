// Tests for trigram vertices, PPMI vectors, k-NN graph and graph stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>

#include "src/features/extractor.hpp"
#include "src/graph/graph_stats.hpp"
#include "src/graph/knn_graph.hpp"
#include "src/graph/knn_index.hpp"
#include "src/graph/sparse_vector.hpp"
#include "src/graph/trigram.hpp"
#include "src/graph/vertex_features.hpp"
#include "src/util/rng.hpp"

namespace graphner::graph {
namespace {

text::Sentence make_sentence(std::string id, std::vector<std::string> tokens) {
  text::Sentence s;
  s.id = std::move(id);
  s.tokens = std::move(tokens);
  return s;
}

TEST(Trigram, PaddingAndLowercasing) {
  const auto s = make_sentence("a", {"The", "FLT3", "gene"});
  EXPECT_EQ(trigram_at(s, 0), (std::array<std::string, 3>{"<s>", "the", "flt3"}));
  EXPECT_EQ(trigram_at(s, 1), (std::array<std::string, 3>{"the", "flt3", "gene"}));
  EXPECT_EQ(trigram_at(s, 2), (std::array<std::string, 3>{"flt3", "gene", "</s>"}));
}

TEST(Trigram, VerticesAreTypesPositionsAreTokens) {
  const std::vector<text::Sentence> sentences = {
      make_sentence("a", {"x", "y", "z"}), make_sentence("b", {"x", "y", "z"}),
      make_sentence("c", {"x", "y", "w"})};
  const std::vector<const text::Sentence*> all = {&sentences[0], &sentences[1],
                                                  &sentences[2]};
  const features::FeatureExtractor extractor{features::FeatureConfig{}};
  const auto vertices =
      build_vertices(all, extractor, VertexFeatureConfig{}).vertices;
  EXPECT_EQ(vertices.positions.size(), 3U);
  EXPECT_EQ(vertices.token_count(), 9U);
  // Sentences a and b are identical: same vertex ids at every position.
  EXPECT_EQ(vertices.positions[0], vertices.positions[1]);
  // Sentence c shares the first trigram type [<s> x y] with a.
  EXPECT_EQ(vertices.positions[2][0], vertices.positions[0][0]);
  EXPECT_LT(vertices.vertex_count(), 9U);
  // Ids are dense in first-seen order: sentence a introduces 0, 1, 2.
  EXPECT_EQ(vertices.positions[0], (std::vector<VertexId>{0, 1, 2}));
}

TEST(SparseVectorTest, DotAndCosine) {
  const SparseVector a({{0, 1.0F}, {2, 2.0F}});
  const SparseVector b({{2, 3.0F}, {5, 1.0F}});
  EXPECT_DOUBLE_EQ(a.dot(b), 6.0);
  EXPECT_NEAR(a.cosine(b), 6.0 / (std::sqrt(5.0) * std::sqrt(10.0)), 1e-12);
  const SparseVector zero;
  EXPECT_EQ(zero.cosine(a), 0.0);
}

TEST(SparseVectorTest, NormalizeMakesUnit) {
  SparseVector v({{1, 3.0F}, {4, 4.0F}});
  v.normalize();
  EXPECT_NEAR(v.norm(), 1.0, 1e-6);
  EXPECT_NEAR(v.dot(v), 1.0, 1e-6);
}

TEST(SparseVectorTest, UnsortedInputGetsSorted) {
  const SparseVector v({{5, 1.0F}, {1, 2.0F}, {3, 3.0F}});
  EXPECT_EQ(v.entries()[0].index, 1U);
  EXPECT_EQ(v.entries()[2].index, 5U);
}

std::vector<SparseVector> random_unit_vectors(std::size_t count, std::size_t dims,
                                              std::size_t nnz, util::Rng& rng) {
  std::vector<SparseVector> out;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<SparseEntry> entries;
    std::set<std::uint32_t> used;
    while (entries.size() < nnz) {
      const auto idx = static_cast<std::uint32_t>(rng.below(dims));
      if (!used.insert(idx).second) continue;
      entries.push_back({idx, static_cast<float>(rng.uniform(0.1, 1.0))});
    }
    SparseVector v(std::move(entries));
    v.normalize();
    out.push_back(std::move(v));
  }
  return out;
}

class KnnVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KnnVsBruteForce, TopNeighboursMatch) {
  util::Rng rng(GetParam());
  const auto vectors = random_unit_vectors(60, 30, 6, rng);
  KnnConfig config;
  config.k = 5;
  config.min_similarity = 1e-9;
  const auto graph = build_knn_graph(vectors, config);

  for (std::size_t v = 0; v < vectors.size(); ++v) {
    // Brute-force top-5 cosine.
    std::vector<std::pair<double, std::size_t>> sims;
    for (std::size_t u = 0; u < vectors.size(); ++u) {
      if (u == v) continue;
      const double c = vectors[v].cosine(vectors[u]);
      if (c > config.min_similarity) sims.emplace_back(c, u);
    }
    std::sort(sims.rbegin(), sims.rend());
    const auto& edges = graph.neighbours(static_cast<VertexId>(v));
    ASSERT_EQ(edges.size(), std::min<std::size_t>(5, sims.size()));
    for (std::size_t j = 0; j < edges.size(); ++j)
      EXPECT_NEAR(edges[j].weight, sims[j].first, 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnnVsBruteForce, ::testing::Values(1, 2, 3));

TEST(KnnGraph, SaveLoadRoundtrip) {
  util::Rng rng(4);
  const auto vectors = random_unit_vectors(20, 15, 4, rng);
  const auto graph = build_knn_graph(vectors, {4, 1000, 1e-9});
  std::stringstream buffer;
  graph.save(buffer);
  const auto loaded = KnnGraph::load(buffer);
  ASSERT_EQ(loaded.vertex_count(), graph.vertex_count());
  EXPECT_EQ(loaded.k(), graph.k());
  for (std::size_t v = 0; v < graph.vertex_count(); ++v) {
    const auto& a = graph.neighbours(static_cast<VertexId>(v));
    const auto& b = loaded.neighbours(static_cast<VertexId>(v));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].target, b[j].target);
      EXPECT_FLOAT_EQ(a[j].weight, b[j].weight);
    }
  }
}

TEST(KnnGraph, LoadRejectsMalformedHeader) {
  std::stringstream buffer("not-a-number 4\n");
  EXPECT_THROW(KnnGraph::load(buffer), std::runtime_error);
  std::stringstream empty;
  EXPECT_THROW(KnnGraph::load(empty), std::runtime_error);
}

TEST(KnnGraph, LoadRejectsOutOfRangeVertices) {
  // Source beyond the declared vertex count.
  std::stringstream bad_src("3 2\n0 1 0.5\n7 0 0.25\n");
  EXPECT_THROW(KnnGraph::load(bad_src), std::runtime_error);
  // Target beyond the declared vertex count.
  std::stringstream bad_target("3 2\n0 1 0.5\n1 9 0.25\n");
  EXPECT_THROW(KnnGraph::load(bad_target), std::runtime_error);
}

TEST(KnnGraph, LoadRejectsTruncatedOrGarbageRecords) {
  // Record cut off mid-way: source present, target/weight missing.
  std::stringstream truncated("3 2\n0 1 0.5\n1\n");
  EXPECT_THROW(KnnGraph::load(truncated), std::runtime_error);
  // Weight field missing from the final record.
  std::stringstream no_weight("3 2\n0 1 0.5\n1 2\n");
  EXPECT_THROW(KnnGraph::load(no_weight), std::runtime_error);
  // Non-numeric trailing line must not be silently ignored.
  std::stringstream garbage("3 2\n0 1 0.5\ncorrupt trailing line\n");
  EXPECT_THROW(KnnGraph::load(garbage), std::runtime_error);
}

TEST(KnnGraph, LoadAcceptsEdgelessGraph) {
  std::stringstream buffer("4 2\n");
  const auto graph = KnnGraph::load(buffer);
  EXPECT_EQ(graph.vertex_count(), 4U);
  EXPECT_EQ(graph.k(), 2U);
  EXPECT_EQ(graph.edge_count(), 0U);
}

TEST(KnnGraph, LoadRejectsMoreThanKEdgesPerSource) {
  // k = 1 but vertex 0 declares two (distinct) neighbours.
  std::stringstream buffer("3 1\n0 1 0.5\n0 2 0.4\n");
  try {
    (void)KnnGraph::load(buffer);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("more than k=1"), std::string::npos)
        << e.what();
  }
}

TEST(KnnGraph, LoadRejectsDuplicateEdges) {
  // Same (src, target) pair twice; k = 2 so the per-source cap alone would
  // not catch it — the duplicate check must, with its own message.
  std::stringstream buffer("3 2\n0 1 0.5\n0 1 0.4\n");
  try {
    (void)KnnGraph::load(buffer);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate edge 0 -> 1"),
              std::string::npos)
        << e.what();
  }
}

TEST(KnnGraph, EdgeCountMaintainedBySetNeighbours) {
  KnnGraph graph(3, 4);
  EXPECT_EQ(graph.edge_count(), 0U);
  graph.set_neighbours(0, {{1, 0.5F}, {2, 0.25F}});
  EXPECT_EQ(graph.edge_count(), 2U);
  graph.set_neighbours(1, {{0, 0.5F}});
  EXPECT_EQ(graph.edge_count(), 3U);
  // Replacement subtracts the old slot before adding the new one.
  graph.set_neighbours(0, {{2, 0.75F}});
  EXPECT_EQ(graph.edge_count(), 2U);
  graph.set_neighbours(1, {});
  EXPECT_EQ(graph.edge_count(), 1U);
}

TEST(KnnGraph, EdgeCountSurvivesSaveLoad) {
  util::Rng rng(11);
  const auto vectors = random_unit_vectors(25, 18, 5, rng);
  const auto graph = build_knn_graph(vectors, {4, 1000, 1e-9});
  ASSERT_GT(graph.edge_count(), 0U);
  std::stringstream buffer;
  graph.save(buffer);
  const auto loaded = KnnGraph::load(buffer);
  EXPECT_EQ(loaded.edge_count(), graph.edge_count());
}

void expect_identical_graphs(const KnnGraph& a, const KnnGraph& b) {
  ASSERT_EQ(a.vertex_count(), b.vertex_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (std::size_t v = 0; v < a.vertex_count(); ++v) {
    const auto& ea = a.neighbours(static_cast<VertexId>(v));
    const auto& eb = b.neighbours(static_cast<VertexId>(v));
    ASSERT_EQ(ea.size(), eb.size()) << "vertex " << v;
    for (std::size_t j = 0; j < ea.size(); ++j) {
      EXPECT_EQ(ea[j].target, eb[j].target) << "vertex " << v << " edge " << j;
      // Bit-identical, not approximately equal: append scores candidates
      // through the same accumulation order as a rebuild.
      EXPECT_EQ(ea[j].weight, eb[j].weight) << "vertex " << v << " edge " << j;
    }
  }
}

TEST(KnnIndex, BuildMatchesBuildKnnGraph) {
  util::Rng rng(7);
  const auto vectors = random_unit_vectors(40, 25, 5, rng);
  const KnnConfig config{5, 1000, 1e-9};
  const auto graph = build_knn_graph(vectors, config);
  KnnIndex index = KnnIndex::build(vectors, config);
  expect_identical_graphs(index.graph(), graph);
}

class KnnAppendGolden : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KnnAppendGolden, AppendThenQueryMatchesRebuild) {
  // The ISSUE 8 golden test: build over the first 40 vectors, append the
  // remaining 20 (in two batches, so intra-append and cross-append edges
  // both occur), and require the graph to match a from-scratch rebuild
  // over all 60 — edge targets, order and bit-identical weights.
  util::Rng rng(GetParam());
  const auto vectors = random_unit_vectors(60, 30, 6, rng);
  const KnnConfig config{5, 1000, 1e-9};

  KnnIndex index = KnnIndex::build(
      std::vector<SparseVector>(vectors.begin(), vectors.begin() + 40), config);
  const auto first = index.append(
      std::vector<SparseVector>(vectors.begin() + 40, vectors.begin() + 52));
  EXPECT_EQ(first.first_id, 40U);
  EXPECT_EQ(first.appended, 12U);
  const auto second = index.append(
      std::vector<SparseVector>(vectors.begin() + 52, vectors.end()));
  EXPECT_EQ(second.first_id, 52U);

  const auto rebuilt = build_knn_graph(vectors, config);
  expect_identical_graphs(index.graph(), rebuilt);

  // Patched lists only name pre-existing vertices, ascending and unique.
  for (const auto& result : {first, second}) {
    EXPECT_TRUE(std::is_sorted(result.patched.begin(), result.patched.end()));
    for (const VertexId u : result.patched) EXPECT_LT(u, result.first_id);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnnAppendGolden, ::testing::Values(21, 22, 23));

TEST(KnnIndex, AppendPatchesReverseEdges) {
  // Two far-apart old vertices; the appended vertex duplicates vertex 0's
  // support, so 0 must gain an edge to it (reverse patch) while vertex 1
  // stays untouched.
  std::vector<SparseVector> old_vectors;
  old_vectors.push_back(SparseVector({{0, 1.0F}}));
  old_vectors.push_back(SparseVector({{9, 1.0F}}));
  for (auto& v : old_vectors) v.normalize();
  KnnIndex index = KnnIndex::build(old_vectors, {2, 1000, 1e-9});
  ASSERT_EQ(index.graph().edge_count(), 0U);

  SparseVector twin({{0, 1.0F}});
  twin.normalize();
  const auto result = index.append({twin});
  ASSERT_EQ(result.patched.size(), 1U);
  EXPECT_EQ(result.patched[0], 0U);
  ASSERT_EQ(index.graph().neighbours(0).size(), 1U);
  EXPECT_EQ(index.graph().neighbours(0)[0].target, 2U);
  EXPECT_TRUE(index.graph().neighbours(1).empty());
  ASSERT_EQ(index.graph().neighbours(2).size(), 1U);
  EXPECT_EQ(index.graph().neighbours(2)[0].target, 0U);
}

TEST(KnnIndex, TransposeMaintainedAcrossAppends) {
  // The transpose is materialized once and then patched by append (forward
  // edges of new vertices + reverse-patch diffs on old vertices). After
  // two appends it must equal, per vertex as a set, a transpose recomputed
  // from the final graph (neighbour order within a list is unspecified).
  util::Rng rng(31);
  const auto vectors = random_unit_vectors(60, 30, 6, rng);
  const KnnConfig config{5, 1000, 1e-9};

  KnnIndex index = KnnIndex::build(
      std::vector<SparseVector>(vectors.begin(), vectors.begin() + 40), config);
  (void)index.transpose();  // materialize early so appends patch it
  (void)index.append(
      std::vector<SparseVector>(vectors.begin() + 40, vectors.begin() + 52));
  (void)index.append(
      std::vector<SparseVector>(vectors.begin() + 52, vectors.end()));

  const auto& maintained = index.transpose();
  ASSERT_EQ(maintained.size(), index.graph().vertex_count());
  std::vector<std::vector<VertexId>> recomputed(index.graph().vertex_count());
  for (std::size_t v = 0; v < index.graph().vertex_count(); ++v)
    for (const auto& e : index.graph().neighbours(static_cast<VertexId>(v)))
      recomputed[e.target].push_back(static_cast<VertexId>(v));
  for (std::size_t v = 0; v < recomputed.size(); ++v) {
    std::vector<VertexId> got = maintained[v];
    std::sort(got.begin(), got.end());
    // No duplicates: reverse-patch upkeep must not double-insert.
    EXPECT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end())
        << "vertex " << v;
    std::sort(recomputed[v].begin(), recomputed[v].end());
    EXPECT_EQ(got, recomputed[v]) << "vertex " << v;
  }
}

TEST(KnnIndex, AppendEmptyBatchIsNoop) {
  util::Rng rng(9);
  const auto vectors = random_unit_vectors(10, 12, 4, rng);
  KnnIndex index = KnnIndex::build(vectors, {3, 1000, 1e-9});
  const std::size_t edges_before = index.graph().edge_count();
  const auto result = index.append({});
  EXPECT_EQ(result.appended, 0U);
  EXPECT_TRUE(result.patched.empty());
  EXPECT_EQ(index.graph().edge_count(), edges_before);
  EXPECT_EQ(index.size(), 10U);
}

TEST(KnnGraph, HighDfFeaturesSkipped) {
  // All vectors share feature 0; with max_posting_length 2 that feature is
  // dropped, leaving everything disconnected.
  std::vector<SparseVector> vectors;
  for (int i = 0; i < 5; ++i) {
    SparseVector v({{0, 1.0F}});
    v.normalize();
    vectors.push_back(std::move(v));
  }
  const auto graph = build_knn_graph(vectors, {3, 2, 1e-9});
  EXPECT_EQ(graph.edge_count(), 0U);
}

TEST(VertexVectors, BuildsUnitVectors) {
  const std::vector<text::Sentence> train = {
      make_sentence("a", {"the", "flt3", "gene", "was", "mutated"}),
      make_sentence("b", {"the", "npm1", "gene", "was", "mutated"})};
  std::vector<const text::Sentence*> all = {&train[0], &train[1]};
  const features::FeatureExtractor extractor{features::FeatureConfig{}};
  const auto build = build_vertices(all, extractor, VertexFeatureConfig{});
  ASSERT_EQ(build.vectors.size(), build.vertices.vertex_count());
  for (const auto& v : build.vectors)
    if (v.nnz() > 0) { EXPECT_NEAR(v.norm(), 1.0, 1e-5); }
}

TEST(VertexVectors, SharedContextTrigramsAreSimilar) {
  // [the flt3 gene] and [the npm1 gene] share context features; both should
  // be far more similar to each other than to [was mutated </s>].
  const std::vector<text::Sentence> train = {
      make_sentence("a", {"the", "flt3", "gene", "was", "mutated"}),
      make_sentence("b", {"the", "npm1", "gene", "was", "mutated"})};
  std::vector<const text::Sentence*> all = {&train[0], &train[1]};
  const features::FeatureExtractor extractor{features::FeatureConfig{}};
  const auto build = build_vertices(all, extractor, VertexFeatureConfig{});

  const VertexId flt3 = build.vertices.positions[0][1];
  const VertexId npm1 = build.vertices.positions[1][1];
  const VertexId mutated = build.vertices.positions[0][4];
  EXPECT_GT(build.vectors[flt3].cosine(build.vectors[npm1]),
            build.vectors[flt3].cosine(build.vectors[mutated]));
}

TEST(VertexVectors, LexicalRepresentationIsSmaller) {
  const std::vector<text::Sentence> train = {
      make_sentence("a", {"the", "flt3", "gene", "was", "mutated"})};
  std::vector<const text::Sentence*> all = {&train[0]};
  const features::FeatureExtractor extractor{features::FeatureConfig{}};
  VertexFeatureConfig lexical;
  lexical.representation = VertexRepresentation::kLexical;
  const auto lex = build_vertices(all, extractor, lexical);
  const auto full = build_vertices(all, extractor, VertexFeatureConfig{});
  EXPECT_LT(lex.feature_instance_count, full.feature_instance_count);
}

TEST(GraphStats, InfluenceMatchesEdges) {
  KnnGraph graph(3, 2);
  graph.set_neighbours(0, {{1, 0.5F}, {2, 0.25F}});
  graph.set_neighbours(1, {{2, 1.0F}});
  graph.set_neighbours(2, {});
  const auto stats = compute_graph_stats(graph);
  EXPECT_EQ(stats.vertices, 3U);
  EXPECT_EQ(stats.edges, 3U);
  EXPECT_EQ(stats.influencees[2], 2U);
  EXPECT_NEAR(stats.influence[2], 1.25, 1e-9);
  EXPECT_EQ(stats.influencees[0], 0U);
  EXPECT_EQ(stats.weakly_connected_components, 1U);
  EXPECT_EQ(stats.largest_component, 3U);
}

TEST(GraphStats, DisconnectedComponentsCounted) {
  KnnGraph graph(4, 1);
  graph.set_neighbours(0, {{1, 1.0F}});
  graph.set_neighbours(2, {{3, 1.0F}});
  const auto stats = compute_graph_stats(graph);
  EXPECT_EQ(stats.weakly_connected_components, 2U);
  EXPECT_EQ(stats.largest_component, 2U);
}

}  // namespace
}  // namespace graphner::graph
