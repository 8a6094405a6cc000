#include "blocking/embed_blocker.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hiergat {

namespace {

obs::Counter& EmbedQueriesCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "hiergat.blocking.embed_queries");
  return counter;
}
obs::Counter& ProgressivePairsCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "hiergat.blocking.progressive_pairs");
  return counter;
}
obs::Histogram& EmbedAddSeconds() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "hiergat.blocking.embed_add_seconds");
  return histogram;
}

}  // namespace

HashedNgramEmbedder::HashedNgramEmbedder(int dim, uint64_t seed)
    : dim_(dim), embeddings_(dim, /*min_n=*/3, /*max_n=*/5, seed) {}

std::vector<float> HashedNgramEmbedder::operator()(
    const Entity& entity) const {
  std::vector<float> sum(static_cast<size_t>(dim_), 0.0f);
  const std::vector<std::string> tokens = entity.AllValueTokens();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string& token : tokens) {
      const auto [it, missed] = word_cache_.try_emplace(token);
      if (missed) it->second = embeddings_.WordVector(token);
      for (int i = 0; i < dim_; ++i) {
        sum[static_cast<size_t>(i)] += it->second[static_cast<size_t>(i)];
      }
    }
  }
  if (tokens.empty()) return sum;
  float norm = 0.0f;
  for (const float v : sum) norm += v * v;
  if (norm > 0.0f) {
    const float inv = 1.0f / std::sqrt(norm);
    for (float& v : sum) v *= inv;
  }
  return sum;
}

EmbedBlocker::EmbedBlocker(const EmbedBlockOptions& options)
    : options_(options),
      embedder_(options.index.dim),
      index_(options.index) {}

void EmbedBlocker::Add(int64_t id, const Entity& entity) {
  obs::ScopedLatency latency(EmbedAddSeconds());
  // The embedder's output is finite by construction (a normalized mean
  // of bounded word vectors), so a refusal is a programming error.
  const Status status = index_.Insert(id, embedder_(entity));
  HG_CHECK(status.ok()) << status.ToString();
}

void EmbedBlocker::AddAll(const std::vector<Entity>& corpus) {
  HG_TRACE_SPAN("EmbedBlocker::AddAll");
  for (size_t i = 0; i < corpus.size(); ++i) {
    Add(static_cast<int64_t>(i), corpus[i]);
  }
}

std::vector<AnnIndex::Hit> EmbedBlocker::TopN(const Entity& query, int n,
                                              int64_t exclude) const {
  HG_TRACE_SPAN("EmbedBlocker::TopN");
  EmbedQueriesCounter().Increment();
  return index_.Search(embedder_(query), n, exclude);
}

ProgressiveCandidates::ProgressiveCandidates(
    const EmbedBlocker& blocker, const std::vector<Entity>& queries,
    const EmbedBlockOptions& options)
    : blocker_(blocker),
      queries_(queries),
      top_n_(options.top_n),
      num_bands_(std::max(1, options.bands)) {}

void ProgressiveCandidates::SearchAll() {
  HG_TRACE_SPAN("ProgressiveCandidates::SearchAll");
  searched_ = true;
  std::vector<CandidatePair> pairs;
  pairs.reserve(queries_.size() * static_cast<size_t>(top_n_));
  float max_sim = -1.0f, min_sim = 1.0f;
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    const std::vector<AnnIndex::Hit> hits =
        blocker_.TopN(queries_[qi], top_n_);
    for (const AnnIndex::Hit& hit : hits) {
      pairs.push_back(CandidatePair{static_cast<int>(qi), hit.id,
                                    hit.similarity});
      max_sim = std::max(max_sim, hit.similarity);
      min_sim = std::min(min_sim, hit.similarity);
    }
  }
  total_pairs_ = static_cast<int>(pairs.size());
  ProgressivePairsCounter().Increment(static_cast<int64_t>(pairs.size()));
  if (pairs.empty()) return;
  // Floors descend evenly from the observed max to the observed min;
  // the last floor is exactly min_sim so every pair lands in a band.
  const float step = (max_sim - min_sim) / static_cast<float>(num_bands_);
  floors_.resize(static_cast<size_t>(num_bands_));
  for (int k = 0; k < num_bands_; ++k) {
    floors_[static_cast<size_t>(k)] =
        k + 1 == num_bands_ ? min_sim
                            : max_sim - static_cast<float>(k + 1) * step;
  }
  bands_.assign(static_cast<size_t>(num_bands_), {});
  for (const CandidatePair& pair : pairs) {
    size_t band = 0;
    while (band + 1 < floors_.size() && pair.similarity < floors_[band]) {
      ++band;
    }
    bands_[band].push_back(pair);
  }
  for (std::vector<CandidatePair>& band : bands_) {
    std::sort(band.begin(), band.end(),
              [](const CandidatePair& a, const CandidatePair& b) {
                if (a.similarity != b.similarity) {
                  return a.similarity > b.similarity;
                }
                if (a.query != b.query) return a.query < b.query;
                return a.candidate < b.candidate;
              });
  }
}

std::vector<CandidatePair> ProgressiveCandidates::NextBatch() {
  if (!searched_) SearchAll();
  if (next_band_ >= bands_.size()) return {};
  return std::move(bands_[next_band_++]);
}

}  // namespace hiergat
