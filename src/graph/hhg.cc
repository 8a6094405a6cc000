#include "graph/hhg.h"

#include <algorithm>
#include <functional>
#include <string_view>

#include "core/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/tokenizer.h"

namespace hiergat {

Hhg Hhg::Build(const Entity& first, std::span<const Entity> rest) {
  HG_TRACE_SPAN("Hhg::Build");
  static obs::Counter& builds =
      obs::MetricsRegistry::Global().GetCounter("hiergat.graph.builds");
  static obs::Counter& token_nodes =
      obs::MetricsRegistry::Global().GetCounter("hiergat.graph.token_nodes");
  const size_t num_entities = 1 + rest.size();
  auto entity_at = [&](size_t e) -> const Entity& {
    return e == 0 ? first : rest[e - 1];
  };
  size_t num_attributes = 0;
  size_t value_bytes = 0;
  for (size_t e = 0; e < num_entities; ++e) {
    for (const auto& [key, value] : entity_at(e).attributes()) {
      ++num_attributes;
      value_bytes += value.size();
    }
  }

  // Every value is lowered into one buffer and split into word views
  // over it, and each word is interned as it comes (open addressing over
  // the views), so token ids follow first occurrence. A word and its
  // separator take two bytes, which bounds the words and so keeps the
  // table at most half full.
  const size_t max_words = value_bytes / 2 + num_attributes;
  size_t capacity = 16;
  while (capacity < 2 * max_words) capacity *= 2;
  std::vector<int> slots(capacity, -1);
  std::vector<std::string_view> token_words;
  token_words.reserve(max_words);
  const std::hash<std::string_view> hash;
  std::string lowered(value_bytes, '\0');
  size_t offset = 0;
  std::vector<std::string_view> words;  // One value's words.
  words.reserve(max_words);
  Hhg graph;
  graph.attributes_.reserve(num_attributes);
  graph.entities_.resize(num_entities);
  for (size_t e = 0; e < num_entities; ++e) {
    std::vector<int>& entity_attributes = graph.entities_[e].attributes;
    entity_attributes.reserve(entity_at(e).attributes().size());
    for (const auto& [key, value] : entity_at(e).attributes()) {
      const int attr_id = static_cast<int>(graph.attributes_.size());
      size_t group = 0;
      while (group < graph.key_groups_.size() &&
             graph.key_groups_[group].first != key) {
        ++group;
      }
      if (group == graph.key_groups_.size()) {
        graph.key_groups_.emplace_back(key, std::vector<int>());
        graph.key_groups_.back().second.reserve(num_entities);
      }
      graph.key_groups_[group].second.push_back(attr_id);
      entity_attributes.push_back(attr_id);

      words.clear();
      SplitWords(value, lowered.data() + offset, &words);
      offset += value.size();
      std::vector<int> seq;
      seq.reserve(words.size());
      for (const std::string_view word : words) {
        size_t slot = hash(word) & (capacity - 1);
        while (slots[slot] >= 0 &&
               token_words[static_cast<size_t>(slots[slot])] != word) {
          slot = (slot + 1) & (capacity - 1);
        }
        if (slots[slot] < 0) {
          slots[slot] = static_cast<int>(token_words.size());
          token_words.push_back(word);
        }
        seq.push_back(slots[slot]);
      }
      graph.attributes_.push_back(
          {key, static_cast<int>(e), static_cast<int>(group), std::move(seq)});
    }
  }
  graph.tokens_.assign(token_words.begin(), token_words.end());
  const size_t num_tokens = token_words.size();

  // attribute -> distinct tokens, first occurrence first; `stamp[t]` is
  // the last attribute that listed token t. `degree` counts each token's
  // attributes for the transpose.
  std::vector<int> stamp(num_tokens, -1);
  std::vector<int> degree(num_tokens + 1, 0);
  Csr& attribute_tokens = graph.attribute_tokens_;
  attribute_tokens.ids.reserve(max_words);
  attribute_tokens.offsets.reserve(num_attributes + 1);
  attribute_tokens.offsets.push_back(0);
  for (size_t a = 0; a < num_attributes; ++a) {
    for (int t : graph.attributes_[a].token_seq) {
      const size_t token = static_cast<size_t>(t);
      if (stamp[token] == static_cast<int>(a)) continue;
      stamp[token] = static_cast<int>(a);
      attribute_tokens.ids.push_back(t);
      ++degree[token + 1];
    }
    attribute_tokens.offsets.push_back(
        static_cast<int>(attribute_tokens.ids.size()));
  }

  // token -> attributes, the transpose: visiting attributes in order
  // leaves every row ascending. `stamp` becomes each row's fill cursor.
  Csr& token_attributes = graph.token_attributes_;
  for (size_t t = 0; t < num_tokens; ++t) degree[t + 1] += degree[t];
  token_attributes.offsets = std::move(degree);
  token_attributes.ids.resize(attribute_tokens.ids.size());
  stamp.assign(token_attributes.offsets.begin(),
               token_attributes.offsets.end() - 1);
  for (size_t a = 0; a < num_attributes; ++a) {
    for (int t : attribute_tokens.row(static_cast<int>(a))) {
      int& cursor = stamp[static_cast<size_t>(t)];
      token_attributes.ids[static_cast<size_t>(cursor++)] = static_cast<int>(a);
    }
  }

  // token -> entities: attributes are numbered entity by entity, so a
  // row's owners arrive ascending and a repeat is always adjacent.
  Csr& token_entities = graph.token_entities_;
  token_entities.ids.reserve(token_attributes.ids.size());
  token_entities.offsets.reserve(num_tokens + 1);
  token_entities.offsets.push_back(0);
  for (size_t t = 0; t < num_tokens; ++t) {
    const size_t row_begin = token_entities.ids.size();
    for (int a : token_attributes.row(static_cast<int>(t))) {
      const int owner = graph.attributes_[static_cast<size_t>(a)].entity;
      if (token_entities.ids.size() == row_begin ||
          token_entities.ids.back() != owner) {
        token_entities.ids.push_back(owner);
      }
    }
    token_entities.offsets.push_back(
        static_cast<int>(token_entities.ids.size()));
    if (token_entities.ids.size() - row_begin >= 2) {
      graph.common_tokens_.push_back(static_cast<int>(t));
    }
  }
  builds.Increment();
  token_nodes.Increment(graph.num_tokens());
  return graph;
}

std::vector<int> Hhg::CommonTokensForKeyGroup(int group,
                                              int max_count) const {
  HG_CHECK(group >= 0 && group < static_cast<int>(key_groups_.size()));
  std::vector<int> result;
  for (int t : common_tokens_) {
    for (int a : token_attributes(t)) {
      if (attribute(a).key_group == group) {
        result.push_back(t);
        break;
      }
    }
    if (static_cast<int>(result.size()) >= max_count) break;
  }
  return result;
}

std::vector<int> Hhg::RelatedEntities(int entity_id) const {
  HG_CHECK(entity_id >= 0 && entity_id < num_entities());
  std::vector<char> related(static_cast<size_t>(num_entities()), 0);
  for (int t : common_tokens_) {
    const std::span<const int> owners = token_entities_.row(t);
    if (std::find(owners.begin(), owners.end(), entity_id) == owners.end()) {
      continue;
    }
    for (int other : owners) related[static_cast<size_t>(other)] = 1;
  }
  related[static_cast<size_t>(entity_id)] = 0;
  std::vector<int> result;
  for (int e = 0; e < num_entities(); ++e) {
    if (related[static_cast<size_t>(e)]) result.push_back(e);
  }
  return result;
}

}  // namespace hiergat
