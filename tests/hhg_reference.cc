#include "hhg_reference.h"

#include <algorithm>
#include <cctype>
#include <unordered_map>
#include <unordered_set>

namespace hiergat {
namespace {

std::vector<std::string> ReferenceTokenize(const std::string& text) {
  std::vector<std::string> tokens;
  std::string current;
  for (char raw : text) {
    const unsigned char c = static_cast<unsigned char>(raw);
    if (std::isalnum(c)) {
      current.push_back(static_cast<char>(std::tolower(c)));
    } else if (!current.empty()) {
      tokens.push_back(current);
      current.clear();
    }
  }
  if (!current.empty()) tokens.push_back(current);
  return tokens;
}

}  // namespace

ReferenceHhg BuildReferenceHhg(const std::vector<Entity>& entities) {
  ReferenceHhg graph;
  std::unordered_map<std::string, int> token_ids;
  std::unordered_map<std::string, std::vector<int>> groups_by_key;
  std::vector<std::string> key_order;
  for (size_t ei = 0; ei < entities.size(); ++ei) {
    std::vector<int> entity_attributes;
    for (const auto& [key, value] : entities[ei].attributes()) {
      std::vector<int> seq;
      for (const std::string& word : ReferenceTokenize(value)) {
        auto [it, inserted] = token_ids.emplace(
            word, static_cast<int>(graph.tokens.size()));
        if (inserted) {
          graph.tokens.push_back(word);
          graph.token_attributes.emplace_back();
          graph.token_entities.emplace_back();
        }
        seq.push_back(it->second);
      }
      const int attr_id = static_cast<int>(graph.token_seqs.size());
      std::vector<int> distinct;
      std::unordered_set<int> seen;
      for (int t : seq) {
        if (seen.insert(t).second) distinct.push_back(t);
      }
      for (int t : distinct) {
        graph.token_attributes[static_cast<size_t>(t)].push_back(attr_id);
        auto& owners = graph.token_entities[static_cast<size_t>(t)];
        if (owners.empty() || owners.back() != static_cast<int>(ei)) {
          owners.push_back(static_cast<int>(ei));
        }
      }
      if (!groups_by_key.count(key)) key_order.push_back(key);
      groups_by_key[key].push_back(attr_id);
      entity_attributes.push_back(attr_id);
      graph.attribute_keys.push_back(key);
      graph.attribute_entity.push_back(static_cast<int>(ei));
      graph.token_seqs.push_back(std::move(seq));
      graph.attribute_tokens.push_back(std::move(distinct));
    }
    graph.entity_attributes.push_back(std::move(entity_attributes));
  }
  for (const std::string& key : key_order) {
    graph.key_groups.emplace_back(key, groups_by_key[key]);
  }
  for (size_t t = 0; t < graph.tokens.size(); ++t) {
    if (graph.token_entities[t].size() >= 2) {
      graph.common_tokens.push_back(static_cast<int>(t));
    }
  }
  return graph;
}

std::vector<int> ReferenceHhg::CommonTokensForKeyGroup(int group,
                                                       int max_count) const {
  const std::vector<int>& attrs = key_groups[static_cast<size_t>(group)].second;
  const std::unordered_set<int> group_attrs(attrs.begin(), attrs.end());
  std::vector<int> result;
  for (int t : common_tokens) {
    for (int attr : token_attributes[static_cast<size_t>(t)]) {
      if (group_attrs.count(attr)) {
        result.push_back(t);
        break;
      }
    }
    if (static_cast<int>(result.size()) >= max_count) break;
  }
  return result;
}

std::vector<int> ReferenceHhg::RelatedEntities(int entity_id) const {
  std::unordered_set<int> related;
  for (int t : common_tokens) {
    const auto& owners = token_entities[static_cast<size_t>(t)];
    if (std::find(owners.begin(), owners.end(), entity_id) == owners.end()) {
      continue;
    }
    for (int other : owners) {
      if (other != entity_id) related.insert(other);
    }
  }
  std::vector<int> result(related.begin(), related.end());
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace hiergat
