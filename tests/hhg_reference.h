#ifndef HIERGAT_TESTS_HHG_REFERENCE_H_
#define HIERGAT_TESTS_HHG_REFERENCE_H_

#include <string>
#include <utility>
#include <vector>

#include "data/entity.h"

namespace hiergat {

/// A straightforward HHG builder that `Hhg::Build` is checked against:
/// a character-loop tokenizer, hash-map interning and nested adjacency
/// lists, with no shared buffers. Every field but `token_entities`
/// holds what the matching `Hhg` accessor must return.
struct ReferenceHhg {
  std::vector<std::string> tokens;
  std::vector<std::string> attribute_keys;
  std::vector<int> attribute_entity;
  std::vector<std::vector<int>> token_seqs;        ///< Per attribute.
  std::vector<std::vector<int>> attribute_tokens;  ///< Distinct, in order.
  std::vector<std::vector<int>> entity_attributes;
  std::vector<std::pair<std::string, std::vector<int>>> key_groups;
  std::vector<std::vector<int>> token_attributes;
  std::vector<std::vector<int>> token_entities;
  std::vector<int> common_tokens;

  std::vector<int> CommonTokensForKeyGroup(int group, int max_count) const;
  std::vector<int> RelatedEntities(int entity_id) const;
};

/// Builds the reference graph of `entities` (the first is the query).
ReferenceHhg BuildReferenceHhg(const std::vector<Entity>& entities);

}  // namespace hiergat

#endif  // HIERGAT_TESTS_HHG_REFERENCE_H_
