#ifndef HIERGAT_GRAPH_HHG_H_
#define HIERGAT_GRAPH_HHG_H_

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "data/entity.h"

namespace hiergat {

/// Hierarchical Heterogeneous Graph (§2.2, Figures 3-4).
///
/// Three node layers:
///  - token nodes: one per *distinct* surface token across the whole
///    graph (Figure 4: a single "framework" node even if the word
///    appears in several attributes/entities);
///  - attribute nodes: one per <key, value> of every input entity (keys
///    repeat across entities — two "desc" nodes for e1 and e2);
///  - entity nodes: one per input entity.
///
/// Edges: token-attribute (with token order preserved per attribute for
/// positional information), attribute-entity, and the implicit
/// entity-entity relation of candidates sharing the graph. The
/// token-attribute and token-entity relations are stored flat, as
/// compressed sparse rows (DESIGN.md §3, "HHG layout").
class Hhg {
 public:
  struct AttributeNode {
    std::string key;
    int entity = 0;                ///< Owning entity index.
    int key_group = 0;             ///< Index into key_groups().
    std::vector<int> token_seq;    ///< Ordered token ids (repeats kept).
  };

  struct EntityNode {
    std::vector<int> attributes;   ///< Attribute node ids, schema order.
  };

  /// Builds the HHG for `first` and `rest`: one other entity for
  /// pairwise ER, or the N candidates of collective ER (`first` is the
  /// query). The graph copies what it keeps of the entities.
  static Hhg Build(const Entity& first, std::span<const Entity> rest);

  int num_tokens() const { return static_cast<int>(tokens_.size()); }
  int num_attributes() const { return static_cast<int>(attributes_.size()); }
  int num_entities() const { return static_cast<int>(entities_.size()); }

  const std::string& token(int id) const {
    return tokens_[static_cast<size_t>(id)];
  }
  const std::vector<std::string>& tokens() const { return tokens_; }
  const AttributeNode& attribute(int id) const {
    return attributes_[static_cast<size_t>(id)];
  }
  const std::vector<AttributeNode>& attributes() const { return attributes_; }
  const EntityNode& entity(int id) const {
    return entities_[static_cast<size_t>(id)];
  }
  const std::vector<EntityNode>& entities() const { return entities_; }

  /// Unique attribute keys with the attribute-node ids sharing each key
  /// (the paper's unique-attribute set \bar{V^a}), in first-seen order.
  const std::vector<std::pair<std::string, std::vector<int>>>& key_groups()
      const {
    return key_groups_;
  }

  /// Distinct token ids of attribute `id`, in first-occurrence order.
  std::span<const int> attribute_tokens(int id) const {
    return attribute_tokens_.row(id);
  }
  /// Attribute-node ids adjacent to token `id`, ascending.
  std::span<const int> token_attributes(int id) const {
    return token_attributes_.row(id);
  }

  /// Ids of tokens appearing in at least two different entities — the
  /// "common tokens" whose repeated aggregation creates the redundant
  /// context of §4.2 / §5.2.3.
  const std::vector<int>& common_tokens() const { return common_tokens_; }

  /// Common tokens restricted to attributes of key-group `group`, capped
  /// at `max_count` (the paper fixes 10 for entity-level context).
  std::vector<int> CommonTokensForKeyGroup(int group, int max_count) const;

  /// Entity ids (other than `entity_id`) that share at least one common
  /// token with `entity_id` — the neighbor set D_i of Eq. 5.
  std::vector<int> RelatedEntities(int entity_id) const;

 private:
  /// One relation in compressed sparse rows: row r holds
  /// ids[offsets[r], offsets[r + 1]).
  struct Csr {
    std::vector<int> ids;
    std::vector<int> offsets;

    std::span<const int> row(int r) const {
      const size_t begin = static_cast<size_t>(offsets[static_cast<size_t>(r)]);
      const size_t end =
          static_cast<size_t>(offsets[static_cast<size_t>(r) + 1]);
      return std::span<const int>(ids).subspan(begin, end - begin);
    }
  };

  std::vector<std::string> tokens_;
  std::vector<AttributeNode> attributes_;
  std::vector<EntityNode> entities_;
  std::vector<std::pair<std::string, std::vector<int>>> key_groups_;
  Csr attribute_tokens_;
  Csr token_attributes_;
  Csr token_entities_;  ///< Ascending entity ids per token.
  std::vector<int> common_tokens_;
};

}  // namespace hiergat

#endif  // HIERGAT_GRAPH_HHG_H_
