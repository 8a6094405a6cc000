// Attention visualization (Figure 9): inspect which words and which
// attributes a trained HierGAT considers discriminative for a pair.

#include <cstdio>

#include "data/synthetic.h"
#include "er/hiergat.h"

using namespace hiergat;  // Example code; library code never does this.

namespace {

void PrintAttention(
    const char* label,
    const std::vector<HierGatModel::AttentionReport::AttributeAttention>&
        side,
    const std::vector<float>& attribute_weights) {
  std::printf("%s\n", label);
  for (size_t a = 0; a < side.size(); ++a) {
    const auto& attr = side[a];
    std::printf("  %-12s (weight %.2f):", attr.key.c_str(),
                a < attribute_weights.size() ? attribute_weights[a] : 0.0f);
    // Mark the two highest-attention tokens with ** (the "dark" words).
    float first = -1.0f, second = -1.0f;
    for (float w : attr.weights) {
      if (w > first) {
        second = first;
        first = w;
      } else if (w > second) {
        second = w;
      }
    }
    for (size_t t = 0; t < attr.tokens.size(); ++t) {
      const bool dark = attr.weights[t] >= second && attr.weights[t] > 0;
      std::printf(dark ? " **%s**" : " %s", attr.tokens[t].c_str());
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  SyntheticSpec spec;
  spec.name = "attention-demo";
  spec.num_pairs = 260;
  spec.num_attributes = 3;
  spec.hardness = 0.8f;
  spec.noise = 0.05f;
  spec.seed = 61;
  const PairDataset data = GeneratePairDataset(spec);

  HierGatConfig config;
  config.lm_size = LmSize::kSmall;
  config.lm_pretrain_steps = 1500;
  HierGatModel model(config);
  TrainOptions options;
  options.epochs = 8;
  model.Train(data, options);
  std::printf("trained HierGAT: test %s\n\n",
              model.Evaluate(data.test).ToString().c_str());

  int shown = 0;
  for (const EntityPair& pair : data.test) {
    if (shown >= 2) break;
    if ((shown == 0 && pair.label != 1) || (shown == 1 && pair.label != 0)) {
      continue;
    }
    ++shown;
    const StatusOr<HierGatModel::AttentionReport> report_or =
        model.InspectAttention(pair);
    if (!report_or.ok()) {
      std::fprintf(stderr, "InspectAttention: %s\n",
                   report_or.status().ToString().c_str());
      return 1;
    }
    const HierGatModel::AttentionReport& report = report_or.value();
    std::printf("=== %s pair (P(match)=%.2f)\n",
                pair.label ? "matching" : "non-matching",
                report.match_probability);
    PrintAttention("entity 1:", report.left, report.attribute_weights);
    PrintAttention("entity 2:", report.right, report.attribute_weights);
    std::printf("\n");
  }
  std::printf(
      "**bold** marks the tokens HierGAT's attribute summarization\n"
      "attends to most — the Figure 9 shading. Attribute weights come\n"
      "from the Eq. 4 structural attention.\n");
  return 0;
}
