#ifndef HIERGAT_TEXT_TOKENIZER_H_
#define HIERGAT_TEXT_TOKENIZER_H_

#include <string>
#include <vector>

namespace hiergat {

/// Lower-cases and splits text into word tokens. Alphanumeric runs become
/// tokens; punctuation is dropped except that digits and letters stay
/// joined within a run (e.g. "tp-link" -> {"tp", "link"}, "X1-2020" ->
/// {"x1", "2020"}). Matches the word-level tokenization the ER benchmarks
/// use before embedding.
std::vector<std::string> Tokenize(const std::string& text);

}  // namespace hiergat

#endif  // HIERGAT_TEXT_TOKENIZER_H_
