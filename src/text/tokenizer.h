#ifndef HIERGAT_TEXT_TOKENIZER_H_
#define HIERGAT_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace hiergat {

/// Lower-cases and splits text into word tokens. Alphanumeric runs become
/// tokens; punctuation is dropped except that digits and letters stay
/// joined within a run (e.g. "tp-link" -> {"tp", "link"}, "X1-2020" ->
/// {"x1", "2020"}). Matches the word-level tokenization the ER benchmarks
/// use before embedding.
std::vector<std::string> Tokenize(const std::string& text);

/// The splitter behind Tokenize, for callers that keep words as views:
/// writes the lower-cased alphanumeric bytes of `text` at their offsets
/// in `lowered` (which holds at least text.size() bytes) and appends a
/// view of each of Tokenize's words, inside `lowered`, to `words`.
void SplitWords(std::string_view text, char* lowered,
                std::vector<std::string_view>* words);

}  // namespace hiergat

#endif  // HIERGAT_TEXT_TOKENIZER_H_
