#include "text/tokenizer.h"

#include <cctype>

namespace hiergat {

std::vector<std::string> Tokenize(const std::string& text) {
  std::string lowered(text.size(), '\0');
  std::vector<std::string_view> words;
  SplitWords(text, lowered.data(), &words);
  return {words.begin(), words.end()};
}

void SplitWords(std::string_view text, char* lowered,
                std::vector<std::string_view>* words) {
  size_t begin = 0;  // Start of the current alphanumeric run.
  for (size_t i = 0; i < text.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (std::isalnum(c)) {
      lowered[i] = static_cast<char>(std::tolower(c));
      continue;
    }
    if (i > begin) words->emplace_back(lowered + begin, i - begin);
    begin = i + 1;
  }
  if (text.size() > begin) {
    words->emplace_back(lowered + begin, text.size() - begin);
  }
}

}  // namespace hiergat
