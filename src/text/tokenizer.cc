#include "text/tokenizer.h"

#include <cctype>

namespace hiergat {

std::vector<std::string> Tokenize(const std::string& text) {
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

}  // namespace hiergat
