#include "mining/result_io.h"

#include <fstream>
#include <sstream>

#include "common/file_io.h"

namespace colossal {

std::string PatternsToString(const std::vector<FrequentItemset>& patterns) {
  std::ostringstream out;
  for (const FrequentItemset& pattern : patterns) {
    for (int i = 0; i < pattern.items.size(); ++i) {
      if (i > 0) out << ' ';
      out << pattern.items[i];
    }
    out << " (" << pattern.support << ")\n";
  }
  return out.str();
}

StatusOr<std::vector<FrequentItemset>> ParsePatterns(const std::string& text) {
  std::vector<FrequentItemset> patterns;
  std::istringstream stream(text);
  std::string line;
  int line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    // Strip trailing carriage returns and surrounding whitespace.
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty()) continue;

    const size_t open = line.rfind('(');
    const size_t close = line.rfind(')');
    if (open == std::string::npos || close == std::string::npos ||
        close < open) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_number) +
          ": missing (support) suffix");
    }
    FrequentItemset pattern;
    const std::string support_text = line.substr(open + 1, close - open - 1);
    std::istringstream support_stream(support_text);
    if (!(support_stream >> pattern.support) || pattern.support < 0) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": bad support '" + support_text + "'");
    }

    std::istringstream items_stream(line.substr(0, open));
    std::vector<ItemId> items;
    std::string token;
    while (items_stream >> token) {
      int64_t value = 0;
      size_t digits = 0;
      for (char c : token) {
        if (c < '0' || c > '9') {
          return Status::InvalidArgument(
              "line " + std::to_string(line_number) + ": bad item '" +
              token + "'");
        }
        value = value * 10 + (c - '0');
        ++digits;
        if (value > TransactionDatabase::kMaxItems) {
          return Status::InvalidArgument(
              "line " + std::to_string(line_number) + ": item id too large");
        }
      }
      if (digits == 0) {
        return Status::InvalidArgument("line " + std::to_string(line_number) +
                                       ": empty item token");
      }
      items.push_back(static_cast<ItemId>(value));
    }
    if (items.empty()) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": pattern has no items");
    }
    pattern.items = Itemset::FromUnsorted(std::move(items));
    patterns.push_back(std::move(pattern));
  }
  return patterns;
}

Status WritePatternsFile(const std::vector<FrequentItemset>& patterns,
                         const std::string& path) {
  std::ofstream file(path);
  if (!file) return Status::NotFound("cannot open for writing: " + path);
  file << PatternsToString(patterns);
  if (!file) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

StatusOr<std::vector<FrequentItemset>> ReadPatternsFile(
    const std::string& path) {
  StatusOr<std::string> contents = ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  StatusOr<std::vector<FrequentItemset>> patterns = ParsePatterns(*contents);
  if (!patterns.ok()) {
    return Status(patterns.status().code(),
                  path + ": " + patterns.status().message());
  }
  return patterns;
}

}  // namespace colossal
