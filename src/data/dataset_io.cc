#include "data/dataset_io.h"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/file_io.h"

namespace colossal {

namespace {

// Parses one transaction line into `items`. Returns false (with a message
// in *error) on any non-numeric token or out-of-range id.
bool ParseLine(const std::string& line, std::vector<ItemId>* items,
               std::string* error) {
  items->clear();
  size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t' ||
                                 line[pos] == '\r')) {
      ++pos;
    }
    if (pos >= line.size()) break;
    uint64_t value = 0;
    size_t digits = 0;
    while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
      value = value * 10 + static_cast<uint64_t>(line[pos] - '0');
      if (value > TransactionDatabase::kMaxItems) {
        *error = "item id too large";
        return false;
      }
      ++digits;
      ++pos;
    }
    if (digits == 0) {
      *error = std::string("unexpected character '") + line[pos] + "'";
      return false;
    }
    if (pos < line.size() && line[pos] != ' ' && line[pos] != '\t' &&
        line[pos] != '\r') {
      *error = std::string("unexpected character '") + line[pos] + "'";
      return false;
    }
    items->push_back(static_cast<ItemId>(value));
  }
  return true;
}

}  // namespace

StatusOr<TransactionDatabase> ParseFimi(const std::string& text) {
  std::vector<std::vector<ItemId>> transactions;
  std::istringstream stream(text);
  std::string line;
  int line_number = 0;
  std::vector<ItemId> items;
  std::string error;
  while (std::getline(stream, line)) {
    ++line_number;
    if (!ParseLine(line, &items, &error)) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": " + error);
    }
    if (!items.empty()) transactions.push_back(items);
  }
  if (transactions.empty()) {
    return Status::InvalidArgument("input contains no transactions");
  }
  return TransactionDatabase::FromTransactions(transactions);
}

StatusOr<TransactionDatabase> ReadFimiFile(const std::string& path) {
  StatusOr<std::string> contents = ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  StatusOr<TransactionDatabase> db = ParseFimi(*contents);
  if (!db.ok()) {
    return Status(db.status().code(), path + ": " + db.status().message());
  }
  return db;
}

std::string ToFimiString(const TransactionDatabase& db) {
  std::ostringstream out;
  for (int64_t t = 0; t < db.num_transactions(); ++t) {
    const Itemset& transaction = db.transaction(t);
    for (int i = 0; i < transaction.size(); ++i) {
      if (i > 0) out << ' ';
      out << transaction[i];
    }
    out << '\n';
  }
  return out.str();
}

Status WriteFimiFile(const TransactionDatabase& db, const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    return Status::NotFound("cannot open file for writing: " + path);
  }
  file << ToFimiString(db);
  if (!file) {
    return Status::Internal("write failed: " + path);
  }
  return Status::Ok();
}

}  // namespace colossal
