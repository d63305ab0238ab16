#include "data/matrix_io.h"

#include <sstream>
#include <vector>

#include "common/file_io.h"

namespace colossal {

StatusOr<TransactionDatabase> ParseBinaryMatrix(const std::string& text) {
  std::vector<std::vector<ItemId>> transactions;
  std::istringstream stream(text);
  std::string line;
  int line_number = 0;
  int64_t expected_columns = -1;
  while (std::getline(stream, line)) {
    ++line_number;
    std::vector<ItemId> items;
    int64_t column = 0;
    bool saw_cell = false;
    for (char c : line) {
      if (c == ',' || c == ' ' || c == '\t' || c == '\r') continue;
      if (c == '1') {
        items.push_back(static_cast<ItemId>(column));
      } else if (c != '0') {
        return Status::InvalidArgument(
            "line " + std::to_string(line_number) +
            ": unexpected character '" + std::string(1, c) + "'");
      }
      saw_cell = true;
      ++column;
    }
    if (!saw_cell) continue;  // blank line
    if (expected_columns < 0) {
      expected_columns = column;
    } else if (column != expected_columns) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_number) + ": expected " +
          std::to_string(expected_columns) + " cells, got " +
          std::to_string(column));
    }
    if (items.empty()) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": row has no 1-cells");
    }
    transactions.push_back(std::move(items));
  }
  if (transactions.empty()) {
    return Status::InvalidArgument("input contains no rows");
  }
  if (expected_columns > static_cast<int64_t>(TransactionDatabase::kMaxItems)) {
    return Status::InvalidArgument("too many columns");
  }
  return TransactionDatabase::FromTransactions(transactions);
}

StatusOr<TransactionDatabase> ReadBinaryMatrixFile(const std::string& path) {
  StatusOr<std::string> contents = ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  StatusOr<TransactionDatabase> db = ParseBinaryMatrix(*contents);
  if (!db.ok()) {
    return Status(db.status().code(), path + ": " + db.status().message());
  }
  return db;
}

std::string ToBinaryMatrixString(const TransactionDatabase& db) {
  std::ostringstream out;
  for (int64_t t = 0; t < db.num_transactions(); ++t) {
    const Itemset& transaction = db.transaction(t);
    int next = 0;
    for (ItemId item = 0; item < db.num_items(); ++item) {
      if (item > 0) out << ',';
      if (next < transaction.size() && transaction[next] == item) {
        out << '1';
        ++next;
      } else {
        out << '0';
      }
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace colossal
