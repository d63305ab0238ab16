#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/bitvector_kernels.h"
#include "core/colossal_miner.h"
#include "data/snapshot_io.h"
#include "driver.h"
#include "service/dispatch.h"
#include "service/request.h"

namespace perfbench {

using colossal::Status;
using colossal::StatusOr;

std::string JsonString(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += JsonString(key) + ": ";
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  Key(key);
  if (!std::isfinite(value)) {
    body_ += "null";
    return *this;
  }
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  body_ += text;
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += JsonString(value);
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

Summary Summarize(std::vector<double> values) {
  Summary summary;
  summary.n = static_cast<int64_t>(values.size());
  if (values.empty()) return summary;
  std::sort(values.begin(), values.end());
  const auto rank = [&](double q) {
    const int64_t index =
        static_cast<int64_t>(std::ceil(q * static_cast<double>(summary.n))) -
        1;
    return values[static_cast<size_t>(std::clamp<int64_t>(index, 0,
                                                          summary.n - 1))];
  };
  summary.p50 = rank(0.5);
  summary.p99 = rank(0.99);
  // Exactly ten samples lie above index n-11.
  if (summary.n > 10) {
    summary.tail = values[static_cast<size_t>(summary.n - 11)];
    summary.tail_pct = 100.0 * static_cast<double>(summary.n - 10) /
                       static_cast<double>(summary.n);
  } else {
    summary.tail = values.back();
    summary.tail_pct = 100.0;
  }
  return summary;
}

std::string SummaryJson(const Summary& summary) {
  return JsonObject()
      .Int("n", summary.n)
      .Num("p50", summary.p50)
      .Num("p99", summary.p99)
      .Num("tail", summary.tail)
      .Num("tail_pct", summary.tail_pct)
      .str();
}

std::string BuildStampJson() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  return JsonObject()
      .Str("simd", colossal::ActiveBitvectorKernels().name)
      .Str("compiler", PERFBENCH_COMPILER)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Bool("optimized", optimized)
      .str();
}

StatusOr<Oracle::Answer> Oracle::Mine(const std::string& line) {
  StatusOr<colossal::MineRequest> request = colossal::ParseRequestLine(line);
  if (!request.ok()) return request.status();
  Answer answer;
  answer.parent = workload_.ParentOf(request->dataset_path);
  std::shared_ptr<const colossal::TransactionDatabase>& db =
      dbs_[answer.parent];
  if (db == nullptr) {
    StatusOr<colossal::TransactionDatabase> loaded =
        colossal::LoadDatabaseFile(answer.parent, "auto");
    if (!loaded.ok()) return loaded.status();
    db = std::make_shared<const colossal::TransactionDatabase>(
        *std::move(loaded));
  }
  colossal::ColossalMinerOptions options = request->options;
  options.num_threads = threads_;  // output is identical for any value
  StatusOr<colossal::ColossalMiningResult> result =
      colossal::MineColossal(*db, options);
  if (!result.ok()) return result.status();
  for (const colossal::Pattern& pattern : result->patterns) {
    answer.patterns.push_back(pattern.items);
  }
  colossal::MiningResponse response;
  response.result = std::make_shared<const colossal::ColossalMiningResult>(
      *std::move(result));
  answer.payload = colossal::RenderPatternsPayload(response);
  return answer;
}

double Oracle::Recall(const Answer& answer) const {
  const std::vector<colossal::Itemset>& planted =
      workload_.Planted(answer.parent);
  if (planted.empty()) return -1;
  int64_t found = 0;
  for (const colossal::Itemset& target : planted) {
    if (std::find(answer.patterns.begin(), answer.patterns.end(), target) !=
        answer.patterns.end()) {
      ++found;
    }
  }
  return static_cast<double>(found) / static_cast<double>(planted.size());
}

}  // namespace perfbench
