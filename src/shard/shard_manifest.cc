#include "shard/shard_manifest.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/file_io.h"

namespace colossal {

namespace {

constexpr char kMagicLine[] = "CPFSHARD1";

std::string HexFingerprint(uint64_t fingerprint) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buffer;
}

bool ParseHex64(const std::string& token, uint64_t* value) {
  if (token.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(token.c_str(), &end, 16);
  if (end == token.c_str() || *end != '\0' || errno != 0) return false;
  *value = static_cast<uint64_t>(parsed);
  return true;
}

bool ParseInt64(const std::string& token, int64_t* value) {
  if (token.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0' || errno != 0) return false;
  *value = static_cast<int64_t>(parsed);
  return true;
}

Status ManifestError(int line_number, const std::string& message) {
  return Status::InvalidArgument("manifest line " +
                                 std::to_string(line_number) + ": " + message);
}

// Splits `line` into at most `max_tokens` whitespace-delimited tokens;
// the last token receives the untrimmed remainder (shard paths may
// contain spaces).
std::vector<std::string> SplitTokens(const std::string& line,
                                     size_t max_tokens) {
  std::vector<std::string> tokens;
  size_t pos = 0;
  while (pos < line.size() && tokens.size() < max_tokens) {
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
    if (pos >= line.size()) break;
    if (tokens.size() + 1 == max_tokens) {
      size_t end = line.size();
      while (end > pos &&
             (line[end - 1] == ' ' || line[end - 1] == '\t' ||
              line[end - 1] == '\r')) {
        --end;
      }
      tokens.push_back(line.substr(pos, end - pos));
      return tokens;
    }
    size_t end = pos;
    while (end < line.size() && line[end] != ' ' && line[end] != '\t' &&
           line[end] != '\r') {
      ++end;
    }
    tokens.push_back(line.substr(pos, end - pos));
    pos = end;
  }
  return tokens;
}

// "dir/name" → "dir"; no separator → "." (current directory).
std::string Dirname(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

std::string ToManifestString(const ShardManifest& manifest) {
  std::string out;
  out += kMagicLine;
  out += '\n';
  out += "parent " + HexFingerprint(manifest.parent_fingerprint) + " " +
         std::to_string(manifest.num_transactions) + " " +
         std::to_string(manifest.num_items) + "\n";
  for (const ShardInfo& shard : manifest.shards) {
    out += "shard " + std::to_string(shard.row_begin) + " " +
           std::to_string(shard.row_end) + " " +
           HexFingerprint(shard.fingerprint) + " " + shard.path + "\n";
  }
  return out;
}

StatusOr<ShardManifest> ParseShardManifest(const std::string& data) {
  if (!LooksLikeShardManifest(data)) {
    return Status::InvalidArgument(
        "manifest: bad magic (not a shard manifest)");
  }
  std::istringstream stream(data);
  std::string line;
  std::getline(stream, line);  // the magic line, already verified

  ShardManifest manifest;
  bool have_parent = false;
  int line_number = 1;
  while (std::getline(stream, line)) {
    ++line_number;
    // Tolerate trailing '\r' and blank lines (hand-edited manifests).
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const std::vector<std::string> head = SplitTokens(line, 1);
    if (head.empty()) continue;

    if (head[0].rfind("parent", 0) == 0) {
      if (have_parent) {
        return ManifestError(line_number, "duplicate parent line");
      }
      const std::vector<std::string> tokens = SplitTokens(line, 4);
      if (tokens.size() != 4 || tokens[0] != "parent") {
        return ManifestError(line_number,
                             "want 'parent <fp> <rows> <items>'");
      }
      if (!ParseHex64(tokens[1], &manifest.parent_fingerprint)) {
        return ManifestError(line_number, "bad parent fingerprint '" +
                                              tokens[1] + "'");
      }
      if (!ParseInt64(tokens[2], &manifest.num_transactions) ||
          manifest.num_transactions < 1) {
        return ManifestError(line_number,
                             "bad transaction count '" + tokens[2] + "'");
      }
      if (!ParseInt64(tokens[3], &manifest.num_items) ||
          manifest.num_items < 1) {
        return ManifestError(line_number, "bad item count '" + tokens[3] +
                                              "'");
      }
      have_parent = true;
      continue;
    }
    if (head[0].rfind("shard", 0) == 0) {
      if (!have_parent) {
        return ManifestError(line_number, "shard before parent line");
      }
      const std::vector<std::string> tokens = SplitTokens(line, 5);
      if (tokens.size() != 5 || tokens[0] != "shard") {
        return ManifestError(line_number,
                             "want 'shard <begin> <end> <fp> <path>'");
      }
      ShardInfo shard;
      if (!ParseInt64(tokens[1], &shard.row_begin) ||
          !ParseInt64(tokens[2], &shard.row_end)) {
        return ManifestError(line_number, "bad row range");
      }
      if (!ParseHex64(tokens[3], &shard.fingerprint)) {
        return ManifestError(line_number,
                             "bad shard fingerprint '" + tokens[3] + "'");
      }
      shard.path = tokens[4];
      if (shard.path.empty()) {
        return ManifestError(line_number, "empty shard path");
      }
      if (shard.row_begin < 0 || shard.row_end <= shard.row_begin) {
        return ManifestError(line_number, "empty or negative row range");
      }
      const int64_t expected_begin =
          manifest.shards.empty() ? 0 : manifest.shards.back().row_end;
      if (shard.row_begin != expected_begin) {
        return ManifestError(
            line_number,
            shard.row_begin < expected_begin
                ? "row range overlaps the previous shard"
                : "row range leaves a gap after the previous shard");
      }
      if (shard.row_end > manifest.num_transactions) {
        return ManifestError(line_number,
                             "row range exceeds the parent's " +
                                 std::to_string(manifest.num_transactions) +
                                 " transactions");
      }
      manifest.shards.push_back(std::move(shard));
      continue;
    }
    return ManifestError(line_number, "unknown record '" + head[0] + "'");
  }
  if (!have_parent) {
    return Status::InvalidArgument("manifest: truncated (no parent line)");
  }
  if (manifest.shards.empty()) {
    return Status::InvalidArgument("manifest: truncated (no shards)");
  }
  if (manifest.shards.back().row_end != manifest.num_transactions) {
    return Status::InvalidArgument(
        "manifest: shards cover " +
        std::to_string(manifest.shards.back().row_end) + " of " +
        std::to_string(manifest.num_transactions) +
        " transactions (truncated or gapped)");
  }
  return manifest;
}

bool LooksLikeShardManifest(const std::string& data) {
  const size_t magic_len = sizeof(kMagicLine) - 1;
  return data.size() > magic_len &&
         data.compare(0, magic_len, kMagicLine) == 0 &&
         (data[magic_len] == '\n' || data[magic_len] == '\r');
}

bool IsShardManifestFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return false;
  char buffer[sizeof(kMagicLine)];  // magic + one terminator byte
  file.read(buffer, sizeof(buffer));
  if (file.gcount() != static_cast<std::streamsize>(sizeof(buffer))) {
    return false;
  }
  return LooksLikeShardManifest(std::string(buffer, sizeof(buffer)));
}

Status WriteShardManifestFile(const ShardManifest& manifest,
                              const std::string& path) {
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    return Status::NotFound("cannot open file for writing: " + path);
  }
  const std::string data = ToManifestString(manifest);
  file.write(data.data(), static_cast<std::streamsize>(data.size()));
  if (!file) {
    return Status::Internal("write failed: " + path);
  }
  return Status::Ok();
}

StatusOr<ShardManifest> ReadShardManifestFile(const std::string& path) {
  StatusOr<std::string> contents = ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  StatusOr<ShardManifest> manifest = ParseShardManifest(*contents);
  if (!manifest.ok()) {
    return Status(manifest.status().code(),
                  path + ": " + manifest.status().message());
  }
  const std::string dir = Dirname(path);
  for (ShardInfo& shard : manifest->shards) {
    if (shard.path[0] != '/') shard.path = dir + "/" + shard.path;
  }
  return manifest;
}

}  // namespace colossal
