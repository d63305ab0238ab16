#include "data/snapshot_io.h"

#include <fstream>
#include <vector>

#include "common/bitvector.h"
#include "common/byte_io.h"
#include "common/file_io.h"
#include "common/hash.h"
#include "data/dataset_io.h"
#include "data/matrix_io.h"

namespace colossal {

namespace {

constexpr char kMagic[8] = {'C', 'P', 'F', 'S', 'N', 'A', 'P', '1'};

// The shard-manifest magic line (shard/shard_manifest.h — the literal
// is duplicated here so data/ keeps no dependency on shard/). A
// manifest names a *collection* of datasets, so the single-database
// loaders reject it with a pointer at the sharded path instead of a
// baffling FIMI parse error.
bool LooksLikeManifest(const std::string& data) {
  return data.rfind("CPFSHARD1", 0) == 0;
}

uint64_t FingerprintTransactions(const std::vector<Itemset>& transactions) {
  uint64_t hash = kFnvOffsetBasis;
  hash = HashCombine(hash, static_cast<uint64_t>(transactions.size()));
  for (const Itemset& transaction : transactions) {
    hash = HashCombine(hash, static_cast<uint64_t>(transaction.size()));
    for (ItemId item : transaction) {
      hash = HashCombine(hash, item);
    }
  }
  return hash;
}

}  // namespace

uint64_t FingerprintDatabase(const TransactionDatabase& db) {
  return FingerprintTransactions(db.transactions());
}

std::string ToSnapshotString(const TransactionDatabase& db) {
  std::string out;
  // Header + rows + index; reserve a close upper bound to avoid regrowth.
  const int64_t reserve =
      8 + 3 * 8 + db.num_transactions() * 4 + db.TotalItemOccurrences() * 4 +
      static_cast<int64_t>(db.num_items()) *
          Bitvector::SerializedBytes(db.num_transactions());
  out.reserve(static_cast<size_t>(reserve));

  out.append(kMagic, sizeof(kMagic));
  AppendLittleEndian64(FingerprintDatabase(db), &out);
  AppendLittleEndian64(static_cast<uint64_t>(db.num_transactions()), &out);
  AppendLittleEndian64(db.num_items(), &out);
  for (int64_t t = 0; t < db.num_transactions(); ++t) {
    const Itemset& transaction = db.transaction(t);
    AppendLittleEndian32(static_cast<uint32_t>(transaction.size()), &out);
    for (ItemId item : transaction) AppendLittleEndian32(item, &out);
  }
  for (ItemId item = 0; item < db.num_items(); ++item) {
    db.item_tidset(item).AppendTo(&out);
  }
  return out;
}

StatusOr<TransactionDatabase> ParseSnapshot(const std::string& data) {
  if (!LooksLikeSnapshot(data)) {
    return Status::InvalidArgument("snapshot: bad magic (not a snapshot file)");
  }
  size_t pos = sizeof(kMagic);
  uint64_t fingerprint = 0;
  uint64_t num_transactions = 0;
  uint64_t num_items = 0;
  if (!ReadLittleEndian64(data, &pos, &fingerprint) ||
      !ReadLittleEndian64(data, &pos, &num_transactions) ||
      !ReadLittleEndian64(data, &pos, &num_items)) {
    return Status::InvalidArgument("snapshot: truncated header");
  }
  if (num_items > TransactionDatabase::kMaxItems) {
    return Status::InvalidArgument("snapshot: item domain too large");
  }
  // Sanity-bound the header counts by the bytes actually present before
  // allocating anything from them: every transaction costs >= 4 bytes
  // (its count field) and every tidset >= 8 (its length field), so a
  // corrupt count yields a Status here instead of a bad_alloc below.
  const uint64_t remaining = data.size() - pos;
  if (num_transactions > remaining / 4 || num_items > remaining / 8) {
    return Status::InvalidArgument("snapshot: truncated (header declares " +
                                   std::to_string(num_transactions) +
                                   " transactions, " +
                                   std::to_string(num_items) + " items)");
  }

  std::vector<Itemset> transactions;
  transactions.reserve(num_transactions);
  for (uint64_t t = 0; t < num_transactions; ++t) {
    uint32_t count = 0;
    if (!ReadLittleEndian32(data, &pos, &count)) {
      return Status::InvalidArgument("snapshot: truncated transaction " +
                                     std::to_string(t));
    }
    if (count > (data.size() - pos) / 4) {
      return Status::InvalidArgument("snapshot: truncated transaction " +
                                     std::to_string(t));
    }
    std::vector<ItemId> items(count);
    for (uint32_t i = 0; i < count; ++i) {
      if (!ReadLittleEndian32(data, &pos, &items[i])) {
        return Status::InvalidArgument("snapshot: truncated transaction " +
                                       std::to_string(t));
      }
      if (i > 0 && items[i] <= items[i - 1]) {
        return Status::InvalidArgument(
            "snapshot: transaction " + std::to_string(t) +
            " items not strictly increasing");
      }
    }
    transactions.push_back(Itemset::FromSorted(std::move(items)));
  }
  if (FingerprintTransactions(transactions) != fingerprint) {
    return Status::InvalidArgument(
        "snapshot: fingerprint mismatch (corrupt or hand-edited file)");
  }

  std::vector<Bitvector> tidsets;
  tidsets.reserve(num_items);
  for (uint64_t item = 0; item < num_items; ++item) {
    StatusOr<Bitvector> tidset = Bitvector::ParseFrom(data, &pos);
    if (!tidset.ok()) {
      return Status::InvalidArgument("snapshot: tidset " +
                                     std::to_string(item) + ": " +
                                     tidset.status().message());
    }
    tidsets.push_back(*std::move(tidset));
  }
  if (pos != data.size()) {
    return Status::InvalidArgument("snapshot: trailing bytes after index");
  }

  StatusOr<TransactionDatabase> db = TransactionDatabase::FromItemsetsAndIndex(
      std::move(transactions), std::move(tidsets));
  if (!db.ok()) {
    return Status::InvalidArgument("snapshot: " + db.status().message());
  }
  return db;
}

bool LooksLikeSnapshot(const std::string& data) {
  return data.size() >= sizeof(kMagic) &&
         data.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) == 0;
}

Status WriteSnapshotFile(const TransactionDatabase& db,
                         const std::string& path) {
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    return Status::NotFound("cannot open file for writing: " + path);
  }
  const std::string data = ToSnapshotString(db);
  file.write(data.data(), static_cast<std::streamsize>(data.size()));
  if (!file) {
    return Status::Internal("write failed: " + path);
  }
  return Status::Ok();
}

StatusOr<TransactionDatabase> ReadSnapshotFile(const std::string& path) {
  StatusOr<std::string> contents = ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  StatusOr<TransactionDatabase> db = ParseSnapshot(*contents);
  if (!db.ok()) {
    return Status(db.status().code(), path + ": " + db.status().message());
  }
  return db;
}

StatusOr<TransactionDatabase> LoadDatabaseFile(const std::string& path,
                                               const std::string& format) {
  if (format == "fimi") return ReadFimiFile(path);
  if (format == "matrix") return ReadBinaryMatrixFile(path);
  if (format == "snapshot") return ReadSnapshotFile(path);
  if (format == "auto") {
    StatusOr<std::string> contents = ReadFileToString(path);
    if (!contents.ok()) return contents.status();
    const std::string& data = *contents;
    if (LooksLikeSnapshot(data)) {
      StatusOr<TransactionDatabase> db = ParseSnapshot(data);
      if (!db.ok()) {
        return Status(db.status().code(),
                      path + ": " + db.status().message());
      }
      return db;
    }
    if (LooksLikeManifest(data)) {
      return Status::InvalidArgument(
          path +
          ": is a shard manifest, not a dataset — mine it through "
          "colossal_serve (a request line's --in) or load one of its "
          "shard snapshots");
    }
    StatusOr<TransactionDatabase> db = ParseFimi(data);
    if (!db.ok()) {
      return Status(db.status().code(), path + ": " + db.status().message());
    }
    return db;
  }
  return Status::InvalidArgument("unknown format '" + format +
                                 "' (want fimi|matrix|snapshot|auto)");
}

}  // namespace colossal
