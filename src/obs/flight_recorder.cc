#include "obs/flight_recorder.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <type_traits>

namespace colossal {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

static_assert(std::is_trivially_copyable_v<FlightRecord>,
              "FlightRecord is copied through seqlock slots as raw words");

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(RoundUpPow2(capacity < 2 ? 2 : capacity)),
      mask_(capacity_ - 1),
      slots_(new Slot[capacity_]) {}

void FlightRecorder::Record(const FlightRecord& record) {
  // Flatten first: padding bytes must be defined before they are stored
  // through the atomic words.
  uint64_t buffer[kRecordWords];
  std::memset(buffer, 0, sizeof(buffer));
  std::memcpy(buffer, &record, sizeof(record));

  const uint64_t ticket = cursor_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket & mask_];
  // Claim the slot: even -> odd. A failed claim means another writer is
  // mid-flight in this slot — it must be a full ring of requests away,
  // so this record is dropped rather than risking an undetectable tear.
  uint64_t version = slot.version.load(std::memory_order_relaxed);
  if ((version & 1) != 0 ||
      !slot.version.compare_exchange_strong(version, version + 1,
                                            std::memory_order_acq_rel)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  for (size_t i = 0; i < kRecordWords; ++i) {
    slot.words[i].store(buffer[i], std::memory_order_relaxed);
  }
  slot.version.store(version + 2, std::memory_order_release);
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

bool FlightRecorder::ReadSlot(const Slot& slot, FlightRecord* out) const {
  for (int attempt = 0; attempt < 4; ++attempt) {
    const uint64_t before = slot.version.load(std::memory_order_acquire);
    if (before == 0) return false;         // never written
    if ((before & 1) != 0) continue;       // write in progress; retry
    uint64_t buffer[kRecordWords];
    for (size_t i = 0; i < kRecordWords; ++i) {
      buffer[i] = slot.words[i].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.version.load(std::memory_order_relaxed) == before) {
      std::memcpy(out, buffer, sizeof(*out));
      return true;
    }
  }
  return false;  // kept being rewritten; the slot is hotter than us
}

std::vector<FlightRecord> FlightRecorder::Recent(size_t max_n) const {
  std::vector<FlightRecord> records;
  const uint64_t cursor = cursor_.load(std::memory_order_acquire);
  const size_t filled =
      cursor < capacity_ ? static_cast<size_t>(cursor) : capacity_;
  records.reserve(std::min(max_n, filled));
  FlightRecord record;
  for (size_t back = 0; back < filled && records.size() < max_n; ++back) {
    const Slot& slot = slots_[(cursor - 1 - back) & mask_];
    if (ReadSlot(slot, &record) && record.id != 0) {
      records.push_back(record);
    }
  }
  // Slots racing with writers can surface out of order; the contract is
  // newest-first by id.
  std::sort(records.begin(), records.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.id > b.id;
            });
  return records;
}

bool FlightRecorder::Find(uint64_t id, FlightRecord* out) const {
  if (id == 0) return false;
  const uint64_t cursor = cursor_.load(std::memory_order_acquire);
  const size_t filled =
      cursor < capacity_ ? static_cast<size_t>(cursor) : capacity_;
  FlightRecord record;
  for (size_t back = 0; back < filled; ++back) {
    const Slot& slot = slots_[(cursor - 1 - back) & mask_];
    if (ReadSlot(slot, &record) && record.id == id) {
      *out = record;
      return true;
    }
  }
  return false;
}

namespace {

void AppendJson(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) {
    out->append(buf, std::min(static_cast<size_t>(n), sizeof(buf) - 1));
  }
}

void AppendJsonEscaped(std::string* out, const char* text) {
  for (const char* p = text; *p != '\0'; ++p) {
    const unsigned char c = static_cast<unsigned char>(*p);
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(static_cast<char>(c));
    } else if (c < 0x20) {
      AppendJson(out, "\\u%04x", c);
    } else {
      out->push_back(static_cast<char>(c));
    }
  }
}

}  // namespace

void AppendFlightRecordJson(const FlightRecord& record, std::string* out) {
  AppendJson(out, "{\"id\":%" PRIu64 ",\"start_unix_ms\":%lld",
             record.id,
             static_cast<long long>(record.start_unix_nanos / 1000000));
  out->append(",\"transport\":\"");
  AppendJsonEscaped(out, record.transport);
  out->append("\",\"dataset\":\"");
  AppendJsonEscaped(out, record.dataset);
  AppendJson(out, "\",\"fingerprint\":\"%016" PRIx64 "\"",
             record.dataset_fingerprint);
  AppendJson(out, ",\"options_hash\":\"%016" PRIx64 "\"", record.options_hash);
  out->append(",\"source\":\"");
  AppendJsonEscaped(out, record.source);
  out->append("\",\"status\":\"");
  AppendJsonEscaped(out, record.status);
  AppendJson(out, "\",\"response_bytes\":%lld",
             static_cast<long long>(record.response_bytes));
  AppendJson(out, ",\"total_ms\":%.3f",
             static_cast<double>(record.total_nanos) / 1e6);
  out->append(",\"phase_ms\":{");
  for (int i = 0; i < kNumTracePhases; ++i) {
    AppendJson(out, "%s\"%s\":%.3f", i == 0 ? "" : ",",
               TracePhaseName(static_cast<TracePhase>(i)),
               static_cast<double>(record.phase_nanos[i]) / 1e6);
  }
  AppendJson(out, "},\"admission_wait_ms\":%.3f",
             static_cast<double>(record.admission_wait_nanos) / 1e6);
  AppendJson(out, ",\"shards\":%d,\"shard_parallelism\":%d}",
             static_cast<int>(record.shards),
             static_cast<int>(record.shard_parallelism));
}

std::string FlightRecordJson(const FlightRecord& record) {
  std::string out;
  out.reserve(512);
  AppendFlightRecordJson(record, &out);
  return out;
}

}  // namespace colossal
