#include "serve/journal.hpp"

#include <utility>

namespace ftdb::serve {
namespace {

constexpr std::size_t kBodyBytes = 9;  // op + a + b
constexpr std::size_t kRecordBytes = kBodyBytes + io::kFrameCrcBytes;

std::size_t body_len(const unsigned char*) { return kBodyBytes; }

constexpr io::LogFormat kFormat{"Journal",
                                {'F', 'T', 'D', 'B', 'J', 'R', 'N', '1'},
                                1,
                                "journal belongs to a different machine shape",
                                kBodyBytes,
                                body_len};

void encode_record(unsigned char* out, const JournalRecord& r) {
  out[0] = static_cast<unsigned char>(r.op);
  io::put_u32(out + 1, r.a);
  io::put_u32(out + 5, r.b);
  io::seal_frame(out, kBodyBytes);
}

}  // namespace

Journal::Journal(std::string path, std::uint64_t fingerprint, bool fsync_writes)
    : log_(kFormat, std::move(path), fingerprint, fsync_writes,
           [this](const unsigned char* body, std::size_t) {
             const std::uint8_t op = body[0];
             if (op < static_cast<std::uint8_t>(JournalOp::kFaultNode) ||
                 op > static_cast<std::uint8_t>(JournalOp::kRepair)) {
               return false;  // unknown op: treated as torn tail
             }
             recovered_.push_back(
                 {static_cast<JournalOp>(op), io::get_u32(body + 1), io::get_u32(body + 5)});
             return true;
           }),
      num_records_(recovered_.size()) {}

void Journal::append(const JournalRecord& record) {
  unsigned char frame[kRecordBytes];
  encode_record(frame, record);
  log_.append(frame, sizeof frame);
  ++num_records_;
}

void Journal::rewrite(const std::vector<JournalRecord>& records) {
  std::vector<unsigned char> frames(records.size() * kRecordBytes);
  for (std::size_t i = 0; i < records.size(); ++i) {
    encode_record(frames.data() + i * kRecordBytes, records[i]);
  }
  // Compaction always fsyncs: it replaces the whole log, not one event.
  log_.replace_body(frames.data(), frames.size(), /*fsync=*/true);
  num_records_ = records.size();
}

}  // namespace ftdb::serve
