#include "campaign/elastic/blocklog.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "analysis/bench_json.hpp"

namespace ftdb::campaign::elastic {
namespace {

using analysis::JsonValue;
using analysis::JsonWriter;

constexpr std::size_t kPrefixBytes = 1 + 4;  // type + payload_len
constexpr std::uint8_t kRecordBlock = 1;

std::size_t body_len(const unsigned char* body) { return kPrefixBytes + io::get_u32(body + 1); }

constexpr io::LogFormat kFormat{"BlockLog",
                                {'F', 'T', 'D', 'B', 'B', 'L', 'K', '1'},
                                1,
                                "log belongs to a different campaign",
                                kPrefixBytes,
                                body_len};

std::string encode_payload(const BlockRecord& r) {
  JsonWriter w;
  w.begin_object();
  w.key("cell");
  w.value(r.cell);
  w.key("block");
  w.value(r.block);
  w.key("partial");
  write_scenario_result(w, r.partial);
  w.end_object();
  return w.str();
}

BlockRecord decode_payload(const std::string& text) {
  const JsonValue doc = analysis::json_parse(text);
  BlockRecord r;
  r.cell = static_cast<std::uint64_t>(doc.at("cell").number);
  r.block = static_cast<std::uint64_t>(doc.at("block").number);
  r.partial = parse_scenario_result(doc.at("partial"));
  return r;
}

std::vector<unsigned char> encode_frame(const BlockRecord& r) {
  const std::string payload = encode_payload(r);
  std::vector<unsigned char> frame(kPrefixBytes + payload.size() + io::kFrameCrcBytes);
  frame[0] = kRecordBlock;
  io::put_u32(frame.data() + 1, static_cast<std::uint32_t>(payload.size()));
  std::memcpy(frame.data() + kPrefixBytes, payload.data(), payload.size());
  io::seal_frame(frame.data(), kPrefixBytes + payload.size());
  return frame;
}

/// The FrameSink both opens share: a block frame decodes into `out`; any
/// other type ends the scan. A CRC-clean frame whose JSON does not parse is
/// corruption, not a torn append — refuse the log rather than silently
/// dropping data.
io::FrameSink decode_into(std::vector<BlockRecord>& out, const std::string& path) {
  return [&out, &path](const unsigned char* body, std::size_t len) {
    if (body[0] != kRecordBlock) return false;
    try {
      out.push_back(decode_payload(
          std::string(reinterpret_cast<const char*>(body + kPrefixBytes), len - kPrefixBytes)));
    } catch (const std::exception& e) {
      throw std::runtime_error("BlockLog: undecodable record in " + path + ": " + e.what());
    }
    return true;
  };
}

}  // namespace

BlockLog::BlockLog(std::string path, std::uint64_t fingerprint, bool fsync_writes)
    : log_(kFormat, path, fingerprint, fsync_writes, decode_into(recovered_, path)),
      fsync_(fsync_writes),
      num_records_(recovered_.size()) {}

void BlockLog::append(const BlockRecord& record) {
  const std::vector<unsigned char> frame = encode_frame(record);
  log_.append(frame.data(), frame.size());
  ++num_records_;
}

void BlockLog::truncate_all() {
  log_.replace_body(nullptr, 0, fsync_);
  recovered_.clear();
  num_records_ = 0;
}

std::vector<BlockRecord> BlockLog::read(const std::string& path, std::uint64_t fingerprint) {
  std::vector<BlockRecord> records;
  io::FramedLog::scan(kFormat, path, fingerprint, decode_into(records, path));
  return records;
}

}  // namespace ftdb::campaign::elastic
