// The durable framed logs through both of their codecs — the serve fault
// journal and the elastic block log: descriptor hygiene when the header
// write fails, rollback of a torn append, golden on-disk bytes, and a
// deterministic mutation sweep (every truncation, every single-bit flip)
// over the frame scanner. Write failures are provoked with a soft
// RLIMIT_FSIZE, so the kernel itself tears the write with EFBIG.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "campaign/elastic/blocklog.hpp"
#include "io/framed_log.hpp"
#include "serve/journal.hpp"

namespace ftdb {
namespace {

namespace fs = std::filesystem;
using campaign::ScenarioResult;
using campaign::elastic::BlockLog;
using campaign::elastic::BlockRecord;
using serve::Journal;
using serve::JournalOp;
using serve::JournalRecord;

/// Fresh scratch directory per test, removed on destruction.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& name)
      : path(fs::path(::testing::TempDir()) /
             ("ftdb-framed-" + name + "-" + std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string sub(const std::string& leaf) const { return (path / leaf).string(); }
};

/// Caps the soft file-size limit at `bytes` (SIGXFSZ ignored, so writes past
/// it fail with EFBIG instead of killing the process); restores both on
/// destruction.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(std::uintmax_t bytes) {
    old_handler_ = ::signal(SIGXFSZ, SIG_IGN);
    ::getrlimit(RLIMIT_FSIZE, &old_);
    rlimit capped = old_;
    capped.rlim_cur = static_cast<rlim_t>(bytes);
    EXPECT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &old_);
    ::signal(SIGXFSZ, old_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit old_{};
  void (*old_handler_)(int) = SIG_DFL;
};

std::size_t open_fd_count() {
  return static_cast<std::size_t>(std::distance(fs::directory_iterator("/proc/self/fd"),
                                                fs::directory_iterator{}));
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// A small hand-built block record: deterministic bytes on every platform,
/// no campaign run needed.
BlockRecord make_block(std::uint64_t cell, std::uint64_t block) {
  BlockRecord r;
  r.cell = cell;
  r.block = block;
  ScenarioResult& p = r.partial;
  p.scenario_index = cell;
  p.label = "B(2,3) k=1";
  p.target_nodes = 8;
  p.fabric_nodes = 9;
  p.target_diameter = 3;
  p.trials = 256;
  p.reconfig_success = 250 + block;
  p.over_budget = 6 - block;
  for (const double x : {0.0, 1.0, 2.0}) p.fault_count.add(x + static_cast<double>(cell));
  return r;
}

bool same_block(const BlockRecord& a, const BlockRecord& b) {
  return a.cell == b.cell && a.block == b.block && a.partial.trials == b.partial.trials &&
         a.partial.reconfig_success == b.partial.reconfig_success &&
         a.partial.label == b.partial.label &&
         a.partial.fault_count.mean == b.partial.fault_count.mean;
}

const std::uint64_t kJournalFp = 0x0123456789ABCDEFull;
const std::uint64_t kBlockFp = 0xFEEDFACECAFEBEEFull;

// --- descriptor hygiene -----------------------------------------------------

TEST(FramedLog, JournalHeaderWriteFailureClosesTheDescriptor) {
  const ScratchDir dir("jrn-fd");
  const std::size_t fds = open_fd_count();
  {
    const FileSizeLimit limit(0);
    EXPECT_THROW(Journal(dir.sub("j.jrn"), kJournalFp, false), std::runtime_error);
  }
  EXPECT_EQ(open_fd_count(), fds);
}

TEST(FramedLog, BlockLogHeaderWriteFailureClosesTheDescriptor) {
  const ScratchDir dir("blk-fd");
  const std::size_t fds = open_fd_count();
  {
    const FileSizeLimit limit(0);
    EXPECT_THROW(BlockLog(dir.sub("w.blk"), kBlockFp, false), std::runtime_error);
  }
  EXPECT_EQ(open_fd_count(), fds);
}

// --- torn-append rollback ---------------------------------------------------

TEST(FramedLog, TornJournalAppendRollsBack) {
  const ScratchDir dir("jrn-torn");
  const std::string path = dir.sub("j.jrn");
  const JournalRecord a{JournalOp::kFaultNode, 3, 0};
  const JournalRecord b{JournalOp::kFaultLink, 2, 9};
  const JournalRecord c{JournalOp::kRepair, 3, 0};
  {
    Journal j(path, kJournalFp, false);
    j.append(a);
    const auto before = fs::file_size(path);
    {
      const FileSizeLimit limit(before + 5);  // the frame tears after 5 bytes
      EXPECT_THROW(j.append(b), std::runtime_error);
    }
    EXPECT_EQ(fs::file_size(path), before);
    EXPECT_EQ(j.size_bytes(), before);
    j.append(c);
    EXPECT_EQ(j.num_records(), 2u);
  }
  const Journal reopened(path, kJournalFp, false);
  EXPECT_EQ(reopened.truncated_bytes(), 0u);
  EXPECT_EQ(reopened.recovered(), (std::vector<JournalRecord>{a, c}));
}

TEST(FramedLog, TornBlockLogAppendRollsBack) {
  const ScratchDir dir("blk-torn");
  const std::string path = dir.sub("w.blk");
  {
    BlockLog log(path, kBlockFp, false);
    log.append(make_block(0, 0));
    const auto before = fs::file_size(path);
    {
      const FileSizeLimit limit(before + 5);
      EXPECT_THROW(log.append(make_block(0, 1)), std::runtime_error);
    }
    EXPECT_EQ(fs::file_size(path), before);
    EXPECT_EQ(log.size_bytes(), before);
    log.append(make_block(1, 2));
    EXPECT_EQ(log.num_records(), 2u);
  }
  const BlockLog reopened(path, kBlockFp, false);
  EXPECT_EQ(reopened.truncated_bytes(), 0u);
  ASSERT_EQ(reopened.recovered().size(), 2u);
  EXPECT_TRUE(same_block(reopened.recovered()[0], make_block(0, 0)));
  EXPECT_TRUE(same_block(reopened.recovered()[1], make_block(1, 2)));
}

// --- golden on-disk bytes ---------------------------------------------------
// The pinned hashes were taken from the two formats' original, separate
// implementations; the shared framing must reproduce them byte for byte.

TEST(FramedLog, JournalBytesAreGolden) {
  const ScratchDir dir("jrn-golden");
  const std::string path = dir.sub("j.jrn");
  {
    Journal j(path, kJournalFp, false);
    j.append({JournalOp::kFaultNode, 3, 0});
    j.append({JournalOp::kFaultLink, 2, 9});
    j.append({JournalOp::kFaultBus, 5, 0});
    j.rewrite({{JournalOp::kFaultLink, 2, 9}, {JournalOp::kFaultBus, 5, 0}});
    j.append({JournalOp::kRepair, 5, 0});
  }
  const std::string bytes = slurp(path);
  EXPECT_EQ(bytes.size(), 24u + 3u * 13u);
  EXPECT_EQ(fnv1a(bytes), 0x0765ed4796a2815full);
}

TEST(FramedLog, BlockLogBytesAreGolden) {
  const ScratchDir dir("blk-golden");
  const std::string path = dir.sub("w.blk");
  {
    BlockLog log(path, kBlockFp, false);
    log.append(make_block(0, 0));
    log.append(make_block(1, 1));
    log.truncate_all();
    log.append(make_block(2, 0));
  }
  const std::string bytes = slurp(path);
  EXPECT_EQ(bytes.size(), 1123u);
  EXPECT_EQ(fnv1a(bytes), 0xd01eead27134e36dull);
}

// --- mutation sweep ---------------------------------------------------------
// Contract for every reader of a framed log: a damaged file yields a prefix
// of the records originally written, or a std::runtime_error. Inputs are
// every truncation length and every single-bit flip of a valid file.

std::vector<std::string> mutations_of(const std::string& valid) {
  std::vector<std::string> out;
  for (std::size_t len = 0; len < valid.size(); ++len) out.push_back(valid.substr(0, len));
  for (std::size_t bit = 0; bit < valid.size() * 8; ++bit) {
    std::string flipped = valid;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    out.push_back(std::move(flipped));
  }
  return out;
}

TEST(FramedLog, JournalMutationsRecoverAPrefixOrThrow) {
  const ScratchDir dir("jrn-mutate");
  const std::string path = dir.sub("j.jrn");
  const std::vector<JournalRecord> records = {{JournalOp::kFaultNode, 3, 0},
                                              {JournalOp::kFaultLink, 2, 9},
                                              {JournalOp::kFaultBus, 5, 0},
                                              {JournalOp::kRepair, 3, 0}};
  {
    Journal j(path, kJournalFp, false);
    for (const JournalRecord& r : records) j.append(r);
  }
  std::size_t opened = 0;
  for (const std::string& input : mutations_of(slurp(path))) {
    write_bytes(path, input);
    try {
      const Journal j(path, kJournalFp, false);
      const std::vector<JournalRecord>& got = j.recovered();
      ASSERT_LE(got.size(), records.size());
      ASSERT_TRUE(std::equal(got.begin(), got.end(), records.begin()));
      ASSERT_EQ(fs::file_size(path), j.size_bytes());
      ++opened;
    } catch (const std::runtime_error&) {
    }
  }
  EXPECT_GT(opened, 0u);
}

TEST(FramedLog, BlockLogMutationsRecoverAPrefixOrThrow) {
  const ScratchDir dir("blk-mutate");
  const std::string path = dir.sub("w.blk");
  const std::vector<BlockRecord> records = {make_block(0, 0), make_block(1, 1)};
  {
    BlockLog log(path, kBlockFp, false);
    for (const BlockRecord& r : records) log.append(r);
  }
  const auto expect_prefix = [&](const std::vector<BlockRecord>& got) {
    ASSERT_LE(got.size(), records.size());
    for (std::size_t i = 0; i < got.size(); ++i) ASSERT_TRUE(same_block(got[i], records[i]));
  };
  std::size_t opened = 0;
  for (const std::string& input : mutations_of(slurp(path))) {
    write_bytes(path, input);
    try {
      expect_prefix(BlockLog::read(path, kBlockFp));
      ASSERT_EQ(slurp(path), input);  // the read-only scan never modifies
    } catch (const std::runtime_error&) {
    }
    try {
      const BlockLog log(path, kBlockFp, false);
      expect_prefix(log.recovered());
      ASSERT_EQ(fs::file_size(path), log.size_bytes());
      ++opened;
    } catch (const std::runtime_error&) {
    }
  }
  EXPECT_GT(opened, 0u);
}

// --- whole-file replacement -------------------------------------------------

TEST(FramedLog, ReplaceFileSwapsContentsAndLeavesNoTemp) {
  const ScratchDir dir("replace");
  const std::string path = dir.sub("snapshot.json");
  io::replace_file(path, "first", /*fsync=*/true);
  EXPECT_EQ(slurp(path), "first");
  io::replace_file(path, "second, longer", /*fsync=*/false);
  EXPECT_EQ(slurp(path), "second, longer");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  // A failed replacement leaves the old file whole and no temp behind.
  const FileSizeLimit limit(3);
  EXPECT_THROW(io::replace_file(path, "third", true), std::runtime_error);
  EXPECT_EQ(slurp(path), "second, longer");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

}  // namespace
}  // namespace ftdb
