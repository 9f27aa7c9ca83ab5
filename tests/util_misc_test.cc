// Tests for the small utility modules: Status/Result, CRC-32, Rng,
// the I/O cost model and the result-table printer.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/crc32.h"
#include "util/file_io.h"
#include "util/iomodel.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/table.h"

namespace bbsmine {
namespace {

// --- Status / Result ---------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status st = Status::IoError("disk on fire");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_EQ(st.message(), "disk on fire");
  EXPECT_EQ(st.ToString(), "IoError: disk on fire");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kIoError, StatusCode::kCorruption, StatusCode::kOutOfRange,
        StatusCode::kUnimplemented, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Status FailThrough() {
  BBSMINE_RETURN_IF_ERROR(Status::Corruption("inner"));
  return Status::Ok();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  Status st = FailThrough();
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
}

// --- CRC-32 -------------------------------------------------------------------

TEST(Crc32Test, KnownVectors) {
  // Standard IEEE CRC-32 check value.
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("a"), 0xe8b7be43u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  std::string message = "hello crc world, split across calls";
  uint32_t oneshot = Crc32(message);
  uint32_t crc = 0;
  crc = Crc32(message.substr(0, 10), crc);
  crc = Crc32(message.substr(10), crc);
  EXPECT_EQ(crc, oneshot);
}

TEST(Crc32Test, DetectsBitFlip) {
  std::string a = "payload-data-0000";
  std::string b = a;
  b[5] ^= 0x01;
  EXPECT_NE(Crc32(a), Crc32(b));
}

// Bit-at-a-time CRC-32 straight from the polynomial; shares no table with
// the implementation under test.
uint32_t ReferenceCrc32(const uint8_t* p, size_t len, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0xedb88320u : crc >> 1;
    }
  }
  return ~crc;
}

std::vector<uint8_t> RandomBytes(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Next());
  return bytes;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Every length through several 8-byte strides plus every tail, at every
  // start offset modulo 8, so each head/stride/tail split is covered.
  std::vector<uint8_t> buf = RandomBytes(7, 1031 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1031; ++len) {
      ASSERT_EQ(Crc32(buf.data() + offset, len),
                ReferenceCrc32(buf.data() + offset, len, 0))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, ChainedSeedsMatchReference) {
  std::vector<uint8_t> buf = RandomBytes(8, 4099);
  for (uint32_t seed : {0u, 1u, 0xcbf43926u, 0xffffffffu}) {
    for (size_t split : {0, 1, 7, 8, 9, 63, 64, 1000, 4098, 4099}) {
      uint32_t head = Crc32(buf.data(), split, seed);
      EXPECT_EQ(head, ReferenceCrc32(buf.data(), split, seed));
      EXPECT_EQ(Crc32(buf.data() + split, buf.size() - split, head),
                ReferenceCrc32(buf.data(), buf.size(), seed))
          << "seed " << seed << " split " << split;
    }
  }
}

// --- ReadBinaryFile ------------------------------------------------------------

TEST(ReadBinaryFileTest, ReadsRegularFileWhole) {
  std::string path =
      (std::filesystem::temp_directory_path() / "bbsmine_read_regular.bin")
          .string();
  std::vector<uint8_t> bytes = RandomBytes(9, 300'001);
  std::string data(bytes.begin(), bytes.end());
  ASSERT_TRUE(WriteBinaryFile(path, data).ok());
  Result<std::string> read = ReadBinaryFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);
  std::remove(path.c_str());
}

TEST(ReadBinaryFileTest, ReadsFifoInFull) {
  // A FIFO has no size to presize from; the chunked path must read until
  // the writer closes. 300 KB exceeds the pipe buffer, so the writer blocks
  // and the reader sees many partial reads.
  std::string path =
      (std::filesystem::temp_directory_path() /
       ("bbsmine_read_fifo." + std::to_string(::getpid())))
          .string();
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  std::vector<uint8_t> bytes = RandomBytes(10, 300'001);
  std::string data(bytes.begin(), bytes.end());
  std::thread writer([&] {
    int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
    if (fd < 0) return;
    size_t done = 0;
    while (done < data.size()) {
      ssize_t n = ::write(fd, data.data() + done, data.size() - done);
      if (n <= 0) break;
      done += static_cast<size_t>(n);
    }
    ::close(fd);
  });
  Result<std::string> read = ReadBinaryFile(path);
  writer.join();
  std::remove(path.c_str());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);
}

TEST(ReadBinaryFileTest, MissingFileIsIoError) {
  Result<std::string> read = ReadBinaryFile("/nonexistent-dir/none.bin");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

// --- Rng ----------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_EQ(rng.Uniform(1), 0u);
  }
}

TEST(RngTest, UniformCoversRangeRoughly) {
  Rng rng(11);
  std::vector<int> hits(10, 0);
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) ++hits[rng.Uniform(10)];
  for (int bucket : hits) {
    EXPECT_GT(bucket, kDraws / 10 - kDraws / 50);
    EXPECT_LT(bucket, kDraws / 10 + kDraws / 50);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10'000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, PoissonMeanIsClose) {
  Rng rng(5);
  double sum = 0;
  constexpr int kDraws = 50'000;
  for (int i = 0; i < kDraws; ++i) sum += static_cast<double>(rng.Poisson(10.0));
  double mean = sum / kDraws;
  EXPECT_NEAR(mean, 10.0, 0.2);
}

TEST(RngTest, ExponentialMeanIsClose) {
  Rng rng(9);
  double sum = 0;
  constexpr int kDraws = 50'000;
  for (int i = 0; i < kDraws; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / kDraws, 2.0, 0.1);
}

TEST(RngTest, UniformInRangeInclusive) {
  Rng rng(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    int64_t v = rng.UniformInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

// --- I/O cost model -----------------------------------------------------------

TEST(IoModelTest, BlocksForRoundsUp) {
  EXPECT_EQ(BlocksFor(0, 4096), 0u);
  EXPECT_EQ(BlocksFor(1, 4096), 1u);
  EXPECT_EQ(BlocksFor(4096, 4096), 1u);
  EXPECT_EQ(BlocksFor(4097, 4096), 2u);
}

TEST(IoModelTest, SimulatedSecondsWeighsRandomReadsMore) {
  IoCostParams params = IoCostParams::PaperEraDisk();
  IoStats seq;
  seq.sequential_reads = 100;
  IoStats rand;
  rand.random_reads = 100;
  EXPECT_LT(SimulatedIoSeconds(seq, params), SimulatedIoSeconds(rand, params));
}

TEST(IoModelTest, AccumulateAndReset) {
  IoStats a;
  a.sequential_reads = 1;
  a.random_reads = 2;
  a.writes = 3;
  IoStats b;
  b.sequential_reads = 10;
  b += a;
  EXPECT_EQ(b.sequential_reads, 11u);
  EXPECT_EQ(b.random_reads, 2u);
  EXPECT_EQ(b.writes, 3u);
  EXPECT_EQ(b.TotalReads(), 13u);
  b.Reset();
  EXPECT_EQ(b.TotalReads(), 0u);
  EXPECT_NE(a.ToString().find("seq_reads=1"), std::string::npos);
}

// --- ResultTable ----------------------------------------------------------------

TEST(ResultTableTest, PrintsAlignedRows) {
  ResultTable table("demo");
  table.SetHeader({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22222"});
  std::ostringstream out;
  table.Print(out);
  std::string text = out.str();
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("22222"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(ResultTableTest, CsvOutput) {
  ResultTable table("csv");
  table.SetHeader({"x", "y"});
  table.AddRow({"1", "2"});
  std::ostringstream out;
  table.PrintCsv(out);
  EXPECT_NE(out.str().find("x,y\n1,2\n"), std::string::npos);
}

TEST(ResultTableTest, NumberFormatting) {
  EXPECT_EQ(ResultTable::Num(1.23456, 2), "1.23");
  EXPECT_EQ(ResultTable::Num(2.0, 0), "2");
  EXPECT_EQ(ResultTable::Int(-42), "-42");
}

}  // namespace
}  // namespace bbsmine
