// The byte layer (io/bytes.h) on its own: the reader's bounds latch, and
// the file helpers' failure contracts — read_file reports ENOENT for a
// missing file and EFBIG past its cap, and write_file_atomic leaves
// neither a temp file nor a changed target behind when it fails after
// creating the temp.

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <string>

#include <sys/stat.h>
#include <unistd.h>

#include "io/bytes.h"

namespace merlin {
namespace {

TEST(Bytes, ReaderLatchesOnUnderrunAndReturnsZeros) {
  std::string buf;
  ByteWriter(buf).u32(7).str("abc").f64(-0.0);
  ByteReader r(buf);
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_EQ(r.str(), "abc");
  EXPECT_TRUE(std::signbit(r.f64()));
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(r.u8(), 0u);  // one byte too far: latched from here on
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.exhausted());

  // A string length pointing past the end latches without reading on.
  std::string lying;
  ByteWriter(lying).u32(1000).bytes("xy");
  ByteReader l(lying);
  EXPECT_EQ(l.str(), "");
  EXPECT_FALSE(l.ok());
  EXPECT_EQ(l.remaining(), 2u);
}

struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/merlin_bytes_XXXXXX";
    const char* d = mkdtemp(tmpl);
    EXPECT_NE(d, nullptr);
    dir = d != nullptr ? d : "/tmp";
  }
  ~TempDir() { ::rmdir(dir.c_str()); }
  std::string dir;
};

TEST(Bytes, ReadFileReportsAMissingPathAndRefusesOverlongFiles) {
  TempDir tmp;
  std::string out = "stale";
  std::string err;
  EXPECT_FALSE(read_file(tmp.dir + "/missing", out, &err));
  EXPECT_EQ(errno, ENOENT);
  EXPECT_NE(err.find("missing"), std::string::npos) << err;
  EXPECT_TRUE(out.empty());

  // A file longer than the caller's cap is refused, not read whole.
  const std::string path = tmp.dir + "/long";
  ASSERT_TRUE(write_file_atomic(path, std::string(100, 'x')));
  EXPECT_TRUE(read_file(path, out, &err, 100));
  EXPECT_EQ(out.size(), 100u);
  EXPECT_FALSE(read_file(path, out, &err, 99));
  EXPECT_EQ(errno, EFBIG);
  std::remove(path.c_str());
}

TEST(Bytes, FailedAtomicWriteRemovesItsTempAndKeepsTheTarget) {
  TempDir tmp;
  const std::string path = tmp.dir + "/target";
  std::string err;
  ASSERT_TRUE(write_file_atomic(path, "first", &err)) << err;
  ASSERT_TRUE(write_file_atomic(path, "second", &err)) << err;
  std::string back;
  ASSERT_TRUE(read_file(path, back));
  EXPECT_EQ(back, "second");
  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);
  std::remove(path.c_str());

  // A non-empty directory under the target name makes the rename fail
  // after the temp was written: the temp must go, the directory stay.
  ASSERT_EQ(::mkdir(path.c_str(), 0755), 0);
  const std::string inside = path + "/keep";
  ASSERT_TRUE(write_file_atomic(inside, "x", &err)) << err;
  EXPECT_FALSE(write_file_atomic(path, "third", &err));
  EXPECT_NE(err.find("rename"), std::string::npos) << err;
  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);
  EXPECT_TRUE(read_file(inside, back));
  std::remove(inside.c_str());
  ::rmdir(path.c_str());
}

}  // namespace
}  // namespace merlin
