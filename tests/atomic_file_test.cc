#include "io/atomic_file.h"

#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "tests/test_util.h"

namespace cce::io {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Counts files in `dir` whose names match the atomic temp pattern.
size_t CountTmpOrphans(const std::string& dir) {
  std::vector<std::string> names;
  CCE_CHECK_OK(Env::Default()->ListDir(dir, &names));
  size_t orphans = 0;
  for (const std::string& name : names) {
    if (IsAtomicTempName(name)) ++orphans;
  }
  return orphans;
}

TEST(AtomicFileTest, WritesNewFile) {
  cce::testing::ScopedTestDir dir;
  const std::string path = dir.File("atomic_new.txt");
  CCE_CHECK_OK(AtomicWriteFile(path, [](std::ostream* out) {
    *out << "hello\n";
    return Status::Ok();
  }));
  EXPECT_EQ(ReadAll(path), "hello\n");
}

TEST(AtomicFileTest, ReplacesExistingContentAtomically) {
  cce::testing::ScopedTestDir dir;
  const std::string path = dir.File("atomic_replace.txt");
  CCE_CHECK_OK(AtomicWriteFile(path, [](std::ostream* out) {
    *out << "old";
    return Status::Ok();
  }));
  CCE_CHECK_OK(AtomicWriteFile(path, [](std::ostream* out) {
    *out << "new content";
    return Status::Ok();
  }));
  EXPECT_EQ(ReadAll(path), "new content");
}

TEST(AtomicFileTest, WriterErrorLeavesOriginalIntactAndNoTempBehind) {
  cce::testing::ScopedTestDir dir;
  const std::string path = dir.File("atomic_failed.txt");
  CCE_CHECK_OK(AtomicWriteFile(path, [](std::ostream* out) {
    *out << "precious";
    return Status::Ok();
  }));
  Status failed = AtomicWriteFile(path, [](std::ostream* out) {
    *out << "half-writ";
    return Status::IoError("simulated mid-write failure");
  });
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  EXPECT_EQ(ReadAll(path), "precious")
      << "a failed rewrite must not touch the target";
  // The temp file must have been cleaned up.
  EXPECT_EQ(CountTmpOrphans(dir.path()), 0u);
}

TEST(AtomicFileTest, UnwritableDirectoryFails) {
  Status failed = AtomicWriteFile("/no/such/dir/file.txt",
                                  [](std::ostream* out) {
                                    *out << "x";
                                    return Status::Ok();
                                  });
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
}

class AtomicFileFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = scoped_dir_.path();
    path_ = scoped_dir_.File("target.bin");
    CCE_CHECK_OK(AtomicWriteFile(path_, [](std::ostream* out) {
      *out << "previous generation";
      return Status::Ok();
    }));
  }

  cce::testing::ScopedTestDir scoped_dir_;
  std::string dir_;
  std::string path_;
};

TEST_F(AtomicFileFaultTest, EnospcDuringWriteLeavesTargetIntact) {
  FaultInjectingEnv env(Env::Default());
  env.ExhaustSpaceAfter(4);  // far less than the payload
  Status failed = AtomicWriteFile(&env, path_, [](std::ostream* out) {
    *out << "next generation that will not fit on the device";
    return Status::Ok();
  });
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  EXPECT_NE(failed.message().find("ENOSPC"), std::string::npos)
      << failed.ToString();
  EXPECT_EQ(ReadAll(path_), "previous generation");
  EXPECT_EQ(CountTmpOrphans(dir_), 0u)
      << "the aborted temp file must be unlinked";
}

TEST_F(AtomicFileFaultTest, FailedFsyncAbortsBeforeTheRename) {
  FaultInjectingEnv env(Env::Default());
  env.FailNextSync();
  Status failed = AtomicWriteFile(&env, path_, [](std::ostream* out) {
    *out << "unflushed";
    return Status::Ok();
  });
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  EXPECT_EQ(ReadAll(path_), "previous generation")
      << "a write that never hit the platter must not replace the target";
  EXPECT_EQ(CountTmpOrphans(dir_), 0u);
}

TEST_F(AtomicFileFaultTest, FailedRenameLeavesTargetAndCleansTemp) {
  FaultInjectingEnv env(Env::Default());
  env.FailNextRename();
  Status failed = AtomicWriteFile(&env, path_, [](std::ostream* out) {
    *out << "stranded";
    return Status::Ok();
  });
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  EXPECT_EQ(ReadAll(path_), "previous generation");
  EXPECT_EQ(CountTmpOrphans(dir_), 0u);
  // The machinery recovers on the next attempt without operator help.
  CCE_CHECK_OK(AtomicWriteFile(&env, path_, [](std::ostream* out) {
    *out << "healed";
    return Status::Ok();
  }));
  EXPECT_EQ(ReadAll(path_), "healed");
}

TEST(IsAtomicTempNameTest, MatchesOnlyTheTempPattern) {
  EXPECT_TRUE(IsAtomicTempName("context.snapshot.tmp.1234.7"));
  EXPECT_TRUE(IsAtomicTempName("x.tmp.0"));
  EXPECT_FALSE(IsAtomicTempName("context.snapshot"));
  EXPECT_FALSE(IsAtomicTempName("context.wal"));
  EXPECT_FALSE(IsAtomicTempName(".tmp.orphan")) << "empty target";
  EXPECT_FALSE(IsAtomicTempName("file.tmp.")) << "empty suffix";
  EXPECT_FALSE(IsAtomicTempName(""));
}

TEST(EnsureDirectoryTest, CreatesOnceAndIsIdempotent) {
  cce::testing::ScopedTestDir scoped;
  const std::string dir = scoped.File("mkdir");
  CCE_CHECK_OK(EnsureDirectory(dir));
  CCE_CHECK_OK(EnsureDirectory(dir));
  // A file with the same name is rejected.
  const std::string file = dir + "/occupied";
  CCE_CHECK_OK(AtomicWriteFile(file, [](std::ostream* out) {
    *out << "x";
    return Status::Ok();
  }));
  EXPECT_EQ(EnsureDirectory(file).code(), StatusCode::kIoError);
}

TEST(EnsureDirectoryTest, RejectsEmptyPath) {
  EXPECT_EQ(EnsureDirectory("").code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace cce::io
