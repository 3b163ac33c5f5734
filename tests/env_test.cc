#include "io/env.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "io/fault_env.h"
#include "tests/test_util.h"

namespace cce::io {
namespace {

std::string MustRead(Env* env, const std::string& path) {
  std::string content;
  CCE_CHECK_OK(env->ReadFileToString(path, &content));
  return content;
}

TEST(PosixEnvTest, AppendableFileAccumulates) {
  cce::testing::ScopedTestDir tmp;
  Env* env = Env::Default();
  const std::string path = tmp.File("env_append.bin");
  {
    auto file = env->NewAppendableFile(path);
    CCE_CHECK_OK(file.status());
    CCE_CHECK_OK((*file)->Append("one"));
    CCE_CHECK_OK((*file)->Append("-two"));
    CCE_CHECK_OK((*file)->Sync());
    CCE_CHECK_OK((*file)->Close());
  }
  EXPECT_EQ(MustRead(env, path), "one-two");
  // Reopening appendable continues at the end.
  {
    auto file = env->NewAppendableFile(path);
    CCE_CHECK_OK(file.status());
    CCE_CHECK_OK((*file)->Append("-three"));
    CCE_CHECK_OK((*file)->Close());
  }
  EXPECT_EQ(MustRead(env, path), "one-two-three");
  CCE_CHECK_OK(env->RemoveFile(path));
}

TEST(PosixEnvTest, TruncatedFileStartsEmpty) {
  cce::testing::ScopedTestDir tmp;
  Env* env = Env::Default();
  const std::string path = tmp.File("env_trunc.bin");
  {
    auto file = env->NewAppendableFile(path);
    CCE_CHECK_OK(file.status());
    CCE_CHECK_OK((*file)->Append("leftover"));
    CCE_CHECK_OK((*file)->Close());
  }
  {
    auto file = env->NewTruncatedFile(path);
    CCE_CHECK_OK(file.status());
    CCE_CHECK_OK((*file)->Append("fresh"));
    CCE_CHECK_OK((*file)->Close());
  }
  EXPECT_EQ(MustRead(env, path), "fresh");
  CCE_CHECK_OK(env->RemoveFile(path));
}

TEST(PosixEnvTest, TruncateCutsAndRepositions) {
  cce::testing::ScopedTestDir tmp;
  Env* env = Env::Default();
  const std::string path = tmp.File("env_cut.bin");
  auto file = env->NewTruncatedFile(path);
  CCE_CHECK_OK(file.status());
  CCE_CHECK_OK((*file)->Append("0123456789"));
  CCE_CHECK_OK((*file)->Truncate(4));
  // The next write must land at the new end, not leave a hole at byte 10.
  CCE_CHECK_OK((*file)->Append("X"));
  CCE_CHECK_OK((*file)->Close());
  EXPECT_EQ(MustRead(env, path), "0123X");
  CCE_CHECK_OK(env->RemoveFile(path));
}

TEST(PosixEnvTest, ReadMissingFileIsNotFound) {
  cce::testing::ScopedTestDir tmp;
  Env* env = Env::Default();
  std::string content;
  EXPECT_EQ(env->ReadFileToString(tmp.File("env_no_such_file"), &content)
                .code(),
            StatusCode::kNotFound);
}

TEST(PosixEnvTest, RenameReplacesAndListDirSeesIt) {
  cce::testing::ScopedTestDir tmp;
  Env* env = Env::Default();
  const std::string dir = tmp.File("env_listdir");
  CCE_CHECK_OK(env->CreateDir(dir));
  {
    auto file = env->NewTruncatedFile(dir + "/a.src");
    CCE_CHECK_OK(file.status());
    CCE_CHECK_OK((*file)->Append("payload"));
    CCE_CHECK_OK((*file)->Close());
  }
  CCE_CHECK_OK(env->RenameFile(dir + "/a.src", dir + "/a.dst"));
  EXPECT_FALSE(env->FileExists(dir + "/a.src"));
  EXPECT_TRUE(env->FileExists(dir + "/a.dst"));
  std::vector<std::string> names;
  CCE_CHECK_OK(env->ListDir(dir, &names));
  EXPECT_NE(std::find(names.begin(), names.end(), "a.dst"), names.end());
  EXPECT_EQ(std::find(names.begin(), names.end(), "."), names.end());
  CCE_CHECK_OK(env->RemoveFile(dir + "/a.dst"));
}

TEST(FaultEnvTest, ArmedAppendFailureFiresOnceThenClears) {
  cce::testing::ScopedTestDir tmp;
  FaultInjectingEnv env(Env::Default());
  const std::string path = tmp.File("fault_append.bin");
  auto file = env.NewTruncatedFile(path);
  CCE_CHECK_OK(file.status());
  env.FailNextAppend();
  EXPECT_EQ((*file)->Append("doomed").code(), StatusCode::kIoError);
  CCE_CHECK_OK((*file)->Append("fine"));
  CCE_CHECK_OK((*file)->Close());
  std::string content;
  CCE_CHECK_OK(env.ReadFileToString(path, &content));
  EXPECT_EQ(content, "fine");
  EXPECT_EQ(env.stats().append_errors, 1u);
}

TEST(FaultEnvTest, TornAppendLandsThePrefix) {
  cce::testing::ScopedTestDir tmp;
  FaultInjectingEnv env(Env::Default());
  const std::string path = tmp.File("fault_torn.bin");
  auto file = env.NewTruncatedFile(path);
  CCE_CHECK_OK(file.status());
  env.TearNextAppend(/*keep_bytes=*/3);
  EXPECT_FALSE((*file)->Append("ABCDEFGH").ok());
  CCE_CHECK_OK((*file)->Close());
  std::string content;
  CCE_CHECK_OK(env.ReadFileToString(path, &content));
  EXPECT_EQ(content, "ABC") << "the torn prefix must be on disk, like a "
                               "real crash mid-write";
  EXPECT_EQ(env.stats().torn_appends, 1u);
}

TEST(FaultEnvTest, SpaceBudgetGivesEnospcWithPartialLanding) {
  cce::testing::ScopedTestDir tmp;
  FaultInjectingEnv env(Env::Default());
  const std::string path = tmp.File("fault_enospc.bin");
  auto file = env.NewTruncatedFile(path);
  CCE_CHECK_OK(file.status());
  env.ExhaustSpaceAfter(5);
  CCE_CHECK_OK((*file)->Append("1234"));  // 4 bytes, 1 left
  Status full = (*file)->Append("5678");
  EXPECT_EQ(full.code(), StatusCode::kIoError);
  EXPECT_NE(full.message().find("ENOSPC"), std::string::npos);
  EXPECT_EQ(env.stats().space_exhausted_errors, 1u);
  // After the operator frees space, writes flow again.
  env.ReplenishSpace();
  CCE_CHECK_OK((*file)->Append("ok"));
  CCE_CHECK_OK((*file)->Close());
}

TEST(FaultEnvTest, ArmedSyncAndTruncateFailuresFire) {
  cce::testing::ScopedTestDir tmp;
  FaultInjectingEnv env(Env::Default());
  const std::string path = tmp.File("fault_sync.bin");
  auto file = env.NewTruncatedFile(path);
  CCE_CHECK_OK(file.status());
  CCE_CHECK_OK((*file)->Append("data"));
  env.FailNextSync();
  EXPECT_EQ((*file)->Sync().code(), StatusCode::kIoError);
  CCE_CHECK_OK((*file)->Sync());
  env.FailNextTruncate();
  EXPECT_EQ((*file)->Truncate(1).code(), StatusCode::kIoError);
  CCE_CHECK_OK((*file)->Truncate(1));
  CCE_CHECK_OK((*file)->Close());
  EXPECT_EQ(env.stats().sync_errors, 1u);
  EXPECT_EQ(env.stats().truncate_errors, 1u);
}

TEST(FaultEnvTest, ReadFaultsAndShortReads) {
  cce::testing::ScopedTestDir tmp;
  FaultInjectingEnv env(Env::Default());
  const std::string path = tmp.File("fault_read.bin");
  {
    auto file = env.NewTruncatedFile(path);
    CCE_CHECK_OK(file.status());
    CCE_CHECK_OK((*file)->Append("0123456789"));
    CCE_CHECK_OK((*file)->Close());
  }
  std::string content;
  env.FailNextRead();
  EXPECT_EQ(env.ReadFileToString(path, &content).code(),
            StatusCode::kIoError);
  env.ShortenNextRead(/*drop_bytes=*/4);
  CCE_CHECK_OK(env.ReadFileToString(path, &content));
  EXPECT_EQ(content, "012345") << "a short read drops the suffix";
  CCE_CHECK_OK(env.ReadFileToString(path, &content));
  EXPECT_EQ(content, "0123456789");
  EXPECT_EQ(env.stats().read_errors, 1u);
  EXPECT_EQ(env.stats().short_reads, 1u);
}

TEST(FaultEnvTest, DisabledEnvPassesEverythingThrough) {
  cce::testing::ScopedTestDir tmp;
  FaultInjectingEnv env(Env::Default());
  env.FailNextAppend();
  env.FailNextSync();
  env.set_enabled(false);
  const std::string path = tmp.File("fault_disabled.bin");
  auto file = env.NewTruncatedFile(path);
  CCE_CHECK_OK(file.status());
  CCE_CHECK_OK((*file)->Append("clean"));
  CCE_CHECK_OK((*file)->Sync());
  CCE_CHECK_OK((*file)->Close());
}

TEST(FaultEnvTest, SeededProbabilisticScheduleIsDeterministic) {
  cce::testing::ScopedTestDir tmp;
  // Two envs with the same seed must fail the same operations — the crash
  // torture suite depends on reproducible schedules.
  FaultInjectingEnv::Options options;
  options.seed = 1234;
  options.write_error_probability = 0.3;
  std::vector<bool> first, second;
  for (int run = 0; run < 2; ++run) {
    FaultInjectingEnv env(Env::Default(), options);
    const std::string path = tmp.File("fault_seeded.bin");
    std::remove(path.c_str());
    auto file = env.NewTruncatedFile(path);
    CCE_CHECK_OK(file.status());
    std::vector<bool>& outcomes = run == 0 ? first : second;
    for (int i = 0; i < 50; ++i) {
      outcomes.push_back((*file)->Append("x").ok());
    }
    (void)(*file)->Close();
    std::remove(path.c_str());
  }
  EXPECT_EQ(first, second);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0)
      << "p=0.3 over 50 appends should fail at least once";
}

}  // namespace
}  // namespace cce::io
