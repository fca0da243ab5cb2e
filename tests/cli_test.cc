// FlagSet parser and antidote_cli commands (driven in process).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "base/error.h"
#include "base/flags.h"
#include "tools/cli.h"

namespace antidote {
namespace {

// --- FlagSet ---

TEST(Flags, TypedDefaultsAndParsing) {
  FlagSet flags("prog");
  flags.add_string("name", "dflt", "a string");
  flags.add_int("count", 3, "an int");
  flags.add_double("ratio", 0.5, "a double");
  flags.add_bool("verbose", false, "a bool");
  flags.add_float_list("drops", "", "ratios");

  EXPECT_EQ(flags.get_string("name"), "dflt");
  EXPECT_EQ(flags.get_int("count"), 3);

  const auto positional = flags.parse(
      {"pos1", "--name=abc", "--count", "7", "--verbose", "--ratio=0.25",
       "--drops=0.1,0.2,0.3", "pos2"});
  EXPECT_EQ(positional, (std::vector<std::string>{"pos1", "pos2"}));
  EXPECT_EQ(flags.get_string("name"), "abc");
  EXPECT_EQ(flags.get_int("count"), 7);
  EXPECT_DOUBLE_EQ(flags.get_double("ratio"), 0.25);
  EXPECT_TRUE(flags.get_bool("verbose"));
  EXPECT_EQ(flags.get_float_list("drops"),
            (std::vector<float>{0.1f, 0.2f, 0.3f}));
}

TEST(Flags, RejectsUnknownFlagAndBadValues) {
  FlagSet flags("prog");
  flags.add_int("n", 1, "");
  flags.add_bool("b", false, "");
  EXPECT_THROW(flags.parse({"--nope=1"}), Error);
  EXPECT_THROW(flags.parse({"--n=abc"}), Error);
  EXPECT_THROW(flags.parse({"--b=maybe"}), Error);
  EXPECT_THROW(flags.parse({"--n"}), Error);  // missing value
}

TEST(Flags, HelpFlagAndUsage) {
  FlagSet flags("prog");
  flags.add_int("n", 1, "the n flag");
  flags.parse({"--help"});
  EXPECT_TRUE(flags.help_requested());
  const std::string usage = flags.usage();
  EXPECT_NE(usage.find("--n"), std::string::npos);
  EXPECT_NE(usage.find("the n flag"), std::string::npos);
}

TEST(Flags, FloatListParsing) {
  EXPECT_TRUE(FlagSet::parse_float_list("").empty());
  EXPECT_EQ(FlagSet::parse_float_list("0.5"), (std::vector<float>{0.5f}));
  EXPECT_THROW(FlagSet::parse_float_list("0.1,abc"), Error);
  EXPECT_THROW(FlagSet::parse_float_list("0.1x,0.2"), Error);
}

TEST(Flags, TypeMismatchOnAccessThrows) {
  FlagSet flags("prog");
  flags.add_int("n", 1, "");
  EXPECT_THROW(flags.get_string("n"), Error);
  EXPECT_THROW(flags.get_int("missing"), Error);
}

// --- CLI commands ---

TEST(Cli, NoArgsPrintsUsageAndFails) {
  EXPECT_EQ(cli::run_cli({}), 1);
  EXPECT_EQ(cli::run_cli({"--help"}), 0);
  EXPECT_EQ(cli::run_cli({"frobnicate"}), 1);
}

TEST(Cli, SummaryRuns) {
  EXPECT_EQ(cli::run_cli({"summary", "--model=small_cnn"}), 0);
  EXPECT_EQ(cli::run_cli({"summary", "--help"}), 0);
  EXPECT_EQ(cli::run_cli({"summary", "--model=unknown_model"}), 1);
}

TEST(Cli, TrainEvalRoundTripThroughCheckpoint) {
  const std::string ckpt = ::testing::TempDir() + "/antidote_cli_test.ckpt";
  const std::vector<std::string> data_flags = {
      "--model=small_cnn", "--classes=3",   "--image-size=12",
      "--train-size=48",   "--test-size=24", "--batch=16"};

  std::vector<std::string> train = {"train", "--epochs=2", "--out=" + ckpt};
  train.insert(train.end(), data_flags.begin(), data_flags.end());
  ASSERT_EQ(cli::run_cli(train), 0);
  ASSERT_TRUE(std::filesystem::exists(ckpt));

  std::vector<std::string> eval = {"eval", "--ckpt=" + ckpt,
                                   "--channel-drop=0.5"};
  eval.insert(eval.end(), data_flags.begin(), data_flags.end());
  EXPECT_EQ(cli::run_cli(eval), 0);

  // Random-order pruning and broadcast ratios work too.
  std::vector<std::string> eval2 = {"eval", "--ckpt=" + ckpt,
                                    "--channel-drop=0.5", "--order=random"};
  eval2.insert(eval2.end(), data_flags.begin(), data_flags.end());
  EXPECT_EQ(cli::run_cli(eval2), 0);

  std::filesystem::remove(ckpt);
}

TEST(Cli, TtdAndSensitivityRun) {
  const std::string ckpt = ::testing::TempDir() + "/antidote_cli_ttd.ckpt";
  const std::vector<std::string> data_flags = {
      "--model=small_cnn", "--classes=3",   "--image-size=12",
      "--train-size=32",   "--test-size=16", "--batch=16"};

  std::vector<std::string> ttd = {"ttd",          "--channel-drop=0.4",
                                  "--warmup=0.2", "--step=0.2",
                                  "--epochs=1",   "--final-epochs=1",
                                  "--out=" + ckpt};
  ttd.insert(ttd.end(), data_flags.begin(), data_flags.end());
  ASSERT_EQ(cli::run_cli(ttd), 0);

  std::vector<std::string> sens = {"sensitivity", "--ckpt=" + ckpt,
                                   "--per-site"};
  sens.insert(sens.end(), data_flags.begin(), data_flags.end());
  EXPECT_EQ(cli::run_cli(sens), 0);
  std::filesystem::remove(ckpt);
}

TEST(Cli, EvalRequiresCheckpoint) {
  EXPECT_EQ(cli::run_cli({"eval", "--model=small_cnn"}), 1);
}

TEST(Cli, PlanDumpRuns) {
  EXPECT_EQ(cli::run_cli({"plan-dump", "--model=small_cnn"}), 0);
  // Gated dump: the op table carries the gate steps and mask metadata.
  EXPECT_EQ(cli::run_cli({"plan-dump", "--model=resnet20",
                          "--channel-drop=0.3", "--spatial-drop=0.2"}),
            0);
  EXPECT_EQ(cli::run_cli({"plan-dump", "--help"}), 0);
  EXPECT_EQ(cli::run_cli({"plan-dump", "--model=unknown_model"}), 1);
}

TEST(Cli, PlanDumpPrintsOpTableForAllModels) {
  // Exit code, the op-table header, per-op FLOPs lines and the arena
  // footprint, for each of the three model families.
  struct DumpCase {
    const char* model;
    const char* image_flag;
  };
  const DumpCase cases[] = {
      {"small_cnn", "--image-size=16"},
      {"resnet20", "--image-size=16"},
      {"vgg16", "--image-size=32"},
  };
  for (const DumpCase& c : cases) {
    ::testing::internal::CaptureStdout();
    ASSERT_EQ(cli::run_cli({"plan-dump", std::string("--model=") + c.model,
                            c.image_flag, "--width=0.25"}),
              0)
        << c.model;
    const std::string out = ::testing::internal::GetCapturedStdout();
    // Op-table header columns.
    EXPECT_NE(out.find("op"), std::string::npos) << c.model;
    EXPECT_NE(out.find("MACs/sample"), std::string::npos) << c.model;
    EXPECT_NE(out.find("ewma_ms"), std::string::npos) << c.model;
    EXPECT_NE(out.find("groups"), std::string::npos) << c.model;
    // Per-op rows: at least one fused conv line with a positive FLOPs
    // figure, plus the classifier head and the arena footprint.
    size_t conv_lines = 0;
    std::istringstream lines(out);
    for (std::string line; std::getline(lines, line);) {
      if (line.find(" conv ") == std::string::npos) continue;
      ++conv_lines;
      EXPECT_NE(line.find("+bn"), std::string::npos) << c.model << ": " << line;
      // The MACs column holds a non-zero integer on every conv row.
      EXPECT_NE(line.find_first_of("123456789"), std::string::npos)
          << c.model << ": " << line;
    }
    EXPECT_GT(conv_lines, 1u) << c.model;
    EXPECT_NE(out.find("linear"), std::string::npos) << c.model;
    EXPECT_NE(out.find("arena bytes"), std::string::npos) << c.model;
    EXPECT_NE(out.find("mask coarsening"), std::string::npos) << c.model;
  }
}

TEST(Cli, TraceWritesChromeJson) {
  const std::string out = ::testing::TempDir() + "/antidote_cli_trace.json";
  const std::vector<std::string> args = {
      "trace",           "--model=small_cnn", "--image-size=16",
      "--passes=2",      "--batch=4",         "--distinct=2",
      "--out=" + out};
#if ANTIDOTE_PROFILE
  ASSERT_EQ(cli::run_cli(args), 0);
  ASSERT_TRUE(std::filesystem::exists(out));
  std::ifstream in(out);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  std::filesystem::remove(out);
#else
  // Compiled-out builds must refuse with a clear error, not emit an
  // empty trace.
  EXPECT_EQ(cli::run_cli(args), 1);
  EXPECT_FALSE(std::filesystem::exists(out));
#endif
  EXPECT_EQ(cli::run_cli({"trace", "--help"}), 0);
}

TEST(Cli, PlanDumpProfileRuns) {
  const std::vector<std::string> args = {
      "plan-dump", "--model=small_cnn", "--image-size=16", "--profile",
      "--passes=2", "--batch=4", "--distinct=2"};
#if ANTIDOTE_PROFILE
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(cli::run_cli(args), 0);
  const std::string out = ::testing::internal::GetCapturedStdout();
  // The plan table is still printed, followed by the profile report.
  EXPECT_NE(out.find("arena bytes"), std::string::npos);
  EXPECT_NE(out.find("profile:"), std::string::npos);
  EXPECT_NE(out.find("phase"), std::string::npos);
  EXPECT_NE(out.find("gemm"), std::string::npos);
#else
  EXPECT_EQ(cli::run_cli(args), 1);
#endif
}

TEST(Cli, BadRatioCountFails) {
  const std::string ckpt = ::testing::TempDir() + "/antidote_cli_bad.ckpt";
  ASSERT_EQ(cli::run_cli({"train", "--model=small_cnn", "--classes=2",
                          "--image-size=12", "--train-size=16",
                          "--test-size=8", "--epochs=1", "--out=" + ckpt}),
            0);
  // small_cnn has 2 blocks; 3 ratio entries must be rejected.
  EXPECT_EQ(cli::run_cli({"eval", "--ckpt=" + ckpt, "--model=small_cnn",
                          "--classes=2", "--image-size=12",
                          "--train-size=16", "--test-size=8",
                          "--channel-drop=0.1,0.2,0.3"}),
            1);
  std::filesystem::remove(ckpt);
}

TEST(Cli, OutOfRangeTileFails) {
  // Widths past INT_MAX must not wrap in the int cast: 2^32 + 1 would plan
  // a one-column tile, 2^31 a negative width that runs untiled.
  for (const char* tile :
       {"4294967297", "2147483648", "99999999999999999999", "0", "-3"}) {
    EXPECT_EQ(cli::run_cli({"plan-dump", "--model=small_cnn",
                            "--image-size=16",
                            std::string("--tile=") + tile}),
              1)
        << tile;
  }
  EXPECT_EQ(cli::run_cli({"plan-dump", "--model=small_cnn", "--image-size=16",
                          "--tile=2147483647"}),
            0);
}

}  // namespace
}  // namespace antidote
