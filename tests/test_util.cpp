// Unit tests for src/util: strings, rng, cli, fileio, table, logging.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <set>

#include "util/cli.hpp"
#include "util/fileio.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace util = cnn2fpga::util;

// ---------------------------------------------------------------- strings

TEST(Strings, FormatBasic) {
  EXPECT_EQ(util::format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(util::format("%.2f", 1.5), "1.50");
  EXPECT_EQ(util::format("empty"), "empty");
}

TEST(Strings, SplitPreservesEmptyFields) {
  const auto parts = util::split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitNoDelimiter) {
  const auto parts = util::split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, Trim) {
  EXPECT_EQ(util::trim("  x y \t\n"), "x y");
  EXPECT_EQ(util::trim(""), "");
  EXPECT_EQ(util::trim("   "), "");
  EXPECT_EQ(util::trim("z"), "z");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(util::starts_with("cnn_vivado.tcl", "cnn_"));
  EXPECT_FALSE(util::starts_with("cnn", "cnn_"));
  EXPECT_TRUE(util::ends_with("cnn_vivado.tcl", ".tcl"));
  EXPECT_FALSE(util::ends_with(".tcl", "cnn.tcl"));
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(util::replace_all("a.b.c", ".", "::"), "a::b::c");
  EXPECT_EQ(util::replace_all("aaa", "aa", "b"), "ba");  // non-overlapping, left to right
  EXPECT_EQ(util::replace_all("x", "", "y"), "x");
}

TEST(Strings, Join) {
  EXPECT_EQ(util::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(util::join({}, ","), "");
  EXPECT_EQ(util::join({"only"}, ","), "only");
}

TEST(Strings, Indent) {
  EXPECT_EQ(util::indent("a\nb\n", 2), "  a\n  b\n");
  EXPECT_EQ(util::indent("", 2), "");
  EXPECT_EQ(util::indent("\n\n", 2), "\n\n");  // blank lines stay blank
}

TEST(Strings, HumanBytes) {
  EXPECT_EQ(util::human_bytes(512), "512 B");
  EXPECT_EQ(util::human_bytes(1536), "1.50 KiB");
  EXPECT_EQ(util::human_bytes(3u << 20), "3.00 MiB");
}

TEST(Strings, HumanSeconds) {
  EXPECT_EQ(util::human_seconds(0.53), "530.00 ms");
  EXPECT_EQ(util::human_seconds(2.8), "2.80 s");
  EXPECT_EQ(util::human_seconds(223.0), "223 s");
  EXPECT_EQ(util::human_seconds(2.5e-6), "2.50 us");
}

TEST(Strings, IsCIdentifier) {
  EXPECT_TRUE(util::is_c_identifier("cnn_core"));
  EXPECT_TRUE(util::is_c_identifier("_x1"));
  EXPECT_FALSE(util::is_c_identifier("1abc"));
  EXPECT_FALSE(util::is_c_identifier("a-b"));
  EXPECT_FALSE(util::is_c_identifier(""));
}

TEST(Strings, SanitizeIdentifier) {
  EXPECT_EQ(util::sanitize_identifier("usps test-1"), "usps_test_1");
  EXPECT_EQ(util::sanitize_identifier("1net"), "_1net");
  EXPECT_EQ(util::sanitize_identifier(""), "_");
  EXPECT_TRUE(util::is_c_identifier(util::sanitize_identifier("a b$c/9")));
}

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicPerSeed) {
  util::Rng a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    (void)c.next_u64();
  }
  util::Rng a2(7), c2(8);
  EXPECT_NE(a2.next_u64(), c2.next_u64());
}

TEST(Rng, DoubleInUnitInterval) {
  util::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRange) {
  util::Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, NextBelowBounds) {
  util::Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // every bucket hit over 2000 draws
}

TEST(Rng, NormalMoments) {
  util::Rng rng(4);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, NormalWithParams) {
  util::Rng rng(5);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

// ---------------------------------------------------------------- cli

TEST(Cli, ParsesFlagsValuesAndPositionals) {
  // Note: a bare `--flag` directly before a positional would greedily consume
  // it as the flag's value; use `--flag=true` or place flags last to be
  // unambiguous (documented CliArgs behaviour).
  const char* argv[] = {"prog", "--count", "5", "--name=net", "pos1", "pos2", "--verbose"};
  util::CliArgs args(7, argv);
  EXPECT_EQ(args.program(), "prog");
  EXPECT_EQ(args.get_int("count", 0), 5);
  EXPECT_EQ(args.get_string("name", ""), "net");
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_TRUE(args.get_bool("verbose", false));
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "pos1");
  EXPECT_EQ(args.names(), (std::vector<std::string>{"count", "name", "verbose"}));
}

TEST(Cli, Defaults) {
  const char* argv[] = {"prog"};
  util::CliArgs args(1, argv);
  EXPECT_EQ(args.get_int("missing", 42), 42);
  EXPECT_EQ(args.get_double("missing", 2.5), 2.5);
  EXPECT_FALSE(args.get_bool("missing", false));
  EXPECT_FALSE(args.get("missing").has_value());
}

TEST(Cli, ExplicitBooleanValues) {
  const char* argv[] = {"prog", "--a=false", "--b=true", "--c=0", "--d=yes"};
  util::CliArgs args(5, argv);
  EXPECT_FALSE(args.get_bool("a", true));
  EXPECT_TRUE(args.get_bool("b", false));
  EXPECT_FALSE(args.get_bool("c", true));
  EXPECT_TRUE(args.get_bool("d", false));
}

// ---------------------------------------------------------------- fileio

TEST(FileIo, RoundTrip) {
  const std::string dir = util::make_temp_dir("cnn2fpga-test");
  const std::string path = dir + "/file.txt";
  util::write_file(path, "hello\nworld");
  EXPECT_TRUE(util::file_exists(path));
  EXPECT_EQ(util::read_file(path), "hello\nworld");
  std::filesystem::remove_all(dir);
}

TEST(FileIo, BinaryRoundTrip) {
  const std::string dir = util::make_temp_dir("cnn2fpga-test");
  const std::string path = dir + "/file.bin";
  std::vector<std::uint8_t> bytes = {0, 255, 10, 13, 0, 42};
  util::write_file_bytes(path, bytes);
  EXPECT_EQ(util::read_file_bytes(path), bytes);
  std::filesystem::remove_all(dir);
}

TEST(FileIo, ReadMissingThrows) {
  EXPECT_THROW(util::read_file("/nonexistent/definitely/missing"), std::runtime_error);
}

TEST(FileIo, MakeDirsNested) {
  const std::string dir = util::make_temp_dir("cnn2fpga-test");
  util::make_dirs(dir + "/a/b/c");
  EXPECT_TRUE(std::filesystem::is_directory(dir + "/a/b/c"));
  util::make_dirs(dir + "/a/b/c");  // idempotent
  std::filesystem::remove_all(dir);
}

TEST(FileIo, TempDirsAreUnique) {
  const std::string a = util::make_temp_dir("cnn2fpga-test");
  const std::string b = util::make_temp_dir("cnn2fpga-test");
  EXPECT_NE(a, b);
  std::filesystem::remove_all(a);
  std::filesystem::remove_all(b);
}

// ---------------------------------------------------------------- table

TEST(Table, RendersAlignedCells) {
  util::Table t({"Test", "Speedup"});
  t.add_row({"Test 1", "1.18X"});
  t.add_row({"Test 4 (long name)", "11.5X"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| Test 1"), std::string::npos);
  EXPECT_NE(out.find("11.5X"), std::string::npos);
  // Every rendered line has equal width.
  const auto lines = util::split(out, '\n');
  std::size_t width = lines[0].size();
  for (const auto& line : lines) {
    if (!line.empty()) {
      EXPECT_EQ(line.size(), width);
    }
  }
}

TEST(Table, PadsShortRows) {
  util::Table t({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_NE(t.render().find("| 1 |"), std::string::npos);
}

TEST(Table, TsvOutput) {
  util::Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.render_tsv(), "a\tb\n1\t2\n");
}

// ---------------------------------------------------------------- logging

TEST(Logging, LevelParsing) {
  EXPECT_EQ(util::parse_log_level("debug"), util::LogLevel::kDebug);
  EXPECT_EQ(util::parse_log_level("WARN"), util::LogLevel::kWarn);
  EXPECT_EQ(util::parse_log_level("off"), util::LogLevel::kOff);
  EXPECT_EQ(util::parse_log_level("bogus"), util::LogLevel::kInfo);
}

TEST(Logging, ThresholdGates) {
  const auto saved = util::log_level();
  util::set_log_level(util::LogLevel::kError);
  EXPECT_EQ(util::log_level(), util::LogLevel::kError);
  // A below-threshold message must not crash and must be dropped silently.
  LOG_DEBUG("test") << "dropped " << 123;
  util::set_log_level(saved);
}
