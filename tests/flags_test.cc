// Tests for the table-driven flag parser every tool uses (util/flags.h).

#include "util/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace bbsmine {
namespace {

/// A flag table covering every destination type, as a tool declares it.
struct Tool {
  Tool() : flags("tool", "a test tool") {
    flags.String("out", &out, "output path", FlagSet::kRequired);
    flags.String("name", &name, "a name");
    flags.Unsigned("port", &port, "a port");
    flags.Unsigned("count", &count, "a count", 1, 100);
    flags.Unsigned("timeout-ms", &timeout_ms, "a timeout");
    flags.Double("minsup", &minsup, "a fraction",
                 {.min = 0, .max = 1, .min_exclusive = true});
    flags.Choice("algo", &algo, "a scheme", {"dfp", "sfs"});
    flags.Bool("json", &json, "a switch");
  }

  /// Parses `args` (argv[0] is the program) and returns the status.
  Status Parse(std::vector<const char*> args) {
    args.insert(args.begin(), "tool");
    return flags.Parse(static_cast<int>(args.size()), args.data(), 1);
  }

  FlagSet flags;
  std::string out;
  std::string name = "anon";
  uint16_t port = 7071;
  uint64_t count = 10;
  int timeout_ms = 5000;
  double minsup = 0.003;
  std::string algo = "dfp";
  bool json = false;
};

/// Asserts `status` failed and its message names `flag` and `text`.
void ExpectRejected(const Status& status, const std::string& flag,
                    const std::string& text) {
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(flag), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find(text), std::string::npos)
      << status.message();
}

TEST(FlagsTest, AcceptsBothSpellingsAndKeepsDefaults) {
  Tool tool;
  ASSERT_TRUE(tool.Parse({"--out", "a.json", "--port=80", "--minsup", "0.5",
                          "--timeout-ms=0", "--algo", "sfs", "--json"})
                  .ok());
  EXPECT_EQ(tool.out, "a.json");
  EXPECT_EQ(tool.port, 80);
  EXPECT_DOUBLE_EQ(tool.minsup, 0.5);
  EXPECT_EQ(tool.timeout_ms, 0);
  EXPECT_EQ(tool.algo, "sfs");
  EXPECT_TRUE(tool.json);
  EXPECT_EQ(tool.name, "anon");  // untouched flags keep their default
  EXPECT_EQ(tool.count, 10u);
  // The last of a repeated flag wins; "=" keeps the rest of the text.
  Tool again;
  ASSERT_TRUE(again.Parse({"--out=x", "--out=a=b", "--name="}).ok());
  EXPECT_EQ(again.out, "a=b");
  EXPECT_EQ(again.name, "");
}

TEST(FlagsTest, BoolTakesNoValue) {
  ExpectRejected(Tool().Parse({"--out", "x", "--json=true"}), "--json",
                 "true");
  // A bare word after a bool flag is a stray argument, not its value.
  ExpectRejected(Tool().Parse({"--out", "x", "--json", "true"}), "argument",
                 "true");
}

TEST(FlagsTest, RejectsUnknownFlagsAndPositionals) {
  ExpectRejected(Tool().Parse({"--out", "x", "--thread", "4"}), "--thread",
                 "unknown");
  ExpectRejected(Tool().Parse({"out"}), "argument", "out");
  ExpectRejected(Tool().Parse({"--"}), "argument", "--");
}

TEST(FlagsTest, RejectsMissingValue) {
  ExpectRejected(Tool().Parse({"--out", "x", "--port"}), "--port", "value");
  // A following flag is not taken as the value.
  ExpectRejected(Tool().Parse({"--name", "--out", "x"}), "--name", "value");
}

TEST(FlagsTest, RejectsMalformedNumbers) {
  ExpectRejected(Tool().Parse({"--out", "x", "--count", "64k"}), "--count",
                 "64k");
  ExpectRejected(Tool().Parse({"--out", "x", "--count", ""}), "--count",
                 "not an unsigned");
  ExpectRejected(Tool().Parse({"--out", "x", "--count", " 5"}), "--count",
                 " 5");
  ExpectRejected(Tool().Parse({"--out", "x", "--minsup", "abc"}), "--minsup",
                 "abc");
  ExpectRejected(Tool().Parse({"--out", "x", "--minsup", "nan"}), "--minsup",
                 "nan");
  ExpectRejected(Tool().Parse({"--out", "x", "--timeout-ms", "1.5"}),
                 "--timeout-ms", "1.5");
  ExpectRejected(Tool().Parse({"--out", "x", "--algo", "fast"}), "--algo",
                 "fast");
}

TEST(FlagsTest, RejectsSignOnUnsigned) {
  ExpectRejected(Tool().Parse({"--out", "x", "--port", "-1"}), "--port",
                 "-1");
  ExpectRejected(Tool().Parse({"--out", "x", "--port=+80"}), "--port", "+80");
  ExpectRejected(Tool().Parse({"--out", "x", "--timeout-ms", "-1"}),
                 "--timeout-ms", "-1");
}

TEST(FlagsTest, RejectsOverflowAndOutOfRange) {
  // Past uint64_t, and past the destination type (uint16_t).
  ExpectRejected(
      Tool().Parse({"--out", "x", "--count", "99999999999999999999999"}),
      "--count", "out of range");
  ExpectRejected(Tool().Parse({"--out", "x", "--port", "65536"}), "--port",
                 "[0, 65535]");
  ExpectRejected(Tool().Parse({"--out", "x", "--timeout-ms", "2147483648"}),
                 "--timeout-ms", "[0, 2147483647]");
  ExpectRejected(Tool().Parse({"--out", "x", "--count", "0"}), "--count",
                 "[1, 100]");
  ExpectRejected(Tool().Parse({"--out", "x", "--count", "101"}), "--count",
                 "101");
  ExpectRejected(Tool().Parse({"--out", "x", "--minsup", "0"}), "--minsup",
                 "(0, 1]");
  ExpectRejected(Tool().Parse({"--out", "x", "--minsup", "1.5"}), "--minsup",
                 "1.5");
  Tool edge;
  ASSERT_TRUE(
      edge.Parse({"--out", "x", "--port", "65535", "--count", "100",
                  "--minsup", "1"})
          .ok());
  EXPECT_EQ(edge.port, 65535);
}

TEST(FlagsTest, RequiredFlagAndWasSet) {
  ExpectRejected(Tool().Parse({"--port", "1"}), "--out", "missing");
  Tool tool;
  ASSERT_TRUE(tool.Parse({"--out", "x", "--minsup", "0.003"}).ok());
  // Set to its default value still counts as set; absent is not set.
  EXPECT_TRUE(tool.flags.WasSet("minsup"));
  EXPECT_TRUE(tool.flags.WasSet("out"));
  EXPECT_FALSE(tool.flags.WasSet("port"));
  EXPECT_FALSE(tool.flags.WasSet("no-such-flag"));
}

TEST(FlagsTest, HelpListsEveryFlagWithItsDefault) {
  Tool tool;
  ASSERT_TRUE(tool.Parse({"--out", "x", "--help", "--bogus"}).ok());
  EXPECT_TRUE(tool.flags.help_requested());
  Tool short_form;
  ASSERT_TRUE(short_form.Parse({"-h"}).ok());
  EXPECT_TRUE(short_form.flags.help_requested());

  const std::string help = tool.flags.Help();
  EXPECT_EQ(help.rfind("usage: tool", 0), 0u) << help;
  EXPECT_NE(help.find("a test tool"), std::string::npos);
  for (const char* expected :
       {"--out S", "required", "--name S", "default anon", "--port N",
        "default 7071", "--count N", "default 10; range [1, 100]",
        "--timeout-ms N  (default 5000)", "--minsup F",
        "default 0.003; range (0, 1]", "--algo dfp|sfs", "default dfp",
        "--json", "a switch"}) {
    EXPECT_NE(help.find(expected), std::string::npos)
        << "missing \"" << expected << "\" in:\n"
        << help;
  }
}

TEST(FlagsTest, ParseUnsignedTextIsStrict) {
  uint64_t v = 0;
  ASSERT_TRUE(ParseUnsignedText("65535", 1, 65535, &v).ok());
  EXPECT_EQ(v, 65535u);
  EXPECT_FALSE(ParseUnsignedText("80x", 1, 65535, &v).ok());
  EXPECT_FALSE(ParseUnsignedText("0", 1, 65535, &v).ok());
  EXPECT_FALSE(ParseUnsignedText("65536", 1, 65535, &v).ok());
  EXPECT_FALSE(ParseUnsignedText("", 0, 10, &v).ok());
  EXPECT_EQ(v, 65535u);  // failures leave the output alone
}

}  // namespace
}  // namespace bbsmine
