// The unified JSON/CSV escaping layer (src/obs/json.h) is what keeps
// every exporter — span JSONL, Chrome trace, run report, lineage,
// run-diff, timeline CSV — loss-free on hostile strings: task
// paths with quotes, Windows-path backslashes in bindings, control
// characters smuggled into template names, non-ASCII sequence ids.
#include <gtest/gtest.h>

#include <string>

#include "obs/json.h"

namespace biopera::obs {
namespace {

TEST(JsonEscapeTest, PassesPlainTextThrough) {
  EXPECT_EQ(JsonEscape("alignment[3]/fixed_pam"), "alignment[3]/fixed_pam");
  EXPECT_EQ(JsonQuote("node-07"), "\"node-07\"");
  EXPECT_EQ(JsonEscape(""), "");
}

TEST(JsonEscapeTest, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("C:\\darwin\\pam"), "C:\\\\darwin\\\\pam");
  EXPECT_EQ(JsonEscape("\\\""), "\\\\\\\"");
}

TEST(JsonEscapeTest, EscapesControlCharacters) {
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape("a\tb"), "a\\tb");
  EXPECT_EQ(JsonEscape("a\rb"), "a\\rb");
  // Other controls take the \u00XX form.
  EXPECT_EQ(JsonEscape(std::string("a\x01"
                                   "b")),
            "a\\u0001b");
  EXPECT_EQ(JsonEscape(std::string(1, '\0')), "\\u0000");
  EXPECT_EQ(JsonEscape("\x1f"), "\\u001f");
}

TEST(JsonEscapeTest, PassesNonAsciiBytesThrough) {
  // UTF-8 payloads (sequence names, operator annotations) survive
  // unmodified — JSON strings are UTF-8 already.
  EXPECT_EQ(JsonEscape("prote\xc3\xadna"), "prote\xc3\xadna");
  EXPECT_EQ(JsonEscape("\xe2\x9c\x93 done"), "\xe2\x9c\x93 done");
}

TEST(JsonEscapeTest, HostileStringsRoundTrip) {
  const std::string hostile[] = {
      "plain",
      "with \"quotes\" and \\backslashes\\",
      "newline\nand\ttab\rand\x01control\x1f",
      std::string("embedded\0null", 13),
      "non-ascii: prote\xc3\xadna \xe2\x9c\x93",
      "}]{[,:\"\\",
  };
  for (const std::string& s : hostile) {
    Result<std::string> back = JsonUnescape(JsonEscape(s));
    ASSERT_TRUE(back.ok()) << "unescape failed for: " << JsonEscape(s);
    EXPECT_EQ(*back, s);
  }
}

TEST(JsonEscapeTest, UnescapeRejectsMalformedInput) {
  EXPECT_FALSE(JsonUnescape("trailing\\").ok());
  EXPECT_FALSE(JsonUnescape("\\q").ok());
  EXPECT_FALSE(JsonUnescape("\\u12").ok());
  EXPECT_FALSE(JsonUnescape("\\uzzzz").ok());
}

TEST(JsonEscapeTest, CsvFieldQuotesOnlyWhenNeeded) {
  EXPECT_EQ(CsvField("plain"), "plain");
  EXPECT_EQ(CsvField("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvField("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvField("line\nbreak"), "\"line\nbreak\"");
}

TEST(JsonEscapeTest, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a test vectors: digests must stay stable across
  // platforms and releases, or old lineage exports stop matching new
  // ones for identical content.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
  EXPECT_NE(Fnv1a64("match-set-1"), Fnv1a64("match-set-2"));
}

}  // namespace
}  // namespace biopera::obs
