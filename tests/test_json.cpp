// Edge-case tests for src/common/json — the checkpoint journal's read side.
// A journal that survives kills, NFS copies and hand merges can present the
// parser with every kind of damage; each case here must yield a clean
// nullopt (the record re-runs) rather than a crash, a hang, or — worst — a
// silently wrong value. Focus areas: unterminated strings, trailing garbage
// after the root, exact u64 round-trips at the extremes, and deeply nested
// unknown fields riding through record decoding untouched.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/json.hpp"
#include "common/report.hpp"
#include "engine/checkpoint.hpp"

namespace gshe {
namespace {

// ---- unterminated strings ---------------------------------------------------

TEST(JsonEdge, UnterminatedStringsAreRejectedEverywhere) {
    // A kill mid-append truncates the line at an arbitrary byte — often
    // inside a string. Every truncation shape must fail cleanly.
    for (const char* bad : {
             "\"open",                    // bare unterminated string
             "\"ends with backslash\\",   // escape sequence cut in half
             "\"bad unicode \\u12",       // \u escape cut in half
             "{\"key",                    // unterminated object key
             "{\"key\":\"value",          // unterminated member value
             "[\"a\",\"b",                // unterminated array element
             "{\"a\":{\"b\":\"deep",      // nested unterminated
         })
        EXPECT_FALSE(json::parse(bad).has_value()) << bad;
}

TEST(JsonEdge, ControlCharactersInsideStringsAreRejected) {
    // Raw control bytes (a torn multi-line write) must not decode.
    EXPECT_FALSE(json::parse("\"a\nb\"").has_value());
    EXPECT_FALSE(json::parse("\"a\tb\"").has_value());
    EXPECT_TRUE(json::parse("\"a\\nb\"").has_value());  // escaped is fine
}

// ---- trailing garbage -------------------------------------------------------

TEST(JsonEdge, TrailingGarbageAfterTheRootIsRejected) {
    // Two journal lines glued together (lost newline) must not parse as
    // the first record alone — that would silently drop the second job.
    for (const char* bad : {
             "{\"a\":1}{\"b\":2}",        // two records, lost newline
             "{\"a\":1} {\"b\":2}",       // same with whitespace
             "{\"a\":1}x",                // stray byte
             "{\"a\":1}]",                // stray closer
             "[1,2]3",                    // number glued to array
             "true false",                // two scalars
             "1 2",
         })
        EXPECT_FALSE(json::parse(bad).has_value()) << bad;
    // Trailing whitespace alone is benign.
    EXPECT_TRUE(json::parse("{\"a\":1}  \n").has_value());
}

// ---- u64 extremes -----------------------------------------------------------

TEST(JsonEdge, U64MaxRoundTripsThroughWriterAndParser) {
    // UINT64_MAX is a real journal value (the "unlimited" conflict budget)
    // and does not fit a double; the raw-token design must carry it
    // exactly through a full write -> parse -> read cycle.
    JsonWriter w;
    w.begin_object();
    w.key("max");
    w.value(UINT64_MAX);
    w.key("above_i64");
    w.value(std::uint64_t{9223372036854775808ULL});  // INT64_MAX + 1
    w.key("zero");
    w.value(std::uint64_t{0});
    w.end_object();

    const auto v = json::parse(w.str());
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->find("max")->as_u64(), UINT64_MAX);
    EXPECT_EQ(v->find("above_i64")->as_u64(), 9223372036854775808ULL);
    EXPECT_EQ(v->find("zero")->as_u64(), 0u);
    // The same token read with the wrong signedness falls back, it does
    // not wrap: as_i64 cannot represent UINT64_MAX.
    EXPECT_EQ(v->find("max")->as_i64(-1), -1);
    // And a negative token never becomes a huge unsigned value.
    const auto neg = json::parse("{\"n\":-5}");
    ASSERT_TRUE(neg.has_value());
    EXPECT_EQ(neg->find("n")->as_u64(7), 7u) << "fallback, not wraparound";
    EXPECT_EQ(neg->find("n")->as_i64(), -5);
}

TEST(JsonEdge, IntegerReadsAcceptOnlyExactInRangeIntegers) {
    // A number token that is not exactly an integer of the requested type
    // reads as the fallback: no truncation at the first non-digit and no
    // saturation at the type's bound.
    const auto v = json::parse(
        "{\"half\":0.5,\"huge\":1e999,\"exp\":1e3,\"two64\":18446744073709551616,"
        "\"i64min_minus_1\":-9223372036854775809,\"neg\":-1,\"zero\":-0,"
        "\"str\":\"5\"}");
    ASSERT_TRUE(v.has_value());
    for (const char* key : {"half", "huge", "exp", "two64", "str"}) {
        EXPECT_EQ(v->find(key)->as_u64(7), 7u) << key;
        EXPECT_EQ(v->find(key)->as_i64(7), 7) << key;
        EXPECT_FALSE(v->find(key)->is_u64()) << key;
        EXPECT_FALSE(v->find(key)->is_i64()) << key;
    }
    EXPECT_EQ(v->find("i64min_minus_1")->as_i64(7), 7);
    EXPECT_FALSE(v->find("neg")->is_u64());
    EXPECT_TRUE(v->find("neg")->is_i64());
    EXPECT_EQ(v->find("zero")->as_i64(7), 0);
    EXPECT_EQ(v->find("half")->as_double(), 0.5);  // still a number
}

TEST(JsonEdge, I64MinRoundTrips) {
    JsonWriter w;
    w.begin_object();
    w.key("min");
    w.value(INT64_MIN);
    w.end_object();
    const auto v = json::parse(w.str());
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->find("min")->as_i64(), INT64_MIN);
}

TEST(JsonEdge, MalformedNumbersAreRejected) {
    for (const char* bad : {"-", "+1", "1.", ".5", "1e", "1e+", "0x10",
                            "--3", "1..2", "1ee3"})
        EXPECT_FALSE(json::parse(bad).has_value()) << bad;
    for (const char* good : {"-0", "0.0", "1e3", "1E-3", "-2.5e+10"})
        EXPECT_TRUE(json::parse(good).has_value()) << good;
}

// ---- deeply nested unknown fields -------------------------------------------

namespace {

std::string nested_object(int depth) {
    std::string open, close;
    for (int i = 0; i < depth; ++i) {
        open += "{\"d\":";
        close += "}";
    }
    return open + "1" + close;
}

}  // namespace

TEST(JsonEdge, DeeplyNestedUnknownFieldsRideThroughRecordDecoding) {
    // A future journal writer may attach arbitrarily structured metadata.
    // Today's decoder must skip a deep unknown subtree (within the parser's
    // recursion limit) without touching the fields it does know.
    using namespace gshe::engine;
    JobSpec spec;
    spec.circuit = "alpha";
    spec.seed = 3;
    JobResult result;
    result.index = 4;
    result.circuit = "alpha";
    const std::uint64_t key = checkpoint::job_key(1, 4, spec);
    std::string line = checkpoint::encode_record(key, spec, result);

    // 40 levels of unknown nesting inside the record root: decodable.
    const std::string deep = "\"future\":" + nested_object(40) + ",";
    line.insert(line.find("\"spec\""), deep);
    ASSERT_NE(json::parse(line), std::nullopt);
    const auto record = checkpoint::decode_record(line);
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->key, key);
    EXPECT_EQ(record->spec.circuit, "alpha");
    EXPECT_EQ(record->result.index, 4u);
}

TEST(JsonEdge, NestingBeyondTheDepthLimitFailsCleanly) {
    // 63 levels parse; beyond the limit fails instead of overflowing the
    // stack — whether or not the document is well-formed.
    EXPECT_TRUE(json::parse(nested_object(63)).has_value());
    EXPECT_FALSE(json::parse(nested_object(65)).has_value());
    EXPECT_FALSE(json::parse(std::string(5000, '[')).has_value());
}

TEST(JsonEdge, DuplicateKeysResolveToTheFirstOccurrence) {
    // find() takes the first member with the key: a (malformed) duplicate
    // cannot shadow the value the writer emitted first.
    const auto v = json::parse("{\"a\":1,\"a\":2}");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->find("a")->as_u64(), 1u);
}

TEST(JsonEdge, EmptyContainersAndWhitespaceForms) {
    EXPECT_TRUE(json::parse("{}").has_value());
    EXPECT_TRUE(json::parse("[]").has_value());
    EXPECT_TRUE(json::parse(" { \"a\" : [ ] } ").has_value());
    EXPECT_FALSE(json::parse("   ").has_value());
    EXPECT_FALSE(json::parse("{,}").has_value());
    EXPECT_FALSE(json::parse("[,]").has_value());
    EXPECT_FALSE(json::parse("{\"a\":1,}").has_value());
    EXPECT_FALSE(json::parse("[1,]").has_value());
}

}  // namespace
}  // namespace gshe
