/**
 * @file
 * JSON emission and parsing tests. Emission: jsonNumber must be
 * locale-independent (the historical %g/sscanf implementation honored
 * LC_NUMERIC, so a comma-decimal locale produced "0,25" — invalid
 * JSON) and shortest-round-trip. Parsing: the strict parser behind the
 * result cache and checkpoint manifests — including 64-bit integer
 * fidelity through the raw literal. Robustness: seeded byte-flipped,
 * truncated and spliced mutants of every JSON input read back from
 * disk (any text, checkpoint manifests, result-cache shards) must be
 * parsed, rejected, dropped or recomputed — never crash (the
 * asan-ubsan build runs these too).
 */

#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "exp/checkpoint.hh"
#include "exp/json.hh"
#include "exp/jsonl_read.hh"
#include "exp/result_cache.hh"
#include "support/temp_path.hh"

namespace dbsim::exp {
namespace {

TEST(JsonNumber, ShortestRoundTripForms)
{
    EXPECT_EQ(jsonNumber(0.25), "0.25");
    EXPECT_EQ(jsonNumber(3.0), "3");
    EXPECT_EQ(jsonNumber(-0.5), "-0.5");
    EXPECT_EQ(jsonNumber(0.1), "0.1");
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(std::uint64_t(18446744073709551615ull)),
              "18446744073709551615");
}

TEST(JsonNumber, NonFiniteBecomesNull)
{
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::quiet_NaN()),
              "null");
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(jsonNumber(-std::numeric_limits<double>::infinity()),
              "null");
}

TEST(JsonNumber, EveryDoubleRoundTripsExactly)
{
    for (double v : {0.25, 1.0 / 3.0, 6.02214076e23, 5e-324,
                     1.7976931348623157e308, -123.456789}) {
        JsonValue parsed;
        ASSERT_TRUE(parseJson(jsonNumber(v), parsed)) << jsonNumber(v);
        ASSERT_TRUE(parsed.isNumber());
        EXPECT_EQ(parsed.number, v) << jsonNumber(v);
    }
}

// Regression: the old "%g"-based formatter honored LC_NUMERIC. Under a
// comma-decimal locale every fractional metric serialized as "0,25" —
// a syntax error for any JSON consumer — and sscanf-based readback
// misparsed dot-decimal files. std::to_chars/from_chars never consult
// the locale.
TEST(JsonNumber, IgnoresCommaDecimalLocale)
{
    const char *old = std::setlocale(LC_NUMERIC, nullptr);
    std::string saved = old ? old : "C";
    const char *set = std::setlocale(LC_NUMERIC, "de_DE.UTF-8");
    if (!set) {
        set = std::setlocale(LC_NUMERIC, "de_DE");
    }
    if (!set) {
        GTEST_SKIP() << "no comma-decimal locale available";
    }

    std::string formatted = jsonNumber(0.25);
    JsonValue parsed;
    bool ok = parseJson("0.25", parsed);
    std::setlocale(LC_NUMERIC, saved.c_str());

    EXPECT_EQ(formatted, "0.25");
    ASSERT_TRUE(ok);
    EXPECT_EQ(parsed.number, 0.25);
}

TEST(JsonString, EscapesControlCharactersAndQuotes)
{
    EXPECT_EQ(jsonString("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
}

TEST(JsonParse, ObjectsKeepMemberOrder)
{
    JsonValue v;
    ASSERT_TRUE(parseJson(R"({"b":1,"a":{"x":[1,2,3]},"c":"s"})", v));
    ASSERT_TRUE(v.isObject());
    ASSERT_EQ(v.members.size(), 3u);
    EXPECT_EQ(v.members[0].first, "b");
    EXPECT_EQ(v.members[1].first, "a");
    EXPECT_EQ(v.members[2].first, "c");
    const JsonValue *a = v.find("a");
    ASSERT_NE(a, nullptr);
    const JsonValue *x = a->find("x");
    ASSERT_NE(x, nullptr);
    ASSERT_TRUE(x->isArray());
    ASSERT_EQ(x->elements.size(), 3u);
    EXPECT_EQ(x->elements[2].number, 3.0);
}

TEST(JsonParse, StringEscapesDecode)
{
    JsonValue v;
    ASSERT_TRUE(parseJson(R"("a\nb\tAé")", v));
    EXPECT_EQ(v.text, "a\nb\tA\xc3\xa9");

    // Surrogate pair: U+1F600.
    ASSERT_TRUE(parseJson(R"("😀")", v));
    EXPECT_EQ(v.text, "\xf0\x9f\x98\x80");
}

TEST(JsonParse, U64FidelityThroughRawLiteral)
{
    JsonValue v;
    ASSERT_TRUE(parseJson("{\"s\":18446744073709551615}", v));
    std::uint64_t out = 0;
    ASSERT_TRUE(v.find("s")->asU64(out));
    // 2^64-1 is not representable in a double; the raw literal is.
    EXPECT_EQ(out, 18446744073709551615ull);

    ASSERT_TRUE(parseJson("1.5", v));
    EXPECT_FALSE(v.asU64(out));
    ASSERT_TRUE(parseJson("-3", v));
    EXPECT_FALSE(v.asU64(out));
}

TEST(JsonParse, StrictnessRejections)
{
    JsonValue v;
    EXPECT_FALSE(parseJson("", v));
    EXPECT_FALSE(parseJson("{} trailing", v));
    EXPECT_FALSE(parseJson("{\"a\":1,}", v));
    EXPECT_FALSE(parseJson("[1,2,]", v));
    EXPECT_FALSE(parseJson("NaN", v));
    EXPECT_FALSE(parseJson("Infinity", v));
    EXPECT_FALSE(parseJson("{'a':1}", v));
    EXPECT_FALSE(parseJson("01", v));
    EXPECT_FALSE(parseJson("1.", v));
    EXPECT_FALSE(parseJson("+1", v));
    EXPECT_FALSE(parseJson("\"unterminated", v));
    EXPECT_FALSE(parseJson("{\"a\"}", v));
    EXPECT_FALSE(parseJson("tru", v));

    std::string err;
    EXPECT_FALSE(parseJson("[1,", v, &err));
    EXPECT_FALSE(err.empty());
}

TEST(JsonParse, DepthCapStopsRunawayNesting)
{
    std::string deep(100, '[');
    deep += std::string(100, ']');
    JsonValue v;
    EXPECT_FALSE(parseJson(deep, v));

    std::string ok(32, '[');
    ok += std::string(32, ']');
    EXPECT_TRUE(parseJson(ok, v));
}

TEST(JsonParse, HugeAndTinyMagnitudesClampSanely)
{
    JsonValue v;
    ASSERT_TRUE(parseJson("1e-999", v));
    EXPECT_EQ(v.number, 0.0);
    ASSERT_TRUE(parseJson("1e999", v));
    EXPECT_TRUE(std::isinf(v.number));
    ASSERT_TRUE(parseJson("-1e999", v));
    EXPECT_TRUE(std::isinf(v.number));
    EXPECT_LT(v.number, 0.0);
}

// -- Seeded-mutation robustness ---------------------------------------

/** 1-4 flipped bits, a truncation, or text's prefix + donor's suffix. */
std::string
mutate(const std::string &text, const std::string &donor, Rng &rng)
{
    std::string m = text;
    switch (rng.below(3)) {
      case 0:
        for (std::uint64_t n = 1 + rng.below(4); n > 0; --n) {
            m[rng.below(m.size())] ^= static_cast<char>(1 << rng.below(8));
        }
        return m;
      case 1:
        return m.substr(0, rng.below(m.size() + 1));
      default:
        return m.substr(0, rng.below(m.size() + 1)) +
               donor.substr(rng.below(donor.size() + 1));
    }
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/** A record line carrying every field kind the readers load. */
std::string
recordLine(std::size_t index)
{
    PointRecord rec;
    rec.index = index;
    rec.mechanism = "DBI+AWB";
    rec.tags["alpha"] = "0.25";
    rec.metrics["ipc0"] = 0.5;
    rec.metrics["nan"] = std::numeric_limits<double>::quiet_NaN();
    rec.stats["llc.reads"] = 18446744073709551615ull - index;
    return rec.toJsonLine();
}

TEST(JsonMutation, ParserAcceptsOrRejectsEveryMutant)
{
    const std::vector<std::string> corpus = {
        recordLine(3),
        R"({"farm":"farm-v1","spec":"0123456789abcdef"})",
        R"({"s":"a\"b\\c\né😀","n":[-0.5,1e999,)"
        R"(18446744073709551615,true,false,null],"o":{"":[[{}]]}})",
    };
    Rng rng(0xd1b);
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < 3000; ++i) {
        JsonValue v;
        std::string err;
        if (parseJson(mutate(corpus[i % 3], corpus[rng.below(3)], rng), v,
                      &err)) {
            ++accepted;
            PointRecord rec;  // the loader both file readers share
            (void)pointRecordFromJson(v, rec);
        } else {
            EXPECT_FALSE(err.empty());
        }
    }
    EXPECT_GT(accepted, 100u);  // mutants reach past the first byte
    EXPECT_LT(accepted, 2900u);
}

TEST(JsonMutation, ManifestMutantsResumeOnlyVerbatimPoints)
{
    const std::string jsonl = test::tempPath("dbsim_mutation.jsonl");
    const std::string manifest = jsonl + ".manifest";
    {
        CheckpointSink sink(jsonl, "0123456789abcdef", false);
        for (std::size_t p = 0; p < 4; ++p) {
            sink.append(p, recordLine(p));
        }
    }
    const std::string files[2] = {slurp(manifest), slurp(jsonl)};
    Rng rng(0xc4e);
    std::size_t resumed = 0;
    for (std::size_t i = 0; i < 400; ++i) {
        // Mutate the manifest, the JSONL or both, splicing either with
        // either file.
        std::uint64_t which = rng.below(3);
        spit(manifest, which == 1 ? files[0]
                                  : mutate(files[0], files[rng.below(2)],
                                           rng));
        spit(jsonl, which == 0 ? files[1]
                               : mutate(files[1], files[rng.below(2)],
                                        rng));
        CheckpointSink sink(jsonl, "0123456789abcdef", true);
        resumed += sink.resumedCount();
        for (std::size_t p = 0; p < 4; ++p) {
            if (sink.isDone(p)) {  // restored verbatim or not at all
                EXPECT_EQ(*sink.rawLine(p), recordLine(p));
                EXPECT_EQ(sink.record(p)->index, p);
            }
        }
    }
    EXPECT_GT(resumed, 0u);
    EXPECT_LT(resumed, 4u * 400);
    std::remove(jsonl.c_str());
    std::remove(manifest.c_str());
}

TEST(JsonMutation, CacheShardMutantsLoadOrDropEntries)
{
    const std::string dir = test::tempPath("dbsim_mutation_cache");
    std::filesystem::remove_all(dir);
    auto canon = [](std::size_t p) { return "point=" + std::to_string(p); };
    PointRecord rec;
    rec.metrics["ipc0"] = 0.5;
    {
        ResultCache cache(dir);
        for (std::size_t p = 0; p < 8; ++p) {
            cache.insert(fnv1a64(canon(p)), canon(p), rec);
        }
    }
    // index.json and the shard files; splicing one file onto another
    // also misplaces entries into the wrong shard.
    std::map<std::string, std::string> good;
    std::vector<std::string> targets;
    for (const auto &f : std::filesystem::directory_iterator(dir)) {
        good[f.path()] = slurp(f.path());
        if (!good[f.path()].empty()) {
            targets.push_back(f.path());
        }
    }
    auto restore = [&] {
        for (const auto &[path, bytes] : good) {
            spit(path, bytes);
        }
    };
    // Every hit must serve exactly what was inserted: a payload
    // corrupted into other valid JSON must be a miss.
    std::size_t hits = 0;
    auto lookupAll = [&](ResultCache &cache) {
        for (std::size_t p = 0; p < 8; ++p) {
            PointRecord out;
            if (cache.lookup(fnv1a64(canon(p)), canon(p), out)) {
                ++hits;
                EXPECT_EQ(out.metrics, rec.metrics) << "point " << p;
                EXPECT_EQ(out.stats, rec.stats) << "point " << p;
                EXPECT_EQ(out.mechanism, rec.mechanism) << "point " << p;
                EXPECT_EQ(out.mix, rec.mix) << "point " << p;
            }
        }
    };
    Rng rng(0xcac4e);
    for (std::size_t i = 0; i < 300; ++i) {
        restore();
        const std::string &t = targets[rng.below(targets.size())];
        spit(t, mutate(good[t], good[targets[rng.below(targets.size())]],
                       rng));
        ResultCache cache(dir);
        EXPECT_LE(cache.entryCount(), 8u);
        lookupAll(cache);
    }
    EXPECT_GT(hits, 0u);
    EXPECT_LT(hits, 8u * 300);

    // Random byte mutants seldom change a payload and leave the line
    // valid. A digit edit after the canon always does: the key still
    // hashes the canon, so only the payload checksum can catch it.
    Rng digits(0xd1617);
    for (std::size_t i = 0; i < 100; ++i) {
        restore();
        const std::string &t = targets[digits.below(targets.size())];
        std::string m = good[t];
        std::vector<std::size_t> at;
        for (std::size_t c = m.find("\"mechanism\""); c < m.size(); ++c) {
            if (m[c] >= '0' && m[c] <= '9') {
                at.push_back(c);
            }
        }
        if (at.empty()) {
            continue;  // index.json
        }
        char &d = m[at[digits.below(at.size())]];
        d = static_cast<char>('0' + (d - '0' + 1 + digits.below(9)) % 10);
        spit(t, m);
        ResultCache cache(dir);
        EXPECT_EQ(cache.entryCount(), 7u) << m;
        lookupAll(cache);
    }
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace dbsim::exp
