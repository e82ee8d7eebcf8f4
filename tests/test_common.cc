/**
 * @file
 * Unit tests for the common substrate: config, stats, rng, bit utils.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/bitutil.hh"
#include "common/config.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/schema.hh"
#include "common/stats.hh"

using namespace darco;

// Config is a plain string map: every value is parsed once, by the
// type its key declares, through conf::get* or ConfigSchema::validate.

TEST(Config, ParseAndTypedGet)
{
    Config c({"tol.bb_threshold=1", "power.freq_ghz=2.5",
              "obs.trace.path=hello", "tol.chaining=true",
              "tol.sb_threshold=0x10"});
    EXPECT_EQ(conf::getUint(c, "tol.bb_threshold"), 1u);
    EXPECT_DOUBLE_EQ(conf::getFloat(c, "power.freq_ghz"), 2.5);
    EXPECT_EQ(conf::getString(c, "obs.trace.path"), "hello");
    EXPECT_TRUE(conf::getBool(c, "tol.chaining"));
    EXPECT_EQ(conf::getUint(c, "tol.sb_threshold"), 16u);
}

TEST(Config, DefaultsForMissingKeys)
{
    Config c;
    EXPECT_EQ(conf::getUint(c, "tol.bb_threshold"),
              conf::schema().get("tol.bb_threshold").defUint);
    EXPECT_EQ(c.getString("nope"), "");
    EXPECT_FALSE(c.has("nope"));
}

TEST(Config, MalformedValueIsFatal)
{
    Config c({"tol.bb_threshold=abc", "tol.chaining=abc",
              "power.freq_ghz=abc"});
    EXPECT_THROW(conf::getUint(c, "tol.bb_threshold"), FatalError);
    EXPECT_THROW(conf::getBool(c, "tol.chaining"), FatalError);
    EXPECT_THROW(conf::getFloat(c, "power.freq_ghz"), FatalError);
    EXPECT_THROW(conf::schema().validate(c), FatalError);
    EXPECT_THROW(Config({"noequals"}), FatalError);
}

TEST(Config, BoolSpellings)
{
    for (const char *v : {"true", "1", "yes", "on"}) {
        Config c({std::string("tol.chaining=") + v});
        EXPECT_TRUE(conf::getBool(c, "tol.chaining")) << v;
        EXPECT_NO_THROW(conf::schema().validate(c)) << v;
    }
    for (const char *v : {"false", "0", "no", "off"}) {
        Config c({std::string("tol.chaining=") + v});
        EXPECT_FALSE(conf::getBool(c, "tol.chaining")) << v;
        EXPECT_NO_THROW(conf::schema().validate(c)) << v;
    }
}

TEST(Stats, CounterLifecycle)
{
    StatGroup g("test");
    g.counter("a").inc();
    g.counter("a").inc(4);
    EXPECT_EQ(g.value("a"), 5u);
    EXPECT_EQ(g.value("missing"), 0u);
    g.resetAll();
    EXPECT_EQ(g.value("a"), 0u);
}

TEST(Stats, HistogramBuckets)
{
    StatGroup g("test");
    auto &h = g.histogram("h", {10, 100});
    h.sample(5);
    h.sample(50);
    h.sample(500);
    h.sample(10); // boundary: in first bucket
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.buckets()[0], 2u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[2], 1u);
    EXPECT_DOUBLE_EQ(h.mean(), (5 + 50 + 500 + 10) / 4.0);
}

TEST(Stats, DumpContainsEntries)
{
    StatGroup g("grp");
    g.counter("alpha").inc(7);
    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("alpha"), std::string::npos);
    EXPECT_NE(os.str().find("7"), std::string::npos);
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123), c(124);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool any_diff = false;
    Rng a2(123);
    for (int i = 0; i < 100; ++i)
        any_diff |= a2.next() != c.next();
    EXPECT_TRUE(any_diff);
}

TEST(Rng, RangeInclusive)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        u64 v = r.range(3, 9);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 9u);
    }
    EXPECT_EQ(r.range(5, 5), 5u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(99);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double v = r.uniform();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, WeightedRespectsWeights)
{
    Rng r(5);
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 30000; ++i)
        counts[r.weighted({1.0, 2.0, 7.0})]++;
    EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
    EXPECT_NEAR(counts[1] / 30000.0, 0.2, 0.02);
    EXPECT_NEAR(counts[2] / 30000.0, 0.7, 0.02);
}

TEST(BitUtil, ExtractInsert)
{
    EXPECT_EQ(bits(0xdeadbeef, 0, 8), 0xefu);
    EXPECT_EQ(bits(0xdeadbeef, 8, 8), 0xbeu);
    EXPECT_EQ(bits(0xffffffff, 0, 32), 0xffffffffu);
    u32 x = insertBits(0, 8, 8, 0xab);
    EXPECT_EQ(x, 0xab00u);
    x = insertBits(x, 0, 4, 0xf);
    EXPECT_EQ(x, 0xab0fu);
}

TEST(BitUtil, SignExtend)
{
    EXPECT_EQ(sext(0xff, 8), -1);
    EXPECT_EQ(sext(0x7f, 8), 127);
    EXPECT_EQ(sext(0x800, 12), -2048);
    EXPECT_EQ(sext(0x7ff, 12), 2047);
}

TEST(BitUtil, FitsSigned)
{
    EXPECT_TRUE(fitsSigned(2047, 12));
    EXPECT_FALSE(fitsSigned(2048, 12));
    EXPECT_TRUE(fitsSigned(-2048, 12));
    EXPECT_FALSE(fitsSigned(-2049, 12));
}

TEST(Logging, PanicAndFatalThrow)
{
    EXPECT_THROW(panic("x ", 1), PanicError);
    EXPECT_THROW(fatal("y"), FatalError);
    try {
        panic("value=", 42);
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("value=42"),
                  std::string::npos);
    }
}

TEST(Logging, AssertMacro)
{
    EXPECT_NO_THROW(darco_assert(1 + 1 == 2));
    EXPECT_THROW(darco_assert(1 == 2, "context"), PanicError);
}

// ---------------------------------------------------------------------
// Config parse hardening: strtoull silently wraps negative input, and
// an integer parser that ignores ERANGE clamps overflowed literals.
// ---------------------------------------------------------------------

TEST(ConfigParse, NegativeUnsignedIsRejectedNotWrapped)
{
    // strtoull alone would silently wrap this to 2^64-5.
    Config c({"seed=-5"});
    EXPECT_THROW(conf::getUint(c, "seed"), FatalError);
    EXPECT_THROW(conf::schema().validate(c), FatalError);
}

TEST(ConfigParse, OverflowedLiteralsAreRejectedNotClamped)
{
    Config c({"seed=99999999999999999999999999"});
    EXPECT_THROW(conf::getUint(c, "seed"), FatalError);
    EXPECT_THROW(conf::schema().validate(c), FatalError);
}

TEST(ConfigParse, BoundaryValuesStillParse)
{
    Config c({"seed=18446744073709551615"}); // 2^64-1
    EXPECT_EQ(conf::getUint(c, "seed"), ~0ull);
    c.parseLine("tol.bbv_interval=0x1000");
    EXPECT_EQ(conf::getUint(c, "tol.bbv_interval"), 4096u);
    EXPECT_NO_THROW(conf::schema().validate(c));
}
