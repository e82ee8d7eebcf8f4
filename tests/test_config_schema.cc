/**
 * @file
 * The schema-registered configuration API (common/schema.hh):
 * unknown-key suggestions, range/enum/pow2 rejection, retired
 * spellings, effective-config dump stability, random
 * valid-config sampling, and the schema-aware checkpoint cfg-section
 * compatibility contract (cosmetic changes restore; execution-
 * relevant changes refuse naming the parameter).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/schema.hh"
#include "sim/controller.hh"
#include "snapshot/io.hh"
#include "workloads/synth.hh"

using namespace darco;

namespace
{

/** A small deterministic workload for the checkpoint tests. */
guest::Program
workload()
{
    workloads::WorkloadParams p;
    p.name = "schema-wl";
    p.seed = 7;
    p.numBlocks = 32;
    p.outerIters = 200;
    p.loopFrac = 0.10;
    return workloads::synthesize(p);
}

std::string
fatalMessage(const Config &cfg)
{
    try {
        cfg.validate(conf::schema());
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

} // namespace

// ---------------------------------------------------------------------
// Declarations & lookup
// ---------------------------------------------------------------------

TEST(ConfigSchema, EveryParamHasHelpAndCanonicalDefault)
{
    const conf::ConfigSchema &s = conf::schema();
    EXPECT_GT(s.size(), 50u);
    for (const conf::ParamSpec *p : s.params()) {
        EXPECT_FALSE(p->help.empty()) << p->key;
        // The declared default must satisfy the spec's own checks.
        EXPECT_EQ(s.checkValue(*p, p->defaultString()), "") << p->key;
    }
}

TEST(ConfigSchema, AccessorsResolveDeclaredDefaults)
{
    Config empty;
    EXPECT_EQ(conf::getUint(empty, "tol.bb_threshold"), 10u);
    EXPECT_EQ(conf::getUint(empty, "cc.capacity_words"), 1u << 22);
    EXPECT_TRUE(conf::getBool(empty, "tol.chaining"));
    EXPECT_DOUBLE_EQ(conf::getFloat(empty, "tol.bias_threshold"), 0.85);
    EXPECT_EQ(conf::getEnum(empty, "cc.policy"), "evict");

    Config set;
    set.parseLine("tol.bb_threshold=4");
    set.parseLine("cc.policy=flush");
    EXPECT_EQ(conf::getUint(set, "tol.bb_threshold"), 4u);
    EXPECT_EQ(conf::getEnum(set, "cc.policy"), "flush");
}

TEST(ConfigSchema, UndeclaredKeyReadIsAnInternalError)
{
    Config empty;
    EXPECT_THROW(conf::getUint(empty, "tol.no_such_knob"), PanicError);
    // Type mismatch is a DARCO bug too, not a user error.
    EXPECT_THROW(conf::getBool(empty, "tol.bb_threshold"), PanicError);
}

// ---------------------------------------------------------------------
// Validation: unknown keys, ranges, enums
// ---------------------------------------------------------------------

TEST(ConfigSchema, MisspelledKeyGetsNearestMatchSuggestion)
{
    Config cfg;
    cfg.parseLine("tol.sb_treshold=64"); // the motivating typo
    std::string msg = fatalMessage(cfg);
    EXPECT_NE(msg.find("unknown config key 'tol.sb_treshold'"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("did you mean 'tol.sb_threshold'?"),
              std::string::npos)
        << msg;

    Config cfg2;
    cfg2.parseLine("cc.capacity_wrds=4096");
    std::string msg2 = fatalMessage(cfg2);
    EXPECT_NE(msg2.find("did you mean 'cc.capacity_words'?"),
              std::string::npos)
        << msg2;
}

TEST(ConfigSchema, GarbageKeyGetsNoSuggestion)
{
    Config cfg;
    cfg.parseLine("zzz.qqqqqq=1");
    std::string msg = fatalMessage(cfg);
    EXPECT_NE(msg.find("unknown config key"), std::string::npos);
    EXPECT_EQ(msg.find("did you mean"), std::string::npos) << msg;
}

TEST(ConfigSchema, RangeAndEnumViolationsAreRejected)
{
    {
        Config cfg;
        cfg.parseLine("tol.bias_threshold=1.5"); // range [0, 1]
        EXPECT_NE(fatalMessage(cfg).find("outside valid range"),
                  std::string::npos);
    }
    {
        Config cfg;
        cfg.parseLine("cc.capacity_words=0"); // below min
        EXPECT_NE(fatalMessage(cfg).find("outside valid range"),
                  std::string::npos);
    }
    {
        Config cfg;
        cfg.parseLine("cc.policy=bogus");
        std::string msg = fatalMessage(cfg);
        EXPECT_NE(msg.find("not in {evict, flush}"),
                  std::string::npos)
            << msg;
    }
    {
        Config cfg;
        cfg.parseLine("hemu.ibtc_entries=100"); // not a power of two
        EXPECT_NE(fatalMessage(cfg).find("power of two"),
                  std::string::npos);
    }
    {
        Config cfg;
        cfg.parseLine("tol.bb_threshold=-5"); // negative for uint
        EXPECT_NE(fatalMessage(cfg).find("malformed unsigned"),
                  std::string::npos);
    }
    {
        Config cfg;
        cfg.parseLine("seed= -5"); // strtoull would wrap " -5"
        EXPECT_NE(fatalMessage(cfg).find("malformed unsigned"),
                  std::string::npos);
    }
    {
        Config cfg;
        cfg.parseLine("bpred.history=33"); // wider than the u32 register
        EXPECT_NE(fatalMessage(cfg).find("outside valid range"),
                  std::string::npos);
    }
    {
        Config cfg;
        cfg.parseLine("tol.bias_threshold=nan"); // NaN beats < / >
        EXPECT_NE(fatalMessage(cfg).find("outside valid range"),
                  std::string::npos);
    }
    // Multiple problems are all reported at once.
    {
        Config cfg;
        cfg.parseLine("tol.sb_treshold=64");
        cfg.parseLine("cc.policy=bogus");
        std::string msg = fatalMessage(cfg);
        EXPECT_NE(msg.find("2 problems"), std::string::npos) << msg;
    }
}

TEST(ConfigSchema, ControllerConstructionValidates)
{
    Config cfg;
    cfg.parseLine("tol.sb_treshold=64");
    try {
        sim::Controller ctl(cfg);
        FAIL() << "Controller accepted a misspelled key";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what())
                      .find("did you mean 'tol.sb_threshold'?"),
                  std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------------------
// Retired spellings and values
// ---------------------------------------------------------------------

TEST(ConfigSchema, RetiredKeysAreUnknown)
{
    // Each parameter has one spelling: the old aliases, and the keys
    // that became constants, fail like any typo.
    for (const std::string key :
         {"tol.basicblock_threshold", "tol.superblock_threshold",
          "cc.capacity", "sync.validate_memory", "hemu.local_mem_bytes",
          "verify.concretize", "verify.witness", "verify.paths"}) {
        Config cfg;
        cfg.parseLine(key + "=1");
        std::string msg = fatalMessage(cfg);
        EXPECT_NE(msg.find("unknown config key '" + key + "'"),
                  std::string::npos)
            << msg;
    }
}

TEST(ConfigSchema, VerifyIsABool)
{
    Config off;
    off.parseLine("tol.verify=off");
    EXPECT_EQ(fatalMessage(off), "");
    EXPECT_FALSE(conf::getBool(off, "tol.verify"));
    EXPECT_EQ(conf::schema().effective(off).at("tol.verify"), "false");

    for (const char *mode : {"install", "final"}) {
        Config cfg;
        cfg.parseLine(std::string("tol.verify=") + mode);
        std::string msg = fatalMessage(cfg);
        EXPECT_NE(msg.find("config key 'tol.verify' has non-boolean"),
                  std::string::npos)
            << msg;
    }
}

// ---------------------------------------------------------------------
// Effective config / dump stability
// ---------------------------------------------------------------------

TEST(ConfigSchema, EffectiveConfigIsCompleteAndStable)
{
    Config cfg;
    cfg.parseLine("tol.bb_threshold=0x20"); // hex spelling
    cfg.parseLine("tol.bias_threshold=.85");
    cfg.parseLine("tol.chaining=yes");

    auto eff = conf::schema().effective(cfg);
    EXPECT_EQ(eff.size(), conf::schema().size());
    // Canonical rendering, independent of the input spelling.
    EXPECT_EQ(eff.at("tol.bb_threshold"), "32");
    EXPECT_EQ(eff.at("tol.bias_threshold"), "0.85");
    EXPECT_EQ(eff.at("tol.chaining"), "true");
    // Unset parameters resolve to declared defaults.
    EXPECT_EQ(eff.at("tol.sb_threshold"), "50");
    EXPECT_EQ(eff.at("cc.policy"), "evict");

    // Equivalent spellings produce the identical dump.
    Config plain;
    plain.parseLine("tol.bb_threshold=32");
    plain.parseLine("tol.bias_threshold=0.85");
    plain.parseLine("tol.chaining=true");
    EXPECT_EQ(conf::schema().effective(plain), eff);

    // Explicitly setting a default equals leaving it unset.
    Config defaulted;
    defaulted.parseLine("tol.sb_threshold=50");
    EXPECT_EQ(conf::schema().effective(defaulted),
              conf::schema().effective(Config{}));
}

TEST(ConfigSchema, ExecutionRelevantSubsetsTheEffectiveConfig)
{
    auto exec = conf::schema().executionRelevant(Config{});
    EXPECT_TRUE(exec.count("tol.bb_threshold"));
    EXPECT_TRUE(exec.count("cc.capacity_words"));
    EXPECT_TRUE(exec.count("seed"));
    // Measurement/validation parameters never appear.
    EXPECT_FALSE(exec.count("sync.validate_end"));
    EXPECT_FALSE(exec.count("core.issue_width"));
    EXPECT_FALSE(exec.count("power.freq_ghz"));
    EXPECT_LT(exec.size(), conf::schema().size());
}

TEST(ConfigSchema, GeneratedReferenceCoversEveryParameter)
{
    std::string md = conf::schema().referenceMarkdown();
    for (const conf::ParamSpec *p : conf::schema().params())
        EXPECT_NE(md.find("`" + p->key + "`"), std::string::npos)
            << p->key;
    // Deterministic output.
    EXPECT_EQ(md, conf::schema().referenceMarkdown());
}

// ---------------------------------------------------------------------
// Random valid configs (darco_fuzz --rand-config)
// ---------------------------------------------------------------------

TEST(ConfigSchema, RandomOverridesAreValidAndDeterministic)
{
    for (u64 seed = 1; seed <= 32; ++seed) {
        std::vector<std::string> kvs =
            conf::schema().randomOverrides(seed);
        Config cfg(kvs);
        EXPECT_EQ(fatalMessage(cfg), "") << "seed " << seed;
        EXPECT_EQ(kvs, conf::schema().randomOverrides(seed));
    }
    // Different seeds draw different configs (overwhelmingly).
    EXPECT_NE(conf::schema().randomOverrides(1),
              conf::schema().randomOverrides(2));
}

// ---------------------------------------------------------------------
// Checkpoint cfg-section compatibility
// ---------------------------------------------------------------------

namespace
{

/** Save a checkpoint of a short run under `cfg`. */
std::string
checkpointUnder(const Config &cfg)
{
    sim::Controller ctl(cfg);
    ctl.load(workload());
    ctl.run(20'000);
    std::ostringstream os;
    ctl.saveCheckpoint(os);
    return os.str();
}

} // namespace

TEST(ConfigSchemaCheckpoint, CosmeticConfigChangeRestores)
{
    Config save;
    save.parseLine("tol.bb_threshold=4");
    std::string image = checkpointUnder(save);

    // Validation toggles and timing/power parameters are not
    // execution-relevant: the restore must succeed.
    Config restoreCfg;
    restoreCfg.parseLine("tol.bb_threshold=4");
    restoreCfg.parseLine("sync.validate_end=false");
    restoreCfg.parseLine("sync.validate_syscalls=false");
    restoreCfg.parseLine("core.issue_width=4");
    restoreCfg.parseLine("power.freq_ghz=3.5");
    sim::Controller ctl(restoreCfg);
    std::istringstream is(image);
    ctl.restoreCheckpoint(is);
    EXPECT_GT(ctl.tol().completedInsts(), 0u);

    // And the restored run still completes.
    ctl.run(~0ull);
    EXPECT_TRUE(ctl.finished());
}

TEST(ConfigSchemaCheckpoint, SpellingDifferencesRestore)
{
    Config save;
    save.parseLine("tol.bb_threshold=0x10");
    save.parseLine("tol.chaining=yes");
    std::string image = checkpointUnder(save);

    // Same effective config through different value spellings —
    // including an explicitly-set default.
    Config restoreCfg;
    restoreCfg.parseLine("tol.bb_threshold=16");
    restoreCfg.parseLine("tol.chaining=1");
    restoreCfg.parseLine("tol.sb_threshold=50"); // the default
    sim::Controller ctl(restoreCfg);
    std::istringstream is(image);
    EXPECT_NO_THROW(ctl.restoreCheckpoint(is));
}

TEST(ConfigSchemaCheckpoint, ExecutionRelevantChangeRefusesNamingParam)
{
    Config save;
    save.parseLine("tol.bb_threshold=4");
    std::string image = checkpointUnder(save);

    Config other;
    other.parseLine("tol.bb_threshold=32");
    sim::Controller ctl(other);
    std::istringstream is(image);
    try {
        ctl.restoreCheckpoint(is);
        FAIL() << "restore accepted an execution-relevant mismatch";
    } catch (const snapshot::SnapshotError &e) {
        std::string msg = e.what();
        // The refusal names the parameter and both values.
        EXPECT_NE(msg.find("tol.bb_threshold"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("'4'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("'32'"), std::string::npos) << msg;
    }
}

TEST(ConfigSchemaCheckpoint, DefaultedMismatchAlsoRefuses)
{
    // The saving side never set the key at all; the restoring side
    // sets it away from the default. Default-resolved comparison
    // still catches it.
    std::string image = checkpointUnder(Config{});

    Config other;
    other.parseLine("cc.capacity_words=4096");
    sim::Controller ctl(other);
    std::istringstream is(image);
    try {
        ctl.restoreCheckpoint(is);
        FAIL() << "restore accepted a defaulted mismatch";
    } catch (const snapshot::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("cc.capacity_words"),
                  std::string::npos)
            << e.what();
    }
}
