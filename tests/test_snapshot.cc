/**
 * @file
 * Checkpoint/restore tests: round-trip determinism (save mid-run,
 * restore into a fresh Controller, finish — final architectural
 * state, memory image, exit code and retired-instruction/BB counts
 * must be bit-identical to an uninterrupted run) across the three
 * validation configs the differential fuzzer uses, plus container
 * rejection tests (magic, version, truncation, config mismatch).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "host/hemu.hh"
#include "sim/controller.hh"
#include "snapshot/io.hh"
#include "tol/async.hh"
#include "tol/profiler.hh"
#include "verify/verifier.hh"
#include "workloads/synth.hh"
#include "xemu/ref_component.hh"

using namespace darco;
using snapshot::SnapshotError;

namespace
{

guest::Program
workload()
{
    workloads::WorkloadParams p;
    p.name = "snapshot-wl";
    p.seed = 97;
    p.numBlocks = 40;
    p.outerIters = 260;
    p.fpFrac = 0.15;
    p.loopFrac = 0.10;
    p.indirectFrac = 0.03;
    return workloads::synthesize(p);
}

Config
makeCfg(const std::string &variant)
{
    // Fast promotion so the run exercises BBM/SBM within test budget.
    Config cfg({"tol.bb_threshold=4", "tol.sb_threshold=12",
                "tol.min_edge_total=8"});
    if (variant == "interp") {
        cfg.parseLine("tol.enable_bbm=false");
        cfg.parseLine("tol.enable_sbm=false");
    } else if (variant == "tinycc") {
        cfg.parseLine("cc.capacity_words=768");
        cfg.parseLine("cc.policy=evict");
        cfg.parseLine("tol.max_sb_insts=120");
    } else {
        EXPECT_EQ(variant, "fullopt");
    }
    return cfg;
}

/** Assert both reference memory images are bit-identical. */
void
expectSameMemory(xemu::RefComponent &a, xemu::RefComponent &b)
{
    auto pa = a.memory().residentPages();
    auto pb = b.memory().residentPages();
    ASSERT_EQ(pa, pb);
    for (GAddr page : pa) {
        ASSERT_EQ(std::memcmp(a.memory().page(page),
                              b.memory().page(page),
                              pageSizeBytes),
                  0)
            << "page 0x" << std::hex << page;
    }
}

void
roundTrip(const std::string &variant)
{
    guest::Program prog = workload();
    Config cfg = makeCfg(variant);

    // The uninterrupted run.
    sim::Controller full(cfg);
    full.load(prog);
    full.run();
    ASSERT_TRUE(full.finished());

    // Save at roughly 40% of the run (any budget: saveCheckpoint
    // quiesces to a region boundary when needed).
    u64 mid = full.tol().completedInsts() * 2 / 5;
    sim::Controller part(cfg);
    part.load(prog);
    part.run(mid);
    ASSERT_FALSE(part.finished());
    std::stringstream img;
    part.saveCheckpoint(img);

    // Restore into a fresh Controller (no load()) and finish.
    sim::Controller resumed(cfg);
    img.seekg(0);
    resumed.restoreCheckpoint(img);
    EXPECT_GE(resumed.tol().completedInsts(), mid);
    // Re-saving right after the restore yields the identical image:
    // the replay created no state the saved run lacked.
    std::stringstream again;
    resumed.saveCheckpoint(again);
    EXPECT_TRUE(again.str() == img.str());
    resumed.run();
    ASSERT_TRUE(resumed.finished());

    // Architectural results must be bit-identical.
    EXPECT_TRUE(resumed.tol().state() == full.tol().state())
        << full.tol().state().diff(resumed.tol().state());
    EXPECT_EQ(resumed.exitCode(), full.exitCode());
    EXPECT_EQ(resumed.tol().completedInsts(),
              full.tol().completedInsts());
    EXPECT_EQ(resumed.tol().completedBBs(), full.tol().completedBBs());
    expectSameMemory(resumed.ref(), full.ref());

    // Every emulated page must match the authoritative image.
    for (GAddr page : resumed.emulatedMemory().residentPages()) {
        ASSERT_EQ(std::memcmp(resumed.emulatedMemory().page(page),
                              full.ref().memory().page(page),
                              pageSizeBytes),
                  0)
            << "emulated page 0x" << std::hex << page;
    }

    // Mode accounting must still sum to the retired count.
    StatGroup &st = resumed.stats();
    EXPECT_EQ(st.value("tol.guest_im") + st.value("tol.guest_bbm") +
                  st.value("tol.guest_sbm"),
              resumed.tol().completedInsts());
    EXPECT_TRUE(resumed.registry().checkInvariants().empty());
}

} // namespace

TEST(SnapshotRoundTrip, Interp)
{
    roundTrip("interp");
}

TEST(SnapshotRoundTrip, Fullopt)
{
    roundTrip("fullopt");
}

TEST(SnapshotRoundTrip, TinyccEvictionStorm)
{
    roundTrip("tinycc");
}

// Translations restored from a checkpoint image carry their recorded
// construction recipes, so the symbolic verifier must be able to
// discharge them exactly like freshly built ones: both the full run
// and the save/restore run prove every translation.
TEST(SnapshotRoundTrip, RestoredTranslationsStillProve)
{
    guest::Program prog = workload();
    Config cfg = makeCfg("fullopt");
    cfg.parseLine("tol.verify=true");

    sim::Controller full(cfg);
    full.load(prog);
    full.run();
    ASSERT_TRUE(full.finished());
    full.tol().verifyFinal();
    const verify::VerifyReport &frep = full.tol().verifyReport();
    EXPECT_TRUE(frep.clean()) << frep.summary();
    EXPECT_GT(frep.proved, 0u);

    u64 mid = full.tol().completedInsts() * 2 / 5;
    sim::Controller part(cfg);
    part.load(prog);
    part.run(mid);
    ASSERT_FALSE(part.finished());
    std::stringstream img;
    part.saveCheckpoint(img);

    sim::Controller resumed(cfg);
    img.seekg(0);
    resumed.restoreCheckpoint(img);
    resumed.run();
    ASSERT_TRUE(resumed.finished());
    EXPECT_TRUE(resumed.tol().state() == full.tol().state());
    resumed.tol().verifyFinal();
    const verify::VerifyReport &rrep = resumed.tol().verifyReport();
    EXPECT_TRUE(rrep.clean()) << rrep.summary();
    EXPECT_GT(rrep.proved, 0u);
}

TEST(SnapshotRoundTrip, AsyncTranslationsInFlight)
{
    guest::Program prog = workload();
    Config cfg = makeCfg("fullopt");
    cfg.parseLine("tol.async.threads=2");
    cfg.parseLine("tol.async.vthreads=2");
    // Slow modeled translator: long completion windows, so a budget
    // boundary reliably lands with translations still in flight.
    cfg.parseLine("tol.async.rate=1");

    sim::Controller full(cfg);
    full.load(prog);
    full.run();
    ASSERT_TRUE(full.finished());

    // Advance in small steps until the queue is non-empty, then
    // checkpoint with translations in flight.
    sim::Controller part(cfg);
    part.load(prog);
    u64 budget = 0;
    while (!part.finished() && part.tol().asyncPending() == 0) {
        budget += 500;
        part.run(budget);
    }
    ASSERT_FALSE(part.finished());
    ASSERT_GT(part.tol().asyncPending(), 0u);
    std::stringstream img;
    part.saveCheckpoint(img);
    // saveCheckpoint quiesces (drains workers) but publishes nothing:
    // the jobs are still pending and must have been serialized.
    ASSERT_GT(part.tol().asyncPending(), 0u);

    sim::Controller resumed(cfg);
    img.seekg(0);
    resumed.restoreCheckpoint(img);
    EXPECT_EQ(resumed.tol().asyncPending(), part.tol().asyncPending());
    // Replayed publishes charge nothing: re-saving right away must not
    // add a counter (e.g. an inline-translation overhead category) the
    // async run never had.
    std::stringstream again;
    resumed.saveCheckpoint(again);
    EXPECT_TRUE(again.str() == img.str());
    resumed.run();
    ASSERT_TRUE(resumed.finished());

    EXPECT_TRUE(resumed.tol().state() == full.tol().state())
        << full.tol().state().diff(resumed.tol().state());
    EXPECT_EQ(resumed.exitCode(), full.exitCode());
    EXPECT_EQ(resumed.tol().completedInsts(),
              full.tol().completedInsts());
    EXPECT_EQ(resumed.tol().completedBBs(), full.tol().completedBBs());
    expectSameMemory(resumed.ref(), full.ref());
    EXPECT_TRUE(resumed.registry().checkInvariants().empty());
}

TEST(SnapshotRejection, AsyncJobsNeedAsyncPipeline)
{
    guest::Program prog = workload();
    Config cfg = makeCfg("fullopt");
    cfg.parseLine("tol.async.threads=2");
    cfg.parseLine("tol.async.rate=1");

    sim::Controller part(cfg);
    part.load(prog);
    u64 budget = 0;
    while (!part.finished() && part.tol().asyncPending() == 0) {
        budget += 500;
        part.run(budget);
    }
    ASSERT_GT(part.tol().asyncPending(), 0u);
    std::stringstream img;
    part.saveCheckpoint(img);

    // tol.async.threads is execution-relevant, so the schema-level
    // config compatibility check refuses the restore before the tol
    // section's own in-flight-jobs guard is ever reached.
    Config other = makeCfg("fullopt");
    sim::Controller ctl(other);
    img.seekg(0);
    EXPECT_THROW(ctl.restoreCheckpoint(img), SnapshotError);
}

TEST(SnapshotRoundTrip, RestoredStatsMatchSavePoint)
{
    guest::Program prog = workload();
    Config cfg = makeCfg("fullopt");

    sim::Controller part(cfg);
    part.load(prog);
    part.run(60'000);
    std::stringstream img;
    part.saveCheckpoint(img);

    // Right after restore, every counter reads exactly as saved (the
    // translation-replay charges must have been overwritten).
    sim::Controller resumed(cfg);
    img.seekg(0);
    resumed.restoreCheckpoint(img);
    for (const auto &[name, c] : part.stats().counters())
        EXPECT_EQ(resumed.stats().value(name), c.value()) << name;
    EXPECT_EQ(resumed.tol().completedInsts(),
              part.tol().completedInsts());
    EXPECT_TRUE(resumed.tol().state() == part.tol().state());
}

TEST(SnapshotRejection, BadMagic)
{
    std::stringstream ss("this is not a checkpoint at all........");
    sim::Controller ctl(Config{});
    EXPECT_THROW(ctl.restoreCheckpoint(ss), SnapshotError);
}

TEST(SnapshotRejection, EmptyStream)
{
    std::stringstream ss;
    sim::Controller ctl(Config{});
    EXPECT_THROW(ctl.restoreCheckpoint(ss), SnapshotError);
}

TEST(SnapshotRejection, WrongVersion)
{
    // Hand-build a header with a future version number.
    std::stringstream ss;
    u32 magic = snapshot::snapshotMagic;
    u32 version = snapshot::snapshotVersion + 41;
    ss.write(reinterpret_cast<const char *>(&magic), 4);
    ss.write(reinterpret_cast<const char *>(&version), 4);
    sim::Controller ctl(Config{});
    EXPECT_THROW(ctl.restoreCheckpoint(ss), SnapshotError);
}

TEST(SnapshotRejection, TruncatedImage)
{
    guest::Program prog = workload();
    Config cfg = makeCfg("interp");
    sim::Controller part(cfg);
    part.load(prog);
    part.run(20'000);
    std::stringstream img;
    part.saveCheckpoint(img);
    std::string bytes = img.str();

    std::stringstream cut(bytes.substr(0, bytes.size() / 2));
    sim::Controller ctl(cfg);
    EXPECT_THROW(ctl.restoreCheckpoint(cut), SnapshotError);
}

TEST(SnapshotRejection, ConfigMismatch)
{
    guest::Program prog = workload();
    Config cfg = makeCfg("fullopt");
    sim::Controller part(cfg);
    part.load(prog);
    part.run(20'000);
    std::stringstream img;
    part.saveCheckpoint(img);

    // Restoring under a different configuration is unsound (the
    // replayed translations depend on it) and must be refused.
    sim::Controller other(makeCfg("tinycc"));
    img.seekg(0);
    EXPECT_THROW(other.restoreCheckpoint(img), SnapshotError);
}

TEST(SnapshotRefOnly, RefComponentRoundTrip)
{
    guest::Program prog = workload();
    xemu::RefComponent a(1);
    a.load(prog);
    a.runUntilInstCount(50'000);

    std::stringstream img;
    {
        snapshot::Serializer s(img);
        s.beginSection("ref");
        a.save(s);
        s.endSection();
        s.finish();
    }

    xemu::RefComponent b(1);
    img.seekg(0);
    {
        snapshot::Deserializer d(img);
        d.expectSection("ref");
        b.restore(d);
        d.endSection();
    }
    EXPECT_EQ(b.instCount(), a.instCount());
    EXPECT_TRUE(b.state() == a.state());
    expectSameMemory(a, b);

    // Both must evolve identically from here (OS RNG/time included).
    a.runToCompletion();
    b.runToCompletion();
    EXPECT_TRUE(b.state() == a.state());
    EXPECT_EQ(b.exitCode(), a.exitCode());
    EXPECT_EQ(b.instCount(), a.instCount());
    EXPECT_EQ(b.os().output(), a.os().output());
}

// ---------------------------------------------------------------------
// Hostile-input hardening: lengths are validated against the actual
// stream before anything allocates or trusts them.
// ---------------------------------------------------------------------

namespace
{

/** A valid container header followed by `raw` body bytes. */
std::string
containerWith(const std::string &raw)
{
    std::string out;
    u32 magic = snapshot::snapshotMagic;
    u32 version = snapshot::snapshotVersion;
    out.append(reinterpret_cast<const char *>(&magic), 4);
    out.append(reinterpret_cast<const char *>(&version), 4);
    out += raw;
    return out;
}

std::string
le16(u16 v)
{
    char b[2] = {char(v & 0xff), char(v >> 8)};
    return std::string(b, 2);
}

std::string
le32(u32 v)
{
    std::string out;
    for (int i = 0; i < 4; ++i)
        out += char((v >> (8 * i)) & 0xff);
    return out;
}

std::string
le64(u64 v)
{
    std::string out;
    for (int i = 0; i < 8; ++i)
        out += char((v >> (8 * i)) & 0xff);
    return out;
}

/** One framed section holding `payload`, then the end marker. */
std::string
section(const std::string &name, const std::string &payload)
{
    return le16(u16(name.size())) + name + le64(payload.size()) +
           payload + le16(0);
}

} // namespace

TEST(SnapshotHostile, SectionLengthBeyondStreamIsRejectedUpFront)
{
    // A 30-byte input claiming a multi-gigabyte section: the
    // deserializer must reject the length against the stream size
    // instead of trusting it (readers size allocations from it).
    std::string body = le16(3);
    body += "mem";
    body += le64(3ull << 30);
    std::istringstream ss(containerWith(body));
    snapshot::Deserializer d(ss);
    try {
        d.nextSection();
        FAIL() << "oversized section length accepted";
    } catch (const SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("exceeds remaining"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SnapshotHostile, SectionLengthWithinStreamIsAccepted)
{
    // Sanity: the same shape with an honest length parses.
    std::string payload = "0123456789";
    std::string body = le16(3);
    body += "mem";
    body += le64(payload.size());
    body += payload;
    body += le16(0); // end marker
    std::istringstream ss(containerWith(body));
    snapshot::Deserializer d(ss);
    EXPECT_EQ(d.nextSection(), "mem");
    char buf[10];
    d.rbytes(buf, sizeof(buf));
    d.endSection();
    EXPECT_EQ(d.nextSection(), "");
}

TEST(SnapshotHostile, HugeSectionNameIsRejectedBeforeAllocation)
{
    // A name length of 0xffff must be refused by the cap, not
    // allocated and read.
    std::string body = le16(0xffff);
    body += "x"; // nowhere near 64 KiB of name follows
    std::istringstream ss(containerWith(body));
    snapshot::Deserializer d(ss);
    try {
        d.nextSection();
        FAIL() << "oversized section name accepted";
    } catch (const SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("name too long"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SnapshotHostile, SerializerRefusesOversizedSectionName)
{
    std::ostringstream os;
    snapshot::Serializer s(os);
    std::string huge(snapshot::maxSectionNameBytes + 1, 'n');
    EXPECT_THROW(s.beginSection(huge), SnapshotError);
    // The cap itself is fine.
    std::string max(snapshot::maxSectionNameBytes, 'n');
    s.beginSection(max);
    s.endSection();
    s.finish();
}

// A count read from the image must never size an allocation: with a
// step or BBV count of 2^50 the reader runs into the section bound and
// throws SnapshotError instead of reserving (bad_alloc, or an ASan
// allocation-size-too-big abort). A recipe with no steps describes no
// superblock and is refused too.
TEST(SnapshotHostile, RecipeStepCountIsValidated)
{
    for (u64 nsteps : {1ull << 50, 0ull}) {
        std::string payload;
        payload += std::string(2, '\0') + le32(0); // no trip
        payload += std::string(2, '\0') + le32(0); // no end
        payload += le64(nsteps);
        payload += le32(0x1000) + std::string(1, '\0'); // one step
        std::istringstream ss(containerWith(section("tol", payload)));
        snapshot::Deserializer d(ss);
        EXPECT_EQ(d.nextSection(), "tol");
        EXPECT_THROW(tol::readRecipe(d), SnapshotError) << nsteps;
    }
}

TEST(SnapshotHostile, BbvCountBeyondSectionIsRejected)
{
    std::string payload;
    payload += le64(0) + le64(0) + le32(0x4000); // no IM/slot state
    payload += le64(2048) + le64(0);             // interval, total
    payload += le64(1);                          // one closed interval
    payload += le64(0) + le64(0);                // its insts, overhead
    payload += le64(1ull << 50);                 // lying BBV count
    payload += le32(0x1000) + le64(1);           // one entry
    std::istringstream ss(containerWith(section("prof", payload)));
    snapshot::Deserializer d(ss);
    EXPECT_EQ(d.nextSection(), "prof");
    host::CodeCache cache(1 << 10);
    guest::PagedMemory mem;
    host::HostEmu emu(cache, mem);
    tol::Profiler prof(emu);
    EXPECT_THROW(prof.restore(d), SnapshotError);
}

TEST(SnapshotHostile, StringLengthBeyondSectionIsRejected)
{
    // Inside a well-framed section, a string claiming more bytes than
    // the section holds must fail the section-budget check, not
    // allocate.
    std::string payload = le64(1ull << 40); // absurd string length
    std::string body = le16(3);
    body += "str";
    body += le64(payload.size());
    body += payload;
    body += le16(0);
    std::istringstream ss(containerWith(body));
    snapshot::Deserializer d(ss);
    EXPECT_EQ(d.nextSection(), "str");
    EXPECT_THROW(d.rstr(), SnapshotError);
}
