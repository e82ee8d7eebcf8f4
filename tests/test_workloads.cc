/**
 * @file
 * Workload-generator tests: determinism, termination, knob response,
 * and suite sanity.
 */

#include <gtest/gtest.h>

#include "workloads/suite.hh"
#include "xemu/ref_component.hh"

using namespace darco;
using namespace darco::workloads;
using darco::xemu::RefComponent;

TEST(Workloads, DeterministicForSeed)
{
    WorkloadParams p;
    p.seed = 42;
    p.outerIters = 50;
    guest::Program a = synthesize(p);
    guest::Program b = synthesize(p);
    EXPECT_EQ(a.code, b.code);
    EXPECT_EQ(a.data, b.data);
    p.seed = 43;
    guest::Program c = synthesize(p);
    EXPECT_NE(a.code, c.code);
}

TEST(Workloads, TerminatesAndIsDeterministicToRun)
{
    WorkloadParams p;
    p.seed = 7;
    p.outerIters = 40;
    p.strFrac = 0.05;
    p.indirectFrac = 0.05;
    p.fpFrac = 0.3;
    p.trigFrac = 0.2;
    guest::Program prog = synthesize(p);

    RefComponent r1, r2;
    r1.load(prog);
    r1.runToCompletion(20'000'000);
    ASSERT_TRUE(r1.finished());
    r2.load(prog);
    r2.runToCompletion(20'000'000);
    EXPECT_EQ(r1.exitCode(), r2.exitCode());
    EXPECT_EQ(r1.instCount(), r2.instCount());
}

TEST(Workloads, OuterItersControlsDynamicLength)
{
    WorkloadParams p;
    p.seed = 5;
    p.outerIters = 20;
    guest::Program small = synthesize(p);
    p.outerIters = 200;
    guest::Program big = synthesize(p);

    RefComponent rs, rb;
    rs.load(small);
    rs.runToCompletion(50'000'000);
    rb.load(big);
    rb.runToCompletion(50'000'000);
    // Same static code, ~10x dynamic length.
    EXPECT_EQ(small.code.size(), big.code.size());
    EXPECT_GT(rb.instCount(), rs.instCount() * 5);
}

TEST(Workloads, BbLenKnobShapesBlocks)
{
    WorkloadParams small;
    small.seed = 9;
    small.bbLenMin = 3;
    small.bbLenMax = 5;
    small.outerIters = 10;
    WorkloadParams large = small;
    large.bbLenMin = 14;
    large.bbLenMax = 24;
    guest::Program ps = synthesize(small);
    guest::Program pl = synthesize(large);
    // Larger blocks, same block count: more static code.
    EXPECT_GT(pl.code.size(), ps.code.size() * 2);
}

TEST(Workloads, PaperSuiteShape)
{
    auto suite = paperSuite(1.0);
    ASSERT_EQ(suite.size(), 31u);
    int ints = 0, fps = 0, phys = 0;
    for (const auto &b : suite) {
        switch (b.group) {
          case SuiteGroup::SpecInt: ++ints; break;
          case SuiteGroup::SpecFp: ++fps; break;
          case SuiteGroup::Physics: ++phys; break;
          case SuiteGroup::Proof: ADD_FAILURE() << b.params.name; break;
        }
    }
    EXPECT_EQ(ints, 11);
    EXPECT_EQ(fps, 13);
    EXPECT_EQ(phys, 7);
    EXPECT_NE(findBenchmark(suite, "429.mcf"), nullptr);
    EXPECT_NE(findBenchmark(suite, "ragdoll"), nullptr);
    EXPECT_EQ(findBenchmark(suite, "nonesuch"), nullptr);
}

TEST(Workloads, SuiteBenchmarksTerminate)
{
    // Run a few representative suite members at tiny scale.
    auto suite = paperSuite(0.05);
    for (const char *name :
         {"400.perlbench", "433.milc", "continuous", "462.libquantum"}) {
        const Benchmark *b = findBenchmark(suite, name);
        ASSERT_NE(b, nullptr);
        RefComponent ref;
        ref.load(synthesize(b->params));
        ref.runToCompletion(30'000'000);
        EXPECT_TRUE(ref.finished()) << name;
        EXPECT_GT(ref.instCount(), 1000u) << name;
    }
}

TEST(Workloads, ScaleMultipliesIterations)
{
    auto s1 = paperSuite(1.0);
    auto s2 = paperSuite(2.0);
    const Benchmark *a = findBenchmark(s1, "401.bzip2");
    const Benchmark *b = findBenchmark(s2, "401.bzip2");
    EXPECT_EQ(b->params.outerIters, a->params.outerIters * 2);
}

// The proof suite is its own group, apart from the paper suite, and
// scales like it.
TEST(Workloads, ProofSuiteShape)
{
    auto suite = proofSuite(1.0);
    std::vector<std::string> names;
    for (const Benchmark &b : suite) {
        names.push_back(b.params.name);
        EXPECT_EQ(b.group, SuiteGroup::Proof) << b.params.name;
        EXPECT_EQ(findBenchmark(paperSuite(1.0), b.params.name), nullptr)
            << b.params.name;
    }
    EXPECT_EQ(names,
              (std::vector<std::string>{"int_basic", "mem_heavy",
                                        "sb_loops", "sb_branchy",
                                        "fp_trig", "mixed"}));
    EXPECT_STREQ(suiteGroupName(SuiteGroup::Proof), "proof");
    EXPECT_EQ(paperSuite(1.0).size(), 31u);

    auto half = proofSuite(0.5);
    ASSERT_EQ(half.size(), suite.size());
    for (std::size_t i = 0; i < suite.size(); ++i)
        EXPECT_EQ(half[i].params.outerIters,
                  suite[i].params.outerIters / 2)
            << suite[i].params.name;
}
