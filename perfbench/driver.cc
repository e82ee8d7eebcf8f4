/**
 * @file
 * DARCO speed benchmark driver: runs one named workload for a fixed
 * wall-clock budget, checks every simulation's results, and prints
 * one JSON result line (the last line of standard output).
 *
 *   perfbench_driver --workload hot|churn|timed|campaign --seed N
 *                    --seconds S --trace 0|1
 *                    [--expected FILE] [--write-expected FILE]
 *                    [--set key=value]...
 *
 * --trace 0 reports the end-to-end metrics (guest_mips, stated at a
 * nominal host speed measured by HostGauge; setup_s; peak_rss_mb);
 * --trace 1 alternates untraced and traced repetitions and reports
 * the per-layer metrics. Tracing happens entirely outside the library,
 * around calls into each layer's public functions (see TimedEnv and
 * BlockSink). --expected compares every operation with
 * committed name=value results; without it, every repetition must
 * reproduce the first one. --write-expected runs one repetition and
 * writes its results. --set appends a config key to every simulation
 * (the fault-injection self-test uses debug.flip_cond_exits=true).
 * See NOTES.md for the metric definitions.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "campaign/campaign.hh"
#include "power/power.hh"
#include "sim/controller.hh"
#include "timing/core.hh"
#include "tol/cost_model.hh"
#include "workloads/suite.hh"
#include "xemu/ref_component.hh"

using namespace darco;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string
fmtExact(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** Simulated results of one operation: statistic name -> value. */
using Results = std::map<std::string, std::string>;

// ---------------------------------------------------------------------
// Result checking and failure accounting
// ---------------------------------------------------------------------

/**
 * Counts operations and failures. An operation fails on an
 * exception, a failed job, or results that differ from the reference:
 * the committed expected file (default seed; only the statistics it
 * names are compared, so counters added later are ignored) or else
 * the operation's first successful run.
 */
class Checker
{
  public:
    explicit Checker(std::optional<Results> expected)
        : expected_(std::move(expected))
    {}

    u64 attempted() const { return attempted_; }
    u64 failed() const { return failed_; }

    void
    fail(const std::string &op, const std::string &why)
    {
        ++attempted_;
        ++failed_;
        if (reported_[op]++ < maxReports)
            std::cerr << "FAILED " << op << ": " << why << '\n';
    }

    void
    check(const std::string &op, const Results &got)
    {
        ++attempted_;
        const Results *ref = reference(op, got);
        if (!ref)
            return; // first run of the op under a non-default seed
        std::vector<std::string> diffs;
        for (const auto &[name, want] : *ref) {
            auto it = got.find(name);
            std::string have = it == got.end() ? "<missing>" : it->second;
            if (have != want)
                diffs.push_back(op + "." + name + ": expected " + want +
                                ", got " + have);
        }
        if (!expected_) {
            for (const auto &[name, have] : got) {
                if (!ref->count(name))
                    diffs.push_back(op + "." + name + ": unexpected " +
                                    have);
            }
        }
        if (ref->empty())
            diffs.push_back(op + ": no expected results");
        if (diffs.empty())
            return;
        ++failed_;
        if (reported_[op]++ >= maxReports)
            return;
        for (std::size_t i = 0; i < diffs.size() && i < 5; ++i)
            std::cerr << "MISMATCH " << diffs[i] << '\n';
    }

  private:
    const Results *
    reference(const std::string &op, const Results &got)
    {
        auto it = refs_.find(op);
        if (it != refs_.end())
            return &it->second;
        if (!expected_) {
            refs_[op] = got;
            return nullptr;
        }
        Results &ref = refs_[op];
        std::string prefix = op + ".";
        for (auto e = expected_->lower_bound(prefix);
             e != expected_->end() &&
             e->first.compare(0, prefix.size(), prefix) == 0;
             ++e)
            ref[e->first.substr(prefix.size())] = e->second;
        return &ref;
    }

    static constexpr int maxReports = 2; //!< per operation
    std::optional<Results> expected_;
    std::map<std::string, Results> refs_;
    std::map<std::string, int> reported_;
    u64 attempted_ = 0;
    u64 failed_ = 0;
};

Results
readResults(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    Results r;
    std::string line;
    while (std::getline(in, line)) {
        std::size_t eq = line.find('=');
        if (!line.empty() && line[0] != '#' && eq != std::string::npos)
            r[line.substr(0, eq)] = line.substr(eq + 1);
    }
    return r;
}

// ---------------------------------------------------------------------
// Host-speed gauge
// ---------------------------------------------------------------------

/**
 * Measures how fast the host runs simulator-like code right now. The
 * shared 4-vCPU host described in NOTES.md ("Steadiness") changes
 * speed by up to 1.75x within minutes, far more for branchy,
 * lookup-heavy code like the simulator's than for plain arithmetic, so
 * raw wall-clock MIPS of runs minutes apart differ by more than any
 * change worth detecting. The gauge is a toy interpreter: sixteen
 * opcodes under a switch, over 8192 instructions and 256 KB of data.
 * Each sample runs it twice, once with the code and data in hash maps
 * (shaped like the reference component's decode cache and page table)
 * and once in flat arrays (shaped like array-indexed models such as
 * the timing core's), since each tracks some workloads' slowdowns
 * better than the other. It is the benchmark's own code with fixed
 * inputs, so no change to DARCO can move it. The workloads sample it
 * between simulations, and guest_mips divides by the median sample.
 */
class HostGauge
{
  public:
    /**
     * Runs the interpreter on `threads` threads at once, as many as
     * the measured work keeps busy, since the host's vCPUs do not
     * change speed in step; records the mean speed ÷ nominal.
     */
    void
    sample(unsigned threads = 1)
    {
        while (interps_.size() < threads)
            interps_.push_back(std::make_unique<Interp>());
        std::vector<double> speed(threads);
        std::vector<std::thread> others;
        for (unsigned t = 1; t < threads; ++t)
            others.emplace_back(
                [this, t, &speed] { speed[t] = interps_[t]->speed(); });
        speed[0] = interps_[0]->speed();
        for (std::thread &th : others)
            th.join();
        double sum = 0;
        for (double v : speed)
            sum += v;
        samples_.push_back(sum / threads);
    }

    /** Median of the samples since construction or clear(). */
    double speed() const { return median(samples_); }
    void clear() { samples_.clear(); }

  private:
    /** One interpreter with its own code, data and registers. */
    class Interp
    {
      public:
        Interp() : flatData_(codeWords, 0)
        {
            std::mt19937_64 gen(11);
            for (u64 i = 0; i < codeWords; ++i) {
                u64 c = gen();
                Inst in{u8(c & 15), u8((c >> 4) & 7), u8((c >> 7) & 7),
                        u8((c >> 10) & 7), u32(c >> 32)};
                hashCode_[codeBase + 4 * i] = in;
                flatCode_.push_back(in);
                flatData_[i] = i / pageWords;
            }
            for (u64 p = 0; p < codeWords / pageWords; ++p)
                pages_[p * 7919].assign(pageWords, p);
            speed(); // first-touch costs
        }

        /**
         * Runs both forms for a fixed number of steps; returns the
         * geometric mean of their speeds, each ÷ its nominal speed
         * (about the median on the machine described in NOTES.md).
         */
        double
        speed()
        {
            double hashed = run<true>(hashSteps) / 100e6;
            double flat = run<false>(flatSteps) / 280e6;
            return std::sqrt(hashed * flat);
        }

      private:
        struct Inst
        {
            u8 op, a, b, d;
            u32 imm;
        };

        /** Steps per second over `steps` steps. */
        template <bool Hashed>
        double
        run(u64 steps)
        {
            auto t0 = Clock::now();
            for (u64 s = 0; s < steps; ++s)
                step<Hashed>();
            return steps / secondsSince(t0);
        }

        template <bool Hashed>
        u64 &
        word(u64 addr)
        {
            addr %= codeWords;
            if constexpr (Hashed)
                return pages_.find(addr / pageWords * 7919)
                    ->second[addr % pageWords];
            else
                return flatData_[addr];
        }

        template <bool Hashed>
        void
        step()
        {
            const Inst &in = Hashed ? hashCode_.find(pc_)->second
                                    : flatCode_[(pc_ - codeBase) / 4];
            u64 *r = r_;
            GAddr next = pc_ + 4;
            switch (in.op) {
              case 0: r[in.d] = r[in.a] + r[in.b]; break;
              case 1: r[in.d] = r[in.a] ^ (r[in.b] << 3); break;
              case 2: r[in.d] = word<Hashed>(r[in.a] + in.imm); break;
              case 3: word<Hashed>(r[in.b] + in.imm) = r[in.a]; break;
              case 4: r[in.d] = r[in.a] * 0x9E3779B97F4A7C15ull; break;
              case 5: if (r[in.a] & 1) next = jump(in.imm); break;
              case 6: r[in.d] = r[in.a] - r[in.b]; break;
              case 7: r[in.d] = word<Hashed>(r[in.b] >> 7) + r[in.a]; break;
              case 8: r[in.d] = (r[in.a] >> 5) | r[in.b]; break;
              case 9: if (r[in.b] & 2) next = jump((in.imm >> 8) + 1); break;
              case 10: r[in.d] = r[in.a] & r[in.b]; break;
              case 11: word<Hashed>(r[in.d] ^ in.imm) += r[in.b]; break;
              case 12: r[in.d] = r[in.a] + 1; break;
              case 13: r[in.d] = r[in.b] - 1; break;
              case 14: r[in.d] = r[in.a] < r[in.b]; break;
              default: r[in.d] += in.imm; break;
            }
            pc_ = next < codeBase + 4 * codeWords ? next : codeBase;
        }

        GAddr
        jump(u64 by) const
        {
            return codeBase + 4 * (((pc_ - codeBase) / 4 + by) % codeWords);
        }

        // 8192 instructions, and as many data words (64 pages, 256 KB).
        static constexpr u64 codeWords = 8192, pageWords = 512;
        static constexpr u64 codeBase = 0x10000;
        // About 10 ms each at nominal speed.
        static constexpr u64 hashSteps = 1'000'000, flatSteps = 3'000'000;
        std::unordered_map<GAddr, Inst> hashCode_;
        std::unordered_map<u64, std::vector<u64>> pages_;
        std::vector<Inst> flatCode_;
        std::vector<u64> flatData_;
        u64 r_[8] = {1, 2, 3, 4, 5, 6, 7, 8};
        GAddr pc_ = codeBase;
    };

    std::vector<std::unique_ptr<Interp>> interps_;
    std::vector<double> samples_;
};

// ---------------------------------------------------------------------
// Outside-in layer tracing
// ---------------------------------------------------------------------

/** Per-repetition layer times (seconds) and work counts. */
struct Tally
{
    double loadS = 0, catchupS = 0, syncS = 0, validateS = 0;
    double selfS = 0, recordS = 0, analyzeS = 0;
    double saveS = 0, restoreS = 0;
    u64 xemuInsts = 0, syncCalls = 0, records = 0, snapshotBytes = 0;
    u64 guestInsts = 0; //!< simulated (restored prefixes excluded)
    u64 hostInsts = 0, rollbacks = 0, ibtcHits = 0, ibtcMisses = 0;
    /** Summed Controller counters of every simulation. */
    std::map<std::string, u64> stats;
    // campaign pool accounting
    double jobS = 0, poolS = 0; //!< job wall sum; workers x pass wall
    u64 jobs = 0, ckptHits = 0, failedJobs = 0;
    std::map<std::string, u64> presetInsts;
    std::map<std::string, double> presetS;
};

/**
 * Tol::Env adapter: runs the reference component forward to the sync
 * point under its own timer, then forwards to the Controller, whose
 * catch-up is then a no-op — so the results are unchanged.
 */
class TimedEnv : public tol::Tol::Env
{
  public:
    TimedEnv(sim::Controller &ctl, Tally &t) : ctl_(ctl), t_(t) {}

    void
    dataRequest(u32 core, GAddr page, u64 completed_insts) override
    {
        catchUp(core, completed_insts);
        auto t0 = Clock::now();
        ctl_.dataRequest(core, page, completed_insts);
        t_.syncS += secondsSince(t0);
        ++t_.syncCalls;
    }

    bool
    syscall(u32 core, u64 completed_insts) override
    {
        catchUp(core, completed_insts);
        auto t0 = Clock::now();
        bool more = ctl_.syscall(core, completed_insts);
        t_.syncS += secondsSince(t0);
        ++t_.syncCalls;
        return more;
    }

    void
    catchUp(u32 core, u64 completed_insts)
    {
        xemu::RefComponent &ref = ctl_.ref(core);
        u64 before = ref.instCount();
        auto t0 = Clock::now();
        ref.runUntilInstCount(completed_insts);
        t_.catchupS += secondsSince(t0);
        t_.xemuInsts += ref.instCount() - before;
    }

  private:
    sim::Controller &ctl_;
    Tally &t_;
};

/**
 * TraceSink adapter: buffers records and forwards them to the timing
 * model in blocks under one timer, since a clock read per record
 * would dominate what it measures. Flushes before recordConcurrent so
 * the model sees the stream in its original order.
 */
class BlockSink : public host::TraceSink
{
  public:
    BlockSink(timing::InOrderCore &core, Tally &t) : core_(core), t_(t)
    {
        buf_.reserve(blockSize);
    }

    void
    record(const host::InstRecord &rec) override
    {
        buf_.push_back(rec);
        if (buf_.size() == blockSize)
            flush();
    }

    void
    recordConcurrent(u64 host_insts) override
    {
        flush();
        auto t0 = Clock::now();
        core_.recordConcurrent(host_insts);
        t_.recordS += secondsSince(t0);
    }

    void
    flush()
    {
        if (buf_.empty())
            return;
        auto t0 = Clock::now();
        for (const host::InstRecord &rec : buf_)
            core_.record(rec);
        t_.recordS += secondsSince(t0);
        t_.records += buf_.size();
        buf_.clear();
    }

  private:
    static constexpr std::size_t blockSize = 4096;
    timing::InOrderCore &core_;
    Tally &t_;
    std::vector<host::InstRecord> buf_;
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** One simulation: a guest program and its full config. */
struct Sim
{
    std::string name;
    guest::Program prog;
    Config cfg;
};

Config
baseConfig(u64 seed, const std::vector<std::string> &extra)
{
    Config cfg;
    cfg.set("seed", s64(seed));
    for (const std::string &kv : extra)
        cfg.parseLine(kv);
    return cfg;
}

/**
 * A benchmark program: `shape`'s generator parameters with a seed
 * drawn from --seed and the variant index, resized to about `target`
 * guest instructions. Generator seeds change a program's work per
 * outer iteration by up to 10x, and with it how well translation
 * amortizes; fixing the length keeps each workload's size and mix the
 * same for every seed. Length is linear in the outer-iteration count,
 * so two short reference runs (16 and 32 iterations) calibrate it.
 */
guest::Program
program(workloads::WorkloadParams shape, u64 seed, u32 variant,
        double target)
{
    shape.seed += 7919 * seed + 104729 * u64(variant);
    auto length = [&shape](u32 outer) {
        workloads::WorkloadParams p = shape;
        p.outerIters = outer;
        xemu::RefComponent ref;
        ref.load(workloads::synthesize(p));
        ref.runToCompletion();
        return double(ref.instCount());
    };
    double at16 = length(16);
    double per = (length(32) - at16) / 16;
    shape.outerIters = u32(std::max(8.0, 16 + (target - at16) / per));
    return workloads::synthesize(shape);
}

workloads::WorkloadParams
suiteShape(const std::string &name)
{
    std::vector<workloads::Benchmark> suite = workloads::paperSuite();
    const workloads::Benchmark *b = workloads::findBenchmark(suite, name);
    if (!b)
        throw std::runtime_error("unknown suite benchmark " + name);
    return b->params;
}

/** `variants` programs of each suite shape, `target` insts each. */
std::vector<Sim>
suiteSims(const std::vector<std::string> &shapes, u32 variants,
          double target, u64 seed, const std::vector<std::string> &extra)
{
    std::vector<Sim> sims;
    for (const std::string &name : shapes) {
        for (u32 v = 0; v < variants; ++v)
            sims.push_back({name + "." + std::to_string(v),
                            program(suiteShape(name), seed, v, target),
                            baseConfig(seed, extra)});
    }
    return sims;
}

/** Two dozen distinct Physicsbench-shaped low-reuse programs: large
 *  static footprint, few outer iterations, nothing shared. */
std::vector<Sim>
churnSims(u64 seed, const std::vector<std::string> &extra)
{
    std::vector<workloads::WorkloadParams> phys;
    for (const workloads::Benchmark &b : workloads::paperSuite()) {
        if (b.group == workloads::SuiteGroup::Physics)
            phys.push_back(b.params);
    }
    std::vector<Sim> sims;
    for (u32 i = 0; i < 24; ++i) {
        workloads::WorkloadParams p = phys[i % phys.size()];
        p.numBlocks = 160;
        sims.push_back({"churn." + std::to_string(i),
                        program(p, seed, i, 125'000),
                        baseConfig(seed, extra)});
    }
    return sims;
}

/** What one repetition measured. */
struct Rep
{
    double setupS = 0; //!< before the first guest instruction
    double runS = 0;   //!< simulating, validating, analyzing
    u64 insts = 0;     //!< guest instructions simulated
};

Results
controllerResults(sim::Controller &ctl)
{
    Results r;
    tol::Tol &t = ctl.tol();
    r["exit_code"] = std::to_string(ctl.exitCode());
    for (u32 c = 0; c < ctl.numCores(); ++c) {
        std::string core = "core" + std::to_string(c);
        r[core + ".insts"] = std::to_string(t.completedInsts(c));
        r[core + ".bbs"] = std::to_string(t.completedBBs(c));
    }
    for (const auto &[name, c] : ctl.stats().counters())
        r["stat." + name] = std::to_string(c.value());
    return r;
}

/**
 * One simulation, start to finish, added to `rep`. With a tally the
 * run is traced: end-of-run validation is disabled in the config (a
 * cosmetic key) and done here under its own timers.
 */
Results
simulate(const Sim &s, bool timed, Rep &rep, Tally *tally)
{
    Config cfg = s.cfg;
    if (tally)
        cfg.set("sync.validate_end", false);

    auto t0 = Clock::now();
    sim::Controller ctl(cfg);
    ctl.load(s.prog);
    std::unique_ptr<StatGroup> tstats;
    std::unique_ptr<timing::InOrderCore> core;
    if (timed) {
        tstats = std::make_unique<StatGroup>("timing");
        core = std::make_unique<timing::InOrderCore>(cfg, *tstats);
    }
    double loadS = secondsSince(t0);

    std::optional<TimedEnv> env;
    std::optional<BlockSink> sink;
    if (tally) {
        env.emplace(ctl, *tally);
        ctl.tol().setEnv(&*env);
        if (core)
            sink.emplace(*core, *tally);
    }
    if (core)
        ctl.tol().setTraceSink(sink ? static_cast<host::TraceSink *>(&*sink)
                                    : core.get());

    double inLayers = 0;
    if (tally)
        inLayers = tally->catchupS + tally->syncS + tally->recordS;
    auto t1 = Clock::now();
    ctl.run();
    if (sink)
        sink->flush();
    if (tally) {
        double runS = secondsSince(t1);
        tally->loadS += loadS;
        tally->selfS += runS - (tally->catchupS + tally->syncS +
                                tally->recordS - inLayers);
        for (u32 c = 0; c < ctl.numCores(); ++c)
            env->catchUp(c, ctl.tol().completedInsts(c));
        auto t2 = Clock::now();
        ctl.validateFinal();
        tally->validateS += secondsSince(t2);
    }
    power::PowerReport pr;
    if (core) {
        auto t3 = Clock::now();
        pr = power::PowerModel(cfg).analyze(*tstats);
        if (tally)
            tally->analyzeS += secondsSince(t3);
    }
    rep.runS += secondsSince(t1);
    rep.setupS += loadS;

    tol::Tol &t = ctl.tol();
    rep.insts += t.completedInsts();
    Results r = controllerResults(ctl);
    if (core) {
        r["cycles"] = std::to_string(core->cycles());
        r["ipc"] = fmtExact(core->ipc());
        r["energy_j"] = fmtExact(pr.totalEnergyJ);
        r["avg_w"] = fmtExact(pr.avgPowerW);
        for (const auto &[name, c] : tstats->counters())
            r["timing." + name] = std::to_string(c.value());
    }
    if (tally) {
        tally->guestInsts += t.completedInsts();
        tally->hostInsts += t.hostEmu().instsExecuted();
        tally->rollbacks += t.hostEmu().rollbacks();
        tally->ibtcHits += t.hostEmu().ibtc().hits();
        tally->ibtcMisses += t.hostEmu().ibtc().misses();
        for (const auto &[name, c] : ctl.stats().counters())
            tally->stats[name] += c.value();
    }
    return r;
}

using RepFn = std::function<Rep(Checker &, Tally *, Results *)>;

/** Host time between two gauge samples: short enough that the host
 *  rarely changes speed in between, long enough that sampling costs
 *  under a tenth of the run. */
constexpr double gaugeEveryS = 0.25;

RepFn
simWorkload(std::vector<Sim> sims, bool timed, HostGauge &gauge)
{
    return [sims = std::move(sims), timed, &gauge](Checker &chk,
                                                   Tally *tally,
                                                   Results *dump) {
        Rep rep;
        gauge.sample();
        double sampledAt = 0;
        for (const Sim &s : sims) {
            try {
                Results r = simulate(s, timed, rep, tally);
                chk.check(s.name, r);
                if (dump) {
                    for (const auto &[k, v] : r)
                        (*dump)[s.name + "." + k] = v;
                }
            } catch (const std::exception &e) {
                chk.fail(s.name, e.what());
            }
            if (rep.setupS + rep.runS - sampledAt >= gaugeEveryS) {
                gauge.sample();
                sampledAt = rep.setupS + rep.runS;
            }
        }
        return rep;
    };
}

/** In-memory content-addressed prefix store shared by the workers. */
class MemStore : public campaign::CheckpointStore
{
  public:
    bool
    fetch(const std::string &key, std::string *image) override
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = images_.find(key);
        if (it == images_.end())
            return false;
        *image = it->second;
        return true;
    }

    void
    store(const std::string &key, const std::string &image) override
    {
        std::lock_guard<std::mutex> lock(mu_);
        images_[key] = image;
    }

  private:
    std::mutex mu_;
    std::map<std::string, std::string> images_;
};

std::vector<std::string>
splitCsv(const std::string &line)
{
    std::vector<std::string> out;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ','))
        out.push_back(cell);
    if (!line.empty() && line.back() == ',')
        out.emplace_back();
    return out;
}

/** A job's report row as results, minus the columns that may change
 *  without the simulation changing (config rendering, provenance). */
Results
rowResults(const campaign::JobResult &r)
{
    std::vector<std::string> head =
        splitCsv(campaign::CampaignResult::csvHeader());
    std::vector<std::string> row = splitCsv(campaign::csvRow(r));
    if (head.size() != row.size())
        throw std::runtime_error("unparseable report row");
    Results out;
    for (std::size_t i = 0; i < head.size(); ++i) {
        if (head[i] != "effective_config" && head[i] != "worker" &&
            head[i] != "wall_ms")
            out[head[i]] = row[i];
    }
    return out;
}

constexpr u64 campaignSkip = 150'000;
constexpr unsigned campaignWorkers = 2;

/**
 * Four bzip2- and four gcc-shaped programs x six presets on two
 * workers, timing off; every job restores its prefix from an in-memory
 * store filled during set-up. Eight programs rather than fewer, longer
 * ones, so that no one seed's program sets the workload's speed.
 */
RepFn
campaignWorkload(u64 seed, const std::vector<std::string> &extra,
                 HostGauge &gauge)
{
    std::vector<std::pair<std::string, guest::Program>> programs;
    for (const char *name : {"401.bzip2", "403.gcc"}) {
        for (u32 v = 0; v < 4; ++v)
            programs.emplace_back(
                name + std::string(".") + std::to_string(v),
                program(suiteShape(name), seed, v, 500'000));
    }
    std::vector<std::string> common = extra;
    common.push_back("seed=" + std::to_string(seed));
    auto configs = campaign::presetConfigs(
        {"interp", "noopt", "fullopt", "tinycc", "async"}, common);
    for (auto &[name, cfg] : configs) {
        if (name == "async")
            cfg.parseLine("tol.async.threads=1");
    }
    configs.emplace_back("cores2", baseConfig(seed, extra));
    configs.back().second.parseLine("cores=2");

    return [programs, configs, &gauge](Checker &chk, Tally *tally,
                                       Results *dump) {
        Rep rep;
        auto t0 = Clock::now();
        std::vector<campaign::Job> jobs =
            campaign::expandMatrix(programs, configs, ~0ull, campaignSkip);
        MemStore store;
        std::vector<u64> prefix(jobs.size(), 0);
        std::vector<std::string> images(jobs.size());
        // The gauge runs only while no worker does, so it does not
        // compete with them: between prefix runs, its time taken out
        // of set-up. It runs on as many threads as there are workers.
        double gaugeS = 0;
        auto sampleGauge = [&gauge, &gaugeS] {
            auto tg = Clock::now();
            gauge.sample(campaignWorkers);
            gaugeS += secondsSince(tg);
        };
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (i % 4 == 0)
                sampleGauge();
            // A failing prefix leaves no image: the job then simulates
            // the prefix itself and reports the failure.
            try {
                sim::Controller ctl(jobs[i].config);
                ctl.load(jobs[i].program);
                ctl.run(jobs[i].skip);
                prefix[i] = ctl.tol().completedInsts();
                std::ostringstream os;
                auto ts = Clock::now();
                ctl.saveCheckpoint(os);
                if (tally)
                    tally->saveS += secondsSince(ts);
                images[i] = os.str();
                store.store(campaign::jobKeyString(jobs[i]), images[i]);
            } catch (const std::exception &) {
            }
        }
        sampleGauge();
        rep.setupS = secondsSince(t0) - gaugeS;

        campaign::RunOptions opts;
        opts.jobs = campaignWorkers;
        opts.timing = false;
        opts.store = &store;
        auto t1 = Clock::now();
        campaign::CampaignResult res = campaign::runCampaign(jobs, opts);
        rep.runS = secondsSince(t1);

        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const campaign::JobResult &r = res.results[i];
            std::string op = r.workload + "/" + r.configName;
            if (!r.ok) {
                chk.fail(op, r.error);
                if (tally)
                    ++tally->failedJobs;
                continue;
            }
            u64 insts = r.insts - prefix[i];
            rep.insts += insts;
            try {
                Results row = rowResults(r);
                chk.check(op, row);
                if (dump) {
                    for (const auto &[k, v] : row)
                        (*dump)[op + "." + k] = v;
                }
            } catch (const std::exception &e) {
                chk.fail(op, e.what());
            }
            if (!tally)
                continue;
            tally->guestInsts += insts;
            tally->jobS += r.wallMs / 1e3;
            tally->ckptHits += r.checkpointHit;
            tally->presetInsts[r.configName] += insts;
            tally->presetS[r.configName] += r.wallMs / 1e3;
            for (const auto &[name, v] : r.stats)
                tally->stats[name] += v;
        }
        if (tally) {
            tally->jobs += jobs.size();
            tally->poolS += opts.jobs * rep.runS;
            // Restore runs inside every job, out of reach of an
            // outside timer: time the same restores here instead.
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                if (images[i].empty())
                    continue;
                sim::Controller ctl(jobs[i].config);
                std::istringstream is(images[i]);
                auto ts = Clock::now();
                ctl.restoreCheckpoint(is);
                tally->restoreS += secondsSince(ts);
                tally->snapshotBytes += images[i].size();
            }
        }
        return rep;
    };
}

RepFn
makeWorkload(const std::string &name, u64 seed,
             const std::vector<std::string> &extra, HostGauge &gauge)
{
    if (name == "hot")
        return simWorkload(suiteSims({"462.libquantum", "470.lbm",
                                      "401.bzip2"},
                                     4, 3'000'000, seed, extra),
                           false, gauge);
    if (name == "churn")
        return simWorkload(churnSims(seed, extra), false, gauge);
    if (name == "timed")
        return simWorkload(suiteSims({"429.mcf", "433.milc"}, 3, 1'500'000,
                                     seed, extra),
                           true, gauge);
    if (name == "campaign")
        return campaignWorkload(seed, extra, gauge);
    throw std::runtime_error("unknown workload '" + name +
                             "' (hot|churn|timed|campaign)");
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

double
repMips(const Rep &r)
{
    return ratio(double(r.insts), r.runS) / 1e6;
}

std::vector<double>
each(const std::vector<Rep> &reps, double (*f)(const Rep &))
{
    std::vector<double> out;
    for (const Rep &r : reps)
        out.push_back(f(r));
    return out;
}

/** guest_mips is the median wall-clock MIPS of the repetitions at the
 *  host's nominal speed: divided by the gauge's median sample. */
std::vector<Metric>
endToEnd(const std::vector<Rep> &reps, double hostSpeed)
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return {
        {"guest_mips", "MIPS", median(each(reps, repMips)) / hostSpeed},
        {"setup_s", "s",
         median(each(reps, [](const Rep &r) { return r.setupS; }))},
        {"peak_rss_mb", "MB", double(ru.ru_maxrss) / 1024.0},
    };
}

std::vector<Metric>
perLayer(const Tally &t, std::size_t reps, double overhead)
{
    double n = double(std::max<std::size_t>(reps, 1));
    auto stat = [&t](const std::string &name) {
        auto it = t.stats.find(name);
        return it == t.stats.end() ? 0.0 : double(it->second);
    };
    double guest = double(t.guestInsts);
    double statGuest = stat("tol.guest_im") + stat("tol.guest_bbm") +
                       stat("tol.guest_sbm");
    double translations =
        stat("tol.translations_bb") + stat("tol.translations_sb");
    std::vector<Metric> m = {
        {"xemu.catchup_s", "s", t.catchupS / n},
        {"xemu.insts", "count", t.xemuInsts / n},
        {"xemu.mips", "MIPS", ratio(t.xemuInsts, t.catchupS) / 1e6},
        {"sim.load_s", "s", t.loadS / n},
        {"sim.sync_s", "s", t.syncS / n},
        {"sim.sync_calls", "count", t.syncCalls / n},
        {"sim.validate_s", "s", t.validateS / n},
        {"tol.self_s", "s", t.selfS / n},
        {"tol.self_mips", "MIPS", ratio(guest, t.selfS) / 1e6},
        {"tol.guest_im", "count", stat("tol.guest_im") / n},
        {"tol.guest_bbm", "count", stat("tol.guest_bbm") / n},
        {"tol.guest_sbm", "count", stat("tol.guest_sbm") / n},
        {"tol.translations_bb", "count", stat("tol.translations_bb") / n},
        {"tol.translations_sb", "count", stat("tol.translations_sb") / n},
        {"tol.translations_per_minst", "1/Minst",
         ratio(translations, statGuest) * 1e6},
    };
    for (unsigned c = 0; c < unsigned(tol::Overhead::NumCats); ++c) {
        std::string cat = tol::overheadName(tol::Overhead(c));
        m.push_back({"tol.cost." + cat, "count", stat("tol.ov_" + cat) / n});
    }
    std::vector<Metric> rest = {
        {"tol.assert_fails", "count", stat("tol.assert_fails") / n},
        {"tol.cc_evictions", "count", stat("cc.evictions") / n},
        {"tol.async_dropped_stale", "count",
         stat("tol.async.dropped_stale") / n},
        {"host.insts", "count", t.hostInsts / n},
        {"host.insts_per_guest", "ratio", ratio(t.hostInsts, guest)},
        {"host.rollbacks", "count", t.rollbacks / n},
        {"host.ibtc_hit_ratio", "ratio",
         ratio(t.ibtcHits, double(t.ibtcHits + t.ibtcMisses))},
        {"timing.record_s", "s", t.recordS / n},
        {"timing.records", "count", t.records / n},
        {"timing.records_per_guest", "ratio", ratio(t.records, guest)},
        {"power.analyze_s", "s", t.analyzeS / n},
        {"snapshot.save_s", "s", t.saveS / n},
        {"snapshot.restore_s", "s", t.restoreS / n},
        {"snapshot.bytes", "bytes", t.snapshotBytes / n},
        {"campaign.job_s", "s", t.jobS / n},
        {"campaign.worker_idle_s", "s", std::max(0.0, t.poolS - t.jobS) / n},
        {"campaign.pool_util", "ratio", ratio(t.jobS, t.poolS)},
        {"campaign.ckpt_hit_ratio", "ratio", ratio(t.ckptHits, t.jobs)},
        {"campaign.failed_jobs", "count", t.failedJobs / n},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    for (const char *preset :
         {"interp", "noopt", "fullopt", "tinycc", "async", "cores2"}) {
        auto in = t.presetInsts.find(preset);
        auto s = t.presetS.find(preset);
        double mips = in == t.presetInsts.end()
                          ? 0
                          : ratio(in->second, s->second) / 1e6;
        m.push_back({std::string("campaign.preset_mips.") + preset, "MIPS",
                     mips});
    }
    m.push_back({"trace.overhead", "ratio", overhead});
    return m;
}

void
printResult(const Checker &chk, const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (chk.failed() == 0 ? "true" : "false")
       << ", \"attempted\": " << chk.attempted()
       << ", \"failed\": " << chk.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
           << fmtExact(std::isfinite(m.value) ? m.value : 0)
           << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

struct Options
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string expected;
    std::string writeExpected;
    std::vector<std::string> extra;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            throw std::runtime_error("missing value for " + a);
        std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::stoull(v);
        else if (a == "--seconds")
            o.seconds = std::stod(v);
        else if (a == "--trace")
            o.trace = v == "1";
        else if (a == "--expected")
            o.expected = v;
        else if (a == "--write-expected")
            o.writeExpected = v;
        else if (a == "--set")
            o.extra.push_back(v);
        else
            throw std::runtime_error("unknown argument " + a);
    }
    return o;
}

int
run(const Options &o)
{
    HostGauge gauge;
    RepFn rep = makeWorkload(o.workload, o.seed, o.extra, gauge);

    if (!o.writeExpected.empty()) {
        Checker chk(std::nullopt);
        Results dump;
        rep(chk, nullptr, &dump);
        if (chk.failed())
            return 1;
        std::ofstream out(o.writeExpected);
        out << "# " << o.workload << " expected results, seed " << o.seed
            << "\n";
        for (const auto &[k, v] : dump)
            out << k << '=' << v << '\n';
        return out ? 0 : 1;
    }

    std::optional<Results> expected;
    if (!o.expected.empty())
        expected = readResults(o.expected);
    Checker chk(expected);
    rep(chk, nullptr, nullptr); // warm-up: untimed, still checked
    gauge.clear(); // keep only samples taken around timed repetitions

    std::vector<Rep> plain, traced;
    Tally tally;
    auto start = Clock::now();
    for (u64 i = 0; secondsSince(start) < o.seconds || plain.empty() ||
                    (o.trace && traced.empty());
         ++i) {
        if (o.trace && i % 2)
            traced.push_back(rep(chk, &tally, nullptr));
        else
            plain.push_back(rep(chk, nullptr, nullptr));
    }

    std::vector<double> mips = each(plain, repMips);
    std::sort(mips.begin(), mips.end());
    std::cerr << o.workload << ": " << plain.size()
              << " timed repetitions, wall-clock guest MIPS min "
              << mips.front() << " median " << median(mips) << " max "
              << mips.back() << "; host speed median " << gauge.speed()
              << '\n';
    if (o.trace)
        printResult(chk, perLayer(tally, traced.size(),
                                  ratio(median(each(traced, repMips)),
                                        median(mips))));
    else
        printResult(chk, endToEnd(plain, gauge.speed()));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::cerr << "perfbench_driver: " << e.what() << '\n';
        return 2;
    }
}
