/**
 * @file
 * Timing-simulator tests: cache behaviour (hits/misses/LRU/writeback),
 * geometry errors, TLB levels, seeded differential checks of both and
 * of the block-fed core against naive reference models, gshare
 * learning, BTB, stride prefetcher, scoreboard dependencies, issue
 * width, and end-to-end IPC sanity; power-model accounting on top.
 */

#include <algorithm>
#include <array>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/schema.hh"
#include "power/power.hh"
#include "timing/core.hh"

using namespace darco;
using namespace darco::timing;
using host::InstClass;
using host::InstRecord;
using host::noReg;

namespace
{

InstRecord
alu(u32 pc, u8 dst = host::noReg, u8 s1 = host::noReg,
    u8 s2 = host::noReg)
{
    InstRecord r;
    r.pc = pc;
    r.nextPc = pc + 4;
    r.cls = InstClass::IntAlu;
    r.dst = dst;
    r.src1 = s1;
    r.src2 = s2;
    return r;
}

InstRecord
load(u32 pc, u32 addr, u8 dst)
{
    InstRecord r;
    r.pc = pc;
    r.nextPc = pc + 4;
    r.cls = InstClass::Load;
    r.memAddr = addr;
    r.dst = dst;
    return r;
}

InstRecord
branch(u32 pc, bool taken, u32 target)
{
    InstRecord r;
    r.pc = pc;
    r.cls = InstClass::Branch;
    r.taken = taken;
    r.nextPc = taken ? target : pc + 4;
    return r;
}

} // namespace

TEST(CacheModel, HitsAfterFill)
{
    StatGroup st("t");
    Cache l2("l2", 1 << 16, 8, 64, 10, 100, nullptr, st);
    Cache l1("l1", 1 << 12, 2, 64, 1, 0, &l2, st);
    // First access misses all the way to memory.
    Cycle first = l1.access(0x1000, false);
    EXPECT_EQ(first, 1u + 10 + 100);
    // Second hits in L1.
    EXPECT_EQ(l1.access(0x1000, false), 1u);
    EXPECT_EQ(l1.access(0x103c, false), 1u) << "same line";
    EXPECT_EQ(l1.hits(), 2u);
    EXPECT_EQ(l1.misses(), 1u);
    // L2 hit path: evict from L1 by conflict, then re-access.
    l1.access(0x1000 + 4096, false);
    l1.access(0x1000 + 8192, false);
    Cycle again = l1.access(0x1000, false);
    EXPECT_EQ(again, 1u + 10) << "should hit in L2";
}

TEST(CacheModel, LruReplacement)
{
    StatGroup st("t");
    Cache c("c", 2 * 64, 2, 64, 1, 50, nullptr, st); // 1 set, 2 ways
    c.access(0x0, false);
    c.access(0x40, false);
    c.access(0x0, false);  // touch way A
    c.access(0x80, false); // evicts 0x40 (LRU)
    EXPECT_TRUE(c.probe(0x0));
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_TRUE(c.probe(0x80));
}

TEST(CacheModel, WritebackOnDirtyEvict)
{
    StatGroup st("t");
    Cache c("c", 2 * 64, 2, 64, 1, 50, nullptr, st);
    c.access(0x0, true); // dirty
    c.access(0x40, false);
    c.access(0x80, false); // evicts dirty 0x0
    EXPECT_EQ(st.value("c.writebacks"), 1u);
}

TEST(CacheModel, LevelSmallerThanOneSetIsAConfigError)
{
    // Each value is valid alone; together the L1D holds less than one
    // set of 64 ways.
    Config cfg({"l1d.size=1024", "l1d.assoc=64"});
    StatGroup st("t");
    try {
        InOrderCore core(cfg, st);
        FAIL() << "a cache smaller than one set was accepted";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        for (const char *part :
             {"l1d.size=1024", "l1d.assoc=64", "cache.line=64"})
            EXPECT_NE(msg.find(part), std::string::npos) << msg;
    }
}

TEST(TlbModel, TwoLevelLatencies)
{
    StatGroup st("t");
    Tlb tlb("tlb", 2, 8, 5, 50, st);
    EXPECT_EQ(tlb.access(0x1000), 55u) << "cold: L2 + walk";
    EXPECT_EQ(tlb.access(0x1000), 0u) << "L1 hit";
    tlb.access(0x2000);
    tlb.access(0x3000); // evicts 0x1000 from the 2-entry L1
    EXPECT_EQ(tlb.access(0x1000), 5u) << "L1 miss, L2 hit";
}

// --- differential checks against naive reference models -------------
//
// The models index sets with shifts and masks, search every way of a
// compact line array, and find TLB entries through a hashed index and
// a recency list behind an MRU check. These references do none of
// that: sets by division and modulo with a valid bit per way, and a
// TLB level that is a plain set of pages ordered by last-use tick. The
// core reference is the record-at-a-time in-order core that predates
// block delivery, over those references. Each seeded stream must match
// them access by access (the core: block by block), in latency and in
// every counter.

namespace
{

/** Reference cache level: same policy as Cache, computed naively. */
class RefCache
{
  public:
    RefCache(u32 size, u32 assoc, u32 line, Cycle hit_lat, Cycle miss_lat,
             RefCache *next)
        : line_(line), assoc_(assoc), sets_(size / (line * assoc)),
          hitLat_(hit_lat), missLat_(miss_lat), next_(next),
          ways_(std::size_t(sets_) * assoc)
    {}

    Cycle
    access(u32 addr, bool write)
    {
        if (Way *w = find(addr)) {
            ++hits;
            w->lru = ++tick_;
            w->dirty = w->dirty || write;
            return hitLat_;
        }
        ++misses;
        return hitLat_ + fill(addr, false, write);
    }

    void
    prefetch(u32 addr)
    {
        if (find(addr))
            return;
        ++prefetches;
        fill(addr, true, false);
    }

    u64 hits = 0, misses = 0, writebacks = 0, prefetches = 0;

  private:
    struct Way
    {
        bool valid = false;
        bool dirty = false;
        u64 tag = 0;
        u64 lru = 0;
    };

    u64 set(u32 addr) const { return (addr / line_) % sets_; }
    u64 tag(u32 addr) const { return (addr / line_) / sets_; }

    Way *
    find(u32 addr)
    {
        for (u32 w = 0; w < assoc_; ++w) {
            Way &way = ways_[set(addr) * assoc_ + w];
            if (way.valid && way.tag == tag(addr))
                return &way;
        }
        return nullptr;
    }

    Cycle
    fill(u32 addr, bool from_prefetch, bool write)
    {
        Way *victim = nullptr;
        for (u32 w = 0; w < assoc_; ++w) {
            Way &way = ways_[set(addr) * assoc_ + w];
            if (!way.valid) {
                victim = &way;
                break;
            }
            if (!victim || way.lru < victim->lru)
                victim = &way;
        }
        if (victim->valid && victim->dirty)
            ++writebacks;
        Cycle lat = missLat_;
        if (next_ && from_prefetch) {
            next_->prefetch(addr);
            lat = 0;
        } else if (next_) {
            lat = next_->access(addr, false);
        }
        *victim = Way{true, write, tag(addr), ++tick_};
        return lat;
    }

    u32 line_, assoc_, sets_;
    Cycle hitLat_, missLat_;
    RefCache *next_;
    std::vector<Way> ways_;
    u64 tick_ = 0;
};

/**
 * Reference fully-associative TLB level: the resident pages keyed by
 * their last-use tick; a miss in a full level evicts the lowest tick.
 */
class RefTlbLevel
{
  public:
    explicit RefTlbLevel(u32 entries) : entries_(entries) {}

    bool
    access(u32 vpn)
    {
        auto it = tickOf_.find(vpn);
        bool hit = it != tickOf_.end();
        if (hit) {
            ++hits;
            byTick_.erase(it->second);
        } else {
            ++misses;
            if (tickOf_.size() == entries_) {
                tickOf_.erase(byTick_.begin()->second);
                byTick_.erase(byTick_.begin());
            }
        }
        tickOf_[vpn] = ++tick_;
        byTick_[tick_] = vpn;
        return hit;
    }

    u64 hits = 0, misses = 0;

  private:
    std::size_t entries_;
    std::map<u64, u32> byTick_;
    std::map<u32, u64> tickOf_;
    u64 tick_ = 0;
};

/**
 * A seeded address stream with reuse at several distances: short steps
 * from the last address, revisits of recent ones, random addresses in
 * windows at four random bases, and strays anywhere in the 32-bit
 * space (so every tag bit is in play).
 */
class AddrStream
{
  public:
    AddrStream(u64 seed, u32 window, u32 step)
        : rng_(seed), window_(window), step_(step)
    {
        for (u32 &b : bases_)
            b = u32(rng_.next());
        recent_.fill(bases_[0]);
    }

    u32
    next()
    {
        double p = rng_.uniform();
        u32 a;
        if (p < 0.35)
            a = last_ + u32(rng_.range(0, step_));
        else if (p < 0.55)
            a = recent_[rng_.range(0, recent_.size() - 1)];
        else if (p < 0.95)
            a = bases_[rng_.range(0, bases_.size() - 1)] +
                u32(rng_.range(0, window_ - 1));
        else
            a = u32(rng_.next());
        recent_[n_++ % recent_.size()] = a;
        last_ = a;
        return a;
    }

    Rng &rng() { return rng_; }

  private:
    Rng rng_;
    u32 window_, step_;
    std::array<u32, 4> bases_{};
    std::array<u32, 16> recent_{};
    u32 last_ = 0;
    u64 n_ = 0;
};

constexpr u64 kDiffAccesses = 100'000;

/** Reference two-level TLB over RefTlbLevel. */
class RefTlb
{
  public:
    RefTlb(u32 l1_entries, u32 l2_entries, Cycle l2_lat, Cycle walk_lat)
        : l1(l1_entries), l2(l2_entries), l2Lat_(l2_lat),
          walkLat_(walk_lat)
    {}

    Cycle
    access(u32 addr)
    {
        u32 vpn = addr / 4096;
        if (l1.access(vpn))
            return 0;
        return l2.access(vpn) ? l2Lat_ : l2Lat_ + walkLat_;
    }

    RefTlbLevel l1, l2;

  private:
    Cycle l2Lat_, walkLat_;
};

/** Reference stride prefetcher: StridePrefetcher's policy over a
 *  RefCache. */
class RefPrefetcher
{
  public:
    RefPrefetcher(u32 entries, u32 degree, RefCache *target,
                  Counter &issued)
        : table_(entries), degree_(degree), target_(target),
          issued_(issued)
    {}

    void
    observe(u32 pc, u32 addr)
    {
        Entry &e = table_[(pc / 4) % table_.size()];
        if (e.tag != pc) {
            e = Entry{pc, addr, 0, 0};
            return;
        }
        s32 stride = s32(addr - e.lastAddr);
        if (stride != 0 && stride == e.stride) {
            if (e.confidence < 3)
                ++e.confidence;
        } else if (e.confidence > 0) {
            --e.confidence;
        }
        e.stride = stride;
        e.lastAddr = addr;
        if (e.confidence >= 2 && stride != 0 && target_) {
            for (u32 d = 1; d <= degree_; ++d) {
                target_->prefetch(addr + u32(stride) * d);
                issued_.inc();
            }
        }
    }

  private:
    struct Entry
    {
        u32 tag = ~0u;
        u32 lastAddr = 0;
        s32 stride = 0;
        u32 confidence = 0;
    };
    std::vector<Entry> table_;
    u32 degree_;
    RefCache *target_;
    Counter &issued_;
};

/**
 * Reference in-order core: record(), recordConcurrent() and reserveFu()
 * are the bodies of the model that took the stream one record at a
 * time, copied verbatim, over RefCache, RefTlb and RefPrefetcher (and
 * the production Gshare and Btb).
 */
class RefCore
{
  public:
    RefCore(const Config &cfg, StatGroup &stats)
    {
        auto get = [&](const std::string &key) {
            return conf::getUint(cfg, key);
        };
        issueWidth_ = u32(get("core.issue_width"));
        fetchWidth_ = u32(get("core.fetch_width"));
        iqSize_ = u32(get("core.iq_size"));
        frontendDepth_ = u32(get("core.frontend_depth"));
        latAlu_ = get("core.lat_alu");
        latMul_ = get("core.lat_mul");
        latDiv_ = get("core.lat_div");
        latFp_ = get("core.lat_fp");
        latFpDiv_ = get("core.lat_fpdiv");
        latBranch_ = get("core.lat_branch");
        u32 line = u32(get("cache.line"));
        auto cache = [&](const std::string &level, Cycle miss_lat,
                         RefCache *next) {
            return std::make_unique<RefCache>(
                u32(get(level + ".size")), u32(get(level + ".assoc")),
                line, get(level + ".lat"), miss_lat, next);
        };
        l2_ = cache("l2", get("mem.lat"), nullptr);
        l1i_ = cache("l1i", 0, l2_.get());
        l1d_ = cache("l1d", 0, l2_.get());
        fetchLineShift_ = u32(__builtin_ctz(line));
        auto tlb = [&] {
            return std::make_unique<RefTlb>(
                u32(get("tlb.l1_entries")), u32(get("tlb.l2_entries")),
                get("tlb.l2_lat"), get("tlb.walk_lat"));
        };
        itlb_ = tlb();
        dtlb_ = tlb();
        gshare_ = std::make_unique<Gshare>(u32(get("bpred.entries")),
                                           u32(get("bpred.history")),
                                           stats);
        btb_ = std::make_unique<Btb>(u32(get("btb.entries")), stats);
        prefetcher_ = std::make_unique<RefPrefetcher>(
            u32(get("prefetch.entries")), u32(get("prefetch.degree")),
            conf::getBool(cfg, "prefetch.enable") ? l1d_.get() : nullptr,
            stats.counter("prefetch.issued"));
        aluPool_.assign(get("core.num_alu"), 0);
        complexPool_.assign(get("core.num_complex"), 0);
        fpPool_.assign(get("core.num_fp"), 0);
        memPool_.assign(get("core.num_mem_ports"), 0);
        iqRing_.assign(iqSize_, 0);
        vthreads_ = u32(get("tol.async.vthreads"));
        cCycles_ = &stats.counter("core.cycles");
        cInsts_ = &stats.counter("core.instructions");
        cAluOps_ = &stats.counter("core.alu_ops");
        cMulOps_ = &stats.counter("core.mul_ops");
        cDivOps_ = &stats.counter("core.div_ops");
        cFpOps_ = &stats.counter("core.fp_ops");
        cMemOps_ = &stats.counter("core.mem_ops");
        cBranches_ = &stats.counter("core.branches");
        cFetchStallCycles_ = &stats.counter("core.fetch_stall_cycles");
        cTranslatorInsts_ = &stats.counter("core.translator_insts");
        stats_ = &stats;
    }

    void record(const InstRecord &rec);
    void recordConcurrent(u64 host_insts);

    Cycle cycles() const { return std::max(lastRetire_, translatorCycles_); }
    u64 instructions() const { return instructions_; }

    /** Every counter, under the names the model's StatGroup uses. */
    std::map<std::string, u64>
    counters() const
    {
        std::map<std::string, u64> all;
        for (const auto &[name, c] : stats_->counters())
            all[name] = c.value();
        auto cache = [&](const std::string &level, const RefCache &c) {
            all[level + ".hits"] = c.hits;
            all[level + ".misses"] = c.misses;
            all[level + ".writebacks"] = c.writebacks;
            all[level + ".prefetches"] = c.prefetches;
        };
        cache("l1i", *l1i_);
        cache("l1d", *l1d_);
        cache("l2", *l2_);
        auto tlb = [&](const std::string &name, const RefTlb &t) {
            all[name + ".l1.hits"] = t.l1.hits;
            all[name + ".l1.misses"] = t.l1.misses;
            all[name + ".l2.hits"] = t.l2.hits;
            all[name + ".l2.misses"] = t.l2.misses;
        };
        tlb("itlb", *itlb_);
        tlb("dtlb", *dtlb_);
        return all;
    }

  private:
    Cycle reserveFu(std::vector<Cycle> &pool, Cycle when, Cycle busy);

    const StatGroup *stats_;
    u32 issueWidth_, fetchWidth_, iqSize_, frontendDepth_;
    Cycle latAlu_, latMul_, latDiv_, latFp_, latFpDiv_, latBranch_;
    std::unique_ptr<RefCache> l2_, l1i_, l1d_;
    std::unique_ptr<RefTlb> itlb_, dtlb_;
    std::unique_ptr<Gshare> gshare_;
    std::unique_ptr<Btb> btb_;
    std::unique_ptr<RefPrefetcher> prefetcher_;
    u32 fetchLineShift_;
    Cycle fetchCycle_ = 0;
    u32 fetchedThisCycle_ = 0;
    u64 lastFetchLine_ = ~0ull;
    Cycle lineReady_ = 0;
    std::vector<Cycle> iqRing_;
    u32 iqHead_ = 0;
    Cycle issueCycle_ = 0;
    u32 issuedThisCycle_ = 0;
    std::array<Cycle, 128> regReady_{};
    std::vector<Cycle> aluPool_, complexPool_, fpPool_, memPool_;
    Cycle lastRetire_ = 0;
    u64 instructions_ = 0;
    u64 translatorInsts_ = 0;
    Cycle translatorCycles_ = 0;
    u32 vthreads_ = 1;
    Counter *cCycles_;
    Counter *cInsts_;
    Counter *cAluOps_;
    Counter *cMulOps_;
    Counter *cDivOps_;
    Counter *cFpOps_;
    Counter *cMemOps_;
    Counter *cBranches_;
    Counter *cFetchStallCycles_;
    Counter *cTranslatorInsts_;
};

void
RefCore::recordConcurrent(u64 host_insts)
{
    translatorInsts_ += host_insts;
    translatorCycles_ = (translatorInsts_ + vthreads_ - 1) / vthreads_;
    cTranslatorInsts_->inc(host_insts);
    cCycles_->set(cycles());
}

Cycle
RefCore::reserveFu(std::vector<Cycle> &pool, Cycle when, Cycle busy)
{
    // Earliest-available unit; in-order issue waits for it.
    std::size_t best = 0;
    for (std::size_t u = 1; u < pool.size(); ++u) {
        if (pool[u] < pool[best])
            best = u;
    }
    Cycle start = std::max(when, pool[best]);
    pool[best] = start + busy;
    return start;
}

void
RefCore::record(const InstRecord &rec)
{
    ++instructions_;
    cInsts_->inc();

    // ---- front end -----------------------------------------------------
    u64 line = rec.pc >> fetchLineShift_;
    if (line != lastFetchLine_) {
        lastFetchLine_ = line;
        Cycle lat = itlb_->access(rec.pc) + l1i_->access(rec.pc, false);
        Cycle ready = fetchCycle_ + lat;
        if (lat > 1)
            cFetchStallCycles_->inc(lat - 1);
        lineReady_ = std::max(lineReady_, ready);
    }
    if (fetchedThisCycle_ >= fetchWidth_) {
        fetchCycle_ += 1;
        fetchedThisCycle_ = 0;
    }
    fetchCycle_ = std::max(fetchCycle_, lineReady_);
    ++fetchedThisCycle_;

    // Enter the instruction queue (decode pipeline), bounded by IQ
    // occupancy: the slot of the instruction iq_size back must have
    // issued before we can enter.
    Cycle enter = fetchCycle_ + frontendDepth_;
    enter = std::max(enter, iqRing_[iqHead_]);

    // ---- back end: in-order issue --------------------------------------
    Cycle ready = enter;
    if (rec.src1 != noReg)
        ready = std::max(ready, regReady_[rec.src1]);
    if (rec.src2 != noReg)
        ready = std::max(ready, regReady_[rec.src2]);
    // In-order constraint.
    ready = std::max(ready, issueCycle_);

    Cycle lat = latAlu_;
    Cycle issue = ready;
    switch (rec.cls) {
      case InstClass::IntMul:
        issue = reserveFu(complexPool_, ready, 1);
        lat = latMul_;
        cMulOps_->inc();
        break;
      case InstClass::IntDiv:
        issue = reserveFu(complexPool_, ready, latDiv_); // unpipelined
        lat = latDiv_;
        cDivOps_->inc();
        break;
      case InstClass::FpAlu:
      case InstClass::FpMul:
        issue = reserveFu(fpPool_, ready, 1);
        lat = latFp_;
        cFpOps_->inc();
        break;
      case InstClass::FpDiv:
        issue = reserveFu(fpPool_, ready, latFpDiv_);
        lat = latFpDiv_;
        cFpOps_->inc();
        break;
      case InstClass::Load:
      case InstClass::Store: {
        issue = reserveFu(memPool_, ready, 1);
        Cycle mlat = dtlb_->access(rec.memAddr) +
                     l1d_->access(rec.memAddr,
                                  rec.cls == InstClass::Store);
        prefetcher_->observe(rec.pc, rec.memAddr);
        lat = mlat;
        cMemOps_->inc();
        break;
      }
      case InstClass::Branch:
      case InstClass::Jump: {
        issue = reserveFu(aluPool_, ready, 1);
        lat = latBranch_;
        cBranches_->inc();
        bool mispredict = false;
        if (rec.cls == InstClass::Branch) {
            mispredict = gshare_->update(rec.pc, rec.taken);
        }
        if (rec.taken) {
            u32 predicted;
            bool btb_hit = btb_->lookup(rec.pc, predicted);
            if (!btb_hit || predicted != rec.nextPc)
                mispredict = true;
            btb_->update(rec.pc, rec.nextPc);
        }
        if (mispredict) {
            // Redirect: the front end restarts after resolution.
            Cycle resolve = issue + lat;
            fetchCycle_ = std::max(fetchCycle_, resolve + 1);
            fetchedThisCycle_ = 0;
            lineReady_ = fetchCycle_;
            lastFetchLine_ = ~0ull;
        }
        break;
      }
      default:
        issue = reserveFu(aluPool_, ready, 1);
        lat = latAlu_;
        cAluOps_->inc();
        break;
    }

    // Issue-width accounting.
    if (issue == issueCycle_) {
        if (++issuedThisCycle_ > issueWidth_) {
            issue += 1;
            issuedThisCycle_ = 1;
        }
    } else {
        issuedThisCycle_ = 1;
    }
    issueCycle_ = issue;

    if (rec.dst != noReg)
        regReady_[rec.dst] = issue + lat;
    lastRetire_ = std::max(lastRetire_, issue + lat);

    // IQ slot recycles at issue.
    iqRing_[iqHead_] = issue;
    if (++iqHead_ == iqSize_)
        iqHead_ = 0;

    cCycles_->set(cycles());
}

/**
 * A seeded host stream for the core: a static program of 4096 slots in
 * four 16 KiB code regions, each slot with a fixed class, operands
 * (integer, FP and absent) and branch target. Walking it crosses fetch
 * lines and pages; branches go either way at a per-slot bias, jumps
 * are mostly taken, and one taken CTI in ten reports a target the BTB
 * has not seen. Loads and stores either follow a per-slot stride (the
 * prefetcher arms) or draw from an AddrStream.
 */
class CoreStream
{
  public:
    explicit CoreStream(u64 seed) : addrs_(seed, 1 << 20, 256)
    {
        Rng &rng = addrs_.rng();
        for (u32 &b : bases_)
            b = u32(rng.range(1, 0xffff)) << 16;
        const double bias[] = {0.03, 0.5, 0.97};
        const s32 strides[] = {0, 0, 4, 64, 200, -64};
        for (Slot &s : code_) {
            s.cls = InstClass(rng.range(0, u64(InstClass::Other)));
            s.dst = reg();
            s.src1 = reg();
            s.src2 = reg();
            s.target = u32(rng.range(0, kSlots - 1));
            s.bias = bias[rng.range(0, 2)];
            s.stride = strides[rng.range(0, std::size(strides) - 1)];
            s.addr = u32(rng.next());
        }
    }

    InstRecord
    next()
    {
        Rng &rng = addrs_.rng();
        Slot &s = code_[slot_];
        InstRecord r;
        r.pc = pcOf(region_, slot_);
        r.cls = s.cls;
        r.dst = s.dst;
        r.src1 = s.src1;
        r.src2 = s.src2;
        r.nextPc = r.pc + 4;
        u32 nextSlot = (slot_ + 1) % kSlots;
        if (s.cls == InstClass::Load || s.cls == InstClass::Store) {
            r.memAddr = s.stride ? (s.addr += u32(s.stride)) : addrs_.next();
        } else if (s.cls == InstClass::Branch || s.cls == InstClass::Jump) {
            r.taken = rng.chance(s.cls == InstClass::Jump ? 0.9 : s.bias);
            if (r.taken) {
                if (rng.chance(0.01))
                    region_ = u32(rng.range(0, bases_.size() - 1));
                nextSlot = rng.chance(0.1) ? u32(rng.range(0, kSlots - 1))
                                           : s.target;
                r.nextPc = pcOf(region_, nextSlot);
            }
        }
        slot_ = nextSlot;
        return r;
    }

  private:
    static constexpr u32 kSlots = 4096;

    struct Slot
    {
        InstClass cls;
        u8 dst, src1, src2;
        u32 target;
        double bias;
        s32 stride;
        u32 addr;
    };

    u8
    reg()
    {
        Rng &rng = addrs_.rng();
        double p = rng.uniform();
        if (p < 0.25)
            return host::noReg;
        u8 r = u8(rng.range(0, 63));
        return p < 0.65 ? r : u8(r | host::regFpBit);
    }

    u32 pcOf(u32 region, u32 slot) const { return bases_[region] + 4 * slot; }

    AddrStream addrs_;
    std::array<u32, 4> bases_{};
    std::array<Slot, kSlots> code_{};
    u32 region_ = 0;
    u32 slot_ = 0;
};

} // namespace

TEST(CacheModel, MatchesNaiveReferenceOnSeededStreams)
{
    struct Geometry
    {
        u32 l1Size, l1Assoc, l2Size, l2Assoc, line;
    };
    const Geometry geoms[] = {
        {32768, 4, 262144, 8, 64}, // the defaults
        {128, 4, 1024, 2, 32},     // 1-set L1 (all ways, one set)
        {1024, 1, 8192, 1, 16},    // direct-mapped at both levels
        {3072, 3, 24576, 6, 64},   // non-power-of-two associativity
        {65536, 2, 1 << 20, 4, 4096}, // large lines: 8-set L1
        {64, 1, 128, 1, 64},       // one line per level
    };
    for (std::size_t g = 0; g < std::size(geoms); ++g) {
        const Geometry &geo = geoms[g];
        SCOPED_TRACE("geometry " + std::to_string(g));
        StatGroup st("t");
        Cache l2("l2", geo.l2Size, geo.l2Assoc, geo.line, 12, 120,
                 nullptr, st);
        Cache l1("l1", geo.l1Size, geo.l1Assoc, geo.line, 2, 0, &l2, st);
        RefCache r2(geo.l2Size, geo.l2Assoc, geo.line, 12, 120, nullptr);
        RefCache r1(geo.l1Size, geo.l1Assoc, geo.line, 2, 0, &r2);
        const Counter &l1wb = st.counter("l1.writebacks");
        const Counter &l1pf = st.counter("l1.prefetches");
        const Counter &l2wb = st.counter("l2.writebacks");
        const Counter &l2pf = st.counter("l2.prefetches");

        AddrStream addrs(1000 + g, 2 * geo.l2Size, 2 * geo.line);
        for (u64 k = 0; k < kDiffAccesses; ++k) {
            u32 a = addrs.next();
            if (addrs.rng().chance(0.1)) {
                l1.prefetch(a);
                r1.prefetch(a);
            } else {
                bool write = addrs.rng().chance(0.3);
                ASSERT_EQ(l1.access(a, write), r1.access(a, write))
                    << "access " << k << " addr " << a;
            }
            ASSERT_EQ(l1.hits(), r1.hits) << "access " << k;
            ASSERT_EQ(l1.misses(), r1.misses) << "access " << k;
            ASSERT_EQ(l1wb.value(), r1.writebacks) << "access " << k;
            ASSERT_EQ(l1pf.value(), r1.prefetches) << "access " << k;
            ASSERT_EQ(l2.hits(), r2.hits) << "access " << k;
            ASSERT_EQ(l2.misses(), r2.misses) << "access " << k;
            ASSERT_EQ(l2wb.value(), r2.writebacks) << "access " << k;
            ASSERT_EQ(l2pf.value(), r2.prefetches) << "access " << k;
        }
        // The stream exercised every outcome.
        EXPECT_GT(r1.hits, 0u);
        EXPECT_GT(r2.hits, 0u);
        EXPECT_GT(r2.misses, 0u);
        EXPECT_GT(r1.writebacks, 0u);
    }
}

TEST(TlbModel, MatchesNaiveReferenceOnSeededStreams)
{
    struct Geometry
    {
        u32 l1, l2;
    };
    const Geometry geoms[] = {
        {32, 256}, // the defaults
        {1, 1},    // one entry per level
        {1, 8},    // 1-entry L1: every fill evicts the MRU entry
        {3, 5},
        {2, 64},
        {64, 65536}, // a large hashed index that evicts
    };
    const Cycle l2Lat = 4, walkLat = 40;
    for (std::size_t g = 0; g < std::size(geoms); ++g) {
        const Geometry &geo = geoms[g];
        SCOPED_TRACE("geometry " + std::to_string(g));
        StatGroup st("t");
        Tlb tlb("tlb", geo.l1, geo.l2, l2Lat, walkLat, st);
        RefTlbLevel r1(geo.l1), r2(geo.l2);
        const Counter &h1 = st.counter("tlb.l1.hits");
        const Counter &m1 = st.counter("tlb.l1.misses");
        const Counter &h2 = st.counter("tlb.l2.hits");
        const Counter &m2 = st.counter("tlb.l2.misses");

        // Pages from a working set about twice the L2; short steps
        // keep most accesses on the last page (the MRU path). The
        // large L2 needs more accesses than it has entries to evict.
        AddrStream addrs(2000 + g, 2 * geo.l2 * 4096, 8192);
        const u64 accesses = std::max<u64>(kDiffAccesses, 8 * geo.l2);
        for (u64 k = 0; k < accesses; ++k) {
            u32 a = addrs.next();
            u32 vpn = a / 4096;
            Cycle expect = r1.access(vpn)   ? 0
                           : r2.access(vpn) ? l2Lat
                                            : l2Lat + walkLat;
            ASSERT_EQ(tlb.access(a), expect)
                << "access " << k << " addr " << a;
            ASSERT_EQ(h1.value(), r1.hits) << "access " << k;
            ASSERT_EQ(m1.value(), r1.misses) << "access " << k;
            ASSERT_EQ(h2.value(), r2.hits) << "access " << k;
            ASSERT_EQ(m2.value(), r2.misses) << "access " << k;
        }
        EXPECT_GT(r1.hits, 0u);
        EXPECT_GT(r1.misses, 0u);
        EXPECT_GT(r2.misses, u64(geo.l2)) << "the L2 evicted";
        if (geo.l2 > geo.l1) { // else the L2 only mirrors the L1
            EXPECT_GT(r2.hits, 0u);
        }
    }
}

TEST(CoreModel, MatchesNaiveReferenceOnSeededStreams)
{
    const std::vector<std::vector<std::string>> geoms = {
        {}, // the defaults
        {"core.num_alu=1", "core.issue_width=1", "core.fetch_width=1",
         "core.iq_size=1"},
        {"core.num_alu=3", "core.num_complex=2", "core.num_fp=2",
         "core.num_mem_ports=2", "core.issue_width=4", "core.iq_size=16",
         "tol.async.vthreads=3"},
        {"core.num_alu=2", "core.num_mem_ports=2", "core.issue_width=4",
         "core.fetch_width=1", "core.iq_size=1", "core.lat_div=1"},
        // Tiny caches, TLBs and predictors.
        {"l1i.size=1024", "l1i.assoc=1", "l1d.size=1024", "l1d.assoc=2",
         "l2.size=4096", "l2.assoc=1", "cache.line=16",
         "tlb.l1_entries=1", "tlb.l2_entries=2", "bpred.entries=16",
         "btb.entries=4", "prefetch.degree=4", "core.num_alu=1",
         "core.num_complex=2", "core.num_fp=2"},
        // One-set L1s, odd TLB sizes, no prefetcher.
        {"l1i.size=1024", "l1i.assoc=16", "l1d.size=1024", "l1d.assoc=16",
         "tlb.l1_entries=3", "tlb.l2_entries=5", "prefetch.enable=false",
         "core.issue_width=2", "core.fetch_width=4"},
    };
    for (std::size_t g = 0; g < geoms.size(); ++g) {
        SCOPED_TRACE("geometry " + std::to_string(g));
        Config cfg(geoms[g]);
        StatGroup ms("model"), rs("ref");
        InOrderCore model(cfg, ms);
        RefCore ref(cfg, rs);
        CoreStream stream(3000 + g);
        Rng split(4000 + g);

        // Random block splits of 1 to 5000 records, half of them short,
        // with recordConcurrent at random block boundaries.
        std::vector<InstRecord> block;
        u64 fed = 0, blocks = 0;
        while (fed < kDiffAccesses) {
            u64 n = 1 + split.range(0, split.chance(0.5) ? 49 : 4999);
            n = std::min(n, kDiffAccesses - fed);
            block.clear();
            for (u64 i = 0; i < n; ++i)
                block.push_back(stream.next());
            model.recordBlock(block.data(), block.size());
            for (const InstRecord &r : block)
                ref.record(r);
            while (split.chance(0.3)) {
                u64 insts = split.range(1, 20'000);
                model.recordConcurrent(insts);
                ref.recordConcurrent(insts);
            }
            fed += n;
            ++blocks;
            ASSERT_EQ(model.cycles(), ref.cycles()) << "block " << blocks;
            ASSERT_EQ(model.instructions(), ref.instructions())
                << "block " << blocks;
            const std::map<std::string, u64> want = ref.counters();
            ASSERT_EQ(ms.counters().size(), want.size());
            for (const auto &[name, c] : ms.counters()) {
                auto it = want.find(name);
                ASSERT_NE(it, want.end()) << name;
                ASSERT_EQ(c.value(), it->second)
                    << name << " after block " << blocks;
            }
        }
        // The stream exercised every class and outcome.
        const std::map<std::string, u64> got = ref.counters();
        for (const char *name :
             {"core.alu_ops", "core.mul_ops", "core.div_ops", "core.fp_ops",
              "core.mem_ops", "core.branches", "core.fetch_stall_cycles",
              "l1i.misses", "l1d.hits", "l1d.misses", "l1d.writebacks",
              "l2.hits", "l2.misses", "itlb.l1.misses", "dtlb.l2.misses",
              "bpred.mispredicts", "btb.hits", "btb.misses"})
            EXPECT_GT(got.at(name), 0u) << name;
        if (conf::getBool(cfg, "prefetch.enable")) {
            EXPECT_GT(got.at("prefetch.issued"), 0u);
        }
    }
}

TEST(BpredModel, GshareLearnsLoopPattern)
{
    StatGroup st("t");
    Gshare g(1024, 8, st);
    // Always-taken branch: after warm-up no mispredicts.
    for (int i = 0; i < 100; ++i)
        g.update(0x400, true);
    u64 before = st.value("bpred.mispredicts");
    for (int i = 0; i < 100; ++i)
        g.update(0x400, true);
    EXPECT_EQ(st.value("bpred.mispredicts"), before);
}

TEST(BpredModel, FullHistoryRegisterLearnsLoop)
{
    // A loop branch taken 7 times in 8. Every history length up to the
    // 32-bit register learns it; 32 once masked the history to nothing.
    auto mispredicts = [](u32 history) {
        StatGroup st("t");
        Gshare g(4096, history, st);
        for (u32 i = 0; i < 80'000; ++i)
            g.update(0x400, i % 8 != 7);
        return st.value("bpred.mispredicts");
    };
    const u64 at8 = mispredicts(8), at31 = mispredicts(31);
    EXPECT_LT(at8, 100u);
    EXPECT_LT(at31, 100u);
    EXPECT_EQ(mispredicts(32), at31) << "the table sees the low 12 bits";
}

TEST(BpredModel, BtbRemembersTargets)
{
    StatGroup st("t");
    Btb btb(256, st);
    u32 t;
    EXPECT_FALSE(btb.lookup(0x100, t));
    btb.update(0x100, 0x2000);
    ASSERT_TRUE(btb.lookup(0x100, t));
    EXPECT_EQ(t, 0x2000u);
}

TEST(PrefetchModel, DetectsStride)
{
    StatGroup st("t");
    Cache c("c", 1 << 14, 4, 64, 1, 50, nullptr, st);
    StridePrefetcher p(64, 2, &c, st);
    // Strided stream from one pc.
    for (u32 i = 0; i < 8; ++i)
        p.observe(0x500, 0x10000 + i * 256);
    EXPECT_GT(st.value("prefetch.issued"), 0u);
    // Lines ahead of the stream should now be resident.
    EXPECT_TRUE(c.probe(0x10000 + 8 * 256));
}

TEST(CoreModel, DependencyChainSlowerThanIndependent)
{
    Config cfg;
    StatGroup s1("a"), s2("b");
    InOrderCore dep(cfg, s1), indep(cfg, s2);
    // Dependent vs independent adds over a warm, looping footprint.
    for (int i = 0; i < 2000; ++i)
        dep.record(alu(0x1000 + 4 * (i % 16), 5, 5, 6));
    for (int i = 0; i < 2000; ++i)
        indep.record(alu(0x1000 + 4 * (i % 16), u8(5 + (i % 8)), 20,
                         21));
    EXPECT_EQ(dep.instructions(), 2000u);
    EXPECT_GE(indep.ipc(), dep.ipc());
    EXPECT_GT(indep.ipc(), 1.0) << "2-wide core on independent work";
}

TEST(CoreModel, IssueWidthBoundsIpc)
{
    Config w1({"core.issue_width=1"});
    Config w4({"core.issue_width=4", "core.fetch_width=8"});
    StatGroup s1("a"), s4("b");
    InOrderCore c1(w1, s1), c4(w4, s4);
    for (int i = 0; i < 500; ++i) {
        c1.record(alu(0x1000 + 4 * (i % 16), u8(5 + (i % 8)), 20, 21));
        c4.record(alu(0x1000 + 4 * (i % 16), u8(5 + (i % 8)), 20, 21));
    }
    EXPECT_LE(c1.ipc(), 1.01);
    EXPECT_GT(c4.ipc(), c1.ipc() * 1.5);
}

TEST(CoreModel, CacheMissesStallLoads)
{
    Config cfg;
    StatGroup s1("a"), s2("b");
    InOrderCore hitter(cfg, s1), misser(cfg, s2);
    // Same-line loads vs 4 KiB-strided loads (all L1 misses), with a
    // dependent consumer after each load.
    for (int i = 0; i < 100; ++i) {
        hitter.record(load(0x1000 + 4 * (i % 4), 0x8000, 5));
        hitter.record(alu(0x1100, 6, 5, 5));
        misser.record(load(0x1000 + 4 * (i % 4), 0x8000 + i * 8192, 5));
        misser.record(alu(0x1100, 6, 5, 5));
    }
    EXPECT_GT(misser.cycles(), hitter.cycles() * 3);
    EXPECT_GT(s2.value("l1d.misses"), 90u);
}

TEST(CoreModel, MispredictsCostCycles)
{
    Config cfg;
    StatGroup s1("a"), s2("b");
    InOrderCore good(cfg, s1), bad(cfg, s2);
    // Truly random outcomes (xoshiro): history contexts repeat with
    // conflicting outcomes, so gshare cannot memorize the stream (a
    // short fixed sequence it actually CAN learn — that's by design).
    Rng rng(99);
    for (u32 i = 0; i < 8000; ++i) {
        good.record(alu(0x1000, 5, 6, 7));
        good.record(branch(0x1004, true, 0x1000));
        bad.record(alu(0x1000, 5, 6, 7));
        bad.record(branch(0x1004, rng.chance(0.5), 0x1000));
    }
    EXPECT_GT(s2.value("bpred.mispredicts"),
              s1.value("bpred.mispredicts") + 1000);
    EXPECT_GT(bad.cycles(), good.cycles());
}

TEST(CoreModel, DivOccupiesUnit)
{
    Config cfg;
    StatGroup s1("a"), s2("b");
    InOrderCore divs(cfg, s1), adds(cfg, s2);
    for (int i = 0; i < 500; ++i) {
        InstRecord r = alu(0x1000 + 4 * (i % 16), u8(5 + (i % 4)), 20,
                           21);
        r.cls = InstClass::IntDiv;
        divs.record(r);
        adds.record(alu(0x1000 + 4 * (i % 16), u8(5 + (i % 4)), 20,
                        21));
    }
    EXPECT_GT(divs.cycles(), adds.cycles() * 5);
}

TEST(PowerModel, EnergyScalesWithWork)
{
    Config cfg;
    StatGroup small("a"), big("b");
    InOrderCore c1(cfg, small), c2(cfg, big);
    for (int i = 0; i < 100; ++i)
        c1.record(alu(0x1000 + 4 * i, 5, 6, 7));
    for (int i = 0; i < 10000; ++i)
        c2.record(alu(0x1000 + 4 * (i % 64), 5, 6, 7));

    power::PowerModel pm;
    auto r1 = pm.analyze(small);
    auto r2 = pm.analyze(big);
    EXPECT_GT(r1.totalEnergyJ, 0.0);
    // Not a strict 100x: the small run is dominated by cold-cache
    // DRAM fills, a fixed cost the long run amortizes.
    EXPECT_GT(r2.totalEnergyJ, r1.totalEnergyJ * 5);
    EXPECT_GT(r1.epiNj, 0.0);
    EXPECT_FALSE(r2.toString().empty());
}

TEST(PowerModel, BreakdownCoversStructures)
{
    Config cfg;
    StatGroup st("t");
    InOrderCore core(cfg, st);
    for (int i = 0; i < 1000; ++i) {
        core.record(load(0x1000 + 4 * (i % 8), 0x8000 + (i % 256) * 64,
                         5));
        core.record(branch(0x1100, true, 0x1000));
    }
    power::PowerModel pm;
    auto r = pm.analyze(st);
    bool has_l1 = false, has_leak = false, has_bpred = false;
    for (auto &[k, v] : r.breakdownJ) {
        has_l1 |= k == "l1_caches" && v > 0;
        has_leak |= k == "leakage" && v > 0;
        has_bpred |= k == "bpred+btb" && v > 0;
    }
    EXPECT_TRUE(has_l1);
    EXPECT_TRUE(has_leak);
    EXPECT_TRUE(has_bpred);
}

TEST(PowerModel, WiderCoreUsesMoreEnergyPerCycleLessTime)
{
    // The paper's "wide in-order" exploration needs power to respond
    // to configuration: a faster run shrinks leakage share.
    Config cfg;
    StatGroup s1("a"), s4("b");
    InOrderCore narrow(Config({"core.issue_width=1"}), s1);
    InOrderCore wide(Config({"core.issue_width=4",
                             "core.fetch_width=8"}),
                     s4);
    for (int i = 0; i < 5000; ++i) {
        narrow.record(alu(0x1000 + 4 * (i % 32), u8(5 + (i % 8)), 20,
                          21));
        wide.record(alu(0x1000 + 4 * (i % 32), u8(5 + (i % 8)), 20,
                        21));
    }
    power::PowerModel pm;
    auto rn = pm.analyze(s1);
    auto rw = pm.analyze(s4);
    EXPECT_LT(rw.timeSeconds, rn.timeSeconds);
    EXPECT_GT(rw.avgPowerW, rn.avgPowerW);
}
