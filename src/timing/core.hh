/**
 * @file
 * The DARCO timing simulator (paper Section V-C): a parameterized
 * in-order superscalar core with independent front- and back-ends
 * separated by an instruction queue.
 *
 *  - Front-end: fetches through ITLB + L1I, predicts with BTB +
 *    gshare, decodes into the instruction queue.
 *  - Back-end: issues in order up to issue_width per cycle, tracking
 *    dependencies and resource availability with scoreboarding;
 *    simple/complex/FP("vector") units with configurable counts and
 *    latencies; loads/stores go through DTLB + L1D + L2 with a stride
 *    prefetcher.
 *
 * The model is trace-driven from the co-designed component's dynamic
 * host instruction stream (TraceSink), per the paper's architecture.
 * It takes the stream a block at a time (recordBlock; record() is a
 * block of one): the pipeline state lives in locals for the block,
 * and the instruction, op-class and fetch-stall counters are summed
 * and added, and core.cycles set, once at its end. Nothing reads the
 * model inside a block (the trace pipeline delivers whole blocks
 * before any drain returns), so every reader sees the numbers that
 * record-by-record updates give. The caches, TLBs and issue logic are
 * built for this loop: compact cache lines searched without early
 * exit, hashed TLB levels, a unit pool and latency per class read
 * from a table, branch-free issue-width accounting, and a scoreboard
 * slot for noReg that always reads 0.
 *
 * Config keys (defaults):
 *   core.issue_width (2), core.fetch_width (4), core.iq_size (16),
 *   core.frontend_depth (4), core.mispredict_penalty (+frontend),
 *   core.num_alu (2), core.num_complex (1), core.num_fp (1),
 *   core.num_mem_ports (1),
 *   core.lat_alu (1), core.lat_mul (3), core.lat_div (12),
 *   core.lat_fp (4), core.lat_fpdiv (12), core.lat_branch (1),
 *   l1i.size (32768), l1i.assoc (4), l1i.lat (1),
 *   l1d.size (32768), l1d.assoc (4), l1d.lat (2),
 *   l2.size (262144), l2.assoc (8), l2.lat (12),
 *   cache.line (64), mem.lat (120),
 *   tlb.l1_entries (32), tlb.l2_entries (256), tlb.l2_lat (4),
 *   tlb.walk_lat (40),
 *   bpred.entries (4096), bpred.history (8), btb.entries (1024),
 *   prefetch.entries (64), prefetch.degree (2)
 */

#ifndef DARCO_TIMING_CORE_HH
#define DARCO_TIMING_CORE_HH

#include <array>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "host/trace.hh"
#include "timing/bpred.hh"
#include "timing/cache.hh"
#include "timing/prefetch.hh"
#include "timing/tlb.hh"

namespace darco::timing
{

/** In-order superscalar core consuming the host dynamic stream. */
class InOrderCore : public host::TraceSink
{
  public:
    InOrderCore(const Config &cfg, StatGroup &stats);

    // TraceSink
    void record(const host::InstRecord &rec) override
    {
        recordBlock(&rec, 1);
    }
    void recordBlock(const host::InstRecord *recs, std::size_t n) override;
    void recordConcurrent(u64 host_insts) override;

    /**
     * Total cycles including pipeline drain. Concurrent-translator
     * work is overlapped, not serialized: the modeled translator
     * threads (`tol.async.vthreads`) retire roughly one instruction
     * per cycle each, so the run takes
     * max(main-core cycles, translator insts / vthreads).
     */
    Cycle cycles() const;
    u64 instructions() const { return instructions_; }
    double ipc() const
    {
        Cycle c = cycles();
        return c ? double(instructions_) / double(c) : 0.0;
    }

    StatGroup &stats() { return stats_; }

  private:
    static constexpr std::size_t numClasses =
        std::size_t(host::InstClass::Other) + 1;

    /** How an instruction class issues: to the earliest-free unit of
     *  units_[begin, end), holding it `busy` cycles; its result is
     *  ready `lat` cycles after issue (loads and stores: the memory
     *  access time instead). */
    struct IssueRule
    {
        u32 begin, end;
        Cycle busy, lat;
    };

    StatGroup &stats_;

    // Parameters.
    u32 issueWidth_, fetchWidth_, iqSize_, frontendDepth_;
    std::array<IssueRule, numClasses> issueRule_;

    // Structures.
    std::unique_ptr<Cache> l2_, l1i_, l1d_;
    std::unique_ptr<Tlb> itlb_, dtlb_;
    std::unique_ptr<Gshare> gshare_;
    std::unique_ptr<Btb> btb_;
    std::unique_ptr<StridePrefetcher> prefetcher_;

    // Front-end state.
    u32 fetchLineShift_; //!< L1I lineShift()
    Cycle fetchCycle_ = 0;
    u32 fetchedThisCycle_ = 0;
    u64 lastFetchLine_ = ~0ull;
    Cycle lineReady_ = 0;

    // Instruction-queue occupancy: issue cycles of the last iq_size
    // instructions (entry blocks until the oldest leaves).
    std::vector<Cycle> iqRing_;
    u32 iqHead_ = 0;

    // Back-end state.
    Cycle issueCycle_ = 0;
    u32 issuedThisCycle_ = 0;
    /** Result-ready cycle per register operand; the noReg slot stays
     *  0, so an absent source reads as ready and needs no test. */
    std::array<Cycle, 256> regReady_{};
    /** Free cycle of each unit, pool by pool: ALUs, complex, FP, memory
     *  ports. */
    std::vector<Cycle> units_;
    Cycle lastRetire_ = 0;

    u64 instructions_ = 0;

    // Concurrent-translator overlap model: cycles the translator
    // threads need, ceil(translator insts / vthreads), kept current by
    // recordConcurrent so cycles() divides nothing per record.
    u64 translatorInsts_ = 0;
    Cycle translatorCycles_ = 0;
    u32 vthreads_ = 1;

    // Event counters for the power model.
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

} // namespace darco::timing

#endif // DARCO_TIMING_CORE_HH
