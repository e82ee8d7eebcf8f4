/**
 * @file
 * The host functional emulator.
 *
 * Executes translated HISA code from the code cache against the
 * emulated guest memory. Implements the co-design primitives:
 * CKPT/COMMIT regions with store gating, the speculative-load alias
 * table, assert rollback, and the IBTC probe. Every control exit
 * (EXITB, IBTC miss, assert/alias failure, page miss, division fault)
 * returns to TOL with a populated ExitInfo.
 *
 * Gated stores live in a program-order store buffer: one entry per
 * store instruction. A load inside the region reads memory and then
 * forwards, byte by byte, from the entries that overlap it, oldest
 * first; COMMIT replays the entries in order.
 */

#ifndef DARCO_HOST_HEMU_HH
#define DARCO_HOST_HEMU_HH

#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "guest/memory.hh"
#include "guest/state.hh"
#include "host/code_cache.hh"
#include "host/hisa.hh"
#include "host/trace.hh"

namespace darco::host
{

/**
 * Observer of RETIRE markers (guest-retirement accounting).
 *
 * Chained regions and IBTC hits transfer control inside the code
 * cache without returning to TOL, so retirement must be observed at
 * the emulator level: each exit stub executes RETIRE with its global
 * exit id just before leaving the region.
 */
class RetireSink
{
  public:
    virtual ~RetireSink() = default;
    /**
     * @param exit_id    global exit-table id from the RETIRE operand
     * @param host_insts host instructions executed since the previous
     *                   retirement mark (attribution for Fig. 5/6)
     */
    virtual void onRetire(u32 exit_id, u64 host_insts) = 0;
};

/** Why the emulator returned control to TOL. */
enum class ExitKind : u8
{
    Exit,       //!< EXITB executed (normal region exit)
    IbtcMiss,   //!< indirect branch target not in the IBTC
    AssertFail, //!< assert failed; state rolled back to checkpoint
    AliasFail,  //!< speculative load/store aliased; rolled back
    DivFault,   //!< division fault; rolled back if speculative
    PageMiss,   //!< guest page absent; rolled back
    Budget,     //!< instruction budget exhausted mid-execution
};

/** Exit report from HostEmu::run(). */
struct ExitInfo
{
    ExitKind kind = ExitKind::Exit;
    u32 exitId = 0;        //!< EXITB operand
    GAddr guestTarget = 0; //!< IBTC-miss guest pc
    u32 assertId = 0;      //!< failing assert's id
    GAddr missPage = 0;    //!< PageMiss page base
    u64 instsExecuted = 0; //!< host instructions retired this run
};

/**
 * The Indirect Branch Translation Cache (IBTC), after Scott et al.
 * [17]: a direct-mapped software cache from guest target pc to host
 * code-cache pc, probed inline by the IBTC instruction.
 */
class IbtcTable
{
  public:
    explicit IbtcTable(u32 entries = 512);

    bool lookup(GAddr guest_pc, u32 &host_pc) const;
    void insert(GAddr guest_pc, u32 host_pc);
    /** Drop the entry for one guest pc (translation invalidated). */
    void invalidate(GAddr guest_pc);
    /**
     * Drop every entry whose host target lies in [base, base+words):
     * required when a code-cache region is evicted and its words may
     * be reused by a different translation.
     */
    void invalidateHostRange(u32 base, u32 words);
    void clear();

    u64 hits() const { return hits_; }
    u64 misses() const { return misses_; }

  private:
    friend class HostEmu;

    struct Entry
    {
        GAddr tag = ~0u;
        u32 hostPc = 0;
    };

    u32
    index(GAddr pc) const
    {
        return (pc ^ (pc >> 7)) & mask_;
    }

    std::vector<Entry> entries_;
    u32 mask_;
    mutable u64 hits_ = 0;
    mutable u64 misses_ = 0;
};

/** Host register context. */
struct HostContext
{
    std::array<u32, numHRegs> gpr{};
    std::array<double, numHFRegs> fpr{};
    u32 pc = 0; //!< word index into the code cache
};

/**
 * Functional emulator for HISA. Its parameters (hemu.*) and their
 * defaults are listed in docs/CONFIG.md.
 */
class HostEmu
{
  public:
    /** TOL-local (concealed) memory size in bytes. */
    static constexpr u32 localMemBytes = 1u << 20;

    HostEmu(CodeCache &cache, guest::PagedMemory &guest_mem,
            const Config &cfg = Config());

    /**
     * Run from host pc until an exit condition or max_insts.
     * Never throws PageMiss: misses roll back and report.
     */
    ExitInfo run(u32 host_pc, u64 max_insts = ~0ull);

    HostContext &ctx() { return ctx_; }
    const HostContext &ctx() const { return ctx_; }

    /** Copy guest architectural state into the mapped host registers. */
    void loadGuestState(const guest::CpuState &st);
    /** Extract guest architectural state (pc is not represented). */
    void storeGuestState(guest::CpuState &st) const;

    IbtcTable &ibtc() { return ibtc_; }

    /**
     * Retarget the emulator at another guest address space (multi-core
     * guest: the TOL switches the shared emulator to the scheduled
     * core's memory at core-switch boundaries, never mid-region).
     */
    void setMemory(guest::PagedMemory &mem) { mem_ = &mem; }

    /** FP constant pool backing FLDC. */
    std::vector<double> &fpPool() { return fpPool_; }

    /** TOL-local memory (profiling counters, spill slots). */
    u32 readLocal32(u32 addr) const;
    void writeLocal32(u32 addr, u32 v);

    void setTraceSink(TraceSink *sink) { sink_ = sink; }
    void setRetireSink(RetireSink *sink) { retireSink_ = sink; }

    u64 instsExecuted() const { return totalInsts_; }
    u64 rollbacks() const { return rollbacks_; }

    /** Host instructions since the last RETIRE (rollback attribution). */
    u64 instsSinceMark() const { return sinceMark_; }
    void resetMark() { sinceMark_ = 0; }

  private:
    /** Discard speculative state and restore the checkpoint. */
    void rollback();

    /** Guest load of 1, 2, 4 or 8 bytes, through the store buffer. */
    u64 specRead(GAddr a, unsigned size);
    /** Guest store of 1, 2, 4 or 8 bytes, gated while speculative. */
    void specWrite(GAddr a, u64 v, unsigned size);

    /** Raise PageMiss if the page backing [a, a+size) is absent. */
    void probePages(GAddr a, unsigned size);

    /** Check a store against recorded speculative loads. */
    bool aliasesSpecLoad(GAddr a, unsigned size) const;

    CodeCache &cache_;
    guest::PagedMemory *mem_; //!< current core's guest memory
    HostContext ctx_;

    // Speculative region state.
    bool speculative_ = false;
    HostContext ckpt_;
    /** One gated store; value holds its bytes little-endian. */
    struct SpecStore
    {
        GAddr addr;
        u32 size;
        u64 value;
    };
    std::vector<SpecStore> storeBuf_; //!< program order
    struct SpecLoad
    {
        GAddr addr;
        u8 size;
    };
    std::vector<SpecLoad> specLoads_;

    IbtcTable ibtc_;
    std::vector<double> fpPool_;
    std::vector<u8> localMem_;
    TraceSink *sink_ = nullptr;
    RetireSink *retireSink_ = nullptr;

    u32 ibtcHitCost_;
    u64 totalInsts_ = 0;
    u64 rollbacks_ = 0;
    u64 sinceMark_ = 0;
};

} // namespace darco::host

#endif // DARCO_HOST_HEMU_HH
