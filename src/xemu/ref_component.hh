/**
 * @file
 * The reference component (the paper's "x86 component").
 *
 * A full-program functional interpreter for GISA that owns the
 * authoritative architectural and memory state. It is the only
 * component that executes system code (syscalls), and it is the
 * correctness oracle the controller validates the co-designed
 * component against.
 */

#ifndef DARCO_XEMU_REF_COMPONENT_HH
#define DARCO_XEMU_REF_COMPONENT_HH

#include <atomic>

#include "common/stats.hh"
#include "guest/decode_cache.hh"
#include "guest/program.hh"
#include "guest/semantics.hh"
#include "xemu/os.hh"

namespace darco::xemu
{

/**
 * Authoritative guest interpreter + OS.
 *
 * Instruction counting contract (shared with the co-designed
 * component so the sync protocol can align execution points):
 *  - an instruction counts when it completes (REP continuations with
 *    ExecStatus::Again do not count),
 *  - a completed CTI (and a completed SYSCALL) also counts one
 *    dynamic basic block,
 *  - HLT counts neither: it terminates the program.
 */
class RefComponent
{
  public:
    explicit RefComponent(u64 seed = 1) : seed_(seed), os_(seed) {}

    /** Load a program; resets all execution state, the OS's too. */
    void load(const guest::Program &prog);

    /**
     * Execute exactly one guest instruction (REP continuations are
     * driven to completion). Handles syscalls through the OS model.
     *
     * @return false once the program has finished.
     */
    bool step();

    /** Run until `n` instructions have completed (or program end),
     *  a block at a time (guest::retireBlock), with step() for each
     *  SYSCALL, HLT or faulting instruction. */
    void runUntilInstCount(u64 n);

    /** Run to program end (HLT or sysExit), bounded by maxInsts. */
    void runToCompletion(u64 max_insts = ~0ull);

    /** Why runAhead() stopped. */
    enum class Stop : u8
    {
        Limit,   //!< instCount() reached the limit
        Guard,   //!< before a write to a page `holder` lacks
        Blocked, //!< before a SYSCALL or HLT (the caller executes
                 //!< them), before an instruction that raises, or at
                 //!< the program's end
    };

    /**
     * The run-ahead loop (sim/controller.hh): retire a block at a
     * time (guest::retireBlock) while instCount() is below `limit`,
     * and publish the count to `progress` after each block. Another
     * thread may move `limit` at any time; the loop reads it once per
     * block and never passes the value it read, so a lower limit
     * takes effect at the end of the current block. Every write is
     * guarded by `holder` (PagedMemory::setWriteGuard): a write to a
     * page `holder` lacks stops the loop before any byte of it
     * changes, with the page in guardPage(); the count of that block
     * is not published, but instCount() holds it. A REP string op may
     * have completed iterations before that stop, as after a PageMiss
     * in IM; resuming finishes it. The loop never executes a SYSCALL
     * or an HLT, and stops before an instruction that raises:
     * runUntilInstCount() raises the same exception again.
     */
    Stop runAhead(const std::atomic<u64> &limit,
                  std::atomic<u64> &progress,
                  const guest::PagedMemory &holder);

    /** The page of the last Guard stop. */
    GAddr guardPage() const { return guardPage_; }

    const guest::CpuState &state() const { return state_; }
    guest::CpuState &state() { return state_; }
    guest::PagedMemory &memory() { return mem_; }
    GuestOS &os() { return os_; }

    u64 instCount() const { return instCount_; }
    u64 bbCount() const { return bbCount_; }
    bool finished() const { return finished_; }
    u32 exitCode() const { return exitCode_; }

    /** Pages dirtied by the most recent syscall (sync protocol). */
    const std::vector<GAddr> &
    lastSyscallDirtiedPages() const
    {
        return lastDirtied_;
    }

    /**
     * Checkpoint hooks: the complete authoritative execution state
     * (registers, memory image, OS, counts). restore() replaces the
     * current state; no load() is needed first.
     */
    void save(snapshot::Serializer &s) const;
    void restore(snapshot::Deserializer &d);

  private:
    /** Execute one non-SYSCALL instruction (REP continuations driven
     *  to completion) and count it. */
    void retire(const guest::GInst &inst);

    u64 seed_;
    guest::PagedMemory mem_{guest::MissPolicy::AllocateZero};
    guest::CpuState state_;
    GuestOS os_;
    guest::DecodeCache decode_;

    u64 instCount_ = 0;
    u64 bbCount_ = 0;
    bool finished_ = false;
    u32 exitCode_ = 0;
    std::vector<GAddr> lastDirtied_;
    GAddr guardPage_ = 0;
};

} // namespace darco::xemu

#endif // DARCO_XEMU_REF_COMPONENT_HH
