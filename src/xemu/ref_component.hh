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

#include "common/stats.hh"
#include "guest/decode_cache.hh"
#include "guest/program.hh"
#include "guest/semantics.hh"
#include <iosfwd>

#include "xemu/os.hh"

namespace darco::xemu
{

class RefComponent;

/** Section name RefComponent snapshots are framed under. */
constexpr const char *refSectionName = "ref";

/** Save one framed ref-only snapshot (header + "ref" section). */
void saveRefSnapshot(std::ostream &os, const RefComponent &ref);

/** Restore a ref-only snapshot written by saveRefSnapshot(). */
void restoreRefSnapshot(std::istream &is, RefComponent &ref);

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
    explicit RefComponent(u64 seed = 1) : os_(seed) {}

    /** Load a program; resets all execution state. */
    void load(const guest::Program &prog);

    /**
     * Execute exactly one guest instruction (REP continuations are
     * driven to completion). Handles syscalls through the OS model.
     *
     * @return false once the program has finished.
     */
    bool step();

    /** Run until `n` instructions have completed (or program end). */
    void runUntilInstCount(u64 n);

    /** Run to program end (HLT or sysExit), bounded by maxInsts. */
    void runToCompletion(u64 max_insts = ~0ull);

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
    guest::PagedMemory mem_{guest::MissPolicy::AllocateZero};
    guest::CpuState state_;
    GuestOS os_;
    guest::DecodeCache decode_;

    u64 instCount_ = 0;
    u64 bbCount_ = 0;
    bool finished_ = false;
    u32 exitCode_ = 0;
    std::vector<GAddr> lastDirtied_;
};

} // namespace darco::xemu

#endif // DARCO_XEMU_REF_COMPONENT_HH
