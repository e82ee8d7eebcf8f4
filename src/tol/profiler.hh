/**
 * @file
 * TOL profiling subsystem.
 *
 * Owns everything the runtime uses to decide promotions:
 *
 *  - the IM repetition counters (software counters bumped by the
 *    interpreter dispatch loop; reaching tol.bb_threshold promotes a
 *    BB to BBM);
 *  - the profiling-slot allocator: each profiled BB gets three 32-bit
 *    TOL-local-memory slots (execution counter, taken-edge counter,
 *    fall-through counter) that BBM instrumentation code increments
 *    inline;
 *  - edge-counter readback used by the superblock builder to measure
 *    branch bias;
 *  - optional basic-block-vector (BBV) collection for SimPoint-style
 *    sampled simulation: retired guest instructions are attributed to
 *    the entry address of the retiring region over fixed-length
 *    instruction intervals. A retirement chunk that crosses an
 *    interval boundary is split exactly, so every closed interval
 *    sums to precisely the interval length and the grand total equals
 *    the retired-instruction count (the fuzz oracle's conservation
 *    invariant).
 *
 * Extracted from the Tol monolith so profiling policy can evolve (and
 * be swapped) independently of mode transitions and translation
 * bookkeeping.
 */

#ifndef DARCO_TOL_PROFILER_HH
#define DARCO_TOL_PROFILER_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "host/hemu.hh"

namespace darco::snapshot
{
class Serializer;
class Deserializer;
} // namespace darco::snapshot

namespace darco::tol
{

/** Profiling counters and slot allocation for the TOL runtime. */
class Profiler
{
  public:
    /** TOL-local-memory addresses of one BB's profiling counters. */
    struct Slots
    {
        u32 exec, taken, fall;
    };

    /**
     * @param emu  host emulator owning the TOL-local memory the
     *             profiling counters live in
     * @param base first local-memory address available for counters;
     *             spill slots grow upward from address 0, so base
     *             also caps the spill area
     */
    explicit Profiler(host::HostEmu &emu, u32 base = 0x4000);

    /** Bump the IM repetition counter for a BB. @return new count. */
    u32 bumpIm(GAddr entry);

    /** Forget the IM counter for a BB (after promotion). */
    void resetIm(GAddr entry);

    /** Profiling slots for a BB, allocated on first use. */
    Slots slots(GAddr bb_entry);

    /** Taken-edge count of the BB's terminating conditional branch. */
    u32 edgeTaken(GAddr bb_entry);

    /** Fall-through count of the BB's terminating branch. */
    u32 edgeFall(GAddr bb_entry);

    // --- BBV collection (SimPoint-style sampled simulation) --------------

    /** One closed profiling interval's basic-block vector. */
    struct BbvInterval
    {
        /** (BB entry, retired insts attributed) sorted by entry. */
        std::vector<std::pair<GAddr, u64>> counts;
        u64 insts = 0; //!< sum of counts (== interval length once closed)
        /**
         * Software-layer (TOL) activity in this interval, in
         * cost-model units (translation, eviction, recreation work).
         * Guest BBVs alone cannot see these events — the same guest
         * code mix can execute with or without a translation burst —
         * yet they dominate a co-designed processor's timing, so the
         * clusterer treats this as an extra phase dimension. Kept
         * separate from `counts`: the conservation invariant covers
         * retired instructions only.
         */
        u64 overhead = 0;
    };

    /**
     * Enable BBV collection with fixed-length instruction intervals.
     * Must be called before the first retirement (the Tol constructor
     * does, from tol.bbv_interval).
     */
    void enableBbv(u64 interval_insts);

    bool bbvEnabled() const { return bbvInterval_ != 0; }
    u64 bbvIntervalLen() const { return bbvInterval_; }

    /**
     * Attribute `insts` retired guest instructions to the region
     * entered at `bb_entry`. Chunks are split exactly across interval
     * boundaries.
     */
    void recordBbvRetire(GAddr bb_entry, u64 insts);

    /**
     * Attribute software-layer work (cost-model units) to the open
     * interval. Not instruction-conserved: never split.
     */
    void recordBbvOverhead(u64 units);

    /** Closed intervals, in execution order. */
    const std::vector<BbvInterval> &bbvIntervals() const
    {
        return bbvClosed_;
    }

    /** The open (partial) interval, materialized and sorted. */
    BbvInterval bbvPartial() const;

    /** Total retired instructions attributed since enableBbv(). */
    u64 bbvTotalInsts() const { return bbvTotal_; }

    /**
     * Conservation invariant (the fuzz oracle): every closed interval
     * sums to exactly the interval length, the partial interval sums
     * to its remainder, and the grand total equals `retired_insts`.
     * @return empty string when the invariant holds, else a diagnosis.
     */
    std::string checkBbvInvariants(u64 retired_insts) const;

    /**
     * Checkpoint hooks: IM repetition counters, the slot map (with
     * each BB's counter *values*, read from / written back to the
     * emulator's TOL-local memory), the allocation cursor, and the
     * full BBV collection state (closed intervals + open partial).
     */
    void save(snapshot::Serializer &s) const;
    void restore(snapshot::Deserializer &d);

  private:
    void closeBbvInterval();

    host::HostEmu &emu_;
    std::unordered_map<GAddr, u32> imCounters_;
    std::unordered_map<GAddr, Slots> slotMap_;
    u32 base_;
    u32 next_;

    u64 bbvInterval_ = 0; //!< interval length in insts; 0 = disabled
    u64 bbvTotal_ = 0;
    u64 bbvCurInsts_ = 0;
    u64 bbvCurOverhead_ = 0;
    std::unordered_map<GAddr, u64> bbvCur_;
    std::vector<BbvInterval> bbvClosed_;
};

} // namespace darco::tol

#endif // DARCO_TOL_PROFILER_HH
