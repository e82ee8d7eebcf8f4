/**
 * @file
 * GISA instruction semantics.
 *
 * One executor implements the architectural semantics of every GISA
 * instruction; the reference component and TOL's interpreter mode both
 * use it. The translated path (BBM/SBM host code) re-implements the
 * semantics independently through IR + code generation, which is what
 * makes reference-vs-co-designed state comparison a meaningful
 * correctness check (paper Section IV "Correctness").
 *
 * Restartability contract: execInst() never mutates CpuState before
 * all memory accesses of the instruction have succeeded, except for
 * REP string ops, which update RSI/RDI/RCX per completed iteration
 * (x86-style restartable semantics). A PageMiss thrown mid-instruction
 * therefore leaves the state valid for a retry of the same pc.
 */

#ifndef DARCO_GUEST_SEMANTICS_HH
#define DARCO_GUEST_SEMANTICS_HH

#include <stdexcept>

#include "guest/gisa.hh"
#include "guest/memory.hh"
#include "guest/state.hh"

namespace darco::guest
{

/** Outcome class of one executed instruction. */
enum class ExecStatus : u8
{
    Ok,          //!< fell through; pc advanced
    Again,       //!< REP partially done; re-execute at the same pc
    CtiTaken,    //!< control transfer happened (pc = target)
    CtiNotTaken, //!< conditional branch not taken (pc advanced)
    Syscall,     //!< stopped AT a syscall; pc unchanged; not executed
    Halt,        //!< stopped AT hlt; pc unchanged
    Fault,       //!< architectural fault (e.g. division by zero)
};

/** Result of executing one instruction. */
struct ExecOut
{
    ExecStatus status = ExecStatus::Ok;
    u64 repIters = 0;          //!< iterations a REP string op performed
    const char *faultMsg = nullptr;
};

/**
 * An architectural guest fault (division by zero, bad opcode...).
 * what() reads "guest fault at pc 0x<pc>: <msg>".
 */
struct GuestFault : std::runtime_error
{
    GuestFault(GAddr pc, const char *msg);

    GAddr pc;
    const char *msg;
};

/**
 * Execute one decoded instruction against architectural state.
 *
 * Updates st.pc for every status except Syscall/Halt/Fault (pc stays
 * at the current instruction so the caller can handle it). A Fault
 * changes no state.
 * May throw PageMiss if mem uses MissPolicy::Signal.
 */
ExecOut execInst(const GInst &inst, CpuState &st, PagedMemory &mem);

class DecodeCache;

/** Why retireBlock() stopped. */
enum class BlockEnd : u8
{
    Cti,     //!< a CTI retired
    Limit,   //!< the instruction count reached the limit
    Blocked, //!< before a SYSCALL, an HLT or an instruction that faults
};

/**
 * Retire instructions, fetched through `dc`, until a CTI retires,
 * `insts` reaches `limit`, or the next instruction is a SYSCALL, an
 * HLT or one that faults (its state is left unchanged for the caller
 * to execute it). Each retired instruction counts in `insts`, and a
 * retired CTI in `bbs` too, as it retires, so both stay exact when a
 * PageMiss or a GuestFault from decode propagates. A REP string op
 * runs its chunks to completion and counts once.
 */
BlockEnd retireBlock(DecodeCache &dc, CpuState &st, PagedMemory &mem,
                     u64 &insts, u64 &bbs, u64 limit);

/**
 * Fetch and decode the instruction at pc.
 *
 * Reads only the bytes that are actually part of the instruction, so
 * a Signal-policy memory faults exactly on the pages the instruction
 * occupies (code pages participate in the data-request protocol too).
 *
 * @throws GuestFault on undecodable bytes.
 */
GInst fetchInst(PagedMemory &mem, GAddr pc);

/** Effective address of a memory-operand instruction. */
GAddr effectiveAddr(const GInst &inst, const CpuState &st);

// --- Flag computation helpers (shared with the TOL translator) -------

/** Flags for add: a + b = r. */
u8 flagsAdd(u32 a, u32 b, u32 r);
/** Flags for sub/cmp: a - b = r. */
u8 flagsSub(u32 a, u32 b, u32 r);
/** ZF/SF from a result; CF=OF=0 (logic ops). */
u8 flagsLogic(u32 r);
/** FCMP flags: ZF=equal, CF=less (unordered treated as less). */
u8 flagsFcmp(double a, double b);

// --- Deterministic transcendental definitions --------------------------
//
// GISA *defines* FSIN/FCOS as the polynomial below (range reduction by
// round-to-nearest, then a fixed Horner evaluation). The TOL code
// generator expands the same operation sequence into host FP
// instructions, so interpreter and translated code produce bit-equal
// results. See tol/codegen for the expansion.

namespace trig
{
constexpr double twoPi = 6.283185307179586476925286766559;
constexpr double invTwoPi = 0.15915494309189533576888376337251;

/** sin Horner coefficients for r * P(r^2), r in [-pi, pi]. */
constexpr double sinC[] = {
    1.0,                        // r^1
    -1.6666666666666666e-01,    // r^3
    8.3333333333333332e-03,     // r^5
    -1.9841269841269841e-04,    // r^7
    2.7557319223985893e-06,     // r^9
    -2.5052108385441720e-08,    // r^11
    1.6059043836821613e-10,     // r^13
};
constexpr unsigned sinTerms = sizeof(sinC) / sizeof(sinC[0]);

/** cos Horner coefficients for P(r^2). */
constexpr double cosC[] = {
    1.0,                        // r^0
    -5.0000000000000000e-01,    // r^2
    4.1666666666666664e-02,     // r^4
    -1.3888888888888889e-03,    // r^6
    2.4801587301587302e-05,     // r^8
    -2.7557319223985888e-07,    // r^10
    2.0876756987868099e-09,     // r^12
};
constexpr unsigned cosTerms = sizeof(cosC) / sizeof(cosC[0]);
} // namespace trig

/**
 * NaN canonicalization (RISC-V style). GISA and HISA FP arithmetic
 * produce the canonical quiet NaN for any NaN result: ISO C++ leaves
 * *which* operand's NaN propagates unspecified, so without this the
 * interpreter and the host emulator (compiled separately) could
 * legally disagree on NaN sign/payload and break state comparison.
 */
inline double
gcanon(double x)
{
    if (__builtin_isnan(x)) {
        u64 bits = 0x7ff8'0000'0000'0000ull;
        double q;
        __builtin_memcpy(&q, &bits, 8);
        return q;
    }
    return x;
}

/** GISA-defined sine (see trig above). */
double gsin(double x);
/** GISA-defined cosine. */
double gcos(double x);
/** GISA-defined double -> s32 conversion (truncate; overflow -> MIN). */
s32 gcvtfi(double x);

} // namespace darco::guest

#endif // DARCO_GUEST_SEMANTICS_HH
