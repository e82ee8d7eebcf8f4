/**
 * @file
 * The TOL intermediate representation.
 *
 * Regions (translated basic blocks or superblocks) are straight-line
 * sequences of IR items in SSA form by construction: every value is
 * defined exactly once, and because regions have no internal joins
 * (superblock branches become asserts or side exits) no phi nodes are
 * needed — this is the paper's "transforming the IR of a superblock
 * into SSA format".
 *
 * Guest architectural state appears only at the region boundary:
 * LiveIn reads a guest location at entry; each exit carries a
 * live-out list materializing dirty locations. Between the two,
 * values float freely, which is what the checkpoint/rollback
 * execution model buys (paper Section V-B3).
 */

#ifndef DARCO_TOL_IR_HH
#define DARCO_TOL_IR_HH

#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace darco::tol
{

/**
 * Guest locations: 0..7 GPRs, 8..11 flags (Z,S,C,O), 12..19 FPRs.
 */
constexpr u16 locGpr0 = 0;
constexpr u16 locFlagZ = 8;
constexpr u16 locFlagS = 9;
constexpr u16 locFlagC = 10;
constexpr u16 locFlagO = 11;
constexpr u16 locFpr0 = 12;
constexpr u16 numLocs = 20;

/** True if a location holds a double. */
constexpr bool
locIsFp(u16 loc)
{
    return loc >= locFpr0;
}

/** IR operations. */
enum class IROp : u8
{
    LiveIn,  //!< dst = guest location `loc` at region entry
    Movi,    //!< dst = imm
    Mov,     //!< dst = src1
    // Integer ALU; src2 may be an immediate (src2Imm).
    Add, Sub, Mul, MulH, Div, Rem,
    And, Or, Xor,
    Sll, Srl, Sra,
    Slt, Sltu, Seq, Sne, Sge, Sgeu,
    // Guest memory (address = src1 + imm; value = src2 for stores).
    Ld8u, Ld8s, Ld16u, Ld16s, Ld32,
    St8, St16, St32,
    // Floating point.
    FConst, //!< dst = fimm
    FAdd, FSub, FMul, FDiv, FSqrt, FAbs, FNeg, FMov, FRnd,
    FCvtWD, //!< fp dst = double(int src1)
    FCvtZW, //!< int dst = gcvtfi(fp src1)
    FEq, FLt, FLe, //!< int dst = compare(fp src1, fp src2)
    FLd, FSt,      //!< 64-bit guest memory
    // Control/speculation support.
    Assert,  //!< fail+rollback unless src1 matches expectation
    NumOps,
};

/** Static IR opcode properties. */
struct IROpInfo
{
    const char *name;
    bool hasDst;
    bool fpDst;     //!< dst is a double
    bool isLoad;
    bool isStore;
    u8 memSize;
    bool pure;      //!< freely removable/CSE-able
};

/** Properties of every opcode, indexed by IROp. */
extern const IROpInfo irOpTable[std::size_t(IROp::NumOps)];

inline const IROpInfo &
irInfo(IROp op)
{
    darco_assert(std::size_t(op) < std::size_t(IROp::NumOps));
    return irOpTable[std::size_t(op)];
}

/** One IR instruction. */
struct IRInst
{
    IROp op = IROp::Movi;
    s32 dst = -1;   //!< value id (-1 = none)
    s32 src1 = -1;
    s32 src2 = -1;
    bool src2Imm = false; //!< ALU src2 is `imm` instead of a value
    s32 imm = 0;          //!< immediate / mem displacement / loc
    u16 loc = 0;          //!< guest location (LiveIn)
    double fimm = 0.0;    //!< FConst value
    GAddr guestPc = 0;    //!< originating guest instruction
    u32 assertId = 0;
    bool expectNonZero = false; //!< Assert: fail when src1==0
    bool speculative = false;   //!< load hoisted across a store
};

/** How control leaves a region through a given exit. */
enum class ExitKind : u8
{
    Direct,   //!< continue at static guest pc `target`
    Indirect, //!< continue at dynamic pc in `targetVal` (IBTC)
    Syscall,  //!< stopped before a SYSCALL at `target`
    Halt,     //!< stopped before HLT
    Interp,   //!< must continue in IM at `target` (REP, residual loop)
    Promote,  //!< BBM threshold trip: build a superblock for `target`
};

/** One region exit: target + architectural materialization. */
struct IRExit
{
    ExitKind kind = ExitKind::Direct;
    GAddr target = 0;
    s32 targetVal = -1;   //!< Indirect only
    u32 instsRetired = 0; //!< guest instructions completed here
    u32 bbsRetired = 0;   //!< guest basic blocks completed here
    /** (location, value) pairs to write back. */
    std::vector<std::pair<u16, s32>> liveOuts;
    bool chainable = false; //!< Direct exits can be chained
};

/** A region item: an instruction or a conditional side exit. */
struct IRItem
{
    enum class Kind : u8 { Inst, CondExit } kind = Kind::Inst;
    IRInst inst;
    // CondExit: taken when cond != 0 (condInvert -> taken when == 0).
    s32 cond = -1;
    bool condInvert = false;
    u32 exitIdx = 0;
};

/** Translation granularity of a region. */
enum class RegionMode : u8
{
    BB, //!< basic-block translation (BBM)
    SB, //!< superblock (SBM)
};

/** A translation unit flowing through the optimizer pipeline. */
struct Region
{
    GAddr entryPc = 0;
    RegionMode mode = RegionMode::BB;
    std::vector<IRItem> items;
    std::vector<IRExit> exits;
    u32 finalExit = 0; //!< exits index taken by falling off the end
    s32 numValues = 0; //!< value-id space size
    bool hasAsserts = false;

    IRInst &
    append(IRInst inst)
    {
        IRItem it;
        it.kind = IRItem::Kind::Inst;
        it.inst = inst;
        items.push_back(it);
        return items.back().inst;
    }
};

/** Render a region for the debug toolchain. */
std::string dumpRegion(const Region &r);

/**
 * Structural verifier: SSA single-def, def-before-use, operand type
 * agreement, exit indices in range. Returns "" or a diagnostic.
 */
std::string verifyRegion(const Region &r);

} // namespace darco::tol

#endif // DARCO_TOL_IR_HH
