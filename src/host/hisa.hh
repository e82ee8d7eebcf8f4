/**
 * @file
 * HISA: the co-designed host ISA.
 *
 * A PowerPC-flavoured 32-register RISC with fixed 32-bit encodings,
 * extended with the co-design primitives the paper's architecture
 * requires:
 *
 *  - CKPT/COMMIT region checkpointing (speculative stores are gated
 *    in a store buffer until commit; rollback restores registers),
 *  - ASSERTZ/ASSERTNZ, the "asserts" that superblock branches are
 *    converted into (failure means rollback + re-execution in IM),
 *  - LWS/FLDS speculative loads that record entries in an alias table
 *    checked by every store in the region (speculative memory
 *    reordering detection, Section III),
 *  - IBTC, the inlined indirect-branch translation cache probe,
 *  - EXITB, a patchable exit-to-TOL used for chaining,
 *  - LWL/SWL..., access to TOL-private local memory (profiling
 *    counters, spill slots), and FLDC, an FP constant-pool load.
 *
 * Encodings (op is always bits [31:24]):
 *   R: rd[23:19] rs1[18:14] rs2[13:9]
 *   I: rd[23:19] rs1[18:14] imm14[13:0]
 *   B: rs1[23:19] rs2[18:14] imm14[13:0]
 *   U: rd[23:19] imm19[18:0]
 *   J: imm24[23:0]
 *
 * imm14 is sign-extended for arithmetic/memory/branches and
 * zero-extended for ANDI/ORI/XORI/SEQI/SNEI. LUI places imm19 at
 * bits [31:13]; LUI+ORI therefore materializes any 32-bit constant
 * in two instructions.
 */

#ifndef DARCO_HOST_HISA_HH
#define DARCO_HOST_HISA_HH

#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace darco::host
{

/** Number of host integer registers. */
constexpr unsigned numHRegs = 32;
/** Number of host FP registers. */
constexpr unsigned numHFRegs = 32;

/**
 * Fixed register-mapping convention between guest and host state
 * (the paper's "maps guest architectural registers directly on the
 * host registers").
 */
namespace regmap
{
constexpr u8 zero = 0;            //!< hardwired zero
constexpr u8 guestGprBase = 1;    //!< guest r0..r7 -> host r1..r8
constexpr u8 flagZ = 9;           //!< guest ZF as 0/1
constexpr u8 flagS = 10;
constexpr u8 flagC = 11;
constexpr u8 flagO = 12;
constexpr u8 scratch0 = 13;       //!< TOL runtime scratch
constexpr u8 scratch1 = 14;
constexpr u8 tempBase = 15;       //!< r15..r31 allocatable temps
constexpr u8 guestFprBase = 0;    //!< guest f0..f7 -> host f0..f7
constexpr u8 ftempBase = 8;       //!< f8..f31 allocatable temps
} // namespace regmap

/** Host opcodes. */
enum class HOp : u8
{
    NOP = 0,
    // R-format integer ALU
    ADD, SUB, MUL, MULH, DIV, REM,
    AND, OR, XOR,
    SLL, SRL, SRA,
    SLT, SLTU, SEQ, SNE, SGE, SGEU,
    // I-format integer ALU
    ADDI, ANDI, ORI, XORI,
    SLLI, SRLI, SRAI,
    SLTI, SEQI, SNEI,
    // U-format
    LUI,
    // guest-memory loads (I-format; address = rs1 + imm)
    LB, LBU, LH, LHU, LW,
    LWS,   //!< speculative load word: records an alias-table entry
    FLD,   //!< load double to FP rd
    FLDS,  //!< speculative FP load
    // guest-memory stores (B-format; address = rs1 + imm, value rs2)
    SB, SH, SW,
    FST,
    // checked stores: probe the alias table for speculative loads
    // hoisted across this store (the paper's sequence-number check,
    // resolved statically by the scheduler)
    SBC, SHC, SWC, FSTC,
    // TOL-local memory (I/B-format): profiling counters, spill slots
    LWL, SWL, FLDL, FSTL,
    // FP constant pool (U-format: fd <- pool[imm19])
    FLDC,
    // FP R-format
    FADD, FSUB, FMUL, FDIV, FSQRT, FABS, FNEG, FMOV,
    FRND,    //!< round to nearest integral (trig range reduction)
    FCVTWD,  //!< FP rd <- s32(gpr rs1)
    FCVTZW,  //!< gpr rd <- trunc(FP rs1) (guest CVTFI semantics)
    FEQ, FLT, FLE, //!< gpr rd <- compare(FP rs1, FP rs2)
    // branches (B-format; target = pc + 1 + imm, in words)
    BEQ, BNE, BLT, BGE, BLTU, BGEU,
    // unconditional direct jump (J-format; absolute word index)
    J,
    // co-design primitives
    CKPT,     //!< open a speculative region (snapshot registers)
    COMMIT,   //!< drain store buffer, close region
    ASSERTZ,  //!< B-format: fail (rollback) if rs1 != 0; imm = id
    ASSERTNZ, //!< B-format: fail (rollback) if rs1 == 0; imm = id
    IBTC,     //!< R-format: indirect jump via IBTC on guest pc rs1
    EXITB,    //!< J-format: exit to TOL with exit-table id (patchable)
    RETIRE,   //!< J-format: guest-retirement marker (imm = exit id)
    NumOps,
};

/** Encoding format classes. */
enum class HFmt : u8
{
    R, I, B, U, J, N,
};

/** Static opcode properties. */
struct HOpInfo
{
    const char *name;
    HFmt fmt;
    bool isLoad;
    bool isStore;
    bool isFp;       //!< uses the FP pipeline
    bool isBranch;   //!< conditional branch
};

/** Properties of every opcode, indexed by HOp. */
extern const HOpInfo hopTable[std::size_t(HOp::NumOps)];

inline const HOpInfo &
hopInfo(HOp op)
{
    darco_assert(std::size_t(op) < std::size_t(HOp::NumOps),
                 "bad host opcode ", std::size_t(op));
    return hopTable[std::size_t(op)];
}

/** A decoded host instruction. */
struct HInst
{
    HOp op = HOp::NOP;
    u8 rd = 0;
    u8 rs1 = 0;
    u8 rs2 = 0;
    s32 imm = 0;

    const HOpInfo &info() const { return hopInfo(op); }

    bool
    operator==(const HInst &o) const
    {
        return op == o.op && rd == o.rd && rs1 == o.rs1 && rs2 == o.rs2 &&
               imm == o.imm;
    }
};

/** Encode to a 32-bit word. */
u32 hencode(const HInst &inst);
/** Decode a 32-bit word. */
HInst hdecode(u32 word);
/** Disassemble (host debug toolchain). */
std::string hdisasm(const HInst &inst, u32 pc);

/**
 * Host instruction stream builder.
 *
 * Thin emitter used by the TOL code generator; labels are word
 * offsets resolved by the caller (generation is single-pass with
 * local back-patching).
 */
class HAsm
{
  public:
    std::vector<u32> &words() { return words_; }
    const std::vector<u32> &words() const { return words_; }
    u32 size() const { return u32(words_.size()); }

    u32
    emit(HOp op, u8 rd = 0, u8 rs1 = 0, u8 rs2 = 0, s32 imm = 0)
    {
        HInst i;
        i.op = op;
        i.rd = rd;
        i.rs1 = rs1;
        i.rs2 = rs2;
        i.imm = imm;
        words_.push_back(hencode(i));
        return u32(words_.size() - 1);
    }

    /**
     * Materialize a 32-bit constant into rd.
     * @return number of instructions emitted (1 or 2).
     */
    unsigned
    loadImm(u8 rd, u32 value)
    {
        s32 sv = s32(value);
        if (sv >= -8192 && sv <= 8191) {
            emit(HOp::ADDI, rd, regmap::zero, 0, sv);
            return 1;
        }
        emit(HOp::LUI, rd, 0, 0, s32(value >> 13));
        if (value & 0x1fff) {
            emit(HOp::ORI, rd, rd, 0, s32(value & 0x1fff));
            return 2;
        }
        return 1;
    }

  private:
    std::vector<u32> words_;
};

} // namespace darco::host

#endif // DARCO_HOST_HISA_HH
