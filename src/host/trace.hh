/**
 * @file
 * Dynamic host-instruction trace interface.
 *
 * The co-designed component feeds its dynamic instruction stream to
 * the (optional) timing simulator through this interface, mirroring
 * the paper's "receives the dynamic instruction stream from the
 * co-designed component". TOL-overhead instructions are fed through
 * the same interface by the cost model (with PCs in the TOL code
 * region) so that TOL/application interaction is visible to the
 * timing and power models.
 */

#ifndef DARCO_HOST_TRACE_HH
#define DARCO_HOST_TRACE_HH

#include "common/types.hh"
#include "host/hisa.hh"

namespace darco::host
{

/** Broad execution class of an instruction (drives FU selection). */
enum class InstClass : u8
{
    IntAlu,
    IntMul,
    IntDiv,
    FpAlu,
    FpMul,
    FpDiv,
    Load,
    Store,
    Branch,   //!< conditional
    Jump,     //!< unconditional / indirect
    Other,
};

/**
 * Register operand encoding for InstRecord: low 6 bits are the
 * register number; bit 6 marks the FP file; noReg means absent.
 */
constexpr u8 regFpBit = 0x40;
constexpr u8 noReg = 0xff;

/** One dynamic host instruction, as seen by the timing simulator. */
struct InstRecord
{
    u32 pc = 0;         //!< host byte address (word index * 4)
    u32 memAddr = 0;    //!< effective address for Load/Store
    u32 nextPc = 0;     //!< byte address of the next instruction
    InstClass cls = InstClass::IntAlu;
    u8 dst = noReg;     //!< destination register (scoreboard)
    u8 src1 = noReg;
    u8 src2 = noReg;
    bool taken = false; //!< branch outcome
};

/**
 * The part of an InstRecord that the instruction word alone decides:
 * its class and scoreboard operands. The code cache keeps one beside
 * each predecoded word, so tracing a host instruction copies these
 * four bytes instead of re-deriving them.
 */
struct TraceTemplate
{
    InstClass cls = InstClass::IntAlu;
    u8 dst = noReg;
    u8 src1 = noReg;
    u8 src2 = noReg;
};
static_assert(sizeof(TraceTemplate) == 4, "one word per cached word");

/** Class and operands of a decoded instruction (r0 reads as noReg). */
TraceTemplate traceTemplate(const HInst &inst);

/** Consumer of the dynamic instruction stream. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void record(const InstRecord &rec) = 0;

    /**
     * Account host instructions executed by a concurrent translator
     * thread. Unlike record(), these do not join the core's dynamic
     * stream — they run on spare hardware off the guest critical
     * path; a timing model overlaps them (e.g. cycles = max(main,
     * translator/threads)) instead of serializing them. Default: no
     * timing model attached, drop on the floor.
     */
    virtual void recordConcurrent(u64 host_insts) { (void)host_insts; }
};

} // namespace darco::host

#endif // DARCO_HOST_TRACE_HH
