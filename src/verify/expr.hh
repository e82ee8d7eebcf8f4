/**
 * @file
 * Bitvector expression IR for the translation verifier (darco::verify).
 *
 * Hash-consed DAG of 32-bit integer terms, opaque double-precision FP
 * terms, and memory states (cons-lists of byte-ranged stores). Smart
 * constructors normalize aggressively — constant folding, commutative
 * operand ordering, algebraic identities, affine address folding —
 * so that two computations that the TOL pipeline derives from the
 * same IR value collapse to the *same node id*. Structural equality
 * of node ids is the verifier's primary proof rule; a substitution /
 * bounded-exhaustive-concretization fallback covers the residue.
 * There is deliberately no external SMT dependency.
 *
 * Soundness notes:
 *  - "Proved" is returned only for structural equality, equality
 *    under fact substitution, or exhaustive enumeration of the joint
 *    domain of all support variables (all must be declared
 *    single-bit, and the product must fit the configured budget).
 *  - Random sampling can only *refute* (producing a witness); it
 *    never upgrades to Proved. An undecided comparison is Unknown.
 *  - Memory disjointness is decided per root: two accesses off the
 *    same symbolic base with non-overlapping offset ranges are
 *    disjoint; accesses off different symbolic bases are only
 *    disjoint when a declared alias-guard fact says so (the runtime
 *    SBC/SWC/FSTC checks establish exactly those facts).
 */

#ifndef DARCO_VERIFY_EXPR_HH
#define DARCO_VERIFY_EXPR_HH

#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace darco::verify
{

using ExprId = u32;
constexpr ExprId nilExpr = ~0u;

/** Expression node operations. */
enum class XOp : u8
{
    // 32-bit integer sort.
    ConstI, //!< imm = value
    VarI,   //!< imm = variable index
    Add, Sub, Mul, MulH, Div, Rem,
    And, Or, Xor,
    Shl, Shr, Sar,       //!< amount masked & 31
    Eq, Ult, Slt,        //!< 0/1-valued comparisons
    // Double sort (opaque; folded with the exact hemu semantics).
    ConstF, //!< fimm = value
    VarF,   //!< imm = variable index
    FAdd, FSub, FMul, FDiv, FSqrt, FAbs, FNeg, FRnd,
    FCvtWD, //!< int -> double
    // Cross-sort.
    FCvtZW,        //!< double -> int (guest gcvtfi)
    FEq, FLt, FLe, //!< double compare -> 0/1
    // Memory states.
    MemInit, //!< the pre-region guest memory
    Store,   //!< a=mem, b=base, c=value; imm packs (off, size, isF)
    ReadI,   //!< a=mem, b=base; imm packs (off, size); zero-extended
    ReadF,   //!< a=mem, b=base; imm packs (off, 8); 8 bytes -> double
};

/** One DAG node. */
struct Node
{
    XOp op = XOp::ConstI;
    ExprId a = nilExpr;
    ExprId b = nilExpr;
    ExprId c = nilExpr;
    s64 imm = 0;
    double fimm = 0.0;
};

/** A declared leaf variable. */
struct VarInfo
{
    std::string name;
    bool isF = false;
    bool bit = false; //!< domain is {0, 1} (guest flag)
};

/** One path fact: the 0/1-valued expression `cond` equals `truth`. */
struct Fact
{
    ExprId cond = nilExpr;
    bool truth = true;
};

/** Tri-state comparison outcome. */
enum class Tri : u8
{
    Proved,
    Refuted,
    Unknown,
};

/**
 * A concrete assignment refuting an obligation: initial guest state
 * values plus the memory bytes the evaluation touched.
 */
struct Witness
{
    std::vector<std::pair<std::string, u32>> ints;
    std::vector<std::pair<std::string, double>> fps;
    std::vector<std::pair<u64, u8>> memBytes; //!< (address, byte)
    std::string diff; //!< human-readable diverging values
    std::string render() const;
};

/**
 * Concrete evaluation environment. Variables resolve through the
 * assignment maps; untouched memory bytes resolve through `byteAt`
 * (deterministic pseudo-random by default, or a caller-provided view
 * of real guest memory for the agreement sweep).
 */
struct Env
{
    Env();

    std::unordered_map<u32, u32> ivals;
    std::unordered_map<u32, double> fvals;
    std::function<u8(u64)> byteAt; //!< initial-memory byte source
    u64 seed = 0;                  //!< default byteAt stream
    u64 stamp = 0;                 //!< unique id (eval memo validity)

    u8 initialByte(u64 addr) const;
};

/** The hash-consing context plus per-unit assumption state. */
class Ctx
{
  public:
    Ctx();

    // --- leaves ---------------------------------------------------------
    ExprId constI(u32 v);
    ExprId constF(double v);
    ExprId varI(const std::string &name, bool bit = false);
    ExprId varF(const std::string &name);

    // --- integer constructors (normalizing) -----------------------------
    ExprId add(ExprId a, ExprId b);
    ExprId sub(ExprId a, ExprId b);
    ExprId mul(ExprId a, ExprId b);
    ExprId mulh(ExprId a, ExprId b);
    ExprId div(ExprId a, ExprId b);
    ExprId rem(ExprId a, ExprId b);
    ExprId and_(ExprId a, ExprId b);
    ExprId or_(ExprId a, ExprId b);
    ExprId xor_(ExprId a, ExprId b);
    ExprId shl(ExprId a, ExprId b);
    ExprId shr(ExprId a, ExprId b);
    ExprId sar(ExprId a, ExprId b);
    ExprId eq(ExprId a, ExprId b);
    ExprId ne(ExprId a, ExprId b) { return xor_(eq(a, b), one()); }
    ExprId ult(ExprId a, ExprId b);
    ExprId uge(ExprId a, ExprId b) { return xor_(ult(a, b), one()); }
    ExprId slt(ExprId a, ExprId b);
    ExprId sge(ExprId a, ExprId b) { return xor_(slt(a, b), one()); }

    // --- FP constructors -------------------------------------------------
    ExprId fbin(XOp op, ExprId a, ExprId b); //!< FAdd/FSub/FMul/FDiv
    ExprId fun(XOp op, ExprId a); //!< FSqrt/FAbs/FNeg/FRnd/FCvtWD/FCvtZW
    ExprId fcmp(XOp op, ExprId a, ExprId b); //!< FEq/FLt/FLe

    // --- memory ----------------------------------------------------------
    ExprId memInit();
    /** Affine view of an address expression: (root, byte offset). */
    std::pair<ExprId, u32> stripAddr(ExprId addr);
    ExprId store(ExprId mem, ExprId base, u32 off, u8 size, bool is_f,
                 ExprId val);
    /** Zero-extended little-endian read of `size` in {1,2,4}. */
    ExprId readI(ExprId mem, ExprId base, u32 off, u8 size);
    /** 8-byte read reinterpreted as a double. */
    ExprId readF(ExprId mem, ExprId base, u32 off);

    /** Declare an alias-guard fact: [a] and [b] byte ranges disjoint. */
    void assumeDisjoint(ExprId root_a, u32 off_a, u8 size_a,
                        ExprId root_b, u32 off_b, u8 size_b);
    /** Do the two accesses *provably* overlap (same symbolic root,
     *  intersecting byte ranges)? Assuming such a pair disjoint would
     *  be a contradiction — the assuming path is infeasible. */
    bool provablyOverlapping(ExprId root_a, u32 off_a, u8 size_a,
                             ExprId root_b, u32 off_b, u8 size_b) const;

    /** One store of a memory-state chain, in program order. */
    struct WriteRec
    {
        ExprId base; //!< stripAddr root
        u32 off;
        u8 size;
        bool isF;
        ExprId val;
    };
    /** The full store chain of `mem` back to MemInit, program order. */
    std::vector<WriteRec> writeList(ExprId mem) const;

    // --- inspection -------------------------------------------------------
    const Node &node(ExprId id) const { return nodes_[id]; }
    const VarInfo &var(u32 idx) const { return vars_[idx]; }
    std::size_t numVars() const { return vars_.size(); }
    ExprId zero() { return constI(0); }
    ExprId one() { return constI(1); }
    bool isConstI(ExprId id, u32 &v) const;
    /** Unpack a Store/ReadI imm. */
    static u32 accOff(s64 imm) { return u32(u64(imm) >> 8); }
    static u8 accSize(s64 imm) { return u8((imm >> 1) & 0x7f); }
    static bool accIsF(s64 imm) { return (imm & 1) != 0; }

    /** Render an expression (diagnostics, witness dumps). */
    std::string render(ExprId id) const;

    // --- known bits / intervals ------------------------------------------
    struct KnownBits
    {
        u32 zeros = 0; //!< bits known to be 0
        u32 ones = 0;  //!< bits known to be 1
    };
    KnownBits knownBits(ExprId id);
    /** Unsigned interval [lo, hi]; conservative. */
    std::pair<u32, u32> range(ExprId id);

    // --- concrete evaluation ----------------------------------------------
    u32 evalI(ExprId id, const Env &env);
    double evalF(ExprId id, const Env &env);

    // --- proving ----------------------------------------------------------
    /** Concretization budget (max joint enumeration size). */
    static constexpr u32 concretizeBudget = 4096;
    /** Refutation sampling attempts per undecided obligation. */
    static constexpr u32 sampleTries = 128;

    /**
     * Is `a == b` under `facts`? Proved only by structural equality,
     * fact substitution, or exhaustive bit-domain enumeration;
     * Refuted comes with a minimized witness.
     */
    Tri proveEqI(ExprId a, ExprId b, const std::vector<Fact> &facts,
                 Witness *w);
    Tri proveEqF(ExprId a, ExprId b, const std::vector<Fact> &facts,
                 Witness *w);

    /** Do all facts hold under `env`? */
    bool factsHold(const std::vector<Fact> &facts, const Env &env);

    /** Support variables (indices into the var table) of `id`;
     *  `has_mem` is set when any memory read/state is reachable. */
    void support(ExprId id, std::vector<u32> &int_vars,
                 std::vector<u32> &fp_vars, bool &has_mem);

    /** Forget per-unit state (facts caches, eval memos) but keep the
     *  node table (it is append-only and shareable across units). */
    void resetAssumptions();

  private:
    ExprId intern(Node n);
    ExprId mkBin(XOp op, ExprId a, ExprId b);
    bool provablyDisjoint(ExprId root_a, u32 off_a, u8 size_a,
                          ExprId root_b, u32 off_b, u8 size_b) const;
    ExprId substitute(ExprId id,
                      const std::unordered_map<u32, u32> &int_env,
                      std::unordered_map<ExprId, ExprId> &memo);
    Tri enumerateOrSample(ExprId a, ExprId b,
                          const std::vector<Fact> &facts, bool fp_cmp,
                          Witness *w);
    void buildWitness(const Env &env, ExprId a, ExprId b, bool fp_cmp,
                      const std::vector<Fact> &facts, Witness *w);
    const std::map<u64, u8> &memBytes(ExprId mem, const Env &env);

    struct NodeHash
    {
        std::size_t operator()(const Node &n) const;
    };
    struct NodeEq
    {
        bool operator()(const Node &x, const Node &y) const;
    };

    std::vector<Node> nodes_;
    std::unordered_map<Node, ExprId, NodeHash, NodeEq> dedup_;
    std::vector<VarInfo> vars_;
    std::unordered_map<std::string, u32> varIdx_;
    ExprId memInit_ = nilExpr;

    /** One declared-disjoint access pair (matched symmetrically and
     *  exactly — no hashing, soundness depends on exact matches). */
    struct DisjPair
    {
        ExprId ra; u32 oa; u8 sa;
        ExprId rb; u32 ob; u8 sb;
    };
    std::vector<DisjPair> disjoint_;
    std::unordered_map<ExprId, KnownBits> kbMemo_;
    std::unordered_map<ExprId, std::pair<u32, u32>> rangeMemo_;

    // Per-eval memos (valid for evalStamp_ only).
    std::unordered_map<ExprId, u32> evalIMemo_;
    std::unordered_map<ExprId, double> evalFMemo_;
    std::unordered_map<ExprId, std::map<u64, u8>> memMemo_;
    u64 evalStamp_ = ~0ull;
};

} // namespace darco::verify

#endif // DARCO_VERIFY_EXPR_HH
