/**
 * @file
 * Translation-verifier tests (src/verify).
 *
 * The per-translation equivalence proofs rest on two agreement sweeps
 * plus end-to-end self-tests:
 *
 * - GisaSweep: for every GISA instruction form, the symbolic
 *   evaluation of the freshly built (unoptimized) IR agrees with the
 *   concrete execInst interpreter on random states — this pins the
 *   guest side of every proof to the reference semantics.
 * - HisaSweep: for every HISA operation, symbolic host-path execution
 *   agrees with the concrete HostEmu on random states — this pins the
 *   host side to the real co-designed hardware model.
 * - VerifySuite / VerifyInjectors: a workload's translations all
 *   prove clean, and both hidden codegen-bug injectors
 *   (debug.flip_cond_exits, debug.drop_guard) are refuted with a
 *   concrete counterexample witness.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <random>

#include "common/config.hh"
#include "guest/asm.hh"
#include "guest/semantics.hh"
#include "host/code_cache.hh"
#include "host/hemu.hh"
#include "host/hisa.hh"
#include "sim/controller.hh"
#include "tol/frontend.hh"
#include "verify/expr.hh"
#include "verify/locs.hh"
#include "verify/symguest.hh"
#include "verify/symhost.hh"
#include "verify/verifier.hh"
#include "workloads/synth.hh"

using namespace darco;
using namespace darco::guest;

namespace
{

/** Deterministic random pre-state; callers then pin the pointers. */
CpuState
randomState(std::mt19937 &rng)
{
    CpuState st;
    for (unsigned i = 0; i < numGRegs; ++i)
        st.gpr[i] = rng();
    st.flags = u8(rng() & flagAll);
    std::uniform_real_distribution<double> d(-1000.0, 1000.0);
    for (unsigned i = 0; i < numFRegs; ++i)
        st.fpr[i] = d(rng);
    // Valid data / stack pointers for memory forms.
    st.gpr[RBP] = u32(layout::dataBase);
    st.gpr[RSP] = u32(layout::dataBase + 128);
    st.gpr[RSI] = u32(layout::dataBase + 16);
    st.gpr[RDI] = u32(layout::dataBase + 48);
    return st;
}

/** Bind every pre-region location variable to a concrete state. */
verify::Env
makeEnv(verify::Ctx &ctx, const CpuState &st, PagedMemory &mem)
{
    verify::Env env;
    for (u16 loc = 0; loc < tol::numLocs; ++loc) {
        verify::ExprId v = verify::locVar(ctx, loc);
        u32 idx = u32(ctx.node(v).imm);
        if (tol::locIsFp(loc)) {
            env.fvals[idx] = st.fpr[loc - tol::locFpr0];
        } else if (loc < tol::locFlagZ) {
            env.ivals[idx] = st.gpr[loc];
        } else {
            u8 bit = loc == tol::locFlagZ   ? flagZ
                     : loc == tol::locFlagS ? flagS
                     : loc == tol::locFlagC ? flagC
                                            : flagO;
            env.ivals[idx] = (st.flags & bit) ? 1 : 0;
        }
    }
    env.byteAt = [&mem](u64 a) { return mem.read8(GAddr(a)); };
    return env;
}

/** Check every store of a symbolic memory chain against real memory. */
void
expectMemoryAgrees(verify::Ctx &ctx, verify::ExprId mem_expr,
                   verify::Env &env, PagedMemory &post,
                   const std::string &what)
{
    for (const auto &rec : ctx.writeList(mem_expr)) {
        u32 addr = ctx.evalI(rec.base, env) + rec.off;
        if (rec.isF) {
            double v = ctx.evalF(rec.val, env);
            u8 want[8], got[8];
            std::memcpy(want, &v, 8);
            for (int i = 0; i < 8; ++i)
                got[i] = post.read8(GAddr(addr + u32(i)));
            EXPECT_EQ(std::memcmp(want, got, 8), 0)
                << what << ": fp store @0x" << std::hex << addr;
        } else {
            u32 v = ctx.evalI(rec.val, env);
            for (unsigned i = 0; i < rec.size; ++i)
                EXPECT_EQ(post.read8(GAddr(addr + i)),
                          u8(v >> (8 * i)))
                    << what << ": store byte " << i << " @0x"
                    << std::hex << addr;
        }
    }
}

// =====================================================================
// GISA sweep: symbolic IR evaluation vs the concrete interpreter.

struct GCase
{
    const char *name;
    std::function<void(Assembler &)> emit;
    std::function<void(CpuState &)> fix; //!< state constraints (opt)
};

/** Avoid the two IDIV fault inputs. */
void
fixDivisor(CpuState &st)
{
    st.gpr[RBX] |= 1;
    if (st.gpr[RBX] == 0xffffffffu)
        st.gpr[RBX] = 3;
}

std::vector<GCase>
gisaCases()
{
    using A = Assembler;
    std::vector<GCase> cs;
    auto add = [&](const char *n, std::function<void(A &)> e,
                   std::function<void(CpuState &)> f = nullptr) {
        cs.push_back({n, std::move(e), std::move(f)});
    };
    add("mov_rr", [](A &a) { a.movrr(RAX, RBX); });
    add("mov_ri", [](A &a) { a.movri(RAX, 0x1234abcd); });
    add("add_rr", [](A &a) { a.addrr(RAX, RBX); });
    add("add_ri", [](A &a) { a.addri(RAX, 0x7001); });
    add("add_ri8", [](A &a) { a.addri8(RAX, -7); });
    add("sub_rr", [](A &a) { a.subrr(RCX, RDX); });
    add("sub_ri", [](A &a) { a.subri(RCX, 19); });
    add("and_rr", [](A &a) { a.andrr(RAX, RDX); });
    add("and_ri", [](A &a) { a.andri(RAX, 0x0ff0); });
    add("or_rr", [](A &a) { a.orrr(RBX, RCX); });
    add("or_ri", [](A &a) { a.orri(RBX, 0x55); });
    add("xor_rr", [](A &a) { a.xorrr(RDX, RAX); });
    add("xor_ri", [](A &a) { a.xorri(RDX, -2); });
    add("cmp_rr", [](A &a) { a.cmprr(RAX, RBX); });
    add("cmp_ri", [](A &a) { a.cmpri(RAX, 1000); });
    add("cmp_ri8", [](A &a) { a.cmpri8(RAX, -1); });
    add("test_rr", [](A &a) { a.testrr(RAX, RBX); });
    add("test_ri", [](A &a) { a.ri(GOp::TEST_RI, RAX, 0xf0f0); });
    add("imul_rr", [](A &a) { a.imulrr(RAX, RBX); });
    add("imul_ri", [](A &a) { a.imulri(RAX, -3); });
    add("idiv_rr", [](A &a) { a.idivrr(RAX, RBX); }, fixDivisor);
    add("irem_rr", [](A &a) { a.iremrr(RAX, RBX); }, fixDivisor);
    add("shl_rr", [](A &a) { a.shlrr(RAX, RCX); });
    add("shl_ri8", [](A &a) { a.shlri(RAX, 3); });
    add("shr_ri8", [](A &a) { a.shrri(RAX, 5); });
    add("sar_ri8", [](A &a) { a.sarri(RAX, 2); });
    add("not", [](A &a) { a.notr(RDX); });
    add("neg", [](A &a) { a.negr(RDX); });
    add("inc", [](A &a) { a.inc(RCX); });
    add("dec", [](A &a) { a.dec(RCX); });
    add("push", [](A &a) { a.push(RAX); });
    add("pop", [](A &a) { a.pop(RBX); });
    add("setcc", [](A &a) { a.setcc(GCond::LT, RAX); });
    add("cmovcc", [](A &a) { a.cmovcc(GCond::B, RAX, RBX); });
    add("lea", [](A &a) { a.lea(RAX, memIdx(RBX, RDX, 2, 12)); });
    add("mov_rm", [](A &a) { a.movrm(RAX, mem(RBP, 16)); });
    add("movzx8", [](A &a) { a.movzx8(RAX, mem(RBP, 20)); });
    add("movzx16", [](A &a) { a.movzx16(RAX, mem(RBP, 20)); });
    add("movsx8", [](A &a) { a.movsx8(RAX, mem(RBP, 20)); });
    add("movsx16", [](A &a) { a.movsx16(RAX, mem(RBP, 20)); });
    add("mov_rm_abs",
        [](A &a) { a.movrm(RAX, memAbs32(layout::dataBase + 40)); });
    add("mov_rm_sib",
        [](A &a) { a.movrm(RAX, memIdx(RBP, RCX, 0, 8)); },
        [](CpuState &st) { st.gpr[RCX] &= 63; });
    add("add_rm", [](A &a) { a.addrm(RAX, mem(RBP, 24)); });
    add("cmp_rm", [](A &a) { a.cmprm(RAX, mem(RBP, 28)); });
    add("mov_mr", [](A &a) { a.movmr(mem(RBP, 32), RCX); });
    add("mov8_mr", [](A &a) { a.mov8mr(mem(RBP, 33), RCX); });
    add("mov16_mr", [](A &a) { a.mov16mr(mem(RBP, 34), RCX); });
    add("add_mr", [](A &a) { a.addmr(mem(RBP, 36), RDX); });
    add("movsb", [](A &a) { a.movsb(false); });
    add("stosb", [](A &a) { a.stosb(false); });
    add("fmov", [](A &a) { a.fmov(0, 1); });
    add("fadd", [](A &a) { a.fadd(0, 1); });
    add("fsub", [](A &a) { a.fsub(0, 1); });
    add("fmul", [](A &a) { a.fmul(0, 1); });
    add("fdiv", [](A &a) { a.fdiv(0, 1); });
    add("fsqrt", [](A &a) { a.fsqrt(0, 1); },
        [](CpuState &st) { st.fpr[1] = std::fabs(st.fpr[1]); });
    add("fsin", [](A &a) { a.fsin(0, 1); });
    add("fcos", [](A &a) { a.fcos(0, 1); });
    add("fabs", [](A &a) { a.fabs_(0, 1); });
    add("fneg", [](A &a) { a.fneg(0, 1); });
    add("fcmp", [](A &a) { a.fcmp(0, 1); });
    add("cvtif", [](A &a) { a.cvtif(0, RAX); });
    add("cvtfi", [](A &a) { a.cvtfi(RAX, 1); },
        [](CpuState &st) { st.fpr[1] = std::fmod(st.fpr[1], 1e6); });
    add("fld", [](A &a) { a.fld(0, mem(RBP, 48)); });
    add("fst", [](A &a) { a.fst(mem(RBP, 56), 1); });
    return cs;
}

/** Decode a straight-line program into a path (no CTIs). */
std::vector<tol::PathElem>
straightPath(const Program &p)
{
    std::vector<tol::PathElem> path;
    GAddr pc = layout::codeBase;
    std::size_t off = 0;
    while (off < p.code.size()) {
        GInst gi;
        if (!decode(p.code.data() + off, p.code.size() - off, gi)) {
            ADD_FAILURE() << p.name << ": decode failed @+" << off;
            break;
        }
        EXPECT_FALSE(gi.isCti());
        path.push_back(
            tol::PathElem{gi, pc, tol::BranchDisp::Final});
        off += gi.length;
        pc += gi.length;
    }
    return path;
}

} // namespace

TEST(GisaSweep, SymbolicAgreesWithInterpreter)
{
    std::mt19937 rng(20260808);
    for (const GCase &c : gisaCases()) {
        Assembler a;
        a.dataZero(256);
        c.emit(a);
        Program prog = a.finish(c.name);
        std::vector<tol::PathElem> path = straightPath(prog);
        ASSERT_FALSE(path.empty()) << c.name;
        GAddr fall = path.back().pc + path.back().inst.length;

        tol::Frontend fe((tol::FrontendOptions()));
        tol::Region region = fe.build(
            layout::codeBase, tol::RegionMode::BB, path, std::nullopt,
            tol::Frontend::EndSpec{tol::ExitKind::Interp, fall});

        verify::Ctx ctx;
        verify::GuestSummary gs = verify::symEvalGuest(ctx, region);
        ASSERT_EQ(gs.error, "") << c.name;
        const verify::GuestExit *fin = nullptr;
        for (const verify::GuestExit &ge : gs.exits)
            if (ge.cond == verify::nilExpr)
                fin = &ge;
        ASSERT_NE(fin, nullptr) << c.name;

        for (int trial = 0; trial < 6; ++trial) {
            CpuState pre = randomState(rng);
            if (c.fix)
                c.fix(pre);

            PagedMemory preMem, postMem;
            prog.load(preMem);
            prog.load(postMem);
            CpuState post = pre;
            for (const tol::PathElem &el : path) {
                post.pc = el.pc;
                ExecOut out = execInst(el.inst, post, postMem);
                while (out.status == ExecStatus::Again)
                    out = execInst(el.inst, post, postMem);
                ASSERT_EQ(out.status, ExecStatus::Ok)
                    << c.name << " trial " << trial;
            }

            verify::Env env = makeEnv(ctx, pre, preMem);
            for (unsigned g = 0; g < numGRegs; ++g)
                EXPECT_EQ(
                    ctx.evalI(fin->outs[tol::locGpr0 + g], env),
                    post.gpr[g])
                    << c.name << " trial " << trial << " g" << g;
            const std::pair<u16, u8> flagLocs[] = {
                {tol::locFlagZ, flagZ},
                {tol::locFlagS, flagS},
                {tol::locFlagC, flagC},
                {tol::locFlagO, flagO}};
            for (auto [loc, bit] : flagLocs)
                EXPECT_EQ(ctx.evalI(fin->outs[loc], env),
                          (post.flags & bit) ? 1u : 0u)
                    << c.name << " trial " << trial << " flag bit "
                    << int(bit);
            for (unsigned f = 0; f < numFRegs; ++f) {
                double sym =
                    ctx.evalF(fin->outs[tol::locFpr0 + f], env);
                EXPECT_EQ(std::memcmp(&sym, &post.fpr[f], 8), 0)
                    << c.name << " trial " << trial << " f" << f
                    << ": " << sym << " vs " << post.fpr[f];
            }
            expectMemoryAgrees(ctx, fin->mem, env, postMem,
                               std::string(c.name) + " trial " +
                                   std::to_string(trial));
        }
    }
}

// =====================================================================
// HISA sweep: symbolic host-path execution vs the concrete HostEmu.

namespace
{

using host::HInst;
using host::HOp;
namespace regmap = host::regmap;

struct HCase
{
    const char *name;
    std::vector<HInst> body;
    std::function<void(CpuState &)> fix;
    std::vector<double> pool;
};

HInst
h(HOp op, u8 rd, u8 rs1 = 0, u8 rs2 = 0, s32 imm = 0)
{
    HInst i;
    i.op = op;
    i.rd = rd;
    i.rs1 = rs1;
    i.rs2 = rs2;
    i.imm = imm;
    return i;
}

constexpr u8 G0 = regmap::guestGprBase;     // guest g0 -> host r1
constexpr u8 F0 = regmap::guestFprBase;

std::vector<HCase>
hisaCases()
{
    std::vector<HCase> cs;
    auto fixDiv = [](CpuState &st) {
        st.gpr[2] |= 1;
        if (st.gpr[2] == 0xffffffffu)
            st.gpr[2] = 3;
    };
    // G0 is host r1 == guest g0: pin g0 at the data segment.
    auto fixAddr = [](CpuState &st) {
        st.gpr[0] = u32(layout::dataBase);
    };
    for (HOp op : {HOp::ADD, HOp::SUB, HOp::MUL, HOp::MULH, HOp::AND,
                   HOp::OR, HOp::XOR, HOp::SLL, HOp::SRL, HOp::SRA,
                   HOp::SLT, HOp::SLTU, HOp::SEQ, HOp::SNE, HOp::SGE,
                   HOp::SGEU})
        cs.push_back({host::hopInfo(op).name,
                      {h(op, G0, G0 + 1, G0 + 2)},
                      nullptr,
                      {}});
    for (HOp op : {HOp::DIV, HOp::REM})
        cs.push_back({host::hopInfo(op).name,
                      {h(op, G0, G0 + 1, G0 + 2)},
                      fixDiv,
                      {}});
    for (HOp op : {HOp::ADDI, HOp::ANDI, HOp::ORI, HOp::XORI,
                   HOp::SLTI, HOp::SEQI, HOp::SNEI})
        cs.push_back({host::hopInfo(op).name,
                      {h(op, G0, G0 + 1, 0, 37)},
                      nullptr,
                      {}});
    for (HOp op : {HOp::SLLI, HOp::SRLI, HOp::SRAI})
        cs.push_back({host::hopInfo(op).name,
                      {h(op, G0, G0 + 1, 0, 7)},
                      nullptr,
                      {}});
    cs.push_back({"lui", {h(HOp::LUI, G0, 0, 0, 0x12345)}, nullptr, {}});
    for (HOp op : {HOp::LB, HOp::LBU, HOp::LH, HOp::LHU, HOp::LW})
        cs.push_back({host::hopInfo(op).name,
                      {h(op, G0 + 2, G0, 0, 8)},
                      fixAddr,
                      {}});
    for (HOp op : {HOp::SB, HOp::SH, HOp::SW})
        cs.push_back({host::hopInfo(op).name,
                      {h(op, 0, G0, G0 + 2, 16)},
                      fixAddr,
                      {}});
    cs.push_back(
        {"fld", {h(HOp::FLD, F0, G0, 0, 24)}, fixAddr, {}});
    cs.push_back(
        {"fst", {h(HOp::FST, 0, G0, F0 + 1, 32)}, fixAddr, {}});
    cs.push_back({"fldc",
                  {h(HOp::FLDC, F0, 0, 0, 1)},
                  nullptr,
                  {2.5, -0.75}});
    for (HOp op : {HOp::FADD, HOp::FSUB, HOp::FMUL, HOp::FDIV})
        cs.push_back({host::hopInfo(op).name,
                      {h(op, F0, F0 + 1, F0 + 2)},
                      nullptr,
                      {}});
    cs.push_back({"fsqrt",
                  {h(HOp::FSQRT, F0, F0 + 1)},
                  [](CpuState &st) {
                      st.fpr[1] = std::fabs(st.fpr[1]);
                  },
                  {}});
    for (HOp op : {HOp::FABS, HOp::FNEG, HOp::FMOV, HOp::FRND})
        cs.push_back({host::hopInfo(op).name,
                      {h(op, F0, F0 + 1)},
                      nullptr,
                      {}});
    cs.push_back(
        {"fcvtwd", {h(HOp::FCVTWD, F0, G0 + 1)}, nullptr, {}});
    cs.push_back({"fcvtzw",
                  {h(HOp::FCVTZW, G0, F0 + 1)},
                  [](CpuState &st) {
                      st.fpr[1] = std::fmod(st.fpr[1], 1e6);
                  },
                  {}});
    for (HOp op : {HOp::FEQ, HOp::FLT, HOp::FLE})
        cs.push_back({host::hopInfo(op).name,
                      {h(op, G0, F0, F0 + 1)},
                      nullptr,
                      {}});
    // Conditional branches: skip one ADDI when taken -> two paths.
    for (HOp op : {HOp::BEQ, HOp::BNE, HOp::BLT, HOp::BGE, HOp::BLTU,
                   HOp::BGEU})
        cs.push_back({host::hopInfo(op).name,
                      {h(op, 0, G0, G0 + 1, 1),
                       h(HOp::ADDI, G0 + 2, G0 + 2, 0, 5)},
                      nullptr,
                      {}});
    return cs;
}

} // namespace

TEST(HisaSweep, SymbolicAgreesWithHostEmu)
{
    std::mt19937 rng(20260809);
    for (const HCase &c : hisaCases()) {
        std::vector<u32> words;
        words.push_back(host::hencode(h(HOp::CKPT, 0)));
        for (const HInst &i : c.body)
            words.push_back(host::hencode(i));
        words.push_back(host::hencode(h(HOp::COMMIT, 0)));
        words.push_back(host::hencode(h(HOp::RETIRE, 0, 0, 0, 0)));
        words.push_back(host::hencode(h(HOp::EXITB, 0, 0, 0, 0)));

        verify::Ctx ctx;
        verify::SymHostResult sym =
            verify::symExecHost(ctx, words, c.pool, 64);
        ASSERT_EQ(sym.error, "") << c.name;
        ASSERT_FALSE(sym.paths.empty()) << c.name;
        for (const verify::HostPath &p : sym.paths)
            ASSERT_EQ(p.structuralError, "") << c.name;

        for (int trial = 0; trial < 6; ++trial) {
            CpuState pre = randomState(rng);
            if (c.fix)
                c.fix(pre);

            // A tiny data image so loads read nonzero bytes.
            Assembler a;
            for (u32 i = 0; i < 64; ++i)
                a.dataU32(rng() | 1);
            a.hlt();
            Program img = a.finish("himg");
            PagedMemory preMem, hostMem;
            img.load(preMem);
            img.load(hostMem);

            host::CodeCache cache(1 << 12);
            u32 base = cache.install(words);
            host::HostEmu emu(cache, hostMem);
            for (double v : c.pool)
                emu.fpPool().push_back(v);
            emu.loadGuestState(pre);
            host::ExitInfo e = emu.run(base, 10'000);
            ASSERT_EQ(e.kind, host::ExitKind::Exit)
                << c.name << " trial " << trial;
            CpuState post;
            emu.storeGuestState(post);

            verify::Env env = makeEnv(ctx, pre, preMem);
            // Pick the symbolic path the concrete run took.
            const verify::HostPath *hit = nullptr;
            for (const verify::HostPath &p : sym.paths)
                if (ctx.factsHold(p.facts, env))
                    hit = &p;
            ASSERT_NE(hit, nullptr) << c.name << " trial " << trial;

            for (unsigned g = 0; g < numGRegs; ++g)
                EXPECT_EQ(ctx.evalI(
                              hit->gpr[regmap::guestGprBase + g], env),
                          post.gpr[g])
                    << c.name << " trial " << trial << " g" << g;
            const std::pair<u8, u8> flagRegs[] = {
                {regmap::flagZ, flagZ},
                {regmap::flagS, flagS},
                {regmap::flagC, flagC},
                {regmap::flagO, flagO}};
            for (auto [hr, bit] : flagRegs)
                EXPECT_EQ(ctx.evalI(hit->gpr[hr], env),
                          (post.flags & bit) ? 1u : 0u)
                    << c.name << " trial " << trial;
            for (unsigned f = 0; f < numFRegs; ++f) {
                double sv = ctx.evalF(
                    hit->fpr[regmap::guestFprBase + f], env);
                EXPECT_EQ(std::memcmp(&sv, &post.fpr[f], 8), 0)
                    << c.name << " trial " << trial << " f" << f;
            }
            expectMemoryAgrees(ctx, hit->mem, env, hostMem,
                               std::string(c.name) + " trial " +
                                   std::to_string(trial));
        }
    }
}

// =====================================================================
// End-to-end: workload translations prove clean; injected codegen
// bugs are refuted with a concrete witness.

namespace
{

guest::Program
verifyWorkload()
{
    workloads::WorkloadParams p;
    p.name = "verify-wl";
    p.seed = 55;
    p.numBlocks = 24;
    p.outerIters = 200;
    p.memFrac = 0.30;
    p.loopFrac = 0.10;
    p.coldFrac = 0.15;
    return workloads::synthesize(p);
}

Config
verifyCfg()
{
    // Fast promotion so the run exercises BBM/SBM within test budget.
    Config cfg({"tol.bb_threshold=4", "tol.sb_threshold=12",
                "tol.min_edge_total=8"});
    cfg.parseLine("tol.verify=true");
    return cfg;
}

/** Run a workload under cfg; tolerate a runtime divergence (injected
 *  bugs fire the sync oracle), then discharge the proofs. */
const verify::VerifyReport &
runAndVerify(sim::Controller &ctl)
{
    ctl.load(verifyWorkload());
    try {
        ctl.run(400'000);
    } catch (const std::exception &) {
        // Injected-bug runs may diverge; the proofs still run.
    }
    ctl.tol().verifyFinal();
    return ctl.tol().verifyReport();
}

} // namespace

TEST(VerifySuite, WorkloadTranslationsProveClean)
{
    sim::Controller ctl(verifyCfg());
    const verify::VerifyReport &rep = runAndVerify(ctl);
    EXPECT_TRUE(rep.clean()) << rep.summary();
    EXPECT_GT(rep.proved, 0u);
    for (const verify::VerifyResult &r : rep.results)
        EXPECT_EQ(r.verdict, verify::Verdict::Proved)
            << r.detail << "\n" << r.witness;
}

TEST(VerifyInjectors, FlipCondExitsRefutedWithWitness)
{
    Config cfg = verifyCfg();
    cfg.parseLine("debug.flip_cond_exits=true");
    sim::Controller ctl(cfg);
    const verify::VerifyReport &rep = runAndVerify(ctl);
    ASSERT_GT(rep.refuted, 0u) << rep.summary();
    bool witnessed = false;
    for (const verify::VerifyResult &r : rep.results)
        if (r.verdict == verify::Verdict::Refuted && !r.witness.empty())
            witnessed = true;
    EXPECT_TRUE(witnessed)
        << "refuted without a concrete counterexample";
}

TEST(VerifyInjectors, DropGuardRefutedWithWitness)
{
    Config cfg = verifyCfg();
    cfg.parseLine("debug.drop_guard=true");
    sim::Controller ctl(cfg);
    const verify::VerifyReport &rep = runAndVerify(ctl);
    ASSERT_GT(rep.refuted, 0u) << rep.summary();
    bool witnessed = false;
    for (const verify::VerifyResult &r : rep.results) {
        if (r.verdict != verify::Verdict::Refuted)
            continue;
        EXPECT_NE(r.detail.find("guard"), std::string::npos)
            << r.detail;
        if (!r.witness.empty())
            witnessed = true;
    }
    EXPECT_TRUE(witnessed)
        << "refuted without a concrete counterexample";
}
