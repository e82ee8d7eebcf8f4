#include "fuzz/diffrun.hh"

#include <cstring>
#include <memory>
#include <sstream>

#include "campaign/campaign.hh"
#include "common/schema.hh"
#include "guest/semantics.hh"
#include "sim/controller.hh"
#include "sim/debug.hh"
#include "verify/verifier.hh"
#include "xemu/ref_component.hh"

namespace darco::fuzz
{

using namespace guest;

std::vector<DiffConfig>
defaultMatrix()
{
    // The campaign presets. async must be architecturally identical
    // to fullopt; only timing differs.
    std::vector<DiffConfig> matrix;
    for (const std::string &name : campaign::presetNames())
        matrix.push_back({name, campaign::presetOverrides(name)});
    // Two guest cores sharing one TOL over a tiny code cache:
    // cross-core eviction storms and cross-core chaining, each core
    // validated against its own per-core golden run.
    std::vector<std::string> mc = campaign::presetOverrides("tinycc");
    mc.insert(mc.begin(), "cores=2");
    matrix.push_back({"mc", std::move(mc)});
    return matrix;
}

std::vector<DiffConfig>
randomMatrix(u64 seed, unsigned n)
{
    std::vector<DiffConfig> matrix = defaultMatrix();
    for (unsigned k = 0; k < n; ++k) {
        DiffConfig cell;
        cell.name = "rand" + std::to_string(k);
        // Decorrelate the cell stream from the program-generator
        // stream (both are seeded from the same sweep seed).
        cell.overrides =
            conf::schema().randomOverrides(seed * 131 + k + 1);
        matrix.push_back(std::move(cell));
    }
    return matrix;
}

Config
makeConfig(const DiffConfig &cell, u64 seed,
           const std::vector<std::string> &extra)
{
    // Fast-promotion thresholds: fuzz programs are small, and the
    // point is to spend their dynamic length in translated code.
    Config cfg;
    cfg.set("tol.bb_threshold", s64(4));
    cfg.set("tol.sb_threshold", s64(12));
    cfg.set("tol.min_edge_total", s64(8));
    for (const std::string &kv : cell.overrides)
        cfg.parseLine(kv);
    for (const std::string &kv : extra)
        cfg.parseLine(kv);
    cfg.set("seed", s64(seed));
    return cfg;
}

namespace
{

/** Render a run header like "fullopt: insts=1234 exit=7". */
std::string
line(const RunOutcome &r)
{
    std::ostringstream os;
    os << r.config << ": ";
    if (!r.error.empty()) {
        os << "ERROR " << r.error;
    } else if (!r.finished) {
        os << "HANG (insts=" << r.insts << ")";
    } else {
        os << "insts=" << r.insts << " bbs=" << r.bbs
           << " exit=" << r.exitCode << " evict=" << r.evictions
           << " flush=" << r.flushes;
    }
    if (r.proofsChecked)
        os << " proofs=" << r.proved << "/" << r.refuted << "/"
           << r.unproven;
    return os.str();
}

} // namespace

std::string
DiffResult::report() const
{
    std::ostringstream os;
    os << (ok ? "OK" : "FAIL");
    if (!ok)
        os << " [" << failConfig << "] " << failure;
    os << '\n';
    for (const RunOutcome &r : runs)
        os << "  " << line(r) << '\n';
    return os.str();
}

DiffResult
diffRun(const Program &prog, u64 seed, const DiffOptions &opts)
{
    DiffResult res;
    auto fail = [&](const std::string &config, const std::string &what) {
        if (res.ok) {
            res.ok = false;
            res.failConfig = config;
            res.failure = what;
        }
    };

    // --- golden reference runs -----------------------------------------
    // One authoritative run per guest core: core i's golden is seeded
    // seed+i, matching the controller's per-core reference components
    // (every core runs its own instance of the program). Goldens above
    // core 0 are built lazily so single-core cells pay nothing.
    std::vector<std::unique_ptr<xemu::RefComponent>> goldens;
    std::string goldenErr;
    auto ensureGoldens = [&](u32 n) -> bool {
        while (goldens.size() < n) {
            auto g = std::make_unique<xemu::RefComponent>(
                seed + goldens.size());
            g->load(prog);
            try {
                g->runToCompletion(maxRefInsts);
            } catch (const GuestFault &gf) {
                std::ostringstream os;
                os << "reference (core " << goldens.size()
                   << ") faulted at pc 0x" << std::hex << gf.pc
                   << ": " << gf.msg;
                goldenErr = os.str();
                return false;
            }
            if (!g->finished()) {
                goldenErr =
                    "reference (core " +
                    std::to_string(goldens.size()) + ") exceeded " +
                    std::to_string(maxRefInsts) +
                    " insts (generator bug: non-terminating)";
                return false;
            }
            goldens.push_back(std::move(g));
        }
        return true;
    };
    if (!ensureGoldens(1)) {
        fail("reference", goldenErr);
        return res;
    }
    xemu::RefComponent &golden = *goldens[0];

    const std::vector<DiffConfig> matrix =
        opts.matrix.empty() ? defaultMatrix() : opts.matrix;

    // Proof mode verifies every translation as it is installed; an
    // explicit -c tol.verify=... still wins (extra applies later).
    std::vector<std::string> extra = opts.extra;
    if (opts.proofs)
        extra.insert(extra.begin(), "tol.verify=true");

    // --- config matrix --------------------------------------------------
    for (const DiffConfig &cell : matrix) {
        RunOutcome out;
        out.config = cell.name;
        Config cfg = makeConfig(cell, seed, extra);
        u32 ncores = u32(conf::getUint(cfg, "cores"));
        if (!ensureGoldens(ncores)) {
            fail(cell.name, goldenErr);
            res.runs.push_back(std::move(out));
            continue;
        }
        u64 goldenInsts = 0, goldenBbs = 0;
        for (u32 i = 0; i < ncores; ++i) {
            goldenInsts += goldens[i]->instCount();
            goldenBbs += goldens[i]->bbCount();
        }
        u64 budget = goldenInsts * budgetSlack + budgetFloor;

        sim::Controller ctl(cfg);
        try {
            ctl.load(prog);
            ctl.run(budget);
        } catch (const sim::DivergenceError &de) {
            out.error = std::string("divergence: ") + de.what();
        } catch (const std::exception &e) {
            out.error = e.what();
        }

        if (ctl.loaded()) {
            out.finished = ctl.finished();
            out.state = ctl.tol().state();
            out.insts = ctl.tol().completedInsts();
            out.bbs = ctl.tol().completedBBs();
            out.exitCode = ctl.exitCode();
            out.evictions = ctl.stats().value("cc.evictions");
            out.flushes = ctl.stats().value("cc.flushes");
            out.imInsts = ctl.stats().value("tol.guest_im");
            out.bbmInsts = ctl.stats().value("tol.guest_bbm");
            out.sbmInsts = ctl.stats().value("tol.guest_sbm");
            out.osOutput = ctl.ref().os().output();
        }

        // --- cross-checks against the golden run -----------------------
        if (!out.error.empty()) {
            fail(cell.name, out.error);
        } else if (!out.finished) {
            fail(cell.name,
                 "did not terminate within " + std::to_string(budget) +
                     " guest insts (golden: " +
                     std::to_string(goldenInsts) + ")");
        } else {
            if (out.insts != goldenInsts)
                fail(cell.name,
                     "retired insts " + std::to_string(out.insts) +
                         " != golden " + std::to_string(goldenInsts));
            if (out.bbs != goldenBbs)
                fail(cell.name,
                     "retired BBs " + std::to_string(out.bbs) +
                         " != golden " + std::to_string(goldenBbs));
            if (out.exitCode != golden.exitCode())
                fail(cell.name,
                     "exit code " + std::to_string(out.exitCode) +
                         " != golden " +
                         std::to_string(golden.exitCode()));
            // Per-core architectural checks: each core against its
            // own golden (state, retirement, exit code, OS output).
            for (u32 i = 0; i < ncores; ++i) {
                xemu::RefComponent &g = *goldens[i];
                std::string c = "core " + std::to_string(i);
                const CpuState &st = ctl.tol().state(i);
                if (!(st == g.state()))
                    fail(cell.name, c + " final state diverged: " +
                                        g.state().diff(st));
                if (ctl.tol().completedInsts(i) != g.instCount())
                    fail(cell.name,
                         c + " retired insts " +
                             std::to_string(
                                 ctl.tol().completedInsts(i)) +
                             " != golden " +
                             std::to_string(g.instCount()));
                if (ctl.tol().completedBBs(i) != g.bbCount())
                    fail(cell.name,
                         c + " retired BBs " +
                             std::to_string(
                                 ctl.tol().completedBBs(i)) +
                             " != golden " +
                             std::to_string(g.bbCount()));
                if (ctl.ref(i).exitCode() != g.exitCode())
                    fail(cell.name,
                         c + " exit code " +
                             std::to_string(ctl.ref(i).exitCode()) +
                             " != golden " +
                             std::to_string(g.exitCode()));
                if (ctl.ref(i).os().output() != g.os().output())
                    fail(cell.name, c + " OS output diverged");
            }
            // Chain-graph consistency, most interesting after the
            // tinycc cell's eviction/unchain storms.
            std::string inv = ctl.registry().checkInvariants();
            if (!inv.empty())
                fail(cell.name, "registry invariants broken: " + inv);
            if (out.imInsts + out.bbmInsts + out.sbmInsts != out.insts)
                fail(cell.name,
                     "mode accounting broken: im+bbm+sbm = " +
                         std::to_string(out.imInsts + out.bbmInsts +
                                        out.sbmInsts) +
                         " != retired " + std::to_string(out.insts));

            // BBV conservation: with profiling enabled, every retired
            // instruction must be attributed to exactly one BB in
            // exactly one interval (sampled simulation is built on
            // this accounting being airtight).
            const tol::Profiler &prof = ctl.tol().profiler();
            if (prof.bbvEnabled()) {
                out.bbvChecked = true;
                out.bbvIntervals = prof.bbvIntervals().size();
                std::string bbv =
                    prof.checkBbvInvariants(out.insts);
                if (!bbv.empty())
                    fail(cell.name,
                         "BBV conservation broken: " + bbv);
            }

            // Memory image: every page the co-designed side touched
            // must match the authoritative image bit-exactly, per
            // core. The scan is deliberately one-sided (paper Section
            // V-D): emulated memory is a demand-fetched cache of the
            // authoritative image, so a page it never fetched carries
            // no emulated claim to compare — materializing it as
            // zeros would false-positive on every never-read data
            // page.
            for (u32 i = 0; i < ncores; ++i) {
                for (GAddr page :
                     ctl.emulatedMemory(i).residentPages()) {
                    const u8 *mine = ctl.emulatedMemory(i).page(page);
                    const u8 *gold = goldens[i]->memory().page(page);
                    if (std::memcmp(mine, gold, pageSizeBytes) != 0) {
                        std::ostringstream os;
                        os << "memory diverged at core " << i
                           << " page 0x" << std::hex << page;
                        fail(cell.name, os.str());
                        break;
                    }
                }
            }
        }

        // --- proof / oracle cross-check ----------------------------------
        bool oracleFailed = !res.ok && res.failConfig == cell.name;
        if (opts.proofs && ctl.loaded() &&
            ctl.tol().verifyEnabled()) {
            std::string proofErr;
            try {
                // Publishes (and so proves) the async jobs that are
                // due at the end of the run.
                ctl.tol().verifyFinal();
            } catch (const std::exception &e) {
                proofErr = e.what();
            }
            const verify::VerifyReport &rep = ctl.tol().verifyReport();
            out.proofsChecked = true;
            out.proved = rep.proved;
            out.refuted = rep.refuted;
            out.unproven = rep.unknown;
            if (!proofErr.empty())
                fail(cell.name, "proof pass aborted: " + proofErr);
            if (!rep.clean()) {
                // First refuted result if any (it carries a concrete
                // witness), otherwise the first unknown.
                const verify::VerifyResult *worst = nullptr;
                for (const verify::VerifyResult &vr : rep.results) {
                    if (vr.verdict == verify::Verdict::Proved)
                        continue;
                    if (!worst ||
                        (worst->verdict != verify::Verdict::Refuted &&
                         vr.verdict == verify::Verdict::Refuted))
                        worst = &vr;
                }
                std::ostringstream os;
                os << "translation proof failure with the oracle "
                   << (oracleFailed ? "also failing"
                                    : "PASSING (silent miscompile "
                                      "caught by the proof alone)")
                   << ": " << rep.summary();
                if (worst) {
                    os << "; first: region @0x" << std::hex
                       << worst->entry << std::dec << " — "
                       << worst->detail;
                    if (!worst->witness.empty())
                        os << "\n  " << worst->witness;
                }
                fail(cell.name, os.str());
            } else if (oracleFailed) {
                res.failure +=
                    "\n  every translation proof passed (" +
                    rep.summary() +
                    ") — divergence is outside the proved "
                    "translations (sync protocol, dispatch, or a "
                    "verifier gap)";
            }
        }

        bool thisCellFailed = !res.ok && res.failConfig == cell.name;
        if (thisCellFailed && opts.pinpoint) {
            auto dp = sim::findFirstDivergence(prog, cfg, budget);
            if (dp) {
                std::ostringstream os;
                os << res.failure << "\n  first divergent region: ";
                if (ncores > 1)
                    os << "core " << dp->core << " ";
                os << "pc 0x" << std::hex << dp->regionEntryPc << std::dec
                   << " insts [" << dp->instFrom << ", " << dp->instTo
                   << "]\n"
                   << dp->disassembly;
                res.failure = os.str();
            }
        }

        res.runs.push_back(std::move(out));
    }

    return res;
}

} // namespace darco::fuzz
