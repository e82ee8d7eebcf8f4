#include "sim/debug.hh"

#include <sstream>

#include "guest/semantics.hh"
#include "sim/controller.hh"

namespace darco::sim
{

using namespace guest;

std::optional<DivergencePoint>
findFirstDivergence(const Program &prog, const Config &cfg,
                    u64 max_insts,
                    const std::function<void(tol::Tol &, u64)> &sabotage)
{
    Config replay = cfg;
    replay.set("sync.validate_syscalls", true);
    replay.set("sync.validate_end", false);
    Controller ctl(replay);
    ctl.load(prog);
    tol::Tol &tol = ctl.tol();

    // Each core's entry pc and retirement count when the slice began.
    std::vector<GAddr> region_pc(ctl.numCores());
    std::vector<u64> prev(ctl.numCores());
    while (!tol.finished() && tol.completedInsts() < max_insts) {
        for (u32 c = 0; c < ctl.numCores(); ++c) {
            region_pc[c] = tol.state(c).pc;
            prev[c] = tol.completedInsts(c);
        }
        try {
            ctl.run(1); // one region / one BB per slice
        } catch (const DivergenceError &) {
            // A syscall ending the slice saw diverged state; the
            // comparison below names the core.
        }
        if (sabotage)
            sabotage(tol, tol.completedInsts());

        for (u32 c = 0; c < ctl.numCores(); ++c) {
            ctl.ref(c).runUntilInstCount(tol.completedInsts(c));
            std::string diff = ctl.validateState(c);
            if (diff.empty())
                continue;
            DivergencePoint d;
            d.core = c;
            d.regionEntryPc = region_pc[c];
            d.instFrom = prev[c];
            d.instTo = tol.completedInsts(c);
            d.stateDiff = diff;
            std::ostringstream os;
            GAddr pc = region_pc[c];
            for (int k = 0; k < 64; ++k) {
                GInst gi;
                try {
                    gi = fetchInst(ctl.ref(c).memory(), pc);
                } catch (const GuestFault &) {
                    break;
                }
                os << "  0x" << std::hex << pc << std::dec << ": "
                   << disasm(gi, pc) << "\n";
                if (gi.isCti())
                    break;
                pc += gi.length;
            }
            d.disassembly = os.str();
            return d;
        }
    }
    return std::nullopt;
}

} // namespace darco::sim
