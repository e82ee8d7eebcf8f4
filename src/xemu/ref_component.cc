#include "xemu/ref_component.hh"

#include "common/logging.hh"
#include "snapshot/io.hh"

namespace darco::xemu
{

using namespace guest;

void
RefComponent::save(snapshot::Serializer &s) const
{
    state_.save(s);
    mem_.save(s);
    os_.save(s);
    s.w64(instCount_);
    s.w64(bbCount_);
    s.wbool(finished_);
    s.w32(exitCode_);
}

void
RefComponent::restore(snapshot::Deserializer &d)
{
    state_.restore(d);
    mem_.restore(d);
    os_.restore(d);
    instCount_ = d.r64();
    bbCount_ = d.r64();
    finished_ = d.rbool();
    exitCode_ = d.r32();
    decode_.clear();
    lastDirtied_.clear();
}

void
RefComponent::load(const Program &prog)
{
    mem_.clear();
    state_ = prog.load(mem_);
    os_ = GuestOS(seed_);
    decode_.clear();
    instCount_ = 0;
    bbCount_ = 0;
    finished_ = false;
    exitCode_ = 0;
    lastDirtied_.clear();
}

void
RefComponent::retire(const GInst &inst)
{
    ExecOut out = execInst(inst, state_, mem_);
    while (out.status == ExecStatus::Again)
        out = execInst(inst, state_, mem_);

    switch (out.status) {
      case ExecStatus::Ok:
        ++instCount_;
        return;

      case ExecStatus::CtiTaken:
      case ExecStatus::CtiNotTaken:
        ++instCount_;
        ++bbCount_;
        return;

      case ExecStatus::Halt:
        finished_ = true;
        return;

      case ExecStatus::Fault:
        throw GuestFault{state_.pc, out.faultMsg};

      default:
        panic("unexpected exec status");
    }
}

bool
RefComponent::step()
{
    if (finished_)
        return false;

    const GInst &inst = decode_.fetch(mem_, state_.pc);
    if (inst.op != GOp::SYSCALL) {
        retire(inst);
        return !finished_;
    }

    SyscallEffect eff = os_.execute(state_, mem_, inst.length);
    lastDirtied_ = eff.dirtiedPages;
    ++instCount_;
    ++bbCount_;
    if (eff.exited) {
        finished_ = true;
        exitCode_ = eff.exitCode;
    }
    return !finished_;
}

RefComponent::Stop
RefComponent::runAhead(const std::atomic<u64> &limit,
                       std::atomic<u64> &progress,
                       const PagedMemory &holder)
{
    mem_.setWriteGuard(&holder);
    Stop stop = Stop::Blocked;
    try {
        while (!finished_) {
            // Read once per block: a lower limit (halt()'s 0) takes
            // effect at the block's end, and the block stops at this
            // one.
            const u64 lim = limit.load(std::memory_order_relaxed);
            if (instCount_ >= lim) {
                stop = Stop::Limit;
                break;
            }
            const BlockEnd end = retireBlock(decode_, state_, mem_,
                                             instCount_, bbCount_, lim);
            progress.store(instCount_, std::memory_order_release);
            if (end == BlockEnd::Blocked)
                break;
        }
    } catch (const PageMiss &pm) {
        guardPage_ = pm.page;
        stop = Stop::Guard;
    } catch (...) {
        stop = Stop::Blocked;
    }
    mem_.setWriteGuard(nullptr);
    return stop;
}

void
RefComponent::runUntilInstCount(u64 n)
{
    while (instCount_ < n && !finished_) {
        if (retireBlock(decode_, state_, mem_, instCount_, bbCount_, n) ==
            BlockEnd::Blocked)
            step(); // the SYSCALL, the HLT or the fault
    }
}

void
RefComponent::runToCompletion(u64 max_insts)
{
    runUntilInstCount(max_insts);
}

} // namespace darco::xemu
