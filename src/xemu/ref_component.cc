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
    mem_ = PagedMemory(MissPolicy::AllocateZero);
    state_ = prog.load(mem_);
    os_ = GuestOS(seed_);
    decode_.clear();
    instCount_ = 0;
    bbCount_ = 0;
    finished_ = false;
    exitCode_ = 0;
    lastDirtied_.clear();
}

bool
RefComponent::step()
{
    if (finished_)
        return false;

    const GInst &inst = decode_.fetch(mem_, state_.pc);

    ExecOut out = execInst(inst, state_, mem_);
    while (out.status == ExecStatus::Again)
        out = execInst(inst, state_, mem_);

    switch (out.status) {
      case ExecStatus::Ok:
      case ExecStatus::CtiNotTaken:
        ++instCount_;
        if (inst.isCti())
            ++bbCount_;
        return true;

      case ExecStatus::CtiTaken:
        ++instCount_;
        ++bbCount_;
        return true;

      case ExecStatus::Syscall: {
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

      case ExecStatus::Halt:
        finished_ = true;
        return false;

      case ExecStatus::Fault:
        throw GuestFault{state_.pc, out.faultMsg};

      default:
        panic("unexpected exec status");
    }
}

void
RefComponent::runUntilInstCount(u64 n)
{
    while (instCount_ < n && !finished_)
        step();
}

void
RefComponent::runToCompletion(u64 max_insts)
{
    while (!finished_ && instCount_ < max_insts)
        step();
}

} // namespace darco::xemu
