#include "tol/profiler.hh"

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/logging.hh"
#include "snapshot/io.hh"

namespace darco::tol
{

// ---------------------------------------------------------------------
// BBV collection
// ---------------------------------------------------------------------

void
Profiler::enableBbv(u64 interval_insts)
{
    darco_assert(interval_insts > 0, "BBV interval must be positive");
    bbvInterval_ = interval_insts;
}

void
Profiler::closeBbvInterval()
{
    BbvInterval iv;
    iv.counts.assign(bbvCur_.begin(), bbvCur_.end());
    std::sort(iv.counts.begin(), iv.counts.end());
    iv.insts = bbvCurInsts_;
    iv.overhead = bbvCurOverhead_;
    bbvClosed_.push_back(std::move(iv));
    bbvCur_.clear();
    bbvCurInsts_ = 0;
    bbvCurOverhead_ = 0;
}

void
Profiler::recordBbvRetire(GAddr bb_entry, u64 insts)
{
    bbvTotal_ += insts;
    while (insts > 0) {
        u64 room = bbvInterval_ - bbvCurInsts_;
        u64 take = std::min(insts, room);
        bbvCur_[bb_entry] += take;
        bbvCurInsts_ += take;
        insts -= take;
        if (bbvCurInsts_ == bbvInterval_)
            closeBbvInterval();
    }
}

void
Profiler::recordBbvOverhead(u64 units)
{
    bbvCurOverhead_ += units;
}

Profiler::BbvInterval
Profiler::bbvPartial() const
{
    BbvInterval iv;
    iv.counts.assign(bbvCur_.begin(), bbvCur_.end());
    std::sort(iv.counts.begin(), iv.counts.end());
    iv.insts = bbvCurInsts_;
    iv.overhead = bbvCurOverhead_;
    return iv;
}

std::string
Profiler::checkBbvInvariants(u64 retired_insts) const
{
    std::ostringstream os;
    u64 sum = 0;
    for (std::size_t i = 0; i < bbvClosed_.size(); ++i) {
        const BbvInterval &iv = bbvClosed_[i];
        u64 s = 0;
        for (const auto &[_, n] : iv.counts)
            s += n;
        if (s != iv.insts || s != bbvInterval_) {
            os << "interval " << i << " sums to " << s << " (recorded "
               << iv.insts << ", interval length " << bbvInterval_
               << ")";
            return os.str();
        }
        sum += s;
    }
    u64 partial = 0;
    for (const auto &[_, n] : bbvCur_)
        partial += n;
    if (partial != bbvCurInsts_) {
        os << "partial interval sums to " << partial << " (recorded "
           << bbvCurInsts_ << ")";
        return os.str();
    }
    sum += partial;
    if (sum != bbvTotal_ || sum != retired_insts) {
        os << "BBV total " << sum << " (running total " << bbvTotal_
           << ") != retired instructions " << retired_insts;
        return os.str();
    }
    return "";
}

// ---------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------

void
Profiler::save(snapshot::Serializer &s) const
{
    // Sorted orders keep the byte stream deterministic.
    std::vector<std::pair<GAddr, u32>> im(imCounters_.begin(),
                                          imCounters_.end());
    std::sort(im.begin(), im.end());
    s.w64(im.size());
    for (auto &[entry, count] : im) {
        s.w32(entry);
        s.w32(count);
    }

    std::vector<std::pair<GAddr, Slots>> sm(slotMap_.begin(),
                                            slotMap_.end());
    std::sort(sm.begin(), sm.end(),
              [](const auto &a, const auto &b) {
                  return a.second.exec < b.second.exec;
              });
    s.w64(sm.size());
    for (auto &[entry, sl] : sm) {
        s.w32(entry);
        s.w32(sl.exec);
        s.w32(emu_.readLocal32(sl.exec));
        s.w32(emu_.readLocal32(sl.taken));
        s.w32(emu_.readLocal32(sl.fall));
    }
    s.w32(next_);

    // BBV collection state. The open partial interval is serialized
    // sorted so the byte stream stays deterministic.
    s.w64(bbvInterval_);
    s.w64(bbvTotal_);
    s.w64(bbvClosed_.size());
    for (const BbvInterval &iv : bbvClosed_) {
        s.w64(iv.insts);
        s.w64(iv.overhead);
        s.w64(iv.counts.size());
        for (const auto &[entry, n] : iv.counts) {
            s.w32(entry);
            s.w64(n);
        }
    }
    BbvInterval part = bbvPartial();
    s.w64(part.insts);
    s.w64(part.overhead);
    s.w64(part.counts.size());
    for (const auto &[entry, n] : part.counts) {
        s.w32(entry);
        s.w64(n);
    }
}

void
Profiler::restore(snapshot::Deserializer &d)
{
    imCounters_.clear();
    u64 nim = d.r64();
    for (u64 i = 0; i < nim; ++i) {
        GAddr entry = d.r32();
        imCounters_[entry] = d.r32();
    }

    slotMap_.clear();
    u64 nsl = d.r64();
    for (u64 i = 0; i < nsl; ++i) {
        GAddr entry = d.r32();
        u32 exec = d.r32();
        // Slot addresses come from untrusted input: every slot the
        // allocator can hand out lies in [base_, base_ + 12*count).
        if (exec < base_ || u64(exec) + 12 > u64(base_) + 12 * nsl)
            throw snapshot::SnapshotError(
                "profiling slot address out of range");
        Slots sl{exec, exec + 4, exec + 8};
        emu_.writeLocal32(sl.exec, d.r32());
        emu_.writeLocal32(sl.taken, d.r32());
        emu_.writeLocal32(sl.fall, d.r32());
        slotMap_.emplace(entry, sl);
    }
    next_ = d.r32();

    bbvInterval_ = d.r64();
    bbvTotal_ = d.r64();
    bbvClosed_.clear();
    u64 nclosed = d.r64();
    for (u64 i = 0; i < nclosed; ++i) {
        BbvInterval iv;
        iv.insts = d.r64();
        iv.overhead = d.r64();
        u64 ncounts = d.r64();
        for (u64 k = 0; k < ncounts; ++k) {
            GAddr entry = d.r32();
            iv.counts.emplace_back(entry, d.r64());
        }
        bbvClosed_.push_back(std::move(iv));
    }
    bbvCur_.clear();
    bbvCurInsts_ = d.r64();
    bbvCurOverhead_ = d.r64();
    u64 npart = d.r64();
    for (u64 k = 0; k < npart; ++k) {
        GAddr entry = d.r32();
        bbvCur_[entry] = d.r64();
    }
}

Profiler::Profiler(host::HostEmu &emu, u32 base)
    : emu_(emu), base_(base), next_(base)
{
}

u32
Profiler::bumpIm(GAddr entry)
{
    return ++imCounters_[entry];
}

void
Profiler::resetIm(GAddr entry)
{
    imCounters_.erase(entry);
}

Profiler::Slots
Profiler::slots(GAddr bb_entry)
{
    auto it = slotMap_.find(bb_entry);
    if (it != slotMap_.end())
        return it->second;
    Slots s{next_, next_ + 4, next_ + 8};
    next_ += 12;
    slotMap_.emplace(bb_entry, s);
    return s;
}

u32
Profiler::edgeTaken(GAddr bb_entry)
{
    return emu_.readLocal32(slots(bb_entry).taken);
}

u32
Profiler::edgeFall(GAddr bb_entry)
{
    return emu_.readLocal32(slots(bb_entry).fall);
}

} // namespace darco::tol
