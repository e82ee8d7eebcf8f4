#include "tol/async.hh"

#include <algorithm>

#include "common/logging.hh"
#include "snapshot/io.hh"

namespace darco::tol
{

void
writeRecipe(snapshot::Serializer &s, const SBRecipe &rc)
{
    s.wbool(rc.trip.has_value());
    s.w8(rc.trip ? rc.trip->reg : 0);
    s.w32(rc.trip ? rc.trip->factor : 0);
    s.wbool(rc.end.has_value());
    s.w8(rc.end ? u8(rc.end->kind) : 0);
    s.w32(rc.end ? rc.end->target : 0);
    s.w64(rc.steps.size());
    for (const auto &[bbe, code] : rc.steps) {
        s.w32(bbe);
        s.w8(code);
    }
}

SBRecipe
readRecipe(snapshot::Deserializer &d)
{
    SBRecipe rc;
    bool has_trip = d.rbool();
    u8 trip_reg = d.r8();
    u32 trip_factor = d.r32();
    if (has_trip)
        rc.trip = TripCheck{trip_reg, trip_factor};
    bool has_end = d.rbool();
    u8 end_kind = d.r8();
    GAddr end_target = d.r32();
    if (has_end)
        rc.end = Frontend::EndSpec{ExitKind(end_kind), end_target};
    u64 nsteps = d.r64();
    if (nsteps == 0)
        throw snapshot::SnapshotError("superblock recipe has no steps");
    for (u64 k = 0; k < nsteps; ++k) {
        GAddr bbe = d.r32();
        rc.steps.emplace_back(bbe, d.r8());
    }
    return rc;
}

AsyncTranslator::AsyncTranslator(u32 threads, u32 queue_cap,
                                 PrepareFn prepare)
    : prepare_(std::move(prepare)),
      nthreads_(threads),
      cap_(queue_cap == 0 ? 1 : queue_cap)
{
    darco_assert(nthreads_ >= 1,
                 "AsyncTranslator needs at least one worker");
}

AsyncTranslator::~AsyncTranslator()
{
    {
        std::lock_guard<std::mutex> g(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
AsyncTranslator::startWorkers()
{
    threads_.reserve(nthreads_);
    for (u32 i = 0; i < nthreads_; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

void
AsyncTranslator::workerLoop()
{
    for (;;) {
        TranslationJob *job;
        {
            std::unique_lock<std::mutex> g(mu_);
            cv_.wait(g, [this] { return stop_ || !work_.empty(); });
            if (stop_ && work_.empty())
                return;
            job = work_.front();
            work_.pop_front();
        }
        // Pure work: inputs are frozen, outputs are only read after
        // `ready`. Exceptions (e.g. a verifier darco_assert) must not
        // kill the process from a worker; surface them at publish.
        try {
            prepare_(*job);
        } catch (const std::exception &e) {
            if (job->verifyError.empty())
                job->verifyError = e.what();
        } catch (...) {
            if (job->verifyError.empty())
                job->verifyError = "unknown worker exception";
        }
        {
            std::lock_guard<std::mutex> g(mu_);
            job->ready = true;
        }
        doneCv_.notify_all();
    }
}

void
AsyncTranslator::enqueue(std::unique_ptr<TranslationJob> job)
{
    darco_assert(!full(), "enqueue on a full translation queue");
    if (threads_.empty())
        startWorkers();
    job->seq = seq_++;
    ++pendingEntries_[job->entry];
    // A completesAt computed as enqueuedAt + latency can wrap (past
    // ~0) or land on the ~0 idle sentinel near the end of a very long
    // run; either would make `vnow < nextDue_` hold forever and the
    // publish pump skip a due job permanently. Saturate just below
    // the sentinel instead.
    if (job->completesAt < job->enqueuedAt ||
        job->completesAt > maxCompletesAt)
        job->completesAt = maxCompletesAt;
    nextDue_ = std::min(nextDue_, job->completesAt);
    TranslationJob *raw = job.get();
    pending_.push_back(std::move(job));
    {
        std::lock_guard<std::mutex> g(mu_);
        work_.push_back(raw);
    }
    cv_.notify_one();
}

std::vector<std::unique_ptr<TranslationJob>>
AsyncTranslator::takeDue(u64 vnow)
{
    std::vector<std::unique_ptr<TranslationJob>> due;
    // Hot path: the dispatch loop pumps on every iteration, so the
    // nothing-due case must not allocate.
    if (vnow < nextDue_)
        return due;

    // Collect due jobs preserving seq order, then order the publish
    // schedule by (completesAt, seq). pending_ is seq-sorted, so a
    // stable sort on completesAt gives exactly that.
    std::vector<std::unique_ptr<TranslationJob>> keep;
    keep.reserve(pending_.size());
    nextDue_ = ~0ull;
    for (auto &j : pending_) {
        if (j->completesAt <= vnow) {
            auto it = pendingEntries_.find(j->entry);
            if (--it->second == 0)
                pendingEntries_.erase(it);
            due.push_back(std::move(j));
        } else {
            nextDue_ = std::min(nextDue_, j->completesAt);
            keep.push_back(std::move(j));
        }
    }
    pending_.swap(keep);
    std::stable_sort(due.begin(), due.end(),
                     [](const auto &a, const auto &b) {
                         return a->completesAt < b->completesAt;
                     });

    // Virtual time says these are finished; if a worker is still on
    // one, the *simulation* waits for the *simulated hardware* — a
    // pure wall-clock stall with no simulated effect.
    for (auto &j : due) {
        std::unique_lock<std::mutex> g(mu_);
        doneCv_.wait(g, [&] { return j->ready; });
    }
    return due;
}

void
AsyncTranslator::drain()
{
    std::unique_lock<std::mutex> g(mu_);
    doneCv_.wait(g, [this] {
        for (const auto &j : pending_) {
            if (!j->ready)
                return false;
        }
        return true;
    });
}

} // namespace darco::tol
