#include "host/trace_pipeline.hh"

#include <pthread.h>
#include <sched.h>

#include <system_error>
#include <utility>

namespace darco::host
{

namespace
{
/** Process-wide: simulations inside Controller::run, and helpers
 *  holding a spare CPU. */
std::atomic<int> runningSims{0};
std::atomic<int> liveHelpers{0};
} // namespace

TracePipeline::Running::Running() { runningSims.fetch_add(1); }

TracePipeline::Running::~Running() { runningSims.fetch_sub(1); }

bool
claimSpareCpu()
{
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    if (sched_getaffinity(0, sizeof cpus, &cpus) != 0)
        return false;
    const int allowed = CPU_COUNT(&cpus);
    if (allowed < 2)
        return false;
    if (liveHelpers.fetch_add(1) + 1 + runningSims.load() > allowed) {
        liveHelpers.fetch_sub(1);
        return false;
    }
    return true;
}

void
releaseSpareCpu()
{
    liveHelpers.fetch_sub(1);
}

void
pinHelper(std::thread &t)
{
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    if (sched_getaffinity(0, sizeof cpus, &cpus) != 0)
        return;
    const int here = sched_getcpu();
    if (here >= 0 && here < CPU_SETSIZE)
        CPU_CLR(here, &cpus);
    pthread_setaffinity_np(t.native_handle(), sizeof cpus, &cpus);
}

TracePipeline::~TracePipeline()
{
    if (!threaded_)
        return;
    {
        std::lock_guard<std::mutex> lk(m_);
        stop_.store(true);
    }
    consumerWake_.notify_one();
    consumer_.join();
    releaseSpareCpu();
}

void
TracePipeline::setSink(TraceSink *sink)
{
    drain();
    if (sink && ring_.empty()) {
        store_ = std::make_unique<InstRecord[]>(std::size_t(ringBlocks) *
                                                blockRecords);
        ring_.resize(ringBlocks);
        for (u32 b = 0; b < ringBlocks; ++b)
            ring_[b].recs = &store_[std::size_t(b) * blockRecords];
        blk_ = &ring_[0];
        cur_ = blk_->recs;
        end_ = cur_ + blockRecords;
    }
    sink_ = sink;
}

void
TracePipeline::recordConcurrent(u64 host_insts)
{
    blk_->conc.push_back({u32(cur_ - blk_->recs), host_insts});
}

void
TracePipeline::handOff()
{
    if (!threaded_)
        threaded_ = startConsumer();
    publish();
}

void
TracePipeline::publish()
{
    blk_->n = u32(cur_ - blk_->recs);
    ++produced_;
    if (threaded_) {
        // seq_cst store and load: either the consumer sees the new
        // block before it sleeps, or this sees it asleep.
        filled_.store(produced_);
        if (consumerAsleep_.load()) {
            std::lock_guard<std::mutex> lk(m_);
            consumerWake_.notify_one();
        }
        if (produced_ - consumed_.load(std::memory_order_acquire) ==
            ringBlocks)
            waitConsumed(produced_ - ringBlocks / 2);
    } else {
        deliver(*blk_);
        // A consumer started later begins after this block.
        filled_.store(produced_, std::memory_order_relaxed);
        consumed_.store(produced_, std::memory_order_relaxed);
    }
    blk_ = &ring_[produced_ % ringBlocks];
    blk_->conc.clear();
    cur_ = blk_->recs;
    end_ = cur_ + blockRecords;
}

void
TracePipeline::drain()
{
    drainUnwinding();
    if (error_)
        std::rethrow_exception(std::exchange(error_, nullptr));
}

void
TracePipeline::drainUnwinding() noexcept
{
    if (!sink_)
        return;
    if (cur_ != blk_->recs || !blk_->conc.empty())
        publish();
    if (threaded_)
        waitConsumed(produced_);
}

void
TracePipeline::deliver(const Block &b)
{
    if (error_)
        return;
    TraceSink *const sink = sink_;
    const InstRecord *const recs = b.recs;
    const u32 n = b.n;
    u32 i = 0;
    try {
        // Each run of records between two recordConcurrent positions
        // is one recordBlock call.
        for (const Concurrent &c : b.conc) {
            if (c.pos > i)
                sink->recordBlock(recs + i, c.pos - i);
            i = c.pos;
            sink->recordConcurrent(c.insts);
        }
        if (n > i)
            sink->recordBlock(recs + i, n - i);
    } catch (...) {
        error_ = std::current_exception();
    }
}

bool
TracePipeline::startConsumer()
{
    if (!claimSpareCpu())
        return false;
    try {
        consumer_ = std::thread([this] { consume(); });
    } catch (const std::system_error &) {
        releaseSpareCpu();
        return false; // no thread to be had: deliver inline
    }
    pinHelper(consumer_);
    return true;
}

void
TracePipeline::consume()
{
    u64 next = consumed_.load(std::memory_order_relaxed);
    for (;;) {
        if (filled_.load(std::memory_order_acquire) == next) {
            std::unique_lock<std::mutex> lk(m_);
            consumerAsleep_.store(true);
            consumerWake_.wait(lk, [&] {
                return stop_.load() || filled_.load() != next;
            });
            consumerAsleep_.store(false, std::memory_order_relaxed);
        }
        if (stop_.load(std::memory_order_relaxed))
            return;
        deliver(ring_[next % ringBlocks]);
        consumed_.store(++next);
        if (producerAsleep_.load() &&
            next >= producerWants_.load(std::memory_order_relaxed)) {
            std::lock_guard<std::mutex> lk(m_);
            producerWake_.notify_one();
        }
    }
}

void
TracePipeline::waitConsumed(u64 target)
{
    if (consumed_.load(std::memory_order_acquire) >= target)
        return;
    std::unique_lock<std::mutex> lk(m_);
    producerWants_.store(target, std::memory_order_relaxed);
    producerAsleep_.store(true);
    producerWake_.wait(lk, [&] { return consumed_.load() >= target; });
    producerAsleep_.store(false, std::memory_order_relaxed);
}

} // namespace darco::host
