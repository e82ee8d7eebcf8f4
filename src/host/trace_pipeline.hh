/**
 * @file
 * The trace pipeline: the timing model consumes the co-designed
 * component's dynamic instruction stream on its own thread.
 *
 * HostEmu and CostModel feed a TracePipeline instead of the caller's
 * sink. It appends each InstRecord to a fixed-size block, and a
 * single-producer/single-consumer ring of blocks hands every full
 * block to one consumer thread, which replays it into the caller's
 * TraceSink in the original order. recordConcurrent() travels
 * in-band: it is delivered at the position in the stream where it was
 * called, and each run of records between two such positions reaches
 * the sink as one recordBlock() call. drain() returns once every
 * record so far has reached the sink, so a reader that drains first
 * sees exactly the state that direct calls would have produced
 * (Tol::run and Tol::quiesce drain on every return).
 *
 * Threads. The simulation thread is the only producer; the consumer
 * is the only thread that calls the sink once it has started, so the
 * sink and its StatGroup keep one writer. The consumer is a helper
 * thread (claimSpareCpu) started at a full block, so a host whose CPUs
 * all run simulations, or a thread allowed one CPU, gets no thread:
 * the simulation thread delivers each block itself, through the same
 * delivery function, and checks again at the next full block. The
 * consumer sleeps when the ring is empty and is signalled only while
 * it sleeps; the producer sleeps only when the ring is full and is
 * woken once half of it is free.
 */

#ifndef DARCO_HOST_TRACE_PIPELINE_HH
#define DARCO_HOST_TRACE_PIPELINE_HH

#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hh"
#include "host/trace.hh"

namespace darco::host
{

/**
 * Claim a spare CPU for a helper thread of the calling simulation (a
 * trace consumer, or a reference component running ahead): one is
 * spare while live helpers plus running simulations
 * (TracePipeline::Running) stay within the CPU count the calling
 * thread is allowed. With every CPU already running a simulation, a
 * second thread per simulation only adds hand-offs and wake-ups.
 * @return whether one was spare; the helper then counts until
 *         releaseSpareCpu().
 */
bool claimSpareCpu();
void releaseSpareCpu();
/**
 * Pin a helper off the calling thread's CPU: left to itself, the
 * scheduler keeps a woken thread on its waker's CPU, and the two
 * stages then take turns instead of overlapping.
 */
void pinHelper(std::thread &t);

/** A TraceSink that forwards, in order, to another sink called on a
 *  consumer thread; see the file comment. */
class TracePipeline final : public TraceSink
{
  public:
    /** Records per block, the hand-off unit. */
    static constexpr u32 blockRecords = 4096;
    /** Blocks in the ring: 4 x 4096 x 20 B = 320 KiB of records. */
    static constexpr u32 ringBlocks = 4;

    TracePipeline() = default;
    /** Stops and joins the consumer. Records not drained are dropped:
     *  the sink may already be gone. */
    ~TracePipeline() override;

    TracePipeline(const TracePipeline &) = delete;
    TracePipeline &operator=(const TracePipeline &) = delete;

    /**
     * Drain, then deliver later records to `sink` (nullptr detaches).
     * Throws, without switching, a pending error of the old sink.
     */
    void setSink(TraceSink *sink);

    // TraceSink, the producer side: simulation thread only, and only
    // while a sink is attached.
    void
    record(const InstRecord &rec) override
    {
        *cur_++ = rec;
        if (cur_ == end_)
            handOff();
    }
    void recordConcurrent(u64 host_insts) override;

    /**
     * Hand over the partial block and wait until the sink has taken
     * every record so far. Then rethrow the first exception the sink
     * raised since the last drain; delivery stops at that exception.
     */
    void drain();
    /** drain() for an exceptional exit: the sink's exception, if any,
     *  stays pending for the next drain(). */
    void drainUnwinding() noexcept;

    /** Has a consumer thread started? */
    bool threaded() const { return threaded_; }
    /** Is a sink attached? (The simulation thread's view.) */
    bool attached() const { return sink_ != nullptr; }

    /**
     * Counts a running simulation, process-wide, for as long as it
     * lives (Controller::run holds one); see claimSpareCpu().
     */
    class Running
    {
      public:
        Running();
        ~Running();
        Running(const Running &) = delete;
        Running &operator=(const Running &) = delete;
    };

  private:
    /** recordConcurrent(insts) before record number `pos` of a block. */
    struct Concurrent
    {
        u32 pos;
        u64 insts;
    };
    struct alignas(64) Block
    {
        InstRecord *recs = nullptr;
        u32 n = 0;                    //!< records filled
        std::vector<Concurrent> conc; //!< in stream order
    };

    void handOff();
    /** Hand the current block on (or deliver it inline); take the
     *  next free one. */
    void publish();
    void deliver(const Block &b);
    /** Start the consumer if a CPU is spare. */
    bool startConsumer();
    void consume();
    void waitConsumed(u64 target);

    // Producer, written per record: its own cache line.
    alignas(64) InstRecord *cur_ = nullptr;
    InstRecord *end_ = nullptr;
    // Producer, per block.
    Block *blk_ = nullptr;
    u64 produced_ = 0; //!< blocks handed on
    bool threaded_ = false; //!< else blocks are delivered inline

    // Hand-off counters: one writer each, on separate lines.
    alignas(64) std::atomic<u64> filled_{0};
    alignas(64) std::atomic<u64> consumed_{0};

    // Sleeping and waking.
    alignas(64) std::mutex m_;
    std::condition_variable consumerWake_, producerWake_;
    std::atomic<bool> consumerAsleep_{false};
    std::atomic<bool> producerAsleep_{false};
    std::atomic<u64> producerWants_{0};
    std::atomic<bool> stop_{false};

    // Touched by the simulation thread only while the ring is empty,
    // and otherwise by the deliverer: the hand-off counters order the
    // two.
    TraceSink *sink_ = nullptr;
    std::exception_ptr error_; //!< first sink exception
    std::unique_ptr<InstRecord[]> store_;
    std::vector<Block> ring_;

    std::thread consumer_;
};

} // namespace darco::host

#endif // DARCO_HOST_TRACE_PIPELINE_HH
