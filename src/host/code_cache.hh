/**
 * @file
 * The translation code cache.
 *
 * A word-addressed host-code store with a region allocator: TOL
 * installs translated regions into contiguous word ranges obtained
 * from a first-fit free list, and releases them individually when a
 * translation is evicted or invalidated (region-granular eviction).
 * Released ranges coalesce with free neighbours. The classic
 * "code cache full -> flush everything" policy remains available via
 * flush(), which returns the whole cache to a single free hole.
 *
 * Beside each encoded word the cache keeps its decoded HInst and its
 * 4-byte TraceTemplate, so the host emulator executes predecoded
 * instructions, never decodes on its fetch path, and fills a traced
 * record by copying. install() and setWord() are the only writers and
 * update all three arrays, which keeps chain and unchain patches
 * coherent; a word with an invalid opcode is rejected when it is
 * written. The arrays grow to the allocator's high-water mark, so a
 * cache costs memory in proportion to the code it has held, not to
 * its capacity.
 *
 * The cache only manages words; translation bookkeeping (entry maps,
 * chaining, the LRU eviction clock) lives in tol::TranslationRegistry.
 *
 * Thread safety: none. The cache belongs to the simulation thread;
 * async translator workers never touch it (see DESIGN.md).
 */

#ifndef DARCO_HOST_CODE_CACHE_HH
#define DARCO_HOST_CODE_CACHE_HH

#include <vector>

#include "common/types.hh"
#include "host/hisa.hh"
#include "host/trace.hh"

namespace darco::host
{

/** Region-allocating host-code store addressed by word index. */
class CodeCache
{
  public:
    static constexpr u32 npos = ~0u;

    explicit CodeCache(u32 capacity_words = 1u << 20)
        : capacity_(capacity_words)
    {
        holes_.push_back(Hole{0, capacity_});
    }

    /** Can a contiguous block of n words be allocated right now? */
    bool hasSpace(u32 n) const { return largestFree() >= n; }

    /**
     * Allocate a contiguous region of n words (first fit).
     * @return base word index, or npos when no hole fits.
     */
    u32
    alloc(u32 n)
    {
        if (n == 0)
            return npos;
        for (std::size_t h = 0; h < holes_.size(); ++h) {
            if (holes_[h].size < n)
                continue;
            u32 base = holes_[h].base;
            holes_[h].base += n;
            holes_[h].size -= n;
            if (holes_[h].size == 0)
                holes_.erase(holes_.begin() + h);
            used_ += n;
            if (base + n > words_.size()) {
                words_.resize(base + n);
                insts_.resize(base + n);
                templates_.resize(base + n);
            }
            return base;
        }
        return npos;
    }

    /** Return a region to the free list, coalescing neighbours. */
    void
    release(u32 base, u32 n)
    {
        if (n == 0)
            return;
        used_ -= n;
        ++releases_;
        // Insert sorted by base.
        std::size_t h = 0;
        while (h < holes_.size() && holes_[h].base < base)
            ++h;
        holes_.insert(holes_.begin() + h, Hole{base, n});
        // Coalesce with successor, then predecessor.
        if (h + 1 < holes_.size() &&
            holes_[h].base + holes_[h].size == holes_[h + 1].base) {
            holes_[h].size += holes_[h + 1].size;
            holes_.erase(holes_.begin() + h + 1);
        }
        if (h > 0 &&
            holes_[h - 1].base + holes_[h - 1].size == holes_[h].base) {
            holes_[h - 1].size += holes_[h].size;
            holes_.erase(holes_.begin() + h);
        }
    }

    /**
     * Allocate and copy a translated region, decoding every word.
     * @return base word index, or npos when the cache cannot fit it.
     */
    u32
    install(const std::vector<u32> &region)
    {
        u32 base = alloc(u32(region.size()));
        if (base == npos)
            return npos;
        for (std::size_t i = 0; i < region.size(); ++i)
            setWord(base + u32(i), region[i]);
        return base;
    }

    u32 word(u32 idx) const { return words_[idx]; }

    /**
     * The predecoded forms of the words, and their trace classes and
     * operands, indexed like word(). The host emulator reads them
     * through these pointers for a whole run: only alloc() resizes
     * the arrays, and nothing installs code during a run, since
     * neither the emulator's retire sink nor its trace sink does.
     * setWord() writes in place, so its patches show through them.
     */
    const HInst *insts() const { return insts_.data(); }
    const TraceTemplate *traceTemplates() const
    {
        return templates_.data();
    }

    /** Overwrite one allocated word (chain and unchain patches). */
    void
    setWord(u32 idx, u32 w)
    {
        insts_[idx] = hdecode(w);
        templates_[idx] = host::traceTemplate(insts_[idx]);
        words_[idx] = w;
    }

    u32 used() const { return used_; }

    u32 capacity() const { return capacity_; }

    u32
    largestFree() const
    {
        u32 best = 0;
        for (const Hole &h : holes_)
            best = h.size > best ? h.size : best;
        return best;
    }

    u32 freeWords() const { return capacity_ - used_; }

    /** Number of free-list fragments (fragmentation diagnostics). */
    std::size_t holeCount() const { return holes_.size(); }

    /** Drop every translation (TOL must reset its maps too). */
    void
    flush()
    {
        holes_.clear();
        holes_.push_back(Hole{0, capacity_});
        used_ = 0;
        ++flushCount_;
    }

    u64 flushCount() const { return flushCount_; }

    u64 releaseCount() const { return releases_; }

  private:
    /** One free range; the list is sorted by base and coalesced. */
    struct Hole
    {
        u32 base;
        u32 size;
    };

    u32 capacity_;
    u32 used_ = 0;
    /** Encoded words, their decoded forms and trace templates,
     *  index-aligned. */
    std::vector<u32> words_;
    std::vector<HInst> insts_;
    std::vector<TraceTemplate> templates_;
    std::vector<Hole> holes_;
    u64 flushCount_ = 0;
    u64 releases_ = 0;
};

} // namespace darco::host

#endif // DARCO_HOST_CODE_CACHE_HH
