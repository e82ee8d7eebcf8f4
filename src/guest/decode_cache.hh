/**
 * @file
 * Page-indexed cache of decoded guest instructions.
 *
 * The reference component and TOL's interpreter both fetch every
 * instruction they execute through one of these. Each guest code page
 * gets an array of decoded instructions indexed by page offset, and
 * the page a fetch last used is remembered, so a fetch that stays on
 * that page costs one compare and one array index. A slot whose
 * length is 0 has not been decoded yet (no GISA encoding is empty).
 *
 * Guest stores do not invalidate decoded instructions: DARCO does not
 * model self-modifying code, and the translator's BB and translation
 * caches make the same assumption. clear() drops everything when the
 * owner's memory image is replaced (program load, snapshot restore).
 */

#ifndef DARCO_GUEST_DECODE_CACHE_HH
#define DARCO_GUEST_DECODE_CACHE_HH

#include <array>
#include <memory>
#include <unordered_map>

#include "guest/semantics.hh"

namespace darco::guest
{

/** Decoded instructions keyed by guest pc, one array per code page. */
class DecodeCache
{
  public:
    /**
     * The instruction at pc, decoded through mem on first use. A
     * PageMiss or GuestFault from fetchInst() propagates and caches
     * nothing. The reference stays valid until clear().
     */
    const GInst &
    fetch(PagedMemory &mem, GAddr pc)
    {
        if (pageBase(pc) != lastBase_)
            selectPage(pageBase(pc));
        GInst &slot = (*last_)[pageOffset(pc)];
        if (slot.length == 0)
            slot = fetchInst(mem, pc);
        return slot;
    }

    /** Forget every decoded instruction (new program or state). */
    void
    clear()
    {
        pages_.clear();
        lastBase_ = noPage;
        last_ = nullptr;
    }

  private:
    using Page = std::array<GInst, pageSizeBytes>;

    /** Not page-aligned, so never equal to a page base. */
    static constexpr GAddr noPage = 1;

    void
    selectPage(GAddr base)
    {
        std::unique_ptr<Page> &p = pages_[base];
        if (!p)
            p = std::make_unique<Page>();
        last_ = p.get();
        lastBase_ = base;
    }

    std::unordered_map<GAddr, std::unique_ptr<Page>> pages_;
    GAddr lastBase_ = noPage;
    Page *last_ = nullptr;
};

} // namespace darco::guest

#endif // DARCO_GUEST_DECODE_CACHE_HH
