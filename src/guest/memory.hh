/**
 * @file
 * Sparse paged guest memory.
 *
 * Both DARCO components keep a full guest memory image in a
 * PagedMemory. The *reference* component owns the authoritative image
 * and allocates pages on demand (MissPolicy::AllocateZero). The
 * *co-designed* component starts with no pages and must fetch each
 * page from the reference side through the controller's data-request
 * protocol; its memory therefore signals a PageMiss on first touch
 * (MissPolicy::Signal). This mirrors the paper's Section V-A.
 *
 * The image is a two-level table, 1024 directories of 1024 pages, and
 * every directory and page is published with a compare-and-swap. So
 * one thread may look pages up or allocate them while another
 * allocates, copies (page()) or installs others, and two threads that
 * allocate the same page get one page. Page *contents* are not
 * synchronized: the sync protocol (sim/controller.hh) keeps a page's
 * reader and writer apart.
 */

#ifndef DARCO_GUEST_MEMORY_HH
#define DARCO_GUEST_MEMORY_HH

#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <vector>

#include "common/types.hh"

namespace darco::snapshot
{
class Serializer;
class Deserializer;
} // namespace darco::snapshot

namespace darco::guest
{

/** Raised on access to an absent page when the policy is Signal, and
 *  on a guarded write (see setWriteGuard). */
struct PageMiss
{
    GAddr page; //!< base address of the missing page
};

/** What to do when an absent page is touched. */
enum class MissPolicy
{
    AllocateZero, //!< authoritative image: fresh zero page
    Signal,       //!< emulated image: throw PageMiss
};

/** Sparse 32-bit paged memory. */
class PagedMemory
{
  public:
    explicit PagedMemory(MissPolicy policy = MissPolicy::AllocateZero)
        : policy_(policy)
    {}
    ~PagedMemory() { clear(); }

    PagedMemory(const PagedMemory &) = delete;
    PagedMemory &operator=(const PagedMemory &) = delete;

    u8 read8(GAddr a) { return *ptr(a); }
    u16 read16(GAddr a) { return read<u16>(a); }
    u32 read32(GAddr a) { return read<u32>(a); }
    u64 read64(GAddr a) { return read<u64>(a); }

    void write8(GAddr a, u8 v) { write<u8>(a, v); }
    void write16(GAddr a, u16 v) { write<u16>(a, v); }
    void write32(GAddr a, u32 v) { write<u32>(a, v); }
    void write64(GAddr a, u64 v) { write<u64>(a, v); }

    /** Bulk copy helpers (loader, page transfer, syscalls). */
    void readBlock(GAddr a, void *dst, std::size_t len);
    void writeBlock(GAddr a, const void *src, std::size_t len);

    bool hasPage(GAddr a) const { return find(a) != nullptr; }

    /** Raw page contents, read-only (allocating per policy). */
    const u8 *page(GAddr a);

    /** Install a full page image (used by the data-request protocol). */
    void installPage(GAddr page_addr, const u8 *data);

    /** Addresses of all resident pages, sorted. */
    std::vector<GAddr> residentPages() const;

    std::size_t
    pageCount() const
    {
        return pages_.load(std::memory_order_relaxed);
    }

    MissPolicy policy() const { return policy_; }

    /** Drop every page (no other thread may use the memory). */
    void clear();

    /**
     * While `holder` is set, a write to a page that `holder` does not
     * hold raises PageMiss for that page before any byte changes; a
     * write that spans two pages checks both first. The reference's
     * run-ahead thread writes under this guard (sim/controller.hh).
     */
    void setWriteGuard(const PagedMemory *holder) { guard_ = holder; }

    /**
     * Checkpoint hooks (snapshot/io.hh): the full resident page image
     * plus the miss policy. restore() replaces the current contents.
     */
    void save(snapshot::Serializer &s) const;
    void restore(snapshot::Deserializer &d);

  private:
    using Page = std::array<u8, pageSizeBytes>;
    static constexpr u32 levelBits = 10;
    static constexpr u32 levelSlots = 1u << levelBits;
    static_assert(u64(levelSlots) * levelSlots * pageSizeBytes ==
                      1ull << 32,
                  "two levels of pages must cover the 32-bit space");
    struct Dir
    {
        std::atomic<Page *> pages[levelSlots] = {};
    };

    static u32 dirIndex(GAddr a) { return a >> (32 - levelBits); }
    static u32
    slotIndex(GAddr a)
    {
        return (a / pageSizeBytes) & (levelSlots - 1);
    }

    /** The resident page holding a, or nullptr. */
    Page *
    find(GAddr a) const
    {
        Dir *d = dirs_[dirIndex(a)].load(std::memory_order_acquire);
        return d ? d->pages[slotIndex(a)].load(std::memory_order_acquire)
                 : nullptr;
    }

    /** The page holding a, allocated (or PageMiss) per policy. */
    Page &pageAt(GAddr a);
    /** Publish `fresh` as the page at `base` unless one is there
     *  already; returns the resident page, and leaves `fresh` owned
     *  (and unpublished) only if another one won. */
    Page &adopt(GAddr base, std::unique_ptr<Page> &fresh);

    /** Pointer to the byte backing address a (allocating per policy). */
    u8 *
    ptr(GAddr a)
    {
        Page *p = find(a);
        return (p ? *p : pageAt(a)).data() + pageOffset(a);
    }

    /** Raise the guard's PageMiss for [a, a+len) (len <= a page). */
    void checkGuard(GAddr a, std::size_t len) const;

    template <typename T>
    T
    read(GAddr a)
    {
        T v = 0;
        if (pageOffset(a) + sizeof(T) <= pageSizeBytes) {
            std::memcpy(&v, ptr(a), sizeof(T));
            return v;
        }
        for (unsigned i = 0; i < sizeof(T); ++i)
            v |= T(T(*ptr(a + i)) << (8 * i));
        return v;
    }

    template <typename T>
    void
    write(GAddr a, T v)
    {
        if (guard_)
            checkGuard(a, sizeof(T));
        if (pageOffset(a) + sizeof(T) <= pageSizeBytes) {
            std::memcpy(ptr(a), &v, sizeof(T));
            return;
        }
        for (unsigned i = 0; i < sizeof(T); ++i)
            *ptr(a + i) = u8(u64(v) >> (8 * i));
    }

    MissPolicy policy_;
    const PagedMemory *guard_ = nullptr;
    std::atomic<std::size_t> pages_{0};
    std::atomic<Dir *> dirs_[levelSlots] = {};
};

} // namespace darco::guest

#endif // DARCO_GUEST_MEMORY_HH
