#include "guest/memory.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "snapshot/io.hh"

namespace darco::guest
{

PagedMemory::Page &
PagedMemory::adopt(GAddr base, std::unique_ptr<Page> &fresh)
{
    std::atomic<Dir *> &dslot = dirs_[dirIndex(base)];
    Dir *d = dslot.load(std::memory_order_acquire);
    if (!d) {
        auto nd = std::make_unique<Dir>();
        // On failure d holds the directory another thread published.
        if (dslot.compare_exchange_strong(d, nd.get(),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire))
            d = nd.release();
    }
    std::atomic<Page *> &pslot = d->pages[slotIndex(base)];
    Page *p = nullptr;
    if (!pslot.compare_exchange_strong(p, fresh.get(),
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire))
        return *p;
    pages_.fetch_add(1, std::memory_order_relaxed);
    return *fresh.release();
}

PagedMemory::Page &
PagedMemory::pageAt(GAddr a)
{
    if (Page *p = find(a))
        return *p;
    GAddr base = pageBase(a);
    if (policy_ == MissPolicy::Signal)
        throw PageMiss{base};
    auto fresh = std::make_unique<Page>(); // zero-filled
    return adopt(base, fresh);
}

const u8 *
PagedMemory::page(GAddr a)
{
    return pageAt(a).data();
}

void
PagedMemory::checkGuard(GAddr a, std::size_t len) const
{
    if (!guard_->hasPage(a))
        throw PageMiss{pageBase(a)};
    GAddr last = a + GAddr(len - 1);
    if (pageBase(last) != pageBase(a) && !guard_->hasPage(last))
        throw PageMiss{pageBase(last)};
}

void
PagedMemory::readBlock(GAddr a, void *dst, std::size_t len)
{
    u8 *out = static_cast<u8 *>(dst);
    while (len > 0) {
        std::size_t chunk =
            std::min<std::size_t>(len, pageSizeBytes - pageOffset(a));
        std::memcpy(out, ptr(a), chunk);
        a += chunk;
        out += chunk;
        len -= chunk;
    }
}

void
PagedMemory::writeBlock(GAddr a, const void *src, std::size_t len)
{
    if (guard_) {
        for (std::size_t off = 0; off < len;
             off += pageSizeBytes - pageOffset(GAddr(a + off)))
            checkGuard(GAddr(a + off), 1);
    }
    const u8 *in = static_cast<const u8 *>(src);
    while (len > 0) {
        std::size_t chunk =
            std::min<std::size_t>(len, pageSizeBytes - pageOffset(a));
        std::memcpy(ptr(a), in, chunk);
        a += chunk;
        in += chunk;
        len -= chunk;
    }
}

void
PagedMemory::installPage(GAddr page_addr, const u8 *data)
{
    darco_assert(pageOffset(page_addr) == 0, "unaligned page install");
    Page *p = find(page_addr);
    if (!p) {
        auto fresh = std::make_unique<Page>();
        std::memcpy(fresh->data(), data, pageSizeBytes);
        p = &adopt(page_addr, fresh);
        if (!fresh)
            return;
    }
    std::memcpy(p->data(), data, pageSizeBytes);
}

void
PagedMemory::clear()
{
    // Every directory holds a page, so an empty memory has none.
    if (pageCount() == 0)
        return;
    for (std::atomic<Dir *> &dslot : dirs_) {
        Dir *d = dslot.load(std::memory_order_relaxed);
        if (!d)
            continue;
        dslot.store(nullptr, std::memory_order_relaxed);
        for (std::atomic<Page *> &pslot : d->pages)
            delete pslot.load(std::memory_order_relaxed);
        delete d;
    }
    pages_.store(0, std::memory_order_relaxed);
}

void
PagedMemory::save(snapshot::Serializer &s) const
{
    s.w8(u8(policy_));
    std::vector<GAddr> resident = residentPages();
    s.w64(resident.size());
    for (GAddr base : resident) {
        s.w32(base);
        s.wbytes(find(base)->data(), pageSizeBytes);
    }
}

void
PagedMemory::restore(snapshot::Deserializer &d)
{
    u8 pol = d.r8();
    if (pol > u8(MissPolicy::Signal))
        throw snapshot::SnapshotError("bad memory miss policy");
    policy_ = MissPolicy(pol);
    clear();
    u64 n = d.r64();
    for (u64 i = 0; i < n; ++i) {
        GAddr base = d.r32();
        if (pageOffset(base) != 0)
            throw snapshot::SnapshotError("unaligned page in snapshot");
        auto p = std::make_unique<Page>();
        d.rbytes(p->data(), pageSizeBytes);
        Page &slot = adopt(base, p);
        if (p) // a repeated page: the last copy wins
            slot = *p;
    }
}

std::vector<GAddr>
PagedMemory::residentPages() const
{
    // Address order falls out of the table walk.
    std::vector<GAddr> out;
    out.reserve(pageCount());
    for (u32 di = 0; di < levelSlots; ++di) {
        Dir *d = dirs_[di].load(std::memory_order_acquire);
        if (!d)
            continue;
        for (u32 si = 0; si < levelSlots; ++si) {
            if (d->pages[si].load(std::memory_order_acquire))
                out.push_back(GAddr(di) << (32 - levelBits) |
                              GAddr(si) * pageSizeBytes);
        }
    }
    return out;
}

} // namespace darco::guest
