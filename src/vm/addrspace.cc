#include "vm/addrspace.h"

#include "common/logging.h"

namespace smtos {

std::int64_t
AddrSpace::translate(Addr vpn) const
{
    if (mem_->hostTranslationCache()) {
        Way &w = pageCache_[slotOf(vpn)];
        if (w.vpn == vpn)
            return static_cast<std::int64_t>(w.frame);
        auto it = pages_.find(vpn);
        if (it == pages_.end())
            return -1; // never cache negatives: a map would go stale
        w.vpn = vpn;
        w.frame = it->second;
        return static_cast<std::int64_t>(it->second);
    }
    auto it = pages_.find(vpn);
    if (it == pages_.end())
        return -1;
    return static_cast<std::int64_t>(it->second);
}

Frame
AddrSpace::frameOf(Addr vpn) const
{
    const std::int64_t f = translate(vpn);
    if (f < 0)
        smtos_panic("addrspace %d: unmapped vpn 0x%llx", id_,
                    static_cast<unsigned long long>(vpn));
    return static_cast<Frame>(f);
}

Frame
AddrSpace::mapNew(Addr vpn)
{
    SMTOS_CHECK(!mapped(vpn));
    Frame f = mem_->allocFrame();
    pages_.emplace(vpn, f);
    return f;
}

void
AddrSpace::mapShared(Addr vpn, Frame f)
{
    SMTOS_CHECK(!mapped(vpn));
    pages_.emplace(vpn, f);
}

void
AddrSpace::unmap(Addr vpn, bool free_frame)
{
    auto it = pages_.find(vpn);
    SMTOS_CHECK(it != pages_.end());
    if (free_frame)
        mem_->freeFrame(it->second);
    pages_.erase(it);
    Way &w = pageCache_[slotOf(vpn)];
    if (w.vpn == vpn)
        w.vpn = invalidVpn;
}

Addr
AddrSpace::ptePhysAddr(Addr vpn)
{
    const Addr pt_index = vpn / ptesPerPage;
    Frame f;
    Way &w = ptCache_[slotOf(pt_index)];
    if (mem_->hostTranslationCache() && w.vpn == pt_index) {
        f = w.frame;
    } else {
        auto it = ptPages_.find(pt_index);
        if (it == ptPages_.end()) {
            f = mem_->allocFrame();
            ptPages_.emplace(pt_index, f);
        } else {
            f = it->second;
        }
        // PT pages are never freed, so this entry can't go stale.
        w.vpn = pt_index;
        w.frame = f;
    }
    return PhysMem::frameAddr(f) + (vpn % ptesPerPage) * 8;
}

} // namespace smtos
