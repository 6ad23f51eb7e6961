#include "mem/mshr.h"

#include <algorithm>

#include "common/logging.h"

namespace smtos {

MshrFile::MshrFile(std::string name, int entries) : name_(std::move(name))
{
    smtos_assert(entries > 0);
    entries_.assign(static_cast<size_t>(entries), Entry{});
}

void
MshrFile::releaseExpired(Cycle now)
{
    for (Entry &e : entries_)
        if (e.valid && e.readyAt <= now)
            e.valid = false;
    rebuildFilter();
}

void
MshrFile::rebuildFilter()
{
    latestReady_ = 0;
    blockMask_ = 0;
    for (const Entry &e : entries_) {
        if (e.valid) {
            latestReady_ = std::max(latestReady_, e.readyAt);
            blockMask_ |= blockBit(e.blockAddr);
        }
    }
}

MshrGrant
MshrFile::request(Addr blockAddr, Cycle now)
{
    releaseExpired(now);

    MshrGrant grant;
    grant.startAt = now;

    // Merge into an in-flight fill of the same block.
    for (Entry &e : entries_) {
        if (e.valid && e.blockAddr == blockAddr) {
            ++merges_;
            grant.merged = true;
            grant.mergedReadyAt = e.readyAt;
            return grant;
        }
    }

    // Find a free entry, or wait for the earliest completion.
    for (Entry &e : entries_) {
        if (!e.valid)
            return grant;
    }

    ++fullStalls_;
    Cycle earliest = entries_[0].readyAt;
    for (const Entry &e : entries_)
        earliest = std::min(earliest, e.readyAt);
    grant.startAt = std::max(now, earliest);
    releaseExpired(grant.startAt);
    return grant;
}

void
MshrFile::complete(Addr blockAddr, Cycle startAt, Cycle readyAt)
{
    smtos_assert(readyAt >= startAt);
    for (Entry &e : entries_) {
        if (!e.valid) {
            e.valid = true;
            e.blockAddr = blockAddr;
            e.readyAt = readyAt;
            latestReady_ = std::max(latestReady_, readyAt);
            blockMask_ |= blockBit(blockAddr);
            ++fills_;
            occupancyIntegral_ +=
                static_cast<double>(readyAt - startAt);
            return;
        }
    }
    smtos_panic("MSHR %s: complete() with no free entry", name_.c_str());
}

Cycle
MshrFile::hitUnderFill(Addr blockAddr, Cycle now)
{
    // Every L1 hit asks; almost none has a fill of its block in flight.
    if (now >= latestReady_ || !(blockMask_ & blockBit(blockAddr)))
        return 0;
    for (const Entry &e : entries_) {
        if (e.valid && e.blockAddr == blockAddr && e.readyAt > now) {
            ++merges_;
            return e.readyAt;
        }
    }
    return 0;
}

int
MshrFile::outstanding(Cycle now) const
{
    int n = 0;
    for (const Entry &e : entries_)
        if (e.valid && e.readyAt > now)
            ++n;
    return n;
}

} // namespace smtos
