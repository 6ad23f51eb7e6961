/**
 * @file
 * MSHR and store-buffer corner cases: merge and overflow paths,
 * hit-under-fill (and its early-out against a brute-force scan),
 * full-buffer stalls, and occupancy accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "mem/mshr.h"
#include "mem/storebuffer.h"
#include "snap/snapshot.h"

using namespace smtos;

TEST(Mshr, MergesRequestsToSameBlock)
{
    MshrFile m("test", 4);
    MshrGrant g = m.request(0x1000, 10);
    EXPECT_FALSE(g.merged);
    EXPECT_EQ(g.startAt, 10u);
    m.complete(0x1000, g.startAt, 60);

    // A second miss on the same block merges into the in-flight fill.
    MshrGrant g2 = m.request(0x1000, 20);
    EXPECT_TRUE(g2.merged);
    EXPECT_EQ(g2.mergedReadyAt, 60u);
    EXPECT_EQ(m.fills(), 1u);
    EXPECT_EQ(m.merges(), 1u);
    EXPECT_EQ(m.fullStalls(), 0u);
}

TEST(Mshr, DistinctBlocksClaimDistinctEntries)
{
    MshrFile m("test", 4);
    for (int i = 0; i < 4; ++i) {
        MshrGrant g = m.request(0x1000 + 0x40 * i, 10);
        EXPECT_FALSE(g.merged);
        m.complete(0x1000 + 0x40 * i, g.startAt, 100 + 10 * i);
    }
    EXPECT_EQ(m.outstanding(10), 4);
    EXPECT_EQ(m.fills(), 4u);
}

TEST(Mshr, FullFileStallsUntilEarliestFill)
{
    MshrFile m("test", 2);
    MshrGrant a = m.request(0x1000, 0);
    m.complete(0x1000, a.startAt, 50);
    MshrGrant b = m.request(0x2000, 0);
    m.complete(0x2000, b.startAt, 80);

    // Third distinct block at cycle 10: both entries busy, so the
    // request waits for the earliest fill (cycle 50).
    MshrGrant c = m.request(0x3000, 10);
    EXPECT_FALSE(c.merged);
    EXPECT_GE(c.startAt, 50u);
    EXPECT_EQ(m.fullStalls(), 1u);
    m.complete(0x3000, c.startAt, 120);
    EXPECT_EQ(m.fills(), 3u);
}

TEST(Mshr, EntriesExpireAndGetReused)
{
    MshrFile m("test", 1);
    MshrGrant a = m.request(0x1000, 0);
    m.complete(0x1000, a.startAt, 30);
    EXPECT_EQ(m.outstanding(10), 1);
    EXPECT_EQ(m.outstanding(30), 0);

    // After the fill completed, a new block gets the slot with no
    // stall, and a repeat of the first block is a fresh miss (no
    // stale merge against an expired entry).
    MshrGrant b = m.request(0x2000, 40);
    EXPECT_FALSE(b.merged);
    EXPECT_EQ(b.startAt, 40u);
    m.complete(0x2000, b.startAt, 90);
    MshrGrant c = m.request(0x1000, 95);
    EXPECT_FALSE(c.merged);
    EXPECT_EQ(m.fullStalls(), 0u);
}

TEST(Mshr, HitUnderFillWaitsForFill)
{
    MshrFile m("test", 2);
    MshrGrant a = m.request(0x1000, 0);
    m.complete(0x1000, a.startAt, 70);

    // A cache hit on the block mid-fill waits for the fill and counts
    // as a merge; a hit on an idle block does not.
    EXPECT_EQ(m.hitUnderFill(0x1000, 10), 70u);
    EXPECT_EQ(m.merges(), 1u);
    EXPECT_EQ(m.hitUnderFill(0x2000, 10), 0u);
    EXPECT_EQ(m.hitUnderFill(0x1000, 75), 0u);
    EXPECT_EQ(m.merges(), 1u);
}

namespace {

/** The MSHR file as a plain scan over its entries: the reference the
 *  filtered hitUnderFill must agree with on every call. */
struct ScanMshr
{
    struct Entry
    {
        bool valid = false;
        Addr block = 0;
        Cycle readyAt = 0;
    };
    std::vector<Entry> entries;
    std::uint64_t fills = 0, merges = 0, fullStalls = 0;

    explicit ScanMshr(int n) : entries(static_cast<std::size_t>(n)) {}

    void
    release(Cycle now)
    {
        for (Entry &e : entries)
            if (e.valid && e.readyAt <= now)
                e.valid = false;
    }

    MshrGrant
    request(Addr block, Cycle now)
    {
        release(now);
        MshrGrant g;
        g.startAt = now;
        for (const Entry &e : entries) {
            if (e.valid && e.block == block) {
                ++merges;
                g.merged = true;
                g.mergedReadyAt = e.readyAt;
                return g;
            }
        }
        for (const Entry &e : entries)
            if (!e.valid)
                return g;
        ++fullStalls;
        Cycle earliest = entries[0].readyAt;
        for (const Entry &e : entries)
            earliest = std::min(earliest, e.readyAt);
        g.startAt = std::max(now, earliest);
        release(g.startAt);
        return g;
    }

    void
    complete(Addr block, Cycle readyAt)
    {
        for (Entry &e : entries) {
            if (!e.valid) {
                e = Entry{true, block, readyAt};
                ++fills;
                return;
            }
        }
    }

    Cycle
    hitUnderFill(Addr block, Cycle now)
    {
        for (const Entry &e : entries) {
            if (e.valid && e.block == block && e.readyAt > now) {
                ++merges;
                return e.readyAt;
            }
        }
        return 0;
    }

    int
    outstanding(Cycle now) const
    {
        int n = 0;
        for (const Entry &e : entries)
            n += e.valid && e.readyAt > now;
        return n;
    }
};

/** A fresh file restored from @p m's snapshot. */
MshrFile
restored(const MshrFile &m, int entries)
{
    Snapshotter sp;
    sp.beginSection("MSHR", MshrFile::snapVersion);
    m.save(sp);
    sp.endSection();
    Restorer rs(sp.finish());
    MshrFile r("test", entries);
    rs.enterSection("MSHR");
    r.load(rs);
    rs.leaveSection();
    return r;
}

} // namespace

TEST(Mshr, FilteredHitUnderFillMatchesScan)
{
    // Seeded random request/complete/hitUnderFill/outstanding streams
    // over a few hot blocks and many cold ones, with times that jitter
    // backwards as the shared L2's requests do, and a save -> load
    // half way (the restored file rebuilds its early-out).
    for (const int entries : {4, 32}) {
        for (std::uint64_t seed = 1; seed <= 20; ++seed) {
            std::mt19937_64 rng(seed);
            MshrFile m("test", entries);
            ScanMshr ref(entries);
            Cycle base = 0;
            int hits_in_flight = 0;
            for (int step = 0; step < 4000; ++step) {
                if (step == 2000)
                    m = restored(m, entries);
                base += rng() % 3;
                const Cycle now = base + rng() % 8;
                const Addr block = rng() % 4 == 0 ? rng() : rng() % 24;
                switch (rng() % 4) {
                  case 0: {
                    const MshrGrant g = m.request(block, now);
                    const MshrGrant r = ref.request(block, now);
                    ASSERT_EQ(g.merged, r.merged);
                    ASSERT_EQ(g.startAt, r.startAt);
                    ASSERT_EQ(g.mergedReadyAt, r.mergedReadyAt);
                    if (!g.merged) {
                        const Cycle ready = g.startAt + 1 + rng() % 150;
                        m.complete(block, g.startAt, ready);
                        ref.complete(block, ready);
                    }
                    break;
                  }
                  case 1:
                  case 2: {
                    const Cycle got = m.hitUnderFill(block, now);
                    ASSERT_EQ(got, ref.hitUnderFill(block, now))
                        << "seed " << seed << " step " << step;
                    hits_in_flight += got != 0;
                    break;
                  }
                  default:
                    ASSERT_EQ(m.outstanding(now), ref.outstanding(now));
                }
                ASSERT_EQ(m.merges(), ref.merges);
            }
            EXPECT_EQ(m.fills(), ref.fills);
            EXPECT_EQ(m.fullStalls(), ref.fullStalls);
            EXPECT_GT(hits_in_flight, 50) << "seed " << seed;
        }
    }
}

TEST(Mshr, OccupancyIntegralSumsFillDurations)
{
    MshrFile m("test", 2);
    MshrGrant a = m.request(0x1000, 0);
    m.complete(0x1000, a.startAt, 40);
    MshrGrant b = m.request(0x2000, 10);
    m.complete(0x2000, b.startAt, 30);
    // 40 cycles in flight for the first fill + 20 for the second.
    EXPECT_DOUBLE_EQ(m.occupancyIntegral(), 60.0);
}

TEST(StoreBuffer, DrainsInBackgroundUntilFull)
{
    StoreBuffer sb(2);
    EXPECT_EQ(sb.push(0, 100), 0u);
    EXPECT_EQ(sb.push(0, 120), 0u);
    EXPECT_TRUE(sb.full(50));
    EXPECT_EQ(sb.occupancy(50), 2);

    // Buffer full: the third store waits for the earliest drain.
    const Cycle entered = sb.push(60, 200);
    EXPECT_GE(entered, 100u);
    EXPECT_EQ(sb.fullStalls(), 1u);
    EXPECT_EQ(sb.stores(), 3u);
}

TEST(StoreBuffer, OccupancyDropsAsDrainsComplete)
{
    StoreBuffer sb(4);
    sb.push(0, 10);
    sb.push(0, 20);
    sb.push(0, 30);
    EXPECT_EQ(sb.occupancy(5), 3);
    EXPECT_EQ(sb.occupancy(15), 2);
    EXPECT_EQ(sb.occupancy(25), 1);
    EXPECT_EQ(sb.occupancy(35), 0);
    EXPECT_FALSE(sb.full(5));
    EXPECT_EQ(sb.fullStalls(), 0u);
}

TEST(StoreBuffer, BackToBackFullStallsSerialize)
{
    StoreBuffer sb(1);
    EXPECT_EQ(sb.push(0, 50), 0u);
    const Cycle s2 = sb.push(0, 90);
    EXPECT_GE(s2, 50u);
    const Cycle s3 = sb.push(s2, 130);
    EXPECT_GE(s3, 90u);
    EXPECT_EQ(sb.fullStalls(), 2u);
    EXPECT_EQ(sb.stores(), 3u);
}
