/**
 * @file
 * CMP/SMP correctness: the MESI hub's closed-form latencies, the TLB
 * shootdown completion invariant, work-stealing determinism, a cosim
 * fuzz over the topology matrix, and the single-core byte-identity
 * contract (cores = 1 artifacts keep the historical layout exactly).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/cosim.h"
#include "harness/env.h"
#include "harness/session.h"
#include "mem/coherence.h"
#include "mem/hierarchy.h"
#include "obs/profiler.h"
#include "obs/session.h"
#include "sim/export.h"
#include "snap/snapshot.h"

using namespace smtos;

namespace {

// --- MESI unit fixtures: two private hierarchies over one shared L2
// --- complex, behind one hub. ---

struct Chip2
{
    L2Complex l2{HierarchyParams{}};
    Hierarchy h0{HierarchyParams{}, l2};
    Hierarchy h1{HierarchyParams{}, l2};
    CoherenceHub hub;

    Chip2()
    {
        hub.attach(&h0);
        hub.attach(&h1);
        h0.setCoherence(&hub, 0);
        h1.setCoherence(&hub, 1);
    }
};

const AccessInfo who0{0, Mode::User, 0};
const AccessInfo who1{1, Mode::User, 1};

// --- Session configs ---

Session::Config
smpSpec(int cores, int ctx)
{
    Session::Config s;
    s.system.topology.cores = cores;
    s.system.topology.contextsPerCore = ctx;
    s.workload.kind = WorkloadConfig::Kind::SpecInt;
    s.workload.spec.inputChunks = 16;
    s.phases.startupInstrs = 120'000;
    s.phases.measureInstrs = 160'000;
    return s;
}

Session::Config
smpApache(int cores, int ctx)
{
    Session::Config s = smpSpec(cores, ctx);
    s.workload.kind = WorkloadConfig::Kind::Apache;
    return s;
}

/** Walk the artifact's section framing: (fourcc, version) in order. */
std::vector<std::pair<std::string, std::uint32_t>>
sectionsOf(const std::vector<std::uint8_t> &artifact)
{
    std::vector<std::pair<std::string, std::uint32_t>> out;
    std::size_t pos = 8 + 4 + 8 + 8; // magic, format, length, checksum
    while (pos + 16 <= artifact.size()) {
        char tag[5] = {0};
        std::memcpy(tag, artifact.data() + pos, 4);
        std::uint32_t version;
        std::memcpy(&version, artifact.data() + pos + 4,
                    sizeof version);
        std::uint64_t len;
        std::memcpy(&len, artifact.data() + pos + 8, sizeof len);
        out.emplace_back(tag, version);
        pos += 16 + len;
    }
    EXPECT_EQ(pos, artifact.size());
    return out;
}

int
countTag(const std::vector<std::pair<std::string, std::uint32_t>> &ss,
         const std::string &tag)
{
    int n = 0;
    for (const auto &s : ss)
        if (s.first == tag)
            ++n;
    return n;
}

} // namespace

// ===================== MESI state machine =====================

// A store with no remote copy is MESI's silent E->M: no invalidation,
// no upgrade broadcast, zero added latency.
TEST(Mesi, ExclusiveToModifiedIsSilent)
{
    Chip2 c;
    c.h0.l1d().access(0x1000, who0, false);
    EXPECT_EQ(c.hub.onWrite(0, 0x1000), 0u);
    EXPECT_EQ(c.hub.stats().snoopProbes, 1u);
    EXPECT_EQ(c.hub.stats().invalidations, 0u);
    EXPECT_EQ(c.hub.stats().upgrades, 0u);
    EXPECT_EQ(c.hub.stats().interventionWritebacks, 0u);
}

// A store that finds a remote clean sharer pays exactly the S->M
// upgrade broadcast and invalidates the remote copy.
TEST(Mesi, UpgradeInvalidatesCleanSharer)
{
    Chip2 c;
    c.h1.l1d().access(0x2000, who1, false); // remote Shared copy
    EXPECT_TRUE(c.h1.l1d().probe(0x2000));
    EXPECT_EQ(c.hub.onWrite(0, 0x2000), CoherenceHub::upgradeLatency);
    EXPECT_FALSE(c.h1.l1d().probe(0x2000));
    EXPECT_EQ(c.hub.stats().invalidations, 1u);
    EXPECT_EQ(c.hub.stats().upgrades, 1u);
    EXPECT_EQ(c.hub.stats().interventionWritebacks, 0u);
}

// A store that finds a remote Modified copy pays the intervention
// writeback (the dirty data's trip to the shared L2 is on the
// store's critical path), not the cheap upgrade.
TEST(Mesi, WriteToRemoteModifiedPaysIntervention)
{
    Chip2 c;
    c.h1.l1d().access(0x3000, who1, true); // remote Modified copy
    EXPECT_TRUE(c.h1.l1d().probeDirty(0x3000));
    EXPECT_EQ(c.hub.onWrite(0, 0x3000),
              CoherenceHub::interventionLatency);
    EXPECT_FALSE(c.h1.l1d().probe(0x3000));
    EXPECT_EQ(c.hub.stats().invalidations, 1u);
    EXPECT_EQ(c.hub.stats().interventionWritebacks, 1u);
    EXPECT_EQ(c.hub.stats().upgrades, 0u);
}

// A read miss downgrades a remote Modified copy M->S: the remote
// copy stays resident but loses dirty ownership, and the requester
// pays the intervention on its fill path.
TEST(Mesi, ReadMissDowngradesRemoteModified)
{
    Chip2 c;
    c.h1.l1d().access(0x4000, who1, true);
    EXPECT_EQ(c.hub.onReadMiss(0, 0x4000),
              CoherenceHub::interventionLatency);
    EXPECT_TRUE(c.h1.l1d().probe(0x4000));
    EXPECT_FALSE(c.h1.l1d().probeDirty(0x4000));
    EXPECT_EQ(c.hub.stats().downgrades, 1u);
    EXPECT_EQ(c.hub.stats().interventionWritebacks, 1u);
    // A second read miss finds the copy already Shared: free.
    EXPECT_EQ(c.hub.onReadMiss(0, 0x4000), 0u);
    EXPECT_EQ(c.hub.stats().downgrades, 1u);
}

// Clean remote sharers cost a read miss nothing.
TEST(Mesi, ReadMissWithCleanSharerIsFree)
{
    Chip2 c;
    c.h1.l1d().access(0x5000, who1, false);
    EXPECT_EQ(c.hub.onReadMiss(0, 0x5000), 0u);
    EXPECT_EQ(c.hub.stats().downgrades, 0u);
    EXPECT_EQ(c.hub.stats().interventionWritebacks, 0u);
    EXPECT_TRUE(c.h1.l1d().probe(0x5000));
}

// DMA writes (disk reads landing in memory) invalidate every core's
// stale L1D copy.
TEST(Mesi, DmaInvalidatesEveryCore)
{
    Chip2 c;
    c.h0.l1d().access(0x6000, who0, false);
    c.h1.l1d().access(0x6000, who1, false);
    c.hub.dmaInvalidate(0x6000);
    EXPECT_FALSE(c.h0.l1d().probe(0x6000));
    EXPECT_FALSE(c.h1.l1d().probe(0x6000));
}

// Both cores sit over one L2 on the data path: a line core 0 just
// brought from DRAM is an L2 hit for core 1, and DRAM is read once.
TEST(SharedL2, SecondCoreHitsLineTheFirstFetched)
{
    Chip2 c;
    const MemResult r0 = c.h0.data(0x7000, who0, false, 0);
    EXPECT_FALSE(r0.l2Hit);
    const MemResult r1 = c.h1.data(0x7000, who1, false, r0.readyAt);
    EXPECT_FALSE(r1.l1Hit);
    EXPECT_TRUE(r1.l2Hit);
    EXPECT_EQ(c.l2.dram().accesses(), 1u);
}

// ===================== TLB shootdowns =====================

// munmap on a CMP IPIs every other core; the kernel's ledger must
// balance (raised = delivered + pending) and the audit must stay
// clean through delivery. Small heaps make the workload's munmap
// calls hit mapped pages deterministically often.
TEST(Shootdown, CompletionInvariantHolds)
{
    Session::Config cfg = smpSpec(2, 4);
    cfg.workload.spec.heapBase = 1ull << 16;
    cfg.workload.spec.heapStep = 1ull << 14;
    cfg.phases.startupInstrs = 400'000;
    cfg.phases.measureInstrs = 1'500'000;
    Session s(cfg);
    s.run();
    const Kernel &k = s.system().kernel();
    EXPECT_GT(k.shootdownIpis(), 0u);
    EXPECT_GT(k.shootdownsDelivered(), 0u);
    EXPECT_LE(k.shootdownsDelivered(), k.shootdownIpis());
    EXPECT_EQ(s.system().kernel().auditInvariants(), "");
}

// ===================== work stealing =====================

// An imbalanced process count (5 user procs across 2 cores x 2
// contexts) forces idle cores to steal; twin runs must agree on
// every exported number and on the steal count itself.
TEST(WorkStealing, StealsHappenAndRunsAreDeterministic)
{
    Session::Config cfg = smpSpec(2, 2);
    cfg.workload.spec.numApps = 5;
    cfg.workload.spec.inputChunks = 40;
    cfg.phases.startupInstrs = 600'000;
    cfg.phases.measureInstrs = 200'000;

    Session a(cfg);
    const RunResult ra = a.run();
    Session b(cfg);
    const RunResult rb = b.run();

    EXPECT_GT(a.system().kernel().workSteals(), 0u);
    EXPECT_EQ(a.system().kernel().workSteals(),
              b.system().kernel().workSteals());
    EXPECT_EQ(toJson(ra.startup), toJson(rb.startup));
    EXPECT_EQ(toJson(ra.steady), toJson(rb.steady));
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(a.system().kernel().auditInvariants(), "");
}

// ===================== per-core aggregates =====================

// The top-level capture is the machine aggregate of the per-core
// slices: instruction counts sum, and lockstep makes every core
// report the same chip cycle.
TEST(Topology, PerCoreSlicesSumToMachineAggregates)
{
    Session s(smpApache(2, 4));
    const RunResult r = s.run();
    ASSERT_EQ(r.steady.cores.size(), 2u);
    EXPECT_EQ(r.steady.smp.enabled, 1);
    std::uint64_t instrs = 0;
    for (const CoreSlice &c : r.steady.cores) {
        instrs += c.core.totalRetired();
        EXPECT_EQ(c.core.cycles, r.steady.core.cycles);
    }
    EXPECT_EQ(instrs, r.steady.core.totalRetired());
    EXPECT_TRUE(r.steady.smp.coherence.any());

    const std::string json = toJson(r.steady);
    EXPECT_NE(json.find("\"cores\":["), std::string::npos);
    EXPECT_NE(json.find("\"smp\":{"), std::string::npos);
    EXPECT_NE(json.find("\"coherence\""), std::string::npos);
}

// ===================== cosim fuzz =====================

struct FuzzCase
{
    int seed;
};

class SmpCosimFuzz : public ::testing::TestWithParam<int>
{
};

// 52 seeds across {1,2,4} cores x {1,2,4,8} contexts, alternating
// SPECInt and Apache. runMeasurement panics on divergence, so a
// surviving oracle with checked() > 0 is the assertion.
TEST_P(SmpCosimFuzz, OracleStaysClean)
{
    const int seed = GetParam();
    static const int coreChoices[] = {1, 2, 4};
    static const int ctxChoices[] = {1, 2, 4, 8};
    const int cores = coreChoices[seed % 3];
    const int ctx = ctxChoices[(seed / 3) % 4];
    Session::Config cfg = seed % 2 ? smpApache(cores, ctx)
                                   : smpSpec(cores, ctx);
    cfg.phases.startupInstrs = 60'000;
    cfg.phases.measureInstrs = 80'000;
    cfg.workload.seed = 1000 + static_cast<std::uint64_t>(seed);
    cfg.cosim = true;
    Session s(cfg);
    s.run();
    ASSERT_NE(s.cosim(), nullptr);
    EXPECT_FALSE(s.cosim()->diverged());
    EXPECT_GT(s.cosim()->checked(), 0u);
    EXPECT_EQ(s.system().kernel().auditInvariants(), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmpCosimFuzz,
                         ::testing::Range(0, 52));

// ===================== snapshot formats =====================

// cores = 1 artifacts keep the seed layout exactly: CFG version 2,
// one PIPE section, no COH section, and no SMP keys in the JSON.
TEST(SnapshotFormat, SingleCoreArtifactKeepsSeedLayout)
{
    Session::Config cfg = smpSpec(1, 4);
    Session s(cfg);
    s.runStartup();
    const auto sections = sectionsOf(s.snapshot());
    ASSERT_FALSE(sections.empty());
    EXPECT_EQ(sections[0].first, "CFG ");
    EXPECT_EQ(sections[0].second, 2u);
    EXPECT_EQ(countTag(sections, "PIPE"), 1);
    EXPECT_EQ(countTag(sections, "HIER"), 1);
    EXPECT_EQ(countTag(sections, "COH "), 0);

    const std::string json =
        toJson(MetricsSnapshot::capture(s.system()));
    EXPECT_EQ(json.find("\"cores\":["), std::string::npos);
    EXPECT_EQ(json.find("\"smp\":{"), std::string::npos);
}

// CMP artifacts carry the widened CFG plus one PIPE/HIER pair per
// core and the coherence hub's section.
TEST(SnapshotFormat, CmpArtifactCarriesPerCoreSections)
{
    Session s(smpApache(2, 4));
    s.runStartup();
    const auto sections = sectionsOf(s.snapshot());
    ASSERT_FALSE(sections.empty());
    EXPECT_EQ(sections[0].first, "CFG ");
    EXPECT_EQ(sections[0].second, 3u);
    EXPECT_EQ(countTag(sections, "PIPE"), 2);
    EXPECT_EQ(countTag(sections, "HIER"), 2);
    EXPECT_EQ(countTag(sections, "COH "), 1);
}

// A CMP measurement resumed from the artifact is byte-identical to
// the uninterrupted one, and restoring then re-snapshotting loses
// nothing.
TEST(SnapshotFormat, CmpRoundTripIsExact)
{
    Session::Config cfg = smpApache(2, 4);
    Session origin(cfg);
    origin.runStartup();
    const std::vector<std::uint8_t> artifact = origin.snapshot();

    std::string err;
    auto identity =
        Session::resume(artifact, Session::ResumeOptions{}, &err);
    ASSERT_NE(identity, nullptr) << err;
    EXPECT_EQ(artifact, identity->snapshot());

    const std::string straight =
        toJson(origin.runMeasurement().steady);
    Session::ResumeOptions opts;
    opts.phases = cfg.phases;
    auto resumed = Session::resume(artifact, opts, &err);
    ASSERT_NE(resumed, nullptr) << err;
    EXPECT_EQ(straight, toJson(resumed->runMeasurement().steady));
}

// The cosim oracle survives a CMP snapshot/restore boundary.
TEST(SnapshotFormat, CmpCosimSurvivesRestore)
{
    Session::Config cfg = smpSpec(2, 4);
    cfg.cosim = true;
    Session origin(cfg);
    origin.runStartup();
    const std::vector<std::uint8_t> artifact = origin.snapshot();

    Session::ResumeOptions opts;
    opts.phases = cfg.phases;
    opts.cosim = true;
    std::string err;
    auto resumed = Session::resume(artifact, opts, &err);
    ASSERT_NE(resumed, nullptr) << err;
    resumed->runMeasurement();
    ASSERT_NE(resumed->cosim(), nullptr);
    EXPECT_FALSE(resumed->cosim()->diverged());
    EXPECT_GT(resumed->cosim()->checked(), 0u);
}

// ===================== pinned bytes =====================

namespace {

std::uint64_t
fnv1a(const void *p, std::size_t n)
{
    return snapshotChecksum(static_cast<const std::uint8_t *>(p), n);
}

/**
 * FNV-1a digests of the start-up artifact and of toJson() of an
 * absolute capture after a short measurement, recorded before the
 * chip became one shared L2 complex plus N identical cores. A changed
 * digest is a changed machine or artifact format: explain it, never
 * re-record it silently.
 */
void
expectPinned(const Session::Config &cfg, std::uint64_t artifact,
             std::uint64_t metrics)
{
    Session s(cfg);
    s.runStartup();
    const std::vector<std::uint8_t> bytes = s.snapshot();
    s.runMeasurement();
    const std::string json = toJson(MetricsSnapshot::capture(s.system()));
    const std::uint64_t a = fnv1a(bytes.data(), bytes.size());
    const std::uint64_t m = fnv1a(json.data(), json.size());
    EXPECT_EQ(a, artifact) << std::hex << "artifact 0x" << a;
    EXPECT_EQ(m, metrics) << std::hex << "metrics 0x" << m;
}

} // namespace

TEST(PinnedBytes, SpecInt1x4)
{
    expectPinned(smpSpec(1, 4), 0x4401ba2348acc7a9ull,
                 0xa0803e8b36dcbb7eull);
}

TEST(PinnedBytes, Apache1x4)
{
    expectPinned(smpApache(1, 4), 0xfb77c379fe01fcddull,
                 0x941fa90920b794c3ull);
}

TEST(PinnedBytes, Apache2x4)
{
    expectPinned(smpApache(2, 4), 0x811ddb275781d907ull,
                 0x3df0fb41972dc110ull);
}

TEST(PinnedBytes, Apache4x4)
{
    expectPinned(smpApache(4, 4), 0xff70ef6b499d7e85ull,
                 0x0d546cbc7e5a9a81ull);
}

namespace {

/**
 * FNV-1a digests of the cycle-attribution profiler report and of the
 * Perfetto trace.json of a short profiled run, recorded before issue
 * and execute became event-driven (producer->consumer wakeup). They
 * pin issue-slot attribution and per-uop event order, which the
 * artifact and metrics digests above do not see.
 */
void
expectPinnedObs(Session::Config cfg, const std::string &name,
                std::uint64_t report, std::uint64_t timeline)
{
    const std::string path =
        ::testing::TempDir() + "/pinned_" + name + ".json";
    std::string rep;
    {
        ObsConfig oc;
        oc.profile = true;
        oc.reportPath = ::testing::TempDir() + "/pinned_" + name + ".txt";
        oc.timelinePath = path;
        ObsSession obs(oc);
        cfg.obs = &obs;
        Session s(cfg);
        s.run();
        std::ostringstream os;
        obs.profiler()->writeReport(os);
        rep = os.str();
        std::remove(oc.reportPath.c_str());
    }
    std::ifstream in(path, std::ios::binary);
    std::ostringstream tl;
    tl << in.rdbuf();
    const std::string trace = tl.str();
    std::remove(path.c_str());
    EXPECT_FALSE(trace.empty());
    const std::uint64_t r = fnv1a(rep.data(), rep.size());
    const std::uint64_t t = fnv1a(trace.data(), trace.size());
    EXPECT_EQ(r, report) << std::hex << "report 0x" << r;
    EXPECT_EQ(t, timeline) << std::hex << "timeline 0x" << t;
}

} // namespace

TEST(PinnedBytes, ProfileAndTimelineSpecInt1x4)
{
    expectPinnedObs(smpSpec(1, 4), "specint1x4", 0x165a92d302fdf25cull,
                    0xe8c84a910070684bull);
}

TEST(PinnedBytes, ProfileAndTimelineApache4x4)
{
    expectPinnedObs(smpApache(4, 4), "apache4x4", 0xcc869bf3e8b698b6ull,
                    0x16ab6ac6cf6fdb1cull);
}

// ===================== kernelEntries =====================

namespace {

using EntryMaps = std::vector<std::map<std::string, std::uint64_t>>;

/** Every core's kernelEntries, then the machine-level capture's. */
EntryMaps
kernelEntriesOf(Session &s)
{
    EntryMaps m;
    for (int c = 0; c < s.system().numCores(); ++c)
        m.push_back(s.system().pipeline(c).stats().kernelEntries.all());
    m.push_back(s.capture().core.kernelEntries.all());
    return m;
}

std::uint64_t
digestOf(const EntryMaps &maps)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < maps.size(); ++i)
        for (const auto &[key, n] : maps[i])
            os << i << ' ' << key << ' ' << n << '\n';
    const std::string text = os.str();
    return fnv1a(text.data(), text.size());
}

/**
 * The per-cycle kernelEntries counters (fetch-stop reasons, TLB
 * misses, interrupts) at three points of an Apache run: after
 * start-up, after one more run() chunk, and after a second. The
 * digests were recorded while every count still went through a
 * string-keyed map lookup; the interned counters must show the same
 * keys and counts. A resumed run must match the straight run, and
 * after a stats reset a key reappears only when counted again.
 */
void
expectKernelEntries(int cores, const std::vector<std::uint64_t> &pinned)
{
    constexpr std::uint64_t chunk = 60'000;
    Session::Config cfg = smpApache(cores, 4);
    Session s(cfg);
    s.runStartup();
    std::vector<EntryMaps> straight{kernelEntriesOf(s)};
    s.system().run(chunk);
    straight.push_back(kernelEntriesOf(s));
    const std::vector<std::uint8_t> artifact = s.snapshot();
    s.system().run(chunk);
    straight.push_back(kernelEntriesOf(s));
    for (std::size_t i = 0; i < pinned.size(); ++i)
        EXPECT_EQ(digestOf(straight[i]), pinned[i])
            << std::hex << "point " << i << " digest 0x"
            << digestOf(straight[i]);
    EXPECT_GT(straight.back().back().at("fs_iq"), 0u);

    // Resumed in the middle of the measurement, the counters carry on
    // exactly as the straight run's.
    std::string err;
    auto resumed =
        Session::resume(artifact, Session::ResumeOptions{}, &err);
    ASSERT_NE(resumed, nullptr) << err;
    EXPECT_EQ(kernelEntriesOf(*resumed), straight[1]);
    resumed->system().run(chunk);
    EXPECT_EQ(kernelEntriesOf(*resumed), straight[2]);
    resumed->system().run(chunk);
    const EntryMaps end = kernelEntriesOf(*resumed);

    // Reset the straight run's core stats and run the same chunk: each
    // counter holds exactly its growth over the chunk, and a counter
    // that did not grow is absent.
    for (int c = 0; c < cores; ++c)
        s.system().pipeline(c).stats() = CoreStats{};
    s.system().run(chunk);
    const EntryMaps after = kernelEntriesOf(s);
    for (int c = 0; c < cores; ++c) {
        std::map<std::string, std::uint64_t> grown;
        for (const auto &[key, n] : end[static_cast<std::size_t>(c)]) {
            const auto &before = straight[2][static_cast<std::size_t>(c)];
            const auto it = before.find(key);
            const std::uint64_t was = it == before.end() ? 0 : it->second;
            if (n != was)
                grown[key] = n - was;
        }
        EXPECT_EQ(after[static_cast<std::size_t>(c)], grown)
            << "core " << c;
    }
}

} // namespace

TEST(KernelEntries, ExactAcrossCaptureResumeAndResetOneCore)
{
    expectKernelEntries(1, {0x280bd489ddc4ccf1ull, 0xbc71c3811d3dc331ull,
                            0xd4776f286edb6d71ull});
}

TEST(KernelEntries, ExactAcrossCaptureResumeAndResetFourCores)
{
    expectKernelEntries(4, {0x3d3ac579ec6c7f7full, 0xb824b4ba113fae5full,
                            0x29f081926a7c711full});
}

// ===================== SMTOS_CORES =====================

TEST(SmpEnv, SmtosCoresParsesAndValidates)
{
    const EnvOverrides ov =
        EnvOverrides::fromLookup([](const char *name) -> const char * {
            return std::strcmp(name, "SMTOS_CORES") == 0 ? "4"
                                                         : nullptr;
        });
    EXPECT_TRUE(ov.hasCores);
    EXPECT_EQ(ov.cores, 4);

    const EnvOverrides none = EnvOverrides::fromLookup(
        [](const char *) -> const char * { return nullptr; });
    EXPECT_FALSE(none.hasCores);
}
