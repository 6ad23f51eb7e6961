#include "harness/session.h"

#include <algorithm>

#include "common/logging.h"
#include "fault/auditor.h"
#include "fault/diag.h"
#include "harness/cosim.h"
#include "harness/env.h"
#include "obs/reqtrace.h"
#include "obs/session.h"
#include "sim/config.h"
#include "sim/system.h"
#include "snap/snapshot.h"
#include "snap/sysstate.h"

namespace smtos {

namespace {

/** Config-section layout version (independent of the machine
 *  sections' per-class versions). Version 2 is the single-core layout
 *  (unchanged bytes — the bit-identity contract for cores = 1
 *  artifacts); version 3 appends the CMP width for cores > 1. */
constexpr std::uint32_t configSectionVersion = 2;
constexpr std::uint32_t configSectionVersionCmp = 3;

/** Largest chip a topology may ask for. */
constexpr int maxCores = 16;

/** Cosim-oracle section layout version. */
constexpr std::uint32_t cosimSectionVersion = 1;

/** Optional trailing request-tracer section. */
constexpr std::uint32_t reqtraceSectionVersion = 1;

/** Optional trailing overload (open-loop + admission) section. */
constexpr std::uint32_t overloadSectionVersion = 1;

/** Optional trailing fidelity/sampling section. */
constexpr std::uint32_t fidelitySectionVersion = 1;

/**
 * OVLD section prologue: the overload params. They cannot ride the
 * CFG section (its byte layout is the bit-identity contract for
 * default artifacts), so the optional section carries its own config
 * ahead of the mutable state.
 */
void
overloadParamsOut(Snapshotter &sp, const OpenLoopParams &ol,
                  const AdmitParams &ap)
{
    sp.b(ol.enabled);
    sp.u8(static_cast<std::uint8_t>(ol.kind));
    sp.f64(ol.ratePerMcycle);
    sp.f64(ol.burstFactor);
    sp.f64(ol.burstDuty);
    sp.u64(ol.burstPeriod);
    sp.f64(ol.rampStartFactor);
    sp.u64(ol.rampCycles);
    sp.f64(ol.slowPct);
    sp.u64(ol.slowDrainPerKb);
    sp.f64(ol.keepAlivePct);
    sp.u64(ol.retryTimeout);
    sp.i32(ol.maxRetries);
    sp.u64(ol.seed);

    sp.u8(static_cast<std::uint8_t>(ap.policy));
    sp.i32(ap.queueCap);
    sp.i32(ap.redMinDepth);
    sp.f64(ap.redMaxProb);
    sp.u64(ap.shedDeadline);
    sp.u64(ap.seed);
    sp.b(ap.mbufAccounting);
}

void
overloadParamsIn(Restorer &rs, OpenLoopParams &ol, AdmitParams &ap)
{
    ol.enabled = rs.b();
    ol.kind = static_cast<ArrivalKind>(rs.u8());
    ol.ratePerMcycle = rs.f64();
    ol.burstFactor = rs.f64();
    ol.burstDuty = rs.f64();
    ol.burstPeriod = rs.u64();
    ol.rampStartFactor = rs.f64();
    ol.rampCycles = rs.u64();
    ol.slowPct = rs.f64();
    ol.slowDrainPerKb = rs.u64();
    ol.keepAlivePct = rs.f64();
    ol.retryTimeout = rs.u64();
    ol.maxRetries = rs.i32();
    ol.seed = rs.u64();

    ap.policy = static_cast<AdmitPolicy>(rs.u8());
    ap.queueCap = rs.i32();
    ap.redMinDepth = rs.i32();
    ap.redMaxProb = rs.f64();
    ap.shedDeadline = rs.u64();
    ap.seed = rs.u64();
    ap.mbufAccounting = rs.b();
}

/**
 * FIDL section prologue: fidelity/sampling params. Same contract as
 * OVLD — they cannot ride the CFG section (its byte layout is the
 * bit-identity contract for default artifacts), so the optional
 * section carries its own config ahead of the live counters.
 */
void
fidelityParamsOut(Snapshotter &sp, Fidelity f, const SampleParams &p)
{
    sp.u8(static_cast<std::uint8_t>(f));
    sp.b(p.enabled);
    sp.u64(p.periodInstrs);
    sp.u64(p.warmInstrs);
    sp.u64(p.intervalInstrs);
    sp.f64(p.confidence);
}

void
fidelityParamsIn(Restorer &rs, Fidelity &f, SampleParams &p)
{
    f = static_cast<Fidelity>(rs.u8());
    p.enabled = rs.b();
    p.periodInstrs = rs.u64();
    p.warmInstrs = rs.u64();
    p.intervalInstrs = rs.u64();
    p.confidence = rs.f64();
}

MachineConfig
machineConfigOf(const SystemConfig &sc, const WorkloadConfig &wc)
{
    MachineConfig cfg = sc.smt ? smtConfig() : superscalarConfig();
    cfg.kernel.seed = wc.seed;
    cfg.kernel.appOnly = !sc.withOs;
    cfg.kernel.enableNetwork =
        (wc.kind == WorkloadConfig::Kind::Apache);
    cfg.kernel.openLoop = wc.openLoop;
    cfg.kernel.admit = sc.admit;
    cfg.mem.filterPrivileged = sc.filterKernelRefs;
    cfg.mem.dramLatency = sc.memLatency;
    cfg.mem.dram = sc.dram;
    cfg.cores = sc.topology.cores;
    if (sc.topology.contextsPerCore > 0) {
        cfg.core.numContexts = sc.topology.contextsPerCore;
        cfg.core.fetchContexts =
            std::min(2, sc.topology.contextsPerCore);
    }
    // A CMP wants one netisr per core so protocol processing can be
    // delivered core-locally (the kernel pins netisr i to core i%N).
    if (sc.topology.cores > 1)
        cfg.kernel.numNetisr =
            std::max(cfg.kernel.numNetisr, sc.topology.cores);
    if (sc.fetchContexts > 0)
        cfg.core.fetchContexts = sc.fetchContexts;
    if (sc.roundRobinFetch)
        cfg.core.fetchPolicy = FetchPolicy::RoundRobin;
    cfg.kernel.sharedTlbIpr = sc.sharedTlbIpr;
    if (sc.affinitySched)
        cfg.kernel.schedPolicy = Kernel::SchedPolicy::Affinity;
    return cfg;
}

} // namespace

Session::Session(const Config &cfg) : Session(cfg, true, false) {}

Session::Session(const Config &cfg, bool consultAmbient, bool forcePlan)
    : cfg_(cfg)
{
    // CMP width: the SMTOS_CORES ambient applies only to fresh
    // sessions whose config left topology at the single-core default,
    // and before validate() so the override faces the same checks.
    if (consultAmbient && cfg_.system.topology.cores == 1 &&
        EnvOverrides::ambient().hasCores)
        cfg_.system.topology.cores = EnvOverrides::ambient().cores;
    validate();

    // Fault injection: an explicit plan wins, then the config's
    // params, then (for fresh sessions only — resumed sessions take
    // everything from the artifact) the installed environment.
    if (cfg_.faultPlan) {
        plan_ = cfg_.faultPlan;
        cfg_.faults = plan_->params();
    } else {
        if (!cfg_.faults.any() && consultAmbient &&
            EnvOverrides::ambient().hasFaults)
            cfg_.faults = EnvOverrides::ambient().faults;
        if (cfg_.faults.any() || forcePlan) {
            ownedPlan_ = std::make_unique<FaultPlan>(cfg_.faults);
            plan_ = ownedPlan_.get();
        }
    }

    // Overload knobs follow the same precedence: explicit config
    // wins, then (fresh sessions only) the installed environment.
    // Applied before the System is built so machineConfigOf() sees
    // them.
    if (consultAmbient) {
        if (!cfg_.workload.openLoop.enabled &&
            EnvOverrides::ambient().hasOpenLoop)
            cfg_.workload.openLoop = EnvOverrides::ambient().openLoop;
        if (!cfg_.system.admit.enabled() &&
            EnvOverrides::ambient().hasAdmit)
            cfg_.system.admit = EnvOverrides::ambient().admit;
        if (cfg_.fidelity == Fidelity::Detailed &&
            EnvOverrides::ambient().hasFidelity)
            cfg_.fidelity = EnvOverrides::ambient().fidelity;
        if (!cfg_.sample.enabled && EnvOverrides::ambient().hasSample)
            cfg_.sample = EnvOverrides::ambient().sample;
    }

    sys_ = std::make_unique<System>(
        machineConfigOf(cfg_.system, cfg_.workload));
    for (int c = 0; c < sys_->numCores(); ++c) {
        sys_->pipeline(c).setFastForward(cfg_.system.fastForward);
        if (cfg_.fidelity == Fidelity::Functional)
            sys_->pipeline(c).setFidelity(Fidelity::Functional);
        if (cfg_.system.filterKernelRefs)
            sys_->pipeline(c).setFilterPrivilegedBranches(true);
    }

    // Observability: an explicit session wins; otherwise honor the
    // installed environment so any tool can be instrumented without
    // code changes.
    obs_ = cfg_.obs;
    if (!obs_ && consultAmbient &&
        EnvOverrides::ambient().obs.any()) {
        ownedObs_ =
            std::make_unique<ObsSession>(EnvOverrides::ambient().obs);
        obs_ = ownedObs_.get();
    }
    if (obs_)
        obs_->attach(*sys_);

    // Attach before start() so the connection-table override takes
    // effect and the netisr/idle boot is covered.
    if (plan_) {
        sys_->attachFaults(plan_);
        if (plan_->params().auditEvery > 0) {
            auditor_ = std::make_unique<InvariantAuditor>(
                *sys_, plan_->params().auditEvery);
            sys_->kernel().setAuditor(auditor_.get());
        }
    }
    diagArm(sys_.get(), plan_);

    if (cfg_.workload.kind == WorkloadConfig::Kind::SpecInt) {
        SpecIntParams p = cfg_.workload.spec;
        p.seed ^= cfg_.workload.seed;
        specW_ = buildSpecInt(p);
        installSpecInt(sys_->kernel(), specW_);
    } else {
        ApacheParams p = cfg_.workload.apache;
        p.seed ^= cfg_.workload.seed;
        apacheW_ = buildApache(p);
        installApache(sys_->kernel(), apacheW_);
    }

    // The oracle must observe the initial thread binds in start();
    // one oracle covers every core.
    if (cfg_.cosim)
        cosim_ = std::make_unique<Cosim>(sys_->pipes());

    sys_->start();
    atBuild_ = MetricsSnapshot::capture(*sys_);
}

Session::~Session()
{
    if (obs_)
        obs_->finish();
    diagArm(nullptr, nullptr);
}

void
Session::validate() const
{
    const SystemConfig &sc = cfg_.system;
    const TopologyConfig &tp = sc.topology;
    if (tp.contextsPerCore < 0 || tp.contextsPerCore > 64)
        smtos_fatal("Session: contextsPerCore %d out of range",
                    tp.contextsPerCore);
    if (tp.cores < 1 || tp.cores > maxCores)
        smtos_fatal("Session: cores %d out of range (1..%d)", tp.cores,
                    maxCores);
    if (tp.cores > 1 && !sc.smt)
        smtos_fatal("Session: the CMP is built from SMT cores; the "
                    "superscalar baseline is single-core");
    if (tp.cores > 1 && !sc.withOs)
        smtos_fatal("Session: cores > 1 needs the OS model (the SMP "
                    "kernel owns cross-core scheduling)");
    if (tp.cores > 1 && cfg_.fidelity != Fidelity::Detailed)
        smtos_fatal("Session: cores > 1 runs detailed only (the "
                    "functional engine models one core)");
    if (tp.cores > 1 && cfg_.sample.enabled)
        smtos_fatal("Session: sampled measurement is single-core");
    if (sc.fetchContexts < 0)
        smtos_fatal("Session: negative fetchContexts");
    if (tp.contextsPerCore > 0 &&
        sc.fetchContexts > tp.contextsPerCore)
        smtos_fatal("Session: fetchContexts %d exceeds "
                    "contextsPerCore %d",
                    sc.fetchContexts, tp.contextsPerCore);
    if (!sc.smt && tp.contextsPerCore > 1)
        smtos_fatal("Session: the superscalar baseline has exactly "
                    "one context");
    if (cfg_.phases.measureInstrs == 0)
        smtos_fatal("Session: measureInstrs must be nonzero");
    if (sc.memLatency == 0)
        smtos_fatal("Session: memLatency must be nonzero");
    const DramParams &dp = sc.dram;
    auto pow2 = [](int v) { return v > 0 && (v & (v - 1)) == 0; };
    if (dp.channels <= 0 || dp.ranks <= 0 || dp.banksPerRank <= 0)
        smtos_fatal("Session: DRAM geometry must be nonzero "
                    "(channels %d, ranks %d, banksPerRank %d)",
                    dp.channels, dp.ranks, dp.banksPerRank);
    if (!pow2(dp.channels) || !pow2(dp.ranks) ||
        !pow2(dp.banksPerRank) || !pow2(dp.rowBytes) ||
        !pow2(dp.burstBytes))
        smtos_fatal("Session: DRAM geometry must be powers of two "
                    "(channels %d, ranks %d, banksPerRank %d, "
                    "rowBytes %d, burstBytes %d)",
                    dp.channels, dp.ranks, dp.banksPerRank,
                    dp.rowBytes, dp.burstBytes);
    if (dp.rowBytes < dp.burstBytes)
        smtos_fatal("Session: DRAM rowBytes %d smaller than "
                    "burstBytes %d",
                    dp.rowBytes, dp.burstBytes);
    if (dp.queueDepth <= 0)
        smtos_fatal("Session: DRAM queueDepth must be nonzero");
    if (cfg_.workload.openLoop.enabled &&
        cfg_.workload.kind != WorkloadConfig::Kind::Apache)
        smtos_fatal("Session: open-loop arrivals need the Apache "
                    "workload (there are no clients otherwise)");
    if (cfg_.workload.openLoop.enabled &&
        cfg_.workload.openLoop.ratePerMcycle <= 0.0)
        smtos_fatal("Session: open-loop rate must be positive");
    const AdmitParams &ap = sc.admit;
    if (ap.policy != AdmitPolicy::None && ap.queueCap <= 0)
        smtos_fatal("Session: admission policy needs queueCap > 0");
    if (ap.redMaxProb < 0.0 || ap.redMaxProb > 1.0)
        smtos_fatal("Session: redMaxProb must be within [0,1]");
    if (ap.policy == AdmitPolicy::RandomEarlyDrop &&
        ap.redMinDepth >= ap.queueCap)
        smtos_fatal("Session: RED needs redMinDepth < queueCap");
    if (ap.policy == AdmitPolicy::OldestFirst && ap.shedDeadline == 0)
        smtos_fatal("Session: oldest-first shedding needs a nonzero "
                    "shedDeadline");
    const SampleParams &smp = cfg_.sample;
    if (smp.enabled) {
        if (smp.intervalInstrs == 0)
            smtos_fatal("Session: sampling needs intervalInstrs > 0");
        if (smp.periodInstrs < smp.warmInstrs + smp.intervalInstrs)
            smtos_fatal("Session: sampling period must cover "
                        "warm + interval");
        if (smp.confidence < 0.5 || smp.confidence >= 1.0)
            smtos_fatal("Session: sampling confidence must be in "
                        "[0.5, 1)");
        if (cfg_.phases.windowInstrs > 0)
            smtos_fatal("Session: sampled measurement and windowed "
                        "measurement are mutually exclusive");
        if (cfg_.fidelity == Fidelity::Functional)
            smtos_fatal("Session: sampled measurement drives fidelity "
                        "itself; configure Detailed");
    }
}

void
Session::attachObs(ObsSession &obs)
{
    smtos_assert(!obs_);
    obs_ = &obs;
    obs_->attach(*sys_);
}

MetricsSnapshot
Session::capture() const
{
    return MetricsSnapshot::capture(*sys_);
}

void
Session::runStartup()
{
    if (startupDone_)
        return;
    startupDone_ = true;
    const MetricsSnapshot s0 = capture();
    if (cfg_.phases.startupInstrs > 0) {
        sys_->run(cfg_.phases.startupInstrs);
    } else if (cfg_.workload.kind == WorkloadConfig::Kind::SpecInt) {
        const std::uint64_t chunk = 200'000;
        std::uint64_t guard = 0;
        while (!sys_->kernel().startupComplete() && guard < 400) {
            sys_->run(chunk);
            ++guard;
        }
        if (guard >= 400)
            smtos_warn("start-up did not complete within guard");
    }
    startupDelta_ = capture().delta(s0);
}

RunResult
Session::runMeasurement()
{
    RunResult res;
    res.startup = startupDelta_;
    const MetricsSnapshot s1 = capture();

    if (cfg_.sample.enabled) {
        // SMARTS sampled measurement: the driver alternates fidelity
        // itself; steady still covers the whole sampled phase so
        // architectural counts (instructions, mode mix) stay exact.
        res.sample = runSampledMeasurement(*sys_, cfg_.sample,
                                           cfg_.phases.measureInstrs);
        res.steady = capture().delta(s1);
    } else if (obs_ && obs_->wantsIntervals()) {
        // Cycle-driven interval sampling: advance in fixed steps and
        // emit one time-series row per step until the instruction
        // budget is retired. Deterministic for a given seed/config.
        const Cycle iv = obs_->intervalCycles();
        const std::uint64_t target =
            s1.core.totalRetired() + cfg_.phases.measureInstrs;
        MetricsSnapshot prev = s1;
        int idx = 0;
        int stuck = 0;
        while (prev.core.totalRetired() < target) {
            const Cycle c0 = sys_->pipeline().now();
            sys_->runCycles(iv);
            MetricsSnapshot cur = capture();
            obs_->interval(idx++, c0, sys_->pipeline().now(),
                           cur.delta(prev));
            if (cur.core.totalRetired() == prev.core.totalRetired()) {
                if (++stuck >= 1000)
                    smtos_panic("interval sampling made no progress "
                                "for %d intervals",
                                stuck);
            } else {
                stuck = 0;
            }
            prev = cur;
        }
        res.steady = capture().delta(s1);
    } else if (cfg_.phases.windowInstrs > 0) {
        MetricsSnapshot prev = s1;
        std::uint64_t done = 0;
        while (done < cfg_.phases.measureInstrs) {
            const std::uint64_t step =
                std::min(cfg_.phases.windowInstrs,
                         cfg_.phases.measureInstrs - done);
            sys_->run(step);
            done += step;
            MetricsSnapshot cur = capture();
            res.windows.push_back(cur.delta(prev));
            prev = cur;
        }
        res.steady = capture().delta(s1);
    } else {
        sys_->run(cfg_.phases.measureInstrs);
        res.steady = capture().delta(s1);
    }

    res.requestsServed = sys_->kernel().requestsServed();
    res.cycles = sys_->pipeline().now();
    if (cosim_ && cosim_->diverged())
        smtos_panic("cosim divergence:\n%s",
                    cosim_->report().c_str());
    if (obs_)
        obs_->finish();
    return res;
}

RunResult
Session::run()
{
    runStartup();
    return runMeasurement();
}

// --- snapshot/restore ---

void
Session::writeConfig(Snapshotter &sp) const
{
    const SystemConfig &sc = cfg_.system;
    sp.b(sc.smt);
    sp.b(sc.withOs);
    sp.b(sc.filterKernelRefs);
    sp.i32(sc.topology.contextsPerCore);
    sp.i32(sc.fetchContexts);
    sp.b(sc.roundRobinFetch);
    sp.b(sc.affinitySched);
    sp.b(sc.sharedTlbIpr);
    sp.b(sc.fastForward);
    sp.u64(sc.memLatency);
    sp.b(sc.dram.banked);
    sp.i32(sc.dram.channels);
    sp.i32(sc.dram.ranks);
    sp.i32(sc.dram.banksPerRank);
    sp.i32(sc.dram.rowBytes);
    sp.i32(sc.dram.burstBytes);
    sp.i32(sc.dram.queueDepth);
    sp.b(sc.dram.closedPage);
    sp.u64(sc.dram.tRcd);
    sp.u64(sc.dram.tRp);
    sp.u64(sc.dram.tCas);
    sp.u64(sc.dram.tBurst);
    sp.u64(sc.dram.tFaw);

    const WorkloadConfig &wc = cfg_.workload;
    sp.u8(static_cast<std::uint8_t>(wc.kind));
    sp.i32(wc.spec.numApps);
    sp.u32(wc.spec.inputChunks);
    sp.u64(wc.spec.heapBase);
    sp.u64(wc.spec.heapStep);
    sp.u64(wc.spec.seed);
    sp.i32(wc.apache.numServers);
    sp.u64(wc.apache.heapBytes);
    sp.u64(wc.apache.seed);
    sp.u64(wc.seed);

    const FaultParams &fp = cfg_.faults;
    sp.u64(fp.seed);
    sp.f64(fp.lossPct);
    sp.f64(fp.reorderPct);
    sp.u64(fp.delayMin);
    sp.u64(fp.delayMax);
    sp.f64(fp.nicDropPct);
    sp.u64(fp.mcePeriod);
    sp.i32(fp.mceRetryLimit);
    sp.b(fp.mceBreakRecovery);
    sp.i32(fp.connTableSize);
    sp.i32(fp.listenBacklog);
    sp.u64(fp.auditEvery);

    sp.b(plan_ != nullptr);
    sp.b(cosim_ != nullptr);

    // Version-3 tail: the CMP width. Version-2 (cores = 1) artifacts
    // end above, byte-identical to the pre-CMP format.
    if (sc.topology.cores > 1)
        sp.i32(sc.topology.cores);
}

Session::Config
Session::readConfig(Restorer &rs, bool &hadPlan, bool &hadCosim)
{
    Config cfg;
    SystemConfig &sc = cfg.system;
    sc.smt = rs.b();
    sc.withOs = rs.b();
    sc.filterKernelRefs = rs.b();
    sc.topology.contextsPerCore = rs.i32();
    sc.fetchContexts = rs.i32();
    sc.roundRobinFetch = rs.b();
    sc.affinitySched = rs.b();
    sc.sharedTlbIpr = rs.b();
    sc.fastForward = rs.b();
    sc.memLatency = rs.u64();
    sc.dram.banked = rs.b();
    sc.dram.channels = rs.i32();
    sc.dram.ranks = rs.i32();
    sc.dram.banksPerRank = rs.i32();
    sc.dram.rowBytes = rs.i32();
    sc.dram.burstBytes = rs.i32();
    sc.dram.queueDepth = rs.i32();
    sc.dram.closedPage = rs.b();
    sc.dram.tRcd = rs.u64();
    sc.dram.tRp = rs.u64();
    sc.dram.tCas = rs.u64();
    sc.dram.tBurst = rs.u64();
    sc.dram.tFaw = rs.u64();

    WorkloadConfig &wc = cfg.workload;
    wc.kind = static_cast<WorkloadConfig::Kind>(rs.u8());
    wc.spec.numApps = rs.i32();
    wc.spec.inputChunks = rs.u32();
    wc.spec.heapBase = rs.u64();
    wc.spec.heapStep = rs.u64();
    wc.spec.seed = rs.u64();
    wc.apache.numServers = rs.i32();
    wc.apache.heapBytes = rs.u64();
    wc.apache.seed = rs.u64();
    wc.seed = rs.u64();

    FaultParams &fp = cfg.faults;
    fp.seed = rs.u64();
    fp.lossPct = rs.f64();
    fp.reorderPct = rs.f64();
    fp.delayMin = rs.u64();
    fp.delayMax = rs.u64();
    fp.nicDropPct = rs.f64();
    fp.mcePeriod = rs.u64();
    fp.mceRetryLimit = rs.i32();
    fp.mceBreakRecovery = rs.b();
    fp.connTableSize = rs.i32();
    fp.listenBacklog = rs.i32();
    fp.auditEvery = rs.u64();

    hadPlan = rs.b();
    hadCosim = rs.b();
    return cfg;
}

std::vector<std::uint8_t>
Session::snapshot()
{
    Snapshotter sp;
    sp.beginSection("CFG ", cfg_.system.topology.cores > 1
                                ? configSectionVersionCmp
                                : configSectionVersion);
    writeConfig(sp);
    sp.endSection();
    saveMachineSections(sp, *sys_, plan_);
    // The oracle rides behind the machine sections: its reference
    // cores sit at the retire point, which no machine section holds.
    sp.beginSection("COSM", cosimSectionVersion);
    if (cosim_) {
        const SnapImages images = collectImages(*sys_);
        cosim_->save(sp, images);
    }
    sp.endSection();
    // Tracer state is a trailing OPTIONAL section: untraced sessions
    // write nothing here, so their artifacts stay byte-identical to
    // the pre-tracer format.
    if (obs_ && obs_->reqtrace()) {
        sp.beginSection("RQTR", reqtraceSectionVersion);
        obs_->reqtrace()->save(sp);
        sp.endSection();
    }
    // Same contract for overload state: only sessions with the
    // open-loop generator or an admission policy engaged write it, so
    // default closed-loop artifacts keep their pre-overload bytes.
    if (cfg_.workload.openLoop.enabled || cfg_.system.admit.enabled()) {
        sp.beginSection("OVLD", overloadSectionVersion);
        overloadParamsOut(sp, cfg_.workload.openLoop,
                          cfg_.system.admit);
        sys_->kernel().saveOverload(sp);
        sp.endSection();
    }
    // Same contract for fidelity state: only sessions that configured
    // functional/sampled execution or actually ran functional cycles
    // write it, so pure-detailed artifacts keep their prior bytes.
    const Pipeline &pipe = sys_->pipeline();
    if (cfg_.fidelity != Fidelity::Detailed || cfg_.sample.enabled ||
        pipe.funcInstrs() > 0) {
        sp.beginSection("FIDL", fidelitySectionVersion);
        fidelityParamsOut(sp, cfg_.fidelity, cfg_.sample);
        sp.u8(static_cast<std::uint8_t>(pipe.fidelity()));
        sp.u64(pipe.funcInstrs());
        sp.u64(pipe.funcCycles());
        sp.u64(pipe.fidelitySwitches());
        sp.endSection();
    }
    return sp.finish();
}

std::unique_ptr<Session>
Session::resume(const std::vector<std::uint8_t> &artifact,
                const ResumeOptions &opts, std::string *error)
{
    Restorer rs(artifact);
    if (!rs.ok()) {
        if (error)
            *error = rs.error();
        return nullptr;
    }
    auto reject = [error](const std::string &why) {
        if (error)
            *error = "snapshot rejected: " + why;
        return nullptr;
    };
    const std::uint32_t cv = rs.enterSection("CFG ");
    if (cv != configSectionVersion && cv != configSectionVersionCmp)
        return reject("config section version " + std::to_string(cv) +
                      " (supported " +
                      std::to_string(configSectionVersion) + ", " +
                      std::to_string(configSectionVersionCmp) + ")");
    bool hadPlan = false;
    bool hadCosim = false;
    Config cfg = readConfig(rs, hadPlan, hadCosim);
    if (cv == configSectionVersionCmp) {
        // The CMP config version exists only for 2..maxCores cores;
        // any other count would build a machine the artifact cannot
        // fill.
        const int cores = rs.i32();
        if (cores < 2 || cores > maxCores)
            return reject("CMP config section carries " +
                          std::to_string(cores) + " cores (2.." +
                          std::to_string(maxCores) + ")");
        cfg.system.topology.cores = cores;
    }
    rs.leaveSection();

    // The oracle's retire-point state only exists in the artifact if
    // the originating session ran under co-simulation; a fresh oracle
    // cannot be synthesized mid-flight (in-flight instructions would
    // retire against state it never saw).
    if (opts.cosim && !hadCosim)
        return reject("resume requested co-simulation but the "
                      "artifact was captured without an oracle");

    // Apply the policy-only overrides (they never change structure,
    // so the artifact's state still fits the rebuilt machine).
    cfg.phases = opts.phases;
    cfg.obs = nullptr;
    cfg.cosim = opts.cosim;
    if (opts.roundRobinFetch)
        cfg.system.roundRobinFetch = *opts.roundRobinFetch;
    if (opts.affinitySched)
        cfg.system.affinitySched = *opts.affinitySched;
    if (opts.sharedTlbIpr)
        cfg.system.sharedTlbIpr = *opts.sharedTlbIpr;
    if (opts.fastForward)
        cfg.system.fastForward = *opts.fastForward;
    if (opts.dramClosedPage)
        cfg.system.dram.closedPage = *opts.dramClosedPage;

    // Rebuild from the artifact's own config (never the ambient
    // environment), then overlay the saved machine state.
    std::unique_ptr<Session> s(new Session(cfg, false, hadPlan));
    std::string why;
    if (!loadMachineSections(rs, *s->sys_, s->plan_, why))
        return reject(why);
    // Load the oracle last: it wholesale-replaces the sync noise the
    // machine restore just fed it (resyncThreads targets the fetch
    // point; the oracle must resume from the retire point).
    const std::uint32_t cosv = rs.enterSection("COSM");
    if (cosv != cosimSectionVersion)
        return reject("COSM section version " + std::to_string(cosv));
    if (s->cosim_) {
        const SnapImages images = collectImages(*s->sys_);
        s->cosim_->load(rs, images);
    } else {
        rs.skipRest();
    }
    rs.leaveSection();
    // Optional trailing tracer state (present only when the saving
    // session traced). Restored into the resuming session's tracer
    // when it has one, so in-flight spans complete across the
    // boundary; skipped (but still consumed) otherwise.
    if (!rs.atEnd() && rs.nextSectionIs("RQTR")) {
        const std::uint32_t rqv = rs.enterSection("RQTR");
        if (rqv != reqtraceSectionVersion)
            return reject("RQTR section version " +
                          std::to_string(rqv));
        if (opts.obs && opts.obs->reqtrace())
            opts.obs->reqtrace()->load(rs);
        else
            rs.skipRest();
        rs.leaveSection();
    }
    // Optional trailing overload state. The section carries its own
    // params (they are not part of the CFG bytes); the kernel is put
    // into the saved configuration first, then the mutable state is
    // overlaid so arrivals and shed clocks continue bit-identically.
    if (!rs.atEnd() && rs.nextSectionIs("OVLD")) {
        const std::uint32_t ov = rs.enterSection("OVLD");
        if (ov != overloadSectionVersion)
            return reject("OVLD section version " +
                          std::to_string(ov));
        OpenLoopParams ol;
        AdmitParams ap;
        overloadParamsIn(rs, ol, ap);
        s->cfg_.workload.openLoop = ol;
        s->cfg_.system.admit = ap;
        s->sys_->kernel().setOpenLoop(ol);
        s->sys_->kernel().setAdmission(ap);
        s->sys_->kernel().loadOverload(rs);
        rs.leaveSection();
    }
    // Overload overrides land after the artifact's own state: the
    // fig_overload_knee pattern resumes one closed-loop start-up
    // snapshot into many open-loop/admission operating points.
    if (opts.openLoop) {
        s->cfg_.workload.openLoop = *opts.openLoop;
        s->sys_->kernel().setOpenLoop(*opts.openLoop);
    }
    if (opts.admit) {
        s->cfg_.system.admit = *opts.admit;
        s->sys_->kernel().setAdmission(*opts.admit);
    }
    // Optional trailing fidelity state: restore the configured mode,
    // the live pipeline fidelity, and the functional counters so a
    // resumed run's metrics continue bit-identically.
    if (!rs.atEnd() && rs.nextSectionIs("FIDL")) {
        const std::uint32_t fv = rs.enterSection("FIDL");
        if (fv != fidelitySectionVersion)
            return reject("FIDL section version " +
                          std::to_string(fv));
        Fidelity cfgF = Fidelity::Detailed;
        SampleParams smp;
        fidelityParamsIn(rs, cfgF, smp);
        s->cfg_.fidelity = cfgF;
        s->cfg_.sample = smp;
        const Fidelity live = static_cast<Fidelity>(rs.u8());
        const std::uint64_t fi = rs.u64();
        const Cycle fc = rs.u64();
        const std::uint64_t sw = rs.u64();
        s->sys_->pipeline().restoreFidelity(live, fi, fc, sw);
        rs.leaveSection();
    }
    // Fidelity overrides land after the artifact's own state: resume
    // one detailed start-up snapshot into functional fast-forward or
    // sampled measurement (or force functional back to detailed).
    if (opts.fidelity) {
        s->cfg_.fidelity = *opts.fidelity;
        s->sys_->pipeline().setFidelity(*opts.fidelity);
    }
    if (opts.sample)
        s->cfg_.sample = *opts.sample;
    s->startupDone_ = true; // the artifact is past its start-up
    if (opts.obs)
        s->attachObs(*opts.obs);
    return s;
}

} // namespace smtos
