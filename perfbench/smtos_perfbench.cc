/**
 * @file
 * The smtos host-speed benchmark program.
 *
 * One invocation runs one workload, one simulation at a time on one
 * host thread, through the calls a simulator user makes: the Session
 * constructor, Session::runStartup, System::run in fixed-size steady
 * chunks (runSampledMeasurement one sampling period at a time on the
 * sampled workload), Session::snapshot / resume and
 * MetricsSnapshot::capture. Each workload run ("operation") builds a
 * fresh Session from the seed, so every operation of an invocation
 * simulates exactly the same instructions; sim_digest checks that.
 *
 * main() never installs EnvOverrides, so no SMTOS_* environment
 * variable can change a workload.
 *
 *   smtos_perfbench --workload NAME [--seed N] [--seconds S]
 *                   [--trace 0|1] [--out-dir DIR]
 *
 * The last line of standard output is one JSON object; perfbench/run.py
 * turns it into the benchmark's result line. With --trace 1 the
 * benchmark's own spans are written to DIR/spans-<workload>-<seed>.jsonl.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/sample.h"
#include "harness/session.h"
#include "obs/profiler.h"
#include "obs/session.h"
#include "sim/export.h"
#include "sim/metrics.h"
#include "sim/system.h"

using namespace smtos;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point processStart = Clock::now();

double
nowS()
{
    return std::chrono::duration<double>(Clock::now() - processStart)
        .count();
}

/**
 * The benchmark's own spans, kept in memory and written at exit. A
 * span's parent is the innermost span open when it began.
 */
class SpanLog
{
  public:
    struct Span
    {
        int id;
        int parent;
        std::string name;
        double start;
        double end;
    };

    /** Opens a span for its lifetime (nothing when tracing is off). */
    class Scope
    {
      public:
        Scope(SpanLog &log, const std::string &name) : log_(log)
        {
            if (!log_.on)
                return;
            id_ = static_cast<int>(log_.spans_.size());
            log_.spans_.push_back(
                {id_, log_.stack_.empty() ? -1 : log_.stack_.back(), name,
                 nowS(), 0.0});
            log_.stack_.push_back(id_);
        }
        ~Scope()
        {
            if (id_ < 0)
                return;
            log_.spans_[static_cast<std::size_t>(id_)].end = nowS();
            log_.stack_.pop_back();
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log_;
        int id_ = -1;
    };

    bool on = false;

    /** Self time per span name: duration minus direct children. */
    std::map<std::string, double>
    selfTimes() const
    {
        std::vector<double> self(spans_.size());
        for (const Span &s : spans_)
            self[static_cast<std::size_t>(s.id)] = s.end - s.start;
        for (const Span &s : spans_)
            if (s.parent >= 0)
                self[static_cast<std::size_t>(s.parent)] -=
                    s.end - s.start;
        std::map<std::string, double> out;
        for (const Span &s : spans_)
            out[s.name] += self[static_cast<std::size_t>(s.id)];
        return out;
    }

    void
    write(const std::string &path) const
    {
        std::ofstream os(path);
        char buf[64];
        for (const Span &s : spans_) {
            os << "{\"id\":" << s.id << ",\"parent\":" << s.parent
               << ",\"name\":\"" << s.name << "\"";
            std::snprintf(buf, sizeof buf, ",\"start\":%.9f", s.start);
            os << buf;
            std::snprintf(buf, sizeof buf, ",\"end\":%.9f}\n", s.end);
            os << buf;
        }
    }

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

SpanLog spans;

/** Time @p fn; record it as span @p name when tracing. */
double
timed(const std::string &name, const std::function<void()> &fn)
{
    SpanLog::Scope span(spans, name);
    const double t0 = nowS();
    fn();
    return nowS() - t0;
}

/** One benchmark workload: a machine, its load and its window. */
struct Workload
{
    std::string name;
    Session::Config cfg;
    /** Steady window: chunks x chunkInstrs retired instructions. */
    int chunks = 0;
    std::uint64_t chunkInstrs = 0;
    bool sampled = false;
    bool apache = false;

    std::uint64_t window() const
    {
        return static_cast<std::uint64_t>(chunks) * chunkInstrs;
    }
};

/** Hardware contexts on each core (0 in the topology keeps the SMT
 *  preset's). */
int
contextsPerCore(const SystemConfig &sc)
{
    return sc.topology.contextsPerCore ? sc.topology.contextsPerCore
                                       : CoreParams{}.numContexts;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload &w)
{
    Session::Config c;
    c.workload.seed = seed;
    w.name = name;
    if (name == "specint-sampled") {
        // Start-up runs until every app finished its input reads.
        c.workload.kind = WorkloadConfig::Kind::SpecInt;
        c.workload.spec.inputChunks = 48;
        c.phases.startupInstrs = 0;
        // One sampling period per chunk: runSampledMeasurement
        // restarts its period at every call, so whole-period chunks
        // simulate exactly what one call over the whole window does.
        c.sample.enabled = true;
        w.sampled = true;
        w.chunks = 100;
        w.chunkInstrs = c.sample.periodInstrs;
    } else if (name == "apache-cmp4") {
        c.workload.kind = WorkloadConfig::Kind::Apache;
        c.phases.startupInstrs = 2'000'000;
        c.system.topology.cores = 4;
        c.system.topology.contextsPerCore = 4;
        w.apache = true;
        w.chunks = 200;
        w.chunkInstrs = 16'000;
    } else {
        return false;
    }
    c.phases.measureInstrs = static_cast<std::uint64_t>(w.chunks) *
                             w.chunkInstrs;
    w.cfg = c;
    return true;
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char ch : s) {
        h ^= ch;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
digestOf(const MetricsSnapshot &d)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(fnv1a(toJson(d))));
    return buf;
}

std::uint64_t
chipRetired(System &sys)
{
    std::uint64_t n = 0;
    for (Pipeline *p : sys.pipes())
        n += p->stats().totalRetired();
    return n;
}

/** What one steady window did. */
struct Steady
{
    double hostS = 0;           ///< host time of the whole window
    std::vector<double> chunkMs;
    /** CPI of each measured interval: each SMARTS interval when
     *  sampled, else each chunk. */
    std::vector<double> chunkCpi;
    MetricsSnapshot delta;
    std::string digest;
    std::uint64_t detailedInstrs = 0; ///< sampled runs only
};

/**
 * Run the workload's steady window on @p s in its chunks. @p mode
 * picks the fidelity: the workload's own (sampled or detailed), or a
 * forced detailed/functional replay.
 */
enum class Fid { Own, Detailed, Functional };

Steady
runSteady(Session &s, const Workload &w, Fid mode)
{
    Steady st;
    System &sys = s.system();
    const bool sampled = w.sampled && mode == Fid::Own;
    if (mode == Fid::Functional)
        sys.pipeline().setFidelity(Fidelity::Functional);
    MetricsSnapshot before;
    timed("capture", [&] { before = s.capture(); });
    SampleReport rep;
    const auto chunk = [&] {
        if (sampled)
            rep = runSampledMeasurement(sys, w.cfg.sample, w.chunkInstrs);
        else
            sys.run(w.chunkInstrs);
    };
    st.hostS = timed("steady", [&] {
        for (int k = 0; k < w.chunks; ++k) {
            const Cycle c0 = sys.pipeline().now();
            const std::uint64_t r0 = chipRetired(sys);
            st.chunkMs.push_back(
                1e3 * timed(sampled ? "sample.run" : "system.run", chunk));
            if (sampled) {
                st.detailedInstrs += rep.detailedInstrs;
                st.chunkCpi.insert(st.chunkCpi.end(),
                                   rep.intervalCpi.begin(),
                                   rep.intervalCpi.end());
            } else {
                st.chunkCpi.push_back(
                    static_cast<double>(sys.pipeline().now() - c0) /
                    static_cast<double>(chipRetired(sys) - r0));
            }
        }
    });
    MetricsSnapshot after;
    timed("capture", [&] { after = s.capture(); });
    st.delta = after.delta(before);
    st.digest = digestOf(st.delta);
    return st;
}

/** 95% half-width of the mean of @p xs, as a percentage of the mean. */
double
ciHalfWidthPct(const std::vector<double> &xs)
{
    const std::size_t n = xs.size();
    if (n < 2)
        return NAN;
    double sum = 0;
    for (double x : xs)
        sum += x;
    const double mean = sum / static_cast<double>(n);
    double ss = 0;
    for (double x : xs)
        ss += (x - mean) * (x - mean);
    const double sd = std::sqrt(ss / static_cast<double>(n - 1));
    return 100.0 * confidenceZ(0.95) * sd /
           std::sqrt(static_cast<double>(n)) / mean;
}

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return NAN;
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double
median(const std::vector<double> &xs)
{
    return quantile(xs, 0.5);
}

/** One workload run: build, start up, steady window. */
struct WorkRun
{
    double buildS = 0;
    double startupS = 0;
    std::uint64_t startupInstrs = 0;
    Steady steady;
    std::vector<std::string> errors;

    double setupS() const { return buildS + startupS; }
};

double
mipsOf(const Steady &st)
{
    return static_cast<double>(st.delta.core.totalRetired()) / st.hostS /
           1e6;
}

/** The correctness check every workload run must pass. */
void
check(const Workload &w, WorkRun &op)
{
    const MetricsSnapshot &d = op.steady.delta;
    if (d.core.totalRetired() < w.window())
        op.errors.push_back("retired fewer instructions than requested");
    if (d.core.cycles == 0)
        op.errors.push_back("steady window ran no cycles");
    if (w.apache && d.requestsServed == 0)
        op.errors.push_back("no requests served");
    if (w.sampled &&
        (op.steady.chunkCpi.empty() ||
         !std::isfinite(ciHalfWidthPct(op.steady.chunkCpi))))
        op.errors.push_back("no finite sampled CPI interval");
}

/**
 * Build, start up and run the steady window. With @p artifact, also
 * snapshot at the end of start-up, for the traced run's replays.
 */
WorkRun
runWork(const Workload &w, std::vector<std::uint8_t> *artifact,
        double *snapshotS)
{
    WorkRun op;
    SpanLog::Scope span(spans, "op");
    try {
        std::unique_ptr<Session> s;
        op.buildS = timed("session.build", [&] {
            s = std::make_unique<Session>(w.cfg);
        });
        const std::uint64_t r0 = chipRetired(s->system());
        op.startupS = timed("session.startup", [&] { s->runStartup(); });
        op.startupInstrs = chipRetired(s->system()) - r0;
        if (artifact)
            *snapshotS = timed("session.snapshot",
                               [&] { *artifact = s->snapshot(); });
        op.steady = runSteady(*s, w, Fid::Own);
        check(w, op);
    } catch (const std::exception &e) {
        op.errors.push_back(std::string("exception: ") + e.what());
    }
    return op;
}

/** Replay the steady window from @p artifact under @p parent. */
struct Replay
{
    double resumeS = 0;
    Steady steady;
    bool ok = false;
};

Replay
replay(const std::string &parent, const Workload &w,
       const std::vector<std::uint8_t> &artifact, Fid mode,
       ObsSession *obs)
{
    Replay r;
    SpanLog::Scope span(spans, parent);
    Session::ResumeOptions ro;
    ro.phases = w.cfg.phases;
    ro.obs = obs;
    std::unique_ptr<Session> s;
    std::string err;
    r.resumeS = timed("session.resume", [&] {
        s = Session::resume(artifact, ro, &err);
    });
    if (s) {
        r.steady = runSteady(*s, w, mode);
        r.ok = true;
    } else {
        std::fprintf(stderr, "perfbench: resume failed: %s\n",
                     err.c_str());
    }
    return r;
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Ordered metric map printed as {"name": {"value": v, "unit": u}}. */
class Metrics
{
  public:
    void
    set(const std::string &name, double v, const std::string &unit)
    {
        order_.push_back(name);
        vals_[name] = {v, unit};
    }

    std::string
    json() const
    {
        std::ostringstream os;
        os << "{";
        bool first = true;
        char buf[64];
        for (const std::string &n : order_) {
            const auto &[v, u] = vals_.at(n);
            if (std::isfinite(v))
                std::snprintf(buf, sizeof buf, "%.9g", v);
            else
                std::snprintf(buf, sizeof buf, "null");
            os << (first ? "" : ", ") << "\"" << n
               << "\": {\"value\": " << buf << ", \"unit\": \"" << u
               << "\"}";
            first = false;
        }
        os << "}";
        return os.str();
    }

  private:
    std::vector<std::string> order_;
    std::map<std::string, std::pair<double, std::string>> vals_;
};

double
pctOf(double num, double den)
{
    return den > 0 ? 100.0 * num / den : 0.0;
}

double
perK(double num, double instrs)
{
    return instrs > 0 ? 1000.0 * num / instrs : 0.0;
}

/** Simulated-behaviour layer metrics of one steady delta. */
void
simMetrics(Metrics &m, const Workload &w, const MetricsSnapshot &d,
           const CycleProfiler *prof)
{
    const ArchMetrics a = archMetrics(d);
    const double instrs = static_cast<double>(d.core.totalRetired());
    const double cycles = static_cast<double>(d.core.cycles);
    m.set("core.ipc", a.ipc, "instr/cycle");
    m.set("core.squashed_pct", a.squashedPct, "%");
    m.set("core.fetchable_ctx", a.fetchableContexts, "contexts");
    const auto slots = [&](std::uint64_t used, std::uint64_t total) {
        return pctOf(static_cast<double>(used), static_cast<double>(total));
    };
    m.set("core.fetch_used_pct",
          slots(prof->fetchSlotsUsed(), prof->fetchSlotsTotal()), "%");
    m.set("core.issue_used_pct",
          slots(prof->issueSlotsUsed(), prof->issueSlotsTotal()), "%");
    const char *lossNames[] = {"fu_busy", "mem_stall", "dep_wait",
                               "front_end"};
    for (int c = 0; c < numIssueLosses; ++c)
        m.set(std::string("core.issue_lost.") + lossNames[c] + "_pct",
              slots(prof->issueSlotsLost(static_cast<IssueLoss>(c)),
                    prof->issueSlotsTotal()),
              "%");
    m.set("bp.cond_mispred_pct", a.branchMispredPct, "%");
    m.set("bp.btb_miss_pct", a.btbMissPct, "%");
    m.set("mem.l1i_miss_pct", a.l1iMissPct, "%");
    m.set("mem.l1d_miss_pct", a.l1dMissPct, "%");
    m.set("mem.l2_miss_pct", a.l2MissPct, "%");
    m.set("mem.coh_snoops_per_kinstr",
          perK(static_cast<double>(d.smp.coherence.snoopProbes), instrs),
          "1/kinstr");
    m.set("mem.coh_invalidations_per_kinstr",
          perK(static_cast<double>(d.smp.coherence.invalidations),
               instrs),
          "1/kinstr");
    m.set("vm.itlb_miss_pct", a.itlbMissPct, "%");
    m.set("vm.dtlb_miss_pct", a.dtlbMissPct, "%");
    const ModeShares ms = modeShares(d);
    m.set("kernel.kernel_pct", ms.kernelPct, "%");
    m.set("kernel.pal_pct", ms.palPct, "%");
    double syscalls = 0;
    for (const auto &[name, n] : d.syscalls)
        syscalls += static_cast<double>(n);
    m.set("kernel.syscalls_per_kinstr", perK(syscalls, instrs),
          "1/kinstr");
    m.set("kernel.ctx_switches_per_kinstr",
          perK(static_cast<double>(d.contextSwitches), instrs),
          "1/kinstr");
    const double spin = static_cast<double>(d.smp.connLock.spinCycles +
                                            d.smp.mbufLock.spinCycles +
                                            d.smp.schedLock.spinCycles);
    // Each spinning context adds its own wait: a share of
    // context-cycles.
    const double contexts =
        w.cfg.system.topology.cores * contextsPerCore(w.cfg.system);
    m.set("kernel.lock_spin_pct", pctOf(spin, cycles * contexts), "%");
    m.set("net.req_per_mcycle",
          cycles > 0 ? 1e6 * static_cast<double>(d.requestsServed) /
                           cycles
                     : 0.0,
          "1/Mcycle");
}

std::string
jsonEscape(const std::string &in)
{
    std::string out;
    for (char c : in) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c == '\n' ? ' ' : c;
    }
    return out;
}

/**
 * The traced run: one untraced warm run (the baseline of
 * trace.overhead_pct), one traced run that also snapshots at the end
 * of start-up, then differential replays of the same window from that
 * one snapshot, each under its own parent span.
 */
void
tracedRun(const Workload &w, std::uint64_t seed, const std::string &outDir,
          std::vector<WorkRun> &ops, Metrics &m,
          std::map<std::string, double> &selfS)
{
    ops.push_back(runWork(w, nullptr, nullptr));
    spans.on = true;
    std::vector<std::uint8_t> artifact;
    double snapshotS = 0;
    ops.push_back(runWork(w, &artifact, &snapshotS));
    WorkRun &op = ops.back();
    if (artifact.empty())
        return;
    const std::string tag = w.name + "-" + std::to_string(seed);
    const bool cmp = w.cfg.system.topology.cores > 1;
    auto need = [&](const Replay &r, const char *what) {
        if (!r.ok)
            op.errors.push_back(std::string(what) + " replay failed");
    };

    // The detailed reference of the window: the traced run itself, or
    // a detailed replay on the sampled workload.
    Steady detailed = op.steady;
    if (w.sampled) {
        const Replay r = replay("replay.detailed", w, artifact,
                                Fid::Detailed, nullptr);
        need(r, "detailed");
        detailed = r.steady;
    }
    std::vector<double> resumes;
    Replay func;
    if (!cmp) { // the functional engine models one core
        func = replay("replay.functional", w, artifact, Fid::Functional,
                      nullptr);
        need(func, "functional");
        resumes.push_back(func.resumeS);
    }
    ObsConfig oc;
    oc.profile = true;
    oc.reportPath = outDir + "/profile-" + tag + ".txt";
    ObsSession obs(oc);
    const Replay prof =
        replay("replay.profiled", w, artifact, Fid::Detailed, &obs);
    need(prof, "profiled");
    resumes.push_back(prof.resumeS);
    if (prof.ok && prof.steady.digest != detailed.digest)
        op.errors.push_back("profiled replay changed the simulated window");
    selfS = spans.selfTimes();
    spans.write(outDir + "/spans-" + tag + ".jsonl");

    const double startupS = selfS["session.startup"];
    m.set("harness.build_s", selfS["session.build"], "s");
    m.set("harness.startup_s", startupS, "s");
    m.set("harness.startup_mips",
          static_cast<double>(op.startupInstrs) / startupS / 1e6, "MIPS");
    m.set("core.host_ns_per_cycle",
          1e9 * op.steady.hostS /
              static_cast<double>(op.steady.delta.core.cycles),
          "ns");
    m.set("core.timing_share_pct",
          cmp ? 0.0
              : pctOf(detailed.hostS - func.steady.hostS, detailed.hostS),
          "%");
    m.set("core.func_mips", cmp ? 0.0 : mipsOf(func.steady), "MIPS");
    const MetricsSnapshot &d = detailed.delta;
    simMetrics(m, w, d, obs.profiler());
    m.set("obs.profiler_overhead_pct",
          pctOf(prof.steady.hostS - detailed.hostS, detailed.hostS), "%");
    m.set("snap.snapshot_s", snapshotS, "s");
    m.set("snap.resume_s", median(resumes), "s");
    m.set("snap.artifact_mb",
          static_cast<double>(artifact.size()) / (1024.0 * 1024.0), "MB");

    const Steady &own = op.steady;
    double sampledCpi = 0;
    for (double c : own.chunkCpi)
        sampledCpi += c;
    sampledCpi /= static_cast<double>(own.chunkCpi.size());
    const double detailedCpi = static_cast<double>(d.core.cycles) /
                               static_cast<double>(d.core.totalRetired());
    m.set("sample.intervals",
          w.sampled ? static_cast<double>(own.chunkCpi.size()) : 0.0,
          "count");
    m.set("sample.detailed_instr_pct",
          w.sampled ? pctOf(static_cast<double>(own.detailedInstrs),
                            static_cast<double>(
                                own.delta.core.totalRetired()))
                    : 100.0,
          "%");
    m.set("sample.cpi_ci_halfwidth_pct", ciHalfWidthPct(own.chunkCpi),
          "%");
    m.set("sample.cpi_err_pct",
          w.sampled ? pctOf(std::fabs(sampledCpi - detailedCpi),
                            detailedCpi)
                    : 0.0,
          "%");
    const double untraced = mipsOf(ops.front().steady);
    m.set("trace.overhead_pct", pctOf(untraced - mipsOf(own), untraced),
          "%");
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: smtos_perfbench --workload "
                 "apache-cmp4|specint-sampled\n"
                 "       [--seed N] [--seconds S] [--trace 0|1] "
                 "[--out-dir DIR]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name;
    std::uint64_t seed = 99;
    double seconds = 10;
    int trace = 0;
    std::string outDir = ".";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage();
        const std::string v = argv[++i];
        if (a == "--workload")
            name = v;
        else if (a == "--seed")
            seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            seconds = std::strtod(v.c_str(), nullptr);
        else if (a == "--trace")
            trace = std::atoi(v.c_str());
        else if (a == "--out-dir")
            outDir = v;
        else
            return usage();
    }
    Workload w;
    if (!makeWorkload(name, seed, w) || seconds <= 0 ||
        (trace != 0 && trace != 1))
        return usage();

    std::vector<WorkRun> ops;
    Metrics m;
    std::map<std::string, double> selfS;
    if (trace == 1) {
        tracedRun(w, seed, outDir, ops, m, selfS);
    } else {
        // Closed loop on the host: the next workload run starts when
        // the previous one finished, and only if it can end within
        // --seconds, judged by the slowest run so far. At least three,
        // so that setup_s and steady_mips are medians.
        const double t0 = nowS();
        double longest = 0;
        while (ops.size() < 3 ||
               (nowS() - t0 + longest <= seconds && ops.size() < 100)) {
            const double t = nowS();
            ops.push_back(runWork(w, nullptr, nullptr));
            longest = std::max(longest, nowS() - t);
        }
    }

    // sim_digest: every run of the invocation must have simulated the
    // same steady window.
    const std::string digest = ops.front().steady.digest;
    int failed = 0;
    std::vector<double> setup;
    for (WorkRun &op : ops) {
        if (op.steady.digest != digest)
            op.errors.push_back("sim_digest " + op.steady.digest +
                                " differs from " + digest);
        failed += op.errors.empty() ? 0 : 1;
        setup.push_back(op.setupS());
    }
    if (trace == 0) {
        // Every run simulated the same chunks, so each chunk's host
        // time is its median over the runs: host interference that
        // hits one run is outvoted by the others.
        std::vector<double> chunkMs;
        for (std::size_t k = 0; k < static_cast<std::size_t>(w.chunks);
             ++k) {
            std::vector<double> xs;
            for (const WorkRun &op : ops)
                if (op.errors.empty())
                    xs.push_back(op.steady.chunkMs[k]);
            chunkMs.push_back(median(xs));
        }
        double steadyMs = 0;
        for (double t : chunkMs)
            steadyMs += t;
        const double instrs =
            static_cast<double>(ops.front().steady.delta.core.totalRetired());
        m.set("setup_s", median(setup), "s");
        m.set("steady_mips", instrs / steadyMs / 1e3, "MIPS");
        m.set("chunk_ms_p50", quantile(chunkMs, 0.5), "ms");
        m.set("chunk_ms_p90", quantile(chunkMs, 0.9), "ms");
        m.set("peak_rss_mb", peakRssMb(), "MB");
    }

    std::ostringstream os;
    const SystemConfig &sc = w.cfg.system;
    os << "{\"workload\": \"" << w.name << "\", \"seed\": " << seed
       << ", \"trace\": " << trace << ", \"attempted\": " << ops.size()
       << ", \"failed\": " << failed << ", \"sim_digest\": \"" << digest
       << "\", \"chunks\": " << w.chunks << ", \"config\": {"
       << "\"cores\": " << sc.topology.cores << ", \"contexts_per_core\": "
       << contextsPerCore(sc)
       << ", \"startup_instrs\": " << w.cfg.phases.startupInstrs
       << ", \"window_instrs\": " << w.window()
       << ", \"chunk_instrs\": " << w.chunkInstrs
       << ", \"sampled\": " << (w.sampled ? "true" : "false")
       << "}, \"runs\": [";
    char buf[160];
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const WorkRun &op = ops[i];
        std::snprintf(buf, sizeof buf,
                      "%s{\"build_s\": %.6f, \"startup_s\": %.6f, "
                      "\"steady_s\": %.6f, \"sim_digest\": \"",
                      i ? ", " : "", op.buildS, op.startupS,
                      op.steady.hostS);
        os << buf << op.steady.digest << "\", \"errors\": [";
        for (std::size_t k = 0; k < op.errors.size(); ++k)
            os << (k ? ", " : "") << "\"" << jsonEscape(op.errors[k])
               << "\"";
        os << "]}";
    }
    os << "], \"self_s\": {";
    for (auto it = selfS.begin(); it != selfS.end(); ++it) {
        std::snprintf(buf, sizeof buf, "%s\"%s\": %.6f",
                      it == selfS.begin() ? "" : ", ", it->first.c_str(),
                      it->second);
        os << buf;
    }
    os << "}, \"metrics\": " << m.json() << "}";
    std::printf("%s\n", os.str().c_str());
    return 0;
}
