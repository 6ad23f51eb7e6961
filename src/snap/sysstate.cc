#include "snap/sysstate.h"

#include "sim/system.h"
#include "snap/snapshot.h"

namespace smtos {

SnapImages
collectImages(System &sys)
{
    SnapImages images;
    images.add(&sys.kernelCode().image);
    Kernel &k = sys.kernel();
    for (int pid = 0; pid < k.numProcs(); ++pid) {
        const Process &p = k.proc(pid);
        if (p.cfg.image)
            images.add(p.cfg.image);
    }
    return images;
}

void
saveMachineSections(Snapshotter &sp, System &sys, FaultPlan *plan)
{
    const SnapImages images = collectImages(sys);

    sp.beginSection("PHYS", PhysMem::snapVersion);
    sys.physMem().save(sp);
    sp.endSection();

    sp.beginSection("KERN", Kernel::snapVersion);
    sys.kernel().save(sp, images);
    sp.endSection();

    // One PIPE + HIER pair per core. Core 0's HIER also carries the
    // shared L2 complex, so a cores = 1 artifact keeps the historical
    // single-hierarchy layout byte for byte.
    for (int c = 0; c < sys.numCores(); ++c) {
        sp.beginSection("PIPE", Pipeline::snapVersion);
        sys.pipeline(c).save(sp, images);
        sp.endSection();

        sp.beginSection("HIER", Hierarchy::snapVersion);
        sys.hierarchy(c).save(sp, c == 0);
        sp.endSection();
    }
    if (sys.coherence()) {
        sp.beginSection("COH ", CoherenceHub::snapVersion);
        sys.coherence()->save(sp);
        sp.endSection();
    }

    sp.beginSection("FLTP", FaultPlan::snapVersion);
    sp.b(plan != nullptr);
    if (plan)
        plan->save(sp);
    sp.endSection();
}

bool
loadMachineSections(Restorer &rs, System &sys, FaultPlan *plan,
                    std::string &error)
{
    const SnapImages images = collectImages(sys);
    Kernel &k = sys.kernel();

    rs.enterSection("PHYS");
    sys.physMem().load(rs);
    rs.leaveSection();

    rs.enterSection("KERN");
    k.load(rs, images);
    rs.leaveSection();

    for (int c = 0; c < sys.numCores(); ++c) {
        rs.enterSection("PIPE");
        sys.pipeline(c).load(rs, images, [&k](ThreadId tid) {
            return &k.proc(tid).ts;
        });
        rs.leaveSection();

        rs.enterSection("HIER");
        sys.hierarchy(c).load(rs, c == 0);
        rs.leaveSection();
    }
    if (sys.coherence()) {
        rs.enterSection("COH ");
        sys.coherence()->load(rs);
        rs.leaveSection();
    }

    rs.enterSection("FLTP");
    const bool hadPlan = rs.b();
    if (hadPlan != (plan != nullptr)) {
        error = hadPlan ? "FLTP section carries a fault plan the "
                          "config section lacks"
                        : "FLTP section lacks the fault plan the "
                          "config section declares";
        return false;
    }
    if (plan)
        plan->load(rs);
    rs.leaveSection();

    for (int c = 0; c < sys.numCores(); ++c)
        sys.pipeline(c).resyncThreads();
    return true;
}

} // namespace smtos
