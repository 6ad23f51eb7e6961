#include "sim/system.h"

namespace smtos {

System::System(const MachineConfig &cfg)
    : cfg_(cfg),
      mem_(128ull * 1024 * 1024, reservedPhysBytes),
      kc_(buildKernelImage(cfg.kernel.seed ^ 0xfeedull)),
      l2_(cfg.mem)
{
    // One core has nothing to snoop: the hub exists only on a CMP.
    if (cfg.cores > 1)
        hub_ = std::make_unique<CoherenceHub>();
    for (int c = 0; c < cfg.cores; ++c) {
        cores_.push_back(std::make_unique<Core>(cfg, l2_, &kc_->image));
        Core &core = *cores_.back();
        if (hub_) {
            core.hier.setCoherence(hub_.get(), c);
            hub_->attach(&core.hier);
        }
        // Every core draws uop sequence numbers from one chip-wide
        // counter so cosim's per-thread ordering survives migration.
        core.pipe.setCoreId(c, c * cfg.core.numContexts);
        core.pipe.setSharedSeq(&chipSeq_);
        core.pipe.setAppOnlyTlb(cfg.kernel.appOnly);
        pipes_.push_back(&core.pipe);
    }
    kernel_ = std::make_unique<Kernel>(cfg.kernel, pipes_, mem_, *kc_);
}

void
System::attachProbes(Probes *p)
{
    probes_ = p;
    for (const auto &core : cores_) {
        core->pipe.setProbes(p);
        core->pipe.itlb().setProbes(p);
        core->pipe.dtlb().setProbes(p);
        core->hier.l1i().setProbes(p);
        core->hier.l1d().setProbes(p);
    }
    l2_.l2().setProbes(p);
    l2_.memctrl().setProbes(p);
    kernel_->setProbes(p);
}

void
System::run(std::uint64_t n)
{
    Pipeline::runInstrs(pipes_, n);
}

void
System::runCycles(Cycle n)
{
    Pipeline::runCycles(pipes_, n);
}

} // namespace smtos
