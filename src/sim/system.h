/**
 * @file
 * The full-system simulator facade: physical memory, the chip (one
 * shared L2 complex plus N identical cores, each an SMT pipeline over
 * its private L1 side), the kernel image, and the MiniOS model, wired
 * together. This is the role SimOS-Alpha plays in the paper.
 */

#ifndef SMTOS_SIM_SYSTEM_H
#define SMTOS_SIM_SYSTEM_H

#include <memory>
#include <vector>

#include "core/pipeline.h"
#include "kernel/kernel.h"
#include "mem/coherence.h"
#include "sim/config.h"

namespace smtos {

class Probes;

/** A complete simulated machine. */
class System
{
  public:
    explicit System(const MachineConfig &cfg);

    /**
     * Wire the observability hub into every producer: each core's
     * pipeline, TLBs and L1s, the shared L2 and memory controller,
     * and the kernel. Pass nullptr to detach (probe sites revert to
     * a single not-taken branch).
     */
    void attachProbes(Probes *p);

    /** Currently attached observability hub (null when detached). */
    Probes *probes() const { return probes_; }

    /**
     * Attach a fault plan (nullptr detaches). Must run before
     * start(); see Kernel::attachFaults.
     */
    void attachFaults(FaultPlan *plan) { kernel_->attachFaults(plan); }

    /** Bind initial threads; call after workloads are installed. */
    void start() { kernel_->start(); }

    /**
     * Run until @p n more instructions retire across the chip. Every
     * core steps in lockstep, one chip cycle at a time, and the clock
     * fast-forwards only when every core is quiescent (see
     * Pipeline::runInstrs).
     */
    void run(std::uint64_t n);

    /** Run for @p n cycles. */
    void runCycles(Cycle n);

    Pipeline &pipeline(int core = 0)
    {
        return cores_[static_cast<std::size_t>(core)]->pipe;
    }
    Kernel &kernel() { return *kernel_; }
    /** Core @p core's private memory side. */
    Hierarchy &hierarchy(int core = 0)
    {
        return cores_[static_cast<std::size_t>(core)]->hier;
    }
    /** The chip's one shared L2 complex. */
    L2Complex &l2Complex() { return l2_; }
    PhysMem &physMem() { return mem_; }
    const KernelCode &kernelCode() const { return *kc_; }
    const MachineConfig &config() const { return cfg_; }

    int numCores() const { return static_cast<int>(pipes_.size()); }
    const std::vector<Pipeline *> &pipes() { return pipes_; }
    /** The chip's snoop hub (null on a single-core machine). */
    CoherenceHub *coherence() { return hub_.get(); }

  private:
    /** One core: its private memory side and the pipeline over it. */
    struct Core
    {
        Core(const MachineConfig &cfg, L2Complex &l2,
             const CodeImage *kernel_image)
            : hier(cfg.mem, l2), pipe(cfg.core, hier, kernel_image)
        {
        }
        Hierarchy hier;
        Pipeline pipe;
    };

    MachineConfig cfg_;
    Probes *probes_ = nullptr;
    PhysMem mem_;
    std::unique_ptr<KernelCode> kc_;
    L2Complex l2_;
    std::unique_ptr<CoherenceHub> hub_;
    std::vector<std::unique_ptr<Core>> cores_;
    /** Every core's pipeline, in core order. */
    std::vector<Pipeline *> pipes_;
    /** Chip-wide uop sequence counter shared by every core's
     *  cosim-observation stream (matches Pipeline's initial seq). */
    std::uint64_t chipSeq_ = 1;
    std::unique_ptr<Kernel> kernel_;
};

} // namespace smtos

#endif // SMTOS_SIM_SYSTEM_H
