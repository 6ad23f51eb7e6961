/**
 * @file
 * Whole-machine snapshot orchestration.
 *
 * A snapshot artifact is a config section (owned by the harness — it
 * holds everything needed to deterministically rebuild the System,
 * workloads, and fault plan from scratch) followed by the machine
 * sections this module owns:
 *
 *   "PHYS"  physical memory allocator
 *   "KERN"  kernel: scheduler, processes + thread state + address
 *           spaces, sockets, devices, buffer cache, network + clients
 *   "PIPE"  pipeline: windows, rename state, predictor, TLBs, stats
 *   "HIER"  private memory side: L1s, L1 MSHRs, store buffer; core
 *           0's also carries the shared L2, L2 MSHRs, buses, DRAM
 *           (one PIPE + HIER pair per core, in core order)
 *   "COH "  coherence hub (multicore only)
 *   "FLTP"  fault plan RNG streams and log (flag + optional body)
 *
 * The kernel section loads before the pipeline section so thread-id
 * to ThreadState resolution finds restored processes. Restore ends
 * with Pipeline::resyncThreads() so an attached retire observer
 * (co-simulation) re-bases on the restored architectural state.
 */

#ifndef SMTOS_SNAP_SYSSTATE_H
#define SMTOS_SNAP_SYSSTATE_H

#include <string>

#include "snap/fwd.h"

namespace smtos {

class System;
class FaultPlan;

/**
 * Deterministic image registry of @p sys: the kernel image first,
 * then every distinct user image in pid order. Both the save and the
 * load side rebuild the identical registry from their own System.
 */
SnapImages collectImages(System &sys);

/** Append the machine sections (PHYS..FLTP) of @p sys to @p sp. */
void saveMachineSections(Snapshotter &sp, System &sys, FaultPlan *plan);

/**
 * Restore the machine sections over a freshly built-and-started @p sys
 * (workloads installed, same fault plan shape attached, start() run).
 * Returns false with @p error set when the artifact's fault-plan flag
 * contradicts the plan shape its config section declared.
 */
bool loadMachineSections(Restorer &rs, System &sys, FaultPlan *plan,
                         std::string &error);

} // namespace smtos

#endif // SMTOS_SNAP_SYSSTATE_H
