/**
 * @file
 * Deeper pipeline scenarios: issue-width enforcement, serializing
 * ordering, interrupt interleaving with kernel code, target
 * mispredictions, filter modes, fetch policies, multi-context
 * fairness, and the corner cases of event-driven wakeup and select.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/pipeline.h"
#include "isa/codegen.h"
#include "kernel/layout.h"
#include "snap/snapshot.h"
#include "vm/physmem.h"

using namespace smtos;

namespace {

class RecorderOs : public OsCallbacks
{
  public:
    RecorderOs(Tlb &itlb, Tlb &dtlb) : itlb_(itlb), dtlb_(dtlb) {}

    void
    dtlbMiss(ThreadState &t, Addr vaddr) override
    {
        AccessInfo who{t.id, Mode::Pal, 0};
        dtlb_.insert(pageOf(vaddr), t.space->asn(), pageOf(vaddr),
                     who);
        ++dtlbMisses;
    }

    void
    itlbMiss(ThreadState &t, Addr pc) override
    {
        AccessInfo who{t.id, Mode::Pal, 0};
        itlb_.insert(pageOf(pc), t.space->asn(), pageOf(pc), who);
    }

    void
    serializing(Context &, ThreadState &t, const Instr &in) override
    {
        order.push_back(in.op == Op::Syscall ? int(in.payload) : -1);
        t.cursor.setStuck(false);
        if (in.op == Op::Halt)
            t.cursor.setStuck(true);
        else
            t.cursor.stepSequential(images);
    }

    void
    interrupt(Context &, ThreadState &, std::uint16_t v) override
    {
        interrupts.push_back(v);
    }

    void cycleHook(Cycle) override {}

    Cycle nextEventAt() const override { return nextEvent; }

    Addr
    magicTranslate(ThreadState &, Addr vaddr, bool) override
    {
        return vaddr;
    }

    ImageSet images;
    Tlb &itlb_;
    Tlb &dtlb_;
    std::vector<int> order;
    std::vector<int> interrupts;
    int dtlbMisses = 0;
    /** 0 ("every cycle") keeps quiescence fast-forward off. */
    Cycle nextEvent = 0;
};

/** A register-to-register instruction. */
Instr
regOp(Op op, int dest, int src)
{
    Instr in;
    in.op = op;
    in.dest = static_cast<std::uint8_t>(dest);
    in.srcA = static_cast<std::uint8_t>(src);
    return in;
}

/** A load into @p dest whose address needs no register. */
Instr
loadOp(CodeGen &g, int dest, MemPattern p, int region,
       std::uint32_t stride, bool physical)
{
    Instr in = g.makeLoad(p, region, 0, stride, physical);
    in.srcA = regNone;
    in.dest = static_cast<std::uint8_t>(dest);
    return in;
}

class Pipeline2 : public testing::Test
{
  protected:
    Pipeline2()
        : user(std::make_unique<CodeImage>("u", userTextBase)),
          kernel(std::make_unique<CodeImage>("k", kernelBase)),
          gu(*user, CodeProfile{}, 3), gk(*kernel, CodeProfile{}, 4)
    {
    }

    void
    wire(CoreParams cp = CoreParams{}, HierarchyParams hp = {})
    {
        if (!kernel->finalized())
            kernel->finalize();
        l2 = std::make_unique<L2Complex>(hp);
        hier = std::make_unique<Hierarchy>(hp, *l2);
        pipe = std::make_unique<Pipeline>(cp, *hier, kernel.get());
        os = std::make_unique<RecorderOs>(pipe->itlb(), pipe->dtlb());
        os->images = ImageSet{user.get(), kernel.get()};
        pipe->setOs(os.get());
        mem = std::make_unique<PhysMem>();
        space = std::make_unique<AddrSpace>(1, *mem);
        space->setAsn(1);
        for (Addr vpn = pageOf(userTextBase);
             vpn < pageOf(userTextBase) + 256; ++vpn)
            space->mapShared(vpn, vpn);
    }

    ThreadState &
    makeThread(int entry, ThreadId id = 0)
    {
        auto t = std::make_unique<ThreadState>();
        t->id = id;
        t->space = space.get();
        t->userImage = user.get();
        t->cursor.reset(entry, false, 11 + id);
        t->regions[0] = MemRegion{0x20000000, 1 << 16};
        t->regions[1] = MemRegion{0x30000000, 1 << 16};
        t->regions[2] = MemRegion{0x70000000, 1 << 16};
        threads.push_back(std::move(t));
        return *threads.back();
    }

    /** Tick @p n cycles, auditing the pipeline after every one. */
    void
    stepAudited(int n)
    {
        for (int i = 0; i < n; ++i) {
            pipe->cycle();
            const std::string audit = pipe->auditInvariants();
            ASSERT_EQ(audit, "") << "after cycle " << pipe->now();
        }
    }

    /**
     * Run a thread on context 0 from @p entry until it halts, so the
     * code, its translations and its data lines are warm for the next
     * thread that runs the same function.
     */
    void
    warmUp(int entry)
    {
        pipe->bindThread(0, &makeThread(entry, 0));
        for (int i = 0; i < 5000 && os->order.empty(); ++i)
            pipe->cycle();
        ASSERT_FALSE(os->order.empty()) << "warm-up thread never halted";
        stepAudited(20);
    }

    std::vector<std::uint8_t>
    pipelineBytes()
    {
        Snapshotter sp;
        sp.beginSection("PIPE", Pipeline::snapVersion);
        pipe->save(sp, images());
        sp.endSection();
        return sp.finish();
    }

    /** Restore the pipeline from its own snapshot, which rebuilds the
     *  derived wakeup state from the windows. */
    void
    selfRestore()
    {
        Restorer rs(pipelineBytes());
        ASSERT_TRUE(rs.ok()) << rs.error();
        rs.enterSection("PIPE");
        pipe->load(rs, images(), [this](ThreadId id) {
            for (auto it = threads.rbegin(); it != threads.rend(); ++it)
                if ((*it)->id == id)
                    return it->get();
            return static_cast<ThreadState *>(nullptr);
        });
        rs.leaveSection();
    }

    SnapImages
    images() const
    {
        SnapImages im;
        im.add(kernel.get());
        im.add(user.get());
        return im;
    }

    std::unique_ptr<CodeImage> user, kernel;
    CodeGen gu, gk;
    std::unique_ptr<L2Complex> l2;
    std::unique_ptr<Hierarchy> hier;
    std::unique_ptr<Pipeline> pipe;
    std::unique_ptr<RecorderOs> os;
    std::unique_ptr<PhysMem> mem;
    std::unique_ptr<AddrSpace> space;
    std::vector<std::unique_ptr<ThreadState>> threads;
};

} // namespace

TEST_F(Pipeline2, SyscallsCommitInProgramOrder)
{
    user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(gu.makeSyscall(1));
    user->emit(gu.makeAlu());
    user->emit(gu.makeSyscall(2));
    user->emit(gu.makeAlu());
    user->emit(gu.makeSyscall(3));
    user->emit(gu.makeJump(0));
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(0));
    Pipeline::runInstrs({pipe.get()}, 200);
    ASSERT_GE(os->order.size(), 6u);
    for (size_t i = 0; i + 2 < 6; i += 3) {
        EXPECT_EQ(os->order[i], 1);
        EXPECT_EQ(os->order[i + 1], 2);
        EXPECT_EQ(os->order[i + 2], 3);
    }
}

TEST_F(Pipeline2, IssueNeverExceedsIntUnits)
{
    // 12 independent ALUs per block: issue is capped by the 6 int
    // units, so IPC can approach but never exceed 6.
    user->beginFunction("main", -1);
    user->beginBlock();
    for (int i = 0; i < 24; ++i) {
        Instr in;
        in.op = Op::IntAlu;
        in.srcA = static_cast<std::uint8_t>(i % 8);
        in.dest = static_cast<std::uint8_t>(8 + (i % 16));
        user->emit(in);
    }
    user->emit(gu.makeJump(0));
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(0, 0));
    pipe->bindThread(1, &makeThread(0, 1));
    Pipeline::runInstrs({pipe.get()}, 30000);
    EXPECT_LE(pipe->stats().ipc(), 6.05);
    EXPECT_GT(pipe->stats().ipc(), 3.0);
}

TEST_F(Pipeline2, EightContextsSaturateIssue)
{
    const int f = gu.genFunction("main", 6, {}, -1, true);
    user->finalize();
    CoreParams cp;
    cp.numContexts = 8;
    wire(cp);
    for (int c = 0; c < 8; ++c)
        pipe->bindThread(c, &makeThread(f, c));
    Pipeline::runInstrs({pipe.get()}, 40000);
    EXPECT_GT(pipe->stats().ipc(), 1.2);
    EXPECT_GT(pipe->stats().maxIssueCycles, 0u);
}

TEST_F(Pipeline2, ReturnsPredictedByRas)
{
    // Tight call/return chains: the per-context RAS should make
    // return-target mispredictions rare.
    const int leaf = gu.genFunction("leaf", 2, {});
    user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(gu.makeAlu());
    user->emit(gu.makeCall(leaf));
    user->beginBlock();
    user->emit(gu.makeAlu());
    user->emit(gu.makeCall(leaf));
    user->beginBlock();
    user->emit(gu.makeJump(0));
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(1));
    Pipeline::runInstrs({pipe.get()}, 20000);
    const auto &s = pipe->stats();
    EXPECT_LT(static_cast<double>(s.targetMispred[0]),
              0.02 * static_cast<double>(s.totalRetired()));
}

TEST_F(Pipeline2, IndirectJumpsMissTargetsSometimes)
{
    user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(gu.makeAlu());
    Instr ij;
    ij.op = Op::IndirectJump;
    ij.srcA = 1;
    ij.targetBlock = 1;
    ij.indirectFan = 4;
    user->emit(ij);
    for (int b = 0; b < 4; ++b) {
        user->beginBlock();
        user->emit(gu.makeAlu());
        user->emit(gu.makeJump(0));
    }
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(0));
    Pipeline::runInstrs({pipe.get()}, 20000);
    EXPECT_GT(pipe->stats().targetMispred[0], 50u);
    EXPECT_GT(pipe->btb().wrongTargetHits(), 10u);
}

TEST_F(Pipeline2, InterruptDuringKernelFramesNests)
{
    // Thread running a kernel loop receives an interrupt; the
    // handler is whatever the OS pushes — here the recorder just
    // notes delivery, which must still happen while in kernel mode.
    const int kf = gk.genFunction("kloop", 4, {}, 7, true);
    user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(gu.makeReturn());
    user->finalize();
    wire();
    ThreadState &t = makeThread(0);
    t.cursor.reset(kf, true, 5); // start in kernel code
    t.userImage = user.get();
    pipe->bindThread(0, &t);
    Pipeline::runInstrs({pipe.get()}, 500);
    pipe->raiseInterrupt(0, 9);
    Pipeline::runInstrs({pipe.get()}, 500);
    ASSERT_EQ(os->interrupts.size(), 1u);
    EXPECT_EQ(os->interrupts[0], 9);
}

TEST_F(Pipeline2, KernelTagAttributionFollowsFunctions)
{
    const int kf = gk.genFunction("tagged", 5, {}, 13, true);
    user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(gu.makeReturn());
    user->finalize();
    wire();
    ThreadState &t = makeThread(0);
    t.cursor.reset(kf, true, 5);
    pipe->bindThread(0, &t);
    Pipeline::runInstrs({pipe.get()}, 2000);
    EXPECT_GT(pipe->stats().retiredByTag[13], 1500u);
}

TEST_F(Pipeline2, FilterPrivilegedBranchesPerfect)
{
    const int kf = gk.genFunction("kloop", 8, {}, 7, true);
    user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(gu.makeReturn());
    user->finalize();
    wire();
    pipe->setFilterPrivilegedBranches(true);
    ThreadState &t = makeThread(0);
    t.cursor.reset(kf, true, 5);
    pipe->bindThread(0, &t);
    Pipeline::runInstrs({pipe.get()}, 5000);
    // Kernel branches neither mispredict nor touch the BTB.
    EXPECT_EQ(pipe->stats().condMispred[1], 0u);
    EXPECT_EQ(pipe->btb().stats().totalAccesses(), 0u);
}

TEST_F(Pipeline2, RoundRobinFetchStillProgressesAll)
{
    const int f = gu.genFunction("main", 5, {}, -1, true);
    user->finalize();
    CoreParams cp;
    cp.numContexts = 4;
    cp.fetchPolicy = FetchPolicy::RoundRobin;
    wire(cp);
    for (int c = 0; c < 4; ++c)
        pipe->bindThread(c, &makeThread(f, c));
    Pipeline::runInstrs({pipe.get()}, 20000);
    for (auto &t : threads)
        EXPECT_GT(t->cursor.retired, 1000u);
}

TEST_F(Pipeline2, DtlbTrapInsideLoopRetriesExactAddress)
{
    // A store walking fresh pages: every page boundary traps once;
    // the store must re-execute with the same address (no livelock).
    user->beginFunction("main", -1);
    user->beginBlock();
    Instr st = gu.makeStore(MemPattern::SeqStream, 1, 0, 512, false);
    user->emit(st);
    user->emit(gu.makeAlu());
    user->emit(gu.makeJump(0));
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(0));
    Pipeline::runInstrs({pipe.get()}, 30000);
    // ~30000/3 stores * 512B stride = ~5MB walked -> ~16 pages of the
    // 64KB region, each trapping exactly once per wrap.
    EXPECT_GT(os->dtlbMisses, 10);
    EXPECT_LT(os->dtlbMisses, 60);
}

TEST_F(Pipeline2, WrongPathFetchDoesNotReachOs)
{
    // A syscall sits on the not-taken arm of a strongly-taken branch:
    // wrong-path fetch may reach it, but it must never commit.
    user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(gu.makeAlu());
    user->emit(gu.makeCond(2, 0.97)); // almost always skips
    user->beginBlock();
    user->emit(gu.makeSyscall(42));
    user->emit(gu.makeAlu());
    user->beginBlock();
    user->emit(gu.makeAlu());
    user->emit(gu.makeJump(0));
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(0));
    Pipeline::runInstrs({pipe.get()}, 20000);
    // The syscall commits only as often as the branch actually falls
    // through (~3%), never from wrong-path fetches.
    std::size_t syscalls = 0;
    for (int v : os->order)
        syscalls += (v == 42);
    EXPECT_LT(syscalls, 400u);
    EXPECT_GT(syscalls, 20u);
}

TEST_F(Pipeline2, SquashReleasesRenameRegisters)
{
    // Heavy misprediction with dest-writing wrong paths: if rename
    // registers leaked on squash the pipeline would wedge.
    user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(gu.makeAlu());
    user->emit(gu.makeCond(2, 0.5));
    user->beginBlock();
    for (int i = 0; i < 10; ++i)
        user->emit(gu.makeAlu());
    user->beginBlock();
    user->emit(gu.makeAlu());
    user->emit(gu.makeJump(0));
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(0));
    // Would panic on wedge via the watchdog.
    Pipeline::runInstrs({pipe.get()}, 60000);
    EXPECT_GE(pipe->stats().totalRetired(), 60000u);
}

TEST_F(Pipeline2, ZeroIssueAndZeroFetchTracked)
{
    // A serial multiply chain guarantees empty-issue cycles.
    user->beginFunction("main", -1);
    user->beginBlock();
    for (int i = 0; i < 4; ++i) {
        Instr in;
        in.op = Op::IntMul;
        in.srcA = 1;
        in.dest = 1;
        user->emit(in);
    }
    user->emit(gu.makeJump(0));
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(0));
    Pipeline::runInstrs({pipe.get()}, 5000);
    EXPECT_GT(pipe->stats().zeroIssueCycles, 1000u);
    EXPECT_GT(pipe->stats().zeroFetchCycles, 100u);
}

TEST_F(Pipeline2, SuperscalarHasSevenStagePenalty)
{
    // Same unpredictable-branch code: the 9-stage SMT pays a larger
    // mispredict penalty than the 7-stage superscalar.
    user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(gu.makeAlu());
    user->emit(gu.makeCond(2, 0.5));
    user->beginBlock();
    user->emit(gu.makeAlu());
    user->beginBlock();
    user->emit(gu.makeAlu());
    user->emit(gu.makeJump(0));
    user->finalize();

    CoreParams nine;
    nine.numContexts = 1;
    nine.pipelineStages = 9;
    wire(nine);
    pipe->bindThread(0, &makeThread(0, 0));
    Pipeline::runInstrs({pipe.get()}, 30000);
    const Cycle c9 = pipe->now();

    CoreParams seven;
    seven.numContexts = 1;
    seven.pipelineStages = 7;
    wire(seven);
    pipe->bindThread(0, &makeThread(0, 1));
    Pipeline::runInstrs({pipe.get()}, 30000);
    const Cycle c7 = pipe->now();
    EXPECT_LT(c7, c9);
}

// ===== event-driven wakeup and select =====

namespace {

/** mul r1 <- r2, @p waiters uops waiting on r1, an independent alu,
 *  halt. Returns the function index. */
int
emitBehindWaiters(CodeImage &img, int waiters)
{
    const int f = img.beginFunction("behind" + std::to_string(waiters));
    img.beginBlock();
    img.emit(regOp(Op::IntMul, 1, 2));
    for (int i = 0; i < waiters; ++i)
        img.emit(regOp(Op::IntAlu, 3, 1));
    img.emit(regOp(Op::IntAlu, 5, 4));
    Instr halt;
    halt.op = Op::Halt;
    img.emit(halt);
    return f;
}

} // namespace

TEST_F(Pipeline2, ReadyUopBehindTwentyFourWaitingIsNotSelected)
{
    // Once the mul issues, its waiters are the oldest unissued uops
    // of the context. Behind 24 of them the ready alu is outside the
    // issue window until the mul's result wakes them; behind 23 it is
    // the 24th and issues while the mul is still executing.
    const int f24 = emitBehindWaiters(*user, 24);
    const int f23 = emitBehindWaiters(*user, 23);
    user->finalize();
    auto issuedWhileMulRuns = [this](int entry) -> std::uint64_t {
        wire();
        warmUp(entry);
        pipe->bindThread(1, &makeThread(entry, 1));
        const std::uint64_t before = pipe->stats().issued;
        for (int i = 0; i < 100 && pipe->stats().issued == before; ++i)
            stepAudited(1);
        EXPECT_EQ(pipe->stats().issued, before + 1) << "the mul issues alone";
        // The mul completes intMulLatency cycles after it issued.
        stepAudited(static_cast<int>(CoreParams{}.intMulLatency) - 1);
        return pipe->stats().issued - before;
    };
    EXPECT_EQ(issuedWhileMulRuns(f24), 1u);
    EXPECT_EQ(issuedWhileMulRuns(f23), 2u);
}

TEST_F(Pipeline2, SquashedProducersAndWaitersLeaveNoWakeupState)
{
    // A serial mul chain (r6) keeps producers unissued while an
    // unpredictable branch resolves, so mispredicts squash waiters of
    // surviving producers (r6) and wrong-path producers together with
    // their own waiters (r1).
    user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(regOp(Op::IntMul, 6, 6));
    user->emit(gu.makeCond(2, 0.5));
    user->beginBlock();
    user->emit(regOp(Op::IntMul, 1, 2));
    user->emit(regOp(Op::IntAlu, 3, 1));
    user->emit(regOp(Op::IntAlu, 3, 1));
    user->emit(regOp(Op::IntAlu, 7, 6));
    user->emit(gu.makeJump(0));
    user->beginBlock();
    user->emit(regOp(Op::IntAlu, 8, 6));
    user->emit(regOp(Op::IntMul, 1, 2));
    user->emit(regOp(Op::IntAlu, 3, 1));
    user->emit(gu.makeJump(0));
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(0, 0));
    pipe->bindThread(1, &makeThread(0, 1));
    stepAudited(20000);
    EXPECT_GT(pipe->stats().condMispred[0], 100u);
    EXPECT_GT(pipe->stats().squashed, 1000u);
    EXPECT_GT(pipe->stats().totalRetired(), 5000u);
}

TEST_F(Pipeline2, DtlbTrapSquashLeavesNoWakeupState)
{
    // A load walking fresh pages traps at resolve; the trap squashes
    // it with its waiter (r5) and a waiter (r6) of an older mul that
    // survives the squash.
    user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(regOp(Op::IntMul, 1, 1));
    user->emit(loadOp(gu, 4, MemPattern::SeqStream, 0, 512, false));
    user->emit(regOp(Op::IntAlu, 5, 4));
    user->emit(regOp(Op::IntAlu, 6, 1));
    user->emit(gu.makeJump(0));
    user->finalize();
    wire();
    pipe->bindThread(0, &makeThread(0));
    stepAudited(30000);
    EXPECT_GT(os->dtlbMisses, 10);
    EXPECT_GT(pipe->stats().totalRetired(), 5000u);
}

TEST_F(Pipeline2, LoadReadyAtIssueWakesConsumerNextCycle)
{
    // With a zero-cycle L1 hit the load's readyAt is its issue cycle;
    // its consumer still issues one cycle later, never with it.
    const int f = user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(loadOp(gu, 1, MemPattern::SeqStream, 0, 0, true));
    user->emit(regOp(Op::IntAlu, 3, 1));
    Instr halt;
    halt.op = Op::Halt;
    user->emit(halt);
    user->finalize();
    HierarchyParams hp;
    hp.l1HitLatency = 0;
    wire(CoreParams{}, hp);
    warmUp(f);
    pipe->bindThread(1, &makeThread(f, 1));
    const std::uint64_t before = pipe->stats().issued;
    for (int i = 0; i < 100 && pipe->stats().issued == before; ++i)
        stepAudited(1);
    EXPECT_EQ(pipe->stats().issued, before + 1) << "the load issues alone";
    stepAudited(1);
    EXPECT_EQ(pipe->stats().issued, before + 2)
        << "the consumer issues the next cycle";
}

TEST_F(Pipeline2, FastForwardAcrossPendingCompletionsIsExact)
{
    // Loads that miss to memory head a window that fills with done
    // uops: the context is quiescent with completions pending, and
    // fast-forward must land on each of them exactly as ticking every
    // cycle would.
    user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(loadOp(gu, 1, MemPattern::RandomInRegion, 1, 8, true));
    // No destinations: rename registers must not stop fetch first.
    Instr nop;
    nop.op = Op::Nop;
    for (int i = 0; i < 14; ++i)
        user->emit(nop);
    user->emit(gu.makeJump(0));
    user->finalize();
    auto run = [this](bool ff) {
        wire();
        pipe->setFastForward(ff);
        os->nextEvent = ~Cycle{0};
        ThreadState &t = makeThread(0);
        t.regions[1] = MemRegion{0x40000000, 64ull << 20};
        pipe->bindThread(0, &t);
        for (int i = 0; i < 40; ++i) {
            Pipeline::runCycles({pipe.get()}, 250);
            EXPECT_EQ(pipe->auditInvariants(), "");
        }
        return pipe->stats();
    };
    const CoreStats ticked = run(false);
    EXPECT_EQ(pipe->fastForwardedCycles(), 0u);
    const CoreStats skipped = run(true);
    EXPECT_GT(pipe->fastForwardedCycles(), 1000u);
    EXPECT_EQ(skipped.cycles, ticked.cycles);
    EXPECT_EQ(skipped.fetched, ticked.fetched);
    EXPECT_EQ(skipped.issued, ticked.issued);
    EXPECT_EQ(skipped.totalRetired(), ticked.totalRetired());
    EXPECT_EQ(skipped.zeroIssueCycles, ticked.zeroIssueCycles);
    EXPECT_EQ(skipped.zeroFetchCycles, ticked.zeroFetchCycles);
    EXPECT_GT(ticked.totalRetired(), 1000u);
}

TEST_F(Pipeline2, ResumeWithConsumersMidWaitIsByteIdentical)
{
    // Restoring a pipeline from its own snapshot rebuilds the wakeup
    // state from the windows alone; the run must continue exactly as
    // the straight run does, at any cycle of a mul chain's waits.
    user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(regOp(Op::IntMul, 6, 6));
    user->emit(loadOp(gu, 4, MemPattern::SeqStream, 0, 64, true));
    user->emit(gu.makeCond(2, 0.5));
    user->beginBlock();
    user->emit(regOp(Op::IntMul, 1, 4));
    user->emit(regOp(Op::IntAlu, 3, 1));
    user->emit(regOp(Op::IntAlu, 7, 6));
    user->emit(gu.makeJump(0));
    user->beginBlock();
    user->emit(regOp(Op::IntAlu, 8, 6));
    user->emit(regOp(Op::IntAlu, 9, 4));
    user->emit(gu.makeJump(0));
    user->finalize();
    constexpr int total = 1500;
    auto start = [this] {
        wire();
        pipe->bindThread(0, &makeThread(0, 0));
        pipe->bindThread(1, &makeThread(0, 1));
    };
    start();
    stepAudited(total);
    const std::vector<std::uint8_t> straight = pipelineBytes();
    for (const int k : {300, 301, 302, 305, 310, 347, 600, 999}) {
        start();
        stepAudited(k);
        EXPECT_GT(pipe->ctx(0).unissued + pipe->ctx(1).unissued, 0)
            << "nothing waits at cycle " << k;
        selfRestore();
        EXPECT_EQ(pipe->auditInvariants(), "") << "restored at " << k;
        stepAudited(total - k);
        EXPECT_TRUE(pipelineBytes() == straight) << "restored at " << k;
    }
}

// ===== events farther out than one turn of the event schedule =====

namespace {

/** A DRAM latency beyond the completion/wakeup calendar's span (256
 *  cycles), so a memory miss completes more than a turn out. */
constexpr Cycle farLatency = 1000;

} // namespace

TEST_F(Pipeline2, FarMissCompletesAtItsDoneAt)
{
    // A cold physical load and its consumer. The consumer issues, and
    // the load retires, exactly as much later as the DRAM latency is
    // longer: a completion (and a wakeup) more than a turn of the
    // schedule out is neither lost nor delayed a turn.
    const int f = user->beginFunction("main", -1);
    user->beginBlock();
    user->emit(loadOp(gu, 1, MemPattern::SeqStream, 0, 0, true));
    user->emit(regOp(Op::IntAlu, 3, 1));
    Instr halt;
    halt.op = Op::Halt;
    user->emit(halt);
    user->finalize();
    struct Times
    {
        Cycle loadIssued = 0, consumerIssued = 0, loadRetired = 0;
    };
    auto run = [&](Cycle latency) {
        HierarchyParams hp;
        hp.dramLatency = latency;
        wire(CoreParams{}, hp);
        warmUp(f);
        ThreadState &t = makeThread(f, 1);
        t.regions[0] = MemRegion{0x50000000, 1 << 16};
        pipe->bindThread(1, &t);
        Times at;
        const std::uint64_t issued = pipe->stats().issued;
        const std::uint64_t retired = pipe->stats().totalRetired();
        for (int i = 0; i < 3000 && !at.loadRetired; ++i) {
            stepAudited(1);
            const std::uint64_t n = pipe->stats().issued - issued;
            if (n >= 1 && !at.loadIssued)
                at.loadIssued = pipe->now();
            if (n >= 2 && !at.consumerIssued)
                at.consumerIssued = pipe->now();
            if (pipe->stats().totalRetired() > retired)
                at.loadRetired = pipe->now();
        }
        EXPECT_GT(at.loadIssued, 0u);
        EXPECT_GT(at.consumerIssued, at.loadIssued);
        EXPECT_GT(at.loadRetired, 0u);
        return at;
    };
    const Times near = run(100);
    const Times far = run(farLatency);
    EXPECT_GT(far.consumerIssued - far.loadIssued, 2 * 256u);
    EXPECT_EQ(far.consumerIssued - far.loadIssued,
              near.consumerIssued - near.loadIssued + farLatency - 100);
    EXPECT_EQ(far.loadRetired - far.loadIssued,
              near.loadRetired - near.loadIssued + farLatency - 100);
}

namespace {

/** A loop of physical loads that each open a fresh 4KB window of a
 *  64MB region (so each misses), optionally with a consumer, then
 *  nops that fill the window behind them. Returns the function index. */
int
emitFarMissLoop(CodeImage &img, CodeGen &g, bool consumer)
{
    const int f = img.beginFunction("farmiss", -1);
    img.beginBlock();
    img.emit(loadOp(g, 1, MemPattern::RandomInRegion, 1, 160 << 12,
                    true));
    if (consumer)
        img.emit(regOp(Op::IntAlu, 3, 1));
    Instr nop;
    nop.op = Op::Nop;
    for (int i = 0; i < 13; ++i)
        img.emit(nop);
    img.emit(g.makeJump(0));
    return f;
}

} // namespace

TEST_F(Pipeline2, FastForwardAcrossFarCompletionIsExact)
{
    // Quiescent behind misses that complete more than a turn of the
    // schedule out: fast-forward must find each completion and land on
    // it exactly as ticking every cycle does.
    const int f = emitFarMissLoop(*user, gu, false);
    user->finalize();
    auto run = [&](bool ff) {
        HierarchyParams hp;
        hp.dramLatency = farLatency;
        wire(CoreParams{}, hp);
        pipe->setFastForward(ff);
        os->nextEvent = ~Cycle{0};
        ThreadState &t = makeThread(f);
        t.regions[1] = MemRegion{0x40000000, 64ull << 20};
        pipe->bindThread(0, &t);
        for (int i = 0; i < 60; ++i) {
            Pipeline::runCycles({pipe.get()}, 997);
            EXPECT_EQ(pipe->auditInvariants(), "") << "chunk " << i;
        }
        return pipe->stats();
    };
    const CoreStats ticked = run(false);
    EXPECT_EQ(pipe->fastForwardedCycles(), 0u);
    const CoreStats skipped = run(true);
    EXPECT_GT(pipe->fastForwardedCycles(), 20000u);
    EXPECT_EQ(skipped.cycles, ticked.cycles);
    EXPECT_EQ(skipped.fetched, ticked.fetched);
    EXPECT_EQ(skipped.issued, ticked.issued);
    EXPECT_EQ(skipped.totalRetired(), ticked.totalRetired());
    EXPECT_EQ(skipped.zeroIssueCycles, ticked.zeroIssueCycles);
    EXPECT_EQ(skipped.zeroFetchCycles, ticked.zeroFetchCycles);
    EXPECT_GT(ticked.totalRetired(), 500u);
}

TEST_F(Pipeline2, ResumeMidFarWaitIsByteIdentical)
{
    // Restored while a completion (and its consumer's wakeup) lies
    // more than a turn of the schedule out, the pipeline rebuilds
    // both from the window and continues exactly as the straight run.
    const int f = emitFarMissLoop(*user, gu, true);
    user->finalize();
    constexpr int total = 6000;
    auto start = [&] {
        HierarchyParams hp;
        hp.dramLatency = farLatency;
        wire(CoreParams{}, hp);
        ThreadState &t = makeThread(f);
        t.regions[1] = MemRegion{0x40000000, 64ull << 20};
        pipe->bindThread(0, &t);
    };
    start();
    stepAudited(total);
    const std::vector<std::uint8_t> straight = pipelineBytes();
    for (const int k : {1500, 1777, 2200, 2900, 3400, 4501}) {
        start();
        stepAudited(k);
        EXPECT_GT(pipe->ctx(0).inflight, 0) << "nothing in flight at " << k;
        selfRestore();
        EXPECT_EQ(pipe->auditInvariants(), "") << "restored at " << k;
        stepAudited(total - k);
        EXPECT_TRUE(pipelineBytes() == straight) << "restored at " << k;
    }
}
