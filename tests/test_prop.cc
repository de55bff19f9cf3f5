// Fault-propagation tracer tests (obs/propagation.h): taint-transfer
// semantics of both shadow trackers (mask-on-overwrite, store-to-load
// edges, flags taint, call-boundary hand-off), divergence-point exactness
// against hand-built golden journals, LLFI propagation behaviours on
// small compiled programs (value, memory, branch and output spread),
// engine-level result invariance with tracing on/off, and the event-log
// flush guarantee when a campaign dies mid-run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/pipeline.h"
#include "fault/campaign.h"
#include "fault/engine.h"
#include "fault/llfi.h"
#include "fault/pinfi.h"
#include "fault/scheduler.h"
#include "ir/basic_block.h"
#include "ir/function.h"
#include "ir/module.h"
#include "obs/events.h"
#include "obs/propagation.h"
#include "x86/isa.h"

namespace faultlab::fault {
namespace {

/// Restores the FAULTLAB_PROP override on scope exit so a failing test
/// cannot leak a tracing-enabled process state into later tests.
struct ScopedProp {
  explicit ScopedProp(bool on) { obs::set_prop_enabled(on); }
  ~ScopedProp() { obs::set_prop_enabled(false); }
};

// ---------------------------------------------------------------------------
// SimPropTracer unit semantics (hand-built x86::Inst streams).

x86::Inst mov_rr(x86::RegId dst, x86::RegId src) {
  x86::Inst inst{};
  inst.op = x86::Op::MovRR;
  inst.dst = dst;
  inst.src = src;
  inst.src_kind = x86::SrcKind::Reg;
  return inst;
}

x86::Inst mov_ri(x86::RegId dst, std::int64_t imm) {
  x86::Inst inst{};
  inst.op = x86::Op::MovRI;
  inst.dst = dst;
  inst.imm = imm;
  inst.src_kind = x86::SrcKind::Imm;
  return inst;
}

TEST(SimProp, TaintTransfersThroughRegisterCopy) {
  obs::SimPropTracer tracer(nullptr);
  tracer.plant_root_gpr(1, 10);  // rcx is the root, depth 0
  const x86::Inst copy = mov_rr(0, 1);  // mov rax, rcx
  tracer.on_before(11, 0, copy);
  tracer.commit();
  const obs::PropSummary s = tracer.summary();
  EXPECT_TRUE(s.traced);
  EXPECT_EQ(s.tainted_reads, 1u);
  EXPECT_EQ(s.fanout, 1u);
  EXPECT_EQ(s.depth, 1u);
  EXPECT_GE(s.peak_tainted_values, 2u);  // rcx and rax together
}

TEST(SimProp, UntaintedOverwriteIsAMaskingEvent) {
  obs::SimPropTracer tracer(nullptr);
  tracer.plant_root_gpr(1, 10);
  const x86::Inst kill = mov_ri(1, 5);  // mov rcx, 5 — full overwrite
  tracer.on_before(11, 0, kill);
  tracer.commit();
  const obs::PropSummary s = tracer.summary();
  EXPECT_EQ(s.masking_events, 1u);
  EXPECT_EQ(s.fanout, 0u);
  // The taint died before anything read it.
  EXPECT_EQ(s.tainted_reads, 0u);
}

TEST(SimProp, StoreToLoadEdgeThroughShadowMemory) {
  obs::SimPropTracer tracer(nullptr);
  tracer.plant_root_gpr(1, 10);

  x86::Inst store{};  // mov [0x2000], rcx
  store.op = x86::Op::MovMR;
  store.dst = 1;
  tracer.on_before(11, 0, store);
  tracer.on_memory(store, 0x2000, 8, /*is_store=*/true);
  tracer.commit();

  x86::Inst load{};  // mov rax, [0x2000]
  load.op = x86::Op::MovRM;
  load.dst = 0;
  tracer.on_before(12, 1, load);
  tracer.on_memory(load, 0x2000, 8, /*is_store=*/false);
  tracer.commit();

  const obs::PropSummary s = tracer.summary();
  EXPECT_EQ(s.tainted_stores, 1u);
  EXPECT_EQ(s.store_load_edges, 1u);
  EXPECT_GE(s.peak_tainted_pages, 1u);
  EXPECT_EQ(s.fanout, 1u);  // the load's destination picked the taint up
}

TEST(SimProp, LoadFromUntaintedPageStaysClean) {
  obs::SimPropTracer tracer(nullptr);
  tracer.plant_root_gpr(1, 10);
  x86::Inst load{};
  load.op = x86::Op::MovRM;
  load.dst = 0;
  tracer.on_before(11, 0, load);
  tracer.on_memory(load, 0x9000, 8, /*is_store=*/false);
  tracer.commit();
  const obs::PropSummary s = tracer.summary();
  EXPECT_EQ(s.store_load_edges, 0u);
  EXPECT_EQ(s.fanout, 0u);
}

TEST(SimProp, ComparisonTaintsFlagsAndBranchCountsAsTainted) {
  obs::SimPropTracer tracer(nullptr);
  tracer.plant_root_gpr(1, 10);

  x86::Inst cmp{};  // cmp rcx, 0
  cmp.op = x86::Op::Cmp;
  cmp.dst = 1;
  cmp.src_kind = x86::SrcKind::Imm;
  tracer.on_before(11, 0, cmp);
  tracer.commit();

  x86::Inst jcc{};  // je <target>
  jcc.op = x86::Op::Jcc;
  tracer.on_before(12, 1, jcc);
  tracer.commit();

  const obs::PropSummary s = tracer.summary();
  EXPECT_EQ(s.tainted_branches, 1u);
  EXPECT_GE(s.depth, 1u);  // flags derived from the root
}

TEST(SimProp, DivergencePointIsExact) {
  // Golden journal: code indices 5, 6, 7, 8 at positions 1..4.
  obs::GoldenJournal journal;
  for (std::size_t i = 5; i <= 8; ++i)
    journal.pc.push_back(obs::sim_pc_fingerprint(i));

  obs::SimPropTracer tracer(&journal);
  tracer.plant_root_gpr(0, 2);  // injected at dynamic position 2
  const x86::Inst nop = mov_ri(3, 0);
  tracer.on_before(1, 5, nop);
  tracer.on_before(2, 6, nop);
  tracer.on_before(3, 7, nop);
  EXPECT_FALSE(tracer.summary().diverged);
  tracer.on_before(4, 99, nop);  // journal expected index 8
  const obs::PropSummary s = tracer.summary();
  EXPECT_TRUE(s.diverged);
  EXPECT_EQ(s.divergence_pc, 99u);
  EXPECT_EQ(s.divergence_offset, 2u);  // positions 2 -> 4
}

TEST(SimProp, RunningPastJournalEndDiverges) {
  obs::GoldenJournal journal;
  journal.pc = {obs::sim_pc_fingerprint(0), obs::sim_pc_fingerprint(1)};
  obs::SimPropTracer tracer(&journal);
  tracer.plant_root_gpr(0, 1);
  const x86::Inst nop = mov_ri(3, 0);
  tracer.on_before(1, 0, nop);
  tracer.on_before(2, 1, nop);
  EXPECT_FALSE(tracer.summary().diverged);
  tracer.on_before(3, 2, nop);  // golden run ended at position 2
  EXPECT_TRUE(tracer.summary().diverged);
}

// ---------------------------------------------------------------------------
// VmPropTracer unit semantics, driven with real IR instructions from a
// tiny compiled module (DynValueId defs must be live instruction
// pointers, but the tracer itself only cares about identity).

struct VmHarness {
  driver::CompiledProgram prog;
  std::vector<const ir::Instruction*> instrs;

  VmHarness()
      : prog(driver::compile(
            "int g[4];\n"
            "int main() { int i; long s = 0;\n"
            "  for (i = 0; i < 4; i++) { g[i] = i * 3; s += g[i]; }\n"
            "  print_int(s); return 0; }",
            "vmprop")) {
    for (const auto& fn : prog.module().functions())
      for (const auto& block : fn->blocks())
        for (const auto& instr : block->instructions())
          instrs.push_back(instr.get());
    EXPECT_GE(instrs.size(), 4u);
  }
};

TEST(VmProp, OperandReadPropagatesTaintToResult) {
  VmHarness h;
  obs::VmPropTracer tracer(nullptr);
  const vm::DynValueId root{1, h.instrs[0]};
  tracer.plant_root(root, 5);

  const ir::Instruction& user = *h.instrs[1];
  tracer.on_instruction(6, user);
  tracer.on_operand_read(root, user);
  tracer.on_result(vm::DynValueId{1, &user});

  const obs::PropSummary s = tracer.summary();
  EXPECT_EQ(s.tainted_reads, 1u);
  EXPECT_EQ(s.fanout, 1u);
  EXPECT_EQ(s.depth, 1u);
}

TEST(VmProp, UntaintedRedefinitionMasks) {
  VmHarness h;
  obs::VmPropTracer tracer(nullptr);
  const vm::DynValueId root{1, h.instrs[0]};
  tracer.plant_root(root, 5);
  // The same def re-executes (loop iteration) with clean operands: the
  // tainted value is overwritten by an untainted result.
  tracer.on_instruction(6, *h.instrs[0]);
  tracer.on_result(root);
  const obs::PropSummary s = tracer.summary();
  EXPECT_EQ(s.masking_events, 1u);
  EXPECT_EQ(s.fanout, 0u);
}

TEST(VmProp, StoreToLoadEdgeThroughShadowPages) {
  VmHarness h;
  obs::VmPropTracer tracer(nullptr);
  const vm::DynValueId root{1, h.instrs[0]};
  tracer.plant_root(root, 5);

  const ir::Instruction& store = *h.instrs[1];
  tracer.on_instruction(6, store);
  tracer.on_operand_read(root, store);  // tainted stored value
  tracer.on_memory_access(store, 0x4000, 8, /*is_store=*/true);

  const ir::Instruction& load = *h.instrs[2];
  tracer.on_instruction(7, load);
  tracer.on_memory_access(load, 0x4000, 8, /*is_store=*/false);
  tracer.on_result(vm::DynValueId{1, &load});

  const obs::PropSummary s = tracer.summary();
  EXPECT_EQ(s.tainted_stores, 1u);
  EXPECT_EQ(s.store_load_edges, 1u);
  EXPECT_GE(s.fanout, 1u);
  EXPECT_GE(s.peak_tainted_pages, 1u);
}

TEST(VmProp, DivergencePointIsExact) {
  VmHarness h;
  obs::GoldenJournal journal;
  journal.pc = {obs::vm_pc_fingerprint(*h.instrs[0]),
                obs::vm_pc_fingerprint(*h.instrs[1]),
                obs::vm_pc_fingerprint(*h.instrs[2])};
  obs::VmPropTracer tracer(&journal);
  tracer.plant_root(vm::DynValueId{1, h.instrs[0]}, 1);
  tracer.on_instruction(1, *h.instrs[0]);
  tracer.on_instruction(2, *h.instrs[1]);
  EXPECT_FALSE(tracer.summary().diverged);
  tracer.on_instruction(3, *h.instrs[3]);  // golden expected instrs[2]
  const obs::PropSummary s = tracer.summary();
  EXPECT_TRUE(s.diverged);
  EXPECT_EQ(s.divergence_pc, h.instrs[3]->id());
  EXPECT_EQ(s.divergence_offset, 2u);
}

TEST(VmProp, TaintCrossesCallBoundary) {
  VmHarness h;
  const ir::Instruction* call = nullptr;
  for (const ir::Instruction* instr : h.instrs)
    if (instr->opcode() == ir::Opcode::Call) call = instr;
  ASSERT_NE(call, nullptr);
  obs::VmPropTracer tracer(nullptr);
  const vm::DynValueId root{1, h.instrs[0]};
  tracer.plant_root(root, 5);

  // Caller frame 1 passes the tainted root to a call that opens frame 2.
  tracer.on_instruction(6, *call);
  tracer.on_operand_read(root, *call);
  tracer.on_call(*call, 2);

  // Inside the callee, reading an argument of frame 2 picks the taint up
  // and hands it to the reader's result; frame 3's arguments stay clean.
  const ir::Instruction& user = *h.instrs[1];
  tracer.on_instruction(7, user);
  tracer.on_argument_read(2, 0, user);
  tracer.on_result(vm::DynValueId{2, &user});
  const ir::Instruction& other = *h.instrs[2];
  tracer.on_instruction(8, other);
  tracer.on_argument_read(3, 0, other);
  tracer.on_result(vm::DynValueId{3, &other});

  const obs::PropSummary s = tracer.summary();
  EXPECT_EQ(s.tainted_reads, 2u);  // the call's operand, the callee's read
  EXPECT_EQ(s.fanout, 1u);         // only frame 2's reader is tainted
  EXPECT_EQ(s.depth, 1u);
}

// ---------------------------------------------------------------------------
// LLFI propagation behaviours on small compiled programs, traced through
// LlfiEngine::inject with the tracer armed (the FAULTLAB_PROP path).

/// One traced LLFI engine over a mini-C program. Tracing is switched on
/// before the engine is built, so its golden run captures the journal the
/// divergence check compares against.
struct TracedLlfi {
  ScopedProp on{true};
  driver::CompiledProgram prog;
  LlfiEngine engine;

  explicit TracedLlfi(const char* src, bool optimize = true)
      : prog(driver::compile(src, "prop", {.optimize = optimize})),
        engine(prog.module()) {}

  /// Injects the k-th `cat` instance; `seed` draws the flipped bit.
  TrialRecord trace(ir::Category cat, std::uint64_t k, std::uint64_t seed) {
    Rng rng(seed);
    return engine.inject(cat, k, rng);
  }
};

TEST(Propagation, SeedCountsAsContaminated) {
  TracedLlfi t(R"(
    int main() {
      int i; long s = 0;
      for (i = 0; i < 10; i++) s += i;
      print_int(s + 42);
      return 0;
    }
  )");
  ASSERT_GT(t.engine.profile(ir::Category::All), 0u);
  const TrialRecord r = t.trace(ir::Category::All, 1, 1);
  ASSERT_TRUE(r.injected);
  EXPECT_TRUE(r.prop.traced);
  // The corrupted destination itself is the taint root.
  EXPECT_GE(r.prop.peak_tainted_values, 1u);
}

TEST(Propagation, ArithmeticChainSpreadsTaint) {
  // A loop-carried dependency drags the taint through every later
  // iteration: the def-use chain from the root grows with the loop.
  TracedLlfi t(R"(
    int main() {
      long acc = 3;
      int i;
      for (i = 0; i < 50; i++) acc = acc * 3 + 1;
      print_int(acc & 0xffff);
      return 0;
    }
  )");
  const std::uint64_t n = t.engine.profile(ir::Category::Arithmetic);
  ASSERT_GT(n, 4u);
  std::uint32_t deepest = 0;
  for (std::uint64_t k = 1; k <= 4; ++k) {
    const TrialRecord r = t.trace(ir::Category::Arithmetic, k, k);
    ASSERT_TRUE(r.injected);
    EXPECT_NE(r.outcome, Outcome::Hang) << "k=" << k;
    deepest = std::max(deepest, r.prop.depth);
    EXPECT_GE(r.prop.fanout, r.prop.depth) << "k=" << k;
  }
  EXPECT_GE(deepest, 40u);
}

TEST(Propagation, TaintFlowsThroughMemory) {
  TracedLlfi t(R"(
    int buf[16];
    int main() {
      int i;
      for (i = 0; i < 16; i++) buf[i] = i * 7 + 3;
      long s = 0;
      for (i = 0; i < 16; i++) s += buf[i];
      print_int(s);
      return 0;
    }
  )");
  // Early arithmetic instances sit in the fill loop. An SDC there that
  // kept the golden control flow (a corrupted element, not a corrupted
  // loop counter) reached the sum loop through a store and a load of buf.
  int through_memory = 0;
  for (std::uint64_t k = 1; k <= 6; ++k) {
    const TrialRecord r = t.trace(ir::Category::Arithmetic, k, 100 + k);
    ASSERT_TRUE(r.injected);
    if (r.outcome != Outcome::SDC || r.prop.diverged) continue;
    ++through_memory;
    EXPECT_GT(r.prop.tainted_stores, 0u) << "k=" << k;
    EXPECT_GT(r.prop.store_load_edges, 0u) << "k=" << k;
    EXPECT_GE(r.prop.peak_tainted_pages, 1u) << "k=" << k;
  }
  EXPECT_GT(through_memory, 0);
}

TEST(Propagation, BranchContaminationDetected) {
  TracedLlfi t(R"(
    int main() {
      int i; long s = 0;
      for (i = 0; i < 32; i++) {
        if ((i & 3) == 0) s += 5;
        else s += 1;
      }
      print_int(s);
      return 0;
    }
  )");
  // cmp-category injections flip branch decisions directly.
  const std::uint64_t n = t.engine.profile(ir::Category::Cmp);
  ASSERT_GT(n, 0u);
  bool saw_branch_taint = false;
  for (std::uint64_t k = 1; k <= std::min<std::uint64_t>(n, 8); ++k)
    if (t.trace(ir::Category::Cmp, k, k).prop.tainted_branches > 0)
      saw_branch_taint = true;
  EXPECT_TRUE(saw_branch_taint);
}

TEST(Propagation, BenignFaultsHaveBoundedSpread) {
  // `dead` feeds only an and-with-zero; unoptimized so the mask survives.
  TracedLlfi t(R"(
    int main() {
      int i; long s = 0;
      for (i = 0; i < 20; i++) {
        int dead = i * 17;
        s += (dead & 0);
        s += i;
      }
      print_int(s);
      return 0;
    }
  )", /*optimize=*/false);
  // The first arithmetic instance is `i * 17`: whatever bit flips, the
  // and-with-zero keeps it out of the output and the run never leaves the
  // golden path. (Taint still reaches branches: shadow memory is
  // page-granular, so the stack page holding `dead` also taints `i`.)
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const TrialRecord r = t.trace(ir::Category::Arithmetic, 1, seed);
    ASSERT_TRUE(r.injected);
    EXPECT_TRUE(r.prop.traced);
    EXPECT_EQ(r.outcome, Outcome::Benign) << "seed=" << seed;
    EXPECT_FALSE(r.prop.diverged) << "seed=" << seed;
  }
}

// ---------------------------------------------------------------------------
// Engine-level invariance: tracing must never change trial results, and
// traced trials must carry a filled summary.

const char* kEngineProgram = R"(
  int data[16];
  int main() {
    int i; long acc = 0;
    for (i = 0; i < 16; i++) data[i] = i * 5 + 1;
    for (i = 0; i < 16; i++) {
      if (data[i] % 2 == 0) acc += data[i];
      else acc -= i;
    }
    print_int(acc);
    return 0;
  }
)";

template <typename Engine, typename Source>
void expect_tracing_invariant(Source& source) {
  constexpr int kTrials = 30;
  std::vector<TrialRecord> plain, traced;
  {
    ScopedProp off(false);
    Engine engine(source);
    const std::uint64_t n = engine.profile(ir::Category::All);
    ASSERT_GT(n, 0u);
    Rng rng(42);
    for (int t = 0; t < kTrials; ++t) {
      Rng trial = rng.fork();
      plain.push_back(engine.inject(ir::Category::All, rng.range(1, n), trial));
    }
  }
  {
    ScopedProp on(true);
    Engine engine(source);
    const std::uint64_t n = engine.profile(ir::Category::All);
    Rng rng(42);
    for (int t = 0; t < kTrials; ++t) {
      Rng trial = rng.fork();
      traced.push_back(
          engine.inject(ir::Category::All, rng.range(1, n), trial));
    }
  }
  int diverged = 0;
  for (int t = 0; t < kTrials; ++t) {
    EXPECT_EQ(plain[t].outcome, traced[t].outcome) << "trial " << t;
    EXPECT_EQ(plain[t].bit, traced[t].bit) << "trial " << t;
    EXPECT_EQ(plain[t].static_site, traced[t].static_site) << "trial " << t;
    EXPECT_EQ(plain[t].injected, traced[t].injected) << "trial " << t;
    EXPECT_FALSE(plain[t].prop.traced) << "trial " << t;
    if (traced[t].injected) {
      EXPECT_TRUE(traced[t].prop.traced) << "trial " << t;
      if (traced[t].prop.diverged) {
        ++diverged;
        EXPECT_GE(traced[t].prop.divergence_offset, 1u) << "trial " << t;
      }
    } else {
      EXPECT_FALSE(traced[t].prop.traced) << "trial " << t;
    }
  }
  // A 30-trial all-category campaign on this program reliably produces at
  // least one control-flow divergence (crashes and flipped branches).
  EXPECT_GE(diverged, 1);
}

TEST(PropEngine, LlfiResultsUnchangedByTracing) {
  auto prog = driver::compile(kEngineProgram, "prop_llfi");
  expect_tracing_invariant<LlfiEngine>(prog.module());
}

TEST(PropEngine, PinfiResultsUnchangedByTracing) {
  auto prog = driver::compile(kEngineProgram, "prop_pinfi");
  expect_tracing_invariant<PinfiEngine>(prog.program());
}

const char* kFactorialProgram = R"(
  int main() {
    long s = 1;
    int i;
    for (i = 1; i <= 12; i++) s *= i;
    print_int(s);
    return 0;
  }
)";

TEST(Propagation, SdcImpliesContaminatedOutput) {
  TracedLlfi t(kFactorialProgram);
  const std::uint64_t n = t.engine.profile(ir::Category::All);
  ASSERT_GT(n, 0u);
  int sdc = 0;
  for (std::uint64_t k = 1; k <= std::min<std::uint64_t>(n, 24); ++k) {
    const TrialRecord r = t.trace(ir::Category::All, k, 7 * k);
    if (r.outcome != Outcome::SDC) continue;
    ++sdc;
    // Corruption that reached the output was read somewhere after the
    // flip, or it changed which instructions ran.
    EXPECT_TRUE(r.prop.traced) << "k=" << k;
    EXPECT_TRUE(r.prop.tainted_reads > 0 || r.prop.diverged)
        << "SDC with no traced spread (k=" << k << ")";
  }
  EXPECT_GT(sdc, 0);
}

TEST(Propagation, DeterministicForSameDraw) {
  TracedLlfi t(kFactorialProgram);
  const std::uint64_t n = t.engine.profile(ir::Category::All);
  ASSERT_GT(n, 0u);
  for (std::uint64_t k = 1; k <= std::min<std::uint64_t>(n, 24); ++k) {
    const TrialRecord a = t.trace(ir::Category::All, k, 7 * k);
    const TrialRecord b = t.trace(ir::Category::All, k, 7 * k);
    EXPECT_EQ(a.outcome, b.outcome) << "k=" << k;
    EXPECT_EQ(a.bit, b.bit) << "k=" << k;
    EXPECT_TRUE(a.prop == b.prop) << "k=" << k;
  }
}

// ---------------------------------------------------------------------------
// Event-shard flush on CampaignError unwind: a worker dying mid-run must
// not lose the trials that already completed (scheduler.cc's
// EventFlushGuard).

/// Succeeds for the first four inject() calls, then explodes — the
/// completed trials' events sit in un-flushed shard buffers when the
/// CampaignError unwinds the scheduler.
class PartialThrowingEngine final : public InjectorEngine {
 public:
  const char* tool_name() const noexcept override { return "MOCK"; }
  std::uint64_t profile(ir::Category) override { return 64; }
  TrialRecord inject(ir::Category, std::uint64_t k, Rng&) override {
    if (calls_.fetch_add(1) >= 4)
      throw std::runtime_error("worker killed mid-run");
    TrialRecord record;
    record.outcome = Outcome::Benign;
    record.injected = true;
    record.dynamic_target = k;
    record.static_site = 7;
    record.site_opcode = "mock";
    record.site_function = "main";
    return record;
  }
  const std::string& golden_output() const noexcept override {
    return golden_;
  }
  std::uint64_t golden_instructions() const noexcept override { return 1; }

 private:
  std::atomic<int> calls_{0};
  std::string golden_ = "ok\n";
};

TEST(PropEvents, ShardsFlushedWhenCampaignDiesMidRun) {
  const std::string path = ::testing::TempDir() + "prop_flush_events.jsonl";
  ASSERT_TRUE(obs::EventLog::global().open(path));

  PartialThrowingEngine engine;
  CampaignConfig cfg;
  cfg.app = "flushapp";
  cfg.category = ir::Category::All;
  cfg.trials = 12;
  cfg.threads = 1;  // deterministic: exactly 4 trials complete
  EXPECT_THROW(run_campaign(engine, cfg), CampaignError);

  const std::uint64_t appended = obs::EventLog::global().appended();
  EXPECT_EQ(appended, 4u);

  // Read the file BEFORE close(): only the unwind-path flush can have
  // written these bytes.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::uint64_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    // Every flushed record must be a complete JSON object.
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"app\":\"flushapp\""), std::string::npos);
  }
  EXPECT_EQ(lines, appended);

  obs::EventLog::global().close();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace faultlab::fault
