#include "fault/llfi.h"

#include <cstddef>

#include "obs/propagation.h"

namespace faultlab::fault {

/// Profiling hook: counts dynamic instances of the target set.
class LlfiTraits::ProfileHook final : public vm::ExecHook {
 public:
  ProfileHook(const ir::Module&, const FaultModel& model,
              ir::Category category)
      : category_(category), model_(model) {}
  void on_instruction(const ir::Instruction& instr) override {
    if (LlfiEngine::is_target(instr, category_, model_)) ++count_;
  }
  std::uint64_t count() const noexcept { return count_; }

 private:
  ir::Category category_;
  FaultModel model_;
  std::uint64_t count_ = 0;
};

/// Single-pass profiling hook: counts dynamic instances of every category
/// in one instrumented run.
class LlfiTraits::ProfileAllHook final : public vm::ExecHook {
 public:
  ProfileAllHook(const ir::Module&, const FaultModel& model) : model_(model) {}
  void on_instruction(const ir::Instruction& instr) override {
    for (ir::Category c : ir::kAllCategories)
      if (LlfiEngine::is_target(instr, c, model_)) ++counts_[c];
  }
  const CategoryCounts& counts() const noexcept { return counts_; }

 private:
  FaultModel model_;
  CategoryCounts counts_;
};

/// Injection hook: corrupts the destination of the trial site's dynamic
/// instance per the trial's FaultPlan, then watches for a read of a
/// corrupted dynamic value (activation). The raw draws happen up front
/// (in the plan) and are folded by the destination's width at injection
/// time, because the width is only known once the instance is reached.
///
/// Transient models keep the fast path: one corrupted value, a
/// single id compare per operand read, final detach() on activation.
/// Persistent models (intermittent/permanent) re-fire on every later
/// execution of the armed static site per the model's burst pattern, and
/// track activation against a bounded ring of the most recent corrupted
/// values (older unread values age out of the window — an accepted
/// approximation that keeps per-read cost constant).
///
/// Under the time trigger the hook corrupts the first category
/// instruction at or after the site's arm_time. If the executor's re-arm
/// boundary lands past arm_time (it can, when arm_time falls inside a phi
/// group), the recorded inject position stays arm_time-relative; the
/// discrepancy is bounded by one phi group and is identical for
/// checkpointed and from-scratch runs.
class LlfiTraits::InjectHook final : public vm::ExecHook {
 public:
  /// A non-null `journal` arms the propagation tracer: after injection the
  /// hook stays attached (instead of its post-activation detaches) so the
  /// whole post-fault suffix runs on the hooked slow path and every
  /// callback feeds the tracer. Persistent models already stay attached to
  /// run end, so staying attached is semantics-identical — only slower.
  InjectHook(const ir::Module&, const FaultModel& model,
             ir::Category category, const FaultPlan& plan, TrialSite site,
             const obs::GoldenJournal* journal)
      : category_(category),
        plan_(plan),
        model_(model),
        site_(site),
        tracing_(journal != nullptr),
        tracer_(journal) {
    if (site_.dormant) detach(site_.arm_time);  // sleep until the trigger
  }

  void on_instruction(const ir::Instruction& instr) override {
    ++site_.executed;  // absolute dynamic-instruction position
    if (tracing_) tracer_.on_instruction(site_.executed, instr);
    if (!site_.injected) {
      if (LlfiEngine::is_target(instr, category_, model_) && site_.reached())
        pending_ = true;
    } else if (plan_.model().persistent() && &instr == armed_def_) {
      const std::uint64_t o = occurrence_++;
      if (plan_.model().fires_at(o)) {
        pending_ = true;
      } else if (site_.activated && plan_.model().burst_done(occurrence_) &&
                 !tracing_) {
        detach();  // burst spent and fault observed: nothing left to do
      }
    }
  }

  std::uint64_t on_result(const vm::DynValueId& id, std::uint64_t raw) override {
    if (!pending_) {
      if (tracing_) tracer_.on_result(id);
      return raw;
    }
    pending_ = false;
    const unsigned width =
        model_.llfi_type_width ? id.def->type()->register_bits() : 64;
    if (!site_.injected) {
      site_.injected = true;
      armed_def_ = id.def;
      site_.static_site = id.def->id();
      site_.inject_at = site_.executed;
      site_.site_opcode = ir::opcode_name(id.def->opcode());
      site_.site_function = id.def->function()->name().c_str();
      site_.bit = plan_.primary_bit(width);
      occurrence_ = 1;  // this injection was occurrence 0
    }
    if (!site_.activated) remember(id);
    if (tracing_) tracer_.plant_root(id, site_.executed);
    return plan_.corrupt(raw, width);
  }

  void on_operand_read(const vm::DynValueId& id,
                       const ir::Instruction& user) override {
    if (tracing_) tracer_.on_operand_read(id, user);
    if (!site_.injected || site_.activated) return;
    if (!plan_.model().persistent()) {
      if (id == injected_id_) {
        site_.activated = true;
        // Tracing keeps the hook attached: the tracer needs the rest of
        // the run's callbacks to follow the fault.
        if (!tracing_) detach();
      }
      return;
    }
    const std::size_t n = ring_next_ < kRing ? ring_next_ : kRing;
    for (std::size_t i = 0; i < n; ++i) {
      if (ring_[i] == id) {
        site_.activated = true;
        ring_next_ = 0;  // read tracking is over; keep corrupting
        if (plan_.model().burst_done(occurrence_) && !tracing_) detach();
        return;
      }
    }
  }

  void on_argument_read(std::uint64_t frame, unsigned index,
                        const ir::Instruction& user) override {
    if (tracing_) tracer_.on_argument_read(frame, index, user);
  }

  void on_memory_access(const ir::Instruction& instr, std::uint64_t address,
                        unsigned size, bool is_store) override {
    if (tracing_) tracer_.on_memory_access(instr, address, size, is_store);
  }

  void on_call(const ir::CallInst& call, std::uint64_t caller_frame,
               std::uint64_t callee_frame) override {
    (void)caller_frame;
    if (tracing_) tracer_.on_call(call, callee_frame);
  }

  const TrialSite& site() const noexcept { return site_; }
  bool tracing() const noexcept { return tracing_; }
  obs::PropSummary prop_summary() const noexcept { return tracer_.summary(); }

 private:
  static constexpr std::size_t kRing = 64;

  void remember(const vm::DynValueId& id) {
    if (!plan_.model().persistent()) {
      injected_id_ = id;
      return;
    }
    ring_[ring_next_ % kRing] = id;
    ++ring_next_;
  }

  ir::Category category_;
  FaultPlan plan_;
  FaultModel model_;
  TrialSite site_;
  bool pending_ = false;
  vm::DynValueId injected_id_;                 // transient activation target
  vm::DynValueId ring_[kRing];                 // persistent activation window
  std::size_t ring_next_ = 0;
  const ir::Instruction* armed_def_ = nullptr;  // static site, re-fire key
  std::uint64_t occurrence_ = 0;
  bool tracing_ = false;
  obs::VmPropTracer tracer_;  // inert (empty) when tracing_ is false
};

/// Golden-run journal capture: one pc fingerprint per dynamic instruction
/// (attached to the ctor's golden run only when FAULTLAB_PROP is on).
class LlfiTraits::JournalHook final : public vm::ExecHook {
 public:
  explicit JournalHook(obs::GoldenJournal* journal) : journal_(journal) {}
  void on_instruction(const ir::Instruction& instr) override {
    journal_->pc.push_back(obs::vm_pc_fingerprint(instr));
  }

 private:
  obs::GoldenJournal* journal_;
};

template class CheckpointedEngine<LlfiTraits>;

bool LlfiEngine::is_target(const ir::Instruction& instr, ir::Category category,
                           const FaultModel& model) {
  if (!instr.has_uses()) return false;  // LLFI's def-use activation filter
  if (ir::ir_in_category(instr, category)) return true;
  // Section VII ablation: count getelementptr as arithmetic.
  return model.llfi_gep_as_arithmetic &&
         category == ir::Category::Arithmetic &&
         instr.opcode() == ir::Opcode::Gep && ir::ir_injectable(instr);
}

}  // namespace faultlab::fault
