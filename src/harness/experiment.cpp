#include "harness/experiment.hpp"

#include <string>
#include <utility>

#include "harness/identity.hpp"
#include "harness/serialize.hpp"
#include "obs/scope.hpp"
#include "sim/trace.hpp"

namespace t1000 {
namespace {

// Memoization key for a prepared run — the shared identity helper's
// preparation grain (see harness/identity.hpp for why machine config is
// deliberately absent).
std::string prep_key(const RunSpec& spec) {
  return RunIdentity::preparation_key(spec);
}

// Memoization key for a shape-sensitive analysis: the extract policy's
// canonical JSON (harness/serialize.cpp), so any future policy field joins
// the key automatically — exactly how RunIdentity handles the result cache.
std::string extract_key(const ExtractPolicy& policy) {
  return to_json(policy).dump();
}

// One experiment phase as an obs::Scope: an `exp.phase_ns|phase=<name>`
// observation plus a `phase.<name>` span under the calling thread's current
// trace context. Both sinks optional; an empty ExperimentObs costs the two
// clock reads.
obs::Scope phase_scope(const ExperimentObs& obs, std::string_view phase) {
  const std::string name(phase);
  return obs::Scope(obs.metrics != nullptr
                        ? obs.metrics->ns_histogram("exp.phase_ns|phase=" + name)
                        : nullptr,
                    obs.journal, obs::current_trace_context(), "phase." + name);
}

}  // namespace

std::string_view selector_name(Selector selector) {
  switch (selector) {
    case Selector::kNone: return "none";
    case Selector::kGreedy: return "greedy";
    case Selector::kSelective: return "selective";
  }
  return "unknown";
}

bool selector_from_name(std::string_view name, Selector* out) {
  for (const Selector s :
       {Selector::kNone, Selector::kGreedy, Selector::kSelective}) {
    if (selector_name(s) == name) {
      *out = s;
      return true;
    }
  }
  return false;
}

template <typename T>
OnceCell<T>& WorkloadExperiment::cell(CellMap<T>& cells,
                                      const std::string& key) const {
  std::lock_guard<std::mutex> lock(prep_mu_);
  std::shared_ptr<OnceCell<T>>& entry = cells[key];
  if (!entry) entry = std::make_shared<OnceCell<T>>();
  return *entry;  // map nodes are never erased: the reference stays valid
}

WorkloadExperiment::WorkloadExperiment(const Workload& workload,
                                       ExperimentObs obs)
    : workload_(workload), obs_(obs), program_(workload_program(workload)) {
  analysis_ = analyze_program(program_, workload_.max_steps);
  default_extract_key_ = extract_key(analysis_.extract);

  // Record the baseline trace eagerly: it doubles as the functional
  // checksum run every rewritten variant is validated against. The
  // analysis already decoded the baseline program (for profiling); the
  // recording replays that same uop stream.
  auto base = std::make_shared<PreparedRun>();
  base->ucode = analysis_.ucode;
  {
    const obs::Scope phase = phase_scope(obs_, "record");
    base->trace = record_trace(*base->ucode, workload_.max_steps);
  }
  base_checksum_ = base->trace.checksum();
  base->partial.checksum = base_checksum_;
  base->partial.trace_steps = base->trace.size();
  base->partial.trace_hash = base->trace.content_hash();

  // Fill the cell now so later lookups see the baseline as built.
  cell(prepared_, "none").get([&] { return std::move(base); });
  traces_recorded_.store(1);
}

const AnalyzedProgram& WorkloadExperiment::analysis_for(
    const ExtractPolicy& policy) const {
  const std::string key = extract_key(policy);
  if (key == default_extract_key_) return analysis_;
  return *cell(analyses_, key).get([&] {
    return std::make_shared<const AnalyzedProgram>(
        analyze_program(program_, workload_.max_steps, policy));
  });
}

std::shared_ptr<const WorkloadExperiment::PreparedRun>
WorkloadExperiment::build_prepared(const RunSpec& spec) const {
  // Selection reads the candidate shape from the analysis it selects over
  // (ap.extract is authoritative for the sites), so a spec with a widened
  // extract policy must select from the matching shape-sensitive analysis.
  const AnalyzedProgram& ap = analysis_for(spec.policy.extract);
  auto run = std::make_shared<PreparedRun>();
  {
    // Everything between the analysis and the trace recording — selection,
    // rewrite, uop decode — is the "decode" phase: producing the executable
    // uop stream for this preparation.
    const obs::Scope phase = phase_scope(obs_, "decode");
    run->selection = spec.selector == Selector::kGreedy
                         ? select_greedy(ap, spec.policy.lut_budget)
                         : select_selective(ap, spec.policy);
    run->rewrite = rewrite_program(program_, run->selection.apps);
    run->rewritten = true;
    // PreparedRun is heap-allocated and immutable once built, so the
    // decoded stream's borrowed pointers (rewrite.program, selection.table)
    // stay valid for as long as the ucode itself is reachable.
    run->ucode = std::make_shared<const UopProgram>(
        UopProgram::build(run->rewrite.program, &run->selection.table));
  }
  {
    const obs::Scope phase = phase_scope(obs_, "record");
    run->trace = record_trace(*run->ucode, workload_.max_steps);
  }
  if (run->trace.checksum() != base_checksum_) {
    throw SimError("rewrite changed " + workload_.name + " checksum");
  }
  run->partial.checksum = run->trace.checksum();
  run->partial.num_configs = run->selection.num_configs();
  run->partial.num_apps = static_cast<int>(run->selection.apps.size());
  run->partial.lengths = run->selection.lengths;
  run->partial.lut_costs = run->selection.lut_costs;
  run->partial.trace_steps = run->trace.size();
  run->partial.trace_hash = run->trace.content_hash();
  return run;
}

const WorkloadExperiment::PreparedRun& WorkloadExperiment::prepared_run(
    const RunSpec& spec) const {
  // Every entry point (run, prepared, verify) comes through here, so a bad
  // policy fails before any analysis or selection work.
  validate(spec.policy);
  bool built = false;
  const std::shared_ptr<const PreparedRun>& run = cell(prepared_, prep_key(spec)).get(
      [&] {
        std::shared_ptr<const PreparedRun> out = build_prepared(spec);
        traces_recorded_.fetch_add(1);
        return out;
      },
      &built);
  if (!built) trace_reuses_.fetch_add(1);
  return *run;
}

WorkloadExperiment::PreparedView WorkloadExperiment::prepared(
    const RunSpec& spec) const {
  const PreparedRun& prep = prepared_run(spec);
  PreparedView view;
  view.program = prep.rewritten ? &prep.rewrite.program : &program_;
  view.table = prep.rewritten ? &prep.selection.table : nullptr;
  view.trace = &prep.trace;
  view.ucode = prep.ucode.get();
  return view;
}

const VerifyReport& WorkloadExperiment::verify(const RunSpec& spec) const {
  const PreparedRun& prep = prepared_run(spec);
  return *cell(verified_, prep_key(spec)).get([&] {
    verify_reports_.fetch_add(1);
    obs::Scope phase = phase_scope(obs_, "verify");
    const VerifyOptions options = verify_options_for(spec.policy);
    auto report = std::make_shared<const VerifyReport>(
        prep.rewritten ? verify_selection(analysis_for(spec.policy.extract),
                                          prep.selection, prep.rewrite, options)
                       : verify_module(program_, nullptr, options));
    verify_wall_ns_.fetch_add(phase.close());
    return report;
  });
}

RunOutcome WorkloadExperiment::run(const RunSpec& spec) const {
  const PreparedRun& prep = prepared_run(spec);
  if (spec.verify) {
    const VerifyReport& report = verify(spec);
    if (!report.ok()) {
      throw VerifyError(workload_.name + " (" +
                        std::string(selector_name(spec.selector)) +
                        ") failed verification: " + report.summary());
    }
  }
  const Program& program = prep.rewritten ? prep.rewrite.program : program_;
  const ExtInstTable* table = prep.rewritten ? &prep.selection.table : nullptr;
  RunOutcome out = prep.partial;
  const obs::Scope phase = phase_scope(obs_, "replay");
  if (spec.observe) {
    SimObservation obs;
    out.stats = simulate({.program = &program,
                          .ext_table = table,
                          .trace = &prep.trace,
                          .machine = spec.machine,
                          .max_cycles = spec.max_cycles,
                          .observation = &obs});
    out.observed = true;
    out.stalls = obs.stalls;
  } else {
    out.stats = simulate({.program = &program,
                          .ext_table = table,
                          .trace = &prep.trace,
                          .machine = spec.machine,
                          .max_cycles = spec.max_cycles});
  }
  return out;
}

double speedup(const SimStats& baseline, const SimStats& variant) {
  return static_cast<double>(baseline.cycles) /
         static_cast<double>(variant.cycles);
}

MachineConfig baseline_machine() { return MachineConfig{}; }

MachineConfig pfu_machine(int pfus, int reconfig_latency) {
  MachineConfig cfg;
  cfg.pfu.count = pfus;
  cfg.pfu.reconfig_latency = reconfig_latency;
  return cfg;
}

RunSpec baseline_spec(std::string workload, std::string label) {
  RunSpec spec;
  spec.workload = std::move(workload);
  spec.label = std::move(label);
  spec.selector = Selector::kNone;
  spec.machine = baseline_machine();
  return spec;
}

RunSpec greedy_spec(std::string workload, std::string label, int pfus,
                    int reconfig_latency) {
  RunSpec spec;
  spec.workload = std::move(workload);
  spec.label = std::move(label);
  spec.selector = Selector::kGreedy;
  spec.machine = pfu_machine(pfus, reconfig_latency);
  return spec;
}

RunSpec selective_spec(std::string workload, std::string label, int pfus,
                       int reconfig_latency) {
  RunSpec spec;
  spec.workload = std::move(workload);
  spec.label = std::move(label);
  spec.selector = Selector::kSelective;
  spec.machine = pfu_machine(pfus, reconfig_latency);
  spec.policy.num_pfus =
      pfus == PfuConfig::kUnlimited ? kUnlimitedPfus : pfus;
  return spec;
}

}  // namespace t1000
