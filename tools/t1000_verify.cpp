// t1000-verify: the static-analysis entry point (analysis/verifier.hpp).
// Verifies IR well-formedness and, when a selection pipeline runs, the
// extended-instruction legality / semantic-equivalence / bitwidth rules the
// paper's Sections 3-5 rest on. DESIGN.md Section 11 has the rule catalog.
//
//   t1000-verify input.{s,obj} [--selector S] [...]   one program
//   t1000-verify --workloads   [--selector S] [...]   every bundled workload
//
// For assembly inputs (and --workloads) the tool runs the full pipeline per
// selector — profile, select, rewrite — and verifies the selection against
// the original program. Object files that already carry EXT instructions
// get module-level verification against their configuration table (the
// selection that produced them is not recoverable from the binary).
//
// Exit code 0 iff no error-severity diagnostics. The --json report splits
// deterministic content (diagnostics, stats, width audit — byte-identical
// across runs) from per-phase wall-clock under "timing"; compare with
// `jq 'del(.. | .timing?)'`.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/verifier.hpp"
#include "extinst/rewrite.hpp"
#include "extinst/select.hpp"
#include "tool_common.hpp"
#include "workloads/workload.hpp"

using namespace t1000;

namespace {

struct VerifyJob {
  std::string name;      // workload name or input path
  Selector selector = Selector::kNone;
  Program program;
  const ExtInstTable* table = nullptr;  // pre-built binaries: module-only
  bool pipeline = false;                // run select+rewrite, then verify
  std::uint64_t max_steps = 1u << 26;
};

VerifyReport run_job(const VerifyJob& job, const SelectPolicy& policy,
                     VerifyOptions options) {
  if (!job.pipeline || job.selector == Selector::kNone) {
    return verify_module(job.program, job.table, options);
  }
  const AnalyzedProgram ap =
      analyze_program(job.program, job.max_steps, policy.extract);
  const Selection sel = job.selector == Selector::kGreedy
                            ? select_greedy(ap, policy.lut_budget)
                            : select_selective(ap, policy);
  const RewriteResult rr = rewrite_program(job.program, sel.apps);
  return verify_selection(ap, sel, rr, options);
}

Json job_json(const VerifyJob& job, const VerifyReport& report) {
  Json j = Json::object();
  j["name"] = Json(job.name);
  j["selector"] = Json(selector_name(job.selector));
  j["report"] = to_json(report);
  j["timing"] = to_json(report.timing);
  return j;
}

void print_job(const VerifyJob& job, const VerifyReport& report) {
  const VerifyStats& s = report.stats;
  std::printf(
      "%s [%.*s]: %s (%d config(s), %d app(s); equivalence: %d structural, "
      "%d exhaustive, %d sampled, %llu evaluation(s); translation: %d "
      "proven) in %.1f ms\n",
      job.name.c_str(), static_cast<int>(selector_name(job.selector).size()),
      selector_name(job.selector).data(), report.summary().c_str(), s.configs,
      s.apps, s.equiv_structural, s.equiv_exhaustive, s.equiv_sampled,
      static_cast<unsigned long long>(s.equiv_evals), s.translation_proven,
      report.timing.total_ms);
  for (const Diagnostic& d : report.diagnostics) {
    std::fprintf(stderr, "  %.*s: %s @ %s: %s\n",
                 static_cast<int>(severity_name(d.severity).size()),
                 severity_name(d.severity).data(), d.rule_id.c_str(),
                 d.location.c_str(), d.message.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  tools::ToolOptions common;
  bool workloads = false;
  bool pedantic = false;
  bool no_matrix = false;
  long pfus = kUnlimitedPfus;
  double threshold = 0.005;
  std::string selector_arg = "all";
  OptionParser parser = common.make_parser(
      "t1000-verify",
      "statically verify IR well-formedness and extended-instruction "
      "legality/equivalence");
  parser.add_flag("--workloads",
                  "verify every bundled workload instead of an input file",
                  &workloads);
  parser.add_string("--selector", "S",
                    "none, greedy, selective, or all (default: all)",
                    &selector_arg);
  parser.add_int("--pfus", "N", "PFU budget for selective selection", &pfus);
  parser.add_double("--threshold", "F",
                    "selective time threshold (default: 0.005)", &threshold);
  parser.add_flag("--no-matrix", "disable the subsequence matrix",
                  &no_matrix);
  long max_inputs = 2;
  long max_outputs = 1;
  parser.add_int("--max-inputs", "N",
                 "candidate shape: external register inputs (default: 2)",
                 &max_inputs);
  parser.add_int("--max-outputs", "N",
                 "candidate shape: register outputs (default: 1)",
                 &max_outputs);
  parser.add_flag("--pedantic",
                  "report profile-only width reliance as warnings",
                  &pedantic);
  parser.set_positional("input.{s,obj}", 0, 1);
  const std::vector<std::string> inputs = parser.parse(argc, argv);

  if (workloads != inputs.empty()) {
    std::fprintf(stderr,
                 "error: pass exactly one of an input file or --workloads\n");
    return 2;
  }

  std::vector<Selector> selectors;
  if (selector_arg == "all") {
    selectors = {Selector::kNone, Selector::kGreedy, Selector::kSelective};
  } else {
    Selector s = Selector::kNone;
    if (!selector_from_name(selector_arg, &s)) {
      std::fprintf(stderr, "error: unknown selector '%s'\n",
                   selector_arg.c_str());
      return 2;
    }
    selectors = {s};
  }

  SelectPolicy policy;
  policy.num_pfus = static_cast<int>(pfus);
  policy.time_threshold = threshold;
  policy.use_subsequence_matrix = !no_matrix;
  policy.extract.max_inputs = static_cast<int>(max_inputs);
  policy.extract.max_outputs = static_cast<int>(max_outputs);

  try {
    validate(policy);
    // Keep loaded objects alive for the duration (jobs hold table pointers).
    std::vector<LoadedObject> loaded;
    std::vector<VerifyJob> jobs;
    if (workloads) {
      std::vector<Workload> all = all_workloads();
      for (const Workload& w : extended_workloads()) all.push_back(w);
      for (const Workload& w : compiled_workloads()) all.push_back(w);
      for (const Workload& w : all) {
        for (const Selector s : selectors) {
          VerifyJob job;
          job.name = w.name;
          job.selector = s;
          job.program = workload_program(w);
          job.pipeline = true;
          job.max_steps = w.max_steps;
          jobs.push_back(std::move(job));
        }
      }
    } else {
      loaded.push_back(tools::load_input(inputs[0]));
      const LoadedObject& obj = loaded.back();
      if (obj.ext_table.size() > 0) {
        // A pre-rewritten binary: the selection is gone, module checks only.
        VerifyJob job;
        job.name = inputs[0];
        job.program = obj.program;
        job.table = &obj.ext_table;
        jobs.push_back(std::move(job));
      } else {
        for (const Selector s : selectors) {
          VerifyJob job;
          job.name = inputs[0];
          job.selector = s;
          job.program = obj.program;
          job.pipeline = true;
          jobs.push_back(std::move(job));
        }
      }
    }

    VerifyOptions options = verify_options_for(policy);
    options.pedantic = pedantic;

    int total_errors = 0;
    int total_warnings = 0;
    Json runs = Json::array();
    for (const VerifyJob& job : jobs) {
      const VerifyReport report = run_job(job, policy, options);
      print_job(job, report);
      total_errors += report.errors();
      total_warnings += report.warnings();
      runs.push_back(job_json(job, report));
    }

    Json doc = Json::object();
    doc["tool"] = Json("t1000-verify");
    doc["ok"] = Json(total_errors == 0);
    doc["errors"] = Json(total_errors);
    doc["warnings"] = Json(total_warnings);
    doc["runs"] = std::move(runs);
    std::printf("%zu verification run(s): %d error(s), %d warning(s)\n",
                jobs.size(), total_errors, total_warnings);
    const int json_rc = common.finish(doc);
    return json_rc != 0 ? json_rc : (total_errors == 0 ? 0 : 1);
  } catch (...) {
    return tools::finish_current_exception(common, "t1000-verify");
  }
}
