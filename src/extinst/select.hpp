// Extended-instruction selection algorithms.
//
//  * select_greedy (paper Section 4): every maximal candidate sequence
//    becomes an extended instruction. Best case with unlimited PFUs and
//    free reconfiguration; thrashes badly with few real PFUs.
//  * select_selective (paper Section 5): keeps only sequences responsible
//    for more than `time_threshold` of total application time, then caps the
//    number of distinct configurations per loop at the PFU count, using the
//    subsequence matrix to prefer a short common subsequence over several
//    distinct maximal sequences when that wins.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "asmkit/program.hpp"
#include "cfg/cfg.hpp"
#include "cfg/liveness.hpp"
#include "extinst/extract.hpp"
#include "extinst/matrix.hpp"
#include "extinst/rewrite.hpp"
#include "isa/extdef.hpp"
#include "sim/profiler.hpp"
#include "sim/ucode.hpp"

namespace t1000 {

inline constexpr int kUnlimitedPfus = -1;

struct SelectPolicy {
  // PFUs available; kUnlimitedPfus disables the per-loop cap.
  int num_pfus = kUnlimitedPfus;
  // Keep sequences responsible for *more than* this fraction of
  // application time (the paper's 0.5%, §5). Strictly greater: a sequence
  // at exactly the threshold is rejected. Only select_selective uses it.
  double time_threshold = 0.005;
  // PFU capacity: windows whose LUT estimate exceeds this are never chosen.
  int lut_budget = 150;
  // Ablation switch: when false, the per-loop step considers only maximal
  // sequences (no common-subsequence windows from the k x k matrix).
  bool use_subsequence_matrix = true;
  ExtractPolicy extract;

  // Upper bounds validate() enforces (generous: the paper's machines have
  // at most a handful of PFUs and budgets of a few hundred LUTs).
  static constexpr int kMaxPfus = 4096;
  static constexpr int kMaxLutBudget = 1 << 20;
};

// Throws SimError naming the first field outside its bound:
//   num_pfus               kUnlimitedPfus or [0, kMaxPfus]
//   time_threshold         [0, 1]
//   lut_budget             [0, kMaxLutBudget]
//   extract.max_width      [1, 32] bits
//   extract.min_length     [2, kMaxUops]
//   extract.max_length     [extract.min_length, kMaxUops]
//   extract.max_inputs     [1, kMaxExtInputs]
//   extract.max_outputs    [1, kMaxExtOutputs]
// Selection and extraction assume these hold; outside them a run fails
// deep in the analysis or allocates from a negative size.
void validate(const SelectPolicy& policy);

struct Selection {
  ExtInstTable table;              // distinct configurations (Conf ids)
  std::vector<Application> apps;   // concrete rewrite sites
  // Distinct sequence lengths (micro-ops) per configuration, parallel to
  // table.defs(); exposed for the paper's Section 4.1 statistics.
  std::vector<int> lengths;
  // Estimated LUT cost per configuration (widest profiled inputs seen over
  // its applications), parallel to table.defs(); feeds Figure 7.
  std::vector<int> lut_costs;

  int num_configs() const { return table.size(); }
};

// All inputs precomputed once per program.
struct AnalyzedProgram {
  const Program* program = nullptr;
  Cfg cfg;
  Liveness liveness;
  Profile profile;
  // The policy the sites were extracted under; selectors re-derive windows
  // with the same candidate shape (max_inputs/max_outputs).
  ExtractPolicy extract;
  std::vector<SeqSite> sites;  // maximal candidate sites
  // Pre-decoded uop stream for `program` (no EXT table — the baseline
  // program). Built once here, then shared by every consumer that
  // functionally executes the unrewritten program (profiling above, the
  // harness's baseline trace). Borrowing AnalyzedProgram's lifetime rules:
  // valid only while `program` outlives it.
  std::shared_ptr<const UopProgram> ucode;
};

// Profiles (functionally executes) `program` and extracts maximal sites.
AnalyzedProgram analyze_program(const Program& program,
                                std::uint64_t max_steps,
                                const ExtractPolicy& policy = {});

Selection select_greedy(const AnalyzedProgram& ap, int lut_budget = 150);

// The selective pass's hot-sequence predicate (paper §5): true when the
// sequence's cycles are responsible for more than `threshold` of the total
// application time. Strictly greater-than — a sequence sitting exactly at
// the threshold does not qualify (pinned by select_test.cpp).
bool exceeds_time_threshold(std::uint64_t seq_cycles,
                            std::uint64_t total_cycles, double threshold);

Selection select_selective(const AnalyzedProgram& ap,
                           const SelectPolicy& policy);

}  // namespace t1000
