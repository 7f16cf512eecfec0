// The single authoritative assembly of a run's identity.
//
// Three harness layers need to agree, field for field, on what determines
// a run's result: the result cache (harness/cache.hpp) keys memoized
// outcomes on it, the serializer (harness/serialize.hpp) embeds it in the
// results JSON, and the grid's scheduler (harness/grid.cpp) groups
// RunSpecs that share one preparation into one unit of work. Before this
// helper each site re-listed the RunSpec fields by hand, and a field added
// to one but not the others would silently serve stale cache entries or
// group incompatible runs. RunIdentity is that list, written once.
//
// Three grains of identity, coarsest to finest:
//
//  * preparation_key(): what the prepared run (selection, rewrite,
//    committed trace) depends on — the selector and every policy field,
//    and nothing else. Specs sharing it replay the same trace.
//  * batch_key(): the grouping rule — specs with equal batch keys form
//    one grid scheduling unit, and may be timed as lanes of one
//    simulate_replay_batch sweep (the benchmark's traced grid replica
//    does). The preparation plus the workload and the verify flag; the
//    machine, max_cycles, and observe vary freely within a group.
//  * append_result_fields(): every RunSpec field that can change the
//    simulation result, appended in the canonical serialization order.
//    The cache key and the results JSON are both built on it.
#pragma once

#include <string>

#include "harness/experiment.hpp"
#include "harness/json.hpp"

namespace t1000 {

struct RunIdentity {
  // Appends the result-determining RunSpec fields to `out` in canonical
  // order: selector, machine, policy, max_cycles, verify, observe.
  // Workload and label are the caller's business (the cache key includes
  // the workload and the program hash; the label is presentation only).
  static void append_result_fields(const RunSpec& spec, Json* out);

  // Identity of the prepared run `spec` replays (see
  // WorkloadExperiment::prepared_run): "none" for the baseline, else
  // selector name + every policy field. Machine configuration is
  // deliberately absent — sharing one trace across machines is the point.
  static std::string preparation_key(const RunSpec& spec);

  // The grouping rule: specs with equal batch keys replay the same
  // prepared trace under the same verify regime, so the grid runs them as
  // one unit and the lane API may time them as lanes of one sweep.
  // Machine, max_cycles, and observe vary within a group.
  static std::string batch_key(const RunSpec& spec);
};

}  // namespace t1000
