// t1000-opt: the extended-instruction "compiler" pass. Profiles a program,
// selects extended instructions (greedy or selective), rewrites the binary,
// and writes a T1K1 object carrying the PFU configurations.
//
//   t1000-opt input.{s,obj} [-o out.obj] [--greedy] [--pfus N]
//             [--threshold F] [--no-matrix] [--report] [--json FILE]
#include <cstdio>

#include "extinst/rewrite.hpp"
#include "extinst/select.hpp"
#include "hwcost/lut_model.hpp"
#include "sim/executor.hpp"
#include "tool_common.hpp"

using namespace t1000;

int main(int argc, char** argv) {
  tools::ToolOptions common;
  bool greedy = false;
  bool report = false;
  bool no_matrix = false;
  long pfus = kUnlimitedPfus;
  double threshold = 0.005;
  std::string out = "opt.obj";
  OptionParser parser = common.make_parser(
      "t1000-opt", "select extended instructions and rewrite the binary");
  parser.add_flag("--greedy", "greedy selection (default: selective)", &greedy);
  parser.add_int("--pfus", "N", "PFU budget for selective selection", &pfus);
  parser.add_double("--threshold", "F",
                    "selective time threshold (default: 0.005)", &threshold);
  parser.add_flag("--no-matrix", "disable the subsequence matrix", &no_matrix);
  parser.add_flag("--report", "print each selected configuration", &report);
  parser.add_string("-o", "FILE", "output object file (default: opt.obj)",
                    &out);
  const std::string input = parser.parse(argc, argv)[0];
  try {
    const LoadedObject obj = tools::load_input(input);
    if (obj.ext_table.size() > 0) {
      std::fprintf(stderr, "error: input already contains EXT instructions\n");
      return 1;
    }
    SelectPolicy policy;
    policy.num_pfus = static_cast<int>(pfus);
    policy.time_threshold = threshold;
    policy.use_subsequence_matrix = !no_matrix;
    validate(policy);
    const AnalyzedProgram ap = analyze_program(obj.program, 1u << 26);
    Selection sel = greedy ? select_greedy(ap) : select_selective(ap, policy);
    const RewriteResult rr = rewrite_program(obj.program, sel.apps);

    // Validate semantics before emitting anything.
    Executor ref(obj.program);
    ref.run(1u << 26);
    Executor opt(rr.program, &sel.table);
    opt.run(1u << 26);
    if (!ref.halted() || !opt.halted() || ref.reg(2) != opt.reg(2) ||
        ref.reg(3) != opt.reg(3)) {
      std::fprintf(stderr, "internal error: rewrite changed semantics\n");
      return 1;
    }

    save_object_file(out, rr.program, &sel.table);
    std::printf("%s: %d -> %d instructions, %d configuration(s), "
                "%zu site(s) -> %s\n",
                input.c_str(), obj.program.size(), rr.program.size(),
                sel.num_configs(), sel.apps.size(), out.c_str());
    if (report) {
      for (int c = 0; c < sel.num_configs(); ++c) {
        const ExtInstDef& def = sel.table.at(static_cast<ConfId>(c));
        std::printf("  Conf %d: %d ops, ~%d LUTs, saves %d cycle(s)/use:", c,
                    def.length(), sel.lut_costs[static_cast<std::size_t>(c)],
                    def.base_cycles() - 1);
        for (const MicroOp& u : def.uops()) {
          std::printf(" %s", std::string(mnemonic(u.op)).c_str());
        }
        std::printf("\n");
      }
    }
    Json doc = Json::object();
    doc["tool"] = Json("t1000-opt");
    doc["input"] = Json(input);
    doc["output"] = Json(out);
    doc["selector"] = Json(greedy ? "greedy" : "selective");
    doc["original_instructions"] = Json(obj.program.size());
    doc["rewritten_instructions"] = Json(rr.program.size());
    doc["num_configs"] = Json(sel.num_configs());
    doc["num_sites"] = Json(sel.apps.size());
    doc["lut_costs"] = Json::array_of(sel.lut_costs);
    return common.finish(doc);
  } catch (...) {
    return tools::finish_current_exception(common, "t1000-opt");
  }
}
