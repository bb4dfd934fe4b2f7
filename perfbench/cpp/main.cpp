/// dagsfc_perfbench — runs one perfbench workload in this process and prints
/// its run record as the last line of stdout. perfbench/run.py is the entry
/// point; it builds this binary, runs each workload in a fresh process and
/// checks the record.
///
///   dagsfc_perfbench --workload fig6_offline|serve_churn|regional_hier
///                    --seed N --seconds S --trace 0|1
///
/// --seconds 0 runs the set-up only (run.py times several cold set-ups per
/// run this way).

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "util/build_info.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;  // first: its start time is the origin of setup_s
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.traced = value == "1";
    } else {
      std::cerr << "unknown flag " << key << "\n";
      return 2;
    }
  }
  if (!(args.seconds >= 0.0)) {
    std::cerr << "--seconds must be >= 0\n";
    return 2;
  }
  try {
    Record rec;
    if (workload == "fig6_offline") {
      rec = run_fig6_offline(args);
    } else if (workload == "serve_churn") {
      rec = run_serve_churn(args);
    } else if (workload == "regional_hier") {
      rec = run_regional_hier(args);
    } else {
      std::cerr << "unknown workload '" << workload << "'\n";
      return 2;
    }
    const dagsfc::util::BuildInfo info = dagsfc::util::build_info();
    rec.notes["version"] = info.version;
    rec.notes["build_flags"] = info.flags;
    std::cout << rec.json() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
