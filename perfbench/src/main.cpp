// dmsim_perfbench — the repository benchmark's measuring program.
//
//   dmsim_perfbench --workload exa-40k|synth-1k-ndjson|serve-whatif
//                   --seed N --seconds S --trace 0|1 --workdir DIR
//                   [--identity-file FILE] [--print-identity]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// Progress and correctness notes go to stderr; the last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
// --identity-file names the recorded simulated results to check against;
// --print-identity prints this workload and seed's line of that file,
// without timing anything.
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "perfbench.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::cerr << "error: " << why
            << "\nusage: dmsim_perfbench --workload "
               "exa-40k|synth-1k-ndjson|serve-whatif --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--identity-file FILE] "
               "[--print-identity]\n";
  std::exit(2);
}

[[nodiscard]] perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-identity") {
      opt.print_identity = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (arg == "--workdir") {
        opt.workdir = value;
      } else if (arg == "--identity-file") {
        opt.identity_file = value;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (opt.workload != "exa-40k" && opt.workload != "synth-1k-ndjson" &&
      opt.workload != "serve-whatif") {
    usage("unknown or missing --workload");
  }
  if (!have_seed) usage("missing --seed");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  if (opt.workdir.empty()) usage("missing --workdir");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
  perfbench::Report report;
  try {
    if (opt.print_identity) {
      const std::string identity = opt.workload == "serve-whatif"
                                       ? perfbench::serve_identity(opt)
                                       : perfbench::sim_identity(opt);
      std::error_code ec;
      std::filesystem::remove_all(opt.workdir, ec);
      std::cout << opt.workload << ' ' << opt.seed << ' ' << identity << '\n';
      return 0;
    }
    if (opt.workload == "serve-whatif") {
      perfbench::run_serve_workload(opt, report);
    } else {
      perfbench::run_sim_workload(opt, report);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(opt.workdir, ec);
  std::cout << report.to_json() << std::endl;
  return 0;
}
