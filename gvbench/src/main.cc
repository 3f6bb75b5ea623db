// gvbench: runs one named GridVine workload for one seed and prints its
// metrics. The last line of standard output is the JSON result:
//
//   gvbench --workload lookup --seed 7 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 adds a traced pass
// and reports the per-layer metrics instead (plus a Chrome trace and a
// per-layer self-time table under .bench_out/).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: gvbench --workload lookup|mediate|serve|scale "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  gvbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      args.workload = v;
    } else if (key == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(v, "0") != 0;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0) return Usage();

  gvbench::RunOutput out;
  if (args.workload == "lookup") {
    out = gvbench::RunLookup(args);
  } else if (args.workload == "mediate") {
    out = gvbench::RunMediate(args);
  } else if (args.workload == "serve") {
    out = gvbench::RunServe(args);
  } else if (args.workload == "scale") {
    out = gvbench::RunScale(args);
  } else {
    return Usage();
  }

  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), (unsigned long long)args.seed,
              args.seconds, int(args.trace));
  for (const auto& n : out.notes) std::printf("  %s\n", n.c_str());
  for (const auto& m : out.metrics) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": " + std::string(out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            gvbench::JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return out.correct ? 0 : 1;
}
