// perfbench: the llmdm benchmark. One process runs one workload:
//
//   perfbench --workload <wire_fresh|serve_reuse|cache_hot|cache_churn>
//             --seed <n> --seconds <s> --trace <0|1> [--state-dir <dir>]
//
// It prints a report, a fingerprint line, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. It exits
// non-zero when an output check fails.
#include <sys/stat.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include "vectordb/kernels.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <wire_fresh|serve_reuse|cache_hot|"
               "cache_churn> --seed <n> --seconds <s> --trace <0|1> "
               "[--state-dir <dir>]\n",
               argv0);
  return 2;
}

bool MakeDirs(const std::string& path) {
  for (size_t pos = 1; pos <= path.size(); ++pos) {
    if (pos == path.size() || path[pos] == '/') {
      std::string prefix = path.substr(0, pos);
      if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
    }
  }
  return true;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Fingerprint(const RunOptions& options) {
  struct utsname uts;
  std::string machine = ::uname(&uts) == 0 ? uts.machine : "unknown";
  namespace kernels = llmdm::vectordb::kernels;
  std::string out = "{";
  out += "\"workload\": " + JsonString(options.workload);
  out += ", \"seed\": " + std::to_string(options.seed);
  out += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"machine\": " + JsonString(machine);
  out += ", \"dispatch\": " +
         JsonString(kernels::DispatchName(kernels::ActiveDispatch()));
  out += ", \"compiler\": " + JsonString(std::string("g++ ") + __VERSION__);
  out += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  out += ", \"trace\": " + std::string(options.trace ? "1" : "0");
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  options.state_dir = ".bench_build/perfbench-state";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--state-dir") {
      options.state_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage(argv[0]);
  }
  long cores = sysconf(_SC_NPROCESSORS_ONLN);
  options.max_threads = static_cast<size_t>(std::clamp(cores, 1L, 4L));
  if (!MakeDirs(options.state_dir)) {
    std::fprintf(stderr, "cannot create %s\n", options.state_dir.c_str());
    return 2;
  }

  RunResult result;
  if (options.workload == "wire_fresh") {
    result = perfbench::RunWireFresh(options);
  } else if (options.workload == "serve_reuse") {
    result = perfbench::RunServeReuse(options);
  } else if (options.workload == "cache_hot") {
    result = perfbench::RunCacheHot(options);
  } else if (options.workload == "cache_churn") {
    result = perfbench::RunCacheChurn(options);
  } else {
    return Usage(argv[0]);
  }

  // run.py checks the metric names and units against BENCHMARK.json.
  std::set<std::string> reported;
  for (const perfbench::Metric& m : result.metrics) {
    if (!std::isfinite(m.value) || !reported.insert(m.name).second) {
      result.Fail("metric " + m.name + " is not finite or is reported twice");
    }
  }

  for (const std::string& line : result.report) {
    std::printf("# %s\n", line.c_str());
  }
  for (const perfbench::Metric& m : result.metrics) {
    std::printf("# %-34s %16.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("# requests: attempted %llu, succeeded %llu, failed %llu "
              "(of which shed %llu)\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.attempted - result.failed),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.shed));
  std::printf("# fingerprint %s\n", Fingerprint(options).c_str());
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) json += ", ";
    json += JsonString(m.name) + ": {\"value\": " + value +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.correct && result.attempted > 0 ? 0 : 1;
}
