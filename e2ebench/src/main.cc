// mra_e2ebench — client round-trip benchmark of the mra query server.
//
//   mra_e2ebench --workload analytic|serve|commit_mix --seed N
//                --seconds S --trace 0|1 [--scale F] [--work-dir DIR]
//
// Starts an in-process net::Server over a database generated from the
// seed, drives it with net::Client connections over loopback, checks every
// answer, and prints as its last stdout line one JSON object with the keys
// correct, attempted, failed and metrics.  --trace 0 reports the
// end-to-end metrics; --trace 1 repeats the window with exec timing on and
// reports the per-layer metrics (README.md lists both sets).

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>

#include "harness.h"

namespace e2e {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every run of every workload reports each metric of its set, so the
// result line always has the same keys (0 where a workload bypasses the
// layer).  Keep in step with BENCHMARK.json and README.md.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"lat_p50_ms", "ms"},
    {"lat_p90_ms", "ms"},     {"throughput_rps", "1/s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"lat_samples", "count"},
    {"failed_frac", "ratio"},
    {"lat_p99_ms", "ms"},
    {"commit_p50_ms", "ms"},
    {"commit_p99_ms", "ms"},
    {"read_p99_ms", "ms"},
    {"write_amp", "ratio"},
    {"serve.point_p50_ms", "ms"},
    {"serve.range_p50_ms", "ms"},
    {"net.server_request_us.p50", "us"},
    {"net.client_overhead_us.mean", "us"},
    {"net.encode_us_per_krow", "us"},
    {"net.decode_us_per_krow", "us"},
    {"net.bytes_out_per_req", "B"},
    {"lang.parse_us.p50", "us"},
    {"lang.bind_us.p50", "us"},
    {"opt.optimize_us.p50", "us"},
    {"opt.estimate_calls_per_query", "count"},
    {"exec.lower_us.p50", "us"},
    {"exec.exec_us.p50", "us"},
    {"exec.rows_examined_per_row_out", "ratio"},
    {"exec.scan.self_ms", "ms"},
    {"exec.filter.self_ms", "ms"},
    {"exec.hash_join.self_ms", "ms"},
    {"exec.group_by.self_ms", "ms"},
    {"exec.dedup.self_ms", "ms"},
    {"exec.sort.self_ms", "ms"},
    {"exec.compute.self_ms", "ms"},
    {"exec.other.self_ms", "ms"},
    {"exec.hash.build_rows", "count"},
    {"exec.hash.probe_rows", "count"},
    {"exec.hash.peak_bytes", "B"},
    {"exec.batch_fill", "rows"},
    {"parallel.speedup", "ratio"},
    {"parallel.lanes", "count"},
    {"parallel.shed_total", "count"},
    {"parallel.tasks_per_query", "count"},
    {"sort.spill_runs", "count"},
    {"sort.spill_bytes", "B"},
    {"storage.put_relation_us_per_krow", "us"},
    {"wal.append_us.p50", "us"},
    {"wal.fsync_us.p50", "us"},
    {"wal.bytes_per_commit", "B"},
    {"wal.recover_s", "s"},
    {"txn.commit_us.p50", "us"},
    {"txn.constraint_eval_us", "us"},
    {"txn.read_wait_us.p99", "us"},
    {"txn.aborts", "count"},
    {"trace.op_self_over_exec", "ratio"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "mra_e2ebench: %s\n"
               "usage: mra_e2ebench --workload analytic|serve|commit_mix "
               "--seed N --seconds S --trace 0|1 [--scale F] "
               "[--work-dir DIR]\n",
               problem.c_str());
  std::exit(2);
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions o;
  for (int i = 1; i < argc; ++i) {
    std::string_view flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + std::string(flag));
    std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = value == "1";
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      } else if (flag == "--scale") {
        o.scale = std::stod(value);
      } else if (flag == "--work-dir") {
        o.work_dir = value;
      } else {
        Usage("unknown flag " + std::string(flag));
      }
    } catch (const std::exception&) {
      Usage("bad value for " + std::string(flag) + ": " + value);
    }
  }
  if (o.workload.empty()) Usage("--workload is required");
  if (!(o.seconds > 0) || !(o.scale > 0)) {
    Usage("--seconds and --scale must be positive");
  }
  return o;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  RunOptions options = ParseArgs(argc, argv);

  // Timing a debug build would measure the wrong program.
  if (std::string_view(MRA_E2E_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "mra_e2ebench: refusing to report from a %s build of mra; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 MRA_E2E_BUILD_TYPE);
    return 3;
  }

  // Sort runs spill under the temp directory; keep them in the work dir.
  std::error_code ec;
  std::string tmp_dir = options.work_dir + "/tmp";
  std::filesystem::create_directories(tmp_dir, ec);
  if (ec) {
    std::fprintf(stderr, "mra_e2ebench: cannot create %s: %s\n",
                 tmp_dir.c_str(), ec.message().c_str());
    return 1;
  }
  setenv("TMPDIR", std::filesystem::absolute(tmp_dir).c_str(), 1);

  WorkloadResult result;
  Status status;
  if (options.workload == "analytic") {
    status = RunAnalytic(options, &result);
  } else if (options.workload == "serve") {
    status = RunServe(options, &result);
  } else if (options.workload == "commit_mix") {
    status = RunCommitMix(options, &result);
  } else {
    Usage("unknown workload " + options.workload);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "mra_e2ebench: %s failed: %s\n",
                 options.workload.c_str(), status.ToString().c_str());
    return 1;
  }

  // The report keeps exactly the metric set of this mode, in list order.
  Report out;
  if (!options.trace) {
    for (const MetricSpec& m : kEndToEnd) {
      if (!result.report.Has(m.name)) {
        std::fprintf(stderr, "mra_e2ebench: %s did not measure %s\n",
                     options.workload.c_str(), m.name);
        return 1;
      }
      out.Add(m.name, result.report.Get(m.name), m.unit);
    }
  } else {
    for (const MetricSpec& m : kPerLayer) {
      out.Add(m.name, result.report.Get(m.name), m.unit);
    }
  }

  std::printf("# mra_e2ebench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("# nproc=%d cpu=\"%s\" compiler=\"%s\" build_type=%s "
              "server_workers=%d scale=%g\n",
              Nproc(), CpuModel().c_str(), MRA_E2E_COMPILER,
              MRA_E2E_BUILD_TYPE, Nproc(), options.scale);
  for (const std::string& line : result.stamp) {
    std::printf("# %s\n", line.c_str());
  }
  for (const std::string& problem : result.problems) {
    std::printf("# FAILED CHECK: %s\n", problem.c_str());
  }
  std::printf("%s", out.Table().c_str());
  std::printf("%s\n",
              out.Json(result.correct, std::max<uint64_t>(result.attempted, 1),
                       result.failed)
                  .c_str());
  return 0;
}
