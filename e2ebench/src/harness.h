// Shared machinery of the end-to-end benchmark: metric reports, registry
// deltas, the in-memory span recorder, the in-process server fixture and
// the closed-loop client runner.  The three workloads (analytic.cc,
// serve.cc, commit_mix.cc) are built from these pieces; main.cc parses the
// command line and prints the result line.

#ifndef MRA_E2EBENCH_HARNESS_H_
#define MRA_E2EBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "mra/common/result.h"
#include "mra/core/relation.h"
#include "mra/net/client.h"
#include "mra/net/protocol.h"
#include "mra/net/server.h"
#include "mra/obs/metrics.h"
#include "mra/txn/database.h"

namespace e2e {

using mra::Relation;
using mra::Result;
using mra::Status;

int64_t NowNs();
double SecondsSince(int64_t start_ns);

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Peak resident set size of this process (VmHWM), in MiB, since the
/// last ResetPeakRss() (or since start where the reset is not allowed).
double PeakRssMb();
void ResetPeakRss();

/// Command-line settings of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Multiplies every relation size; the self-test runs at a tiny scale.
  double scale = 1.0;
  /// Working directory for durable databases, sort spill runs and span
  /// dumps.
  std::string work_dir = ".bench_build/e2ebench/work";
};

/// Named metrics in emission order, each with its unit.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;
  /// The result line: correct, attempted, failed and the metrics.
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;
  /// Human-readable "name value unit" lines.
  std::string Table() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Differences of the process-wide registry since construction.  The
/// server runs in this process, so its counters and histograms are here.
class RegistryDelta {
 public:
  RegistryDelta();
  uint64_t Counter(const std::string& name) const;
  /// Histogram observations made since construction.
  mra::obs::HistogramData Histogram(const std::string& name) const;
  int64_t GaugeNow(const std::string& name) const;

 private:
  mra::obs::MetricsSnapshot before_;
};

/// One span: a layer call the benchmark made or a phase the server's
/// stats trailer reported.  Trailer phases and operators carry measured
/// durations only; they are laid end to end inside their parent, so
/// their self time is exact while their start offsets are nominal.
struct Span {
  std::string name;
  uint64_t query_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // Index into the recorder, -1 for a root.
};

/// In-memory span store, shared by the client threads of a traced run and
/// written out once the run ends.
class SpanRecorder {
 public:
  /// Appends a span and returns its index.
  int64_t Add(Span span);
  /// Records a trailer as children of `parent`: server.bind/optimize/
  /// lower/exec, and the operator tree (exec.<kind> spans) under exec.
  void AddTrailer(int64_t parent, const mra::net::WireQueryStats& stats);
  /// Self time per span: duration minus the union of its children.
  std::vector<int64_t> SelfTimes() const;
  /// Total self time and span count per name.
  std::map<std::string, std::pair<int64_t, uint64_t>> SelfByName() const;
  size_t size() const;
  /// One JSON object per line: name, query_id, start/end/self ns, parent.
  Status WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Runs `fn` under a span named `name` when `spans` is non-null.
template <typename Fn>
auto Traced(SpanRecorder* spans, const std::string& name, uint64_t query_id,
            Fn&& fn) {
  int64_t start = NowNs();
  auto result = fn();
  if (spans != nullptr) spans->Add({name, query_id, start, NowNs(), -1});
  return result;
}

/// Maps a physical operator name to the per-layer bucket it is reported
/// under (scan, filter, hash_join, group_by, dedup, sort, compute, other).
std::string OperatorBucket(const std::string& op_name);

/// A generated database served on loopback by an in-process net::Server
/// with `exec.workers = nproc`, plus one connected client per slot.
struct Fixture {
  std::unique_ptr<mra::Database> db;
  std::unique_ptr<mra::net::Server> server;
  std::vector<mra::net::Client> clients;

  /// Runs ANALYZE on every relation, starts the server and connects.
  Status Serve(const std::vector<std::string>& relations, int num_clients);
  /// Closes the clients, drains the server; the database stays open.
  void StopServing();
};

/// Hardware threads, the server's worker lanes and the client cap.
int Nproc();

/// "data fingerprint: <hex>": an order-independent hash of the named
/// relations, stamped so a run shows which data its seed generated.
std::string FingerprintLine(const mra::Database& db,
                            const std::vector<std::string>& relations);

/// Loads `rel` into a fresh relation named `name` in one committed bracket.
Status LoadRelation(mra::Database* db, const std::string& name, Relation rel);

/// One request a client sends: an XRA relation expression (Query) or a
/// script (ExecuteScript).
struct Request {
  int cls = 0;  // Workload-defined request class.
  bool script = false;
  std::string text;
  uint64_t tag = 0;  // Workload-defined (e.g. the operation index).
};

/// Sends one request and waits for its reply (a Query answers one
/// relation, a script one per `?`).
Result<std::vector<Relation>> Send(mra::net::Client& client,
                                   const Request& request);

enum class Verdict { kOk, kWrong, kExpectedAbort };

/// Checks one reply: the relations of a successful request, or the error.
using Checker = std::function<Verdict(const Request& request,
                                      const Result<std::vector<Relation>>&)>;

/// Yields client `client`'s `i`-th request; nullopt ends that client.
using RequestSource =
    std::function<std::optional<Request>(int client, uint64_t i)>;

struct Outcome {
  int cls = 0;
  uint64_t tag = 0;
  Verdict verdict = Verdict::kOk;
  bool error = false;
  std::string error_text;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t query_id = 0;
  uint64_t distinct_rows = 0;
  std::optional<mra::net::WireQueryStats> stats;  // Traced windows only.
  double rtt_us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// A request kept with its reply, as input for the traced run's side
/// calls (parse, encode, decode).
struct Recorded {
  Request request;
  std::vector<Relation> results;
  std::optional<mra::net::WireQueryStats> stats;
};

struct LoopResult {
  std::vector<Outcome> outcomes;
  double elapsed_s = 0;
  /// First reply of each class (by class id).
  std::map<int, Recorded> recorded;
};

/// Closed loop: each client thread sends its next request only after the
/// previous reply arrived, until `seconds` pass (when > 0) or its source
/// runs dry.  With `spans` set, every round trip and its trailer are
/// recorded.
LoopResult RunClosedLoop(std::vector<mra::net::Client>& clients,
                         const RequestSource& source, const Checker& check,
                         double seconds, SpanRecorder* spans);

/// Latency quantile (ms) as the median, over consecutive slices of the
/// window's requests (at least 250 each, at most 20 slices), of each
/// slice's quantile; the plain quantile when there are fewer than 500.
double SlicedQuantileMs(const LoopResult& loop, double q);

/// Latency, throughput and failure metrics of a loop, by the names the
/// end-to-end report uses.
struct LoopSummary {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double p50_ms = 0, p90_ms = 0, p99_ms = 0;
  double throughput_rps = 0;
  std::vector<std::string> failures;  // First few failure descriptions.
};
LoopSummary Summarize(const LoopResult& loop);

/// Latency quantile (ms) over one request class.
double ClassQuantileMs(const LoopResult& loop, int cls, double q);

/// What one workload run produced: its metrics, the verdict of its
/// oracles and the stamp lines describing its inputs.
struct WorkloadResult {
  Report report;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> stamp;
  std::vector<std::string> problems;  // Why `correct` is false.

  void Fail(const std::string& problem) {
    correct = false;
    problems.push_back(problem);
  }
};

/// Builds a fixture — generate, load, analyze, serve and connect, as
/// `build` does for rep i — at least three times in an untraced run and
/// once in a traced one, keeping only the last, and reports the median
/// build time as setup_s.
Status MeasureSetup(const RunOptions& options,
                    const std::function<Status(int, Fixture*)>& build,
                    Fixture* out, Report* report);

/// One timed window of a workload; `spans` is null when untraced.
using Window =
    std::function<Result<LoopResult>(double seconds, SpanRecorder* spans)>;

/// The untraced window (end-to-end metrics) and, for a traced run, the
/// window run again with exec timing on and spans recorded.
struct Measured {
  LoopResult untraced;
  LoopSummary untraced_summary;
  LoopResult traced;
  LoopSummary traced_summary;
  std::unique_ptr<RegistryDelta> traced_delta;  // From the traced start.
  std::unique_ptr<SpanRecorder> spans;
};

/// Runs the windows, adds the end-to-end metrics (tracing off) and, when
/// traced, the common per-layer metrics, the overhead and the span dump.
Status MeasureWindows(const RunOptions& options, const Window& window,
                      WorkloadResult* result, Measured* measured);

Status RunAnalytic(const RunOptions& options, WorkloadResult* result);
Status RunServe(const RunOptions& options, WorkloadResult* result);
Status RunCommitMix(const RunOptions& options, WorkloadResult* result);

}  // namespace e2e

#endif  // MRA_E2EBENCH_HARNESS_H_
