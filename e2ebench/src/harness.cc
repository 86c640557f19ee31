#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <thread>

#include "mra/lang/parser.h"
#include "mra/obs/op_metrics.h"
#include "mra/txn/transaction.h"

namespace e2e {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // Reported in kB.
    }
  }
  return 0;
}

void ResetPeakRss() {
  // Return the heap set-up freed to the system first, so the peak does
  // not depend on where the allocator happened to keep it; then writing 5
  // to clear_refs resets VmHWM to the current RSS (Linux >= 4.0).
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

int Nproc() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

// --------------------------------------------------------------- Report

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

bool Report::Has(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return true;
  }
  return false;
}

double Report::Get(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return 0;
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::Json(bool correct, uint64_t attempted,
                         uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    mra::obs::AppendJsonString(out, metrics_[i].name);
    out += ": {\"value\": " + JsonNumber(metrics_[i].value) + ", \"unit\": ";
    mra::obs::AppendJsonString(out, metrics_[i].unit);
    out += "}";
  }
  out += "}}";
  return out;
}

std::string Report::Table() const {
  std::string out;
  char buf[256];
  for (const Metric& m : metrics_) {
    std::snprintf(buf, sizeof(buf), "  %-36s %16.4f %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    out += buf;
  }
  return out;
}

// -------------------------------------------------------- RegistryDelta

RegistryDelta::RegistryDelta()
    : before_(mra::obs::MetricsRegistry::Global().Snapshot()) {}

uint64_t RegistryDelta::Counter(const std::string& name) const {
  uint64_t now =
      mra::obs::MetricsRegistry::Global().GetCounter(name)->value();
  auto it = before_.counters.find(name);
  uint64_t then = it == before_.counters.end() ? 0 : it->second;
  return now >= then ? now - then : 0;
}

mra::obs::HistogramData RegistryDelta::Histogram(
    const std::string& name) const {
  mra::obs::HistogramData now =
      mra::obs::MetricsRegistry::Global().GetHistogram(name)->Snapshot();
  auto it = before_.histograms.find(name);
  if (it == before_.histograms.end()) return now;
  const mra::obs::HistogramData& then = it->second;
  now.count -= std::min(now.count, then.count);
  now.sum_micros -= std::min(now.sum_micros, then.sum_micros);
  for (size_t i = 0; i < now.buckets.size() && i < then.buckets.size(); ++i) {
    now.buckets[i] -= std::min(now.buckets[i], then.buckets[i]);
  }
  return now;
}

int64_t RegistryDelta::GaugeNow(const std::string& name) const {
  return mra::obs::MetricsRegistry::Global().GetGauge(name)->value();
}

// --------------------------------------------------------- SpanRecorder

int64_t SpanRecorder::Add(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanRecorder::AddTrailer(int64_t parent,
                              const mra::net::WireQueryStats& stats) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int64_t base = spans_[parent].start_ns;
  int64_t cursor = base;
  int64_t exec_span = -1;
  auto phase = [&](const char* name, uint64_t us) {
    int64_t start = cursor;
    cursor += static_cast<int64_t>(us) * 1000;
    spans_.push_back({name, stats.query_id, start, cursor, parent});
    return static_cast<int64_t>(spans_.size()) - 1;
  };
  phase("server.bind", stats.bind_us);
  phase("server.optimize", stats.optimize_us);
  phase("server.lower", stats.lower_us);
  exec_span = phase("server.exec", stats.exec_us);

  // Preorder operators: a stack of (span index, next free offset) per
  // depth places every timed operator inside its parent.
  std::vector<std::pair<int64_t, int64_t>> stack = {
      {exec_span, spans_[exec_span].start_ns}};
  for (const mra::net::WireOpStats& op : stats.operators) {
    if (op.time_ns == 0) continue;
    size_t depth = std::min<size_t>(op.depth + 1, stack.size());
    stack.resize(depth);
    auto& [owner, free_at] = stack.back();
    int64_t start = free_at;
    int64_t end = start + static_cast<int64_t>(op.time_ns);
    free_at = end;
    spans_.push_back({"exec." + OperatorBucket(op.name), stats.query_id, start,
                      end, owner});
    stack.push_back({static_cast<int64_t>(spans_.size()) - 1, start});
  }
}

std::vector<int64_t> SpanRecorder::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = s.start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, s.end_ns);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    self[i] = std::max<int64_t>(0, s.end_ns - s.start_ns - covered);
  }
  return self;
}

std::map<std::string, std::pair<int64_t, uint64_t>> SpanRecorder::SelfByName()
    const {
  std::vector<int64_t> self = SelfTimes();
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::pair<int64_t, uint64_t>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& entry = out[spans_[i].name];
    entry.first += self[i];
    entry.second += 1;
  }
  return out;
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

Status SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::vector<int64_t> self = SelfTimes();
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot write span dump " + path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::string line = "{\"id\": " + std::to_string(i) + ", \"name\": ";
    mra::obs::AppendJsonString(line, s.name);
    line += ", \"query_id\": " + std::to_string(s.query_id) +
            ", \"start_ns\": " + std::to_string(s.start_ns) +
            ", \"end_ns\": " + std::to_string(s.end_ns) +
            ", \"self_ns\": " + std::to_string(self[i]) +
            ", \"parent\": " + std::to_string(s.parent) + "}\n";
    out << line;
  }
  out.close();
  if (!out) return Status::IoError("short write to span dump " + path);
  return Status::OK();
}

std::string OperatorBucket(const std::string& op_name) {
  if (op_name == "Scan" || op_name == "ConstScan") return "scan";
  if (op_name == "Filter") return "filter";
  if (op_name == "HashJoin" || op_name == "ParallelHashJoin" ||
      op_name == "SortMergeJoin") {
    return "hash_join";
  }
  if (op_name == "HashGroupBy" || op_name == "ParallelHashGroupBy") {
    return "group_by";
  }
  if (op_name == "Dedup" || op_name == "ParallelDedup" ||
      op_name == "SortDedup") {
    return "dedup";
  }
  if (op_name == "Sort") return "sort";
  if (op_name == "Compute") return "compute";
  return "other";
}

// -------------------------------------------------------------- Fixture

Status Fixture::Serve(const std::vector<std::string>& relations,
                      int num_clients) {
  // The planner arms the parallel kernels only from estimates, so every
  // relation is analyzed before the server takes traffic.
  for (const std::string& name : relations) {
    MRA_RETURN_IF_ERROR(db->Analyze(name));
  }
  mra::net::ServerOptions options;
  options.interpreter.exec.workers = static_cast<size_t>(Nproc());
  server = std::make_unique<mra::net::Server>(db.get(), options);
  MRA_RETURN_IF_ERROR(server->Start());
  for (int i = 0; i < num_clients; ++i) {
    MRA_ASSIGN_OR_RETURN(mra::net::Client client,
                         mra::net::Client::Connect("127.0.0.1",
                                                   server->port()));
    clients.push_back(std::move(client));
  }
  return Status::OK();
}

void Fixture::StopServing() {
  for (mra::net::Client& client : clients) client.Close();
  clients.clear();
  if (server != nullptr) server->Shutdown();
  server.reset();
}

std::string FingerprintLine(const mra::Database& db,
                            const std::vector<std::string>& relations) {
  auto lock = db.ReadLock();
  uint64_t sum = 0;
  for (const std::string& name : relations) {
    Result<const Relation*> rel = db.catalog().GetRelation(name);
    if (!rel.ok()) continue;
    for (const auto& [tuple, count] : **rel) {
      sum += static_cast<uint64_t>(tuple.Hash()) * (count | 1);
    }
  }
  char line[64];
  std::snprintf(line, sizeof(line), "data fingerprint: %016llx",
                static_cast<unsigned long long>(sum));
  return line;
}

Status LoadRelation(mra::Database* db, const std::string& name,
                    Relation rel) {
  mra::RelationSchema schema = rel.schema();
  schema.set_name(name);
  MRA_RETURN_IF_ERROR(db->CreateRelation(schema));
  if (rel.empty()) return Status::OK();
  MRA_ASSIGN_OR_RETURN(std::unique_ptr<mra::Transaction> txn, db->Begin());
  MRA_RETURN_IF_ERROR(txn->Insert(name, rel));
  return txn->Commit();
}

// ------------------------------------------------------- Closed loop

Result<std::vector<Relation>> Send(mra::net::Client& client,
                                   const Request& request) {
  if (request.script) return client.ExecuteScript(request.text);
  MRA_ASSIGN_OR_RETURN(Relation one, client.Query(request.text));
  std::vector<Relation> relations;
  relations.push_back(std::move(one));
  return relations;
}

LoopResult RunClosedLoop(std::vector<mra::net::Client>& clients,
                         const RequestSource& source, const Checker& check,
                         double seconds, SpanRecorder* spans) {
  const int n = static_cast<int>(clients.size());
  std::vector<std::vector<Outcome>> per_client(n);
  std::vector<std::map<int, Recorded>> recorded(n);
  const int64_t start = NowNs();
  const int64_t deadline =
      seconds > 0 ? start + static_cast<int64_t>(seconds * 1e9) : INT64_MAX;
  auto body = [&](int c) {
    mra::net::Client& client = clients[c];
    for (uint64_t i = 0;; ++i) {
      if (NowNs() >= deadline) break;
      std::optional<Request> req = source(c, i);
      if (!req) break;
      Outcome out;
      out.cls = req->cls;
      out.tag = req->tag;
      out.start_ns = NowNs();
      Result<std::vector<Relation>> reply = Send(client, *req);
      out.end_ns = NowNs();
      out.query_id = client.last_query_id();
      // An error reply carries no trailer; keep only this request's.  Only
      // a traced window reads trailers, and keeping them untraced would
      // put the benchmark's own bookkeeping into peak_rss_mb.
      if (spans != nullptr && reply.ok() && client.last_query_stats() &&
          client.last_query_stats()->query_id == out.query_id) {
        out.stats = client.last_query_stats();
      }
      out.error = !reply.ok();
      if (!reply.ok()) {
        out.error_text = reply.status().ToString();
      } else {
        for (const Relation& r : *reply) out.distinct_rows += r.distinct_size();
      }
      out.verdict = check(*req, reply);
      if (spans != nullptr) {
        int64_t root = spans->Add(
            {"client.round_trip", out.query_id, out.start_ns, out.end_ns, -1});
        if (out.stats) spans->AddTrailer(root, *out.stats);
      }
      if (reply.ok() && recorded[c].count(req->cls) == 0) {
        recorded[c].emplace(req->cls,
                            Recorded{*req, *std::move(reply), out.stats});
      }
      per_client[c].push_back(std::move(out));
    }
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < n; ++c) threads.emplace_back(body, c);
  body(0);
  for (std::thread& t : threads) t.join();

  LoopResult result;
  result.elapsed_s = SecondsSince(start);
  for (int c = 0; c < n; ++c) {
    for (Outcome& o : per_client[c]) result.outcomes.push_back(std::move(o));
    for (auto& [cls, rec] : recorded[c]) {
      result.recorded.emplace(cls, std::move(rec));
    }
  }
  return result;
}

double SlicedQuantileMs(const LoopResult& loop, double q) {
  // Requests in start order, cut into equal slices of at least
  // kMinSliceSamples; a host hiccup then moves a few slices, not the
  // median over them.
  constexpr size_t kMinSliceSamples = 250;
  constexpr size_t kMaxSlices = 20;
  std::vector<std::pair<int64_t, double>> by_start;
  by_start.reserve(loop.outcomes.size());
  for (const Outcome& o : loop.outcomes) {
    by_start.push_back({o.start_ns, o.rtt_us() / 1e3});
  }
  std::sort(by_start.begin(), by_start.end());
  const size_t n = by_start.size();
  const size_t slices =
      std::clamp<size_t>(n / kMinSliceSamples, 1, kMaxSlices);
  std::vector<double> per_slice;
  for (size_t i = 0; i < slices; ++i) {
    std::vector<double> lat;
    for (size_t j = i * n / slices; j < (i + 1) * n / slices; ++j) {
      lat.push_back(by_start[j].second);
    }
    per_slice.push_back(Quantile(std::move(lat), q));
  }
  return Median(std::move(per_slice));
}

LoopSummary Summarize(const LoopResult& loop) {
  LoopSummary s;
  std::vector<double> lat;
  lat.reserve(loop.outcomes.size());
  for (const Outcome& o : loop.outcomes) {
    ++s.attempted;
    lat.push_back(o.rtt_us() / 1e3);
    if (o.verdict == Verdict::kWrong) {
      ++s.failed;
      if (s.failures.size() < 5) {
        s.failures.push_back("class " + std::to_string(o.cls) + " tag " +
                             std::to_string(o.tag) +
                             (o.error ? ": " + o.error_text
                                      : ": wrong answer"));
      }
    }
  }
  s.p50_ms = SlicedQuantileMs(loop, 0.50);
  s.p90_ms = SlicedQuantileMs(loop, 0.90);
  s.p99_ms = Quantile(lat, 0.99);
  s.throughput_rps =
      loop.elapsed_s > 0 ? static_cast<double>(s.attempted) / loop.elapsed_s
                         : 0;
  return s;
}

double ClassQuantileMs(const LoopResult& loop, int cls, double q) {
  std::vector<double> lat;
  for (const Outcome& o : loop.outcomes) {
    if (o.cls == cls) lat.push_back(o.rtt_us() / 1e3);
  }
  return Quantile(std::move(lat), q);
}

// ------------------------------------------------- Per-layer metrics

namespace {

/// Median wall time (µs) of `fn` over enough calls to fill ~20 ms
/// (at least 3, at most 200).
template <typename Fn>
double MedianCallUs(Fn&& fn) {
  std::vector<double> times;
  int64_t begin = NowNs();
  while (times.size() < 3 ||
         (times.size() < 200 && NowNs() - begin < 20'000'000)) {
    int64_t t0 = NowNs();
    fn();
    times.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return Median(std::move(times));
}

/// Per-layer metrics every workload reports from its traced window:
/// trailer phases, operator self times, registry deltas and the side
/// calls that re-run parse / encode / decode on recorded requests.
void AddCommonLayerMetrics(const LoopResult& traced, SpanRecorder* spans,
                           const RegistryDelta& delta, Report* report) {
  const double queries = std::max<double>(1, traced.outcomes.size());

  // Side calls on the recorded request of each class: parse of the text,
  // encode and decode of the reply.  They run after the timed window.
  std::map<int, double> parse_us, encode_us, decode_us, rows;
  for (const auto& [cls, rec] : traced.recorded) {
    const Request& req = rec.request;
    const uint64_t qid = rec.stats ? rec.stats->query_id : 0;
    parse_us[cls] = Traced(spans, "side.parse", qid, [&] {
      return MedianCallUs([&] {
        if (req.script) {
          (void)mra::lang::ParseScript(req.text);
        } else {
          (void)mra::lang::ParseRelExpr(req.text);
        }
      });
    });
    const mra::net::WireQueryStats* stats =
        rec.stats ? &*rec.stats : nullptr;
    std::string payload;
    encode_us[cls] = Traced(spans, "side.encode", qid, [&] {
      return MedianCallUs([&] {
        payload = mra::net::EncodeResultSetWithStats(rec.results, stats);
      });
    });
    decode_us[cls] = Traced(spans, "side.decode", qid, [&] {
      return MedianCallUs([&] {
        std::optional<mra::net::WireQueryStats> out;
        (void)mra::net::DecodeResultSetWithStats(payload, &out);
      });
    });
    double n = 0;
    for (const Relation& r : rec.results) n += r.distinct_size();
    rows[cls] = n;
  }
  // Weight each class by its share of the traced traffic.
  std::vector<double> parse_per_req;
  double enc_total = 0, dec_total = 0, rows_total = 0;
  for (const Outcome& o : traced.outcomes) {
    if (parse_us.count(o.cls) == 0) continue;
    parse_per_req.push_back(parse_us[o.cls]);
    enc_total += encode_us[o.cls];
    dec_total += decode_us[o.cls];
    rows_total += rows[o.cls];
  }
  double krows = std::max(rows_total, 1.0) / 1000.0;

  mra::obs::HistogramData request_us = delta.Histogram("net.request_us");
  std::vector<double> rtt_us, bind, optimize, lower, exec;
  double scanned = 0, rows_out = 0, emitted = 0, batches = 0;
  double build_rows = 0, probe_rows = 0;
  for (const Outcome& o : traced.outcomes) {
    rtt_us.push_back(o.rtt_us());
    if (!o.stats) continue;
    bind.push_back(static_cast<double>(o.stats->bind_us));
    optimize.push_back(static_cast<double>(o.stats->optimize_us));
    lower.push_back(static_cast<double>(o.stats->lower_us));
    exec.push_back(static_cast<double>(o.stats->exec_us));
    rows_out += static_cast<double>(o.distinct_rows);
    for (const mra::net::WireOpStats& op : o.stats->operators) {
      if (op.name == "Scan") scanned += static_cast<double>(op.rows_emitted);
      build_rows += static_cast<double>(op.build_rows);
      probe_rows += static_cast<double>(op.probe_rows);
      emitted += static_cast<double>(op.rows_emitted);
      batches += static_cast<double>(op.batches_emitted);
    }
  }
  // Requests are not paired with server times, so the client overhead is
  // the exact difference of the means (the histogram keeps exact sums).
  double rtt_sum = 0;
  for (double r : rtt_us) rtt_sum += r;
  double server_mean =
      request_us.count > 0 ? static_cast<double>(request_us.sum_micros) /
                                 static_cast<double>(request_us.count)
                           : 0;
  report->Add("net.server_request_us.p50",
              static_cast<double>(request_us.Quantile(0.5)), "us");
  report->Add("net.client_overhead_us.mean",
              std::max(0.0, rtt_sum / queries - server_mean), "us");
  report->Add("net.encode_us_per_krow", enc_total / krows, "us");
  report->Add("net.decode_us_per_krow", dec_total / krows, "us");
  report->Add("net.bytes_out_per_req",
              static_cast<double>(delta.Counter("net.bytes_out")) / queries,
              "B");
  report->Add("lang.parse_us.p50", Median(parse_per_req), "us");
  report->Add("lang.bind_us.p50", Median(bind), "us");
  report->Add("opt.optimize_us.p50", Median(optimize), "us");
  report->Add("opt.estimate_calls_per_query",
              static_cast<double>(delta.Counter("stats.estimate_calls")) /
                  queries,
              "count");
  report->Add("exec.lower_us.p50", Median(lower), "us");
  report->Add("exec.exec_us.p50", Median(exec), "us");
  report->Add("exec.rows_examined_per_row_out",
              scanned / std::max(rows_out, 1.0), "ratio");

  auto self = spans->SelfByName();
  double op_self_ns = 0;
  for (const char* bucket : {"scan", "filter", "hash_join", "group_by",
                             "dedup", "sort", "compute", "other"}) {
    double ns = static_cast<double>(self["exec." + std::string(bucket)].first);
    op_self_ns += ns;
    report->Add(std::string("exec.") + bucket + ".self_ms",
                ns / 1e6 / queries, "ms");
  }
  double exec_total_us = 0;
  for (double e : exec) exec_total_us += e;
  report->Add("trace.op_self_over_exec",
              exec_total_us > 0 ? op_self_ns / 1e3 / exec_total_us : 0,
              "ratio");

  // From the trailers: the registry's hash.* counters miss the parallel
  // kernels.
  report->Add("exec.hash.build_rows", build_rows / queries, "count");
  report->Add("exec.hash.probe_rows", probe_rows / queries, "count");
  report->Add("exec.hash.peak_bytes",
              static_cast<double>(delta.GaugeNow("hash.peak_bytes")), "B");
  report->Add("exec.batch_fill", batches > 0 ? emitted / batches : 0, "rows");
  report->Add("parallel.shed_total",
              static_cast<double>(delta.Counter("parallel.shed_total")),
              "count");
  report->Add("parallel.tasks_per_query",
              static_cast<double>(delta.Counter("parallel.tasks_total")) /
                  queries,
              "count");
  report->Add("sort.spill_runs",
              static_cast<double>(delta.Counter("sort.spill_runs")) / queries,
              "count");
  report->Add("sort.spill_bytes",
              static_cast<double>(delta.Counter("sort.spill_bytes")) / queries,
              "B");
}

/// Tracing overhead and the span dump.
Status FinishTrace(const RunOptions& options, const LoopSummary& untraced,
                   const LoopSummary& traced, const SpanRecorder& spans,
                   Report* report) {
  report->Add("trace.overhead_pct",
              untraced.p50_ms > 0
                  ? (traced.p50_ms - untraced.p50_ms) / untraced.p50_ms * 100
                  : 0,
              "%");
  report->Add("trace.spans", static_cast<double>(spans.size()), "count");
  std::string dir = options.work_dir + "/traces";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir + ": " + ec.message());
  std::string path = dir + "/" + options.workload + "-seed" +
                     std::to_string(options.seed) + ".jsonl";
  MRA_RETURN_IF_ERROR(spans.WriteJsonLines(path));
  std::printf("span dump: %s (%zu spans)\n", path.c_str(), spans.size());
  return Status::OK();
}

}  // namespace

// ------------------------------------------------------- Measurement

Status MeasureSetup(const RunOptions& options,
                    const std::function<Status(int, Fixture*)>& build,
                    Fixture* out, Report* report) {
  // Cheap set-ups repeat until ~2 s are spent (at most 100), so their
  // median is not one scheduler hiccup.  A traced run does not report
  // setup_s and sets up once.
  const int reps = options.trace ? 1 : 3;
  std::vector<double> seconds;
  double total = 0;
  for (int rep = 0; rep < reps || (reps > 1 && total < 2.0 && rep < 100);
       ++rep) {
    // Tear the previous fixture down first so set-ups never overlap.
    out->StopServing();
    out->db.reset();
    int64_t start = NowNs();
    MRA_RETURN_IF_ERROR(build(rep, out));
    seconds.push_back(SecondsSince(start));
    total += seconds.back();
  }
  report->Add("setup_s", Median(seconds), "s");
  return Status::OK();
}

Status MeasureWindows(const RunOptions& options, const Window& window,
                      WorkloadResult* result, Measured* measured) {
  // peak_rss_mb covers serving the window: the loaded data plus query
  // working memory, not the transient copies set-up makes while loading.
  ResetPeakRss();
  MRA_ASSIGN_OR_RETURN(measured->untraced, window(options.seconds, nullptr));
  const double peak_rss_mb = PeakRssMb();
  measured->untraced_summary = Summarize(measured->untraced);
  const LoopSummary& s = measured->untraced_summary;
  result->attempted += s.attempted;
  result->failed += s.failed;
  for (const std::string& f : s.failures) result->Fail(f);
  std::map<int, size_t> per_class;
  for (const Outcome& o : measured->untraced.outcomes) ++per_class[o.cls];
  for (const auto& [cls, n] : per_class) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "class %d: %zu requests, p50 %.3f ms, p90 %.3f ms", cls, n,
                  ClassQuantileMs(measured->untraced, cls, 0.5),
                  ClassQuantileMs(measured->untraced, cls, 0.9));
    result->stamp.push_back(line);
  }
  Report& report = result->report;
  if (!options.trace) {
    report.Add("lat_p50_ms", s.p50_ms, "ms");
    report.Add("lat_p90_ms", s.p90_ms, "ms");
    report.Add("throughput_rps", s.throughput_rps, "1/s");
    report.Add("peak_rss_mb", peak_rss_mb, "MiB");
  } else {
    // Workload-specific tail metrics travel in the traced run's report,
    // still measured with tracing off.
    report.Add("lat_samples", static_cast<double>(s.attempted), "count");
    report.Add("failed_frac",
               s.attempted > 0 ? static_cast<double>(s.failed) /
                                     static_cast<double>(s.attempted)
                               : 0,
               "ratio");
    measured->spans = std::make_unique<SpanRecorder>();
    measured->traced_delta = std::make_unique<RegistryDelta>();
    {
      mra::obs::ScopedExecTiming timing(true);
      MRA_ASSIGN_OR_RETURN(measured->traced,
                           window(options.seconds, measured->spans.get()));
    }
    measured->traced_summary = Summarize(measured->traced);
    const LoopSummary& t = measured->traced_summary;
    result->attempted += t.attempted;
    result->failed += t.failed;
    for (const std::string& f : t.failures) result->Fail("traced: " + f);
    AddCommonLayerMetrics(measured->traced, measured->spans.get(),
                          *measured->traced_delta, &report);
    MRA_RETURN_IF_ERROR(
        FinishTrace(options, s, t, *measured->spans, &report));
  }
  return Status::OK();
}

}  // namespace e2e
