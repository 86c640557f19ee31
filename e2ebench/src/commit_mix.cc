// `commit_mix`: two clients against a durable database with sync_commits
// on.  The operations repeat bracket, bracket, read: a bracket credits an
// account and logs the credit in ledger, a read is a point read of acct.
// A writer client sends the brackets in order and a reader client sends
// the reads.  A read waits until every bracket before it has committed
// and the next one has been sent, then arrives at a seeded point of that
// bracket (a share of the previous bracket's latency), so the reads
// sample the commit's exclusive-lock window the way independent arrivals
// would.  With one writer a bracket never queues behind another (with
// several, its latency was one or two commits depending on how the
// writers happened to interleave), and with a third reads the mix's
// median and p90 fall inside the bracket class.
//
// Credits commute, so the final state does not depend on how the clients
// interleave; a seeded ~5% of the brackets instead drive a balance negative
// and must be aborted by the "no negative bal" constraint.  This is the
// only workload that exercises txn, the constraint check, storage encode
// of after-images, WAL append/fsync and the exclusive lock readers wait on.
//
// Every commit logs full after-images and ledger grows with every commit,
// so per-commit cost depends on how many commits came before.  The work is
// therefore a fixed seeded sequence of operations (an epoch), replayed
// from the initial state until the window is used up: a faster program
// runs more epochs, never larger ones.

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>
#include <random>
#include <unistd.h>

#include "harness.h"
#include "mra/algebra/evaluator.h"
#include "mra/lang/binder.h"
#include "mra/lang/parser.h"
#include "mra/storage/serializer.h"
#include "mra/txn/transaction.h"

namespace e2e {
namespace {

using mra::Tuple;
using mra::Value;

enum Class { kRead = 0, kCommit = 1, kAbort = 2 };

constexpr int64_t kAbortDebit = 1'000'000'000;
constexpr int kWriter = 0;
constexpr int kReader = 1;

struct Op {
  Class cls;
  int64_t id;
  int64_t amount = 0;  // kCommit: the credit.
  // kRead only: the balance with every credit before it in the epoch, the
  // number of brackets before it, and where in the bracket in flight it
  // arrives, as a share of the previous bracket's latency.
  int64_t min_bal = 0;
  size_t after = 0;
  double phase = 0;
};

Tuple Pair(int64_t a, int64_t b) {
  return Tuple({Value::Int(a), Value::Int(b)});
}

mra::RelationSchema PairSchema(const char* a, const char* b) {
  return mra::RelationSchema({{a, mra::Type::Int()}, {b, mra::Type::Int()}});
}

struct Plan {
  std::vector<int64_t> initial;  // Balance per account id.
  std::vector<int64_t> final;    // After every credit of one epoch.
  std::vector<Op> ops;           // One epoch, in global order.
  uint64_t aborts = 0;
  uint64_t commits = 0;
  uint64_t delta_bytes = 0;  // Encoded user delta of one epoch's commits.
  Relation initial_acct{PairSchema("id", "bal")};
  Relation final_acct{PairSchema("id", "bal")};
  Relation final_ledger{PairSchema("id", "amt")};
};

Plan MakePlan(uint64_t seed, double scale) {
  Plan p;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 37);
  // 1000 accounts: at 3000 the after-image encode (~45 ms a commit on a
  // 4-thread Xeon VM) made the bracket latency bimodal run to run.
  int64_t accounts = std::max<int64_t>(50, static_cast<int64_t>(1000 * scale));
  size_t ops = std::max<size_t>(
      40, static_cast<size_t>(360 * std::min(1.0, scale * 10)));
  for (int64_t id = 0; id < accounts; ++id) {
    p.initial.push_back(100 + static_cast<int64_t>(rng() % 901));
  }
  p.final = p.initial;
  // The epoch repeats bracket, bracket, read, and a seeded 5% of the
  // brackets (at least one) abort.  Seeds vary the data, the accounts and
  // the abort positions, not the amount of work.
  std::vector<Class> classes(ops, kRead);
  std::vector<size_t> brackets;
  for (size_t i = 0; i < ops; ++i) {
    if (i % 3 != 2) {
      classes[i] = kCommit;
      brackets.push_back(i);
    }
  }
  std::shuffle(brackets.begin(), brackets.end(), rng);
  size_t aborts = std::max<size_t>(1, brackets.size() / 20);
  for (size_t j = 0; j < aborts && j < brackets.size(); ++j) {
    classes[brackets[j]] = kAbort;
  }
  size_t brackets_so_far = 0;
  for (Class cls : classes) {
    int64_t id = static_cast<int64_t>(rng() % accounts);
    if (cls == kRead) {
      double phase = static_cast<double>(rng() % 1000) / 1000.0;
      p.ops.push_back({.cls = kRead, .id = id, .min_bal = p.final[id],
                       .after = brackets_so_far, .phase = phase});
      continue;
    }
    ++brackets_so_far;
    if (cls == kAbort) {
      p.ops.push_back({.cls = kAbort, .id = id});
      ++p.aborts;
      continue;
    }
    int64_t x = 1 + static_cast<int64_t>(rng() % 100);
    p.ops.push_back({.cls = kCommit, .id = id, .amount = x});
    p.final[id] += x;
    ++p.commits;
    p.final_ledger.InsertUnchecked(Pair(id, x));
    // The user delta of a credit: the new acct tuple and the ledger row.
    mra::storage::Encoder enc;
    enc.PutTuple(Pair(id, p.initial[id] + x));
    enc.PutTuple(Pair(id, x));
    p.delta_bytes += enc.buffer().size();
  }
  for (int64_t id = 0; id < accounts; ++id) {
    p.initial_acct.InsertUnchecked(Pair(id, p.initial[id]));
    p.final_acct.InsertUnchecked(Pair(id, p.final[id]));
  }
  return p;
}

std::string OpText(const Op& op) {
  const std::string id = std::to_string(op.id);
  if (op.cls == kRead) return "select(%1 = " + id + ", acct)";
  int64_t amount = op.cls == kAbort ? -kAbortDebit : op.amount;
  return "begin update(acct, select(%1 = " + id + ", acct), [%1, %2 + (" +
         std::to_string(amount) + ")]); insert(ledger, {(" + id + ", " +
         std::to_string(amount) + ")}); end;";
}

/// Compares the committed acct and ledger with the epoch's expectation.
Status CheckState(const mra::Database& db, const Plan& plan,
                  const std::string& when) {
  auto lock = db.ReadLock();
  MRA_ASSIGN_OR_RETURN(const Relation* acct, db.catalog().GetRelation("acct"));
  MRA_ASSIGN_OR_RETURN(const Relation* ledger,
                       db.catalog().GetRelation("ledger"));
  if (!acct->Equals(plan.final_acct)) {
    return Status::Internal(when + ": acct differs from the seeded result");
  }
  if (!ledger->Equals(plan.final_ledger)) {
    return Status::Internal(when + ": ledger differs from the seeded result");
  }
  return Status::OK();
}

/// Restores the initial state in one bracket, then checkpoints so the WAL
/// holds exactly the next epoch.
Status ResetState(mra::Database* db, const Plan& plan) {
  MRA_ASSIGN_OR_RETURN(std::unique_ptr<mra::Transaction> txn, db->Begin(true));
  for (const char* name : {"acct", "ledger"}) {
    MRA_ASSIGN_OR_RETURN(const Relation* current, txn->GetRelation(name));
    Relation copy = *current;
    MRA_RETURN_IF_ERROR(txn->Delete(name, copy));
  }
  MRA_RETURN_IF_ERROR(txn->Insert("acct", plan.initial_acct));
  MRA_RETURN_IF_ERROR(txn->Commit());
  return db->Checkpoint();
}

Result<mra::PlanPtr> ConstraintPlan(const mra::Database& db) {
  MRA_ASSIGN_OR_RETURN(mra::lang::RelExprPtr expr,
                       mra::lang::ParseRelExpr("select(%2 < 0, acct)"));
  return mra::lang::BindRelExpr(*expr, db.catalog());
}

}  // namespace

Status RunCommitMix(const RunOptions& options, WorkloadResult* result) {
  const int clients = 2;
  const std::string root = options.work_dir + "/commit_mix-" +
                           std::to_string(getpid());
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{root};

  Plan plan;
  std::string dir;
  Fixture fx;
  MRA_RETURN_IF_ERROR(MeasureSetup(
      options,
      [&](int rep, Fixture* f) -> Status {
        plan = MakePlan(options.seed, options.scale);
        // The previous rep's database is closed by now; drop its files.
        std::error_code ec;
        if (!dir.empty()) std::filesystem::remove_all(dir, ec);
        dir = root + "/rep" + std::to_string(rep);
        std::filesystem::remove_all(dir, ec);
        mra::DatabaseOptions db_options;
        db_options.directory = dir;
        db_options.sync_commits = true;
        MRA_ASSIGN_OR_RETURN(f->db, mra::Database::Open(db_options));
        MRA_RETURN_IF_ERROR(LoadRelation(f->db.get(), "acct", plan.initial_acct));
        MRA_RETURN_IF_ERROR(
            LoadRelation(f->db.get(), "ledger", Relation(PairSchema("id", "amt"))));
        MRA_ASSIGN_OR_RETURN(mra::PlanPtr constraint, ConstraintPlan(*f->db));
        MRA_RETURN_IF_ERROR(f->db->AddConstraint("nonneg", std::move(constraint)));
        return f->Serve({"acct", "ledger"}, clients);
      },
      &fx, &result->report));
  result->stamp.push_back(
      "relations: acct=" + std::to_string(plan.initial.size()) +
      " set-like rows, ledger starts empty; epoch=" +
      std::to_string(plan.ops.size()) + " ops (" +
      std::to_string(plan.commits) + " credits, " +
      std::to_string(plan.aborts) + " seeded aborts)");
  result->stamp.push_back(FingerprintLine(*fx.db, {"acct"}));
  result->stamp.push_back(
      "clients=2 closed loop (one writer, one reader paced by the writer's "
      "commits); flush policy: durable directory, sync_commits=true (fsync "
      "per commit)");

  // The writer runs the brackets in epoch order, the reader the reads.
  // The writer asks for bracket i once bracket i - 1 has replied, so that
  // call publishes how many brackets are done, when bracket i leaves and
  // how long bracket i - 1 took.
  std::vector<std::vector<size_t>> lists(clients);
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    lists[plan.ops[i].cls == kRead ? kReader : kWriter].push_back(i);
  }
  std::mutex progress_mutex;
  std::condition_variable progress_cv;
  size_t brackets_done = 0;  // In the running epoch.
  int64_t bracket_sent_ns = 0, last_bracket_ns = 0;
  const RequestSource source = [&](int c, uint64_t i) -> std::optional<Request> {
    if (c == kWriter) {
      std::lock_guard<std::mutex> lock(progress_mutex);
      const int64_t now = NowNs();
      if (i > 0) last_bracket_ns = now - bracket_sent_ns;
      bracket_sent_ns = now;
      brackets_done = i;
      progress_cv.notify_all();
    }
    if (i >= lists[c].size()) return std::nullopt;
    const Op& op = plan.ops[lists[c][i]];
    if (c == kReader) {
      int64_t arrive_ns;
      {
        std::unique_lock<std::mutex> lock(progress_mutex);
        progress_cv.wait(lock, [&] { return brackets_done >= op.after; });
        arrive_ns = bracket_sent_ns +
                    static_cast<int64_t>(op.phase * last_bracket_ns);
      }
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(arrive_ns - NowNs()));
    }
    return Request{op.cls, op.cls != kRead, OpText(op), lists[c][i]};
  };
  const Checker check = [&](const Request& req,
                            const Result<std::vector<Relation>>& reply) {
    const Op& op = plan.ops[req.tag];
    if (op.cls == kAbort) {
      return !reply.ok() && reply.status().code() ==
                                mra::StatusCode::kConstraintViolation
                 ? Verdict::kExpectedAbort
                 : Verdict::kWrong;
    }
    if (!reply.ok()) return Verdict::kWrong;
    if (op.cls == kCommit) return Verdict::kOk;
    // A read sees every credit before it in the epoch, and perhaps the
    // ones the writer committed since.
    if (reply->size() != 1 || reply->front().distinct_size() != 1) {
      return Verdict::kWrong;
    }
    const auto& [tuple, count] = *reply->front().begin();
    int64_t bal = tuple.at(1).int_value();
    return count == 1 && tuple.at(0).int_value() == op.id &&
                   bal >= op.min_bal && bal <= plan.final[op.id]
               ? Verdict::kOk
               : Verdict::kWrong;
  };

  // One window = whole epochs until `seconds` of epoch time are used.
  uint64_t wal_bytes = 0, commits = 0, aborts = 0, epochs = 0;
  bool dirty = false;
  const Window window = [&](double seconds,
                            SpanRecorder* spans) -> Result<LoopResult> {
    LoopResult all;
    wal_bytes = commits = aborts = epochs = 0;
    do {
      if (dirty) MRA_RETURN_IF_ERROR(ResetState(fx.db.get(), plan));
      dirty = true;
      brackets_done = 0;
      RegistryDelta delta;
      LoopResult epoch = RunClosedLoop(fx.clients, source, check, 0, spans);
      wal_bytes += delta.Counter("wal.append_bytes");
      commits += delta.Counter("txn.commits");
      ++epochs;
      const uint64_t epoch_aborts = delta.Counter("txn.aborts");
      aborts += epoch_aborts;
      if (epoch_aborts != plan.aborts) {
        result->Fail("txn.aborts " + std::to_string(epoch_aborts) +
                     " != seeded " + std::to_string(plan.aborts));
      }
      Status live = CheckState(*fx.db, plan, "live");
      if (!live.ok()) result->Fail(live.message());
      all.elapsed_s += epoch.elapsed_s;
      for (Outcome& o : epoch.outcomes) all.outcomes.push_back(std::move(o));
      for (auto& [cls, rec] : epoch.recorded) all.recorded.emplace(cls, std::move(rec));
    } while (all.elapsed_s < seconds);
    return all;
  };

  Measured m;
  MRA_RETURN_IF_ERROR(MeasureWindows(options, window, result, &m));
  result->stamp.push_back("epochs in the last window: " + std::to_string(epochs));

  if (options.trace) {
    const LoopResult& u = m.untraced;
    Report& r = result->report;
    r.Add("lat_p99_ms", m.untraced_summary.p99_ms, "ms");
    r.Add("commit_p50_ms", ClassQuantileMs(u, kCommit, 0.5), "ms");
    r.Add("commit_p99_ms", ClassQuantileMs(u, kCommit, 0.99), "ms");
    r.Add("read_p99_ms", ClassQuantileMs(u, kRead, 0.99), "ms");
    r.Add("write_amp",
          static_cast<double>(wal_bytes) /
              static_cast<double>(std::max<uint64_t>(1, plan.delta_bytes * epochs)),
          "ratio");

    const RegistryDelta& d = *m.traced_delta;
    r.Add("wal.append_us.p50",
          static_cast<double>(d.Histogram("wal.append_us").Quantile(0.5)), "us");
    r.Add("wal.fsync_us.p50",
          static_cast<double>(d.Histogram("wal.fsync_us").Quantile(0.5)), "us");
    r.Add("wal.bytes_per_commit",
          static_cast<double>(wal_bytes) /
              static_cast<double>(std::max<uint64_t>(1, commits)),
          "B");
    r.Add("txn.commit_us.p50",
          static_cast<double>(d.Histogram("txn.commit_us").Quantile(0.5)), "us");
    // Measured in the traced window, per epoch; the seeded count is
    // plan.aborts, checked epoch by epoch above.
    r.Add("txn.aborts",
          static_cast<double>(aborts) /
              static_cast<double>(std::max<uint64_t>(1, epochs)),
          "count");
    std::vector<double> waits;
    for (const Outcome& o : m.traced.outcomes) {
      if (o.cls == kRead && o.stats) {
        waits.push_back(std::max(0.0, o.rtt_us() -
                                          static_cast<double>(o.stats->total_us)));
      }
    }
    r.Add("txn.read_wait_us.p99", Quantile(waits, 0.99), "us");

    // Side calls on the committed state, after the timed window.
    Relation acct(PairSchema("id", "bal")), ledger(PairSchema("id", "amt"));
    {
      auto lock = fx.db->ReadLock();
      acct = *fx.db->catalog().GetRelation("acct").value();
      ledger = *fx.db->catalog().GetRelation("ledger").value();
    }
    std::vector<double> put_us;
    for (int rep = 0; rep < 5; ++rep) {
      int64_t t0 = NowNs();
      Traced(m.spans.get(), "side.put_relation", 0, [&] {
        mra::storage::Encoder enc;
        enc.PutRelation(acct);
        enc.PutRelation(ledger);
        return enc.buffer().size();
      });
      put_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    double krows =
        static_cast<double>(acct.distinct_size() + ledger.distinct_size()) / 1e3;
    r.Add("storage.put_relation_us_per_krow", Median(put_us) / krows, "us");

    MRA_ASSIGN_OR_RETURN(mra::PlanPtr constraint, ConstraintPlan(*fx.db));
    std::vector<double> eval_us;
    for (int rep = 0; rep < 5; ++rep) {
      auto lock = fx.db->ReadLock();
      int64_t t0 = NowNs();
      MRA_ASSIGN_OR_RETURN(Relation violations,
                           Traced(m.spans.get(), "side.constraint_eval", 0, [&] {
                             return mra::EvaluatePlan(*constraint,
                                                      fx.db->catalog());
                           }));
      eval_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      if (!violations.empty()) result->Fail("committed state violates nonneg");
    }
    r.Add("txn.constraint_eval_us", Median(eval_us), "us");
  }

  // Reopen the directory: recovery must rebuild the last epoch's state.
  fx.StopServing();
  fx.db.reset();
  mra::DatabaseOptions reopen;
  reopen.directory = dir;
  reopen.sync_commits = true;
  int64_t t0 = NowNs();
  MRA_ASSIGN_OR_RETURN(std::unique_ptr<mra::Database> db,
                       mra::Database::Open(reopen));
  result->report.Add("wal.recover_s", SecondsSince(t0), "s");
  Status reopened = CheckState(*db, plan, "after reopen");
  if (!reopened.ok()) result->Fail(reopened.message());
  return Status::OK();
}

}  // namespace e2e
