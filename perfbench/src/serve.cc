// The serve phase: an in-process prored server on a Unix socket, driven by
// an open loop of seeded arrivals over at most min(4, nproc) connections.
// Each request is timed from when it was due, so a stall also charges the
// requests queued behind it. The phase measures an unloaded sample, a
// nominal rate, and (untraced runs) the knee: a sweep of fixed rates
// upward until a rate misses the p99 limit, then more probes of the two
// rates that bracket the knee, pooled by rate, for the rest of the
// window. Every probe replays the same planned traffic at its own rate.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <map>
#include <cstring>
#include <thread>

#include "bench.h"
#include "common/frame_io.h"
#include "common/json.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "engine/machine.h"
#include "engine/snapshot.h"
#include "reader/parser.h"
#include "reader/writer.h"
#include "server/server.h"
#include "term/store.h"

namespace perfbench {

using prore::JsonValue;
using prore::StrFormat;

namespace {

enum Op { kSolve, kWarm, kLoad, kCold, kUnload, kNumOps };
const char* const kOpNames[kNumOps] = {"solve", "reorder_warm", "load",
                                       "reorder_cold", "unload"};

size_t Connections() {
  return std::min<size_t>(4, prore::ThreadPool::HardwareConcurrency());
}

// The mix of ServeSpec: per deck of 16 jobs, 14 reads, one warm reorder
// and one write (three requests).
constexpr size_t kDeckReads = 14;
constexpr double kRequestsPerJob = 18.0 / 16.0;

/// Draws the traffic's choices: job kinds in shuffled decks with the mix's
/// exact shares, and the sessions of reads and of warm reorders and the
/// bases of writes round-robin in shuffled order. Any stretch of a few
/// decks then carries nearly the same work for every seed. Two pickers
/// with one seed make the same choices.
class Picker {
 public:
  enum Kind { kRead, kWarmReorder, kWrite };

  explicit Picker(uint64_t seed) : rng_(seed) {}

  Kind NextKind() {
    if (kinds_.empty()) {
      kinds_.assign(kDeckReads, kRead);
      kinds_.push_back(kWarmReorder);
      kinds_.push_back(kWrite);
      Shuffle(&kinds_);
    }
    const Kind k = kinds_.back();
    kinds_.pop_back();
    return k;
  }
  size_t NextSession(size_t n) { return Next(n, &sessions_); }
  size_t NextReadSession(size_t n) { return Next(n, &read_sessions_); }
  size_t NextBase(size_t n) { return Next(n, &bases_); }
  Rng& rng() { return rng_; }

 private:
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[rng_.Below(i)]);
    }
  }
  size_t Next(size_t n, std::vector<size_t>* deck) {
    if (deck->empty()) {
      for (size_t i = 0; i < n; ++i) deck->push_back(i);
      Shuffle(deck);
    }
    const size_t i = deck->back();
    deck->pop_back();
    return i;
  }

  Rng rng_;
  std::vector<Kind> kinds_;
  std::vector<size_t> sessions_, read_sessions_, bases_;
};

/// A blocking framed-protocol client connection.
class Conn {
 public:
  explicit Conn(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return;
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      Close();
      return;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size());
    if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      Close();
    }
    io_.idle_timeout_ms = 120'000;
    io_.frame_timeout_ms = 120'000;
  }
  ~Conn() { Close(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Sends one request and reads frames up to the final reply. Streamed
  /// answer frames land in `answers`. Returns the final reply's status
  /// ("io_error" when the connection broke).
  std::string Call(const std::string& payload, JsonValue* final_reply,
                   std::vector<std::string>* answers) {
    if (fd_ < 0 || !prore::WriteFrame(fd_, payload, io_).ok()) {
      return "io_error";
    }
    for (;;) {
      prore::FrameReadResult r = prore::ReadFrame(fd_, io_);
      if (r.event != prore::FrameEvent::kFrame) return "io_error";
      auto parsed = JsonValue::Parse(r.payload);
      if (!parsed.ok()) return "io_error";
      std::string status = parsed->GetString("status");
      if (status == "answer") {
        if (answers != nullptr) answers->push_back(parsed->GetString("answer"));
        continue;
      }
      if (final_reply != nullptr) *final_reply = std::move(*parsed);
      return status;
    }
  }

 private:
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  int fd_ = -1;
  prore::FrameIoOptions io_;
};

std::string LoadPayload(const std::string& session, const std::string& src) {
  JsonValue req = JsonValue::Object();
  req.Set("op", JsonValue::String("load"));
  req.Set("session", JsonValue::String(session));
  req.Set("program", JsonValue::String(src));
  return req.Dump();
}

std::string OpPayload(const char* op, const std::string& session,
                      double jobs = 0) {
  JsonValue req = JsonValue::Object();
  req.Set("op", JsonValue::String(op));
  req.Set("session", JsonValue::String(session));
  if (jobs > 0) req.Set("jobs", JsonValue::Number(jobs));
  return req.Dump();
}

/// The sharded library output (jobs=1 bytes) of `source`.
std::string LibraryReorder(const std::string& source, size_t jobs) {
  prore::term::TermStore store;
  auto program = prore::reader::ParseProgramText(&store, source);
  if (!program.ok()) return "";
  prore::core::PipelineOptions po;
  po.jobs = jobs;
  auto result = prore::core::GuardedPipeline(&store, po).Run(*program);
  if (!result.ok()) return "";
  return prore::reader::WriteProgram(store, result->program);
}

struct Request {
  Op op = kSolve;
  std::string payload;
  const ReadQuery* read = nullptr;
  const SessionInput* session = nullptr;
  std::string variant_source;  ///< kCold: checked after the step
  std::string base;            ///< kCold: the variant's base program
};

struct Job {
  double due_s = 0;  ///< offset from the step start
  std::vector<Request> requests;
};

/// Outcome of one request.
struct Outcome {
  Op op = kSolve;
  bool sent = false;
  bool ok = false;    ///< status as expected and output correct
  bool shed = false;  ///< "overloaded"
  double from_due_ms = 0;
  double service_ms = 0;
  std::string program;  ///< reorder reply
  /// Same program as expected, different bytes (a recorded defect).
  bool byte_diff = false;
  const Request* request = nullptr;
};

/// One step's jobs and their outcomes (which point into `jobs`; moving a
/// StepStats keeps them valid, copying would not).
struct StepStats {
  std::vector<Job> jobs;
  std::vector<Outcome> outcomes;
  std::vector<double> late_ms;  ///< generator lateness of idle sends
  bool aborted = false;
};

}  // namespace

class ServeHarness {
 public:
  explicit ServeHarness(prore::server::ServerOptions o)
      : server(std::move(o)) {}
  prore::server::Server server;
  std::string socket_path;
};

ServerHandle StartServer(const std::string& dir, const WorkloadInputs& inputs,
                         std::string* error) {
  static int counter = 0;
  prore::server::ServerOptions o;
  o.socket_path =
      StrFormat("%s/prored-%d-%d.sock", dir.c_str(), ::getpid(), counter++);
  o.workers = prore::ThreadPool::HardwareConcurrency();
  o.cache_entries = 1u << 16;
  o.max_sessions = 256;
  o.pipeline.jobs = 1;
  o.default_deadline_ms = 120'000;
  ::unlink(o.socket_path.c_str());
  ServerHandle h(new ServeHarness(o));
  h->socket_path = o.socket_path;
  if (auto st = h->server.Start(); !st.ok()) {
    *error = "server start: " + st.ToString();
    return nullptr;
  }
  Conn conn(h->socket_path);
  for (const SessionInput& s : inputs.sessions) {
    JsonValue reply;
    std::string status = conn.Call(LoadPayload(s.name, s.source), &reply,
                                   nullptr);
    if (status != "ok" ||
        reply.GetNumber("clauses") != static_cast<double>(s.clauses)) {
      *error = "load " + s.name + ": " + status;
      return nullptr;
    }
  }
  return h;
}

void StopServer::operator()(ServeHarness* harness) const {
  harness->server.Shutdown("benchmark done");
  harness->server.Wait();
  ::unlink(harness->socket_path.c_str());
  delete harness;
}

namespace {

class ServeRunner {
 public:
  ServeRunner(uint64_t seed, ServeHarness* h, const WorkloadInputs& in,
              Tracer* tracer, Tally* tally)
      : h_(h), in_(in), tracer_(tracer), tally_(tally),
        traffic_(seed ^ 0x7365727665ull), fresh_(seed ^ 0x6672657368ull) {
    for (const SessionInput& s : in.sessions) {
      std::vector<const ReadQuery*> pool;
      for (const ReadQuery& r : in.reads) {
        if (r.session == s.name) pool.push_back(&r);
      }
      if (!pool.empty()) reads_.push_back(std::move(pool));
    }
  }

  /// The picker of the unloaded sample and the nominal rate.
  Picker* traffic() { return &traffic_; }
  /// Jobs arriving as a Poisson process at `rps` requests per second over
  /// `seconds`, drawn by `pick`. Variants get fresh constants every time,
  /// so a replayed plan still misses the cache.
  std::vector<Job> Schedule(double rps, double seconds, Picker* pick);
  /// `count` reads due at once, run one at a time on one connection.
  std::vector<Job> SequentialReads(size_t count);
  StepStats Run(std::vector<Job> jobs, size_t connections,
                double abort_after_ms);
  /// Checks outcomes (cold reorders against the library) into the tally.
  void Verify(StepStats* step);

 private:
  Job MakeJob(double due, Picker* pick);
  void Execute(Conn* conn, const Request& r, uint64_t tid, Outcome* out);

  ServeHarness* h_;
  const WorkloadInputs& in_;
  Tracer* tracer_;
  Tally* tally_;
  Picker traffic_;
  Rng fresh_;
  uint64_t variants_ = 0;
  /// The read queries of each session that has any. A read takes the
  /// sessions round-robin, so the mix of programs read does not change
  /// with how many of each program's candidate queries the seed kept.
  std::vector<std::vector<const ReadQuery*>> reads_;
};

Job ServeRunner::MakeJob(double due, Picker* pick) {
  const ServeSpec& s = in_.serve;
  Job job;
  job.due_s = due;
  switch (pick->NextKind()) {
    case Picker::kRead: {
      const auto& pool = reads_[pick->NextReadSession(reads_.size())];
      const ReadQuery& q = *pool[pick->rng().Below(pool.size())];
      JsonValue req = JsonValue::Object();
      req.Set("op", JsonValue::String("solve"));
      req.Set("session", JsonValue::String(q.session));
      req.Set("query", JsonValue::String(q.query));
      job.requests.push_back(Request{kSolve, req.Dump(), &q, nullptr, "", ""});
      break;
    }
    case Picker::kWarmReorder: {
      const SessionInput& session =
          in_.sessions[pick->NextSession(in_.sessions.size())];
      job.requests.push_back(Request{kWarm, OpPayload("reorder", session.name),
                                     nullptr, &session, "", ""});
      break;
    }
    case Picker::kWrite: {
      const std::string name = StrFormat(
          "variant%llu", static_cast<unsigned long long>(variants_++));
      const VariantBase& base =
          s.variant_bases[pick->NextBase(s.variant_bases.size())];
      std::string source =
          MakeVariant(base.source, pick->rng().Next(), fresh_.Next());
      job.requests.push_back(Request{kLoad, LoadPayload(name, source), nullptr,
                                     nullptr, "", ""});
      job.requests.push_back(Request{kCold, OpPayload("reorder", name),
                                     nullptr, nullptr, std::move(source),
                                     base.name});
      job.requests.push_back(Request{kUnload, OpPayload("unload", name),
                                     nullptr, nullptr, "", ""});
      break;
    }
  }
  return job;
}

std::vector<Job> ServeRunner::Schedule(double rps, double seconds,
                                       Picker* pick) {
  const double job_rate = rps / kRequestsPerJob;
  std::vector<Job> jobs;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - pick->rng().Unit()) / job_rate;
    if (t >= seconds) break;
    jobs.push_back(MakeJob(t, pick));
  }
  return jobs;
}

std::vector<Job> ServeRunner::SequentialReads(size_t count) {
  std::vector<Job> jobs;
  while (jobs.size() < count) {
    Job job = MakeJob(0, &traffic_);
    if (job.requests.front().op == kSolve) jobs.push_back(std::move(job));
  }
  return jobs;
}

void ServeRunner::Execute(Conn* conn, const Request& r, uint64_t tid,
                          Outcome* out) {
  out->op = r.op;
  out->request = &r;
  out->sent = true;
  JsonValue reply;
  std::vector<std::string> answers;
  std::string status;
  {
    static const char* const kSpan[kNumOps] = {
        "server.solve", "server.reorder_warm", "server.load",
        "server.reorder_cold", "server.unload"};
    Tracer::Scope span(tracer_, kSpan[r.op], tid);
    status = conn->Call(r.payload, &reply, &answers);
    out->service_ms = span.ElapsedMs();
  }
  if (status == "overloaded") {
    out->shed = true;
    return;
  }
  switch (r.op) {
    case kSolve:
      std::sort(answers.begin(), answers.end());
      out->ok = status == "ok" && answers == r.read->answers;
      break;
    case kWarm:
    case kCold:
      // The program is checked after the step, off the clock.
      out->ok = status == "ok";
      out->program = reply.GetString("program");
      break;
    default:
      out->ok = status == "ok";
  }
}

StepStats ServeRunner::Run(std::vector<Job> job_list, size_t connections,
                           double abort_after_ms) {
  StepStats step;
  step.jobs = std::move(job_list);
  const std::vector<Job>& jobs = step.jobs;
  std::vector<std::vector<Outcome>> outcomes(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    outcomes[i].resize(jobs[i].requests.size());
    for (size_t k = 0; k < jobs[i].requests.size(); ++k) {
      outcomes[i][k].op = jobs[i].requests[k].op;
      outcomes[i][k].request = &jobs[i].requests[k];
    }
  }
  std::mutex mu;
  size_t next = 0;               // guarded by mu
  bool aborted = false;          // guarded by mu
  std::vector<double> late_ms;   // guarded by mu
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);

  auto worker = [&](uint64_t tid) {
    Conn conn(h_->socket_path);
    for (;;) {
      size_t i;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (next >= jobs.size() || aborted) return;
        i = next++;
      }
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(jobs[i].due_s));
      const Clock::time_point picked = Clock::now();
      if (picked < due) {
        // Sleep to just short of the due time, then yield until it: a
        // plain sleep wakes milliseconds late on a busy host, which would
        // be charged to the request.
        std::this_thread::sleep_until(due - std::chrono::milliseconds(2));
        while (Clock::now() < due) std::this_thread::yield();
        std::lock_guard<std::mutex> lock(mu);
        late_ms.push_back(MsSince(due, Clock::now()));
      } else if (MsSince(due, picked) > abort_after_ms) {
        // Far past due: the rate is beyond capacity. The rest of the
        // step is not sent (counted as missing the limit).
        std::lock_guard<std::mutex> lock(mu);
        aborted = true;
        return;
      }
      for (size_t k = 0; k < jobs[i].requests.size(); ++k) {
        Outcome& o = outcomes[i][k];
        Execute(&conn, jobs[i].requests[k], tid, &o);
        o.from_due_ms = MsSince(due, Clock::now());
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) threads.emplace_back(worker, c + 1);
  for (auto& t : threads) t.join();

  step.aborted = aborted;
  step.late_ms = std::move(late_ms);
  for (auto& v : outcomes) {
    for (auto& o : v) step.outcomes.push_back(std::move(o));
  }
  return step;
}

void ServeRunner::Verify(StepStats* step) {
  // Reorder replies are checked against the library's sharded output:
  // the session's, or for a cold reorder the variant's, computed now.
  std::vector<Outcome*> reorders;
  for (Outcome& o : step->outcomes) {
    if ((o.op == kWarm || o.op == kCold) && o.ok) reorders.push_back(&o);
  }
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i; (i = next.fetch_add(1)) < reorders.size();) {
      Outcome* o = reorders[i];
      const bool warm = o->op == kWarm;
      const std::string expected =
          warm ? o->request->session->expected_reorder
               : LibraryReorder(o->request->variant_source, 1);
      o->byte_diff = o->program != expected;
      o->ok = !o->byte_diff ||
              (KnownRenameDefect(warm ? o->request->session->name
                                      : o->request->base) &&
               CanonicalVars(o->program) == CanonicalVars(expected));
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < Connections(); ++c) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  for (const Outcome& o : step->outcomes) {
    if (!o.sent) continue;  // unsent requests of an aborted step
    tally_->Check(o.ok || o.shed,
                  StrFormat("serve: %s request failed", kOpNames[o.op]));
    if (o.ok && o.byte_diff) {
      ++tally_->defects[StrFormat(
          "served %s output renames variables (requests)", kOpNames[o.op])];
    }
  }
}

std::vector<double> Latencies(const StepStats& step, int op, bool from_due) {
  std::vector<double> out;
  for (const Outcome& o : step.outcomes) {
    if (!o.sent || (op >= 0 && o.op != op)) continue;
    if (o.ok && !o.shed) {
      out.push_back(from_due ? o.from_due_ms : o.service_ms);
    } else if (from_due) {
      out.push_back(1e12);
    }
  }
  return out;
}

/// The probes of one rate of the knee search, pooled.
struct Rung {
  int probes = 0;
  bool aborted = false;     ///< a probe built up a growing backlog
  size_t missing = 0;       ///< shed or failed requests
  std::vector<double> lat;  ///< from due time; shed or failed: 1e12

  void Add(const StepStats& step) {
    ++probes;
    aborted = aborted || step.aborted;
    for (const Outcome& o : step.outcomes) {
      if (o.sent && (!o.ok || o.shed)) ++missing;
    }
    const std::vector<double> l = Latencies(step, -1, true);
    lat.insert(lat.end(), l.begin(), l.end());
  }
  double P99() const { return aborted ? 1e12 : Quantile(lat, 0.99); }
  /// p99 within `limit`, at most 1% shed or failed, no growing backlog.
  bool Passes(double limit) const {
    return !aborted && !lat.empty() &&
           static_cast<double>(missing) <=
               0.01 * static_cast<double>(lat.size()) &&
           P99() <= limit;
  }
};

/// Direct library solve of `q`, rendered like the server renders answers.
double DirectSolveMs(
    const std::shared_ptr<const prore::engine::ProgramSnapshot>& snap,
    const ReadQuery& q) {
  const Clock::time_point t0 = Clock::now();
  prore::engine::Machine machine(snap);
  auto parsed = prore::reader::ParseQueryText(&machine.store(), q.query + ".");
  if (!parsed.ok()) return 0;
  std::vector<std::string> answers;
  auto m = machine.Solve(parsed->term, [&]() {
    std::string b;
    for (const auto& [name, var] : parsed->var_names) {
      if (!b.empty()) b += ", ";
      b += name + " = " + prore::reader::WriteTerm(machine.store(), var);
    }
    answers.push_back(b);
    return true;
  });
  (void)m;
  return MsSince(t0, Clock::now());
}

}  // namespace

class ServePhase::Impl {
 public:
  Impl(const RunOptions& opts, ServeHarness* harness,
       const WorkloadInputs& inputs, Tracer* tracer, Tally* tally)
      : opts_(opts), harness_(harness), inputs_(inputs), tracer_(tracer),
        tally_(tally), conns_(Connections()) {
    // Warm-up, off the clock: the library's sharded output of each session
    // is the expected reply, and a first served reorder fills the cache.
    Conn conn(harness->socket_path);
    for (SessionInput& s : inputs_.sessions) {
      if (s.expected_reorder.empty()) {
        s.expected_reorder = LibraryReorder(s.source, conns_);
      }
      JsonValue reply;
      const std::string status =
          conn.Call(OpPayload("reorder", s.name, static_cast<double>(conns_)),
                    &reply, nullptr);
      const std::string program = reply.GetString("program");
      tally->Check(status == "ok" && !s.expected_reorder.empty() &&
                       (program == s.expected_reorder ||
                        (KnownRenameDefect(s.name) &&
                         CanonicalVars(program) ==
                             CanonicalVars(s.expected_reorder))),
                   "serve: cold reorder of " + s.name +
                       " differs from the library's sharded output");
    }
    runner_ = std::make_unique<ServeRunner>(opts.seed, harness, inputs_,
                                            tracer, tally);
  }

  void Step();
  bool Satisfied() const {
    return unloaded_done_ && chunks_ >= 2 &&
           (opts_.trace || Failing() >= 0 ||
            static_cast<int>(rungs_.size()) >= kSweepProbes);
  }
  ServeResults Finish();

 private:
  static constexpr double kSweepStep = 1.15;
  static constexpr int kSweepProbes = 8;

  /// The unloaded sample: one read at a time, and the same solves made
  /// directly.
  void Unloaded();
  /// A chunk of the nominal rate, below the knee, pooled with the other
  /// chunks for the percentiles.
  void NominalChunk();
  /// One probe of the knee search, at the rate NextRung() picks.
  void Probe();
  /// Rate k of the knee sweep: nominal_rps * 1.15^k.
  double SweepRate(int k) const {
    return inputs_.serve.nominal_rps *
           std::pow(kSweepStep, static_cast<double>(k));
  }
  /// The lowest rung that fails, pooled (-1: none yet).
  int Failing() const;
  /// The highest rung below `failing` that passes, pooled (-1: none).
  int Passing(int failing) const;
  /// Upward from a start until a rung fails; then the two rungs that
  /// bracket the knee, the one with fewer probes first.
  int NextRung() const;
  /// The rate at which p99, interpolated log-log between the pooled p99
  /// of the rungs that bracket the knee (the nominal chunks if no rung
  /// below the failing one passes), meets the limit.
  double Knee() const;

  const RunOptions& opts_;
  ServeHarness* harness_;
  WorkloadInputs inputs_;
  Tracer* tracer_;
  Tally* tally_;
  size_t conns_;
  std::unique_ptr<ServeRunner> runner_;
  bool unloaded_done_ = false;
  int chunks_ = 0;
  /// Wall time of the nominal chunks and of the knee probes so far.
  double nominal_ms_ = 0, probe_ms_ = 0;
  StepStats unloaded_, nominal_;
  MetricMap chunk_p50_;
  std::vector<double> direct_ms_;
  /// The knee search's probes, pooled by rung k of the sweep ladder.
  std::map<int, Rung> rungs_;
  std::vector<std::string> probes_;
};

void ServePhase::Impl::Step() {
  if (!unloaded_done_) {
    Unloaded();
    unloaded_done_ = true;
    return;
  }
  // Nominal chunks get a third of the time and knee probes the rest; a
  // search starts from the nominal latencies, so two chunks come first.
  const Clock::time_point t0 = Clock::now();
  if (opts_.trace || chunks_ < 2 || 2 * nominal_ms_ <= probe_ms_) {
    NominalChunk();
    nominal_ms_ += MsSince(t0, Clock::now());
  } else {
    Probe();
    probe_ms_ += MsSince(t0, Clock::now());
  }
}

void ServePhase::Impl::Unloaded() {
  tracer_->set_active(opts_.trace);
  unloaded_ = runner_->Run(runner_->SequentialReads(opts_.tiny ? 20 : 200),
                           1, 1e12);
  tracer_->set_active(false);
  runner_->Verify(&unloaded_);
  std::map<std::string, std::shared_ptr<const prore::engine::ProgramSnapshot>>
      snaps;
  for (const SessionInput& s : inputs_.sessions) {
    prore::term::TermStore store;
    auto program = prore::reader::ParseProgramText(&store, s.source);
    if (!program.ok()) continue;
    auto snap = prore::engine::ProgramSnapshot::Compile(store, *program);
    if (snap.ok()) snaps[s.name] = *snap;
  }
  for (const Outcome& o : unloaded_.outcomes) {
    if (o.op == kSolve && snaps.count(o.request->read->session) > 0) {
      direct_ms_.push_back(
          DirectSolveMs(snaps[o.request->read->session], *o.request->read));
    }
  }
}

void ServePhase::Impl::NominalChunk() {
  // A hundred requests or half a second per chunk, whichever is longer.
  const double chunk_s =
      opts_.tiny ? 0.2 : std::max(0.5, 100 / inputs_.serve.nominal_rps);
  tracer_->set_active(opts_.trace);
  StepStats chunk = runner_->Run(
      runner_->Schedule(inputs_.serve.nominal_rps, chunk_s,
                        runner_->traffic()),
      conns_, 20 * inputs_.serve.p99_limit_ms);
  tracer_->set_active(false);
  runner_->Verify(&chunk);
  ++chunks_;
  tally_->Check(!chunk.aborted, "serve: nominal rate overloaded the server");
  // Each chunk's median is a sample, reduced like the pipeline's wall
  // times; p99 needs all chunks' samples.
  const std::vector<double> lat = Latencies(chunk, -1, true);
  if (!lat.empty()) {
    AddSample(&chunk_p50_, "serve_p50_ms", "ms", Quantile(lat, 0.5),
              Reduce::kLowQuartile);
  }
  nominal_.late_ms.insert(nominal_.late_ms.end(), chunk.late_ms.begin(),
                          chunk.late_ms.end());
  for (Outcome& o : chunk.outcomes) nominal_.outcomes.push_back(std::move(o));
  nominal_.jobs.insert(nominal_.jobs.end(),
                       std::make_move_iterator(chunk.jobs.begin()),
                       std::make_move_iterator(chunk.jobs.end()));
}

int ServePhase::Impl::Failing() const {
  for (const auto& [k, rung] : rungs_) {
    if (!rung.Passes(inputs_.serve.p99_limit_ms)) return k;
  }
  return -1;
}

int ServePhase::Impl::Passing(int failing) const {
  int passing = -1;
  for (const auto& [k, rung] : rungs_) {
    if (k < failing && rung.Passes(inputs_.serve.p99_limit_ms)) passing = k;
  }
  return passing;
}

int ServePhase::Impl::NextRung() const {
  if (rungs_.empty()) {
    // Start at the sweep rate at or below twice the capacity the nominal
    // service times imply (they include the server's queueing, so the knee
    // lies above that capacity: 1.5 to 2 times it on both workloads), so
    // the first probe or the one after it brackets the knee, on a slow
    // host as on a fast one.
    double busy_ms = 0;
    for (const Outcome& o : nominal_.outcomes) busy_ms += o.service_ms;
    const double capacity =
        1000.0 * static_cast<double>(conns_ * nominal_.outcomes.size()) /
        std::max(busy_ms, 1.0);
    return std::max(
        0, static_cast<int>(std::floor(
               std::log(2 * capacity / inputs_.serve.nominal_rps) /
               std::log(kSweepStep))));
  }
  const int failing = Failing();
  if (failing < 0) {
    // Every rung so far passes: go up, at most kSweepProbes rungs.
    const int top = rungs_.rbegin()->first;
    return top - rungs_.begin()->first + 1 < kSweepProbes ? top + 1 : top;
  }
  const int passing = Passing(failing);
  if (passing < 0) return failing > 0 ? failing - 1 : failing;
  return rungs_.at(passing).probes < rungs_.at(failing).probes ? passing
                                                               : failing;
}

void ServePhase::Impl::Probe() {
  // Every probe replays one plan, so probes differ in rate alone.
  const int k = NextRung();
  const double rate = SweepRate(k);
  Picker plan(opts_.seed ^ 0x6b6e6565ull);
  StepStats probe =
      runner_->Run(runner_->Schedule(rate, inputs_.serve.probe_s, &plan),
                   conns_, 5 * inputs_.serve.p99_limit_ms);
  runner_->Verify(&probe);
  Rung one;
  one.Add(probe);
  rungs_[k].Add(probe);
  probes_.push_back(StrFormat(
      "%.0f/s p99 %.1f ms %s%s", rate, one.P99(),
      one.Passes(inputs_.serve.p99_limit_ms) ? "pass" : "fail",
      probe.aborted ? " (backlog)" : ""));
}

double ServePhase::Impl::Knee() const {
  const double limit = inputs_.serve.p99_limit_ms;
  const int failing = Failing();
  const int passing = failing >= 0 ? Passing(failing)
                      : rungs_.empty() ? -1
                                       : rungs_.rbegin()->first;
  double pass_rate = inputs_.serve.nominal_rps;
  double pass_p99 = Quantile(Latencies(nominal_, -1, true), 0.99);
  if (passing >= 0) {
    pass_rate = SweepRate(passing);
    pass_p99 = rungs_.at(passing).P99();
  }
  double knee = pass_rate;
  if (failing >= 0 && pass_p99 < limit) {
    // A rate that failed on shed or failed requests, not on p99, caps
    // the knee at that rate.
    const double fail_p99 = rungs_.at(failing).P99();
    const double at =
        fail_p99 > pass_p99 ? std::min(1.0, std::log(limit / pass_p99) /
                                                std::log(fail_p99 / pass_p99))
                            : 1.0;
    knee = pass_rate * std::pow(SweepRate(failing) / pass_rate, at);
  } else if (pass_p99 > limit) {
    // Even the nominal rate misses the limit: the knee lies below it.
    knee = pass_rate * limit / pass_p99;
  }
  return knee;
}

ServeResults ServePhase::Impl::Finish() {
  ServeResults res;
  uint64_t sent = 0, shed = 0;
  for (const Outcome& o : nominal_.outcomes) {
    sent += o.sent;
    shed += o.shed;
  }
  const std::vector<double> loaded_all = Latencies(nominal_, -1, true);
  const std::vector<double> unloaded_all = Latencies(unloaded_, -1, false);
  res.e2e["serve_p50_ms"] = chunk_p50_["serve_p50_ms"];
  AddSample(&res.e2e, "serve_p99_ms", "ms", Quantile(loaded_all, 0.99));
  AddSample(&res.e2e, "shed_ratio", "ratio",
            sent == 0 ? 0
                      : static_cast<double>(shed) / static_cast<double>(sent));
  if (!opts_.trace) {
    AddSample(&res.e2e, "serve_max_rps", "1/s", Knee());
    std::string probes;
    for (const std::string& p : probes_) probes += (probes.empty() ? "" : ", ") + p;
    res.notes.push_back("knee probes: " + probes);
    for (const auto& [k, rung] : rungs_) {
      res.notes.push_back(StrFormat(
          "knee rung %.0f/s: %d probes, pooled p99 %.1f ms, %s", SweepRate(k),
          rung.probes, rung.P99(),
          rung.Passes(inputs_.serve.p99_limit_ms) ? "pass" : "fail"));
    }
  }

  // Server counters and per-op latencies (per-layer).
  JsonValue stats;
  {
    Conn conn(harness_->socket_path);
    tally_->Check(conn.Call("{\"op\":\"stats\"}", &stats, nullptr) == "ok",
                  "serve: stats op failed");
  }
  const JsonValue* st = stats.Find("stats");
  const JsonValue* cache = st != nullptr ? st->Find("cache") : nullptr;
  MetricMap& l = res.layer;
  AddSample(&l, "serve.nominal_requests", "count", static_cast<double>(sent));
  for (int op = 0; op < kNumOps; ++op) {
    if (op == kUnload) continue;
    const std::vector<double> lat = Latencies(nominal_, op, false);
    AddSample(&l, StrFormat("server.%s.p50_ms", kOpNames[op]), "ms",
              Quantile(lat, 0.5));
    AddSample(&l, StrFormat("server.%s.p99_ms", kOpNames[op]), "ms",
              Quantile(lat, 0.99));
  }
  AddSample(&l, "server.overhead_ms", "ms",
            Quantile(Latencies(unloaded_, kSolve, false), 0.5) -
                Quantile(direct_ms_, 0.5));
  AddSample(&l, "server.queue_ms", "ms",
            Quantile(loaded_all, 0.5) - Quantile(unloaded_all, 0.5));
  AddSample(&l, "server.shed", "count",
            st != nullptr ? st->GetNumber("shed") : 0);
  AddSample(&l, "server.protocol_errors", "count",
            st != nullptr ? st->GetNumber("protocol_errors") : 0);
  const double hits = cache != nullptr ? cache->GetNumber("hits") : 0;
  const double misses = cache != nullptr ? cache->GetNumber("misses") : 0;
  AddSample(&l, "server.cache.hit_ratio", "ratio",
            hits + misses == 0 ? 0 : hits / (hits + misses));
  AddSample(&l, "generator.late_p99_ms", "ms",
            Quantile(nominal_.late_ms, 0.99));
  return res;
}

ServePhase::ServePhase(const RunOptions& opts, ServeHarness* harness,
                       const WorkloadInputs& inputs, Tracer* tracer,
                       Tally* tally)
    : impl_(std::make_unique<Impl>(opts, harness, inputs, tracer, tally)) {}

ServePhase::~ServePhase() = default;

void ServePhase::Step() { impl_->Step(); }

bool ServePhase::Satisfied() const { return impl_->Satisfied(); }

ServeResults ServePhase::Finish() { return impl_->Finish(); }

}  // namespace perfbench
