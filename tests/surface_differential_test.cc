// Cross-surface differential: every way of running the optimizer must emit
// the program and the pipeline report of the plain library run at jobs=0,
// byte for byte. The surfaces are the library at jobs 0, 1, 2 and 4 (each
// with no cache, a cold cache and a warm cache, which must replay every
// dependency group), the prore CLI at --jobs=0|1|4, and the prored
// server's reorder op, cold and warm. The inputs are the paper's corpus,
// examples/prolog/*.pl and fuzz programs, each under the default options
// and with the unfold and factor pre-passes on.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/frame_io.h"
#include "common/json.h"
#include "common/str_util.h"
#include "core/analysis_cache.h"
#include "core/pipeline.h"
#include "program_generator.h"
#include "programs/programs.h"
#include "reader/parser.h"
#include "reader/writer.h"
#include "server/server.h"
#include "term/store.h"

namespace prore {
namespace {

struct Case {
  std::string name;
  std::string source;
};

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (const programs::BenchmarkProgram* p : programs::AllPrograms()) {
    cases.push_back({p->name, p->source});
  }
  std::vector<std::filesystem::path> examples;
  for (const auto& entry :
       std::filesystem::directory_iterator(PRORE_EXAMPLES_DIR)) {
    if (entry.path().extension() == ".pl") examples.push_back(entry.path());
  }
  std::sort(examples.begin(), examples.end());
  for (const auto& path : examples) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    cases.push_back({"example_" + path.stem().string(), text.str()});
  }
  for (uint32_t seed = 1; seed <= 40; ++seed) {
    cases.push_back({StrFormat("fuzz_seed%u", seed),
                     testing::ProgramGenerator(seed).Generate().source});
  }
  return cases;
}

const std::vector<Case>& Cases() {
  static const auto& cases = *new std::vector<Case>(AllCases());
  return cases;
}

struct Output {
  std::string program;
  std::string report;
  size_t cache_hits = 0;
  size_t cache_misses = 0;
};

/// `transforms`: the unfold and factor pre-passes on (--unfold --factor).
Output RunLibrary(const std::string& source, bool transforms, size_t jobs,
                  core::AnalysisCache* cache) {
  term::TermStore store;
  auto program = reader::ParseProgramText(&store, source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  if (!program.ok()) return {};
  core::PipelineOptions options;
  options.jobs = jobs;
  options.cache = cache;
  options.unfold = options.factor = transforms;
  auto result = core::GuardedPipeline(&store, options).Run(*program);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  return {reader::WriteProgram(store, result->program),
          result->report.ToJson(), result->report.cache_hits,
          result->report.cache_misses};
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// prore --jobs=N --report=json: the program on stdout, the report as the
/// one stderr line that is a JSON object.
Output RunCli(const std::string& source, bool transforms, size_t jobs) {
  static std::atomic<int> counter{0};
  const std::string base =
      StrFormat("%s/surface_%d_%d", ::testing::TempDir().c_str(), ::getpid(),
                counter.fetch_add(1));
  {
    std::ofstream in(base + ".pl");
    in << source;
  }
  const std::string cmd = StrFormat(
      "'%s'%s --jobs=%zu --report=json '%s.pl' > '%s.out' 2> '%s.err'",
      PRORE_CLI_PATH, transforms ? " --unfold --factor" : "", jobs,
      base.c_str(), base.c_str(), base.c_str());
  const int status = std::system(cmd.c_str());
  Output out;
  out.program = ReadFile(base + ".out");
  std::istringstream err(ReadFile(base + ".err"));
  for (std::string line; std::getline(err, line);) {
    if (!line.empty() && line[0] == '{') out.report = line;
  }
  EXPECT_TRUE(status == 0 || WEXITSTATUS(status) == 5)
      << "prore --jobs=" << jobs << " exited " << status << "\n"
      << ReadFile(base + ".err");
  for (const char* ext : {".pl", ".out", ".err"}) {
    std::remove((base + ext).c_str());
  }
  return out;
}

/// One framed request/reply exchange with a running server.
JsonValue Call(const std::string& socket_path, const JsonValue& req) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return JsonValue();
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size());
  JsonValue reply;
  FrameIoOptions io;
  io.idle_timeout_ms = 30'000;
  io.frame_timeout_ms = 30'000;
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) == 0 &&
      WriteFrame(fd, req.Dump(), io).ok()) {
    FrameReadResult r = ReadFrame(fd, io);
    if (r.event == FrameEvent::kFrame) {
      auto parsed = JsonValue::Parse(r.payload);
      if (parsed.ok()) reply = *parsed;
    }
  }
  ::close(fd);
  return reply;
}

/// prored's reorder op on a fresh server: the cold reply, then the warm one.
std::vector<Output> RunServer(const std::string& source, bool transforms) {
  static std::atomic<int> counter{0};
  server::ServerOptions options;
  options.socket_path = StrFormat("/tmp/prore_surface_%d_%d.sock", ::getpid(),
                                  counter.fetch_add(1));
  options.workers = 1;
  server::Server server(options);
  std::vector<Output> out;
  EXPECT_TRUE(server.Start().ok());
  JsonValue load = JsonValue::Object();
  load.Set("op", JsonValue::String("load"));
  load.Set("program", JsonValue::String(source));
  EXPECT_EQ(Call(options.socket_path, load).GetString("status"), "ok");
  JsonValue reorder = JsonValue::Object();
  reorder.Set("op", JsonValue::String("reorder"));
  reorder.Set("unfold", JsonValue::Bool(transforms));
  reorder.Set("factor", JsonValue::Bool(transforms));
  for (int pass = 0; pass < 2; ++pass) {
    JsonValue reply = Call(options.socket_path, reorder);
    EXPECT_EQ(reply.GetString("status"), "ok") << reply.Dump();
    out.push_back({reply.GetString("program"), reply.GetString("report")});
  }
  server.Shutdown();
  server.Wait();
  return out;
}

/// A case, and whether the unfold and factor pre-passes are on.
using Param = std::tuple<size_t, bool>;

class SurfaceDifferentialTest : public ::testing::TestWithParam<Param> {};

TEST_P(SurfaceDifferentialTest, EverySurfaceEmitsTheWholeProgramOutput) {
  const Case& c = Cases()[std::get<0>(GetParam())];
  const bool transforms = std::get<1>(GetParam());
  const Output reference = RunLibrary(c.source, transforms, 0, nullptr);
  ASSERT_FALSE(reference.program.empty());
  auto expect_same = [&](const Output& got, const std::string& surface) {
    EXPECT_EQ(got.program, reference.program) << surface;
    EXPECT_EQ(got.report, reference.report) << surface;
  };

  for (size_t jobs : {size_t{0}, size_t{1}, size_t{2}, size_t{4}}) {
    const std::string at = StrFormat("library jobs=%zu", jobs);
    expect_same(RunLibrary(c.source, transforms, jobs, nullptr),
                at + ", no cache");
    core::AnalysisCache cache;
    const Output cold = RunLibrary(c.source, transforms, jobs, &cache);
    expect_same(cold, at + ", cold cache");
    const Output warm = RunLibrary(c.source, transforms, jobs, &cache);
    expect_same(warm, at + ", warm cache");
    // The warm run replays every dependency group.
    const size_t groups = cold.cache_hits + cold.cache_misses;
    EXPECT_GT(groups, 0u) << at;
    EXPECT_EQ(warm.cache_hits, groups) << at;
  }
  for (size_t jobs : {size_t{0}, size_t{1}, size_t{4}}) {
    expect_same(RunCli(c.source, transforms, jobs),
                StrFormat("prore --jobs=%zu", jobs));
  }
  const std::vector<Output> served = RunServer(c.source, transforms);
  ASSERT_EQ(served.size(), 2u);
  expect_same(served[0], "prored reorder, cold cache");
  expect_same(served[1], "prored reorder, warm cache");
}

INSTANTIATE_TEST_SUITE_P(
    Surfaces, SurfaceDifferentialTest,
    ::testing::Combine(::testing::Range<size_t>(0, Cases().size()),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<Param>& info) {
      return Cases()[std::get<0>(info.param)].name +
             (std::get<1>(info.param) ? "_unfold_factor" : "");
    });

}  // namespace
}  // namespace prore
