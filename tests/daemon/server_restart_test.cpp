// End-to-end daemon tests over a real Unix-domain socket: submit →
// verdict round trip, graceful drain with a warm-state snapshot, and
// the headline acceptance property of this subsystem — a daemon
// restarted from its snapshot produces bit-identical verdict lines to
// both a fresh daemon and an in-process Engine run on the same scenario
// suite, with warm-restore counters proving the warm path was taken.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/core/runtime_config.h"
#include "src/daemon/client.h"
#include "src/daemon/json.h"
#include "src/daemon/protocol.h"
#include "src/daemon/server.h"
#include "src/expr/expr.h"
#include "src/scenario/generator.h"

namespace bcert::daemon {
namespace {

constexpr std::uint64_t kSeed = 7;
constexpr int kJobs = 2;

/// RAII guard restoring the active config on exit.
class ScopedActiveConfig {
 public:
  explicit ScopedActiveConfig(const core::RuntimeConfig& next)
      : saved_(core::RuntimeConfig::active()) {
    core::RuntimeConfig::set_active(next);
  }
  ~ScopedActiveConfig() { core::RuntimeConfig::set_active(saved_); }

 private:
  core::RuntimeConfig saved_;
};

struct CampaignOutcome {
  std::vector<std::string> verdicts;
  bool snapshot_loaded = false;
  std::uint64_t tape_warm_restores = 0;
  std::uint64_t tree_warm_restores = 0;
};

/// Runs a daemon on \p socket_path, submits the fixed suite through a
/// real client connection, waits for every verdict, captures stats and
/// drains. The server's scheduler runs on a helper thread; run() must
/// return 0 (clean drain).
CampaignOutcome run_daemon_campaign(const std::string& socket_path,
                                    const std::string& state_dir) {
  CampaignOutcome outcome;

  ServerOptions options;
  options.socket_path = socket_path;
  options.state_dir = state_dir;
  options.snapshot_period_s = 0.0;  // drain-only snapshot
  options.log_level = core::ConfigLogLevel::kError;
  static std::ostringstream log_sink;  // outlives server threads
  options.log_stream = &log_sink;

  Server server(std::move(options));
  std::string error;
  EXPECT_TRUE(server.start(&error)) << error;
  if (::testing::Test::HasFailure()) return outcome;

  int exit_code = -1;
  std::thread scheduler([&] { exit_code = server.run(); });

  Client client(socket_path);
  EXPECT_TRUE(client.connect(/*timeout_s=*/10.0, &error)) << error;

  std::vector<std::uint64_t> job_ids;
  for (int i = 0; i < kJobs; ++i) {
    JsonValue response;
    const std::string body = "{\"cmd\":\"submit\",\"scenario\":{\"seed\":" +
                             std::to_string(kSeed) +
                             ",\"index\":" + std::to_string(i) + "}}";
    EXPECT_TRUE(client.request(body, response, &error)) << error;
    EXPECT_EQ(response.string_or("type", ""), "submitted");
    job_ids.push_back(
        static_cast<std::uint64_t>(response.number_or("job", 0.0)));
  }

  for (const std::uint64_t job : job_ids) {
    while (!::testing::Test::HasFailure()) {
      JsonValue response;
      EXPECT_TRUE(client.request(
          "{\"cmd\":\"status\",\"job\":" + std::to_string(job) + "}",
          response, &error))
          << error;
      if (response.string_or("state", "") == "done") {
        outcome.verdicts.push_back(response.string_or("verdict", ""));
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  JsonValue stats;
  EXPECT_TRUE(client.request("{\"cmd\":\"stats\"}", stats, &error)) << error;
  if (const JsonValue* snapshots = stats.find("snapshots")) {
    outcome.snapshot_loaded = snapshots->bool_or("loaded", false);
  }
  if (const JsonValue* caches = stats.find("caches")) {
    if (const JsonValue* tape = caches->find("tape")) {
      outcome.tape_warm_restores = static_cast<std::uint64_t>(
          tape->number_or("warm_restores", 0.0));
    }
    if (const JsonValue* unsat = caches->find("unsat")) {
      outcome.tree_warm_restores = static_cast<std::uint64_t>(
          unsat->number_or("warm_restores", 0.0));
    }
  }

  JsonValue drained;
  EXPECT_TRUE(client.request("{\"cmd\":\"drain\"}", drained, &error)) << error;
  scheduler.join();
  EXPECT_EQ(exit_code, 0);
  return outcome;
}

/// The in-process baseline: the same suite straight through an Engine,
/// exactly what `bcertctl local-campaign` runs.
std::vector<std::string> run_inprocess_campaign() {
  std::vector<std::string> verdicts;
  expr::ExprPool pool;
  core::Engine engine(core::EngineOptions{});
  for (int i = 0; i < kJobs; ++i) {
    ScenarioSpec spec;
    spec.seed = kSeed;
    spec.index = static_cast<std::uint64_t>(i);
    scenario::ScenarioGenerator generator(pool, spec.generator_config());
    core::Scenario scenario = generator.generate_one(spec.index);
    core::JobOptions job = scenario::zoo_job_defaults();
    if (scenario.certificate.has_value()) {
      job.certificate = *scenario.certificate;
    }
    verdicts.push_back(
        verdict_line(spec.name(), engine.verify(scenario.problem, job)));
  }
  return verdicts;
}

TEST(ServerRestart, SnapshotWarmedDaemonIsBitIdenticalToColdAndInProcess) {
  // The warm-restore assertions cover the snapshot's tape section, so
  // pin every job to the tape backend: under BCERT_HC4_MODE=tree no
  // tapes would compile and there would be nothing to restore.
  core::RuntimeConfig tape = core::RuntimeConfig::active();
  tape.hc4_mode = core::ConfigHc4Mode::kTape;
  ScopedActiveConfig guard(tape);

  const std::string dir = testing::TempDir();
  const std::string socket_path = dir + "bcertd_restart_test.sock";
  const std::string state_dir = dir + "bcertd_restart_state";
  const std::string snapshot = state_dir + "/bcertd.snapshot";
  std::remove(snapshot.c_str());
  ASSERT_EQ(std::system(("mkdir -p " + state_dir).c_str()), 0);

  // Cold daemon: no snapshot to load, writes one on drain.
  const CampaignOutcome cold = run_daemon_campaign(socket_path, state_dir);
  ASSERT_FALSE(::testing::Test::HasFailure());
  ASSERT_EQ(cold.verdicts.size(), static_cast<std::size_t>(kJobs));
  EXPECT_FALSE(cold.snapshot_loaded);
  EXPECT_EQ(cold.tape_warm_restores, 0u);
  EXPECT_EQ(cold.tree_warm_restores, 0u);
  std::FILE* f = std::fopen(snapshot.c_str(), "rb");
  ASSERT_NE(f, nullptr) << "drain did not write a snapshot";
  std::fclose(f);

  // Restarted daemon: loads the snapshot, must reproduce the cold
  // verdicts bit-for-bit while actually taking the warm path.
  const CampaignOutcome warm = run_daemon_campaign(socket_path, state_dir);
  ASSERT_FALSE(::testing::Test::HasFailure());
  EXPECT_TRUE(warm.snapshot_loaded);
  EXPECT_EQ(warm.verdicts, cold.verdicts);
  EXPECT_GT(warm.tape_warm_restores, 0u);
  EXPECT_GT(warm.tree_warm_restores, 0u);

  // And both must match the in-process Engine run of the same suite.
  EXPECT_EQ(run_inprocess_campaign(), cold.verdicts);

  for (const std::string& verdict : cold.verdicts) {
    EXPECT_NE(verdict.find("status="), std::string::npos) << verdict;
  }
  std::remove(snapshot.c_str());
}

}  // namespace
}  // namespace bcert::daemon
