// Tests for core::RuntimeConfig — the typed home of every BCERT_*
// runtime knob: strict env parsing, the single warning channel, and the
// programmatic override path the Engine and resolvers rely on.
#include "src/core/runtime_config.h"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/fault.h"
#include "src/parallel/thread_pool.h"
#include "src/smt/hc4.h"

namespace bcert {
namespace {

using core::ConfigHc4Mode;
using core::RuntimeConfig;

/// Fixture that snapshots and clears the parsed BCERT_* variables, so
/// the tests see a deterministic environment even under the CI legs
/// that exercise the suite with BCERT_THREADS / BCERT_FAULT / ... set.
/// Everything is restored on teardown.
class RuntimeConfigTest : public ::testing::Test {
 protected:
  static constexpr const char* kVars[5] = {
      "BCERT_THREADS", "BCERT_HC4_MODE", "BCERT_JIT_DUMP", "BCERT_FAULT",
      "BCERT_MEM_QUOTA"};

  void SetUp() override {
    for (const char* name : kVars) {
      const char* v = std::getenv(name);
      saved_.emplace_back(v ? std::optional<std::string>(v) : std::nullopt);
      unsetenv(name);
    }
  }
  void TearDown() override {
    for (std::size_t i = 0; i < std::size(kVars); ++i) {
      if (saved_[i]) {
        setenv(kVars[i], saved_[i]->c_str(), 1);
      } else {
        unsetenv(kVars[i]);
      }
    }
  }

  std::vector<std::optional<std::string>> saved_;
};

TEST_F(RuntimeConfigTest, DefaultsWhenEnvironmentUnset) {
  std::vector<std::string> warnings;
  const RuntimeConfig c = RuntimeConfig::from_env(&warnings);
  EXPECT_EQ(c.threads, 0);
  EXPECT_EQ(c.hc4_mode, ConfigHc4Mode::kJit);
  EXPECT_FALSE(c.jit_dump);
  EXPECT_TRUE(warnings.empty());
}

TEST_F(RuntimeConfigTest, ParsesWellFormedValues) {
  setenv("BCERT_THREADS", "4", 1);
  setenv("BCERT_HC4_MODE", "tree", 1);
  setenv("BCERT_JIT_DUMP", "on", 1);

  std::vector<std::string> warnings;
  const RuntimeConfig c = RuntimeConfig::from_env(&warnings);
  EXPECT_EQ(c.threads, 4);
  EXPECT_EQ(c.hc4_mode, ConfigHc4Mode::kTree);
  EXPECT_TRUE(c.jit_dump);
  EXPECT_TRUE(warnings.empty()) << warnings.front();
}

TEST_F(RuntimeConfigTest, MalformedIntegersWarnAndFallBack) {
  setenv("BCERT_THREADS", "abc", 1);

  std::vector<std::string> warnings;
  const RuntimeConfig c = RuntimeConfig::from_env(&warnings);
  EXPECT_EQ(c.threads, 0);  // auto, not atoi garbage
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("BCERT_THREADS"), std::string::npos);
}

TEST_F(RuntimeConfigTest, NonPositiveIntegersRejected) {
  setenv("BCERT_THREADS", "0", 1);
  std::vector<std::string> warnings;
  const RuntimeConfig c = RuntimeConfig::from_env(&warnings);
  EXPECT_EQ(c.threads, 0);
  EXPECT_EQ(warnings.size(), 1u);
}

TEST_F(RuntimeConfigTest, MalformedEnumsWarnAndFallBack) {
  setenv("BCERT_HC4_MODE", "tapee", 1);
  std::vector<std::string> warnings;
  const RuntimeConfig c = RuntimeConfig::from_env(&warnings);
  EXPECT_EQ(c.hc4_mode, ConfigHc4Mode::kJit);  // the library default
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("using the default, jit"), std::string::npos)
      << warnings[0];
}

TEST_F(RuntimeConfigTest, MalformedToggleWarnsButEnables) {
  // A set-but-unrecognized BCERT_JIT_DUMP still means "dump", with a
  // warning.
  setenv("BCERT_JIT_DUMP", "yes-please", 1);
  std::vector<std::string> warnings;
  const RuntimeConfig c = RuntimeConfig::from_env(&warnings);
  EXPECT_TRUE(c.jit_dump);
  EXPECT_EQ(warnings.size(), 1u);
}

TEST_F(RuntimeConfigTest, UnknownBcertVariableWarns) {
  // A typo, and four retired knobs (the batched ICP frontier's width
  // and SIMD tier, and the env overrides of IcpConfig::warm_start and
  // SynthesisOptions::warm_start): a user still setting them is told
  // they do nothing.
  const std::vector<std::string> names = {
      "BCERT_ICP_BACTH", "BCERT_ICP_BATCH", "BCERT_ICP_SIMD",
      "BCERT_ICP_WARM", "BCERT_LP_WARM"};
  for (const std::string& name : names) setenv(name.c_str(), "8", 1);
  std::vector<std::string> warnings;
  (void)RuntimeConfig::from_env(&warnings);
  for (const std::string& name : names) unsetenv(name.c_str());
  ASSERT_EQ(warnings.size(), names.size());
  for (const std::string& name : names) {
    const std::string needle = "variable " + name + " ";
    const auto hits = std::count_if(
        warnings.begin(), warnings.end(), [&](const std::string& w) {
          return w.find(needle) != std::string::npos &&
                 w.find("unknown") != std::string::npos;
        });
    EXPECT_EQ(hits, 1) << name;
  }
}

TEST_F(RuntimeConfigTest, BenchKnobsAreKnown) {
  setenv("BCERT_ICP_BOXES", "1000", 1);
  setenv("BCERT_SIZES", "small", 1);
  std::vector<std::string> warnings;
  (void)RuntimeConfig::from_env(&warnings);
  unsetenv("BCERT_ICP_BOXES");
  unsetenv("BCERT_SIZES");
  EXPECT_TRUE(warnings.empty()) << warnings.front();
}

TEST_F(RuntimeConfigTest, FaultSpecParsedWhenWellFormed) {
  // A CI fault leg may have armed the registry through an earlier
  // active() call before this fixture scrubbed the environment.
  core::FaultRegistry::clear();
  setenv("BCERT_FAULT",
         "tape_compile:throw@3,lp_solve:delay=50ms@every:7", 1);
  std::vector<std::string> warnings;
  const RuntimeConfig c = RuntimeConfig::from_env(&warnings);
  EXPECT_EQ(c.fault_spec, "tape_compile:throw@3,lp_solve:delay=50ms@every:7");
  EXPECT_TRUE(warnings.empty()) << warnings.front();
  // from_env only *validates*: parsing an environment must never arm
  // the process-wide registry as a side effect.
  EXPECT_FALSE(core::FaultRegistry::enabled());
}

TEST_F(RuntimeConfigTest, MalformedFaultSpecWarnsAndIsIgnored) {
  setenv("BCERT_FAULT", "bogus_point:throw,lp_solve:delay=900000ms", 1);
  std::vector<std::string> warnings;
  const RuntimeConfig c = RuntimeConfig::from_env(&warnings);
  EXPECT_TRUE(c.fault_spec.empty());
  ASSERT_EQ(warnings.size(), 2u);
  EXPECT_NE(warnings[0].find("BCERT_FAULT"), std::string::npos);
  EXPECT_NE(warnings[0].find("bogus_point"), std::string::npos);
  EXPECT_NE(warnings[1].find("delay"), std::string::npos);
}

TEST_F(RuntimeConfigTest, MemQuotaParsesBinarySuffixes) {
  const auto parse = [this](const char* text) {
    setenv("BCERT_MEM_QUOTA", text, 1);
    std::vector<std::string> warnings;
    const RuntimeConfig c = RuntimeConfig::from_env(&warnings);
    EXPECT_TRUE(warnings.empty()) << text << ": " << warnings.front();
    return c.mem_quota_bytes;
  };
  EXPECT_EQ(parse("1024"), 1024u);
  EXPECT_EQ(parse("64k"), 64u << 10);
  EXPECT_EQ(parse("64KB"), 64u << 10);
  EXPECT_EQ(parse("8M"), 8u << 20);
  EXPECT_EQ(parse("2g"), 2ull << 30);
}

TEST_F(RuntimeConfigTest, MalformedMemQuotaWarnsAndDisables) {
  setenv("BCERT_MEM_QUOTA", "lots", 1);
  std::vector<std::string> warnings;
  const RuntimeConfig c = RuntimeConfig::from_env(&warnings);
  EXPECT_EQ(c.mem_quota_bytes, 0u);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("BCERT_MEM_QUOTA"), std::string::npos);
}

TEST_F(RuntimeConfigTest, StderrWarningsDedupePerMessage) {
  // Without a sink, warnings go to stderr — but each distinct message
  // only once per process, however often the same malformed environment
  // is re-parsed.
  setenv("BCERT_THREADS", "dedupe-check-8x", 1);
  ::testing::internal::CaptureStderr();
  (void)RuntimeConfig::from_env(nullptr);
  const std::string first = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(first.find("BCERT_THREADS"), std::string::npos);

  ::testing::internal::CaptureStderr();
  (void)RuntimeConfig::from_env(nullptr);
  (void)RuntimeConfig::from_env(nullptr);
  const std::string repeats = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(repeats.find("dedupe-check-8x"), std::string::npos) << repeats;

  // A *different* offending value is a different message and still
  // surfaces.
  setenv("BCERT_THREADS", "dedupe-check-9x", 1);
  ::testing::internal::CaptureStderr();
  (void)RuntimeConfig::from_env(nullptr);
  const std::string changed = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(changed.find("dedupe-check-9x"), std::string::npos);
}

/// RAII guard restoring the active config (the rest of the process
/// consults it through the resolvers).
class ScopedActiveConfig {
 public:
  explicit ScopedActiveConfig(const RuntimeConfig& next)
      : saved_(RuntimeConfig::active()) {
    RuntimeConfig::set_active(next);
  }
  ~ScopedActiveConfig() { RuntimeConfig::set_active(saved_); }

 private:
  RuntimeConfig saved_;
};

TEST(RuntimeConfigOverride, ReachesThreadResolver) {
  RuntimeConfig c = RuntimeConfig::active();
  c.threads = 3;
  ScopedActiveConfig guard(c);
  EXPECT_EQ(parallel::default_thread_count(), 3u);
  EXPECT_EQ(parallel::resolve_thread_count(0), 3);
  EXPECT_EQ(parallel::resolve_thread_count(7), 7);  // explicit wins
}

TEST(RuntimeConfigOverride, ReachesIcpResolvers) {
  RuntimeConfig c = RuntimeConfig::active();
  c.hc4_mode = ConfigHc4Mode::kTree;
  ScopedActiveConfig guard(c);

  EXPECT_EQ(smt::resolve_hc4_mode(smt::Hc4Mode::kAuto), smt::Hc4Mode::kTree);
  EXPECT_EQ(smt::resolve_hc4_mode(smt::Hc4Mode::kTape), smt::Hc4Mode::kTape);
}

// The library default is the native backend; a build without one
// resolves it to the tape up front rather than failing every emission.
TEST(RuntimeConfigOverride, DefaultResolvesToJitWhereSupported) {
  RuntimeConfig c = RuntimeConfig::active();
  c.hc4_mode = RuntimeConfig{}.hc4_mode;
  ScopedActiveConfig guard(c);

  EXPECT_EQ(smt::resolve_hc4_mode(smt::Hc4Mode::kAuto),
            smt::jit::ExecMemory::supported() ? smt::Hc4Mode::kJit
                                              : smt::Hc4Mode::kTape);
}

}  // namespace
}  // namespace bcert
