// The RATEL_* knob table (ctest label: config). Four rows per knob: a
// valid value sets the same field value an atoi/atof read of it would,
// a malformed one is kInvalidArgument naming the knob, an empty one
// means unset, and a misspelt name warns. Every row passes a fake
// environment; only CreateAndSubmitRejectAMalformedProcessKnob touches
// the real one, through ScopedEnv.

#include "common/knobs.h"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdio>
#include <functional>
#include <ostream>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "autograd/transformer.h"
#include "runtime/job_manager.h"
#include "runtime/ratel_trainer.h"
#include "tests/scoped_temp_dir.h"

namespace ratel {
namespace {

template <typename T>
std::string Str(const T& v) {
  if constexpr (std::is_floating_point_v<T>) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  } else if constexpr (std::is_same_v<T, std::string>) {
    return v;
  } else {
    return std::to_string(v);
  }
}

// Renders what the program makes of `env` for one knob.
using Reader = std::function<std::string(const knobs::Env&)>;

template <typename F>
Reader Trainer(F field) {
  return [field](const knobs::Env& env) {
    TrainerOptions options;
    const Status status = ApplyEnvKnobs(env, &options);
    return status.ok() ? Str(field(options)) : status.ToString();
  };
}

template <typename F>
Reader Job(F field) {
  return [field](const knobs::Env& env) {
    JobSpec spec;
    spec.name = "quotajob";
    const Status status = ApplyEnvKnobs(env, &spec);
    return status.ok() ? Str(field(spec)) : status.ToString();
  };
}

// The process-wide and bench knobs resolve to their typed value.
template <typename T>
Reader Process(const char* name) {
  return [name](const knobs::Env& env) {
    const auto value = knobs::Get<T>(env, name);
    if (!value.ok()) return value.status().ToString();
    return value->has_value() ? Str(**value) : std::string("unset");
  };
}

struct Row {
  const char* knob;
  const char* valid;
  std::string effective;  // what `read` gives for `valid`
  const char* malformed;
  Reader read;
};

using Opts = const TrainerOptions&;
using Spec = const JobSpec&;

const std::vector<Row>& Rows() {
  static const std::vector<Row> rows = {
      {"RATEL_REPLAN", "1", "1", "true",
       Trainer([](Opts o) { return o.replan.enabled; })},
      {"RATEL_REPLAN_THRESHOLD_PCT", "35", Str(0.35), "abc",
       Trainer([](Opts o) { return o.replan.deviation_threshold; })},
      {"RATEL_REPLAN_HYSTERESIS", "4", "4", "4.5",
       Trainer([](Opts o) { return o.replan.hysteresis_windows; })},
      {"RATEL_REPLAN_COOLDOWN", "7", "7", "seven",
       Trainer([](Opts o) { return o.replan.cooldown_windows; })},
      {"RATEL_REPLAN_EWMA_ALPHA", "0.25", Str(0.25), "1.5",
       Trainer([](Opts o) { return o.replan.ewma_alpha; })},
      {"RATEL_REPLAN_WINDOWS", "8", "8", "0",
       Trainer([](Opts o) { return o.replan.window_capacity; })},
      {"RATEL_CODEC_PARAM_FETCH", "identity", "identity", "zstd",
       Trainer([](Opts o) { return o.codec.spec(FlowClass::kParamFetch); })},
      {"RATEL_CODEC_GRAD_STATE", "topk:32", "topk:32", "topk:0",
       Trainer([](Opts o) { return o.codec.spec(FlowClass::kGradState); })},
      {"RATEL_CODEC_ACTIVATION_SPILL", "fp16", "fp16", "fp32",
       Trainer([](Opts o) {
         return o.codec.spec(FlowClass::kActivationSpill);
       })},
      {"RATEL_CODEC_CHECKPOINT", "identity", "identity", "topk:x",
       Trainer([](Opts o) { return o.codec.spec(FlowClass::kCheckpoint); })},
      {"RATEL_CODEC_DEFERRED_STATE", "raw", "raw", "identity,fp16",
       Trainer([](Opts o) { return o.codec.spec(FlowClass::kDeferredState); })},
      {"RATEL_FAULT_SEED", "99", "99", "-1",
       Trainer([](Opts o) { return o.fault.seed; })},
      {"RATEL_FAULT_READ_ERROR_EVERY", "25", "25", "1.5",
       Trainer([](Opts o) { return o.fault.read_error_every; })},
      {"RATEL_FAULT_WRITE_ERROR_EVERY", "2", "2", "0x10",
       Trainer([](Opts o) { return o.fault.write_error_every; })},
      {"RATEL_FAULT_LATENCY_SPIKE_EVERY", "4", "4", "-3",
       Trainer([](Opts o) { return o.fault.latency_spike_every; })},
      {"RATEL_FAULT_LATENCY_SPIKE_MS", "2.5", Str(2.5e-3), "nan",
       Trainer([](Opts o) { return o.fault.latency_spike_s; })},
      {"RATEL_FAULT_TORN_WRITE_EVERY", "3", "3", "3 ",
       Trainer([](Opts o) { return o.fault.torn_write_every; })},
      {"RATEL_FAULT_DEAD_STRIPE", "0", "0", "-2",
       Trainer([](Opts o) { return o.fault.dead_stripe; })},
      {"RATEL_FAULT_FLOWS", "param_fetch,checkpoint", "9",
       "param_fetch,grad_stat",
       Trainer([](Opts o) { return o.fault.flow_mask; })},
      // Any string is a key prefix: no value is malformed.
      {"RATEL_FAULT_KEY_PREFIX", "job0/", "job0/", nullptr,
       Trainer([](Opts o) { return o.fault.key_prefix; })},
      {"RATEL_ASYNC_OPTIM", "1", "1", "yes",
       Trainer([](Opts o) { return o.async_optimizer; })},
      {"RATEL_ASYNC_HOT_FRACTION", "0.5", Str(0.5), "50%",
       Trainer([](Opts o) { return o.async_hot_fraction; })},
      {"RATEL_TENANT_WEIGHT", "quotajob=5,other=2", "5", "quotajob=heavy",
       Job([](Spec s) { return s.weight; })},
      {"RATEL_TENANT_DRAM_QUOTA", "quotajob=1048576", "1048576",
       "quotajob=5,,other=2", Job([](Spec s) { return s.quota.dram_bytes; })},
      {"RATEL_TENANT_INFLIGHT_QUOTA", "quotajob=65536", "65536",
       "quotajob=64k", Job([](Spec s) { return s.quota.inflight_bytes; })},
      {"RATEL_SIMD", "scalar", "scalar", "avx512",
       Process<std::string>("RATEL_SIMD")},
      {"RATEL_THREADS", "99", "99", "abc", Process<int64_t>("RATEL_THREADS")},
      {"RATEL_OVERSUBSCRIBE", "1", "1", "yes",
       Process<bool>("RATEL_OVERSUBSCRIBE")},
      {"RATEL_BENCH_SMOKE", "1", "1", "on",
       Process<bool>("RATEL_BENCH_SMOKE")},
  };
  return rows;
}

// The check RatelTrainer::Create runs, then JobManager::Submit's.
Status CreateCheck(const knobs::Env& env) {
  TrainerOptions options;
  RATEL_RETURN_IF_ERROR(ApplyEnvKnobs(env, &options));
  JobSpec spec;
  spec.name = "quotajob";
  return ApplyEnvKnobs(env, &spec);
}

void ExpectRejected(const knobs::Env& env, const std::string& knob) {
  const Status status = CreateCheck(env);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << knob;
  EXPECT_NE(status.message().find(knob + "='" + env.at(knob) + "'"),
            std::string::npos)
      << status.message();
}

// Names a row by its knob in test IDs.
void PrintTo(const Row& row, std::ostream* os) { *os << row.knob; }

class KnobRowTest : public ::testing::TestWithParam<Row> {};

TEST_P(KnobRowTest, ValidValueOverlaysTheField) {
  const Row& row = GetParam();
  EXPECT_EQ(row.read({{row.knob, row.valid}}), row.effective);
  EXPECT_TRUE(CreateCheck({{row.knob, row.valid}}).ok());
}

TEST_P(KnobRowTest, MalformedValueIsRejectedNamingTheKnob) {
  const Row& row = GetParam();
  if (row.malformed == nullptr) {
    EXPECT_EQ(row.read({{row.knob, " a,b=c "}}), " a,b=c ");
    return;
  }
  ExpectRejected({{row.knob, row.malformed}}, row.knob);
  EXPECT_NE(row.read({{row.knob, row.malformed}}).find(row.knob),
            std::string::npos);
}

TEST_P(KnobRowTest, EmptyValueIsUnset) {
  const Row& row = GetParam();
  EXPECT_EQ(row.read({{row.knob, ""}}), row.read({}));
  EXPECT_TRUE(CreateCheck({{row.knob, ""}}).ok());
}

TEST_P(KnobRowTest, MisspeltNameWarnsOncePerProcess) {
  const std::string typo = std::string(GetParam().knob) + "_TYPO";
  ::testing::internal::CaptureStderr();
  EXPECT_TRUE(knobs::Validate({{typo, "1"}}).ok());
  EXPECT_TRUE(knobs::Validate({{typo, "1"}}).ok());
  const std::string log = ::testing::internal::GetCapturedStderr();
  const size_t first = log.find(typo);
  EXPECT_NE(first, std::string::npos) << log;
  EXPECT_EQ(log.find(typo, first + 1), std::string::npos) << log;
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, KnobRowTest, ::testing::ValuesIn(Rows()),
    [](const ::testing::TestParamInfo<Row>& info) {
      return std::string(info.param.knob);
    });

TEST(KnobsTest, RowsCoverTheWholeTable) {
  const std::vector<std::string> names = knobs::Names();
  const std::set<std::string> table(names.begin(), names.end());
  std::set<std::string> rows;
  for (const Row& row : Rows()) rows.insert(row.knob);
  EXPECT_EQ(rows, table);
  EXPECT_EQ(table.size(), 29u);
}

TEST(KnobsTest, EveryDocumentedValueParses) {
  const knobs::Env env = {
      {"RATEL_REPLAN", "1"},
      {"RATEL_REPLAN_THRESHOLD_PCT", "35"},
      {"RATEL_REPLAN_EWMA_ALPHA", "0.25"},
      {"RATEL_FAULT_SEED", "7"},
      {"RATEL_FAULT_READ_ERROR_EVERY", "50"},
      {"RATEL_FAULT_LATENCY_SPIKE_MS", "2.5"},
      {"RATEL_FAULT_FLOWS", "param_fetch,checkpoint"},
      {"RATEL_CODEC_ACTIVATION_SPILL", "fp16"},
      {"RATEL_CODEC_GRAD_STATE", "topk:32"},
      {"RATEL_TENANT_WEIGHT", "quotajob=5,other=2"},
      {"RATEL_THREADS", "99"},
      {"RATEL_BENCH_SMOKE", "1"},
  };
  EXPECT_TRUE(CreateCheck(env).ok()) << CreateCheck(env).ToString();
  for (const char* mode : {"auto", "avx2", "scalar"}) {
    EXPECT_TRUE(CreateCheck({{"RATEL_SIMD", mode}}).ok()) << mode;
  }
  TrainerOptions all;
  ASSERT_TRUE(ApplyEnvKnobs({{"RATEL_FAULT_FLOWS", "all"}}, &all).ok());
  EXPECT_EQ(all.fault.flow_mask, 0xFFFFFFFFu);
}

// ----- Values an atoi/atof read would turn into another setting -----

// Not a 0% threshold, which would re-solve on every deviating window.
TEST(KnobsTest, NonNumericThresholdIsRejectedNotZero) {
  ExpectRejected({{"RATEL_REPLAN_THRESHOLD_PCT", "abc"}},
                 "RATEL_REPLAN_THRESHOLD_PCT");
}

// Not "off", which is what atoi makes of both.
TEST(KnobsTest, TrueAndYesAreRejectedNotOff) {
  ExpectRejected({{"RATEL_REPLAN", "true"}}, "RATEL_REPLAN");
  ExpectRejected({{"RATEL_ASYNC_OPTIM", "yes"}}, "RATEL_ASYNC_OPTIM");
}

// Not a dropped flow: a list of only typos would leave flow_mask 0, so
// a chaos run would inject nothing.
TEST(KnobsTest, MisspeltFaultFlowIsRejectedNotDropped) {
  ExpectRejected({{"RATEL_FAULT_FLOWS", "param_fetch,grad_stat"}},
                 "RATEL_FAULT_FLOWS");
  ExpectRejected({{"RATEL_FAULT_FLOWS", "grad_stat,chekpoint"}},
                 "RATEL_FAULT_FLOWS");
}

// Not the hardware default.
TEST(KnobsTest, BadThreadCountIsRejectedNotTheDefault) {
  ExpectRejected({{"RATEL_THREADS", "abc"}}, "RATEL_THREADS");
  ExpectRejected({{"RATEL_THREADS", "0"}}, "RATEL_THREADS");
}

// Not a warning and `auto`.
TEST(KnobsTest, UnknownSimdModeIsRejectedNotAuto) {
  ExpectRejected({{"RATEL_SIMD", "avx512"}}, "RATEL_SIMD");
}

// The process-wide knobs resolve lazily, where no caller takes an error.
TEST(KnobsDeathTest, LazyProcessKnobFailsACheckNamingIt) {
  // The variable is set in the forked child only.
  EXPECT_DEATH(
      {
        ::setenv("RATEL_THREADS", "abc", 1);
        knobs::GetOrDie<int64_t>("RATEL_THREADS");
      },
      "RATEL_THREADS='abc'");
}

// Sets one variable of the process environment for its scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

TEST(KnobsTest, CreateAndSubmitRejectAMalformedProcessKnob) {
  ScopedTempDir tmp("knobs");
  ag::TinyGptConfig cfg;
  cfg.vocab_size = 48;
  cfg.seq_len = 8;
  cfg.hidden_dim = 24;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  {
    ScopedEnv env("RATEL_REPLAN_THRESHOLD_PCT", "abc");
    ag::TinyGpt model(cfg, 1);
    TrainerOptions options;
    options.store_dir = tmp.Sub("trainer");
    const auto trainer = RatelTrainer::Create(&model, options);
    ASSERT_FALSE(trainer.ok());
    EXPECT_EQ(trainer.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(trainer.status().message().find(
                  "RATEL_REPLAN_THRESHOLD_PCT='abc'"),
              std::string::npos)
        << trainer.status().message();
  }
  JobManager::Options options;
  options.engine.dir = tmp.Sub("jobs");
  auto manager = JobManager::Create(options);
  ASSERT_TRUE(manager.ok());
  JobSpec spec;
  spec.name = "quotajob";
  spec.model = cfg;
  ScopedEnv env("RATEL_TENANT_WEIGHT", "quotajob=heavy");
  const auto verdict = (*manager)->Submit(spec);
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(verdict.status().message().find("RATEL_TENANT_WEIGHT"),
            std::string::npos)
      << verdict.status().message();
}

}  // namespace
}  // namespace ratel
