// The POD_* knob parser: every knob of RunOptions::knobs() under the one
// rule (empty = unset, booleans are exactly 0 or 1, anything malformed or
// out of range is rejected with "[pod] NAME='value': want <form>"), the
// mapping onto RunSpec, and a seeded mutation pass over every knob.
#include "replay/run_options.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "synth/profile.hpp"
#include "test_options.hpp"

namespace pod {
namespace {

using Env = std::map<std::string, std::string>;

RunOptions parse(const Env& env) { return parse_options(env); }

const RunOptions::Knob& knob(const std::string& name) {
  for (const RunOptions::Knob& k : RunOptions::knobs())
    if (name == k.name) return k;
  throw std::logic_error("no knob " + name);
}

/// The exact rejection message for `name` set to `value`.
std::string rejection(const std::string& name, const std::string& value) {
  return "[pod] " + name + "='" + value + "': want " + knob(name).form;
}

/// Every field, so two parses can be compared whole.
std::string dump(const RunOptions& o) {
  std::ostringstream s;
  s << o.scale << '|' << o.trace << '|' << o.jobs << '|' << o.trace_cache
    << '|' << o.bench_json << '|' << o.cdc_sweep_mb << '|'
    << (o.simd ? static_cast<int>(*o.simd) : -1) << '|' << o.scalar_probes
    << o.fused_probes << o.pipeline.enabled << '|' << o.pipeline.depth << '|'
    << o.fault.enabled << '|' << o.fault.seed << '|'
    << o.fault.media_error_rate << '|' << o.fault.transient_rate << '|'
    << o.fault.fail_disk << '|' << o.fault.fail_at << '|'
    << o.fault.auto_rebuild << '|' << o.telemetry.trace_events_path << '|'
    << o.telemetry.timeseries_path << '|' << o.telemetry.sample_interval
    << '|' << o.telemetry.trace_event_limit << '|' << o.anatomy << '|'
    << (o.tail_anatomy ? static_cast<long long>(*o.tail_anatomy) : -1)
    << '|' << o.anatomy_buckets;
  return s.str();
}

unsigned hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

struct Case {
  const char* name;
  const char* valid;         ///< accepted, and differs from the default
  const char* malformed;     ///< nullptr: every non-empty value is accepted
  const char* out_of_range;  ///< nullptr: the form has no range
  bool (*landed)(const RunOptions&);  ///< true once `valid` took effect
  /// The default depends on the host's thread count, so `valid` may equal
  /// it.
  bool hardware_default = false;
};

const Case kCases[] = {
    {"POD_SCALE", "0.5", "half", "1.5",
     [](const RunOptions& o) { return o.scale == 0.5; }},
    {"POD_TRACE", "mail", "nosuch", nullptr,
     [](const RunOptions& o) { return o.trace == "mail"; }},
    {"POD_JOBS", "1", "abc", "0",
     [](const RunOptions& o) { return o.jobs == 1; }, true},
    {"POD_TRACE_CACHE", "/tmp/pod-cache", nullptr, nullptr,
     [](const RunOptions& o) { return o.trace_cache == "/tmp/pod-cache"; }},
    {"POD_BENCH_JSON", "out.jsonl", nullptr, nullptr,
     [](const RunOptions& o) { return o.bench_json == "out.jsonl"; }},
    {"POD_CDC_SWEEP_MB", "8", "8MB", "0",
     [](const RunOptions& o) { return o.cdc_sweep_mb == 8; }},
    {"POD_SIMD", "scalar", "AVX2", nullptr,
     [](const RunOptions& o) { return o.simd == SimdTier::kScalar; }},
    {"POD_SCALAR_PROBES", "1", "yes", "2",
     [](const RunOptions& o) { return o.scalar_probes; }},
    {"POD_FUSED_PROBES", "0", "off", "2",
     [](const RunOptions& o) { return !o.fused_probes; }},
    {"POD_PIPELINE", "1", "no", "2",
     [](const RunOptions& o) { return o.pipeline.enabled; }, true},
    {"POD_FAULT_SEED", "7", "12abc", "18446744073709551616",
     [](const RunOptions& o) { return o.fault.enabled && o.fault.seed == 7; }},
    {"POD_FAULT_MEDIA_RATE", "0.001", "1e-3x", "1.5",
     [](const RunOptions& o) {
       return o.fault.enabled && o.fault.media_error_rate == 0.001;
     }},
    {"POD_FAULT_TRANSIENT_RATE", "0.05", "five", "-0.1",
     [](const RunOptions& o) {
       return o.fault.enabled && o.fault.transient_rate == 0.05;
     }},
    {"POD_FAULT_FAIL_DISK", "1", "-1", "18446744073709551616",
     [](const RunOptions& o) {
       return o.fault.enabled && o.fault.fail_disk == 1 && o.fault.fail_at == 0;
     }},
    {"POD_FAULT_FAIL_AT_MS", "250", "250ms", "-5",
     [](const RunOptions& o) {
       return o.fault.enabled && o.fault.fail_at == ms(250);
     }},
    {"POD_FAULT_REBUILD", "0", "false", "2",
     [](const RunOptions& o) { return o.fault.enabled && !o.fault.auto_rebuild; }},
    {"POD_TRACE_EVENTS", "trace.json", nullptr, nullptr,
     [](const RunOptions& o) {
       return o.telemetry.trace_events_path == "trace.json";
     }},
    {"POD_TELEMETRY_CSV", "series.csv", nullptr, nullptr,
     [](const RunOptions& o) {
       return o.telemetry.timeseries_path == "series.csv";
     }},
    {"POD_TELEMETRY_INTERVAL_MS", "50", "inf", "0",
     [](const RunOptions& o) { return o.telemetry.sample_interval == ms(50); }},
    {"POD_TRACE_LIMIT", "0", "none", "18446744073709551616",
     [](const RunOptions& o) { return o.telemetry.trace_event_limit == 0; }},
    {"POD_ANATOMY", "1", "on", "2",
     [](const RunOptions& o) { return o.anatomy; }},
    {"POD_TAIL_ANATOMY", "8", "eight", "1048577",
     [](const RunOptions& o) { return o.tail_anatomy == 8u; }},
    {"POD_ANATOMY_BUCKETS", "1", " 1", "2",
     [](const RunOptions& o) { return o.anatomy_buckets; }},
};

void expect_rejected(const Env& env, const std::string& name,
                     const std::string& value) {
  try {
    (void)parse(env);
    ADD_FAILURE() << name << "='" << value << "' was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(e.what(), rejection(name, value));
  }
}

TEST(RunOptions, TableCoversEveryKnobOnce) {
  std::set<std::string> table, cases;
  for (const RunOptions::Knob& k : RunOptions::knobs()) {
    EXPECT_TRUE(table.insert(k.name).second) << k.name;
    EXPECT_EQ(std::string(k.name).rfind("POD_", 0), 0u) << k.name;
  }
  for (const Case& c : kCases) cases.insert(c.name);
  EXPECT_EQ(table, cases);
}

// Every knob x {unset, empty, valid, malformed, out of range}.
TEST(RunOptions, EveryKnobFollowsTheOneRule) {
  const RunOptions unset = parse({});
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.name);
    if (!c.hardware_default) {
      EXPECT_FALSE(c.landed(unset));
    }
    EXPECT_EQ(dump(parse({{c.name, ""}})), dump(unset));
    EXPECT_TRUE(c.landed(parse({{c.name, c.valid}})));
    if (c.malformed) expect_rejected({{c.name, c.malformed}}, c.name, c.malformed);
    if (c.out_of_range)
      expect_rejected({{c.name, c.out_of_range}}, c.name, c.out_of_range);
  }
}

// README.md's knob table is the user-facing copy of knobs(): each knob's
// row must carry the parser's exact type, default and accepted form.
TEST(RunOptions, ReadmeTableMirrorsTheParser) {
  std::ifstream in(POD_README_PATH);
  ASSERT_TRUE(in.good()) << POD_README_PATH;
  const std::string readme((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  const auto cell = [](std::string text) {
    for (std::size_t at = 0; (at = text.find('|', at)) != std::string::npos;
         at += 2)
      text.insert(at, "\\");
    return text;
  };
  for (const RunOptions::Knob& k : RunOptions::knobs()) {
    const std::string row = std::string("| `") + k.name + "` | " + k.type +
                            " | " + cell(k.default_value) + " | " +
                            cell(k.form) + " | ";
    EXPECT_NE(readme.find(row), std::string::npos) << row;
  }
}

TEST(RunOptions, RegressionsFollowTheOneRule) {
  // Malformed values are rejected whatever their prefix; empty is unset.
  expect_rejected({{"POD_FAULT_SEED", "abc"}}, "POD_FAULT_SEED", "abc");
  expect_rejected({{"POD_FAULT_SEED", "12abc"}}, "POD_FAULT_SEED", "12abc");
  expect_rejected({{"POD_JOBS", "abc"}}, "POD_JOBS", "abc");
  expect_rejected({{"POD_TRACE", "nosuch"}}, "POD_TRACE", "nosuch");
  expect_rejected({{"POD_PIPELINE", "no"}}, "POD_PIPELINE", "no");
  // There is no SSE tier: the tiers are scalar and avx2.
  expect_rejected({{"POD_SIMD", "sse"}}, "POD_SIMD", "sse");
  EXPECT_FALSE(parse({{"POD_SCALAR_PROBES", ""}}).scalar_probes);
}

TEST(RunOptions, DefaultsMatchTheBenchDefaults) {
  const RunOptions o = parse({});
  EXPECT_EQ(o.scale, 0.25);
  EXPECT_TRUE(o.trace.empty());
  EXPECT_EQ(o.jobs, hardware_threads());
  EXPECT_EQ(o.cdc_sweep_mb, 24u);
  EXPECT_FALSE(o.simd.has_value());
  EXPECT_FALSE(o.scalar_probes);
  EXPECT_TRUE(o.fused_probes);
  EXPECT_EQ(o.pipeline.enabled, hardware_threads() >= 2);
  EXPECT_EQ(o.pipeline.depth, PipelineConfig{}.depth);
  EXPECT_FALSE(o.fault.enabled);
  EXPECT_FALSE(o.telemetry.any());
  EXPECT_FALSE(o.anatomy_config().has_value());
}

TEST(RunOptions, TraceAcceptsExactlyThePaperWorkloads) {
  for (const WorkloadProfile& p : paper_profiles(0.25))
    EXPECT_EQ(parse({{"POD_TRACE", p.name}}).trace, p.name);
  expect_rejected({{"POD_TRACE", "Mail"}}, "POD_TRACE", "Mail");
}

TEST(RunOptions, BooleansAcceptExactlyZeroOrOne) {
  for (const char* bad : {"2", "01", "true", "on", "yes", " 1", "1 "})
    expect_rejected({{"POD_PIPELINE", bad}}, "POD_PIPELINE", bad);
  EXPECT_FALSE(parse({{"POD_PIPELINE", "0"}}).pipeline.enabled);
  EXPECT_TRUE(parse({{"POD_PIPELINE", "1"}}).pipeline.enabled);
}

TEST(RunOptions, TailAnatomyImpliesAnatomyAndBucketsAloneDoNot) {
  EXPECT_FALSE(parse({{"POD_ANATOMY_BUCKETS", "1"}}).anatomy_config());
  const auto tail = parse({{"POD_ANATOMY", "0"}, {"POD_TAIL_ANATOMY", "8"}})
                        .anatomy_config();
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->tail_k, 8u);
  const auto on = parse({{"POD_ANATOMY", "1"}, {"POD_ANATOMY_BUCKETS", "1"}})
                      .anatomy_config();
  ASSERT_TRUE(on.has_value());
  EXPECT_EQ(on->tail_k, LatencyAnatomy::Config{}.tail_k);
  EXPECT_TRUE(on->bucketed);
}

TEST(RunOptions, ApplyCopiesPerRunSettingsIntoRunSpec) {
  const RunOptions o = parse({{"POD_SCALAR_PROBES", "1"},
                              {"POD_FUSED_PROBES", "0"},
                              {"POD_PIPELINE", "1"},
                              {"POD_FAULT_SEED", "7"},
                              {"POD_TRACE_EVENTS", "t.json"},
                              {"POD_TAIL_ANATOMY", "4"}});
  RunSpec spec;
  spec.engine_cfg.memory_bytes = 12345;
  o.apply(spec);
  EXPECT_TRUE(spec.engine_cfg.scalar_probes);
  EXPECT_FALSE(spec.engine_cfg.fused_probes);
  EXPECT_TRUE(spec.pipeline.enabled);
  EXPECT_TRUE(spec.array_cfg.fault.enabled);
  EXPECT_EQ(spec.array_cfg.fault.seed, 7u);
  EXPECT_EQ(spec.telemetry.trace_events_path, "t.json");
  ASSERT_TRUE(spec.anatomy.has_value());
  EXPECT_EQ(spec.anatomy->tail_k, 4u);
  EXPECT_EQ(spec.engine_cfg.memory_bytes, 12345u);  // untouched

  // A default RunSpec is the library default: every option off.
  const RunSpec plain;
  EXPECT_FALSE(plain.engine_cfg.scalar_probes);
  EXPECT_TRUE(plain.engine_cfg.fused_probes);
  EXPECT_FALSE(plain.pipeline.enabled);
  EXPECT_FALSE(plain.array_cfg.fault.enabled);
  EXPECT_FALSE(plain.telemetry.any());
  EXPECT_FALSE(plain.anatomy.has_value());
}

// Seeded mutation pass: 10k byte strings per knob, built by flipping,
// truncating and splicing accepted values. Each must parse or be rejected
// with the knob's name; nothing else may escape.
TEST(RunOptions, MutatedValuesParseOrAreRejectedByName) {
  std::vector<std::string> seeds;
  for (const Case& c : kCases) {
    seeds.emplace_back(c.valid);
    if (c.malformed) seeds.emplace_back(c.malformed);
    if (c.out_of_range) seeds.emplace_back(c.out_of_range);
  }
  Rng rng(0xC0FFEE);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform(0, n - 1));
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.name);
    const std::string prefix = std::string("[pod] ") + c.name + "='";
    std::size_t accepted = 0, rejected = 0;
    for (int i = 0; i < 10000; ++i) {
      std::string v = c.valid;
      const int edits = 1 + static_cast<int>(rng.uniform(0, 3));
      for (int e = 0; e < edits; ++e) {
        switch (rng.uniform(0, 2)) {
          case 0:  // flip one byte to any value but NUL
            if (!v.empty())
              v[pick(v.size())] = static_cast<char>(rng.uniform(1, 255));
            break;
          case 1:  // truncate
            v.resize(pick(v.size() + 1));
            break;
          default: {  // splice part of another seed value at a random point
            const std::string& other = seeds[pick(seeds.size())];
            const std::size_t from = pick(other.size() + 1);
            v.insert(pick(v.size() + 1), other.substr(from));
            break;
          }
        }
      }
      const Env env{{c.name, v}};
      try {
        (void)parse(env);
        ++accepted;
      } catch (const std::invalid_argument& ex) {
        ++rejected;
        ASSERT_EQ(std::string(ex.what()).rfind(prefix, 0), 0u) << ex.what();
      } catch (...) {
        FAIL() << "unexpected exception for '" << v << "'";
      }
    }
    EXPECT_EQ(accepted + rejected, 10000u);
  }
}

}  // namespace
}  // namespace pod
