// Shared main of every test binary. It parses the POD_* knobs before any
// test runs, exactly as the bench programs do: a malformed value exits 2,
// POD_SIMD caps the process's SIMD tier, and test_spec() hands the per-run
// options to the replay tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>

#include "test_options.hpp"

namespace pod {
namespace {
RunOptions g_options;
}  // namespace

const RunOptions& test_options() { return g_options; }

RunSpec test_spec() {
  RunSpec spec;
  g_options.apply(spec);
  return spec;
}

RunOptions parse_options(const std::map<std::string, std::string>& env) {
  return RunOptions::parse([&env](const char* name) -> const char* {
    const auto it = env.find(name);
    return it == env.end() ? nullptr : it->second.c_str();
  });
}

}  // namespace pod

int main(int argc, char** argv) {
  try {
    pod::g_options = pod::RunOptions::parse_environment();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (pod::g_options.simd) pod::cap_simd_tier(*pod::g_options.simd);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
