// The suite's run options: POD_* parsed once by the shared test main
// (test_main.cpp), the same way the bench programs parse them.
#pragma once

#include <map>
#include <string>

#include "replay/replayer.hpp"
#include "replay/run_options.hpp"

namespace pod {

const RunOptions& test_options();

/// A RunSpec carrying the suite's per-run options (probe modes, pipeline,
/// faults, telemetry, anatomy). Replay tests start from it so CI can force
/// a whole suite down one path, e.g. POD_PIPELINE=1 under TSan.
RunSpec test_spec();

/// RunOptions::parse over `env` instead of the process environment, so a
/// test can set knobs without touching the suite's own.
RunOptions parse_options(const std::map<std::string, std::string>& env);

}  // namespace pod
