// The benchmark's workloads and the six comparison schemes they run.
//
// Every workload runs the paper's constant 7-point star on a cube for a
// fixed number of steps on pinned threads; BENCHMARK.json and README.md
// say why each one exists.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace ladderbench {

struct Workload {
  std::string name;
  nustencil::Index edge = 0;  ///< cube edge in cells
  long steps = 0;             ///< Jacobi steps per solve
  int threads = 1;            ///< pinned worker threads
  bool observed = false;      ///< every observability source on
};

const std::vector<Workload>& workloads();

/// Null when no workload has this name.
const Workload* find_workload(const std::string& name);

/// A comparison scheme: its legend name for schemes::make_scheme and the
/// lower-case key its metrics carry (gups.<key>, schemes.<key>.*).
struct SchemeName {
  std::string legend;
  std::string key;
};

/// NaiveSSE, nuCATS, nuCORALS, nuMWD, Pochoir, PLuTo, in that order.
const std::vector<SchemeName>& comparison_schemes();

}  // namespace ladderbench
