// telemetry_stall — deliberately parks one worker so CI can exercise the
// telemetry watchdog's detection path end-to-end on a real thread team.
//
//   telemetry_stall [warn|abort] [jsonl-log-path]
//
// Two workers run a fake compute loop that counts updates into their
// probe shards every millisecond; worker 1 stops counting after its first
// few ticks.  The
// sampler (10 ms interval, 3-interval watchdog) must flag the stall
// within ~30 ms.  Under `warn` the workers run to completion and the
// process exits 0 with the diagnosis on stderr; under `abort` the
// triggered abort token unwinds the still-running workers and the
// process exits nonzero — exactly what a hung production run would do
// in CI.  Exit 3 means the watchdog never fired: a detection bug.
#include <chrono>
#include <cstring>
#include <iostream>
#include <thread>

#include "prof/probes.hpp"
#include "telemetry/sampler.hpp"
#include "thread/abort.hpp"
#include "thread/team.hpp"

using namespace nustencil;

int main(int argc, char** argv) try {
  const telemetry::WatchdogAction action =
      telemetry::parse_watchdog_action(argc > 1 ? argv[1] : "warn");

  prof::Probes probes(/*num_threads=*/2);

  telemetry::Config tcfg;
  tcfg.interval_s = 0.01;
  tcfg.label = "telemetry_stall";
  tcfg.watchdog_stall_intervals = 3;
  tcfg.watchdog_action = action;
  if (argc > 2) tcfg.log_path = argv[2];
  telemetry::Sampler sampler(tcfg);

  threading::AbortToken abort;
  telemetry::RunSources src;
  src.probes = &probes;
  src.timesteps = 1;
  src.abort = &abort;
  sampler.begin_run(src);

  threading::Team team(2, /*pin=*/false);
  team.run([&](int tid) {
    prof::Probes::Shard& shard = probes.shard(tid);
    for (int i = 0; i < 200; ++i) {  // ~200 ms of "work" in 1 ms ticks
      abort.check();
      if (tid == 0 || i < 5) {
        trace::single_writer_add(shard.updates, 1);
        trace::single_writer_add(shard.local_bytes, 100);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  sampler.end_run(/*seconds=*/0.2, /*updates=*/0);

  std::cout << "stall events: " << sampler.stall_events() << '\n';
  return sampler.stall_events() > 0 ? 0 : 3;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 2;
}
