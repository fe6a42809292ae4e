#include "src/pins.h"

#include <map>

namespace perfbench {

namespace {

/// Virtual outcomes at kPinnedSeed. Regenerate only for a change that is
/// meant to alter virtual results, and say so in the change description.
const std::map<std::string, int64_t>& Pins() {
  static const std::map<std::string, int64_t> pins = {
      // Figure 5 (54.8 d WALL) and Figure 6 (37.5 d), fault-free and under
      // the partition storm. CPU(Pi) and the match total do not depend on
      // the disturbances: the same work completes in every run.
      {"lifecycle.fig5.wall_us", 4737824268253},
      {"lifecycle.fig5.cpu_us", 56304893014617},
      {"lifecycle.fig5.total_matches", 1798142},
      {"lifecycle.fig5_storm.wall_us", 9830690342541},
      {"lifecycle.fig5_storm.cpu_us", 56304893014617},
      {"lifecycle.fig5_storm.total_matches", 1798142},
      {"lifecycle.fig6.wall_us", 3241002866281},
      {"lifecycle.fig6.cpu_us", 56304893014617},
      {"lifecycle.fig6.total_matches", 1798142},
      {"lifecycle.fig6_storm.wall_us", 14544076920388},
      {"lifecycle.fig6_storm.cpu_us", 56304893014617},
      {"lifecycle.fig6_storm.total_matches", 1798142},
      // Real-mode all-vs-all: obs::Fnv1a64 of the master file.
      {"align.master_fnv1a64", 2498893225294838331},
      {"align.total_matches", 166},
      // Virtual hours to quiescence (484.5 h) and dispatched activities.
      {"fleet.virtual_us", 1744200000000},
      {"fleet.dispatched", 20000},
      // 20 instances, each with its crash-free match total.
      {"recovery.total_matches", 128060},
  };
  return pins;
}

}  // namespace

bool CheckPin(const std::string& key, int64_t actual, const Options& options,
              Batch* batch) {
  auto it = Pins().find(key);
  if (it == Pins().end()) {
    batch->errors.push_back("no pin recorded for " + key + " (observed " +
                            std::to_string(actual) + ")");
    return false;
  }
  const int64_t expected = it->second + (options.corrupt_pins ? 1 : 0);
  if (actual != expected) {
    batch->errors.push_back("pin " + key + ": expected " +
                            std::to_string(expected) + ", got " +
                            std::to_string(actual));
    return false;
  }
  return true;
}

}  // namespace perfbench
