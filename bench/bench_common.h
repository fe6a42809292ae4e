#ifndef BIOPERA_BENCH_BENCH_COMMON_H_
#define BIOPERA_BENCH_BENCH_COMMON_H_

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "comms/channel.h"
#include "common/rng.h"
#include "core/engine.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "store/fs.h"
#include "store/record_store.h"

namespace biopera::bench {

/// The paper's clusters (§5.1), reconstructed. OCR damage in the scan
/// makes some numbers uncertain; the choices below are recorded in
/// EXPERIMENTS.md. Node speeds are relative to the ik-sun Ultra that the
/// Fig. 4 cost model was calibrated on (360 MHz => 1.0).
inline constexpr double kIkSunSpeed = 1.0;     // Sun Ultra, 360 MHz
inline constexpr double kLinneusPcSpeed = 1.4; // dual-CPU PC, 500 MHz
inline constexpr double kSparcSpeed = 0.93;    // SparcStation, 336 MHz
inline constexpr double kIkLinuxSpeed = 1.65;  // dual-CPU PC, 600 MHz

/// ik-sun: 5 single-CPU Sun Ultras (Fig. 4 ran here exclusively; the
/// text's "number of available CPUs ... is 5").
void AddIkSunCluster(cluster::ClusterSim* cluster, int nodes = 5);

/// linneus: 16 dual-processor PCs plus one 6-CPU SparcStation (38 CPUs;
/// with two ik-sun machines the shared run peaks at 40, matching the
/// Fig. 5 axis).
void AddLinneusCluster(cluster::ClusterSim* cluster);

/// ik-linux: 8 PCs that start with one CPU and gain a second mid-run
/// (Fig. 6's upgrade to 16).
void AddIkLinuxCluster(cluster::ClusterSim* cluster, int cpus = 1);

/// A two-stage instance registered as `name`: prepare (30 virtual
/// minutes) then run (1 virtual hour) — enough structure that the pump
/// navigates between stages, cheap enough that 10k instances stay
/// tractable. The job shape of the sharded-service and restart benches.
ocr::ProcessDef TwoStageJobProcess(const std::string& name);

/// Registers the activities TwoStageJobProcess binds: `bench.prepare`
/// and `bench.run`, which only charge their virtual cost.
void RegisterTwoStageJobActivities(core::ActivityRegistry* registry);

/// One self-cleaning world: simulator + cluster + store + registry +
/// engine, with the store in a fresh temp directory. Unless the caller
/// supplies its own context in `options`, the world's `obs` instruments
/// the whole stack, so every bench can dump a metrics snapshot.
struct BenchWorld {
  /// With `with_fault_channel` the engine talks to the PECs through a
  /// FaultChannel owned by the world (bound to `sim`, installed as
  /// EngineOptions.channel) so scenarios can script message-level faults
  /// and per-link partitions. Off by default: the fault-free benches keep
  /// the engine's own channel and stay byte-identical to their fixtures.
  explicit BenchWorld(const core::EngineOptions& options = {},
                      bool with_fault_channel = false);
  ~BenchWorld();
  BenchWorld(const BenchWorld&) = delete;
  BenchWorld& operator=(const BenchWorld&) = delete;

  Simulator sim;
  std::string store_dir;
  obs::Observability obs;
  /// The control-plane fault injector (null unless requested). Declared
  /// before `engine` so it outlives the engine's detach.
  std::unique_ptr<comms::FaultChannel> channel;
  /// The store runs behind a fault filesystem so scenarios can script
  /// storage outages (e.g. a disk-full window) the way they script node
  /// crashes. Declared before `store` so it outlives it.
  std::unique_ptr<FaultFs> fault_fs;
  std::unique_ptr<RecordStore> store;
  std::unique_ptr<cluster::ClusterSim> cluster;
  core::ActivityRegistry registry;
  std::unique_ptr<core::Engine> engine;
};

/// Formats seconds like the paper's Table 1 ("290d 7h 16m").
std::string FormatDhm(double seconds);

/// Parses `--json[=path]` out of the command line of a scenario bench.
/// Returns the output path (bare `--json` resolves to `default_path`), or
/// "" when JSON output was not requested.
std::string JsonPathFromArgs(int argc, char** argv,
                             const std::string& default_path);

/// Minimal machine-readable results writer for the scenario benches
/// (fig4, table1, ...), which do not link google-benchmark. Each row is
/// a named result with flat numeric fields (ops/s, bytes, wall seconds).
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// `text_fields` become JSON string values — provenance that is not a
  /// number (e.g. which SIMD kernel produced a throughput row).
  void Add(const std::string& name,
           std::vector<std::pair<std::string, double>> fields,
           std::vector<std::pair<std::string, std::string>> text_fields = {});

  /// Writes `{"bench": ..., "results": [...]}` to `path`; returns false
  /// (after logging to stderr) if the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  struct Row {
    std::string name;
    std::vector<std::pair<std::string, double>> fields;
    std::vector<std::pair<std::string, std::string>> text_fields;
  };
  std::string bench_name_;
  std::vector<Row> rows_;
};

}  // namespace biopera::bench

#endif  // BIOPERA_BENCH_BENCH_COMMON_H_
