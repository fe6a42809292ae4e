// A scripted administration session over a busy BioOpera server: two
// concurrent processes (an all-vs-all and the tower of information) run on
// a shared cluster while the operator inspects them through the console —
// the §3.4/§3.5 operations story. Pass commands on stdin to use it
// interactively:
//
//   $ echo "INSTANCES" | ./build/examples/admin_console -
//   $ ./build/examples/admin_console            # scripted demo session
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "cluster/cluster.h"
#include "cluster/external_load.h"
#include "core/console.h"
#include "core/engine.h"
#include "darwin/generator.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "store/record_store.h"
#include "workloads/allvsall.h"
#include "workloads/tower.h"

using namespace biopera;
using ocr::Value;

int main(int argc, char** argv) {
  const bool interactive = argc > 1 && std::string(argv[1]) == "-";

  std::string dir =
      (std::filesystem::temp_directory_path() / "biopera_console").string();
  std::filesystem::remove_all(dir);
  auto store = RecordStore::Open(dir);
  Simulator sim;
  cluster::ClusterSim cluster(&sim);
  cluster.AddNode({.name = "pc0", .num_cpus = 2, .speed = 1.4});
  cluster.AddNode({.name = "pc1", .num_cpus = 2, .speed = 1.4});
  cluster.AddNode({.name = "sun0", .num_cpus = 1, .speed = 1.0});

  core::ActivityRegistry registry;
  Rng rng(5);
  darwin::GeneratorOptions gen;
  gen.num_sequences = 4000;
  auto meta = darwin::GenerateDatasetMeta(gen, &rng);
  auto avsa_ctx = workloads::MakeSyntheticContext(meta.lengths,
                                                  meta.family_of);
  workloads::RegisterAllVsAllActivities(&registry, avsa_ctx);
  auto tower_ctx = std::make_shared<workloads::TowerContext>();
  workloads::RegisterTowerActivities(&registry, tower_ctx);

  obs::Observability obs;
  core::EngineOptions options;
  options.observability = &obs;
  core::Engine engine(&sim, &cluster, store->get(), &registry, options);
  engine.Startup();
  engine.RegisterTemplate(workloads::BuildAllVsAllProcess());
  engine.RegisterTemplate(workloads::BuildAlignPartitionProcess());
  engine.RegisterTemplate(workloads::BuildTowerProcess());
  for (const auto& sub : workloads::BuildTowerSubprocesses()) {
    engine.RegisterTemplate(sub);
  }

  Value::Map avsa_args;
  avsa_args["db_name"] = Value("console-demo");
  avsa_args["num_teus"] = Value(16);
  auto avsa = engine.StartProcess("all_vs_all", avsa_args, /*priority=*/1);
  Value::Map tower_args;
  tower_args["num_dna"] = Value(1500);
  auto tower = engine.StartProcess("tower_of_information", tower_args);

  // Some external users appear on the shared machines.
  Rng env_rng(7);
  cluster::ExternalLoadOptions load;
  load.mean_busy = Duration::Hours(3);
  load.mean_idle = Duration::Hours(5);
  cluster::ExternalLoadGenerator external(&cluster, load, &env_rng);
  external.Start();

  sim.RunFor(Duration::Hours(6));  // let the cluster get busy

  core::AdminConsole console(&engine);
  auto run = [&](const std::string& command) {
    std::printf("biopera> %s\n", command.c_str());
    auto out = console.Execute(command);
    if (out.ok()) {
      std::printf("%s\n", out->c_str());
    } else {
      std::printf("error: %s\n\n", out.status().ToString().c_str());
    }
  };

  if (interactive) {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line == "quit") break;
      run(line);
      sim.RunFor(Duration::Minutes(10));  // time passes between commands
    }
  } else {
    run("HELP");
    run("TEMPLATES");
    run("INSTANCES");
    run("NODES");
    run("JOBS");
    run("STATUS " + *avsa);
    run("TASKS " + *tower);
    run("ETA " + *avsa);
    run("WHATIF sun0");
    run("WHATIF pc0 pc1");
    run("SUSPEND " + *tower);
    sim.RunFor(Duration::Hours(2));
    run("INSTANCES");
    run("RESUME " + *tower);
    run("HISTORY " + *tower + " 6");
    run("METRICS");
    run("SPANS " + *avsa + " 5");
    run("TIMELINE sun0");
  }

  sim.Run();
  run("INSTANCES");
  std::filesystem::remove_all(dir);
  return 0;
}
