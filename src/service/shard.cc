#include "service/shard.h"

#include <utility>

#include "common/logging.h"
#include "service/router.h"

namespace biopera::service {

EngineShard::EngineShard(int idx, std::string shard_dir,
                         core::ActivityRegistry* registry,
                         const Options& options, Fs* fs)
    : index(idx),
      dir(std::move(shard_dir)),
      obs{.spans = obs::SpanSink(options.span_capacity)} {
  auto opened = RecordStore::Open(dir, fs);
  if (!opened.ok()) {
    BIOPERA_LOG(kError) << "shard " << index << ": store open failed: "
                        << opened.status().ToString();
    return;
  }
  store = std::move(*opened);
  store->SetWallProfile(&wall_profile);
  cluster = std::make_unique<cluster::ClusterSim>(&sim);
  core::EngineOptions engine_options = options.engine;
  engine_options.seed = ShardSeed(options.engine.seed, index);
  engine_options.observability = &obs;
  engine_options.wall_profile = &wall_profile;
  engine_options.job_cost_sensor = &job_cost_sensor;
  if (options.fault_channel) {
    channel = std::make_unique<comms::FaultChannel>();
    channel->BindSimulator(&sim);
    engine_options.channel = channel.get();
  } else {
    engine_options.channel = nullptr;  // the cluster's lossless channel
  }
  engine = std::make_unique<core::Engine>(&sim, cluster.get(), store.get(),
                                          registry, engine_options);
  console = std::make_unique<core::AdminConsole>(engine.get());
}

EngineShard::~EngineShard() {
  console.reset();
  engine.reset();  // before the store / cluster / channel it references
}

size_t EngineShard::LiveInstances() const {
  if (engine == nullptr) return 0;
  size_t live = 0;
  for (const auto& summary : engine->ListInstances()) {
    if (summary.state == core::InstanceState::kRunning ||
        summary.state == core::InstanceState::kSuspended) {
      ++live;
    }
  }
  return live;
}

}  // namespace biopera::service
