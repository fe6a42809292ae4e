#include "bench/bench_common.h"

#include <unistd.h>

#include <cstdio>
#include <string_view>

#include "common/strings.h"
#include "ocr/builder.h"

namespace biopera::bench {

void AddIkSunCluster(cluster::ClusterSim* cluster, int nodes) {
  for (int i = 0; i < nodes; ++i) {
    cluster::NodeConfig node;
    node.name = StrFormat("ik-sun%d", i);
    node.num_cpus = 1;
    node.speed = kIkSunSpeed;
    node.os = "solaris";
    cluster->AddNode(node);
  }
}

void AddLinneusCluster(cluster::ClusterSim* cluster) {
  for (int i = 0; i < 16; ++i) {
    cluster::NodeConfig node;
    node.name = StrFormat("linneus%02d", i);
    node.num_cpus = 2;
    node.speed = kLinneusPcSpeed;
    node.os = "linux";
    cluster->AddNode(node);
  }
  cluster::NodeConfig sparc;
  sparc.name = "linneus-sparc";
  sparc.num_cpus = 6;
  sparc.speed = kSparcSpeed;
  sparc.os = "solaris";
  cluster->AddNode(sparc);
}

void AddIkLinuxCluster(cluster::ClusterSim* cluster, int cpus) {
  for (int i = 0; i < 8; ++i) {
    cluster::NodeConfig node;
    node.name = StrFormat("ik-linux%d", i);
    node.num_cpus = cpus;
    node.speed = kIkLinuxSpeed;
    node.os = "linux";
    cluster->AddNode(node);
  }
}

ocr::ProcessDef TwoStageJobProcess(const std::string& name) {
  auto def = ocr::ProcessBuilder(name)
                 .Task(ocr::TaskBuilder::Activity("prepare", "bench.prepare"))
                 .Task(ocr::TaskBuilder::Activity("run", "bench.run"))
                 .Connect("prepare", "run")
                 .Build();
  if (!def.ok()) std::abort();
  return std::move(*def);
}

void RegisterTwoStageJobActivities(core::ActivityRegistry* registry) {
  auto activity = [](Duration cost) {
    return [cost](const core::ActivityInput&) -> Result<core::ActivityOutput> {
      core::ActivityOutput out;
      out.cost = cost;
      return out;
    };
  };
  if (!registry->Register("bench.prepare", activity(Duration::Minutes(30)))
           .ok()) {
    std::abort();
  }
  if (!registry->Register("bench.run", activity(Duration::Hours(1))).ok()) {
    std::abort();
  }
}

namespace {
std::string MakeTempDir() {
  auto base = std::filesystem::temp_directory_path() / "biopera_bench";
  std::filesystem::create_directories(base);
  static int counter = 0;
  auto dir = base / StrFormat("w%d_%d", ++counter, ::getpid());
  std::filesystem::create_directories(dir);
  return dir.string();
}
}  // namespace

BenchWorld::BenchWorld(const core::EngineOptions& options,
                       bool with_fault_channel)
    : store_dir(MakeTempDir()),
      fault_fs(std::make_unique<FaultFs>(Fs::Default())) {
  auto opened = RecordStore::Open(store_dir, fault_fs.get());
  if (!opened.ok()) {
    std::fprintf(stderr, "store open failed: %s\n",
                 opened.status().ToString().c_str());
    std::abort();
  }
  store = std::move(*opened);
  cluster = std::make_unique<cluster::ClusterSim>(&sim);
  core::EngineOptions engine_options = options;
  if (engine_options.observability == nullptr) {
    engine_options.observability = &obs;
  }
  if (with_fault_channel && engine_options.channel == nullptr) {
    channel = std::make_unique<comms::FaultChannel>();
    channel->BindSimulator(&sim);
    engine_options.channel = channel.get();
  }
  engine = std::make_unique<core::Engine>(&sim, cluster.get(), store.get(),
                                          &registry, engine_options);
}

BenchWorld::~BenchWorld() {
  engine.reset();
  store.reset();
  std::error_code ec;
  std::filesystem::remove_all(store_dir, ec);
}

std::string JsonPathFromArgs(int argc, char** argv,
                             const std::string& default_path) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--json") return default_path;
    if (arg.rfind("--json=", 0) == 0) return std::string(arg.substr(7));
  }
  return "";
}

void BenchJson::Add(
    const std::string& name,
    std::vector<std::pair<std::string, double>> fields,
    std::vector<std::pair<std::string, std::string>> text_fields) {
  rows_.push_back({name, std::move(fields), std::move(text_fields)});
}

bool BenchJson::Write(const std::string& path) const {
  std::string out = "{\n  \"bench\": \"" + bench_name_ + "\",\n  \"results\": [";
  bool first_row = true;
  for (const auto& row : rows_) {
    out += first_row ? "\n" : ",\n";
    first_row = false;
    out += "    {\"name\": \"" + row.name + "\"";
    for (const auto& [key, value] : row.fields) {
      out += StrFormat(", \"%s\": %.6g", key.c_str(), value);
    }
    for (const auto& [key, value] : row.text_fields) {
      out += StrFormat(", \"%s\": \"%s\"", key.c_str(), value.c_str());
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr ||
      std::fwrite(out.data(), 1, out.size(), f) != out.size()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    if (f != nullptr) std::fclose(f);
    return false;
  }
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

std::string FormatDhm(double seconds) {
  long long total_minutes = static_cast<long long>(seconds / 60);
  long long days = total_minutes / (24 * 60);
  long long hours = (total_minutes / 60) % 24;
  long long minutes = total_minutes % 60;
  return StrFormat("%lldd %lldh %lldm", days, hours, minutes);
}

}  // namespace biopera::bench
