// The dispatcher on its own: a fake host stands in for the engine (and for
// the navigator's host), a fake PEC accepts every command, and the tests
// report jobs back by hand. No Engine is constructed.
#include "core/dispatcher.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "exec/thread_pool.h"
#include "ocr/builder.h"
#include "store/record_store.h"
#include "store/spaces.h"
#include "tests/test_util.h"

namespace biopera::core {
namespace {

using ocr::ProcessBuilder;
using ocr::TaskBuilder;
using ocr::Value;

/// Accepts every command addressed to a PEC and records it.
class FakePec : public comms::CommandHandler {
 public:
  Status HandleCommand(const comms::Message& msg) override {
    (msg.type == comms::MessageType::kLaunch ? launches : others)
        .push_back(msg);
    return Status::OK();
  }
  std::vector<comms::Message> launches;
  std::vector<comms::Message> others;
};

/// A dispatcher over a temp store, with the test as its host.
class World : public NavigatorHost, public DispatcherHost {
 public:
  explicit World(const std::vector<cluster::NodeConfig>& nodes,
                 const EngineOptions& options = {})
      : nodes_(nodes), options_(options) {
    auto opened = RecordStore::Open(dir_.path());
    EXPECT_OK(opened.status());
    store_ = std::move(*opened);
    spaces_ = std::make_unique<Spaces>(store_.get());
    navigator_ = std::make_unique<Navigator>(&sim_, spaces_.get(),
                                             &registry_, this);
    channel_.SetCommandHandler(&pec_);
    Restart();
  }

  /// A fresh dispatcher over the same ledger and a fresh awareness model
  /// (a server restart).
  void Restart() {
    dispatcher_.reset();
    awareness_ = monitor::AwarenessModel();
    for (const cluster::NodeConfig& node : nodes_) {
      awareness_.RegisterNode(node, sim_.Now());
    }
    auto policy = sched::MakePolicy("least_loaded", &rng_);
    EXPECT_OK(policy.status());
    dispatcher_ = std::make_unique<Dispatcher>(
        &sim_, spaces_.get(), navigator_.get(), &registry_, &awareness_,
        &channel_, options_, std::move(*policy), /*spans=*/nullptr, &ledger_,
        this);
  }

  void Register(const std::string& binding, ActivityFn fn) {
    ASSERT_OK(registry_.Register(binding, std::move(fn)));
  }

  /// Starts an instance of `def` and runs the first pump.
  ProcessInstance* Start(const Result<ocr::ProcessDef>& def) {
    EXPECT_OK(def.status());
    EXPECT_OK(navigator_->StoreTemplate(*def));
    auto resolved = navigator_->ResolveTemplate(def->name);
    EXPECT_OK(resolved.status());
    const std::string id = def->name + "-1";
    auto& inst = instances_[id];
    inst = navigator_->NewInstance(id, *resolved, {}, /*priority=*/0);
    WriteBatch batch;
    EXPECT_OK(navigator_->Start(inst.get(), &batch));
    EXPECT_OK(Commit(&batch));
    dispatcher_->Pump();
    return inst.get();
  }

  /// Reports every launched job complete, oldest first, until none is
  /// left.
  void CompleteAll() {
    for (size_t next = 0; next < pec_.launches.size(); ++next) {
      dispatcher_->ApplyOutcome(pec_.launches[next].job, /*failed=*/false,
                                "");
    }
  }

  // -- NavigatorHost --
  void TaskReady(ProcessInstance* inst, TaskNode* node) override {
    dispatcher_->TaskReady(inst, node);
  }
  void RetryDue(ProcessInstance* inst, TaskNode* node,
                Duration backoff) override {
    dispatcher_->RetryDue(inst, node, backoff);
  }
  void KillJobs(ProcessInstance* inst, const TaskNode* subtree) override {
    dispatcher_->KillJobs(inst, subtree);
  }
  void TaskFailed(ProcessInstance*, TaskNode*) override {}

  // -- DispatcherHost (and the navigator's InstanceStateWritten and
  // AppendHistory) --
  ProcessInstance* FindInstance(const std::string& instance_id) override {
    auto it = instances_.find(instance_id);
    return it == instances_.end() ? nullptr : it->second.get();
  }
  Status Commit(WriteBatch* batch) override {
    if (batch->empty()) return Status::OK();
    commits.push_back(batch->payload());
    Status st = spaces_->Apply(*batch);
    batch->Clear();
    return st;
  }
  Status Flush() override { return store_->Flush(); }
  bool StoreDegraded() const override { return false; }
  void InstanceStateWritten(ProcessInstance*) override {}
  void AppendHistory(const std::string&, const std::string& event) override {
    history.push_back(event);
  }
  void SendKill(const std::string& node, cluster::JobId job,
                uint64_t fence) override {
    kills.push_back({node, job, fence});
  }

  struct Kill {
    std::string node;
    cluster::JobId job;
    uint64_t fence;
    bool operator==(const Kill&) const = default;
  };

  std::vector<std::string> LaunchTrace() const {
    std::vector<std::string> out;
    for (const comms::Message& m : pec_.launches) {
      out.push_back(std::to_string(m.job) + " " + m.node + " fence=" +
                    std::to_string(m.fence));
    }
    return out;
  }

  testing::TempDir dir_;
  std::vector<cluster::NodeConfig> nodes_;
  Simulator sim_;
  std::unique_ptr<RecordStore> store_;
  std::unique_ptr<Spaces> spaces_;
  ActivityRegistry registry_;
  std::unique_ptr<Navigator> navigator_;
  monitor::AwarenessModel awareness_;
  comms::Channel channel_;
  FakePec pec_;
  EngineOptions options_;
  Rng rng_{1};
  obs::Registry metrics_;
  DispatchLedger ledger_{&metrics_};
  std::map<std::string, std::unique_ptr<ProcessInstance>> instances_;
  std::unique_ptr<Dispatcher> dispatcher_;

  std::vector<std::string> commits;
  std::vector<std::string> history;
  std::vector<Kill> kills;
};

/// A fan-out of `n` activities; each output is a pure function of its item.
Result<ocr::ProcessDef> FanOut(const std::string& name, int n) {
  Value::List items;
  for (int i = 0; i < n; ++i) items.push_back(Value(i));
  return ProcessBuilder(name)
      .Data("items", Value(std::move(items)))
      .Data("results")
      .Task(TaskBuilder::Parallel(
                "fan", "wb.items",
                TaskBuilder::Activity("work", "square").Input("item", "in.x"))
                .Collect("wb.results"))
      .Build();
}

void RegisterSquare(World* w) {
  w->Register("square", [](const ActivityInput& in) -> Result<ActivityOutput> {
    ActivityOutput out;
    const int64_t x = in.Get("x").AsInt();
    out.fields["y"] = Value(x * x);
    out.cost = Duration::Minutes(10 + x);
    return out;
  });
}

const cluster::NodeConfig kNode1{.name = "n1", .num_cpus = 1};
const cluster::NodeConfig kNode2{.name = "n2", .num_cpus = 1};

TEST(DispatcherTest, ParksWhatCannotBePlacedAndWakesItWhenAJobEnds) {
  World w({{.name = "n1", .num_cpus = 2}});
  RegisterSquare(&w);
  ProcessInstance* inst = w.Start(FanOut("fan", 5));
  // Two CPUs: two launches, the other three wait for capacity.
  EXPECT_EQ(w.LaunchTrace(),
            (std::vector<std::string>{"1 n1 fence=1", "2 n1 fence=2"}));
  DispatchStats stats = w.dispatcher_->Stats();
  EXPECT_EQ(stats.running_jobs, 2u);
  EXPECT_EQ(stats.parked_starved, 3u);
  EXPECT_EQ(stats.ready, 0u);
  EXPECT_EQ(w.sim_.NumPending(), 1u);  // the pump retry

  // Each report frees a CPU: the next entry in order takes it.
  w.dispatcher_->ApplyOutcome(1, /*failed=*/false, "");
  EXPECT_EQ(w.pec_.launches.size(), 3u);
  EXPECT_EQ(w.pec_.launches.back().job, 3u);
  w.CompleteAll();
  EXPECT_EQ(inst->state(), InstanceState::kDone);
  EXPECT_EQ(inst->whiteboard().at("results"),
            Value(Value::List{Value(Value::Map{{"y", Value(0)}}),
                              Value(Value::Map{{"y", Value(1)}}),
                              Value(Value::Map{{"y", Value(4)}}),
                              Value(Value::Map{{"y", Value(9)}}),
                              Value(Value::Map{{"y", Value(16)}})}));
  stats = w.dispatcher_->Stats();
  EXPECT_EQ(stats.dispatched, 5u);
  EXPECT_EQ(stats.running_jobs, 0u);
  EXPECT_EQ(stats.ready + stats.parked_starved, 0u);
}

TEST(DispatcherTest, ThreadPoolExecutorKeepsTheInlineOrderAndCommits) {
  // Pre-execution on a pool runs the kernels of the whole ready set at
  // once; the scan must still consume them in the inline order.
  auto run = [](exec::ThreadPool* pool) {
    EngineOptions options;
    options.executor = pool;
    World w({{.name = "n1", .num_cpus = 2}, {.name = "n2", .num_cpus = 1}},
            options);
    RegisterSquare(&w);
    ProcessInstance* inst = w.Start(FanOut("fan", 12));
    w.CompleteAll();
    EXPECT_EQ(inst->state(), InstanceState::kDone);
    EXPECT_EQ(w.ledger_.preexec_activities->value(), pool ? 12u : 0u);
    return std::make_pair(w.LaunchTrace(), w.commits);
  };
  const auto inline_run = run(nullptr);
  exec::ThreadPool pool(2);
  const auto pool_run = run(&pool);
  EXPECT_EQ(inline_run.first.size(), 12u);
  EXPECT_EQ(pool_run.first, inline_run.first);
  EXPECT_EQ(pool_run.second, inline_run.second);
}

TEST(DispatcherTest, DestructionCancelsEveryEventItArmed) {
  EngineOptions options;
  options.job_timeout_factor = 2;
  World w({kNode1}, options);
  RegisterSquare(&w);
  w.Register("fail", [](const ActivityInput&) -> Result<ActivityOutput> {
    return Status::Internal("boom");
  });
  w.Start(ProcessBuilder("mixed")
              .Data("x", Value(3))
              .Task(TaskBuilder::Activity("a", "square").Input("wb.x", "in.x"))
              .Task(TaskBuilder::Activity("b", "square").Input("wb.x", "in.x"))
              .Task(TaskBuilder::Activity("c", "fail")
                        .Retry(3, Duration::Hours(1)))
              .Build());
  // The watchdog of a's job, the pump retry for b and c's retry backoff.
  EXPECT_EQ(w.sim_.NumPending(), 3u);
  EXPECT_TRUE(w.ledger_.busy_open);
  EXPECT_EQ(w.ledger_.queue_depth->value(), 0);  // b is parked
  EXPECT_EQ(w.ledger_.parked_starved->value(), 1);

  w.sim_.RunFor(Duration::Minutes(30));
  w.dispatcher_.reset();
  EXPECT_EQ(w.sim_.NumPending(), 0u);
  EXPECT_FALSE(w.ledger_.busy_open);
  EXPECT_EQ(w.ledger_.busy_us,
            static_cast<uint64_t>(Duration::Minutes(30).micros()));
  EXPECT_EQ(w.ledger_.parked_starved->value(), 0);
  EXPECT_EQ(w.ledger_.running_jobs->value(), 0);
}

TEST(DispatcherTest, LedgerCarriesJobIdsAndCountersAcrossRestarts) {
  World w({kNode1});
  RegisterSquare(&w);
  w.Start(FanOut("first", 1));
  w.Restart();
  // A fresh dispatcher restarts its fences but not the job ids.
  w.Start(FanOut("second", 1));
  EXPECT_EQ(w.LaunchTrace(),
            (std::vector<std::string>{"1 n1 fence=1", "2 n1 fence=1"}));
  DispatchStats stats = w.dispatcher_->Stats();
  EXPECT_EQ(stats.dispatched, 2u);
  EXPECT_EQ(stats.pump_runs, 2u);
  EXPECT_EQ(stats.running_jobs, 1u);
  w.dispatcher_.reset();
  EXPECT_EQ(w.ledger_.Stats(w.sim_.Now()).dispatched, 2u);
}

TEST(DispatcherTest, TimedOutJobIsKilledAndRequeuedAwayFromItsNode) {
  EngineOptions options;
  options.job_timeout_factor = 1;
  options.job_timeout_slack = Duration::Minutes(1);
  World w({kNode1, kNode2}, options);
  RegisterSquare(&w);
  ProcessInstance* inst = w.Start(FanOut("lost", 1));
  ASSERT_EQ(w.pec_.launches.size(), 1u);
  const comms::Message first = w.pec_.launches[0];

  // The report never comes: 10 min of work plus the slack later the job
  // is lost, killed under its fence, and tried elsewhere at once.
  w.sim_.RunFor(Duration::Minutes(11));
  ASSERT_EQ(w.pec_.launches.size(), 2u);
  EXPECT_EQ(w.kills, (std::vector<World::Kill>{
                         {first.node, first.job, first.fence}}));
  EXPECT_NE(w.pec_.launches[1].node, first.node);
  EXPECT_EQ(w.history.size(), 3u);  // dispatched, timed out, dispatched
  EXPECT_NE(w.history[1].find("timed out; re-scheduling"), std::string::npos);
  EXPECT_EQ(w.ledger_.timed_out->value(), 1u);

  // The late report of the lost attempt finds no job; the new one applies.
  w.dispatcher_->ApplyOutcome(first.job, /*failed=*/false, "");
  EXPECT_EQ(inst->state(), InstanceState::kRunning);
  w.dispatcher_->ApplyOutcome(w.pec_.launches[1].job, /*failed=*/false, "");
  EXPECT_EQ(inst->state(), InstanceState::kDone);
}

TEST(DispatcherTest, CondemnedNodeJobsAreKilledNotedAndRequeued) {
  World w({kNode1, kNode2});
  RegisterSquare(&w);
  ProcessInstance* inst = w.Start(FanOut("condemn", 2));
  ASSERT_EQ(w.pec_.launches.size(), 2u);
  const comms::Message on_n1 =
      w.pec_.launches[0].node == "n1" ? w.pec_.launches[0]
                                      : w.pec_.launches[1];
  w.awareness_.NodeDown("n1", w.sim_.Now());
  w.dispatcher_->RequeueNodeJobs("n1");
  EXPECT_EQ(w.kills,
            (std::vector<World::Kill>{{"n1", on_n1.job, on_n1.fence}}));
  EXPECT_NE(w.history.back().find("node n1 condemned; re-scheduling"),
            std::string::npos);
  // The re-queued attempt waits for n2's CPU.
  EXPECT_EQ(w.dispatcher_->Stats().parked_starved, 1u);
  w.CompleteAll();
  EXPECT_EQ(inst->state(), InstanceState::kDone);
  EXPECT_EQ(w.pec_.launches.back().node, "n2");
}

}  // namespace
}  // namespace biopera::core
