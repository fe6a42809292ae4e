// The navigator on its own: a fake host stands in for the dispatcher, runs
// every ready activity inline against a hand-driven clock, and commits
// each step's batch to a temp store. Every scenario also rebuilds the
// instance from the rows the navigator persisted (after reopening the
// store) and requires the very same tree.
#include "core/navigator.h"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ocr/builder.h"
#include "store/codec.h"
#include "store/record_store.h"
#include "store/spaces.h"
#include "tests/test_util.h"

namespace biopera::core {
namespace {

using ocr::ProcessBuilder;
using ocr::ProcessDef;
using ocr::TaskBuilder;
using ocr::Value;

class ManualClock : public Clock {
 public:
  TimePoint Now() const override { return now; }
  TimePoint now = TimePoint::FromMicros(1'000'000);
};

/// Records every effect the navigator reports.
class FakeHost : public NavigatorHost {
 public:
  void TaskReady(ProcessInstance*, TaskNode* node) override {
    ready.push_back(node->path);
  }
  void RetryDue(ProcessInstance*, TaskNode* node, Duration backoff) override {
    retries.emplace_back(node->path, backoff);
  }
  void KillJobs(ProcessInstance*, const TaskNode* subtree) override {
    killed.push_back(subtree->path);
  }
  void InstanceStateWritten(ProcessInstance* inst) override {
    states.push_back(inst->state());
  }
  void AppendHistory(const std::string&, const std::string& event) override {
    history.push_back(event);
  }
  void TaskFailed(ProcessInstance*, TaskNode* node) override {
    failed.push_back(node->path);
  }

  bool SawHistory(const std::string& needle) const {
    for (const std::string& line : history) {
      if (line.find(needle) != std::string::npos) return true;
    }
    return false;
  }

  std::deque<std::string> ready;
  std::deque<std::pair<std::string, Duration>> retries;
  std::vector<std::string> killed;
  std::vector<InstanceState> states;
  std::vector<std::string> history;
  std::vector<std::string> failed;
};

/// One line per node (depth-first): path, state, attempts, binding,
/// outputs and own whiteboard, preceded by the instance-level state.
std::string Describe(ProcessInstance& inst) {
  std::string out = std::string(InstanceStateName(inst.state())) +
                    " wb=" + Value(inst.whiteboard()).ToText() +
                    " events=" + std::to_string(inst.raised_events().size()) +
                    "\n";
  for (const auto& [var, writer] : inst.lineage()) {
    out += "lineage " + var + "=" + writer + "\n";
  }
  inst.ForEachNode([&](const TaskNode* node) {
    out += node->path + " " + std::string(TaskStateName(node->state)) +
           " attempts=" + std::to_string(node->attempts) +
           " binding=" + node->binding_used +
           " out=" + Value(node->outputs).ToText();
    if (node->own_whiteboard != nullptr) {
      out += " wb=" + Value(*node->own_whiteboard).ToText();
    }
    out += "\n";
  });
  return out;
}

class NavigatorTest : public ::testing::Test {
 protected:
  NavigatorTest() { Open(); }

  /// (Re)opens the store under a fresh navigator. Navigators are kept:
  /// the running instance points into the template cache of the one that
  /// started it.
  void Open() {
    if (nav_ != nullptr) old_navs_.push_back(std::move(nav_));
    spaces_.reset();
    store_.reset();
    auto opened = RecordStore::Open(dir_.path());
    ASSERT_OK(opened.status());
    store_ = std::move(*opened);
    spaces_ = std::make_unique<Spaces>(store_.get());
    nav_ = std::make_unique<Navigator>(&clock_, spaces_.get(), &registry_,
                                       &host_);
  }

  void Register(const Result<ProcessDef>& def) {
    ASSERT_OK(def.status());
    ASSERT_OK(ocr::ValidateProcess(*def));
    ASSERT_OK(nav_->StoreTemplate(*def));
  }

  void Activity(const std::string& binding, ActivityFn fn) {
    ASSERT_OK(registry_.Register(binding, std::move(fn)));
  }

  ProcessInstance* Start(const std::string& name,
                         const Value::Map& args = {}) {
    auto def = nav_->ResolveTemplate(name);
    EXPECT_OK(def.status());
    if (!def.ok()) return nullptr;
    inst_ = nav_->NewInstance(name + "-1", *def, args, /*priority=*/0);
    WriteBatch batch;
    EXPECT_OK(nav_->Start(inst_.get(), &batch));
    EXPECT_OK(spaces_->Apply(batch));
    return inst_.get();
  }

  /// Dispatches ready activities in order and runs them inline; when none
  /// is ready, lets the earliest retry backoff pass.
  void Drain() {
    ProcessInstance* inst = inst_.get();
    while (!host_.ready.empty() || !host_.retries.empty()) {
      WriteBatch batch;
      if (host_.ready.empty()) {
        auto [path, backoff] = host_.retries.front();
        host_.retries.pop_front();
        clock_.now = clock_.now + backoff;
        TaskNode* node = inst->FindByPath(path);
        if (node == nullptr || node->state != TaskState::kRetryWait) continue;
        nav_->MarkReady(inst, node, &batch);
        ASSERT_OK(spaces_->Apply(batch));
        host_.ready.push_back(path);
        continue;
      }
      TaskNode* node = inst->FindByPath(host_.ready.front());
      host_.ready.pop_front();
      if (node == nullptr || node->state != TaskState::kReady) continue;
      nav_->MarkRunning(inst, node, &batch);
      Result<ActivityFn> fn = registry_.Find(BindingOf(*node));
      ASSERT_OK(fn.status());
      ASSERT_OK_AND_ASSIGN(ActivityInput input, nav_->BuildInput(node));
      Result<ActivityOutput> out = (*fn)(input);
      if (out.ok()) {
        clock_.now = clock_.now + out->cost;
        ASSERT_OK(nav_->Complete(inst, node, std::move(out->fields),
                                 out->cost, &batch));
      } else {
        ASSERT_OK(nav_->Fail(inst, node, out.status().ToString(), &batch));
      }
      ASSERT_OK(spaces_->Apply(batch));
    }
  }

  /// Reopens the store and rebuilds the running instance from its rows
  /// with a fresh navigator; the tree must be the one in memory.
  void ExpectRoundTrip() {
    std::string want = Describe(*inst_);
    Open();
    const Spaces::InstanceScan scan = spaces_->ScanInstances();
    ASSERT_EQ(scan.instances.size(), 1u);
    ASSERT_EQ(scan.instances[0].id, inst_->id());
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<ProcessInstance> rebuilt,
        nav_->Rebuild(scan.instances[0].id, scan.instances[0].rows));
    EXPECT_EQ(Describe(*rebuilt), want);
    EXPECT_EQ(rebuilt->NumNodes(), inst_->NumNodes());
    EXPECT_EQ(rebuilt->stats().activities_completed,
              inst_->stats().activities_completed);
  }

  const Value& Wb(const std::string& var) { return inst_->whiteboard()[var]; }

  testing::TempDir dir_;
  ManualClock clock_;
  ActivityRegistry registry_;
  FakeHost host_;
  std::unique_ptr<RecordStore> store_;
  std::unique_ptr<Spaces> spaces_;
  std::unique_ptr<Navigator> nav_;
  std::vector<std::unique_ptr<Navigator>> old_navs_;
  std::unique_ptr<ProcessInstance> inst_;
};

/// y = x + 1, 10 s of work.
Result<ActivityOutput> Increment(const ActivityInput& in) {
  ActivityOutput out;
  out.fields["y"] = Value(in.Get("x").is_int() ? in.Get("x").AsInt() + 1 : 1);
  out.cost = Duration::Seconds(10);
  return out;
}

TEST_F(NavigatorTest, SequenceThreadsDataThroughTheWhiteboard) {
  Activity("inc", Increment);
  Register(ProcessBuilder("chain")
               .Data("x", Value(1))
               .Data("y")
               .Task(TaskBuilder::Activity("a", "inc")
                         .Input("wb.x", "in.x")
                         .Output("out.y", "wb.x"))
               .Task(TaskBuilder::Activity("b", "inc")
                         .Input("wb.x", "in.x")
                         .Output("out.y", "wb.y"))
               .Connect("a", "b")
               .Build());
  ProcessInstance* inst = Start("chain");
  ASSERT_NE(inst, nullptr);
  // Only the start task is ready; b waits on its connector.
  ASSERT_EQ(host_.ready, std::deque<std::string>{"a"});
  EXPECT_EQ(inst->FindByPath("b")->state, TaskState::kInactive);
  Drain();
  EXPECT_EQ(inst->state(), InstanceState::kDone);
  EXPECT_EQ(Wb("x"), Value(2));
  EXPECT_EQ(Wb("y"), Value(3));
  EXPECT_EQ(inst->lineage().at("y"), "b");
  EXPECT_EQ(host_.states, std::vector<InstanceState>{InstanceState::kDone});
  EXPECT_TRUE(host_.SawHistory("completed"));
  ExpectRoundTrip();
}

TEST_F(NavigatorTest, ParallelListExpandsAndCollectsInIndexOrder) {
  Activity("inc", Increment);
  Register(ProcessBuilder("fan")
               .Data("items", Value(Value::List{Value(10), Value(20),
                                                Value(30)}))
               .Data("results")
               .Task(TaskBuilder::Parallel(
                         "fanout", "wb.items",
                         TaskBuilder::Activity("body", "inc")
                             .Input("item", "in.x"))
                         .Collect("wb.results"))
               .Build());
  ProcessInstance* inst = Start("fan");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(host_.ready, (std::deque<std::string>{
                             "fanout[0]", "fanout[1]", "fanout[2]"}));
  // Mid-run the expansion is persisted with the parallel node.
  ExpectRoundTrip();
  Drain();
  EXPECT_EQ(inst->state(), InstanceState::kDone);
  const Value& results = Wb("results");
  ASSERT_TRUE(results.is_list());
  ASSERT_EQ(results.AsList().size(), 3u);
  EXPECT_EQ(results.AsList()[0].AsMap().at("y"), Value(11));
  EXPECT_EQ(results.AsList()[2].AsMap().at("y"), Value(31));
  EXPECT_EQ(inst->lineage().at("results"), "fanout");
  EXPECT_EQ(inst->FindByPath("fanout")->outputs.at("count"), Value(3));
  ExpectRoundTrip();
}

TEST_F(NavigatorTest, SubprocessMapsInputsIntoItsOwnWhiteboard) {
  Activity("inc", Increment);
  Register(ProcessBuilder("inner")
               .Data("n", Value(0))
               .Data("m")
               .Data("unset", Value("default"))
               .Task(TaskBuilder::Activity("work", "inc")
                         .Input("wb.n", "in.x")
                         .Output("out.y", "wb.m"))
               .Build());
  Register(ProcessBuilder("outer")
               .Data("x", Value(41))
               .Data("result")
               .Task(TaskBuilder::Subprocess("child", "inner")
                         .Input("wb.x", "in.n")
                         // A source that does not resolve is optional: the
                         // subprocess keeps its own default.
                         .Input("wb.missing", "in.unset")
                         .Output("out.m", "wb.result"))
               .Build());
  ProcessInstance* inst = Start("outer");
  ASSERT_NE(inst, nullptr);
  TaskNode* child = inst->FindByPath("child");
  ASSERT_NE(child->own_whiteboard, nullptr);
  EXPECT_EQ(child->own_whiteboard->at("n"), Value(41));
  EXPECT_EQ(child->own_whiteboard->at("unset"), Value("default"));
  EXPECT_EQ(host_.ready, std::deque<std::string>{"child/work"});
  ExpectRoundTrip();
  Drain();
  EXPECT_EQ(inst->state(), InstanceState::kDone);
  EXPECT_EQ(Wb("result"), Value(42));
  // The subprocess's outputs are its final whiteboard.
  EXPECT_EQ(inst->FindByPath("child")->outputs.at("m"), Value(42));
  ExpectRoundTrip();
}

TEST_F(NavigatorTest, RetryRunsTheAlternativeBindingAfterTheBackoff) {
  Activity("flaky", [](const ActivityInput&) -> Result<ActivityOutput> {
    return Status::Unavailable("flaky refused");
  });
  Activity("steady", [](const ActivityInput&) -> Result<ActivityOutput> {
    ActivityOutput out;
    out.fields["via"] = Value("steady");
    return out;
  });
  Register(ProcessBuilder("retry")
               .Data("via")
               .Task(TaskBuilder::Activity("t", "flaky")
                         .Output("out.via", "wb.via")
                         .Retry(2, Duration::Seconds(30))
                         .Alternative("steady"))
               .Build());
  ProcessInstance* inst = Start("retry");
  ASSERT_NE(inst, nullptr);
  // Run exactly the first attempt by hand.
  TaskNode* node = inst->FindByPath("t");
  host_.ready.clear();
  WriteBatch batch;
  nav_->MarkRunning(inst, node, &batch);
  ASSERT_OK(nav_->Fail(inst, node, "flaky refused", &batch));
  ASSERT_OK(spaces_->Apply(batch));
  EXPECT_EQ(node->state, TaskState::kRetryWait);
  EXPECT_EQ(node->attempts, 1);
  EXPECT_EQ(BindingOf(*node), "steady");
  ASSERT_EQ(host_.retries.size(), 1u);
  EXPECT_EQ(host_.retries.front().first, "t");
  EXPECT_EQ(host_.retries.front().second, Duration::Seconds(30));
  EXPECT_EQ(host_.failed, std::vector<std::string>{"t"});
  // The switched binding and the wait survive a rebuild.
  ExpectRoundTrip();
  Drain();
  EXPECT_EQ(inst->state(), InstanceState::kDone);
  EXPECT_EQ(Wb("via"), Value("steady"));
  EXPECT_EQ(inst->stats().activities_failed, 1u);
  ExpectRoundTrip();
}

TEST_F(NavigatorTest, IgnoredFailureCompletesWithEmptyOutputs) {
  Activity("broken", [](const ActivityInput&) -> Result<ActivityOutput> {
    return Status::Internal("always broken");
  });
  Activity("inc", Increment);
  Register(ProcessBuilder("tolerant")
               .Data("via")
               .Task(TaskBuilder::Activity("t", "broken")
                         .Output("out.via", "wb.via")
                         .Retry(0, Duration::Seconds(1))
                         .IgnoreFailure())
               .Task(TaskBuilder::Activity("after", "inc"))
               .Connect("t", "after")
               .Build());
  ProcessInstance* inst = Start("tolerant");
  ASSERT_NE(inst, nullptr);
  Drain();
  EXPECT_EQ(inst->state(), InstanceState::kDone);
  EXPECT_TRUE(host_.retries.empty());
  EXPECT_EQ(host_.failed, std::vector<std::string>{"t"});
  EXPECT_EQ(inst->FindByPath("t")->state, TaskState::kDone);
  EXPECT_TRUE(inst->FindByPath("t")->outputs.empty());
  EXPECT_TRUE(Wb("via").is_null());
  EXPECT_EQ(inst->FindByPath("after")->state, TaskState::kDone);
  ExpectRoundTrip();
}

TEST_F(NavigatorTest, FailedSphereIsCompensatedAndRerun) {
  int reserved = 0;
  int released = 0;
  int commits = 0;
  Activity("reserve", [&](const ActivityInput&) -> Result<ActivityOutput> {
    ActivityOutput out;
    out.fields["ticket"] = Value(++reserved);
    return out;
  });
  Activity("release", [&](const ActivityInput& in) -> Result<ActivityOutput> {
    EXPECT_EQ(in.Get("ticket"), Value(reserved));
    ++released;
    return ActivityOutput{};
  });
  Activity("commit", [&](const ActivityInput&) -> Result<ActivityOutput> {
    if (commits++ == 0) return Status::Unavailable("commit refused");
    return ActivityOutput{};
  });
  Register(ProcessBuilder("sphere")
               .Task(TaskBuilder::Block("txn")
                         .Atomic()
                         .Retry(2, Duration::Seconds(1))
                         .Sub(TaskBuilder::Activity("reserve", "reserve")
                                  .Compensate("release"))
                         .Sub(TaskBuilder::Activity("commit", "commit")
                                  .Retry(0, Duration::Seconds(1)))
                         .Connect("reserve", "commit"))
               .Build());
  ProcessInstance* inst = Start("sphere");
  ASSERT_NE(inst, nullptr);
  Drain();
  EXPECT_EQ(inst->state(), InstanceState::kDone);
  EXPECT_EQ(reserved, 2);
  EXPECT_EQ(released, 1);
  EXPECT_EQ(commits, 2);
  // The sphere's jobs were killed before its subtree was discarded.
  EXPECT_EQ(host_.killed, std::vector<std::string>{"txn"});
  EXPECT_TRUE(host_.SawHistory("compensated txn.reserve via release"));
  EXPECT_TRUE(host_.SawHistory("re-running sphere txn (attempt 2)"));
  EXPECT_EQ(inst->FindByPath("txn")->attempts, 1);
  EXPECT_EQ(inst->FindByPath("txn.commit")->attempts, 0);
  ExpectRoundTrip();
}

TEST_F(NavigatorTest, OnEventTaskWaitsForItsEvent) {
  Activity("inc", Increment);
  Register(ProcessBuilder("evented")
               .Data("checked")
               .Task(TaskBuilder::Activity("compute", "inc"))
               .Task(TaskBuilder::Activity("visualize", "inc")
                         .OnEvent("user_check")
                         .Output("out.y", "wb.checked"))
               .Connect("compute", "visualize")
               .Build());
  ProcessInstance* inst = Start("evented");
  ASSERT_NE(inst, nullptr);
  Drain();
  TaskNode* gated = inst->FindByPath("visualize");
  EXPECT_EQ(gated->state, TaskState::kEventWait);
  EXPECT_EQ(inst->state(), InstanceState::kRunning);
  EXPECT_TRUE(host_.SawHistory("waiting for event 'user_check'"));
  ExpectRoundTrip();

  WriteBatch batch;
  ASSERT_OK(nav_->RaiseEvent(inst, "user_check", &batch));
  ASSERT_OK(spaces_->Apply(batch));
  EXPECT_EQ(host_.ready, std::deque<std::string>{"visualize"});
  Drain();
  EXPECT_EQ(inst->state(), InstanceState::kDone);
  EXPECT_EQ(Wb("checked"), Value(1));
  ExpectRoundTrip();
}


// --- The task-record reader --------------------------------------------------

/// Every field of a task row, as Describe() does not show them all.
std::string DescribeFields(const TaskNode& node, TaskState state,
                           const std::string& sub) {
  return std::string(TaskStateName(state)) +
         " attempts=" + std::to_string(node.attempts) +
         " binding=" + node.binding_used +
         " out=" + Value(node.outputs).ToText() +
         " cost=" + std::to_string(node.cost.micros()) +
         " started=" + std::to_string(node.started.micros()) +
         " finished=" + std::to_string(node.finished.micros()) +
         " expansion=" + node.expansion.ToText() + " sub=" + sub;
}

TEST(TaskRecordTest, EveryFieldRoundTrips) {
  ProcessDef sub;
  sub.name = "inner";
  TaskNode node;
  node.state = TaskState::kRetryWait;
  node.attempts = 3;
  node.binding_used = "alt.binding";
  node.outputs["y"] = Value(7);
  node.outputs["nested"] = Value(Value::Map{{"z", Value(0.25)}});
  node.cost = Duration::Micros(2'500'001);
  node.started = TimePoint::FromMicros(-4);
  node.finished = TimePoint::FromMicros(9'000'000'000);
  node.expansion = Value(Value::List{Value(1), Value("two"), Value()});
  node.sub_def = &sub;
  const std::string row = EncodeTaskRecord(node);

  TaskNode read;
  TaskState state = TaskState::kInactive;
  std::string sub_template;
  ASSERT_OK(DecodeTaskRecord(row, &read, &state, &sub_template));
  EXPECT_EQ(DescribeFields(read, state, sub_template),
            DescribeFields(node, node.state, sub.name));
  // Written back, the node gives the very same bytes.
  read.state = state;
  read.sub_def = &sub;
  EXPECT_EQ(EncodeTaskRecord(read), row);
}

TEST(TaskRecordTest, NumbersOfTheOtherKindConvertAsRecordIntDoes) {
  Value::Map rec;
  rec["state"] = Value(std::string(TaskStateName(TaskState::kDone)));
  rec["attempts"] = Value(2.9);
  rec["cost_us"] = Value(1500.7);
  rec["started_us"] = Value(-3.5);
  rec["finished_us"] = Value(7e9);
  TaskNode node;
  TaskState state = TaskState::kInactive;
  std::string sub;
  ASSERT_OK(DecodeTaskRecord(EncodeValueRecord(Value(rec)), &node, &state,
                             &sub));
  EXPECT_EQ(state, TaskState::kDone);
  EXPECT_EQ(node.attempts, static_cast<int>(RecordInt(rec, "attempts", 0)));
  EXPECT_EQ(node.attempts, 2);
  EXPECT_EQ(node.cost.micros(), RecordInt(rec, "cost_us", 0));
  EXPECT_EQ(node.started.micros(), RecordInt(rec, "started_us", 0));
  EXPECT_EQ(node.started.micros(), -3);
  EXPECT_EQ(node.finished.micros(), RecordInt(rec, "finished_us", 0));
}

TEST(TaskRecordTest, UnknownFieldsAreIgnored) {
  TaskNode node;
  node.state = TaskState::kDone;
  node.attempts = 1;
  node.outputs["y"] = Value(2);
  ASSERT_OK_AND_ASSIGN(Value rec, DecodeValueRecord(EncodeTaskRecord(node)));
  rec.AsMap()["a_field_from_later"] =
      Value(Value::List{Value(Value::Map{{"deep", Value(true)}})});
  rec.AsMap()["zzz"] = Value(1);

  TaskNode plain, extended;
  TaskState plain_state, extended_state;
  std::string plain_sub, extended_sub;
  ASSERT_OK(DecodeTaskRecord(EncodeTaskRecord(node), &plain, &plain_state,
                             &plain_sub));
  ASSERT_OK(DecodeTaskRecord(EncodeValueRecord(rec), &extended,
                             &extended_state, &extended_sub));
  EXPECT_EQ(DescribeFields(extended, extended_state, extended_sub),
            DescribeFields(plain, plain_state, plain_sub));
}

/// A running instance of a parallel fan-out, rebuilt from rows the test
/// may break first.
class RebuildRowsTest : public NavigatorTest {
 protected:
  void SetUp() override {
    Activity("inc", Increment);
    Register(ProcessBuilder("fan")
                 .Data("items", Value(Value::List{Value(1), Value(2)}))
                 .Data("results")
                 .Task(TaskBuilder::Parallel(
                           "fanout", "wb.items",
                           TaskBuilder::Activity("body", "inc")
                               .Input("item", "in.x"))
                           .Collect("wb.results"))
                 .Build());
    ASSERT_NE(Start("fan"), nullptr);
    const Spaces::InstanceScan scan = spaces_->ScanInstances();
    ASSERT_EQ(scan.instances.size(), 1u);
    for (const RecordStore::RowView& row : scan.instances[0].rows) {
      rows_.emplace_back(row.key, row.value);
    }
  }

  Result<std::unique_ptr<ProcessInstance>> Rebuild() {
    std::vector<RecordStore::RowView> views;
    for (const auto& [key, value] : rows_) views.push_back({key, value});
    return nav_->Rebuild(inst_->id(), views);
  }

  std::string& Row(const std::string& key) {
    for (auto& [k, v] : rows_) {
      if (k == key) return v;
    }
    ADD_FAILURE() << "no row " << key;
    return rows_.front().second;
  }

  /// Rebuild fails with Corruption naming `key` and the instance.
  void ExpectCorruption(const std::string& key) {
    Result<std::unique_ptr<ProcessInstance>> rebuilt = Rebuild();
    ASSERT_FALSE(rebuilt.ok());
    const Status& st = rebuilt.status();
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    EXPECT_NE(st.message().find(key), std::string::npos) << st.message();
    EXPECT_NE(st.message().find(inst_->id()), std::string::npos)
        << st.message();
  }

  /// The row's record with `field` set to `value` (or removed when null).
  std::string WithField(const std::string& key, const std::string& field,
                        const Value& value) {
    Result<Value> rec = DecodeValueRecord(Row(key));
    EXPECT_OK(rec.status());
    if (value.is_null()) {
      rec->AsMap().erase(field);
    } else {
      rec->AsMap()[field] = value;
    }
    return EncodeValueRecord(*rec);
  }

  std::vector<std::pair<std::string, std::string>> rows_;  // key order
};

TEST_F(RebuildRowsTest, IntactRowsRebuildTheTree) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ProcessInstance> rebuilt, Rebuild());
  EXPECT_EQ(Describe(*rebuilt), Describe(*inst_));
}

TEST_F(RebuildRowsTest, RowWithoutMarkerIsCorruption) {
  Row("task/fanout[1]") = "plain text";
  ExpectCorruption("task/fanout[1]");
}

TEST_F(RebuildRowsTest, RowThatIsNotAMapIsCorruption) {
  Row("task/fanout[0]") = EncodeValueRecord(Value(5));
  ExpectCorruption("task/fanout[0]");
}

TEST_F(RebuildRowsTest, TrailingBytesAreCorruption) {
  Row("task/fanout") += "x";
  ExpectCorruption("task/fanout");
}

TEST_F(RebuildRowsTest, UnknownStateNameIsCorruption) {
  Row("task/fanout[0]") = WithField("task/fanout[0]", "state",
                                    Value("sleeping"));
  ExpectCorruption("task/fanout[0]");
}

TEST_F(RebuildRowsTest, ParallelRowWithoutExpansionIsCorruption) {
  Row("task/fanout") = WithField("task/fanout", "expansion", Value());
  ExpectCorruption("task/fanout");
}

TEST_F(RebuildRowsTest, MissingHeaderIsCorruption) {
  ASSERT_EQ(rows_.front().first, "header");
  rows_.erase(rows_.begin());
  ExpectCorruption("header");
}

TEST_F(RebuildRowsTest, RowNoNodeReachesIsStillChecked) {
  // A stale subprocess whiteboard row, as Invalidate leaves one behind:
  // read by nothing, but it must still decode.
  rows_.emplace_back("wb/gone", EncodeValueRecord(Value(Value::Map{})));
  ASSERT_OK(Rebuild().status());
  rows_.back().second = EncodeValueRecord(Value("not a map"));
  ExpectCorruption("wb/gone");
}

TEST_F(RebuildRowsTest, RequeueWritesOnlyTheInstancesOwnRows) {
  // Restart rebuilds instances one by one from views into the store image
  // and commits each one's requeue before the next is read: that is safe
  // only because the requeue of one instance writes none of another's
  // rows.
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<ProcessInstance> rebuilt, Rebuild());
  WriteBatch batch;
  nav_->MarkRunning(rebuilt.get(), rebuilt->FindByPath("fanout[0]"), &batch);
  batch.Clear();
  EXPECT_EQ(nav_->RequeueInterrupted(rebuilt.get(), &batch), 2u);
  ASSERT_OK_AND_ASSIGN(std::vector<WriteBatch::Op> ops, batch.Ops());
  ASSERT_FALSE(ops.empty());
  for (const WriteBatch::Op& op : ops) {
    EXPECT_EQ(op.table, "instance");
    EXPECT_EQ(op.key.rfind(inst_->id() + "/", 0), 0u) << op.key;
  }
}

}  // namespace
}  // namespace biopera::core
