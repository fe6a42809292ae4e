#ifndef BIOPERA_CORE_INSTANCE_H_
#define BIOPERA_CORE_INSTANCE_H_

#include <array>
#include <functional>
#include <map>
#include <set>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/time.h"
#include "ocr/model.h"
#include "ocr/value.h"

namespace biopera::core {

/// Lifecycle of one task instance.
enum class TaskState {
  kInactive,   // not yet eligible
  kReady,      // eligible, queued at the dispatcher
  kRunning,    // dispatched to a node (activity) / children active (composite)
  kRetryWait,  // failed, waiting out the retry backoff
  kEventWait,  // activated but gated on an ON_EVENT trigger
  kDone,       // completed; outputs applied
  kSkipped,    // dead path: all incoming connectors false
  kFailed,     // failed permanently (retries exhausted)
};
/// Number of TaskState values (size of per-state count arrays).
inline constexpr size_t kNumTaskStates = 8;

std::string_view TaskStateName(TaskState s);
Result<TaskState> TaskStateFromName(std::string_view name);
/// True for states a task can no longer leave during normal navigation.
bool IsTerminal(TaskState s);

enum class InstanceState {
  kRunning,
  kSuspended,
  kDone,
  kFailed,
  kAborted,
};
std::string_view InstanceStateName(InstanceState s);
Result<InstanceState> InstanceStateFromName(std::string_view name);

/// Runtime node of the task-instance tree. The tree mirrors the TaskDef
/// structure, with parallel tasks expanded into one child per list element
/// and subprocesses expanded into their (late-bound) definition's tasks.
/// The pseudo-root of an instance has def == nullptr and owns the process
/// whiteboard scope.
struct TaskNode {
  const ocr::TaskDef* def = nullptr;
  TaskNode* parent = nullptr;
  /// Persistent address, e.g. "alignment[3]/fixed_pam" (index suffix =
  /// parallel expansion; '/' = subprocess boundary; '.' = block nesting).
  std::string path;

  TaskState state = TaskState::kInactive;
  int attempts = 0;
  /// Binding actually used (switches to the alternative after failures).
  std::string binding_used;
  /// Output structure after completion (activities: the ActivityFn fields;
  /// subprocesses: the final child whiteboard).
  ocr::Value::Map outputs;
  /// Reference-CPU cost charged for the completed execution.
  Duration cost;
  TimePoint started;
  TimePoint finished;

  /// Observability: span id of this task's latest attempt (0 when spans
  /// are not enabled). Runtime-only — never persisted; after a server
  /// crash rebuilt nodes start at 0 and the server-down overlay span
  /// explains the causal gap. A retry reads it to link the new attempt
  /// span to the one it replaces.
  uint64_t last_attempt_span = 0;

  /// Parallel-body locals (index >= 0 marks a body instance).
  ocr::Value item;
  int64_t index = -1;
  /// For an expanded parallel node: the evaluated input list.
  ocr::Value expansion;

  /// Children: block subtasks, parallel bodies, or subprocess tasks.
  std::vector<std::unique_ptr<TaskNode>> children;
  /// Connectors scoping the children (null for parallel).
  const std::vector<ocr::ControlConnector>* connectors = nullptr;
  /// Late-bound subprocess definition (owned by the navigator's template
  /// cache) and its private whiteboard.
  const ocr::ProcessDef* sub_def = nullptr;
  std::unique_ptr<ocr::Value::Map> own_whiteboard;

  bool is_root() const { return def == nullptr && parent == nullptr; }
  ocr::TaskKind kind() const {
    return def == nullptr ? ocr::TaskKind::kBlock : def->kind;
  }
  /// Finds a direct child by task-definition name.
  TaskNode* FindChild(std::string_view name);
  /// The whiteboard this node's scope reads and writes (walks up to the
  /// nearest subprocess boundary or the instance root).
  ocr::Value::Map* ScopeWhiteboard();
  /// The node owning the whiteboard (root or subprocess ancestor).
  TaskNode* ScopeOwner();
  /// Nearest ancestor-or-self carrying parallel-body locals, or nullptr.
  const TaskNode* BodyAncestor() const;
};

/// Execution statistics of one instance, the measurements of §5.2:
/// CPU(P) = sum of activity CPU times, WALL(P) = finish - start, and
/// CPU(A) = CPU(P) / |A|.
struct InstanceStats {
  double cpu_seconds = 0;
  uint64_t activities_completed = 0;
  uint64_t activities_failed = 0;  // failed executions (before retries)
  TimePoint started;
  TimePoint finished;

  Duration CpuTime() const { return Duration::Seconds(cpu_seconds); }
  Duration WallTime() const { return finished - started; }
  Duration CpuPerActivity() const {
    if (activities_completed == 0) return Duration::Zero();
    return Duration::Seconds(cpu_seconds /
                             static_cast<double>(activities_completed));
  }
};

/// One executing (or recovered) process: the instance tree plus the
/// process whiteboard, statistics and lineage records. Pure state — all
/// navigation logic and persistence live in the Navigator.
class ProcessInstance {
 public:
  /// The pseudo-root with the process whiteboard's defaults; the
  /// navigator creates the task nodes under it.
  ProcessInstance(std::string id, const ocr::ProcessDef* def);

  const std::string& id() const { return id_; }
  const ocr::ProcessDef& def() const { return *def_; }
  TaskNode* root() { return &root_; }
  const TaskNode* root() const { return &root_; }

  /// The process whiteboard (owned by the pseudo-root node's scope).
  ocr::Value::Map& whiteboard() { return *root_.own_whiteboard; }
  const ocr::Value::Map& whiteboard() const { return *root_.own_whiteboard; }

  InstanceState state() const { return state_; }
  void set_state(InstanceState s) { state_ = s; }

  InstanceStats& stats() { return stats_; }
  const InstanceStats& stats() const { return stats_; }

  int priority() const { return priority_; }
  void set_priority(int p) { priority_ = p; }

  /// Lineage: whiteboard variable -> path of the task that last wrote it
  /// (paper conclusion: "lineage tracking is done automatically").
  std::map<std::string, std::string>& lineage() { return lineage_; }
  const std::map<std::string, std::string>& lineage() const {
    return lineage_;
  }

  /// Events raised against this instance (OCR event handling): tasks with
  /// an ON_EVENT gate wait until their event appears here.
  std::set<std::string>& raised_events() { return raised_events_; }
  const std::set<std::string>& raised_events() const {
    return raised_events_;
  }

  /// Depth-first walk over all task nodes (excluding the pseudo-root).
  void ForEachNode(const std::function<void(TaskNode*)>& fn);
  void ForEachNode(const std::function<void(const TaskNode*)>& fn) const;

  /// Finds a node by its persistent path; nullptr if absent. O(log n) via
  /// the path index.
  TaskNode* FindByPath(std::string_view path);
  const TaskNode* FindByPath(std::string_view path) const;

  /// Must be called for every TaskNode created after construction
  /// (composite expansion, recovery) to keep the path index current.
  void IndexNode(TaskNode* node);
  /// Removes a destroyed node from the path index and the state counters
  /// (sphere-of-atomicity re-runs, invalidation). Bumps the structure
  /// generation, invalidating cached TaskNode pointers held elsewhere.
  void UnindexNode(TaskNode* node);

  /// All task-state writes after IndexNode must go through here so the
  /// per-state counters stay exact.
  void SetTaskState(TaskNode* node, TaskState s);

  /// O(1) task-state aggregates over all indexed nodes / activity nodes
  /// only. Kept incrementally by IndexNode/UnindexNode/SetTaskState so
  /// Summary and the progress estimators never walk the tree.
  size_t NumNodes() const { return path_index_.size(); }
  size_t CountInState(TaskState s) const {
    return state_counts_[static_cast<size_t>(s)];
  }
  size_t ActivitiesInState(TaskState s) const {
    return activity_counts_[static_cast<size_t>(s)];
  }

  /// Bumped whenever an indexed node is destroyed; consumers caching raw
  /// TaskNode pointers re-resolve via FindByPath when this moves.
  uint64_t structure_generation() const { return structure_generation_; }

  /// Observability: id of this instance's span in the experiment's span
  /// sink (0 when spans are not enabled). Runtime-only, never persisted;
  /// recovery re-attaches it via SpanSink::FindOpen so one instance keeps
  /// one span across server crashes and restarts.
  uint64_t span_id() const { return span_id_; }
  void set_span_id(uint64_t id) { span_id_ = id; }

 private:
  std::string id_;
  const ocr::ProcessDef* def_;
  TaskNode root_;
  InstanceState state_ = InstanceState::kRunning;
  InstanceStats stats_;
  int priority_ = 0;
  std::map<std::string, std::string> lineage_;
  std::set<std::string> raised_events_;
  std::map<std::string, TaskNode*, std::less<>> path_index_;
  std::array<size_t, kNumTaskStates> state_counts_{};
  std::array<size_t, kNumTaskStates> activity_counts_{};
  uint64_t structure_generation_ = 0;
  uint64_t span_id_ = 0;
};

}  // namespace biopera::core

#endif  // BIOPERA_CORE_INSTANCE_H_
