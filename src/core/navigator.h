#ifndef BIOPERA_CORE_NAVIGATOR_H_
#define BIOPERA_CORE_NAVIGATOR_H_

#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/time.h"
#include "core/activity.h"
#include "core/instance.h"
#include "ocr/model.h"
#include "store/spaces.h"

namespace biopera::core {

/// The effects of navigation outside the instance tree. The navigator
/// calls each one at the exact point of the step where it is due, so a
/// host that acts at once keeps the order of every queue entry, timer and
/// store write.
class NavigatorHost {
 public:
  virtual ~NavigatorHost() = default;
  /// `node`, an activity, became ready (its state is already in the
  /// step's batch): queue it for dispatch.
  virtual void TaskReady(ProcessInstance* inst, TaskNode* node) = 0;
  /// `node` failed and waits `backoff` in kRetryWait; when it is over and
  /// the node still waits, Navigator::MarkReady makes it ready again.
  virtual void RetryDue(ProcessInstance* inst, TaskNode* node,
                        Duration backoff) = 0;
  /// The children of `subtree` are about to be discarded: stop every job
  /// still running under it.
  virtual void KillJobs(ProcessInstance* inst, const TaskNode* subtree) = 0;
  /// `inst->state()` was just written (kDone: the instance completed).
  virtual void InstanceStateWritten(ProcessInstance* inst) = 0;
  /// A line for the instance's execution history.
  virtual void AppendHistory(const std::string& instance_id,
                             const std::string& event) = 0;
  /// A failure of `node` (an activity or a composite) was counted.
  virtual void TaskFailed(ProcessInstance* inst, TaskNode* node) = 0;
};

/// The instance state of a persisted instance as its header row holds
/// it, for readers without the loaded instance.
struct PersistedHeader {
  std::string template_name;
  std::string state;
};

/// The binding an activity node runs: the alternative after failures
/// switched it, else its definition's (empty for a node without one).
inline const std::string& BindingOf(const TaskNode& node) {
  return node.binding_used.empty() && node.def != nullptr ? node.def->binding
                                                          : node.binding_used;
}

/// The task row of `node` in the instance record format: a map of its
/// state, attempts, binding, outputs, cost, start and finish times and,
/// once it expanded, its expansion list or subprocess template name.
std::string EncodeTaskRecord(const TaskNode& node);

/// Reads a task row written by EncodeTaskRecord straight into `node`, with
/// no intermediate map: outputs and expansion are decoded into the node.
/// The state goes to `*state` (the caller writes it through
/// ProcessInstance::SetTaskState, which keeps the per-state counts) and
/// the subprocess template's name to `*sub_template`. An absent field, or
/// one of another type, leaves the field's default; a number of the other
/// kind converts as RecordInt does; an unknown field is skipped.
/// Corruption when the row is not a marker-framed map, has bytes after it,
/// or names no task state.
Status DecodeTaskRecord(std::string_view record, TaskNode* node,
                        TaskState* state, std::string* sub_template);

/// The navigator of the paper's Figure 2: moves a process's OCR graph
/// forward over its persistent state. It owns the instance tree's
/// semantics (activation, connector evaluation, data mappings, parallel
/// and subprocess expansion, failure policies, spheres of atomicity,
/// events), the instance record format in the instance space, and the
/// template cache. Every transition goes into the caller's WriteBatch;
/// committing it is the caller's job.
class Navigator {
 public:
  /// `clock`, `spaces`, `registry` (compensation bindings) and `host` must
  /// outlive the navigator.
  Navigator(const Clock* clock, Spaces* spaces,
            const ActivityRegistry* registry, NavigatorHost* host)
      : clock_(clock), spaces_(spaces), registry_(registry), host_(host) {}

  // --- Templates -------------------------------------------------------------
  /// The parsed template `name`, from the cache or the template space.
  /// Pointers stay valid for the navigator's life: instances hold them.
  Result<const ocr::ProcessDef*> ResolveTemplate(const std::string& name);
  /// Writes `def` (already validated) to the template space. Instances keep
  /// the parse they hold; later activations late-bind to `def` (§3.1).
  Status StoreTemplate(const ocr::ProcessDef& def);

  // --- Navigation steps ------------------------------------------------------
  /// A fresh instance of `def`: whiteboard defaults overlaid by `args`.
  std::unique_ptr<ProcessInstance> NewInstance(std::string id,
                                               const ocr::ProcessDef* def,
                                               const ocr::Value::Map& args,
                                               int priority);
  /// Persists a new instance and activates its start tasks.
  Status Start(ProcessInstance* inst, WriteBatch* batch);
  /// Marks a task done, applies its output mappings, bubbles completion up
  /// and re-evaluates the surrounding scope.
  Status Complete(ProcessInstance* inst, TaskNode* node,
                  ocr::Value::Map outputs, Duration cost, WriteBatch* batch);
  /// Counts a failure of `node` and applies its failure policy: retry
  /// (possibly with the alternative binding), ignore, or fail the scope.
  Status Fail(ProcessInstance* inst, TaskNode* node, const std::string& reason,
              WriteBatch* batch);
  /// Re-readies failed, stuck and dead-path tasks (attempts reset) and
  /// re-runs navigation over every active scope.
  Status Restart(ProcessInstance* inst, WriteBatch* batch);
  /// Discards the top-level task `task_name` (which must exist) and
  /// everything control-flow downstream of it, then re-runs navigation.
  Status Invalidate(ProcessInstance* inst, const std::string& task_name,
                    WriteBatch* batch);
  /// Records `event` (not yet raised) and activates the tasks gated on it.
  Status RaiseEvent(ProcessInstance* inst, const std::string& event,
                    WriteBatch* batch);

  // --- Dispatcher transitions ------------------------------------------------
  /// Activity `node` is queued again (requeue, migration, end of a retry
  /// backoff).
  void MarkReady(ProcessInstance* inst, TaskNode* node, WriteBatch* batch);
  /// Activity `node` was dispatched.
  void MarkRunning(ProcessInstance* inst, TaskNode* node, WriteBatch* batch);
  /// Persists the instance header (state, statistics, lineage, events).
  void PersistHeader(const ProcessInstance* inst, WriteBatch* batch);
  /// The activity input of `node`, assembled from its input mappings.
  Result<ActivityInput> BuildInput(TaskNode* node);

  // --- Recovery --------------------------------------------------------------
  /// Rebuilds one instance from its instance-space rows (key order, the
  /// "<id>/" prefix stripped, as Spaces::ScanInstances groups them). Each
  /// row is found by binary search and decoded once, straight into the
  /// tree; a row the tree does not reach (a stale whiteboard) is still
  /// checked. The rows are not read after this returns. Corruption names
  /// the row and the instance.
  Result<std::unique_ptr<ProcessInstance>> Rebuild(
      std::string_view instance_id,
      std::span<const RecordStore::RowView> rows);
  /// Re-readies activities a crash interrupted: queued, running (their job
  /// died with the server or node), or waiting out a retry backoff (the
  /// timer did not survive). Reports each ready activity; returns how many.
  size_t RequeueInterrupted(ProcessInstance* inst, WriteBatch* batch);
  /// The persisted header of `instance_id`; NotFound without one.
  Result<PersistedHeader> ReadHeader(const std::string& instance_id) const;

 private:
  /// One navigation step over one instance (defined in navigator.cc).
  struct Step;

  const Clock* clock_;
  Spaces* spaces_;
  const ActivityRegistry* registry_;
  NavigatorHost* host_;
  /// Parsed templates by name.
  std::map<std::string, std::unique_ptr<ocr::ProcessDef>> template_cache_;
  /// Superseded parses kept alive because instances may still point at them.
  std::vector<std::unique_ptr<ocr::ProcessDef>> retired_defs_;
};

}  // namespace biopera::core

#endif  // BIOPERA_CORE_NAVIGATOR_H_
