#include "core/navigator.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <set>
#include <string_view>

#include "common/strings.h"
#include "ocr/expr.h"
#include "ocr/ocr_text.h"
#include "store/codec.h"

namespace biopera::core {

using ocr::ControlConnector;
using ocr::ProcessDef;
using ocr::TaskDef;
using ocr::TaskKind;
using ocr::Value;

namespace {

// ---------------------------------------------------------------------------
// Reference resolution
// ---------------------------------------------------------------------------

/// Descends a dotted path inside a Value (maps only).
Result<Value> Descend(const Value& v, const std::vector<std::string>& path,
                      size_t from) {
  const Value* cur = &v;
  for (size_t i = from; i < path.size(); ++i) {
    if (!cur->is_map()) {
      return Status::NotFound("cannot descend into non-map at " + path[i]);
    }
    auto it = cur->AsMap().find(path[i]);
    if (it == cur->AsMap().end()) {
      return Status::NotFound("no field " + path[i]);
    }
    cur = &it->second;
  }
  return *cur;
}

/// Sets `value` at a dotted path inside `map`, creating nested maps.
Status SetIntoMap(Value::Map* map, const std::vector<std::string>& path,
                  size_t from, Value value) {
  assert(from < path.size());
  Value::Map* cur = map;
  for (size_t i = from; i + 1 < path.size(); ++i) {
    Value& slot = (*cur)[path[i]];
    if (!slot.is_map()) slot = Value(Value::Map{});
    cur = &slot.AsMap();
  }
  (*cur)[path.back()] = std::move(value);
  return Status::OK();
}

Result<std::vector<std::string>> SplitRef(std::string_view ref) {
  BIOPERA_ASSIGN_OR_RETURN(ocr::Expr e, ocr::Expr::Parse(ref));
  if (e.kind() != ocr::Expr::Kind::kRef) {
    return Status::InvalidArgument("not a data reference: " +
                                   std::string(ref));
  }
  return e.ref_path();
}

/// Evaluation context rooted at one scope node: resolves wb.*, sibling
/// task outputs, and parallel-body locals (item / index).
class ScopeEvalContext : public ocr::EvalContext {
 public:
  ScopeEvalContext(TaskNode* scope, const TaskNode* current)
      : scope_(scope), current_(current) {}

  Result<Value> Lookup(const std::vector<std::string>& path) const override {
    if (path.empty()) return Status::InvalidArgument("empty reference");
    const std::string& root = path[0];
    if (root == "wb") {
      if (path.size() < 2) return Status::InvalidArgument("bare wb ref");
      Value::Map* wb = scope_->ScopeWhiteboard();
      auto it = wb->find(path[1]);
      if (it == wb->end()) return Status::NotFound("no wb var " + path[1]);
      return Descend(it->second, path, 2);
    }
    if (root == "item" || root == "index") {
      const TaskNode* body =
          current_ != nullptr ? current_->BodyAncestor() : nullptr;
      if (body == nullptr) body = scope_->BodyAncestor();
      if (body == nullptr) {
        return Status::NotFound("no parallel body in scope for " + root);
      }
      if (root == "index") return Value(body->index);
      return Descend(body->item, path, 1);
    }
    // Sibling task outputs: <task>.out.<field>...
    TaskNode* sibling = scope_->FindChild(root);
    if (sibling == nullptr) {
      return Status::NotFound("no task or variable " + root);
    }
    if (path.size() < 2 || path[1] != "out") {
      return Status::InvalidArgument("task reference must use " + root +
                                     ".out.*");
    }
    if (path.size() == 2) return Value(sibling->outputs);
    auto it = sibling->outputs.find(path[2]);
    if (it == sibling->outputs.end()) {
      return Status::NotFound("no output field " + path[2]);
    }
    return Descend(it->second, path, 3);
  }

 private:
  TaskNode* scope_;
  const TaskNode* current_;
};

/// Evaluates `node`'s input mappings in its parent's scope into `dst`
/// (targets "in.<name>..."). A source that does not resolve is an optional
/// input: null when `missing_as_null`, else left out.
Status MapInputs(TaskNode* node, Value::Map* dst, bool missing_as_null) {
  ScopeEvalContext ctx(node->parent, node);
  for (const ocr::Mapping& m : node->def->inputs) {
    BIOPERA_ASSIGN_OR_RETURN(std::vector<std::string> from, SplitRef(m.from));
    BIOPERA_ASSIGN_OR_RETURN(std::vector<std::string> to, SplitRef(m.to));
    Result<Value> v = ctx.Lookup(from);
    if (!v.ok() && v.status().IsNotFound()) {
      if (missing_as_null) (*dst)[to[1]] = Value();
      continue;
    }
    BIOPERA_RETURN_IF_ERROR(v.status());
    BIOPERA_RETURN_IF_ERROR(SetIntoMap(dst, to, 1, std::move(*v)));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Instance record format: Value::Map <-> marker-framed binary records
// (store/codec.h), one header row, one row per activated task, one
// whiteboard row per scope owner.
// ---------------------------------------------------------------------------

constexpr char kTaskRecordPrefix[] = "task/";

constexpr char kRootWhiteboardKey[] = "wb";
constexpr char kWhiteboardPrefix[] = "wb/";

std::string TaskRecordKey(const std::string& path) {
  return kTaskRecordPrefix + path;
}

/// "wb" for the root's whiteboard, "wb/<path>" for a subprocess's.
std::string WhiteboardKey(const std::string& owner_path) {
  return owner_path.empty() ? kRootWhiteboardKey
                            : kWhiteboardPrefix + owner_path;
}

std::string EncodeHeader(const ProcessInstance& inst) {
  Value::Map rec;
  rec["template"] = Value(inst.def().name);
  rec["state"] = Value(std::string(InstanceStateName(inst.state())));
  rec["priority"] = Value(static_cast<int64_t>(inst.priority()));
  rec["cpu_seconds"] = Value(inst.stats().cpu_seconds);
  rec["completed"] =
      Value(static_cast<int64_t>(inst.stats().activities_completed));
  rec["failed"] = Value(static_cast<int64_t>(inst.stats().activities_failed));
  rec["started_us"] = Value(inst.stats().started.micros());
  rec["finished_us"] = Value(inst.stats().finished.micros());
  rec["lineage"] =
      Value(Value::Map(inst.lineage().begin(), inst.lineage().end()));
  if (!inst.raised_events().empty()) {
    rec["events"] = Value(Value::List(inst.raised_events().begin(),
                                      inst.raised_events().end()));
  }
  return EncodeValueRecord(Value(std::move(rec)));
}

/// Creates the children of `node` from its definition and resolved
/// expansion: the process's tasks under the root, a block's subtasks, one
/// body per element of a parallel node's `expansion`, or the tasks of a
/// subprocess node's `sub_def`. Activation and recovery both expand
/// through here, so a rebuilt tree is the tree that ran.
void CreateChildren(ProcessInstance* inst, TaskNode* node) {
  auto add = [&](const TaskDef* def, std::string path) {
    auto child = std::make_unique<TaskNode>();
    child->def = def;
    child->parent = node;
    child->path = std::move(path);
    TaskNode* raw = child.get();
    inst->IndexNode(raw);
    node->children.push_back(std::move(child));
    return raw;
  };
  if (node->kind() == TaskKind::kActivity) return;
  if (node->kind() == TaskKind::kParallel) {
    const Value::List& items = node->expansion.AsList();
    for (size_t i = 0; i < items.size(); ++i) {
      TaskNode* child = add(&node->def->body[0],
                            node->path + '[' + std::to_string(i) + ']');
      child->item = items[i];
      child->index = static_cast<int64_t>(i);
    }
    return;
  }
  // Root tasks are addressed by name, block subtasks after a '.' and
  // subprocess tasks after a '/'.
  const std::vector<TaskDef>* tasks = &inst->def().tasks;
  std::string prefix;
  if (!node->is_root()) {
    const bool block = node->kind() == TaskKind::kBlock;
    node->connectors =
        block ? &node->def->connectors : &node->sub_def->connectors;
    tasks = block ? &node->def->subtasks : &node->sub_def->tasks;
    prefix = node->path + (block ? "." : "/");
  }
  for (const TaskDef& task : *tasks) add(&task, prefix + task.name);
}

}  // namespace

std::string EncodeTaskRecord(const TaskNode& node) {
  Value::Map rec;
  rec["state"] = Value(std::string(TaskStateName(node.state)));
  rec["attempts"] = Value(static_cast<int64_t>(node.attempts));
  if (!node.binding_used.empty()) rec["binding"] = Value(node.binding_used);
  if (!node.outputs.empty()) rec["outputs"] = Value(node.outputs);
  if (node.cost != Duration::Zero()) {
    rec["cost_us"] = Value(node.cost.micros());
  }
  rec["started_us"] = Value(node.started.micros());
  rec["finished_us"] = Value(node.finished.micros());
  if (!node.expansion.is_null()) rec["expansion"] = node.expansion;
  if (node.sub_def != nullptr) rec["sub"] = Value(node.sub_def->name);
  return EncodeValueRecord(Value(std::move(rec)));
}

Status DecodeTaskRecord(std::string_view record, TaskNode* node,
                        TaskState* state, std::string* sub_template) {
  node->attempts = 0;
  node->binding_used.clear();
  node->outputs.clear();
  node->cost = Duration::Zero();
  node->started = node->finished = TimePoint();
  node->expansion = Value();
  sub_template->clear();
  auto string_or_empty = [](Value& v) {
    return v.is_string() ? std::move(v.AsString()) : std::string();
  };
  std::string state_name;
  Value field;  // every field but the expansion decodes here first
  MapRecordReader reader(record);
  std::string_view key;
  while (reader.NextKey(&key)) {
    const bool expansion = key == "expansion";
    if (!reader.ReadValue(expansion ? &node->expansion : &field)) break;
    if (key == "state") {
      state_name = string_or_empty(field);
    } else if (key == "attempts") {
      node->attempts = static_cast<int>(NumberAsInt(field, 0));
    } else if (key == "binding") {
      node->binding_used = string_or_empty(field);
    } else if (key == "outputs") {
      node->outputs = field.is_map() ? std::move(field.AsMap()) : Value::Map();
    } else if (key == "cost_us") {
      node->cost = Duration::Micros(NumberAsInt(field, 0));
    } else if (key == "started_us") {
      node->started = TimePoint::FromMicros(NumberAsInt(field, 0));
    } else if (key == "finished_us") {
      node->finished = TimePoint::FromMicros(NumberAsInt(field, 0));
    } else if (key == "sub") {
      *sub_template = string_or_empty(field);
    }
  }
  BIOPERA_RETURN_IF_ERROR(reader.status());
  Result<TaskState> parsed = TaskStateFromName(state_name);
  if (!parsed.ok()) {
    return Status::Corruption("unknown task state '" + state_name + "'");
  }
  *state = *parsed;
  return Status::OK();
}

/// One navigation step: the helpers every entry point shares, bound to
/// one instance and the batch its transitions go to.
struct Navigator::Step {
  Navigator* nav;
  ProcessInstance* inst;
  WriteBatch* batch;

  TimePoint Now() const { return nav->clock_->Now(); }
  NavigatorHost* host() const { return nav->host_; }
  void History(const std::string& event) {
    host()->AppendHistory(inst->id(), event);
  }

  void PersistTask(const TaskNode* node) {
    nav->spaces_->BatchPutInstanceRecord(batch, inst->id(),
                                         TaskRecordKey(node->path),
                                         EncodeTaskRecord(*node));
  }
  void PersistWhiteboard(const TaskNode* owner) {
    nav->spaces_->BatchPutInstanceRecord(
        batch, inst->id(), WhiteboardKey(owner->path),
        EncodeValueRecord(Value(*owner->own_whiteboard)));
  }
  void PersistHeader() { nav->PersistHeader(inst, batch); }
  /// Writes `state` to `node` and persists the node.
  void Transition(TaskNode* node, TaskState state) {
    inst->SetTaskState(node, state);
    PersistTask(node);
  }

  /// Expands running composite `node` and navigates into it: resolves
  /// what it expands over (the LIST value, or the subprocess template and
  /// its initial whiteboard) and creates its children.
  Status Run(TaskNode* node) {
    const TaskDef* def = node->def;
    if (node->kind() == TaskKind::kParallel) {
      ScopeEvalContext ctx(node->parent, node);
      BIOPERA_ASSIGN_OR_RETURN(std::vector<std::string> ref,
                               SplitRef(def->list_input));
      BIOPERA_ASSIGN_OR_RETURN(Value list, ctx.Lookup(ref));
      if (!list.is_list()) {
        return Status::InvalidArgument(
            node->path + ": parallel LIST input " + def->list_input +
            " is not a list (got " + std::string(list.TypeName()) + ")");
      }
      node->expansion = std::move(list);
    } else if (node->kind() == TaskKind::kSubprocess) {
      // Late binding: the template is resolved only now, so a re-registered
      // definition takes effect for instances expanded afterwards (§3.1).
      BIOPERA_ASSIGN_OR_RETURN(node->sub_def,
                               nav->ResolveTemplate(def->subprocess_name));
      auto wb = std::make_unique<Value::Map>();
      for (const ocr::DataObjectDef& d : node->sub_def->whiteboard) {
        (*wb)[d.name] = d.initial;
      }
      // Input mappings initialize same-named whiteboard variables
      // ("in.<param>": the parameter name doubles as the variable name).
      BIOPERA_RETURN_IF_ERROR(MapInputs(node, wb.get(),
                                        /*missing_as_null=*/false));
      node->own_whiteboard = std::move(wb);
    }
    CreateChildren(inst, node);
    if (node->sub_def != nullptr) PersistWhiteboard(node);
    PersistTask(node);
    // An empty expansion (or empty subprocess) completes immediately.
    return Evaluate(node);
  }

  Status Activate(TaskNode* node) {
    // ON_EVENT gate: the task is eligible but waits for its trigger.
    if (node->def != nullptr && !node->def->wait_event.empty() &&
        !inst->raised_events().contains(node->def->wait_event)) {
      Transition(node, TaskState::kEventWait);
      History(StrFormat("task %s waiting for event '%s'", node->path.c_str(),
                        node->def->wait_event.c_str()));
      return Status::OK();
    }
    node->started = Now();
    if (node->kind() == TaskKind::kActivity) {
      Transition(node, TaskState::kReady);
      host()->TaskReady(inst, node);
      return Status::OK();
    }
    inst->SetTaskState(node, TaskState::kRunning);
    return Run(node);
  }

  /// Runs connector evaluation in `scope` until fixpoint, activating and
  /// skipping children.
  Status EvaluateScope(TaskNode* scope) {
    // A parallel scope has no connectors: all its bodies start at once.
    static const std::vector<ControlConnector> kNoConnectors;
    const std::vector<ControlConnector>& connectors =
        scope->connectors != nullptr ? *scope->connectors : kNoConnectors;
    bool changed = true;
    while (changed) {
      changed = false;
      for (auto& child : scope->children) {
        if (child->state != TaskState::kInactive) continue;
        // Collect incoming connectors of this child.
        bool all_evaluated = true;
        bool any_true = false;
        bool has_incoming = false;
        for (const ControlConnector& conn : connectors) {
          if (conn.target != child->def->name) continue;
          has_incoming = true;
          TaskNode* source = scope->FindChild(conn.source);
          if (source == nullptr) {
            return Status::Internal("connector source missing: " + conn.source);
          }
          if (!IsTerminal(source->state)) {
            all_evaluated = false;
            break;
          }
          if (source->state == TaskState::kSkipped ||
              source->state == TaskState::kFailed) {
            continue;  // dead path: connector is false
          }
          bool value = true;
          if (!conn.condition.empty()) {
            BIOPERA_ASSIGN_OR_RETURN(ocr::Expr expr,
                                     ocr::Expr::Parse(conn.condition));
            ScopeEvalContext ctx(scope, child.get());
            BIOPERA_ASSIGN_OR_RETURN(Value v, expr.Eval(ctx));
            value = v.Truthy();
          }
          any_true = any_true || value;
        }
        if (!all_evaluated) continue;
        // A start task of the scope (no incoming connector) activates as
        // soon as the scope runs.
        if (!has_incoming || any_true) {
          BIOPERA_RETURN_IF_ERROR(Activate(child.get()));
        } else {
          // Dead path: all incoming connectors are false.
          child->finished = Now();
          Transition(child.get(), TaskState::kSkipped);
        }
        changed = true;
      }
    }
    return Status::OK();
  }

  /// Sets each (target "wb.<var>...", value) in `owner`'s whiteboard,
  /// records `writer` as each variable's lineage and persists the
  /// whiteboard once. No writes, no row.
  Status WriteWhiteboard(
      TaskNode* owner, const std::string& writer,
      std::vector<std::pair<std::string_view, Value>> writes) {
    if (writes.empty()) return Status::OK();
    for (auto& [target, value] : writes) {
      BIOPERA_ASSIGN_OR_RETURN(std::vector<std::string> to, SplitRef(target));
      if (to[0] != "wb" || to.size() < 2) {
        return Status::InvalidArgument(writer + ": target " +
                                       std::string(target) + " must be wb.*");
      }
      BIOPERA_RETURN_IF_ERROR(
          SetIntoMap(owner->own_whiteboard.get(), to, 1, std::move(value)));
      inst->lineage()[to[1]] = writer;
    }
    PersistWhiteboard(owner);
    return Status::OK();
  }

  Status ApplyOutputMappings(TaskNode* node) {
    if (node->def == nullptr || node->def->outputs.empty()) return Status::OK();
    // Parallel bodies contribute via collection, not mappings.
    if (node->index >= 0) return Status::OK();
    const Value outputs(node->outputs);
    std::vector<std::pair<std::string_view, Value>> writes;
    for (const ocr::Mapping& m : node->def->outputs) {
      BIOPERA_ASSIGN_OR_RETURN(std::vector<std::string> from, SplitRef(m.from));
      // from = "out.<field>..."
      Result<Value> v = Descend(outputs, from, 1);
      if (!v.ok() && v.status().IsNotFound()) continue;  // absent output field
      BIOPERA_RETURN_IF_ERROR(v.status());
      writes.emplace_back(m.to, std::move(*v));
    }
    return WriteWhiteboard(node->parent->ScopeOwner(), node->path,
                           std::move(writes));
  }

  Status Complete(TaskNode* node, Value::Map outputs, Duration cost) {
    node->outputs = std::move(outputs);
    node->cost = cost;
    inst->SetTaskState(node, TaskState::kDone);
    node->finished = Now();
    if (node->kind() == TaskKind::kActivity) {
      inst->stats().cpu_seconds += cost.ToSeconds();
      ++inst->stats().activities_completed;
    }
    BIOPERA_RETURN_IF_ERROR(ApplyOutputMappings(node));
    PersistTask(node);
    PersistHeader();
    return ReevaluateParent(node);
  }

  /// `node` became terminal: its completion or failure may enable
  /// siblings, or finish the surrounding scope.
  Status ReevaluateParent(TaskNode* node) {
    TaskNode* parent = node->parent;
    if (parent == nullptr) return Status::OK();
    BIOPERA_RETURN_IF_ERROR(EvaluateScope(parent));
    return MaybeCompleteScope(parent);
  }

  /// Finishes `scope` once all its children are terminal: collection,
  /// compensation, failure, or instance completion at the root.
  Status MaybeCompleteScope(TaskNode* scope) {
    if (scope->state != TaskState::kRunning && !scope->is_root()) {
      return Status::OK();
    }
    bool all_terminal = true;
    bool any_failed = false;
    for (const auto& child : scope->children) {
      if (!IsTerminal(child->state)) {
        all_terminal = false;
        break;
      }
      if (child->state == TaskState::kFailed) any_failed = true;
    }
    if (!all_terminal) return Status::OK();

    if (scope->is_root()) {
      if (inst->state() == InstanceState::kRunning ||
          inst->state() == InstanceState::kSuspended) {
        inst->set_state(any_failed ? InstanceState::kFailed
                                   : InstanceState::kDone);
        host()->InstanceStateWritten(inst);
        inst->stats().finished = Now();
        PersistHeader();
        History(any_failed ? "failed" : "completed");
      }
      return Status::OK();
    }

    if (any_failed) {
      if (scope->kind() == TaskKind::kBlock && scope->def != nullptr &&
          scope->def->atomic) {
        return CompensateSphere(scope);
      }
      return Fail(scope, "nested task failed");
    }

    switch (scope->kind()) {
      case TaskKind::kBlock:
        return Complete(scope, {}, Duration::Zero());
      case TaskKind::kParallel: {
        // Collect body results in index order.
        Value::List collected;
        for (const auto& child : scope->children) {
          if (child->state == TaskState::kSkipped) {
            collected.emplace_back();  // null placeholder
          } else if (child->def->kind == TaskKind::kSubprocess) {
            collected.emplace_back(child->own_whiteboard == nullptr
                                       ? Value::Map{}
                                       : *child->own_whiteboard);
          } else {
            collected.emplace_back(child->outputs);
          }
        }
        if (!scope->def->collect_output.empty()) {
          BIOPERA_RETURN_IF_ERROR(WriteWhiteboard(
              scope->parent->ScopeOwner(), scope->path,
              {{scope->def->collect_output, Value(std::move(collected))}}));
        }
        Value::Map outputs;
        outputs["count"] = Value(static_cast<int64_t>(scope->children.size()));
        return Complete(scope, std::move(outputs), Duration::Zero());
      }
      case TaskKind::kSubprocess:
        // The subprocess's output structure is its final whiteboard.
        return Complete(scope, *scope->own_whiteboard, Duration::Zero());
      case TaskKind::kActivity:
        return Status::Internal("activity cannot be a scope");
    }
    return Status::OK();
  }

  Status Fail(TaskNode* node, const std::string& reason) {
    ++inst->stats().activities_failed;
    ++node->attempts;
    History(StrFormat("task %s failed (attempt %d): %s", node->path.c_str(),
                      node->attempts, reason.c_str()));
    const ocr::FailurePolicy& policy =
        node->def != nullptr ? node->def->failure : ocr::FailurePolicy{};

    const bool can_retry = node->kind() == TaskKind::kActivity &&
                           node->attempts <= policy.max_retries;
    host()->TaskFailed(inst, node);
    if (can_retry) {
      if (!policy.alternative_binding.empty()) {
        node->binding_used = policy.alternative_binding;
      }
      Transition(node, TaskState::kRetryWait);
      host()->RetryDue(inst, node, policy.retry_backoff);
      return Status::OK();
    }

    if (policy.ignore_failure) {
      // Spheres-of-atomicity boundary: the failure is absorbed and the task
      // completes with an empty output structure.
      return Complete(node, {}, Duration::Zero());
    }

    node->finished = Now();
    Transition(node, TaskState::kFailed);
    PersistHeader();
    return ReevaluateParent(node);
  }

  /// Sphere-of-atomicity failure: runs the compensation bindings of the
  /// sphere's completed activities in reverse completion order, discards
  /// its state, and re-runs it (bounded by its failure policy).
  Status CompensateSphere(TaskNode* scope) {
    History(StrFormat("sphere %s failed; running compensation",
                      scope->path.c_str()));
    // Completed activities with undo actions, in reverse completion order.
    std::vector<TaskNode*> done;
    std::function<void(TaskNode*)> collect = [&](TaskNode* n) {
      for (auto& child : n->children) {
        collect(child.get());
        if (child->kind() == TaskKind::kActivity &&
            child->state == TaskState::kDone && child->def != nullptr &&
            !child->def->compensation_binding.empty()) {
          done.push_back(child.get());
        }
      }
    };
    collect(scope);
    std::stable_sort(done.begin(), done.end(),
                     [](const TaskNode* a, const TaskNode* b) {
                       return a->finished > b->finished;
                     });
    bool compensation_failed = false;
    for (TaskNode* node : done) {
      Result<ActivityFn> fn =
          nav->registry_->Find(node->def->compensation_binding);
      ActivityInput input;
      input.params = node->outputs;  // the undo action sees what was produced
      Result<ActivityOutput> out =
          fn.ok() ? (*fn)(input) : Result<ActivityOutput>(fn.status());
      if (!out.ok()) {
        History(StrFormat("compensation of %s FAILED: %s", node->path.c_str(),
                          out.status().ToString().c_str()));
        compensation_failed = true;
        break;
      }
      inst->stats().cpu_seconds += out->cost.ToSeconds();
      History(StrFormat("compensated %s via %s", node->path.c_str(),
                        node->def->compensation_binding.c_str()));
    }
    DiscardSubtree(scope);
    ++inst->stats().activities_failed;
    ++scope->attempts;
    PersistHeader();
    if (!compensation_failed &&
        scope->attempts <= scope->def->failure.max_retries) {
      History(StrFormat("re-running sphere %s (attempt %d)",
                        scope->path.c_str(), scope->attempts + 1));
      return Run(scope);
    }
    PersistTask(scope);
    // Exhausted (or an undo action itself failed): regular failure path.
    // Fail sees a composite and routes to kFailed/ignore.
    return Fail(scope, compensation_failed ? "sphere compensation failed"
                                           : "sphere retries exhausted");
  }

  /// Runs navigation over running `scope` (or the root) and every running
  /// scope under it, bottom-up so child completions bubble upward.
  Status Evaluate(TaskNode* scope) {
    for (auto& child : scope->children) {
      if (!child->children.empty() && child->state == TaskState::kRunning) {
        BIOPERA_RETURN_IF_ERROR(Evaluate(child.get()));
      }
    }
    if (!scope->is_root() && scope->state != TaskState::kRunning) {
      return Status::OK();
    }
    BIOPERA_RETURN_IF_ERROR(EvaluateScope(scope));
    return MaybeCompleteScope(scope);
  }

  /// Deletes the children of `node` (records, index entries and nodes)
  /// after the host killed the jobs under it.
  void DiscardSubtree(TaskNode* node) {
    host()->KillJobs(inst, node);
    std::function<void(TaskNode*)> discard = [&](TaskNode* n) {
      for (auto& child : n->children) {
        discard(child.get());
        nav->spaces_->BatchDeleteInstanceRecord(batch, inst->id(),
                                                TaskRecordKey(child->path));
        if (child->own_whiteboard != nullptr) {
          nav->spaces_->BatchDeleteInstanceRecord(batch, inst->id(),
                                                  WhiteboardKey(child->path));
        }
        inst->UnindexNode(child.get());
      }
      n->children.clear();
    };
    discard(node);
  }
};

// ---------------------------------------------------------------------------
// Navigator
// ---------------------------------------------------------------------------

Result<const ProcessDef*> Navigator::ResolveTemplate(const std::string& name) {
  auto it = template_cache_.find(name);
  if (it != template_cache_.end()) return it->second.get();
  BIOPERA_ASSIGN_OR_RETURN(std::string text, spaces_->GetTemplate(name));
  BIOPERA_ASSIGN_OR_RETURN(ProcessDef def, ocr::ParseOcr(text));
  auto owned = std::make_unique<ProcessDef>(std::move(def));
  const ProcessDef* ptr = owned.get();
  template_cache_[name] = std::move(owned);
  return ptr;
}

Status Navigator::StoreTemplate(const ProcessDef& def) {
  BIOPERA_RETURN_IF_ERROR(spaces_->PutTemplate(def.name, ocr::PrintOcr(def)));
  // Retire (but keep alive) any cached parse: existing instances hold
  // pointers into it; new activations late-bind to the fresh text.
  auto it = template_cache_.find(def.name);
  if (it != template_cache_.end()) {
    retired_defs_.push_back(std::move(it->second));
    template_cache_.erase(it);
  }
  return Status::OK();
}

std::unique_ptr<ProcessInstance> Navigator::NewInstance(
    std::string id, const ProcessDef* def, const Value::Map& args,
    int priority) {
  auto inst = std::make_unique<ProcessInstance>(std::move(id), def);
  inst->set_priority(priority);
  inst->stats().started = clock_->Now();
  for (const auto& [key, value] : args) {
    inst->whiteboard()[key] = value;
  }
  CreateChildren(inst.get(), inst->root());
  return inst;
}

Status Navigator::Start(ProcessInstance* inst, WriteBatch* batch) {
  Step step{this, inst, batch};
  step.PersistHeader();
  step.PersistWhiteboard(inst->root());
  return step.Evaluate(inst->root());
}

Status Navigator::Complete(ProcessInstance* inst, TaskNode* node,
                           Value::Map outputs, Duration cost,
                           WriteBatch* batch) {
  return Step{this, inst, batch}.Complete(node, std::move(outputs), cost);
}

Status Navigator::Fail(ProcessInstance* inst, TaskNode* node,
                       const std::string& reason, WriteBatch* batch) {
  return Step{this, inst, batch}.Fail(node, reason);
}

Status Navigator::Restart(ProcessInstance* inst, WriteBatch* batch) {
  Step step{this, inst, batch};
  inst->ForEachNode([&](TaskNode* node) {
    if (node->state == TaskState::kSkipped) {
      // Dead paths may have been skipped because their source failed;
      // reset and let re-evaluation decide again.
      step.Transition(node, TaskState::kInactive);
      return;
    }
    if (node->state != TaskState::kFailed &&
        node->state != TaskState::kRetryWait &&
        node->state != TaskState::kRunning) {
      return;
    }
    // An activity is queued again; a composite runs again and its
    // children re-queue themselves.
    const bool activity = node->kind() == TaskKind::kActivity;
    node->attempts = 0;
    step.Transition(node, activity ? TaskState::kReady : TaskState::kRunning);
    if (activity) host_->TaskReady(inst, node);
  });
  step.PersistHeader();
  // Connectors whose sources are already complete must re-activate the
  // tasks just reset.
  return step.Evaluate(inst->root());
}

Status Navigator::Invalidate(ProcessInstance* inst,
                             const std::string& task_name,
                             WriteBatch* batch) {
  // Transitive control-flow closure over the top-level connectors.
  std::set<std::string> affected = {task_name};
  bool grew = true;
  while (grew) {
    grew = false;
    for (const ControlConnector& conn : inst->def().connectors) {
      if (affected.contains(conn.source) && !affected.contains(conn.target)) {
        affected.insert(conn.target);
        grew = true;
      }
    }
  }
  Step step{this, inst, batch};
  for (const std::string& name : affected) {
    TaskNode* node = inst->root()->FindChild(name);
    if (node == nullptr || node->state == TaskState::kInactive) continue;
    step.DiscardSubtree(node);
    node->attempts = 0;
    node->outputs.clear();
    node->expansion = Value();
    node->sub_def = nullptr;
    node->own_whiteboard.reset();
    node->connectors = nullptr;
    step.Transition(node, TaskState::kInactive);
  }
  if (inst->state() != InstanceState::kSuspended) {
    inst->set_state(InstanceState::kRunning);
    host_->InstanceStateWritten(inst);
  }
  inst->stats().finished = TimePoint();
  step.PersistHeader();
  step.History(StrFormat("invalidated %s and %zu downstream task(s)",
                         task_name.c_str(), affected.size() - 1));
  // Upstream results are intact; re-evaluation re-activates the tail.
  return step.Evaluate(inst->root());
}

Status Navigator::RaiseEvent(ProcessInstance* inst, const std::string& event,
                             WriteBatch* batch) {
  Step step{this, inst, batch};
  inst->raised_events().insert(event);
  step.History("event raised: " + event);
  step.PersistHeader();
  // Release every task gated on this event.
  std::vector<TaskNode*> waiting;
  inst->ForEachNode([&](TaskNode* node) {
    if (node->state == TaskState::kEventWait && node->def != nullptr &&
        node->def->wait_event == event) {
      waiting.push_back(node);
    }
  });
  for (TaskNode* node : waiting) {
    inst->SetTaskState(node, TaskState::kInactive);
    BIOPERA_RETURN_IF_ERROR(step.Activate(node));
  }
  return Status::OK();
}

void Navigator::MarkReady(ProcessInstance* inst, TaskNode* node,
                          WriteBatch* batch) {
  Step{this, inst, batch}.Transition(node, TaskState::kReady);
}

void Navigator::MarkRunning(ProcessInstance* inst, TaskNode* node,
                            WriteBatch* batch) {
  node->started = clock_->Now();
  Step{this, inst, batch}.Transition(node, TaskState::kRunning);
}

void Navigator::PersistHeader(const ProcessInstance* inst, WriteBatch* batch) {
  spaces_->BatchPutInstanceRecord(batch, inst->id(), "header",
                                  EncodeHeader(*inst));
}

Result<ActivityInput> Navigator::BuildInput(TaskNode* node) {
  ActivityInput input;
  BIOPERA_RETURN_IF_ERROR(
      MapInputs(node, &input.params, /*missing_as_null=*/true));
  return input;
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

Result<std::unique_ptr<ProcessInstance>> Navigator::Rebuild(
    std::string_view instance_id, std::span<const RecordStore::RowView> rows) {
  // The rows are in key order, so each record is found by binary search
  // and nothing is indexed; `read` marks the rows the rebuild consumed.
  std::vector<bool> read(rows.size());
  std::string wanted;
  auto find = [&](std::string_view prefix,
                  std::string_view path) -> const RecordStore::RowView* {
    wanted.assign(prefix).append(path);
    auto it = std::lower_bound(
        rows.begin(), rows.end(), wanted,
        [](const RecordStore::RowView& row, std::string_view key) {
          return row.key < key;
        });
    if (it == rows.end() || it->key != wanted) return nullptr;
    read[it - rows.begin()] = true;
    return &*it;
  };
  auto bad_record = [&](std::string_view key, std::string_view what) {
    return Status::Corruption("bad record " + std::string(key) + " in " +
                              std::string(instance_id) + ": " +
                              std::string(what));
  };
  // Header and whiteboard rows are plain maps, moved into place.
  auto decode_map = [&](const RecordStore::RowView& row) -> Result<Value::Map> {
    Result<Value> v = DecodeValueRecord(row.value);
    if (!v.ok()) return bad_record(row.key, v.status().message());
    if (!v->is_map()) return bad_record(row.key, "not a map");
    return std::move(v->AsMap());
  };

  const RecordStore::RowView* header_row = find("header", "");
  if (header_row == nullptr) return bad_record("header", "missing");
  BIOPERA_ASSIGN_OR_RETURN(Value::Map header, decode_map(*header_row));
  BIOPERA_ASSIGN_OR_RETURN(const ProcessDef* def,
                           ResolveTemplate(RecordString(header, "template")));
  auto inst = std::make_unique<ProcessInstance>(std::string(instance_id), def);
  BIOPERA_ASSIGN_OR_RETURN(
      InstanceState state,
      InstanceStateFromName(RecordString(header, "state")));
  inst->set_state(state);
  host_->InstanceStateWritten(inst.get());
  inst->set_priority(static_cast<int>(RecordInt(header, "priority", 0)));
  InstanceStats& stats = inst->stats();
  stats.cpu_seconds = RecordDouble(header, "cpu_seconds", 0);
  stats.activities_completed = RecordInt(header, "completed", 0);
  stats.activities_failed = RecordInt(header, "failed", 0);
  stats.started = TimePoint::FromMicros(RecordInt(header, "started_us", 0));
  stats.finished = TimePoint::FromMicros(RecordInt(header, "finished_us", 0));
  auto lin = header.find("lineage");
  if (lin != header.end() && lin->second.is_map()) {
    for (auto& [var, writer] : lin->second.AsMap()) {
      if (writer.is_string()) {
        inst->lineage()[var] = std::move(writer.AsString());
      }
    }
  }
  auto events = header.find("events");
  if (events != header.end() && events->second.is_list()) {
    for (auto& event : events->second.AsList()) {
      if (event.is_string()) {
        inst->raised_events().insert(std::move(event.AsString()));
      }
    }
  }
  if (const RecordStore::RowView* wb = find(kRootWhiteboardKey, "")) {
    BIOPERA_ASSIGN_OR_RETURN(*inst->root()->own_whiteboard, decode_map(*wb));
  }

  // Recursively restore each recorded node, expanding composites over what
  // their activation resolved: the expansion list, or the subprocess
  // template and its whiteboard row.
  std::string sub_template;
  std::function<Status(TaskNode*)> rebuild = [&](TaskNode* node) -> Status {
    const RecordStore::RowView* row = find(kTaskRecordPrefix, node->path);
    if (row == nullptr) return Status::OK();  // still inactive
    TaskState task_state;
    if (Status st =
            DecodeTaskRecord(row->value, node, &task_state, &sub_template);
        !st.ok()) {
      return bad_record(row->key, st.message());
    }
    inst->SetTaskState(node, task_state);
    if (node->state == TaskState::kInactive ||
        node->state == TaskState::kSkipped) {
      return Status::OK();
    }
    if (node->kind() == TaskKind::kParallel) {
      if (!node->expansion.is_list()) {
        return bad_record(row->key, "parallel task without expansion");
      }
    } else if (node->kind() == TaskKind::kSubprocess) {
      BIOPERA_ASSIGN_OR_RETURN(node->sub_def, ResolveTemplate(sub_template));
      node->own_whiteboard = std::make_unique<Value::Map>();
      if (const RecordStore::RowView* wb =
              find(kWhiteboardPrefix, node->path)) {
        BIOPERA_ASSIGN_OR_RETURN(*node->own_whiteboard, decode_map(*wb));
      }
    }
    CreateChildren(inst.get(), node);
    for (auto& child : node->children) {
      BIOPERA_RETURN_IF_ERROR(rebuild(child.get()));
    }
    return Status::OK();
  };
  CreateChildren(inst.get(), inst->root());
  for (auto& child : inst->root()->children) {
    BIOPERA_RETURN_IF_ERROR(rebuild(child.get()));
  }
  // A row no node reached (the whiteboard row an invalidated subprocess
  // leaves behind) must still be a well-formed map.
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!read[i]) BIOPERA_RETURN_IF_ERROR(decode_map(rows[i]).status());
  }
  return inst;
}

size_t Navigator::RequeueInterrupted(ProcessInstance* inst,
                                     WriteBatch* batch) {
  Step step{this, inst, batch};
  size_t requeued = 0;
  inst->ForEachNode([&](TaskNode* node) {
    if (node->kind() != TaskKind::kActivity) return;
    if (node->state == TaskState::kRunning ||
        node->state == TaskState::kRetryWait) {
      step.Transition(node, TaskState::kReady);
    }
    if (node->state == TaskState::kReady) {
      host_->TaskReady(inst, node);
      ++requeued;
    }
  });
  return requeued;
}

Result<PersistedHeader> Navigator::ReadHeader(
    const std::string& instance_id) const {
  BIOPERA_ASSIGN_OR_RETURN(std::string text,
                           spaces_->GetInstanceRecord(instance_id, "header"));
  BIOPERA_ASSIGN_OR_RETURN(Value v, DecodeValueRecord(text));
  if (!v.is_map()) return PersistedHeader{};
  return PersistedHeader{RecordString(v.AsMap(), "template"),
                         RecordString(v.AsMap(), "state")};
}

}  // namespace biopera::core
