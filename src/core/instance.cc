#include "core/instance.h"

#include <functional>

namespace biopera::core {

std::string_view TaskStateName(TaskState s) {
  switch (s) {
    case TaskState::kInactive: return "Inactive";
    case TaskState::kReady: return "Ready";
    case TaskState::kRunning: return "Running";
    case TaskState::kRetryWait: return "RetryWait";
    case TaskState::kEventWait: return "EventWait";
    case TaskState::kDone: return "Done";
    case TaskState::kSkipped: return "Skipped";
    case TaskState::kFailed: return "Failed";
  }
  return "?";
}

Result<TaskState> TaskStateFromName(std::string_view name) {
  for (TaskState s :
       {TaskState::kInactive, TaskState::kReady, TaskState::kRunning,
        TaskState::kRetryWait, TaskState::kEventWait, TaskState::kDone,
        TaskState::kSkipped, TaskState::kFailed}) {
    if (TaskStateName(s) == name) return s;
  }
  return Status::InvalidArgument("unknown task state: " + std::string(name));
}

bool IsTerminal(TaskState s) {
  return s == TaskState::kDone || s == TaskState::kSkipped ||
         s == TaskState::kFailed;
}

std::string_view InstanceStateName(InstanceState s) {
  switch (s) {
    case InstanceState::kRunning: return "Running";
    case InstanceState::kSuspended: return "Suspended";
    case InstanceState::kDone: return "Done";
    case InstanceState::kFailed: return "Failed";
    case InstanceState::kAborted: return "Aborted";
  }
  return "?";
}

Result<InstanceState> InstanceStateFromName(std::string_view name) {
  for (InstanceState s :
       {InstanceState::kRunning, InstanceState::kSuspended,
        InstanceState::kDone, InstanceState::kFailed,
        InstanceState::kAborted}) {
    if (InstanceStateName(s) == name) return s;
  }
  return Status::InvalidArgument("unknown instance state: " +
                                 std::string(name));
}

TaskNode* TaskNode::FindChild(std::string_view name) {
  for (auto& child : children) {
    if (child->def != nullptr && child->def->name == name) {
      return child.get();
    }
  }
  return nullptr;
}

TaskNode* TaskNode::ScopeOwner() {
  TaskNode* node = this;
  while (node->parent != nullptr && node->own_whiteboard == nullptr) {
    node = node->parent;
  }
  return node;
}

ocr::Value::Map* TaskNode::ScopeWhiteboard() {
  TaskNode* owner = ScopeOwner();
  return owner->own_whiteboard.get();
}

const TaskNode* TaskNode::BodyAncestor() const {
  const TaskNode* node = this;
  while (node != nullptr) {
    if (node->index >= 0) return node;
    node = node->parent;
  }
  return nullptr;
}

ProcessInstance::ProcessInstance(std::string id, const ocr::ProcessDef* def)
    : id_(std::move(id)), def_(def) {
  root_.path = "";
  root_.state = TaskState::kRunning;
  root_.connectors = &def_->connectors;
  root_.own_whiteboard = std::make_unique<ocr::Value::Map>();
  for (const ocr::DataObjectDef& d : def_->whiteboard) {
    (*root_.own_whiteboard)[d.name] = d.initial;
  }
}

void ProcessInstance::ForEachNode(const std::function<void(TaskNode*)>& fn) {
  std::function<void(TaskNode*)> walk = [&](TaskNode* node) {
    for (auto& child : node->children) {
      fn(child.get());
      walk(child.get());
    }
  };
  walk(&root_);
}

void ProcessInstance::ForEachNode(
    const std::function<void(const TaskNode*)>& fn) const {
  std::function<void(const TaskNode*)> walk = [&](const TaskNode* node) {
    for (const auto& child : node->children) {
      fn(child.get());
      walk(child.get());
    }
  };
  walk(&root_);
}

TaskNode* ProcessInstance::FindByPath(std::string_view path) {
  auto it = path_index_.find(path);
  return it == path_index_.end() ? nullptr : it->second;
}

const TaskNode* ProcessInstance::FindByPath(std::string_view path) const {
  auto it = path_index_.find(path);
  return it == path_index_.end() ? nullptr : it->second;
}

void ProcessInstance::IndexNode(TaskNode* node) {
  path_index_[node->path] = node;
  ++state_counts_[static_cast<size_t>(node->state)];
  if (node->kind() == ocr::TaskKind::kActivity) {
    ++activity_counts_[static_cast<size_t>(node->state)];
  }
}

void ProcessInstance::UnindexNode(TaskNode* node) {
  auto it = path_index_.find(node->path);
  if (it == path_index_.end() || it->second != node) return;
  path_index_.erase(it);
  --state_counts_[static_cast<size_t>(node->state)];
  if (node->kind() == ocr::TaskKind::kActivity) {
    --activity_counts_[static_cast<size_t>(node->state)];
  }
  ++structure_generation_;
}

void ProcessInstance::SetTaskState(TaskNode* node, TaskState s) {
  if (node->state == s) return;
  // The pseudo-root is never indexed; its state is not counted.
  if (!node->is_root()) {
    --state_counts_[static_cast<size_t>(node->state)];
    ++state_counts_[static_cast<size_t>(s)];
    if (node->kind() == ocr::TaskKind::kActivity) {
      --activity_counts_[static_cast<size_t>(node->state)];
      ++activity_counts_[static_cast<size_t>(s)];
    }
  }
  node->state = s;
}

}  // namespace biopera::core
