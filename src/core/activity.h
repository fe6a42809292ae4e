#ifndef BIOPERA_CORE_ACTIVITY_H_
#define BIOPERA_CORE_ACTIVITY_H_

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/time.h"
#include "ocr/value.h"

namespace biopera::core {

/// Input structure of one activity execution: the parameters assembled by
/// the task's input mappings.
struct ActivityInput {
  ocr::Value::Map params;

  /// Convenience accessor; returns null for missing parameters.
  const ocr::Value& Get(const std::string& name) const;
};

/// What an external program invocation produced: the output data structure
/// (consumed by the task's output mappings / parallel collection) plus the
/// reference-CPU work the invocation represents. In simulated experiments
/// `cost` comes from the Darwin cost model; in real-computation mode it can
/// be the measured execution time.
struct ActivityOutput {
  ocr::Value::Map fields;
  Duration cost = Duration::Seconds(1);
  /// Execution parameters the activity wants on the task's lineage
  /// record beyond its bound inputs — PAM matrix id/version, noise
  /// seeds, thresholds. Flat (key, value) pairs in insertion order.
  std::vector<std::pair<std::string, std::string>> provenance;
};

/// The implementation of one external binding. Implementations must be
/// deterministic and idempotent: after a node crash or a lost report the
/// engine re-executes the activity (checkpointing is per completed
/// activity, paper §3.3).
using ActivityFn = std::function<Result<ActivityOutput>(const ActivityInput&)>;

/// Maps external binding names (TaskDef::binding) to implementations —
/// BioOpera's activity library (paper §3.2: pre-packaged activities
/// prepared by expert users).
class ActivityRegistry {
 public:
  /// Registers `fn` under `binding`; AlreadyExists if taken.
  Status Register(std::string binding, ActivityFn fn);
  /// Replaces or adds a binding (library upgrades).
  void Override(std::string binding, ActivityFn fn);
  Result<ActivityFn> Find(const std::string& binding) const;
  bool Contains(const std::string& binding) const;
  size_t size() const { return fns_.size(); }

 private:
  std::map<std::string, ActivityFn> fns_;
};

}  // namespace biopera::core

#endif  // BIOPERA_CORE_ACTIVITY_H_
