#ifndef BIOPERA_CORE_CONSOLE_H_
#define BIOPERA_CORE_CONSOLE_H_

#include <string>

#include "core/engine.h"

namespace biopera::core {

/// Text administration console over a running engine — the operator
/// tooling the paper sketches in §3.4/§3.5 ("a system administrator could
/// ask the system which processes will be affected if a node or set of
/// nodes is taken off-line"). One command in, one report out; every
/// command is also usable programmatically through the Engine API this
/// wraps.
///
/// Commands (case-insensitive keyword, space-separated arguments):
///   HELP
///   TEMPLATES                     list registered process templates
///   INSTANCES                     one status line per instance
///   STATUS <id>                   detailed instance status
///   HISTORY <id> [n]              last n (default 10) history entries
///   WB <id> <var>                 whiteboard value
///   LINEAGE <id> <var>            which task wrote the variable
///   NODES                         awareness-model view of the cluster
///   JOBS                          running jobs (instance, task, node)
///   METRICS [prefix]              metrics-registry snapshot (if enabled)
///   STATS                         dispatcher internals
///   TIMELINE <node|*>             job spans as per-node execution
///                                 intervals (CSV)
///   SPANS <id|*> [n] [kind]       last n spans (default 20) as JSONL
///   REPORT <id> [--json]          progress, ETA, critical path, per-node
///                                 utilization
///   CRITPATH <id>                 critical-path breakdown
///   SCRUB                         store self-check
///   WHATIF <node> [node...]       outage plan for taking nodes off-line
///   SUSPEND|RESUME|ABORT|RESTART <id>
///   RAISE <id> <event>            deliver an OCR event
///   INVALIDATE <id> <task>        recompute a task and its downstream
class AdminConsole {
 public:
  explicit AdminConsole(Engine* engine) : engine_(engine) {}

  /// Executes one command line; the returned string is the report shown to
  /// the operator. Errors come back as statuses (unknown command, missing
  /// arguments, unknown instance, ...).
  Result<std::string> Execute(const std::string& line);

 private:
  Engine* engine_;
};

}  // namespace biopera::core

#endif  // BIOPERA_CORE_CONSOLE_H_
