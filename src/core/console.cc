#include "core/console.h"

#include <algorithm>
#include <cctype>

#include "common/strings.h"
#include "common/table.h"
#include "core/planner.h"
#include "obs/critical_path.h"
#include "obs/report.h"
#include "obs/rundiff.h"
#include "obs/span.h"
#include "obs/timeline.h"

namespace biopera::core {

namespace {

std::string Upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return s;
}

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::string token;
  for (char c : line) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!token.empty()) out.push_back(std::move(token));
      token.clear();
    } else {
      token.push_back(c);
    }
  }
  if (!token.empty()) out.push_back(std::move(token));
  return out;
}

constexpr char kHelp[] = R"(commands:
  TEMPLATES | INSTANCES | NODES | JOBS
  STATUS <id> | HISTORY <id> [n] | WB <id> <var>
  LINEAGE <id>  (provenance JSONL) | LINEAGE <id> <var>  (who wrote var)
  DIFF <idA> <idB>
  WHATIF <node> [node...]
  TASKS <id> | ETA <id>
  METRICS [prefix] | STATS | TIMELINE <node|*> | SCRUB
  REPORT <id> [--json] | CRITPATH <id> | SPANS <id|*> [n] [kind]
  SUSPEND <id> | RESUME <id> | ABORT <id> | RESTART <id>
  RAISE <id> <event> | INVALIDATE <id> <task> | ARCHIVE <id>
)";

}  // namespace

Result<std::string> AdminConsole::Execute(const std::string& line) {
  std::vector<std::string> args = Tokenize(line);
  if (args.empty()) return Status::InvalidArgument("empty command");
  const std::string command = Upper(args[0]);

  auto need = [&](size_t n) -> Status {
    if (args.size() < n + 1) {
      return Status::InvalidArgument(command + ": missing argument(s)");
    }
    return Status::OK();
  };

  if (command == "HELP") return std::string(kHelp);

  if (command == "TEMPLATES") {
    std::string out;
    for (const std::string& name : engine_->ListTemplates()) {
      out += name + "\n";
    }
    return out.empty() ? "(no templates)\n" : out;
  }

  if (command == "INSTANCES") {
    TextTable table({"instance", "state", "done", "total", "CPU", "WALL"});
    for (const InstanceSummary& s : engine_->ListInstances()) {
      table.AddRow({s.id, std::string(InstanceStateName(s.state)),
                    StrFormat("%zu", s.tasks_done),
                    StrFormat("%zu", s.tasks_total),
                    s.stats.CpuTime().ToString(),
                    s.state == InstanceState::kRunning
                        ? "(running)"
                        : s.stats.WallTime().ToString()});
    }
    return table.num_rows() == 0 ? std::string("(no instances)\n")
                                 : table.ToString();
  }

  if (command == "STATUS") {
    BIOPERA_RETURN_IF_ERROR(need(1));
    BIOPERA_ASSIGN_OR_RETURN(InstanceSummary s, engine_->Summary(args[1]));
    return StrFormat(
        "instance %s (template %s)\n"
        "  state: %s\n"
        "  tasks: %zu done / %zu running / %zu ready / %zu failed / %zu "
        "total\n"
        "  CPU(P): %s  WALL so far: %s\n"
        "  activities completed: %llu, failed executions: %llu\n",
        s.id.c_str(), s.template_name.c_str(),
        std::string(InstanceStateName(s.state)).c_str(), s.tasks_done,
        s.tasks_running, s.tasks_ready, s.tasks_failed, s.tasks_total,
        s.stats.CpuTime().ToString().c_str(),
        s.stats.WallTime().ToString().c_str(),
        static_cast<unsigned long long>(s.stats.activities_completed),
        static_cast<unsigned long long>(s.stats.activities_failed));
  }

  if (command == "TASKS") {
    BIOPERA_RETURN_IF_ERROR(need(1));
    BIOPERA_ASSIGN_OR_RETURN(std::vector<Engine::TaskRow> rows,
                             engine_->ListTasks(args[1]));
    TextTable table({"task", "state", "node", "attempts", "cost"});
    for (const Engine::TaskRow& row : rows) {
      table.AddRow({row.path, std::string(TaskStateName(row.state)),
                    row.node.empty() ? "-" : row.node,
                    StrFormat("%d", row.attempts),
                    row.cost == Duration::Zero() ? "-"
                                                 : row.cost.ToString()});
    }
    return table.ToString();
  }

  if (command == "ETA") {
    BIOPERA_RETURN_IF_ERROR(need(1));
    BIOPERA_ASSIGN_OR_RETURN(Duration remaining,
                             engine_->EstimateRemainingWork(args[1]));
    return "estimated remaining reference-CPU work: " +
           remaining.ToString() + "\n";
  }

  if (command == "HISTORY") {
    BIOPERA_RETURN_IF_ERROR(need(1));
    if (engine_->FindInstance(args[1]) == nullptr) {
      return Status::NotFound("no instance " + args[1]);
    }
    long long n = 10;
    if (args.size() > 2 && !ParseInt64(args[2], &n)) {
      return Status::InvalidArgument("HISTORY: bad count " + args[2]);
    }
    auto history = engine_->GetHistory(args[1]);
    std::string out;
    size_t start = history.size() > static_cast<size_t>(n)
                       ? history.size() - static_cast<size_t>(n)
                       : 0;
    for (size_t i = start; i < history.size(); ++i) {
      out += history[i] + "\n";
    }
    return out;
  }

  if (command == "WB") {
    BIOPERA_RETURN_IF_ERROR(need(2));
    BIOPERA_ASSIGN_OR_RETURN(ocr::Value v,
                             engine_->GetWhiteboardValue(args[1], args[2]));
    return v.ToText() + "\n";
  }

  if (command == "LINEAGE") {
    BIOPERA_RETURN_IF_ERROR(need(1));
    if (args.size() == 2) {
      // One argument: the instance's full provenance export — which
      // inputs produced which outputs, through which attempts.
      return engine_->ExportLineageJsonl(args[1]);
    }
    BIOPERA_ASSIGN_OR_RETURN(std::string writer,
                             engine_->GetLineage(args[1], args[2]));
    return args[2] + " was written by " + writer + "\n";
  }

  if (command == "DIFF") {
    BIOPERA_RETURN_IF_ERROR(need(2));
    BIOPERA_ASSIGN_OR_RETURN(obs::RunLineage a,
                             engine_->BuildRunLineage(args[1], args[1]));
    BIOPERA_ASSIGN_OR_RETURN(obs::RunLineage b,
                             engine_->BuildRunLineage(args[2], args[2]));
    return obs::DiffRuns(a, b).ToText();
  }

  if (command == "NODES") {
    TextTable table({"node", "up", "cpus", "speed", "ext load", "our jobs",
                     "dispatched", "failures"});
    for (const auto* view : engine_->awareness().UpNodes()) {
      table.AddRow({view->config.name, "yes",
                    StrFormat("%d", view->config.num_cpus),
                    StrFormat("%.2f", view->config.speed),
                    StrFormat("%.0f%%", view->reported_load * 100),
                    StrFormat("%d", view->running_jobs),
                    StrFormat("%llu", (unsigned long long)view->total_dispatched),
                    StrFormat("%llu", (unsigned long long)view->total_failures)});
    }
    return table.ToString();
  }

  if (command == "JOBS") {
    TextTable table({"job", "instance", "task", "node", "work"});
    for (const Engine::RunningJob& job : engine_->GetRunningJobs()) {
      table.AddRow({StrFormat("%llu", (unsigned long long)job.job),
                    job.instance_id, job.path, job.node,
                    job.cost.ToString()});
    }
    return table.num_rows() == 0 ? std::string("(no running jobs)\n")
                                 : table.ToString();
  }

  if (command == "METRICS") {
    obs::Observability* obs = engine_->observability();
    if (obs == nullptr) return std::string("(observability not enabled)\n");
    return obs->metrics.Snapshot().ToText(args.size() > 1 ? args[1] : "");
  }

  if (command == "STATS") {
    Engine::DispatchStats s = engine_->GetDispatchStats();
    return StrFormat(
        "dispatcher:\n"
        "  ready queue:       %zu\n"
        "  parked (starved):  %zu\n"
        "  parked (suspended): %zu\n"
        "  running jobs:      %zu\n"
        "  pump runs:         %llu\n"
        "  entries scanned:   %llu\n"
        "  tasks dispatched:  %llu\n",
        s.ready, s.parked_starved, s.parked_suspended, s.running_jobs,
        static_cast<unsigned long long>(s.pump_runs),
        static_cast<unsigned long long>(s.entries_scanned),
        static_cast<unsigned long long>(s.dispatched));
  }

  if (command == "SCRUB") {
    return engine_->ScrubStore();
  }

  if (command == "TIMELINE") {
    BIOPERA_RETURN_IF_ERROR(need(1));
    obs::Observability* obs = engine_->observability();
    if (obs == nullptr) return std::string("(observability not enabled)\n");
    std::string node = args[1] == "*" ? "" : args[1];
    std::vector<obs::TimelineInterval> intervals =
        obs::BuildTimeline(obs->spans, node);
    if (intervals.empty()) return std::string("(no timeline intervals)\n");
    return obs::TimelineCsv(intervals, obs->spans.dropped());
  }

  if (command == "REPORT") {
    BIOPERA_RETURN_IF_ERROR(need(1));
    obs::Observability* obs = engine_->observability();
    if (obs == nullptr) return std::string("(observability not enabled)\n");
    bool json = false;
    if (args.size() > 2) {
      if (args[2] != "--json") {
        return Status::InvalidArgument("REPORT: unknown option " + args[2]);
      }
      json = true;
    }
    BIOPERA_ASSIGN_OR_RETURN(InstanceSummary s, engine_->Summary(args[1]));
    obs::ReportInput input;
    input.instance = args[1];
    input.state = std::string(InstanceStateName(s.state));
    input.activities_done = s.tasks_done;
    input.activities_total = s.tasks_total;
    Result<Duration> remaining = engine_->EstimateRemainingWork(args[1]);
    if (remaining.ok()) input.remaining_work_seconds = remaining->ToSeconds();
    input.now = obs->spans.Now();
    if (json) return obs::BuildRunReportJson(input, *obs) + "\n";
    return obs::BuildRunReport(input, *obs);
  }

  if (command == "CRITPATH") {
    BIOPERA_RETURN_IF_ERROR(need(1));
    obs::Observability* obs = engine_->observability();
    if (obs == nullptr) return std::string("(observability not enabled)\n");
    return obs::AnalyzeCriticalPath(obs->spans, args[1]).ToText();
  }

  if (command == "SPANS") {
    BIOPERA_RETURN_IF_ERROR(need(1));
    obs::Observability* obs = engine_->observability();
    if (obs == nullptr) return std::string("(observability not enabled)\n");
    long long n = 20;
    if (args.size() > 2 && (!ParseInt64(args[2], &n) || n <= 0)) {
      return Status::InvalidArgument("SPANS: bad count " + args[2]);
    }
    std::string kind;
    if (args.size() > 3) {
      obs::SpanKind parsed;
      if (!obs::SpanKindFromName(args[3], &parsed)) {
        return Status::InvalidArgument("SPANS: unknown kind " + args[3]);
      }
      kind = args[3];
    }
    std::string filter = args[1] == "*" ? "" : args[1];
    std::string out;
    for (obs::Span& span :
         obs->spans.Tail(static_cast<size_t>(n), filter, kind)) {
      out += span.ToJson() + "\n";
    }
    return out.empty() ? std::string("(no matching spans)\n") : out;
  }

  if (command == "WHATIF") {
    BIOPERA_RETURN_IF_ERROR(need(1));
    OutagePlanner planner(engine_);
    std::vector<std::string> nodes(args.begin() + 1, args.end());
    return planner.Plan(nodes).ToReport();
  }

  if (command == "SUSPEND") {
    BIOPERA_RETURN_IF_ERROR(need(1));
    BIOPERA_RETURN_IF_ERROR(engine_->Suspend(args[1]));
    return "suspended " + args[1] + "\n";
  }
  if (command == "RESUME") {
    BIOPERA_RETURN_IF_ERROR(need(1));
    BIOPERA_RETURN_IF_ERROR(engine_->Resume(args[1]));
    return "resumed " + args[1] + "\n";
  }
  if (command == "ABORT") {
    BIOPERA_RETURN_IF_ERROR(need(1));
    BIOPERA_RETURN_IF_ERROR(engine_->Abort(args[1]));
    return "aborted " + args[1] + "\n";
  }
  if (command == "RESTART") {
    BIOPERA_RETURN_IF_ERROR(need(1));
    BIOPERA_RETURN_IF_ERROR(engine_->Restart(args[1]));
    return "restarted " + args[1] + "\n";
  }
  if (command == "ARCHIVE") {
    BIOPERA_RETURN_IF_ERROR(need(1));
    BIOPERA_RETURN_IF_ERROR(engine_->Archive(args[1]));
    return "archived " + args[1] + "\n";
  }
  if (command == "RAISE") {
    BIOPERA_RETURN_IF_ERROR(need(2));
    BIOPERA_RETURN_IF_ERROR(engine_->RaiseEvent(args[1], args[2]));
    return "raised event '" + args[2] + "' on " + args[1] + "\n";
  }
  if (command == "INVALIDATE") {
    BIOPERA_RETURN_IF_ERROR(need(2));
    BIOPERA_RETURN_IF_ERROR(engine_->Invalidate(args[1], args[2]));
    return "invalidated " + args[2] + " (and downstream) on " + args[1] +
           "\n";
  }

  return Status::InvalidArgument("unknown command " + command +
                                 "; try HELP");
}

}  // namespace biopera::core
